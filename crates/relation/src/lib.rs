//! Categorical relation substrate for database-structure mining.
//!
//! The paper's tools operate on a single relation of `n` tuples over `m`
//! categorical attributes (Section 4). This crate provides:
//!
//! * [`Relation`] — columnar storage with a **global** value dictionary:
//!   identical strings appearing in different attributes intern to the same
//!   value id, matching the paper's value universe `V = V1 ∪ … ∪ Vm`.
//!   (This is what lets the DBLP experiment discover that six attributes
//!   share the prevailing `NULL` value.)
//! * [`AttrSet`] — a bitset over attribute ids, shared by the FD miner and
//!   FD-RANK.
//! * [`matrix`] — the paper's probabilistic views of a relation:
//!   the tuple matrix `M` (`p(V|t)`), the value matrix `N` (`p(T|v)`) and
//!   the support matrix `O` (`O[v,A]` = occurrences of value `v` in
//!   attribute `A`), Figures 2, 3 and 6.
//! * [`stats`] — projection statistics (distinct counts, bag-semantics
//!   entropies) underlying the RAD/RTR duplication measures, read off
//!   stripped partitions, and per-column profiles.
//! * [`partition`] — stripped partitions (`π_X`), the workhorse of TANE
//!   and of direct FD checks, cached per attribute by `dbmine-context`.
//! * [`csv`] — a small, dependency-free CSV reader/writer so relations can
//!   be loaded from real exports.

pub mod attrset;
pub mod csv;
pub mod dict;
pub mod hash;
pub mod matrix;
pub mod paper;
pub mod partition;
pub mod relation;
pub mod shard;
pub mod spill;
pub mod stats;

pub use attrset::AttrSet;
pub use dict::{ValueDict, ValueId, NULL_VALUE};
pub use hash::ContentHasher;
pub use matrix::{qualified_row, qualified_stride, tuple_mutual_information_chunks, ValueIndex};
pub use partition::{attr_partitions_chunks, ClassSizes, PartitionScratch, StrippedPartition};
pub use relation::{select_rows_chunks, AttrId, Relation, RelationBuilder};
pub use shard::{RelationChunk, ShardedRelation, DEFAULT_CHUNK_TUPLES};
pub use spill::{SpillWriter, StoreChunks, StoreError, StoreFooter};
pub use stats::ProjectionStats;
