//! LIMBO — scaLable InforMation BOttleneck clustering (Section 5.2).
//!
//! AIB is quadratic in the number of objects, so the paper clusters large
//! data sets with LIMBO: a BIRCH-style, three-phase algorithm that keeps
//! only *Distributional Cluster Features* in memory.
//!
//! 1. **Phase 1** — stream the objects into [`DcfTree`]s; leaf DCFs
//!    whose merge would lose at most `φ · I(V;T)/|V|` bits are merged on
//!    insertion, so the leaves form a compact summary of the data whose
//!    accuracy is controlled by `φ` (with `φ = 0` only identical objects
//!    merge and LIMBO degenerates to AIB).
//! 2. **Phase 2** — run AIB over the (much fewer) leaf DCFs to the
//!    desired number of clusters `k`.
//! 3. **Phase 3** — re-scan the objects and associate each with its
//!    closest representative by information loss.
//!
//! Phase 1 cuts the stream into a [`ShardPlan`] and merges the shard
//! trees ([`sharded`]). Tuples stream from the context's chunk pass
//! ([`TupleStream`]): Phase 1 and Phase 3 each rebuild the tuple DCFs
//! one window at a time, so no phase holds all `n` of them. The
//! [`input`] module builds the other two object lists (attribute values
//! with the ADCF `O` extension, attributes over duplicate value groups),
//! and [`double`] implements Double Clustering — re-expressing values over
//! tuple *clusters* to scale value clustering.

pub mod double;
pub mod input;
pub mod pipeline;
pub mod sharded;
pub mod tree;
pub mod tuples;

pub use double::reexpress_over_clusters;
pub use input::{attribute_dcfs, value_dcfs_with};
pub use pipeline::{phase1, phase2_with, phase3_with, run, Limbo, LimboModel, LimboParams};
pub use sharded::{phase1_auto, phase1_sharded, ShardPlan, ShardedPhase1, DEFAULT_CHUNK_TUPLES};
pub use tree::DcfTree;
pub use tuples::{tuple_dcfs, tuple_dcfs_ctx, TupleStream};
