//! Duplication summaries (Section 6 of the paper).
//!
//! From a relation instance — with no trusted schema or constraints —
//! these tools derive progressively higher-level structural clues:
//!
//! 1. [`tuples`] — clusters of (near-)duplicate **tuples** (Section 6.1.1)
//!    and horizontal partitions of overloaded tables ([`partition`],
//!    Section 6.1.2).
//! 2. [`values`] — groups of co-occurring **attribute values**, split into
//!    duplicate groups `C_VD` and non-duplicate groups `C_VND`
//!    (Section 6.2).
//! 3. [`attributes`] — a full agglomerative grouping of the **attributes**
//!    over the duplicate value groups (matrix `F`), whose merge sequence
//!    feeds FD-RANK (Section 6.3).
//!
//! [`render`] draws the dendrograms of Figures 10 and 14–18 as ASCII.

pub mod attributes;
pub mod dedupe;
pub mod partition;
pub mod render;
pub mod tuples;
pub mod values;
pub mod vertical;

pub use attributes::{group_attributes, AttributeGrouping};
pub use dedupe::{eliminate_duplicates, DedupeResult};
pub use partition::{horizontal_partition_ctx, suggest_k, PartitionResult};
pub use tuples::{
    find_duplicate_tuples_ctx, tuple_summary_assignment_ctx, DuplicateReport, TupleGroup,
};
pub use values::{cluster_values_ctx, ValueClustering, ValueGroup};
pub use vertical::{vertical_partition, VerticalPartition};
