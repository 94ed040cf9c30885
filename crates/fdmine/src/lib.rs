//! Functional-dependency mining.
//!
//! FD-RANK (Section 7 of the paper) ranks *existing* sets of functional
//! dependencies; this crate supplies the dependency-mining substrate the
//! paper leans on:
//!
//! * [`fdep`] — the FDEP algorithm of Savnik & Flach, used in the paper's
//!   experiments: compute all **maximal invalid** dependencies by pairwise
//!   tuple comparison (the negative cover), then derive the **minimal
//!   valid** dependencies from it.
//! * [`tane`] — the TANE levelwise miner of Huhtala et al. (the paper's
//!   alternative, `[15]`), built on stripped partitions — the right tool
//!   once relations reach tens of thousands of tuples, where FDEP's
//!   quadratic pairwise scan is infeasible.
//! * [`cover`] — canonical/minimum covers in the style of Maier `[16]`:
//!   attribute-set closures, left-reduction, redundancy elimination.
//! * [`check`] — direct validity and `g3` approximation-error checks for
//!   single dependencies.
//! * [`approximate`] — approximate FDs under TANE's `g3` error (the
//!   Figure-5 situation: one bad value turns `C → B` approximate).
//! * [`fastfds`] — the FastFDs depth-first miner of Wyss et al. (the
//!   paper's `[28]`), a third independent implementation used for
//!   cross-validation.
//! * [`mvd`] — multivalued dependencies (the paper's `[25]` sibling
//!   problem): instance checks, dependency bases, bounded mining.
//! * [`brute`] — a brute-force miner for cross-validating the real miners
//!   on small inputs (used heavily by tests).

pub mod agree;
pub mod approximate;
pub mod brute;
pub mod check;
pub mod cover;
pub mod fastfds;
pub mod fd;
pub mod fdep;
pub mod mvd;
pub mod tane;

/// Stripped partitions now live in `dbmine-relation` (so the shared
/// `dbmine-context` view cache can memoize them); re-exported under the
/// historical path for existing callers.
pub use dbmine_relation::partition as partitions;

pub use approximate::{exact_subset, mine_approximate_ctx, ApproxFd};
pub use check::{fd_error_g3, fd_holds, partition_of, partition_of_ctx};
pub use cover::{closure, minimum_cover};
pub use fastfds::mine_fastfds;
pub use fd::Fd;
pub use fdep::mine_fdep_ctx;
pub use mvd::{mine_mvds, mvd_holds, Mvd};
pub use partitions::{PartitionScratch, StrippedPartition};
pub use tane::{mine_tane_ctx, TaneOptions};
