//! Functional-dependency mining.
//!
//! FD-RANK (Section 7 of the paper) ranks *existing* sets of functional
//! dependencies; this crate supplies the dependency-mining substrate the
//! paper leans on:
//!
//! * [`tane`] — the TANE levelwise miner of Huhtala et al. (the paper's
//!   `[15]`), built on stripped partitions: the exact miner the
//!   structure-mining pipeline runs at every input size.
//! * [`fdep`] — the FDEP algorithm of Savnik & Flach, used in the paper's
//!   experiments: compute all **maximal invalid** dependencies by pairwise
//!   tuple comparison (the negative cover), then derive the **minimal
//!   valid** dependencies from it. Its quadratic pairwise scan loses to
//!   TANE beyond a few hundred tuples; it is kept as an independent
//!   cross-check of TANE.
//! * [`cover`] — canonical/minimum covers in the style of Maier `[16]`:
//!   attribute-set closures, left-reduction, redundancy elimination.
//! * [`check`] — direct validity and `g3` approximation-error checks for
//!   single dependencies.
//! * [`approximate`] — approximate FDs under TANE's `g3` error (the
//!   Figure-5 situation: one bad value turns `C → B` approximate).
//! * [`lattice`] — the one levelwise lattice walk behind [`tane`],
//!   [`approximate`] and the reliable miner of `dbmine-reliability`: the
//!   prefix-join generation and the minimal-LHS scoring walk.
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
pub mod lattice;
pub mod mvd;
pub mod tane;

pub use approximate::{mine_approximate_ctx, ApproxFd};
pub use check::{fd_error_g3, fd_holds, partition_of, partition_of_ctx};
pub use cover::{closure, minimum_cover};
pub use dbmine_relation::partition::{PartitionScratch, StrippedPartition};
pub use fastfds::mine_fastfds;
pub use fd::Fd;
pub use fdep::mine_fdep_ctx;
pub use mvd::{mine_mvds, mvd_holds, Mvd};
pub use tane::{mine_tane_ctx, TaneOptions};
