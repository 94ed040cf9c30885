//! Functional-dependency mining.
//!
//! FD-RANK (Section 7 of the paper) ranks *existing* sets of functional
//! dependencies; this crate supplies the dependency-mining substrate the
//! paper leans on:
//!
//! * [`tane`] — the TANE levelwise miner of Huhtala et al. (the paper's
//!   `[15]`), built on stripped partitions: the exact miner the
//!   structure-mining pipeline runs at every input size. It is the
//!   [`approximate`] walk at ε = 0. The paper's experiments also run
//!   FDEP (Savnik & Flach), and the tests cross-check TANE against it,
//!   FastFDs (Wyss et al., the paper's `[28]`) and a brute-force miner;
//!   those three live in the dev-only `dbmine-oracles` crate.
//! * [`fdep`] — [`mine_fdep_ctx`], a shim that runs TANE, kept for the
//!   benchmark's replay.
//! * [`cover`] — canonical/minimum covers in the style of Maier `[16]`:
//!   attribute-set closures, left-reduction, redundancy elimination.
//! * [`check`] — direct validity and `g3` approximation-error checks for
//!   single dependencies.
//! * [`approximate`] — approximate FDs under TANE's `g3` error (the
//!   Figure-5 situation: one bad value turns `C → B` approximate).
//! * [`lattice`] — the one levelwise lattice walk behind [`tane`],
//!   [`approximate`] and the reliable miner of `dbmine-reliability`: the
//!   prefix-join generation, the minimal-LHS scoring walk, and its rhs⁺
//!   (`C⁺`) and key pruning rules, each taken by the tests it is sound
//!   for.
//! * [`mvd`] — multivalued dependencies (the paper's `[25]` sibling
//!   problem): instance checks, dependency bases, bounded mining.

pub mod approximate;
pub mod check;
pub mod cover;
pub mod fd;
pub mod fdep;
pub mod lattice;
pub mod mvd;
pub mod tane;

pub use approximate::{mine_approximate_ctx, ApproxFd};
pub use check::{fd_error_g3, fd_holds};
pub use cover::{closure, minimum_cover};
pub use dbmine_relation::partition::{PartitionScratch, StrippedPartition};
pub use fd::Fd;
pub use fdep::mine_fdep_ctx;
pub use mvd::{mine_mvds, mvd_holds, Mvd};
pub use tane::{mine_tane_ctx, TaneOptions};

/// The FD oracles of `dbmine-oracles`, for this crate's unit tests. That
/// crate links its own copy of this one, so its `Fd` is a distinct type:
/// each dependency is rebuilt here from its public fields.
#[cfg(test)]
mod oracles {
    use crate::Fd;
    use dbmine_context::AnalysisCtx;
    use dbmine_relation::Relation;

    pub fn mine_brute(rel: &Relation) -> Vec<Fd> {
        let fds = dbmine_oracles::mine_brute(rel);
        fds.into_iter().map(|f| Fd::new(f.lhs, f.rhs)).collect()
    }

    pub fn mine_fdep(ctx: &AnalysisCtx) -> Vec<Fd> {
        let fds = dbmine_oracles::mine_fdep(ctx);
        fds.into_iter().map(|f| Fd::new(f.lhs, f.rhs)).collect()
    }
}
