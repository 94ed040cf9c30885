//! The FDEP entry point, now a shim over TANE. FDEP itself (Savnik &
//! Flach: maximal invalid dependencies from pairwise agree sets, then
//! the minimal valid ones as hitting sets) is the test oracle
//! `dbmine_oracles::mine_fdep`.

use crate::fd::Fd;
use crate::tane::{mine_tane_ctx, TaneOptions};
use dbmine_context::AnalysisCtx;

/// [`mine_tane_ctx`] unbounded at one thread: the same minimal,
/// non-trivial FDs FDEP finds. Kept for `bench_e2e`; the benchmark PR
/// deletes it.
///
/// ```
/// use dbmine_context::AnalysisCtx;
/// use dbmine_fdmine::{mine_fdep_ctx, Fd};
/// use dbmine_relation::AttrSet;
/// let rel = dbmine_relation::paper::figure4();
/// let fds = mine_fdep_ctx(&AnalysisCtx::of(&rel));
/// // C → B holds on the instance (x always pairs with 2).
/// assert!(fds.contains(&Fd::new(AttrSet::single(2), 1)));
/// ```
pub fn mine_fdep_ctx(ctx: &AnalysisCtx) -> Vec<Fd> {
    mine_tane_ctx(ctx, TaneOptions::default())
}
