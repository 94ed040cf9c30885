//! Tuple LIMBO streamed from the context's chunk pass (Section 6.1).
//!
//! Objects are tuples over values: `p(t) = 1/n`, `p(V|t)` a row of
//! matrix `M` ([`dbmine_relation::qualified_row`]). As in the paper's
//! LIMBO (§5.2), only summaries stay in memory: Phase 1 and Phase 3 are
//! each one pass over [`AnalysisCtx::chunks`] that builds the singleton
//! DCFs of one [`ShardPlan`] window at a time, uses them and drops them.
//! The windows are the plan's, not the physical chunks' (a resident
//! relation is one chunk, cut at plan boundaries; a store chunk that
//! straddles one is split), and a tuple's DCF depends only on its row
//! and the whole relation's stride, cell mass and prior — so both phases
//! give the same bits from memory, from a store of any chunk size and at
//! every thread count.

use crate::pipeline::{LimboModel, LimboParams};
use crate::sharded::{ShardPlan, ShardedPhase1};
use dbmine_context::AnalysisCtx;
use dbmine_ib::{assign_all_with, Dcf};
use dbmine_relation::{qualified_row, qualified_stride, RelationChunk};
use std::ops::Range;

/// The tuples of one context, cut into plan windows for the LIMBO
/// passes.
///
/// ```
/// use dbmine_context::AnalysisCtx;
/// use dbmine_limbo::{LimboParams, TupleStream};
/// let ctx = AnalysisCtx::of(&dbmine_relation::paper::figure4());
/// let tuples = TupleStream::new(&ctx);
/// let model = tuples.phase1(LimboParams::with_phi(0.0));
/// assert_eq!(model.leaves.len(), 5); // five distinct tuples
/// let mut assigned = Vec::new();
/// tuples.phase3(&model.leaves, 1, |t, _, (leaf, _)| assigned.push((t, leaf)));
/// assert_eq!(assigned.len(), 5);
/// ```
#[derive(Debug)]
pub struct TupleStream<'a> {
    ctx: &'a AnalysisCtx,
    plan: ShardPlan,
}

impl<'a> TupleStream<'a> {
    /// The tuples of `ctx`, cut by [`ShardPlan::auto`].
    pub fn new(ctx: &'a AnalysisCtx) -> Self {
        Self::with_plan(ctx, ShardPlan::auto(ctx.n_tuples()))
    }

    /// The tuples of `ctx`, cut by an explicit `plan`: the seam that lets
    /// tests run multi-window plans at small `n`.
    ///
    /// # Panics
    ///
    /// If `plan` does not cover exactly the context's tuples.
    pub fn with_plan(ctx: &'a AnalysisCtx, plan: ShardPlan) -> Self {
        assert_eq!(
            plan.n_objects(),
            ctx.n_tuples(),
            "plan does not cover the relation"
        );
        TupleStream { ctx, plan }
    }

    /// Phase 1 at accuracy `params.phi` over the context's memoized
    /// `I(T;V)`: one chunk pass feeds the windows to [`ShardedPhase1`] in
    /// batches of `params.threads` (`0` = all cores), which build their
    /// shard trees in parallel. Memory holds one batch of window DCFs
    /// plus the shard leaves.
    pub fn phase1(&self, params: LimboParams) -> LimboModel {
        let mutual_information = self.ctx.tuple_mutual_information();
        let _span = dbmine_telemetry::span("limbo.phase1");
        let batch_size = dbmine_parallel::effective_threads(params.threads);
        let mut driver = ShardedPhase1::new(mutual_information, self.ctx.n_tuples(), params);
        let mut batch: Vec<Vec<Dcf>> = Vec::with_capacity(batch_size);
        self.for_each_window(params.threads, |_, dcfs| {
            batch.push(dcfs);
            if batch.len() == batch_size {
                driver.ingest_chunks(&batch);
                batch.clear();
            }
        });
        driver.ingest_chunks(&batch);
        driver.finish()
    }

    /// Phase 3: a second chunk pass rebuilds each window's tuple DCFs,
    /// assigns them to their nearest of `reps` with `threads` workers
    /// (see [`assign_all_with`]) and hands `f` each tuple in order as
    /// `(tuple index, its DCF, (representative index, loss))`.
    ///
    /// # Panics
    ///
    /// If `reps` is empty while there are tuples to assign.
    pub fn phase3(
        &self,
        reps: &[Dcf],
        threads: usize,
        mut f: impl FnMut(usize, Dcf, (usize, f64)),
    ) {
        let _span = dbmine_telemetry::span("limbo.phase3");
        self.for_each_window(threads, |start, dcfs| {
            let assigned = assign_all_with(&dcfs, reps, threads);
            for (i, (dcf, a)) in dcfs.into_iter().zip(assigned).enumerate() {
                f(start + i, dcf, a);
            }
        });
    }

    /// One chunk pass: calls `f` with each plan window's first tuple
    /// index and singleton tuple DCFs, in order. A chunk piece builds
    /// its DCFs with `threads` workers. A window that ends with its
    /// chunk is handed on after the chunk is dropped, so a decoded store
    /// chunk never outlives the DCFs built from it.
    fn for_each_window(&self, threads: usize, mut f: impl FnMut(usize, Vec<Dcf>)) {
        let mut windows = self.plan.ranges();
        let mut window = windows.next();
        let mut dcfs: Vec<Dcf> = Vec::new();
        for chunk in self.ctx.chunks() {
            let end = chunk.start + chunk.n_rows();
            let mut at = chunk.start;
            let mut last = None;
            while at < end {
                let w = window.clone().expect("the plan covers every tuple");
                let upto = w.end.min(end);
                let rows = at - chunk.start..upto - chunk.start;
                let piece = tuple_dcfs(self.ctx, &chunk, rows, threads);
                if dcfs.is_empty() {
                    dcfs = piece;
                } else {
                    dcfs.extend(piece);
                }
                at = upto;
                if upto == w.end {
                    let full = std::mem::take(&mut dcfs);
                    window = windows.next();
                    if upto == end {
                        last = Some((w.start, full));
                    } else {
                        f(w.start, full);
                    }
                }
            }
            drop(chunk);
            if let Some((start, full)) = last {
                f(start, full);
            }
        }
    }
}

/// Singleton tuple DCFs for the local `rows` of one chunk of `ctx`'s
/// pass, with `threads` workers. The stride, the cell mass `1/m` and the
/// prior `p(t) = 1/n` are the whole relation's, so a row's DCF is the
/// same bits whichever chunk or window it is built in.
pub fn tuple_dcfs(
    ctx: &AnalysisCtx,
    chunk: &RelationChunk,
    rows: Range<usize>,
    threads: usize,
) -> Vec<Dcf> {
    let _span = dbmine_telemetry::span("limbo.tuple_dcfs");
    let m = ctx.n_attrs();
    let stride = qualified_stride(ctx.dict().len(), m);
    let (mass, prior) = (1.0 / m as f64, 1.0 / ctx.n_tuples() as f64);
    dbmine_parallel::par_map_range(threads, rows.len(), |i| {
        Dcf::singleton(
            prior,
            qualified_row(stride, mass, chunk.row_values(rows.start + i)),
        )
    })
}

/// Every tuple's singleton DCF, in tuple order, built by the windows of
/// one [`TupleStream`] pass: the in-memory object list that the slice
/// oracles of the tests and benches run on. Kept for `bench_e2e`; the
/// benchmark PR deletes it.
#[doc(hidden)]
pub fn tuple_dcfs_ctx(ctx: &AnalysisCtx, threads: usize) -> Vec<Dcf> {
    let mut out = Vec::with_capacity(ctx.n_tuples());
    TupleStream::new(ctx).for_each_window(threads, |_, dcfs| out.extend(dcfs));
    out
}
