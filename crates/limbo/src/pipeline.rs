//! The three-phase LIMBO pipeline.

use crate::sharded::{phase1_sharded, ShardPlan};
use dbmine_ib::{aib_with, assign_all_with, AibResult, Dcf};

/// LIMBO tuning parameters.
#[derive(Clone, Copy, Debug)]
pub struct LimboParams {
    /// Summary accuracy `φ ≥ 0`: the Phase 1 merge threshold is
    /// `φ · I(V;T) / |V|`. `φ = 0` merges only identical objects
    /// (LIMBO ≡ AIB); larger values give coarser, smaller trees.
    pub phi: f64,
    /// DCF-tree branching factor `B`. The paper observed `B` barely
    /// affects quality and uses `B = 4`.
    pub branching: usize,
    /// Worker threads for every parallel stage: the Phase 1 shard
    /// trees and tuple DCFs, the Phase 2 candidate search and the
    /// Phase 3 assignment. `1` = serial, `0` = all cores. Results are
    /// bit-identical for every thread count.
    pub threads: usize,
    /// Ignored. Kept for `bench_e2e`; the benchmark PR deletes it.
    #[doc(hidden)]
    pub shards: Option<usize>,
}

impl Default for LimboParams {
    fn default() -> Self {
        LimboParams {
            phi: 0.0,
            branching: 4,
            threads: 1,
            shards: None,
        }
    }
}

impl LimboParams {
    /// Parameters with the given `φ` and the paper's default `B = 4`.
    pub fn with_phi(phi: f64) -> Self {
        LimboParams {
            phi,
            ..Default::default()
        }
    }

    /// The same parameters with `threads` worker threads.
    pub fn threads(self, threads: usize) -> Self {
        LimboParams { threads, ..self }
    }

    /// The same parameters with the ignored `shards` field set. Kept
    /// for `bench_e2e`; the benchmark PR deletes it.
    #[doc(hidden)]
    pub fn shards(self, shards: Option<usize>) -> Self {
        LimboParams { shards, ..self }
    }
}

/// The Phase 1 output: the summary produced by streaming all objects
/// through the DCF-tree.
#[derive(Clone, Debug)]
pub struct LimboModel {
    /// Leaf-level summary DCFs, left to right.
    pub leaves: Vec<Dcf>,
    /// The merge threshold `τ` that was applied.
    pub threshold: f64,
    /// The mutual information `I(V;T)` of the input (used to set `τ`).
    pub mutual_information: f64,
    /// Number of objects inserted.
    pub n_objects: usize,
}

/// The full LIMBO run: Phase 1 summary, Phase 2 clustering, Phase 3
/// assignments.
#[derive(Clone, Debug)]
pub struct Limbo {
    /// Phase 1 output.
    pub model: LimboModel,
    /// Phase 2 output: AIB over the leaves.
    pub clustering: AibResult,
    /// Phase 3 output: for each original object, the index of its
    /// representative in `clustering.clusters` and the assignment loss.
    pub assignments: Vec<(usize, f64)>,
}

/// Phase 1 over an in-memory object slice: [`phase1_sharded`] with
/// [`ShardPlan::auto`], threshold `φ · mutual_information / n` and
/// `params.threads` shard workers. Up to
/// [`crate::DEFAULT_CHUNK_TUPLES`] objects this is the classic
/// single-pass tree.
///
/// `mutual_information` is `I(V;T)` of the input view — callers obtain it
/// from `AnalysisCtx::tuple_mutual_information` /
/// `AnalysisCtx::value_mutual_information` (it only gates the merge
/// threshold, so any consistent estimate works). Objects are borrowed:
/// an absorbed insert never clones the incoming DCF (see
/// [`DcfTree::insert`](crate::DcfTree::insert)). Tuples stream from a
/// context through [`crate::TupleStream::phase1`] instead.
pub fn phase1(objects: &[Dcf], mutual_information: f64, params: LimboParams) -> LimboModel {
    phase1_sharded(
        objects,
        mutual_information,
        params,
        &ShardPlan::auto(objects.len()),
    )
}

/// Phase 2: AIB over the Phase 1 leaves down to `k` clusters, with
/// `threads` workers (`1` = serial, `0` = all cores). Bit-identical to
/// the serial run for every thread count.
pub fn phase2_with(model: &LimboModel, k: usize, threads: usize) -> AibResult {
    let _span = dbmine_telemetry::span("limbo.phase2");
    aib_with(model.leaves.clone(), k, threads)
}

/// Phase 3: assigns each original object to its closest representative,
/// with `threads` workers (`1` = serial, `0` = all cores). Bit-identical
/// to the serial run for every thread count.
pub fn phase3_with<'a>(
    objects: impl IntoIterator<Item = &'a Dcf>,
    clustering: &AibResult,
    threads: usize,
) -> Vec<(usize, f64)> {
    let _span = dbmine_telemetry::span("limbo.phase3");
    assign_all_with(objects, &clustering.clusters, threads)
}

/// Runs all three phases over an in-memory object list.
///
/// ```
/// use dbmine_context::AnalysisCtx;
/// use dbmine_limbo::{run, value_dcfs_with, LimboParams};
/// let rel = dbmine_relation::paper::figure4();
/// let ctx = AnalysisCtx::of(&rel);
/// let objects = value_dcfs_with(ctx.value_index(), 1);
/// let l = run(&objects, ctx.value_mutual_information(), 2, LimboParams::with_phi(0.0));
/// assert_eq!(l.assignments.len(), 9);   // every distinct value assigned
/// assert_eq!(l.clustering.clusters.len(), 2);
/// ```
pub fn run(objects: &[Dcf], mutual_information: f64, k: usize, params: LimboParams) -> Limbo {
    let _span = dbmine_telemetry::span("limbo.run");
    let model = phase1(objects, mutual_information, params);
    let clustering = phase2_with(&model, k, params.threads);
    let assignments = phase3_with(objects.iter(), &clustering, params.threads);
    Limbo {
        model,
        clustering,
        assignments,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuples::tuple_dcfs_ctx;
    use dbmine_context::AnalysisCtx;
    use dbmine_ib::aib;
    use dbmine_relation::paper::figure4;

    /// Figure 4's tuple DCFs and `I(T;V)`.
    fn figure4_objects() -> (Vec<Dcf>, f64) {
        let ctx = AnalysisCtx::of(&figure4());
        (tuple_dcfs_ctx(&ctx, 1), ctx.tuple_mutual_information())
    }

    /// Object indices per final cluster, read from the assignments.
    fn members(l: &Limbo) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); l.clustering.clusters.len()];
        for (obj, &(c, _)) in l.assignments.iter().enumerate() {
            out[c].push(obj);
        }
        out
    }

    #[test]
    fn phi_zero_equals_aib() {
        // "For instance using φ = 0.0, we only merge identical objects and
        //  LIMBO becomes equivalent to AIB."
        let (objects, mi) = figure4_objects();
        let l = run(&objects, mi, 2, LimboParams::with_phi(0.0));
        let direct = aib(objects.clone(), 2);
        assert_eq!(l.model.leaves.len(), 5);
        // Same final information retained.
        assert!((l.clustering.final_information() - direct.final_information()).abs() < 1e-9);
        // t3,t4,t5 (sharing 2 and x) end up together; t1,t2 together.
        let mut sizes: Vec<usize> = members(&l).iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn larger_phi_smaller_summary() {
        let (objects, mi) = figure4_objects();
        let m0 = phase1(&objects, mi, LimboParams::with_phi(0.0));
        let m5 = phase1(&objects, mi, LimboParams::with_phi(5.0));
        assert!(m5.leaves.len() <= m0.leaves.len());
    }

    #[test]
    fn every_object_assigned() {
        let (objects, mi) = figure4_objects();
        let l = run(&objects, mi, 2, LimboParams::default());
        assert_eq!(l.assignments.len(), 5);
        let total: usize = members(&l).iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        assert!(l.assignments.iter().all(|&(_, loss)| loss >= 0.0));
    }

    #[test]
    fn empty_input() {
        let model = phase1(&[], 0.0, LimboParams::default());
        assert!(model.leaves.is_empty());
        assert_eq!(model.n_objects, 0);
    }

    #[test]
    fn threshold_formula() {
        let (objects, mi) = figure4_objects();
        let m = phase1(&objects, mi, LimboParams::with_phi(0.3));
        assert!((m.threshold - 0.3 * mi / 5.0).abs() < 1e-12);
    }
}
