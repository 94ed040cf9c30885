//! The three-phase LIMBO pipeline.

use crate::tree::DcfTree;
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
    /// Worker threads for the parallelizable stages (Phase 2 candidate
    /// search and Phase 3 assignment). `1` = serial, `0` = all cores.
    /// Results are bit-identical for every thread count.
    pub threads: usize,
    /// Sharded Phase 1 knob (`--shards`): `None` = the classic
    /// single-pass tree (default everywhere; zero behavior change);
    /// `Some(w)` = chunked build over [`crate::ShardPlan::auto`] with
    /// `w` shard workers (`0` = all cores). The output depends only on
    /// the auto plan — never on `w` — so every worker count produces
    /// byte-identical results.
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

    /// The same parameters with the sharded Phase 1 knob set.
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

impl LimboModel {
    /// The compression achieved by Phase 1: leaves per object.
    pub fn summary_ratio(&self) -> f64 {
        if self.n_objects == 0 {
            1.0
        } else {
            self.leaves.len() as f64 / self.n_objects as f64
        }
    }
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

impl Limbo {
    /// Member object indices per final cluster.
    pub fn cluster_members(&self) -> Vec<Vec<usize>> {
        let mut out = vec![Vec::new(); self.clustering.clusters.len()];
        for (obj, &(c, _)) in self.assignments.iter().enumerate() {
            out[c].push(obj);
        }
        out
    }

    /// The information lost by the Phase 3 assignment, relative to the
    /// input information (the paper reports e.g. *"the loss of initial
    /// information after Phase 3 was 9.45%"*).
    pub fn assignment_relative_loss(&self) -> f64 {
        let total: f64 = self.assignments.iter().map(|&(_, l)| l).sum();
        if self.model.mutual_information <= 0.0 {
            0.0
        } else {
            total / self.model.mutual_information
        }
    }
}

/// Phase 1: streams `objects` into a DCF-tree with threshold
/// `φ · mutual_information / n_objects` and returns the leaf summary.
///
/// `mutual_information` is `I(V;T)` of the input view — callers obtain it
/// from `TupleRows::mutual_information` / `ValueIndex::mutual_information`
/// (it only gates the merge threshold, so any consistent estimate works).
pub fn phase1(
    objects: impl IntoIterator<Item = Dcf>,
    mutual_information: f64,
    n_objects: usize,
    params: LimboParams,
) -> LimboModel {
    let threshold = if n_objects == 0 {
        0.0
    } else {
        params.phi * mutual_information / n_objects as f64
    };
    let _span = dbmine_telemetry::span("limbo.phase1");
    let mut tree = DcfTree::new(params.branching, threshold);
    let mut inserted = 0usize;
    for dcf in objects {
        tree.insert(dcf);
        inserted += 1;
    }
    debug_assert_eq!(
        inserted, n_objects,
        "n_objects must match the stream length"
    );
    LimboModel {
        leaves: tree.into_leaves(),
        threshold,
        mutual_information,
        n_objects: inserted,
    }
}

/// [`phase1`] over borrowed objects: absorbed inserts never clone the
/// incoming DCF (see [`DcfTree::insert_ref`]), so in the summary regime
/// this path performs no per-object allocation. Bit-identical to
/// [`phase1`] over the same stream.
pub fn phase1_ref<'a>(
    objects: impl IntoIterator<Item = &'a Dcf>,
    mutual_information: f64,
    n_objects: usize,
    params: LimboParams,
) -> LimboModel {
    let threshold = if n_objects == 0 {
        0.0
    } else {
        params.phi * mutual_information / n_objects as f64
    };
    let _span = dbmine_telemetry::span("limbo.phase1");
    let mut tree = DcfTree::new(params.branching, threshold);
    let mut inserted = 0usize;
    for dcf in objects {
        tree.insert_ref(dcf);
        inserted += 1;
    }
    debug_assert_eq!(
        inserted, n_objects,
        "n_objects must match the stream length"
    );
    LimboModel {
        leaves: tree.into_leaves(),
        threshold,
        mutual_information,
        n_objects: inserted,
    }
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
/// use dbmine_limbo::{run, tuple_dcfs_ctx, LimboParams};
/// let rel = dbmine_relation::paper::figure4();
/// let ctx = AnalysisCtx::of(&rel);
/// let objects = tuple_dcfs_ctx(&ctx, 1);
/// let l = run(&objects, ctx.tuple_mutual_information(), 2, LimboParams::with_phi(0.0));
/// assert_eq!(l.assignments.len(), 5);   // every tuple assigned
/// assert_eq!(l.clustering.clusters.len(), 2);
/// ```
pub fn run(objects: &[Dcf], mutual_information: f64, k: usize, params: LimboParams) -> Limbo {
    let _span = dbmine_telemetry::span("limbo.run");
    let model = phase1_ref(objects.iter(), mutual_information, objects.len(), params);
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
    use crate::input::tuple_dcfs_from;
    use dbmine_ib::aib;
    use dbmine_relation::paper::figure4;
    use dbmine_relation::TupleRows;

    #[test]
    fn phi_zero_equals_aib() {
        // "For instance using φ = 0.0, we only merge identical objects and
        //  LIMBO becomes equivalent to AIB."
        let rel = figure4();
        let rows = TupleRows::build(&rel);
        let objects = tuple_dcfs_from(&rows, 1);
        let mi = rows.mutual_information();
        let l = run(&objects, mi, 2, LimboParams::with_phi(0.0));
        let direct = aib(objects.clone(), 2);
        assert_eq!(l.model.leaves.len(), 5);
        // Same final information retained.
        assert!((l.clustering.final_information() - direct.final_information()).abs() < 1e-9);
        // t3,t4,t5 (sharing 2 and x) end up together; t1,t2 together.
        let members = l.cluster_members();
        let mut sizes: Vec<usize> = members.iter().map(Vec::len).collect();
        sizes.sort_unstable();
        assert_eq!(sizes, vec![2, 3]);
    }

    #[test]
    fn larger_phi_smaller_summary() {
        let rel = figure4();
        let rows = TupleRows::build(&rel);
        let objects = tuple_dcfs_from(&rows, 1);
        let mi = rows.mutual_information();
        let m0 = phase1(
            objects.iter().cloned(),
            mi,
            objects.len(),
            LimboParams::with_phi(0.0),
        );
        let m5 = phase1(
            objects.iter().cloned(),
            mi,
            objects.len(),
            LimboParams::with_phi(5.0),
        );
        assert!(m5.leaves.len() <= m0.leaves.len());
        assert!(m5.summary_ratio() <= m0.summary_ratio());
    }

    #[test]
    fn every_object_assigned() {
        let rel = figure4();
        let rows = TupleRows::build(&rel);
        let objects = tuple_dcfs_from(&rows, 1);
        let mi = rows.mutual_information();
        let l = run(&objects, mi, 2, LimboParams::default());
        assert_eq!(l.assignments.len(), 5);
        let members = l.cluster_members();
        let total: usize = members.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        assert!(l.assignment_relative_loss() >= 0.0);
    }

    #[test]
    fn phase1_ref_is_bit_identical_to_phase1() {
        let rel = figure4();
        let rows = TupleRows::build(&rel);
        let objects = tuple_dcfs_from(&rows, 1);
        let mi = rows.mutual_information();
        for phi in [0.0, 0.3, 1.0, 5.0] {
            let params = LimboParams::with_phi(phi);
            let owned = phase1(objects.iter().cloned(), mi, objects.len(), params);
            let borrowed = phase1_ref(objects.iter(), mi, objects.len(), params);
            assert_eq!(owned.leaves.len(), borrowed.leaves.len());
            for (x, y) in owned.leaves.iter().zip(&borrowed.leaves) {
                assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                assert_eq!(x.count, y.count);
                assert_eq!(x.cond.entries(), y.cond.entries());
            }
        }
    }

    #[test]
    fn empty_input() {
        let model = phase1(std::iter::empty(), 0.0, 0, LimboParams::default());
        assert!(model.leaves.is_empty());
        assert_eq!(model.summary_ratio(), 1.0);
    }

    #[test]
    fn threshold_formula() {
        let rel = figure4();
        let rows = TupleRows::build(&rel);
        let objects = tuple_dcfs_from(&rows, 1);
        let mi = rows.mutual_information();
        let m = phase1(objects.iter().cloned(), mi, 5, LimboParams::with_phi(0.3));
        assert!((m.threshold - 0.3 * mi / 5.0).abs() < 1e-12);
    }
}
