//! Duplicate-tuple discovery (Section 6.1.1).
//!
//! Procedure, exactly as the paper prescribes:
//!
//! 1. choose an accuracy `φ_T`;
//! 2. run LIMBO Phase 1 to summarize the tuples;
//! 3. keep the leaf DCFs with `p(c*) > 1/n` (summaries covering more
//!    than one tuple) and run Phase 3 to associate every tuple with its
//!    closest such summary.
//!
//! The tuples associated with the same summary are candidate (almost)
//! duplicates, presented to the analyst with their association losses.

use dbmine_context::AnalysisCtx;
use dbmine_ib::Dcf;
use dbmine_limbo::{LimboParams, TupleStream};

/// A candidate duplicate group: the tuples Phase 3 associated with one
/// multi-tuple summary.
#[derive(Clone, Debug)]
pub struct TupleGroup {
    /// Tuple indices, ascending.
    pub tuples: Vec<usize>,
    /// Association loss `δI(tuple, summary)` per tuple (same order).
    pub losses: Vec<f64>,
    /// How many tuples Phase 1 merged into the summary itself.
    pub summary_count: usize,
}

impl TupleGroup {
    /// The members whose association loss is at most `tau` — the tight
    /// core of the group.
    pub fn tight_members(&self, tau: f64) -> Vec<usize> {
        self.tuples
            .iter()
            .zip(&self.losses)
            .filter(|&(_, &l)| l <= tau)
            .map(|(&t, _)| t)
            .collect()
    }
}

/// The outcome of duplicate-tuple discovery.
#[derive(Clone, Debug)]
pub struct DuplicateReport {
    /// Candidate groups (only summaries covering ≥ 2 tuples).
    pub groups: Vec<TupleGroup>,
    /// The Phase 1 merge threshold `τ` that was used.
    pub threshold: f64,
    /// Total number of leaf summaries Phase 1 produced.
    pub n_summaries: usize,
}

impl DuplicateReport {
    /// True if two tuples were associated with the same summary.
    pub fn same_group(&self, a: usize, b: usize) -> bool {
        self.groups
            .iter()
            .any(|g| g.tuples.contains(&a) && g.tuples.contains(&b))
    }

    /// True if two tuples share a group and both sit within `tau` of the
    /// summary — the criterion used for "found" in the Table 1
    /// experiments.
    pub fn same_tight_group(&self, a: usize, b: usize, tau: f64) -> bool {
        self.groups.iter().any(|g| {
            let t = g.tight_members(tau);
            t.contains(&a) && t.contains(&b)
        })
    }
}

/// Runs the three-step duplicate-tuple procedure with accuracy
/// `params.phi` (`φ_T`): Phase 1 and Phase 3 each stream the tuple DCFs
/// from the context's chunk pass ([`TupleStream`]), and `I(T;V)` is the
/// context's memoized fold (built at most once per context).
///
/// ```
/// use dbmine_context::AnalysisCtx;
/// use dbmine_limbo::LimboParams;
/// use dbmine_relation::RelationBuilder;
/// let mut b = RelationBuilder::new("t", &["A", "B"]);
/// b.push_row_strs(&["x", "y"]);
/// b.push_row_strs(&["x", "y"]); // exact duplicate
/// b.push_row_strs(&["p", "q"]);
/// let ctx = AnalysisCtx::of(&b.build());
/// let report = dbmine_summaries::find_duplicate_tuples_ctx(&ctx, LimboParams::with_phi(0.0));
/// // The exact pair shares a summary at zero loss; the unrelated tuple
/// // is only force-associated (Phase 3 assigns everything) at high loss.
/// assert!(report.same_tight_group(0, 1, 1e-12));
/// assert!(!report.same_tight_group(0, 2, 1e-12));
/// ```
pub fn find_duplicate_tuples_ctx(ctx: &AnalysisCtx, params: LimboParams) -> DuplicateReport {
    let _span = dbmine_telemetry::span("summaries.duplicate_tuples");
    let tuples = TupleStream::new(ctx);
    let model = tuples.phase1(params);

    // Step 3: summaries with p(c*) > 1/n, i.e. more than one tuple merged.
    let multi: Vec<Dcf> = model
        .leaves
        .iter()
        .filter(|d| d.count > 1)
        .cloned()
        .collect();

    let mut groups: Vec<TupleGroup> = multi
        .iter()
        .map(|d| TupleGroup {
            tuples: Vec::new(),
            losses: Vec::new(),
            summary_count: d.count,
        })
        .collect();

    if !multi.is_empty() {
        tuples.phase3(&multi, params.threads, |t, _, (idx, loss)| {
            groups[idx].tuples.push(t);
            groups[idx].losses.push(loss);
        });
    }
    groups.retain(|g| g.tuples.len() >= 2);

    DuplicateReport {
        groups,
        threshold: model.threshold,
        n_summaries: model.leaves.len(),
    }
}

/// Summarizes the tuples with Phase 1 at accuracy `params.phi` (`φ_T`)
/// and assigns every tuple to its closest leaf summary — the
/// tuple-cluster ids Double Clustering (Section 6.2) re-expresses values
/// over. Returns the assignment (one cluster id per tuple) and the number
/// of summaries. `params.threads` sets the parallel stages; the result is
/// bit-identical to the serial run for every thread count.
pub fn tuple_summary_assignment_ctx(ctx: &AnalysisCtx, params: LimboParams) -> (Vec<usize>, usize) {
    let tuples = TupleStream::new(ctx);
    let model = tuples.phase1(params);
    let mut assignment = Vec::with_capacity(ctx.n_tuples());
    tuples.phase3(&model.leaves, params.threads, |_, _, (c, _)| {
        assignment.push(c)
    });
    (assignment, model.leaves.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::figure4;
    use dbmine_relation::{Relation, RelationBuilder};

    fn duplicates(rel: &Relation, phi_t: f64) -> DuplicateReport {
        find_duplicate_tuples_ctx(&AnalysisCtx::of(rel), LimboParams::with_phi(phi_t))
    }

    #[test]
    fn summary_assignment_covers_all_tuples() {
        let ctx = AnalysisCtx::of(&figure4());
        let (assign, n_leaves) = tuple_summary_assignment_ctx(&ctx, LimboParams::with_phi(0.0));
        assert_eq!(assign.len(), 5);
        assert_eq!(n_leaves, 5); // all tuples distinct at φ = 0
        assert!(assign.iter().all(|&c| c < n_leaves));
        // With a huge φ everything lands in one summary.
        let (assign1, n1) = tuple_summary_assignment_ctx(&ctx, LimboParams::with_phi(100.0));
        assert_eq!(n1, 1);
        assert!(assign1.iter().all(|&c| c == 0));
    }

    fn with_exact_duplicate() -> Relation {
        let mut b = RelationBuilder::new("dup", &["A", "B", "C"]);
        b.push_row_strs(&["a", "1", "p"]);
        b.push_row_strs(&["w", "2", "x"]);
        b.push_row_strs(&["a", "1", "p"]); // exact duplicate of t0
        b.push_row_strs(&["y", "3", "q"]);
        b.build()
    }

    #[test]
    fn exact_duplicates_found_at_phi_zero() {
        // "Our method can identify exact duplicates introduced in the data
        //  set in any order. These duplicates are found when φT = 0.0."
        let rel = with_exact_duplicate();
        let rep = duplicates(&rel, 0.0);
        assert_eq!(rep.groups.len(), 1);
        assert!(rep.same_group(0, 2));
        assert!(rep.same_tight_group(0, 2, 1e-12));
        // The exact pair has zero association loss.
        let g = &rep.groups[0];
        assert_eq!(g.summary_count, 2);
        for (&t, &l) in g.tuples.iter().zip(&g.losses) {
            if t == 0 || t == 2 {
                assert!(l.abs() < 1e-12);
            }
        }
    }

    #[test]
    fn no_duplicates_no_groups_at_phi_zero() {
        let rel = figure4(); // all five tuples distinct
        let rep = duplicates(&rel, 0.0);
        assert!(rep.groups.is_empty());
        assert_eq!(rep.n_summaries, 5);
    }

    #[test]
    fn near_duplicates_found_with_positive_phi() {
        // Two tuples differing in a single attribute merge once φT admits
        // a small loss.
        let mut b = RelationBuilder::new("near", &["A", "B", "C", "D"]);
        b.push_row_strs(&["k1", "v", "w", "z"]);
        b.push_row_strs(&["k2", "v", "w", "z"]); // near-duplicate of t0
        b.push_row_strs(&["q1", "q2", "q3", "q4"]);
        b.push_row_strs(&["r1", "r2", "r3", "r4"]);
        let rel = b.build();
        let rep = duplicates(&rel, 2.0);
        assert!(
            rep.groups.iter().any(|g| {
                g.tuples.contains(&0) && g.tuples.contains(&1) && g.summary_count >= 2
            }),
            "near-duplicates not grouped: {:?}",
            rep.groups
        );
    }

    #[test]
    fn tight_members_filters_by_loss() {
        let g = TupleGroup {
            tuples: vec![0, 1, 2],
            losses: vec![0.0, 0.001, 0.5],
            summary_count: 2,
        };
        assert_eq!(g.tight_members(0.01), vec![0, 1]);
        assert_eq!(g.tight_members(1.0), vec![0, 1, 2]);
    }

    #[test]
    fn empty_relation() {
        let rel = RelationBuilder::new("e", &["A"]).build();
        let rep = duplicates(&rel, 0.1);
        assert!(rep.groups.is_empty());
    }
}
