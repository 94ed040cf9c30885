//! The FD-RANK algorithm (Figure 11 of the paper).

use dbmine_fdmine::Fd;
use dbmine_relation::AttrSet;
use dbmine_summaries::AttributeGrouping;

/// A ranked dependency. Dependencies with the same antecedent and rank
/// are collapsed (Step 2), so the right-hand side is a set.
#[derive(Clone, Debug, PartialEq)]
pub struct RankedFd {
    /// The antecedent `X`.
    pub lhs: AttrSet,
    /// The (possibly collapsed) consequent attributes.
    pub rhs: AttrSet,
    /// The rank: the information loss of the merge uniting the
    /// dependency's attributes, or `max(Q)` if no sufficiently cheap
    /// merge unites them. **Lower is more interesting.**
    pub rank: f64,
    /// True if Step 1.c fired: a merge uniting the dependency's
    /// attributes exists with loss ≤ ψ·max(Q). Used to refine ties —
    /// without it, a degenerate grouping (max(Q) ≈ 0) would let
    /// never-merged dependencies tie with genuinely promoted ones.
    pub promoted: bool,
}

impl RankedFd {
    /// All attributes mentioned, `X ∪ Y`.
    pub fn attrs(&self) -> AttrSet {
        self.lhs.union(self.rhs)
    }

    /// Renders as `[X1,X2]→[Y1,Y2]` with attribute names.
    pub fn display(&self, names: &[String]) -> String {
        format!("{}→{}", self.lhs.display(names), self.rhs.display(names))
    }
}

/// Ranks `fds` against the attribute-grouping merge sequence `Q`
/// (Figure 11), with threshold `0 ≤ ψ ≤ 1`.
///
/// * Step 1 — each `X → A` starts at `rank = max(Q)`; if the merge `G`
///   uniting `S = X ∪ {A}` has `IL(G) ≤ ψ · max(Q)`, its loss becomes the
///   rank.
/// * Step 2 — dependencies with equal antecedent *and* equal rank are
///   collapsed into one dependency with a combined consequent.
/// * Step 3 — sort ascending by rank; ties break toward the dependency
///   with **more** participating attributes (paper: *"we rank the ones
///   with more attributes higher"*), then lexicographically for
///   determinism.
pub fn rank_fds(fds: &[Fd], grouping: &AttributeGrouping, psi: f64) -> Vec<RankedFd> {
    let _span = dbmine_telemetry::span("fdrank.rank");
    assert!((0.0..=1.0).contains(&psi), "ψ must be in [0,1]");
    let max_rank = grouping.max_loss();
    let cutoff = psi * max_rank;

    // Step 1: individual ranks.
    let mut ranked: Vec<(AttrSet, usize, f64, bool)> = fds
        .iter()
        .filter(|f| !f.is_trivial())
        .map(|f| {
            let (rank, promoted) = match grouping.common_merge_loss(f.attrs()) {
                Some(loss) if loss <= cutoff => (loss, true),
                _ => (max_rank, false),
            };
            (f.lhs, f.rhs, rank, promoted)
        })
        .collect();
    // `total_cmp`, not `partial_cmp().expect(…)`: score selection feeds
    // externally-computed f64s through these sorts, and a comparator
    // that panics on NaN turns one bad value into a lost report.
    ranked.sort_by(|a, b| {
        a.0.cmp(&b.0)
            .then(a.2.total_cmp(&b.2))
            .then(a.3.cmp(&b.3))
            .then(a.1.cmp(&b.1))
    });

    // Step 2: collapse same-antecedent, same-rank dependencies.
    let mut collapsed: Vec<RankedFd> = Vec::with_capacity(ranked.len());
    for (lhs, rhs, rank, promoted) in ranked {
        match collapsed.last_mut() {
            Some(last)
                if last.lhs == lhs
                    && last.promoted == promoted
                    && (last.rank - rank).abs() < 1e-12 =>
            {
                last.rhs = last.rhs.with(rhs);
            }
            _ => collapsed.push(RankedFd {
                lhs,
                rhs: AttrSet::single(rhs),
                rank,
                promoted,
            }),
        }
    }

    // Step 3: ascending rank; promoted dependencies before baseline ones
    // at equal rank; then more attributes first.
    collapsed.sort_by(|a, b| {
        a.rank
            .total_cmp(&b.rank)
            .then(b.promoted.cmp(&a.promoted))
            .then(b.attrs().len().cmp(&a.attrs().len()))
            .then(a.lhs.cmp(&b.lhs))
            .then(a.rhs.cmp(&b.rhs))
    });
    collapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_context::AnalysisCtx;
    use dbmine_limbo::LimboParams;
    use dbmine_relation::paper::figure4;
    use dbmine_summaries::{cluster_values_ctx, group_attributes};

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    fn figure10_grouping() -> AttributeGrouping {
        let rel = figure4();
        let values = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0), None);
        group_attributes(&values, rel.n_attrs())
    }

    #[test]
    fn paper_example_ranks_c_to_b_first() {
        // "With a ψ = 0.5 we only update the rank of functional dependency
        //  C → B ... At this point, C → B is the highest ranked functional
        //  dependency."
        let g = figure10_grouping();
        let fds = vec![Fd::new(set(&[0]), 1), Fd::new(set(&[2]), 1)];
        let ranked = rank_fds(&fds, &g, 0.5);
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].lhs, set(&[2])); // C → B first
        assert!((ranked[0].rank - 0.1577).abs() < 1e-3);
        assert_eq!(ranked[1].lhs, set(&[0])); // A → B keeps max(Q)
        assert!((ranked[1].rank - g.max_loss()).abs() < 1e-12);
    }

    #[test]
    fn psi_zero_gives_everything_max_rank() {
        let g = figure10_grouping();
        let fds = vec![Fd::new(set(&[0]), 1), Fd::new(set(&[2]), 1)];
        let ranked = rank_fds(&fds, &g, 0.0);
        assert!(ranked.iter().all(|r| (r.rank - g.max_loss()).abs() < 1e-12));
    }

    #[test]
    fn psi_one_admits_all_merges() {
        let g = figure10_grouping();
        let fds = vec![Fd::new(set(&[0]), 1)];
        let ranked = rank_fds(&fds, &g, 1.0);
        // {A,B} unite at the final merge = max(Q); ψ=1 admits it.
        assert!((ranked[0].rank - g.max_loss()).abs() < 1e-12);
    }

    #[test]
    fn same_antecedent_same_rank_collapse() {
        // Two dependencies DeptNo→DeptName, DeptNo→MgrNo with equal ranks
        // collapse into DeptNo→{DeptName,MgrNo} (the paper's list item 1).
        let g = figure10_grouping();
        let fds = vec![Fd::new(set(&[2]), 0), Fd::new(set(&[2]), 1)];
        // {C,A} unite at max loss; {C,B} at the cheap merge — different
        // ranks → no collapse.
        let ranked = rank_fds(&fds, &g, 1.0);
        assert_eq!(ranked.len(), 2);

        // Same rank case: both to max rank under ψ=0 → collapse.
        let ranked0 = rank_fds(&fds, &g, 0.0);
        assert_eq!(ranked0.len(), 1);
        assert_eq!(ranked0[0].lhs, set(&[2]));
        assert_eq!(ranked0[0].rhs, set(&[0, 1]));
    }

    #[test]
    fn tie_break_prefers_more_attributes() {
        // Two FDs with identical (max) rank: the wider one first —
        // Table 6's ordering rule.
        let g = figure10_grouping();
        let fds = vec![Fd::new(set(&[0]), 1), Fd::new(set(&[0, 2]), 1)];
        let ranked = rank_fds(&fds, &g, 0.0);
        assert_eq!(ranked[0].lhs, set(&[0, 2]));
        assert_eq!(ranked[1].lhs, set(&[0]));
    }

    #[test]
    fn attributes_outside_grouping_keep_max_rank() {
        let g = figure10_grouping();
        // Attribute 5 does not exist in A_D.
        let fds = vec![Fd::new(set(&[5]), 1)];
        let ranked = rank_fds(&fds, &g, 1.0);
        assert!((ranked[0].rank - g.max_loss()).abs() < 1e-12);
    }

    #[test]
    fn trivial_fds_filtered() {
        let g = figure10_grouping();
        let fds = vec![Fd::new(set(&[1, 2]), 1)];
        assert!(rank_fds(&fds, &g, 0.5).is_empty());
    }

    #[test]
    #[should_panic(expected = "ψ")]
    fn psi_out_of_range_panics() {
        let g = figure10_grouping();
        rank_fds(&[], &g, 1.5);
    }

    #[test]
    fn display_uses_names() {
        let r = RankedFd {
            lhs: set(&[0]),
            rhs: set(&[1, 2]),
            rank: 0.1,
            promoted: true,
        };
        let names = vec!["A".to_string(), "B".to_string(), "C".to_string()];
        assert_eq!(r.display(&names), "[A]→[B,C]");
    }
}
