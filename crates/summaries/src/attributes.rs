//! Attribute grouping over duplicate value groups (Section 6.3).
//!
//! The attributes that contain duplicate value groups (`A_D`) are
//! expressed over `C_VD` through matrix `F` (the relevant `O` rows) and
//! clustered with a **full** agglomerative run (`φ_A = 0`, all merges to
//! `k = 1`). By Proposition 1 of the paper, pairs that merge early share
//! more duplication, so the merge sequence `Q` — attributes plus the
//! information loss of each merge — is exactly what FD-RANK consumes.

use crate::values::ValueClustering;
use dbmine_ib::{aib, Dendrogram};
use dbmine_limbo::attribute_dcfs;
use dbmine_relation::{AttrId, AttrSet};

/// The result of attribute grouping: a dendrogram over the participating
/// attributes `A_D`.
#[derive(Clone, Debug)]
pub struct AttributeGrouping {
    /// `attrs[leaf]` = the attribute id of dendrogram leaf `leaf`.
    pub attrs: Vec<AttrId>,
    /// The merge tree; leaf ids index into `attrs`.
    pub dendrogram: Dendrogram,
}

impl AttributeGrouping {
    /// The attributes participating in the grouping (the paper's `A_D`).
    pub fn participating(&self) -> AttrSet {
        self.attrs.iter().copied().collect()
    }

    /// Maximum merge loss, `max(Q)` — FD-RANK's initial rank.
    pub fn max_loss(&self) -> f64 {
        self.dendrogram.max_loss()
    }

    /// The loss of the first merge at which **all** of `set` participate
    /// in one cluster, or `None` if some attribute never joins the others
    /// (e.g. it is outside `A_D`).
    pub fn common_merge_loss(&self, set: AttrSet) -> Option<f64> {
        let mut leaves = Vec::with_capacity(set.len());
        for a in set.iter() {
            match self.attrs.iter().position(|&x| x == a) {
                Some(leaf) => leaves.push(leaf),
                None => return None,
            }
        }
        self.dendrogram.common_merge(&leaves).map(|m| m.loss)
    }

    /// The merge sequence as `(attribute set united, loss)` pairs, in
    /// chronological order — the sequence `Q` of the FD-RANK algorithm.
    pub fn merge_sequence(&self) -> Vec<(AttrSet, f64)> {
        self.dendrogram
            .merges()
            .iter()
            .map(|m| {
                let set: AttrSet = self
                    .dendrogram
                    .leaves_under(m.node)
                    .into_iter()
                    .map(|l| self.attrs[l])
                    .collect();
                (set, m.loss)
            })
            .collect()
    }

    /// The attribute clusters at a chosen `k` (attribute ids).
    pub fn clusters_at(&self, k: usize) -> Vec<Vec<AttrId>> {
        self.dendrogram
            .clusters_at(k)
            .into_iter()
            .map(|c| c.into_iter().map(|l| self.attrs[l]).collect())
            .collect()
    }
}

/// Groups the attributes of a relation over the duplicate value groups of
/// `values` (which must come from the same relation, whose attribute
/// count is `n_attrs`).
///
/// Since `|A_D| = m` is small, this runs plain AIB with `φ_A = 0` to a
/// full dendrogram, per the paper.
pub fn group_attributes(values: &ValueClustering, n_attrs: usize) -> AttributeGrouping {
    let _span = dbmine_telemetry::span("summaries.group_attributes");
    let f_rows = values.f_rows(n_attrs);
    let inputs = attribute_dcfs(&f_rows);
    let attrs: Vec<AttrId> = inputs.iter().map(|&(a, _)| a).collect();
    let dcfs: Vec<_> = inputs.into_iter().map(|(_, d)| d).collect();
    let result = aib(dcfs, 1);
    AttributeGrouping {
        attrs,
        dendrogram: result.dendrogram,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::values::cluster_values_ctx;
    use dbmine_context::AnalysisCtx;
    use dbmine_limbo::LimboParams;
    use dbmine_relation::paper::figure4;

    fn grouping() -> AttributeGrouping {
        let rel = figure4();
        let values = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0), None);
        group_attributes(&values, rel.n_attrs())
    }

    #[test]
    fn reproduces_figure10() {
        // "The first merge with the least amount of information loss occurs
        //  between attributes B and C and upon that, attribute A is merged
        //  with the previous cluster."
        let g = grouping();
        assert_eq!(g.attrs.len(), 3); // A_D = {A, B, C}
        let seq = g.merge_sequence();
        assert_eq!(seq.len(), 2);
        let bc: AttrSet = [1, 2].into_iter().collect();
        assert_eq!(seq[0].0, bc);
        assert!((seq[0].1 - 0.1577).abs() < 1e-3, "first loss {}", seq[0].1);
        assert!((seq[1].1 - 0.5155).abs() < 1e-3, "second loss {}", seq[1].1);
        assert!((g.max_loss() - 0.5155).abs() < 1e-3);
    }

    #[test]
    fn common_merge_losses_for_fd_rank() {
        let g = grouping();
        // {B,C} unite at ≈0.158; {A,B} only at the final ≈0.516 merge.
        let bc = g.common_merge_loss([1, 2].into_iter().collect()).unwrap();
        let ab = g.common_merge_loss([0, 1].into_iter().collect()).unwrap();
        assert!(bc < ab);
        assert!((bc - 0.1577).abs() < 1e-3);
        assert!((ab - 0.5155).abs() < 1e-3);
    }

    #[test]
    fn missing_attribute_returns_none() {
        // An attribute outside A_D (or out of range) never joins.
        let g = grouping();
        assert!(g.common_merge_loss([0, 5].into_iter().collect()).is_none());
    }

    #[test]
    fn clusters_at_k2() {
        let g = grouping();
        let c = g.clusters_at(2);
        assert_eq!(c.len(), 2);
        assert!(c.contains(&vec![0]));
        assert!(c.contains(&vec![1, 2]));
    }

    #[test]
    fn participating_set() {
        let g = grouping();
        assert_eq!(g.participating(), AttrSet::full(3));
    }

    #[test]
    fn no_duplicates_empty_grouping() {
        // A relation with no duplicate value groups yields an empty A_D.
        let mut b = dbmine_relation::RelationBuilder::new("u", &["X", "Y"]);
        b.push_row_strs(&["x1", "y1"]);
        b.push_row_strs(&["x2", "y2"]);
        let rel = b.build();
        let values = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0), None);
        assert_eq!(values.duplicates().count(), 0);
        let g = group_attributes(&values, 2);
        assert!(g.attrs.is_empty());
        assert!(g.merge_sequence().is_empty());
    }
}
