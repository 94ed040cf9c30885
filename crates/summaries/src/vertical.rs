//! Vertical partitioning from attribute groups.
//!
//! The conclusion of the paper: *"the groups of attributes with large
//! duplication provide important clues for the redefinition of the
//! schema of a relation."* This module turns an [`AttributeGrouping`]
//! into an actual schema proposal: cut the dendrogram at `k` clusters,
//! project the relation onto each cluster (deduplicated), and report the
//! storage effect. Attributes outside `A_D` (no duplication evidence)
//! are kept together in one residual fragment.

use crate::attributes::AttributeGrouping;
use dbmine_relation::{AttrId, AttrSet, Relation};
use std::collections::HashSet;

/// A proposed vertical partition of the schema.
#[derive(Clone, Debug)]
pub struct VerticalPartition {
    /// The attribute sets of the proposed fragments (disjoint, covering
    /// all attributes).
    pub fragments: Vec<AttrSet>,
    /// Deduplicated projections, one per fragment.
    pub relations: Vec<Relation>,
    /// Cells in the original relation.
    pub cells_before: usize,
    /// Total cells across the fragments.
    pub cells_after: usize,
}

impl VerticalPartition {
    /// Fraction of stored cells eliminated (may be negative when the
    /// fragments barely deduplicate — a sign the cut is too fine).
    pub fn storage_reduction(&self) -> f64 {
        if self.cells_before == 0 {
            0.0
        } else {
            1.0 - self.cells_after as f64 / self.cells_before as f64
        }
    }
}

/// Proposes a `k`-fragment vertical partition of `rel` from `grouping`.
///
/// Attributes that did not participate in the grouping (outside `A_D`)
/// are gathered into one residual fragment.
pub fn vertical_partition(
    rel: &Relation,
    grouping: &AttributeGrouping,
    k: usize,
) -> VerticalPartition {
    let mut fragments: Vec<AttrSet> = grouping
        .clusters_at(k.max(1))
        .into_iter()
        .map(|attrs| attrs.into_iter().collect())
        .collect();

    // Residual: attributes with no duplication evidence.
    let covered: HashSet<AttrId> = fragments.iter().flat_map(|f| f.iter()).collect();
    let residual: AttrSet = (0..rel.n_attrs())
        .filter(|a| !covered.contains(a))
        .collect();
    if !residual.is_empty() {
        fragments.push(residual);
    }

    let relations: Vec<Relation> = fragments
        .iter()
        .enumerate()
        .map(|(i, &attrs)| rel.project_distinct(attrs, &format!("{}_V{}", rel.name(), i + 1)))
        .collect();
    let cells_after = relations.iter().map(|r| r.n_tuples() * r.n_attrs()).sum();

    VerticalPartition {
        fragments,
        relations,
        cells_before: rel.n_tuples() * rel.n_attrs(),
        cells_after,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attributes::group_attributes;
    use crate::values::cluster_values_ctx;
    use dbmine_context::AnalysisCtx;
    use dbmine_limbo::LimboParams;
    use dbmine_relation::paper::figure4;

    fn grouping(rel: &Relation) -> AttributeGrouping {
        let values = cluster_values_ctx(&AnalysisCtx::of(rel), LimboParams::with_phi(0.0), None);
        group_attributes(&values, rel.n_attrs())
    }

    #[test]
    fn fragments_cover_all_attributes_disjointly() {
        let rel = figure4();
        let g = grouping(&rel);
        let vp = vertical_partition(&rel, &g, 2);
        let mut union = AttrSet::EMPTY;
        for f in &vp.fragments {
            assert!(union.is_disjoint(*f), "overlapping fragments");
            union = union.union(*f);
        }
        assert_eq!(union, rel.all_attrs());
    }

    #[test]
    fn figure4_k2_splits_bc_from_a() {
        // The dendrogram merges B,C first: at k = 2 the fragments are
        // {B,C} and {A}; the {B,C} projection deduplicates to 3 rows.
        let rel = figure4();
        let g = grouping(&rel);
        let vp = vertical_partition(&rel, &g, 2);
        let bc: AttrSet = [1usize, 2].into_iter().collect();
        assert!(vp.fragments.contains(&bc), "{:?}", vp.fragments);
        let bc_rel = vp
            .relations
            .iter()
            .find(|r| r.n_attrs() == 2)
            .expect("two-attribute fragment");
        assert_eq!(bc_rel.n_tuples(), 3);
    }

    #[test]
    fn residual_fragment_for_nonparticipants() {
        // A relation where one attribute has no duplication at all.
        let mut b = dbmine_relation::RelationBuilder::new("t", &["K", "X", "Y"]);
        b.push_row_strs(&["k1", "v", "w"]);
        b.push_row_strs(&["k2", "v", "w"]);
        b.push_row_strs(&["k3", "v", "w"]);
        let rel = b.build();
        let g = grouping(&rel);
        let vp = vertical_partition(&rel, &g, 1);
        let union: AttrSet = vp.fragments.iter().fold(AttrSet::EMPTY, |u, &f| u.union(f));
        assert_eq!(union, rel.all_attrs());
        // The {X,Y} fragment deduplicates to a single row.
        assert!(vp.relations.iter().any(|r| r.n_tuples() == 1));
        assert!(vp.storage_reduction() > 0.0);
    }

    #[test]
    fn k1_groups_everything_participating() {
        let rel = figure4();
        let g = grouping(&rel);
        let vp = vertical_partition(&rel, &g, 1);
        assert_eq!(vp.fragments.len(), 1); // A_D = all three attributes
        assert_eq!(vp.relations[0].n_tuples(), 5);
        assert_eq!(vp.cells_before, vp.cells_after);
    }
}
