//! Bellman-style join-path discovery (Dasu et al., the paper's `[10]`).
//!
//! The paper positions its summaries as complementary to Bellman, whose
//! focus is *"identifying co-occurrence of values across different
//! relations (to identify join paths and correspondences between
//! attributes of different relations)"*. This module provides that
//! cross-relation view: for every column pair across two relations,
//! the value-set overlap (Jaccard similarity and containment), ranked —
//! high containment of a column in another is the classic
//! foreign-key-candidate signal.

use dbmine_context::AnalysisCtx;
use dbmine_relation::{AttrId, ValueId, NULL_VALUE};
use std::collections::HashSet;

/// A candidate join edge between a column of `left` and a column of
/// `right`.
#[derive(Clone, Debug, PartialEq)]
pub struct JoinCandidate {
    /// Attribute in the left relation.
    pub left_attr: AttrId,
    /// Attribute in the right relation.
    pub right_attr: AttrId,
    /// `|L ∩ R| / |L ∪ R|` over distinct non-NULL values.
    pub jaccard: f64,
    /// `|L ∩ R| / |L|` — how much of the left column's domain appears on
    /// the right (1.0 = the left column is a foreign key candidate into
    /// the right column).
    pub left_containment: f64,
    /// `|L ∩ R| / |R|`.
    pub right_containment: f64,
    /// Size of the intersection.
    pub shared: usize,
}

/// Each column's distinct non-NULL strings, from one fold over the
/// context's chunk pass: O(distinct values per column), not O(n·m).
fn column_values(ctx: &AnalysisCtx) -> Vec<HashSet<&str>> {
    let mut ids: Vec<HashSet<ValueId>> = vec![HashSet::new(); ctx.n_attrs()];
    for chunk in ctx.chunks() {
        for (set, col) in ids.iter_mut().zip(&chunk.columns) {
            set.extend(col.iter().copied().filter(|&v| v != NULL_VALUE));
        }
    }
    let dict = ctx.dict();
    ids.into_iter()
        .map(|set| set.into_iter().map(|v| dict.string(v)).collect())
        .collect()
}

/// Computes all column-pair overlaps between two relations with
/// `jaccard ≥ min_jaccard` or containment ≥ `min_containment`, sorted by
/// descending containment then Jaccard.
pub fn join_candidates(
    left: &AnalysisCtx,
    right: &AnalysisCtx,
    min_jaccard: f64,
    min_containment: f64,
) -> Vec<JoinCandidate> {
    let (left_cols, right_cols) = (column_values(left), column_values(right));
    overlaps(&left_cols, &right_cols, min_jaccard, min_containment)
}

/// The column-pair overlaps of [`join_candidates`] over each side's
/// column value sets.
fn overlaps(
    left_cols: &[HashSet<&str>],
    right_cols: &[HashSet<&str>],
    min_jaccard: f64,
    min_containment: f64,
) -> Vec<JoinCandidate> {
    let mut out = Vec::new();
    for (la, lset) in left_cols.iter().enumerate() {
        for (ra, rset) in right_cols.iter().enumerate() {
            if lset.is_empty() || rset.is_empty() {
                continue;
            }
            let shared = lset.intersection(rset).count();
            if shared == 0 {
                continue;
            }
            let union = lset.len() + rset.len() - shared;
            let jaccard = shared as f64 / union as f64;
            let left_containment = shared as f64 / lset.len() as f64;
            let right_containment = shared as f64 / rset.len() as f64;
            if jaccard >= min_jaccard
                || left_containment >= min_containment
                || right_containment >= min_containment
            {
                out.push(JoinCandidate {
                    left_attr: la,
                    right_attr: ra,
                    jaccard,
                    left_containment,
                    right_containment,
                    shared,
                });
            }
        }
    }
    out.sort_by(|a, b| {
        // total_cmp: measures are positive finite ratios here, but the
        // comparator must not be able to panic on the request path.
        let ka = a.left_containment.max(a.right_containment);
        let kb = b.left_containment.max(b.right_containment);
        kb.total_cmp(&ka)
            .then(b.jaccard.total_cmp(&a.jaccard))
            .then((a.left_attr, a.right_attr).cmp(&(b.left_attr, b.right_attr)))
    });
    out
}

/// Within-relation variant: column pairs of one relation sharing values
/// (the cross-attribute duplication that attribute grouping feeds on,
/// seen through Bellman's counting lens).
pub fn self_join_candidates(rel: &AnalysisCtx, min_jaccard: f64) -> Vec<JoinCandidate> {
    let cols = column_values(rel);
    let mut out = overlaps(&cols, &cols, min_jaccard, 1.1);
    out.retain(|c| c.left_attr < c.right_attr);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_datagen::{db2_sample, Db2Spec};
    use dbmine_relation::{Relation, RelationBuilder};

    /// `join_candidates` over two relations' contexts.
    fn joins(
        l: &Relation,
        r: &Relation,
        min_jaccard: f64,
        min_containment: f64,
    ) -> Vec<JoinCandidate> {
        let (l, r) = (AnalysisCtx::of(l), AnalysisCtx::of(r));
        join_candidates(&l, &r, min_jaccard, min_containment)
    }

    #[test]
    fn discovers_db2_foreign_keys() {
        let s = db2_sample(&Db2Spec::default());
        // EMPLOYEE.WorkDepNo → DEPARTMENT.DepNo (perfect containment).
        let c = joins(&s.employee, &s.department, 0.5, 0.99);
        let wd = s.employee.attr_id("WorkDepNo").unwrap();
        let dn = s.department.attr_id("DepNo").unwrap();
        assert!(
            c.iter()
                .any(|j| j.left_attr == wd && j.right_attr == dn && j.left_containment >= 0.999),
            "{c:?}"
        );
        // PROJECT.DeptNo → DEPARTMENT.DepNo too.
        let c2 = joins(&s.project, &s.department, 0.5, 0.99);
        let pd = s.project.attr_id("DeptNo").unwrap();
        assert!(c2.iter().any(|j| j.left_attr == pd && j.right_attr == dn));
        // DEPARTMENT.MgrNo ⊆ EMPLOYEE.EmpNo.
        let c3 = joins(&s.department, &s.employee, 0.0, 0.99);
        let mgr = s.department.attr_id("MgrNo").unwrap();
        let emp = s.employee.attr_id("EmpNo").unwrap();
        assert!(c3
            .iter()
            .any(|j| j.left_attr == mgr && j.right_attr == emp && j.left_containment >= 0.999));
    }

    #[test]
    fn jaccard_and_containment_math() {
        let mut a = RelationBuilder::new("a", &["X"]);
        for v in ["1", "2", "3", "4"] {
            a.push_row_strs(&[v]);
        }
        let mut b = RelationBuilder::new("b", &["Y"]);
        for v in ["3", "4", "5"] {
            b.push_row_strs(&[v]);
        }
        let c = joins(&a.build(), &b.build(), 0.0, 0.0);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].shared, 2);
        assert!((c[0].jaccard - 2.0 / 5.0).abs() < 1e-12);
        assert!((c[0].left_containment - 0.5).abs() < 1e-12);
        assert!((c[0].right_containment - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn nulls_do_not_count_as_shared_values() {
        let mut a = RelationBuilder::new("a", &["X"]);
        a.push_row(&[None]);
        a.push_row(&[Some("v")]);
        let mut b = RelationBuilder::new("b", &["Y"]);
        b.push_row(&[None]);
        b.push_row(&[Some("w")]);
        let c = joins(&a.build(), &b.build(), 0.0, 0.0);
        assert!(c.is_empty(), "NULL must not create join edges: {c:?}");
    }

    #[test]
    fn self_join_finds_cross_attribute_sharing() {
        let s = db2_sample(&Db2Spec::default());
        let c = self_join_candidates(&AnalysisCtx::of(&s.relation), 0.2);
        let emp = s.relation.attr_id("EmpNo").unwrap();
        let mgr = s.relation.attr_id("MgrNo").unwrap();
        assert!(
            c.iter().any(|j| (j.left_attr, j.right_attr) == (emp, mgr)),
            "EmpNo/MgrNo sharing missed: {c:?}"
        );
        // Ordering: pairs listed once with left < right.
        assert!(c.iter().all(|j| j.left_attr < j.right_attr));
    }

    #[test]
    fn thresholds_filter() {
        let s = db2_sample(&Db2Spec::default());
        let all = joins(&s.employee, &s.department, 0.0, 0.0);
        // Disable the containment gate entirely: only near-identical
        // domains (WorkDepNo ↔ DepNo) survive a 0.9 Jaccard bar.
        let strict = joins(&s.employee, &s.department, 0.9, 2.0);
        assert!(
            strict.len() < all.len(),
            "{} vs {}",
            strict.len(),
            all.len()
        );
        assert!(!strict.is_empty());
    }
}
