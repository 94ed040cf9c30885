//! Duplicate elimination (the data-quality application of Section 1:
//! *"applications of our summaries to the data quality problems of
//! duplicate elimination"*).
//!
//! Given the candidate groups from [`crate::tuples`], produce a repaired
//! relation: each tight group collapses into one *survivor* tuple whose
//! cells are chosen by majority vote among the group (the standard
//! survivorship rule — the dirty minority value loses to the consistent
//! majority). Tuples outside any tight group pass through unchanged.

use crate::tuples::DuplicateReport;
use dbmine_relation::{Relation, RelationBuilder};
use std::collections::HashMap;

/// The outcome of duplicate elimination.
#[derive(Clone, Debug)]
pub struct DedupeResult {
    /// The repaired relation (survivors + untouched tuples, in original
    /// tuple order keyed by each group's first member).
    pub relation: Relation,
    /// For each merged group: the input tuple indices it collapsed.
    pub merged_groups: Vec<Vec<usize>>,
    /// Number of tuples removed.
    pub removed: usize,
}

/// Collapses every tight duplicate group (members within `tau` of their
/// summary) of `report` into a single survivor tuple.
pub fn eliminate_duplicates(rel: &Relation, report: &DuplicateReport, tau: f64) -> DedupeResult {
    // Tight groups, restricted to ≥2 members; first member = anchor.
    let groups: Vec<Vec<usize>> = report
        .groups
        .iter()
        .map(|g| g.tight_members(tau))
        .filter(|m| m.len() >= 2)
        .collect();

    // Tuple → group index (a tuple can only sit in one Phase 3 group).
    let mut group_of: HashMap<usize, usize> = HashMap::new();
    for (gi, members) in groups.iter().enumerate() {
        for &t in members {
            group_of.insert(t, gi);
        }
    }

    let names: Vec<&str> = rel.attr_names().iter().map(String::as_str).collect();
    let mut b = RelationBuilder::new(&format!("{}·dedup", rel.name()), &names);
    let mut emitted_group = vec![false; groups.len()];
    let mut removed = 0usize;

    for t in 0..rel.n_tuples() {
        match group_of.get(&t) {
            None => {
                let row: Vec<Option<&str>> = (0..rel.n_attrs())
                    .map(|a| {
                        if rel.is_null(t, a) {
                            None
                        } else {
                            Some(rel.value_str(t, a))
                        }
                    })
                    .collect();
                b.push_row(&row);
            }
            Some(&gi) if !emitted_group[gi] => {
                emitted_group[gi] = true;
                let survivor = survivor_row(rel, &groups[gi]);
                let row: Vec<Option<&str>> = survivor.iter().map(|c| c.as_deref()).collect();
                b.push_row(&row);
            }
            Some(_) => removed += 1,
        }
    }

    DedupeResult {
        relation: b.build(),
        merged_groups: groups,
        removed,
    }
}

/// Majority vote per attribute; ties break toward the earliest member's
/// value (the anchor), NULLs lose to any non-NULL majority.
fn survivor_row(rel: &Relation, members: &[usize]) -> Vec<Option<String>> {
    (0..rel.n_attrs())
        .map(|a| {
            let mut counts: HashMap<u32, usize> = HashMap::new();
            for &t in members {
                *counts.entry(rel.value(t, a)).or_insert(0) += 1;
            }
            let anchor = rel.value(members[0], a);
            let best = counts
                .iter()
                .max_by_key(|&(&v, &c)| (c, v == anchor))
                .map(|(&v, _)| v)
                .unwrap_or(anchor);
            if best == dbmine_relation::NULL_VALUE {
                None
            } else {
                Some(rel.dict().string(best).to_string())
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuples::find_duplicate_tuples_ctx;
    use dbmine_context::AnalysisCtx;
    use dbmine_limbo::LimboParams;
    use dbmine_relation::RelationBuilder;

    fn relation_with_dups() -> Relation {
        let mut b = RelationBuilder::new("t", &["K", "X", "Y", "Z"]);
        b.push_row_strs(&["k1", "a", "b", "c"]);
        b.push_row_strs(&["k1", "a", "b", "c"]); // exact duplicate
        b.push_row_strs(&["k2", "p", "q", "r"]);
        b.push_row_strs(&["k3", "s", "t", "u"]);
        b.build()
    }

    #[test]
    fn exact_duplicates_collapse() {
        let rel = relation_with_dups();
        let report = find_duplicate_tuples_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0));
        let result = eliminate_duplicates(&rel, &report, 1e-12);
        assert_eq!(result.relation.n_tuples(), 3);
        assert_eq!(result.removed, 1);
        assert_eq!(result.merged_groups.len(), 1);
        // Survivor identical to the duplicated tuple.
        assert_eq!(result.relation.value_str(0, 0), "k1");
        assert_eq!(result.relation.value_str(0, 3), "c");
    }

    #[test]
    fn majority_vote_repairs_dirty_value() {
        // Three near-copies; the dirty middle value is outvoted.
        let mut b = RelationBuilder::new("t", &["A", "B", "C", "D", "E"]);
        b.push_row_strs(&["x", "v", "w", "z", "q"]);
        b.push_row_strs(&["x", "v", "DIRTY", "z", "q"]);
        b.push_row_strs(&["x", "v", "w", "z", "q"]);
        b.push_row_strs(&["other", "o1", "o2", "o3", "o4"]);
        let rel = b.build();
        let report = find_duplicate_tuples_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(3.0));
        let result = eliminate_duplicates(&rel, &report, f64::INFINITY);
        let merged = result
            .merged_groups
            .iter()
            .find(|g| g.contains(&0))
            .expect("copies grouped");
        assert!(merged.contains(&1) && merged.contains(&2));
        // Survivor keeps the majority value "w".
        let survivor_c = result.relation.value_str(0, 2);
        assert_eq!(survivor_c, "w");
        assert!(result.relation.n_tuples() < rel.n_tuples());
    }

    #[test]
    fn no_groups_means_identity() {
        let mut b = RelationBuilder::new("t", &["A", "B"]);
        b.push_row_strs(&["1", "x"]);
        b.push_row_strs(&["2", "y"]);
        let rel = b.build();
        let report = find_duplicate_tuples_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0));
        let result = eliminate_duplicates(&rel, &report, 1e-12);
        assert_eq!(result.relation.n_tuples(), 2);
        assert_eq!(result.removed, 0);
        assert!(result.merged_groups.is_empty());
    }

    #[test]
    fn null_loses_to_majority() {
        let mut b = RelationBuilder::new("t", &["A", "B", "C"]);
        b.push_row_strs(&["x", "v", "w"]);
        b.push_row(&[Some("x"), Some("v"), None]); // missing value copy
        b.push_row_strs(&["x", "v", "w"]);
        let rel = b.build();
        let report = find_duplicate_tuples_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(3.0));
        let result = eliminate_duplicates(&rel, &report, f64::INFINITY);
        if result.relation.n_tuples() == 1 {
            assert_eq!(result.relation.value_str(0, 2), "w");
        }
    }
}
