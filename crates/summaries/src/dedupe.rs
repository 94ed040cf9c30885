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
use dbmine_context::AnalysisCtx;
use dbmine_relation::{Relation, RelationBuilder, ValueDict, ValueId, NULL_VALUE};
use std::cmp::Reverse;
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
/// summary) of `report`, found on `ctx`, into a single survivor tuple.
///
/// Two passes over [`AnalysisCtx::chunks`]: the first keeps the group
/// members' rows and votes their survivors, the second writes the
/// repaired relation in tuple order.
pub fn eliminate_duplicates(ctx: &AnalysisCtx, report: &DuplicateReport, tau: f64) -> DedupeResult {
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

    let mut member_rows: HashMap<usize, Vec<ValueId>> = HashMap::new();
    for chunk in ctx.chunks() {
        for t in 0..chunk.n_rows() {
            if group_of.contains_key(&(chunk.start + t)) {
                member_rows.insert(chunk.start + t, chunk.row_values(t).collect());
            }
        }
    }
    let survivors: Vec<Vec<ValueId>> = groups
        .iter()
        .map(|members| {
            let rows: Vec<&[ValueId]> = members.iter().map(|t| &member_rows[t][..]).collect();
            survivor_row(&rows)
        })
        .collect();

    let dict = ctx.dict();
    let names: Vec<&str> = ctx.attr_names().iter().map(String::as_str).collect();
    let mut b = RelationBuilder::new(&format!("{}·dedup", ctx.name()), &names);
    let mut emitted_group = vec![false; groups.len()];
    let mut removed = 0usize;

    for chunk in ctx.chunks() {
        for t in 0..chunk.n_rows() {
            match group_of.get(&(chunk.start + t)) {
                None => b.push_row(&cells(dict, chunk.row_values(t))),
                Some(&gi) if !emitted_group[gi] => {
                    emitted_group[gi] = true;
                    b.push_row(&cells(dict, survivors[gi].iter().copied()));
                }
                Some(_) => removed += 1,
            }
        }
    }

    DedupeResult {
        relation: b.build(),
        merged_groups: groups,
        removed,
    }
}

/// A row of value ids as the builder's cells (NULL as `None`).
fn cells(dict: &ValueDict, row: impl Iterator<Item = ValueId>) -> Vec<Option<&str>> {
    row.map(|v| (v != NULL_VALUE).then(|| dict.string(v)))
        .collect()
}

/// Majority vote per attribute over the members' rows (anchor first):
/// a NULL loses to any non-NULL majority; ties break toward the anchor's
/// value, then the earliest-interned one.
fn survivor_row(rows: &[&[ValueId]]) -> Vec<ValueId> {
    (0..rows[0].len())
        .map(|a| {
            let mut counts: HashMap<ValueId, usize> = HashMap::new();
            for row in rows {
                *counts.entry(row[a]).or_insert(0) += 1;
            }
            let anchor = rows[0][a];
            counts
                .into_iter()
                .min_by_key(|&(v, c)| (Reverse(c), v != anchor, v))
                .map_or(anchor, |(v, _)| v)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuples::find_duplicate_tuples_ctx;
    use dbmine_limbo::LimboParams;

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
        let ctx = AnalysisCtx::of(&relation_with_dups());
        let report = find_duplicate_tuples_ctx(&ctx, LimboParams::with_phi(0.0));
        let result = eliminate_duplicates(&ctx, &report, 1e-12);
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
        let ctx = AnalysisCtx::of(&b.build());
        let report = find_duplicate_tuples_ctx(&ctx, LimboParams::with_phi(3.0));
        let result = eliminate_duplicates(&ctx, &report, f64::INFINITY);
        let merged = result
            .merged_groups
            .iter()
            .find(|g| g.contains(&0))
            .expect("copies grouped");
        assert!(merged.contains(&1) && merged.contains(&2));
        // Survivor keeps the majority value "w".
        let survivor_c = result.relation.value_str(0, 2);
        assert_eq!(survivor_c, "w");
        assert!(result.relation.n_tuples() < ctx.n_tuples());
    }

    #[test]
    fn no_groups_means_identity() {
        let mut b = RelationBuilder::new("t", &["A", "B"]);
        b.push_row_strs(&["1", "x"]);
        b.push_row_strs(&["2", "y"]);
        let ctx = AnalysisCtx::of(&b.build());
        let report = find_duplicate_tuples_ctx(&ctx, LimboParams::with_phi(0.0));
        let result = eliminate_duplicates(&ctx, &report, 1e-12);
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
        let ctx = AnalysisCtx::of(&b.build());
        let report = find_duplicate_tuples_ctx(&ctx, LimboParams::with_phi(3.0));
        let result = eliminate_duplicates(&ctx, &report, f64::INFINITY);
        if result.relation.n_tuples() == 1 {
            assert_eq!(result.relation.value_str(0, 2), "w");
        }
    }
}
