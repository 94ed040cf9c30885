//! Property tests for the summary tools: partitions must cover, value
//! groups must partition the value universe, dedupe must conserve
//! non-duplicate tuples, and attribute grouping must stay within `A_D`.

use dbmine_context::AnalysisCtx;
use dbmine_limbo::LimboParams;
use dbmine_relation::{Relation, RelationBuilder};
use dbmine_summaries::{
    cluster_values_ctx, eliminate_duplicates, find_duplicate_tuples_ctx, group_attributes,
    horizontal_partition_ctx, vertical_partition,
};
use proptest::prelude::*;

/// Random categorical relation: 2–5 attrs, 2–20 tuples, small domains so
/// duplication actually occurs.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=5, 2usize..=20).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::collection::vec(0u8..3, m), n).prop_map(move |rows| {
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for row in rows {
                let cells: Vec<String> = row
                    .iter()
                    .enumerate()
                    .map(|(a, v)| format!("v{a}_{v}"))
                    .collect();
                let strs: Vec<&str> = cells.iter().map(String::as_str).collect();
                b.push_row_strs(&strs);
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn value_groups_partition_the_universe(rel in arb_relation(), phi in 0.0f64..1.0) {
        let c = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(phi), None);
        let mut seen: Vec<u32> = c.groups.iter().flat_map(|g| g.values.iter().copied()).collect();
        seen.sort_unstable();
        let before = seen.len();
        seen.dedup();
        prop_assert_eq!(before, seen.len(), "a value appears in two groups");
        prop_assert_eq!(seen.len(), rel.distinct_value_count());
        // Support counts are consistent.
        for g in &c.groups {
            prop_assert!(g.tuple_support >= 1);
            prop_assert!(g.tuple_support <= rel.n_tuples());
            prop_assert!(g.o_row.total() >= g.values.len() as f64);
        }
    }

    #[test]
    fn horizontal_partition_covers_all_tuples(rel in arb_relation(), k in 1usize..4) {
        let ctx = AnalysisCtx::of(&rel);
        let p = horizontal_partition_ctx(&ctx, LimboParams::with_phi(0.5), Some(k), 8);
        let mut all: Vec<usize> = p.partitions.iter().flatten().copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..rel.n_tuples()).collect::<Vec<_>>());
        prop_assert!(p.partitions.len() <= k.max(1));
        prop_assert!((0.0..=1.0).contains(&p.relative_loss));
        prop_assert!((0.0..=1.0).contains(&p.phase3_loss));
    }

    #[test]
    fn dedupe_never_invents_tuples(rel in arb_relation(), phi in 0.0f64..0.5) {
        let report = find_duplicate_tuples_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(phi));
        let result = eliminate_duplicates(&rel, &report, report.threshold);
        prop_assert!(result.relation.n_tuples() <= rel.n_tuples());
        prop_assert_eq!(
            result.relation.n_tuples() + result.removed,
            rel.n_tuples()
        );
        prop_assert_eq!(result.relation.n_attrs(), rel.n_attrs());
    }

    #[test]
    fn attribute_grouping_stays_in_bounds(rel in arb_relation()) {
        let values = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0), None);
        let g = group_attributes(&values, rel.n_attrs());
        prop_assert!(g.attrs.len() <= rel.n_attrs());
        for &a in &g.attrs {
            prop_assert!(a < rel.n_attrs());
        }
        // The merge sequence has |A_D| - 1 merges when non-empty.
        if !g.attrs.is_empty() {
            prop_assert_eq!(g.merge_sequence().len(), g.attrs.len() - 1);
        }
        // Every merge's loss is non-negative and ≤ 1 bit in total mass.
        for (_, loss) in g.merge_sequence() {
            prop_assert!(loss >= -1e-12);
        }
    }

    #[test]
    fn vertical_partition_is_exact_cover(rel in arb_relation(), k in 1usize..4) {
        let values = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0), None);
        let g = group_attributes(&values, rel.n_attrs());
        let vp = vertical_partition(&rel, &g, k);
        let mut union = dbmine_relation::AttrSet::EMPTY;
        for &f in &vp.fragments {
            prop_assert!(union.is_disjoint(f));
            union = union.union(f);
        }
        prop_assert_eq!(union, rel.all_attrs());
        // Fragments' projected tuples never exceed the original count.
        for r in &vp.relations {
            prop_assert!(r.n_tuples() <= rel.n_tuples());
        }
    }
}
