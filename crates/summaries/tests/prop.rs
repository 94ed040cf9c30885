//! Property tests for the summary tools: partitions must cover (and
//! match the two-AIB-run partitioning they replace), value groups must
//! partition the value universe, dedupe must conserve non-duplicate
//! tuples, and attribute grouping must stay within `A_D`.

use dbmine_context::AnalysisCtx;
use dbmine_limbo::{phase1, phase2_with, phase3_with, tuple_dcfs_ctx, LimboParams};
use dbmine_oracles::dcf_merge;
use dbmine_relation::{Relation, RelationBuilder};
use dbmine_summaries::{
    cluster_values_ctx, eliminate_duplicates, find_duplicate_tuples_ctx, group_attributes,
    horizontal_partition_ctx, suggest_k, vertical_partition, PartitionResult,
};
use proptest::prelude::*;

/// Random categorical relation: 2–5 attrs, 2–20 tuples, small domains so
/// duplication actually occurs.
fn arb_relation() -> impl Strategy<Value = Relation> {
    arb_relation_sized(2..=20, 3)
}

/// Random categorical relation: 2–5 attrs, `n` tuples, `domain` values
/// per attribute.
fn arb_relation_sized(
    n: std::ops::RangeInclusive<usize>,
    domain: u8,
) -> impl Strategy<Value = Relation> {
    (2usize..=5, n).prop_flat_map(move |(m, n)| {
        proptest::collection::vec(proptest::collection::vec(0u8..domain, m), n).prop_map(
            move |rows| {
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
            },
        )
    })
}

/// The partitioning as it was computed before Phase 2 ran once: AIB to
/// `k = 1` for the statistics, then a second AIB run from scratch to the
/// chosen `k`. Test-local oracle for [`horizontal_partition_ctx`].
fn two_run_partition(
    ctx: &AnalysisCtx,
    params: LimboParams,
    k: Option<usize>,
    max_k: usize,
) -> PartitionResult {
    let threads = params.threads;
    let objects = tuple_dcfs_ctx(ctx, threads);
    let mi = ctx.tuple_mutual_information();
    let model = phase1(&objects, mi, params);
    let n_summaries = model.leaves.len();
    let full = phase2_with(&model, 1, threads);
    let chosen_k = k
        .unwrap_or_else(|| suggest_k(&full.stats, max_k))
        .clamp(1, n_summaries.max(1));
    let clustering = phase2_with(&model, chosen_k, threads);
    let assignments = phase3_with(objects.iter(), &clustering, threads);
    let mut partitions = vec![Vec::new(); clustering.clusters.len()];
    for (t, &(c, _)) in assignments.iter().enumerate() {
        partitions[c].push(t);
    }
    let cluster_dcfs: Vec<dbmine_ib::Dcf> = partitions
        .iter()
        .filter(|p| !p.is_empty())
        .map(|p| {
            let mut dcf = objects[p[0]].clone();
            for &t in &p[1..] {
                dcf = dcf_merge(&dcf, &objects[t]);
            }
            dcf
        })
        .collect();
    let rows: Vec<_> = cluster_dcfs.iter().map(|c| (c.weight, &c.cond)).collect();
    let mi_clustered = dbmine_infotheory::mutual_information(rows.iter().copied());
    let relative_loss = if mi > 0.0 {
        (1.0 - mi_clustered / mi).max(0.0)
    } else {
        0.0
    };
    let mi_leaves = clustering.initial_information;
    let phase3_loss = if mi_leaves > 0.0 {
        (1.0 - mi_clustered / mi_leaves).clamp(0.0, 1.0)
    } else {
        0.0
    };
    partitions.retain(|p| !p.is_empty());
    partitions.sort_by_key(|p| std::cmp::Reverse(p.len()));
    PartitionResult {
        k: chosen_k,
        partitions,
        stats: full.stats,
        relative_loss,
        phase3_loss,
        n_summaries,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// One Phase 2 run plus a dendrogram cut partitions exactly like two
    /// runs: same `k`, partitions, statistics and loss bits, at every
    /// thread count, with the knee heuristic or a forced `k`.
    #[test]
    fn horizontal_partition_matches_two_run_oracle(
        rel in arb_relation_sized(20..=160, 6),
        phi_ix in 0usize..3,
        k in 0usize..6,
        threads in 1usize..4,
    ) {
        let ctx = AnalysisCtx::of(&rel);
        let params = LimboParams::with_phi([0.0, 0.1, 0.5][phi_ix]).threads(threads);
        let k = (k > 0).then_some(k);
        let got = horizontal_partition_ctx(&ctx, params, k, 8);
        let want = two_run_partition(&ctx, params, k, 8);
        prop_assert_eq!(got.k, want.k);
        prop_assert_eq!(got.n_summaries, want.n_summaries);
        prop_assert_eq!(&got.partitions, &want.partitions);
        prop_assert_eq!(got.relative_loss.to_bits(), want.relative_loss.to_bits());
        prop_assert_eq!(got.phase3_loss.to_bits(), want.phase3_loss.to_bits());
        prop_assert_eq!(got.stats.len(), want.stats.len());
        for (a, b) in got.stats.iter().zip(&want.stats) {
            prop_assert_eq!(a.k, b.k);
            prop_assert_eq!(a.cumulative_loss.to_bits(), b.cumulative_loss.to_bits());
            prop_assert_eq!(a.mutual_information.to_bits(), b.mutual_information.to_bits());
            prop_assert_eq!(a.cluster_entropy.to_bits(), b.cluster_entropy.to_bits());
            prop_assert_eq!(a.conditional_entropy.to_bits(), b.conditional_entropy.to_bits());
        }
    }
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
