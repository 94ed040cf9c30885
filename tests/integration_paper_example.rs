//! End-to-end reproduction of the paper's running example (Figures 4–10
//! and Section 7) through the public `dbmine` API.

use dbmine::context::AnalysisCtx;
use dbmine::fdmine::Fd;
use dbmine::fdrank::{decompose, rank_fds};
use dbmine::limbo::LimboParams;
use dbmine::relation::paper::{figure4, figure5};
use dbmine::relation::{AttrSet, ValueIndex};
use dbmine::summaries::{cluster_values_ctx, group_attributes};
use dbmine::{MinerConfig, StructureMiner};
use dbmine_oracles::mine_fdep;

#[test]
fn figure6_matrices() {
    let rel = figure4();
    let idx = ValueIndex::build(&rel);
    assert_eq!(idx.len(), 9);
    assert!((idx.prior() - 1.0 / 9.0).abs() < 1e-12);
    // Row of value "2": p(T|2) uniform over t3,t4,t5; O row B=3.
    let two = idx.position(rel.dict().lookup("2").unwrap()).unwrap();
    let row = idx.n_row(two);
    assert!((row.get(2) - 1.0 / 3.0).abs() < 1e-12);
    assert_eq!(idx.o_row(two).get(1), 3.0);
}

#[test]
fn figure7_clusters_and_figure9_f_matrix() {
    let rel = figure4();
    let values = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0), None);
    assert_eq!(values.duplicates().count(), 2);
    assert_eq!(values.non_duplicates().count(), 5);
    let f = values.f_rows(3);
    // Row sums: A = 2, B = 5, C = 3 (occurrence counts of group members).
    assert_eq!(f[0].total(), 2.0);
    assert_eq!(f[1].total(), 5.0);
    assert_eq!(f[2].total(), 3.0);
}

#[test]
fn figure10_dendrogram_and_section7_ranking() {
    let rel = figure4();
    let values = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0), None);
    let grouping = group_attributes(&values, 3);
    // B,C merge first (δI ≈ 0.158); A joins last (δI ≈ 0.5155 ≈ "0.52").
    let seq = grouping.merge_sequence();
    assert_eq!(seq.len(), 2);
    assert!((seq[0].1 - 0.1577).abs() < 1e-3);
    assert!((seq[1].1 - 0.5155).abs() < 1e-3);

    let fds = vec![
        Fd::new(AttrSet::single(0), 1), // A → B
        Fd::new(AttrSet::single(2), 1), // C → B
    ];
    let ranked = rank_fds(&fds, &grouping, 0.5);
    assert_eq!(ranked[0].lhs, AttrSet::single(2));
    assert!(ranked[0].promoted);
    assert!(!ranked[1].promoted);

    // Decomposing by C→B removes more redundancy than by A→B.
    let d_c = decompose(&rel, &ranked[0]);
    let d_a = decompose(&rel, &ranked[1]);
    assert!(d_c.s1.n_tuples() < d_a.s1.n_tuples() + d_a.s2.n_tuples());
    assert!(d_c.storage_reduction() > d_a.storage_reduction());
}

#[test]
fn figure5_error_breaks_fd_and_needs_phi() {
    let rel5 = figure5();
    let ctx = AnalysisCtx::of(&rel5);
    // C → B no longer holds.
    let fds = mine_fdep(&ctx);
    assert!(!fds.contains(&Fd::new(AttrSet::single(2), 1)));
    // φV = 0 misses the {2,x} pair; φV = 0.5 recovers it.
    let strict = cluster_values_ctx(&ctx, LimboParams::with_phi(0.0), None);
    let lax = cluster_values_ctx(&ctx, LimboParams::with_phi(0.5), None);
    let two = rel5.dict().lookup("2").unwrap();
    let x = rel5.dict().lookup("x").unwrap();
    assert!(!strict.same_group(two, x));
    assert!(lax.same_group(two, x));
}

#[test]
fn full_pipeline_on_figure4() {
    let report =
        StructureMiner::new(MinerConfig::default()).analyze_ctx(&AnalysisCtx::of(&figure4()));
    assert_eq!(report.value_groups.duplicates().count(), 2);
    assert!(!report.ranked.is_empty());
    // The top dependency must be promoted and include attribute C.
    let top = &report.ranked[0];
    assert!(top.fd.promoted);
    assert!(top.fd.attrs().contains(2));
}
