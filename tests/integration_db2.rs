//! Integration tests over the DB2-sample experiments (Section 8.1).

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, inject_near_duplicates, Db2Spec};
use dbmine::fdmine::minimum_cover;
use dbmine::fdrank::{rad_ctx, rank_fds, rtr_ctx};
use dbmine::limbo::LimboParams;
use dbmine::summaries::{cluster_values_ctx, find_duplicate_tuples_ctx, group_attributes};
use dbmine_oracles::mine_fdep;

#[test]
fn attribute_grouping_recovers_source_schemas() {
    // Figure 14: the grouping separates employee, department and project
    // attributes (modulo small attributes outside A_D).
    let rel = db2_sample(&Db2Spec::default()).relation;
    let values = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0), None);
    let grouping = group_attributes(&values, rel.n_attrs());
    assert!(
        grouping.attrs.len() >= 12,
        "|A_D| = {}",
        grouping.attrs.len()
    );

    let names = rel.attr_names();
    let clusters = grouping.clusters_at(3);
    // Find the cluster containing DepNo: it must hold DepName and MgrNo
    // but no project/person identifiers.
    let dep = rel.attr_id("DepNo").unwrap();
    let dept_cluster = clusters
        .iter()
        .find(|c| c.contains(&dep))
        .expect("DepNo participates");
    let labels: Vec<&str> = dept_cluster.iter().map(|&a| names[a].as_str()).collect();
    assert!(labels.contains(&"DepName"), "{labels:?}");
    assert!(labels.contains(&"MgrNo"), "{labels:?}");
    // Project identifiers live in a different group. (EmpNo may bridge
    // into the department group via the shared manager numbers.)
    assert!(!labels.contains(&"ProjNo"), "{labels:?}");
    assert!(!labels.contains(&"ProjName"), "{labels:?}");
}

#[test]
fn department_dependencies_rank_top_with_high_measures() {
    // Section 8.1.4 / Table 3: the department group has the highest
    // redundancy; its dependencies rank first with RAD/RTR ≈ 0.92+.
    let rel = db2_sample(&Db2Spec::default()).relation;
    let ctx = AnalysisCtx::of(&rel);
    let cover = minimum_cover(&mine_fdep(&ctx));
    let values = cluster_values_ctx(&ctx, LimboParams::with_phi(0.0), None);
    let grouping = group_attributes(&values, rel.n_attrs());
    let ranked = rank_fds(&cover, &grouping, 0.5);

    let dept_attrs = ["DepNo", "DepName", "MgrNo", "MajorProjNo", "AdminDepNo"];
    let top = &ranked[0];
    let names = rel.attr_names();
    for a in top.attrs().iter() {
        assert!(
            dept_attrs.contains(&names[a].as_str()),
            "top-ranked FD {} is not departmental",
            top.display(names)
        );
    }
    let measures = (rad_ctx(&ctx, top.attrs()), rtr_ctx(&ctx, top.attrs()));
    assert!(measures.0 > 0.9, "RAD = {}", measures.0);
    assert!(measures.1 > 0.9, "RTR = {}", measures.1);

    // Ordering property: the best departmental FD ranks above the best
    // purely-project FD (28 distinct projects < redundancy of 7 depts).
    let proj = rel.attr_id("ProjNo").unwrap();
    let first_proj = ranked.iter().position(|r| r.lhs.contains(proj));
    if let Some(p) = first_proj {
        assert!(p > 0, "project FD should not be the very top");
    }
}

#[test]
fn exact_duplicates_recovered_at_phi_zero() {
    let rel = db2_sample(&Db2Spec::default()).relation;
    let injected = inject_near_duplicates(&rel, 5, 0, 99);
    let report = find_duplicate_tuples_ctx(
        &AnalysisCtx::of(&injected.relation),
        LimboParams::with_phi(0.0),
    );
    for d in &injected.injected {
        assert!(
            report.same_tight_group(d.original, d.duplicate, 1e-12),
            "exact duplicate {:?} missed",
            d
        );
    }
}

#[test]
fn near_duplicates_recovered_with_phi() {
    // Table 1's criterion (Section 8.1.2): a duplicate is discovered when
    // the dirty copy is associated with the *same summary* as its
    // original. (Tightness at τ is not the right extra filter here: τ
    // bounds Phase 1's per-merge loss, while the association loss to a
    // grown multi-tuple summary scales with the summary's weight, so
    // legitimately merged members can sit slightly above τ afterwards.)
    let rel = db2_sample(&Db2Spec::default()).relation;
    let injected = inject_near_duplicates(&rel, 5, 2, 7);
    let report = find_duplicate_tuples_ctx(
        &AnalysisCtx::of(&injected.relation),
        LimboParams::with_phi(0.2),
    );
    let found = injected
        .injected
        .iter()
        .filter(|d| report.same_group(d.original, d.duplicate))
        .count();
    assert!(found >= 4, "only {found}/5 near-duplicates recovered");
}

#[test]
fn recovery_degrades_with_error_count() {
    // Table 1's central trend: more dirtied values ⇒ fewer recoveries.
    let rel = db2_sample(&Db2Spec::default()).relation;
    let recovered = |errors: usize| -> usize {
        (0..3u64)
            .map(|seed| {
                let injected = inject_near_duplicates(&rel, 5, errors, 30 + seed);
                let report = find_duplicate_tuples_ctx(
                    &AnalysisCtx::of(&injected.relation),
                    LimboParams::with_phi(0.2),
                );
                let tau = report.threshold;
                injected
                    .injected
                    .iter()
                    .filter(|d| report.same_tight_group(d.original, d.duplicate, tau))
                    .count()
            })
            .sum()
    };
    let low = recovered(1);
    let high = recovered(10);
    assert!(low > high, "low-error {low} vs high-error {high}");
    assert!(
        low >= 13,
        "1-error duplicates nearly all found, got {low}/15"
    );
}

#[test]
fn fd_counts_match_paper_order_of_magnitude() {
    // Paper: FDEP found 106 FDs on R, minimum cover 14. Our synthetic
    // sample has the same structure but more accidental dependencies;
    // same order of magnitude, and the cover shrinks substantially.
    let rel = db2_sample(&Db2Spec::default()).relation;
    let fds = mine_fdep(&AnalysisCtx::of(&rel));
    let cover = minimum_cover(&fds);
    assert!((50..1000).contains(&fds.len()), "{} FDs", fds.len());
    assert!(
        cover.len() * 3 < fds.len(),
        "cover {} of {}",
        cover.len(),
        fds.len()
    );
}
