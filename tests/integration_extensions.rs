//! Integration tests for the extension modules: approximate FDs, MVDs,
//! FastFDs, join discovery, duplicate elimination, vertical partitioning
//! and position information content — exercised together on the
//! generated data sets.

use dbmine::baselines::join_candidates;
use dbmine::context::AnalysisCtx;
use dbmine::datagen::{
    db2_sample, inject_near_duplicates, synthetic, Db2Spec, PlantedFd, SyntheticSpec,
};
use dbmine::fdmine::{mine_approximate_ctx, Fd};
use dbmine::fdrank::{column_content, redundant_cells_ctx};
use dbmine::limbo::LimboParams;
use dbmine::relation::{AttrSet, Relation};
use dbmine::summaries::{
    cluster_values_ctx, eliminate_duplicates, find_duplicate_tuples_ctx, group_attributes,
    vertical_partition,
};
use dbmine_oracles::{mine_fastfds, mine_fdep};

#[test]
fn three_miners_agree_on_db2() {
    let rel = db2_sample(&Db2Spec::default()).relation;
    let mut fdep = mine_fdep(&AnalysisCtx::of(&rel));
    let mut fast = mine_fastfds(&rel);
    fdep.sort();
    fast.sort();
    assert_eq!(fdep, fast, "FDEP and FastFDs must agree on the DB2 sample");
}

#[test]
fn approximate_mining_tracks_injected_noise() {
    // Plant A0 → A1 exactly, then add 5% noise: exact mining loses the
    // dependency, approximate mining at ε = 0.1 recovers it.
    let spec = SyntheticSpec {
        n_tuples: 2_000,
        n_attrs: 4,
        fds: vec![PlantedFd {
            determinant: 0,
            dependents: vec![1],
        }],
        noise: 0.05,
        ..Default::default()
    };
    let rel = synthetic(&spec);
    let exact = mine_fdep(&AnalysisCtx::of(&rel));
    assert!(!exact.contains(&Fd::new(AttrSet::single(0), 1)));
    let approx = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.1, Some(2), 1);
    let hit = approx
        .iter()
        .find(|f| f.fd == Fd::new(AttrSet::single(0), 1))
        .expect("noisy planted FD recovered as approximate");
    assert!((hit.error - 0.05).abs() < 0.03, "g3 = {}", hit.error);
}

#[test]
fn mvds_on_db2_include_key_splits() {
    // In the joined relation, EmpNo ↠ project attributes: each employee's
    // personal attributes combine freely with every project of their
    // department.
    let rel = db2_sample(&Db2Spec::default()).relation;
    let emp = rel.attr_id("EmpNo").unwrap();
    let proj_attrs: AttrSet = [
        "ProjNo",
        "ProjName",
        "RespEmpNo",
        "StartDate",
        "EndDate",
        "MajorProjNo",
    ]
    .iter()
    .filter_map(|n| rel.attr_id(n))
    .collect();
    assert!(dbmine::fdmine::mvd_holds(
        &AnalysisCtx::of(&rel),
        AttrSet::single(emp),
        proj_attrs
    ));
}

#[test]
fn join_discovery_recovers_star_schema() {
    let s = db2_sample(&Db2Spec::default());
    // All three base-table foreign keys surface at containment 1.0.
    let fk = |l: &Relation, la: &str, r: &Relation, ra: &str| {
        join_candidates(&AnalysisCtx::of(l), &AnalysisCtx::of(r), 2.0, 0.999)
            .iter()
            .any(|c| {
                c.left_attr == l.attr_id(la).unwrap() && c.right_attr == r.attr_id(ra).unwrap()
            })
    };
    assert!(fk(&s.employee, "WorkDepNo", &s.department, "DepNo"));
    assert!(fk(&s.project, "DeptNo", &s.department, "DepNo"));
    assert!(fk(&s.department, "MgrNo", &s.employee, "EmpNo"));
    assert!(fk(&s.project, "RespEmpNo", &s.employee, "EmpNo"));
}

#[test]
fn dedupe_restores_cardinality_after_injection() {
    let clean = db2_sample(&Db2Spec::default()).relation;
    let injected = inject_near_duplicates(&clean, 6, 1, 11);
    // φT = 0.1: wide enough for 1-error copies, tight enough not to
    // merge same-employee join rows (which differ in 6 of 19 attributes).
    let report = find_duplicate_tuples_ctx(
        &AnalysisCtx::of(&injected.relation),
        LimboParams::with_phi(0.1),
    );
    let repaired = eliminate_duplicates(&injected.relation, &report, report.threshold);
    assert!(repaired.relation.n_tuples() < injected.relation.n_tuples());
    // Most of the planted copies are gone. A few genuinely similar
    // original tuples may merge too (same employee on near-identical
    // projects), so the floor is slightly below the clean cardinality.
    assert!(repaired.relation.n_tuples() + 10 >= clean.n_tuples());
    assert!(repaired.removed >= 4, "removed only {}", repaired.removed);
}

#[test]
fn vertical_partition_of_db2_reduces_storage() {
    let rel = db2_sample(&Db2Spec::default()).relation;
    let values = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0), None);
    let grouping = group_attributes(&values, rel.n_attrs());
    let vp = vertical_partition(&rel, &grouping, 3);
    assert!(vp.fragments.len() >= 3);
    assert!(
        vp.storage_reduction() > 0.3,
        "3-way split of a star join should cut ≥30% of cells, got {:.2}",
        vp.storage_reduction()
    );
    // Every fragment is a valid projection covering all tuples' data.
    let union: AttrSet = vp.fragments.iter().fold(AttrSet::EMPTY, |u, &f| u.union(f));
    assert_eq!(union, rel.all_attrs());
}

#[test]
fn information_content_flags_derivable_columns() {
    let rel = db2_sample(&Db2Spec::default()).relation;
    let dep_no = rel.attr_id("DepNo").unwrap();
    let dep_name = rel.attr_id("DepName").unwrap();
    let fds = vec![Fd::new(AttrSet::single(dep_no), dep_name)];
    // DepName is (almost) fully derivable from DepNo: every department
    // appears in many tuples, so all but ~one witness per department are
    // pinned.
    let c = column_content(&rel, &fds, dep_name);
    assert!(c < 0.25, "DepName content {c}");
    // And redundant_cells_ctx agrees with the count implied by 7 groups.
    let cells = redundant_cells_ctx(&AnalysisCtx::of(&rel), AttrSet::single(dep_no), dep_name);
    assert_eq!(cells.len(), 90 - 7);
}
