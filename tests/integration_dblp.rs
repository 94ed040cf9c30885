//! Integration tests over the DBLP experiments (Section 8.2), at a
//! test-friendly scale.

use dbmine::context::AnalysisCtx;
use dbmine::datagen::dblp::NULL_HEAVY_ATTRS;
use dbmine::datagen::{dblp_sample, DblpSpec};
use dbmine::fdmine::{mine_tane_ctx, TaneOptions};
use dbmine::limbo::LimboParams;
use dbmine::relation::AttrSet;
use dbmine::summaries::{
    cluster_values_ctx, group_attributes, horizontal_partition_ctx, tuple_summary_assignment_ctx,
};

fn dblp() -> dbmine::relation::Relation {
    dblp_sample(&DblpSpec::small())
}

#[test]
fn null_heavy_attributes_unite_at_negligible_loss() {
    // Figure 15's headline: the six ≥98%-NULL attributes form a group at
    // (almost) zero information loss.
    let rel = dblp();
    let ctx = AnalysisCtx::of(&rel);
    let (assignment, _) = tuple_summary_assignment_ctx(&ctx, LimboParams::with_phi(0.5));
    let values = cluster_values_ctx(&ctx, LimboParams::with_phi(1.0), Some(&assignment));
    let grouping = group_attributes(&values, rel.n_attrs());
    let set: AttrSet = NULL_HEAVY_ATTRS
        .iter()
        .filter_map(|n| rel.attr_id(n))
        .collect();
    let loss = grouping
        .common_merge_loss(set)
        .expect("NULL-heavy attributes participate in A_D");
    assert!(
        loss < 0.05 * grouping.max_loss(),
        "NULL group loss {loss} vs max {}",
        grouping.max_loss()
    );
}

#[test]
fn partitioning_separates_conference_from_journal() {
    let rel = dblp();
    let keep: AttrSet = [
        "Author",
        "Pages",
        "BookTitle",
        "Year",
        "Volume",
        "Journal",
        "Number",
    ]
    .iter()
    .filter_map(|n| rel.attr_id(n))
    .collect();
    let projected = rel.project(keep);
    let part = horizontal_partition_ctx(
        &AnalysisCtx::of(&projected),
        LimboParams::with_phi(0.5),
        Some(2),
        6,
    );

    let bt = projected.attr_id("BookTitle").unwrap();
    let purity = |tuples: &[usize]| {
        let conf = tuples
            .iter()
            .filter(|&&t| !projected.is_null(t, bt))
            .count();
        let f = conf as f64 / tuples.len() as f64;
        f.max(1.0 - f)
    };
    for p in &part.partitions {
        assert!(
            purity(p) > 0.75,
            "partition of size {} is mixed (purity {:.2})",
            p.len(),
            purity(p)
        );
    }
}

#[test]
fn partitions_have_simpler_dependency_structure() {
    // The paper's closing observation (Section 8.2.3 / Table 5): each
    // partition's dependencies are *simpler* than the whole relation's —
    // constant venue columns surface as `∅ → A` dependencies, and the
    // left-hand sides shrink. (The raw FD *count* is not the paper's
    // claim: a clean homogeneous partition legitimately exposes both its
    // own structure and — at test scale — accidental near-key FDs.)
    let rel = dblp();
    let keep: AttrSet = [
        "Author",
        "Pages",
        "BookTitle",
        "Year",
        "Volume",
        "Journal",
        "Number",
    ]
    .iter()
    .filter_map(|n| rel.attr_id(n))
    .collect();
    let projected = rel.project(keep);
    let ctx = AnalysisCtx::of(&projected);
    let whole = mine_tane_ctx(
        &ctx,
        TaneOptions {
            max_lhs: Some(4),
            ..Default::default()
        },
    );
    let mean_lhs = |fds: &[dbmine::fdmine::Fd]| -> f64 {
        fds.iter().map(|f| f.lhs.len() as f64).sum::<f64>() / fds.len().max(1) as f64
    };
    // The unpartitioned relation supports no constant columns and only
    // complex (large-LHS) dependencies.
    assert!(
        whole.iter().all(|f| !f.lhs.is_empty()),
        "the mixed relation should have no constant columns"
    );
    let part = horizontal_partition_ctx(&ctx, LimboParams::with_phi(0.75), Some(2), 6);
    for (i, _) in part.partitions.iter().enumerate() {
        let p = part.partition_relation(&projected, i);
        let fds = mine_tane_ctx(
            &AnalysisCtx::of(&p),
            TaneOptions {
                max_lhs: Some(4),
                ..Default::default()
            },
        );
        // Table 5's essence: inside a homogeneous partition, the other
        // publication type's venue attributes are constant (∅ → A).
        assert!(
            fds.iter().any(|f| f.lhs.is_empty()),
            "partition {i} has no constant-column dependency"
        );
        // And the dependency structure is simpler overall: smaller LHSs.
        assert!(
            mean_lhs(&fds) < mean_lhs(&whole),
            "partition {i} mean LHS {} vs whole {}",
            mean_lhs(&fds),
            mean_lhs(&whole)
        );
    }
}

#[test]
fn conference_partition_has_constant_venue_attributes() {
    // Table 5's essence: inside the conference partition, the journal
    // attributes are all NULL, so `∅ → {Volume, Journal}` holds with
    // RAD = RTR = 1 on those columns.
    let rel = dblp();
    let keep: AttrSet = [
        "Author",
        "Pages",
        "BookTitle",
        "Year",
        "Volume",
        "Journal",
        "Number",
    ]
    .iter()
    .filter_map(|n| rel.attr_id(n))
    .collect();
    let projected = rel.project(keep);
    let part = horizontal_partition_ctx(
        &AnalysisCtx::of(&projected),
        LimboParams::with_phi(0.75),
        Some(2),
        6,
    );
    let bt = projected.attr_id("BookTitle").unwrap();
    // Pick the conference-dominant partition.
    let (ci, _) = part
        .partitions
        .iter()
        .enumerate()
        .max_by_key(|(_, p)| {
            p.iter().filter(|&&t| !projected.is_null(t, bt)).count() * 100 / p.len()
        })
        .unwrap();
    let c1 = part.partition_relation(&projected, ci);
    let journal = c1.attr_id("Journal").unwrap();
    assert!(
        c1.null_fraction(journal) > 0.95,
        "journal column should be (almost) all NULL in the conference partition: {}",
        c1.null_fraction(journal)
    );
}

#[test]
fn duplicate_records_exist_by_construction() {
    // The integration pipeline duplicates a quarter of the publications;
    // exact duplicate tuples must be discoverable at φT = 0.
    let rel = dblp();
    let report = dbmine::summaries::find_duplicate_tuples_ctx(
        &AnalysisCtx::of(&rel),
        LimboParams::with_phi(0.0),
    );
    assert!(
        !report.groups.is_empty(),
        "mapped DBLP relation must contain exact duplicate tuples"
    );
    let covered: usize = report.groups.iter().map(|g| g.summary_count).sum();
    assert!(covered as f64 > 0.1 * rel.n_tuples() as f64);
}
