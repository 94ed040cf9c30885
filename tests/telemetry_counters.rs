//! Exact-value counter tests on tiny hand-checked inputs, plus a pin
//! that collecting telemetry does not change mining output.
//!
//! Counters are process-global, so this suite lives in its own
//! integration-test binary (its own process) and serializes its tests
//! on one mutex; deltas are taken while the lock is held. With the
//! `telemetry` feature compiled out every delta is 0 and the tests
//! assert exactly that, so the suite is meaningful in both CI legs.

use dbmine::context::AnalysisCtx;
use dbmine::fdmine::{mine_tane_ctx, TaneOptions};
use dbmine::ib::{aib, Dcf};
use dbmine::infotheory::SparseDist;
use dbmine::limbo::LimboParams;
use dbmine::relation::paper::figure4;
use dbmine::relation::{AttrSet, RelationBuilder};
use dbmine::summaries::{
    cluster_values_ctx, find_duplicate_tuples_ctx, tuple_summary_assignment_ctx,
};
use dbmine::telemetry::{self, Counter, CounterSnapshot};
use std::sync::Mutex;

static GUARD: Mutex<()> = Mutex::new(());

fn with_deltas<R>(f: impl FnOnce() -> R) -> (R, CounterSnapshot) {
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let before = telemetry::snapshot();
    let r = f();
    let d = telemetry::snapshot().delta(&before);
    (r, d)
}

/// Expected value when telemetry is compiled in; 0 when it is not.
fn expect(n: u64) -> u64 {
    if telemetry::compiled() {
        n
    } else {
        0
    }
}

fn singleton(support: &[(u32, f64)], weight: f64) -> Dcf {
    let mut d = SparseDist::from_pairs(support.to_vec());
    d.normalize();
    Dcf::singleton(weight, d)
}

#[test]
fn aib_on_four_values_performs_exactly_three_merges() {
    // Agglomerating 4 objects down to k = 1 is exactly 3 pair merges,
    // each one `Dcf::merge_in_place` call; every heap pop that commits a
    // merge is one nearest-neighbor-cache hit.
    let inputs = vec![
        singleton(&[(0, 1.0)], 0.25),
        singleton(&[(1, 1.0)], 0.25),
        singleton(&[(0, 0.5), (2, 0.5)], 0.25),
        singleton(&[(3, 1.0)], 0.25),
    ];
    let (result, d) = with_deltas(|| aib(inputs, 1));
    assert_eq!(result.clusters.len(), 1);
    assert_eq!(result.dendrogram.merges().len(), 3);
    assert_eq!(d.get(Counter::DcfMerges), expect(3));
    assert_eq!(d.get(Counter::NnCacheHits), expect(3));
}

#[test]
fn tane_lattice_sizes_on_a_three_attribute_relation() {
    // Hand-checked relation where no FD holds and no proper subset of
    // {A,B,C} is a key:
    //   level 1 visits {A},{B},{C}          → 3 lattice nodes
    //   level 2 visits {AB},{AC},{BC}       → 3 nodes (3 products built)
    //   level 3 visits {ABC}                → 1 node  (1 product built)
    // {ABC} is a key, but C+({ABC}) ∖ {ABC} is empty, so nothing is
    // emitted and the next level is empty: 7 nodes, 4 products total.
    let mut b = RelationBuilder::new("t3", &["A", "B", "C"]);
    for row in [
        ["a", "x", "p"],
        ["a", "x", "q"],
        ["b", "x", "p"],
        ["b", "y", "q"],
        ["a", "y", "p"],
        ["b", "y", "p"],
    ] {
        b.push_row_strs(&row);
    }
    let rel = b.build();
    let (fds, d) = with_deltas(|| mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default()));
    assert!(fds.is_empty(), "no FD holds in this relation: {fds:?}");
    assert_eq!(d.get(Counter::TaneLatticeNodes), expect(7));
    assert_eq!(d.get(Counter::PartitionProducts), expect(4));
    // The key-pruning minimality check never ran (no emissions).
    assert_eq!(d.get(Counter::TanePruneCacheHits), 0);
    assert_eq!(d.get(Counter::TanePruneCacheMisses), 0);
}

#[test]
fn fdrank_counts_figure4_redundant_cells() {
    // Figure 4: under C → B, the three tuples sharing C = x all carry
    // B = 2; the first is the witness, the other two are redundant.
    let rel = figure4();
    let (cells, d) = with_deltas(|| {
        dbmine::fdrank::redundant_cells_ctx(&AnalysisCtx::of(&rel), AttrSet::single(2), 1)
    });
    assert_eq!(cells.len(), 2);
    assert_eq!(d.get(Counter::FdrankRedundantCells), expect(2));
}

#[test]
fn double_clustering_builds_the_value_index_exactly_once() {
    // Regression: the Double Clustering path used to rebuild the
    // ValueIndex once per stage. Through one context the whole run
    // materializes exactly three views — TupleRows and I(T;V) for the
    // tuple pass, the ValueIndex for the value pass; re-expressing
    // values over the tuple clusters reuses the cached index.
    let rel = figure4();
    let ctx = AnalysisCtx::of(&rel);
    let (_, d) = with_deltas(|| {
        let (assignment, _) = tuple_summary_assignment_ctx(&ctx, LimboParams::with_phi(0.5));
        cluster_values_ctx(&ctx, LimboParams::with_phi(0.5), Some(&assignment))
    });
    assert_eq!(ctx.view_stats().builds, 3, "{:?}", ctx.view_stats());
    assert_eq!(d.get(Counter::ViewBuilds), expect(3));

    // A second full pass over the same context builds nothing new.
    let before = ctx.view_stats();
    let (assignment, _) = tuple_summary_assignment_ctx(&ctx, LimboParams::with_phi(0.5));
    let _ = cluster_values_ctx(&ctx, LimboParams::with_phi(0.5), Some(&assignment));
    let after = ctx.view_stats();
    assert_eq!(after.builds, before.builds);
    assert!(after.hits > before.hits);
}

#[test]
fn analyze_builds_each_shared_view_exactly_once() {
    use dbmine::StructureMiner;
    let rel = figure4();
    let ctx = AnalysisCtx::of(&rel);
    let miner = StructureMiner::default();
    let (report, d) = with_deltas(|| miner.analyze_ctx(&ctx));

    // Exact ledger of one analyze run over a fresh context:
    //   1     column-profile vector
    //   m     single-attribute projection-memo entries (profiling)
    //   2     TupleRows + I(T;V)          (duplicate-tuple discovery)
    //   2     ValueIndex + I(V;T)         (value clustering)
    //   m     single-attribute partitions (TANE seed)
    //   k     distinct multi-attribute projections (RAD/RTR of the
    //         ranked cover; single-attribute sets hit the memo, and
    //         RTR always hits the set RAD just created)
    let m = rel.n_attrs() as u64;
    let multi_sets: std::collections::HashSet<u64> = report
        .ranked
        .iter()
        .map(|r| r.fd.attrs())
        .filter(|s| s.len() >= 2)
        .map(|s| s.bits())
        .collect();
    let expected = 1 + m + 2 + 2 + m + multi_sets.len() as u64;
    let s = ctx.view_stats();
    assert_eq!(s.builds, expected, "{s:?}");
    assert!(s.hits > 0, "{s:?}");
    assert_eq!(d.get(Counter::ViewBuilds), expect(expected));
    if telemetry::compiled() {
        assert!(d.get(Counter::ViewCacheHits) > 0);
    }

    // Re-analyzing over the same context materializes nothing and
    // reproduces the report bit-for-bit.
    let again = miner.analyze_ctx(&ctx);
    assert_eq!(ctx.view_stats().builds, expected);
    assert_eq!(report.render(&rel), again.render(&rel));
}

#[test]
fn sharded_phase1_counts_ingests_and_merges_exactly() {
    let rel = figure4();
    let ctx = AnalysisCtx::of(&rel);

    // Through the user-facing path: figure 4's five tuples fit one auto
    // chunk, so a sharded duplicates run ingests exactly one shard and
    // the merge stage never runs (single-chunk ≡ classic build).
    let (_, d) =
        with_deltas(|| find_duplicate_tuples_ctx(&ctx, LimboParams::with_phi(0.0).shards(Some(4))));
    assert_eq!(d.get(Counter::ShardIngests), expect(1));
    assert_eq!(d.get(Counter::TreeMerges), 0);

    // An explicit 3-chunk plan (5 objects, chunks of 2) ingests three
    // shards, and the merge stage re-inserts all three shard trees.
    let objects = dbmine::limbo::tuple_dcfs_ctx(&ctx, 1);
    let mi = ctx.tuple_mutual_information();
    let plan = dbmine::limbo::ShardPlan::with_chunk_size(objects.len(), 2);
    let (_, d) = with_deltas(|| {
        dbmine::limbo::phase1_sharded(&objects, mi, LimboParams::with_phi(0.0), &plan, 1)
    });
    assert_eq!(d.get(Counter::ShardIngests), expect(3));
    assert_eq!(d.get(Counter::TreeMerges), expect(3));
}

#[test]
fn collecting_spans_does_not_change_mining_output() {
    use dbmine::{MinerConfig, StructureMiner};
    let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let rel = figure4();
    let miner = StructureMiner::new(MinerConfig::default());
    let quiet = miner.analyze_ctx(&AnalysisCtx::of(&rel)).render(&rel);
    telemetry::begin();
    let collected = miner.analyze_ctx(&AnalysisCtx::of(&rel)).render(&rel);
    let report = telemetry::finish();
    assert_eq!(quiet, collected, "span collection must not alter results");
    if telemetry::compiled() {
        let analyze = report.find("miner.analyze").expect("pipeline span");
        assert!(analyze.find("summaries.duplicate_tuples").is_some());
        assert!(analyze.find("limbo.phase1").is_some());
        assert!(report.counters.get(Counter::JsEvals) > 0);
    } else {
        assert!(report.roots.is_empty());
    }
}
