//! Exact-value counter tests on tiny hand-checked inputs, plus a pin
//! that collecting telemetry does not change mining output.
//!
//! Counters are process-global, so this suite lives in its own
//! integration-test binary (its own process) and serializes its tests
//! on one mutex; deltas are taken while the lock is held. With the
//! `telemetry` feature compiled out every delta is 0 and the tests
//! assert exactly that, so the suite is meaningful in both CI legs.

use dbmine::context::AnalysisCtx;
use dbmine::fdmine::{mine_approximate_ctx, mine_tane_ctx, TaneOptions};
use dbmine::fdrank::redundant_cells_ctx;
use dbmine::ib::{aib, Dcf};
use dbmine::infotheory::SparseDist;
use dbmine::limbo::LimboParams;
use dbmine::relation::csv::{read_relation_path, write_relation_path};
use dbmine::relation::paper::figure4;
use dbmine::relation::{AttrSet, RelationBuilder, ShardedRelation, DEFAULT_CHUNK_TUPLES};
use dbmine::reliability::{mine_reliable_ctx, ReliableOptions};
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

/// A hand-checked relation where no FD holds and no proper subset of
/// {A,B,C} is a key.
fn three_attribute_relation() -> dbmine::relation::Relation {
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
    b.build()
}

#[test]
fn tane_lattice_sizes_on_a_three_attribute_relation() {
    // On the relation of `three_attribute_relation`:
    //   level 1 visits {A},{B},{C}          → 3 lattice nodes
    //   level 2 visits {AB},{AC},{BC}       → 3 nodes (3 products built)
    //   level 3 visits {ABC}                → 1 node  (1 product built)
    // {ABC} is a key, but C+({ABC}) ∖ {ABC} is empty, so nothing is
    // emitted and the next level is empty: 7 nodes, 4 products total.
    let rel = three_attribute_relation();
    let (fds, d) = with_deltas(|| mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default()));
    assert!(fds.is_empty(), "no FD holds in this relation: {fds:?}");
    assert_eq!(d.get(Counter::TaneLatticeNodes), expect(7));
    assert_eq!(d.get(Counter::PartitionProducts), expect(4));
}

#[test]
fn every_score_counts_its_lattice_nodes() {
    // The walk counts the sets it scores, whatever the test. On the same
    // relation, g3 at ε = 0 is exact TANE: no FD, 7 nodes, 4 products.
    // At ε = 0.5, level 1 emits ∅ → A, ∅ → B (g3 0.5) and ∅ → C (g3
    // 1/3). Those emissions cover every consequent of every set, so
    // each level-1 set's C⁺ is empty, none seeds the join, and the walk
    // stops: 3 nodes, 0 products, 3 g3 evals.
    let rel = three_attribute_relation();
    for (eps, fds, nodes, products, g3_evals) in [(0.0, 0, 7, 4, 0), (0.5, 3, 3, 0, 3)] {
        let (out, d) = with_deltas(|| mine_approximate_ctx(&AnalysisCtx::of(&rel), eps, None, 1));
        assert_eq!(out.len(), fds, "ε = {eps}");
        assert_eq!(d.get(Counter::TaneLatticeNodes), expect(nodes), "ε = {eps}");
        assert_eq!(
            d.get(Counter::PartitionProducts),
            expect(products),
            "ε = {eps}"
        );
        assert_eq!(d.get(Counter::G3Evals), expect(g3_evals), "ε = {eps}");
    }
}

#[test]
fn bounded_tane_builds_no_products_for_its_last_level() {
    // The same relation bounded at `max_lhs = k`: level k + 1 tests each
    // `X∖A → A` against π_A's class ids, so only levels 2..=k build
    // products. k = 1: level 2 is the last → 6 nodes, 0 products.
    // k = 2: level 2 is built (3 products), level 3 is the last → 7
    // nodes, 3 products. Both emit the unbounded FDs with |lhs| ≤ k.
    let rel = three_attribute_relation();
    // Counters are process-global: every run moves them, so this one
    // runs under the lock too.
    let (unbounded, _) =
        with_deltas(|| mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default()));
    for (k, nodes, products) in [(1, 6, 0), (2, 7, 3)] {
        let options = TaneOptions {
            max_lhs: Some(k),
            ..Default::default()
        };
        let (fds, d) = with_deltas(|| mine_tane_ctx(&AnalysisCtx::of(&rel), options));
        let filtered: Vec<_> = unbounded
            .iter()
            .copied()
            .filter(|f| f.lhs.len() <= k)
            .collect();
        assert_eq!(fds, filtered, "max_lhs = {k}");
        assert_eq!(
            d.get(Counter::TaneLatticeNodes),
            expect(nodes),
            "max_lhs = {k}"
        );
        assert_eq!(
            d.get(Counter::PartitionProducts),
            expect(products),
            "max_lhs = {k}"
        );
    }
}

#[test]
fn fdrank_counts_figure4_redundant_cells() {
    // Figure 4: under C → B, the three tuples sharing C = x all carry
    // B = 2; the first is the witness, the other two are redundant.
    let rel = figure4();
    let (cells, d) =
        with_deltas(|| redundant_cells_ctx(&AnalysisCtx::of(&rel), AttrSet::single(2), 1));
    assert_eq!(cells.len(), 2);
    assert_eq!(d.get(Counter::FdrankRedundantCells), expect(2));
}

#[test]
fn store_backed_redundant_cells_match_memory_without_materializing() {
    // Redundant cells come from partitions alone, so a `.dbss` context
    // at any chunk size returns the memory context's cells for every
    // dependency without decoding the relation into rows.
    let rel = figure4();
    let dir = std::env::temp_dir().join(format!("dbmine_redundant_{}", std::process::id()));
    let (materialized, _) = with_deltas(|| {
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join("fig4.csv");
        write_relation_path(&rel, &csv).unwrap();
        let mem = AnalysisCtx::from(read_relation_path(&csv).unwrap());
        let mut materialized = 0;
        for chunk in [1, 2, 1000] {
            let store = dir.join(format!("fig4_{chunk}.dbss"));
            let sharded = ShardedRelation::scan_csv_path_spill(&csv, chunk, &store).unwrap();
            let ctx = AnalysisCtx::from_chunks(sharded).unwrap();
            for bits in 0u64..1 << rel.n_attrs() {
                for rhs in 0..rel.n_attrs() {
                    let lhs = AttrSet::from_bits(bits);
                    assert_eq!(
                        redundant_cells_ctx(&ctx, lhs, rhs),
                        redundant_cells_ctx(&mem, lhs, rhs),
                        "{lhs:?} → {rhs}, chunk = {chunk}"
                    );
                }
            }
            materialized += ctx.view_stats().materializations;
        }
        materialized
    });
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(materialized, 0);
}

#[test]
fn profiles_are_read_off_built_views_without_a_chunk_pass() {
    // Once the value index and the π_A sweep exist, the profiles cost
    // one build for their vector and one per column for its projection
    // memo entry; they read the value index once and each π_A once (hits),
    // and decode no block of the store.
    let rel = figure4();
    let m = rel.n_attrs() as u64;
    let dir = std::env::temp_dir().join(format!("dbmine_profiles_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("fig4.csv");
    write_relation_path(&rel, &csv).unwrap();
    let sharded = ShardedRelation::scan_csv_path_spill(&csv, 2, dir.join("fig4.dbss")).unwrap();
    let ctx = AnalysisCtx::from_chunks(sharded).unwrap();
    ctx.value_index();
    ctx.attr_partitions();
    let before = ctx.view_stats();
    let (_, d) = with_deltas(|| ctx.column_profiles().to_vec());
    std::fs::remove_dir_all(&dir).ok();
    let after = ctx.view_stats();
    assert_eq!(after.builds - before.builds, 1 + m, "{after:?}");
    assert_eq!(after.hits - before.hits, 1 + m, "{after:?}");
    assert_eq!(d.get(Counter::SpillChunksRead), 0);
}

#[test]
fn store_backed_analyze_makes_five_chunk_passes() {
    // The DB2 sample spilled at the default chunk size is one block, so
    // each pass over the store reads one chunk. `analyze` makes five:
    // I(T;V) and tuple LIMBO's Phase 1 (duplicate tuples), the value
    // index (value clustering), and the π_A sweep's counting and placing
    // passes (TANE). The column profiles are read off the last two and
    // the projection statistics off π_A, so neither decodes a block.
    let csv = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/db2_sample.csv");
    let dir = std::env::temp_dir().join(format!("dbmine_passes_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("db2.dbss");
    let sharded = ShardedRelation::scan_csv_path_spill(csv, DEFAULT_CHUNK_TUPLES, &store).unwrap();
    let ctx = AnalysisCtx::from_chunks(sharded).unwrap();
    let (_, d) = with_deltas(|| dbmine::StructureMiner::default().analyze_ctx(&ctx));
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(d.get(Counter::SpillChunksRead), expect(5));
}

#[test]
fn reliable_mining_computes_g3_only_for_emitted_dependencies() {
    // On the committed DB2 sample at θ = 0.2, `rfi_evals` counts every
    // candidate the walk scores (one plugin each), unbounded and at
    // `max_lhs = 2`, whose last two levels no survivor filter reads:
    // there only level 1 is filtered, so the branch-and-bound counters
    // read level 1's bounds and no prune. `g3` is computed only for the
    // dependencies the miner emits: the counts `fds --score rfi` prints.
    // An `m₀` sum stops early only where no filter reads the bias, so
    // the unbounded walk cuts none and the bounded one cuts many.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/db2_sample.csv");
    let ctx = AnalysisCtx::from(read_relation_path(path).expect("committed sample"));
    for (max_lhs, rfi_evals, emitted, bounds, prunes, cutoffs) in [
        (None, 24_339, 244, 31_842, 454, 0),
        (Some(2), 999, 243, 19, 0, 429),
    ] {
        let (out, d) = with_deltas(|| {
            mine_reliable_ctx(
                &ctx,
                ReliableOptions {
                    theta: 0.2,
                    max_lhs,
                    ..Default::default()
                },
            )
        });
        assert_eq!(out.len(), emitted, "max_lhs = {max_lhs:?}");
        assert_eq!(d.get(Counter::G3Evals), expect(emitted as u64));
        assert_eq!(d.get(Counter::RfiEvals), expect(rfi_evals));
        assert_eq!(
            d.get(Counter::BnbBounds),
            expect(bounds),
            "max_lhs = {max_lhs:?}"
        );
        assert_eq!(
            d.get(Counter::BnbPrunes),
            expect(prunes),
            "max_lhs = {max_lhs:?}"
        );
        assert_eq!(
            d.get(Counter::M0Cutoffs),
            expect(cutoffs),
            "max_lhs = {max_lhs:?}"
        );
    }
}

#[test]
fn double_clustering_builds_the_value_index_exactly_once() {
    // Regression: the Double Clustering path used to rebuild the
    // ValueIndex once per stage. Through one context the whole run
    // materializes exactly two views — I(T;V) for the tuple pass (the
    // tuple DCFs fold from the chunk pass and cache nothing), the
    // ValueIndex for the value pass; re-expressing values over the tuple
    // clusters reuses the cached index.
    let rel = figure4();
    let ctx = AnalysisCtx::of(&rel);
    let (_, d) = with_deltas(|| {
        let (assignment, _) = tuple_summary_assignment_ctx(&ctx, LimboParams::with_phi(0.5));
        cluster_values_ctx(&ctx, LimboParams::with_phi(0.5), Some(&assignment))
    });
    assert_eq!(ctx.view_stats().builds, 2, "{:?}", ctx.view_stats());
    assert_eq!(d.get(Counter::ViewBuilds), expect(2));

    // A second full pass over the same context builds nothing new. It
    // holds the lock too: its counter events must not land in another
    // test's window.
    let before = ctx.view_stats();
    with_deltas(|| {
        let (assignment, _) = tuple_summary_assignment_ctx(&ctx, LimboParams::with_phi(0.5));
        cluster_values_ctx(&ctx, LimboParams::with_phi(0.5), Some(&assignment))
    });
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

    // Exact ledger of one analyze run over a fresh context, in order:
    //   1     I(T;V)                      (duplicate-tuple discovery)
    //   2     ValueIndex + I(V;T)         (value clustering)
    //   m     single-attribute partitions (TANE seed)
    //   1     column-profile vector       (read off the views above)
    //   m     single-attribute projection-memo entries (profiling)
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
    let expected = 1 + m + 1 + 2 + m + multi_sets.len() as u64;
    let s = ctx.view_stats();
    assert_eq!(s.builds, expected, "{s:?}");
    assert!(s.hits > 0, "{s:?}");
    assert_eq!(d.get(Counter::ViewBuilds), expect(expected));
    if telemetry::compiled() {
        assert!(d.get(Counter::ViewCacheHits) > 0);
    }

    // Re-analyzing over the same context materializes nothing and
    // reproduces the report bit-for-bit (under the lock, like every
    // run that moves counters).
    let (again, _) = with_deltas(|| miner.analyze_ctx(&ctx));
    assert_eq!(ctx.view_stats().builds, expected);
    let text = |r: &dbmine::StructureReport| r.render_with(rel.attr_names(), rel.dict());
    assert_eq!(text(&report), text(&again));
}

#[test]
fn sharded_phase1_counts_ingests_and_merges_exactly() {
    let rel = figure4();
    let ctx = AnalysisCtx::of(&rel);

    // Through the user-facing path: figure 4's five tuples fit one auto
    // chunk, so a duplicates run ingests exactly one shard and the merge
    // stage never runs (single-chunk ≡ classic build).
    let (_, d) = with_deltas(|| find_duplicate_tuples_ctx(&ctx, LimboParams::with_phi(0.0)));
    assert_eq!(d.get(Counter::ShardIngests), expect(1));
    assert_eq!(d.get(Counter::TreeMerges), 0);

    // An explicit 3-chunk plan (5 objects, chunks of 2) ingests three
    // shards, and the merge stage re-inserts all three shard trees.
    let ((objects, mi), _) = with_deltas(|| {
        (
            dbmine::limbo::tuple_dcfs_ctx(&ctx, 1),
            ctx.tuple_mutual_information(),
        )
    });
    let plan = dbmine::limbo::ShardPlan::with_chunk_size(objects.len(), 2);
    let (_, d) = with_deltas(|| {
        dbmine::limbo::phase1_sharded(&objects, mi, LimboParams::with_phi(0.0), &plan)
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
    let analyze = || {
        miner
            .analyze_ctx(&AnalysisCtx::of(&rel))
            .render_with(rel.attr_names(), rel.dict())
    };
    let quiet = analyze();
    telemetry::begin();
    let collected = analyze();
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
