//! FD-discovery bench runner: times the `fdmine_scaling` workloads and
//! writes their medians and quartiles to `results/BENCH_fdmine.json`,
//! the machine-read bench trajectory for this subsystem (see
//! EXPERIMENTS.md). A `paired` row times two sides alternately inside
//! one sampling loop, so the machine's drift cannot pass for a
//! difference between them.
//!
//! ```text
//! cargo run --release -p dbmine-bench --bin bench_fdmine [--quick] [--out PATH]
//! ```
//!
//! `--quick` shrinks the workloads and sample counts to a smoke run
//! (used to keep the runner itself from rotting); the default
//! configuration mirrors the criterion bench.

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{synthetic, PlantedFd, SyntheticSpec};
use dbmine::fdmine::{
    mine_approximate_ctx, mine_tane_ctx, PartitionScratch, StrippedPartition, TaneOptions,
};
use dbmine::relation::{csv::write_relation_path, Relation, ShardedRelation};
use dbmine::reliability::{mine_reliable_ctx, ReliableOptions};
use dbmine::telemetry;
use std::fmt::Write as _;
use std::time::Instant;

// The shared counting allocator from `telemetry::alloc` (events + peak
// live bytes); the `allocations` section below is measured through it.
#[global_allocator]
static ALLOCATOR: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc;

struct AllocCount {
    id: String,
    allocs: u64,
    peak_bytes: u64,
}

/// Runs `f` once, recording allocation events and peak live bytes via
/// the shared `telemetry::alloc` tracker.
fn count<R>(out: &mut Vec<AllocCount>, id: &str, f: impl FnOnce() -> R) -> R {
    let (r, stats) = telemetry::alloc::measure(f);
    let c = AllocCount {
        id: id.to_string(),
        allocs: stats.events,
        peak_bytes: stats.peak_bytes,
    };
    println!(
        "{:<44} allocs {:>10}  peak {:>12} B",
        c.id, c.allocs, c.peak_bytes
    );
    out.push(c);
    r
}

struct Measurement {
    id: String,
    samples: usize,
    median_ms: f64,
    /// The quartiles around the median: the row's own spread.
    p25_ms: f64,
    p75_ms: f64,
    min_ms: f64,
}

impl Measurement {
    /// The summary of `times` (per-run wall clock, ms). Quantiles
    /// interpolate linearly: an even count's median is a mean.
    fn of(id: &str, mut times: Vec<f64>) -> Measurement {
        times.sort_by(f64::total_cmp);
        let at = |q: f64| {
            let pos = (times.len() - 1) as f64 * q;
            let (lo, hi) = (times[pos.floor() as usize], times[pos.ceil() as usize]);
            lo + (hi - lo) * pos.fract()
        };
        let m = Measurement {
            id: id.to_string(),
            samples: times.len(),
            median_ms: at(0.5),
            p25_ms: at(0.25),
            p75_ms: at(0.75),
            min_ms: times[0],
        };
        println!(
            "{:<44} median {:>10.3} ms  p25–p75 {:>10.3}–{:<10.3} min {:>10.3} ms",
            m.id, m.median_ms, m.p25_ms, m.p75_ms, m.min_ms
        );
        m
    }
}

/// One pruned-vs-unpruned comparison of the reliable miner: identical
/// output (asserted), differing lattice traversal (recorded).
struct ReliableStats {
    id: String,
    fds: usize,
    nodes_pruned: u64,
    nodes_unpruned: u64,
    rfi_evals_pruned: u64,
    rfi_evals_unpruned: u64,
    bnb_bounds: u64,
    bnb_prunes: u64,
}

/// One run of `f`'s wall clock, in ms.
fn time_ms<R>(f: &mut impl FnMut() -> R) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

/// Times `f` over `samples` runs (plus one untimed warmup) and records
/// the median, quartiles and minimum per-run wall clock.
fn measure<R>(out: &mut Vec<Measurement>, id: &str, samples: usize, mut f: impl FnMut() -> R) {
    std::hint::black_box(f());
    let times = (0..samples).map(|_| time_ms(&mut f)).collect();
    out.push(Measurement::of(id, times));
}

/// One side of a paired comparison: its timing, and the lattice one
/// run walks.
struct PairSide {
    time: Measurement,
    tane_lattice_nodes: u64,
    partition_products: u64,
}

/// Times two ways of computing the same thing alternately — one run of
/// each per sample, after one warmup of each — so drift on the machine
/// hits both sides alike, and counts each side's lattice nodes and
/// partition products over one more run. The sides are recorded as
/// `{id}/{name}`.
fn paired<R>(
    pairs: &mut Vec<[PairSide; 2]>,
    samples: usize,
    id: &str,
    mut sides: [(&str, &mut dyn FnMut() -> R); 2],
) {
    for (_, f) in sides.iter_mut() {
        std::hint::black_box(f());
    }
    let mut times = [Vec::new(), Vec::new()];
    for _ in 0..samples {
        for (t, (_, f)) in times.iter_mut().zip(sides.iter_mut()) {
            t.push(time_ms(f));
        }
    }
    let [a, b] = sides;
    let [ta, tb] = times;
    pairs.push([pair_side(id, a, ta), pair_side(id, b, tb)]);
}

fn pair_side<R>(id: &str, (name, f): (&str, &mut dyn FnMut() -> R), times: Vec<f64>) -> PairSide {
    let before = telemetry::snapshot();
    std::hint::black_box(f());
    let d = telemetry::snapshot().delta(&before);
    let side = PairSide {
        time: Measurement::of(&format!("{id}/{name}"), times),
        tane_lattice_nodes: d.get(telemetry::Counter::TaneLatticeNodes),
        partition_products: d.get(telemetry::Counter::PartitionProducts),
    };
    println!(
        "{:<44} nodes {:>8}  partition products {:>8}",
        side.time.id, side.tane_lattice_nodes, side.partition_products
    );
    side
}

/// Times reliable (F̂ ≥ θ) mining with branch-and-bound on and off,
/// asserts the two configurations return bit-identical dependencies,
/// and records the lattice-node / F̂-eval / bound counter deltas that
/// quantify what the bound saves (EXPERIMENTS.md quotes these).
fn reliable_compare(
    results: &mut Vec<Measurement>,
    stats: &mut Vec<ReliableStats>,
    samples: usize,
    rel: &Relation,
    id: &str,
    opts: ReliableOptions,
) {
    measure(results, id, samples, || {
        mine_reliable_ctx(&AnalysisCtx::of(rel), opts)
    });
    measure(
        results,
        &id.replacen("reliable_", "reliable_unpruned_", 1),
        samples,
        || {
            mine_reliable_ctx(
                &AnalysisCtx::of(rel),
                ReliableOptions {
                    prune: false,
                    ..opts
                },
            )
        },
    );
    let before = telemetry::snapshot();
    let pruned = mine_reliable_ctx(&AnalysisCtx::of(rel), opts);
    let mid = telemetry::snapshot();
    let unpruned = mine_reliable_ctx(
        &AnalysisCtx::of(rel),
        ReliableOptions {
            prune: false,
            ..opts
        },
    );
    let after = telemetry::snapshot();
    assert_eq!(pruned.len(), unpruned.len(), "pruning changed the FD set");
    for (a, b) in pruned.iter().zip(&unpruned) {
        assert_eq!(a.fd, b.fd, "pruning changed a dependency");
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "pruning changed a score"
        );
    }
    let dp = mid.delta(&before);
    let du = after.delta(&mid);
    let s = ReliableStats {
        id: id.to_string(),
        fds: pruned.len(),
        nodes_pruned: dp.get(telemetry::Counter::TaneLatticeNodes),
        nodes_unpruned: du.get(telemetry::Counter::TaneLatticeNodes),
        rfi_evals_pruned: dp.get(telemetry::Counter::RfiEvals),
        rfi_evals_unpruned: du.get(telemetry::Counter::RfiEvals),
        bnb_bounds: dp.get(telemetry::Counter::BnbBounds),
        bnb_prunes: dp.get(telemetry::Counter::BnbPrunes),
    };
    println!(
        "{:<44} fds {:>3}  nodes {:>6} pruned / {:>6} unpruned  F̂ evals {:>6} / {:>6}",
        s.id, s.fds, s.nodes_pruned, s.nodes_unpruned, s.rfi_evals_pruned, s.rfi_evals_unpruned
    );
    stats.push(s);
}

/// One bounded lattice walk: its median time and the partition
/// products one run builds (its last level builds none).
struct WalkStats {
    id: String,
    median_ms: f64,
    partition_products: u64,
}

/// Times bounded TANE on `rel` and counts one run's partition products.
fn bounded_tane(
    results: &mut Vec<Measurement>,
    walks: &mut Vec<WalkStats>,
    samples: usize,
    rel: &Relation,
    id: &str,
    max_lhs: usize,
) {
    let options = TaneOptions {
        max_lhs: Some(max_lhs),
        threads: 1,
    };
    measure(results, id, samples, || {
        mine_tane_ctx(&AnalysisCtx::of(rel), options)
    });
    let median_ms = results.last().expect("just pushed").median_ms;
    let before = telemetry::snapshot();
    std::hint::black_box(mine_tane_ctx(&AnalysisCtx::of(rel), options));
    let partition_products = telemetry::snapshot()
        .delta(&before)
        .get(telemetry::Counter::PartitionProducts);
    println!("{id:<44} partition products {partition_products:>8}");
    walks.push(WalkStats {
        id: id.to_string(),
        median_ms,
        partition_products,
    });
}

/// One store-vs-materialized mining comparison: the same miner driven
/// from a chunk-backed `AnalysisCtx` over a shard store (bounded
/// memory; the materialization ledger is asserted to stay at zero) and
/// from the fully materialized relation.
struct StoreVsMem {
    id: String,
    n_tuples: usize,
    store_median_ms: f64,
    mem_median_ms: f64,
    store_peak_bytes: u64,
    mem_peak_bytes: u64,
}

/// Runs one miner from `store_path` through both context sources,
/// asserts the dependency lists are identical, and records wall time
/// and peak live bytes for each path. The store closure re-opens the
/// store per run so footer decoding is inside the measured window for
/// both sides (the materialized path pays the same open plus the full
/// n·m decode).
#[allow(clippy::too_many_arguments)]
fn store_vs_mem_compare<T: PartialEq + std::fmt::Debug>(
    results: &mut Vec<Measurement>,
    allocs: &mut Vec<AllocCount>,
    rows: &mut Vec<StoreVsMem>,
    samples: usize,
    store_path: &std::path::Path,
    n: usize,
    id: &str,
    mine: impl Fn(&AnalysisCtx) -> Vec<T>,
) {
    let mine = &mine;
    let store_run = || {
        let store = ShardedRelation::open_store(store_path).expect("open shard store");
        let ctx = AnalysisCtx::from_chunks(store).expect("chunk-backed context");
        let fds = mine(&ctx);
        assert_eq!(
            ctx.view_stats().materializations,
            0,
            "store-backed mining materialized the relation"
        );
        fds
    };
    let mem_run = || {
        let store = ShardedRelation::open_store(store_path).expect("open shard store");
        let rel = store.materialize().expect("materialize relation");
        let ctx = AnalysisCtx::from(rel);
        mine(&ctx)
    };
    assert_eq!(
        store_run(),
        mem_run(),
        "store-backed and materialized mining disagree"
    );
    measure(results, &format!("{id}_store"), samples, store_run);
    let store_median_ms = results.last().expect("just pushed").median_ms;
    measure(results, &format!("{id}_mem"), samples, mem_run);
    let mem_median_ms = results.last().expect("just pushed").median_ms;
    count(allocs, &format!("{id}_store"), store_run);
    let store_peak_bytes = allocs.last().expect("just pushed").peak_bytes;
    count(allocs, &format!("{id}_mem"), mem_run);
    let mem_peak_bytes = allocs.last().expect("just pushed").peak_bytes;
    rows.push(StoreVsMem {
        id: id.to_string(),
        n_tuples: n,
        store_median_ms,
        mem_median_ms,
        store_peak_bytes,
        mem_peak_bytes,
    });
}

fn scaling_relation(n: usize) -> Relation {
    synthetic(&SyntheticSpec {
        n_tuples: n,
        n_attrs: 8,
        domain: 24,
        skew: 0.8,
        fds: vec![PlantedFd {
            determinant: 0,
            dependents: vec![1, 2],
        }],
        noise: 0.0,
        seed: 42,
    })
}

fn main() {
    telemetry::alloc::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("results/BENCH_fdmine.json")
        .to_string();

    let (sizes, samples): (&[usize], usize) = if quick {
        (&[2_000], 2)
    } else {
        (&[10_000, 50_000], 7)
    };

    let mut results: Vec<Measurement> = Vec::new();
    let mut allocs: Vec<AllocCount> = Vec::new();
    let mut reliable_stats: Vec<ReliableStats> = Vec::new();
    let mut walks: Vec<WalkStats> = Vec::new();
    for &n in sizes {
        let rel = scaling_relation(n);
        measure(&mut results, &format!("tane/synth8/{n}"), samples, || {
            mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default())
        });
        count(&mut allocs, &format!("tane/synth8/{n}"), || {
            mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default())
        });
        for threads in [2usize, 4] {
            measure(
                &mut results,
                &format!("tane_threads{threads}/synth8/{n}"),
                samples,
                || {
                    mine_tane_ctx(
                        &AnalysisCtx::of(&rel),
                        TaneOptions {
                            threads,
                            ..Default::default()
                        },
                    )
                },
            );
        }

        // Reliable (F̂ ≥ θ) mining over the low-cardinality synthetic:
        // fixed domain-24 attributes make the permutation bias vanish
        // as n grows, so this column records the regime where the
        // branch-and-bound bound has little to cut (the DBLP workload
        // below is the one where it bites).
        reliable_compare(
            &mut results,
            &mut reliable_stats,
            samples,
            &rel,
            &format!("reliable_theta0.6/synth8/{n}"),
            ReliableOptions {
                theta: 0.6,
                max_lhs: Some(3),
                threads: 1,
                prune: true,
            },
        );

        let p0 = StrippedPartition::of_attr(&rel, 0);
        let p3 = StrippedPartition::of_attr(&rel, 3);
        let mut scratch = PartitionScratch::new();
        measure(
            &mut results,
            &format!("product_scratch/synth8/{n}"),
            samples * 50,
            || p0.product_with(&p3, &mut scratch),
        );
        measure(
            &mut results,
            &format!("product_reference/synth8/{n}"),
            samples * 50,
            || p0.product_reference(&p3),
        );
        let p03 = p0.product(&p3);
        measure(
            &mut results,
            &format!("g3_error/synth8/{n}"),
            samples * 50,
            || p0.g3_error_with(&p03, &mut scratch),
        );
    }

    let noisy = synthetic(&SyntheticSpec {
        n_tuples: if quick { 2_000 } else { 10_000 },
        n_attrs: 6,
        domain: 24,
        skew: 0.8,
        fds: vec![PlantedFd {
            determinant: 0,
            dependents: vec![1, 2],
        }],
        noise: 0.02,
        seed: 42,
    });
    measure(
        &mut results,
        &format!("approx_g3_0.05/synth6_{}", noisy.n_tuples()),
        samples,
        || mine_approximate_ctx(&AnalysisCtx::of(&noisy), 0.05, Some(2), 1),
    );

    // DBLP-style relation: key-like attributes (Title, Pages, unbucketed
    // ISBNs) carry permutation bias ≈ 1 at any scale, so their bounds
    // fall below θ and the branch-and-bound rule cuts real lattice
    // nodes here — this row is the pruning-effectiveness record.
    let dblp = dbmine::datagen::dblp_sample(&if quick {
        dbmine::datagen::DblpSpec::small()
    } else {
        dbmine::datagen::DblpSpec::scaled(10_000, 2004)
    });
    reliable_compare(
        &mut results,
        &mut reliable_stats,
        samples,
        &dblp,
        &format!("reliable_theta0.6/dblp/{}", dblp.n_tuples()),
        ReliableOptions {
            theta: 0.6,
            max_lhs: Some(2),
            threads: 1,
            prune: true,
        },
    );

    // Bounded TANE over DBLP, the `fds --max-lhs 3` walk: the lattice
    // walk's kernel (the partition product) dominates it, and its last
    // level builds no products.
    let dblp_walk = dbmine::datagen::dblp_sample(&dbmine::datagen::DblpSpec::scaled(
        if quick { 2_000 } else { 20_000 },
        2004,
    ));
    bounded_tane(
        &mut results,
        &mut walks,
        samples,
        &dblp_walk,
        &format!("tane_lhs3/dblp/{}", dblp_walk.n_tuples()),
        3,
    );

    // Exact TANE against the g3 walk at ε = 0, which is the same walk:
    // unbounded, on the same DBLP relation, sides alternating.
    let mut pairs: Vec<[PairSide; 2]> = Vec::new();
    paired(
        &mut pairs,
        samples,
        &format!("exact_vs_g3_0/dblp/{}", dblp_walk.n_tuples()),
        [
            ("exact", &mut || {
                mine_tane_ctx(&AnalysisCtx::of(&dblp_walk), TaneOptions::default()).len()
            }),
            ("g3_0", &mut || {
                mine_approximate_ctx(&AnalysisCtx::of(&dblp_walk), 0.0, None, 1).len()
            }),
        ],
    );

    // Unbounded walks (`max_lhs: None`), full run only so the quick
    // counter ledger does not move. On db2 at θ 0.6 the unpruned walk
    // visits all 2¹⁹ − 1 attribute sets and pruning pays several times
    // over; on DBLP 1k at θ 0.2 the bounds cost more than they save.
    if !quick {
        let db2 = dbmine::datagen::db2_sample(&Default::default()).relation;
        let dblp1k = dbmine::datagen::dblp_sample(&dbmine::datagen::DblpSpec::scaled(1_000, 2004));
        for (name, rel) in [("db2", &db2), ("dblp", &dblp1k)] {
            for theta in [0.2, 0.6] {
                reliable_compare(
                    &mut results,
                    &mut reliable_stats,
                    samples,
                    rel,
                    &format!("reliable_theta{theta}_unbounded/{name}/{}", rel.n_tuples()),
                    ReliableOptions {
                        theta,
                        max_lhs: None,
                        threads: 1,
                        prune: true,
                    },
                );
            }
        }
    }

    // Store-vs-materialized mining: one shard store spilled once, then
    // mined through a chunk-backed context (zero materializations,
    // ledger-asserted) and through the fully materialized relation.
    // The peak-bytes gap is the n·m column block the chunk-backed path
    // never holds; identity of the FD lists is asserted inside.
    let svm_n = if quick { 20_000 } else { 1_000_000 };
    let svm_samples = if quick { samples } else { 2 };
    let mut store_rows: Vec<StoreVsMem> = Vec::new();
    {
        let dir = std::env::temp_dir().join("dbmine_bench_store");
        std::fs::create_dir_all(&dir).expect("create bench temp dir");
        let pid = std::process::id();
        let csv_path = dir.join(format!("synth8_{svm_n}_{pid}.csv"));
        let store_path = dir.join(format!("synth8_{svm_n}_{pid}.dbss"));
        write_relation_path(&scaling_relation(svm_n), &csv_path).expect("write bench csv");
        ShardedRelation::scan_csv_path_spill(&csv_path, 65_536, &store_path)
            .expect("spill shard store");
        let _ = std::fs::remove_file(&csv_path);
        store_vs_mem_compare(
            &mut results,
            &mut allocs,
            &mut store_rows,
            svm_samples,
            &store_path,
            svm_n,
            &format!("tane/synth8/{svm_n}"),
            |ctx| mine_tane_ctx(ctx, TaneOptions::default()),
        );
        store_vs_mem_compare(
            &mut results,
            &mut allocs,
            &mut store_rows,
            svm_samples,
            &store_path,
            svm_n,
            &format!("reliable_theta0.6_lhs2/synth8/{svm_n}"),
            |ctx| {
                mine_reliable_ctx(
                    ctx,
                    ReliableOptions {
                        theta: 0.6,
                        max_lhs: Some(2),
                        threads: 1,
                        prune: true,
                    },
                )
            },
        );
        let _ = std::fs::remove_file(&store_path);
    }

    // One profiled representative run: the timed samples above ran with
    // span collection off, so only this window pays for span recording.
    let report = {
        let rel = scaling_relation(*sizes.last().expect("sizes non-empty"));
        telemetry::begin();
        let _ = std::hint::black_box(mine_tane_ctx(
            &AnalysisCtx::of(&rel),
            TaneOptions::default(),
        ));
        let _ = std::hint::black_box(mine_reliable_ctx(
            &AnalysisCtx::of(&rel),
            ReliableOptions {
                theta: 0.6,
                max_lhs: Some(3),
                threads: 1,
                prune: true,
            },
        ));
        let report = telemetry::finish();
        if telemetry::compiled() {
            println!("\nprofiled tane/synth8/{}:", rel.n_tuples());
            print!("{}", report.render_text(8));
        }
        report
    };

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"fdmine_scaling\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str("  \"workloads\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"id\": \"{}\", \"samples\": {}, \"median_ms\": {:.4}, \"p25_ms\": {:.4}, \
             \"p75_ms\": {:.4}, \"min_ms\": {:.4}}}",
            m.id, m.samples, m.median_ms, m.p25_ms, m.p75_ms, m.min_ms
        );
        json.push_str(if i + 1 < results.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"allocations\": [\n");
    for (i, c) in allocs.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"id\": \"{}\", \"allocs\": {}, \"peak_bytes\": {}}}",
            c.id, c.allocs, c.peak_bytes
        );
        json.push_str(if i + 1 < allocs.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"reliable\": [\n");
    for (i, s) in reliable_stats.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"id\": \"{}\", \"fds\": {}, \"nodes_pruned\": {}, \"nodes_unpruned\": {}, \
             \"rfi_evals_pruned\": {}, \"rfi_evals_unpruned\": {}, \"bnb_bounds\": {}, \
             \"bnb_prunes\": {}}}",
            s.id,
            s.fds,
            s.nodes_pruned,
            s.nodes_unpruned,
            s.rfi_evals_pruned,
            s.rfi_evals_unpruned,
            s.bnb_bounds,
            s.bnb_prunes
        );
        json.push_str(if i + 1 < reliable_stats.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n  \"bounded_walks\": [\n");
    for (i, w) in walks.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"id\": \"{}\", \"median_ms\": {:.4}, \"partition_products\": {}}}",
            w.id, w.median_ms, w.partition_products
        );
        json.push_str(if i + 1 < walks.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"paired\": [\n");
    for (i, pair) in pairs.iter().enumerate() {
        json.push_str("    [");
        for (j, side) in pair.iter().enumerate() {
            let m = &side.time;
            let _ = write!(
                json,
                "{}{{\"id\": \"{}\", \"samples\": {}, \"median_ms\": {:.4}, \"p25_ms\": {:.4}, \
                 \"p75_ms\": {:.4}, \"tane_lattice_nodes\": {}, \"partition_products\": {}}}",
                if j == 0 { "" } else { ", " },
                m.id,
                m.samples,
                m.median_ms,
                m.p25_ms,
                m.p75_ms,
                side.tane_lattice_nodes,
                side.partition_products
            );
        }
        json.push_str(if i + 1 < pairs.len() { "],\n" } else { "]\n" });
    }
    json.push_str("  ],\n  \"store_vs_mem\": [\n");
    for (i, s) in store_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"id\": \"{}\", \"n_tuples\": {}, \"store_median_ms\": {:.4}, \
             \"mem_median_ms\": {:.4}, \"store_peak_bytes\": {}, \"mem_peak_bytes\": {}}}",
            s.id,
            s.n_tuples,
            s.store_median_ms,
            s.mem_median_ms,
            s.store_peak_bytes,
            s.mem_peak_bytes
        );
        json.push_str(if i + 1 < store_rows.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    json.push_str("  ],\n  \"telemetry\": ");
    // RunReport::to_json is a complete JSON document; embedded as a
    // sub-object its relative indentation is cosmetic only.
    json.push_str(report.to_json().trim_end());
    json.push_str("\n}\n");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_samples_report_their_mean_as_the_median() {
        let m = Measurement::of("two", vec![19.0, 11.0]);
        assert_eq!(m.median_ms, 15.0);
        assert_eq!((m.p25_ms, m.p75_ms, m.min_ms), (13.0, 17.0, 11.0));
    }

    #[test]
    fn odd_counts_take_the_middle_sample() {
        let m = Measurement::of("three", vec![3.0, 1.0, 2.0]);
        assert_eq!((m.median_ms, m.p25_ms, m.p75_ms), (2.0, 1.5, 2.5));
        assert_eq!(Measurement::of("one", vec![4.0]).median_ms, 4.0);
    }
}
