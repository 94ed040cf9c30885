//! LIMBO bench runner: times Phase 1 (arena `DcfTree` vs the pinned
//! `DcfTreeRef` baseline) and the end-to-end three-phase pipeline, counts
//! heap allocations with a counting global allocator, and writes the
//! medians to `results/BENCH_limbo.json`, the machine-read bench
//! trajectory for the clustering subsystem (see EXPERIMENTS.md).
//!
//! ```text
//! cargo run --release -p dbmine-bench --bin bench_limbo [--quick|--smoke|--scale8] [--no-scaling] [--out PATH]
//! ```
//!
//! `--quick` shrinks workloads and sample counts; `--smoke` additionally
//! redirects the output to `results/BENCH_limbo.smoke.json` so a CI run
//! never clobbers the committed trajectory; `--scale8` runs only the
//! scaling column at 10⁸ tuples (hours on one core — see
//! EXPERIMENTS.md) into `results/BENCH_limbo.scale8.json`.
//! `--no-scaling` skips the scaling column (10⁶ and 10⁷ tuples, ~35 min)
//! and carries the `scaling` rows of the file it overwrites over
//! unchanged, so the `workloads` and `allocations` rows refresh in
//! seconds. Before timing anything the
//! runner asserts the arena tree is bit-identical to the reference and
//! the pipeline is bit-identical across thread counts.

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{dblp_sample, synthetic, write_csv_path, DblpSpec, PlantedFd, SyntheticSpec};
use dbmine::ib::assign_all_with;
use dbmine::limbo::{phase1, run, tuple_dcfs, tuple_dcfs_ctx, DcfTree, LimboParams, TupleStream};
use dbmine::relation::{Relation, ShardedRelation};
use dbmine::telemetry::{self, Counter};
use dbmine_oracles::DcfTreeRef;
use std::fmt::Write as _;
use std::time::Instant;

// The shared counting allocator from `telemetry::alloc` (events + peak
// live bytes); the `allocations` section below is measured through it.
#[global_allocator]
static ALLOCATOR: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc;

struct Measurement {
    id: String,
    samples: usize,
    median_ms: f64,
    min_ms: f64,
}

struct AllocCount {
    id: String,
    allocs: u64,
    peak_bytes: u64,
}

/// Times `f` over `samples` runs (plus one untimed warmup) and records
/// the median and minimum per-run wall clock.
fn measure<R>(out: &mut Vec<Measurement>, id: &str, samples: usize, mut f: impl FnMut() -> R) {
    std::hint::black_box(f());
    let mut times: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    let m = Measurement {
        id: id.to_string(),
        samples,
        median_ms: times[times.len() / 2],
        min_ms: times[0],
    };
    println!(
        "{:<44} median {:>10.3} ms  min {:>10.3} ms",
        m.id, m.median_ms, m.min_ms
    );
    out.push(m);
}

/// Times two implementations of the same workload with their samples
/// interleaved (A, B, A, B, …), so slow drift in the environment — this
/// is a single-core container — biases both sides equally instead of
/// whichever happened to run second.
fn measure_pair<R1, R2>(
    out: &mut Vec<Measurement>,
    id_a: &str,
    id_b: &str,
    samples: usize,
    mut fa: impl FnMut() -> R1,
    mut fb: impl FnMut() -> R2,
) {
    std::hint::black_box(fa());
    std::hint::black_box(fb());
    let mut ta = Vec::with_capacity(samples);
    let mut tb = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        std::hint::black_box(fa());
        ta.push(start.elapsed().as_secs_f64() * 1e3);
        let start = Instant::now();
        std::hint::black_box(fb());
        tb.push(start.elapsed().as_secs_f64() * 1e3);
    }
    for (id, mut times) in [(id_a, ta), (id_b, tb)] {
        times.sort_by(f64::total_cmp);
        let m = Measurement {
            id: id.to_string(),
            samples,
            median_ms: times[times.len() / 2],
            min_ms: times[0],
        };
        println!(
            "{:<44} median {:>10.3} ms  min {:>10.3} ms",
            m.id, m.median_ms, m.min_ms
        );
        out.push(m);
    }
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

/// One point of the out-of-core scaling column.
struct ScalePoint {
    tuples: usize,
    n_chunks: usize,
    distinct_values: usize,
    leaves: usize,
    gen_ms: f64,
    /// The fused spill-on-scan pass (`scan_csv_path_spill`): the one
    /// CSV parse, which also writes the binary shard store.
    spill_ms: f64,
    /// Bytes of the `.dbss` store on disk.
    store_bytes: u64,
    /// One full chunk pass decoding the store (the cost every later
    /// pass pays).
    store_pass_ms: f64,
    /// Phase 1 over the store-backed source (two store passes).
    phase1_ms: f64,
    allocs: u64,
    peak_bytes: u64,
    max_chunk_peak_bytes: u64,
    median_chunk_peak_bytes: u64,
    shard_ingests: u64,
    tree_merges: u64,
    dcf_merges: u64,
    spill_chunks_written: u64,
    spill_chunks_read: u64,
}

/// Streams one CSV of `n` tuples through the out-of-core Phase 1 and
/// measures it; at the smallest size the result is gated
/// bit-identical across worker counts and against the in-memory build.
fn run_scaling_column(sizes: &[usize], verify_in_memory: bool) -> Vec<ScalePoint> {
    let params = LimboParams::with_phi(4.0).threads(2);
    let dir = std::env::temp_dir().join("dbmine_bench_scaling");
    std::fs::create_dir_all(&dir).expect("create scaling temp dir");
    let mut points = Vec::new();
    println!();
    for (i, &n) in sizes.iter().enumerate() {
        let path = dir.join(format!("dblp_{n}.csv"));
        let store_path = dir.join(format!("dblp_{n}.dbss"));
        let spec = DblpSpec::scaled(n, 2004);

        let start = Instant::now();
        write_csv_path(&spec, &path).expect("write scaling CSV");
        let gen_ms = start.elapsed().as_secs_f64() * 1e3;

        // The fused spill-on-scan: the one CSV parse, writing the
        // dictionary-encoded store as it goes. Every pass after this
        // line is a block decode.
        let spill_before = telemetry::snapshot();
        let start = Instant::now();
        let spilled =
            ShardedRelation::scan_csv_path_spill(&path, 0, &store_path).expect("spill scaling CSV");
        let spill_ms = start.elapsed().as_secs_f64() * 1e3;
        let spill_chunks_written = telemetry::snapshot()
            .delta(&spill_before)
            .get(Counter::SpillChunksWritten);
        let store_bytes = std::fs::metadata(&store_path)
            .expect("store metadata")
            .len();
        assert_eq!(spilled.n_tuples(), n, "generator/scan tuple count");

        // One full chunk pass: the cost every later pass (MI fold, DCF
        // build, any future lattice sweep) pays.
        let start = Instant::now();
        let mut rows = 0usize;
        for chunk in spilled.chunks().expect("open chunk pass") {
            rows += std::hint::black_box(chunk.expect("chunk").n_rows());
        }
        assert_eq!(rows, n, "chunk pass row count");
        let store_pass_ms = start.elapsed().as_secs_f64() * 1e3;
        let (n_chunks, distinct_values) = (spilled.n_chunks(), spilled.dict().len());
        let ctx = AnalysisCtx::from_chunks(spilled).expect("store-backed context");

        let before = telemetry::snapshot();
        let start = Instant::now();
        let (model, stats) = telemetry::alloc::measure(|| TupleStream::new(&ctx).phase1(params));
        let mi = model.mutual_information;
        let phase1_ms = start.elapsed().as_secs_f64() * 1e3;
        let d = telemetry::snapshot().delta(&before);

        // Stage-A working set: the (chunk DCFs + per-chunk tree)
        // footprint per chunk — this is the memory the streaming ingest
        // actually holds at a time, and it is chunk-bounded. Two traps
        // in measuring it honestly:
        //
        //   * `measure` reports the absolute watermark, and this loop
        //     runs with the phase-1 output `model` still live — whose
        //     O(n_chunks) leaves grow with the relation by design. Use
        //     `region_peak_bytes` (watermark minus baseline live) so
        //     only the chunk's own footprint is charged.
        //   * the max over chunks is a max-statistic: 10× the tuples
        //     means ~10× the chunks and a higher expected max even when
        //     every chunk is identically distributed. Track the median
        //     as the systematic per-chunk cost alongside the max.
        let tau = if n == 0 {
            0.0
        } else {
            params.phi * mi / n as f64
        };
        let mut chunk_peaks: Vec<u64> = Vec::new();
        for chunk in ctx.chunks() {
            let (_, s) = telemetry::alloc::measure(|| {
                let dcfs = tuple_dcfs(&ctx, &chunk, 0..chunk.n_rows(), 1);
                let mut t = DcfTree::new(params.branching, tau);
                for o in &dcfs {
                    t.insert(o);
                }
                t.into_leaves().len()
            });
            chunk_peaks.push(s.region_peak_bytes());
        }
        chunk_peaks.sort_unstable();
        let max_chunk_peak_bytes = chunk_peaks.last().copied().unwrap_or(0);
        let median_chunk_peak_bytes = chunk_peaks.get(chunk_peaks.len() / 2).copied().unwrap_or(0);

        if i == 0 {
            // Worker-count bit-identity gate on the cheapest size: the
            // shard plan is fixed by n, so every thread count must
            // reproduce the same leaves exactly.
            for workers in [1usize, 4] {
                let model_w = TupleStream::new(&ctx).phase1(params.threads(workers));
                assert_eq!(
                    mi.to_bits(),
                    model_w.mutual_information.to_bits(),
                    "MI diverges at {workers} workers"
                );
                assert_leaves_bit_identical(
                    &model.leaves,
                    &model_w.leaves,
                    &format!("out-of-core workers={workers}"),
                );
            }
            if verify_in_memory {
                // The out-of-core build must equal the in-memory slice
                // build over the same auto plan, bit for bit.
                let rel = dbmine::relation::csv::read_relation_path(&path)
                    .expect("in-memory scaling load");
                let ctx = AnalysisCtx::of(&rel);
                let objects = tuple_dcfs_ctx(&ctx, 1);
                let mi_mem = ctx.tuple_mutual_information();
                assert_eq!(mi.to_bits(), mi_mem.to_bits(), "streaming MI diverges");
                let mem = phase1(&objects, mi_mem, params.threads(1));
                assert_leaves_bit_identical(&model.leaves, &mem.leaves, "out-of-core vs in-memory");
            }
        }

        let p = ScalePoint {
            tuples: n,
            n_chunks,
            distinct_values,
            leaves: model.leaves.len(),
            gen_ms,
            spill_ms,
            store_bytes,
            store_pass_ms,
            phase1_ms,
            allocs: stats.events,
            peak_bytes: stats.peak_bytes,
            max_chunk_peak_bytes,
            median_chunk_peak_bytes,
            shard_ingests: d.get(Counter::ShardIngests),
            tree_merges: d.get(Counter::TreeMerges),
            dcf_merges: d.get(Counter::DcfMerges),
            spill_chunks_written,
            spill_chunks_read: d.get(Counter::SpillChunksRead),
        };
        println!(
            "scaling/{:<9} chunks {:>4}  phase1 {:>10.1} ms  peak {:>12} B  chunk-peak med {:>11} B  max {:>11} B  leaves {:>6}",
            p.tuples,
            p.n_chunks,
            p.phase1_ms,
            p.peak_bytes,
            p.median_chunk_peak_bytes,
            p.max_chunk_peak_bytes,
            p.leaves
        );
        println!(
            "scaling/{:<9} pass: store {:>10.1} ms  store {:>12} B  spill {:>10.1} ms",
            p.tuples, p.store_pass_ms, p.store_bytes, p.spill_ms
        );
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&store_path);
        points.push(p);
    }
    points
}

/// Renders the scaling points as the JSON array body (rows only, no
/// brackets) shared by the default and `--scale8` outputs.
fn scaling_json(scaling: &[ScalePoint]) -> String {
    let mut json = String::new();
    for (i, p) in scaling.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"tuples\": {}, \"n_chunks\": {}, \"distinct_values\": {}, \"leaves\": {}, \
             \"gen_ms\": {:.1}, \"spill_ms\": {:.1}, \"store_bytes\": {}, \
             \"store_pass_ms\": {:.1}, \"phase1_ms\": {:.1}, \
             \"allocs\": {}, \"peak_bytes\": {}, \"max_chunk_peak_bytes\": {}, \
             \"median_chunk_peak_bytes\": {}, \"shard_ingests\": {}, \
             \"tree_merges\": {}, \"dcf_merges\": {}, \
             \"spill_chunks_written\": {}, \"spill_chunks_read\": {}}}",
            p.tuples,
            p.n_chunks,
            p.distinct_values,
            p.leaves,
            p.gen_ms,
            p.spill_ms,
            p.store_bytes,
            p.store_pass_ms,
            p.phase1_ms,
            p.allocs,
            p.peak_bytes,
            p.max_chunk_peak_bytes,
            p.median_chunk_peak_bytes,
            p.shard_ingests,
            p.tree_merges,
            p.dcf_merges,
            p.spill_chunks_written,
            p.spill_chunks_read
        );
        json.push_str(if i + 1 < scaling.len() { ",\n" } else { "\n" });
    }
    json
}

fn assert_leaves_bit_identical(a: &[dbmine::ib::Dcf], b: &[dbmine::ib::Dcf], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: leaf counts diverge");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{what}: weights");
        assert_eq!(x.count, y.count, "{what}: counts");
        assert_eq!(x.cond.entries(), y.cond.entries(), "{what}: conditionals");
    }
}

/// The body of the `"scaling"` array of the bench file at `path`,
/// verbatim: the committed rows `--no-scaling` carries over.
fn committed_scaling(path: &str) -> String {
    const OPEN: &str = "\"scaling\": [\n";
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("--no-scaling: cannot read {path}: {e}");
        std::process::exit(1);
    });
    let rows = text.find(OPEN).and_then(|i| {
        let rows = &text[i + OPEN.len()..];
        rows.find("  ]").map(|end| rows[..end].to_string())
    });
    rows.unwrap_or_else(|| {
        eprintln!("--no-scaling: {path} has no scaling rows");
        std::process::exit(1);
    })
}

fn main() {
    telemetry::alloc::mark_installed();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let quick = smoke || args.iter().any(|a| a == "--quick");
    let scale8 = args.iter().any(|a| a == "--scale8");
    let no_scaling = args.iter().any(|a| a == "--no-scaling");
    let default_out = if scale8 {
        "results/BENCH_limbo.scale8.json"
    } else if smoke {
        "results/BENCH_limbo.smoke.json"
    } else {
        "results/BENCH_limbo.json"
    };
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or(default_out)
        .to_string();
    let carried_scaling = no_scaling.then(|| committed_scaling(&out_path));

    if scale8 {
        // The gated 10⁸ recipe (EXPERIMENTS.md): scaling column only,
        // one size, no in-memory verification (the materialized
        // relation alone would dwarf the streaming working set). On
        // one core expect hours, dominated by the MI fold; budget
        // ~10 GB of temp disk for the CSV + store.
        let scaling = run_scaling_column(&[100_000_000], false);
        let mut json = String::new();
        json.push_str("{\n  \"bench\": \"limbo_phase1_scale8\",\n");
        json.push_str("  \"scaling\": [\n");
        json.push_str(&scaling_json(&scaling));
        json.push_str("  ]\n}\n");
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
        return;
    }

    let (sizes, samples): (&[usize], usize) = if quick {
        (&[500], 2)
    } else {
        (&[2_000, 8_000], 7)
    };

    let mut results: Vec<Measurement> = Vec::new();
    let mut allocs: Vec<AllocCount> = Vec::new();
    // Two regimes: `synth8` has a modest value domain, so DCF supports
    // stay small and Phase 1 is allocator-bound (where the arena pays
    // off most); `dblp` has a large sparse domain, so the shared merge
    // arithmetic on wide ancestor summaries dominates both trees.
    let datasets: Vec<(String, Relation)> = sizes
        .iter()
        .flat_map(|&n| {
            let synth = synthetic(&SyntheticSpec {
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
            });
            let dblp = dblp_sample(&DblpSpec {
                n_tuples: n,
                ..DblpSpec::small()
            });
            [(format!("synth8/{n}"), synth), (format!("dblp/{n}"), dblp)]
        })
        .collect();
    for (name, rel) in &datasets {
        // The context shares one tuple matrix between the DCFs and
        // I(T;V); all of this happens outside the timed regions.
        let ctx = AnalysisCtx::of(rel);
        let objects = tuple_dcfs_ctx(&ctx, 1);
        let mi = ctx.tuple_mutual_information();
        let params = LimboParams::with_phi(1.0);

        // Phase 1 at two summary accuracies: φ = 1 (the paper's default
        // regime) and φ = 4 (coarse summaries, where nearly every insert
        // is absorbed and the allocation-free merge path dominates).
        for phi in [1.0f64, 4.0] {
            let tau = phi * mi / objects.len() as f64;

            // Bit-identity gate: the arena tree must reproduce the
            // reference exactly before its timings mean anything. The
            // arena side streams borrowed objects (`DcfTree::insert`), exactly
            // as the timed workload below does.
            let mut arena = DcfTree::new(params.branching, tau);
            let mut reference = DcfTreeRef::new(params.branching, tau);
            for o in &objects {
                arena.insert(o);
                reference.insert(o.clone());
            }
            println!(
                "{name} phi{phi}: {} objects -> {} leaves, height {}",
                objects.len(),
                arena.n_leaf_entries(),
                arena.height()
            );
            assert_leaves_bit_identical(&arena.into_leaves(), &reference.leaves(), name);

            measure_pair(
                &mut results,
                &format!("phase1_arena/{name}/phi{phi}"),
                &format!("phase1_reference/{name}/phi{phi}"),
                samples,
                || {
                    let mut t = DcfTree::new(params.branching, tau);
                    for o in &objects {
                        t.insert(o);
                    }
                    t.n_leaf_entries()
                },
                || {
                    let mut t = DcfTreeRef::new(params.branching, tau);
                    for o in &objects {
                        t.insert(o.clone());
                    }
                    t.n_leaf_entries()
                },
            );
            count(
                &mut allocs,
                &format!("phase1_arena/{name}/phi{phi}"),
                || {
                    let mut t = DcfTree::new(params.branching, tau);
                    for o in &objects {
                        t.insert(o);
                    }
                    t.n_leaf_entries()
                },
            );
            count(
                &mut allocs,
                &format!("phase1_reference/{name}/phi{phi}"),
                || {
                    let mut t = DcfTreeRef::new(params.branching, tau);
                    for o in &objects {
                        t.insert(o.clone());
                    }
                    t.n_leaf_entries()
                },
            );
            // Every arena summary merges in its own buffers, so the
            // arena never holds more than the reference's fresh vectors.
            let [.., arena_row, reference_row] = allocs.as_slice() else {
                unreachable!("both Phase 1 rows were just pushed")
            };
            assert!(
                arena_row.peak_bytes <= reference_row.peak_bytes,
                "{}: peak {} B above the reference tree's {} B",
                arena_row.id,
                arena_row.peak_bytes,
                reference_row.peak_bytes
            );
        }

        // Phase 3 at `analyze`'s tuple shape: every tuple against the
        // leaves of a φ_T = 0.1 Phase 1, where the NULL markers of the
        // sparse columns are frequent tokens of the representatives.
        if name.starts_with("dblp/") {
            let leaves = phase1(&objects, mi, LimboParams::with_phi(0.1)).leaves;
            measure(&mut results, &format!("phase3/{name}"), samples, || {
                assign_all_with(objects.iter(), &leaves, 1)
            });
        }

        // End-to-end pipeline, with the threads knob; the parallel runs
        // must be bit-identical to the serial one.
        let tau = params.phi * mi / objects.len() as f64;
        let k = 5;
        let serial = run(&objects, mi, k, params);
        for threads in [2usize, 4] {
            let par = run(&objects, mi, k, params.threads(threads));
            assert_eq!(
                serial.assignments, par.assignments,
                "pipeline diverges at {threads} threads"
            );
            assert_leaves_bit_identical(
                &serial.clustering.clusters,
                &par.clustering.clusters,
                &format!("pipeline threads={threads}"),
            );
        }
        measure(&mut results, &format!("pipeline/{name}"), samples, || {
            run(&objects, mi, k, params)
        });
        for threads in [2usize, 4] {
            measure(
                &mut results,
                &format!("pipeline_threads{threads}/{name}"),
                samples,
                || run(&objects, mi, k, params.threads(threads)),
            );
        }
        count(&mut allocs, &format!("pipeline/{name}"), || {
            run(&objects, mi, k, params)
        });
        count(&mut allocs, &format!("pipeline_reference/{name}"), || {
            // The pre-arena pipeline: reference tree, cloned leaf export,
            // then the same Phases 2 and 3.
            let mut t = DcfTreeRef::new(params.branching, tau);
            for o in &objects {
                t.insert(o.clone());
            }
            let model = dbmine::limbo::LimboModel {
                leaves: t.leaves(),
                threshold: tau,
                mutual_information: mi,
                n_objects: objects.len(),
            };
            let clustering = dbmine::limbo::phase2_with(&model, k, 1);
            dbmine::limbo::phase3_with(objects.iter(), &clustering, 1)
        });
    }

    // ---- Out-of-core scaling column (sharded CSV ingest) ----
    //
    // Each point streams a DBLP-style CSV from disk through the
    // three-pass out-of-core Phase 1: spill-on-scan (dictionary + hash
    // + store), then `TupleStream::phase1`'s streaming I(T;V) and chunked DCF
    // build + sharded tree merge. `median_chunk_peak_bytes` measures the
    // Stage-A working set — one chunk's singleton DCFs plus its
    // per-chunk tree — which is what "ingest memory bounded by chunk
    // size, not relation size" means: it must stay flat as the tuple
    // count grows (the relation-wide dictionary and the output summary
    // grow with the value universe by design; the per-chunk ingest does
    // not). The median is the systematic guard; the max gets extra
    // headroom because it is a max-statistic over ~10× more chunks at
    // the larger size, and because τ = φ·I/n couples per-chunk merge
    // behaviour weakly to the global tuple count (smaller τ lets
    // unlucky insertion orders hold more entries transiently — still
    // capped by the τ=0 chunk-content ceiling, never by n).
    let scale_sizes: &[usize] = if quick {
        &[50_000, 200_000]
    } else {
        &[1_000_000, 10_000_000]
    };
    let scaling = if no_scaling {
        Vec::new()
    } else {
        run_scaling_column(scale_sizes, quick)
    };
    if let (Some(first), Some(last)) = (scaling.first(), scaling.last()) {
        if last.tuples >= 4 * first.tuples {
            let med_ratio =
                last.median_chunk_peak_bytes as f64 / first.median_chunk_peak_bytes.max(1) as f64;
            assert!(
                med_ratio < 1.5,
                "median per-chunk ingest peak must not scale with the relation: \
                 {} B at {} tuples vs {} B at {} tuples ({med_ratio:.2}x)",
                first.median_chunk_peak_bytes,
                first.tuples,
                last.median_chunk_peak_bytes,
                last.tuples
            );
            let max_ratio =
                last.max_chunk_peak_bytes as f64 / first.max_chunk_peak_bytes.max(1) as f64;
            assert!(
                max_ratio < 2.0,
                "worst-chunk ingest peak grew past max-statistic headroom: \
                 {} B at {} tuples vs {} B at {} tuples ({max_ratio:.2}x)",
                first.max_chunk_peak_bytes,
                first.tuples,
                last.max_chunk_peak_bytes,
                last.tuples
            );
            println!(
                "\nbounded-ingest check: chunk working set median {:.2}x, max {:.2}x across a {}x tuple growth",
                med_ratio,
                max_ratio,
                last.tuples / first.tuples
            );
        }
    }

    // One profiled representative run (the last dataset, end-to-end):
    // the timed samples above ran with span collection off, so this is
    // the only window that pays for span recording.
    let report = {
        let (name, rel) = datasets.last().expect("datasets non-empty");
        let ctx = AnalysisCtx::of(rel);
        let objects = tuple_dcfs_ctx(&ctx, 1);
        let mi = ctx.tuple_mutual_information();
        telemetry::begin();
        let _ = std::hint::black_box(run(&objects, mi, 5, LimboParams::with_phi(1.0)));
        let report = telemetry::finish();
        if telemetry::compiled() {
            println!("\nprofiled pipeline/{name}:");
            print!("{}", report.render_text(8));
        }
        report
    };

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"limbo_phase1\",\n");
    let _ = writeln!(json, "  \"quick\": {quick},");
    json.push_str("  \"workloads\": [\n");
    for (i, m) in results.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"id\": \"{}\", \"samples\": {}, \"median_ms\": {:.4}, \"min_ms\": {:.4}}}",
            m.id, m.samples, m.median_ms, m.min_ms
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
    json.push_str("  ],\n  \"scaling\": [\n");
    json.push_str(&carried_scaling.unwrap_or_else(|| scaling_json(&scaling)));
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
