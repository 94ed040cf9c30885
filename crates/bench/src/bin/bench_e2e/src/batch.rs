//! The two batch workloads, driven through the entry points the `dbmine`
//! CLI uses. Each iteration builds fresh contexts, as a CLI run does.

use crate::calib::kernel_ms;
use crate::harness::{
    file_len, layer_metrics, member_seed, mib, overhead, push_extras, Ledger, Outcome, Run, Weights,
};
use crate::replay;
use crate::trace::{trace_json, Tracer};
use crate::{G3_MAX_LHS, RFI_MAX_LHS, RFI_THETA};
use dbmine::context::AnalysisCtx;
use dbmine::datagen::{write_csv_path, DblpSpec};
use dbmine::fdrank::ScoreKind;
use dbmine::relation::csv::read_relation_path;
use dbmine::relation::ShardedRelation;
use dbmine::render;
use dbmine::telemetry::{self, alloc};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

#[derive(Clone, Copy, PartialEq, Eq)]
enum Pass {
    Warmup,
    Timed,
    Traced,
}

/// `warmups` untimed iterations, then timed iterations until the
/// deadline — each followed by a traced one in a traced run. `step` gets
/// the pass and the iteration's index within it.
fn drive(run: &Run, warmups: usize, mut step: impl FnMut(Pass, usize)) {
    for i in 0..warmups {
        step(Pass::Warmup, i);
    }
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds);
    let mut done = 0;
    loop {
        step(Pass::Timed, done);
        if run.trace {
            step(Pass::Traced, done);
        }
        done += 1;
        if Instant::now() >= deadline || run.sizes.batch_iterations.is_some_and(|cap| done >= cap) {
            break;
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let r = f();
    (r, start.elapsed().as_secs_f64() * 1e3)
}

fn note_views(t: &mut Tracer, ctx: &AnalysisCtx) {
    let vs = ctx.view_stats();
    t.note("context.view_builds", vs.builds as f64);
    t.note("context.view_hits", vs.hits as f64);
    t.note("context.materializations", vs.materializations as f64);
}

/// `analyze_dblp2500`: `read_relation_path` → `AnalysisCtx::from` →
/// `render::run_analyze` with the CLI defaults, round robin over a pool
/// of relations so one run averages over inputs as well as repeats.
pub fn analyze(run: &Run) -> Result<Outcome, String> {
    let mut ledger = Ledger::default();
    let k = run.sizes.analyze_relations;
    let csvs: Vec<PathBuf> = (0..k)
        .map(|i| run.file(&format!("analyze_{i}.csv")))
        .collect();
    run.set_up(&mut ledger, || {
        for (i, csv) in csvs.iter().enumerate() {
            let spec = DblpSpec::scaled(run.sizes.analyze_tuples, member_seed(run.seed, i));
            write_csv_path(&spec, csv)
                .map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
        }
        Ok(())
    })?;
    let config = render::analyze_config(None, None, None, None, 1, None, ScoreKind::G3);
    let load = |csv: &Path| {
        read_relation_path(csv)
            .map(AnalysisCtx::from)
            .map_err(|e| format!("cannot read {}: {e}", csv.display()))
    };

    // Each relation's first output is the reference every later
    // iteration on it, traced or not, must reproduce byte for byte.
    let mut reference: Vec<Option<String>> = vec![None; k];
    let mut traced = Ledger::default();
    let mut tracer = Tracer::new();
    let mut iterations = Vec::new();
    let mut reports = BTreeMap::new();
    drive(run, 0, |pass, i| {
        let (member, csv) = (i % k, &csvs[i % k]);
        let kind = format!("analyze#{member}");
        // Calibrate right before the op: see `calib`.
        let k = kernel_ms();
        if pass == Pass::Traced {
            telemetry::begin();
            let (op, out) = tracer.op("op.analyze", |t| {
                let ctx = t.span("relation.csv_read", |_| load(csv))?;
                let out = replay::analyze(t, &ctx, &config);
                note_views(t, &ctx);
                Ok::<_, String>(out)
            });
            reports.insert("analyze", telemetry::finish());
            traced.time(kind, tracer.root(op).ms(), tracer.root(op).ms(), k);
            iterations.push(vec![op]);
            match out {
                Ok(out) => {
                    ledger.check(Some(&out) == reference[member].as_ref(), || {
                        format!(
                            "traced analyze replay of relation {member} differs from run_analyze"
                        )
                    });
                }
                Err(e) => ledger.fail(e),
            }
            return;
        }
        let ((out, ms), stats) =
            alloc::measure(|| timed(|| load(csv).map(|ctx| render::run_analyze(&ctx, &config))));
        match out {
            Ok(out) => {
                ledger.time(kind, ms, ms, k);
                ledger.peaks.push(mib(stats.region_peak_bytes()));
                let expected = reference[member].get_or_insert_with(|| out.clone());
                ledger.check(&out == expected, || {
                    format!("analyze output of relation {member} differs between iterations")
                });
            }
            Err(e) => ledger.fail(e),
        }
    });

    let weights: Weights = (0..k)
        .map(|i| (format!("analyze#{i}"), 1.0 / k as f64))
        .collect();
    let mut outcome = Outcome::new(ledger);
    outcome.end_to_end(&weights);
    if run.trace {
        let mut layers = layer_metrics(&tracer, &iterations);
        let extras = BTreeMap::from([(
            "telemetry.trace_overhead_frac",
            overhead(traced.op_cost(&weights), outcome.ledger.op_cost(&weights)),
        )]);
        push_extras(&mut layers, &extras);
        outcome.per_layer = layers;
        outcome.trace = Some(trace_json(&tracer, reports));
    }
    Ok(outcome)
}

/// The relation behind `store_fds_dblp20k` and the outputs an in-memory
/// context produces for it.
struct StoreInput {
    csv_bytes: u64,
    content_hash: u64,
    tuples: usize,
    g3: String,
    rfi: String,
}

fn fds_g3(ctx: &AnalysisCtx) -> String {
    render::run_fds(ctx, None, Some(G3_MAX_LHS), 1, ScoreKind::G3, None)
}

fn fds_rfi(ctx: &AnalysisCtx) -> String {
    render::run_fds(
        ctx,
        None,
        Some(RFI_MAX_LHS),
        1,
        ScoreKind::Rfi,
        Some(RFI_THETA),
    )
}

/// `store_fds_dblp20k`: spill the CSV into a shard store, then mine it
/// twice through fresh chunk-backed contexts — exact g3 dependencies and
/// reliable ones.
pub fn store_fds(run: &Run) -> Result<Outcome, String> {
    let mut ledger = Ledger::default();
    let csv = run.file("store.csv");
    let store = run.file("store.dbss");
    let spec = DblpSpec::scaled(run.sizes.store_tuples, run.seed);
    let input = run.set_up(&mut ledger, || {
        write_csv_path(&spec, &csv).map_err(|e| format!("cannot write {}: {e}", csv.display()))?;
        let rel =
            read_relation_path(&csv).map_err(|e| format!("cannot read {}: {e}", csv.display()))?;
        let (content_hash, tuples) = (rel.content_hash(), rel.n_tuples());
        let mem = AnalysisCtx::from(rel);
        Ok(StoreInput {
            csv_bytes: file_len(&csv)?,
            content_hash,
            tuples,
            g3: fds_g3(&mem),
            rfi: fds_rfi(&mem),
        })
    })?;
    let spill = || {
        let _ = std::fs::remove_file(&store);
        ShardedRelation::scan_csv_path_spill(&csv, 0, &store)
            .map_err(|e| format!("cannot spill {}: {e}", csv.display()))
    };
    let open = || {
        ShardedRelation::open_store(&store)
            .and_then(AnalysisCtx::from_chunks)
            .map_err(|e| format!("cannot open {}: {e}", store.display()))
    };
    let spilled_ok = |s: &ShardedRelation| {
        s.content_hash() == input.content_hash && s.n_tuples() == input.tuples
    };

    let mut traced = Ledger::default();
    let mut tracer = Tracer::new();
    let mut iterations = Vec::new();
    let mut reports = BTreeMap::new();
    let mut score_share = Vec::new();
    drive(run, 1, |pass, _| {
        if pass == Pass::Traced {
            let mut ops = Vec::new();
            let k = kernel_ms();
            telemetry::begin();
            let (op, s) = tracer.op("op.spill", |t| t.span("relation.spill", |_| spill()));
            reports.insert("spill", telemetry::finish());
            traced.time("spill", tracer.root(op).ms(), tracer.root(op).ms(), k);
            ops.push(op);
            match s {
                Ok(s) => {
                    ledger.check(spilled_ok(&s), || {
                        "traced spill wrote a different relation".to_string()
                    });
                }
                Err(e) => ledger.fail(e),
            }
            type Replay<'a> = &'a dyn Fn(&mut Tracer, &AnalysisCtx) -> String;
            let kinds: [(&'static str, &'static str, Replay, &String); 2] = [
                (
                    "op.fds_g3",
                    "fds_g3",
                    &|t, ctx| replay::fds_g3(t, ctx, Some(G3_MAX_LHS)),
                    &input.g3,
                ),
                (
                    "op.fds_rfi",
                    "fds_rfi",
                    &|t, ctx| replay::fds_rfi(t, ctx, RFI_THETA, Some(RFI_MAX_LHS)),
                    &input.rfi,
                ),
            ];
            for (root, kind, replay_fds, expected) in kinds {
                let k = kernel_ms();
                telemetry::begin();
                let (op, out) = tracer.op(root, |t| {
                    let ctx = t.span("relation.store_open", |_| open())?;
                    let out = replay_fds(t, &ctx);
                    note_views(t, &ctx);
                    Ok::<_, String>((out, ctx.view_stats().materializations))
                });
                let report = telemetry::finish();
                if let (Some(score), Some(all)) = (
                    report.find("reliable.score"),
                    report.find("fdmine.reliable"),
                ) {
                    score_share.push(score.total_ms / all.total_ms);
                }
                reports.insert(kind, report);
                traced.time(kind, tracer.root(op).ms(), tracer.root(op).ms(), k);
                ops.push(op);
                match out {
                    Ok((out, mats)) => {
                        ledger.check(&out == expected && mats == 0, || {
                            format!("traced {kind} replay differs from the in-memory run or materialized ({mats})")
                        });
                    }
                    Err(e) => ledger.fail(e),
                }
            }
            iterations.push(ops);
            return;
        }
        let record = pass == Pass::Timed;
        let mut peak: f64 = 0.0;
        let k = kernel_ms();
        let ((s, ms), stats) = alloc::measure(|| timed(spill));
        peak = peak.max(mib(stats.region_peak_bytes()));
        match s {
            Ok(s) => {
                ledger.check(spilled_ok(&s), || {
                    "spill wrote a different relation".to_string()
                });
                if record {
                    ledger.time("spill", ms, ms, k);
                }
            }
            Err(e) => ledger.fail(e),
        }
        for (kind, mine, expected) in [
            ("fds_g3", fds_g3 as fn(&AnalysisCtx) -> String, &input.g3),
            ("fds_rfi", fds_rfi, &input.rfi),
        ] {
            let k = kernel_ms();
            let ((out, ms), stats) = alloc::measure(|| {
                timed(|| open().map(|ctx| (mine(&ctx), ctx.view_stats().materializations)))
            });
            peak = peak.max(mib(stats.region_peak_bytes()));
            match out {
                Ok((out, mats)) => {
                    ledger.check(&out == expected && mats == 0, || {
                        format!("store-backed {kind} differs from the in-memory run or materialized ({mats})")
                    });
                    if record {
                        ledger.time(kind, ms, ms, k);
                    }
                }
                Err(e) => ledger.fail(e),
            }
        }
        if record {
            ledger.peaks.push(peak);
        }
    });

    // The unit of work is the whole session: its ops add up.
    let weights: Weights = ["spill", "fds_g3", "fds_rfi"]
        .map(|kind| (kind.to_string(), 1.0))
        .to_vec();
    let mut outcome = Outcome::new(ledger);
    outcome.end_to_end(&weights);
    if run.trace {
        let mut layers = layer_metrics(&tracer, &iterations);
        let spill_ms = crate::stats::median(
            outcome
                .ledger
                .samples
                .get("spill")
                .map_or(&[][..], Vec::as_slice),
        );
        let store_bytes = file_len(&store).unwrap_or(0);
        let extras = BTreeMap::from([
            (
                "relation.spill_mb_per_s",
                if spill_ms > 0.0 {
                    input.csv_bytes as f64 / 1e6 / (spill_ms / 1e3)
                } else {
                    0.0
                },
            ),
            (
                "relation.store_bytes_per_csv_byte",
                store_bytes as f64 / input.csv_bytes.max(1) as f64,
            ),
            (
                "reliability.score_share",
                crate::stats::median(&score_share),
            ),
            (
                "telemetry.trace_overhead_frac",
                overhead(traced.op_cost(&weights), outcome.ledger.op_cost(&weights)),
            ),
        ]);
        push_extras(&mut layers, &extras);
        outcome.per_layer = layers;
        outcome.trace = Some(trace_json(&tracer, reports));
    }
    Ok(outcome)
}
