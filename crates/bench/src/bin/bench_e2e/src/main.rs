//! `bench_e2e` — the end-to-end and per-layer benchmark.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1   one run; last stdout line is the result
//! bench_e2e [--seed N] [--seconds S] [--out FILE]              every workload, untraced then traced
//! bench_e2e --smoke [--out FILE]                               tiny sizes; asserts gates and the file shape
//! bench_e2e --compare BASE.json HEAD.json [--bench BENCHMARK.json]
//! ```
//!
//! Inputs are generated from the seed with `dbmine::datagen`; the
//! program under test only ever sees the generated files. The daemon
//! workload starts the `dbmined` binary found next to this executable.
//! `run.sh` builds both. See `results/e2e/README.md` for the metrics.

mod batch;
mod calib;
mod compare;
mod harness;
mod replay;
mod serve;
mod stats;
mod trace;

use dbmine::server::Json;
use dbmine::telemetry;
use harness::{round6, Metric, Outcome, Run, Sizes, LAYER_EXTRAS, LAYER_TIMES};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::exit;

// The counting allocator behind `peak_mib` — the same one the `dbmine`
// and `dbmined` binaries install.
#[global_allocator]
static ALLOCATOR: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc;

/// `fds` parameters shared by the store and serve workloads.
pub const G3_MAX_LHS: usize = 3;
pub const RFI_MAX_LHS: usize = 2;
pub const RFI_THETA: f64 = 0.6;

type Workload = fn(&Run) -> Result<Outcome, String>;

const WORKLOADS: [(&str, Workload); 3] = [
    ("analyze_dblp2500", batch::analyze),
    ("store_fds_dblp20k", batch::store_fds),
    ("serve_mixed_dblp1k", serve::mixed),
];

/// Default measuring time of a full run, per workload and pass (the
/// same as `run_seconds` in BENCHMARK.json).
const DEFAULT_SECONDS: f64 = 20.0;

fn usage() -> ! {
    eprintln!(
        "usage:\n  \
         bench_e2e --workload NAME --seed N --seconds S --trace 0|1\n  \
         bench_e2e [--seed N] [--seconds S] [--out FILE]\n  \
         bench_e2e --smoke [--out FILE]\n  \
         bench_e2e --compare BASE.json HEAD.json [--bench BENCHMARK.json]\n\
         workloads: {}",
        WORKLOADS.map(|w| w.0).join(", ")
    );
    exit(2);
}

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
    smoke: bool,
    compare: Option<(String, String)>,
    bench: String,
}

fn parse_args() -> Args {
    let mut a = Args {
        workload: None,
        seed: 2004,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
        smoke: false,
        compare: None,
        bench: "BENCHMARK.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--workload" => a.workload = Some(value()),
            "--seed" => a.seed = value().parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                a.seconds = value()
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage())
            }
            "--trace" => {
                a.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value())),
            "--smoke" => a.smoke = true,
            "--compare" => {
                let base = value();
                a.compare = Some((base, value()));
            }
            "--bench" => a.bench = value(),
            _ => usage(),
        }
    }
    a
}

/// Scratch space for generated inputs, removed when dropped.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn bin_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| PathBuf::from("."))
}

fn run_one(
    name: &str,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    sizes: Sizes,
) -> Result<Outcome, String> {
    let bin_dir = bin_dir();
    let work = WorkDir(
        bin_dir
            .join("bench_e2e_work")
            .join(format!("{}_{name}", std::process::id())),
    );
    std::fs::create_dir_all(&work.0)
        .map_err(|e| format!("cannot create {}: {e}", work.0.display()))?;
    eprintln!("{name}: seed {seed}, {seconds} s, trace {}", trace as u8);
    workload(&Run {
        seed,
        seconds,
        trace,
        sizes,
        work: work.0.clone(),
        bin_dir,
    })
}

fn metrics_json(metrics: &[Metric], detailed: bool) -> Json {
    Json::Obj(
        metrics
            .iter()
            .map(|m| {
                let mut o = BTreeMap::new();
                o.insert("unit".to_string(), Json::Str(m.unit.to_string()));
                o.insert(
                    "value".to_string(),
                    Json::Num(if detailed { round6(m.value) } else { m.value }),
                );
                if detailed {
                    if let Some(s) = m.spread {
                        o.insert("spread".to_string(), Json::Num(round6(s)));
                    }
                    if let Some(s) = &m.samples {
                        o.insert("samples".to_string(), s.clone());
                    }
                }
                (m.name.clone(), Json::Obj(o))
            })
            .collect(),
    )
}

/// The result line: `correct`, `attempted`, `failed` and the metrics
/// of the pass, every digit kept.
fn result_line(o: &Outcome, trace: bool) -> String {
    let mut top = BTreeMap::new();
    top.insert("correct".to_string(), Json::Bool(o.ledger.failed == 0));
    top.insert(
        "attempted".to_string(),
        Json::Num(o.ledger.attempted as f64),
    );
    top.insert("failed".to_string(), Json::Num(o.ledger.failed as f64));
    let metrics = if trace { &o.per_layer } else { &o.end_to_end };
    top.insert("metrics".to_string(), metrics_json(metrics, false));
    Json::Obj(top).to_string_compact()
}

fn pretty(j: &Json, depth: usize, out: &mut String) {
    let pad = "  ".repeat(depth + 1);
    match j {
        Json::Arr(items) if !items.is_empty() => {
            out.push('[');
            for (i, v) in items.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&pad);
                pretty(v, depth + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
            out.push(']');
        }
        Json::Obj(map) if !map.is_empty() => {
            out.push('{');
            for (i, (k, v)) in map.iter().enumerate() {
                out.push_str(if i == 0 { "\n" } else { ",\n" });
                out.push_str(&pad);
                out.push_str(&Json::Str(k.clone()).to_string_compact());
                out.push_str(": ");
                pretty(v, depth + 1, out);
            }
            out.push('\n');
            out.push_str(&"  ".repeat(depth));
            out.push('}');
        }
        other => out.push_str(&other.to_string_compact()),
    }
}

fn write_json(path: &Path, j: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }
    let mut text = String::new();
    pretty(j, 0, &mut text);
    text.push('\n');
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn command_output(cmd: &str, args: &[&str]) -> String {
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Every workload, untraced then traced, into one result file plus a
/// spans file per workload. Returns whether every gate passed.
fn full_run(args: &Args, sizes: Sizes, out: &Path) -> Result<bool, String> {
    let mut workloads = BTreeMap::new();
    let mut all_ok = true;
    for (name, workload) in WORKLOADS {
        let plain = run_one(name, workload, args.seed, args.seconds, false, sizes)?;
        let traced = run_one(name, workload, args.seed, args.seconds, true, sizes)?;
        let attempted = plain.ledger.attempted + traced.ledger.attempted;
        let failed = plain.ledger.failed + traced.ledger.failed;
        all_ok &= failed == 0;
        let mut w = BTreeMap::new();
        w.insert("attempted".to_string(), Json::Num(attempted as f64));
        w.insert("failed".to_string(), Json::Num(failed as f64));
        w.insert(
            "error_frac".to_string(),
            Json::Num(failed as f64 / attempted.max(1) as f64),
        );
        let failures: Vec<Json> = plain
            .ledger
            .failures
            .iter()
            .chain(&traced.ledger.failures)
            .map(|f| Json::Str(f.clone()))
            .collect();
        w.insert("failures".to_string(), Json::Arr(failures));
        w.insert(
            "end_to_end".to_string(),
            metrics_json(&plain.end_to_end, true),
        );
        w.insert(
            "per_layer".to_string(),
            metrics_json(&traced.per_layer, true),
        );
        w.insert("ops".to_string(), plain.ops);
        workloads.insert(name.to_string(), Json::Obj(w));

        let mut spans = BTreeMap::new();
        spans.insert("workload".to_string(), Json::Str(name.to_string()));
        spans.insert("seed".to_string(), Json::Num(args.seed as f64));
        if let Some(Json::Obj(t)) = traced.trace {
            spans.extend(t);
        }
        let path = out.with_file_name(format!("spans_{name}.json"));
        write_json(&path, &Json::Obj(spans))?;
    }
    let mut top = BTreeMap::new();
    top.insert("bench".to_string(), Json::Str("bench_e2e".to_string()));
    top.insert("seed".to_string(), Json::Num(args.seed as f64));
    top.insert("seconds".to_string(), Json::Num(args.seconds));
    top.insert("smoke".to_string(), Json::Bool(args.smoke));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    top.insert("nproc".to_string(), Json::Num(nproc as f64));
    top.insert(
        "git_rev".to_string(),
        Json::Str(command_output("git", &["rev-parse", "HEAD"])),
    );
    top.insert(
        "rustc".to_string(),
        Json::Str(command_output("rustc", &["--version"])),
    );
    top.insert("workloads".to_string(), Json::Obj(workloads));
    write_json(out, &Json::Obj(top))?;
    eprintln!("wrote {}", out.display());
    Ok(all_ok)
}

/// The `--smoke` checks on a written result file: every workload, every
/// metric name BENCHMARK.json declares (when it is present), no failed
/// op.
fn check_shape(out: &Path, bench: &str) -> Result<(), String> {
    let result = compare::read_json(&out.display().to_string())?;
    let declared = |key: &str| -> Vec<String> {
        match compare::read_json(bench)
            .ok()
            .and_then(|b| b.get(key).cloned())
        {
            Some(Json::Arr(ms)) => ms
                .iter()
                .filter_map(|m| m.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            _ => Vec::new(),
        }
    };
    let mut layer_names: Vec<String> = LAYER_TIMES
        .iter()
        .flat_map(|t| [format!("{t}_ms"), format!("{t}_share")])
        .collect();
    layer_names.extend(LAYER_EXTRAS.iter().map(|(n, _)| n.to_string()));
    for (name, _) in WORKLOADS {
        let w = result
            .get("workloads")
            .and_then(|w| w.get(name))
            .ok_or(format!("{name} missing from {}", out.display()))?;
        if w.get("failed").and_then(Json::as_f64) != Some(0.0) {
            return Err(format!("{name}: failed ops: {:?}", w.get("failures")));
        }
        for (section, names) in [
            ("end_to_end", declared("end_to_end")),
            ("per_layer", declared("per_layer")),
            ("per_layer", layer_names.clone()),
            (
                "end_to_end",
                vec!["setup_s".into(), "op_cost".into(), "peak_mib".into()],
            ),
        ] {
            for m in names {
                let v = w
                    .get(section)
                    .and_then(|s| s.get(&m))
                    .and_then(|m| m.get("value"));
                if v.and_then(Json::as_f64).is_none() {
                    return Err(format!("{name}: {section}.{m} missing"));
                }
            }
        }
    }
    Ok(())
}

fn main() {
    telemetry::alloc::mark_installed();
    let args = parse_args();
    if let Some((base, head)) = &args.compare {
        let result = (|| {
            let bench = compare::read_json(&args.bench)?;
            compare::compare(
                &bench,
                &compare::read_json(base)?,
                &compare::read_json(head)?,
            )
        })();
        match result {
            Ok((table, regressed)) => {
                print!("{table}");
                exit(if regressed { 1 } else { 0 });
            }
            Err(e) => {
                eprintln!("error: {e}");
                exit(2);
            }
        }
    }
    if let Some(name) = &args.workload {
        let Some(&(name, workload)) = WORKLOADS.iter().find(|w| w.0 == name) else {
            eprintln!("error: unknown workload `{name}`");
            usage();
        };
        match run_one(
            name,
            workload,
            args.seed,
            args.seconds,
            args.trace,
            Sizes::FULL,
        ) {
            Ok(outcome) => {
                println!("{}", result_line(&outcome, args.trace));
                exit(if outcome.ledger.failed == 0 { 0 } else { 1 });
            }
            Err(e) => {
                eprintln!("error: {e}");
                exit(1);
            }
        }
    }
    let (sizes, default_out) = if args.smoke {
        (
            Sizes::SMOKE,
            bin_dir().join("bench_e2e_smoke").join("BENCH_e2e.json"),
        )
    } else {
        (Sizes::FULL, PathBuf::from("results/e2e/BENCH_e2e.json"))
    };
    let seconds = if args.smoke { 1.0 } else { args.seconds };
    let out = args.out.clone().unwrap_or(default_out);
    let run_args = Args { seconds, ..args };
    let checked = full_run(&run_args, sizes, &out).and_then(|ok| {
        if run_args.smoke {
            check_shape(&out, &run_args.bench)?;
        }
        Ok(ok)
    });
    match checked {
        Ok(true) => {}
        Ok(false) => {
            eprintln!(
                "error: some ops failed their correctness gate (see {})",
                out.display()
            );
            exit(1);
        }
        Err(e) => {
            eprintln!("error: {e}");
            exit(1);
        }
    }
}
