//! `dbmine` — command-line structure mining over CSV files.
//!
//! ```text
//! dbmine analyze    <file.csv> [--phi-t F] [--phi-v F] [--psi F]
//!                   [--max-lhs N] [--score S] [--threads N] [--shards N]
//! dbmine duplicates <file.csv> [--phi-t F] [--threads N] [--shards N]
//! dbmine fds        <file.csv> [--approx EPS] [--score S] [--theta F]
//!                   [--max-lhs N] [--threads N]
//! dbmine mvds       <file.csv> [--max-lhs N]
//! dbmine joins      <file.csv> --with <other.csv>
//! dbmine partition  <file.csv> [--k N] [--phi-t F] [--threads N] [--shards N]
//! dbmine redesign   <file.csv> [--steps N] [--phi-t F] [--phi-v F] [--psi F]
//!                   [--max-lhs N] [--score S] [--threads N] [--shards N]
//! ```
//!
//! Every command also takes `--spill P`, `--shards N` and `--profile P`;
//! a flag the command does not read is an error (exit 2).
//!
//! The input may also be a binary shard store (`file.dbss`, see
//! `dbmine::relation::spill`) — written by an earlier `--spill PATH`
//! run — which loads with zero re-tokenization and zero dictionary
//! hashing and produces byte-identical output to the CSV it spilled.
//!
//! Every command body lives in [`dbmine::render`], shared with the
//! `dbmined` daemon — the two front ends print byte-identical output.

use dbmine::context::AnalysisCtx;
use dbmine::fdrank::ScoreKind;
use dbmine::relation::csv::read_relation_path;
use dbmine::relation::{Relation, ShardedRelation};
use dbmine::render;
use dbmine::telemetry;
use std::io::Write;
use std::process::exit;

// Counting allocator for `--profile` runs: feature-independent, but only
// installed in the instrumented (default-feature) binary so the
// uninstrumented build stays byte-for-byte on the system allocator.
#[cfg(feature = "telemetry")]
#[global_allocator]
static ALLOCATOR: telemetry::alloc::CountingAlloc = telemetry::alloc::CountingAlloc;

fn usage() -> ! {
    eprintln!(
        "dbmine — information-theoretic database structure mining (SIGMOD 2004)\n\
         \n\
         USAGE:\n\
         \x20 dbmine analyze    <file.csv> [--phi-t F] [--phi-v F] [--psi F]\n\
         \x20                   [--max-lhs N] [--score S] [--threads N] [--shards N]\n\
         \x20 dbmine duplicates <file.csv> [--phi-t F] [--threads N] [--shards N]\n\
         \x20 dbmine fds        <file.csv> [--approx EPS] [--score S] [--theta F]\n\
         \x20                   [--max-lhs N] [--threads N]\n\
         \x20 dbmine mvds       <file.csv> [--max-lhs N]\n\
         \x20 dbmine joins      <file.csv> --with <other.csv>\n\
         \x20 dbmine partition  <file.csv> [--k N] [--phi-t F] [--threads N] [--shards N]\n\
         \x20 dbmine redesign   <file.csv> [--steps N] [--phi-t F] [--phi-v F] [--psi F]\n\
         \x20                   [--max-lhs N] [--score S] [--threads N] [--shards N]\n\
         \n\
         Every command also takes --spill P, --shards N and --profile P; any\n\
         other flag a command does not read is an error.\n\
         \n\
         OPTIONS:\n\
         \x20 --phi-t F    tuple-clustering accuracy φT (default 0.1 for\n\
         \x20              analyze and duplicates, 0.5 for partition,\n\
         \x20              0.0 for redesign)\n\
         \x20 --phi-v F    value-clustering accuracy φV (default 0.0)\n\
         \x20 --psi F      FD-RANK threshold ψ in [0,1] (default 0.5)\n\
         \x20 --approx E   mine approximate FDs with g3 error ≤ E\n\
         \x20 --score S    FD quality score: g3 (default) or rfi, the\n\
         \x20              bias-corrected reliable fraction of\n\
         \x20              information. `fds --score rfi` mines reliable\n\
         \x20              dependencies (F̂ ≥ θ, branch-and-bound);\n\
         \x20              `analyze`/`redesign --score rfi` re-rank\n\
         \x20              FD-RANK output by F̂ descending\n\
         \x20 --theta F    reliability threshold θ in [0,1] for\n\
         \x20              fds --score rfi (default 0.2); an error\n\
         \x20              with any other score\n\
         \x20 --max-lhs N  bound FD left-hand-side size\n\
         \x20 --k N        force the number of horizontal partitions\n\
         \x20 --steps N    decomposition steps for redesign (default 3)\n\
         \x20 --threads N  worker threads for clustering and FD mining\n\
         \x20              (1 = serial, 0 = all cores; results are\n\
         \x20              bit-identical for every thread count)\n\
         \x20 --shards N   build LIMBO Phase 1 from N parallel shard\n\
         \x20              workers (0 = all cores; omit for the classic\n\
         \x20              single-pass build; output is byte-identical\n\
         \x20              for every shard count)\n\
         \x20 --spill P    spill the scanned CSV into a binary shard\n\
         \x20              store at P while loading; pass P (a .dbss\n\
         \x20              file) as the input of later runs to skip\n\
         \x20              CSV parsing entirely. Sharded runs without\n\
         \x20              --spill use a temporary store automatically\n\
         \x20 --profile P  write a telemetry run report (spans, counters,\n\
         \x20              allocations) as JSON to path P, or print the\n\
         \x20              human-readable report to stderr with `-`"
    );
    exit(2);
}

/// Flags every command reads: `--spill` and `--shards` choose how
/// [`load_input`] loads the relation, and `--profile` wraps the run.
const COMMON_FLAGS: &[&str] = &["spill", "shards", "profile"];

/// The flags `command` reads besides [`COMMON_FLAGS`], or `None` for an
/// unknown command.
fn command_flags(command: &str) -> Option<&'static [&'static str]> {
    Some(match command {
        "analyze" => &["phi-t", "phi-v", "psi", "max-lhs", "score", "threads"],
        "duplicates" => &["phi-t", "threads"],
        "fds" => &["approx", "score", "theta", "max-lhs", "threads"],
        "mvds" => &["max-lhs"],
        "joins" => &["with"],
        "partition" => &["k", "phi-t", "threads"],
        "redesign" => &[
            "steps", "phi-t", "phi-v", "psi", "max-lhs", "score", "threads",
        ],
        _ => return None,
    })
}

struct Args {
    command: String,
    path: String,
    flags: std::collections::HashMap<String, String>,
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let command = it.next().unwrap_or_else(|| usage());
    if command == "--help" || command == "-h" || command == "help" {
        usage();
    }
    let path = it.next().unwrap_or_else(|| usage());
    let mut flags = std::collections::HashMap::new();
    while let Some(flag) = it.next() {
        let key = flag.trim_start_matches("--").to_string();
        let value = it.next().unwrap_or_else(|| {
            eprintln!("error: flag --{key} requires a value");
            exit(2);
        });
        flags.insert(key, value);
    }
    let known = command_flags(&command).unwrap_or_else(|| usage());
    // Sorted, so the error names the same flag on every run.
    let mut given: Vec<&String> = flags.keys().collect();
    given.sort();
    if let Some(key) = given
        .into_iter()
        .find(|k| !COMMON_FLAGS.contains(&k.as_str()) && !known.contains(&k.as_str()))
    {
        eprintln!("error: unknown flag --{key} for `{command}`");
        exit(2);
    }
    Args {
        command,
        path,
        flags,
    }
}

/// A flag value that failed to parse is a typed, named error on stderr —
/// never a bare usage dump, and never a panic.
fn bad_flag(name: &str, value: &str) -> ! {
    eprintln!("error: invalid value for --{name}: `{value}`");
    exit(2);
}

impl Args {
    fn f64_flag(&self, name: &str) -> Option<f64> {
        self.flags
            .get(name)
            .map(|v| v.parse().unwrap_or_else(|_| bad_flag(name, v)))
    }
    fn usize_flag(&self, name: &str) -> Option<usize> {
        self.flags
            .get(name)
            .map(|v| v.parse().unwrap_or_else(|_| bad_flag(name, v)))
    }
    fn threads(&self) -> usize {
        self.usize_flag("threads").unwrap_or(1)
    }
    fn shards(&self) -> Option<usize> {
        self.usize_flag("shards")
    }
    fn score(&self) -> ScoreKind {
        self.flags
            .get("score")
            .map(|v| v.parse().unwrap_or_else(|_| bad_flag("score", v)))
            .unwrap_or_default()
    }
    /// Range-checks the numeric command parameters; an out-of-range
    /// value exits like a malformed one.
    fn check_params(&self) {
        let params = render::Params {
            phi_t: self.f64_flag("phi-t"),
            phi_v: self.f64_flag("phi-v"),
            psi: self.f64_flag("psi"),
            approx: self.f64_flag("approx"),
            theta: self.f64_flag("theta"),
            k: self.usize_flag("k"),
        };
        if let Err(e) = render::check_params(&params) {
            let flag = e.name.replace('_', "-");
            bad_flag(&flag, &self.flags[&flag]);
        }
    }
}

fn loaded_line(r: &Relation) {
    eprintln!(
        "loaded {}: {} tuples × {} attributes, {} distinct values",
        r.name(),
        r.n_tuples(),
        r.n_attrs(),
        r.distinct_value_count()
    );
}

fn load(path: &str) -> Relation {
    match read_relation_path(path) {
        Ok(r) => {
            loaded_line(&r);
            r
        }
        Err(e) => {
            eprintln!("error: cannot read {path}: {e}");
            exit(1);
        }
    }
}

fn loaded_store_line(s: &ShardedRelation) {
    // A scanned/stored relation's dictionary holds the NULL sentinel
    // plus exactly the non-null values that occur, so `dict().len() - 1`
    // matches the CSV loader's count without materializing anything.
    // (On relations where NULLs occur, the CSV line counts NULL as one
    // more distinct value; whether NULL occurs is not in the footer.)
    eprintln!(
        "loaded {}: {} tuples × {} attributes, {} distinct values",
        s.name(),
        s.n_tuples(),
        s.n_attrs(),
        s.dict().len() - 1
    );
}

/// Deletes an automatic temporary spill store when the process is done
/// with it. Held for the whole run: a chunk-backed context re-reads the
/// store lazily on each view build, so the file must outlive every
/// command body.
struct TempStore(std::path::PathBuf);

impl Drop for TempStore {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// A loaded input: the analysis context plus, for `--shards` auto-spill
/// runs, the guard keeping the temporary store on disk.
struct Input {
    ctx: AnalysisCtx,
    _temp: Option<TempStore>,
}

impl Input {
    fn mem(rel: Relation) -> Input {
        Input {
            ctx: AnalysisCtx::from(rel),
            _temp: None,
        }
    }

    fn chunked(store: ShardedRelation, temp: Option<TempStore>) -> Input {
        loaded_store_line(&store);
        match AnalysisCtx::from_chunks(store) {
            Ok(ctx) => Input { ctx, _temp: temp },
            Err(e) => {
                eprintln!("error: cannot build analysis context: {e}");
                exit(1);
            }
        }
    }
}

/// Loads the primary input: a binary shard store directly (`.dbss`), a
/// CSV spilled to a store on the way in (`--spill PATH`, or an
/// automatic temporary store when `--shards` selects sharded ingest),
/// or a plain CSV read. The store paths build a chunk-backed
/// [`AnalysisCtx`] — every view streams from the store in bounded
/// memory, and the full relation is never materialized unless a
/// row-resident command (duplicates previews, redesign, mvds, joins)
/// asks for it. All four paths produce byte-identical command output.
fn load_input(args: &Args) -> Input {
    let path = args.path.as_str();
    let spill = args.flags.get("spill").cloned();
    if path.ends_with(".dbss") {
        if spill.is_some() {
            eprintln!("error: --spill expects CSV input; {path} is already a shard store");
            exit(2);
        }
        let store = match ShardedRelation::open_store(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: cannot read {path}: {e}");
                exit(1);
            }
        };
        return Input::chunked(store, None);
    }
    let spill_into = |store_path: &std::path::Path| -> ShardedRelation {
        match ShardedRelation::scan_csv_path_spill(path, 0, store_path) {
            Ok(s) => {
                eprintln!(
                    "spilled {} chunks to {}",
                    s.n_chunks(),
                    store_path.display()
                );
                s
            }
            Err(e) => {
                eprintln!("error: cannot spill {path}: {e}");
                exit(1);
            }
        }
    };
    if let Some(store_path) = spill {
        Input::chunked(spill_into(std::path::Path::new(&store_path)), None)
    } else if args.flags.contains_key("shards") {
        // Sharded ingest without an explicit store: spill once into a
        // temporary store so every later pass is a block decode. The
        // guard deletes the store when the process is done.
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("relation")
            .to_string();
        let store_path = std::env::temp_dir().join(format!(
            "dbmine_autospill_{}_{stem}.dbss",
            std::process::id()
        ));
        let store = spill_into(&store_path);
        Input::chunked(store, Some(TempStore(store_path)))
    } else {
        Input::mem(load(path))
    }
}

/// Writes a command's output to stdout. A reader that closes the pipe
/// early (`dbmine … | head`) ends the run quietly with exit 0; any other
/// write failure is a typed error, exit 1.
fn emit(out: &str) {
    let mut stdout = std::io::stdout().lock();
    if let Err(e) = stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("error: cannot write output: {e}");
        exit(1);
    }
}

fn main() {
    #[cfg(feature = "telemetry")]
    telemetry::alloc::mark_installed();
    // A chunk-backed context reports an unreadable or corrupted backing
    // by panicking mid-pass (see `dbmine-context`); keep the CLI's
    // single-line typed error contract — `error: …`, exit 1 — instead
    // of a raw panic trace. Set RUST_BACKTRACE to debug real bugs.
    if std::env::var_os("RUST_BACKTRACE").is_none() {
        std::panic::set_hook(Box::new(|info| {
            let msg = if let Some(s) = info.payload().downcast_ref::<&str>() {
                s
            } else if let Some(s) = info.payload().downcast_ref::<String>() {
                s.as_str()
            } else {
                "internal error"
            };
            eprintln!("error: {msg}");
            exit(1);
        }));
    }
    let args = parse_args();
    // Validate shared numeric flags up front so every subcommand gives
    // the typed error for a malformed value — including ones (like
    // `fds`) whose computation never reaches LIMBO Phase 1.
    let _ = args.threads();
    let _ = args.shards();
    let _ = args.score();
    args.check_params();
    let profile = args.flags.get("profile").cloned();
    if profile.is_some() {
        if !telemetry::compiled() {
            eprintln!(
                "warning: --profile requested but telemetry is not compiled into this \
                 binary (rebuild without --no-default-features); emitting an empty report"
            );
        }
        telemetry::begin();
    }
    // Each arm drops its input (and any temporary store) before the
    // output is written, so a quiet early exit in `emit` leaves nothing
    // behind.
    let out = match args.command.as_str() {
        "analyze" => {
            let input = load_input(&args);
            let config = render::analyze_config(
                args.f64_flag("phi-t"),
                args.f64_flag("phi-v"),
                args.f64_flag("psi"),
                args.usize_flag("max-lhs"),
                args.threads(),
                args.shards(),
                args.score(),
            );
            render::run_analyze(&input.ctx, &config)
        }
        "duplicates" => {
            let input = load_input(&args);
            let phi = args.f64_flag("phi-t").unwrap_or(0.1);
            render::run_duplicates(&input.ctx, phi, args.threads(), args.shards())
        }
        "fds" => {
            let approx = args.f64_flag("approx");
            let score = args.score();
            if approx.is_some() && score == ScoreKind::Rfi {
                eprintln!("error: --approx (g3 mining) cannot be combined with --score rfi");
                exit(2);
            }
            if args.flags.contains_key("theta") && score != ScoreKind::Rfi {
                eprintln!("error: --theta requires --score rfi");
                exit(2);
            }
            let input = load_input(&args);
            render::run_fds(
                &input.ctx,
                approx,
                args.usize_flag("max-lhs"),
                args.threads(),
                score,
                args.f64_flag("theta"),
            )
        }
        "mvds" => {
            let input = load_input(&args);
            let max_lhs = args.usize_flag("max-lhs").unwrap_or(2);
            render::run_mvds(input.ctx.relation(), max_lhs)
        }
        "joins" => {
            let left_input = load_input(&args);
            let right_path = args
                .flags
                .get("with")
                .map(String::as_str)
                .unwrap_or_else(|| {
                    eprintln!("error: `joins` needs --with <other.csv>");
                    exit(2);
                });
            let right = load(right_path);
            render::run_joins(left_input.ctx.relation(), &right)
        }
        "partition" => {
            let input = load_input(&args);
            let phi = args.f64_flag("phi-t").unwrap_or(0.5);
            render::run_partition(
                &input.ctx,
                phi,
                args.usize_flag("k"),
                args.threads(),
                args.shards(),
            )
        }
        "redesign" => {
            let input = load_input(&args);
            let steps = args.usize_flag("steps").unwrap_or(3);
            let config = render::redesign_config(
                args.f64_flag("phi-t"),
                args.f64_flag("phi-v"),
                args.f64_flag("psi"),
                args.usize_flag("max-lhs"),
                args.threads(),
                args.shards(),
                args.score(),
            );
            render::run_redesign(&input.ctx, steps, &config)
        }
        _ => unreachable!("parse_args rejects unknown commands"),
    };
    emit(&out);
    if let Some(dest) = profile {
        let report = telemetry::finish();
        if dest == "-" {
            eprint!("{}", report.render_text(10));
        } else {
            if let Some(dir) = std::path::Path::new(&dest).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::write(&dest, report.to_json()) {
                Ok(()) => eprintln!("wrote run report to {dest}"),
                Err(e) => {
                    eprintln!("error: cannot write run report {dest}: {e}");
                    exit(1);
                }
            }
        }
    }
}
