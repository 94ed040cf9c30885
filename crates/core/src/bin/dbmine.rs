//! `dbmine` — command-line structure mining over CSV files.
//!
//! `dbmine --help` lists the commands and the flags each reads; both
//! come from the command grammar in [`dbmine::render`], which the
//! `dbmined` daemon parses its requests with too. The CLI itself reads
//! only its load flags: `--spill P` and `--profile P` on every
//! command, and `--with P`, the second file of `joins`. A flag a
//! command does not read is an error (exit 2).
//!
//! Every path, the input and the `--with` file alike, opens through
//! [`AnalysisCtx::open`], as the daemon's `path` does: a binary shard
//! store (`file.dbss`, see `dbmine::relation::spill`) — written by an
//! earlier `--spill PATH` run — loads with zero re-tokenization and
//! zero dictionary hashing and produces byte-identical output to the
//! CSV it spilled.
//!
//! Every command body lives in [`dbmine::render`], shared with the
//! `dbmined` daemon — the two front ends print byte-identical output.

use dbmine::context::{is_store_path, AnalysisCtx};
use dbmine::relation::csv::CsvError;
use dbmine::relation::ShardedRelation;
use dbmine::render::{self, Kind, ParamError, Value};
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
    let mut synopsis = String::new();
    for spec in render::COMMANDS {
        let mut words = spec.synopsis();
        if spec.name == JOINS {
            words.push("--with <other.csv>".to_string());
        }
        let mut line = format!("  dbmine {:<10} <file.csv>", spec.name);
        for word in words {
            if line.len() + 1 + word.len() > 78 {
                synopsis.push_str(&line);
                synopsis.push('\n');
                line = " ".repeat(19);
            }
            line.push(' ');
            line.push_str(&word);
        }
        synopsis.push_str(&line);
        synopsis.push('\n');
    }
    eprintln!(
        "dbmine — information-theoretic database structure mining (SIGMOD 2004)\n\
         \n\
         USAGE:\n\
         {synopsis}\
         \n\
         Every command also takes --spill P and --profile P; any other\n\
         flag a command does not read is an error.\n\
         \n\
         OPTIONS:\n\
         \x20 --phi-t F    tuple-clustering accuracy φT (default 0.1 for\n\
         \x20              analyze and duplicates, 0.5 for partition,\n\
         \x20              0.0 for redesign)\n\
         \x20 --phi-v F    value-clustering accuracy φV (default 0.0)\n\
         \x20 --psi F      FD-RANK threshold ψ in [0,1] (default 0.5)\n\
         \x20 --approx F   mine approximate FDs with g3 error ≤ F\n\
         \x20 --score S    FD quality score: g3 (default) or rfi, the\n\
         \x20              bias-corrected reliable fraction of\n\
         \x20              information. `fds --score rfi` mines reliable\n\
         \x20              dependencies (F̂ ≥ θ, branch-and-bound);\n\
         \x20              `analyze`/`redesign --score rfi` re-rank\n\
         \x20              FD-RANK output by F̂ descending\n\
         \x20 --theta F    reliability threshold θ in [0,1] for\n\
         \x20              fds --score rfi (default 0.2); an error\n\
         \x20              with any other score\n\
         \x20 --max-lhs N  bound FD left-hand-side size (default 2\n\
         \x20              for mvds, unbounded otherwise)\n\
         \x20 --k N        force the number of horizontal partitions\n\
         \x20 --steps N    decomposition steps for redesign (default 3)\n\
         \x20 --threads N  worker threads for clustering and FD mining\n\
         \x20              (1 = serial, 0 = all cores; results are\n\
         \x20              bit-identical for every thread count)\n\
         \x20 --spill P    spill the scanned CSV into a binary shard\n\
         \x20              store at P while loading; pass P (a .dbss\n\
         \x20              file) as the input of later runs to skip\n\
         \x20              CSV parsing entirely\n\
         \x20 --profile P  write a telemetry run report (spans, counters,\n\
         \x20              allocations) as JSON to path P, or print the\n\
         \x20              human-readable report to stderr with `-`"
    );
    exit(2);
}

/// The flags the CLI reads itself on every command: `--spill` chooses
/// how [`load_input`] loads the relation, and `--profile` wraps the run.
const LOAD_FLAGS: &[&str] = &["spill", "profile"];

/// The one command with a second input, read from `--with`.
const JOINS: &str = "joins";

/// Whether the CLI reads flag `name` (request-field spelling) itself.
fn load_flag(command: &str, name: &str) -> bool {
    LOAD_FLAGS.contains(&name) || (command == JOINS && name == "with")
}

struct Args {
    spec: &'static render::Spec,
    path: String,
    /// Every flag in argv order, its name spelled as a request field.
    flags: Vec<(String, String)>,
}

impl Args {
    fn flag(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The command parameters: every flag the command reads.
impl render::Source for Args {
    fn names(&self) -> Vec<&str> {
        self.flags
            .iter()
            .map(|(n, _)| n.as_str())
            .filter(|n| self.spec.param(n).is_some())
            .collect()
    }

    fn value(&self, name: &str, kind: Kind) -> Option<Value> {
        let raw = self.flag(name)?;
        match kind {
            Kind::Real => raw.parse().ok().map(Value::Real),
            Kind::Count => raw.parse().ok().map(Value::Count),
            Kind::Score => raw.parse().ok().map(Value::Score),
        }
    }
}

/// A usage error: one `error: …` line on stderr, exit 2.
fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    exit(2);
}

/// A flag value that failed to parse or is out of range is a typed,
/// named error — never a bare usage dump, and never a panic.
fn bad_flag(name: &str, value: &str) -> ! {
    fail(&format!("invalid value for --{name}: `{value}`"))
}

fn parse_args() -> Args {
    let mut it = std::env::args().skip(1);
    let command = it.next().unwrap_or_else(|| usage());
    if command == "--help" || command == "-h" || command == "help" {
        usage();
    }
    let spec = render::command(&command).unwrap_or_else(|| usage());
    let path = it.next().unwrap_or_else(|| usage());
    let mut flags: Vec<(String, String)> = Vec::new();
    while let Some(token) = it.next() {
        let Some(flag) = token.strip_prefix("--") else {
            fail(&format!("unexpected argument `{token}`"));
        };
        let name = flag.replace('-', "_");
        if flag.contains('_') || (spec.param(&name).is_none() && !load_flag(&command, &name)) {
            fail(&format!("unknown flag --{flag} for `{command}`"));
        }
        if flags.iter().any(|(n, _)| *n == name) {
            fail(&format!("flag --{flag} given more than once"));
        }
        let value = it
            .next()
            .unwrap_or_else(|| fail(&format!("flag --{flag} requires a value")));
        flags.push((name, value));
    }
    Args { spec, path, flags }
}

/// Spells a refused command parameter as a CLI error, exit 2.
fn param_error(args: &Args, e: &ParamError) -> ! {
    let flag = e.name().replace('_', "-");
    match e {
        ParamError::Unread(_) => fail(&format!("unknown flag --{flag} for `{}`", args.spec.name)),
        ParamError::Type(_) | ParamError::Range { .. } => {
            bad_flag(&flag, args.flag(e.name()).unwrap_or_default())
        }
        ParamError::ApproxWithRfi => {
            fail("--approx (g3 mining) cannot be combined with --score rfi")
        }
        ParamError::ThetaWithoutRfi => fail("--theta requires --score rfi"),
    }
}

/// Exits with `error: {what}: {e}`, exit 1, on a load failure.
fn or_exit<T>(result: Result<T, CsvError>, what: &str) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("error: {what}: {e}");
        exit(1);
    })
}

/// Prints the one `loaded` line of an opened relation. Its dictionary
/// holds the NULL sentinel plus exactly the non-null values that occur,
/// so the count is the same from a CSV, a spill and the stored file.
fn loaded(ctx: AnalysisCtx) -> AnalysisCtx {
    eprintln!(
        "loaded {}: {} tuples × {} attributes, {} distinct values",
        ctx.name(),
        ctx.n_tuples(),
        ctx.n_attrs(),
        ctx.dict().len() - 1
    );
    ctx
}

/// Opens a path the one way both front ends do, [`AnalysisCtx::open`].
fn open(path: &str) -> AnalysisCtx {
    let ctx = AnalysisCtx::open(path);
    loaded(or_exit(ctx, &format!("cannot read {path}")))
}

/// Loads the primary input. A CSV is spilled to a store on the way in
/// when `--spill PATH` names one, and its context then streams every
/// view from that store; any other input — a CSV, or a `.dbss` store —
/// opens through [`AnalysisCtx::open`]. All paths produce
/// byte-identical command output.
fn load_input(args: &Args) -> AnalysisCtx {
    let path = args.path.as_str();
    let Some(store_path) = args.flag("spill") else {
        return open(path);
    };
    if is_store_path(path) {
        eprintln!("error: --spill expects CSV input; {path} is already a shard store");
        exit(2);
    }
    let ctx = ShardedRelation::scan_csv_path_spill(path, 0, store_path)
        .inspect(|s| eprintln!("spilled {} chunks to {store_path}", s.n_chunks()))
        .and_then(AnalysisCtx::from_chunks);
    loaded(or_exit(ctx, &format!("cannot spill {path}")))
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
            let msg = info.payload_as_str().unwrap_or("internal error");
            eprintln!("error: {msg}");
            exit(1);
        }));
    }
    let args = parse_args();
    let command =
        render::Command::parse(args.spec, &args).unwrap_or_else(|e| param_error(&args, &e));
    let with = args.flag("with");
    if args.spec.name == JOINS && with.is_none() {
        fail("`joins` needs --with <other.csv>");
    }
    let profile = args.flag("profile");
    if profile.is_some() {
        if !telemetry::compiled() {
            eprintln!(
                "warning: --profile requested but telemetry is not compiled into this \
                 binary (rebuild without --no-default-features); emitting an empty report"
            );
        }
        telemetry::begin();
    }
    // The inputs are dropped before the output is written.
    let out = {
        let ctx = load_input(&args);
        let right = with.map(open);
        command.run(&ctx, right.as_ref())
    };
    emit(&out);
    if let Some(dest) = profile {
        let report = telemetry::finish();
        if dest == "-" {
            eprint!("{}", report.render_text(10));
        } else {
            if let Some(dir) = std::path::Path::new(dest).parent() {
                let _ = std::fs::create_dir_all(dir);
            }
            match std::fs::write(dest, report.to_json() + "\n") {
                Ok(()) => eprintln!("wrote run report to {dest}"),
                Err(e) => {
                    eprintln!("error: cannot write run report {dest}: {e}");
                    exit(1);
                }
            }
        }
    }
}
