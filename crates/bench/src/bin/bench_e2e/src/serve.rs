//! `serve_mixed_dblp1k`: the real `dbmined` over TCP, driven by two
//! closed-loop clients — daemon callers wait for their reply before they
//! send again, so load follows the daemon's speed.

use crate::calib::kernel_ms_across;
use crate::harness::{
    layer_metrics, member_seed, mib, overhead, push_extras, Ledger, Outcome, Run, Weights,
};
use crate::replay;
use crate::stats::{median, percentile, tail_percentile};
use crate::trace::{trace_json, Tracer};
use crate::{G3_MAX_LHS, RFI_MAX_LHS, RFI_THETA};
use dbmine::context::{AnalysisCtx, CtxCache};
use dbmine::datagen::{write_csv_path, DblpSpec, Zipf};
use dbmine::fdrank::ScoreKind;
use dbmine::relation::csv::read_relation_path;
use dbmine::render;
use dbmine::server::{parse, Json};
use dbmine::telemetry::{self, RunReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The request mix: kind, share of requests, and the op root name of its
/// traced replay.
const MIX: [(&str, f64, &str); 4] = [
    ("fds_g3", 0.40, "op.fds_g3"),
    ("fds_rfi", 0.25, "op.fds_rfi"),
    ("partition", 0.20, "op.partition"),
    ("analyze", 0.15, "op.analyze"),
];
const PARTITION_K: usize = 3;
/// Resident contexts in the daemon: half the relation pool, so both LRU
/// hits and misses occur.
const CACHE: usize = 4;
const CLIENTS: usize = 2;

/// Latencies are kept per (command, relation) bucket and weighted by how
/// often the schedule asks for each, so the metric averages over the
/// pool instead of following its cheapest relation.
fn bucket(kind: usize, rel: usize) -> String {
    format!("{}#{rel}", MIX[kind].0)
}

fn weights(relations: usize) -> Weights {
    let zipf: Vec<f64> = (1..=relations).map(|r| 1.0 / r as f64).collect();
    let norm: f64 = zipf.iter().sum();
    MIX.iter()
        .enumerate()
        .flat_map(|(kind, &(_, share, _))| {
            zipf.iter()
                .enumerate()
                .map(move |(rel, z)| (bucket(kind, rel), share * z / norm))
        })
        .collect()
}

/// The pool of relations requests name, with the in-process output of
/// every request kind on each.
struct Pool {
    paths: Vec<PathBuf>,
    expected: Vec<[String; 4]>,
}

fn expected_outputs(ctx: &AnalysisCtx) -> [String; 4] {
    let config = render::analyze_config(None, None, None, None, 1, None, ScoreKind::G3);
    [
        render::run_fds(ctx, None, Some(G3_MAX_LHS), 1, ScoreKind::G3, None),
        render::run_fds(
            ctx,
            None,
            Some(RFI_MAX_LHS),
            1,
            ScoreKind::Rfi,
            Some(RFI_THETA),
        ),
        render::run_partition(ctx, 0.5, Some(PARTITION_K), 1, None),
        render::run_analyze(ctx, &config),
    ]
}

fn request_line(kind: usize, path: &Path, profile: bool) -> String {
    let path = Json::Str(path.display().to_string()).to_string_compact();
    let body = match MIX[kind].0 {
        "fds_g3" => format!("\"cmd\":\"fds\",\"path\":{path},\"max_lhs\":{G3_MAX_LHS}"),
        "fds_rfi" => format!(
            "\"cmd\":\"fds\",\"path\":{path},\"score\":\"rfi\",\"theta\":{RFI_THETA},\"max_lhs\":{RFI_MAX_LHS}"
        ),
        "partition" => format!("\"cmd\":\"partition\",\"path\":{path},\"k\":{PARTITION_K}"),
        _ => format!("\"cmd\":\"analyze\",\"path\":{path}"),
    };
    if profile {
        format!("{{{body},\"profile\":true}}")
    } else {
        format!("{{{body}}}")
    }
}

/// A client's request stream: relations by Zipf(1) popularity, kinds by
/// the mix, both from the seed.
struct Schedule {
    rng: StdRng,
    zipf: Zipf,
}

impl Schedule {
    fn new(seed: u64, client: u64, relations: usize) -> Schedule {
        Schedule {
            rng: StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (client + 1)),
            zipf: Zipf::new(relations, 1.0),
        }
    }

    fn next(&mut self) -> (usize, usize) {
        let rel = self.zipf.sample(&mut self.rng);
        let u: f64 = self.rng.gen();
        let mut acc = 0.0;
        let kind = MIX
            .iter()
            .position(|&(_, w, _)| {
                acc += w;
                u < acc
            })
            .unwrap_or(MIX.len() - 1);
        (rel, kind)
    }
}

/// A running `dbmined --listen`. Dropping it kills the process.
struct Daemon {
    child: Child,
    addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl Daemon {
    fn start(bin_dir: &Path) -> Result<Daemon, String> {
        let exe = bin_dir.join("dbmined");
        if !exe.is_file() {
            return Err(format!(
                "dbmined not found at {}: build it into the same target directory as \
                 bench_e2e (`cargo build --release -p dbmine --bin dbmined`; run.sh does both)",
                exe.display()
            ));
        }
        let mut child = Command::new(&exe)
            .args(["--listen", "127.0.0.1:0", "--cache", &CACHE.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut first = String::new();
        let _ = reader.read_line(&mut first);
        let addr = first
            .trim()
            .strip_prefix("dbmined listening on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("dbmined did not start: {first:?}"));
        };
        let stderr = std::thread::spawn(move || {
            for line in reader.lines().map_while(Result::ok) {
                eprintln!("dbmined: {line}");
            }
        });
        Ok(Daemon {
            child,
            addr,
            stderr: Some(stderr),
        })
    }

    /// Peak resident set of the daemon so far (`VmHWM`), in MiB.
    fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("cannot read dbmined status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| mib(kb * 1024))
            .ok_or_else(|| "no VmHWM in dbmined status".to_string())
    }

    /// One request on a fresh connection.
    fn call(&self, line: &str) -> Result<Json, String> {
        let mut conn = Connection::open(self.addr)?;
        Ok(conn.call(line)?.0)
    }

    /// Asks the daemon to stop and waits for it.
    fn shutdown(mut self) -> Result<(), String> {
        self.call("{\"cmd\":\"shutdown\"}")?;
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
        if status.success() {
            Ok(())
        } else {
            Err(format!("dbmined exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// `schedstat` of the daemon thread serving this connection (the
    /// daemon runs one thread per connection), when tracked.
    daemon_thread: Option<PathBuf>,
}

/// The daemon's thread ids.
fn daemon_tasks(pid: u32) -> Result<std::collections::BTreeSet<String>, String> {
    std::fs::read_dir(format!("/proc/{pid}/task"))
        .map_err(|e| format!("cannot list dbmined threads: {e}"))?
        .map(|e| {
            e.map(|e| e.file_name().to_string_lossy().into_owned())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// CPU time a daemon thread has run, in ms (`schedstat` is exact for a
/// thread that is blocked, as a connection thread is between requests).
fn thread_cpu_ms(schedstat: &Path) -> Result<f64, String> {
    std::fs::read_to_string(schedstat)
        .ok()
        .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
        .map(|ns| ns / 1e6)
        .ok_or_else(|| format!("cannot read {}", schedstat.display()))
}

impl Connection {
    fn open(addr: SocketAddr) -> Result<Connection, String> {
        let stream =
            TcpStream::connect(addr).map_err(|e| format!("cannot connect to dbmined: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let reader = BufReader::new(stream.try_clone().map_err(|e| e.to_string())?);
        Ok(Connection {
            reader,
            writer: stream,
            daemon_thread: None,
        })
    }

    /// A connection whose daemon thread's CPU time is read around every
    /// request: the thread that appears when the connection is answered.
    /// Open tracked connections one at a time.
    fn open_tracked(daemon: &Daemon) -> Result<Connection, String> {
        let pid = daemon.child.id();
        let before = daemon_tasks(pid)?;
        let mut conn = Connection::open(daemon.addr)?;
        conn.call("{\"cmd\":\"ping\"}")?;
        let fresh: Vec<String> = daemon_tasks(pid)?.difference(&before).cloned().collect();
        let [tid] = fresh.as_slice() else {
            return Err(format!(
                "cannot tell the connection's daemon thread among {fresh:?}"
            ));
        };
        conn.daemon_thread = Some(PathBuf::from(format!("/proc/{pid}/task/{tid}/schedstat")));
        Ok(conn)
    }

    /// Sends one request line; returns the parsed reply, the round trip
    /// in ms, the daemon thread's CPU ms for it (0 when untracked) and
    /// the reply size in bytes.
    fn call(&mut self, line: &str) -> Result<(Json, f64, f64, usize), String> {
        let cpu_before = match &self.daemon_thread {
            Some(p) => thread_cpu_ms(p)?,
            None => 0.0,
        };
        let start = Instant::now();
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send failed: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("receive failed: {e}"))?;
        let ms = start.elapsed().as_secs_f64() * 1e3;
        if n == 0 {
            return Err("dbmined closed the connection".to_string());
        }
        let cpu_ms = match &self.daemon_thread {
            Some(p) => thread_cpu_ms(p)? - cpu_before,
            None => 0.0,
        };
        let json = parse(reply.trim_end()).map_err(|e| format!("bad reply: {e}"))?;
        Ok((json, ms, cpu_ms, n))
    }
}

/// One answered request.
struct Reply {
    kind: usize,
    rel: usize,
    ms: f64,
    /// CPU time the daemon spent on the request.
    cpu_ms: f64,
    /// The calibration kernel's time around this reply's phase.
    kernel_ms: f64,
    cached: bool,
    bytes: usize,
    handle_ms: f64,
}

/// What one client saw.
#[derive(Default)]
struct ClientLog {
    replies: Vec<Reply>,
    attempted: u64,
    failures: Vec<String>,
}

impl ClientLog {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }
}

/// A closed-loop client for one phase: `warmup` untimed requests, then
/// timed ones until `deadline` or until `cap` timed requests.
fn client(
    conn: &mut Connection,
    pool: &Pool,
    schedule: &mut Schedule,
    warmup: usize,
    deadline: Instant,
    cap: usize,
    profile: bool,
) -> ClientLog {
    let mut log = ClientLog::default();
    let mut timed = 0usize;
    for i in 0.. {
        let timing = i >= warmup;
        if timing && (Instant::now() >= deadline || timed >= cap) {
            break;
        }
        let (rel, kind) = schedule.next();
        let line = request_line(kind, &pool.paths[rel], profile);
        match conn.call(&line) {
            Ok((reply, ms, cpu_ms, bytes)) => {
                let output = reply.get("output").and_then(Json::as_str);
                let ok = reply.get("ok").and_then(Json::as_bool) == Some(true)
                    && output == Some(pool.expected[rel][kind].as_str());
                log.check(ok, || {
                    format!(
                        "daemon {} on relation {rel} differs from render::run_*: {:.200}",
                        MIX[kind].0,
                        reply.to_string_compact()
                    )
                });
                if ok && timing {
                    let handle_ms = reply
                        .get("report")
                        .and_then(|r| r.get("wall_ms"))
                        .and_then(Json::as_f64)
                        .unwrap_or(0.0);
                    log.replies.push(Reply {
                        kind,
                        rel,
                        ms,
                        cpu_ms,
                        kernel_ms: 0.0,
                        cached: reply.get("cached").and_then(Json::as_bool) == Some(true),
                        bytes,
                        handle_ms,
                    });
                    timed += 1;
                }
            }
            Err(e) => {
                log.check(false, || e);
                break;
            }
        }
    }
    log
}

/// Load phases between calibrations: short enough to follow the machine's
/// slow stretches, long enough that the idle calibration (three kernel
/// runs, ~50 ms) costs little.
const PHASE_SECONDS: f64 = 1.0;

/// Runs `clients` closed-loop clients for `seconds`, in phases. Between
/// phases the clients are idle while the calibration kernel runs, and
/// each phase's replies are measured against the mean of the kernel
/// before and after it. Client `c` follows request stream `stream + c`.
/// Gates go to `ledger`.
#[allow(clippy::too_many_arguments)]
fn load(
    run: &Run,
    daemon: &Daemon,
    pool: &Pool,
    ledger: &mut Ledger,
    clients: usize,
    seconds: f64,
    stream: u64,
    profile: bool,
) -> Vec<Reply> {
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut schedules: Vec<Schedule> = (0..clients)
        .map(|c| Schedule::new(run.seed, c as u64 + stream, pool.paths.len()))
        .collect();
    let cap = run.sizes.serve_requests.unwrap_or(usize::MAX);
    let mut timed = vec![0usize; clients];
    let mut warmup = run.sizes.serve_warmup;
    let mut replies = Vec::new();
    let mut conns = Vec::new();
    for _ in 0..clients {
        match Connection::open_tracked(daemon) {
            Ok(c) => conns.push(c),
            Err(e) => {
                ledger.fail(e);
                return replies;
            }
        }
    }
    // One kernel thread per client, so the kernels land on the cores the
    // busy daemon threads run on.
    let mut kernel_before = kernel_ms_across(CLIENTS, 3);
    loop {
        let phase_end = deadline.min(Instant::now() + Duration::from_secs_f64(PHASE_SECONDS));
        let logs: Vec<ClientLog> = std::thread::scope(|s| {
            let handles: Vec<_> = schedules
                .iter_mut()
                .zip(&mut conns)
                .zip(&timed)
                .map(|((schedule, conn), &done)| {
                    let left = cap.saturating_sub(done);
                    s.spawn(move || client(conn, pool, schedule, warmup, phase_end, left, profile))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        warmup = 0;
        let kernel_after = kernel_ms_across(CLIENTS, 3);
        let kernel = (kernel_before + kernel_after) / 2.0;
        kernel_before = kernel_after;
        for (c, log) in logs.into_iter().enumerate() {
            ledger.attempted += log.attempted;
            ledger.failed += log.failures.len() as u64;
            for f in log.failures {
                eprintln!("gate failed: {f}");
                if ledger.failures.len() < 20 {
                    ledger.failures.push(f);
                }
            }
            timed[c] += log.replies.len();
            replies.extend(log.replies.into_iter().map(|r| Reply {
                kernel_ms: kernel,
                ..r
            }));
        }
        if Instant::now() >= deadline || timed.iter().all(|&t| t >= cap) || ledger.failed > 0 {
            break;
        }
    }
    replies
}

fn record(ledger: &mut Ledger, replies: &[Reply]) {
    for r in replies {
        ledger.time(bucket(r.kind, r.rel), r.ms, r.cpu_ms, r.kernel_ms);
    }
}

pub fn mixed(run: &Run) -> Result<Outcome, String> {
    let mut ledger = Ledger::default();
    let n = run.sizes.serve_relations;
    let (pool, daemon) = run.set_up(&mut ledger, || {
        let mut pool = Pool {
            paths: Vec::new(),
            expected: Vec::new(),
        };
        for i in 0..n {
            let path = run.file(&format!("serve_{i}.csv"));
            let spec = DblpSpec::scaled(run.sizes.serve_tuples, member_seed(run.seed, i));
            write_csv_path(&spec, &path)
                .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
            let rel = read_relation_path(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            pool.expected
                .push(expected_outputs(&AnalysisCtx::from(rel)));
            pool.paths.push(path);
        }
        Ok((pool, Daemon::start(&run.bin_dir)?))
    })?;

    // A traced run splits the budget: 40% this untraced load, then 20%
    // each for a single-client pass without and with `"profile": true`
    // (the pair gives the tracing overhead) and for the in-process
    // replay.
    let share = |s: f64| run.seconds * if run.trace { s } else { 1.0 };
    let replies = load(
        run,
        &daemon,
        &pool,
        &mut ledger,
        CLIENTS,
        share(0.4),
        0,
        false,
    );
    record(&mut ledger, &replies);
    let stats = daemon.call("{\"cmd\":\"stats\"}");
    let lru = stats
        .as_ref()
        .ok()
        .and_then(|s| s.get("ctx_cache"))
        .map(|c| {
            let get = |k: &str| c.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            (get("hits"), get("misses"), get("evictions"))
        });
    ledger.check(lru.is_some(), || format!("stats request failed: {stats:?}"));

    let (mut single, mut profiled) = (Vec::new(), Vec::new());
    let mut tracer = Tracer::new();
    let mut iterations = Vec::new();
    let mut reports = BTreeMap::new();
    if run.trace {
        single = load(run, &daemon, &pool, &mut ledger, 1, share(0.2), 100, false);
        profiled = load(run, &daemon, &pool, &mut ledger, 1, share(0.2), 100, true);
        replay_requests(
            run,
            &pool,
            &mut ledger,
            &mut tracer,
            &mut iterations,
            &mut reports,
        );
    }
    match daemon.peak_rss_mib() {
        Ok(peak) => ledger.peaks.push(peak),
        Err(e) => ledger.fail(e),
    }
    if let Err(e) = daemon.shutdown() {
        ledger.fail(e);
    }

    let weights = weights(n);
    let mut outcome = Outcome::new(ledger);
    outcome.end_to_end(&weights);
    if run.trace {
        let mut layers = layer_metrics(&tracer, &iterations);
        let rtts: Vec<f64> = replies.iter().map(|r| r.ms).collect();
        let split = |cached: bool| -> Vec<f64> {
            replies
                .iter()
                .filter(|r| r.cached == cached)
                .map(|r| r.ms)
                .collect()
        };
        let (mut single_ledger, mut profiled_ledger) = (Ledger::default(), Ledger::default());
        record(&mut single_ledger, &single);
        record(&mut profiled_ledger, &profiled);
        let handle: Vec<f64> = profiled.iter().map(|r| r.handle_ms).collect();
        let transport: Vec<f64> = profiled.iter().map(|r| r.ms - r.handle_ms).collect();
        let kib: Vec<f64> = replies.iter().map(|r| r.bytes as f64 / 1024.0).collect();
        let (hits, misses, evictions) = lru.unwrap_or_default();
        let mut extras = BTreeMap::from([
            (
                "context.lru_hit_ratio",
                if hits + misses > 0.0 {
                    hits / (hits + misses)
                } else {
                    0.0
                },
            ),
            ("context.lru_evictions", evictions),
            ("context.warm_req_p50_ms", median(&split(true))),
            ("context.cold_req_p50_ms", median(&split(false))),
            ("server.req_p50_ms", median(&rtts)),
            ("server.handle_ms_p50", median(&handle)),
            ("server.transport_ms_p50", median(&transport)),
            ("server.response_kib_p50", median(&kib)),
            (
                "telemetry.trace_overhead_frac",
                overhead(
                    profiled_ledger.op_cost(&weights),
                    single_ledger.op_cost(&weights),
                ),
            ),
        ]);
        if let Some(p) = tail_percentile(rtts.len()) {
            extras.insert("server.req_tail_ms", percentile(&rtts, p).unwrap_or(0.0));
        }
        push_extras(&mut layers, &extras);
        outcome.per_layer = layers;
        outcome.trace = Some(trace_json(&tracer, reports));
    }
    Ok(outcome)
}

/// Replays client 0's request stream in-process for a fifth of the
/// budget: what the daemon does per request — re-read the CSV, hash it,
/// look the context up in an LRU of the same capacity, run the command —
/// as timed calls into each layer.
fn replay_requests(
    run: &Run,
    pool: &Pool,
    ledger: &mut Ledger,
    tracer: &mut Tracer,
    iterations: &mut Vec<Vec<usize>>,
    reports: &mut BTreeMap<&'static str, RunReport>,
) {
    let cache = CtxCache::new(CACHE);
    let config = render::analyze_config(None, None, None, None, 1, None, ScoreKind::G3);
    let mut schedule = Schedule::new(run.seed, 0, pool.paths.len());
    let deadline = Instant::now() + Duration::from_secs_f64(run.seconds / 5.0);
    let cap = run.sizes.serve_requests.unwrap_or(usize::MAX);
    for _ in 0..cap {
        if Instant::now() >= deadline && !iterations.is_empty() {
            break;
        }
        let (rel, kind) = schedule.next();
        let path = &pool.paths[rel];
        telemetry::begin();
        let (op, out) = tracer.op(MIX[kind].2, |t| {
            let rel = t.span("relation.request_load", |_| {
                read_relation_path(path).inspect(|r| {
                    std::hint::black_box(r.content_hash());
                })
            });
            let rel = rel.map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            let (ctx, _) = t.span("context.lru", |_| cache.get_or_insert_relation(rel));
            let before = ctx.view_stats();
            let out = match MIX[kind].0 {
                "fds_g3" => replay::fds_g3(t, &ctx, Some(G3_MAX_LHS)),
                "fds_rfi" => replay::fds_rfi(t, &ctx, RFI_THETA, Some(RFI_MAX_LHS)),
                "partition" => replay::partition(t, &ctx, PARTITION_K),
                _ => replay::analyze(t, &ctx, &config),
            };
            let after = ctx.view_stats();
            t.note("context.view_builds", (after.builds - before.builds) as f64);
            t.note("context.view_hits", (after.hits - before.hits) as f64);
            t.note(
                "context.materializations",
                (after.materializations - before.materializations) as f64,
            );
            Ok::<_, String>(out)
        });
        reports.insert(MIX[kind].0, telemetry::finish());
        iterations.push(vec![op]);
        match out {
            Ok(out) => {
                ledger.check(out == pool.expected[rel][kind], || {
                    format!(
                        "replayed {} on relation {rel} differs from render::run_*",
                        MIX[kind].0
                    )
                });
            }
            Err(e) => ledger.fail(e),
        }
    }
}
