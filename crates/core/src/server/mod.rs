//! `dbmined` — the serving daemon behind the single-shot CLI.
//!
//! A [`Daemon`] answers a line-delimited JSON protocol: one request
//! object per line in, one response object per line out. Each relation
//! request opens its relation the way the CLI does — a `path` through
//! [`AnalysisCtx::open`] (a `.dbss` shard store, or else a CSV), inline
//! `csv` text read into memory — and resolves it by
//! [`AnalysisCtx::content_hash`] through a shared [`CtxCache`] LRU of
//! `Arc<AnalysisCtx>`. Repeated requests against the same relation
//! reuse every memoized view (tuple rows, value index, partitions) and
//! perform **zero** view rebuilds, which each response proves by
//! echoing the context's cumulative `view_stats`. A CSV request is
//! parsed and hashed once; a store request reads the hash from the
//! footer and decodes no block, warm or cold.
//!
//! ## Protocol
//!
//! A request names its command in `cmd` and may carry an `id`, echoed
//! verbatim in the response. The relation commands, whose `output` is
//! byte-identical to the CLI's stdout, also take the relation as a
//! `path` or as inline `csv` text (named by `name`), `"profile": true`,
//! and the command's parameters:
//!
//! ```json
//! {"id": 1, "cmd": "partition", "path": "data.csv", "k": 4, "phi_t": 0.5}
//! ```
//!
//! The served commands and the parameters each reads are the rows of
//! [`render::COMMANDS`] (`dbmined --help` lists them). They are read,
//! defaulted and checked by [`render::Command::parse`], the grammar the
//! CLI parses its flags with, so a field means what the flag of the
//! same name (`-` for `_`) means. `ping`, `stats` and `shutdown` take
//! only `id` and `cmd`.
//!
//! The daemon serves exactly the relations the CSV and `.dbss` readers
//! accept, as the CLI does: an empty relation (a header-only CSV, n = 0)
//! is answered `ok`, with the CLI's output for it.
//!
//! A field the command does not read, malformed JSON (a repeated key
//! included), an unreadable CSV or store, out-of-range parameters,
//! non-UTF-8 lines and lines longer than [`MAX_REQUEST_LINE_BYTES`] all
//! produce `{"id":…,"ok":false,"error":"…"}` — the daemon never tears
//! down on a bad request, and a panic on the request path is caught and
//! reported as an error response (backstop; the handlers are panic-free
//! by construction).
//!
//! `"profile": true` wraps the request in a telemetry window and embeds
//! the [`RunReport`] in the response, in the single-line
//! [`RunReport::to_json`] layout `--profile` writes. Telemetry
//! collection is process-global, so profiled requests take a write lock
//! on the daemon while normal requests share a read lock: a profiled
//! window never includes another request's spans.

mod json;

pub use json::{parse, Json, ParseError};

use crate::render::{self, Kind, ParamError, Value};
use dbmine_context::{AnalysisCtx, CtxCache, CtxCacheStats};
use dbmine_relation::csv::read_relation;
use dbmine_telemetry as telemetry;
use dbmine_telemetry::RunReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::{BufRead, Read, Write};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};

/// Default number of resident contexts.
pub const DEFAULT_CACHE_CAPACITY: usize = 8;

/// The longest request line the daemon reads, newline excluded: 64 MiB,
/// generous for inline `csv` while bounding what one line can make a
/// connection hold in memory.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 << 20;

/// One handled request: the response line (no trailing newline) and
/// whether the request asked the daemon to shut down.
#[derive(Clone, Debug)]
pub struct Handled {
    pub line: String,
    pub shutdown: bool,
}

impl Handled {
    /// The `"ok":false` response to request `id`.
    fn error(id: &Json, message: &str) -> Handled {
        Handled {
            line: format!(
                "{{\"id\":{},\"ok\":false,\"error\":\"{}\"}}",
                id.to_string_compact(),
                json::escape(message)
            ),
            shutdown: false,
        }
    }
}

/// Consumes `input` up to and including the next newline (or EOF)
/// without keeping it.
fn discard_line(input: &mut impl BufRead) -> std::io::Result<()> {
    loop {
        let chunk = input.fill_buf()?;
        if chunk.is_empty() {
            return Ok(());
        }
        match chunk.iter().position(|&b| b == b'\n') {
            Some(i) => {
                input.consume(i + 1);
                return Ok(());
            }
            None => {
                let len = chunk.len();
                input.consume(len);
            }
        }
    }
}

/// The daemon state shared by every connection: the context LRU and the
/// profiling gate.
pub struct Daemon {
    cache: CtxCache,
    /// Read = normal request, write = profiled request (telemetry
    /// begin/finish is process-global; see the module docs).
    profile_gate: RwLock<()>,
    shutdown: AtomicBool,
}

impl Daemon {
    /// A daemon holding at most `capacity` contexts.
    pub fn new(capacity: usize) -> Self {
        Daemon {
            cache: CtxCache::new(capacity),
            profile_gate: RwLock::new(()),
            shutdown: AtomicBool::new(false),
        }
    }

    /// The shared context cache (exposed for tests and stats).
    pub fn cache(&self) -> &CtxCache {
        &self.cache
    }

    /// True once a `shutdown` request has been handled.
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Handles one request line, returning exactly one response line.
    /// Never panics: every failure mode is an `"ok":false` response.
    pub fn handle_line(&self, line: &str) -> Handled {
        let (id, result) = match parse(line) {
            Err(e) => (Json::Null, Err(e.to_string())),
            Ok(v) => {
                let id = v.get("id").cloned().unwrap_or(Json::Null);
                match Request::from_json(&v) {
                    Err(e) => (id, Err(e)),
                    Ok(req) => {
                        let outcome = catch_unwind(AssertUnwindSafe(|| self.dispatch(&req)));
                        let res = match outcome {
                            Ok(r) => r,
                            Err(payload) => Err(format!(
                                "internal error: request handler panicked: {}",
                                panic_message(&payload)
                            )),
                        };
                        (id, res)
                    }
                }
            }
        };
        match result {
            Ok(body) => {
                let shutdown = body.shutdown;
                if shutdown {
                    self.shutdown.store(true, Ordering::SeqCst);
                }
                Handled {
                    line: body.into_line(&id),
                    shutdown,
                }
            }
            Err(message) => Handled::error(&id, &message),
        }
    }

    /// Serves a whole connection: one request per line until EOF or a
    /// `shutdown` request. Blank lines are ignored.
    ///
    /// A line is read into memory only up to [`MAX_REQUEST_LINE_BYTES`]:
    /// a longer one is discarded up to its newline and answered with a
    /// `"request line exceeds … bytes"` error, and the connection keeps
    /// serving. A line that is not UTF-8 is answered with an error too.
    ///
    /// Each reply goes out in a single `write_all` of the line and its
    /// newline: on an unbuffered socket, a separate newline write would
    /// sit behind Nagle's algorithm until the client's delayed ACK.
    pub fn serve_lines(
        &self,
        mut input: impl BufRead,
        mut output: impl Write,
    ) -> std::io::Result<()> {
        // One byte past the cap tells an oversize line from one at it.
        let cap = MAX_REQUEST_LINE_BYTES as u64 + 1;
        loop {
            let mut buf = Vec::new();
            if input.by_ref().take(cap).read_until(b'\n', &mut buf)? == 0 {
                break;
            }
            let handled = if buf.last() == Some(&b'\n') || buf.len() <= MAX_REQUEST_LINE_BYTES {
                let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
                let line = line.strip_suffix(b"\r").unwrap_or(line);
                match std::str::from_utf8(line) {
                    Ok(line) if line.trim().is_empty() => continue,
                    Ok(line) => self.handle_line(line),
                    Err(_) => Handled::error(&Json::Null, "request line is not valid UTF-8"),
                }
            } else {
                discard_line(&mut input)?;
                Handled::error(
                    &Json::Null,
                    &format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"),
                )
            };
            let mut reply = handled.line;
            reply.push('\n');
            output.write_all(reply.as_bytes())?;
            output.flush()?;
            if handled.shutdown {
                break;
            }
        }
        Ok(())
    }

    fn dispatch(&self, req: &Request) -> Result<Body, String> {
        match req {
            Request::Ping => Ok(Body::plain("ping", "pong")),
            Request::Stats => Ok(Body {
                ctx_cache: Some(self.cache.stats()),
                ..Body::plain("stats", "ok")
            }),
            Request::Shutdown => Ok(Body {
                shutdown: true,
                ..Body::plain("shutdown", "bye")
            }),
            Request::Relation(req) if req.profile => {
                let _gate = self.profile_gate.write().unwrap_or_else(|e| e.into_inner());
                telemetry::begin();
                let result = self.run_relation_cmd(req);
                let report = telemetry::finish();
                result.map(|mut body| {
                    body.report = Some(report);
                    body
                })
            }
            Request::Relation(req) => {
                let _gate = self.profile_gate.read().unwrap_or_else(|e| e.into_inner());
                self.run_relation_cmd(req)
            }
        }
    }

    /// Opens the request's relation and resolves it through the LRU by
    /// content hash. A CSV is parsed and hashed once; a `.dbss` store
    /// is keyed by the hash its footer recorded, so neither a warm hit
    /// (one warmed by a CSV request over the same content included) nor
    /// a cold admission decodes a block — the admitted context streams
    /// its views from the store on demand.
    fn run_relation_cmd(&self, req: &RelationRequest) -> Result<Body, String> {
        let _span = span_for(req.command.name());
        let ctx = req.open()?;
        let hash = ctx.content_hash();
        let (ctx, cached) = self
            .cache
            .get_or_insert_with(hash, || Ok::<_, String>(ctx))?;
        let output = req.command.run(&ctx, None);
        Ok(Body {
            cmd: req.command.name().to_string(),
            cached: Some(cached),
            output,
            view_stats: Some(ctx.view_stats()),
            relation: Some((ctx, hash)),
            ctx_cache: Some(self.cache.stats()),
            report: None,
            shutdown: false,
        })
    }
}

/// The per-command telemetry root span. Names are static so the span
/// skeleton gate can pin the daemon's request shape.
fn span_for(cmd: &str) -> telemetry::Span {
    match cmd {
        "analyze" => telemetry::span("serve.analyze"),
        "duplicates" => telemetry::span("serve.duplicates"),
        "fds" => telemetry::span("serve.fds"),
        "partition" => telemetry::span("serve.partition"),
        "redesign" => telemetry::span("serve.redesign"),
        _ => telemetry::span("serve.other"),
    }
}

fn panic_message(payload: &Box<dyn std::any::Any + Send>) -> &str {
    if let Some(s) = payload.downcast_ref::<&str>() {
        s
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s
    } else {
        "<non-string panic payload>"
    }
}

/// A parsed, validated request.
#[derive(Debug)]
enum Request {
    Ping,
    Stats,
    Shutdown,
    Relation(Box<RelationRequest>),
}

/// A relation command and the relation it runs on.
#[derive(Debug)]
struct RelationRequest {
    command: render::Command,
    path: Option<String>,
    csv: Option<String>,
    name: Option<String>,
    profile: bool,
}

/// The fields the daemon reads itself; every other field of a relation
/// request is a command parameter.
const TRANSPORT_FIELDS: &[&str] = &["id", "cmd", "path", "csv", "name", "profile"];

/// A relation request's command parameters.
struct Fields<'a>(&'a BTreeMap<String, Json>);

impl render::Source for Fields<'_> {
    fn names(&self) -> Vec<&str> {
        self.0
            .keys()
            .map(String::as_str)
            .filter(|k| !TRANSPORT_FIELDS.contains(k))
            .collect()
    }

    fn value(&self, name: &str, kind: Kind) -> Option<Value> {
        let v = self.0.get(name)?;
        match kind {
            Kind::Real => v.as_f64().map(Value::Real),
            Kind::Count => v.as_usize().map(Value::Count),
            Kind::Score => v.as_str()?.parse().ok().map(Value::Score),
        }
    }
}

/// Spells a refused command parameter as a protocol error.
fn param_error(cmd: &str, e: &ParamError) -> String {
    match e {
        ParamError::Unread(name) => format!("unknown field `{name}` for `{cmd}`"),
        ParamError::Type(p) => format!(
            "field `{}` must be {}",
            p.name,
            match p.kind {
                Kind::Real => "a number",
                Kind::Count => "a non-negative integer",
                Kind::Score => "`g3` or `rfi`",
            }
        ),
        ParamError::Range { name, rule } => format!("field `{name}` {rule}"),
        ParamError::ApproxWithRfi => {
            "field `approx` (g3 mining) cannot be combined with score `rfi`".to_string()
        }
        ParamError::ThetaWithoutRfi => "field `theta` requires `fds` with score `rfi`".to_string(),
    }
}

impl Request {
    fn from_json(v: &Json) -> Result<Request, String> {
        let Json::Obj(fields) = v else {
            return Err("request must be a JSON object".to_string());
        };
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("missing required field `cmd` (string)")?;
        let control = match cmd {
            "ping" => Some(Request::Ping),
            "stats" => Some(Request::Stats),
            "shutdown" => Some(Request::Shutdown),
            _ => None,
        };
        if let Some(control) = control {
            return match fields.keys().find(|k| !matches!(k.as_str(), "id" | "cmd")) {
                Some(key) => Err(format!("unknown field `{key}` for `{cmd}`")),
                None => Ok(control),
            };
        }
        let spec = render::command(cmd)
            .filter(|spec| spec.served)
            .ok_or_else(|| format!("unknown command `{cmd}`"))?;
        let str_field = |key: &str| -> Result<Option<String>, String> {
            match v.get(key) {
                None => Ok(None),
                Some(Json::Str(s)) => Ok(Some(s.clone())),
                Some(_) => Err(format!("field `{key}` must be a string")),
            }
        };
        let path = str_field("path")?;
        let csv = str_field("csv")?;
        let name = str_field("name")?;
        if name.is_some() && csv.is_none() {
            return Err("field `name` is only valid with inline `csv`".to_string());
        }
        let profile = match v.get("profile") {
            None => false,
            Some(j) => j.as_bool().ok_or("field `profile` must be a boolean")?,
        };
        let command =
            render::Command::parse(spec, &Fields(fields)).map_err(|e| param_error(cmd, &e))?;
        Ok(Request::Relation(Box::new(RelationRequest {
            command,
            path,
            csv,
            name,
            profile,
        })))
    }
}

impl RelationRequest {
    /// The relation the request names: a `path` through
    /// [`AnalysisCtx::open`], or inline `csv` read into memory.
    fn open(&self) -> Result<AnalysisCtx, String> {
        match (&self.path, &self.csv) {
            (Some(path), None) => {
                AnalysisCtx::open(path).map_err(|e| format!("cannot read {path}: {e}"))
            }
            (None, Some(csv)) => {
                let name = self.name.as_deref().unwrap_or("inline");
                read_relation(csv.as_bytes(), name)
                    .map(AnalysisCtx::from)
                    .map_err(|e| format!("cannot parse inline csv: {e}"))
            }
            _ => Err("exactly one of `path` or `csv` must be given".to_string()),
        }
    }
}

/// An `"ok":true` response under construction.
#[derive(Debug)]
struct Body {
    cmd: String,
    /// The context a relation command ran on, and its content hash.
    relation: Option<(Arc<AnalysisCtx>, u64)>,
    cached: Option<bool>,
    output: String,
    view_stats: Option<dbmine_context::ViewStats>,
    ctx_cache: Option<CtxCacheStats>,
    report: Option<RunReport>,
    shutdown: bool,
}

impl Body {
    fn plain(cmd: &str, output: &str) -> Body {
        Body {
            cmd: cmd.to_string(),
            relation: None,
            cached: None,
            output: output.to_string(),
            view_stats: None,
            ctx_cache: None,
            report: None,
            shutdown: false,
        }
    }

    fn into_line(self, id: &Json) -> String {
        let mut out = String::with_capacity(256 + self.output.len());
        write!(
            out,
            "{{\"id\":{},\"ok\":true,\"cmd\":\"{}\"",
            id.to_string_compact(),
            json::escape(&self.cmd)
        )
        .unwrap();
        if let Some((ctx, hash)) = &self.relation {
            write!(
                out,
                ",\"relation\":{{\"name\":\"{}\",\"tuples\":{},\"attrs\":{},\"content_hash\":\"{:016x}\"}}",
                json::escape(ctx.name()),
                ctx.n_tuples(),
                ctx.n_attrs(),
                hash
            )
            .unwrap();
        }
        if let Some(cached) = self.cached {
            write!(out, ",\"cached\":{cached}").unwrap();
        }
        write!(out, ",\"output\":\"{}\"", json::escape(&self.output)).unwrap();
        if let Some(vs) = self.view_stats {
            write!(
                out,
                ",\"view_stats\":{{\"builds\":{},\"hits\":{},\"materializations\":{}}}",
                vs.builds, vs.hits, vs.materializations
            )
            .unwrap();
        }
        if let Some(s) = self.ctx_cache {
            write!(
                out,
                ",\"ctx_cache\":{{\"hits\":{},\"misses\":{},\"evictions\":{},\"entries\":{},\"capacity\":{}}}",
                s.hits, s.misses, s.evictions, s.entries, s.capacity
            )
            .unwrap();
        }
        if let Some(report) = &self.report {
            write!(out, ",\"report\":{}", report_json_compact(report)).unwrap();
        }
        out.push('}');
        out
    }
}

/// The `--profile` run report, on the one line a response embeds it in.
pub fn report_json_compact(r: &RunReport) -> String {
    r.to_json()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure4_csv() -> &'static str {
        "A,B,C\na,1,p\na,1,r\nw,2,x\ny,2,x\nz,2,x\n"
    }

    /// `ping`, `stats` and `shutdown` take no relation.
    const PING: &str = "{\"cmd\":\"ping\"}";

    fn request(cmd: &str) -> String {
        format!(
            "{{\"id\":1,\"cmd\":\"{cmd}\",\"csv\":\"{}\"}}",
            figure4_csv().replace('\n', "\\n")
        )
    }

    #[test]
    fn analyze_roundtrip_is_valid_single_line_json() {
        let d = Daemon::new(4);
        let h = d.handle_line(&request("analyze"));
        assert!(!h.shutdown);
        assert!(!h.line.contains('\n'));
        let v = parse(&h.line).expect("response must be valid JSON");
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(v.get("cached"), Some(&Json::Bool(false)));
        assert!(v
            .get("output")
            .and_then(Json::as_str)
            .unwrap()
            .contains("# column profile"));
    }

    #[test]
    fn second_request_is_cached_with_zero_new_builds() {
        let d = Daemon::new(4);
        let r1 = parse(&d.handle_line(&request("analyze")).line).unwrap();
        let r2 = parse(&d.handle_line(&request("analyze")).line).unwrap();
        assert_eq!(r1.get("cached"), Some(&Json::Bool(false)));
        assert_eq!(r2.get("cached"), Some(&Json::Bool(true)));
        // Cumulative per-context builds must not move between requests.
        let builds = |r: &Json| {
            r.get("view_stats")
                .and_then(|v| v.get("builds"))
                .and_then(Json::as_usize)
                .unwrap()
        };
        assert_eq!(builds(&r1), builds(&r2), "second request rebuilt views");
        let hash = |r: &Json| {
            r.get("relation")
                .and_then(|v| v.get("content_hash"))
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        assert_eq!(hash(&r1), hash(&r2));
    }

    #[test]
    fn malformed_and_invalid_requests_error_and_daemon_survives() {
        let d = Daemon::new(4);
        for bad in [
            "not json",
            "{\"cmd\":\"nope\"}",
            "{\"cmd\":\"analyze\"}",
            "{\"cmd\":\"analyze\",\"path\":\"a\",\"csv\":\"b\"}",
            "{\"cmd\":\"analyze\",\"csv\":\"A,B\\n1,2\\n\",\"wat\":1}",
            "{\"cmd\":\"analyze\",\"csv\":\"A,B\\n1,2\\n\",\"psi\":2.0}",
            "{\"cmd\":\"partition\",\"csv\":\"A,B\\n1,2\\n\",\"k\":0}",
            "{\"cmd\":\"analyze\",\"csv\":\"A,B\\n1,2\\n\",\"shards\":\"four\"}",
            "{\"cmd\":\"analyze\",\"csv\":\"A,B\\n1,2\\n\",\"shards\":-1}",
            "{\"cmd\":\"analyze\",\"path\":\"/nonexistent/x.csv\"}",
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"score\":\"g4\"}",
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"score\":3}",
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"theta\":1.5}",
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"approx\":1.5}",
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"approx\":0.1,\"score\":\"rfi\"}",
        ] {
            let h = d.handle_line(bad);
            let v = parse(&h.line).expect("error responses are valid JSON");
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "for {bad}");
            assert!(v.get("error").and_then(Json::as_str).is_some());
        }
        // Still serving.
        let v = parse(&d.handle_line(&request("fds")).line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn theta_without_reliable_fds_is_a_typed_error() {
        let d = Daemon::new(4);
        let error = |line: &str| {
            let v = parse(&d.handle_line(line).line).expect("valid JSON");
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "for {line}");
            v.get("error").and_then(Json::as_str).unwrap().to_string()
        };
        for line in [
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"theta\":0.5}",
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"score\":\"g3\",\"theta\":0.5}",
        ] {
            assert_eq!(error(line), "field `theta` requires `fds` with score `rfi`");
        }
        // Only `fds` reads `theta`: on any other command it is an unread
        // field, as `--theta` is an unknown flag there.
        for (cmd, line) in [
            (
                "analyze",
                "{\"cmd\":\"analyze\",\"csv\":\"A,B\\n1,2\\n\",\"score\":\"rfi\",\"theta\":0.5}",
            ),
            (
                "partition",
                "{\"cmd\":\"partition\",\"csv\":\"A,B\\n1,2\\n\",\"theta\":0.5}",
            ),
            (
                "duplicates",
                "{\"cmd\":\"duplicates\",\"csv\":\"A,B\\n1,2\\n\",\"theta\":0.5}",
            ),
            (
                "redesign",
                "{\"cmd\":\"redesign\",\"csv\":\"A,B\\n1,2\\n\",\"theta\":0.5}",
            ),
        ] {
            assert_eq!(error(line), format!("unknown field `theta` for `{cmd}`"));
        }
        // The range check runs before the score rule: an out-of-range
        // theta reports its range whatever the score.
        let bad = error("{\"cmd\":\"fds\",\"csv\":\"A,B\\n1,2\\n\",\"theta\":1.5}");
        assert!(bad.starts_with("field `theta` must"), "{bad}");
    }

    #[test]
    fn fields_the_command_does_not_read_are_errors() {
        let d = Daemon::new(4);
        let csv = figure4_csv().replace('\n', "\\n");
        for (line, expect) in [
            (
                format!("{{\"cmd\":\"fds\",\"csv\":\"{csv}\",\"k\":3}}"),
                "unknown field `k` for `fds`",
            ),
            (
                format!("{{\"cmd\":\"duplicates\",\"csv\":\"{csv}\",\"psi\":0.3,\"max_lhs\":2}}"),
                "unknown field `max_lhs` for `duplicates`",
            ),
            (
                format!("{{\"cmd\":\"analyze\",\"csv\":\"{csv}\",\"steps\":2}}"),
                "unknown field `steps` for `analyze`",
            ),
            (
                "{\"cmd\":\"ping\",\"path\":\"x.csv\"}".to_string(),
                "unknown field `path` for `ping`",
            ),
            (
                "{\"cmd\":\"mvds\",\"path\":\"x.csv\"}".to_string(),
                "unknown command `mvds`",
            ),
        ] {
            let v = parse(&d.handle_line(&line).line).unwrap();
            assert_eq!(v.get("ok"), Some(&Json::Bool(false)), "for {line}");
            assert_eq!(v.get("error").and_then(Json::as_str), Some(expect));
        }
    }

    #[test]
    fn run_report_json_parses_with_every_counter_and_span() {
        use telemetry::{CounterSnapshot, ReportNode, COUNTERS};
        let mut counters = CounterSnapshot::default();
        for (i, v) in counters.values.iter_mut().enumerate() {
            *v = 10 + i as u64;
        }
        let node = |name, calls, children| ReportNode {
            name,
            calls,
            total_ms: 1.25,
            self_ms: 0.5,
            counters,
            alloc_events: 3,
            children,
        };
        let report = RunReport {
            compiled: true,
            wall_ms: 2.0,
            counters,
            alloc_events: 7,
            alloc_peak_bytes: 64,
            alloc_installed: true,
            roots: vec![
                node(
                    "serve.fds",
                    1,
                    vec![node("fdmine.tane", 2, vec![node("tane.level", 3, vec![])])],
                ),
                node("serve.analyze", 4, vec![]),
            ],
        };
        let line = report.to_json();
        assert!(!line.contains('\n'));
        let v = parse(&line).expect("the run report is valid JSON");
        assert_eq!(line, report_json_compact(&report));
        for c in COUNTERS {
            let got = v.get("counters").and_then(|m| m.get(c.name()));
            assert_eq!(got.and_then(Json::as_usize), Some(counters.get(c) as usize));
        }
        fn check(json: &Json, node: &ReportNode) {
            assert_eq!(json.get("name").and_then(Json::as_str), Some(node.name));
            assert_eq!(
                json.get("calls").and_then(Json::as_usize),
                Some(node.calls as usize)
            );
            for (name, n) in node.counters.nonzero() {
                let got = json.get("counters").and_then(|m| m.get(name));
                assert_eq!(got.and_then(Json::as_usize), Some(n as usize));
            }
            let Some(Json::Arr(children)) = json.get("children") else {
                panic!("children must be an array");
            };
            assert_eq!(children.len(), node.children.len());
            for (j, c) in children.iter().zip(&node.children) {
                check(j, c);
            }
        }
        let Some(Json::Arr(spans)) = v.get("spans") else {
            panic!("spans must be an array");
        };
        assert_eq!(spans.len(), report.roots.len());
        for (j, r) in spans.iter().zip(&report.roots) {
            check(j, r);
        }
    }

    #[test]
    fn threads_request_output_is_byte_identical() {
        let d = Daemon::new(4);
        let csv = figure4_csv().replace('\n', "\\n");
        let out = |line: &str| {
            parse(&d.handle_line(line).line)
                .unwrap()
                .get("output")
                .and_then(Json::as_str)
                .unwrap()
                .to_string()
        };
        for cmd in ["analyze", "duplicates", "partition"] {
            let serial = out(&format!("{{\"cmd\":\"{cmd}\",\"csv\":\"{csv}\"}}"));
            for threads in [0, 1, 4] {
                let line = format!("{{\"cmd\":\"{cmd}\",\"csv\":\"{csv}\",\"threads\":{threads}}}");
                assert_eq!(out(&line), serial, "cmd {cmd} threads {threads}");
            }
            // The retired Phase 1 knob is an unknown field, like any other.
            let sharded = format!("{{\"cmd\":\"{cmd}\",\"csv\":\"{csv}\",\"shards\":4}}");
            let v = parse(&d.handle_line(&sharded).line).unwrap();
            assert_eq!(
                v.get("error").and_then(Json::as_str),
                Some(format!("unknown field `shards` for `{cmd}`").as_str())
            );
        }
    }

    #[test]
    fn store_backed_request_shares_cache_and_output_with_csv() {
        let dir = std::env::temp_dir().join("dbmine_daemon_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join(format!("fig4_{}.csv", std::process::id()));
        let store_path = dir.join(format!("fig4_{}.dbss", std::process::id()));
        std::fs::write(&csv_path, figure4_csv()).unwrap();
        let spilled =
            dbmine_relation::ShardedRelation::scan_csv_path_spill(&csv_path, 0, &store_path)
                .unwrap();

        let d = Daemon::new(4);
        let by_path =
            |p: &std::path::Path| format!("{{\"cmd\":\"analyze\",\"path\":\"{}\"}}", p.display());
        let cold = parse(&d.handle_line(&by_path(&csv_path)).line).unwrap();
        let store = parse(&d.handle_line(&by_path(&store_path)).line).unwrap();
        assert_eq!(cold.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(store.get("ok"), Some(&Json::Bool(true)));
        // The store request is keyed by the *stored* content hash, so it
        // must warm-hit the entry the CSV request built — zero decodes —
        // and produce byte-identical output.
        assert_eq!(store.get("cached"), Some(&Json::Bool(true)));
        assert_eq!(store.get("output"), cold.get("output"));
        assert_eq!(store.get("relation"), cold.get("relation"));
        let hash = store
            .get("relation")
            .and_then(|v| v.get("content_hash"))
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        assert_eq!(hash, format!("{:016x}", spilled.content_hash()));

        // A corrupted store is a protocol error, not a panic, and the
        // daemon keeps serving afterwards.
        let mut bytes = std::fs::read(&store_path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        let bad_path = dir.join(format!("fig4_{}_bad.dbss", std::process::id()));
        std::fs::write(&bad_path, bytes).unwrap();
        let bad = parse(&d.handle_line(&by_path(&bad_path)).line).unwrap();
        assert_eq!(bad.get("ok"), Some(&Json::Bool(false)));
        assert!(bad.get("error").and_then(Json::as_str).is_some());
        let again = parse(&d.handle_line(&by_path(&store_path)).line).unwrap();
        assert_eq!(again.get("ok"), Some(&Json::Bool(true)));

        for p in [&csv_path, &store_path, &bad_path] {
            std::fs::remove_file(p).ok();
        }
    }

    #[test]
    fn redesign_request_honours_max_lhs() {
        use dbmine_datagen::{db2_sample, Db2Spec};
        let dir = std::env::temp_dir().join("dbmine_daemon_redesign_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("db2_{}.csv", std::process::id()));
        dbmine_relation::csv::write_relation_path(&db2_sample(&Db2Spec::default()).relation, &path)
            .unwrap();
        let ctx = AnalysisCtx::from(dbmine_relation::csv::read_relation_path(&path).unwrap());

        let d = Daemon::new(4);
        let output = |extra: &str| {
            let line = format!(
                "{{\"cmd\":\"redesign\",\"path\":\"{}\"{extra}}}",
                path.display()
            );
            let v = parse(&d.handle_line(&line).line).unwrap();
            v.get("output").and_then(Json::as_str).unwrap().to_string()
        };
        let bounded = crate::MinerConfig {
            max_lhs: Some(1),
            ..crate::MinerConfig::default()
        };
        let out = output(",\"max_lhs\":1");
        assert_eq!(out, render::run_redesign(&ctx, 3, &bounded));
        assert_ne!(out, output(""), "max_lhs must reach the redesign miner");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn rfi_fds_request_mines_reliable_dependencies() {
        let d = Daemon::new(4);
        let line = format!(
            "{{\"cmd\":\"fds\",\"csv\":\"{}\",\"score\":\"rfi\",\"theta\":0.1}}",
            figure4_csv().replace('\n', "\\n")
        );
        let v = parse(&d.handle_line(&line).line).unwrap();
        assert_eq!(v.get("ok"), Some(&Json::Bool(true)));
        let out = v.get("output").and_then(Json::as_str).unwrap();
        assert!(out.contains("reliable dependencies (F̂ ≥ 0.1)"), "{out}");
        // Omitting theta falls back to the default threshold — same
        // default the CLI resolves, byte-identical front ends.
        let default_line = format!(
            "{{\"cmd\":\"fds\",\"csv\":\"{}\",\"score\":\"rfi\"}}",
            figure4_csv().replace('\n', "\\n")
        );
        let dv = parse(&d.handle_line(&default_line).line).unwrap();
        let dout = dv.get("output").and_then(Json::as_str).unwrap();
        assert!(dout.contains("reliable dependencies (F̂ ≥ 0.2)"), "{dout}");
    }

    #[test]
    fn ping_stats_shutdown() {
        let d = Daemon::new(4);
        let v = parse(&d.handle_line("{\"id\":9,\"cmd\":\"ping\"}").line).unwrap();
        assert_eq!(v.get("output").and_then(Json::as_str), Some("pong"));
        assert_eq!(v.get("id").and_then(Json::as_usize), Some(9));
        let v = parse(&d.handle_line("{\"cmd\":\"stats\"}").line).unwrap();
        assert!(v.get("ctx_cache").is_some());
        let h = d.handle_line("{\"cmd\":\"shutdown\"}");
        assert!(h.shutdown);
        assert!(d.shutdown_requested());
    }

    #[test]
    fn serve_lines_stops_at_shutdown() {
        let d = Daemon::new(4);
        let input = format!("{PING}\n\n{{\"cmd\":\"shutdown\"}}\n{PING}\n");
        let mut out = Vec::new();
        d.serve_lines(input.as_bytes(), &mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        // ping, shutdown — the post-shutdown ping is never answered.
        assert_eq!(text.lines().count(), 2);
    }

    #[test]
    fn oversize_request_line_is_an_error_and_the_connection_keeps_serving() {
        use std::io::{repeat, BufReader};
        let d = Daemon::new(4);
        // Exactly the cap is still read; one byte more is refused
        // without being held, and the next line is served.
        let at_cap = repeat(b' ').take(MAX_REQUEST_LINE_BYTES as u64);
        let over = repeat(b'x').take(MAX_REQUEST_LINE_BYTES as u64 + 1);
        let tail = [b"\n", PING.as_bytes(), b"\n\xff\n", PING.as_bytes(), b"\n"].concat();
        let input = at_cap.chain(&b"\n"[..]).chain(over).chain(&tail[..]);
        let mut out = Vec::new();
        d.serve_lines(BufReader::new(input), &mut out).unwrap();
        let replies: Vec<Json> = String::from_utf8(out)
            .unwrap()
            .lines()
            .map(|l| parse(l).unwrap())
            .collect();
        // The all-blank line at the cap is ignored like any blank line.
        assert_eq!(replies.len(), 4, "{replies:?}");
        let error = |v: &Json| v.get("error").and_then(Json::as_str).unwrap().to_string();
        assert_eq!(
            error(&replies[0]),
            format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes")
        );
        assert_eq!(replies[1].get("ok"), Some(&Json::Bool(true)));
        assert_eq!(error(&replies[2]), "request line is not valid UTF-8");
        assert_eq!(replies[3].get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn serve_lines_sends_each_reply_in_one_write() {
        /// A sink that records every `write` call it receives.
        #[derive(Default)]
        struct CountingWriter {
            writes: Vec<Vec<u8>>,
        }
        impl Write for CountingWriter {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.writes.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let d = Daemon::new(4);
        let input = format!("{PING}\n{{\"cmd\":\"stats\"}}\n");
        let mut out = CountingWriter::default();
        d.serve_lines(input.as_bytes(), &mut out).unwrap();
        assert_eq!(out.writes.len(), 2, "one write per reply");
        for w in &out.writes {
            assert_eq!(w.iter().filter(|&&b| b == b'\n').count(), 1);
            assert_eq!(w.last(), Some(&b'\n'), "the newline rides with its line");
        }
    }

    #[test]
    fn profiled_request_embeds_compact_report() {
        let d = Daemon::new(4);
        let line = format!(
            "{{\"cmd\":\"fds\",\"csv\":\"{}\",\"profile\":true}}",
            figure4_csv().replace('\n', "\\n")
        );
        let h = d.handle_line(&line);
        assert!(!h.line.contains('\n'));
        let v = parse(&h.line).unwrap();
        let report = v.get("report").expect("profiled response embeds report");
        assert!(report.get("schema_version").is_some());
        assert!(report.get("counters").is_some());
        if telemetry::compiled() {
            let Json::Arr(spans) = report.get("spans").unwrap() else {
                panic!("spans must be an array");
            };
            assert!(!spans.is_empty(), "profiled run must record spans");
        }
    }
}
