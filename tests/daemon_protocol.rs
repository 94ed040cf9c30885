//! Protocol tests for the `dbmined` daemon binary: request/response
//! framing, the error model (malformed input never kills the daemon),
//! and bit-identity between daemon `output` and single-shot CLI stdout.

use dbmine::server::{parse, Json};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};

/// The shared demo CSV, written once per test process: every test
/// reads this one file, so no test can truncate it while another
/// test's subprocess is reading it.
fn write_demo_csv() -> std::path::PathBuf {
    static DEMO: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    DEMO.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("dbmined_proto_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.csv");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "Name,City,Zip").unwrap();
        for (n, c, z) in [
            ("Pat", "Boston", "02139"),
            ("Sal", "Boston", "02139"),
            ("Kim", "Boston", "02139"),
            ("Kim", "Boston", "02139"),
            ("Ana", "Toronto", "M5S1A1"),
            ("Lee", "Toronto", "M5S1A1"),
        ] {
            writeln!(f, "{n},{c},{z}").unwrap();
        }
        path
    })
    .clone()
}

/// A live `dbmined --stdio` child with line-oriented request/response.
struct DaemonProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl DaemonProc {
    fn spawn(extra_args: &[&str]) -> DaemonProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_dbmined"))
            .arg("--stdio")
            .args(extra_args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("daemon spawns");
        let stdin = child.stdin.take().unwrap();
        let stdout = BufReader::new(child.stdout.take().unwrap());
        DaemonProc {
            child,
            stdin,
            stdout,
        }
    }

    /// One request line in, one response line out.
    fn request(&mut self, line: &str) -> Json {
        writeln!(self.stdin, "{line}").unwrap();
        self.stdin.flush().unwrap();
        let mut resp = String::new();
        self.stdout.read_line(&mut resp).unwrap();
        assert!(
            resp.ends_with('\n'),
            "response is a complete line: {resp:?}"
        );
        parse(resp.trim_end()).unwrap_or_else(|e| panic!("invalid response JSON ({e}): {resp}"))
    }

    /// Closes stdin (EOF) and waits for a clean exit.
    fn finish(mut self) {
        drop(self.stdin);
        let status = self.child.wait().unwrap();
        assert!(status.success(), "daemon exits cleanly: {status}");
    }
}

fn ok(v: &Json) -> bool {
    v.get("ok") == Some(&Json::Bool(true))
}

fn error_of(v: &Json) -> &str {
    assert_eq!(
        v.get("ok"),
        Some(&Json::Bool(false)),
        "expected error: {v:?}"
    );
    v.get("error").and_then(Json::as_str).expect("error string")
}

fn output_of(v: &Json) -> &str {
    assert!(ok(v), "expected success: {v:?}");
    v.get("output")
        .and_then(Json::as_str)
        .expect("output string")
}

#[test]
fn analyze_via_path_and_inline_csv() {
    let csv = write_demo_csv();
    let mut d = DaemonProc::spawn(&[]);
    let v = d.request(&format!(
        "{{\"id\":1,\"cmd\":\"analyze\",\"path\":\"{}\"}}",
        csv.display()
    ));
    assert_eq!(v.get("id").and_then(Json::as_usize), Some(1));
    assert!(output_of(&v).contains("# column profile"));
    let rel = v.get("relation").expect("relation block");
    assert_eq!(rel.get("tuples").and_then(Json::as_usize), Some(6));
    assert_eq!(rel.get("attrs").and_then(Json::as_usize), Some(3));
    assert_eq!(
        rel.get("content_hash").and_then(Json::as_str).map(str::len),
        Some(16),
        "content hash is 16 hex digits"
    );
    assert!(v.get("view_stats").is_some());
    assert!(v.get("ctx_cache").is_some());

    let v = d.request(
        "{\"id\":\"inline\",\"cmd\":\"fds\",\"csv\":\"A,B\\nx,1\\nx,1\\ny,2\\n\",\"name\":\"t\"}",
    );
    assert_eq!(v.get("id").and_then(Json::as_str), Some("inline"));
    assert!(output_of(&v).contains("exact minimal dependencies"));
    d.finish();
}

#[test]
fn malformed_requests_error_and_daemon_keeps_serving() {
    let csv = write_demo_csv();
    let good = format!("{{\"cmd\":\"analyze\",\"path\":\"{}\"}}", csv.display());
    let mut d = DaemonProc::spawn(&[]);
    // Every handler's failure mode, injected in sequence — after each
    // error the daemon must still answer a good request.
    let cases: &[(&str, &str)] = &[
        ("{not json", "invalid JSON"),
        ("[1,2,3]", "must be a JSON object"),
        ("{\"id\":1}", "missing required field `cmd`"),
        (
            "{\"cmd\":\"frobnicate\",\"csv\":\"A\\nx\\n\"}",
            "unknown command",
        ),
        ("{\"cmd\":\"analyze\"}", "exactly one of `path` or `csv`"),
        (
            "{\"cmd\":\"analyze\",\"path\":\"a.csv\",\"csv\":\"A\\nx\\n\"}",
            "exactly one of `path` or `csv`",
        ),
        (
            "{\"cmd\":\"analyze\",\"csv\":\"A\\nx\\n\",\"wat\":1}",
            "unknown field `wat`",
        ),
        (
            "{\"cmd\":\"analyze\",\"path\":\"/nope/missing.csv\"}",
            "cannot read",
        ),
        // Degenerate CSV: ragged row, header only, empty input.
        (
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\nonly-one\\n\"}",
            "cannot parse inline csv",
        ),
        (
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\n\"}",
            "relation has no rows",
        ),
        ("{\"cmd\":\"fds\",\"csv\":\"\"}", "cannot parse inline csv"),
        // Out-of-range parameters, one per handler knob.
        (
            "{\"cmd\":\"analyze\",\"csv\":\"A\\nx\\n\",\"psi\":1.5}",
            "`psi` must be in [0, 1]",
        ),
        (
            "{\"cmd\":\"analyze\",\"csv\":\"A\\nx\\n\",\"phi_t\":-0.1}",
            "`phi_t` must be ≥ 0",
        ),
        (
            "{\"cmd\":\"duplicates\",\"csv\":\"A\\nx\\n\",\"phi_t\":\"hot\"}",
            "must be a number",
        ),
        (
            "{\"cmd\":\"fds\",\"csv\":\"A\\nx\\n\",\"approx\":-1}",
            "`approx` must be ≥ 0",
        ),
        (
            "{\"cmd\":\"fds\",\"csv\":\"A\\nx\\n\",\"approx\":1.5}",
            "`approx` must be ≥ 0 and < 1",
        ),
        (
            "{\"cmd\":\"fds\",\"csv\":\"A\\nx\\n\",\"max_lhs\":1.5}",
            "non-negative integer",
        ),
        (
            "{\"cmd\":\"partition\",\"csv\":\"A\\nx\\n\",\"k\":0}",
            "`k` must be at least 1",
        ),
        (
            "{\"cmd\":\"redesign\",\"csv\":\"A\\nx\\n\",\"steps\":0}",
            "`steps` must be at least 1",
        ),
        (
            "{\"cmd\":\"analyze\",\"csv\":\"A\\nx\\n\",\"threads\":-1}",
            "non-negative integer",
        ),
        (
            "{\"cmd\":\"analyze\",\"csv\":\"A\\nx\\n\",\"profile\":\"yes\"}",
            "must be a boolean",
        ),
        (
            "{\"cmd\":\"analyze\",\"path\":\"a.csv\",\"name\":\"t\"}",
            "only valid with inline `csv`",
        ),
    ];
    for (bad, expect) in cases {
        let v = d.request(bad);
        let msg = error_of(&v);
        assert!(
            msg.contains(expect),
            "for request {bad}: expected error containing {expect:?}, got {msg:?}"
        );
        // A known-bad input is answered by validation, never by the
        // panic backstop.
        assert!(
            !msg.starts_with("internal error"),
            "for request {bad}: reached the panic backstop: {msg:?}"
        );
        assert!(
            ok(&d.request(&good)),
            "daemon must keep serving after {bad}"
        );
    }
    d.finish();
}

#[test]
fn wide_csv_is_rejected_not_panicked() {
    // 65 columns exceeds the AttrSet width; the daemon must refuse it
    // as a protocol error, not die.
    let header: Vec<String> = (0..65).map(|i| format!("C{i}")).collect();
    let row: Vec<&str> = (0..65).map(|_| "x").collect();
    let csv = format!("{}\\n{}\\n", header.join(","), row.join(","));
    let mut d = DaemonProc::spawn(&[]);
    let v = d.request(&format!("{{\"cmd\":\"analyze\",\"csv\":\"{csv}\"}}"));
    assert!(error_of(&v).contains("cannot parse inline csv"));
    assert!(ok(&d.request("{\"cmd\":\"ping\"}")));
    d.finish();
}

#[test]
fn daemon_output_is_bit_identical_to_cli() {
    let csv = write_demo_csv();
    let path = csv.to_str().unwrap();
    let cli = |args: &[&str]| -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_dbmine"))
            .args(args)
            .output()
            .expect("cli runs");
        assert!(out.status.success());
        String::from_utf8(out.stdout).unwrap()
    };
    let mut d = DaemonProc::spawn(&[]);
    // analyze, defaults: the daemon embeds the exact CLI stdout.
    let cli_analyze = cli(&["analyze", path]);
    let v = d.request(&format!("{{\"cmd\":\"analyze\",\"path\":\"{path}\"}}"));
    assert_eq!(output_of(&v), cli_analyze);
    // fds, exact and approximate — and the second analyze (warm) must
    // still match byte-for-byte.
    let cli_fds = cli(&["fds", path]);
    let v = d.request(&format!("{{\"cmd\":\"fds\",\"path\":\"{path}\"}}"));
    assert_eq!(output_of(&v), cli_fds);
    let cli_fds_approx = cli(&["fds", path, "--approx", "0.2"]);
    let v = d.request(&format!(
        "{{\"cmd\":\"fds\",\"path\":\"{path}\",\"approx\":0.2}}"
    ));
    assert_eq!(output_of(&v), cli_fds_approx);
    let v = d.request(&format!("{{\"cmd\":\"analyze\",\"path\":\"{path}\"}}"));
    assert_eq!(v.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(output_of(&v), cli_analyze, "warm output must not drift");
    // redesign goes through the derived-context chain in the daemon and
    // the CLI alike.
    let cli_redesign = cli(&["redesign", path]);
    let v = d.request(&format!("{{\"cmd\":\"redesign\",\"path\":\"{path}\"}}"));
    assert_eq!(output_of(&v), cli_redesign);
    d.finish();
}

#[test]
fn warm_request_reports_zero_new_view_builds() {
    let csv = write_demo_csv();
    let path = csv.to_str().unwrap();
    let mut d = DaemonProc::spawn(&[]);
    let builds = |v: &Json| {
        v.get("view_stats")
            .and_then(|s| s.get("builds"))
            .and_then(Json::as_usize)
            .unwrap()
    };
    let v1 = d.request(&format!("{{\"cmd\":\"analyze\",\"path\":\"{path}\"}}"));
    assert_eq!(v1.get("cached"), Some(&Json::Bool(false)));
    let v2 = d.request(&format!("{{\"cmd\":\"analyze\",\"path\":\"{path}\"}}"));
    assert_eq!(v2.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(
        builds(&v1),
        builds(&v2),
        "second identical request must perform zero view builds"
    );
    let cache = v2.get("ctx_cache").unwrap();
    assert_eq!(cache.get("hits").and_then(Json::as_usize), Some(1));
    assert_eq!(cache.get("misses").and_then(Json::as_usize), Some(1));
    d.finish();
}

#[test]
fn shutdown_request_stops_the_daemon() {
    let mut d = DaemonProc::spawn(&[]);
    assert_eq!(
        d.request("{\"cmd\":\"ping\"}")
            .get("output")
            .and_then(Json::as_str),
        Some("pong")
    );
    let v = d.request("{\"id\":7,\"cmd\":\"shutdown\"}");
    assert!(ok(&v));
    let status = d.child.wait().unwrap();
    assert!(status.success(), "shutdown exits cleanly");
}

#[test]
fn tcp_mode_serves_concurrent_connections_and_shuts_down() {
    use std::net::TcpStream;
    let mut child = Command::new(env!("CARGO_BIN_EXE_dbmined"))
        .args(["--listen", "127.0.0.1:0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .expect("daemon spawns");
    let mut stderr = BufReader::new(child.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    let addr = banner
        .trim()
        .strip_prefix("dbmined listening on ")
        .unwrap_or_else(|| panic!("unexpected banner: {banner:?}"))
        .to_string();

    let connect = || {
        let stream = TcpStream::connect(&addr).expect("connects");
        let reader = BufReader::new(stream.try_clone().unwrap());
        (stream, reader)
    };
    let roundtrip = |stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, req: &str| {
        writeln!(stream, "{req}").unwrap();
        let mut resp = String::new();
        reader.read_line(&mut resp).unwrap();
        parse(resp.trim_end()).expect("valid response JSON")
    };
    let (mut s1, mut r1) = connect();
    let (mut s2, mut r2) = connect();
    // Both connections are served; the second relation request hits the
    // LRU warmed by the first connection.
    let v = roundtrip(
        &mut s1,
        &mut r1,
        "{\"cmd\":\"fds\",\"csv\":\"A,B\\nx,1\\nx,1\\n\"}",
    );
    assert_eq!(v.get("cached"), Some(&Json::Bool(false)));
    let v = roundtrip(
        &mut s2,
        &mut r2,
        "{\"cmd\":\"fds\",\"csv\":\"A,B\\nx,1\\nx,1\\n\"}",
    );
    assert_eq!(
        v.get("cached"),
        Some(&Json::Bool(true)),
        "connections share one context LRU"
    );
    // Shutdown from one connection stops the whole daemon.
    let v = roundtrip(&mut s2, &mut r2, "{\"cmd\":\"shutdown\"}");
    assert!(ok(&v));
    let status = child.wait().unwrap();
    assert!(status.success(), "tcp daemon exits cleanly: {status}");
}

#[test]
fn profiled_request_embeds_report() {
    let csv = write_demo_csv();
    let mut d = DaemonProc::spawn(&[]);
    let v = d.request(&format!(
        "{{\"cmd\":\"fds\",\"path\":\"{}\",\"profile\":true}}",
        csv.display()
    ));
    let report = v.get("report").expect("profiled response embeds a report");
    assert!(report.get("schema_version").is_some());
    assert!(report.get("counters").is_some());
    assert!(report.get("spans").is_some());
    // Unprofiled requests must not carry one.
    let v = d.request(&format!(
        "{{\"cmd\":\"fds\",\"path\":\"{}\"}}",
        csv.display()
    ));
    assert!(v.get("report").is_none());
    d.finish();
}
