//! Protocol tests for the `dbmined` daemon binary: request/response
//! framing, the error model (malformed input never kills the daemon),
//! and bit-identity between daemon `output` and single-shot CLI stdout.

use dbmine::server::{parse, Json, MAX_REQUEST_LINE_BYTES};
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
        // Degenerate CSV: ragged row, empty input. (A header-only CSV
        // is a relation; see `header_only_relation_is_served_like_the_cli`.)
        (
            "{\"cmd\":\"fds\",\"csv\":\"A,B\\nonly-one\\n\"}",
            "cannot parse inline csv",
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
        // A field the command does not read, as the CLI's unknown flag.
        (
            "{\"cmd\":\"fds\",\"csv\":\"A\\nx\\n\",\"k\":3}",
            "unknown field `k` for `fds`",
        ),
        (
            "{\"cmd\":\"ping\",\"path\":\"x.csv\"}",
            "unknown field `path` for `ping`",
        ),
        // A repeated key never lets the last value win: this request
        // must not shut the daemon down.
        (
            "{\"id\":9,\"cmd\":\"ping\",\"cmd\":\"shutdown\"}",
            "duplicate key `cmd`",
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
    // A newline-free request past the line cap, streamed in 1 MiB
    // pieces: refused without being held, then the same connection
    // serves the next request.
    let piece = vec![b'x'; 1 << 20];
    for _ in 0..=MAX_REQUEST_LINE_BYTES >> 20 {
        d.stdin.write_all(&piece).unwrap();
    }
    let v = d.request("");
    assert_eq!(
        error_of(&v),
        format!("request line exceeds {MAX_REQUEST_LINE_BYTES} bytes")
    );
    assert!(
        ok(&d.request(&good)),
        "daemon must keep serving after an oversize line"
    );
    d.finish();
}

#[test]
fn header_only_relation_is_served_like_the_cli() {
    // n = 0 is a relation both readers accept: the daemon answers it
    // `ok` with the CLI's stdout, inline and from a `.dbss` store.
    let dir = std::env::temp_dir().join(format!("dbmined_empty_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("empty.csv");
    let store = dir.join("empty.dbss");
    std::fs::write(&csv, "A,B\n").unwrap();
    let cli = |args: &[&str]| -> String {
        let out = Command::new(env!("CARGO_BIN_EXE_dbmine"))
            .args(args)
            .output()
            .expect("cli runs");
        assert!(out.status.success(), "{args:?}");
        String::from_utf8(out.stdout).unwrap()
    };
    let (csv, store) = (csv.to_str().unwrap(), store.to_str().unwrap());
    cli(&["fds", csv, "--spill", store]);
    let mut d = DaemonProc::spawn(&[]);
    for cmd in ["analyze", "duplicates", "fds", "partition", "redesign"] {
        let expected = cli(&[cmd, csv]);
        assert_eq!(cli(&[cmd, store]), expected, "{cmd}");
        for source in [
            "\"csv\":\"A,B\\n\",\"name\":\"empty\"".to_string(),
            format!("\"path\":\"{store}\""),
        ] {
            let v = d.request(&format!("{{\"cmd\":\"{cmd}\",{source}}}"));
            assert_eq!(output_of(&v), expected, "{cmd} over {source}");
            let relation = v.get("relation").unwrap();
            assert_eq!(relation.get("tuples").and_then(Json::as_usize), Some(0));
        }
    }
    d.finish();
    let _ = std::fs::remove_dir_all(&dir);
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

#[test]
fn non_ascii_values_and_load_errors_match_the_cli() {
    let dir = std::env::temp_dir().join(format!("dbmined_utf8_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let csv = dir.join("u.csv");
    let store = dir.join("u.dbss");
    let ragged = dir.join("q.csv");
    let latin1 = dir.join("l.csv");
    let bad_store = dir.join("g.dbss");
    std::fs::write(&csv, "A,B\ncafé,日本\ncafé,日本\nthé,y\n").unwrap();
    std::fs::write(&ragged, "A,B\nx,y,z\n").unwrap();
    std::fs::write(&latin1, b"A,B\nx,y\ncaf\xe9,z\n").unwrap();
    std::fs::write(&bad_store, "A,B\n1,2\n").unwrap();
    let [csv, store, ragged, latin1, bad_store] =
        [&csv, &store, &ragged, &latin1, &bad_store].map(|p| p.to_str().unwrap());
    let out = Command::new(env!("CARGO_BIN_EXE_dbmine"))
        .args(["duplicates", csv, "--phi-t", "0.0", "--spill", store])
        .output()
        .expect("cli runs");
    assert!(out.status.success());
    let expected = String::from_utf8(out.stdout).unwrap();
    assert!(expected.contains("café | 日本"), "{expected}");

    let mut d = DaemonProc::spawn(&[]);
    for source in [
        format!("\"path\":\"{csv}\""),
        format!("\"path\":\"{store}\""),
        "\"csv\":\"A,B\\ncafé,日本\\ncafé,日本\\nthé,y\\n\",\"name\":\"u\"".to_string(),
    ] {
        let v = d.request(&format!(
            "{{\"cmd\":\"duplicates\",\"phi_t\":0.0,{source}}}"
        ));
        assert_eq!(output_of(&v), expected, "{source}");
    }
    // Every load error names its path exactly once.
    for (path, expect) in [
        (
            ragged,
            format!("cannot read {ragged}: line 2: expected 2 fields, got 3"),
        ),
        (
            latin1,
            format!("cannot read {latin1}: line 3: column 0 is not valid UTF-8"),
        ),
        (
            bad_store,
            format!(
                "cannot read {bad_store}: shard store: not a dbmine shard store: \
                 file is only 8 bytes"
            ),
        ),
    ] {
        let v = d.request(&format!("{{\"cmd\":\"fds\",\"path\":\"{path}\"}}"));
        assert_eq!(error_of(&v), expect);
    }
    d.finish();
    let _ = std::fs::remove_dir_all(&dir);
}
