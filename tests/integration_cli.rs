//! Smoke tests for the `dbmine` CLI binary (compiled from
//! `crates/core/src/bin/dbmine.rs`).

use std::io::Write;
use std::process::Command;

/// The shared demo CSV, written once per test process: every test
/// reads this one file, so no test can truncate it while another
/// test's subprocess is reading it.
fn write_demo_csv() -> std::path::PathBuf {
    static DEMO: std::sync::OnceLock<std::path::PathBuf> = std::sync::OnceLock::new();
    DEMO.get_or_init(|| {
        let dir = std::env::temp_dir().join(format!("dbmine_cli_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo.csv");
        let mut f = std::fs::File::create(&path).unwrap();
        writeln!(f, "Name,City,Zip").unwrap();
        for (n, c, z) in [
            ("Pat", "Boston", "02139"),
            ("Sal", "Boston", "02139"),
            ("Kim", "Boston", "02139"),
            ("Kim", "Boston", "02139"), // exact duplicate
            ("Ana", "Toronto", "M5S1A1"),
            ("Lee", "Toronto", "M5S1A1"),
        ] {
            writeln!(f, "{n},{c},{z}").unwrap();
        }
        path
    })
    .clone()
}

fn run(args: &[&str]) -> (String, String, bool) {
    let out = Command::new(env!("CARGO_BIN_EXE_dbmine"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
        out.status.success(),
    )
}

#[test]
fn analyze_produces_full_report() {
    let csv = write_demo_csv();
    let (stdout, stderr, ok) = run(&["analyze", csv.to_str().unwrap()]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("# column profile"));
    assert!(stdout.contains("Name"));
    assert!(stdout.contains("# dependencies"));
    // City ↔ Zip redundancy must surface in the ranking.
    assert!(stdout.contains("rank="), "{stdout}");
}

#[test]
fn duplicates_finds_exact_copy() {
    let csv = write_demo_csv();
    let (stdout, _, ok) = run(&["duplicates", csv.to_str().unwrap(), "--phi-t", "0.0"]);
    assert!(ok);
    assert!(stdout.contains("candidate groups"));
    assert!(stdout.contains("group 1"), "{stdout}");
}

#[test]
fn fds_exact_and_approximate() {
    let csv = write_demo_csv();
    let (stdout, _, ok) = run(&["fds", csv.to_str().unwrap()]);
    assert!(ok);
    assert!(stdout.contains("exact minimal dependencies"), "{stdout}");

    let (stdout, _, ok) = run(&["fds", csv.to_str().unwrap(), "--approx", "0.2"]);
    assert!(ok);
    assert!(stdout.contains("approximate dependencies"), "{stdout}");
    assert!(stdout.contains("g3 ="), "{stdout}");
}

#[test]
fn fds_rfi_mines_reliable_dependencies() {
    let csv = write_demo_csv();
    let (stdout, stderr, ok) = run(&[
        "fds",
        csv.to_str().unwrap(),
        "--score",
        "rfi",
        "--theta",
        "0.1",
    ]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.contains("reliable dependencies (F̂ ≥ 0.1)"),
        "{stdout}"
    );
    assert!(stdout.contains("F̂ ="), "{stdout}");
    assert!(stdout.contains("g3 ="), "{stdout}");

    // `--score rfi` contradicts `--approx` (g3 mining): typed error.
    let (_, stderr, ok) = run(&[
        "fds",
        csv.to_str().unwrap(),
        "--approx",
        "0.2",
        "--score",
        "rfi",
    ]);
    assert!(!ok);
    assert!(stderr.contains("--approx"), "{stderr}");

    // `--theta` is read only by reliable scoring: without `--score
    // rfi` it is a typed error (exit 2), not silently ignored.
    for score in [&[][..], &["--score", "g3"][..]] {
        let out = Command::new(env!("CARGO_BIN_EXE_dbmine"))
            .args([&["fds", csv.to_str().unwrap(), "--theta", "0.5"][..], score].concat())
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{stderr}");
        assert!(
            stderr.contains("error: --theta requires --score rfi"),
            "{stderr}"
        );
        assert!(out.stdout.is_empty());
    }

    // Malformed values are typed flag errors, not panics.
    for bad in [&["--score", "g4"][..], &["--theta", "1.5"][..]] {
        let (_, stderr, ok) = run(&[&["fds", csv.to_str().unwrap()][..], bad].concat());
        assert!(!ok);
        assert!(stderr.contains("invalid value"), "{stderr}");
    }
}

#[test]
fn out_of_range_parameters_are_typed_errors() {
    let csv = write_demo_csv();
    let path = csv.to_str().unwrap();
    for (cmd, flag, value) in [
        ("fds", "approx", "1.5"),
        ("fds", "approx", "NaN"),
        ("duplicates", "phi-t", "-1"),
        ("analyze", "psi", "2"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dbmine"))
            .args([cmd, path, &format!("--{flag}"), value])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        let what = format!("{cmd} --{flag} {value}");
        assert_eq!(out.status.code(), Some(2), "{what}: {stderr}");
        assert!(
            stderr.contains(&format!("error: invalid value for --{flag}: `{value}`")),
            "{what}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{what}: {stderr}");
    }
}

#[test]
fn partition_runs() {
    let csv = write_demo_csv();
    let (stdout, _, ok) = run(&["partition", csv.to_str().unwrap(), "--k", "2"]);
    assert!(ok);
    assert!(stdout.contains("partition 1"), "{stdout}");
    assert!(stdout.contains("partition 2"), "{stdout}");
}

#[test]
fn bad_usage_exits_nonzero() {
    let (_, _, ok) = run(&["nonsense"]);
    assert!(!ok);
    let (_, stderr, ok2) = run(&["analyze", "/definitely/not/a/file.csv"]);
    assert!(!ok2);
    assert!(stderr.contains("cannot read"));
}

#[test]
fn redesign_honours_max_lhs() {
    use dbmine::context::AnalysisCtx;
    use dbmine::datagen::{db2_sample, Db2Spec};
    use dbmine::relation::csv::{read_relation_path, write_relation_path};
    use dbmine::{render, MinerConfig};

    let dir = std::env::temp_dir().join(format!("dbmine_cli_lhs_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("db2.csv");
    write_relation_path(&db2_sample(&Db2Spec::default()).relation, &path).unwrap();
    let ctx = AnalysisCtx::from(read_relation_path(&path).unwrap());
    let p = path.to_str().unwrap();

    let bounded = MinerConfig {
        max_lhs: Some(1),
        ..MinerConfig::default()
    };
    let (stdout, stderr, ok) = run(&["redesign", p, "--max-lhs", "1"]);
    assert!(ok, "stderr: {stderr}");
    assert_eq!(stdout, render::run_redesign(&ctx, 3, &bounded));
    let (unbounded, _, _) = run(&["redesign", p]);
    assert_ne!(stdout, unbounded, "--max-lhs must reach the redesign miner");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thread_counts_print_identical_output() {
    // Every parallel stage — the Phase 1 shard trees and tuple DCFs
    // included — is bit-identical for every thread count.
    let csv = write_demo_csv();
    let path = csv.to_str().unwrap();
    for cmd in ["duplicates", "analyze", "partition"] {
        let (serial, stderr, ok) = run(&[cmd, path, "--phi-t", "0.0"]);
        assert!(ok, "stderr: {stderr}");
        for threads in ["0", "1", "4"] {
            let (out, stderr, ok) = run(&[cmd, path, "--phi-t", "0.0", "--threads", threads]);
            assert!(ok, "stderr: {stderr}");
            assert_eq!(out, serial, "{cmd} --threads {threads} output drifted");
        }
    }
}

#[test]
fn shards_is_an_unknown_flag() {
    // The sharded Phase 1 is the only Phase 1, so its old knob is
    // refused like any other flag no command reads.
    let csv = write_demo_csv();
    for cmd in ["duplicates", "analyze", "fds"] {
        let (_, stderr, ok) = run(&[cmd, csv.to_str().unwrap(), "--shards", "4"]);
        assert!(!ok, "{cmd} --shards must fail");
        assert!(
            stderr.contains(&format!("error: unknown flag --shards for `{cmd}`")),
            "stderr: {stderr}"
        );
    }
}

#[test]
fn redesign_honours_phi_flags_like_the_daemon() {
    use dbmine::server::{parse, Json};
    use std::process::Stdio;

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/db2_sample.csv");
    let (stdout, stderr, ok) = run(&["redesign", path, "--phi-v", "1.0"]);
    assert!(ok, "stderr: {stderr}");
    assert!(
        stdout.starts_with("step 1: split by [EmpNo]→[MgrNo]"),
        "{stdout}"
    );
    let (default, _, _) = run(&["redesign", path]);
    assert_ne!(stdout, default, "--phi-v must reach the redesign miner");

    let mut daemon = Command::new(env!("CARGO_BIN_EXE_dbmined"))
        .arg("--stdio")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("daemon runs");
    writeln!(
        daemon.stdin.take().unwrap(),
        "{{\"cmd\":\"redesign\",\"path\":\"{path}\",\"phi_v\":1.0}}\n{{\"cmd\":\"shutdown\"}}"
    )
    .unwrap();
    let out = daemon.wait_with_output().unwrap();
    let reply = String::from_utf8(out.stdout).unwrap();
    let first = parse(reply.lines().next().unwrap()).unwrap();
    assert_eq!(
        first.get("output").and_then(Json::as_str),
        Some(stdout.as_str())
    );
}

#[test]
fn unknown_flags_are_rejected() {
    let csv = write_demo_csv();
    let path = csv.to_str().unwrap();
    for (cmd, flag) in [
        ("redesign", "--bogus"),
        ("analyze", "--theta"),
        ("mvds", "--threads"),
        ("partition", "--approx"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dbmine"))
            .args([cmd, path, flag, "3"])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{cmd} {flag}: {stderr}");
        assert!(
            stderr.contains(&format!("error: unknown flag {flag} for `{cmd}`")),
            "{cmd} {flag}: {stderr}"
        );
    }
}

#[test]
fn malformed_flags_are_typed_errors() {
    let csv = write_demo_csv();
    let path = csv.to_str().unwrap();
    for (args, expect) in [
        (
            &["fds", path, "--max-lhs", "1", "--max-lhs", "3"][..],
            "error: flag --max-lhs given more than once",
        ),
        (
            &["fds", path, "max-lhs", "1"][..],
            "error: unexpected argument `max-lhs`",
        ),
        (
            &["fds", path, "--max-lhs=2"][..],
            "error: unknown flag --max-lhs=2 for `fds`",
        ),
        (
            &["fds", path, "--max_lhs", "2"][..],
            "error: unknown flag --max_lhs for `fds`",
        ),
        (
            &["redesign", path, "--steps", "0"][..],
            "error: invalid value for --steps: `0`",
        ),
        // Refused before any worker starts: at most 256 threads.
        (
            &["fds", path, "--threads", "257"][..],
            "error: invalid value for --threads: `257`",
        ),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_dbmine"))
            .args(args)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(expect), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}

/// A fresh scratch directory for one test's files.
fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("dbmine_cli_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn loaded_line_is_the_same_from_csv_spill_and_store() {
    // An empty cell is a NULL: the `loaded` line counts distinct
    // non-null values, whichever way the relation was opened.
    let dir = scratch_dir("loaded");
    let csv = dir.join("nulls.csv");
    let store = dir.join("nulls.dbss");
    std::fs::write(&csv, "A,B\nx,\n,y\nx,y\n").unwrap();
    let (csv, store) = (csv.to_str().unwrap(), store.to_str().unwrap());
    let loaded = |args: &[&str]| {
        let (_, stderr, ok) = run(args);
        assert!(ok, "{args:?}: {stderr}");
        let line = stderr.lines().find(|l| l.starts_with("loaded "));
        line.unwrap_or_else(|| panic!("{args:?}: {stderr}"))
            .to_string()
    };
    let from_csv = loaded(&["fds", csv]);
    assert_eq!(
        from_csv,
        "loaded nulls: 3 tuples × 2 attributes, 2 distinct values"
    );
    assert_eq!(loaded(&["fds", csv, "--spill", store]), from_csv);
    assert_eq!(loaded(&["fds", store]), from_csv);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn joins_with_a_store_matches_joins_with_its_csv() {
    let dir = scratch_dir("joins");
    let other = dir.join("offices.csv");
    let store = dir.join("offices.dbss");
    std::fs::write(
        &other,
        "Office,Town\nb1,Boston\nb2,Boston\nt1,Toronto\nt2,Toronto\n",
    )
    .unwrap();
    let (other, store) = (other.to_str().unwrap(), store.to_str().unwrap());
    let (_, stderr, ok) = run(&["fds", other, "--spill", store]);
    assert!(ok, "{stderr}");
    let demo = write_demo_csv();
    let joins = |with: &str| {
        let (stdout, stderr, ok) = run(&["joins", demo.to_str().unwrap(), "--with", with]);
        assert!(ok, "--with {with}: {stderr}");
        stdout
    };
    let from_csv = joins(other);
    assert!(from_csv.contains("demo.City ~ offices.Town"), "{from_csv}");
    assert_eq!(joins(store), from_csv);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn closed_stdout_ends_the_run_quietly() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    // Thirty exact-duplicate pairs of 1.5 KB cells: the report is far
    // larger than a pipe buffer, so the writer is still blocked on the
    // pipe when the reader goes away.
    let dir = std::env::temp_dir().join(format!("dbmine_cli_pipe_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("wide.csv");
    let mut f = std::fs::File::create(&path).unwrap();
    writeln!(f, "A,B,C,D,E,F").unwrap();
    for pair in 0..30 {
        let row: Vec<String> = (0..6)
            .map(|c| format!("p{pair}c{c}-{}", "x".repeat(1500)))
            .collect();
        writeln!(f, "{}", row.join(",")).unwrap();
        writeln!(f, "{}", row.join(",")).unwrap();
    }
    drop(f);
    let mut child = Command::new(env!("CARGO_BIN_EXE_dbmine"))
        .args(["duplicates", path.to_str().unwrap(), "--phi-t", "0.0"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("binary runs");
    let mut first = String::new();
    BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.contains("candidate groups"), "{first}");
    // The reader (and with it the pipe's read end) is dropped here.
    let out = child.wait_with_output().expect("child exits");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{:?}: {stderr}", out.status);
    assert!(!stderr.contains("panicked"), "{stderr}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Runs the CLI, returning its stdout, stderr and exit code.
fn run_code(args: &[&str]) -> (String, String, Option<i32>) {
    let out = Command::new(env!("CARGO_BIN_EXE_dbmine"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        String::from_utf8(out.stderr).expect("stderr is UTF-8"),
        out.status.code(),
    )
}

#[test]
fn load_errors_name_the_file_once() {
    let dir = scratch_dir("load_errors");
    let ragged = dir.join("q.csv");
    let latin1 = dir.join("l.csv");
    let bad_store = dir.join("g.dbss");
    let spill_to = dir.join("q.dbss");
    std::fs::write(&ragged, "A,B\nx,y,z\n").unwrap();
    std::fs::write(&latin1, b"A,B\nx,y\ncaf\xe9,z\n").unwrap();
    std::fs::write(&bad_store, "A,B\n1,2\n").unwrap();
    let [ragged, latin1, bad_store, spill_to] =
        [&ragged, &latin1, &bad_store, &spill_to].map(|p| p.to_str().unwrap());
    for (args, expect) in [
        (
            vec!["fds", ragged],
            format!("error: cannot read {ragged}: line 2: expected 2 fields, got 3\n"),
        ),
        (
            vec!["fds", ragged, "--spill", spill_to],
            format!("error: cannot spill {ragged}: line 2: expected 2 fields, got 3\n"),
        ),
        (
            vec!["fds", latin1],
            format!("error: cannot read {latin1}: line 3: column 0 is not valid UTF-8\n"),
        ),
        (
            vec!["fds", latin1, "--spill", spill_to],
            format!("error: cannot spill {latin1}: line 3: column 0 is not valid UTF-8\n"),
        ),
        (
            vec!["fds", bad_store],
            format!(
                "error: cannot read {bad_store}: shard store: not a dbmine shard store: \
                 file is only 8 bytes\n"
            ),
        ),
    ] {
        let (stdout, stderr, code) = run_code(&args);
        assert_eq!(code, Some(1), "{args:?}: {stderr}");
        assert_eq!(stderr, expect, "{args:?}");
        assert!(stdout.is_empty(), "{args:?}");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn non_ascii_values_print_verbatim_from_csv_spill_and_store() {
    let dir = scratch_dir("utf8");
    let csv = dir.join("u.csv");
    let store = dir.join("u.dbss");
    std::fs::write(&csv, "A,B\ncafé,日本\ncafé,日本\nthé,\"🦀, y\"\n").unwrap();
    let (csv, store) = (csv.to_str().unwrap(), store.to_str().unwrap());
    let duplicates = |args: &[&str]| {
        let (stdout, stderr, code) = run_code(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        stdout
    };
    let from_csv = duplicates(&["duplicates", csv, "--phi-t", "0.0"]);
    assert!(from_csv.contains("café | 日本"), "{from_csv}");
    assert!(from_csv.contains("thé | 🦀, y"), "{from_csv}");
    let spilled = duplicates(&["duplicates", csv, "--phi-t", "0.0", "--spill", store]);
    assert_eq!(spilled, from_csv);
    assert_eq!(
        duplicates(&["duplicates", store, "--phi-t", "0.0"]),
        from_csv
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn failed_spill_leaves_no_store_and_keeps_an_existing_one() {
    let dir = scratch_dir("failed_spill");
    let good = dir.join("good.csv");
    let ragged = dir.join("q.csv");
    let fresh = dir.join("fresh.dbss");
    let store = dir.join("good.dbss");
    std::fs::write(&good, "A,B\nx,y\nx,z\n").unwrap();
    std::fs::write(&ragged, "A,B\nx,y\nx,y,z\n").unwrap();
    let [good, ragged, fresh_s, store_s] =
        [&good, &ragged, &fresh, &store].map(|p| p.to_str().unwrap());
    let (_, stderr, code) = run_code(&["fds", good, "--spill", store_s]);
    assert_eq!(code, Some(0), "{stderr}");
    let sealed = std::fs::read(&store).unwrap();
    // A scan that fails after its first row: the fresh path stays
    // absent, the existing store keeps its bytes, and no temporary
    // file is left next to either.
    for path in [fresh_s, store_s] {
        let (stdout, stderr, code) = run_code(&["fds", ragged, "--spill", path]);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(
            stderr.contains("line 3: expected 2 fields, got 3"),
            "{stderr}"
        );
        assert!(stdout.is_empty());
    }
    assert!(!fresh.exists(), "a failed spill created {fresh_s}");
    assert_eq!(
        std::fs::read(&store).unwrap(),
        sealed,
        "a failed spill rewrote {store_s}"
    );
    let (stdout, stderr, code) = run_code(&["fds", store_s]);
    assert_eq!(code, Some(0), "{stderr}");
    assert!(stdout.contains("[]→[A]"), "{stdout}");
    let mut left: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .collect();
    left.sort();
    assert_eq!(left, ["good.csv", "good.dbss", "q.csv"]);
    let _ = std::fs::remove_dir_all(&dir);
}
