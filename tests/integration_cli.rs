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
fn sharded_runs_are_byte_identical_to_classic() {
    // The demo relation fits one auto chunk, so every shard-worker
    // count — and the classic unsharded build — must print the same
    // bytes.
    let csv = write_demo_csv();
    let path = csv.to_str().unwrap();
    let (classic, _, ok) = run(&["duplicates", path, "--phi-t", "0.0"]);
    assert!(ok);
    for shards in ["0", "1", "4"] {
        let (sharded, stderr, ok) =
            run(&["duplicates", path, "--phi-t", "0.0", "--shards", shards]);
        assert!(ok, "stderr: {stderr}");
        assert_eq!(sharded, classic, "--shards {shards} output drifted");
    }
    let (analyze_classic, _, _) = run(&["analyze", path]);
    let (analyze_sharded, _, _) = run(&["analyze", path, "--shards", "2"]);
    assert_eq!(analyze_sharded, analyze_classic);
}

#[test]
fn invalid_shards_value_is_a_typed_error() {
    let csv = write_demo_csv();
    for bad in ["four", "-1", "1.5"] {
        // `fds` never reaches Phase 1, but a malformed --shards must
        // still be the same typed error, not silently ignored.
        for cmd in ["duplicates", "fds"] {
            let (_, stderr, ok) = run(&[cmd, csv.to_str().unwrap(), "--shards", bad]);
            assert!(!ok, "{cmd} --shards {bad} must fail");
            assert!(
                stderr.contains(&format!("error: invalid value for --shards: `{bad}`")),
                "stderr: {stderr}"
            );
        }
    }
}
