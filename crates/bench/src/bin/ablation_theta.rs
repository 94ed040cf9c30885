//! Ablation: the θ emission threshold of reliable-FD mining.
//!
//! Sweeps θ over `mine_reliable_ctx` (branch-and-bound on) and records, per
//! dataset, how the threshold moves the three quantities that matter:
//!
//! * the number of dependencies with F̂ ≥ θ (the output),
//! * the lattice nodes visited and F̂ evaluations paid (the work),
//! * the bounds computed and nodes pruned (what the θ-dependent
//!   branch-and-bound rule buys — higher θ means the bound F̄ < θ fires
//!   earlier and cuts more of the lattice).
//!
//! Datasets: the DB2 sample (90 × 19, the paper's running workload) and
//! the DBLP-style generator (scale via `DBMINE_SCALE`, default 10 000),
//! whose key-like attributes carry permutation bias ≈ 1 and make the
//! bound bite. Writes `results/ablation_theta.json` (`--out PATH`
//! overrides).

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, dblp_sample, Db2Spec, DblpSpec};
use dbmine::relation::Relation;
use dbmine::reliability::{mine_reliable_ctx, ReliableOptions};
use dbmine::telemetry;
use dbmine_bench::print_table;
use std::fmt::Write as _;
use std::time::Instant;

const THETAS: [f64; 7] = [0.1, 0.25, 0.4, 0.5, 0.6, 0.75, 0.9];

struct SweepRow {
    dataset: String,
    theta: f64,
    fds: usize,
    nodes: u64,
    rfi_evals: u64,
    bnb_bounds: u64,
    bnb_prunes: u64,
    ms: f64,
}

/// One θ sweep over `rel`, printing the table and appending the rows.
fn sweep(out: &mut Vec<SweepRow>, dataset: &str, rel: &Relation, max_lhs: Option<usize>) {
    let mut rows = Vec::new();
    for theta in THETAS {
        let opts = ReliableOptions {
            theta,
            max_lhs,
            threads: 1,
            ..Default::default()
        };
        let before = telemetry::snapshot();
        let start = Instant::now();
        let fds = mine_reliable_ctx(&AnalysisCtx::of(rel), opts);
        let ms = start.elapsed().as_secs_f64() * 1e3;
        let d = telemetry::snapshot().delta(&before);
        let r = SweepRow {
            dataset: dataset.to_string(),
            theta,
            fds: fds.len(),
            nodes: d.get(telemetry::Counter::TaneLatticeNodes),
            rfi_evals: d.get(telemetry::Counter::RfiEvals),
            bnb_bounds: d.get(telemetry::Counter::BnbBounds),
            bnb_prunes: d.get(telemetry::Counter::BnbPrunes),
            ms,
        };
        rows.push(vec![
            format!("{theta}"),
            r.fds.to_string(),
            r.nodes.to_string(),
            r.rfi_evals.to_string(),
            r.bnb_bounds.to_string(),
            r.bnb_prunes.to_string(),
            format!("{:.1}", r.ms),
        ]);
        out.push(r);
    }
    print_table(
        &format!(
            "θ sweep on {dataset} ({} tuples × {} attrs)",
            rel.n_tuples(),
            rel.n_attrs()
        ),
        &[
            "θ",
            "FDs (F̂ ≥ θ)",
            "lattice nodes",
            "F̂ evals",
            "bounds",
            "prunes",
            "time (ms)",
        ],
        &rows,
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .unwrap_or("results/ablation_theta.json")
        .to_string();

    let mut rows: Vec<SweepRow> = Vec::new();

    let db2 = db2_sample(&Db2Spec::default());
    sweep(&mut rows, "db2", &db2.relation, Some(2));

    let dblp = dblp_sample(&DblpSpec {
        n_tuples: std::env::var("DBMINE_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10_000),
        ..Default::default()
    });
    sweep(&mut rows, "dblp", &dblp, Some(2));

    let mut json = String::new();
    json.push_str("{\n  \"bench\": \"ablation_theta\",\n  \"sweeps\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"dataset\": \"{}\", \"theta\": {}, \"fds\": {}, \"nodes\": {}, \
             \"rfi_evals\": {}, \"bnb_bounds\": {}, \"bnb_prunes\": {}, \"ms\": {:.2}}}",
            r.dataset, r.theta, r.fds, r.nodes, r.rfi_evals, r.bnb_bounds, r.bnb_prunes, r.ms
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    if let Some(dir) = std::path::Path::new(&out_path).parent() {
        let _ = std::fs::create_dir_all(dir);
    }
    match std::fs::write(&out_path, &json) {
        Ok(()) => println!("\nwrote {out_path}"),
        Err(e) => {
            eprintln!("cannot write {out_path}: {e}");
            std::process::exit(1);
        }
    }
}
