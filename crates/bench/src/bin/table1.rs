//! Regenerates Table 1: how many planted erroneous (near-duplicate)
//! tuples the tuple-clustering tool recovers on the DB2 sample.
//!
//! Grid, as in the paper: a φT column-block sweep × value-errors-per-
//! tuple ∈ {1,2,4,6,10} × #injected ∈ {5,20}. A planted duplicate counts
//! as *found* when Phase 3 associates it with the same summary as its
//! source tuple **and** both sit within the merge threshold τ of that
//! summary (the paper's "exploration" of a suggested group would accept
//! exactly those members). The `avg group` column shows the mean number
//! of tuples per suggested group — the noise that, per Section 8.1.1,
//! grows with φT as "more tuples are associated with the constructed
//! summaries".
//!
//! Note on calibration (see EXPERIMENTS.md): our φ scale is bits-based;
//! the paper's qualitative regimes (small errors always recovered;
//! recovery degrades once errors exceed ~half the attributes; larger φT
//! adds association noise) appear here at φT ≈ 2× the paper's values.

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, inject_near_duplicates, Db2Spec};
use dbmine::limbo::LimboParams;
use dbmine::summaries::find_duplicate_tuples_ctx;
use dbmine_bench::print_table;

const ERROR_COUNTS: [usize; 5] = [1, 2, 4, 6, 10];
/// Trials per cell (the paper reports single runs; we average).
const TRIALS: u64 = 5;

struct Cell {
    found: f64,
    avg_group: f64,
}

fn run_cell(n_dups: usize, errors: usize, phi_t: f64) -> Cell {
    let sample = db2_sample(&Db2Spec::default());
    let mut found = 0usize;
    let mut group_sizes = 0usize;
    let mut group_count = 0usize;
    for seed in 0..TRIALS {
        let injected = inject_near_duplicates(&sample.relation, n_dups, errors, 1000 + seed);
        let report = find_duplicate_tuples_ctx(
            &AnalysisCtx::of(&injected.relation),
            LimboParams::with_phi(phi_t),
        );
        let tau = report.threshold.max(1e-12);
        found += injected
            .injected
            .iter()
            .filter(|d| report.same_tight_group(d.original, d.duplicate, tau))
            .count();
        group_sizes += report.groups.iter().map(|g| g.tuples.len()).sum::<usize>();
        group_count += report.groups.len();
    }
    Cell {
        found: found as f64 / TRIALS as f64,
        avg_group: if group_count == 0 {
            0.0
        } else {
            group_sizes as f64 / group_count as f64
        },
    }
}

fn block(title: &str, n_dups: usize, phi_t: f64) {
    let rows: Vec<Vec<String>> = ERROR_COUNTS
        .iter()
        .map(|&e| {
            let c = run_cell(n_dups, e, phi_t);
            vec![
                e.to_string(),
                format!("{:.1}", c.found),
                n_dups.to_string(),
                format!("{:.1}", c.avg_group),
            ]
        })
        .collect();
    print_table(
        title,
        &["value errors", "found (avg)", "out of", "avg group"],
        &rows,
    );
}

fn main() {
    // Left block of the paper (its φT = 0.1 regime ≈ our 0.2).
    for n_dups in [5usize, 20] {
        block(
            &format!("Table 1 (left): #err.tuples = {n_dups}, φT = 0.2"),
            n_dups,
            0.2,
        );
    }
    // Right block: fixed #injected = 5, coarser φT.
    for phi_t in [0.4, 0.6] {
        block(
            &format!("Table 1 (right): #err.tuples = 5, φT = {phi_t}"),
            5,
            phi_t,
        );
    }
}
