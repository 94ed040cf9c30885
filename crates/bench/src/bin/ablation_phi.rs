//! Ablation: the φ and B parameters of LIMBO (paper Section 8,
//! "Parameters").
//!
//! * φ sweep — *"larger values for φ (around 1.0) delay leaf-node splits
//!   and create a smaller tree with a coarse representation; smaller φ
//!   values incur more splits but preserve a more detailed summary"*.
//!   We report the number of leaf summaries, the summary's retained
//!   mutual information, and Phase 1 wall time.
//! * B sweep — *"the branching factor ... does not significantly affect
//!   the quality of the clustering"*: quality (retained information at a
//!   fixed k) across B.

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{dblp_sample, DblpSpec};
use dbmine::ib::aib;
use dbmine::limbo::{phase1, tuple_dcfs_ctx, LimboParams};
use dbmine_bench::{f3, print_table};
use std::time::Instant;

fn main() {
    let spec = DblpSpec {
        n_tuples: std::env::var("DBMINE_SCALE")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(10_000),
        ..Default::default()
    };
    let rel = dblp_sample(&spec);
    let ctx = AnalysisCtx::of(&rel);
    let objects = tuple_dcfs_ctx(&ctx, 1);
    let mi = ctx.tuple_mutual_information();
    println!("DBLP {} tuples; I(T;V) = {} bits", rel.n_tuples(), f3(mi));

    // φ sweep at B = 4.
    let mut rows = Vec::new();
    for phi in [0.0, 0.25, 0.5, 0.75, 1.0, 1.5] {
        let start = Instant::now();
        let model = phase1(
            &objects,
            mi,
            objects.len(),
            LimboParams {
                phi,
                branching: 4,
                ..Default::default()
            },
        );
        let elapsed = start.elapsed();
        // Information retained by the leaf clustering.
        let retained = dbmine::infotheory::mutual_information(
            model.leaves.iter().map(|d| (d.weight, &d.cond)),
        );
        rows.push(vec![
            format!("{phi}"),
            model.leaves.len().to_string(),
            f3(retained / mi),
            format!("{elapsed:.2?}"),
        ]);
    }
    print_table(
        "φ sweep (B = 4): summary size vs fidelity",
        &["φ", "leaf summaries", "I(C;V)/I(T;V)", "Phase 1 time"],
        &rows,
    );

    // B sweep at φ = 1.0, quality at k = 3.
    let mut rows = Vec::new();
    for b in [2usize, 4, 8, 16] {
        let start = Instant::now();
        let model = phase1(
            &objects,
            mi,
            objects.len(),
            LimboParams {
                phi: 1.0,
                branching: b,
                ..Default::default()
            },
        );
        let clustering = aib(model.leaves.clone(), 3);
        let elapsed = start.elapsed();
        rows.push(vec![
            b.to_string(),
            model.leaves.len().to_string(),
            f3(clustering.final_information() / mi),
            format!("{elapsed:.2?}"),
        ]);
    }
    print_table(
        "B sweep (φ = 1.0, k = 3): branching factor barely matters",
        &["B", "leaf summaries", "I(C3;V)/I(T;V)", "Phase 1+2 time"],
        &rows,
    );
}
