//! Data-quality round trip: plant integration errors, discover them with
//! the information-theoretic tools, and repair the relation
//! (Sections 1, 6.1.1 and 8.1 of the paper).
//!
//! ```sh
//! cargo run --release --example data_cleaning
//! ```

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, inject_near_duplicates, Db2Spec};
use dbmine::fdmine::mine_approximate_ctx;
use dbmine::limbo::LimboParams;
use dbmine::summaries::{eliminate_duplicates, find_duplicate_tuples_ctx};

fn main() {
    // 1. A clean relation, then a simulated sloppy integration: 8 copied
    //    records, each with 2 re-keyed/dirty values.
    let clean = db2_sample(&Db2Spec::default()).relation;
    let injected = inject_near_duplicates(&clean, 8, 2, 42);
    let dirty = &injected.relation;
    println!(
        "clean: {} tuples; after integration: {} tuples ({} planted near-duplicates)",
        clean.n_tuples(),
        dirty.n_tuples(),
        injected.injected.len()
    );

    // 2. Duplicate discovery at φT = 0.1.
    let dirty_ctx = AnalysisCtx::of(dirty);
    let report = find_duplicate_tuples_ctx(&dirty_ctx, LimboParams::with_phi(0.1));
    let tau = report.threshold;
    println!(
        "\nduplicate discovery (φT = 0.1): {} candidate groups (τ = {tau:.3e})",
        report.groups.len()
    );
    let mut found = 0;
    for d in &injected.injected {
        let hit = report.same_tight_group(d.original, d.duplicate, tau);
        if hit {
            found += 1;
        }
        println!(
            "  planted t{} ≈ t{}  dirtied {:?}  {}",
            d.original,
            d.duplicate,
            d.dirty_cells
                .iter()
                .map(|c| dirty.attr_names()[c.attr].as_str())
                .collect::<Vec<_>>(),
            if hit { "FOUND" } else { "missed" }
        );
    }
    println!(
        "recovered {found}/{} planted duplicates",
        injected.injected.len()
    );

    // 3. Repair: collapse tight groups by majority vote.
    let repaired = eliminate_duplicates(&dirty_ctx, &report, tau);
    println!(
        "\nrepair: removed {} tuples → {} remain (clean had {})",
        repaired.removed,
        repaired.relation.n_tuples(),
        clean.n_tuples()
    );

    // 4. The dirt also shows up as approximate dependencies: exact FDs of
    //    the clean data hold on the dirty data only with small g3 error.
    let approx = mine_approximate_ctx(&AnalysisCtx::of(&repaired.relation), 0.05, Some(1), 1);
    let broken: Vec<_> = approx.iter().filter(|f| f.error > 0.0).collect();
    println!(
        "\napproximate single-LHS dependencies on the repaired data: {} ({} with residual error)",
        approx.len(),
        broken.len()
    );
    let names = repaired.relation.attr_names().to_vec();
    for f in broken.iter().take(6) {
        println!("  {:<36} g3 = {:.4}", f.fd.display(&names), f.error);
    }
    println!(
        "\n(residual error ≈ surviving dirty cells; rerun discovery at higher φT to chase them)"
    );
}
