//! Regenerates Tables 5 and 6: ranked functional dependencies within the
//! DBLP horizontal partitions, with RAD and RTR.
//!
//! Paper reference:
//! * c1 (conference): 12 FDs, minimum cover 11; top-2
//!   `[Volume]→[Journal]` and `[Number]→[Journal]`, RAD = RTR = 1.0
//!   (those attributes are entirely NULL in c1 — in minimal form the
//!   dependencies appear with empty/constant LHSs);
//! * c2 (journal): 12 FDs, cover 11; top-2
//!   `[Author,Volume,Journal,Number]→[Year]` (RAD .754, RTR .881) and
//!   `[Author,Year,Volume]→[Journal]` (RAD .858, RTR .982);
//! * c3 (misc): no functional dependencies — "this relation does not
//!   have internal structure".

use dbmine::context::AnalysisCtx;
use dbmine::fdmine::{mine_tane_ctx, minimum_cover, TaneOptions};
use dbmine::fdrank::{rad_ctx, rank_fds, rtr_ctx};
use dbmine::limbo::LimboParams;
use dbmine::summaries::{cluster_values_ctx, group_attributes, tuple_summary_assignment_ctx};
use dbmine_bench::dblp_pipeline::partitioned_dblp;
use dbmine_bench::{dblp_scale, f3, print_table, timed};

fn main() {
    let p = timed("generate + partition (k = 3)", || {
        partitioned_dblp(dblp_scale(), 0.5, Some(3))
    });

    let order = p.ordered_by_type();
    for (slot, &(i, label)) in order.iter().enumerate() {
        // One context per partition: TANE's seed partitions, the Double
        // Clustering views, and the RAD/RTR projections are all shared.
        let rel = p.result.partition_relation(&p.projected, i);
        let ctx = AnalysisCtx::of(&rel);
        let names = rel.attr_names().to_vec();
        println!(
            "\n==== Table {}: cluster c{} ({} tuples, {label}) ====",
            match label {
                "conference" => "5".to_string(),
                "journal" => "6".to_string(),
                _ => "—".to_string(),
            },
            slot + 1,
            rel.n_tuples()
        );

        let fds = timed("TANE", || mine_tane_ctx(&ctx, TaneOptions::default()));
        let cover = minimum_cover(&fds);
        println!(
            "TANE found {} minimal FDs; minimum cover {}",
            fds.len(),
            cover.len()
        );
        if cover.is_empty() {
            println!("no functional dependencies — no internal structure (paper's c3)");
            continue;
        }

        let (assignment, _) = tuple_summary_assignment_ctx(&ctx, LimboParams::with_phi(0.5));
        let values = cluster_values_ctx(&ctx, LimboParams::with_phi(1.0), Some(&assignment));
        let grouping = group_attributes(&values, rel.n_attrs());
        let ranked = rank_fds(&cover, &grouping, 0.5);

        let rows: Vec<Vec<String>> = ranked
            .iter()
            .take(5)
            .map(|r| {
                let attrs = r.attrs();
                vec![
                    r.display(&names),
                    f3(r.rank),
                    f3(rad_ctx(&ctx, attrs)),
                    f3(rtr_ctx(&ctx, attrs)),
                ]
            })
            .collect();
        print_table(
            "top-ranked dependencies (ψ = 0.5)",
            &["dependency", "rank", "RAD", "RTR"],
            &rows,
        );
    }
}
