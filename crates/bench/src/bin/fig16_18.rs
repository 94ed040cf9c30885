//! Regenerates Figures 16–18: attribute dendrograms of the three DBLP
//! horizontal partitions (φT = 0.5, φV = 1.0 per the paper).
//!
//! Expected shapes (paper):
//! * c1 (conference): Volume/Journal/Number at zero distance (all NULL
//!   there), Author–Pages almost zero, BookTitle close to them;
//! * c2 (journal): correlations among Journal, Volume, Number, Year;
//! * c3 (misc): "rather random" associations.

use dbmine::context::AnalysisCtx;
use dbmine::limbo::LimboParams;
use dbmine::summaries::render::render_dendrogram;
use dbmine::summaries::{cluster_values_ctx, group_attributes, tuple_summary_assignment_ctx};
use dbmine_bench::dblp_pipeline::partitioned_dblp;
use dbmine_bench::{dblp_scale, f3, timed};

fn main() {
    let p = timed("generate + partition (k = 3)", || {
        partitioned_dblp(dblp_scale(), 0.5, Some(3))
    });

    let order = p.ordered_by_type();
    for (slot, &(i, label)) in order.iter().enumerate() {
        // One context per partition relation: both Double Clustering
        // stages share its views.
        let rel = p.result.partition_relation(&p.projected, i);
        let ctx = AnalysisCtx::of(&rel);
        println!(
            "\n==== Figure {}: cluster c{} ({} tuples, dominant type: {label}) ====",
            16 + slot,
            slot + 1,
            rel.n_tuples()
        );
        // Double clustering within the partition, as in the paper.
        let (assignment, n_sum) = tuple_summary_assignment_ctx(&ctx, LimboParams::with_phi(0.5));
        let values = cluster_values_ctx(&ctx, LimboParams::with_phi(1.0), Some(&assignment));
        let grouping = group_attributes(&values, rel.n_attrs());
        println!(
            "tuple summaries: {n_sum}; duplicate value groups: {}; |A_D| = {}; max IL = {}",
            values.duplicates().count(),
            grouping.attrs.len(),
            f3(grouping.max_loss())
        );
        if grouping.attrs.is_empty() {
            println!("(no duplicate value groups — no attribute dendrogram)");
            continue;
        }
        let labels: Vec<String> = grouping
            .attrs
            .iter()
            .map(|&a| rel.attr_names()[a].clone())
            .collect();
        print!("{}", render_dendrogram(&grouping.dendrogram, &labels, 52));
    }
}
