//! Regenerates Figure 15: attribute clusters of the full 13-attribute
//! DBLP relation, using Double Clustering (φT = 0.5) and φA = 0.
//!
//! Expected shape (paper): the six ≥98 %-NULL attributes {Publisher,
//! ISBN, Editor, Series, School, Month} merge at (almost) zero
//! information loss — "the value that prevails in this set of attributes
//! is the NULL value."

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{dblp_sample, DblpSpec};
use dbmine::limbo::LimboParams;
use dbmine::summaries::render::render_dendrogram;
use dbmine::summaries::{cluster_values_ctx, group_attributes, tuple_summary_assignment_ctx};
use dbmine_bench::{dblp_scale, f3, timed};

fn main() {
    let spec = DblpSpec {
        n_tuples: dblp_scale(),
        ..Default::default()
    };
    // One context drives both stages of Double Clustering, so the
    // ValueIndex (and the tuple views) are built once for the run.
    let rel = timed("generate DBLP", || dblp_sample(&spec));
    let ctx = AnalysisCtx::of(&rel);
    println!(
        "DBLP: {} tuples, {} attributes, {} distinct values",
        rel.n_tuples(),
        rel.n_attrs(),
        rel.distinct_value_count()
    );

    // Double clustering: tuples at φT = 0.5 (paper: 50 000 → 1 361
    // summaries), then values over the tuple clusters.
    let (assignment, n_clusters) = timed("tuple clustering (φT = 0.5)", || {
        tuple_summary_assignment_ctx(&ctx, LimboParams::with_phi(0.5))
    });
    println!("tuple summaries: {n_clusters} (paper: 1361)");

    let values = timed("value clustering (φV = 1.0, double)", || {
        cluster_values_ctx(&ctx, LimboParams::with_phi(1.0), Some(&assignment))
    });
    println!(
        "value groups: {} ({} duplicate groups)",
        values.groups.len(),
        values.duplicates().count()
    );

    let grouping = timed("attribute grouping (φA = 0)", || {
        group_attributes(&values, rel.n_attrs())
    });
    let labels: Vec<String> = grouping
        .attrs
        .iter()
        .map(|&a| rel.attr_names()[a].clone())
        .collect();
    println!(
        "\n== Figure 15: DBLP attribute clusters (|A_D| = {}, max IL = {}) ==",
        grouping.attrs.len(),
        f3(grouping.max_loss())
    );
    print!("{}", render_dendrogram(&grouping.dendrogram, &labels, 56));

    // The NULL-heavy group: at what loss do the six attributes unite?
    let null_heavy: dbmine::relation::AttrSet = dbmine::datagen::dblp::NULL_HEAVY_ATTRS
        .iter()
        .filter_map(|n| rel.attr_id(n))
        .collect();
    match grouping.common_merge_loss(null_heavy) {
        Some(loss) => println!(
            "\nNULL-heavy group {{Publisher,ISBN,Editor,Series,School,Month}} unites at IL = {} \
             ({}% of max) — paper: 'zero or almost zero information loss'",
            f3(loss),
            f3(100.0 * loss / grouping.max_loss().max(1e-12))
        ),
        None => println!("\nNULL-heavy group does not fully participate in A_D"),
    }
}
