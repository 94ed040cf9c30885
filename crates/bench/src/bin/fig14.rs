//! Regenerates Figure 14: the attribute-cluster dendrogram of the DB2
//! sample relation (φV = 0, φA = 0), plus the Section 8.1.3 stability
//! check at φV ∈ {0.1, 0.2}.

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, Db2Spec};
use dbmine::limbo::LimboParams;
use dbmine::summaries::render::render_dendrogram;
use dbmine::summaries::{cluster_values_ctx, group_attributes};
use dbmine_bench::f3;

fn main() {
    let sample = db2_sample(&Db2Spec::default());
    // One context for the whole sweep: the ValueIndex and I(V;T) are
    // built once and shared by all three φV runs.
    let rel = sample.relation;
    let ctx = AnalysisCtx::of(&rel);
    println!(
        "DB2 sample: {} tuples, {} attributes, {} distinct values",
        rel.n_tuples(),
        rel.n_attrs(),
        rel.distinct_value_count()
    );

    for phi_v in [0.0, 0.1, 0.2] {
        let values = cluster_values_ctx(&ctx, LimboParams::with_phi(phi_v), None);
        let grouping = group_attributes(&values, rel.n_attrs());
        let labels: Vec<String> = grouping
            .attrs
            .iter()
            .map(|&a| rel.attr_names()[a].clone())
            .collect();
        println!(
            "\n== Figure 14 dendrogram (φV = {phi_v}): |A_D| = {}, |C_VD| = {}, max IL = {} ==",
            grouping.attrs.len(),
            values.duplicates().count(),
            f3(grouping.max_loss())
        );
        print!("{}", render_dendrogram(&grouping.dendrogram, &labels, 56));
        // Which original table does each attribute cluster correspond to?
        println!("attribute clusters at k = 3:");
        for cluster in grouping.clusters_at(3) {
            let names: Vec<&str> = cluster
                .iter()
                .map(|&a| rel.attr_names()[a].as_str())
                .collect();
            println!("  {{{}}}", names.join(", "));
        }
    }
}
