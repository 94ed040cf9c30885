//! Data-redesign walkthrough on the DB2-sample-style relation: starting
//! from a denormalized join of EMPLOYEE ⋈ DEPARTMENT ⋈ PROJECT, recover
//! the three original entities (Section 8.1 of the paper).
//!
//! ```sh
//! cargo run --release --example db2_redesign
//! ```

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, Db2Spec};
use dbmine::fdrank::decompose;
use dbmine::summaries::render::render_dendrogram;
use dbmine::{MinerConfig, StructureMiner};

fn main() {
    let ctx = AnalysisCtx::from(db2_sample(&Db2Spec::default()).relation);
    println!(
        "input: one overloaded relation, {} tuples × {} attributes",
        ctx.n_tuples(),
        ctx.n_attrs()
    );

    let report = StructureMiner::new(MinerConfig::default()).analyze_ctx(&ctx);
    let names = ctx.attr_names().to_vec();

    // 1. The attribute grouping recovers the three source tables.
    println!("\nattribute groups at k = 3 (the original schemas):");
    for cluster in report.attribute_grouping.clusters_at(3) {
        let labels: Vec<&str> = cluster.iter().map(|&a| names[a].as_str()).collect();
        println!("  {{{}}}", labels.join(", "));
    }
    let labels: Vec<String> = report
        .attribute_grouping
        .attrs
        .iter()
        .map(|&a| names[a].clone())
        .collect();
    println!("\nfull dendrogram:");
    print!(
        "{}",
        render_dendrogram(&report.attribute_grouping.dendrogram, &labels, 48)
    );

    // 2. The ranked dependencies tell us which split to apply first.
    println!("\ntop-ranked dependencies:");
    for r in report.top(4) {
        println!(
            "  {:<32} rank = {:.3}  RAD = {:.3}  RTR = {:.3}",
            r.display(&names),
            r.fd.rank,
            r.rad,
            r.rtr
        );
    }

    // 3. Apply the best decomposition and iterate on the remainder, a
    //    context derived from its parent's.
    let mut current = ctx;
    for step in 1..=3 {
        let rep = StructureMiner::new(MinerConfig::default()).analyze_ctx(&current);
        let Some(top) = rep.ranked.first() else { break };
        let d = decompose(&current, &top.fd);
        println!(
            "\nstep {step}: split by {} → extracted {}_S1 ({} rows × {} attrs); remainder {} rows × {} attrs",
            top.display(current.attr_names()),
            current.name(),
            d.s1_tuples,
            d.s1_attrs.len(),
            d.s2.n_tuples(),
            d.s2.n_attrs()
        );
        current = d.s2;
        if current.n_attrs() <= 3 {
            break;
        }
    }
}
