//! Quickstart: run the full structure-mining pipeline on a small
//! relation and read the report.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use dbmine::context::AnalysisCtx;
use dbmine::relation::RelationBuilder;
use dbmine::{MinerConfig, StructureMiner};

fn main() {
    // A tiny "employees" relation with a hidden design flaw: city and
    // zip are stored redundantly with every person (Zip → City holds).
    let mut b = RelationBuilder::new("people", &["Name", "City", "Zip", "Plan"]);
    for (name, city, zip, plan) in [
        ("Pat", "Boston", "02139", "gold"),
        ("Sal", "Boston", "02139", "basic"),
        ("Kim", "Boston", "02139", "gold"),
        ("Ana", "Toronto", "M5S1A1", "basic"),
        ("Lee", "Toronto", "M5S1A1", "gold"),
        ("Joe", "Toronto", "M5S1A1", "basic"),
        ("Ida", "Boston", "02139", "basic"),
        ("Max", "Toronto", "M5S1A1", "basic"),
    ] {
        b.push_row_strs(&[name, city, zip, plan]);
    }
    let ctx = AnalysisCtx::from(b.build());

    // One call: profiling, duplicate discovery, value clustering,
    // attribute grouping, FD mining, minimum cover, FD-RANK.
    let report = StructureMiner::new(MinerConfig::default()).analyze_ctx(&ctx);
    let names = ctx.attr_names().to_vec();

    println!("columns:");
    for c in &report.columns {
        println!(
            "  {:<5} distinct = {} entropy = {:.3} bits",
            c.name, c.distinct, c.entropy
        );
    }

    println!("\nduplicate value groups (C_VD):");
    for g in report.value_groups.duplicates() {
        let values: Vec<&str> = g.values.iter().map(|&v| ctx.dict().string(v)).collect();
        println!(
            "  {{{}}} in {} tuples across {} attributes",
            values.join(", "),
            g.tuple_support,
            g.attr_span()
        );
    }

    println!("\nranked dependencies (lower rank = more redundancy captured):");
    for r in &report.ranked {
        println!(
            "  {:<24} rank = {:.3}  RAD = {:.3}  RTR = {:.3}",
            r.display(&names),
            r.fd.rank,
            r.rad,
            r.rtr
        );
    }

    // The top-ranked dependency suggests the vertical split.
    if let Some(top) = report.ranked.first() {
        let d = dbmine::fdrank::decompose(&ctx, &top.fd);
        println!(
            "\nsuggested decomposition by {}: {}_S1({} rows) + {}({} rows), {:.1}% fewer cells",
            top.display(&names),
            ctx.name(),
            d.s1_tuples,
            d.s2.name(),
            d.s2.n_tuples(),
            100.0 * d.storage_reduction()
        );
    }
}
