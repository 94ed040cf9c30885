//! Regenerates the paper's running example: Figures 4–10 and the
//! Section 7 FD-RANK walk-through.

use dbmine::context::AnalysisCtx;
use dbmine::fdrank::{decompose, rank_fds};
use dbmine::limbo::LimboParams;
use dbmine::relation::paper::{figure4, figure5};
use dbmine::summaries::render::render_dendrogram;
use dbmine::summaries::{cluster_values_ctx, group_attributes};
use dbmine_bench::{f3, print_table};
use dbmine_oracles::mine_fdep;

fn print_matrices(ctx: &AnalysisCtx, title: &str) {
    // The same cached index later feeds the Figure 7 value clustering.
    let idx = ctx.value_index();
    let header: Vec<String> = (0..ctx.n_tuples()).map(|t| format!("t{}", t + 1)).collect();
    let mut hdr: Vec<&str> = vec!["value"];
    hdr.extend(header.iter().map(String::as_str));
    hdr.push("p(v)");
    let rows: Vec<Vec<String>> = (0..idx.len())
        .map(|i| {
            let mut row = vec![ctx.dict().string(idx.value_id(i)).to_string()];
            let n_row = idx.n_row(i);
            for t in 0..ctx.n_tuples() {
                row.push(f3(n_row.get(t as u32)));
            }
            row.push(f3(idx.prior()));
            row
        })
        .collect();
    print_table(&format!("{title}: matrix N"), &hdr, &rows);

    let mut hdr: Vec<&str> = vec!["value"];
    let names: Vec<String> = ctx.attr_names().to_vec();
    hdr.extend(names.iter().map(String::as_str));
    let rows: Vec<Vec<String>> = (0..idx.len())
        .map(|i| {
            let mut row = vec![ctx.dict().string(idx.value_id(i)).to_string()];
            for a in 0..ctx.n_attrs() {
                row.push(format!("{}", idx.o_row(i).get(a as u32) as i64));
            }
            row
        })
        .collect();
    print_table(&format!("{title}: matrix O"), &hdr, &rows);
}

fn main() {
    let rel = figure4();
    let ctx = AnalysisCtx::of(&rel);
    println!(
        "Relation of Figure 4 ({} tuples, {} attributes, {} values)",
        rel.n_tuples(),
        rel.n_attrs(),
        rel.distinct_value_count()
    );
    print_matrices(&ctx, "Figure 6");

    // Value clustering at φV = 0 (Figure 7).
    let values = cluster_values_ctx(&ctx, LimboParams::with_phi(0.0), None);
    let rows: Vec<Vec<String>> = values
        .groups
        .iter()
        .map(|g| {
            vec![
                format!(
                    "{{{}}}",
                    g.values
                        .iter()
                        .map(|&v| rel.dict().string(v))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
                g.tuple_support.to_string(),
                g.attr_span().to_string(),
                if g.is_duplicate { "C_VD" } else { "C_VND" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 7: value clusters at φV = 0",
        &["group", "tuples", "attrs", "class"],
        &rows,
    );

    // Figure 5/8: the erroneous relation needs φV > 0.
    let rel5 = figure5();
    let lax = cluster_values_ctx(&AnalysisCtx::of(&rel5), LimboParams::with_phi(0.5), None);
    let rows: Vec<Vec<String>> = lax
        .groups
        .iter()
        .map(|g| {
            vec![
                format!(
                    "{{{}}}",
                    g.values
                        .iter()
                        .map(|&v| rel5.dict().string(v))
                        .collect::<Vec<_>>()
                        .join(",")
                ),
                g.tuple_support.to_string(),
                if g.is_duplicate { "C_VD" } else { "C_VND" }.to_string(),
            ]
        })
        .collect();
    print_table(
        "Figure 8: value clusters of the erroneous relation (φV = 0.5)",
        &["group", "tuples", "class"],
        &rows,
    );

    // Figure 9/10: matrix F and the attribute dendrogram.
    let grouping = group_attributes(&values, rel.n_attrs());
    println!(
        "\n== Figure 10: attribute dendrogram (max IL = {}) ==",
        f3(grouping.max_loss())
    );
    let labels: Vec<String> = grouping
        .attrs
        .iter()
        .map(|&a| rel.attr_names()[a].clone())
        .collect();
    print!("{}", render_dendrogram(&grouping.dendrogram, &labels, 48));

    // Section 7: FD-RANK with ψ = 0.5 over {A→B, C→B}.
    let fds = mine_fdep(&ctx);
    let ranked = rank_fds(&fds, &grouping, 0.5);
    let names = rel.attr_names().to_vec();
    let rows: Vec<Vec<String>> = ranked
        .iter()
        .map(|r| vec![r.display(&names), f3(r.rank)])
        .collect();
    print_table(
        "Section 7: FD-RANK (ψ = 0.5)",
        &["dependency", "rank"],
        &rows,
    );

    // The decomposition comparison the paper closes Section 7 with.
    let by = |lhs: &str| {
        ranked
            .iter()
            .find(|r| r.display(&names).starts_with(&format!("[{lhs}]")))
            .cloned()
    };
    if let (Some(c), Some(a)) = (by("C"), by("A")) {
        let dc = decompose(&rel, &c);
        let da = decompose(&rel, &a);
        print_table(
            "Decomposition comparison",
            &["by", "S1 tuples", "S2 tuples", "cells saved"],
            &[
                vec![
                    c.display(&names),
                    dc.s1.n_tuples().to_string(),
                    dc.s2.n_tuples().to_string(),
                    f3(dc.storage_reduction()),
                ],
                vec![
                    a.display(&names),
                    da.s1.n_tuples().to_string(),
                    da.s2.n_tuples().to_string(),
                    f3(da.storage_reduction()),
                ],
            ],
        );
    }
}
