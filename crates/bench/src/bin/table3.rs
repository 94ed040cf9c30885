//! Regenerates Section 8.1.4: the FDEP + minimum-cover + FD-RANK run on
//! the DB2 sample, and Table 3 (RAD/RTR of the top-ranked dependencies).
//!
//! Paper reference: FDEP found 106 FDs, minimum cover 14; top-ranked,
//! ψ = 0.5:
//!
//! ```text
//! 1. [DeptNo]→[DeptName,MgrNo]          RAD 0.947  RTR 0.922
//! 2. [DeptName]→[MgrNo]                 RAD 0.965  RTR 0.922
//! 3. [EmpNo]→[BirthYear,FirstName,...]  RAD 0.924  RTR 0.878
//! 4. [ProjNo]→[ProjName,RespEmpNo,...]  RAD 0.872  RTR 0.800
//! ```

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, Db2Spec};
use dbmine::fdmine::minimum_cover;
use dbmine::fdrank::{decompose, rad_ctx, rank_fds, rtr_ctx};
use dbmine::limbo::LimboParams;
use dbmine::summaries::{cluster_values_ctx, group_attributes};
use dbmine_bench::{f3, print_table, timed};
use dbmine_oracles::mine_fdep;

fn main() {
    let sample = db2_sample(&Db2Spec::default());
    // One context: the value clustering and the per-FD RAD/RTR all share
    // its cached views and projection stats.
    let rel = sample.relation;
    let ctx = AnalysisCtx::of(&rel);
    let names = rel.attr_names().to_vec();

    let fds = timed("FDEP", || mine_fdep(&AnalysisCtx::of(&rel)));
    let cover = timed("minimum cover", || minimum_cover(&fds));
    println!(
        "FDEP discovered {} minimal FDs; minimum cover has {} (paper: 106 / 14)",
        fds.len(),
        cover.len()
    );

    let values = cluster_values_ctx(&ctx, LimboParams::with_phi(0.0), None);
    let grouping = group_attributes(&values, rel.n_attrs());
    let ranked = rank_fds(&cover, &grouping, 0.5);

    let rows: Vec<Vec<String>> = ranked
        .iter()
        .take(8)
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
        "Table 3: top-ranked dependencies (ψ = 0.5)",
        &["dependency", "rank", "RAD", "RTR"],
        &rows,
    );

    // What does decomposing by the winner actually buy?
    if let Some(top) = ranked.first() {
        let d = decompose(&ctx, top);
        println!(
            "\nDecomposing by {} : S1 = {} tuples x {} attrs, S2 = {} x {}, storage saved {}",
            top.display(&names),
            d.s1_tuples,
            d.s1_attrs.len(),
            d.s2.n_tuples(),
            d.s2.n_attrs(),
            f3(d.storage_reduction()),
        );
    }
}
