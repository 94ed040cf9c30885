//! Bellman-style join-path discovery across the normalized DB2 base
//! tables, and the same lens turned inward on the denormalized join —
//! showing how cross-attribute value sharing (the raw material of the
//! paper's attribute grouping) appears as containment edges.
//!
//! ```sh
//! cargo run --release --example join_discovery
//! ```

use dbmine::baselines::{join_candidates, self_join_candidates};
use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, Db2Spec};

fn main() {
    let s = db2_sample(&Db2Spec::default());
    println!(
        "base tables: EMPLOYEE {}×{}, DEPARTMENT {}×{}, PROJECT {}×{}",
        s.employee.n_tuples(),
        s.employee.n_attrs(),
        s.department.n_tuples(),
        s.department.n_attrs(),
        s.project.n_tuples(),
        s.project.n_attrs()
    );

    let pairs = [
        ("EMPLOYEE", &s.employee, "DEPARTMENT", &s.department),
        ("PROJECT", &s.project, "DEPARTMENT", &s.department),
        ("DEPARTMENT", &s.department, "EMPLOYEE", &s.employee),
        ("PROJECT", &s.project, "EMPLOYEE", &s.employee),
    ];
    for (ln, l, rn, r) in pairs {
        println!("\n{ln} → {rn} join candidates (containment ≥ 0.95):");
        let (lc, rc) = (AnalysisCtx::of(l), AnalysisCtx::of(r));
        for c in join_candidates(&lc, &rc, 2.0, 0.95) {
            println!(
                "  {}.{} ⊆ {}.{}   containment {:.2}, jaccard {:.2} ({} shared values)",
                ln,
                l.attr_names()[c.left_attr],
                rn,
                r.attr_names()[c.right_attr],
                c.left_containment,
                c.jaccard,
                c.shared
            );
        }
    }

    println!("\nwithin the denormalized join (cross-attribute value sharing):");
    for c in self_join_candidates(&AnalysisCtx::of(&s.relation), 0.2)
        .iter()
        .take(8)
    {
        println!(
            "  {} ~ {}   jaccard {:.2}",
            s.relation.attr_names()[c.left_attr],
            s.relation.attr_names()[c.right_attr],
            c.jaccard
        );
    }
    println!(
        "\nThese shared-value pairs (EmpNo~MgrNo, ProjNo~MajorProjNo, ...) are exactly\n\
         the duplicate value groups that drive the paper's attribute grouping."
    );
}
