//! Mining an arbitrary CSV file: the entry point a downstream user would
//! reach for first. Writes a demo CSV if no path is given.
//!
//! ```sh
//! cargo run --release --example csv_mining -- path/to/data.csv
//! cargo run --release --example csv_mining            # built-in demo
//! ```

use dbmine::context::AnalysisCtx;
use dbmine::relation::csv::{read_relation_path, write_relation_path};
use dbmine::{MinerConfig, StructureMiner};

fn main() {
    let path = match std::env::args().nth(1) {
        Some(p) => std::path::PathBuf::from(p),
        None => {
            // No input: write the DB2-style demo data set and mine that.
            let dir = std::env::temp_dir().join("dbmine_demo");
            std::fs::create_dir_all(&dir).expect("create temp dir");
            let path = dir.join("db2_sample.csv");
            let rel = dbmine::datagen::db2_sample(&Default::default()).relation;
            write_relation_path(&rel, &path).expect("write demo CSV");
            println!("(no input given — wrote demo data to {})", path.display());
            path
        }
    };

    let rel = match read_relation_path(&path) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("failed to read {}: {e}", path.display());
            std::process::exit(1);
        }
    };
    println!(
        "loaded {}: {} tuples × {} attributes, {} distinct values\n",
        rel.name(),
        rel.n_tuples(),
        rel.n_attrs(),
        rel.distinct_value_count()
    );

    let config = MinerConfig {
        phi_tuples: 0.1, // tolerate small errors in duplicate detection
        phi_values: 0.0, // exact co-occurrence groups
        psi: 0.5,
        ..Default::default()
    };
    let report = StructureMiner::new(config).analyze_ctx(&AnalysisCtx::of(&rel));
    let names = rel.attr_names().to_vec();

    println!("column profile:");
    for c in &report.columns {
        println!(
            "  {:<14} distinct = {:<5} NULL = {:>5.1}%  H = {:.2} bits",
            c.name,
            c.distinct,
            100.0 * c.null_fraction,
            c.entropy
        );
    }

    println!(
        "\ncandidate duplicate tuple groups: {}",
        report.duplicate_tuples.groups.len()
    );
    for g in report.duplicate_tuples.groups.iter().take(3) {
        println!("  tuples {:?} (summary of {})", g.tuples, g.summary_count);
    }

    println!(
        "\nduplicate value groups: {} (of {} groups)",
        report.value_groups.duplicates().count(),
        report.value_groups.groups.len()
    );

    println!("\ntop-ranked dependencies:");
    for r in report.top(6) {
        println!(
            "  {:<36} rank = {:.3}  RAD = {:.3}  RTR = {:.3}",
            r.display(&names),
            r.fd.rank,
            r.rad,
            r.rtr
        );
    }
}
