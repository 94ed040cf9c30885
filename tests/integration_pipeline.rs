//! Cross-crate pipeline tests: CSV round-trips into the miner, miner
//! equivalence, determinism, and the decomposition loop.

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, Db2Spec};
use dbmine::fdmine::minimum_cover;
use dbmine::fdrank::decompose;
use dbmine::relation::csv::{read_relation, write_relation};
use dbmine::{MinerConfig, StructureMiner};
use dbmine_oracles::mine_fdep;

#[test]
fn csv_roundtrip_through_full_pipeline() {
    let rel = db2_sample(&Db2Spec::default()).relation;
    let mut buf = Vec::new();
    write_relation(&rel, &mut buf).unwrap();
    let back = read_relation(buf.as_slice(), "db2").unwrap();
    assert_eq!(back.n_tuples(), rel.n_tuples());
    assert_eq!(back.n_attrs(), rel.n_attrs());

    let a = StructureMiner::new(MinerConfig::default()).analyze_ctx(&AnalysisCtx::of(&rel));
    let b = StructureMiner::new(MinerConfig::default()).analyze_ctx(&AnalysisCtx::of(&back));
    // The pipeline result is invariant under serialization.
    assert_eq!(a.cover.len(), b.cover.len());
    assert_eq!(a.ranked.len(), b.ranked.len());
    for (x, y) in a.ranked.iter().zip(&b.ranked) {
        assert!((x.fd.rank - y.fd.rank).abs() < 1e-9);
        assert!((x.rad - y.rad).abs() < 1e-9);
    }
}

#[test]
fn fdep_and_tane_agree_on_db2() {
    // The pipeline mines with TANE; FDEP, an independent algorithm,
    // must reproduce its minimum cover.
    let rel = db2_sample(&Db2Spec::default()).relation;
    let ctx = AnalysisCtx::of(&rel);
    let report = StructureMiner::default().analyze_ctx(&ctx);
    assert_eq!(
        minimum_cover(&mine_fdep(&ctx)),
        report.cover,
        "FDEP's minimum cover must equal the pipeline's"
    );
}

#[test]
fn analysis_is_deterministic() {
    let rel = db2_sample(&Db2Spec::default()).relation;
    let a = StructureMiner::default().analyze_ctx(&AnalysisCtx::of(&rel));
    let b = StructureMiner::default().analyze_ctx(&AnalysisCtx::of(&rel));
    let names = rel.attr_names().to_vec();
    let da: Vec<String> = a.ranked.iter().map(|r| r.display(&names)).collect();
    let db: Vec<String> = b.ranked.iter().map(|r| r.display(&names)).collect();
    assert_eq!(da, db);
}

#[test]
fn iterative_decomposition_reduces_storage() {
    // Repeatedly splitting by the top-ranked dependency shrinks total
    // cells and terminates.
    let rel = db2_sample(&Db2Spec::default()).relation;
    let mut current = rel;
    let mut extracted_cells = 0usize;
    let start_cells = current.n_tuples() * current.n_attrs();
    for _ in 0..4 {
        let report = StructureMiner::default().analyze_ctx(&AnalysisCtx::of(&current));
        let Some(top) = report.ranked.iter().find(|r| r.fd.promoted) else {
            break;
        };
        let d = decompose(&current, &top.fd);
        extracted_cells += d.s1.n_tuples() * d.s1.n_attrs();
        current = d.s2;
    }
    let end_cells = extracted_cells + current.n_tuples() * current.n_attrs();
    assert!(
        end_cells < start_cells,
        "decomposition should save storage: {end_cells} vs {start_cells}"
    );
}

#[test]
fn report_exposes_all_layers() {
    let rel = db2_sample(&Db2Spec::default()).relation;
    let report = StructureMiner::default().analyze_ctx(&AnalysisCtx::of(&rel));
    assert_eq!(report.columns.len(), 19);
    assert!(report.value_groups.duplicates().count() > 10);
    assert!(report.attribute_grouping.attrs.len() >= 12);
    assert!(!report.fds.is_empty());
    assert!(report.cover.len() <= report.fds.len());
    assert!(!report.ranked.is_empty());
}
