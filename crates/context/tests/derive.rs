//! Property tests: partitions derived through `derive_projected` are
//! bit-identical to partitions rebuilt from the projected relation (the
//! oracle `dbmine_oracles::project_distinct`), for
//! arbitrary relations and attribute subsets, from a memory parent and
//! from a store-backed parent at any chunk size.

use dbmine_context::AnalysisCtx;
use dbmine_oracles::project_distinct;
use dbmine_relation::{
    csv, AttrSet, Relation, RelationBuilder, ShardedRelation, StrippedPartition,
};
use proptest::prelude::*;

/// Small random categorical relations (with NULLs) and a non-empty
/// attribute subset to project on.
fn rel_and_attrs() -> impl Strategy<Value = (Relation, AttrSet)> {
    (2usize..=5, 0usize..=40).prop_flat_map(|(m, n)| {
        let rows = proptest::collection::vec(
            proptest::collection::vec(proptest::option::weighted(0.85, 0u8..4), m),
            n..=n,
        );
        let mask = 1usize..(1 << m);
        (rows, mask).prop_map(move |(rows, mask)| {
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("p", &name_refs);
            for row in &rows {
                let cells: Vec<Option<String>> =
                    row.iter().map(|c| c.map(|v| format!("v{v}"))).collect();
                let refs: Vec<Option<&str>> = cells.iter().map(|c| c.as_deref()).collect();
                b.push_row(&refs);
            }
            let attrs = AttrSet::from_bits(mask as u64);
            (b.build(), attrs)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn derived_equals_rebuilt(input in rel_and_attrs()) {
        let (rel, attrs) = input;
        let ctx = AnalysisCtx::of(&rel);
        let child = ctx.derive_projected(attrs, "child");
        let fresh = project_distinct(&rel, attrs, "child");
        check_child(&child, &fresh, attrs)?;
    }

    /// The same step from a store-backed parent: the child's rows come
    /// from one selection fold over the store's chunks, wherever their
    /// boundaries fall, and nothing is materialized.
    #[test]
    fn store_backed_parent_derives_like_memory(input in rel_and_attrs()) {
        let (rel, attrs) = input;
        let dir = std::env::temp_dir().join("dbmine_ctx_derive");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let path = dir.join(format!("p_{}.csv", std::process::id()));
        csv::write_relation_path(&rel, &path).expect("write csv");
        let rel = csv::read_relation_path(&path).expect("read csv");
        let fresh = project_distinct(&rel, attrs, "child");
        for chunk in [1usize, 3, 1000] {
            let store = path.with_extension(format!("c{chunk}.dbss"));
            let parent = ShardedRelation::scan_csv_path_spill(&path, chunk, &store)
                .and_then(AnalysisCtx::from_chunks)
                .expect("chunk-backed context");
            let child = parent.derive_projected(attrs, "child");
            check_child(&child, &fresh, attrs)?;
            prop_assert_eq!(parent.view_stats().materializations, 0);
            let _ = std::fs::remove_file(store);
        }
        let _ = std::fs::remove_file(path);
    }
}

/// `child` holds `fresh`'s rows, its seeded `π_A` equal a rebuild from
/// `fresh`, and it counted no build.
fn check_child(child: &AnalysisCtx, fresh: &Relation, attrs: AttrSet) -> Result<(), TestCaseError> {
    prop_assert_eq!(child.content_hash(), fresh.content_hash());
    for (ci, a) in attrs.iter().enumerate() {
        let derived = child.attr_partition(ci);
        let rebuilt = StrippedPartition::of_attr(fresh, ci);
        prop_assert_eq!(derived, &rebuilt, "parent attr {} diverged", a);
    }
    // Seeding counts as neither build nor hit; the accesses above were
    // all hits.
    prop_assert_eq!(child.view_stats().builds, 0);
    Ok(())
}
