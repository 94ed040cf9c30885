//! Property tests for the analysis context: whatever order (or thread
//! interleaving) views are first touched in, every cached view must be
//! identical to a fresh single-purpose build, repeat passes must be
//! pure cache hits, and concurrent first access must not build any
//! view more than once.

use dbmine_context::AnalysisCtx;
use dbmine_relation::stats;
use dbmine_relation::{
    csv, AttrSet, Relation, RelationBuilder, ShardedRelation, StrippedPartition, TupleRows,
    ValueIndex,
};
use proptest::prelude::*;
use std::path::PathBuf;

/// A random small categorical relation (2–5 attrs, ≤12 tuples, domain 3).
fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=5, 1usize..=12).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::collection::vec(0u8..3, m), n).prop_map(move |rows| {
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for row in rows {
                let cells: Vec<String> = row
                    .iter()
                    .enumerate()
                    .map(|(a, v)| format!("v{a}_{v}"))
                    .collect();
                let strs: Vec<&str> = cells.iter().map(String::as_str).collect();
                b.push_row_strs(&strs);
            }
            b.build()
        })
    })
}

/// One first-touch of a cached view.
#[derive(Clone, Debug)]
enum Access {
    TupleRows,
    ValueIndex,
    TupleMi,
    ValueMi,
    Partition(usize),
    Profiles,
    Projection(u64),
}

fn arb_case() -> impl Strategy<Value = (Relation, Vec<Access>)> {
    arb_relation().prop_flat_map(|rel| {
        let m = rel.n_attrs();
        let one = (0u8..7, 0..m, 1u64..(1u64 << m)).prop_map(|(sel, a, bits)| match sel {
            0 => Access::TupleRows,
            1 => Access::ValueIndex,
            2 => Access::TupleMi,
            3 => Access::ValueMi,
            4 => Access::Partition(a),
            5 => Access::Profiles,
            _ => Access::Projection(bits),
        });
        (Just(rel), proptest::collection::vec(one, 1..24))
    })
}

fn apply(ctx: &AnalysisCtx, access: &Access) {
    match access {
        Access::TupleRows => {
            ctx.tuple_rows();
        }
        Access::ValueIndex => {
            ctx.value_index();
        }
        Access::TupleMi => {
            ctx.tuple_mutual_information();
        }
        Access::ValueMi => {
            ctx.value_mutual_information();
        }
        Access::Partition(a) => {
            ctx.attr_partition(*a);
        }
        Access::Profiles => {
            ctx.column_profiles();
        }
        Access::Projection(bits) => {
            ctx.projection_stats(AttrSet::from_bits(*bits));
        }
    }
}

/// Writes `rel` to a per-process temp CSV and returns its path. The
/// memory twin and every chunk scan read this one file, so both sides
/// intern values in the same first-occurrence order.
fn temp_csv(rel: &Relation, tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("dbmine_ctx_prop");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join(format!("{tag}_{}.csv", std::process::id()));
    csv::write_relation_path(rel, &path).expect("write csv");
    path
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The tentpole invariant of the source-agnostic context: a
    /// store-backed context at any chunk size serves every view
    /// bit-identical to a memory-backed context over the same CSV,
    /// without ever materializing the relation.
    #[test]
    fn chunk_backed_views_are_bit_identical_to_memory(case in arb_case()) {
        let (rel, accesses) = case;
        let path = temp_csv(&rel, "bits");
        let mem = AnalysisCtx::from(csv::read_relation_path(&path).expect("read csv"));
        for a in &accesses {
            apply(&mem, a);
        }
        // Chunk sizes straddle the tuple count (1 = one tuple per
        // chunk, 1000 = a single chunk).
        for chunk in [1usize, 3, 7, 1000] {
            let store = path.with_extension(format!("c{chunk}.dbss"));
            let sharded =
                ShardedRelation::scan_csv_path_spill(&path, chunk, &store).expect("spill store");
            let ctx = AnalysisCtx::from_chunks(sharded).expect("chunk-backed context");
            for a in &accesses {
                apply(&ctx, a);
            }

            prop_assert_eq!(ctx.tuple_rows().len(), mem.tuple_rows().len());
            prop_assert_eq!(
                ctx.tuple_mutual_information().to_bits(),
                mem.tuple_mutual_information().to_bits()
            );
            prop_assert_eq!(ctx.value_index().len(), mem.value_index().len());
            prop_assert_eq!(
                ctx.value_mutual_information().to_bits(),
                mem.value_mutual_information().to_bits()
            );
            for a in 0..rel.n_attrs() {
                prop_assert_eq!(ctx.attr_partition(a), mem.attr_partition(a));
            }
            // Both paths fold entropies through the same deterministic
            // first-occurrence counter, so profiles and projection
            // stats compare exactly, floats included.
            prop_assert_eq!(ctx.column_profiles(), mem.column_profiles());
            for a in &accesses {
                if let Access::Projection(bits) = a {
                    let set = AttrSet::from_bits(*bits);
                    prop_assert_eq!(ctx.projection_stats(set), mem.projection_stats(set));
                }
            }

            // Everything above was served from chunk passes alone.
            prop_assert_eq!(ctx.view_stats().materializations, 0);
        }
    }

    #[test]
    fn cached_views_match_fresh_builds_under_any_ordering(case in arb_case()) {
        let (rel, accesses) = case;
        let ctx = AnalysisCtx::of(&rel);
        for a in &accesses {
            apply(&ctx, a);
        }

        // Every view — whether first materialized above or right here —
        // equals a fresh single-purpose build.
        prop_assert_eq!(ctx.tuple_rows().len(), rel.n_tuples());
        prop_assert_eq!(
            ctx.tuple_mutual_information(),
            TupleRows::build(&rel).mutual_information()
        );
        prop_assert_eq!(ctx.value_index().len(), ValueIndex::build(&rel).len());
        prop_assert_eq!(
            ctx.value_mutual_information(),
            ValueIndex::build(&rel).mutual_information()
        );
        for a in 0..rel.n_attrs() {
            prop_assert_eq!(ctx.attr_partition(a), &StrippedPartition::of_attr(&rel, a));
        }
        let fresh = stats::profile_columns(&rel);
        for (p, f) in ctx.column_profiles().iter().zip(&fresh) {
            prop_assert_eq!(&p.name, &f.name);
            prop_assert_eq!(p.distinct, f.distinct);
            prop_assert_eq!(p.null_fraction, f.null_fraction);
            prop_assert!((p.entropy - f.entropy).abs() < 1e-9);
        }
        for a in &accesses {
            if let Access::Projection(bits) = a {
                let set = AttrSet::from_bits(*bits);
                let s = ctx.projection_stats(set);
                prop_assert_eq!(s.distinct, stats::projection_distinct(&rel, set));
                prop_assert!((s.entropy - stats::projection_entropy(&rel, set)).abs() < 1e-9);
            }
        }

        // Replaying the ordering is pure cache service: no new builds.
        let before = ctx.view_stats();
        for a in &accesses {
            apply(&ctx, a);
        }
        let after = ctx.view_stats();
        prop_assert_eq!(after.builds, before.builds);
        prop_assert!(after.hits >= before.hits + accesses.len() as u64);
    }

    #[test]
    fn concurrent_access_builds_each_view_exactly_once(case in arb_case()) {
        let (rel, accesses) = case;
        // Two threads race through the same access sequence. The exact
        // build count must match a serial replay of the sequence — i.e.
        // racing first accesses never materialize a view twice.
        let concurrent = AnalysisCtx::of(&rel);
        std::thread::scope(|s| {
            for _ in 0..2 {
                let ctx = &concurrent;
                let accesses = &accesses;
                s.spawn(move || {
                    for a in accesses {
                        apply(ctx, a);
                    }
                });
            }
        });

        let serial = AnalysisCtx::of(&rel);
        for a in &accesses {
            apply(&serial, a);
        }
        prop_assert_eq!(concurrent.view_stats().builds, serial.view_stats().builds);

        // And the racing context serves the same views.
        prop_assert_eq!(
            concurrent.tuple_mutual_information(),
            serial.tuple_mutual_information()
        );
        prop_assert_eq!(
            concurrent.value_mutual_information(),
            serial.value_mutual_information()
        );
        for a in 0..rel.n_attrs() {
            prop_assert_eq!(concurrent.attr_partition(a), serial.attr_partition(a));
        }
        // Entropy is summed in hash-map iteration order, so two
        // *independently built* memo entries may differ in the last few
        // bits; within one context the memo makes it bit-stable.
        for (p, q) in concurrent.column_profiles().iter().zip(serial.column_profiles()) {
            prop_assert_eq!(&p.name, &q.name);
            prop_assert_eq!(p.distinct, q.distinct);
            prop_assert_eq!(p.null_fraction, q.null_fraction);
            prop_assert!((p.entropy - q.entropy).abs() < 1e-9);
        }
    }
}
