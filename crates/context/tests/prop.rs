//! Property tests for the analysis context: whatever order (or thread
//! interleaving) views are first touched in, every cached view must be
//! identical to a fresh single-purpose build, repeat passes must be
//! pure cache hits, and concurrent first access must not build any
//! view more than once.

use dbmine_context::{AnalysisCtx, ProjectionStats};
use dbmine_relation::{
    csv, AttrSet, Relation, RelationBuilder, ShardedRelation, StrippedPartition, ValueId,
    NULL_VALUE,
};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;

/// A random small categorical relation: 1–5 attrs, 0–12 tuples, domain
/// 3 plus NULL cells, and columns that may be entirely NULL.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (1usize..=5, 0usize..=12).prop_flat_map(|(m, n)| {
        let rows = proptest::collection::vec(
            proptest::collection::vec(proptest::option::weighted(0.8, 0u8..3), m),
            n,
        );
        // A column whose draw is 0 (one in five) is entirely NULL.
        let all_null = proptest::collection::vec(0u8..5, m);
        (rows, all_null).prop_map(move |(rows, all_null)| {
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for row in rows {
                let cells: Vec<Option<String>> = row
                    .iter()
                    .enumerate()
                    .map(|(a, v)| v.filter(|_| all_null[a] != 0).map(|v| format!("v{a}_{v}")))
                    .collect();
                let strs: Vec<Option<&str>> = cells.iter().map(Option::as_deref).collect();
                b.push_row(&strs);
            }
            b.build()
        })
    })
}

// Test-local oracles: plain group-bys and textbook formulas, sharing no
// code with the chunk folds under test.

fn log2_entropy(counts: impl IntoIterator<Item = usize>, n: usize) -> f64 {
    counts
        .into_iter()
        .map(|c| {
            let p = c as f64 / n as f64;
            -p * p.log2()
        })
        .sum()
}

fn oracle_partition(rel: &Relation, a: usize) -> StrippedPartition {
    let mut groups: BTreeMap<ValueId, Vec<u32>> = BTreeMap::new();
    for t in 0..rel.n_tuples() {
        groups.entry(rel.value(t, a)).or_default().push(t as u32);
    }
    let mut classes: Vec<Vec<u32>> = groups.into_values().filter(|c| c.len() >= 2).collect();
    classes.sort_by_key(|c| c[0]);
    StrippedPartition::from_classes(classes, rel.n_tuples())
}

fn oracle_projection(rel: &Relation, attrs: AttrSet) -> ProjectionStats {
    let mut groups: BTreeMap<Vec<ValueId>, usize> = BTreeMap::new();
    for t in 0..rel.n_tuples() {
        *groups
            .entry(attrs.iter().map(|a| rel.value(t, a)).collect())
            .or_default() += 1;
    }
    ProjectionStats {
        distinct: groups.len(),
        entropy: log2_entropy(groups.into_values(), rel.n_tuples()),
    }
}

/// The per-tuple-key fold that projection statistics were computed by
/// before they came from partitions: a hash group-by on the projected
/// row that keeps counts in first-occurrence order, summed in that
/// order — so its entropy must equal the context's bit for bit.
fn first_occurrence_projection(rel: &Relation, attrs: AttrSet) -> ProjectionStats {
    let mut slot: HashMap<Vec<ValueId>, usize> = HashMap::new();
    let mut counts: Vec<usize> = Vec::new();
    for t in 0..rel.n_tuples() {
        let key = attrs.iter().map(|a| rel.value(t, a)).collect();
        let s = *slot.entry(key).or_insert_with(|| {
            counts.push(0);
            counts.len() - 1
        });
        counts[s] += 1;
    }
    let n = rel.n_tuples() as f64;
    ProjectionStats {
        distinct: counts.len(),
        entropy: if counts.is_empty() {
            0.0
        } else {
            dbmine_infotheory::entropy(counts.iter().map(|&c| c as f64 / n))
        },
    }
}

/// `I(T;V)` of the tuple view: every tuple spreads mass `1/m` over its
/// `m` attribute-qualified cells, so `H(V|T) = log2 m` and
/// `I = H(V) − log2 m`, with `p(a, v) = count(a, v) / (n·m)`.
fn oracle_tuple_mi(rel: &Relation) -> f64 {
    let (n, m) = (rel.n_tuples(), rel.n_attrs());
    if n == 0 {
        return 0.0;
    }
    let mut cells: BTreeMap<(usize, ValueId), usize> = BTreeMap::new();
    for t in 0..n {
        for a in 0..m {
            *cells.entry((a, rel.value(t, a))).or_default() += 1;
        }
    }
    (log2_entropy(cells.into_values(), n * m) - (m as f64).log2()).max(0.0)
}

/// The distinct tuples holding each value (the value view's rows).
fn oracle_occurrences(rel: &Relation) -> BTreeMap<ValueId, BTreeSet<usize>> {
    let mut occ: BTreeMap<ValueId, BTreeSet<usize>> = BTreeMap::new();
    for t in 0..rel.n_tuples() {
        for a in 0..rel.n_attrs() {
            occ.entry(rel.value(t, a)).or_default().insert(t);
        }
    }
    occ
}

/// `I(V;T)` of the value view: `p(v) = 1/d`, `p(t|v)` uniform over the
/// `dv` tuples holding `v`, so `I = H(T) − Σ_v log2(dv) / d`.
fn oracle_value_mi(rel: &Relation) -> f64 {
    let occ = oracle_occurrences(rel);
    if occ.is_empty() {
        return 0.0;
    }
    let d = occ.len() as f64;
    let mut p_t = vec![0.0; rel.n_tuples()];
    let mut h_cond = 0.0;
    for tuples in occ.values() {
        let dv = tuples.len() as f64;
        h_cond += dv.log2() / d;
        for &t in tuples {
            p_t[t] += 1.0 / (d * dv);
        }
    }
    let h_t: f64 = p_t
        .iter()
        .filter(|&&p| p > 0.0)
        .map(|&p| -p * p.log2())
        .sum();
    (h_t - h_cond).max(0.0)
}

/// One first-touch of a cached view, or a chunk pass (which caches
/// nothing and must leave the ledger alone).
#[derive(Clone, Debug)]
enum Access {
    Chunks,
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
            0 => Access::Chunks,
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
        Access::Chunks => {
            ctx.chunks().for_each(drop);
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

/// Every tuple's cell ids, read through the context's chunk pass.
fn rows(ctx: &AnalysisCtx) -> Vec<Vec<ValueId>> {
    let mut out = Vec::new();
    for c in ctx.chunks() {
        out.extend((0..c.n_rows()).map(|t| c.row_values(t).collect()));
    }
    out
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

            prop_assert_eq!(rows(&ctx), rows(&mem));
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
            // Both paths fold entropies in the same deterministic
            // first-occurrence order (profiles over columns, projections
            // over partitions), so they compare exactly, floats
            // included.
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

    /// One accounting rule: a memory-backed and a store-backed context
    /// run the same folds, so the same access sequence leaves the same
    /// build and hit counts on both, at every chunk size.
    #[test]
    fn memory_and_store_contexts_keep_one_ledger(case in arb_case()) {
        let (rel, accesses) = case;
        let path = temp_csv(&rel, "ledger");
        let mem = AnalysisCtx::from(csv::read_relation_path(&path).expect("read csv"));
        for a in &accesses {
            apply(&mem, a);
        }
        for chunk in [1usize, 3, 7, 1000] {
            let store = path.with_extension(format!("c{chunk}.dbss"));
            let sharded =
                ShardedRelation::scan_csv_path_spill(&path, chunk, &store).expect("spill store");
            let ctx = AnalysisCtx::from_chunks(sharded).expect("chunk-backed context");
            for a in &accesses {
                apply(&ctx, a);
            }
            let (m, c) = (mem.view_stats(), ctx.view_stats());
            prop_assert_eq!((m.builds, m.hits), (c.builds, c.hits), "chunk={}", chunk);
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
        // equals an independent oracle.
        prop_assert_eq!(rows(&ctx).len(), rel.n_tuples());
        prop_assert!((ctx.tuple_mutual_information() - oracle_tuple_mi(&rel)).abs() < 1e-9);
        prop_assert_eq!(ctx.value_index().len(), oracle_occurrences(&rel).len());
        prop_assert!((ctx.value_mutual_information() - oracle_value_mi(&rel)).abs() < 1e-9);
        for a in 0..rel.n_attrs() {
            prop_assert_eq!(ctx.attr_partition(a).canonical(), oracle_partition(&rel, a));
        }
        for (a, p) in ctx.column_profiles().iter().enumerate() {
            let col = oracle_projection(&rel, AttrSet::single(a));
            let nulls = (0..rel.n_tuples()).filter(|&t| rel.value(t, a) == NULL_VALUE).count();
            let null_fraction = if rel.n_tuples() == 0 {
                0.0
            } else {
                nulls as f64 / rel.n_tuples() as f64
            };
            prop_assert_eq!(&p.name, &rel.attr_names()[a]);
            prop_assert_eq!(p.distinct, col.distinct);
            prop_assert_eq!(p.null_fraction, null_fraction);
            prop_assert!((p.entropy - col.entropy).abs() < 1e-9);
        }
        for a in &accesses {
            if let Access::Projection(bits) = a {
                let set = AttrSet::from_bits(*bits);
                let s = ctx.projection_stats(set);
                let o = oracle_projection(&rel, set);
                prop_assert_eq!(s.distinct, o.distinct);
                prop_assert!((s.entropy - o.entropy).abs() < 1e-9);
                let f = first_occurrence_projection(&rel, set);
                prop_assert_eq!(s.distinct, f.distinct);
                prop_assert_eq!(s.entropy.to_bits(), f.entropy.to_bits());
            }
        }

        // Replaying the ordering is pure cache service: no new builds,
        // and a hit for every view access (a chunk pass counts neither).
        let before = ctx.view_stats();
        for a in &accesses {
            apply(&ctx, a);
        }
        let after = ctx.view_stats();
        let views = accesses.iter().filter(|a| !matches!(a, Access::Chunks)).count();
        prop_assert_eq!(after.builds, before.builds);
        prop_assert!(after.hits >= before.hits + views as u64);
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
        // Independently built memo entries run the same first-occurrence
        // folds; compare entropies with a tolerance all the same.
        for (p, q) in concurrent.column_profiles().iter().zip(serial.column_profiles()) {
            prop_assert_eq!(&p.name, &q.name);
            prop_assert_eq!(p.distinct, q.distinct);
            prop_assert_eq!(p.null_fraction, q.null_fraction);
            prop_assert!((p.entropy - q.entropy).abs() < 1e-9);
        }
    }
}
