//! Property tests for FD mining: TANE, the pipeline's miner, must agree
//! with the FDEP and brute-force oracles of `dbmine-oracles` on
//! arbitrary relations, degenerate ones included, covers must preserve
//! implication, and hitting sets must hit. The partition kernel is
//! pinned against its oracle, bounded walks against the unbounded
//! ones, and the partition MVD test against the hash group-by it
//! replaced, on relations that may be degenerate. Where an exact FD
//! lets the walk share a parent's partition instead of multiplying,
//! every partition it holds must equal the reference product of its
//! join parents, and the exact, `g3` and F̂ miners must still emit the
//! brute-force oracles' dependencies.

use dbmine_context::AnalysisCtx;
use dbmine_fdmine::cover::{closure, implies, minimum_cover};
use dbmine_fdmine::lattice::{walk_minimal, Candidate, MinimalTest};
use dbmine_fdmine::{
    mine_approximate_ctx, mine_mvds, mine_tane_ctx, mvd_holds, Fd, PartitionScratch,
    StrippedPartition, TaneOptions,
};
use dbmine_oracles::{
    agree_sets, agree_sets_from, fd_error_g3, fd_holds, mine_brute, mine_fdep,
    minimal_hitting_sets, product_reference,
};
use dbmine_relation::csv::write_relation_path;
use dbmine_relation::partition::ClassSizes;
use dbmine_relation::{AttrSet, Relation, RelationBuilder, ShardedRelation};
use dbmine_reliability::{mine_reliable_ctx, ReliableOptions, RfiScorer};
use fxhash::FxHashMap;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A random small categorical relation (≤5 attrs, ≤12 tuples, domain 3).
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

/// A small relation that may be degenerate: 0–10 tuples over 2–4
/// attributes, each column random (domain 3), random with NULLs,
/// constant, or entirely NULL.
fn arb_edge_relation() -> impl Strategy<Value = Relation> {
    (2usize..=4, 0usize..=10).prop_flat_map(|(m, n)| {
        (
            proptest::collection::vec(0u8..4, m..=m),
            proptest::collection::vec(proptest::collection::vec(0u8..3, m..=m), n..=n),
        )
            .prop_map(move |(kinds, rows)| {
                let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let mut b = RelationBuilder::new("edge", &refs);
                for row in rows {
                    let cells: Vec<Option<String>> = row
                        .iter()
                        .zip(&kinds)
                        .enumerate()
                        .map(|(a, (&v, &kind))| match kind {
                            0 => Some(format!("v{a}_{v}")),
                            1 => (v > 0).then(|| format!("v{a}_{v}")),
                            2 => Some(format!("c{a}")),
                            _ => None,
                        })
                        .collect();
                    let refs: Vec<Option<&str>> = cells.iter().map(Option::as_deref).collect();
                    b.push_row(&refs);
                }
                b.build()
            })
    })
}

/// `π_X` for every attribute set `X` of the relation, indexed by bits.
fn all_set_partitions(rel: &Relation) -> Vec<StrippedPartition> {
    (0u64..1 << rel.n_attrs())
        .map(|bits| StrippedPartition::of_attrs(rel, AttrSet::from_bits(bits)))
        .collect()
}

/// Brute-force oracle for the minimal-LHS walks: every `X → A` over `m`
/// attributes with `|X| ≤ max_lhs` whose score qualifies while no
/// proper subset of `X` does, with its score, in `Fd` order.
fn minimal_oracle<S: Copy>(
    m: usize,
    max_lhs: Option<usize>,
    score: impl Fn(AttrSet, usize) -> S,
    qualifies: impl Fn(&S) -> bool,
) -> Vec<(Fd, S)> {
    let mut out = Vec::new();
    for a in 0..m {
        let scores: Vec<S> = (0u64..1 << m)
            .map(|bits| score(AttrSet::from_bits(bits), a))
            .collect();
        for bits in 0u64..1 << m {
            let lhs = AttrSet::from_bits(bits);
            if lhs.contains(a) || max_lhs.is_some_and(|max| lhs.len() > max) {
                continue;
            }
            let proper_subset_qualifies = (0..bits)
                .filter(|&sub| sub & !bits == 0)
                .any(|sub| qualifies(&scores[sub as usize]));
            if qualifies(&scores[bits as usize]) && !proper_subset_qualifies {
                out.push((Fd::new(lhs, a), scores[bits as usize]));
            }
        }
    }
    out.sort_by_key(|f| f.0);
    out
}

/// A random relation over 2–5 attributes with exact FDs planted: 0–2
/// tuples as often as 3–12, and each column random (domain 3), random
/// with NULLs, constant, all-NULL, a copy of an earlier column, or a
/// function of a non-empty set of earlier columns (their joint value,
/// or it mod 2; NULL counts as a value).
fn planted_relation() -> impl Strategy<Value = Relation> {
    let n =
        (0u8..2, 0usize..=2, 3usize..=12).prop_map(|(tiny, t, n)| if tiny == 0 { t } else { n });
    (2usize..=5, n).prop_flat_map(|(m, n)| {
        (
            proptest::collection::vec((0u8..7, 0u64..1 << 5), m..=m),
            proptest::collection::vec(proptest::collection::vec(0u32..3, m..=m), n..=n),
        )
            .prop_map(move |(kinds, rows)| {
                let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let mut b = RelationBuilder::new("planted", &refs);
                for row in rows {
                    let mut values: Vec<Option<u32>> = Vec::with_capacity(m);
                    for (a, &(kind, pick)) in kinds.iter().enumerate() {
                        let sources = AttrSet::from_bits(pick % (1 << a));
                        let joint = || {
                            sources
                                .iter()
                                .fold(0, |h, s| 4 * h + values[s].unwrap_or(3))
                        };
                        let value = match kind {
                            1 => (row[a] > 0).then_some(row[a]),
                            2 => Some(0),
                            3 => None,
                            4 if a > 0 => values[pick as usize % a],
                            5 if !sources.is_empty() => Some(joint()),
                            6 if !sources.is_empty() => Some(joint() % 2),
                            _ => Some(row[a]),
                        };
                        values.push(value);
                    }
                    let cells: Vec<Option<String>> = values
                        .iter()
                        .enumerate()
                        .map(|(a, v)| v.map(|v| format!("v{a}_{v}")))
                        .collect();
                    let refs: Vec<Option<&str>> = cells.iter().map(Option::as_deref).collect();
                    b.push_row(&refs);
                }
                b.build()
            })
    })
}

/// The exact test (emit what holds, take the key rule) that checks every
/// partition the walk hands it against the reference product: each
/// candidate's π_X sizes against π_{X∖A}·π_A's, and, on every level it
/// filters, each set's π_X against the product of its two join parents
/// from the level before. Counts the sets whose partition is a parent's
/// own (shared, not multiplied).
struct SharingProbe<'a> {
    attr_parts: Vec<&'a StrippedPartition>,
    prev: Mutex<FxHashMap<u64, Arc<StrippedPartition>>>,
    shared: Mutex<usize>,
    failures: Mutex<Vec<String>>,
}

impl<'a> SharingProbe<'a> {
    fn new(ctx: &'a AnalysisCtx) -> Self {
        SharingProbe {
            attr_parts: ctx.attr_partitions(),
            prev: Mutex::default(),
            shared: Mutex::default(),
            failures: Mutex::default(),
        }
    }

    fn fail(&self, what: String) {
        self.failures.lock().unwrap().push(what);
    }
}

impl MinimalTest for SharingProbe<'_> {
    type Score = bool;

    fn score(&self, c: &Candidate<'_>, _: &mut PartitionScratch) -> bool {
        let sorted = |sizes: &ClassSizes| {
            let mut v: Vec<usize> = sizes.iter().collect();
            v.sort_unstable();
            (v, sizes.n())
        };
        let want = product_reference(c.lhs, self.attr_parts[c.a]);
        if sorted(c.x()) != sorted(want.sizes()) {
            self.fail(format!("π_X sizes of consequent {}: {:?}", c.a, c.x()));
        }
        c.holds()
    }

    fn emits(&self, holds: &bool) -> bool {
        *holds
    }

    fn key_score(&self) -> Option<bool> {
        Some(true)
    }

    fn survivors(
        &self,
        sets: &[AttrSet],
        parts: &FxHashMap<u64, Arc<StrippedPartition>>,
        _tested: &[Vec<(usize, bool)>],
        _cplus: &[AttrSet],
    ) -> Vec<AttrSet> {
        let mut prev = self.prev.lock().unwrap();
        for &x in sets.iter().filter(|x| x.len() >= 2) {
            let attrs: Vec<usize> = x.iter().collect();
            let k = attrs.len();
            let (left, right) = (x.without(attrs[k - 1]), x.without(attrs[k - 2]));
            let part = &parts[&x.bits()];
            if part.canonical() != product_reference(&prev[&left.bits()], &prev[&right.bits()]) {
                self.fail(format!("π of {x:?} is not π_{left:?}·π_{right:?}"));
            }
            if attrs
                .iter()
                .any(|&a| Arc::ptr_eq(part, &prev[&x.without(a).bits()]))
            {
                *self.shared.lock().unwrap() += 1;
            }
        }
        *prev = parts.clone();
        sets.to_vec()
    }
}

/// Runs the [`SharingProbe`] walk; returns its emissions, shared count
/// and failures.
fn probe_walk(
    ctx: &AnalysisCtx,
    max_lhs: Option<usize>,
    threads: usize,
) -> (Vec<Fd>, usize, Vec<String>) {
    let probe = SharingProbe::new(ctx);
    let fds = walk_minimal(
        ctx.n_tuples(),
        ctx.attr_partitions(),
        max_lhs,
        threads,
        &probe,
    )
    .into_iter()
    .map(|(fd, _)| fd)
    .collect();
    let shared = *probe.shared.lock().unwrap();
    (fds, shared, probe.failures.into_inner().unwrap())
}

#[test]
fn planted_fd_shares_a_parent_partition() {
    // B = A mod 2 holds exactly, so E({A,B}) = {B} and {A,B,C} takes
    // π_{A,C} instead of a product.
    let mut b = RelationBuilder::new("planted", &["A", "B", "C"]);
    for i in 0..12u32 {
        b.push_row_strs(&[
            &format!("a{}", i % 3),
            &format!("b{}", i % 3 % 2),
            &format!("c{}", i % 2),
        ]);
    }
    let rel = b.build();
    let ctx = AnalysisCtx::of(&rel);
    for threads in [1, 4] {
        let (mut fds, shared, failures) = probe_walk(&ctx, None, threads);
        fds.sort();
        let mut brute = mine_brute(&rel);
        brute.sort();
        assert_eq!(fds, brute);
        assert!(failures.is_empty(), "{failures:?}");
        assert!(shared >= 1, "no partition shared at threads = {threads}");
    }
}

/// A chunk-backed context over `rel`, spilled through its CSV to a
/// store of `chunk`-tuple chunks, with the store's path (remove it once
/// the context is done).
fn store_ctx(rel: &Relation, chunk: usize) -> (AnalysisCtx, PathBuf) {
    static SEQ: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
    let dir = std::env::temp_dir().join("dbmine_fdmine_prop");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let id = SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let csv = dir.join(format!("{}_{id}.csv", std::process::id()));
    let store = csv.with_extension("dbss");
    write_relation_path(rel, &csv).expect("write csv");
    let sharded = ShardedRelation::scan_csv_path_spill(&csv, chunk, &store).expect("spill store");
    let _ = std::fs::remove_file(&csv);
    (
        AnalysisCtx::from_chunks(sharded).expect("chunk-backed context"),
        store,
    )
}

/// The hash group-by MVD test the partition test replaced: per
/// `X`-group, the distinct `(Y, Z)` pairs must number
/// `|Y-proj| × |Z-proj|`.
fn mvd_holds_oracle(rel: &Relation, lhs: AttrSet, rhs: AttrSet) -> bool {
    let y = rhs.minus(lhs);
    let z = rel.all_attrs().minus(lhs).minus(y);
    if y.is_empty() || z.is_empty() {
        return true;
    }
    type Proj = Vec<u32>;
    type GroupStats = (HashSet<Proj>, HashSet<Proj>, HashSet<(Proj, Proj)>);
    let mut groups: HashMap<Proj, GroupStats> = HashMap::new();
    for t in 0..rel.n_tuples() {
        let entry = groups.entry(rel.tuple_projected(t, lhs)).or_default();
        let (yv, zv) = (rel.tuple_projected(t, y), rel.tuple_projected(t, z));
        entry.0.insert(yv.clone());
        entry.1.insert(zv.clone());
        entry.2.insert((yv, zv));
    }
    groups
        .values()
        .all(|(ys, zs, pairs)| pairs.len() == ys.len() * zs.len())
}

/// Every pair's agree set, by comparing the two tuples' values.
fn agree_sets_oracle(rel: &Relation) -> HashSet<AttrSet> {
    let n = rel.n_tuples();
    let mut out = HashSet::new();
    for t1 in 0..n {
        for t2 in t1 + 1..n {
            let agree = (0..rel.n_attrs()).filter(|&a| rel.value(t1, a) == rel.value(t2, a));
            out.insert(agree.collect());
        }
    }
    out
}

fn arb_fds() -> impl Strategy<Value = Vec<Fd>> {
    proptest::collection::vec((0u64..31, 0usize..5), 0..10).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(bits, rhs)| Fd::new(AttrSet::from_bits(bits), rhs))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn miners_agree_with_oracle(rel in arb_relation(), edge in arb_edge_relation()) {
        for rel in [&rel, &edge] {
            let mut brute = mine_brute(rel);
            let mut fdep = mine_fdep(&AnalysisCtx::of(rel));
            let mut tane = mine_tane_ctx(&AnalysisCtx::of(rel), TaneOptions::default());
            brute.sort();
            fdep.sort();
            tane.sort();
            prop_assert_eq!(&fdep, &brute, "FDEP disagrees with oracle");
            prop_assert_eq!(&tane, &brute, "TANE disagrees with oracle");
        }
    }

    /// FDEP's agree sets come from `π_A` class ids: they equal a
    /// value-by-value comparison of every pair, on relations with NULLs,
    /// constant and all-NULL columns, and on their first 0, 1 and 2
    /// tuples.
    #[test]
    fn agree_sets_from_class_ids_match_value_compare(rel in arb_edge_relation()) {
        for k in [0, 1, 2, rel.n_tuples()] {
            let rows: Vec<usize> = (0..k.min(rel.n_tuples())).collect();
            let sub = rel.select(&rows, "sub");
            let oracle = agree_sets_oracle(&sub);
            prop_assert_eq!(&agree_sets(&sub), &oracle, "{} tuples", k);
            let ctx = AnalysisCtx::of(&sub);
            let from_ctx = agree_sets_from(ctx.n_tuples(), &ctx.attr_partitions());
            prop_assert_eq!(&from_ctx, &oracle, "{} tuples", k);
        }
    }

    /// The partition MVD test agrees with the hash group-by on drawn
    /// `X` and `Y` — NULLs, constant and all-NULL columns and n ≤ 1
    /// included — from a memory context and from stores at 1, 3 and
    /// 1000 tuples per chunk, none of which materializes; `mvds` mines
    /// the same dependencies from every source.
    #[test]
    fn mvd_holds_matches_hash_oracle(
        rel in arb_relation(),
        edge in arb_edge_relation(),
        pairs in proptest::collection::vec((0u64..32, 0u64..32), 1..8),
    ) {
        // n = 0 and n = 1 on every draw: the edge relation's head.
        let heads = [0, 1].map(|k| {
            let rows: Vec<usize> = (0..k.min(edge.n_tuples())).collect();
            edge.select(&rows, "head")
        });
        for rel in [rel, edge].into_iter().chain(heads) {
            let all = rel.all_attrs();
            let mem = AnalysisCtx::of(&rel);
            let mined = mine_mvds(&mem, 2);
            let stores: Vec<_> = [1, 3, 1000].iter().map(|&c| store_ctx(&rel, c)).collect();
            let sources = std::iter::once(&mem).chain(stores.iter().map(|(ctx, _)| ctx));
            for (source, ctx) in sources.enumerate() {
                for &(x, y) in &pairs {
                    let (x, y) = (AttrSet::from_bits(x).intersect(all), AttrSet::from_bits(y).intersect(all));
                    prop_assert_eq!(
                        mvd_holds(ctx, x, y),
                        mvd_holds_oracle(&rel, x, y),
                        "{:?} ↠ {:?}, source {}", x, y, source
                    );
                }
                prop_assert_eq!(&mine_mvds(ctx, 2), &mined, "source {}", source);
                prop_assert_eq!(ctx.view_stats().materializations, 0);
            }
            for (store, path) in stores {
                drop(store);
                let _ = std::fs::remove_file(path);
            }
        }
    }

    #[test]
    fn mined_fds_hold_and_are_minimal(rel in arb_relation()) {
        for fd in mine_fdep(&AnalysisCtx::of(&rel)) {
            prop_assert!(fd_holds(&rel, fd.lhs, fd.rhs), "{fd} does not hold");
            prop_assert!(fd_error_g3(&rel, fd.lhs, fd.rhs).abs() < 1e-12);
            for b in fd.lhs.iter() {
                prop_assert!(
                    !fd_holds(&rel, fd.lhs.without(b), fd.rhs),
                    "{fd} is not minimal (drop {b})"
                );
            }
        }
    }

    #[test]
    fn cover_is_equivalent_and_irredundant(fds in arb_fds()) {
        let cover = minimum_cover(&fds);
        // Equivalence both ways.
        for f in &fds {
            if !f.is_trivial() {
                prop_assert!(implies(&cover, *f), "{f} lost by cover");
            }
        }
        for f in &cover {
            prop_assert!(implies(&fds, *f), "{f} invented by cover");
        }
        // Irredundant: removing any member changes the closure.
        for i in 0..cover.len() {
            let rest: Vec<Fd> = cover.iter().enumerate()
                .filter(|&(j, _)| j != i).map(|(_, &g)| g).collect();
            prop_assert!(!implies(&rest, cover[i]), "{} redundant", cover[i]);
        }
    }

    #[test]
    fn closure_is_monotone_and_idempotent(fds in arb_fds(), bits in 0u64..31) {
        let x = AttrSet::from_bits(bits);
        let cx = closure(x, &fds);
        prop_assert!(x.is_subset_of(cx));
        prop_assert_eq!(closure(cx, &fds), cx);
        // Monotone: adding an attribute can only grow the closure.
        for a in 0..5 {
            let bigger = closure(x.with(a), &fds);
            prop_assert!(cx.is_subset_of(bigger.union(cx)));
            prop_assert!(cx.minus(bigger).is_subset_of(x));
        }
    }

    #[test]
    fn hitting_sets_hit_and_are_minimal(
        sets in proptest::collection::vec(1u64..63, 0..6)
    ) {
        let universe = AttrSet::full(6);
        let family: Vec<AttrSet> = sets.iter().map(|&b| AttrSet::from_bits(b)).collect();
        let transversals = minimal_hitting_sets(&family, universe);
        for t in &transversals {
            for d in &family {
                prop_assert!(!t.intersect(*d).is_empty(), "{t:?} misses {d:?}");
            }
            // Minimal: no proper subset still hits everything.
            for a in t.iter() {
                let sub = t.without(a);
                let still_hits = family.iter().all(|d| !sub.intersect(*d).is_empty());
                prop_assert!(!still_hits || family.is_empty(),
                    "{t:?} not minimal (drop {a})");
            }
        }
        // No duplicates or dominated members in the answer.
        for (i, a) in transversals.iter().enumerate() {
            for (j, b) in transversals.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subset_of(*b), "{a:?} ⊆ {b:?}");
                }
            }
        }
    }

    #[test]
    fn product_matches_reference_bit_identically(rel in arb_relation()) {
        // One scratch across every pair: also exercises the
        // clean-between-calls invariant. Class order is kernel order,
        // so compare canonical forms.
        let mut scratch = PartitionScratch::new();
        let parts: Vec<StrippedPartition> =
            (0..rel.n_attrs()).map(|a| StrippedPartition::of_attr(&rel, a)).collect();
        for pa in &parts {
            for pb in &parts {
                let fast = pa.product_with(pb, &mut scratch);
                let reference = product_reference(pa, pb);
                prop_assert_eq!(&fast.canonical(), &reference, "product mismatch");
            }
        }
        // Multi-attribute lhs against the empty partition too.
        let empty = StrippedPartition::of_empty(rel.n_tuples());
        if parts.len() >= 2 {
            let pab = parts[0].product_with(&parts[1], &mut scratch);
            prop_assert_eq!(
                pab.product_with(&empty, &mut scratch).canonical(),
                product_reference(&pab, &empty)
            );
        }
    }

    /// The flat kernel against the oracle for every pair of attribute
    /// sets of a possibly degenerate relation: canonical classes equal,
    /// every class ascending, and the counting pass alone yields the
    /// materialized product's sizes and error.
    #[test]
    fn kernel_matches_oracle_on_edge_relations(rel in arb_edge_relation()) {
        let mut scratch = PartitionScratch::new();
        let parts = all_set_partitions(&rel);
        for pl in &parts {
            for pr in &parts {
                let product = pl.product_with(pr, &mut scratch);
                prop_assert_eq!(&product.canonical(), &product_reference(pl, pr));
                prop_assert!(product.classes().all(|c| c.len() >= 2 && c.windows(2).all(|w| w[0] < w[1])));
                let sizes = pl.product_sizes(pr, &mut scratch);
                prop_assert_eq!(&sizes, product.sizes());
                prop_assert_eq!(sizes.error(), product.error());
                prop_assert_eq!(sizes.covered(), product.covered());
                prop_assert_eq!(sizes.is_key(), product.is_key());
            }
        }
    }

    /// `g3(X → A)` from π_A's class ids equals `g3` against π_{X∪A},
    /// bit for bit, for every LHS and consequent.
    #[test]
    fn g3_against_attr_ids_equals_g3_against_product(rel in arb_edge_relation()) {
        let mut scratch = PartitionScratch::new();
        let parts = all_set_partitions(&rel);
        for a in 0..rel.n_attrs() {
            let a_ids = StrippedPartition::of_attr(&rel, a).class_ids();
            for bits in 0u64..1 << rel.n_attrs() {
                let lhs = AttrSet::from_bits(bits);
                if lhs.contains(a) {
                    continue;
                }
                let p_lhs = &parts[bits as usize];
                let via_attr = p_lhs.g3_error_ids(&a_ids, &mut scratch);
                let via_x = p_lhs.g3_error_with(&parts[lhs.with(a).bits() as usize], &mut scratch);
                prop_assert!(via_attr.to_bits() == via_x.to_bits(), "{:?} → {}: {} vs {}", lhs, a, via_attr, via_x);
            }
        }
    }

    /// A walk bounded at `k` — whose last level builds no products —
    /// returns the unbounded output filtered to |lhs| ≤ k, for TANE and
    /// for the approximate miner, scores bit for bit.
    #[test]
    fn bounded_walks_equal_filtered_unbounded(rel in arb_edge_relation(), eps_pct in 0u32..40) {
        let eps = eps_pct as f64 / 100.0;
        let ctx = AnalysisCtx::of(&rel);
        let tane = mine_tane_ctx(&ctx, TaneOptions::default());
        let approx = mine_approximate_ctx(&ctx, eps, None, 1);
        for k in 0..=rel.n_attrs() {
            let bounded = mine_tane_ctx(&ctx, TaneOptions { max_lhs: Some(k), ..Default::default() });
            let filtered: Vec<Fd> = tane.iter().copied().filter(|f| f.lhs.len() <= k).collect();
            prop_assert_eq!(&bounded, &filtered, "TANE, k = {}", k);
            let bounded = mine_approximate_ctx(&ctx, eps, Some(k), 1);
            let filtered: Vec<_> = approx.iter().filter(|f| f.fd.lhs.len() <= k).collect();
            prop_assert_eq!(bounded.len(), filtered.len(), "approximate, k = {}", k);
            for (b, f) in bounded.iter().zip(filtered) {
                prop_assert_eq!(b.fd, f.fd, "approximate, k = {}", k);
                prop_assert!(b.error.to_bits() == f.error.to_bits(), "{}: g3 drifted", b.fd);
            }
        }
    }

    /// Bounded TANE, whose last level tests `X∖A → A` against π_A's
    /// class ids, emits exactly the brute-force minimal FDs with
    /// |lhs| ≤ k, and the bounded `g3` walk its unbounded output
    /// filtered the same way — at every thread count, from a memory and
    /// from a store context.
    #[test]
    fn bounded_walks_match_oracles_from_memory_and_store(
        wide in arb_relation(),
        edge in arb_edge_relation(),
        eps_pct in 0u32..40,
    ) {
        let eps = eps_pct as f64 / 100.0;
        for rel in [wide, edge] {
            let mut brute = mine_brute(&rel);
            brute.sort();
            let mem = AnalysisCtx::of(&rel);
            let approx = mine_approximate_ctx(&mem, eps, None, 1);
            let (store, path) = store_ctx(&rel, 3);
            for k in 1..=3 {
                let exact: Vec<Fd> = brute.iter().copied().filter(|f| f.lhs.len() <= k).collect();
                let approx_k: Vec<_> = approx.iter().filter(|f| f.fd.lhs.len() <= k).collect();
                for (source, ctx) in [("memory", &mem), ("store", &store)] {
                    for threads in [1usize, 2, 4] {
                        let mut tane = mine_tane_ctx(ctx, TaneOptions { max_lhs: Some(k), threads });
                        tane.sort();
                        prop_assert_eq!(&tane, &exact, "TANE, k = {}, {}, threads = {}", k, source, threads);
                        let bounded = mine_approximate_ctx(ctx, eps, Some(k), threads);
                        prop_assert_eq!(bounded.len(), approx_k.len(), "g3, k = {}, {}, threads = {}", k, source, threads);
                        for (b, f) in bounded.iter().zip(&approx_k) {
                            prop_assert_eq!(b.fd, f.fd, "g3, k = {}, {}, threads = {}", k, source, threads);
                            prop_assert!(b.error.to_bits() == f.error.to_bits(), "{}: g3 drifted", b.fd);
                        }
                    }
                }
            }
            drop(store);
            let _ = std::fs::remove_file(path);
        }
    }

    /// One loaded left probe serves a run of right partitions — every
    /// attribute set's, the empty set's one class and a key's no class
    /// — and each product equals the oracle's classes and, layout
    /// included, the one-shot product; the count-only form yields its
    /// sizes.
    #[test]
    fn one_probe_serves_many_products(rel in arb_edge_relation()) {
        let mut parts = all_set_partitions(&rel);
        parts.push(StrippedPartition::from_classes(Vec::<Vec<u32>>::new(), rel.n_tuples()));
        let mut scratch = PartitionScratch::new();
        let mut one_shot = PartitionScratch::new();
        for left in &parts {
            let mut probe = left.probe(&mut scratch);
            for right in &parts {
                let product = probe.product(right);
                prop_assert_eq!(&product.canonical(), &product_reference(left, right));
                prop_assert_eq!(&product, &left.product_with(right, &mut one_shot));
                prop_assert_eq!(&probe.product_sizes(right), product.sizes());
            }
        }
    }

    #[test]
    fn tane_is_invariant_across_thread_counts(rel in arb_relation()) {
        let serial = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions { threads: 1, ..Default::default() });
        for threads in [0usize, 2, 4] {
            let t = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions { threads, ..Default::default() });
            prop_assert_eq!(&t, &serial, "threads = {}", threads);
        }
    }

    #[test]
    fn approximate_is_invariant_across_thread_counts(rel in arb_relation()) {
        let serial = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.2, None, 1);
        for threads in [0usize, 2, 4] {
            let t = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.2, None, threads);
            // ApproxFd carries an f64 error: require exact equality —
            // the determinism contract is bit-identical output.
            prop_assert_eq!(t.len(), serial.len(), "threads = {}", threads);
            for (a, b) in t.iter().zip(&serial) {
                prop_assert_eq!(a.fd, b.fd, "threads = {}", threads);
                prop_assert!(
                    a.error == b.error && a.error.to_bits() == b.error.to_bits(),
                    "g3 drifted across thread counts"
                );
            }
        }
    }

    /// The approximate miner emits exactly the oracle's minimal
    /// `g3 ≤ ε` dependencies — at every LHS size, not just |LHS| ≤ 2 —
    /// with bit-identical errors, unbounded and restricted to LHS
    /// sizes 1 and 2: at ε = 0 (exact TANE, every pruning rule) and
    /// above it (no key rule), from a memory and a store context, at
    /// every thread count.
    #[test]
    fn approximate_matches_minimal_oracle(rel in arb_relation(), eps_pct in 1u32..50) {
        let mem = AnalysisCtx::of(&rel);
        let (store, path) = store_ctx(&rel, 3);
        for eps in [0.0, 0.1, eps_pct as f64 / 100.0] {
            for max_lhs in [None, Some(1), Some(2)] {
                let oracle = minimal_oracle(
                    rel.n_attrs(),
                    max_lhs,
                    |lhs, a| fd_error_g3(&rel, lhs, a),
                    |&e| e <= eps,
                );
                for (source, ctx) in [("memory", &mem), ("store", &store)] {
                    for threads in [1usize, 2, 4] {
                        let mined = mine_approximate_ctx(ctx, eps, max_lhs, threads);
                        let at = format!("ε = {eps}, max_lhs = {max_lhs:?}, {source}, threads = {threads}");
                        prop_assert_eq!(mined.len(), oracle.len(), "{}", at);
                        for (f, (ofd, oerror)) in mined.iter().zip(&oracle) {
                            prop_assert_eq!(&f.fd, ofd, "{}", at);
                            prop_assert!(f.error.to_bits() == oerror.to_bits(), "{}: {} vs {}, {}", f.fd, f.error, oerror, at);
                        }
                    }
                }
            }
        }
        drop(store);
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn g3_scratch_matches_hashmap_reference(rel in arb_relation(), a in 0usize..5, b in 0usize..5) {
        if a >= rel.n_attrs() || b >= rel.n_attrs() { return Ok(()); }
        let pa = StrippedPartition::of_attr(&rel, a);
        let pab = pa.product(&StrippedPartition::of_attr(&rel, b));
        // Reference g3: the original per-class HashMap count.
        let ids = pab.class_ids();
        let mut removed = 0usize;
        for class in pa.classes() {
            let mut counts: std::collections::HashMap<u32, usize> = Default::default();
            for &t in class {
                *counts.entry(ids[t as usize]).or_insert(0) += 1;
            }
            removed += class.len() - counts.values().copied().max().unwrap_or(1);
        }
        let reference = if rel.n_tuples() == 0 {
            0.0
        } else {
            removed as f64 / rel.n_tuples() as f64
        };
        let fast = pa.g3_error_with(&pab, &mut PartitionScratch::new());
        prop_assert!(fast.to_bits() == reference.to_bits(), "{} != {}", fast, reference);
    }

    #[test]
    fn g3_error_bounds_and_zero_iff_holds(rel in arb_relation(), lhs_bits in 0u64..31, rhs in 0usize..5) {
        if rhs >= rel.n_attrs() { return Ok(()); }
        let lhs = AttrSet::from_bits(lhs_bits).intersect(rel.all_attrs());
        let e = fd_error_g3(&rel, lhs, rhs);
        prop_assert!((0.0..=1.0).contains(&e));
        prop_assert_eq!(e.abs() < 1e-12, fd_holds(&rel, lhs, rhs));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every partition the walk holds, shared or multiplied, is the
    /// reference product of its join parents, and its sizes those of
    /// π_{X∖A}·π_A for every candidate, on planted relations, unbounded
    /// and bounded, at threads 1 and 4; the probe's exact emissions are
    /// the brute-force minimal FDs.
    #[test]
    fn shared_partitions_equal_reference_products(rel in planted_relation()) {
        let ctx = AnalysisCtx::of(&rel);
        let mut brute = mine_brute(&rel);
        brute.sort();
        for max_lhs in [None, Some(1), Some(2)] {
            let want: Vec<Fd> = brute.iter().copied()
                .filter(|f| max_lhs.is_none_or(|k| f.lhs.len() <= k)).collect();
            for threads in [1usize, 4] {
                let (mut fds, _, failures) = probe_walk(&ctx, max_lhs, threads);
                fds.sort();
                prop_assert!(failures.is_empty(), "{:?}, max_lhs = {:?}, threads = {}", failures, max_lhs, threads);
                prop_assert_eq!(&fds, &want, "max_lhs = {:?}, threads = {}", max_lhs, threads);
            }
        }
    }

    /// The miners on the sharing walk — exact TANE, `g3` and F̂ — emit
    /// exactly the brute-force oracles' minimal dependencies, scores bit
    /// for bit, on planted relations, at threads 1 and 4.
    #[test]
    fn miners_on_shared_partitions_match_oracles(
        rel in planted_relation(),
        eps_pct in 1u32..40,
        theta_pct in 0u32..=100,
    ) {
        let ctx = AnalysisCtx::of(&rel);
        let scorer = RfiScorer::new(&ctx);
        let theta = theta_pct as f64 / 100.0;
        let mut brute = mine_brute(&rel);
        brute.sort();
        for max_lhs in [None, Some(1), Some(2)] {
            let exact: Vec<Fd> = brute.iter().copied()
                .filter(|f| max_lhs.is_none_or(|k| f.lhs.len() <= k)).collect();
            let g3_oracles: Vec<(f64, Vec<(Fd, f64)>)> = [0.0, eps_pct as f64 / 100.0]
                .into_iter()
                .map(|eps| (eps, minimal_oracle(rel.n_attrs(), max_lhs, |lhs, a| fd_error_g3(&rel, lhs, a), |&e| e <= eps)))
                .collect();
            let rfi_oracle = minimal_oracle(
                rel.n_attrs(),
                max_lhs,
                |lhs, a| scorer.score_sets(&ctx, lhs, AttrSet::single(a)),
                |s| s.score >= theta,
            );
            for threads in [1usize, 4] {
                let at = format!("max_lhs = {max_lhs:?}, threads = {threads}");
                let mut tane = mine_tane_ctx(&ctx, TaneOptions { max_lhs, threads });
                tane.sort();
                prop_assert_eq!(&tane, &exact, "TANE, {}", at);
                for (eps, oracle) in &g3_oracles {
                    let mined = mine_approximate_ctx(&ctx, *eps, max_lhs, threads);
                    prop_assert_eq!(mined.len(), oracle.len(), "g3 ε = {}, {}", eps, at);
                    for (f, (fd, error)) in mined.iter().zip(oracle) {
                        prop_assert_eq!(&f.fd, fd, "g3 ε = {}, {}", eps, at);
                        prop_assert!(f.error.to_bits() == error.to_bits(), "{}: {} vs {}, {}", fd, f.error, error, at);
                    }
                }
                let mined = mine_reliable_ctx(&ctx, ReliableOptions { theta, max_lhs, threads, ..Default::default() });
                prop_assert_eq!(mined.len(), rfi_oracle.len(), "F̂ θ = {}, {}", theta, at);
                for (f, (fd, s)) in mined.iter().zip(&rfi_oracle) {
                    prop_assert_eq!(&f.fd, fd, "F̂ θ = {}, {}", theta, at);
                    prop_assert!(
                        f.score.to_bits() == s.score.to_bits()
                            && f.plugin.to_bits() == s.plugin.to_bits()
                            && f.bias.to_bits() == s.bias.to_bits()
                            && f.g3.to_bits() == fd_error_g3(&rel, fd.lhs, fd.rhs).to_bits(),
                        "{}: {:?} vs {:?}, {}", fd, f, s, at
                    );
                }
            }
        }
    }
}
