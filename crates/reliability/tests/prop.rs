//! Property tests: F̂ against a brute-force permutation-model reference
//! on tiny domains, the miner against a brute-force minimal-LHS oracle
//! and the unpruned walk, thread-count invariance on arbitrary small
//! relations, the capped `m₀` sum against the full one, and the
//! histogram size-multiset builder against the sorting oracle.

use dbmine_context::AnalysisCtx;
use dbmine_fdmine::Fd;
use dbmine_oracles::{fd_error_g3, mine_reliable_unpruned, size_multiset_sorted};
use dbmine_relation::partition::StrippedPartition;
use dbmine_relation::{AttrSet, Relation, RelationBuilder};
use dbmine_reliability::{
    m0, m0_capped, mine_reliable_ctx, LnFact, ReliableFd, ReliableOptions, RfiScore, RfiScorer,
    SizeMultiset, BIAS_EPSILON,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::BTreeMap;

/// A tiny categorical relation: ≤ 3 attributes, ≤ 6 tuples, domain 3 —
/// small enough to enumerate all n! permutations of a column.
fn tiny_relation() -> impl Strategy<Value = Relation> {
    (2usize..=3, 2usize..=6).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::collection::vec(0u8..3, m), n).prop_map(move |rows| {
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("tiny", &refs);
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
fn edge_relation() -> impl Strategy<Value = Relation> {
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

/// Empirical mutual information (bits) between two class-id labelings.
fn empirical_mi_bits(x_ids: &[u32], y_ids: &[u32]) -> f64 {
    let n = x_ids.len();
    let nf = n as f64;
    let mut joint: std::collections::HashMap<(u32, u32), f64> = Default::default();
    let mut mx: std::collections::HashMap<u32, f64> = Default::default();
    let mut my: std::collections::HashMap<u32, f64> = Default::default();
    for (&x, &y) in x_ids.iter().zip(y_ids) {
        *joint.entry((x, y)).or_default() += 1.0;
        *mx.entry(x).or_default() += 1.0;
        *my.entry(y).or_default() += 1.0;
    }
    joint
        .iter()
        .map(|(&(x, y), &c)| (c / nf) * ((c * nf) / (mx[&x] * my[&y])).log2())
        .sum()
}

/// All permutations of `0..n` via Heap's algorithm.
fn permutations(n: usize) -> Vec<Vec<usize>> {
    fn heap(k: usize, arr: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k <= 1 {
            out.push(arr.clone());
            return;
        }
        for i in 0..k {
            heap(k - 1, arr, out);
            if k.is_multiple_of(2) {
                arr.swap(i, k - 1);
            } else {
                arr.swap(0, k - 1);
            }
        }
    }
    let mut arr: Vec<usize> = (0..n).collect();
    let mut out = Vec::new();
    heap(n, &mut arr, &mut out);
    out
}

/// The permutation-model expectation by exhaustive enumeration: average
/// empirical MI over all n! assignments between the two fixed marginal
/// partitions.
fn brute_force_m0_bits(x_ids: &[u32], y_ids: &[u32]) -> f64 {
    let n = x_ids.len();
    let perms = permutations(n);
    let total: f64 = perms
        .iter()
        .map(|sigma| {
            let permuted: Vec<u32> = sigma.iter().map(|&t| y_ids[t]).collect();
            empirical_mi_bits(x_ids, &permuted)
        })
        .sum();
    total / perms.len() as f64
}

/// A random small categorical relation (≤ 5 attributes, ≤ 12 tuples,
/// domain 3) — wide enough for LHSs of size 3 and 4. About half the
/// columns past the first are planted as a function of a non-empty set
/// of earlier columns: their value mod 2 or mod 3, or their joint value.
/// Each plants an exact FD, whose F̂ ranges from high (a coarse function
/// of few columns) to about 0 (an LHS that is nearly a key), so the
/// walk's exact-FD rule prunes on both sides of θ.
fn small_relation() -> impl Strategy<Value = Relation> {
    (2usize..=5, 1usize..=12).prop_flat_map(|(m, n)| {
        (
            proptest::collection::vec(0u32..1 << 7, m..=m),
            proptest::collection::vec(proptest::collection::vec(0u8..3, m..=m), n..=n),
        )
            .prop_map(move |(plants, rows)| {
                let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let mut b = RelationBuilder::new("small", &refs);
                for row in rows {
                    let mut values: Vec<u32> = row.iter().map(|&v| u32::from(v)).collect();
                    for a in 1..m {
                        let sources = AttrSet::from_bits(u64::from(plants[a] >> 3) % (1 << a));
                        let joint = sources.iter().fold(0, |h, s| 3 * h + values[s]);
                        if !sources.is_empty() {
                            values[a] = match plants[a] & 7 {
                                4 => joint % 2,
                                5 => joint % 3,
                                6 | 7 => joint,
                                _ => values[a],
                            };
                        }
                    }
                    let cells: Vec<String> = values
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

/// Brute-force oracle for the minimal-LHS walk: every `X → A` over `m`
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

/// The miner's output must be the oracle's, every score component and
/// the `g3` error bit for bit, and every emitted field finite.
fn assert_matches_oracle(
    rel: &Relation,
    mined: &[ReliableFd],
    oracle: &[(Fd, RfiScore)],
    what: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(mined.len(), oracle.len(), "{}", what);
    for (f, (fd, s)) in mined.iter().zip(oracle) {
        prop_assert_eq!(f.fd, *fd, "{}", what);
        prop_assert!(
            f.score.to_bits() == s.score.to_bits()
                && f.plugin.to_bits() == s.plugin.to_bits()
                && f.bias.to_bits() == s.bias.to_bits(),
            "{}: F̂ drifted from the standalone scorer ({})",
            fd,
            what
        );
        let g3 = fd_error_g3(rel, fd.lhs, fd.rhs);
        prop_assert!(
            f.g3.to_bits() == g3.to_bits(),
            "{}: g3 {} vs {}",
            fd,
            f.g3,
            g3
        );
        prop_assert!(
            [f.score, f.plugin, f.bias, f.g3]
                .iter()
                .all(|v| v.is_finite()),
            "{}: non-finite field in {:?}",
            fd,
            f
        );
    }
    Ok(())
}

/// One draw of [`multiset_of`]: `(kind, size, count)`.
type ClassDraw = (u32, u32, u32);

/// The draws of one side of a multiset pair: a shape (0–3 random, 4 a
/// key, 5 a constant) and up to ten runs of classes.
fn multiset_draws() -> impl Strategy<Value = (u32, Vec<ClassDraw>)> {
    (
        0u32..6,
        proptest::collection::vec((0u32..3, 0u32..1 << 20, 1u32..=64), 0..=10),
    )
}

/// A class-size multiset over exactly `n` tuples. `shape` 4 is a key
/// (all singletons) and 5 a constant (one class); otherwise each draw
/// `(kind, size, count)` adds up to `count` classes of one small
/// (≤ 8), mid-sized (≤ n/8) or large (≤ n/2) size while tuples remain,
/// and the rest are singletons. `n = 0` is the empty multiset.
fn multiset_of(n: usize, (shape, draws): &(u32, Vec<ClassDraw>)) -> SizeMultiset {
    let mut classes: BTreeMap<u64, u64> = BTreeMap::new();
    let mut left = n;
    match shape {
        4 => {}
        5 if n > 0 => {
            classes.insert(n as u64, 1);
            left = 0;
        }
        _ => {
            for &(kind, size, count) in draws {
                let cap = match kind {
                    0 => 8,
                    1 => n / 8,
                    _ => n / 2,
                }
                .max(1);
                let size = 1 + size as usize % cap;
                for _ in 0..count {
                    if size > left {
                        break;
                    }
                    *classes.entry(size as u64).or_default() += 1;
                    left -= size;
                }
            }
        }
    }
    if left > 0 {
        *classes.entry(1).or_default() += left as u64;
    }
    SizeMultiset {
        pairs: classes.into_iter().collect(),
        n,
    }
}

/// The capped sum against the full one on one pair of multisets: the
/// running total after every row of `x` (the full sum over that prefix
/// of rows, the same additions in the same order) stays within
/// `ε/2·H(Y)` of the full `m₀`, and for caps at, just below and around
/// each running total, `m0_capped` returns the first running total
/// above the cap before the last row, or else the full sum — bit for
/// bit. An infinite cap never cuts.
fn check_capped_m0(x: &SizeMultiset, y: &SizeMultiset) -> Result<(), TestCaseError> {
    let lnfact = LnFact::new(x.n);
    let full = m0(x, y, &lnfact);
    let slack = BIAS_EPSILON / 2.0 * y.entropy_bits();
    let running: Vec<f64> = (1..=x.pairs.len())
        .map(|rows| {
            let prefix = SizeMultiset {
                pairs: x.pairs[..rows].to_vec(),
                n: x.n,
            };
            m0(&prefix, y, &lnfact)
        })
        .collect();
    for (row, &total) in running.iter().enumerate() {
        prop_assert!(
            total <= full + slack,
            "row {}: running total {:e} above m0 {:e} + {:e}",
            row,
            total,
            full,
            slack
        );
    }
    prop_assert_eq!(running.last().map_or(0, |t| t.to_bits()), full.to_bits());
    let mut caps = vec![f64::INFINITY, full, 0.0, -1.0];
    for &t in &running {
        caps.extend([t, t.next_down(), t * 0.5]);
    }
    let stops = &running[..running.len().saturating_sub(1)];
    for cap in caps {
        let capped = m0_capped(x, y, &lnfact, cap);
        let expected = stops.iter().copied().find(|&t| t > cap).unwrap_or(full);
        prop_assert!(
            capped.to_bits() == expected.to_bits(),
            "cap {:e}: m0_capped {:e}, expected {:e} (m0 {:e})",
            cap,
            capped,
            expected,
            full
        );
        if capped <= cap {
            prop_assert_eq!(capped.to_bits(), full.to_bits());
        }
    }
    Ok(())
}

/// A stripped partition of `n = Σ sizes + singletons` tuples with the
/// drawn class sizes, in the drawn (unsorted) order, on both sides of
/// the builder's histogram cut.
fn partition_with_sizes(draws: &[(u32, u32)], singletons: usize) -> StrippedPartition {
    let sizes: Vec<usize> = draws
        .iter()
        .map(|&(kind, d)| match kind {
            0 => 2 + d as usize % 7,
            1 => 60 + d as usize % 8,
            _ => 2 + d as usize % 300,
        })
        .collect();
    let n = sizes.iter().sum::<usize>() + singletons;
    let mut next = 0u32;
    let classes: Vec<Vec<u32>> = sizes
        .iter()
        .map(|&s| {
            let class = (next..next + s as u32).collect();
            next += s as u32;
            class
        })
        .collect();
    StrippedPartition::from_classes(classes, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The closed-form hypergeometric m₀ must match the exhaustive
    /// permutation average to 1e-9, for single-attribute LHSs and for
    /// two-attribute composites.
    #[test]
    fn m0_matches_brute_force_permutation_expectation(rel in tiny_relation()) {
        let n = rel.n_tuples();
        let lnfact = LnFact::new(n);
        let parts: Vec<StrippedPartition> =
            (0..rel.n_attrs()).map(|a| StrippedPartition::of_attr(&rel, a)).collect();
        let mut lhs_parts: Vec<StrippedPartition> = parts.clone();
        if parts.len() >= 2 {
            lhs_parts.push(parts[0].product(&parts[1]));
        }
        for px in &lhs_parts {
            for py in &parts {
                let closed = m0(
                    &SizeMultiset::of_sizes(px.sizes()),
                    &SizeMultiset::of_sizes(py.sizes()),
                    &lnfact,
                );
                let brute = brute_force_m0_bits(&px.class_ids(), &py.class_ids());
                prop_assert!(
                    (closed - brute).abs() < 1e-9,
                    "m0 closed-form {closed} vs brute force {brute} (n = {n})"
                );
            }
        }
    }

    /// End-to-end F̂ against the same reference: plugin MI minus the
    /// brute-force expectation, normalized by H(Y).
    #[test]
    fn rfi_score_matches_brute_force_reference(rel in tiny_relation()) {
        let ctx = AnalysisCtx::of(&rel);
        let scorer = RfiScorer::new(&ctx);
        for a in 0..rel.n_attrs() {
            for b in 0..rel.n_attrs() {
                if a == b { continue; }
                let pa = StrippedPartition::of_attr(&rel, a);
                let pb = StrippedPartition::of_attr(&rel, b);
                let h_y = SizeMultiset::of_sizes(pb.sizes()).entropy_bits();
                let s = scorer.score_sets(&ctx, AttrSet::single(a), AttrSet::single(b));
                if h_y == 0.0 {
                    prop_assert_eq!(s.score, 1.0);
                    continue;
                }
                let plugin_ref = empirical_mi_bits(&pa.class_ids(), &pb.class_ids()) / h_y;
                let bias_ref = brute_force_m0_bits(&pa.class_ids(), &pb.class_ids()) / h_y;
                prop_assert!((s.plugin - plugin_ref).abs() < 1e-9,
                    "plugin {} vs reference {plugin_ref}", s.plugin);
                prop_assert!((s.score - (plugin_ref - bias_ref)).abs() < 1e-9,
                    "score {} vs reference {}", s.score, plugin_ref - bias_ref);
            }
        }
    }

    /// The miner emits exactly the oracle's minimal `F̂ ≥ θ`
    /// dependencies, scored by the standalone scorer, unbounded and
    /// restricted to LHS sizes 1, 2 and 3. Every score component and the
    /// `g3` error must match bit for bit. The oracle scores every LHS, so
    /// it is the independent reference for the walk's `C⁺` rules, the
    /// exact-FD rule on the planted dependencies among them.
    #[test]
    fn mine_reliable_matches_minimal_oracle(rel in small_relation(), theta_pct in 0u32..=100) {
        let theta = theta_pct as f64 / 100.0;
        let ctx = AnalysisCtx::of(&rel);
        let scorer = RfiScorer::new(&ctx);
        for max_lhs in [None, Some(1), Some(2), Some(3)] {
            let oracle = minimal_oracle(
                rel.n_attrs(),
                max_lhs,
                |lhs, a| scorer.score_sets(&ctx, lhs, AttrSet::single(a)),
                |s| s.score >= theta,
            );
            let mined = mine_reliable_ctx(&ctx, ReliableOptions { theta, max_lhs, ..Default::default() });
            assert_matches_oracle(&rel, &mined, &oracle,
                &format!("θ = {theta}, max_lhs = {max_lhs:?}"))?;
        }
    }

    /// θ set exactly to one candidate's plugin and exactly to its F̂ —
    /// the edges of the bias-skip rule — with that candidate (LHS size
    /// `k`, level `k + 1`) on the last level of a walk bounded at `k`,
    /// on the unfiltered last joined level of a walk bounded at `k + 1`,
    /// and on a filtered level of the unbounded walk. The output must
    /// still be the oracle's, bit for bit.
    #[test]
    fn theta_at_a_candidates_plugin_or_score_matches_minimal_oracle(
        rel in small_relation(),
        pick in 0u32..1 << 16,
    ) {
        let ctx = AnalysisCtx::of(&rel);
        let scorer = RfiScorer::new(&ctx);
        let m = rel.n_attrs();
        let a = pick as usize % m;
        let lhs = AttrSet::from_bits(u64::from(pick) / m as u64 % (1 << m)).without(a);
        let s = scorer.score_sets(&ctx, lhs, AttrSet::single(a));
        for theta in [s.plugin, s.score] {
            if !(0.0..=1.0).contains(&theta) {
                continue;
            }
            let k = lhs.len();
            for max_lhs in [Some(k), Some(k + 1), None] {
                let oracle = minimal_oracle(
                    m,
                    max_lhs,
                    |lhs, a| scorer.score_sets(&ctx, lhs, AttrSet::single(a)),
                    |s| s.score >= theta,
                );
                let mined = mine_reliable_ctx(&ctx, ReliableOptions { theta, max_lhs, ..Default::default() });
                assert_matches_oracle(&rel, &mined, &oracle,
                    &format!("θ = {theta} at {lhs:?} → {a}, max_lhs = {max_lhs:?}"))?;
            }
        }
    }

    /// m₀ is an expectation of a non-negative mutual information: its
    /// computed value, in bits and as a fraction of H(Y), must not
    /// round below −ε/2, or skipping the bias below `θ − ε` could
    /// change an emission. Every LHS set against every consequent, on
    /// degenerate and on random small relations.
    #[test]
    fn m0_never_rounds_below_minus_half_epsilon(
        edge in edge_relation(),
        small in small_relation(),
    ) {
        for rel in [edge, small] {
            let ctx = AnalysisCtx::of(&rel);
            let lnfact = LnFact::new(rel.n_tuples());
            let m = rel.n_attrs();
            let ys: Vec<SizeMultiset> =
                (0..m).map(|a| SizeMultiset::of_sizes(ctx.attr_partition(a).sizes())).collect();
            for bits in 0u64..1 << m {
                let mut px = StrippedPartition::of_empty(rel.n_tuples());
                for b in AttrSet::from_bits(bits).iter() {
                    px = px.product(ctx.attr_partition(b));
                }
                let x = SizeMultiset::of_sizes(px.sizes());
                for y in &ys {
                    let bits_m0 = m0(&x, y, &lnfact);
                    prop_assert!(bits_m0 >= -BIAS_EPSILON / 2.0, "m0 = {bits_m0:e} bits");
                    let h_y = y.entropy_bits();
                    if h_y > 0.0 {
                        prop_assert!(bits_m0 / h_y >= -BIAS_EPSILON / 2.0,
                            "bias = {:e} (H(Y) = {h_y})", bits_m0 / h_y);
                    }
                }
            }
        }
    }

    /// Bit-identity of the miner across thread counts, proptested.
    #[test]
    fn mine_reliable_invariant_across_thread_counts(rel in tiny_relation()) {
        let serial = mine_reliable_ctx(&AnalysisCtx::of(&rel), ReliableOptions { theta: 0.1, threads: 1, ..Default::default() });
        for threads in [0usize, 2, 4] {
            let t = mine_reliable_ctx(&AnalysisCtx::of(&rel), ReliableOptions { theta: 0.1, threads, ..Default::default() });
            prop_assert_eq!(t.len(), serial.len(), "threads = {}", threads);
            for (x, y) in t.iter().zip(&serial) {
                prop_assert_eq!(x.fd, y.fd);
                prop_assert!(x.score.to_bits() == y.score.to_bits(), "score drifted");
                prop_assert!(x.g3.to_bits() == y.g3.to_bits(), "g3 drifted");
            }
        }
    }

    /// Branch-and-bound must only skip work, never change results: the
    /// miner equals the unpruned walk, unbounded and at LHS sizes 1
    /// and 2.
    #[test]
    fn pruned_equals_unpruned(rel in tiny_relation(), theta_pct in 0u32..=100) {
        // The shim's strategies are integer-only; scale to θ ∈ [0,1].
        let theta = theta_pct as f64 / 100.0;
        let ctx = AnalysisCtx::of(&rel);
        for max_lhs in [None, Some(1), Some(2)] {
            let pruned = mine_reliable_ctx(&ctx, ReliableOptions { theta, max_lhs, ..Default::default() });
            let unpruned = mine_reliable_unpruned(&ctx, theta, max_lhs, 1);
            prop_assert_eq!(pruned.len(), unpruned.len(), "θ = {}, max_lhs = {:?}", theta, max_lhs);
            for (x, y) in pruned.iter().zip(&unpruned) {
                prop_assert_eq!(x.fd, y.fd);
                prop_assert!(x.score.to_bits() == y.score.to_bits()
                    && x.plugin.to_bits() == y.plugin.to_bits()
                    && x.bias.to_bits() == y.bias.to_bits()
                    && x.g3.to_bits() == y.g3.to_bits(),
                    "pruning changed an emitted value at θ = {}, max_lhs = {:?}", theta, max_lhs);
            }
        }
    }

    /// A walk bounded at `k` — whose last level is built as class sizes
    /// only, and whose level `k` is not filtered — returns the unbounded
    /// output filtered to |lhs| ≤ k, every score component bit for bit.
    #[test]
    fn bounded_walk_equals_filtered_unbounded(rel in edge_relation(), theta_pct in 0u32..=100) {
        let theta = theta_pct as f64 / 100.0;
        let ctx = AnalysisCtx::of(&rel);
        let options = ReliableOptions { theta, ..Default::default() };
        let unbounded = mine_reliable_ctx(&ctx, options);
        for k in 0..=rel.n_attrs() {
            let bounded = mine_reliable_ctx(&ctx, ReliableOptions { max_lhs: Some(k), ..options });
            let filtered: Vec<_> = unbounded.iter().filter(|f| f.fd.lhs.len() <= k).collect();
            prop_assert_eq!(bounded.len(), filtered.len(), "k = {}", k);
            for (b, f) in bounded.iter().zip(filtered) {
                prop_assert_eq!(b.fd, f.fd, "k = {}", k);
                prop_assert!(b.score.to_bits() == f.score.to_bits()
                    && b.plugin.to_bits() == f.plugin.to_bits()
                    && b.bias.to_bits() == f.bias.to_bits()
                    && b.g3.to_bits() == f.g3.to_bits(),
                    "{}: a score drifted at k = {}", b.fd, k);
            }
        }
    }
    /// The capped `m₀` on the exact path (`n ≤ 4 096`), over random,
    /// key, constant and tiny (`n ≤ 2`, `n = 0` included) multisets.
    #[test]
    fn capped_m0_is_a_prefix_of_the_full_sum_exact(
        n in 0usize..=4096,
        tiny in 0u32..8,
        x in multiset_draws(),
        y in multiset_draws(),
    ) {
        let n = if tiny == 0 { n % 3 } else { n };
        check_capped_m0(&multiset_of(n, &x), &multiset_of(n, &y))?;
    }

    /// The capped `m₀` on the windowed path (`n` up to 10⁵, past the
    /// exact `ln k!` table too).
    #[test]
    fn capped_m0_is_a_prefix_of_the_full_sum_windowed(
        n in 4097usize..=100_000,
        x in multiset_draws(),
        y in multiset_draws(),
    ) {
        check_capped_m0(&multiset_of(n, &x), &multiset_of(n, &y))?;
    }

    /// The histogram builder equals the sorting oracle on class sizes
    /// on both sides of its cut, in any order, with and without
    /// singletons — and on n = 0, a constant column and a key.
    #[test]
    fn size_multiset_matches_sorting_oracle(
        draws in proptest::collection::vec((0u32..3, 0u32..1 << 16), 0..=40),
        singletons in 0usize..=70,
    ) {
        let p = partition_with_sizes(&draws, singletons);
        let n = p.n();
        let degenerate = [
            StrippedPartition::of_empty(0),
            StrippedPartition::of_empty(n),
            StrippedPartition::from_classes(Vec::<Vec<u32>>::new(), n),
        ];
        for p in std::iter::once(&p).chain(&degenerate) {
            let built = SizeMultiset::of_sizes(p.sizes());
            prop_assert_eq!(&built, &size_multiset_sorted(p.sizes()));
            prop_assert_eq!(built.pairs.iter().map(|&(s, c)| s * c).sum::<u64>(), p.n() as u64);
        }
    }
}
