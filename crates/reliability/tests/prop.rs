//! Property tests: F̂ against a brute-force permutation-model reference
//! on tiny domains, plus thread-count and prune on/off invariance on
//! arbitrary small relations.

use dbmine_context::AnalysisCtx;
use dbmine_relation::partition::StrippedPartition;
use dbmine_relation::{AttrSet, Relation, RelationBuilder};
use dbmine_reliability::{m0, mine_reliable_ctx, ReliableOptions, RfiScorer, SizeMultiset};
use proptest::prelude::*;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The closed-form hypergeometric m₀ must match the exhaustive
    /// permutation average to 1e-9, for single-attribute LHSs and for
    /// two-attribute composites.
    #[test]
    fn m0_matches_brute_force_permutation_expectation(rel in tiny_relation()) {
        let n = rel.n_tuples();
        let lnfact: Vec<f64> = {
            let mut t = vec![0.0f64; n + 1];
            for k in 1..=n { t[k] = t[k - 1] + (k as f64).ln(); }
            t
        };
        let parts: Vec<StrippedPartition> =
            (0..rel.n_attrs()).map(|a| StrippedPartition::of_attr(&rel, a)).collect();
        let mut lhs_parts: Vec<StrippedPartition> = parts.clone();
        if parts.len() >= 2 {
            lhs_parts.push(parts[0].product(&parts[1]));
        }
        for px in &lhs_parts {
            for py in &parts {
                let closed = m0(
                    &SizeMultiset::of_partition(px),
                    &SizeMultiset::of_partition(py),
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
        let scorer = RfiScorer::new(&ctx, 1);
        for a in 0..rel.n_attrs() {
            for b in 0..rel.n_attrs() {
                if a == b { continue; }
                let pa = StrippedPartition::of_attr(&rel, a);
                let pb = StrippedPartition::of_attr(&rel, b);
                let h_y = SizeMultiset::of_partition(&pb).entropy_bits();
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

    /// Branch-and-bound must only skip work, never change results.
    #[test]
    fn pruned_equals_unpruned(rel in tiny_relation(), theta_pct in 0u32..=100) {
        // The shim's strategies are integer-only; scale to θ ∈ [0,1].
        let theta = theta_pct as f64 / 100.0;
        let pruned = mine_reliable_ctx(&AnalysisCtx::of(&rel), ReliableOptions { theta, prune: true, ..Default::default() });
        let unpruned = mine_reliable_ctx(&AnalysisCtx::of(&rel), ReliableOptions { theta, prune: false, ..Default::default() });
        prop_assert_eq!(pruned.len(), unpruned.len(), "θ = {}", theta);
        for (x, y) in pruned.iter().zip(&unpruned) {
            prop_assert_eq!(x.fd, y.fd);
            prop_assert!(x.score.to_bits() == y.score.to_bits()
                && x.plugin.to_bits() == y.plugin.to_bits()
                && x.bias.to_bits() == y.bias.to_bits()
                && x.g3.to_bits() == y.g3.to_bits(),
                "pruning changed an emitted value at θ = {}", theta);
        }
    }
}
