//! Approximate functional dependencies.
//!
//! The paper's Figure 5 shows how a single erroneous value turns the
//! exact dependency `C → B` into an *approximate* one. Approximate
//! dependencies (TANE's `g3` semantics: the minimum fraction of tuples
//! to delete for the dependency to hold) are exactly what a structure
//! miner meets on dirty, integrated data, and both FDEP-style and
//! TANE-style miners in the paper's related work support them.
//!
//! [`mine_approximate_ctx`] runs a levelwise search emitting all minimal
//! `X → A` with `g3(X → A) ≤ ε`. The rhs⁺ pruning of exact TANE is not
//! sound under approximation, so minimality is enforced directly against
//! the discovered set; key-based pruning remains sound (a superkey
//! determines everything exactly).

use crate::fd::{normalize_fds, Fd};
use crate::partitions::{PartitionScratch, StrippedPartition};
use dbmine_context::AnalysisCtx;
use dbmine_parallel::par_map_init;
use dbmine_relation::AttrSet;
use fxhash::{FxHashMap, FxHashSet};

/// An approximate dependency with its `g3` error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxFd {
    /// The dependency.
    pub fd: Fd,
    /// Its `g3` error in `[0, ε]` (0 = exact).
    pub error: f64,
}

/// Mines all minimal dependencies with `g3` error at most `epsilon`
/// (`epsilon = 0` reduces to exact mining), seeding level 1 from the
/// context's memoized single-attribute partitions. `max_lhs` bounds the
/// LHS size (`None` = unbounded). `threads` is the worker count (`1` =
/// serial, `0` = all cores): the `g3` tests and the prefix-join products
/// fan out with deterministic chunking, so results are bit-identical for
/// every thread count.
pub fn mine_approximate_ctx(
    ctx: &AnalysisCtx,
    epsilon: f64,
    max_lhs: Option<usize>,
    threads: usize,
) -> Vec<ApproxFd> {
    assert!((0.0..1.0).contains(&epsilon), "ε must be in [0,1)");
    let m = ctx.n_attrs();
    let mut found: Vec<ApproxFd> = Vec::new();
    // Minimality: per RHS, the LHSs already emitted.
    let mut found_lhs: Vec<Vec<AttrSet>> = vec![Vec::new(); m];

    // Level 0/1 partitions.
    let mut prev_parts: FxHashMap<u64, StrippedPartition> = std::iter::once((
        AttrSet::EMPTY.bits(),
        StrippedPartition::of_empty(ctx.n_tuples()),
    ))
    .collect();
    let attr_parts: Vec<StrippedPartition> = ctx
        .attr_partitions_with(threads)
        .into_iter()
        .cloned()
        .collect();
    let mut current: Vec<AttrSet> = (0..m).map(AttrSet::single).collect();
    let mut current_parts: FxHashMap<u64, StrippedPartition> = attr_parts
        .into_iter()
        .enumerate()
        .map(|(a, p)| (AttrSet::single(a).bits(), p))
        .collect();
    let mut level = 1usize;

    let _span = dbmine_telemetry::span("fdmine.approximate");
    while !current.is_empty() {
        // The g3 tests of one level only read the level-start state
        // (`found_lhs` entries added at this level have the same LHS
        // size as the candidates under test, so they can never prune a
        // same-level sibling — LHS/RHS pairs are unique per level).
        // That makes the per-set loop embarrassingly parallel; the
        // serial merge below replays emissions in set order, so output
        // is identical for every thread count.
        let tested: Vec<Vec<(Fd, f64)>> = par_map_init(
            threads,
            &current,
            PartitionScratch::new,
            |scratch, _, &x| {
                let px = &current_parts[&x.bits()];
                let mut results = Vec::new();
                for a in x.iter() {
                    let lhs = x.without(a);
                    if found_lhs[a].iter().any(|&f| f.is_subset_of(lhs)) {
                        continue; // a smaller LHS already works
                    }
                    let Some(p_lhs) = prev_parts.get(&lhs.bits()) else {
                        continue;
                    };
                    let error = p_lhs.g3_error_with(px, scratch);
                    if error <= epsilon {
                        results.push((Fd::new(lhs, a), error));
                    }
                }
                results
            },
        );
        for per_set in tested {
            for (fd, error) in per_set {
                found.push(ApproxFd { fd, error });
                found_lhs[fd.rhs].push(fd.lhs);
            }
        }
        // Note: unlike exact TANE, a key X must NOT be pruned from
        // candidate generation. The FD (X∪{b})\{a} → a (for a ∈ X) is
        // only ever tested from the candidate X∪{b}; its LHS does not
        // contain X, so it can still be minimal even though X is a key.
        // Without the rhs⁺ machinery that makes TANE's key pruning
        // complete, deleting X here silently loses those dependencies.
        // Keys still cost nothing extra to emit: a key LHS has an empty
        // stripped partition, so its g3 error is exactly 0.0 and its
        // consequents surface through the normal test one level up.
        if max_lhs.is_some_and(|max| level > max) {
            break;
        }

        let survivor_bits: FxHashSet<u64> = current.iter().map(|s| s.bits()).collect();

        // Prefix join: candidates enumerated serially (in set order),
        // products computed in parallel with per-worker scratch.
        let mut block_index: FxHashMap<u64, usize> = FxHashMap::default();
        let mut blocks: Vec<Vec<AttrSet>> = Vec::new();
        for &s in &current {
            let max_attr = s.iter().last().expect("non-empty");
            let idx = *block_index
                .entry(s.without(max_attr).bits())
                .or_insert_with(|| {
                    blocks.push(Vec::new());
                    blocks.len() - 1
                });
            blocks[idx].push(s);
        }
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut candidates: Vec<(AttrSet, u64, u64)> = Vec::new();
        for group in &blocks {
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    let x = group[i].union(group[j]);
                    if !x
                        .iter()
                        .all(|a| survivor_bits.contains(&x.without(a).bits()))
                        || !seen.insert(x.bits())
                    {
                        continue;
                    }
                    candidates.push((x, group[i].bits(), group[j].bits()));
                }
            }
        }
        let products: Vec<StrippedPartition> = par_map_init(
            threads,
            &candidates,
            PartitionScratch::new,
            |scratch, _, &(_, left, right)| {
                current_parts[&left].product_with(&current_parts[&right], scratch)
            },
        );
        let mut next: Vec<AttrSet> = Vec::with_capacity(candidates.len());
        let mut next_parts: FxHashMap<u64, StrippedPartition> =
            FxHashMap::with_capacity_and_hasher(candidates.len(), Default::default());
        for (&(x, _, _), p) in candidates.iter().zip(products) {
            next_parts.insert(x.bits(), p);
            next.push(x);
        }

        prev_parts = current_parts;
        current = next;
        current_parts = next_parts;
        level += 1;
    }

    // Final minimality sweep (a larger-LHS FD can be emitted before a
    // smaller one at a later level? No — levels grow — but two
    // incomparable LHSs are fine; dedup defensively anyway).
    let mut out = found;
    out.sort_by_key(|a| a.fd);
    out.dedup_by(|a, b| a.fd == b.fd);
    let keep: Vec<bool> = out
        .iter()
        .map(|f| {
            !out.iter().any(|g| {
                g.fd.rhs == f.fd.rhs && g.fd.lhs != f.fd.lhs && g.fd.lhs.is_subset_of(f.fd.lhs)
            })
        })
        .collect();
    out.into_iter()
        .zip(keep)
        .filter_map(|(f, k)| k.then_some(f))
        .filter(|f| !f.fd.is_trivial())
        .collect()
}

/// Convenience: the exact-FD subset of an approximate run (sanity tool).
pub fn exact_subset(approx: &[ApproxFd]) -> Vec<Fd> {
    normalize_fds(
        approx
            .iter()
            .filter(|f| f.error.abs() < 1e-12)
            .map(|f| f.fd)
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::mine_brute;
    use crate::check::fd_error_g3;
    use dbmine_relation::paper::{figure4, figure5};
    use dbmine_relation::RelationBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn epsilon_zero_equals_exact_mining() {
        for rel in [figure4(), figure5()] {
            let approx = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.0, None, 1);
            let mut exact: Vec<Fd> = approx.iter().map(|f| f.fd).collect();
            let mut brute = mine_brute(&rel);
            exact.sort();
            brute.sort();
            assert_eq!(exact, brute, "mismatch on {}", rel.name());
            assert!(approx.iter().all(|f| f.error == 0.0));
        }
    }

    #[test]
    fn figure5_c_to_b_is_approximate_at_20_percent() {
        // One of five tuples violates C → B.
        let rel = figure5();
        let approx = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.2, None, 1);
        let c_to_b = approx
            .iter()
            .find(|f| f.fd.lhs == AttrSet::single(2) && f.fd.rhs == 1)
            .expect("C→B approximate");
        assert!((c_to_b.error - 0.2).abs() < 1e-12);
        // At a tighter threshold it disappears.
        let tight = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.1, None, 1);
        assert!(!tight
            .iter()
            .any(|f| f.fd.lhs == AttrSet::single(2) && f.fd.rhs == 1));
    }

    #[test]
    fn results_are_minimal_and_within_epsilon() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..10 {
            let m = rng.gen_range(2..=4);
            let n = rng.gen_range(3..=12);
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("r", &refs);
            for _ in 0..n {
                let row: Vec<String> = (0..m)
                    .map(|a| format!("v{}_{}", a, rng.gen_range(0..3)))
                    .collect();
                let cells: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_row_strs(&cells);
            }
            let rel = b.build();
            let eps = 0.25;
            let approx = mine_approximate_ctx(&AnalysisCtx::of(&rel), eps, None, 1);
            for f in &approx {
                let direct = fd_error_g3(&rel, f.fd.lhs, f.fd.rhs);
                assert!(
                    (f.error - direct).abs() < 1e-12,
                    "error mismatch for {}",
                    f.fd
                );
                assert!(f.error <= eps + 1e-12);
                for bb in f.fd.lhs.iter() {
                    let sub_err = fd_error_g3(&rel, f.fd.lhs.without(bb), f.fd.rhs);
                    assert!(
                        sub_err > eps,
                        "{} not minimal: dropping {bb} gives error {sub_err}",
                        f.fd
                    );
                }
            }
            // Completeness for LHS size ≤ 2 by brute force.
            for a in 0..m {
                for bits in 0u64..(1 << m) {
                    let lhs = AttrSet::from_bits(bits);
                    if lhs.len() > 2 || lhs.contains(a) {
                        continue;
                    }
                    let err = fd_error_g3(&rel, lhs, a);
                    let minimal = lhs
                        .iter()
                        .all(|bb| fd_error_g3(&rel, lhs.without(bb), a) > eps);
                    if err <= eps && minimal {
                        assert!(
                            approx.iter().any(|f| f.fd == Fd::new(lhs, a)),
                            "missing approximate FD {} (error {err})",
                            Fd::new(lhs, a)
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn exact_subset_extraction() {
        let rel = figure5();
        let approx = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.3, None, 1);
        let exact = exact_subset(&approx);
        for f in &exact {
            assert!(crate::check::fd_holds(&rel, f.lhs, f.rhs));
        }
    }

    #[test]
    fn max_lhs_respected() {
        let rel = figure4();
        let approx = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.1, Some(1), 1);
        assert!(approx.iter().all(|f| f.fd.lhs.len() <= 1));
    }

    #[test]
    #[should_panic(expected = "ε")]
    fn epsilon_out_of_range() {
        mine_approximate_ctx(&AnalysisCtx::of(&figure4()), 1.0, None, 1);
    }
}
