//! Levelwise mining of reliable approximate dependencies with
//! branch-and-bound pruning.
//!
//! [`mine_reliable_ctx`] walks the same prefix-join lattice as
//! `fdmine::mine_approximate_ctx` — level-local partition memo, per-worker
//! [`PartitionScratch`], serial emission merge — but scores each
//! candidate `X∖{A} → A` with the bias-corrected F̂ of
//! [`crate::estimator`] and emits every minimal dependency with
//! `F̂ ≥ θ`.
//!
//! On top of the walk sits the Mandros et al. branch-and-bound rule: a
//! candidate set `X` can be dropped from generation when **no**
//! dependency reachable through its descendants can still clear `θ`,
//! i.e. when `F̄ < θ` for every consequent — both `A ∈ X` (whose
//! descendants test supersets of `X∖{A}`, reusing the bias already paid
//! for in the scoring pass) and `A ∉ X` (a fresh bound from `π_X`'s
//! size multiset). Because `F̄` is admissible and the minimality filter
//! is hereditary, pruning can only *skip* work: the mined set is
//! bit-identical with pruning on or off (pinned by tests), while the
//! lattice shrinks by the amounts recorded in the `bnb_bounds` /
//! `bnb_prunes` counters.

use crate::estimator::{RfiScore, RfiScorer, SizeMultiset};
use dbmine_context::AnalysisCtx;
use dbmine_fdmine::Fd;
use dbmine_parallel::{par_map, par_map_init};
use dbmine_relation::partition::{PartitionScratch, StrippedPartition};
use dbmine_relation::AttrSet;
use dbmine_telemetry::{counter_add, span, Counter};
use fxhash::{FxHashMap, FxHashSet};

/// The default reliability threshold θ for CLI/daemon runs.
pub const DEFAULT_THETA: f64 = 0.2;

/// Options for [`mine_reliable_ctx`].
#[derive(Clone, Copy, Debug)]
pub struct ReliableOptions {
    /// Emission threshold `θ ∈ [0,1]`: keep `X → A` with `F̂ ≥ θ`.
    pub theta: f64,
    /// Bound on the LHS size (`None` = unbounded).
    pub max_lhs: Option<usize>,
    /// Worker threads (`1` = serial, `0` = all cores); results are
    /// bit-identical for every thread count.
    pub threads: usize,
    /// Branch-and-bound pruning. On by default; turning it off explores
    /// the full (minimality-filtered) lattice and must return the exact
    /// same dependencies — the switch exists for the pruning-
    /// effectiveness bench and the bit-identity tests.
    pub prune: bool,
}

impl Default for ReliableOptions {
    fn default() -> Self {
        ReliableOptions {
            theta: DEFAULT_THETA,
            max_lhs: None,
            threads: 1,
            prune: true,
        }
    }
}

/// A reliable dependency: `F̂(X→A) ≥ θ`, minimal in the LHS.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReliableFd {
    /// The dependency.
    pub fd: Fd,
    /// The reliable fraction of information `F̂ = plugin − bias`.
    pub score: f64,
    /// The uncorrected plugin fraction `I(X;A)/H(A)`.
    pub plugin: f64,
    /// The permutation-model correction `m₀/H(A)`.
    pub bias: f64,
    /// The `g3` error of the same dependency, for side-by-side
    /// comparison of the two quality measures.
    pub g3: f64,
}

/// Per-candidate, per-consequent outcome of the scoring pass, kept so
/// the prune pass can reuse the biases it already paid for.
enum RhsCase {
    /// A smaller emitted LHS already covers this consequent — the FD was
    /// not scored, and every descendant with this consequent is
    /// non-minimal.
    Covered,
    /// Scored (and possibly emitted, if `rfi.score ≥ θ`).
    Scored { rfi: RfiScore, g3: f64 },
}

/// Mines all minimal `X → A` with `F̂(X→A) ≥ θ`, seeding level 1 from
/// the context's memoized single-attribute partitions.
pub fn mine_reliable_ctx(ctx: &AnalysisCtx, options: ReliableOptions) -> Vec<ReliableFd> {
    let ReliableOptions {
        theta,
        max_lhs,
        threads,
        prune,
    } = options;
    assert!((0.0..=1.0).contains(&theta), "θ must be in [0,1]");
    let _span = span("fdmine.reliable");
    let m = ctx.n_attrs();
    let scorer = RfiScorer::new(ctx, threads);
    let mut found: Vec<ReliableFd> = Vec::new();
    // Minimality: per RHS, the LHSs already emitted.
    let mut found_lhs: Vec<Vec<AttrSet>> = vec![Vec::new(); m];

    // Level 0/1 partitions (the level-local subset memo).
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

    while !current.is_empty() {
        counter_add(Counter::TaneLatticeNodes, current.len() as u64);
        // Scoring pass: like the approximate miner, one level's tests
        // read only the level-start `found_lhs` (LHS/RHS pairs are
        // unique within a level), so the per-set loop is embarrassingly
        // parallel and the serial merge below replays emissions in set
        // order — bit-identical output at every thread count.
        let tested: Vec<Vec<(usize, RhsCase)>> = {
            let _s = span("reliable.score");
            par_map_init(
                threads,
                &current,
                PartitionScratch::new,
                |scratch, _, &x| {
                    let px = &current_parts[&x.bits()];
                    let mut cases = Vec::with_capacity(x.len());
                    for a in x.iter() {
                        let lhs = x.without(a);
                        if found_lhs[a].iter().any(|&f| f.is_subset_of(lhs)) {
                            cases.push((a, RhsCase::Covered));
                            continue;
                        }
                        let Some(p_lhs) = prev_parts.get(&lhs.bits()) else {
                            cases.push((a, RhsCase::Covered));
                            continue;
                        };
                        let rfi = scorer.score(p_lhs, px, a);
                        let g3 = p_lhs.g3_error_with(px, scratch);
                        cases.push((a, RhsCase::Scored { rfi, g3 }));
                    }
                    cases
                },
            )
        };
        for (&x, cases) in current.iter().zip(&tested) {
            for (a, case) in cases {
                if let RhsCase::Scored { rfi, g3 } = case {
                    if rfi.score >= theta {
                        let fd = Fd::new(x.without(*a), *a);
                        found.push(ReliableFd {
                            fd,
                            score: rfi.score,
                            plugin: rfi.plugin,
                            bias: rfi.bias,
                            g3: *g3,
                        });
                        found_lhs[fd.rhs].push(fd.lhs);
                    }
                }
            }
        }
        if max_lhs.is_some_and(|max| level > max) {
            break;
        }

        // Branch-and-bound pass: X survives into generation unless every
        // consequent's descendants are provably hopeless. For A ∈ X the
        // bias from the scoring pass is reused (its bound covers every
        // superset of X∖{A}); for A ∉ X a fresh bound is computed from
        // π_X's size multiset (its bound covers every superset of X).
        // The minimality short-circuit is hereditary — an emitted subset
        // LHS covers every descendant's LHS — so pruning never removes a
        // dependency the unpruned walk would emit.
        let survivors: Vec<AttrSet> = if !prune {
            current.clone()
        } else {
            let _s = span("reliable.prune");
            let verdicts: Vec<(bool, u64)> = par_map(
                threads,
                &current.iter().zip(&tested).collect::<Vec<_>>(),
                |_, &(&x, cases)| {
                    let mut bounds = 0u64;
                    let mut prunable = true;
                    'decide: {
                        for (a, case) in cases {
                            match case {
                                RhsCase::Covered => {}
                                RhsCase::Scored { rfi, .. } => {
                                    if found_lhs[*a].iter().any(|&f| f.is_subset_of(x.without(*a)))
                                    {
                                        continue; // covered by this level's emissions
                                    }
                                    bounds += 1;
                                    if scorer.bound_from_bias(rfi.bias, *a) >= theta {
                                        prunable = false;
                                        break 'decide;
                                    }
                                }
                            }
                        }
                        let x_sizes = SizeMultiset::of_partition(&current_parts[&x.bits()]);
                        for (b, found) in found_lhs.iter().enumerate() {
                            if x.contains(b) {
                                continue;
                            }
                            if found.iter().any(|&f| f.is_subset_of(x)) {
                                continue;
                            }
                            bounds += 1;
                            if scorer.bound(&x_sizes, b) >= theta {
                                prunable = false;
                                break 'decide;
                            }
                        }
                    }
                    (prunable, bounds)
                },
            );
            counter_add(Counter::BnbBounds, verdicts.iter().map(|v| v.1).sum());
            counter_add(
                Counter::BnbPrunes,
                verdicts.iter().filter(|v| v.0).count() as u64,
            );
            current
                .iter()
                .zip(&verdicts)
                .filter_map(|(&x, &(prunable, _))| (!prunable).then_some(x))
                .collect()
        };

        // Prefix join over the survivors: candidates enumerated serially
        // (in set order), products computed in parallel with per-worker
        // scratch — the same generation as the approximate miner.
        let _s = span("reliable.generate");
        let survivor_bits: FxHashSet<u64> = survivors.iter().map(|s| s.bits()).collect();
        let mut block_index: FxHashMap<u64, usize> = FxHashMap::default();
        let mut blocks: Vec<Vec<AttrSet>> = Vec::new();
        for &s in &survivors {
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

    // Final minimality sweep, as in the approximate miner: levels grow,
    // so this is defensive dedup plus triviality filtering.
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

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::{figure4, figure5};

    #[test]
    fn theta_one_emits_only_bias_free_exact_fds() {
        // θ = 1 demands plugin − bias ≥ 1: an exact FD with zero
        // chance agreement. On figure4 the constant-free columns all
        // carry bias, so only ∅→A-style constants could reach 1 — and
        // figure4 has none.
        let out = mine_reliable_ctx(
            &AnalysisCtx::of(&figure4()),
            ReliableOptions {
                theta: 1.0,
                ..Default::default()
            },
        );
        assert!(out.is_empty(), "{out:?}");
    }

    #[test]
    fn scores_respect_threshold_and_minimality() {
        for rel in [figure4(), figure5()] {
            let out = mine_reliable_ctx(
                &AnalysisCtx::of(&rel),
                ReliableOptions {
                    theta: 0.05,
                    ..Default::default()
                },
            );
            for f in &out {
                assert!(f.score >= 0.05, "{f:?}");
                assert!((f.score - (f.plugin - f.bias)).abs() < 1e-12);
                for (i, g) in out.iter().enumerate() {
                    let _ = i;
                    if g.fd.rhs == f.fd.rhs && g.fd.lhs != f.fd.lhs {
                        assert!(
                            !g.fd.lhs.is_subset_of(f.fd.lhs),
                            "{:?} not minimal given {:?}",
                            f.fd,
                            g.fd
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn max_lhs_respected() {
        let out = mine_reliable_ctx(
            &AnalysisCtx::of(&figure4()),
            ReliableOptions {
                theta: 0.05,
                max_lhs: Some(1),
                ..Default::default()
            },
        );
        assert!(out.iter().all(|f| f.fd.lhs.len() <= 1));
    }

    #[test]
    #[should_panic(expected = "θ")]
    fn theta_out_of_range_panics() {
        mine_reliable_ctx(
            &AnalysisCtx::of(&figure4()),
            ReliableOptions {
                theta: 1.5,
                ..Default::default()
            },
        );
    }
}
