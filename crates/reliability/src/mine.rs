//! Levelwise mining of reliable approximate dependencies with
//! branch-and-bound pruning.
//!
//! [`mine_reliable_ctx`] drives fdmine's one lattice walk
//! (`dbmine_fdmine::lattice::walk_minimal`, which also runs TANE and
//! `g3`): the walk owns generation, the rhs⁺ sets `C⁺` (the consequents
//! no emitted LHS covers, which are its minimality check) and the
//! serial emission merge, and this module plugs in a test that scores
//! each candidate `X∖{A} → A` with the bias-corrected F̂ of
//! [`crate::estimator`] and emits every minimal dependency with
//! `F̂ ≥ θ`. The test takes neither the walk's exact-FD rule nor its
//! key rule: the key rule holds only for a test that emits exactly the
//! dependencies that hold, and the exact-FD rule, though sound for F̂'s
//! emissions, would change which candidates are scored and bounded.
//!
//! Its survivor filter is the Mandros et al. branch-and-bound rule: a
//! candidate set `X` can be dropped from generation when **no**
//! dependency reachable through its descendants can still clear `θ`,
//! i.e. when `F̄ < θ` for every consequent in `C⁺(X)`, the only ones its
//! descendants can still emit — both `A ∈ X` (whose descendants test
//! supersets of `X∖{A}`, reusing the bias already paid for in the
//! scoring pass) and `A ∉ X` (a fresh bound from `π_X`'s size
//! multiset). Because `F̄` is admissible and a descendant's `C⁺` is
//! within `C⁺(X)`, pruning never changes the result: the mined set is
//! bit-identical to the unpruned walk's
//! (`dbmine_oracles::mine_reliable_unpruned`, pinned by tests), while
//! the lattice shrinks by the amounts recorded in the `bnb_bounds` /
//! `bnb_prunes` counters.
//!
//! Pruning is not free, though: the filter needs the bias of every
//! candidate on each level it filters, and the fresh `A ∉ X` bounds.
//! The walk decides where it runs: never on the last two levels of a
//! bounded walk, where all it could save is some last-level products.
//! On an unbounded walk over a wide relation it cuts the lattice by an
//! order of magnitude (db2 at θ 0.6 visits 28 808 sets instead of all
//! 2¹⁹ − 1) and wins several times over; at low θ, where few sets are
//! cut, it still costs more than it saves. `bench_fdmine` records the
//! shipped walk beside the unpruned one (`results/BENCH_fdmine.json`).
//!
//! # What is computed when
//!
//! Every candidate pays for its plugin `I(X;A)/H(A)` (one `rfi_evals`);
//! the other values are computed only where something reads them:
//!
//! * **`m₀` (the bias)** in full on every level the survivor filter
//!   reads: every level of an unbounded walk, and below level `k` of a
//!   walk bounded at `k`.
//! * **`m₀` on the last two levels of a bounded walk**, where only
//!   emission reads it (`Candidate::reaches_survivors` is false), only
//!   until the verdict is known. When `plugin < θ − ε`
//!   ([`BIAS_EPSILON`]) it is not computed at all: the bias is never
//!   below `−ε/2`, so `F̂ < θ`. Otherwise the sum
//!   ([`crate::estimator::m0_capped`]) runs with the cap
//!   `(plugin − θ + ε)·H(A)` and stops at the first row of π_{X∖A}'s
//!   size multiset whose running total passes it (one `m0_cutoffs`).
//!   No row is negative in exact arithmetic and the computed rows
//!   after the cut round to no less than `−ε/2·H(A)`, so a cut means
//!   `bias > plugin − θ + ε/2`, i.e. `F̂ < θ`; the candidate is
//!   skipped. An emitted candidate's running total never passes the
//!   cap, so it always runs the full sum. The singleton row comes
//!   first and is exactly `c₁·H(A)/n`, so a near-key LHS is settled
//!   after one cheap row.
//! * **`g3`** only for an emitted candidate (`F̂ ≥ θ`), the only place
//!   it is printed; `g3_evals` equals the number of emissions.
//!
//! Every emitted value is bit-identical to computing everything.

use crate::estimator::{RfiScore, RfiScorer, SizeMultiset};
use dbmine_context::AnalysisCtx;
use dbmine_fdmine::lattice::{walk_minimal, Candidate, MinimalTest, Step};
use dbmine_fdmine::Fd;
use dbmine_parallel::par_map_range;
use dbmine_relation::partition::{PartitionScratch, StrippedPartition};
use dbmine_relation::AttrSet;
use dbmine_telemetry::{counter_add, span, Counter, Span};
use fxhash::FxHashMap;

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
    /// Ignored. Kept for `bench_e2e`; the benchmark PR deletes it.
    #[doc(hidden)]
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

/// Slack of the bias-skip rule and of the `m₀` cap: where no survivor
/// filter reads the bias, the reliable test computes `m₀` for a
/// candidate only if its plugin is at least `θ − BIAS_EPSILON`, and
/// stops the sum once its running total passes
/// `(plugin − θ + BIAS_EPSILON)·H(A)`. `m₀` is the expectation of a
/// non-negative mutual information and each row of its sum is
/// non-negative, so the bias fraction and the rows left after a cut
/// are `≥ 0`; their computed values can round below zero, but by
/// orders of magnitude less than this (pinned `≥ −BIAS_EPSILON/2` by
/// the proptests). A skipped or cut candidate therefore has
/// `F̂ = plugin − bias < θ`: neither rule changes which dependencies
/// are emitted, or any emitted bit.
pub const BIAS_EPSILON: f64 = 1e-9;

/// What the reliable test computed for one candidate: only the values
/// a reader needs, so nothing unread can reach a [`ReliableFd`].
#[derive(Clone, Copy, Debug)]
enum Scored {
    /// No survivor filter reads the bias, and either `plugin < θ − ε`
    /// (`m₀` not computed) or the `m₀` sum passed
    /// `(plugin − θ + ε)·H(A)` (stopped there): `F̂ < θ` without the
    /// full `m₀`.
    Skipped,
    /// `F̂ < θ`: not emitted.
    Rejected(RfiScore),
    /// `F̂ ≥ θ`: emitted, with its `g3` error.
    Emitted(RfiScore, f64),
}

/// The `F̂ ≥ θ` test of the reliable walk, with branch-and-bound as its
/// survivor filter.
struct RfiTest {
    scorer: RfiScorer,
    theta: f64,
    threads: usize,
}

impl MinimalTest for RfiTest {
    type Score = Scored;

    /// The plugin always; the bias where emission or the filter may
    /// read it, summed only until `F̂ < θ` is certain where no filter
    /// does; `g3` only for an emitted candidate.
    fn score(&self, c: &Candidate<'_>, scratch: &mut PartitionScratch) -> Scored {
        let plugin = self.scorer.plugin(c.lhs.sizes(), c.x(), c.a);
        let max_bias = if c.reaches_survivors {
            f64::INFINITY
        } else if plugin.plugin < self.theta - BIAS_EPSILON {
            return Scored::Skipped;
        } else {
            plugin.plugin - self.theta + BIAS_EPSILON
        };
        let Some(rfi) = self.scorer.correct(&plugin, max_bias) else {
            return Scored::Skipped;
        };
        if rfi.score >= self.theta {
            Scored::Emitted(rfi, c.g3_error(scratch))
        } else {
            Scored::Rejected(rfi)
        }
    }

    fn emits(&self, scored: &Scored) -> bool {
        matches!(scored, Scored::Emitted(..))
    }

    /// X survives into generation unless every consequent its
    /// descendants can still emit — those in `C⁺(X)` — is provably
    /// hopeless. For A ∈ X the bias from the scoring pass is reused (its
    /// bound covers every superset of X∖{A}); for A ∉ X a fresh bound is
    /// computed from π_X's size multiset (its bound covers every
    /// superset of X). A consequent outside `C⁺(X)` is covered by an
    /// emitted subset LHS in every descendant, so pruning never removes
    /// a dependency the unpruned walk would emit.
    fn survivors(
        &self,
        sets: &[AttrSet],
        parts: &FxHashMap<u64, StrippedPartition>,
        tested: &[Vec<(usize, Scored)>],
        cplus: &[AttrSet],
    ) -> Vec<AttrSet> {
        let (scorer, theta) = (&self.scorer, self.theta);
        let verdicts: Vec<(bool, u64)> = par_map_range(self.threads, sets.len(), |i| {
            let (x, cp) = (sets[i], cplus[i]);
            let mut bounds = 0u64;
            let mut hopeless = |bound: f64| {
                bounds += 1;
                bound < theta
            };
            let in_x_hopeless = tested[i].iter().filter(|&&(a, _)| cp.contains(a)).all(
                |&(a, scored)| match scored {
                    Scored::Rejected(rfi) | Scored::Emitted(rfi, _) => {
                        hopeless(scorer.bound_from_bias(rfi.bias, a))
                    }
                    Scored::Skipped => unreachable!("a filtered level computes every bias"),
                },
            );
            let prunable = in_x_hopeless && {
                let x_sizes = SizeMultiset::of_sizes(parts[&x.bits()].sizes());
                cp.minus(x)
                    .iter()
                    .all(|b| hopeless(scorer.bound(&x_sizes, b)))
            };
            (prunable, bounds)
        });
        counter_add(Counter::BnbBounds, verdicts.iter().map(|v| v.1).sum());
        counter_add(
            Counter::BnbPrunes,
            verdicts.iter().filter(|v| v.0).count() as u64,
        );
        sets.iter()
            .zip(&verdicts)
            .filter_map(|(&x, &(prunable, _))| (!prunable).then_some(x))
            .collect()
    }

    fn span(&self, step: Step) -> Option<Span> {
        match step {
            Step::Score => Some(span("reliable.score")),
            Step::Prune => Some(span("reliable.prune")),
            Step::Generate => Some(span("reliable.generate")),
        }
    }
}

/// Mines all minimal `X → A` with `F̂(X→A) ≥ θ`, seeding level 1 from
/// the context's memoized single-attribute partitions.
pub fn mine_reliable_ctx(ctx: &AnalysisCtx, options: ReliableOptions) -> Vec<ReliableFd> {
    let ReliableOptions {
        theta,
        max_lhs,
        threads,
        ..
    } = options;
    assert!((0.0..=1.0).contains(&theta), "θ must be in [0,1]");
    let _span = span("fdmine.reliable");
    let test = RfiTest {
        scorer: RfiScorer::new(ctx),
        theta,
        threads,
    };
    walk_minimal(
        ctx.n_tuples(),
        ctx.attr_partitions(),
        max_lhs,
        threads,
        &test,
    )
    .into_iter()
    .map(|(fd, scored)| {
        let Scored::Emitted(rfi, g3) = scored else {
            unreachable!("the walk returns only emitted candidates")
        };
        ReliableFd {
            fd,
            score: rfi.score,
            plugin: rfi.plugin,
            bias: rfi.bias,
            g3,
        }
    })
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
