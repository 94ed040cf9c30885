//! Approximate functional dependencies.
//!
//! The paper's Figure 5 shows how a single erroneous value turns the
//! exact dependency `C → B` into an *approximate* one. Approximate
//! dependencies (TANE's `g3` semantics: the minimum fraction of tuples
//! to delete for the dependency to hold) are exactly what a structure
//! miner meets on dirty, integrated data, and both FDEP-style and
//! TANE-style miners in the paper's related work support them.
//!
//! [`mine_approximate_ctx`] drives the lattice walk
//! ([`crate::lattice::walk_minimal`]) with a `g3` test, emitting all
//! minimal `X → A` with `g3(X → A) ≤ ε`. At ε = 0 the test is exact TANE
//! ([`crate::tane`] wraps it) and opens TANE's per-level spans. `g3` is
//! a function of the partitions, so the walk's rhs⁺ (`C⁺`) rules hold
//! at every ε, but its key rule only at ε = 0 (the lattice module docs
//! have the arguments and a counterexample). At ε > 0 each `g3` is
//! computed from π_{X∖A} and π_A's class ids; at ε = 0 only whether
//! `X∖A → A` holds is read ([`Candidate::holds`]). Neither needs π_X on
//! a bounded walk's last level, which builds no products.

use crate::fd::Fd;
use crate::lattice::{walk_minimal, Candidate, MinimalTest, Step};
use dbmine_context::AnalysisCtx;
use dbmine_relation::partition::PartitionScratch;
use dbmine_telemetry::Span;

/// An approximate dependency with its `g3` error.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ApproxFd {
    /// The dependency.
    pub fd: Fd,
    /// Its `g3` error in `[0, ε]` (0 = exact).
    pub error: f64,
}

/// The `g3 ≤ ε` test of the approximate walk.
struct G3Test {
    epsilon: f64,
}

impl MinimalTest for G3Test {
    /// `g3(X∖A → A)`; at ε = 0, `0.0` for a dependency that holds and
    /// `f64::INFINITY` for one that does not, whose error nothing reads.
    type Score = f64;
    const READS_X_SIZES: bool = false;

    fn score(&self, candidate: &Candidate<'_>, scratch: &mut PartitionScratch) -> f64 {
        if self.epsilon > 0.0 {
            candidate.g3_error(scratch)
        } else if candidate.holds() {
            0.0
        } else {
            f64::INFINITY
        }
    }

    fn emits(&self, &error: &f64) -> bool {
        error <= self.epsilon
    }

    fn exact(&self, &error: &f64) -> bool {
        error == 0.0
    }

    fn key_score(&self) -> Option<f64> {
        (self.epsilon == 0.0).then_some(0.0)
    }

    fn span(&self, step: Step) -> Option<Span> {
        (self.epsilon == 0.0).then(|| {
            dbmine_telemetry::span(match step {
                Step::Score => "tane.compute_dependencies",
                Step::Prune => "tane.prune",
                Step::Generate => "tane.generate_next_level",
            })
        })
    }
}

/// Mines all minimal dependencies with `g3` error at most `epsilon`
/// (`epsilon = 0` is exact mining), seeding level 1 from the context's
/// memoized single-attribute partitions. `max_lhs` bounds the LHS size
/// (`None` = unbounded). `threads` is the worker count (`1` = serial,
/// `0` = all cores): the `g3` tests and the prefix-join products fan out
/// with deterministic chunking, so results are bit-identical for every
/// thread count.
pub fn mine_approximate_ctx(
    ctx: &AnalysisCtx,
    epsilon: f64,
    max_lhs: Option<usize>,
    threads: usize,
) -> Vec<ApproxFd> {
    assert!((0.0..1.0).contains(&epsilon), "ε must be in [0,1)");
    mine_g3(ctx, epsilon, max_lhs, threads, "fdmine.approximate")
        .into_iter()
        .map(|(fd, error)| ApproxFd { fd, error })
        .collect()
}

/// The `g3 ≤ ε` walk, sorted by dependency, under a span named `name`
/// that opens once the single-attribute partitions are built.
pub(crate) fn mine_g3(
    ctx: &AnalysisCtx,
    epsilon: f64,
    max_lhs: Option<usize>,
    threads: usize,
    name: &'static str,
) -> Vec<(Fd, f64)> {
    let attr_parts = ctx.attr_partitions_with(threads);
    let _span = dbmine_telemetry::span(name);
    walk_minimal(
        ctx.n_tuples(),
        attr_parts,
        max_lhs,
        threads,
        &G3Test { epsilon },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::fd_error_g3;
    use crate::oracles::mine_brute;
    use dbmine_relation::paper::{figure4, figure5};
    use dbmine_relation::{AttrSet, RelationBuilder};
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

    /// `{a}` is a key and `[b,c] → [a]` is minimal at `g3` = 0.1, but
    /// only the candidate `{a,b,c}` tests it: the key rule, sound only
    /// at ε = 0, must leave `{a}` in the join above it.
    #[test]
    fn a_key_stays_in_the_join_above_epsilon_zero() {
        let mut b = RelationBuilder::new("keys", &["a", "b", "c"]);
        for row in [
            ["a1", "b1", "c1"],
            ["a2", "b2", "c1"],
            ["a3", "b1", "c2"],
            ["a4", "b2", "c2"],
            ["a5", "b1", "c3"],
            ["a6", "b2", "c3"],
            ["a7", "b1", "c4"],
            ["a10", "b2", "c4"],
            ["a8", "b1", "c5"],
            ["a9", "b1", "c5"],
        ] {
            b.push_row_strs(&row);
        }
        let rel = b.build();
        let ctx = AnalysisCtx::of(&rel);
        let bc_to_a = Fd::new(AttrSet::from_bits(0b110), 0);
        let approx = mine_approximate_ctx(&ctx, 0.1, None, 1);
        let found = approx
            .iter()
            .find(|f| f.fd == bc_to_a)
            .expect("[b,c]→[a] at ε = 0.1");
        assert_eq!(found.error, 0.1);
        let mut exact: Vec<Fd> = mine_approximate_ctx(&ctx, 0.0, None, 1)
            .iter()
            .map(|f| f.fd)
            .collect();
        let mut brute = mine_brute(&rel);
        exact.sort();
        brute.sort();
        assert_eq!(exact, brute);
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
