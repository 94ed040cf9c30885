//! The reliable-fraction-of-information estimator.
//!
//! The fraction of information `F(X→Y) = I(X;Y) / H(Y)` measures how
//! much of `Y` an antecedent `X` explains (1 = exact FD, 0 =
//! independent). Its plugin estimate is *biased upward* on small or
//! skewed data: a spurious key-like `X` partitions the tuples so finely
//! that the empirical mutual information is large even when `X` carries
//! no real signal about `Y` — the same pathology that makes `g3` accept
//! every key-LHS dependency with error 0.
//!
//! Mandros et al. ("Discovering Reliable Approximate Functional
//! Dependencies", KDD 2017) correct the bias by subtracting the
//! dependency's expected score under the *permutation model*: hold both
//! marginal partitions fixed, shuffle the assignment between them
//! uniformly, and subtract the expected empirical mutual information
//! `m₀(X→Y)`. The reliable fraction of information is
//!
//! ```text
//!   F̂(X→Y) = ( I(X;Y) − m₀(X→Y) ) / H(Y)
//! ```
//!
//! `m₀` depends only on the two *class-size multisets* (the joint
//! contingency table is random under the null), so it is computable
//! directly from the partitions' [`ClassSizes`]: for marginal class
//! sizes `a` (from `π_X`) and `b` (from `π_Y`), the overlap count `k`
//! is hypergeometric, and
//!
//! ```text
//!   m₀ = Σ_a Σ_b Σ_k  (k/n)·log₂(k·n/(a·b)) · P_hyp(k | a, b, n)
//! ```
//!
//! grouped by distinct sizes with multiplicities. No row `a` of the
//! sum is negative (it is the expected divergence of a random
//! `a`-subset's `Y`-distribution from `Y`'s marginal), so
//! [`m0_capped`] can stop at the first row whose running total passes
//! a cap: that partial sum is already a lower bound. Small relations use
//! the exact full-range sum; large ones truncate the hypergeometric sum
//! to a deterministic window around its mean (the tails decay
//! sub-gaussianly, so a ±16σ window is exact to beyond f64 precision —
//! this is the Mandros et al. large-domain approximation, and it keeps
//! every evaluation deterministic).
//!
//! The same quantity yields an *admissible upper bound* for
//! branch-and-bound search: refining `π_X` can only increase the
//! empirical mutual information for every fixed permutation, so `m₀` is
//! monotonically non-decreasing under LHS specialization, and with
//! `I(X;Y) ≤ H(Y)` every superset `X' ⊇ X` satisfies
//!
//! ```text
//!   F̂(X'→Y) ≤ F̄(X→Y) = 1 − m₀(X→Y)/H(Y).
//! ```
//!
//! In particular a key LHS has `m₀ = H(Y)` *exactly*, so `F̂ = F̄ = 0`:
//! the correction wipes out precisely the spurious dependencies that
//! `g3` scores perfect.

use dbmine_context::AnalysisCtx;
use dbmine_relation::partition::{ClassSizes, PartitionScratch};
use dbmine_relation::AttrSet;
use dbmine_telemetry::{counter_add, Counter};

/// Above this relation size the hypergeometric sum inside [`m0`] is
/// truncated to a ±[`WINDOW_SIGMAS`]σ window around its mean instead of
/// the exact full range. The window is deterministic in the inputs, so
/// results remain bit-identical across runs and thread counts.
pub const EXACT_N_LIMIT: usize = 4096;

/// Half-width of the truncation window in standard deviations. The
/// hypergeometric tail beyond `t·σ` is bounded by `2·exp(−2t²)`
/// (Hoeffding), so 16σ ≈ 10⁻²²² — far below f64 resolution.
pub const WINDOW_SIGMAS: f64 = 16.0;

/// Class sizes below this are counted in a histogram by
/// [`SizeMultiset::of_sizes`]; only the few larger ones are sorted.
const HISTOGRAM_SIZES: usize = 64;

/// The multiset of equivalence-class sizes of a partition — the only
/// view of a partition the permutation model sees. Pairs are
/// `(size, count)`, sorted ascending by size; singletons are included.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SizeMultiset {
    /// `(class size, number of classes of that size)`, ascending.
    pub pairs: Vec<(u64, u64)>,
    /// Number of tuples (`Σ size·count`).
    pub n: usize,
}

impl SizeMultiset {
    /// The size multiset of a stripped partition, read from its class
    /// sizes (singletons restored from `n − ‖π‖`). Sizes below 64 are
    /// counted in a histogram; only the larger ones are sorted.
    pub fn of_sizes(p: &ClassSizes) -> SizeMultiset {
        let mut small = [0u64; HISTOGRAM_SIZES];
        let mut large: Vec<u64> = Vec::new();
        for s in p.iter() {
            match small.get_mut(s) {
                Some(count) => *count += 1,
                None => large.push(s as u64),
            }
        }
        // Stripped classes have size ≥ 2, so slot 1 holds only the
        // singletons.
        small[1] = (p.n() - p.covered()) as u64;
        let mut pairs: Vec<(u64, u64)> = (1..HISTOGRAM_SIZES)
            .filter(|&s| small[s] > 0)
            .map(|s| (s as u64, small[s]))
            .collect();
        large.sort_unstable();
        for s in large {
            match pairs.last_mut() {
                Some((size, count)) if *size == s => *count += 1,
                _ => pairs.push((s, 1)),
            }
        }
        SizeMultiset { pairs, n: p.n() }
    }

    /// Empirical entropy in bits, `Σ c·(s/n)·log₂(n/s)`.
    pub fn entropy_bits(&self) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let n = self.n as f64;
        self.pairs
            .iter()
            .map(|&(s, c)| {
                let p = s as f64 / n;
                c as f64 * p * (n / s as f64).log2()
            })
            .sum()
    }

    /// True when every class is a singleton (the partition of a key).
    pub fn is_key(&self) -> bool {
        self.pairs.iter().all(|&(s, _)| s == 1)
    }
}

/// One F̂ evaluation, decomposed: `score = plugin − bias`, all three as
/// fractions of `H(Y)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RfiScore {
    /// The plugin fraction of information `I(X;Y)/H(Y)` in `[0,1]`.
    pub plugin: f64,
    /// The permutation-model correction `m₀(X→Y)/H(Y)` in `[0,1]`.
    pub bias: f64,
    /// The reliable fraction of information `F̂ = plugin − bias`. Can be
    /// slightly negative (an LHS *less* informative than chance).
    pub score: f64,
}

/// The plugin half of an F̂ evaluation ([`RfiScorer::plugin`]), holding
/// what the bias half ([`RfiScorer::correct`]) needs to finish it.
#[derive(Clone, Debug)]
pub struct RfiPlugin {
    /// The plugin fraction of information `I(X;Y)/H(Y)`.
    pub plugin: f64,
    rhs: usize,
    /// `π_X`'s size multiset; `None` for a constant consequent, whose
    /// bias is 0 by convention.
    x: Option<SizeMultiset>,
}

/// Up to this `k`, [`LnFact`] reads `ln k!` from an exact running-sum
/// table; above it, from Stirling's series. A constant, so the table —
/// at most 512 KiB — no longer grows with the relation.
pub const LNFACT_TABLE_LIMIT: usize = 65_536;

/// `ln k!`, the shared ingredient of every hypergeometric probability:
/// an exact table `ln k! = Σ_{j ≤ k} ln j` for `k ≤ min(n,`
/// [`LNFACT_TABLE_LIMIT`]`)` and Stirling's series above it.
#[derive(Clone, Debug)]
pub struct LnFact {
    table: Vec<f64>,
}

impl LnFact {
    /// `ln k!` for `k ≤ n` (larger `k` work too, by the series).
    pub fn new(n: usize) -> LnFact {
        let mut table = vec![0.0f64; n.min(LNFACT_TABLE_LIMIT) + 1];
        for k in 1..table.len() {
            table[k] = table[k - 1] + (k as f64).ln();
        }
        LnFact { table }
    }

    /// `ln k!`.
    pub fn get(&self, k: usize) -> f64 {
        match self.table.get(k) {
            Some(&v) => v,
            None => ln_factorial_stirling(k),
        }
    }
}

/// Stirling's series for `ln k!` through the `1/(1260k⁵)` term:
/// `k·ln k − k + ½·ln(2πk) + 1/(12k) − 1/(360k³) + 1/(1260k⁵)`. The
/// first omitted term, `1/(1680k⁷)`, is below 10⁻³⁶ for
/// `k >` [`LNFACT_TABLE_LIMIT`].
fn ln_factorial_stirling(k: usize) -> f64 {
    let x = k as f64;
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    let series = inv * (1.0 / 12.0 - inv2 * (1.0 / 360.0 - inv2 / 1260.0));
    x * x.ln() - x + 0.5 * (std::f64::consts::TAU * x).ln() + series
}

/// The expected empirical mutual information (in bits) between two
/// partitions with class-size multisets `x` and `y` under the
/// permutation null model. Exact for `n ≤ EXACT_N_LIMIT`; windowed (see
/// module docs) above. The uncapped [`m0_capped`].
pub fn m0(x: &SizeMultiset, y: &SizeMultiset, lnfact: &LnFact) -> f64 {
    m0_capped(x, y, lnfact, f64::INFINITY)
}

/// [`m0`], stopped at the first row of `x` whose running total passes
/// `cap`.
///
/// The sum runs over `x`'s rows `(a, c_a)` in ascending size. Each row
/// is `c_a` times the expected `(a/n)·KL` of a random `a`-subset's
/// `y`-distribution from `y`'s marginal, so no row is negative in exact
/// arithmetic, and the running total after any row is a lower bound on
/// `m₀` (the proptests pin it at most `ε/2·H(Y)` above the full sum,
/// for the reliable test's `ε`). When the total passes `cap` before the
/// last row, the partial total is returned and one `m0_cutoffs` is
/// counted; otherwise the result is [`m0`]'s, bit for bit. A result
/// `> cap` therefore says `m₀ > cap` up to that rounding, and a result
/// `≤ cap` is the full sum.
pub fn m0_capped(x: &SizeMultiset, y: &SizeMultiset, lnfact: &LnFact, cap: f64) -> f64 {
    // When the exact table covers every index (all are ≤ n), read it as
    // a plain slice: a per-lookup series fallback measurably slows the
    // hot loop.
    match lnfact.table.get(..=x.n) {
        Some(table) => m0_with(x, y, table, cap),
        None => m0_with(x, y, lnfact, cap),
    }
}

/// A source of `ln k!` values.
trait LnFactorials: Copy {
    fn at(self, k: usize) -> f64;
}

impl LnFactorials for &[f64] {
    #[inline(always)]
    fn at(self, k: usize) -> f64 {
        self[k]
    }
}

impl LnFactorials for &LnFact {
    #[inline(always)]
    fn at(self, k: usize) -> f64 {
        self.get(k)
    }
}

/// [`m0_capped`] over any `ln k!` source.
fn m0_with(x: &SizeMultiset, y: &SizeMultiset, lnfact: impl LnFactorials, cap: f64) -> f64 {
    let n = x.n;
    debug_assert_eq!(n, y.n);
    if n == 0 {
        return 0.0;
    }
    let nf = n as f64;
    let ln_n = lnfact.at(n);
    let last_row = x.pairs.len().saturating_sub(1);
    let mut total = 0.0f64;
    for (row, &(a, ca)) in x.pairs.iter().enumerate() {
        let a = a as usize;
        // ln C(n, a)⁻¹ factor shared by every k of this row size.
        let ln_choose_n_a = ln_n - lnfact.at(a) - lnfact.at(n - a);
        for &(b, cb) in &y.pairs {
            let b = b as usize;
            // k = 0 contributes nothing; start at the support minimum.
            let k_min = 1.max((a + b).saturating_sub(n));
            let k_max = a.min(b);
            if k_min > k_max {
                continue;
            }
            let (lo, hi) = if n <= EXACT_N_LIMIT {
                (k_min, k_max)
            } else {
                // Deterministic window around the hypergeometric mean.
                let mean = a as f64 * b as f64 / nf;
                let var = mean * ((n - a) as f64 / nf) * ((n - b) as f64 / (n - 1) as f64);
                let half = WINDOW_SIGMAS * var.sqrt() + 4.0;
                let lo = (mean - half).floor().max(k_min as f64) as usize;
                let hi = (mean + half).ceil().min(k_max as f64) as usize;
                (lo.max(k_min), hi)
            };
            let mut inner = 0.0f64;
            for k in lo..=hi {
                // P_hyp(k | a, b, n) = C(b,k)·C(n−b,a−k)/C(n,a).
                let ln_p = lnfact.at(b) - lnfact.at(k) - lnfact.at(b - k) + lnfact.at(n - b)
                    - lnfact.at(a - k)
                    - lnfact.at(n - b - (a - k))
                    - ln_choose_n_a;
                let w = (k as f64 / nf) * (k as f64 * nf / (a as f64 * b as f64)).log2();
                inner += w * ln_p.exp();
            }
            total += ca as f64 * cb as f64 * inner;
        }
        if total > cap && row < last_row {
            counter_add(Counter::M0Cutoffs, 1);
            return total;
        }
    }
    total
}

/// A reusable F̂/F̄ evaluator over one relation: the log-factorials
/// plus per-attribute size multisets and entropies, built once from the
/// context's cached single-attribute partitions. `Sync` — workers share
/// one scorer immutably.
#[derive(Clone, Debug)]
pub struct RfiScorer {
    n: usize,
    lnfact: LnFact,
    /// Per-attribute consequent size multisets.
    y_sizes: Vec<SizeMultiset>,
    /// Per-attribute consequent entropies `H(A)` in bits.
    h_y: Vec<f64>,
}

impl RfiScorer {
    /// Builds a scorer from the context's memoized single-attribute
    /// partitions.
    pub fn new(ctx: &AnalysisCtx) -> RfiScorer {
        let parts = ctx.attr_partitions();
        let y_sizes: Vec<SizeMultiset> = parts
            .iter()
            .map(|p| SizeMultiset::of_sizes(p.sizes()))
            .collect();
        let h_y = y_sizes.iter().map(SizeMultiset::entropy_bits).collect();
        RfiScorer {
            n: ctx.n_tuples(),
            lnfact: LnFact::new(ctx.n_tuples()),
            y_sizes,
            h_y,
        }
    }

    /// Number of tuples of the underlying relation.
    pub fn n_tuples(&self) -> usize {
        self.n
    }

    /// `H(A)` of attribute `a` in bits.
    pub fn entropy(&self, a: usize) -> f64 {
        self.h_y[a]
    }

    /// `m₀` (bits) between an LHS size multiset and attribute `rhs`.
    pub fn bias_bits(&self, x: &SizeMultiset, rhs: usize) -> f64 {
        m0(x, &self.y_sizes[rhs], &self.lnfact)
    }

    /// The first step of F̂(X→rhs): the plugin fraction from the class
    /// sizes of `π_X` and `π_{X∪rhs}`. [`Self::correct`] finishes it;
    /// a caller that only needs the plugin stops here and never pays for
    /// `m₀`. Counts one `rfi_evals`.
    ///
    /// `H(rhs) = 0` (a constant column) is defined as `plugin = 1`,
    /// `bias = 0`, `score = 1`: a constant consequent is determined by
    /// anything, exactly, with no room for chance agreement — and the
    /// convention keeps the score total (no NaN from `0/0`).
    pub fn plugin(&self, p_x: &ClassSizes, p_xrhs: &ClassSizes, rhs: usize) -> RfiPlugin {
        let (plugin, x) = plugin_fraction(self.h_y[rhs], || {
            (SizeMultiset::of_sizes(p_x), SizeMultiset::of_sizes(p_xrhs))
        });
        RfiPlugin { plugin, rhs, x }
    }

    /// The second step of F̂: subtracts the permutation-model bias
    /// `m₀/H(rhs)` from a [`Self::plugin`] result, or returns `None`
    /// once the `m₀` sum ([`m0_capped`], stopped at the first row that
    /// shows it) has shown `bias > max_bias`. With
    /// `max_bias = f64::INFINITY` it always runs the full sum. A `Some`
    /// result is the full sum's, bit for bit, whatever the cap.
    pub fn correct(&self, p: &RfiPlugin, max_bias: f64) -> Option<RfiScore> {
        let (y, h_y) = (&self.y_sizes[p.rhs], self.h_y[p.rhs]);
        self.corrected(p.plugin, p.x.as_ref(), y, h_y, max_bias)
    }

    /// [`Self::correct`] for a consequent with size multiset `y` and
    /// entropy `h_y`, and `π_X`'s size multiset `x` (`None` for a
    /// constant consequent, whose bias is 0).
    fn corrected(
        &self,
        plugin: f64,
        x: Option<&SizeMultiset>,
        y: &SizeMultiset,
        h_y: f64,
        max_bias: f64,
    ) -> Option<RfiScore> {
        let bias = match x {
            Some(x) => {
                let cap = max_bias * h_y;
                let bits = m0_capped(x, y, &self.lnfact, cap);
                if bits > cap {
                    return None;
                }
                bits / h_y
            }
            None => 0.0,
        };
        Some(RfiScore {
            plugin,
            bias,
            score: plugin - bias,
        })
    }

    /// The admissible branch-and-bound bound `F̄ = 1 − bias` from an
    /// already-computed bias fraction: no descendant of the node can
    /// score above it (see module docs). `F̄ = 1` when `H(rhs) = 0`,
    /// consistent with [`Self::plugin`]'s convention.
    pub fn bound_from_bias(&self, bias: f64, rhs: usize) -> f64 {
        if self.h_y[rhs] == 0.0 {
            1.0
        } else {
            1.0 - bias
        }
    }

    /// `F̄(X→rhs)` computed fresh from an LHS size multiset.
    pub fn bound(&self, x: &SizeMultiset, rhs: usize) -> f64 {
        let h_y = self.h_y[rhs];
        if h_y == 0.0 {
            1.0
        } else {
            1.0 - self.bias_bits(x, rhs) / h_y
        }
    }

    /// F̂(X→Y) for attribute *sets*, reading `π_Y`, `π_X` and their
    /// product off the context's memoized single-attribute partitions
    /// ([`AnalysisCtx::partition`]; `π_X` only for a non-constant `Y`),
    /// and finished by the same plugin and bias steps as
    /// [`Self::plugin`] and [`Self::correct`]. Used by FD-RANK to score
    /// collapsed dependencies (whose consequent is a set). `X = ∅`
    /// scores 0 against any non-constant `Y`. Counts one `rfi_evals`.
    pub fn score_sets(&self, ctx: &AnalysisCtx, lhs: AttrSet, rhs: AttrSet) -> RfiScore {
        let p_y = ctx.partition(rhs);
        let y = SizeMultiset::of_sizes(p_y.sizes());
        let h_y = y.entropy_bits();
        let (plugin, x) = plugin_fraction(h_y, || {
            let p_x = ctx.partition(lhs);
            let p_xy = p_x.product_with(&p_y, &mut PartitionScratch::new());
            (
                SizeMultiset::of_sizes(p_x.sizes()),
                SizeMultiset::of_sizes(p_xy.sizes()),
            )
        });
        self.corrected(plugin, x.as_ref(), &y, h_y, f64::INFINITY)
            .expect("an uncapped bias always completes")
    }
}

/// The plugin fraction `I(X;Y)/H(Y)` for a consequent of entropy `h_y`,
/// with `π_X`'s size multiset for the bias step, from the size
/// multisets of `π_X` and `π_{X∪Y}` that `sizes` yields; counts one
/// `rfi_evals`. A constant consequent (`H(Y) = 0`) is `1` by
/// convention, with no multiset (bias 0), and `sizes` is not called.
fn plugin_fraction(
    h_y: f64,
    sizes: impl FnOnce() -> (SizeMultiset, SizeMultiset),
) -> (f64, Option<SizeMultiset>) {
    counter_add(Counter::RfiEvals, 1);
    if h_y == 0.0 {
        return (1.0, None);
    }
    let (x, xy) = sizes();
    // I(X;Y) = H(X) + H(Y) − H(XY), all from size multisets.
    let mi = x.entropy_bits() + h_y - xy.entropy_bits();
    (mi / h_y, Some(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::figure4;
    use dbmine_relation::partition::StrippedPartition;
    use dbmine_relation::RelationBuilder;

    fn multiset(pairs: &[(u64, u64)], n: usize) -> SizeMultiset {
        SizeMultiset {
            pairs: pairs.to_vec(),
            n,
        }
    }

    #[test]
    fn size_multiset_of_figure4_partitions() {
        let rel = figure4();
        // B = 1,1,2,2,2 → sizes {2,3}.
        let pb = StrippedPartition::of_attr(&rel, 1);
        let m = SizeMultiset::of_sizes(pb.sizes());
        assert_eq!(m.pairs, vec![(2, 1), (3, 1)]);
        assert_eq!(m.n, 5);
        // A = a,a,w,y,z → one pair class + three singletons.
        let pa = StrippedPartition::of_attr(&rel, 0);
        let m = SizeMultiset::of_sizes(pa.sizes());
        assert_eq!(m.pairs, vec![(1, 3), (2, 1)]);
        assert!(!m.is_key());
        assert!(multiset(&[(1, 5)], 5).is_key());
    }

    #[test]
    fn entropy_matches_closed_forms() {
        // Uniform over n singletons: H = log2 n.
        let m = multiset(&[(1, 8)], 8);
        assert!((m.entropy_bits() - 3.0).abs() < 1e-12);
        // One class: H = 0.
        let m = multiset(&[(6, 1)], 6);
        assert_eq!(m.entropy_bits(), 0.0);
        // Two equal halves: H = 1 bit.
        let m = multiset(&[(3, 2)], 6);
        assert!((m.entropy_bits() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn m0_of_key_lhs_equals_h_y() {
        // A key LHS (all singletons) has m₀(X→Y) = H(Y) exactly: the
        // k=1 overlap is certain with P = b/n and contributes
        // (1/n)·log2(n/b) per (singleton, class) pair, which telescopes
        // to the entropy.
        let lnfact = LnFact::new(6);
        let key = multiset(&[(1, 6)], 6);
        for y in [
            multiset(&[(3, 2)], 6),
            multiset(&[(1, 2), (2, 2)], 6),
            multiset(&[(6, 1)], 6),
        ] {
            let bias = m0(&key, &y, &lnfact);
            assert!(
                (bias - y.entropy_bits()).abs() < 1e-12,
                "m0 {bias} vs H {}",
                y.entropy_bits()
            );
        }
    }

    #[test]
    fn m0_of_single_class_lhs_is_zero() {
        // X with one class (the empty-set partition): k = b always,
        // weight log2(b·n/(n·b)) = 0.
        let lnfact = LnFact::new(6);
        let x = multiset(&[(6, 1)], 6);
        let y = multiset(&[(2, 3)], 6);
        assert!(m0(&x, &y, &lnfact).abs() < 1e-12);
    }

    #[test]
    fn m0_hand_computed_three_three() {
        // a = b = 3, n = 6: P(k) = C(3,k)C(3,3−k)/20 for k = 0..3 =
        // 1/20, 9/20, 9/20, 1/20. Four (class, class) pairs.
        let lnfact = LnFact::new(6);
        let x = multiset(&[(3, 2)], 6);
        let y = multiset(&[(3, 2)], 6);
        let w = |k: f64| (k / 6.0) * (6.0 * k / 9.0).log2();
        let per_pair = (9.0 / 20.0) * w(1.0) + (9.0 / 20.0) * w(2.0) + (1.0 / 20.0) * w(3.0);
        let expected = 4.0 * per_pair;
        assert!((m0(&x, &y, &lnfact) - expected).abs() < 1e-12);
    }

    #[test]
    fn windowed_path_matches_exact_on_boundary_sized_input() {
        // Same multisets evaluated by both paths: force the windowed
        // branch by lying about EXACT_N_LIMIT via a larger-n copy of a
        // structure whose exact evaluation is still feasible.
        let n = EXACT_N_LIMIT + 96; // odd sizes exercise the window edges
        let lnfact = LnFact::new(n);
        let half = (n / 2) as u64;
        let x = multiset(&[(half, 1), (1, n as u64 - half)], n);
        let y = multiset(&[(half - 3, 1), (1, n as u64 - (half - 3))], n);
        let windowed = m0(&x, &y, &lnfact);
        // Exact reference: full-range inner sums, same arithmetic.
        let mut exact = 0.0f64;
        let nf = n as f64;
        for &(a, ca) in &x.pairs {
            let (a, ca) = (a as usize, ca as f64);
            let ln_choose = lnfact.get(n) - lnfact.get(a) - lnfact.get(n - a);
            for &(b, cb) in &y.pairs {
                let (b, cb) = (b as usize, cb as f64);
                let mut inner = 0.0;
                for k in 1.max((a + b).saturating_sub(n))..=a.min(b) {
                    let ln_p = lnfact.get(b) - lnfact.get(k) - lnfact.get(b - k)
                        + lnfact.get(n - b)
                        - lnfact.get(a - k)
                        - lnfact.get(n - b - (a - k))
                        - ln_choose;
                    inner += (k as f64 / nf)
                        * (k as f64 * nf / (a as f64 * b as f64)).log2()
                        * ln_p.exp();
                }
                exact += ca * cb * inner;
            }
        }
        assert!(
            (windowed - exact).abs() < 1e-12,
            "windowed {windowed} vs exact {exact}"
        );
    }

    /// The running sum `ln k!` for `k ≤ n` — the table [`LnFact`] keeps
    /// up to its limit, extended past it as the series' reference.
    fn summed_lnfact(n: usize) -> Vec<f64> {
        let mut t = vec![0.0f64; n + 1];
        for k in 1..=n {
            t[k] = t[k - 1] + (k as f64).ln();
        }
        t
    }

    #[test]
    fn stirling_series_matches_summed_table() {
        let summed = summed_lnfact(10 * LNFACT_TABLE_LIMIT + 8);
        let lnfact = LnFact::new(summed.len() - 1);
        let limit = LNFACT_TABLE_LIMIT;
        for k in [
            limit,
            limit + 1,
            2 * limit - 3,
            2 * limit,
            2 * limit + 5,
            10 * limit,
            10 * limit + 7,
        ] {
            let series = ln_factorial_stirling(k);
            let rel = (series - summed[k]).abs() / summed[k];
            assert!(
                rel < 1e-12,
                "k = {k}: series {series} vs summed {} (rel {rel:e})",
                summed[k]
            );
            if k > limit {
                assert_eq!(lnfact.get(k).to_bits(), series.to_bits(), "k = {k}");
            }
        }
    }

    #[test]
    fn lnfact_is_the_summed_table_up_to_the_limit_and_bounded_above() {
        // Bit-identical to the old `n + 1` table wherever it still
        // applies (every relation up to 65 536 tuples)...
        for n in [0, 6, 20_000, LNFACT_TABLE_LIMIT] {
            let lnfact = LnFact::new(n);
            let summed = summed_lnfact(n);
            assert_eq!(lnfact.table.len(), n + 1);
            for (k, v) in summed.iter().enumerate() {
                assert_eq!(lnfact.get(k).to_bits(), v.to_bits(), "n = {n}, k = {k}");
            }
        }
        // ...and no longer grows with n: 10⁸ tuples keep the same
        // 65 537-entry table instead of an 800 MB one.
        for n in [LNFACT_TABLE_LIMIT + 1, 1_000_000, 100_000_000] {
            assert_eq!(LnFact::new(n).table.len(), LNFACT_TABLE_LIMIT + 1);
        }
        assert!(LnFact::new(100_000_000).get(100_000_000).is_finite());
    }

    #[test]
    fn score_sets_empty_lhs_and_constant_rhs() {
        let mut b = RelationBuilder::new("t", &["K", "C", "V"]);
        for (i, v) in ["x", "x", "y", "y"].iter().enumerate() {
            b.push_row_strs(&[&format!("k{i}"), "const", v]);
        }
        let rel = b.build();
        let ctx = AnalysisCtx::of(&rel);
        let scorer = RfiScorer::new(&ctx);
        // Constant consequent: total by convention, score 1.
        let s = scorer.score_sets(&ctx, AttrSet::single(2), AttrSet::single(1));
        assert_eq!(s.score, 1.0);
        assert!(s.score.is_finite());
        // Empty LHS against a non-constant consequent: exactly chance.
        let s = scorer.score_sets(&ctx, AttrSet::EMPTY, AttrSet::single(2));
        assert!(s.plugin.abs() < 1e-12);
        assert!(s.score.abs() < 1e-12);
        // Key LHS: plugin 1, bias 1, score 0 — the g3 blind spot.
        let s = scorer.score_sets(&ctx, AttrSet::single(0), AttrSet::single(2));
        assert!((s.plugin - 1.0).abs() < 1e-12);
        assert!(
            s.score.abs() < 1e-9,
            "key LHS must score ≈ 0, got {}",
            s.score
        );
    }
}
