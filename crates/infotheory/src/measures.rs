//! Entropy, mutual information and divergences (Section 3 of the paper).

use crate::sparse::SparseDist;
use crate::xlogx;
use std::collections::BTreeMap;

/// Shannon entropy `H(V) = -Σ p(v) log2 p(v)` of a probability vector,
/// in bits. Zero entries contribute nothing (`0 log 0 = 0`).
pub fn entropy(probs: impl IntoIterator<Item = f64>) -> f64 {
    -probs.into_iter().map(xlogx).sum::<f64>()
}

/// Entropy of a [`SparseDist`] (absent entries are zero and contribute 0).
pub fn entropy_of(dist: &SparseDist) -> f64 {
    entropy(dist.iter().map(|(_, w)| w))
}

/// `H_max(V) = log2 n`, the entropy of the uniform distribution over `n`
/// states — the maximum any distribution over `n` states can attain.
pub fn uniform_entropy(n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        (n as f64).log2()
    }
}

/// Conditional entropy `H(T|V) = -Σ_v p(v) Σ_t p(t|v) log2 p(t|v)`.
///
/// `rows` yields `(p(v), p(T|v))` pairs — one conditional distribution per
/// value of the conditioning variable.
pub fn conditional_entropy<'a>(rows: impl IntoIterator<Item = (f64, &'a SparseDist)>) -> f64 {
    rows.into_iter()
        .map(|(pv, cond)| pv * entropy_of(cond))
        .sum()
}

/// Mutual information `I(V;T) = H(T) - H(T|V)` computed from the
/// conditional rows `(p(v), p(T|v))` — a thin wrapper over
/// [`MutualInformation`], the one fold every view's information goes
/// through.
pub fn mutual_information<'a>(rows: impl IntoIterator<Item = (f64, &'a SparseDist)>) -> f64 {
    let mut mi = MutualInformation::new();
    for (pv, cond) in rows {
        mi.add(pv, cond);
    }
    mi.finish()
}

/// Streaming `I(V;T)` over conditional rows `(p(v), p(T|v))`, one row at
/// a time, so no caller has to collect its rows first.
///
/// The marginal `p(T) = Σ_v p(v) p(T|v)` accumulates in a map keyed by
/// feature: each row adds `p(v)·p(t|v)` to its entries in row order, and
/// [`MutualInformation::finish`] takes `H(T)` over the non-zero entries
/// in key order. That is the arithmetic of merging every row into a
/// running sparse marginal, in the same order, so the result is
/// bit-identical to that fold at O(log |T|) per entry instead of
/// O(|T|) per row. Memory is one entry per distinct feature.
#[derive(Clone, Debug, Default)]
pub struct MutualInformation {
    marginal: BTreeMap<u32, f64>,
    h_cond: f64,
}

impl MutualInformation {
    /// An empty fold (`I = 0` until rows arrive).
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds in one conditional row `p(T|v)` with prior `p(v)`.
    pub fn add(&mut self, pv: f64, cond: &SparseDist) {
        for (t, w) in cond.iter() {
            *self.marginal.entry(t).or_insert(0.0) += pv * w;
        }
        self.h_cond += pv * entropy_of(cond);
    }

    /// `H(T) - H(T|V)`, clamped at zero to absorb floating-point jitter
    /// (mutual information is non-negative).
    pub fn finish(self) -> f64 {
        let h_marginal = entropy(self.marginal.into_values().filter(|&w| w != 0.0));
        (h_marginal - self.h_cond).max(0.0)
    }
}

/// Kullback–Leibler divergence `D_KL[p ‖ q] = Σ p(v) log2(p(v)/q(v))`.
///
/// Returns `f64::INFINITY` when `p` places mass where `q` has none
/// (the encoding assuming `q` cannot represent such an event).
pub fn kl_divergence(p: &SparseDist, q: &SparseDist) -> f64 {
    let mut d = 0.0;
    for (i, pv) in p.iter() {
        if pv == 0.0 {
            continue;
        }
        let qv = q.get(i);
        if qv == 0.0 {
            return f64::INFINITY;
        }
        d += pv * (pv / qv).log2();
    }
    d.max(0.0)
}

/// Weighted Jensen–Shannon divergence (Section 5.1).
///
/// With mixture weights `πp, πq` (non-negative, summing to 1) and
/// `p̄ = πp·p + πq·q`:
///
/// `D_JS[p, q] = πp · D_KL[p ‖ p̄] + πq · D_KL[q ‖ p̄]`
///
/// `D_JS` is symmetric in `(p,πp) ↔ (q,πq)`, finite whenever `p` and `q`
/// are, and bounded above by `H(π) ≤ 1` bit. The paper uses
/// `πi = p(ci)/p(c*)` when pricing a merge of clusters `ci, cj`.
pub fn js_divergence(p: &SparseDist, pi_p: f64, q: &SparseDist, pi_q: f64) -> f64 {
    dbmine_telemetry::counter_add(dbmine_telemetry::Counter::JsEvals, 1);
    debug_assert!(
        (pi_p + pi_q - 1.0).abs() < 1e-9 && pi_p >= 0.0 && pi_q >= 0.0,
        "JS mixture weights must be a distribution, got ({pi_p}, {pi_q})"
    );
    if pi_p == 0.0 {
        return 0.0; // the mixture equals q, and KL[q‖q] = 0
    }
    if pi_q == 0.0 {
        return 0.0;
    }
    // Indices present in only one of the two vectors contribute
    //   π·w·log(w/(π·w)) = π·w·log(1/π),
    // so when one vector is much smaller we only need to walk the small
    // one: the big vector's non-overlapping mass contributes in aggregate.
    let (pe, qe) = (p.entries(), q.entries());
    if pe.len() * 16 < qe.len() {
        return js_asymmetric(p, pi_p, q, pi_q).max(0.0);
    }
    if qe.len() * 16 < pe.len() {
        return js_asymmetric(q, pi_q, p, pi_p).max(0.0);
    }
    js_divergence_merged(p, pi_p, q, pi_q)
}

/// [`js_divergence`] computed with the merged two-pointer pass only —
/// never the `js_asymmetric` shortcut. Exposed so tests can cross-check
/// the shortcut against the reference pass; results agree to within
/// floating-point summation-order jitter (≈1e-12), not bit-exactly.
pub fn js_divergence_merged(p: &SparseDist, pi_p: f64, q: &SparseDist, pi_q: f64) -> f64 {
    if pi_p == 0.0 || pi_q == 0.0 {
        return 0.0;
    }
    let (pe, qe) = (p.entries(), q.entries());
    let log_inv_pi_p = -pi_p.log2();
    let log_inv_pi_q = -pi_q.log2();

    // One merged pass: every index in the union contributes
    //   πp·p·log(p/p̄) + πq·q·log(q/p̄)  with p̄ = πp·p + πq·q.
    let mut d = 0.0;
    let (mut ip, mut iq) = (0, 0);
    while ip < pe.len() && iq < qe.len() {
        let (kp, vp) = pe[ip];
        let (kq, vq) = qe[iq];
        match kp.cmp(&kq) {
            std::cmp::Ordering::Less => {
                d += pi_p * vp * log_inv_pi_p;
                ip += 1;
            }
            std::cmp::Ordering::Greater => {
                d += pi_q * vq * log_inv_pi_q;
                iq += 1;
            }
            std::cmp::Ordering::Equal => {
                let mix = pi_p * vp + pi_q * vq;
                if vp > 0.0 && mix > 0.0 {
                    d += pi_p * vp * (vp / mix).log2();
                }
                if vq > 0.0 && mix > 0.0 {
                    d += pi_q * vq * (vq / mix).log2();
                }
                ip += 1;
                iq += 1;
            }
        }
    }
    for &(_, vp) in &pe[ip..] {
        d += pi_p * vp * log_inv_pi_p;
    }
    for &(_, vq) in &qe[iq..] {
        d += pi_q * vq * log_inv_pi_q;
    }
    d.max(0.0)
}

/// JS computed by walking only the *small* vector: `small` is looked up
/// against `big` by binary search; `big`'s non-overlapping mass
/// contributes `π_big · (1 − overlap) · log(1/π_big)` in aggregate.
/// `O(|small| · log |big|)` instead of `O(|small| + |big|)`.
fn js_asymmetric(small: &SparseDist, pi_s: f64, big: &SparseDist, pi_b: f64) -> f64 {
    let log_inv_pi_s = -pi_s.log2();
    let log_inv_pi_b = -pi_b.log2();
    let mut d = 0.0;
    let mut big_overlap_mass = 0.0;
    for (i, vs) in small.iter() {
        let vb = big.get(i);
        if vb == 0.0 {
            d += pi_s * vs * log_inv_pi_s;
        } else {
            let mix = pi_s * vs + pi_b * vb;
            if vs > 0.0 {
                d += pi_s * vs * (vs / mix).log2();
            }
            d += pi_b * vb * (vb / mix).log2();
            big_overlap_mass += vb;
        }
    }
    d += pi_b * (big.total() - big_overlap_mass) * log_inv_pi_b;
    d
}

/// Information loss of merging clusters `ci, cj` (Equation 3 of the paper):
///
/// `δI(ci, cj) = [p(ci) + p(cj)] · D_JS[p(T|ci), p(T|cj)]`
///
/// with JS weights `p(ci)/p(c*)` and `p(cj)/p(c*)`. This is the distance
/// function `d(c1, c2)` used by both AIB and LIMBO; it depends only on the
/// two clusters involved, not on the rest of the clustering.
pub fn merge_information_loss(
    p_ci: f64,
    cond_i: &SparseDist,
    p_cj: f64,
    cond_j: &SparseDist,
) -> f64 {
    let p_star = p_ci + p_cj;
    if p_star <= 0.0 || !p_star.is_finite() {
        return 0.0;
    }
    // Identical conditionals merge for free: `D_JS[p, p] = 0` for *any*
    // JS weights. The floating-point evaluation below only lands on an
    // exact 0.0 when `p(ci)/p(c*)` is an exact half (the mixture
    // `π·x + (1−π)·x` rounds back to `x`); for every other weight split
    // it returns ulp-level noise of either sign, which makes `φ = 0`
    // merge decisions (threshold exactly 0) depend on how duplicate
    // masses happened to accumulate. Short-circuiting keeps duplicate
    // clusters exactly free to merge in any order — the invariant the
    // sharded Phase 1 plans rely on ([`Dcf::merge`'s matching fast path
    // in `dbmine-ib`] keeps the merged conditional exact).
    if cond_i == cond_j {
        return 0.0;
    }
    let loss = p_star * js_divergence(cond_i, p_ci / p_star, cond_j, p_cj / p_star);
    // JS is bounded, so a non-finite δI can only come from corrupt inputs
    // (NaN weights or conditionals). Treating it as a free merge keeps the
    // clustering total orders (total_cmp) well-behaved instead of letting
    // one bad row poison every comparison downstream.
    if loss.is_finite() {
        loss
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EPS;

    fn dist(pairs: &[(u32, f64)]) -> SparseDist {
        SparseDist::from_pairs(pairs.to_vec())
    }

    #[test]
    fn entropy_of_uniform_is_log_n() {
        let d = SparseDist::uniform(0..8);
        assert!((entropy_of(&d) - 3.0).abs() < EPS);
        assert!((uniform_entropy(8) - 3.0).abs() < EPS);
    }

    #[test]
    fn entropy_of_point_mass_is_zero() {
        assert_eq!(entropy_of(&SparseDist::singleton(42)), 0.0);
    }

    #[test]
    fn entropy_of_fair_coin_is_one_bit() {
        assert!((entropy([0.5, 0.5]) - 1.0).abs() < EPS);
    }

    #[test]
    fn entropy_handles_zero_probability() {
        assert!((entropy([0.5, 0.0, 0.5]) - 1.0).abs() < EPS);
    }

    #[test]
    fn conditional_entropy_of_deterministic_is_zero() {
        let rows = [
            (0.5, SparseDist::singleton(0)),
            (0.5, SparseDist::singleton(1)),
        ];
        let h = conditional_entropy(rows.iter().map(|(p, d)| (*p, d)));
        assert!(h.abs() < EPS);
    }

    #[test]
    fn mutual_information_of_identical_vars() {
        // V determines T perfectly and T is uniform over 4 states: I = 2 bits.
        let rows: Vec<(f64, SparseDist)> = (0..4u32)
            .map(|i| (0.25, SparseDist::singleton(i)))
            .collect();
        let i = mutual_information(rows.iter().map(|(p, d)| (*p, d)));
        assert!((i - 2.0).abs() < EPS);
    }

    #[test]
    fn mutual_information_of_independent_vars_is_zero() {
        let t = SparseDist::uniform(0..4);
        let rows = [(0.5, t.clone()), (0.5, t)];
        let i = mutual_information(rows.iter().map(|(p, d)| (*p, d)));
        assert!(i.abs() < EPS);
    }

    #[test]
    fn kl_of_identical_is_zero() {
        let p = dist(&[(0, 0.3), (1, 0.7)]);
        assert!(kl_divergence(&p, &p).abs() < EPS);
    }

    #[test]
    fn kl_is_infinite_off_support() {
        let p = dist(&[(0, 0.5), (1, 0.5)]);
        let q = dist(&[(0, 1.0)]);
        assert!(kl_divergence(&p, &q).is_infinite());
        // ... but finite the other way (q's support ⊆ p's support).
        assert!(kl_divergence(&q, &p).is_finite());
    }

    #[test]
    fn kl_known_value() {
        // KL[(1,0) ‖ (0.7,0.3)] = log2(1/0.7)
        let p = SparseDist::singleton(0);
        let q = dist(&[(0, 0.7), (1, 0.3)]);
        assert!((kl_divergence(&p, &q) - (1.0f64 / 0.7).log2()).abs() < EPS);
    }

    #[test]
    fn js_of_identical_is_zero() {
        let p = dist(&[(0, 0.2), (3, 0.8)]);
        assert!(js_divergence(&p, 0.5, &p, 0.5).abs() < EPS);
    }

    #[test]
    fn js_of_disjoint_equal_weight_is_one_bit() {
        let p = SparseDist::singleton(0);
        let q = SparseDist::singleton(1);
        assert!((js_divergence(&p, 0.5, &q, 0.5) - 1.0).abs() < EPS);
    }

    #[test]
    fn js_is_symmetric() {
        let p = dist(&[(0, 0.4), (1, 0.6)]);
        let q = dist(&[(1, 0.1), (2, 0.9)]);
        let a = js_divergence(&p, 0.3, &q, 0.7);
        let b = js_divergence(&q, 0.7, &p, 0.3);
        assert!((a - b).abs() < EPS);
    }

    #[test]
    fn js_matches_explicit_kl_formulation() {
        let p = dist(&[(0, 0.4), (1, 0.6)]);
        let q = dist(&[(0, 0.0), (1, 1.0), (2, 0.0)]);
        let (wp, wq) = (1.0 / 3.0, 2.0 / 3.0);
        let mix = SparseDist::weighted_sum(&p, wp, &q, wq);
        let expect = wp * kl_divergence(&p, &mix) + wq * kl_divergence(&q, &mix);
        assert!((js_divergence(&p, wp, &q, wq) - expect).abs() < EPS);
    }

    #[test]
    fn paper_worked_example_first_merge() {
        // Attribute-grouping example of Section 6.3 / Figure 9-10:
        // B = [0.4, 0.6], C = [0, 1], p(B) = p(C) = 1/3
        // δI(B,C) ≈ 0.1577 bits.
        let b = dist(&[(0, 0.4), (1, 0.6)]);
        let c = dist(&[(1, 1.0)]);
        let d = merge_information_loss(1.0 / 3.0, &b, 1.0 / 3.0, &c);
        assert!((d - 0.157_70).abs() < 1e-4, "got {d}");
    }

    #[test]
    fn paper_worked_example_final_merge() {
        // Merging A = [1,0] with cluster {B,C} = [0.2, 0.8]:
        // δI ≈ 0.5155 bits — the paper's "maximum information loss ≈ 0.52".
        let a = dist(&[(0, 1.0)]);
        let bc = dist(&[(0, 0.2), (1, 0.8)]);
        let d = merge_information_loss(1.0 / 3.0, &a, 2.0 / 3.0, &bc);
        assert!((d - 0.515_5).abs() < 1e-3, "got {d}");
    }

    #[test]
    fn merge_loss_identical_conditionals_is_exactly_zero() {
        // For any weight split — not just exact halves — merging equal
        // conditionals must cost *bitwise* 0.0, so a `φ = 0` threshold
        // (τ = 0) always accepts the merge regardless of how the two
        // duplicate masses accumulated.
        let p = dist(&[(0, 0.1), (3, 0.3), (7, 0.6)]);
        for (wi, wj) in [(0.5, 0.5), (0.3, 0.1), (1.0 / 3.0, 2.0 / 7.0), (0.7, 1e-12)] {
            assert_eq!(
                merge_information_loss(wi, &p, wj, &p).to_bits(),
                0.0f64.to_bits()
            );
        }
    }

    #[test]
    fn merge_loss_zero_total_mass() {
        let p = SparseDist::singleton(0);
        assert_eq!(merge_information_loss(0.0, &p, 0.0, &p), 0.0);
    }

    #[test]
    fn merge_loss_non_finite_weights_are_free() {
        // Corrupt weights must not produce a NaN that poisons every
        // comparison downstream (the clusterers order merges by δI).
        let p = dist(&[(0, 0.5), (1, 0.5)]);
        let q = dist(&[(2, 1.0)]);
        assert_eq!(merge_information_loss(f64::NAN, &p, 0.5, &q), 0.0);
        assert_eq!(merge_information_loss(0.5, &p, f64::INFINITY, &q), 0.0);
    }

    #[test]
    fn merged_pass_matches_dispatching_entry_point() {
        let p = dist(&[(0, 0.4), (1, 0.6)]);
        let q = dist(&[(1, 0.1), (2, 0.9)]);
        let a = js_divergence(&p, 0.3, &q, 0.7);
        let b = js_divergence_merged(&p, 0.3, &q, 0.7);
        // Same-sized supports dispatch to the merged pass: bit-identical.
        assert_eq!(a.to_bits(), b.to_bits());
    }
}
