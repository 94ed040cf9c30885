//! The allocating DCF merge, the oracle of [`Dcf::merge_in_place`].

use crate::sparse::weighted_sum;
use dbmine_ib::Dcf;
use dbmine_infotheory::SparseDist;

/// The merged cluster `c* = c1 ∪ c2` (Equations 1 and 2):
/// `p(c*) = p(c1) + p(c2)`,
/// `p(T|c*) = p(c1)/p(c*)·p(T|c1) + p(c2)/p(c*)·p(T|c2)`,
/// `aux(c*) = aux(c1) + aux(c2)`.
///
/// When the two conditionals are identical the mixture is a no-op
/// mathematically — `α·p + (1−α)·p = p` — so the merged conditional
/// is kept **exactly** instead of being re-derived through the
/// weighted sum (which would perturb it by an ulp whenever
/// `p(c1)/p(c*) + p(c2)/p(c*)` rounds away from 1). This makes
/// duplicate-object clusters exact however many times and in
/// whatever order they merge, which is what keeps `φ = 0`
/// duplicate detection invariant across chunked ingest plans.
/// [`Dcf::merge_in_place`] applies the same predicate, preserving
/// their pinned bit-identity.
///
/// Allocates the merged vectors; the clustering hot paths use
/// [`Dcf::merge_in_place`] and this function is kept as its pinned
/// bit-identity reference.
pub fn dcf_merge(a: &Dcf, other: &Dcf) -> Dcf {
    let w = a.weight + other.weight;
    let cond = if w > 0.0 {
        if a.cond == other.cond {
            a.cond.clone()
        } else {
            weighted_sum(&a.cond, a.weight / w, &other.cond, other.weight / w)
        }
    } else {
        SparseDist::new()
    };
    let mut aux = a.aux.clone();
    aux.add_assign(&other.aux);
    Dcf {
        weight: w,
        cond,
        aux,
        count: a.count + other.count,
    }
}

#[cfg(test)]
mod tests {
    //! [`Dcf::merge_in_place`] pinned to the allocating merge.
    use super::*;

    fn d(pairs: &[(u32, f64)]) -> SparseDist {
        SparseDist::from_pairs(pairs.to_vec())
    }

    #[test]
    fn merge_in_place_is_bit_identical_to_merge() {
        let cases = [
            (
                Dcf::singleton_with_aux(0.6, d(&[(0, 0.25), (5, 0.75)]), d(&[(0, 2.0)])),
                Dcf::singleton_with_aux(0.4, d(&[(2, 1.0)]), d(&[(0, 1.0), (3, 4.0)])),
            ),
            (
                Dcf::singleton(0.0, d(&[(0, 1.0)])),
                Dcf::singleton(0.0, d(&[(1, 1.0)])),
            ),
            (
                Dcf::singleton(1.0 / 3.0, d(&[(0, 0.4), (1, 0.6)])),
                Dcf::singleton(2.0 / 3.0, d(&[(1, 1.0)])),
            ),
        ];
        for (a, b) in cases {
            let reference = dcf_merge(&a, &b);
            let mut m = a.clone();
            m.merge_in_place(&b);
            assert_eq!(m.weight.to_bits(), reference.weight.to_bits());
            assert_eq!(m.count, reference.count);
            assert_eq!(m.cond.entries(), reference.cond.entries());
            assert_eq!(m.cond.total().to_bits(), reference.cond.total().to_bits());
            assert_eq!(m.aux.entries(), reference.aux.entries());
            // And chained: merge the reference back in, both ways.
            let chained_ref = dcf_merge(&m, &reference);
            m.merge_in_place(&reference);
            assert_eq!(m.weight.to_bits(), chained_ref.weight.to_bits());
            assert_eq!(m.cond.entries(), chained_ref.cond.entries());
        }
    }

    #[test]
    fn identical_conditionals_merge_exactly() {
        // α·p + (1−α)·p must stay *bitwise* p, for weights whose
        // normalized shares don't sum to exactly 1.0 — the regime where
        // the generic weighted sum drifts by an ulp.
        let p = d(&[(0, 0.1), (3, 0.3), (7, 0.6)]);
        let a = Dcf::singleton(0.3, p.clone());
        let b = Dcf::singleton(0.1, p.clone());
        let m = dcf_merge(&a, &b);
        assert_eq!(m.cond.entries(), p.entries());
        assert_eq!(m.count, 2);
        assert_eq!(m.weight.to_bits(), (0.3f64 + 0.1).to_bits());
        // Chained through unequal orders: ((a·b)·b) and (a·(b·b)) keep
        // the conditional exactly — merge order no longer matters for
        // duplicate classes.
        let left = dcf_merge(&m, &b);
        let right = dcf_merge(&a, &dcf_merge(&b, &b));
        assert_eq!(left.cond.entries(), p.entries());
        assert_eq!(right.cond.entries(), p.entries());
        // The in-place path takes the same fast path.
        let mut ip = a.clone();
        ip.merge_in_place(&b);
        assert_eq!(ip.cond.entries(), m.cond.entries());
        assert_eq!(ip.cond.total().to_bits(), m.cond.total().to_bits());
        assert_eq!(ip.weight.to_bits(), m.weight.to_bits());
    }
}
