//! Distributional Cluster Features (Section 5.2).
//!
//! A [`Dcf`] owns its vectors and is updated in place:
//! [`Dcf::merge_in_place`] merges the other cluster into its own buffers,
//! so no buffer is shared or handed between clusters. The allocating
//! [`Dcf::merge`] is the pinned bit-identity reference of that merge.

use dbmine_infotheory::{merge_information_loss, SparseDist};

/// The sufficient statistics of a cluster `c`:
/// `DCF(c) = (p(c), p(T|c))` — its probability mass and its conditional
/// distribution over the *expression* variable `T`.
///
/// Merging two clusters combines their DCFs with the paper's Equations
/// (1)–(2), and the distance between two clusters is the information loss
/// `δI` of Equation (3). DCFs can therefore be *"stored and updated
/// incrementally"* without keeping cluster members in memory.
///
/// The optional `aux` vector rides along under merges by plain summation.
/// The attribute-value tools use it for the rows of the support matrix
/// `O` (the paper's ADCF of Section 6.2: `O(c*) = Σ_{c∈c*} O(c)`).
#[derive(Clone, Debug, Default)]
pub struct Dcf {
    /// Cluster mass `p(c)`.
    pub weight: f64,
    /// Conditional distribution `p(T|c)`.
    pub cond: SparseDist,
    /// Auxiliary additive counts (ADCF's `O(c)` row); empty when unused.
    pub aux: SparseDist,
    /// Number of underlying objects summarized by this DCF.
    pub count: usize,
}

impl Dcf {
    /// DCF of a singleton cluster `{v}` with mass `p(v)` and conditional
    /// `p(T|v)`.
    pub fn singleton(weight: f64, cond: SparseDist) -> Self {
        Dcf {
            weight,
            cond,
            aux: SparseDist::new(),
            count: 1,
        }
    }

    /// Singleton DCF carrying an auxiliary count vector (ADCF).
    pub fn singleton_with_aux(weight: f64, cond: SparseDist, aux: SparseDist) -> Self {
        Dcf {
            weight,
            cond,
            aux,
            count: 1,
        }
    }

    /// The information loss `δI(self, other)` of merging the two clusters
    /// (Equation 3). This is the distance function `d(c1, c2)` of both
    /// AIB and LIMBO.
    pub fn distance(&self, other: &Dcf) -> f64 {
        merge_information_loss(self.weight, &self.cond, other.weight, &other.cond)
    }

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
    pub fn merge(&self, other: &Dcf) -> Dcf {
        let w = self.weight + other.weight;
        let cond = if w > 0.0 {
            if self.cond == other.cond {
                self.cond.clone()
            } else {
                SparseDist::weighted_sum(&self.cond, self.weight / w, &other.cond, other.weight / w)
            }
        } else {
            SparseDist::new()
        };
        let mut aux = self.aux.clone();
        aux.add_assign(&other.aux);
        Dcf {
            weight: w,
            cond,
            aux,
            count: self.count + other.count,
        }
    }

    /// Merges `other` into `self` in place: the conditional and the aux
    /// counts are each merged in their own buffer by
    /// [`SparseDist::merge_from`], so a summary's capacity follows its
    /// own support and no buffer passes between DCFs.
    ///
    /// Bit-identical to `*self = self.merge(other)` — regression- and
    /// property-tested against that pinned reference.
    pub fn merge_in_place(&mut self, other: &Dcf) {
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::DcfMerges, 1);
        let w = self.weight + other.weight;
        if w > 0.0 {
            // Identical-conditional fast path — same predicate as
            // `Dcf::merge`, see there for the exactness argument.
            if self.cond != other.cond {
                self.cond
                    .merge_from(self.weight / w, &other.cond, other.weight / w);
            }
        } else {
            self.cond = SparseDist::new();
        }
        self.aux.add_assign(&other.aux);
        self.weight = w;
        self.count += other.count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_infotheory::EPS;

    fn d(pairs: &[(u32, f64)]) -> SparseDist {
        SparseDist::from_pairs(pairs.to_vec())
    }

    #[test]
    fn merge_mass_and_mixture() {
        // Figure 7: merging values 2 (p=1/9, uniform on t3..t5) and
        // x (p=1/9, uniform on t3..t5) keeps the same conditional.
        let a = Dcf::singleton(
            1.0 / 9.0,
            d(&[(2, 1.0 / 3.0), (3, 1.0 / 3.0), (4, 1.0 / 3.0)]),
        );
        let b = a.clone();
        let m = a.merge(&b);
        assert!((m.weight - 2.0 / 9.0).abs() < EPS);
        assert!((m.cond.get(3) - 1.0 / 3.0).abs() < EPS);
        assert_eq!(m.count, 2);
    }

    #[test]
    fn merge_matches_figure8() {
        // Figure 8 (φV = 0.1 example, 8 values): merging
        //   2: p = 1/8, p(T|2) = [0,0,1/3,1/3,1/3]
        //   x: p = 1/8, p(T|x) = [0,1/4,1/4,1/4,1/4]
        // gives p = 2/8 and p(T|{2,x}) = [0, 1/8, 7/24, 7/24, 7/24].
        let two = Dcf::singleton(0.125, d(&[(2, 1.0 / 3.0), (3, 1.0 / 3.0), (4, 1.0 / 3.0)]));
        let x = Dcf::singleton(0.125, d(&[(1, 0.25), (2, 0.25), (3, 0.25), (4, 0.25)]));
        let m = two.merge(&x);
        assert!((m.weight - 0.25).abs() < EPS);
        assert!((m.cond.get(1) - 1.0 / 8.0).abs() < EPS);
        assert!((m.cond.get(2) - 7.0 / 24.0).abs() < EPS);
        assert!((m.cond.get(4) - 7.0 / 24.0).abs() < EPS);
    }

    #[test]
    fn aux_rows_are_summed() {
        // Figure 7 (right): O({a,1}) = O(a) + O(1) = (2,0,0)+(0,2,0) = (2,2,0).
        let a = Dcf::singleton_with_aux(1.0 / 9.0, d(&[(0, 0.5), (1, 0.5)]), d(&[(0, 2.0)]));
        let one = Dcf::singleton_with_aux(1.0 / 9.0, d(&[(0, 0.5), (1, 0.5)]), d(&[(1, 2.0)]));
        let m = a.merge(&one);
        assert_eq!(m.aux.get(0), 2.0);
        assert_eq!(m.aux.get(1), 2.0);
        assert_eq!(m.aux.get(2), 0.0);
    }

    #[test]
    fn distance_is_zero_for_identical_conditionals() {
        let a = Dcf::singleton(0.2, d(&[(0, 0.5), (1, 0.5)]));
        let b = Dcf::singleton(0.3, d(&[(0, 0.5), (1, 0.5)]));
        assert!(a.distance(&b).abs() < EPS);
    }

    #[test]
    fn distance_is_symmetric_and_positive_for_distinct() {
        let a = Dcf::singleton(0.2, d(&[(0, 1.0)]));
        let b = Dcf::singleton(0.3, d(&[(1, 1.0)]));
        assert!(a.distance(&b) > 0.0);
        assert!((a.distance(&b) - b.distance(&a)).abs() < EPS);
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
            let reference = a.merge(&b);
            let mut m = a.clone();
            m.merge_in_place(&b);
            assert_eq!(m.weight.to_bits(), reference.weight.to_bits());
            assert_eq!(m.count, reference.count);
            assert_eq!(m.cond.entries(), reference.cond.entries());
            assert_eq!(m.cond.total().to_bits(), reference.cond.total().to_bits());
            assert_eq!(m.aux.entries(), reference.aux.entries());
            // And chained: merge the reference back in, both ways.
            let chained_ref = m.merge(&reference);
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
        let m = a.merge(&b);
        assert_eq!(m.cond.entries(), p.entries());
        assert_eq!(m.count, 2);
        assert_eq!(m.weight.to_bits(), (0.3f64 + 0.1).to_bits());
        // Chained through unequal orders: ((a·b)·b) and (a·(b·b)) keep
        // the conditional exactly — merge order no longer matters for
        // duplicate classes.
        let left = m.merge(&b);
        let right = a.merge(&b.merge(&b));
        assert_eq!(left.cond.entries(), p.entries());
        assert_eq!(right.cond.entries(), p.entries());
        // The in-place path takes the same fast path.
        let mut ip = a.clone();
        ip.merge_in_place(&b);
        assert_eq!(ip.cond.entries(), m.cond.entries());
        assert_eq!(ip.cond.total().to_bits(), m.cond.total().to_bits());
        assert_eq!(ip.weight.to_bits(), m.weight.to_bits());
    }

    #[test]
    fn merge_zero_mass_clusters() {
        let a = Dcf::singleton(0.0, d(&[(0, 1.0)]));
        let b = Dcf::singleton(0.0, d(&[(1, 1.0)]));
        let m = a.merge(&b);
        assert_eq!(m.weight, 0.0);
        assert!(m.cond.is_empty());
    }

    #[test]
    fn merge_conditional_stays_normalized() {
        let a = Dcf::singleton(0.6, d(&[(0, 0.25), (5, 0.75)]));
        let b = Dcf::singleton(0.4, d(&[(2, 1.0)]));
        let m = a.merge(&b);
        assert!(m.cond.is_normalized(1e-9));
    }
}
