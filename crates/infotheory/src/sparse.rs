//! Sparse probability distributions over a `u32`-indexed domain.
//!
//! A [`SparseDist`] stores only the non-zero probabilities of a distribution,
//! as `(index, weight)` pairs sorted by index. This is the representation the
//! paper prescribes for Distributional Cluster Features: *"The probability
//! vectors are stored as sparse vectors, reducing the amount of space
//! considerably."* (Section 5.2).
//!
//! DCFs are also *"stored and updated incrementally"*: a merge rewrites a
//! summary in its own buffer ([`SparseDist::merge_from`], one backward
//! pass), grown to exactly the merged support, so a vector's capacity
//! only ever tracks its own support. The allocating
//! [`SparseDist::weighted_sum`] is the pinned bit-identity reference of
//! that kernel.

use std::fmt;

/// A sparse, non-negative weight vector over a `u32` domain, sorted by index.
///
/// Most instances are probability distributions (weights summing to 1), but
/// the type does not enforce normalization so it can also hold raw counts
/// (e.g. the rows of the paper's support matrix `O`).
///
/// The total mass is cached so that `total()` is O(1) — the asymmetric
/// Jensen–Shannon fast path relies on it.
#[derive(Clone, Default)]
pub struct SparseDist {
    entries: Vec<(u32, f64)>,
    total: f64,
}

impl PartialEq for SparseDist {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl SparseDist {
    /// An empty (all-zero) vector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds from arbitrary `(index, weight)` pairs: sorts by index, sums
    /// duplicate indices, and drops zero weights.
    pub fn from_pairs(mut pairs: Vec<(u32, f64)>) -> Self {
        pairs.sort_unstable_by_key(|&(i, _)| i);
        let mut entries: Vec<(u32, f64)> = Vec::with_capacity(pairs.len());
        for (i, w) in pairs {
            match entries.last_mut() {
                Some(last) if last.0 == i => last.1 += w,
                _ => entries.push((i, w)),
            }
        }
        entries.retain(|&(_, w)| w != 0.0);
        let total = entries.iter().map(|&(_, w)| w).sum();
        Self { entries, total }
    }

    /// Builds from pairs already sorted by strictly increasing index.
    ///
    /// # Panics
    /// In debug builds, panics if the indices are not strictly increasing.
    pub fn from_sorted(entries: Vec<(u32, f64)>) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "indices must be strictly increasing"
        );
        let total = entries.iter().map(|&(_, w)| w).sum();
        Self { entries, total }
    }

    /// The uniform distribution over `indices`.
    pub fn uniform(indices: impl IntoIterator<Item = u32>) -> Self {
        let idx: Vec<u32> = indices.into_iter().collect();
        let w = 1.0 / idx.len() as f64;
        Self::from_pairs(idx.into_iter().map(|i| (i, w)).collect())
    }

    /// A distribution with all mass on a single index.
    pub fn singleton(index: u32) -> Self {
        Self {
            entries: vec![(index, 1.0)],
            total: 1.0,
        }
    }

    /// Number of non-zero entries (the support size).
    pub fn support(&self) -> usize {
        self.entries.len()
    }

    /// True if the vector has no non-zero entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The weight at `index` (zero if absent).
    pub fn get(&self, index: u32) -> f64 {
        match self.entries.binary_search_by_key(&index, |&(i, _)| i) {
            Ok(pos) => self.entries[pos].1,
            Err(_) => 0.0,
        }
    }

    /// Iterates over the non-zero `(index, weight)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + '_ {
        self.entries.iter().copied()
    }

    /// Sum of all weights (the L1 mass for non-negative vectors). O(1).
    pub fn total(&self) -> f64 {
        self.total
    }

    /// Scales every weight by `factor`.
    pub fn scale(&mut self, factor: f64) {
        for (_, w) in &mut self.entries {
            *w *= factor;
        }
        self.total *= factor;
    }

    /// Normalizes the vector to sum to 1. A zero vector is left unchanged.
    pub fn normalize(&mut self) {
        let t = self.total();
        if t > 0.0 {
            self.scale(1.0 / t);
        }
    }

    /// Returns a normalized copy.
    pub fn normalized(&self) -> Self {
        let mut c = self.clone();
        c.normalize();
        c
    }

    /// True if the weights sum to 1 within `tol`.
    pub fn is_normalized(&self, tol: f64) -> bool {
        (self.total() - 1.0).abs() <= tol
    }

    /// The weighted sum `wa * a + wb * b`, computed in one merge pass.
    ///
    /// This is the workhorse of the Information Bottleneck merge,
    /// Equation (2) of the paper:
    /// `p(T|c*) = p(ci)/p(c*) · p(T|ci) + p(cj)/p(c*) · p(T|cj)`.
    ///
    /// Allocates a fresh vector per call; the clustering hot paths use
    /// [`SparseDist::merge_from`] instead, and this function is kept as
    /// its pinned bit-identity reference (see the property tests).
    pub fn weighted_sum(a: &Self, wa: f64, b: &Self, wb: f64) -> Self {
        let mut entries = Vec::with_capacity(a.entries.len() + b.entries.len());
        let (mut ia, mut ib) = (0, 0);
        while ia < a.entries.len() && ib < b.entries.len() {
            let (ka, va) = a.entries[ia];
            let (kb, vb) = b.entries[ib];
            match ka.cmp(&kb) {
                std::cmp::Ordering::Less => {
                    entries.push((ka, wa * va));
                    ia += 1;
                }
                std::cmp::Ordering::Greater => {
                    entries.push((kb, wb * vb));
                    ib += 1;
                }
                std::cmp::Ordering::Equal => {
                    entries.push((ka, wa * va + wb * vb));
                    ia += 1;
                    ib += 1;
                }
            }
        }
        entries.extend(a.entries[ia..].iter().map(|&(k, v)| (k, wa * v)));
        entries.extend(b.entries[ib..].iter().map(|&(k, v)| (k, wb * v)));
        entries.retain(|&(_, w)| w != 0.0);
        let total = entries.iter().map(|&(_, w)| w).sum();
        Self { entries, total }
    }

    /// Replaces `self` with `w_self * self + w_other * other`, merging in
    /// `self`'s own buffer.
    ///
    /// One binary search per entry of `other` counts the keys `self`
    /// lacks, so the buffer grows to exactly the union's size. A backward
    /// pass then places `other`'s entries from the tail, moving each run
    /// of larger `self` entries up by the number of new keys still to
    /// place (when `other`'s support lies inside `self`'s, nothing
    /// moves). Each entry computes `w_self·a + w_other·b` in that operand
    /// order, zeros are dropped and the total is summed left to right, so
    /// the result is bit-identical to [`SparseDist::weighted_sum`]
    /// (property-tested).
    pub fn merge_from(&mut self, w_self: f64, other: &Self, w_other: f64) {
        let n = self.entries.len();
        let mut lo = 0;
        let mut new = 0;
        for &(kb, _) in &other.entries {
            match self.entries[lo..].binary_search_by_key(&kb, |&(ka, _)| ka) {
                Ok(p) => lo += p + 1,
                Err(p) => {
                    lo += p;
                    new += 1;
                }
            }
        }
        self.entries.reserve_exact(new);
        self.entries.resize(n + new, (0, 0.0));
        // `self.entries[..i]` is unread and `[k..]` final; `k − i` is the
        // number of new keys still to place.
        let (mut i, mut k) = (n, n + new);
        let mut zeros = false;
        for &(kb, vb) in other.entries.iter().rev() {
            let p = self.entries[..i].partition_point(|&(ka, _)| ka <= kb);
            while i > p {
                i -= 1;
                k -= 1;
                let (ka, va) = self.entries[i];
                self.entries[k] = (ka, w_self * va);
                zeros |= self.entries[k].1 == 0.0;
            }
            let w = match self.entries[..i].last() {
                Some(&(ka, va)) if ka == kb => {
                    i -= 1;
                    w_self * va + w_other * vb
                }
                _ => w_other * vb,
            };
            k -= 1;
            self.entries[k] = (kb, w);
            zeros |= w == 0.0;
        }
        debug_assert_eq!(i, k, "every new key was placed");
        for e in &mut self.entries[..i] {
            e.1 *= w_self;
            zeros |= e.1 == 0.0;
        }
        if zeros {
            self.entries.retain(|&(_, w)| w != 0.0);
        }
        self.total = self.entries.iter().map(|&(_, w)| w).sum();
    }

    /// Adds `other` element-wise into `self` (used for count vectors such as
    /// the ADCF `O(c*) = Σ O(c)` aggregation of Section 6.2).
    ///
    /// [`SparseDist::merge_from`] with both weights 1.0, which is exact:
    /// multiplying by 1.0 changes no bit, so this is `self + other`
    /// summed left to right, as `weighted_sum(self, 1.0, other, 1.0)` is.
    /// No work at all when `other` is empty.
    pub fn add_assign(&mut self, other: &Self) {
        if !other.is_empty() {
            self.merge_from(1.0, other, 1.0);
        }
    }

    /// Borrowed view of the raw entries.
    pub fn entries(&self) -> &[(u32, f64)] {
        &self.entries
    }

    /// Maps every index through `f`, re-aggregating weights that collide.
    ///
    /// Used by Double Clustering (Section 6.2) to re-express `p(T|v)` over
    /// tuple *clusters* instead of individual tuples.
    pub fn map_indices(&self, mut f: impl FnMut(u32) -> u32) -> Self {
        Self::from_pairs(self.entries.iter().map(|&(i, w)| (f(i), w)).collect())
    }
}

impl fmt::Debug for SparseDist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_map()
            .entries(self.entries.iter().map(|&(i, w)| (i, w)))
            .finish()
    }
}

impl FromIterator<(u32, f64)> for SparseDist {
    fn from_iter<I: IntoIterator<Item = (u32, f64)>>(iter: I) -> Self {
        Self::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_pairs_sorts_and_merges() {
        let d = SparseDist::from_pairs(vec![(3, 0.5), (1, 0.25), (3, 0.25)]);
        assert_eq!(d.entries(), &[(1, 0.25), (3, 0.75)]);
    }

    #[test]
    fn from_pairs_drops_zeros() {
        let d = SparseDist::from_pairs(vec![(2, 0.0), (1, 1.0)]);
        assert_eq!(d.support(), 1);
        assert_eq!(d.get(2), 0.0);
    }

    #[test]
    fn uniform_is_normalized() {
        let d = SparseDist::uniform([0, 5, 9]);
        assert!(d.is_normalized(1e-12));
        assert!((d.get(5) - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn get_missing_is_zero() {
        let d = SparseDist::singleton(7);
        assert_eq!(d.get(6), 0.0);
        assert_eq!(d.get(7), 1.0);
    }

    #[test]
    fn weighted_sum_interleaves() {
        let a = SparseDist::from_pairs(vec![(0, 0.5), (2, 0.5)]);
        let b = SparseDist::from_pairs(vec![(1, 0.5), (2, 0.5)]);
        let m = SparseDist::weighted_sum(&a, 0.5, &b, 0.5);
        assert_eq!(m.entries(), &[(0, 0.25), (1, 0.25), (2, 0.5)]);
    }

    #[test]
    fn weighted_sum_with_empty() {
        let a = SparseDist::from_pairs(vec![(0, 1.0)]);
        let e = SparseDist::new();
        assert_eq!(SparseDist::weighted_sum(&a, 2.0, &e, 1.0).get(0), 2.0);
        assert_eq!(SparseDist::weighted_sum(&e, 1.0, &a, 2.0).get(0), 2.0);
    }

    #[test]
    fn normalize_zero_vector_is_noop() {
        let mut d = SparseDist::new();
        d.normalize();
        assert!(d.is_empty());
    }

    #[test]
    fn map_indices_reaggregates() {
        let d = SparseDist::from_pairs(vec![(0, 0.25), (1, 0.25), (2, 0.5)]);
        let m = d.map_indices(|i| i / 2);
        assert_eq!(m.entries(), &[(0, 0.5), (1, 0.5)]);
    }

    #[test]
    fn add_assign_accumulates_counts() {
        let mut o = SparseDist::from_pairs(vec![(0, 2.0)]);
        o.add_assign(&SparseDist::from_pairs(vec![(0, 1.0), (3, 4.0)]));
        assert_eq!(o.entries(), &[(0, 3.0), (3, 4.0)]);
    }

    #[test]
    fn merge_from_mixes_in_place() {
        let mut a = SparseDist::from_pairs(vec![(0, 0.5), (2, 0.5)]);
        let b = SparseDist::from_pairs(vec![(1, 0.25), (2, 0.75)]);
        let reference = SparseDist::weighted_sum(&a, 0.4, &b, 0.6);
        a.merge_from(0.4, &b, 0.6);
        assert_eq!(a.entries(), reference.entries());
        assert_eq!(a.total().to_bits(), reference.total().to_bits());
        // A zero weight drops that side's support-only entries.
        a.merge_from(1.0, &b, 0.0);
        assert!(a.is_normalized(1e-9));
        assert_eq!(a.entries(), reference.entries());
        let only_b = SparseDist::weighted_sum(&a, 0.0, &b, 1.0);
        a.merge_from(0.0, &b, 1.0);
        assert_eq!(a.entries(), b.entries());
        assert_eq!(a.total().to_bits(), only_b.total().to_bits());
    }

    #[test]
    fn add_assign_interleaved_matches_reference() {
        type Pairs = [(u32, f64)];
        let cases: &[(&Pairs, &Pairs)] = &[
            (&[(0, 2.0), (5, 1.0)], &[(0, 1.0), (3, 4.0), (9, 2.0)]),
            (&[(3, 1.0)], &[(0, 1.0), (1, 1.0)]), // other strictly before
            (&[(0, 1.0)], &[(5, 1.0)]),           // other strictly after
            (&[], &[(1, 2.0)]),                   // self empty
            (&[(1, 2.0)], &[]),                   // other empty
            (&[(1, 2.0), (2, -2.0)], &[(2, 2.0), (3, 1.0)]), // cancellation → dropped zero
        ];
        for (sa, sb) in cases {
            let mut x = SparseDist::from_sorted(sa.to_vec());
            let b = SparseDist::from_sorted(sb.to_vec());
            let reference = SparseDist::weighted_sum(&x, 1.0, &b, 1.0);
            x.add_assign(&b);
            assert_eq!(x.entries(), reference.entries());
            assert_eq!(x.total().to_bits(), reference.total().to_bits());
        }
    }
}
