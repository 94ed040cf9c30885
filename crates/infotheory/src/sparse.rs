//! Sparse probability distributions over a `u32`-indexed domain.
//!
//! A [`SparseDist`] stores only the non-zero probabilities of a distribution,
//! as `(index, weight)` pairs sorted by index. This is the representation the
//! paper prescribes for Distributional Cluster Features: *"The probability
//! vectors are stored as sparse vectors, reducing the amount of space
//! considerably."* (Section 5.2).
//!
//! DCFs are also *"stored and updated incrementally"*: a merge rewrites a
//! summary in its own buffer when the other support lies inside it, or
//! else into a new buffer trimmed to the merged support
//! ([`SparseDist::merge_from`], one linear two-pointer pass), so a
//! vector's capacity only ever tracks its own support. The allocating
//! `dbmine_oracles::weighted_sum` is the pinned bit-identity reference
//! of that kernel.

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

    /// Replaces `self` with `w_self * self + w_other * other`: the
    /// Information Bottleneck merge, Equation (2) of the paper,
    /// `p(T|c*) = p(ci)/p(c*) · p(T|ci) + p(cj)/p(c*) · p(T|cj)`.
    ///
    /// One forward two-pointer pass merges in `self`'s own buffer for as
    /// long as each key of `other` is also one of `self`'s, so when
    /// `other`'s support lies inside `self`'s nothing is allocated. At
    /// the first key `self` lacks, the rest merges into a new buffer
    /// sized for both remainders, which is trimmed to the merged support
    /// and replaces `self`'s, so a vector's capacity follows its own
    /// support. Each entry computes `w_self·a + w_other·b` in that
    /// operand order, zeros are dropped and the total is summed left to
    /// right, so the result is bit-identical to the allocating
    /// `dbmine_oracles::weighted_sum` (property-tested).
    pub fn merge_from(&mut self, w_self: f64, other: &Self, w_other: f64) {
        let b = &other.entries;
        let mut zeros = false;
        let mut mix = |k: u32, w: f64| {
            zeros |= w == 0.0;
            (k, w)
        };
        let (mut i, mut j) = (0, 0);
        while let Some(&(ka, va)) = self.entries.get(i) {
            let w = match b.get(j) {
                Some(&(kb, _)) if kb < ka => break,
                Some(&(kb, vb)) if kb == ka => {
                    j += 1;
                    w_self * va + w_other * vb
                }
                _ => w_self * va,
            };
            self.entries[i] = mix(ka, w);
            i += 1;
        }
        if j < b.len() {
            let (a, b) = (&self.entries[i..], &b[j..]);
            let mut out = Vec::with_capacity(i + a.len() + b.len());
            out.extend_from_slice(&self.entries[..i]);
            let (mut i, mut j) = (0, 0);
            while let (Some(&(ka, va)), Some(&(kb, vb))) = (a.get(i), b.get(j)) {
                out.push(match ka.cmp(&kb) {
                    std::cmp::Ordering::Less => {
                        i += 1;
                        mix(ka, w_self * va)
                    }
                    std::cmp::Ordering::Greater => {
                        j += 1;
                        mix(kb, w_other * vb)
                    }
                    std::cmp::Ordering::Equal => {
                        (i, j) = (i + 1, j + 1);
                        mix(ka, w_self * va + w_other * vb)
                    }
                });
            }
            out.extend(a[i..].iter().map(|&(k, v)| mix(k, w_self * v)));
            out.extend(b[j..].iter().map(|&(k, v)| mix(k, w_other * v)));
            self.entries = out;
        }
        if zeros {
            self.entries.retain(|&(_, w)| w != 0.0);
        }
        self.entries.shrink_to_fit();
        self.total = self.entries.iter().map(|&(_, w)| w).sum();
    }

    /// Adds `other` element-wise into `self` (used for count vectors such as
    /// the ADCF `O(c*) = Σ O(c)` aggregation of Section 6.2).
    ///
    /// [`SparseDist::merge_from`] with both weights 1.0, which is exact:
    /// multiplying by 1.0 changes no bit, so this is `self + other`
    /// summed left to right.
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
    fn merge_from_capacity_follows_support() {
        // Inside `self`'s support: merged in place, nothing grows.
        let mut a = SparseDist::from_pairs(vec![(0, 0.5), (2, 0.25), (4, 0.25)]);
        a.merge_from(0.5, &SparseDist::from_pairs(vec![(2, 1.0)]), 0.5);
        assert_eq!(a.entries(), &[(0, 0.25), (2, 0.625), (4, 0.125)]);
        assert_eq!(a.entries.capacity(), 3);
        // A key `self` lacks, before, between and after its keys: a new
        // buffer trimmed to the union, whose overlap it does not count.
        for key in [1, 3, 5] {
            let mut a = SparseDist::from_pairs(vec![(0, 1.0), (2, 1.0), (4, 1.0)]);
            let b = SparseDist::from_pairs(vec![(2, 1.0), (key, 1.0), (4, 1.0)]);
            a.add_assign(&b);
            assert_eq!(a.support(), 4, "key {key}");
            assert_eq!(a.entries.capacity(), 4, "key {key}");
            assert_eq!(a.total(), 6.0);
        }
        // Cancelled entries are dropped and the buffer trimmed.
        let mut a = SparseDist::from_sorted(vec![(0, 1.0), (1, -1.0)]);
        a.add_assign(&SparseDist::from_sorted(vec![(1, 1.0), (3, 1.0)]));
        assert_eq!(a.entries(), &[(0, 1.0), (3, 1.0)]);
        assert_eq!(a.entries.capacity(), 2);
    }

    #[test]
    fn add_assign_accumulates_counts() {
        let mut o = SparseDist::from_pairs(vec![(0, 2.0)]);
        o.add_assign(&SparseDist::from_pairs(vec![(0, 1.0), (3, 4.0)]));
        assert_eq!(o.entries(), &[(0, 3.0), (3, 4.0)]);
    }
}
