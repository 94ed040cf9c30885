//! Projection statistics: distinct counts and bag-semantics entropies.
//!
//! These are the primitives behind the paper's duplication measures
//! (Section 8): *Relative Attribute Duplication* needs the entropy of the
//! tuples projected on an attribute set (bag semantics), and *Relative
//! Tuple Reduction* needs the distinct count of the projection (set
//! semantics). Both live in `dbmine-fdrank`; this module supplies the raw
//! counts so they stay cheap to compute for many attribute sets.
//!
//! Both statistics are chunk folds ([`projection_stats_chunks`],
//! [`column_profiles_chunks`]); the `&Relation` entry points run them
//! over the relation as one borrowed chunk. All folds run in
//! **first-occurrence order** of the projected tuples
//! ([`ProjectionCounter`]), never in hash-map iteration order: the
//! entropy sum is a float fold, so a deterministic order is what makes
//! the numbers reproducible run-to-run *and* independent of where chunk
//! boundaries fall.

use crate::attrset::AttrSet;
use crate::dict::NULL_VALUE;
use crate::relation::Relation;
use crate::shard::RelationChunk;
use dbmine_infotheory::entropy;
use std::collections::HashMap;

/// A streaming group-by over projected tuples that keeps occurrence
/// counts in **first-occurrence order**. Feeding it the same key
/// sequence always yields the same `counts()` slice, so every float
/// fold over the counts is deterministic — the shared substrate of the
/// in-memory and chunk-fold projection statistics.
#[derive(Debug, Default)]
pub struct ProjectionCounter {
    slots: HashMap<Vec<u32>, u32>,
    counts: Vec<usize>,
}

impl ProjectionCounter {
    /// An empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Folds one projected tuple (its value ids in ascending attribute
    /// order).
    pub fn observe(&mut self, key: Vec<u32>) {
        match self.slots.get(&key) {
            Some(&s) => self.counts[s as usize] += 1,
            None => {
                self.slots.insert(key, self.counts.len() as u32);
                self.counts.push(1);
            }
        }
    }

    /// Number of distinct projected tuples seen so far.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Occurrence counts, in first-occurrence order.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Shannon entropy (bits) of the observed distribution over `n`
    /// total observations (bag semantics, `p = count/n`); zero for an
    /// empty fold.
    pub fn entropy(&self, n: usize) -> f64 {
        if n == 0 {
            return 0.0;
        }
        let n = n as f64;
        entropy(self.counts.iter().map(|&c| c as f64 / n))
    }
}

/// Distinct count and bag-semantics entropy of one projection — what
/// RTR and RAD read — from a single counting pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProjectionStats {
    /// Distinct tuples in the projection (set semantics), the `n'` of
    /// the RTR measure.
    pub distinct: usize,
    /// Shannon entropy (bits) of the projected-tuple distribution (bag
    /// semantics, `p(row) = count(row)/n`): `H(π_attrs(T))`.
    pub entropy: f64,
}

/// [`ProjectionStats`] of the projection on `attrs`, folded over chunks
/// in global tuple order through one [`ProjectionCounter`].
pub fn projection_stats_chunks<'a>(
    attrs: AttrSet,
    chunks: impl IntoIterator<Item = RelationChunk<'a>>,
) -> ProjectionStats {
    let mut counter = ProjectionCounter::new();
    let mut n = 0usize;
    for chunk in chunks {
        n += chunk.n_rows();
        for t in 0..chunk.n_rows() {
            counter.observe(attrs.iter().map(|a| chunk.value(t, a)).collect());
        }
    }
    ProjectionStats {
        distinct: counter.distinct(),
        entropy: counter.entropy(n),
    }
}

/// [`projection_stats_chunks`] over `rel`.
pub fn projection_stats(rel: &Relation, attrs: AttrSet) -> ProjectionStats {
    projection_stats_chunks(attrs, [rel.as_chunk()])
}

/// Per-column summary used by reports: name, distinct count, NULL
/// fraction, entropy.
#[derive(Clone, Debug, PartialEq)]
pub struct ColumnProfile {
    pub name: String,
    pub distinct: usize,
    pub null_fraction: f64,
    pub entropy: f64,
}

/// Profiles every column named in `attr_names`, folded over chunks in
/// global tuple order. Each column counts its values in a slot table
/// indexed by value id, in first-occurrence order, so `distinct` and
/// `entropy` equal the single-attribute [`projection_stats_chunks`]
/// bit for bit without hashing a key per cell.
pub fn column_profiles_chunks<'a>(
    attr_names: &[String],
    chunks: impl IntoIterator<Item = RelationChunk<'a>>,
) -> Vec<ColumnProfile> {
    let m = attr_names.len();
    // Slot table per column: value id → first-occurrence slot.
    let mut slot: Vec<Vec<u32>> = vec![Vec::new(); m];
    let mut counts: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut nulls = vec![0usize; m];
    let mut n = 0usize;
    for chunk in chunks {
        n += chunk.n_rows();
        for (a, col) in chunk.columns.iter().enumerate() {
            let slot = &mut slot[a];
            let counts = &mut counts[a];
            for &v in col.iter() {
                if v == NULL_VALUE {
                    nulls[a] += 1;
                }
                let v = v as usize;
                if v >= slot.len() {
                    slot.resize(v + 1, u32::MAX);
                }
                let s = &mut slot[v];
                if *s == u32::MAX {
                    *s = counts.len() as u32;
                    counts.push(1);
                } else {
                    counts[*s as usize] += 1;
                }
            }
        }
    }
    let nf = n as f64;
    (0..m)
        .map(|a| ColumnProfile {
            name: attr_names[a].clone(),
            distinct: counts[a].len(),
            null_fraction: if n == 0 { 0.0 } else { nulls[a] as f64 / nf },
            entropy: if n == 0 {
                0.0
            } else {
                entropy(counts[a].iter().map(|&c| c as f64 / nf))
            },
        })
        .collect()
}

/// [`column_profiles_chunks`] over `rel`.
pub fn profile_columns(rel: &Relation) -> Vec<ColumnProfile> {
    column_profiles_chunks(rel.attr_names(), [rel.as_chunk()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{figure1, figure4};
    use dbmine_infotheory::EPS;

    fn distinct(r: &Relation, attrs: AttrSet) -> usize {
        projection_stats(r, attrs).distinct
    }

    fn entropy(r: &Relation, attrs: AttrSet) -> f64 {
        projection_stats(r, attrs).entropy
    }

    #[test]
    fn distinct_counts_figure4() {
        let r = figure4();
        assert_eq!(distinct(&r, AttrSet::single(0)), 4); // a,w,y,z
        assert_eq!(distinct(&r, AttrSet::single(1)), 2); // 1,2
        assert_eq!(distinct(&r, AttrSet::single(2)), 3); // p,r,x
        assert_eq!(distinct(&r, r.all_attrs()), 5);
        // Projection on {B,C}: (1,p),(1,r),(2,x),(2,x),(2,x) → 3 distinct.
        assert_eq!(distinct(&r, [1, 2].into_iter().collect()), 3);
    }

    #[test]
    fn entropy_of_constant_column_is_zero() {
        let r = figure1();
        let city = AttrSet::single(r.attr_id("City").unwrap());
        assert!(entropy(&r, city).abs() < EPS);
        assert_eq!(distinct(&r, city), 1);
    }

    #[test]
    fn entropy_of_b_column_figure4() {
        // B = [1,1,2,2,2]: H = -(0.4 log 0.4 + 0.6 log 0.6) ≈ 0.971 bits.
        let r = figure4();
        let h = entropy(&r, AttrSet::single(1));
        assert!((h - 0.970_95).abs() < 1e-4, "got {h}");
    }

    #[test]
    fn projection_entropy_monotone_in_attrs() {
        // Adding attributes can only refine the partition → entropy grows.
        let r = figure4();
        let h1 = entropy(&r, AttrSet::single(1));
        let h12 = entropy(&r, [1, 2].into_iter().collect());
        let hall = entropy(&r, r.all_attrs());
        assert!(h1 <= h12 + EPS);
        assert!(h12 <= hall + EPS);
    }

    #[test]
    fn profile_reports_all_columns() {
        let r = figure1();
        let p = profile_columns(&r);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].name, "Ename");
        assert_eq!(p[0].distinct, 2);
        assert_eq!(p[1].distinct, 1);
        assert_eq!(p[2].null_fraction, 0.0);
    }

    #[test]
    fn profiles_equal_single_attribute_projections() {
        let mut b = crate::relation::RelationBuilder::new("t", &["X", "Y"]);
        b.push_row(&[Some("v"), None]);
        b.push_row(&[None, None]);
        b.push_row(&[Some("v"), Some("w")]);
        let r = b.build();
        for (a, p) in profile_columns(&r).iter().enumerate() {
            let s = projection_stats(&r, AttrSet::single(a));
            assert_eq!(p.distinct, s.distinct);
            assert_eq!(p.entropy.to_bits(), s.entropy.to_bits());
        }
        let p = profile_columns(&r);
        assert_eq!(
            (p[0].null_fraction, p[1].null_fraction),
            (1.0 / 3.0, 2.0 / 3.0)
        );
    }

    #[test]
    fn empty_relation_entropy_zero() {
        let r = crate::relation::RelationBuilder::new("e", &["X"]).build();
        assert_eq!(entropy(&r, AttrSet::single(0)), 0.0);
        assert_eq!(distinct(&r, AttrSet::single(0)), 0);
    }

    #[test]
    fn counter_order_is_first_occurrence() {
        let mut c = ProjectionCounter::new();
        for key in [vec![7u32], vec![3], vec![7], vec![7], vec![3], vec![9]] {
            c.observe(key);
        }
        assert_eq!(c.counts(), &[3, 2, 1]);
        assert_eq!(c.distinct(), 3);
    }

    #[test]
    fn counter_entropy_matches_projection_entropy() {
        // Same fold, same order, same bits.
        let r = figure4();
        let attrs: AttrSet = [0usize, 1].into_iter().collect();
        let mut c = ProjectionCounter::new();
        for t in 0..r.n_tuples() {
            c.observe(r.tuple_projected(t, attrs));
        }
        assert_eq!(
            c.entropy(r.n_tuples()).to_bits(),
            entropy(&r, attrs).to_bits()
        );
    }
}
