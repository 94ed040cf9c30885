//! Projection statistics: distinct counts and bag-semantics entropies.
//!
//! These are the primitives behind the paper's duplication measures
//! (Section 8): *Relative Attribute Duplication* needs the entropy of the
//! tuples projected on an attribute set (bag semantics), and *Relative
//! Tuple Reduction* needs the distinct count of the projection (set
//! semantics). Both live in `dbmine-fdrank`; this module supplies the raw
//! counts so they stay cheap to compute for many attribute sets.
//!
//! A projection on `X` groups tuples exactly as the stripped partition
//! `π_X` does, so [`ProjectionStats::of_partition`] reads both
//! statistics off `π_X`: no row key is built or hashed. Column profiles
//! are one chunk fold ([`column_profiles_chunks`]). Every entropy sums
//! its class sizes in **first-occurrence order** of the projected
//! tuples, never in hash-map iteration order: the sum is a float fold,
//! so a deterministic order is what makes the numbers reproducible
//! run-to-run *and* independent of where chunk boundaries fall, and
//! equal between a profile and the single-attribute projection.

use crate::dict::NULL_VALUE;
use crate::partition::StrippedPartition;
use crate::shard::RelationChunk;
use dbmine_infotheory::entropy;

/// Distinct count and bag-semantics entropy of one projection — what
/// RTR and RAD read.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProjectionStats {
    /// Distinct tuples in the projection (set semantics), the `n'` of
    /// the RTR measure.
    pub distinct: usize,
    /// Shannon entropy (bits) of the projected-tuple distribution (bag
    /// semantics, `p(row) = count(row)/n`): `H(π_attrs(T))`.
    pub entropy: f64,
}

impl ProjectionStats {
    /// The statistics of the projection on `X`, read off `π_X`: its
    /// class count, and the entropy of its class sizes folded in
    /// first-occurrence order (zero for `n = 0`).
    pub fn of_partition(p: &StrippedPartition) -> Self {
        let (n, sizes) = (p.n() as f64, p.first_occurrence_sizes());
        let h = entropy(sizes.into_iter().filter(|&c| c > 0).map(|c| c as f64 / n));
        let entropy = if p.n() == 0 { 0.0 } else { h };
        let distinct = p.class_count();
        ProjectionStats { distinct, entropy }
    }
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
/// `entropy` equal the single-attribute
/// [`ProjectionStats::of_partition`] bit for bit.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attrset::AttrSet;
    use crate::paper::{figure1, figure4};
    use crate::relation::Relation;
    use dbmine_infotheory::EPS;

    fn profile_columns(r: &Relation) -> Vec<ColumnProfile> {
        column_profiles_chunks(r.attr_names(), [r.as_chunk()])
    }

    fn stats(r: &Relation, attrs: AttrSet) -> ProjectionStats {
        ProjectionStats::of_partition(&StrippedPartition::of_attrs(r, attrs))
    }

    fn distinct(r: &Relation, attrs: AttrSet) -> usize {
        stats(r, attrs).distinct
    }

    fn entropy(r: &Relation, attrs: AttrSet) -> f64 {
        stats(r, attrs).entropy
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
            let s = stats(&r, AttrSet::single(a));
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
        // Keys 7,3,7,7,3,9: the walk meets 7 (three tuples), then 3
        // (two), then 9 (one), whatever the partition's class order.
        let p = StrippedPartition::from_classes([vec![1u32, 4], vec![0, 2, 3]], 6);
        assert_eq!(p.first_occurrence_sizes(), [3, 2, 0, 0, 0, 1]);
        assert_eq!(p.class_count(), 3);
    }

    #[test]
    fn counter_entropy_matches_projection_entropy() {
        // The per-tuple-key fold the partition walk replaced: same
        // counts, same order, same bits.
        let r = figure4();
        for bits in 0u64..1 << r.n_attrs() {
            let attrs = AttrSet::from_bits(bits);
            let mut slots = std::collections::HashMap::new();
            let mut counts: Vec<usize> = Vec::new();
            for t in 0..r.n_tuples() {
                let slot = *slots.entry(r.tuple_projected(t, attrs)).or_insert_with(|| {
                    counts.push(0);
                    counts.len() - 1
                });
                counts[slot] += 1;
            }
            let n = r.n_tuples() as f64;
            let oracle = dbmine_infotheory::entropy(counts.iter().map(|&c| c as f64 / n));
            let s = stats(&r, attrs);
            assert_eq!(s.distinct, counts.len(), "{attrs:?}");
            assert_eq!(s.entropy.to_bits(), oracle.to_bits(), "{attrs:?}");
        }
    }
}
