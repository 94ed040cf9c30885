//! The paper's probabilistic views of a relation (Sections 4 and 6).
//!
//! * **Tuple matrix `M`** (Figure 2): row `t` is the conditional
//!   distribution `p(V|t)` — uniform mass `1/m` on each (attribute,
//!   value) cell of the tuple, with `p(t) = 1/n`. One row is
//!   [`qualified_row`]; nothing stores the whole matrix. Its consumers
//!   fold it a chunk at a time: [`tuple_mutual_information_chunks`]
//!   here, and the tuple-DCF builder in `dbmine-limbo`. Feature keys are
//!   attribute-qualified to honor the paper's assumption that attribute
//!   value sets are disjoint.
//! * **Value matrix `N`** (Figures 3/6, left): row `v` is `p(T|v)` —
//!   uniform mass `1/dv` on each of the `dv` tuples containing `v`, with
//!   `p(v) = 1/d`. Exposed by [`ValueIndex`].
//! * **Support matrix `O`** (Figure 6, right): `O[v, A]` is the number of
//!   occurrences of value `v` in attribute `A`. Stored as a sparse row per
//!   value in [`ValueIndex`], and aggregated under cluster merges by the
//!   ADCF machinery in `dbmine-limbo`.

use crate::dict::ValueId;
use crate::relation::Relation;
use crate::shard::RelationChunk;
use dbmine_infotheory::{MutualInformation, SparseDist};

/// The feature-key stride for attribute-qualified value keys: cell
/// `(a, v)` maps to feature `a · stride + v` with `stride = |dict|`.
/// This is the **single definition** every fold of the tuple matrix
/// uses, so they all produce bitwise-identical conditional rows.
///
/// # Panics
/// Panics if the qualified key space does not fit `u32` feature ids.
pub fn qualified_stride(dict_len: usize, m: usize) -> u32 {
    let stride = dict_len as u64;
    assert!(
        stride * m.max(1) as u64 <= u64::from(u32::MAX) + 1,
        "attribute-qualified value keys exceed the u32 feature space"
    );
    stride as u32
}

/// One tuple's conditional row `p(V|t)`: uniform `mass` on the qualified
/// feature key of each cell, in attribute order. `values` yields the
/// tuple's cell value ids for attributes `0..m`.
///
/// The paper assumes the value sets of distinct attributes are disjoint
/// (Section 2 — values can always be made so by prefixing the attribute
/// name). The dictionary interns by string *globally*, so the row
/// qualifies every cell by its attribute: `Volume = "3"` and
/// `Number = "3"` are different features, and — most importantly —
/// `BookTitle = NULL` and `Journal = NULL` are different features.
/// Without the qualification, every NULL in every attribute collapses
/// onto one shared feature, which drags NULL-containing tuples of
/// *different* types together and visibly corrupts tuple clustering
/// (duplicate detection, horizontal partitioning) on sparse relations
/// like DBLP.
pub fn qualified_row(stride: u32, mass: f64, values: impl Iterator<Item = ValueId>) -> SparseDist {
    SparseDist::from_pairs(
        values
            .enumerate()
            .map(|(a, v)| (a as u32 * stride + v, mass))
            .collect(),
    )
}

/// The tuple-view mutual information `I(T;V)` folded over chunks in
/// global tuple order: every [`qualified_row`] goes, with prior `1/n`,
/// into the one [`MutualInformation`] fold. `dict_len`/`m`/`n` are the
/// relation's dictionary length, width and tuple count. Chunk value ids
/// are the global interned ids, so the result does not depend on where
/// the chunk boundaries fall. Peak memory is the marginal accumulator
/// plus one row.
pub fn tuple_mutual_information_chunks<'a>(
    dict_len: usize,
    m: usize,
    n: usize,
    chunks: impl IntoIterator<Item = RelationChunk<'a>>,
) -> f64 {
    let stride = qualified_stride(dict_len, m);
    let (mass, pv) = (1.0 / m as f64, 1.0 / n as f64);
    let mut mi = MutualInformation::new();
    for chunk in chunks {
        for t in 0..chunk.n_rows() {
            mi.add(pv, &qualified_row(stride, mass, chunk.row_values(t)));
        }
    }
    mi.finish()
}

/// The value view of a relation: occurrence lists, `p(T|v)` rows and the
/// support matrix `O`.
#[derive(Clone, Debug)]
pub struct ValueIndex {
    /// Distinct value ids present in the relation, in ascending id order.
    values: Vec<ValueId>,
    /// Per distinct value: sorted distinct tuple ids containing it.
    occurrences: Vec<Vec<u32>>,
    /// Per distinct value: sparse `O` row (attribute id → occurrence count).
    o_rows: Vec<SparseDist>,
}

impl ValueIndex {
    /// Scans the relation once and builds occurrence lists and `O` rows.
    pub fn build(rel: &Relation) -> Self {
        Self::from_chunks(rel.dict().len(), [rel.as_chunk()])
    }

    /// The value view folded over chunks in global tuple order, one
    /// row-major cell walk (`universe` is the dictionary length).
    pub fn from_chunks<'a>(
        universe: usize,
        chunks: impl IntoIterator<Item = RelationChunk<'a>>,
    ) -> Self {
        let mut occurrences: Vec<Vec<u32>> = vec![Vec::new(); universe];
        let mut attr_counts: Vec<Vec<(u32, f64)>> = vec![Vec::new(); universe];
        for chunk in chunks {
            for local in 0..chunk.n_rows() {
                let t = (chunk.start + local) as u32;
                for (a, v) in chunk.row_values(local).enumerate() {
                    let occ = &mut occurrences[v as usize];
                    if occ.last() != Some(&t) {
                        occ.push(t);
                    }
                    attr_counts[v as usize].push((a as u32, 1.0));
                }
            }
        }
        let mut values = Vec::new();
        let mut occ_out = Vec::new();
        let mut o_out = Vec::new();
        for v in 0..universe {
            if occurrences[v].is_empty() {
                continue;
            }
            values.push(v as ValueId);
            occ_out.push(std::mem::take(&mut occurrences[v]));
            o_out.push(SparseDist::from_pairs(std::mem::take(&mut attr_counts[v])));
        }
        ValueIndex {
            values,
            occurrences: occ_out,
            o_rows: o_out,
        }
    }

    /// The number of distinct values `d = |V|`.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if the relation had no cells.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The prior `p(v) = 1/d`.
    pub fn prior(&self) -> f64 {
        1.0 / self.values.len() as f64
    }

    /// The distinct value ids, ascending.
    pub fn values(&self) -> &[ValueId] {
        &self.values
    }

    /// The value id of the `i`-th distinct value.
    pub fn value_id(&self, i: usize) -> ValueId {
        self.values[i]
    }

    /// Position of `v` among the distinct values, if present.
    pub fn position(&self, v: ValueId) -> Option<usize> {
        self.values.binary_search(&v).ok()
    }

    /// Sorted distinct tuples containing the `i`-th distinct value
    /// (`dv` = its length).
    pub fn occurrences(&self, i: usize) -> &[u32] {
        &self.occurrences[i]
    }

    /// The conditional row `p(T|v)` of the `i`-th distinct value: uniform
    /// over its `dv` containing tuples (matrix `N`, Figure 6 left).
    pub fn n_row(&self, i: usize) -> SparseDist {
        SparseDist::uniform(self.occurrences[i].iter().copied())
    }

    /// The sparse `O` row of the `i`-th distinct value: attribute id →
    /// number of occurrences (Figure 6 right).
    pub fn o_row(&self, i: usize) -> &SparseDist {
        &self.o_rows[i]
    }

    /// The mutual information `I(V;T)` of the value view, folded one
    /// `N` row at a time.
    pub fn mutual_information(&self) -> f64 {
        let p = self.prior();
        let mut mi = MutualInformation::new();
        for i in 0..self.len() {
            mi.add(p, &self.n_row(i));
        }
        mi.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{figure1, figure4, figure5};
    use dbmine_infotheory::EPS;

    /// Row `t` of `rel`'s tuple matrix `M`.
    fn tuple_row(rel: &Relation, t: usize) -> SparseDist {
        let m = rel.n_attrs();
        let stride = qualified_stride(rel.dict().len(), m);
        qualified_row(stride, 1.0 / m as f64, (0..m).map(|a| rel.value(t, a)))
    }

    /// Features two rows share.
    fn shared(a: &SparseDist, b: &SparseDist) -> usize {
        a.iter().filter(|&(k, _)| b.get(k) > 0.0).count()
    }

    #[test]
    fn qualified_rows_match_figure2() {
        // Figure 2: each Figure-1 tuple row has mass 1/3 on its 3 values.
        let rel = figure1();
        let r0 = tuple_row(&rel, 0);
        assert_eq!(r0.support(), 3);
        for (_, w) in r0.iter() {
            assert!((w - 1.0 / 3.0).abs() < EPS);
        }
        // t1 and t2 share Pat and Boston but differ in zip.
        assert_eq!(shared(&r0, &tuple_row(&rel, 1)), 2);
    }

    #[test]
    fn qualified_rows_sum_to_one_with_duplicate_values() {
        // The same string in two attributes is two *different* features
        // (the paper's disjoint-value-sets assumption, Section 2); the
        // row still sums to 1.
        let mut b = crate::relation::RelationBuilder::new("t", &["X", "Y"]);
        b.push_row_strs(&["same", "same"]);
        let row = tuple_row(&b.build(), 0);
        assert_eq!(row.support(), 2);
        assert!((row.total() - 1.0).abs() < EPS);
    }

    #[test]
    fn qualified_rows_distinguish_nulls_per_attribute() {
        // A tuple NULL in X and one NULL in Y share *no* feature: NULL is
        // not one global value in the tuple view.
        let mut b = crate::relation::RelationBuilder::new("t", &["X", "Y"]);
        b.push_row(&[None, Some("v")]);
        b.push_row(&[Some("w"), None]);
        let rel = b.build();
        assert_eq!(shared(&tuple_row(&rel, 0), &tuple_row(&rel, 1)), 0);
        // ... while two tuples NULL in the same attribute do share it.
        let mut b2 = crate::relation::RelationBuilder::new("t", &["X", "Y"]);
        b2.push_row(&[None, Some("v")]);
        b2.push_row(&[None, Some("u")]);
        let rel2 = b2.build();
        assert_eq!(shared(&tuple_row(&rel2, 0), &tuple_row(&rel2, 1)), 1);
    }

    #[test]
    fn value_index_matches_figure6() {
        let rel = figure4();
        let idx = ValueIndex::build(&rel);
        assert_eq!(idx.len(), 9);
        // Value "x" appears in tuples t3, t4, t5 (0-based 2,3,4), attr C (=2) 3 times.
        let x = rel.dict().lookup("x").unwrap();
        let i = idx.position(x).unwrap();
        assert_eq!(idx.occurrences(i), &[2, 3, 4]);
        let n_row = idx.n_row(i);
        assert!((n_row.get(2) - 1.0 / 3.0).abs() < EPS);
        assert_eq!(idx.o_row(i).get(2), 3.0);
        assert_eq!(idx.o_row(i).get(0), 0.0);
        // Value "a": tuples t1,t2, attr A twice.
        let a = rel.dict().lookup("a").unwrap();
        let ia = idx.position(a).unwrap();
        assert_eq!(idx.occurrences(ia), &[0, 1]);
        assert_eq!(idx.o_row(ia).get(0), 2.0);
    }

    #[test]
    fn figure5_has_8_values_and_x_in_4_tuples() {
        let rel = figure5();
        let idx = ValueIndex::build(&rel);
        assert_eq!(idx.len(), 8);
        let x = rel.dict().lookup("x").unwrap();
        let i = idx.position(x).unwrap();
        assert_eq!(idx.occurrences(i), &[1, 2, 3, 4]);
        // p(T|x) = 1/4 each (Figure 8 merges this with p(T|2)).
        assert!((idx.n_row(i).get(1) - 0.25).abs() < EPS);
    }

    #[test]
    fn o_row_totals_equal_occurrence_multiplicity() {
        let rel = figure4();
        let idx = ValueIndex::build(&rel);
        // Σ_j O[v, Aj] equals the total number of cells holding v.
        let total: f64 = (0..idx.len()).map(|i| idx.o_row(i).total()).sum();
        assert_eq!(total as usize, rel.n_tuples() * rel.n_attrs());
    }

    #[test]
    fn mutual_information_positive_for_structured_data() {
        let rel = figure4();
        let (d, m, n) = (rel.dict().len(), rel.n_attrs(), rel.n_tuples());
        let t = tuple_mutual_information_chunks(d, m, n, [rel.as_chunk()]);
        let v = ValueIndex::build(&rel).mutual_information();
        assert!(t > 0.0);
        assert!(v > 0.0);
    }

    #[test]
    fn null_value_is_indexed_like_any_other() {
        let mut b = crate::relation::RelationBuilder::new("t", &["X", "Y"]);
        b.push_row(&[Some("v"), None]);
        b.push_row(&[None, None]);
        let rel = b.build();
        let idx = ValueIndex::build(&rel);
        let i = idx.position(crate::dict::NULL_VALUE).unwrap();
        assert_eq!(idx.occurrences(i), &[0, 1]); // distinct tuples
        assert_eq!(idx.o_row(i).total(), 3.0); // three NULL cells
    }
}
