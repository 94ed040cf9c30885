//! The duplication measures of Section 8: RAD and RTR.

use dbmine_context::AnalysisCtx;
use dbmine_relation::AttrSet;

/// Relative Attribute Duplication.
///
/// The paper defines `RAD(C_A) = 1 − H(t_{C_A} | C_A) / log n` where the
/// numerator is *"the weighted entropy of the tuples in a particular set
/// of attributes, where the weights are taken as the probability of this
/// set of attributes"*. We read this as
///
/// `RAD(C_A) = 1 − p(C_A) · H(π_{C_A}(T)) / log2 n`,  `p(C_A) = |C_A|/m`
///
/// with `H(π_{C_A}(T))` the bag-semantics entropy of the projected
/// tuples. A constant attribute set yields `RAD = 1` (the paper's
/// single-attribute example), and wider attribute sets are penalized —
/// the measure is "width-sensitive". Returns 1 for empty/degenerate
/// inputs.
///
/// The projection entropy comes from the context's bounded memo —
/// ranking many dependencies over shared attribute sets projects each set
/// once instead of once per measure.
pub fn rad_ctx(ctx: &AnalysisCtx, attrs: AttrSet) -> f64 {
    let n = ctx.n_tuples();
    if n <= 1 || attrs.is_empty() {
        return 1.0;
    }
    let p_ca = attrs.len() as f64 / ctx.n_attrs() as f64;
    let h = ctx.projection_entropy(attrs);
    1.0 - p_ca * h / (n as f64).log2()
}

/// Relative Tuple Reduction: `RTR(C_A) = 1 − n'/n` where `n'` is the
/// number of distinct tuples of the projection on `C_A` (set semantics).
/// The fraction of tuples that disappear if the relation is projected on
/// `C_A` — "size-sensitive" duplication.
///
/// The distinct count comes from the context's bounded memo (one
/// projection per attribute set, shared with [`rad_ctx`]).
pub fn rtr_ctx(ctx: &AnalysisCtx, attrs: AttrSet) -> f64 {
    let n = ctx.n_tuples();
    if n == 0 || attrs.is_empty() {
        return 0.0;
    }
    let n_distinct = ctx.projection_distinct(attrs);
    1.0 - n_distinct as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::{figure1, figure4};
    use dbmine_relation::{Relation, RelationBuilder};

    fn rad_of(rel: &Relation, attrs: AttrSet) -> f64 {
        rad_ctx(&AnalysisCtx::of(rel), attrs)
    }

    fn rtr_of(rel: &Relation, attrs: AttrSet) -> f64 {
        rtr_ctx(&AnalysisCtx::of(rel), attrs)
    }

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn constant_column_has_rad_one() {
        // The paper's example: a single attribute with the same value in
        // all tuples has RAD = 1, regardless of relation size.
        let rel = figure1(); // City constant
        assert!((rad_of(&rel, set(&[1])) - 1.0).abs() < 1e-12);

        let mut b = RelationBuilder::new("two", &["X"]);
        b.push_row_strs(&["v"]);
        b.push_row_strs(&["v"]);
        let two = b.build();
        assert!((rad_of(&two, set(&[0])) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rtr_distinguishes_sizes_where_rad_cannot() {
        // "the above definition will suggest that both relations have RAD
        //  equal to one, missing the fact that the first relation contains
        //  more duplication ... To overcome this we introduce [RTR]."
        let mut b3 = RelationBuilder::new("three", &["X"]);
        for _ in 0..3 {
            b3.push_row_strs(&["v"]);
        }
        let three = b3.build();
        let mut b2 = RelationBuilder::new("two", &["X"]);
        for _ in 0..2 {
            b2.push_row_strs(&["v"]);
        }
        let two = b2.build();
        assert!(rtr_of(&three, set(&[0])) > rtr_of(&two, set(&[0])));
        assert!((rtr_of(&three, set(&[0])) - 2.0 / 3.0).abs() < 1e-12);
        assert!((rtr_of(&two, set(&[0])) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn rtr_zero_for_key() {
        let rel = figure4();
        // {A,C} is a key: no reduction.
        assert_eq!(rtr_of(&rel, set(&[0, 2])), 0.0);
        // {B}: 2 distinct of 5 → 0.6.
        assert!((rtr_of(&rel, set(&[1])) - 0.6).abs() < 1e-12);
        // {B,C}: 3 distinct of 5 → 0.4.
        assert!((rtr_of(&rel, set(&[1, 2])) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn rad_orders_redundant_before_key_attrs() {
        let rel = figure4();
        // {B,C} repeats (2,x) three times; {A,B} has distinct A values.
        assert!(rad_of(&rel, set(&[1, 2])) > rad_of(&rel, set(&[0, 1])));
    }

    #[test]
    fn rad_bounds() {
        let rel = figure4();
        for bits in 1..8u64 {
            let s = AttrSet::from_bits(bits);
            let v = rad_of(&rel, s);
            assert!(v <= 1.0 + 1e-12);
            // p(C_A)·H ≤ log n ⇒ RAD ≥ 0 whenever |C_A| ≤ m.
            assert!(v >= -1e-12, "rad_ctx({s:?}) = {v}");
        }
    }

    #[test]
    fn degenerate_inputs() {
        let rel = figure4();
        assert_eq!(rad_of(&rel, AttrSet::EMPTY), 1.0);
        assert_eq!(rtr_of(&rel, AttrSet::EMPTY), 0.0);
        let empty = RelationBuilder::new("e", &["X"]).build();
        assert_eq!(rad_of(&empty, set(&[0])), 1.0);
        assert_eq!(rtr_of(&empty, set(&[0])), 0.0);
    }
}
