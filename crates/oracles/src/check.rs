//! Direct validity and approximation-error checks for single
//! dependencies: the oracles the FD miners' outputs are checked against.

use dbmine_relation::partition::StrippedPartition;
use dbmine_relation::{AttrId, AttrSet, Relation};

/// True if `lhs → rhs` holds exactly on the instance.
///
/// ```
/// use dbmine_relation::AttrSet;
/// let rel = dbmine_relation::paper::figure1();
/// // Zip → City holds; Ename → Zip does not (Pat has two zips).
/// assert!(dbmine_oracles::fd_holds(&rel, AttrSet::single(2), 1));
/// assert!(!dbmine_oracles::fd_holds(&rel, AttrSet::single(0), 2));
/// ```
pub fn fd_holds(rel: &Relation, lhs: AttrSet, rhs: AttrId) -> bool {
    if lhs.contains(rhs) {
        return true; // trivial
    }
    let px = StrippedPartition::of_attrs(rel, lhs);
    let pxa = px.product(&StrippedPartition::of_attr(rel, rhs));
    px.error() == pxa.error()
}

/// The `g3` approximation error of `lhs → rhs`: the minimum fraction of
/// tuples to remove for the dependency to hold (0 = exact).
pub fn fd_error_g3(rel: &Relation, lhs: AttrSet, rhs: AttrId) -> f64 {
    if lhs.contains(rhs) {
        return 0.0;
    }
    let px = StrippedPartition::of_attrs(rel, lhs);
    let pxa = px.product(&StrippedPartition::of_attr(rel, rhs));
    px.g3_error(&pxa)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::{figure1, figure4, figure5};

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn figure1_dependencies() {
        // The intro's example: Ename → City and Zip → City both hold on
        // the instance (all cities are Boston).
        let rel = figure1();
        assert!(fd_holds(&rel, set(&[0]), 1));
        assert!(fd_holds(&rel, set(&[2]), 1));
        // Ename does not determine Zip (Pat has two zips).
        assert!(!fd_holds(&rel, set(&[0]), 2));
    }

    #[test]
    fn figure4_c_to_b_and_figure5_regression() {
        assert!(fd_holds(&figure4(), set(&[2]), 1));
        assert!(!fd_holds(&figure5(), set(&[2]), 1));
    }

    #[test]
    fn trivial_fd_always_holds() {
        let rel = figure4();
        assert!(fd_holds(&rel, set(&[1, 2]), 1));
        assert_eq!(fd_error_g3(&rel, set(&[1]), 1), 0.0);
    }

    #[test]
    fn g3_error_of_figure5_c_to_b() {
        // One of five tuples must go for C → B to hold.
        let e = fd_error_g3(&figure5(), set(&[2]), 1);
        assert!((e - 0.2).abs() < 1e-12, "got {e}");
    }

    #[test]
    fn empty_lhs_means_constant() {
        let rel = figure1();
        assert!(fd_holds(&rel, AttrSet::EMPTY, 1)); // City constant
        assert!(!fd_holds(&rel, AttrSet::EMPTY, 0));
        let e = fd_error_g3(&rel, AttrSet::EMPTY, 0);
        assert!((e - 1.0 / 3.0).abs() < 1e-12); // keep the 2 Pats, drop Sal
    }

    #[test]
    fn multi_attribute_lhs() {
        let rel = figure4();
        // {A,C} is a key → determines B.
        assert!(fd_holds(&rel, set(&[0, 2]), 1));
        assert!(StrippedPartition::of_attrs(&rel, set(&[0, 2])).is_key());
    }
}
