//! The allocating sparse mixture, the oracle of
//! [`SparseDist::merge_from`].

use dbmine_infotheory::SparseDist;

/// The weighted sum `wa * a + wb * b`, computed in one merge pass.
///
/// This is the workhorse of the Information Bottleneck merge,
/// Equation (2) of the paper:
/// `p(T|c*) = p(ci)/p(c*) · p(T|ci) + p(cj)/p(c*) · p(T|cj)`.
///
/// Allocates a fresh vector per call; the clustering hot paths use
/// [`SparseDist::merge_from`] instead, and this function is kept as
/// its pinned bit-identity reference (see the property tests).
/// [`SparseDist::from_sorted`] sums the total left to right, as the
/// original did.
pub fn weighted_sum(a: &SparseDist, wa: f64, b: &SparseDist, wb: f64) -> SparseDist {
    let mut entries = Vec::with_capacity(a.entries().len() + b.entries().len());
    let (mut ia, mut ib) = (0, 0);
    while ia < a.entries().len() && ib < b.entries().len() {
        let (ka, va) = a.entries()[ia];
        let (kb, vb) = b.entries()[ib];
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
    entries.extend(a.entries()[ia..].iter().map(|&(k, v)| (k, wa * v)));
    entries.extend(b.entries()[ib..].iter().map(|&(k, v)| (k, wb * v)));
    entries.retain(|&(_, w)| w != 0.0);
    SparseDist::from_sorted(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_sum_interleaves() {
        let a = SparseDist::from_pairs(vec![(0, 0.5), (2, 0.5)]);
        let b = SparseDist::from_pairs(vec![(1, 0.5), (2, 0.5)]);
        let m = weighted_sum(&a, 0.5, &b, 0.5);
        assert_eq!(m.entries(), &[(0, 0.25), (1, 0.25), (2, 0.5)]);
    }

    #[test]
    fn weighted_sum_with_empty() {
        let a = SparseDist::from_pairs(vec![(0, 1.0)]);
        let e = SparseDist::new();
        assert_eq!(weighted_sum(&a, 2.0, &e, 1.0).get(0), 2.0);
        assert_eq!(weighted_sum(&e, 1.0, &a, 2.0).get(0), 2.0);
    }

    #[test]
    fn merge_from_mixes_in_place() {
        let mut a = SparseDist::from_pairs(vec![(0, 0.5), (2, 0.5)]);
        let b = SparseDist::from_pairs(vec![(1, 0.25), (2, 0.75)]);
        let reference = weighted_sum(&a, 0.4, &b, 0.6);
        a.merge_from(0.4, &b, 0.6);
        assert_eq!(a.entries(), reference.entries());
        assert_eq!(a.total().to_bits(), reference.total().to_bits());
        // A zero weight drops that side's support-only entries.
        a.merge_from(1.0, &b, 0.0);
        assert!(a.is_normalized(1e-9));
        assert_eq!(a.entries(), reference.entries());
        let only_b = weighted_sum(&a, 0.0, &b, 1.0);
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
            let reference = weighted_sum(&x, 1.0, &b, 1.0);
            x.add_assign(&b);
            assert_eq!(x.entries(), reference.entries());
            assert_eq!(x.total().to_bits(), reference.total().to_bits());
        }
    }
}
