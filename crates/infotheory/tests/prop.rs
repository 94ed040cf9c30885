//! Property-based tests for the information-theory kernel.

use dbmine_infotheory::{
    entropy_of, js_divergence, js_divergence_merged, kl_divergence, merge_information_loss,
    mutual_information, uniform_entropy, SparseDist,
};
use proptest::prelude::*;

/// The quadratic fold `mutual_information` replaced: merge every row
/// into a running sparse marginal, O(|T|) per row. Pinned as the
/// bit-identity reference for the accumulator.
fn mutual_information_reference<'a>(rows: impl IntoIterator<Item = (f64, &'a SparseDist)>) -> f64 {
    let mut marginal = SparseDist::new();
    let mut h_cond = 0.0;
    for (pv, cond) in rows {
        marginal = SparseDist::weighted_sum(&marginal, 1.0, cond, pv);
        h_cond += pv * entropy_of(cond);
    }
    (entropy_of(&marginal) - h_cond).max(0.0)
}

/// `to_bits` equality of the accumulator and the reference on `rows`.
fn assert_fold_pinned(rows: &[(f64, SparseDist)]) -> Result<(), TestCaseError> {
    let fast = mutual_information(rows.iter().map(|(p, d)| (*p, d)));
    let reference = mutual_information_reference(rows.iter().map(|(p, d)| (*p, d)));
    prop_assert_eq!(
        fast.to_bits(),
        reference.to_bits(),
        "{} vs {}",
        fast,
        reference
    );
    Ok(())
}

/// Strategy: a prior `p(v)` that is sometimes exactly zero or so small
/// that `p(v)·p(t|v)` underflows to zero.
fn arb_prior() -> impl Strategy<Value = f64> {
    (0u8..8, 0.0f64..1.0).prop_map(|(pick, p)| match pick {
        0 => 0.0,
        1 => 1e-310,
        _ => p,
    })
}

/// Strategy: up to 16 conditional rows over 8 keys, so rows share keys;
/// a conditional may be empty. Covers zero rows and a single row.
fn arb_rows() -> impl Strategy<Value = Vec<(f64, SparseDist)>> {
    let cond = proptest::collection::vec((0u32..8, 0.01f64..1.0), 0..6).prop_map(|pairs| {
        let mut d = SparseDist::from_pairs(pairs);
        d.normalize();
        d
    });
    proptest::collection::vec((arb_prior(), cond), 0..16)
}

/// Strategy: rows that all put their mass on one key.
fn arb_one_key_rows() -> impl Strategy<Value = Vec<(f64, SparseDist)>> {
    (
        0u32..1000,
        proptest::collection::vec((arb_prior(), 0.01f64..1.0), 0..16),
    )
        .prop_map(|(key, rows)| {
            rows.into_iter()
                .map(|(pv, w)| (pv, SparseDist::from_pairs(vec![(key, w)])))
                .collect()
        })
}

/// Strategy: a random normalized sparse distribution over indices `0..32`.
fn arb_dist() -> impl Strategy<Value = SparseDist> {
    proptest::collection::vec((0u32..32, 0.01f64..1.0), 1..12).prop_map(|pairs| {
        let mut d = SparseDist::from_pairs(pairs);
        d.normalize();
        d
    })
}

/// Strategy: `(p, q, wa, wb)` for the merge kernel — independent
/// supports; `q`'s support a subset of `p`'s with fresh weights (a
/// summary absorbing an object); or a subset of `p`'s own entries
/// weighted `wb = −wa`, so every shared entry cancels to exactly zero.
fn arb_merge_case() -> impl Strategy<Value = (SparseDist, SparseDist, f64, f64)> {
    (
        0u8..3,
        arb_dist(),
        arb_dist(),
        proptest::collection::vec((0u8..2, 0.01f64..1.0), 12),
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(pick, p, other, mask, wa, wb)| {
            if pick == 0 {
                return (p, other, wa, wb);
            }
            let kept = p.iter().zip(mask).filter(|(_, (keep, _))| *keep == 1);
            if pick == 1 {
                let q = SparseDist::from_pairs(kept.map(|((i, _), (_, w))| (i, w)).collect());
                (p, q, wa, wb)
            } else {
                let q = SparseDist::from_pairs(kept.map(|(e, _)| e).collect());
                (p, q, wa, -wa)
            }
        })
}

/// Strategy: a tiny distribution (≤ 3 support points) over a universe wide
/// enough that it rarely overlaps much with [`arb_wide_dist`].
fn arb_tiny_dist() -> impl Strategy<Value = SparseDist> {
    proptest::collection::vec((0u32..256, 0.01f64..1.0), 1..4).prop_map(|pairs| {
        let mut d = SparseDist::from_pairs(pairs);
        d.normalize();
        d
    })
}

/// Strategy: a distribution with at least 100 support points, guaranteeing
/// `js_divergence` takes the asymmetric (small-side walk) shortcut against
/// any [`arb_tiny_dist`] (3 · 16 < 100).
fn arb_wide_dist() -> impl Strategy<Value = SparseDist> {
    proptest::collection::vec(0.01f64..1.0, 100..160).prop_map(|weights| {
        let pairs = weights
            .into_iter()
            .enumerate()
            .map(|(i, w)| (i as u32, w))
            .collect();
        let mut d = SparseDist::from_pairs(pairs);
        d.normalize();
        d
    })
}

proptest! {
    #[test]
    fn entropy_is_nonnegative_and_bounded(d in arb_dist()) {
        let h = entropy_of(&d);
        prop_assert!(h >= -1e-9);
        prop_assert!(h <= uniform_entropy(d.support()) + 1e-9);
    }

    #[test]
    fn kl_is_nonnegative(p in arb_dist(), q in arb_dist()) {
        prop_assert!(kl_divergence(&p, &q) >= 0.0);
    }

    #[test]
    fn kl_self_is_zero(p in arb_dist()) {
        prop_assert!(kl_divergence(&p, &p).abs() < 1e-9);
    }

    #[test]
    fn js_is_symmetric_bounded_metriclike(
        p in arb_dist(), q in arb_dist(), w in 0.05f64..0.95
    ) {
        let a = js_divergence(&p, w, &q, 1.0 - w);
        let b = js_divergence(&q, 1.0 - w, &p, w);
        prop_assert!((a - b).abs() < 1e-9, "asymmetric: {a} vs {b}");
        // The paper: "The D_JS distance ... is bounded above by one."
        prop_assert!((0.0..=1.0 + 1e-9).contains(&a));
    }

    #[test]
    fn js_zero_iff_equal(p in arb_dist()) {
        prop_assert!(js_divergence(&p, 0.4, &p, 0.6).abs() < 1e-9);
    }

    #[test]
    fn merge_loss_nonnegative_and_symmetric(
        p in arb_dist(), q in arb_dist(),
        wp in 0.01f64..1.0, wq in 0.01f64..1.0
    ) {
        let a = merge_information_loss(wp, &p, wq, &q);
        let b = merge_information_loss(wq, &q, wp, &p);
        prop_assert!(a >= 0.0);
        prop_assert!((a - b).abs() < 1e-9);
        // δI ≤ (p(ci)+p(cj)) · 1 bit, since JS ≤ 1.
        prop_assert!(a <= wp + wq + 1e-9);
    }

    /// Merging two clusters never *increases* the mutual information a
    /// clustering carries: I(C_{l-1};T) ≤ I(C_l;T), and the drop equals δI.
    #[test]
    fn merge_loss_equals_mi_drop(
        p in arb_dist(), q in arb_dist(), r in arb_dist(),
        w in 0.1f64..0.8
    ) {
        // Three-cluster clustering with masses w/2, w/2, 1-w.
        let rows = [(w / 2.0, p.clone()), (w / 2.0, q.clone()), (1.0 - w, r.clone())];
        let i_before = mutual_information(rows.iter().map(|(a, b)| (*a, b)));

        let merged = SparseDist::weighted_sum(&p, 0.5, &q, 0.5);
        let rows2 = [(w, merged), (1.0 - w, r)];
        let i_after = mutual_information(rows2.iter().map(|(a, b)| (*a, b)));

        let delta = merge_information_loss(w / 2.0, &p, w / 2.0, &q);
        prop_assert!(i_after <= i_before + 1e-9);
        prop_assert!(((i_before - i_after) - delta).abs() < 1e-7,
            "ΔI = {} but δI = {delta}", i_before - i_after);
    }

    /// The asymmetric small-side shortcut must agree with the reference
    /// merged two-pointer pass to within summation-order jitter.
    #[test]
    fn js_asymmetric_shortcut_matches_merged_pass(
        small in arb_tiny_dist(), big in arb_wide_dist(), w in 0.05f64..0.95
    ) {
        prop_assert!(small.support() * 16 < big.support(), "shortcut not taken");
        let fast = js_divergence(&small, w, &big, 1.0 - w);
        let reference = js_divergence_merged(&small, w, &big, 1.0 - w);
        prop_assert!(
            (fast - reference).abs() < 1e-12,
            "asymmetric {fast} vs merged {reference}"
        );
        // And with the big side first, exercising the flipped dispatch.
        let flipped = js_divergence(&big, 1.0 - w, &small, w);
        prop_assert!((flipped - reference).abs() < 1e-12);
    }

    #[test]
    fn weighted_sum_preserves_mass(p in arb_dist(), q in arb_dist(), w in 0.0f64..1.0) {
        let m = SparseDist::weighted_sum(&p, w, &q, 1.0 - w);
        prop_assert!((m.total() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn from_pairs_total_invariant(pairs in proptest::collection::vec((0u32..16, 0.0f64..2.0), 0..20)) {
        let expect: f64 = pairs.iter().map(|&(_, w)| w).sum();
        let d = SparseDist::from_pairs(pairs);
        prop_assert!((d.total() - expect).abs() < 1e-9);
    }

    /// `merge_from` must reproduce the pinned `weighted_sum` reference
    /// bit for bit: same entries, same weight bits, same cached total
    /// bits — including weight 0 (which drops a whole side to zero
    /// entries that must be retained-out identically), a `q` whose
    /// support lies inside `p`'s (the absorb pattern), and weights that
    /// cancel shared entries to exactly zero.
    #[test]
    fn in_place_merges_are_bit_identical_to_weighted_sum(case in arb_merge_case()) {
        let (p, q, wa, wb) = case;
        let reference = SparseDist::weighted_sum(&p, wa, &q, wb);

        let mut merged = p.clone();
        merged.merge_from(wa, &q, wb);
        prop_assert_eq!(merged.support(), reference.support());
        for ((ia, va), (ib, vb)) in merged.iter().zip(reference.iter()) {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!(va.to_bits(), vb.to_bits());
        }
        prop_assert_eq!(merged.total().to_bits(), reference.total().to_bits());
    }

    /// The in-place `add_assign` must match the old
    /// `weighted_sum(self, 1.0, other, 1.0)` path bit for bit, across
    /// overlapping, disjoint and empty supports (empty vectors arise from
    /// the 0-length pair lists below).
    #[test]
    fn add_assign_is_bit_identical_to_weighted_sum(
        pa in proptest::collection::vec((0u32..24, 0.01f64..2.0), 0..12),
        pb in proptest::collection::vec((0u32..24, 0.01f64..2.0), 0..12),
    ) {
        let a = SparseDist::from_pairs(pa);
        let b = SparseDist::from_pairs(pb);
        let reference = SparseDist::weighted_sum(&a, 1.0, &b, 1.0);
        let mut sum = a.clone();
        sum.add_assign(&b);
        prop_assert_eq!(sum.support(), reference.support());
        for ((ia, va), (ib, vb)) in sum.iter().zip(reference.iter()) {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!(va.to_bits(), vb.to_bits());
        }
        prop_assert_eq!(sum.total().to_bits(), reference.total().to_bits());
    }

    /// The marginal accumulator behind `mutual_information` reproduces
    /// the quadratic merge-per-row fold bit for bit.
    #[test]
    fn mutual_information_is_bit_identical_to_quadratic_fold(rows in arb_rows()) {
        assert_fold_pinned(&rows)?;
    }

    #[test]
    fn mutual_information_on_one_key_is_bit_identical_to_quadratic_fold(
        rows in arb_one_key_rows()
    ) {
        assert_fold_pinned(&rows)?;
    }
}

#[test]
fn mutual_information_pins_degenerate_row_sets() {
    assert_fold_pinned(&[]).unwrap();
    assert_fold_pinned(&[(1.0, SparseDist::uniform(0..4))]).unwrap();
    assert_fold_pinned(&[(0.5, SparseDist::new()), (0.5, SparseDist::new())]).unwrap();
    assert_fold_pinned(&[
        (0.0, SparseDist::singleton(3)),
        (1.0, SparseDist::singleton(3)),
    ])
    .unwrap();
    assert_fold_pinned(&[
        (0.0, SparseDist::uniform(0..3)),
        (0.0, SparseDist::singleton(5)),
    ])
    .unwrap();
}
