//! Property-based tests for the IB core: the parallel code paths must be
//! bit-identical to the serial ones for every thread count, and the
//! nearest-neighbor-cache AIB must reproduce the reference algorithm.

use dbmine_ib::{aib, aib_reference, aib_with, assign_all_with, Dcf};
use dbmine_infotheory::SparseDist;
use proptest::prelude::*;

/// Strategy: a list of `2..=24` singleton DCFs with sparse conditionals
/// over a 16-index universe and uniform weights.
fn arb_dcfs() -> impl Strategy<Value = Vec<Dcf>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..16, 0.01f64..1.0), 1..5),
        2..24,
    )
    .prop_map(|rows| {
        let n = rows.len();
        rows.into_iter()
            .map(|pairs| {
                let mut d = SparseDist::from_pairs(pairs);
                d.normalize();
                Dcf::singleton(1.0 / n as f64, d)
            })
            .collect()
    })
}

fn assert_same_result(a: &dbmine_ib::AibResult, b: &dbmine_ib::AibResult) {
    assert_eq!(a.dendrogram.merges().len(), b.dendrogram.merges().len());
    for (ma, mb) in a.dendrogram.merges().iter().zip(b.dendrogram.merges()) {
        assert_eq!((ma.left, ma.right), (mb.left, mb.right));
        assert_eq!(ma.loss.to_bits(), mb.loss.to_bits());
    }
    assert_eq!(a.members, b.members);
    assert_eq!(a.clusters.len(), b.clusters.len());
    for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
        assert_eq!(ca.weight.to_bits(), cb.weight.to_bits());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `aib_with` must produce bit-identical dendrograms for every thread
    /// count (0 = all cores), and match the reference implementation.
    #[test]
    fn aib_parallel_and_reference_agree(
        inputs in arb_dcfs(), k_seed in 1usize..6, threads in 0usize..6
    ) {
        let k = 1 + k_seed % inputs.len();
        let serial = aib(inputs.clone(), k);
        let parallel = aib_with(inputs.clone(), k, threads);
        assert_same_result(&serial, &parallel);
        let reference = aib_reference(inputs, k);
        assert_same_result(&serial, &reference);
    }

    /// Phase 3 assignment is embarrassingly parallel; every thread count
    /// must return the exact same `(index, loss)` pairs.
    #[test]
    fn assign_all_parallel_is_bit_identical(
        objects in arb_dcfs(), reps in arb_dcfs(), threads in 0usize..6
    ) {
        let serial = assign_all_with(objects.iter(), &reps, 1);
        let parallel = assign_all_with(objects.iter(), &reps, threads);
        prop_assert_eq!(serial.len(), parallel.len());
        for (&(ia, la), &(ib, lb)) in serial.iter().zip(&parallel) {
            prop_assert_eq!(ia, ib);
            prop_assert_eq!(la.to_bits(), lb.to_bits());
        }
    }
}
