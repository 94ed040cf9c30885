//! Property-based tests for the IB core: the parallel code paths must be
//! bit-identical to the serial ones for every thread count, the
//! nearest-neighbor-cache AIB must reproduce the reference algorithm, and
//! the bounded Phase 3 scan must reproduce the plain linear scan.

use dbmine_context::AnalysisCtx;
use dbmine_datagen::{dblp_sample, DblpSpec};
use dbmine_ib::{aib, aib_reference, aib_with, assign_all_with, Dcf};
use dbmine_infotheory::SparseDist;
use dbmine_limbo::{phase1_auto, tuple_dcfs_ctx, value_dcfs_with, LimboParams};
use proptest::collection::vec;
use proptest::prelude::*;

/// The Phase 3 oracle: score every representative, keep the first
/// minimum.
fn linear_scan(object: &Dcf, reps: &[Dcf]) -> (usize, f64) {
    let mut best: Option<(usize, f64)> = None;
    for (i, rep) in reps.iter().enumerate() {
        let d = object.distance(rep);
        match best {
            Some((_, bd)) if bd <= d => {}
            _ => best = Some((i, d)),
        }
    }
    best.expect("the oracle needs at least one representative")
}

/// Asserts `assign_all_with` returns the oracle's `(index, loss bits)`
/// for every object.
fn assert_matches_linear_scan(objects: &[Dcf], reps: &[Dcf], threads: usize) {
    let got = assign_all_with(objects.iter(), reps, threads);
    assert_eq!(got.len(), objects.len());
    for (i, (o, &(idx, loss))) in objects.iter().zip(&got).enumerate() {
        let (want_idx, want_loss) = linear_scan(o, reps);
        assert_eq!(
            (idx, loss.to_bits()),
            (want_idx, want_loss.to_bits()),
            "object {i}: got ({idx}, {loss}), oracle ({want_idx}, {want_loss})"
        );
    }
}

/// A raw DCF draw: `(weight kind, random weight, entries, mass)`.
type RawDcf = (u8, f64, Vec<(u32, f64)>, f64);

/// Raw DCF draws over a `universe`-index token space.
fn arb_raw_dcfs(universe: u32, len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawDcf>> {
    vec(
        (
            0u8..4,
            0.001f64..1.0,
            vec((0..universe, 0.01f64..1.0), 1..6),
            0.5f64..2.0,
        ),
        len,
    )
}

/// A DCF with weight 0, 1/16 or a random weight (by `kind`) and a
/// conditional of total mass `mass` — unnormalized unless `mass` is 1.
fn raw_dcf((kind, w, pairs, mass): RawDcf) -> Dcf {
    let weight = match kind {
        0 => 0.0,
        1 => 1.0 / 16.0,
        _ => w,
    };
    let mut cond = SparseDist::from_pairs(pairs);
    cond.normalize();
    cond.scale(mass);
    Dcf::singleton(weight, cond)
}

/// Strategy: `(objects, reps)` for Phase 3 over a token universe of 8,
/// 64 or 4 096 indices (at 4 096 most pairs share no index). Reps may be
/// single, zero-weight, of mixed weights and duplicated (exact ties);
/// some objects copy a rep's conditional. Up to ~200 objects, so the
/// parallel path runs too.
fn arb_assignment() -> impl Strategy<Value = (Vec<Dcf>, Vec<Dcf>)> {
    (0usize..3)
        .prop_flat_map(|u| {
            let universe = [8u32, 64, 4096][u];
            (
                arb_raw_dcfs(universe, 1..10),
                arb_raw_dcfs(universe, 1..200),
                vec((0usize..64, 0.001f64..1.0), 0..6),
                vec(0usize..64, 0..4),
            )
        })
        .prop_map(|(reps, objects, copies, duplicates)| {
            let mut reps: Vec<Dcf> = reps.into_iter().map(raw_dcf).collect();
            let mut objects: Vec<Dcf> = objects.into_iter().map(raw_dcf).collect();
            for (i, w) in copies {
                objects.push(Dcf::singleton(w, reps[i % reps.len()].cond.clone()));
            }
            for i in duplicates {
                reps.push(reps[i % reps.len()].clone());
            }
            (objects, reps)
        })
}

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

    /// The bounded Phase 3 scan returns the linear scan's exact
    /// `(index, loss bits)` at every thread count.
    #[test]
    fn assign_all_matches_linear_scan(
        case in arb_assignment(), threads in 0usize..6
    ) {
        let (objects, reps) = case;
        assert_matches_linear_scan(&objects, &reps, 1);
        assert_matches_linear_scan(&objects, &reps, threads);
    }
}

/// Both real Phase 3 call shapes on DBLP data: tuple objects against the
/// multi-tuple leaves (duplicate tuples) and value objects against every
/// leaf (value clustering).
#[test]
fn assign_all_matches_linear_scan_on_dblp() {
    for seed in [3, 17] {
        let rel = dblp_sample(&DblpSpec::scaled(600, seed));
        let ctx = AnalysisCtx::of(&rel);

        let tuples = tuple_dcfs_ctx(&ctx, 1);
        let model = phase1_auto(
            &tuples,
            ctx.tuple_mutual_information(),
            LimboParams::with_phi(0.0),
        );
        let multi: Vec<Dcf> = model
            .leaves
            .iter()
            .filter(|d| d.count > 1)
            .cloned()
            .collect();
        assert!(!multi.is_empty(), "seed {seed}: no multi-tuple summary");
        assert_matches_linear_scan(&tuples, &multi, 1);

        let values = value_dcfs_with(ctx.value_index(), 1);
        let model = phase1_auto(
            &values,
            ctx.value_mutual_information(),
            LimboParams::with_phi(0.0),
        );
        assert_matches_linear_scan(&values, &model.leaves, 1);
    }
}
