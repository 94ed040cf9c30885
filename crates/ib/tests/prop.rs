//! Property-based tests for the IB core: the parallel code paths must be
//! bit-identical to the serial ones for every thread count, the
//! candidate-list AIB must reproduce the reference algorithm, a cut of a
//! full run must reproduce the run to that `k`, and the bounded Phase 3
//! scan must reproduce the plain linear scan, through its postings walk
//! and its frequent-token block alike.

use dbmine_context::AnalysisCtx;
use dbmine_datagen::{dblp_sample, DblpSpec};
use dbmine_ib::{
    aib, aib_cut, aib_reference, aib_with, assign_all_with, AibResult, Dcf, KStat, RepIndex,
};
use dbmine_infotheory::SparseDist;
use dbmine_limbo::{phase1, tuple_dcfs_ctx, value_dcfs_with, LimboParams};
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
/// for every object at each of `threads`.
fn assert_matches_linear_scan(objects: &[Dcf], reps: &[Dcf], threads: &[usize]) {
    let want: Vec<(usize, f64)> = objects.iter().map(|o| linear_scan(o, reps)).collect();
    for &t in threads {
        let got = assign_all_with(objects.iter(), reps, t);
        assert_eq!(got.len(), objects.len());
        for (i, (&(idx, loss), &(want_idx, want_loss))) in got.iter().zip(&want).enumerate() {
            assert_eq!(
                (idx, loss.to_bits()),
                (want_idx, want_loss.to_bits()),
                "object {i} at {t} threads: got ({idx}, {loss}), oracle ({want_idx}, {want_loss})"
            );
        }
    }
}

/// An assignment as comparable bits.
fn bits(assigned: &[(usize, f64)]) -> Vec<(usize, u64)> {
    assigned.iter().map(|&(i, l)| (i, l.to_bits())).collect()
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

/// Tokens `0..FREQUENT_TOKENS` are the frequent ones of
/// [`arb_frequent_assignment`]: token 0 is held by every representative,
/// the others by about half of them.
const FREQUENT_TOKENS: u32 = 5;

/// Rare tokens of [`arb_frequent_assignment`] lie in `RARE`; tokens in
/// `FREQUENT_TOKENS..RARE.start` and from `RARE.end` on are held by no
/// representative.
const RARE: std::ops::Range<u32> = 100..4096;

/// A frequent-token mass: a few fixed values, so that objects repeat
/// signatures, or a random one.
fn arb_frequent_mass() -> impl Strategy<Value = f64> {
    (0usize..4, 0.01f64..1.0).prop_map(|(k, x)| [0.125, 0.25, 1.0 / 3.0, x][k])
}

/// Strategy: `(objects, reps)` for Phase 3 with `q` in 64..160, so that
/// `max(q/8, 16)` marks tokens frequent. Every representative holds
/// token 0, and each of tokens `1..FREQUENT_TOKENS` with mixed masses
/// about half the time, beside a few rare tokens. Representatives may be
/// zero-weight, of mixed weights and duplicated (exact ties). Objects
/// hold only frequent tokens, only rare ones, only unindexed ones (no
/// representative holds them, inside and beyond the index's range), or a
/// mix; some copy a representative's conditional. Objects are
/// unnormalized, and up to ~300 of them run the parallel path too.
fn arb_frequent_assignment() -> impl Strategy<Value = (Vec<Dcf>, Vec<Dcf>)> {
    let frequent = vec((0u8..2, arb_frequent_mass()), FREQUENT_TOKENS as usize);
    let rep = (
        0u8..4,
        0.001f64..1.0,
        frequent,
        vec((RARE, 0.01f64..1.0), 0..4),
    );
    let object = (
        0u8..4,
        (0usize..2, 0.001f64..1.0).prop_map(|(k, w)| [1.0 / 16.0, w][k]),
        vec((0..FREQUENT_TOKENS, arb_frequent_mass()), 1..4),
        vec((RARE, 0.01f64..1.0), 1..4),
        vec(
            (
                0usize..2,
                FREQUENT_TOKENS..RARE.start,
                RARE.end..RARE.end + 64,
            )
                .prop_map(|(k, inside, beyond)| [inside, beyond][k]),
            1..3,
        ),
    );
    (
        vec(rep, 64..160),
        vec(object, 1..300),
        vec(0usize..1 << 20, 0..8),
        vec(0usize..1 << 20, 0..6),
    )
        .prop_map(|(reps, objects, duplicates, copies)| {
            let mut reps: Vec<Dcf> = reps
                .into_iter()
                .map(|(kind, w, frequent, rare)| {
                    let mut pairs: Vec<(u32, f64)> = rare;
                    for (t, (held, mass)) in frequent.into_iter().enumerate() {
                        if t == 0 || held == 1 {
                            pairs.push((t as u32, mass));
                        }
                    }
                    let weight = match kind {
                        0 => 0.0,
                        1 => 1.0 / 16.0,
                        _ => w,
                    };
                    Dcf::singleton(weight, SparseDist::from_pairs(pairs))
                })
                .collect();
            for i in duplicates {
                reps.push(reps[i % reps.len()].clone());
            }
            let mut objects: Vec<Dcf> = objects
                .into_iter()
                .map(|(kind, weight, frequent, rare, unindexed)| {
                    let pairs: Vec<(u32, f64)> = match kind {
                        0 => frequent,
                        1 => rare,
                        2 => unindexed.into_iter().map(|t| (t, 0.5)).collect(),
                        _ => frequent.into_iter().chain(rare).collect(),
                    };
                    Dcf::singleton(weight, SparseDist::from_pairs(pairs))
                })
                .collect();
            for i in copies {
                let rep = &reps[i % reps.len()];
                objects.push(Dcf::singleton(1.0 / 16.0, rep.cond.clone()));
            }
            (objects, reps)
        })
}

/// Strategy: `len` singleton DCFs with sparse conditionals over a
/// 16-index universe. Weights are uniform except that about one in eight
/// inputs has weight 0; up to 32 inputs are exact copies of earlier ones
/// (ties in `δI`, broken by slot index). Past 16 inputs, the length of
/// AIB's per-slot candidate lists, the lists overflow, drain and refill.
fn arb_dcfs_len(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Dcf>> {
    (
        vec((0u8..8, vec((0u32..16, 0.01f64..1.0), 1..5)), len),
        vec(0usize..1 << 20, 0..32),
    )
        .prop_map(|(mut rows, copies)| {
            for i in copies {
                let row = rows[i % rows.len()].clone();
                rows.push(row);
            }
            let n = rows.len();
            rows.into_iter()
                .map(|(kind, pairs)| {
                    let mut d = SparseDist::from_pairs(pairs);
                    d.normalize();
                    let weight = if kind == 0 { 0.0 } else { 1.0 / n as f64 };
                    Dcf::singleton(weight, d)
                })
                .collect()
        })
}

/// [`arb_dcfs_len`] with `2..200` drawn inputs.
fn arb_dcfs() -> impl Strategy<Value = Vec<Dcf>> {
    arb_dcfs_len(2..200)
}

/// Asserts two AIB results are bitwise equal: merges and their losses,
/// members, `I(C_q;T)`, every per-`k` statistic, and each surviving
/// cluster's weight, count and conditional entries.
fn assert_same_result(a: &AibResult, b: &AibResult) {
    assert_eq!(a.dendrogram.n_leaves(), b.dendrogram.n_leaves());
    assert_eq!(a.dendrogram.merges().len(), b.dendrogram.merges().len());
    for (ma, mb) in a.dendrogram.merges().iter().zip(b.dendrogram.merges()) {
        assert_eq!((ma.left, ma.right), (mb.left, mb.right));
        assert_eq!(ma.loss.to_bits(), mb.loss.to_bits());
    }
    assert_eq!(a.members, b.members);
    assert_eq!(
        a.initial_information.to_bits(),
        b.initial_information.to_bits()
    );
    assert_eq!(a.stats.len(), b.stats.len());
    let bits = |s: &KStat| {
        (
            s.k,
            s.cumulative_loss.to_bits(),
            s.mutual_information.to_bits(),
            s.cluster_entropy.to_bits(),
            s.conditional_entropy.to_bits(),
        )
    };
    for (sa, sb) in a.stats.iter().zip(&b.stats) {
        assert_eq!(bits(sa), bits(sb));
    }
    assert_eq!(a.clusters.len(), b.clusters.len());
    let entries =
        |c: &Dcf| -> Vec<(u32, u64)> { c.cond.iter().map(|(i, p)| (i, p.to_bits())).collect() };
    for (ca, cb) in a.clusters.iter().zip(&b.clusters) {
        assert_eq!(ca.weight.to_bits(), cb.weight.to_bits());
        assert_eq!(ca.count, cb.count);
        assert_eq!(entries(ca), entries(cb));
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

    /// Cutting a run's dendrogram at `k` is bitwise the run to `k`: at
    /// `k = 1`, a random `k`, and `k ≥ q` (no merge), from the full run
    /// and from a partial run that stopped at or below `k`.
    #[test]
    fn aib_cut_equals_the_run_to_k(
        inputs in arb_dcfs(), k_seed in 0usize..1000, stop_seed in 0usize..1000
    ) {
        let q = inputs.len();
        let full = aib(inputs.clone(), 1);
        let random_k = 1 + k_seed % q;
        for k in [1, random_k, q, q + 3] {
            assert_same_result(&aib_cut(inputs.clone(), &full, k), &aib(inputs.clone(), k));
        }
        let stop = 1 + stop_seed % random_k;
        let partial = aib(inputs.clone(), stop);
        assert_same_result(
            &aib_cut(inputs.clone(), &partial, random_k),
            &aib(inputs, random_k),
        );
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
        assert_matches_linear_scan(&objects, &reps, &[1, threads]);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// With `q ≥ 64` the index keeps tokens in its dense block: the
    /// signature bounds must give the linear scan's exact
    /// `(index, loss bits)` at 1 and 4 threads, whether an object's
    /// tokens are all frequent, all rare, unindexed or mixed.
    #[test]
    fn assign_with_frequent_tokens_matches_linear_scan(case in arb_frequent_assignment()) {
        let (objects, reps) = case;
        let index = RepIndex::new(&reps);
        let frequent = index.frequent_tokens();
        prop_assert_eq!(frequent.first(), Some(&0), "the token every rep holds is frequent");
        prop_assert!(frequent.iter().all(|&t| t < FREQUENT_TOKENS));
        prop_assert!(objects.iter().any(|o| o.cond.iter().any(|(t, _)| frequent.contains(&t))));
        assert_matches_linear_scan(&objects, &reps, &[1, 4]);
        let mut batches = index.assign(&objects[..objects.len() / 2], 4);
        batches.extend(index.assign(&objects[objects.len() / 2..], 1));
        let whole = assign_all_with(objects.iter(), &reps, 1);
        prop_assert_eq!(bits(&batches), bits(&whole));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// At `q ≥ 256` the list repairs and the initial scan run on worker
    /// threads (`par_map` is serial below 128 items); every thread count
    /// must still give the serial run's exact bits.
    #[test]
    fn aib_parallel_repair_is_bit_identical(
        inputs in arb_dcfs_len(256..400), k_seed in 0usize..64, threads in 2usize..6
    ) {
        let k = 1 + k_seed % 8;
        let serial = aib_with(inputs.clone(), k, 1);
        assert_same_result(&aib_with(inputs.clone(), k, threads), &serial);
        assert_same_result(&aib_with(inputs, k, 0), &serial);
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
        let model = phase1(
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
        assert_matches_linear_scan(&tuples, &multi, &[1]);

        let values = value_dcfs_with(ctx.value_index(), 1);
        let model = phase1(
            &values,
            ctx.value_mutual_information(),
            LimboParams::with_phi(0.0),
        );
        assert_matches_linear_scan(&values, &model.leaves, &[1]);
    }
}

/// `analyze`'s tuple Phase 3 shape on DBLP: every tuple against all the
/// leaves of a φ_T = 0.1 and a φ_T = 0 Phase 1. NULL markers of the
/// sparse columns are held by most leaves, so the index keeps frequent
/// tokens in its block and tuples carry them.
#[test]
fn assign_matches_linear_scan_at_the_analyze_shape() {
    let rel = dblp_sample(&DblpSpec::scaled(600, 5));
    let ctx = AnalysisCtx::of(&rel);
    let tuples = tuple_dcfs_ctx(&ctx, 1);
    for phi in [0.1, 0.0] {
        let model = phase1(
            &tuples,
            ctx.tuple_mutual_information(),
            LimboParams::with_phi(phi),
        );
        let frequent = RepIndex::new(&model.leaves).frequent_tokens().to_vec();
        assert!(!frequent.is_empty(), "φ_T = {phi}: no frequent token");
        assert!(tuples
            .iter()
            .all(|t| t.cond.iter().any(|(v, _)| frequent.contains(&v))));
        assert_matches_linear_scan(&tuples, &model.leaves, &[1, 4]);
    }
}
