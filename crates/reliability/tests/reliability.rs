//! Regression tests for the reliable-FD subsystem: the documented g3
//! bias on small/skewed data, and the two bit-identity contracts
//! (thread counts, the pruned walk against the unpruned oracle).

use dbmine_context::AnalysisCtx;
use dbmine_fdmine::mine_approximate_ctx;
use dbmine_oracles::mine_reliable_unpruned;
use dbmine_relation::paper::{figure4, figure5};
use dbmine_relation::{AttrSet, Relation, RelationBuilder};
use dbmine_reliability::{mine_reliable_ctx, ReliableFd, ReliableOptions, RfiScorer};
use rand::{rngs::StdRng, Rng, SeedableRng};

/// The g3-bias showcase: 6 tuples where `Id` is an *accidental* key
/// (row identifiers carry no information about anything) while
/// `Grp → Val` is a genuinely supported dependency (two aligned
/// 3-tuple blocks).
///
/// ```text
/// Id   Grp  Val
/// r1   g1   v1
/// r2   g1   v1
/// r3   g1   v1
/// r4   g2   v2
/// r5   g2   v2
/// r6   g2   v2
/// ```
fn skewed_key_relation() -> Relation {
    let mut b = RelationBuilder::new("skew", &["Id", "Grp", "Val"]);
    for i in 1..=6 {
        let g = if i <= 3 { "g1" } else { "g2" };
        let v = if i <= 3 { "v1" } else { "v2" };
        b.push_row_strs(&[&format!("r{i}"), g, v]);
    }
    b.build()
}

/// Satellite bugfix test: g3 accepts the spurious `Id → Val` (a key LHS
/// has g3 error exactly 0), while F̂ scores it ≈ 0 — the permutation
/// model says a 6-value key explains a 2-value column entirely by
/// chance — and keeps the supported `Grp → Val`.
#[test]
fn g3_accepts_spurious_key_fd_that_rfi_rejects() {
    let rel = skewed_key_relation();
    let id_to_val = |fds: &[dbmine_fdmine::Fd]| {
        fds.iter()
            .any(|f| f.lhs == AttrSet::single(0) && f.rhs == 2)
    };

    // g3's verdict: Id → Val is *perfect* (error 0), purely because Id
    // is a key of this 6-row sample.
    let approx = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.0, None, 1);
    let g3_fds: Vec<dbmine_fdmine::Fd> = approx.iter().map(|f| f.fd).collect();
    assert!(
        id_to_val(&g3_fds),
        "g3 must accept the spurious key FD: {approx:?}"
    );

    // F̂'s verdict on the same pair: exactly chance.
    let ctx = AnalysisCtx::of(&rel);
    let scorer = RfiScorer::new(&ctx, 1);
    let spurious = scorer.score_sets(&ctx, AttrSet::single(0), AttrSet::single(2));
    assert!(
        (spurious.plugin - 1.0).abs() < 1e-12,
        "g3's blind spot IS a perfect plugin score"
    );
    assert!(
        spurious.score.abs() < 1e-9,
        "key LHS must be fully bias-corrected, got {}",
        spurious.score
    );

    // The supported dependency keeps a solid score. Hand value: plugin
    // is 1 (exact FD) and m₀ for two (3,3) multisets over n = 6 is
    // 4·[(9/20)·w(1) + (9/20)·w(2) + (1/20)·w(3)], w(k) = (k/6)·log2(6k/9).
    let w = |k: f64| (k / 6.0) * (6.0 * k / 9.0).log2();
    let m0_hand = 4.0 * ((9.0 / 20.0) * w(1.0) + (9.0 / 20.0) * w(2.0) + (1.0 / 20.0) * w(3.0));
    let supported = scorer.score_sets(&ctx, AttrSet::single(1), AttrSet::single(2));
    assert!((supported.score - (1.0 - m0_hand)).abs() < 1e-12);
    assert!(supported.score > 0.8, "Grp → Val must stay strong");

    // End-to-end: the miner at θ = 0.3 keeps Grp → Val and drops every
    // key-LHS dependency g3 would have admitted.
    let mined = mine_reliable_ctx(
        &AnalysisCtx::of(&rel),
        ReliableOptions {
            theta: 0.3,
            ..Default::default()
        },
    );
    assert!(
        mined
            .iter()
            .any(|f| f.fd.lhs == AttrSet::single(1) && f.fd.rhs == 2),
        "supported FD lost: {mined:?}"
    );
    assert!(
        !mined.iter().any(|f| f.fd.lhs.contains(0)),
        "a key-LHS dependency slipped past the bias correction: {mined:?}"
    );
    // And every emitted dependency documents the comparison: its g3
    // error is also ≈ 0 here — g3 alone cannot tell these cases apart.
    for f in &mined {
        assert!(f.g3.abs() < 1e-12, "{f:?}");
    }
}

/// A random small categorical relation with a skew knob: low `domain`
/// values produce heavy classes, high values produce key-like columns.
fn random_relation(rng: &mut StdRng, m: usize, n: usize, domain: u32) -> Relation {
    let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut b = RelationBuilder::new("rand", &refs);
    for _ in 0..n {
        let row: Vec<String> = (0..m)
            .map(|a| format!("v{}_{}", a, rng.gen_range(0..domain)))
            .collect();
        let cells: Vec<&str> = row.iter().map(String::as_str).collect();
        b.push_row_strs(&cells);
    }
    b.build()
}

fn assert_bit_identical(a: &[ReliableFd], b: &[ReliableFd], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: lengths differ");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.fd, y.fd, "{what}");
        for (l, r, field) in [
            (x.score, y.score, "score"),
            (x.plugin, y.plugin, "plugin"),
            (x.bias, y.bias, "bias"),
            (x.g3, y.g3, "g3"),
        ] {
            assert!(
                l.to_bits() == r.to_bits(),
                "{what}: {field} drifted on {:?}: {l} vs {r}",
                x.fd
            );
        }
    }
}

#[test]
fn mine_reliable_is_bit_identical_across_thread_counts() {
    let mut rng = StdRng::seed_from_u64(17);
    let mut relations = vec![figure4(), figure5(), skewed_key_relation()];
    for _ in 0..4 {
        let m = rng.gen_range(3..=5);
        let n = rng.gen_range(6..=40);
        let domain = rng.gen_range(2..=8);
        relations.push(random_relation(&mut rng, m, n, domain));
    }
    for rel in &relations {
        for &theta in &[0.05, 0.3] {
            let serial = mine_reliable_ctx(
                &AnalysisCtx::of(rel),
                ReliableOptions {
                    theta,
                    threads: 1,
                    ..Default::default()
                },
            );
            for threads in [0usize, 2, 4] {
                let t = mine_reliable_ctx(
                    &AnalysisCtx::of(rel),
                    ReliableOptions {
                        theta,
                        threads,
                        ..Default::default()
                    },
                );
                assert_bit_identical(&t, &serial, &format!("threads={threads} θ={theta}"));
            }
        }
    }
}

#[test]
fn pruning_only_skips_never_changes_results() {
    let mut rng = StdRng::seed_from_u64(23);
    let mut relations = vec![figure4(), figure5(), skewed_key_relation()];
    for _ in 0..6 {
        let m = rng.gen_range(3..=6);
        let n = rng.gen_range(5..=50);
        let domain = rng.gen_range(2..=10);
        relations.push(random_relation(&mut rng, m, n, domain));
    }
    for rel in &relations {
        let ctx = AnalysisCtx::of(rel);
        for &theta in &[0.0, 0.1, 0.4, 0.8] {
            for max_lhs in [None, Some(1), Some(2)] {
                let pruned = mine_reliable_ctx(
                    &ctx,
                    ReliableOptions {
                        theta,
                        max_lhs,
                        ..Default::default()
                    },
                );
                assert_bit_identical(
                    &pruned,
                    &mine_reliable_unpruned(&ctx, theta, max_lhs, 1),
                    &format!(
                        "pruned vs unpruned on {} θ={theta} max_lhs={max_lhs:?}",
                        rel.name()
                    ),
                );
            }
        }
    }
}

#[test]
fn emitted_scores_match_standalone_estimator() {
    // The miner's per-FD numbers must be exactly what the set-scoring
    // API computes for the same pair — one estimator, two entry points.
    let rel = figure4();
    let ctx = AnalysisCtx::of(&rel);
    let scorer = RfiScorer::new(&ctx, 1);
    for f in mine_reliable_ctx(
        &AnalysisCtx::of(&rel),
        ReliableOptions {
            theta: 0.05,
            ..Default::default()
        },
    ) {
        let s = scorer.score_sets(&ctx, f.fd.lhs, AttrSet::single(f.fd.rhs));
        assert!(
            s.score.to_bits() == f.score.to_bits()
                && s.plugin.to_bits() == f.plugin.to_bits()
                && s.bias.to_bits() == f.bias.to_bits(),
            "estimator disagreement on {:?}: {s:?} vs {f:?}",
            f.fd
        );
    }
}
