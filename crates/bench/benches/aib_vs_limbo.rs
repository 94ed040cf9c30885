//! AIB versus LIMBO on the same clustering task (paper Section 5.2):
//! AIB is quadratic in the number of objects, LIMBO summarizes first and
//! pays AIB cost only on the (much smaller) leaf set. The crossover —
//! and the fact that LIMBO's advantage grows with `n` — is the paper's
//! core scalability claim.
//!
//! Two extra groups compare the AIB implementations themselves:
//! `aib_impl` pits the candidate-list [`aib`] (each cluster keeps the
//! exact losses of its 16 best partners plus a floor bounding the rest)
//! against the all-pairs lazy-deletion-heap [`aib_reference`] oracle, and
//! `aib_threads` measures the `--threads` knob at `q ≥ 2000` leaves
//! (expect wins only on multi-core machines; the results are
//! bit-identical regardless).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbmine::context::AnalysisCtx;
use dbmine::datagen::{dblp_sample, DblpSpec};
use dbmine::ib::{aib, aib_reference, aib_with};
use dbmine::limbo::{phase1, phase2_with, tuple_dcfs_ctx, LimboParams};

fn dblp_objects(n: usize) -> (Vec<dbmine::ib::Dcf>, f64) {
    let spec = DblpSpec {
        n_tuples: n,
        n_authors: 200,
        n_conferences: 40,
        n_journals: 12,
        ..Default::default()
    };
    let rel = dblp_sample(&spec);
    let ctx = AnalysisCtx::of(&rel);
    let objects = tuple_dcfs_ctx(&ctx, 1);
    let mi = ctx.tuple_mutual_information();
    (objects, mi)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("aib_vs_limbo");
    g.sample_size(10);
    for &n in &[200usize, 400, 800] {
        let (objects, mi) = dblp_objects(n);

        g.bench_with_input(BenchmarkId::new("aib", n), &n, |b, _| {
            b.iter(|| aib(objects.clone(), 3))
        });
        g.bench_with_input(BenchmarkId::new("limbo_phi_1.0", n), &n, |b, _| {
            b.iter(|| {
                let model = phase1(&objects, mi, objects.len(), LimboParams::with_phi(1.0));
                phase2_with(&model, 3, 1)
            })
        });
    }
    g.finish();
}

/// Candidate-list `aib` vs the all-pairs `aib_reference` oracle. The
/// lists keep O(q·16) exact losses and an O(q)-entry heap instead of the
/// O(q²) heap, which shows up both in wall-clock and peak memory as `q`
/// grows.
fn bench_impl(c: &mut Criterion) {
    let mut g = c.benchmark_group("aib_impl");
    g.sample_size(10);
    for &n in &[200usize, 400, 800] {
        let (objects, _) = dblp_objects(n);
        g.bench_with_input(BenchmarkId::new("cand_lists", n), &n, |b, _| {
            b.iter(|| aib(objects.clone(), 3))
        });
        g.bench_with_input(BenchmarkId::new("reference_heap", n), &n, |b, _| {
            b.iter(|| aib_reference(objects.clone(), 3))
        });
    }
    g.finish();
}

/// Serial vs parallel `aib_with` at `q ≥ 2000` leaves.
fn bench_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("aib_threads");
    g.sample_size(2);
    for &n in &[2000usize] {
        let (objects, _) = dblp_objects(n);
        for &t in &[1usize, 4] {
            g.bench_with_input(BenchmarkId::new(format!("threads_{t}"), n), &n, |b, _| {
                b.iter(|| aib_with(objects.clone(), 3, t))
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench, bench_impl, bench_threads);
criterion_main!(benches);
