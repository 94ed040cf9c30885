//! Microbenchmarks of the information-theory kernel: the JS divergence
//! and DCF merge operations dominate every clustering pass, so their
//! constants matter. Includes the asymmetric (small-vs-large support)
//! fast path used heavily by LIMBO Phase 1 on large relations.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use dbmine::ib::Dcf;
use dbmine::infotheory::{js_divergence, SparseDist};
use dbmine_oracles::dcf_merge;

fn dist(n: usize, offset: u32) -> SparseDist {
    SparseDist::from_pairs(
        (0..n as u32)
            .map(|i| (i * 2 + offset, 1.0 / n as f64))
            .collect(),
    )
}

fn bench_js(c: &mut Criterion) {
    let mut g = c.benchmark_group("js_divergence");
    for &n in &[16usize, 256, 4096] {
        let p = dist(n, 0);
        let q = dist(n, 1); // half-overlapping support
        g.bench_with_input(BenchmarkId::new("balanced", n), &n, |b, _| {
            b.iter(|| js_divergence(black_box(&p), 0.5, black_box(&q), 0.5))
        });
    }
    // Asymmetric: a 13-entry tuple row against a huge cluster summary.
    let small = dist(13, 0);
    for &n in &[1024usize, 16384, 65536] {
        let big = dist(n, 1);
        g.bench_with_input(BenchmarkId::new("asymmetric", n), &n, |b, _| {
            b.iter(|| js_divergence(black_box(&small), 0.1, black_box(&big), 0.9))
        });
    }
    g.finish();
}

/// The shipped in-place merge beside the allocating oracle it replaced,
/// over the same inputs; the in-place row clones its left side outside
/// the timer. `reference` runs the oracle on the same two hot inputs
/// and drops each result inside the timer, so its buffer is reused;
/// `reference_batched` runs it in the in-place row's harness (a fresh
/// left side per call, each result kept until the sample ends), which
/// is the like-for-like comparison.
fn bench_merge(c: &mut Criterion) {
    let mut g = c.benchmark_group("dcf_merge");
    for &n in &[16usize, 256, 4096] {
        let a = Dcf::singleton(0.5, dist(n, 0));
        let b_ = Dcf::singleton(0.5, dist(n, 1));
        g.bench_with_input(BenchmarkId::new("merge_in_place", n), &n, |b, _| {
            b.iter_batched(
                || a.clone(),
                |mut left| {
                    left.merge_in_place(black_box(&b_));
                    left
                },
                BatchSize::SmallInput,
            )
        });
        g.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| dcf_merge(black_box(&a), black_box(&b_)))
        });
        g.bench_with_input(BenchmarkId::new("reference_batched", n), &n, |b, _| {
            b.iter_batched(
                || a.clone(),
                |left| dcf_merge(black_box(&left), black_box(&b_)),
                BatchSize::SmallInput,
            )
        });
    }
    g.finish();
}

criterion_group!(benches, bench_js, bench_merge);
criterion_main!(benches);
