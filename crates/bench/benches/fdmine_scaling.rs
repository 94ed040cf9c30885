//! FD-discovery scaling: the TANE lattice walk at the paper's DBLP
//! partition sizes (tens of thousands of tuples), on synthetic relations
//! with planted structure so the lattice shape is controlled.
//!
//! This is the bench trajectory for the `fdmine` hot path: partition
//! products (the inner loop of every level), `g3` error computation, and
//! the end-to-end `mine_tane_ctx` / `mine_approximate_ctx` walks. Run with
//!
//! ```text
//! cargo bench --bench fdmine_scaling
//! ```
//!
//! `results/BENCH_fdmine.json` is regenerated by the `bench_fdmine`
//! binary (see EXPERIMENTS.md), which reuses the same workloads.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbmine::context::AnalysisCtx;
use dbmine::datagen::{synthetic, PlantedFd, SyntheticSpec};
use dbmine::fdmine::{
    mine_approximate_ctx, mine_tane_ctx, PartitionScratch, StrippedPartition, TaneOptions,
};
use dbmine_oracles::product_reference;

/// The canonical scaling relation: `n` tuples, 8 attributes, a planted
/// dependency A0 → {A1, A2}, Zipf-skewed free attributes.
fn scaling_relation(n: usize) -> dbmine::relation::Relation {
    synthetic(&SyntheticSpec {
        n_tuples: n,
        n_attrs: 8,
        domain: 24,
        skew: 0.8,
        fds: vec![PlantedFd {
            determinant: 0,
            dependents: vec![1, 2],
        }],
        noise: 0.0,
        seed: 42,
    })
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fdmine_scaling");
    g.sample_size(10);

    for &n in &[10_000usize, 50_000] {
        let rel = scaling_relation(n);

        g.bench_with_input(BenchmarkId::new("tane/synth8", n), &n, |b, _| {
            b.iter(|| mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default()))
        });

        // The inner loop of every TANE level: one partition product —
        // with a fresh scratch per call, and with the scratch reused the
        // way `mine_tane_ctx` holds it.
        let p0 = StrippedPartition::of_attr(&rel, 0);
        let p3 = StrippedPartition::of_attr(&rel, 3);
        g.bench_with_input(BenchmarkId::new("product/synth8", n), &n, |b, _| {
            b.iter(|| p0.product(&p3))
        });
        let mut scratch = PartitionScratch::new();
        g.bench_with_input(BenchmarkId::new("product_scratch/synth8", n), &n, |b, _| {
            b.iter(|| p0.product_with(&p3, &mut scratch))
        });
        g.bench_with_input(
            BenchmarkId::new("product_reference/synth8", n),
            &n,
            |b, _| b.iter(|| product_reference(&p0, &p3)),
        );

        let p03 = p0.product(&p3);
        g.bench_with_input(BenchmarkId::new("g3_error/synth8", n), &n, |b, _| {
            b.iter(|| p0.g3_error_with(&p03, &mut scratch))
        });
    }

    // Thread-count trajectory (the container may be 1-core; this pins
    // the overhead/scaling story either way — output is identical).
    let rel = scaling_relation(10_000);
    for &threads in &[2usize, 4] {
        g.bench_with_input(
            BenchmarkId::new("tane_threads/synth8_10000", threads),
            &threads,
            |b, &t| {
                b.iter(|| {
                    mine_tane_ctx(
                        &AnalysisCtx::of(&rel),
                        TaneOptions {
                            threads: t,
                            ..Default::default()
                        },
                    )
                })
            },
        );
    }

    // Approximate mining meets noise: planted FDs hold only at g3 ≈ 2%.
    let noisy = synthetic(&SyntheticSpec {
        n_tuples: 10_000,
        n_attrs: 6,
        domain: 24,
        skew: 0.8,
        fds: vec![PlantedFd {
            determinant: 0,
            dependents: vec![1, 2],
        }],
        noise: 0.02,
        seed: 42,
    });
    g.bench_function("approx_g3_0.05/synth6_10000", |b| {
        b.iter(|| mine_approximate_ctx(&AnalysisCtx::of(&noisy), 0.05, Some(2), 1))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
