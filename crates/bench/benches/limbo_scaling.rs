//! LIMBO Phase 1 scaling in the number of tuples: the streaming insert
//! should stay near-linear (tree height is logarithmic and summary
//! supports are bounded by the merge threshold).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbmine::context::AnalysisCtx;
use dbmine::datagen::{dblp_sample, DblpSpec};
use dbmine::limbo::{phase1, run, tuple_dcfs_ctx, LimboParams};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("limbo_phase1_scaling");
    g.sample_size(10);
    for &n in &[1000usize, 2000, 4000, 8000] {
        let spec = DblpSpec {
            n_tuples: n,
            ..DblpSpec::small()
        };
        let rel = dblp_sample(&spec);
        let ctx = AnalysisCtx::of(&rel);
        let objects = tuple_dcfs_ctx(&ctx, 1);
        let mi = ctx.tuple_mutual_information();
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            b.iter(|| phase1(&objects, mi, objects.len(), LimboParams::with_phi(1.0)))
        });
    }
    g.finish();
}

/// The full three-phase pipeline with the `threads` knob: Phase 1 is
/// inherently serial (streaming inserts), Phases 2 and 3 parallelize.
fn bench_threads(c: &mut Criterion) {
    let mut g = c.benchmark_group("limbo_run_threads");
    g.sample_size(5);
    let n = 4000usize;
    let spec = DblpSpec {
        n_tuples: n,
        ..DblpSpec::small()
    };
    let rel = dblp_sample(&spec);
    let ctx = AnalysisCtx::of(&rel);
    let objects = tuple_dcfs_ctx(&ctx, 1);
    let mi = ctx.tuple_mutual_information();
    for &t in &[1usize, 4] {
        g.bench_with_input(BenchmarkId::new(format!("threads_{t}"), n), &n, |b, _| {
            b.iter(|| run(&objects, mi, 3, LimboParams::with_phi(1.0).threads(t)))
        });
    }
    g.finish();
}

criterion_group!(benches, bench, bench_threads);
criterion_main!(benches);
