//! Phase-1 kernel bench: arena-backed `DcfTree` vs the pinned reference
//! implementation `DcfTreeRef`, on the same DBLP-style insert streams.
//! Both produce bit-identical leaf summaries (property-tested in
//! `dbmine-limbo`); this measures what the arena + scratch-merge rewrite
//! buys in insert throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use dbmine::context::AnalysisCtx;
use dbmine::datagen::{dblp_sample, DblpSpec};
use dbmine::limbo::{tuple_dcfs_ctx, DcfTree};
use dbmine_oracles::DcfTreeRef;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("limbo_phase1_kernels");
    g.sample_size(10);
    for &n in &[1000usize, 4000] {
        let spec = DblpSpec {
            n_tuples: n,
            ..DblpSpec::small()
        };
        let rel = dblp_sample(&spec);
        let ctx = AnalysisCtx::of(&rel);
        let objects = tuple_dcfs_ctx(&ctx, 1);
        let mi = ctx.tuple_mutual_information();
        // φ = 1.0: the paper's summary regime, where most inserts are
        // absorbed by an existing leaf entry.
        let tau = mi / n as f64;
        g.throughput(Throughput::Elements(n as u64));
        g.bench_with_input(BenchmarkId::new("arena", n), &n, |b, _| {
            b.iter(|| {
                let mut t = DcfTree::new(4, tau);
                for o in &objects {
                    t.insert(o);
                }
                t.n_leaf_entries()
            })
        });
        g.bench_with_input(BenchmarkId::new("reference", n), &n, |b, _| {
            b.iter(|| {
                let mut t = DcfTreeRef::new(4, tau);
                for o in &objects {
                    t.insert(o.clone());
                }
                t.n_leaf_entries()
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
