//! FDEP versus TANE: the pairwise miner wins on tiny-n/wide relations
//! (DB2 sample, 90×19); the levelwise partition miner wins once `n`
//! grows (DBLP partitions) — the reason the large-scale experiments use
//! TANE.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, dblp_sample, Db2Spec, DblpSpec};
use dbmine::fdmine::{
    mine_approximate_ctx, mine_fastfds, mine_fdep_ctx, mine_mvds, mine_tane_ctx, minimum_cover,
    TaneOptions,
};
use dbmine::relation::AttrSet;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("fd_mining");
    g.sample_size(10);

    let db2 = db2_sample(&Db2Spec::default()).relation;
    g.bench_function("fdep/db2_90x19", |b| {
        b.iter(|| mine_fdep_ctx(&AnalysisCtx::of(&db2)))
    });
    g.bench_function("fastfds/db2_90x19", |b| b.iter(|| mine_fastfds(&db2)));
    g.bench_function("tane/db2_90x19", |b| {
        b.iter(|| {
            mine_tane_ctx(
                &AnalysisCtx::of(&db2),
                TaneOptions {
                    max_lhs: Some(4),
                    ..Default::default()
                },
            )
        })
    });
    g.bench_function("approx_g3_0.05/db2_90x19", |b| {
        b.iter(|| mine_approximate_ctx(&AnalysisCtx::of(&db2), 0.05, Some(2), 1))
    });
    g.bench_function("mvds/db2_lhs1", |b| {
        b.iter(|| mine_mvds(&AnalysisCtx::of(&db2), 1, false))
    });

    for &n in &[1000usize, 4000] {
        let spec = DblpSpec {
            n_tuples: n,
            ..DblpSpec::small()
        };
        let rel = dblp_sample(&spec);
        let keep: AttrSet = [
            "Author",
            "Pages",
            "BookTitle",
            "Year",
            "Volume",
            "Journal",
            "Number",
        ]
        .iter()
        .filter_map(|a| rel.attr_id(a))
        .collect();
        let rel = rel.project(keep);
        g.bench_with_input(BenchmarkId::new("fdep/dblp7", n), &n, |b, _| {
            b.iter(|| mine_fdep_ctx(&AnalysisCtx::of(&rel)))
        });
        g.bench_with_input(BenchmarkId::new("tane/dblp7", n), &n, |b, _| {
            b.iter(|| mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default()))
        });
    }

    let fds = mine_fdep_ctx(&AnalysisCtx::of(&db2));
    g.bench_function("minimum_cover/db2", |b| b.iter(|| minimum_cover(&fds)));
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
