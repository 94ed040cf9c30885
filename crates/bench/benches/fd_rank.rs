//! The FD-RANK stage itself: the paper argues its complexity
//! `O(f·m·(m−1) + f·log f)` is dominated by the number of dependencies
//! `f`. We scale `f` by feeding progressively larger FD sets against the
//! DB2 attribute grouping.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, Db2Spec};
use dbmine::fdmine::{minimum_cover, Fd};
use dbmine::fdrank::rank_fds;
use dbmine::limbo::LimboParams;
use dbmine::summaries::{cluster_values_ctx, group_attributes};
use dbmine_oracles::mine_fdep;

fn bench(c: &mut Criterion) {
    let db2 = db2_sample(&Db2Spec::default()).relation;
    let values = cluster_values_ctx(&AnalysisCtx::of(&db2), LimboParams::with_phi(0.0), None);
    let grouping = group_attributes(&values, db2.n_attrs());
    let all_fds = mine_fdep(&AnalysisCtx::of(&db2));
    let cover = minimum_cover(&all_fds);

    let mut g = c.benchmark_group("fd_rank");
    g.bench_function("rank_cover/db2", |b| {
        b.iter(|| rank_fds(&cover, &grouping, 0.5))
    });
    for &f in &[50usize, 150, 300] {
        let fds: Vec<Fd> = all_fds.iter().cycle().take(f).copied().collect();
        g.bench_with_input(BenchmarkId::new("rank_f", f), &f, |b, _| {
            b.iter(|| rank_fds(&fds, &grouping, 0.5))
        });
    }
    g.bench_function("attribute_grouping/db2", |b| {
        b.iter(|| group_attributes(&values, db2.n_attrs()))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
