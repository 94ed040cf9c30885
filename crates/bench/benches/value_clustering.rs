//! Attribute-value clustering cost: direct (values over tuples) versus
//! Double Clustering (values over tuple clusters) — the paper's recipe
//! for scaling Section 6.2 to large relations — plus the Apriori
//! frequent-itemset baseline that `C_VD` generalizes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dbmine::baselines::mine_frequent_itemsets_capped;
use dbmine::context::AnalysisCtx;
use dbmine::datagen::{db2_sample, dblp_sample, Db2Spec, DblpSpec};
use dbmine::limbo::LimboParams;
use dbmine::summaries::{cluster_values_ctx, tuple_summary_assignment_ctx};

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("value_clustering");
    g.sample_size(10);

    let db2 = db2_sample(&Db2Spec::default()).relation;
    g.bench_function("direct/db2", |b| {
        b.iter(|| cluster_values_ctx(&AnalysisCtx::of(&db2), LimboParams::with_phi(0.0), None))
    });
    // Sizes capped at 3: the uncapped enumeration is exponential on this
    // dense join (see `bin/ablation_cvd`), which is itself the point of
    // the comparison.
    g.bench_function("apriori/db2_sup2_cap3", |b| {
        b.iter(|| mine_frequent_itemsets_capped(&db2, 2, 2, 3))
    });

    for &n in &[1000usize, 3000] {
        let spec = DblpSpec {
            n_tuples: n,
            ..DblpSpec::small()
        };
        let rel = dblp_sample(&spec);
        g.bench_with_input(BenchmarkId::new("direct/dblp", n), &n, |b, _| {
            b.iter(|| cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(1.0), None))
        });
        let (assignment, _) =
            tuple_summary_assignment_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.5));
        g.bench_with_input(BenchmarkId::new("double/dblp", n), &n, |b, _| {
            b.iter(|| {
                cluster_values_ctx(
                    &AnalysisCtx::of(&rel),
                    LimboParams::with_phi(1.0),
                    Some(&assignment),
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
