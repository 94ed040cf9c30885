//! Traced replays: each command of `dbmine::render` re-run as timed
//! calls into the public functions of the layers beneath it, so the
//! benchmark can split an op's wall time by layer without adding spans
//! to the program.
//!
//! A replay must print exactly what the command prints; the callers gate
//! on that, which is what keeps these re-assemblies faithful to
//! `StructureMiner::analyze_ctx`, `find_duplicate_tuples_ctx`,
//! `cluster_values_ctx`, `group_attributes` and `run_fds`.

use crate::trace::Tracer;
use dbmine::context::AnalysisCtx;
use dbmine::fdmine::{mine_fdep_ctx, mine_tane_ctx, minimum_cover, Fd, TaneOptions};
use dbmine::fdrank::{rad_ctx, rank_by_rfi, rank_fds, rtr_ctx, RankedFd, ScoreKind};
use dbmine::ib::{aib, assign_all_with, Dcf};
use dbmine::infotheory::SparseDist;
use dbmine::limbo::{
    attribute_dcfs, phase1_auto, tuple_dcfs_ctx, value_dcfs_with, LimboModel, LimboParams,
};
use dbmine::reliability::{mine_reliable_ctx, ReliableOptions};
use dbmine::render;
use dbmine::summaries::{
    AttributeGrouping, DuplicateReport, TupleGroup, ValueClustering, ValueGroup,
};
use dbmine::telemetry::alloc;
use dbmine::{FdMiner, MinerConfig, RankedDependency, StructureReport};
use std::fmt::Write as _;

/// `render::run_analyze`, stage by stage.
pub fn analyze(t: &mut Tracer, ctx: &AnalysisCtx, c: &MinerConfig) -> String {
    let columns = t.span("context.profiles", |_| ctx.column_profiles().to_vec());
    let tuple_params = LimboParams::with_phi(c.phi_tuples)
        .threads(c.threads)
        .shards(c.shards);
    let duplicate_tuples = t.span("summaries.duplicate_tuples", |t| {
        duplicate_tuples(t, ctx, tuple_params)
    });
    let value_params = LimboParams::with_phi(c.phi_values)
        .threads(c.threads)
        .shards(c.shards);
    let value_groups = t.span("summaries.cluster_values", |t| {
        cluster_values(t, ctx, value_params)
    });
    let attribute_grouping = t.span("summaries.group_attributes", |t| {
        group_attributes(t, &value_groups, ctx.n_attrs())
    });
    let fdep = match c.fd_miner {
        FdMiner::Fdep => true,
        FdMiner::Tane => false,
        // The miner's own cut-over (`StructureMiner::effective_miner`).
        FdMiner::Auto => ctx.n_tuples() <= 2_000,
    };
    let fds = if fdep {
        partitions(t, ctx, 1);
        t.span("fdmine.fdep", |_| mine_fdep_ctx(ctx))
    } else {
        tane(
            t,
            ctx,
            TaneOptions {
                max_lhs: c.max_lhs,
                threads: c.threads,
            },
        )
    };
    let cover = t.span("fdmine.cover", |_| minimum_cover(&fds));
    let ranked = t.span("fdrank.rank", |_| {
        let ranked_fds = rank_fds(&cover, &attribute_grouping, c.psi);
        let decorate = |fd: RankedFd, rfi: Option<f64>| {
            let attrs = fd.attrs();
            RankedDependency {
                rad: rad_ctx(ctx, attrs),
                rtr: rtr_ctx(ctx, attrs),
                rfi,
                fd,
            }
        };
        match c.score {
            ScoreKind::G3 => ranked_fds
                .into_iter()
                .map(|fd| decorate(fd, None))
                .collect(),
            ScoreKind::Rfi => rank_by_rfi(ctx, ranked_fds)
                .into_iter()
                .map(|(fd, s)| decorate(fd, Some(s)))
                .collect(),
        }
    });
    let report = StructureReport {
        columns,
        duplicate_tuples,
        value_groups,
        attribute_grouping,
        fds,
        cover,
        ranked,
    };
    t.span("render.format", |_| {
        report.render_with(ctx.attr_names(), ctx.dict())
    })
}

fn phase1(t: &mut Tracer, objects: &[Dcf], mi: f64, params: LimboParams) -> LimboModel {
    let model = t.span("limbo.phase1", |_| phase1_auto(objects, mi, params));
    t.note("limbo.objects", objects.len() as f64);
    t.note("limbo.leaves", model.leaves.len() as f64);
    model
}

fn assign(t: &mut Tracer, objects: &[Dcf], reps: &[Dcf], threads: usize) -> Vec<(usize, f64)> {
    t.note("ib.assign_pairs", (objects.len() * reps.len()) as f64);
    t.span("ib.assign", |_| {
        assign_all_with(objects.iter(), reps, threads)
    })
}

/// `summaries::find_duplicate_tuples_ctx`.
fn duplicate_tuples(t: &mut Tracer, ctx: &AnalysisCtx, params: LimboParams) -> DuplicateReport {
    // On a memory-backed context I(T;V) builds the tuple view first, so
    // this span covers both views with the program's own build/hit counts.
    let mi = t.span("context.tuple_views", |_| ctx.tuple_mutual_information());
    let objects = t.span("limbo.tuple_dcfs", |_| tuple_dcfs_ctx(ctx, params.threads));
    let model = phase1(t, &objects, mi, params);
    let multi: Vec<Dcf> = model
        .leaves
        .iter()
        .filter(|d| d.count > 1)
        .cloned()
        .collect();
    let mut groups: Vec<TupleGroup> = multi
        .iter()
        .map(|d| TupleGroup {
            tuples: Vec::new(),
            losses: Vec::new(),
            summary_count: d.count,
        })
        .collect();
    if !multi.is_empty() {
        for (tuple, (idx, loss)) in assign(t, &objects, &multi, params.threads)
            .into_iter()
            .enumerate()
        {
            groups[idx].tuples.push(tuple);
            groups[idx].losses.push(loss);
        }
    }
    groups.retain(|g| g.tuples.len() >= 2);
    DuplicateReport {
        groups,
        threshold: model.threshold,
        n_summaries: model.leaves.len(),
    }
}

/// `summaries::cluster_values_ctx` without Double Clustering.
fn cluster_values(t: &mut Tracer, ctx: &AnalysisCtx, params: LimboParams) -> ValueClustering {
    let (index, mi) = t.span("context.value_views", |_| {
        (ctx.value_index(), ctx.value_mutual_information())
    });
    let objects = t.span("limbo.value_dcfs", |_| {
        value_dcfs_with(index, params.threads)
    });
    let model = phase1(t, &objects, mi, params);
    let mut member_lists: Vec<Vec<usize>> = vec![Vec::new(); model.leaves.len()];
    if !model.leaves.is_empty() {
        for (i, (idx, _)) in assign(t, &objects, &model.leaves, params.threads)
            .into_iter()
            .enumerate()
        {
            member_lists[idx].push(i);
        }
    }
    let mut groups: Vec<ValueGroup> = Vec::new();
    for members in member_lists.into_iter().filter(|m| !m.is_empty()) {
        let mut o_row = SparseDist::new();
        let mut tuples: Vec<u32> = Vec::new();
        for &i in &members {
            o_row.add_assign(index.o_row(i));
            tuples.extend_from_slice(index.occurrences(i));
        }
        tuples.sort_unstable();
        tuples.dedup();
        let tuple_support = tuples.len();
        let is_duplicate = tuple_support >= 2 && o_row.support() >= 2;
        groups.push(ValueGroup {
            values: members.iter().map(|&i| index.value_id(i)).collect(),
            o_row,
            tuple_support,
            is_duplicate,
        });
    }
    groups.sort_by(|a, b| {
        b.is_duplicate
            .cmp(&a.is_duplicate)
            .then(b.tuple_support.cmp(&a.tuple_support))
            .then(a.values.cmp(&b.values))
    });
    ValueClustering {
        groups,
        threshold: model.threshold,
    }
}

/// `summaries::group_attributes`.
fn group_attributes(t: &mut Tracer, values: &ValueClustering, n_attrs: usize) -> AttributeGrouping {
    let inputs = attribute_dcfs(&values.f_rows(n_attrs));
    let attrs = inputs.iter().map(|&(a, _)| a).collect();
    let dcfs = inputs.into_iter().map(|(_, d)| d).collect();
    let result = t.span("ib.aib", |_| aib(dcfs, 1));
    AttributeGrouping {
        attrs,
        dendrogram: result.dendrogram,
    }
}

/// The single-attribute partitions every miner seeds from. Building them
/// here moves the build out of the miner's span; the miner then counts
/// one view hit per attribute that the untraced run does not.
fn partitions(t: &mut Tracer, ctx: &AnalysisCtx, threads: usize) {
    t.span("context.build_partitions", |_| {
        ctx.attr_partitions_with(threads);
    });
}

fn tane(t: &mut Tracer, ctx: &AnalysisCtx, options: TaneOptions) -> Vec<Fd> {
    partitions(t, ctx, options.threads);
    let (fds, stats) = t.span("fdmine.tane", |_| {
        alloc::measure(|| mine_tane_ctx(ctx, options))
    });
    t.note("fdmine.fds", fds.len() as f64);
    t.note("fdmine.tane_peak_bytes", stats.region_peak_bytes() as f64);
    t.note("fdmine.tane_allocs", stats.events as f64);
    fds
}

/// `render::run_fds` with g3 scoring and no approximation.
pub fn fds_g3(t: &mut Tracer, ctx: &AnalysisCtx, max_lhs: Option<usize>) -> String {
    let fds = tane(
        t,
        ctx,
        TaneOptions {
            max_lhs,
            threads: 1,
        },
    );
    let cover = t.span("fdmine.cover", |_| minimum_cover(&fds));
    t.span("render.format", |_| {
        let names = ctx.attr_names();
        let mut out = String::new();
        writeln!(
            out,
            "exact minimal dependencies: {} (cover: {})",
            fds.len(),
            cover.len()
        )
        .expect("write to String");
        for f in cover.iter().take(30) {
            writeln!(out, "  {}", f.display(names)).expect("write to String");
        }
        out
    })
}

/// `render::run_fds` with `score = rfi`.
pub fn fds_rfi(t: &mut Tracer, ctx: &AnalysisCtx, theta: f64, max_lhs: Option<usize>) -> String {
    partitions(t, ctx, 1);
    let (mut reliable, stats) = t.span("reliability.mine", |_| {
        alloc::measure(|| {
            mine_reliable_ctx(
                ctx,
                ReliableOptions {
                    theta,
                    max_lhs,
                    threads: 1,
                    prune: true,
                },
            )
        })
    });
    t.note("reliability.peak_bytes", stats.region_peak_bytes() as f64);
    t.span("render.format", |_| {
        let names = ctx.attr_names();
        let mut out = String::new();
        writeln!(
            out,
            "reliable dependencies (F̂ ≥ {theta}): {}",
            reliable.len()
        )
        .expect("write to String");
        reliable.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.fd.cmp(&b.fd)));
        for f in reliable.iter().take(30) {
            writeln!(
                out,
                "  {:<44} F̂ = {:.4}  (plugin {:.4} − bias {:.4})  g3 = {:.4}",
                f.fd.display(names),
                f.score,
                f.plugin,
                f.bias,
                f.g3
            )
            .expect("write to String");
        }
        out
    })
}

/// `render::run_partition` as one summaries-layer stage (LIMBO phases
/// 1–3 run inside `horizontal_partition_ctx`).
pub fn partition(t: &mut Tracer, ctx: &AnalysisCtx, k: usize) -> String {
    t.span("summaries.partition", |_| {
        render::run_partition(ctx, 0.5, Some(k), 1, None)
    })
}
