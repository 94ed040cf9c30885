//! The high-level structure-mining pipeline.

use dbmine_context::AnalysisCtx;
use dbmine_fdmine::{mine_tane_ctx, minimum_cover, Fd, TaneOptions};
use dbmine_fdrank::{rad_ctx, rank_by_rfi, rank_fds, rtr_ctx, RankedFd, ScoreKind};
use dbmine_limbo::LimboParams;
use dbmine_relation::stats::ColumnProfile;
use dbmine_relation::ValueDict;
use dbmine_summaries::{
    cluster_values_ctx, find_duplicate_tuples_ctx, group_attributes, AttributeGrouping,
    DuplicateReport, ValueClustering,
};

/// Ignored compatibility shim: the pipeline always mines with TANE.
/// Kept only because the end-to-end benchmark's traced replay
/// (`crates/bench/src/bin/bench_e2e/src/replay.rs`) still names it;
/// it will be deleted together with that file.
#[doc(hidden)]
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum FdMiner {
    /// Ignored.
    Fdep,
    /// Ignored.
    Tane,
    /// Ignored.
    #[default]
    Auto,
}

/// Pipeline configuration. The defaults mirror the paper's small-scale
/// experiments.
#[derive(Clone, Copy, Debug)]
pub struct MinerConfig {
    /// Tuple-clustering accuracy `φ_T` for duplicate discovery.
    pub phi_tuples: f64,
    /// Value-clustering accuracy `φ_V` (0 = perfect co-occurrence only).
    pub phi_values: f64,
    /// FD-RANK threshold `ψ ∈ [0,1]`.
    pub psi: f64,
    /// Ignored compatibility shim (see `FdMiner`); it will be deleted
    /// together with `crates/bench/src/bin/bench_e2e/src/replay.rs`.
    #[doc(hidden)]
    pub fd_miner: FdMiner,
    /// Bound on the LHS size of the mined dependencies (None = exact and
    /// unbounded).
    pub max_lhs: Option<usize>,
    /// Worker threads for the clustering and FD-mining stages (`1` =
    /// serial, `0` = all cores). Results are bit-identical for every
    /// thread count.
    pub threads: usize,
    /// Sharded LIMBO Phase 1 (`--shards`): `None` = the classic
    /// single-pass tree; `Some(w)` = chunked build + merge with `w`
    /// shard workers (`0` = all cores). The chunk plan depends only on
    /// the object count, so every worker count produces byte-identical
    /// results.
    pub shards: Option<usize>,
    /// Which quality score orders the ranked dependencies: the paper's
    /// FD-RANK information-loss order ([`ScoreKind::G3`]) or a re-rank
    /// by the bias-corrected reliable fraction of information
    /// ([`ScoreKind::Rfi`], descending F̂).
    pub score: ScoreKind,
}

impl Default for MinerConfig {
    fn default() -> Self {
        MinerConfig {
            phi_tuples: 0.0,
            phi_values: 0.0,
            psi: 0.5,
            fd_miner: FdMiner::default(),
            max_lhs: None,
            threads: 1,
            shards: None,
            score: ScoreKind::G3,
        }
    }
}

/// A ranked dependency decorated with its duplication measures.
#[derive(Clone, Debug)]
pub struct RankedDependency {
    /// The collapsed, ranked dependency.
    pub fd: RankedFd,
    /// `RAD(X ∪ Y)` of the dependency's attributes.
    pub rad: f64,
    /// `RTR(X ∪ Y)` of the dependency's attributes.
    pub rtr: f64,
    /// The reliable fraction of information `F̂(X→Y)`, populated (and
    /// used as the primary sort key, descending) when the pipeline ran
    /// with [`ScoreKind::Rfi`].
    pub rfi: Option<f64>,
}

impl RankedDependency {
    /// Renders as `[X]→[Y]` with names.
    pub fn display(&self, names: &[String]) -> String {
        self.fd.display(names)
    }
}

/// Everything the pipeline mined from one relation.
#[derive(Clone, Debug)]
pub struct StructureReport {
    /// Per-column profile (distinct counts, NULL fractions, entropies).
    pub columns: Vec<ColumnProfile>,
    /// Candidate duplicate tuple groups.
    pub duplicate_tuples: DuplicateReport,
    /// Value clustering with `C_VD` / `C_VND` classification.
    pub value_groups: ValueClustering,
    /// Attribute grouping over the duplicate value groups.
    pub attribute_grouping: AttributeGrouping,
    /// The mined minimal FDs (before cover reduction).
    pub fds: Vec<Fd>,
    /// The minimum cover of the mined FDs.
    pub cover: Vec<Fd>,
    /// The cover, FD-RANK-ordered (most redundancy-revealing first) and
    /// decorated with RAD/RTR.
    pub ranked: Vec<RankedDependency>,
}

impl StructureReport {
    /// The ranked dependencies without measures (convenience).
    pub fn top(&self, k: usize) -> Vec<&RankedDependency> {
        self.ranked.iter().take(k).collect()
    }

    /// Renders the full report as human-readable text (the CLI's
    /// `analyze` output) from the schema metadata alone — `names` and
    /// `dict` must come from the relation (or context) that was
    /// analyzed. This is what lets a chunk-backed context render an
    /// `analyze` report without materializing the relation.
    pub fn render_with(&self, names: &[String], dict: &ValueDict) -> String {
        use std::fmt::Write;
        let mut out = String::new();

        writeln!(out, "# column profile").unwrap();
        for c in &self.columns {
            // A constant column's entropy can come out as −0.0 (or a
            // rounding hair below zero); print it as 0.00, not −0.00.
            let entropy = if c.entropy > 0.0 { c.entropy } else { 0.0 };
            writeln!(
                out,
                "{:<20} distinct={:<6} null={:>5.1}%  H={:.2} bits",
                c.name,
                c.distinct,
                100.0 * c.null_fraction,
                entropy
            )
            .unwrap();
        }

        writeln!(
            out,
            "
# duplicate tuple groups: {}",
            self.duplicate_tuples.groups.len()
        )
        .unwrap();
        for g in self.duplicate_tuples.groups.iter().take(5) {
            writeln!(out, "  tuples {:?}", g.tuples).unwrap();
        }

        writeln!(
            out,
            "
# duplicate value groups (C_VD): {} of {} groups",
            self.value_groups.duplicates().count(),
            self.value_groups.groups.len()
        )
        .unwrap();
        for g in self.value_groups.duplicates().take(8) {
            let vals: Vec<&str> = g.values.iter().take(6).map(|&v| dict.string(v)).collect();
            writeln!(
                out,
                "  {{{}}} × {} tuples × {} attrs",
                vals.join(", "),
                g.tuple_support,
                g.attr_span()
            )
            .unwrap();
        }

        if !self.attribute_grouping.attrs.is_empty() {
            writeln!(
                out,
                "
# attribute dendrogram"
            )
            .unwrap();
            let labels: Vec<String> = self
                .attribute_grouping
                .attrs
                .iter()
                .map(|&a| names[a].clone())
                .collect();
            out.push_str(&dbmine_summaries::render::render_dendrogram(
                &self.attribute_grouping.dendrogram,
                &labels,
                48,
            ));
        }

        writeln!(
            out,
            "
# dependencies: {} mined, {} in minimum cover; ranked:",
            self.fds.len(),
            self.cover.len()
        )
        .unwrap();
        for r in self.top(10) {
            let rfi = match r.rfi {
                Some(s) => format!(" F̂={s:.3}"),
                None => String::new(),
            };
            writeln!(
                out,
                "  {:<40} rank={:.3} RAD={:.3} RTR={:.3}{}{}",
                r.display(names),
                r.fd.rank,
                r.rad,
                r.rtr,
                rfi,
                if r.fd.promoted { "  *" } else { "" }
            )
            .unwrap();
        }
        out
    }
}

/// The end-to-end miner (Sections 6–7 of the paper in one call).
#[derive(Clone, Copy, Debug, Default)]
pub struct StructureMiner {
    config: MinerConfig,
}

impl StructureMiner {
    /// A miner with the given configuration.
    pub fn new(config: MinerConfig) -> Self {
        StructureMiner { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &MinerConfig {
        &self.config
    }

    /// Runs the full pipeline over a shared [`AnalysisCtx`]: profiling →
    /// duplicate tuples → value clustering → attribute grouping → FD
    /// mining (TANE, bounded by `max_lhs`) → minimum cover → FD-RANK
    /// with RAD/RTR. One analyze run builds `I(T;V)`, `ValueIndex`
    /// and each single-attribute partition exactly once (pinned by a
    /// telemetry regression test); repeated runs over the same context
    /// (parameter sweeps, repeated CLI calls) build nothing.
    pub fn analyze_ctx(&self, ctx: &AnalysisCtx) -> StructureReport {
        let _span = dbmine_telemetry::span!("miner.analyze");
        let c = &self.config;
        let columns = {
            let _s = dbmine_telemetry::span!("miner.profile_columns");
            ctx.column_profiles().to_vec()
        };
        let duplicate_tuples = find_duplicate_tuples_ctx(
            ctx,
            LimboParams::with_phi(c.phi_tuples)
                .threads(c.threads)
                .shards(c.shards),
        );
        let value_groups = cluster_values_ctx(
            ctx,
            LimboParams::with_phi(c.phi_values)
                .threads(c.threads)
                .shards(c.shards),
            None,
        );
        let attribute_grouping = group_attributes(&value_groups, ctx.n_attrs());

        let fds = {
            let _s = dbmine_telemetry::span!("miner.mine_fds");
            mine_tane_ctx(
                ctx,
                TaneOptions {
                    max_lhs: c.max_lhs,
                    threads: c.threads,
                },
            )
        };
        let cover = minimum_cover(&fds);
        let ranked = {
            let _s = dbmine_telemetry::span!("miner.rank");
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
                    .map(|(fd, score)| decorate(fd, Some(score)))
                    .collect(),
            }
        };

        StructureReport {
            columns,
            duplicate_tuples,
            value_groups,
            attribute_grouping,
            fds,
            cover,
            ranked,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_fdmine::mine_fdep_ctx;
    use dbmine_relation::paper::{figure4, figure5};

    #[test]
    fn figure4_end_to_end() {
        let report =
            StructureMiner::new(MinerConfig::default()).analyze_ctx(&AnalysisCtx::of(&figure4()));
        assert_eq!(report.columns.len(), 3);
        assert_eq!(report.value_groups.duplicates().count(), 2);
        assert!(!report.cover.is_empty());
        // C → B ranked strictly better than A → B.
        let names = figure4().attr_names().to_vec();
        let pos = |s: &str| {
            report
                .ranked
                .iter()
                .position(|r| r.display(&names) == s)
                .unwrap_or(usize::MAX)
        };
        assert!(pos("[C]→[B]") < pos("[A]→[B]"), "{:?}", report.ranked);
    }

    #[test]
    fn constant_and_all_null_columns_print_zero_entropy() {
        let mut b = dbmine_relation::RelationBuilder::new("deg", &["K", "C", "N"]);
        for i in 0..6 {
            let k = format!("k{i}");
            b.push_row(&[Some(k.as_str()), Some("same"), None]);
        }
        let rel = b.build();
        let text = StructureMiner::default()
            .analyze_ctx(&AnalysisCtx::of(&rel))
            .render_with(rel.attr_names(), rel.dict());
        for name in ["C", "N"] {
            let line = text
                .lines()
                .find(|l| l.split_whitespace().next() == Some(name))
                .unwrap_or_else(|| panic!("no profile line for {name}:\n{text}"));
            assert!(line.ends_with("H=0.00 bits"), "{line}");
        }
        assert!(!text.contains("-0.00"), "{text}");
    }

    #[test]
    fn rank_measures_populated() {
        let report = StructureMiner::default().analyze_ctx(&AnalysisCtx::of(&figure4()));
        for r in &report.ranked {
            assert!(r.rad <= 1.0 + 1e-9);
            assert!((0.0..=1.0).contains(&r.rtr));
        }
    }

    #[test]
    fn miner_selection() {
        // FDEP, an independent algorithm, pins the pipeline's cover.
        for rel in [figure4(), figure5()] {
            let ctx = AnalysisCtx::of(&rel);
            let report = StructureMiner::default().analyze_ctx(&ctx);
            assert_eq!(minimum_cover(&mine_fdep_ctx(&ctx)), report.cover);
        }
    }

    #[test]
    fn rfi_score_mode_populates_and_orders() {
        let rel = figure4();
        let g3 = StructureMiner::default().analyze_ctx(&AnalysisCtx::of(&rel));
        assert!(g3.ranked.iter().all(|r| r.rfi.is_none()));
        assert!(!g3.render_with(rel.attr_names(), rel.dict()).contains("F̂="));

        let report = StructureMiner::new(MinerConfig {
            score: ScoreKind::Rfi,
            ..Default::default()
        })
        .analyze_ctx(&AnalysisCtx::of(&rel));
        assert!(report.ranked.iter().all(|r| r.rfi.is_some()));
        for w in report.ranked.windows(2) {
            assert!(
                w[0].rfi.unwrap() >= w[1].rfi.unwrap(),
                "{:?}",
                report.ranked
            );
        }
        assert!(report
            .render_with(rel.attr_names(), rel.dict())
            .contains("F̂="));
    }

    #[test]
    fn top_truncates() {
        let report = StructureMiner::default().analyze_ctx(&AnalysisCtx::of(&figure4()));
        assert!(report.top(1).len() <= 1);
        assert_eq!(report.top(100).len(), report.ranked.len());
    }
}
