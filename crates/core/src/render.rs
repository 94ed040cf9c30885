//! The command implementations shared by the `dbmine` CLI and the
//! `dbmined` serving daemon.
//!
//! Each `run_*` function executes one command against an [`AnalysisCtx`]
//! and returns the exact text the CLI prints to stdout — the daemon
//! embeds the same string in its JSON responses, so "daemon output is
//! bit-identical to the single-shot CLI" is a structural property, not a
//! test-only coincidence.

use crate::{MinerConfig, StructureMiner};
use dbmine_context::AnalysisCtx;
use dbmine_fdmine::{mine_approximate_ctx, minimum_cover, TaneOptions};
use dbmine_fdrank::ScoreKind;
use dbmine_limbo::LimboParams;
use dbmine_relation::Relation;
use dbmine_reliability::{mine_reliable_ctx, ReliableOptions, DEFAULT_THETA};
use dbmine_summaries::{find_duplicate_tuples_ctx, horizontal_partition_ctx};
use std::fmt::Write;

/// `analyze`: the full structure-mining pipeline, rendered.
pub fn run_analyze(ctx: &AnalysisCtx, config: &MinerConfig) -> String {
    let report = StructureMiner::new(*config).analyze_ctx(ctx);
    report.render_with(ctx.attr_names(), ctx.dict())
}

/// `duplicates`: LIMBO tuple clustering at accuracy `φ_T = phi`.
/// `shards` selects the sharded Phase 1 build (`None` = classic
/// single-pass; byte-identical output either way).
pub fn run_duplicates(
    ctx: &AnalysisCtx,
    phi: f64,
    threads: usize,
    shards: Option<usize>,
) -> String {
    let rel = ctx.relation();
    let report = find_duplicate_tuples_ctx(
        ctx,
        LimboParams::with_phi(phi).threads(threads).shards(shards),
    );
    let mut out = String::new();
    writeln!(
        out,
        "φT = {phi}: {} candidate groups (threshold τ = {:.3e})",
        report.groups.len(),
        report.threshold
    )
    .unwrap();
    for (i, g) in report.groups.iter().enumerate() {
        writeln!(out, "\ngroup {} ({} tuples):", i + 1, g.tuples.len()).unwrap();
        for (&t, &loss) in g.tuples.iter().zip(&g.losses).take(8) {
            let preview: Vec<&str> = (0..rel.n_attrs().min(6))
                .map(|a| rel.value_str(t, a))
                .collect();
            writeln!(out, "  t{t:<6} loss={loss:.4}  {}", preview.join(" | ")).unwrap();
        }
    }
    out
}

/// `fds`: exact TANE mining, approximate mining at `g3 ≤ approx`, or —
/// with `score = rfi` — reliable mining at `F̂ ≥ theta` (branch-and-
/// bound pruned; `theta` defaults to [`DEFAULT_THETA`]). The `approx`
/// and `rfi` modes are mutually exclusive; both front ends reject the
/// combination before calling here, and `rfi` wins if it ever reaches
/// this function.
pub fn run_fds(
    ctx: &AnalysisCtx,
    approx: Option<f64>,
    max_lhs: Option<usize>,
    threads: usize,
    score: ScoreKind,
    theta: Option<f64>,
) -> String {
    let names = ctx.attr_names().to_vec();
    let mut out = String::new();
    if score == ScoreKind::Rfi {
        let theta = theta.unwrap_or(DEFAULT_THETA);
        let mut reliable = mine_reliable_ctx(
            ctx,
            ReliableOptions {
                theta,
                max_lhs,
                threads,
                prune: true,
            },
        );
        writeln!(
            out,
            "reliable dependencies (F̂ ≥ {theta}): {}",
            reliable.len()
        )
        .unwrap();
        reliable.sort_by(|a, b| b.score.total_cmp(&a.score).then(a.fd.cmp(&b.fd)));
        for f in reliable.iter().take(30) {
            writeln!(
                out,
                "  {:<44} F̂ = {:.4}  (plugin {:.4} − bias {:.4})  g3 = {:.4}",
                f.fd.display(&names),
                f.score,
                f.plugin,
                f.bias,
                f.g3
            )
            .unwrap();
        }
        return out;
    }
    match approx {
        Some(eps) => {
            let approx = mine_approximate_ctx(ctx, eps, max_lhs, threads);
            writeln!(
                out,
                "approximate dependencies (g3 ≤ {eps}): {}",
                approx.len()
            )
            .unwrap();
            let mut sorted = approx;
            sorted.sort_by(|a, b| a.error.total_cmp(&b.error));
            for f in sorted.iter().take(30) {
                writeln!(out, "  {:<44} g3 = {:.4}", f.fd.display(&names), f.error).unwrap();
            }
        }
        None => {
            let fds = dbmine_fdmine::mine_tane_ctx(ctx, TaneOptions { max_lhs, threads });
            let cover = minimum_cover(&fds);
            writeln!(
                out,
                "exact minimal dependencies: {} (cover: {})",
                fds.len(),
                cover.len()
            )
            .unwrap();
            for f in cover.iter().take(30) {
                writeln!(out, "  {}", f.display(&names)).unwrap();
            }
        }
    }
    out
}

/// `partition`: horizontal partitioning via LIMBO at `φ_T = phi`,
/// optionally forcing `k` clusters.
pub fn run_partition(
    ctx: &AnalysisCtx,
    phi: f64,
    k: Option<usize>,
    threads: usize,
    shards: Option<usize>,
) -> String {
    let rel = ctx.relation();
    let part = horizontal_partition_ctx(
        ctx,
        LimboParams::with_phi(phi).threads(threads).shards(shards),
        k,
        8,
    );
    let mut out = String::new();
    writeln!(
        out,
        "k = {} ({} Phase 1 summaries); information retained by clusters: {:.1}%",
        part.k,
        part.n_summaries,
        100.0 * (1.0 - part.relative_loss)
    )
    .unwrap();
    for (i, tuples) in part.partitions.iter().enumerate() {
        writeln!(
            out,
            "\npartition {} — {} tuples; sample:",
            i + 1,
            tuples.len()
        )
        .unwrap();
        for &t in tuples.iter().take(3) {
            let preview: Vec<&str> = (0..rel.n_attrs().min(6))
                .map(|a| rel.value_str(t, a))
                .collect();
            writeln!(out, "  {}", preview.join(" | ")).unwrap();
        }
    }
    out
}

/// `redesign`: iterated vertical decomposition by the top promoted
/// dependency.
///
/// Each step's remainder context is *derived* from its parent with
/// [`AnalysisCtx::derive_projected`] — the child's single-attribute
/// partitions are restrictions of the parent's cached ones, so no step
/// after the first rebuilds them from cells (bit-identity of derived
/// partitions is pinned by property tests in `dbmine-context`).
pub fn run_redesign(ctx: &AnalysisCtx, steps: usize, config: &MinerConfig) -> String {
    let miner = StructureMiner::new(*config);
    let mut out = String::new();
    let mut owned: Option<AnalysisCtx> = None;
    for step in 1..=steps {
        let cur: &AnalysisCtx = owned.as_ref().unwrap_or(ctx);
        let report = miner.analyze_ctx(cur);
        let Some(top) = report.ranked.iter().find(|r| r.fd.promoted) else {
            writeln!(out, "step {step}: no promoted dependency — stopping").unwrap();
            break;
        };
        let rel = cur.relation();
        let names = rel.attr_names().to_vec();
        // The same split as `dbmine_fdrank::decompose`, with the
        // remainder built as a derived context instead of a bare
        // relation.
        let s1_attrs = top.fd.lhs.union(top.fd.rhs);
        let s2_attrs = rel.all_attrs().minus(top.fd.rhs.minus(top.fd.lhs));
        let s1 = rel.project_distinct(s1_attrs, &format!("{}_S1", rel.name()));
        let child = cur.derive_projected(s2_attrs, &format!("{}_S2", rel.name()));
        let s2 = child.relation();
        let cells_before = rel.n_tuples() * rel.n_attrs();
        let cells_after = s1.n_tuples() * s1.n_attrs() + s2.n_tuples() * s2.n_attrs();
        let reduction = if cells_before == 0 {
            0.0
        } else {
            1.0 - cells_after as f64 / cells_before as f64
        };
        writeln!(
            out,
            "step {step}: split by {} → {} ({} × {}) + remainder ({} × {}), {:.1}% fewer cells",
            top.display(&names),
            s1.name(),
            s1.n_tuples(),
            s1.n_attrs(),
            s2.n_tuples(),
            s2.n_attrs(),
            100.0 * reduction
        )
        .unwrap();
        let done = s2.n_attrs() <= 2;
        owned = Some(child);
        if done {
            break;
        }
    }
    out
}

/// `mvds`: bounded multivalued-dependency mining.
pub fn run_mvds(rel: &Relation, max_lhs: usize) -> String {
    let names = rel.attr_names().to_vec();
    let mvds = dbmine_fdmine::mine_mvds(rel, max_lhs, true);
    let mut out = String::new();
    writeln!(
        out,
        "multivalued dependencies (|X| ≤ {max_lhs}, FD-implied excluded): {}",
        mvds.len()
    )
    .unwrap();
    for m in mvds.iter().take(30) {
        writeln!(out, "  {}", m.display(&names)).unwrap();
    }
    out
}

/// `joins`: Bellman-style cross-relation join candidates.
pub fn run_joins(left: &Relation, right: &Relation) -> String {
    let cands = dbmine_baselines::join_candidates(left, right, 0.3, 0.9);
    let mut out = String::new();
    writeln!(out, "join candidates ({}→{}):", left.name(), right.name()).unwrap();
    for c in cands.iter().take(20) {
        writeln!(
            out,
            "  {}.{} ~ {}.{}  jaccard {:.2}  containment {:.2}/{:.2}  ({} shared)",
            left.name(),
            left.attr_names()[c.left_attr],
            right.name(),
            right.attr_names()[c.right_attr],
            c.jaccard,
            c.left_containment,
            c.right_containment,
            c.shared
        )
        .unwrap();
    }
    out
}

/// The CLI per-command defaults, shared with the daemon so both front
/// ends resolve missing parameters identically.
pub fn analyze_config(
    phi_t: Option<f64>,
    phi_v: Option<f64>,
    psi: Option<f64>,
    max_lhs: Option<usize>,
    threads: usize,
    shards: Option<usize>,
    score: ScoreKind,
) -> MinerConfig {
    MinerConfig {
        phi_tuples: phi_t.unwrap_or(0.1),
        phi_values: phi_v.unwrap_or(0.0),
        psi: psi.unwrap_or(0.5),
        max_lhs,
        threads,
        shards,
        score,
        ..MinerConfig::default()
    }
}

/// The numeric command parameters both front ends range-check before any
/// work runs. `None` = not given; every command default is in range.
#[derive(Clone, Copy, Debug, Default)]
pub struct Params {
    /// Tuple-clustering accuracy `φ_T`.
    pub phi_t: Option<f64>,
    /// Value-clustering accuracy `φ_V`.
    pub phi_v: Option<f64>,
    /// FD-RANK threshold `ψ`.
    pub psi: Option<f64>,
    /// Approximate-FD bound on the `g3` error.
    pub approx: Option<f64>,
    /// Reliability threshold `θ`.
    pub theta: Option<f64>,
    /// Forced number of horizontal partitions.
    pub k: Option<usize>,
}

/// A parameter outside its accepted range.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct InvalidParam {
    /// The parameter, spelled as a daemon request field (`phi_t`); the
    /// CLI flag is the same name with `-` for `_` (`--phi-t`).
    pub name: &'static str,
    /// The accepted range, phrased to follow the name
    /// (`must be in [0, 1]`).
    pub rule: &'static str,
}

/// Checks every given parameter against its range: `phi_t`/`phi_v`
/// finite and ≥ 0, `psi` and `theta` in [0, 1], `approx` in [0, 1), and
/// `k` ≥ 1. NaN fails every check. Reports the first parameter out of
/// range, so a bad value is a typed error instead of a library panic.
pub fn check_params(p: &Params) -> Result<(), InvalidParam> {
    let phi = |x: f64| x.is_finite() && x >= 0.0;
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    let checks = [
        ("phi_t", "must be ≥ 0 and finite", p.phi_t.is_none_or(phi)),
        ("phi_v", "must be ≥ 0 and finite", p.phi_v.is_none_or(phi)),
        ("psi", "must be in [0, 1]", p.psi.is_none_or(unit)),
        (
            "approx",
            "must be ≥ 0 and < 1",
            p.approx.is_none_or(|e| (0.0..1.0).contains(&e)),
        ),
        ("theta", "must be in [0, 1]", p.theta.is_none_or(unit)),
        ("k", "must be at least 1", p.k != Some(0)),
    ];
    match checks.into_iter().find(|&(_, _, ok)| !ok) {
        Some((name, rule, _)) => Err(InvalidParam { name, rule }),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_datagen::{db2_sample, Db2Spec};
    use dbmine_relation::paper::figure4;

    #[test]
    fn redesign_derived_chain_matches_relation_rebuild() {
        // The derived-context redesign must print exactly what the old
        // fresh-context-per-step loop printed.
        let rel = db2_sample(&Db2Spec::default()).relation;
        let ctx = AnalysisCtx::of(&rel);
        let config = MinerConfig::default();
        let derived = run_redesign(&ctx, 3, &config);

        let mut expected = String::new();
        let mut current = rel;
        for step in 1..=3 {
            let c = AnalysisCtx::from(current);
            let report = StructureMiner::new(config).analyze_ctx(&c);
            let Some(top) = report.ranked.iter().find(|r| r.fd.promoted) else {
                writeln!(expected, "step {step}: no promoted dependency — stopping").unwrap();
                break;
            };
            let names = c.relation().attr_names().to_vec();
            let d = dbmine_fdrank::decompose(c.relation(), &top.fd);
            writeln!(
                expected,
                "step {step}: split by {} → {} ({} × {}) + remainder ({} × {}), {:.1}% fewer cells",
                top.display(&names),
                d.s1.name(),
                d.s1.n_tuples(),
                d.s1.n_attrs(),
                d.s2.n_tuples(),
                d.s2.n_attrs(),
                100.0 * d.storage_reduction()
            )
            .unwrap();
            current = d.s2;
            if current.n_attrs() <= 2 {
                break;
            }
        }
        assert_eq!(derived, expected);
    }

    #[test]
    fn run_analyze_renders_report() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        let out = run_analyze(
            &ctx,
            &analyze_config(None, None, None, None, 1, None, ScoreKind::G3),
        );
        assert!(out.contains("# column profile"));
        assert!(out.contains("# dependencies"));
    }

    #[test]
    fn run_fds_exact_approx_and_reliable() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        assert!(run_fds(&ctx, None, None, 1, ScoreKind::G3, None)
            .contains("exact minimal dependencies"));
        assert!(run_fds(&ctx, Some(0.3), None, 1, ScoreKind::G3, None)
            .contains("approximate dependencies"));
        let rfi = run_fds(&ctx, None, None, 1, ScoreKind::Rfi, Some(0.1));
        assert!(rfi.contains("reliable dependencies (F̂ ≥ 0.1)"), "{rfi}");
        // Scores print descending.
        let scores: Vec<f64> = rfi
            .lines()
            .skip(1)
            .filter_map(|l| l.split("F̂ = ").nth(1))
            .map(|s| s.split_whitespace().next().unwrap().parse().unwrap())
            .collect();
        assert!(!scores.is_empty());
        assert!(scores.windows(2).all(|w| w[0] >= w[1]), "{scores:?}");
    }

    #[test]
    fn store_backed_fds_is_byte_identical_and_never_materializes() {
        // The ledger contract: `fds` from a shard store — both g3 and
        // rfi scoring — and `analyze` print the exact bytes of the CSV
        // run while the chunk-backed context performs zero
        // materializations.
        use dbmine_relation::{csv, ShardedRelation};
        let rel = db2_sample(&Db2Spec::default()).relation;
        let dir = std::env::temp_dir().join("dbmine_render_ledger");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        let pid = std::process::id();
        let csv_path = dir.join(format!("db2_{pid}.csv"));
        let store_path = dir.join(format!("db2_{pid}.dbss"));
        csv::write_relation_path(&rel, &csv_path).expect("write csv");
        ShardedRelation::scan_csv_path_spill(&csv_path, 16, &store_path).expect("spill store");

        let mem = AnalysisCtx::from(csv::read_relation_path(&csv_path).expect("read csv"));
        let store = ShardedRelation::open_store(&store_path).expect("open store");
        let chunked = AnalysisCtx::from_chunks(store).expect("chunk-backed context");

        let g3_mem = run_fds(&mem, None, Some(2), 1, ScoreKind::G3, None);
        let g3_store = run_fds(&chunked, None, Some(2), 1, ScoreKind::G3, None);
        assert_eq!(g3_store, g3_mem);
        let rfi_mem = run_fds(&mem, None, Some(2), 1, ScoreKind::Rfi, Some(0.3));
        let rfi_store = run_fds(&chunked, None, Some(2), 1, ScoreKind::Rfi, Some(0.3));
        assert_eq!(rfi_store, rfi_mem);
        // So does the whole `analyze` pipeline, whose FD stage folds
        // from chunks at every n.
        let config = analyze_config(None, None, None, None, 1, None, ScoreKind::G3);
        assert_eq!(run_analyze(&chunked, &config), run_analyze(&mem, &config));

        assert_eq!(chunked.view_stats().materializations, 0);
        let _ = std::fs::remove_file(&csv_path);
        let _ = std::fs::remove_file(&store_path);
    }

    #[test]
    fn analyze_honours_max_lhs_like_fds() {
        let rel = db2_sample(&Db2Spec::default()).relation;
        let ctx = AnalysisCtx::of(&rel);
        let config = analyze_config(None, None, None, Some(1), 1, None, ScoreKind::G3);
        let analyze = run_analyze(&ctx, &config);
        assert!(
            analyze.contains("# dependencies: 83 mined, 25 in minimum cover"),
            "{analyze}"
        );
        let fds = run_fds(&ctx, None, Some(1), 1, ScoreKind::G3, None);
        assert!(
            fds.starts_with("exact minimal dependencies: 83 (cover: 25)"),
            "{fds}"
        );
        let report = StructureMiner::new(config).analyze_ctx(&ctx);
        assert_eq!(report.fds.len(), 83);
        assert!(report.fds.iter().all(|fd| fd.lhs.len() <= 1));
    }

    #[test]
    fn check_params_names_the_first_parameter_out_of_range() {
        assert_eq!(check_params(&Params::default()), Ok(()));
        let ok = Params {
            phi_t: Some(0.0),
            phi_v: Some(2.5),
            psi: Some(1.0),
            approx: Some(0.0),
            theta: Some(0.0),
            k: Some(1),
        };
        assert_eq!(check_params(&ok), Ok(()));
        let name_of = |p: Params| check_params(&p).unwrap_err().name;
        assert_eq!(
            name_of(Params {
                phi_t: Some(-1.0),
                ..ok
            }),
            "phi_t"
        );
        assert_eq!(
            name_of(Params {
                phi_v: Some(f64::INFINITY),
                ..ok
            }),
            "phi_v"
        );
        assert_eq!(
            name_of(Params {
                psi: Some(2.0),
                ..ok
            }),
            "psi"
        );
        assert_eq!(
            name_of(Params {
                approx: Some(1.0),
                ..ok
            }),
            "approx"
        );
        assert_eq!(
            name_of(Params {
                approx: Some(f64::NAN),
                ..ok
            }),
            "approx"
        );
        assert_eq!(
            name_of(Params {
                approx: Some(-0.1),
                ..ok
            }),
            "approx"
        );
        assert_eq!(
            name_of(Params {
                theta: Some(1.5),
                ..ok
            }),
            "theta"
        );
        assert_eq!(name_of(Params { k: Some(0), ..ok }), "k");
        assert_eq!(
            name_of(Params {
                phi_t: Some(f64::NAN),
                psi: Some(2.0),
                ..ok
            }),
            "phi_t"
        );
    }

    #[test]
    fn run_analyze_rfi_mode_shows_score_column() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        let out = run_analyze(
            &ctx,
            &analyze_config(None, None, None, None, 1, None, ScoreKind::Rfi),
        );
        assert!(out.contains("F̂="), "{out}");
    }
}
