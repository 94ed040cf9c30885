//! The command implementations shared by the `dbmine` CLI and the
//! `dbmined` serving daemon.
//!
//! Each `run_*` function executes one command against an [`AnalysisCtx`]
//! and returns the exact text the CLI prints to stdout — the daemon
//! embeds the same string in its JSON responses, so "daemon output is
//! bit-identical to the single-shot CLI" is a structural property, not a
//! test-only coincidence.
//!
//! The command grammar lives here too: [`COMMANDS`] lists each command,
//! the parameters it reads and their defaults, and [`Command::parse`]
//! reads, defaults and checks them from either front end's [`Source`].
//! The front ends keep only their transport and their spelling of a
//! [`ParamError`].

use crate::{MinerConfig, StructureMiner};
use dbmine_context::AnalysisCtx;
use dbmine_fdmine::{mine_approximate_ctx, minimum_cover, TaneOptions};
use dbmine_fdrank::ScoreKind;
use dbmine_limbo::LimboParams;
use dbmine_relation::AttrSet;
use dbmine_reliability::{mine_reliable_ctx, ReliableOptions, DEFAULT_THETA};
use dbmine_summaries::{find_duplicate_tuples_ctx, horizontal_partition_ctx};
use std::collections::HashMap;
use std::fmt::Write;

/// `analyze`: the full structure-mining pipeline, rendered.
pub fn run_analyze(ctx: &AnalysisCtx, config: &MinerConfig) -> String {
    let report = StructureMiner::new(*config).analyze_ctx(ctx);
    report.render_with(ctx.attr_names(), ctx.dict())
}

/// Each of the tuples `ids` as its first `min(6, m)` cells joined by
/// ` | `, all read in one [`AnalysisCtx::select_rows`].
fn previews<'a>(ctx: &AnalysisCtx, ids: impl Iterator<Item = &'a usize>) -> HashMap<usize, String> {
    let mut ids: Vec<u32> = ids.map(|&t| t as u32).collect();
    ids.sort_unstable();
    ids.dedup();
    let rows = ctx.select_rows(&ids, AttrSet::full(ctx.n_attrs().min(6)), "preview");
    let mut out = HashMap::new();
    for (r, &t) in ids.iter().enumerate() {
        let cells: Vec<&str> = (0..rows.n_attrs()).map(|a| rows.value_str(r, a)).collect();
        out.insert(t as usize, cells.join(" | "));
    }
    out
}

/// `duplicates`: LIMBO tuple clustering at accuracy `φ_T = phi`.
pub fn run_duplicates(ctx: &AnalysisCtx, phi: f64, threads: usize) -> String {
    let report = find_duplicate_tuples_ctx(ctx, LimboParams::with_phi(phi).threads(threads));
    let mut out = String::new();
    writeln!(
        out,
        "φT = {phi}: {} candidate groups (threshold τ = {:.3e})",
        report.groups.len(),
        report.threshold
    )
    .unwrap();
    let preview = previews(
        ctx,
        report.groups.iter().flat_map(|g| g.tuples.iter().take(8)),
    );
    for (i, g) in report.groups.iter().enumerate() {
        writeln!(out, "\ngroup {} ({} tuples):", i + 1, g.tuples.len()).unwrap();
        for (&t, &loss) in g.tuples.iter().zip(&g.losses).take(8) {
            writeln!(out, "  t{t:<6} loss={loss:.4}  {}", preview[&t]).unwrap();
        }
    }
    out
}

/// `fds`: exact TANE mining, approximate mining at `g3 ≤ approx`, or —
/// with `score = rfi` — reliable mining at `F̂ ≥ theta` (branch-and-
/// bound pruned on every level but the last two of a bounded walk;
/// `theta` defaults to [`DEFAULT_THETA`]). The `approx` and `rfi` modes
/// are mutually exclusive; [`Command::parse`] rejects the combination,
/// and `rfi` wins if it ever reaches this function.
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
                ..Default::default()
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
/// optionally forcing `k` clusters. `_shards` is ignored: kept for
/// `bench_e2e`; the benchmark PR deletes it.
pub fn run_partition(
    ctx: &AnalysisCtx,
    phi: f64,
    k: Option<usize>,
    threads: usize,
    _shards: Option<usize>,
) -> String {
    let part = horizontal_partition_ctx(ctx, LimboParams::with_phi(phi).threads(threads), k, 8);
    let mut out = String::new();
    writeln!(
        out,
        "k = {} ({} Phase 1 summaries); information retained by clusters: {:.1}%",
        part.k,
        part.n_summaries,
        100.0 * (1.0 - part.relative_loss)
    )
    .unwrap();
    let preview = previews(ctx, part.partitions.iter().flat_map(|p| p.iter().take(3)));
    for (i, tuples) in part.partitions.iter().enumerate() {
        writeln!(
            out,
            "\npartition {} — {} tuples; sample:",
            i + 1,
            tuples.len()
        )
        .unwrap();
        for t in tuples.iter().take(3) {
            writeln!(out, "  {}", preview[t]).unwrap();
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
        let names = cur.attr_names();
        // The same split as `dbmine_fdrank::decompose`, with the
        // remainder built as a derived context instead of a bare
        // relation.
        // Ranking memoized S1's size, the distinct count of π_{X∪Y}.
        let s1_attrs = top.fd.attrs();
        let s1_tuples = cur.projection_distinct(s1_attrs);
        let s2_attrs = cur.all_attrs().minus(top.fd.rhs.minus(top.fd.lhs));
        let child = cur.derive_projected(s2_attrs, &format!("{}_S2", cur.name()));
        let cells_before = cur.n_tuples() * cur.n_attrs();
        let cells_after = s1_tuples * s1_attrs.len() + child.n_tuples() * child.n_attrs();
        let reduction = if cells_before == 0 {
            0.0
        } else {
            1.0 - cells_after as f64 / cells_before as f64
        };
        writeln!(
            out,
            "step {step}: split by {} → {}_S1 ({} × {}) + remainder ({} × {}), {:.1}% fewer cells",
            top.display(names),
            cur.name(),
            s1_tuples,
            s1_attrs.len(),
            child.n_tuples(),
            child.n_attrs(),
            100.0 * reduction
        )
        .unwrap();
        let done = child.n_attrs() <= 2;
        owned = Some(child);
        if done {
            break;
        }
    }
    out
}

/// `mvds`: bounded multivalued-dependency mining.
pub fn run_mvds(ctx: &AnalysisCtx, max_lhs: usize) -> String {
    let names = ctx.attr_names();
    let mvds = dbmine_fdmine::mine_mvds(ctx, max_lhs, true);
    let mut out = String::new();
    writeln!(
        out,
        "multivalued dependencies (|X| ≤ {max_lhs}, FD-implied excluded): {}",
        mvds.len()
    )
    .unwrap();
    for m in mvds.iter().take(30) {
        writeln!(out, "  {}", m.display(names)).unwrap();
    }
    out
}

/// `joins`: Bellman-style cross-relation join candidates, compared over
/// each side's per-column distinct values.
pub fn run_joins(left: &AnalysisCtx, right: &AnalysisCtx) -> String {
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

/// The `analyze` configuration for the given parameters, each `None`
/// resolved to its [`COMMANDS`] default. `_shards` is ignored: kept for
/// `bench_e2e`; the benchmark PR deletes it.
pub fn analyze_config(
    phi_t: Option<f64>,
    phi_v: Option<f64>,
    psi: Option<f64>,
    max_lhs: Option<usize>,
    threads: usize,
    _shards: Option<usize>,
    score: ScoreKind,
) -> MinerConfig {
    Params {
        phi_t: phi_t.unwrap_or(DEFAULTS.phi_t),
        phi_v: phi_v.unwrap_or(DEFAULTS.phi_v),
        psi: psi.unwrap_or(DEFAULTS.psi),
        max_lhs,
        threads,
        score,
        ..DEFAULTS
    }
    .miner_config()
}

/// A parameter's value type; it also names the parameter's placeholder
/// in the usage synopsis.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// A real number (`F`).
    Real,
    /// A non-negative integer (`N`).
    Count,
    /// An FD quality score, `g3` or `rfi` (`S`).
    Score,
}

/// A parameter value, read by a front end as its parameter's [`Kind`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Value {
    Real(f64),
    Count(usize),
    Score(ScoreKind),
}

/// One command parameter.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Param {
    /// The name, spelled as a daemon request field (`phi_t`); the CLI
    /// flag is the same name with `-` for `_` (`--phi-t`).
    pub name: &'static str,
    /// The value type.
    pub kind: Kind,
}

const fn param(name: &'static str, kind: Kind) -> Param {
    Param { name, kind }
}

const PHI_T: Param = param("phi_t", Kind::Real);
const PHI_V: Param = param("phi_v", Kind::Real);
const PSI: Param = param("psi", Kind::Real);
const APPROX: Param = param("approx", Kind::Real);
const THETA: Param = param("theta", Kind::Real);
const K: Param = param("k", Kind::Count);
const STEPS: Param = param("steps", Kind::Count);
const MAX_LHS: Param = param("max_lhs", Kind::Count);
const THREADS: Param = param("threads", Kind::Count);
const SCORE: Param = param("score", Kind::Score);

/// Every parameter some command reads.
pub const PARAMS: &[Param] = &[
    PHI_T, PHI_V, PSI, APPROX, THETA, K, STEPS, MAX_LHS, THREADS, SCORE,
];

/// One command's parameters, each resolved to its given value or the
/// command's default.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Params {
    phi_t: f64,
    phi_v: f64,
    psi: f64,
    approx: Option<f64>,
    theta: Option<f64>,
    k: Option<usize>,
    steps: usize,
    max_lhs: Option<usize>,
    threads: usize,
    score: ScoreKind,
}

/// The defaults every command shares; a [`COMMANDS`] row overrides the
/// few that differ. `None` means unset: exact FDs (`approx`), the
/// reliable miner's own default `θ` ([`run_fds`]), an automatic `k` and no
/// LHS bound.
const DEFAULTS: Params = Params {
    phi_t: 0.1,
    phi_v: 0.0,
    psi: 0.5,
    approx: None,
    theta: None,
    k: None,
    steps: 3,
    max_lhs: None,
    threads: 1,
    score: ScoreKind::G3,
};

impl Params {
    /// Stores `value`, which the source read as `name`'s [`Kind`].
    fn set(&mut self, name: &str, value: Value) {
        match (name, value) {
            ("phi_t", Value::Real(x)) => self.phi_t = x,
            ("phi_v", Value::Real(x)) => self.phi_v = x,
            ("psi", Value::Real(x)) => self.psi = x,
            ("approx", Value::Real(x)) => self.approx = Some(x),
            ("theta", Value::Real(x)) => self.theta = Some(x),
            ("k", Value::Count(n)) => self.k = Some(n),
            ("steps", Value::Count(n)) => self.steps = n,
            ("max_lhs", Value::Count(n)) => self.max_lhs = Some(n),
            ("threads", Value::Count(n)) => self.threads = n,
            ("score", Value::Score(s)) => self.score = s,
            _ => unreachable!("{value:?} is not a value of parameter `{name}`"),
        }
    }

    fn miner_config(&self) -> MinerConfig {
        MinerConfig {
            phi_tuples: self.phi_t,
            phi_values: self.phi_v,
            psi: self.psi,
            max_lhs: self.max_lhs,
            threads: self.threads,
            score: self.score,
            ..MinerConfig::default()
        }
    }
}

/// The most worker threads a command may ask for (`0` = all cores): a
/// larger count from outside input would spawn that many threads.
const MAX_THREADS: usize = 256;

/// Checks every parameter against its range: `phi_t`/`phi_v` finite and
/// ≥ 0, `psi` and `theta` in [0, 1], `approx` in [0, 1), `k` and
/// `steps` ≥ 1, and `threads` ≤ [`MAX_THREADS`]. NaN fails every
/// check. Every default is in range, so the first parameter out of
/// range is a given one.
fn check_params(p: &Params) -> Result<(), ParamError> {
    let phi = |x: f64| x.is_finite() && x >= 0.0;
    let unit = |x: f64| (0.0..=1.0).contains(&x);
    let checks = [
        ("phi_t", "must be ≥ 0 and finite", phi(p.phi_t)),
        ("phi_v", "must be ≥ 0 and finite", phi(p.phi_v)),
        ("psi", "must be in [0, 1]", unit(p.psi)),
        (
            "approx",
            "must be ≥ 0 and < 1",
            p.approx.is_none_or(|e| (0.0..1.0).contains(&e)),
        ),
        ("theta", "must be in [0, 1]", p.theta.is_none_or(unit)),
        ("k", "must be at least 1", p.k != Some(0)),
        ("steps", "must be at least 1", p.steps >= 1),
        ("threads", "must be at most 256", p.threads <= MAX_THREADS),
    ];
    match checks.into_iter().find(|&(_, _, ok)| !ok) {
        Some((name, rule, _)) => Err(ParamError::Range { name, rule }),
        None => Ok(()),
    }
}

/// One command of the grammar both front ends parse.
#[derive(Debug)]
pub struct Spec {
    /// The command name.
    pub name: &'static str,
    /// Whether `dbmined` serves it; `mvds` and `joins` are CLI-only.
    pub served: bool,
    /// The parameters it reads, in synopsis order.
    pub params: &'static [Param],
    defaults: Params,
    run: fn(&Params, &AnalysisCtx, Option<&AnalysisCtx>) -> String,
}

impl Spec {
    /// The parameter `name`, if this command reads it.
    pub fn param(&self, name: &str) -> Option<Param> {
        self.params.iter().copied().find(|p| p.name == name)
    }

    /// The usage synopsis of its parameters: `[--phi-t F] [--threads N] …`.
    pub fn synopsis(&self) -> Vec<String> {
        self.params
            .iter()
            .map(|p| {
                let placeholder = match p.kind {
                    Kind::Real => "F",
                    Kind::Count => "N",
                    Kind::Score => "S",
                };
                format!("[--{} {placeholder}]", p.name.replace('_', "-"))
            })
            .collect()
    }
}

/// The command grammar: every command, the parameters it reads, the
/// defaults that differ from the ones every command shares, and the body
/// it runs.
pub const COMMANDS: &[Spec] = &[
    Spec {
        name: "analyze",
        served: true,
        params: &[PHI_T, PHI_V, PSI, MAX_LHS, SCORE, THREADS],
        defaults: DEFAULTS,
        run: |p, ctx, _| run_analyze(ctx, &p.miner_config()),
    },
    Spec {
        name: "duplicates",
        served: true,
        params: &[PHI_T, THREADS],
        defaults: DEFAULTS,
        run: |p, ctx, _| run_duplicates(ctx, p.phi_t, p.threads),
    },
    Spec {
        name: "fds",
        served: true,
        params: &[APPROX, SCORE, THETA, MAX_LHS, THREADS],
        defaults: DEFAULTS,
        run: |p, ctx, _| run_fds(ctx, p.approx, p.max_lhs, p.threads, p.score, p.theta),
    },
    Spec {
        name: "mvds",
        served: false,
        params: &[MAX_LHS],
        defaults: Params {
            max_lhs: Some(2),
            ..DEFAULTS
        },
        // An LHS holds at most every attribute, so no bound is that one.
        run: |p, ctx, _| run_mvds(ctx, p.max_lhs.unwrap_or(ctx.attr_names().len())),
    },
    Spec {
        name: "joins",
        served: false,
        params: &[],
        defaults: DEFAULTS,
        run: |_, ctx, with| with.map_or_else(String::new, |w| run_joins(ctx, w)),
    },
    Spec {
        name: "partition",
        served: true,
        params: &[K, PHI_T, THREADS],
        defaults: Params {
            phi_t: 0.5,
            ..DEFAULTS
        },
        run: |p, ctx, _| run_partition(ctx, p.phi_t, p.k, p.threads, None),
    },
    Spec {
        name: "redesign",
        served: true,
        params: &[STEPS, PHI_T, PHI_V, PSI, MAX_LHS, SCORE, THREADS],
        defaults: Params {
            phi_t: 0.0,
            ..DEFAULTS
        },
        run: |p, ctx, _| run_redesign(ctx, p.steps, &p.miner_config()),
    },
];

/// The command named `name`.
pub fn command(name: &str) -> Option<&'static Spec> {
    COMMANDS.iter().find(|c| c.name == name)
}

/// Where a front end's parameters come from: CLI flags or request
/// fields.
pub trait Source {
    /// The names of the given parameters, spelled as request fields.
    fn names(&self) -> Vec<&str>;
    /// The value given for `name`, read as `kind`; `None` if it is not
    /// a value of that kind.
    fn value(&self, name: &str, kind: Kind) -> Option<Value>;
}

/// Why a command's parameters were refused. Each front end spells it in
/// its own words.
#[derive(Clone, Debug, PartialEq)]
pub enum ParamError {
    /// The command does not read this parameter.
    Unread(String),
    /// The value is not of the parameter's kind.
    Type(Param),
    /// The value is out of the parameter's range; `rule` is phrased to
    /// follow the name (`must be in [0, 1]`).
    Range {
        name: &'static str,
        rule: &'static str,
    },
    /// `approx` (g3 mining) was given with score `rfi`.
    ApproxWithRfi,
    /// `theta` was given without score `rfi`.
    ThetaWithoutRfi,
}

impl ParamError {
    /// The parameter the error names.
    pub fn name(&self) -> &str {
        match self {
            ParamError::Unread(name) => name,
            ParamError::Type(p) => p.name,
            ParamError::Range { name, .. } => name,
            ParamError::ApproxWithRfi => APPROX.name,
            ParamError::ThetaWithoutRfi => THETA.name,
        }
    }
}

/// A command with its parameters read, defaulted and checked.
#[derive(Clone, Copy, Debug)]
pub struct Command {
    spec: &'static Spec,
    params: Params,
}

impl Command {
    /// Reads `spec`'s parameters from `source`, each defaulted when not
    /// given, and checks them in one order: every given name is one the
    /// command reads, every value is of its parameter's [`Kind`], every
    /// value is in range, `approx` does not come with score `rfi`, and
    /// `theta` comes with score `rfi`.
    pub fn parse(spec: &'static Spec, source: &impl Source) -> Result<Command, ParamError> {
        let given = source
            .names()
            .into_iter()
            .map(|name| {
                spec.param(name)
                    .ok_or_else(|| ParamError::Unread(name.to_string()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut params = spec.defaults;
        for p in given {
            let value = source.value(p.name, p.kind).ok_or(ParamError::Type(p))?;
            params.set(p.name, value);
        }
        check_params(&params)?;
        if params.approx.is_some() && params.score == ScoreKind::Rfi {
            return Err(ParamError::ApproxWithRfi);
        }
        if params.theta.is_some() && params.score != ScoreKind::Rfi {
            return Err(ParamError::ThetaWithoutRfi);
        }
        Ok(Command { spec, params })
    }

    /// The command name.
    pub fn name(&self) -> &'static str {
        self.spec.name
    }

    /// Runs the command against `ctx` and returns the exact stdout text.
    /// `with` is the second relation of `joins`; every other command
    /// ignores it.
    pub fn run(&self, ctx: &AnalysisCtx, with: Option<&AnalysisCtx>) -> String {
        (self.spec.run)(&self.params, ctx, with)
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
            let c = AnalysisCtx::of(&current);
            let report = StructureMiner::new(config).analyze_ctx(&c);
            let Some(top) = report.ranked.iter().find(|r| r.fd.promoted) else {
                writeln!(expected, "step {step}: no promoted dependency — stopping").unwrap();
                break;
            };
            let names = current.attr_names().to_vec();
            let d = dbmine_fdrank::decompose(&current, &top.fd);
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
        // The ledger contract: every command from a shard store prints
        // the exact bytes of the CSV run while the chunk-backed context
        // performs zero materializations. The store's 16-tuple chunks
        // make previews, redesign selections and joins cross chunk
        // boundaries.
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
        // The row-reading commands select their rows from the chunks.
        let dups = run_duplicates(&mem, 0.9, 1);
        assert!(dups.contains("\ngroup 1 ("), "{dups}");
        assert_eq!(run_duplicates(&chunked, 0.9, 1), dups);
        assert_eq!(
            run_partition(&chunked, 0.5, Some(3), 1, None),
            run_partition(&mem, 0.5, Some(3), 1, None)
        );
        for score in [ScoreKind::G3, ScoreKind::Rfi] {
            let config = analyze_config(Some(0.0), None, None, None, 1, None, score);
            let redesign = run_redesign(&mem, 2, &config);
            assert!(redesign.starts_with("step 1: split by"), "{redesign}");
            assert_eq!(run_redesign(&chunked, 2, &config), redesign);
        }
        let joins = run_joins(&mem, &mem);
        assert!(joins.lines().count() > 1, "{joins}");
        assert_eq!(run_joins(&chunked, &chunked), joins);
        assert_eq!(run_joins(&chunked, &mem), joins);

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
        assert_eq!(check_params(&DEFAULTS), Ok(()));
        let ok = Params {
            phi_t: 0.0,
            phi_v: 2.5,
            psi: 1.0,
            approx: Some(0.0),
            theta: Some(0.0),
            k: Some(1),
            steps: 1,
            ..DEFAULTS
        };
        assert_eq!(check_params(&ok), Ok(()));
        let name_of = |p: Params| check_params(&p).unwrap_err().name().to_string();
        assert_eq!(name_of(Params { phi_t: -1.0, ..ok }), "phi_t");
        assert_eq!(
            name_of(Params {
                phi_v: f64::INFINITY,
                ..ok
            }),
            "phi_v"
        );
        assert_eq!(name_of(Params { psi: 2.0, ..ok }), "psi");
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
        assert_eq!(name_of(Params { steps: 0, ..ok }), "steps");
        assert_eq!(
            check_params(&Params { threads: 256, ..ok }),
            Ok(()),
            "256 threads is the most a command may ask for"
        );
        assert_eq!(name_of(Params { threads: 257, ..ok }), "threads");
        assert_eq!(
            name_of(Params {
                phi_t: f64::NAN,
                psi: 2.0,
                ..ok
            }),
            "phi_t"
        );
    }

    #[test]
    fn every_command_default_is_in_range() {
        for spec in COMMANDS {
            assert_eq!(check_params(&spec.defaults), Ok(()), "{}", spec.name);
        }
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
