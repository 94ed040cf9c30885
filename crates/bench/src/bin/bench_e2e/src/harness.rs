//! What every workload shares: the run settings, the ledger of attempted
//! and failed ops with their timing samples, and the metric lists a run
//! reports.

use crate::calib::{kernel_ms, KERNEL_REFERENCE_MS};
use crate::stats::{median, p10, percentile, quartiles, tail_percentile};
use crate::trace::Tracer;
use dbmine::server::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Input sizes of the three workloads.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    pub analyze_tuples: usize,
    pub analyze_relations: usize,
    pub store_tuples: usize,
    pub serve_tuples: usize,
    pub serve_relations: usize,
    pub serve_warmup: usize,
    /// Cap on timed requests per client (`None` = until the deadline).
    pub serve_requests: Option<usize>,
    /// Cap on timed batch iterations (`None` = until the deadline).
    pub batch_iterations: Option<usize>,
}

impl Sizes {
    pub const FULL: Sizes = Sizes {
        analyze_tuples: 2_500,
        analyze_relations: 16,
        store_tuples: 20_000,
        serve_tuples: 1_000,
        serve_relations: 8,
        serve_warmup: 25,
        serve_requests: None,
        batch_iterations: None,
    };

    /// `--smoke`: small enough that all three workloads, traced and
    /// untraced, finish in seconds.
    pub const SMOKE: Sizes = Sizes {
        analyze_tuples: 500,
        analyze_relations: 2,
        store_tuples: 5_000,
        serve_tuples: 300,
        serve_relations: 4,
        serve_warmup: 2,
        serve_requests: Some(20),
        batch_iterations: Some(2),
    };
}

/// One workload run's settings.
pub struct Run {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub sizes: Sizes,
    /// Scratch directory for generated inputs and stores; removed by the
    /// caller when the run ends.
    pub work: PathBuf,
    /// Directory holding the `dbmined` binary.
    pub bin_dir: PathBuf,
}

impl Run {
    pub fn file(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Runs `setup` at least three times, and up to 25 times while less
    /// than a second has gone by (a set-up of a few ms is too jittery to
    /// time thrice), each right after a calibration kernel, keeping the
    /// last result.
    pub fn set_up<S>(
        &self,
        ledger: &mut Ledger,
        mut setup: impl FnMut() -> Result<S, String>,
    ) -> Result<S, String> {
        let began = Instant::now();
        let mut last = None;
        while ledger.setup_s.len() < 3
            || (began.elapsed() < Duration::from_secs(1) && ledger.setup_s.len() < 25)
        {
            drop(last.take());
            let kernel = kernel_ms();
            let start = Instant::now();
            last = Some(setup()?);
            let s = start.elapsed().as_secs_f64();
            ledger.setup_s.push(s);
            ledger.setup_kernels.push(s * 1e3 / kernel);
        }
        Ok(last.expect("at least one set-up"))
    }
}

/// The seed of the `i`-th relation of a pool generated from `seed`.
pub fn member_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(i as u64)
}

pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

pub fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path)
        .map(|m| m.len())
        .map_err(|e| format!("cannot stat {}: {e}", path.display()))
}

/// How a workload's unit of work is composed: op kind and weight.
pub type Weights = Vec<(String, f64)>;

/// Σ weight × `stat(samples of kind)`, over the kinds that have samples,
/// scaled back up by the weight of kinds that have none (a rare request
/// bucket may draw no request in a short run).
fn weighted(map: &BTreeMap<String, Vec<f64>>, weights: &Weights, stat: fn(&[f64]) -> f64) -> f64 {
    let total: f64 = weights.iter().map(|(_, w)| w).sum();
    let (mut present, mut sum) = (0.0, 0.0);
    for (kind, w) in weights {
        if let Some(s) = map.get(kind).filter(|s| !s.is_empty()) {
            present += w;
            sum += w * stat(s);
        }
    }
    if present > 0.0 {
        sum * total / present
    } else {
        0.0
    }
}

/// Attempted/failed op accounting plus the timing and memory samples of
/// one run.
#[derive(Default)]
pub struct Ledger {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Wall seconds of each set-up, and the same in kernels.
    pub setup_s: Vec<f64>,
    pub setup_kernels: Vec<f64>,
    /// Wall ms per op kind, in the order measured.
    pub samples: BTreeMap<String, Vec<f64>>,
    /// The same ops as multiples of the calibration kernel timed next to
    /// them ([`crate::calib`]).
    pub costs: BTreeMap<String, Vec<f64>>,
    /// Peak MiB of each iteration: the live heap of its ops, or the
    /// daemon's resident high-water mark.
    pub peaks: Vec<f64>,
}

impl Ledger {
    /// Records one attempted op; a failed gate counts against it.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) -> bool {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            eprintln!("gate failed: {msg}");
            if self.failures.len() < 20 {
                self.failures.push(msg);
            }
        }
        ok
    }

    /// An op that could not run at all.
    pub fn fail(&mut self, msg: String) {
        self.check(false, || msg);
    }

    /// Records an op of `kind` that took `ms` of wall time and cost
    /// `cost_ms` of work (a batch op's wall time; the daemon's CPU time
    /// for a request) while the calibration kernel took `kernel_ms`.
    pub fn time(&mut self, kind: impl Into<String>, ms: f64, cost_ms: f64, kernel_ms: f64) {
        let kind = kind.into();
        self.costs
            .entry(kind.clone())
            .or_default()
            .push(cost_ms / kernel_ms);
        self.samples.entry(kind).or_default().push(ms);
    }

    /// The workload's unit of work in kernels: Σ weight × median cost
    /// over op kinds.
    pub fn op_cost(&self, weights: &Weights) -> f64 {
        weighted(&self.costs, weights, median)
    }

    /// How far `op_cost` moves between the first and second half of each
    /// kind's samples, relative to its value: the run's own estimate of
    /// the statistic's repeatability.
    pub fn op_cost_spread(&self, weights: &Weights) -> f64 {
        let half = |first: bool| {
            let halves = self
                .costs
                .iter()
                .map(|(k, s)| {
                    let (a, b) = s.split_at(s.len().div_ceil(2));
                    (k.clone(), if first { a } else { b }.to_vec())
                })
                .collect();
            weighted(&halves, weights, median)
        };
        let v = self.op_cost(weights);
        let (a, b) = (half(true), half(false));
        if v > 0.0 && a > 0.0 && b > 0.0 {
            (a - b).abs() / v
        } else {
            0.0
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// For end-to-end metrics: the run's own spread estimate (fraction
    /// of the value) and the summary of the underlying samples.
    pub spread: Option<f64>,
    pub samples: Option<Json>,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            spread: None,
            samples: None,
        }
    }
}

/// Summary of a sample list: n, p10, quartiles, median and the tail
/// percentile that keeps ten samples beyond it.
pub fn summary(samples: &[f64]) -> Json {
    let mut o = BTreeMap::new();
    let num = |x: f64| Json::Num(round6(x));
    o.insert("n".to_string(), Json::Num(samples.len() as f64));
    if let Some((q1, q3)) = quartiles(samples) {
        o.insert("p10".to_string(), num(p10(samples)));
        o.insert("q1".to_string(), num(q1));
        o.insert("median".to_string(), num(median(samples)));
        o.insert("q3".to_string(), num(q3));
    }
    if let Some(p) = tail_percentile(samples.len()) {
        o.insert("tail_percentile".to_string(), Json::Num(p));
        o.insert(
            "tail".to_string(),
            num(percentile(samples, p).unwrap_or(0.0)),
        );
    }
    Json::Obj(o)
}

/// Rounds to 6 significant decimals for readable result files (the
/// result line keeps every digit).
pub fn round6(x: f64) -> f64 {
    (x * 1e6).round() / 1e6
}

/// What one workload run produced.
pub struct Outcome {
    pub ledger: Ledger,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Op kind → summary of its raw wall-ms samples (and the set-ups'),
    /// for the result file.
    pub ops: Json,
    /// The traced run's spans and embedded program reports.
    pub trace: Option<Json>,
}

impl Outcome {
    pub fn new(ledger: Ledger) -> Outcome {
        let setup_ms: Vec<f64> = ledger.setup_s.iter().map(|s| s * 1e3).collect();
        let ops = Json::Obj(
            ledger
                .samples
                .iter()
                .map(|(k, v)| (k.to_string(), summary(v)))
                .chain([("setup".to_string(), summary(&setup_ms))])
                .collect(),
        );
        Outcome {
            ledger,
            end_to_end: Vec::new(),
            per_layer: Vec::new(),
            ops,
            trace: None,
        }
    }

    /// The end-to-end metrics every workload reports: set-up time at the
    /// reference machine speed, the calibrated cost of the unit of work,
    /// and the run's peak memory.
    pub fn end_to_end(&mut self, weights: &Weights) {
        let l = &self.ledger;
        let setups: Vec<f64> = l
            .setup_kernels
            .iter()
            .map(|k| k * KERNEL_REFERENCE_MS / 1e3)
            .collect();
        let mut setup = Metric::new("setup_s", "s", median(&setups));
        setup.spread = Some(relative_iqr(&setups));
        setup.samples = Some(summary(&setups));
        let mut op = Metric::new("op_cost", "kernels", l.op_cost(weights));
        op.spread = Some(l.op_cost_spread(weights));
        let mut peak = Metric::new(
            "peak_mib",
            "MiB",
            l.peaks.iter().copied().fold(0.0, f64::max),
        );
        peak.samples = Some(summary(&l.peaks));
        self.end_to_end = vec![setup, op, peak];
    }
}

/// IQR over median; 0 when undefined.
pub fn relative_iqr(samples: &[f64]) -> f64 {
    match quartiles(samples) {
        Some((q1, q3)) if median(samples) > 0.0 => (q3 - q1) / median(samples),
        _ => 0.0,
    }
}

/// The per-layer metric names, in report order. Times are per traced
/// iteration (ms) and also reported as `_share` of the iteration's
/// traced wall time; a layer a workload does not exercise reports 0.
pub const LAYER_TIMES: &[&str] = &[
    "relation.csv_read",
    "relation.spill",
    "relation.store_open",
    "relation.request_load",
    "context.build_partitions",
    "context.profiles",
    "context.tuple_views",
    "context.value_views",
    "context.lru",
    "limbo.tuple_dcfs",
    "limbo.value_dcfs",
    "limbo.phase1",
    "ib.assign",
    "ib.aib",
    "summaries.duplicate_tuples",
    "summaries.cluster_values",
    "summaries.group_attributes",
    "summaries.partition",
    "fdmine.tane",
    "fdmine.fdep",
    "fdmine.cover",
    "reliability.mine",
    "fdrank.rank",
    "render.format",
];

/// Per-layer metrics from a tracer's ops, grouped into iterations (each
/// a list of op ids). Times and counts are means per iteration; shares
/// are of the summed traced wall time.
pub fn layer_metrics(t: &Tracer, iterations: &[Vec<usize>]) -> Vec<Metric> {
    use dbmine::telemetry::Counter;
    let n = iterations.len().max(1) as f64;
    let ops: Vec<usize> = iterations.iter().flatten().copied().collect();
    let wall: f64 = ops.iter().map(|&op| t.root(op).ms()).sum();
    let share = |ms: f64| if wall > 0.0 { ms / wall } else { 0.0 };
    let sum = |f: &dyn Fn(usize) -> f64| ops.iter().map(|&op| f(op)).sum::<f64>();
    let note = |key: &str| sum(&|op| t.op_note(op, key));
    let counter = |span: &str, c: Counter| sum(&|op| t.counter(op, span, c) as f64);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    // A counter over each op's whole root span.
    let whole = |c: Counter| sum(&|op| t.counter(op, t.root(op).name, c) as f64);

    let mut out = Vec::new();
    for name in LAYER_TIMES {
        let ms = sum(&|op| t.total_ms(op, name));
        out.push(Metric::new(&format!("{name}_ms"), "ms", ms / n));
        out.push(Metric::new(&format!("{name}_share"), "fraction", share(ms)));
    }
    let unattributed = sum(&|op| t.unattributed_ms(op));
    out.push(Metric::new(
        "render.unattributed_ms",
        "ms",
        unattributed / n,
    ));
    out.push(Metric::new(
        "render.unattributed_frac",
        "fraction",
        share(unattributed),
    ));

    let objects = note("limbo.objects");
    let absorbs = counter("limbo.phase1", Counter::TreeAbsorbs);
    let nodes = counter("fdmine.tane", Counter::TaneLatticeNodes);
    let bounds = counter("reliability.mine", Counter::BnbBounds);
    let prunes = counter("reliability.mine", Counter::BnbPrunes);
    let counts: Vec<(&str, &'static str, f64)> = vec![
        (
            "relation.store_chunks_read",
            "count",
            whole(Counter::SpillChunksRead) / n,
        ),
        (
            "context.view_builds",
            "count",
            note("context.view_builds") / n,
        ),
        ("context.view_hits", "count", note("context.view_hits") / n),
        (
            "context.materializations",
            "count",
            note("context.materializations") / n,
        ),
        ("limbo.leaves", "count", note("limbo.leaves") / n),
        ("limbo.absorb_ratio", "fraction", ratio(absorbs, objects)),
        (
            "limbo.dcf_merges",
            "count",
            counter("limbo.phase1", Counter::DcfMerges) / n,
        ),
        ("ib.assign_pairs", "count", note("ib.assign_pairs") / n),
        ("ib.js_evals", "count", whole(Counter::JsEvals) / n),
        (
            "fdmine.partition_products",
            "count",
            counter("fdmine.tane", Counter::PartitionProducts) / n,
        ),
        ("fdmine.lattice_nodes", "count", nodes / n),
        (
            "fdmine.fds_per_node",
            "fraction",
            ratio(note("fdmine.fds"), nodes),
        ),
        (
            "fdmine.tane_peak_mib",
            "MiB",
            mib((note("fdmine.tane_peak_bytes") / n) as u64),
        ),
        (
            "fdmine.tane_allocs",
            "count",
            note("fdmine.tane_allocs") / n,
        ),
        (
            "reliability.rfi_evals",
            "count",
            counter("reliability.mine", Counter::RfiEvals) / n,
        ),
        ("reliability.bnb_bounds", "count", bounds / n),
        ("reliability.bnb_prunes", "count", prunes / n),
        ("reliability.prune_ratio", "fraction", ratio(prunes, bounds)),
        (
            "reliability.peak_mib",
            "MiB",
            mib((note("reliability.peak_bytes") / n) as u64),
        ),
    ];
    for (name, unit, v) in counts {
        out.push(Metric::new(name, unit, v));
    }
    out
}

/// Per-layer metrics a workload measures outside the span tree; each
/// workload reports the ones it does not exercise as 0.
pub const LAYER_EXTRAS: &[(&str, &str)] = &[
    ("relation.spill_mb_per_s", "MB/s"),
    ("relation.store_bytes_per_csv_byte", "ratio"),
    ("reliability.score_share", "fraction"),
    ("context.lru_hit_ratio", "fraction"),
    ("context.lru_evictions", "count"),
    ("context.warm_req_p50_ms", "ms"),
    ("context.cold_req_p50_ms", "ms"),
    ("server.req_p50_ms", "ms"),
    ("server.req_tail_ms", "ms"),
    ("server.handle_ms_p50", "ms"),
    ("server.transport_ms_p50", "ms"),
    ("server.response_kib_p50", "KiB"),
    ("telemetry.trace_overhead_frac", "fraction"),
];

/// Appends every [`LAYER_EXTRAS`] metric, taking values from `extras`.
pub fn push_extras(out: &mut Vec<Metric>, extras: &BTreeMap<&str, f64>) {
    assert!(
        extras
            .keys()
            .all(|k| LAYER_EXTRAS.iter().any(|(n, _)| n == k)),
        "unknown per-layer metric in {extras:?}"
    );
    for (name, unit) in LAYER_EXTRAS {
        out.push(Metric::new(
            name,
            unit,
            extras.get(name).copied().unwrap_or(0.0),
        ));
    }
}

/// `traced / untraced − 1` of the unit-of-work cost.
pub fn overhead(traced: f64, untraced: f64) -> f64 {
    if untraced > 0.0 {
        traced / untraced - 1.0
    } else {
        0.0
    }
}
