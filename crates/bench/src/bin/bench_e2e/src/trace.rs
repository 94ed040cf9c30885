//! The benchmark's own span recorder for traced replays.
//!
//! Spans are recorded around the calls the benchmark makes into each
//! layer's public functions — the program itself is not instrumented
//! further. Each span keeps its name, parent, start/end in µs since the
//! recorder was created, the op it belongs to, and the deltas of the
//! program's telemetry counters over its interval. Everything stays in
//! memory until the run writes `spans_<workload>.json`.

use crate::stats::self_time;
use dbmine::server::{parse, report_json_compact, Json};
use dbmine::telemetry::{self, Counter, CounterSnapshot, RunReport};
use std::collections::BTreeMap;
use std::time::Instant;

/// One finished span.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub op: usize,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub counters: CounterSnapshot,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

/// In-memory span recorder. Ops are numbered from 0; a span opened
/// outside [`Tracer::op`] belongs to no op and is rejected.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<(usize, f64, CounterSnapshot)>,
    next_id: usize,
    op: Option<usize>,
    n_ops: usize,
    /// Quantities a replay knows directly (objects inserted, leaves,
    /// pairs compared), per op and name.
    notes: Vec<BTreeMap<&'static str, f64>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            next_id: 0,
            op: None,
            n_ops: 0,
            notes: Vec::new(),
        }
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// Records one op: a root span `name` around `f`. Returns the op id
    /// with `f`'s result.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> (usize, R) {
        assert!(self.op.is_none(), "ops do not nest");
        let op = self.n_ops;
        self.n_ops += 1;
        self.notes.push(BTreeMap::new());
        self.op = Some(op);
        let r = self.span(name, f);
        self.op = None;
        (op, r)
    }

    /// Records a span `name` around `f`, nested under the innermost open
    /// span of the current op.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let op = self.op.expect("spans are recorded inside an op");
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map(|s| s.0);
        let before = telemetry::snapshot();
        let start_us = self.now_us();
        self.stack.push((id, start_us, before));
        let r = f(self);
        let end_us = self.now_us();
        let (_, _, before) = self.stack.pop().expect("span stack balanced");
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_us,
            end_us,
            counters: telemetry::snapshot().delta(&before),
        });
        r
    }

    /// Adds `v` to the note `key` of the current op.
    pub fn note(&mut self, key: &'static str, v: f64) {
        let op = self.op.expect("notes are recorded inside an op");
        *self.notes[op].entry(key).or_insert(0.0) += v;
    }

    pub fn op_note(&self, op: usize, key: &str) -> f64 {
        self.notes[op].get(key).copied().unwrap_or(0.0)
    }

    fn op_spans(&self, op: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.op == op)
    }

    /// The op's root span.
    pub fn root(&self, op: usize) -> &Span {
        self.op_spans(op)
            .find(|s| s.parent.is_none())
            .expect("every op has a root span")
    }

    /// Summed duration (ms) of the op's spans named `name`.
    pub fn total_ms(&self, op: usize, name: &str) -> f64 {
        self.op_spans(op)
            .filter(|s| s.name == name)
            .map(Span::ms)
            .sum()
    }

    /// Summed counter delta over the op's spans named `name` (or over the
    /// whole op for the root's name).
    pub fn counter(&self, op: usize, name: &str, c: Counter) -> u64 {
        self.op_spans(op)
            .filter(|s| s.name == name)
            .map(|s| s.counters.get(c))
            .sum()
    }

    /// The part of the op's wall time that no replayed stage covers: the
    /// root's self time.
    pub fn unattributed_ms(&self, op: usize) -> f64 {
        let root = self.root(op);
        let children: Vec<(f64, f64)> = self
            .op_spans(op)
            .filter(|s| s.parent == Some(root.id))
            .map(|s| (s.start_us, s.end_us))
            .collect();
        self_time((root.start_us, root.end_us), &children) / 1e3
    }

    /// All spans as JSON objects, in the order they closed.
    pub fn to_json(&self) -> Json {
        let spans = self
            .spans
            .iter()
            .map(|s| {
                let mut o = BTreeMap::new();
                o.insert("id".to_string(), Json::Num(s.id as f64));
                o.insert(
                    "parent".to_string(),
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                );
                o.insert("op".to_string(), Json::Num(s.op as f64));
                o.insert("name".to_string(), Json::Str(s.name.to_string()));
                o.insert("start_us".to_string(), Json::Num(s.start_us.round()));
                o.insert("end_us".to_string(), Json::Num(s.end_us.round()));
                let counters = s
                    .counters
                    .nonzero()
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), Json::Num(v as f64)))
                    .collect();
                o.insert("counters".to_string(), Json::Obj(counters));
                Json::Obj(o)
            })
            .collect();
        Json::Arr(spans)
    }
}

/// The program's own span tree of one traced op, embedded next to the
/// benchmark's spans for cross-checking.
fn report_json(report: &RunReport) -> Json {
    parse(&report_json_compact(report)).expect("run reports serialize to valid JSON")
}

/// The traced run's record: the benchmark's spans plus the last program
/// report of each op kind.
pub fn trace_json(t: &Tracer, reports: BTreeMap<&'static str, RunReport>) -> Json {
    let mut o = BTreeMap::new();
    o.insert("spans".to_string(), t.to_json());
    o.insert(
        "program_reports".to_string(),
        Json::Obj(
            reports
                .iter()
                .map(|(k, r)| (k.to_string(), report_json(r)))
                .collect(),
        ),
    );
    Json::Obj(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_op() {
        let mut t = Tracer::new();
        let (op, v) = t.op("op.x", |t| {
            t.span("a", |t| t.span("b", |_| 1))
                + t.span("c", |t| {
                    t.note("n", 2.0);
                    2
                })
        });
        assert_eq!(v, 3);
        assert_eq!(op, 0);
        let root = t.root(op);
        assert_eq!(root.name, "op.x");
        let a = t.spans.iter().find(|s| s.name == "a").unwrap();
        let b = t.spans.iter().find(|s| s.name == "b").unwrap();
        assert_eq!(a.parent, Some(root.id));
        assert_eq!(b.parent, Some(a.id));
        assert!(t.unattributed_ms(op) >= 0.0);
        assert!(t.unattributed_ms(op) <= root.ms());
        assert_eq!(t.op_note(op, "n"), 2.0);
        let (op2, _) = t.op("op.x", |_| ());
        assert_eq!(op2, 1);
        assert_eq!(t.total_ms(op2, "a"), 0.0);
    }
}
