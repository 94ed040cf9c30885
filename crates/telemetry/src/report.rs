//! Structured run reports: aggregation of raw span records into a tree,
//! schema-versioned JSON serialization, and a human-readable text
//! rendering. This module is feature-independent — with telemetry
//! compiled out it just ever sees empty reports.

use crate::span::RawSpan;
use crate::{CounterSnapshot, COUNTERS};
use std::collections::HashMap;

/// Version of the JSON layout emitted by [`RunReport::to_json`]. Bump
/// on any breaking change to field names or nesting (see DESIGN.md
/// "Telemetry" for the schema).
pub const SCHEMA_VERSION: u32 = 1;

/// One aggregated node of the span tree: all spans with the same name
/// under the same parent are merged (calls summed, times summed).
#[derive(Clone, Debug)]
pub struct ReportNode {
    pub name: &'static str,
    /// Number of raw spans merged into this node.
    pub calls: u64,
    /// Summed wall time of the merged spans.
    pub total_ms: f64,
    /// `total_ms` minus the total of direct children (clamped at 0).
    pub self_ms: f64,
    /// Counter deltas attributed to this node (including children).
    pub counters: CounterSnapshot,
    /// Allocation events observed during this node (including
    /// children); 0 unless the counting allocator is installed.
    pub alloc_events: u64,
    pub children: Vec<ReportNode>,
}

impl ReportNode {
    /// Depth-first search for the first node named `name`.
    pub fn find(&self, name: &str) -> Option<&ReportNode> {
        if self.name == name {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(name))
    }
}

/// The result of a [`crate::begin`]..[`crate::finish`] window: total
/// wall time, process-wide counter deltas, allocation summary, and the
/// aggregated span tree.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Whether the producing build had the `telemetry` feature on.
    pub compiled: bool,
    /// Wall time of the whole window.
    pub wall_ms: f64,
    /// Counter deltas over the window.
    pub counters: CounterSnapshot,
    /// Allocation events over the window (0 unless installed).
    pub alloc_events: u64,
    /// Peak live bytes above the window's starting watermark.
    pub alloc_peak_bytes: u64,
    /// Whether [`crate::alloc::CountingAlloc`] is the process global
    /// allocator (otherwise the alloc figures are vacuously 0).
    pub alloc_installed: bool,
    /// Aggregated span tree roots.
    pub roots: Vec<ReportNode>,
}

impl RunReport {
    /// The report produced when telemetry is compiled out.
    pub fn empty() -> RunReport {
        RunReport::build(Vec::new(), 0, CounterSnapshot::default(), 0, 0)
    }

    pub(crate) fn build(
        records: Vec<RawSpan>,
        wall_ns: u64,
        counters: CounterSnapshot,
        alloc_events: u64,
        alloc_peak_bytes: u64,
    ) -> RunReport {
        // Records arrive in drop order (children before parents). Index
        // by id, bucket by parent, and order siblings by id (creation
        // order) so aggregation is deterministic.
        let ids: HashMap<u64, usize> = records.iter().enumerate().map(|(i, r)| (r.id, i)).collect();
        let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
        let mut roots: Vec<usize> = Vec::new();
        for (i, r) in records.iter().enumerate() {
            match r.parent.filter(|p| ids.contains_key(p)) {
                // A parent opened before begin() (or never dropped)
                // is not in the record set; its children surface as
                // roots rather than vanish.
                Some(p) => children.entry(p).or_default().push(i),
                None => roots.push(i),
            }
        }
        let by_id = |idx: &Vec<usize>| {
            let mut v = idx.clone();
            v.sort_by_key(|&i| records[i].id);
            v
        };
        let roots = by_id(&roots);
        let root_nodes = aggregate(&roots, &records, &children);
        RunReport {
            compiled: crate::compiled(),
            wall_ms: wall_ns as f64 / 1e6,
            counters,
            alloc_events,
            alloc_peak_bytes,
            alloc_installed: crate::alloc::installed(),
            roots: root_nodes,
        }
    }

    /// Depth-first search across all roots for the first node named
    /// `name`.
    pub fn find(&self, name: &str) -> Option<&ReportNode> {
        self.roots.iter().find_map(|r| r.find(name))
    }

    /// Serialize to the schema-versioned JSON layout (see DESIGN.md) on
    /// one line, so a line-delimited daemon response can embed it as is.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push_str(&format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"telemetry_compiled\":{},\"wall_ms\":{:.3},\"counters\":{{",
            self.compiled, self.wall_ms
        ));
        for (i, c) in COUNTERS.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", c.name(), self.counters.get(*c)));
        }
        out.push_str(&format!(
            "}},\"alloc\":{{\"installed\":{},\"events\":{},\"peak_bytes\":{}}},\"spans\":[",
            self.alloc_installed, self.alloc_events, self.alloc_peak_bytes
        ));
        for (i, r) in self.roots.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_node(&mut out, r);
        }
        out.push_str("]}");
        out
    }

    /// Human-readable rendering: window totals, non-zero counters, and
    /// the top-`n` span names by summed self time (inverted view),
    /// followed by the span tree. This is what `--profile -` prints.
    pub fn render_text(&self, n: usize) -> String {
        let mut out = String::new();
        if !self.compiled {
            out.push_str(
                "telemetry: not compiled into this binary (build with the `telemetry` feature)\n",
            );
            return out;
        }
        out.push_str(&format!("run report: wall {:.3} ms\n", self.wall_ms));
        let nonzero = self.counters.nonzero();
        if !nonzero.is_empty() {
            out.push_str("counters:\n");
            for (name, v) in nonzero {
                out.push_str(&format!("  {name:<26} {v}\n"));
            }
        }
        if self.alloc_installed {
            out.push_str(&format!(
                "allocations: {} events, peak {} bytes above start\n",
                self.alloc_events, self.alloc_peak_bytes
            ));
        } else {
            out.push_str("allocations: counting allocator not installed\n");
        }
        let mut flat: Vec<(&str, f64, f64, u64)> = Vec::new();
        let mut index: HashMap<&str, usize> = HashMap::new();
        fn walk<'a>(
            node: &'a ReportNode,
            flat: &mut Vec<(&'a str, f64, f64, u64)>,
            index: &mut HashMap<&'a str, usize>,
        ) {
            let i = *index.entry(node.name).or_insert_with(|| {
                flat.push((node.name, 0.0, 0.0, 0));
                flat.len() - 1
            });
            flat[i].1 += node.self_ms;
            flat[i].2 += node.total_ms;
            flat[i].3 += node.calls;
            for c in &node.children {
                walk(c, flat, index);
            }
        }
        for r in &self.roots {
            walk(r, &mut flat, &mut index);
        }
        flat.sort_by(|a, b| b.1.total_cmp(&a.1));
        if !flat.is_empty() {
            out.push_str(&format!("top {} spans by self time:\n", n.min(flat.len())));
            out.push_str(&format!(
                "  {:>10}  {:>10}  {:>7}  name\n",
                "self_ms", "total_ms", "calls"
            ));
            for (name, self_ms, total_ms, calls) in flat.iter().take(n) {
                out.push_str(&format!(
                    "  {self_ms:>10.3}  {total_ms:>10.3}  {calls:>7}  {name}\n"
                ));
            }
            out.push_str("span tree:\n");
            for r in &self.roots {
                render_tree(&mut out, r, 1);
            }
        } else {
            out.push_str("no spans recorded (was telemetry::begin() called?)\n");
        }
        out
    }
}

fn aggregate(
    idx: &[usize],
    records: &[RawSpan],
    children: &HashMap<u64, Vec<usize>>,
) -> Vec<ReportNode> {
    // Group sibling spans by name, preserving first-creation order.
    let mut order: Vec<&'static str> = Vec::new();
    let mut groups: HashMap<&'static str, Vec<usize>> = HashMap::new();
    for &i in idx {
        let name = records[i].name;
        groups.entry(name).or_insert_with(|| {
            order.push(name);
            Vec::new()
        });
        groups.get_mut(name).unwrap().push(i);
    }
    let mut out = Vec::with_capacity(order.len());
    for name in order {
        let members = &groups[name];
        let mut total_ns: u64 = 0;
        let mut counters = CounterSnapshot::default();
        let mut alloc_events: u64 = 0;
        let mut child_idx: Vec<usize> = Vec::new();
        for &i in members {
            let r = &records[i];
            total_ns += r.wall_ns;
            for k in 0..crate::N_COUNTERS {
                counters.values[k] += r.counters.values[k];
            }
            alloc_events += r.alloc_events;
            if let Some(c) = children.get(&r.id) {
                child_idx.extend_from_slice(c);
            }
        }
        child_idx.sort_by_key(|&i| records[i].id);
        let kids = aggregate(&child_idx, records, children);
        let total_ms = total_ns as f64 / 1e6;
        let child_ms: f64 = kids.iter().map(|k| k.total_ms).sum();
        out.push(ReportNode {
            name,
            calls: members.len() as u64,
            total_ms,
            self_ms: (total_ms - child_ms).max(0.0),
            counters,
            alloc_events,
            children: kids,
        });
    }
    out
}

fn write_node(out: &mut String, node: &ReportNode) {
    out.push_str(&format!(
        "{{\"name\":\"{}\",\"calls\":{},\"total_ms\":{:.3},\"self_ms\":{:.3},\"counters\":{{",
        escape(node.name),
        node.calls,
        node.total_ms,
        node.self_ms
    ));
    for (i, (name, v)) in node.counters.nonzero().into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!("\"{name}\":{v}"));
    }
    out.push_str(&format!(
        "}},\"alloc_events\":{},\"children\":[",
        node.alloc_events
    ));
    for (i, c) in node.children.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_node(out, c);
    }
    out.push_str("]}");
}

fn render_tree(out: &mut String, node: &ReportNode, depth: usize) {
    let pad = "  ".repeat(depth);
    out.push_str(&format!(
        "{pad}{}: total {:.3} ms, self {:.3} ms, calls {}",
        node.name, node.total_ms, node.self_ms, node.calls
    ));
    let nz = node.counters.nonzero();
    if !nz.is_empty() {
        out.push_str(" [");
        for (i, (name, v)) in nz.into_iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("{name}={v}"));
        }
        out.push(']');
    }
    out.push('\n');
    for c in &node.children {
        render_tree(out, c, depth + 1);
    }
}

fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn raw(id: u64, parent: Option<u64>, name: &'static str, wall_ns: u64) -> RawSpan {
        RawSpan {
            id,
            parent,
            name,
            wall_ns,
            counters: CounterSnapshot::default(),
            alloc_events: 0,
        }
    }

    #[test]
    fn aggregates_siblings_by_name() {
        // root(1) with children a(2), a(3), b(4); drop order is
        // children first, like the real collector produces.
        let records = vec![
            raw(2, Some(1), "a", 2_000_000),
            raw(3, Some(1), "a", 3_000_000),
            raw(4, Some(1), "b", 1_000_000),
            raw(1, None, "root", 10_000_000),
        ];
        let rep = RunReport::build(records, 10_000_000, CounterSnapshot::default(), 0, 0);
        assert_eq!(rep.roots.len(), 1);
        let root = &rep.roots[0];
        assert_eq!(root.name, "root");
        assert_eq!(root.children.len(), 2);
        let a = root.find("a").unwrap();
        assert_eq!(a.calls, 2);
        assert!((a.total_ms - 5.0).abs() < 1e-9);
        assert!((root.self_ms - 4.0).abs() < 1e-9);
    }

    #[test]
    fn orphaned_children_become_roots() {
        // Parent id 99 never recorded (opened before begin()).
        let records = vec![raw(2, Some(99), "child", 1_000_000)];
        let rep = RunReport::build(records, 1_000_000, CounterSnapshot::default(), 0, 0);
        assert_eq!(rep.roots.len(), 1);
        assert_eq!(rep.roots[0].name, "child");
    }

    #[test]
    fn json_shape_parses_by_eye() {
        let records = vec![raw(1, None, "root", 1_500_000)];
        let rep = RunReport::build(records, 2_000_000, CounterSnapshot::default(), 0, 0);
        let json = rep.to_json();
        assert!(json.contains("\"schema_version\":1"));
        assert!(json.contains("\"wall_ms\":2.000"));
        assert!(json.contains("\"name\":\"root\""));
        assert!(json.contains("\"js_evals\":0"));
        // Balanced braces/brackets as a cheap well-formedness check.
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn text_render_mentions_top_spans() {
        let records = vec![
            raw(2, Some(1), "inner", 4_000_000),
            raw(1, None, "outer", 5_000_000),
        ];
        let rep = RunReport::build(records, 5_000_000, CounterSnapshot::default(), 0, 0);
        let text = rep.render_text(10);
        if crate::compiled() {
            assert!(text.contains("inner"));
            assert!(text.contains("outer"));
            assert!(text.contains("span tree"));
        } else {
            assert!(text.contains("not compiled"));
        }
    }

    #[test]
    fn escape_handles_specials() {
        assert_eq!(escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }
}
