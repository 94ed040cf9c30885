//! `--compare BASE.json HEAD.json`: one row per workload × end-to-end
//! metric, judged against the bounds in `BENCHMARK.json`.

use dbmine::server::{parse, Json};
use std::fmt::Write as _;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Improved,
    WithinBound,
    Regressed,
    /// The runs' own spread is wider than the bound: the data cannot
    /// tell a change from noise.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::WithinBound => "within bound",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How much worse `head` is than `base` as a share of `base` (negative
/// when better).
pub fn worsening(base: f64, head: f64, lower_is_better: bool) -> f64 {
    let diff = if lower_is_better {
        head - base
    } else {
        base - head
    };
    if base != 0.0 {
        diff / base.abs()
    } else if diff == 0.0 {
        0.0
    } else {
        diff.signum() * f64::INFINITY
    }
}

/// The verdict on one metric: unresolved when either side's spread
/// exceeds the bound, otherwise regressed/improved when the medians
/// differ by more than the bound.
pub fn verdict(base: f64, head: f64, spread: f64, bound: f64, lower_is_better: bool) -> Verdict {
    if spread > bound {
        return Verdict::Unresolved;
    }
    let w = worsening(base, head, lower_is_better);
    if w > bound {
        Verdict::Regressed
    } else if w < -bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// Failed ops may not become more frequent at all.
pub fn error_verdict(base_frac: f64, head_frac: f64) -> Verdict {
    if head_frac > base_frac {
        Verdict::Regressed
    } else if head_frac < base_frac {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    }
}

/// One end-to-end metric of `BENCHMARK.json`.
pub struct Bound {
    pub name: String,
    pub unit: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    parse(&text).map_err(|e| format!("{path}: {e}"))
}

pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let Some(Json::Arr(metrics)) = benchmark.get("end_to_end") else {
        return Err("BENCHMARK.json has no end_to_end list".to_string());
    };
    metrics
        .iter()
        .map(|m| {
            let s = |k: &str| m.get(k).and_then(Json::as_str).map(str::to_string);
            Ok(Bound {
                name: s("name").ok_or("end_to_end entry without name")?,
                unit: s("unit").unwrap_or_default(),
                lower_is_better: s("better").as_deref() != Some("higher"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry without bound")?,
            })
        })
        .collect()
}

fn num(j: Option<&Json>) -> Option<f64> {
    j.and_then(Json::as_f64)
}

/// `value [q1–q3]` of one side — or `value ±spread` for a metric whose
/// samples have no single distribution — or `-` when it is missing.
fn cell(m: Option<&Json>) -> String {
    let Some(m) = m else { return "-".to_string() };
    let v = num(m.get("value")).unwrap_or(f64::NAN);
    let s = m.get("samples");
    match (
        num(s.and_then(|s| s.get("q1"))),
        num(s.and_then(|s| s.get("q3"))),
        num(m.get("spread")),
    ) {
        (Some(q1), Some(q3), _) => format!("{v:.4} [{q1:.4}–{q3:.4}]"),
        (_, _, Some(spread)) => format!("{v:.4} ±{:.1}%", 100.0 * spread),
        _ => format!("{v:.4}"),
    }
}

/// The comparison table and whether anything regressed.
pub fn compare(benchmark: &Json, base: &Json, head: &Json) -> Result<(String, bool), String> {
    let bounds = bounds(benchmark)?;
    let workloads = |j: &Json| match j.get("workloads") {
        Some(Json::Obj(w)) => Ok(w.clone()),
        _ => Err("result file has no workloads object".to_string()),
    };
    let (bw, hw) = (workloads(base)?, workloads(head)?);
    let mut out = String::new();
    let mut regressed = false;
    writeln!(
        out,
        "{:<20} {:<16} {:>30} {:>30} {:>9} {:>7}  verdict",
        "workload", "metric", "base", "head", "delta", "bound"
    )
    .expect("write to String");
    for (name, b) in &bw {
        let Some(h) = hw.get(name) else {
            writeln!(out, "{name:<20} missing from head").expect("write to String");
            regressed = true;
            continue;
        };
        for bound in &bounds {
            let metric = |w: &Json| {
                w.get("end_to_end")
                    .and_then(|e| e.get(&bound.name))
                    .cloned()
            };
            let (bm, hm) = (metric(b), metric(h));
            let (Some(bv), Some(hv)) = (
                num(bm.as_ref().and_then(|m| m.get("value"))),
                num(hm.as_ref().and_then(|m| m.get("value"))),
            ) else {
                writeln!(out, "{name:<20} {:<16} missing", bound.name).expect("write to String");
                regressed = true;
                continue;
            };
            let spread =
                |m: &Option<Json>| num(m.as_ref().and_then(|m| m.get("spread"))).unwrap_or(0.0);
            let v = verdict(
                bv,
                hv,
                spread(&bm).max(spread(&hm)),
                bound.bound,
                bound.lower_is_better,
            );
            regressed |= v == Verdict::Regressed;
            writeln!(
                out,
                "{name:<20} {:<16} {:>30} {:>30} {:>+8.1}% {:>6.0}%  {}",
                format!("{} ({})", bound.name, bound.unit),
                cell(bm.as_ref()),
                cell(hm.as_ref()),
                100.0 * worsening(bv, hv, true),
                100.0 * bound.bound,
                v.as_str()
            )
            .expect("write to String");
        }
        let frac = |w: &Json| num(w.get("error_frac")).unwrap_or(1.0);
        let v = error_verdict(frac(b), frac(h));
        regressed |= v == Verdict::Regressed;
        writeln!(
            out,
            "{name:<20} {:<16} {:>30} {:>30} {:>9} {:>7}  {}",
            "error_frac",
            format!("{:.4}", frac(b)),
            format!("{:.4}", frac(h)),
            "",
            "0",
            v.as_str()
        )
        .expect("write to String");
    }
    Ok((out, regressed))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        // Lower is better, 10% bound.
        assert_eq!(
            verdict(100.0, 105.0, 0.01, 0.10, true),
            Verdict::WithinBound
        );
        assert_eq!(verdict(100.0, 111.0, 0.01, 0.10, true), Verdict::Regressed);
        assert_eq!(verdict(100.0, 85.0, 0.01, 0.10, true), Verdict::Improved);
        // Exactly at the bound is still within it.
        assert_eq!(verdict(100.0, 110.0, 0.0, 0.10, true), Verdict::WithinBound);
        // Higher is better flips the direction.
        assert_eq!(verdict(100.0, 85.0, 0.01, 0.10, false), Verdict::Regressed);
        assert_eq!(verdict(100.0, 115.0, 0.01, 0.10, false), Verdict::Improved);
        // A spread wider than the bound leaves the change unresolved.
        assert_eq!(verdict(100.0, 150.0, 0.2, 0.10, true), Verdict::Unresolved);
        // A zero base only stays within bound if the head is zero too.
        assert_eq!(verdict(0.0, 0.0, 0.0, 0.10, true), Verdict::WithinBound);
        assert_eq!(verdict(0.0, 1.0, 0.0, 0.10, true), Verdict::Regressed);
    }

    #[test]
    fn any_rise_in_errors_regresses() {
        assert_eq!(error_verdict(0.0, 0.0), Verdict::WithinBound);
        assert_eq!(error_verdict(0.0, 0.001), Verdict::Regressed);
        assert_eq!(error_verdict(0.01, 0.0), Verdict::Improved);
    }

    fn result(op_ms: f64, spread: f64, error_frac: f64) -> Json {
        parse(&format!(
            "{{\"workloads\":{{\"w\":{{\"error_frac\":{error_frac},\"end_to_end\":{{\"op_ms\":\
             {{\"value\":{op_ms},\"spread\":{spread}}}}}}}}}}}"
        ))
        .unwrap()
    }

    #[test]
    fn table_reports_regressions_and_error_rises() {
        let bench = parse(
            "{\"end_to_end\":[{\"name\":\"op_ms\",\"unit\":\"ms\",\"better\":\"lower\",\"bound\":0.1}]}",
        )
        .unwrap();
        let (table, bad) =
            compare(&bench, &result(100.0, 0.01, 0.0), &result(104.0, 0.01, 0.0)).unwrap();
        assert!(!bad, "{table}");
        assert!(table.contains("within bound"), "{table}");
        let (table, bad) =
            compare(&bench, &result(100.0, 0.01, 0.0), &result(120.0, 0.01, 0.0)).unwrap();
        assert!(bad && table.contains("regressed"), "{table}");
        let (_, bad) =
            compare(&bench, &result(100.0, 0.01, 0.0), &result(100.0, 0.01, 0.5)).unwrap();
        assert!(bad, "an error-rate rise must fail the comparison");
        let (table, bad) =
            compare(&bench, &result(100.0, 0.3, 0.0), &result(120.0, 0.01, 0.0)).unwrap();
        assert!(!bad && table.contains("unresolved"), "{table}");
    }
}
