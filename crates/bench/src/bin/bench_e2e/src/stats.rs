//! Order statistics for the timings and the span arithmetic behind the
//! per-layer self times.

/// The `p`-th percentile (0 < p ≤ 100) by the nearest-rank rule: the
/// smallest sample with at least `p`% of the samples at or below it, so
/// the result is always a measured value. `None` for no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank(p, sorted.len()).clamp(1, sorted.len()) - 1])
}

/// The nearest rank of the `p`-th percentile among `n` samples (1-based),
/// immune to the float error in products like 0.999 · 10000.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0) * n as f64 - 1e-9).ceil() as usize
}

/// The 10th percentile (nearest rank). 0 for no samples.
pub fn p10(samples: &[f64]) -> f64 {
    percentile(samples, 10.0).unwrap_or(0.0)
}

/// The median (nearest rank). 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    percentile(samples, 50.0).unwrap_or(0.0)
}

/// The highest percentile of {50, 90, 99, 99.9} that leaves at least
/// ten samples above it under the nearest-rank rule, so p99 needs
/// n ≥ 1000. `None` below 20 samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    [99.9, 99.0, 90.0, 50.0]
        .into_iter()
        .find(|&p| n.saturating_sub(rank(p, n)) >= 10)
}

/// First and third quartile by Python's `statistics.quantiles(values,
/// n=4)` (the default exclusive method), by which the benchmark's
/// run-to-run spread is judged. A single sample is its own quartiles.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => None,
        1 => Some((s[0], s[0])),
        n => {
            let at = |j: usize| {
                // Position j·(n+1)/4, 1-based, linearly interpolated.
                let m = (n + 1) as f64 * j as f64 / 4.0;
                let lo = (m.floor() as usize).clamp(1, n - 1);
                let frac = m - lo as f64;
                s[lo - 1] + (s[lo] - s[lo - 1]) * frac
            };
            Some((at(1), at(3)))
        }
    }
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover. Children may overlap each other and may stick out
/// of the parent; only their union inside the parent counts.
pub fn self_time(parent: (f64, f64), children: &[(f64, f64)]) -> f64 {
    let (start, end) = parent;
    let mut clipped: Vec<(f64, f64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| e > s)
        .collect();
    clipped.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut cur: Option<(f64, f64)> = None;
    for (s, e) in clipped {
        cur = match cur {
            Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                covered += ce - cs;
                Some((s, e))
            }
            None => Some((s, e)),
        };
    }
    if let Some((cs, ce)) = cur {
        covered += ce - cs;
    }
    (end - start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_samples() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 10.0), Some(1.0));
        assert_eq!(percentile(&xs, 50.0), Some(5.0));
        assert_eq!(percentile(&xs, 90.0), Some(9.0));
        assert_eq!(percentile(&xs, 100.0), Some(10.0));
        assert_eq!(percentile(&[], 50.0), None);
        // Order of the input does not matter.
        assert_eq!(p10(&[5.0, 3.0, 4.0]), 3.0);
        assert_eq!(median(&[5.0, 3.0, 4.0]), 4.0);
    }

    #[test]
    fn tail_rule_leaves_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(1200), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        for n in [20, 100, 1000, 1200, 10_000] {
            let p = tail_percentile(n).unwrap();
            assert!(n - rank(p, n) >= 10, "n = {n}");
        }
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some((1.0, 3.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[7.0]), Some((7.0, 7.0)));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(self_time((0.0, 10.0), &[]), 10.0);
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 3.0), (5.0, 6.0)]), 7.0);
        // Overlapping children count once.
        assert_eq!(self_time((0.0, 10.0), &[(1.0, 4.0), (2.0, 5.0)]), 6.0);
        // Nested and touching children.
        assert_eq!(
            self_time((0.0, 10.0), &[(1.0, 5.0), (2.0, 3.0), (5.0, 6.0)]),
            5.0
        );
        // Parts outside the parent are clipped.
        assert_eq!(self_time((2.0, 8.0), &[(0.0, 3.0), (7.0, 12.0)]), 4.0);
        assert_eq!(self_time((0.0, 10.0), &[(0.0, 10.0)]), 0.0);
    }
}
