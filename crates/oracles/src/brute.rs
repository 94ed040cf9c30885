//! Brute-force FD enumeration, for validating the real miners.
//!
//! Checks every candidate `X → A` directly against the instance; only
//! usable for small `m`, which is exactly its job: a trustworthy oracle
//! in tests and property checks.

use crate::fd::minimal_only;
use dbmine_fdmine::check::fd_holds;
use dbmine_fdmine::Fd;
use dbmine_relation::{AttrSet, Relation};

/// Enumerates all minimal non-trivial FDs with `|LHS| ≤ max_lhs`.
pub fn mine_brute_bounded(rel: &Relation, max_lhs: usize) -> Vec<Fd> {
    let m = rel.n_attrs();
    let mut out = Vec::new();
    for a in 0..m {
        let mut found: Vec<AttrSet> = Vec::new();
        // Enumerate candidate LHSs by increasing size so minimality is a
        // simple superset check against already-found LHSs.
        for size in 0..=max_lhs.min(m - 1) {
            for lhs in subsets_of_size(m, size) {
                if lhs.contains(a) {
                    continue;
                }
                if found.iter().any(|f| f.is_subset_of(lhs)) {
                    continue;
                }
                if fd_holds(rel, lhs, a) {
                    found.push(lhs);
                    out.push(Fd::new(lhs, a));
                }
            }
        }
    }
    minimal_only(out)
}

/// Enumerates all minimal non-trivial FDs (exponential in `m`).
pub fn mine_brute(rel: &Relation) -> Vec<Fd> {
    mine_brute_bounded(rel, rel.n_attrs().saturating_sub(1))
}

/// All attribute subsets of the given size over `m` attributes.
fn subsets_of_size(m: usize, size: usize) -> Vec<AttrSet> {
    let mut out = Vec::new();
    let mut current = Vec::with_capacity(size);
    fn rec(m: usize, size: usize, start: usize, current: &mut Vec<usize>, out: &mut Vec<AttrSet>) {
        if current.len() == size {
            out.push(current.iter().copied().collect());
            return;
        }
        for a in start..m {
            current.push(a);
            rec(m, size, a + 1, current, out);
            current.pop();
        }
    }
    rec(m, size, 0, &mut current, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::figure4;

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn subsets_counts() {
        assert_eq!(subsets_of_size(4, 0), vec![AttrSet::EMPTY]);
        assert_eq!(subsets_of_size(4, 2).len(), 6);
        assert_eq!(subsets_of_size(4, 4).len(), 1);
    }

    #[test]
    fn figure4_brute() {
        let fds = mine_brute(&figure4());
        assert!(fds.contains(&Fd::new(set(&[0]), 1)));
        assert!(fds.contains(&Fd::new(set(&[2]), 1)));
        // All results minimal: no found LHS contains another for same RHS.
        for f in &fds {
            for g in &fds {
                if f != g && f.rhs == g.rhs {
                    assert!(!f.lhs.is_proper_subset_of(g.lhs) || !fds.contains(f));
                }
            }
        }
    }

    #[test]
    fn bounded_enumeration_respects_limit() {
        let fds = mine_brute_bounded(&figure4(), 1);
        assert!(fds.iter().all(|f| f.lhs.len() <= 1));
    }
}
