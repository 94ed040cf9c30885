//! FastFDs (Wyss, Giannella, Robertson — the paper's `[28]`): a
//! heuristic-driven, depth-first miner over *difference sets*.
//!
//! Where FDEP materializes maximal invalid dependencies and computes
//! hitting sets breadth-first, FastFDs searches covers depth-first with
//! a greedy attribute ordering (attributes covering the most remaining
//! difference sets first). Same output — all minimal FDs — via a third
//! independent code path, which the test suite cross-validates against
//! FDEP, TANE and the brute-force oracle.

use crate::agree::agree_sets;
use dbmine_fdmine::fd::normalize_fds;
use dbmine_fdmine::Fd;
use dbmine_relation::{AttrSet, Relation};

/// Mines all minimal non-trivial FDs of `rel` with FastFDs.
pub fn mine_fastfds(rel: &Relation) -> Vec<Fd> {
    let all = rel.all_attrs();
    // Difference sets: D(t1,t2) = R ∖ ag(t1,t2). NOT minimized globally —
    // a set dominated for one RHS can be the only witness for another
    // (minimization is sound only per-RHS, after removing the RHS).
    let diffs: Vec<AttrSet> = agree_sets(rel)
        .into_iter()
        .map(|ag| all.minus(ag))
        .filter(|d| !d.is_empty())
        .collect();

    let mut out = Vec::new();
    for a in 0..rel.n_attrs() {
        // D_A: difference sets containing A, with A removed, minimized.
        let d_a: Vec<AttrSet> = minimize(
            diffs
                .iter()
                .filter(|d| d.contains(a))
                .map(|d| d.without(a))
                .collect(),
        );
        if d_a.is_empty() {
            // No pair ever disagrees on A alone-or-with-others → A is
            // constant: ∅ → A.
            out.push(Fd::new(AttrSet::EMPTY, a));
            continue;
        }
        if d_a.iter().any(|d| d.is_empty()) {
            // Some pair disagrees *only* on A: nothing can determine it.
            continue;
        }
        let ordering = order_by_coverage(&d_a, all.without(a));
        let mut path = AttrSet::EMPTY;
        dfs(&d_a, &d_a, &ordering, &mut path, a, &mut out);
    }
    normalize_fds(out)
}

/// Keeps only inclusion-minimal sets.
fn minimize(mut sets: Vec<AttrSet>) -> Vec<AttrSet> {
    sets.sort_by_key(|s| s.len());
    let mut out: Vec<AttrSet> = Vec::with_capacity(sets.len());
    for s in sets {
        if !out.iter().any(|m| m.is_subset_of(s)) {
            out.push(s);
        }
    }
    out
}

/// Attributes of `candidates` ordered by how many of the remaining
/// difference sets they cover (descending), ties by index.
fn order_by_coverage(diffs: &[AttrSet], candidates: AttrSet) -> Vec<usize> {
    let mut attrs: Vec<(usize, usize)> = candidates
        .iter()
        .map(|attr| {
            let cover = diffs.iter().filter(|d| d.contains(attr)).count();
            (attr, cover)
        })
        .filter(|&(_, c)| c > 0)
        .collect();
    attrs.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    attrs.into_iter().map(|(a, _)| a).collect()
}

/// Depth-first search for minimal covers of `remaining`, following the
/// FastFDs ordering discipline: at each node only attributes *after* the
/// branch attribute (in the current ordering) are explored, which
/// enumerates every cover exactly once.
fn dfs(
    original: &[AttrSet],
    remaining: &[AttrSet],
    ordering: &[usize],
    path: &mut AttrSet,
    rhs: usize,
    out: &mut Vec<Fd>,
) {
    if remaining.is_empty() {
        // `path` covers everything; emit only if minimal w.r.t. the
        // original difference-set family.
        let minimal = path.iter().all(|attr| {
            let sub = path.without(attr);
            !original.iter().all(|d| !d.intersect(sub).is_empty())
        });
        if minimal {
            out.push(Fd::new(*path, rhs));
        }
        return;
    }
    for (i, &attr) in ordering.iter().enumerate() {
        let next: Vec<AttrSet> = remaining
            .iter()
            .filter(|d| !d.contains(attr))
            .copied()
            .collect();
        if next.len() == remaining.len() {
            continue; // attr covers nothing new
        }
        // Re-derive the ordering for the subtree from the tail.
        let tail: AttrSet = ordering[i + 1..].iter().copied().collect();
        let sub_ordering = order_by_coverage(&next, tail);
        // Dead end: remaining sets uncoverable by the tail.
        let coverable = next.iter().all(|d| !d.intersect(tail).is_empty());
        *path = path.with(attr);
        if next.is_empty() || coverable {
            dfs(original, &next, &sub_ordering, path, rhs, out);
        }
        *path = path.without(attr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::mine_brute;
    use crate::fdep::mine_fdep;
    use dbmine_context::AnalysisCtx;
    use dbmine_relation::paper::{figure1, figure4, figure5};
    use dbmine_relation::RelationBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    #[test]
    fn matches_oracle_on_paper_relations() {
        for rel in [figure1(), figure4(), figure5()] {
            let mut fast = mine_fastfds(&rel);
            let mut brute = mine_brute(&rel);
            fast.sort();
            brute.sort();
            assert_eq!(fast, brute, "mismatch on {}", rel.name());
        }
    }

    #[test]
    fn matches_fdep_on_random_relations() {
        let mut rng = StdRng::seed_from_u64(77);
        for trial in 0..30 {
            let m = rng.gen_range(2..=5);
            let n = rng.gen_range(2..=15);
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for _ in 0..n {
                let row: Vec<String> = (0..m)
                    .map(|a| format!("v{}_{}", a, rng.gen_range(0..3)))
                    .collect();
                let cells: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_row_strs(&cells);
            }
            let rel = b.build();
            let mut fast = mine_fastfds(&rel);
            let mut fdep = mine_fdep(&AnalysisCtx::of(&rel));
            fast.sort();
            fdep.sort();
            assert_eq!(fast, fdep, "trial {trial}");
        }
    }

    #[test]
    fn constant_column_yields_empty_lhs() {
        let rel = figure1();
        let fds = mine_fastfds(&rel);
        let city = rel.attr_id("City").unwrap();
        assert!(fds.contains(&Fd::new(AttrSet::EMPTY, city)));
    }

    #[test]
    fn minimize_keeps_minimal_only() {
        let sets = vec![
            [0usize, 1].into_iter().collect::<AttrSet>(),
            AttrSet::single(0),
            [0usize, 1, 2].into_iter().collect(),
        ];
        let m = minimize(sets);
        assert_eq!(m, vec![AttrSet::single(0)]);
    }

    #[test]
    fn ordering_prefers_high_coverage() {
        let diffs = vec![
            [0usize, 1].into_iter().collect::<AttrSet>(),
            [0usize, 2].into_iter().collect(),
        ];
        let ord = order_by_coverage(&diffs, AttrSet::full(3));
        assert_eq!(ord[0], 0); // attribute 0 covers both sets
    }
}
