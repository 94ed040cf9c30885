//! FDEP (Savnik & Flach): negative cover → minimal valid dependencies.
//!
//! The paper: *"FDEP first computes all maximal invalid dependencies by
//! pairwise comparison of all tuples and from this set it computes the
//! minimal valid dependencies."*
//!
//! For a fixed RHS attribute `A`, the invalid left-hand sides are exactly
//! the subsets of agree sets that exclude `A`; their maximal elements
//! form the negative cover. A candidate `X → A` is valid iff `X` is *not*
//! contained in any maximal invalid set — equivalently, `X` intersects
//! the complement (within `R∖{A}`) of every maximal set. The minimal
//! valid LHSs are therefore the minimal hitting sets of those
//! complements, which we compute with the incremental minimal-transversal
//! construction.

use crate::agree::{agree_sets_from, maximal_sets};
use dbmine_context::AnalysisCtx;
use dbmine_fdmine::Fd;
use dbmine_relation::AttrSet;
use std::collections::HashSet;

/// Mines all minimal, non-trivial functional dependencies of the
/// context's relation. The agree sets come from the context's cached
/// single-attribute partitions; no cell is read.
///
/// ```
/// use dbmine_context::AnalysisCtx;
/// use dbmine_fdmine::Fd;
/// use dbmine_oracles::mine_fdep;
/// use dbmine_relation::AttrSet;
/// let rel = dbmine_relation::paper::figure4();
/// let fds = mine_fdep(&AnalysisCtx::of(&rel));
/// // C → B holds on the instance (x always pairs with 2).
/// assert!(fds.contains(&Fd::new(AttrSet::single(2), 1)));
/// ```
pub fn mine_fdep(ctx: &AnalysisCtx) -> Vec<Fd> {
    let parts = ctx.attr_partitions_with(1);
    from_agree_sets(ctx.n_attrs(), &agree_sets_from(ctx.n_tuples(), &parts))
}

fn from_agree_sets(m: usize, agrees: &HashSet<AttrSet>) -> Vec<Fd> {
    let all = AttrSet::full(m);
    let mut out = Vec::new();
    for a in 0..m {
        // Maximal invalid LHS sets for RHS a.
        let invalid: Vec<AttrSet> = maximal_sets(
            agrees
                .iter()
                .copied()
                .filter(|s| !s.contains(a))
                .map(|s| s.minus(AttrSet::single(a))),
        );
        // Difference sets: a valid LHS must hit every one of these.
        let universe = all.without(a);
        let differences: Vec<AttrSet> = invalid.iter().map(|s| universe.minus(*s)).collect();
        for lhs in minimal_hitting_sets(&differences, universe) {
            out.push(Fd::new(lhs, a));
        }
    }
    dbmine_fdmine::fd::normalize_fds(out)
}

/// All minimal hitting sets (transversals) of `sets`, drawn from
/// `universe`.
///
/// Incremental construction: maintain the minimal transversals of the
/// prefix; to add a set `D`, keep the transversals already hitting `D`
/// and extend each non-hitting one with every element of `D`, then prune
/// non-minimal results. If any `D` is empty there is no hitting set.
/// With zero sets, the empty set is the unique (vacuous) transversal —
/// which matches FD semantics: no invalid dependency means `∅ → A` holds
/// (attribute `A` is constant).
pub fn minimal_hitting_sets(sets: &[AttrSet], universe: AttrSet) -> Vec<AttrSet> {
    let mut transversals: Vec<AttrSet> = vec![AttrSet::EMPTY];
    for &d in sets {
        let d = d.intersect(universe);
        if d.is_empty() {
            return Vec::new();
        }
        let (hitting, missing): (Vec<AttrSet>, Vec<AttrSet>) = transversals
            .into_iter()
            .partition(|t| !t.intersect(d).is_empty());
        let mut next = hitting;
        for t in missing {
            for e in d.iter() {
                let candidate = t.with(e);
                // Keep only if minimal w.r.t. the sets that already hit d.
                if !next
                    .iter()
                    .any(|m| m.is_subset_of(candidate) && *m != candidate)
                {
                    next.push(candidate);
                }
            }
        }
        // Full minimality sweep (extensions can dominate one another).
        next.sort_by_key(|s| s.len());
        let mut pruned: Vec<AttrSet> = Vec::with_capacity(next.len());
        for s in next {
            if !pruned.iter().any(|m| m.is_subset_of(s)) {
                pruned.push(s);
            }
        }
        transversals = pruned;
    }
    transversals.sort();
    transversals.dedup();
    transversals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::mine_brute;
    use dbmine_relation::paper::{figure1, figure4, figure5};
    use dbmine_relation::RelationBuilder;

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn hitting_sets_basic() {
        // Sets {0,1}, {1,2} over {0,1,2}: minimal transversals {1}, {0,2}.
        let hs = minimal_hitting_sets(&[set(&[0, 1]), set(&[1, 2])], set(&[0, 1, 2]));
        assert_eq!(hs.len(), 2);
        assert!(hs.contains(&set(&[1])));
        assert!(hs.contains(&set(&[0, 2])));
    }

    #[test]
    fn hitting_sets_empty_family_is_vacuous() {
        let hs = minimal_hitting_sets(&[], set(&[0, 1]));
        assert_eq!(hs, vec![AttrSet::EMPTY]);
    }

    #[test]
    fn hitting_sets_with_empty_member_impossible() {
        let hs = minimal_hitting_sets(&[AttrSet::EMPTY], set(&[0, 1]));
        assert!(hs.is_empty());
    }

    #[test]
    fn ctx_path_matches_relation_path() {
        // Agree sets from the context's cached partitions vs. agree sets
        // built straight from the relation.
        for rel in [figure1(), figure4(), figure5()] {
            let ctx = dbmine_context::AnalysisCtx::of(&rel);
            let mut via_ctx = mine_fdep(&ctx);
            let mut via_rel = from_agree_sets(rel.n_attrs(), &crate::agree::agree_sets(&rel));
            via_ctx.sort();
            via_rel.sort();
            assert_eq!(via_ctx, via_rel, "mismatch on {}", rel.name());
        }
    }

    #[test]
    fn ctx_path_reuses_cached_partitions() {
        let rel = figure4();
        let ctx = dbmine_context::AnalysisCtx::of(&rel);
        for a in 0..rel.n_attrs() {
            ctx.attr_partition(a);
        }
        let builds = ctx.view_stats().builds;
        mine_fdep(&ctx);
        assert_eq!(
            ctx.view_stats().builds,
            builds,
            "warm FDEP must not rebuild partitions"
        );
    }

    #[test]
    fn figure4_fds() {
        // C → B holds in Figure 4 (p→1, r→1, x→2); A → B holds too
        // (a→1, w/y/z→2).
        let rel = figure4();
        let fds = mine_fdep(&AnalysisCtx::of(&rel));
        assert!(fds.contains(&Fd::new(set(&[2]), 1)), "C→B missing: {fds:?}");
        assert!(fds.contains(&Fd::new(set(&[0]), 1)), "A→B missing");
        // B does not determine C (2 maps to x but 1 maps to p and r).
        assert!(!fds.iter().any(|f| f.rhs == 2 && f.lhs == set(&[1])));
    }

    #[test]
    fn figure5_breaks_c_to_b() {
        // In Figure 5 the dependency C → B "becomes approximate": x maps
        // to both 1 (t2) and 2 (t3..t5).
        let rel = figure5();
        let fds = mine_fdep(&AnalysisCtx::of(&rel));
        assert!(!fds.contains(&Fd::new(set(&[2]), 1)));
    }

    #[test]
    fn matches_brute_force_on_paper_relations() {
        for rel in [figure1(), figure4(), figure5()] {
            let mut fdep = mine_fdep(&AnalysisCtx::of(&rel));
            let mut brute = mine_brute(&rel);
            fdep.sort();
            brute.sort();
            assert_eq!(fdep, brute, "mismatch on {}", rel.name());
        }
    }

    #[test]
    fn constant_column_gives_empty_lhs() {
        let rel = figure1(); // City is constant
        let fds = mine_fdep(&AnalysisCtx::of(&rel));
        let city = rel.attr_id("City").unwrap();
        assert!(fds.contains(&Fd::new(AttrSet::EMPTY, city)));
    }

    #[test]
    fn key_determines_everything() {
        let mut b = RelationBuilder::new("keyed", &["K", "X", "Y"]);
        b.push_row_strs(&["k1", "x1", "y1"]);
        b.push_row_strs(&["k2", "x1", "y2"]);
        b.push_row_strs(&["k3", "x2", "y1"]);
        let rel = b.build();
        let fds = mine_fdep(&AnalysisCtx::of(&rel));
        assert!(fds.contains(&Fd::new(set(&[0]), 1)));
        assert!(fds.contains(&Fd::new(set(&[0]), 2)));
    }

    #[test]
    fn single_tuple_everything_constant() {
        let mut b = RelationBuilder::new("one", &["A", "B"]);
        b.push_row_strs(&["x", "y"]);
        let rel = b.build();
        let fds = mine_fdep(&AnalysisCtx::of(&rel));
        assert!(fds.contains(&Fd::new(AttrSet::EMPTY, 0)));
        assert!(fds.contains(&Fd::new(AttrSet::EMPTY, 1)));
    }
}
