//! Agree sets.
//!
//! The agree set of a tuple pair is the set of attributes on which the
//! two tuples take the same value. FDEP's negative cover is built from
//! the agree sets of *all* pairs: `X → A` is invalid exactly when some
//! pair agrees on `X` but not on `A`, i.e. `X ⊆ ag(t1,t2)` and
//! `A ∉ ag(t1,t2)`.
//!
//! We avoid the full `O(n²)` scan when possible: two tuples with an empty
//! agree set only contribute the empty set, so it suffices to compare
//! pairs co-occurring in at least one single-attribute partition class,
//! plus one emptiness check.

use dbmine_relation::partition::StrippedPartition;
use dbmine_relation::{AttrSet, Relation};
use fxhash::FxHashSet;
use std::collections::HashSet;

/// All distinct agree sets of the relation (including the empty set if
/// some pair agrees nowhere): [`agree_sets_from`] over partitions it
/// builds. Callers holding an `AnalysisCtx` pass its cached partitions
/// to [`agree_sets_from`] instead.
pub fn agree_sets(rel: &Relation) -> HashSet<AttrSet> {
    let parts: Vec<StrippedPartition> = (0..rel.n_attrs())
        .map(|a| StrippedPartition::of_attr(rel, a))
        .collect();
    let refs: Vec<&StrippedPartition> = parts.iter().collect();
    agree_sets_from(rel.n_tuples(), &refs)
}

/// All distinct agree sets of `n` tuples, from their single-attribute
/// partitions (`parts[a]` = π_A, in attribute order). Two tuples agree
/// on `a` exactly when they share a class of π_A, i.e. when their
/// [`StrippedPartition::class_ids`] are equal (every singleton has an id
/// of its own), so no cell is read.
pub fn agree_sets_from(n: usize, parts: &[&StrippedPartition]) -> HashSet<AttrSet> {
    let ids: Vec<Vec<u32>> = parts.iter().map(|p| p.class_ids()).collect();
    let agree = |t1: usize, t2: usize| -> AttrSet {
        (0..ids.len())
            .filter(|&a| ids[a][t1] == ids[a][t2])
            .collect()
    };
    // Fx-hashed: the pair set holds up to O(n²) small integer keys.
    let mut seen_pairs: FxHashSet<(u32, u32)> = FxHashSet::default();
    let mut out: HashSet<AttrSet> = HashSet::new();

    // Pairs sharing at least one attribute value, via the per-attribute
    // stripped partitions.
    for p in parts {
        for class in p.classes() {
            for (i, &t1) in class.iter().enumerate() {
                for &t2 in &class[i + 1..] {
                    if seen_pairs.insert((t1, t2)) {
                        out.insert(agree(t1 as usize, t2 as usize));
                    }
                }
            }
        }
    }

    // Does any pair agree nowhere? (total pairs > pairs seen above)
    let total_pairs = n * n.saturating_sub(1) / 2;
    if seen_pairs.len() < total_pairs {
        out.insert(AttrSet::EMPTY);
    }
    out
}

/// The maximal sets of `sets` under set inclusion.
pub fn maximal_sets(sets: impl IntoIterator<Item = AttrSet>) -> Vec<AttrSet> {
    let mut v: Vec<AttrSet> = sets.into_iter().collect();
    // Sorting by descending cardinality lets one forward pass suffice.
    v.sort_by_key(|s| std::cmp::Reverse(s.len()));
    let mut out: Vec<AttrSet> = Vec::new();
    for s in v {
        if !out.iter().any(|m| s.is_subset_of(*m)) {
            out.push(s);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::{figure1, figure4};

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    /// The agree set of tuples `t1` and `t2`, by comparing their values.
    fn agree_set(rel: &Relation, t1: usize, t2: usize) -> AttrSet {
        (0..rel.n_attrs())
            .filter(|&a| rel.value(t1, a) == rel.value(t2, a))
            .collect()
    }

    #[test]
    fn pairwise_agree_sets_figure1() {
        let rel = figure1();
        // Figure 1 has three pairs, so each is an agree set of its own.
        let sets = agree_sets(&rel);
        // t0 (Pat,Boston,02139) vs t1 (Pat,Boston,02138): agree {0,1}.
        assert_eq!(agree_set(&rel, 0, 1), set(&[0, 1]));
        // t0 vs t2 (Sal,Boston,02139): agree {1,2}.
        assert_eq!(agree_set(&rel, 0, 2), set(&[1, 2]));
        // t1 vs t2: agree {1}.
        assert_eq!(agree_set(&rel, 1, 2), set(&[1]));
        let want: HashSet<AttrSet> = [set(&[0, 1]), set(&[1, 2]), set(&[1])].into();
        assert_eq!(sets, want);
    }

    #[test]
    fn all_agree_sets_figure4() {
        let rel = figure4();
        let sets = agree_sets(&rel);
        // Pairs: (0,1)→{A,B}; (2,3),(2,4),(3,4)→{B,C};
        // (0,2) etc → {} (no shared values across the groups).
        assert!(sets.contains(&set(&[0, 1])));
        assert!(sets.contains(&set(&[1, 2])));
        assert!(sets.contains(&AttrSet::EMPTY));
        assert_eq!(sets.len(), 3);
    }

    #[test]
    fn agree_sets_match_brute_force() {
        let rel = figure1();
        let fast = agree_sets(&rel);
        let mut brute: HashSet<AttrSet> = HashSet::new();
        for i in 0..rel.n_tuples() {
            for j in (i + 1)..rel.n_tuples() {
                brute.insert(agree_set(&rel, i, j));
            }
        }
        assert_eq!(fast, brute);
    }

    #[test]
    fn maximal_filters_subsets() {
        let m = maximal_sets(vec![set(&[0]), set(&[0, 1]), set(&[1, 2]), AttrSet::EMPTY]);
        assert_eq!(m.len(), 2);
        assert!(m.contains(&set(&[0, 1])));
        assert!(m.contains(&set(&[1, 2])));
    }

    #[test]
    fn maximal_of_empty_is_empty() {
        assert!(maximal_sets(Vec::new()).is_empty());
    }
}
