//! Pairwise near-duplicate detection by agreement counting.
//!
//! The classic quadratic baseline: two tuples are candidate duplicates
//! when they agree on at least `min_agree` of the `m` attributes. This
//! is what LIMBO-based tuple clustering replaces with a streaming,
//! information-weighted procedure; the benches compare both the quality
//! (agreement counting weighs a rare match and a ubiquitous match the
//! same) and the cost (`O(n²m)` versus LIMBO's near-linear Phase 1).

use dbmine_relation::Relation;

/// A candidate duplicate pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PairwiseDuplicate {
    /// Lower tuple index.
    pub a: usize,
    /// Higher tuple index.
    pub b: usize,
    /// Number of attributes the pair agrees on.
    pub agreement: usize,
}

/// Finds all pairs agreeing on at least `min_agree` attributes, sorted by
/// descending agreement then index order.
pub fn pairwise_duplicates(rel: &Relation, min_agree: usize) -> Vec<PairwiseDuplicate> {
    let n = rel.n_tuples();
    let m = rel.n_attrs();
    let mut out = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            let agreement = (0..m)
                .filter(|&at| rel.value(a, at) == rel.value(b, at))
                .count();
            if agreement >= min_agree {
                out.push(PairwiseDuplicate { a, b, agreement });
            }
        }
    }
    out.sort_by(|x, y| {
        y.agreement
            .cmp(&x.agreement)
            .then((x.a, x.b).cmp(&(y.a, y.b)))
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_datagen::inject_near_duplicates;
    use dbmine_relation::paper::figure4;

    #[test]
    fn finds_planted_duplicates() {
        let rel = figure4();
        let injected = inject_near_duplicates(&rel, 2, 1, 5);
        let dups = pairwise_duplicates(&injected.relation, rel.n_attrs() - 1);
        for d in &injected.injected {
            let (lo, hi) = (d.original.min(d.duplicate), d.original.max(d.duplicate));
            assert!(
                dups.iter().any(|p| p.a == lo && p.b == hi),
                "planted pair ({lo},{hi}) not found"
            );
        }
    }

    #[test]
    fn threshold_filters() {
        let rel = figure4();
        // Tuples t2,t3,t4 agree on B and C (2 of 3 attributes).
        let dups = pairwise_duplicates(&rel, 2);
        assert_eq!(dups.len(), 4); // (0,1) on {A,B} + 3 pairs on {B,C}
        let exact = pairwise_duplicates(&rel, 3);
        assert!(exact.is_empty());
    }

    #[test]
    fn ordering_by_agreement() {
        let rel = figure4();
        let injected = inject_near_duplicates(&rel, 1, 0, 9);
        let dups = pairwise_duplicates(&injected.relation, 1);
        for w in dups.windows(2) {
            assert!(w[0].agreement >= w[1].agreement);
        }
        assert_eq!(dups[0].agreement, 3); // the exact duplicate leads
    }

    #[test]
    fn empty_relation() {
        let rel = dbmine_relation::RelationBuilder::new("e", &["X"]).build();
        assert!(pairwise_duplicates(&rel, 1).is_empty());
    }
}
