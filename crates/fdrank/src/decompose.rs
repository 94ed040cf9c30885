//! Vertical decomposition by a functional dependency.
//!
//! Using `X → Y` to split `R` into `S1 = π_{X∪Y}(R)` and
//! `S2 = π_{R∖Y}(R)` (both deduplicated) is lossless: `S1 ⋈ S2 = R`
//! because `X` — present in both — determines `Y`. The paper's running
//! example: decomposing Figure 4 by `C → B` into `S1=(B,C)`, `S2=(A,C)`
//! removes more redundancy than decomposing by `A → B`.

use crate::rank::RankedFd;
use dbmine_relation::Relation;

/// The outcome of a vertical decomposition.
#[derive(Clone, Debug)]
pub struct Decomposition {
    /// `π_{X∪Y}(R)`, deduplicated — the extracted "entity".
    pub s1: Relation,
    /// `π_{R∖Y}(R)`, deduplicated — the remainder (keeps `X` as the
    /// foreign key).
    pub s2: Relation,
    /// Cells stored before the split (`n · m`).
    pub cells_before: usize,
    /// Cells stored after (`|S1|·|X∪Y| + |S2|·(m−|Y∖X|)`).
    pub cells_after: usize,
}

impl Decomposition {
    /// Fraction of stored cells eliminated by the decomposition
    /// (can be negative if the split does not pay off).
    pub fn storage_reduction(&self) -> f64 {
        if self.cells_before == 0 {
            0.0
        } else {
            1.0 - self.cells_after as f64 / self.cells_before as f64
        }
    }
}

/// Decomposes `rel` by the (ranked) dependency `X → Y`.
pub fn decompose(rel: &Relation, fd: &RankedFd) -> Decomposition {
    let s1_attrs = fd.lhs.union(fd.rhs);
    let s2_attrs = rel.all_attrs().minus(fd.rhs.minus(fd.lhs));
    let s1 = rel.project_distinct(s1_attrs, &format!("{}_S1", rel.name()));
    let s2 = rel.project_distinct(s2_attrs, &format!("{}_S2", rel.name()));
    Decomposition {
        cells_before: rel.n_tuples() * rel.n_attrs(),
        cells_after: s1.n_tuples() * s1.n_attrs() + s2.n_tuples() * s2.n_attrs(),
        s1,
        s2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::figure4;
    use dbmine_relation::AttrSet;

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    fn ranked(lhs: &[usize], rhs: &[usize]) -> RankedFd {
        RankedFd {
            lhs: set(lhs),
            rhs: set(rhs),
            rank: 0.0,
            promoted: true,
        }
    }

    #[test]
    fn paper_example_c_to_b_beats_a_to_b() {
        // "if we use the dependency C → B to decompose the relation into
        //  S1=(B,C) and S2=(A,C), the reduction of tuples, and thus the
        //  redundancy reduction, is higher than using A → B."
        let rel = figure4();
        let by_c = decompose(&rel, &ranked(&[2], &[1]));
        let by_a = decompose(&rel, &ranked(&[0], &[1]));

        assert_eq!(by_c.s1.attr_names(), &["B".to_string(), "C".to_string()]);
        assert_eq!(by_c.s2.attr_names(), &["A".to_string(), "C".to_string()]);
        assert_eq!(by_c.s1.n_tuples(), 3); // (1,p),(1,r),(2,x)
        assert_eq!(by_c.s2.n_tuples(), 5);

        assert_eq!(by_a.s1.n_tuples(), 4); // (a,1),(w,2),(y,2),(z,2)
        assert!(by_c.storage_reduction() > by_a.storage_reduction());
    }

    #[test]
    fn decomposition_is_lossless() {
        // Join S1 ⋈ S2 on the shared attributes reproduces the relation.
        let rel = figure4();
        let d = decompose(&rel, &ranked(&[2], &[1]));
        // Manual nested-loop join on C.
        let c1 = d.s1.attr_id("C").unwrap();
        let c2 = d.s2.attr_id("C").unwrap();
        let mut joined: Vec<(String, String, String)> = Vec::new();
        for t2 in 0..d.s2.n_tuples() {
            for t1 in 0..d.s1.n_tuples() {
                if d.s1.value_str(t1, c1) == d.s2.value_str(t2, c2) {
                    joined.push((
                        d.s2.value_str(t2, 0).to_string(),  // A
                        d.s1.value_str(t1, 0).to_string(),  // B
                        d.s2.value_str(t2, c2).to_string(), // C
                    ));
                }
            }
        }
        joined.sort();
        let mut expected: Vec<(String, String, String)> = (0..rel.n_tuples())
            .map(|t| {
                (
                    rel.value_str(t, 0).to_string(),
                    rel.value_str(t, 1).to_string(),
                    rel.value_str(t, 2).to_string(),
                )
            })
            .collect();
        expected.sort();
        assert_eq!(joined, expected);
    }

    #[test]
    fn project_distinct_dedups() {
        let rel = figure4();
        let p = rel.project_distinct(set(&[1]), "b_only");
        assert_eq!(p.n_tuples(), 2);
        assert_eq!(p.attr_names(), &["B".to_string()]);
    }

    #[test]
    fn nulls_survive_projection() {
        let mut b = dbmine_relation::RelationBuilder::new("n", &["X", "Y"]);
        b.push_row(&[Some("a"), None]);
        b.push_row(&[Some("a"), None]);
        let rel = b.build();
        let p = rel.project_distinct(set(&[0, 1]), "p");
        assert_eq!(p.n_tuples(), 1);
        assert!(p.is_null(0, 1));
    }

    #[test]
    fn cells_accounting() {
        let rel = figure4();
        let d = decompose(&rel, &ranked(&[2], &[1]));
        assert_eq!(d.cells_before, 15);
        assert_eq!(d.cells_after, 3 * 2 + 5 * 2);
    }
}
