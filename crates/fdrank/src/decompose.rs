//! Vertical decomposition by a functional dependency.
//!
//! Using `X → Y` to split `R` into `S1 = π_{X∪Y}(R)` and
//! `S2 = π_{R∖Y}(R)` (both deduplicated) is lossless: `S1 ⋈ S2 = R`
//! because `X` — present in both — determines `Y`. The paper's running
//! example: decomposing Figure 4 by `C → B` into `S1=(B,C)`, `S2=(A,C)`
//! removes more redundancy than decomposing by `A → B`.
//!
//! The split reads the relation only through its [`AnalysisCtx`]: `S1`'s
//! size is the memoized distinct count of `π_{X∪Y}`, and `S2` is a child
//! context derived from the parent's partitions, ready for the next
//! step of an iterated redesign.

use crate::rank::RankedFd;
use dbmine_context::AnalysisCtx;
use dbmine_relation::AttrSet;

/// The outcome of a vertical decomposition.
#[derive(Debug)]
pub struct Decomposition {
    /// `X ∪ Y`, the schema of `S1 = π_{X∪Y}(R)` — the extracted
    /// "entity".
    pub s1_attrs: AttrSet,
    /// `|S1|`, the distinct count of `π_{X∪Y}(R)`.
    pub s1_tuples: usize,
    /// `π_{R∖Y}(R)`, deduplicated — the remainder (keeps `X` as the
    /// foreign key), as a context derived from the parent's
    /// ([`AnalysisCtx::derive_projected`]) and named `<R>_S2`.
    pub s2: AnalysisCtx,
    /// Cells stored before the split (`n · m`).
    pub cells_before: usize,
    /// Cells stored after (`|S1|·|X∪Y| + |S2|·(m−|Y∖X|)`).
    pub cells_after: usize,
}

impl Decomposition {
    /// Fraction of stored cells eliminated by the decomposition
    /// (can be negative if the split does not pay off; 0 on an empty
    /// relation).
    pub fn storage_reduction(&self) -> f64 {
        if self.cells_before == 0 {
            0.0
        } else {
            1.0 - self.cells_after as f64 / self.cells_before as f64
        }
    }
}

/// Decomposes the relation of `ctx` by the (ranked) dependency `X → Y`.
pub fn decompose(ctx: &AnalysisCtx, fd: &RankedFd) -> Decomposition {
    // Ranking memoized S1's size, the distinct count of π_{X∪Y}.
    let s1_attrs = fd.attrs();
    let s1_tuples = ctx.projection_distinct(s1_attrs);
    let s2_attrs = ctx.all_attrs().minus(fd.rhs.minus(fd.lhs));
    let s2 = ctx.derive_projected(s2_attrs, &format!("{}_S2", ctx.name()));
    Decomposition {
        cells_before: ctx.n_tuples() * ctx.n_attrs(),
        cells_after: s1_tuples * s1_attrs.len() + s2.n_tuples() * s2.n_attrs(),
        s1_attrs,
        s1_tuples,
        s2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::figure4;

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

    /// Every row of `ctx`, in tuple order, read from its chunk pass.
    fn rows(ctx: &AnalysisCtx) -> Vec<Vec<String>> {
        let dict = ctx.dict();
        let mut out = Vec::new();
        for chunk in ctx.chunks() {
            for t in 0..chunk.n_rows() {
                out.push(
                    chunk
                        .row_values(t)
                        .map(|v| dict.string(v).to_string())
                        .collect(),
                );
            }
        }
        out
    }

    #[test]
    fn paper_example_c_to_b_beats_a_to_b() {
        // "if we use the dependency C → B to decompose the relation into
        //  S1=(B,C) and S2=(A,C), the reduction of tuples, and thus the
        //  redundancy reduction, is higher than using A → B."
        let ctx = AnalysisCtx::of(&figure4());
        let by_c = decompose(&ctx, &ranked(&[2], &[1]));
        let by_a = decompose(&ctx, &ranked(&[0], &[1]));

        assert_eq!(by_c.s1_attrs, set(&[1, 2])); // (B, C)
        assert_eq!(by_c.s2.attr_names(), &["A".to_string(), "C".to_string()]);
        assert_eq!(by_c.s2.name(), "fig4_S2");
        assert_eq!(by_c.s1_tuples, 3); // (1,p),(1,r),(2,x)
        assert_eq!(by_c.s2.n_tuples(), 5);

        assert_eq!(by_a.s1_tuples, 4); // (a,1),(w,2),(y,2),(z,2)
        assert!(by_c.storage_reduction() > by_a.storage_reduction());
    }

    #[test]
    fn decomposition_is_lossless() {
        // Join S1 ⋈ S2 on the shared attributes reproduces the relation;
        // S1's rows come from the same context as the split.
        let ctx = AnalysisCtx::of(&figure4());
        let d = decompose(&ctx, &ranked(&[2], &[1]));
        let s1 = rows(&ctx.derive_projected(d.s1_attrs, "S1")); // (B, C)
        let s2 = rows(&d.s2); // (A, C)
        assert_eq!(s1.len(), d.s1_tuples);
        // Nested-loop join on C.
        let mut joined: Vec<Vec<String>> = Vec::new();
        for t2 in &s2 {
            for t1 in s1.iter().filter(|t1| t1[1] == t2[1]) {
                joined.push(vec![t2[0].clone(), t1[0].clone(), t2[1].clone()]);
            }
        }
        joined.sort();
        let mut expected = rows(&ctx);
        expected.sort();
        assert_eq!(joined, expected);
    }

    #[test]
    fn cells_accounting() {
        let ctx = AnalysisCtx::of(&figure4());
        let d = decompose(&ctx, &ranked(&[2], &[1]));
        assert_eq!(d.cells_before, 15);
        assert_eq!(d.cells_after, 3 * 2 + 5 * 2);
    }
}
