//! TANE (Huhtala, Kärkkäinen, Porkka, Toivonen) — levelwise FD discovery
//! over stripped partitions, with rhs⁺-candidate and key pruning.
//!
//! Where FDEP (kept as a test oracle in `dbmine-oracles`) compares all
//! `O(n²)` tuple pairs, TANE's cost is governed
//! by the number of attribute sets it visits, making it the right miner
//! for the paper's large DBLP partitions (14k–36k tuples, few
//! attributes). Produces exactly the minimal, non-trivial FDs.
//!
//! TANE is the `g3` walk at ε = 0 ([`crate::approximate`]): the one
//! lattice walk ([`crate::lattice::walk_minimal`]) decides `X∖A → A` by
//! comparing the O(1) errors `e(π_{X∖A})` and `e(π_X)`, and takes every
//! rule over its rhs⁺ sets `C⁺`: the exact-FD rule and key pruning. The
//! lattice module docs hold their soundness arguments.

use crate::approximate::mine_g3;
use crate::fd::{normalize_fds, Fd};
use dbmine_context::AnalysisCtx;

/// Options for the TANE run.
#[derive(Clone, Copy, Debug)]
pub struct TaneOptions {
    /// Stop after this LHS size (None = unbounded). Bounding trades
    /// completeness for time on wide relations; dependencies with small
    /// LHSs — the ones FD-RANK cares about — are found first.
    pub max_lhs: Option<usize>,
    /// Worker threads for the levelwise steps (`1` = serial, `0` = all
    /// cores). Results are bit-identical for every thread count.
    pub threads: usize,
}

impl Default for TaneOptions {
    fn default() -> Self {
        TaneOptions {
            max_lhs: None,
            threads: 1,
        }
    }
}

/// Mines all minimal non-trivial FDs of the context's relation with
/// TANE, seeding level 1 from the context's memoized single-attribute
/// partitions (shared with FD-RANK, the approximate miner, …). Returns
/// them ordered by RHS, then LHS.
pub fn mine_tane_ctx(ctx: &AnalysisCtx, options: TaneOptions) -> Vec<Fd> {
    let found = mine_g3(ctx, 0.0, options.max_lhs, options.threads, "tane.run");
    normalize_fds(found.into_iter().map(|(fd, _)| fd).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracles::{mine_brute, mine_fdep};
    use dbmine_relation::paper::{figure1, figure4, figure5};
    use dbmine_relation::{AttrSet, RelationBuilder};
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn figure4_matches_fdep_and_brute() {
        for rel in [figure1(), figure4(), figure5()] {
            let mut tane = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default());
            let mut fdep = mine_fdep(&AnalysisCtx::of(&rel));
            let mut brute = mine_brute(&rel);
            tane.sort();
            fdep.sort();
            brute.sort();
            assert_eq!(tane, brute, "tane vs brute on {}", rel.name());
            assert_eq!(tane, fdep, "tane vs fdep on {}", rel.name());
        }
    }

    #[test]
    fn random_relations_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..25 {
            let m = rng.gen_range(2..=5);
            let n = rng.gen_range(2..=14);
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
            let mut tane = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default());
            let mut brute = mine_brute(&rel);
            tane.sort();
            brute.sort();
            assert_eq!(tane, brute, "trial {trial} mismatch");
        }
    }

    #[test]
    fn thread_counts_agree() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let m = rng.gen_range(3..=6);
            let n = rng.gen_range(20..=60);
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for _ in 0..n {
                let row: Vec<String> = (0..m)
                    .map(|a| format!("v{}_{}", a, rng.gen_range(0..4)))
                    .collect();
                let cells: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_row_strs(&cells);
            }
            let rel = b.build();
            let serial = mine_tane_ctx(
                &AnalysisCtx::of(&rel),
                TaneOptions {
                    threads: 1,
                    ..Default::default()
                },
            );
            for threads in [0, 2, 4] {
                let parallel = mine_tane_ctx(
                    &AnalysisCtx::of(&rel),
                    TaneOptions {
                        threads,
                        ..Default::default()
                    },
                );
                assert_eq!(serial, parallel, "threads = {threads}");
            }
        }
    }

    #[test]
    fn composite_key_discovered() {
        // (A,B) is a key but neither attribute alone is.
        let mut b = RelationBuilder::new("ck", &["A", "B", "C"]);
        b.push_row_strs(&["1", "1", "x"]);
        b.push_row_strs(&["1", "2", "y"]);
        b.push_row_strs(&["2", "1", "y"]);
        b.push_row_strs(&["2", "2", "x"]);
        let rel = b.build();
        let fds = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default());
        assert!(fds.contains(&Fd::new(set(&[0, 1]), 2)));
        assert!(!fds.iter().any(|f| f.rhs == 2 && f.lhs.len() < 2));
    }

    #[test]
    fn max_lhs_bounds_results() {
        let mut b = RelationBuilder::new("ck", &["A", "B", "C"]);
        b.push_row_strs(&["1", "1", "x"]);
        b.push_row_strs(&["1", "2", "y"]);
        b.push_row_strs(&["2", "1", "y"]);
        b.push_row_strs(&["2", "2", "x"]);
        let rel = b.build();
        let fds = mine_tane_ctx(
            &AnalysisCtx::of(&rel),
            TaneOptions {
                max_lhs: Some(1),
                ..Default::default()
            },
        );
        assert!(fds.iter().all(|f| f.lhs.len() <= 1));
    }

    #[test]
    fn all_distinct_relation_has_single_attribute_keys() {
        let mut b = RelationBuilder::new("d", &["A", "B"]);
        b.push_row_strs(&["1", "x"]);
        b.push_row_strs(&["2", "y"]);
        let rel = b.build();
        let fds = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default());
        // A → B and B → A.
        assert!(fds.contains(&Fd::new(set(&[0]), 1)));
        assert!(fds.contains(&Fd::new(set(&[1]), 0)));
    }
}
