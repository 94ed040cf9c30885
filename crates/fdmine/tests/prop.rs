//! Property tests for FD mining: FDEP and TANE must agree with the
//! brute-force oracle on arbitrary relations, covers must preserve
//! implication, and hitting sets must hit.

use dbmine_context::AnalysisCtx;
use dbmine_fdmine::brute::mine_brute;
use dbmine_fdmine::cover::{closure, implies, minimum_cover};
use dbmine_fdmine::fdep::minimal_hitting_sets;
use dbmine_fdmine::{
    fd_error_g3, fd_holds, mine_approximate_ctx, mine_fdep_ctx, mine_tane_ctx, Fd,
    PartitionScratch, StrippedPartition, TaneOptions,
};
use dbmine_relation::{AttrSet, Relation, RelationBuilder};
use proptest::prelude::*;

/// A random small categorical relation (≤5 attrs, ≤12 tuples, domain 3).
fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=5, 1usize..=12).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::collection::vec(0u8..3, m), n).prop_map(move |rows| {
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for row in rows {
                let cells: Vec<String> = row
                    .iter()
                    .enumerate()
                    .map(|(a, v)| format!("v{a}_{v}"))
                    .collect();
                let strs: Vec<&str> = cells.iter().map(String::as_str).collect();
                b.push_row_strs(&strs);
            }
            b.build()
        })
    })
}

fn arb_fds() -> impl Strategy<Value = Vec<Fd>> {
    proptest::collection::vec((0u64..31, 0usize..5), 0..10).prop_map(|pairs| {
        pairs
            .into_iter()
            .map(|(bits, rhs)| Fd::new(AttrSet::from_bits(bits), rhs))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn miners_agree_with_oracle(rel in arb_relation()) {
        let mut brute = mine_brute(&rel);
        let mut fdep = mine_fdep_ctx(&AnalysisCtx::of(&rel));
        let mut tane = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default());
        brute.sort();
        fdep.sort();
        tane.sort();
        prop_assert_eq!(&fdep, &brute, "FDEP disagrees with oracle");
        prop_assert_eq!(&tane, &brute, "TANE disagrees with oracle");
    }

    #[test]
    fn mined_fds_hold_and_are_minimal(rel in arb_relation()) {
        for fd in mine_fdep_ctx(&AnalysisCtx::of(&rel)) {
            prop_assert!(fd_holds(&rel, fd.lhs, fd.rhs), "{fd} does not hold");
            prop_assert!(fd_error_g3(&rel, fd.lhs, fd.rhs).abs() < 1e-12);
            for b in fd.lhs.iter() {
                prop_assert!(
                    !fd_holds(&rel, fd.lhs.without(b), fd.rhs),
                    "{fd} is not minimal (drop {b})"
                );
            }
        }
    }

    #[test]
    fn cover_is_equivalent_and_irredundant(fds in arb_fds()) {
        let cover = minimum_cover(&fds);
        // Equivalence both ways.
        for f in &fds {
            if !f.is_trivial() {
                prop_assert!(implies(&cover, *f), "{f} lost by cover");
            }
        }
        for f in &cover {
            prop_assert!(implies(&fds, *f), "{f} invented by cover");
        }
        // Irredundant: removing any member changes the closure.
        for i in 0..cover.len() {
            let rest: Vec<Fd> = cover.iter().enumerate()
                .filter(|&(j, _)| j != i).map(|(_, &g)| g).collect();
            prop_assert!(!implies(&rest, cover[i]), "{} redundant", cover[i]);
        }
    }

    #[test]
    fn closure_is_monotone_and_idempotent(fds in arb_fds(), bits in 0u64..31) {
        let x = AttrSet::from_bits(bits);
        let cx = closure(x, &fds);
        prop_assert!(x.is_subset_of(cx));
        prop_assert_eq!(closure(cx, &fds), cx);
        // Monotone: adding an attribute can only grow the closure.
        for a in 0..5 {
            let bigger = closure(x.with(a), &fds);
            prop_assert!(cx.is_subset_of(bigger.union(cx)));
            prop_assert!(cx.minus(bigger).is_subset_of(x));
        }
    }

    #[test]
    fn hitting_sets_hit_and_are_minimal(
        sets in proptest::collection::vec(1u64..63, 0..6)
    ) {
        let universe = AttrSet::full(6);
        let family: Vec<AttrSet> = sets.iter().map(|&b| AttrSet::from_bits(b)).collect();
        let transversals = minimal_hitting_sets(&family, universe);
        for t in &transversals {
            for d in &family {
                prop_assert!(!t.intersect(*d).is_empty(), "{t:?} misses {d:?}");
            }
            // Minimal: no proper subset still hits everything.
            for a in t.iter() {
                let sub = t.without(a);
                let still_hits = family.iter().all(|d| !sub.intersect(*d).is_empty());
                prop_assert!(!still_hits || family.is_empty(),
                    "{t:?} not minimal (drop {a})");
            }
        }
        // No duplicates or dominated members in the answer.
        for (i, a) in transversals.iter().enumerate() {
            for (j, b) in transversals.iter().enumerate() {
                if i != j {
                    prop_assert!(!a.is_subset_of(*b), "{a:?} ⊆ {b:?}");
                }
            }
        }
    }

    #[test]
    fn product_matches_reference_bit_identically(rel in arb_relation()) {
        // One scratch across every pair: also exercises the
        // clean-between-calls invariant.
        let mut scratch = PartitionScratch::new();
        let parts: Vec<StrippedPartition> =
            (0..rel.n_attrs()).map(|a| StrippedPartition::of_attr(&rel, a)).collect();
        for pa in &parts {
            for pb in &parts {
                let fast = pa.product_with(pb, &mut scratch);
                let reference = pa.product_reference(pb);
                prop_assert_eq!(&fast, &reference, "product mismatch");
            }
        }
        // Multi-attribute lhs against the empty partition too.
        let empty = StrippedPartition::of_empty(rel.n_tuples());
        if parts.len() >= 2 {
            let pab = parts[0].product_with(&parts[1], &mut scratch);
            prop_assert_eq!(
                pab.product_with(&empty, &mut scratch),
                pab.product_reference(&empty)
            );
        }
    }

    #[test]
    fn tane_is_invariant_across_thread_counts(rel in arb_relation()) {
        let serial = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions { threads: 1, ..Default::default() });
        for threads in [0usize, 2, 4] {
            let t = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions { threads, ..Default::default() });
            prop_assert_eq!(&t, &serial, "threads = {}", threads);
        }
    }

    #[test]
    fn approximate_is_invariant_across_thread_counts(rel in arb_relation()) {
        let serial = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.2, None, 1);
        for threads in [0usize, 2, 4] {
            let t = mine_approximate_ctx(&AnalysisCtx::of(&rel), 0.2, None, threads);
            // ApproxFd carries an f64 error: require exact equality —
            // the determinism contract is bit-identical output.
            prop_assert_eq!(t.len(), serial.len(), "threads = {}", threads);
            for (a, b) in t.iter().zip(&serial) {
                prop_assert_eq!(a.fd, b.fd, "threads = {}", threads);
                prop_assert!(
                    a.error == b.error && a.error.to_bits() == b.error.to_bits(),
                    "g3 drifted across thread counts"
                );
            }
        }
    }

    #[test]
    fn g3_scratch_matches_hashmap_reference(rel in arb_relation(), a in 0usize..5, b in 0usize..5) {
        if a >= rel.n_attrs() || b >= rel.n_attrs() { return Ok(()); }
        let pa = StrippedPartition::of_attr(&rel, a);
        let pab = pa.product(&StrippedPartition::of_attr(&rel, b));
        // Reference g3: the original per-class HashMap count.
        let ids = pab.class_ids();
        let mut removed = 0usize;
        for class in &pa.classes {
            let mut counts: std::collections::HashMap<u32, usize> = Default::default();
            for &t in class {
                *counts.entry(ids[t as usize]).or_insert(0) += 1;
            }
            removed += class.len() - counts.values().copied().max().unwrap_or(1);
        }
        let reference = if rel.n_tuples() == 0 {
            0.0
        } else {
            removed as f64 / rel.n_tuples() as f64
        };
        let fast = pa.g3_error_with(&pab, &mut PartitionScratch::new());
        prop_assert!(fast.to_bits() == reference.to_bits(), "{} != {}", fast, reference);
    }

    #[test]
    fn g3_error_bounds_and_zero_iff_holds(rel in arb_relation(), lhs_bits in 0u64..31, rhs in 0usize..5) {
        if rhs >= rel.n_attrs() { return Ok(()); }
        let lhs = AttrSet::from_bits(lhs_bits).intersect(rel.all_attrs());
        let e = fd_error_g3(&rel, lhs, rhs);
        prop_assert!((0.0..=1.0).contains(&e));
        prop_assert_eq!(e.abs() < 1e-12, fd_holds(&rel, lhs, rhs));
    }
}
