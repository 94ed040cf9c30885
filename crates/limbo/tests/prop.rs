//! Property tests for LIMBO: Phase 1 must conserve mass, counts and
//! auxiliary vectors for arbitrary inputs, and must never retain more
//! information than the input carries.

use dbmine_context::AnalysisCtx;
use dbmine_ib::{aib, Dcf};
use dbmine_infotheory::{mutual_information, SparseDist};
use dbmine_limbo::{
    phase1, phase1_auto, phase1_sharded, phase1_store, phase2_with, phase3_with, tuple_dcfs_ctx,
    DcfTree, DcfTreeRef, LimboModel, LimboParams, ShardPlan,
};
use dbmine_relation::csv::read_relation;
use dbmine_relation::{qualified_row, qualified_stride, ShardedRelation};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// Random singleton DCFs over a small domain, with equal masses.
fn arb_objects() -> impl Strategy<Value = Vec<Dcf>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..16, 0.05f64..1.0), 1..5),
        2..40,
    )
    .prop_map(|rows| {
        let n = rows.len() as f64;
        rows.into_iter()
            .map(|pairs| {
                let mut cond = SparseDist::from_pairs(pairs.clone());
                cond.normalize();
                let aux =
                    SparseDist::from_pairs(pairs.iter().map(|&(i, _)| (i % 4, 1.0)).collect());
                Dcf::singleton_with_aux(1.0 / n, cond, aux)
            })
            .collect()
    })
}

/// Insert streams seeded from [`arb_objects`] with adversarial edits
/// mixed in: duplicated conditionals (forcing exact-tie descents) and
/// zero-weight DCFs (exercising the `w = 0` merge branch).
fn arb_stream() -> impl Strategy<Value = Vec<Dcf>> {
    (
        arb_objects(),
        proptest::collection::vec((0usize..1024, 0usize..2), 0..5),
    )
        .prop_map(|(mut objects, edits)| {
            for (pos, kind) in edits {
                if kind == 0 {
                    // Duplicate an earlier object's conditional verbatim.
                    let dup = objects[pos % objects.len()].clone();
                    objects.push(dup);
                } else {
                    let i = pos % objects.len();
                    objects[i].weight = 0.0;
                }
            }
            objects
        })
}

/// A random categorical relation as CSV text: 1–4 attributes, 0–20
/// tuples or 130–260 (enough for the parallel map to split), domain 3
/// plus NULL (empty) cells, and columns that may be entirely NULL.
fn arb_csv() -> impl Strategy<Value = String> {
    let n = (0usize..=20, 0u8..2).prop_map(|(n, big)| if big == 1 { 130 + 6 * n } else { n });
    (1usize..=4, n).prop_flat_map(|(m, n)| {
        let rows = proptest::collection::vec(
            proptest::collection::vec(proptest::option::weighted(0.8, 0u8..3), m),
            n,
        );
        // A column whose draw is 0 (one in four) is entirely NULL.
        let all_null = proptest::collection::vec(0u8..4, m);
        (rows, all_null).prop_map(move |(rows, all_null)| {
            let header: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let mut csv = header.join(",") + "\n";
            for row in rows {
                let cells: Vec<String> = row
                    .iter()
                    .enumerate()
                    .map(|(a, v)| match v.filter(|_| all_null[a] != 0) {
                        Some(v) => format!("v{v}"),
                        None => String::new(),
                    })
                    .collect();
                csv += &(cells.join(",") + "\n");
            }
            csv
        })
    })
}

static STORE_SEQ: AtomicU64 = AtomicU64::new(0);

/// A store-backed context over `csv` spilled at `chunk` tuples per
/// chunk (`0` = the default), and the store's path for cleanup.
fn store_ctx(csv: &str, chunk: usize) -> (AnalysisCtx, std::path::PathBuf) {
    let dir = std::env::temp_dir().join("dbmine_limbo_prop");
    std::fs::create_dir_all(&dir).unwrap();
    let id = STORE_SEQ.fetch_add(1, Ordering::Relaxed);
    let store = dir.join(format!("{}_{id}.dbss", std::process::id()));
    let sharded = ShardedRelation::scan_csv_spill(csv.as_bytes(), "t", chunk, &store).unwrap();
    (AnalysisCtx::from_chunks(sharded).unwrap(), store)
}

/// Bitwise equality of two DCF lists: weights, counts, conditionals.
fn same_bits(a: &[Dcf], b: &[Dcf]) -> bool {
    let bits = |d: &Dcf| -> (u64, usize, Vec<(u32, u64)>) {
        let cond = d.cond.iter().map(|(k, w)| (k, w.to_bits())).collect();
        (d.weight.to_bits(), d.count, cond)
    };
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| bits(x) == bits(y))
}

fn same_leaves(a: &LimboModel, b: &LimboModel) -> bool {
    a.threshold.to_bits() == b.threshold.to_bits() && same_bits(&a.leaves, &b.leaves)
}

fn info_of(dcfs: &[Dcf]) -> f64 {
    mutual_information(dcfs.iter().map(|d| (d.weight, &d.cond)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn phase1_conserves_mass_count_and_aux(objects in arb_objects(), phi in 0.0f64..2.0) {
        let mi = info_of(&objects);
        let model = phase1(&objects, mi, objects.len(), LimboParams::with_phi(phi));

        let mass: f64 = model.leaves.iter().map(|d| d.weight).sum();
        prop_assert!((mass - 1.0).abs() < 1e-9, "mass {mass}");

        let count: usize = model.leaves.iter().map(|d| d.count).sum();
        prop_assert_eq!(count, objects.len());

        let aux_total: f64 = model.leaves.iter().map(|d| d.aux.total()).sum();
        let expected: f64 = objects.iter().map(|d| d.aux.total()).sum();
        prop_assert!((aux_total - expected).abs() < 1e-9);
    }

    #[test]
    fn summaries_never_gain_information(objects in arb_objects(), phi in 0.0f64..2.0) {
        let mi = info_of(&objects);
        let model = phase1(&objects, mi, objects.len(), LimboParams::with_phi(phi));
        let retained = info_of(&model.leaves);
        prop_assert!(retained <= mi + 1e-7, "retained {retained} > input {mi}");
    }

    #[test]
    fn phi_zero_summarization_is_lossless(objects in arb_objects()) {
        // "Using φ = 0.0, we only merge identical objects and LIMBO
        // becomes equivalent to AIB": Phase 1 must lose NO information —
        // its leaves carry exactly the input's mutual information (the
        // greedy Phase 2 may then take a different — equally valid —
        // merge trajectory than AIB-on-singletons under ties).
        let mi = info_of(&objects);
        let model = phase1(&objects, mi, objects.len(), LimboParams::with_phi(0.0));
        let retained = info_of(&model.leaves);
        prop_assert!((retained - mi).abs() < 1e-7, "lost {} bits", mi - retained);
        // And a full Phase 2 run loses everything, exactly like AIB.
        let full = phase2_with(&model, 1, 1);
        let direct = aib(objects.clone(), 1);
        prop_assert!((full.final_information() - direct.final_information()).abs() < 1e-7);
    }

    #[test]
    fn phase3_assigns_every_object_within_bounds(objects in arb_objects(), phi in 0.0f64..1.5) {
        let mi = info_of(&objects);
        let model = phase1(&objects, mi, objects.len(), LimboParams::with_phi(phi));
        let clustering = phase2_with(&model, 3.min(model.leaves.len()), 1);
        let assignments = phase3_with(objects.iter(), &clustering, 1);
        prop_assert_eq!(assignments.len(), objects.len());
        for &(c, loss) in &assignments {
            prop_assert!(c < clustering.clusters.len());
            prop_assert!(loss >= 0.0);
            // δI of merging an object into any cluster ≤ their joint mass.
            prop_assert!(loss <= 1.0 + 1e-9);
        }
    }

    #[test]
    fn arena_tree_is_bit_identical_to_reference(
        objects in arb_stream(),
        threshold in 0.0f64..0.05,
        branching in 2usize..6,
    ) {
        let mut arena = DcfTree::new(branching, threshold);
        let mut reference = DcfTreeRef::new(branching, threshold);
        for o in &objects {
            arena.insert(o);
            reference.insert(o.clone());
        }
        prop_assert_eq!(arena.n_inserted(), reference.n_inserted());
        prop_assert_eq!(arena.n_leaf_entries(), reference.n_leaf_entries());
        prop_assert_eq!(arena.height(), reference.height());
        let r = reference.leaves();
        // All three leaf views must match the reference bit for bit.
        let borrowed: Vec<&Dcf> = arena.iter_leaves().collect();
        prop_assert_eq!(borrowed.len(), r.len());
        for (x, y) in borrowed.iter().zip(&r) {
            prop_assert_eq!(x.weight.to_bits(), y.weight.to_bits());
            prop_assert_eq!(x.count, y.count);
            prop_assert_eq!(x.cond.entries(), y.cond.entries());
            prop_assert_eq!(x.cond.total().to_bits(), y.cond.total().to_bits());
            prop_assert_eq!(x.aux.entries(), y.aux.entries());
        }
        let cloned = arena.leaves();
        let moved = arena.into_leaves();
        prop_assert_eq!(cloned.len(), r.len());
        prop_assert_eq!(moved.len(), r.len());
        for ((c, m), y) in cloned.iter().zip(&moved).zip(&r) {
            prop_assert_eq!(c.weight.to_bits(), y.weight.to_bits());
            prop_assert_eq!(m.weight.to_bits(), y.weight.to_bits());
            prop_assert_eq!(c.cond.entries(), y.cond.entries());
            prop_assert_eq!(m.cond.entries(), y.cond.entries());
        }
    }

    #[test]
    fn sharded_phase1_is_invariant_under_worker_count(
        objects in arb_stream(),
        phi in 0.0f64..2.0,
        chunk in 1usize..16,
    ) {
        // The chunk plan fixes the output; shard workers are pure
        // scheduling. Every worker count must reproduce the same leaves
        // bit for bit — weights, counts, conditional entries.
        let mi = info_of(&objects);
        let params = LimboParams::with_phi(phi);
        let plan = ShardPlan::with_chunk_size(objects.len(), chunk);
        let reference = phase1_sharded(&objects, mi, params, &plan, 1);
        for workers in [2usize, 3, 8] {
            let m = phase1_sharded(&objects, mi, params, &plan, workers);
            prop_assert_eq!(m.leaves.len(), reference.leaves.len());
            for (x, y) in m.leaves.iter().zip(&reference.leaves) {
                prop_assert_eq!(x.weight.to_bits(), y.weight.to_bits());
                prop_assert_eq!(x.count, y.count);
                prop_assert_eq!(x.cond.entries(), y.cond.entries());
            }
        }
    }

    #[test]
    fn single_chunk_sharded_phase1_equals_classic(
        objects in arb_stream(),
        phi in 0.0f64..2.0,
        workers in 1usize..6,
    ) {
        // One chunk means no merge stage: the sharded build must be the
        // classic single-pass Phase 1, bit for bit, at any worker count.
        let mi = info_of(&objects);
        let params = LimboParams::with_phi(phi);
        let plan = ShardPlan::with_chunk_size(objects.len(), objects.len().max(1));
        let sharded = phase1_sharded(&objects, mi, params, &plan, workers);
        let classic = phase1(&objects, mi, objects.len(), params);
        prop_assert_eq!(sharded.leaves.len(), classic.leaves.len());
        for (x, y) in sharded.leaves.iter().zip(&classic.leaves) {
            prop_assert_eq!(x.weight.to_bits(), y.weight.to_bits());
            prop_assert_eq!(x.count, y.count);
            prop_assert_eq!(x.cond.entries(), y.cond.entries());
            prop_assert_eq!(x.cond.total().to_bits(), y.cond.total().to_bits());
        }
    }

    #[test]
    fn leaf_count_monotone_in_phi(objects in arb_objects()) {
        let mi = info_of(&objects);
        let mut prev = usize::MAX;
        for phi in [0.0, 0.5, 1.0, 2.0] {
            let model = phase1(&objects, mi, objects.len(), LimboParams::with_phi(phi));
            prop_assert!(model.leaves.len() <= prev,
                "φ={phi}: {} leaves > previous {prev}", model.leaves.len());
            prev = model.leaves.len();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The chunked tuple folds: tuple DCFs and `I(T;V)` read the
    /// context's chunk pass, so a store context at any chunk size and any
    /// thread count yields the memory context's bits, and those equal a
    /// row-by-row oracle. Phase 1 streamed from a store at the default
    /// chunk size is the in-memory `--shards` run.
    #[test]
    fn chunked_tuple_folds_are_bit_identical(csv in arb_csv(), phi in 0.0f64..2.0) {
        let rel = read_relation(csv.as_bytes(), "t").unwrap();
        let (m, n) = (rel.n_attrs(), rel.n_tuples());
        let stride = qualified_stride(rel.dict().len(), m);
        let oracle: Vec<Dcf> = (0..n)
            .map(|t| {
                let row = qualified_row(stride, 1.0 / m as f64, (0..m).map(|a| rel.value(t, a)));
                Dcf::singleton(1.0 / n as f64, row)
            })
            .collect();
        let mem = AnalysisCtx::from(rel);
        let mi = mem.tuple_mutual_information();
        let objects = tuple_dcfs_ctx(&mem, 1);
        prop_assert!(same_bits(&objects, &oracle), "memory context vs oracle");

        let mut stores = Vec::new();
        for chunk in [1usize, 3, 16] {
            let (ctx, store) = store_ctx(&csv, chunk);
            prop_assert_eq!(ctx.tuple_mutual_information().to_bits(), mi.to_bits());
            for threads in [1usize, 2, 4] {
                prop_assert!(same_bits(&tuple_dcfs_ctx(&ctx, threads), &oracle),
                    "chunk={} threads={}", chunk, threads);
            }
            let params = LimboParams::with_phi(phi).shards(Some(2));
            let plan = ShardPlan::with_chunk_size(n, chunk);
            let streamed = phase1_store(&ctx, params);
            prop_assert!(same_leaves(&streamed, &phase1_sharded(&objects, mi, params, &plan, 2)),
                "phase1_store chunk={}", chunk);
            prop_assert_eq!(ctx.view_stats().materializations, 0);
            stores.push(store);
        }
        for threads in [2usize, 4] {
            prop_assert!(same_bits(&tuple_dcfs_ctx(&mem, threads), &oracle), "threads={}", threads);
        }

        // The default chunk size is the auto plan: every shard worker
        // count streams the in-memory `--shards 1` leaves.
        let (ctx, store) = store_ctx(&csv, 0);
        for threads in [1usize, 2, 4] {
            prop_assert!(same_bits(&tuple_dcfs_ctx(&ctx, threads), &oracle),
                "default chunk threads={}", threads);
        }
        let auto = phase1_auto(&objects, mi, LimboParams::with_phi(phi).shards(Some(1)));
        for workers in [1usize, 2, 4] {
            let streamed = phase1_store(&ctx, LimboParams::with_phi(phi).shards(Some(workers)));
            prop_assert_eq!(streamed.mutual_information.to_bits(), mi.to_bits());
            prop_assert!(same_leaves(&streamed, &auto), "default chunking workers={}", workers);
        }
        stores.push(store);
        for store in stores {
            std::fs::remove_file(store).ok();
        }
    }
}
