//! Sharded LIMBO Phase 1: chunked DCF-tree construction + tree merge.
//!
//! The scale path for 10⁷-tuple relations (see DESIGN.md "Sharded
//! ingest"). The object stream is cut into a [`ShardPlan`] — chunk
//! boundaries that are a pure function of the object count, **never** of
//! the worker count — and Phase 1 runs in two stages:
//!
//! 1. **Shard build** (`phase1.shard`): each chunk streams into its own
//!    [`DcfTree`] with the *global* threshold `τ = φ·I(V;T)/n`. Chunks
//!    are independent, so they build under
//!    [`dbmine_parallel::par_map_coarse`] across the shard workers.
//! 2. **Tree merge** (`phase1.merge`): the shard trees merge by
//!    re-inserting their leaves, in shard order, into one final tree via
//!    the arena's allocation-light borrowed insert — exactly the merge the
//!    ROADMAP prescribes. A single-chunk plan skips this stage and is
//!    **bit-identical** to the classic single-pass [`crate::phase1`].
//!
//! # Determinism contract
//!
//! * The output is a pure function of `(objects, τ, branching, plan)`:
//!   shard workers only change wall-clock time, so `--shards 4` and
//!   `--shards 1` produce byte-identical results (pinned by property
//!   tests and the CI sharded smoke job).
//! * For plans with more than one chunk the leaf summary may differ from
//!   the classic single-pass tree in which near-objects (within `τ`)
//!   were absorbed where — the greedy absorb order is different by
//!   construction. What is preserved exactly: object count, total mass
//!   conservation, and (at `φ = 0`, via the identical-conditional merge
//!   fast path in `dbmine-ib`) the exact duplicate classes.
//!
//! The incremental driver [`ShardedPhase1`] is the out-of-core entry
//! point: chunks arrive in bounded batches, each batch is reduced to its
//! shard leaves, and the chunk objects are dropped — peak memory holds
//! one batch of chunks plus the accumulated leaves, never the relation.

use crate::input::tuple_dcfs_for_chunk;
use crate::pipeline::{phase1, LimboModel, LimboParams};
use crate::tree::DcfTree;
use dbmine_context::AnalysisCtx;
use dbmine_ib::Dcf;
use dbmine_parallel::par_map_coarse;
use dbmine_telemetry::{counter_add, Counter};
use std::ops::Range;

/// Default chunk size of [`ShardPlan::auto`]: 64 Ki tuples per shard
/// chunk — the same granularity the chunked CSV ingest uses, so an
/// out-of-core run maps one ingest chunk to one shard. Large enough
/// that per-chunk tree overhead is noise, small enough that a worker's
/// working set stays cache- and memory-friendly.
pub use dbmine_relation::DEFAULT_CHUNK_TUPLES;

/// The chunk boundaries of a sharded Phase 1 run.
///
/// A plan is derived from the object count alone (or fixed explicitly
/// for tests) — worker counts never influence it, which is what makes
/// sharded output invariant under `--shards`/`--threads`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    n: usize,
    /// Exclusive chunk end offsets, strictly increasing, last == `n`.
    /// Empty iff `n == 0`.
    bounds: Vec<usize>,
}

impl ShardPlan {
    /// The canonical plan for `n` objects: full chunks of
    /// [`DEFAULT_CHUNK_TUPLES`], remainder last — exactly the chunking
    /// a default [`dbmine_relation::ShardedRelation`] pass produces, so
    /// the out-of-core store path and the in-memory `--shards` path run
    /// the *same* plan and stay bit-identical. One chunk for anything
    /// that fits — small relations take the classic single-pass path
    /// bit for bit.
    pub fn auto(n: usize) -> ShardPlan {
        ShardPlan::with_chunk_size(n, DEFAULT_CHUNK_TUPLES)
    }

    /// A plan cutting `n` objects into chunks of `chunk` (the last chunk
    /// takes the remainder).
    pub fn with_chunk_size(n: usize, chunk: usize) -> ShardPlan {
        assert!(chunk > 0, "chunk size must be positive");
        let mut bounds = Vec::with_capacity(n.div_ceil(chunk.max(1)));
        let mut end = chunk;
        while end < n {
            bounds.push(end);
            end += chunk;
        }
        if n > 0 {
            bounds.push(n);
        }
        ShardPlan { n, bounds }
    }

    /// A plan with explicit chunk end offsets (test hook for arbitrary —
    /// including mid-duplicate — boundaries). `bounds` must be strictly
    /// increasing and end at `n`.
    pub fn from_bounds(n: usize, bounds: Vec<usize>) -> ShardPlan {
        assert_eq!(bounds.is_empty(), n == 0, "empty bounds iff no objects");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        assert!(bounds.first().is_none_or(|&b| b > 0), "first chunk empty");
        assert_eq!(bounds.last().copied().unwrap_or(0), n, "last bound != n");
        ShardPlan { n, bounds }
    }

    /// Total objects covered by the plan.
    pub fn n_objects(&self) -> usize {
        self.n
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.bounds.len()
    }

    /// The chunk index ranges, in order.
    pub fn ranges(&self) -> impl Iterator<Item = Range<usize>> + '_ {
        self.bounds.iter().scan(0usize, |start, &end| {
            let r = *start..end;
            *start = end;
            Some(r)
        })
    }
}

/// Incremental sharded Phase 1 — the out-of-core driver.
///
/// Chunks of singleton DCFs arrive in batches via
/// [`ShardedPhase1::ingest_chunks`]; each batch is reduced to per-chunk
/// leaf summaries in parallel across the shard workers and the chunk
/// objects can be dropped immediately after. [`ShardedPhase1::finish`]
/// merges the shard trees (leaf re-insertion, shard order) into the
/// final model.
///
/// Feeding every chunk of a [`ShardPlan`] in order produces exactly
/// [`phase1_sharded`]'s output — batching only bounds memory, it never
/// changes results.
#[derive(Debug)]
pub struct ShardedPhase1 {
    threshold: f64,
    branching: usize,
    workers: usize,
    mutual_information: f64,
    n_expected: usize,
    n_ingested: usize,
    shard_leaves: Vec<Vec<Dcf>>,
}

impl ShardedPhase1 {
    /// A driver for `n_objects` total objects. `workers` is the shard
    /// parallelism (`1` = serial, `0` = all cores); the threshold is the
    /// classic global `φ · mutual_information / n_objects`.
    pub fn new(
        mutual_information: f64,
        n_objects: usize,
        params: LimboParams,
        workers: usize,
    ) -> Self {
        let threshold = if n_objects == 0 {
            0.0
        } else {
            params.phi * mutual_information / n_objects as f64
        };
        ShardedPhase1 {
            threshold,
            branching: params.branching,
            workers,
            mutual_information,
            n_expected: n_objects,
            n_ingested: 0,
            shard_leaves: Vec::new(),
        }
    }

    /// Ingests one batch of consecutive chunks. The chunks build their
    /// DCF-trees concurrently (order-preserving, bit-identical for every
    /// worker count); each contributes its leaves to the merge queue.
    pub fn ingest_chunks<C: AsRef<[Dcf]> + Sync>(&mut self, chunks: &[C]) {
        if chunks.is_empty() {
            return;
        }
        let _span = dbmine_telemetry::span("phase1.shard");
        let (branching, threshold) = (self.branching, self.threshold);
        let leaves = par_map_coarse(self.workers, chunks, |_, chunk| {
            counter_add(Counter::ShardIngests, 1);
            let chunk = chunk.as_ref();
            let mut tree = DcfTree::new(branching, threshold);
            for o in chunk {
                tree.insert(o);
            }
            tree.into_leaves()
        });
        self.n_ingested += chunks.iter().map(|c| c.as_ref().len()).sum::<usize>();
        self.shard_leaves.extend(leaves);
    }

    /// Objects ingested so far.
    pub fn n_ingested(&self) -> usize {
        self.n_ingested
    }

    /// Merges the shard trees and returns the final model. With a single
    /// chunk the shard tree *is* the final tree (bit-identical to the
    /// classic [`crate::phase1`]); otherwise every shard's leaves
    /// re-insert, in shard order, into a fresh tree.
    pub fn finish(self) -> LimboModel {
        debug_assert_eq!(
            self.n_ingested, self.n_expected,
            "ingested objects must match the declared total"
        );
        let leaves = if self.shard_leaves.len() <= 1 {
            self.shard_leaves.into_iter().next().unwrap_or_default()
        } else {
            let _span = dbmine_telemetry::span("phase1.merge");
            let mut tree = DcfTree::new(self.branching, self.threshold);
            for shard in &self.shard_leaves {
                counter_add(Counter::TreeMerges, 1);
                for leaf in shard {
                    tree.insert(leaf);
                }
            }
            tree.into_leaves()
        };
        LimboModel {
            leaves,
            threshold: self.threshold,
            mutual_information: self.mutual_information,
            n_objects: self.n_ingested,
        }
    }
}

/// Sharded Phase 1 over an in-memory object slice: cuts `objects` by
/// `plan`, builds the shard trees across `workers`, merges. See the
/// module docs for the determinism contract.
pub fn phase1_sharded(
    objects: &[Dcf],
    mutual_information: f64,
    params: LimboParams,
    plan: &ShardPlan,
    workers: usize,
) -> LimboModel {
    assert_eq!(
        plan.n_objects(),
        objects.len(),
        "plan does not cover the object slice"
    );
    let mut driver = ShardedPhase1::new(mutual_information, objects.len(), params, workers);
    let chunks: Vec<&[Dcf]> = plan.ranges().map(|r| &objects[r]).collect();
    driver.ingest_chunks(&chunks);
    driver.finish()
}

/// Phase 1 with the shard knob resolved from `params.shards`:
///
/// * `None` — the classic single-pass [`phase1`] (the default
///   everywhere; zero behavior change);
/// * `Some(workers)` — [`phase1_sharded`] over [`ShardPlan::auto`],
///   with `workers` shard workers (`0` = all cores). Output depends
///   only on the object count's auto plan, never on `workers`.
pub fn phase1_auto(objects: &[Dcf], mutual_information: f64, params: LimboParams) -> LimboModel {
    match params.shards {
        None => phase1(objects.iter(), mutual_information, objects.len(), params),
        Some(workers) => {
            let plan = ShardPlan::auto(objects.len());
            phase1_sharded(objects, mutual_information, params, &plan, workers)
        }
    }
}

/// Streaming Phase 1 over the context's chunk pass, never holding more
/// than one batch of chunk objects:
///
/// * `I(T;V)` is the context's memoized fold
///   ([`AnalysisCtx::tuple_mutual_information`]), one pass on first use;
/// * then each chunk of [`AnalysisCtx::chunks`] becomes its singleton
///   tuple DCFs ([`crate::input::tuple_dcfs_for_chunk`]) and streams
///   through [`ShardedPhase1`] in worker-sized batches; chunk objects
///   drop as soon as their shard tree is built.
///
/// On a store-backed context peak memory holds one batch of chunks plus
/// the accumulated shard leaves — bounded by the store's chunk size,
/// never by `n` — and no relation is materialized. A memory context is
/// one chunk, so it runs the classic single-pass tree.
///
/// `params.shards` gives the shard workers (`None` → 1); when the store
/// chunk size is the default, the chunking equals [`ShardPlan::auto`],
/// so the result is bit-identical to running [`phase1_auto`] with the
/// same `params` on [`crate::tuple_dcfs_ctx`]'s objects — pinned by
/// tests. The model carries the `I(T;V)` it used.
pub fn phase1_store(ctx: &AnalysisCtx, params: LimboParams) -> LimboModel {
    let mutual_information = ctx.tuple_mutual_information();
    let workers = params.shards.unwrap_or(1);
    let batch_size = dbmine_parallel::effective_threads(workers).max(1);
    let mut driver = ShardedPhase1::new(mutual_information, ctx.n_tuples(), params, workers);
    let mut batch: Vec<Vec<Dcf>> = Vec::with_capacity(batch_size);
    for chunk in ctx.chunks() {
        batch.push(tuple_dcfs_for_chunk(ctx, &chunk, 1));
        if batch.len() == batch_size {
            driver.ingest_chunks(&batch);
            batch.clear();
        }
    }
    driver.ingest_chunks(&batch);
    driver.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_infotheory::SparseDist;
    use dbmine_relation::ShardedRelation;

    /// Deterministic xorshift64* stream (same pattern as the tree
    /// reference tests) so the proptests need no RNG dependency.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    /// `n` singleton DCFs over a domain of `dom` distinct conditionals —
    /// small `dom` forces duplicate objects, so random chunk boundaries
    /// routinely split a duplicate run mid-class.
    fn random_objects(seed: u64, n: usize, dom: u64) -> Vec<Dcf> {
        let mut rng = XorShift(seed | 1);
        (0..n)
            .map(|_| {
                let v = rng.next() % dom;
                let support = 1 + (rng.next() % 3) as u32;
                let pairs: Vec<(u32, f64)> = (0..support)
                    .map(|i| (v as u32 * 4 + i, 1.0 / support as f64))
                    .collect();
                Dcf::singleton(1.0 / n as f64, SparseDist::from_pairs(pairs))
            })
            .collect()
    }

    fn random_plan(seed: u64, n: usize) -> ShardPlan {
        let mut rng = XorShift(seed | 1);
        let k = 1 + (rng.next() % 8) as usize;
        if k == 1 || n <= 1 {
            return ShardPlan::from_bounds(n, if n == 0 { vec![] } else { vec![n] });
        }
        let mut bounds: Vec<usize> = (0..k - 1).map(|_| 1 + (rng.next() as usize) % n).collect();
        bounds.push(n);
        bounds.sort_unstable();
        bounds.dedup();
        ShardPlan::from_bounds(n, bounds)
    }

    /// The serial reference fold: per-chunk trees in order, then leaf
    /// re-insertion in shard order — what `phase1_sharded` must compute
    /// regardless of worker count.
    fn reference_sharded(
        objects: &[Dcf],
        tau: f64,
        branching: usize,
        plan: &ShardPlan,
    ) -> Vec<Dcf> {
        let shard_leaves: Vec<Vec<Dcf>> = plan
            .ranges()
            .map(|r| {
                let mut tree = DcfTree::new(branching, tau);
                for o in &objects[r] {
                    tree.insert(o);
                }
                tree.into_leaves()
            })
            .collect();
        if shard_leaves.len() <= 1 {
            return shard_leaves.into_iter().next().unwrap_or_default();
        }
        let mut tree = DcfTree::new(branching, tau);
        for shard in &shard_leaves {
            for leaf in shard {
                tree.insert(leaf);
            }
        }
        tree.into_leaves()
    }

    fn assert_bit_identical(a: &[Dcf], b: &[Dcf], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: leaf counts diverge");
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.weight.to_bits(), y.weight.to_bits(), "{what}: weights");
            assert_eq!(x.count, y.count, "{what}: counts");
            assert_eq!(x.cond.entries(), y.cond.entries(), "{what}: conditionals");
        }
    }

    #[test]
    fn auto_plan_shape() {
        assert_eq!(ShardPlan::auto(0).n_chunks(), 0);
        assert_eq!(ShardPlan::auto(1).n_chunks(), 1);
        assert_eq!(ShardPlan::auto(DEFAULT_CHUNK_TUPLES).n_chunks(), 1);
        let p = ShardPlan::auto(DEFAULT_CHUNK_TUPLES + 1);
        assert_eq!(p.n_chunks(), 2);
        // Full chunks then remainder, covering exactly 0..n in order —
        // the same boundaries a default store chunk pass yields.
        let ranges: Vec<_> = p.ranges().collect();
        assert_eq!(ranges[0], 0..DEFAULT_CHUNK_TUPLES);
        assert_eq!(ranges[1], DEFAULT_CHUNK_TUPLES..DEFAULT_CHUNK_TUPLES + 1);
        // Deterministic in n alone.
        assert_eq!(ShardPlan::auto(200_000), ShardPlan::auto(200_000));
        assert_eq!(ShardPlan::auto(200_000).n_chunks(), 4);
    }

    #[test]
    fn single_chunk_is_bit_identical_to_classic_phase1() {
        for (seed, n, dom) in [(7, 0, 4), (11, 1, 4), (13, 257, 6), (17, 400, 40)] {
            let objects = random_objects(seed, n, dom);
            for phi in [0.0, 1.0, 4.0] {
                let params = LimboParams::with_phi(phi);
                let classic = phase1(&objects, 0.9, n, params);
                let plan = ShardPlan::with_chunk_size(n, n.max(1));
                assert!(plan.n_chunks() <= 1);
                for workers in [1usize, 2, 4] {
                    let sharded = phase1_sharded(&objects, 0.9, params, &plan, workers);
                    assert_eq!(sharded.threshold.to_bits(), classic.threshold.to_bits());
                    assert_eq!(sharded.n_objects, classic.n_objects);
                    assert_bit_identical(
                        &sharded.leaves,
                        &classic.leaves,
                        &format!("single chunk n={n} phi={phi} workers={workers}"),
                    );
                }
            }
        }
    }

    #[test]
    fn sharded_matches_serial_reference_for_random_plans() {
        // Random shard counts (1..8) and random chunk boundaries —
        // including boundaries that split runs of duplicate objects —
        // at φ ∈ {0, 1, 4}, across 1/2/4 workers: the parallel build
        // must reproduce the serial chunk-then-merge fold bit for bit.
        for seed in [3u64, 19, 71, 1009] {
            for &n in &[5usize, 64, 257, 600] {
                let objects = random_objects(seed, n, 5); // dom 5 → heavy duplication
                let plan = random_plan(seed.wrapping_mul(n as u64), n);
                for phi in [0.0, 1.0, 4.0] {
                    let params = LimboParams::with_phi(phi);
                    let tau = phi * 0.9 / n as f64;
                    let reference = reference_sharded(&objects, tau, params.branching, &plan);
                    for workers in [1usize, 2, 4] {
                        let m = phase1_sharded(&objects, 0.9, params, &plan, workers);
                        assert_bit_identical(
                            &m.leaves,
                            &reference,
                            &format!("seed={seed} n={n} phi={phi} workers={workers} plan={plan:?}"),
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn incremental_driver_matches_one_shot_for_any_batching() {
        let n = 500;
        let objects = random_objects(42, n, 6);
        let plan = ShardPlan::with_chunk_size(n, 64);
        let params = LimboParams::with_phi(1.0);
        let one_shot = phase1_sharded(&objects, 0.9, params, &plan, 2);
        for batch in [1usize, 2, 3, 8] {
            let mut driver = ShardedPhase1::new(0.9, n, params, 2);
            let chunks: Vec<&[Dcf]> = plan.ranges().map(|r| &objects[r]).collect();
            for group in chunks.chunks(batch) {
                driver.ingest_chunks(group);
            }
            assert_eq!(driver.n_ingested(), n);
            let m = driver.finish();
            assert_bit_identical(&m.leaves, &one_shot.leaves, &format!("batch={batch}"));
        }
    }

    #[test]
    fn mass_and_count_conserved_across_plans() {
        let n = 300;
        let objects = random_objects(5, n, 4);
        for phi in [0.0, 1.0, 4.0] {
            for chunk in [17usize, 50, 300] {
                let plan = ShardPlan::with_chunk_size(n, chunk);
                let m = phase1_sharded(&objects, 0.9, LimboParams::with_phi(phi), &plan, 2);
                let count: usize = m.leaves.iter().map(|d| d.count).sum();
                let mass: f64 = m.leaves.iter().map(|d| d.weight).sum();
                assert_eq!(count, n, "phi={phi} chunk={chunk}");
                assert!((mass - 1.0).abs() < 1e-9, "phi={phi} chunk={chunk}: {mass}");
            }
        }
    }

    #[test]
    fn phi_zero_duplicate_classes_exact_across_plans() {
        // At φ = 0 only identical conditionals merge, and the
        // identical-conditional fast path keeps the class conditional
        // *exactly* — so every plan yields the same set of (conditional,
        // member count) classes, independent of where chunk boundaries
        // split a class.
        let n = 240;
        let objects = random_objects(23, n, 4);
        let classic = phase1(&objects, 0.9, n, LimboParams::with_phi(0.0));
        let classes = |leaves: &[Dcf]| {
            let mut c: Vec<(Vec<(u32, u64)>, usize)> = leaves
                .iter()
                .map(|d| {
                    let key: Vec<(u32, u64)> =
                        d.cond.iter().map(|(k, v)| (k, v.to_bits())).collect();
                    (key, d.count)
                })
                .collect();
            c.sort();
            c
        };
        let expected = classes(&classic.leaves);
        for chunk in [7usize, 64, 100, 240] {
            let plan = ShardPlan::with_chunk_size(n, chunk);
            let m = phase1_sharded(&objects, 0.9, LimboParams::with_phi(0.0), &plan, 2);
            assert_eq!(classes(&m.leaves), expected, "chunk={chunk}");
            // Class masses agree to within accumulated rounding (the
            // groupings of the 1/n additions differ across plans).
            let mass: f64 = m.leaves.iter().map(|d| d.weight).sum();
            assert!((mass - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn phase1_auto_dispatch() {
        let n = 100;
        let objects = random_objects(9, n, 8);
        let params = LimboParams::with_phi(1.0);
        let classic = phase1(&objects, 0.9, n, params);
        // No shard knob → the classic path, bit for bit.
        let auto_off = phase1_auto(&objects, 0.9, params);
        assert_bit_identical(&auto_off.leaves, &classic.leaves, "shards=None");
        // Shards on, but the auto plan for 100 objects is one chunk —
        // still the classic output, for every worker count.
        for workers in [1usize, 2, 0] {
            let p = LimboParams {
                shards: Some(workers),
                ..params
            };
            let auto_on = phase1_auto(&objects, 0.9, p);
            assert_bit_identical(&auto_on.leaves, &classic.leaves, "shards=Some");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn from_bounds_rejects_unsorted() {
        let _ = ShardPlan::from_bounds(10, vec![5, 3, 10]);
    }

    /// A duplicate-heavy synthetic CSV for the out-of-core identity
    /// tests: `n` rows over 3 attributes drawn from tiny domains.
    fn synthetic_csv(n: usize) -> String {
        let mut rng = XorShift(0xC0FFEE);
        let mut out = String::from("A,B,C\n");
        for _ in 0..n {
            let a = rng.next() % 4;
            let b = rng.next() % 3;
            out.push_str(&format!("a{a},b{b},"));
            if rng.next().is_multiple_of(5) {
                out.push('\n'); // NULL in C
            } else {
                out.push_str(&format!("c{}\n", rng.next() % 4));
            }
        }
        out
    }

    /// Spills `csv` (named `t`) into a fresh temporary store, removed
    /// once the test is done with it, and hands `f` a context over it.
    fn with_store<T>(csv: &str, chunk: usize, f: impl FnOnce(&AnalysisCtx) -> T) -> T {
        use std::sync::atomic::{AtomicU64, Ordering};
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join("dbmine_limbo_store_test");
        std::fs::create_dir_all(&dir).unwrap();
        let id = SEQ.fetch_add(1, Ordering::Relaxed);
        let store = dir.join(format!("{}_{id}.dbss", std::process::id()));
        let sharded = ShardedRelation::scan_csv_spill(csv.as_bytes(), "t", chunk, &store).unwrap();
        let out = f(&AnalysisCtx::from_chunks(sharded).unwrap());
        std::fs::remove_file(&store).ok();
        out
    }

    /// The tuple DCFs and `I(T;V)` of `csv` loaded in memory.
    fn in_memory(csv: &str) -> (Vec<Dcf>, f64) {
        let rel = dbmine_relation::csv::read_relation(csv.as_bytes(), "t").unwrap();
        let ctx = AnalysisCtx::from(rel);
        (
            crate::tuple_dcfs_ctx(&ctx, 1),
            ctx.tuple_mutual_information(),
        )
    }

    #[test]
    fn out_of_core_phase1_is_bit_identical_to_in_memory() {
        let n = 400;
        let csv = synthetic_csv(n);
        let (objects, mi_ref) = in_memory(&csv);
        for chunk in [64usize, 150, 1000] {
            with_store(&csv, chunk, |ctx| {
                for phi in [0.0, 1.0, 4.0] {
                    for workers in [1usize, 2, 4] {
                        let params = LimboParams::with_phi(phi).shards(Some(workers));
                        let model = phase1_store(ctx, params);
                        let mi = model.mutual_information;
                        assert_eq!(mi.to_bits(), mi_ref.to_bits(), "chunk={chunk} phi={phi}");
                        // Reference: the same plan over in-memory objects.
                        let plan = ShardPlan::with_chunk_size(n, chunk);
                        let reference = phase1_sharded(&objects, mi_ref, params, &plan, workers);
                        assert_eq!(model.threshold.to_bits(), reference.threshold.to_bits());
                        assert_eq!(model.n_objects, n);
                        assert_bit_identical(
                            &model.leaves,
                            &reference.leaves,
                            &format!("out-of-core chunk={chunk} phi={phi} workers={workers}"),
                        );
                    }
                }
                assert_eq!(ctx.view_stats().materializations, 0);
            });
        }
    }

    #[test]
    fn out_of_core_with_default_chunking_matches_phase1_auto() {
        // With the default chunk size the store chunking IS the auto
        // plan, so the fully streamed run equals the in-memory
        // `--shards` run bit for bit (here n < chunk, which also pins it
        // to classic).
        let csv = synthetic_csv(300);
        let (objects, mi_ref) = in_memory(&csv);
        let params = LimboParams::with_phi(1.0).shards(Some(2));
        let model = with_store(&csv, 0, |ctx| phase1_store(ctx, params));
        let auto = phase1_auto(&objects, mi_ref, params);
        assert_eq!(model.mutual_information.to_bits(), mi_ref.to_bits());
        assert_bit_identical(&model.leaves, &auto.leaves, "default chunking ≡ auto");
        let classic = phase1(&objects, mi_ref, objects.len(), params);
        assert_bit_identical(&model.leaves, &classic.leaves, "single chunk ≡ classic");
        // A memory context is one chunk: the classic tree again.
        let rel = dbmine_relation::csv::read_relation(csv.as_bytes(), "t").unwrap();
        let resident = phase1_store(&AnalysisCtx::from(rel), params);
        assert_bit_identical(&resident.leaves, &classic.leaves, "memory ≡ classic");
    }

    #[test]
    fn store_backed_phase1_is_bit_identical_across_shard_counts() {
        // The store-backed chunk pass must drive Phase 1 to *exactly*
        // the output of the in-memory sharded build over the same plan,
        // and be invariant in the worker count — for several chunk
        // sizes and φ values.
        let n = 400;
        let csv = synthetic_csv(n);
        let (objects, mi_ref) = in_memory(&csv);
        for chunk in [64usize, 150] {
            with_store(&csv, chunk, |ctx| {
                for phi in [0.0, 1.0, 4.0] {
                    let params = LimboParams::with_phi(phi);
                    let serial = phase1_store(ctx, params.shards(Some(1)));
                    for workers in [1usize, 2, 4] {
                        let params = params.shards(Some(workers));
                        let from_store = phase1_store(ctx, params);
                        let mi_store = from_store.mutual_information;
                        assert_eq!(mi_store.to_bits(), mi_ref.to_bits());
                        let plan = ShardPlan::with_chunk_size(n, chunk);
                        let reference = phase1_sharded(&objects, mi_ref, params, &plan, workers);
                        let what = format!("store chunk={chunk} phi={phi} workers={workers}");
                        assert_bit_identical(&from_store.leaves, &reference.leaves, &what);
                        assert_bit_identical(&from_store.leaves, &serial.leaves, &what);
                    }
                }
            });
        }
    }

    #[test]
    fn out_of_core_empty_relation() {
        let model = with_store("A,B\n", 4, |ctx| phase1_store(ctx, LimboParams::default()));
        assert_eq!(model.mutual_information, 0.0);
        assert!(model.leaves.is_empty());
        assert_eq!(model.n_objects, 0);
    }

    #[test]
    fn out_of_core_path_backed_run() {
        let params = LimboParams::with_phi(1.0).shards(Some(2));
        let model = with_store(&synthetic_csv(200), 64, |ctx| phase1_store(ctx, params));
        assert!(model.mutual_information > 0.0);
        assert_eq!(model.n_objects, 200);
        let count: usize = model.leaves.iter().map(|d| d.count).sum();
        assert_eq!(count, 200);
    }
}
