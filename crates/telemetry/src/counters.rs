//! Named global counters for the pipeline's cost drivers.
//!
//! Counters are a fixed enum-indexed array of `AtomicU64`s bumped with
//! `Ordering::Relaxed`; with the `telemetry` feature off, [`counter_add`]
//! is an empty inline function and no statics exist.

/// The named counters tracked across the mining pipeline. Each maps to
/// one quantity from the paper's complexity analysis (or one cache the
/// implementation adds on top of it).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(usize)]
pub enum Counter {
    /// JS-divergence evaluations (`infotheory::js_divergence`), the unit
    /// cost of every DCF distance probe in AIB and the DCF tree.
    JsEvals,
    /// In-place DCF merges (`Dcf::merge_in_place`) across AIB, Phase 1
    /// absorbs, and horizontal partitioning.
    DcfMerges,
    /// DCF-tree node splits during Phase 1 (`DcfTree::split`).
    TreeSplits,
    /// DCF-tree leaf-entry absorbs during Phase 1 (insert merged into an
    /// existing entry within the φ threshold).
    TreeAbsorbs,
    /// AIB candidate heap: pops of a slot's current best candidate (one
    /// per merge).
    NnCacheHits,
    /// AIB candidate heap: stale pops, skipped because the slot died or
    /// its best candidate changed since the push.
    NnCacheMisses,
    /// Stripped-partition products, the unit cost of the lattice walks'
    /// expansion: one per product or count-only product
    /// (`Probe::product` / `Probe::product_sizes`), however many
    /// products share one loaded probe. A bounded TANE or `g3` walk
    /// builds none for its last level; F̂ builds count-only ones there.
    PartitionProducts,
    /// g3 approximation-error evaluations (`g3_error_with`).
    G3Evals,
    /// Lattice nodes scored per level of the lattice walk, summed over
    /// levels (the level-wise lattice size), for every score: exact,
    /// `g3` and F̂.
    TaneLatticeNodes,
    /// Redundant cells counted by FD-RANK (`fdrank::redundant_cells_ctx`),
    /// summed over ranked FDs.
    FdrankRedundantCells,
    /// Shared views materialized by an `AnalysisCtx` (`dbmine-context`):
    /// every `ValueIndex`/mutual-information/partition/column-profile/
    /// projection-memo construction counts once.
    ViewBuilds,
    /// `AnalysisCtx` accesses served from an already-built view.
    ViewCacheHits,
    /// `CtxCache` (the daemon's LRU of shared contexts) lookups that
    /// found a resident `AnalysisCtx` for the requested content hash.
    CtxLruHits,
    /// `CtxCache` lookups that had to admit a fresh context (including
    /// any eviction that made room for it).
    CtxLruMisses,
    /// Plan chunks ingested into per-shard DCF-trees during LIMBO
    /// Phase 1 (`limbo::ShardedPhase1`), one per chunk built: every
    /// Phase 1 of `n > 0` objects counts at least one.
    ShardIngests,
    /// DCF-tree merges during LIMBO Phase 1: shard trees folded into
    /// the final tree by leaf re-insertion, one per shard tree merged
    /// (none for a one-chunk plan).
    TreeMerges,
    /// Chunks spilled to a binary columnar shard store
    /// (`relation::spill::SpillWriter`), one per block written.
    SpillChunksWritten,
    /// Chunks decoded from a binary columnar shard store
    /// (`relation::spill::StoreChunks`), one per block read.
    SpillChunksRead,
    /// Reliable-fraction-of-information evaluations
    /// (`dbmine-reliability`): one full F̂(X→Y) score — plugin fraction
    /// plus permutation-model bias — computed from a partition pair.
    RfiEvals,
    /// Branch-and-bound upper bounds F̄ evaluated while deciding whether
    /// a lattice node's descendants can be skipped (`mine_reliable_ctx`).
    BnbBounds,
    /// Lattice nodes whose descendants were pruned by the
    /// branch-and-bound bound (`mine_reliable_ctx`).
    BnbPrunes,
    /// Full in-memory `Relation` materializations of a chunk-backed
    /// `AnalysisCtx` (`dbmine-context`): always zero, kept for the
    /// reports that print it.
    CtxMaterializations,
    /// LIMBO Phase 3 index reads (`ib::RepIndex`): the rare-token
    /// postings each object walks, plus the `q·|S|` dense-block cells
    /// read per signature `S` of frequent tokens a worker builds.
    AssignPostings,
}

/// Number of distinct counters.
pub const N_COUNTERS: usize = 23;

/// All counters, in index order. `COUNTERS[c as usize] == c` for every
/// counter `c`.
pub const COUNTERS: [Counter; N_COUNTERS] = [
    Counter::JsEvals,
    Counter::DcfMerges,
    Counter::TreeSplits,
    Counter::TreeAbsorbs,
    Counter::NnCacheHits,
    Counter::NnCacheMisses,
    Counter::PartitionProducts,
    Counter::G3Evals,
    Counter::TaneLatticeNodes,
    Counter::FdrankRedundantCells,
    Counter::ViewBuilds,
    Counter::ViewCacheHits,
    Counter::CtxLruHits,
    Counter::CtxLruMisses,
    Counter::ShardIngests,
    Counter::TreeMerges,
    Counter::SpillChunksWritten,
    Counter::SpillChunksRead,
    Counter::RfiEvals,
    Counter::BnbBounds,
    Counter::BnbPrunes,
    Counter::CtxMaterializations,
    Counter::AssignPostings,
];

impl Counter {
    /// Stable snake_case name used in JSON reports and text rendering.
    pub const fn name(self) -> &'static str {
        match self {
            Counter::JsEvals => "js_evals",
            Counter::DcfMerges => "dcf_merges",
            Counter::TreeSplits => "tree_splits",
            Counter::TreeAbsorbs => "tree_absorbs",
            Counter::NnCacheHits => "nn_cache_hits",
            Counter::NnCacheMisses => "nn_cache_misses",
            Counter::PartitionProducts => "partition_products",
            Counter::G3Evals => "g3_evals",
            Counter::TaneLatticeNodes => "tane_lattice_nodes",
            Counter::FdrankRedundantCells => "fdrank_redundant_cells",
            Counter::ViewBuilds => "view_builds",
            Counter::ViewCacheHits => "view_cache_hits",
            Counter::CtxLruHits => "ctx_lru_hits",
            Counter::CtxLruMisses => "ctx_lru_misses",
            Counter::ShardIngests => "shard_ingests",
            Counter::TreeMerges => "tree_merges",
            Counter::SpillChunksWritten => "spill_chunks_written",
            Counter::SpillChunksRead => "spill_chunks_read",
            Counter::RfiEvals => "rfi_evals",
            Counter::BnbBounds => "bnb_bounds",
            Counter::BnbPrunes => "bnb_prunes",
            Counter::CtxMaterializations => "ctx_materializations",
            Counter::AssignPostings => "assign_postings",
        }
    }
}

/// A point-in-time copy of every counter. Subtract two snapshots to get
/// the deltas over a window (`CounterSnapshot::delta`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub struct CounterSnapshot {
    pub values: [u64; N_COUNTERS],
}

impl CounterSnapshot {
    /// Per-counter difference `self - earlier`, saturating at zero so a
    /// torn read under concurrency can never underflow.
    pub fn delta(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        let mut values = [0u64; N_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = self.values[i].saturating_sub(earlier.values[i]);
        }
        CounterSnapshot { values }
    }

    /// Value of one counter in this snapshot.
    pub fn get(&self, c: Counter) -> u64 {
        self.values[c as usize]
    }

    /// `(name, value)` pairs for counters with non-zero values.
    pub fn nonzero(&self) -> Vec<(&'static str, u64)> {
        COUNTERS
            .iter()
            .filter(|c| self.values[**c as usize] != 0)
            .map(|c| (c.name(), self.values[*c as usize]))
            .collect()
    }
}

#[cfg(feature = "telemetry")]
mod imp {
    use super::{Counter, CounterSnapshot, N_COUNTERS};
    use std::sync::atomic::{AtomicU64, Ordering};

    #[allow(clippy::declare_interior_mutable_const)]
    const ZERO: AtomicU64 = AtomicU64::new(0);
    static VALUES: [AtomicU64; N_COUNTERS] = [ZERO; N_COUNTERS];

    #[inline(always)]
    pub fn counter_add(c: Counter, n: u64) {
        VALUES[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn counter_value(c: Counter) -> u64 {
        VALUES[c as usize].load(Ordering::Relaxed)
    }

    #[inline]
    pub fn snapshot() -> CounterSnapshot {
        let mut values = [0u64; N_COUNTERS];
        for (i, v) in values.iter_mut().enumerate() {
            *v = VALUES[i].load(Ordering::Relaxed);
        }
        CounterSnapshot { values }
    }
}

#[cfg(not(feature = "telemetry"))]
mod imp {
    use super::{Counter, CounterSnapshot};

    #[inline(always)]
    pub fn counter_add(c: Counter, n: u64) {
        let _ = (c, n);
    }

    #[inline(always)]
    pub fn counter_value(c: Counter) -> u64 {
        let _ = c;
        0
    }

    #[inline(always)]
    pub fn snapshot() -> CounterSnapshot {
        CounterSnapshot::default()
    }
}

/// Add `n` to counter `c`. One relaxed atomic add with the `telemetry`
/// feature on; a true no-op with it off.
#[inline(always)]
pub fn counter_add(c: Counter, n: u64) {
    imp::counter_add(c, n);
}

/// Current process-lifetime value of counter `c` (0 when the feature is
/// off).
#[inline(always)]
pub fn counter_value(c: Counter) -> u64 {
    imp::counter_value(c)
}

/// Snapshot every counter (all zeros when the feature is off).
#[inline(always)]
pub fn snapshot() -> CounterSnapshot {
    imp::snapshot()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_array_matches_indices() {
        for (i, c) in COUNTERS.iter().enumerate() {
            assert_eq!(*c as usize, i, "counter {:?} out of order", c);
        }
        assert_eq!(COUNTERS.len(), N_COUNTERS);
    }

    #[test]
    fn names_are_unique_snake_case() {
        let mut seen = std::collections::HashSet::new();
        for c in COUNTERS {
            let name = c.name();
            assert!(seen.insert(name), "duplicate counter name {name}");
            assert!(name
                .chars()
                .all(|ch| ch.is_ascii_lowercase() || ch.is_ascii_digit() || ch == '_'));
        }
    }

    #[test]
    #[cfg(feature = "telemetry")]
    fn add_and_delta() {
        let before = snapshot();
        counter_add(Counter::JsEvals, 5);
        counter_add(Counter::JsEvals, 2);
        counter_add(Counter::DcfMerges, 1);
        let after = snapshot();
        let d = after.delta(&before);
        assert_eq!(d.get(Counter::JsEvals), 7);
        assert_eq!(d.get(Counter::DcfMerges), 1);
        assert_eq!(d.get(Counter::TreeSplits), 0);
    }

    #[test]
    #[cfg(not(feature = "telemetry"))]
    fn off_mode_is_inert() {
        counter_add(Counter::JsEvals, 5);
        assert_eq!(counter_value(Counter::JsEvals), 0);
        assert_eq!(snapshot(), CounterSnapshot::default());
    }

    #[test]
    fn delta_saturates() {
        let mut a = CounterSnapshot::default();
        let mut b = CounterSnapshot::default();
        a.values[0] = 3;
        b.values[0] = 10;
        let d = a.delta(&b);
        assert_eq!(d.values[0], 0);
    }
}
