//! `AnalysisCtx` — a shared, lazily-memoized view cache over one
//! relation.
//!
//! Every tool in the paper consumes the same handful of probabilistic
//! views of the relation: the tuple matrix `M` ([`TupleRows`]), the
//! value matrix `N` / support matrix `O` ([`ValueIndex`]), the mutual
//! informations `I(T;V)` and `I(V;T)`, single-attribute stripped
//! partitions (`π_A`), per-column profiles, and projection
//! entropy/distinct-count statistics. Historically each consumer rebuilt
//! them from scratch; an [`AnalysisCtx`] builds each view **at most
//! once**, on first use, behind a [`OnceLock`] (or a bounded
//! `Mutex`-guarded memo for the [`AttrSet`]-keyed projection
//! statistics).
//!
//! # Sources
//!
//! The context is the only layer that knows whether the relation lives
//! in RAM or on disk. It is backed by one of two sources:
//!
//! * **Memory** ([`AnalysisCtx::new`] / [`AnalysisCtx::of`]) — an
//!   `Arc<Relation>`; every view builds from the columnar matrix.
//! * **Chunks** ([`AnalysisCtx::from_chunks`]) — a [`ShardedRelation`]
//!   over a binary shard store. The chunk-foldable views — attribute
//!   partitions, `I(T;V)`, column profiles, projection statistics, and
//!   even the row-oriented [`TupleRows`]/[`ValueIndex`] — build from
//!   bounded-memory chunk passes over the store and are
//!   **bit-identical** to the in-memory builds (global interned ids +
//!   deterministic first-occurrence folds). Only
//!   [`AnalysisCtx::relation`] materializes the full `Relation`, lazily,
//!   for genuinely row-resident consumers (tuple previews, redesign
//!   projections); each materialization is recorded in the
//!   [`ViewStats::materializations`] ledger and
//!   `Counter::CtxMaterializations`, so tests can pin "`fds` and
//!   `analyze` from a store materialize nothing".
//!
//! # Sharing contract
//!
//! * The context is `Send + Sync`; share it by reference (or wrap it in
//!   an `Arc`) across threads, parameter sweeps, CLI subcommands and
//!   repeated `analyze` calls over the same relation.
//! * Views are owned by the context and handed out as references; they
//!   are never rebuilt, so a cached view is bit-identical on every
//!   access.
//! * The relation itself is immutable. If the relation changes (e.g. a
//!   decomposition step), build a **new** context — there is no
//!   invalidation. A chunk-backed context additionally assumes the
//!   store does not change underneath it; a pass that hits an
//!   unreadable or corrupt store panics with the underlying typed error
//!   (an environment fault, not a recoverable state — serving layers
//!   isolate it per request).
//!
//! # Telemetry
//!
//! Every view construction bumps `Counter::ViewBuilds` and every access
//! served from a cached view bumps `Counter::ViewCacheHits` (global,
//! feature-gated). The same two numbers are additionally tracked
//! per-context in [`ViewStats`] — always on, race-free within the
//! context — so tests can pin exact build counts without serializing on
//! the process-global counters. Build counts are exact even under
//! concurrent access (the `OnceLock` initializer runs once; the
//! projection memo computes under its lock); hit counts are exact in
//! the single-threaded case and best-effort during a concurrent first
//! build. Chunk-path builders run under `ctx.build_*` spans and lazy
//! materialization under `ctx.materialize`.
//!
//! # Opting new views in
//!
//! A new shared view gets (1) a `OnceLock` (or bounded memo) field, (2)
//! an accessor that goes through the private `AnalysisCtx::view` (or replicates
//! its hit/build accounting) with a build arm per source, and (3) a
//! line in the DESIGN.md "Analysis context" table. Nothing else:
//! consumers receive `&AnalysisCtx` and call the accessor.

use dbmine_relation::csv::CsvError;
use dbmine_relation::stats::{self, ColumnProfile};
use dbmine_relation::{
    attr_partitions_chunks, column_profiles_chunks, projection_stats_chunks,
    tuple_mutual_information_chunks, AttrSet, Relation, ShardedRelation, StrippedPartition,
    TupleRows, ValueDict, ValueIndex,
};
use fxhash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

mod lru;

pub use lru::{CtxCache, CtxCacheStats};

/// Memoized projection statistics for one attribute set: the RTR
/// distinct count and the RAD bag-semantics entropy, computed from a
/// single counting pass.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ProjectionStats {
    /// Distinct tuples in the projection (set semantics).
    pub distinct: usize,
    /// Shannon entropy (bits) of the projected-tuple distribution (bag
    /// semantics).
    pub entropy: f64,
}

/// Per-context view-cache statistics (always on, independent of the
/// `telemetry` feature).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Views materialized by this context.
    pub builds: u64,
    /// Accesses served from an already-built view.
    pub hits: u64,
    /// Full in-memory `Relation` materializations performed for
    /// row-resident consumers. Always zero for a memory-backed context;
    /// at most one for a chunk-backed context (the materialized
    /// relation is cached).
    pub materializations: u64,
}

/// Upper bound on memoized projection attribute sets. Beyond the cap,
/// stats are still computed (and counted as builds) but no longer
/// inserted, so a pathological sweep over many attribute sets cannot
/// grow the context without bound.
const PROJECTION_MEMO_CAP: usize = 4096;

/// Where a context's views come from: a resident columnar relation, or
/// chunk passes over a shard store.
enum CtxSource {
    Mem(Arc<Relation>),
    Chunks(ShardedRelation),
}

fn chunk_fail(what: &str, e: CsvError) -> ! {
    panic!("chunk pass failed while building {what}: {e}")
}

/// A lazily-memoized bundle of shared views over one relation. See the
/// module docs for the sharing contract.
pub struct AnalysisCtx {
    source: CtxSource,
    /// Lazily-materialized full relation of a chunk-backed source
    /// ([`AnalysisCtx::relation`]); unused for memory-backed contexts.
    materialized: OnceLock<Arc<Relation>>,
    tuple_rows: OnceLock<TupleRows>,
    value_index: OnceLock<ValueIndex>,
    tuple_mi: OnceLock<f64>,
    value_mi: OnceLock<f64>,
    attr_parts: Vec<OnceLock<StrippedPartition>>,
    /// Serializes the chunked all-partitions sweep so concurrent first
    /// accesses run exactly one double pass over the backing.
    part_sweep: Mutex<()>,
    profiles: OnceLock<Vec<ColumnProfile>>,
    projections: Mutex<FxHashMap<u64, ProjectionStats>>,
    builds: AtomicU64,
    hits: AtomicU64,
    materializations: AtomicU64,
}

impl std::fmt::Debug for AnalysisCtx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AnalysisCtx")
            .field("relation", &self.name())
            .field("chunk_backed", &self.is_chunk_backed())
            .field("stats", &self.view_stats())
            .finish_non_exhaustive()
    }
}

impl AnalysisCtx {
    fn with_source(source: CtxSource) -> Self {
        let m = match &source {
            CtxSource::Mem(rel) => rel.n_attrs(),
            CtxSource::Chunks(s) => s.n_attrs(),
        };
        let mut attr_parts = Vec::with_capacity(m);
        attr_parts.resize_with(m, OnceLock::new);
        AnalysisCtx {
            source,
            materialized: OnceLock::new(),
            tuple_rows: OnceLock::new(),
            value_index: OnceLock::new(),
            tuple_mi: OnceLock::new(),
            value_mi: OnceLock::new(),
            attr_parts,
            part_sweep: Mutex::new(()),
            profiles: OnceLock::new(),
            projections: Mutex::new(FxHashMap::default()),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            materializations: AtomicU64::new(0),
        }
    }

    /// A fresh memory-backed context over `rel`; no view is built yet.
    pub fn new(rel: Arc<Relation>) -> Self {
        Self::with_source(CtxSource::Mem(rel))
    }

    /// A context over a borrowed relation (clones it once).
    ///
    /// Every pipeline operation takes a `&AnalysisCtx`, so this is how a
    /// caller holding only a `&Relation` reaches them; the clone is a
    /// columnar memcpy, cheap next to any of the views. A caller that
    /// owns the relation can move it in with `AnalysisCtx::from` instead.
    /// Build one context per relation and pass it to every operation, so
    /// each view is built once.
    pub fn of(rel: &Relation) -> Self {
        AnalysisCtx::new(Arc::new(rel.clone()))
    }

    /// A chunk-backed context over a binary shard store: every
    /// chunk-foldable view streams from the store in bounded memory, and
    /// the full `Relation` is materialized only if a row-resident
    /// consumer calls [`AnalysisCtx::relation`]. It cannot fail; the
    /// `Result` lets callers chain it after
    /// [`ShardedRelation::open_store`] with `and_then`.
    pub fn from_chunks(sharded: ShardedRelation) -> Result<Self, CsvError> {
        Ok(Self::with_source(CtxSource::Chunks(sharded)))
    }

    /// True when views stream from a shard store instead of a resident
    /// relation.
    pub fn is_chunk_backed(&self) -> bool {
        matches!(self.source, CtxSource::Chunks(_))
    }

    /// The resident relation, if one exists *without* materializing:
    /// the memory backing, or a chunk-backed context's already-cached
    /// materialization.
    fn resident(&self) -> Option<&Arc<Relation>> {
        match &self.source {
            CtxSource::Mem(rel) => Some(rel),
            CtxSource::Chunks(_) => self.materialized.get(),
        }
    }

    fn materialized_arc(&self) -> &Arc<Relation> {
        match &self.source {
            CtxSource::Mem(rel) => rel,
            CtxSource::Chunks(sharded) => self.materialized.get_or_init(|| {
                let _s = dbmine_telemetry::span("ctx.materialize");
                self.materializations.fetch_add(1, Ordering::Relaxed);
                dbmine_telemetry::counter_add(dbmine_telemetry::Counter::CtxMaterializations, 1);
                match sharded.materialize() {
                    Ok(rel) => Arc::new(rel),
                    Err(e) => chunk_fail("the materialized relation", e),
                }
            }),
        }
    }

    /// The underlying relation. On a chunk-backed context this
    /// **materializes** the full columnar relation (once, lazily) and
    /// records it in the [`ViewStats::materializations`] ledger —
    /// chunk-foldable consumers should use the schema accessors and
    /// view methods instead.
    pub fn relation(&self) -> &Relation {
        self.materialized_arc()
    }

    /// A new handle on the underlying relation's `Arc` (materializing
    /// like [`AnalysisCtx::relation`] on a chunk-backed context).
    pub fn relation_arc(&self) -> Arc<Relation> {
        Arc::clone(self.materialized_arc())
    }

    /// Number of tuples `n` (schema metadata; never materializes).
    pub fn n_tuples(&self) -> usize {
        match &self.source {
            CtxSource::Mem(rel) => rel.n_tuples(),
            CtxSource::Chunks(s) => s.n_tuples(),
        }
    }

    /// Number of attributes `m` (never materializes).
    pub fn n_attrs(&self) -> usize {
        self.attr_parts.len()
    }

    /// The relation's name (never materializes).
    pub fn name(&self) -> &str {
        match &self.source {
            CtxSource::Mem(rel) => rel.name(),
            CtxSource::Chunks(s) => s.name(),
        }
    }

    /// Attribute names, in schema order (never materializes).
    pub fn attr_names(&self) -> &[String] {
        match &self.source {
            CtxSource::Mem(rel) => rel.attr_names(),
            CtxSource::Chunks(s) => s.attr_names(),
        }
    }

    /// The full attribute set `{0, …, m-1}` (never materializes).
    pub fn all_attrs(&self) -> AttrSet {
        AttrSet::full(self.n_attrs())
    }

    /// The global value dictionary (never materializes).
    pub fn dict(&self) -> &ValueDict {
        match &self.source {
            CtxSource::Mem(rel) => rel.dict(),
            CtxSource::Chunks(s) => s.dict(),
        }
    }

    /// Per-context build/hit/materialization counts (see [`ViewStats`]).
    pub fn view_stats(&self) -> ViewStats {
        ViewStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            materializations: self.materializations.load(Ordering::Relaxed),
        }
    }

    fn record_build(&self) {
        self.builds.fetch_add(1, Ordering::Relaxed);
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::ViewBuilds, 1);
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::ViewCacheHits, 1);
    }

    /// The caching kernel every `OnceLock`-backed view goes through:
    /// serve-and-count a cached value, or build-and-count exactly once
    /// (the `OnceLock` guarantees the initializer runs on one thread
    /// even under concurrent first access).
    fn view<'a, T>(&self, cell: &'a OnceLock<T>, build: impl FnOnce() -> T) -> &'a T {
        if let Some(v) = cell.get() {
            self.record_hit();
            return v;
        }
        cell.get_or_init(|| {
            self.record_build();
            build()
        })
    }

    /// The tuple matrix `M` view (`p(V|t)`, attribute-qualified keys).
    /// Row-oriented but chunk-buildable: a chunk-backed context streams
    /// the rows from the backing without materializing the relation.
    pub fn tuple_rows(&self) -> &TupleRows {
        self.view(&self.tuple_rows, || match self.resident() {
            Some(rel) => TupleRows::build(rel),
            None => {
                let CtxSource::Chunks(s) = &self.source else {
                    unreachable!("non-resident context is chunk-backed")
                };
                let _sp = dbmine_telemetry::span("ctx.build_tuple_rows");
                s.chunks()
                    .and_then(|pass| {
                        TupleRows::from_chunks(s.dict().len(), s.n_attrs(), s.n_tuples(), pass)
                    })
                    .unwrap_or_else(|e| chunk_fail("the tuple view", e))
            }
        })
    }

    /// The value view (`p(T|v)` occurrence lists + support matrix `O`).
    /// Chunk-buildable like [`AnalysisCtx::tuple_rows`].
    pub fn value_index(&self) -> &ValueIndex {
        self.view(&self.value_index, || match self.resident() {
            Some(rel) => ValueIndex::build(rel),
            None => {
                let CtxSource::Chunks(s) = &self.source else {
                    unreachable!("non-resident context is chunk-backed")
                };
                let _sp = dbmine_telemetry::span("ctx.build_value_index");
                s.chunks()
                    .and_then(|pass| ValueIndex::from_chunks(s.dict().len(), pass))
                    .unwrap_or_else(|e| chunk_fail("the value view", e))
            }
        })
    }

    /// `I(T;V)` — mutual information of the tuple view. On a
    /// chunk-backed context with no tuple view built yet this uses the
    /// streaming fold (`tuple_mutual_information_chunks`), bit-identical
    /// to the in-memory computation, with peak memory of one chunk plus
    /// the marginal accumulator.
    pub fn tuple_mutual_information(&self) -> f64 {
        *self.view(&self.tuple_mi, || {
            if self.resident().is_some() || self.tuple_rows.get().is_some() {
                return self.tuple_rows().mutual_information();
            }
            let CtxSource::Chunks(s) = &self.source else {
                unreachable!("non-resident context is chunk-backed")
            };
            let _sp = dbmine_telemetry::span("ctx.build_tuple_mi");
            s.chunks()
                .and_then(|pass| tuple_mutual_information_chunks(s, pass))
                .unwrap_or_else(|e| chunk_fail("I(T;V)", e))
        })
    }

    /// `I(V;T)` — mutual information of the value view (built, on
    /// either source, from the shared [`ValueIndex`]).
    pub fn value_mutual_information(&self) -> f64 {
        *self.view(&self.value_mi, || self.value_index().mutual_information())
    }

    /// Runs the chunked all-partitions sweep if this chunk-backed
    /// context's partition cells are still empty. One double pass over
    /// the backing fills every `π_A` at once (the counting pass is
    /// shared, and a store decode is the dominant cost, so per-attribute
    /// passes would multiply I/O by `m`).
    fn ensure_chunk_partitions(&self, s: &ShardedRelation) {
        let _guard = self.part_sweep.lock().unwrap_or_else(|e| e.into_inner());
        if self.attr_parts.first().is_none_or(|c| c.get().is_some()) {
            return;
        }
        let _sp = dbmine_telemetry::span("ctx.build_partitions");
        let parts =
            attr_partitions_chunks(s).unwrap_or_else(|e| chunk_fail("the attribute partitions", e));
        for (cell, part) in self.attr_parts.iter().zip(parts) {
            if cell.set(part).is_ok() {
                self.record_build();
            }
        }
    }

    /// The single-attribute stripped partition `π_A`.
    pub fn attr_partition(&self, a: usize) -> &StrippedPartition {
        if let Some(p) = self.attr_parts[a].get() {
            self.record_hit();
            return p;
        }
        match (&self.source, self.resident()) {
            (_, Some(rel)) => {
                let rel = Arc::clone(rel);
                self.view(&self.attr_parts[a], move || {
                    StrippedPartition::of_attr(&rel, a)
                })
            }
            (CtxSource::Chunks(s), None) => {
                self.ensure_chunk_partitions(s);
                self.attr_parts[a]
                    .get()
                    .expect("chunk sweep fills every partition cell")
            }
            (CtxSource::Mem(_), None) => unreachable!("memory source is always resident"),
        }
    }

    /// All single-attribute partitions, in attribute order. `threads`
    /// bounds the workers used to build whichever partitions are still
    /// missing (`m ≤ 64`, so in practice the parallel map's small-input
    /// serial fallback applies — the knob exists for interface symmetry
    /// with the TANE seed it replaces). On a chunk-backed context the
    /// first access triggers one shared sweep over the backing.
    pub fn attr_partitions_with(&self, threads: usize) -> Vec<&StrippedPartition> {
        dbmine_parallel::par_map_range(threads, self.n_attrs(), |a| self.attr_partition(a))
    }

    /// Per-column profiles (distinct, NULL fraction, entropy). The
    /// per-column distinct/entropy numbers are routed through the
    /// projection memo, so later single-attribute
    /// [`Self::projection_stats`] lookups are cache hits — on either
    /// source.
    pub fn column_profiles(&self) -> &[ColumnProfile] {
        let v: &Vec<ColumnProfile> = self.view(&self.profiles, || match self.resident() {
            Some(_) => (0..self.n_attrs())
                .map(|a| {
                    let s = self.projection_stats(AttrSet::single(a));
                    ColumnProfile {
                        name: self.attr_names()[a].clone(),
                        distinct: s.distinct,
                        null_fraction: self.resident().expect("resident").null_fraction(a),
                        entropy: s.entropy,
                    }
                })
                .collect(),
            None => {
                let CtxSource::Chunks(s) = &self.source else {
                    unreachable!("non-resident context is chunk-backed")
                };
                let _sp = dbmine_telemetry::span("ctx.build_profiles");
                let profiles = column_profiles_chunks(s)
                    .unwrap_or_else(|e| chunk_fail("the column profiles", e));
                // Seed the projection memo from the same pass, counting
                // one build per column exactly like the in-memory path.
                let mut memo = self.projections.lock().unwrap_or_else(|e| e.into_inner());
                for (a, p) in profiles.iter().enumerate() {
                    let key = AttrSet::single(a).bits();
                    if !memo.contains_key(&key) {
                        self.record_build();
                        if memo.len() < PROJECTION_MEMO_CAP {
                            memo.insert(
                                key,
                                ProjectionStats {
                                    distinct: p.distinct,
                                    entropy: p.entropy,
                                },
                            );
                        }
                    }
                }
                profiles
            }
        });
        v
    }

    /// Distinct count and entropy of the projection on `attrs`, served
    /// from the bounded [`AttrSet`]-keyed memo. The memo lock is held
    /// across the (single) computation so concurrent first accesses
    /// never duplicate work and build counts stay exact; projections
    /// are cheap relative to the clustering and mining stages that
    /// surround them. On a chunk-backed context each miss is one chunk
    /// pass over the backing.
    pub fn projection_stats(&self, attrs: AttrSet) -> ProjectionStats {
        let key = attrs.bits();
        let mut memo = self.projections.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&s) = memo.get(&key) {
            self.record_hit();
            return s;
        }
        let (distinct, entropy) = match self.resident() {
            Some(rel) => stats::projection_stats(rel, attrs),
            None => {
                let CtxSource::Chunks(s) = &self.source else {
                    unreachable!("non-resident context is chunk-backed")
                };
                let _sp = dbmine_telemetry::span("ctx.build_projection");
                projection_stats_chunks(s, attrs)
                    .unwrap_or_else(|e| chunk_fail("the projection statistics", e))
            }
        };
        let s = ProjectionStats { distinct, entropy };
        self.record_build();
        if memo.len() < PROJECTION_MEMO_CAP {
            memo.insert(key, s);
        }
        s
    }

    /// A context over `π_attrs(rel)` (distinct rows) whose
    /// single-attribute partitions are **derived** from this context's
    /// instead of rebuilt: a projection's π_A is exactly the parent's
    /// π_A restricted to the first-occurrence rows and renumbered
    /// (`StrippedPartition::restrict_remap`). This is the redesign
    /// loop's cross-relation cache: each decomposition step inherits its
    /// partitions from the step before. (Row-resident: a chunk-backed
    /// parent materializes first.)
    ///
    /// Accounting: accessing each parent π_A counts on *this* context
    /// (hit if cached, build if not); the child's seeded partitions
    /// count as neither build nor hit on the child — a later
    /// `attr_partition` access on the child is a cache *hit*, which is
    /// how tests prove nothing was rebuilt. Bit-identity with the
    /// rebuild path is pinned by `derived_partitions_match_fresh_build`
    /// and a property test.
    pub fn derive_projected(&self, attrs: AttrSet, name: &str) -> AnalysisCtx {
        let rel = self.relation();
        let (child_rel, rows) = rel.project_distinct_with_rows(attrs, name);
        let mut map = vec![u32::MAX; rel.n_tuples()];
        for (ci, &pt) in rows.iter().enumerate() {
            map[pt as usize] = ci as u32;
        }
        let child_n = child_rel.n_tuples();
        let child = AnalysisCtx::from(child_rel);
        for (ci, a) in attrs.iter().enumerate() {
            let derived = self.attr_partition(a).restrict_remap(&map, child_n);
            child.attr_parts[ci]
                .set(derived)
                .expect("fresh context has empty partition cells");
        }
        child
    }

    /// Memoized `H(π_attrs(T))` (bag semantics), the RAD ingredient.
    pub fn projection_entropy(&self, attrs: AttrSet) -> f64 {
        self.projection_stats(attrs).entropy
    }

    /// Memoized distinct count of the projection, the RTR ingredient.
    pub fn projection_distinct(&self, attrs: AttrSet) -> usize {
        self.projection_stats(attrs).distinct
    }
}

impl From<Relation> for AnalysisCtx {
    fn from(rel: Relation) -> Self {
        AnalysisCtx::new(Arc::new(rel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::{figure1, figure4};

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn context_is_send_and_sync() {
        assert_send_sync::<AnalysisCtx>();
    }

    #[test]
    fn views_match_fresh_builds() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        assert_eq!(ctx.tuple_rows().len(), rel.n_tuples());
        assert_eq!(ctx.value_index().len(), ValueIndex::build(&rel).len());
        assert_eq!(
            ctx.tuple_mutual_information(),
            TupleRows::build(&rel).mutual_information()
        );
        assert_eq!(
            ctx.value_mutual_information(),
            ValueIndex::build(&rel).mutual_information()
        );
        for a in 0..rel.n_attrs() {
            assert_eq!(ctx.attr_partition(a), &StrippedPartition::of_attr(&rel, a));
        }
    }

    #[test]
    fn each_view_builds_once() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        ctx.tuple_rows();
        ctx.tuple_rows();
        // The MI initializer touches tuple_rows (one hit) and builds MI.
        ctx.tuple_mutual_information();
        ctx.tuple_mutual_information();
        let s = ctx.view_stats();
        assert_eq!(s.builds, 2, "TupleRows + I(T;V): {s:?}");
        assert_eq!(s.hits, 3, "{s:?}");
    }

    #[test]
    fn projection_memo_serves_profiles_and_measures() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        let profiles = ctx.column_profiles().to_vec();
        assert_eq!(profiles, dbmine_relation::stats::profile_columns(&rel));
        let after_profiles = ctx.view_stats();
        // 1 for the profile vector + m memo entries.
        assert_eq!(after_profiles.builds, 1 + rel.n_attrs() as u64);
        // Single-attribute lookups now hit the memo.
        for (a, profile) in profiles.iter().enumerate() {
            let s = ctx.projection_stats(AttrSet::single(a));
            assert_eq!(s.distinct, profile.distinct);
        }
        let end = ctx.view_stats();
        assert_eq!(end.builds, after_profiles.builds);
        assert_eq!(end.hits, after_profiles.hits + rel.n_attrs() as u64);
    }

    #[test]
    fn projection_stats_match_direct_computation() {
        let rel = figure1();
        let ctx = AnalysisCtx::of(&rel);
        let all = rel.all_attrs();
        let s = ctx.projection_stats(all);
        assert_eq!(s.distinct, stats::projection_distinct(&rel, all));
        let h = stats::projection_entropy(&rel, all);
        assert!((s.entropy - h).abs() < 1e-9, "{} vs {h}", s.entropy);
    }

    #[test]
    fn empty_relation_views() {
        let rel = dbmine_relation::RelationBuilder::new("e", &["X", "Y"]).build();
        let ctx = AnalysisCtx::of(&rel);
        assert!(ctx.tuple_rows().is_empty());
        assert!(ctx.value_index().is_empty());
        assert_eq!(ctx.projection_distinct(rel.all_attrs()), 0);
        assert_eq!(ctx.projection_entropy(rel.all_attrs()), 0.0);
        assert!(ctx.attr_partition(0).is_key());
    }

    #[test]
    fn derived_partitions_match_fresh_build() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        // Project away B (the redesign step for C → B).
        let attrs: AttrSet = [0usize, 2].into_iter().collect();
        let child = ctx.derive_projected(attrs, "fig4_S2");
        let fresh = rel.project_distinct(attrs, "fig4_S2");
        assert_eq!(child.relation().content_hash(), fresh.content_hash());
        for (ci, a) in attrs.iter().enumerate() {
            assert_eq!(
                child.attr_partition(ci),
                &StrippedPartition::of_attr(&fresh, ci),
                "derived π for parent attr {a} diverged from rebuild"
            );
        }
    }

    #[test]
    fn derive_projected_seeds_partitions_as_cache_hits() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        let attrs: AttrSet = [1usize, 2].into_iter().collect();
        let child = ctx.derive_projected(attrs, "bc");
        // The parent built π_B and π_C on demand …
        assert_eq!(ctx.view_stats().builds, 2);
        // … and the child starts with zero builds: its partitions were
        // seeded, so first accesses are hits, proving nothing rebuilt.
        assert_eq!(child.view_stats(), ViewStats::default());
        child.attr_partition(0);
        child.attr_partition(1);
        let s = child.view_stats();
        assert_eq!(s.builds, 0, "{s:?}");
        assert_eq!(s.hits, 2, "{s:?}");
    }

    #[test]
    fn attr_partitions_with_builds_each_once() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        let parts = ctx.attr_partitions_with(4);
        assert_eq!(parts.len(), rel.n_attrs());
        assert_eq!(ctx.view_stats().builds, rel.n_attrs() as u64);
        let again = ctx.attr_partitions_with(1);
        assert_eq!(parts, again);
        assert_eq!(ctx.view_stats().builds, rel.n_attrs() as u64);
    }

    /// Spills `csv` into a unique temp store and returns a chunk-backed
    /// context plus the equivalent in-memory relation.
    fn chunked_pair(csv: &str, chunk_tuples: usize, tag: &str) -> (AnalysisCtx, Relation) {
        let dir = std::env::temp_dir().join("dbmine_ctx_chunk_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!(
            "rel_{}_{tag}_{chunk_tuples}.csv",
            std::process::id()
        ));
        std::fs::write(&path, csv).unwrap();
        let store = path.with_extension("dbss");
        let sharded = ShardedRelation::scan_csv_path_spill(&path, chunk_tuples, &store).unwrap();
        let name = sharded.name().to_string();
        let ctx = AnalysisCtx::from_chunks(sharded).unwrap();
        let rel = dbmine_relation::csv::read_relation(csv.as_bytes(), &name).unwrap();
        (ctx, rel)
    }

    const CHUNK_SAMPLE: &str = "A,B,C\n\
        a,1,p\n\
        a,1,r\n\
        w,2,x\n\
        ,2,x\n\
        z,2,x\n\
        a,1,p\n";

    #[test]
    fn chunk_backed_views_match_memory_backed_bitwise() {
        for chunk_tuples in [1, 2, 3, 100] {
            let (ctx, rel) = chunked_pair(CHUNK_SAMPLE, chunk_tuples, "views");
            let mem = AnalysisCtx::of(&rel);
            assert_eq!(ctx.n_tuples(), mem.n_tuples());
            assert_eq!(ctx.n_attrs(), mem.n_attrs());
            assert_eq!(ctx.attr_names(), mem.attr_names());
            assert_eq!(
                ctx.tuple_mutual_information().to_bits(),
                mem.tuple_mutual_information().to_bits()
            );
            assert_eq!(
                ctx.value_mutual_information().to_bits(),
                mem.value_mutual_information().to_bits()
            );
            for a in 0..mem.n_attrs() {
                assert_eq!(ctx.attr_partition(a), mem.attr_partition(a));
            }
            assert_eq!(ctx.column_profiles(), mem.column_profiles());
            for attrs in [AttrSet::single(2), [0usize, 1].into_iter().collect()] {
                let c = ctx.projection_stats(attrs);
                let m = mem.projection_stats(attrs);
                assert_eq!(c.distinct, m.distinct);
                assert_eq!(c.entropy.to_bits(), m.entropy.to_bits());
            }
            // None of the above touched the full relation.
            assert_eq!(ctx.view_stats().materializations, 0, "{ctx:?}");
            assert_eq!(mem.view_stats().materializations, 0);
        }
    }

    #[test]
    fn chunk_backed_row_views_stream_without_materializing() {
        let (ctx, rel) = chunked_pair(CHUNK_SAMPLE, 2, "rows");
        let mem_tr = TupleRows::build(&rel);
        assert_eq!(ctx.tuple_rows().len(), mem_tr.len());
        assert_eq!(
            ctx.tuple_rows().mutual_information().to_bits(),
            mem_tr.mutual_information().to_bits()
        );
        let mem_vi = ValueIndex::build(&rel);
        assert_eq!(ctx.value_index().values(), mem_vi.values());
        assert_eq!(ctx.view_stats().materializations, 0, "{ctx:?}");
    }

    #[test]
    fn materialization_ledger_counts_lazy_relation_once() {
        let (ctx, rel) = chunked_pair(CHUNK_SAMPLE, 2, "ledger");
        assert!(ctx.is_chunk_backed());
        assert_eq!(ctx.view_stats().materializations, 0);
        assert_eq!(ctx.relation().content_hash(), rel.content_hash());
        assert_eq!(ctx.view_stats().materializations, 1);
        // Cached: later accesses don't re-stream.
        let _ = ctx.relation();
        let _ = ctx.relation_arc();
        assert_eq!(ctx.view_stats().materializations, 1);
        // The materialized relation now serves resident-path builds.
        assert_eq!(
            ctx.tuple_mutual_information(),
            TupleRows::build(&rel).mutual_information()
        );
    }
}
