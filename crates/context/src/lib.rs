//! `AnalysisCtx` — a shared, lazily-memoized view cache over one
//! relation.
//!
//! Every tool in the paper consumes the same handful of probabilistic
//! views of the relation: the value matrix `N` / support matrix `O`
//! ([`ValueIndex`]), the mutual informations `I(T;V)` and `I(V;T)`,
//! single-attribute stripped partitions (`π_A`), per-column profiles,
//! and projection entropy/distinct-count statistics. Historically each
//! consumer rebuilt them from scratch; an [`AnalysisCtx`] builds each
//! view **at most once**, on first use, behind a [`OnceLock`] (or a
//! bounded `Mutex`-guarded memo for the [`AttrSet`]-keyed projection
//! statistics). The tuple matrix `M` is not a view: its readers fold
//! its rows straight from [`AnalysisCtx::chunks`] — the tuple-DCF build
//! in `dbmine-limbo` on every call, `I(T;V)` once — so the context
//! keeps no n-row matrix, only the memoized `I(T;V)` scalar.
//!
//! # Sources
//!
//! The context is the only layer that knows whether the relation lives
//! in RAM or on disk. It is backed by one of two sources:
//!
//! * **Memory** ([`AnalysisCtx::new`] / [`AnalysisCtx::of`]) — an
//!   `Arc<Relation>`.
//! * **Chunks** ([`AnalysisCtx::from_chunks`]) — a [`ShardedRelation`]
//!   over a binary shard store.
//!
//! [`AnalysisCtx::open`] is the one way a front end turns a path into a
//! context: a `.dbss` path opens its store, any other is read as CSV.
//! Both front ends serve exactly what those two readers accept.
//!
//! Every view is built one way on both: one chunk fold from
//! `dbmine-relation` over one pass of [`AnalysisCtx::chunks`] (two
//! passes for the partition sweep, which counts then places) — except
//! `I(V;T)`, the projection statistics and the column profiles, read
//! off built views: the projection statistics off
//! [`AnalysisCtx::partition`], the product of memoized `π_A`, and a
//! column profile off its single-attribute projection statistics and
//! the support matrix `O` of the [`ValueIndex`].
//! The pass yields a memory source's relation as a single borrowed
//! chunk ([`Relation::as_chunk`]) and decodes a store in bounded-memory
//! chunks. The folds read global interned ids in global tuple order, so
//! a view is **bit-identical** whatever the source and wherever chunk
//! boundaries fall.
//!
//! [`AnalysisCtx::chunks`] and the views built from it are the only way
//! to read a context. A consumer that needs whole rows (previews, a
//! redesign step) gets the tuple ids it names from one chunk fold,
//! [`AnalysisCtx::select_rows`], so a store-backed context never holds
//! the O(n·m) cell matrix ([`ViewStats::materializations`] reads 0).
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
//! the process-global counters. The rule is the same on both sources:
//! the partition sweep counts `m` builds and the access that triggered
//! it counts nothing; every other view and projection-memo entry counts
//! one build; every later access is a hit, including a build's reads
//! of the views it is read off (the profiles read the value index once
//! and each single-attribute projection, which reads its `π_A`). Build
//! counts are exact even under concurrent access (each `OnceLock`
//! initializer runs once, and the projection memo computes under its
//! lock; builds wait on each other in one order — profiles, then the
//! value index or the memo, then the sweep — so none deadlocks); hit
//! counts are exact in the single-threaded case and best-effort during
//! a concurrent first build. Every fold runs under a `ctx.build_*` span
//! on both sources, and a row selection under `ctx.select_rows` (store
//! passes add `spill.read` children to both).
//!
//! # Opting new views in
//!
//! A new shared view gets (1) a chunk fold next to its type in
//! `dbmine-relation`, (2) a `OnceLock` (or bounded memo) field, (3) an
//! accessor that goes through the private `AnalysisCtx::view` and calls
//! the fold once over [`AnalysisCtx::chunks`] inside a `ctx.build_*`
//! span, and (4) a line in the DESIGN.md "Analysis context" table.
//! Nothing else: consumers receive `&AnalysisCtx` and call the accessor.
//!
//! A result that a consumer reads once per call is not a view: the
//! consumer folds it over [`AnalysisCtx::chunks`] itself, under its own
//! span, and the context caches nothing (the tuple DCFs of LIMBO are
//! such a per-call fold).

use dbmine_relation::csv::{read_relation_path, CsvError};
use dbmine_relation::stats::ColumnProfile;
use dbmine_relation::{
    attr_partitions_chunks, select_rows_chunks, tuple_mutual_information_chunks, AttrSet, Relation,
    RelationChunk, ShardedRelation, StrippedPartition, ValueDict, ValueIndex, NULL_VALUE,
};
use fxhash::FxHashMap;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

mod lru;

pub use dbmine_relation::ProjectionStats;
pub use lru::{CtxCache, CtxCacheStats};

/// Per-context view-cache statistics (always on, independent of the
/// `telemetry` feature).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Views materialized by this context.
    pub builds: u64,
    /// Accesses served from an already-built view.
    pub hits: u64,
    /// Full in-memory `Relation` materializations: always zero, kept for
    /// the reports that print it.
    pub materializations: u64,
}

/// Upper bound on memoized projection attribute sets. Beyond the cap,
/// stats are still computed (and counted as builds) but no longer
/// inserted, so a pathological sweep over many attribute sets cannot
/// grow the context without bound.
const PROJECTION_MEMO_CAP: usize = 4096;

/// Where a context's relation lives: resident, or in a shard store.
enum CtxSource {
    Mem(Arc<Relation>),
    Chunks(ShardedRelation),
}

fn chunk_fail(e: CsvError) -> ! {
    panic!("chunk pass failed: {e}")
}

/// A lazily-memoized bundle of shared views over one relation. See the
/// module docs for the sharing contract.
pub struct AnalysisCtx {
    source: CtxSource,
    value_index: OnceLock<ValueIndex>,
    tuple_mi: OnceLock<f64>,
    value_mi: OnceLock<f64>,
    attr_parts: OnceLock<Vec<StrippedPartition>>,
    profiles: OnceLock<Vec<ColumnProfile>>,
    projections: Mutex<FxHashMap<u64, ProjectionStats>>,
    builds: AtomicU64,
    hits: AtomicU64,
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
        AnalysisCtx {
            source,
            value_index: OnceLock::new(),
            tuple_mi: OnceLock::new(),
            value_mi: OnceLock::new(),
            attr_parts: OnceLock::new(),
            profiles: OnceLock::new(),
            projections: Mutex::new(FxHashMap::default()),
            builds: AtomicU64::new(0),
            hits: AtomicU64::new(0),
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

    /// A chunk-backed context over a binary shard store: every view and
    /// every row selection streams from the store in bounded memory. It
    /// cannot fail; the `Result` lets callers chain it after
    /// [`ShardedRelation::open_store`] with `and_then`.
    pub fn from_chunks(sharded: ShardedRelation) -> Result<Self, CsvError> {
        Ok(Self::with_source(CtxSource::Chunks(sharded)))
    }

    /// Opens the relation at `path`: a chunk-backed context over the
    /// store when [`is_store_path`] holds, else a memory-backed context
    /// over the CSV read whole. Opening a store reads and validates its
    /// footer and decodes no block. The CSV's file stem, or the name the
    /// store recorded, names the relation.
    pub fn open(path: impl AsRef<Path>) -> Result<Self, CsvError> {
        let path = path.as_ref();
        if is_store_path(path) {
            ShardedRelation::open_store(path).and_then(Self::from_chunks)
        } else {
            read_relation_path(path).map(Self::from)
        }
    }

    /// The relation's content hash ([`Relation::content_hash`]), the key
    /// of a [`CtxCache`]: equal for a CSV and the store spilled from it.
    /// A store reads it from its footer; a resident relation hashes its
    /// cells on every call.
    pub fn content_hash(&self) -> u64 {
        match &self.source {
            CtxSource::Mem(rel) => rel.content_hash(),
            CtxSource::Chunks(s) => s.content_hash(),
        }
    }

    /// True when views stream from a shard store instead of a resident
    /// relation.
    pub fn is_chunk_backed(&self) -> bool {
        matches!(self.source, CtxSource::Chunks(_))
    }

    /// One pass over the relation, in global tuple order: a memory
    /// source's relation as a single borrowed chunk, a store decoded in
    /// bounded-memory chunks. Every view fold runs over it, and so may a
    /// consumer's own per-call fold. A store fault panics (see the
    /// module docs).
    pub fn chunks(&self) -> impl Iterator<Item = RelationChunk<'_>> + '_ {
        let pass: Box<dyn Iterator<Item = RelationChunk<'_>>> = match &self.source {
            CtxSource::Mem(rel) => Box::new(std::iter::once(rel.as_chunk())),
            CtxSource::Chunks(s) => {
                let chunks = s.chunks().unwrap_or_else(|e| chunk_fail(e));
                Box::new(chunks.map(|c| c.unwrap_or_else(|e| chunk_fail(e))))
            }
        };
        pass
    }

    /// The tuples `rows` (ascending ids) on `attrs` as a fresh relation
    /// `name`: [`select_rows_chunks`] over one [`Self::chunks`] pass,
    /// under a `ctx.select_rows` span. Nothing is cached.
    pub fn select_rows(&self, rows: &[u32], attrs: AttrSet, name: &str) -> Relation {
        let _sp = dbmine_telemetry::span("ctx.select_rows");
        let (names, dict) = (self.attr_names(), self.dict());
        select_rows_chunks(name, names, dict, rows, attrs, self.chunks())
    }

    /// Number of tuples `n` (schema metadata).
    pub fn n_tuples(&self) -> usize {
        match &self.source {
            CtxSource::Mem(rel) => rel.n_tuples(),
            CtxSource::Chunks(s) => s.n_tuples(),
        }
    }

    /// Number of attributes `m`.
    pub fn n_attrs(&self) -> usize {
        self.attr_names().len()
    }

    /// The relation's name.
    pub fn name(&self) -> &str {
        match &self.source {
            CtxSource::Mem(rel) => rel.name(),
            CtxSource::Chunks(s) => s.name(),
        }
    }

    /// Attribute names, in schema order.
    pub fn attr_names(&self) -> &[String] {
        match &self.source {
            CtxSource::Mem(rel) => rel.attr_names(),
            CtxSource::Chunks(s) => s.attr_names(),
        }
    }

    /// The full attribute set `{0, …, m-1}`.
    pub fn all_attrs(&self) -> AttrSet {
        AttrSet::full(self.n_attrs())
    }

    /// The global value dictionary.
    pub fn dict(&self) -> &ValueDict {
        match &self.source {
            CtxSource::Mem(rel) => rel.dict(),
            CtxSource::Chunks(s) => s.dict(),
        }
    }

    /// Per-context build/hit counts (see [`ViewStats`]).
    pub fn view_stats(&self) -> ViewStats {
        ViewStats {
            builds: self.builds.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            materializations: 0,
        }
    }

    fn record_builds(&self, n: u64) {
        self.builds.fetch_add(n, Ordering::Relaxed);
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::ViewBuilds, n);
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::ViewCacheHits, 1);
    }

    /// The caching kernel every `OnceLock`-backed view goes through:
    /// serve-and-count a cached value, or build it exactly once and
    /// count `builds` (the `OnceLock` guarantees the initializer runs on
    /// one thread even under concurrent first access).
    fn view<'a, T>(
        &self,
        cell: &'a OnceLock<T>,
        builds: usize,
        build: impl FnOnce() -> T,
    ) -> &'a T {
        if let Some(v) = cell.get() {
            self.record_hit();
            return v;
        }
        cell.get_or_init(|| {
            self.record_builds(builds as u64);
            build()
        })
    }

    /// The value view (`p(T|v)` occurrence lists + support matrix `O`).
    pub fn value_index(&self) -> &ValueIndex {
        self.view(&self.value_index, 1, || {
            let _sp = dbmine_telemetry::span("ctx.build_value_index");
            ValueIndex::from_chunks(self.dict().len(), self.chunks())
        })
    }

    /// `I(T;V)` — mutual information of the tuple matrix `M`, folded
    /// once over [`Self::chunks`] row by row (no row outlives its fold).
    pub fn tuple_mutual_information(&self) -> f64 {
        *self.view(&self.tuple_mi, 1, || {
            let _sp = dbmine_telemetry::span("ctx.build_tuple_mi");
            let (d, m, n) = (self.dict().len(), self.n_attrs(), self.n_tuples());
            tuple_mutual_information_chunks(d, m, n, self.chunks())
        })
    }

    /// `I(V;T)` — mutual information of the value view (built from the
    /// shared [`ValueIndex`]).
    pub fn value_mutual_information(&self) -> f64 {
        *self.view(&self.value_mi, 1, || {
            self.value_index().mutual_information()
        })
    }

    /// The single-attribute stripped partition `π_A`. The first access
    /// to any partition runs the sweep that fills all `m` at once (and
    /// counts `m` builds): one counting pass and one placing pass,
    /// shared by every column, so a store decode (the dominant cost) is
    /// never multiplied by `m`.
    pub fn attr_partition(&self, a: usize) -> &StrippedPartition {
        let parts = self.view(&self.attr_parts, self.n_attrs(), || {
            let _sp = dbmine_telemetry::span("ctx.build_partitions");
            attr_partitions_chunks(self.n_attrs(), || self.chunks())
        });
        &parts[a]
    }

    /// All single-attribute partitions, in attribute order. The first
    /// access triggers the one shared sweep.
    pub fn attr_partitions(&self) -> Vec<&StrippedPartition> {
        (0..self.n_attrs())
            .map(|a| self.attr_partition(a))
            .collect()
    }

    /// [`Self::attr_partitions`]; `threads` is ignored. Kept for
    /// `bench_e2e` until the benchmark stops calling it.
    #[doc(hidden)]
    pub fn attr_partitions_with(&self, _threads: usize) -> Vec<&StrippedPartition> {
        self.attr_partitions()
    }

    /// `π_attrs`: [`StrippedPartition::product_of`] the memoized `π_A`
    /// of `attrs`. Nothing is memoized; each factor read counts as a hit
    /// (the first one may run the sweep).
    pub fn partition(&self, attrs: AttrSet) -> StrippedPartition {
        let factors = attrs.iter().map(|a| self.attr_partition(a));
        StrippedPartition::product_of(self.n_tuples(), factors)
    }

    /// Per-column profiles, read off built views: a column's distinct
    /// count and entropy are its single-attribute
    /// [`Self::projection_stats`] (off `π_A`), its NULL fraction is
    /// `O[NULL, A] / n` off the [`ValueIndex`] (0 when NULL does not
    /// occur or `n = 0`). No chunk is read once those views are built.
    pub fn column_profiles(&self) -> &[ColumnProfile] {
        let profiles: &Vec<ColumnProfile> = self.view(&self.profiles, 1, || {
            let index = self.value_index();
            let nulls = index.position(NULL_VALUE).map(|i| index.o_row(i));
            let n = self.n_tuples();
            let column = |(a, name): (usize, &String)| {
                let s = self.projection_stats(AttrSet::single(a));
                let count = nulls.map_or(0.0, |o| o.get(a as u32));
                ColumnProfile {
                    name: name.clone(),
                    distinct: s.distinct,
                    null_fraction: if n == 0 { 0.0 } else { count / n as f64 },
                    entropy: s.entropy,
                }
            };
            self.attr_names().iter().enumerate().map(column).collect()
        });
        profiles
    }

    /// Distinct count and entropy of the projection on `attrs`, served
    /// from the bounded [`AttrSet`]-keyed memo; a miss reads them off
    /// [`Self::partition`], never a chunk. The memo lock is held across
    /// the (single) computation so concurrent first accesses never
    /// duplicate work and build counts stay exact.
    pub fn projection_stats(&self, attrs: AttrSet) -> ProjectionStats {
        let key = attrs.bits();
        let mut memo = self.projections.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(&s) = memo.get(&key) {
            self.record_hit();
            return s;
        }
        let s = {
            let _sp = dbmine_telemetry::span("ctx.build_projection");
            ProjectionStats::of_partition(&self.partition(attrs))
        };
        self.record_builds(1);
        if memo.len() < PROJECTION_MEMO_CAP {
            memo.insert(key, s);
        }
        s
    }

    /// A context over `π_attrs` (distinct rows: the
    /// [`StrippedPartition::first_rows`] of [`Self::partition`], read by
    /// [`Self::select_rows`]) whose single-attribute partitions are
    /// **derived** from this context's instead of rebuilt: a projection's
    /// π_A is exactly the parent's π_A restricted to those rows and
    /// renumbered (`StrippedPartition::restrict_remap`). This is the
    /// redesign loop's cross-relation cache.
    ///
    /// Accounting: accessing each parent π_A counts on *this* context
    /// (hit if cached, build if not); the child's seeded partitions
    /// count as neither build nor hit on the child — a later
    /// `attr_partition` access on the child is a cache *hit*, which is
    /// how tests prove nothing was rebuilt. Bit-identity with the
    /// rebuild path is pinned by `derived_partitions_match_fresh_build`
    /// and a property test.
    pub fn derive_projected(&self, attrs: AttrSet, name: &str) -> AnalysisCtx {
        let rows = self.partition(attrs).first_rows();
        let child = AnalysisCtx::from(self.select_rows(&rows, attrs, name));
        let mut map = vec![u32::MAX; self.n_tuples()];
        for (ci, &pt) in rows.iter().enumerate() {
            map[pt as usize] = ci as u32;
        }
        let derived = attrs
            .iter()
            .map(|a| self.attr_partition(a).restrict_remap(&map, rows.len()));
        let seeded = child.attr_parts.set(derived.collect());
        seeded.expect("a fresh context has no partitions");
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

/// Whether [`AnalysisCtx::open`] reads `path` as a binary shard store:
/// its extension is `dbss`.
pub fn is_store_path(path: impl AsRef<Path>) -> bool {
    path.as_ref().extension().is_some_and(|e| e == "dbss")
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

    /// `I(T;V)` of `rel` folded over its one borrowed chunk.
    fn tuple_mi(rel: &Relation) -> f64 {
        let (d, m, n) = (rel.dict().len(), rel.n_attrs(), rel.n_tuples());
        tuple_mutual_information_chunks(d, m, n, [rel.as_chunk()])
    }

    fn assert_send_sync<T: Send + Sync>() {}

    #[test]
    fn context_is_send_and_sync() {
        assert_send_sync::<AnalysisCtx>();
    }

    #[test]
    fn views_match_fresh_builds() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        assert_eq!(ctx.value_index().len(), ValueIndex::build(&rel).len());
        assert_eq!(ctx.tuple_mutual_information(), tuple_mi(&rel));
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
        // I(T;V) folds straight from the chunk pass: one build, no view
        // under it.
        ctx.tuple_mutual_information();
        ctx.tuple_mutual_information();
        assert_eq!(ctx.view_stats().builds, 1, "{:?}", ctx.view_stats());
        assert_eq!(ctx.view_stats().hits, 1);
        // The first I(V;T) builds itself and, under it, the value index;
        // the second is one hit.
        ctx.value_mutual_information();
        ctx.value_mutual_information();
        let s = ctx.view_stats();
        assert_eq!(s.builds, 3, "I(T;V) + ValueIndex + I(V;T): {s:?}");
        assert_eq!(s.hits, 2, "{s:?}");
    }

    #[test]
    fn projection_memo_serves_profiles_and_measures() {
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        let profiles = ctx.column_profiles().to_vec();
        let whole = dbmine_oracles::column_profiles_chunks(rel.attr_names(), [rel.as_chunk()]);
        assert_eq!(profiles, whole);
        let after_profiles = ctx.view_stats();
        // On a fresh context: the profile vector, the value index it
        // reads NULL counts off, the m-partition sweep and the m memo
        // entries it reads distinct counts and entropies off.
        let m = rel.n_attrs() as u64;
        assert_eq!(after_profiles.builds, 1 + 1 + m + m);
        // Each memo entry read its π_A once the sweep had filled it.
        assert_eq!(after_profiles.hits, m - 1);
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
        // Figure 1 has three distinct tuples, so H = log2 3.
        assert_eq!(s.distinct, 3);
        let h = 3f64.log2();
        assert!((s.entropy - h).abs() < 1e-9, "{} vs {h}", s.entropy);
    }

    #[test]
    fn empty_relation_views() {
        let rel = dbmine_relation::RelationBuilder::new("e", &["X", "Y"]).build();
        let ctx = AnalysisCtx::of(&rel);
        assert_eq!(ctx.chunks().map(|c| c.n_rows()).sum::<usize>(), 0);
        assert_eq!(ctx.tuple_mutual_information(), 0.0);
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
        let fresh = dbmine_oracles::project_distinct(&rel, attrs, "fig4_S2");
        assert_eq!(child.content_hash(), fresh.content_hash());
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
        // The parent's first access swept all m partitions …
        assert_eq!(ctx.view_stats().builds, rel.n_attrs() as u64);
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
        let parts = ctx.attr_partitions();
        assert_eq!(parts.len(), rel.n_attrs());
        assert_eq!(ctx.view_stats().builds, rel.n_attrs() as u64);
        let again = ctx.attr_partitions_with(4);
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
        // The pass yields the store's chunks in tuple order, each row
        // equal to the relation's.
        let mut next = 0;
        for chunk in ctx.chunks() {
            assert_eq!(
                (chunk.start, chunk.n_rows()),
                (next, 2.min(rel.n_tuples() - next))
            );
            for t in 0..chunk.n_rows() {
                let row: Vec<_> = chunk.row_values(t).collect();
                let want: Vec<_> = (0..rel.n_attrs()).map(|a| rel.value(next + t, a)).collect();
                assert_eq!(row, want);
            }
            next += chunk.n_rows();
        }
        assert_eq!(next, rel.n_tuples());
        assert_eq!(
            ctx.tuple_mutual_information().to_bits(),
            tuple_mi(&rel).to_bits()
        );
        let mem_vi = ValueIndex::build(&rel);
        assert_eq!(ctx.value_index().values(), mem_vi.values());
        assert_eq!(ctx.view_stats().materializations, 0, "{ctx:?}");
    }

    #[test]
    fn open_reads_a_store_path_from_its_footer_and_any_other_as_csv() {
        let dir = std::env::temp_dir().join("dbmine_ctx_open_test");
        std::fs::create_dir_all(&dir).unwrap();
        let csv = dir.join(format!("sample_{}.csv", std::process::id()));
        let store = csv.with_extension("dbss");
        std::fs::write(&csv, CHUNK_SAMPLE).unwrap();
        ShardedRelation::scan_csv_path_spill(&csv, 2, &store).unwrap();
        let mem = AnalysisCtx::open(&csv).unwrap();
        let chunked = AnalysisCtx::open(&store).unwrap();
        assert!(!mem.is_chunk_backed() && chunked.is_chunk_backed());
        assert_eq!(chunked.name(), mem.name());
        assert_eq!(chunked.content_hash(), mem.content_hash());
        let rel = read_relation_path(&csv).unwrap();
        assert_eq!(mem.content_hash(), rel.content_hash());
        // Opening decoded nothing.
        assert_eq!(chunked.view_stats(), ViewStats::default());
        assert!(AnalysisCtx::open(dir.join("missing.dbss")).is_err());
        assert!(AnalysisCtx::open(dir.join("missing.csv")).is_err());
        std::fs::remove_file(csv).ok();
        std::fs::remove_file(store).ok();
    }

    #[test]
    fn row_selection_streams_and_ledger_stays_zero() {
        let (ctx, rel) = chunked_pair(CHUNK_SAMPLE, 2, "select");
        let mem = AnalysisCtx::of(&rel);
        let attrs: AttrSet = [0usize, 2].into_iter().collect();
        for rows in [&[][..], &[0], &[1, 4, 5], &[0, 1, 2, 3, 4, 5]] {
            let from_store = ctx.select_rows(rows, attrs, "sel");
            let from_mem = mem.select_rows(rows, attrs, "sel");
            assert_eq!(from_store.content_hash(), from_mem.content_hash());
            assert_eq!(from_store.n_tuples(), rows.len());
            for (r, &t) in rows.iter().enumerate() {
                assert_eq!(from_store.value_str(r, 1), rel.value_str(t as usize, 2));
            }
        }
        // A redesign step from the store is the memory step.
        let child = ctx.derive_projected(attrs, "ac");
        assert_eq!(
            child.content_hash(),
            dbmine_oracles::project_distinct(&rel, attrs, "ac").content_hash()
        );
        // Nothing switched the source: every pass still decodes the
        // store, and nothing was materialized.
        assert_eq!(ctx.chunks().count(), 3);
        assert_eq!(ctx.view_stats().materializations, 0);
        assert_eq!(ctx.tuple_mutual_information(), tuple_mi(&rel));
    }
}
