//! `CtxCache` — a bounded LRU of shared [`AnalysisCtx`]s keyed by
//! relation content hash.
//!
//! This is the serving daemon's resident state: every request for a
//! relation the cache already holds reuses the same `Arc<AnalysisCtx>`,
//! so all of the context's memoized views (ValueIndex, the mutual
//! informations, partitions, projection stats) are amortized across requests — the
//! "keep the per-node caches hot across repeated queries" pattern.
//!
//! Keys are [`Relation::content_hash`] values, so two loads of
//! byte-identical CSV share one context while any content difference
//! (schema, cells, row order, name) gets its own. Admission under
//! [`CtxCache::get_or_insert_with`] holds the cache lock across the
//! build closure: concurrent cold requests for the *same* relation
//! serialize into exactly one context (exactly-once view builds are
//! pinned by the concurrency suite), at the cost of also serializing
//! cold loads of different relations — an explicit trade for a correct
//! and testable sharing contract (warm lookups only take the lock for a
//! map probe).
//!
//! Hits and misses bump the process-global `ctx_lru_hits` /
//! `ctx_lru_misses` telemetry counters and are always tracked on the
//! cache itself (feature-independent), mirroring `ViewStats`.

use crate::AnalysisCtx;
use dbmine_relation::Relation;
use fxhash::FxHashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Point-in-time statistics of a [`CtxCache`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CtxCacheStats {
    /// Lookups served by a resident context.
    pub hits: u64,
    /// Lookups that admitted (or would have admitted) a fresh context.
    pub misses: u64,
    /// Contexts evicted to make room.
    pub evictions: u64,
    /// Resident contexts right now.
    pub entries: usize,
    /// Maximum resident contexts.
    pub capacity: usize,
}

struct Entry {
    ctx: Arc<AnalysisCtx>,
    /// Logical timestamp of the last lookup that touched this entry.
    last_used: u64,
}

struct Inner {
    entries: FxHashMap<u64, Entry>,
    tick: u64,
}

/// A bounded, thread-safe LRU of `Arc<AnalysisCtx>` keyed by
/// [`Relation::content_hash`]. See the module docs for the sharing and
/// locking contract.
pub struct CtxCache {
    inner: Mutex<Inner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for CtxCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CtxCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl CtxCache {
    /// An empty cache holding at most `capacity` contexts (min 1).
    pub fn new(capacity: usize) -> Self {
        CtxCache {
            inner: Mutex::new(Inner {
                entries: FxHashMap::default(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> CtxCacheStats {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        CtxCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: inner.entries.len(),
            capacity: self.capacity,
        }
    }

    /// The resident context for `key`, if any (bumps recency and the
    /// hit/miss accounting).
    pub fn get(&self, key: u64) -> Option<Arc<AnalysisCtx>> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        match inner.entries.get_mut(&key) {
            Some(e) => {
                e.last_used = tick;
                self.record(true);
                Some(Arc::clone(&e.ctx))
            }
            None => {
                self.record(false);
                None
            }
        }
    }

    /// The resident context for `key`, or the one produced by `build`,
    /// admitted under the cache lock (evicting the least-recently-used
    /// entry if full). Returns the context and whether it was a hit.
    /// A `build` error admits nothing and is passed through.
    pub fn get_or_insert_with<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<AnalysisCtx, E>,
    ) -> Result<(Arc<AnalysisCtx>, bool), E> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(e) = inner.entries.get_mut(&key) {
            e.last_used = tick;
            self.record(true);
            return Ok((Arc::clone(&e.ctx), true));
        }
        // Miss: build while holding the lock (see module docs), then
        // evict the least-recently-used entry if the cache is full.
        // A failed build still counts as a miss.
        self.record(false);
        let ctx = Arc::new(build()?);
        if inner.entries.len() >= self.capacity {
            if let Some((&victim, _)) = inner.entries.iter().min_by_key(|(_, e)| e.last_used) {
                inner.entries.remove(&victim);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        inner.entries.insert(
            key,
            Entry {
                ctx: Arc::clone(&ctx),
                last_used: tick,
            },
        );
        Ok((ctx, false))
    }

    /// Convenience: look up (or admit) a context for `rel` by its
    /// content hash.
    pub fn get_or_insert_relation(&self, rel: Relation) -> (Arc<AnalysisCtx>, bool) {
        let key = rel.content_hash();
        let (ctx, hit) = self
            .get_or_insert_with(key, || {
                Ok::<_, std::convert::Infallible>(AnalysisCtx::from(rel))
            })
            .unwrap_or_else(|e| match e {});
        (ctx, hit)
    }

    fn record(&self, hit: bool) {
        use dbmine_telemetry::{counter_add, Counter};
        if hit {
            self.hits.fetch_add(1, Ordering::Relaxed);
            counter_add(Counter::CtxLruHits, 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            counter_add(Counter::CtxLruMisses, 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::RelationBuilder;

    fn rel(name: &str, cell: &str) -> Relation {
        let mut b = RelationBuilder::new(name, &["X"]);
        b.push_row_strs(&[cell]);
        b.build()
    }

    #[test]
    fn same_content_shares_one_context() {
        let cache = CtxCache::new(4);
        let (a, hit_a) = cache.get_or_insert_relation(rel("t", "v"));
        let (b, hit_b) = cache.get_or_insert_relation(rel("t", "v"));
        assert!(!hit_a);
        assert!(hit_b);
        assert!(Arc::ptr_eq(&a, &b));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn different_content_gets_distinct_contexts() {
        let cache = CtxCache::new(4);
        let (a, _) = cache.get_or_insert_relation(rel("t", "v"));
        let (b, hit) = cache.get_or_insert_relation(rel("t", "w"));
        assert!(!hit);
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let cache = CtxCache::new(2);
        let (a, _) = cache.get_or_insert_relation(rel("a", "1"));
        let (_b, _) = cache.get_or_insert_relation(rel("b", "2"));
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        assert!(cache.get(rel("a", "1").content_hash()).is_some());
        let (_c, _) = cache.get_or_insert_relation(rel("c", "3"));
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // `a` survived, `b` did not.
        let (a2, hit) = cache.get_or_insert_relation(rel("a", "1"));
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &a2));
        let (_, hit_b) = cache.get_or_insert_relation(rel("b", "2"));
        assert!(!hit_b, "evicted entry must be rebuilt");
    }

    #[test]
    fn capacity_is_at_least_one() {
        let cache = CtxCache::new(0);
        assert_eq!(cache.stats().capacity, 1);
        let (_, _) = cache.get_or_insert_relation(rel("a", "1"));
        let (_, _) = cache.get_or_insert_relation(rel("b", "2"));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn build_error_admits_nothing() {
        let cache = CtxCache::new(2);
        let r: Result<_, &str> = cache.get_or_insert_with(7, || Err("nope"));
        assert!(r.is_err());
        assert_eq!(cache.stats().entries, 0);
        // The failed miss still counts as a miss.
        assert_eq!(cache.stats().misses, 1);
    }
}
