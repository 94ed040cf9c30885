//! Incremental relation content hashing.
//!
//! [`ContentHasher`] is the **single definition** of the relation
//! content hash, and [`ContentHasher::push_chunk`] its one fold:
//! [`crate::Relation::content_hash`] (the relation as one chunk), the
//! spill scan and [`crate::ShardedRelation::verify_content`] (store
//! chunks) all run it, so a relation loaded in memory and the same CSV
//! spilled chunk by chunk hash identically (pinned by tests in
//! `crate::shard`). That identity is what lets `dbmined`'s
//! `CtxCache` key out-of-core ingests the same way it keys in-memory
//! loads.
//!
//! The hash is 64-bit FNV-1a over the relation's *logical* content:
//!
//! 1. relation name, then a `0xff` separator;
//! 2. attribute count (u64 LE), then each attribute name + `0xff`;
//! 3. every cell in **row-major** order — a NULL-marker byte, a u32 LE
//!    length prefix, then the value string's bytes;
//! 4. at [`ContentHasher::finish`], the row count (u64 LE).
//!
//! Row-major cell order (rather than the column-major walk the
//! pre-sharding implementation used) is what makes the hash streamable:
//! a chunked reader sees whole rows, never whole columns. The row count
//! folds in at the end for the same reason — a streaming pass only
//! knows `n` once the input is exhausted. The hash depends only on
//! logical content, never on dictionary internals or the interning
//! order of other relations.

use crate::dict::{ValueDict, NULL_VALUE};
use crate::shard::RelationChunk;

/// The 64-bit FNV-1a offset basis: the state before any byte.
pub(crate) const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// 64-bit FNV-1a: folds `bytes` into `state` (start from
/// [`FNV_OFFSET`]). The one hash function of the crate: the content hash
/// below and the shard store's block and footer checksums
/// ([`crate::spill`]) both call it.
pub(crate) fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(state, |h, &b| (h ^ b as u64).wrapping_mul(FNV_PRIME))
}

/// Streaming FNV-1a hasher over a relation's logical content. See the
/// module docs for the exact byte layout.
#[derive(Clone, Debug)]
pub struct ContentHasher {
    h: u64,
    rows: u64,
}

impl ContentHasher {
    /// Starts a hash over a relation called `name` with the given
    /// schema. The header (name + attribute names) folds in immediately.
    pub fn new<S: AsRef<str>>(name: &str, attr_names: &[S]) -> Self {
        let mut hasher = ContentHasher {
            h: FNV_OFFSET,
            rows: 0,
        };
        hasher.eat(name.as_bytes());
        hasher.eat(&[0xff]);
        hasher.eat(&(attr_names.len() as u64).to_le_bytes());
        for attr in attr_names {
            hasher.eat(attr.as_ref().as_bytes());
            hasher.eat(&[0xff]);
        }
        hasher
    }

    /// Folds a chunk's rows in order, cell by cell in schema order,
    /// reading each value's string from `dict`. NULL cells hash
    /// distinct from the literal string `"NULL"` via the marker byte.
    pub fn push_chunk(&mut self, chunk: &RelationChunk<'_>, dict: &ValueDict) {
        for t in 0..chunk.n_rows() {
            for v in chunk.row_values(t) {
                self.push_cell((v != NULL_VALUE).then(|| dict.string(v)));
            }
        }
        self.rows += chunk.n_rows() as u64;
    }

    /// Folds the row count and returns the hash.
    pub fn finish(self) -> u64 {
        let mut hasher = self;
        let rows = hasher.rows;
        hasher.eat(&rows.to_le_bytes());
        hasher.h
    }

    fn push_cell(&mut self, cell: Option<&str>) {
        let s = cell.unwrap_or("NULL");
        self.eat(&[cell.is_none() as u8]);
        self.eat(&(s.len() as u32).to_le_bytes());
        self.eat(s.as_bytes());
    }

    fn eat(&mut self, bytes: &[u8]) {
        self.h = fnv1a(self.h, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_known_answers() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(fnv1a(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
        // Folding in pieces is folding the concatenation.
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"foo"), b"bar"), 0x85944171f73967e8);
    }

    /// The hash of `rows` under `name`/`attrs`, fed as chunks of
    /// `chunk` rows.
    fn hash(name: &str, attrs: &[&str], rows: &[&[Option<&str>]], chunk: usize) -> u64 {
        let mut dict = ValueDict::new();
        let mut h = ContentHasher::new(name, attrs);
        for (i, part) in rows.chunks(chunk).enumerate() {
            let columns = (0..attrs.len())
                .map(|a| part.iter().map(|row| dict.intern_cell(row[a])).collect())
                .collect();
            h.push_chunk(&RelationChunk::owned(i * chunk, columns), &dict);
        }
        h.finish()
    }

    #[test]
    fn chunked_and_one_shot_feeding_agree() {
        // The hash is a pure function of the content, not of how the
        // rows were cut into chunks.
        let rows: &[&[Option<&str>]] = &[&[Some("x"), None], &[Some("y"), Some("z")]];
        assert_eq!(
            hash("t", &["A", "B"], rows, 1),
            hash("t", &["A", "B"], rows, 2)
        );
    }

    #[test]
    fn header_cells_and_count_all_matter() {
        let base = hash("t", &["A"], &[&[Some("x")]], 1);
        let renamed = hash("u", &["A"], &[&[Some("x")]], 1);
        let reattr = hash("t", &["B"], &[&[Some("x")]], 1);
        let recell = hash("t", &["A"], &[&[Some("y")]], 1);
        let doubled = hash("t", &["A"], &[&[Some("x")], &[Some("x")]], 1);
        for other in [renamed, reattr, recell, doubled] {
            assert_ne!(base, other);
        }
    }

    #[test]
    fn null_distinct_from_literal_null() {
        assert_ne!(
            hash("t", &["X"], &[&[None]], 1),
            hash("t", &["X"], &[&[Some("NULL")]], 1)
        );
    }
}
