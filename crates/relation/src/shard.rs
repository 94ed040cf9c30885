//! Out-of-core sharded CSV ingest.
//!
//! [`crate::csv::read_relation`] builds the whole columnar relation
//! before any mining starts — fine at paper scale, hopeless at 10⁷
//! tuples. This module ingests the same CSV in **bounded-memory
//! chunks** while producing *bitwise* the same derived quantities as
//! the in-memory path:
//!
//! * [`ShardedRelation::scan_csv_spill`] — the one pass over the CSV:
//!   the same streaming scan as `read_relation` (header rule, row rule,
//!   row-major interning into the global [`ValueDict`], so ids match the
//!   in-memory load exactly), cut into chunks that fold into the
//!   [`ContentHasher`] and spill into a binary shard store
//!   ([`crate::spill`]) as they come. The hash equals
//!   [`crate::Relation::content_hash`] of the in-memory load — the
//!   identity key `dbmined`'s context LRU uses — and the scan never
//!   holds more than the dictionary and one chunk.
//! * [`ShardedRelation::chunks`] — every later pass: decodes the store
//!   into owned [`RelationChunk`]s of at most `chunk_tuples` rows in the
//!   relation's interned columnar layout. Peak memory is the dictionary
//!   plus one chunk, independent of the relation size.
//!
//! Every fold lives next to its type and takes chunks, whatever their
//! source: [`crate::tuple_mutual_information_chunks`],
//! [`crate::ValueIndex::from_chunks`], [`crate::attr_partitions_chunks`]
//! and [`ContentHasher::push_chunk`].
//! A resident relation is one borrowed chunk
//! ([`crate::Relation::as_chunk`]), so store passes and in-memory builds
//! run the same fold.

use crate::csv::{CsvError, CsvScan};
use crate::dict::{ValueDict, ValueId};
use crate::hash::ContentHasher;
use crate::spill::{SpillWriter, StoreChunks, StoreError, StoreFooter};
use std::borrow::Cow;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Default ingest chunk size, in tuples. 65 536 rows of interned `u32`
/// cells keep a chunk in the low megabytes for paper-scale schemas
/// while amortizing per-chunk costs at 10⁷-tuple scale.
pub const DEFAULT_CHUNK_TUPLES: usize = 65_536;

/// Consecutive rows of a relation in its interned columnar layout: a
/// decoded store block (owned columns) or a resident relation
/// ([`crate::Relation::as_chunk`], borrowed columns). Every view fold
/// consumes chunks in global tuple order.
#[derive(Clone, Debug)]
pub struct RelationChunk<'a> {
    /// Index of this chunk's first tuple in the whole relation.
    pub start: usize,
    /// Column-major cell ids: `columns[a][t]` is the value of local row
    /// `t` in attribute `a`. All columns have equal length.
    pub columns: Vec<Cow<'a, [ValueId]>>,
}

impl RelationChunk<'_> {
    /// A chunk that owns its columns.
    pub(crate) fn owned(start: usize, columns: Vec<Vec<ValueId>>) -> RelationChunk<'static> {
        RelationChunk {
            start,
            columns: columns.into_iter().map(Cow::Owned).collect(),
        }
    }

    /// Rows in this chunk.
    pub fn n_rows(&self) -> usize {
        self.columns.first().map_or(0, |c| c.len())
    }

    /// The value id of local row `t`, attribute `a`.
    pub fn value(&self, t: usize, a: usize) -> ValueId {
        self.columns[a][t]
    }

    /// Iterator over local row `t`'s cell values in attribute order.
    pub fn row_values(&self, t: usize) -> impl Iterator<Item = ValueId> + '_ {
        self.columns.iter().map(move |col| col[t])
    }
}

/// The bounded-memory view of a CSV relation: schema, global value
/// dictionary, tuple count and content hash — everything *except* the
/// cell matrix, which lives in a binary shard store ([`crate::spill`])
/// and is decoded in chunks on demand.
///
/// Built by [`ShardedRelation::scan_csv_spill`] (one CSV pass that also
/// writes the store) or [`ShardedRelation::open_store`]; every later
/// pass decodes the store via [`ShardedRelation::chunks`]. The
/// dictionary is interned by the same scan as an in-memory
/// [`crate::csv::read_relation`] load, so every id — and every quantity
/// derived from ids — matches the in-memory path bitwise.
#[derive(Clone, Debug)]
pub struct ShardedRelation {
    name: String,
    attr_names: Vec<String>,
    dict: ValueDict,
    n: usize,
    content_hash: u64,
    chunk_tuples: usize,
    /// The shard store chunk passes decode.
    path: PathBuf,
    /// File offset one past the last block (= the footer offset), from
    /// the validated store metadata.
    data_len: u64,
}

impl ShardedRelation {
    /// The one pass over a CSV stream: header, dictionary, tuple count
    /// and content hash, spilling every chunk into the binary shard
    /// store at `store_path` as it scans. The CSV is tokenized and
    /// dictionary-hashed exactly once; every later chunk pass decodes
    /// the store ([`crate::spill`]). Row-major interning means each
    /// value id is final the moment its chunk is written, so no second
    /// encoding pass is needed. `chunk_tuples` sets the store's chunk
    /// granularity (`0` means [`DEFAULT_CHUNK_TUPLES`]).
    pub fn scan_csv_spill<R: Read>(
        reader: R,
        name: &str,
        chunk_tuples: usize,
        store_path: impl AsRef<Path>,
    ) -> Result<Self, CsvError> {
        let store_path = store_path.as_ref();
        let in_store = |e: StoreError| CsvError::from(e).in_file(store_path);
        let chunk_tuples = if chunk_tuples == 0 {
            DEFAULT_CHUNK_TUPLES
        } else {
            chunk_tuples
        };
        let mut scan = CsvScan::new(reader, chunk_tuples)?;
        let mut hasher = ContentHasher::new(name, scan.attr_names());
        let mut writer = SpillWriter::create(store_path).map_err(in_store)?;
        while let Some(chunk) = scan.next_chunk()? {
            hasher.push_chunk(&chunk, scan.dict());
            writer.write_chunk(&chunk).map_err(in_store)?;
        }
        let (attr_names, dict, n_tuples) = scan.finish();
        writer
            .finish(&StoreFooter {
                name,
                attr_names: &attr_names,
                chunk_tuples,
                n_tuples,
                content_hash: hasher.finish(),
                dict: &dict,
            })
            .map_err(in_store)?;
        // Re-open through the validated metadata path so the relation
        // carries the verified footer offset.
        Self::open_store(store_path).map_err(|e| e.in_file(store_path))
    }

    /// [`ShardedRelation::scan_csv_spill`] over a CSV file. The file
    /// stem becomes the relation name, as in
    /// [`crate::csv::read_relation_path`]. CSV errors do not repeat the
    /// path (the caller names it); store errors carry the store path.
    pub fn scan_csv_path_spill(
        path: impl AsRef<Path>,
        chunk_tuples: usize,
        store_path: impl AsRef<Path>,
    ) -> Result<Self, CsvError> {
        let path = path.as_ref();
        let name = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("relation");
        let file = std::fs::File::open(path)?;
        Self::scan_csv_spill(file, name, chunk_tuples, store_path)
    }

    /// Opens an existing binary shard store: validates magic, version,
    /// trailer, footer checksum and counts, rebuilds the frozen
    /// dictionary, and returns the relation. Later chunk passes decode
    /// blocks directly — zero tokenization, zero hashing. Errors do not
    /// repeat the path: the caller names it.
    pub fn open_store(path: impl AsRef<Path>) -> Result<Self, CsvError> {
        let path = path.as_ref();
        let meta = crate::spill::read_meta(path)?;
        Ok(ShardedRelation {
            name: meta.name,
            attr_names: meta.attr_names,
            dict: meta.dict,
            n: meta.n_tuples,
            content_hash: meta.content_hash,
            chunk_tuples: meta.chunk_tuples,
            path: path.to_path_buf(),
            data_len: meta.data_len,
        })
    }

    /// Fully materializes the in-memory [`crate::Relation`] (one chunk
    /// pass). The result is indistinguishable from loading the original
    /// CSV with [`crate::csv::read_relation_path`] — same ids, same
    /// content hash.
    pub fn materialize(&self) -> Result<crate::Relation, CsvError> {
        crate::Relation::from_chunks(
            &self.name,
            self.attr_names.clone(),
            self.dict.clone(),
            self.n,
            self.chunks()?,
        )
    }

    /// Recomputes the content hash from the store's chunks and checks it
    /// against the one recorded in the footer — the end-to-end integrity
    /// check: a store whose blocks decode cleanly but describe different
    /// content (e.g. a forged or mismatched footer hash) yields a typed
    /// [`StoreError::ContentHashMismatch`].
    pub fn verify_content(&self) -> Result<(), CsvError> {
        let mut hasher = ContentHasher::new(&self.name, &self.attr_names);
        for chunk in self.chunks()? {
            hasher.push_chunk(&chunk?, &self.dict);
        }
        let found = hasher.finish();
        if found != self.content_hash {
            return Err(CsvError::Store(StoreError::ContentHashMismatch {
                expected: self.content_hash,
                found,
            }));
        }
        Ok(())
    }

    /// Relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute names, in schema order.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// Number of attributes `m`.
    pub fn n_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// Number of tuples `n`.
    pub fn n_tuples(&self) -> usize {
        self.n
    }

    /// The global value dictionary (frozen after the scan pass).
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// The content hash — bit-identical to
    /// [`crate::Relation::content_hash`] of the same CSV loaded in
    /// memory under the same name.
    pub fn content_hash(&self) -> u64 {
        self.content_hash
    }

    /// Chunk granularity, in tuples.
    pub fn chunk_tuples(&self) -> usize {
        self.chunk_tuples
    }

    /// The shard store chunk passes decode.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The validated footer offset (used by the block reader to bound
    /// block reads).
    pub(crate) fn data_len(&self) -> u64 {
        self.data_len
    }

    /// Number of chunks a full pass yields: `ceil(n / chunk_tuples)`.
    pub fn n_chunks(&self) -> usize {
        self.n.div_ceil(self.chunk_tuples)
    }

    /// A chunk pass decoding the store from its first block. Errors —
    /// opening the file or any block it yields — carry the store path.
    pub fn chunks(&self) -> Result<StoreChunks<'_>, CsvError> {
        StoreChunks::open(self).map_err(|e| CsvError::from(e).in_file(&self.path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::csv::read_relation;
    use crate::matrix::tuple_mutual_information_chunks;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A reader that dribbles bytes out in fixed-size drips, forcing the
    /// rolling buffer to refill at arbitrary (and adversarial) offsets.
    struct Drip<'a> {
        data: &'a [u8],
        pos: usize,
        step: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let take = self.step.min(out.len()).min(self.data.len() - self.pos);
            out[..take].copy_from_slice(&self.data[self.pos..self.pos + take]);
            self.pos += take;
            Ok(take)
        }
    }

    fn drip(data: &str, step: usize) -> Drip<'_> {
        Drip {
            data: data.as_bytes(),
            pos: 0,
            step,
        }
    }

    static SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_store() -> PathBuf {
        let dir = std::env::temp_dir().join("dbmine_shard_test");
        std::fs::create_dir_all(&dir).unwrap();
        let id = SEQ.fetch_add(1, Ordering::Relaxed);
        dir.join(format!("{}_{id}.dbss", std::process::id()))
    }

    /// A relation spilled into a temporary store, deleted on drop.
    struct Spilled(ShardedRelation);

    impl std::ops::Deref for Spilled {
        type Target = ShardedRelation;
        fn deref(&self) -> &ShardedRelation {
            &self.0
        }
    }

    impl Drop for Spilled {
        fn drop(&mut self) {
            std::fs::remove_file(self.0.path()).ok();
        }
    }

    fn try_spill<R: Read>(reader: R, name: &str, chunk_tuples: usize) -> Result<Spilled, CsvError> {
        let store = tmp_store();
        let scanned = ShardedRelation::scan_csv_spill(reader, name, chunk_tuples, &store);
        if scanned.is_err() {
            std::fs::remove_file(&store).ok();
        }
        scanned.map(Spilled)
    }

    fn spill<R: Read>(reader: R, name: &str, chunk_tuples: usize) -> Spilled {
        try_spill(reader, name, chunk_tuples).unwrap()
    }

    const SAMPLE: &str = "A,B,C\n\
        a,w,p\n\
        a,w,r\n\
        w,1,\"x,1\"\n\
        \"multi\nline\",2,x\n\
        \n\
        z,2,x\n";

    fn in_memory(csv: &str, name: &str) -> crate::Relation {
        read_relation(csv.as_bytes(), name).unwrap()
    }

    #[test]
    fn scan_matches_in_memory_load_for_every_drip_size() {
        let rel = in_memory(SAMPLE, "t");
        for step in [1, 2, 3, 5, 7, 64, 4096] {
            let s = spill(drip(SAMPLE, step), "t", 2);
            assert_eq!(s.n_tuples(), rel.n_tuples(), "step={step}");
            assert_eq!(s.attr_names(), rel.attr_names());
            assert_eq!(s.dict().len(), rel.dict().len());
            assert_eq!(s.content_hash(), rel.content_hash(), "step={step}");
        }
    }

    #[test]
    fn chunks_reproduce_the_columnar_relation() {
        let rel = in_memory(SAMPLE, "t");
        for chunk_tuples in [1, 2, 3, 100] {
            let s = spill(drip(SAMPLE, 3), "t", chunk_tuples);
            let mut seen = 0usize;
            for chunk in s.chunks().unwrap() {
                let chunk = chunk.unwrap();
                assert_eq!(chunk.start, seen);
                assert!(chunk.n_rows() <= chunk_tuples);
                for t in 0..chunk.n_rows() {
                    for a in 0..chunk.columns.len() {
                        assert_eq!(
                            chunk.value(t, a),
                            rel.value(seen + t, a),
                            "chunk_tuples={chunk_tuples} t={} a={a}",
                            seen + t
                        );
                    }
                }
                seen += chunk.n_rows();
            }
            assert_eq!(seen, rel.n_tuples());
            assert_eq!(s.n_chunks(), rel.n_tuples().div_ceil(chunk_tuples.max(1)));
        }
    }

    #[test]
    fn streaming_mi_is_bit_identical_to_tuple_rows() {
        let rel = in_memory(SAMPLE, "t");
        let (d, m, n) = (rel.dict().len(), rel.n_attrs(), rel.n_tuples());
        let reference = tuple_mutual_information_chunks(d, m, n, [rel.as_chunk()]);
        for chunk_tuples in [1, 2, 3, 100] {
            let s = spill(drip(SAMPLE, 5), "t", chunk_tuples);
            let chunks = s.chunks().unwrap().map(Result::unwrap);
            let mi = tuple_mutual_information_chunks(d, m, n, chunks);
            assert_eq!(
                mi.to_bits(),
                reference.to_bits(),
                "chunk_tuples={chunk_tuples}"
            );
        }
    }

    #[test]
    fn dictionary_ids_match_builder_interning_order() {
        // Row-major interning must assign the exact ids the in-memory
        // load does — ids are load-bearing for bitwise-equal derived views.
        let rel = in_memory(SAMPLE, "t");
        let s = spill(SAMPLE.as_bytes(), "t", 10);
        for id in 0..rel.dict().len() {
            assert_eq!(s.dict().string(id as u32), rel.dict().string(id as u32));
        }
    }

    #[test]
    fn hash_depends_on_name_like_in_memory_path() {
        let a = spill(SAMPLE.as_bytes(), "t", 10);
        let b = spill(SAMPLE.as_bytes(), "u", 10);
        assert_ne!(a.content_hash(), b.content_hash());
        assert_eq!(b.content_hash(), in_memory(SAMPLE, "u").content_hash());
    }

    #[test]
    fn single_column_blank_lines_are_rows_here_too() {
        let csv = "A\nx\n\ny\n";
        let rel = in_memory(csv, "t");
        let s = spill(csv.as_bytes(), "t", 2);
        assert_eq!(s.n_tuples(), 3);
        assert_eq!(s.content_hash(), rel.content_hash());
        let rows: usize = s.chunks().unwrap().map(|c| c.unwrap().n_rows()).sum();
        assert_eq!(rows, 3);
    }

    #[test]
    fn crlf_and_missing_trailing_newline() {
        for csv in ["A,B\r\n1,2\r\n3,4", "A,B\n1,2\n3,4"] {
            let rel = in_memory(csv, "t");
            for step in [1, 4, 1000] {
                let s = spill(drip(csv, step), "t", 1);
                assert_eq!(s.n_tuples(), 2);
                assert_eq!(s.content_hash(), rel.content_hash());
            }
        }
    }

    #[test]
    fn errors_match_in_memory_reader() {
        assert!(matches!(
            try_spill("".as_bytes(), "t", 1),
            Err(CsvError::Empty)
        ));
        assert!(matches!(
            try_spill("A,B\n1\n".as_bytes(), "t", 1),
            Err(CsvError::RaggedRow {
                line: 2,
                expected: 2,
                got: 1,
            })
        ));
        // A ragged record names its first line, whatever follows it.
        for csv in ["A,B\nx,y,z\n", "A,B\nx,y,z", "A,B\n\"x\ny\",y,z\n"] {
            for step in [1, 2, 4096] {
                assert!(
                    matches!(
                        try_spill(drip(csv, step), "t", 1),
                        Err(CsvError::RaggedRow {
                            line: 2,
                            got: 3,
                            ..
                        })
                    ),
                    "{csv:?} step={step}"
                );
            }
        }
        assert!(matches!(
            try_spill("A\n\"oops\n".as_bytes(), "t", 1),
            Err(CsvError::UnterminatedQuote { line: 2 })
        ));
        assert!(matches!(
            try_spill(&b"A\nok\ncaf\xe9\n"[..], "t", 1),
            Err(CsvError::InvalidUtf8 { line: 3, column: 0 })
        ));
        let wide: String = format!(
            "{}\n",
            (0..65)
                .map(|i| format!("c{i}"))
                .collect::<Vec<_>>()
                .join(",")
        );
        assert!(matches!(
            try_spill(wide.as_bytes(), "t", 1),
            Err(CsvError::TooManyAttrs { got: 65, max: 64 })
        ));
    }

    #[test]
    fn path_spill_rejects_duplicate_header_names() {
        let dir = std::env::temp_dir().join("dbmine_shard_dup_header_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("dup_{}.csv", std::process::id()));
        std::fs::write(&path, "a,a\nx,y\n").unwrap();
        let store = dir.join(format!("dup_{}.dbss", std::process::id()));
        let e = ShardedRelation::scan_csv_path_spill(&path, 0, &store).unwrap_err();
        // The caller named the CSV path; the error does not repeat it.
        assert!(
            matches!(&e, CsvError::DuplicateAttr { name, first: 0, second: 1 } if name == "a"),
            "{e:?}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn path_backed_spill_rechunks_its_store() {
        let dir = std::env::temp_dir().join("dbmine_shard_path_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        std::fs::write(&path, SAMPLE).unwrap();
        let store = dir.join(format!("sample_{}.dbss", std::process::id()));
        let s = ShardedRelation::scan_csv_path_spill(&path, 2, &store).unwrap();
        assert_eq!(s.name(), "sample");
        assert_eq!(s.path(), store);
        let rel = in_memory(SAMPLE, "sample");
        assert_eq!(s.content_hash(), rel.content_hash());
        let rows: usize = s.chunks().unwrap().map(|c| c.unwrap().n_rows()).sum();
        assert_eq!(rows, rel.n_tuples());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn chunk_folds_match_in_memory_builds() {
        // Every view fold over store chunks of any size equals the same
        // fold over the resident relation as one chunk: chunk boundaries
        // never change a bit.
        use crate::matrix::ValueIndex;
        use crate::partition::{attr_partitions_chunks, StrippedPartition};

        let rel = in_memory(SAMPLE, "t");
        for chunk_tuples in [1, 2, 3, 100] {
            let s = spill(SAMPLE.as_bytes(), "t", chunk_tuples);
            let pass = || s.chunks().unwrap().map(Result::unwrap);

            let parts = attr_partitions_chunks(s.n_attrs(), pass);
            assert_eq!(parts.len(), rel.n_attrs());
            for (a, part) in parts.iter().enumerate() {
                assert_eq!(
                    part,
                    &StrippedPartition::of_attr(&rel, a),
                    "π_{a} chunk_tuples={chunk_tuples}"
                );
            }

            let (d, m, n) = (s.dict().len(), s.n_attrs(), s.n_tuples());
            assert_eq!(
                tuple_mutual_information_chunks(d, m, n, pass()).to_bits(),
                tuple_mutual_information_chunks(d, m, n, [rel.as_chunk()]).to_bits()
            );

            let vi = ValueIndex::from_chunks(s.dict().len(), pass());
            let mem_vi = ValueIndex::build(&rel);
            assert_eq!(vi.values(), mem_vi.values());
            for i in 0..vi.len() {
                assert_eq!(vi.occurrences(i), mem_vi.occurrences(i));
                assert_eq!(vi.o_row(i), mem_vi.o_row(i));
            }
            assert_eq!(
                vi.mutual_information().to_bits(),
                mem_vi.mutual_information().to_bits()
            );
        }
    }

    #[test]
    fn record_stream_survives_long_records_and_compaction() {
        // A value far larger than the read window spans several
        // refills; content must still round-trip exactly.
        let big = "v".repeat(3 * 64 * 1024);
        let csv = format!("A,B\n{big},w\nx,y\n");
        let rel = in_memory(&csv, "t");
        let s = spill(csv.as_bytes(), "t", 1);
        assert_eq!(s.n_tuples(), 2);
        assert_eq!(s.content_hash(), rel.content_hash());
        assert_eq!(s.dict().len(), rel.dict().len());
    }
}
