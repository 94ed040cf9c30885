//! Binary columnar shard store (`.dbss`) — spill-once ingest, zero
//! re-parse chunk passes.
//!
//! Tokenizing, unquoting and dictionary-hashing a CSV is the dominant
//! cost of a chunk pass at 10⁷ tuples and a hard wall before 10⁸. So
//! the one-and-only scan pass ([`crate::shard`]) spills each chunk
//! **once**, as a dictionary-encoded column-major block of fixed-width
//! [`ValueId`]s; every later pass decodes blocks straight back into
//! [`RelationChunk`]s with a buffered sequential read — no
//! tokenization, no hashing, bit-identical to the in-memory relation
//! (pinned by round-trip tests here and in `crate::shard`).
//!
//! ## On-disk layout (version 1)
//!
//! ```text
//! ┌────────────────────────────────────────────────────────────┐
//! │ magic "DBSS" (4)  │ version u32 LE (4)                     │
//! ├────────────────────────────────────────────────────────────┤
//! │ block 0 │ block 1 │ …                                      │ blocks
//! ├────────────────────────────────────────────────────────────┤
//! │ footer: n_chunks, n_tuples, chunk_tuples, content_hash,    │
//! │         name, attr names, dictionary strings, checksum     │
//! ├────────────────────────────────────────────────────────────┤
//! │ footer offset u64 LE (8) │ trailer magic "DBSSEND1" (8)    │
//! └────────────────────────────────────────────────────────────┘
//!
//! block i = chunk_index u64 LE
//!         │ n_rows u64 LE
//!         │ m × n_rows × ValueId u32 LE   (column-major)
//!         │ checksum u64 LE               (FNV-1a over the block bytes)
//! ```
//!
//! All integers are little-endian. The metadata lives in a *footer*
//! (found via the fixed-size trailer) rather than a leading header
//! because the dictionary is only frozen when the scan pass ends —
//! footer placement is what makes single-pass spill-on-scan possible:
//! blocks stream out while the scan is still interning (row-major
//! interning means every id is final the moment its chunk is written).
//!
//! ## Invariants
//!
//! * Every block and the footer carry an FNV-1a checksum; a flipped
//!   byte, a truncated file, or trailing garbage yields a typed
//!   [`StoreError`] naming the chunk — never a panic or a
//!   silently-wrong chunk.
//! * Block `i` must declare `chunk_index == i` and exactly
//!   `min(chunk_tuples, n_tuples − i·chunk_tuples)` rows; every decoded
//!   id must be below the dictionary length.
//! * The footer names at least one attribute and no name twice — the
//!   schema rule a CSV header obeys too ([`crate::csv`]).
//! * Dictionary entry 0 is the reserved NULL value; entries `1..len`
//!   are the interned strings in id order, so rebuilding by re-interning
//!   reproduces the exact [`ValueDict`] of the scan pass.
//! * A store appears at its path only sealed: [`SpillWriter`] writes a
//!   temporary sibling and renames it over the path when it seals, so a
//!   scan that fails leaves no store behind and an existing store at
//!   that path untouched.

use crate::csv::CsvError;
use crate::dict::{ValueDict, ValueId};
use crate::hash::{fnv1a, FNV_OFFSET};
use crate::shard::{RelationChunk, ShardedRelation};
use dbmine_telemetry::{counter_add, Counter};
use std::fmt;
use std::fs::File;
use std::io::{BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Leading file magic.
pub const MAGIC: [u8; 4] = *b"DBSS";

/// Trailing file magic (distinct from the leading one so a truncated
/// copy of a store never passes for a whole one).
pub const TRAILER_MAGIC: [u8; 8] = *b"DBSSEND1";

/// Current format version.
pub const VERSION: u32 = 1;

/// Bytes before the first block: leading magic + version.
const PRELUDE_LEN: u64 = 8;

/// Errors reading or writing a binary shard store. Corruption is always
/// typed — checksum or length mismatches name the offending chunk.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a shard store (bad magic / malformed trailer).
    NotAStore { detail: String },
    /// The store was written by an unsupported format version.
    UnsupportedVersion { found: u32 },
    /// The store is corrupt or truncated. `chunk` names the block where
    /// the damage was detected (`None` for header/footer damage).
    Corrupt {
        chunk: Option<usize>,
        detail: String,
    },
    /// The store's recorded relation content hash does not match the
    /// expected one — it describes different content.
    ContentHashMismatch { expected: u64, found: u64 },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
            StoreError::NotAStore { detail } => {
                write!(f, "not a dbmine shard store: {detail}")
            }
            StoreError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported shard store version {found} (this build reads version {VERSION})"
                )
            }
            StoreError::Corrupt { chunk, detail } => match chunk {
                Some(i) => write!(f, "corrupt store at chunk {i}: {detail}"),
                None => write!(f, "corrupt store: {detail}"),
            },
            StoreError::ContentHashMismatch { expected, found } => write!(
                f,
                "store content hash {found:016x} does not match expected {expected:016x}"
            ),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

fn corrupt(chunk: Option<usize>, detail: impl Into<String>) -> StoreError {
    StoreError::Corrupt {
        chunk,
        detail: detail.into(),
    }
}

/// The footer metadata of a store, borrowed from the relation being
/// spilled ([`SpillWriter::finish`]).
pub struct StoreFooter<'a> {
    pub name: &'a str,
    pub attr_names: &'a [String],
    pub chunk_tuples: usize,
    pub n_tuples: usize,
    pub content_hash: u64,
    pub dict: &'a ValueDict,
}

/// Parsed store metadata (everything but the blocks), read from the
/// footer by [`read_meta`].
#[derive(Clone, Debug)]
pub(crate) struct StoreMeta {
    pub name: String,
    pub attr_names: Vec<String>,
    pub chunk_tuples: usize,
    pub n_tuples: usize,
    pub content_hash: u64,
    pub dict: ValueDict,
    /// File offset one past the last block (= the footer offset).
    pub data_len: u64,
}

/// Streams dictionary-encoded chunks into a `.dbss` file. Create with
/// [`SpillWriter::create`], feed every chunk in order via
/// [`SpillWriter::write_chunk`], then seal the store with
/// [`SpillWriter::finish`] — the footer (schema, counts, dictionary,
/// content hash) is only known once the scan pass is done, which is why
/// it goes last.
///
/// The blocks go to a temporary sibling of the store path, which
/// `finish` renames over the path; a writer dropped unsealed (a failed
/// scan) removes it, so the path only ever holds a sealed store.
///
/// Holds a `spill.write` telemetry span for the lifetime of the writer
/// and bumps [`Counter::SpillChunksWritten`] per block.
pub struct SpillWriter {
    out: BufWriter<File>,
    /// The store's path.
    path: PathBuf,
    /// The temporary sibling written until the store is sealed; `None`
    /// once it has been renamed to `path`.
    tmp: Option<PathBuf>,
    block: Vec<u8>,
    chunks_written: usize,
    rows_written: usize,
    bytes_written: u64,
    _span: dbmine_telemetry::Span,
}

impl SpillWriter {
    /// Starts a store at `path`: creates its temporary sibling and
    /// writes the leading magic. `path` itself is not touched until
    /// [`Self::finish`].
    pub fn create(path: impl AsRef<Path>) -> Result<SpillWriter, StoreError> {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let _span = dbmine_telemetry::span("spill.write");
        let path = path.as_ref().to_path_buf();
        let mut tmp_name = std::ffi::OsString::from(".");
        tmp_name.push(path.file_name().unwrap_or_default());
        tmp_name.push(format!(
            ".{}.{}.tmp",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let tmp = path.with_file_name(tmp_name);
        let file = File::create(&tmp)?;
        let mut writer = SpillWriter {
            out: BufWriter::new(file),
            path,
            tmp: Some(tmp),
            block: Vec::new(),
            chunks_written: 0,
            rows_written: 0,
            bytes_written: PRELUDE_LEN,
            _span,
        };
        writer.out.write_all(&MAGIC)?;
        writer.out.write_all(&VERSION.to_le_bytes())?;
        Ok(writer)
    }

    /// Chunks written so far.
    pub fn n_chunks(&self) -> usize {
        self.chunks_written
    }

    /// Appends one chunk as a checksummed column-major block. Chunks
    /// must arrive in order: `chunk.start` has to equal the rows written
    /// so far.
    pub fn write_chunk(&mut self, chunk: &RelationChunk<'_>) -> Result<(), StoreError> {
        assert_eq!(
            chunk.start, self.rows_written,
            "chunks must be spilled in order without gaps"
        );
        let rows = chunk.n_rows();
        self.block.clear();
        self.block
            .extend_from_slice(&(self.chunks_written as u64).to_le_bytes());
        self.block.extend_from_slice(&(rows as u64).to_le_bytes());
        for column in &chunk.columns {
            debug_assert_eq!(column.len(), rows);
            for &id in column.iter() {
                self.block.extend_from_slice(&id.to_le_bytes());
            }
        }
        let check = fnv1a(FNV_OFFSET, &self.block);
        self.block.extend_from_slice(&check.to_le_bytes());
        self.out.write_all(&self.block)?;
        self.bytes_written += self.block.len() as u64;
        self.chunks_written += 1;
        self.rows_written += rows;
        counter_add(Counter::SpillChunksWritten, 1);
        Ok(())
    }

    /// Writes the footer + trailer, flushes, and renames the finished
    /// file over the store path. Returns the total store size in bytes.
    /// The declared tuple count must match the rows actually spilled.
    pub fn finish(mut self, footer: &StoreFooter<'_>) -> Result<u64, StoreError> {
        assert_eq!(
            footer.n_tuples, self.rows_written,
            "footer tuple count must match the spilled rows"
        );
        let footer_offset = self.bytes_written;
        let mut buf: Vec<u8> = Vec::with_capacity(256);
        buf.extend_from_slice(&(self.chunks_written as u64).to_le_bytes());
        buf.extend_from_slice(&(footer.n_tuples as u64).to_le_bytes());
        buf.extend_from_slice(&(footer.chunk_tuples as u64).to_le_bytes());
        buf.extend_from_slice(&footer.content_hash.to_le_bytes());
        write_str(&mut buf, footer.name);
        buf.extend_from_slice(&(footer.attr_names.len() as u64).to_le_bytes());
        for attr in footer.attr_names {
            write_str(&mut buf, attr);
        }
        let dict_len = footer.dict.len();
        buf.extend_from_slice(&(dict_len as u64).to_le_bytes());
        for id in 1..dict_len {
            write_str(&mut buf, footer.dict.string(id as ValueId));
        }
        let check = fnv1a(FNV_OFFSET, &buf);
        buf.extend_from_slice(&check.to_le_bytes());
        buf.extend_from_slice(&footer_offset.to_le_bytes());
        buf.extend_from_slice(&TRAILER_MAGIC);
        self.out.write_all(&buf)?;
        self.out.flush()?;
        let tmp = self.tmp.as_ref().expect("an unsealed writer has its file");
        std::fs::rename(tmp, &self.path)?;
        self.tmp = None;
        Ok(footer_offset + buf.len() as u64)
    }
}

impl Drop for SpillWriter {
    /// Removes the temporary file of a store that was never sealed.
    fn drop(&mut self) {
        if let Some(tmp) = &self.tmp {
            let _ = std::fs::remove_file(tmp);
        }
    }
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&(s.len() as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
}

/// A little cursor over the footer bytes; every read is bounds-checked
/// into a typed corruption error.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn u64(&mut self, what: &str) -> Result<u64, StoreError> {
        let end = self.pos + 8;
        if end > self.buf.len() {
            return Err(corrupt(None, format!("footer truncated reading {what}")));
        }
        let v = u64::from_le_bytes(self.buf[self.pos..end].try_into().unwrap());
        self.pos = end;
        Ok(v)
    }

    fn str(&mut self, what: &str) -> Result<String, StoreError> {
        let end = self.pos + 4;
        if end > self.buf.len() {
            return Err(corrupt(None, format!("footer truncated reading {what}")));
        }
        let len = u32::from_le_bytes(self.buf[self.pos..end].try_into().unwrap()) as usize;
        self.pos = end;
        let end = self.pos + len;
        if end > self.buf.len() {
            return Err(corrupt(None, format!("footer truncated reading {what}")));
        }
        let s = std::str::from_utf8(&self.buf[self.pos..end])
            .map_err(|_| corrupt(None, format!("{what} is not valid UTF-8")))?
            .to_string();
        self.pos = end;
        Ok(s)
    }
}

/// Reads and validates the store metadata (magic, version, trailer,
/// footer checksum, counts, dictionary) without touching any block.
pub(crate) fn read_meta(path: &Path) -> Result<StoreMeta, StoreError> {
    let mut file = File::open(path)?;
    let file_len = file.metadata()?.len();
    // Smallest possible store: prelude (8) + footer + trailer (16).
    if file_len < PRELUDE_LEN + 16 {
        return Err(StoreError::NotAStore {
            detail: format!("file is only {file_len} bytes"),
        });
    }
    let mut prelude = [0u8; PRELUDE_LEN as usize];
    file.read_exact(&mut prelude)?;
    if prelude[..4] != MAGIC {
        return Err(StoreError::NotAStore {
            detail: "bad leading magic".to_string(),
        });
    }
    let version = u32::from_le_bytes(prelude[4..8].try_into().unwrap());
    if version != VERSION {
        return Err(StoreError::UnsupportedVersion { found: version });
    }
    file.seek(SeekFrom::End(-16))?;
    let mut trailer = [0u8; 16];
    file.read_exact(&mut trailer)?;
    if trailer[8..] != TRAILER_MAGIC {
        return Err(corrupt(
            None,
            "bad trailer magic (file truncated or not sealed)",
        ));
    }
    let footer_offset = u64::from_le_bytes(trailer[..8].try_into().unwrap());
    if footer_offset < PRELUDE_LEN || footer_offset + 16 + 8 > file_len {
        return Err(corrupt(
            None,
            format!("footer offset {footer_offset} out of bounds for {file_len}-byte file"),
        ));
    }
    let footer_len = (file_len - 16 - footer_offset) as usize;
    file.seek(SeekFrom::Start(footer_offset))?;
    let mut footer = vec![0u8; footer_len];
    file.read_exact(&mut footer)?;
    let (body, check) = footer.split_at(footer_len - 8);
    if fnv1a(FNV_OFFSET, body) != u64::from_le_bytes(check.try_into().unwrap()) {
        return Err(corrupt(None, "footer checksum mismatch"));
    }

    let mut cur = Cursor { buf: body, pos: 0 };
    let n_chunks = cur.u64("chunk count")? as usize;
    let n_tuples = cur.u64("tuple count")? as usize;
    let chunk_tuples = cur.u64("chunk size")? as usize;
    let content_hash = cur.u64("content hash")?;
    let name = cur.str("relation name")?;
    let m = cur.u64("attribute count")? as usize;
    if m == 0 {
        return Err(corrupt(None, "footer declares no attributes"));
    }
    if m > crate::attrset::MAX_ATTRS {
        return Err(corrupt(
            None,
            format!(
                "{m} attributes exceeds the {} supported",
                crate::attrset::MAX_ATTRS
            ),
        ));
    }
    let mut attr_names = Vec::with_capacity(m);
    for i in 0..m {
        attr_names.push(cur.str(&format!("attribute name {i}"))?);
    }
    if let Some((first, second)) = crate::csv::repeated_name(&attr_names) {
        return Err(corrupt(
            None,
            format!(
                "footer repeats attribute name `{}` (attributes {first} and {second})",
                attr_names[second]
            ),
        ));
    }
    let dict_len = cur.u64("dictionary length")? as usize;
    if dict_len == 0 {
        return Err(corrupt(None, "dictionary must hold at least NULL"));
    }
    let mut dict = ValueDict::new();
    for id in 1..dict_len {
        let s = cur.str(&format!("dictionary entry {id}"))?;
        if dict.intern(&s) as usize != id {
            return Err(corrupt(
                None,
                format!("dictionary entry {id} ({s:?}) duplicates an earlier entry"),
            ));
        }
    }
    if cur.pos != body.len() {
        return Err(corrupt(
            None,
            format!("{} unexpected trailing footer bytes", body.len() - cur.pos),
        ));
    }
    if chunk_tuples == 0 {
        return Err(corrupt(None, "chunk size must be positive"));
    }
    if n_chunks != n_tuples.div_ceil(chunk_tuples) {
        return Err(corrupt(
            None,
            format!(
                "{n_chunks} chunks inconsistent with {n_tuples} tuples at {chunk_tuples}/chunk"
            ),
        ));
    }
    Ok(StoreMeta {
        name,
        attr_names,
        chunk_tuples,
        n_tuples,
        content_hash,
        dict,
        data_len: footer_offset,
    })
}

/// Iterator decoding [`RelationChunk`]s straight out of a
/// [`ShardedRelation`]'s store — a buffered sequential read with per-block
/// checksum, index, row-count and value-range validation, zero
/// tokenization and zero dictionary hashing.
///
/// Each block's read and decode runs under its own `spill.read`
/// telemetry span, so the work a consumer does between reads is not
/// charged to the store; bumps [`Counter::SpillChunksRead`] per block.
pub struct StoreChunks<'a> {
    sharded: &'a ShardedRelation,
    reader: BufReader<File>,
    pos: u64,
    next_chunk: usize,
    block: Vec<u8>,
    failed: bool,
}

impl<'a> StoreChunks<'a> {
    /// Opens a chunk pass over the store `sharded` was opened from.
    pub(crate) fn open(sharded: &'a ShardedRelation) -> Result<Self, StoreError> {
        let mut file = File::open(sharded.path())?;
        let mut prelude = [0u8; PRELUDE_LEN as usize];
        file.read_exact(&mut prelude)?;
        if prelude[..4] != MAGIC {
            return Err(StoreError::NotAStore {
                detail: "bad leading magic".to_string(),
            });
        }
        let version = u32::from_le_bytes(prelude[4..8].try_into().unwrap());
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion { found: version });
        }
        Ok(StoreChunks {
            sharded,
            reader: BufReader::with_capacity(1 << 20, file),
            pos: PRELUDE_LEN,
            next_chunk: 0,
            block: Vec::new(),
            failed: false,
        })
    }

    fn next_block(&mut self) -> Result<Option<RelationChunk<'static>>, StoreError> {
        let n = self.sharded.n_tuples();
        let m = self.sharded.n_attrs();
        let chunk_tuples = self.sharded.chunk_tuples();
        let n_chunks = n.div_ceil(chunk_tuples);
        let i = self.next_chunk;
        if i >= n_chunks {
            if self.pos != self.sharded.data_len() {
                return Err(corrupt(
                    None,
                    format!(
                        "{} unexpected bytes after the last block",
                        self.sharded.data_len() - self.pos
                    ),
                ));
            }
            return Ok(None);
        }
        let _span = dbmine_telemetry::span("spill.read");
        let start = i * chunk_tuples;
        let rows = chunk_tuples.min(n - start);
        let payload_len = 16 + m * rows * 4;
        let block_len = payload_len + 8;
        if self.pos + block_len as u64 > self.sharded.data_len() {
            return Err(corrupt(
                Some(i),
                format!(
                    "block truncated: need {block_len} bytes, {} remain before the footer",
                    self.sharded.data_len() - self.pos
                ),
            ));
        }
        self.block.resize(block_len, 0);
        self.reader.read_exact(&mut self.block).map_err(|e| {
            if e.kind() == std::io::ErrorKind::UnexpectedEof {
                corrupt(Some(i), "block truncated mid-read")
            } else {
                StoreError::Io(e)
            }
        })?;
        self.pos += block_len as u64;
        let (payload, check) = self.block.split_at(payload_len);
        if fnv1a(FNV_OFFSET, payload) != u64::from_le_bytes(check.try_into().unwrap()) {
            return Err(corrupt(Some(i), "block checksum mismatch"));
        }
        let stored_index = u64::from_le_bytes(payload[..8].try_into().unwrap());
        if stored_index != i as u64 {
            return Err(corrupt(
                Some(i),
                format!("block declares chunk index {stored_index}"),
            ));
        }
        let stored_rows = u64::from_le_bytes(payload[8..16].try_into().unwrap());
        if stored_rows != rows as u64 {
            return Err(corrupt(
                Some(i),
                format!("block declares {stored_rows} rows, expected {rows}"),
            ));
        }
        let dict_len = self.sharded.dict().len() as u32;
        let mut columns: Vec<Vec<ValueId>> = Vec::with_capacity(m);
        let mut cells = payload[16..].chunks_exact(4);
        for a in 0..m {
            let mut column = Vec::with_capacity(rows);
            for _ in 0..rows {
                let id = u32::from_le_bytes(cells.next().unwrap().try_into().unwrap());
                if id >= dict_len {
                    return Err(corrupt(
                        Some(i),
                        format!("value id {id} in attribute {a} exceeds dictionary ({dict_len})"),
                    ));
                }
                column.push(id);
            }
            columns.push(column);
        }
        self.next_chunk += 1;
        counter_add(Counter::SpillChunksRead, 1);
        Ok(Some(RelationChunk::owned(start, columns)))
    }
}

impl Iterator for StoreChunks<'_> {
    type Item = Result<RelationChunk<'static>, CsvError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        match self.next_block() {
            Ok(Some(chunk)) => Some(Ok(chunk)),
            Ok(None) => None,
            Err(e) => {
                self.failed = true;
                Some(Err(CsvError::from(e).in_file(self.sharded.path())))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A CSV with quoting, an embedded comma, an embedded newline, an
    /// empty-string value and NULLs — the cases whose encodings must
    /// survive the store round trip.
    const SAMPLE: &str = "A,B,C\n\
        a,w,p\n\
        a,w,\n\
        w,1,\"x,1\"\n\
        \"multi\nline\",\"\",x\n\
        z,2,x\n";

    static SEQ: AtomicU64 = AtomicU64::new(0);

    fn tmp_dir() -> PathBuf {
        let dir = std::env::temp_dir().join("dbmine_spill_unit");
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tmp(ext: &str) -> PathBuf {
        let id = SEQ.fetch_add(1, Ordering::Relaxed);
        tmp_dir().join(format!("{}_{id}.{ext}", std::process::id()))
    }

    /// Writes SAMPLE to a CSV file and spills it; returns both paths.
    fn sample_store(chunk_tuples: usize) -> (PathBuf, PathBuf) {
        let csv = tmp("csv");
        let store = tmp("dbss");
        std::fs::write(&csv, SAMPLE).unwrap();
        ShardedRelation::scan_csv_path_spill(&csv, chunk_tuples, &store).unwrap();
        (csv, store)
    }

    fn drain(rel: &ShardedRelation) -> Result<Vec<RelationChunk<'static>>, CsvError> {
        rel.chunks()?.collect()
    }

    #[test]
    fn store_chunks_are_bit_identical_to_csv_chunks() {
        for chunk_tuples in [1, 2, 3, 100] {
            let (csv, store) = sample_store(chunk_tuples);
            let rel = crate::csv::read_relation_path(&csv).unwrap();
            let stored = ShardedRelation::open_store(&store).unwrap();
            assert_eq!(stored.content_hash(), rel.content_hash());
            assert_eq!(stored.name(), rel.name());
            assert_eq!(stored.attr_names(), rel.attr_names());
            assert_eq!(stored.n_tuples(), rel.n_tuples());
            assert_eq!(stored.chunk_tuples(), chunk_tuples);
            assert_eq!(stored.dict().len(), rel.dict().len());
            for id in 0..rel.dict().len() {
                assert_eq!(
                    stored.dict().string(id as ValueId),
                    rel.dict().string(id as ValueId)
                );
            }
            // The CSV's columns, cut at the store's chunk boundaries.
            let chunks = drain(&stored).unwrap();
            assert_eq!(chunks.len(), rel.n_tuples().div_ceil(chunk_tuples));
            for (i, chunk) in chunks.iter().enumerate() {
                let start = i * chunk_tuples;
                let end = (start + chunk_tuples).min(rel.n_tuples());
                assert_eq!(chunk.start, start);
                for (a, col) in chunk.columns.iter().enumerate() {
                    assert_eq!(
                        &col[..],
                        &rel.column(a)[start..end],
                        "chunk_tuples={chunk_tuples}"
                    );
                }
            }
            stored.verify_content().unwrap();
            std::fs::remove_file(csv).ok();
            std::fs::remove_file(store).ok();
        }
    }

    #[test]
    fn empty_relation_round_trips() {
        let csv = tmp("csv");
        let store = tmp("dbss");
        std::fs::write(&csv, "A,B\n").unwrap();
        let s = ShardedRelation::scan_csv_path_spill(&csv, 4, &store).unwrap();
        assert_eq!(s.n_tuples(), 0);
        assert_eq!(drain(&s).unwrap().len(), 0);
        let reopened = ShardedRelation::open_store(&store).unwrap();
        assert_eq!(reopened.n_tuples(), 0);
        reopened.verify_content().unwrap();
        std::fs::remove_file(csv).ok();
        std::fs::remove_file(store).ok();
    }

    /// Every single-byte flip anywhere in the store must surface as a
    /// typed error somewhere in open → drain → verify — never a panic,
    /// never a silently different chunk stream.
    #[test]
    fn every_single_byte_flip_is_detected() {
        let (csv, store) = sample_store(2);
        let reference = {
            let s = ShardedRelation::open_store(&store).unwrap();
            drain(&s).unwrap()
        };
        let bytes = std::fs::read(&store).unwrap();
        let flipped_path = tmp("dbss");
        for offset in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[offset] ^= 0xff;
            std::fs::write(&flipped_path, &mutated).unwrap();
            let outcome = ShardedRelation::open_store(&flipped_path)
                .and_then(|s| drain(&s).map(|chunks| (s, chunks)))
                .and_then(|(s, chunks)| s.verify_content().map(|()| chunks));
            match outcome {
                Err(e) => {
                    // Typed and renderable, not a panic.
                    let _ = e.to_string();
                }
                Ok(chunks) => panic!(
                    "flip at byte {offset} went undetected (got {} chunks, wanted an error; \
                     reference has {})",
                    chunks.len(),
                    reference.len()
                ),
            }
        }
        std::fs::remove_file(csv).ok();
        std::fs::remove_file(store).ok();
        std::fs::remove_file(flipped_path).ok();
    }

    #[test]
    fn block_corruption_names_the_chunk() {
        let (csv, store) = sample_store(2);
        let mut bytes = std::fs::read(&store).unwrap();
        // Flip one byte inside the *second* block's payload. Blocks
        // start at PRELUDE_LEN; block 0 spans 16 + 3*2*4 + 8 = 48 bytes
        // (2 rows × 3 attrs), so offset PRELUDE_LEN + 48 + 16 + 1 is in
        // block 1's value area.
        let in_block1 = PRELUDE_LEN as usize + 48 + 17;
        bytes[in_block1] ^= 0xff;
        let bad = tmp("dbss");
        std::fs::write(&bad, &bytes).unwrap();
        let s = ShardedRelation::open_store(&bad).unwrap();
        let err = drain(&s).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("chunk 1") && msg.contains("checksum"),
            "error must name the damaged chunk: {msg}"
        );
        assert!(
            msg.contains(&bad.display().to_string()),
            "error must name the store file: {msg}"
        );
        std::fs::remove_file(csv).ok();
        std::fs::remove_file(store).ok();
        std::fs::remove_file(bad).ok();
    }

    #[test]
    fn truncation_mid_block_is_typed() {
        let (csv, store) = sample_store(2);
        let bytes = std::fs::read(&store).unwrap();
        // Cut inside block 0, well before the footer.
        let cut = tmp("dbss");
        std::fs::write(&cut, &bytes[..PRELUDE_LEN as usize + 20]).unwrap();
        let err = ShardedRelation::open_store(&cut).unwrap_err();
        let msg = err.to_string();
        assert!(
            msg.contains("trailer") || msg.contains("truncated"),
            "truncation must be typed: {msg}"
        );
        std::fs::remove_file(csv).ok();
        std::fs::remove_file(store).ok();
        std::fs::remove_file(cut).ok();
    }

    #[test]
    fn forged_content_hash_is_caught_by_verification() {
        // A store whose blocks and footer are internally consistent but
        // whose recorded hash describes different content: only the
        // end-to-end recomputation can catch it.
        let path = tmp("dbss");
        let mut dict = ValueDict::new();
        let x = dict.intern("x");
        let y = dict.intern("y");
        let chunk = RelationChunk::owned(0, vec![vec![x, x], vec![y, crate::dict::NULL_VALUE]]);
        let mut w = SpillWriter::create(&path).unwrap();
        w.write_chunk(&chunk).unwrap();
        w.finish(&StoreFooter {
            name: "t",
            attr_names: &["A".to_string(), "B".to_string()],
            chunk_tuples: 2,
            n_tuples: 2,
            content_hash: 0xDEAD_BEEF, // forged
            dict: &dict,
        })
        .unwrap();
        let s = ShardedRelation::open_store(&path).unwrap();
        assert_eq!(s.content_hash(), 0xDEAD_BEEF);
        drain(&s).unwrap(); // blocks themselves decode fine
        let err = s.verify_content().unwrap_err();
        assert!(
            err.to_string().contains("content hash"),
            "forged hash must be typed: {err}"
        );
        match err {
            CsvError::Store(StoreError::ContentHashMismatch { expected, .. }) => {
                assert_eq!(expected, 0xDEAD_BEEF);
            }
            other => panic!("wrong error variant: {other:?}"),
        }
        std::fs::remove_file(path).ok();
    }

    /// Seals a store of `columns` (one chunk, or none when there are no
    /// columns) under the footer schema `attrs`.
    fn store_with_schema(attrs: &[&str], columns: Vec<Vec<ValueId>>) -> PathBuf {
        let path = tmp("dbss");
        let n = columns.first().map_or(0, Vec::len);
        let mut w = SpillWriter::create(&path).unwrap();
        if !columns.is_empty() {
            w.write_chunk(&RelationChunk::owned(0, columns)).unwrap();
        }
        let attr_names: Vec<String> = attrs.iter().map(|a| a.to_string()).collect();
        let mut dict = ValueDict::new();
        dict.intern("x");
        w.finish(&StoreFooter {
            name: "t",
            attr_names: &attr_names,
            chunk_tuples: 2,
            n_tuples: n,
            content_hash: 0,
            dict: &dict,
        })
        .unwrap();
        path
    }

    #[test]
    fn footer_with_repeated_attribute_name_is_corrupt() {
        // The schema a CSV header `a,a` is refused for.
        let path = store_with_schema(&["a", "a"], vec![vec![1, 1], vec![1, 0]]);
        let err = ShardedRelation::open_store(&path).unwrap_err();
        // The caller named the store path; the error does not repeat it.
        assert!(
            matches!(
                &err,
                CsvError::Store(StoreError::Corrupt { chunk: None, .. })
            ),
            "{err:?}"
        );
        assert!(
            err.to_string()
                .contains("corrupt store: footer repeats attribute name `a` (attributes 0 and 1)"),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn footer_with_no_attributes_is_corrupt() {
        let path = store_with_schema(&[], vec![]);
        let err = ShardedRelation::open_store(&path).unwrap_err();
        assert!(
            err.to_string()
                .contains("corrupt store: footer declares no attributes"),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn non_store_files_are_rejected_with_not_a_store() {
        let path = tmp("dbss");
        std::fs::write(&path, "A,B\n1,2\n").unwrap();
        let err = ShardedRelation::open_store(&path).unwrap_err();
        assert!(
            err.to_string().contains("not a dbmine shard store"),
            "{err}"
        );
        std::fs::write(&path, "x").unwrap();
        let err = ShardedRelation::open_store(&path).unwrap_err();
        assert!(
            err.to_string().contains("not a dbmine shard store"),
            "{err}"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn future_versions_are_rejected_with_version_error() {
        let (csv, store) = sample_store(2);
        let mut bytes = std::fs::read(&store).unwrap();
        bytes[4..8].copy_from_slice(&2u32.to_le_bytes());
        let v2 = tmp("dbss");
        std::fs::write(&v2, &bytes).unwrap();
        let err = ShardedRelation::open_store(&v2).unwrap_err();
        assert!(
            err.to_string()
                .contains("unsupported shard store version 2"),
            "{err}"
        );
        std::fs::remove_file(csv).ok();
        std::fs::remove_file(store).ok();
        std::fs::remove_file(v2).ok();
    }
}
