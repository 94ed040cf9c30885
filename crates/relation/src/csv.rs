//! Minimal, dependency-free CSV reader/writer.
//!
//! Supports RFC-4180-style quoting (`"` field delimiters, `""` escapes,
//! embedded commas and newlines). Empty unquoted fields are read as NULL;
//! quoted empty fields (`""`) are read as the empty-string value, so NULLs
//! survive a round-trip.
//!
//! Input is UTF-8. A field whose bytes are not valid UTF-8 fails the read
//! with [`CsvError::InvalidUtf8`], naming the record's first line and the
//! field's column; no byte is ever re-encoded or dropped.
//!
//! Both readers — [`read_relation`] into memory and
//! [`crate::ShardedRelation::scan_csv_spill`] into a shard store — run
//! one streaming scan (`CsvScan`): the header and row rules
//! (`header_names`, `keep_row`) decide the schema and the rows, and
//! cells intern row-major into one dictionary, so both readers assign
//! the same ids to the same bytes. The parse state survives every
//! refill of the read window: a record of L bytes costs O(L) work
//! however the reader splits it, and the scan holds one window, the
//! current record and the current chunk, never the whole input.

use crate::dict::ValueDict;
use crate::relation::Relation;
use crate::shard::RelationChunk;
use crate::spill::StoreError;
use std::fmt;
use std::io::{ErrorKind, Read, Write};
use std::path::{Path, PathBuf};

/// Errors produced by the CSV reader.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record had a different number of fields than the header. `line`
    /// is the record's first line.
    RaggedRow {
        line: usize,
        expected: usize,
        got: usize,
    },
    /// The input was empty (no header).
    Empty,
    /// A quoted field was never closed. `line` is the record's first
    /// line.
    UnterminatedQuote { line: usize },
    /// A field is not valid UTF-8. `line` is the record's first line;
    /// columns are numbered from 0.
    InvalidUtf8 { line: usize, column: usize },
    /// The header has more columns than [`crate::attrset::MAX_ATTRS`]
    /// (attribute sets are 64-bit masks).
    TooManyAttrs { got: usize, max: usize },
    /// Two header columns resolve to the same attribute name (after
    /// `col{i}` fallback names are assigned to empty header cells).
    /// Columns are numbered from 0.
    DuplicateAttr {
        name: String,
        first: usize,
        second: usize,
    },
    /// Error reading a binary columnar shard store ([`crate::spill`]).
    Store(StoreError),
    /// An error in a file other than the one a call reads: the store a
    /// spill writes, or the store a chunk pass decodes. A call that
    /// reads a path returns its errors about it bare, so the caller
    /// names that path exactly once. The `Display` output is `path: …`,
    /// with the chunk, where known, on the wrapped error.
    InFile {
        path: PathBuf,
        source: Box<CsvError>,
    },
}

impl CsvError {
    /// Wraps `self` with the file it came from. Already-wrapped errors
    /// keep their original (innermost-pass) path.
    pub fn in_file(self, path: impl Into<PathBuf>) -> CsvError {
        match self {
            CsvError::InFile { .. } => self,
            other => CsvError::InFile {
                path: path.into(),
                source: Box::new(other),
            },
        }
    }
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::RaggedRow {
                line,
                expected,
                got,
            } => write!(f, "line {line}: expected {expected} fields, got {got}"),
            CsvError::Empty => write!(f, "empty CSV input (missing header)"),
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
            CsvError::InvalidUtf8 { line, column } => {
                write!(f, "line {line}: column {column} is not valid UTF-8")
            }
            CsvError::TooManyAttrs { got, max } => {
                write!(f, "header has {got} columns; at most {max} supported")
            }
            CsvError::DuplicateAttr {
                name,
                first,
                second,
            } => write!(
                f,
                "header repeats attribute name `{name}` (columns {first} and {second})"
            ),
            CsvError::Store(e) => write!(f, "shard store: {e}"),
            CsvError::InFile { path, source } => write!(f, "{}: {source}", path.display()),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Store(e) => Some(e),
            CsvError::InFile { source, .. } => Some(source.as_ref()),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl From<StoreError> for CsvError {
    fn from(e: StoreError) -> Self {
        CsvError::Store(e)
    }
}

/// Size of the scan's read window, in bytes.
const READ_BLOCK: usize = 64 * 1024;

/// Where the parser stands in the current field.
#[derive(Clone, Copy, PartialEq, Eq)]
enum State {
    /// No byte of the field yet: a `"` opens quotes, and a field that
    /// ends here is NULL.
    Start,
    /// Inside an unquoted field, or after the quotes closed.
    Unquoted,
    /// Inside quotes.
    Quoted,
    /// A `"` inside quotes: a second `"` is an escaped quote, anything
    /// else closes the quotes.
    QuotedQuote,
    /// A `\r` outside quotes, in a field that had not begun (`true`) or
    /// had: `\r\n` ends the record, anything else keeps the `\r` as data.
    Cr(bool),
}

/// The one CSV ingest: reads the header, then yields the rows as
/// interned chunks of `chunk_tuples` rows each (the rest last).
/// [`read_relation`] takes one unbounded chunk;
/// [`crate::ShardedRelation::scan_csv_spill`] spills every chunk as it
/// comes. Cells intern row-major, so every id in a chunk is final when
/// the chunk is yielded.
///
/// The input streams through one fixed read window, and the parse state
/// survives every refill: a record of L bytes costs O(L) work however
/// the reader splits it, and memory is the window, the longest record
/// and one chunk, never the input.
pub(crate) struct CsvScan<R: Read> {
    reader: R,
    window: Vec<u8>,
    pos: usize,
    filled: usize,
    /// The line the next unread byte is on, 1-based.
    line: usize,
    state: State,
    /// The current record's field bytes, concatenated.
    bytes: Vec<u8>,
    /// The current record's fields: end offset in `bytes`, and whether
    /// the field is NULL.
    fields: Vec<(usize, bool)>,
    attr_names: Vec<String>,
    dict: ValueDict,
    chunk_tuples: usize,
    n: usize,
}

impl<R: Read> CsvScan<R> {
    /// Starts a scan: reads and checks the header.
    pub(crate) fn new(reader: R, chunk_tuples: usize) -> Result<Self, CsvError> {
        let mut scan = CsvScan {
            reader,
            window: vec![0; READ_BLOCK],
            pos: 0,
            filled: 0,
            line: 1,
            state: State::Start,
            bytes: Vec::new(),
            fields: Vec::new(),
            attr_names: Vec::new(),
            dict: ValueDict::new(),
            chunk_tuples,
            n: 0,
        };
        let line = scan.next_record()?.ok_or(CsvError::Empty)?;
        scan.attr_names = header_names(cells(&scan.bytes, &scan.fields, line))?;
        Ok(scan)
    }

    /// Attribute names, in schema order.
    pub(crate) fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// The dictionary of every row yielded so far.
    pub(crate) fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// The next chunk, or `None` once every row was yielded.
    pub(crate) fn next_chunk(&mut self) -> Result<Option<RelationChunk<'static>>, CsvError> {
        let m = self.attr_names.len();
        let mut columns: Vec<Vec<_>> = vec![Vec::new(); m];
        let mut rows = 0;
        while rows < self.chunk_tuples {
            let Some(line) = self.next_record()? else {
                break;
            };
            if !keep_row(&self.fields, m, line)? {
                continue;
            }
            for (column, cell) in columns
                .iter_mut()
                .zip(cells(&self.bytes, &self.fields, line))
            {
                column.push(self.dict.intern_cell(cell?));
            }
            rows += 1;
        }
        let start = self.n;
        self.n += rows;
        Ok((rows > 0).then(|| RelationChunk::owned(start, columns)))
    }

    /// Ends the scan: the schema, the dictionary and the row count.
    pub(crate) fn finish(self) -> (Vec<String>, ValueDict, usize) {
        (self.attr_names, self.dict, self.n)
    }

    /// Parses the next record into `bytes` and `fields`. Returns its
    /// first line, or `None` at end of input.
    fn next_record(&mut self) -> Result<Option<usize>, CsvError> {
        self.bytes.clear();
        self.fields.clear();
        self.state = State::Start;
        let line = self.line;
        while self.pos < self.filled || self.refill()? {
            let b = self.window[self.pos];
            self.pos += 1;
            if self.push(b) {
                return Ok(Some(line));
            }
        }
        // End of input ends the record, if one began.
        let null = match self.state {
            State::Start if self.bytes.is_empty() && self.fields.is_empty() => return Ok(None),
            State::Quoted => return Err(CsvError::UnterminatedQuote { line }),
            State::Cr(_) => {
                self.bytes.push(b'\r');
                false
            }
            state => state == State::Start,
        };
        self.fields.push((self.bytes.len(), null));
        Ok(Some(line))
    }

    /// Reads the next block into the window; false at end of input.
    fn refill(&mut self) -> Result<bool, CsvError> {
        loop {
            match self.reader.read(&mut self.window) {
                Ok(got) => {
                    (self.pos, self.filled) = (0, got);
                    return Ok(got > 0);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// Feeds one byte to the parser; true when it ends the record.
    fn push(&mut self, b: u8) -> bool {
        match (self.state, b) {
            (State::Quoted, b'"') => self.state = State::QuotedQuote,
            (State::Quoted, _) => {
                self.bytes.push(b);
                self.line += (b == b'\n') as usize;
            }
            (State::QuotedQuote, b'"') => {
                self.bytes.push(b'"');
                self.state = State::Quoted;
            }
            (State::QuotedQuote, _) => {
                self.state = State::Unquoted;
                return self.push(b);
            }
            (State::Cr(null), b'\n') => {
                self.fields.push((self.bytes.len(), null));
                self.line += 1;
                return true;
            }
            (State::Cr(_), _) => {
                self.bytes.push(b'\r');
                self.state = State::Unquoted;
                return self.push(b);
            }
            (State::Start, b'"') => self.state = State::Quoted,
            (state, b',') => {
                self.fields.push((self.bytes.len(), state == State::Start));
                self.state = State::Start;
            }
            (state, b'\n') => {
                self.fields.push((self.bytes.len(), state == State::Start));
                self.line += 1;
                return true;
            }
            (state, b'\r') => self.state = State::Cr(state == State::Start),
            _ => {
                self.bytes.push(b);
                self.state = State::Unquoted;
            }
        }
        false
    }
}

/// A parsed record's fields in order, each decoded as UTF-8; `None` is
/// NULL. A field that is not UTF-8 is [`CsvError::InvalidUtf8`].
fn cells<'a>(
    bytes: &'a [u8],
    fields: &'a [(usize, bool)],
    line: usize,
) -> impl Iterator<Item = Result<Option<&'a str>, CsvError>> + 'a {
    let starts = std::iter::once(0).chain(fields.iter().map(|&(end, _)| end));
    starts
        .zip(fields)
        .enumerate()
        .map(move |(column, (start, &(end, null)))| {
            let field = std::str::from_utf8(&bytes[start..end])
                .map_err(|_| CsvError::InvalidUtf8 { line, column })?;
            Ok((!null).then_some(field))
        })
}

/// The header rule: resolves the header's cells into attribute names
/// (`col{i}` fallback for NULL header cells) and rejects too-wide
/// schemas and repeated names (a repeated name would make its FDs print
/// as `a → a`).
fn header_names<'a>(
    header: impl Iterator<Item = Result<Option<&'a str>, CsvError>>,
) -> Result<Vec<String>, CsvError> {
    let names = header
        .enumerate()
        .map(|(i, f)| Ok(f?.map_or_else(|| format!("col{i}"), str::to_string)))
        .collect::<Result<Vec<String>, CsvError>>()?;
    if names.len() > crate::attrset::MAX_ATTRS {
        // Attribute sets are 64-bit masks; a CSV reader must fail typed
        // (the daemon's request path feeds it untrusted input).
        return Err(CsvError::TooManyAttrs {
            got: names.len(),
            max: crate::attrset::MAX_ATTRS,
        });
    }
    if let Some((first, second)) = repeated_name(&names) {
        return Err(CsvError::DuplicateAttr {
            name: names[second].clone(),
            first,
            second,
        });
    }
    Ok(names)
}

/// The first attribute name that repeats in `names`, as the positions
/// of its first and second occurrence. The one schema rule both readers
/// enforce: a CSV header refuses it as [`CsvError::DuplicateAttr`], a
/// `.dbss` footer ([`crate::spill`]) as a corrupt store.
pub(crate) fn repeated_name(names: &[String]) -> Option<(usize, usize)> {
    let mut first_of: std::collections::HashMap<&str, usize> = Default::default();
    for (second, name) in names.iter().enumerate() {
        if let Some(&first) = first_of.get(name.as_str()) {
            return Some((first, second));
        }
        first_of.insert(name, second);
    }
    None
}

/// The row rule: false for a skippable blank line, true for a record of
/// the schema's width, an error naming the record's first line for a
/// ragged one.
fn keep_row(fields: &[(usize, bool)], expected: usize, line: usize) -> Result<bool, CsvError> {
    // A blank line parses as one NULL field. For multi-column schemas
    // it is decoration and skipped; for single-column schemas it IS a
    // valid record (a NULL cell), so it must round-trip.
    if expected > 1 && fields == [(0, true)] {
        return Ok(false);
    }
    if fields.len() != expected {
        return Err(CsvError::RaggedRow {
            line,
            expected,
            got: fields.len(),
        });
    }
    Ok(true)
}

/// Reads a relation from CSV text. The first record is the header.
pub fn read_relation(reader: impl Read, name: &str) -> Result<Relation, CsvError> {
    let mut scan = CsvScan::new(reader, usize::MAX)?;
    let whole = scan.next_chunk()?;
    let (attr_names, dict, n) = scan.finish();
    Relation::from_chunks(name, attr_names, dict, n, whole.map(Ok))
}

/// Reads a relation from a CSV file; the file stem becomes the name.
/// Errors do not repeat the path: the caller names it.
pub fn read_relation_path(path: impl AsRef<Path>) -> Result<Relation, CsvError> {
    let path = path.as_ref();
    let name = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("relation")
        .to_string();
    let file = std::fs::File::open(path)?;
    read_relation(file, &name)
}

/// True if a field must be quoted when written.
fn needs_quoting(s: &str) -> bool {
    s.is_empty() || s.contains(',') || s.contains('"') || s.contains('\n') || s.contains('\r')
}

fn write_field(w: &mut impl Write, s: &str) -> std::io::Result<()> {
    if needs_quoting(s) {
        write!(w, "\"{}\"", s.replace('"', "\"\""))
    } else {
        w.write_all(s.as_bytes())
    }
}

/// Writes one header record. Round-trips through [`read_relation`].
pub fn write_header(w: &mut impl Write, names: &[impl AsRef<str>]) -> std::io::Result<()> {
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write_field(w, name.as_ref())?;
    }
    w.write_all(b"\n")
}

/// Writes one data record: NULL cells (`None`) as empty unquoted fields,
/// values quoted as needed. Round-trips through [`read_relation`], so a
/// generator can stream arbitrarily many rows to disk without ever
/// materializing a [`Relation`].
pub fn write_record(w: &mut impl Write, cells: &[Option<&str>]) -> std::io::Result<()> {
    for (i, cell) in cells.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        if let Some(s) = cell {
            write_field(w, s)?;
        }
    }
    w.write_all(b"\n")
}

/// Writes a relation as CSV (header + rows). NULL cells are written as
/// empty unquoted fields so they round-trip through [`read_relation`].
pub fn write_relation(rel: &Relation, w: &mut impl Write) -> std::io::Result<()> {
    write_header(w, rel.attr_names())?;
    let mut row: Vec<Option<&str>> = Vec::with_capacity(rel.n_attrs());
    for t in 0..rel.n_tuples() {
        row.clear();
        row.extend((0..rel.n_attrs()).map(|a| (!rel.is_null(t, a)).then(|| rel.value_str(t, a))));
        write_record(w, &row)?;
    }
    Ok(())
}

/// Writes a relation to a CSV file.
pub fn write_relation_path(rel: &Relation, path: impl AsRef<Path>) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_relation(rel, &mut w)?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RelationBuilder;

    fn parse(s: &str) -> Relation {
        read_relation(s.as_bytes(), "t").unwrap()
    }

    #[test]
    fn simple_csv() {
        let r = parse("A,B\n1,2\n3,4\n");
        assert_eq!(r.n_tuples(), 2);
        assert_eq!(r.attr_names(), &["A".to_string(), "B".to_string()]);
        assert_eq!(r.value_str(1, 1), "4");
    }

    #[test]
    fn missing_trailing_newline() {
        let r = parse("A,B\n1,2");
        assert_eq!(r.n_tuples(), 1);
        assert_eq!(r.value_str(0, 1), "2");
    }

    #[test]
    fn quoted_fields_with_commas_and_newlines() {
        let r = parse("A,B\n\"x,y\",\"line1\nline2\"\n");
        assert_eq!(r.value_str(0, 0), "x,y");
        assert_eq!(r.value_str(0, 1), "line1\nline2");
    }

    #[test]
    fn escaped_quotes() {
        let r = parse("A\n\"say \"\"hi\"\"\"\n");
        assert_eq!(r.value_str(0, 0), "say \"hi\"");
    }

    #[test]
    fn empty_field_is_null_but_quoted_empty_is_value() {
        let r = parse("A,B\n,\"\"\n");
        assert!(r.is_null(0, 0));
        assert!(!r.is_null(0, 1));
        assert_eq!(r.value_str(0, 1), "");
    }

    #[test]
    fn crlf_line_endings() {
        let r = parse("A,B\r\n1,2\r\n");
        assert_eq!(r.n_tuples(), 1);
        assert_eq!(r.value_str(0, 0), "1");
    }

    #[test]
    fn blank_lines_skipped_for_multi_column() {
        let r = parse("A,B\nx,y\n\np,q\n");
        assert_eq!(r.n_tuples(), 2);
    }

    #[test]
    fn single_column_blank_line_is_null_record() {
        let r = parse("A\nx\n\ny\n");
        assert_eq!(r.n_tuples(), 3);
        assert!(r.is_null(1, 0));
    }

    #[test]
    fn ragged_row_is_error() {
        let e = read_relation("A,B\n1\n".as_bytes(), "t").unwrap_err();
        assert!(matches!(
            e,
            CsvError::RaggedRow {
                line: 2,
                expected: 2,
                got: 1,
            }
        ));
        // The record's first line, whatever follows it: a final newline,
        // none, or a quoted field spanning two lines.
        for csv in ["A,B\nx,y,z\n", "A,B\nx,y,z", "A,B\n\"x\ny\",y,z\n"] {
            let e = read_relation(csv.as_bytes(), "t").unwrap_err();
            assert!(
                matches!(
                    e,
                    CsvError::RaggedRow {
                        line: 2,
                        got: 3,
                        ..
                    }
                ),
                "{csv:?}: {e:?}"
            );
        }
    }

    /// A reader that returns at most `step` bytes per `read`.
    struct Drip<'a> {
        data: &'a [u8],
        step: usize,
    }

    impl Read for Drip<'_> {
        fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
            let take = self.step.min(out.len()).min(self.data.len());
            out[..take].copy_from_slice(&self.data[..take]);
            self.data = &self.data[take..];
            Ok(take)
        }
    }

    #[test]
    fn fields_decode_as_utf8() {
        let csv = "Name,City\ncafé,日本\n\"thé, 🦀\",\"\"\"日\"\"\"\n";
        for step in [1, 2, 3, 64] {
            let r = read_relation(
                Drip {
                    data: csv.as_bytes(),
                    step,
                },
                "t",
            )
            .unwrap();
            assert_eq!(r.value_str(0, 0), "café");
            assert_eq!(r.value_str(0, 1), "日本");
            assert_eq!(r.value_str(1, 0), "thé, 🦀");
            assert_eq!(r.value_str(1, 1), "\"日\"");
        }
    }

    #[test]
    fn invalid_utf8_is_a_typed_error_naming_its_line() {
        let cases: [(&[u8], usize, usize); 5] = [
            // A Latin-1 byte in a data row.
            (b"A,B\nx,y\ncaf\xe9,z\n", 3, 0),
            // In a quoted multi-line field: the record's first line.
            (b"A,B\nx,\"a\nb\xff\"\n", 2, 1),
            // A character cut by a comma is invalid in both fields.
            (b"A,B\n\xc3,\xa9\n", 2, 0),
            // A truncated character at end of input.
            (b"A,B\nx,\xe6\x97", 2, 1),
            // The header too.
            (b"A,\xfe\nx,y\n", 1, 1),
        ];
        for (csv, line, column) in cases {
            for step in [1, 3, 4096] {
                let e = read_relation(Drip { data: csv, step }, "t").unwrap_err();
                assert!(
                    matches!(e, CsvError::InvalidUtf8 { line: l, column: c } if (l, c) == (line, column)),
                    "{csv:?} step={step}: {e:?}"
                );
                assert!(e.to_string().starts_with(&format!("line {line}: ")), "{e}");
            }
        }
    }

    #[test]
    fn megabyte_field_read_one_byte_at_a_time() {
        // Parse work is linear in the record: a 1 MiB quoted field fed
        // one byte per `read` parses each byte once.
        let big = "é\"\"x".repeat(1 << 18);
        let csv = format!("A,B\n\"{big}\",y\n");
        let r = read_relation(
            Drip {
                data: csv.as_bytes(),
                step: 1,
            },
            "t",
        )
        .unwrap();
        assert_eq!(r.value_str(0, 0), big.replace("\"\"", "\""));
        assert_eq!(r.value_str(0, 1), "y");
    }

    #[test]
    fn empty_input_is_error() {
        assert!(matches!(
            read_relation("".as_bytes(), "t"),
            Err(CsvError::Empty)
        ));
    }

    #[test]
    fn unterminated_quote_is_error() {
        assert!(matches!(
            read_relation("A\n\"oops\n".as_bytes(), "t"),
            Err(CsvError::UnterminatedQuote { .. })
        ));
    }

    #[test]
    fn too_many_columns_is_error_not_panic() {
        let header: Vec<String> = (0..65).map(|i| format!("c{i}")).collect();
        let csv = format!("{}\n", header.join(","));
        let e = read_relation(csv.as_bytes(), "wide").unwrap_err();
        assert!(matches!(e, CsvError::TooManyAttrs { got: 65, max: 64 }));
    }

    #[test]
    fn duplicate_header_name_is_error() {
        let e = read_relation("a,b,a\n1,2,3\n".as_bytes(), "dup").unwrap_err();
        assert!(
            matches!(&e, CsvError::DuplicateAttr { name, first: 0, second: 2 } if name == "a"),
            "{e:?}"
        );
        assert!(e.to_string().contains("`a`"), "{e}");
        // Fallback names count: an empty third cell resolves to `col2`.
        let e = read_relation("col2,b,\n1,2,3\n".as_bytes(), "dup").unwrap_err();
        assert!(matches!(
            e,
            CsvError::DuplicateAttr {
                first: 0,
                second: 2,
                ..
            }
        ));
    }

    #[test]
    fn exactly_max_columns_is_fine() {
        let header: Vec<String> = (0..64).map(|i| format!("c{i}")).collect();
        let csv = format!("{}\n", header.join(","));
        let r = read_relation(csv.as_bytes(), "wide").unwrap();
        assert_eq!(r.n_attrs(), 64);
    }

    #[test]
    fn roundtrip_preserves_nulls_and_quotes() {
        let mut b = RelationBuilder::new("t", &["X", "Y"]);
        b.push_row(&[Some("a,b"), None]);
        b.push_row(&[Some("q\"q"), Some("plain")]);
        let rel = b.build();
        let mut out = Vec::new();
        write_relation(&rel, &mut out).unwrap();
        let back = read_relation(out.as_slice(), "t").unwrap();
        assert_eq!(back.n_tuples(), 2);
        assert_eq!(back.value_str(0, 0), "a,b");
        assert!(back.is_null(0, 1));
        assert_eq!(back.value_str(1, 0), "q\"q");
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join("dbmine_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("fig4.csv");
        let rel = crate::paper::figure4();
        write_relation_path(&rel, &path).unwrap();
        let back = read_relation_path(&path).unwrap();
        assert_eq!(back.n_tuples(), 5);
        assert_eq!(back.name(), "fig4");
        assert_eq!(back.value_str(4, 2), "x");
        std::fs::remove_dir_all(&dir).ok();
    }
}
