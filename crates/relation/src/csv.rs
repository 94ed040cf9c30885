//! Minimal, dependency-free CSV reader/writer.
//!
//! Supports RFC-4180-style quoting (`"` field delimiters, `""` escapes,
//! embedded commas and newlines). Empty unquoted fields are read as NULL;
//! quoted empty fields (`""`) are read as the empty-string value, so NULLs
//! survive a round-trip.

use crate::relation::{Relation, RelationBuilder};
use crate::spill::StoreError;
use std::fmt;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};

/// Errors produced by the CSV reader.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A record had a different number of fields than the header.
    RaggedRow {
        line: usize,
        expected: usize,
        got: usize,
    },
    /// The input was empty (no header).
    Empty,
    /// A quoted field was never closed.
    UnterminatedQuote { line: usize },
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
    /// An error with the source file attached. Line numbers, where
    /// known, stay on the wrapped error — the `Display` output is
    /// `path: line N: …` for a CSV scan and `path: shard store: … chunk
    /// i …` for a store pass, so a failure deep in a 10⁷-row file names
    /// the exact file and record or block.
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

/// A parsed field: `None` = NULL (empty unquoted field).
pub(crate) type Field = Option<String>;

/// Splits one logical CSV record starting at `input[pos..]`.
/// Returns the fields and the next position, or None at end of input.
pub(crate) fn parse_record(
    input: &[u8],
    pos: &mut usize,
    line: &mut usize,
) -> Result<Option<Vec<Field>>, CsvError> {
    if *pos >= input.len() {
        return Ok(None);
    }
    let mut fields: Vec<Field> = Vec::new();
    let mut field = String::new();
    let mut quoted = false;
    let mut was_quoted = false;
    let start_line = *line;
    let mut i = *pos;
    loop {
        if i >= input.len() {
            if quoted {
                return Err(CsvError::UnterminatedQuote { line: start_line });
            }
            push_field(&mut fields, std::mem::take(&mut field), was_quoted);
            *pos = i;
            return Ok(Some(fields));
        }
        let b = input[i];
        if quoted {
            match b {
                b'"' => {
                    if input.get(i + 1) == Some(&b'"') {
                        field.push('"');
                        i += 2;
                    } else {
                        quoted = false;
                        i += 1;
                    }
                }
                b'\n' => {
                    field.push('\n');
                    *line += 1;
                    i += 1;
                }
                _ => {
                    field.push(b as char);
                    i += 1;
                }
            }
            continue;
        }
        match b {
            b'"' if field.is_empty() && !was_quoted => {
                quoted = true;
                was_quoted = true;
                i += 1;
            }
            b',' => {
                push_field(&mut fields, std::mem::take(&mut field), was_quoted);
                was_quoted = false;
                i += 1;
            }
            b'\r' if input.get(i + 1) == Some(&b'\n') => {
                push_field(&mut fields, std::mem::take(&mut field), was_quoted);
                *line += 1;
                *pos = i + 2;
                return Ok(Some(fields));
            }
            b'\n' => {
                push_field(&mut fields, std::mem::take(&mut field), was_quoted);
                *line += 1;
                *pos = i + 1;
                return Ok(Some(fields));
            }
            _ => {
                field.push(b as char);
                i += 1;
            }
        }
    }
}

fn push_field(fields: &mut Vec<Field>, field: String, was_quoted: bool) {
    if field.is_empty() && !was_quoted {
        fields.push(None);
    } else {
        fields.push(Some(field));
    }
}

/// Resolves a parsed header record into attribute names (`col{i}`
/// fallback for NULL header cells) and rejects too-wide schemas and
/// repeated names (a repeated name would make its FDs print as
/// `a → a`). Shared
/// by the in-memory reader and the chunked stream ([`crate::shard`]) so
/// both see exactly the same schema for the same bytes.
pub(crate) fn header_names(header: Vec<Field>) -> Result<Vec<String>, CsvError> {
    let names: Vec<String> = header
        .into_iter()
        .enumerate()
        .map(|(i, f)| f.unwrap_or_else(|| format!("col{i}")))
        .collect();
    if names.len() > crate::attrset::MAX_ATTRS {
        // RelationBuilder::new would panic on a too-wide schema; a CSV
        // reader must fail typed instead (the daemon's request path
        // feeds it untrusted input).
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

/// Classifies a parsed data record against the schema width: `None` for
/// a skippable blank line, the record for a well-formed row, an error for
/// a ragged one. Shared by the in-memory reader and the chunked stream
/// so both accept exactly the same rows.
pub(crate) fn normalize_row(
    rec: Vec<Field>,
    expected: usize,
    line: usize,
) -> Result<Option<Vec<Field>>, CsvError> {
    // A blank line parses as one NULL field. For multi-column schemas
    // it is decoration and skipped; for single-column schemas it IS a
    // valid record (a NULL cell), so it must round-trip.
    if expected > 1 && rec.len() == 1 && rec[0].is_none() {
        return Ok(None);
    }
    if rec.len() != expected {
        return Err(CsvError::RaggedRow {
            line,
            expected,
            got: rec.len(),
        });
    }
    Ok(Some(rec))
}

/// Reads a relation from CSV text. The first record is the header.
pub fn read_relation(reader: impl Read, name: &str) -> Result<Relation, CsvError> {
    let mut buf = Vec::new();
    BufReader::new(reader).read_to_end(&mut buf)?;
    let mut pos = 0usize;
    let mut line = 1usize;
    let header = match parse_record(&buf, &mut pos, &mut line)? {
        Some(h) => h,
        None => return Err(CsvError::Empty),
    };
    let names = header_names(header)?;
    let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut b = RelationBuilder::new(name, &name_refs);
    while let Some(rec) = parse_record(&buf, &mut pos, &mut line)? {
        let Some(rec) = normalize_row(rec, names.len(), line)? else {
            continue;
        };
        let cells: Vec<Option<&str>> = rec.iter().map(|f| f.as_deref()).collect();
        b.push_row(&cells);
    }
    Ok(b.build())
}

/// Reads a relation from a CSV file; the file stem becomes the name.
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
                expected: 2,
                got: 1,
                ..
            }
        ));
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
