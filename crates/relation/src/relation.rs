//! Columnar categorical relations.

use crate::attrset::{AttrSet, MAX_ATTRS};
use crate::dict::{ValueDict, ValueId, NULL_VALUE};
use crate::shard::RelationChunk;
use std::borrow::Cow;

/// Attribute identifier: an index into the schema, `0..m`.
pub type AttrId = usize;

/// A relation of `n` tuples over `m` categorical attributes, stored
/// column-wise with globally interned values.
///
/// This is the paper's model (Section 4): *"a set T of n tuples is defined
/// on m attributes (A1, …, Am); any tuple takes exactly one value from Vi
/// for the i-th attribute."* Missing values take the NULL value, which the
/// paper treats as an ordinary (and, in DBLP, highly duplicated) value.
#[derive(Clone, Debug)]
pub struct Relation {
    name: String,
    attr_names: Vec<String>,
    dict: ValueDict,
    /// `columns[a][t]` = value id of tuple `t` in attribute `a`.
    columns: Vec<Vec<ValueId>>,
    n: usize,
}

impl Relation {
    /// Assembles a resident relation from its chunks, in tuple order:
    /// the one assembly behind [`crate::csv::read_relation`] and
    /// [`crate::ShardedRelation::materialize`]. A first chunk that owns
    /// its columns moves in without a copy; later chunks append.
    pub(crate) fn from_chunks<'a, E>(
        name: &str,
        attr_names: Vec<String>,
        dict: ValueDict,
        n: usize,
        chunks: impl IntoIterator<Item = Result<RelationChunk<'a>, E>>,
    ) -> Result<Relation, E> {
        let mut columns: Vec<Vec<ValueId>> = vec![Vec::new(); attr_names.len()];
        for chunk in chunks {
            for (column, part) in columns.iter_mut().zip(chunk?.columns) {
                if column.is_empty() {
                    *column = part.into_owned();
                    column.reserve(n - column.len());
                } else {
                    column.extend_from_slice(&part);
                }
            }
        }
        debug_assert!(columns.iter().all(|c| c.len() == n));
        Ok(Relation {
            name: name.to_string(),
            attr_names,
            dict,
            columns,
            n,
        })
    }

    /// Number of tuples `n`.
    pub fn n_tuples(&self) -> usize {
        self.n
    }

    /// Number of attributes `m`.
    pub fn n_attrs(&self) -> usize {
        self.attr_names.len()
    }

    /// The relation's name (used in reports).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Attribute names, in schema order.
    pub fn attr_names(&self) -> &[String] {
        &self.attr_names
    }

    /// The id of the attribute called `name`, if any.
    pub fn attr_id(&self, name: &str) -> Option<AttrId> {
        self.attr_names.iter().position(|a| a == name)
    }

    /// The full attribute set `{0, …, m-1}`.
    pub fn all_attrs(&self) -> AttrSet {
        AttrSet::full(self.n_attrs())
    }

    /// The value dictionary.
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// The value id of tuple `t` in attribute `a`.
    pub fn value(&self, t: usize, a: AttrId) -> ValueId {
        self.columns[a][t]
    }

    /// True if tuple `t` is NULL in attribute `a`.
    pub fn is_null(&self, t: usize, a: AttrId) -> bool {
        self.value(t, a) == NULL_VALUE
    }

    /// The display string of tuple `t` in attribute `a`.
    pub fn value_str(&self, t: usize, a: AttrId) -> &str {
        self.dict.string(self.value(t, a))
    }

    /// The full column of attribute `a`.
    pub fn column(&self, a: AttrId) -> &[ValueId] {
        &self.columns[a]
    }

    /// The whole relation as one chunk that borrows its columns: what
    /// every view fold reads when the relation is resident, with no
    /// copy of the cells.
    pub fn as_chunk(&self) -> RelationChunk<'_> {
        RelationChunk {
            start: 0,
            columns: self
                .columns
                .iter()
                .map(|c| Cow::Borrowed(c.as_slice()))
                .collect(),
        }
    }

    /// The tuple `t` projected on `attrs`, in increasing attribute order.
    pub fn tuple_projected(&self, t: usize, attrs: AttrSet) -> Vec<ValueId> {
        attrs.iter().map(|a| self.columns[a][t]).collect()
    }

    /// Fraction of NULL cells in attribute `a`.
    pub fn null_fraction(&self, a: AttrId) -> f64 {
        if self.n == 0 {
            return 0.0;
        }
        let nulls = self.columns[a].iter().filter(|&&v| v == NULL_VALUE).count();
        nulls as f64 / self.n as f64
    }

    /// Builds a new relation containing only the attributes in `attrs`
    /// (vertical projection, bag semantics: duplicates are kept).
    pub fn project(&self, attrs: AttrSet) -> Relation {
        let keep: Vec<AttrId> = attrs.iter().collect();
        Relation {
            name: format!("{}[π]", self.name),
            attr_names: keep.iter().map(|&a| self.attr_names[a].clone()).collect(),
            dict: self.dict.clone(),
            columns: keep.iter().map(|&a| self.columns[a].clone()).collect(),
            n: self.n,
        }
    }

    /// Builds a new relation containing only the tuples in `rows`
    /// (horizontal selection), preserving their order.
    pub fn select(&self, rows: &[usize], name: &str) -> Relation {
        Relation {
            name: name.to_string(),
            attr_names: self.attr_names.clone(),
            dict: self.dict.clone(),
            columns: self
                .columns
                .iter()
                .map(|c| rows.iter().map(|&t| c[t]).collect())
                .collect(),
            n: rows.len(),
        }
    }

    /// A 64-bit FNV-1a hash of the relation's full logical content:
    /// name, schema, the strings behind every interned value id, and
    /// every cell. Two relations loaded independently from byte-identical
    /// CSV (same file stem) hash equal; any difference in name, schema,
    /// values or row order changes the hash. This is the identity key
    /// for shared-context caches (`dbmined`'s LRU): it depends only on
    /// logical content, never on dictionary internals or load order of
    /// *other* relations.
    ///
    /// The [`crate::ContentHasher`] chunk fold over the relation as one
    /// chunk: the spill scan and [`crate::ShardedRelation::verify_content`]
    /// run the same fold over store-sized chunks, so a store's hash is
    /// computed without materializing the relation.
    pub fn content_hash(&self) -> u64 {
        let mut hasher = crate::hash::ContentHasher::new(&self.name, &self.attr_names);
        hasher.push_chunk(&self.as_chunk(), &self.dict);
        hasher.finish()
    }

    /// The number of *distinct* value ids appearing anywhere in the relation
    /// (the paper's `d = |V|`).
    pub fn distinct_value_count(&self) -> usize {
        let mut seen = vec![false; self.dict.len()];
        let mut count = 0usize;
        for col in &self.columns {
            for &v in col {
                if !seen[v as usize] {
                    seen[v as usize] = true;
                    count += 1;
                }
            }
        }
        count
    }
}

/// The tuples `rows` (ascending ids) on `attrs` of the relation whose
/// schema and dictionary are `attr_names` and `dict`, folded over its
/// `chunks` (global tuple order) into a fresh relation `name`: each row
/// is re-interned as [`RelationBuilder::push_row`] does, NULL kept, so
/// chunk boundaries change nothing. It stops at the last row's chunk.
pub fn select_rows_chunks<'a>(
    name: &str,
    attr_names: &[String],
    dict: &ValueDict,
    rows: &[u32],
    attrs: AttrSet,
    chunks: impl IntoIterator<Item = RelationChunk<'a>>,
) -> Relation {
    let keep: Vec<AttrId> = attrs.iter().collect();
    let names: Vec<&str> = keep.iter().map(|&a| attr_names[a].as_str()).collect();
    let mut b = RelationBuilder::new(name, &names);
    let mut rows = rows.iter().map(|&t| t as usize).peekable();
    let mut chunks = chunks.into_iter();
    while rows.peek().is_some() {
        let Some(chunk) = chunks.next() else { break };
        let end = chunk.start + chunk.n_rows();
        while let Some(t) = rows.next_if(|&t| t < end) {
            let row: Vec<Option<&str>> = keep
                .iter()
                .map(|&a| match chunk.value(t - chunk.start, a) {
                    NULL_VALUE => None,
                    v => Some(dict.string(v)),
                })
                .collect();
            b.push_row(&row);
        }
    }
    b.build()
}

/// Incremental builder for [`Relation`].
///
/// ```
/// use dbmine_relation::RelationBuilder;
/// let mut b = RelationBuilder::new("people", &["Ename", "City", "Zip"]);
/// b.push_row(&[Some("Pat"), Some("Boston"), Some("02139")]);
/// b.push_row(&[Some("Pat"), Some("Boston"), Some("02138")]);
/// b.push_row(&[Some("Sal"), Some("Boston"), None]);
/// let rel = b.build();
/// assert_eq!(rel.n_tuples(), 3);
/// assert_eq!(rel.value_str(2, 2), "NULL");
/// // "Boston" is one global value shared by all three tuples:
/// assert_eq!(rel.value(0, 1), rel.value(2, 1));
/// ```
#[derive(Clone, Debug)]
pub struct RelationBuilder {
    name: String,
    attr_names: Vec<String>,
    dict: ValueDict,
    columns: Vec<Vec<ValueId>>,
    n: usize,
}

impl RelationBuilder {
    /// Starts a relation with the given attribute names.
    ///
    /// # Panics
    /// Panics if more than 64 attributes are requested (see [`AttrSet`]).
    pub fn new(name: &str, attr_names: &[&str]) -> Self {
        assert!(
            attr_names.len() <= MAX_ATTRS,
            "at most {MAX_ATTRS} attributes supported"
        );
        RelationBuilder {
            name: name.to_string(),
            attr_names: attr_names.iter().map(|s| s.to_string()).collect(),
            dict: ValueDict::new(),
            columns: vec![Vec::new(); attr_names.len()],
            n: 0,
        }
    }

    /// Appends one tuple; `None` cells become NULL.
    ///
    /// # Panics
    /// Panics if the row width differs from the schema width.
    pub fn push_row(&mut self, row: &[Option<&str>]) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        for (a, cell) in row.iter().enumerate() {
            let id = self.dict.intern_cell(*cell);
            self.columns[a].push(id);
        }
        self.n += 1;
    }

    /// Appends one tuple of owned strings (empty string stays a value;
    /// use [`RelationBuilder::push_row`] with `None` for NULLs).
    pub fn push_row_strs(&mut self, row: &[&str]) {
        let cells: Vec<Option<&str>> = row.iter().map(|s| Some(*s)).collect();
        self.push_row(&cells);
    }

    /// Number of tuples added so far.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if no tuples were added.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Finishes the relation.
    pub fn build(self) -> Relation {
        Relation {
            name: self.name,
            attr_names: self.attr_names,
            dict: self.dict,
            columns: self.columns,
            n: self.n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use crate::paper::figure4;

    #[test]
    fn figure4_shape() {
        let r = figure4();
        assert_eq!(r.n_tuples(), 5);
        assert_eq!(r.n_attrs(), 3);
        assert_eq!(r.distinct_value_count(), 9); // a,w,y,z,1,2,p,r,x
    }

    #[test]
    fn values_and_strings() {
        let r = figure4();
        assert_eq!(r.value_str(0, 0), "a");
        assert_eq!(r.value_str(4, 2), "x");
        assert_eq!(r.value(2, 2), r.value(3, 2)); // both "x"
        assert_ne!(r.value(0, 2), r.value(1, 2)); // "p" vs "r"
    }

    #[test]
    fn projection_keeps_rows() {
        let r = figure4();
        let p = r.project([0, 2].into_iter().collect());
        assert_eq!(p.n_attrs(), 2);
        assert_eq!(p.n_tuples(), 5);
        assert_eq!(p.attr_names(), &["A".to_string(), "C".to_string()]);
        assert_eq!(p.value_str(0, 1), "p");
    }

    #[test]
    fn selection_keeps_columns() {
        let r = figure4();
        let s = r.select(&[2, 4], "sel");
        assert_eq!(s.n_tuples(), 2);
        assert_eq!(s.value_str(0, 0), "w");
        assert_eq!(s.value_str(1, 0), "z");
    }

    #[test]
    fn null_fraction_counts() {
        let mut b = RelationBuilder::new("t", &["X", "Y"]);
        b.push_row(&[Some("v"), None]);
        b.push_row(&[None, None]);
        let r = b.build();
        assert_eq!(r.null_fraction(0), 0.5);
        assert_eq!(r.null_fraction(1), 1.0);
        assert!(r.is_null(1, 0));
    }

    #[test]
    fn attr_lookup() {
        let r = figure4();
        assert_eq!(r.attr_id("B"), Some(1));
        assert_eq!(r.attr_id("nope"), None);
    }

    #[test]
    fn tuple_projected_order() {
        let r = figure4();
        let proj = r.tuple_projected(0, [2, 0].into_iter().collect());
        assert_eq!(proj.len(), 2);
        assert_eq!(r.dict().string(proj[0]), "a"); // attr order, not arg order
        assert_eq!(r.dict().string(proj[1]), "p");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut b = RelationBuilder::new("t", &["X", "Y"]);
        b.push_row(&[Some("v")]);
    }

    #[test]
    fn select_rows_is_the_same_over_any_chunking() {
        let mut b = RelationBuilder::new("t", &["X", "Y", "Z"]);
        for row in [
            [Some("a"), None, Some("p")],
            [Some("b"), Some("a"), None],
            [None, Some("q"), Some("a")],
            [Some("b"), Some("a"), Some("p")],
            [Some("c"), None, None],
        ] {
            b.push_row(&row);
        }
        let r = b.build();
        let attrs: AttrSet = [0, 2].into_iter().collect();
        let rows = [1u32, 2, 4];
        let whole = select_rows_chunks("s", r.attr_names(), r.dict(), &rows, attrs, [r.as_chunk()]);
        // The same rows pushed one by one: the fold's definition.
        let mut want = RelationBuilder::new("s", &["X", "Z"]);
        for &t in &rows {
            let cell = |a| (!r.is_null(t as usize, a)).then(|| r.value_str(t as usize, a));
            want.push_row(&[cell(0), cell(2)]);
        }
        let want = want.build();
        assert_eq!(whole.content_hash(), want.content_hash());
        assert_eq!(whole.dict().len(), want.dict().len());
        for size in 1..=r.n_tuples() {
            let chunks = (0..r.n_tuples()).step_by(size).map(|start| RelationChunk {
                start,
                columns: r
                    .as_chunk()
                    .columns
                    .into_iter()
                    .map(|c| Cow::Owned(c[start..(start + size).min(r.n_tuples())].to_vec()))
                    .collect(),
            });
            let split = select_rows_chunks("s", r.attr_names(), r.dict(), &rows, attrs, chunks);
            assert_eq!(
                split.content_hash(),
                want.content_hash(),
                "chunks of {size}"
            );
            for a in 0..split.n_attrs() {
                assert_eq!(split.column(a), want.column(a), "chunks of {size}");
            }
        }
        let none = select_rows_chunks("s", r.attr_names(), r.dict(), &[], attrs, [r.as_chunk()]);
        assert_eq!((none.n_tuples(), none.n_attrs()), (0, 2));
    }

    #[test]
    fn content_hash_is_deterministic_and_content_sensitive() {
        assert_eq!(figure4().content_hash(), figure4().content_hash());

        let build = |name: &str, attrs: &[&str], rows: &[&[&str]]| {
            let mut b = RelationBuilder::new(name, attrs);
            for row in rows {
                b.push_row_strs(row);
            }
            b.build()
        };
        let base = build("t", &["A", "B"], &[&["x", "y"], &["y", "x"]]);
        // Same content, independently built → equal; any perturbation of
        // name, schema, a cell, or row order → different.
        let same = build("t", &["A", "B"], &[&["x", "y"], &["y", "x"]]);
        assert_eq!(base.content_hash(), same.content_hash());
        let renamed = build("u", &["A", "B"], &[&["x", "y"], &["y", "x"]]);
        let reattr = build("t", &["A", "Z"], &[&["x", "y"], &["y", "x"]]);
        let recell = build("t", &["A", "B"], &[&["x", "y"], &["y", "z"]]);
        let reorder = build("t", &["A", "B"], &[&["y", "x"], &["x", "y"]]);
        for other in [&renamed, &reattr, &recell, &reorder] {
            assert_ne!(base.content_hash(), other.content_hash());
        }
    }

    #[test]
    fn content_hash_distinguishes_null_from_literal_null_string() {
        let mut a = RelationBuilder::new("t", &["X"]);
        a.push_row(&[None]);
        let mut b = RelationBuilder::new("t", &["X"]);
        b.push_row(&[Some("NULL")]);
        assert_ne!(a.build().content_hash(), b.build().content_hash());
    }
}
