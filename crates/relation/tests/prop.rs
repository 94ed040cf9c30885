//! Property tests for the relation substrate: CSV round-trips, interning
//! consistency and projection invariants on arbitrary data.

use dbmine_relation::csv::{
    read_relation, read_relation_path, write_header, write_record, write_relation,
};
use dbmine_relation::{
    qualified_row, qualified_stride, tuple_mutual_information_chunks, AttrSet, ProjectionStats,
    Relation, RelationBuilder, ShardedRelation, StrippedPartition, ValueIndex,
};
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};

/// The projection statistics of `rel` on `attrs`, read off `π_attrs`.
fn projection_stats(rel: &Relation, attrs: AttrSet) -> ProjectionStats {
    ProjectionStats::of_partition(&StrippedPartition::of_attrs(rel, attrs))
}

/// Arbitrary cell content, including empty strings, multi-byte
/// characters next to quotes, commas, CR/LF and NUL bytes, and NULLs.
fn arb_cell() -> impl Strategy<Value = Option<String>> {
    proptest::option::weighted(
        0.8,
        proptest::string::string_regex("[ -~é日🦀é日🦀\"\"\r\n\r\n,\x00]{0,8}").expect("regex"),
    )
}

/// `rel` as CSV text, every record ending in `\r\n` when `crlf`.
fn csv_text(rel: &Relation, crlf: bool) -> Vec<u8> {
    if !crlf {
        let mut buf = Vec::new();
        write_relation(rel, &mut buf).unwrap();
        return buf;
    }
    let mut buf = Vec::new();
    let end_crlf = |buf: &mut Vec<u8>| {
        buf.pop();
        buf.extend_from_slice(b"\r\n");
    };
    write_header(&mut buf, rel.attr_names()).unwrap();
    end_crlf(&mut buf);
    for t in 0..rel.n_tuples() {
        let row: Vec<Option<&str>> = (0..rel.n_attrs())
            .map(|a| (!rel.is_null(t, a)).then(|| rel.value_str(t, a)))
            .collect();
        write_record(&mut buf, &row).unwrap();
        end_crlf(&mut buf);
    }
    buf
}

/// A reader that hands its input out in pieces of 1–7 bytes, cycling
/// through `steps`, so refills split multi-byte characters, `""`
/// escapes and CRLF pairs.
struct Dribble<'a> {
    data: &'a [u8],
    steps: &'a [usize],
    k: usize,
}

impl std::io::Read for Dribble<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let step = self.steps[self.k % self.steps.len()];
        self.k += 1;
        let take = step.min(out.len()).min(self.data.len());
        out[..take].copy_from_slice(&self.data[..take]);
        self.data = &self.data[take..];
        Ok(take)
    }
}

/// Every dictionary string, in id order.
fn dict_strings(dict: &dbmine_relation::ValueDict) -> Vec<&str> {
    (0..dict.len()).map(|id| dict.string(id as u32)).collect()
}

fn arb_relation() -> impl Strategy<Value = Relation> {
    (1usize..=4, 0usize..=8).prop_flat_map(|(m, n)| {
        proptest::collection::vec(proptest::collection::vec(arb_cell(), m), n).prop_map(
            move |rows| {
                let names: Vec<String> = (0..m).map(|a| format!("c{a}")).collect();
                let refs: Vec<&str> = names.iter().map(String::as_str).collect();
                let mut b = RelationBuilder::new("t", &refs);
                for row in rows {
                    let cells: Vec<Option<&str>> = row.iter().map(|c| c.as_deref()).collect();
                    b.push_row(&cells);
                }
                b.build()
            },
        )
    })
}

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// A unique (csv, store) path pair per proptest case, so concurrent
/// test binaries never collide.
fn spill_paths() -> (std::path::PathBuf, std::path::PathBuf) {
    let id = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join("dbmine_spill_prop");
    std::fs::create_dir_all(&dir).unwrap();
    let stem = format!("{}_{id}", std::process::id());
    (
        dir.join(format!("{stem}.csv")),
        dir.join(format!("{stem}.dbss")),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn csv_roundtrip_preserves_cells(rel in arb_relation()) {
        let mut buf = Vec::new();
        write_relation(&rel, &mut buf).unwrap();
        let back = read_relation(buf.as_slice(), "t").unwrap();
        prop_assert_eq!(back.n_tuples(), rel.n_tuples());
        prop_assert_eq!(back.n_attrs(), rel.n_attrs());
        for t in 0..rel.n_tuples() {
            for a in 0..rel.n_attrs() {
                prop_assert_eq!(back.is_null(t, a), rel.is_null(t, a), "null ({}, {})", t, a);
                if !rel.is_null(t, a) {
                    prop_assert_eq!(back.value_str(t, a), rel.value_str(t, a));
                }
            }
        }
    }

    /// The memory and spill readers run one scan: however the reader
    /// splits the input, both read back every cell, and the spill at
    /// chunk 1, 3 and the default agrees with the memory load on the
    /// dictionary, the columns and the content hash.
    #[test]
    fn memory_and_spill_scans_agree_under_any_read_split(
        rel in arb_relation(),
        crlf in 0u8..2,
        steps in proptest::collection::vec(1usize..=7, 1..16),
    ) {
        let buf = csv_text(&rel, crlf == 1);
        let dribble = || Dribble { data: &buf, steps: &steps, k: 0 };
        let mem = read_relation(dribble(), "t").unwrap();
        prop_assert_eq!(mem.n_tuples(), rel.n_tuples());
        for t in 0..rel.n_tuples() {
            for a in 0..rel.n_attrs() {
                prop_assert_eq!(mem.is_null(t, a), rel.is_null(t, a));
                prop_assert_eq!(mem.value_str(t, a), rel.value_str(t, a));
            }
        }
        for chunk_tuples in [1, 3, 0] {
            let (_, store_path) = spill_paths();
            let spilled =
                ShardedRelation::scan_csv_spill(dribble(), "t", chunk_tuples, &store_path)
                    .unwrap();
            prop_assert_eq!(spilled.content_hash(), mem.content_hash());
            prop_assert_eq!(dict_strings(spilled.dict()), dict_strings(mem.dict()));
            let mat = spilled.materialize().unwrap();
            for a in 0..mem.n_attrs() {
                prop_assert_eq!(mat.column(a), mem.column(a));
            }
            spilled.verify_content().unwrap();
            std::fs::remove_file(store_path).ok();
        }
    }

    #[test]
    fn interning_is_consistent(rel in arb_relation()) {
        // Equal strings ⇔ equal value ids, across all cells.
        let cells: Vec<(usize, usize)> = (0..rel.n_tuples())
            .flat_map(|t| (0..rel.n_attrs()).map(move |a| (t, a)))
            .collect();
        for &(t1, a1) in &cells {
            for &(t2, a2) in &cells {
                let same_id = rel.value(t1, a1) == rel.value(t2, a2);
                let same_str = rel.is_null(t1, a1) == rel.is_null(t2, a2)
                    && rel.value_str(t1, a1) == rel.value_str(t2, a2);
                // NULLs all share one id and render as "NULL".
                prop_assert_eq!(same_id, same_str, "cells ({},{}) vs ({},{})", t1, a1, t2, a2);
            }
        }
    }

    #[test]
    fn qualified_rows_are_distributions(rel in arb_relation()) {
        let (d, m, n) = (rel.dict().len(), rel.n_attrs(), rel.n_tuples());
        let stride = qualified_stride(d, m);
        for t in 0..n {
            let row = qualified_row(stride, 1.0 / m as f64, (0..m).map(|a| rel.value(t, a)));
            prop_assert_eq!(row.support(), m);
            prop_assert!(row.is_normalized(1e-9));
        }
        prop_assert!(tuple_mutual_information_chunks(d, m, n, [rel.as_chunk()]) >= 0.0);
    }

    #[test]
    fn value_index_accounts_every_cell(rel in arb_relation()) {
        let idx = ValueIndex::build(&rel);
        let total_o: f64 = (0..idx.len()).map(|i| idx.o_row(i).total()).sum();
        prop_assert_eq!(total_o as usize, rel.n_tuples() * rel.n_attrs());
        // Occurrence lists are sorted, deduplicated, in range.
        for i in 0..idx.len() {
            let occ = idx.occurrences(i);
            prop_assert!(occ.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(occ.iter().all(|&t| (t as usize) < rel.n_tuples()));
        }
    }

    #[test]
    fn projection_invariants(rel in arb_relation(), bits in 0u64..15) {
        if rel.n_tuples() == 0 { return Ok(()); }
        let attrs = AttrSet::from_bits(bits).intersect(rel.all_attrs());
        if attrs.is_empty() { return Ok(()); }
        let stats = projection_stats(&rel, attrs);
        let (d, h) = (stats.distinct, stats.entropy);
        prop_assert!(d >= 1 && d <= rel.n_tuples());
        prop_assert!(h >= -1e-9);
        prop_assert!(h <= (rel.n_tuples() as f64).log2() + 1e-9);
        // Entropy is maximal exactly when all projected rows are distinct.
        if d == rel.n_tuples() {
            prop_assert!((h - (d as f64).log2()).abs() < 1e-9);
        }
        // Adding attributes never decreases the distinct count.
        let bigger = projection_stats(&rel, rel.all_attrs()).distinct;
        prop_assert!(bigger >= d);
    }

    /// Spill round trip: arbitrary relations (NULLs, quoted/escaped
    /// fields, empty strings, single-column, 0-row) written to CSV,
    /// scanned with spill — the store's chunk stream, dictionary,
    /// content hash and materialization must be bit-identical to the
    /// CSV loaded in memory, cut at several chunk granularities.
    #[test]
    fn spill_store_chunks_bit_identical_to_csv_chunks(
        rel in arb_relation(),
        chunk_tuples in 1usize..=5,
    ) {
        let mut buf = Vec::new();
        write_relation(&rel, &mut buf).unwrap();
        let (csv_path, store_path) = spill_paths();
        std::fs::write(&csv_path, &buf).unwrap();

        let plain = read_relation_path(&csv_path).unwrap();
        let spilled =
            ShardedRelation::scan_csv_path_spill(&csv_path, chunk_tuples, &store_path).unwrap();
        prop_assert_eq!(spilled.content_hash(), plain.content_hash());
        prop_assert_eq!(spilled.n_tuples(), plain.n_tuples());
        prop_assert_eq!(spilled.attr_names(), plain.attr_names());
        prop_assert_eq!(spilled.dict().len(), plain.dict().len());
        for id in 0..plain.dict().len() {
            prop_assert_eq!(
                spilled.dict().string(id as u32),
                plain.dict().string(id as u32)
            );
        }

        let store_chunks: Vec<_> = spilled
            .chunks()
            .unwrap()
            .collect::<Result<Vec<_>, _>>()
            .unwrap();
        prop_assert_eq!(store_chunks.len(), spilled.n_chunks());
        prop_assert_eq!(store_chunks.len(), plain.n_tuples().div_ceil(chunk_tuples));
        for (i, chunk) in store_chunks.iter().enumerate() {
            let start = i * chunk_tuples;
            let end = (start + chunk_tuples).min(plain.n_tuples());
            prop_assert_eq!(chunk.start, start);
            for (a, col) in chunk.columns.iter().enumerate() {
                prop_assert_eq!(&col[..], &plain.column(a)[start..end]);
            }
        }

        // Re-opening from the file alone reproduces everything, and the
        // end-to-end hash verification agrees.
        let reopened = ShardedRelation::open_store(&store_path).unwrap();
        prop_assert_eq!(reopened.content_hash(), plain.content_hash());
        reopened.verify_content().unwrap();

        // Materializing the store equals loading the CSV in memory.
        let mat = reopened.materialize().unwrap();
        prop_assert_eq!(mat.content_hash(), plain.content_hash());
        prop_assert_eq!(mat.n_tuples(), rel.n_tuples());

        std::fs::remove_file(csv_path).ok();
        std::fs::remove_file(store_path).ok();
    }
}
