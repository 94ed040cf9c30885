//! The DBLP-integration stand-in (Section 8.2 of the paper).
//!
//! The paper mapped the DBLP XML dump into a single target relation of
//! 50 000 tuples over 13 attributes (Figure 13), one tuple per
//! (publication, author). The mapping introduced the anomalies the
//! evaluation studies:
//!
//! * conference publications (~72 %) have `Journal`, `Volume`, `Number`
//!   NULL;
//! * journal publications (~28 %) have `BookTitle` NULL and correlated
//!   `Journal`/`Volume`/`Number`/`Year` values;
//! * a sliver of miscellaneous publications (theses, tech reports) with
//!   little structure;
//! * six attributes — `Publisher`, `ISBN`, `Editor`, `Series`, `School`,
//!   `Month` — are over 98 % NULL.

use crate::zipf::Zipf;
use dbmine_relation::csv;
use dbmine_relation::{Relation, RelationBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 13 target attributes of Figure 13, in schema order.
pub const DBLP_ATTRS: [&str; 13] = [
    "Author",
    "Publisher",
    "Year",
    "Editor",
    "Pages",
    "BookTitle",
    "Month",
    "Volume",
    "Journal",
    "Number",
    "School",
    "Series",
    "ISBN",
];

/// The six attributes the paper found to be ≥ 98 % NULL.
pub const NULL_HEAVY_ATTRS: [&str; 6] =
    ["Publisher", "ISBN", "Editor", "Series", "School", "Month"];

/// Generator parameters.
#[derive(Clone, Copy, Debug)]
pub struct DblpSpec {
    /// Total tuples (the paper used 50 000).
    pub n_tuples: usize,
    /// RNG seed.
    pub seed: u64,
    /// Fraction of conference tuples (paper's cluster c1 ≈ 0.718).
    pub conference_frac: f64,
    /// Fraction of miscellaneous tuples (paper's cluster c3 ≈ 0.0026).
    pub misc_frac: f64,
    /// Distinct author pool size.
    pub n_authors: usize,
    /// Distinct conference (BookTitle) pool size.
    pub n_conferences: usize,
    /// Distinct journal pool size.
    pub n_journals: usize,
    /// Fold page numbers into this many buckets (0 = exact numbers, the
    /// default). Bucketing reuses the same RNG draws, so the generated
    /// row structure is identical and only the string universe shrinks:
    /// at most `page_buckets²` distinct `Pages` values.
    pub page_buckets: usize,
    /// Recycle ISBN identifiers through this many buckets (0 = every
    /// ISBN unique, the default).
    pub isbn_buckets: usize,
}

impl Default for DblpSpec {
    fn default() -> Self {
        DblpSpec {
            n_tuples: 50_000,
            seed: 2004,
            conference_frac: 0.718,
            misc_frac: 0.0026,
            n_authors: 30_000,
            n_conferences: 800,
            n_journals: 150,
            page_buckets: 0,
            isbn_buckets: 0,
        }
    }
}

impl DblpSpec {
    /// A small configuration for tests (2 000 tuples).
    pub fn small() -> Self {
        DblpSpec {
            n_tuples: 2_000,
            n_authors: 1_500,
            n_conferences: 120,
            n_journals: 25,
            ..Default::default()
        }
    }

    /// A configuration scaled to `n_tuples`: the paper's 50 000-tuple
    /// relation drew from 30 000 authors, 800 conferences and 150
    /// journals, and this keeps those proportions below that operating
    /// point (with floors so tiny inputs still have skew to exercise)
    /// and **caps them at it** above. Pages and ISBNs are bucketed so
    /// they stop minting fresh strings too. The distinct-value universe
    /// therefore saturates with growing `n_tuples` — which is what makes
    /// Phase-1 cost per chunk, and the 10⁷-tuple bench, flat in the
    /// relation size. Shared by the `dbgen` binary and the scaling
    /// bench, so files on disk and in-process benches describe the same
    /// data for a given `(n_tuples, seed)`.
    pub fn scaled(n_tuples: usize, seed: u64) -> Self {
        DblpSpec {
            n_tuples,
            seed,
            n_authors: (n_tuples * 3 / 5).clamp(100, 30_000),
            n_conferences: (n_tuples / 62).clamp(20, 800),
            n_journals: (n_tuples / 333).clamp(8, 150),
            page_buckets: 40,
            isbn_buckets: 2_000,
            ..Default::default()
        }
    }
}

/// Streams the generated rows (in [`DBLP_ATTRS`] order) to `sink`,
/// exactly `spec.n_tuples` of them.
///
/// This is the single generator behind both [`dblp_sample`] (sink =
/// [`RelationBuilder::push_row`]) and [`write_csv`] (sink = CSV record
/// writer), so the streamed file and the in-memory relation describe the
/// same data — same dictionary interning order, same content hash — and
/// a 10⁷-tuple file can be produced without ever materializing the
/// relation.
pub fn generate_rows(spec: &DblpSpec, mut sink: impl FnMut(&[Option<&str>])) {
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let author_z = Zipf::new(spec.n_authors, 0.7);
    let conf_z = Zipf::new(spec.n_conferences, 0.7);
    let journal_z = Zipf::new(spec.n_journals, 0.8);
    let year_z = Zipf::new(24, 0.6);

    let mut count = 0usize;
    let mut isbn_counter = 0usize;

    while count < spec.n_tuples {
        // One logical publication.
        let kind: f64 = rng.gen();
        let with_pub_meta = rng.gen_bool(0.016);
        // Real DBLP: a third of the records carry no page numbers.
        let pages = if rng.gen_bool(0.35) {
            None
        } else {
            // Bucketing folds the two draws after the fact so the RNG
            // call sequence is identical with and without it.
            let (mut lo, mut hi) = (rng.gen_range(1..2400), rng.gen_range(1..2400));
            if spec.page_buckets > 0 {
                lo %= spec.page_buckets;
                hi %= spec.page_buckets;
            }
            Some(format!("{}-{}", lo, hi + 2400))
        };

        let (year, booktitle, journal, volume, number, school);
        if kind < spec.misc_frac {
            // Miscellaneous: theses and tech reports. The venue attributes
            // are NULL; tech reports carry a report number, theses a
            // school — a value profile distinct from both main types.
            year = format!("{}", 1970 + rng.gen_range(0..34));
            booktitle = None;
            journal = None;
            volume = None;
            if rng.gen_bool(0.5) {
                number = Some(format!("TR-{}", rng.gen_range(0..30)));
                school = None;
            } else {
                number = None;
                school = Some(format!("Univ_{}", rng.gen_range(0..40)));
            }
        } else if kind < spec.misc_frac + spec.conference_frac {
            // Conference publication; years are recency-skewed (2004 dump).
            year = format!("{}", 2003 - year_z.sample(&mut rng) as i64);
            booktitle = Some(format!("Conf_{}", conf_z.sample(&mut rng)));
            journal = None;
            volume = None;
            number = None;
            school = None;
        } else {
            // Journal publication: volume tracks (year − founding year)
            // with occasional off-by-one spill-over, number is the issue.
            let j = journal_z.sample(&mut rng);
            let founding = 1970 + (j % 20) as i64;
            let y = 2003 - year_z.sample(&mut rng).min(13) as i64;
            let spill = i64::from(rng.gen_bool(0.1));
            year = format!("{y}");
            booktitle = None;
            journal = Some(format!("Journal_{j}"));
            volume = Some(format!("{}", y - founding + spill));
            number = Some(format!("{}", rng.gen_range(1..=4)));
            school = None;
        }

        let (publisher, editor, series, month, isbn);
        if with_pub_meta && kind >= spec.misc_frac {
            publisher = Some(format!("Publisher_{}", rng.gen_range(0..12)));
            editor = Some(format!("Author_{}", author_z.sample(&mut rng)));
            series = Some(format!("Series_{}", rng.gen_range(0..8)));
            month =
                Some(["Jan", "Mar", "Jun", "Sep", "Oct", "Dec"][rng.gen_range(0..6)].to_string());
            isbn_counter += 1;
            let id = if spec.isbn_buckets > 0 {
                isbn_counter % spec.isbn_buckets
            } else {
                isbn_counter
            };
            isbn = Some(format!("ISBN-{id:06}"));
        } else {
            publisher = None;
            editor = None;
            series = None;
            month = None;
            isbn = None;
        }

        // The mapping emits one tuple per author, and re-emits the whole
        // record for a quarter of the publications (duplicate records).
        let n_authors = 1 + author_z.sample(&mut rng) % 3 + usize::from(rng.gen_bool(0.3));
        let repeats = if rng.gen_bool(0.25) { 2 } else { 1 };
        let authors: Vec<String> = (0..n_authors)
            .map(|_| format!("Author_{}", author_z.sample(&mut rng)))
            .collect();
        for _ in 0..repeats {
            for author in &authors {
                if count >= spec.n_tuples {
                    break;
                }
                let row: [Option<&str>; 13] = [
                    Some(author),
                    publisher.as_deref(),
                    Some(&year),
                    editor.as_deref(),
                    pages.as_deref(),
                    booktitle.as_deref(),
                    month.as_deref(),
                    volume.as_deref(),
                    journal.as_deref(),
                    number.as_deref(),
                    school.as_deref(),
                    series.as_deref(),
                    isbn.as_deref(),
                ];
                sink(&row);
                count += 1;
            }
        }
    }
}

/// Generates the integrated DBLP-style relation in memory.
///
/// Tuples come from *logical publications*: the XML→relational mapping
/// produced one tuple per (publication, author), and — as with real
/// integration pipelines — a fraction of publications are emitted twice
/// (duplicate records). This is what gives the relation its heavy
/// tuple-level duplication (the paper's RTR values of 0.88–0.98 inside
/// the journal partition).
pub fn dblp_sample(spec: &DblpSpec) -> Relation {
    let mut b = RelationBuilder::new("dblp", &DBLP_ATTRS);
    generate_rows(spec, |row| b.push_row(row));
    b.build()
}

/// Streams the generated relation as CSV (header + rows), without
/// materializing it. Reading the output back — whole-file or via the
/// chunked scanner — reproduces [`dblp_sample`] exactly (same content
/// hash), provided the relation is named `"dblp"`.
pub fn write_csv(spec: &DblpSpec, w: &mut impl std::io::Write) -> std::io::Result<()> {
    csv::write_header(w, &DBLP_ATTRS)?;
    let mut err = None;
    generate_rows(spec, |row| {
        if err.is_none() {
            if let Err(e) = csv::write_record(w, row) {
                err = Some(e);
            }
        }
    });
    match err {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

/// [`write_csv`] to a file path (buffered).
pub fn write_csv_path(spec: &DblpSpec, path: impl AsRef<std::path::Path>) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    write_csv(spec, &mut w)?;
    use std::io::Write;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_shape_matches_paper() {
        let spec = DblpSpec {
            n_tuples: 5_000,
            ..Default::default()
        };
        let rel = dblp_sample(&spec);
        assert_eq!(rel.n_tuples(), 5_000);
        assert_eq!(rel.n_attrs(), 13);
    }

    #[test]
    fn null_heavy_attributes() {
        // "the set of attributes {Publisher, ISBN, Editor, Series, School,
        //  Month} contains over 98% of NULL values."
        let rel = dblp_sample(&DblpSpec::small());
        for name in NULL_HEAVY_ATTRS {
            let a = rel.attr_id(name).unwrap();
            assert!(
                rel.null_fraction(a) >= 0.97,
                "{name} only {:.3} NULL",
                rel.null_fraction(a)
            );
        }
        // Author and Year never NULL; Pages is NULL for about a third of
        // the records, as in real DBLP.
        for name in ["Author", "Year"] {
            assert_eq!(rel.null_fraction(rel.attr_id(name).unwrap()), 0.0);
        }
        let pages = rel.attr_id("Pages").unwrap();
        assert!((rel.null_fraction(pages) - 0.35).abs() < 0.05);
    }

    #[test]
    fn tuple_type_mixture() {
        let rel = dblp_sample(&DblpSpec::small());
        let bt = rel.attr_id("BookTitle").unwrap();
        let jr = rel.attr_id("Journal").unwrap();
        let sc = rel.attr_id("School").unwrap();
        let mut conf = 0;
        let mut jour = 0;
        let mut misc = 0;
        for t in 0..rel.n_tuples() {
            if !rel.is_null(t, bt) {
                conf += 1;
                assert!(rel.is_null(t, jr), "conference tuple with journal");
            } else if !rel.is_null(t, jr) {
                jour += 1;
            } else if !rel.is_null(t, sc) {
                misc += 1;
            }
        }
        let n = rel.n_tuples() as f64;
        assert!((conf as f64 / n - 0.718).abs() < 0.05, "conf {conf}");
        assert!((jour as f64 / n - 0.28).abs() < 0.05, "jour {jour}");
        assert!(misc as f64 / n < 0.02, "misc {misc}");
        assert!(conf + jour + misc >= rel.n_tuples() * 99 / 100);
    }

    #[test]
    fn journal_attributes_correlate() {
        // Within journal tuples, (Journal, Volume) almost determines Year.
        let rel = dblp_sample(&DblpSpec::small());
        let jr = rel.attr_id("Journal").unwrap();
        let vo = rel.attr_id("Volume").unwrap();
        let yr = rel.attr_id("Year").unwrap();
        let mut map: std::collections::HashMap<(u32, u32), std::collections::HashSet<u32>> =
            Default::default();
        for t in 0..rel.n_tuples() {
            if !rel.is_null(t, jr) {
                map.entry((rel.value(t, jr), rel.value(t, vo)))
                    .or_default()
                    .insert(rel.value(t, yr));
            }
        }
        let ambiguous = map.values().filter(|s| s.len() > 1).count();
        assert!(
            (ambiguous as f64) < map.len() as f64 * 0.5,
            "correlation too weak: {ambiguous}/{}",
            map.len()
        );
        assert!(
            ambiguous > 0,
            "correlation should not be exact (spill-over)"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let a = dblp_sample(&DblpSpec::small());
        let b = dblp_sample(&DblpSpec::small());
        for t in (0..a.n_tuples()).step_by(97) {
            for at in 0..13 {
                assert_eq!(a.value_str(t, at), b.value_str(t, at));
            }
        }
    }

    #[test]
    fn streamed_csv_reproduces_the_sample_relation() {
        // The CSV writer and the in-memory builder share one generator:
        // reading the streamed file back (named "dblp") must give the
        // exact relation, down to the content hash — whole-file reader
        // and chunked scanner alike.
        let spec = DblpSpec {
            n_tuples: 700,
            n_authors: 400,
            n_conferences: 60,
            n_journals: 12,
            ..Default::default()
        };
        let rel = dblp_sample(&spec);
        let mut bytes = Vec::new();
        write_csv(&spec, &mut bytes).unwrap();

        let reread = csv::read_relation(&bytes[..], "dblp").unwrap();
        assert_eq!(reread.n_tuples(), rel.n_tuples());
        assert_eq!(reread.content_hash(), rel.content_hash());

        let store = std::env::temp_dir().join(format!("dbmine_dblp_{}.dbss", std::process::id()));
        let scanned =
            dbmine_relation::ShardedRelation::scan_csv_spill(&bytes[..], "dblp", 128, &store)
                .unwrap();
        assert_eq!(scanned.n_tuples(), rel.n_tuples());
        assert_eq!(scanned.content_hash(), rel.content_hash());
        std::fs::remove_file(&store).ok();
    }

    #[test]
    fn bucketed_specs_bound_the_value_universe() {
        // Bucketing folds the same RNG draws, so the row structure is
        // unchanged (the Author column is identical) and only the string
        // universe shrinks: pages collapse into ≤ B² ranges, ISBNs
        // recycle K identifiers.
        let raw = DblpSpec {
            n_tuples: 4_000,
            ..Default::default()
        };
        let bucketed = DblpSpec {
            page_buckets: 8,
            isbn_buckets: 5,
            ..raw
        };
        let a = dblp_sample(&raw);
        let b = dblp_sample(&bucketed);
        let author = a.attr_id("Author").unwrap();
        for t in (0..a.n_tuples()).step_by(61) {
            assert_eq!(a.value_str(t, author), b.value_str(t, author));
        }
        let distinct = |rel: &Relation, name: &str| {
            let at = rel.attr_id(name).unwrap();
            (0..rel.n_tuples())
                .filter(|&t| !rel.is_null(t, at))
                .map(|t| rel.value(t, at))
                .collect::<std::collections::HashSet<_>>()
                .len()
        };
        assert!(distinct(&b, "Pages") <= 64, "{}", distinct(&b, "Pages"));
        assert!(distinct(&b, "ISBN") <= 5);
        assert!(distinct(&a, "Pages") > 64);
        assert!(b.distinct_value_count() < a.distinct_value_count());
    }

    #[test]
    fn scaled_specs_saturate_the_pools() {
        // Above the paper's 50 000-tuple operating point the pools stop
        // growing, so the distinct-value universe saturates and the
        // per-chunk Phase-1 working set is flat in the relation size.
        let s = DblpSpec::scaled(10_000_000, 7);
        assert_eq!(s.n_authors, 30_000);
        assert_eq!(s.n_conferences, 800);
        assert_eq!(s.n_journals, 150);
        assert!(s.page_buckets > 0 && s.isbn_buckets > 0);
        // Below it the proportions still scale.
        let t = DblpSpec::scaled(10_000, 7);
        assert_eq!(t.n_authors, 6_000);
        assert!(t.n_conferences < 800);
    }

    #[test]
    fn value_universe_scale() {
        // The paper reports 57 187 distinct values for 50 000 tuples
        // (≈1.14 per tuple); our generator should be in the same regime.
        let rel = dblp_sample(&DblpSpec::small());
        let d = rel.distinct_value_count();
        let ratio = d as f64 / rel.n_tuples() as f64;
        assert!(
            (0.5..=1.6).contains(&ratio),
            "d = {d} for n = {}",
            rel.n_tuples()
        );
    }
}
