//! Property tests for the vertical split [`decompose`]: on arbitrary
//! relations (NULLs, constant and all-NULL columns, n = 0 included) and
//! every dependency that holds by the oracle `fd_holds`, the split's
//! sizes equal the oracle projection's, `S1 ⋈ S2 = R`, the storage
//! reduction is finite, and a `.dbss`-backed context splits exactly as
//! the memory context over the same rows.

use dbmine_context::AnalysisCtx;
use dbmine_fdrank::{decompose, RankedFd};
use dbmine_oracles::{fd_holds, project_distinct};
use dbmine_relation::{csv, AttrSet, Relation, RelationBuilder, ShardedRelation, NULL_VALUE};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// A random small categorical relation: 2–5 attrs, 0–24 tuples, domain
/// 3 plus NULL cells, and columns that may be entirely NULL or constant.
fn arb_relation() -> impl Strategy<Value = Relation> {
    (2usize..=5, 0usize..=24).prop_flat_map(|(m, n)| {
        let rows = proptest::collection::vec(
            proptest::collection::vec(proptest::option::weighted(0.8, 0u8..3), m),
            n,
        );
        // A column whose draw is 0 is entirely NULL, 1 constant.
        let kind = proptest::collection::vec(0u8..6, m);
        (rows, kind).prop_map(move |(rows, kind)| {
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for row in rows {
                let cells: Vec<Option<String>> = row
                    .iter()
                    .enumerate()
                    .map(|(a, v)| match kind[a] {
                        0 => None,
                        1 => Some(format!("v{a}")),
                        _ => v.map(|v| format!("v{a}_{v}")),
                    })
                    .collect();
                let strs: Vec<Option<&str>> = cells.iter().map(Option::as_deref).collect();
                b.push_row(&strs);
            }
            b.build()
        })
    })
}

/// Every non-trivial `X → A` with `|X| ≤ 2` that holds on `rel`, plus
/// each such `X` with its whole determined set as the consequent.
fn holding_fds(rel: &Relation) -> Vec<RankedFd> {
    let m = rel.n_attrs();
    let mut out = Vec::new();
    for bits in 0u64..(1 << m) {
        let lhs = AttrSet::from_bits(bits);
        if lhs.len() > 2 {
            continue;
        }
        let rhs: AttrSet = (0..m)
            .filter(|&a| !lhs.contains(a) && fd_holds(rel, lhs, a))
            .collect();
        if rhs.len() > 1 && rhs.union(lhs) != rel.all_attrs() {
            out.push(ranked(lhs, rhs));
        }
        out.extend(rhs.iter().map(|a| ranked(lhs, AttrSet::single(a))));
    }
    out
}

fn ranked(lhs: AttrSet, rhs: AttrSet) -> RankedFd {
    RankedFd {
        lhs,
        rhs,
        rank: 0.0,
        promoted: true,
    }
}

/// Every row of `ctx` as strings (NULL as `None`), from its chunk pass.
fn rows(ctx: &AnalysisCtx) -> Vec<Vec<Option<String>>> {
    let dict = ctx.dict();
    let mut out = Vec::new();
    for chunk in ctx.chunks() {
        for t in 0..chunk.n_rows() {
            let row = chunk.row_values(t);
            out.push(
                row.map(|v| (v != NULL_VALUE).then(|| dict.string(v).to_string()))
                    .collect(),
            );
        }
    }
    out
}

/// `rel` written as CSV and read back (named `rel`), and a context over
/// the same CSV spilled to a `.dbss` store with `chunk`-tuple chunks.
fn chunked_pair(rel: &Relation, chunk: usize) -> (Relation, AnalysisCtx) {
    let mut text = Vec::new();
    csv::write_relation(rel, &mut text).expect("write csv");
    let dir = std::env::temp_dir().join("dbmine_fdrank_decompose");
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let store = dir.join(format!("rel_{}_{chunk}.dbss", std::process::id()));
    let sharded = ShardedRelation::scan_csv_spill(&text[..], "rel", chunk, &store);
    let ctx = sharded
        .and_then(AnalysisCtx::from_chunks)
        .expect("chunk-backed context");
    (csv::read_relation(&text[..], "rel").expect("read csv"), ctx)
}

/// The split of `ctx` by `fd` against the oracle projections of `rel`.
fn check_split(ctx: &AnalysisCtx, rel: &Relation, fd: &RankedFd) -> Result<(), TestCaseError> {
    let d = decompose(ctx, fd);
    let s2_attrs = rel.all_attrs().minus(fd.rhs.minus(fd.lhs));
    let s1 = project_distinct(rel, fd.attrs(), "S1");
    let s2 = project_distinct(rel, s2_attrs, &format!("{}_S2", rel.name()));
    prop_assert_eq!(d.s1_attrs, fd.attrs());
    prop_assert_eq!(d.s1_tuples, s1.n_tuples());
    prop_assert_eq!(d.s2.n_tuples(), s2.n_tuples());
    prop_assert_eq!(d.s2.content_hash(), s2.content_hash());
    prop_assert_eq!(d.cells_before, rel.n_tuples() * rel.n_attrs());
    let cells_after = s1.n_tuples() * s1.n_attrs() + s2.n_tuples() * s2.n_attrs();
    prop_assert_eq!(d.cells_after, cells_after);
    prop_assert!(d.storage_reduction().is_finite());

    // S1 ⋈ S2 on their shared attributes is R as a set, and each S2 row
    // joins exactly one S1 row.
    let s1_rows = rows(&ctx.derive_projected(d.s1_attrs, "S1"));
    let s2_rows = rows(&d.s2);
    let (s1_cols, s2_cols): (Vec<usize>, Vec<usize>) =
        (d.s1_attrs.iter().collect(), s2_attrs.iter().collect());
    let shared: Vec<usize> = d.s1_attrs.intersect(s2_attrs).iter().collect();
    let at = |cols: &[usize], a: usize| cols.iter().position(|&c| c == a).expect("attribute");
    let mut joined = Vec::new();
    for r2 in &s2_rows {
        for r1 in &s1_rows {
            if shared
                .iter()
                .all(|&a| r1[at(&s1_cols, a)] == r2[at(&s2_cols, a)])
            {
                let row: Vec<Option<String>> = (0..rel.n_attrs())
                    .map(|a| match s2_attrs.contains(a) {
                        true => r2[at(&s2_cols, a)].clone(),
                        false => r1[at(&s1_cols, a)].clone(),
                    })
                    .collect();
                joined.push(row);
            }
        }
    }
    prop_assert_eq!(joined.len(), s2_rows.len());
    let joined: BTreeSet<_> = joined.into_iter().collect();
    let original: BTreeSet<_> = rows(ctx).into_iter().collect();
    prop_assert_eq!(joined, original);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn split_matches_oracle_projections_and_is_lossless(rel in arb_relation()) {
        let ctx = AnalysisCtx::of(&rel);
        for fd in holding_fds(&rel) {
            check_split(&ctx, &rel, &fd)?;
        }
    }

    /// A store-backed context splits as the memory context over the same
    /// rows, wherever chunk boundaries fall, and materializes nothing.
    #[test]
    fn store_backed_split_matches_memory(rel in arb_relation()) {
        for chunk in [1usize, 4] {
            let (rel, chunked) = chunked_pair(&rel, chunk);
            let mem = AnalysisCtx::of(&rel);
            for fd in holding_fds(&rel) {
                check_split(&chunked, &rel, &fd)?;
                let (a, b) = (decompose(&chunked, &fd), decompose(&mem, &fd));
                prop_assert_eq!(a.s1_tuples, b.s1_tuples);
                prop_assert_eq!(a.s2.content_hash(), b.s2.content_hash());
                prop_assert_eq!(a.cells_after, b.cells_after);
            }
            prop_assert_eq!(chunked.view_stats().materializations, 0);
        }
    }
}

/// Relations over `names` with the given rows (`None` = NULL).
fn relation(names: &[&str], rows: &[&[Option<&str>]]) -> Relation {
    let mut b = RelationBuilder::new("deg", names);
    for row in rows {
        b.push_row(row);
    }
    b.build()
}

#[test]
fn storage_reduction_is_finite_on_degenerate_relations() {
    let (a, b, c) = (AttrSet::single(0), AttrSet::single(1), AttrSet::single(2));
    let x = Some("x");
    let cases = [
        // n = 0: no cells before or after.
        (relation(&["A", "B", "C"], &[]), ranked(a, b)),
        // A constant column, split off by the empty LHS.
        (
            relation(
                &["A", "B", "C"],
                &[&[x, Some("1"), None], &[x, Some("2"), None]],
            ),
            ranked(AttrSet::EMPTY, a),
        ),
        // An all-NULL column: one NULL class, so ∅ → C holds.
        (
            relation(
                &["A", "B", "C"],
                &[&[x, Some("1"), None], &[Some("y"), Some("2"), None]],
            ),
            ranked(AttrSet::EMPTY, c),
        ),
    ];
    for (rel, fd) in &cases {
        assert!(fd_holds(rel, fd.lhs, fd.rhs.iter().next().unwrap()));
        check_split(&AnalysisCtx::of(rel), rel, fd).unwrap();
    }
    // n = 0 stores no cells and saves none.
    let (empty, fd) = &cases[0];
    assert_eq!(
        decompose(&AnalysisCtx::of(empty), fd).storage_reduction(),
        0.0
    );
}
