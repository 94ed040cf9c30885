//! Degenerate relations through all three lattice walkers: TANE, the
//! `g3` approximate miner and the reliable (F̂) miner. Each case must
//! mine without panicking, TANE must equal the approximate miner at
//! ε = 0, and the outputs are pinned.

use dbmine_context::AnalysisCtx;
use dbmine_fdmine::{mine_approximate_ctx, mine_tane_ctx, Fd, TaneOptions};
use dbmine_oracles::mine_reliable_unpruned;
use dbmine_relation::{AttrSet, Relation, RelationBuilder};
use dbmine_reliability::{mine_reliable_ctx, ReliableOptions};

fn relation(attrs: &[&str], rows: &[Vec<Option<&str>>]) -> Relation {
    let mut b = RelationBuilder::new("degenerate", attrs);
    for row in rows {
        b.push_row(row);
    }
    b.build()
}

fn fd(lhs: &[usize], rhs: usize) -> Fd {
    Fd::new(lhs.iter().copied().collect::<AttrSet>(), rhs)
}

/// Mines `rel` with all three walkers and returns (exact, reliable)
/// dependency lists in `Fd` order, after checking TANE against the
/// approximate miner at ε = 0 and the reliable miner against the
/// unpruned walk.
fn mine_all(rel: &Relation) -> (Vec<Fd>, Vec<Fd>) {
    let ctx = AnalysisCtx::of(rel);
    let mut exact = mine_tane_ctx(&ctx, TaneOptions::default());
    exact.sort();
    let approx: Vec<Fd> = mine_approximate_ctx(&ctx, 0.0, None, 1)
        .iter()
        .map(|f| f.fd)
        .collect();
    assert_eq!(exact, approx, "TANE vs approximate at ε = 0");
    let pruned = mine_reliable_ctx(&ctx, ReliableOptions::default());
    let unpruned = mine_reliable_unpruned(&ctx, ReliableOptions::default().theta, None, 1);
    assert_eq!(pruned, unpruned, "pruning changed the result");
    (exact, pruned.iter().map(|f| f.fd).collect())
}

/// Four tuples over `A B C`: `A` is a key, `C` alternates, and `B`
/// holds `b` in every row.
fn constant_b(b: Option<&str>) -> Relation {
    let rows: Vec<Vec<Option<&str>>> = [("1", "p"), ("2", "q"), ("3", "p"), ("4", "q")]
        .iter()
        .map(|&(a, c)| vec![Some(a), b, Some(c)])
        .collect();
    relation(&["A", "B", "C"], &rows)
}

#[test]
fn header_only_relation_determines_every_attribute_from_nothing() {
    let (exact, reliable) = mine_all(&relation(&["A", "B", "C"], &[]));
    let every = vec![fd(&[], 0), fd(&[], 1), fd(&[], 2)];
    assert_eq!(exact, every);
    assert_eq!(reliable, every);
}

#[test]
fn single_tuple_makes_every_column_constant() {
    let (exact, reliable) = mine_all(&relation(
        &["A", "B", "C"],
        &[vec![Some("1"), Some("x"), Some("p")]],
    ));
    let every = vec![fd(&[], 0), fd(&[], 1), fd(&[], 2)];
    assert_eq!(exact, every);
    assert_eq!(reliable, every);
}

#[test]
fn single_attribute_yields_nothing() {
    let rows: Vec<Vec<Option<&str>>> = ["1", "2", "3"].iter().map(|&v| vec![Some(v)]).collect();
    let (exact, reliable) = mine_all(&relation(&["A"], &rows));
    assert!(exact.is_empty(), "{exact:?}");
    assert!(reliable.is_empty(), "{reliable:?}");
}

#[test]
fn constant_and_all_null_columns_follow_from_the_empty_set() {
    for b in [Some("x"), None] {
        let (exact, reliable) = mine_all(&constant_b(b));
        assert_eq!(exact, vec![fd(&[], 1), fd(&[0], 2)], "B = {b:?}");
        // A key of four tuples leaves too much chance agreement for
        // A → C to clear θ; the constant consequent scores F̂ = 1.
        assert_eq!(reliable, vec![fd(&[], 1)], "B = {b:?}");
    }
}

#[test]
fn duplicate_rows_keep_exact_fds_and_g3_errors() {
    let rows: Vec<Vec<Option<&str>>> = [("1", "x", "p"), ("2", "y", "p"), ("3", "y", "q")]
        .iter()
        .map(|&(a, b, c)| vec![Some(a), Some(b), Some(c)])
        .collect();
    let doubled: Vec<Vec<Option<&str>>> =
        rows.iter().flat_map(|r| [r.clone(), r.clone()]).collect();
    let once = relation(&["A", "B", "C"], &rows);
    let twice = relation(&["A", "B", "C"], &doubled);

    let (exact, reliable) = mine_all(&twice);
    assert_eq!(exact, mine_all(&once).0);
    assert_eq!(exact, vec![fd(&[0], 1), fd(&[0], 2), fd(&[1, 2], 0)]);
    assert_eq!(
        reliable,
        vec![fd(&[0], 1), fd(&[0], 2), fd(&[1], 0), fd(&[2], 0)]
    );
    // g3 is a fraction of tuples: doubling every row leaves it, bit for
    // bit, where it was.
    let g3 = |rel: &Relation| mine_approximate_ctx(&AnalysisCtx::of(rel), 0.5, None, 1);
    let (g_once, g_twice) = (g3(&once), g3(&twice));
    assert_eq!(g_once.len(), g_twice.len());
    for (x, y) in g_once.iter().zip(&g_twice) {
        assert_eq!(x.fd, y.fd);
        assert_eq!(x.error.to_bits(), y.error.to_bits(), "{}", x.fd);
    }
}
