//! Apriori frequent-itemset mining over attribute values.
//!
//! Each tuple is a transaction whose items are its (globally interned)
//! attribute values. Candidate `k+1`-itemsets are generated from
//! frequent `k`-itemsets by prefix join and pruned by the a-priori
//! property before support counting.

use dbmine_context::AnalysisCtx;
use dbmine_relation::ValueId;
use std::collections::{HashMap, HashSet};

/// A frequent set of attribute values with its support.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FrequentItemset {
    /// Member value ids, sorted ascending.
    pub items: Vec<ValueId>,
    /// Number of tuples containing every member.
    pub support: usize,
}

/// Mines all itemsets with support ≥ `min_support` (absolute count) and
/// `min_size` ≤ size ≤ `max_size`, sorted by descending support then
/// ascending items. The transactions are read in one pass over
/// [`AnalysisCtx::chunks`].
///
/// The levelwise expansion stops at itemsets of `max_size` items; with
/// no cap (`usize::MAX`), dense relations (many values co-occurring in
/// ≥ `min_support` tuples) make the enumeration exponential.
pub fn mine_frequent_itemsets(
    ctx: &AnalysisCtx,
    min_support: usize,
    min_size: usize,
    max_size: usize,
) -> Vec<FrequentItemset> {
    assert!(min_support >= 1, "support threshold must be positive");
    // Transactions: sorted, deduplicated value lists.
    let mut transactions: Vec<Vec<ValueId>> = Vec::with_capacity(ctx.n_tuples());
    for chunk in ctx.chunks() {
        for t in 0..chunk.n_rows() {
            let mut items: Vec<ValueId> = chunk.row_values(t).collect();
            items.sort_unstable();
            items.dedup();
            transactions.push(items);
        }
    }

    // L1.
    let mut counts: HashMap<ValueId, usize> = HashMap::new();
    for tr in &transactions {
        for &v in tr {
            *counts.entry(v).or_insert(0) += 1;
        }
    }
    let mut frequent: Vec<FrequentItemset> = Vec::new();
    let mut current: Vec<Vec<ValueId>> = counts
        .iter()
        .filter(|&(_, &c)| c >= min_support)
        .map(|(&v, _)| vec![v])
        .collect();
    current.sort();
    for set in &current {
        frequent.push(FrequentItemset {
            items: set.clone(),
            support: counts[&set[0]],
        });
    }

    // Levelwise extension.
    let mut size = 1usize;
    while !current.is_empty() && size < max_size {
        size += 1;
        let candidates = next_candidates(&current);
        if candidates.is_empty() {
            break;
        }
        // Support counting.
        let mut cand_counts: HashMap<&[ValueId], usize> = HashMap::new();
        for tr in &transactions {
            for cand in &candidates {
                if is_subsequence(cand, tr) {
                    *cand_counts.entry(cand.as_slice()).or_insert(0) += 1;
                }
            }
        }
        let mut next: Vec<Vec<ValueId>> = Vec::new();
        for cand in &candidates {
            if let Some(&c) = cand_counts.get(cand.as_slice()) {
                if c >= min_support {
                    frequent.push(FrequentItemset {
                        items: cand.clone(),
                        support: c,
                    });
                    next.push(cand.clone());
                }
            }
        }
        next.sort();
        current = next;
    }

    frequent.retain(|f| f.items.len() >= min_size);
    frequent.sort_by(|a, b| b.support.cmp(&a.support).then(a.items.cmp(&b.items)));
    frequent
}

/// Candidate `k+1`-itemsets from the frequent `k`-itemsets: prefix join
/// plus the a-priori prune (all `k`-subsets must be frequent).
fn next_candidates(current: &[Vec<ValueId>]) -> Vec<Vec<ValueId>> {
    let prev: HashSet<&[ValueId]> = current.iter().map(|s| s.as_slice()).collect();
    let mut candidates: Vec<Vec<ValueId>> = Vec::new();
    for i in 0..current.len() {
        for j in (i + 1)..current.len() {
            let (a, b) = (&current[i], &current[j]);
            if a[..a.len() - 1] != b[..b.len() - 1] {
                continue;
            }
            let mut cand = a.clone();
            cand.push(b[b.len() - 1]);
            let prunable = (0..cand.len() - 1).any(|drop| {
                let sub: Vec<ValueId> = cand
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| k != drop)
                    .map(|(_, &v)| v)
                    .collect();
                !prev.contains(sub.as_slice())
            });
            if !prunable {
                candidates.push(cand);
            }
        }
    }
    candidates
}

/// True if sorted `needle` is a subset of sorted `haystack`.
fn is_subsequence(needle: &[ValueId], haystack: &[ValueId]) -> bool {
    let mut it = haystack.iter();
    'outer: for &x in needle {
        for &y in it.by_ref() {
            match y.cmp(&x) {
                std::cmp::Ordering::Equal => continue 'outer,
                std::cmp::Ordering::Greater => return false,
                std::cmp::Ordering::Less => {}
            }
        }
        return false;
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::figure4;
    use dbmine_relation::{csv, ShardedRelation};

    /// Every itemset of `figure4` at `min_support`, sizes from
    /// `min_size` up.
    fn figure4_sets(min_support: usize, min_size: usize) -> Vec<FrequentItemset> {
        mine_frequent_itemsets(
            &AnalysisCtx::of(&figure4()),
            min_support,
            min_size,
            usize::MAX,
        )
    }

    #[test]
    fn figure4_pairs_match_cvd() {
        // The perfectly co-occurring pairs {a,1} (support 2) and {2,x}
        // (support 3) are exactly the frequent 2-itemsets at min support 2.
        let rel = figure4();
        let sets = figure4_sets(2, 2);
        let a = rel.dict().lookup("a").unwrap();
        let one = rel.dict().lookup("1").unwrap();
        let two = rel.dict().lookup("2").unwrap();
        let x = rel.dict().lookup("x").unwrap();
        let mut a1 = vec![a, one];
        a1.sort_unstable();
        let mut tx = vec![two, x];
        tx.sort_unstable();
        assert!(sets.iter().any(|s| s.items == tx && s.support == 3));
        assert!(sets.iter().any(|s| s.items == a1 && s.support == 2));
        assert_eq!(sets.len(), 2, "{sets:?}");
    }

    #[test]
    fn singletons_when_min_size_one() {
        let sets = figure4_sets(3, 1);
        // Values with support ≥ 3: "2" and "x" (plus their pair).
        assert!(sets.iter().any(|s| s.items.len() == 1 && s.support == 3));
        assert!(sets.iter().all(|s| s.support >= 3));
    }

    #[test]
    fn support_ordering() {
        let sets = figure4_sets(2, 1);
        for w in sets.windows(2) {
            assert!(w[0].support >= w[1].support);
        }
    }

    #[test]
    fn high_threshold_yields_nothing() {
        assert!(figure4_sets(10, 1).is_empty());
    }

    #[test]
    fn subsequence_check() {
        assert!(is_subsequence(&[2, 5], &[1, 2, 3, 5]));
        assert!(!is_subsequence(&[2, 6], &[1, 2, 3, 5]));
        assert!(is_subsequence(&[], &[1]));
        assert!(!is_subsequence(&[1], &[]));
    }

    #[test]
    #[should_panic(expected = "support threshold")]
    fn zero_support_panics() {
        figure4_sets(0, 1);
    }

    #[test]
    fn size_cap_limits_enumeration() {
        let ctx = AnalysisCtx::of(&figure4());
        let capped = mine_frequent_itemsets(&ctx, 2, 1, 1);
        assert!(capped.iter().all(|s| s.items.len() == 1));
        let pairs = mine_frequent_itemsets(&ctx, 2, 1, 2);
        assert!(pairs.iter().any(|s| s.items.len() == 2));
        assert!(pairs.iter().all(|s| s.items.len() <= 2));
    }

    #[test]
    fn store_backed_context_mines_like_memory() {
        // NULLs are items too; 2-tuple chunks split the supporting rows.
        let text = "A,B,C\na,1,p\na,1,\nw,2,x\n,2,x\nz,2,x\na,1,p\n";
        let dir = std::env::temp_dir().join("dbmine_apriori_store");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("t_{}.csv", std::process::id()));
        std::fs::write(&path, text).unwrap();
        let store = path.with_extension("dbss");
        let chunked = ShardedRelation::scan_csv_path_spill(&path, 2, &store)
            .and_then(AnalysisCtx::from_chunks)
            .unwrap();
        let mem = AnalysisCtx::of(&csv::read_relation_path(&path).unwrap());
        for (support, max_size) in [(1, usize::MAX), (2, usize::MAX), (2, 2), (3, 1)] {
            let want = mine_frequent_itemsets(&mem, support, 1, max_size);
            assert!(!want.is_empty());
            assert_eq!(mine_frequent_itemsets(&chunked, support, 1, max_size), want);
        }
        assert_eq!(chunked.view_stats().materializations, 0);
        std::fs::remove_file(path).ok();
        std::fs::remove_file(store).ok();
    }
}
