//! TANE (Huhtala, Kärkkäinen, Porkka, Toivonen) — levelwise FD discovery
//! over stripped partitions, with rhs⁺-candidate and key pruning.
//!
//! Where FDEP compares all `O(n²)` tuple pairs, TANE's cost is governed
//! by the number of attribute sets it visits, making it the right miner
//! for the paper's large DBLP partitions (14k–36k tuples, few
//! attributes). Produces exactly the minimal, non-trivial FDs.
//!
//! # Performance architecture
//!
//! The lattice walk is the FD-discovery hot path (see DESIGN.md):
//!
//! * every partition is created once and carried with its precomputed
//!   TANE error, so validity tests are integer comparisons;
//! * partition products run through a reusable [`PartitionScratch`]
//!   (zero hashing, zero per-call allocation);
//! * key pruning memoizes `partition_of_set` in a level-local cache, so
//!   each subset partition is built once per level instead of once per
//!   (subset, rhs) pair;
//! * COMPUTE_DEPENDENCIES and GENERATE_NEXT_LEVEL fan out across
//!   `dbmine_parallel` with deterministic chunking — results are
//!   identical for every [`TaneOptions::threads`] value;
//! * lattice maps are keyed by `u64` attribute-set bitmasks under
//!   [`fxhash`] (SipHash setup dominates such maps otherwise).

use crate::fd::{normalize_fds, Fd};
use crate::partitions::{PartitionScratch, StrippedPartition};
use dbmine_context::AnalysisCtx;
use dbmine_parallel::{par_map, par_map_init};
use dbmine_relation::AttrSet;
use fxhash::{FxHashMap, FxHashSet};

/// Options for the TANE run.
#[derive(Clone, Copy, Debug)]
pub struct TaneOptions {
    /// Stop after this LHS size (None = unbounded). Bounding trades
    /// completeness for time on wide relations; dependencies with small
    /// LHSs — the ones FD-RANK cares about — are found first.
    pub max_lhs: Option<usize>,
    /// Worker threads for the levelwise steps (`1` = serial, `0` = all
    /// cores). Results are bit-identical for every thread count.
    pub threads: usize,
}

impl Default for TaneOptions {
    fn default() -> Self {
        TaneOptions {
            max_lhs: None,
            threads: 1,
        }
    }
}

/// A partition bundled with its precomputed TANE error `e(π)`, so the
/// hot validity test `e(π_X) == e(π_{X∖{A}})` never rescans classes.
struct Part {
    partition: StrippedPartition,
    error: usize,
}

impl Part {
    fn new(partition: StrippedPartition) -> Self {
        let error = partition.error();
        Part { partition, error }
    }
}

struct Level {
    /// Surviving sets, with partitions (for the next join) …
    parts: FxHashMap<u64, Part>,
    /// … and rhs⁺ candidate sets for *all* sets seen at this level
    /// (kept even for pruned sets; the key-pruning step reads them).
    cplus: FxHashMap<u64, AttrSet>,
}

/// Mines all minimal non-trivial FDs of the context's relation with
/// TANE, seeding level 1 from the context's memoized single-attribute
/// partitions (shared with FD-RANK, the approximate miner, …).
pub fn mine_tane_ctx(ctx: &AnalysisCtx, options: TaneOptions) -> Vec<Fd> {
    let m = ctx.n_attrs();
    let r = ctx.all_attrs();
    let threads = options.threads;
    let mut out: Vec<Fd> = Vec::new();
    // Persistent single-attribute partitions (level 1 + key pruning),
    // cloned out of the shared view cache so the lattice walk keeps
    // owning its own copies.
    let attr_parts: Vec<StrippedPartition> = ctx
        .attr_partitions_with(threads)
        .into_iter()
        .cloned()
        .collect();

    // Level 0: the empty set.
    let mut prev = Level {
        parts: std::iter::once((
            AttrSet::EMPTY.bits(),
            Part::new(StrippedPartition::of_empty(ctx.n_tuples())),
        ))
        .collect(),
        cplus: std::iter::once((AttrSet::EMPTY.bits(), r)).collect(),
    };
    // Level 1 candidates: all single attributes.
    let mut current_sets: Vec<AttrSet> = (0..m).map(AttrSet::single).collect();
    let mut current_parts: FxHashMap<u64, Part> = (0..m)
        .map(|a| (AttrSet::single(a).bits(), Part::new(attr_parts[a].clone())))
        .collect();
    let mut level = 1usize;
    let mut prune_scratch = PartitionScratch::new();

    let _span = dbmine_telemetry::span("tane.run");
    while !current_sets.is_empty() {
        dbmine_telemetry::counter_add(
            dbmine_telemetry::Counter::TaneLatticeNodes,
            current_sets.len() as u64,
        );
        // COMPUTE_DEPENDENCIES: each set's candidate-rhs narrowing and
        // validity tests read only the previous level, so the sets fan
        // out in parallel; the serial merge below keeps emission order
        // (and therefore the whole run) independent of the chunking.
        let compute_span = dbmine_telemetry::span("tane.compute_dependencies");
        let computed: Vec<(AttrSet, Vec<Fd>)> = par_map(threads, &current_sets, |_, &x| {
            // C+(X) = ∩_{A∈X} C+(X∖{A}).
            let mut cp = r;
            for a in x.iter() {
                match prev.cplus.get(&x.without(a).bits()) {
                    Some(&c) => cp = cp.intersect(c),
                    None => {
                        cp = AttrSet::EMPTY;
                        break;
                    }
                }
            }
            let px_error = current_parts[&x.bits()].error;
            let mut fds = Vec::new();
            for a in x.intersect(cp).iter() {
                let parent = x.without(a);
                let valid = match prev.parts.get(&parent.bits()) {
                    Some(pp) => pp.error == px_error,
                    None => false, // parent pruned ⇒ a smaller FD exists
                };
                if valid {
                    fds.push(Fd::new(parent, a));
                    cp = cp.without(a);
                    cp = cp.minus(r.minus(x));
                }
            }
            (cp, fds)
        });
        let mut cplus: FxHashMap<u64, AttrSet> =
            FxHashMap::with_capacity_and_hasher(current_sets.len(), Default::default());
        for (x, (cp, fds)) in current_sets.iter().zip(&computed) {
            out.extend(fds.iter().copied());
            cplus.insert(x.bits(), *cp);
        }
        drop(compute_span);

        // Bounded search: level ℓ's COMPUTE step emits LHSs of size ℓ-1,
        // so after computing level max_lhs+1 we are done.
        if options.max_lhs.is_some_and(|max| level > max) {
            break;
        }

        // PRUNE (serial: keys are rare). The level-local cache
        // memoizes subset partitions so each is built once per level,
        // not once per (subset, rhs) pair.
        let prune_span = dbmine_telemetry::span("tane.prune");
        let mut pruned: Vec<u64> = Vec::new();
        let mut key_cache: FxHashMap<u64, Part> = FxHashMap::default();
        for &x in &current_sets {
            let cp = cplus[&x.bits()];
            if cp.is_empty() {
                pruned.push(x.bits());
                continue;
            }
            if current_parts[&x.bits()].partition.is_key() {
                // X is a key: X → A is valid for every A. Emit the minimal
                // ones — those where no (X∖{B}) → A holds. The sets
                // X∪{A}∖{B} the original C⁺ test consults may never have
                // been generated, so we verify minimality directly on
                // partitions (keys are rare enough for this to be cheap).
                for a in cp.minus(x).iter() {
                    let minimal = x.iter().all(|b| {
                        let sub = x.without(b);
                        let e_sub = cached_error(
                            sub,
                            &attr_parts,
                            ctx.n_tuples(),
                            &prev.parts,
                            &current_parts,
                            &mut key_cache,
                            &mut prune_scratch,
                        );
                        let e_sub_a = cached_error(
                            sub.with(a),
                            &attr_parts,
                            ctx.n_tuples(),
                            &prev.parts,
                            &current_parts,
                            &mut key_cache,
                            &mut prune_scratch,
                        );
                        e_sub != e_sub_a
                    });
                    if minimal {
                        out.push(Fd::new(x, a));
                    }
                }
                pruned.push(x.bits());
            }
        }
        let pruned_set: FxHashSet<u64> = pruned.into_iter().collect();
        let survivors: Vec<AttrSet> = current_sets
            .iter()
            .copied()
            .filter(|x| !pruned_set.contains(&x.bits()))
            .collect();
        drop(prune_span);

        // GENERATE_NEXT_LEVEL: prefix join over survivors. Candidates
        // are enumerated serially in survivor order (deterministic —
        // the old map-iteration order leaked the hasher), then their
        // partition products fan out with one scratch per worker.
        let generate_span = dbmine_telemetry::span("tane.generate_next_level");
        let survivor_bits: FxHashSet<u64> = survivors.iter().map(|s| s.bits()).collect();
        let mut block_index: FxHashMap<u64, usize> = FxHashMap::default();
        let mut blocks: Vec<Vec<AttrSet>> = Vec::new();
        for &s in &survivors {
            let max_attr = s.iter().last().expect("non-empty set");
            let idx = *block_index
                .entry(s.without(max_attr).bits())
                .or_insert_with(|| {
                    blocks.push(Vec::new());
                    blocks.len() - 1
                });
            blocks[idx].push(s);
        }
        let mut seen: FxHashSet<u64> = FxHashSet::default();
        let mut candidates: Vec<(AttrSet, u64, u64)> = Vec::new();
        for group in &blocks {
            for i in 0..group.len() {
                for j in (i + 1)..group.len() {
                    let x = group[i].union(group[j]);
                    // All |X|-1-subsets must have survived.
                    if !x
                        .iter()
                        .all(|a| survivor_bits.contains(&x.without(a).bits()))
                    {
                        continue;
                    }
                    if seen.insert(x.bits()) {
                        candidates.push((x, group[i].bits(), group[j].bits()));
                    }
                }
            }
        }
        let products: Vec<Part> = par_map_init(
            threads,
            &candidates,
            PartitionScratch::new,
            |scratch, _, &(_, left, right)| {
                Part::new(
                    current_parts[&left]
                        .partition
                        .product_with(&current_parts[&right].partition, scratch),
                )
            },
        );
        let mut next_sets: Vec<AttrSet> = Vec::with_capacity(candidates.len());
        let mut next_parts: FxHashMap<u64, Part> =
            FxHashMap::with_capacity_and_hasher(candidates.len(), Default::default());
        for (&(x, _, _), part) in candidates.iter().zip(products) {
            next_parts.insert(x.bits(), part);
            next_sets.push(x);
        }

        // Shift levels: keep partitions only for survivors (join parents),
        // but cplus for everything at this level.
        let mut survivor_parts =
            FxHashMap::with_capacity_and_hasher(survivors.len(), Default::default());
        for &s in &survivors {
            if let Some(p) = current_parts.remove(&s.bits()) {
                survivor_parts.insert(s.bits(), p);
            }
        }
        prev = Level {
            parts: survivor_parts,
            cplus,
        };
        current_sets = next_sets;
        current_parts = next_parts;
        level += 1;
        drop(generate_span);
    }

    normalize_fds(out)
}

/// The TANE error of `π_set`, served from (in order) the previous
/// level's survivors, the current level, or the level-local `cache`;
/// cache misses materialize the partition by extending the partition of
/// `set ∖ {max attr}` with one scratch-reused product, so a subset is
/// built at most once per level.
#[allow(clippy::too_many_arguments)]
fn cached_error(
    set: AttrSet,
    attr_parts: &[StrippedPartition],
    n: usize,
    prev_parts: &FxHashMap<u64, Part>,
    current_parts: &FxHashMap<u64, Part>,
    cache: &mut FxHashMap<u64, Part>,
    scratch: &mut PartitionScratch,
) -> usize {
    if let Some(p) = prev_parts.get(&set.bits()) {
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::TanePruneCacheHits, 1);
        return p.error;
    }
    if let Some(p) = current_parts.get(&set.bits()) {
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::TanePruneCacheHits, 1);
        return p.error;
    }
    if let Some(p) = cache.get(&set.bits()) {
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::TanePruneCacheHits, 1);
        return p.error;
    }
    dbmine_telemetry::counter_add(dbmine_telemetry::Counter::TanePruneCacheMisses, 1);
    let partition = match set.len() {
        0 => StrippedPartition::of_empty(n),
        1 => attr_parts[set.iter().next().expect("non-empty")].clone(),
        _ => {
            let last = set.iter().last().expect("non-empty");
            let prefix = set.without(last);
            // Materialize the prefix (recursion depth ≤ |set|) …
            cached_error(
                prefix,
                attr_parts,
                n,
                prev_parts,
                current_parts,
                cache,
                scratch,
            );
            // … then extend it by one product.
            let prefix_part = prev_parts
                .get(&prefix.bits())
                .or_else(|| current_parts.get(&prefix.bits()))
                .or_else(|| cache.get(&prefix.bits()))
                .expect("prefix just materialized");
            prefix_part
                .partition
                .product_with(&attr_parts[last], scratch)
        }
    };
    let part = Part::new(partition);
    let error = part.error;
    cache.insert(set.bits(), part);
    error
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::mine_brute;
    use crate::fdep::mine_fdep_ctx;
    use dbmine_relation::paper::{figure1, figure4, figure5};
    use dbmine_relation::RelationBuilder;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn figure4_matches_fdep_and_brute() {
        for rel in [figure1(), figure4(), figure5()] {
            let mut tane = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default());
            let mut fdep = mine_fdep_ctx(&AnalysisCtx::of(&rel));
            let mut brute = mine_brute(&rel);
            tane.sort();
            fdep.sort();
            brute.sort();
            assert_eq!(tane, brute, "tane vs brute on {}", rel.name());
            assert_eq!(tane, fdep, "tane vs fdep on {}", rel.name());
        }
    }

    #[test]
    fn random_relations_match_brute_force() {
        let mut rng = StdRng::seed_from_u64(42);
        for trial in 0..25 {
            let m = rng.gen_range(2..=5);
            let n = rng.gen_range(2..=14);
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for _ in 0..n {
                let row: Vec<String> = (0..m)
                    .map(|a| format!("v{}_{}", a, rng.gen_range(0..3)))
                    .collect();
                let cells: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_row_strs(&cells);
            }
            let rel = b.build();
            let mut tane = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default());
            let mut brute = mine_brute(&rel);
            tane.sort();
            brute.sort();
            assert_eq!(tane, brute, "trial {trial} mismatch");
        }
    }

    #[test]
    fn thread_counts_agree() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..5 {
            let m = rng.gen_range(3..=6);
            let n = rng.gen_range(20..=60);
            let names: Vec<String> = (0..m).map(|a| format!("A{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = RelationBuilder::new("rand", &refs);
            for _ in 0..n {
                let row: Vec<String> = (0..m)
                    .map(|a| format!("v{}_{}", a, rng.gen_range(0..4)))
                    .collect();
                let cells: Vec<&str> = row.iter().map(String::as_str).collect();
                b.push_row_strs(&cells);
            }
            let rel = b.build();
            let serial = mine_tane_ctx(
                &AnalysisCtx::of(&rel),
                TaneOptions {
                    threads: 1,
                    ..Default::default()
                },
            );
            for threads in [0, 2, 4] {
                let parallel = mine_tane_ctx(
                    &AnalysisCtx::of(&rel),
                    TaneOptions {
                        threads,
                        ..Default::default()
                    },
                );
                assert_eq!(serial, parallel, "threads = {threads}");
            }
        }
    }

    #[test]
    fn composite_key_discovered() {
        // (A,B) is a key but neither attribute alone is.
        let mut b = RelationBuilder::new("ck", &["A", "B", "C"]);
        b.push_row_strs(&["1", "1", "x"]);
        b.push_row_strs(&["1", "2", "y"]);
        b.push_row_strs(&["2", "1", "y"]);
        b.push_row_strs(&["2", "2", "x"]);
        let rel = b.build();
        let fds = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default());
        assert!(fds.contains(&Fd::new(set(&[0, 1]), 2)));
        assert!(!fds.iter().any(|f| f.rhs == 2 && f.lhs.len() < 2));
    }

    #[test]
    fn max_lhs_bounds_results() {
        let mut b = RelationBuilder::new("ck", &["A", "B", "C"]);
        b.push_row_strs(&["1", "1", "x"]);
        b.push_row_strs(&["1", "2", "y"]);
        b.push_row_strs(&["2", "1", "y"]);
        b.push_row_strs(&["2", "2", "x"]);
        let rel = b.build();
        let fds = mine_tane_ctx(
            &AnalysisCtx::of(&rel),
            TaneOptions {
                max_lhs: Some(1),
                ..Default::default()
            },
        );
        assert!(fds.iter().all(|f| f.lhs.len() <= 1));
    }

    #[test]
    fn all_distinct_relation_has_single_attribute_keys() {
        let mut b = RelationBuilder::new("d", &["A", "B"]);
        b.push_row_strs(&["1", "x"]);
        b.push_row_strs(&["2", "y"]);
        let rel = b.build();
        let fds = mine_tane_ctx(&AnalysisCtx::of(&rel), TaneOptions::default());
        // A → B and B → A.
        assert!(fds.contains(&Fd::new(set(&[0]), 1)));
        assert!(fds.contains(&Fd::new(set(&[1]), 0)));
    }
}
