//! The levelwise lattice walk shared by every partition-based FD miner.
//!
//! TANE ([`crate::tane`]), the `g3` approximate miner
//! ([`crate::approximate`]) and the reliable (F̂) miner of
//! `dbmine-reliability` all visit the attribute-set lattice one level at
//! a time, carrying one stripped partition per set. This module owns
//! the parts of that walk they share:
//!
//! * [`next_level`] — GENERATE_NEXT_LEVEL, the prefix join of one
//!   level's surviving sets into the next level's candidates and their
//!   partition products. TANE keeps its own rhs⁺ and key-pruning steps
//!   around the join.
//! * [`walk_minimal`] — the whole walk for miners that emit every
//!   *minimal* `X → A` passing a score test: minimality is checked
//!   against the LHSs emitted before the level started, candidates are
//!   scored in parallel, and emissions merge serially in set order. A
//!   [`MinimalTest`] supplies the score, the emission rule and
//!   (optionally) a survivor filter such as branch-and-bound.
//!
//! # The last level of a bounded walk
//!
//! With `max_lhs = Some(k)`, level `k + 1` is scored but never joined,
//! so [`next_level`] builds only what its test reads there
//! ([`Build`]): TANE decides `X∖A → A` by scanning π_{X∖A} against
//! π_A's class ids ([`StrippedPartition::determines`]), and `g3` needs
//! no π_X at all (see below), so their last level builds no products
//! ([`Level::Unbuilt`]); F̂ reads π_X's class sizes, so its last level
//! is built by the counting loop alone
//! ([`StrippedPartition::product_sizes`], one product each) as a
//! [`Level::Sizes`]. Every earlier level is a [`Level::Parts`].
//!
//! No survivor filter runs on that level either, so emission is the
//! only reader of its scores. Each [`Candidate`] says so in
//! `reaches_survivors`, which lets a test compute only what emission
//! reads there (the reliable miner skips its bias term below θ).
//!
//! # `g3` from π_A
//!
//! [`walk_minimal`] hands each test a [`Candidate`]: π_{X∖A}, π_X's
//! class sizes (where built), and π_A's class ids, computed once per
//! walk ([`attr_class_ids`]). Within a class of π_{X∖A}, π_X's classes
//! are exactly π_A's classes restricted to it, so `g3(X∖A → A)` from
//! π_A's ids ([`StrippedPartition::g3_error_ids`]) is bitwise equal to
//! `g3` against π_X.
//!
//! # Products per join parent
//!
//! [`next_level`] emits a level's candidates contiguously by left join
//! parent, and builds them one run per parent: it loads π_left's probe
//! table once ([`StrippedPartition::probe`]), computes the product (or
//! its sizes) with every right parent of the run, and unloads it. The
//! runs fan out in parallel, cut into one group of whole runs per
//! worker, and their results are reassembled in candidate order.
//!
//! Both steps fan out over `dbmine_parallel` with deterministic chunking
//! and one [`PartitionScratch`] per worker; candidates are enumerated
//! serially in survivor order, so every walk is bit-identical at every
//! thread count. Lattice maps are keyed by `u64` attribute-set bitmasks
//! under [`fxhash`].

use crate::fd::Fd;
use dbmine_parallel::{effective_threads, par_map_coarse, par_map_init};
use dbmine_relation::partition::{ClassSizes, PartitionScratch, Probe, StrippedPartition};
use dbmine_relation::AttrSet;
use dbmine_telemetry::Span;
use fxhash::{FxHashMap, FxHashSet};

/// One level's partitions, keyed by attribute-set bits.
pub enum Level {
    /// Materialized partitions: a level the walk may still join.
    Parts(FxHashMap<u64, StrippedPartition>),
    /// Class sizes only: the last level of a bounded walk whose test
    /// reads π_X's sizes.
    Sizes(FxHashMap<u64, ClassSizes>),
    /// Nothing built: the last level of a bounded walk whose test reads
    /// only π_{X∖A} and π_A.
    Unbuilt,
}

impl Level {
    /// The class sizes of `π_x`, if the level built them.
    pub fn sizes(&self, x: AttrSet) -> Option<&ClassSizes> {
        match self {
            Level::Parts(parts) => Some(parts[&x.bits()].sizes()),
            Level::Sizes(sizes) => Some(&sizes[&x.bits()]),
            Level::Unbuilt => None,
        }
    }

    /// The materialized partitions of a level the walk goes on from.
    ///
    /// # Panics
    ///
    /// On a last level: a walk never joins it.
    pub fn into_parts(self) -> FxHashMap<u64, StrippedPartition> {
        match self {
            Level::Parts(parts) => parts,
            Level::Sizes(_) | Level::Unbuilt => {
                panic!("the last level of a bounded walk is never joined")
            }
        }
    }
}

/// What [`next_level`] builds for each candidate.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Build {
    /// Full partitions ([`Level::Parts`]): a level the walk may join.
    Parts,
    /// Class sizes ([`Level::Sizes`]): a last level whose test reads
    /// π_X's sizes.
    Sizes,
    /// No products ([`Level::Unbuilt`]): a last level whose test reads
    /// only π_{X∖A} and π_A.
    Nothing,
}

/// The prefix join of one level: every pair of `survivors` that share
/// all but their largest attribute is joined into a candidate, kept only
/// if all of its one-smaller subsets survived. Returns the candidates in
/// enumeration order — contiguous by left join parent — with what
/// `build` asks for of the products of their two join parents'
/// partitions in `parts` (one probe load per left parent, the parents
/// in parallel with one scratch per worker).
pub fn next_level(
    threads: usize,
    survivors: &[AttrSet],
    parts: &FxHashMap<u64, StrippedPartition>,
    build: Build,
) -> (Vec<AttrSet>, Level) {
    let survivor_bits: FxHashSet<u64> = survivors.iter().map(|s| s.bits()).collect();
    // Prefix blocks, in first-seen order.
    let mut block_index: FxHashMap<u64, usize> = FxHashMap::default();
    let mut blocks: Vec<Vec<AttrSet>> = Vec::new();
    for &s in survivors {
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
        for (i, &left) in group.iter().enumerate() {
            for &right in &group[i + 1..] {
                let x = left.union(right);
                if x.iter()
                    .all(|a| survivor_bits.contains(&x.without(a).bits()))
                    && seen.insert(x.bits())
                {
                    candidates.push((x, left.bits(), right.bits()));
                }
            }
        }
    }
    let level = match build {
        Build::Parts => Level::Parts(products(threads, &candidates, parts, |probe, right| {
            probe.product(right)
        })),
        Build::Sizes => Level::Sizes(products(threads, &candidates, parts, |probe, right| {
            probe.product_sizes(right)
        })),
        Build::Nothing => Level::Unbuilt,
    };
    let sets = candidates.iter().map(|c| c.0).collect();
    (sets, level)
}

/// Each join candidate `(x, left, right)`'s `product` of its parents'
/// partitions, keyed by `x`'s bits. The candidates are cut into one
/// group of whole runs per worker (a run: the candidates of one left
/// parent); a worker walks its group run by run under one loaded probe
/// each, into one vector, and the groups are reassembled in candidate
/// order.
fn products<P: Send>(
    threads: usize,
    candidates: &[(AttrSet, u64, u64)],
    parts: &FxHashMap<u64, StrippedPartition>,
    product: fn(&mut Probe<'_>, &StrippedPartition) -> P,
) -> FxHashMap<u64, P> {
    let workers = if candidates.len() < SERIAL_BELOW {
        1
    } else {
        effective_threads(threads)
    };
    let groups = run_groups(candidates, workers);
    let products = par_map_coarse(threads, &groups, |_, group| {
        let mut scratch = PartitionScratch::new();
        let mut out = Vec::with_capacity(group.len());
        for run in group.chunk_by(|a, b| a.1 == b.1) {
            let mut probe = parts[&run[0].1].probe(&mut scratch);
            out.extend(
                run.iter()
                    .map(|&(_, _, right)| product(&mut probe, &parts[&right])),
            );
        }
        out
    });
    let mut level = FxHashMap::with_capacity_and_hasher(candidates.len(), Default::default());
    level.extend(
        candidates
            .iter()
            .map(|c| c.0.bits())
            .zip(products.into_iter().flatten()),
    );
    level
}

/// Below this many candidates a level's products run on one thread.
const SERIAL_BELOW: usize = 128;

/// `candidates` cut into at most `workers` contiguous groups of whole
/// runs of one left parent, each closed once it holds
/// `⌈len / workers⌉` candidates.
fn run_groups(candidates: &[(AttrSet, u64, u64)], workers: usize) -> Vec<&[(AttrSet, u64, u64)]> {
    let target = candidates.len().div_ceil(workers.max(1));
    let mut groups = Vec::with_capacity(workers);
    let (mut start, mut end) = (0, 0);
    for run in candidates.chunk_by(|a, b| a.1 == b.1) {
        end += run.len();
        if end - start >= target {
            groups.push(&candidates[start..end]);
            start = end;
        }
    }
    if start < end {
        groups.push(&candidates[start..end]);
    }
    groups
}

/// Every single-attribute partition's per-tuple class ids
/// ([`StrippedPartition::class_ids`]), indexed by attribute: the π_A
/// side of the walks' `g3` scores and of TANE's last-level test.
pub fn attr_class_ids(attr_parts: &[&StrippedPartition]) -> Vec<Vec<u32>> {
    attr_parts.iter().map(|p| p.class_ids()).collect()
}

/// One candidate `X∖{A} → A` as [`walk_minimal`] hands it to a test.
pub struct Candidate<'a> {
    /// `π_{X∖{A}}`.
    pub lhs: &'a StrippedPartition,
    /// The class sizes of `π_X`; `None` only on the last level of a
    /// bounded walk whose test does not read them
    /// ([`MinimalTest::READS_X_SIZES`]).
    x: Option<&'a ClassSizes>,
    /// The consequent `A`.
    pub a: usize,
    /// Whether this level's scores reach [`MinimalTest::survivors`]:
    /// false on the last level of a bounded walk, where emission is the
    /// only reader of a score.
    pub reaches_survivors: bool,
    /// `π_A`'s per-tuple class ids.
    a_ids: &'a [u32],
}

impl Candidate<'_> {
    /// The class sizes of `π_X`.
    ///
    /// # Panics
    ///
    /// On the last level of a bounded walk whose test declares
    /// [`MinimalTest::READS_X_SIZES`] false.
    pub fn x(&self) -> &ClassSizes {
        self.x
            .expect("a test that reads π_X's sizes declares READS_X_SIZES")
    }

    /// `g3(X∖{A} → A)`, from π_A's class ids (bitwise equal to `g3`
    /// against π_X; see the module docs).
    pub fn g3_error(&self, scratch: &mut PartitionScratch) -> f64 {
        self.lhs.g3_error_ids(self.a_ids, scratch)
    }
}

/// A miner's plug-ins for [`walk_minimal`].
pub trait MinimalTest: Sync {
    /// What scoring one candidate `X∖{A} → A` yields.
    type Score: Copy + Send + Sync;

    /// Whether [`Self::score`] reads π_X's class sizes
    /// ([`Candidate::x`]). A test that does not lets a bounded walk skip
    /// its last level's products. Default: true.
    const READS_X_SIZES: bool = true;

    /// Scores one candidate.
    fn score(&self, candidate: &Candidate<'_>, scratch: &mut PartitionScratch) -> Self::Score;
    /// Whether a scored candidate is emitted.
    fn emits(&self, score: &Self::Score) -> bool;

    /// The sets of a scored level that seed the next level's join.
    /// `tested[i]` holds `(a, score)` for every consequent of `sets[i]`
    /// that was scored (those covered at level start are absent), and
    /// `found_lhs[a]` every LHS emitted for `a` so far, this level's
    /// included. Default: every set survives.
    fn survivors(
        &self,
        sets: &[AttrSet],
        _parts: &FxHashMap<u64, StrippedPartition>,
        _tested: &[Vec<(usize, Self::Score)>],
        _found_lhs: &[Vec<AttrSet>],
    ) -> Vec<AttrSet> {
        sets.to_vec()
    }

    /// Called as a level of `n_sets` sets starts scoring; the returned
    /// span covers the scoring pass. Default: unobserved.
    fn scoring(&self, _n_sets: usize) -> Option<Span> {
        None
    }

    /// The span covering a level's join and level shift. Default:
    /// unobserved.
    fn generating(&self) -> Option<Span> {
        None
    }
}

/// Walks the lattice from the single-attribute partitions `attr_parts`
/// of an `n`-tuple relation, emitting every minimal `X → A` the `test`
/// accepts with LHS size at most `max_lhs` (`None` = unbounded).
/// Returns the emissions with their scores, sorted by dependency.
///
/// Minimality is checked against the LHSs emitted before the level
/// started: a same-level emission has the same LHS size as every
/// candidate under test, so it can never cover a sibling. Each
/// `(lhs, rhs)` pair is tested from exactly one candidate, and no
/// emitted LHS contains its RHS, so the output needs no final sweep.
pub fn walk_minimal<T: MinimalTest>(
    n: usize,
    attr_parts: Vec<&StrippedPartition>,
    max_lhs: Option<usize>,
    threads: usize,
    test: &T,
) -> Vec<(Fd, T::Score)> {
    let mut found: Vec<(Fd, T::Score)> = Vec::new();
    // Minimality: per RHS, the LHSs already emitted.
    let mut found_lhs: Vec<Vec<AttrSet>> = vec![Vec::new(); attr_parts.len()];
    let attr_ids = attr_class_ids(&attr_parts);
    let mut prev_parts: FxHashMap<u64, StrippedPartition> =
        std::iter::once((AttrSet::EMPTY.bits(), StrippedPartition::of_empty(n))).collect();
    let mut sets: Vec<AttrSet> = (0..attr_parts.len()).map(AttrSet::single).collect();
    let mut current = Level::Parts(
        attr_parts
            .into_iter()
            .enumerate()
            .map(|(a, p)| (AttrSet::single(a).bits(), p.clone()))
            .collect(),
    );
    let mut level = 1usize;

    while !sets.is_empty() {
        let reaches_survivors = max_lhs.is_none_or(|max| level <= max);
        let scoring = test.scoring(sets.len());
        let tested: Vec<Vec<(usize, T::Score)>> =
            par_map_init(threads, &sets, PartitionScratch::new, |scratch, _, &x| {
                let x_sizes = current.sizes(x);
                x.iter()
                    .filter_map(|a| {
                        let lhs = x.without(a);
                        if found_lhs[a].iter().any(|&f| f.is_subset_of(lhs)) {
                            return None; // a smaller LHS already works
                        }
                        let candidate = Candidate {
                            lhs: prev_parts.get(&lhs.bits())?,
                            x: x_sizes,
                            a,
                            reaches_survivors,
                            a_ids: &attr_ids[a],
                        };
                        Some((a, test.score(&candidate, scratch)))
                    })
                    .collect()
            });
        drop(scoring);
        for (&x, cases) in sets.iter().zip(&tested) {
            for &(a, score) in cases {
                if test.emits(&score) {
                    let fd = Fd::new(x.without(a), a);
                    found.push((fd, score));
                    found_lhs[a].push(fd.lhs);
                }
            }
        }
        if !reaches_survivors {
            break;
        }

        let parts = current.into_parts();
        let survivors = test.survivors(&sets, &parts, &tested, &found_lhs);
        let _generating = test.generating();
        // Scoring was the last reader of the previous level: free it
        // before the join allocates the next one.
        prev_parts.clear();
        let build = match max_lhs == Some(level) {
            false => Build::Parts,
            true if T::READS_X_SIZES => Build::Sizes,
            true => Build::Nothing,
        };
        let (next_sets, next) = next_level(threads, &survivors, &parts, build);
        prev_parts = parts;
        current = next;
        sets = next_sets;
        level += 1;
    }

    found.sort_by_key(|f| f.0);
    found
}
