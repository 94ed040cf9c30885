//! The levelwise lattice walk behind every partition-based FD miner.
//!
//! Exact TANE ([`crate::tane`], the `g3` test at ε = 0), the `g3`
//! approximate miner ([`crate::approximate`]) and the reliable (F̂)
//! miner of `dbmine-reliability` are one walk, which visits the
//! attribute-set lattice one level at a time, carrying one stripped
//! partition per set:
//!
//! * [`next_level`] — GENERATE_NEXT_LEVEL, the prefix join of one
//!   level's surviving sets into the next level's candidates and their
//!   partition products.
//! * [`walk_minimal`] — emits every *minimal* `X → A` a [`MinimalTest`]
//!   accepts. Candidates are scored in parallel, emissions merge
//!   serially in set order, and the sets that seed the join are chosen
//!   by the test's survivor filter (such as branch-and-bound) on every
//!   level but the last two of a bounded walk, then by whichever
//!   pruning rules below hold for the test.
//!
//! # Pruning: C⁺
//!
//! Every scored set `X` carries `C⁺(X)`, the walk's only pruning state:
//! the consequents `A ∈ R` for which no emitted `L → A` has
//! `L ⊆ X∖{A}`, narrowed by the exact-FD rule below (the rhs⁺
//! candidates of Huhtala et al., with the minimality check folded in).
//! `C⁺(∅) = R`, and on each level `k` the walk
//!
//! 1. scores `X∖{A} → A` for each `A ∈ X` in `∩_{B∈X} C⁺(X∖{B})`, over
//!    the previous level's sets: exactly the `A` that no emitted
//!    `L ⊆ X∖{A}` covers, so every emission is minimal;
//! 2. merges the level's emissions serially, each emitted `L → A`
//!    dropping `A` from the previous level's `C⁺(L)`;
//! 3. sets `C⁺(X) = ∩_{B∈X} C⁺(X∖{B})` over the updated sets, then
//!    narrows it by the exact-FD rule.
//!
//! A join candidate is kept only if all of its one-smaller subsets
//! survived, so the intersection reaches every subset of `X`. An
//! emitted `L ⊆ X∖{A}` with `|L| < k − 1` misses some `B ∈ X∖{A}`, and
//! `A` is already out of `C⁺(X∖{B})`; one with `|L| = k − 1` is some
//! `X∖{B}`, from which step 2 drops `A`. For `A ∉ X` that is a
//! sibling's emission: `(X∖{B}) ∪ {A}` emitted `X∖{B} → A`.
//!
//! No superset `Z` of `X` can emit `Z∖{A} → A` minimally for
//! `A ∉ C⁺(X)`: the emitted `L ⊆ X∖{A}` lies in `Z∖{A}`. So a set whose
//! `C⁺` is empty leaves the join under every test, and a survivor filter
//! ([`MinimalTest::survivors`]) bounds only the consequents in `C⁺(X)`.
//!
//! * **Exact FD** ([`MinimalTest::exact`]: `g3` at every ε). Emitting
//!   an exact `X∖{A} → A` narrows `C⁺(X)` to `X`. Then π_X =
//!   π_{X∖A}, so for `Z ⊇ X` and `B ∈ Z∖X`, π_{Z∖B} = π_{Z∖{A,B}} and
//!   π_Z = π_{Z∖A}: a score that is a function of the partitions gives
//!   `Z∖{B} → B` the value of the smaller `Z∖{A,B} → B`, so it is never
//!   minimal. F̂ is such a score, but the reliable test does not take
//!   the rule, which would change the candidates its branch-and-bound
//!   scores and bounds.
//! * **Key** ([`MinimalTest::key_score`]: only `g3` at ε = 0). A key
//!   `X` (π_X has no class) leaves the join, and `X → A` is emitted for
//!   each `A ∈ C⁺(X)∖X`. At ε = 0 this is sound because the walk is
//!   complete: `X → A` holds, and it is minimal unless some `X∖{B} → A`
//!   holds, when a minimal `L ⊆ X∖{B}` with `L → A` was emitted by
//!   level `k` and `A ∉ C⁺(X)`. Nothing is lost with the key's
//!   supersets: a superset `Z` of a key is a key, so an exact
//!   `Z∖{B} → B` makes `Z∖{B}` a key, from which a minimal one is
//!   emitted. At ε > 0 the rule loses dependencies: over `(a, b, c)`,
//!   the rows `a1 b1 c1 · a2 b2 c1 · a3 b1 c2 · a4 b2 c2 · a5 b1 c3 ·
//!   a6 b2 c3 · a7 b1 c4 · a10 b2 c4 · a8 b1 c5 · a9 b1 c5` make `{a}` a
//!   key and `[b,c] → [a]` minimal at `g3` = 0.1, but only the
//!   candidate `{a,b,c}` tests it, never generated once `{a}` is gone.
//!
//! # The last level of a bounded walk
//!
//! With `max_lhs = Some(k)`, level `k + 1` is scored but never joined,
//! so [`next_level`] builds only what its test reads there
//! ([`Build`]). `g3` needs no π_X (see below; at ε = 0,
//! [`Candidate::holds`] scans π_{X∖A} against π_A's class ids), so
//! its last level builds no products ([`Level::Unbuilt`]); F̂ reads
//! π_X's class sizes, so its last level is built by the counting loop
//! alone ([`StrippedPartition::product_sizes`]) as a [`Level::Sizes`].
//! No survivor filter or pruning rule reads that level's scores.
//!
//! Level `k` seeds only that last level, so the walk runs no survivor
//! filter on it either: filtering it would pay for every candidate's
//! bounds to save only some last-level products, and skipping a filter
//! only keeps sets, so the emissions are the same. The key and
//! empty-`C⁺` rules still run there. Each [`Candidate`] of the last two
//! levels says so in `reaches_survivors` (the reliable miner then skips
//! its bias term below θ).
//!
//! # `g3` from π_A
//!
//! A [`Candidate`] carries π_{X∖A}, π_X's class sizes (where built),
//! and π_A's class ids, built once per walk when a test first reads
//! them. Within a class of π_{X∖A}, π_X's classes are exactly π_A's
//! classes restricted to it, so `g3(X∖A → A)` from π_A's ids
//! ([`StrippedPartition::g3_error_ids`]) is bitwise equal to `g3`
//! against π_X.
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
use dbmine_telemetry::{counter_add, Counter, Span};
use fxhash::{FxHashMap, FxHashSet};
use std::sync::OnceLock;

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
        let Level::Parts(parts) = self else {
            panic!("the last level of a bounded walk is never joined")
        };
        parts
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
    // A candidate comes only from the block of its set minus its two
    // largest attributes, joined from the pair of those two: each is
    // enumerated once.
    let mut candidates: Vec<(AttrSet, u64, u64)> = Vec::new();
    for group in &blocks {
        for (i, &left) in group.iter().enumerate() {
            for &right in &group[i + 1..] {
                let x = left.union(right);
                if x.iter()
                    .all(|a| survivor_bits.contains(&x.without(a).bits()))
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
    /// false on the last two levels of a bounded walk, where emission
    /// and the walk's own rules are the only readers of a score.
    pub reaches_survivors: bool,
    /// `π_A`, and its per-tuple class ids, built once per walk on first
    /// read.
    a_part: &'a StrippedPartition,
    a_ids: &'a OnceLock<Vec<u32>>,
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

    /// Whether `X∖{A} → A` holds exactly: `e(π_{X∖A}) = e(π_X)`, O(1)
    /// where π_X's sizes are built; on a last level without them, a scan
    /// of π_{X∖A} against π_A's class ids that stops at the first class
    /// `A` splits ([`StrippedPartition::determines`]).
    pub fn holds(&self) -> bool {
        match self.x {
            Some(x) => self.lhs.error() == x.error(),
            None => self.lhs.determines(self.a_ids()),
        }
    }

    /// `g3(X∖{A} → A)`, from π_A's class ids (bitwise equal to `g3`
    /// against π_X; see the module docs).
    pub fn g3_error(&self, scratch: &mut PartitionScratch) -> f64 {
        self.lhs.g3_error_ids(self.a_ids(), scratch)
    }

    fn a_ids(&self) -> &[u32] {
        self.a_ids.get_or_init(|| self.a_part.class_ids())
    }
}

/// One step of a level of [`walk_minimal`], for [`MinimalTest::span`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// Scoring the level's candidates and merging their emissions.
    Score,
    /// Choosing the sets that seed the next level's join.
    Prune,
    /// The join and the level shift.
    Generate,
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

    /// Whether an emitted `score` says `X∖{A} → A` holds exactly, for a
    /// test whose score of any `Y → B` is a function of π_Y and
    /// π_{Y∪B}: the walk then takes the exact-FD rule (see the module
    /// docs). Default: false, the rule is not taken.
    fn exact(&self, _score: &Self::Score) -> bool {
        false
    }

    /// For a test that emits exactly the dependencies that hold, the
    /// score of each: the walk then takes the key rule (see the module
    /// docs) and emits each key's minimal `X → A` with it. Default:
    /// `None`, the rule is not taken.
    fn key_score(&self) -> Option<Self::Score> {
        None
    }

    /// The sets of a scored level that seed the next level's join; not
    /// called on the last two levels of a bounded walk.
    /// `tested[i]` holds `(a, score)` for every consequent of `sets[i]`
    /// that was scored (those no earlier emission covered), and
    /// `cplus[i]` is `C⁺(sets[i])` after this level's emissions: the
    /// only consequents that a superset of `sets[i]` can still emit
    /// (see the module docs). The walk then drops the sets its own
    /// rules prune. Default: every set survives.
    fn survivors(
        &self,
        sets: &[AttrSet],
        _parts: &FxHashMap<u64, StrippedPartition>,
        _tested: &[Vec<(usize, Self::Score)>],
        _cplus: &[AttrSet],
    ) -> Vec<AttrSet> {
        sets.to_vec()
    }

    /// The span covering one step of a level. Default: unobserved.
    fn span(&self, _step: Step) -> Option<Span> {
        None
    }
}

/// Walks the lattice from the single-attribute partitions `attr_parts`
/// of an `n`-tuple relation, emitting every minimal `X → A` the `test`
/// accepts with LHS size at most `max_lhs` (`None` = unbounded).
/// Returns the emissions with their scores, sorted by dependency, and
/// counts every scored set in `tane_lattice_nodes`.
///
/// Each `(lhs, rhs)` pair is tested from exactly one candidate, or
/// emitted by the key rule from its LHS, and no emitted LHS contains
/// its RHS, so the output needs no final sweep.
pub fn walk_minimal<T: MinimalTest>(
    n: usize,
    attr_parts: Vec<&StrippedPartition>,
    max_lhs: Option<usize>,
    threads: usize,
    test: &T,
) -> Vec<(Fd, T::Score)> {
    let r = AttrSet::full(attr_parts.len());
    let attr_ids: Vec<OnceLock<Vec<u32>>> = attr_parts.iter().map(|_| OnceLock::new()).collect();
    let mut found: Vec<(Fd, T::Score)> = Vec::new();
    // The previous level: its survivors' partitions, every set's C⁺.
    let mut prev_parts: FxHashMap<u64, StrippedPartition> =
        std::iter::once((AttrSet::EMPTY.bits(), StrippedPartition::of_empty(n))).collect();
    let mut prev_cplus: FxHashMap<u64, AttrSet> =
        std::iter::once((AttrSet::EMPTY.bits(), r)).collect();
    // Every X∖{B} survived, or X would not be a candidate.
    let subsets_cplus = |prev_cplus: &FxHashMap<u64, AttrSet>, x: AttrSet| {
        x.iter()
            .fold(r, |c, b| c.intersect(prev_cplus[&x.without(b).bits()]))
    };
    let mut sets: Vec<AttrSet> = (0..attr_parts.len()).map(AttrSet::single).collect();
    let mut current = Level::Parts(
        attr_parts
            .iter()
            .enumerate()
            .map(|(a, &p)| (AttrSet::single(a).bits(), p.clone()))
            .collect(),
    );
    let mut level = 1usize;

    while !sets.is_empty() {
        counter_add(Counter::TaneLatticeNodes, sets.len() as u64);
        // A bounded walk joins its level `max_lhs` only into the last
        // level, so no survivor filter runs there (see the module docs).
        let reaches_survivors = max_lhs.is_none_or(|max| level < max);
        let scoring = test.span(Step::Score);
        let tested: Vec<Vec<(usize, T::Score)>> =
            par_map_init(threads, &sets, PartitionScratch::new, |scratch, _, &x| {
                let x_sizes = current.sizes(x);
                x.intersect(subsets_cplus(&prev_cplus, x))
                    .iter()
                    .map(|a| {
                        let candidate = Candidate {
                            lhs: &prev_parts[&x.without(a).bits()],
                            x: x_sizes,
                            a,
                            reaches_survivors,
                            a_part: attr_parts[a],
                            a_ids: &attr_ids[a],
                        };
                        (a, test.score(&candidate, scratch))
                    })
                    .collect()
            });
        // The serial merge: each emitted `L → A` drops `A` from `C⁺(L)`,
        // which every `C⁺(X)` with `L ⊆ X` then reads (module docs).
        for (&x, cases) in sets.iter().zip(&tested) {
            for &(a, score) in cases.iter().filter(|(_, score)| test.emits(score)) {
                let lhs = x.without(a);
                found.push((Fd::new(lhs, a), score));
                let cplus = prev_cplus.get_mut(&lhs.bits()).expect("X∖{A} is a subset");
                *cplus = cplus.without(a);
            }
        }
        let cplus: Vec<AttrSet> = sets
            .iter()
            .zip(&tested)
            .map(|(&x, cases)| {
                let cplus = subsets_cplus(&prev_cplus, x);
                match cases.iter().any(|(_, s)| test.emits(s) && test.exact(s)) {
                    true => cplus.intersect(x),
                    false => cplus,
                }
            })
            .collect();
        drop(scoring);
        if max_lhs.is_some_and(|max| level > max) {
            break;
        }

        let mut parts = current.into_parts();
        let pruning = test.span(Step::Prune);
        let mut survivors = match reaches_survivors {
            true => test.survivors(&sets, &parts, &tested, &cplus),
            false => sets.clone(),
        };
        let mut pruned: FxHashSet<u64> = FxHashSet::default();
        for (&x, &cp) in sets.iter().zip(&cplus) {
            let key = test
                .key_score()
                .filter(|_| !cp.is_empty() && parts[&x.bits()].is_key());
            if let Some(score) = key {
                found.extend(cp.minus(x).iter().map(|a| (Fd::new(x, a), score)));
            }
            if cp.is_empty() || key.is_some() {
                pruned.insert(x.bits());
            }
        }
        survivors.retain(|x| !pruned.contains(&x.bits()));
        drop(pruning);

        let _generating = test.span(Step::Generate);
        // Scoring was the last reader of the previous level's partitions:
        // free them before the join allocates the next level.
        prev_parts.clear();
        let build = match max_lhs == Some(level) {
            false => Build::Parts,
            true if T::READS_X_SIZES => Build::Sizes,
            true => Build::Nothing,
        };
        let (next_sets, next) = next_level(threads, &survivors, &parts, build);
        // Only survivors are join parents, so only their partitions are
        // read again.
        if survivors.len() < sets.len() {
            let kept: FxHashSet<u64> = survivors.iter().map(|s| s.bits()).collect();
            parts.retain(|bits, _| kept.contains(bits));
        }
        prev_parts = parts;
        prev_cplus = sets.iter().map(|s| s.bits()).zip(cplus).collect();
        current = next;
        sets = next_sets;
        level += 1;
    }

    found.sort_by_key(|f| f.0);
    found
}
