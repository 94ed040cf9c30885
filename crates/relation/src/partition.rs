//! Stripped partitions (the workhorse of TANE and of direct FD checks).
//!
//! The partition `π_X` groups tuples agreeing on the attribute set `X`.
//! A *stripped* partition drops singleton classes; its `error` value
//! `e(π) = ‖π‖ − |π|` (total tuples in non-singleton classes minus class
//! count) is what makes exact FD tests O(1) once partitions exist:
//! `X → A` holds iff `e(π_X) = e(π_{X∪A})`.
//!
//! # Layout
//!
//! A partition is flat: one `tuples` list holding every class back to
//! back, each class ascending, plus the class boundaries in
//! [`ClassSizes`] (`ends[i]` = one past class `i`'s last position). A
//! partition therefore costs two allocations however many classes it
//! has, and `‖π‖`, `|π|`, `e(π)` and every class size are O(1) or a
//! slice read. [`ClassSizes`] on its own — boundaries without tuples —
//! is what a summary-only product yields.
//!
//! # Class order
//!
//! Class order is *not* an invariant. [`StrippedPartition::of_attr`]
//! keeps first-tuple order, products emit classes in kernel order, and
//! every consumer (errors, `g3`, size multisets, class ids) reads only
//! counts and sizes. Compare partitions through
//! [`StrippedPartition::canonical`].
//!
//! # The product kernel
//!
//! `π_L · π_R` loads `π_L`'s class of every tuple into a probe table
//! ([`StrippedPartition::probe`]) and then makes one pass over `π_R`'s
//! classes. For each class it *counts*, per class of `π_L` the class
//! touches, how many of its tuples fall there; each tally is the size of
//! one class of the product (kept if ≥ 2), and kept tallies take the
//! next slot ranges of the output. It then *places* the class's tuples
//! into those slots while the class is still in cache, skipping classes
//! with no tally ≥ 2. [`Probe::product`] counts and places;
//! [`Probe::product_sizes`] only counts and returns the product's
//! [`ClassSizes`]. One loaded probe serves any number of right
//! partitions (the lattice walks join each left parent with all of its
//! right siblings), and [`StrippedPartition::product_with`] is the
//! one-product form. No pass sorts, hashes or allocates per class; the
//! result is copied out of reused scratch buffers into exactly sized
//! vectors.

use crate::attrset::AttrSet;
use crate::relation::{AttrId, Relation};
use crate::shard::RelationChunk;
use std::borrow::{Borrow, Cow};

/// Marks a probe-table entry as unset (tuple outside every class, or
/// class not yet touched by the current scan).
const UNSET: u32 = u32::MAX;
/// Marks a product group of size 1 during placement (stripped).
const SINGLETON: u32 = u32::MAX - 1;

/// The class sizes of a stripped partition, stored as class boundaries:
/// `ends[i]` is one past the last flat position of class `i`, so class
/// `i` has `ends[i] − ends[i−1]` tuples. Sizes are ≥ 2 (singletons are
/// stripped) and listed in the partition's class order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ClassSizes {
    ends: Vec<u32>,
    n: usize,
}

impl ClassSizes {
    /// Number of tuples of the underlying relation.
    pub fn n(&self) -> usize {
        self.n
    }

    /// `|π|`: number of stripped (size ≥ 2) classes.
    pub fn n_classes(&self) -> usize {
        self.ends.len()
    }

    /// `‖π‖`: number of tuples covered by the stripped classes.
    pub fn covered(&self) -> usize {
        self.ends.last().map_or(0, |&e| e as usize)
    }

    /// The TANE error value `e(π) = ‖π‖ − |π|`.
    pub fn error(&self) -> usize {
        self.covered() - self.n_classes()
    }

    /// Number of equivalence classes of the *unstripped* partition
    /// (stripped classes plus singletons) — i.e. the distinct count of
    /// the projection.
    pub fn class_count(&self) -> usize {
        self.n - self.error()
    }

    /// True if the attribute set is a superkey (every class a singleton).
    pub fn is_key(&self) -> bool {
        self.ends.is_empty()
    }

    /// The stripped class sizes, in class order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        (0..self.ends.len()).map(move |i| self.size(i))
    }

    /// Class `i`'s size.
    fn size(&self, i: usize) -> usize {
        (self.ends[i] - self.start(i)) as usize
    }

    /// Class `i`'s first flat position.
    fn start(&self, i: usize) -> u32 {
        if i == 0 {
            0
        } else {
            self.ends[i - 1]
        }
    }
}

/// A stripped partition: equivalence classes of size ≥ 2, stored flat
/// (see the module docs). Each class lists its tuple indices ascending;
/// class order is whatever the constructor produced.
///
/// The derived `PartialEq` compares layouts, class order included; use
/// [`Self::canonical`] on both sides to compare partitions as sets of
/// classes.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StrippedPartition {
    /// Every class's tuples, back to back.
    tuples: Vec<u32>,
    /// Class boundaries into `tuples`, and `n`.
    sizes: ClassSizes,
}

/// Reusable workspace for the partition hot path.
///
/// [`StrippedPartition::product_with`] and
/// [`StrippedPartition::g3_error_with`] need O(n) probe tables;
/// allocating them per call dominates the TANE lattice walk, where every
/// level performs thousands of products over the same relation. A
/// caller-owned scratch amortizes those tables across calls: buffers
/// only ever grow, and every operation restores the "clean" invariant
/// (probe entries back to their sentinel, counts zero) before
/// returning, so one scratch serves arbitrarily many partitions — even
/// of different relations.
///
/// Not `Clone`/`Sync` on purpose: each worker thread owns its own
/// scratch (see `dbmine_parallel::par_map_init`).
#[derive(Debug, Default)]
pub struct PartitionScratch {
    /// tuple → class id in the left partition (`UNSET` = singleton).
    /// Invariant between probes: all entries are `UNSET`.
    class_of: Vec<u32>,
    /// Per-class tallies: left classes in a product, refined classes in
    /// `g3`. Invariant between calls: all entries are zero.
    counts: Vec<u32>,
    /// Class ids touched while scanning one class.
    touched: Vec<u32>,
    /// Placement write cursor per left class (`SINGLETON` for a tally
    /// of 1), set for the classes one right class touches before any of
    /// them is read.
    next: Vec<u32>,
    /// The product's tuples as they are placed.
    tuples: Vec<u32>,
    /// The product's class boundaries as they are counted.
    ends: Vec<u32>,
    /// Per-tuple class ids of the refined partition (`g3_error_with`).
    ids: Vec<u32>,
}

impl PartitionScratch {
    /// A fresh workspace (buffers grow lazily on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

/// Builds single-attribute partitions from a column fed in ascending
/// tuple order, given each value's total count up front: a value's
/// class gets its flat slot range at the value's first occurrence, so
/// classes come out in first-tuple order, each ascending, with no
/// per-class allocation. [`attr_partitions_chunks`] drives one per
/// column.
#[derive(Debug)]
struct ColumnPartitioner {
    /// Occurrences of each value id.
    count: Vec<u32>,
    /// Write cursor of each value's class (`UNSET` until first seen).
    next: Vec<u32>,
    tuples: Vec<u32>,
    ends: Vec<u32>,
}

impl ColumnPartitioner {
    /// A builder for a column whose value id `v` occurs `count[v]` times.
    fn new(count: Vec<u32>) -> Self {
        let covered: usize = count.iter().filter(|&&c| c >= 2).map(|&c| c as usize).sum();
        let classes = count.iter().filter(|&&c| c >= 2).count();
        ColumnPartitioner {
            next: vec![UNSET; count.len()],
            count,
            tuples: vec![0; covered],
            ends: Vec::with_capacity(classes),
        }
    }

    /// Records that tuple `t` holds value id `v`. Tuples must arrive in
    /// ascending order.
    fn push(&mut self, t: u32, v: u32) {
        let c = self.count[v as usize];
        if c >= 2 {
            let slot = &mut self.next[v as usize];
            if *slot == UNSET {
                let start = self.ends.last().copied().unwrap_or(0);
                *slot = start;
                self.ends.push(start + c);
            }
            self.tuples[*slot as usize] = t;
            *slot += 1;
        }
    }

    /// The finished partition of an `n`-tuple column.
    fn finish(self, n: usize) -> StrippedPartition {
        StrippedPartition {
            tuples: self.tuples,
            sizes: ClassSizes { ends: self.ends, n },
        }
    }
}

/// Every single-attribute stripped partition `π_A` of an `m`-column
/// relation, folded over two chunk passes that `pass` opens: one counts
/// each column's value frequencies, so every partition is allocated
/// exactly once; one places tuples in global order through a
/// `ColumnPartitioner` per column, which opens each value's class at
/// its first occurrence. Chunk boundaries therefore cannot change a
/// bit. Value ids are dense (interned), so the count tables are
/// value-indexed, each as wide as its column's largest id.
///
/// Peak memory is two `u32` tables per column, one chunk and the
/// partitions themselves. [`StrippedPartition::of_attr`] is this fold
/// over one borrowed column; `dbmine-context` runs it once per relation
/// and fills every `π_A` from that one sweep.
pub fn attr_partitions_chunks<'a, I>(
    m: usize,
    mut pass: impl FnMut() -> I,
) -> Vec<StrippedPartition>
where
    I: IntoIterator<Item = RelationChunk<'a>>,
{
    let mut count: Vec<Vec<u32>> = vec![Vec::new(); m];
    let mut n = 0usize;
    for chunk in pass() {
        n += chunk.n_rows();
        for (table, col) in count.iter_mut().zip(&chunk.columns) {
            for &v in col.iter() {
                let v = v as usize;
                if v >= table.len() {
                    table.resize(v + 1, 0);
                }
                table[v] += 1;
            }
        }
    }
    let mut builders: Vec<ColumnPartitioner> =
        count.into_iter().map(ColumnPartitioner::new).collect();
    for chunk in pass() {
        for (builder, col) in builders.iter_mut().zip(&chunk.columns) {
            for (local, &v) in col.iter().enumerate() {
                builder.push((chunk.start + local) as u32, v);
            }
        }
    }
    builders.into_iter().map(|b| b.finish(n)).collect()
}

impl StrippedPartition {
    /// The partition of a single attribute, classes in first-tuple order.
    ///
    /// # NULL semantics
    ///
    /// NULL cells intern to the single reserved value id
    /// (`crate::NULL_VALUE`), so **all NULLs of a column fall
    /// into one equivalence class** — NULL compares equal to NULL. This
    /// silently *strengthens* mined dependencies on NULL-heavy data: two
    /// tuples that are NULL in every attribute of `X` agree on `X`, so
    /// `X → A` can only hold if they also agree on `A`, and a column that
    /// is entirely NULL behaves as a constant (`∅ → A` holds). That is
    /// the semantics the paper's DBLP experiments rely on (Section 8.2:
    /// the journal attributes are constant-NULL inside the conference
    /// partition), but note it is the *opposite* of SQL, where
    /// `NULL = NULL` is unknown and such FDs would be vacuous instead.
    pub fn of_attr(rel: &Relation, a: AttrId) -> Self {
        let column = RelationChunk {
            start: 0,
            columns: vec![Cow::Borrowed(rel.column(a))],
        };
        let mut parts = attr_partitions_chunks(1, || [column.clone()]);
        parts.pop().expect("one column, one partition")
    }

    /// `π_attrs` of `rel`: [`Self::product_of`] its attributes' partitions.
    pub fn of_attrs(rel: &Relation, attrs: AttrSet) -> Self {
        let factors = attrs.iter().map(|a| Self::of_attr(rel, a));
        Self::product_of(rel.n_tuples(), factors)
    }

    /// `π_X` of `n` tuples: the product of `factors`, the partitions of
    /// `X`'s attributes, in order ([`Self::of_empty`] when there are none).
    pub fn product_of<P: Borrow<Self>>(n: usize, factors: impl IntoIterator<Item = P>) -> Self {
        let mut factors = factors.into_iter();
        let Some(first) = factors.next() else {
            return Self::of_empty(n);
        };
        let mut scratch = PartitionScratch::new();
        factors.fold(first.borrow().clone(), |p, q| {
            p.product_with(q.borrow(), &mut scratch)
        })
    }

    /// The trivial partition of the empty attribute set: one class with
    /// every tuple (stripped only if `n < 2`).
    pub fn of_empty(n: usize) -> Self {
        let (tuples, ends) = if n >= 2 {
            ((0..n as u32).collect(), vec![n as u32])
        } else {
            (Vec::new(), Vec::new())
        };
        StrippedPartition {
            tuples,
            sizes: ClassSizes { ends, n },
        }
    }

    /// A partition of `n` tuples from explicit classes, in the given
    /// order. Each class must list distinct tuples `< n` ascending, have
    /// at least two members, and be disjoint from the others.
    pub fn from_classes<C: AsRef<[u32]>>(classes: impl IntoIterator<Item = C>, n: usize) -> Self {
        let mut tuples = Vec::new();
        let mut ends = Vec::new();
        for class in classes {
            let class = class.as_ref();
            debug_assert!(class.len() >= 2, "stripped classes have ≥ 2 members");
            debug_assert!(class.windows(2).all(|w| w[0] < w[1]), "class not ascending");
            debug_assert!(
                class.iter().all(|&t| (t as usize) < n),
                "tuple out of range"
            );
            tuples.extend_from_slice(class);
            ends.push(tuples.len() as u32);
        }
        StrippedPartition {
            tuples,
            sizes: ClassSizes { ends, n },
        }
    }

    /// Number of tuples of the underlying relation.
    pub fn n(&self) -> usize {
        self.sizes.n
    }

    /// The class sizes (boundaries) of this partition.
    pub fn sizes(&self) -> &ClassSizes {
        &self.sizes
    }

    /// `|π|`: number of stripped classes.
    pub fn n_classes(&self) -> usize {
        self.sizes.n_classes()
    }

    /// Class `i`'s tuples, ascending.
    pub fn class(&self, i: usize) -> &[u32] {
        &self.tuples[self.sizes.start(i) as usize..self.sizes.ends[i] as usize]
    }

    /// Every class, in this partition's class order.
    pub fn classes(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        (0..self.n_classes()).map(move |i| self.class(i))
    }

    /// `‖π‖`: number of tuples covered by the stripped classes.
    pub fn covered(&self) -> usize {
        self.sizes.covered()
    }

    /// The TANE error value `e(π) = ‖π‖ − |π|`.
    pub fn error(&self) -> usize {
        self.sizes.error()
    }

    /// Number of equivalence classes of the *unstripped* partition
    /// (stripped classes plus singletons) — i.e. the distinct count of
    /// the projection.
    pub fn class_count(&self) -> usize {
        self.sizes.class_count()
    }

    /// True if the attribute set is a superkey (every class a singleton).
    pub fn is_key(&self) -> bool {
        self.sizes.is_key()
    }

    /// Per tuple: its class's size at the class's first (smallest)
    /// member, 1 for a singleton, 0 elsewhere — the non-zero entries are
    /// the unstripped class sizes in first-occurrence order.
    pub(crate) fn first_occurrence_sizes(&self) -> Vec<u32> {
        let mut size = vec![1u32; self.n()];
        for class in self.classes() {
            for &t in class {
                size[t as usize] = 0;
            }
            size[class[0] as usize] = class.len() as u32;
        }
        size
    }

    /// The first tuple of every unstripped class, ascending: the rows
    /// [`Relation::project_distinct`] keeps.
    pub fn first_rows(&self) -> Vec<u32> {
        let sizes = self.first_occurrence_sizes();
        (0..).zip(sizes).filter(|p| p.1 > 0).map(|p| p.0).collect()
    }

    /// The same partition with its classes in canonical order: ascending
    /// by first tuple, which for disjoint ascending classes is
    /// lexicographic order. Two partitions of the same tuples are equal
    /// as sets of classes iff their canonical forms are `==`.
    pub fn canonical(&self) -> StrippedPartition {
        let mut order: Vec<usize> = (0..self.n_classes()).collect();
        order.sort_unstable_by_key(|&i| self.class(i)[0]);
        StrippedPartition::from_classes(order.into_iter().map(|i| self.class(i)), self.n())
    }

    /// Restricts this partition onto a tuple subset and renumbers it.
    ///
    /// `map[t]` is the new index of parent tuple `t`, or `u32::MAX` for
    /// tuples outside the subset; `child_n` is the subset size. Each
    /// class keeps only its surviving members (remapped, ascending),
    /// classes that shrink below 2 are stripped, and the result is in
    /// canonical (first-tuple) order.
    ///
    /// When the subset is the [`Self::first_rows`] of `π_attrs` for
    /// attributes that include `A`, the restriction of π_A *is* the
    /// child relation's π_A — two projected tuples agree on `A` exactly
    /// when their (first-occurrence) parent rows do — and canonical
    /// order is [`Self::of_attr`]'s first-tuple order. That identity is
    /// what lets a decomposition step derive its partitions from the
    /// parent context instead of rebuilding them (bit-identity is pinned
    /// by tests in `dbmine-context`).
    pub fn restrict_remap(&self, map: &[u32], child_n: usize) -> StrippedPartition {
        debug_assert_eq!(map.len(), self.n());
        let mut classes: Vec<Vec<u32>> = Vec::new();
        for class in self.classes() {
            let mut kept: Vec<u32> = class
                .iter()
                .filter_map(|&t| {
                    let c = map[t as usize];
                    (c != u32::MAX).then_some(c)
                })
                .collect();
            if kept.len() >= 2 {
                // A monotone map (the project_distinct case) leaves the
                // members presorted; sort anyway for arbitrary maps.
                kept.sort_unstable();
                classes.push(kept);
            }
        }
        classes.sort_unstable();
        StrippedPartition::from_classes(classes, child_n)
    }

    /// The product `π_X = π_self · π_other` (partition refinement).
    ///
    /// Convenience wrapper over [`Self::product_with`] that pays for a
    /// fresh [`PartitionScratch`]; hot loops should own a scratch and
    /// call `product_with` directly.
    pub fn product(&self, other: &StrippedPartition) -> StrippedPartition {
        self.product_with(other, &mut PartitionScratch::default())
    }

    /// The product `π_X = π_self · π_other` via the fused kernel (see
    /// the module docs), with all probe state in the caller-owned
    /// `scratch`: zero hashing, zero sorting, and two allocations (the
    /// exactly sized result).
    ///
    /// Classes come out grouped by `other`'s class order, then by first
    /// touch; [`Self::canonical`] of the result equals the `HashMap`
    /// product `dbmine_oracles::product_reference` (pinned by regression
    /// and property tests).
    pub fn product_with(
        &self,
        other: &StrippedPartition,
        scratch: &mut PartitionScratch,
    ) -> StrippedPartition {
        self.probe(scratch).product(other)
    }

    /// The class sizes of `π_self · π_other` from the counting loop
    /// alone: the product's error, key test and size multiset, without
    /// placing a single tuple. Counts as one partition product.
    pub fn product_sizes(
        &self,
        other: &StrippedPartition,
        scratch: &mut PartitionScratch,
    ) -> ClassSizes {
        self.probe(scratch).product_sizes(other)
    }

    /// Loads this partition's probe table (every covered tuple's class
    /// id) into `scratch`, for any number of products with `self` on
    /// the left. Dropping the [`Probe`] unloads it.
    pub fn probe<'a>(&'a self, scratch: &'a mut PartitionScratch) -> Probe<'a> {
        let PartitionScratch {
            class_of,
            counts,
            next,
            ..
        } = &mut *scratch;
        if class_of.len() < self.n() {
            class_of.resize(self.n(), UNSET);
        }
        if counts.len() < self.n_classes() {
            counts.resize(self.n_classes(), 0);
        }
        if next.len() < self.n_classes() {
            next.resize(self.n_classes(), 0);
        }
        for (cid, class) in self.classes().enumerate() {
            for &t in class {
                class_of[t as usize] = cid as u32;
            }
        }
        Probe {
            left: self,
            scratch,
        }
    }

    /// Per-tuple class ids of this partition (singletons get unique
    /// negative-space ids ≥ `n_classes()`), used for `g3` error
    /// computation. Every id is `< n`.
    pub fn class_ids(&self) -> Vec<u32> {
        let mut ids = Vec::new();
        self.class_ids_into(&mut ids);
        ids
    }

    /// [`Self::class_ids`] into a caller-owned buffer (cleared and
    /// refilled; no allocation once the buffer has capacity `n`).
    pub fn class_ids_into(&self, ids: &mut Vec<u32>) {
        ids.clear();
        ids.resize(self.n(), u32::MAX);
        for (cid, class) in self.classes().enumerate() {
            for &t in class {
                ids[t as usize] = cid as u32;
            }
        }
        let mut next = self.n_classes() as u32;
        for id in ids.iter_mut() {
            if *id == u32::MAX {
                *id = next;
                next += 1;
            }
        }
    }

    /// The `g3` error of `X → A` where `self = π_X` and `refined = π_{X∪A}`:
    /// the minimum fraction of tuples to delete for the dependency to
    /// hold exactly.
    ///
    /// Convenience wrapper over [`Self::g3_error_with`]; hot loops
    /// should reuse a [`PartitionScratch`].
    pub fn g3_error(&self, refined: &StrippedPartition) -> f64 {
        self.g3_error_with(refined, &mut PartitionScratch::default())
    }

    /// [`Self::g3_error`] with all probe state in the caller-owned
    /// `scratch` (dense count tables instead of a per-class `HashMap`).
    pub fn g3_error_with(
        &self,
        refined: &StrippedPartition,
        scratch: &mut PartitionScratch,
    ) -> f64 {
        let mut ids = std::mem::take(&mut scratch.ids);
        refined.class_ids_into(&mut ids);
        let error = self.g3_error_ids(&ids, scratch);
        scratch.ids = ids;
        error
    }

    /// The `g3` error of `X → A` where `self = π_X`, from per-tuple class
    /// ids `ids` (as [`Self::class_ids`] yields them) of either
    /// `π_{X∪A}` or `π_A` itself — the two give bitwise-equal results.
    ///
    /// Within one class of `π_X` every tuple agrees on `X`, so two of
    /// them agree on `X ∪ A` exactly when they agree on `A`: the class
    /// splits into the same groups under either id map, and `g3` reads
    /// only group sizes. The lattice walks rely on this to score
    /// `X → A` from `π_A`'s ids, computed once per walk, without ever
    /// building `π_{X∪A}`.
    pub fn g3_error_ids(&self, ids: &[u32], scratch: &mut PartitionScratch) -> f64 {
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::G3Evals, 1);
        if self.n() == 0 {
            return 0.0;
        }
        debug_assert_eq!(ids.len(), self.n());
        // Ids live in 0..n, so a dense n-wide count table suffices; only
        // touched entries are reset.
        let PartitionScratch {
            counts, touched, ..
        } = scratch;
        if counts.len() < self.n() {
            counts.resize(self.n(), 0);
        }
        let mut removed = 0usize;
        for class in self.classes() {
            let mut keep = 1u32;
            for &t in class {
                let id = ids[t as usize];
                let c = &mut counts[id as usize];
                *c += 1;
                if *c == 1 {
                    touched.push(id);
                }
                keep = keep.max(*c);
            }
            removed += class.len() - keep as usize;
            for &id in touched.iter() {
                counts[id as usize] = 0;
            }
            touched.clear();
        }
        removed as f64 / self.n() as f64
    }

    /// Whether `X → A` holds, where `self = π_X` and `ids` are π_A's
    /// per-tuple class ids (as [`Self::class_ids`] yields them): every
    /// class of `self` holds a single id. Stops at the first class that
    /// holds two. The verdict equals `e(π_X) == e(π_X · π_A)` — a class
    /// split by A lowers the error — without building the product.
    pub fn determines(&self, ids: &[u32]) -> bool {
        debug_assert_eq!(ids.len(), self.n());
        self.classes().all(|class| {
            let id = ids[class[0] as usize];
            class[1..].iter().all(|&t| ids[t as usize] == id)
        })
    }
}

/// A left partition's probe table, loaded into a [`PartitionScratch`]
/// by [`StrippedPartition::probe`]: the product of that partition with
/// any number of right partitions, each one pass of the fused kernel
/// (see the module docs) over the same table. Dropping it unloads the
/// table, restoring the clean-scratch invariant.
pub struct Probe<'a> {
    left: &'a StrippedPartition,
    scratch: &'a mut PartitionScratch,
}

impl Probe<'_> {
    /// The product `π_left · π_right`, classes in kernel order.
    pub fn product(&mut self, right: &StrippedPartition) -> StrippedPartition {
        let bound = self.left.covered().min(right.covered());
        if self.scratch.tuples.len() < bound {
            self.scratch.tuples.resize(bound, 0);
        }
        let covered = self.scan::<true>(right);
        StrippedPartition {
            tuples: self.scratch.tuples[..covered].to_vec(),
            sizes: ClassSizes {
                ends: self.scratch.ends.to_vec(),
                n: self.left.n(),
            },
        }
    }

    /// The class sizes of `π_left · π_right`, without placing a tuple.
    pub fn product_sizes(&mut self, right: &StrippedPartition) -> ClassSizes {
        self.scan::<false>(right);
        ClassSizes {
            ends: self.scratch.ends.to_vec(),
            n: self.left.n(),
        }
    }

    /// The one pass over `right`'s classes: counts each class's
    /// intersections with the left classes into `scratch.ends`, and with
    /// `PLACE` writes each kept group's tuples into its slots of
    /// `scratch.tuples`. Returns the product's covered tuple count.
    fn scan<const PLACE: bool>(&mut self, right: &StrippedPartition) -> usize {
        dbmine_telemetry::counter_add(dbmine_telemetry::Counter::PartitionProducts, 1);
        debug_assert_eq!(self.left.n(), right.n());
        let PartitionScratch {
            class_of,
            counts,
            touched,
            next,
            tuples,
            ends,
            ..
        } = &mut *self.scratch;
        ends.clear();
        let mut cursor = 0u32;
        for class in right.classes() {
            for &t in class {
                let cid = class_of[t as usize];
                if cid != UNSET {
                    let c = &mut counts[cid as usize];
                    if *c == 0 {
                        touched.push(cid);
                    }
                    *c += 1;
                }
            }
            let first = cursor;
            for &cid in touched.iter() {
                let size = std::mem::take(&mut counts[cid as usize]);
                if size >= 2 {
                    next[cid as usize] = cursor;
                    cursor += size;
                    ends.push(cursor);
                } else {
                    next[cid as usize] = SINGLETON;
                }
            }
            touched.clear();
            if PLACE && cursor > first {
                for &t in class {
                    let cid = class_of[t as usize];
                    if cid != UNSET {
                        let slot = &mut next[cid as usize];
                        if *slot != SINGLETON {
                            tuples[*slot as usize] = t;
                            *slot += 1;
                        }
                    }
                }
            }
        }
        cursor as usize
    }
}

impl Drop for Probe<'_> {
    fn drop(&mut self) {
        for &t in &self.left.tuples {
            self.scratch.class_of[t as usize] = UNSET;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::figure4;
    use crate::relation::RelationBuilder;

    fn classes(p: &StrippedPartition) -> Vec<Vec<u32>> {
        p.classes().map(<[u32]>::to_vec).collect()
    }

    #[test]
    fn single_attr_partitions_figure4() {
        let rel = figure4();
        // A = a,a,w,y,z → one class {0,1}.
        let pa = StrippedPartition::of_attr(&rel, 0);
        assert_eq!(classes(&pa), vec![vec![0, 1]]);
        assert_eq!(pa.error(), 1);
        assert_eq!(pa.class_count(), 4);
        // B = 1,1,2,2,2 → classes {0,1}, {2,3,4}.
        let pb = StrippedPartition::of_attr(&rel, 1);
        assert_eq!(pb.n_classes(), 2);
        assert_eq!(pb.error(), 3);
        assert_eq!(pb.class_count(), 2);
        assert_eq!(pb.sizes().iter().collect::<Vec<_>>(), vec![2, 3]);
        // C = p,r,x,x,x → one class {2,3,4}.
        let pc = StrippedPartition::of_attr(&rel, 2);
        assert_eq!(classes(&pc), vec![vec![2, 3, 4]]);
    }

    #[test]
    fn product_refines() {
        let rel = figure4();
        let pb = StrippedPartition::of_attr(&rel, 1);
        let pc = StrippedPartition::of_attr(&rel, 2);
        let pbc = pb.product(&pc);
        // BC classes: {(1,p)},{(1,r)},{(2,x)×3} → stripped: {2,3,4}.
        assert_eq!(classes(&pbc), vec![vec![2, 3, 4]]);
        // Product is symmetric here.
        assert_eq!(pc.product(&pb).canonical(), pbc.canonical());
    }

    #[test]
    fn exact_fd_via_error_equality() {
        let rel = figure4();
        let pc = StrippedPartition::of_attr(&rel, 2);
        let pb = StrippedPartition::of_attr(&rel, 1);
        let pbc = pb.product(&pc);
        // C → B holds: e(π_C) == e(π_BC).
        assert_eq!(pc.error(), pbc.error());
        // B → C does not: e(π_B) != e(π_BC).
        assert_ne!(pb.error(), pbc.error());
    }

    #[test]
    fn empty_set_partition() {
        let p = StrippedPartition::of_empty(5);
        assert_eq!(p.n_classes(), 1);
        assert_eq!(p.error(), 4);
        assert_eq!(p.class_count(), 1);
        assert!(StrippedPartition::of_empty(1).is_key());
        assert!(StrippedPartition::of_empty(0).is_key());
    }

    #[test]
    fn key_detection() {
        let mut b = RelationBuilder::new("t", &["K", "V"]);
        b.push_row_strs(&["k1", "v"]);
        b.push_row_strs(&["k2", "v"]);
        let rel = b.build();
        assert!(StrippedPartition::of_attr(&rel, 0).is_key());
        assert!(!StrippedPartition::of_attr(&rel, 1).is_key());
    }

    #[test]
    fn g3_error_exact_is_zero() {
        let rel = figure4();
        let pc = StrippedPartition::of_attr(&rel, 2);
        let pb = StrippedPartition::of_attr(&rel, 1);
        let pbc = pb.product(&pc);
        assert_eq!(pc.g3_error(&pbc), 0.0);
    }

    #[test]
    fn g3_error_counts_minimum_removals() {
        // B → C in figure4: class {0,1} of B maps to p and r (keep 1,
        // remove 1); class {2,3,4} maps to x,x,x (remove 0). g3 = 1/5.
        let rel = figure4();
        let pb = StrippedPartition::of_attr(&rel, 1);
        let pc = StrippedPartition::of_attr(&rel, 2);
        let pbc = pb.product(&pc);
        assert!((pb.g3_error(&pbc) - 0.2).abs() < 1e-12);
        // The same error from π_C's class ids, without π_BC.
        let by_attr = pb.g3_error_ids(&pc.class_ids(), &mut PartitionScratch::new());
        assert_eq!(by_attr.to_bits(), pb.g3_error(&pbc).to_bits());
    }

    #[test]
    fn nulls_compare_equal_and_strengthen_fds() {
        // Pin the documented NULL semantics: every NULL of a column lands
        // in the same equivalence class.
        let mut b = RelationBuilder::new("n", &["X", "A"]);
        b.push_row(&[None, Some("v1")]); // t0: X is NULL
        b.push_row(&[None, Some("v1")]); // t1: X is NULL
        b.push_row(&[Some("x1"), Some("v2")]);
        b.push_row(&[Some("x2"), Some("v3")]);
        let rel = b.build();

        let px = StrippedPartition::of_attr(&rel, 0);
        assert_eq!(classes(&px), vec![vec![0, 1]], "NULLs group together");

        // Because t0/t1 agree on X (both NULL) and on A, X → A holds …
        let pa = StrippedPartition::of_attr(&rel, 1);
        let pxa = px.product(&pa);
        assert_eq!(px.error(), pxa.error(), "X → A holds with equal NULLs");

        // … and an all-NULL column is a constant: ∅ → N holds.
        let mut b = RelationBuilder::new("c", &["N", "K"]);
        b.push_row(&[None, Some("k1")]);
        b.push_row(&[None, Some("k2")]);
        b.push_row(&[None, Some("k3")]);
        let rel = b.build();
        let pn = StrippedPartition::of_attr(&rel, 0);
        let pe = StrippedPartition::of_empty(rel.n_tuples());
        assert_eq!(pn.error(), pe.error(), "all-NULL column acts constant");
    }

    #[test]
    fn product_classes_are_in_kernel_order_and_ascending() {
        // π_L = {0,1,2,3} (one class), π_R = {3,4},{0,2}: the product
        // follows π_R's class order, not first-tuple order.
        let l = StrippedPartition::from_classes([[0u32, 1, 2, 3]], 5);
        let r = StrippedPartition::from_classes([[3u32, 4], [0, 2]], 5);
        let p = l.product(&r);
        assert_eq!(classes(&p), vec![vec![0, 2]]);
        let r = StrippedPartition::from_classes([vec![1u32, 3], vec![0, 2, 4]], 5);
        let p = l.product(&r);
        assert_eq!(classes(&p), vec![vec![1, 3], vec![0, 2]]);
        assert_eq!(classes(&p.canonical()), vec![vec![0, 2], vec![1, 3]]);
    }

    #[test]
    fn class_ids_into_reuses_buffer() {
        let rel = figure4();
        let pb = StrippedPartition::of_attr(&rel, 1);
        let pc = StrippedPartition::of_attr(&rel, 2);
        let mut buf = Vec::new();
        pb.class_ids_into(&mut buf);
        assert_eq!(buf, pb.class_ids());
        pc.class_ids_into(&mut buf); // refill, not append
        assert_eq!(buf, pc.class_ids());
    }

    #[test]
    fn class_ids_are_consistent() {
        let rel = figure4();
        let pb = StrippedPartition::of_attr(&rel, 1);
        let ids = pb.class_ids();
        assert_eq!(ids.len(), 5);
        assert_eq!(ids[0], ids[1]);
        assert_eq!(ids[2], ids[3]);
        assert_ne!(ids[0], ids[2]);
    }

    #[test]
    fn restrict_remap_matches_fresh_build_on_projection() {
        let rel = figure4();
        // Project on {B, C}: distinct rows come from parent tuples 0,1,2.
        let attrs: crate::AttrSet = [1usize, 2].into_iter().collect();
        let rows = StrippedPartition::of_attrs(&rel, attrs).first_rows();
        let child = rel.project_distinct(attrs, "bc");
        let mut map = vec![u32::MAX; rel.n_tuples()];
        for (ci, &pt) in rows.iter().enumerate() {
            map[pt as usize] = ci as u32;
        }
        for (ci, a) in attrs.iter().enumerate() {
            let derived =
                StrippedPartition::of_attr(&rel, a).restrict_remap(&map, child.n_tuples());
            let fresh = StrippedPartition::of_attr(&child, ci);
            assert_eq!(derived, fresh, "attr {a} restriction diverged");
        }
    }

    #[test]
    fn restrict_remap_drops_shrunk_classes_and_resorts() {
        // Partition {0,1},{2,3,4} over n=5; keep tuples {1,3,4} with a
        // deliberately non-monotone renumbering.
        let p = StrippedPartition::from_classes([vec![0, 1], vec![2, 3, 4]], 5);
        let mut map = vec![u32::MAX; 5];
        map[1] = 2;
        map[3] = 0;
        map[4] = 1;
        let r = p.restrict_remap(&map, 3);
        // {0,1} shrinks to one member → stripped; {2,3,4} → {0,1}.
        assert_eq!(classes(&r), vec![vec![0, 1]]);
        assert_eq!(r.n(), 3);
    }
}
