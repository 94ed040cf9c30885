//! Nearest-representative assignment (LIMBO Phase 3).
//!
//! After Phase 2 produces `k` representative DCFs, the paper performs
//! *"a scan over the data set"* assigning *"each object o to the cluster c
//! such that d(o, c) is minimized"*, where `d` is the merge information
//! loss.
//!
//! [`assign_all_with`] and [`RepIndex::assign`] return exactly what
//! scoring every representative would — the same index, the same loss
//! bits, the lowest index on ties — but call the exact [`Dcf::distance`]
//! only on representatives that a cheap lower bound cannot rule out.
//!
//! **The bound.** Write `W = w_o + w_c` for the two weights, `M_o`, `M_c`
//! for the total masses of the two conditionals, and `P`, `Q` for their
//! masses on the indices both carry. Merging the union support into
//! three bins (shared, `o`-only, `c`-only) can only shrink the JS
//! divergence (log-sum inequality), so
//!
//! ```text
//! δI(o, c) ≥ M_o·w_o·log₂(W/w_o) + M_c·w_c·log₂(W/w_c) − s(w_o·P, w_c·Q)
//! s(x, y)  = x·log₂((x+y)/x) + y·log₂((x+y)/y)
//! ```
//!
//! The conditionals need not be normalized. A representative that shares
//! no index with the object has `P = Q = 0`, and its bound grows with
//! `w_c` and `M_c`, so one bound at the smallest weight and mass clears
//! every such representative at once.
//!
//! **Rare postings and a frequent block.** A token is *frequent* when
//! more than `max(q/8, 16)` of the `q` representatives hold it. Rare
//! tokens keep a postings list `token → [(rep, p(token|rep))]`; each
//! representative's masses on the `F` frequent tokens sit in a dense
//! `q × F` block instead. A frequent token has more than `q/8` postings,
//! so the block holds at most 8 cells per posting it replaces, and below
//! 16 postings a walk is already cheap. The rule is fixed rather than a
//! parameter because it moves work between the walk and the block and
//! never changes a result.
//!
//! **Signatures.** An object's *signature* is its weight and mass bits
//! plus its frequent tokens and their masses. Every representative's
//! masses `(P_S, Q_S)` on those tokens, and so its three-bin bound at
//! them, are the same for every object of one signature: a worker reads
//! them off the block once per signature (`q·|S|` cells) and caches
//! them. Per object it walks only its rare postings and adds their masses
//! on top of `(P_S, Q_S)` for the representatives they touch, which then
//! have the old `(P, Q)` and are bounded as before. Every other
//! representative shares no rare token with the object, so `(P_S, Q_S)`
//! *are* its shared masses and the cached bound is its three-bin bound.
//! An object without frequent tokens (every value object) has `S = ∅`:
//! its cached masses are 0, the `(w_min, M_min)` bound above is the floor
//! of its signature, and the per-representative bounds are computed only
//! when that floor does not clear them all.
//!
//! The untouched representatives are visited in ascending order of their
//! cached bounds, sorted once per signature, and the visit stops at the
//! first bound above the best exact loss.
//!
//! **Memory.** A worker caches at most 32 signatures, each with at most
//! three floats (`P_S`, `Q_S` and the bound) and one `u32` (the bound
//! order) per representative, and empties the cache when it is full: at
//! most 32 × 28 bytes per representative per worker, beside the index's
//! postings, block and one mass per representative.
//!
//! **Exactness.** A representative is skipped only when its bound, less a
//! float margin, exceeds the best exact loss found so far; its own exact
//! loss is then strictly larger, so it cannot be the `(loss, index)`
//! minimum. The order of visits, and so the signature cache, changes only
//! how many representatives are scored. Objects or representatives with
//! weights or entries that are negative, non-finite or absurdly large get
//! no bound and are scored exactly.

use crate::dcf::Dcf;
use dbmine_telemetry::{counter_add, Counter};
use std::borrow::Borrow;
use std::collections::HashMap;

/// Relative float margin on the bound, taken on its positive part
/// `M_o·w_o·log₂(W/w_o) + M_c·w_c·log₂(W/w_c)`, which bounds the size of
/// every term the exact JS kernels sum. Their rounding is ≈1e-15 of it.
const REL_MARGIN: f64 = 1e-9;

/// Absolute float margin on the bound; also covers the exact kernels'
/// `.max(0.0)` clamp.
const ABS_MARGIN: f64 = 1e-12;

/// Weights, entries and masses above this get no bound: far above any
/// probability mass, far below where the bound's products could overflow.
const MAX_BOUNDED: f64 = 1e30;

/// A token held by more than `max(q / FREQUENT_DIVISOR, FREQUENT_FLOOR)`
/// of the `q` representatives is frequent.
const FREQUENT_DIVISOR: usize = 8;
const FREQUENT_FLOOR: usize = 16;

/// Signatures a worker caches before it empties its cache.
const CACHED_SIGNATURES: usize = 32;

/// Assigns every object to its nearest representative with `threads`
/// workers (`1` = serial, `0` = all cores). Returns, per object, the
/// `(representative index, information loss)` pair minimizing
/// `δI(object, rep)`; ties break toward the smaller index. Each object's
/// assignment is independent, so the result is bit-identical for every
/// thread count. Runs under one `ib.assign` span, so every Phase 3 —
/// duplicates, value clustering, partitioning — is attributed. A caller
/// that assigns several batches against the same representatives builds
/// one [`RepIndex`] instead.
///
/// # Panics
///
/// If `reps` is empty while there are objects to assign.
pub fn assign_all_with<'a>(
    objects: impl IntoIterator<Item = &'a Dcf>,
    reps: &[Dcf],
    threads: usize,
) -> Vec<(usize, f64)> {
    let _span = dbmine_telemetry::span("ib.assign");
    let objects: Vec<&Dcf> = objects.into_iter().collect();
    if objects.is_empty() {
        return Vec::new();
    }
    RepIndex::new(reps).assign_objects(&objects, threads)
}

/// True when `x` may enter the bound: finite, non-negative, not huge.
fn boundable(x: f64) -> bool {
    (0.0..=MAX_BOUNDED).contains(&x)
}

/// True when every number the bound reads off `d` is [`boundable`].
fn boundable_dcf(d: &Dcf) -> bool {
    boundable(d.weight)
        && boundable(d.cond.total())
        && d.cond.entries().iter().all(|&(_, v)| boundable(v))
}

/// `x·log₂(total/x)`, continuous at `x = 0`.
fn xlog(x: f64, total: f64) -> f64 {
    if x > 0.0 {
        x * (total / x).log2()
    } else {
        0.0
    }
}

/// The object-independent-mass terms of the bound for weights
/// `(w_o, w_c)` and representative mass `m_c`:
/// `(w_o·log₂(W/w_o), M_c·w_c·log₂(W/w_c))`.
fn weight_terms(w_o: f64, w_c: f64, m_c: f64) -> (f64, f64) {
    let w = w_o + w_c;
    (xlog(w_o, w), m_c * xlog(w_c, w))
}

/// A representative to visit, with the terms of its bound: `pos` is the
/// bound's positive part and `(x, y) = (w_o·P, w_c·Q)` its shared bin.
#[derive(Clone, Copy)]
struct Candidate {
    rep: u32,
    pos: f64,
    x: f64,
    y: f64,
    /// The margined bound with `s(x, y)` over-estimated by `2·√(xy)`
    /// (binary entropy `H(p) ≤ 2·√(p(1−p))`): no logarithm, and never
    /// above [`Candidate::bound`].
    quick: f64,
}

impl Candidate {
    fn new(rep: usize, pos: f64, x: f64, y: f64) -> Candidate {
        Candidate {
            rep: rep as u32,
            pos,
            x,
            y,
            quick: pos * (1.0 - REL_MARGIN) - 2.0 * (x * y).sqrt() - ABS_MARGIN,
        }
    }

    /// A candidate no bound can rule out.
    fn unbounded(rep: usize) -> Candidate {
        Candidate::new(rep, f64::NEG_INFINITY, 0.0, 0.0)
    }

    /// The bound less its float margin.
    fn bound(&self) -> f64 {
        let (x, y) = (self.x, self.y);
        let shared = xlog(x, x + y) + xlog(y, x + y);
        self.pos * (1.0 - REL_MARGIN) - shared - ABS_MARGIN
    }
}

/// The representatives of one Phase 3, indexed for assignment: postings
/// `token → [(rep, p(token|rep))]` in CSR form for the rare tokens, a
/// dense block of every representative's masses on the frequent ones
/// (see the module doc), and each representative's mass. Build it once
/// and [`RepIndex::assign`] any number of object batches against it.
///
/// ```
/// use dbmine_ib::{Dcf, RepIndex};
/// use dbmine_infotheory::SparseDist;
/// let reps = [
///     Dcf::singleton(0.5, SparseDist::from_pairs(vec![(0, 1.0)])),
///     Dcf::singleton(0.5, SparseDist::from_pairs(vec![(1, 1.0)])),
/// ];
/// let index = RepIndex::new(&reps);
/// let o = Dcf::singleton(0.1, SparseDist::from_pairs(vec![(1, 1.0)]));
/// assert_eq!(index.assign(&[o], 1)[0].0, 1);
/// assert!(index.frequent_tokens().is_empty()); // 2 reps: every token is rare
/// ```
pub struct RepIndex<'r> {
    reps: &'r [Dcf],
    /// Postings of rare token `t` are `postings[offsets[t]..offsets[t + 1]]`;
    /// a frequent token's range is empty.
    offsets: Vec<usize>,
    postings: Vec<(u32, f64)>,
    /// The frequent tokens, ascending: token `frequent[f]` is column `f`
    /// of `block`.
    frequent: Vec<u32>,
    /// `block[c * F + f]` is representative `c`'s mass on frequent token
    /// `f` (0 when it lacks the token), `F = frequent.len()`.
    block: Vec<f64>,
    /// Per-representative conditional mass `M_c`.
    mass: Vec<f64>,
    /// Smallest weight and mass over all representatives.
    w_min: f64,
    m_min: f64,
    /// False when some representative is not [`boundable_dcf`]: then
    /// every object scores every representative.
    bounded: bool,
}

impl<'r> RepIndex<'r> {
    /// Indexes `reps` under one `ib.index` span.
    pub fn new(reps: &'r [Dcf]) -> RepIndex<'r> {
        let _span = dbmine_telemetry::span("ib.index");
        assert!(reps.len() <= u32::MAX as usize, "too many representatives");
        let mut index = RepIndex {
            reps,
            offsets: Vec::new(),
            postings: Vec::new(),
            frequent: Vec::new(),
            block: Vec::new(),
            mass: reps.iter().map(|r| r.cond.total()).collect(),
            w_min: reps.iter().map(|r| r.weight).fold(f64::INFINITY, f64::min),
            m_min: f64::INFINITY,
            bounded: reps.iter().all(boundable_dcf),
        };
        if !index.bounded {
            return index;
        }
        index.m_min = index.mass.iter().copied().fold(f64::INFINITY, f64::min);
        let n_tokens = reps
            .iter()
            .filter_map(|r| r.cond.entries().last())
            .map(|&(t, _)| t as usize + 1)
            .max()
            .unwrap_or(0);
        let mut offsets = vec![0usize; n_tokens + 1];
        for r in reps {
            for &(t, _) in r.cond.entries() {
                offsets[t as usize + 1] += 1;
            }
        }
        let threshold = (reps.len() / FREQUENT_DIVISOR).max(FREQUENT_FLOOR);
        for t in 0..n_tokens {
            if offsets[t + 1] > threshold {
                index.frequent.push(t as u32);
                offsets[t + 1] = 0;
            }
        }
        for t in 0..n_tokens {
            offsets[t + 1] += offsets[t];
        }
        let n_frequent = index.frequent.len();
        let mut block = vec![0.0f64; reps.len() * n_frequent];
        let mut fill = offsets.clone();
        let mut postings = vec![(0u32, 0.0f64); offsets[n_tokens]];
        for (c, r) in reps.iter().enumerate() {
            for &(t, q) in r.cond.entries() {
                let t = t as usize;
                if offsets[t] == offsets[t + 1] {
                    // A token some representative holds has postings
                    // unless it is frequent.
                    let f = index
                        .frequent
                        .binary_search(&(t as u32))
                        .expect("a held token without postings is frequent");
                    block[c * n_frequent + f] = q;
                } else {
                    postings[fill[t]] = (c as u32, q);
                    fill[t] += 1;
                }
            }
        }
        index.offsets = offsets;
        index.postings = postings;
        index.block = block;
        index
    }

    /// Assigns every object to its nearest representative with `threads`
    /// workers, exactly as [`assign_all_with`] does, under one
    /// `ib.assign` span.
    ///
    /// # Panics
    ///
    /// If there are no representatives while there are objects to assign.
    pub fn assign<D: Borrow<Dcf> + Sync>(
        &self,
        objects: &[D],
        threads: usize,
    ) -> Vec<(usize, f64)> {
        let _span = dbmine_telemetry::span("ib.assign");
        self.assign_objects(objects, threads)
    }

    /// The tokens whose masses sit in the dense block, ascending (empty
    /// when some representative gets no bound, since then every object
    /// scores every representative).
    pub fn frequent_tokens(&self) -> &[u32] {
        &self.frequent
    }

    fn assign_objects<D: Borrow<Dcf> + Sync>(
        &self,
        objects: &[D],
        threads: usize,
    ) -> Vec<(usize, f64)> {
        if objects.is_empty() {
            return Vec::new();
        }
        assert!(
            !self.reps.is_empty(),
            "assignment requires at least one representative"
        );
        dbmine_parallel::par_map_init(
            threads,
            objects,
            || Scratch::new(self.reps.len()),
            |scratch, _, o| self.nearest(o.borrow(), scratch),
        )
    }

    /// The `(index, loss)` of `o`'s nearest representative.
    fn nearest(&self, o: &Dcf, s: &mut Scratch) -> (usize, f64) {
        let mut best = Best::new();
        if !self.bounded || !boundable_dcf(o) {
            s.candidates.clear();
            s.candidates
                .extend((0..self.reps.len()).map(Candidate::unbounded));
            best.visit(o, self.reps, &s.candidates);
            return best.into_pair();
        }
        let (w_o, m_o) = (o.weight, o.cond.total());
        s.terms.set_object_weight(w_o, self.w_min, self.m_min);

        // Rare shared masses of every representative o's rare tokens
        // touch; o's frequent tokens by block column.
        let mut touched = std::mem::take(&mut s.touched);
        s.frequent.clear();
        let mut walked = 0;
        for &(t, p) in o.cond.entries() {
            let t = t as usize;
            if t + 1 >= self.offsets.len() {
                break; // entries are sorted: no later token is indexed
            }
            let postings = &self.postings[self.offsets[t]..self.offsets[t + 1]];
            if postings.is_empty() {
                if let Ok(f) = self.frequent.binary_search(&(t as u32)) {
                    s.frequent.push((f as u32, p));
                }
                continue;
            }
            walked += postings.len();
            for &(c, q) in postings {
                let c = c as usize;
                if !s.is_touched[c] {
                    s.is_touched[c] = true;
                    touched.push(c as u32);
                    s.shared[c] = (0.0, 0.0);
                }
                s.shared[c].0 += p;
                s.shared[c].1 += q;
            }
        }
        counter_add(Counter::AssignPostings, walked as u64);

        let sig = s.signatures.get(self, &s.frequent, w_o, m_o, &mut s.terms);
        s.candidates.clear();
        for &c in &touched {
            let ci = c as usize;
            let w_c = self.reps[ci].weight;
            let (a, b) = s.terms.of(ci, w_o, w_c, self.mass[ci]);
            let (p_s, q_s) = sig.shared.get(ci).copied().unwrap_or((0.0, 0.0));
            let (p, q) = s.shared[ci];
            s.candidates.push(Candidate::new(
                ci,
                a * m_o + b,
                w_o * (p_s + p),
                w_c * (q_s + q),
            ));
        }
        best.visit(o, self.reps, &s.candidates);

        if touched.len() < self.reps.len() && best.may_improve(sig.floor) {
            // In bound order: once a bound rules out, so do all later.
            let (bounds, order) = sig.bounds(self, w_o, m_o, &mut s.terms);
            for &c in order {
                let c = c as usize;
                if !best.may_improve(bounds[c]) {
                    break;
                }
                if !s.is_touched[c] {
                    best.offer(c, o.distance(&self.reps[c]));
                }
            }
        }

        for &c in &touched {
            s.is_touched[c as usize] = false;
        }
        touched.clear();
        s.touched = touched;
        best.into_pair()
    }

    /// Every representative's masses `(P_S, Q_S)` on the frequent tokens
    /// `frequent` (block column, object mass). Counts the block cells it
    /// reads as [`Counter::AssignPostings`].
    fn frequent_shared(&self, frequent: &[(u32, f64)]) -> Vec<(f64, f64)> {
        counter_add(
            Counter::AssignPostings,
            (self.reps.len() * frequent.len()) as u64,
        );
        self.block
            .chunks_exact(self.frequent.len())
            .map(|row| {
                frequent.iter().fold((0.0, 0.0), |(p_s, q_s), &(f, p)| {
                    let q = row[f as usize];
                    if q > 0.0 {
                        (p_s + p, q_s + q)
                    } else {
                        (p_s, q_s)
                    }
                })
            })
            .collect()
    }

    /// Every representative's margined bound for an object of weight
    /// `w_o` and mass `m_o` at the shared masses `shared` (all 0 when
    /// empty), a NaN bound read as `−∞`; and the representatives in
    /// ascending bound order.
    fn bounds(
        &self,
        shared: &[(f64, f64)],
        w_o: f64,
        m_o: f64,
        terms: &mut WeightTerms,
    ) -> (Vec<f64>, Vec<u32>) {
        let bounds: Vec<f64> = (0..self.reps.len())
            .map(|c| {
                let w_c = self.reps[c].weight;
                let (a, b) = terms.of(c, w_o, w_c, self.mass[c]);
                let (p, q) = shared.get(c).copied().unwrap_or((0.0, 0.0));
                let bound = Candidate::new(c, a * m_o + b, w_o * p, w_c * q).bound();
                if bound.is_nan() {
                    f64::NEG_INFINITY
                } else {
                    bound
                }
            })
            .collect();
        let mut order: Vec<u32> = (0..bounds.len() as u32).collect();
        order.sort_unstable_by(|&a, &b| bounds[a as usize].total_cmp(&bounds[b as usize]));
        (bounds, order)
    }
}

/// The `(loss, index)` minimum among the representatives scored so far.
struct Best {
    index: usize,
    loss: f64,
}

impl Best {
    fn new() -> Best {
        Best {
            index: usize::MAX,
            loss: f64::INFINITY,
        }
    }

    /// False only when a representative with this margined bound is
    /// certain to lose to the current best (a NaN bound never rules out).
    fn may_improve(&self, bound: f64) -> bool {
        bound <= self.loss || bound.is_nan()
    }

    fn offer(&mut self, index: usize, loss: f64) {
        if loss < self.loss || (loss == self.loss && index < self.index) {
            self.index = index;
            self.loss = loss;
        }
    }

    /// Scores the candidate with the smallest quick bound, then every
    /// other candidate that neither of its bounds rules out.
    fn visit(&mut self, o: &Dcf, reps: &[Dcf], candidates: &[Candidate]) {
        let Some(first) = candidates.iter().min_by(|a, b| a.quick.total_cmp(&b.quick)) else {
            return;
        };
        if self.may_improve(first.quick) {
            self.offer(first.rep as usize, o.distance(&reps[first.rep as usize]));
        }
        for c in candidates {
            if c.rep != first.rep && self.may_improve(c.quick) && self.may_improve(c.bound()) {
                self.offer(c.rep as usize, o.distance(&reps[c.rep as usize]));
            }
        }
    }

    fn into_pair(self) -> (usize, f64) {
        debug_assert!(self.index != usize::MAX, "no representative scored");
        (self.index, self.loss)
    }
}

/// One signature's cached view of every representative (see the module
/// doc).
struct Signature {
    /// Masses `(P_S, Q_S)` on the signature's frequent tokens; empty when
    /// it has none (all 0).
    shared: Vec<(f64, f64)>,
    /// Margined bounds at `shared`; empty until first needed.
    bounds: Vec<f64>,
    /// The representatives in ascending order of `bounds`.
    order: Vec<u32>,
    /// A lower bound on every entry of `bounds`.
    floor: f64,
}

impl Signature {
    /// The bounds and their ascending order, computed on first use.
    fn bounds(
        &mut self,
        index: &RepIndex,
        w_o: f64,
        m_o: f64,
        terms: &mut WeightTerms,
    ) -> (&[f64], &[u32]) {
        if self.bounds.is_empty() {
            (self.bounds, self.order) = index.bounds(&self.shared, w_o, m_o, terms);
        }
        (&self.bounds, &self.order)
    }
}

/// A worker's signature cache: at most [`CACHED_SIGNATURES`] entries,
/// emptied when a new signature finds it full.
#[derive(Default)]
struct Signatures {
    slots: HashMap<Box<[u64]>, usize>,
    entries: Vec<Signature>,
    /// The key being looked up: weight and mass bits, then one
    /// `(column, mass bits)` pair per frequent token.
    key: Vec<u64>,
}

impl Signatures {
    /// The signature of an object of weight `w_o`, mass `m_o` and
    /// frequent tokens `frequent`, built on a miss.
    fn get(
        &mut self,
        index: &RepIndex,
        frequent: &[(u32, f64)],
        w_o: f64,
        m_o: f64,
        terms: &mut WeightTerms,
    ) -> &mut Signature {
        self.key.clear();
        self.key.extend([w_o.to_bits(), m_o.to_bits()]);
        for &(f, p) in frequent {
            self.key.extend([f as u64, p.to_bits()]);
        }
        if let Some(&i) = self.slots.get(&self.key[..]) {
            return &mut self.entries[i];
        }
        if self.entries.len() == CACHED_SIGNATURES {
            self.slots.clear();
            self.entries.clear();
        }
        let signature = if frequent.is_empty() {
            let (a, b) = terms.untouched;
            Signature {
                shared: Vec::new(),
                bounds: Vec::new(),
                order: Vec::new(),
                floor: Candidate::new(0, a * m_o + b, 0.0, 0.0).bound(),
            }
        } else {
            let shared = index.frequent_shared(frequent);
            let (bounds, order) = index.bounds(&shared, w_o, m_o, terms);
            Signature {
                floor: bounds[order[0] as usize],
                shared,
                bounds,
                order,
            }
        };
        self.slots
            .insert(self.key.as_slice().into(), self.entries.len());
        self.entries.push(signature);
        self.entries.last_mut().expect("just pushed")
    }
}

/// Per-representative [`weight_terms`] for one object weight.
struct WeightTerms {
    /// Slot `c` is current when `stamp[c] == epoch`.
    terms: Vec<(f64, f64)>,
    stamp: Vec<u32>,
    epoch: u32,
    weight_bits: Option<u64>,
    /// [`weight_terms`] at the smallest representative weight and mass.
    untouched: (f64, f64),
}

impl WeightTerms {
    fn new(n_reps: usize) -> WeightTerms {
        WeightTerms {
            terms: vec![(0.0, 0.0); n_reps],
            stamp: vec![0; n_reps],
            epoch: 0,
            weight_bits: None,
            untouched: (0.0, 0.0),
        }
    }

    /// Invalidates the cached terms unless `w_o` has the previous
    /// object's bits (all tuple objects share one prior).
    fn set_object_weight(&mut self, w_o: f64, w_min: f64, m_min: f64) {
        if self.weight_bits == Some(w_o.to_bits()) {
            return;
        }
        self.weight_bits = Some(w_o.to_bits());
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.stamp.fill(0);
            self.epoch = 1;
        }
        self.untouched = weight_terms(w_o, w_min, m_min);
    }

    fn of(&mut self, c: usize, w_o: f64, w_c: f64, m_c: f64) -> (f64, f64) {
        if self.stamp[c] != self.epoch {
            self.terms[c] = weight_terms(w_o, w_c, m_c);
            self.stamp[c] = self.epoch;
        }
        self.terms[c]
    }
}

/// Per-worker buffers for [`RepIndex::nearest`].
struct Scratch {
    /// Rare shared masses `(P, Q)`; current for the representatives in
    /// `touched`.
    shared: Vec<(f64, f64)>,
    is_touched: Vec<bool>,
    touched: Vec<u32>,
    /// The object's frequent tokens as `(block column, mass)`.
    frequent: Vec<(u32, f64)>,
    terms: WeightTerms,
    signatures: Signatures,
    candidates: Vec<Candidate>,
}

impl Scratch {
    fn new(n_reps: usize) -> Scratch {
        Scratch {
            shared: vec![(0.0, 0.0); n_reps],
            is_touched: vec![false; n_reps],
            touched: Vec::new(),
            frequent: Vec::new(),
            terms: WeightTerms::new(n_reps),
            signatures: Signatures::default(),
            candidates: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_infotheory::SparseDist;

    fn d(pairs: &[(u32, f64)]) -> SparseDist {
        SparseDist::from_pairs(pairs.to_vec())
    }

    fn nearest(o: &Dcf, reps: &[Dcf]) -> (usize, f64) {
        assign_all_with([o], reps, 1)[0]
    }

    #[test]
    fn picks_identical_representative() {
        let reps = vec![
            Dcf::singleton(0.5, d(&[(0, 1.0)])),
            Dcf::singleton(0.5, d(&[(1, 1.0)])),
        ];
        let o = Dcf::singleton(0.1, d(&[(1, 1.0)]));
        let (idx, loss) = nearest(&o, &reps);
        assert_eq!(idx, 1);
        assert!(loss.abs() < 1e-12);
    }

    #[test]
    fn picks_closer_mixture() {
        let reps = vec![
            Dcf::singleton(0.5, d(&[(0, 0.9), (1, 0.1)])),
            Dcf::singleton(0.5, d(&[(0, 0.1), (1, 0.9)])),
        ];
        let o = Dcf::singleton(0.1, d(&[(0, 0.8), (1, 0.2)]));
        assert_eq!(nearest(&o, &reps).0, 0);
    }

    #[test]
    fn empty_reps_is_none() {
        // Nothing to assign needs no representative; anything to assign
        // does (see `assign_without_reps_panics`).
        assert!(assign_all_with(std::iter::empty(), &[], 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one representative")]
    fn assign_without_reps_panics() {
        let o = Dcf::singleton(1.0, d(&[(0, 1.0)]));
        assign_all_with([&o], &[], 1);
    }

    #[test]
    fn tie_breaks_to_lower_index() {
        let reps = vec![
            Dcf::singleton(0.5, d(&[(0, 1.0)])),
            Dcf::singleton(0.5, d(&[(0, 1.0)])),
        ];
        let o = Dcf::singleton(0.1, d(&[(0, 1.0)]));
        assert_eq!(nearest(&o, &reps).0, 0);
    }

    #[test]
    fn unindexed_tokens_and_disjoint_reps_still_assign() {
        // The object shares no token with any representative (and
        // carries one beyond the index): the untouched-rep pass must
        // still find the exact minimum, lowest index on a tie.
        let reps = vec![
            Dcf::singleton(0.5, d(&[(0, 1.0)])),
            Dcf::singleton(0.25, d(&[(1, 1.0)])),
            Dcf::singleton(0.25, d(&[(2, 1.0)])),
        ];
        let o = Dcf::singleton(0.1, d(&[(9, 1.0)]));
        let expected = (0..reps.len()).map(|i| (i, o.distance(&reps[i]))).fold(
            (usize::MAX, f64::INFINITY),
            |b, (i, l)| if l < b.1 { (i, l) } else { b },
        );
        let got = nearest(&o, &reps);
        assert_eq!((got.0, got.1.to_bits()), (expected.0, expected.1.to_bits()));
        assert_eq!(got.0, 1);
    }

    #[test]
    fn unboundable_inputs_fall_back_to_scoring_every_rep() {
        let reps = vec![
            Dcf::singleton(0.5, d(&[(0, 1.0)])),
            Dcf::singleton(f64::NAN, d(&[(1, 1.0)])),
        ];
        let o = Dcf::singleton(0.1, d(&[(0, 1.0)]));
        let (idx, loss) = nearest(&o, &reps);
        // A NaN weight merges "for free" (δI maps non-finite to 0), and
        // the exact loss to rep 0 is 0 as well: lowest index wins.
        assert_eq!((idx, loss), (0, 0.0));
        let bad = Dcf::singleton(-1.0, d(&[(1, 1.0)]));
        let good = [Dcf::singleton(0.5, d(&[(0, 1.0)]))];
        assert_eq!(nearest(&bad, &good).0, 0);
    }

    #[test]
    fn assign_all_covers_every_object() {
        let reps = vec![
            Dcf::singleton(0.5, d(&[(0, 1.0)])),
            Dcf::singleton(0.5, d(&[(1, 1.0)])),
        ];
        let objects = [
            Dcf::singleton(0.1, d(&[(0, 1.0)])),
            Dcf::singleton(0.1, d(&[(1, 1.0)])),
            Dcf::singleton(0.1, d(&[(0, 0.5), (1, 0.5)])),
        ];
        let a = assign_all_with(objects.iter(), &reps, 1);
        assert_eq!(a.len(), 3);
        assert_eq!(a[0].0, 0);
        assert_eq!(a[1].0, 1);
    }
}
