//! Nearest-representative assignment (LIMBO Phase 3).
//!
//! After Phase 2 produces `k` representative DCFs, the paper performs
//! *"a scan over the data set"* assigning *"each object o to the cluster c
//! such that d(o, c) is minimized"*, where `d` is the merge information
//! loss.
//!
//! [`assign_all_with`] returns exactly what scoring every representative
//! would — the same index, the same loss bits, the lowest index on ties —
//! but calls the exact [`Dcf::distance`] only on representatives that a
//! cheap lower bound cannot rule out.
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
//! **Exactness.** A representative is skipped only when its bound, less a
//! float margin, exceeds the best exact loss found so far; its own exact
//! loss is then strictly larger, so it cannot be the `(loss, index)`
//! minimum. Objects or representatives with weights or entries that are
//! negative, non-finite or absurdly large get no bound and are scored
//! exactly.

use crate::dcf::Dcf;

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

/// Assigns every object to its nearest representative with `threads`
/// workers (`1` = serial, `0` = all cores). Returns, per object, the
/// `(representative index, information loss)` pair minimizing
/// `δI(object, rep)`; ties break toward the smaller index. Each object's
/// assignment is independent, so the result is bit-identical for every
/// thread count. Runs under one `ib.assign` span, so every Phase 3 —
/// duplicates, value clustering, partitioning — is attributed.
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
    assert!(
        !reps.is_empty(),
        "assignment requires at least one representative"
    );
    let index = RepIndex::build(reps);
    dbmine_parallel::par_map_init(
        threads,
        &objects,
        || Scratch::new(reps.len()),
        |scratch, _, o| index.nearest(o, scratch),
    )
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

/// The representatives' conditionals as an inverted index
/// `token → [(rep, p(token|rep))]` in CSR form, with each
/// representative's mass.
struct RepIndex<'r> {
    reps: &'r [Dcf],
    /// Postings of token `t` are `postings[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<usize>,
    postings: Vec<(u32, f64)>,
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
    fn build(reps: &'r [Dcf]) -> RepIndex<'r> {
        assert!(reps.len() <= u32::MAX as usize, "too many representatives");
        let mut index = RepIndex {
            reps,
            offsets: Vec::new(),
            postings: Vec::new(),
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
        for t in 0..n_tokens {
            offsets[t + 1] += offsets[t];
        }
        let mut fill = offsets.clone();
        let mut postings = vec![(0u32, 0.0f64); offsets[n_tokens]];
        for (c, r) in reps.iter().enumerate() {
            for &(t, q) in r.cond.entries() {
                postings[fill[t as usize]] = (c as u32, q);
                fill[t as usize] += 1;
            }
        }
        index.offsets = offsets;
        index.postings = postings;
        index
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
        s.set_object_weight(w_o, self.w_min, self.m_min);

        // Shared masses (P, Q) of every representative o touches.
        let mut touched = std::mem::take(&mut s.touched);
        for &(t, p) in o.cond.entries() {
            let t = t as usize;
            if t + 1 >= self.offsets.len() {
                break; // entries are sorted: no later token is indexed
            }
            for &(c, q) in &self.postings[self.offsets[t]..self.offsets[t + 1]] {
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

        s.candidates.clear();
        for &c in &touched {
            let ci = c as usize;
            let w_c = self.reps[ci].weight;
            let (a, b) = s.weight_terms_of(ci, w_o, w_c, self.mass[ci]);
            let (p, q) = s.shared[ci];
            s.candidates
                .push(Candidate::new(ci, a * m_o + b, w_o * p, w_c * q));
        }
        best.visit(o, self.reps, &s.candidates);

        if touched.len() < self.reps.len() {
            let (a, b) = s.untouched_terms;
            if best.may_improve(Candidate::new(0, a * m_o + b, 0.0, 0.0).quick) {
                s.candidates.clear();
                for c in 0..self.reps.len() {
                    if !s.is_touched[c] {
                        let (a, b) = s.weight_terms_of(c, w_o, self.reps[c].weight, self.mass[c]);
                        s.candidates.push(Candidate::new(c, a * m_o + b, 0.0, 0.0));
                    }
                }
                best.visit(o, self.reps, &s.candidates);
            }
        }

        for &c in &touched {
            s.is_touched[c as usize] = false;
        }
        touched.clear();
        s.touched = touched;
        best.into_pair()
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

/// Per-worker buffers for [`RepIndex::nearest`], one slot per
/// representative.
struct Scratch {
    /// Shared masses `(P, Q)`; current for the representatives in
    /// `touched`.
    shared: Vec<(f64, f64)>,
    is_touched: Vec<bool>,
    touched: Vec<u32>,
    /// Per-representative [`weight_terms`] for the object weight
    /// `weight_bits`; slot `c` is current when `stamp[c] == epoch`.
    terms: Vec<(f64, f64)>,
    stamp: Vec<u32>,
    epoch: u32,
    weight_bits: Option<u64>,
    /// [`weight_terms`] at the smallest representative weight and mass.
    untouched_terms: (f64, f64),
    candidates: Vec<Candidate>,
}

impl Scratch {
    fn new(n_reps: usize) -> Scratch {
        Scratch {
            shared: vec![(0.0, 0.0); n_reps],
            is_touched: vec![false; n_reps],
            touched: Vec::new(),
            terms: vec![(0.0, 0.0); n_reps],
            stamp: vec![0; n_reps],
            epoch: 0,
            weight_bits: None,
            untouched_terms: (0.0, 0.0),
            candidates: Vec::new(),
        }
    }

    /// Invalidates the cached weight terms unless `w_o` has the previous
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
        self.untouched_terms = weight_terms(w_o, w_min, m_min);
    }

    fn weight_terms_of(&mut self, c: usize, w_o: f64, w_c: f64, m_c: f64) -> (f64, f64) {
        if self.stamp[c] != self.epoch {
            self.terms[c] = weight_terms(w_o, w_c, m_c);
            self.stamp[c] = self.epoch;
        }
        self.terms[c]
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
