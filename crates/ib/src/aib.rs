//! Agglomerative Information Bottleneck (Slonim & Tishby; Section 5.1).
//!
//! Starting from `q` singleton clusters, AIB performs `q-k` greedy merges,
//! each time picking the pair with minimum information loss `δI` — the
//! algorithm is *"quadratic in the number of objects"*, which is exactly
//! why LIMBO applies it only to the DCF-tree leaves.
//!
//! [`aib`] (and its threaded variant [`aib_with`]) keeps, for every alive
//! slot, an exact candidate list: the keys `(δI, partner)` of its
//! `C = 16` best merge partners among the higher-numbered slots, plus a
//! *floor* key that bounds every partner left off the list. Only each
//! slot's best key lives in the candidate heap, so the heap holds `O(q)`
//! entries and the lists `O(q·C)` — never the `O(q²)` of an all-pairs
//! heap. After a merge `(a, b)` a list only drops `a` and `b`
//! and offers the one recomputed pair `(u, a)`; a slot rescans its row
//! only when its cluster changed (slot `a`) or its list ran dry. Every
//! listed key is the bit-exact loss of a pair that has not changed since
//! it was computed, and every recomputed one uses the argument order the
//! reference heap would have stored ([`aib_reference`] keeps the original
//! all-pairs lazy-deletion heap), so the two produce **bit-identical**
//! dendrograms (see the regression and property tests).
//!
//! A run down to `k = 1` contains every coarser clustering: the first
//! `q − k` merges of its dendrogram are exactly the run to `k`.
//! [`aib_cut`] replays them, so a caller that needs both the full
//! statistics and a `k`-clustering pays for one AIB run, not two.

use crate::dcf::Dcf;
use crate::dendrogram::Dendrogram;
use dbmine_infotheory::entropy;
use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Per-`k` statistics recorded while merging down from `q` clusters —
/// the raw material for the horizontal-partitioning heuristic of
/// Section 6.1.2 (rates of change of `I(C_k;T)` and `H(C_k|T)`).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KStat {
    /// Number of clusters after the merge.
    pub k: usize,
    /// Cumulative information loss `I(C_q;T) - I(C_k;T)`.
    pub cumulative_loss: f64,
    /// Mutual information `I(C_k;T)` retained by the clustering.
    pub mutual_information: f64,
    /// Cluster entropy `H(C_k)` (from the cluster masses).
    pub cluster_entropy: f64,
    /// Conditional entropy `H(C_k|T) = H(C_k) - I(C_k;T)`.
    pub conditional_entropy: f64,
}

/// The result of an AIB run.
#[derive(Clone, Debug)]
pub struct AibResult {
    /// The surviving clusters (the `k`-clustering), in creation order.
    pub clusters: Vec<Dcf>,
    /// For each surviving cluster, the input indices it absorbed.
    pub members: Vec<Vec<usize>>,
    /// The merge tree (leaves = input indices).
    pub dendrogram: Dendrogram,
    /// `I(C_q;T)` of the *input* clustering (before any merge).
    pub initial_information: f64,
    /// Statistics after every merge, from `k = q-1` down to the final `k`.
    pub stats: Vec<KStat>,
}

impl AibResult {
    /// Information retained by the final clustering, `I(C_k;T)`.
    pub fn final_information(&self) -> f64 {
        self.stats
            .last()
            .map(|s| s.mutual_information)
            .unwrap_or(self.initial_information)
    }

    /// Fraction of the input information lost, in `[0,1]`.
    pub fn relative_loss(&self) -> f64 {
        if self.initial_information <= 0.0 {
            0.0
        } else {
            1.0 - self.final_information() / self.initial_information
        }
    }
}

/// Total order on `f64` losses for the heap. Uses [`f64::total_cmp`] so a
/// NaN (which the finite-δI guards upstream should already prevent) sorts
/// last instead of panicking mid-clustering.
#[derive(Clone, Copy, PartialEq, PartialOrd)]
struct OrdLoss(f64);
impl Eq for OrdLoss {}
#[allow(clippy::derive_ord_xor_partial_ord)]
impl Ord for OrdLoss {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// `(loss, partner)` comparison for one slot's candidate merges:
/// lexicographic with `total_cmp` on the loss, smaller partner on ties.
fn cand_lt(a: (f64, usize), b: (f64, usize)) -> bool {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)) == Ordering::Less
}

/// The candidate loss of merging slots `u` and `v`, recomputed with the
/// exact floating-point argument order the reference all-pairs heap
/// stored for this pair.
///
/// The reference implementation pushes a pair's loss either at
/// initialization — `slots[i].distance(slots[j])` with `i < j` — or
/// right after a merge, with the *just-merged survivor* as the first
/// argument. The currently-valid entry for an alive pair is always the
/// most recent push, so: the endpoint with the larger last-merged step
/// goes first; if neither ever merged, the smaller index goes first.
/// (`Dcf::distance` is mathematically symmetric, but summation order
/// differs between argument orders, so bit-identity needs this rule.)
fn pair_loss(slots: &[Option<Dcf>], last_merged: &[u32], u: usize, v: usize) -> f64 {
    let (a, b) = (u.min(v), u.max(v));
    let (first, second) = if last_merged[b] > last_merged[a] {
        (b, a)
    } else {
        (a, b)
    };
    slots[first]
        .as_ref()
        .expect("pair_loss on dead slot")
        .distance(slots[second].as_ref().expect("pair_loss on dead slot"))
}

/// How many exact candidate keys each slot keeps. Chosen from a sweep on
/// DBLP partitioning (2 500 tuples, 1 028 Phase 1 leaves): repair JS
/// evaluations fell with the list length — 1.25 M, 0.99 M, 0.84 M,
/// 0.74 M, 0.67 M at 4, 8, 16, 32, 64 — against 0.53 M for unbounded
/// lists, the cost of the one recomputed pair per slot and merge. Past
/// 16 each doubling of the `O(q·C)` list memory saves only ~10%.
const CANDIDATES: usize = 16;

/// One slot `u`'s candidate list.
///
/// Invariant, over the alive partners `v > u`: `keys` holds the exact
/// current keys `(δI(u, v), v)` of up to [`CANDIDATES`] of them, strictly
/// ascending by [`cand_lt`]; every listed key is below `floor`, and every
/// unlisted partner's key is at or above it. `floor == None` means no
/// partner is unlisted. So `keys[0]`, when present, is `u`'s best merge.
#[derive(Clone, Debug, Default)]
struct Cands {
    keys: Vec<(f64, usize)>,
    floor: Option<(f64, usize)>,
}

impl Cands {
    /// `u`'s best candidate merge, if it has a partner at all.
    fn best(&self) -> Option<(f64, usize)> {
        self.keys.first().copied()
    }

    /// Whether `key` belongs on the list: it sorts below the floor.
    fn admits(&self, key: (f64, usize)) -> bool {
        self.floor.is_none_or(|f| cand_lt(key, f))
    }

    /// Lists `key` (a partner not on the list) if it sorts below the
    /// floor; on overflow the largest listed key becomes the new floor.
    fn offer(&mut self, key: (f64, usize)) {
        if !self.admits(key) {
            return;
        }
        let pos = self.keys.partition_point(|&k| cand_lt(k, key));
        self.keys.insert(pos, key);
        if self.keys.len() > CANDIDATES {
            self.floor = self.keys.pop();
        }
    }
}

/// Builds slot `u`'s list from scratch over `partners` (alive slots
/// `> u`, ascending): the [`CANDIDATES`] smallest keys, and the next one
/// as the floor.
fn scan_row(slots: &[Option<Dcf>], last_merged: &[u32], partners: &[usize], u: usize) -> Cands {
    let mut c = Cands {
        keys: Vec::with_capacity(CANDIDATES + 1),
        floor: None,
    };
    for &v in partners {
        c.offer((pair_loss(slots, last_merged, u, v), v));
    }
    c
}

/// One slot's list edit after a merge `(a, b)`, decided from the
/// pre-merge lists and the post-merge slots.
enum Repair {
    /// Neither `a` nor `b` is listed and `(u, a)` stays unlisted.
    Keep,
    /// Drop `a` and `b`, then list the recomputed `(u, a)` key if given.
    Edit(Option<f64>),
    /// Replace the list with a fresh scan of the row.
    Refill(Box<Cands>),
}

/// Runs AIB on the given singleton/summary clusters until `k` clusters
/// remain (`k = 1` gives the full dendrogram).
///
/// Ties in `δI` are broken deterministically by (smaller slot, smaller
/// slot) so results are reproducible across runs.
///
/// ```
/// use dbmine_ib::{aib, Dcf};
/// use dbmine_infotheory::SparseDist;
/// // Two identical objects and one different: k = 2 pairs the twins.
/// let objs = vec![
///     Dcf::singleton(0.25, SparseDist::singleton(0)),
///     Dcf::singleton(0.25, SparseDist::singleton(0)),
///     Dcf::singleton(0.50, SparseDist::singleton(1)),
/// ];
/// let r = aib(objs, 2);
/// assert_eq!(r.clusters.len(), 2);
/// assert!(r.dendrogram.merges()[0].loss.abs() < 1e-12);
/// ```
pub fn aib(inputs: Vec<Dcf>, k: usize) -> AibResult {
    aib_with(inputs, k, 1)
}

/// [`aib`] with an explicit thread count for the initial candidate scan
/// and the post-merge list repairs (`1` = serial, `0` = all cores).
///
/// The result is bit-identical for every `threads` value: parallelism
/// only changes wall-clock time.
pub fn aib_with(inputs: Vec<Dcf>, k: usize, threads: usize) -> AibResult {
    let q = inputs.len();
    let k = k.max(1);
    let mut dendro = Dendrogram::new(q);
    // slots[i]: current cluster in slot i (None once absorbed).
    let mut slots: Vec<Option<Dcf>> = inputs.into_iter().map(Some).collect();
    // node id (in the dendrogram) represented by each slot.
    let mut node_of: Vec<usize> = (0..q).collect();

    let initial_information = mutual_information_of(&slots);
    let mut h_c = entropy(slots.iter().flatten().map(|c| c.weight));

    let mut members: Vec<Vec<usize>> = (0..q).map(|i| vec![i]).collect();
    if q == 0 || k >= q {
        return survivors(slots, members, dendro, initial_information, Vec::new());
    }

    // Every alive pair is covered by its smaller endpoint's list, and the
    // globally best pair is necessarily the best of its smaller endpoint,
    // so the heap below only ever needs one entry per slot.
    let mut last_merged: Vec<u32> = vec![0; q];
    let mut alive_ids: Vec<usize> = (0..q).collect();
    let init_span = dbmine_telemetry::span("aib.init");
    let mut cands: Vec<Cands> = {
        let (slots_ref, lm_ref, ids_ref) = (&slots, &last_merged, &alive_ids);
        dbmine_parallel::par_map_range(threads, q, |i| {
            scan_row(slots_ref, lm_ref, &ids_ref[i + 1..], i)
        })
    };

    // Heap of per-slot best candidates: Reverse((loss, owner, partner,
    // stamp)). An entry is valid iff the owner is alive and its stamp
    // matches — the stamp is bumped whenever the owner's best changes.
    let mut stamp: Vec<u32> = vec![0; q];
    let mut heap: BinaryHeap<Reverse<(OrdLoss, usize, usize, u32)>> =
        BinaryHeap::with_capacity(2 * q);
    for (u, c) in cands.iter().enumerate() {
        if let Some((d, p)) = c.best() {
            heap.push(Reverse((OrdLoss(d), u, p, 0)));
        }
    }
    drop(init_span);

    let mut alive = q;
    let mut stats = Vec::with_capacity(q - k);
    let mut cum_loss = 0.0;
    let mut merge_step: u32 = 0;

    let _merge_span = dbmine_telemetry::span("aib.merge_loop");
    while alive > k {
        let (loss, a, b) = loop {
            let Reverse((OrdLoss(d), u, p, s)) = heap
                .pop()
                .expect("heap exhausted before reaching k clusters");
            if slots[u].is_some() && stamp[u] == s {
                debug_assert!(slots[p].is_some(), "listed partner died without repair");
                dbmine_telemetry::counter_add(dbmine_telemetry::Counter::NnCacheHits, 1);
                break (d, u, p);
            }
            dbmine_telemetry::counter_add(dbmine_telemetry::Counter::NnCacheMisses, 1);
        };

        // Merge slot b into slot a (a < b: lists only hold larger partners).
        let cb = slots[b].take().expect("validated above");
        let ca = slots[a].as_mut().expect("validated above");
        let (wa, wb) = (ca.weight, cb.weight);
        ca.merge_in_place(&cb);
        let w_star = ca.weight;
        merge_step += 1;
        last_merged[a] = merge_step;
        alive -= 1;
        let pos = alive_ids.binary_search(&b).expect("b was alive");
        alive_ids.remove(pos);
        cands[b] = Cands::default();

        let node = dendro.push(node_of[a], node_of[b], loss);
        node_of[a] = node;
        let absorbed = std::mem::take(&mut members[b]);
        members[a].extend(absorbed);

        // Incremental H(C): replace the two masses with the merged one.
        h_c = h_c - xlogx_safe(wa) - xlogx_safe(wb) + xlogx_safe(w_star);

        cum_loss += loss;
        let mi = (initial_information - cum_loss).max(0.0);
        stats.push(KStat {
            k: alive,
            cumulative_loss: cum_loss,
            mutual_information: mi,
            cluster_entropy: h_c,
            conditional_entropy: (h_c - mi).max(0.0),
        });

        // Repair the lists. Only pairs with an endpoint in {a, b}
        // changed: pairs with b died, pairs (a, v) with v > a live in
        // a's own list (rescanned), and each pair (u, a) with u < a got
        // one new key, offered to u's list against its floor. A list
        // that loses its last key while partners remain unlisted is
        // rescanned. Every decision reads only pre-merge lists and
        // post-merge slots, so they run in parallel and apply serially.
        if alive > k {
            let _repair_span = dbmine_telemetry::span("aib.repair");
            let (slots_ref, cands_ref, lm_ref, ids_ref) =
                (&slots, &cands, &last_merged, &alive_ids);
            let repairs: Vec<Repair> = dbmine_parallel::par_map(threads, ids_ref, |i, &u| {
                let refill =
                    || Repair::Refill(Box::new(scan_row(slots_ref, lm_ref, &ids_ref[i + 1..], u)));
                if u == a {
                    return refill();
                }
                let c = &cands_ref[u];
                let gone = |&(_, p): &(f64, usize)| p == a || p == b;
                let new_a = (u < a)
                    .then(|| pair_loss(slots_ref, lm_ref, u, a))
                    .filter(|&d| c.admits((d, a)));
                if new_a.is_none() && !c.keys.iter().any(gone) {
                    Repair::Keep
                } else if new_a.is_none() && c.floor.is_some() && c.keys.iter().all(gone) {
                    refill()
                } else {
                    Repair::Edit(new_a)
                }
            });
            for (&u, repair) in alive_ids.iter().zip(repairs) {
                let c = &mut cands[u];
                let before = c.best();
                match repair {
                    Repair::Keep => continue,
                    Repair::Edit(new_a) => {
                        c.keys.retain(|&(_, p)| p != a && p != b);
                        if let Some(d) = new_a {
                            c.offer((d, a));
                        }
                    }
                    Repair::Refill(fresh) => *c = *fresh,
                }
                let after = c.best();
                if after.map(|(d, p)| (d.to_bits(), p)) != before.map(|(d, p)| (d.to_bits(), p)) {
                    stamp[u] = stamp[u].wrapping_add(1);
                    if let Some((d, p)) = after {
                        heap.push(Reverse((OrdLoss(d), u, p, stamp[u])));
                    }
                }
            }
            // Stale entries accumulate slowly (one push per changed
            // best); rebuild from the live lists before they can outgrow
            // O(q).
            if heap.len() > 4 * q + 16 {
                heap.clear();
                for &u in &alive_ids {
                    if let Some((d, p)) = cands[u].best() {
                        heap.push(Reverse((OrdLoss(d), u, p, stamp[u])));
                    }
                }
            }
        }
    }

    survivors(slots, members, dendro, initial_information, stats)
}

/// The `k`-clustering of `inputs` cut from `full`, a finished AIB run
/// over the same inputs that merged down to `k` clusters or fewer.
///
/// An AIB run to `k` is a prefix of the run to any smaller `k`, so this
/// replays the first `q − k` merges of `full.dendrogram` with the run's
/// own slot rule — the left node's slot survives and absorbs the right
/// one with [`Dcf::merge_in_place`], members appended in the same
/// order — and copies `initial_information` and the first `q − k`
/// stats. The result is bitwise what `aib_with(inputs, k, _)` returns,
/// at the cost of `q − k` DCF merges and no `δI` evaluation.
///
/// ```
/// use dbmine_ib::{aib, aib_cut, Dcf};
/// use dbmine_infotheory::SparseDist;
/// let objs: Vec<Dcf> = (0..4)
///     .map(|i| Dcf::singleton(0.25, SparseDist::singleton(i % 2)))
///     .collect();
/// let full = aib(objs.clone(), 1);
/// let cut = aib_cut(objs.clone(), &full, 2);
/// assert_eq!(cut.members, aib(objs, 2).members);
/// ```
///
/// # Panics
///
/// If `full` was run over a different number of inputs, or stopped
/// above `k` clusters.
pub fn aib_cut(inputs: Vec<Dcf>, full: &AibResult, k: usize) -> AibResult {
    let _span = dbmine_telemetry::span("aib.cut");
    let q = inputs.len();
    assert_eq!(
        full.dendrogram.n_leaves(),
        q,
        "aib_cut: the run was over a different input"
    );
    let steps = q.saturating_sub(k.max(1));
    assert!(
        steps <= full.dendrogram.merges().len(),
        "aib_cut: the run stopped above k = {k}"
    );
    let mut slots: Vec<Option<Dcf>> = inputs.into_iter().map(Some).collect();
    let mut dendro = Dendrogram::new(q);
    // slot_of[node]: the slot holding dendrogram node `node`.
    let mut slot_of: Vec<usize> = (0..q).collect();
    let mut members: Vec<Vec<usize>> = (0..q).map(|i| vec![i]).collect();
    for m in &full.dendrogram.merges()[..steps] {
        let (a, b) = (slot_of[m.left], slot_of[m.right]);
        let cb = slots[b].take().expect("replayed merge of a dead slot");
        slots[a]
            .as_mut()
            .expect("replayed merge into a dead slot")
            .merge_in_place(&cb);
        let absorbed = std::mem::take(&mut members[b]);
        members[a].extend(absorbed);
        slot_of.push(a);
        dendro.push(m.left, m.right, m.loss);
    }
    survivors(
        slots,
        members,
        dendro,
        full.initial_information,
        full.stats[..steps].to_vec(),
    )
}

/// Packs the alive slots, in slot order, and their members into an
/// [`AibResult`].
fn survivors(
    slots: Vec<Option<Dcf>>,
    members: Vec<Vec<usize>>,
    dendrogram: Dendrogram,
    initial_information: f64,
    stats: Vec<KStat>,
) -> AibResult {
    let (clusters, members): (Vec<Dcf>, Vec<Vec<usize>>) = slots
        .into_iter()
        .zip(members)
        .filter_map(|(c, m)| c.map(|c| (c, m)))
        .unzip();
    AibResult {
        clusters,
        members,
        dendrogram,
        initial_information,
        stats,
    }
}

/// The original lazy-deletion all-pairs heap implementation, kept as the
/// bit-identity oracle for [`aib`] (and for the old-vs-new benchmark).
///
/// Candidate pairs are pushed with their loss and validated against
/// per-slot generation counters when popped, giving `O(q² log q)` time
/// and an `O(q²)`-entry heap.
pub fn aib_reference(inputs: Vec<Dcf>, k: usize) -> AibResult {
    /// Reference-heap entry: `(loss, i, j, gen_i, gen_j)` in a min-heap.
    type RefEntry = Reverse<(OrdLoss, usize, usize, u32, u32)>;
    let q = inputs.len();
    let k = k.max(1);
    let mut dendro = Dendrogram::new(q);
    let mut slots: Vec<Option<Dcf>> = inputs.into_iter().map(Some).collect();
    let mut node_of: Vec<usize> = (0..q).collect();
    // generation counter: entries referencing an older generation are stale.
    let mut gen: Vec<u32> = vec![0; q];

    let initial_information = mutual_information_of(&slots);
    let mut h_c = entropy(slots.iter().flatten().map(|c| c.weight));

    if q == 0 || k >= q {
        let (clusters, members): (Vec<Dcf>, Vec<Vec<usize>>) = slots
            .into_iter()
            .enumerate()
            .filter_map(|(i, c)| c.map(|c| (c, vec![i])))
            .unzip();
        return AibResult {
            clusters,
            members,
            dendrogram: dendro,
            initial_information,
            stats: Vec::new(),
        };
    }

    // Heap of candidate merges.
    let mut heap: BinaryHeap<RefEntry> = BinaryHeap::with_capacity(q * (q - 1) / 2);
    for i in 0..q {
        for j in (i + 1)..q {
            let d = slots[i]
                .as_ref()
                .unwrap()
                .distance(slots[j].as_ref().unwrap());
            heap.push(Reverse((OrdLoss(d), i, j, 0, 0)));
        }
    }

    let mut alive = q;
    let mut members: Vec<Vec<usize>> = (0..q).map(|i| vec![i]).collect();
    let mut stats = Vec::with_capacity(q - k);
    let mut cum_loss = 0.0;

    while alive > k {
        let (loss, i, j) = loop {
            let Reverse((OrdLoss(d), i, j, gi, gj)) = heap
                .pop()
                .expect("heap exhausted before reaching k clusters");
            if gen[i] == gi && gen[j] == gj && slots[i].is_some() && slots[j].is_some() {
                break (d, i, j);
            }
        };

        // Merge slot j into slot i.
        let cj = slots[j].take().expect("validated above");
        let ci = slots[i].as_mut().expect("validated above");
        let (wi, wj) = (ci.weight, cj.weight);
        // Reference path: the original allocating merge (kept verbatim —
        // this function is the bit-identity oracle for `aib`).
        *ci = ci.merge(&cj);
        let w_star = ci.weight;
        gen[i] += 1;
        gen[j] += 1;
        alive -= 1;

        let node = dendro.push(node_of[i], node_of[j], loss);
        node_of[i] = node;
        let absorbed = std::mem::take(&mut members[j]);
        members[i].extend(absorbed);

        h_c = h_c - xlogx_safe(wi) - xlogx_safe(wj) + xlogx_safe(w_star);

        cum_loss += loss;
        let mi = (initial_information - cum_loss).max(0.0);
        stats.push(KStat {
            k: alive,
            cumulative_loss: cum_loss,
            mutual_information: mi,
            cluster_entropy: h_c,
            conditional_entropy: (h_c - mi).max(0.0),
        });

        // New candidate distances from the merged slot.
        if alive > k {
            for other in 0..slots.len() {
                if other == i || slots[other].is_none() {
                    continue;
                }
                let d = slots[i]
                    .as_ref()
                    .unwrap()
                    .distance(slots[other].as_ref().unwrap());
                let (a, b) = (i.min(other), i.max(other));
                heap.push(Reverse((OrdLoss(d), a, b, gen[a], gen[b])));
            }
        }
    }

    let (clusters, final_members): (Vec<Dcf>, Vec<Vec<usize>>) = slots
        .into_iter()
        .zip(members)
        .filter_map(|(c, m)| c.map(|c| (c, m)))
        .unzip();

    AibResult {
        clusters,
        members: final_members,
        dendrogram: dendro,
        initial_information,
        stats,
    }
}

fn xlogx_safe(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        -(x * x.log2())
    }
}

fn mutual_information_of(slots: &[Option<Dcf>]) -> f64 {
    dbmine_infotheory::mutual_information(slots.iter().flatten().map(|c| (c.weight, &c.cond)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_infotheory::SparseDist;
    use rand::{rngs::StdRng, Rng, SeedableRng};

    fn d(pairs: &[(u32, f64)]) -> SparseDist {
        SparseDist::from_pairs(pairs.to_vec())
    }

    /// The paper's attribute-grouping example (matrix F of Figure 9,
    /// normalized): A=[1,0], B=[0.4,0.6], C=[0,1], uniform priors.
    fn figure9_inputs() -> Vec<Dcf> {
        vec![
            Dcf::singleton(1.0 / 3.0, d(&[(0, 1.0)])),
            Dcf::singleton(1.0 / 3.0, d(&[(0, 0.4), (1, 0.6)])),
            Dcf::singleton(1.0 / 3.0, d(&[(1, 1.0)])),
        ]
    }

    /// Random DCF inputs exercising duplicates, overlapping supports and
    /// uneven masses.
    fn random_inputs(rng: &mut StdRng, q: usize) -> Vec<Dcf> {
        let universe = 2 + (q / 2) as u32;
        (0..q)
            .map(|_| {
                let support = rng.gen_range(1usize..=4);
                let pairs: Vec<(u32, f64)> = (0..support)
                    .map(|_| (rng.gen_range(0..universe), rng.gen_range(0.05f64..1.0)))
                    .collect();
                let total: f64 = pairs.iter().map(|&(_, w)| w).sum();
                let pairs = pairs.into_iter().map(|(i, w)| (i, w / total)).collect();
                Dcf::singleton(1.0 / q as f64, SparseDist::from_pairs(pairs))
            })
            .collect()
    }

    /// Asserts two AIB results are bit-identical: same merges with
    /// bit-equal losses, same members, bit-equal stats and weights.
    fn assert_bit_identical(x: &AibResult, y: &AibResult) {
        assert_eq!(x.dendrogram.merges().len(), y.dendrogram.merges().len());
        for (mx, my) in x.dendrogram.merges().iter().zip(y.dendrogram.merges()) {
            assert_eq!((mx.left, mx.right), (my.left, my.right));
            assert_eq!(mx.loss.to_bits(), my.loss.to_bits(), "loss bits differ");
        }
        assert_eq!(x.members, y.members);
        assert_eq!(
            x.initial_information.to_bits(),
            y.initial_information.to_bits()
        );
        assert_eq!(x.stats.len(), y.stats.len());
        for (sx, sy) in x.stats.iter().zip(&y.stats) {
            assert_eq!(sx.k, sy.k);
            assert_eq!(sx.cumulative_loss.to_bits(), sy.cumulative_loss.to_bits());
            assert_eq!(
                sx.mutual_information.to_bits(),
                sy.mutual_information.to_bits()
            );
            assert_eq!(sx.cluster_entropy.to_bits(), sy.cluster_entropy.to_bits());
        }
        assert_eq!(x.clusters.len(), y.clusters.len());
        for (cx, cy) in x.clusters.iter().zip(&y.clusters) {
            assert_eq!(cx.weight.to_bits(), cy.weight.to_bits());
            assert_eq!(cx.count, cy.count);
        }
    }

    #[test]
    fn reproduces_figure10_dendrogram() {
        let r = aib(figure9_inputs(), 1);
        let merges = r.dendrogram.merges();
        assert_eq!(merges.len(), 2);
        // First merge: B (leaf 1) with C (leaf 2) at δI ≈ 0.1577.
        assert_eq!(
            (
                merges[0].left.min(merges[0].right),
                merges[0].left.max(merges[0].right)
            ),
            (1, 2)
        );
        assert!(
            (merges[0].loss - 0.1577).abs() < 1e-3,
            "loss {}",
            merges[0].loss
        );
        // Second: A joins at δI ≈ 0.5155 ("approximately 0.52").
        assert!(
            (merges[1].loss - 0.5155).abs() < 1e-3,
            "loss {}",
            merges[1].loss
        );
        assert!((r.dendrogram.max_loss() - 0.5155).abs() < 1e-3);
    }

    #[test]
    fn nn_cache_matches_reference_on_figure9() {
        for k in 1..=3 {
            let fast = aib(figure9_inputs(), k);
            let slow = aib_reference(figure9_inputs(), k);
            assert_bit_identical(&fast, &slow);
        }
    }

    #[test]
    fn nn_cache_matches_reference_on_random_inputs() {
        let mut rng = StdRng::seed_from_u64(42);
        for _trial in 0..30 {
            let q = rng.gen_range(2usize..=40);
            let k = rng.gen_range(1usize..=q);
            let inputs = random_inputs(&mut rng, q);
            let fast = aib(inputs.clone(), k);
            let slow = aib_reference(inputs, k);
            assert_bit_identical(&fast, &slow);
        }
    }

    #[test]
    fn nn_cache_matches_reference_with_duplicate_objects() {
        // Heavy ties: many identical objects force the tie-breaking rule
        // (smaller slot pair first) to decide every merge.
        let inputs: Vec<Dcf> = (0..12u32)
            .map(|i| Dcf::singleton(1.0 / 12.0, d(&[(i % 3, 1.0)])))
            .collect();
        for k in [1, 2, 3, 5] {
            let fast = aib(inputs.clone(), k);
            let slow = aib_reference(inputs.clone(), k);
            assert_bit_identical(&fast, &slow);
        }
    }

    #[test]
    fn parallel_is_bit_identical_to_serial() {
        // Large enough that the parallel paths actually engage
        // (par_map falls back to serial under 128 items).
        let mut rng = StdRng::seed_from_u64(7);
        let inputs = random_inputs(&mut rng, 300);
        let serial = aib_with(inputs.clone(), 4, 1);
        for threads in [0, 2, 3, 8] {
            let parallel = aib_with(inputs.clone(), 4, threads);
            assert_bit_identical(&serial, &parallel);
        }
    }

    #[test]
    fn zero_weight_clusters_merge_without_panic() {
        // Zero-mass DCFs make δI = 0 candidates; the total_cmp ordering
        // and the merge_information_loss zero-mass guard must keep the
        // clustering NaN-free end to end.
        let inputs = vec![
            Dcf::singleton(0.0, d(&[(0, 1.0)])),
            Dcf::singleton(0.0, d(&[(1, 1.0)])),
            Dcf::singleton(1.0, d(&[(2, 1.0)])),
        ];
        let r = aib(inputs.clone(), 1);
        assert_eq!(r.clusters.len(), 1);
        assert!(r.dendrogram.merges().iter().all(|m| m.loss.is_finite()));
        assert_bit_identical(&r, &aib_reference(inputs, 1));
    }

    #[test]
    fn identical_objects_merge_at_zero_loss() {
        let inputs = vec![
            Dcf::singleton(0.25, d(&[(0, 1.0)])),
            Dcf::singleton(0.25, d(&[(0, 1.0)])),
            Dcf::singleton(0.5, d(&[(1, 1.0)])),
        ];
        let r = aib(inputs, 2);
        assert_eq!(r.clusters.len(), 2);
        assert!(r.dendrogram.merges()[0].loss.abs() < 1e-12);
        // The two identical objects are the merged pair.
        let merged = r.members.iter().find(|m| m.len() == 2).unwrap();
        assert_eq!(*merged, vec![0, 1]);
    }

    #[test]
    fn information_is_monotone_decreasing() {
        let inputs: Vec<Dcf> = (0..6u32)
            .map(|i| Dcf::singleton(1.0 / 6.0, d(&[(i % 3, 0.7), ((i + 1) % 3, 0.3)])))
            .collect();
        let r = aib(inputs, 1);
        let mut prev = r.initial_information;
        for s in &r.stats {
            assert!(s.mutual_information <= prev + 1e-9);
            prev = s.mutual_information;
        }
        // Full merge: I(C_1;T) = 0 (single cluster carries no information).
        assert!(r.final_information().abs() < 1e-6);
    }

    #[test]
    fn stats_report_cluster_entropy() {
        let r = aib(figure9_inputs(), 1);
        // After first merge: masses {1/3, 2/3} → H ≈ 0.918 bits.
        assert!((r.stats[0].cluster_entropy - 0.9183).abs() < 1e-3);
        // After full merge: single cluster → H = 0.
        assert!(r.stats[1].cluster_entropy.abs() < 1e-9);
        assert_eq!(r.stats[0].k, 2);
        assert_eq!(r.stats[1].k, 1);
    }

    #[test]
    fn k_equal_q_is_identity() {
        let inputs = figure9_inputs();
        let r = aib(inputs.clone(), 3);
        assert_eq!(r.clusters.len(), 3);
        assert!(r.dendrogram.merges().is_empty());
        assert!(r.stats.is_empty());
        assert_eq!(r.members, vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn k_greater_than_q_is_identity() {
        let r = aib(figure9_inputs(), 10);
        assert_eq!(r.clusters.len(), 3);
    }

    #[test]
    fn empty_input() {
        let r = aib(Vec::new(), 1);
        assert!(r.clusters.is_empty());
        assert_eq!(r.initial_information, 0.0);
    }

    #[test]
    fn single_input() {
        let r = aib(vec![Dcf::singleton(1.0, d(&[(0, 1.0)]))], 1);
        assert_eq!(r.clusters.len(), 1);
        assert!(r.dendrogram.merges().is_empty());
    }

    #[test]
    fn merged_masses_sum_to_one() {
        let r = aib(figure9_inputs(), 1);
        assert!((r.clusters[0].weight - 1.0).abs() < 1e-9);
        assert_eq!(r.clusters[0].count, 3);
        assert_eq!(r.members[0], vec![0, 1, 2]);
    }

    #[test]
    fn relative_loss_bounds() {
        let r = aib(figure9_inputs(), 2);
        let rl = r.relative_loss();
        assert!((0.0..=1.0).contains(&rl));
    }

    #[test]
    fn deterministic_under_ties() {
        // Four mutually equidistant objects: tie-breaking must be stable.
        let inputs: Vec<Dcf> = (0..4u32)
            .map(|i| Dcf::singleton(0.25, d(&[(i, 1.0)])))
            .collect();
        let a = aib(inputs.clone(), 1);
        let b = aib(inputs, 1);
        let ma: Vec<_> = a
            .dendrogram
            .merges()
            .iter()
            .map(|m| (m.left, m.right))
            .collect();
        let mb: Vec<_> = b
            .dendrogram
            .merges()
            .iter()
            .map(|m| (m.left, m.right))
            .collect();
        assert_eq!(ma, mb);
    }
}
