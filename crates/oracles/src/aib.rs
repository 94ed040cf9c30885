//! The all-pairs AIB heap, the oracle of [`dbmine_ib::aib()`].
//!
//! [`aib_reference`] is the original lazy-deletion implementation with
//! its `O(q²)`-entry heap; the candidate-list [`dbmine_ib::aib()`] is
//! pinned bit-identical to it (same merges, losses, members and
//! statistics). The helpers below are private copies of the ones the
//! shipped AIB keeps for itself.

use crate::dcf::dcf_merge;
use dbmine_ib::{AibResult, Dcf, Dendrogram, KStat};
use dbmine_infotheory::entropy;
use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

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

/// The original lazy-deletion all-pairs heap implementation, kept as the
/// bit-identity oracle for [`dbmine_ib::aib()`] (and for the old-vs-new
/// benchmark).
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
        *ci = dcf_merge(ci, &cj);
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
    //! The candidate-list [`dbmine_ib::aib()`] pinned to the reference.
    use super::*;
    use dbmine_ib::aib;
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
}
