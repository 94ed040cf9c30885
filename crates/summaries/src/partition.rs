//! Horizontal partitioning of overloaded tables (Section 6.1.2).
//!
//! The paper's recipe: run Phase 1 to get a manageable number of leaf
//! summaries, run AIB over them down to `k = 1` while recording the rate
//! of change of `I(C_k;V)` and `H(C_k|V)`, pick a natural `k` from those
//! derivatives, and Phase 3-assign every tuple.
//!
//! Phase 2 runs exactly once: the chosen `k`-clustering is cut from that
//! run's dendrogram with [`dbmine_ib::aib_cut`] (a replay of its first
//! `q − k` merges, bitwise the clustering a second AIB run to `k` would
//! return).

use dbmine_context::AnalysisCtx;
use dbmine_ib::{aib_cut, Dcf, KStat};
use dbmine_limbo::{phase2_with, LimboParams, TupleStream};
use dbmine_relation::Relation;

/// The outcome of horizontal partitioning.
#[derive(Clone, Debug)]
pub struct PartitionResult {
    /// The chosen number of partitions.
    pub k: usize,
    /// Tuple indices per partition, largest partition first.
    pub partitions: Vec<Vec<usize>>,
    /// Per-`k` statistics of the full Phase 2 clustering (for inspecting
    /// the δI / δH derivatives, ordered by decreasing `k`).
    pub stats: Vec<KStat>,
    /// Fraction of `I(T;V)` lost by the final k-way clustering — a hard
    /// bound of `1 - log2(k)/I(T;V)` applies, so this is large whenever
    /// tuples are individually distinctive.
    pub relative_loss: f64,
    /// Fraction of the Phase 1 summary information `I(C_leaves;V)` lost
    /// by the final k-way clustering after Phase 3 (the paper's "loss of
    /// initial information after Phase 3 was 9.45%": its "initial"
    /// clustering is the ~100-leaf summary Phase 2 starts from).
    pub phase3_loss: f64,
    /// Number of Phase 1 leaf summaries.
    pub n_summaries: usize,
}

impl PartitionResult {
    /// Materializes partition `i` as a relation.
    ///
    /// The one summary tool that takes the resident relation instead of
    /// its context: [`Relation::select`] keeps the parent's dictionary,
    /// so partition `i` shares its value ids with `rel`, while
    /// `AnalysisCtx::select_rows` re-interns each row into a fresh
    /// dictionary: switching would renumber the values, and could change
    /// the output of the paper binaries that cluster a partition (Tables
    /// 4–6, Figures 16–18).
    pub fn partition_relation(&self, rel: &Relation, i: usize) -> Relation {
        rel.select(&self.partitions[i], &format!("{}#c{}", rel.name(), i + 1))
    }
}

/// Picks a "natural" `k ≥ 2` from AIB statistics by a knee heuristic on
/// the rate of change of `I(C_k;V)` (Section 6.1.2): the per-merge loss
/// sequence `δI` is non-decreasing in the aggregate; a *natural*
/// clustering sits just before the merge whose loss jumps the most over
/// its predecessor. Returns 1 when no merges happened.
pub fn suggest_k(stats: &[KStat], max_k: usize) -> usize {
    if stats.is_empty() {
        return 1;
    }
    // stats[i] describes the state after merge i; the loss of merge i is
    // the first difference of the cumulative losses.
    let delta_of = |i: usize| -> f64 {
        if i == 0 {
            stats[0].cumulative_loss
        } else {
            stats[i].cumulative_loss - stats[i - 1].cumulative_loss
        }
    };
    let mut best_k = 2usize.min(stats[0].k + 1).max(1);
    let mut best_jump = f64::NEG_INFINITY;
    #[allow(clippy::needless_range_loop)] // delta_of(i) needs the index
    for i in 1..stats.len() {
        // If merge i is the expensive one, the natural clustering is the
        // one it destroys: k_before = stats[i].k + 1 clusters.
        let k_before = stats[i].k + 1;
        if k_before < 2 || k_before > max_k {
            continue;
        }
        let jump = delta_of(i) - delta_of(i - 1);
        if jump > best_jump {
            best_jump = jump;
            best_k = k_before;
        }
    }
    best_k
}

/// Horizontally partitions the context's relation: Phase 1 and Phase 3
/// each stream the tuple DCFs from the context's chunk pass
/// ([`TupleStream`]), and `I(T;V)` is the context's memoized fold (built
/// at most once per context).
///
/// * `params.phi` (`φ_T`) controls the Phase 1 summary granularity (use
///   a value that leaves on the order of 100 summaries, per the paper);
///   `params.threads` sets the parallel Phase 2/3, bit-identical to the
///   serial run for every thread count.
/// * `k`: `Some(k)` forces the partition count; `None` lets the knee
///   heuristic choose among `2..=max_k`.
pub fn horizontal_partition_ctx(
    ctx: &AnalysisCtx,
    params: LimboParams,
    k: Option<usize>,
    max_k: usize,
) -> PartitionResult {
    let _span = dbmine_telemetry::span("summaries.horizontal_partition");
    let threads = params.threads;
    let tuples = TupleStream::new(ctx);
    let model = tuples.phase1(params);
    let mi = model.mutual_information;
    let n_summaries = model.leaves.len();

    // Full clustering (down to one cluster) to obtain all k statistics.
    let full = phase2_with(&model, 1, threads);
    let chosen_k = k
        .unwrap_or_else(|| suggest_k(&full.stats, max_k))
        .clamp(1, n_summaries.max(1));

    // Cut the chosen k from the same run and assign all tuples. For the
    // "loss of initial information after Phase 3", each final cluster's
    // DCF is rebuilt from its *assigned* tuples, merged in tuple order,
    // and I(C;V) is compared with the input I(T;V).
    let clustering = aib_cut(model.leaves, &full, chosen_k);
    let mut partitions = vec![Vec::new(); clustering.clusters.len()];
    let mut cluster_dcfs: Vec<Option<Dcf>> = vec![None; clustering.clusters.len()];
    tuples.phase3(&clustering.clusters, threads, |t, dcf, (c, _)| {
        partitions[c].push(t);
        match &mut cluster_dcfs[c] {
            Some(acc) => acc.merge_in_place(&dcf),
            slot => *slot = Some(dcf),
        }
    });
    let mut clustered = dbmine_infotheory::MutualInformation::new();
    for dcf in cluster_dcfs.iter().flatten() {
        clustered.add(dcf.weight, &dcf.cond);
    }
    let mi_clustered = clustered.finish();
    let relative_loss = if mi > 0.0 {
        (1.0 - mi_clustered / mi).max(0.0)
    } else {
        0.0
    };
    // Loss relative to the Phase 1 summary clustering (Phase 2's input).
    let mi_leaves = clustering.initial_information;
    let phase3_loss = if mi_leaves > 0.0 {
        (1.0 - mi_clustered / mi_leaves).clamp(0.0, 1.0)
    } else {
        0.0
    };

    partitions.retain(|p| !p.is_empty());
    partitions.sort_by_key(|p| std::cmp::Reverse(p.len()));

    PartitionResult {
        k: chosen_k,
        partitions,
        stats: full.stats,
        relative_loss,
        phase3_loss,
        n_summaries,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::RelationBuilder;

    fn partition(rel: &Relation, phi_t: f64, k: Option<usize>, max_k: usize) -> PartitionResult {
        horizontal_partition_ctx(
            &AnalysisCtx::of(rel),
            LimboParams::with_phi(phi_t),
            k,
            max_k,
        )
    }

    /// An "overloaded" relation mixing two tuple types (the paper's
    /// product-orders vs service-orders example): type 1 populates
    /// attributes P1/P2, type 2 populates S1/S2 — the other pair is NULL.
    fn overloaded(n1: usize, n2: usize) -> dbmine_relation::Relation {
        let mut b = RelationBuilder::new("orders", &["Id", "P1", "P2", "S1", "S2"]);
        for i in 0..n1 {
            let id = format!("p{i}");
            let p1 = format!("prod{}", i % 3);
            let p2 = format!("qty{}", i % 2);
            b.push_row(&[Some(&id), Some(&p1), Some(&p2), None, None]);
        }
        for i in 0..n2 {
            let id = format!("s{i}");
            let s1 = format!("svc{}", i % 3);
            let s2 = format!("lvl{}", i % 2);
            b.push_row(&[Some(&id), None, None, Some(&s1), Some(&s2)]);
        }
        b.build()
    }

    #[test]
    fn separates_two_tuple_types() {
        let rel = overloaded(20, 12);
        let r = partition(&rel, 0.0, Some(2), 10);
        assert_eq!(r.k, 2);
        assert_eq!(r.partitions.len(), 2);
        let sizes: Vec<usize> = r.partitions.iter().map(Vec::len).collect();
        assert_eq!(sizes, vec![20, 12]);
        // Partition 0 is all product tuples (indices 0..20).
        assert!(r.partitions[0].iter().all(|&t| t < 20));
    }

    #[test]
    fn heuristic_detects_k2() {
        let rel = overloaded(20, 12);
        let r = partition(&rel, 0.0, None, 10);
        assert_eq!(r.k, 2, "knee heuristic should find the 2 tuple types");
    }

    #[test]
    fn partition_relations_materialize() {
        let rel = overloaded(6, 4);
        let r = partition(&rel, 0.0, Some(2), 10);
        let p0 = r.partition_relation(&rel, 0);
        assert_eq!(p0.n_tuples(), 6);
        assert_eq!(p0.n_attrs(), 5);
    }

    #[test]
    fn k1_puts_everything_together() {
        let rel = overloaded(5, 5);
        let r = partition(&rel, 0.0, Some(1), 10);
        assert_eq!(r.partitions.len(), 1);
        assert_eq!(r.partitions[0].len(), 10);
    }

    #[test]
    fn relative_loss_in_unit_range() {
        let rel = overloaded(10, 10);
        let r = partition(&rel, 0.0, Some(2), 10);
        assert!(
            (0.0..=1.0).contains(&r.relative_loss),
            "loss {}",
            r.relative_loss
        );
    }

    #[test]
    fn suggest_k_empty_stats() {
        assert_eq!(suggest_k(&[], 10), 1);
    }

    #[test]
    fn phase1_compression_with_positive_phi() {
        let rel = overloaded(50, 30);
        let r = partition(&rel, 1.0, Some(2), 10);
        assert!(
            r.n_summaries < 80,
            "φ=1.0 should compress: {}",
            r.n_summaries
        );
        let total: usize = r.partitions.iter().map(Vec::len).sum();
        assert_eq!(total, 80);
    }
}
