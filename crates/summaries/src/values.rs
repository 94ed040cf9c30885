//! Attribute-value clustering (Section 6.2).
//!
//! Clusters the distinct values of a relation so that groups retain as
//! much information as possible about the tuples they appear in. With
//! `φ_V = 0` only perfectly co-occurring values group (e.g. `{a,1}` and
//! `{2,x}` of Figure 4); with `φ_V > 0` "almost" perfect co-occurrences —
//! typically caused by entry errors — group too (Figure 5/8).
//!
//! The resulting groups are classified per the paper:
//! * `C_VD` (duplicate groups): the group's values appear in **at least
//!   two tuples** and span **at least two attributes** (via the merged
//!   `O` row);
//! * `C_VND`: everything else.

use dbmine_context::AnalysisCtx;
use dbmine_ib::{assign_all_with, Dcf};
use dbmine_limbo::{phase1, reexpress_over_clusters, value_dcfs_with, LimboParams};
use dbmine_relation::ValueId;

/// A cluster of attribute values.
#[derive(Clone, Debug)]
pub struct ValueGroup {
    /// The member value ids.
    pub values: Vec<ValueId>,
    /// The merged `O` row: attribute id → total occurrences of the
    /// group's values in that attribute.
    pub o_row: dbmine_infotheory::SparseDist,
    /// Number of distinct tuples containing at least one member value.
    pub tuple_support: usize,
    /// True if the group belongs to `C_VD`.
    pub is_duplicate: bool,
}

impl ValueGroup {
    /// Number of distinct attributes the group's values occur in.
    pub fn attr_span(&self) -> usize {
        self.o_row.support()
    }
}

/// The outcome of attribute-value clustering.
#[derive(Clone, Debug)]
pub struct ValueClustering {
    /// All groups, duplicates first (then by descending support).
    pub groups: Vec<ValueGroup>,
    /// The Phase 1 threshold used.
    pub threshold: f64,
}

impl ValueClustering {
    /// The duplicate groups `C_VD`.
    pub fn duplicates(&self) -> impl Iterator<Item = &ValueGroup> {
        self.groups.iter().filter(|g| g.is_duplicate)
    }

    /// The non-duplicate groups `C_VND`.
    pub fn non_duplicates(&self) -> impl Iterator<Item = &ValueGroup> {
        self.groups.iter().filter(|g| !g.is_duplicate)
    }

    /// The group containing value `v`, if any.
    pub fn group_of(&self, v: ValueId) -> Option<&ValueGroup> {
        self.groups.iter().find(|g| g.values.contains(&v))
    }

    /// True if `a` and `b` were placed in the same group.
    pub fn same_group(&self, a: ValueId, b: ValueId) -> bool {
        self.groups
            .iter()
            .any(|g| g.values.contains(&a) && g.values.contains(&b))
    }

    /// The matrix `F` rows (Section 6.3): for every attribute of the
    /// relation, its distribution over the duplicate groups, weighted by
    /// the `O` counts. Attributes touching no duplicate group get an
    /// empty row.
    pub fn f_rows(&self, n_attrs: usize) -> Vec<dbmine_infotheory::SparseDist> {
        let mut pairs: Vec<Vec<(u32, f64)>> = vec![Vec::new(); n_attrs];
        for (gid, g) in self.duplicates().enumerate() {
            for (a, count) in g.o_row.iter() {
                pairs[a as usize].push((gid as u32, count));
            }
        }
        pairs
            .into_iter()
            .map(dbmine_infotheory::SparseDist::from_pairs)
            .collect()
    }
}

/// Clusters the values of the context's relation with accuracy
/// `params.phi` (`φ_V`), following the paper's three-step procedure
/// (Phase 1, keep multi-object leaves as group seeds, Phase 3
/// association), over the context's shared [`dbmine_relation::ValueIndex`]
/// view and memoized `I(V;T)` (each built at most once per context).
/// `params.threads` sets the parallel DCF construction and association
/// scan; the result is bit-identical to the serial run for every count.
///
/// `tuple_assignment`, when given, enables Double Clustering: values are
/// expressed over these tuple-cluster ids instead of raw tuples.
///
/// ```
/// use dbmine_context::AnalysisCtx;
/// use dbmine_limbo::LimboParams;
/// use dbmine_summaries::cluster_values_ctx;
/// let rel = dbmine_relation::paper::figure4();
/// let c = cluster_values_ctx(&AnalysisCtx::of(&rel), LimboParams::with_phi(0.0), None);
/// // {a,1} and {2,x} co-occur perfectly → the two duplicate groups.
/// assert_eq!(c.duplicates().count(), 2);
/// let a = rel.dict().lookup("a").unwrap();
/// let one = rel.dict().lookup("1").unwrap();
/// assert!(c.same_group(a, one));
/// ```
pub fn cluster_values_ctx(
    ctx: &AnalysisCtx,
    params: LimboParams,
    tuple_assignment: Option<&[usize]>,
) -> ValueClustering {
    let _span = dbmine_telemetry::span("summaries.cluster_values");
    let index = ctx.value_index();
    let objects: Vec<Dcf> = match tuple_assignment {
        Some(assign) => reexpress_over_clusters(index, assign),
        None => value_dcfs_with(index, params.threads),
    };
    // On the raw-tuple path the objects are exactly the `N` rows, so the
    // input information is the context's memoized I(V;T) (bit-identical:
    // singleton DCFs store their conditional verbatim). Re-expressed
    // objects (Double Clustering) carry a different distribution, so
    // their information is computed from the objects themselves.
    let mi = match tuple_assignment {
        Some(_) => {
            dbmine_infotheory::mutual_information(objects.iter().map(|d| (d.weight, &d.cond)))
        }
        None => ctx.value_mutual_information(),
    };
    let model = phase1(&objects, mi, params);

    // Associate every value with its closest leaf summary (Phase 3).
    // Values whose own leaf is a singleton stay alone unless a multi-value
    // summary is strictly closer than their own representation, so we
    // assign against *all* leaves and read groups off the association.
    let mut member_lists: Vec<Vec<usize>> = vec![Vec::new(); model.leaves.len()];
    if !model.leaves.is_empty() {
        for (i, (idx, _)) in assign_all_with(objects.iter(), &model.leaves, params.threads)
            .into_iter()
            .enumerate()
        {
            member_lists[idx].push(i);
        }
    }

    let mut groups: Vec<ValueGroup> = Vec::new();
    for members in member_lists.into_iter().filter(|m| !m.is_empty()) {
        // Merge O rows and compute distinct-tuple support from the index.
        let mut o_row = dbmine_infotheory::SparseDist::new();
        let mut tuples: Vec<u32> = Vec::new();
        for &i in &members {
            o_row.add_assign(index.o_row(i));
            tuples.extend_from_slice(index.occurrences(i));
        }
        tuples.sort_unstable();
        tuples.dedup();
        let tuple_support = tuples.len();
        let is_duplicate = tuple_support >= 2 && o_row.support() >= 2;
        groups.push(ValueGroup {
            values: members.iter().map(|&i| index.value_id(i)).collect(),
            o_row,
            tuple_support,
            is_duplicate,
        });
    }
    groups.sort_by(|a, b| {
        b.is_duplicate
            .cmp(&a.is_duplicate)
            .then(b.tuple_support.cmp(&a.tuple_support))
            .then(a.values.cmp(&b.values))
    });

    ValueClustering {
        groups,
        threshold: model.threshold,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::{figure4, figure5};
    use dbmine_relation::Relation;

    fn cluster(rel: &Relation, phi_v: f64, tuple_assignment: Option<&[usize]>) -> ValueClustering {
        cluster_values_ctx(
            &AnalysisCtx::of(rel),
            LimboParams::with_phi(phi_v),
            tuple_assignment,
        )
    }

    fn vid(rel: &Relation, s: &str) -> ValueId {
        rel.dict().lookup(s).unwrap()
    }

    #[test]
    fn figure4_perfect_cooccurrence_at_phi_zero() {
        // "performing clustering where we allow no loss of information
        //  during merges (φV = 0.0), attribute values a and 1 are clustered
        //  as are values x and 2."
        let rel = figure4();
        let c = cluster(&rel, 0.0, None);
        assert!(c.same_group(vid(&rel, "a"), vid(&rel, "1")));
        assert!(c.same_group(vid(&rel, "2"), vid(&rel, "x")));
        assert!(!c.same_group(vid(&rel, "a"), vid(&rel, "x")));

        // C_VD = {{a,1},{2,x}}, C_VND = {w},{z},{y},{p},{r}.
        let dups: Vec<_> = c.duplicates().collect();
        assert_eq!(dups.len(), 2);
        let nondups: Vec<_> = c.non_duplicates().collect();
        assert_eq!(nondups.len(), 5);
        assert!(nondups.iter().all(|g| g.values.len() == 1));
    }

    #[test]
    fn figure4_merged_o_rows() {
        // O({a,1}) = (2,2,0); O({2,x}) = (0,3,3).
        let rel = figure4();
        let c = cluster(&rel, 0.0, None);
        let g_a1 = c.group_of(vid(&rel, "a")).unwrap();
        assert_eq!(g_a1.o_row.get(0), 2.0);
        assert_eq!(g_a1.o_row.get(1), 2.0);
        assert_eq!(g_a1.o_row.get(2), 0.0);
        assert_eq!(g_a1.tuple_support, 2);
        let g_2x = c.group_of(vid(&rel, "x")).unwrap();
        assert_eq!(g_2x.o_row.get(1), 3.0);
        assert_eq!(g_2x.o_row.get(2), 3.0);
        assert_eq!(g_2x.tuple_support, 3);
    }

    #[test]
    fn figure5_needs_positive_phi() {
        // "when trying to cluster with φV = 0.0, our method does not place
        //  values x and 2 together since they do not exhibit perfect
        //  co-occurrence any more. ... we perform clustering with φV > 0.0."
        let rel = figure5();
        let strict = cluster(&rel, 0.0, None);
        assert!(!strict.same_group(vid(&rel, "2"), vid(&rel, "x")));
        assert!(strict.same_group(vid(&rel, "a"), vid(&rel, "1")));

        let lax = cluster(&rel, 0.5, None);
        assert!(
            lax.same_group(vid(&rel, "2"), vid(&rel, "x")),
            "φV > 0 should tolerate the single erroneous x"
        );
        // O({2,x}) in Figure 8: A=0, B=3, C=4.
        let g = lax.group_of(vid(&rel, "x")).unwrap();
        assert_eq!(g.o_row.get(1), 3.0);
        assert_eq!(g.o_row.get(2), 4.0);
    }

    #[test]
    fn f_rows_match_figure9() {
        // Matrix F: A = (2,0), B = (2,3), C = (0,4)... with group order
        // possibly swapped; verify contents irrespective of order.
        let rel = figure4();
        let c = cluster(&rel, 0.0, None);
        let f = c.f_rows(3);
        assert_eq!(f.len(), 3);
        let row = |a: usize| {
            let mut v: Vec<f64> = f[a].iter().map(|(_, w)| w).collect();
            v.sort_by(|x, y| x.partial_cmp(y).unwrap());
            v
        };
        assert_eq!(row(0), vec![2.0]);
        assert_eq!(row(1), vec![2.0, 3.0]);
        assert_eq!(row(2), vec![3.0]);
        // A and B share a group id; B and C share the other.
        let shared_ab = f[0].iter().any(|(g, _)| f[1].get(g) > 0.0);
        let shared_bc = f[2].iter().any(|(g, _)| f[1].get(g) > 0.0);
        assert!(shared_ab && shared_bc);
    }

    #[test]
    fn null_spanning_attributes_is_duplicate_group() {
        // A NULL-heavy pair of columns: the singleton {NULL} group spans
        // two attributes and many tuples → member of C_VD.
        let mut b = dbmine_relation::RelationBuilder::new("nulls", &["K", "X", "Y"]);
        for i in 0..6 {
            let k = format!("k{i}");
            b.push_row(&[Some(&k), None, None]);
        }
        let rel = b.build();
        let c = cluster(&rel, 0.0, None);
        let g = c.group_of(dbmine_relation::NULL_VALUE).unwrap();
        assert!(g.is_duplicate);
        assert_eq!(g.attr_span(), 2);
        assert_eq!(g.tuple_support, 6);
    }

    #[test]
    fn double_clustering_path() {
        let rel = figure4();
        // Tuple clusters: {t1,t2} and {t3,t4,t5}.
        let assign = vec![0usize, 0, 1, 1, 1];
        let c = cluster(&rel, 0.0, Some(&assign));
        assert!(c.same_group(vid(&rel, "a"), vid(&rel, "1")));
        assert!(c.same_group(vid(&rel, "2"), vid(&rel, "x")));
        // Support counts still come from raw tuples.
        assert_eq!(c.group_of(vid(&rel, "x")).unwrap().tuple_support, 3);
    }
}
