//! Double Clustering (El-Yaniv & Souroujon; Section 6.2 of the paper).
//!
//! When the relation is large, value clustering over individual tuples is
//! expensive: `p(T|v)` rows can have support up to `n`. The paper first
//! clusters the *tuples* with some `φ_T > 0`, then re-expresses each
//! value over the (much smaller) set of tuple clusters and clusters the
//! values there: *"attribute values can be expressed over the (much
//! smaller) set of tuple clusters instead of individual tuples."*

use dbmine_ib::Dcf;
use dbmine_relation::ValueIndex;

/// Re-expresses value ADCFs over tuple clusters.
///
/// `assignment[t]` is the tuple-cluster id of tuple `t` (from a tuple-
/// clustering Phase 3, or directly from Phase 1 leaf membership). Each
/// value's conditional becomes `p(C_T|v)`, obtained by summing the mass
/// of its tuples per cluster; the `O` auxiliary rows are unchanged.
pub fn reexpress_over_clusters(index: &ValueIndex, assignment: &[usize]) -> Vec<Dcf> {
    let p = index.prior();
    (0..index.len())
        .map(|i| {
            let cond = index
                .n_row(i)
                .map_indices(|t| assignment[t as usize] as u32);
            Dcf::singleton_with_aux(p, cond, index.o_row(i).clone())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{run, LimboParams};
    use crate::tuples::tuple_dcfs_ctx;
    use dbmine_context::AnalysisCtx;
    use dbmine_relation::paper::figure4;
    use dbmine_relation::ValueIndex;

    #[test]
    fn reexpression_preserves_mass_and_aux() {
        let rel = figure4();
        let idx = ValueIndex::build(&rel);
        let assignment = vec![0usize, 0, 1, 1, 1];
        let dcfs = reexpress_over_clusters(&idx, &assignment);
        assert_eq!(dcfs.len(), 9);
        for d in &dcfs {
            assert!(d.cond.is_normalized(1e-9));
        }
        // Value "x" lives entirely in tuple cluster 1.
        let x = rel.dict().lookup("x").unwrap();
        let i = idx.position(x).unwrap();
        assert!((dcfs[i].cond.get(1) - 1.0).abs() < 1e-12);
        assert_eq!(dcfs[i].aux.get(2), 3.0);
        // Value "a" lives entirely in tuple cluster 0.
        let a = rel.dict().lookup("a").unwrap();
        let ia = idx.position(a).unwrap();
        assert!((dcfs[ia].cond.get(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn double_clustering_still_finds_cooccurring_groups() {
        // Cluster tuples to 2 clusters, re-express values, cluster values:
        // {a,1} and {2,x} must still co-occur perfectly (distance 0).
        let rel = figure4();
        let ctx = AnalysisCtx::of(&rel);
        let objects = tuple_dcfs_ctx(&ctx, 1);
        let mi = ctx.tuple_mutual_information();
        let tuples = run(&objects, mi, 2, LimboParams::default());
        let assignment: Vec<usize> = tuples.assignments.iter().map(|&(c, _)| c).collect();

        let idx = ctx.value_index();
        let vdcfs = reexpress_over_clusters(idx, &assignment);
        let a = idx.position(rel.dict().lookup("a").unwrap()).unwrap();
        let one = idx.position(rel.dict().lookup("1").unwrap()).unwrap();
        let two = idx.position(rel.dict().lookup("2").unwrap()).unwrap();
        let x = idx.position(rel.dict().lookup("x").unwrap()).unwrap();
        assert!(vdcfs[a].distance(&vdcfs[one]).abs() < 1e-12);
        assert!(vdcfs[two].distance(&vdcfs[x]).abs() < 1e-12);
        assert!(vdcfs[a].distance(&vdcfs[x]) > 0.0);
    }

    #[test]
    fn mismatched_assignment_length_panics() {
        let rel = figure4();
        let idx = ValueIndex::build(&rel);
        let short = vec![0usize; 2];
        let result = std::panic::catch_unwind(|| reexpress_over_clusters(&idx, &short));
        assert!(result.is_err());
    }
}
