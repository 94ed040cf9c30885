//! DCF streams for the paper's three clustering tasks.
//!
//! * [`tuple_dcfs_ctx`] — Section 6.1: objects are tuples, expressed over
//!   values; `p(t) = 1/n`, `p(V|t)` a row of matrix `M`
//!   ([`dbmine_relation::qualified_row`]), built chunk by chunk from the
//!   context's pass ([`tuple_dcfs_for_chunk`]).
//! * [`value_dcfs_with`] — Section 6.2: objects are distinct attribute values,
//!   expressed over tuples; `p(v) = 1/d`, `p(T|v)` from matrix `N`, and
//!   the ADCF auxiliary vector carries the value's `O` row so clusters
//!   accumulate per-attribute support counts.
//! * [`attribute_dcfs`] — Section 6.3: objects are attributes, expressed
//!   over duplicate value groups via the (normalized) matrix `F`.

use dbmine_context::AnalysisCtx;
use dbmine_ib::Dcf;
use dbmine_infotheory::SparseDist;
use dbmine_relation::{qualified_row, qualified_stride, RelationChunk, ValueIndex};

/// Singleton DCFs for every tuple of the relation (matrix `M` rows), in
/// tuple order: one fold of [`tuple_dcfs_for_chunk`] over the context's
/// chunk pass ([`AnalysisCtx::chunks`]), so the context caches nothing.
/// `threads`: `1` = serial, `0` = all cores. Each tuple's DCF is built
/// independently, so the result is bit-identical for every thread count
/// and every chunking.
pub fn tuple_dcfs_ctx(ctx: &AnalysisCtx, threads: usize) -> Vec<Dcf> {
    let _span = dbmine_telemetry::span("limbo.tuple_dcfs");
    let mut out = Vec::with_capacity(ctx.n_tuples());
    for chunk in ctx.chunks() {
        out.extend(tuple_dcfs_for_chunk(ctx, &chunk, threads));
    }
    out
}

/// Singleton tuple DCFs for the rows of one chunk of `ctx`'s pass, with
/// `threads` workers. The stride, the cell mass `1/m` and the prior
/// `p(t) = 1/n` are the whole relation's, so a chunk's DCFs are bitwise
/// the slice `objects[chunk.start..]` of [`tuple_dcfs_ctx`].
pub fn tuple_dcfs_for_chunk(ctx: &AnalysisCtx, chunk: &RelationChunk, threads: usize) -> Vec<Dcf> {
    let m = ctx.n_attrs();
    let stride = qualified_stride(ctx.dict().len(), m);
    let (mass, prior) = (1.0 / m as f64, 1.0 / ctx.n_tuples() as f64);
    dbmine_parallel::par_map_range(threads, chunk.n_rows(), |t| {
        Dcf::singleton(prior, qualified_row(stride, mass, chunk.row_values(t)))
    })
}

/// Singleton ADCFs for every distinct value of the relation: the `N` row
/// as the conditional, the `O` row as the auxiliary count vector.
///
/// Returned in the same order as `index.values()`, so object `i`
/// corresponds to value id `index.value_id(i)`. `threads`: `1` = serial,
/// `0` = all cores; bit-identical to the serial construction for every
/// count.
pub fn value_dcfs_with(index: &ValueIndex, threads: usize) -> Vec<Dcf> {
    let p = index.prior();
    dbmine_parallel::par_map_range(threads, index.len(), |i| {
        Dcf::singleton_with_aux(p, index.n_row(i), index.o_row(i).clone())
    })
}

/// Singleton DCFs for attributes expressed over duplicate value groups.
///
/// `f_rows[a]` is attribute `a`'s (unnormalized) row of matrix `F` —
/// group id → how many occurrences of that group's values fall in
/// attribute `a`. Attributes with empty rows are skipped; the returned
/// pairs give `(attribute id, DCF)` with uniform priors over the
/// participating attributes (the paper's set `A_D`).
pub fn attribute_dcfs(f_rows: &[SparseDist]) -> Vec<(usize, Dcf)> {
    let participating: Vec<usize> = (0..f_rows.len())
        .filter(|&a| !f_rows[a].is_empty())
        .collect();
    let p = 1.0 / participating.len().max(1) as f64;
    participating
        .into_iter()
        .map(|a| (a, Dcf::singleton(p, f_rows[a].normalized())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::figure4;
    use dbmine_relation::ValueIndex;

    #[test]
    fn tuple_dcfs_are_uniform_prior() {
        let rel = figure4();
        let dcfs = tuple_dcfs_ctx(&AnalysisCtx::of(&rel), 1);
        assert_eq!(dcfs.len(), 5);
        assert!(dcfs.iter().all(|d| (d.weight - 0.2).abs() < 1e-12));
        assert!(dcfs.iter().all(|d| d.cond.is_normalized(1e-9)));
    }

    #[test]
    fn value_dcfs_carry_o_rows() {
        let rel = figure4();
        let idx = ValueIndex::build(&rel);
        let dcfs = value_dcfs_with(&idx, 1);
        assert_eq!(dcfs.len(), 9);
        assert!(dcfs.iter().all(|d| (d.weight - 1.0 / 9.0).abs() < 1e-12));
        // The "x" value: O row has 3 in attribute C (id 2).
        let x = rel.dict().lookup("x").unwrap();
        let i = idx.position(x).unwrap();
        assert_eq!(dcfs[i].aux.get(2), 3.0);
    }

    #[test]
    fn attribute_dcfs_skip_empty_rows() {
        let rows = vec![
            SparseDist::from_pairs(vec![(0, 2.0)]),
            SparseDist::new(),
            SparseDist::from_pairs(vec![(0, 2.0), (1, 3.0)]),
        ];
        let dcfs = attribute_dcfs(&rows);
        assert_eq!(dcfs.len(), 2);
        assert_eq!(dcfs[0].0, 0);
        assert_eq!(dcfs[1].0, 2);
        assert!((dcfs[0].1.weight - 0.5).abs() < 1e-12);
        assert!(dcfs[1].1.cond.is_normalized(1e-9));
    }
}
