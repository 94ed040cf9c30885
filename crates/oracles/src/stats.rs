//! The column-profile chunk fold, the oracle of
//! `AnalysisCtx::column_profiles`, which reads the same numbers off the
//! memoized `π_A` and the value index instead.

use dbmine_infotheory::entropy;
use dbmine_relation::stats::ColumnProfile;
use dbmine_relation::{RelationChunk, NULL_VALUE};

/// Profiles every column named in `attr_names`, folded over chunks in
/// global tuple order. Each column counts its values in a slot table
/// indexed by value id, in first-occurrence order, so `distinct` and
/// `entropy` equal the single-attribute
/// `ProjectionStats::of_partition` bit for bit.
pub fn column_profiles_chunks<'a>(
    attr_names: &[String],
    chunks: impl IntoIterator<Item = RelationChunk<'a>>,
) -> Vec<ColumnProfile> {
    let m = attr_names.len();
    // Slot table per column: value id → first-occurrence slot.
    let mut slot: Vec<Vec<u32>> = vec![Vec::new(); m];
    let mut counts: Vec<Vec<usize>> = vec![Vec::new(); m];
    let mut nulls = vec![0usize; m];
    let mut n = 0usize;
    for chunk in chunks {
        n += chunk.n_rows();
        for (a, col) in chunk.columns.iter().enumerate() {
            let slot = &mut slot[a];
            let counts = &mut counts[a];
            for &v in col.iter() {
                if v == NULL_VALUE {
                    nulls[a] += 1;
                }
                let v = v as usize;
                if v >= slot.len() {
                    slot.resize(v + 1, u32::MAX);
                }
                let s = &mut slot[v];
                if *s == u32::MAX {
                    *s = counts.len() as u32;
                    counts.push(1);
                } else {
                    counts[*s as usize] += 1;
                }
            }
        }
    }
    let nf = n as f64;
    (0..m)
        .map(|a| ColumnProfile {
            name: attr_names[a].clone(),
            distinct: counts[a].len(),
            null_fraction: if n == 0 { 0.0 } else { nulls[a] as f64 / nf },
            entropy: if n == 0 {
                0.0
            } else {
                entropy(counts[a].iter().map(|&c| c as f64 / nf))
            },
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::figure1;
    use dbmine_relation::{AttrSet, ProjectionStats, Relation, RelationBuilder, StrippedPartition};

    fn profile_columns(r: &Relation) -> Vec<ColumnProfile> {
        column_profiles_chunks(r.attr_names(), [r.as_chunk()])
    }

    #[test]
    fn profile_reports_all_columns() {
        let r = figure1();
        let p = profile_columns(&r);
        assert_eq!(p.len(), 3);
        assert_eq!(p[0].name, "Ename");
        assert_eq!(p[0].distinct, 2);
        assert_eq!(p[1].distinct, 1);
        assert_eq!(p[2].null_fraction, 0.0);
    }

    #[test]
    fn profiles_equal_single_attribute_projections() {
        let mut b = RelationBuilder::new("t", &["X", "Y"]);
        b.push_row(&[Some("v"), None]);
        b.push_row(&[None, None]);
        b.push_row(&[Some("v"), Some("w")]);
        let r = b.build();
        for (a, p) in profile_columns(&r).iter().enumerate() {
            let part = StrippedPartition::of_attrs(&r, AttrSet::single(a));
            let s = ProjectionStats::of_partition(&part);
            assert_eq!(p.distinct, s.distinct);
            assert_eq!(p.entropy.to_bits(), s.entropy.to_bits());
        }
        let p = profile_columns(&r);
        assert_eq!(
            (p[0].null_fraction, p[1].null_fraction),
            (1.0 / 3.0, 2.0 / 3.0)
        );
    }
}
