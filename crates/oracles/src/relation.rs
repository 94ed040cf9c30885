//! The deduplicating projection over a resident relation, the oracle of
//! `AnalysisCtx::derive_projected`.

use dbmine_relation::{select_rows_chunks, AttrSet, Relation, StrippedPartition};

/// Projects `rel` onto `attrs` and removes duplicate rows (set
/// semantics): the π of relational algebra, keeping each distinct row's
/// first occurrence, in tuple order. A context derives the same rows
/// from its memoized partitions instead.
pub fn project_distinct(rel: &Relation, attrs: AttrSet, name: &str) -> Relation {
    let rows = StrippedPartition::of_attrs(rel, attrs).first_rows();
    let (names, dict) = (rel.attr_names(), rel.dict());
    select_rows_chunks(name, names, dict, &rows, attrs, [rel.as_chunk()])
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::paper::figure4;
    use dbmine_relation::RelationBuilder;

    fn set(attrs: &[usize]) -> AttrSet {
        attrs.iter().copied().collect()
    }

    #[test]
    fn project_distinct_keeps_first_occurrences() {
        let r = figure4();
        // B,C pairs: (1,p) t0, (1,r) t1, (2,x) t2 (t3,t4 duplicate it).
        let attrs = set(&[1, 2]);
        let rows = StrippedPartition::of_attrs(&r, attrs).first_rows();
        assert_eq!(rows, vec![0, 1, 2]);
        let p = project_distinct(&r, attrs, "bc");
        assert_eq!(p.n_tuples(), 3);
        for (ci, &pt) in rows.iter().enumerate() {
            assert_eq!(p.value_str(ci, 0), r.value_str(pt as usize, 1));
            assert_eq!(p.value_str(ci, 1), r.value_str(pt as usize, 2));
        }
    }

    #[test]
    fn project_distinct_dedups() {
        let p = project_distinct(&figure4(), set(&[1]), "b_only");
        assert_eq!(p.n_tuples(), 2);
        assert_eq!(p.attr_names(), &["B".to_string()]);
    }

    #[test]
    fn nulls_survive_projection() {
        let mut b = RelationBuilder::new("n", &["X", "Y"]);
        b.push_row(&[Some("a"), None]);
        b.push_row(&[Some("a"), None]);
        let p = project_distinct(&b.build(), set(&[0, 1]), "p");
        assert_eq!(p.n_tuples(), 1);
        assert!(p.is_null(0, 1));
    }
}
