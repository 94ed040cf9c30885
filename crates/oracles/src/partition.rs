//! The `HashMap` partition product, the oracle of
//! [`StrippedPartition::product_with`], and the pin of
//! [`StrippedPartition::restrict_remap`] against a rebuilt projection.

use dbmine_relation::StrippedPartition;

/// The original product implementation (probe table + per-class
/// `HashMap`, classes sorted), kept as the oracle for
/// [`StrippedPartition::product_with`]'s regression and property tests.
/// Its output is in canonical order.
pub fn product_reference(left: &StrippedPartition, other: &StrippedPartition) -> StrippedPartition {
    debug_assert_eq!(left.n(), other.n());
    // Map tuple → class id in `left` (usize::MAX for singletons).
    let mut class_of = vec![usize::MAX; left.n()];
    for (cid, class) in left.classes().enumerate() {
        for &t in class {
            class_of[t as usize] = cid;
        }
    }
    // For each class of `other`, bucket its tuples by their `left` class.
    let mut buckets: std::collections::HashMap<usize, Vec<u32>> = Default::default();
    let mut classes: Vec<Vec<u32>> = Vec::new();
    for class in other.classes() {
        buckets.clear();
        for &t in class {
            let cid = class_of[t as usize];
            if cid != usize::MAX {
                buckets.entry(cid).or_default().push(t);
            }
        }
        classes.extend(buckets.drain().map(|(_, c)| c).filter(|c| c.len() >= 2));
    }
    for c in &mut classes {
        c.sort_unstable();
    }
    classes.sort();
    StrippedPartition::from_classes(classes, left.n())
}

#[cfg(test)]
mod tests {
    //! [`StrippedPartition::product_with`] pinned to the reference.
    use super::*;
    use dbmine_relation::paper::figure4;
    use dbmine_relation::{PartitionScratch, RelationBuilder};

    #[test]
    fn restrict_remap_matches_fresh_build_on_projection() {
        let rel = figure4();
        // Project on {B, C}: distinct rows come from parent tuples 0,1,2.
        let attrs: dbmine_relation::AttrSet = [1usize, 2].into_iter().collect();
        let rows = StrippedPartition::of_attrs(&rel, attrs).first_rows();
        let child = crate::project_distinct(&rel, attrs, "bc");
        let mut map = vec![u32::MAX; rel.n_tuples()];
        for (ci, &pt) in rows.iter().enumerate() {
            map[pt as usize] = ci as u32;
        }
        for (ci, a) in attrs.iter().enumerate() {
            let derived =
                StrippedPartition::of_attr(&rel, a).restrict_remap(&map, child.n_tuples());
            let fresh = StrippedPartition::of_attr(&child, ci);
            assert_eq!(derived, fresh, "attr {a} restriction diverged");
        }
    }

    #[test]
    fn product_matches_reference_on_paper_relations() {
        // Same classes as the oracle once canonically ordered, and the
        // counting pass alone yields the same sizes.
        let mut scratch = PartitionScratch::new();
        for rel in [
            dbmine_relation::paper::figure1(),
            figure4(),
            dbmine_relation::paper::figure5(),
        ] {
            for a in 0..rel.n_attrs() {
                for b in 0..rel.n_attrs() {
                    let pa = StrippedPartition::of_attr(&rel, a);
                    let pb = StrippedPartition::of_attr(&rel, b);
                    let product = pa.product_with(&pb, &mut scratch);
                    assert_eq!(
                        product.canonical(),
                        product_reference(&pa, &pb),
                        "{} · {} on {}",
                        a,
                        b,
                        rel.name()
                    );
                    assert_eq!(&pa.product_sizes(&pb, &mut scratch), product.sizes());
                }
            }
        }
    }

    #[test]
    fn scratch_survives_mixed_relation_sizes() {
        // One scratch across partitions of different relations and
        // sizes: the clean-state invariant must hold between calls.
        let mut scratch = PartitionScratch::new();
        let small = figure4();
        let mut b = RelationBuilder::new("big", &["A", "B"]);
        for i in 0..100 {
            b.push_row_strs(&[&format!("a{}", i % 7), &format!("b{}", i % 3)]);
        }
        let big = b.build();
        for _ in 0..3 {
            for rel in [&small, &big] {
                let pa = StrippedPartition::of_attr(rel, 0);
                let pb = StrippedPartition::of_attr(rel, 1);
                assert_eq!(
                    pa.product_with(&pb, &mut scratch).canonical(),
                    product_reference(&pa, &pb)
                );
                let pab = pa.product_with(&pb, &mut scratch);
                assert_eq!(&pa.product_sizes(&pb, &mut scratch), pab.sizes());
                let g3_scratch = pa.g3_error_with(&pab, &mut scratch);
                let g3_fresh = pa.g3_error(&pab);
                assert_eq!(g3_scratch, g3_fresh);
            }
        }
    }

    #[test]
    fn empty_partition_products() {
        let empty = StrippedPartition::from_classes(Vec::<Vec<u32>>::new(), 5);
        let full = StrippedPartition::of_empty(5);
        let mut scratch = PartitionScratch::new();
        assert_eq!(
            empty.product_with(&full, &mut scratch),
            product_reference(&empty, &full)
        );
        assert_eq!(
            full.product_with(&empty, &mut scratch),
            product_reference(&full, &empty)
        );
        assert!(full.product_with(&empty, &mut scratch).is_key());
        assert!(full.product_sizes(&empty, &mut scratch).is_key());
    }
}
