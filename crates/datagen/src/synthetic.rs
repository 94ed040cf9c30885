//! A configurable synthetic-relation generator with *planted* structure:
//! functional dependencies, value skew and noise. Used by the scaling
//! benches and anywhere a relation with known ground truth is needed.

use crate::zipf::Zipf;
use dbmine_relation::{AttrId, Relation, RelationBuilder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A planted dependency: `determinant → dependents`, realized by drawing
/// the determinant's value and deriving every dependent from it through
/// a fixed (per-relation) random mapping.
#[derive(Clone, Debug)]
pub struct PlantedFd {
    /// The determining attribute.
    pub determinant: AttrId,
    /// The derived attributes.
    pub dependents: Vec<AttrId>,
}

/// Generator configuration.
#[derive(Clone, Debug)]
pub struct SyntheticSpec {
    /// Number of tuples.
    pub n_tuples: usize,
    /// Number of attributes.
    pub n_attrs: usize,
    /// Domain size per attribute (free attributes draw Zipf-skewed
    /// values from this many).
    pub domain: usize,
    /// Zipf exponent for free attributes (0 = uniform).
    pub skew: f64,
    /// Structure to plant.
    pub fds: Vec<PlantedFd>,
    /// Per-cell probability of replacing a derived value with a random
    /// one (breaking the planted FDs into approximate ones).
    pub noise: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SyntheticSpec {
    fn default() -> Self {
        SyntheticSpec {
            n_tuples: 1_000,
            n_attrs: 6,
            domain: 20,
            skew: 0.8,
            fds: vec![PlantedFd {
                determinant: 0,
                dependents: vec![1, 2],
            }],
            noise: 0.0,
            seed: 7,
        }
    }
}

/// Generates a relation per the spec. Planted dependencies hold exactly
/// when `noise = 0`; with noise `ε` they hold with `g3` error ≈ `ε`.
///
/// # Panics
/// Panics if a planted attribute id is out of range or an attribute is
/// derived by two different dependencies.
pub fn synthetic(spec: &SyntheticSpec) -> Relation {
    let mut derived_by: Vec<Option<AttrId>> = vec![None; spec.n_attrs];
    for fd in &spec.fds {
        assert!(fd.determinant < spec.n_attrs, "determinant out of range");
        for &d in &fd.dependents {
            assert!(d < spec.n_attrs, "dependent out of range");
            assert!(
                derived_by[d].replace(fd.determinant).is_none(),
                "attribute {d} derived twice"
            );
            assert_ne!(d, fd.determinant, "self-dependency");
        }
    }

    let mut rng = StdRng::seed_from_u64(spec.seed);
    let zipf = Zipf::new(spec.domain, spec.skew);
    // Fixed derivation tables: dependent value = table[determinant value].
    let tables: Vec<Vec<usize>> = (0..spec.n_attrs)
        .map(|_| {
            (0..spec.domain)
                .map(|_| rng.gen_range(0..spec.domain))
                .collect()
        })
        .collect();

    let names: Vec<String> = (0..spec.n_attrs).map(|a| format!("A{a}")).collect();
    let refs: Vec<&str> = names.iter().map(String::as_str).collect();
    let mut b = RelationBuilder::new("synthetic", &refs);
    for _ in 0..spec.n_tuples {
        let mut row: Vec<usize> = (0..spec.n_attrs).map(|_| zipf.sample(&mut rng)).collect();
        for a in 0..spec.n_attrs {
            if let Some(det) = derived_by[a] {
                row[a] = if spec.noise > 0.0 && rng.gen_bool(spec.noise) {
                    rng.gen_range(0..spec.domain)
                } else {
                    tables[a][row[det]]
                };
            }
        }
        let cells: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(a, v)| format!("a{a}v{v}"))
            .collect();
        let strs: Vec<&str> = cells.iter().map(String::as_str).collect();
        b.push_row_strs(&strs);
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// FD check local to this crate (datagen sits below fdmine).
    fn holds(rel: &Relation, lhs: AttrId, rhs: AttrId) -> bool {
        let mut map = std::collections::HashMap::new();
        (0..rel.n_tuples()).all(|t| {
            let v = rel.value(t, rhs);
            *map.entry(rel.value(t, lhs)).or_insert(v) == v
        })
    }

    #[test]
    fn planted_fds_hold_without_noise() {
        let rel = synthetic(&SyntheticSpec::default());
        assert!(holds(&rel, 0, 1));
        assert!(holds(&rel, 0, 2));
        assert_eq!(rel.n_tuples(), 1_000);
        assert_eq!(rel.n_attrs(), 6);
    }

    #[test]
    fn noise_breaks_fds_proportionally() {
        let spec = SyntheticSpec {
            noise: 0.1,
            n_tuples: 4_000,
            ..Default::default()
        };
        let rel = synthetic(&spec);
        assert!(!holds(&rel, 0, 1), "10% noise should break the exact FD");
        // Violation rate in the right ballpark: count cells disagreeing
        // with the majority mapping.
        let mut maps: std::collections::HashMap<u32, std::collections::HashMap<u32, usize>> =
            Default::default();
        for t in 0..rel.n_tuples() {
            *maps
                .entry(rel.value(t, 0))
                .or_default()
                .entry(rel.value(t, 1))
                .or_insert(0) += 1;
        }
        let majority: usize = maps.values().map(|m| m.values().max().unwrap()).sum();
        let err = 1.0 - majority as f64 / rel.n_tuples() as f64;
        assert!((0.02..0.2).contains(&err), "violation rate {err}");
    }

    #[test]
    fn free_attributes_are_not_determined() {
        let rel = synthetic(&SyntheticSpec {
            n_tuples: 2_000,
            ..Default::default()
        });
        // A3..A5 are free: A0 should not determine them.
        assert!(!holds(&rel, 0, 3));
        assert!(!holds(&rel, 0, 4));
    }

    #[test]
    fn deterministic_per_seed() {
        let a = synthetic(&SyntheticSpec::default());
        let b = synthetic(&SyntheticSpec::default());
        for t in (0..a.n_tuples()).step_by(101) {
            assert_eq!(
                a.tuple_projected(t, a.all_attrs()),
                b.tuple_projected(t, b.all_attrs())
            );
        }
    }

    #[test]
    fn skew_produces_duplicated_values() {
        let rel = synthetic(&SyntheticSpec {
            skew: 1.2,
            ..Default::default()
        });
        let pi = dbmine_relation::StrippedPartition::of_attr(&rel, 3);
        let stats = dbmine_relation::ProjectionStats::of_partition(&pi);
        assert!(stats.distinct <= 20);
        // Heavy skew → heavy duplication in the column.
        let h = stats.entropy;
        assert!(h < (20f64).log2(), "entropy {h} should reflect skew");
    }

    #[test]
    #[should_panic(expected = "derived twice")]
    fn double_derivation_rejected() {
        synthetic(&SyntheticSpec {
            fds: vec![
                PlantedFd {
                    determinant: 0,
                    dependents: vec![1],
                },
                PlantedFd {
                    determinant: 2,
                    dependents: vec![1],
                },
            ],
            ..Default::default()
        });
    }
}
