//! Multivalued dependencies.
//!
//! The paper's related work covers discovery of multivalued dependencies
//! (Savnik & Flach, its `[25]`) alongside functional ones; MVDs are the
//! dependencies behind fourth-normal-form decompositions, so a structure
//! miner aiming at redesign wants them too.
//!
//! `X ↠ Y` holds on an instance iff within every `X`-group the
//! projections on `Y` and on `Z = R − X − Y` combine freely (the group
//! is their cross product) — equivalently, `π_{X∪Y} ⋈ π_{X∪Z}`
//! reconstructs the group exactly.

use crate::fd::Fd;
use dbmine_relation::{AttrSet, Relation};
use std::collections::{HashMap, HashSet};

/// A multivalued dependency `X ↠ Y`.
///
/// `Y` is kept disjoint from `X`; by the complement rule `X ↠ Y` and
/// `X ↠ R−X−Y` are the same fact, and the canonical form stores the
/// lexicographically smaller side.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Mvd {
    /// The determinant.
    pub lhs: AttrSet,
    /// The (canonical) dependent side.
    pub rhs: AttrSet,
}

impl Mvd {
    /// Builds a canonical MVD over a relation with attribute set `all`:
    /// `rhs` is reduced to exclude `lhs`, and the smaller of
    /// `{rhs, complement}` is stored.
    pub fn canonical(lhs: AttrSet, rhs: AttrSet, all: AttrSet) -> Mvd {
        let rhs = rhs.minus(lhs);
        let complement = all.minus(lhs).minus(rhs);
        let canonical_rhs = if rhs <= complement { rhs } else { complement };
        Mvd {
            lhs,
            rhs: canonical_rhs,
        }
    }

    /// True when the dependency says nothing: empty side or full side.
    pub fn is_trivial(&self, all: AttrSet) -> bool {
        self.rhs.is_empty() || self.lhs.union(self.rhs) == all
    }

    /// Renders as `[X]↠[Y]`.
    pub fn display(&self, names: &[String]) -> String {
        format!("{}↠{}", self.lhs.display(names), self.rhs.display(names))
    }
}

/// True if `lhs ↠ rhs` holds on the instance (set semantics per group).
pub fn mvd_holds(rel: &Relation, lhs: AttrSet, rhs: AttrSet) -> bool {
    let all = rel.all_attrs();
    let y = rhs.minus(lhs);
    let z = all.minus(lhs).minus(y);
    if y.is_empty() || z.is_empty() {
        return true; // trivial
    }
    // Per X-group: distinct (y,z) pairs must equal |Y-proj| × |Z-proj|.
    type Proj = Vec<u32>;
    type GroupStats = (HashSet<Proj>, HashSet<Proj>, HashSet<(Proj, Proj)>);
    let mut groups: HashMap<Proj, GroupStats> = HashMap::new();
    for t in 0..rel.n_tuples() {
        let key = rel.tuple_projected(t, lhs);
        let yv = rel.tuple_projected(t, y);
        let zv = rel.tuple_projected(t, z);
        let entry = groups.entry(key).or_default();
        entry.0.insert(yv.clone());
        entry.1.insert(zv.clone());
        entry.2.insert((yv, zv));
    }
    groups
        .values()
        .all(|(ys, zs, pairs)| pairs.len() == ys.len() * zs.len())
}

/// Mines minimal, non-trivial MVDs with `|X| ≤ max_lhs`.
///
/// For each determinant `X`, computes the *dependency basis* of `X` on
/// the instance — the finest partition of `R − X` into blocks `B` with
/// `X ↠ B` — by merging entangled blocks to a fixpoint. Each non-full
/// basis yields the MVDs `X ↠ B`. Results exclude MVDs implied by an FD
/// with the same LHS when `exclude_fd_implied` is set (every `X → A`
/// trivially gives `X ↠ A`).
pub fn mine_mvds(rel: &Relation, max_lhs: usize, exclude_fd_implied: bool) -> Vec<Mvd> {
    let all = rel.all_attrs();
    let m = rel.n_attrs();
    let fds: Vec<Fd> = if exclude_fd_implied {
        crate::tane::mine_tane_ctx(
            &dbmine_context::AnalysisCtx::of(rel),
            crate::tane::TaneOptions {
                max_lhs: Some(max_lhs),
                ..Default::default()
            },
        )
    } else {
        Vec::new()
    };

    let mut out: HashSet<Mvd> = HashSet::new();
    for bits in 0u64..(1 << m) {
        let x = AttrSet::from_bits(bits);
        if x.len() > max_lhs {
            continue;
        }
        for block in dependency_basis(rel, x) {
            let mvd = Mvd::canonical(x, block, all);
            if mvd.is_trivial(all) {
                continue;
            }
            // Skip if an FD with LHS ⊆ X determines one side of the
            // split: `X → Y` implies `X ↠ Y`, and by the complement rule
            // the canonical form may carry either side, so check both.
            if exclude_fd_implied {
                let determined = |side: AttrSet| {
                    !side.is_empty()
                        && side
                            .iter()
                            .all(|a| fds.iter().any(|f| f.rhs == a && f.lhs.is_subset_of(x)))
                };
                let complement = all.minus(x).minus(mvd.rhs);
                if determined(mvd.rhs) || determined(complement) {
                    continue;
                }
            }
            // Minimality in X: skip if some X' ⊂ X already yields this
            // dependency (same canonical split restricted to R−X').
            let dominated = x.iter().any(|drop| {
                let sub = x.without(drop);
                mvd_holds(rel, sub, mvd.rhs)
            });
            if !dominated {
                out.insert(mvd);
            }
        }
    }
    let mut v: Vec<Mvd> = out.into_iter().collect();
    v.sort();
    v
}

/// A partition of `R − X` into blocks each multivalued-dependent on `X`
/// (the instance-level dependency basis).
///
/// Greedy refinement: start from singleton blocks; while some block `B`
/// violates `X ↠ B`, merge it with the partner that repairs it — by
/// preference a block whose union with `B` satisfies the MVD (smallest
/// such union first), otherwise another violating block. The union of
/// all blocks trivially satisfies `X ↠ R−X`, so the loop terminates.
/// The greedy choice recovers the finest basis in practice (entangled
/// attribute pairs repair each other); an adversarial instance may
/// yield a slightly coarser — still sound — partition.
pub fn dependency_basis(rel: &Relation, x: AttrSet) -> Vec<AttrSet> {
    let rest: Vec<usize> = rel.all_attrs().minus(x).iter().collect();
    let mut blocks: Vec<AttrSet> = rest.iter().map(|&a| AttrSet::single(a)).collect();
    loop {
        let violating: Vec<usize> = (0..blocks.len())
            .filter(|&i| !mvd_holds(rel, x, blocks[i]))
            .collect();
        let Some(&i) = violating.first() else { break };
        // Preferred partner: the smallest block whose union with i passes.
        let mut partner: Option<usize> = None;
        let mut best_len = usize::MAX;
        for j in 0..blocks.len() {
            if j == i {
                continue;
            }
            let union = blocks[i].union(blocks[j]);
            if union.len() < best_len && mvd_holds(rel, x, union) {
                partner = Some(j);
                best_len = union.len();
            }
        }
        // Fallback: another violating block (they repair each other over
        // iterations), else any block.
        let j = partner
            .or_else(|| violating.iter().copied().find(|&j| j != i))
            .unwrap_or(if i == 0 { 1 } else { 0 });
        let union = blocks[i].union(blocks[j]);
        let (lo, hi) = (i.min(j), i.max(j));
        blocks.remove(hi);
        blocks[lo] = union;
    }
    blocks.sort();
    blocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::RelationBuilder;

    /// The textbook CTB relation: each course has a set of teachers and
    /// a set of books, combined freely — Course ↠ Teacher (and ↠ Book),
    /// but no FD from Course.
    fn ctb() -> Relation {
        let mut b = RelationBuilder::new("ctb", &["Course", "Teacher", "Book"]);
        for (c, t, k) in [
            ("db", "anna", "ullman"),
            ("db", "anna", "date"),
            ("db", "bob", "ullman"),
            ("db", "bob", "date"),
            ("os", "carol", "tanenbaum"),
        ] {
            b.push_row_strs(&[c, t, k]);
        }
        b.build()
    }

    #[test]
    fn course_determines_teacher_set() {
        let rel = ctb();
        assert!(mvd_holds(&rel, AttrSet::single(0), AttrSet::single(1)));
        assert!(mvd_holds(&rel, AttrSet::single(0), AttrSet::single(2)));
        // But not the FD: course "db" has two teachers.
        assert!(!crate::check::fd_holds(&rel, AttrSet::single(0), 1));
    }

    #[test]
    fn broken_cross_product_fails() {
        let mut b = RelationBuilder::new("t", &["C", "T", "B"]);
        for (c, t, k) in [
            ("db", "anna", "ullman"),
            ("db", "bob", "date"), // missing (anna,date) & (bob,ullman)
        ] {
            b.push_row_strs(&[c, t, k]);
        }
        let rel = b.build();
        assert!(!mvd_holds(&rel, AttrSet::single(0), AttrSet::single(1)));
    }

    #[test]
    fn fd_implies_mvd() {
        let rel = dbmine_relation::paper::figure4();
        // C → B holds, so C ↠ B must hold.
        assert!(crate::check::fd_holds(&rel, AttrSet::single(2), 1));
        assert!(mvd_holds(&rel, AttrSet::single(2), AttrSet::single(1)));
    }

    #[test]
    fn complement_rule() {
        let rel = ctb();
        let x = AttrSet::single(0);
        let y = AttrSet::single(1);
        let z = rel.all_attrs().minus(x).minus(y);
        assert_eq!(mvd_holds(&rel, x, y), mvd_holds(&rel, x, z));
        // Canonical form identifies the two.
        let a = Mvd::canonical(x, y, rel.all_attrs());
        let b = Mvd::canonical(x, z, rel.all_attrs());
        assert_eq!(a, b);
    }

    #[test]
    fn dependency_basis_of_course() {
        let rel = ctb();
        let basis = dependency_basis(&rel, AttrSet::single(0));
        assert_eq!(
            basis,
            vec![AttrSet::single(1), AttrSet::single(2)],
            "teacher and book are independent given course"
        );
        // A determinant with entangled remainder: basis of ∅ keeps the
        // whole rest in one block (course/teacher/book correlate).
        let basis0 = dependency_basis(&rel, AttrSet::EMPTY);
        assert_eq!(basis0.len(), 1);
    }

    #[test]
    fn mining_finds_course_mvd_and_not_fd_implied() {
        let rel = ctb();
        let mvds = mine_mvds(&rel, 1, true);
        let expected = Mvd::canonical(AttrSet::single(0), AttrSet::single(1), rel.all_attrs());
        assert!(mvds.contains(&expected), "{mvds:?}");
        // With FD-implied exclusion, figure4's C↠B (implied by C→B) is
        // filtered out.
        let fig4 = dbmine_relation::paper::figure4();
        let mvds4 = mine_mvds(&fig4, 1, true);
        let c_b = Mvd::canonical(AttrSet::single(2), AttrSet::single(1), fig4.all_attrs());
        assert!(!mvds4.contains(&c_b), "{mvds4:?}");
        // Without exclusion it (or its complement form) appears.
        let raw = mine_mvds(&fig4, 1, false);
        assert!(raw.contains(&c_b), "{raw:?}");
    }

    #[test]
    fn trivial_mvds_are_suppressed() {
        let rel = ctb();
        let all = rel.all_attrs();
        for mvd in mine_mvds(&rel, 2, false) {
            assert!(!mvd.is_trivial(all), "{mvd:?}");
            assert!(mvd.lhs.is_disjoint(mvd.rhs));
        }
    }

    #[test]
    fn display_format() {
        let names = vec!["C".to_string(), "T".to_string(), "B".to_string()];
        let mvd = Mvd {
            lhs: AttrSet::single(0),
            rhs: AttrSet::single(1),
        };
        assert_eq!(mvd.display(&names), "[C]↠[T]");
    }
}
