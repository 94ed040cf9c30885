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
//!
//! The test reads stripped partitions, products of the context's `π_A`:
//! a class `C` of `π_X` holds `|C| − e_C(S)` distinct projections on
//! `X ∪ S` (`e_C(S)` sums `|K| − 1` over the classes `K` of `π_{X∪S}` in
//! `C`), and `X ↠ Y` holds iff `distinct(XY) · distinct(XZ) = distinct(R)`
//! in every class.

use crate::fd::Fd;
use dbmine_context::AnalysisCtx;
use dbmine_relation::{AttrSet, PartitionScratch, StrippedPartition};
use std::borrow::Cow;
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
pub fn mvd_holds(ctx: &AnalysisCtx, lhs: AttrSet, rhs: AttrSet) -> bool {
    Determinant::new(ctx, lhs).holds(rhs)
}

/// The MVD test for one determinant `X`, given `rest = R − X`: `π_X`,
/// each `π_{X∪a}` for `a ∈ R − X` (any `π_{X∪S}` is their product) and
/// the per-class error of `π_R`, built once for every `X ↠ Y` tested.
struct Determinant {
    rest: AttrSet,
    px: StrippedPartition,
    /// `π_X`'s class id of every tuple ([`StrippedPartition::class_ids`]).
    ids: Vec<u32>,
    /// `π_{X∪a}`, indexed by attribute (empty for `a ∈ X`).
    pxa: Vec<StrippedPartition>,
    /// `e_C(π_R)` per class of `π_X`.
    r_error: Vec<usize>,
    scratch: PartitionScratch,
}

impl Determinant {
    fn new(ctx: &AnalysisCtx, x: AttrSet) -> Self {
        let px = ctx.partition(x);
        let mut scratch = PartitionScratch::new();
        let mut probe = px.probe(&mut scratch);
        let pxa = (0..ctx.n_attrs())
            .map(|a| {
                let pa = (!x.contains(a)).then(|| ctx.attr_partition(a));
                pa.map_or_else(StrippedPartition::default, |pa| probe.product(pa))
            })
            .collect();
        drop(probe);
        let mut det = Determinant {
            rest: ctx.all_attrs().minus(x),
            ids: px.class_ids(),
            px,
            pxa,
            r_error: Vec::new(),
            scratch,
        };
        det.r_error = det.errors(det.rest);
        det
    }

    /// `e_C(π_{X∪side})` for every class `C` of `π_X`, `side ⊆ R − X`. A
    /// stripped class of `π_{X∪side}` lies in a stripped class of `π_X`,
    /// whose id is below `|π_X|`.
    fn errors(&mut self, side: AttrSet) -> Vec<usize> {
        let mut attrs = side.iter();
        let mut p = Cow::Borrowed(attrs.next().map_or(&self.px, |a| &self.pxa[a]));
        for a in attrs {
            p = Cow::Owned(p.product_with(&self.pxa[a], &mut self.scratch));
        }
        let mut error = vec![0; self.px.n_classes()];
        for class in p.classes() {
            error[self.ids[class[0] as usize] as usize] += class.len() - 1;
        }
        error
    }

    fn holds(&mut self, rhs: AttrSet) -> bool {
        let y = rhs.intersect(self.rest);
        let z = self.rest.minus(y);
        if y.is_empty() || z.is_empty() {
            return true; // trivial
        }
        let (ey, ez) = (self.errors(y), self.errors(z));
        let sizes = self.px.sizes().iter().zip(&self.r_error);
        sizes
            .zip(ey.iter().zip(&ez))
            .all(|((n, r), (y, z))| (n - y) * (n - z) == n - r)
    }
}

/// Mines minimal, non-trivial MVDs with `|X| ≤ max_lhs`.
///
/// For each determinant `X`, computes the *dependency basis* of `X` on
/// the instance — the finest partition of `R − X` into blocks `B` with
/// `X ↠ B` — by merging entangled blocks to a fixpoint. Each non-full
/// basis yields the MVDs `X ↠ B`. Results exclude MVDs implied by an FD
/// with the same LHS when `exclude_fd_implied` is set (every `X → A`
/// trivially gives `X ↠ A`).
pub fn mine_mvds(ctx: &AnalysisCtx, max_lhs: usize, exclude_fd_implied: bool) -> Vec<Mvd> {
    let _span = dbmine_telemetry::span("fdmine.mvds");
    let all = ctx.all_attrs();
    let fds: Vec<Fd> = if exclude_fd_implied {
        crate::tane::mine_tane_ctx(
            ctx,
            crate::tane::TaneOptions {
                max_lhs: Some(max_lhs),
                ..Default::default()
            },
        )
    } else {
        Vec::new()
    };

    let mut out: HashSet<Mvd> = HashSet::new();
    for x in sets_up_to(ctx.n_attrs(), max_lhs) {
        for block in dependency_basis(ctx, x) {
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
            let dominated = x
                .iter()
                .any(|drop| mvd_holds(ctx, x.without(drop), mvd.rhs));
            if !dominated {
                out.insert(mvd);
            }
        }
    }
    let mut v: Vec<Mvd> = out.into_iter().collect();
    v.sort();
    v
}

/// The subsets of `0..m` with at most `max` members, level by level in
/// bit order (Gosper's rule in `u128`): `Σ_{k ≤ max} C(m, k)`, not `2^m`.
fn sets_up_to(m: usize, max: usize) -> impl Iterator<Item = AttrSet> {
    (0..=max.min(m)).flat_map(move |k| {
        std::iter::successors(Some((1u128 << k) - 1), move |&c| {
            let low = c & c.wrapping_neg();
            let ripple = c + low;
            let next = ripple + (((ripple ^ c) / low.max(1)) >> 2);
            (c != 0 && next < 1u128 << m).then_some(next)
        })
        .map(|c| AttrSet::from_bits(c as u64))
    })
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
/// yield a slightly coarser — still sound — partition. `X ↠ B` depends
/// on `B` alone, so each block's verdict is computed once.
pub fn dependency_basis(ctx: &AnalysisCtx, x: AttrSet) -> Vec<AttrSet> {
    let mut det = Determinant::new(ctx, x);
    let mut blocks: Vec<AttrSet> = det.rest.iter().map(AttrSet::single).collect();
    let mut verdicts: HashMap<AttrSet, bool> = HashMap::new();
    let mut holds = |b: AttrSet| *verdicts.entry(b).or_insert_with(|| det.holds(b));
    loop {
        let violating: Vec<usize> = (0..blocks.len()).filter(|&i| !holds(blocks[i])).collect();
        let Some(&i) = violating.first() else { break };
        // Preferred partner: the smallest block whose union with i passes.
        let mut partner: Option<usize> = None;
        let mut best_len = usize::MAX;
        for j in 0..blocks.len() {
            if j == i {
                continue;
            }
            let union = blocks[i].union(blocks[j]);
            if union.len() < best_len && holds(union) {
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
    use dbmine_relation::{Relation, RelationBuilder};

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
        assert!(mvd_holds(
            &AnalysisCtx::of(&rel),
            AttrSet::single(0),
            AttrSet::single(1)
        ));
        assert!(mvd_holds(
            &AnalysisCtx::of(&rel),
            AttrSet::single(0),
            AttrSet::single(2)
        ));
        // But not the FD: course "db" has two teachers.
        assert!(!dbmine_oracles::fd_holds(&rel, AttrSet::single(0), 1));
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
        assert!(!mvd_holds(
            &AnalysisCtx::of(&rel),
            AttrSet::single(0),
            AttrSet::single(1)
        ));
    }

    #[test]
    fn fd_implies_mvd() {
        let rel = dbmine_relation::paper::figure4();
        // C → B holds, so C ↠ B must hold.
        assert!(dbmine_oracles::fd_holds(&rel, AttrSet::single(2), 1));
        assert!(mvd_holds(
            &AnalysisCtx::of(&rel),
            AttrSet::single(2),
            AttrSet::single(1)
        ));
    }

    #[test]
    fn complement_rule() {
        let rel = ctb();
        let x = AttrSet::single(0);
        let y = AttrSet::single(1);
        let z = rel.all_attrs().minus(x).minus(y);
        assert_eq!(
            mvd_holds(&AnalysisCtx::of(&rel), x, y),
            mvd_holds(&AnalysisCtx::of(&rel), x, z)
        );
        // Canonical form identifies the two.
        let a = Mvd::canonical(x, y, rel.all_attrs());
        let b = Mvd::canonical(x, z, rel.all_attrs());
        assert_eq!(a, b);
    }

    #[test]
    fn dependency_basis_of_course() {
        let rel = ctb();
        let basis = dependency_basis(&AnalysisCtx::of(&rel), AttrSet::single(0));
        assert_eq!(
            basis,
            vec![AttrSet::single(1), AttrSet::single(2)],
            "teacher and book are independent given course"
        );
        // A determinant with entangled remainder: basis of ∅ keeps the
        // whole rest in one block (course/teacher/book correlate).
        let basis0 = dependency_basis(&AnalysisCtx::of(&rel), AttrSet::EMPTY);
        assert_eq!(basis0.len(), 1);
    }

    #[test]
    fn mining_finds_course_mvd_and_not_fd_implied() {
        let rel = ctb();
        let mvds = mine_mvds(&AnalysisCtx::of(&rel), 1, true);
        let expected = Mvd::canonical(AttrSet::single(0), AttrSet::single(1), rel.all_attrs());
        assert!(mvds.contains(&expected), "{mvds:?}");
        // With FD-implied exclusion, figure4's C↠B (implied by C→B) is
        // filtered out.
        let fig4 = dbmine_relation::paper::figure4();
        let mvds4 = mine_mvds(&AnalysisCtx::of(&fig4), 1, true);
        let c_b = Mvd::canonical(AttrSet::single(2), AttrSet::single(1), fig4.all_attrs());
        assert!(!mvds4.contains(&c_b), "{mvds4:?}");
        // Without exclusion it (or its complement form) appears.
        let raw = mine_mvds(&AnalysisCtx::of(&fig4), 1, false);
        assert!(raw.contains(&c_b), "{raw:?}");
    }

    #[test]
    fn trivial_mvds_are_suppressed() {
        let rel = ctb();
        let all = rel.all_attrs();
        for mvd in mine_mvds(&AnalysisCtx::of(&rel), 2, false) {
            assert!(!mvd.is_trivial(all), "{mvd:?}");
            assert!(mvd.lhs.is_disjoint(mvd.rhs));
        }
    }

    fn binomial(m: u64, k: u64) -> u64 {
        (0..k).fold(1, |c, i| c * (m - i) / (i + 1))
    }

    #[test]
    fn lhs_enumeration_follows_the_bound_not_the_width() {
        for (m, max) in [
            (30, 0),
            (30, 1),
            (30, 2),
            (30, 3),
            (64, 0),
            (64, 1),
            (64, 2),
            (5, 9),
        ] {
            let sets: Vec<AttrSet> = sets_up_to(m, max).collect();
            let want: u64 = (0..=max.min(m) as u64).map(|k| binomial(m as u64, k)).sum();
            assert_eq!(sets.len() as u64, want, "m = {m}, max = {max}");
            let distinct: HashSet<AttrSet> = sets.iter().copied().collect();
            assert_eq!(distinct.len(), sets.len(), "m = {m}, max = {max}");
            assert!(sets
                .iter()
                .all(|x| x.len() <= max && x.is_subset_of(AttrSet::full(m))));
            // Level by level.
            assert!(sets.windows(2).all(|w| w[0].len() <= w[1].len()));
        }
        // Every subset when the bound is the width, the full set last.
        assert_eq!(sets_up_to(6, 6).count(), 64);
        assert_eq!(sets_up_to(6, 6).last(), Some(AttrSet::full(6)));
    }

    #[test]
    fn finds_a_planted_mvd_among_64_columns() {
        // CTB in the columns 62 (course), 63 (teacher) and 0 (book); the
        // other 61 columns are constant, so ∅ determines them.
        let names: Vec<String> = (0..64).map(|a| format!("A{a}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut b = RelationBuilder::new("wide", &refs);
        let src = ctb();
        for t in 0..src.n_tuples() {
            let mut row = vec!["k"; 64];
            row[62] = src.value_str(t, 0);
            row[63] = src.value_str(t, 1);
            row[0] = src.value_str(t, 2);
            b.push_row_strs(&row);
        }
        let rel = b.build();
        let mvds = mine_mvds(&AnalysisCtx::of(&rel), 1, true);
        let course = AttrSet::single(62);
        let planted = Mvd::canonical(course, AttrSet::single(63), rel.all_attrs());
        assert!(mvds.contains(&planted), "{mvds:?}");
        assert!(mvds.iter().all(|m| m.lhs.len() <= 1));
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
