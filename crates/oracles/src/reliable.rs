//! The unpruned reliable walk: `mine_reliable_ctx`'s F̂ test without its
//! branch-and-bound survivor filter, and the sorting size-multiset
//! builder that `SizeMultiset::of_sizes` is pinned against. "Unpruned"
//! means of branch-and-bound only: the walk's own `C⁺` rules (minimality
//! and the exact-FD rule) run under every test, so the independent
//! reference for them is the brute-force minimal-LHS oracle of
//! `dbmine-reliability`'s property tests.

use dbmine_context::AnalysisCtx;
use dbmine_fdmine::lattice::{walk_minimal, Candidate, MinimalTest};
use dbmine_relation::partition::{ClassSizes, PartitionScratch};
use dbmine_reliability::{ReliableFd, RfiScore, RfiScorer, SizeMultiset, BIAS_EPSILON};

/// The `F̂ ≥ θ` test with the default survivors: the plugin always, the
/// bias from `θ − ε` up, and `g3` on emission. Scores `Some` only for an
/// emitted candidate.
struct Unpruned {
    scorer: RfiScorer,
    theta: f64,
}

impl MinimalTest for Unpruned {
    type Score = Option<(RfiScore, f64)>;

    fn score(&self, c: &Candidate<'_>, scratch: &mut PartitionScratch) -> Self::Score {
        let plugin = self.scorer.plugin(c.lhs.sizes(), c.x(), c.a);
        if plugin.plugin < self.theta - BIAS_EPSILON {
            return None;
        }
        let rfi = self.scorer.correct(&plugin, f64::INFINITY)?;
        (rfi.score >= self.theta).then(|| (rfi, c.g3_error(scratch)))
    }

    fn emits(&self, score: &Self::Score) -> bool {
        score.is_some()
    }
}

/// Mines all minimal `X → A` with `F̂(X→A) ≥ θ` and `|X| ≤ max_lhs`
/// over the lattice the walk's `C⁺` leaves, with no branch-and-bound.
/// The reference `mine_reliable_ctx`'s branch-and-bound must match bit
/// for bit.
pub fn mine_reliable_unpruned(
    ctx: &AnalysisCtx,
    theta: f64,
    max_lhs: Option<usize>,
    threads: usize,
) -> Vec<ReliableFd> {
    assert!((0.0..=1.0).contains(&theta), "θ must be in [0,1]");
    let test = Unpruned {
        scorer: RfiScorer::new(ctx),
        theta,
    };
    walk_minimal(
        ctx.n_tuples(),
        ctx.attr_partitions(),
        max_lhs,
        threads,
        &test,
    )
    .into_iter()
    .map(|(fd, score)| {
        let (rfi, g3) = score.expect("the walk returns only emitted candidates");
        ReliableFd {
            fd,
            score: rfi.score,
            plugin: rfi.plugin,
            bias: rfi.bias,
            g3,
        }
    })
    .collect()
}

/// The size multiset of a stripped partition by sorting every class
/// size: the reference `SizeMultiset::of_sizes`, which counts small
/// sizes in a histogram, must equal.
pub fn size_multiset_sorted(p: &ClassSizes) -> SizeMultiset {
    let mut sizes: Vec<u64> = p.iter().map(|s| s as u64).collect();
    sizes.sort_unstable();
    let singletons = (p.n() - p.covered()) as u64;
    let mut pairs: Vec<(u64, u64)> = Vec::new();
    if singletons > 0 {
        pairs.push((1, singletons));
    }
    for s in sizes {
        match pairs.last_mut() {
            Some((size, count)) if *size == s => *count += 1,
            _ => pairs.push((s, 1)),
        }
    }
    SizeMultiset { pairs, n: p.n() }
}
