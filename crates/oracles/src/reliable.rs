//! The unpruned reliable walk: `mine_reliable_ctx`'s F̂ test without its
//! branch-and-bound survivor filter.

use dbmine_context::AnalysisCtx;
use dbmine_fdmine::lattice::{walk_minimal, Candidate, MinimalTest};
use dbmine_relation::partition::PartitionScratch;
use dbmine_reliability::{ReliableFd, RfiScore, RfiScorer, BIAS_EPSILON};

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
        let rfi = self.scorer.correct(&plugin);
        (rfi.score >= self.theta).then(|| (rfi, c.g3_error(scratch)))
    }

    fn emits(&self, score: &Self::Score) -> bool {
        score.is_some()
    }
}

/// Mines all minimal `X → A` with `F̂(X→A) ≥ θ` and `|X| ≤ max_lhs`
/// over the whole minimality-filtered lattice, pruning nothing. The
/// reference `mine_reliable_ctx`'s branch-and-bound must match bit for
/// bit.
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
