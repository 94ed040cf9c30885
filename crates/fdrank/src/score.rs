//! FD quality-score selection: δ-redundancy/g3 (the paper's measure)
//! versus the reliable fraction of information F̂ (`dbmine-reliability`).
//!
//! [`rank_fds`](crate::rank_fds) orders dependencies by the information
//! loss of the merge uniting their attributes — an entropy view of
//! *redundancy*. On small or skewed relations that ordering inherits
//! g3's bias (a spurious key LHS looks perfect), so the ranking can be
//! re-scored by F̂: [`rank_by_rfi`] decorates each ranked dependency
//! with its bias-corrected score and re-sorts descending (higher F̂ =
//! more reliable), with the original FD-RANK order as the tie-break.

use crate::rank::RankedFd;
use dbmine_context::AnalysisCtx;
use dbmine_reliability::RfiScorer;

/// Which score orders the ranked dependencies.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ScoreKind {
    /// The paper's ordering: attribute-grouping information loss, with
    /// g3 as the miner's acceptance error.
    #[default]
    G3,
    /// Reliable fraction of information (Mandros et al.): re-rank by
    /// bias-corrected F̂, descending.
    Rfi,
}

impl ScoreKind {
    /// The CLI/daemon spelling (`g3` | `rfi`).
    pub fn as_str(self) -> &'static str {
        match self {
            ScoreKind::G3 => "g3",
            ScoreKind::Rfi => "rfi",
        }
    }
}

impl std::str::FromStr for ScoreKind {
    type Err = String;

    fn from_str(s: &str) -> Result<ScoreKind, String> {
        match s {
            "g3" => Ok(ScoreKind::G3),
            "rfi" => Ok(ScoreKind::Rfi),
            other => Err(format!("unknown score `{other}` (expected `g3` or `rfi`)")),
        }
    }
}

impl std::fmt::Display for ScoreKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Re-orders FD-RANK output by F̂, descending. Each dependency keeps
/// its collapsed consequent set (F̂ is evaluated set-to-set) and is
/// returned with its score. Stable for equal scores — `total_cmp`
/// throughout, so a NaN could never poison the sort (and F̂ is total by
/// construction: a constant consequent scores 1, not 0/0).
pub fn rank_by_rfi(ctx: &AnalysisCtx, ranked: Vec<RankedFd>) -> Vec<(RankedFd, f64)> {
    let _span = dbmine_telemetry::span("fdrank.rfi_rank");
    let scorer = RfiScorer::new(ctx);
    let mut scored: Vec<(RankedFd, f64)> = ranked
        .into_iter()
        .map(|r| {
            let s = scorer.score_sets(ctx, r.lhs, r.rhs).score;
            (r, s)
        })
        .collect();
    scored.sort_by(|a, b| {
        b.1.total_cmp(&a.1)
            .then(a.0.lhs.cmp(&b.0.lhs))
            .then(a.0.rhs.cmp(&b.0.rhs))
    });
    scored
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbmine_relation::{AttrSet, RelationBuilder};

    #[test]
    fn score_kind_round_trips() {
        for kind in [ScoreKind::G3, ScoreKind::Rfi] {
            assert_eq!(kind.as_str().parse::<ScoreKind>().unwrap(), kind);
        }
        assert!("g4".parse::<ScoreKind>().is_err());
        assert_eq!(ScoreKind::default(), ScoreKind::G3);
    }

    #[test]
    fn rfi_reranks_spurious_key_below_supported_fd() {
        // Same shape as the reliability crate's regression relation:
        // Id is an accidental key, Grp → Val is supported. FD-RANK
        // order is irrelevant here; rank_by_rfi must put Grp → Val
        // first with a high score and the key FD last at ≈ 0.
        let mut b = RelationBuilder::new("skew", &["Id", "Grp", "Val"]);
        for i in 1..=6 {
            let g = if i <= 3 { "g1" } else { "g2" };
            b.push_row_strs(&[&format!("r{i}"), g, &format!("v_{g}")]);
        }
        let rel = b.build();
        let ctx = AnalysisCtx::of(&rel);
        let ranked = vec![
            RankedFd {
                lhs: AttrSet::single(0),
                rhs: AttrSet::single(2),
                rank: 0.0,
                promoted: true,
            },
            RankedFd {
                lhs: AttrSet::single(1),
                rhs: AttrSet::single(2),
                rank: 0.5,
                promoted: false,
            },
        ];
        let scored = rank_by_rfi(&ctx, ranked);
        assert_eq!(scored[0].0.lhs, AttrSet::single(1), "{scored:?}");
        assert!(scored[0].1 > 0.8);
        assert!(scored[1].1.abs() < 1e-9);
    }
}
