//! Shared DBLP pipeline for the Table 4 / Figures 16–18 / Tables 5–6
//! binaries: generate → project to the seven informative attributes →
//! horizontally partition.

use dbmine::context::AnalysisCtx;
use dbmine::datagen::{dblp_sample, DblpSpec};
use dbmine::limbo::LimboParams;
use dbmine::relation::{AttrSet, Relation};
use dbmine::summaries::{horizontal_partition_ctx, PartitionResult};

/// The paper's projection after setting the six NULL-heavy attributes
/// aside: *"we projected the initial relation onto the attribute set
/// {Author, Pages, BookTitle, Year, Volume, Journal, Number}"*.
pub const PROJECTED_ATTRS: [&str; 7] = [
    "Author",
    "Pages",
    "BookTitle",
    "Year",
    "Volume",
    "Journal",
    "Number",
];

/// The partitioning run used by several binaries.
pub struct DblpPartitions {
    /// The projected relation (7 attributes).
    pub projected: Relation,
    /// The horizontal partitioning (k chosen by the knee heuristic,
    /// capped at 6).
    pub result: PartitionResult,
}

/// Generates DBLP at `scale` tuples, projects, and partitions.
///
/// `phi_t` controls the Phase 1 summary granularity for partitioning
/// (1.0 leaves a few hundred summaries at 50k tuples).
pub fn partitioned_dblp(scale: usize, phi_t: f64, k: Option<usize>) -> DblpPartitions {
    let spec = DblpSpec {
        n_tuples: scale,
        ..Default::default()
    };
    let rel = dblp_sample(&spec);
    let keep: AttrSet = PROJECTED_ATTRS
        .iter()
        .filter_map(|n| rel.attr_id(n))
        .collect();
    let projected = rel.project(keep);
    let result = horizontal_partition_ctx(
        &AnalysisCtx::of(&projected),
        LimboParams::with_phi(phi_t),
        k,
        6,
    );
    DblpPartitions { projected, result }
}

impl DblpPartitions {
    /// Classifies a partition by its dominant tuple type, for labeling
    /// outputs: "conference" (BookTitle set), "journal" (Journal set) or
    /// "misc".
    pub fn classify(&self, tuples: &[usize]) -> &'static str {
        let rel = &self.projected;
        let bt = rel.attr_id("BookTitle").expect("projected relation");
        let jr = rel.attr_id("Journal").expect("projected relation");
        let mut conf = 0usize;
        let mut jour = 0usize;
        for &t in tuples {
            if !rel.is_null(t, bt) {
                conf += 1;
            } else if !rel.is_null(t, jr) {
                jour += 1;
            }
        }
        let n = tuples.len().max(1);
        if conf * 2 > n {
            "conference"
        } else if jour * 2 > n {
            "journal"
        } else {
            "misc"
        }
    }

    /// Partition indices reordered so the conference-dominant partition
    /// comes first, then journal, then the rest — matching the paper's
    /// c1/c2/c3 naming regardless of cluster sizes.
    pub fn ordered_by_type(&self) -> Vec<(usize, &'static str)> {
        let partitions = &self.result.partitions;
        let mut labeled: Vec<(usize, &'static str)> = partitions
            .iter()
            .enumerate()
            .map(|(i, tuples)| (i, self.classify(tuples)))
            .collect();
        let rank = |l: &str| match l {
            "conference" => 0,
            "journal" => 1,
            _ => 2,
        };
        labeled.sort_by_key(|&(i, l)| (rank(l), std::cmp::Reverse(partitions[i].len()), i));
        labeled
    }
}
