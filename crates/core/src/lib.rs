//! # dbmine — information-theoretic database-structure mining
//!
//! A faithful implementation of *Andritsos, Miller, Tsaparas:
//! "Information-Theoretic Tools for Mining Database Structure from Large
//! Data Sets" (SIGMOD 2004)*: treat the **schema** as the thing that may
//! be inconsistent with the **data**, and mine a relation instance for
//! structural clues — duplicate tuples, co-occurring value groups,
//! attribute groupings — culminating in `FD-RANK`, a ranking of the
//! instance's functional dependencies by the redundancy a decomposition
//! along them would remove.
//!
//! ## Quick start
//!
//! ```
//! use dbmine::{StructureMiner, MinerConfig};
//! use dbmine::context::AnalysisCtx;
//! use dbmine::relation::RelationBuilder;
//!
//! // The paper's Figure 4 relation.
//! let mut b = RelationBuilder::new("fig4", &["A", "B", "C"]);
//! for row in [["a","1","p"], ["a","1","r"], ["w","2","x"],
//!             ["y","2","x"], ["z","2","x"]] {
//!     b.push_row_strs(&row);
//! }
//! let ctx = AnalysisCtx::from(b.build());
//!
//! let report = StructureMiner::new(MinerConfig::default()).analyze_ctx(&ctx);
//! // {2,x} and {a,1} co-occur perfectly → two duplicate value groups.
//! assert_eq!(report.value_groups.duplicates().count(), 2);
//! // C→B is the top-ranked dependency (it captures the {2,x} redundancy).
//! let top = &report.ranked[0];
//! assert_eq!(top.display(ctx.attr_names()), "[C]→[B]");
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`infotheory`] | entropy, mutual information, KL/JS divergence |
//! | [`relation`] | categorical relations, CSV I/O, the M/N/O matrices |
//! | [`context`] | `AnalysisCtx`: shared, lazily-memoized view cache over one relation |
//! | [`ib`] | DCFs, Agglomerative Information Bottleneck, dendrograms |
//! | [`limbo`] | the scalable LIMBO clustering pipeline |
//! | [`summaries`] | duplicate tuples, horizontal partitioning, value & attribute grouping |
//! | [`fdmine`] | TANE (the pipeline's miner) and FDEP dependency miners, minimum covers |
//! | [`fdrank`] | FD-RANK, RAD/RTR, vertical decomposition |
//! | [`reliability`] | bias-corrected F̂ scoring, branch-and-bound reliable-FD mining |
//! | [`datagen`] | DB2-sample / DBLP-style generators, error injection |
//! | [`baselines`] | Apriori itemsets, pairwise duplicate detection |

pub use dbmine_baselines as baselines;
pub use dbmine_context as context;
pub use dbmine_datagen as datagen;
pub use dbmine_fdmine as fdmine;
pub use dbmine_fdrank as fdrank;
pub use dbmine_ib as ib;
pub use dbmine_infotheory as infotheory;
pub use dbmine_limbo as limbo;
pub use dbmine_relation as relation;
pub use dbmine_reliability as reliability;
pub use dbmine_summaries as summaries;
pub use dbmine_telemetry as telemetry;

mod miner;
pub mod render;
pub mod server;

pub use miner::{FdMiner, MinerConfig, RankedDependency, StructureMiner, StructureReport};
