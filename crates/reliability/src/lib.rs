//! Reliable approximate functional dependencies (Mandros et al., KDD
//! 2017) over the paper's cached-partition architecture.
//!
//! `g3` — the error the approximate miner optimizes — is biased on
//! small or skewed data: any accidental key LHS scores a perfect 0, so
//! spurious dependencies crowd the top of FD-RANK's ordering exactly
//! where the redesign advice matters most. This crate adds the
//! **reliable fraction of information** `F̂(X→Y)`: the plugin fraction
//! of information minus its expected value under the permutation null
//! model, computed from class-size multisets of the cached
//! `StrippedPartition`s (see [`estimator`]).
//!
//! [`mine_reliable_ctx`] plugs the score — and its admissible upper bound
//! `F̄` — into fdmine's levelwise lattice walk (the one TANE runs on)
//! for branch-and-bound search ([`mine`]): results bit-identical to the
//! unpruned walk and at every thread count, with the pruning
//! effectiveness visible in the `bnb_bounds` / `bnb_prunes` telemetry
//! counters. The walk decides which levels are filtered — none that
//! seeds only a bounded walk's last level; [`mine`] has the
//! measurements.

pub mod estimator;
pub mod mine;

pub use estimator::{
    m0, m0_capped, LnFact, RfiPlugin, RfiScore, RfiScorer, SizeMultiset, EXACT_N_LIMIT,
    LNFACT_TABLE_LIMIT, WINDOW_SIGMAS,
};
pub use mine::{mine_reliable_ctx, ReliableFd, ReliableOptions, BIAS_EPSILON, DEFAULT_THETA};
