//! FD-RANK: ranking functional dependencies by the redundancy they
//! capture (Section 7 of the paper) — plus the duplication measures and
//! the vertical-decomposition machinery of the evaluation (Section 8).
//!
//! Pipeline: mine FDs (`dbmine-fdmine`), group attributes over duplicate
//! value groups (`dbmine-summaries`), then
//!
//! 1. [`rank_fds`] walks the attribute merge sequence `Q`: a dependency
//!    whose attributes were united by a *cheap* merge (information loss
//!    at most `ψ · max(Q)`) captures high duplication and receives that
//!    small loss as its rank; everything else keeps `max(Q)`. Lower rank
//!    = more interesting.
//! 2. [`rad_ctx`] / [`rtr_ctx`] quantify the duplication a dependency's
//!    attributes carry (Relative Attribute Duplication / Relative Tuple
//!    Reduction).
//! 3. [`decompose()`] performs the lossless vertical split a ranked
//!    dependency suggests over the relation's context, reports the
//!    redundancy it removes and returns the remainder as a derived
//!    context — the one split behind `dbmine redesign` and the paper
//!    binaries.

pub mod decompose;
pub mod measures;
pub mod rank;
pub mod redundancy;
pub mod score;

pub use decompose::{decompose, Decomposition};
pub use measures::{rad_ctx, rtr_ctx};
pub use rank::{rank_fds, RankedFd};
pub use redundancy::{redundant_cells_ctx, RedundantCell};
pub use score::{rank_by_rfi, ScoreKind};
