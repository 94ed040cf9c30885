//! Information Bottleneck core: cluster features, agglomerative clustering
//! and merge dendrograms.
//!
//! The Information Bottleneck method (Tishby, Pereira, Bialek; Section 5.1
//! of the paper) recasts clustering of a variable `V`, expressed over a
//! variable `T`, as lossy compression: find a clustering `C` of `V` such
//! that the mutual information `I(C;T)` stays as close to `I(V;T)` as
//! possible. This crate provides:
//!
//! * [`Dcf`] — *Distributional Cluster Features* `(p(c), p(T|c))`, the
//!   sufficient statistics for merging clusters and pricing merges
//!   (optionally carrying an auxiliary count vector, used by the paper's
//!   ADCF extension to track the support matrix `O`).
//! * [`aib()`] — the Agglomerative Information Bottleneck algorithm of
//!   Slonim & Tishby: start from singletons, repeatedly merge the pair
//!   with the least information loss `δI`, recording every merge.
//! * [`Dendrogram`] — the full merge tree with per-merge losses, plus the
//!   common-merge queries FD-RANK needs.
//! * [`assign`] — nearest-representative assignment (LIMBO Phase 3).

pub mod aib;
pub mod assign;
pub mod dcf;
pub mod dendrogram;

pub use aib::{aib, aib_cut, aib_reference, aib_with, AibResult, KStat};
pub use assign::{assign_all_with, RepIndex};
pub use dcf::Dcf;
pub use dendrogram::{Dendrogram, Merge};
