//! Information-theory kernel for database-structure mining.
//!
//! This crate provides the measures of Section 3 of *Andritsos, Miller,
//! Tsaparas — "Information-Theoretic Tools for Mining Database Structure
//! from Large Data Sets" (SIGMOD 2004)*:
//!
//! * Shannon [`entropy`] and conditional entropy,
//! * [`mutual_information`] between two discrete random variables,
//! * the Kullback–Leibler divergence ([`kl_divergence`]),
//! * the weighted Jensen–Shannon divergence ([`js_divergence`]) used to
//!   price cluster merges, and
//! * [`merge_information_loss`], Equation (3) of the paper: the information
//!   lost when two clusters are merged under the Information Bottleneck.
//!
//! All quantities are in **bits** (logarithms base 2). Probability
//! distributions are represented by [`SparseDist`], a sorted sparse vector,
//! because the conditional distributions arising from relational data
//! (`p(V|t)` has one entry per attribute, `p(T|v)` one entry per occurrence)
//! are overwhelmingly sparse.

pub mod measures;
pub mod sparse;

pub use measures::{
    conditional_entropy, entropy, entropy_of, js_divergence, js_divergence_merged, kl_divergence,
    merge_information_loss, mutual_information, uniform_entropy, MutualInformation,
};
pub use sparse::SparseDist;

/// Numerical tolerance used throughout the workspace when comparing
/// information quantities (bits).
pub const EPS: f64 = 1e-9;

/// `x * log2(x)` with the information-theoretic convention `0 log 0 = 0`.
#[inline]
pub fn xlogx(x: f64) -> f64 {
    if x <= 0.0 {
        0.0
    } else {
        x * x.log2()
    }
}
