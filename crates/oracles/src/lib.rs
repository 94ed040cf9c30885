//! Pinned reference implementations: the oracles the bit-identity tests
//! and the benches' reference columns compare the shipped kernels
//! against.
//!
//! Each oracle is the code a shipped kernel replaced, kept unchanged
//! (as a free function over the shipped types' public API where it was
//! a method), so the comparison always runs against the same reference:
//!
//! * [`weighted_sum`] — the allocating sparse mixture, for
//!   `SparseDist::merge_from` and `add_assign`;
//! * [`dcf_merge`] — the allocating DCF merge, for `Dcf::merge_in_place`;
//! * [`aib_reference`] — the all-pairs lazy-deletion AIB heap, for the
//!   candidate-list `aib`;
//! * [`DcfTreeRef`] — the recursive boxed DCF-tree, for the arena
//!   `DcfTree`;
//! * [`product_reference`] — the `HashMap` partition product, for
//!   `StrippedPartition::product_with`;
//! * [`mine_fdep`] (with its agree sets and hitting sets),
//!   [`mine_fastfds`] and [`mine_brute`] — three independent FD miners
//!   the exact TANE walk is cross-checked against, and the paper's FDEP
//!   runs (Table 3, the running example);
//! * [`mine_reliable_unpruned`] — the reliable F̂ walk without its
//!   branch-and-bound survivor filter, for `mine_reliable_ctx`;
//! * [`fd_holds`] and [`fd_error_g3`] — direct single-dependency checks
//!   over a resident relation, which the brute-force miner and the FD
//!   miners' property tests check against;
//! * [`project_distinct`] — the deduplicating projection over a resident
//!   relation, for `AnalysisCtx::derive_projected` and the redesign
//!   split `dbmine_fdrank::decompose`.
//!
//! # The dev-dependency rule
//!
//! Only the library crates' `[dev-dependencies]` and the `dbmine-bench`
//! package may name this crate, so the `dbmine` and `dbmined` binaries
//! link one implementation per operation (CI fails if `cargo tree` of
//! `dbmine` lists it).
//!
//! A crate this one depends on (`infotheory`, `relation`, `context`,
//! `ib`, `fdmine`, `reliability`) sees a second copy of itself linked in
//! here when it dev-depends back, and that copy's types differ from its
//! own unit tests' types. So the fixed regressions that pin those
//! crates' kernels are unit tests of the oracle's module here (`aib`,
//! `dcf`, `sparse`, `partition`, `relation`), their property tests live
//! in the crate's `tests/` directory (one copy), and `dbmine-fdmine`'s
//! unit tests rebuild each oracle `Fd` from its public fields;
//! `dbmine-reliability` compares with its oracle only from `tests/`. An
//! oracle whose signature names only another crate's types
//! ([`fd_holds`], [`project_distinct`] over a `Relation`) serves the
//! unit tests of `context` and `fdmine` as it is. Crates outside this
//! one's dependencies (`datagen`, `limbo`, `summaries`, `fdrank`,
//! `dbmine`) call the oracles from any test.

pub mod agree;
pub mod aib;
pub mod brute;
pub mod check;
pub mod dcf;
pub mod fastfds;
pub mod fd;
pub mod fdep;
pub mod partition;
pub mod relation;
pub mod reliable;
pub mod sparse;
pub mod tree;

pub use agree::{agree_sets, agree_sets_from, maximal_sets};
pub use aib::aib_reference;
pub use brute::{mine_brute, mine_brute_bounded};
pub use check::{fd_error_g3, fd_holds};
pub use dcf::dcf_merge;
pub use fastfds::mine_fastfds;
pub use fd::minimal_only;
pub use fdep::{mine_fdep, minimal_hitting_sets};
pub use partition::product_reference;
pub use relation::project_distinct;
pub use reliable::mine_reliable_unpruned;
pub use sparse::weighted_sum;
pub use tree::DcfTreeRef;
