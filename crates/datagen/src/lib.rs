//! Synthetic data generators for the paper's evaluation (Section 8).
//!
//! The originals are not redistributable, so we synthesize relations with
//! the same *structure* (see DESIGN.md for the substitution argument):
//!
//! * [`db2`] — the "DB2 Sample Database" stand-in: EMPLOYEE ⋈ DEPARTMENT
//!   ⋈ PROJECT joined into one relation of 90 tuples × 19 attributes,
//!   with the original key → attribute dependencies embedded.
//! * [`dblp`] — the "DBLP Database" stand-in: 50 000 single-author
//!   publication tuples over the 13 target attributes of Figure 13, with
//!   the integration anomalies the paper analyzes (six ≥ 98 %-NULL
//!   attributes; conference vs journal vs misc tuple types; correlated
//!   journal/volume/number/year values).
//! * [`errors`] — the error injectors of Sections 8.1.1–8.1.2: exact and
//!   near-duplicate tuples with a controlled number of dirtied attribute
//!   values.
//! * [`mod@synthetic`] — a configurable generator with planted FDs, skew and
//!   noise, for benches and ground-truth tests.
//! * [`zipf`] — a small Zipf sampler for realistic skew.
//!
//! Everything is seeded and deterministic.

pub mod db2;
pub mod dblp;
pub mod errors;
pub mod synthetic;
pub mod zipf;

pub use db2::{db2_sample, Db2Spec};
pub use dblp::{dblp_sample, generate_rows, write_csv, write_csv_path, DblpSpec};
pub use errors::{inject_near_duplicates, InjectionReport};
pub use synthetic::{synthetic, PlantedFd, SyntheticSpec};
pub use zipf::Zipf;
