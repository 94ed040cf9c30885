//! Observability for the mining pipeline: hierarchical wall-clock
//! **spans**, named **counters** for the paper's cost drivers
//! (JS-divergence evaluations, DCF merges, partition products, …),
//! an **allocation tracker**, and a schema-versioned **run report**.
//!
//! # Zero overhead when off
//!
//! The entire API is always present, but with this crate's `telemetry`
//! cargo feature disabled (the crate default) every entry point is an
//! empty `#[inline(always)]` function and [`Span`] is a zero-sized type:
//! instrumented call sites compile to *nothing* — no atomics, no
//! branches, no `Instant::now()`. The top-level `dbmine` and
//! `dbmine-bench` crates enable the feature by default and forward a
//! `--no-default-features` build for the uninstrumented binary.
//!
//! With the feature **on**, a counter bump is one relaxed atomic add and
//! a span is two `Instant::now()` calls plus a counter snapshot — spans
//! are only placed at phase granularity (per LIMBO phase, per TANE
//! level), never per element, so the measured overhead on the
//! `limbo_phase1` bench stays under 2% (see EXPERIMENTS.md).
//!
//! # Usage
//!
//! ```
//! use dbmine_telemetry as telemetry;
//!
//! telemetry::begin();                    // start collecting spans
//! {
//!     let _span = telemetry::span("demo.phase1");
//!     telemetry::counter_add(telemetry::Counter::JsEvals, 3);
//! }
//! let report = telemetry::finish();      // structured RunReport
//! let json = report.to_json();           // schema-versioned JSON
//! let text = report.render_text(10);     // top-N spans by self time
//! # let _ = (json, text);
//! ```
//!
//! Counters accumulate process-globally from the moment the process
//! starts (they are *not* reset by [`begin`]); [`RunReport`] and span
//! records carry **deltas** over their respective windows. Spans nest
//! via a thread-local stack and are closed by drop guards, so the span
//! tree stays well-nested under early returns and panics. Spans opened
//! on worker threads (none in this workspace — phases are orchestrated
//! from one thread) would surface as additional roots.

pub mod alloc;
mod counters;
mod report;
mod span;

pub use counters::{
    counter_add, counter_value, snapshot, Counter, CounterSnapshot, COUNTERS, N_COUNTERS,
};
pub use report::{json_escape, ReportNode, RunReport, SCHEMA_VERSION};
pub use span::{begin, collecting, finish, span, span_depth, Span};

/// True when the `telemetry` cargo feature was compiled in. Callers can
/// use this to warn when a runtime profiling request (`--profile`) can
/// not be served by the current build.
#[inline(always)]
pub const fn compiled() -> bool {
    cfg!(feature = "telemetry")
}

/// `span!("name")` — macro spelling of [`span()`], for call sites that
/// prefer the macro form. Expands to the same zero-cost guard.
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span($name)
    };
}
