//! Peak-memory regression test for tuple LIMBO.
//!
//! Phase 1 summarizes n tuples into q leaf DCFs and Phase 3 assigns every
//! tuple to its closest leaf, each phase streaming the tuple DCFs from
//! the context's chunk pass, so their memory should grow about linearly
//! in n (and stop growing once n spans several plan windows, which
//! these sizes do not reach). A merge that hands a
//! buffer from one summary to another lets a leaf keep an upper-level
//! summary's capacity, which makes the peak grow like q·n instead: on
//! DBLP-style tuples the peak ratio for 4× the tuples was about 10×.
//!
//! This binary holds a single test, because the counting allocator's
//! peak watermark is process-global.

use dbmine_context::AnalysisCtx;
use dbmine_datagen::dblp::{dblp_sample, DblpSpec};
use dbmine_limbo::{LimboParams, TupleStream};
use dbmine_telemetry::alloc;

#[global_allocator]
static ALLOCATOR: alloc::CountingAlloc = alloc::CountingAlloc;

/// Peak bytes of Phase 1 (φ_T = 0.5) plus Phase 3 against the leaves,
/// both streamed from a memory context.
fn phase1_phase3_peak(n: usize) -> u64 {
    let ctx = AnalysisCtx::from(dblp_sample(&DblpSpec::scaled(n, 77)));
    ctx.tuple_mutual_information();
    let tuples = TupleStream::new(&ctx);
    let (assigned, stats) = alloc::measure(|| {
        let model = tuples.phase1(LimboParams::with_phi(0.5));
        let mut assigned = 0;
        tuples.phase3(&model.leaves, 1, |_, _, _| assigned += 1);
        assigned
    });
    assert_eq!(assigned, n);
    stats.region_peak_bytes()
}

#[test]
fn tuple_limbo_peak_grows_linearly_in_n() {
    alloc::mark_installed();
    let (n, small) = (2_000, phase1_phase3_peak(2_000));
    let large = phase1_phase3_peak(4 * n);
    let ratio = large as f64 / small as f64;
    assert!(
        ratio <= 5.0,
        "Phase 1 + Phase 3 peak grew {ratio:.1}× for 4× the tuples ({small} → {large} bytes)"
    );
}
