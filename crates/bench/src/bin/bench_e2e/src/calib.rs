//! The calibration kernel every timed op is measured against.
//!
//! The benchmark machine is shared: other tenants slow whole stretches of
//! a run — sometimes several minutes — by up to 2×, and they slow CPU
//! time as much as wall time. A fixed piece of work run right next to
//! each op slows down with it, so `op wall / kernel wall` measures the
//! program instead of the neighbours. The kernel is the benchmark's own
//! code (sorting, hashing, floating point over a few MB), so no change to
//! the program can speed it up or slow it down.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

fn kernel() -> u64 {
    // xorshift64: fixed input, no allocation-order or hasher effects on
    // the amount of work.
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut v: Vec<u64> = (0..300_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    v.sort_unstable();
    let mut m: HashMap<u64, u32> = HashMap::with_capacity(75_000);
    for (i, k) in v.iter().step_by(4).enumerate() {
        m.insert(k % 100_003, i as u32);
    }
    let mut sum = 0u64;
    for k in &v {
        if let Some(c) = m.get(&(k % 100_003)) {
            sum = sum.wrapping_add(u64::from(*c));
        }
    }
    let mut f = 0.0f64;
    for i in 1..200_000 {
        f += (i as f64).ln();
    }
    sum.wrapping_add(f as u64)
}

/// The kernel's time on the 2-core machine the committed baselines were
/// measured on. Set-up times are reported at this speed: `setup_s` is a
/// set-up's length in kernels times this.
pub const KERNEL_REFERENCE_MS: f64 = 17.0;

/// Wall time of one kernel run, in ms.
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// The median of `n` kernel runs.
pub fn kernel_ms_median(n: usize) -> f64 {
    let runs: Vec<f64> = (0..n.max(1)).map(|_| kernel_ms()).collect();
    crate::stats::median(&runs)
}

/// The mean over `threads` concurrent threads of each one's median of
/// `n` kernel runs: the speed of the cores a multi-threaded process (the
/// daemon) runs on, which can differ from core to core.
pub fn kernel_ms_across(threads: usize, n: usize) -> f64 {
    let per_thread: Vec<f64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1))
            .map(|_| s.spawn(|| kernel_ms_median(n)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("calibration thread panicked"))
            .collect()
    });
    per_thread.iter().sum::<f64>() / per_thread.len() as f64
}
