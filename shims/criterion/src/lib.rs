//! Offline stand-in for the `criterion` crate.
//!
//! The build environment has no access to a crate registry, so this
//! workspace-local crate provides a minimal wall-clock benchmarking
//! harness with criterion's API shape: `criterion_group!` /
//! `criterion_main!`, benchmark groups, `bench_function` /
//! `bench_with_input`, `Bencher::iter`, `Bencher::iter_batched`,
//! `black_box`, `BatchSize`, `BenchmarkId` and `Throughput`.
//!
//! Each benchmark runs `sample_size` samples; every sample times a batch
//! of iterations sized so one sample takes ≳5 ms. The harness reports
//! min / median / mean per-iteration times on stdout. It understands
//! `--test` (smoke mode: one iteration per benchmark, used by
//! `cargo test`) and treats any other CLI argument as a substring filter
//! on benchmark ids, like real criterion.

use std::time::{Duration, Instant};

/// An opaque identity function that defeats constant folding.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Throughput annotation (recorded, reported as elements/second).
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// How [`Bencher::iter_batched`] builds its inputs. The one size this
/// harness knows builds a whole sample's inputs before its timer
/// starts.
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Inputs cheap enough to hold one sample's worth at once.
    SmallInput,
}

/// A benchmark identifier: `function_name/parameter`.
#[derive(Clone, Debug)]
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// An id with a function name and a parameter.
    pub fn new(name: impl std::fmt::Display, param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: format!("{name}/{param}"),
        }
    }

    /// An id from the parameter alone.
    pub fn from_parameter(param: impl std::fmt::Display) -> Self {
        BenchmarkId {
            id: param.to_string(),
        }
    }
}

/// The top-level harness state.
#[derive(Clone, Debug)]
pub struct Criterion {
    filter: Option<String>,
    smoke: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        let mut filter = None;
        let mut smoke = false;
        for arg in std::env::args().skip(1) {
            match arg.as_str() {
                "--test" => smoke = true,
                "--bench" => {}
                a if a.starts_with("--") => {}
                a => filter = Some(a.to_string()),
            }
        }
        Criterion { filter, smoke }
    }
}

impl Criterion {
    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            sample_size: 10,
            throughput: None,
        }
    }
}

/// A group of related benchmarks sharing configuration.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    sample_size: usize,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the number of samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(2);
        self
    }

    /// Annotates subsequent benchmarks with a throughput.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs a benchmark identified by `id` with an input value.
    pub fn bench_with_input<I, F>(&mut self, id: BenchmarkId, input: &I, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let full = format!("{}/{}", self.name, id.id);
        if self.skipped(&full) {
            return self;
        }
        let mut b = Bencher::new(self.sample_size, self.criterion.smoke);
        f(&mut b, input);
        b.report(&full, self.throughput);
        self
    }

    /// Runs a benchmark identified by a plain name.
    pub fn bench_function<F>(&mut self, name: impl std::fmt::Display, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let full = format!("{}/{}", self.name, name);
        if self.skipped(&full) {
            return self;
        }
        let mut b = Bencher::new(self.sample_size, self.criterion.smoke);
        f(&mut b);
        b.report(&full, self.throughput);
        self
    }

    /// Ends the group.
    pub fn finish(self) {}

    fn skipped(&self, full_id: &str) -> bool {
        match &self.criterion.filter {
            Some(f) => !full_id.contains(f.as_str()),
            None => false,
        }
    }
}

/// Times closures handed to it by a benchmark body.
pub struct Bencher {
    sample_size: usize,
    smoke: bool,
    samples: Vec<Duration>,
    iters_per_sample: u64,
}

impl Bencher {
    fn new(sample_size: usize, smoke: bool) -> Self {
        Bencher {
            sample_size,
            smoke,
            samples: Vec::new(),
            iters_per_sample: 1,
        }
    }

    /// Measures `f`, storing per-sample timings for the report.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if self.smoke {
            black_box(f());
            self.samples = vec![Duration::from_nanos(0)];
            return;
        }
        let start = Instant::now();
        black_box(f());
        let iters = self.calibrate(start.elapsed());
        self.samples = (0..self.sample_size)
            .map(|_| {
                let start = Instant::now();
                for _ in 0..iters {
                    black_box(f());
                }
                start.elapsed()
            })
            .collect();
    }

    /// Measures `routine` on inputs from `setup`, timing neither `setup`
    /// nor dropping `routine`'s outputs: each sample builds its inputs,
    /// times the routine over them, then drops the outputs.
    pub fn iter_batched<I, R, S, F>(&mut self, mut setup: S, mut routine: F, _size: BatchSize)
    where
        S: FnMut() -> I,
        F: FnMut(I) -> R,
    {
        if self.smoke {
            black_box(routine(setup()));
            self.samples = vec![Duration::from_nanos(0)];
            return;
        }
        let input = setup();
        let start = Instant::now();
        let output = black_box(routine(input));
        let iters = self.calibrate(start.elapsed());
        drop(output);
        self.samples = (0..self.sample_size)
            .map(|_| {
                let inputs: Vec<I> = (0..iters).map(|_| setup()).collect();
                let mut outputs = Vec::with_capacity(inputs.len());
                let start = Instant::now();
                for input in inputs {
                    outputs.push(black_box(routine(input)));
                }
                start.elapsed()
            })
            .collect();
    }

    /// How many iterations of a routine that took `once` make one ≥5 ms
    /// sample; recorded for the report.
    fn calibrate(&mut self, once: Duration) -> usize {
        let once = once.max(Duration::from_nanos(20));
        let iters = (Duration::from_millis(5).as_nanos() / once.as_nanos()).clamp(1, 1_000_000);
        self.iters_per_sample = iters as u64;
        iters as usize
    }

    fn report(&self, id: &str, throughput: Option<Throughput>) {
        if self.smoke {
            println!("{id:<48} ok (smoke)");
            return;
        }
        if self.samples.is_empty() {
            println!("{id:<48} no measurement (Bencher::iter never called)");
            return;
        }
        let mut per_iter: Vec<f64> = self
            .samples
            .iter()
            .map(|d| d.as_secs_f64() / self.iters_per_sample as f64)
            .collect();
        per_iter.sort_by(f64::total_cmp);
        let min = per_iter[0];
        let median = per_iter[per_iter.len() / 2];
        let mean: f64 = per_iter.iter().sum::<f64>() / per_iter.len() as f64;
        let extra = match throughput {
            Some(Throughput::Elements(n)) => {
                format!("  {:>12.0} elem/s", n as f64 / median)
            }
            Some(Throughput::Bytes(n)) => format!("  {:>12.0} B/s", n as f64 / median),
            None => String::new(),
        };
        println!(
            "{id:<48} min {}  median {}  mean {}{extra}",
            fmt_time(min),
            fmt_time(median),
            fmt_time(mean)
        );
    }
}

fn fmt_time(secs: f64) -> String {
    if secs >= 1.0 {
        format!("{secs:>8.3} s ")
    } else if secs >= 1e-3 {
        format!("{:>8.3} ms", secs * 1e3)
    } else if secs >= 1e-6 {
        format!("{:>8.3} µs", secs * 1e6)
    } else {
        format!("{:>8.1} ns", secs * 1e9)
    }
}

/// Declares a group-runner function invoking each benchmark function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $( $target(&mut criterion); )+
        }
    };
}

/// Declares `main` running the given groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn work(n: u64) -> u64 {
        (0..n).fold(0, |a, b| a ^ b.wrapping_mul(0x9E3779B97F4A7C15))
    }

    #[test]
    fn ids_format_like_criterion() {
        assert_eq!(BenchmarkId::new("aib", 200).id, "aib/200");
        assert_eq!(BenchmarkId::from_parameter(1000).id, "1000");
    }

    #[test]
    fn bencher_collects_samples() {
        let mut b = Bencher::new(3, false);
        b.iter(|| work(100));
        assert_eq!(b.samples.len(), 3);
        assert!(b.iters_per_sample >= 1);
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut b = Bencher::new(10, true);
        let mut calls = 0;
        b.iter(|| calls += 1);
        assert_eq!(calls, 1);
    }

    #[test]
    fn group_api_compiles_and_runs() {
        let mut c = Criterion {
            filter: None,
            smoke: true,
        };
        let mut g = c.benchmark_group("g");
        g.sample_size(5)
            .throughput(Throughput::Elements(10))
            .bench_function("f", |b| b.iter(|| work(10)));
        g.bench_with_input(BenchmarkId::new("w", 1), &3u64, |b, &n| b.iter(|| work(n)));
        g.finish();
    }
}
