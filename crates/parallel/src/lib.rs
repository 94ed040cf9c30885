//! Opt-in data parallelism for the clustering hot paths.
//!
//! The build environment cannot fetch `rayon`, so this crate provides
//! the few primitives the workspace needs on top of plain
//! [`std::thread::scope`]: deterministic, order-preserving parallel maps
//! over index ranges and slices. Every function takes an explicit
//! `threads` knob:
//!
//! * `threads == 1` — run serially on the calling thread (the default
//!   everywhere; zero overhead, no behavior change);
//! * `threads == 0` — use [`std::thread::available_parallelism`];
//! * `threads >= 2` — split the input into `threads` contiguous chunks
//!   and process them on scoped worker threads.
//!
//! Because each element's result is a pure function of the element and
//! results are written back by index, output is **bit-identical for
//! every thread count** — parallelism changes wall-clock time only.
//! Work is chunked contiguously (not striped) so workers touch disjoint
//! cache lines and the per-thread iteration order matches the serial
//! order within each chunk.

/// Resolves a user-facing thread knob: `0` means "all available cores",
/// anything else is taken literally (minimum 1).
pub fn effective_threads(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

/// Below this many items per worker, threading overhead dominates and
/// the maps fall back to serial execution.
const MIN_ITEMS_PER_THREAD: usize = 64;

/// Maps `f` over `0..n`, returning results in index order.
///
/// `f` must be pure (same input → same output) for the determinism
/// guarantee to hold; all workspace call sites satisfy this.
pub fn par_map_range<R, F>(threads: usize, n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    map_chunks(threads, n, 2 * MIN_ITEMS_PER_THREAD, || (), |_, i| f(i))
}

/// Maps `f(index, &item)` over a slice, returning results in order.
pub fn par_map<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    par_map_range(threads, items.len(), |i| f(i, &items[i]))
}

/// [`par_map`] without the serial-fallback floor: every input is
/// assumed to be a *coarse* unit of work (a shard chunk, a whole file
/// segment) worth its own thread even when there are only a handful of
/// them. `par_map` falls back to serial below 128 items because its
/// call sites map per-tuple work; sharded Phase 1 maps per-chunk work,
/// where 4 items can be 4 × 65 536 tuples and the spawn overhead is
/// noise.
///
/// Items are distributed in contiguous runs of `ceil(n / threads)` and
/// results are written back by index, so output order — and, for pure
/// `f`, output *bits* — are identical for every thread count.
pub fn par_map_coarse<T, R, F>(threads: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    map_chunks(threads, items.len(), 0, || (), |_, i| f(i, &items[i]))
}

/// Like [`par_map`], but hands each worker a mutable per-chunk state
/// built by `init` — the hook hot loops need to reuse scratch buffers
/// (e.g. partition-product probe tables) without re-allocating per item
/// and without sharing them across threads.
///
/// Serially (`threads <= 1` or a small input) a single state serves the
/// whole slice, so scratch reuse is maximal exactly when it matters
/// most. The determinism contract of [`par_map`] carries over as long as
/// `f`'s result does not depend on the *contents* of the state beyond
/// what `f` itself established for this item (true for scratch buffers,
/// which are semantically write-before-read).
pub fn par_map_init<S, T, R, I, F>(threads: usize, items: &[T], init: I, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    map_chunks(
        threads,
        items.len(),
        2 * MIN_ITEMS_PER_THREAD,
        init,
        |s, i| f(s, i, &items[i]),
    )
}

/// The one spawn loop behind every map: `f(state, i)` for `i` in
/// `0..n`, results in index order. Below `floor` items, or at one
/// thread, it runs on the calling thread with a single `init()` state;
/// otherwise `0..n` is cut into contiguous windows of `ceil(n /
/// threads)` indices, each filled by one scoped worker with its own
/// state, writing into its own disjoint `&mut` window of the output.
fn map_chunks<S, R, I, F>(threads: usize, n: usize, floor: usize, init: I, f: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let threads = effective_threads(threads).min(n.max(1));
    if threads <= 1 || n < floor {
        let mut state = init();
        return (0..n).map(|i| f(&mut state, i)).collect();
    }
    let chunk = n.div_ceil(threads);
    let mut out: Vec<Option<R>> = Vec::with_capacity(n);
    out.resize_with(n, || None);
    let (init, f) = (&init, &f);
    std::thread::scope(|scope| {
        for (w, window) in out.chunks_mut(chunk).enumerate() {
            let lo = w * chunk;
            scope.spawn(move || {
                let mut state = init();
                for (off, slot) in window.iter_mut().enumerate() {
                    *slot = Some(f(&mut state, lo + off));
                }
            });
        }
    });
    out.into_iter()
        .map(|r| r.expect("worker filled every slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..10_000).collect();
        let serial = par_map(1, &items, |i, &x| x * x + i as u64);
        for threads in [0, 2, 3, 7, 16] {
            let parallel = par_map(threads, &items, |i, &x| x * x + i as u64);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn small_inputs_stay_serial_but_correct() {
        let out = par_map_range(8, 5, |i| i * 2);
        assert_eq!(out, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<usize> = par_map_range(4, 0, |i| i);
        assert!(out.is_empty());
    }

    #[test]
    fn zero_threads_means_available_parallelism() {
        assert!(effective_threads(0) >= 1);
        assert_eq!(effective_threads(3), 3);
    }

    #[test]
    fn results_are_in_index_order() {
        let out = par_map_range(4, 1_000, |i| i);
        assert_eq!(out, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn coarse_map_parallelizes_small_inputs() {
        // Unlike par_map, there is no serial floor: 3 items across 8
        // requested threads still agree with the serial run, in order.
        let items: Vec<u64> = vec![10, 20, 30];
        let serial = par_map_coarse(1, &items, |i, &x| x + i as u64);
        for threads in [0, 2, 3, 8] {
            let parallel = par_map_coarse(threads, &items, |i, &x| x + i as u64);
            assert_eq!(serial, parallel, "threads = {threads}");
        }
        assert_eq!(serial, vec![10, 21, 32]);
        let empty: Vec<u64> = Vec::new();
        assert!(par_map_coarse(4, &empty, |_, &x: &u64| x).is_empty());
    }

    #[test]
    fn coarse_map_agrees_with_par_map_on_large_inputs() {
        let items: Vec<u64> = (0..5_000).collect();
        let a = par_map(4, &items, |i, &x| x * 3 + i as u64);
        let b = par_map_coarse(4, &items, |i, &x| x * 3 + i as u64);
        assert_eq!(a, b);
    }

    #[test]
    fn init_state_is_reused_and_results_ordered() {
        let items: Vec<u64> = (0..5_000).collect();
        let serial = par_map_init(
            1,
            &items,
            Vec::<u64>::new,
            |scratch: &mut Vec<u64>, i, &x| {
                scratch.clear();
                scratch.extend_from_slice(&[x, i as u64]);
                scratch.iter().sum::<u64>()
            },
        );
        for threads in [0, 2, 3, 8] {
            let parallel = par_map_init(
                threads,
                &items,
                Vec::<u64>::new,
                |scratch: &mut Vec<u64>, i, &x| {
                    scratch.clear();
                    scratch.extend_from_slice(&[x, i as u64]);
                    scratch.iter().sum::<u64>()
                },
            );
            assert_eq!(serial, parallel, "threads = {threads}");
        }
    }

    #[test]
    fn init_small_inputs_run_serially() {
        let items = [1u32, 2, 3];
        let out = par_map_init(
            8,
            &items,
            || 0u32,
            |acc, _, &x| {
                *acc += x; // one serial state: accumulation is visible
                *acc
            },
        );
        assert_eq!(out, vec![1, 3, 6]);
    }

    #[test]
    fn non_copy_results() {
        let out = par_map_range(3, 300, |i| vec![i; 3]);
        assert!(out.iter().enumerate().all(|(i, v)| v == &vec![i; 3]));
    }
}
