//! Dependency-free scoped thread pool for the workspace's hot paths.
//!
//! The workspace has a strict zero-external-deps policy (no rayon), so this
//! module builds the parallel substrate from `std` alone: scoped threads, an
//! atomic work counter for dynamic load balancing, and a fixed-chunk
//! map-reduce whose reduction order never depends on the thread count.
//!
//! **Determinism contract.** Every function here returns results in input
//! order, and every caller in the workspace arranges its work so that each
//! task is a pure function of its index (per-task rng streams come from
//! [`crate::SmallRng::split_stream`], never from a shared sequential
//! generator). Consequently the thread count — 1, 2, or 64 — never changes
//! any output bit; `tests/parallel_determinism.rs` holds the whole pipeline
//! to that.
//!
//! **Worker count resolution**, first match wins:
//! 1. [`set_threads`] (the CLI's `--threads`, or
//!    `ExperimentConfig::apply_threads`);
//! 2. the `BFLY_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! At an effective count of 1 (or single-item inputs) everything degrades to
//! in-place serial execution on the calling thread — no worker is spawned,
//! so seeded single-threaded runs behave exactly as before the pool existed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Scoped threads for ad-hoc fork/join parallelism. Re-exported from `std`:
/// spawned threads may borrow from the caller's stack, all are joined when
/// the scope ends, and a panic in any spawned thread is propagated to the
/// caller. Prefer [`par_map`] / [`par_map_reduce`] where they fit; reach for
/// `scope` when the work shape is irregular.
pub use std::thread::{scope, Scope};

/// Explicit worker-count override; 0 means "unset, use env/hardware".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the worker count for all subsequent pool operations (the CLI's
/// `--threads` flag lands here). `0` clears the override, restoring the
/// `BFLY_THREADS` / `available_parallelism()` default.
pub fn set_threads(n: usize) {
    THREAD_OVERRIDE.store(n, Ordering::SeqCst);
}

/// The worker count the next pool operation will use. Never 0.
pub fn current_threads() -> usize {
    match THREAD_OVERRIDE.load(Ordering::SeqCst) {
        0 => default_threads(),
        n => n,
    }
}

/// `BFLY_THREADS` if set to a positive integer, else the machine's available
/// parallelism. Read once and cached (the env var is configuration, not a
/// runtime channel).
fn default_threads() -> usize {
    static DEFAULT: OnceLock<usize> = OnceLock::new();
    *DEFAULT.get_or_init(|| {
        if let Some(n) = std::env::var("BFLY_THREADS")
            .ok()
            .and_then(|v| v.trim().parse::<usize>().ok())
            .filter(|&n| n > 0)
        {
            return n;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    })
}

/// How many chunks each worker should get on average under dynamic
/// scheduling: enough slack for load balancing, few enough that per-chunk
/// dispatch overhead (one atomic RMW + one result splice) is amortized
/// over many items.
const CHUNKS_PER_WORKER: usize = 4;

/// What the last pool dispatch actually did: the work-unit coarseness the
/// scheduler chose and the workers it ran. `parbench` reads this after each
/// stage so the committed records show per-stage chunk granularity instead
/// of leaving it to be inferred from timings.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Dispatch {
    /// Items in the mapped slice.
    pub items: usize,
    /// Contiguous items handed to a worker per scheduling step.
    pub chunk_len: usize,
    /// Number of chunks dispatched (`ceil(items / chunk_len)`).
    pub chunks: usize,
    /// Workers that ran (1 = serial on the calling thread).
    pub workers: usize,
}

static MAX_ITEMS: AtomicUsize = AtomicUsize::new(0);
static MAX_CHUNK_LEN: AtomicUsize = AtomicUsize::new(0);
static MAX_CHUNKS: AtomicUsize = AtomicUsize::new(0);
static MAX_WORKERS: AtomicUsize = AtomicUsize::new(0);

fn record_dispatch(d: Dispatch) {
    // Keep the *widest* fan-out since the last reset: a stage often ends
    // on a small (or empty) trailing dispatch, and the dominant fan-out is
    // the one whose chunking matters.
    if d.items >= MAX_ITEMS.load(Ordering::Relaxed) {
        MAX_ITEMS.store(d.items, Ordering::Relaxed);
        MAX_CHUNK_LEN.store(d.chunk_len, Ordering::Relaxed);
        MAX_CHUNKS.store(d.chunks, Ordering::Relaxed);
        MAX_WORKERS.store(d.workers, Ordering::Relaxed);
    }
}

/// Forget dispatch telemetry, so the next [`last_dispatch`] reflects only
/// fan-outs issued after this call.
pub fn reset_dispatch() {
    MAX_ITEMS.store(0, Ordering::Relaxed);
    MAX_CHUNK_LEN.store(0, Ordering::Relaxed);
    MAX_CHUNKS.store(0, Ordering::Relaxed);
    MAX_WORKERS.store(0, Ordering::Relaxed);
}

/// The widest [`par_map`]/[`par_map_min_chunk`] dispatch since the last
/// [`reset_dispatch`] (telemetry; racy under concurrent dispatches by
/// design — the fields may mix two same-width dispatches).
pub fn last_dispatch() -> Dispatch {
    Dispatch {
        items: MAX_ITEMS.load(Ordering::Relaxed),
        chunk_len: MAX_CHUNK_LEN.load(Ordering::Relaxed),
        chunks: MAX_CHUNKS.load(Ordering::Relaxed),
        workers: MAX_WORKERS.load(Ordering::Relaxed),
    }
}

/// Map `f` over `items` in parallel, returning results in input order.
///
/// Scheduling is dynamic over **coarse contiguous chunks**: workers pull
/// the next chunk index from a shared atomic counter, with the chunk length
/// sized so each worker sees ~`CHUNKS_PER_WORKER` chunks — one atomic RMW
/// per chunk instead of per item, which is what lets fine-grained workloads
/// (per-candidate counting, per-FEC noise) go through the pool without the
/// dispatch overhead eating the win. Output order is input order regardless
/// of which worker computed what, so the chunk size is a throughput knob,
/// never a semantics knob. With an effective thread count of 1, or fewer
/// than two items, this is a plain serial `map` on the calling thread.
///
/// Panics in `f` are propagated to the caller after all workers are joined.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_min_chunk(items, 1, f)
}

/// [`par_map`] with a floor on the chunk length: no worker is ever handed
/// fewer than `min_chunk` contiguous items per scheduling step. Use it for
/// workloads whose per-item cost is tiny (a few hundred nanoseconds) so
/// the candidate-batch granularity, not the itemset granularity, is the
/// unit of scheduling. Inputs shorter than `min_chunk` run serially.
pub fn par_map_min_chunk<T, R, F>(items: &[T], min_chunk: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let min_chunk = min_chunk.max(1);
    let threads = current_threads().min(items.len());
    if threads <= 1 || items.len() <= min_chunk {
        record_dispatch(Dispatch {
            items: items.len(),
            chunk_len: items.len(),
            chunks: usize::from(!items.is_empty()),
            workers: 1,
        });
        return items.iter().map(&f).collect();
    }
    let chunk_len = items
        .len()
        .div_ceil(threads * CHUNKS_PER_WORKER)
        .max(min_chunk);
    let chunks = items.len().div_ceil(chunk_len);
    let workers = threads.min(chunks);
    record_dispatch(Dispatch {
        items: items.len(),
        chunk_len,
        chunks,
        workers,
    });
    if workers <= 1 {
        return items.iter().map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let f = &f;
    let next = &next;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(move || {
                    let mut local = Vec::new();
                    loop {
                        let c = next.fetch_add(1, Ordering::Relaxed);
                        let lo = c * chunk_len;
                        if lo >= items.len() {
                            break;
                        }
                        let hi = (lo + chunk_len).min(items.len());
                        for (i, item) in items[lo..hi].iter().enumerate() {
                            local.push((lo + i, f(item)));
                        }
                    }
                    local
                })
            })
            .collect();
        for handle in handles {
            match handle.join() {
                Ok(pairs) => {
                    for (i, r) in pairs {
                        results[i] = Some(r);
                    }
                }
                // Re-raise the worker's panic on the calling thread; the
                // scope joins the remaining workers before unwinding out.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("every index was scheduled exactly once"))
        .collect()
}

/// Chunked parallel map-reduce: split `items` into contiguous chunks of
/// `chunk_len`, map each chunk with `map` (in parallel), then fold the chunk
/// results **left to right in chunk order** with `reduce`.
///
/// Because the chunk boundaries depend only on `chunk_len` — never on the
/// thread count — and the fold order is fixed, the result is bit-identical
/// at any thread count even for non-associative reductions such as `f64`
/// sums. Returns `None` for empty input.
///
/// # Panics
/// If `chunk_len == 0`; panics in `map` propagate as in [`par_map`].
pub fn par_map_reduce<T, R, M, Red>(items: &[T], chunk_len: usize, map: M, reduce: Red) -> Option<R>
where
    T: Sync,
    R: Send,
    M: Fn(&[T]) -> R + Sync,
    Red: Fn(R, R) -> R,
{
    assert!(chunk_len > 0, "chunk_len must be positive");
    let chunks: Vec<&[T]> = items.chunks(chunk_len).collect();
    par_map(&chunks, |c| map(c)).into_iter().reduce(reduce)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn par_map_preserves_order_and_values() {
        set_threads(4);
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
        set_threads(0);
    }

    #[test]
    fn empty_input_yields_empty_output() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map_reduce(&empty, 8, |c| c.len(), |a, b| a + b), None);
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        // Including a float reduction, the canonical non-associative case:
        // fixed chunking makes the fold order thread-count-independent.
        let items: Vec<f64> = (0..997).map(|i| (i as f64).sin()).collect();
        set_threads(1);
        let serial = par_map_reduce(&items, 64, |c| c.iter().sum::<f64>(), |a, b| a + b);
        set_threads(7);
        let parallel = par_map_reduce(&items, 64, |c| c.iter().sum::<f64>(), |a, b| a + b);
        set_threads(0);
        assert_eq!(serial, parallel, "bitwise float equality required");
    }

    #[test]
    fn panics_propagate_out_of_par_map() {
        set_threads(2);
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                if x == 33 {
                    panic!("worker exploded");
                }
                x
            })
        });
        set_threads(0);
        assert!(result.is_err(), "worker panic must reach the caller");
    }

    #[test]
    fn panics_propagate_out_of_scope() {
        let result = std::panic::catch_unwind(|| {
            scope(|s| {
                s.spawn(|| panic!("scoped thread exploded"));
            })
        });
        assert!(result.is_err(), "scope must re-raise spawned panics");
    }

    #[test]
    fn nested_par_map_works() {
        set_threads(3);
        let outer: Vec<u64> = (0..8).collect();
        let table = par_map(&outer, |&i| {
            let inner: Vec<u64> = (0..8).collect();
            par_map(&inner, |&j| i * 10 + j)
        });
        for (i, row) in table.iter().enumerate() {
            for (j, &v) in row.iter().enumerate() {
                assert_eq!(v, (i * 10 + j) as u64);
            }
        }
        set_threads(0);
    }

    #[test]
    fn current_threads_is_positive_and_overridable() {
        assert!(current_threads() >= 1);
        set_threads(5);
        assert_eq!(current_threads(), 5);
        set_threads(0);
        assert!(current_threads() >= 1);
    }
}
