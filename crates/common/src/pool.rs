//! Dependency-free scoped thread pool for the experiment sweeps.
//!
//! The workspace has a strict zero-external-deps policy (no rayon), so this
//! module builds the parallel substrate from `std` alone: scoped threads and
//! an atomic work counter for dynamic load balancing.
//!
//! **Who calls it.** Only `crates/bench`, over independent experiment cells
//! (`evaluate_cells`, the per-seed ablation sweeps) — the one shape that
//! measured a gain on two cores. Nothing under `common`, `mining`,
//! `inference`, `core` or `serve` fans out (`scripts/check.sh` enforces it):
//! those layers are serial, and shards are serve's parallelism. The module
//! keeps its `bfly_common::pool` path only because the frozen
//! `benchmark/src/main.rs` calls [`set_threads`]; the `benchmark` PR that
//! drops that call moves it into `crates/bench` (ROADMAP item 1(d)).
//!
//! **Determinism contract.** [`par_map`] returns results in input order, and
//! every caller arranges its work so that each task is a pure function of
//! its index (per-task rng streams come from
//! [`crate::SmallRng::split_stream`], never from a shared sequential
//! generator). Consequently the thread count — 1, 2, or 64 — never changes
//! any output bit; `tests/parallel_determinism.rs` holds the sweep to that.
//!
//! **Worker count resolution**, first match wins:
//! 1. [`set_threads`] (a figure binary's `--threads`, via
//!    `ExperimentConfig::apply_threads`);
//! 2. the `BFLY_THREADS` environment variable;
//! 3. [`std::thread::available_parallelism`].
//!
//! At an effective count of 1 (or single-item inputs) everything degrades to
//! in-place serial execution on the calling thread — no worker is spawned,
//! so seeded single-threaded runs behave exactly as before the pool existed.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Explicit worker-count override; 0 means "unset, use env/hardware".
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Override the worker count for all subsequent pool operations (a figure
/// binary's `--threads` flag lands here). `0` clears the override,
/// restoring the `BFLY_THREADS` / `available_parallelism()` default.
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

/// Map `f` over `items` in parallel, returning results in input order.
///
/// Scheduling is dynamic over **coarse contiguous chunks**: workers pull
/// the next chunk index from a shared atomic counter, with the chunk length
/// sized so each worker sees ~`CHUNKS_PER_WORKER` chunks — one atomic RMW
/// per chunk instead of per item. Output order is input order regardless
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
    let threads = current_threads().min(items.len());
    if threads <= 1 {
        return items.iter().map(&f).collect();
    }
    // At least `threads` chunks result, so every worker has one to pull.
    let chunk_len = items.len().div_ceil(threads * CHUNKS_PER_WORKER);
    let next = AtomicUsize::new(0);
    let mut results: Vec<Option<R>> = Vec::with_capacity(items.len());
    results.resize_with(items.len(), || None);
    let f = &f;
    let next = &next;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
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
