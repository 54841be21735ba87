//! Parallel parameter sweeps over std scoped threads.
//!
//! The benchmark harness sweeps delay intervals, batch sizes, duty
//! periods, and prediction thresholds; each point is an independent
//! deterministic simulation, so sweeps fan out across cores. Scoped
//! threads keep borrows simple (no `'static` bound on inputs) and the
//! result order matches the input order regardless of scheduling.
//!
//! Work is claimed in contiguous *chunks* from a shared atomic cursor
//! rather than item-by-item through a channel: for large fleets of cheap
//! items (10k+ members) per-item channel traffic dominated the old
//! implementation, while chunked claiming costs one atomic RMW per chunk
//! and still balances heterogeneous workloads because chunks are small
//! relative to the input.

use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

/// Number of worker threads used by [`par_map`].
pub fn default_parallelism() -> usize {
    thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(4)
}

/// Chunks per worker: enough slack for load balancing without paying an
/// atomic claim per item on fleets of cheap members.
const CHUNKS_PER_WORKER: usize = 8;

/// Applies `f` to every index in `0..n` on a pool of scoped worker
/// threads, returning results in index order.
///
/// This is the primitive under [`par_map`]; it exists so callers can
/// generate their per-index input *inside* the worker (e.g. synthesizing
/// a fleet member's trace on demand) instead of materializing a slice of
/// inputs up front.
pub fn par_map_indexed<R, F>(n: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let workers = default_parallelism().min(n);
    if workers <= 1 {
        return (0..n).map(f).collect();
    }
    let chunk = (n / (workers * CHUNKS_PER_WORKER)).max(1);

    let cursor = AtomicUsize::new(0);
    let (res_tx, res_rx) = mpsc::channel::<(usize, Vec<Result<R, String>>)>();

    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    // A panicking item must not take the whole scope down with an opaque
    // "a scoped thread panicked": catch it per item, ship it back like a
    // result, and re-panic on the caller's thread naming the item.
    let mut first_failure: Option<(usize, String)> = None;
    thread::scope(|scope| {
        for _ in 0..workers {
            let res_tx = res_tx.clone();
            let cursor = &cursor;
            let f = &f;
            scope.spawn(move || loop {
                let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                if start >= n {
                    break;
                }
                let end = (start + chunk).min(n);
                let results: Vec<Result<R, String>> = (start..end)
                    .map(|i| catch_unwind(AssertUnwindSafe(|| f(i))).map_err(panic_message))
                    .collect();
                if res_tx.send((start, results)).is_err() {
                    break;
                }
            });
        }
        drop(res_tx);
        while let Ok((start, results)) = res_rx.recv() {
            for (offset, r) in results.into_iter().enumerate() {
                let i = start + offset;
                match r {
                    Ok(r) => out[i] = Some(r),
                    Err(msg) => {
                        if first_failure.as_ref().is_none_or(|(j, _)| i < *j) {
                            first_failure = Some((i, msg));
                        }
                    }
                }
            }
        }
    });
    if let Some((i, msg)) = first_failure {
        // lint:allow(panic-hygiene) deliberate panic propagation: a worker panic must not be swallowed into a partial result
        panic!("worker panicked on item {i}: {msg}");
    }

    out.into_iter()
        .enumerate()
        // lint:allow(panic-hygiene) every index is written unless a worker panicked, which re-panics above; this is the same propagation path
        .map(|(i, r)| r.unwrap_or_else(|| panic!("no worker produced a result for item {i}")))
        .collect()
}

/// Renders a caught panic payload (usually `&str` or `String`).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Applies `f` to every item on a pool of scoped worker threads,
/// returning results in input order.
///
/// Items are distributed dynamically (chunked claims off a shared atomic
/// cursor), so heterogeneous per-item costs — a 600 s delay sweep point
/// simulates more events than a 1 s point — still balance.
///
/// ```
/// use netmaster_sim::par_map;
///
/// let delays = [0u64, 10, 60, 600];
/// let doubled = par_map(&delays, |&d| d * 2);
/// assert_eq!(doubled, vec![0, 20, 120, 1200]);
/// ```
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..200).collect();
        let out = par_map(&items, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn empty_input_returns_empty() {
        let out: Vec<u32> = par_map(&[] as &[u32], |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_inline() {
        let out = par_map(&[7u32], |&x| x + 1);
        assert_eq!(out, vec![8]);
    }

    #[test]
    fn every_item_is_processed_exactly_once() {
        let counter = AtomicUsize::new(0);
        let items: Vec<usize> = (0..500).collect();
        let out = par_map(&items, |&x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(counter.load(Ordering::Relaxed), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn uneven_workloads_balance() {
        // Mixed heavy/light items must all complete.
        let items: Vec<u64> = (0..64)
            .map(|i| if i % 8 == 0 { 200_000 } else { 10 })
            .collect();
        let out = par_map(&items, |&n| (0..n).fold(0u64, |a, b| a.wrapping_add(b)));
        assert_eq!(out.len(), 64);
    }

    #[test]
    fn captures_environment_by_reference() {
        let offset = 100u64;
        let items: Vec<u64> = (0..32).collect();
        let out = par_map(&items, |&x| x + offset);
        assert_eq!(out[31], 131);
    }

    #[test]
    #[should_panic(expected = "boom at item 5")]
    fn worker_panic_names_the_failing_item() {
        // Regardless of worker count (the 1-core path runs inline), the
        // panic that surfaces must carry the failing item's message.
        let items: Vec<usize> = (0..64).collect();
        let _ = par_map(&items, |&x| {
            if x == 5 {
                panic!("boom at item 5");
            }
            x
        });
    }

    #[test]
    fn indexed_variant_generates_input_in_worker() {
        // par_map_indexed must cover sizes around chunk boundaries.
        for n in [1usize, 2, 7, 63, 64, 65, 1000] {
            let out = par_map_indexed(n, |i| i * 3);
            assert_eq!(out, (0..n).map(|i| i * 3).collect::<Vec<_>>(), "n={n}");
        }
    }
}
