//! Peak live heap bytes of one pass, counted by a wrapper around the
//! system allocator.
//!
//! The process's peak resident set size (`VmHWM`) is not a steady
//! measure of the pipeline's memory: `par_map_indexed` starts fresh
//! worker threads on every call, and whether glibc hands a new thread a
//! new malloc arena or an exited thread's one is a race. Each extra arena
//! keeps its own free memory, so the same `fleet-week` seed peaked at
//! either about 13 or about 16.5 MiB. Live heap bytes do not depend on
//! which arena holds them.
//!
//! Counting makes every allocation update a shared counter, which slowed
//! `watch-drift` by about 15%, so it is on only inside
//! [`peak_growth`], around a pass whose time is not reported.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};

/// The system allocator, counting, while [`peak_growth`] runs, the bytes
/// it hands out and takes back.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Bytes live now above the level when counting began. Frees of older
/// allocations can take it below zero.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(by: usize) {
    if ON.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(by as isize, Ordering::Relaxed) + by as isize;
        if live > PEAK.load(Ordering::Relaxed) {
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
    }
}

fn shrank(by: usize) {
    if ON.load(Ordering::Relaxed) {
        LIVE.fetch_sub(by as isize, Ordering::Relaxed);
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters only observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                shrank(layout.size() - new_size);
            }
        }
        p
    }
}

/// Runs `f` with counting on. Returns its result and the most heap bytes
/// live at once above the level when `f` began, in MiB. Threads `f`
/// spawns and joins are counted with it.
pub fn peak_growth<R>(f: impl FnOnce() -> R) -> (R, f64) {
    LIVE.store(0, Ordering::Relaxed);
    PEAK.store(0, Ordering::Relaxed);
    ON.store(true, Ordering::SeqCst);
    let r = f();
    ON.store(false, Ordering::SeqCst);
    (r, PEAK.load(Ordering::Relaxed) as f64 / (1024.0 * 1024.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_the_peak_not_the_end() {
        let ((), peak) = peak_growth(|| {
            let big = vec![1u8; 8 << 20];
            std::hint::black_box(&big);
        });
        assert!((7.9..8.5).contains(&peak), "peak {peak} MiB");
    }
}
