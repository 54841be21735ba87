//! Heap allocations per planned day. A counting global allocator tallies
//! this binary's allocations per thread, so each test reads only what its
//! own thread allocated while other tests run beside it. The 8 panel
//! users are trained on their first two weeks and the third week is
//! measured: a planned day should allocate its caller-owned results
//! (the day's executions, the routing, the solution, the predictions)
//! and little else. The `strict-invariants` oracles allocate by design,
//! so the budget holds for builds without them.

#![cfg(not(feature = "strict-invariants"))]

use netmaster::core::MiddlewareService;
use netmaster::sim::Policy;
use netmaster::trace::trace::{DayTrace, Trace};
use netmaster_bench::harness::{self, TEST_DAYS, TRAIN_DAYS};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    /// Allocations and reallocations made by this thread so far.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn tick() {
    // `try_with`: a thread being torn down may still free or allocate.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        tick();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tick();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations `f` makes on the calling thread.
fn allocations<R>(f: impl FnOnce() -> R) -> u64 {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    let after = ALLOCS.with(Cell::get);
    drop(out);
    after - before
}

/// Mean allocations per held-out day over the panel: `member` builds a
/// trained member for one user, and `day` runs one held-out day through
/// it and returns the allocations counted.
fn mean_per_day<M>(member: impl Fn(&Trace) -> M, day: impl Fn(&mut M, &DayTrace) -> u64) -> f64 {
    let (mut total, mut days) = (0u64, 0u64);
    for trace in harness::panel() {
        let mut m = member(&trace);
        for d in &trace.days[TRAIN_DAYS..TRAIN_DAYS + TEST_DAYS] {
            total += day(&mut m, d);
            days += 1;
        }
    }
    total as f64 / days as f64
}

#[test]
fn metrics_only_plan_day_allocates_within_budget() {
    let mean = mean_per_day(harness::trained_netmaster, |policy, d| {
        allocations(|| policy.plan_day(d))
    });
    eprintln!("allocations per metrics-only plan_day: {mean:.1}");
    assert!(
        mean <= 20.0,
        "{mean:.1} allocations per plan_day, budget 20"
    );
}

#[test]
fn recorder_on_run_day_allocates_within_budget() {
    let mean = mean_per_day(
        |trace| MiddlewareService::new().import_history(&trace.days[..TRAIN_DAYS]),
        |svc, d| allocations(|| svc.run_day(d)),
    );
    eprintln!("allocations per recorder-on run_day: {mean:.1}");
    assert!(mean <= 24.0, "{mean:.1} allocations per run_day, budget 24");
}
