//! # netmaster-obs
//!
//! Zero-dependency observability for the NetMaster stack:
//!
//! * a lock-cheap **metrics registry** — [`counter!`], [`observe!`],
//!   [`gauge_set`]/[`gauge_max`] — with per-thread shards merged on
//!   scrape ([`snapshot`]), exportable as JSON (serde) and Prometheus
//!   text ([`Snapshot::to_prometheus`]); every histogram, scraped
//!   or watched, is one [`Histogram`] on one doubling bucket
//!   grid with one quantile rule;
//! * **span timers** — [`span!`]`("plan_day")` returns a guard whose
//!   drop records wall-clock latency into the
//!   `stage_plan_day_seconds` histogram;
//! * **hierarchical span trees & sampling profiler** — nested spans
//!   assemble into causal trees ([`spantree`]: thread-local span
//!   stacks, stable span ids, self vs total time, typed attributes via
//!   [`span_attr!`]) retained in a bounded [`TraceStore`] with
//!   slow-trace exemplars, while a background sampler ([`profile`])
//!   walks live span stacks into collapsed flamegraph aggregates
//!   (`/profile` on the scrape server);
//! * a bounded **decision-audit journal** — [`Journal`] of typed
//!   [`DecisionEvent`]s, drainable to JSONL ([`to_jsonl`]);
//! * a **causal flight recorder** — per-activity [`ActivityTrace`]
//!   lifecycle records ([`tracectx`]) in a bounded [`TraceLedger`],
//!   rolled into per-app/per-day energy bills and worst-offender
//!   exemplars by [`ledger`];
//! * **watchtower primitives** — [`timeseries`] (Welford, EWMA),
//!   [`drift`] (Page–Hinkley + windowed-CUSUM change detectors), and
//!   [`health`] (per-user scorecards) — assembled into the fleet
//!   health watchtower by `netmaster-core`;
//! * a **live telemetry plane** — [`hub`] (the [`TelemetryHub`] sink
//!   fleet runs publish progress and rendered documents into),
//!   [`serve`] (a std-only HTTP scrape server: `/metrics`, `/healthz`,
//!   `/health/fleet`, `/journal`, `/ledger`, `/snapshot`, `/profile`),
//!   and [`runregistry`] (an append-only provenance-stamped JSONL log
//!   of run results).
//!
//! ## Switching it off
//!
//! There is one build, with every recording path compiled in. A
//! run-time kill switch ([`set_runtime_enabled`]) turns collection off:
//! counters, histograms, spans, the journal and the flight recorder
//! all return before they touch shared state. `nmbench` prices that
//! switch as `obs.runtime_share`, and [`set_trace_capture`] prices
//! span-tree capture the same way.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod drift;
mod export;
pub mod health;
mod hist;
pub mod hub;
mod journal;
pub mod ledger;
#[path = "registry_names.rs"]
pub mod names;
pub mod profile;
mod registry;
mod ring;
pub mod runregistry;
pub mod serve;
pub mod spantree;
pub mod timeseries;
pub mod tracectx;

pub use export::validate_prometheus;
pub use hist::{Histogram, FINITE_BUCKETS, HIST_BUCKETS};
pub use hub::{HubProgress, TelemetryHub};
pub use journal::{
    parse_jsonl, to_jsonl, DecisionEvent, Journal, JournalEntry, DEFAULT_JOURNAL_CAPACITY,
};
pub use profile::{
    FoldedStack, ProfileAgg, ProfileReport, Profiler, DEFAULT_PROFILE_HZ, MAX_PROFILE_WINDOW_SECS,
};
pub use registry::{
    counter_handle, gauge_max, gauge_set, hist_handle, reset, snapshot, BucketSnap, Counter,
    CounterSnap, GaugeSnap, Hist, HistSnap, Snapshot,
};
pub use ring::{Chunk, One, Ring, Weight};
pub use runregistry::{RunRecord, RunRegistry, RUN_SCHEMA_VERSION};
pub use serve::{http_get, http_get_with_timeout, HealthzReport, ObsServer, ServeOptions};
pub use spantree::{set_trace_capture, trace_capture_enabled, AttrValue, SpanNode, TraceStore};
pub use tracectx::{
    trace_from_jsonl, trace_to_jsonl, ActivityTrace, EnergyShare, Outcome, PlanReason,
    RejectReason, SolverArm, TraceLedger, DEFAULT_LEDGER_CAPACITY,
};

use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Instant;

/// Always `true`: instrumentation is always compiled in. Kept only for
/// `nmbench`'s start-up check, and deleted together with that check.
pub const ENABLED: bool = true;

static RUNTIME: AtomicBool = AtomicBool::new(true);

/// Switches recording on or off at run time (on by default). This is
/// the only off switch; the benchmark A/Bs it to price the
/// instrumentation inside one binary.
pub fn set_runtime_enabled(on: bool) {
    RUNTIME.store(on, Ordering::Relaxed); // lint:allow(atomic-ordering) pure on/off gate toggled between measured phases; no data is published under it
}

/// `true` unless [`set_runtime_enabled`] switched recording off.
#[inline]
pub fn runtime_enabled() -> bool {
    RUNTIME.load(Ordering::Relaxed) // lint:allow(atomic-ordering) kill-switch read on the record fast path: no data is published under this flag, and Relaxed keeps the disabled path fence-free
}

/// An in-flight timer; records elapsed wall-clock seconds into its
/// histogram when dropped, and threads the span through the
/// hierarchical trace layer ([`spantree`]): a live-stack frame for the
/// sampling profiler plus a tree node under the enclosing span.
/// Construct via [`span!`] or [`timer!`].
///
/// A span dropped while its thread is panicking is **abandoned**: its
/// partial duration is counted in `spans_abandoned_total` instead of
/// polluting the latency histogram, and no tree node is recorded.
#[must_use = "a span records on drop; bind it with `let _span = ...`"]
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    start: Instant,
    hist: Hist,
    frame: Option<spantree::FrameToken>,
}

impl Span {
    /// Starts a named span over `hist` (skips the clock read and the
    /// trace layer when recording is off).
    #[inline]
    pub fn enter(name: &'static str, hist: Option<Hist>) -> Span {
        match hist {
            Some(hist) if runtime_enabled() => {
                let frame = spantree::push_frame(name);
                Span(Some(ActiveSpan {
                    start: Instant::now(),
                    hist,
                    frame,
                }))
            }
            _ => Span(None),
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(active) = self.0.take() else { return };
        let secs = active.start.elapsed().as_secs_f64();
        let abandoned = std::thread::panicking();
        if abandoned {
            crate::counter!(crate::names::SPANS_ABANDONED_TOTAL);
        } else {
            active.hist.observe_secs(secs);
        }
        if let Some(frame) = active.frame {
            spantree::pop_frame(frame, secs, abandoned);
        }
    }
}

/// Adds to a named counter: `counter!("sched_deferred_total")` adds 1,
/// `counter!("sched_deferred_total", n)` adds `n: u64`. The handle is
/// registered once per thread and cached; an increment is one relaxed
/// atomic RMW.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {
        $crate::counter!($name, 1u64)
    };
    ($name:expr, $n:expr) => {{
        let n: u64 = $n;
        if n != 0 {
            ::std::thread_local! {
                static __OBS_COUNTER: $crate::Counter = $crate::counter_handle($name);
            }
            let _ = __OBS_COUNTER.try_with(|c| c.add(n));
        }
    }};
}

/// Records a value (in seconds, wall-clock or simulated) into a named
/// histogram: `observe!("deferral_latency_seconds", secs)`.
#[macro_export]
macro_rules! observe {
    ($name:expr, $secs:expr) => {{
        ::std::thread_local! {
            static __OBS_HIST: $crate::Hist = $crate::hist_handle($name);
        }
        let _ = __OBS_HIST.try_with(|h| h.observe_secs($secs));
    }};
}

/// Times a pipeline stage: `let _span = obs::span!("plan_day");`
/// records into the `stage_plan_day_seconds` histogram when the guard
/// drops, and opens a `"plan_day"` node in the span tree — nested
/// `span!` guards become its children, and the sampling profiler sees
/// it on the live stack.
#[macro_export]
macro_rules! span {
    ($name:literal) => {{
        ::std::thread_local! {
            static __OBS_SPAN_HIST: $crate::Hist =
                $crate::hist_handle(concat!("stage_", $name, "_seconds"));
        }
        $crate::Span::enter(
            $name,
            __OBS_SPAN_HIST.try_with(::std::clone::Clone::clone).ok(),
        )
    }};
}

/// Like [`span!`] but records under the literal histogram name
/// (`timer!("fleet_member_seconds")`), for timings that are not
/// pipeline stages.
#[macro_export]
macro_rules! timer {
    ($name:literal) => {{
        ::std::thread_local! {
            static __OBS_TIMER_HIST: $crate::Hist = $crate::hist_handle($name);
        }
        $crate::Span::enter(
            $name,
            __OBS_TIMER_HIST.try_with(::std::clone::Clone::clone).ok(),
        )
    }};
}

/// Attaches a typed attribute to the innermost open span on this
/// thread: `obs::span_attr!("day", day)` tags the enclosing
/// [`span!`] guard's tree node with `day=<value>`, so
/// `netmaster explain` can jump from a metric to the exact causal
/// tree. The value is only formatted while tree capture is live.
#[macro_export]
macro_rules! span_attr {
    ($key:literal, $value:expr) => {{
        if $crate::spantree::trace_capture_enabled() {
            $crate::spantree::set_attr($key, $value);
        }
    }};
}

/// Serializes tests that touch the process-global registry or the
/// runtime toggle.
#[cfg(test)]
pub(crate) fn test_serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_record_through_the_registry() {
        let _g = crate::test_serial();
        crate::reset();
        for _ in 0..3 {
            crate::counter!("lib_macro_total");
        }
        crate::counter!("lib_macro_total", 7);
        crate::counter!("lib_macro_zero_total", 0);
        crate::observe!("lib_macro_seconds", 0.25);
        {
            let _span = crate::span!("lib_macro");
        }
        {
            let _t = crate::timer!("lib_timer_seconds");
        }
        let snap = crate::snapshot();
        assert_eq!(snap.counter("lib_macro_total"), 10);
        // Zero adds register nothing.
        assert_eq!(snap.counter("lib_macro_zero_total"), 0);
        assert_eq!(snap.histogram("lib_macro_seconds").unwrap().count, 1);
        assert_eq!(snap.histogram("stage_lib_macro_seconds").unwrap().count, 1);
        assert_eq!(snap.histogram("lib_timer_seconds").unwrap().count, 1);
        crate::reset();
    }

    #[test]
    fn panicking_span_is_abandoned_not_recorded() {
        let _g = crate::test_serial();
        crate::reset();
        crate::spantree::TraceStore::global().clear();
        let unwound = std::panic::catch_unwind(|| {
            let _span = crate::span!("panicky");
            panic!("boom");
        });
        assert!(unwound.is_err());
        let snap = crate::snapshot();
        assert_eq!(snap.counter(crate::names::SPANS_ABANDONED_TOTAL), 1);
        // The abandoned duration must NOT pollute the stage histogram…
        assert!(snap
            .histogram("stage_panicky_seconds")
            .is_none_or(|h| h.count == 0));
        // …and no tree is recorded for the torn-down span.
        assert!(crate::spantree::TraceStore::global().is_empty());
        crate::spantree::TraceStore::global().clear();
        crate::reset();
    }

    #[test]
    fn runtime_switch_off_makes_the_macros_inert() {
        let _g = crate::test_serial();
        crate::reset();
        crate::spantree::TraceStore::global().clear();
        crate::set_runtime_enabled(false);
        assert!(!crate::runtime_enabled());
        crate::counter!("never_total", 5);
        crate::observe!("never_seconds", 1.0);
        {
            let _span = crate::span!("never");
            crate::span_attr!("day", 3u32);
        }
        {
            let _t = crate::timer!("never_timer_seconds");
        }
        crate::set_runtime_enabled(true);
        let snap = crate::snapshot();
        assert_eq!(snap.counter("never_total"), 0);
        for h in [
            "never_seconds",
            "stage_never_seconds",
            "never_timer_seconds",
        ] {
            assert!(snap.histogram(h).is_none_or(|h| h.count == 0), "{h}");
        }
        assert!(crate::spantree::TraceStore::global().is_empty());
        crate::reset();
    }
}
