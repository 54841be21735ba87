//! The sampling wall-clock profiler: a background thread walks every
//! live span stack ([`crate::spantree`]) at a configurable rate and
//! folds what it sees into collapsed flamegraph aggregates.
//!
//! Split in two so tests stay deterministic:
//!
//! * [`ProfileAgg`] is the passive aggregate — [`ProfileAgg::tick`]
//!   takes exactly one sampling pass, so a test (or any injected
//!   clock) drives sampling itself and can account for every sample;
//! * [`Profiler`] owns the wall-clock loop: a background thread
//!   ticking a shared [`ProfileAgg`] every `1/hz` seconds until
//!   [`Profiler::stop`] joins it.
//!
//! Aggregates export as collapsed flamegraph text ([`ProfileReport::render_folded`]:
//! one `stack;frames count` line per distinct stack, directly
//! consumable by `inferno`/`flamegraph.pl`) or JSON. Windowed profiles
//! (`/profile?secs=N` on the scrape server) subtract two cumulative
//! reports via [`ProfileReport::diff`]. With the runtime kill switch
//! thrown, ticks observe nothing and every report stays empty.

use crate::spantree;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Default sampling rate (Hz) for `--profile-hz` when the flag is
/// given without a value. Prime, so the sampler does not phase-lock
/// with millisecond-aligned stage boundaries.
pub const DEFAULT_PROFILE_HZ: u32 = 97;

/// `/profile?secs=N` blocks one server worker while the window
/// elapses; cap it so a typo cannot wedge a worker for an hour.
pub const MAX_PROFILE_WINDOW_SECS: u64 = 60;

/// One collapsed stack and its sample count.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FoldedStack {
    /// Semicolon-joined frames, outermost first (`run_day;plan_day;solve`).
    pub stack: String,
    /// Samples that observed exactly this stack.
    pub count: u64,
}

/// A point-in-time snapshot of the profiler's folded aggregates.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct ProfileReport {
    /// Stack samples captured (one per thread with a non-empty span
    /// stack per tick).
    pub samples_total: u64,
    /// Distinct stacks, most-sampled first (ties break by name).
    pub stacks: Vec<FoldedStack>,
}

impl ProfileReport {
    /// Collapsed flamegraph text: one `frames count` line per stack.
    pub fn render_folded(&self) -> String {
        let mut out = String::new();
        for f in &self.stacks {
            out.push_str(&f.stack);
            out.push(' ');
            out.push_str(&f.count.to_string());
            out.push('\n');
        }
        out
    }

    /// The samples this report gained since `earlier` (a windowed
    /// profile from two cumulative snapshots). Stacks whose counts did
    /// not move are dropped.
    pub fn diff(&self, earlier: &ProfileReport) -> ProfileReport {
        let before: HashMap<&str, u64> = earlier
            .stacks
            .iter()
            .map(|f| (f.stack.as_str(), f.count))
            .collect();
        let stacks: Vec<FoldedStack> = self
            .stacks
            .iter()
            .filter_map(|f| {
                let delta = f
                    .count
                    .saturating_sub(before.get(f.stack.as_str()).copied().unwrap_or(0));
                (delta > 0).then(|| FoldedStack {
                    stack: f.stack.clone(),
                    count: delta,
                })
            })
            .collect();
        ProfileReport {
            samples_total: self.samples_total.saturating_sub(earlier.samples_total),
            stacks,
        }
    }

    /// Parses collapsed flamegraph text back into a report (the CLI's
    /// smoke validation of a scraped `/profile?fmt=folded` body).
    pub fn parse_folded(text: &str) -> Result<ProfileReport, String> {
        let mut stacks = Vec::new();
        let mut samples_total = 0u64;
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let (stack, count) = line
                .rsplit_once(' ')
                .ok_or_else(|| format!("line {}: no count field: {line:?}", i + 1))?;
            let count: u64 = count
                .parse()
                .map_err(|e| format!("line {}: bad count {count:?}: {e}", i + 1))?;
            if stack.is_empty() || stack.split(';').any(str::is_empty) {
                return Err(format!("line {}: empty frame in stack {stack:?}", i + 1));
            }
            samples_total += count;
            stacks.push(FoldedStack {
                stack: stack.to_owned(),
                count,
            });
        }
        Ok(ProfileReport {
            samples_total,
            stacks,
        })
    }
}

/// The shared folded-stack aggregate: each [`ProfileAgg::tick`] walks
/// every live span stack once. Drive it manually for deterministic
/// sampling, or let a [`Profiler`] thread tick it on wall clock.
#[derive(Default)]
pub struct ProfileAgg {
    agg: Mutex<HashMap<Vec<usize>, u64>>,
    samples: AtomicU64,
}

impl ProfileAgg {
    /// An empty aggregate.
    pub fn new() -> ProfileAgg {
        ProfileAgg::default()
    }

    /// Takes one sampling pass over every live span stack in the
    /// process. Each non-empty stack contributes exactly one sample.
    /// No-op when recording is switched off at run time.
    pub fn tick(&self) {
        if !crate::runtime_enabled() {
            return;
        }
        let stacks = spantree::sample_live_stacks();
        if stacks.is_empty() {
            return;
        }
        let n = stacks.len() as u64;
        crate::counter!(crate::names::PROFILE_SAMPLES_TOTAL, n);
        self.samples.fetch_add(n, Ordering::Relaxed);
        let mut agg = self.agg.lock().unwrap_or_else(|e| e.into_inner());
        for stack in stacks {
            *agg.entry(stack).or_insert(0) += 1;
        }
    }

    /// Stack samples captured since construction.
    pub fn samples_total(&self) -> u64 {
        self.samples.load(Ordering::Acquire)
    }

    /// Snapshots the cumulative aggregate with names resolved.
    pub fn report(&self) -> ProfileReport {
        let agg = self.agg.lock().unwrap_or_else(|e| e.into_inner());
        let mut stacks: Vec<FoldedStack> = agg
            .iter()
            .map(|(stack, &count)| FoldedStack {
                stack: spantree::resolve_stack(stack),
                count,
            })
            .collect();
        drop(agg);
        stacks.sort_by(|a, b| b.count.cmp(&a.count).then_with(|| a.stack.cmp(&b.stack)));
        ProfileReport {
            samples_total: self.samples_total(),
            stacks,
        }
    }
}

/// The background wall-clock profiler: ticks a shared [`ProfileAgg`]
/// every `1/hz` seconds. [`Profiler::stop`] joins the thread; dropping
/// without stopping detaches it (process exit reaps it), mirroring
/// [`ObsServer`](crate::ObsServer).
pub struct Profiler {
    agg: Arc<ProfileAgg>,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    hz: u32,
}

impl Profiler {
    /// Starts sampling at `hz` (clamped to ≥ 1).
    pub fn start(hz: u32) -> Profiler {
        let agg = Arc::new(ProfileAgg::new());
        let stop = Arc::new(AtomicBool::new(false));
        let interval = Duration::from_secs_f64(1.0 / f64::from(hz.max(1)));
        let thread_agg = Arc::clone(&agg);
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !thread_stop.load(Ordering::Acquire) {
                thread_agg.tick();
                // Sleep in short slices so stop() returns promptly even
                // at low sampling rates.
                let mut left = interval;
                while left > Duration::ZERO && !thread_stop.load(Ordering::Acquire) {
                    let chunk = left.min(Duration::from_millis(25));
                    std::thread::sleep(chunk);
                    left = left.saturating_sub(chunk);
                }
            }
        });
        Profiler {
            agg,
            stop,
            handle: Some(handle),
            hz: hz.max(1),
        }
    }

    /// The shared aggregate (pass it to [`ObsServer::start`](crate::ObsServer::start)
    /// for `/profile`).
    pub fn agg(&self) -> Arc<ProfileAgg> {
        Arc::clone(&self.agg)
    }

    /// The configured sampling rate in Hz.
    pub fn hz(&self) -> u32 {
        self.hz
    }

    /// Snapshots the cumulative profile so far.
    pub fn report(&self) -> ProfileReport {
        self.agg.report()
    }

    /// Stops the sampler thread and joins it. After this returns no
    /// further samples can appear.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_ticks_account_for_every_sample() {
        let _g = crate::test_serial();
        crate::reset();
        crate::spantree::TraceStore::global().clear();
        let agg = ProfileAgg::new();
        // No live span: ticks observe nothing.
        agg.tick();
        assert_eq!(agg.samples_total(), 0);
        {
            let _root = crate::span!("prof_outer");
            {
                let _leaf = crate::span!("prof_inner");
                for _ in 0..3 {
                    agg.tick();
                }
            }
            agg.tick();
        }
        agg.tick();
        let report = agg.report();
        assert_eq!(report.samples_total, 4, "{report:?}");
        assert_eq!(report.stacks.len(), 2, "{report:?}");
        assert_eq!(report.stacks[0].stack, "prof_outer;prof_inner");
        assert_eq!(report.stacks[0].count, 3);
        assert_eq!(report.stacks[1].stack, "prof_outer");
        assert_eq!(report.stacks[1].count, 1);
        assert_eq!(
            crate::snapshot().counter(crate::names::PROFILE_SAMPLES_TOTAL),
            4
        );
        crate::spantree::TraceStore::global().clear();
        crate::reset();
    }

    #[test]
    fn folded_render_parse_and_diff_round_trip() {
        let report = ProfileReport {
            samples_total: 7,
            stacks: vec![
                FoldedStack {
                    stack: "run_day;plan_day;solve".to_owned(),
                    count: 5,
                },
                FoldedStack {
                    stack: "run_day".to_owned(),
                    count: 2,
                },
            ],
        };
        let folded = report.render_folded();
        assert_eq!(folded, "run_day;plan_day;solve 5\nrun_day 2\n");
        let parsed = ProfileReport::parse_folded(&folded).unwrap();
        assert_eq!(parsed, report);
        assert!(ProfileReport::parse_folded("no_count_here\n").is_err());
        assert!(ProfileReport::parse_folded("a;;b 3\n").is_err());

        let earlier = ProfileReport {
            samples_total: 3,
            stacks: vec![FoldedStack {
                stack: "run_day;plan_day;solve".to_owned(),
                count: 3,
            }],
        };
        let window = report.diff(&earlier);
        assert_eq!(window.samples_total, 4);
        assert_eq!(window.stacks.len(), 2);
        assert!(window
            .stacks
            .iter()
            .any(|f| f.stack == "run_day;plan_day;solve" && f.count == 2));
        assert!(window
            .stacks
            .iter()
            .any(|f| f.stack == "run_day" && f.count == 2));
        // JSON surface.
        let json = serde_json::to_string(&report).unwrap();
        let back: ProfileReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn profiler_thread_stops_cleanly_and_goes_quiet() {
        let _g = crate::test_serial();
        crate::reset();
        let profiler = Profiler::start(200);
        assert_eq!(profiler.hz(), 200);
        let agg = profiler.agg();
        std::thread::sleep(Duration::from_millis(30));
        profiler.stop();
        let settled = agg.samples_total();
        std::thread::sleep(Duration::from_millis(30));
        assert_eq!(
            agg.samples_total(),
            settled,
            "samples after stop() mean the profiler thread outlived its join"
        );
        crate::reset();
    }
}
