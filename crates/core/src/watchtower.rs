//! The fleet health watchtower: online drift detection over per-day
//! middleware outcomes.
//!
//! NetMaster's saving is statistical — it holds only while the mined
//! habit keeps matching reality. The watchtower closes that loop: a
//! [`UserWatch`] feeds each day's [`DayReport`] into per-metric drift
//! monitors (Page–Hinkley + windowed CUSUM from
//! [`netmaster_obs::drift`]) over the prediction hit-rate, the
//! hour-granular slot-recall, the energy saving ratio, and the
//! deferral latency. Slot-recall is the sentinel: when a user's daily
//! rhythm moves out from under the mined slots it drops the very next
//! day, while the per-activity hit-rate (diluted by around-the-clock
//! background demands) takes days to follow. When a detector fires it
//! emits a typed [`DriftDetected`](netmaster_obs::DecisionEvent)
//! journal event and (by default) triggers the mining re-mine hook
//! ([`MiddlewareService::trigger_remine`]) so predictions restart from
//! the user's new life. Per-user [`Scorecard`]s roll up into a fleet
//! health report via `netmaster_sim::fleet::FleetHealth`.

use crate::service::{DayReport, MiddlewareService};
use netmaster_obs::drift::{Direction, DriftAlarm, DriftSignal, MetricMonitor};
use netmaster_obs::health::{HealthStatus, Scorecard, WatchMetric};
use netmaster_obs::{DecisionEvent, Histogram, Journal, JournalEntry};
use netmaster_sim::par_map_indexed;
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;
use netmaster_trace::trace::Trace;

/// Detector and classification thresholds for one watched fleet.
#[derive(Debug, Clone)]
pub struct WatchConfig {
    /// Trained-day samples the windowed CUSUM uses to freeze its
    /// baseline; no CUSUM alarm can fire before then.
    pub warmup_days: usize,
    /// Page–Hinkley tolerance: per-day deviations below this are
    /// ignored (in metric units — hit-rate and saving are ratios).
    pub ph_delta: f64,
    /// Page–Hinkley alarm threshold on the cumulative deviation.
    pub ph_lambda: f64,
    /// Days in the CUSUM moving window.
    pub cusum_window: usize,
    /// CUSUM slack, in baseline standard deviations.
    pub cusum_k: f64,
    /// CUSUM alarm threshold, in baseline standard deviations.
    pub cusum_h: f64,
    /// EWMA smoothing for scorecard levels.
    pub ewma_alpha: f64,
    /// Threshold multiplier for the deferral-latency monitor. Latency
    /// means wander with day-to-day demand mix even in steady state, so
    /// the latency detectors run this many times laxer than the
    /// ratio-metric ones.
    pub latency_scale: f64,
    /// Alarms at or above this make a user critical.
    pub critical_alarms: u64,
    /// Smoothed saving below this (after warmup) marks degraded.
    pub degraded_saving: f64,
    /// Smoothed saving below this (after warmup) marks critical.
    pub saving_floor: f64,
    /// Re-mine the user's habit model when a detector fires.
    pub remine_on_drift: bool,
}

impl Default for WatchConfig {
    fn default() -> Self {
        WatchConfig {
            warmup_days: 5,
            ph_delta: 0.06,
            ph_lambda: 0.6,
            cusum_window: 4,
            cusum_k: 1.0,
            cusum_h: 6.0,
            ewma_alpha: 0.3,
            latency_scale: 3.0,
            critical_alarms: 3,
            degraded_saving: 0.3,
            saving_floor: 0.15,
            remine_on_drift: true,
        }
    }
}

/// Watches one fleet member: four drift monitors over its per-day
/// outcomes, plus the roll-up state for its [`Scorecard`].
pub struct UserWatch {
    user: u32,
    cfg: WatchConfig,
    days_seen: u32,
    hit: MetricMonitor,
    recall: MetricMonitor,
    saving: MetricMonitor,
    latency: MetricMonitor,
    deferral: Histogram,
    alarms: u64,
    first_alarm_day: Option<u32>,
    remines: u64,
    status: HealthStatus,
    reasons: Vec<String>,
}

impl UserWatch {
    /// A fresh watch for fleet member `user`.
    pub fn new(user: u32, cfg: WatchConfig) -> Self {
        let monitor = |dir, scale: f64| {
            MetricMonitor::new(
                dir,
                cfg.ph_delta * scale,
                cfg.ph_lambda * scale,
                cfg.cusum_window,
                cfg.warmup_days,
                cfg.cusum_k * scale,
                cfg.cusum_h * scale,
                cfg.ewma_alpha,
            )
        };
        UserWatch {
            user,
            days_seen: 0,
            hit: monitor(Direction::Down, 1.0),
            recall: monitor(Direction::Down, 1.0),
            saving: monitor(Direction::Down, 1.0),
            latency: monitor(Direction::Up, cfg.latency_scale),
            deferral: Histogram::default(),
            alarms: 0,
            first_alarm_day: None,
            remines: 0,
            status: HealthStatus::Healthy,
            reasons: Vec::new(),
            cfg,
        }
    }

    /// Feeds one day's outcomes into the monitors, journals any drift
    /// alarm and health transition, and returns `true` when a detector
    /// fired today (the caller decides whether to re-mine).
    pub fn observe_day(&mut self, report: &DayReport, journal: &mut Journal) -> bool {
        #[cfg(feature = "strict-invariants")]
        let before = (self.days_seen, self.alarms, self.status);
        self.days_seen += 1;
        let day = report.day;
        let mut fired = false;
        // The latency monitor sees the day's *mean* deferral wait (the
        // spread across days lives in the `deferral` histogram); a
        // per-activity latency blow-up and a per-day one alarm alike.
        if report.trained {
            if let Some(hr) = report.hit_rate() {
                fired |= self.feed(WatchMetric::HitRate, hr, day, journal);
            }
            // Recall samples count only when the model predicted slots
            // at all: a day type the miner has not yet seen (the first
            // weekend of a cold start) is a training gap, not drift.
            if report.slot_hours_predicted > 0 {
                if let Some(sr) = report.slot_recall() {
                    fired |= self.feed(WatchMetric::SlotRecall, sr, day, journal);
                }
            }
            if report.stock_energy_j > 0.0 {
                fired |= self.feed(WatchMetric::SavingRatio, report.saving(), day, journal);
            }
            if report.prediction_hits > 0 {
                let mean = report.deferral_latency_mean_secs();
                self.deferral.observe_secs(mean);
                // Fed as a fraction of the day so the shared ratio-scale
                // detector thresholds apply to latency too.
                let frac = mean / netmaster_trace::time::SECS_PER_DAY as f64;
                fired |= self.feed(WatchMetric::DeferralLatency, frac, day, journal);
            }
        }
        let new_status = self.classify();
        if new_status > self.status {
            self.status = new_status;
            let reason = self
                .reasons
                .last()
                .cloned()
                .unwrap_or_else(|| "unspecified".to_owned());
            let (user, status) = (self.user, new_status.name().to_owned());
            journal.emit(|| DecisionEvent::HealthDegraded {
                day,
                user,
                status,
                reason,
            });
        }
        #[cfg(feature = "strict-invariants")]
        {
            assert_eq!(
                self.days_seen,
                before.0 + 1,
                "strict-invariants: observe_day must advance days_seen by exactly one"
            );
            assert!(
                self.alarms >= before.1,
                "strict-invariants: alarm count went backwards"
            );
            assert!(
                self.status >= before.2,
                "strict-invariants: health status must be monotone within a mining epoch"
            );
        }
        fired
    }

    fn feed(&mut self, metric: WatchMetric, x: f64, day: usize, journal: &mut Journal) -> bool {
        let monitor = match metric {
            WatchMetric::HitRate => &mut self.hit,
            WatchMetric::SlotRecall => &mut self.recall,
            WatchMetric::SavingRatio => &mut self.saving,
            WatchMetric::DeferralLatency => &mut self.latency,
        };
        let Some(DriftAlarm {
            signal,
            statistic,
            threshold,
        }) = monitor.push(x)
        else {
            return false;
        };
        self.alarms += 1;
        self.first_alarm_day.get_or_insert(day as u32);
        self.reasons
            .push(format!("{} drift on day {day}", metric.name()));
        let user = self.user;
        let detector = match signal {
            DriftSignal::PageHinkley => "page_hinkley",
            DriftSignal::WindowedCusum => "windowed_cusum",
        };
        journal.emit(|| DecisionEvent::DriftDetected {
            day,
            user,
            metric: metric.name().to_owned(),
            detector: detector.to_owned(),
            statistic,
            threshold,
        });
        true
    }

    /// Status from the current roll-up state (monotone: a user that
    /// drifted stays flagged for the rest of the run, even after the
    /// re-mined model recovers — the report answers "who needed
    /// attention", not "who is fine this minute").
    fn classify(&mut self) -> HealthStatus {
        let saving = self.saving.level();
        let warmed = self.saving.lifetime().count() as usize >= self.cfg.warmup_days;
        if self.alarms >= self.cfg.critical_alarms {
            self.note(format!("{} drift alarms", self.alarms));
            return HealthStatus::Critical;
        }
        if warmed && saving.is_some_and(|s| s < self.cfg.saving_floor) {
            self.note(format!(
                "saving collapsed to {:.2} (< {:.2} floor)",
                saving.unwrap_or(0.0),
                self.cfg.saving_floor
            ));
            return HealthStatus::Critical;
        }
        if self.alarms >= 1 {
            return HealthStatus::Degraded;
        }
        if warmed && saving.is_some_and(|s| s < self.cfg.degraded_saving) {
            self.note(format!(
                "saving {:.2} below {:.2}",
                saving.unwrap_or(0.0),
                self.cfg.degraded_saving
            ));
            return HealthStatus::Degraded;
        }
        self.status
    }

    fn note(&mut self, reason: String) {
        if self.reasons.last() != Some(&reason) {
            self.reasons.push(reason);
        }
    }

    /// Records that the caller re-mined this user in response to drift.
    pub fn note_remine(&mut self) {
        self.remines += 1;
    }

    /// The per-user health roll-up.
    pub fn scorecard(&self) -> Scorecard {
        Scorecard {
            user: self.user,
            days: self.days_seen,
            status: self.status,
            reasons: self.reasons.clone(),
            hit_rate: self.hit.level(),
            hit_rate_mean: self.hit.lifetime().mean(),
            slot_recall: self.recall.level(),
            slot_recall_mean: self.recall.lifetime().mean(),
            saving: self.saving.level(),
            saving_mean: self.saving.lifetime().mean(),
            deferral_p99_secs: self.deferral.quantile_secs(0.99),
            drift_alarms: self.alarms,
            first_alarm_day: self.first_alarm_day,
            remines: self.remines,
        }
    }
}

/// A mid-run habit shift injected into one fleet member: from `at_day`
/// on, the user's daily rhythm rotates by twelve hours (intensity
/// patterns and per-app hourly affinities alike) — the synthetic "took
/// a night-shift job" change the watchtower must catch. The mined time
/// slots keep pointing at the old hours, so predictions start missing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HabitShift {
    /// Index of the member whose habit shifts.
    pub user_index: usize,
    /// First day generated from the shifted profile.
    pub at_day: usize,
}

/// Parameters for one watchtower fleet run.
#[derive(Debug, Clone)]
pub struct WatchSpec {
    /// Fleet size (members cycle through the 8-chronotype panel).
    pub users: usize,
    /// Simulated days per member.
    pub days: usize,
    /// Base seed; member `i` derives its own from it.
    pub seed: u64,
    /// Optional habit-shift injection.
    pub shift: Option<HabitShift>,
    /// Detector and classification thresholds.
    pub config: WatchConfig,
}

impl Default for WatchSpec {
    fn default() -> Self {
        WatchSpec {
            users: 8,
            days: 21,
            seed: 2014,
            shift: None,
            config: WatchConfig::default(),
        }
    }
}

/// One member's watch outcome: the scorecard plus its full decision
/// journal (policy events and watchtower events in one ordered stream).
pub struct UserWatchOutcome {
    /// Health roll-up.
    pub scorecard: Scorecard,
    /// Drained journal for the run.
    pub journal: Vec<JournalEntry>,
}

/// Runs the watchtower over a fleet: each member lives `spec.days`
/// under the middleware (learning online from day 0), with every day's
/// outcomes fed to its [`UserWatch`]. Members run in parallel;
/// everything is deterministic in `spec.seed`.
pub fn run_watch(spec: &WatchSpec) -> Vec<UserWatchOutcome> {
    run_watch_observed(spec, &|_| {})
}

/// [`run_watch`] with a per-member callback: `on_member` sees each
/// finished member's [`Scorecard`] as workers complete it (called from
/// worker threads, concurrently). The telemetry plane uses this to
/// publish incremental fleet-health snapshots to a scrape server while
/// the run executes; the returned outcomes are identical to
/// [`run_watch`].
pub fn run_watch_observed(
    spec: &WatchSpec,
    on_member: &(dyn Fn(&Scorecard) + Sync),
) -> Vec<UserWatchOutcome> {
    let outcomes = par_map_indexed(spec.users, |i| {
        let outcome = watch_member(spec, i);
        on_member(&outcome.scorecard);
        outcome
    });
    // Publish the fleet-mean saving so alert rules (the
    // `fleet_saving_ratio<…` floor) can watch live watch runs too.
    if !outcomes.is_empty() {
        let mean = outcomes
            .iter()
            .map(|o| o.scorecard.saving.unwrap_or(o.scorecard.saving_mean))
            .sum::<f64>()
            / outcomes.len() as f64;
        netmaster_obs::gauge_set(netmaster_obs::names::FLEET_SAVING_RATIO, mean);
    }
    outcomes
}

fn watch_member(spec: &WatchSpec, i: usize) -> UserWatchOutcome {
    let trace = member_trace(spec, i);
    let mut svc = MiddlewareService::new();
    let mut watch = UserWatch::new(i as u32, spec.config.clone());
    let remine_on_drift = spec.config.remine_on_drift;
    for day in &trace.days {
        let report = svc.run_day(day);
        let fired = watch.observe_day(&report, svc.journal_mut());
        if fired && remine_on_drift {
            svc.trigger_remine();
            watch.note_remine();
        }
    }
    UserWatchOutcome {
        scorecard: watch.scorecard(),
        journal: svc.drain_journal(),
    }
}

/// The member's trace: the panel profile for its index, with the habit
/// shift spliced in when it targets this member. Both halves come from
/// the same generator seed, so the shift is the *only* difference.
fn member_trace(spec: &WatchSpec, i: usize) -> Trace {
    let panel = UserProfile::panel();
    let profile = panel[i % panel.len()].clone();
    let seed = spec.seed.wrapping_add(i as u64 * 7919);
    let mut trace = TraceGenerator::new(profile.clone())
        .with_seed(seed)
        .generate(spec.days);
    if let Some(shift) = spec.shift {
        if shift.user_index == i && shift.at_day < spec.days {
            let alt = TraceGenerator::new(rotate_rhythm(profile, 12))
                .with_seed(seed)
                .generate(spec.days);
            for d in shift.at_day..spec.days {
                trace.days[d] = alt.days[d].clone();
            }
        }
    }
    trace
}

/// Rotates a profile's daily rhythm forward by `hours`: activity that
/// used to peak at hour `h` now peaks at `(h + hours) % 24`.
fn rotate_rhythm(mut profile: UserProfile, hours: usize) -> UserProfile {
    fn rotate(v: &mut [f64; 24], by: usize) {
        v.rotate_right(by % 24);
    }
    rotate(&mut profile.weekday_intensity, hours);
    rotate(&mut profile.weekend_intensity, hours);
    for app in &mut profile.apps {
        rotate(&mut app.hourly_affinity, hours);
    }
    profile
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shifted_trace_differs_only_after_the_shift() {
        let spec = WatchSpec {
            users: 2,
            days: 10,
            shift: Some(HabitShift {
                user_index: 1,
                at_day: 6,
            }),
            ..WatchSpec::default()
        };
        let base = member_trace(
            &WatchSpec {
                shift: None,
                ..spec.clone()
            },
            1,
        );
        let shifted = member_trace(&spec, 1);
        for d in 0..6 {
            assert_eq!(base.days[d], shifted.days[d], "pre-shift day {d}");
        }
        assert_ne!(base.days[6..], shifted.days[6..], "shift must bite");
        // Untargeted member unaffected.
        let other = member_trace(&spec, 0);
        let other_base = member_trace(
            &WatchSpec {
                shift: None,
                ..spec.clone()
            },
            0,
        );
        assert_eq!(other.days, other_base.days);
    }

    #[test]
    fn quiet_users_stay_healthy_and_report_levels() {
        let spec = WatchSpec {
            users: 2,
            days: 14,
            ..WatchSpec::default()
        };
        let outcomes = run_watch(&spec);
        assert_eq!(outcomes.len(), 2);
        for o in &outcomes {
            let c = &o.scorecard;
            assert_eq!(c.days, 14);
            assert!(c.hit_rate.is_some(), "trained days must feed hit-rate");
            assert!(c.saving.is_some());
            assert!(c.saving_mean > 0.2, "panel users save energy: {c:?}");
        }
    }

    #[test]
    fn run_watch_is_deterministic() {
        let spec = WatchSpec {
            users: 3,
            days: 12,
            shift: Some(HabitShift {
                user_index: 0,
                at_day: 8,
            }),
            ..WatchSpec::default()
        };
        let a = run_watch(&spec);
        let b = run_watch(&spec);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.scorecard, y.scorecard);
            assert_eq!(x.journal, y.journal);
        }
    }
}
