//! The NetMaster policy: the full middleware pipeline as a simulator
//! policy — monitoring feeds mining, mining feeds the knapsack
//! scheduler, the duty-cycle layer catches what prediction misses, and
//! Special Apps guard the user experience.

use crate::config::NetMasterConfig;
use crate::decision::{DayRouting, DecisionMaker, Disposition};
use crate::dutycycle::{run_window_into, DutyOutcome, SleepScheme};
use crate::monitoring::Monitor;
use netmaster_knapsack::PooledOvScratch;
use netmaster_mining::{drift_points, IncrementalMiner};
use netmaster_obs::{self as obs, DecisionEvent, Journal, JournalEntry, TraceLedger};
use netmaster_radio::{LinkModel, RrcModel, TailPolicy};
use netmaster_sim::{DayPlan, Execution, Policy};
use netmaster_trace::event::TraceId;
#[cfg(test)]
use netmaster_trace::time::SECS_PER_DAY;
use netmaster_trace::time::{hour_of, Interval, Timestamp};
use netmaster_trace::trace::DayTrace;
use std::collections::VecDeque;

/// Per-run diagnostics beyond what [`netmaster_sim::RunMetrics`] carries.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetMasterStats {
    /// Days planned with a trained miner.
    pub trained_days: u64,
    /// Days that fell back to duty-cycle-only.
    pub untrained_days: u64,
    /// Demands deferred into a later slot.
    pub deferred: u64,
    /// Demands pre-served in an earlier slot.
    pub prefetched: u64,
    /// Demands served by duty-cycle wake-ups.
    pub duty_served: u64,
    /// Wrong decisions (needs-network interaction while the radio was
    /// blocked for a non-special app).
    pub wrong_decisions: u64,
    /// History resets triggered by habit-drift detection.
    pub drift_resets: u64,
    /// Trained-prediction misses: screen-off demands that fell through
    /// to the duty-cycle layer (or arrived screen-off inside a
    /// predicted active slot) despite a usable routing. The *hit/miss*
    /// metric is therefore **per-activity** (per screen-off network
    /// demand), not per-slot: hits = `deferred + prefetched`.
    pub prediction_misses: u64,
    /// Total simulated seconds that deferred/prefetched demands were
    /// moved by (`Σ |scheduled − natural|`).
    pub deferral_latency_secs: u64,
    /// Hour-granular slot accounting on trained days: hours covered by
    /// a predicted active slot.
    pub slot_hours_predicted: u64,
    /// Hours with actual screen-on activity (ground truth).
    pub slot_hours_active: u64,
    /// Hours both predicted and actually active (true positives);
    /// slot-precision = overlap/predicted, slot-recall = overlap/active.
    pub slot_hours_overlap: u64,
}

/// The NetMaster middleware as a policy.
///
/// Mining state lives in an [`IncrementalMiner`]: absorbing a day is
/// `O(day)` instead of re-deriving every statistic from a clone of the
/// full history, and daily planning reuses one
/// [`netmaster_knapsack::OvScratch`] — checked out of a per-thread
/// pool, so fleet workers recycle solver tables across short-lived
/// member policies — so the solver's tables and the knapsack instance's
/// buffers are not reallocated per day. Planning allocates its results
/// every day: the network prediction's per-app list, the slot list, the
/// solution's three vectors, the routing table and the `DayPlan`'s
/// executions, plus the copy of the day kept for drift resets.
/// `tests/alloc_budget.rs` reads 16.9 allocations per metrics-only
/// `plan_day` and 22.6 per recorder-on `MiddlewareService::run_day`
/// over the panel's third week (58.2 and 64.0 before the routing table
/// went flat).
///
/// What a policy retains as days pass:
/// - the last two [`DayTrace`]s, verbatim, for habit-drift resets;
/// - the miner's per-day history: one 24-hour interaction-count row and
///   one habit-stability point per observed day (about 200 B a day, so
///   memory still grows with the days the policy has run);
/// - the monitor's write-cache model, which is a fixed set of counts;
/// - the journal and flight-recorder rings, bounded by capacity.
pub struct NetMasterPolicy {
    cfg: NetMasterConfig,
    decision: DecisionMaker,
    /// Incrementally-maintained mining statistics over observed days.
    miner: IncrementalMiner,
    /// The freshest two days, kept verbatim for drift resets.
    recent: VecDeque<DayTrace>,
    /// Reusable knapsack solver state, recycled through a per-thread
    /// pool so short-lived policies (fleet members) skip the warm-up
    /// allocations.
    scratch: PooledOvScratch,
    monitor: Monitor,
    stats: NetMasterStats,
    /// Decision-audit journal (bounded ring; see [`netmaster_obs`]).
    journal: Journal,
    /// Causal flight recorder: one lifecycle record per planned
    /// activity (bounded ring; see [`netmaster_obs::tracectx`]).
    ledger: TraceLedger,
    /// Flight-recorder detail level: `true` records journal events,
    /// lifecycle traces, and plan explanations; `false` runs
    /// metrics-only (counters, histograms, spans).
    flight_recorder: bool,
    /// Planning buffers reused from day to day.
    day_scratch: DayScratch,
}

/// Buffers `plan_day` reuses from day to day. They stop allocating
/// once grown; what a planned day still allocates is its results (see
/// [`NetMasterPolicy`]), the flight recorder's lifecycle records when it
/// is on, and the copy of the day kept for drift resets. The knapsack
/// instance [`DecisionMaker::plan_day_with`] builds lives in the solver
/// scratch.
#[derive(Debug, Default)]
struct DayScratch {
    /// Whether the screen was on at each activity's start, by activity
    /// index: the day's one [`DayTrace::activity_screen_states`] walk,
    /// read by the ledger records, the routing loop, the monitor and
    /// the miner.
    screen_on: Vec<bool>,
    /// Per-slot placement cursors: forward from slot start for deferred
    /// demands, backward from slot end for prefetches.
    fwd: Vec<u64>,
    back: Vec<u64>,
    /// Demands handed to the duty-cycle layer: `(arrival, activity
    /// index)`, sorted before the window walk.
    duty_pending: Vec<(Timestamp, usize)>,
    /// Arrival instants of one window's pending demands.
    arrivals: Vec<Timestamp>,
    /// One window's duty-cycle outcome.
    outcome: DutyOutcome,
    /// When each of the day's activities ran, by activity index: what
    /// the middleware service prices the planned arm from.
    executed: Vec<Timestamp>,
}

impl DayScratch {
    /// Walks `day`'s screen states into `screen_on`.
    fn walk_screen_states(&mut self, day: &DayTrace) {
        day.activity_screen_states_into(&mut self.screen_on);
    }
}

impl NetMasterPolicy {
    /// New untrained policy; it will learn online as days pass.
    pub fn new(cfg: NetMasterConfig, link: LinkModel, radio: RrcModel) -> Self {
        NetMasterPolicy {
            decision: DecisionMaker::new(cfg, link, radio),
            cfg,
            miner: IncrementalMiner::new(),
            recent: VecDeque::with_capacity(3),
            scratch: PooledOvScratch::take(),
            monitor: Monitor::new(),
            stats: NetMasterStats::default(),
            journal: Journal::new(),
            ledger: TraceLedger::new(),
            flight_recorder: true,
            day_scratch: DayScratch::default(),
        }
    }

    /// Pre-seeds training history (the paper trains on prior weeks of
    /// monitoring data before evaluation).
    pub fn with_training(mut self, days: &[DayTrace]) -> Self {
        for d in days {
            self.day_scratch.walk_screen_states(d);
            self.learn(d);
        }
        self
    }

    /// Sets the flight-recorder detail level. `true` (the default)
    /// records the full causal chain per activity — journal why-events,
    /// lifecycle traces, plan explanations — for `netmaster explain`
    /// and the middleware service's energy ledger. `false` runs
    /// **metrics-only**: counters, histograms, and stage spans still
    /// flow, but per-activity recording is skipped entirely. Fleet
    /// deployments run metrics-only — nobody drains a thousand
    /// per-member rings, and the recording working set would evict
    /// cache the domain pipeline needs; deep recording is a per-device
    /// diagnostic you opt into.
    pub fn with_flight_recorder(mut self, on: bool) -> Self {
        self.flight_recorder = on;
        self.decision.record_why = on;
        self.journal.set_muted(!on);
        self
    }

    /// Run diagnostics.
    pub fn stats(&self) -> NetMasterStats {
        self.stats
    }

    /// The monitoring component (flush counts, record counts).
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The decision-audit journal (typed why-events per day).
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Mutable journal access, for layers above the policy (the
    /// middleware service stamps day-completion events here).
    pub fn journal_mut(&mut self) -> &mut Journal {
        &mut self.journal
    }

    /// Takes every buffered journal entry, oldest first.
    pub fn drain_journal(&mut self) -> Vec<JournalEntry> {
        self.journal.drain()
    }

    /// The causal flight recorder (per-activity lifecycle records).
    pub fn ledger(&self) -> &TraceLedger {
        &self.ledger
    }

    /// Mutable ledger access, for the middleware service's lazy energy
    /// apportionment pass.
    pub fn ledger_mut(&mut self) -> &mut TraceLedger {
        &mut self.ledger
    }

    /// Takes every buffered lifecycle record, oldest first.
    pub fn drain_ledger(&mut self) -> Vec<obs::ActivityTrace> {
        self.ledger.drain()
    }

    /// The radio spans of the last planned day's executions, one per
    /// activity of `day` in activity order: the multiset of
    /// `plan.executions`' spans, indexed like the day's ledger records.
    /// Kept whether or not the flight recorder is on; `day` must be the
    /// day last passed to `plan_day`.
    pub fn executed_spans<'a>(&'a self, day: &'a DayTrace) -> impl Iterator<Item = Interval> + 'a {
        debug_assert_eq!(self.day_scratch.executed.len(), day.activities.len());
        day.activities
            .iter()
            .zip(&self.day_scratch.executed)
            .map(|(a, &at)| Interval::new(at, at + a.duration.max(1)))
    }

    /// Whether enough history exists to trust predictions.
    pub fn trained(&self) -> bool {
        self.miner.num_days() >= self.cfg.min_training_days
    }

    /// Absorbs `day`, whose screen states `day_scratch.screen_on` holds.
    fn learn(&mut self, day: &DayTrace) {
        let _mine_span = obs::span!("mine");
        let screen_on = &self.day_scratch.screen_on;
        self.monitor.observe_day_with(day, screen_on);
        self.miner.push_day_with(day, screen_on);
        // lint:allow(hot-path-alloc) the two freshest days are kept verbatim for drift resets; recycling the dropped day's buffers raised peak heap
        self.recent.push_back(day.clone());
        while self.recent.len() > 2 {
            self.recent.pop_front();
        }
        // Habit-drift reaction: if the freshest days correlate far
        // below the user's established pattern, the schedule changed —
        // drop the stale prefix so tomorrow's predictions come from the
        // new life, not the average of two.
        if self.cfg.drift_reset && self.miner.num_days() > self.cfg.min_training_days + 3 {
            let last = self.miner.num_days() - 1;
            let (mut today, mut yesterday) = (false, false);
            for d in drift_points(self.miner.stability_series(), 0.3) {
                today |= d == last;
                yesterday |= d == last - 1;
            }
            // Two consecutive drift days ending today ⇒ a real break,
            // not one scattered day.
            if today && yesterday {
                self.remine_from_recent();
            }
        }
    }

    /// Discards the learned aggregate and re-mines from the retained
    /// fresh days — the drift-reaction hook. Called internally when the
    /// stability-based reset trips, and externally by the watchtower
    /// when an online drift detector fires on a watched metric. The
    /// policy becomes untrained until enough new days accumulate (it
    /// duty-cycles meanwhile), then predicts from the new life only.
    pub fn remine_from_recent(&mut self) {
        self.miner = IncrementalMiner::rebuilt_from(&self.recent);
        self.stats.drift_resets += 1;
        obs::counter!(obs::names::MINING_DRIFT_RESETS_TOTAL);
    }

    fn build_routing(&mut self, day: usize) -> DayRouting {
        if !self.trained() {
            return DayRouting::duty_only(day);
        }
        let (active, network) = {
            let _predict_span = obs::span!("predict");
            (
                self.miner
                    .predict_confident(self.cfg.prediction, self.cfg.prediction_bound, 1.96),
                self.miner.network_prediction(),
            )
        };
        self.decision
            .plan_day_with(day, &active, &network, &mut self.scratch)
    }

    /// Screen-off windows of a day (gaps around sessions).
    fn screen_off_windows(day: &DayTrace) -> impl Iterator<Item = Interval> + '_ {
        let span = day.span();
        let mut cursor = span.start;
        // The gap before each session, then the gap before the day ends.
        (0..=day.sessions.len()).filter_map(move |i| {
            let (on, off) = day
                .sessions
                .get(i)
                .map_or((span.end, span.end), |s| (s.start, s.end));
            let gap = (on > cursor).then(|| Interval::new(cursor, on));
            cursor = off;
            gap
        })
    }

    /// Duty-cycles the day's screen-off windows, serving each demand in
    /// `scratch.duty_pending` (sorted) at a wake-up of the window it
    /// arrived in, and appends the executions to `plan`.
    // lint:hot-path
    fn duty_cycle_windows(
        &mut self,
        day: &DayTrace,
        scratch: &mut DayScratch,
        plan: &mut DayPlan,
        traces: &mut [obs::ActivityTrace],
        record_traces: bool,
    ) {
        let _duty_span = obs::span!("dutycycle");
        // Continue doubling across served wake-ups: a served background
        // sync is not evidence more traffic is imminent, and the paper's
        // reset-to-T rule would chase every sync with a burst of short
        // sleeps (see the `ablation_dutycycle` bench).
        let scheme = SleepScheme::Exponential {
            initial: self.cfg.duty_initial_sleep,
            reset_on_serve: false,
        };
        let DayScratch {
            duty_pending,
            arrivals,
            outcome,
            executed,
            ..
        } = scratch;
        let (mut wakeups, mut empty_wakeups) = (0u64, 0u64);
        // The pending list is sorted by arrival, so each window's demands
        // are one contiguous run, `duty_pending[lo..hi]`. Windows come in
        // time order when the sessions do, so `lo` only moves forward;
        // a window that starts before the previous one (unsorted
        // sessions) re-seeks it by binary search.
        let (mut lo, mut prev_start) = (0, 0);
        for window in Self::screen_off_windows(day) {
            if window.start < prev_start {
                lo = duty_pending.partition_point(|&(t, _)| t < window.start);
            }
            prev_start = window.start;
            while duty_pending.get(lo).is_some_and(|&(t, _)| t < window.start) {
                lo += 1;
            }
            let mut hi = lo;
            while duty_pending.get(hi).is_some_and(|&(t, _)| t < window.end) {
                hi += 1;
            }
            // Short gaps between sessions skip duty cycling: the screen
            // returns soon enough that pending demands just flush at the
            // window edge, and empty wake-ups would only burn energy. A
            // short gap with nothing pending has nothing to do.
            let short = window.len() < self.cfg.duty_min_window;
            if short && lo == hi {
                continue;
            }
            let in_window = &duty_pending[lo..hi];
            arrivals.clear();
            arrivals.extend(in_window.iter().map(|&(t, _)| t));
            if short {
                run_window_into(scheme, Interval::empty_at(window.start), &[], outcome);
                outcome.flush(arrivals, window.end);
            } else {
                run_window_into(scheme, window, arrivals, outcome);
            }
            plan.empty_wakeups += outcome.empty_wakeups;
            wakeups += outcome.wakeups.len() as u64;
            empty_wakeups += outcome.empty_wakeups;
            if !arrivals.is_empty() || !outcome.wakeups.is_empty() {
                let (n_arrivals, n_wakeups, n_empty, n_served) = (
                    arrivals.len() as u64,
                    outcome.wakeups.len() as u64,
                    outcome.empty_wakeups,
                    outcome.served.len() as u64,
                );
                self.journal.emit(|| DecisionEvent::DutyCycleFallback {
                    day: day.day,
                    window_start: window.start,
                    arrivals: n_arrivals,
                    wakeups: n_wakeups,
                    empty_wakeups: n_empty,
                    served: n_served,
                });
            }
            // Demands served at the same instant run back-to-back, not
            // in parallel — stagger so active time is counted honestly.
            // Service instants never decrease within a window, so one
            // running offset per instant suffices.
            let (mut instant, mut off) = (None, 0);
            for &(arr_idx, served_at) in &outcome.served {
                let orig_idx = in_window[arr_idx].1;
                let demand = &day.activities[orig_idx];
                if instant != Some(served_at) {
                    debug_assert!(instant < Some(served_at), "service instants decreased");
                    instant = Some(served_at);
                    off = 0;
                }
                let at = served_at + off;
                off += demand.duration.max(1);
                executed[orig_idx] = at;
                if at == demand.start {
                    plan.executions.push(Execution::natural(demand));
                } else {
                    plan.executions.push(Execution::moved(demand, at));
                }
                if record_traces {
                    traces[orig_idx].outcome = if at == demand.start {
                        obs::Outcome::Natural
                    } else {
                        obs::Outcome::DutyServed
                    };
                    traces[orig_idx].executed_at = at;
                    traces[orig_idx].latency_secs = at.abs_diff(demand.start);
                }
                obs::observe!(
                    obs::names::DUTY_SERVICE_LATENCY_SECONDS,
                    at.abs_diff(demand.start) as f64
                );
                self.stats.duty_served += 1;
            }
        }
        obs::counter!(obs::names::DUTY_WAKEUPS_TOTAL, wakeups);
        obs::counter!(obs::names::DUTY_EMPTY_WAKEUPS_TOTAL, empty_wakeups);
    }
}

impl Policy for NetMasterPolicy {
    fn name(&self) -> String {
        "netmaster".into()
    }

    fn tail_policy(&self) -> TailPolicy {
        // The scheduling component flips the data radio off as soon as
        // a transfer batch completes (`svc data disable`, §V-C2).
        TailPolicy::Immediate
    }

    // lint:hot-path
    fn plan_day(&mut self, day: &DayTrace) -> DayPlan {
        let _plan_span = obs::span!("plan_day");
        obs::span_attr!("day", day.day);
        let stats_before = self.stats;
        let routing = self.build_routing(day.day);
        let trained = self.trained();
        if trained {
            self.stats.trained_days += 1;
        } else {
            self.stats.untrained_days += 1;
        }
        for (si, s) in routing.slots.iter().enumerate() {
            let (start, end) = (s.start, s.end);
            self.journal.emit(|| DecisionEvent::SlotPredicted {
                day: day.day,
                slot: si,
                start,
                end,
            });
        }
        // Hour-granular slot accounting (trained days): how well the
        // predicted active slots cover the hours the user actually
        // shows up in. Precision/recall here are the *per-slot* view of
        // prediction quality; the hit/miss counters below are the
        // *per-activity* view (see [`NetMasterStats`]).
        if trained {
            let mut predicted = [false; 24];
            for s in &routing.slots {
                let (h0, h1) = (hour_of(s.start), hour_of(s.end.saturating_sub(1)));
                for p in predicted.iter_mut().take(h1 + 1).skip(h0) {
                    *p = true;
                }
            }
            let mut active = [false; 24];
            for sess in &day.sessions {
                let (h0, h1) = (hour_of(sess.start), hour_of(sess.end.saturating_sub(1)));
                for a in active.iter_mut().take(h1 + 1).skip(h0) {
                    *a = true;
                }
            }
            for h in 0..24 {
                self.stats.slot_hours_predicted += predicted[h] as u64;
                self.stats.slot_hours_active += active[h] as u64;
                self.stats.slot_hours_overlap += (predicted[h] && active[h]) as u64;
            }
        }

        let mut scratch = std::mem::take(&mut self.day_scratch);
        scratch.walk_screen_states(day);

        // Flight recorder: one causal lifecycle record per activity,
        // built in lockstep with the decisions below, finalized by the
        // duty-cycle loop, and handed to the ledger at the end of the
        // day as that day's chunk. Screen-on/Natural is the default;
        // branches overwrite.
        let record_traces = self.flight_recorder && obs::runtime_enabled();
        let n_traces = if record_traces {
            day.activities.len()
        } else {
            0
        };
        // lint:allow(hot-path-alloc) the day's lifecycle records are the ledger's chunk for the day (flight recorder only)
        let mut traces = Vec::with_capacity(n_traces);
        if record_traces {
            traces.extend(
                day.activities
                    .iter()
                    .zip(&scratch.screen_on)
                    .enumerate()
                    .map(|(idx, (a, &screen_on))| obs::ActivityTrace {
                        trace_id: TraceId::new(day.day, idx).raw(),
                        day: day.day,
                        app: a.app.0,
                        natural_start: a.start,
                        duration: a.duration,
                        bytes: a.bytes_down + a.bytes_up,
                        screen_on,
                        plan: obs::PlanReason::ScreenOn,
                        outcome: obs::Outcome::Natural,
                        executed_at: a.start,
                        latency_secs: 0,
                        energy: None,
                    }),
            );
        }

        // Trained-prediction misses: demands that still fell to the
        // duty-cycle layer despite a usable routing.
        let mut misses: u64 = 0;

        let mut plan = DayPlan {
            // lint:allow(hot-path-alloc) DayPlan::executions is the caller-owned result value
            executions: Vec::with_capacity(day.activities.len()),
            ..DayPlan::default()
        };
        scratch.fwd.clear();
        scratch.fwd.resize(routing.slots.len(), 0);
        scratch.back.clear();
        scratch.back.resize(routing.slots.len(), 0);
        scratch.duty_pending.clear();
        scratch.executed.clear();
        scratch
            .executed
            .extend(day.activities.iter().map(|a| a.start));
        let mut hour_seq = [0usize; 24];

        for (idx, (a, &screen_on)) in day.activities.iter().zip(&scratch.screen_on).enumerate() {
            if screen_on {
                // Foreground / screen-on: the radio is up with the user.
                plan.executions.push(Execution::natural(a));
                continue;
            }
            let h = hour_of(a.start);
            let k = hour_seq[h];
            hour_seq[h] += 1;
            match routing.disposition(h, k) {
                d @ (Disposition::DeferTo { slot } | Disposition::PrefetchIn { slot }) => {
                    // A deferred demand fills its slot from the start, a
                    // prefetched one from the end.
                    let prefetch = matches!(d, Disposition::PrefetchIn { .. });
                    let s = routing.slots[slot];
                    let dur = a.duration.max(1);
                    let at = if prefetch {
                        self.stats.prefetched += 1;
                        scratch.back[slot] += dur;
                        s.end.saturating_sub(scratch.back[slot]).max(s.start)
                    } else {
                        self.stats.deferred += 1;
                        let at = (s.start + scratch.fwd[slot]).min(s.end.saturating_sub(1));
                        scratch.fwd[slot] += dur;
                        at
                    };
                    plan.executions.push(Execution::moved(a, at));
                    scratch.executed[idx] = at;
                    let from = a.start;
                    let latency_secs = at.abs_diff(from);
                    self.stats.deferral_latency_secs += latency_secs;
                    if record_traces {
                        // No reason only when observability was switched
                        // on between planning and recording.
                        traces[idx].plan =
                            routing.why_for(h, k).unwrap_or(obs::PlanReason::Assigned {
                                slot,
                                profit: 0.0,
                                weight: 0,
                                runner_up_slot: None,
                                runner_up_profit: 0.0,
                                prefetch,
                                solver: None,
                            });
                        traces[idx].outcome = if prefetch {
                            obs::Outcome::Prefetched { slot }
                        } else {
                            obs::Outcome::Deferred { slot }
                        };
                        traces[idx].executed_at = at;
                        traces[idx].latency_secs = latency_secs;
                    }
                    self.journal.emit(|| DecisionEvent::ActivityScheduled {
                        day: day.day,
                        hour: h,
                        slot,
                        prefetch,
                    });
                    self.journal.emit(|| DecisionEvent::DeferralExecuted {
                        day: day.day,
                        from,
                        to: at,
                        latency_secs,
                    });
                    obs::observe!(obs::names::DEFERRAL_LATENCY_SECONDS, latency_secs as f64);
                }
                d @ (Disposition::Immediate | Disposition::DutyCycle) => {
                    // Either the plan left the demand to the duty-cycle
                    // layer, or it arrived in a predicted active hour
                    // with the screen off: the real-time layer still
                    // keeps the radio down ("turning off the radio in
                    // the user active slots timely", §IV-C2) and the
                    // demand rides the next screen-on or duty wake-up —
                    // which is imminent, since the user is predicted to
                    // be around.
                    scratch.duty_pending.push((a.start, idx));
                    if record_traces {
                        traces[idx].plan = match d {
                            Disposition::Immediate => obs::PlanReason::InActiveSlot,
                            // No routing entry at all for this hour: the
                            // miner predicted no schedulable demand here,
                            // so no candidate existed.
                            _ if trained => {
                                routing.why_for(h, k).unwrap_or(obs::PlanReason::Rejected {
                                    reason: obs::RejectReason::NoCandidate,
                                })
                            }
                            _ => obs::PlanReason::Untrained,
                        };
                    }
                    if trained {
                        misses += 1;
                        self.journal.emit(|| DecisionEvent::PredictionMiss {
                            day: day.day,
                            hour: h,
                        });
                    }
                }
            }
        }

        // Real-time adjustment: duty-cycle the screen-off windows,
        // serving the pending demands at wake-ups.
        scratch.duty_pending.sort_unstable();
        self.duty_cycle_windows(day, &mut scratch, &mut plan, &mut traces, record_traces);
        self.day_scratch = scratch;

        // User-experience accounting: an interaction that needs the
        // network while the radio is blocked is a wrong decision unless
        // the foreground app is Special (then the adjustment layer
        // powers the radio preemptively) or the hour is a predicted
        // active slot (radio planned-on).
        for i in &day.interactions {
            if !i.needs_network || routing.in_active_slot(i.at) {
                continue;
            }
            if self.cfg.track_special_apps && self.miner.special_apps().is_special(i.app) {
                obs::counter!(obs::names::SPECIAL_PASSTHROUGH_TOTAL);
                let (app, at) = (i.app.0, i.at);
                self.journal.emit(|| DecisionEvent::SpecialAppPassthrough {
                    day: day.day,
                    app,
                    at,
                });
            } else {
                plan.affected_interactions += 1;
                self.stats.wrong_decisions += 1;
                let at = i.at;
                self.journal
                    .emit(|| DecisionEvent::WrongDecision { day: day.day, at });
            }
        }

        // The monitoring component records today for tomorrow's mining.
        self.stats.prediction_misses += misses;
        self.learn(day);

        // Hand today's lifecycle records to the flight recorder as one
        // chunk (the service prices them in place, off the simulation
        // hot path).
        self.ledger.record_day(traces);

        // Batched telemetry: one relaxed atomic add per counter per day
        // (the per-demand hot loop above only touches the journal).
        let d = self.stats;
        obs::counter!(
            obs::names::SCHED_DEFERRED_TOTAL,
            d.deferred - stats_before.deferred
        );
        obs::counter!(
            obs::names::SCHED_PREFETCHED_TOTAL,
            d.prefetched - stats_before.prefetched
        );
        obs::counter!(
            obs::names::SCHED_DUTY_SERVED_TOTAL,
            d.duty_served - stats_before.duty_served
        );
        obs::counter!(
            obs::names::SCHED_WRONG_DECISIONS_TOTAL,
            d.wrong_decisions - stats_before.wrong_decisions
        );
        obs::counter!(
            obs::names::PREDICTION_HITS_TOTAL,
            (d.deferred - stats_before.deferred) + (d.prefetched - stats_before.prefetched)
        );
        obs::counter!(obs::names::PREDICTION_MISSES_TOTAL, misses);
        obs::counter!(
            obs::names::SLOT_HOURS_PREDICTED_TOTAL,
            d.slot_hours_predicted - stats_before.slot_hours_predicted
        );
        obs::counter!(
            obs::names::SLOT_HOURS_ACTIVE_TOTAL,
            d.slot_hours_active - stats_before.slot_hours_active
        );
        obs::counter!(
            obs::names::SLOT_HOURS_OVERLAP_TOTAL,
            d.slot_hours_overlap - stats_before.slot_hours_overlap
        );
        if trained {
            obs::counter!(obs::names::POLICY_DAYS_TRAINED_TOTAL);
        } else {
            obs::counter!(obs::names::POLICY_DAYS_UNTRAINED_TOTAL);
        }
        plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_sim::{simulate, DefaultPolicy, SimConfig};
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;

    fn volunteer_trace(days: usize) -> netmaster_trace::trace::Trace {
        TraceGenerator::new(UserProfile::volunteers().remove(0))
            .with_seed(99)
            .generate(days)
    }

    fn policy() -> NetMasterPolicy {
        NetMasterPolicy::new(
            NetMasterConfig::default(),
            LinkModel::default(),
            RrcModel::wcdma_default(),
        )
    }

    #[test]
    fn untrained_policy_duty_cycles_everything() {
        let trace = volunteer_trace(1);
        let mut p = policy();
        assert!(!p.trained());
        let plan = p.plan_day(&trace.days[0]);
        // All demands still execute (served by duty cycle or natural).
        assert_eq!(plan.executions.len(), trace.days[0].activities.len());
        assert_eq!(p.stats().untrained_days, 1);
        assert_eq!(p.stats().deferred + p.stats().prefetched, 0);
    }

    #[test]
    fn training_enables_scheduling() {
        let trace = volunteer_trace(17);
        let mut p = policy().with_training(&trace.days[..14]);
        assert!(p.trained());
        for d in &trace.days[14..] {
            let _ = p.plan_day(d);
        }
        let s = p.stats();
        assert_eq!(s.trained_days, 3);
        assert!(
            s.deferred + s.prefetched > 10,
            "trained NetMaster should reschedule screen-off demands: {s:?}"
        );
    }

    #[test]
    fn no_demand_is_lost() {
        let trace = volunteer_trace(18);
        let mut p = policy().with_training(&trace.days[..14]);
        for d in &trace.days[14..] {
            let plan = p.plan_day(d);
            assert_eq!(
                plan.executions.len(),
                d.activities.len(),
                "every demand must execute exactly once on day {}",
                d.day
            );
            let planned: (u64, u64) = plan.total_bytes();
            let expected: (u64, u64) = d
                .activities
                .iter()
                .fold((0, 0), |(x, y), a| (x + a.bytes_down, y + a.bytes_up));
            assert_eq!(planned, expected, "bytes preserved");
        }
    }

    #[test]
    fn netmaster_saves_energy_vs_default() {
        let trace = volunteer_trace(21);
        let cfg = SimConfig::default();
        let test_days = &trace.days[14..];
        let base = simulate(test_days, &mut DefaultPolicy, &cfg);
        let mut nm = policy().with_training(&trace.days[..14]);
        let m = simulate(test_days, &mut nm, &cfg);
        let saving = m.energy_saving_vs(&base);
        assert!(
            saving > 0.4,
            "NetMaster should save substantial energy, got {:.3} ({} vs {} J)",
            saving,
            m.energy_j,
            base.energy_j
        );
        assert!(m.radio_on_secs < base.radio_on_secs);
        assert!(m.avg_down_rate() > base.avg_down_rate());
    }

    #[test]
    fn user_experience_is_preserved() {
        let trace = volunteer_trace(21);
        let cfg = SimConfig::default();
        let mut nm = policy().with_training(&trace.days[..14]);
        let m = simulate(&trace.days[14..], &mut nm, &cfg);
        assert!(
            m.affected_fraction() < 0.01,
            "interrupt chance must stay under 1%: {:.4}",
            m.affected_fraction()
        );
    }

    #[test]
    fn tail_policy_is_immediate() {
        assert_eq!(policy().tail_policy(), TailPolicy::Immediate);
        assert_eq!(policy().name(), "netmaster");
    }

    #[test]
    fn screen_off_windows_cover_gaps() {
        let trace = volunteer_trace(1);
        let day = &trace.days[0];
        let windows: Vec<Interval> = NetMasterPolicy::screen_off_windows(day).collect();
        // Windows and sessions partition the day.
        let total: u64 = windows.iter().map(Interval::len).sum::<u64>() + day.screen_on_seconds();
        assert_eq!(total, SECS_PER_DAY);
        // No window overlaps a session.
        for w in &windows {
            for s in &day.sessions {
                assert!(!w.overlaps(&s.span()), "{w:?} vs {s:?}");
            }
        }
    }

    /// The window walk the cursor replaced, for the identity test: two
    /// binary searches per window, and every short window run through
    /// the duty cycle whether or not it holds a demand.
    fn duty_cycle_windows_by_search(
        p: &mut NetMasterPolicy,
        day: &DayTrace,
        scratch: &mut DayScratch,
        plan: &mut DayPlan,
    ) {
        let scheme = SleepScheme::Exponential {
            initial: p.cfg.duty_initial_sleep,
            reset_on_serve: false,
        };
        let DayScratch {
            duty_pending,
            arrivals,
            outcome,
            executed,
            ..
        } = scratch;
        for window in NetMasterPolicy::screen_off_windows(day) {
            let lo = duty_pending.partition_point(|&(t, _)| t < window.start);
            let hi = lo.max(duty_pending.partition_point(|&(t, _)| t < window.end));
            let in_window = &duty_pending[lo..hi];
            arrivals.clear();
            arrivals.extend(in_window.iter().map(|&(t, _)| t));
            if window.len() < p.cfg.duty_min_window {
                run_window_into(scheme, Interval::empty_at(window.start), &[], outcome);
                outcome.flush(arrivals, window.end);
            } else {
                run_window_into(scheme, window, arrivals, outcome);
            }
            plan.empty_wakeups += outcome.empty_wakeups;
            if !arrivals.is_empty() || !outcome.wakeups.is_empty() {
                let (n_arrivals, n_wakeups, n_empty, n_served) = (
                    arrivals.len() as u64,
                    outcome.wakeups.len() as u64,
                    outcome.empty_wakeups,
                    outcome.served.len() as u64,
                );
                p.journal.emit(|| DecisionEvent::DutyCycleFallback {
                    day: day.day,
                    window_start: window.start,
                    arrivals: n_arrivals,
                    wakeups: n_wakeups,
                    empty_wakeups: n_empty,
                    served: n_served,
                });
            }
            let (mut instant, mut off) = (None, 0);
            for &(arr_idx, served_at) in &outcome.served {
                let orig_idx = in_window[arr_idx].1;
                let demand = &day.activities[orig_idx];
                if instant != Some(served_at) {
                    instant = Some(served_at);
                    off = 0;
                }
                let at = served_at + off;
                off += demand.duration.max(1);
                executed[orig_idx] = at;
                if at == demand.start {
                    plan.executions.push(Execution::natural(demand));
                } else {
                    plan.executions.push(Execution::moved(demand, at));
                }
                p.stats.duty_served += 1;
            }
        }
    }

    #[test]
    fn window_cursor_walk_matches_the_search_walk() {
        use netmaster_trace::event::{ActivityCause, AppId, NetworkActivity, ScreenSession};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2614);
        let (mut short_runs, mut long_runs, mut reseeks) = (0, 0, 0);
        for case in 0..300 {
            let mut day = DayTrace::new(case % 3);
            let span = day.span();
            // Sessions with gaps from a minute to a few hours, so the
            // day has windows on both sides of `duty_min_window`.
            let mut t = span.start + rng.random_range(0..3_000u64);
            while t < span.end - 600 {
                let len: u64 = rng.random_range(0..900);
                day.sessions.push(ScreenSession {
                    start: t,
                    end: (t + len).min(span.end),
                });
                t += len + rng.random_range(1..4 * 3_600u64);
            }
            // Unsorted sessions give windows that start before the
            // previous one.
            if case % 4 == 3 && day.sessions.len() > 2 {
                let i = rng.random_range(1..day.sessions.len());
                day.sessions.swap(0, i);
                reseeks += 1;
            }
            for _ in 0..rng.random_range(0..60) {
                day.activities.push(NetworkActivity {
                    start: rng.random_range(span.start..span.end),
                    duration: rng.random_range(0..40u64),
                    bytes_down: 1_000,
                    bytes_up: 0,
                    app: AppId(0),
                    cause: ActivityCause::Background,
                });
            }
            day.activities.sort_by_key(|a| a.start);
            let mut scratch = DayScratch::default();
            for (idx, a) in day.activities.iter().enumerate() {
                if rng.random_bool(0.6) {
                    scratch.duty_pending.push((a.start, idx));
                }
            }
            scratch.duty_pending.sort_unstable();
            scratch.executed = day.activities.iter().map(|a| a.start).collect();
            for w in NetMasterPolicy::screen_off_windows(&day) {
                let pending = scratch.duty_pending.iter().any(|&(t, _)| w.contains(t));
                if w.len() < NetMasterConfig::default().duty_min_window {
                    short_runs += pending as usize;
                } else {
                    long_runs += 1;
                }
            }

            let mut by_search = scratch_copy(&scratch);
            let (mut p, mut q) = (policy(), policy());
            let (mut plan, mut expected) = (DayPlan::default(), DayPlan::default());
            p.duty_cycle_windows(&day, &mut scratch, &mut plan, &mut [], false);
            duty_cycle_windows_by_search(&mut q, &day, &mut by_search, &mut expected);
            assert_eq!(plan, expected, "case {case}: {:?}", day.sessions);
            assert_eq!(scratch.executed, by_search.executed, "case {case}");
            assert_eq!(p.stats.duty_served, q.stats.duty_served, "case {case}");
            assert_eq!(p.drain_journal(), q.drain_journal(), "case {case}");
        }
        assert!(short_runs > 50 && long_runs > 300 && reseeks > 50);
    }

    fn scratch_copy(s: &DayScratch) -> DayScratch {
        DayScratch {
            duty_pending: s.duty_pending.clone(),
            executed: s.executed.clone(),
            ..DayScratch::default()
        }
    }

    #[test]
    fn monitor_records_while_policy_runs() {
        let trace = volunteer_trace(5);
        let mut p = policy();
        for d in &trace.days {
            let _ = p.plan_day(d);
        }
        assert!(
            p.monitor().db.len() > 100,
            "monitoring component must record"
        );
    }

    /// Golden decision-event sequence: a fixed seed must always
    /// produce the same journal, event for event. Catches silent
    /// changes to when/what the policy journals.
    #[test]
    fn journal_golden_sequence_is_stable() {
        let trace = volunteer_trace(16);
        let mut p = policy().with_training(&trace.days[..14]);
        for d in &trace.days[14..] {
            let _ = p.plan_day(d);
        }
        let entries = p.drain_journal();
        assert_eq!(entries.len(), 200, "golden event count");
        // Sequence numbers are contiguous from zero.
        for (i, e) in entries.iter().enumerate() {
            assert_eq!(e.seq, i as u64, "seq numbers must be contiguous");
        }
        // Golden per-kind totals for seed 99, days 14..16.
        let count = |k: &str| entries.iter().filter(|e| e.event.kind() == k).count();
        assert_eq!(count("SlotPredicted"), 4, "2 slots per planned day");
        assert_eq!(count("ActivityScheduled"), 38);
        assert_eq!(count("DeferralExecuted"), 38);
        assert_eq!(count("PredictionMiss"), 85);
        assert_eq!(count("DutyCycleFallback"), 34);
        assert_eq!(count("SpecialAppPassthrough"), 1);
        assert_eq!(count("WrongDecision"), 0);
        // Shape invariants: each day opens with its slot predictions,
        // and every deferral execution directly follows its schedule.
        assert_eq!(entries[0].event.kind(), "SlotPredicted");
        assert_eq!(entries[1].event.kind(), "SlotPredicted");
        assert_eq!(entries[2].event.kind(), "ActivityScheduled");
        for (i, e) in entries.iter().enumerate() {
            if e.event.kind() == "DeferralExecuted" {
                assert_eq!(
                    entries[i - 1].event.kind(),
                    "ActivityScheduled",
                    "deferral at seq {i} must follow its scheduling event"
                );
            }
        }
        assert_eq!(entries.last().unwrap().event.kind(), "DutyCycleFallback");
        // Re-running the same seed reproduces the identical journal.
        let mut q = policy().with_training(&trace.days[..14]);
        for d in &trace.days[14..] {
            let _ = q.plan_day(d);
        }
        let again = q.drain_journal();
        let kinds = |es: &[JournalEntry]| {
            es.iter()
                .map(|e| e.event.kind().to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(
            kinds(&entries),
            kinds(&again),
            "journal must be deterministic"
        );
    }
}
