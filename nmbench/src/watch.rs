//! `watch-drift`: the per-device service path.
//!
//! Set-up generates [`USERS`] traces of [`DAYS`] days (chronotype
//! `i % 8` of the panel, seed derived from the run seed); every other
//! user's daily rhythm rotates by twelve hours from day [`SHIFT_DAY`] on.
//! Each pass then drives, per user-day, `MiddlewareService::run_day`
//! (learning online from day 0, flight recorder on), drains the day's
//! ledger and journal, feeds `UserWatch::observe_day`, and calls
//! `trigger_remine` when a detector fires. Users fan out over
//! `par_map_indexed`'s workers.

use crate::layers::{check_counts, obs_shares, Counts, LayerTable, PerLayer, Shadow};
use crate::stats::{close, mean, mix, quantile, repeat_passes, setup_median, timed};
use crate::Outcome;
use netmaster_core::policies::NetMasterPolicy;
use netmaster_core::service::DayReport;
use netmaster_core::watchtower::{UserWatch, WatchConfig};
use netmaster_core::{MiddlewareService, NetMasterConfig};
use netmaster_obs::ActivityTrace;
use netmaster_radio::{apportion, LinkModel, RrcConfig, RrcModel, TailPolicy};
use netmaster_sim::par::default_parallelism;
use netmaster_sim::{par_map_indexed, Policy, RunMetrics, SimConfig};
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;
use netmaster_trace::time::Interval;
use netmaster_trace::trace::Trace;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Users per pass.
pub const USERS: usize = 32;
/// Days each user lives under the middleware.
pub const DAYS: usize = 56;
/// First day generated from the shifted rhythm (shifted users only).
pub const SHIFT_DAY: usize = 28;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;

fn shifted(user: usize) -> bool {
    user % 2 == 1
}

/// Rotates a profile's daily rhythm forward by `hours` (intensities and
/// per-app hourly affinities alike): the "took a night-shift job" change
/// the watchtower must catch.
fn rotate_rhythm(mut profile: UserProfile, hours: usize) -> UserProfile {
    profile.weekday_intensity.rotate_right(hours % 24);
    profile.weekend_intensity.rotate_right(hours % 24);
    for app in &mut profile.apps {
        app.hourly_affinity.rotate_right(hours % 24);
    }
    profile
}

/// Generates every user's trace; returns them with the seconds each
/// `TraceGenerator::generate` call took.
fn generate(seed: u64) -> (Vec<Trace>, Vec<f64>) {
    let panel = UserProfile::panel();
    let mut gen_secs = Vec::new();
    let traces = (0..USERS)
        .map(|i| {
            let profile = panel[i % panel.len()].clone();
            let user_seed = mix(seed, i as u64);
            let mut gen = |p: UserProfile| {
                let (t, s) = timed(|| TraceGenerator::new(p).with_seed(user_seed).generate(DAYS));
                gen_secs.push(s);
                t
            };
            let mut trace = gen(profile.clone());
            if shifted(i) {
                let alt = gen(rotate_rhythm(profile, 12));
                trace.days[SHIFT_DAY..].clone_from_slice(&alt.days[SHIFT_DAY..]);
            }
            trace
        })
        .collect();
    (traces, gen_secs)
}

fn setup(seed: u64) -> ((Vec<Trace>, Vec<f64>), f64) {
    setup_median(SETUP_REPEATS, || generate(seed))
}

/// One user's run through the service.
#[derive(Debug, Default)]
struct UserRun {
    reports: Vec<DayReport>,
    fired: Vec<usize>,
    run_day_ns: Vec<u64>,
    secs: f64,
    /// Days whose drained ledger broke energy conservation.
    unconserved: Vec<usize>,
}

impl UserRun {
    /// Lifetime saving over the run.
    fn saving(&self) -> f64 {
        let stock: f64 = self.reports.iter().map(|r| r.stock_energy_j).sum();
        let used: f64 = self.reports.iter().map(|r| r.energy_j).sum();
        1.0 - used / stock
    }

    /// Shifted days observed up to and including the first alarm after
    /// the shift.
    fn detect_days(&self) -> Option<usize> {
        self.fired
            .iter()
            .find(|&&d| d >= SHIFT_DAY)
            .map(|d| d - SHIFT_DAY + 1)
    }
}

/// The ledger conservation check: Σ `baseline_j` equals the day's stock
/// energy and Σ `actual_j` stays within the day's NetMaster energy (the
/// duty-cycle wake-ups are not apportioned to activities).
fn conserved(records: &[ActivityTrace], report: &DayReport) -> bool {
    let (mut base, mut actual) = (0.0, 0.0);
    for r in records {
        let Some(e) = r.energy else { return false };
        base += e.baseline_j;
        actual += e.actual_j;
    }
    close(base, report.stock_energy_j)
        && (actual <= report.energy_j || close(actual, report.energy_j))
}

fn run_user(trace: &Trace, user: usize, check_ledger: bool) -> UserRun {
    let start = Instant::now();
    let mut run = UserRun::default();
    let mut svc = MiddlewareService::new();
    let mut watch = UserWatch::new(user as u32, WatchConfig::default());
    for day in &trace.days {
        let t = Instant::now();
        let report = svc.run_day(day);
        run.run_day_ns.push(t.elapsed().as_nanos() as u64);
        let ledger = svc.drain_ledger();
        if check_ledger && !conserved(&ledger, &report) {
            run.unconserved.push(day.day);
        }
        if watch.observe_day(&report, svc.journal_mut()) {
            svc.trigger_remine();
            watch.note_remine();
            run.fired.push(day.day);
        }
        black_box(svc.drain_journal());
        run.reports.push(report);
    }
    run.secs = start.elapsed().as_secs_f64();
    run
}

/// One pass over every user; returns the runs, the program counters
/// the pass raised and its wall seconds.
fn pass(traces: &[Trace], check_ledger: bool) -> (Vec<UserRun>, Counts, f64) {
    let before = Counts::read();
    let (runs, secs) =
        timed(|| par_map_indexed(traces.len(), |i| run_user(&traces[i], i, check_ledger)));
    (runs, Counts::read().since(before), secs)
}

/// Checks a pass against the reference; counts failed user-days.
fn check_pass(
    out: &mut Outcome,
    (reference, ref_counts): &(Vec<UserRun>, Counts),
    (runs, counts): &(Vec<UserRun>, Counts),
) {
    if counts != ref_counts {
        out.fail(
            (USERS * DAYS) as u64,
            format!("program counters differ from the reference pass: {counts:?}"),
        );
    }
    for (i, (a, b)) in runs.iter().zip(reference).enumerate() {
        let differing = a
            .reports
            .iter()
            .zip(&b.reports)
            .filter(|(x, y)| x != y)
            .count()
            + a.reports.len().abs_diff(b.reports.len());
        if differing > 0 || a.fired != b.fired {
            out.fail(
                differing.max(1) as u64,
                format!("user {i} differs from the reference pass"),
            );
        }
    }
}

/// Checks that hold within one pass; counts failed user-days.
fn check_runs(out: &mut Outcome, runs: &[UserRun]) {
    for (i, r) in runs.iter().enumerate() {
        if !r.unconserved.is_empty() {
            out.fail(
                r.unconserved.len() as u64,
                format!(
                    "user {i}: ledger energy not conserved on days {:?}",
                    r.unconserved
                ),
            );
        }
        if !(r.saving().is_finite() && r.saving() <= 1.0) {
            out.fail(
                DAYS as u64,
                format!("user {i}: saving {} out of range", r.saving()),
            );
        }
    }
}

/// Detection over shifted users: the share that alarmed on or after the
/// shift, the mean days to detection over those, and the users missed.
/// A miss is a property of the statistical detectors, reported rather
/// than counted as a failed operation.
fn drift_detection(runs: &[UserRun]) -> (f64, f64, Vec<usize>) {
    let (mut days, mut missed) = (Vec::new(), Vec::new());
    for (i, r) in runs.iter().enumerate().filter(|(i, _)| shifted(*i)) {
        match r.detect_days() {
            Some(d) => days.push(d as f64),
            None => missed.push(i),
        }
    }
    let share = days.len() as f64 / (days.len() + missed.len()) as f64;
    (share, mean(&days), missed)
}

fn affected_max(traces: &[Trace], runs: &[UserRun]) -> f64 {
    traces
        .iter()
        .zip(runs)
        .map(|(t, r)| {
            let interactions: usize = t.days.iter().map(|d| d.interactions.len()).sum();
            let wrong: u64 = r.reports.iter().map(|d| d.wrong_decisions).sum();
            wrong as f64 / interactions.max(1) as f64
        })
        .fold(0.0, f64::max)
}

/// The untraced run: end-to-end metrics.
pub fn untraced(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let ((traces, _), setup_s) = setup(seed);
    let passes = repeat_passes(
        &mut out,
        budget,
        (USERS * DAYS) as u64,
        |out| {
            let (runs, counts, secs) = pass(&traces, true);
            check_runs(out, &runs);
            let lat_ms = runs
                .iter()
                .flat_map(|r| r.run_day_ns.iter().map(|&ns| ns as f64 * 1e-6))
                .collect();
            ((runs, counts), secs, lat_ms)
        },
        check_pass,
    );
    let (runs, counts) = &passes.reference;
    let savings: Vec<f64> = runs.iter().map(UserRun::saving).collect();
    let (detected, detect_days, missed) = drift_detection(runs);
    println!(
        "watch-drift: {} of {USERS} users x {DAYS} days on {} workers; {:.1}% of shifted \
         users alarmed, after {:.3} shifted days on average (missed: {missed:?}); {} re-mines; {}",
        passes.describe(),
        default_parallelism().min(USERS),
        100.0 * detected,
        detect_days,
        runs.iter().map(|r| r.fired.len()).sum::<usize>(),
        counts.describe()
    );
    out.push("members_per_s", passes.rate() / DAYS as f64, "1/s");
    out.push("user_days_per_s", passes.rate(), "1/s");
    out.push("run_day_ms_p50", passes.p50_ms, "ms");
    out.push("run_day_ms_p90", passes.p90_ms, "ms");
    out.push("saving_mean", mean(&savings), "ratio");
    out.push(
        "saving_min",
        savings.iter().copied().fold(f64::INFINITY, f64::min),
        "ratio",
    );
    out.push("peak_heap_mb", passes.peak_heap_mb, "MiB");
    out.push("setup_s", setup_s, "s");
    out
}

/// Per-call samples of the traced replay.
#[derive(Default)]
struct Traced {
    run_day: Vec<f64>,
    run_day_self: Vec<f64>,
    stock: Vec<f64>,
    plan_day: Vec<f64>,
    plan_day_self: Vec<f64>,
    account: Vec<f64>,
    apportion: Vec<f64>,
    observe: Vec<f64>,
    journal_entries: u64,
    ledger_records: u64,
    remines: u64,
}

fn stock_model() -> RrcModel {
    RrcModel {
        config: RrcConfig::wcdma(),
        tail_policy: TailPolicy::Full,
    }
}

/// `apportion` on the day's planned and stock spans from the drained
/// ledger, as the service prices its flight recorder.
fn apportion_probe(records: &[ActivityTrace], planned_tail: TailPolicy) -> usize {
    let spans = |at: fn(&ActivityTrace) -> u64| -> Vec<(u64, Interval)> {
        records
            .iter()
            .map(|r| (r.trace_id, Interval::new(at(r), at(r) + r.duration.max(1))))
            .collect()
    };
    let planned = RrcModel {
        config: RrcConfig::wcdma(),
        tail_policy: planned_tail,
    };
    let actual = apportion(&planned, &spans(|r| r.executed_at));
    let baseline = apportion(&stock_model(), &spans(|r| r.natural_start));
    actual.len() + baseline.len()
}

/// One traced user-day: the accounted `run_day` call, its outputs, and
/// the probes taken beside it.
struct DayProbe {
    report: DayReport,
    ledger: Vec<ActivityTrace>,
    run_secs: f64,
    stock: RunMetrics,
    stock_secs: f64,
    apportion_secs: f64,
}

/// One day of [`replica_days`].
struct ReplicaDay {
    plan_secs: f64,
    account_secs: f64,
    energy_j: f64,
}

/// The probe of `run_day`'s `plan_day` + `account`: a replica of the
/// service's policy, fed the user's days and re-mined after the days in
/// `remine_after` as the service was. Per day, the seconds of each call
/// and the energy they give.
fn replica_days(trace: &Trace, remine_after: &[usize], sim: &SimConfig) -> Vec<ReplicaDay> {
    let mut replica = NetMasterPolicy::new(
        NetMasterConfig::default(),
        LinkModel::default(),
        stock_model(),
    );
    trace
        .days
        .iter()
        .map(|day| {
            let (plan, plan_secs) = timed(|| replica.plan_day(day));
            let spans: Vec<Interval> = plan.executions.iter().map(|e| e.span()).collect();
            let radio = RrcModel {
                config: sim.radio.clone(),
                tail_policy: replica.tail_policy(),
            };
            let (rrc, account_secs) = timed(|| radio.account(&spans));
            replica.drain_journal();
            replica.drain_ledger();
            if remine_after.contains(&day.day) {
                replica.remine_from_recent();
            }
            ReplicaDay {
                plan_secs,
                account_secs,
                energy_j: rrc.total_j() + sim.duty.total_empty_j(&sim.radio, plan.empty_wakeups),
            }
        })
        .collect()
}

/// The traced run: per-layer metrics.
pub fn traced(seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let ((traces, gen_secs), _) = setup(seed);
    let activities: Vec<f64> = traces
        .iter()
        .map(|t| t.days.iter().map(|d| d.activities.len()).sum::<usize>() as f64)
        .collect();

    // Reference: one untraced pass, which also gives the workers' busy
    // share (per-user time summed over workers × wall).
    let (reference, ref_counts, ref_secs) = pass(&traces, true);
    check_runs(&mut out, &reference);
    out.attempted += (USERS * DAYS) as u64;
    let workers = default_parallelism().min(USERS) as f64;
    let busy_share = reference.iter().map(|r| r.secs).sum::<f64>() / (workers * ref_secs);

    // The traced serial replay.
    let sim = SimConfig::default();
    let mut table = LayerTable::start();
    let mut t = Traced::default();
    let mut shadow = Shadow::new(NetMasterConfig::default(), LinkModel::default(), true);
    for (i, trace) in traces.iter().enumerate() {
        // The user's own calls, back to back as in an untraced pass.
        let mut svc = MiddlewareService::new();
        let mut watch = UserWatch::new(i as u32, WatchConfig::default());
        let mut days = Vec::with_capacity(DAYS);
        let mut fired_days = Vec::new();
        for day in &trace.days {
            let (report, run_secs) = timed(|| svc.run_day(day));
            // Probes on inputs `run_day` just touched: its stock
            // counterfactual and its ledger apportionment.
            let (stock, stock_secs) = table.probe(|| svc.stock_counterfactual(day));
            let (ledger, drain_ledger) = timed(|| svc.drain_ledger());
            let (_, apportion_secs) =
                table.probe(|| apportion_probe(&ledger, svc.policy().tail_policy()));
            let (fired, observe_secs) = timed(|| watch.observe_day(&report, svc.journal_mut()));
            let mut remine_secs = 0.0;
            if fired {
                ((), remine_secs) = timed(|| {
                    svc.trigger_remine();
                    watch.note_remine();
                });
                fired_days.push(day.day);
            }
            let (journal, drain_journal) = timed(|| svc.drain_journal());
            t.journal_entries += journal.len() as u64;
            t.ledger_records += ledger.len() as u64;
            t.run_day.push(run_secs);
            t.observe.push(observe_secs);
            table.add("mining", remine_secs);
            table.add("core", observe_secs);
            table.add("obs", drain_ledger + drain_journal);
            days.push(DayProbe {
                report,
                ledger,
                run_secs,
                stock,
                stock_secs,
                apportion_secs,
            });
        }
        t.remines += fired_days.len() as u64;
        if fired_days != reference[i].fired {
            out.fail(
                1,
                format!("user {i}: traced alarms {fired_days:?} differ from untraced"),
            );
        }

        // The same user untraced, right after, for the tracing overhead.
        table.untraced(|| {
            black_box(run_user(trace, i, false));
        });

        // Stateful probes, after the user's own calls so they do not
        // disturb them: plan_day's mining/decide half, and plan_day +
        // account.
        let (steps, _) = table.probe(|| shadow.replay(&[], &trace.days, &fired_days).1);
        let (replica, _) = table.probe(|| replica_days(trace, &fired_days, &sim));
        for (d, ((probe, step), replica)) in days.iter().zip(&steps).zip(&replica).enumerate() {
            let DayProbe { report, .. } = probe;
            if replica.energy_j.to_bits() != report.energy_j.to_bits()
                || probe.stock.energy_j.to_bits() != report.stock_energy_j.to_bits()
            {
                out.fail(
                    1,
                    format!(
                        "user {i} day {d}: plan_day + account gives {} J (stock {} J), \
                         run_day reported {} J (stock {} J)",
                        replica.energy_j,
                        probe.stock.energy_j,
                        report.energy_j,
                        report.stock_energy_j
                    ),
                );
            }
            if !conserved(&probe.ledger, report) {
                out.fail(1, format!("user {i} day {d}: ledger energy not conserved"));
            }
            if reference[i].reports.get(d) != Some(report) {
                out.fail(
                    1,
                    format!("user {i} day {d}: traced report differs from untraced"),
                );
            }

            let inner = step.predict + step.decide + step.learn;
            let run_self = probe.run_secs
                - probe.stock_secs
                - replica.plan_secs
                - replica.account_secs
                - probe.apportion_secs;
            table.add("sim", probe.stock_secs);
            table.add("mining", step.predict + step.learn);
            table.add("knapsack", step.decide);
            table.add("core", replica.plan_secs - inner + run_self);
            table.add("radio", replica.account_secs + probe.apportion_secs);
            t.stock.push(probe.stock_secs);
            t.plan_day.push(replica.plan_secs);
            t.plan_day_self.push(replica.plan_secs - inner);
            t.account.push(replica.account_secs);
            t.apportion.push(probe.apportion_secs);
            t.run_day_self.push(run_self);
        }
    }
    let counts = table.counts();
    out.attempted += (USERS * DAYS) as u64;
    check_counts(
        &mut out,
        (USERS * DAYS) as u64,
        ref_counts,
        counts,
        shadow.counts(),
    );
    table.report(&mut out);
    let mut layers = PerLayer::default();

    // Observability shares: paired passes (the flight recorder records
    // nothing with the runtime off, so the ledger check is skipped).
    obs_shares(budget, (USERS * DAYS) as u64, &mut out, &mut layers, || {
        let (runs, _, secs) = pass(&traces, false);
        let same = runs
            .iter()
            .zip(&reference)
            .all(|(a, b)| a.reports == b.reports && a.fired == b.fired);
        (secs, same)
    });
    println!(
        "watch-drift: traced replay of {USERS} users x {DAYS} days; {}",
        counts.describe()
    );

    let us = |xs: &[f64]| mean(xs) * 1e6;
    let user_days = (USERS * DAYS) as f64;
    let (detected, detect_days, _) = drift_detection(&reference);
    layers.generate_ms = mean(&gen_secs) * 1e3;
    layers.activities_per_member = mean(&activities);
    layers.remines = t.remines as f64;
    layers.link_divisor = 1.0;
    layers.plan_day_us = us(&t.plan_day);
    layers.plan_day_self_us = us(&t.plan_day_self);
    layers.run_day_self_us = us(&t.run_day_self);
    layers.watch_observe_us = us(&t.observe);
    layers.run_day_ms_p99 = quantile(&t.run_day, 0.99) * 1e3;
    layers.run_day_samples = t.run_day.len() as f64;
    layers.account_us = us(&t.account);
    layers.apportion_us = us(&t.apportion);
    layers.stock_us = us(&t.stock);
    layers.worker_busy_share = busy_share;
    layers.affected_max = affected_max(&traces, &reference);
    layers.drift_detected_share = detected;
    layers.drift_detect_days = detect_days;
    layers.journal_entries_per_day = t.journal_entries as f64 / user_days;
    layers.ledger_records_per_day = t.ledger_records as f64 / user_days;
    layers.report(&shadow, &counts, &mut out);
    out
}
