//! `fleet-week` and `fleet-binding`: the batch product path.
//!
//! Each pass runs `run_fleet_streaming_with` over the same fixed roster
//! of [`MEMBERS`] members: member `i` is chronotype `i % 8` of the panel
//! with a seed derived from the run seed; its 21-day trace is generated
//! inside the worker, a metrics-only NetMaster policy is trained on 14
//! days, and the stock and candidate arms are simulated on the last 7.
//! `fleet-binding` differs only in the planner's link: its average rates
//! are divided by [`BINDING_LINK_DIVISOR`], so slot capacities bind.

use crate::layers::{check_counts, obs_shares, Counts, LayerTable, PerLayer, Shadow};
use crate::stats::{mean, mix, quantile, repeat_passes, setup_median, timed};
use crate::{Outcome, Workload};
use netmaster_core::policies::NetMasterPolicy;
use netmaster_core::NetMasterConfig;
use netmaster_radio::{LinkModel, RrcModel};
use netmaster_sim::par::default_parallelism;
use netmaster_sim::{
    run_fleet_streaming_with, simulate, DayPlan, DefaultPolicy, FleetReport, Policy, SimConfig,
};
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;
use netmaster_trace::trace::{DayTrace, Trace};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Members per pass.
pub const MEMBERS: usize = 256;
const TRAIN_DAYS: usize = 14;
const TEST_DAYS: usize = 7;
/// Divisor applied to the planner's average link rates on
/// `fleet-binding`. At 3×10⁵ only about 46% of the knapsack calls left the
/// fast path (seeds 1 and 7); at 10⁶ about 84% do.
pub const BINDING_LINK_DIVISOR: f64 = 1e6;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPEATS: usize = 15;
/// Members in the set-up warm-up fleet.
const WARMUP_MEMBERS: usize = 64;

/// Everything a pass needs, built in set-up.
struct Fleet {
    panel: Vec<UserProfile>,
    seed: u64,
    planner_link: LinkModel,
    sim: SimConfig,
    cfg: NetMasterConfig,
}

impl Fleet {
    fn new(workload: Workload, seed: u64) -> Fleet {
        let mut planner_link = LinkModel::default();
        if workload == Workload::FleetBinding {
            planner_link.avg_down_bps /= BINDING_LINK_DIVISOR;
            planner_link.avg_up_bps /= BINDING_LINK_DIVISOR;
        }
        Fleet {
            panel: UserProfile::panel(),
            seed,
            planner_link,
            sim: SimConfig::default(),
            cfg: NetMasterConfig::default(),
        }
    }

    fn member_trace(&self, i: usize) -> (u64, Trace) {
        let seed = mix(self.seed, i as u64);
        let profile = self.panel[i % self.panel.len()].clone();
        let trace = TraceGenerator::new(profile)
            .with_seed(seed)
            .generate(TRAIN_DAYS + TEST_DAYS);
        (seed, trace)
    }

    fn policy(&self, train: &[DayTrace]) -> NetMasterPolicy {
        NetMasterPolicy::new(self.cfg, self.planner_link, RrcModel::wcdma_default())
            .with_flight_recorder(false)
            .with_training(train)
    }

    /// One member as the product path runs it, untimed inside.
    fn member_untraced(&self, i: usize) {
        let (_, trace) = self.member_trace(i);
        let (train, test) = trace.days.split_at(TRAIN_DAYS);
        let mut policy = self.policy(train);
        black_box(simulate(test, &mut DefaultPolicy, &self.sim));
        black_box(simulate(test, &mut policy, &self.sim));
    }

    /// One product-path pass over `n` members. With `latencies`, the
    /// candidate arm's per-day `plan_day` latencies (ns) are collected;
    /// with `gen_ns`, the workers' trace-generation time is summed.
    fn pass(
        &self,
        n: usize,
        latencies: Option<&Arc<Mutex<Vec<u64>>>>,
        gen_ns: Option<&AtomicU64>,
    ) -> (FleetReport, Counts, f64) {
        let before = Counts::read();
        let (report, secs) = timed(|| {
            run_fleet_streaming_with(
                n,
                TRAIN_DAYS,
                &self.sim,
                |i| match gen_ns {
                    Some(total) => {
                        let (member, secs) = timed(|| self.member_trace(i));
                        total.fetch_add((secs * 1e9) as u64, Ordering::Relaxed);
                        member
                    }
                    None => self.member_trace(i),
                },
                |trace| {
                    let policy = self.policy(&trace.days[..TRAIN_DAYS]);
                    match latencies {
                        Some(sink) => Box::new(DayTimer {
                            inner: policy,
                            samples: Vec::with_capacity(TEST_DAYS),
                            sink: Arc::clone(sink),
                        }) as Box<dyn Policy + Send>,
                        None => Box::new(policy),
                    }
                },
                None,
            )
        });
        (report, Counts::read().since(before), secs)
    }
}

/// Forwards to the candidate policy, timing each `plan_day` call.
struct DayTimer<P> {
    inner: P,
    samples: Vec<u64>,
    sink: Arc<Mutex<Vec<u64>>>,
}

impl<P: Policy> Policy for DayTimer<P> {
    fn name(&self) -> String {
        self.inner.name()
    }
    fn tail_policy(&self) -> netmaster_radio::TailPolicy {
        self.inner.tail_policy()
    }
    fn plan_day(&mut self, day: &DayTrace) -> DayPlan {
        let t = Instant::now();
        let plan = self.inner.plan_day(day);
        self.samples.push(t.elapsed().as_nanos() as u64);
        plan
    }
}

impl<P> Drop for DayTimer<P> {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            sink.extend_from_slice(&self.samples);
        }
    }
}

/// Set-up: builds the roster and runs a small warm-up fleet (thread
/// pools, per-thread solver scratch, allocator), [`SETUP_REPEATS`] times.
fn setup(workload: Workload, seed: u64) -> (Fleet, f64) {
    setup_median(SETUP_REPEATS, || {
        let f = Fleet::new(workload, seed);
        let _ = f.pass(WARMUP_MEMBERS, None, None);
        f
    })
}

/// Checks that hold within one pass: every member executes all its
/// demands and saves at most everything, and `fleet-binding` binds.
fn check_members(workload: Workload, out: &mut Outcome, report: &FleetReport, counts: Counts) {
    for m in &report.members {
        let ok = m.candidate.executed_transfers == m.baseline.executed_transfers
            && m.baseline.energy_j > 0.0
            && m.candidate.energy_j.is_finite()
            && m.saving() <= 1.0;
        if !ok {
            out.fail(1, format!("member {} is inconsistent: {m:?}", m.user_id));
        }
    }
    if workload == Workload::FleetBinding && counts.off_fastpath_share() < 0.5 {
        out.fail(
            report.members.len() as u64,
            format!("fleet-binding does not bind: {}", counts.describe()),
        );
    }
}

/// Checks that a pass reproduced the reference pass bit for bit.
fn check_repeat(
    out: &mut Outcome,
    reference: &(FleetReport, Counts),
    (report, counts): &(FleetReport, Counts),
) {
    let differing = report
        .members
        .iter()
        .zip(&reference.0.members)
        .filter(|(a, b)| a != b)
        .count()
        + reference.0.members.len().abs_diff(report.members.len());
    if differing > 0 {
        out.fail(differing as u64, "members differ from the reference pass");
    }
    if *counts != reference.1 {
        out.fail(
            report.members.len() as u64,
            format!("program counters differ from the reference pass: {counts:?}"),
        );
    }
}

/// The untraced run: end-to-end metrics.
pub fn untraced(workload: Workload, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (fleet, setup_s) = setup(workload, seed);
    let sink = Arc::new(Mutex::new(Vec::new()));
    let passes = repeat_passes(
        &mut out,
        budget,
        MEMBERS as u64,
        |out| {
            let (report, counts, secs) = fleet.pass(MEMBERS, Some(&sink), None);
            check_members(workload, out, &report, counts);
            let mut lat = sink
                .lock()
                .expect("latency sink is never poisoned: no code panics under its lock");
            let lat_ms = lat.drain(..).map(|ns| ns as f64 * 1e-6).collect();
            ((report, counts), secs, lat_ms)
        },
        check_repeat,
    );
    let (report, counts) = &passes.reference;
    println!(
        "{}: {} of {MEMBERS} members on {} workers; planner link divisor {}; {}",
        workload.name(),
        passes.describe(),
        default_parallelism().min(MEMBERS),
        link_divisor(workload),
        counts.describe()
    );
    out.push("members_per_s", passes.rate(), "1/s");
    out.push(
        "user_days_per_s",
        passes.rate() * (TRAIN_DAYS + TEST_DAYS) as f64,
        "1/s",
    );
    out.push("run_day_ms_p50", passes.p50_ms, "ms");
    out.push("run_day_ms_p90", passes.p90_ms, "ms");
    out.push("saving_mean", report.saving.mean, "ratio");
    out.push("saving_min", report.saving.min, "ratio");
    out.push("peak_heap_mb", passes.peak_heap_mb, "MiB");
    out.push("setup_s", setup_s, "s");
    out
}

fn link_divisor(workload: Workload) -> f64 {
    if workload == Workload::FleetBinding {
        BINDING_LINK_DIVISOR
    } else {
        1.0
    }
}

/// What the traced replay measured per call.
#[derive(Default)]
struct Traced {
    generate: Vec<f64>,
    train: Vec<f64>,
    stock: Vec<f64>,
    plan_day: Vec<f64>,
    plan_day_self: Vec<f64>,
    account: Vec<f64>,
    activities: Vec<f64>,
    journal_entries: u64,
    ledger_records: u64,
}

/// The traced run: per-layer metrics.
pub fn traced(workload: Workload, seed: u64, budget: Duration) -> Outcome {
    let mut out = Outcome::default();
    let (fleet, _) = setup(workload, seed);

    // Reference: one untraced product-path pass, which also gives the
    // workers' busy share: each member's time on its worker (trace
    // generation timed around `make_trace`, the rest from the program's
    // own `fleet_member_seconds` histogram), summed, over workers × wall.
    let member_secs = || {
        netmaster_obs::snapshot()
            .histogram(netmaster_obs::names::FLEET_MEMBER_SECONDS)
            .map_or(0.0, |h| h.sum_secs)
    };
    let busy_before = member_secs();
    let gen_ns = AtomicU64::new(0);
    let (ref_report, ref_counts, ref_secs) = fleet.pass(MEMBERS, None, Some(&gen_ns));
    check_members(workload, &mut out, &ref_report, ref_counts);
    let busy_secs = member_secs() - busy_before + gen_ns.load(Ordering::Relaxed) as f64 * 1e-9;
    let workers = default_parallelism().min(MEMBERS) as f64;
    let busy_share = busy_secs / (workers * ref_secs);
    out.attempted += MEMBERS as u64;

    // The traced serial replay of the same members.
    let mut table = LayerTable::start();
    let mut t = Traced::default();
    let mut shadow = Shadow::new(fleet.cfg, fleet.planner_link, false);
    for i in 0..MEMBERS {
        let ((_, trace), gen) = timed(|| fleet.member_trace(i));
        table.add("trace", gen);
        t.generate.push(gen);
        t.activities
            .push(trace.days.iter().map(|d| d.activities.len()).sum::<usize>() as f64);
        let (train, test) = trace.days.split_at(TRAIN_DAYS);

        let (mut policy, train_secs) = timed(|| fleet.policy(train));
        t.train.push(train_secs);

        let (stock, stock_secs) = timed(|| simulate(test, &mut DefaultPolicy, &fleet.sim));
        table.add("sim", stock_secs);
        t.stock.push(stock_secs);

        // Candidate arm: `simulate` unrolled into plan_day + account.
        let mut spans = Vec::new();
        let (mut empty_wakeups, mut affected) = (0u64, 0u64);
        let mut plan_secs = Vec::with_capacity(TEST_DAYS);
        for day in test {
            let (plan, secs) = timed(|| policy.plan_day(day));
            plan_secs.push(secs);
            spans.extend(plan.executions.iter().map(|e| e.span()));
            empty_wakeups += plan.empty_wakeups;
            affected += plan.affected_interactions;
        }
        let radio = RrcModel {
            config: fleet.sim.radio.clone(),
            tail_policy: policy.tail_policy(),
        };
        let (rrc, account_secs) = timed(|| radio.account(&spans));
        table.add("radio", account_secs);
        t.account.push(account_secs);
        let energy = rrc.total_j()
            + fleet
                .sim
                .duty
                .total_empty_j(&fleet.sim.radio, empty_wakeups);
        let (drained, drain_secs) =
            timed(|| (policy.drain_journal().len(), policy.drain_ledger().len()));
        table.add("obs", drain_secs);
        t.journal_entries += drained.0 as u64;
        t.ledger_records += drained.1 as u64;

        // Probes, after the member's own calls so they do not disturb
        // them: the shadow replays training and the test days.
        let ((learn, steps), _) = table.probe(|| shadow.replay(train, test, &[]));
        table.add("mining", learn);
        table.add("core", train_secs - learn);
        for (step, secs) in steps.iter().zip(&plan_secs) {
            let inner = step.predict + step.decide + step.learn;
            table.add("mining", step.predict + step.learn);
            table.add("knapsack", step.decide);
            table.add("core", secs - inner);
            t.plan_day.push(*secs);
            t.plan_day_self.push(secs - inner);
        }

        // The same member untraced, right after, for the tracing overhead.
        table.untraced(|| fleet.member_untraced(i));

        // The replay must reproduce `simulate` exactly.
        let r = &ref_report.members[i];
        if energy.to_bits() != r.candidate.energy_j.to_bits()
            || affected != r.candidate.affected_interactions
            || stock != r.baseline
        {
            out.fail(
                1,
                format!(
                    "member {i}: traced replay energy {energy} J / affected {affected} \
                     vs simulate {} J / {}",
                    r.candidate.energy_j, r.candidate.affected_interactions
                ),
            );
        }
    }
    let traced_counts = table.counts();
    out.attempted += MEMBERS as u64;
    check_counts(
        &mut out,
        MEMBERS as u64,
        ref_counts,
        traced_counts,
        shadow.counts(),
    );
    table.report(&mut out);
    let mut layers = PerLayer::default();

    // Observability shares: paired product-path passes.
    obs_shares(budget, MEMBERS as u64, &mut out, &mut layers, || {
        let (report, _, secs) = fleet.pass(MEMBERS, None, None);
        (secs, report == ref_report)
    });
    println!(
        "{}: traced replay of {MEMBERS} members; {}",
        workload.name(),
        traced_counts.describe()
    );

    let ms = |xs: &[f64]| mean(xs) * 1e3;
    let us = |xs: &[f64]| mean(xs) * 1e6;
    let days = t.plan_day.len() as f64;
    layers.generate_ms = ms(&t.generate);
    layers.activities_per_member = mean(&t.activities);
    layers.train_ms = ms(&t.train);
    layers.link_divisor = link_divisor(workload);
    layers.plan_day_us = us(&t.plan_day);
    layers.plan_day_self_us = us(&t.plan_day_self);
    layers.run_day_ms_p99 = quantile(&t.plan_day, 0.99) * 1e3;
    layers.run_day_samples = days;
    layers.account_us = us(&t.account);
    layers.stock_us = us(&t.stock);
    layers.worker_busy_share = busy_share;
    layers.affected_max = ref_report.affected.max;
    layers.journal_entries_per_day = t.journal_entries as f64 / days;
    layers.ledger_records_per_day = t.ledger_records as f64 / days;
    layers.report(&shadow, &traced_counts, &mut out);
    out
}
