//! Traced-run plumbing: the per-layer self-time table, the shadow
//! pipeline that times calls which only run inside another call, the
//! program counters read from `netmaster_obs::snapshot()`, and the
//! paired A/B runs that price the observability layer.
//!
//! Accounting rule: every time in the table comes from one thread's
//! timeline (the benchmark's main thread runs the traced replay
//! serially). A layer that runs only inside an enclosing public call is
//! timed by calling the same public function on the same inputs beside
//! it (a *probe*); the enclosing call's self time is the remainder.
//! Probe time is excluded from the accounted wall time, and so are the
//! program counters a probe raises. Whatever the rows do not explain is
//! reported as `unattributed_share`.

use crate::stats::{median, timed};
use crate::Outcome;
use netmaster_core::{DayRouting, DecisionMaker, NetMasterConfig};
use netmaster_knapsack::OvScratch;
use netmaster_mining::IncrementalMiner;
use netmaster_obs::names;
use netmaster_radio::{LinkModel, RrcModel};
use netmaster_trace::time::hour_of;
use netmaster_trace::trace::DayTrace;
use std::collections::VecDeque;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Layers of the accounted timeline, in report order, with the name of
/// their self-share metric.
pub const LAYERS: [(&str, &str); 7] = [
    ("trace", "trace.self_share"),
    ("mining", "mining.self_share"),
    ("knapsack", "knapsack.self_share"),
    ("core", "core.self_share"),
    ("radio", "radio.self_share"),
    ("sim", "sim.self_share"),
    ("obs", "obs.self_share"),
];

/// The traced thread's timeline: self seconds per layer, the probes
/// taken beside the accounted calls, and the program counters the
/// replay's own calls raised.
pub struct LayerTable {
    start: Instant,
    self_secs: [f64; LAYERS.len()],
    probe_secs: f64,
    counts_before: Counts,
    /// Counter growth inside probes, excluded from the replay's counts.
    probe_counts: Counts,
    dropped_before: u64,
    /// Seconds of the untraced runs interleaved with the replay.
    untraced_secs: f64,
}

impl LayerTable {
    pub fn start() -> Self {
        let (counts_before, dropped_before) = (Counts::read(), ring_dropped());
        LayerTable {
            start: Instant::now(),
            self_secs: [0.0; LAYERS.len()],
            probe_secs: 0.0,
            counts_before,
            probe_counts: Counts::default(),
            dropped_before,
            untraced_secs: 0.0,
        }
    }

    pub fn add(&mut self, layer: &str, secs: f64) {
        let i = LAYERS
            .iter()
            .position(|(l, _)| *l == layer)
            .expect("layer name is one of LAYERS");
        self.self_secs[i] += secs;
    }

    /// Times a probe and returns `f`'s seconds to the caller, who books
    /// them to a layer. The whole probe, the counter reads around it
    /// included, is excluded from the accounted wall time, and the
    /// program counters it raised are excluded from [`Self::counts`].
    pub fn probe<R>(&mut self, f: impl FnOnce() -> R) -> (R, f64) {
        let outer = Instant::now();
        let before = Counts::read();
        let (r, secs) = timed(f);
        self.probe_counts = self.probe_counts.plus(Counts::read().since(before));
        self.probe_secs += outer.elapsed().as_secs_f64();
        (r, secs)
    }

    /// Runs `f`, the replayed member or user untraced, as a probe; its
    /// time is the base of `trace_overhead`. Interleaving it with the
    /// traced replay makes drift in host speed affect both sides alike.
    pub fn untraced(&mut self, f: impl FnOnce()) {
        let ((), secs) = self.probe(f);
        self.untraced_secs += secs;
    }

    /// Program counters raised since [`Self::start`], probes excluded.
    pub fn counts(&self) -> Counts {
        Counts::read()
            .since(self.counts_before)
            .since(self.probe_counts)
    }

    /// Pushes each layer's self share, `unattributed_share` (the shares
    /// sum to 1), the probe share, the accounted wall time, the tracing
    /// overhead and the records the rings dropped.
    pub fn report(&self, out: &mut Outcome) {
        let total = self.start.elapsed().as_secs_f64();
        let wall = total - self.probe_secs;
        let mut attributed = 0.0;
        for (i, (_, metric)) in LAYERS.iter().enumerate() {
            out.push(metric, self.self_secs[i] / wall, "ratio");
            attributed += self.self_secs[i];
        }
        out.push("unattributed_share", (wall - attributed) / wall, "ratio");
        out.push("trace.probe_share", self.probe_secs / total, "ratio");
        out.push("traced_wall_s", wall, "s");
        out.push("trace_overhead", wall / self.untraced_secs - 1.0, "ratio");
        out.push(
            "obs.ring_dropped",
            (ring_dropped() - self.dropped_before) as f64,
            "count",
        );
    }
}

/// Journal and ledger records the program's rings dropped so far.
fn ring_dropped() -> u64 {
    let s = netmaster_obs::snapshot();
    s.counter(names::JOURNAL_DROPPED_TOTAL) + s.counter(names::LEDGER_DROPPED_TOTAL)
}

/// Program counters the benchmark reads (counts only).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    pub fastpath: u64,
    pub bnb: u64,
    pub dp: u64,
    pub items: u64,
    pub trained_days: u64,
    /// Hours covered by predicted active slots on trained days.
    pub slot_hours: u64,
}

impl Counts {
    pub fn read() -> Counts {
        let s = netmaster_obs::snapshot();
        Counts {
            fastpath: s.counter(names::KNAPSACK_FASTPATH_TOTAL),
            bnb: s.counter(names::KNAPSACK_BNB_TOTAL),
            dp: s.counter(names::KNAPSACK_DP_TOTAL),
            items: s.counter(names::PLANNER_ITEMS_TOTAL),
            trained_days: s.counter(names::POLICY_DAYS_TRAINED_TOTAL),
            slot_hours: s.counter(names::SLOT_HOURS_PREDICTED_TOTAL),
        }
    }

    /// Counter growth since `before`.
    pub fn since(self, before: Counts) -> Counts {
        Counts {
            fastpath: self.fastpath - before.fastpath,
            bnb: self.bnb - before.bnb,
            dp: self.dp - before.dp,
            items: self.items - before.items,
            trained_days: self.trained_days - before.trained_days,
            slot_hours: self.slot_hours - before.slot_hours,
        }
    }

    pub fn plus(self, o: Counts) -> Counts {
        Counts {
            fastpath: self.fastpath + o.fastpath,
            bnb: self.bnb + o.bnb,
            dp: self.dp + o.dp,
            items: self.items + o.items,
            trained_days: self.trained_days + o.trained_days,
            slot_hours: self.slot_hours + o.slot_hours,
        }
    }

    pub fn solver_calls(&self) -> u64 {
        self.fastpath + self.bnb + self.dp
    }

    /// Share of knapsack calls that left the capacity-slack fast path.
    pub fn off_fastpath_share(&self) -> f64 {
        (self.bnb + self.dp) as f64 / self.solver_calls().max(1) as f64
    }

    pub fn describe(&self) -> String {
        format!(
            "knapsack calls {} (fastpath {}, bnb {}, dp {}; {:.1}% off the fast path), \
             planner items {} over {} trained days",
            self.solver_calls(),
            self.fastpath,
            self.bnb,
            self.dp,
            100.0 * self.off_fastpath_share(),
            self.items,
            self.trained_days
        )
    }

    /// Pushes the knapsack rows of the per-layer table.
    pub fn report(&self, out: &mut Outcome) {
        out.push("knapsack.fastpath_calls", self.fastpath as f64, "count");
        out.push("knapsack.bnb_calls", self.bnb as f64, "count");
        out.push("knapsack.dp_calls", self.dp as f64, "count");
        out.push(
            "knapsack.off_fastpath_share",
            self.off_fastpath_share(),
            "ratio",
        );
        out.push(
            "knapsack.items_per_day",
            self.items as f64 / self.trained_days.max(1) as f64,
            "count",
        );
    }
}

/// Checks the program counters of the traced replay, and the shadow's,
/// against the untraced reference pass: the replay must make the same
/// solver calls, and the shadow must see the inputs of the policy it
/// stands in for. A mismatch fails all `ops` operations.
pub fn check_counts(
    out: &mut Outcome,
    ops: u64,
    reference: Counts,
    traced: Counts,
    shadow: Counts,
) {
    if traced != reference {
        out.fail(
            ops,
            format!("traced replay counts {traced:?} differ from the untraced pass {reference:?}"),
        );
    }
    if shadow != reference {
        out.fail(
            ops,
            format!("shadow counts {shadow:?} differ from the policy's {reference:?}"),
        );
    }
}

/// The mining → predict → solve half of `NetMasterPolicy::plan_day`,
/// replayed through public calls beside the real policy so each step can
/// be timed on its own. It sees the same days in the same order as the
/// policy it shadows and copies the policy's prediction and re-mining
/// rules, so its inputs and solver calls should be the policy's;
/// [`check_counts`] fails the run when its [`Shadow::counts`] are not.
pub struct Shadow {
    cfg: NetMasterConfig,
    miner: IncrementalMiner,
    recent: VecDeque<DayTrace>,
    maker: DecisionMaker,
    scratch: OvScratch,
    /// Per-call seconds of `IncrementalMiner::push_day`.
    pub learn: Vec<f64>,
    /// Per-call seconds of `predict_confident` + `network_prediction`.
    pub predict: Vec<f64>,
    /// Per-call seconds of `DecisionMaker::plan_day_with`.
    pub decide: Vec<f64>,
    /// Counters the shadow's own solver calls raised.
    counts: Counts,
    /// Hours covered by the shadow's predicted active slots.
    slot_hours: u64,
}

/// Seconds one [`Shadow::step`] spent per sub-call.
#[derive(Debug, Clone, Copy, Default)]
pub struct StepSecs {
    pub predict: f64,
    pub decide: f64,
    pub learn: f64,
}

impl Shadow {
    pub fn new(cfg: NetMasterConfig, link: LinkModel, record_why: bool) -> Self {
        let mut maker = DecisionMaker::new(cfg, link, RrcModel::wcdma_default());
        maker.record_why = record_why;
        Shadow {
            cfg,
            miner: IncrementalMiner::new(),
            recent: VecDeque::with_capacity(3),
            maker,
            scratch: OvScratch::new(),
            learn: Vec::new(),
            predict: Vec::new(),
            decide: Vec::new(),
            counts: Counts::default(),
            slot_hours: 0,
        }
    }

    /// Absorbs one observed day; returns the seconds `push_day` took.
    fn push(&mut self, day: &DayTrace) -> f64 {
        let ((), secs) = timed(|| self.miner.push_day(black_box(day)));
        self.learn.push(secs);
        self.recent.push_back(day.clone());
        while self.recent.len() > 2 {
            self.recent.pop_front();
        }
        secs
    }

    /// Plans `day` the way the policy does (predict and solve when
    /// trained), then absorbs it.
    fn step(&mut self, day: &DayTrace) -> StepSecs {
        let mut s = StepSecs::default();
        if self.miner.num_days() >= self.cfg.min_training_days {
            let (prediction, predict) = timed(|| {
                (
                    self.miner.predict_confident(
                        self.cfg.prediction,
                        self.cfg.prediction_bound,
                        1.96,
                    ),
                    self.miner.network_prediction(),
                )
            });
            let (active, network) = black_box(prediction);
            let (routing, decide) = timed(|| {
                self.maker
                    .plan_day_with(day.day, &active, &network, &mut self.scratch)
            });
            self.slot_hours += slot_hours(&black_box(routing));
            self.predict.push(predict);
            self.decide.push(decide);
            s.predict = predict;
            s.decide = decide;
        }
        s.learn = self.push(day);
        s
    }

    /// Replays one user: fresh mining state, `history` absorbed as
    /// training, then each of `days` planned and absorbed, re-mining
    /// after the days listed in `remine_after` as the policy did. The
    /// solver scratch (like the policies' pooled scratch), the timings
    /// and the counters carry over between users. Returns the training
    /// seconds and the per-day step seconds.
    pub fn replay(
        &mut self,
        history: &[DayTrace],
        days: &[DayTrace],
        remine_after: &[usize],
    ) -> (f64, Vec<StepSecs>) {
        self.miner = IncrementalMiner::new();
        self.recent.clear();
        let before = Counts::read();
        let train = history.iter().map(|d| self.push(d)).sum();
        let steps = days
            .iter()
            .map(|d| {
                let s = self.step(d);
                if remine_after.contains(&d.day) {
                    self.miner = IncrementalMiner::rebuilt_from(&self.recent);
                }
                s
            })
            .collect();
        self.counts = self.counts.plus(Counts::read().since(before));
        (train, steps)
    }

    /// The shadow's solver calls and planner items, with the days it
    /// planned and the hours its predicted slots covered: the counts of
    /// the policy it shadows, if it saw the policy's inputs.
    pub fn counts(&self) -> Counts {
        Counts {
            trained_days: self.predict.len() as u64,
            slot_hours: self.slot_hours,
            ..self.counts
        }
    }

    /// Pushes the mining and decide rows of the per-layer table.
    pub fn report(&self, out: &mut Outcome) {
        let us = |xs: &[f64]| crate::stats::mean(xs) * 1e6;
        out.push("mining.learn_us", us(&self.learn), "us");
        out.push(
            "mining.learn_us_p99",
            crate::stats::quantile(&self.learn, 0.99) * 1e6,
            "us",
        );
        out.push("mining.predict_us", us(&self.predict), "us");
        out.push("core.decide_us", us(&self.decide), "us");
    }
}

/// Hours of the day that a routing's predicted active slots touch,
/// counted as the policy counts its `slot_hours_predicted_total`.
fn slot_hours(routing: &DayRouting) -> u64 {
    let mut covered = [false; 24];
    for slot in &routing.slots {
        let last = hour_of(slot.end.saturating_sub(1));
        for c in covered.iter_mut().take(last + 1).skip(hour_of(slot.start)) {
            *c = true;
        }
    }
    covered.iter().filter(|&&c| c).count() as u64
}

/// Prices one observability switch by paired A/B runs: each pair runs
/// the shipped default (switch on) and the switch off, alternating which
/// arm runs first, until `budget` is spent (at least three pairs). `run`
/// performs one fixed-size pass and returns its wall seconds and whether
/// its outputs matched the reference. Returns the median over pairs of
/// `(on − off) / on`, the number of pairs, and the number of passes whose
/// outputs did not match.
fn ab_share(
    budget: Duration,
    switch: fn(bool),
    run: &mut impl FnMut() -> (f64, bool),
) -> (f64, usize, u64) {
    let start = Instant::now();
    let mut shares = Vec::new();
    let mut mismatches = 0;
    let mut arm = |on: bool, mismatches: &mut u64| {
        switch(on);
        let (secs, ok) = run();
        switch(true);
        *mismatches += u64::from(!ok);
        secs
    };
    while shares.len() < 3 || start.elapsed() < budget {
        let (on, off) = if shares.len() % 2 == 0 {
            let on = arm(true, &mut mismatches);
            (on, arm(false, &mut mismatches))
        } else {
            let off = arm(false, &mut mismatches);
            (arm(true, &mut mismatches), off)
        };
        shares.push((on - off) / on);
    }
    (median(&shares), shares.len(), mismatches)
}

/// The `obs` layer's shares: `set_runtime_enabled(false)` and
/// `set_trace_capture(false)` A/B runs, each over half of `budget`, of a
/// pass of `ops` operations. Counts the passes as attempted and their
/// mismatches as failed, and writes both shares into `table`.
pub fn obs_shares(
    budget: Duration,
    ops: u64,
    out: &mut Outcome,
    table: &mut PerLayer,
    mut run: impl FnMut() -> (f64, bool),
) {
    let (runtime, runtime_pairs, bad_runtime) =
        ab_share(budget / 2, netmaster_obs::set_runtime_enabled, &mut run);
    let (capture, capture_pairs, bad_capture) =
        ab_share(budget / 2, netmaster_obs::set_trace_capture, &mut run);
    out.attempted += 2 * (runtime_pairs + capture_pairs) as u64 * ops;
    if bad_runtime + bad_capture > 0 {
        out.fail(
            (bad_runtime + bad_capture) * ops,
            "observability switches changed the results",
        );
    }
    println!("obs A/B: {runtime_pairs} runtime pairs, {capture_pairs} capture pairs");
    table.runtime_share = runtime;
    table.capture_share = capture;
}

/// The per-layer values that are not self shares. A metric that does not
/// apply to a workload stays 0 (for example `run_day_self_us` on a fleet).
#[derive(Debug, Default)]
pub struct PerLayer {
    pub generate_ms: f64,
    pub activities_per_member: f64,
    pub train_ms: f64,
    pub remines: f64,
    pub link_divisor: f64,
    pub plan_day_us: f64,
    pub plan_day_self_us: f64,
    pub run_day_self_us: f64,
    pub watch_observe_us: f64,
    pub run_day_ms_p99: f64,
    pub run_day_samples: f64,
    pub account_us: f64,
    pub apportion_us: f64,
    pub stock_us: f64,
    pub worker_busy_share: f64,
    pub affected_max: f64,
    pub drift_detected_share: f64,
    pub drift_detect_days: f64,
    pub runtime_share: f64,
    pub capture_share: f64,
    pub journal_entries_per_day: f64,
    pub ledger_records_per_day: f64,
}

impl PerLayer {
    /// Pushes every per-layer metric but the self shares, with the
    /// shadow's mining and decide timings and the knapsack counters.
    pub fn report(&self, shadow: &Shadow, counts: &Counts, out: &mut Outcome) {
        out.push("trace.generate_ms", self.generate_ms, "ms");
        out.push(
            "trace.activities_per_member",
            self.activities_per_member,
            "count",
        );
        out.push("mining.train_ms", self.train_ms, "ms");
        shadow.report(out);
        out.push("mining.remines", self.remines, "count");
        counts.report(out);
        out.push("knapsack.link_divisor", self.link_divisor, "ratio");
        out.push("core.plan_day_us", self.plan_day_us, "us");
        out.push("core.plan_day_self_us", self.plan_day_self_us, "us");
        out.push("core.run_day_self_us", self.run_day_self_us, "us");
        out.push("core.watch_observe_us", self.watch_observe_us, "us");
        out.push("run_day_ms_p99", self.run_day_ms_p99, "ms");
        out.push("run_day_samples", self.run_day_samples, "count");
        out.push("radio.account_us", self.account_us, "us");
        out.push("radio.apportion_us", self.apportion_us, "us");
        out.push("sim.stock_us", self.stock_us, "us");
        out.push("sim.worker_busy_share", self.worker_busy_share, "ratio");
        out.push("affected_max", self.affected_max, "ratio");
        out.push("drift_detected_share", self.drift_detected_share, "ratio");
        out.push("drift_detect_days", self.drift_detect_days, "days");
        out.push("obs.runtime_share", self.runtime_share, "ratio");
        out.push("obs.capture_share", self.capture_share, "ratio");
        out.push(
            "obs.journal_entries_per_day",
            self.journal_entries_per_day,
            "count",
        );
        out.push(
            "obs.ledger_records_per_day",
            self.ledger_records_per_day,
            "count",
        );
    }
}
