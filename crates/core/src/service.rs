//! The middleware as a long-running service: the deployment-facing API
//! that packages monitoring → mining → scheduling with per-day
//! reporting, the way the Android service of §V runs (mining broadcasts
//! hourly predictions to the scheduling component each day).

use crate::config::NetMasterConfig;
use crate::policies::NetMasterPolicy;
use netmaster_radio::battery::BatteryModel;
use netmaster_radio::{AppEnergy, EnergyBreakdown, LinkModel, RrcConfig, RrcModel, TailPolicy};
use netmaster_sim::{simulate, DefaultPolicy, Policy, RunMetrics, SimConfig};
use netmaster_trace::time::Interval;
use netmaster_trace::trace::DayTrace;
use serde::{Deserialize, Serialize};

/// Per-day report the service emits after executing a day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayReport {
    /// Which day.
    pub day: usize,
    /// Energy the stock device would have burned (J).
    pub stock_energy_j: f64,
    /// Energy actually burned under NetMaster (J).
    pub energy_j: f64,
    /// Battery percentage points saved today.
    pub battery_points_saved: f64,
    /// Transfers rescheduled (deferred + prefetched + duty-served late).
    pub moved_transfers: u64,
    /// Wrong decisions today.
    pub wrong_decisions: u64,
    /// Whether the miner was trained when planning this day.
    pub trained: bool,
    /// Prediction hits today: screen-off demands routed into a
    /// predicted slot (deferred + prefetched).
    pub prediction_hits: u64,
    /// Prediction misses today: trained demands that fell through to
    /// the duty-cycle layer (per-activity metric; see
    /// [`NetMasterStats`](crate::policies::NetMasterStats)).
    pub prediction_misses: u64,
    /// Total simulated seconds today's deferred/prefetched demands were
    /// moved by.
    pub deferral_latency_secs: u64,
    /// Hours of today covered by the predicted active slots.
    pub slot_hours_predicted: u64,
    /// Hours of today with actual session activity.
    pub slot_hours_active: u64,
    /// Hours both predicted and active (slot true positives).
    pub slot_hours_overlap: u64,
}

impl DayReport {
    /// Fractional saving for the day.
    pub fn saving(&self) -> f64 {
        if self.stock_energy_j <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy_j / self.stock_energy_j
    }

    /// Per-activity hit-rate for the day; `None` on days with no
    /// planned screen-off demands (untrained or idle days), so callers
    /// can skip rather than score them as 0.
    pub fn hit_rate(&self) -> Option<f64> {
        let total = self.prediction_hits + self.prediction_misses;
        if total == 0 {
            None
        } else {
            Some(self.prediction_hits as f64 / total as f64)
        }
    }

    /// Mean deferral latency across today's hits, in simulated seconds.
    pub fn deferral_latency_mean_secs(&self) -> f64 {
        if self.prediction_hits == 0 {
            0.0
        } else {
            self.deferral_latency_secs as f64 / self.prediction_hits as f64
        }
    }

    /// Slot-recall for the day: the fraction of actually-active hours
    /// the predicted slots covered. `None` on untrained or idle days.
    /// This is the hour-granular habit-fidelity signal — it reacts the
    /// moment a user's daily rhythm moves out from under the mined
    /// slots, before the per-activity hit-rate statistics catch up.
    pub fn slot_recall(&self) -> Option<f64> {
        if self.slot_hours_active == 0 {
            None
        } else {
            Some(self.slot_hours_overlap as f64 / self.slot_hours_active as f64)
        }
    }

    /// Slot-precision for the day: the fraction of predicted slot hours
    /// that saw real activity. `None` on days with no predicted slots.
    pub fn slot_precision(&self) -> Option<f64> {
        if self.slot_hours_predicted == 0 {
            None
        } else {
            Some(self.slot_hours_overlap as f64 / self.slot_hours_predicted as f64)
        }
    }
}

/// One day's two arms, each priced once.
struct DayPrice {
    /// The natural spans on the stock radio.
    stock: EnergyBreakdown,
    /// The executed spans on the planned radio.
    spent: EnergyBreakdown,
    /// Per-activity bills `(stock, planned)`, by activity index, while
    /// the flight recorder holds the day's records.
    bills: Option<(Vec<AppEnergy>, Vec<AppEnergy>)>,
}

/// Cumulative summary over the service lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServiceSummary {
    /// Days executed.
    pub days: usize,
    /// Total stock energy (J).
    pub stock_energy_j: f64,
    /// Total NetMaster energy (J).
    pub energy_j: f64,
    /// Total battery points saved.
    pub battery_points_saved: f64,
    /// Total rescheduled transfers.
    pub moved_transfers: u64,
    /// Total wrong decisions.
    pub wrong_decisions: u64,
}

impl ServiceSummary {
    /// Lifetime energy-saving fraction.
    pub fn saving(&self) -> f64 {
        if self.stock_energy_j <= 0.0 {
            return 0.0;
        }
        1.0 - self.energy_j / self.stock_energy_j
    }
}

/// The NetMaster middleware runtime: feed it observed days, get
/// reports. Internally it compares each day against a stock-device
/// counterfactual so savings are attributable per day.
///
/// ```
/// use netmaster_core::MiddlewareService;
/// use netmaster_trace::gen::generate_volunteers;
///
/// let trace = generate_volunteers(15, 3).remove(0);
/// let mut svc = MiddlewareService::new().import_history(&trace.days[..14]);
/// let report = svc.run_day(&trace.days[14]);
/// assert!(report.trained);
/// assert!(report.saving() > 0.3);
/// ```
pub struct MiddlewareService {
    policy: NetMasterPolicy,
    sim: SimConfig,
    battery: BatteryModel,
    summary: ServiceSummary,
    /// The radio the flight recorder prices executed transfers on (the
    /// policy's tail policy).
    planned_radio: RrcModel,
    /// The stock radio it prices natural-time transfers on.
    stock_radio: RrcModel,
}

impl MiddlewareService {
    /// New service with the paper's defaults on WCDMA.
    pub fn new() -> Self {
        Self::with_config(
            NetMasterConfig::default(),
            RrcConfig::wcdma(),
            LinkModel::default(),
        )
    }

    /// New service with explicit configuration.
    pub fn with_config(cfg: NetMasterConfig, radio: RrcConfig, link: LinkModel) -> Self {
        let stock_radio = RrcModel {
            config: radio.clone(),
            tail_policy: TailPolicy::Full,
        };
        let policy = NetMasterPolicy::new(cfg, link, stock_radio.clone());
        let planned_radio = RrcModel {
            config: radio.clone(),
            tail_policy: policy.tail_policy(),
        };
        MiddlewareService {
            policy,
            sim: SimConfig {
                radio,
                link,
                ..SimConfig::default()
            },
            battery: BatteryModel::htc_one_x(),
            summary: ServiceSummary::default(),
            planned_radio,
            stock_radio,
        }
    }

    /// Sets the battery used for percentage framing.
    pub fn with_battery(mut self, battery: BatteryModel) -> Self {
        self.battery = battery;
        self
    }

    /// Pre-seeds habit history without executing (installing the
    /// service on a phone that already has monitoring data).
    pub fn import_history(mut self, days: &[DayTrace]) -> Self {
        self.policy = std::mem::replace(&mut self.policy, dummy_policy()).with_training(days);
        self
    }

    /// Executes one observed day under the middleware and reports.
    ///
    /// The policy plans the day, then each arm is priced once with one
    /// RRC sweep: the day's natural spans on the stock radio (the
    /// stock-device counterfactual) and the policy's executed spans on
    /// the planned radio. The same sweeps bill each activity when the
    /// flight recorder holds records for the day.
    pub fn run_day(&mut self, day: &DayTrace) -> DayReport {
        let _run_span = netmaster_obs::span!("run_day");
        netmaster_obs::span_attr!("day", day.day);
        netmaster_obs::counter!(netmaster_obs::names::SERVICE_DAYS_TOTAL);
        let trained = self.policy.trained();
        let before = self.policy.stats();
        let plan = self.policy.plan_day(day);
        let stats = self.policy.stats();
        #[cfg(feature = "strict-invariants")]
        self.check_executed_spans(day, &plan);
        let (moved_today, empty_wakeups) = (plan.moved_count(), plan.empty_wakeups);
        // The plan is not needed past its counts; free it before pricing.
        drop(plan);
        let priced = self.price_day(day);
        let stock_energy_j = self.energy_j(&priced.stock, 0);
        let energy_j = self.energy_j(&priced.spent, empty_wakeups);
        let wrong_today = stats.wrong_decisions - before.wrong_decisions;
        let hits_today =
            (stats.deferred - before.deferred) + (stats.prefetched - before.prefetched);
        let misses_today = stats.prediction_misses - before.prediction_misses;
        let latency_today = stats.deferral_latency_secs - before.deferral_latency_secs;
        let saved_j = (stock_energy_j - energy_j).max(0.0);
        let report = DayReport {
            day: day.day,
            stock_energy_j,
            energy_j,
            battery_points_saved: self.battery.percent_saved_per_day(saved_j),
            moved_transfers: moved_today,
            wrong_decisions: wrong_today,
            trained,
            prediction_hits: hits_today,
            prediction_misses: misses_today,
            deferral_latency_secs: latency_today,
            slot_hours_predicted: stats.slot_hours_predicted - before.slot_hours_predicted,
            slot_hours_active: stats.slot_hours_active - before.slot_hours_active,
            slot_hours_overlap: stats.slot_hours_overlap - before.slot_hours_overlap,
        };
        self.summary.days += 1;
        self.summary.stock_energy_j += stock_energy_j;
        self.summary.energy_j += energy_j;
        self.summary.battery_points_saved += report.battery_points_saved;
        self.summary.moved_transfers += moved_today;
        self.summary.wrong_decisions += wrong_today;
        self.policy
            .journal_mut()
            .emit(|| netmaster_obs::DecisionEvent::DayExecuted {
                day: day.day,
                trained,
                moved_transfers: moved_today,
                wrong_decisions: wrong_today,
            });
        self.apportion_energy(day.day, &priced);
        report
    }

    /// A day's energy on the simulator's terms: the RRC timeline plus
    /// the duty cycle's empty wake-ups (the sum `simulate` reports).
    fn energy_j(&self, rrc: &EnergyBreakdown, empty_wakeups: u64) -> f64 {
        rrc.total_j() + self.sim.duty.total_empty_j(&self.sim.radio, empty_wakeups)
    }

    /// Checks that the per-activity spans the planned arm is priced
    /// from are the same multiset as the plan's execution spans.
    #[cfg(feature = "strict-invariants")]
    fn check_executed_spans(&self, day: &DayTrace, plan: &netmaster_sim::DayPlan) {
        let sorted = |it: &mut dyn Iterator<Item = Interval>| {
            let mut v: Vec<(u64, u64)> = it.map(|s| (s.start, s.end)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(
            sorted(&mut self.policy.executed_spans(day)),
            sorted(&mut plan.executions.iter().map(|e| e.span())),
            "strict-invariants: day {} per-activity spans differ from the plan's executions",
            day.day
        );
    }

    /// Prices both arms of the day just planned, one sweep each: the
    /// day's natural spans on the stock radio and the policy's executed
    /// spans on the planned radio. While the flight recorder holds the
    /// day's records, the sweeps also bill each activity. The sort keys
    /// and bills live for the day only: held across days they raised
    /// `watch-drift`'s peak heap and bought no speed.
    fn price_day(&mut self, day: &DayTrace) -> DayPrice {
        let n = day.activities.len();
        let billing = self.policy.ledger_mut().day_mut(day.day).is_some();
        let mut bills = billing.then(|| (Vec::with_capacity(n), Vec::with_capacity(n)));
        let mut keys = Vec::with_capacity(n);
        let natural = day
            .activities
            .iter()
            .map(|a| Interval::new(a.start, a.start + a.duration.max(1)));
        let stock = self
            .stock_radio
            .sweep(natural, &mut keys, bills.as_mut().map(|b| &mut b.0));
        let spent = self.planned_radio.sweep(
            self.policy.executed_spans(day),
            &mut keys,
            bills.as_mut().map(|b| &mut b.1),
        );
        #[cfg(feature = "strict-invariants")]
        if let Some((stock_bills, planned_bills)) = &bills {
            for (arm, bills, rrc) in [
                ("stock", stock_bills, &stock),
                ("planned", planned_bills, &spent),
            ] {
                let billed: f64 = bills.iter().map(AppEnergy::total_j).sum();
                let total = rrc.total_j();
                assert!(
                    (billed - total).abs() <= 1e-9 * total,
                    "strict-invariants: day {} {arm} bills {billed} J != {arm} energy {total} J",
                    day.day
                );
            }
        }
        DayPrice {
            stock,
            spent,
            bills,
        }
    }

    /// The flight recorder's pricing pass: gives each of today's ledger
    /// records its bills from [`price_day`](Self::price_day)'s sweeps,
    /// in place in the day's chunk — actual joules under the NetMaster
    /// plan (immediate tail release) and the joules the same activity
    /// would have cost at its natural time on the stock radio (full
    /// inactivity timers). A record takes the bills of its activity
    /// index, so a chunk trimmed at the front by the ledger bound keeps
    /// whole-day prices. A no-op while the flight recorder is off or the
    /// day is empty. Summed over a day's records, `actual_j` reproduces
    /// that day's RRC timeline energy exactly (duty-cycle empty-wakeup
    /// energy is accounted separately and not apportioned to
    /// activities), and `baseline_j` the stock counterfactual's; the
    /// `strict-invariants` build asserts both in `price_day`.
    fn apportion_energy(&mut self, day: usize, priced: &DayPrice) {
        let Some((stock_bills, planned_bills)) = &priced.bills else {
            return;
        };
        let Some(records) = self.policy.ledger_mut().day_mut(day) else {
            return;
        };
        for r in records {
            let i = r.index();
            r.energy = Some(netmaster_obs::EnergyShare {
                actual_j: planned_bills[i].total_j(),
                baseline_j: stock_bills[i].total_j(),
            });
        }
    }

    /// Takes every buffered decision-audit entry, oldest first.
    pub fn drain_journal(&mut self) -> Vec<netmaster_obs::JournalEntry> {
        self.policy.drain_journal()
    }

    /// The causal flight recorder (per-activity lifecycle records,
    /// priced as each day is executed).
    pub fn ledger(&self) -> &netmaster_obs::TraceLedger {
        self.policy.ledger()
    }

    /// Takes every buffered lifecycle record, oldest first.
    pub fn drain_ledger(&mut self) -> Vec<netmaster_obs::ActivityTrace> {
        self.policy.drain_ledger()
    }

    /// Lifetime summary.
    pub fn summary(&self) -> ServiceSummary {
        self.summary
    }

    /// The underlying policy (predictions, stats, monitor).
    pub fn policy(&self) -> &NetMasterPolicy {
        &self.policy
    }

    /// Mutable access to the decision-audit journal, so layers above
    /// the service (the watchtower) can interleave their events with
    /// the policy's in one ordered stream.
    pub fn journal_mut(&mut self) -> &mut netmaster_obs::Journal {
        self.policy.journal_mut()
    }

    /// Drift response: discard the learned habit and re-mine from the
    /// freshest retained days (see
    /// [`NetMasterPolicy::remine_from_recent`]).
    pub fn trigger_remine(&mut self) {
        self.policy.remine_from_recent();
    }

    /// Last-run metrics detail for one day, stock-device counterfactual.
    pub fn stock_counterfactual(&self, day: &DayTrace) -> RunMetrics {
        simulate(std::slice::from_ref(day), &mut DefaultPolicy, &self.sim)
    }
}

impl Default for MiddlewareService {
    fn default() -> Self {
        Self::new()
    }
}

fn dummy_policy() -> NetMasterPolicy {
    NetMasterPolicy::new(
        NetMasterConfig::default(),
        LinkModel::default(),
        RrcModel::wcdma_default(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;

    fn trace(days: usize) -> netmaster_trace::trace::Trace {
        TraceGenerator::new(UserProfile::volunteers().remove(0))
            .with_seed(44)
            .generate(days)
    }

    #[test]
    fn service_learns_and_saves_over_weeks() {
        let t = trace(21);
        let mut svc = MiddlewareService::new();
        let mut reports = Vec::new();
        for day in &t.days {
            reports.push(svc.run_day(day));
        }
        // Early days untrained, later trained.
        assert!(!reports[0].trained);
        assert!(reports.last().unwrap().trained);
        // Lifetime summary saves substantially.
        let s = svc.summary();
        assert_eq!(s.days, 21);
        assert!(s.saving() > 0.3, "lifetime saving {:.3}", s.saving());
        assert!(s.battery_points_saved > 20.0, "{}", s.battery_points_saved);
        // Trained days reschedule transfers.
        assert!(reports.iter().rev().take(5).any(|r| r.moved_transfers > 0));
    }

    #[test]
    fn imported_history_skips_the_cold_start() {
        let t = trace(16);
        let mut svc = MiddlewareService::new().import_history(&t.days[..14]);
        let r = svc.run_day(&t.days[14]);
        assert!(r.trained);
        assert!(r.saving() > 0.3, "first-day saving {:.3}", r.saving());
    }

    #[test]
    fn reports_are_internally_consistent() {
        let t = trace(17);
        let mut svc = MiddlewareService::new().import_history(&t.days[..14]);
        let mut total_saved_points = 0.0;
        for day in &t.days[14..] {
            let r = svc.run_day(day);
            assert!(
                r.energy_j <= r.stock_energy_j * 1.001,
                "never worse than stock"
            );
            assert!((0.0..=1.0).contains(&r.saving()));
            total_saved_points += r.battery_points_saved;
        }
        assert!((svc.summary().battery_points_saved - total_saved_points).abs() < 1e-9);
        assert_eq!(svc.summary().days, 3);
    }

    #[test]
    fn day_reports_carry_prediction_outcomes() {
        let t = trace(17);
        let mut svc = MiddlewareService::new().import_history(&t.days[..14]);
        for day in &t.days[14..] {
            let r = svc.run_day(day);
            assert!(r.trained);
            assert!(
                r.prediction_hits + r.prediction_misses > 0,
                "trained volunteer days have screen-off demands"
            );
            let hr = r.hit_rate().unwrap();
            assert!((0.0..=1.0).contains(&hr));
            if r.prediction_hits == 0 {
                assert_eq!(r.deferral_latency_mean_secs(), 0.0);
            }
        }
        // Untrained first day: nothing planned, hit-rate undefined.
        let mut cold = MiddlewareService::new();
        let r = cold.run_day(&t.days[0]);
        assert!(!r.trained);
        assert_eq!(r.hit_rate(), None);
        assert_eq!(r.deferral_latency_mean_secs(), 0.0);
    }

    #[test]
    fn ledger_bills_conserve_day_energy() {
        let t = trace(17);
        let mut svc = MiddlewareService::new().import_history(&t.days[..14]);
        for day in &t.days[14..] {
            let r = svc.run_day(day);
            let recs: Vec<netmaster_obs::ActivityTrace> = svc
                .ledger()
                .records()
                .filter(|x| x.day == day.day)
                .copied()
                .collect();
            // One billed lifecycle record per activity.
            assert_eq!(recs.len(), day.activities.len());
            let (mut actual, mut base) = (0.0f64, 0.0f64);
            for rec in &recs {
                let e = rec.energy.expect("every record is billed after run_day");
                assert!(e.actual_j >= 0.0 && e.baseline_j >= 0.0, "{rec:?}");
                actual += e.actual_j;
                base += e.baseline_j;
            }
            // Baseline bills conserve the stock counterfactual exactly
            // (the stock policy has no duty wake-ups, so its energy is
            // pure RRC timeline energy).
            assert!(
                (base - r.stock_energy_j).abs() < 1e-6,
                "day {}: Σ baseline {} vs stock {}",
                day.day,
                base,
                r.stock_energy_j
            );
            // Actual bills conserve the NetMaster RRC timeline energy:
            // everything except duty-cycle empty-wakeup energy, which
            // is not an activity's to pay.
            let slack = r.energy_j - actual;
            assert!(
                slack >= -1e-6,
                "day {}: apportioned {} exceeds total {}",
                day.day,
                actual,
                r.energy_j
            );
            assert!(actual > 0.0);
        }
    }

    /// Golden lifecycle ledger: a fixed seed must always produce the
    /// same per-activity records, JSONL byte for byte. Catches silent
    /// changes to what the flight recorder captures about each causal
    /// chain (plan reasons, outcomes, latencies, bills).
    #[test]
    fn ledger_golden_lifecycle_is_stable() {
        let run = || {
            let t = trace(16);
            let mut svc = MiddlewareService::new().import_history(&t.days[..14]);
            for day in &t.days[14..] {
                let _ = svc.run_day(day);
            }
            svc.drain_ledger()
        };
        let recs = run();
        // Golden per-outcome totals for seed 44, days 14..16.
        let kind = |k: &str| recs.iter().filter(|r| r.outcome_kind() == k).count();
        assert_eq!(recs.len(), 288, "golden record count");
        assert_eq!(kind("natural"), 169);
        assert_eq!(kind("deferred"), 32);
        assert_eq!(kind("prefetched"), 6);
        assert_eq!(kind("duty_served"), 81);
        assert_eq!(
            recs.iter().filter(|r| r.is_prediction_miss()).count(),
            81,
            "golden prediction-miss count"
        );
        // Trace ids are continuous per day: index 0..n in record order.
        for day in [14usize, 15] {
            let ids: Vec<usize> = recs
                .iter()
                .filter(|r| r.day == day)
                .map(|r| r.index())
                .collect();
            assert!(!ids.is_empty(), "day {day} has records");
            assert_eq!(ids, (0..ids.len()).collect::<Vec<_>>());
        }
        // Every record left the service fully billed.
        assert!(recs.iter().all(|r| r.energy.is_some()));
        // The pinned JSONL round-trips byte for byte, and a re-run of
        // the same seed reproduces it exactly.
        let jsonl = netmaster_obs::trace_to_jsonl(&recs).unwrap();
        let parsed = netmaster_obs::trace_from_jsonl(&jsonl).unwrap();
        assert_eq!(parsed, recs);
        assert_eq!(netmaster_obs::trace_to_jsonl(&parsed).unwrap(), jsonl);
        let again = run();
        assert_eq!(
            netmaster_obs::trace_to_jsonl(&again).unwrap(),
            jsonl,
            "ledger must be deterministic"
        );
    }

    #[test]
    fn empty_day_report_is_benign() {
        let mut svc = MiddlewareService::new();
        let empty = DayTrace::new(0);
        let r = svc.run_day(&empty);
        assert_eq!(r.stock_energy_j, 0.0);
        assert_eq!(r.saving(), 0.0);
        assert_eq!(r.moved_transfers, 0);
    }
}
