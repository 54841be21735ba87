//! Fleet simulation: run a policy comparison across many users in
//! parallel and report the *distribution* of outcomes, not just the
//! mean. The paper evaluates three volunteers; a fleet run quantifies
//! how the savings generalize across chronotypes and seeds (its §VII
//! "small number of volunteers" limitation).

use crate::metrics::RunMetrics;
use crate::par::{par_map, par_map_indexed};
use crate::plan::Policy;
use crate::runner::{simulate, SimConfig};
use netmaster_obs::health::{HealthStatus, Scorecard};
use netmaster_obs::{ledger, ActivityTrace};
use netmaster_trace::stats::Summary;
use netmaster_trace::trace::Trace;
use serde::{Deserialize, Serialize};

/// One fleet member's outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetMember {
    /// User id from the trace.
    pub user_id: u32,
    /// Seed the member's trace was generated with.
    pub seed: u64,
    /// Baseline (stock-device) metrics.
    pub baseline: RunMetrics,
    /// Candidate-policy metrics.
    pub candidate: RunMetrics,
}

impl FleetMember {
    /// Energy saving of the candidate vs the member's own baseline.
    pub fn saving(&self) -> f64 {
        self.candidate.energy_saving_vs(&self.baseline)
    }
}

/// Distributional summary of a fleet run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetReport {
    /// Per-member outcomes.
    pub members: Vec<FleetMember>,
    /// Distribution of per-member energy savings.
    pub saving: Summary,
    /// Distribution of per-member affected-interaction fractions.
    pub affected: Summary,
    /// Distribution of per-member radio-time savings.
    pub radio_saving: Summary,
}

impl FleetReport {
    /// Summarizes per-member outcomes into a report.
    pub fn from_members(members: Vec<FleetMember>) -> Self {
        let savings: Vec<f64> = members.iter().map(FleetMember::saving).collect();
        let affected: Vec<f64> = members
            .iter()
            .map(|m| m.candidate.affected_fraction())
            .collect();
        let radio: Vec<f64> = members
            .iter()
            .map(|m| m.candidate.radio_time_saving_vs(&m.baseline))
            .collect();
        let saving = Summary::of(&savings).unwrap_or_else(empty_summary);
        // Publish the run's headline outcome on `/metrics`.
        netmaster_obs::gauge_set(netmaster_obs::names::FLEET_SAVING_RATIO, saving.mean);
        FleetReport {
            saving,
            affected: Summary::of(&affected).unwrap_or_else(empty_summary),
            radio_saving: Summary::of(&radio).unwrap_or_else(empty_summary),
            members,
        }
    }

    /// Fraction of members whose saving exceeds `threshold`.
    pub fn fraction_above(&self, threshold: f64) -> f64 {
        if self.members.is_empty() {
            return 0.0;
        }
        let n = self
            .members
            .iter()
            .filter(|m| m.saving() > threshold)
            .count();
        n as f64 / self.members.len() as f64
    }

    /// The member with the worst saving.
    pub fn worst(&self) -> Option<&FleetMember> {
        self.members
            .iter()
            .min_by(|a, b| a.saving().total_cmp(&b.saving()))
    }
}

/// Fleet-wide health report: per-status counts plus the worst-K
/// members with their reasons — what an operator pages on. Rolled up
/// from the watchtower's per-user [`Scorecard`]s.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetHealth {
    /// Members with no unresolved drift and levels at expectation.
    pub healthy: usize,
    /// Members with detected drift or a watched level below its floor.
    pub degraded: usize,
    /// Members with repeated drift or collapsed savings.
    pub critical: usize,
    /// The `worst_k` members, worst first (severity, then alarm count,
    /// then lowest smoothed saving).
    pub worst: Vec<Scorecard>,
}

impl FleetHealth {
    /// Rolls scorecards up into a fleet report, keeping the `worst_k`
    /// worst members.
    pub fn from_scorecards(cards: &[Scorecard], worst_k: usize) -> Self {
        let count = |s: HealthStatus| -> usize { cards.iter().filter(|c| c.status == s).count() };
        let mut worst: Vec<Scorecard> = cards.to_vec();
        worst.sort_by(|a, b| {
            b.badness()
                .partial_cmp(&a.badness())
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.user.cmp(&b.user))
        });
        worst.truncate(worst_k);
        FleetHealth {
            healthy: count(HealthStatus::Healthy),
            degraded: count(HealthStatus::Degraded),
            critical: count(HealthStatus::Critical),
            worst,
        }
    }

    /// Total members represented.
    pub fn members(&self) -> usize {
        self.healthy + self.degraded + self.critical
    }
}

/// One user's slice of the fleet-wide flight-recorder rollup.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserLedgerRollup {
    /// User id.
    pub user: u32,
    /// Lifecycle records contributed.
    pub activities: u64,
    /// Records whose activity arrived screen-off.
    pub screen_off: u64,
    /// Records the plan stage counted as prediction misses.
    pub prediction_misses: u64,
    /// Total payload bytes.
    pub bytes: u64,
    /// Summed baseline (stock-radio, natural-time) joules over billed
    /// records.
    pub baseline_j: f64,
    /// Summed NetMaster-apportioned joules over billed records.
    pub netmaster_j: f64,
}

impl UserLedgerRollup {
    /// The user's ledger-derived energy-saving fraction.
    pub fn saving(&self) -> f64 {
        if self.baseline_j <= 0.0 {
            return 0.0;
        }
        1.0 - self.netmaster_j / self.baseline_j
    }
}

/// Fleet-wide aggregation of per-user flight recorders: energy bills
/// summed per user, the saving distribution those bills imply, and the
/// worst offending trace ids across the whole fleet — the exemplar
/// link from fleet aggregates down to single causal chains.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetLedger {
    /// Per-user rollups, in input order.
    pub users: Vec<UserLedgerRollup>,
    /// Fleet-total baseline joules (billed records only).
    pub baseline_j: f64,
    /// Fleet-total NetMaster joules (billed records only).
    pub netmaster_j: f64,
    /// Distribution of per-user ledger savings.
    pub saving: Summary,
    /// The fleet's worst `(user, record)` pairs by scheduling latency.
    pub worst_latency: Vec<(u32, ActivityTrace)>,
    /// The fleet's worst `(user, record)` pairs by apportioned
    /// NetMaster energy.
    pub worst_energy: Vec<(u32, ActivityTrace)>,
}

impl FleetLedger {
    /// Rolls per-user ledger records up into a fleet view, keeping the
    /// `worst_k` worst exemplars per dimension.
    pub fn from_user_records(users: &[(u32, Vec<ActivityTrace>)], worst_k: usize) -> Self {
        let mut rollups = Vec::with_capacity(users.len());
        let (mut base_total, mut nm_total) = (0.0f64, 0.0f64);
        for (user, records) in users {
            let mut r = UserLedgerRollup {
                user: *user,
                activities: records.len() as u64,
                screen_off: 0,
                prediction_misses: 0,
                bytes: 0,
                baseline_j: 0.0,
                netmaster_j: 0.0,
            };
            for rec in records {
                r.screen_off += (!rec.screen_on) as u64;
                r.prediction_misses += rec.is_prediction_miss() as u64;
                r.bytes += rec.bytes;
                if let Some(e) = rec.energy {
                    r.baseline_j += e.baseline_j;
                    r.netmaster_j += e.actual_j;
                }
            }
            base_total += r.baseline_j;
            nm_total += r.netmaster_j;
            rollups.push(r);
        }
        let savings: Vec<f64> = rollups.iter().map(UserLedgerRollup::saving).collect();
        // Worst exemplars per user first (cheap), then across the fleet.
        let mut worst_latency: Vec<(u32, ActivityTrace)> = Vec::new();
        let mut worst_energy: Vec<(u32, ActivityTrace)> = Vec::new();
        for (user, records) in users {
            worst_latency.extend(
                ledger::worst_by_latency(records, worst_k)
                    .into_iter()
                    .map(|t| (*user, t)),
            );
            worst_energy.extend(
                ledger::worst_by_energy(records, worst_k)
                    .into_iter()
                    .map(|t| (*user, t)),
            );
        }
        worst_latency.sort_by(|a, b| {
            b.1.latency_secs
                .cmp(&a.1.latency_secs)
                .then(a.0.cmp(&b.0))
                .then(a.1.trace_id.cmp(&b.1.trace_id))
        });
        worst_latency.truncate(worst_k);
        let actual = |t: &ActivityTrace| t.energy.map_or(0.0, |e| e.actual_j);
        worst_energy.sort_by(|a, b| {
            actual(&b.1)
                .partial_cmp(&actual(&a.1))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
                .then(a.1.trace_id.cmp(&b.1.trace_id))
        });
        worst_energy.truncate(worst_k);
        FleetLedger {
            users: rollups,
            baseline_j: base_total,
            netmaster_j: nm_total,
            saving: Summary::of(&savings).unwrap_or_else(empty_summary),
            worst_latency,
            worst_energy,
        }
    }

    /// Fleet-level saving implied by the summed energy bills.
    pub fn saving_total(&self) -> f64 {
        if self.baseline_j <= 0.0 {
            return 0.0;
        }
        1.0 - self.netmaster_j / self.baseline_j
    }
}

/// Runs a fleet: for each trace, builds a fresh candidate policy with
/// `make_policy` (policies are stateful learners, so each member gets
/// its own), simulates candidate and stock baseline over `test_range`,
/// and summarizes. Members fan out across cores.
pub fn run_fleet<F>(
    traces: &[(u64, Trace)],
    test_from: usize,
    cfg: &SimConfig,
    make_policy: F,
) -> FleetReport
where
    F: Fn(&Trace) -> Box<dyn Policy + Send> + Sync,
{
    let members: Vec<FleetMember> = par_map(traces, |(seed, trace)| {
        simulate_member(*seed, trace, test_from, cfg, &make_policy)
    });
    FleetReport::from_members(members)
}

/// Streaming fleet run for fleets too large to materialize: instead of
/// a pre-built `&[(seed, Trace)]`, takes `make_trace` and synthesizes
/// each member's trace *inside* the worker that simulates it. At any
/// moment at most one trace per worker thread is alive, so peak memory
/// is bounded by core count, not fleet size — 10k+ members run in the
/// footprint of a dozen. The report is identical to [`run_fleet`] over
/// the same `(seed, Trace)` pairs.
///
/// With a telemetry hub, each finished member ticks
/// [`TelemetryHub::member_done`](netmaster_obs::TelemetryHub::member_done),
/// so a scrape server (`netmaster fleet --serve`) can report live
/// progress and members-per-second while the run executes. The report
/// is identical with or without a hub.
pub fn run_fleet_streaming_with<G, F>(
    n_members: usize,
    test_from: usize,
    cfg: &SimConfig,
    make_trace: G,
    make_policy: F,
    hub: Option<&netmaster_obs::TelemetryHub>,
) -> FleetReport
where
    G: Fn(usize) -> (u64, Trace) + Sync,
    F: Fn(&Trace) -> Box<dyn Policy + Send> + Sync,
{
    let members = par_map_indexed(n_members, |i| {
        let (seed, trace) = make_trace(i);
        let member = simulate_member(seed, &trace, test_from, cfg, &make_policy);
        if let Some(hub) = hub {
            hub.member_done();
        }
        member
        // `trace` drops here, before the worker claims the next member.
    });
    FleetReport::from_members(members)
}

/// Simulates one member: stock baseline vs a freshly built candidate
/// policy over the test range.
fn simulate_member<F>(
    seed: u64,
    trace: &Trace,
    test_from: usize,
    cfg: &SimConfig,
    make_policy: &F,
) -> FleetMember
where
    F: Fn(&Trace) -> Box<dyn Policy + Send> + Sync,
{
    // Per-worker throughput: each member's wall-clock lands in the
    // `fleet_member_seconds` histogram (per-thread shards, merged on
    // scrape), so a straggling worker shows up as a fat tail.
    let _member_timer = netmaster_obs::timer!("fleet_member_seconds");
    netmaster_obs::span_attr!("user", trace.user_id);
    netmaster_obs::counter!(netmaster_obs::names::FLEET_MEMBERS_TOTAL);
    let test = &trace.days[test_from.min(trace.days.len().saturating_sub(1))..];
    let baseline = simulate(test, &mut crate::plan::DefaultPolicy, cfg);
    let mut policy = make_policy(trace);
    let candidate = simulate(test, policy.as_mut(), cfg);
    FleetMember {
        user_id: trace.user_id,
        seed,
        baseline,
        candidate,
    }
}

fn empty_summary() -> Summary {
    Summary {
        count: 0,
        min: 0.0,
        max: 0.0,
        mean: 0.0,
        std_dev: 0.0,
        median: 0.0,
        p90: 0.0,
        p99: 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{DayPlan, DefaultPolicy};
    use netmaster_radio::TailPolicy;
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;

    /// A trivial policy that kills tails (saves energy everywhere).
    struct TailKiller;
    impl Policy for TailKiller {
        fn name(&self) -> String {
            "tail-killer".into()
        }
        fn tail_policy(&self) -> TailPolicy {
            TailPolicy::Immediate
        }
        fn plan_day(&mut self, day: &netmaster_trace::trace::DayTrace) -> DayPlan {
            DayPlan::passthrough(day)
        }
    }

    fn small_fleet() -> Vec<(u64, Trace)> {
        let mut fleet = Vec::new();
        for seed in 0..4u64 {
            let profile = UserProfile::panel().remove((seed % 8) as usize);
            fleet.push((
                seed,
                TraceGenerator::new(profile).with_seed(seed).generate(5),
            ));
        }
        fleet
    }

    #[test]
    fn fleet_reports_distributions() {
        let fleet = small_fleet();
        let cfg = SimConfig::default();
        let report = run_fleet(&fleet, 3, &cfg, |_| Box::new(TailKiller));
        assert_eq!(report.members.len(), 4);
        assert_eq!(report.saving.count, 4);
        // Killing tails always saves something.
        assert!(
            report.saving.min > 0.0,
            "worst member {:?}",
            report.worst().map(|m| m.saving())
        );
        assert!(report.saving.max <= 1.0);
        assert_eq!(report.fraction_above(0.0), 1.0);
        assert_eq!(report.fraction_above(1.0), 0.0);
        // Affected stays zero for a passthrough policy.
        assert_eq!(report.affected.max, 0.0);
    }

    #[test]
    fn identity_policy_fleet_saves_nothing() {
        let fleet = small_fleet();
        let cfg = SimConfig::default();
        let report = run_fleet(&fleet, 3, &cfg, |_| Box::new(DefaultPolicy));
        for m in &report.members {
            assert!(m.saving().abs() < 1e-9, "identity must not save");
        }
        assert!(report.worst().is_some());
    }

    #[test]
    fn streaming_fleet_matches_materialized_fleet() {
        // Same seeds, same generator ⇒ identical members and identical
        // distributions, whether traces were pre-built or synthesized
        // inside the workers.
        let gen_trace = |i: usize| {
            let seed = 100 + i as u64;
            let profile = UserProfile::panel().remove(i % 8);
            (
                seed,
                TraceGenerator::new(profile).with_seed(seed).generate(5),
            )
        };
        let fleet: Vec<(u64, Trace)> = (0..6).map(gen_trace).collect();
        let cfg = SimConfig::default();
        let eager = run_fleet(&fleet, 3, &cfg, |_| Box::new(TailKiller));
        let streaming =
            run_fleet_streaming_with(6, 3, &cfg, gen_trace, |_| Box::new(TailKiller), None);
        assert_eq!(eager, streaming);
    }

    #[test]
    fn observed_streaming_fleet_ticks_the_hub() {
        let gen_trace = |i: usize| {
            let seed = 300 + i as u64;
            let profile = UserProfile::panel().remove(i % 8);
            (
                seed,
                TraceGenerator::new(profile).with_seed(seed).generate(5),
            )
        };
        let cfg = SimConfig::default();
        let hub = netmaster_obs::TelemetryHub::new();
        hub.begin_run(5);
        let observed =
            run_fleet_streaming_with(5, 3, &cfg, gen_trace, |_| Box::new(TailKiller), Some(&hub));
        hub.end_run();
        let plain = run_fleet_streaming_with(5, 3, &cfg, gen_trace, |_| Box::new(TailKiller), None);
        assert_eq!(observed, plain, "the hub must not change results");
        let p = hub.progress();
        assert_eq!(p.members_done, 5);
        assert_eq!(p.members_total, 5);
        assert!(!p.run_active);
    }

    #[test]
    fn streaming_fleet_handles_zero_members() {
        let cfg = SimConfig::default();
        let report = run_fleet_streaming_with(
            0,
            0,
            &cfg,
            |_| unreachable!("no members to generate"),
            |_| Box::new(DefaultPolicy),
            None,
        );
        assert_eq!(report.members.len(), 0);
    }

    #[test]
    fn fleet_health_rolls_up_scorecards() {
        let card = |user: u32, status: HealthStatus, alarms: u64| Scorecard {
            user,
            days: 21,
            status,
            reasons: vec![],
            hit_rate: Some(0.3),
            hit_rate_mean: 0.3,
            slot_recall: Some(0.9),
            slot_recall_mean: 0.9,
            saving: Some(0.5),
            saving_mean: 0.5,
            deferral_p99_secs: 1000.0,
            drift_alarms: alarms,
            first_alarm_day: None,
            remines: 0,
        };
        let cards = vec![
            card(0, HealthStatus::Healthy, 0),
            card(1, HealthStatus::Critical, 4),
            card(2, HealthStatus::Degraded, 1),
            card(3, HealthStatus::Healthy, 0),
            card(4, HealthStatus::Degraded, 2),
        ];
        let health = FleetHealth::from_scorecards(&cards, 3);
        assert_eq!(health.healthy, 2);
        assert_eq!(health.degraded, 2);
        assert_eq!(health.critical, 1);
        assert_eq!(health.members(), 5);
        // Worst-first: critical, then the degraded user with more alarms.
        assert_eq!(health.worst.len(), 3);
        assert_eq!(health.worst[0].user, 1);
        assert_eq!(health.worst[1].user, 4);
        assert_eq!(health.worst[2].user, 2);
        // Round-trips through JSON for the CLI's --json mode.
        let json = serde_json::to_string(&health).unwrap();
        let back: FleetHealth = serde_json::from_str(&json).unwrap();
        assert_eq!(back, health);
        // Empty roll-up is benign.
        let empty = FleetHealth::from_scorecards(&[], 5);
        assert_eq!(empty.members(), 0);
        assert!(empty.worst.is_empty());
    }

    #[test]
    fn fleet_ledger_rolls_up_user_records() {
        use netmaster_obs::{EnergyShare, Outcome, PlanReason};
        let rec =
            |day: usize, idx: usize, off: bool, lat: u64, e: Option<(f64, f64)>| ActivityTrace {
                trace_id: ((day as u64) << 32) | idx as u64,
                day,
                app: 1,
                natural_start: 100 * idx as u64,
                duration: 5,
                bytes: 10,
                screen_on: !off,
                plan: if off {
                    PlanReason::Rejected {
                        reason: netmaster_obs::RejectReason::NoCandidate,
                    }
                } else {
                    PlanReason::ScreenOn
                },
                outcome: if off {
                    Outcome::DutyServed
                } else {
                    Outcome::Natural
                },
                executed_at: 100 * idx as u64 + lat,
                latency_secs: lat,
                energy: e.map(|(actual_j, baseline_j)| EnergyShare {
                    actual_j,
                    baseline_j,
                }),
            };
        let users = vec![
            (
                7u32,
                vec![
                    rec(0, 0, true, 50, Some((1.0, 4.0))),
                    rec(0, 1, false, 0, Some((2.0, 2.0))),
                ],
            ),
            (
                9u32,
                vec![
                    rec(0, 0, true, 900, Some((6.0, 8.0))),
                    rec(1, 0, true, 10, None), // unbilled: counted, not summed
                ],
            ),
        ];
        let fl = FleetLedger::from_user_records(&users, 2);
        assert_eq!(fl.users.len(), 2);
        assert_eq!(fl.users[0].activities, 2);
        assert_eq!(fl.users[0].screen_off, 1);
        assert_eq!(fl.users[0].prediction_misses, 1);
        assert!((fl.users[0].baseline_j - 6.0).abs() < 1e-12);
        assert!((fl.users[0].saving() - 0.5).abs() < 1e-12);
        assert!((fl.baseline_j - 14.0).abs() < 1e-12);
        assert!((fl.netmaster_j - 9.0).abs() < 1e-12);
        assert!((fl.saving_total() - 5.0 / 14.0).abs() < 1e-12);
        assert_eq!(fl.saving.count, 2);
        // Cross-fleet exemplars: user 9's 900 s deferral leads latency,
        // its 6 J record leads energy.
        assert_eq!(fl.worst_latency.len(), 2);
        assert_eq!(fl.worst_latency[0].0, 9);
        assert_eq!(fl.worst_latency[0].1.latency_secs, 900);
        assert_eq!(fl.worst_energy[0].0, 9);
        // Round-trips through JSON for the CLI's --json mode.
        let json = serde_json::to_string(&fl).unwrap();
        let back: FleetLedger = serde_json::from_str(&json).unwrap();
        assert_eq!(back, fl);
        // Empty roll-up is benign.
        let empty = FleetLedger::from_user_records(&[], 3);
        assert_eq!(empty.users.len(), 0);
        assert_eq!(empty.saving_total(), 0.0);
    }

    #[test]
    fn empty_fleet_is_safe() {
        let cfg = SimConfig::default();
        let report = run_fleet(&[], 0, &cfg, |_| Box::new(DefaultPolicy));
        assert_eq!(report.members.len(), 0);
        assert_eq!(report.saving.count, 0);
        assert_eq!(report.fraction_above(0.5), 0.0);
        assert!(report.worst().is_none());
    }
}
