//! The scheduling component's decision making (§V-C1).
//!
//! Each day, the mining component's predictions — user active slots `U`
//! and expected screen-off network activity per hour (`T_n`) — are
//! compiled into an overlapped multiple-knapsack instance: one knapsack
//! per predicted active slot with capacity `C(t_i) = Bandwidth · |t_i|`
//! (Eq. 5), one item per predicted screen-off activity with profit
//! `ΔE_j − ΔP_j` (Eq. 4) and weight `V(n_j)`. Algorithm 1 solves it and
//! the result is flattened into a per-hour routing table the policy
//! consults as real demands arrive: defer to the next active slot,
//! prefetch into the previous one, or hand to the duty-cycle layer.

use crate::config::NetMasterConfig;
use netmaster_knapsack::overlapped::{self, Candidate, OvItem, OvProblem};
use netmaster_knapsack::OvScratch;
use netmaster_mining::{ActiveSlotPrediction, NetworkPrediction};
use netmaster_radio::{LinkModel, RrcModel};
use netmaster_trace::time::{DayIndex, Interval, Timestamp, HOURS_PER_DAY, SECS_PER_HOUR};
use serde::{Deserialize, Serialize};

/// What to do with a screen-off demand arriving in a given hour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Disposition {
    /// Hour lies inside a predicted active slot: execute immediately
    /// (the radio is planned-on there).
    Immediate,
    /// Defer to the start of the given (later) active slot.
    DeferTo {
        /// Index into [`DayRouting::slots`].
        slot: usize,
    },
    /// The demand was pre-served during the given (earlier) active slot
    /// (predictive sync, like background email pre-fetch \[15\]).
    PrefetchIn {
        /// Index into [`DayRouting::slots`].
        slot: usize,
    },
    /// Not scheduled: hand to the real-time duty-cycle layer.
    DutyCycle,
}

/// Why the duty-cycle layer got a demand the planner saw (mirrors
/// [`netmaster_knapsack::overlapped::OvRejectReason`] on a serde
/// surface).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RouteReject {
    /// The predicted item had no adjacent active slot.
    NoCandidate,
    /// The deferral penalty beat the energy saving in every slot.
    NoPositiveProfit,
    /// Profitable slots existed but their capacity ran out.
    CapacityFull,
}

/// The planner's causal explanation for one routing-table entry — the
/// flight-recorder record of *why* a disposition was chosen, captured
/// from [`netmaster_knapsack::overlapped::OvSolution::why`] at plan
/// time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PlanWhy {
    /// Predicted item weight (payload bytes).
    pub weight: u64,
    /// Profit (ΔE − ΔP, joules) of the chosen slot; `0` when rejected.
    pub profit: f64,
    /// The competing adjacent slot the item did *not* go to.
    pub runner_up_slot: Option<usize>,
    /// That competitor's profit.
    pub runner_up_profit: f64,
    /// Which [`netmaster_knapsack::solve_auto`] arm answered the
    /// winning slot (`None` when the item was rejected).
    pub solver: Option<netmaster_obs::SolverArm>,
    /// Why the item fell through to duty cycle, when it did.
    pub reject: Option<RouteReject>,
}

/// The compiled plan for one day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayRouting {
    /// Day this plan covers.
    pub day: DayIndex,
    /// Predicted user active slots, ascending.
    pub slots: Vec<Interval>,
    /// Cyclic dispositions per hour-of-day: the k-th demand arriving in
    /// hour `h` takes `route[h][k mod len]`; an empty list means duty
    /// cycle.
    pub route: Vec<Vec<Disposition>>,
    /// Causal explanations for the planner-routed (non-`Immediate`)
    /// entries of `route`, hour-tagged, in plan push order (ascending
    /// by hour) — one flat allocation instead of a per-hour table,
    /// because this rides the per-day hot path. Populated only while observability is
    /// runtime-enabled; empty otherwise.
    pub why: Vec<(u8, PlanWhy)>,
    /// Total planner profit (ΔE − ΔP over scheduled predicted items).
    pub planned_profit: f64,
}

impl DayRouting {
    /// A plan that schedules nothing (untrained fallback).
    pub fn duty_only(day: DayIndex) -> Self {
        DayRouting {
            day,
            slots: Vec::new(),
            route: vec![Vec::new(); HOURS_PER_DAY],
            why: Vec::new(),
            planned_profit: 0.0,
        }
    }

    /// Disposition for the `k`-th screen-off arrival in hour `h`.
    pub fn disposition(&self, hour: usize, k: usize) -> Disposition {
        let list = &self.route[hour];
        if list.is_empty() {
            Disposition::DutyCycle
        } else {
            list[k % list.len()]
        }
    }

    /// Causal explanation for the `k`-th screen-off arrival in hour
    /// `h`, cycled exactly like [`DayRouting::disposition`]. `None`
    /// when why-tracking was off at plan time, the hour routes to duty
    /// cycle by default, or the entry is an `Immediate` placeholder.
    pub fn why_for(&self, hour: usize, k: usize) -> Option<PlanWhy> {
        if self.why.is_empty() {
            return None;
        }
        let list = self.route.get(hour)?;
        if list.is_empty() {
            return None;
        }
        let k = k % list.len();
        if matches!(list[k], Disposition::Immediate) {
            return None;
        }
        // Ordinal of this entry among the hour's planner-routed ones —
        // `why` holds them in the same order `route[hour]` does, hour
        // by hour, so the hour's entries start at its partition point.
        let ord = list[..k]
            .iter()
            .filter(|d| !matches!(d, Disposition::Immediate))
            .count();
        let first = self.why.partition_point(|&(h, _)| (h as usize) < hour);
        self.why
            .get(first + ord)
            .filter(|&&(h, _)| h as usize == hour)
            .map(|&(_, w)| w)
    }

    /// `true` when `t` falls inside a predicted active slot.
    pub fn in_active_slot(&self, t: Timestamp) -> bool {
        self.slots.iter().any(|s| s.contains(t))
    }

    /// Count of dispositions of each kind (diagnostics).
    pub fn disposition_counts(&self) -> (usize, usize, usize, usize) {
        let (mut imm, mut defer, mut pre, mut duty) = (0, 0, 0, 0);
        for list in &self.route {
            for d in list {
                match d {
                    Disposition::Immediate => imm += 1,
                    Disposition::DeferTo { .. } => defer += 1,
                    Disposition::PrefetchIn { .. } => pre += 1,
                    Disposition::DutyCycle => duty += 1,
                }
            }
        }
        (imm, defer, pre, duty)
    }
}

/// Builds knapsack instances from predictions and compiles routings.
#[derive(Debug, Clone)]
pub struct DecisionMaker {
    /// Middleware configuration (ε, e_t, δ).
    pub config: NetMasterConfig,
    /// Carrier link (capacities, durations).
    pub link: LinkModel,
    /// Radio model with *stock* tails — `ΔE` is the saving relative to
    /// what the default device would burn on an isolated transfer.
    pub radio: RrcModel,
    /// Whether to capture per-item [`PlanWhy`] explanations while
    /// observability is live. Part of the flight-recorder detail level
    /// (see [`crate::policies::NetMasterPolicy::with_flight_recorder`]);
    /// metrics-only deployments turn it off.
    pub record_why: bool,
}

impl DecisionMaker {
    /// New decision maker (flight-recorder explanations on).
    pub fn new(config: NetMasterConfig, link: LinkModel, radio: RrcModel) -> Self {
        DecisionMaker {
            config,
            link,
            radio,
            record_why: true,
        }
    }

    /// The penalty `ΔP` (Eq. 4) of moving a demand from `from` to `to`:
    /// the interrupt-probability mass crossed, scaled into joules by
    /// `e_t`. Both integrals run over the same span, so the penalty is
    /// `e_t · D · ∫Pr[u]`, with `D` and the integral in hours.
    pub fn penalty_j(&self, pred: &ActiveSlotPrediction, from: Timestamp, to: Timestamp) -> f64 {
        let (lo, hi) = if from <= to { (from, to) } else { (to, from) };
        if lo == hi {
            return 0.0;
        }
        let span_hours = (hi - lo) as f64 / SECS_PER_HOUR as f64;
        // ∫ Pr[u(t)] dt across the crossed hours, in hours.
        let mut prob_integral = 0.0;
        let mut t = lo;
        while t < hi {
            let hour_end = (t / SECS_PER_HOUR + 1) * SECS_PER_HOUR;
            let chunk_end = hour_end.min(hi);
            let frac = (chunk_end - t) as f64 / SECS_PER_HOUR as f64;
            prob_integral += pred.prob_at(t) * frac;
            t = chunk_end;
        }
        self.config.et_j_per_hour2 * span_hours * prob_integral
    }

    /// The saving `ΔE = g(t_j)` of eliminating an isolated screen-off
    /// transfer: everything but the payload transfer itself (promotion
    /// plus tail), since the payload rides a planned-on radio after
    /// rescheduling.
    pub fn saving_j(&self, duration_secs: f64) -> f64 {
        self.radio.isolated_energy_j(duration_secs) - self.radio.piggyback_energy_j(duration_secs)
    }

    /// Compiles the routing for `day` from the mining component's
    /// predictions. Allocates fresh solver state; the simulation hot
    /// path should prefer [`DecisionMaker::plan_day_with`].
    pub fn plan_day(
        &self,
        day: DayIndex,
        active: &ActiveSlotPrediction,
        network: &NetworkPrediction,
    ) -> DayRouting {
        self.plan_day_with(day, active, network, &mut OvScratch::new())
    }

    /// [`DecisionMaker::plan_day`] threading a reusable [`OvScratch`] so
    /// repeated daily planning (fleet simulation) performs no DP-table
    /// allocations per solve.
    pub fn plan_day_with(
        &self,
        day: DayIndex,
        active: &ActiveSlotPrediction,
        network: &NetworkPrediction,
        scratch: &mut OvScratch,
    ) -> DayRouting {
        let _solve_span = netmaster_obs::span!("solve");
        let slots = active.slots_for_day(day);
        if slots.is_empty() {
            return DayRouting::duty_only(day);
        }

        // Build the overlapped knapsack instance: one item per predicted
        // screen-off activity `n(p_m, t_i)` — the per-app dimension of
        // Eq. 3 sizes each item with that app's own payload — duplicated
        // across the two adjacent slots. When history has no per-app
        // breakdown, fall back to hour aggregates.
        let mut items: Vec<OvItem> = Vec::new();
        let mut item_hours: Vec<usize> = Vec::new();
        for hour in 0..HOURS_PER_DAY {
            let hour_iv = Interval::hour(day, hour);
            if slots.iter().any(|s| s.contains(hour_iv.start)) {
                continue; // active hour: demands execute in place
            }
            if network.expected_count[hour] <= 0.0 {
                continue;
            }
            let mid = hour_iv.midpoint();

            // Adjacent slots: last ending before the hour, first
            // starting after it.
            let left = slots
                .iter()
                .enumerate()
                .rev()
                .find(|(_, s)| s.end <= hour_iv.start)
                .map(|(i, s)| (i, s.end));
            let right = slots
                .iter()
                .enumerate()
                .find(|(_, s)| s.start >= hour_iv.end)
                .map(|(i, s)| (i, s.start));
            if left.is_none() && right.is_none() {
                continue;
            }

            // (count, bytes) pools for this hour: per app if known.
            let pools: Vec<(f64, f64)> = if network.per_app.is_empty() {
                vec![(network.expected_count[hour], network.expected_bytes[hour])]
            } else {
                network
                    .per_app
                    .iter()
                    .filter(|a| a.expected_count[hour] > 0.0)
                    .map(|a| (a.expected_count[hour], a.expected_bytes[hour]))
                    .collect()
            };
            for (count, bytes) in pools {
                if count <= 0.0 {
                    continue;
                }
                let n_items = (count.round() as usize).max(1);
                let bytes_per_item = (bytes / count).max(256.0) as u64;
                let duration = (bytes_per_item as f64 / self.link.avg_total_bps())
                    .ceil()
                    .max(1.0);
                let delta_e = self.saving_j(duration);
                let mut candidates = Vec::new();
                if let Some((idx, edge)) = left {
                    let profit = delta_e - self.penalty_j(active, mid, edge);
                    candidates.push(Candidate { slot: idx, profit });
                }
                if let Some((idx, edge)) = right {
                    let profit = delta_e - self.penalty_j(active, mid, edge);
                    candidates.push(Candidate { slot: idx, profit });
                }
                for _ in 0..n_items {
                    items.push(OvItem {
                        weight: bytes_per_item.max(1),
                        candidates: candidates.clone(),
                    });
                    item_hours.push(hour);
                }
            }
        }

        let capacities: Vec<u64> = slots
            .iter()
            .map(|s| self.link.slot_capacity_bytes(s.len()))
            .collect();
        netmaster_obs::counter!(
            netmaster_obs::names::PLANNER_SLOTS_TOTAL,
            slots.len() as u64
        );
        netmaster_obs::counter!(
            netmaster_obs::names::PLANNER_ITEMS_TOTAL,
            items.len() as u64
        );
        let problem = OvProblem { capacities, items };
        let solution = overlapped::solve_with(&problem, self.config.epsilon, scratch);

        // Tag the enclosing "solve" span with the solver-arm mix so a
        // slow-trace exemplar explains *which* algorithm ran. Guarded by
        // the capture toggle so the A/B's untraced arm allocates nothing.
        if netmaster_obs::trace_capture_enabled() {
            let (mut fastpath, mut bnb, mut dp) = (0usize, 0usize, 0usize);
            for kind in solution.solver.iter().flatten() {
                match kind {
                    netmaster_knapsack::SolverKind::Fastpath => fastpath += 1,
                    netmaster_knapsack::SolverKind::Bnb => bnb += 1,
                    netmaster_knapsack::SolverKind::Dp => dp += 1,
                }
            }
            let arm = match (fastpath, bnb, dp) {
                (0, 0, 0) => None,
                (_, 0, 0) => Some("fastpath"),
                (0, _, 0) => Some("bnb"),
                (0, 0, _) => Some("dp"),
                _ => Some("mixed"),
            };
            if let Some(arm) = arm {
                netmaster_obs::span_attr!("arm", arm);
            }
        }

        // Flatten into the per-hour routing table. While observability
        // is live, build the flat `why` list in lockstep so every
        // planner-routed disposition carries its causal explanation.
        let record_why = self.record_why && netmaster_obs::runtime_enabled();
        let mut route: Vec<Vec<Disposition>> = vec![Vec::new(); HOURS_PER_DAY];
        let mut why: Vec<(u8, PlanWhy)> = Vec::new();
        if record_why {
            why.reserve_exact(solution.assignment.len());
        }
        for (hour, dispositions) in route.iter_mut().enumerate() {
            if slots
                .iter()
                .any(|s| s.contains(Interval::hour(day, hour).start))
            {
                dispositions.push(Disposition::Immediate);
            }
        }
        for (j, assigned) in solution.assignment.iter().enumerate() {
            let hour = item_hours[j];
            let hour_start = Interval::hour(day, hour).start;
            let d = match assigned {
                Some(slot) => {
                    if slots[*slot].end <= hour_start {
                        Disposition::PrefetchIn { slot: *slot }
                    } else {
                        Disposition::DeferTo { slot: *slot }
                    }
                }
                None => Disposition::DutyCycle,
            };
            route[hour].push(d);
            if record_why {
                let iw = solution.why(&problem, j);
                why.push((
                    hour as u8,
                    PlanWhy {
                        weight: iw.weight,
                        profit: iw.chosen.map_or(0.0, |c| c.profit),
                        runner_up_slot: iw.runner_up.map(|c| c.slot),
                        runner_up_profit: iw.runner_up.map_or(0.0, |c| c.profit),
                        solver: iw.solver.map(|k| match k {
                            netmaster_knapsack::SolverKind::Fastpath => {
                                netmaster_obs::SolverArm::Fastpath
                            }
                            netmaster_knapsack::SolverKind::Bnb => netmaster_obs::SolverArm::Bnb,
                            netmaster_knapsack::SolverKind::Dp => netmaster_obs::SolverArm::Dp,
                        }),
                        reject: iw.reject.map(|r| match r {
                            overlapped::OvRejectReason::NoCandidate => RouteReject::NoCandidate,
                            overlapped::OvRejectReason::NoPositiveProfit => {
                                RouteReject::NoPositiveProfit
                            }
                            overlapped::OvRejectReason::CapacityFull => RouteReject::CapacityFull,
                        }),
                    },
                ));
            }
        }
        DayRouting {
            day,
            slots,
            route,
            why,
            planned_profit: solution.profit,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_mining::{predict_active_slots, HourlyHistory, PredictionConfig};
    use netmaster_radio::RrcModel;
    use netmaster_trace::time::DayKind;

    fn maker() -> DecisionMaker {
        DecisionMaker::new(
            NetMasterConfig::default(),
            LinkModel::default(),
            RrcModel::wcdma_default(),
        )
    }

    /// Prediction with active hours 8 and 18–19 every weekday.
    fn two_slot_prediction() -> ActiveSlotPrediction {
        let mut counts = Vec::new();
        let mut kinds = Vec::new();
        for _ in 0..5 {
            let mut row = [0u64; 24];
            row[8] = 3;
            row[18] = 2;
            row[19] = 2;
            counts.push(row);
            kinds.push(DayKind::Weekday);
        }
        let h = HourlyHistory { counts, kinds };
        predict_active_slots(&h, PredictionConfig::default())
    }

    fn network_with_hours(hours: &[(usize, f64, f64)]) -> NetworkPrediction {
        let mut n = NetworkPrediction {
            expected_count: [0.0; 24],
            expected_bytes: [0.0; 24],
            active: [false; 24],
            per_app: Vec::new(),
        };
        for &(h, c, b) in hours {
            n.expected_count[h] = c;
            n.expected_bytes[h] = b;
            n.active[h] = true;
        }
        n
    }

    #[test]
    fn saving_is_promo_plus_tail() {
        let m = maker();
        // WCDMA full tails: 1.1 + 9.52 J regardless of duration.
        assert!((m.saving_j(10.0) - 10.62).abs() < 1e-9);
        assert!((m.saving_j(100.0) - 10.62).abs() < 1e-9);
    }

    #[test]
    fn penalty_grows_with_distance_and_probability() {
        let m = maker();
        let pred = two_slot_prediction();
        // Moving within the dead of night (Pr≈0) is nearly free.
        let night = m.penalty_j(
            &pred,
            netmaster_trace::time::at_hour(0, 2),
            netmaster_trace::time::at_hour(0, 4),
        );
        assert!(night < 1e-9, "night penalty {night}");
        // Crossing the 18–19h active block costs real joules.
        let across = m.penalty_j(
            &pred,
            netmaster_trace::time::at_hour(0, 17),
            netmaster_trace::time::at_hour(0, 21),
        );
        assert!(across > 0.5, "crossing active hours should cost: {across}");
        // Longer moves cost more.
        let short = m.penalty_j(
            &pred,
            netmaster_trace::time::at_hour(0, 17),
            netmaster_trace::time::at_hour(0, 19),
        );
        assert!(across > short);
        // Symmetric and zero at zero distance.
        assert_eq!(m.penalty_j(&pred, 100, 100), 0.0);
        assert!((m.penalty_j(&pred, 200, 100) - m.penalty_j(&pred, 100, 200)).abs() < 1e-12);
    }

    #[test]
    fn plan_routes_night_demands_into_slots() {
        let m = maker();
        let pred = two_slot_prediction();
        let net = network_with_hours(&[(3, 2.0, 8_000.0), (12, 1.0, 4_000.0)]);
        let routing = m.plan_day(0, &pred, &net); // Monday
        assert_eq!(routing.slots.len(), 2);
        // Hour 3 demands get scheduled (deferred into the 8h slot —
        // prefetch impossible, no earlier slot).
        let d = routing.disposition(3, 0);
        assert_eq!(d, Disposition::DeferTo { slot: 0 }, "{routing:?}");
        // Hour 12 sits between the slots: either direction is legal.
        let d12 = routing.disposition(12, 0);
        assert!(
            matches!(
                d12,
                Disposition::PrefetchIn { slot: 0 } | Disposition::DeferTo { slot: 1 }
            ),
            "{d12:?}"
        );
        assert!(routing.planned_profit > 0.0);
    }

    #[test]
    fn active_hours_route_immediate() {
        let m = maker();
        let pred = two_slot_prediction();
        let net = network_with_hours(&[(8, 1.0, 1_000.0)]);
        let routing = m.plan_day(0, &pred, &net);
        assert_eq!(routing.disposition(8, 0), Disposition::Immediate);
        assert_eq!(routing.disposition(8, 5), Disposition::Immediate);
        assert!(routing.in_active_slot(netmaster_trace::time::at_hour(0, 8) + 10));
        assert!(!routing.in_active_slot(netmaster_trace::time::at_hour(0, 12)));
    }

    #[test]
    fn no_slots_means_duty_only() {
        let m = maker();
        let pred = predict_active_slots(&HourlyHistory::default(), PredictionConfig::default());
        let net = network_with_hours(&[(3, 5.0, 10_000.0)]);
        let routing = m.plan_day(0, &pred, &net);
        assert!(routing.slots.is_empty());
        assert_eq!(routing.disposition(3, 0), Disposition::DutyCycle);
        assert_eq!(routing.planned_profit, 0.0);
    }

    #[test]
    fn capacity_pressure_spills_to_duty_cycle() {
        // A link so slow the slot can hold almost nothing.
        let mut m = maker();
        m.link = LinkModel {
            avg_down_bps: 0.002,
            avg_up_bps: 0.001,
            peak_down_bps: 0.01,
            peak_up_bps: 0.01,
        };
        let pred = two_slot_prediction();
        let net = network_with_hours(&[(3, 6.0, 60_000.0)]);
        let routing = m.plan_day(0, &pred, &net);
        let (_, defer, pre, duty) = routing.disposition_counts();
        assert!(duty > 0, "tiny capacity must spill: {routing:?}");
        assert!(defer + pre <= 1, "at most one 10 kB item fits");
    }

    #[test]
    fn routing_cycles_dispositions() {
        let r = DayRouting {
            day: 0,
            slots: vec![Interval::new(0, 10)],
            route: {
                let mut v = vec![Vec::new(); 24];
                v[3] = vec![Disposition::DeferTo { slot: 0 }, Disposition::DutyCycle];
                v
            },
            why: Vec::new(),
            planned_profit: 0.0,
        };
        assert_eq!(r.disposition(3, 0), Disposition::DeferTo { slot: 0 });
        assert_eq!(r.disposition(3, 1), Disposition::DutyCycle);
        assert_eq!(r.disposition(3, 2), Disposition::DeferTo { slot: 0 });
        assert_eq!(r.disposition(4, 0), Disposition::DutyCycle);
        assert_eq!(r.why_for(3, 0), None);
    }

    #[test]
    fn plans_carry_causal_why_when_obs_is_live() {
        let m = maker();
        let pred = two_slot_prediction();
        let net = network_with_hours(&[(3, 2.0, 8_000.0), (8, 1.0, 1_000.0)]);
        let routing = m.plan_day(0, &pred, &net);
        if !netmaster_obs::runtime_enabled() {
            assert!(routing.why.is_empty());
            return;
        }
        // `why` carries one entry per planner-routed route entry.
        let routed: usize = routing
            .route
            .iter()
            .flatten()
            .filter(|d| !matches!(d, Disposition::Immediate))
            .count();
        assert_eq!(routing.why.len(), routed);
        for (h, _) in &routing.why {
            assert!((*h as usize) < routing.route.len());
        }
        // Active hour 8: an Immediate placeholder without explanation.
        assert_eq!(routing.disposition(8, 0), Disposition::Immediate);
        assert_eq!(routing.why_for(8, 0), None);
        // Hour 3 demands were deferred into slot 0; the explanation
        // names the winning slot's profit and the item weight.
        assert_eq!(routing.disposition(3, 0), Disposition::DeferTo { slot: 0 });
        let w = routing
            .why_for(3, 0)
            .expect("deferred entry explains itself");
        assert!(w.profit > 0.0, "{w:?}");
        assert!(w.weight > 0, "{w:?}");
        assert_eq!(w.reject, None);
        // Round-trips through serde, why table included.
        let json = serde_json::to_string(&routing).unwrap();
        let back: DayRouting = serde_json::from_str(&json).unwrap();
        assert_eq!(back, routing);
    }

    #[test]
    fn why_lookup_matches_a_scan_of_the_hour() {
        // The lookup `why_for` replaced: filter the hour's entries and
        // take the ordinal-th.
        let scan = |r: &DayRouting, hour: usize, k: usize| -> Option<PlanWhy> {
            let list = r.route.get(hour).filter(|l| !l.is_empty())?;
            let k = k % list.len();
            if r.why.is_empty() || matches!(list[k], Disposition::Immediate) {
                return None;
            }
            let ord = list[..k]
                .iter()
                .filter(|d| !matches!(d, Disposition::Immediate))
                .count();
            r.why
                .iter()
                .filter(|(h, _)| *h as usize == hour)
                .nth(ord)
                .map(|&(_, w)| w)
        };
        let pred = two_slot_prediction();
        let net = network_with_hours(&[
            (0, 2.0, 4_000.0),
            (3, 3.0, 9_000.0),
            (8, 2.0, 2_000.0),
            (12, 4.0, 40_000.0),
            (18, 1.0, 1_000.0),
            (22, 5.0, 80_000.0),
        ]);
        let mut slow = maker();
        slow.link.avg_down_bps = 2.0;
        slow.link.avg_up_bps = 1.0;
        for m in [maker(), slow] {
            let routing = m.plan_day(0, &pred, &net);
            if netmaster_obs::runtime_enabled() {
                assert!(routing.slots.len() >= 2, "{routing:?}");
                assert!(routing.why.len() > 10, "{routing:?}");
            }
            for hour in 0..HOURS_PER_DAY + 1 {
                for k in 0..16 {
                    assert_eq!(
                        routing.why_for(hour, k),
                        scan(&routing, hour, k),
                        "hour {hour}, k {k}"
                    );
                }
            }
        }
    }

    #[test]
    fn rejected_plans_explain_the_rejection() {
        // A link so slow the slot holds almost nothing: spilled items
        // must carry `CapacityFull`.
        let mut m = maker();
        m.link = LinkModel {
            avg_down_bps: 0.002,
            avg_up_bps: 0.001,
            peak_down_bps: 0.01,
            peak_up_bps: 0.01,
        };
        let pred = two_slot_prediction();
        let net = network_with_hours(&[(3, 6.0, 60_000.0)]);
        let routing = m.plan_day(0, &pred, &net);
        if !netmaster_obs::runtime_enabled() {
            return;
        }
        let spilled: Vec<PlanWhy> = routing
            .why
            .iter()
            .filter(|(h, w)| *h == 3 && w.reject.is_some())
            .map(|&(_, w)| w)
            .collect();
        assert!(!spilled.is_empty(), "{routing:?}");
        for w in &spilled {
            assert_eq!(w.reject, Some(RouteReject::CapacityFull), "{w:?}");
            assert_eq!(w.profit, 0.0);
        }
    }

    #[test]
    fn weekend_routing_uses_weekend_slots() {
        // History: weekday active at 8h, weekend active at 14h.
        let mut counts = Vec::new();
        let mut kinds = Vec::new();
        for d in 0..7 {
            let mut row = [0u64; 24];
            if DayKind::of_day(d).is_weekend() {
                row[14] = 2;
            } else {
                row[8] = 2;
            }
            counts.push(row);
            kinds.push(DayKind::of_day(d));
        }
        let pred = predict_active_slots(
            &HourlyHistory { counts, kinds },
            PredictionConfig::default(),
        );
        let m = maker();
        let net = network_with_hours(&[(3, 1.0, 1_000.0)]);
        let monday = m.plan_day(7, &pred, &net);
        let saturday = m.plan_day(5, &pred, &net);
        assert_eq!(netmaster_trace::time::hour_of(monday.slots[0].start), 8);
        assert_eq!(netmaster_trace::time::hour_of(saturday.slots[0].start), 14);
    }
}
