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
use netmaster_knapsack::overlapped::{self, Candidate, Candidates, ItemWhy, OvItem, OvProblem};
use netmaster_knapsack::OvScratch;
use netmaster_mining::{ActiveSlotPrediction, NetworkPrediction};
use netmaster_obs::{PlanReason, RejectReason};
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

/// The compiled plan for one day.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DayRouting {
    /// Day this plan covers.
    pub day: DayIndex,
    /// Predicted user active slots, ascending.
    pub slots: Vec<Interval>,
    /// Every hour's cyclic disposition list, back to back in hour
    /// order: hour `h`'s list is `route[hour_start[h]..hour_start[h +
    /// 1]]`, the k-th demand arriving in hour `h` takes its entry
    /// `k mod len`, and an empty list means duty cycle. One flat
    /// allocation, because this rides the per-day hot path.
    route: Vec<Disposition>,
    /// Where each hour's list starts in `route`; the last entry is
    /// `route.len()`.
    hour_start: [u32; HOURS_PER_DAY + 1],
    /// The flight recorder's reason for each `route` entry (`None` for
    /// an `Immediate` placeholder); empty unless
    /// [`DecisionMaker::record_why`] was set while observability was live.
    why: Vec<Option<PlanReason>>,
    /// Total planner profit (ΔE − ΔP over scheduled predicted items).
    pub planned_profit: f64,
}

impl DayRouting {
    /// A plan that schedules nothing (untrained fallback).
    pub fn duty_only(day: DayIndex) -> Self {
        DayRouting {
            day,
            // lint:allow(hot-path-alloc) the empty routing is the caller-owned result value; none of its lists is pushed to
            slots: Vec::new(),
            // lint:allow(hot-path-alloc) the empty routing is the caller-owned result value; none of its lists is pushed to
            route: Vec::new(),
            hour_start: [0; HOURS_PER_DAY + 1],
            // lint:allow(hot-path-alloc) the empty routing is the caller-owned result value; none of its lists is pushed to
            why: Vec::new(),
            planned_profit: 0.0,
        }
    }

    /// Index into `route` of the entry the `k`-th screen-off arrival in
    /// hour `h` takes, or `None` when the hour's list is empty.
    fn entry(&self, hour: usize, k: usize) -> Option<usize> {
        let start = *self.hour_start.get(hour)? as usize;
        let len = *self.hour_start.get(hour + 1)? as usize - start;
        (len > 0).then(|| start + k % len)
    }

    /// Disposition for the `k`-th screen-off arrival in hour `h`.
    pub fn disposition(&self, hour: usize, k: usize) -> Disposition {
        self.entry(hour, k)
            .map_or(Disposition::DutyCycle, |i| self.route[i])
    }

    /// Plan reason for the `k`-th screen-off arrival in hour `h`,
    /// cycled exactly like [`DayRouting::disposition`]. `None` when
    /// why-tracking was off at plan time, the hour routes to duty cycle
    /// by default, or the entry is an `Immediate` placeholder.
    pub fn why_for(&self, hour: usize, k: usize) -> Option<PlanReason> {
        *self.why.get(self.entry(hour, k)?)?
    }

    /// `true` when `t` falls inside a predicted active slot.
    pub fn in_active_slot(&self, t: Timestamp) -> bool {
        self.slots.iter().any(|s| s.contains(t))
    }

    /// Count of dispositions of each kind (diagnostics).
    pub fn disposition_counts(&self) -> (usize, usize, usize, usize) {
        let (mut imm, mut defer, mut pre, mut duty) = (0, 0, 0, 0);
        for d in &self.route {
            match d {
                Disposition::Immediate => imm += 1,
                Disposition::DeferTo { .. } => defer += 1,
                Disposition::PrefetchIn { .. } => pre += 1,
                Disposition::DutyCycle => duty += 1,
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
    /// Whether to record each planner-routed item's [`PlanReason`] in
    /// the routing while observability is live. Part of the
    /// flight-recorder detail level (see
    /// [`crate::policies::NetMasterPolicy::with_flight_recorder`]);
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

    /// Appends one hour's items for a predicted `(count, bytes)` pool:
    /// `count` items (rounded, at least one) of the pool's mean size,
    /// each with a candidate per adjacent slot, `(slot, penalty)`.
    fn push_pool(
        &self,
        items: &mut Vec<OvItem>,
        (count, bytes): (f64, f64),
        left: Option<(usize, f64)>,
        right: Option<(usize, f64)>,
    ) {
        if count <= 0.0 {
            return;
        }
        let n_items = (count.round() as usize).max(1);
        let bytes_per_item = (bytes / count).max(256.0) as u64;
        let duration = (bytes_per_item as f64 / self.link.avg_total_bps())
            .ceil()
            .max(1.0);
        let delta_e = self.saving_j(duration);
        let candidate = |(slot, penalty): (usize, f64)| Candidate {
            slot,
            profit: delta_e - penalty,
        };
        let item = OvItem {
            weight: bytes_per_item.max(1),
            candidates: Candidates::adjacent(left.map(candidate), right.map(candidate)),
        };
        items.extend(std::iter::repeat_n(item, n_items));
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
    /// allocations per solve, and builds each day's instance in the
    /// buffers the previous day left in it.
    // lint:hot-path
    pub fn plan_day_with(
        &self,
        day: DayIndex,
        active: &ActiveSlotPrediction,
        network: &NetworkPrediction,
        scratch: &mut OvScratch,
    ) -> DayRouting {
        let _solve_span = netmaster_obs::span!("solve");
        // A day without predicted slots builds an empty instance and an
        // empty table, neither of which allocates.
        let slots = active.slots_for_day(day);
        let mut problem = scratch.take_problem();
        let (active_hour, hour_first) =
            self.build_instance(day, active, network, &slots, &mut problem);
        netmaster_obs::counter!(
            netmaster_obs::names::PLANNER_SLOTS_TOTAL,
            slots.len() as u64
        );
        netmaster_obs::counter!(
            netmaster_obs::names::PLANNER_ITEMS_TOTAL,
            problem.items.len() as u64
        );
        let solution = overlapped::solve_with(&problem, self.config.epsilon, scratch);

        // Tag the enclosing "solve" span with the solver-arm mix so a
        // slow-trace exemplar explains *which* algorithm ran. Guarded by
        // the capture toggle so the A/B's untraced arm allocates nothing.
        if netmaster_obs::trace_capture_enabled() {
            let mut arms = solution.solver.iter().flatten();
            if let Some(&first) = arms.next() {
                let arm = if arms.all(|&a| a == first) {
                    first.name()
                } else {
                    "mixed"
                };
                netmaster_obs::span_attr!("arm", arm);
            }
        }

        // Flatten into the routing table, hour by hour: an active hour's
        // `Immediate` placeholder, then its items' dispositions. While
        // observability is live, the explanations are built in lockstep
        // so every planner-routed disposition carries its causal record.
        let len = active_hour.iter().filter(|&&on| on).count() + problem.items.len();
        let record_why = self.record_why && netmaster_obs::runtime_enabled();
        // lint:allow(hot-path-alloc) the routing table is the caller-owned result value
        let mut route = Vec::with_capacity(len);
        // lint:allow(hot-path-alloc) the explanations are the caller-owned result value
        let mut why = Vec::with_capacity(if record_why { len } else { 0 });
        let mut hour_start = [0; HOURS_PER_DAY + 1];
        for hour in 0..HOURS_PER_DAY {
            hour_start[hour] = route.len() as u32;
            if active_hour[hour] {
                route.push(Disposition::Immediate);
                if record_why {
                    why.push(None);
                }
            }
            let hour_begins = Interval::hour(day, hour).start;
            for j in hour_first[hour]..hour_first[hour + 1] {
                let (disposition, prefetch) = match solution.assignment[j] {
                    Some(slot) if slots[slot].end <= hour_begins => {
                        (Disposition::PrefetchIn { slot }, true)
                    }
                    Some(slot) => (Disposition::DeferTo { slot }, false),
                    None => (Disposition::DutyCycle, false),
                };
                route.push(disposition);
                if record_why {
                    why.push(Some(plan_reason(solution.why(&problem, j), prefetch)));
                }
            }
        }
        hour_start[HOURS_PER_DAY] = route.len() as u32;
        scratch.put_problem(problem);
        DayRouting {
            day,
            slots,
            route,
            hour_start,
            why,
            planned_profit: solution.profit,
        }
    }

    /// Builds the day's overlapped knapsack instance into `problem`:
    /// one item per predicted screen-off activity `n(p_m, t_i)` — the
    /// per-app dimension of Eq. 3 sizes each item with that app's own
    /// payload — duplicated across the two adjacent slots, and one
    /// capacity per slot. When history has no per-app breakdown, hour
    /// aggregates stand in. Items go in hour by hour. Returns which
    /// hours lie in an active slot, and where each hour's items start
    /// (hour `h`'s are `items[first[h]..first[h + 1]]`).
    fn build_instance(
        &self,
        day: DayIndex,
        active: &ActiveSlotPrediction,
        network: &NetworkPrediction,
        slots: &[Interval],
        problem: &mut OvProblem,
    ) -> ([bool; HOURS_PER_DAY], [usize; HOURS_PER_DAY + 1]) {
        let mut active_hour = [false; HOURS_PER_DAY];
        for (hour, on) in active_hour.iter_mut().enumerate() {
            let start = Interval::hour(day, hour).start;
            *on = slots.iter().any(|s| s.contains(start));
        }
        let mut hour_first = [0usize; HOURS_PER_DAY + 1];
        for hour in 0..HOURS_PER_DAY {
            hour_first[hour] = problem.items.len();
            if active_hour[hour] {
                continue; // active hour: demands execute in place
            }
            if network.expected_count[hour] <= 0.0 {
                continue;
            }
            let hour_iv = Interval::hour(day, hour);
            let mid = hour_iv.midpoint();

            // Adjacent slots: last ending before the hour, first
            // starting after it, each with the penalty of moving there
            // from mid-hour (the same for every pool of the hour).
            let left = slots
                .iter()
                .enumerate()
                .rev()
                .find(|(_, s)| s.end <= hour_iv.start)
                .map(|(i, s)| (i, self.penalty_j(active, mid, s.end)));
            let right = slots
                .iter()
                .enumerate()
                .find(|(_, s)| s.start >= hour_iv.end)
                .map(|(i, s)| (i, self.penalty_j(active, mid, s.start)));
            if left.is_none() && right.is_none() {
                continue;
            }

            // (count, bytes) pools for this hour: per app if known.
            if network.per_app.is_empty() {
                let pool = (network.expected_count[hour], network.expected_bytes[hour]);
                self.push_pool(&mut problem.items, pool, left, right);
            } else {
                for a in &network.per_app {
                    let pool = (a.expected_count[hour], a.expected_bytes[hour]);
                    self.push_pool(&mut problem.items, pool, left, right);
                }
            }
        }
        hour_first[HOURS_PER_DAY] = problem.items.len();
        problem
            .capacities
            .extend(slots.iter().map(|s| self.link.slot_capacity_bytes(s.len())));
        (active_hour, hour_first)
    }
}

/// The flight-recorder record of one solved item: the slot it won and
/// against what competition, or why no slot took it. `prefetch` says
/// whether the winning slot lies before the item's hour.
fn plan_reason(iw: ItemWhy, prefetch: bool) -> PlanReason {
    match iw.chosen {
        Some(won) => PlanReason::Assigned {
            slot: won.slot,
            profit: won.profit,
            weight: iw.weight,
            runner_up_slot: iw.runner_up.map(|c| c.slot),
            runner_up_profit: iw.runner_up.map_or(0.0, |c| c.profit),
            prefetch,
            solver: iw.solver,
        },
        None => PlanReason::Rejected {
            reason: iw.reject.unwrap_or(RejectReason::NoCandidate),
        },
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
        let mut hour_start = [2; HOURS_PER_DAY + 1];
        hour_start[..4].fill(0);
        let r = DayRouting {
            day: 0,
            slots: vec![Interval::new(0, 10)],
            route: vec![Disposition::DeferTo { slot: 0 }, Disposition::DutyCycle],
            hour_start,
            why: Vec::new(),
            planned_profit: 0.0,
        };
        assert_eq!(r.disposition(3, 0), Disposition::DeferTo { slot: 0 });
        assert_eq!(r.disposition(3, 1), Disposition::DutyCycle);
        assert_eq!(r.disposition(3, 2), Disposition::DeferTo { slot: 0 });
        assert_eq!(r.disposition(4, 0), Disposition::DutyCycle);
        assert_eq!(r.disposition(HOURS_PER_DAY, 0), Disposition::DutyCycle);
        assert_eq!(r.why_for(3, 0), None);
        assert_eq!(r.disposition_counts(), (0, 1, 0, 1));
    }

    #[test]
    fn plans_carry_causal_why_when_obs_is_live() {
        let m = maker();
        let pred = two_slot_prediction();
        let net = network_with_hours(&[(3, 2.0, 8_000.0), (8, 1.0, 1_000.0)]);
        let routing = m.plan_day(0, &pred, &net);
        // `why` is aligned with `route`: an explanation for every
        // planner-routed entry, none for the `Immediate` placeholders.
        assert_eq!(routing.why.len(), routing.route.len());
        for (d, w) in routing.route.iter().zip(&routing.why) {
            assert_eq!(w.is_none(), matches!(d, Disposition::Immediate), "{d:?}");
        }
        // Active hour 8: an Immediate placeholder without explanation.
        assert_eq!(routing.disposition(8, 0), Disposition::Immediate);
        assert_eq!(routing.why_for(8, 0), None);
        // Hour 3 demands were deferred into slot 0; the reason names
        // the winning slot, its profit and the item weight.
        assert_eq!(routing.disposition(3, 0), Disposition::DeferTo { slot: 0 });
        let w = routing
            .why_for(3, 0)
            .expect("deferred entry explains itself");
        assert!(
            matches!(
                w,
                PlanReason::Assigned {
                    slot: 0,
                    prefetch: false,
                    profit,
                    weight,
                    ..
                } if profit > 0.0 && weight > 0
            ),
            "{w:?}"
        );
        // Round-trips through serde, why table included.
        let json = serde_json::to_string(&routing).unwrap();
        let back: DayRouting = serde_json::from_str(&json).unwrap();
        assert_eq!(back, routing);
    }

    /// The routing as per-hour lists plus hour-tagged explanations,
    /// rebuilt from the plan's own instance and solution the way the
    /// planner flattened them before the table went flat.
    type PerHour = (Vec<Vec<Disposition>>, Vec<(u8, PlanReason)>, f64);

    fn per_hour_lists(
        m: &DecisionMaker,
        day: DayIndex,
        active: &ActiveSlotPrediction,
        network: &NetworkPrediction,
    ) -> PerHour {
        let slots = active.slots_for_day(day);
        let (mut route, mut why) = (vec![Vec::new(); HOURS_PER_DAY], Vec::new());
        if slots.is_empty() {
            return (route, why, 0.0);
        }
        let mut problem = OvProblem::default();
        let (active_hour, hour_first) =
            m.build_instance(day, active, network, &slots, &mut problem);
        let solution = overlapped::solve(&problem, m.config.epsilon);
        let record_why = m.record_why && netmaster_obs::runtime_enabled();
        for (hour, dispositions) in route.iter_mut().enumerate() {
            if active_hour[hour] {
                dispositions.push(Disposition::Immediate);
            }
            let hour_start = Interval::hour(day, hour).start;
            for j in hour_first[hour]..hour_first[hour + 1] {
                let d = match solution.assignment[j] {
                    Some(slot) => {
                        if slots[slot].end <= hour_start {
                            Disposition::PrefetchIn { slot }
                        } else {
                            Disposition::DeferTo { slot }
                        }
                    }
                    None => Disposition::DutyCycle,
                };
                dispositions.push(d);
                if record_why {
                    let prefetch = matches!(d, Disposition::PrefetchIn { .. });
                    why.push((hour as u8, plan_reason(solution.why(&problem, j), prefetch)));
                }
            }
        }
        (route, why, solution.profit)
    }

    /// The per-hour lookups the flat table replaced.
    fn per_hour_disposition((route, ..): &PerHour, hour: usize, k: usize) -> Disposition {
        let list = &route[hour];
        if list.is_empty() {
            Disposition::DutyCycle
        } else {
            list[k % list.len()]
        }
    }

    fn per_hour_why((route, why, _): &PerHour, hour: usize, k: usize) -> Option<PlanReason> {
        let list = route.get(hour).filter(|l| !l.is_empty())?;
        let k = k % list.len();
        if why.is_empty() || matches!(list[k], Disposition::Immediate) {
            return None;
        }
        let ord = list[..k]
            .iter()
            .filter(|d| !matches!(d, Disposition::Immediate))
            .count();
        why.iter()
            .filter(|(h, _)| *h as usize == hour)
            .nth(ord)
            .map(|&(_, w)| w)
    }

    /// Plans `day` and checks every lookup of the flat table against
    /// the per-hour lists rebuilt from the same solution. Returns the
    /// number of planner-routed entries seen.
    fn assert_flat_matches_per_hour(
        m: &DecisionMaker,
        day: DayIndex,
        active: &ActiveSlotPrediction,
        network: &NetworkPrediction,
        case: &str,
    ) -> usize {
        let routing = m.plan_day(day, active, network);
        let lists = per_hour_lists(m, day, active, network);
        assert_eq!(
            routing.planned_profit.to_bits(),
            lists.2.to_bits(),
            "{case}"
        );
        for hour in 0..=HOURS_PER_DAY {
            let len = lists.0.get(hour).map_or(0, Vec::len);
            for k in 0..2 * len + 3 {
                if hour < HOURS_PER_DAY {
                    let d = per_hour_disposition(&lists, hour, k);
                    assert_eq!(
                        routing.disposition(hour, k),
                        d,
                        "{case}: hour {hour}, k {k}"
                    );
                }
                assert_eq!(
                    routing.why_for(hour, k),
                    per_hour_why(&lists, hour, k),
                    "{case}: hour {hour}, k {k}"
                );
            }
        }
        let (imm, ..) = routing.disposition_counts();
        routing.route.len() - imm
    }

    #[test]
    fn flat_table_matches_the_per_hour_lists() {
        use netmaster_mining::IncrementalMiner;
        use netmaster_trace::gen::TraceGenerator;
        use netmaster_trace::profile::UserProfile;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let cfg = NetMasterConfig::default();
        let mut quiet = maker();
        quiet.record_why = false;
        let mut routed = 0;
        // Panel days, planned from a miner trained on two weeks.
        for (u, profile) in UserProfile::panel().into_iter().enumerate() {
            let trace = TraceGenerator::new(profile)
                .with_seed(7 + u as u64)
                .generate(18);
            let mut miner = IncrementalMiner::new();
            for d in &trace.days[..14] {
                miner.push_day(d);
            }
            let active = miner.predict_confident(cfg.prediction, cfg.prediction_bound, 1.96);
            let network = miner.network_prediction();
            for day in 14..18 {
                let case = format!("user {u}, day {day}");
                routed += assert_flat_matches_per_hour(&maker(), day, &active, &network, &case);
                assert_flat_matches_per_hour(&quiet, day, &active, &network, &case);
            }
        }
        // Random plans: random habits and demand, on links slow enough
        // that some slots bind and spill items to duty cycle.
        let mut rng = StdRng::seed_from_u64(26);
        for case in 0..60 {
            let mut counts = Vec::new();
            let mut kinds = Vec::new();
            for d in 0..7 {
                let mut row = [0u64; 24];
                for c in row.iter_mut() {
                    if rng.random_bool(0.2) {
                        *c = rng.random_range(1..4);
                    }
                }
                counts.push(row);
                kinds.push(netmaster_trace::time::DayKind::of_day(d));
            }
            let active = predict_active_slots(
                &HourlyHistory { counts, kinds },
                PredictionConfig::default(),
            );
            let mut hours = Vec::new();
            for h in 0..24 {
                if rng.random_bool(0.5) {
                    let count = rng.random_range(0.5..6.0);
                    hours.push((h, count, rng.random_range(500.0..90_000.0)));
                }
            }
            let network = network_with_hours(&hours);
            let mut m = maker();
            if case % 2 == 1 {
                let bps = rng.random_range(0.5..20.0);
                m.link.avg_down_bps = bps;
                m.link.avg_up_bps = bps / 2.0;
            }
            let day = rng.random_range(0..14);
            routed +=
                assert_flat_matches_per_hour(&m, day, &active, &network, &format!("case {case}"));
        }
        assert!(routed > 200, "only {routed} planner-routed entries");
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
        let hour = routing.hour_start[3] as usize..routing.hour_start[4] as usize;
        let spilled: Vec<PlanReason> = routing.why[hour]
            .iter()
            .flatten()
            .filter(|w| matches!(w, PlanReason::Rejected { .. }))
            .copied()
            .collect();
        assert!(!spilled.is_empty(), "{routing:?}");
        for w in &spilled {
            assert_eq!(
                *w,
                PlanReason::Rejected {
                    reason: RejectReason::CapacityFull
                }
            );
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
