//! Hour-level prediction of user active slots (Eq. 2) and screen-off
//! network active slots (Eq. 3), with the paper's impact-based δ
//! threshold strategy (§IV-C1).

use crate::intensity::HourlyHistory;
use netmaster_trace::time::{DayIndex, DayKind, Interval, Timestamp, HOURS_PER_DAY};
use netmaster_trace::trace::Trace;
use serde::{Deserialize, Serialize};

/// Threshold configuration. The paper chooses small interrupt budgets —
/// δ = 0.2 on weekdays, δ = 0.1 on weekends — trading energy for user
/// experience (Fig. 10(c) puts the energy/accuracy balance at δ≈0.37).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictionConfig {
    /// Max tolerated interrupt probability on weekdays.
    pub delta_weekday: f64,
    /// Max tolerated interrupt probability on weekends.
    pub delta_weekend: f64,
}

impl Default for PredictionConfig {
    fn default() -> Self {
        PredictionConfig {
            delta_weekday: 0.2,
            delta_weekend: 0.1,
        }
    }
}

impl PredictionConfig {
    /// δ for a given day kind.
    pub fn delta(&self, kind: DayKind) -> f64 {
        match kind {
            DayKind::Weekday => self.delta_weekday,
            DayKind::Weekend => self.delta_weekend,
        }
    }

    /// A single δ for both day kinds (used in the Fig. 10(c) sweep).
    pub fn uniform(delta: f64) -> Self {
        PredictionConfig {
            delta_weekday: delta,
            delta_weekend: delta,
        }
    }
}

/// Predicted user active slots, per day kind.
///
/// An hour is *active* when `Pr[u(t_i)] > δ` — the impact-based
/// strategy: by construction the maximum usage probability among the
/// hours declared inactive is at most δ, bounding the expected chance
/// of an undesired interrupt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ActiveSlotPrediction {
    /// Active flags per hour, weekdays.
    pub weekday: [bool; HOURS_PER_DAY],
    /// Active flags per hour, weekends.
    pub weekend: [bool; HOURS_PER_DAY],
    /// `Pr[u(t_i)]` per hour, weekdays.
    pub prob_weekday: [f64; HOURS_PER_DAY],
    /// `Pr[u(t_i)]` per hour, weekends.
    pub prob_weekend: [f64; HOURS_PER_DAY],
}

impl ActiveSlotPrediction {
    /// Active-hour flags for a day kind.
    pub fn hours(&self, kind: DayKind) -> &[bool; HOURS_PER_DAY] {
        match kind {
            DayKind::Weekday => &self.weekday,
            DayKind::Weekend => &self.weekend,
        }
    }

    /// Usage probabilities for a day kind.
    pub fn probs(&self, kind: DayKind) -> &[f64; HOURS_PER_DAY] {
        match kind {
            DayKind::Weekday => &self.prob_weekday,
            DayKind::Weekend => &self.prob_weekend,
        }
    }

    /// `Pr[u(t)]` at a timestamp.
    pub fn prob_at(&self, t: Timestamp) -> f64 {
        self.probs(DayKind::of_timestamp(t))[netmaster_trace::time::hour_of(t)]
    }

    /// `true` when the timestamp falls in a predicted active slot.
    pub fn is_active(&self, t: Timestamp) -> bool {
        self.hours(DayKind::of_timestamp(t))[netmaster_trace::time::hour_of(t)]
    }

    /// The merged active slots of one absolute day, as intervals
    /// (contiguous active hours fuse into one slot — the paper's slot
    /// set `U`; slots "don't have a fixed length").
    pub fn slots_for_day(&self, day: DayIndex) -> Vec<Interval> {
        let hours = self.hours(DayKind::of_day(day));
        // lint:allow(hot-path-alloc) the slot list is the caller-owned result value (the planner's `DayRouting::slots`)
        let mut out = Vec::new();
        let mut h = 0;
        while h < HOURS_PER_DAY {
            if hours[h] {
                let start = h;
                while h < HOURS_PER_DAY && hours[h] {
                    h += 1;
                }
                out.push(Interval::new(
                    netmaster_trace::time::at_hour(day, start),
                    netmaster_trace::time::at_hour(day, h - 1)
                        + netmaster_trace::time::SECS_PER_HOUR,
                ));
            } else {
                h += 1;
            }
        }
        out
    }

    /// Number of active hours for a day kind.
    pub fn active_hour_count(&self, kind: DayKind) -> usize {
        self.hours(kind).iter().filter(|&&b| b).count()
    }

    /// Max `Pr[u]` among inactive hours — the realized interrupt bound;
    /// by construction ≤ δ.
    pub fn residual_risk(&self, kind: DayKind) -> f64 {
        self.hours(kind)
            .iter()
            .zip(self.probs(kind))
            .filter(|(active, _)| !**active)
            .map(|(_, p)| *p)
            .fold(0.0, f64::max)
    }
}

/// Predicts user active slots from history with the given thresholds
/// (Eq. 2 with thr(u) = δ per day kind).
pub fn predict_active_slots(
    history: &HourlyHistory,
    cfg: PredictionConfig,
) -> ActiveSlotPrediction {
    let prob_weekday = history.usage_probability(DayKind::Weekday);
    let prob_weekend = history.usage_probability(DayKind::Weekend);
    let mut weekday = [false; HOURS_PER_DAY];
    let mut weekend = [false; HOURS_PER_DAY];
    for h in 0..HOURS_PER_DAY {
        weekday[h] = prob_weekday[h] > cfg.delta_weekday;
        weekend[h] = prob_weekend[h] > cfg.delta_weekend;
    }
    ActiveSlotPrediction {
        weekday,
        weekend,
        prob_weekday,
        prob_weekend,
    }
}

/// One app's predicted screen-off activity per hour — the `n(p_m, t_i)`
/// of Eq. 3.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppNetworkPrediction {
    /// Which app.
    pub app: netmaster_trace::event::AppId,
    /// Expected screen-off activities per hour-of-day.
    pub expected_count: [f64; HOURS_PER_DAY],
    /// Expected screen-off bytes per hour-of-day.
    pub expected_bytes: [f64; HOURS_PER_DAY],
}

impl AppNetworkPrediction {
    /// This app's expected screen-off activities per day.
    pub fn daily_count(&self) -> f64 {
        self.expected_count.iter().sum()
    }
}

/// Predicted screen-off network activity (Eq. 3): expected activity
/// count and byte volume per hour, estimated from history — aggregate
/// and per app (`n(p_m, t_i)` keeps the app dimension, which the
/// scheduler uses to size items). Hours with any observed screen-off
/// traffic are *network active slots* (`T_n`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkPrediction {
    /// Expected screen-off activities per hour-of-day (all apps).
    pub expected_count: [f64; HOURS_PER_DAY],
    /// Expected screen-off bytes per hour-of-day (all apps).
    pub expected_bytes: [f64; HOURS_PER_DAY],
    /// `Pr[n(t_i)] > 0` — hour saw screen-off traffic at least once.
    pub active: [bool; HOURS_PER_DAY],
    /// Per-app breakdown, sorted by descending daily count.
    pub per_app: Vec<AppNetworkPrediction>,
}

impl NetworkPrediction {
    /// Extracts the prediction from a training trace.
    pub fn from_trace(trace: &Trace) -> Self {
        use std::collections::HashMap;
        let mut count = [0.0; HOURS_PER_DAY];
        let mut bytes = [0.0; HOURS_PER_DAY];
        let mut apps: HashMap<
            netmaster_trace::event::AppId,
            ([f64; HOURS_PER_DAY], [f64; HOURS_PER_DAY]),
        > = HashMap::new();
        let days = trace.num_days().max(1) as f64;
        for day in &trace.days {
            for a in day.screen_off_activities() {
                let h = netmaster_trace::time::hour_of(a.start);
                count[h] += 1.0;
                bytes[h] += a.volume() as f64;
                let entry = apps
                    .entry(a.app)
                    .or_insert(([0.0; HOURS_PER_DAY], [0.0; HOURS_PER_DAY]));
                entry.0[h] += 1.0;
                entry.1[h] += a.volume() as f64;
            }
        }
        let mut active = [false; HOURS_PER_DAY];
        for h in 0..HOURS_PER_DAY {
            count[h] /= days;
            bytes[h] /= days;
            active[h] = count[h] > 0.0;
        }
        let mut per_app: Vec<AppNetworkPrediction> = apps
            .into_iter()
            .map(|(app, (mut c, mut b))| {
                for h in 0..HOURS_PER_DAY {
                    c[h] /= days;
                    b[h] /= days;
                }
                AppNetworkPrediction {
                    app,
                    expected_count: c,
                    expected_bytes: b,
                }
            })
            .collect();
        // Tie-break by app id so the ordering (and everything downstream,
        // e.g. knapsack item order) is deterministic — HashMap iteration
        // order is not.
        per_app.sort_by(|a, b| {
            b.daily_count()
                .total_cmp(&a.daily_count())
                .then_with(|| a.app.cmp(&b.app))
        });
        NetworkPrediction {
            expected_count: count,
            expected_bytes: bytes,
            active,
            per_app,
        }
    }

    /// Total expected screen-off activities per day.
    pub fn daily_count(&self) -> f64 {
        self.expected_count.iter().sum()
    }

    /// Total expected screen-off bytes per day.
    pub fn daily_bytes(&self) -> f64 {
        self.expected_bytes.iter().sum()
    }

    /// Number of apps with predicted screen-off traffic.
    pub fn app_count(&self) -> usize {
        self.per_app.len()
    }
}

/// Prediction accuracy on a held-out trace: the fraction of actual
/// interactions that fall inside predicted active slots (the metric of
/// Fig. 10(c)). Returns 1.0 for a trace with no interactions.
pub fn prediction_accuracy(pred: &ActiveSlotPrediction, test: &Trace) -> f64 {
    let mut total = 0usize;
    let mut hit = 0usize;
    for i in test.all_interactions() {
        total += 1;
        if pred.is_active(i.at) {
            hit += 1;
        }
    }
    if total == 0 {
        1.0
    } else {
        hit as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;
    use netmaster_trace::time::SECS_PER_HOUR;

    fn history(rows: &[(DayKind, [u64; 24])]) -> HourlyHistory {
        HourlyHistory {
            counts: rows.iter().map(|r| r.1).collect(),
            kinds: rows.iter().map(|r| r.0).collect(),
        }
    }

    fn row(hours: &[usize]) -> [u64; 24] {
        let mut r = [0u64; 24];
        for &h in hours {
            r[h] = 1;
        }
        r
    }

    #[test]
    fn threshold_splits_active_hours() {
        // Hour 8 used 3/3 weekdays, hour 12 used 1/3.
        let h = history(&[
            (DayKind::Weekday, row(&[8, 12])),
            (DayKind::Weekday, row(&[8])),
            (DayKind::Weekday, row(&[8])),
        ]);
        let pred = predict_active_slots(&h, PredictionConfig::uniform(0.5));
        assert!(pred.weekday[8]);
        assert!(!pred.weekday[12], "1/3 < δ=0.5");
        // Lower δ admits hour 12.
        let pred = predict_active_slots(&h, PredictionConfig::uniform(0.2));
        assert!(pred.weekday[12]);
    }

    #[test]
    fn residual_risk_is_bounded_by_delta() {
        let h = history(&[
            (DayKind::Weekday, row(&[7, 8, 9])),
            (DayKind::Weekday, row(&[8, 13])),
            (DayKind::Weekday, row(&[8, 9, 21])),
            (DayKind::Weekday, row(&[8, 21])),
        ]);
        for delta in [0.1, 0.2, 0.3, 0.5, 0.8] {
            let pred = predict_active_slots(&h, PredictionConfig::uniform(delta));
            assert!(
                pred.residual_risk(DayKind::Weekday) <= delta + 1e-12,
                "δ={delta}: residual {}",
                pred.residual_risk(DayKind::Weekday)
            );
        }
    }

    #[test]
    fn weekday_weekend_use_their_own_delta() {
        let h = history(&[
            (DayKind::Weekday, row(&[8])),
            (DayKind::Weekday, row(&[9])),
            (DayKind::Weekend, row(&[11])),
            (DayKind::Weekend, row(&[12])),
        ]);
        // Pr = 0.5 in each used hour of its kind.
        let pred = predict_active_slots(
            &h,
            PredictionConfig {
                delta_weekday: 0.6,
                delta_weekend: 0.3,
            },
        );
        assert!(!pred.weekday[8], "0.5 < 0.6 on weekdays");
        assert!(pred.weekend[11], "0.5 > 0.3 on weekends");
    }

    #[test]
    fn slots_merge_contiguous_hours() {
        let h = history(&[(DayKind::Weekday, row(&[7, 8, 9, 14, 20, 21]))]);
        let pred = predict_active_slots(&h, PredictionConfig::uniform(0.5));
        let slots = pred.slots_for_day(0); // Monday
        assert_eq!(slots.len(), 3);
        assert_eq!(slots[0].len(), 3 * SECS_PER_HOUR);
        assert_eq!(slots[1].len(), SECS_PER_HOUR);
        assert_eq!(slots[2].len(), 2 * SECS_PER_HOUR);
        assert_eq!(pred.active_hour_count(DayKind::Weekday), 6);
    }

    #[test]
    fn is_active_uses_day_kind_of_timestamp() {
        let h = history(&[
            (DayKind::Weekday, row(&[8])),
            (DayKind::Weekend, row(&[14])),
        ]);
        let pred = predict_active_slots(&h, PredictionConfig::uniform(0.5));
        let monday_8am = netmaster_trace::time::at_hour(0, 8);
        let saturday_8am = netmaster_trace::time::at_hour(5, 8);
        let saturday_2pm = netmaster_trace::time::at_hour(5, 14);
        assert!(pred.is_active(monday_8am));
        assert!(!pred.is_active(saturday_8am));
        assert!(pred.is_active(saturday_2pm));
        assert!(pred.prob_at(monday_8am) > 0.9);
    }

    #[test]
    fn network_prediction_counts_screen_off_only() {
        let profile = UserProfile::panel().remove(0);
        let trace = TraceGenerator::new(profile).with_seed(5).generate(7);
        let np = NetworkPrediction::from_trace(&trace);
        assert!(np.daily_count() > 1.0, "expect daily screen-off syncs");
        assert!(np.daily_bytes() > 0.0);
        // Night hours must show background traffic.
        assert!(np.active[3] || np.active[4] || np.active[2]);
        // Counts are per-day averages: can't exceed total/num_days.
        let total_off: usize = trace
            .days
            .iter()
            .map(|d| d.screen_off_activities().count())
            .sum();
        assert!((np.daily_count() - total_off as f64 / 7.0).abs() < 1e-9);
        // Per-app breakdown sums back to the aggregate.
        assert!(np.app_count() >= 2, "several apps sync in the background");
        let app_sum: f64 = np.per_app.iter().map(|a| a.daily_count()).sum();
        assert!(
            (app_sum - np.daily_count()).abs() < 1e-9,
            "per-app partition"
        );
        // Sorted by descending daily count.
        for w in np.per_app.windows(2) {
            assert!(w[0].daily_count() >= w[1].daily_count());
        }
    }

    #[test]
    fn accuracy_on_self_history_is_high_for_regular_user() {
        let profile = UserProfile::panel().remove(3); // regular commuter
        let trace = TraceGenerator::new(profile).with_seed(21).generate(21);
        let train = trace.slice_days(0, 14);
        let test = trace.slice_days(14, 21);
        let h = HourlyHistory::from_trace(&train);
        let pred = predict_active_slots(&h, PredictionConfig::default());
        let acc = prediction_accuracy(&pred, &test);
        assert!(acc > 0.75, "regular user predicted poorly: {acc}");
    }

    #[test]
    fn accuracy_degrades_with_higher_delta() {
        let profile = UserProfile::panel().remove(1);
        let trace = TraceGenerator::new(profile).with_seed(9).generate(21);
        let train = trace.slice_days(0, 14);
        let test = trace.slice_days(14, 21);
        let h = HourlyHistory::from_trace(&train);
        let lo = prediction_accuracy(
            &predict_active_slots(&h, PredictionConfig::uniform(0.05)),
            &test,
        );
        let hi = prediction_accuracy(
            &predict_active_slots(&h, PredictionConfig::uniform(0.9)),
            &test,
        );
        assert!(
            lo >= hi,
            "accuracy should not increase with δ: {lo} vs {hi}"
        );
    }

    #[test]
    fn empty_test_trace_is_vacuously_accurate() {
        let pred = predict_active_slots(&HourlyHistory::default(), PredictionConfig::default());
        assert_eq!(prediction_accuracy(&pred, &Trace::new(1)), 1.0);
    }
}
