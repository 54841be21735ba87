//! Habit stability: is this user predictable enough for NetMaster?
//!
//! The paper's Fig. 4 observation — a user's days correlate strongly —
//! is the precondition for everything downstream. This module turns it
//! into an operational score: the rolling Pearson correlation between
//! each day and the trailing same-kind usage pattern. A stable habit
//! scores near 1; a schedule change shows up as a dip the middleware
//! can react to (e.g. by discounting stale history, see
//! [`EwmaModel`](crate::EwmaModel)).

use crate::intensity::HourlyHistory;
use crate::pearson::pearson;
use netmaster_trace::time::{DayKind, HOURS_PER_DAY};
use serde::{Deserialize, Serialize};

/// Stability analysis of one user's history.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StabilityReport {
    /// Per-day correlation of that day's usage vector with the mean of
    /// the preceding same-kind days (NaN-free: days without a valid
    /// reference are skipped). `(day_index, correlation)`.
    pub series: Vec<(usize, f64)>,
    /// Mean of the series — the user's overall habit stability.
    pub score: f64,
}

impl StabilityReport {
    /// Day indices whose correlation sits more than `drop` below the
    /// running mean of the preceding points — candidate habit breaks.
    pub fn drift_days(&self, drop: f64) -> Vec<usize> {
        drift_points(&self.series, drop).collect()
    }

    /// `true` when the habit is stable enough for hour-level prediction
    /// (the paper's panel averages 0.54; below ~0.2 the miner is
    /// guessing).
    pub fn is_predictable(&self) -> bool {
        self.score > 0.2
    }
}

/// The days of a stability `series` whose correlation sits more than
/// `drop` below the running mean of the preceding points, in series
/// order: [`StabilityReport::drift_days`] without the report or the
/// list.
pub fn drift_points(series: &[(usize, f64)], drop: f64) -> impl Iterator<Item = usize> + '_ {
    let mut sum = 0.0;
    series.iter().enumerate().filter_map(move |(i, &(day, r))| {
        let drifted = i >= 3 && r < sum / i as f64 - drop;
        sum += r;
        drifted.then_some(day)
    })
}

/// Computes the stability report over a history. Each day of kind `k`
/// is correlated against the mean intensity vector of all *prior* days
/// of kind `k` (at least `min_reference` of them).
///
/// ```
/// use netmaster_mining::{habit_stability, HourlyHistory};
/// use netmaster_trace::gen::generate_panel;
///
/// let trace = &generate_panel(21, 7)[3]; // the metronomic commuter
/// let report = habit_stability(&HourlyHistory::from_trace(trace));
/// assert!(report.score > 0.5);
/// assert!(report.is_predictable());
/// ```
pub fn habit_stability(history: &HourlyHistory) -> StabilityReport {
    habit_stability_with(history, 2)
}

/// [`habit_stability`] with an explicit minimum reference-day count.
pub fn habit_stability_with(history: &HourlyHistory, min_reference: usize) -> StabilityReport {
    let mut series = Vec::new();
    for (d, (row, kind)) in history.counts.iter().zip(&history.kinds).enumerate() {
        // Mean vector of prior same-kind days.
        let mut reference = [0.0f64; HOURS_PER_DAY];
        let mut n = 0usize;
        for (prev_row, prev_kind) in history.counts[..d].iter().zip(&history.kinds[..d]) {
            if prev_kind == kind {
                for (h, &c) in prev_row.iter().enumerate() {
                    reference[h] += c as f64;
                }
                n += 1;
            }
        }
        if n < min_reference {
            continue;
        }
        for r in &mut reference {
            *r /= n as f64;
        }
        let today: Vec<f64> = row.iter().map(|&c| c as f64).collect();
        series.push((d, pearson(&today, &reference)));
    }
    let score = if series.is_empty() {
        0.0
    } else {
        series.iter().map(|&(_, r)| r).sum::<f64>() / series.len() as f64
    };
    StabilityReport { series, score }
}

/// Stability of one day kind only (weekdays or weekends).
pub fn habit_stability_for(history: &HourlyHistory, kind: DayKind) -> StabilityReport {
    let filtered = HourlyHistory {
        counts: history
            .counts
            .iter()
            .zip(&history.kinds)
            .filter(|(_, k)| **k == kind)
            .map(|(c, _)| *c)
            .collect(),
        kinds: history
            .kinds
            .iter()
            .filter(|k| **k == kind)
            .copied()
            .collect(),
    };
    habit_stability(&filtered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;
    use netmaster_trace::scenario;

    fn history_for(user: usize, days: usize, seed: u64) -> HourlyHistory {
        let trace = TraceGenerator::new(UserProfile::panel().remove(user))
            .with_seed(seed)
            .generate(days);
        HourlyHistory::from_trace(&trace)
    }

    #[test]
    fn regular_commuter_scores_high() {
        let h = history_for(3, 21, 11); // user 4
        let r = habit_stability(&h);
        assert!(r.score > 0.6, "commuter stability {}", r.score);
        assert!(r.is_predictable());
        assert!(!r.series.is_empty());
    }

    #[test]
    fn light_user_scores_lower_than_commuter_on_average() {
        // A single 3-week window is noisy; compare over several seeds.
        let seeds = [7u64, 11, 23, 42];
        let mean = |user: usize| {
            seeds
                .iter()
                .map(|&s| habit_stability(&history_for(user, 21, s)).score)
                .sum::<f64>()
                / seeds.len() as f64
        };
        let commuter = mean(3); // user 4, regularity 0.90
        let light = mean(5); // user 6, regularity 0.48
        assert!(
            light < commuter + 0.02,
            "light {light:.3} vs commuter {commuter:.3}"
        );
    }

    #[test]
    fn schedule_change_is_detected_as_drift() {
        let trace = scenario::schedule_change(21, 12, 3);
        let h = HourlyHistory::from_trace(&trace);
        let r = habit_stability(&h);
        let drifts = r.drift_days(0.3);
        // The shift to night work around day 12 must register.
        assert!(
            drifts.iter().any(|&d| (12..16).contains(&d)),
            "drift days {drifts:?} miss the day-12 schedule change"
        );
        // And a steady user of the same length must NOT.
        let steady = habit_stability(&history_for(3, 21, 3));
        let false_alarms = steady.drift_days(0.3);
        assert!(
            false_alarms.len() <= 2,
            "steady user flagged too often: {false_alarms:?}"
        );
    }

    #[test]
    fn empty_and_short_histories_are_safe() {
        let r = habit_stability(&HourlyHistory::default());
        assert_eq!(r.series.len(), 0);
        assert_eq!(r.score, 0.0);
        assert!(!r.is_predictable());
        // Two days: the first same-kind day lacks references.
        let h = history_for(0, 2, 1);
        let r = habit_stability(&h);
        assert!(r.series.len() <= 1);
    }

    #[test]
    fn per_kind_stability_separates_weekends() {
        let h = history_for(7, 21, 9); // weekend warrior
        let wd = habit_stability_for(&h, DayKind::Weekday);
        let we = habit_stability_for(&h, DayKind::Weekend);
        // Both defined; series lengths reflect day counts (15 wd, 6 we
        // in 21 days, minus reference warm-up).
        assert!(wd.series.len() > we.series.len());
        for (_, r) in wd.series.iter().chain(&we.series) {
            assert!((-1.0..=1.0).contains(r));
        }
    }
}
