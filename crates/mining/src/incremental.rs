//! Incrementally-updated mining state — the fleet-scale hot path.
//!
//! [`NetMasterPolicy`](../../netmaster_core/policies/netmaster) retrains
//! after every simulated day. The batch pipeline re-derives everything
//! from the full history each time: `O(D)` trace clones, `O(D · 24)`
//! intensity scans, `O(D²·24)` habit-stability correlations and a full
//! [`NetworkPrediction`] rebuild — per day, per fleet member. An
//! [`IncrementalMiner`] maintains the same statistics as running
//! aggregates so absorbing a new day is `O(24 + events_in_day)` and
//! every query is answered from caches.
//!
//! **Equivalence contract** (property-tested): every query is
//! *bit-for-bit* equal to its batch counterpart over the same days.
//! This holds because all cached aggregates are either integer-valued
//! (exact in `u64`, and the batch code's f64 accumulation of small
//! integers is exact too) or f64 sums accumulated in the identical
//! order as the batch scan.

use crate::confidence::{predict_with_confidence_from_counts, Bound};
use crate::intensity::HourlyHistory;
use crate::pearson::pearson;
use crate::prediction::{
    ActiveSlotPrediction, AppNetworkPrediction, NetworkPrediction, PredictionConfig,
};
use crate::special::SpecialApps;
use crate::stability::StabilityReport;
use netmaster_trace::event::{AppId, NetworkActivity};
use netmaster_trace::time::{hour_of, DayKind, HOURS_PER_DAY};
use netmaster_trace::trace::DayTrace;

/// Number of day kinds (weekday, weekend); indexed by `DayKind as usize`.
const KINDS: usize = 2;

/// One app's raw screen-off (count, bytes) hourly totals.
type AppHourlyTotals = Box<([f64; HOURS_PER_DAY], [f64; HOURS_PER_DAY])>;

/// Mining state that absorbs one day at a time.
///
/// Feed days in chronological order with [`IncrementalMiner::push_day`];
/// query predictions, stability, and network forecasts at any point.
/// After discarding history (habit-drift reset), build a fresh miner
/// from the retained days.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct IncrementalMiner {
    /// The raw per-day hourly rows (24 `u64`s per day — cheap to keep).
    history: HourlyHistory,
    /// Days recorded per kind.
    days_of: [u64; KINDS],
    /// `usage_days[k][h]`: days of kind `k` with any usage in hour `h`.
    usage_days: [[u64; HOURS_PER_DAY]; KINDS],
    /// `kind_sums[k][h]`: total interactions in hour `h` over kind-`k` days.
    kind_sums: [[u64; HOURS_PER_DAY]; KINDS],
    /// Habit-stability series, maintained as days arrive.
    series: Vec<(usize, f64)>,
    /// Running sum of the series (for the mean score).
    score_sum: f64,
    /// Raw screen-off activity counts per hour (pre-division totals).
    net_count: [f64; HOURS_PER_DAY],
    /// Raw screen-off bytes per hour (pre-division totals).
    net_bytes: [f64; HOURS_PER_DAY],
    /// Per-app raw (count, bytes) totals, indexed by the dense app id;
    /// `None` until the app's first screen-off activity. Ascending
    /// index order matches the BTreeMap ordering this replaced.
    per_app: Vec<Option<AppHourlyTotals>>,
    /// Special-apps profile, folded day by day.
    special: SpecialApps,
}

impl IncrementalMiner {
    /// Fresh, empty miner.
    pub fn new() -> Self {
        IncrementalMiner::default()
    }

    /// Re-mines from scratch over `days` — the drift-reaction hook:
    /// when a detector decides the learned habit no longer matches
    /// reality, the stale aggregate is discarded and the model restarts
    /// from only the retained fresh days. Bit-for-bit identical to
    /// pushing the same days into [`IncrementalMiner::new`].
    pub fn rebuilt_from<'a>(days: impl IntoIterator<Item = &'a DayTrace>) -> Self {
        netmaster_obs::counter!(netmaster_obs::names::MINING_REMINE_TOTAL);
        let mut m = IncrementalMiner::new();
        for d in days {
            m.push_day(d);
        }
        m
    }

    /// Absorbs one day of monitoring data. `O(24 + events_in_day)`.
    // lint:hot-path
    pub fn push_day(&mut self, day: &DayTrace) {
        self.absorb(day, day.activity_screen_states());
    }

    /// [`IncrementalMiner::push_day`] for a day whose screen states are
    /// already walked: `screen_on[i]` is
    /// [`DayTrace::activity_screen_states`]' answer for
    /// `day.activities[i]`.
    // lint:hot-path
    pub fn push_day_with(&mut self, day: &DayTrace, screen_on: &[bool]) {
        debug_assert_eq!(screen_on.len(), day.activities.len());
        self.absorb(day, day.activities.iter().zip(screen_on.iter().copied()));
    }

    fn absorb<'a>(
        &mut self,
        day: &DayTrace,
        states: impl Iterator<Item = (&'a NetworkActivity, bool)>,
    ) {
        netmaster_obs::counter!(netmaster_obs::names::MINING_DAYS_ABSORBED_TOTAL);
        let mut row = [0u64; HOURS_PER_DAY];
        for i in &day.interactions {
            row[hour_of(i.at)] += 1;
        }
        let kind = DayKind::of_day(day.day);
        let k = kind as usize;

        // Stability point for today against the trailing same-kind mean
        // — computed before today joins the aggregates, exactly like
        // `habit_stability`'s prior-days reference (min_reference = 2).
        let n = self.days_of[k];
        if n >= 2 {
            let mut reference = [0.0f64; HOURS_PER_DAY];
            for (h, r) in reference.iter_mut().enumerate() {
                *r = self.kind_sums[k][h] as f64 / n as f64;
            }
            let mut today = [0.0f64; HOURS_PER_DAY];
            for (t, &c) in today.iter_mut().zip(row.iter()) {
                *t = c as f64;
            }
            let r = pearson(&today, &reference);
            self.series.push((self.history.num_days(), r));
            self.score_sum += r;
        }

        // Intensity aggregates.
        self.days_of[k] += 1;
        for (h, &c) in row.iter().enumerate() {
            self.kind_sums[k][h] += c;
            if c > 0 {
                self.usage_days[k][h] += 1;
            }
        }
        self.history.counts.push(row);
        self.history.kinds.push(kind);

        // Network-prediction totals, accumulated in the same order the
        // batch scan visits activities (so f64 sums match bit-for-bit).
        for a in states.filter_map(|(a, on)| (!on).then_some(a)) {
            let h = hour_of(a.start);
            self.net_count[h] += 1.0;
            self.net_bytes[h] += a.volume() as f64;
            let i = a.app.0 as usize;
            if i >= self.per_app.len() {
                self.per_app.resize_with(i + 1, || None);
            }
            let entry = self.per_app[i]
                // lint:allow(hot-path-alloc) boxed once per app lifetime, not per day — amortized to zero across the history
                .get_or_insert_with(|| Box::new(([0.0; HOURS_PER_DAY], [0.0; HOURS_PER_DAY])));
            entry.0[h] += 1.0;
            entry.1[h] += a.volume() as f64;
        }

        self.special.observe_day(day);
    }

    /// Days absorbed so far.
    pub fn num_days(&self) -> usize {
        self.history.num_days()
    }

    /// The accumulated hourly rows (for code that still wants the
    /// batch-shaped view).
    pub fn history(&self) -> &HourlyHistory {
        &self.history
    }

    /// The maintained Special Apps profile.
    pub fn special_apps(&self) -> &SpecialApps {
        &self.special
    }

    /// `Pr[u(t_i)]` per hour for a day kind — equals
    /// [`HourlyHistory::usage_probability`] over the same days.
    pub fn usage_probability(&self, kind: DayKind) -> [f64; HOURS_PER_DAY] {
        let k = kind as usize;
        let mut v = [0.0; HOURS_PER_DAY];
        if self.days_of[k] == 0 {
            return v;
        }
        for (h, x) in v.iter_mut().enumerate() {
            *x = self.usage_days[k][h] as f64 / self.days_of[k] as f64;
        }
        v
    }

    /// Mean intensity per hour over all days — equals
    /// [`HourlyHistory::mean_intensity`] over the same days.
    pub fn mean_intensity(&self) -> [f64; HOURS_PER_DAY] {
        let mut v = [0.0; HOURS_PER_DAY];
        let days = self.num_days();
        if days == 0 {
            return v;
        }
        for (h, x) in v.iter_mut().enumerate() {
            *x = (self.kind_sums[0][h] + self.kind_sums[1][h]) as f64 / days as f64;
        }
        v
    }

    /// Confidence-aware active-slot prediction from the cached Bernoulli
    /// counts — equals [`crate::predict_with_confidence`] over the same
    /// days, in O(24) instead of O(days · 24).
    pub fn predict_confident(
        &self,
        cfg: PredictionConfig,
        bound: Bound,
        z: f64,
    ) -> ActiveSlotPrediction {
        predict_with_confidence_from_counts(&self.usage_days, self.days_of, cfg, bound, z)
    }

    /// The habit-stability series, `(day index, correlation)`: the
    /// [`IncrementalMiner::stability`] report's, without the copy.
    pub fn stability_series(&self) -> &[(usize, f64)] {
        &self.series
    }

    /// The habit-stability report — equals [`crate::habit_stability`]
    /// over the same days. The series itself is maintained per-push;
    /// this just packages it.
    pub fn stability(&self) -> StabilityReport {
        let score = if self.series.is_empty() {
            0.0
        } else {
            self.score_sum / self.series.len() as f64
        };
        StabilityReport {
            series: self.series.clone(),
            score,
        }
    }

    /// Screen-off network forecast — equals
    /// [`NetworkPrediction::from_trace`] over the same days.
    pub fn network_prediction(&self) -> NetworkPrediction {
        let days = self.num_days().max(1) as f64;
        let mut count = self.net_count;
        let mut bytes = self.net_bytes;
        let mut active = [false; HOURS_PER_DAY];
        for h in 0..HOURS_PER_DAY {
            count[h] /= days;
            bytes[h] /= days;
            active[h] = count[h] > 0.0;
        }
        // Sized up front: a filtered `collect` would grow it by
        // reallocation.
        let apps = self.per_app.iter().filter(|e| e.is_some()).count();
        // lint:allow(hot-path-alloc) NetworkPrediction::per_app is the caller-owned result value
        let mut per_app = Vec::with_capacity(apps);
        per_app.extend(
            self.per_app
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.as_ref().map(|e| (AppId(i as u16), e)))
                .map(|(app, e)| {
                    let mut c = e.0;
                    let mut b = e.1;
                    for h in 0..HOURS_PER_DAY {
                        c[h] /= days;
                        b[h] /= days;
                    }
                    AppNetworkPrediction {
                        app,
                        expected_count: c,
                        expected_bytes: b,
                    }
                }),
        );
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{habit_stability, predict_with_confidence};
    use netmaster_trace::gen::TraceGenerator;
    use netmaster_trace::profile::UserProfile;
    use netmaster_trace::trace::Trace;

    fn trace_for(user: usize, days: usize, seed: u64) -> Trace {
        TraceGenerator::new(UserProfile::panel().remove(user))
            .with_seed(seed)
            .generate(days)
    }

    /// The incremental miner must agree with the batch pipeline
    /// *bit-for-bit* at every prefix of the history, for every panel
    /// user — this is the contract that lets the policy switch over.
    #[test]
    fn matches_batch_pipeline_at_every_prefix() {
        for user in 0..4 {
            let trace = trace_for(user, 14, 1000 + user as u64);
            let mut miner = IncrementalMiner::new();
            for upto in 1..=trace.days.len() {
                miner.push_day(&trace.days[upto - 1]);
                let prefix = trace.slice_days(0, upto);
                let batch = HourlyHistory::from_trace(&prefix);
                assert_eq!(miner.history(), &batch, "user {user} upto {upto}");
                for kind in [DayKind::Weekday, DayKind::Weekend] {
                    assert_eq!(
                        miner.usage_probability(kind),
                        batch.usage_probability(kind),
                        "user {user} upto {upto}"
                    );
                }
                assert_eq!(miner.mean_intensity(), batch.mean_intensity());
                // Stability: identical series and score.
                assert_eq!(miner.stability(), habit_stability(&batch));
                // Confidence prediction: identical flags and probs.
                let cfg = PredictionConfig::default();
                for bound in [Bound::Upper, Bound::Point, Bound::Lower] {
                    assert_eq!(
                        miner.predict_confident(cfg, bound, 1.96),
                        predict_with_confidence(&batch, cfg, bound, 1.96),
                        "user {user} upto {upto} {bound:?}"
                    );
                }
                // Network forecast: identical aggregates AND per-app order.
                assert_eq!(
                    miner.network_prediction(),
                    NetworkPrediction::from_trace(&prefix)
                );
                // Special apps: identical profile.
                assert_eq!(miner.special_apps(), &SpecialApps::from_trace(&prefix));
            }
        }
    }

    /// The drift-reaction rebuild is exactly a fresh miner fed the same
    /// days — no hidden carry-over from the discarded aggregate.
    #[test]
    fn rebuilt_from_equals_fresh_pushes() {
        let trace = trace_for(2, 9, 77);
        let rebuilt = IncrementalMiner::rebuilt_from(&trace.days[7..]);
        let mut fresh = IncrementalMiner::new();
        for d in &trace.days[7..] {
            fresh.push_day(d);
        }
        assert_eq!(rebuilt.num_days(), 2);
        assert_eq!(rebuilt.history(), fresh.history());
        assert_eq!(rebuilt.stability(), fresh.stability());
        assert_eq!(rebuilt.network_prediction(), fresh.network_prediction());
        assert_eq!(rebuilt.special_apps(), fresh.special_apps());
    }

    /// `push_day_with` over the day's walked screen states is
    /// `push_day`, on panel days and on a day whose unsorted sessions
    /// take `activity_screen_states`' point-query fallback.
    #[test]
    fn push_day_with_walked_states_matches_push_day() {
        let states =
            |d: &DayTrace| -> Vec<bool> { d.activity_screen_states().map(|(_, on)| on).collect() };
        for user in 0..4 {
            let mut trace = trace_for(user, 10, 500 + user as u64);
            let unsorted = &mut trace.days[9];
            unsorted.sessions.reverse();
            assert!(!unsorted.sessions.is_sorted_by_key(|s| s.start));
            let (mut walked, mut shared) = (IncrementalMiner::new(), IncrementalMiner::new());
            for d in &trace.days {
                walked.push_day(d);
                shared.push_day_with(d, &states(d));
                assert_eq!(walked, shared, "user {user} day {}", d.day);
                assert_eq!(walked.network_prediction(), shared.network_prediction());
            }
        }
    }

    #[test]
    fn empty_miner_is_all_zero() {
        let m = IncrementalMiner::new();
        assert_eq!(m.num_days(), 0);
        assert_eq!(m.mean_intensity(), [0.0; 24]);
        assert_eq!(m.usage_probability(DayKind::Weekday), [0.0; 24]);
        assert_eq!(m.stability().series.len(), 0);
        assert_eq!(m.network_prediction().daily_count(), 0.0);
    }

    #[test]
    fn push_is_constant_work_per_day() {
        // Not a timing test — a structural one: absorbing day d must
        // not rescan history, so the per-app totals and series grow
        // monotonically without recomputation artifacts.
        let trace = trace_for(3, 21, 9);
        let mut m = IncrementalMiner::new();
        let mut prev_series_len = 0;
        for d in &trace.days {
            m.push_day(d);
            let len = m.stability().series.len();
            assert!(len >= prev_series_len && len <= prev_series_len + 1);
            prev_series_len = len;
        }
        assert_eq!(m.num_days(), 21);
    }
}
