//! Trace profiling statistics — the measurements behind the paper's
//! motivation section (Figs. 1, 2, 5).

use crate::event::NetworkActivity;
use crate::time::HOURS_PER_DAY;
use crate::trace::Trace;
use serde::{Deserialize, Serialize};

/// Screen-on/off split of network activity for one user (Fig. 1a).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrafficSplit {
    /// User id.
    pub user_id: u32,
    /// Activities starting while the screen is on.
    pub screen_on_count: u64,
    /// Activities starting while the screen is off.
    pub screen_off_count: u64,
    /// Bytes moved while the screen is on.
    pub screen_on_bytes: u64,
    /// Bytes moved while the screen is off.
    pub screen_off_bytes: u64,
}

impl TrafficSplit {
    /// Fraction of network activities that are screen-off
    /// (the paper reports a panel average of 40.98%).
    pub fn screen_off_fraction(&self) -> f64 {
        let total = self.screen_on_count + self.screen_off_count;
        if total == 0 {
            return 0.0;
        }
        self.screen_off_count as f64 / total as f64
    }

    /// Fraction of bytes moved while the screen is off.
    pub fn screen_off_byte_fraction(&self) -> f64 {
        let total = self.screen_on_bytes + self.screen_off_bytes;
        if total == 0 {
            return 0.0;
        }
        self.screen_off_bytes as f64 / total as f64
    }
}

/// Computes the screen-on/off traffic split for a trace.
pub fn traffic_split(trace: &Trace) -> TrafficSplit {
    let mut split = TrafficSplit {
        user_id: trace.user_id,
        screen_on_count: 0,
        screen_off_count: 0,
        screen_on_bytes: 0,
        screen_off_bytes: 0,
    };
    for day in &trace.days {
        for (a, screen_on) in day.activity_screen_states() {
            if screen_on {
                split.screen_on_count += 1;
                split.screen_on_bytes += a.volume();
            } else {
                split.screen_off_count += 1;
                split.screen_off_bytes += a.volume();
            }
        }
    }
    split
}

/// Empirical CDF of per-activity mean transfer rates (Fig. 1b),
/// split by screen state. Rates in bytes/second.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RateCdf {
    /// Sorted screen-on rates (B/s).
    pub screen_on: Vec<f64>,
    /// Sorted screen-off rates (B/s).
    pub screen_off: Vec<f64>,
}

impl RateCdf {
    /// Fraction of transfers at or below `rate_bps` in the given series.
    fn fraction_below(series: &[f64], rate_bps: f64) -> f64 {
        if series.is_empty() {
            return 0.0;
        }
        let n = series.partition_point(|&r| r <= rate_bps);
        n as f64 / series.len() as f64
    }

    /// CDF value for screen-on transfers.
    pub fn screen_on_fraction_below(&self, rate_bps: f64) -> f64 {
        Self::fraction_below(&self.screen_on, rate_bps)
    }

    /// CDF value for screen-off transfers.
    pub fn screen_off_fraction_below(&self, rate_bps: f64) -> f64 {
        Self::fraction_below(&self.screen_off, rate_bps)
    }

    /// `q`-quantile (0..1) of a series; `None` when empty.
    pub fn quantile(series: &[f64], q: f64) -> Option<f64> {
        if series.is_empty() {
            return None;
        }
        let idx = ((series.len() - 1) as f64 * q.clamp(0.0, 1.0)).round() as usize;
        Some(series[idx])
    }
}

/// Byte-counter sampling period while the screen is on (the monitoring
/// component's 1 s timer, §V-A).
pub const SCREEN_ON_SAMPLE_SECS: u64 = 1;
/// Sampling period while the screen is off (the 30 s timer).
pub const SCREEN_OFF_SAMPLE_SECS: u64 = 30;

/// Builds the transfer-rate CDFs for a set of traces pooled together.
///
/// Rates are *sampling-window* rates, matching how the monitoring
/// component observes them: bytes divided by the sampling window the
/// transfer lands in — at least 1 s while the screen is on, at least
/// 30 s while it is off. A 3 kB push sync measured through the 30 s
/// screen-off timer reads 100 B/s even if the radio burst itself took
/// a second; that is why Fig. 1(b)'s screen-off distribution sits below
/// 1 kB/s.
pub fn rate_cdf(traces: &[Trace]) -> RateCdf {
    let mut cdf = RateCdf::default();
    for trace in traces {
        for day in &trace.days {
            for (a, screen_on) in day.activity_screen_states() {
                if screen_on {
                    let window = a.duration.max(SCREEN_ON_SAMPLE_SECS);
                    cdf.screen_on.push(a.volume() as f64 / window as f64);
                } else {
                    let window = a.duration.max(SCREEN_OFF_SAMPLE_SECS);
                    cdf.screen_off.push(a.volume() as f64 / window as f64);
                }
            }
        }
    }
    cdf.screen_on.sort_by(f64::total_cmp);
    cdf.screen_off.sort_by(f64::total_cmp);
    cdf
}

/// Screen-on time utilization for one user (Fig. 2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScreenOnUtilization {
    /// User id.
    pub user_id: u32,
    /// Mean screen-on session length in seconds.
    pub avg_session_secs: f64,
    /// Mean *utilized* (transfer-overlapped) seconds per session.
    pub avg_utilized_secs: f64,
}

impl ScreenOnUtilization {
    /// The paper's *radio utilization ratio*: utilized / total screen-on
    /// time (panel average 45.14%).
    pub fn utilization_ratio(&self) -> f64 {
        if self.avg_session_secs == 0.0 {
            return 0.0;
        }
        self.avg_utilized_secs / self.avg_session_secs
    }
}

/// Computes screen-on utilization for a trace.
pub fn screen_on_utilization(trace: &Trace) -> ScreenOnUtilization {
    let mut sessions = 0u64;
    let mut on_secs = 0u64;
    let mut used_secs = 0u64;
    for day in &trace.days {
        sessions += day.sessions.len() as u64;
        on_secs += day.screen_on_seconds();
        used_secs += day.utilized_screen_on_seconds();
    }
    let n = sessions.max(1) as f64;
    ScreenOnUtilization {
        user_id: trace.user_id,
        avg_session_secs: on_secs as f64 / n,
        avg_utilized_secs: used_secs as f64 / n,
    }
}

/// Per-app, per-hour usage intensity over a whole trace (Fig. 5):
/// `counts[app][hour]` is the number of interactions with `app` in that
/// hour-of-day, summed over all days.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AppHourlyIntensity {
    /// App names, aligned with `counts` rows.
    pub apps: Vec<String>,
    /// `counts[app][hour]`.
    pub counts: Vec<[u64; HOURS_PER_DAY]>,
}

impl AppHourlyIntensity {
    /// Total uses of app row `i`.
    pub fn total(&self, i: usize) -> u64 {
        self.counts[i].iter().sum()
    }

    /// Index of the most-used app, if any.
    pub fn dominant(&self) -> Option<usize> {
        (0..self.apps.len()).max_by_key(|&i| self.total(i))
    }
}

/// Computes hourly intensity for every app that has at least one
/// interaction *and* at least one network activity — the paper's
/// definition of an app that shows up in Fig. 5.
pub fn app_hourly_intensity(trace: &Trace) -> AppHourlyIntensity {
    let napps = trace.apps.len();
    let mut counts = vec![[0u64; HOURS_PER_DAY]; napps];
    let mut has_net = vec![false; napps];
    for day in &trace.days {
        for i in &day.interactions {
            counts[i.app.index()][crate::time::hour_of(i.at)] += 1;
        }
        for a in &day.activities {
            has_net[a.app.index()] = true;
        }
    }
    let mut out = AppHourlyIntensity {
        apps: Vec::new(),
        counts: Vec::new(),
    };
    for (id, name) in trace.apps.iter() {
        let used: u64 = counts[id.index()].iter().sum();
        if used > 0 && has_net[id.index()] {
            out.apps.push(name.to_owned());
            out.counts.push(counts[id.index()]);
        }
    }
    out
}

/// Mean rate of an activity set in bytes/s, `None` when empty.
pub fn mean_rate(activities: &[&NetworkActivity]) -> Option<f64> {
    if activities.is_empty() {
        return None;
    }
    Some(activities.iter().map(|a| a.mean_rate_bps()).sum::<f64>() / activities.len() as f64)
}

/// Fraction of interactions at risk under a fixed-interval delay scheme
/// with window `delay_secs`: an interaction is *affected* when some
/// screen-off network activity started within the preceding
/// `delay_secs` — the radio would still be held off (the transfer
/// deferred) when the user picks up the phone. This is the paper's §III
/// observation that 17% of interactions fall inside sub-100 s gaps
/// between adjacent screen-off slots, and the quantity Fig. 8(c) sweeps.
pub fn delay_affected_interactions(trace: &Trace, delay_secs: u64) -> f64 {
    let mut affected = 0usize;
    let mut total = 0usize;
    for day in &trace.days {
        let off_starts: Vec<u64> = day.screen_off_activities().map(|a| a.start).collect();
        for i in &day.interactions {
            total += 1;
            // Binary search: any screen-off start in [at - delay, at]?
            let lo = i.at.saturating_sub(delay_secs);
            let idx = off_starts.partition_point(|&s| s < lo);
            if off_starts.get(idx).is_some_and(|&s| s <= i.at) {
                affected += 1;
            }
        }
    }
    if total == 0 {
        0.0
    } else {
        affected as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ActivityCause, Interaction};
    use crate::gen::generate_panel;
    use crate::trace::DayTrace;

    fn synthetic_day() -> Trace {
        let mut t = Trace::new(1);
        let app = t.apps.register("a");
        let quiet = t.apps.register("quiet");
        let mut d = DayTrace::new(0);
        d.sessions = vec![crate::event::ScreenSession {
            start: 100,
            end: 200,
        }];
        d.interactions = vec![
            Interaction {
                at: 120,
                app,
                needs_network: true,
            },
            Interaction {
                at: 150,
                app: quiet,
                needs_network: false,
            },
        ];
        d.activities = vec![
            NetworkActivity {
                start: 120,
                duration: 10,
                bytes_down: 1_000,
                bytes_up: 0,
                app,
                cause: ActivityCause::Foreground,
            },
            NetworkActivity {
                start: 300,
                duration: 20,
                bytes_down: 400,
                bytes_up: 100,
                app,
                cause: ActivityCause::Background,
            },
        ];
        t.days.push(d);
        t
    }

    #[test]
    fn traffic_split_counts_by_screen_state() {
        let t = synthetic_day();
        let s = traffic_split(&t);
        assert_eq!(s.screen_on_count, 1);
        assert_eq!(s.screen_off_count, 1);
        assert_eq!(s.screen_on_bytes, 1_000);
        assert_eq!(s.screen_off_bytes, 500);
        assert!((s.screen_off_fraction() - 0.5).abs() < 1e-12);
        assert!((s.screen_off_byte_fraction() - 500.0 / 1500.0).abs() < 1e-12);
    }

    #[test]
    fn empty_split_is_zero() {
        let t = Trace::new(9);
        let s = traffic_split(&t);
        assert_eq!(s.screen_off_fraction(), 0.0);
        assert_eq!(s.screen_off_byte_fraction(), 0.0);
    }

    #[test]
    fn rate_cdf_orders_and_queries() {
        let t = synthetic_day();
        let cdf = rate_cdf(std::slice::from_ref(&t));
        assert_eq!(cdf.screen_on.len(), 1);
        assert_eq!(cdf.screen_off.len(), 1);
        // Screen-on transfer: 1000 B over a 10 s window = 100 B/s.
        assert_eq!(cdf.screen_on_fraction_below(99.0), 0.0);
        assert_eq!(cdf.screen_on_fraction_below(100.0), 1.0);
        // Screen-off transfer: 500 B through the 30 s sampling window
        // (the transfer's own 20 s is shorter) = 16.7 B/s.
        assert_eq!(cdf.screen_off_fraction_below(17.0), 1.0);
        assert_eq!(cdf.screen_off_fraction_below(16.0), 0.0);
        assert_eq!(RateCdf::quantile(&cdf.screen_on, 0.5), Some(100.0));
        assert_eq!(RateCdf::quantile(&[], 0.5), None);
    }

    #[test]
    fn utilization_ratio_for_synthetic_day() {
        let t = synthetic_day();
        let u = screen_on_utilization(&t);
        // One 100 s session, 10 s of it overlapped by a transfer.
        assert!((u.avg_session_secs - 100.0).abs() < 1e-9);
        assert!((u.avg_utilized_secs - 10.0).abs() < 1e-9);
        assert!((u.utilization_ratio() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn app_intensity_requires_usage_and_network() {
        let t = synthetic_day();
        let ai = app_hourly_intensity(&t);
        // "quiet" was used but moved no bytes; excluded.
        assert_eq!(ai.apps, vec!["a".to_owned()]);
        assert_eq!(ai.total(0), 1);
        assert_eq!(ai.dominant(), Some(0));
        assert_eq!(ai.counts[0][0], 1); // 120 s into day 0 = hour 0
    }

    #[test]
    fn panel_screen_off_fraction_is_substantial() {
        // The paper's headline motivation: ≈41% of activities screen-off.
        let traces = generate_panel(14, 1234);
        let fractions: Vec<f64> = traces
            .iter()
            .map(|t| traffic_split(t).screen_off_fraction())
            .collect();
        let avg = fractions.iter().sum::<f64>() / fractions.len() as f64;
        assert!(
            (0.2..=0.7).contains(&avg),
            "panel screen-off fraction {avg} out of plausible band"
        );
    }

    #[test]
    fn panel_rates_match_fig1b_bands() {
        let traces = generate_panel(7, 99);
        let cdf = rate_cdf(&traces);
        // 90% of screen-off transfers below ~1 kB/s; screen-on below ~5 kB/s.
        let off90 = RateCdf::quantile(&cdf.screen_off, 0.9).unwrap();
        let on90 = RateCdf::quantile(&cdf.screen_on, 0.9).unwrap();
        assert!(off90 < 2_000.0, "off p90 = {off90} B/s");
        assert!(on90 < 10_000.0, "on p90 = {on90} B/s");
        assert!(on90 > off90, "screen-on rates should exceed screen-off");
    }

    #[test]
    fn delay_affected_fraction_grows_with_window() {
        let traces = generate_panel(7, 5);
        for t in &traces {
            let f0 = delay_affected_interactions(t, 0);
            let f100 = delay_affected_interactions(t, 100);
            let f600 = delay_affected_interactions(t, 600);
            assert!((0.0..=1.0).contains(&f100));
            assert!(f0 <= f100 && f100 <= f600, "monotone in the window");
        }
        // Panel-wide, a 600 s window must catch noticeably more
        // interactions than a 100 s window (the paper's Fig. 8(c) trend).
        let avg = |d: u64| {
            traces
                .iter()
                .map(|t| delay_affected_interactions(t, d))
                .sum::<f64>()
                / 8.0
        };
        assert!(avg(600) > avg(100));
        assert!(
            avg(100) > 0.0,
            "some interactions are at risk even at 100 s"
        );
    }

    #[test]
    fn delay_affected_synthetic_case() {
        // One screen-off activity at t=300; interactions at 250, 350, 1000.
        let mut t = Trace::new(1);
        let app = t.apps.register("a");
        let mut d = DayTrace::new(0);
        d.sessions = vec![
            crate::event::ScreenSession {
                start: 240,
                end: 260,
            },
            crate::event::ScreenSession {
                start: 340,
                end: 360,
            },
            crate::event::ScreenSession {
                start: 990,
                end: 1_010,
            },
        ];
        d.interactions = vec![
            Interaction {
                at: 250,
                app,
                needs_network: false,
            },
            Interaction {
                at: 350,
                app,
                needs_network: false,
            },
            Interaction {
                at: 1_000,
                app,
                needs_network: false,
            },
        ];
        d.activities = vec![NetworkActivity {
            start: 300,
            duration: 5,
            bytes_down: 10,
            bytes_up: 0,
            app,
            cause: ActivityCause::Background,
        }];
        t.days.push(d);
        // Window 100: only the interaction at 350 follows the activity
        // within 100 s.
        assert!((delay_affected_interactions(&t, 100) - 1.0 / 3.0).abs() < 1e-12);
        // Window 900 additionally catches t=1000.
        assert!((delay_affected_interactions(&t, 900) - 2.0 / 3.0).abs() < 1e-12);
        // Window 0 catches only exact coincidence: none.
        assert_eq!(delay_affected_interactions(&t, 0), 0.0);
    }
}
