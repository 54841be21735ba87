//! Runners for the motivation/profiling figures (Figs. 1–5, §III).

use crate::harness;
use netmaster_mining::{cross_day_matrix, cross_user_matrix};
use netmaster_trace::profiling::{
    app_hourly_intensity, rate_cdf, screen_on_utilization, traffic_split, RateCdf,
};
use serde::Serialize;

/// Fig. 1(a): screen-on/off traffic split per user.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1a {
    /// `(user, screen_on_fraction, screen_off_fraction)` rows.
    pub rows: Vec<(u32, f64, f64)>,
    /// Panel-average screen-off fraction (paper: 0.4098).
    pub avg_screen_off: f64,
}

/// Runs Fig. 1(a).
pub fn fig1a() -> Fig1a {
    let traces = harness::panel();
    let rows: Vec<(u32, f64, f64)> = traces
        .iter()
        .map(|t| {
            let s = traffic_split(t);
            (
                t.user_id,
                1.0 - s.screen_off_fraction(),
                s.screen_off_fraction(),
            )
        })
        .collect();
    let avg = rows.iter().map(|r| r.2).sum::<f64>() / rows.len() as f64;
    Fig1a {
        rows,
        avg_screen_off: avg,
    }
}

impl Fig1a {
    /// Prints the figure data.
    pub fn print(&self) {
        println!("Fig 1(a) — network activity distribution (fraction of activities)");
        println!("{:>6} {:>10} {:>11}", "user", "screen-on", "screen-off");
        for (u, on, off) in &self.rows {
            println!("{u:>6} {on:>10.3} {off:>11.3}");
        }
        println!(
            "panel avg screen-off: {:.4}  (paper: 0.4098)",
            self.avg_screen_off
        );
    }
}

/// Fig. 1(b): transfer-rate CDF, screen-on vs screen-off.
#[derive(Debug, Clone, Serialize)]
pub struct Fig1b {
    /// `(rate_bps, cdf_screen_on, cdf_screen_off)` at grid points.
    pub rows: Vec<(f64, f64, f64)>,
    /// 90th-percentile screen-on rate (paper: below 5 kB/s).
    pub p90_on: f64,
    /// 90th-percentile screen-off rate (paper: below 1 kB/s).
    pub p90_off: f64,
}

/// Runs Fig. 1(b).
pub fn fig1b() -> Fig1b {
    let traces = harness::panel();
    let cdf = rate_cdf(&traces);
    let grid: Vec<f64> = (0..=10).map(|i| i as f64 * 500.0).collect(); // 0..5 kB/s in 0.5 kB/s steps
    let rows = grid
        .iter()
        .map(|&r| {
            (
                r,
                cdf.screen_on_fraction_below(r),
                cdf.screen_off_fraction_below(r),
            )
        })
        .collect();
    Fig1b {
        rows,
        p90_on: RateCdf::quantile(&cdf.screen_on, 0.9).unwrap_or(0.0),
        p90_off: RateCdf::quantile(&cdf.screen_off, 0.9).unwrap_or(0.0),
    }
}

impl Fig1b {
    /// Prints the figure data.
    pub fn print(&self) {
        println!("Fig 1(b) — bandwidth utilization CDF (sampling-window rates)");
        println!(
            "{:>10} {:>10} {:>11}",
            "rate B/s", "screen-on", "screen-off"
        );
        for (r, on, off) in &self.rows {
            println!("{r:>10.0} {on:>10.3} {off:>11.3}");
        }
        println!(
            "p90 screen-on: {:.0} B/s (paper: <5000)   p90 screen-off: {:.0} B/s (paper: <1000)",
            self.p90_on, self.p90_off
        );
    }
}

/// Fig. 2: screen-on time utilization per user.
///
/// The paper's *radio utilization ratio* counts screen-on seconds with
/// the radio in a non-idle RRC state — promotion and inactivity tails
/// included — so the ratio is computed from the radio model's
/// [`radio_on_spans`](netmaster_radio::RrcModel::radio_on_spans), with
/// the payload-only ratio reported alongside.
#[derive(Debug, Clone, Serialize)]
pub struct Fig2 {
    /// `(user, avg_session_secs, radio_utilized_secs, payload_secs)` rows.
    pub rows: Vec<(u32, f64, f64, f64)>,
    /// Panel-average radio utilization ratio (paper: 0.4514).
    pub avg_ratio: f64,
    /// Panel-average payload-only utilization ratio.
    pub avg_payload_ratio: f64,
}

/// Runs Fig. 2.
pub fn fig2() -> Fig2 {
    use netmaster_radio::RrcModel;
    use netmaster_trace::time::overlap_with;
    let traces = harness::panel();
    let radio = RrcModel::wcdma_default();
    let mut rows = Vec::new();
    let mut ratio_sum = 0.0;
    let mut payload_sum = 0.0;
    for t in &traces {
        let mut sessions = 0u64;
        let mut on_secs = 0u64;
        let mut radio_secs = 0u64;
        for day in &t.days {
            let spans: Vec<_> = day.activities.iter().map(|a| a.span()).collect();
            let on_spans = radio.radio_on_spans(&spans);
            sessions += day.sessions.len() as u64;
            on_secs += day.screen_on_seconds();
            radio_secs += day
                .sessions
                .iter()
                .map(|s| overlap_with(&on_spans, &s.span()))
                .sum::<u64>();
        }
        let u = screen_on_utilization(t);
        let n = sessions.max(1) as f64;
        rows.push((
            t.user_id,
            on_secs as f64 / n,
            radio_secs as f64 / n,
            u.avg_utilized_secs,
        ));
        ratio_sum += radio_secs as f64 / on_secs.max(1) as f64;
        payload_sum += u.utilization_ratio();
    }
    let n = traces.len() as f64;
    Fig2 {
        rows,
        avg_ratio: ratio_sum / n,
        avg_payload_ratio: payload_sum / n,
    }
}

impl Fig2 {
    /// Prints the figure data.
    pub fn print(&self) {
        println!("Fig 2 — screen-on time utilization");
        println!(
            "{:>6} {:>12} {:>14} {:>13} {:>8}",
            "user", "avg-on (s)", "radio-used (s)", "payload (s)", "ratio"
        );
        for (u, avg, radio, payload) in &self.rows {
            println!(
                "{u:>6} {avg:>12.1} {radio:>14.1} {payload:>13.1} {:>8.3}",
                radio / avg
            );
        }
        println!(
            "panel avg radio utilization: {:.4} (paper: 0.4514); payload-only: {:.4}",
            self.avg_ratio, self.avg_payload_ratio
        );
    }
}

/// Figs. 3/4: a correlation matrix with its off-diagonal mean.
#[derive(Debug, Clone, Serialize)]
pub struct FigMatrix {
    /// Which figure ("3" or "4").
    pub fig: String,
    /// The matrix.
    pub matrix: Vec<Vec<f64>>,
    /// Mean off-diagonal value.
    pub avg: f64,
    /// Minimum off-diagonal value.
    pub min: f64,
}

/// Runs Fig. 3 (cross-user Pearson; paper avg 0.1353).
pub fn fig3() -> FigMatrix {
    let traces = harness::panel();
    let m = cross_user_matrix(&traces);
    FigMatrix {
        fig: "3".into(),
        avg: m.mean_offdiag(),
        min: m.min_offdiag(),
        matrix: m.values,
    }
}

/// Runs Fig. 4 (day-by-day Pearson for user 4; paper avg 0.8171).
pub fn fig4() -> FigMatrix {
    let traces = harness::panel();
    let m = cross_day_matrix(&traces[3], 8);
    FigMatrix {
        fig: "4".into(),
        avg: m.mean_offdiag(),
        min: m.min_offdiag(),
        matrix: m.values,
    }
}

impl FigMatrix {
    /// Prints the matrix.
    pub fn print(&self) {
        let paper = if self.fig == "3" { 0.1353 } else { 0.8171 };
        println!(
            "Fig {} — Pearson matrix (avg {:.4}, paper {paper})",
            self.fig, self.avg
        );
        for row in &self.matrix {
            let cells: Vec<String> = row.iter().map(|v| format!("{v:>6.2}")).collect();
            println!("  {}", cells.join(" "));
        }
        println!("min off-diagonal: {:.3}", self.min);
    }
}

/// Fig. 5: hourly usage intensity of user 3's networked apps.
#[derive(Debug, Clone, Serialize)]
pub struct Fig5 {
    /// App names.
    pub apps: Vec<String>,
    /// Weekly usage totals per app.
    pub totals: Vec<u64>,
    /// Hourly series per app.
    pub hourly: Vec<[u64; 24]>,
    /// Dominant app name and its share of all usage.
    pub dominant: (String, f64),
}

/// Runs Fig. 5 over user 3's first week.
pub fn fig5() -> Fig5 {
    let traces = harness::panel();
    let week = traces[2].slice_days(0, 7);
    let ai = app_hourly_intensity(&week);
    let totals: Vec<u64> = (0..ai.apps.len()).map(|i| ai.total(i)).collect();
    let total_usage: u64 = week.all_interactions().count() as u64;
    let dom = ai.dominant().expect("user 3 uses networked apps");
    let share = ai.total(dom) as f64 / total_usage.max(1) as f64;
    Fig5 {
        apps: ai.apps.clone(),
        totals,
        hourly: ai.counts.clone(),
        dominant: (ai.apps[dom].clone(), share),
    }
}

impl Fig5 {
    /// Prints the figure data.
    pub fn print(&self) {
        println!(
            "Fig 5 — one-week program pattern, user 3 ({} networked apps used)",
            self.apps.len()
        );
        println!("{:>32} {:>7} {:>9}", "app", "uses", "peak-hour");
        for (i, app) in self.apps.iter().enumerate() {
            let peak = (0..24).max_by_key(|&h| self.hourly[i][h]).unwrap_or(0);
            println!("{app:>32} {:>7} {peak:>9}", self.totals[i]);
        }
        println!(
            "dominant: {} with {:.1}% of all usage (paper: com.tencent.mm, 59%, 8 of 23 apps)",
            self.dominant.0,
            100.0 * self.dominant.1
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig1a_fractions_sum_to_one() {
        let f = fig1a();
        assert_eq!(f.rows.len(), 8);
        for (_, on, off) in &f.rows {
            assert!((on + off - 1.0).abs() < 1e-9);
        }
        assert!(
            (0.25..0.6).contains(&f.avg_screen_off),
            "avg {}",
            f.avg_screen_off
        );
    }

    #[test]
    fn fig1b_cdf_is_monotone() {
        let f = fig1b();
        for w in f.rows.windows(2) {
            assert!(w[1].1 >= w[0].1);
            assert!(w[1].2 >= w[0].2);
        }
        assert!(f.p90_off < f.p90_on, "screen-off rates sit lower");
        assert!(
            f.p90_off < 1_000.0,
            "paper band: p90 off < 1 kB/s, got {}",
            f.p90_off
        );
        assert!(
            f.p90_on < 10_000.0,
            "paper band: p90 on < 5 kB/s (×2 slack), got {}",
            f.p90_on
        );
    }

    #[test]
    fn fig2_utilization_in_band() {
        let f = fig2();
        assert!(
            (0.25..0.8).contains(&f.avg_ratio),
            "radio ratio {}",
            f.avg_ratio
        );
        assert!(
            f.avg_payload_ratio < f.avg_ratio,
            "tails must widen utilization"
        );
        for (_, avg, radio, payload) in &f.rows {
            assert!(payload <= radio, "payload within radio-on time");
            assert!(radio <= avg, "radio-on within the session");
        }
    }

    #[test]
    fn fig2_ratios_are_pinned_bit_for_bit() {
        // Radio-on spans are a view of the RRC timeline; a change to how
        // they are derived must not move the figure by a single bit.
        let f = fig2();
        assert_eq!(
            f.avg_ratio.to_bits(),
            0x3fe0_066d_023b_de16,
            "{}",
            f.avg_ratio
        );
        assert_eq!(
            f.avg_payload_ratio.to_bits(),
            0x3fc6_be31_3421_2b4d,
            "{}",
            f.avg_payload_ratio
        );
    }

    #[test]
    fn fig3_low_fig4_high() {
        let f3 = fig3();
        let f4 = fig4();
        assert_eq!(f3.matrix.len(), 8);
        assert_eq!(f4.matrix.len(), 8);
        assert!(f4.avg > f3.avg + 0.2, "fig4 {} vs fig3 {}", f4.avg, f3.avg);
        assert!(f4.avg > 0.6, "user 4 regularity: {}", f4.avg);
    }

    #[test]
    fn fig5_dominant_is_wechat() {
        let f = fig5();
        assert_eq!(f.dominant.0, "com.tencent.mm");
        assert!(f.dominant.1 > 0.4);
        assert!(
            (5..=12).contains(&f.apps.len()),
            "paper: 8 networked apps, got {}",
            f.apps.len()
        );
    }
}
