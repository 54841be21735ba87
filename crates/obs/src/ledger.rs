//! The energy ledger: rolls [`ActivityTrace`]
//! lifecycle records into per-app / per-day energy bills
//! (baseline-vs-NetMaster deltas) and exemplar links — from the
//! aggregate latency/saving histograms down to the worst offending
//! trace ids. This is the aggregation half of the flight recorder; the
//! recording half lives in [`crate::tracectx`].

use crate::tracectx::ActivityTrace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One app's energy bill for one day, summed over its apportioned
/// activities.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppBill {
    /// Numeric app id from the trace.
    pub app: u16,
    /// Day the bill covers.
    pub day: usize,
    /// Activities billed (only records with an energy apportionment).
    pub activities: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Joules under the stock radio at natural times.
    pub baseline_j: f64,
    /// Joules apportioned under the NetMaster plan.
    pub netmaster_j: f64,
}

impl AppBill {
    /// Baseline minus NetMaster: positive when NetMaster saved energy.
    #[inline]
    pub fn saved_j(&self) -> f64 {
        self.baseline_j - self.netmaster_j
    }
}

/// Bills every (app, day) pair present in `records`, skipping records
/// whose energy has not been apportioned yet. Sorted by (day, app).
pub fn bill(records: &[ActivityTrace]) -> Vec<AppBill> {
    let mut by_key: BTreeMap<(usize, u16), AppBill> = BTreeMap::new();
    for r in records {
        let Some(e) = r.energy else { continue };
        let b = by_key.entry((r.day, r.app)).or_insert(AppBill {
            app: r.app,
            day: r.day,
            activities: 0,
            bytes: 0,
            baseline_j: 0.0,
            netmaster_j: 0.0,
        });
        b.activities += 1;
        b.bytes += r.bytes;
        b.baseline_j += e.baseline_j;
        b.netmaster_j += e.actual_j;
    }
    by_key.into_values().collect()
}

/// Collapses per-day bills into one bill per app (day set to 0),
/// sorted by descending baseline energy — the paper's "energy
/// devourers" ranking, now derived from the causal ledger.
pub fn by_app(bills: &[AppBill]) -> Vec<AppBill> {
    let mut by_app: BTreeMap<u16, AppBill> = BTreeMap::new();
    for b in bills {
        let t = by_app.entry(b.app).or_insert(AppBill {
            app: b.app,
            day: 0,
            activities: 0,
            bytes: 0,
            baseline_j: 0.0,
            netmaster_j: 0.0,
        });
        t.activities += b.activities;
        t.bytes += b.bytes;
        t.baseline_j += b.baseline_j;
        t.netmaster_j += b.netmaster_j;
    }
    let mut out: Vec<AppBill> = by_app.into_values().collect();
    out.sort_by(|a, b| {
        b.baseline_j
            .partial_cmp(&a.baseline_j)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.app.cmp(&b.app))
    });
    out
}

/// The `k` records with the largest scheduling latency — the exemplar
/// link from the `deferral_latency_seconds` /
/// `duty_service_latency_seconds` histogram tails to concrete trace
/// ids. Ties break toward the smaller trace id (deterministic).
pub fn worst_by_latency(records: &[ActivityTrace], k: usize) -> Vec<ActivityTrace> {
    let mut v: Vec<ActivityTrace> = records.to_vec();
    v.sort_by(|a, b| {
        b.latency_secs
            .cmp(&a.latency_secs)
            .then(a.trace_id.cmp(&b.trace_id))
    });
    v.truncate(k);
    v
}

/// The `k` apportioned records with the most NetMaster-plan energy —
/// the exemplar link from the saving aggregates to the activities that
/// still cost the most. Ties break toward the smaller trace id.
pub fn worst_by_energy(records: &[ActivityTrace], k: usize) -> Vec<ActivityTrace> {
    let mut v: Vec<ActivityTrace> = records
        .iter()
        .filter(|r| r.energy.is_some())
        .copied()
        .collect();
    let actual = |r: &ActivityTrace| r.energy.map_or(0.0, |e| e.actual_j);
    v.sort_by(|a, b| {
        actual(b)
            .partial_cmp(&actual(a))
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.trace_id.cmp(&b.trace_id))
    });
    v.truncate(k);
    v
}

/// Screen-off share of traffic and energy, derived from ledger records
/// instead of aggregate counters (the paper's §III breakdown: ≈41% of
/// traffic happens screen-off).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ScreenOffShare {
    /// Fraction of activities that arrived screen-off.
    pub activity_fraction: f64,
    /// Fraction of bytes moved by screen-off arrivals.
    pub byte_fraction: f64,
    /// Fraction of baseline energy charged to screen-off arrivals.
    pub baseline_energy_fraction: f64,
}

/// Computes the screen-off breakdown over `records`.
pub fn screen_off_share(records: &[ActivityTrace]) -> ScreenOffShare {
    let (mut n, mut n_off) = (0u64, 0u64);
    let (mut bytes, mut bytes_off) = (0u64, 0u64);
    let (mut base, mut base_off) = (0f64, 0f64);
    for r in records {
        n += 1;
        bytes += r.bytes;
        let e = r.energy.map(|e| e.baseline_j).unwrap_or(0.0);
        base += e;
        if !r.screen_on {
            n_off += 1;
            bytes_off += r.bytes;
            base_off += e;
        }
    }
    let frac = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    ScreenOffShare {
        activity_fraction: frac(n_off as f64, n as f64),
        byte_fraction: frac(bytes_off as f64, bytes as f64),
        baseline_energy_fraction: frac(base_off, base),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracectx::{EnergyShare, Outcome, PlanReason};

    fn rec(
        day: usize,
        idx: usize,
        app: u16,
        bytes: u64,
        on: bool,
        e: Option<(f64, f64)>,
    ) -> ActivityTrace {
        ActivityTrace {
            trace_id: ((day as u64) << 32) | idx as u64,
            day,
            app,
            natural_start: 100 * idx as u64,
            duration: 5,
            bytes,
            screen_on: on,
            plan: if on {
                PlanReason::ScreenOn
            } else {
                PlanReason::Untrained
            },
            outcome: if on {
                Outcome::Natural
            } else {
                Outcome::DutyServed
            },
            executed_at: 100 * idx as u64 + idx as u64,
            latency_secs: idx as u64,
            energy: e.map(|(actual_j, baseline_j)| EnergyShare {
                actual_j,
                baseline_j,
            }),
        }
    }

    #[test]
    fn bills_group_by_app_and_day() {
        let records = vec![
            rec(0, 0, 1, 100, false, Some((1.0, 3.0))),
            rec(0, 1, 1, 200, false, Some((2.0, 4.0))),
            rec(0, 2, 2, 50, true, Some((5.0, 5.0))),
            rec(1, 0, 1, 10, false, Some((0.5, 1.0))),
            rec(1, 1, 3, 10, false, None), // unapportioned: skipped
        ];
        let bills = bill(&records);
        assert_eq!(bills.len(), 3);
        assert_eq!((bills[0].day, bills[0].app, bills[0].activities), (0, 1, 2));
        assert_eq!(bills[0].bytes, 300);
        assert!((bills[0].baseline_j - 7.0).abs() < 1e-12);
        assert!((bills[0].saved_j() - 4.0).abs() < 1e-12);
        assert_eq!((bills[2].day, bills[2].app), (1, 1));

        let apps = by_app(&bills);
        assert_eq!(apps.len(), 2);
        // App 1 has the bigger baseline (8 J vs 5 J) and ranks first.
        assert_eq!(apps[0].app, 1);
        assert_eq!(apps[0].activities, 3);
        assert!((apps[0].baseline_j - 8.0).abs() < 1e-12);
    }

    #[test]
    fn exemplars_rank_worst_first() {
        let records = vec![
            rec(0, 0, 1, 1, false, Some((9.0, 9.0))),
            rec(0, 1, 1, 1, false, Some((1.0, 2.0))),
            rec(0, 2, 1, 1, false, Some((4.0, 4.0))),
            rec(0, 3, 1, 1, false, None),
        ];
        let lat = worst_by_latency(&records, 2);
        assert_eq!(
            lat.iter().map(ActivityTrace::index).collect::<Vec<_>>(),
            vec![3, 2]
        );
        let en = worst_by_energy(&records, 2);
        assert_eq!(
            en.iter().map(ActivityTrace::index).collect::<Vec<_>>(),
            vec![0, 2]
        );
        assert!(worst_by_energy(&[], 5).is_empty());
    }

    #[test]
    fn screen_off_share_matches_hand_count() {
        let records = vec![
            rec(0, 0, 1, 300, false, Some((1.0, 6.0))),
            rec(0, 1, 1, 100, true, Some((2.0, 2.0))),
            rec(0, 2, 1, 100, true, Some((2.0, 2.0))),
        ];
        let s = screen_off_share(&records);
        assert!((s.activity_fraction - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.byte_fraction - 0.6).abs() < 1e-12);
        assert!((s.baseline_energy_fraction - 0.6).abs() < 1e-12);
        assert_eq!(screen_off_share(&[]), ScreenOffShare::default());
    }
}
