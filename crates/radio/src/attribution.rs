//! Per-app energy attribution — eprof-style fine-grained accounting
//! (Pathak et al., the paper's ref \[9\]): which apps are the *energy
//! devourers* of the title.
//!
//! The hard part of attributing cellular energy is the shared state
//! machine: when several apps' transfers ride one radio session, who
//! pays for the promotion and the tail? Following eprof's
//! last-trigger convention: the app that *wakes* the radio pays the
//! promotion, the app whose transfer *ends last* pays the tail (its
//! traffic is what kept the radio lingering), and active energy splits
//! by each app's own transfer seconds.

use crate::rrc::RrcModel;
use netmaster_trace::event::AppId;
use netmaster_trace::time::Interval;
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// One app's share of the radio bill.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct AppEnergy {
    /// Energy from the app's own transfer seconds (J).
    pub active_j: f64,
    /// Promotion energy charged to this app (J).
    pub promo_j: f64,
    /// Tail energy charged to this app (J).
    pub tail_j: f64,
    /// Radio sessions this app initiated.
    pub wakeups: u64,
    /// Seconds of this app's transfers.
    pub transfer_secs: f64,
}

impl AppEnergy {
    /// Total joules charged.
    pub fn total_j(&self) -> f64 {
        self.active_j + self.promo_j + self.tail_j
    }

    /// Overhead (promotion + tail) share of the app's bill.
    pub fn overhead_fraction(&self) -> f64 {
        let t = self.total_j();
        if t <= 0.0 {
            return 0.0;
        }
        (self.promo_j + self.tail_j) / t
    }
}

/// Apportions a transfer timeline's energy to owner keys.
///
/// `transfers` are `(owner, span)` pairs (need not be sorted). Per-app
/// billing uses `K = AppId`; the causal ledger apportions per activity
/// with `K` a trace id. It folds [`bill_each`]'s per-transfer bills by
/// key, in input order, and conserves [`RrcModel::account`]'s total for
/// the same spans. A zero-length span is billed nothing, though its
/// key still gets an entry.
///
/// ```
/// use netmaster_radio::attribution::apportion;
/// use netmaster_radio::{Interval, RrcModel};
/// use netmaster_trace::event::AppId;
///
/// let model = RrcModel::wcdma_default();
/// // The chat app wakes the radio; the mail app's sync rides along
/// // and ends last, so it owns the tail.
/// let att = apportion(&model, &[
///     (AppId(1), Interval::new(0, 10)),
///     (AppId(2), Interval::new(10, 25)),
/// ]);
/// assert!(att[&AppId(1)].promo_j > 0.0);
/// assert_eq!(att[&AppId(2)].promo_j, 0.0);
/// assert!(att[&AppId(2)].tail_j > att[&AppId(1)].tail_j);
/// ```
pub fn apportion<K: Copy + Eq + Hash>(
    model: &RrcModel,
    transfers: &[(K, Interval)],
) -> HashMap<K, AppEnergy> {
    let mut out: HashMap<K, AppEnergy> = HashMap::new();
    let bills = bill_each(model, transfers.iter().map(|&(_, s)| s));
    for (&(key, _), bill) in transfers.iter().zip(bills) {
        let e = out.entry(key).or_default();
        e.active_j += bill.active_j;
        e.promo_j += bill.promo_j;
        e.tail_j += bill.tail_j;
        e.wakeups += bill.wakeups;
        e.transfer_secs += bill.transfer_secs;
    }
    out
}

/// Bills each transfer of a timeline on its own: one [`AppEnergy`] per
/// span, in input order, which [`apportion`] folds by owner. `spans` is
/// anything that yields the spans in order: a slice, or an iterator
/// that builds them on the fly. It runs [`RrcModel::sweep`] with bills,
/// so the billing rules are the sweep's; an empty span's bill is all
/// zeros, including `transfer_secs`.
///
/// ```
/// use netmaster_radio::attribution::bill_each;
/// use netmaster_radio::{Interval, RrcModel};
///
/// let model = RrcModel::wcdma_default();
/// let spans = [Interval::new(0, 10), Interval::new(15, 25), Interval::new(10, 10)];
/// let bills = bill_each(&model, &spans);
/// let total: f64 = bills.iter().map(|b| b.total_j()).sum();
/// assert!((total - model.account(&spans).total_j()).abs() < 1e-9);
/// assert_eq!(bills[0].wakeups, 1);
/// assert_eq!(bills[2].total_j(), 0.0);
/// ```
pub fn bill_each<I>(model: &RrcModel, spans: I) -> Vec<AppEnergy>
where
    I: IntoIterator,
    I::Item: Borrow<Interval>,
{
    let mut bills = Vec::new();
    model.sweep(spans, &mut Vec::new(), Some(&mut bills));
    bills
}

/// Ranks apps by total charged energy, descending.
pub fn ranked(attribution: &HashMap<AppId, AppEnergy>) -> Vec<(AppId, AppEnergy)> {
    let mut v: Vec<(AppId, AppEnergy)> = attribution.iter().map(|(&a, &e)| (a, e)).collect();
    v.sort_by(|a, b| b.1.total_j().total_cmp(&a.1.total_j()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use netmaster_trace::time::merge_intervals;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The quadratic apportionment the sweep replaced: it rescans every
    /// transfer for each burst, session and tail gap. Kept as the
    /// oracle for `bill_each` on timelines of non-empty spans.
    fn apportion_quadratic<K: Copy + Eq + Hash>(
        model: &RrcModel,
        transfers: &[(K, Interval)],
    ) -> HashMap<K, AppEnergy> {
        let mut out: HashMap<K, AppEnergy> = HashMap::new();
        if transfers.is_empty() {
            return out;
        }
        let cfg = &model.config;
        let tail_len = model.tail_secs();

        // Radio sessions: merged spans further fused across tail-riding
        // gaps (a transfer arriving inside the previous tail extends the
        // same session, as in `account`).
        let spans: Vec<Interval> = transfers.iter().map(|&(_, s)| s).collect();
        let merged = merge_intervals(spans);
        let mut sessions: Vec<Interval> = Vec::new();
        for span in merged {
            match sessions.last_mut() {
                Some(last) if (span.start as f64) <= last.end as f64 + tail_len => {
                    last.end = last.end.max(span.end);
                }
                _ => sessions.push(span),
            }
        }

        // Raw transfer seconds are informational (they may overlap).
        for &(key, span) in transfers {
            out.entry(key).or_default().transfer_secs += span.len() as f64;
        }
        // Active energy: each merged burst is charged once (as in
        // `account`) and split among the owners transferring during it,
        // proportionally to their own seconds inside the burst — so
        // concurrent transfers share rather than double-charge.
        let bursts_all = merge_intervals(transfers.iter().map(|&(_, s)| s).collect());
        for burst in &bursts_all {
            let shares: Vec<(K, f64)> = transfers
                .iter()
                .filter_map(|&(key, s)| s.intersect(burst).map(|o| (key, o.len() as f64)))
                .collect();
            let total_share: f64 = shares.iter().map(|&(_, s)| s).sum();
            if total_share <= 0.0 {
                continue;
            }
            let burst_j = cfg.active_energy_j(burst.len() as f64);
            for (key, share) in shares {
                out.entry(key).or_default().active_j += burst_j * share / total_share;
            }
        }

        // Overheads per session: promotion to the earliest-starting
        // transfer's owner, tail to the latest-ending transfer's owner.
        // The session-internal tail gaps (elapsed tail between bursts
        // inside one session) are charged to the owner whose transfer
        // preceded the gap. Every payer is found by construction — each
        // session contains at least one transfer and every burst boundary
        // is some transfer's end — so there is no fallback path.
        for session in &sessions {
            // Transfers inside this session, ordered by start.
            let mut inside: Vec<&(K, Interval)> = transfers
                .iter()
                .filter(|(_, s)| s.overlaps(session))
                .collect();
            inside.sort_by_key(|(_, s)| (s.start, s.end));
            let Some(&&(first_key, _)) = inside.first() else {
                continue;
            };
            let e = out.entry(first_key).or_default();
            e.promo_j += cfg.promo_energy_j();
            e.wakeups += 1;

            // Latest end wins; on ties the later element in start order
            // (matching `Iterator::max_by_key`, which keeps the last max).
            let mut last = inside[0];
            for t in &inside[1..] {
                if t.1.end >= last.1.end {
                    last = t;
                }
            }
            out.entry(last.0).or_default().tail_j += model.tail_policy.tail_energy_j(cfg);

            // Internal elapsed-tail gaps: walk the merged bursts of this
            // session; each gap's tail-prefix energy goes to the owner
            // whose transfer ended the preceding burst.
            let bursts = merge_intervals(inside.iter().map(|(_, s)| *s).collect());
            for w in bursts.windows(2) {
                let gap = (w[1].start - w[0].end) as f64;
                if gap <= 0.0 {
                    continue;
                }
                let mut payer: Option<&(K, Interval)> = None;
                for t in &inside {
                    if t.1.end <= w[0].end && payer.is_none_or(|p| t.1.end >= p.1.end) {
                        payer = Some(t);
                    }
                }
                // A burst boundary is always some transfer's end.
                if let Some(&(key, _)) = payer {
                    out.entry(key).or_default().tail_j += cfg.tail_prefix_energy_j(gap);
                }
            }
        }
        out
    }

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    fn conservation_check(model: &RrcModel, transfers: &[(AppId, Interval)]) {
        let spans: Vec<Interval> = transfers.iter().map(|&(_, s)| s).collect();
        let total = model.account(&spans).total_j();
        let attributed: f64 = apportion(model, transfers)
            .values()
            .map(AppEnergy::total_j)
            .sum();
        assert!(
            (total - attributed).abs() < 1e-6,
            "conservation violated: account {total} vs attributed {attributed}"
        );
    }

    #[test]
    fn lone_app_pays_everything() {
        let m = RrcModel::wcdma_default();
        let t = [(AppId(1), iv(100, 110))];
        let a = apportion(&m, &t);
        let e = a[&AppId(1)];
        assert!((e.active_j - 8.0).abs() < 1e-9);
        assert!((e.promo_j - 1.1).abs() < 1e-9);
        assert!((e.tail_j - 9.52).abs() < 1e-9);
        assert_eq!(e.wakeups, 1);
        conservation_check(&m, &t);
    }

    #[test]
    fn shared_session_splits_overheads_by_trigger() {
        let m = RrcModel::wcdma_default();
        // App 1 wakes the radio; app 2's transfer ends last.
        let t = [(AppId(1), iv(0, 10)), (AppId(2), iv(10, 30))];
        let a = apportion(&m, &t);
        assert!(
            (a[&AppId(1)].promo_j - 1.1).abs() < 1e-9,
            "initiator pays promo"
        );
        assert_eq!(a[&AppId(1)].tail_j, 0.0);
        assert!(
            (a[&AppId(2)].tail_j - 9.52).abs() < 1e-9,
            "last app pays tail"
        );
        assert_eq!(a[&AppId(2)].promo_j, 0.0);
        assert_eq!(a[&AppId(1)].wakeups, 1);
        assert_eq!(a[&AppId(2)].wakeups, 0);
        conservation_check(&m, &t);
    }

    #[test]
    fn tail_riding_gap_charged_to_preceding_app() {
        let m = RrcModel::wcdma_default();
        // App 1's transfer, 5 s of its tail elapse, app 2 rides it.
        let t = [(AppId(1), iv(0, 10)), (AppId(2), iv(15, 25))];
        let a = apportion(&m, &t);
        // App 1: promo + its 5 s elapsed-tail gap (5 × 0.8 = 4 J).
        assert!((a[&AppId(1)].promo_j - 1.1).abs() < 1e-9);
        assert!((a[&AppId(1)].tail_j - 4.0).abs() < 1e-9);
        // App 2: the trailing full tail.
        assert!((a[&AppId(2)].tail_j - 9.52).abs() < 1e-9);
        conservation_check(&m, &t);
    }

    #[test]
    fn separate_sessions_pay_separately() {
        let m = RrcModel::wcdma_default();
        let t = [(AppId(1), iv(0, 10)), (AppId(2), iv(5_000, 5_010))];
        let a = apportion(&m, &t);
        for app in [AppId(1), AppId(2)] {
            assert!((a[&app].promo_j - 1.1).abs() < 1e-9);
            assert!((a[&app].tail_j - 9.52).abs() < 1e-9);
            assert_eq!(a[&app].wakeups, 1);
        }
        conservation_check(&m, &t);
    }

    #[test]
    fn conservation_on_random_timelines() {
        let mut rng = StdRng::seed_from_u64(5);
        let m = RrcModel::wcdma_default();
        for _ in 0..50 {
            let n = rng.random_range(1..25);
            let t: Vec<(AppId, Interval)> = (0..n)
                .map(|_| {
                    let s = rng.random_range(0..20_000u64);
                    (
                        AppId(rng.random_range(0..5)),
                        iv(s, s + rng.random_range(1..60u64)),
                    )
                })
                .collect();
            conservation_check(&m, &t);
        }
    }

    #[test]
    fn per_activity_apportionment_conserves_total_energy() {
        // The ledger keys transfers by trace id (u64) instead of app:
        // every activity gets its own exact share, and the per-activity
        // bill must conserve the timeline total — fixed seed, both tail
        // policies.
        let mut rng = StdRng::seed_from_u64(17);
        for model in [RrcModel::wcdma_default(), RrcModel::wcdma_immediate_off()] {
            for _ in 0..20 {
                let n = rng.random_range(1..40u64);
                let t: Vec<(u64, Interval)> = (0..n)
                    .map(|id| {
                        let s = rng.random_range(0..30_000u64);
                        (id, iv(s, s + rng.random_range(1..60u64)))
                    })
                    .collect();
                let spans: Vec<Interval> = t.iter().map(|&(_, s)| s).collect();
                let total = model.account(&spans).total_j();
                let bill = apportion(&model, &t);
                assert_eq!(bill.len(), n as usize, "every activity is billed");
                let attributed: f64 = bill.values().map(AppEnergy::total_j).sum();
                assert!(
                    (total - attributed).abs() < 1e-9,
                    "per-activity conservation violated: {total} vs {attributed}"
                );
            }
        }
    }

    #[test]
    fn ranking_orders_by_total() {
        let m = RrcModel::wcdma_default();
        let t = [
            (AppId(1), iv(0, 100)),       // heavy
            (AppId(2), iv(5_000, 5_002)), // light
        ];
        let r = ranked(&apportion(&m, &t));
        assert_eq!(r[0].0, AppId(1));
        assert!(r[0].1.total_j() > r[1].1.total_j());
        // Light app's bill is overhead-dominated.
        assert!(r[1].1.overhead_fraction() > 0.8);
    }

    #[test]
    fn empty_input_is_empty() {
        let m = RrcModel::wcdma_default();
        assert!(apportion::<AppId>(&m, &[]).is_empty());
    }

    #[test]
    fn zero_length_span_is_billed_nothing() {
        let m = RrcModel::wcdma_default();
        // The empty span sits exactly where the first burst ends; the
        // tail that elapses before [15, 25) is still [0, 10)'s to pay.
        let spans = [iv(0, 10), iv(10, 10), iv(15, 25)];
        let bills = bill_each(&m, spans);
        assert_eq!(bills[1], AppEnergy::default());
        assert!((bills[0].tail_j - 4.0).abs() < 1e-9);
        assert!((bills[2].tail_j - 9.52).abs() < 1e-9);
        let total: f64 = bills.iter().map(AppEnergy::total_j).sum();
        assert!((total - m.account(&spans).total_j()).abs() < 1e-9);
        // Folded by key, the empty span's owner still gets an entry.
        let keyed: Vec<(u64, Interval)> = (0..).zip(spans).collect();
        let bill = apportion(&m, &keyed);
        assert_eq!(bill.len(), 3);
        assert_eq!(bill[&1], AppEnergy::default());
        assert!(bill_each(&m, [iv(7, 7)])
            .iter()
            .all(|b| *b == AppEnergy::default()));
    }

    /// A random timeline of non-empty spans: dense to sparse, with
    /// touching and duplicated spans mixed in.
    fn random_spans(rng: &mut StdRng) -> Vec<Interval> {
        let n = rng.random_range(1..48u64);
        let horizon = rng.random_range(1..=n * 120);
        let mut spans: Vec<Interval> = Vec::new();
        for _ in 0..n {
            let span = match spans.last() {
                Some(&prev) if rng.random_bool(0.125) => prev,
                Some(&prev) if rng.random_bool(0.25) => {
                    iv(prev.end, prev.end + rng.random_range(1..60u64))
                }
                _ => {
                    let s = rng.random_range(0..horizon);
                    iv(s, s + rng.random_range(1..60u64))
                }
            };
            spans.push(span);
        }
        spans
    }

    fn assert_close(a: &AppEnergy, b: &AppEnergy) {
        for (x, y) in [
            (a.active_j, b.active_j),
            (a.promo_j, b.promo_j),
            (a.tail_j, b.tail_j),
        ] {
            assert!(
                (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
                "{a:?} vs {b:?}"
            );
        }
        assert_eq!(a.wakeups, b.wakeups);
        assert_eq!(a.transfer_secs, b.transfer_secs);
    }

    #[test]
    fn sweep_matches_quadratic_oracle() {
        let bits =
            |e: &AppEnergy| [e.active_j, e.promo_j, e.tail_j, e.transfer_secs].map(f64::to_bits);
        let mut rng = StdRng::seed_from_u64(2014);
        for model in [
            RrcModel::wcdma_default(),
            RrcModel::wcdma_immediate_off(),
            RrcModel::lte_default(),
        ] {
            for _ in 0..2_000 {
                let spans = random_spans(&mut rng);
                // Unique keys (the ledger's case): bit for bit.
                let keyed: Vec<(u64, Interval)> = (0..).zip(spans.iter().copied()).collect();
                let oracle = apportion_quadratic(&model, &keyed);
                let bills = bill_each(&model, &spans);
                for (id, bill) in (0..).zip(&bills) {
                    let want = &oracle[&id];
                    assert_eq!(bits(bill), bits(want), "span {id} of {spans:?}");
                    assert_eq!(bill.wakeups, want.wakeups);
                }
                // Repeated app keys: equal up to the
                // order the fold adds each key's shares in.
                let apps: Vec<(AppId, Interval)> = spans
                    .iter()
                    .map(|&s| (AppId(rng.random_range(0..5)), s))
                    .collect();
                let oracle = apportion_quadratic(&model, &apps);
                let folded = apportion(&model, &apps);
                assert_eq!(folded.len(), oracle.len());
                for (app, e) in &folded {
                    assert_close(e, &oracle[app]);
                }
            }
        }
    }

    #[test]
    fn ordered_timelines_match_the_oracle() {
        // Stock timelines arrive sorted, so the sweep skips its sort;
        // the bills must not depend on which way the keys got ordered.
        let bits =
            |e: &AppEnergy| [e.active_j, e.promo_j, e.tail_j, e.transfer_secs].map(f64::to_bits);
        let mut rng = StdRng::seed_from_u64(29);
        let model = RrcModel::wcdma_default();
        for _ in 0..500 {
            let mut spans = random_spans(&mut rng);
            spans.sort_by_key(|s| (s.start, s.end));
            let keyed: Vec<(u64, Interval)> = (0..).zip(spans.iter().copied()).collect();
            let oracle = apportion_quadratic(&model, &keyed);
            for (id, bill) in (0..).zip(bill_each(&model, &spans)) {
                assert_eq!(bits(&bill), bits(&oracle[&id]), "span {id} of {spans:?}");
                assert_eq!(bill.wakeups, oracle[&id].wakeups);
            }
        }
    }

    #[test]
    fn attribute_conserves_a_full_volunteer_trace() {
        let m = RrcModel::wcdma_default();
        for trace in netmaster_trace::gen::generate_volunteers(21, 7) {
            let transfers: Vec<(AppId, Interval)> = trace
                .days
                .iter()
                .flat_map(|d| d.activities.iter().map(|a| (a.app, a.span())))
                .collect();
            let spans: Vec<Interval> = transfers.iter().map(|&(_, s)| s).collect();
            let total = m.account(&spans).total_j();
            let attributed: f64 = apportion(&m, &transfers)
                .values()
                .map(AppEnergy::total_j)
                .sum();
            assert!(
                (total - attributed).abs() <= 1e-9 * total,
                "{} transfers: account {total} vs attributed {attributed}",
                transfers.len()
            );
        }
    }

    #[test]
    fn immediate_off_attributes_no_tail() {
        let m = RrcModel::wcdma_immediate_off();
        let t = [(AppId(1), iv(0, 10)), (AppId(2), iv(10, 20))];
        let a = apportion(&m, &t);
        assert_eq!(a[&AppId(1)].tail_j + a[&AppId(2)].tail_j, 0.0);
        conservation_check(&m, &t);
    }
}
