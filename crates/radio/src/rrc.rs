//! RRC state-machine energy accounting over transfer timelines.
//!
//! Given the set of intervals during which the radio is actively moving
//! bytes, [`RrcModel::account`] replays the state machine — promotion,
//! active, tail phases, idle — and returns where the time and joules
//! went. This is the paper's `g` function generalized from a single
//! activity to a whole timeline (overlapping transfers share radio-on
//! time; back-to-back transfers ride each other's tails).

use crate::attribution::AppEnergy;
use crate::power::{RrcConfig, TailPolicy};
use crate::timeline::Timeline;
use netmaster_trace::time::{merge_intervals, Interval};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;

/// Where the radio's time and energy went over a timeline.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Number of IDLE→active promotions (radio wake-ups).
    pub wakeups: u64,
    /// Seconds spent promoting.
    pub promo_secs: f64,
    /// Seconds actively transferring.
    pub active_secs: f64,
    /// Seconds lingering in tail states.
    pub tail_secs: f64,
    /// Energy spent promoting (J).
    pub promo_j: f64,
    /// Energy spent transferring (J).
    pub active_j: f64,
    /// Energy spent in tails (J).
    pub tail_j: f64,
}

impl EnergyBreakdown {
    /// Total radio-on seconds (promotion + active + tail).
    pub fn radio_on_secs(&self) -> f64 {
        self.promo_secs + self.active_secs + self.tail_secs
    }

    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.promo_j + self.active_j + self.tail_j
    }

    /// Energy that bought no bytes: promotion + tail overhead.
    pub fn overhead_j(&self) -> f64 {
        self.promo_j + self.tail_j
    }

    /// Element-wise accumulation.
    pub fn add(&mut self, other: &EnergyBreakdown) {
        self.wakeups += other.wakeups;
        self.promo_secs += other.promo_secs;
        self.active_secs += other.active_secs;
        self.tail_secs += other.tail_secs;
        self.promo_j += other.promo_j;
        self.active_j += other.active_j;
        self.tail_j += other.tail_j;
    }
}

/// A non-empty span as a sort key of [`RrcModel::sweep`]:
/// `(start, end, input index)`.
pub type SpanKey = (u64, u64, usize);

/// An RRC power model bound to a tail policy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RrcModel {
    /// Technology parameters.
    pub config: RrcConfig,
    /// Tail-cutting behaviour.
    pub tail_policy: TailPolicy,
}

impl RrcModel {
    /// Stock 3G device: WCDMA with full inactivity timers.
    pub fn wcdma_default() -> Self {
        RrcModel {
            config: RrcConfig::wcdma(),
            tail_policy: TailPolicy::Full,
        }
    }

    /// WCDMA with the radio forced off after each transfer, as
    /// NetMaster's scheduling component does via `svc data disable`.
    pub fn wcdma_immediate_off() -> Self {
        RrcModel {
            config: RrcConfig::wcdma(),
            tail_policy: TailPolicy::Immediate,
        }
    }

    /// Stock LTE device.
    pub fn lte_default() -> Self {
        RrcModel {
            config: RrcConfig::lte(),
            tail_policy: TailPolicy::Full,
        }
    }

    /// Effective tail length under the bound policy.
    pub fn tail_secs(&self) -> f64 {
        self.tail_policy.tail_secs(&self.config)
    }

    /// Accounts energy and radio-on time for a transfer timeline.
    ///
    /// `transfers` need not be sorted or disjoint; they are merged
    /// first. A transfer arriving while a previous tail is still
    /// running re-activates the radio without a promotion (the radio
    /// is still in a connected state) and the tail is truncated. This
    /// is [`RrcModel::sweep`] without bills.
    pub fn account(&self, transfers: &[Interval]) -> EnergyBreakdown {
        self.sweep(transfers, &mut Vec::new(), None)
    }

    /// The RRC state machine: one sort and one sweep over a transfer
    /// timeline that returns its [`EnergyBreakdown`] and, when `bills`
    /// is given, fills it with one [`AppEnergy`] per span, in input
    /// order (the per-transfer bills of
    /// [`bill_each`](crate::attribution::bill_each)).
    ///
    /// The non-empty spans become `(start, end, index)` keys in `keys`
    /// (cleared first, so a caller can reuse it), sorted unless they
    /// already arrive in order, so ties fall in input order. A burst
    /// arriving inside the previous burst's tail rides it: no promotion,
    /// and only the elapsed part of the tail is paid.
    ///
    /// The breakdown adds the same terms in the same order as merging
    /// the spans and walking the merged list would, so it depends only
    /// on the multiset of spans, bit for bit. Bills follow eprof's
    /// last-trigger rule: a burst's active energy splits among its
    /// members by their seconds, a session's first transfer pays its
    /// promotion, and the transfer that ends a burst (latest end, ties
    /// to the later one in sort order) pays the elapsed tail of the gap
    /// after it, or the full tail when the session ends there. An empty
    /// span pays nothing: its bill is all zeros, including
    /// `transfer_secs`. O(n log n), and O(n) on ordered input.
    ///
    /// ```
    /// use netmaster_radio::{Interval, RrcModel};
    ///
    /// let model = RrcModel::wcdma_default();
    /// let spans = [Interval::new(0, 10), Interval::new(15, 25)];
    /// let (mut keys, mut bills) = (Vec::new(), Vec::new());
    /// let energy = model.sweep(&spans, &mut keys, Some(&mut bills));
    /// assert_eq!(energy, model.account(&spans));
    /// let billed: f64 = bills.iter().map(|b| b.total_j()).sum();
    /// assert!((billed - energy.total_j()).abs() < 1e-9);
    /// ```
    pub fn sweep<I>(
        &self,
        spans: I,
        keys: &mut Vec<SpanKey>,
        bills: Option<&mut Vec<AppEnergy>>,
    ) -> EnergyBreakdown
    where
        I: IntoIterator,
        I::Item: Borrow<Interval>,
    {
        let n = sorted_keys(spans, keys);
        let mut bills = bills.map(|b| {
            b.clear();
            b.resize(n, AppEnergy::default());
            b.as_mut_slice()
        });
        let (cfg, tail_len) = (&self.config, self.tail_secs());
        let (promo_j, full_tail_j) = (cfg.promo_energy_j(), self.tail_policy.tail_energy_j(cfg));
        let mut out = EnergyBreakdown::default();
        walk(
            keys,
            // As a call per event, this sink made a day's sweep 40–60% slower.
            #[inline(always)]
            |event| {
                match event {
                    Event::Wake((.., i)) => {
                        out.wakeups += 1;
                        out.promo_secs += cfg.promo_secs;
                        out.promo_j += promo_j;
                        if let Some(bills) = bills.as_deref_mut() {
                            bills[i].promo_j += promo_j;
                            bills[i].wakeups += 1;
                        }
                    }
                    Event::Burst(members, burst) => {
                        let secs = burst.end as f64 - burst.start as f64;
                        out.active_secs += secs;
                        out.active_j += cfg.active_energy_j(secs);
                        if let Some(bills) = bills.as_deref_mut() {
                            let total_secs = members.iter().map(|&(s, e, _)| e - s).sum::<u64>();
                            let burst_j = cfg.active_energy_j(burst.len() as f64);
                            for &(s, e, i) in members {
                                let secs = (e - s) as f64;
                                bills[i].active_j = burst_j * secs / total_secs as f64;
                                bills[i].transfer_secs = secs;
                            }
                        }
                    }
                    Event::Elapsed {
                        ender, secs, gap, ..
                    } => {
                        out.tail_secs += secs;
                        out.tail_j += cfg.tail_prefix_energy_j(secs);
                        if let Some(bills) = bills.as_deref_mut() {
                            bills[ender].tail_j += cfg.tail_prefix_energy_j(gap as f64);
                        }
                    }
                    Event::Full { ender, .. } => {
                        out.tail_secs += tail_len;
                        out.tail_j += full_tail_j;
                        if let Some(bills) = bills.as_deref_mut() {
                            bills[ender].tail_j += full_tail_j;
                        }
                    }
                }
                tail_len
            },
        );
        out
    }

    /// The merged intervals during which the radio is in a non-idle
    /// RRC state for the given transfer timeline: promotion before each
    /// burst, the transfers themselves, and the (policy-truncated) tail
    /// after. This is what "radio-on" means when the paper measures the
    /// *radio utilization ratio* of Fig. 2 — tails count. It is the
    /// [`Timeline`]'s segments rounded outward to whole seconds, merged.
    pub fn radio_on_spans(&self, transfers: &[Interval]) -> Vec<Interval> {
        let rounded = Timeline::build(self, transfers)
            .segments
            .iter()
            .map(|s| Interval::new(s.start.floor() as u64, s.end.ceil() as u64))
            .collect();
        merge_intervals(rounded)
    }

    /// Energy of a single activity executed in isolation — the paper's
    /// `g(t_j)`, the saving available by *eliminating* a lone screen-off
    /// activity (promotion + transfer + full tail).
    pub fn isolated_energy_j(&self, duration_secs: f64) -> f64 {
        self.config.promo_energy_j()
            + self.config.active_energy_j(duration_secs.max(0.0))
            + self.tail_policy.tail_energy_j(&self.config)
    }

    /// Marginal energy of adding `duration_secs` of transfer to an
    /// already-active radio (piggybacking a scheduled activity onto a
    /// user-active slot): active power only, no promotion, no new tail.
    pub fn piggyback_energy_j(&self, duration_secs: f64) -> f64 {
        self.config.active_energy_j(duration_secs.max(0.0))
    }
}

/// Writes the non-empty `spans` as `(start, end, index)` keys into
/// `keys` (cleared first), sorted unless they already arrive in order,
/// and returns how many spans there were.
pub(crate) fn sorted_keys<I>(spans: I, keys: &mut Vec<SpanKey>) -> usize
where
    I: IntoIterator,
    I::Item: Borrow<Interval>,
{
    let spans = spans.into_iter();
    keys.clear();
    keys.reserve(spans.size_hint().0);
    let mut n = 0;
    for (i, span) in spans.enumerate() {
        let span = *span.borrow();
        if !span.is_empty() {
            keys.push((span.start, span.end, i));
        }
        n = i + 1;
    }
    if !keys.is_sorted() {
        keys.sort_unstable();
    }
    n
}

/// What the RRC [`walk`] reports to its sink, in time order.
pub(crate) enum Event<'k> {
    /// The radio promotes ahead of the burst that this key opens.
    Wake(SpanKey),
    /// A burst of merged members closed; the sink returns its tail length.
    Burst(&'k [SpanKey], Interval),
    /// The burst at `next` rode the tail, `secs` after `from` (the burst's
    /// end on the float clock), `gap` whole seconds after `ender` ended it.
    Elapsed {
        ender: usize,
        from: f64,
        secs: f64,
        next: u64,
        gap: u64,
    },
    /// The tail ran in full: the next burst is cold, or there is none.
    Full { ender: usize, from: f64, len: f64 },
}

/// The crate's one RRC walk over sorted span keys, monomorphized per
/// sink (whose answer is read after a `Burst` only). It meets merged
/// bursts in time order: one arriving inside the previous tail rides
/// it, cutting it short; otherwise the tail runs in full, then a wake.
pub(crate) fn walk(keys: &[SpanKey], mut sink: impl FnMut(Event) -> f64) {
    let Some(&first) = keys.first() else { return };
    // The open burst is `keys[lo..pos]`, covering `burst`; `ender` is
    // its latest-ending member.
    let (mut lo, mut burst, mut ender) = (0, Interval::new(first.0, first.1), first.2);
    sink(Event::Wake(first));
    for (pos, &(start, end, i)) in keys.iter().enumerate() {
        if start > burst.end {
            let len = sink(Event::Burst(&keys[lo..pos], burst));
            let until = burst.end as f64 + len;
            let from = until - len;
            if start as f64 <= until {
                sink(Event::Elapsed {
                    ender,
                    from,
                    secs: (start as f64 - from).max(0.0),
                    next: start,
                    gap: start - burst.end,
                });
            } else {
                sink(Event::Full { ender, from, len });
                sink(Event::Wake((start, end, i)));
            }
            lo = pos;
            burst = Interval::new(start, end);
        }
        if end >= burst.end {
            burst.end = end;
            ender = i;
        }
    }
    let len = sink(Event::Burst(&keys[lo..], burst));
    let from = burst.end as f64 + len - len;
    sink(Event::Full { ender, from, len });
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    /// The accountant the sweep replaced: merge the spans, then walk the
    /// merged list. Kept as the oracle for the sweep's breakdown.
    fn account_merged(model: &RrcModel, transfers: &[Interval]) -> EnergyBreakdown {
        let cfg = &model.config;
        let tail_len = model.tail_secs();
        let merged = merge_intervals(transfers.to_vec());
        let mut out = EnergyBreakdown::default();

        let mut tail_until: Option<f64> = None; // end of the running tail
        for span in &merged {
            let (s, e) = (span.start as f64, span.end as f64);
            match tail_until {
                Some(t_end) if s <= t_end => {
                    // Arrived inside the previous tail: pay only the
                    // portion of tail actually elapsed before `s`.
                    let prev_active_end = t_end - tail_len;
                    let elapsed = (s - prev_active_end).max(0.0);
                    out.tail_secs += elapsed;
                    out.tail_j += cfg.tail_prefix_energy_j(elapsed);
                }
                _ => {
                    // Fresh wake-up: close out the previous tail fully,
                    // then promote.
                    if tail_until.is_some() {
                        out.tail_secs += tail_len;
                        out.tail_j += model.tail_policy.tail_energy_j(cfg);
                    }
                    out.wakeups += 1;
                    out.promo_secs += cfg.promo_secs;
                    out.promo_j += cfg.promo_energy_j();
                }
            }
            out.active_secs += e - s;
            out.active_j += cfg.active_energy_j(e - s);
            tail_until = Some(e + tail_len);
        }
        if tail_until.is_some() {
            out.tail_secs += tail_len;
            out.tail_j += model.tail_policy.tail_energy_j(cfg);
        }
        out
    }

    fn bits(b: &EnergyBreakdown) -> [u64; 7] {
        [
            b.wakeups,
            b.promo_secs.to_bits(),
            b.active_secs.to_bits(),
            b.tail_secs.to_bits(),
            b.promo_j.to_bits(),
            b.active_j.to_bits(),
            b.tail_j.to_bits(),
        ]
    }

    /// A seeded timeline mixing what the sweep must get right: exact
    /// duplicates (ties), zero-length spans, overlaps, back-to-back
    /// spans and gaps on both sides of the tail length.
    pub(crate) fn random_timeline(rng: &mut StdRng) -> Vec<Interval> {
        let n = rng.random_range(0..40usize);
        let mut spans: Vec<Interval> = Vec::with_capacity(n);
        for _ in 0..n {
            let span = match spans.last().copied() {
                Some(prev) if rng.random_bool(0.1) => prev,
                Some(prev) if rng.random_bool(0.1) => iv(prev.end, prev.end),
                Some(prev) if rng.random_bool(0.2) => {
                    let s = rng.random_range(prev.start..=prev.end);
                    iv(s, s + rng.random_range(0..40u64))
                }
                Some(prev) if rng.random_bool(0.3) => {
                    // A gap from 0 to 30 s: inside, at and past the
                    // WCDMA (17 s) and LTE (11.6 s) tails.
                    let s = prev.end + rng.random_range(0..=30u64);
                    iv(s, s + rng.random_range(1..40u64))
                }
                _ => {
                    let s = rng.random_range(0..5_000u64);
                    iv(s, s + rng.random_range(0..40u64))
                }
            };
            spans.push(span);
        }
        spans
    }

    /// The stock tail policies on both technologies, plus fast dormancy
    /// on each: the configurations every view of the walk is checked
    /// under.
    pub(crate) fn tail_policy_models() -> [RrcModel; 5] {
        let fast = |config, secs| RrcModel {
            config,
            tail_policy: TailPolicy::FastDormancy(secs),
        };
        [
            RrcModel::wcdma_default(),
            RrcModel::wcdma_immediate_off(),
            RrcModel::lte_default(),
            fast(RrcConfig::wcdma(), 3.0),
            fast(RrcConfig::lte(), 2.5),
        ]
    }

    /// `radio_on_spans` as it was before it became a view of the
    /// timeline: merged bursts widened by the rounded-up promotion and
    /// tail, then merged again. Kept as its oracle.
    fn radio_on_spans_widened(model: &RrcModel, transfers: &[Interval]) -> Vec<Interval> {
        let promo = model.config.promo_secs.ceil() as u64;
        let tail = model.tail_secs().ceil() as u64;
        let widened: Vec<Interval> = merge_intervals(transfers.to_vec())
            .into_iter()
            .map(|s| Interval::new(s.start.saturating_sub(promo), s.end + tail))
            .collect();
        merge_intervals(widened)
    }

    #[test]
    fn radio_on_spans_match_the_widened_merge() {
        let mut rng = StdRng::seed_from_u64(2015);
        for model in &tail_policy_models() {
            for _ in 0..2_000 {
                let spans = random_timeline(&mut rng);
                let want = radio_on_spans_widened(model, &spans);
                assert_eq!(model.radio_on_spans(&spans), want, "{model:?} {spans:?}");
            }
        }
    }

    #[test]
    fn sweep_matches_the_merged_walk_bit_for_bit() {
        let models = [
            RrcModel::wcdma_default(),
            RrcModel::wcdma_immediate_off(),
            RrcModel::lte_default(),
        ];
        let mut rng = StdRng::seed_from_u64(2014);
        let (mut keys, mut bills) = (Vec::new(), Vec::new());
        for model in &models {
            for _ in 0..3_000 {
                let mut spans = random_timeline(&mut rng);
                if rng.random_bool(0.3) {
                    spans.sort_by_key(|s| (s.start, s.end));
                }
                let want = bits(&account_merged(model, &spans));
                assert_eq!(bits(&model.account(&spans)), want, "{spans:?}");
                let billed = model.sweep(&spans, &mut keys, Some(&mut bills));
                assert_eq!(bits(&billed), want, "{spans:?}");
                // Dirty reused buffers give a fresh call's bills, and
                // the bills conserve the breakdown's total.
                assert_eq!(bills, crate::attribution::bill_each(model, &spans));
                let sum: f64 = bills.iter().map(AppEnergy::total_j).sum();
                let total = billed.total_j();
                assert!((sum - total).abs() <= 1e-9 * total, "{sum} vs {total}");
                // The breakdown depends on the multiset only.
                spans.reverse();
                assert_eq!(bits(&model.sweep(&spans, &mut keys, None)), want);
            }
        }
    }

    #[test]
    fn empty_timeline_is_free() {
        let m = RrcModel::wcdma_default();
        let b = m.account(&[]);
        assert_eq!(b.wakeups, 0);
        assert_eq!(b.total_j(), 0.0);
        assert_eq!(b.radio_on_secs(), 0.0);
    }

    #[test]
    fn single_transfer_pays_promo_active_tail() {
        let m = RrcModel::wcdma_default();
        let b = m.account(&[iv(100, 110)]);
        assert_eq!(b.wakeups, 1);
        assert!((b.promo_j - 1.1).abs() < 1e-9);
        assert!((b.active_j - 8.0).abs() < 1e-9);
        assert!((b.tail_j - 9.52).abs() < 1e-9);
        assert!((b.radio_on_secs() - (2.0 + 10.0 + 17.0)).abs() < 1e-9);
        // Matches the isolated-energy helper.
        assert!((b.total_j() - m.isolated_energy_j(10.0)).abs() < 1e-9);
    }

    #[test]
    fn back_to_back_transfers_share_one_tail() {
        let m = RrcModel::wcdma_default();
        // Second transfer starts 5 s after the first ends — inside the tail.
        let b = m.account(&[iv(0, 10), iv(15, 25)]);
        assert_eq!(b.wakeups, 1, "no second promotion inside the tail");
        // Tail: 5 s elapsed between transfers + one full trailing tail.
        assert!((b.tail_secs - (5.0 + 17.0)).abs() < 1e-9);
        // 5 s of elapsed tail is all DCH-tail: 5 × 0.8 = 4.0 J.
        assert!((b.tail_j - (4.0 + 9.52)).abs() < 1e-9);
        assert!((b.active_secs - 20.0).abs() < 1e-9);
    }

    #[test]
    fn distant_transfers_pay_two_promotions() {
        let m = RrcModel::wcdma_default();
        let b = m.account(&[iv(0, 10), iv(1000, 1010)]);
        assert_eq!(b.wakeups, 2);
        assert!((b.promo_j - 2.2).abs() < 1e-9);
        assert!((b.tail_j - 2.0 * 9.52).abs() < 1e-9);
    }

    #[test]
    fn two_isolated_cost_more_than_batched() {
        let m = RrcModel::wcdma_default();
        let separate = m.account(&[iv(0, 10), iv(500, 510)]);
        let batched = m.account(&[iv(0, 10), iv(10, 20)]);
        assert!(batched.total_j() < separate.total_j());
        assert!((separate.total_j() - 2.0 * m.isolated_energy_j(10.0)).abs() < 1e-9);
    }

    #[test]
    fn overlapping_transfers_merge() {
        let m = RrcModel::wcdma_default();
        let overlapped = m.account(&[iv(0, 20), iv(10, 30)]);
        let single = m.account(&[iv(0, 30)]);
        assert_eq!(overlapped, single);
    }

    #[test]
    fn immediate_off_kills_tail() {
        let m = RrcModel::wcdma_immediate_off();
        let b = m.account(&[iv(0, 10)]);
        assert_eq!(b.tail_j, 0.0);
        assert_eq!(b.tail_secs, 0.0);
        assert!((b.radio_on_secs() - 12.0).abs() < 1e-9);
        // With no tail, a transfer 5 s later is a *new* wakeup.
        let b2 = m.account(&[iv(0, 10), iv(15, 25)]);
        assert_eq!(b2.wakeups, 2);
    }

    #[test]
    fn fast_dormancy_truncates_tail() {
        let m = RrcModel {
            config: RrcConfig::wcdma(),
            tail_policy: TailPolicy::FastDormancy(3.0),
        };
        let b = m.account(&[iv(0, 10)]);
        assert!((b.tail_secs - 3.0).abs() < 1e-9);
        assert!((b.tail_j - 2.4).abs() < 1e-9); // 3 s of DCH tail
    }

    #[test]
    fn lte_single_transfer() {
        let m = RrcModel::lte_default();
        let b = m.account(&[iv(0, 10)]);
        assert_eq!(b.wakeups, 1);
        assert!((b.total_j() - (0.26 * 1.21 + 10.0 * 1.21 + 11.6 * 1.06)).abs() < 1e-6);
    }

    #[test]
    fn breakdown_accumulates() {
        let m = RrcModel::wcdma_default();
        let mut acc = EnergyBreakdown::default();
        acc.add(&m.account(&[iv(0, 10)]));
        acc.add(&m.account(&[iv(0, 10)]));
        let single = m.account(&[iv(0, 10)]);
        assert_eq!(acc.wakeups, 2);
        assert!((acc.total_j() - 2.0 * single.total_j()).abs() < 1e-9);
        assert!((acc.overhead_j() - 2.0 * single.overhead_j()).abs() < 1e-9);
    }

    #[test]
    fn piggyback_is_cheapest() {
        let m = RrcModel::wcdma_default();
        assert!(m.piggyback_energy_j(10.0) < m.isolated_energy_j(10.0));
        assert!((m.piggyback_energy_j(10.0) - 8.0).abs() < 1e-9);
        assert_eq!(m.piggyback_energy_j(-3.0), 0.0);
    }

    #[test]
    fn radio_on_spans_cover_promo_and_tail() {
        let m = RrcModel::wcdma_default();
        let spans = m.radio_on_spans(&[iv(100, 110)]);
        assert_eq!(spans, vec![iv(98, 127)]); // 2 s promo + 17 s tail
                                              // Two bursts whose widened spans touch merge into one.
        let spans = m.radio_on_spans(&[iv(100, 110), iv(120, 130)]);
        assert_eq!(spans, vec![iv(98, 147)]);
        // Immediate-off policy drops the tail.
        let spans = RrcModel::wcdma_immediate_off().radio_on_spans(&[iv(100, 110)]);
        assert_eq!(spans, vec![iv(98, 110)]);
        // Total span time matches the energy accountant's radio-on time
        // for an isolated transfer.
        let b = m.account(&[iv(100, 110)]);
        assert!((b.radio_on_secs() - 29.0).abs() < 1e-9);
    }

    #[test]
    fn unsorted_input_is_handled() {
        let m = RrcModel::wcdma_default();
        let a = m.account(&[iv(1000, 1010), iv(0, 10)]);
        let b = m.account(&[iv(0, 10), iv(1000, 1010)]);
        assert_eq!(a, b);
    }
}
