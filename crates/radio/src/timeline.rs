//! Per-state radio timelines: the exact sequence of RRC states a
//! transfer set drives the radio through. The energy accountant
//! ([`RrcModel::account`]) integrates this; the timeline exposes it
//! for inspection, the `netmaster timeline` CLI view, and tests that
//! cross-check the integral against the explicit state sequence.

use crate::rrc::{sorted_keys, walk, Event, RrcModel};
use netmaster_trace::time::Interval;
use serde::{Deserialize, Serialize};

/// A radio state with a concrete power draw. Idle is implicit: it is
/// wherever no segment is.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum RadioState {
    /// Promoting from idle to connected.
    Promoting,
    /// Actively transferring (DCH / LTE CR).
    Active,
    /// Lingering in an inactivity tail phase (0-based index).
    Tail(usize),
}

/// One segment of the timeline: a state held over a span, with
/// fractional-second boundaries (promotions may be sub-second on LTE).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Start time (seconds, fractional).
    pub start: f64,
    /// End time (seconds, fractional).
    pub end: f64,
    /// The state held.
    pub state: RadioState,
    /// Power draw in milliwatts.
    pub mw: f64,
}

impl Segment {
    /// Segment duration in seconds.
    pub fn secs(&self) -> f64 {
        self.end - self.start
    }

    /// Energy of the segment in joules.
    pub fn joules(&self) -> f64 {
        self.secs() * self.mw / 1_000.0
    }
}

/// The full state sequence for a transfer set under a model.
///
/// ```
/// use netmaster_radio::{Interval, RrcModel, Timeline};
///
/// let model = RrcModel::wcdma_default();
/// let t = Timeline::build(&model, &[Interval::new(100, 110)]);
/// // Promotion, 10 s active, 17 s of WCDMA tails = 29 s radio-on.
/// assert_eq!(t.wakeups(), 1);
/// assert!((t.radio_on_secs() - 29.0).abs() < 1e-9);
/// // Energy matches the integral accountant exactly.
/// assert!((t.total_j() - model.account(&[Interval::new(100, 110)]).total_j()).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Timeline {
    /// Non-idle segments in time order, except that a cold burst's
    /// `Promoting` segment may start before the segment ahead of it
    /// ends: inside the previous tail, or inside the previous `Active`
    /// segment when the tail is shorter than the promotion (as under
    /// `TailPolicy::Immediate`). No others overlap. Idle is implicit.
    pub segments: Vec<Segment>,
}

impl Timeline {
    /// Builds the timeline for (possibly unsorted/overlapping)
    /// transfers as a sink of the RRC walk that [`RrcModel::sweep`]
    /// prices: a promotion before each cold burst, and after each burst
    /// its tail, clipped to the tail policy and cut by a riding burst.
    pub fn build(model: &RrcModel, transfers: &[Interval]) -> Timeline {
        let (cfg, tail_len) = (&model.config, model.tail_secs());
        let mut keys = Vec::new();
        sorted_keys(transfers, &mut keys);
        let seg = |start, end, state, mw| Segment {
            start,
            end,
            state,
            mw,
        };
        let mut segments = Vec::new();
        walk(&keys, |event| {
            let (mut t, until) = match event {
                Event::Wake((s, ..)) => {
                    let (s, p) = (s as f64, cfg.promo_secs);
                    segments.push(seg(s - p, s, RadioState::Promoting, cfg.promo_mw));
                    return tail_len;
                }
                Event::Burst(_, b) => {
                    let (s, e) = (b.start as f64, b.end as f64);
                    segments.push(seg(s, e, RadioState::Active, cfg.active_mw));
                    return tail_len;
                }
                Event::Elapsed { from, next, .. } => (from, next as f64),
                Event::Full { from, .. } => (from, f64::INFINITY),
            };
            // The phases, clipped to the policy's tail; those past it or
            // past `until` come out empty, and the retain drops them.
            let mut left = tail_len;
            for (k, p) in cfg.tail_phases.iter().enumerate() {
                let secs = p.secs.min(left);
                left -= secs;
                segments.push(seg(t, (t + secs).min(until), RadioState::Tail(k), p.mw));
                t += secs;
            }
            tail_len
        });
        segments.retain(|s| s.secs() > 1e-9);
        Timeline { segments }
    }

    /// Total energy in joules.
    pub fn total_j(&self) -> f64 {
        self.segments.iter().map(Segment::joules).sum()
    }

    /// Total non-idle seconds.
    pub fn radio_on_secs(&self) -> f64 {
        self.segments.iter().map(Segment::secs).sum()
    }

    /// Number of promotions (radio wake-ups).
    pub fn wakeups(&self) -> u64 {
        self.segments
            .iter()
            .filter(|s| s.state == RadioState::Promoting)
            .count() as u64
    }

    /// Renders an ASCII strip chart: one character per `secs_per_char`
    /// seconds over `window` (P=promoting, #=active, t=tail, ·=idle).
    pub fn ascii(&self, window: Interval, secs_per_char: u64) -> String {
        let cells = (window.len() / secs_per_char.max(1)) as usize;
        let mut chars = vec!['·'; cells];
        // Priority: active > promoting > tail > idle.
        let rank = |ch| ['·', 't', 'P', '#'].iter().position(|&c| c == ch);
        for seg in &self.segments {
            let c = match seg.state {
                RadioState::Promoting => 'P',
                RadioState::Active => '#',
                RadioState::Tail(_) => 't',
            };
            let from = seg.start.max(window.start as f64);
            let to = seg.end.min(window.end as f64);
            if to <= from {
                continue;
            }
            let a = ((from - window.start as f64) / secs_per_char as f64) as usize;
            let b =
                (((to - window.start as f64) / secs_per_char as f64).ceil() as usize).min(cells);
            for cell in chars.iter_mut().take(b).skip(a) {
                if rank(c) > rank(*cell) {
                    *cell = c;
                }
            }
        }
        chars.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::TailPhase;
    use crate::rrc::tests::{random_timeline, tail_policy_models};
    use netmaster_trace::time::merge_intervals;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    /// `Timeline::build` as it was before it became a sink of the RRC
    /// walk: merge the transfers, then walk the merged list with its own
    /// ride-or-promote test. Kept as the oracle for the segments.
    fn build_merged(model: &RrcModel, transfers: &[Interval]) -> Timeline {
        let cfg = &model.config;
        let tail_len = model.tail_secs();
        let merged = merge_intervals(transfers.to_vec());
        let mut segments = Vec::new();

        let tail_phases: Vec<TailPhase> = {
            // Clip the configured phases to the policy-effective length.
            let mut remaining = tail_len;
            let mut v = Vec::new();
            for p in &cfg.tail_phases {
                if remaining <= 0.0 {
                    break;
                }
                let take = p.secs.min(remaining);
                v.push(TailPhase {
                    secs: take,
                    mw: p.mw,
                });
                remaining -= take;
            }
            v
        };

        let mut tail_until: Option<f64> = None;
        for span in &merged {
            let (s, e) = (span.start as f64, span.end as f64);
            match tail_until {
                Some(t_end) if s <= t_end => {
                    // Truncated tail: emit only the elapsed portion.
                    let prev_end = t_end - tail_len;
                    let mut t = prev_end;
                    for (pi, p) in tail_phases.iter().enumerate() {
                        let seg_end = (t + p.secs).min(s);
                        if seg_end > t {
                            segments.push(Segment {
                                start: t,
                                end: seg_end,
                                state: RadioState::Tail(pi),
                                mw: p.mw,
                            });
                        }
                        t += p.secs;
                        if t >= s {
                            break;
                        }
                    }
                }
                _ => {
                    // Close out the previous tail fully.
                    if let Some(t_end) = tail_until {
                        let mut t = t_end - tail_len;
                        for (pi, p) in tail_phases.iter().enumerate() {
                            segments.push(Segment {
                                start: t,
                                end: t + p.secs,
                                state: RadioState::Tail(pi),
                                mw: p.mw,
                            });
                            t += p.secs;
                        }
                    }
                    // Promote ahead of the transfer.
                    if cfg.promo_secs > 0.0 {
                        segments.push(Segment {
                            start: s - cfg.promo_secs,
                            end: s,
                            state: RadioState::Promoting,
                            mw: cfg.promo_mw,
                        });
                    }
                }
            }
            segments.push(Segment {
                start: s,
                end: e,
                state: RadioState::Active,
                mw: cfg.active_mw,
            });
            tail_until = Some(e + tail_len);
        }
        if let Some(t_end) = tail_until {
            let mut t = t_end - tail_len;
            for (pi, p) in tail_phases.iter().enumerate() {
                segments.push(Segment {
                    start: t,
                    end: t + p.secs,
                    state: RadioState::Tail(pi),
                    mw: p.mw,
                });
                t += p.secs;
            }
        }
        segments.retain(|s| s.secs() > 1e-9);
        Timeline { segments }
    }

    fn segment_bits(t: &Timeline) -> Vec<(u64, u64, u64, RadioState)> {
        t.segments
            .iter()
            .map(|s| (s.start.to_bits(), s.end.to_bits(), s.mw.to_bits(), s.state))
            .collect()
    }

    #[test]
    fn build_matches_the_merged_walk_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(2016);
        for model in &tail_policy_models() {
            for _ in 0..2_000 {
                let spans = random_timeline(&mut rng);
                let want = segment_bits(&build_merged(model, &spans));
                let got = segment_bits(&Timeline::build(model, &spans));
                assert_eq!(got, want, "{model:?} {spans:?}");
            }
        }
    }

    #[test]
    fn only_a_promotion_overlaps_the_segment_before_it() {
        // Segments come in time order, except that a cold burst's
        // promotion may start before the segment ahead of it ends:
        // inside the previous tail or, when the tail is shorter than
        // the promotion, inside the previous burst's active segment. (A
        // tail starts at `end + tail - tail` on the float clock, which
        // may sit an ulp before its burst's end.)
        let mut rng = StdRng::seed_from_u64(2017);
        let mut overlaps = 0;
        for model in &tail_policy_models() {
            for _ in 0..2_000 {
                let spans = random_timeline(&mut rng);
                let t = Timeline::build(model, &spans);
                let mut end = f64::NEG_INFINITY;
                for (k, seg) in t.segments.iter().enumerate() {
                    if seg.start < end - 1e-9 {
                        overlaps += 1;
                        assert_eq!(seg.state, RadioState::Promoting, "{model:?} {spans:?}");
                        let prev = &t.segments[k - 1];
                        assert!(prev.start <= seg.start, "{model:?} {spans:?}");
                        let next = &t.segments[k + 1];
                        assert_eq!(next.state, RadioState::Active);
                        assert_eq!(next.start, seg.end);
                    }
                    end = seg.end;
                }
            }
        }
        assert!(
            overlaps > 0,
            "the generator makes cold bursts close to a tail"
        );
    }

    #[test]
    fn single_transfer_timeline_shape() {
        let m = RrcModel::wcdma_default();
        let t = Timeline::build(&m, &[iv(100, 110)]);
        let states: Vec<RadioState> = t.segments.iter().map(|s| s.state).collect();
        assert_eq!(
            states,
            vec![
                RadioState::Promoting,
                RadioState::Active,
                RadioState::Tail(0),
                RadioState::Tail(1)
            ]
        );
        assert_eq!(t.wakeups(), 1);
    }

    #[test]
    fn timeline_energy_matches_accountant() {
        let m = RrcModel::wcdma_default();
        for transfers in [
            vec![iv(0, 10)],
            vec![iv(0, 10), iv(15, 25)],             // tail-riding
            vec![iv(0, 10), iv(1_000, 1_005)],       // two cold bursts
            vec![iv(0, 20), iv(10, 30), iv(28, 29)], // overlaps
        ] {
            let b = m.account(&transfers);
            let t = Timeline::build(&m, &transfers);
            assert!(
                (t.total_j() - b.total_j()).abs() < 1e-6,
                "{transfers:?}: {} vs {}",
                t.total_j(),
                b.total_j()
            );
            assert!((t.radio_on_secs() - b.radio_on_secs()).abs() < 1e-6);
            assert_eq!(t.wakeups(), b.wakeups);
        }
    }

    #[test]
    fn immediate_off_has_no_tail_segments() {
        let m = RrcModel::wcdma_immediate_off();
        let t = Timeline::build(&m, &[iv(0, 10)]);
        assert!(t
            .segments
            .iter()
            .all(|s| !matches!(s.state, RadioState::Tail(_))));
        let b = m.account(&[iv(0, 10)]);
        assert!((t.total_j() - b.total_j()).abs() < 1e-9);
    }

    #[test]
    fn truncated_tail_is_partial() {
        let m = RrcModel::wcdma_default();
        // Second transfer 6 s after the first ends: 5 s DCH tail + 1 s
        // of the FACH tail elapse, then re-activation.
        let t = Timeline::build(&m, &[iv(0, 10), iv(16, 20)]);
        let tails: Vec<&Segment> = t
            .segments
            .iter()
            .filter(|s| matches!(s.state, RadioState::Tail(_)))
            .collect();
        // Elapsed: Tail(0) 5 s + Tail(1) 1 s; trailing: Tail(0) 5 s + Tail(1) 12 s.
        assert_eq!(tails.len(), 4);
        assert!((tails[0].secs() - 5.0).abs() < 1e-9);
        assert!((tails[1].secs() - 1.0).abs() < 1e-9);
        assert_eq!(t.wakeups(), 1);
    }

    #[test]
    fn ascii_strip_renders_states() {
        let m = RrcModel::wcdma_default();
        let t = Timeline::build(&m, &[iv(10, 20)]);
        let strip = t.ascii(iv(0, 60), 1);
        assert_eq!(strip.chars().count(), 60);
        assert!(strip.contains('#'));
        assert!(strip.contains('P'));
        assert!(strip.contains('t'));
        assert!(strip.contains('·'));
        // Active cells sit where the transfer is ('·' is multibyte, so
        // index by chars).
        let cells: Vec<char> = strip.chars().collect();
        assert!(cells[10..20].iter().all(|&c| c == '#'), "{strip}");
        assert_eq!(cells[8], 'P', "2 s promotion hugs the transfer start");
        assert_eq!(cells[9], 'P');
        assert_eq!(cells[0], '·');
        assert_eq!(cells[25], 't', "tail follows the burst");
    }

    #[test]
    fn lte_timeline_has_single_tail_phase() {
        let m = RrcModel::lte_default();
        let t = Timeline::build(&m, &[iv(0, 5)]);
        let tail_phases: std::collections::HashSet<usize> = t
            .segments
            .iter()
            .filter_map(|s| match s.state {
                RadioState::Tail(i) => Some(i),
                _ => None,
            })
            .collect();
        assert_eq!(tail_phases.len(), 1);
        let b = m.account(&[iv(0, 5)]);
        assert!((t.total_j() - b.total_j()).abs() < 1e-6);
    }
}
