//! Duty-cycle radio control for screen-off periods (§IV-C2).
//!
//! While the screen is off, NetMaster keeps the radio down and wakes it
//! periodically so Special Apps can sync. After an *empty* wake-up (no
//! pending traffic) the exponential scheme doubles the sleep interval —
//! `T, 2T, 4T, …` — so an idle night costs only a logarithmic number of
//! wake-ups; any served traffic resets the interval to `T`. Fixed and
//! random sleeps are the Fig. 10(b) comparison arms.

use netmaster_trace::time::{Interval, Seconds, Timestamp};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Sleep-interval scheme between duty-cycle wake-ups.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SleepScheme {
    /// `T, 2T, 4T, …` while idle; optionally reset to `T` on served
    /// traffic (the paper's rule). Without the reset the interval keeps
    /// doubling even across served wake-ups, which avoids the burst of
    /// short sleeps that follows every background sync — the
    /// `ablation_dutycycle` bench quantifies the difference.
    Exponential {
        /// Initial sleep interval `T` (paper: 30 s).
        initial: Seconds,
        /// Reset the interval to `T` when a wake-up serves traffic.
        reset_on_serve: bool,
    },
    /// Constant interval.
    Fixed {
        /// Sleep interval.
        period: Seconds,
    },
    /// Uniform random interval in `[min, max]` (deterministic per
    /// window via the seed).
    Random {
        /// Minimum sleep.
        min: Seconds,
        /// Maximum sleep.
        max: Seconds,
        /// RNG seed.
        seed: u64,
    },
}

impl SleepScheme {
    /// The paper's scheme: exponential with `T = 30 s`, resetting on
    /// served traffic.
    pub fn paper_default() -> Self {
        SleepScheme::Exponential {
            initial: 30,
            reset_on_serve: true,
        }
    }
}

/// Outcome of duty cycling one screen-off window.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DutyOutcome {
    /// Every wake-up instant.
    pub wakeups: Vec<Timestamp>,
    /// Wake-ups that found nothing pending.
    pub empty_wakeups: u64,
    /// `(arrival_index, service_time)` for each served arrival, in
    /// arrival order.
    pub served: Vec<(usize, Timestamp)>,
}

impl DutyOutcome {
    /// Wake-ups that served at least one arrival.
    pub fn busy_wakeups(&self) -> u64 {
        self.wakeups.len() as u64 - self.empty_wakeups
    }

    /// Serves every listed arrival at the flush instant `at` (or at its
    /// own arrival, whichever is later). Used for short screen-off gaps
    /// where the radio never duty-cycles and pending demands simply ride
    /// the next screen-on.
    pub fn flush(&mut self, arrivals: &[Timestamp], at: Timestamp) {
        self.served
            .extend(arrivals.iter().enumerate().map(|(i, &t)| (i, at.max(t))));
    }
}

/// Runs the duty-cycle state machine over a screen-off `window`.
///
/// `arrivals` are the pending-demand arrival instants (sorted); each is
/// served at the first wake-up at or after it. Arrivals still pending
/// when the window closes are served at `window.end` (the radio comes
/// up with the screen anyway), recorded with that timestamp.
///
/// ```
/// use netmaster_core::dutycycle::{run_window, SleepScheme};
/// use netmaster_trace::time::Interval;
///
/// // A quiet half hour: wake-ups back off exponentially (30, 90, 210,
/// // 450, 930, 1890 s… only five land inside the window).
/// let out = run_window(SleepScheme::paper_default(), Interval::new(0, 1_800), &[]);
/// assert_eq!(out.wakeups.len(), 5);
/// assert_eq!(out.empty_wakeups, 5);
/// ```
pub fn run_window(scheme: SleepScheme, window: Interval, arrivals: &[Timestamp]) -> DutyOutcome {
    let mut out = DutyOutcome::default();
    run_window_into(scheme, window, arrivals, &mut out);
    netmaster_obs::counter!(
        netmaster_obs::names::DUTY_WAKEUPS_TOTAL,
        out.wakeups.len() as u64
    );
    netmaster_obs::counter!(
        netmaster_obs::names::DUTY_EMPTY_WAKEUPS_TOTAL,
        out.empty_wakeups
    );
    out
}

/// [`run_window`] into a caller-owned outcome, whose buffers are
/// cleared and reused, so a caller walking many windows allocates only
/// while the buffers grow. It adds nothing to the duty-cycle counters:
/// a caller walking a day's windows adds the day's totals once.
pub(crate) fn run_window_into(
    scheme: SleepScheme,
    window: Interval,
    arrivals: &[Timestamp],
    out: &mut DutyOutcome,
) {
    debug_assert!(arrivals.windows(2).all(|w| w[0] <= w[1]), "arrivals sorted");
    out.wakeups.clear();
    out.served.clear();
    out.empty_wakeups = 0;
    let mut rng = match scheme {
        SleepScheme::Random { seed, .. } => Some(StdRng::seed_from_u64(
            seed ^ window.start.wrapping_mul(0x9E37_79B9),
        )),
        _ => None,
    };
    let initial = match scheme {
        SleepScheme::Exponential { initial, .. } => initial.max(1),
        SleepScheme::Fixed { period } => period.max(1),
        SleepScheme::Random { min, .. } => min.max(1),
    };
    let next_interval = |current: Seconds, served_now: bool, rng: &mut Option<StdRng>| -> Seconds {
        match scheme {
            SleepScheme::Exponential {
                initial,
                reset_on_serve,
            } => {
                if served_now && reset_on_serve {
                    initial.max(1)
                } else {
                    current.saturating_mul(2)
                }
            }
            SleepScheme::Fixed { period } => period.max(1),
            SleepScheme::Random { min, max, .. } => {
                let (lo, hi) = (min.max(1), max.max(min.max(1)));
                rng.as_mut()
                    // lint:allow(panic-hygiene) rng is Some iff the scheme is Random (set above); None here is a construction bug, not an input
                    .expect("rng for random scheme")
                    .random_range(lo..=hi)
            }
        }
    };

    let mut interval = initial;
    let mut t = window.start.saturating_add(interval);
    let mut next_arrival = 0usize;
    while t < window.end {
        out.wakeups.push(t);
        let mut served_now = false;
        while next_arrival < arrivals.len() && arrivals[next_arrival] <= t {
            out.served.push((next_arrival, t));
            next_arrival += 1;
            served_now = true;
        }
        if !served_now {
            out.empty_wakeups += 1;
        }
        interval = next_interval(interval, served_now, &mut rng);
        t = t.saturating_add(interval);
    }
    // Window closed: flush stragglers at the screen-on edge.
    while next_arrival < arrivals.len() {
        if arrivals[next_arrival] < window.end {
            out.served.push((next_arrival, window.end));
        } else {
            out.served.push((next_arrival, arrivals[next_arrival]));
        }
        next_arrival += 1;
    }
}

/// Wake-up instants over an idle window — the Fig. 10(b) experiment
/// (number of wake-ups over 30 idle minutes per scheme).
pub fn idle_wakeups(scheme: SleepScheme, window: Interval) -> Vec<Timestamp> {
    run_window(scheme, window, &[]).wakeups
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(len: u64) -> Interval {
        Interval::new(1_000, 1_000 + len)
    }

    #[test]
    fn exponential_doubles_on_idle() {
        let out = run_window(SleepScheme::paper_default(), window(1_000), &[]);
        // Wakes at +30, +90, +210, +450, +930.
        let rel: Vec<u64> = out.wakeups.iter().map(|t| t - 1_000).collect();
        assert_eq!(rel, vec![30, 90, 210, 450, 930]);
        assert_eq!(out.empty_wakeups, 5);
        assert_eq!(out.busy_wakeups(), 0);
    }

    #[test]
    fn served_traffic_resets_exponential() {
        // Wakes at +30 (idle), +90 (idle; the +100 arrival is still in
        // the future), +210 (serves it, resets to 30), +240, +300;
        // +300+120 = 420 falls outside the 400 s window.
        let out = run_window(
            SleepScheme::Exponential {
                initial: 30,
                reset_on_serve: true,
            },
            window(400),
            &[1_100],
        );
        let rel: Vec<u64> = out.wakeups.iter().map(|t| t - 1_000).collect();
        assert_eq!(rel, vec![30, 90, 210, 240, 300]);
        assert_eq!(out.served, vec![(0, 1_210)]);
        assert_eq!(out.empty_wakeups, out.wakeups.len() as u64 - 1);
    }

    #[test]
    fn fixed_wakes_linearly() {
        let out = run_window(SleepScheme::Fixed { period: 100 }, window(1_000), &[]);
        assert_eq!(out.wakeups.len(), 9); // 100..900
        assert_eq!(out.empty_wakeups, 9);
    }

    #[test]
    fn exponential_beats_fixed_on_idle_windows() {
        // Fig. 10(b): over a long idle window the exponential scheme
        // wakes far less often than fixed with the same initial T.
        let w = window(30 * 60);
        let exp = idle_wakeups(SleepScheme::paper_default(), w).len();
        let fixed = idle_wakeups(SleepScheme::Fixed { period: 30 }, w).len();
        assert!(exp < fixed / 4, "exp {exp} vs fixed {fixed}");
        assert_eq!(fixed, 59);
    }

    #[test]
    fn random_scheme_is_deterministic_and_in_range() {
        let s = SleepScheme::Random {
            min: 20,
            max: 60,
            seed: 7,
        };
        let a = run_window(s, window(2_000), &[]);
        let b = run_window(s, window(2_000), &[]);
        assert_eq!(a, b, "same seed+window ⇒ same wakeups");
        for pair in a.wakeups.windows(2) {
            let gap = pair[1] - pair[0];
            assert!((20..=60).contains(&gap), "gap {gap}");
        }
        // Different window start reseeds.
        let c = run_window(s, Interval::new(5_000, 7_000), &[]);
        let rel_a: Vec<u64> = a.wakeups.iter().map(|t| t - 1_000).collect();
        let rel_c: Vec<u64> = c.wakeups.iter().map(|t| t - 5_000).collect();
        assert_ne!(rel_a, rel_c);
    }

    #[test]
    fn all_arrivals_get_served() {
        let arrivals: Vec<u64> = (0..20).map(|i| 1_000 + i * 37).collect();
        for scheme in [
            SleepScheme::Exponential {
                initial: 30,
                reset_on_serve: true,
            },
            SleepScheme::Exponential {
                initial: 30,
                reset_on_serve: false,
            },
            SleepScheme::Fixed { period: 45 },
            SleepScheme::Random {
                min: 10,
                max: 80,
                seed: 3,
            },
        ] {
            let out = run_window(scheme, window(900), &arrivals);
            assert_eq!(out.served.len(), 20, "{scheme:?}");
            // Service times never precede arrivals.
            for &(i, t) in &out.served {
                assert!(t >= arrivals[i], "{scheme:?}: served {t} before arrival");
            }
        }
    }

    #[test]
    fn straggler_arrivals_flush_at_window_end() {
        // Arrival at +950 in a 1000-long window; exponential wakes end
        // at +930, so it flushes at the window edge (screen-on).
        let out = run_window(
            SleepScheme::Exponential {
                initial: 30,
                reset_on_serve: true,
            },
            window(1_000),
            &[1_950],
        );
        assert_eq!(out.served, vec![(0, 2_000)]);
    }

    #[test]
    fn no_reset_variant_keeps_doubling_through_serves() {
        let arrivals: Vec<u64> = vec![1_100, 1_400];
        let reset = run_window(
            SleepScheme::Exponential {
                initial: 30,
                reset_on_serve: true,
            },
            window(2_000),
            &arrivals,
        );
        let no_reset = run_window(
            SleepScheme::Exponential {
                initial: 30,
                reset_on_serve: false,
            },
            window(2_000),
            &arrivals,
        );
        assert!(no_reset.wakeups.len() < reset.wakeups.len());
        assert_eq!(no_reset.served.len(), 2);
        assert_eq!(reset.served.len(), 2);
    }

    #[test]
    fn empty_window_has_no_wakeups() {
        let out = run_window(SleepScheme::paper_default(), Interval::new(50, 60), &[]);
        assert!(out.wakeups.is_empty());
        assert_eq!(out.empty_wakeups, 0);
    }

    #[test]
    fn zero_interval_is_clamped() {
        let out = run_window(SleepScheme::Fixed { period: 0 }, window(10), &[]);
        assert_eq!(out.wakeups.len(), 9, "clamped to 1 s, not an infinite loop");
    }
}
