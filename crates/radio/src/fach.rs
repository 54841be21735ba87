//! Size-aware WCDMA accounting: CELL_FACH for small transfers.
//!
//! The real 3G RRC machine does not promote straight to DCH for every
//! byte — transfers whose burst fits the FACH uplink/downlink buffers
//! (a few hundred bytes) are served in CELL_FACH at roughly half the
//! power, with a cheaper IDLE→FACH promotion (Qian et al. \[10\] measure
//! both paths). The baseline [`RrcModel`](crate::RrcModel) charges DCH
//! for everything, which slightly *overstates* the stock device's cost
//! on keepalive-heavy workloads; this module quantifies the difference
//! so EXPERIMENTS.md can bound the modelling error.

use crate::power::RrcConfig;
use crate::rrc::{sorted_keys, walk, EnergyBreakdown, Event};
use netmaster_trace::time::Interval;
use serde::{Deserialize, Serialize};

/// FACH-path parameters (Qian et al. WCDMA measurements).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FachConfig {
    /// Bursts at or below this many bytes stay in CELL_FACH.
    pub threshold_bytes: u64,
    /// CELL_FACH power (≈460 mW).
    pub fach_mw: f64,
    /// IDLE→FACH promotion latency (≈1.5 s, vs 2 s to DCH).
    pub promo_secs: f64,
    /// Power during the IDLE→FACH promotion.
    pub promo_mw: f64,
    /// FACH→IDLE inactivity timer (the FACH-only tail, ≈12 s).
    pub tail_secs: f64,
}

impl Default for FachConfig {
    fn default() -> Self {
        FachConfig {
            threshold_bytes: 512,
            fach_mw: 460.0,
            promo_secs: 1.5,
            promo_mw: 460.0,
            tail_secs: 12.0,
        }
    }
}

/// A WCDMA accountant that routes small bursts through CELL_FACH.
///
/// ```
/// use netmaster_radio::{Interval, SizeAwareRrc};
///
/// let m = SizeAwareRrc::wcdma();
/// // A 300-byte keepalive stays in FACH (≈0.46 W throughout)…
/// let small = m.account_sized(&[(Interval::new(0, 2), 300)]);
/// // …while a 50 kB fetch promotes to DCH and pays the full tails.
/// let large = m.account_sized(&[(Interval::new(0, 2), 50_000)]);
/// assert!(small.total_j() < 0.6 * large.total_j());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SizeAwareRrc {
    /// DCH-path parameters (the standard model).
    pub dch: RrcConfig,
    /// FACH-path parameters.
    pub fach: FachConfig,
}

impl SizeAwareRrc {
    /// WCDMA with published constants on both paths.
    pub fn wcdma() -> Self {
        SizeAwareRrc {
            dch: RrcConfig::wcdma(),
            fach: FachConfig::default(),
        }
    }

    /// Accounts a timeline of `(span, bytes)` transfers.
    ///
    /// A sink of the RRC walk of [`sweep`](crate::RrcModel::sweep), so
    /// bursts and empty spans are as there. A burst whose *total* bytes
    /// fit the FACH buffer runs entirely in FACH (cheaper promotion,
    /// FACH power, FACH tail); a larger one pays the stock DCH model, so
    /// an all-DCH timeline prices as [`account`](crate::RrcModel::account)
    /// does, bit for bit. A burst inside the previous burst's tail rides
    /// it on that burst's path.
    pub fn account_sized(&self, transfers: &[(Interval, u64)]) -> EnergyBreakdown {
        let (fach, dch) = (&self.fach, &self.dch);
        let mut keys = Vec::new();
        sorted_keys(transfers.iter().map(|&(span, _)| span), &mut keys);
        let mut out = EnergyBreakdown::default();
        // The open burst woke the radio, so its path prices a promotion;
        // the last closed burst ran in FACH.
        let (mut cold, mut small) = (false, false);
        walk(&keys, |event| {
            match event {
                Event::Wake(_) => cold = true,
                Event::Burst(members, burst) => {
                    let bytes: u64 = members.iter().map(|&(.., i)| transfers[i].1).sum();
                    small = bytes <= fach.threshold_bytes;
                    let (active_mw, promo_secs, promo_mw, tail_len) = if small {
                        (fach.fach_mw, fach.promo_secs, fach.promo_mw, fach.tail_secs)
                    } else {
                        (dch.active_mw, dch.promo_secs, dch.promo_mw, dch.tail_secs())
                    };
                    if std::mem::take(&mut cold) {
                        out.wakeups += 1;
                        out.promo_secs += promo_secs;
                        out.promo_j += promo_secs * promo_mw / 1_000.0;
                    }
                    let secs = burst.end as f64 - burst.start as f64;
                    out.active_secs += secs;
                    out.active_j += secs * active_mw / 1_000.0;
                    return tail_len;
                }
                // A DCH tail of `len` seconds is the stock model's full tail.
                Event::Elapsed { secs, .. } | Event::Full { len: secs, .. } => {
                    out.tail_secs += secs;
                    out.tail_j += match small {
                        true => secs * fach.fach_mw / 1_000.0,
                        false => dch.tail_prefix_energy_j(secs),
                    };
                }
            }
            0.0
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rrc::RrcModel;

    fn iv(s: u64, e: u64) -> Interval {
        Interval::new(s, e)
    }

    #[test]
    fn small_burst_runs_in_fach() {
        let m = SizeAwareRrc::wcdma();
        let b = m.account_sized(&[(iv(0, 3), 400)]);
        // FACH path: 1.5 s × 0.46 + 3 s × 0.46 + 12 s × 0.46.
        let expected = (1.5 + 3.0 + 12.0) * 0.46;
        assert!((b.total_j() - expected).abs() < 1e-9, "{}", b.total_j());
        assert_eq!(b.wakeups, 1);
    }

    #[test]
    fn large_burst_runs_in_dch() {
        let m = SizeAwareRrc::wcdma();
        let sized = m.account_sized(&[(iv(0, 10), 50_000)]);
        let plain = RrcModel::wcdma_default().account(&[iv(0, 10)]);
        assert!((sized.total_j() - plain.total_j()).abs() < 1e-9);
        assert!((sized.radio_on_secs() - plain.radio_on_secs()).abs() < 1e-9);
    }

    #[test]
    fn all_dch_bursts_equal_the_stock_accountant() {
        // With every burst over the FACH buffer the size-aware model is
        // the stock WCDMA model, tails included, bit for bit.
        use crate::rrc::tests::random_timeline;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let m = SizeAwareRrc::wcdma();
        let stock = RrcModel::wcdma_default();
        let mut rng = StdRng::seed_from_u64(2018);
        for _ in 0..3_000 {
            let spans = random_timeline(&mut rng);
            let sized: Vec<(Interval, u64)> = spans
                .iter()
                .map(|&s| (s, m.fach.threshold_bytes + rng.random_range(1..100_000u64)))
                .collect();
            let (got, want) = (m.account_sized(&sized), stock.account(&spans));
            assert_eq!(got, want, "{spans:?}");
            assert_eq!(got.total_j().to_bits(), want.total_j().to_bits());
        }
    }

    #[test]
    fn fach_path_is_cheaper_for_keepalives() {
        let m = SizeAwareRrc::wcdma();
        let keepalives: Vec<(Interval, u64)> =
            (0..10).map(|i| (iv(i * 600, i * 600 + 2), 300)).collect();
        let sized = m.account_sized(&keepalives);
        let spans: Vec<Interval> = keepalives.iter().map(|&(s, _)| s).collect();
        let dch_only = RrcModel::wcdma_default().account(&spans);
        assert!(
            sized.total_j() < 0.7 * dch_only.total_j(),
            "FACH keepalives: {} vs DCH {}",
            sized.total_j(),
            dch_only.total_j()
        );
    }

    #[test]
    fn merged_bursts_pool_their_bytes() {
        let m = SizeAwareRrc::wcdma();
        // Two 300 B transfers overlapping: pooled 600 B > 512 ⇒ DCH.
        let b = m.account_sized(&[(iv(0, 3), 300), (iv(2, 5), 300)]);
        assert!(
            (b.active_j - 5.0 * 0.8).abs() < 1e-9,
            "DCH active power applies"
        );
    }

    #[test]
    fn tail_riding_skips_promotion_across_paths() {
        let m = SizeAwareRrc::wcdma();
        // Small burst, then a large one 5 s later (inside the 12 s FACH tail).
        let b = m.account_sized(&[(iv(0, 2), 300), (iv(7, 17), 40_000)]);
        assert_eq!(b.wakeups, 1, "second burst rides the FACH tail");
        // Elapsed tail (5 s) charged at FACH power.
        assert!(b.tail_j > 0.0);
    }

    #[test]
    fn dch_overstatement_is_bounded() {
        // How much does the all-DCH baseline overstate a mixed workload?
        use netmaster_trace::gen::generate_volunteers;
        let trace = generate_volunteers(7, 5).remove(0);
        let m = SizeAwareRrc::wcdma();
        let sized_input: Vec<(Interval, u64)> = trace
            .all_activities()
            .map(|a| (a.span(), a.volume()))
            .collect();
        let spans: Vec<Interval> = sized_input.iter().map(|&(s, _)| s).collect();
        let sized = m.account_sized(&sized_input);
        let plain = RrcModel::wcdma_default().account(&spans);
        let ratio = sized.total_j() / plain.total_j();
        // Most bursts exceed 512 B, so the correction is small.
        assert!(
            (0.75..=1.0).contains(&ratio),
            "size-aware / all-DCH energy ratio {ratio:.3}"
        );
    }

    #[test]
    fn empty_input_is_free() {
        let b = SizeAwareRrc::wcdma().account_sized(&[]);
        assert_eq!(b.total_j(), 0.0);
        assert_eq!(b.wakeups, 0);
    }
}
