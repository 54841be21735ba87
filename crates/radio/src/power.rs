//! Radio power-model configuration.
//!
//! NetMaster estimates energy with the *model-based* approach of its
//! references (Huang et al. MobiSys'12 \[11\], Schulman et al. \[8\], Maier
//! et al. \[5\]): the cellular radio is a state machine whose states burn
//! fixed power, promotions cost time and energy, and inactivity timers
//! ("tails") keep the radio hot long after the last byte. The constants
//! below are the published WCDMA and LTE numbers from those papers.

use serde::{Deserialize, Serialize};

/// Milliwatts.
pub type Milliwatts = f64;

/// One inactivity-timer phase after the last transfer: the radio lingers
/// for `secs` at `mw` before demoting to the next phase (or idle).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TailPhase {
    /// Phase duration in seconds.
    pub secs: f64,
    /// Power draw during the phase.
    pub mw: Milliwatts,
}

/// Radio-technology power parameters, expressive enough for both the
/// 3G/WCDMA RRC machine (DCH/FACH/IDLE) and LTE (CR/DRX/idle).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RrcConfig {
    /// Human-readable technology name.
    pub name: String,
    /// IDLE→active promotion latency in seconds.
    pub promo_secs: f64,
    /// Power during promotion.
    pub promo_mw: Milliwatts,
    /// Power while actively transferring (DCH / LTE CR).
    pub active_mw: Milliwatts,
    /// Inactivity-tail phases after the last transfer, in demotion order
    /// (WCDMA: DCH tail then FACH tail; LTE: DRX tail).
    pub tail_phases: Vec<TailPhase>,
    /// Baseline idle power attributable to the radio (usually folded
    /// into the device baseline; kept separate and defaulted to 0 so
    /// savings are savings *of network activities*, as the paper scopes).
    pub idle_mw: Milliwatts,
}

impl RrcConfig {
    /// 3G / WCDMA constants (Huang et al. \[11\], Qian et al. \[10\]):
    /// DCH ≈ 800 mW, FACH ≈ 460 mW, IDLE→DCH promotion ≈ 2 s at
    /// ≈ 550 mW, DCH→FACH inactivity timer ≈ 5 s, FACH→IDLE ≈ 12 s.
    pub fn wcdma() -> Self {
        RrcConfig {
            name: "WCDMA".into(),
            promo_secs: 2.0,
            promo_mw: 550.0,
            active_mw: 800.0,
            tail_phases: vec![
                TailPhase {
                    secs: 5.0,
                    mw: 800.0,
                }, // DCH tail
                TailPhase {
                    secs: 12.0,
                    mw: 460.0,
                }, // FACH tail
            ],
            idle_mw: 0.0,
        }
    }

    /// LTE constants (Huang et al. MobiSys'12): promotion ≈ 260 ms at
    /// ≈ 1210 mW, continuous reception ≈ 1210 mW, tail ≈ 11.6 s of
    /// DRX-dominated linger at ≈ 1060 mW.
    pub fn lte() -> Self {
        RrcConfig {
            name: "LTE".into(),
            promo_secs: 0.26,
            promo_mw: 1210.0,
            active_mw: 1210.0,
            tail_phases: vec![TailPhase {
                secs: 11.6,
                mw: 1060.0,
            }],
            idle_mw: 0.0,
        }
    }

    /// Total tail duration in seconds.
    pub fn tail_secs(&self) -> f64 {
        self.tail_phases.iter().map(|p| p.secs).sum()
    }

    /// Energy (J) of the full tail.
    pub fn tail_energy_j(&self) -> f64 {
        self.tail_phases
            .iter()
            .map(|p| p.secs * p.mw / 1_000.0)
            .sum()
    }

    /// Energy (J) of the first `dt` seconds of tail (prefix), saturating
    /// at the full tail.
    pub fn tail_prefix_energy_j(&self, dt: f64) -> f64 {
        let mut remaining = dt.max(0.0);
        let mut joules = 0.0;
        for p in &self.tail_phases {
            let take = remaining.min(p.secs);
            joules += take * p.mw / 1_000.0;
            remaining -= take;
            if remaining <= 0.0 {
                break;
            }
        }
        joules
    }

    /// Energy (J) of one promotion.
    pub fn promo_energy_j(&self) -> f64 {
        self.promo_secs * self.promo_mw / 1_000.0
    }

    /// Energy (J) of `secs` of active transfer.
    pub fn active_energy_j(&self, secs: f64) -> f64 {
        secs * self.active_mw / 1_000.0
    }

    /// Sanity-checks the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.promo_secs < 0.0 || self.promo_mw < 0.0 {
            return Err("negative promotion parameters".into());
        }
        if self.active_mw <= 0.0 {
            return Err("active power must be positive".into());
        }
        if self.tail_phases.iter().any(|p| p.secs < 0.0 || p.mw < 0.0) {
            return Err("negative tail phase".into());
        }
        Ok(())
    }
}

/// How aggressively the tail is cut after the last transfer.
///
/// The stock device lets the full inactivity timers run ([`Full`]);
/// fast dormancy requests demotion after a short hold; NetMaster's
/// scheduling component flips the data radio off via `svc data disable`
/// as soon as a scheduled batch completes ([`Immediate`]).
///
/// [`Full`]: TailPolicy::Full
/// [`Immediate`]: TailPolicy::Immediate
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TailPolicy {
    /// Full inactivity timers (default Android behaviour).
    Full,
    /// Tail truncated after the given seconds (fast dormancy).
    FastDormancy(f64),
    /// Radio switched off right after the transfer (no tail).
    Immediate,
}

impl TailPolicy {
    /// Effective tail seconds under this policy for a given config.
    pub fn tail_secs(&self, cfg: &RrcConfig) -> f64 {
        match *self {
            TailPolicy::Full => cfg.tail_secs(),
            TailPolicy::FastDormancy(s) => s.max(0.0).min(cfg.tail_secs()),
            TailPolicy::Immediate => 0.0,
        }
    }

    /// Effective tail energy (J) under this policy.
    pub fn tail_energy_j(&self, cfg: &RrcConfig) -> f64 {
        cfg.tail_prefix_energy_j(self.tail_secs(cfg))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wcdma_constants_match_published_model() {
        let cfg = RrcConfig::wcdma();
        assert_eq!(cfg.validate(), Ok(()));
        assert!((cfg.tail_secs() - 17.0).abs() < 1e-9);
        // 5 s × 0.8 W + 12 s × 0.46 W = 4.0 + 5.52 = 9.52 J
        assert!((cfg.tail_energy_j() - 9.52).abs() < 1e-9);
        // 2 s × 0.55 W = 1.1 J
        assert!((cfg.promo_energy_j() - 1.1).abs() < 1e-9);
        assert!((cfg.active_energy_j(10.0) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn lte_constants() {
        let cfg = RrcConfig::lte();
        assert_eq!(cfg.validate(), Ok(()));
        assert!((cfg.tail_secs() - 11.6).abs() < 1e-9);
        assert!(cfg.promo_secs < 1.0, "LTE promotion is sub-second");
    }

    #[test]
    fn tail_prefix_energy_crosses_phases() {
        let cfg = RrcConfig::wcdma();
        // 3 s into the DCH tail.
        assert!((cfg.tail_prefix_energy_j(3.0) - 2.4).abs() < 1e-9);
        // 5 s DCH + 2 s FACH = 4.0 + 0.92.
        assert!((cfg.tail_prefix_energy_j(7.0) - 4.92).abs() < 1e-9);
        // Saturates at full tail.
        assert!((cfg.tail_prefix_energy_j(100.0) - cfg.tail_energy_j()).abs() < 1e-9);
        assert_eq!(cfg.tail_prefix_energy_j(-5.0), 0.0);
    }

    #[test]
    fn tail_policy_effects() {
        let cfg = RrcConfig::wcdma();
        assert_eq!(TailPolicy::Immediate.tail_secs(&cfg), 0.0);
        assert_eq!(TailPolicy::Immediate.tail_energy_j(&cfg), 0.0);
        assert!((TailPolicy::FastDormancy(3.0).tail_secs(&cfg) - 3.0).abs() < 1e-9);
        assert!((TailPolicy::FastDormancy(99.0).tail_secs(&cfg) - 17.0).abs() < 1e-9);
        assert!((TailPolicy::Full.tail_energy_j(&cfg) - 9.52).abs() < 1e-9);
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = RrcConfig::wcdma();
        cfg.active_mw = 0.0;
        assert!(cfg.validate().is_err());
        let mut cfg = RrcConfig::wcdma();
        cfg.promo_secs = -1.0;
        assert!(cfg.validate().is_err());
        let mut cfg = RrcConfig::wcdma();
        cfg.tail_phases[0].mw = -2.0;
        assert!(cfg.validate().is_err());
    }
}
