//! Golden fingerprint of `simulate`'s `RunMetrics`.
//!
//! Every policy arm runs a small fixed-seed fleet under WCDMA and LTE,
//! and every field of every `RunMetrics` (floats by their bits) is
//! hashed with FNV-1a. `simulate` prices each run with
//! `RrcModel::account`, so a change to the RRC sweep that moves a
//! single bit of any energy, time or wake-up count fails here.

use netmaster_core::policies::{
    BatchPolicy, DefaultPolicy, DelayPolicy, FastDormancyPolicy, NetMasterPolicy, OraclePolicy,
};
use netmaster_core::NetMasterConfig;
use netmaster_radio::{EnergyBreakdown, LinkModel, RrcConfig, RrcModel};
use netmaster_sim::{simulate, Policy, RunMetrics, SimConfig};
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;

const USERS: usize = 4;
const DAYS: usize = 21;

/// 64-bit FNV-1a over little-endian field bytes.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn f64(&mut self, x: f64) {
        self.u64(x.to_bits());
    }

    fn breakdown(&mut self, b: &EnergyBreakdown) {
        self.u64(b.wakeups);
        for x in [
            b.promo_secs,
            b.active_secs,
            b.tail_secs,
            b.promo_j,
            b.active_j,
            b.tail_j,
        ] {
            self.f64(x);
        }
    }

    fn metrics(&mut self, m: &RunMetrics) {
        for b in m.policy.bytes() {
            self.u64(u64::from(b));
        }
        self.u64(m.days as u64);
        self.f64(m.energy_j);
        self.f64(m.radio_on_secs);
        for x in [
            m.screen_on_secs,
            m.power_on_secs,
            m.wakeups,
            m.empty_wakeups,
            m.bytes_down,
            m.bytes_up,
        ] {
            self.u64(x);
        }
        self.f64(m.transfer_secs);
        for x in [
            m.interactions,
            m.affected_interactions,
            m.moved_transfers,
            m.executed_transfers,
        ] {
            self.u64(x);
        }
        self.breakdown(&m.rrc);
    }
}

fn arms(radio: &RrcConfig) -> Vec<Box<dyn Policy>> {
    let stock = RrcModel {
        config: radio.clone(),
        tail_policy: netmaster_radio::TailPolicy::Full,
    };
    vec![
        Box::new(DefaultPolicy),
        Box::new(NetMasterPolicy::new(
            NetMasterConfig::default(),
            LinkModel::default(),
            stock,
        )),
        Box::new(BatchPolicy::new(5)),
        Box::new(DelayPolicy::new(600)),
        Box::new(FastDormancyPolicy::new(3.0)),
        Box::new(OraclePolicy),
    ]
}

fn fleet_fingerprint(radio: RrcConfig) -> u64 {
    let cfg = SimConfig {
        radio: radio.clone(),
        ..SimConfig::default()
    };
    let mut h = Fnv1a::new();
    for user in 0..USERS {
        let trace = TraceGenerator::new(UserProfile::panel().remove(user))
            .with_seed(7 + user as u64)
            .generate(DAYS);
        for mut policy in arms(&radio) {
            // Whole-run pricing, then one simulate per day, so both the
            // multi-day timeline and the single-day path are pinned.
            h.metrics(&simulate(&trace.days, policy.as_mut(), &cfg));
        }
        let mut policy = arms(&radio).swap_remove(1);
        for day in &trace.days {
            h.metrics(&simulate(std::slice::from_ref(day), policy.as_mut(), &cfg));
        }
    }
    h.0
}

#[test]
fn wcdma_run_metrics_match_golden_fingerprint() {
    assert_eq!(
        fleet_fingerprint(RrcConfig::wcdma()),
        0xd562_d168_e276_2255,
        "simulate's WCDMA RunMetrics moved"
    );
}

#[test]
fn lte_run_metrics_match_golden_fingerprint() {
    assert_eq!(
        fleet_fingerprint(RrcConfig::lte()),
        0x9be1_9c2a_3329_8662,
        "simulate's LTE RunMetrics moved"
    );
}
