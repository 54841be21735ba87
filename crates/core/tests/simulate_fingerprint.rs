//! Golden fingerprint of `simulate`'s `RunMetrics`.
//!
//! Every policy arm runs a small fixed-seed fleet under WCDMA and LTE,
//! and every field of every `RunMetrics` (floats by their bits) is
//! hashed with FNV-1a. `simulate` prices each run with
//! `RrcModel::account`, so a change to the RRC sweep that moves a
//! single bit of any energy, time or wake-up count fails here.
//!
//! Under the default link every slot's knapsack fits whole, so every
//! solve takes the slack fast path. The binding arm divides the
//! planner's average link rates by 10⁶ (as `nmbench`'s `fleet-binding`
//! does), so most slots bind and branch-and-bound and DP planner days
//! are pinned bit for bit too.

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

/// The planner link of `nmbench`'s `fleet-binding`: average rates
/// divided by 10⁶, so slot capacities bind.
fn binding_link() -> LinkModel {
    let mut link = LinkModel::default();
    link.avg_down_bps /= 1e6;
    link.avg_up_bps /= 1e6;
    link
}

fn arms(radio: &RrcConfig, link: LinkModel) -> Vec<Box<dyn Policy>> {
    let stock = RrcModel {
        config: radio.clone(),
        tail_policy: netmaster_radio::TailPolicy::Full,
    };
    vec![
        Box::new(DefaultPolicy),
        Box::new(NetMasterPolicy::new(
            NetMasterConfig::default(),
            link,
            stock,
        )),
        Box::new(BatchPolicy::new(5)),
        Box::new(DelayPolicy::new(600)),
        Box::new(FastDormancyPolicy::new(3.0)),
        Box::new(OraclePolicy),
    ]
}

fn fleet_fingerprint(radio: RrcConfig, link: LinkModel) -> u64 {
    let cfg = SimConfig {
        radio: radio.clone(),
        ..SimConfig::default()
    };
    let mut h = Fnv1a::new();
    for user in 0..USERS {
        let trace = TraceGenerator::new(UserProfile::panel().remove(user))
            .with_seed(7 + user as u64)
            .generate(DAYS);
        for mut policy in arms(&radio, link) {
            // Whole-run pricing, then one simulate per day, so both the
            // multi-day timeline and the single-day path are pinned.
            h.metrics(&simulate(&trace.days, policy.as_mut(), &cfg));
        }
        let mut policy = arms(&radio, link).swap_remove(1);
        for day in &trace.days {
            h.metrics(&simulate(std::slice::from_ref(day), policy.as_mut(), &cfg));
        }
    }
    h.0
}

#[test]
fn wcdma_run_metrics_match_golden_fingerprint() {
    assert_eq!(
        fleet_fingerprint(RrcConfig::wcdma(), LinkModel::default()),
        0xd562_d168_e276_2255,
        "simulate's WCDMA RunMetrics moved"
    );
}

#[test]
fn lte_run_metrics_match_golden_fingerprint() {
    assert_eq!(
        fleet_fingerprint(RrcConfig::lte(), LinkModel::default()),
        0x9be1_9c2a_3329_8662,
        "simulate's LTE RunMetrics moved"
    );
}

#[test]
fn binding_link_run_metrics_match_golden_fingerprint() {
    let arm_calls = || {
        let snap = netmaster_obs::snapshot();
        (
            snap.counter(netmaster_obs::names::KNAPSACK_BNB_TOTAL),
            snap.counter(netmaster_obs::names::KNAPSACK_DP_TOTAL),
        )
    };
    let (bnb_before, dp_before) = arm_calls();
    let fingerprint = fleet_fingerprint(RrcConfig::wcdma(), binding_link());
    // The default-link arms above never leave the fast path, so these
    // counts come from this arm's binding slots.
    let (bnb, dp) = arm_calls();
    assert!(bnb > bnb_before, "no branch-and-bound solve ran");
    assert!(dp > dp_before, "no DP solve ran");
    assert_eq!(
        fingerprint, 0x71de_ec7a_0308_5b76,
        "simulate's binding-link WCDMA RunMetrics moved"
    );
}
