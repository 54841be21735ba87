//! Pins on what the service's flight recorder hands out.
//!
//! A fixed-seed service run is fingerprinted with FNV-1a over the
//! drained ledger's JSONL, the journal's JSONL and every `DayReport`, so
//! a change to how records are stored, priced or drained cannot move a
//! single bit unnoticed. A second test fills the ledger past its bound
//! without draining and checks that eviction keeps exactly the newest
//! records, priced as they would have been had they been drained daily.
//! A third runs a binding link and checks that the branch-and-bound and
//! DP solver arms reach the assigned records.

use netmaster_core::watchtower::rotate_rhythm;
use netmaster_core::{MiddlewareService, NetMasterConfig};
use netmaster_obs::{ActivityTrace, PlanReason, SolverArm, DEFAULT_LEDGER_CAPACITY};
use netmaster_radio::{LinkModel, RrcConfig};
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;
use netmaster_trace::trace::Trace;

/// 64-bit FNV-1a.
struct Fnv1a(u64);

impl Fnv1a {
    fn new() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Panel member `user`'s trace; with `shift_from`, the days from that
/// one on come from the same profile with its rhythm rotated 12 hours.
fn trace(user: usize, days: usize, shift_from: Option<usize>) -> Trace {
    let profile = UserProfile::panel().remove(user % 8);
    let seed = 2014 + 7919 * user as u64;
    let mut t = TraceGenerator::new(profile.clone())
        .with_seed(seed)
        .generate(days);
    if let Some(from) = shift_from {
        let alt = TraceGenerator::new(rotate_rhythm(profile, 12))
            .with_seed(seed)
            .generate(days);
        t.days[from..].clone_from_slice(&alt.days[from..]);
    }
    t
}

/// Four panel users × 30 days, user 3 shifted 12 h at day 15. Even
/// users drain the ledger every day (one day buffered), odd users once
/// at the end (thirty days buffered).
#[test]
fn service_outputs_match_golden_fingerprint() {
    let mut h = Fnv1a::new();
    let mut records = 0usize;
    for user in 0..4 {
        let t = trace(user, 30, (user == 3).then_some(15));
        let mut svc = MiddlewareService::new();
        let mut ledger: Vec<ActivityTrace> = Vec::new();
        for day in &t.days {
            let report = svc.run_day(day);
            h.bytes(serde_json::to_string(&report).unwrap().as_bytes());
            if user % 2 == 0 {
                ledger.extend(svc.drain_ledger());
            }
        }
        ledger.extend(svc.drain_ledger());
        assert!(ledger.iter().all(|r| r.energy.is_some()));
        records += ledger.len();
        h.bytes(netmaster_obs::trace_to_jsonl(&ledger).unwrap().as_bytes());
        let journal = svc.drain_journal();
        h.bytes(netmaster_obs::to_jsonl(&journal).unwrap().as_bytes());
    }
    assert_eq!(records, 20_649, "golden record count");
    assert_eq!(
        h.0, 0x5f0e_4ec4_212c_9f34,
        "golden fingerprint {:#018x}",
        h.0
    );
}

/// 120 days never drained: the ledger holds exactly its bound, counts
/// every other record as dropped, and what it keeps is the newest
/// records, bit for bit as a twin service that drains daily prices them.
#[test]
fn undrained_ledger_keeps_the_newest_records_priced() {
    let t = trace(0, 120, None);
    let mut kept = MiddlewareService::new();
    let mut twin = MiddlewareService::new();
    let mut drained: Vec<ActivityTrace> = Vec::new();
    for day in &t.days {
        let (a, b) = (kept.run_day(day), twin.run_day(day));
        assert_eq!(a, b, "day {}", day.day);
        drained.extend(twin.drain_ledger());
    }
    let total = drained.len();
    assert!(total > DEFAULT_LEDGER_CAPACITY, "{total} records");
    let ledger = kept.ledger();
    assert_eq!(ledger.len(), DEFAULT_LEDGER_CAPACITY);
    assert_eq!(ledger.dropped(), (total - DEFAULT_LEDGER_CAPACITY) as u64);
    assert_eq!(ledger.high_water(), DEFAULT_LEDGER_CAPACITY);
    let bits = |r: &ActivityTrace| {
        let e = r.energy.expect("priced");
        (e.actual_j.to_bits(), e.baseline_j.to_bits())
    };
    let newest = &drained[total - DEFAULT_LEDGER_CAPACITY..];
    for (k, w) in ledger.records().zip(newest) {
        assert_eq!(k, w);
        assert_eq!(bits(k), bits(w), "{}", k.trace_id);
    }
    assert_eq!(kept.drain_ledger(), newest);
}

/// Two panel users on a link whose average rates are divided by 10⁶, so
/// most slots bind: trained 14 days, run 7. The drained ledger's
/// assigned records name the arm that placed them, branch-and-bound and
/// DP among them, and none lacks one.
#[test]
fn binding_solver_arms_reach_the_ledger() {
    let mut link = LinkModel::default();
    link.avg_down_bps /= 1e6;
    link.avg_up_bps /= 1e6;
    let mut arms = Vec::new();
    for user in 0..2 {
        let t = trace(user, 21, None);
        let mut svc =
            MiddlewareService::with_config(NetMasterConfig::default(), RrcConfig::wcdma(), link)
                .import_history(&t.days[..14]);
        for day in &t.days[14..] {
            let _ = svc.run_day(day);
        }
        arms.extend(svc.drain_ledger().iter().filter_map(|r| match r.plan {
            PlanReason::Assigned { solver, .. } => Some(solver),
            _ => None,
        }));
    }
    let count = |arm: Option<SolverArm>| arms.iter().filter(|&&a| a == arm).count();
    let (bnb, dp) = (count(Some(SolverArm::Bnb)), count(Some(SolverArm::Dp)));
    assert!(bnb > 0 && dp > 0, "{bnb} bnb, {dp} dp of {}", arms.len());
    assert_eq!(count(None), 0, "assigned records without a solver arm");
}
