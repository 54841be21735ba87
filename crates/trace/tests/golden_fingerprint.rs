//! Golden fingerprints of the synthetic trace generator.
//!
//! Every generated day of every panel and volunteer profile is hashed,
//! field by field, with FNV-1a, and the 64-bit digest of each 21-day
//! trace is pinned. Any change to the generator's random stream, float
//! expressions or sort order moves a digest, so such changes have to be
//! made on purpose (and the pins updated with them), never by accident.

use netmaster_trace::{ActivityCause, Trace, TraceGenerator, UserProfile};

const DAYS: usize = 21;
const SEED: u64 = 2014;

/// 64-bit FNV-1a over little-endian field bytes.
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

    fn u64(&mut self, x: u64) {
        self.bytes(&x.to_le_bytes());
    }
}

fn fingerprint(t: &Trace) -> u64 {
    let mut h = Fnv1a::new();
    h.u64(u64::from(t.user_id));
    h.u64(t.apps.len() as u64);
    for (id, name) in t.apps.iter() {
        h.u64(u64::from(id.0));
        h.bytes(name.as_bytes());
        h.bytes(&[0xff]);
    }
    h.u64(t.days.len() as u64);
    for d in &t.days {
        h.u64(d.day as u64);
        h.u64(d.sessions.len() as u64);
        for s in &d.sessions {
            h.u64(s.start);
            h.u64(s.end);
        }
        h.u64(d.interactions.len() as u64);
        for i in &d.interactions {
            h.u64(i.at);
            h.u64(u64::from(i.app.0));
            h.u64(u64::from(i.needs_network));
        }
        h.u64(d.activities.len() as u64);
        for a in &d.activities {
            h.u64(a.start);
            h.u64(a.duration);
            h.u64(a.bytes_down);
            h.u64(a.bytes_up);
            h.u64(u64::from(a.app.0));
            h.u64(match a.cause {
                ActivityCause::Foreground => 0,
                ActivityCause::Background => 1,
            });
        }
    }
    h.0
}

fn fingerprints(profiles: Vec<UserProfile>) -> Vec<(String, u64)> {
    profiles
        .into_iter()
        .map(|p| {
            let label = p.label.clone();
            let t = TraceGenerator::new(p).with_seed(SEED).generate(DAYS);
            (label, fingerprint(&t))
        })
        .collect()
}

fn check(got: Vec<(String, u64)>, pinned: &[u64]) {
    assert_eq!(got.len(), pinned.len(), "profile count changed");
    let mismatches: Vec<String> = got
        .iter()
        .zip(pinned)
        .filter(|((_, g), p)| g != *p)
        .map(|((label, g), p)| format!("{label}: got {g:#018x}, pinned {p:#018x}"))
        .collect();
    assert!(
        mismatches.is_empty(),
        "generator output changed:\n{}",
        mismatches.join("\n")
    );
}

#[test]
fn panel_traces_match_their_golden_fingerprints() {
    check(
        fingerprints(UserProfile::panel()),
        &[
            0x337f_5c62_bc98_a70d, // office-worker
            0xcd45_06e3_ad29_764f, // night-owl-student
            0x83e0_7232_a7a4_1c7c, // heavy-messenger
            0x5a93_2ea8_ab00_f977, // regular-commuter
            0x2ca1_50df_e494_2c29, // shift-worker
            0x99f0_285c_16de_323f, // light-user
            0x6d2f_7d05_c089_40a3, // social-grazer
            0x7d1d_f2f1_72da_6f90, // weekend-warrior
        ],
    );
}

#[test]
fn volunteer_traces_match_their_golden_fingerprints() {
    check(
        fingerprints(UserProfile::volunteers()),
        &[
            0xba86_296c_bc7c_1407, // volunteer-1
            0x2519_b96e_0763_a279, // volunteer-2
            0x93c3_e325_1099_095f, // volunteer-3
        ],
    );
}
