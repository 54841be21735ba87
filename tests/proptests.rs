//! Property-based tests over cross-crate invariants.
//!
//! Written as seeded random-case loops (the build has no registry access
//! for the `proptest` crate): each test draws its cases from a `StdRng`
//! with a fixed per-test seed, so failures are reproducible — rerun with
//! the printed case seed to shrink by hand.

use netmaster::core::dutycycle::{run_window, SleepScheme};
use netmaster::knapsack::overlapped::{self, OvItem, OvProblem};
use netmaster::knapsack::{branch_and_bound, brute_force, greedy_half, reference, sin_knap, Item};
use netmaster::prelude::*;
use netmaster::radio::attribution::{apportion, AppEnergy};
use netmaster::radio::Interval;
use netmaster::sim::DayPlan;
use netmaster::trace::event::{ActivityCause, AppId, NetworkActivity, ScreenSession};
use netmaster::trace::time::merge_intervals;
use netmaster::trace::trace::DayTrace;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 64;

fn case_rng(test_seed: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(test_seed.wrapping_mul(0x9E37_79B9) ^ case)
}

fn random_items(rng: &mut StdRng, max_n: usize) -> Vec<Item> {
    let n = rng.random_range(1..=max_n);
    (0..n)
        .map(|_| Item::new(rng.random_range(1.0f64..100.0), rng.random_range(1u64..50)))
        .collect()
}

fn random_intervals(rng: &mut StdRng, max_start: u64, max_len: u64, count: usize) -> Vec<Interval> {
    (0..count)
        .map(|_| {
            let s = rng.random_range(0..max_start);
            let l = rng.random_range(1..max_len);
            Interval::new(s, s + l)
        })
        .collect()
}

#[test]
fn dp_matches_brute_force() {
    for case in 0..CASES {
        let mut rng = case_rng(101, case);
        let items = random_items(&mut rng, 10);
        let cap = rng.random_range(1u64..120);
        let opt = brute_force(&items, cap);
        let dp = reference::dp_by_capacity(&items, cap);
        assert!((opt.profit - dp.profit).abs() < 1e-9, "case {case}");
        assert!(dp.feasible(cap), "case {case}");
    }
}

#[test]
fn fptas_respects_guarantee() {
    for case in 0..CASES {
        let mut rng = case_rng(102, case);
        let items = random_items(&mut rng, 10);
        let cap = rng.random_range(1u64..120);
        let eps = rng.random_range(0.05f64..0.9);
        let opt = brute_force(&items, cap);
        let sol = sin_knap(&items, cap, eps);
        assert!(sol.feasible(cap), "case {case}");
        assert!(
            sol.profit >= (1.0 - eps) * opt.profit - 1e-9,
            "case {case}: eps={eps} got {} < (1-eps)*{}",
            sol.profit,
            opt.profit
        );
    }
}

#[test]
fn greedy_half_bound() {
    for case in 0..CASES {
        let mut rng = case_rng(103, case);
        let items = random_items(&mut rng, 12);
        let cap = rng.random_range(1u64..120);
        let opt = brute_force(&items, cap);
        let g = greedy_half(&items, cap);
        assert!(g.feasible(cap), "case {case}");
        assert!(g.profit >= 0.5 * opt.profit - 1e-9, "case {case}");
    }
}

#[test]
fn algorithm1_bound_holds() {
    for case in 0..CASES {
        let mut rng = case_rng(104, case);
        let nslots = rng.random_range(1usize..4);
        let caps: Vec<u64> = (0..nslots).map(|_| rng.random_range(5u64..60)).collect();
        let nitems = rng.random_range(1usize..9);
        let items: Vec<OvItem> = (0..nitems)
            .map(|_| {
                let w = rng.random_range(1u64..25);
                let p1 = rng.random_range(0.5f64..20.0);
                let p2 = rng.random_range(0.5f64..20.0);
                let a = rng.random_range(0usize..8) % nslots;
                if rng.random::<bool>() && nslots > 1 {
                    OvItem::pair(w, (a, p1), ((a + 1) % nslots, p2))
                } else {
                    OvItem::single(w, a, p1)
                }
            })
            .collect();
        let problem = OvProblem {
            capacities: caps,
            items,
        };
        let eps = 0.1;
        let approx = overlapped::solve(&problem, eps);
        let opt = overlapped::brute_force(&problem);
        assert!(approx.feasible(&problem), "case {case}");
        assert!(
            approx.profit >= (1.0 - eps) / 2.0 * opt.profit - 1e-9,
            "case {case}: {} < (1-eps)/2 * {}",
            approx.profit,
            opt.profit
        );
    }
}

#[test]
fn interval_merge_preserves_coverage() {
    for case in 0..CASES {
        let mut rng = case_rng(105, case);
        let count = rng.random_range(0usize..20);
        let intervals = random_intervals(&mut rng, 1_000, 100, count);
        let merged = merge_intervals(intervals.clone());
        // Disjoint and sorted.
        for w in merged.windows(2) {
            assert!(w[0].end < w[1].start, "case {case}");
        }
        // Every original point is covered, and no new points appear.
        for iv in &intervals {
            for t in [iv.start, iv.end - 1, iv.midpoint()] {
                assert!(merged.iter().any(|m| m.contains(t)), "case {case}");
            }
        }
        let total: u64 = merged.iter().map(Interval::len).sum();
        let max_total: u64 = intervals.iter().map(Interval::len).sum();
        assert!(total <= max_total, "case {case}");
    }
}

#[test]
fn rrc_account_invariants() {
    for case in 0..CASES {
        let mut rng = case_rng(106, case);
        let count = rng.random_range(1usize..30);
        let intervals = random_intervals(&mut rng, 50_000, 120, count);
        let radio = RrcModel::wcdma_default();
        let b = radio.account(&intervals);
        assert!(b.total_j() > 0.0, "case {case}");
        assert!(b.wakeups >= 1, "case {case}");
        assert!(b.radio_on_secs() >= b.active_secs, "case {case}");
        // Batching the merged bursts back-to-back never costs more
        // (serializing *overlapping* raw spans could add active time,
        // so the invariant is stated over the merged timeline).
        let mut t = 0u64;
        let batched: Vec<Interval> = merge_intervals(intervals.clone())
            .iter()
            .map(|iv| {
                let s = t;
                t += iv.len();
                Interval::new(s, t)
            })
            .collect();
        let bb = radio.account(&batched);
        assert!(bb.total_j() <= b.total_j() + 1e-9, "case {case}");
        // Immediate tail-off is never more expensive than full tails.
        let off = RrcModel::wcdma_immediate_off().account(&intervals);
        assert!(off.total_j() <= b.total_j() + 1e-9, "case {case}");
    }
}

#[test]
fn generator_output_is_always_valid() {
    for case in 0..CASES {
        let mut rng = case_rng(107, case);
        let seed: u64 = rng.random();
        let user = rng.random_range(0usize..8);
        let days = rng.random_range(1usize..5);
        let profile = UserProfile::panel().remove(user);
        let trace = TraceGenerator::new(profile).with_seed(seed).generate(days);
        assert_eq!(trace.validate(), Ok(()), "case {case}");
        assert_eq!(trace.num_days(), days, "case {case}");
    }
}

#[test]
fn policies_conserve_bytes_on_random_workloads() {
    // Full simulations are the slowest cases; a smaller count keeps the
    // suite fast while still covering all three policies.
    for case in 0..24 {
        let mut rng = case_rng(108, case);
        let seed: u64 = rng.random();
        let delay = rng.random_range(1u64..700);
        let batch = rng.random_range(2usize..10);
        let profile = UserProfile::volunteers().remove((seed % 3) as usize);
        let trace = TraceGenerator::new(profile).with_seed(seed).generate(3);
        let cfg = SimConfig::default();
        let expected: (u64, u64) = trace.total_bytes();
        for policy in [
            Box::new(DelayPolicy::new(delay)) as Box<dyn Policy + Send>,
            Box::new(BatchPolicy::new(batch)),
            Box::new(OraclePolicy),
        ] {
            let mut p = policy;
            let m = simulate(&trace.days, p.as_mut(), &cfg);
            assert_eq!(
                (m.bytes_down, m.bytes_up),
                expected,
                "case {case}: {}",
                m.policy
            );
        }
    }
}

#[test]
fn prediction_risk_bounded_by_delta() {
    use netmaster::trace::time::DayKind;
    for case in 0..24 {
        let mut rng = case_rng(109, case);
        let seed: u64 = rng.random();
        let delta = rng.random_range(0.0f64..0.95);
        let user = rng.random_range(0usize..8);
        let profile = UserProfile::panel().remove(user);
        let trace = TraceGenerator::new(profile).with_seed(seed).generate(10);
        let h = HourlyHistory::from_trace(&trace);
        let pred = predict_active_slots(&h, PredictionConfig::uniform(delta));
        for kind in [DayKind::Weekday, DayKind::Weekend] {
            assert!(pred.residual_risk(kind) <= delta + 1e-12, "case {case}");
        }
    }
}

#[test]
fn bnb_matches_brute_force() {
    for case in 0..48 {
        let mut rng = case_rng(201, case);
        let items = random_items(&mut rng, 12);
        let cap = rng.random_range(1u64..150);
        let a = brute_force(&items, cap);
        let b = branch_and_bound(&items, cap);
        assert!((a.profit - b.profit).abs() < 1e-9, "case {case}");
        assert!(b.feasible(cap), "case {case}");
    }
}

#[test]
fn timeline_equals_accountant() {
    for case in 0..48 {
        let mut rng = case_rng(202, case);
        let count = rng.random_range(1usize..25);
        let intervals = random_intervals(&mut rng, 40_000, 90, count);
        let lte: bool = rng.random();
        let immediate: bool = rng.random();
        let mut model = if lte {
            RrcModel::lte_default()
        } else {
            RrcModel::wcdma_default()
        };
        if immediate {
            model.tail_policy = TailPolicy::Immediate;
        }
        let b = model.account(&intervals);
        let t = Timeline::build(&model, &intervals);
        assert!(
            (t.total_j() - b.total_j()).abs() < 1e-6,
            "case {case}: timeline {} vs account {}",
            t.total_j(),
            b.total_j()
        );
        assert!(
            (t.radio_on_secs() - b.radio_on_secs()).abs() < 1e-6,
            "case {case}"
        );
        assert_eq!(t.wakeups(), b.wakeups, "case {case}");
    }
}

#[test]
fn attribution_conserves_energy() {
    for case in 0..48 {
        let mut rng = case_rng(203, case);
        let count = rng.random_range(1usize..25);
        let tagged: Vec<(AppId, Interval)> = (0..count)
            .map(|_| {
                let s = rng.random_range(0u64..40_000);
                let l = rng.random_range(1u64..90);
                (AppId(rng.random_range(0u16..6)), Interval::new(s, s + l))
            })
            .collect();
        let model = RrcModel::wcdma_default();
        let intervals: Vec<Interval> = tagged.iter().map(|&(_, s)| s).collect();
        let total = model.account(&intervals).total_j();
        let att = apportion(&model, &tagged);
        let attributed: f64 = att.values().map(AppEnergy::total_j).sum();
        assert!(
            (total - attributed).abs() < 1e-6,
            "case {case}: account {total} vs attributed {attributed}"
        );
        // Per-app components are non-negative.
        for e in att.values() {
            assert!(
                e.active_j >= -1e-12 && e.promo_j >= -1e-12 && e.tail_j >= -1e-12,
                "case {case}"
            );
        }
    }
}

#[test]
fn duty_cycle_serves_every_arrival_in_order() {
    for case in 0..48 {
        let mut rng = case_rng(204, case);
        let window_len = rng.random_range(100u64..20_000);
        let n_arrivals = rng.random_range(0usize..30);
        let scheme_pick = rng.random_range(0u8..4);
        let t_param = rng.random_range(5u64..120);
        let window = Interval::new(10_000, 10_000 + window_len);
        let mut arr: Vec<u64> = (0..n_arrivals)
            .map(|_| window.start + rng.random_range(0u64..20_000) % window_len.max(1))
            .collect();
        arr.sort_unstable();
        let scheme = match scheme_pick {
            0 => SleepScheme::Exponential {
                initial: t_param,
                reset_on_serve: true,
            },
            1 => SleepScheme::Exponential {
                initial: t_param,
                reset_on_serve: false,
            },
            2 => SleepScheme::Fixed { period: t_param },
            _ => SleepScheme::Random {
                min: t_param,
                max: t_param * 3,
                seed: 9,
            },
        };
        let out = run_window(scheme, window, &arr);
        // Every arrival served exactly once, never before it arrives,
        // and in arrival order.
        assert_eq!(out.served.len(), arr.len(), "case {case}");
        let mut seen = vec![false; arr.len()];
        let mut last_idx = 0usize;
        for &(i, at) in &out.served {
            assert!(!seen[i], "case {case}");
            seen[i] = true;
            assert!(
                at >= arr[i],
                "case {case}: served {at} before arrival {}",
                arr[i]
            );
            assert!(i >= last_idx || last_idx == 0, "case {case}");
            last_idx = i;
        }
        // Wake-ups stay inside the window.
        for &w in &out.wakeups {
            assert!(window.contains(w), "case {case}");
        }
        assert!(out.empty_wakeups <= out.wakeups.len() as u64, "case {case}");
    }
}

#[test]
fn delay_policy_holds_are_bounded() {
    for case in 0..48 {
        let mut rng = case_rng(205, case);
        let seed: u64 = rng.random();
        let delay = rng.random_range(1u64..700);
        let profile = UserProfile::panel().remove((seed % 8) as usize);
        let trace = TraceGenerator::new(profile).with_seed(seed).generate(2);
        let mut p = DelayPolicy::new(delay);
        for day in &trace.days {
            let plan = netmaster::sim::Policy::plan_day(&mut p, day);
            for e in &plan.executions {
                if let Some(orig) = e.moved_from {
                    assert!(e.start >= orig, "case {case}: never executes early");
                    // Grid release + stagger: bounded by delay plus the
                    // batch's serialized duration (well under 1h here).
                    assert!(
                        e.start - orig <= delay + 3_600,
                        "case {case}: hold {} exceeds bound",
                        e.start - orig
                    );
                }
            }
        }
    }
}

/// Fisher–Yates shuffle on the test's seeded generator.
fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..=i));
    }
}

fn demand(start: u64) -> NetworkActivity {
    NetworkActivity {
        start,
        duration: 5,
        bytes_down: 1_000,
        bytes_up: 0,
        app: AppId(0),
        cause: ActivityCause::Background,
    }
}

/// The one-walk screen states equal a point query per activity, on
/// generated panel days and on days no generator makes: activity starts
/// out of order or on a session's edges, zero-length, overlapping or
/// unsorted sessions, and days without sessions.
#[test]
fn screen_state_walk_matches_point_queries() {
    let check = |day: &DayTrace, case: u64| {
        let walked: Vec<(u64, bool)> = day
            .activity_screen_states()
            .map(|(a, on)| (a.start, on))
            .collect();
        let asked: Vec<(u64, bool)> = day
            .activities
            .iter()
            .map(|a| (a.start, day.screen_on_at(a.start)))
            .collect();
        assert_eq!(walked, asked, "case {case}: {:?}", day.sessions);
        // The buffer form, over a buffer left dirty by another length.
        let mut buf = vec![true; (case % 5) as usize];
        day.activity_screen_states_into(&mut buf);
        let asked: Vec<bool> = asked.iter().map(|&(_, on)| on).collect();
        assert_eq!(buf, asked, "case {case}: {:?}", day.sessions);
    };
    for case in 0..CASES {
        let mut rng = case_rng(212, case);
        let seed: u64 = rng.random();
        let profile = UserProfile::panel().remove((seed % 8) as usize);
        let trace = TraceGenerator::new(profile).with_seed(seed).generate(2);
        for day in &trace.days {
            check(day, case);
        }
    }
    for case in 0..4 * CASES {
        let mut rng = case_rng(213, case);
        let mut day = DayTrace::new(0);
        let mut t = 0;
        for _ in 0..rng.random_range(0usize..6) {
            t += rng.random_range(0u64..40);
            let len = if rng.random_bool(0.3) {
                0
            } else {
                rng.random_range(1u64..30)
            };
            day.sessions.push(ScreenSession {
                start: t,
                end: t + len,
            });
            t += len;
        }
        if rng.random_bool(0.2) {
            let start = rng.random_range(0..=t);
            let end = start + rng.random_range(0u64..60);
            day.sessions.push(ScreenSession { start, end });
            day.sessions.sort_by_key(|s| s.start);
        }
        if rng.random_bool(0.2) {
            shuffle(&mut day.sessions, &mut rng);
        }
        let edges: Vec<u64> = day.sessions.iter().flat_map(|s| [s.start, s.end]).collect();
        for _ in 0..rng.random_range(0usize..20) {
            let start = if !edges.is_empty() && rng.random_bool(0.6) {
                let e = edges[rng.random_range(0..edges.len())];
                (e + rng.random_range(0u64..3)).saturating_sub(1)
            } else {
                rng.random_range(0..=t + 10)
            };
            day.activities.push(demand(start));
        }
        if rng.random_bool(0.5) {
            day.activities.sort_by_key(|a| a.start);
        }
        check(&day, case);
    }
}

/// A policy whose plans come out sorted by start (`rng` is `None`) or
/// shuffled.
struct Reordered<P> {
    inner: P,
    rng: Option<StdRng>,
}

impl<P: Policy> Policy for Reordered<P> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn tail_policy(&self) -> TailPolicy {
        self.inner.tail_policy()
    }

    fn plan_day(&mut self, day: &DayTrace) -> DayPlan {
        let mut plan = self.inner.plan_day(day);
        match &mut self.rng {
            Some(rng) => shuffle(&mut plan.executions, rng),
            None => plan.executions.sort_by_key(|e| e.start),
        }
        plan
    }
}

/// The order of a timeline's spans, or of a plan's executions, carries
/// no information: `account`, `sweep`'s totals and `simulate`'s energy
/// are bit-identical under any order, so no planner needs to sort its
/// executions for them.
#[test]
fn radio_totals_ignore_span_order() {
    for case in 0..CASES {
        let mut rng = case_rng(214, case);
        let count = rng.random_range(1usize..40);
        let mut spans = random_intervals(&mut rng, 20_000, 200, count);
        // Repeats and shared starts, so sort ties occur.
        for _ in 0..rng.random_range(0usize..5) {
            let s = spans[rng.random_range(0..spans.len())];
            spans.push(if rng.random_bool(0.5) {
                s
            } else {
                Interval::new(s.start, s.start + rng.random_range(0u64..50))
            });
        }
        let mut model = if rng.random_bool(0.5) {
            RrcModel::lte_default()
        } else {
            RrcModel::wcdma_default()
        };
        if rng.random_bool(0.5) {
            model.tail_policy = TailPolicy::Immediate;
        }
        let sorted = {
            let mut v = spans.clone();
            v.sort_by_key(|s| s.start);
            model.account(&v)
        };
        let mut shuffled = spans.clone();
        shuffle(&mut shuffled, &mut rng);
        let (mut keys, mut bills) = (Vec::new(), Vec::new());
        for got in [
            model.account(&spans),
            model.account(&shuffled),
            model.sweep(&shuffled, &mut keys, Some(&mut bills)),
        ] {
            assert_eq!(got, sorted, "case {case}");
            assert_eq!(got.total_j().to_bits(), sorted.total_j().to_bits());
        }
    }
    let cfg = SimConfig::default();
    for case in 0..8 {
        let mut rng = case_rng(215, case);
        let seed: u64 = rng.random();
        let profile = UserProfile::panel().remove((seed % 8) as usize);
        let trace = TraceGenerator::new(profile).with_seed(seed).generate(9);
        let (train, test) = trace.days.split_at(6);
        let policy = || {
            NetMasterPolicy::new(
                NetMasterConfig::default(),
                LinkModel::default(),
                RrcModel::wcdma_default(),
            )
            .with_training(train)
        };
        let plain = simulate(test, &mut policy(), &cfg);
        assert!(plain.moved_transfers > 0, "case {case}: nothing moved");
        for order in [None, Some(StdRng::seed_from_u64(seed))] {
            let mut p = Reordered {
                inner: policy(),
                rng: order,
            };
            let m = simulate(test, &mut p, &cfg);
            assert_eq!(m.rrc, plain.rrc, "case {case}");
            assert_eq!(
                m.energy_j.to_bits(),
                plain.energy_j.to_bits(),
                "case {case}"
            );
        }
    }
}
