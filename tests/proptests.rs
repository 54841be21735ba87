//! Property-based tests over cross-crate invariants.
//!
//! Written as seeded random-case loops (the build has no registry access
//! for the `proptest` crate): each test draws its cases from a `StdRng`
//! with a fixed per-test seed, so failures are reproducible — rerun with
//! the printed case seed to shrink by hand.

use netmaster::core::dutycycle::{run_window, SleepScheme};
use netmaster::knapsack::overlapped::{self, OvItem, OvProblem};
use netmaster::knapsack::{
    branch_and_bound, brute_force, dp_by_capacity, greedy_half, sin_knap, Item,
};
use netmaster::prelude::*;
use netmaster::radio::attribution::{apportion, AppEnergy};
use netmaster::radio::Interval;
use netmaster::trace::event::AppId;
use netmaster::trace::time::merge_intervals;
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
        let dp = dp_by_capacity(&items, cap);
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
