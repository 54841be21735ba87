//! Criterion benches for the knapsack solvers: the cost of the paper's
//! ε = 0.1 choice, solver scaling, Algorithm 1 on day-sized instances,
//! and the two arms that answer a binding slot.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netmaster_knapsack::overlapped::{self, OvItem, OvProblem};
use netmaster_knapsack::{
    branch_and_bound, branch_and_bound_budgeted, greedy_half, quantized_dp, sin_knap, BnbScratch,
    Item, SolverScratch,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn items(n: usize, seed: u64) -> Vec<Item> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| Item::new(rng.random_range(1.0..30.0), rng.random_range(100..50_000)))
        .collect()
}

fn bench_sin_knap(c: &mut Criterion) {
    let mut g = c.benchmark_group("sin_knap");
    for &n in &[10usize, 50, 100] {
        let it = items(n, 42);
        let cap = 500_000;
        for &eps in &[0.5, 0.1, 0.01] {
            g.bench_with_input(
                BenchmarkId::new(format!("n{n}"), format!("eps{eps}")),
                &(it.clone(), cap, eps),
                |b, (it, cap, eps)| b.iter(|| black_box(sin_knap(it, *cap, *eps))),
            );
        }
    }
    g.finish();
}

fn bench_alternatives(c: &mut Criterion) {
    let mut g = c.benchmark_group("single_knapsack");
    let it = items(50, 7);
    g.bench_function("greedy_half_n50", |b| {
        b.iter(|| black_box(greedy_half(&it, 500_000)))
    });
    g.finish();
}

/// A day-sized Algorithm 1 instance: ~6 slots, ~16 screen-off hours
/// with duplicated items — the work NetMaster does once per day.
fn day_instance(items_per_hour: usize) -> OvProblem {
    let mut rng = StdRng::seed_from_u64(2014);
    let nslots = 6usize;
    let capacities: Vec<u64> = (0..nslots).map(|_| 210_000 * 3_600).collect();
    let mut items = Vec::new();
    for _hour in 0..16 {
        for _ in 0..items_per_hour {
            let w = rng.random_range(200..20_000);
            let a = rng.random_range(0..nslots);
            let b = (a + 1) % nslots;
            items.push(OvItem::pair(
                w,
                (a, rng.random_range(5.0..12.0)),
                (b, rng.random_range(5.0..12.0)),
            ));
        }
    }
    OvProblem { capacities, items }
}

fn bench_algorithm1(c: &mut Criterion) {
    let mut g = c.benchmark_group("algorithm1");
    for &per_hour in &[1usize, 3, 8] {
        let p = day_instance(per_hour);
        g.bench_with_input(
            BenchmarkId::new("solve_eps0.1", format!("{}items", p.items.len())),
            &p,
            |b, p| b.iter(|| black_box(overlapped::solve(p, 0.1))),
        );
    }
    g.finish();
}

fn bench_exact(c: &mut Criterion) {
    let mut g = c.benchmark_group("exact");
    for &n in &[50usize, 150, 300] {
        let it = items(n, 11);
        g.bench_with_input(BenchmarkId::new("branch_and_bound", n), &it, |b, it| {
            b.iter(|| black_box(branch_and_bound(it, 500_000)))
        });
    }
    g.finish();
}

/// A slot list shaped like the planner's on a binding link: 20–40
/// items in runs of identical ones (one pool's predicted demands), byte
/// weights, profits of a few joules, in ratio order as step 2 leaves
/// it, and a capacity holding about two fifths of the list's weight.
fn binding_slot(seed: u64) -> (Vec<Item>, u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = rng.random_range(20..=40usize);
    let mut it = Vec::with_capacity(n);
    while it.len() < n {
        let copies = rng.random_range(1..=6usize).min(n - it.len());
        let item = Item::new(rng.random_range(0.5..12.0), rng.random_range(256..50_000));
        it.extend(std::iter::repeat_n(item, copies));
    }
    it.sort_by(|a, b| b.ratio().total_cmp(&a.ratio()));
    let total: u64 = it.iter().map(|x| x.weight).sum();
    (it, total * 2 / 5)
}

/// The budget `solve_auto` gives the search: 64 nodes per eligible item.
fn dispatch_budget(it: &[Item], cap: u64) -> usize {
    64 * it.iter().filter(|x| x.weight <= cap).count()
}

fn bench_binding_slot(c: &mut Criterion) {
    // The first eight seeds whose budgeted search finishes, and the
    // first eight whose budget runs out (where `solve_auto` then runs
    // the quantized DP).
    let mut bnb = BnbScratch::new();
    let (mut completed, mut exhausted) = (Vec::new(), Vec::new());
    for seed in 0.. {
        let (it, cap) = binding_slot(seed);
        let done = branch_and_bound_budgeted(&it, cap, dispatch_budget(&it, cap), &mut bnb);
        let set = if done.is_some() {
            &mut completed
        } else {
            &mut exhausted
        };
        if set.len() < 8 {
            set.push((it, cap));
        }
        if completed.len() == 8 && exhausted.len() == 8 {
            break;
        }
    }
    let mut g = c.benchmark_group("binding_slot");
    for (name, set) in [("bnb_completed", &completed), ("bnb_exhausted", &exhausted)] {
        g.bench_function(name, |b| {
            b.iter(|| {
                for (it, cap) in set.iter() {
                    black_box(branch_and_bound_budgeted(
                        it,
                        *cap,
                        dispatch_budget(it, *cap),
                        &mut bnb,
                    ));
                }
            })
        });
    }
    let mut scratch = SolverScratch::new();
    g.bench_function("quantized_dp", |b| {
        b.iter(|| {
            for (it, cap) in &exhausted {
                black_box(quantized_dp(it, *cap, 0.1, &mut scratch));
            }
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_sin_knap, bench_alternatives, bench_algorithm1, bench_exact, bench_binding_slot
}
criterion_main!(benches);
