//! Criterion benches for the knapsack solvers: the cost of the paper's
//! ε = 0.1 choice, solver scaling, and Algorithm 1 on day-sized
//! instances.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netmaster_knapsack::overlapped::{self, OvItem, OvProblem};
use netmaster_knapsack::{branch_and_bound, greedy_half, sin_knap, Item};
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

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_sin_knap, bench_alternatives, bench_algorithm1, bench_exact
}
criterion_main!(benches);
