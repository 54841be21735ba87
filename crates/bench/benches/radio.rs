//! Criterion benches for the RRC energy accountant.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use netmaster_radio::attribution::apportion;
use netmaster_radio::{Interval, RrcModel, Timeline};
use netmaster_trace::event::AppId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

/// `n` random transfers of 1–59 s spread over `days` days.
fn spans_over(days: u64, n: usize, seed: u64) -> Vec<Interval> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| {
            let s = rng.random_range(0..days * 86_400);
            Interval::new(s, s + rng.random_range(1..60u64))
        })
        .collect()
}

/// Tags each span with one of `apps` random app ids.
fn tag_apps(sp: &[Interval], apps: u16, seed: u64) -> Vec<(AppId, Interval)> {
    let mut rng = StdRng::seed_from_u64(seed);
    sp.iter()
        .map(|&s| (AppId(rng.random_range(0..apps)), s))
        .collect()
}

fn bench_account(c: &mut Criterion) {
    let mut g = c.benchmark_group("rrc_account");
    for &n in &[100usize, 1_000, 10_000] {
        let sp = spans_over(7, n, 9);
        let wcdma = RrcModel::wcdma_default();
        let lte = RrcModel::lte_default();
        g.bench_with_input(BenchmarkId::new("wcdma", n), &sp, |b, sp| {
            b.iter(|| black_box(wcdma.account(sp)))
        });
        g.bench_with_input(BenchmarkId::new("lte", n), &sp, |b, sp| {
            b.iter(|| black_box(lte.account(sp)))
        });
    }
    g.finish();
}

fn bench_timeline_and_attribution(c: &mut Criterion) {
    let sp = spans_over(7, 2_000, 3);
    let wcdma = RrcModel::wcdma_default();
    c.bench_function("timeline_build_2000", |b| {
        b.iter(|| black_box(Timeline::build(&wcdma, &sp)))
    });
    let tagged = tag_apps(&sp, 20, 4);
    c.bench_function("attribute_2000_spans_20_apps", |b| {
        b.iter(|| black_box(apportion(&wcdma, &tagged)))
    });
    // A full trace's worth of transfers, billed per app.
    let trace = tag_apps(&spans_over(21, 20_000, 6), 20, 7);
    c.bench_function("attribute_20000_spans_21_days", |b| {
        b.iter(|| black_box(apportion(&wcdma, &trace)))
    });
    // One watch-drift-sized day billed per activity, as the service
    // prices its flight recorder (unique trace-id keys).
    let day: Vec<(u64, Interval)> = (0..).zip(spans_over(1, 150, 8)).collect();
    c.bench_function("apportion_150_activities", |b| {
        b.iter(|| black_box(apportion(&wcdma, &day)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_account, bench_timeline_and_attribution
}
criterion_main!(benches);
