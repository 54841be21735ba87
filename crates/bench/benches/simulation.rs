//! Criterion benches for trace generation, full-policy simulation —
//! the end-to-end cost of one Fig. 7 arm — one day of the middleware
//! service, and one metrics-only `NetMasterPolicy::plan_day`.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use netmaster_bench::harness;
use netmaster_core::policies::{DefaultPolicy, NetMasterPolicy, OraclePolicy};
use netmaster_core::{MiddlewareService, NetMasterConfig};
use netmaster_radio::{LinkModel, RrcModel};
use netmaster_sim::{par_map, simulate, Policy, SimConfig};
use netmaster_trace::gen::{generate_panel, TraceGenerator};
use netmaster_trace::profile::UserProfile;
use std::hint::black_box;

fn bench_generation(c: &mut Criterion) {
    let profile = UserProfile::volunteers().remove(0);
    c.bench_function("generate_21_days", |b| {
        b.iter(|| {
            black_box(
                TraceGenerator::new(profile.clone())
                    .with_seed(7)
                    .generate(21),
            )
        })
    });
}

fn bench_simulation(c: &mut Criterion) {
    let trace = harness::volunteers().remove(0);
    let cfg = SimConfig::default();
    let test = &trace.days[harness::TRAIN_DAYS..];

    c.bench_function("simulate_default_7d", |b| {
        b.iter(|| black_box(simulate(test, &mut DefaultPolicy, &cfg)))
    });
    c.bench_function("simulate_oracle_7d", |b| {
        b.iter(|| black_box(simulate(test, &mut OraclePolicy, &cfg)))
    });
    // NetMaster re-trains and re-plans every day: the heavy arm.
    c.bench_function("simulate_netmaster_7d", |b| {
        b.iter(|| {
            let mut nm = harness::trained_netmaster(&trace);
            black_box(simulate(test, &mut nm, &cfg))
        })
    });
}

/// One `MiddlewareService::run_day`, flight recorder on (the service's
/// default): plan, price both arms, bill every activity. The day is the
/// busiest of the panel's third weeks; the service is installed with
/// the 14 days before it, untimed, for every iteration.
fn bench_service_day(c: &mut Criterion) {
    let panel = generate_panel(21, 7);
    let (trace, busy) = panel
        .iter()
        .flat_map(|t| (14..t.num_days()).map(move |d| (t, d)))
        .max_by_key(|&(t, d)| t.days[d].activities.len())
        .expect("the panel has third-week days");
    let (history, day) = (&trace.days[busy - 14..busy], &trace.days[busy]);
    c.bench_function("service_run_day_busy", |b| {
        b.iter_batched(
            || MiddlewareService::new().import_history(history),
            |mut svc| (svc.run_day(day), svc),
            BatchSize::SmallInput,
        )
    });
}

/// One `NetMasterPolicy::plan_day` as a `fleet-week` member runs it:
/// metrics-only, default link, trained on 14 days, planning day 15
/// (plan, route, duty-cycle, learn). The trained policy is rebuilt,
/// untimed, for every iteration.
fn bench_plan_day(c: &mut Criterion) {
    let trace = TraceGenerator::new(UserProfile::panel().remove(0))
        .with_seed(1)
        .generate(15);
    let (train, day) = (&trace.days[..14], &trace.days[14]);
    c.bench_function("plan_day_metrics_only", |b| {
        b.iter_batched(
            || {
                NetMasterPolicy::new(
                    NetMasterConfig::default(),
                    LinkModel::default(),
                    RrcModel::wcdma_default(),
                )
                .with_flight_recorder(false)
                .with_training(train)
            },
            |mut policy| (policy.plan_day(day), policy),
            BatchSize::SmallInput,
        )
    });
}

fn bench_parallel_sweep(c: &mut Criterion) {
    let trace = harness::volunteers().remove(1);
    let cfg = SimConfig::default();
    let test = &trace.days[harness::TRAIN_DAYS..];
    let delays: Vec<u64> = vec![0, 5, 10, 30, 60, 120, 300, 600];

    c.bench_function("delay_sweep_serial_8pts", |b| {
        b.iter(|| {
            for &d in &delays {
                let mut p = netmaster_core::policies::DelayPolicy::new(d);
                black_box(simulate(test, &mut p, &cfg));
            }
        })
    });
    c.bench_function("delay_sweep_parallel_8pts", |b| {
        b.iter(|| {
            black_box(par_map(&delays, |&d| {
                let mut p = netmaster_core::policies::DelayPolicy::new(d);
                simulate(test, &mut p, &cfg)
            }))
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(std::time::Duration::from_millis(300))
        .measurement_time(std::time::Duration::from_secs(1));
    targets = bench_generation, bench_simulation, bench_service_day, bench_plan_day,
        bench_parallel_sweep
}
criterion_main!(benches);
