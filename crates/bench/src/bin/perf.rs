//! Hot-path performance tracking: times the allocation-free solvers
//! against the preserved reference implementations, and prices the
//! telemetry plane's live attachments on a streaming fleet.
//!
//! ```text
//! cargo run -p netmaster-bench --bin perf --release -- [FLEET_N] [--out FILE] [--smoke] [--registry FILE]
//! ```
//!
//! `--smoke` shrinks every workload for CI (seconds, not minutes) and
//! relaxes the overhead budget to a noise-tolerant 15%; the full run
//! enforces it at <2%. The report goes to `--out` (default `perf.json`).
//!
//! Covered paths:
//!
//! * `sin_knap` — reference (per-call `Vec` DP tables) vs `sin_knap_with`
//!   (reused scratch, bit-packed choice table, capacity-slack fast path)
//!   on all-fitting instances, plus a capacity-bound instance where the
//!   full DP must run;
//! * `overlapped::solve` — reference Algorithm 1 vs `solve_with`;
//! * `DecisionMaker::plan_day` — allocating vs scratch-threaded;
//! * scrape overhead — a fleet of `FLEET_N` members publishing into a
//!   telemetry hub while a live HTTP server is scraped at 1 Hz, vs the
//!   bare fleet;
//! * tracing overhead — the same fleet with span-tree capture on and
//!   the sampling profiler walking live stacks at ~97 Hz vs both
//!   switched off.
//!
//! Every solver bench must hold its floor over the reference (1.0×, or
//! 0.25× in smoke mode) and the slack n=100 fast path at least 5×. Each
//! A/B arm is the fleet's plain wall time, trace generation included in
//! both arms; an arm that does not measure a positive, finite time fails
//! the run. The process exits nonzero when any check fails. The
//! instrumentation's own cost on the product path (metrics on vs off,
//! span capture on vs off) is priced by `nmbench` as `obs.runtime_share`
//! and `obs.capture_share`.
//!
//! Each run appends one provenance-stamped row (git revision, seed,
//! config hash, KPIs) to the `runs.jsonl` run registry.

use netmaster_bench::harness::{self, TEST_DAYS, TRAIN_DAYS};
use netmaster_bench::regression::{self, SolverSpeedup};
use netmaster_core::decision::DecisionMaker;
use netmaster_core::NetMasterConfig;
use netmaster_knapsack::overlapped::OvProblem;
use netmaster_knapsack::{
    reference, sin_knap_with, solve_auto, solve_with, Item, OvScratch, SolverScratch,
};
use netmaster_mining::{predict_with_confidence, Bound, HourlyHistory, NetworkPrediction};
use netmaster_radio::{LinkModel, RrcModel};
use netmaster_sim::{run_fleet_streaming_with, Policy, SimConfig};
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Serialize)]
struct Comparison {
    label: String,
    reference_ns: u64,
    optimized_ns: u64,
    speedup: f64,
}

/// A/B of the same fleet run bare vs with one telemetry attachment
/// live, kept from the attempt with the lowest overhead.
#[derive(Serialize)]
struct Overhead {
    /// Wall seconds of the bare fleet.
    bare_secs: f64,
    /// Wall seconds of the fleet with the attachment live.
    live_secs: f64,
    /// What the attachment did meanwhile: scrape rounds or profiler
    /// samples.
    events: u64,
    /// `live_secs / bare_secs - 1`; negative when the live arm happened
    /// to run faster.
    overhead: f64,
    attempts: usize,
}

#[derive(Serialize)]
struct PerfReport {
    sin_knap: Vec<Comparison>,
    solver_matrix: Vec<Comparison>,
    overlapped: Comparison,
    plan_day: Comparison,
    fleet_members: usize,
    scrape_overhead: Overhead,
    tracing_overhead: Overhead,
}

/// `reps` wall-time samples of `iters` calls to `f`, in nanoseconds
/// per call, sorted. A black box on the result keeps the optimizer
/// honest.
fn samples_ns<R>(reps: usize, iters: u32, mut f: impl FnMut() -> R) -> Vec<u64> {
    let mut samples: Vec<u64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            (t.elapsed().as_nanos() / iters as u128) as u64
        })
        .collect();
    samples.sort_unstable();
    samples
}

impl Comparison {
    fn new(label: &str, reference_ns: u64, optimized_ns: u64) -> Comparison {
        let speedup = reference_ns as f64 / optimized_ns.max(1) as f64;
        println!("{label:<28} reference {reference_ns:>10} ns   optimized {optimized_ns:>10} ns   {speedup:>7.1}x");
        Comparison {
            label: label.into(),
            reference_ns,
            optimized_ns,
            speedup,
        }
    }
}

/// Median-of-`reps` comparison. The solver matrix uses the median
/// rather than the minimum: the shapes being compared differ by orders
/// of magnitude, and on a noisy shared box the median is the stable
/// central estimate while min favours whichever side got the quietest
/// scheduler slice.
fn compare_median(
    label: &str,
    reps: usize,
    iters: u32,
    reference: impl FnMut(),
    optimized: impl FnMut(),
) -> Comparison {
    let median = |s: Vec<u64>| s[s.len() / 2];
    Comparison::new(
        label,
        median(samples_ns(reps, iters, reference)),
        median(samples_ns(reps, iters, optimized)),
    )
}

/// Best-of-3 comparison.
fn compare(
    label: &str,
    iters: u32,
    reference: impl FnMut(),
    optimized: impl FnMut(),
) -> Comparison {
    Comparison::new(
        label,
        samples_ns(3, iters, reference)[0],
        samples_ns(3, iters, optimized)[0],
    )
}

/// `n` items whose total weight fits `capacity` (the fast-path shape:
/// a predicted night of small syncs against a whole slot's bytes).
fn slack_instance(n: usize, rng: &mut StdRng) -> (Vec<Item>, u64) {
    let items: Vec<Item> = (0..n)
        .map(|_| Item::new(rng.random_range(0.5..40.0), rng.random_range(200..4_000u64)))
        .collect();
    let total: u64 = items.iter().map(|i| i.weight).sum();
    (items, total + 10_000)
}

fn sin_knap_comparisons(smoke: bool) -> Vec<Comparison> {
    let mut rng = StdRng::seed_from_u64(2014);
    let mut out = Vec::new();
    let mut scratch = SolverScratch::new();
    let sizes: &[usize] = if smoke { &[10, 100] } else { &[10, 100, 500] };
    for &n in sizes {
        let (items, cap) = slack_instance(n, &mut rng);
        // The reference runs a full O(n³/ε) DP even on slack instances
        // (~0.7 s/solve at n=500): keep iteration counts proportionate.
        let iters: u32 = match n {
            10 => 2_000,
            100 => 50,
            _ => 3,
        };
        out.push(compare(
            &format!("sin_knap slack n={n}"),
            iters,
            || {
                reference::sin_knap(&items, cap, 0.1);
            },
            || {
                sin_knap_with(&items, cap, 0.1, &mut scratch);
            },
        ));
    }
    // Capacity-bound: the DP must actually run; the win here is table
    // reuse and the bit-packed choice matrix, not the fast path.
    let (items, cap) = slack_instance(100, &mut rng);
    let cap = cap / 4;
    out.push(compare(
        "sin_knap bound n=100",
        if smoke { 10 } else { 50 },
        || {
            reference::sin_knap(&items, cap, 0.1);
        },
        || {
            sin_knap_with(&items, cap, 0.1, &mut scratch);
        },
    ));
    out
}

/// The dispatcher matrix: {dense, sparse} profit distributions ×
/// {tight, slack} capacities × n ∈ {10, 100, 500}, each timed
/// median-of-N against the reference FPTAS. Dense profits draw from a
/// continuum (every Ibarra–Kim level is distinct); sparse profits
/// collapse onto four values, the shape where the quantized DP's
/// Pareto frontier stays tiny. Tight caps force real search; slack
/// caps hand the dispatcher its fast path.
fn solver_matrix(smoke: bool) -> Vec<Comparison> {
    let mut rng = StdRng::seed_from_u64(4242);
    let mut scratch = SolverScratch::new();
    let mut out = Vec::new();
    let sizes: &[usize] = if smoke { &[10, 100] } else { &[10, 100, 500] };
    for &n in sizes {
        for dense in [true, false] {
            for tight in [true, false] {
                let items: Vec<Item> = (0..n)
                    .map(|_| {
                        let profit = if dense {
                            rng.random_range(0.5..40.0)
                        } else {
                            [1.0, 2.0, 4.0, 8.0][rng.random_range(0..4usize)]
                        };
                        Item::new(profit, rng.random_range(200..4_000u64))
                    })
                    .collect();
                let total: u64 = items.iter().map(|i| i.weight).sum();
                let cap = if tight { total / 4 } else { total + 10_000 };
                let label = format!(
                    "auto {} {} n={n}",
                    if dense { "dense" } else { "sparse" },
                    if tight { "tight" } else { "slack" }
                );
                // The reference side is O(n³/ε) regardless of shape
                // (seconds per solve at n=500): keep rep counts
                // proportionate so the matrix stays bounded.
                let (reps, iters): (usize, u32) = match n {
                    10 => (9, 500),
                    100 => (5, 10),
                    _ => (3, 1),
                };
                out.push(compare_median(
                    &label,
                    reps,
                    iters,
                    || {
                        reference::sin_knap(&items, cap, 0.1);
                    },
                    || {
                        solve_auto(&items, cap, 0.1, &mut scratch);
                    },
                ));
            }
        }
    }
    out
}

fn overlapped_comparison(smoke: bool) -> Comparison {
    // A realistic planner instance: 3 slots, 60 duplicated items.
    let mut rng = StdRng::seed_from_u64(77);
    let nslots = 3;
    let items = (0..60)
        .map(|_| {
            let a = rng.random_range(0..nslots);
            let b = (a + 1) % nslots;
            netmaster_knapsack::OvItem::pair(
                rng.random_range(300..5_000u64),
                (a, rng.random_range(0.1..12.0)),
                (b, rng.random_range(0.1..12.0)),
            )
        })
        .collect();
    let problem = OvProblem {
        capacities: vec![40_000; nslots],
        items,
    };
    let mut scratch = OvScratch::new();
    compare(
        "overlapped 3x60",
        if smoke { 20 } else { 200 },
        || {
            reference::solve(&problem, 0.1);
        },
        || {
            solve_with(&problem, 0.1, &mut scratch);
        },
    )
}

fn plan_day_comparison(smoke: bool) -> Comparison {
    let trace = &harness::volunteers()[0];
    let train = trace.slice_days(0, TRAIN_DAYS);
    let hist = HourlyHistory::from_trace(&train);
    let cfg = NetMasterConfig::default();
    let active = predict_with_confidence(&hist, cfg.prediction, Bound::Point, 1.96);
    let network = NetworkPrediction::from_trace(&train);
    let maker = DecisionMaker::new(cfg, LinkModel::default(), RrcModel::wcdma_default());
    let mut scratch = OvScratch::new();
    compare(
        "plan_day volunteer 1",
        if smoke { 50 } else { 500 },
        || {
            maker.plan_day(TRAIN_DAYS, &active, &network);
        },
        || {
            maker.plan_day_with(TRAIN_DAYS, &active, &network, &mut scratch);
        },
    )
}

/// One streaming fleet run; returns its wall seconds, trace
/// generation included.
fn run_fleet(n: usize, hub: Option<&netmaster_obs::TelemetryHub>) -> f64 {
    let cfg = SimConfig::default();
    let t = Instant::now();
    run_fleet_streaming_with(
        n,
        TRAIN_DAYS,
        &cfg,
        |i| {
            let seed = 0xF1EE7 + i as u64 * 7919;
            let profile = UserProfile::panel().remove(i % 8);
            let trace = TraceGenerator::new(profile)
                .with_seed(seed)
                .generate(TRAIN_DAYS + TEST_DAYS);
            (seed, trace)
        },
        |trace| Box::new(harness::trained_netmaster(trace)) as Box<dyn Policy + Send>,
        hub,
    );
    t.elapsed().as_secs_f64()
}

/// A/B pairs each overhead measurement makes at most.
const ATTEMPTS: usize = 3;

/// Pairs `bare` with `live` up to [`ATTEMPTS`] times, stopping at the
/// first pair under 2%, and keeps the pair with the lowest overhead: single pairs are noisy on shared
/// machines, and the question is what the attachment *must* cost, not
/// what one noisy run happened to cost. `live` returns its wall seconds
/// and its event count. Fails when an arm's seconds are not positive and
/// finite.
fn best_of(
    label: &str,
    events: &str,
    mut bare: impl FnMut() -> f64,
    mut live: impl FnMut() -> Result<(f64, u64), String>,
) -> Result<Overhead, String> {
    let mut best: Option<Overhead> = None;
    for attempt in 1..=ATTEMPTS {
        let bare_secs = bare();
        let (live_secs, count) = live()?;
        for (arm, secs) in [("bare", bare_secs), ("live", live_secs)] {
            if !(secs > 0.0 && secs.is_finite()) {
                return Err(format!("{label} A/B: the {arm} arm measured {secs} s"));
            }
        }
        let overhead = live_secs / bare_secs - 1.0;
        println!(
            "{label} overhead attempt {attempt}: live {live_secs:.3} s vs bare {bare_secs:.3} s \
             ({:+.2}%, {count} {events})",
            100.0 * overhead
        );
        if best.as_ref().is_none_or(|b| overhead < b.overhead) {
            best = Some(Overhead {
                bare_secs,
                live_secs,
                events: count,
                overhead,
                attempts: 0,
            });
        }
        if let Some(b) = best.as_mut() {
            b.attempts = attempt;
        }
        if overhead < 0.02 {
            break;
        }
    }
    best.ok_or_else(|| format!("{label} A/B: no attempt ran"))
}

/// A/B's the fleet with a live scrape server attached: workers tick a
/// [`TelemetryHub`](netmaster_obs::TelemetryHub), an `ObsServer` on a
/// throwaway port renders `/metrics` + `/healthz` to a 1 Hz scraper
/// thread. Events are completed scrape rounds.
fn measure_scrape_overhead(n: usize) -> Result<Overhead, String> {
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::Arc;

    let live = || {
        let hub = Arc::new(netmaster_obs::TelemetryHub::new());
        let server = netmaster_obs::ObsServer::start(
            netmaster_obs::ServeOptions {
                addr: "127.0.0.1:0".to_owned(),
                ..Default::default()
            },
            Arc::clone(&hub),
            None,
        )
        .map_err(|e| format!("scrape A/B: cannot start the scrape server: {e}"))?;
        let url = server.base_url();
        let stop = Arc::new(AtomicBool::new(false));
        let count = Arc::new(AtomicU64::new(0));
        let scraper = {
            let (stop, count) = (Arc::clone(&stop), Arc::clone(&count));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let _ = netmaster_obs::http_get(&format!("{url}/metrics"));
                    let _ = netmaster_obs::http_get(&format!("{url}/healthz"));
                    count.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(std::time::Duration::from_secs(1));
                }
            })
        };
        hub.begin_run(n as u64);
        let secs = run_fleet(n, Some(&hub));
        hub.end_run();
        stop.store(true, Ordering::Relaxed);
        let _ = scraper.join();
        server.shutdown();
        Ok((secs, count.load(Ordering::Relaxed)))
    };
    best_of("scrape", "scrapes", || run_fleet(n, None), live)
}

/// A/B's the fleet with the full tracing plane live — span-tree
/// capture on and a [`Profiler`](netmaster_obs::Profiler) walking live
/// span stacks at the default ~97 Hz — vs both switched off at run
/// time. Histograms record in both arms. Events are profiler samples.
fn measure_tracing_overhead(n: usize) -> Result<Overhead, String> {
    let bare = || {
        netmaster_obs::set_trace_capture(false);
        let secs = run_fleet(n, None);
        netmaster_obs::set_trace_capture(true);
        secs
    };
    let live = || {
        let profiler = netmaster_obs::Profiler::start(netmaster_obs::DEFAULT_PROFILE_HZ);
        let secs = run_fleet(n, None);
        let samples = profiler.report().samples_total;
        profiler.stop();
        Ok((secs, samples))
    };
    best_of("tracing", "profiler samples", bare, live)
}

struct PerfArgs {
    n: usize,
    out_path: String,
    smoke: bool,
    registry: String,
}

fn parse_args() -> Result<PerfArgs, String> {
    let mut n: Option<usize> = None;
    let mut out_path = "perf.json".to_string();
    let mut smoke = false;
    let mut registry = "runs.jsonl".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().ok_or("--out needs a file path")?,
            "--smoke" => smoke = true,
            "--registry" => registry = args.next().ok_or("--registry needs a file path")?,
            s => {
                n = Some(
                    s.parse()
                        .map_err(|_| format!("bad fleet size argument {s:?}"))?,
                )
            }
        }
    }
    let n = n.unwrap_or(if smoke { 256 } else { 1_000 });
    Ok(PerfArgs {
        n,
        out_path,
        smoke,
        registry,
    })
}

/// Every check the run must pass; one message per failure.
fn failures(report: &PerfReport, smoke: bool) -> Vec<String> {
    let mut failures = Vec::new();
    let slack_100 = &report.sin_knap[1];
    if slack_100.speedup < 5.0 {
        failures.push(format!(
            "fast path must be >=5x on slack n=100, got {:.1}x",
            slack_100.speedup
        ));
    }
    // Per-solver floors: no optimized solver bench may fall below its
    // reference oracle (the regression that reopened this engine for
    // the overhaul). Smoke instances are too small to resolve that, so
    // they only catch a collapse.
    let speedups: Vec<SolverSpeedup> = report
        .sin_knap
        .iter()
        .chain(&report.solver_matrix)
        .chain([&report.overlapped, &report.plan_day])
        .map(|c| SolverSpeedup {
            label: c.label.clone(),
            speedup: c.speedup,
        })
        .collect();
    failures.extend(regression::check_solver_floors(
        &speedups,
        if smoke { 0.25 } else { 1.0 },
    ));
    // <2% for each live attachment; smoke runs are too short to resolve
    // 2%, so they only sanity-check the bound.
    let budget = if smoke { 0.15 } else { 0.02 };
    for (what, o) in [
        ("scrape-under-load", &report.scrape_overhead),
        ("tracing+profiler", &report.tracing_overhead),
    ] {
        if o.overhead >= budget {
            failures.push(format!(
                "{what} overhead {:.2}% exceeds the {:.0}% budget",
                100.0 * o.overhead,
                100.0 * budget
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let PerfArgs {
        n,
        out_path,
        smoke,
        registry,
    } = match parse_args() {
        Ok(v) => v,
        Err(e) => {
            eprintln!("perf: {e}");
            eprintln!("usage: perf [FLEET_N] [--out FILE] [--smoke] [--registry FILE]");
            return ExitCode::FAILURE;
        }
    };

    let sin_knap = sin_knap_comparisons(smoke);
    let solver_matrix = solver_matrix(smoke);
    let overlapped = overlapped_comparison(smoke);
    let plan_day = plan_day_comparison(smoke);
    let overheads =
        measure_scrape_overhead(n).and_then(|scrape| Ok((scrape, measure_tracing_overhead(n)?)));
    let (scrape_overhead, tracing_overhead) = match overheads {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let report = PerfReport {
        sin_knap,
        solver_matrix,
        overlapped,
        plan_day,
        fleet_members: n,
        scrape_overhead,
        tracing_overhead,
    };

    let json = match serde_json::to_string_pretty(&report) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perf: cannot encode report: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::write(&out_path, json + "\n") {
        eprintln!("perf: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out_path}");

    // Provenance: one registry row per perf run, so ablation pipelines
    // can diff KPIs across revisions.
    let kpis = [
        ("members", n as f64),
        ("scrape_overhead", report.scrape_overhead.overhead),
        ("tracing_overhead", report.tracing_overhead.overhead),
    ]
    .into_iter()
    .map(|(k, v)| (k.to_owned(), v))
    .collect();
    let row =
        netmaster_obs::RunRecord::new("perf", 0xF1EE7, &format!("fleet_n={n} smoke={smoke}"), kpis);
    match netmaster_obs::RunRegistry::new(&registry).append(&row) {
        Ok(()) => println!("registered perf run {} in {registry}", row.git_rev),
        Err(e) => eprintln!("perf: cannot append to the run registry: {e}"),
    }

    let failures = failures(&report, smoke);
    for f in &failures {
        eprintln!("perf: {f}");
    }
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
