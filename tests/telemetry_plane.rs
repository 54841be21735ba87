//! Integration test for the live telemetry plane: a real watchtower
//! run streams scorecards into a [`TelemetryHub`] while every scrape
//! endpoint is polled over HTTP; a concurrent request burst and a
//! graceful shutdown close the loop.

use netmaster_core::watchtower::{run_watch_observed, WatchSpec};
use netmaster_obs::{http_get, HealthzReport, ObsServer, ServeOptions, TelemetryHub};
use netmaster_sim::FleetHealth;
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

/// The obs registry is process-global; tests that reset it must not
/// interleave.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

fn start_server(hub: &Arc<TelemetryHub>) -> ObsServer {
    ObsServer::start(
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            ..ServeOptions::default()
        },
        Arc::clone(hub),
        None,
    )
    .expect("bind a scrape server on 127.0.0.1:0")
}

fn get(base: &str, path: &str) -> (u16, String) {
    http_get(&format!("{base}{path}")).unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

const USERS: usize = 6;
const DAYS: usize = 12;

#[test]
fn every_endpoint_serves_while_a_watch_run_streams() {
    let _g = serial();
    netmaster_obs::reset();
    netmaster_obs::set_runtime_enabled(true);

    let hub = Arc::new(TelemetryHub::new());
    let server = start_server(&hub);
    let base = server.base_url();

    hub.begin_run(USERS as u64);
    let worker = {
        let hub = Arc::clone(&hub);
        thread::spawn(move || {
            let spec = WatchSpec {
                users: USERS,
                days: DAYS,
                seed: 77,
                ..WatchSpec::default()
            };
            let cards = Mutex::new(Vec::new());
            let outcomes = run_watch_observed(&spec, &|card| {
                let mut cards = cards.lock().unwrap_or_else(|e| e.into_inner());
                cards.push(card.clone());
                let health = FleetHealth::from_scorecards(&cards, 3);
                hub.publish_fleet_health_json(
                    serde_json::to_string(&health).expect("health to json"),
                );
                hub.member_done();
            });
            let entries: Vec<_> = outcomes
                .into_iter()
                .flat_map(|o| o.journal.into_iter())
                .collect();
            hub.publish_journal_jsonl(
                &netmaster_obs::to_jsonl(&entries).expect("journal to jsonl"),
            );
            hub.end_run();
            entries.len()
        })
    };

    // Scrape live until the run makes progress (and keep validating
    // the exposition on every poll); the hub retains its documents
    // after the run, so a fast run cannot starve the assertions.
    let deadline = Instant::now() + Duration::from_secs(30);
    let mid_run = loop {
        let (status, metrics) = get(&base, "/metrics");
        assert_eq!(status, 200);
        netmaster_obs::validate_prometheus(&metrics)
            .unwrap_or_else(|e| panic!("invalid exposition mid-run: {e}"));
        // The very first scrape can race the first recorded sample;
        // once anything is exposed, HELP/TYPE must come with it.
        if !metrics.trim().is_empty() {
            assert!(metrics.contains("# HELP"), "exposition lost HELP lines");
            assert!(metrics.contains("# TYPE"), "exposition lost TYPE lines");
        }

        let (hz_status, hz_body) = get(&base, "/healthz");
        let report: HealthzReport = serde_json::from_str(&hz_body)
            .unwrap_or_else(|e| panic!("unparseable /healthz {hz_body:?}: {e}"));
        assert_eq!(report.drop_threshold, 0);
        if report.status == "ok" {
            assert_eq!(hz_status, 200);
        } else {
            assert_eq!(hz_status, 503);
        }
        if report.progress.members_done >= 1 {
            break report;
        }
        assert!(Instant::now() < deadline, "run made no progress in 30s");
        thread::sleep(Duration::from_millis(20));
    };
    assert_eq!(mid_run.progress.members_total, USERS as u64);

    let journal_entries = worker.join().expect("watch worker");
    assert!(journal_entries > 0, "watch run produced no journal events");

    // /health/fleet carries the last published roll-up.
    let (status, body) = get(&base, "/health/fleet");
    assert_eq!(status, 200, "no fleet health served: {body}");
    let health: FleetHealth =
        serde_json::from_str(&body).unwrap_or_else(|e| panic!("unparseable fleet health: {e}"));
    assert_eq!(health.members(), USERS);

    // /journal tails the published JSONL, newest lines last.
    let (status, tail) = get(&base, "/journal?n=5");
    assert_eq!(status, 200);
    let lines: Vec<&str> = tail.lines().collect();
    assert!(!lines.is_empty() && lines.len() <= 5, "bad tail: {tail:?}");
    for line in lines {
        serde_json::from_str::<serde_json::Value>(line)
            .unwrap_or_else(|e| panic!("journal line {line:?} is not JSON: {e}"));
    }

    // /ledger is 404 until a bill is published, then serves it.
    let (status, _) = get(&base, "/ledger");
    assert_eq!(status, 404);
    hub.publish_ledger_json("[]".to_owned());
    let (status, body) = get(&base, "/ledger");
    assert_eq!(status, 200);
    assert_eq!(body, "[]");

    // /snapshot round-trips through the obs Snapshot schema.
    let (status, body) = get(&base, "/snapshot");
    assert_eq!(status, 200);
    let snap: netmaster_obs::Snapshot =
        serde_json::from_str(&body).unwrap_or_else(|e| panic!("unparseable snapshot: {e}"));
    assert!(snap.counter(netmaster_obs::names::SERVICE_DAYS_TOTAL) >= (USERS * DAYS) as u64);

    // After end_run the hub gauges are force-published and named with
    // the exporter's prefix.
    let (_, metrics) = get(&base, "/metrics");
    assert!(metrics.contains("# HELP"), "exposition lost HELP lines");
    assert!(metrics.contains("# TYPE"), "exposition lost TYPE lines");
    assert!(
        metrics.contains("netmaster_hub_members_done"),
        "hub gauges missing from exposition"
    );
    assert!(metrics.contains("netmaster_serve_requests_total"));

    // Unknown routes 404 without wedging a worker.
    let (status, _) = get(&base, "/nope");
    assert_eq!(status, 404);

    // Graceful shutdown: the port stops answering.
    server.shutdown();
    assert!(
        http_get(&format!("{base}/healthz")).is_err(),
        "server still answering after shutdown"
    );
}

#[test]
fn concurrent_scrapes_all_succeed_and_shutdown_drains() {
    let _g = serial();
    netmaster_obs::reset();
    netmaster_obs::set_runtime_enabled(true);

    let hub = Arc::new(TelemetryHub::new());
    let server = start_server(&hub);
    let base = server.base_url();

    const SCRAPERS: usize = 8;
    const ROUNDS: usize = 5;
    let mut handles = Vec::new();
    for _ in 0..SCRAPERS {
        let base = base.clone();
        handles.push(thread::spawn(move || {
            for _ in 0..ROUNDS {
                let (status, body) =
                    http_get(&format!("{base}/metrics")).expect("concurrent scrape");
                assert_eq!(status, 200);
                netmaster_obs::validate_prometheus(&body).expect("valid exposition under load");
            }
            ROUNDS
        }));
    }
    let total: usize = handles
        .into_iter()
        .map(|h| h.join().expect("scraper thread"))
        .sum();
    assert_eq!(total, SCRAPERS * ROUNDS);

    // Shutdown drains in-flight requests, so every answered request is
    // visible in the served counter afterwards.
    server.shutdown();
    let served = netmaster_obs::snapshot().counter(netmaster_obs::names::SERVE_REQUESTS_TOTAL);
    assert!(
        served >= (SCRAPERS * ROUNDS) as u64,
        "served only {served} of {} requests",
        SCRAPERS * ROUNDS
    );
    assert!(http_get(&format!("{base}/metrics")).is_err());
}
