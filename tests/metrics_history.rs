//! Integration test for the metrics-history plane: registry snapshots
//! sampled into a [`MetricStore`], persisted to a `history.nmts`
//! segment file, queried back over HTTP, with an [`AlertEngine`] rule
//! driven through its full inactive → pending → firing → resolved
//! cycle and the `/healthz` degradation that firing implies.
//!
//! Deliberately NOT gated on the `obs` feature: the store, alert, and
//! serve modules compile in both configurations (only the recording
//! macros compile out), so the same end-to-end flow must hold under
//! `--no-default-features` too — there it runs on hand-built snapshots
//! instead of live registry traffic.

use netmaster_obs::serve::ServeState;
use netmaster_obs::store::{PointValue, SeriesKind};
use netmaster_obs::{
    http_get, read_history, AlertEngine, AlertRule, AlertsReport, HealthzReport, MetricStore,
    ObsServer, ServeOptions, StoreOptions, TelemetryHub,
};
use netmaster_obs::{BucketSnap, CounterSnap, GaugeSnap, HistSnap, Snapshot};
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};

/// The obs registry is process-global; tests that reset it must not
/// interleave.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// A synthetic registry snapshot: the fleet's headline gauge plus one
/// counter and one histogram, so every codec kind rides along.
fn snap(saving: f64, requests: u64, observations: u64) -> Snapshot {
    Snapshot {
        counters: vec![CounterSnap {
            name: "demo_requests_total".to_owned(),
            value: requests,
        }],
        gauges: vec![GaugeSnap {
            name: "fleet_saving_ratio".to_owned(),
            value: saving,
        }],
        histograms: vec![HistSnap {
            name: "demo_latency_seconds".to_owned(),
            count: observations,
            sum_secs: observations as f64 * 0.25,
            buckets: vec![BucketSnap {
                le_secs: 0.5,
                count: observations,
            }],
        }],
    }
}

fn tmp_path(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("netmaster-history-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir.join(name)
}

fn get(base: &str, path: &str) -> (u16, String) {
    http_get(&format!("{base}{path}")).unwrap_or_else(|e| panic!("GET {path}: {e}"))
}

#[test]
fn sample_persist_query_fire_and_resolve_round_trip() {
    let _g = serial();
    netmaster_obs::reset();
    netmaster_obs::set_runtime_enabled(true);

    let store = Arc::new(MetricStore::new(StoreOptions::default()));
    let rules = AlertRule::parse_list("saving_floor:fleet_saving_ratio<0.5:for=2:sev=page")
        .expect("rule parses");
    let engine = Arc::new(AlertEngine::new(rules));

    // Healthy regime: the gauge sits above the floor, the counter and
    // histogram advance monotonically.
    for i in 0..4u64 {
        let t = 1_000 + i * 1_000;
        store.sample_at(t, &snap(0.8, 10 * (i + 1), 4 * (i + 1)));
        engine.evaluate(&store, t);
    }
    assert_eq!(engine.firing(), 0);
    assert!(!engine.page_firing());

    // Serve the plane and query it back.
    let hub = Arc::new(TelemetryHub::new());
    let server = ObsServer::start_with(
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            ..ServeOptions::default()
        },
        Arc::clone(&hub),
        ServeState {
            store: Some(Arc::clone(&store)),
            alerts: Some(Arc::clone(&engine)),
            profile: None,
        },
    )
    .expect("bind history server on 127.0.0.1:0");
    let base = server.base_url();

    let (status, body) = get(&base, "/series");
    assert_eq!(status, 200);
    let series: Vec<netmaster_obs::serve::SeriesInfo> =
        serde_json::from_str(&body).unwrap_or_else(|e| panic!("unparseable /series {body:?}: {e}"));
    assert_eq!(series.len(), 3, "{series:?}");
    assert!(series
        .iter()
        .any(|s| s.metric == "fleet_saving_ratio" && s.kind == "gauge" && s.points == 4));

    let (status, body) = get(&base, "/query?metric=fleet_saving_ratio&fn=range");
    assert_eq!(status, 200);
    let range: netmaster_obs::serve::QueryRange =
        serde_json::from_str(&body).unwrap_or_else(|e| panic!("unparseable /query {body:?}: {e}"));
    assert_eq!(range.points.len(), 4);
    assert!(range.points.iter().all(|&(_, v)| v == 0.8));

    let (status, body) = get(&base, "/query?metric=demo_requests_total&fn=increase");
    assert_eq!(status, 200);
    assert!(
        body.contains("\"value\": 30") || body.contains("\"value\":30"),
        "{body}"
    );

    // Two consecutive breaches walk the rule inactive → pending →
    // firing; the page severity degrades /healthz to 503.
    store.sample_at(5_000, &snap(0.1, 50, 20));
    engine.evaluate(&store, 5_000);
    let pending: AlertsReport =
        serde_json::from_str(&get(&base, "/alerts").1).expect("alerts report");
    assert_eq!(pending.firing, 0);
    assert_eq!(pending.alerts[0].state, "pending");

    store.sample_at(6_000, &snap(0.1, 60, 24));
    engine.evaluate(&store, 6_000);
    let (status, body) = get(&base, "/alerts");
    assert_eq!(status, 200);
    let firing: AlertsReport = serde_json::from_str(&body).expect("alerts report");
    assert_eq!(firing.firing, 1);
    assert!(firing.page_firing);
    assert_eq!(firing.alerts[0].state, "firing");
    assert_eq!(firing.alerts[0].since_ms, Some(6_000));

    let (status, body) = get(&base, "/healthz");
    assert_eq!(
        status, 503,
        "page-severity firing must degrade /healthz: {body}"
    );
    let hz: HealthzReport = serde_json::from_str(&body).expect("healthz report");
    assert_eq!(hz.alerts_firing, 1);
    assert_eq!(hz.status, "degraded");

    // Recovery resolves the alert and restores /healthz.
    store.sample_at(7_000, &snap(0.9, 70, 28));
    engine.evaluate(&store, 7_000);
    let resolved: AlertsReport =
        serde_json::from_str(&get(&base, "/alerts").1).expect("alerts report");
    assert_eq!(resolved.firing, 0);
    assert!(!resolved.page_firing);
    assert_eq!(resolved.alerts[0].state, "inactive");
    let (status, _) = get(&base, "/healthz");
    assert_eq!(status, 200);

    // The transition journal carries one firing and one resolved event
    // — unless observability is compiled out, where journal emission
    // no-ops while the alert state machine above still runs.
    let jsonl = engine.drain_journal_jsonl();
    if netmaster_obs::ENABLED {
        assert!(
            jsonl.contains(netmaster_obs::names::KIND_ALERT_FIRING),
            "{jsonl}"
        );
        assert!(
            jsonl.contains(netmaster_obs::names::KIND_ALERT_RESOLVED),
            "{jsonl}"
        );
    } else {
        assert!(
            jsonl.is_empty(),
            "no-obs build must not emit journal events: {jsonl}"
        );
    }

    // Persist and read back bit-for-bit: every series, every point.
    let path = tmp_path("round_trip.nmts");
    let _ = std::fs::remove_file(&path);
    let flushed = store.flush_to(&path).expect("flush history");
    assert!(flushed > 0);
    let segments = read_history(&path).expect("read history back");
    for (metric, kind, points) in store.series_list() {
        let decoded: Vec<_> = segments
            .iter()
            .filter(|s| s.metric == metric)
            .flat_map(|s| s.points.iter().cloned())
            .collect();
        assert_eq!(decoded.len(), points, "{metric}");
        assert_eq!(
            decoded,
            store.points(&metric, 0, u64::MAX),
            "{metric} ({kind:?}) must round-trip bit-for-bit"
        );
    }

    // Incremental flush: new samples append without rewriting history.
    let before = std::fs::metadata(&path).expect("history metadata").len();
    store.sample_at(8_000, &snap(0.9, 80, 32));
    store.flush_to(&path).expect("incremental flush");
    let after = std::fs::metadata(&path).expect("history metadata").len();
    assert!(after > before, "incremental flush must append");
    let gauge_points: usize = read_history(&path)
        .expect("re-read history")
        .iter()
        .filter(|s| s.metric == "fleet_saving_ratio")
        .map(|s| s.points.len())
        .sum();
    assert_eq!(gauge_points, 8);

    let _ = std::fs::remove_file(&path);
    server.shutdown();
    assert!(http_get(&format!("{base}/healthz")).is_err());
}

/// Counters that reset (process restart) must still decode, and
/// `increase` must count only forward progress.
#[test]
fn counter_resets_survive_persistence_and_queries() {
    let _g = serial();
    netmaster_obs::reset();

    let store = MetricStore::new(StoreOptions::default());
    let readings = [100u64, 150, 20, 70, 10];
    for (i, &v) in readings.iter().enumerate() {
        store.sample_at(1_000 * (i as u64 + 1), &snap(0.8, v, 1));
    }

    // increase() is reset-aware: a drop restarts the count from zero,
    // so the post-reset reading itself is progress. Forward motion is
    // +50, then the reset to 20 (+20), +50, then the reset to 10 (+10).
    assert_eq!(
        store.increase("demo_requests_total", 0, u64::MAX),
        Some(130.0)
    );

    let path = tmp_path("resets.nmts");
    let _ = std::fs::remove_file(&path);
    store.flush_to(&path).expect("flush resets");
    let segments = read_history(&path).expect("read resets back");
    let decoded: Vec<u64> = segments
        .iter()
        .filter(|s| s.metric == "demo_requests_total")
        .flat_map(|s| s.points.iter())
        .map(|p| match &p.value {
            PointValue::Counter(v) => *v,
            other => panic!("expected counter point, got {other:?}"),
        })
        .collect();
    assert_eq!(decoded, readings);
    assert!(segments
        .iter()
        .filter(|s| s.metric == "demo_requests_total")
        .all(|s| s.kind == SeriesKind::Counter));
    let _ = std::fs::remove_file(&path);
}

/// With the `obs` feature on, the background [`Sampler`] drives the
/// same loop from the *live* registry: a watch-style workload publishes
/// the gauge, the sampler records + evaluates + persists on its own
/// thread, and alert transitions land in the hub's journal tail.
#[cfg(feature = "obs")]
#[test]
fn background_sampler_records_live_registry_and_fires() {
    use std::time::{Duration, Instant};

    let _g = serial();
    netmaster_obs::reset();
    netmaster_obs::set_runtime_enabled(true);

    let store = Arc::new(MetricStore::new(StoreOptions::default()));
    let rules =
        AlertRule::parse_list("saving_floor:fleet_saving_ratio<0.5:sev=page").expect("rule parses");
    let engine = Arc::new(AlertEngine::new(rules));
    let hub = Arc::new(TelemetryHub::new());
    let path = tmp_path("live.nmts");
    let _ = std::fs::remove_file(&path);

    netmaster_obs::gauge_set(netmaster_obs::names::FLEET_SAVING_RATIO, 0.1);
    let sampler = netmaster_obs::Sampler::start(
        Arc::clone(&store),
        Some(Arc::clone(&engine)),
        Some(Arc::clone(&hub)),
        Duration::from_millis(20),
        Some(path.clone()),
    );

    // The rule has no for= gate, so the first breaching sample fires.
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.firing() == 0 {
        assert!(Instant::now() < deadline, "sampler never fired the alert");
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(engine.page_firing());

    // Recovery resolves on a later tick.
    netmaster_obs::gauge_set(netmaster_obs::names::FLEET_SAVING_RATIO, 0.9);
    while engine.firing() > 0 {
        assert!(
            Instant::now() < deadline,
            "sampler never resolved the alert"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    sampler.stop();

    assert!(store.samples_total() >= 2);
    assert!(store.last_value("fleet_saving_ratio").is_some());

    // The sampler persisted on its own; the file decodes and holds the
    // recovered gauge value last.
    let segments = read_history(&path).expect("sampler-persisted history");
    let last_gauge = segments
        .iter()
        .filter(|s| s.metric == "fleet_saving_ratio")
        .flat_map(|s| s.points.iter())
        .last()
        .expect("gauge series persisted");
    assert_eq!(last_gauge.value, PointValue::Gauge(0.9));

    // Both transitions were published into the hub's journal tail.
    let tail = hub.journal_tail(100);
    assert!(
        tail.contains(netmaster_obs::names::KIND_ALERT_FIRING),
        "{tail:?}"
    );
    assert!(
        tail.contains(netmaster_obs::names::KIND_ALERT_RESOLVED),
        "{tail:?}"
    );
    let _ = std::fs::remove_file(&path);
}
