//! Deterministic concurrency stress test for the telemetry plane: N
//! scraper threads hammer every HTTP endpoint while M producer threads
//! drive the hub's hot path and a background [`Sampler`] feeds the
//! [`MetricStore`] + [`AlertEngine`], all against one [`ObsServer`] on
//! port 0. The point is the interleaving, not the numbers: shutdown
//! ordering is exact (producers join → run ends → scrapers drain →
//! sampler stops → server drains), and every post-drain assertion is
//! on state that joins have already made single-threaded.

use netmaster_obs::serve::ServeState;
use netmaster_obs::{
    http_get, AlertEngine, AlertRule, MetricStore, ObsServer, Sampler, ServeOptions, StoreOptions,
    TelemetryHub,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

/// The obs registry is process-global; tests that reset it must not
/// interleave.
fn serial() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

const PRODUCERS: usize = 3;
const SCRAPERS: usize = 4;
const ITEMS: usize = 400;
const PATHS: [&str; 5] = [
    "/metrics",
    "/healthz",
    "/series",
    "/alerts",
    "/query?metric=stress_level&fn=range",
];

#[test]
fn scrape_burst_with_producers_and_sampler_drains_exactly() {
    let _g = serial();
    netmaster_obs::reset();
    netmaster_obs::set_runtime_enabled(true);

    let hub = Arc::new(TelemetryHub::new());
    let store = Arc::new(MetricStore::new(StoreOptions {
        retention_points: 4096,
    }));
    let rules = AlertRule::parse_list("stress_floor:stress_level<0.5:for=2:sev=page")
        .expect("rule spec parses");
    let engine = Arc::new(AlertEngine::new(rules));
    let server = ObsServer::start_with(
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            threads: 3,
            drop_threshold: 0,
        },
        Arc::clone(&hub),
        ServeState {
            store: Some(Arc::clone(&store)),
            alerts: Some(Arc::clone(&engine)),
            profile: None,
        },
    )
    .expect("bind a scrape server on 127.0.0.1:0");
    let base = server.base_url();
    let sampler = Sampler::start(
        Arc::clone(&store),
        Some(Arc::clone(&engine)),
        Some(Arc::clone(&hub)),
        Duration::from_millis(2),
        None,
    );

    hub.begin_run((PRODUCERS * ITEMS) as u64);

    // Producers: the hub's hot path (Relaxed RMW + throttled try_lock
    // publish into the registry gauges).
    let mut producers = Vec::new();
    for _ in 0..PRODUCERS {
        let hub = Arc::clone(&hub);
        producers.push(thread::spawn(move || {
            for i in 0..ITEMS {
                hub.member_done();
                if i % 8 == 0 {
                    hub.day_done();
                }
            }
        }));
    }

    // Scrapers: rotate through every endpoint until the producers are
    // done, then one more full rotation so each path is also exercised
    // against the post-run state.
    let done = Arc::new(AtomicBool::new(false));
    let mut scrapers = Vec::new();
    for s in 0..SCRAPERS {
        let base = base.clone();
        let done = Arc::clone(&done);
        scrapers.push(thread::spawn(move || {
            let mut served = 0usize;
            let mut i = s; // stagger so scrapers start on different paths
            let mut tail = None;
            loop {
                let path = PATHS[i % PATHS.len()];
                i += 1;
                let (status, _body) = http_get(&format!("{base}{path}"))
                    .unwrap_or_else(|e| panic!("GET {path}: {e}"));
                assert!(
                    matches!(status, 200 | 404 | 503),
                    "GET {path} answered {status}"
                );
                served += 1;
                if done.load(Ordering::Acquire) {
                    let t = *tail.get_or_insert(served + PATHS.len());
                    if served >= t {
                        break;
                    }
                }
            }
            served
        }));
    }

    for p in producers {
        p.join().expect("producer thread");
    }
    hub.end_run();
    done.store(true, Ordering::Release);
    let mut scraped = 0usize;
    for s in scrapers {
        scraped += s.join().expect("scraper thread");
    }
    assert!(
        scraped >= SCRAPERS * PATHS.len(),
        "each scraper must complete at least one full rotation, served {scraped}"
    );

    // Exact drain accounting: every producer joined before these
    // reads, so the counts are closed-form, not approximate.
    let progress = hub.progress();
    assert!(!progress.run_active, "end_run must clear run_active");
    assert_eq!(progress.members_done, (PRODUCERS * ITEMS) as u64);
    assert_eq!(progress.members_total, (PRODUCERS * ITEMS) as u64);
    assert_eq!(progress.days_done, (PRODUCERS * ITEMS.div_ceil(8)) as u64);

    // The stress rule watches a series nothing records, so the
    // concurrent evaluate passes must all have left it inactive.
    assert_eq!(engine.firing(), 0, "{:?}", engine.report());

    // Sampler shutdown: stop() joins the thread and takes one final
    // sample, after which the store goes quiet for good.
    sampler.stop();
    let samples = store.samples_total();
    assert!(samples >= 1, "the final stop() tick must always sample");
    thread::sleep(Duration::from_millis(20));
    assert_eq!(
        store.samples_total(),
        samples,
        "samples after stop() mean the sampler thread outlived its join"
    );

    // Server shutdown drains the queue and joins accept + workers; a
    // fresh connection must now be refused.
    server.shutdown();
    assert!(
        http_get(&format!("{base}/healthz")).is_err(),
        "the listener must be closed after shutdown"
    );
}

/// Sampling-profiler accounting under real thread concurrency: N
/// worker threads each hold the same two-deep span stack open behind a
/// barrier while the main thread drives a [`ProfileAgg`] by hand. With
/// the workers parked, every tick must see exactly N live stacks, so
/// the totals are closed-form — no sleeps, no tolerance bands.
#[test]
fn profiler_ticks_account_for_every_live_stack_exactly() {
    use netmaster_obs::ProfileAgg;
    use std::sync::Barrier;

    const PROF_THREADS: usize = 4;
    const PROF_TICKS: u64 = 5;

    let _g = serial();
    netmaster_obs::reset();
    netmaster_obs::set_runtime_enabled(true);

    let agg = Arc::new(ProfileAgg::new());
    let open = Arc::new(Barrier::new(PROF_THREADS + 1));
    let done = Arc::new(Barrier::new(PROF_THREADS + 1));
    let workers: Vec<_> = (0..PROF_THREADS)
        .map(|_| {
            let open = Arc::clone(&open);
            let done = Arc::clone(&done);
            thread::spawn(move || {
                let _outer = netmaster_obs::span!("stress_prof_outer");
                let _inner = netmaster_obs::span!("stress_prof_inner");
                open.wait();
                done.wait();
            })
        })
        .collect();

    open.wait();
    for _ in 0..PROF_TICKS {
        agg.tick();
    }
    done.wait();
    for w in workers {
        w.join().expect("profiled worker joins");
    }

    let report = agg.report();
    let expected = PROF_THREADS as u64 * PROF_TICKS;
    assert_eq!(report.samples_total, expected);
    // Every worker holds the identical stack, so the folded aggregate
    // collapses to one row accounting for all samples.
    assert_eq!(report.stacks.len(), 1, "{:?}", report.stacks);
    assert_eq!(
        report.stacks[0].stack,
        "stress_prof_outer;stress_prof_inner"
    );
    assert_eq!(report.stacks[0].count, expected);
}

/// A scrape server on port 0 with `threads` workers and nothing attached.
fn bare_server(threads: usize) -> ObsServer {
    ObsServer::start(
        ServeOptions {
            addr: "127.0.0.1:0".to_owned(),
            threads,
            drop_threshold: u64::MAX,
        },
        Arc::new(TelemetryHub::new()),
    )
    .expect("bind a scrape server on 127.0.0.1:0")
}

/// A client that never sends a newline gets 431 once the head reaches
/// the cap, instead of growing the server's line buffer without limit,
/// and the worker is free for the next request. Past the cap the server
/// discards the rest of the head before closing, so the client reads
/// the 431 rather than a reset, up to a 64 KiB head.
#[test]
fn newline_free_request_head_is_refused_at_the_cap() {
    use netmaster_obs::serve::MAX_REQUEST_HEAD_BYTES;
    use std::io::{Read, Write};

    let _g = serial();
    let server = bare_server(1);
    for extra in [0, 1, 56 * 1024] {
        let mut client = std::net::TcpStream::connect(server.local_addr()).expect("connect");
        client
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        let _ = client.write_all(&vec![b'a'; MAX_REQUEST_HEAD_BYTES as usize + extra]);
        let mut response = Vec::new();
        let read = client.read_to_end(&mut response);
        assert!(read.is_ok(), "{extra} past the cap: {read:?}");
        assert!(
            response.starts_with(b"HTTP/1.1 431 "),
            "{extra} past the cap: want 431, got {:?}",
            String::from_utf8_lossy(&response)
        );
        // The worker discards the rest of the head until this close.
        drop(client);
        let (status, _) = http_get(&format!("{}/healthz", server.base_url())).expect("healthz");
        assert_eq!(status, 200, "the single worker must be free again");
    }
    server.shutdown();
}

/// Sends a head one byte at a time, 100 ms apart, until the server
/// answers and closes; returns the answer. Each byte arrives well inside
/// any per-read timeout, so only a deadline on the whole head ends it.
fn trickle(addr: std::net::SocketAddr) -> String {
    use std::io::{Read, Write};

    let mut s = std::net::TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout");
    let head = b"GET /healthz HTTP/1.1\r\nX-Slow: "
        .iter()
        .chain(std::iter::repeat(&b'a'));
    let mut response = Vec::new();
    for &b in head.take(150) {
        if s.write_all(&[b]).is_err() || s.read_to_end(&mut response).is_ok() {
            break;
        }
    }
    String::from_utf8_lossy(&response).into_owned()
}

/// As many trickling clients as the server has workers cannot starve
/// `/healthz`: the head deadline answers them 408 and frees the workers
/// within about two seconds, where a per-read timeout would hold them
/// for as long as they keep trickling (15 s here).
#[test]
fn trickling_clients_cannot_starve_healthz() {
    use netmaster_obs::serve::REQUEST_HEAD_DEADLINE;
    use std::time::Instant;

    const WORKERS: usize = 2;
    let _g = serial();
    let server = bare_server(WORKERS);
    let addr = server.local_addr();
    let slow: Vec<_> = (0..WORKERS)
        .map(|_| thread::spawn(move || trickle(addr)))
        .collect();
    // Let both workers pick up a trickling connection first.
    thread::sleep(Duration::from_millis(300));
    let t = Instant::now();
    let (status, _) = netmaster_obs::http_get_with_timeout(
        &format!("{}/healthz", server.base_url()),
        Duration::from_secs(30),
    )
    .expect("healthz answers");
    let waited = t.elapsed();
    assert_eq!(status, 200);
    assert!(
        waited < REQUEST_HEAD_DEADLINE + Duration::from_secs(3),
        "/healthz waited {waited:?} behind trickling clients"
    );
    for s in slow {
        let response = s.join().expect("trickler joins");
        assert!(
            response.starts_with("HTTP/1.1 408 "),
            "want 408, got {response:?}"
        );
    }
    server.shutdown();
}
