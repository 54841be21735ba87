//! The scrape server: a std-only HTTP/1.1 endpoint over the metrics
//! registry and a [`TelemetryHub`].
//!
//! | Endpoint         | Body                                             |
//! |------------------|--------------------------------------------------|
//! | `/metrics`       | Prometheus text exposition (v0.0.4, HELP/TYPE)   |
//! | `/healthz`       | JSON liveness + drop counters + run progress     |
//! | `/health/fleet`  | Published watchtower fleet-health JSON           |
//! | `/journal?n=K`   | Last K published journal lines (JSONL)           |
//! | `/ledger`        | Published per-app energy bill JSON               |
//! | `/snapshot`      | The raw registry [`Snapshot`](crate::Snapshot) as JSON |
//! | `/profile?secs=N&fmt=folded\|json` | Collapsed flamegraph stacks (needs a [`ProfileAgg`]) |
//!
//! Zero dependencies beyond `std::net`: requests are parsed
//! line-by-line off the socket, responses always close the connection
//! (`Connection: close`), and a bounded worker pool keeps one slow
//! scraper from starving the rest. [`ObsServer::shutdown`] drains
//! queued requests before returning, so in-flight scrapes complete.
//!
//! `/healthz` returns **503** when the journal/ledger rings have
//! dropped more entries than the configured threshold, so silent
//! drop-oldest truncation becomes visible to the first prober.

use crate::hub::{HubProgress, TelemetryHub};
use crate::profile::{ProfileAgg, MAX_PROFILE_WINDOW_SECS};
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default bind address for `netmaster serve-obs`.
pub const DEFAULT_ADDR: &str = "127.0.0.1:9898";

/// Time a client has to send its whole request line and headers. A
/// deadline for the head, not a per-read timeout, so a client that
/// trickles bytes cannot hold a worker past it.
pub const REQUEST_HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// Most bytes the server reads of one request's line and headers; a
/// longer head is answered 431 without being buffered. After the answer
/// the server reads and discards up to [`REJECTED_HEAD_DRAIN_BYTES`]
/// more, until the client closes or [`REQUEST_HEAD_DEADLINE`] passes,
/// so that closing with bytes unread (which makes the TCP stack send a
/// reset) does not destroy the 431 before the client reads it.
pub const MAX_REQUEST_HEAD_BYTES: u64 = 8 * 1024;

/// Most bytes of a rejected request head the server discards after
/// answering it. A client that sends more before reading the answer may
/// still see a reset.
pub const REJECTED_HEAD_DRAIN_BYTES: u64 = 64 * 1024;

/// Prometheus text exposition content type (format version 0.0.4).
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Scrape server configuration.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Worker threads answering requests.
    pub threads: usize,
    /// `/healthz` turns 503 once journal+ledger drops exceed this.
    pub drop_threshold: u64,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            addr: DEFAULT_ADDR.to_owned(),
            threads: 4,
            drop_threshold: 0,
        }
    }
}

/// The `/healthz` response document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthzReport {
    /// `"ok"`, or `"degraded"` when drops exceed the threshold.
    pub status: String,
    /// Wall-clock seconds since the run began (0 when idle).
    pub uptime_secs: f64,
    /// Windowed EWMA of members completed per second — distinguishes
    /// "idle" from "stalled mid-run" for liveness probes.
    pub members_per_sec: f64,
    /// Events the bounded journal rings discarded (fleet-wide counter).
    pub journal_dropped_total: u64,
    /// Records the bounded trace-ledger rings discarded.
    pub ledger_dropped_total: u64,
    /// Highest journal-ring fill level any drained policy reached.
    pub journal_ring_highwater: f64,
    /// Highest ledger-ring fill level any drained policy reached.
    pub ledger_ring_highwater: f64,
    /// Drops tolerated before `/healthz` turns 503.
    pub drop_threshold: u64,
    /// Live run progress from the telemetry hub.
    pub progress: HubProgress,
}

/// Builds the `/healthz` document from the current registry state and
/// hub progress.
fn healthz_report(hub: &TelemetryHub, drop_threshold: u64) -> HealthzReport {
    let snap = crate::snapshot();
    let journal_dropped = snap.counter(crate::names::JOURNAL_DROPPED_TOTAL);
    let ledger_dropped = snap.counter(crate::names::LEDGER_DROPPED_TOTAL);
    let degraded = journal_dropped + ledger_dropped > drop_threshold;
    let progress = hub.progress();
    HealthzReport {
        status: if degraded { "degraded" } else { "ok" }.to_owned(),
        uptime_secs: progress.elapsed_secs,
        members_per_sec: progress.members_per_sec,
        journal_dropped_total: journal_dropped,
        ledger_dropped_total: ledger_dropped,
        journal_ring_highwater: snap
            .gauge(crate::names::JOURNAL_RING_HIGHWATER)
            .unwrap_or(0.0),
        ledger_ring_highwater: snap
            .gauge(crate::names::LEDGER_RING_HIGHWATER)
            .unwrap_or(0.0),
        drop_threshold,
        progress,
    }
}

struct Response {
    status: u16,
    content_type: &'static str,
    body: String,
}

impl Response {
    fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            content_type,
            body,
        }
    }

    fn client_error(status: u16, why: &str) -> Response {
        Response {
            status,
            content_type: "text/plain",
            body: format!("{why}\n"),
        }
    }

    fn not_found(what: &str) -> Response {
        Response {
            status: 404,
            content_type: "text/plain",
            body: format!("not found: {what}\n"),
        }
    }
}

fn status_text(code: u16) -> &'static str {
    match code {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        408 => "Request Timeout",
        431 => "Request Header Fields Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// One `key=value` query-string parameter, when present.
fn query_param<'a>(query: &'a str, key: &str) -> Option<&'a str> {
    query
        .split('&')
        .find_map(|kv| kv.strip_prefix(key).and_then(|r| r.strip_prefix('=')))
}

/// `GET /profile`: the sampling profiler's collapsed flamegraph
/// aggregate. Parameters: `secs` (window the profile over the next N
/// seconds — blocks this worker, capped at
/// [`MAX_PROFILE_WINDOW_SECS`]; 0/absent returns the cumulative
/// aggregate immediately) and `fmt` (`folded` default, or `json`).
fn route_profile(query: &str, agg: &ProfileAgg) -> Response {
    let secs: u64 = query_param(query, "secs")
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
        .min(MAX_PROFILE_WINDOW_SECS);
    let fmt = query_param(query, "fmt").unwrap_or("folded");
    let report = if secs > 0 {
        let before = agg.report();
        std::thread::sleep(Duration::from_secs(secs));
        agg.report().diff(&before)
    } else {
        agg.report()
    };
    match fmt {
        "folded" => Response::ok("text/plain", report.render_folded()),
        "json" => {
            let body =
                serde_json::to_string(&report).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
            Response::ok("application/json", body)
        }
        other => Response {
            status: 400,
            content_type: "text/plain",
            body: format!("unknown fmt {other:?} (folded|json)\n"),
        },
    }
}

/// Routes one request path (with optional query string) to a response.
fn route(
    path: &str,
    hub: &TelemetryHub,
    profile: Option<&ProfileAgg>,
    drop_threshold: u64,
) -> Response {
    let (route, query) = match path.split_once('?') {
        Some((r, q)) => (r, q),
        None => (path, ""),
    };
    match route {
        "/metrics" => Response::ok(PROMETHEUS_CONTENT_TYPE, crate::snapshot().to_prometheus()),
        "/healthz" => {
            let report = healthz_report(hub, drop_threshold);
            let status = if report.status == "ok" { 200 } else { 503 };
            let body = serde_json::to_string_pretty(&report)
                .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
            Response {
                status,
                content_type: "application/json",
                body,
            }
        }
        "/profile" => match profile {
            Some(agg) => route_profile(query, agg),
            None => Response::not_found("no profiler attached"),
        },
        "/health/fleet" => match hub.fleet_health_json() {
            Some(json) => Response::ok("application/json", json),
            None => Response::not_found("no fleet health published yet"),
        },
        "/journal" => {
            let n = query_param(query, "n")
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or(64);
            Response::ok("application/x-ndjson", hub.journal_tail(n))
        }
        "/ledger" => match hub.ledger_json() {
            Some(json) => Response::ok("application/json", json),
            None => Response::not_found("no ledger published yet"),
        },
        "/snapshot" => {
            let body = serde_json::to_string(&crate::snapshot())
                .unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"));
            Response::ok("application/json", body)
        }
        other => Response::not_found(other),
    }
}

/// A stream whose every read waits at most until `until`, so a whole
/// sequence of reads shares one deadline.
struct Deadline<'a> {
    stream: &'a TcpStream,
    until: Instant,
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.until.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// Reads the request line and drains the headers (the server routes on
/// the request line alone) within [`MAX_REQUEST_HEAD_BYTES`] and
/// [`REQUEST_HEAD_DEADLINE`]. `Err` carries the 4xx answer, or `None`
/// when the connection failed and nothing can be answered.
fn read_request_line(stream: &TcpStream, until: Instant) -> Result<String, Option<Response>> {
    let mut reader = BufReader::new(Deadline { stream, until }.take(MAX_REQUEST_HEAD_BYTES));
    let mut request_line = String::new();
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            // The cap reads as end of input, so a head that fills it is
            // too long; shorter, the client closed early and what it sent
            // is routed.
            Ok(_) if !line.ends_with('\n') => {
                if reader.get_ref().limit() == 0 {
                    return Err(Some(Response::client_error(431, "request head too large")));
                }
                return Ok(if request_line.is_empty() {
                    line
                } else {
                    request_line
                });
            }
            Ok(_) if request_line.is_empty() => std::mem::swap(&mut request_line, &mut line),
            Ok(_) if line == "\r\n" || line == "\n" => return Ok(request_line),
            Ok(_) => {}
            Err(e) => {
                use std::io::ErrorKind::{InvalidData, TimedOut, WouldBlock};
                return Err(match e.kind() {
                    TimedOut | WouldBlock => Some(Response::client_error(
                        408,
                        "request head not received in time",
                    )),
                    InvalidData => Some(Response::client_error(400, "request head is not UTF-8")),
                    _ => None,
                });
            }
        }
    }
}

/// Reads one request's head and answers it, then closes the connection.
fn handle_connection(
    mut stream: TcpStream,
    hub: &TelemetryHub,
    profile: Option<&ProfileAgg>,
    drop_threshold: u64,
) {
    let until = Instant::now() + REQUEST_HEAD_DEADLINE;
    let (response, rejected) = match read_request_line(&stream, until) {
        Ok(request_line) => {
            let mut parts = request_line.split_whitespace();
            let response = match (parts.next(), parts.next()) {
                (Some("GET"), Some(path)) => route(path, hub, profile, drop_threshold),
                _ => Response::client_error(400, "only GET is supported"),
            };
            (response, false)
        }
        Err(Some(response)) => (response, true),
        Err(None) => return,
    };
    crate::counter!(crate::names::SERVE_REQUESTS_TOTAL);
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        status_text(response.status),
        response.content_type,
        response.body.len(),
    );
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(response.body.as_bytes());
    let _ = stream.flush();
    if rejected {
        // The rest of a rejected head may still be arriving: end the
        // answer, then discard a bounded amount before closing.
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let _ = std::io::copy(
            &mut Deadline {
                stream: &stream,
                until,
            }
            .take(REJECTED_HEAD_DRAIN_BYTES),
            &mut std::io::sink(),
        );
    }
}

/// A running scrape server. Dropping it without calling
/// [`ObsServer::shutdown`] detaches the threads (the process exit
/// reaps them); call `shutdown` for a drained stop.
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_handle: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `opts.addr` and starts the accept loop plus
    /// `opts.threads` workers. `profile` is the sampling profiler's
    /// aggregate behind `/profile`, which answers 404 without one.
    /// Returns once the socket is listening.
    pub fn start(
        opts: ServeOptions,
        hub: Arc<TelemetryHub>,
        profile: Option<Arc<ProfileAgg>>,
    ) -> Result<ObsServer, String> {
        let listener =
            TcpListener::bind(&opts.addr).map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("cannot read bound address: {e}"))?;
        let stop = Arc::new(AtomicBool::new(false));
        let (tx, rx): (Sender<TcpStream>, Receiver<TcpStream>) = mpsc::channel();
        let rx = Arc::new(Mutex::new(rx));

        let mut workers = Vec::new();
        for _ in 0..opts.threads.max(1) {
            let rx = Arc::clone(&rx);
            let hub = Arc::clone(&hub);
            let profile = profile.clone();
            let drop_threshold = opts.drop_threshold;
            workers.push(std::thread::spawn(move || loop {
                // Holding the receiver lock only while dequeuing lets
                // workers serve requests concurrently. `recv` errors
                // only once the queue is empty AND the accept loop has
                // dropped its sender — that is the drain guarantee.
                let next = {
                    let guard = rx.lock().unwrap_or_else(|e| e.into_inner());
                    guard.recv() // lint:allow(lock-across-io) the queue guard IS the dequeue token: held only for this recv, and producers use the channel sender, never this lock
                };
                match next {
                    Ok(stream) => {
                        handle_connection(stream, &hub, profile.as_deref(), drop_threshold)
                    }
                    Err(_) => break,
                }
            }));
        }

        let accept_stop = Arc::clone(&stop);
        let accept_handle = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if accept_stop.load(Ordering::Acquire) {
                    break;
                }
                if let Ok(stream) = stream {
                    if tx.send(stream).is_err() {
                        break;
                    }
                }
            }
            // tx drops here: workers finish the queue, then exit.
        });

        Ok(ObsServer {
            addr,
            stop,
            accept_handle: Some(accept_handle),
            workers,
        })
    }

    /// The bound address (resolves port 0 to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port`, for building scrape URLs.
    pub fn base_url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Stops accepting, drains queued requests, and joins every
    /// thread. In-flight responses complete before this returns.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Default connect + read timeout for [`http_get`].
pub const DEFAULT_HTTP_TIMEOUT: Duration = Duration::from_secs(10);

/// A minimal std-only HTTP/1.1 GET client (enough for scraping this
/// server and for CI smoke checks): returns `(status, body)`. Connect
/// and read both time out after [`DEFAULT_HTTP_TIMEOUT`] — a hung or
/// black-holed scrape target fails the call instead of wedging it.
pub fn http_get(url: &str) -> Result<(u16, String), String> {
    http_get_with_timeout(url, DEFAULT_HTTP_TIMEOUT)
}

/// [`http_get`] with an explicit connect/read timeout (the CLI's
/// `--timeout-secs`).
pub fn http_get_with_timeout(url: &str, timeout: Duration) -> Result<(u16, String), String> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| format!("only http:// URLs are supported, got {url}"))?;
    let (host, path) = match rest.split_once('/') {
        Some((h, p)) => (h, format!("/{p}")),
        None => (rest, "/".to_owned()),
    };
    let addr = host
        .to_socket_addrs()
        .map_err(|e| format!("cannot resolve {host}: {e}"))?
        .next()
        .ok_or_else(|| format!("{host} resolved to no address"))?;
    let mut stream = TcpStream::connect_timeout(&addr, timeout)
        .map_err(|e| format!("cannot connect to {host}: {e}"))?;
    stream
        .set_read_timeout(Some(timeout))
        .map_err(|e| format!("cannot set read timeout: {e}"))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {host}\r\nConnection: close\r\n\r\n");
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("cannot send request: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("cannot read response: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("malformed response from {host}"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line from {host}"))?;
    Ok((status, body.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_test_server(hub: Arc<TelemetryHub>, drop_threshold: u64) -> ObsServer {
        ObsServer::start(
            ServeOptions {
                addr: "127.0.0.1:0".to_owned(),
                threads: 2,
                drop_threshold,
            },
            hub,
            None,
        )
        .unwrap()
    }

    #[test]
    fn metrics_endpoint_serves_valid_exposition() {
        let _g = crate::test_serial();
        let hub = Arc::new(TelemetryHub::new());
        let server = start_test_server(Arc::clone(&hub), 0);
        let url = server.base_url();
        crate::reset();
        crate::counter!("serve_test_total", 3);
        let (status, body) = http_get(&format!("{url}/metrics")).unwrap();
        assert_eq!(status, 200);
        crate::validate_prometheus(&body).unwrap();
        assert!(body.contains("netmaster_serve_test_total 3"));
        crate::reset();
        server.shutdown();
    }

    #[test]
    fn healthz_reports_progress_and_drop_state() {
        let _g = crate::test_serial();
        let hub = Arc::new(TelemetryHub::new());
        hub.begin_run(7);
        hub.member_done();
        let server = start_test_server(Arc::clone(&hub), 0);
        let url = server.base_url();
        let (status, body) = http_get(&format!("{url}/healthz")).unwrap();
        assert_eq!(status, 200);
        let report: HealthzReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.status, "ok");
        assert_eq!(report.progress.members_done, 1);
        assert_eq!(report.progress.members_total, 7);
        server.shutdown();
    }

    #[test]
    fn healthz_degrades_past_the_drop_threshold() {
        let _g = crate::test_serial();
        crate::reset();
        let hub = Arc::new(TelemetryHub::new());
        // Overflow a tiny journal ring: 2 drops.
        let mut j = crate::Journal::with_capacity(1);
        for day in 0..3 {
            j.emit(|| crate::DecisionEvent::PredictionMiss { day, hour: 0 });
        }
        let _ = j.drain();
        let server = start_test_server(Arc::clone(&hub), 1);
        let url = server.base_url();
        let (status, body) = http_get(&format!("{url}/healthz")).unwrap();
        assert_eq!(status, 503, "2 drops > threshold 1 must degrade: {body}");
        let report: HealthzReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.status, "degraded");
        assert_eq!(report.journal_dropped_total, 2);
        assert_eq!(report.journal_ring_highwater, 1.0);
        server.shutdown();
        crate::reset();
    }

    #[test]
    fn hub_documents_and_404s() {
        let _g = crate::test_serial();
        let hub = Arc::new(TelemetryHub::new());
        let server = start_test_server(Arc::clone(&hub), 0);
        let url = server.base_url();
        let (status, _) = http_get(&format!("{url}/health/fleet")).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(&format!("{url}/ledger")).unwrap();
        assert_eq!(status, 404);
        let (status, _) = http_get(&format!("{url}/nope")).unwrap();
        assert_eq!(status, 404);
        hub.publish_fleet_health_json("{\"healthy\":5}".to_owned());
        hub.publish_ledger_json("[]".to_owned());
        hub.publish_journal_jsonl("{\"seq\":0}\n{\"seq\":1}\n");
        let (status, body) = http_get(&format!("{url}/health/fleet")).unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"healthy\":5}"));
        let (status, body) = http_get(&format!("{url}/ledger")).unwrap();
        assert_eq!((status, body.as_str()), (200, "[]"));
        let (status, body) = http_get(&format!("{url}/journal?n=1")).unwrap();
        assert_eq!((status, body.as_str()), (200, "{\"seq\":1}\n"));
        let (status, body) = http_get(&format!("{url}/snapshot")).unwrap();
        assert_eq!(status, 200);
        let _: crate::Snapshot = serde_json::from_str(&body).unwrap();
        server.shutdown();
    }

    #[test]
    fn history_endpoints_404_without_attachments() {
        let _g = crate::test_serial();
        let hub = Arc::new(TelemetryHub::new());
        let server = start_test_server(Arc::clone(&hub), 0);
        let url = server.base_url();
        for path in ["/series", "/query?metric=x_total", "/alerts"] {
            let (status, _) = http_get(&format!("{url}{path}")).unwrap();
            assert_eq!(status, 404, "{path} is not an endpoint");
        }
        let (status, _) = http_get(&format!("{url}/profile")).unwrap();
        assert_eq!(status, 404, "/profile must 404 without a profiler");
        server.shutdown();
    }

    #[test]
    fn profile_endpoint_serves_folded_and_json() {
        let _g = crate::test_serial();
        crate::reset();
        crate::spantree::TraceStore::global().clear();
        let hub = Arc::new(TelemetryHub::new());
        let agg = Arc::new(ProfileAgg::new());
        // Deterministic samples: tick while a known stack is live.
        {
            let _outer = crate::span!("serve_prof_outer");
            let _inner = crate::span!("serve_prof_inner");
            agg.tick();
            agg.tick();
        }
        let server = ObsServer::start(
            ServeOptions {
                addr: "127.0.0.1:0".to_owned(),
                threads: 2,
                drop_threshold: 0,
            },
            Arc::clone(&hub),
            Some(Arc::clone(&agg)),
        )
        .unwrap();
        let url = server.base_url();
        let (status, body) = http_get(&format!("{url}/profile")).unwrap();
        assert_eq!(status, 200);
        let parsed = crate::ProfileReport::parse_folded(&body).unwrap();
        assert_eq!(parsed.samples_total, 2, "{body}");
        assert_eq!(parsed.stacks[0].stack, "serve_prof_outer;serve_prof_inner");
        let (status, body) = http_get(&format!("{url}/profile?fmt=json")).unwrap();
        assert_eq!(status, 200);
        let report: crate::ProfileReport = serde_json::from_str(&body).unwrap();
        assert_eq!(report.samples_total, 2);
        // A windowed profile over a quiet second returns empty stacks.
        let (status, body) = http_get(&format!("{url}/profile?secs=1&fmt=folded")).unwrap();
        assert_eq!(status, 200);
        assert!(body.is_empty(), "quiet window must profile nothing: {body}");
        let (status, _) = http_get(&format!("{url}/profile?fmt=svg")).unwrap();
        assert_eq!(status, 400, "unknown fmt is a client error");
        server.shutdown();
        crate::spantree::TraceStore::global().clear();
        crate::reset();
    }

    #[test]
    fn http_get_times_out_instead_of_hanging() {
        // A listener that never answers: the read must give up.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let start = std::time::Instant::now();
        let err = http_get_with_timeout(
            &format!("http://{addr}/healthz"),
            Duration::from_millis(200),
        )
        .unwrap_err();
        assert!(err.contains("cannot read response"), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "timeout must bound the stall"
        );
        drop(listener);
    }

    #[test]
    fn shutdown_drains_concurrent_requests() {
        let _g = crate::test_serial();
        let hub = Arc::new(TelemetryHub::new());
        let server = start_test_server(Arc::clone(&hub), 0);
        let url = server.base_url();
        let fetchers: Vec<_> = (0..8)
            .map(|_| {
                let url = url.clone();
                std::thread::spawn(move || http_get(&format!("{url}/healthz")))
            })
            .collect();
        let addr = server.local_addr();
        server.shutdown();
        // Every request issued before shutdown got a complete response.
        for f in fetchers {
            if let Ok(Ok((status, body))) = f.join().map_err(|_| ()) {
                assert_eq!(status, 200);
                assert!(body.contains("\"status\""));
            }
        }
        // The drained server no longer answers.
        assert!(http_get(&format!("http://{addr}/healthz")).is_err());
    }
}
