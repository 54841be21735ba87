//! The embedded metrics-history store: a bounded in-memory time-series
//! recorder over the sharded registry, with an append-only on-disk
//! segment format and a window query layer.
//!
//! A [`MetricStore`] samples [`snapshot`](crate::snapshot) at a
//! configurable cadence (a live [`Sampler`] thread, or deterministic
//! logical time via [`MetricStore::sample_at`]) into one series per
//! metric:
//!
//! * **counters** keep their raw monotone values in memory and persist
//!   as zigzag-varint *deltas* (a reset encodes as one negative delta);
//! * **gauges** persist raw (first value as IEEE-754 bits, then
//!   XOR-with-previous varints — repeated values cost one byte);
//! * **histograms** keep the registry's cumulative [`Histogram`] (its
//!   per-bucket counts on the one doubling grid), so a window quantile
//!   is a per-bucket difference, never a re-sample.
//!
//! Timestamps encode delta-of-delta (a fixed cadence costs ~1 byte per
//! point). Retention is bounded per series: past
//! [`StoreOptions::retention_points`] the oldest point is evicted and
//! counted (`store_dropped_total`), the same drop-oldest discipline as
//! [`TraceLedger`](crate::TraceLedger).
//!
//! On disk ([`MetricStore::flush_to`]) each flush appends one
//! CRC-checked text line per series to `history.nmts` — the same POSIX
//! line-atomic single-`write_all` discipline as
//! [`runregistry`](crate::runregistry) — and
//! [`read_history`] round-trips the points bit-for-bit.

use crate::hist::grid_index;
use crate::{Histogram, Ring, Snapshot};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Magic tag opening every `history.nmts` segment line. Bump the
/// digit when the payload encoding changes incompatibly.
pub const FORMAT_MAGIC: &str = "NMTS1";

/// Default per-series retention (points kept in memory).
pub const DEFAULT_RETENTION_POINTS: usize = 4096;

/// Default live sampling cadence.
pub const DEFAULT_SAMPLE_INTERVAL: Duration = Duration::from_secs(1);

/// What a recorded series holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesKind {
    /// Monotone `u64` counter (resets allowed).
    Counter,
    /// Raw `f64` gauge.
    Gauge,
    /// Cumulative histogram bucket vector.
    Histogram,
}

impl SeriesKind {
    /// Lowercase wire tag (`counter` | `gauge` | `histogram`) — the
    /// segment-file field and the `/series` JSON `kind` value.
    pub fn tag(self) -> &'static str {
        match self {
            SeriesKind::Counter => "counter",
            SeriesKind::Gauge => "gauge",
            SeriesKind::Histogram => "histogram",
        }
    }

    fn from_tag(s: &str) -> Option<SeriesKind> {
        match s {
            "counter" => Some(SeriesKind::Counter),
            "gauge" => Some(SeriesKind::Gauge),
            "histogram" => Some(SeriesKind::Histogram),
            _ => None,
        }
    }
}

/// One sample's value.
#[derive(Debug, Clone, PartialEq)]
pub enum PointValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram reading: the registry's cumulative state at sample
    /// time.
    Hist(Histogram),
}

impl PointValue {
    /// The reading as one number: counter and gauge values directly,
    /// histogram total counts.
    fn as_f64(&self) -> f64 {
        match self {
            PointValue::Counter(v) => *v as f64,
            PointValue::Gauge(v) => *v,
            PointValue::Hist(h) => h.count() as f64,
        }
    }
}

/// A decoded `(timestamp, value)` sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Sample instant, milliseconds (wall-clock or logical).
    pub t_ms: u64,
    /// The sampled value.
    pub value: PointValue,
}

#[derive(Debug)]
struct Series {
    kind: SeriesKind,
    /// Retained points; `points.dropped()` is the absolute index of
    /// the oldest one since the series began.
    points: Ring<Point>,
    /// Absolute index up to which points have been flushed to disk.
    flushed_index: u64,
}

impl Series {
    fn new(kind: SeriesKind, retention: usize) -> Series {
        Series {
            kind,
            points: Ring::new(retention),
            flushed_index: 0,
        }
    }
}

#[derive(Debug, Default)]
struct StoreInner {
    series: BTreeMap<String, Series>,
    samples_total: u64,
    dropped_total: u64,
}

/// Configuration for a [`MetricStore`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Points kept per series before drop-oldest eviction.
    pub retention_points: usize,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions {
            retention_points: DEFAULT_RETENTION_POINTS,
        }
    }
}

/// The bounded in-memory time-series recorder. All methods take `&self`
/// (a mutex guards the series map), so one `Arc<MetricStore>` is shared
/// between the sampler thread, the alert engine, and the scrape server.
#[derive(Debug)]
pub struct MetricStore {
    inner: Mutex<StoreInner>,
    retention: usize,
}

impl Default for MetricStore {
    fn default() -> Self {
        Self::new(StoreOptions::default())
    }
}

impl MetricStore {
    /// An empty store.
    pub fn new(opts: StoreOptions) -> MetricStore {
        MetricStore {
            inner: Mutex::new(StoreInner::default()),
            retention: opts.retention_points.max(2),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, StoreInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Samples the live registry now (wall clock). No-op when
    /// observability is switched off at run time.
    pub fn sample(&self) {
        if !crate::runtime_enabled() {
            return;
        }
        self.sample_at(crate::runregistry::now_ms(), &crate::snapshot());
    }

    /// Records one snapshot at an explicit instant (logical time in
    /// tests keeps same-seed histories byte-identical).
    pub fn sample_at(&self, t_ms: u64, snap: &Snapshot) {
        let mut inner = self.lock();
        for c in &snap.counters {
            push_point(
                &mut inner,
                &c.name,
                SeriesKind::Counter,
                Point {
                    t_ms,
                    value: PointValue::Counter(c.value),
                },
                self.retention,
            );
        }
        for g in &snap.gauges {
            push_point(
                &mut inner,
                &g.name,
                SeriesKind::Gauge,
                Point {
                    t_ms,
                    value: PointValue::Gauge(g.value),
                },
                self.retention,
            );
        }
        for h in &snap.histograms {
            push_point(
                &mut inner,
                &h.name,
                SeriesKind::Histogram,
                Point {
                    t_ms,
                    value: PointValue::Hist(Histogram::from(h)),
                },
                self.retention,
            );
        }
        inner.samples_total += 1;
        drop(inner);
        crate::counter!(crate::names::STORE_SAMPLES_TOTAL);
    }

    /// Snapshots recorded so far.
    pub fn samples_total(&self) -> u64 {
        self.lock().samples_total
    }

    /// Points evicted by the retention bound so far.
    pub fn dropped_total(&self) -> u64 {
        self.lock().dropped_total
    }

    /// Every recorded series: `(metric, kind, points held)`.
    pub fn series_list(&self) -> Vec<(String, SeriesKind, usize)> {
        self.lock()
            .series
            .iter()
            .map(|(name, s)| (name.clone(), s.kind, s.points.len()))
            .collect()
    }

    /// The raw points of `metric` within `[from_ms, to_ms]`.
    pub fn points(&self, metric: &str, from_ms: u64, to_ms: u64) -> Vec<Point> {
        let inner = self.lock();
        let Some(s) = inner.series.get(metric) else {
            return Vec::new();
        };
        s.points
            .iter()
            .filter(|p| p.t_ms >= from_ms && p.t_ms <= to_ms)
            .cloned()
            .collect()
    }

    /// `metric`'s samples in the window as `(t_ms, f64)` — counter and
    /// gauge values directly, histogram total counts.
    pub fn range(&self, metric: &str, from_ms: u64, to_ms: u64) -> Vec<(u64, f64)> {
        self.points(metric, from_ms, to_ms)
            .iter()
            .map(|p| (p.t_ms, p.value.as_f64()))
            .collect()
    }

    /// Reset-aware increase over the window: the sum of positive
    /// sample-to-sample deltas (a reset restarts from the post-reset
    /// value). A histogram series counts observations by the
    /// [`Histogram::since`] rule, which sees a reset whenever any bucket
    /// falls. `None` when fewer than two samples land in the window.
    pub fn increase(&self, metric: &str, from_ms: u64, to_ms: u64) -> Option<f64> {
        let pts = self.points(metric, from_ms, to_ms);
        if pts.len() < 2 {
            return None;
        }
        if matches!(pts[0].value, PointValue::Hist(_)) {
            return Some(gained(&pts).count() as f64);
        }
        let mut total = 0.0;
        for w in pts.windows(2) {
            let (prev, cur) = (w[0].value.as_f64(), w[1].value.as_f64());
            total += if cur >= prev { cur - prev } else { cur };
        }
        Some(total)
    }

    /// Per-second rate of increase over the window (counter series),
    /// `None` when the window holds fewer than two samples or no time
    /// elapses between them.
    pub fn rate(&self, metric: &str, from_ms: u64, to_ms: u64) -> Option<f64> {
        let pts = self.range(metric, from_ms, to_ms);
        let (first, last) = (pts.first()?, pts.last()?);
        let dt = (last.0.saturating_sub(first.0)) as f64 / 1000.0;
        if dt <= 0.0 {
            return None;
        }
        Some(self.increase(metric, from_ms, to_ms)? / dt)
    }

    /// Quantile of a histogram series over the window: the
    /// observations the series gained inside it (see
    /// [`MetricStore::increase`]), by [`Histogram::quantile_secs`].
    /// `None` when the series is not a histogram or the window saw no
    /// observations.
    pub fn window_quantile(&self, metric: &str, q: f64, from_ms: u64, to_ms: u64) -> Option<f64> {
        let window = gained(&self.points(metric, from_ms, to_ms));
        (window.count() > 0).then(|| window.quantile_secs(q))
    }

    /// Timestamp of the newest sample of `metric`, when any exists.
    pub fn last_sample_ms(&self, metric: &str) -> Option<u64> {
        let inner = self.lock();
        inner
            .series
            .get(metric)
            .and_then(|s| s.points.iter().next_back().map(|p| p.t_ms))
    }

    /// The newest sample of `metric` as `f64` (see
    /// [`MetricStore::range`] for the mapping).
    pub fn last_value(&self, metric: &str) -> Option<f64> {
        let inner = self.lock();
        inner
            .series
            .get(metric)
            .and_then(|s| s.points.iter().next_back())
            .map(|p| p.value.as_f64())
    }

    /// Appends every not-yet-flushed point to `path`, one CRC-checked
    /// segment line per series (skipping series with nothing new).
    /// Returns the number of segments written. Each segment is a single
    /// `write_all`, so concurrent appenders stay line-atomic on POSIX.
    pub fn flush_to(&self, path: &Path) -> Result<usize, String> {
        let mut inner = self.lock();
        let mut lines = String::new();
        let mut segments = 0usize;
        for (name, s) in inner.series.iter_mut() {
            let base = s.points.dropped();
            let start = (s.flushed_index.saturating_sub(base)) as usize;
            if start >= s.points.len() {
                continue;
            }
            let fresh: Vec<Point> = s.points.iter().skip(start).cloned().collect();
            let payload = encode_points(s.kind, &fresh);
            lines.push_str(&segment_line(name, s.kind, fresh.len(), &payload));
            s.flushed_index = base + s.points.len() as u64;
            segments += 1;
        }
        drop(inner);
        if segments == 0 {
            return Ok(0);
        }
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("cannot open {}: {e}", path.display()))?;
        file.write_all(lines.as_bytes())
            .map_err(|e| format!("cannot append to {}: {e}", path.display()))?;
        Ok(segments)
    }
}

fn push_point(inner: &mut StoreInner, name: &str, kind: SeriesKind, p: Point, retention: usize) {
    let s = inner
        .series
        .entry(name.to_owned())
        .or_insert_with(|| Series::new(kind, retention));
    if s.kind != kind {
        // A name switched shape across a reset; restart the series.
        *s = Series::new(kind, retention);
    }
    if s.points.push(p) > 0 {
        inner.dropped_total += 1;
        crate::counter!(crate::names::STORE_DROPPED_TOTAL);
    }
}

/// The observations a histogram series gained over `points`: each
/// consecutive pair's [`Histogram::since`], summed.
fn gained(points: &[Point]) -> Histogram {
    let mut out = Histogram::default();
    for w in points.windows(2) {
        if let (PointValue::Hist(prev), PointValue::Hist(cur)) = (&w[0].value, &w[1].value) {
            out.merge(&cur.since(prev));
        }
    }
    out
}

// --- Codec: varints, zigzag, delta-of-delta ---------------------------

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes.get(*pos)?;
        *pos += 1;
        if shift >= 64 {
            return None;
        }
        v |= ((b & 0x7f) as u64) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_signed(out: &mut Vec<u8>, v: i64) {
    put_varint(out, zigzag(v));
}

fn get_signed(bytes: &[u8], pos: &mut usize) -> Option<i64> {
    get_varint(bytes, pos).map(unzigzag)
}

/// Encodes a run of points: delta-of-delta timestamps, then
/// kind-specific values (see the module docs).
pub fn encode_points(kind: SeriesKind, points: &[Point]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, points.len() as u64);
    // Timestamps: first raw, then first delta, then delta-of-delta.
    let mut prev_t = 0u64;
    let mut prev_delta = 0i64;
    for (i, p) in points.iter().enumerate() {
        match i {
            0 => put_varint(&mut out, p.t_ms),
            1 => {
                prev_delta = p.t_ms as i64 - prev_t as i64;
                put_signed(&mut out, prev_delta);
            }
            _ => {
                let delta = p.t_ms as i64 - prev_t as i64;
                put_signed(&mut out, delta - prev_delta);
                prev_delta = delta;
            }
        }
        prev_t = p.t_ms;
    }
    match kind {
        SeriesKind::Counter => {
            let mut prev = 0i64;
            for p in points {
                let PointValue::Counter(v) = p.value else {
                    continue;
                };
                put_signed(&mut out, v as i64 - prev);
                prev = v as i64;
            }
        }
        SeriesKind::Gauge => {
            let mut prev_bits = 0u64;
            for p in points {
                let PointValue::Gauge(v) = p.value else {
                    continue;
                };
                let bits = v.to_bits();
                put_varint(&mut out, bits ^ prev_bits);
                prev_bits = bits;
            }
        }
        SeriesKind::Histogram => {
            let empty = Histogram::default();
            let mut prev = &empty;
            for p in points {
                let PointValue::Hist(h) = &p.value else {
                    continue;
                };
                put_signed(&mut out, h.count() as i64 - prev.count() as i64);
                put_varint(&mut out, h.sum_secs().to_bits() ^ prev.sum_secs().to_bits());
                put_varint(&mut out, h.buckets().len() as u64);
                let mut pb = prev.buckets();
                for (le, c) in h.buckets() {
                    let (ple, pcnt) = pb.next().unwrap_or((0.0, 0));
                    put_varint(&mut out, le.to_bits() ^ ple.to_bits());
                    put_signed(&mut out, c as i64 - pcnt as i64);
                }
                prev = h;
            }
        }
    }
    out
}

/// Decodes a payload produced by [`encode_points`].
///
/// A corrupt or hostile payload gives an `Err`, never a panic or an
/// allocation larger than the payload warrants: every count is checked
/// against the bytes left (each item takes at least one), every delta
/// is summed with checked arithmetic, and every histogram bucket bound
/// must be one of the grid's.
pub fn decode_points(kind: SeriesKind, bytes: &[u8]) -> Result<Vec<Point>, String> {
    let mut pos = 0usize;
    let bad = || "truncated history payload".to_owned();
    let overflow = || "history payload delta overflows".to_owned();
    // Each of `n` items takes at least one more byte.
    let count = |n: u64, pos: usize, what: &str| -> Result<usize, String> {
        let left = bytes.len() - pos;
        match usize::try_from(n) {
            Ok(n) if n <= left => Ok(n),
            _ => Err(format!(
                "history payload claims {n} {what} but has {left} bytes left"
            )),
        }
    };
    let n = count(get_varint(bytes, &mut pos).ok_or_else(bad)?, pos, "points")?;
    let mut times = Vec::with_capacity(n);
    let mut prev_t = 0i64;
    let mut prev_delta = 0i64;
    for i in 0..n {
        let t = match i {
            0 => get_varint(bytes, &mut pos).ok_or_else(bad)? as i64,
            1 => {
                prev_delta = get_signed(bytes, &mut pos).ok_or_else(bad)?;
                prev_t.checked_add(prev_delta).ok_or_else(overflow)?
            }
            _ => {
                let dod = get_signed(bytes, &mut pos).ok_or_else(bad)?;
                prev_delta = prev_delta.checked_add(dod).ok_or_else(overflow)?;
                prev_t.checked_add(prev_delta).ok_or_else(overflow)?
            }
        };
        times.push(t.max(0) as u64);
        prev_t = t;
    }
    let mut points = Vec::with_capacity(count(n as u64, pos, "values")?);
    match kind {
        SeriesKind::Counter => {
            let mut prev = 0i64;
            for &t_ms in &times {
                let delta = get_signed(bytes, &mut pos).ok_or_else(bad)?;
                prev = prev.checked_add(delta).ok_or_else(overflow)?;
                points.push(Point {
                    t_ms,
                    value: PointValue::Counter(prev.max(0) as u64),
                });
            }
        }
        SeriesKind::Gauge => {
            let mut prev_bits = 0u64;
            for &t_ms in &times {
                prev_bits ^= get_varint(bytes, &mut pos).ok_or_else(bad)?;
                points.push(Point {
                    t_ms,
                    value: PointValue::Gauge(f64::from_bits(prev_bits)),
                });
            }
        }
        SeriesKind::Histogram => {
            // The previous point's count, sum bits and `(bound bits,
            // count)` buckets, as written.
            let (mut pc, mut sum_bits) = (0i64, 0u64);
            let mut pb: Vec<(u64, u64)> = Vec::new();
            for &t_ms in &times {
                let delta = get_signed(bytes, &mut pos).ok_or_else(bad)?;
                pc = pc.checked_add(delta).ok_or_else(overflow)?.max(0);
                sum_bits ^= get_varint(bytes, &mut pos).ok_or_else(bad)?;
                let n_buckets = get_varint(bytes, &mut pos).ok_or_else(bad)?;
                let n_buckets = count(n_buckets, pos, "buckets")?;
                let mut buckets = Vec::with_capacity(n_buckets);
                let mut grid = Vec::with_capacity(n_buckets);
                for i in 0..n_buckets {
                    let (ple, pcnt) = pb.get(i).copied().unwrap_or((0, 0));
                    let le_bits = ple ^ get_varint(bytes, &mut pos).ok_or_else(bad)?;
                    let delta = get_signed(bytes, &mut pos).ok_or_else(bad)?;
                    let c = (pcnt as i64)
                        .checked_add(delta)
                        .ok_or_else(overflow)?
                        .max(0) as u64;
                    let le = f64::from_bits(le_bits);
                    let i = grid_index(le)
                        .ok_or_else(|| format!("histogram bucket bound {le} is off the grid"))?;
                    buckets.push((le_bits, c));
                    grid.push((i, c));
                }
                let h = Histogram::from_parts(pc as u64, f64::from_bits(sum_bits), grid);
                points.push(Point {
                    t_ms,
                    value: PointValue::Hist(h),
                });
                pb = buckets;
            }
        }
    }
    if pos != bytes.len() {
        return Err(format!(
            "history payload has {} trailing bytes",
            bytes.len() - pos
        ));
    }
    Ok(points)
}

// --- Segment file format ---------------------------------------------

/// CRC-32 (IEEE 802.3, reflected) over `bytes` — the checksum guarding
/// every persisted segment.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xffff_ffffu32;
    for &b in bytes {
        crc ^= b as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xedb8_8320 & mask);
        }
    }
    !crc
}

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex payload".into());
    }
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).map_err(|e| format!("bad hex: {e}")))
        .collect()
}

fn segment_line(metric: &str, kind: SeriesKind, n_points: usize, payload: &[u8]) -> String {
    format!(
        "{FORMAT_MAGIC} {metric} {} {n_points} {:08x} {}\n",
        kind.tag(),
        crc32(payload),
        hex_encode(payload)
    )
}

/// One decoded `history.nmts` segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// Series name.
    pub metric: String,
    /// Series kind.
    pub kind: SeriesKind,
    /// The segment's points, oldest first.
    pub points: Vec<Point>,
}

/// Reads every segment of a `history.nmts` file, oldest first,
/// verifying magic, point counts, and CRCs (empty when absent).
///
/// A final line without its trailing newline that fails to parse is a
/// torn flush (the writer died mid-`write_all`): it is dropped, counted
/// in `store_torn_tail_total`, and every earlier segment is returned.
/// A bad line anywhere else is an error naming that line.
pub fn read_history(path: &Path) -> Result<Vec<Segment>, String> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
    };
    let mut segments = Vec::new();
    for (lineno, chunk) in text.split_inclusive('\n').enumerate() {
        let (line, complete) = match chunk.strip_suffix('\n') {
            Some(line) => (line, true),
            None => (chunk, false),
        };
        if line.trim().is_empty() {
            continue;
        }
        match parse_segment(line) {
            Ok(segment) => segments.push(segment),
            Err(_) if !complete => crate::counter!(crate::names::STORE_TORN_TAIL_TOTAL),
            Err(e) => return Err(format!("{}:{}: {e}", path.display(), lineno + 1)),
        }
    }
    Ok(segments)
}

/// Parses and verifies one `history.nmts` segment line.
fn parse_segment(line: &str) -> Result<Segment, String> {
    let mut f = line.split_ascii_whitespace();
    match (f.next(), f.next(), f.next(), f.next(), f.next(), f.next()) {
        (Some(FORMAT_MAGIC), Some(metric), Some(kind), Some(n), Some(crc), Some(hex)) => {
            let kind = SeriesKind::from_tag(kind)
                .ok_or_else(|| format!("unknown series kind {kind:?}"))?;
            let payload = hex_decode(hex)?;
            let want: u32 =
                u32::from_str_radix(crc, 16).map_err(|_| format!("bad crc field {crc:?}"))?;
            let got = crc32(&payload);
            if got != want {
                return Err(format!("crc mismatch: {got:08x} != {want:08x}"));
            }
            let points = decode_points(kind, &payload)?;
            let n: usize = n.parse().map_err(|_| "bad point count".to_owned())?;
            if points.len() != n {
                return Err(format!("point count mismatch: {} != {n}", points.len()));
            }
            Ok(Segment {
                metric: metric.to_owned(),
                kind,
                points,
            })
        }
        (Some(magic), ..) => Err(format!("unknown segment magic {magic:?}")),
        _ => Err("malformed segment line".to_owned()),
    }
}

// --- The live sampler -------------------------------------------------

/// A background thread that drives a [`MetricStore`] (and optionally an
/// [`AlertEngine`](crate::alerts::AlertEngine)) at a fixed cadence.
/// Stop it with [`Sampler::stop`] for a final sample, alert pass, and
/// flush.
pub struct Sampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
    store: Arc<MetricStore>,
    engine: Option<Arc<crate::alerts::AlertEngine>>,
    persist: Option<PathBuf>,
}

impl Sampler {
    /// Starts sampling every `interval`. When `engine` is given, each
    /// sample is followed by an alert evaluation pass (firing/resolve
    /// events publish into `hub`'s journal tail when a hub is given);
    /// when `persist` is given, fresh points flush to that path after
    /// every sample and on stop.
    pub fn start(
        store: Arc<MetricStore>,
        engine: Option<Arc<crate::alerts::AlertEngine>>,
        hub: Option<Arc<crate::hub::TelemetryHub>>,
        interval: Duration,
        persist: Option<PathBuf>,
    ) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let thread_store = Arc::clone(&store);
        let thread_engine = engine.clone();
        let thread_persist = persist.clone();
        let interval = interval.max(Duration::from_millis(1));
        let handle = std::thread::spawn(move || {
            while !thread_stop.load(Ordering::Acquire) {
                tick(
                    &thread_store,
                    thread_engine.as_deref(),
                    hub.as_deref(),
                    thread_persist.as_deref(),
                );
                // Sleep in short slices so `stop` is prompt.
                let mut slept = Duration::ZERO;
                while slept < interval && !thread_stop.load(Ordering::Acquire) {
                    let slice = (interval - slept).min(Duration::from_millis(25));
                    std::thread::sleep(slice);
                    slept += slice;
                }
            }
        });
        Sampler {
            stop,
            handle: Some(handle),
            store,
            engine,
            persist,
        }
    }

    /// Stops the thread, takes one final sample + alert pass, and
    /// flushes to the persist path when one was configured.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        tick(
            &self.store,
            self.engine.as_deref(),
            None,
            self.persist.as_deref(),
        );
    }
}

fn tick(
    store: &MetricStore,
    engine: Option<&crate::alerts::AlertEngine>,
    hub: Option<&crate::hub::TelemetryHub>,
    persist: Option<&Path>,
) {
    if !crate::runtime_enabled() {
        return;
    }
    store.sample();
    if let Some(engine) = engine {
        engine.evaluate(store, crate::runregistry::now_ms());
        if let Some(hub) = hub {
            let jsonl = engine.drain_journal_jsonl();
            if !jsonl.is_empty() {
                hub.publish_journal_jsonl(&jsonl);
            }
        }
    }
    if let Some(path) = persist {
        let _ = store.flush_to(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{BucketSnap, CounterSnap, GaugeSnap, HistSnap};

    fn snap(counter: u64, gauge: f64) -> Snapshot {
        Snapshot {
            counters: vec![CounterSnap {
                name: "t_store_total".to_owned(),
                value: counter,
            }],
            gauges: vec![GaugeSnap {
                name: "t_store_gauge".to_owned(),
                value: gauge,
            }],
            histograms: Vec::new(),
        }
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("nm_store_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn varints_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    /// A payload written field by field: `(signed, value)` pairs.
    fn payload(fields: &[(bool, u64)]) -> Vec<u8> {
        let mut out = Vec::new();
        for &(signed, v) in fields {
            if signed {
                put_signed(&mut out, v as i64);
            } else {
                put_varint(&mut out, v);
            }
        }
        out
    }

    fn assert_refused(kind: SeriesKind, bytes: &[u8], why: &str) {
        match decode_points(kind, bytes) {
            Err(e) => assert!(e.contains(why), "{e:?} should say {why:?}"),
            Ok(points) => panic!("decoded {} points from a hostile payload", points.len()),
        }
    }

    #[test]
    fn hostile_point_count_is_refused_before_allocating() {
        // 2^60 points in a 9-byte payload.
        assert_refused(
            SeriesKind::Counter,
            &payload(&[(false, 1 << 60)]),
            "claims 1152921504606846976 points",
        );
        assert_refused(SeriesKind::Gauge, &payload(&[(false, u64::MAX)]), "claims");
    }

    #[test]
    fn hostile_value_count_is_refused_before_allocating() {
        // Three whole timestamps, then no byte left for the values.
        let bytes = payload(&[(false, 3), (false, 1_000), (true, 5), (true, 0)]);
        assert_refused(
            SeriesKind::Counter,
            &bytes,
            "claims 3 values but has 0 bytes left",
        );
    }

    #[test]
    fn hostile_bucket_count_is_refused_before_allocating() {
        // One histogram point claiming 2^62 buckets.
        let bytes = payload(&[
            (false, 1),
            (false, 0),
            (true, 1),
            (false, 0),
            (false, 1 << 62),
        ]);
        assert_refused(
            SeriesKind::Histogram,
            &bytes,
            "claims 4611686018427387904 buckets",
        );
    }

    #[test]
    fn off_grid_bucket_bounds_are_refused() {
        // One histogram point, one bucket bounded at 0.5 s: a float the
        // grid never produces (its neighbours are 2^28 and 2^29 ns).
        let bytes = payload(&[
            (false, 1),
            (false, 0),
            (true, 1),
            (false, 0),
            (false, 1),
            (false, 0.5f64.to_bits()),
            (true, 1),
        ]);
        assert_refused(SeriesKind::Histogram, &bytes, "off the grid");
        // The same payload behind a valid CRC is still refused by
        // `read_history`, naming the line.
        let path = tmp("off_grid.nmts");
        std::fs::write(
            &path,
            segment_line("t_seconds", SeriesKind::Histogram, 1, &bytes),
        )
        .unwrap();
        let err = read_history(&path).unwrap_err();
        assert!(
            err.contains(":1: ") && err.contains("off the grid"),
            "{err}"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn overflowing_deltas_are_refused() {
        let max = i64::MAX as u64;
        // Timestamp: t1 = t0 + delta.
        let ts = payload(&[(false, 2), (false, max), (true, max), (true, 0), (true, 0)]);
        assert_refused(SeriesKind::Counter, &ts, "overflows");
        // Timestamp: the delta of deltas.
        let dod = payload(&[(false, 3), (false, 0), (true, max), (true, max)]);
        assert_refused(SeriesKind::Counter, &dod, "overflows");
        // Counter value.
        let counter = payload(&[(false, 2), (false, 0), (true, 1), (true, max), (true, max)]);
        assert_refused(SeriesKind::Counter, &counter, "overflows");
        // Histogram count, then a histogram bucket.
        let hist_count = payload(&[
            (false, 2),
            (false, 0),
            (true, 1),
            (true, max),
            (false, 0),
            (false, 0),
            (true, max),
            (false, 0),
            (false, 0),
        ]);
        assert_refused(SeriesKind::Histogram, &hist_count, "overflows");
        // Its bound is the grid's first, so decoding reaches the sum.
        let bucket = payload(&[
            (false, 2),
            (false, 0),
            (true, 1),
            (true, 0),
            (false, 0),
            (false, 1),
            (false, 128e-9f64.to_bits()),
            (true, max),
            (true, 0),
            (false, 0),
            (false, 1),
            (false, 0),
            (true, max),
        ]);
        assert_refused(SeriesKind::Histogram, &bucket, "overflows");
    }

    #[test]
    fn codec_round_trips_every_kind_bit_for_bit() {
        let counters: Vec<Point> = [(1000u64, 5u64), (2000, 17), (3000, 17), (4000, 3)]
            .iter()
            .map(|&(t_ms, v)| Point {
                t_ms,
                value: PointValue::Counter(v),
            })
            .collect();
        let gauges: Vec<Point> = [(1000u64, 0.5f64), (2000, 0.5), (3000, -1.25), (4000, 0.0)]
            .iter()
            .map(|&(t_ms, v)| Point {
                t_ms,
                value: PointValue::Gauge(v),
            })
            .collect();
        let hists: Vec<Point> = (0..4)
            .map(|i| Point {
                t_ms: 1000 * (i as u64 + 1),
                value: PointValue::Hist(Histogram::from_parts(
                    10 * (i as u64 + 1),
                    0.125 * (i as f64 + 1.0),
                    [(13, 2 * (i as u64 + 1)), (16, 10 * (i as u64 + 1))],
                )),
            })
            .collect();
        for (kind, pts) in [
            (SeriesKind::Counter, counters),
            (SeriesKind::Gauge, gauges),
            (SeriesKind::Histogram, hists),
        ] {
            let payload = encode_points(kind, &pts);
            let back = decode_points(kind, &payload).unwrap();
            assert_eq!(back, pts, "{kind:?} decode mismatch");
            // Bit-for-bit: re-encoding the decode reproduces the bytes.
            assert_eq!(encode_points(kind, &back), payload, "{kind:?} re-encode");
        }
    }

    #[test]
    fn counter_resets_survive_the_codec() {
        // Property-style sweep: pseudo-random monotone runs with resets
        // injected; encode→decode must be exact for every sequence.
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rng = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..50 {
            let mut pts = Vec::new();
            let mut t = 1_000_000u64;
            let mut v = 0u64;
            for _ in 0..40 {
                t += 500 + rng() % 700;
                if rng() % 10 == 0 {
                    v = rng() % 5; // counter reset
                } else {
                    v += rng() % 1000;
                }
                pts.push(Point {
                    t_ms: t,
                    value: PointValue::Counter(v),
                });
            }
            let payload = encode_points(SeriesKind::Counter, &pts);
            let back = decode_points(SeriesKind::Counter, &payload).unwrap();
            assert_eq!(back, pts);
            assert_eq!(encode_points(SeriesKind::Counter, &back), payload);
        }
    }

    #[test]
    fn store_samples_and_queries_windows() {
        let store = MetricStore::default();
        for i in 0..10u64 {
            store.sample_at(1000 * i, &snap(i * 5, i as f64 * 0.1));
        }
        assert_eq!(store.samples_total(), 10);
        assert_eq!(store.dropped_total(), 0);
        let list = store.series_list();
        assert_eq!(list.len(), 2);
        assert_eq!(list[0].0, "t_store_gauge");
        assert_eq!(list[0].1, SeriesKind::Gauge);
        let pts = store.range("t_store_total", 2000, 5000);
        assert_eq!(
            pts,
            vec![(2000, 10.0), (3000, 15.0), (4000, 20.0), (5000, 25.0)]
        );
        assert_eq!(store.increase("t_store_total", 2000, 5000), Some(15.0));
        let rate = store.rate("t_store_total", 2000, 5000).unwrap();
        assert!((rate - 5.0).abs() < 1e-12, "5/s counter, got {rate}");
        assert_eq!(store.last_value("t_store_gauge"), Some(0.9));
        assert_eq!(store.last_sample_ms("t_store_gauge"), Some(9000));
        assert!(store.range("missing_total", 0, u64::MAX).is_empty());
        assert_eq!(store.increase("t_store_total", 0, 500), None);
    }

    #[test]
    fn increase_is_reset_aware() {
        let store = MetricStore::default();
        for (i, v) in [10u64, 20, 3, 8].iter().enumerate() {
            store.sample_at(1000 * i as u64, &snap(*v, 0.0));
        }
        // 10→20 (+10), reset to 3 (+3), 3→8 (+5).
        assert_eq!(store.increase("t_store_total", 0, u64::MAX), Some(18.0));
    }

    #[test]
    fn retention_drops_oldest_and_counts() {
        let store = MetricStore::new(StoreOptions {
            retention_points: 4,
        });
        for i in 0..10u64 {
            store.sample_at(1000 * i, &snap(i, 0.0));
        }
        // Two series × 6 evictions each.
        assert_eq!(store.dropped_total(), 12);
        let pts = store.range("t_store_total", 0, u64::MAX);
        assert_eq!(pts.len(), 4);
        assert_eq!(pts[0].0, 6000, "oldest points were evicted first");
    }

    #[test]
    fn window_quantile_diffs_cumulative_buckets() {
        let _g = crate::test_serial();
        if !crate::ENABLED {
            return;
        }
        crate::reset();
        let store = MetricStore::default();
        // Two samples of a live histogram: the second adds slow events.
        crate::observe!("t_store_seconds", 0.001);
        crate::observe!("t_store_seconds", 0.001);
        store.sample_at(1000, &crate::snapshot());
        for _ in 0..20 {
            crate::observe!("t_store_seconds", 1.0);
        }
        store.sample_at(2000, &crate::snapshot());
        crate::reset();
        let q = store
            .window_quantile("t_store_seconds", 0.5, 0, u64::MAX)
            .unwrap();
        // The window's distribution is the 20 slow events only.
        assert!(q > 0.1, "window p50 must reflect only the window: {q}");
        assert_eq!(store.window_quantile("t_store_seconds", 0.5, 0, 500), None);
        assert_eq!(
            store.window_quantile("t_store_gauge", 0.5, 0, u64::MAX),
            None
        );
    }

    #[test]
    fn window_quantile_and_increase_see_a_histogram_reset() {
        let le = |k: u32| (1u64 << k) as f64 / 1e9;
        let hist = |k: u32, n: u64| Snapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![HistSnap {
                name: "t_reset_seconds".to_owned(),
                count: n,
                sum_secs: n as f64 * le(k) * 0.75,
                buckets: vec![BucketSnap {
                    le_secs: le(k),
                    count: n,
                }],
            }],
        };
        // Two fast observations, a reset, then twenty slow ones: the
        // total regrows past its first reading, but the fast bucket fell.
        let store = MetricStore::default();
        let before = hist(20, 2);
        let after = hist(30, 20);
        store.sample_at(1000, &before);
        store.sample_at(2000, &after);
        assert_eq!(
            store.increase("t_reset_seconds", 0, u64::MAX),
            Some(20.0),
            "the twenty observations since the reset"
        );
        let slow = &after.histograms[0];
        for q in [0.01, 0.5, 0.99] {
            assert_eq!(
                store.window_quantile("t_reset_seconds", q, 0, u64::MAX),
                Some(slow.quantile_secs(q)),
                "q {q}"
            );
        }
    }

    #[test]
    fn history_file_round_trips_and_is_deterministic() {
        let run = |path: &Path| {
            let store = MetricStore::default();
            for i in 0..20u64 {
                store.sample_at(500 * i, &snap(i * 3, (i as f64 * 0.7).sin()));
            }
            store.flush_to(path).unwrap()
        };
        let p1 = tmp("round_a.nmts");
        let p2 = tmp("round_b.nmts");
        assert_eq!(run(&p1), 2, "one segment per series");
        run(&p2);
        // Same logical samples → byte-identical files.
        assert_eq!(
            std::fs::read(&p1).unwrap(),
            std::fs::read(&p2).unwrap(),
            "same-seed histories must be byte-identical"
        );
        let segments = read_history(&p1).unwrap();
        assert_eq!(segments.len(), 2);
        let counter = segments
            .iter()
            .find(|s| s.metric == "t_store_total")
            .unwrap();
        assert_eq!(counter.kind, SeriesKind::Counter);
        assert_eq!(counter.points.len(), 20);
        assert_eq!(
            counter.points[7],
            Point {
                t_ms: 3500,
                value: PointValue::Counter(21),
            }
        );
        let _ = std::fs::remove_file(&p1);
        let _ = std::fs::remove_file(&p2);
    }

    /// Pins the bytes of one `history.nmts` histogram segment: two
    /// samples on the registry's grid whose bucket sets differ, the
    /// second with one overflow observation.
    #[test]
    fn histogram_segment_bytes_are_pinned() {
        let le = |k: u32| (1u64 << k) as f64 / 1e9;
        let snap = |count: u64, sum_secs: f64, buckets: &[(u32, u64)]| Snapshot {
            counters: Vec::new(),
            gauges: Vec::new(),
            histograms: vec![HistSnap {
                name: "t_pinned_seconds".to_owned(),
                count,
                sum_secs,
                buckets: buckets
                    .iter()
                    .map(|&(k, count)| BucketSnap {
                        le_secs: le(k),
                        count,
                    })
                    .collect(),
            }],
        };
        let store = MetricStore::default();
        store.sample_at(1000, &snap(3, 2e-6 + 1e-3, &[(10, 2), (20, 1)]));
        store.sample_at(
            2000,
            &snap(7, 2e-6 + 3e-3 + 0.75 + 1e6, &[(10, 2), (20, 3), (30, 1)]),
        );
        let path = tmp("pinned.nmts");
        assert_eq!(store.flush_to(&path).unwrap(), 1);
        let text = std::fs::read_to_string(&path).unwrap();
        let _ = std::fs::remove_file(&path);
        assert_eq!(
            text,
            "NMTS1 t_pinned_seconds histogram 2 4d199e4d 02e807d00f06f38988f694d69aa83f\
             0295ad9bc1bec1cbd83e0495ad9bc1bec1cba83f02089bfdadfa8cc6bbbf7e030000000495ad\
             9bc1bec1cbf83f02\n"
        );
    }

    #[test]
    fn flush_is_incremental_and_append_only() {
        let path = tmp("incremental.nmts");
        let store = MetricStore::default();
        store.sample_at(1000, &snap(1, 0.1));
        assert_eq!(store.flush_to(&path).unwrap(), 2);
        // Nothing new → nothing appended.
        assert_eq!(store.flush_to(&path).unwrap(), 0);
        store.sample_at(2000, &snap(2, 0.2));
        store.sample_at(3000, &snap(3, 0.3));
        assert_eq!(store.flush_to(&path).unwrap(), 2);
        let segments = read_history(&path).unwrap();
        assert_eq!(segments.len(), 4);
        let counts: Vec<usize> = segments
            .iter()
            .filter(|s| s.metric == "t_store_total")
            .map(|s| s.points.len())
            .collect();
        assert_eq!(counts, vec![1, 2], "each flush covers only fresh points");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn corrupt_history_is_rejected() {
        let path = tmp("corrupt.nmts");
        let store = MetricStore::default();
        store.sample_at(1000, &snap(1, 0.1));
        store.flush_to(&path).unwrap();
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Flip one payload nibble: the CRC must catch it.
        let flip = text.len() - 3;
        let orig = text.remove(flip);
        text.insert(flip, if orig == '0' { '1' } else { '0' });
        std::fs::write(&path, &text).unwrap();
        let err = read_history(&path).unwrap_err();
        assert!(err.contains("crc mismatch"), "{err}");
        std::fs::write(&path, "BOGUS line\n").unwrap();
        assert!(read_history(&path).unwrap_err().contains("magic"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_is_dropped_and_counted() {
        let _g = crate::test_serial();
        crate::reset();
        let path = tmp("torn.nmts");
        let store = MetricStore::default();
        store.sample_at(1000, &snap(1, 0.1));
        store.flush_to(&path).unwrap();
        store.sample_at(2000, &snap(2, 0.2));
        store.flush_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        // Cut the last segment line in half, as a crash mid-flush would.
        let last_start = text.trim_end().rfind('\n').unwrap() + 1;
        let cut = last_start + (text.len() - last_start) / 2;
        std::fs::write(&path, &text[..cut]).unwrap();
        let segments = read_history(&path).unwrap();
        assert_eq!(
            segments.len(),
            3,
            "every segment before the torn line survives"
        );
        if crate::ENABLED {
            let torn = crate::snapshot().counter(crate::names::STORE_TORN_TAIL_TOTAL);
            assert_eq!(torn, 1);
        }
        // The same damage followed by a newline is no longer a torn
        // tail but a corrupt line, and is an error naming it.
        std::fs::write(&path, format!("{}\n", &text[..cut])).unwrap();
        let err = read_history(&path).unwrap_err();
        assert!(err.contains(":4: "), "{err}");
        crate::reset();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
    }
}
