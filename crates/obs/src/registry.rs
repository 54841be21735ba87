//! The metrics registry: counters, gauges, and log-scale histograms.
//!
//! Recording never takes the registry lock on the hot path. Each call
//! site (via the [`counter!`](crate::counter)/[`observe!`](crate::observe)
//! macros) caches a per-thread [`Counter`]/[`Hist`] handle — an `Arc`
//! around a plain atomic cell — registered once per `(thread, site)`.
//! Increments are relaxed atomic RMWs on a shard nothing else touches;
//! [`snapshot`] merges shards by name under the lock, so contention is
//! confined to handle creation and scrapes. Gauges are rare writes
//! (high-water marks per DP run) and live behind a single mutex.

use crate::hist::{bucket_of, quantile, secs_to_ns, Histogram, HIST_BUCKETS};
use crate::runtime_enabled;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One histogram shard: per-bucket counts plus the sum. The total
/// count is the sum of the buckets, overflow included, so a scrape
/// racing an observation can never see a total below its buckets.
pub(crate) struct HistCell {
    sum_ns: AtomicU64,
    buckets: [AtomicU64; HIST_BUCKETS],
}

impl HistCell {
    fn new() -> Self {
        HistCell {
            sum_ns: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }

    fn zero(&self) {
        self.sum_ns.store(0, Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
        }
    }
}

/// A counter handle: a private per-thread shard of a named counter.
/// Cloning shares the shard; the registry keeps one `Arc` so values
/// survive thread exit.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n` (no-op when observability is disabled at run time).
    #[inline]
    pub fn add(&self, n: u64) {
        if n != 0 && runtime_enabled() {
            self.0.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }
}

/// A histogram handle: a private per-thread shard of a named histogram.
#[derive(Clone)]
pub struct Hist(Arc<HistCell>);

impl Hist {
    /// Records a value in seconds (wall-clock or simulated).
    #[inline]
    pub fn observe_secs(&self, secs: f64) {
        if !runtime_enabled() {
            return;
        }
        let ns = secs_to_ns(secs);
        let cell = &self.0;
        cell.sum_ns.fetch_add(ns, Ordering::Relaxed);
        cell.buckets[bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
    }
}

struct Registry {
    counters: Mutex<Vec<(&'static str, Arc<AtomicU64>)>>,
    hists: Mutex<Vec<(&'static str, Arc<HistCell>)>>,
    gauges: Mutex<BTreeMap<&'static str, f64>>,
}

fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(|| Registry {
        counters: Mutex::new(Vec::new()), // lint:allow(hot-path-alloc) one-time OnceLock construction; hot-path calls return the cached reference
        hists: Mutex::new(Vec::new()),
        gauges: Mutex::new(BTreeMap::new()),
    })
}

/// Registers a new per-thread shard of the named counter. Call once per
/// call site per thread (the macros cache the handle in a
/// `thread_local!`); shards with the same name merge on scrape.
pub fn counter_handle(name: &'static str) -> Counter {
    let cell = Arc::new(AtomicU64::new(0));
    registry()
        .counters
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((name, cell.clone()));
    Counter(cell)
}

/// Registers a new per-thread shard of the named histogram.
pub fn hist_handle(name: &'static str) -> Hist {
    let cell = Arc::new(HistCell::new());
    registry()
        .hists
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .push((name, cell.clone()));
    Hist(cell)
}

/// Sets a gauge to `value`.
pub fn gauge_set(name: &'static str, value: f64) {
    if !runtime_enabled() {
        return;
    }
    registry()
        .gauges
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .insert(name, value);
}

/// Raises a gauge to `value` if it is higher (high-water mark).
pub fn gauge_max(name: &'static str, value: f64) {
    if !runtime_enabled() {
        return;
    }
    let mut g = registry().gauges.lock().unwrap_or_else(|e| e.into_inner());
    let slot = g.entry(name).or_insert(value);
    if value > *slot {
        *slot = value;
    }
}

/// Zeroes every metric in place. Cached thread-local handles stay valid
/// (shards are zeroed, not dropped), so call sites keep recording into
/// the same cells after a reset.
pub fn reset() {
    let r = registry();
    for (_, c) in r.counters.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        c.store(0, Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
    }
    for (_, h) in r.hists.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        h.zero();
    }
    r.gauges.lock().unwrap_or_else(|e| e.into_inner()).clear();
}

/// A scraped counter.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterSnap {
    /// Metric name.
    pub name: String,
    /// Merged value across all shards.
    pub value: u64,
}

/// A scraped gauge.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GaugeSnap {
    /// Metric name.
    pub name: String,
    /// Current value.
    pub value: f64,
}

/// One non-empty finite histogram bucket (per-bucket count, not
/// cumulative; overflow lives only in [`HistSnap::count`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BucketSnap {
    /// Upper bound of the bucket, in seconds.
    pub le_secs: f64,
    /// Observations in this bucket alone.
    pub count: u64,
}

/// A scraped histogram, merged across shards.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistSnap {
    /// Metric name.
    pub name: String,
    /// Total observations (including overflow past the last bucket).
    pub count: u64,
    /// Sum of observed values, in seconds.
    pub sum_secs: f64,
    /// Non-empty finite buckets, ascending by bound.
    pub buckets: Vec<BucketSnap>,
}

impl HistSnap {
    /// Mean observed value in seconds.
    pub fn mean_secs(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        self.sum_secs / self.count as f64
    }

    /// Approximate quantile (`0.0..=1.0`) by the one rule of
    /// [`Histogram::quantile_secs`], over this snapshot's buckets.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        let buckets = self.buckets.iter().map(|b| (b.le_secs, b.count));
        quantile(self.count, self.sum_secs, buckets, q)
    }
}

/// A point-in-time scrape of the whole registry, each section sorted by
/// name. Serializes to JSON via serde; see [`Snapshot::to_prometheus`]
/// for the text exposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// Counters, merged across shards.
    pub counters: Vec<CounterSnap>,
    /// Gauges.
    pub gauges: Vec<GaugeSnap>,
    /// Histograms, merged across shards.
    pub histograms: Vec<HistSnap>,
}

impl Snapshot {
    /// `true` when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Value of a counter (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map_or(0, |c| c.value)
    }

    /// Value of a gauge, when present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|g| g.name == name).map(|g| g.value)
    }

    /// A histogram by name, when present.
    pub fn histogram(&self, name: &str) -> Option<&HistSnap> {
        self.histograms.iter().find(|h| h.name == name)
    }
}

/// Merges every shard into a [`Snapshot`].
pub fn snapshot() -> Snapshot {
    let r = registry();
    let mut counters: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (name, c) in r.counters.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        *counters.entry(name).or_insert(0) += c.load(Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
    }

    let mut hists: BTreeMap<&'static str, (u64, [u64; HIST_BUCKETS])> = BTreeMap::new();
    for (name, h) in r.hists.lock().unwrap_or_else(|e| e.into_inner()).iter() {
        let entry = hists.entry(name).or_insert((0, [0; HIST_BUCKETS]));
        entry.0 += h.sum_ns.load(Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
        for (acc, b) in entry.1.iter_mut().zip(&h.buckets) {
            *acc += b.load(Ordering::Relaxed); // lint:allow(atomic-ordering) shard cells are reached under the registry Mutex, whose unlock edge orders resets against merges; racing Relaxed increments are statistical
        }
    }

    Snapshot {
        counters: counters
            .into_iter()
            .filter(|&(_, v)| v > 0)
            .map(|(name, value)| CounterSnap {
                name: name.to_owned(),
                value,
            })
            .collect(),
        gauges: r
            .gauges
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(&name, &value)| GaugeSnap {
                name: name.to_owned(),
                value,
            })
            .collect(),
        histograms: hists
            .into_iter()
            .filter(|(_, (_, buckets))| buckets.iter().any(|&c| c > 0))
            .map(|(name, (sum_ns, buckets))| {
                let count = buckets.iter().sum();
                let h = Histogram::from_parts(
                    count,
                    sum_ns as f64 / 1e9,
                    buckets.into_iter().enumerate(),
                );
                h.snap(name)
            })
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::{bucket_le_secs, FINITE_BUCKETS};

    #[test]
    fn overflow_quantile_reports_outlier_magnitude_not_bucket_ceiling() {
        let last = bucket_le_secs(FINITE_BUCKETS - 1);
        let outlier = 10.0 * last;
        let snap = HistSnap {
            name: "t_overflow_seconds".to_owned(),
            count: 2,
            sum_secs: 1e-7 + outlier,
            buckets: vec![BucketSnap {
                le_secs: bucket_le_secs(0),
                count: 1,
            }],
        };
        // The rank landing in a finite bucket still interpolates.
        assert!(snap.quantile_secs(0.5) <= bucket_le_secs(0));
        // The rank landing in the overflow tracks the outlier's real
        // magnitude instead of snapping to the histogram ceiling.
        let p99 = snap.quantile_secs(0.99);
        assert!(p99 > last, "p99 snapped to the finite ceiling: {p99}");
        assert!(
            (p99 / outlier - 1.0).abs() < 0.01,
            "p99 {p99} vs outlier {outlier}"
        );

        // All-overflow histogram: no finite bucket at all used to
        // report 0.0 for every quantile.
        let all_over = HistSnap {
            name: "t_all_overflow_seconds".to_owned(),
            count: 1,
            sum_secs: 5.0 * last,
            buckets: Vec::new(),
        };
        assert!((all_over.quantile_secs(0.5) / (5.0 * last) - 1.0).abs() < 1e-9);
    }

    /// Pins `quantile_secs` bit for bit on fixed bucket sets: the first
    /// bucket (which starts at zero), observations sitting exactly on
    /// grid bounds, and overflow past the last finite bound.
    #[test]
    fn quantile_golden_values() {
        let le = |k: u32| (1u64 << k) as f64 / 1e9;
        let hist = |count: u64, sum_secs: f64, buckets: &[(u32, u64)]| HistSnap {
            name: "t_golden_seconds".to_owned(),
            count,
            sum_secs,
            buckets: buckets
                .iter()
                .map(|&(k, count)| BucketSnap {
                    le_secs: le(k),
                    count,
                })
                .collect(),
        };
        let cases = [
            // Four 100 ns observations, all in the first bucket.
            (
                hist(4, 4e-7, &[(7, 4)]),
                [3.2e-8, 6.4e-8, 1.28e-7, 1.28e-7, 1.28e-7],
            ),
            // Three observations exactly at 2^20 ns, one at 2^21 ns.
            (
                hist(4, 3.0 * le(20) + le(21), &[(20, 3), (21, 1)]),
                [
                    0.0006990506666666666,
                    0.0008738133333333334,
                    0.002097152,
                    0.002097152,
                    0.002097152,
                ],
            ),
            // 97 at ~1 µs, two in the 2^30 ns bucket, one 2^50 ns outlier.
            (
                hist(100, 97e-6 + 1.5 * le(30) + le(50), &[(10, 97), (30, 2)]),
                [
                    5.172783505154639e-7,
                    7.759175257731959e-7,
                    9.870515463917528e-7,
                    1.073741824,
                    1125899.9068651279,
                ],
            ),
        ];
        for (h, want) in &cases {
            let got: Vec<f64> = [0.01, 0.5, 0.9, 0.99, 1.0]
                .iter()
                .map(|&q| h.quantile_secs(q))
                .collect();
            assert_eq!(got, want, "{h:?}");
        }
    }

    #[test]
    fn counters_merge_across_shards() {
        let _g = crate::test_serial();
        reset();
        let a = counter_handle("test_merge_total");
        let b = counter_handle("test_merge_total");
        a.add(3);
        b.add(4);
        b.inc();
        assert_eq!(snapshot().counter("test_merge_total"), 8);
        reset();
        assert_eq!(snapshot().counter("test_merge_total"), 0);
        // Handles stay live across a reset.
        a.inc();
        assert_eq!(snapshot().counter("test_merge_total"), 1);
        reset();
    }

    #[test]
    fn histogram_records_counts_sum_and_quantiles() {
        let _g = crate::test_serial();
        reset();
        let h = hist_handle("test_hist_seconds");
        for _ in 0..90 {
            h.observe_secs(0.001);
        }
        for _ in 0..10 {
            h.observe_secs(1.0);
        }
        let snap = snapshot();
        let hs = snap.histogram("test_hist_seconds").unwrap();
        assert_eq!(hs.count, 100);
        assert!((hs.sum_secs - 10.09).abs() < 1e-6);
        assert!((hs.mean_secs() - 0.1009).abs() < 1e-6);
        // p50 lands near 1 ms, p99 near 1 s (within-bucket interpolation).
        assert!(hs.quantile_secs(0.5) < 0.01);
        assert!(hs.quantile_secs(0.99) > 0.5);
        reset();
    }

    #[test]
    fn quantiles_interpolate_within_one_bucket_width_of_truth() {
        let _g = crate::test_serial();
        reset();
        let h = hist_handle("test_quantile_seconds");
        // Uniform over 0.01 s ..= 1.00 s: true p50 = 0.50 s, p99 = 0.99 s.
        for i in 1..=100 {
            h.observe_secs(i as f64 / 100.0);
        }
        let snap = snapshot();
        let hs = snap.histogram("test_quantile_seconds").unwrap();
        // One bucket width at value v: bounds double, so width = le − le/2.
        let width_at = |v: f64| {
            let ns = (v * 1e9) as u64;
            let le = bucket_le_secs(bucket_of(ns));
            le / 2.0
        };
        let p50 = hs.quantile_secs(0.5);
        let p99 = hs.quantile_secs(0.99);
        assert!(
            (p50 - 0.50).abs() <= width_at(0.50),
            "p50 {p50} further than one bucket width from 0.50"
        );
        assert!(
            (p99 - 0.99).abs() <= width_at(0.99),
            "p99 {p99} further than one bucket width from 0.99"
        );
        // The old snapping bug returned the raw bucket bound exactly; the
        // interpolated estimate must not sit on a power-of-two bound when
        // the rank lands mid-bucket.
        let le50 = bucket_le_secs(bucket_of((p50 * 1e9) as u64));
        assert!(p50 < le50, "p50 snapped to its bucket upper bound");
        reset();
    }

    #[test]
    fn gauges_set_and_high_water() {
        let _g = crate::test_serial();
        reset();
        gauge_set("test_gauge", 5.0);
        gauge_max("test_gauge", 3.0);
        assert_eq!(snapshot().gauge("test_gauge"), Some(5.0));
        gauge_max("test_gauge", 9.0);
        assert_eq!(snapshot().gauge("test_gauge"), Some(9.0));
        reset();
        assert_eq!(snapshot().gauge("test_gauge"), None);
    }

    #[test]
    fn poisoned_registry_lock_recovers() {
        let _g = crate::test_serial();
        crate::set_runtime_enabled(true);
        reset();
        // Poison the gauges lock: a thread panics while holding it.
        let _ = std::thread::spawn(|| {
            let _guard = registry().gauges.lock().unwrap();
            panic!("poison the gauges lock");
        })
        .join();
        assert!(registry().gauges.is_poisoned());
        // Every accessor recovers the data via `into_inner` instead of
        // propagating the panic to unrelated threads: the guarded map
        // is valid — the poisoned bit only records that a panic
        // happened elsewhere.
        gauge_set("test_poison_gauge", 2.5);
        gauge_max("test_poison_gauge", 7.5);
        assert_eq!(snapshot().gauge("test_poison_gauge"), Some(7.5));
        reset();
        assert_eq!(snapshot().gauge("test_poison_gauge"), None);
    }

    #[test]
    fn torn_histogram_shard_still_scrapes_cumulative() {
        let _g = crate::test_serial();
        reset();
        // A shard as a scrape finds it mid-burst: bucket increments
        // have landed (two of them past the last finite bound) whose
        // sums have not. A total read apart from the buckets would lag
        // them and close the exposition with `+Inf` below the last
        // finite bucket; the total is their sum instead.
        let h = hist_handle("test_torn_seconds");
        h.0.buckets[3].store(4, Ordering::Relaxed);
        h.0.buckets[HIST_BUCKETS - 1].store(2, Ordering::Relaxed);
        h.0.sum_ns.store(1_000, Ordering::Relaxed);
        let snap = snapshot();
        let hs = snap.histogram("test_torn_seconds").expect("scraped");
        assert_eq!(hs.count, 6);
        let text = snap.to_prometheus();
        crate::validate_prometheus(&text).unwrap();
        assert!(
            text.contains("test_torn_seconds_bucket{le=\"+Inf\"} 6"),
            "{text}"
        );
        reset();
    }

    #[test]
    fn runtime_toggle_suppresses_recording() {
        let _g = crate::test_serial();
        reset();
        let c = counter_handle("test_toggle_total");
        crate::set_runtime_enabled(false);
        c.add(100);
        crate::set_runtime_enabled(true);
        c.add(1);
        assert_eq!(snapshot().counter("test_toggle_total"), 1);
        reset();
    }
}
