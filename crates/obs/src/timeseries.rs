//! Per-metric time series and online estimators for the watchtower.
//!
//! A fleet of millions of users cannot afford to keep raw samples
//! around, so everything here is O(1) memory per metric:
//!
//! * [`DaySeries`] — a fixed-capacity ring of per-day samples (one
//!   sample per simulated day), for windowed statistics and the
//!   windowed-CUSUM detector;
//! * [`Welford`] — numerically stable online mean/variance, mergeable
//!   across users via the parallel-variance formula;
//! * [`Ewma`] — exponentially weighted moving average, the smoothed
//!   "recent level" shown on health scorecards;
//! * [`LogSketch`] — a mergeable log-bucket quantile sketch (same
//!   doubling-bucket scheme as the registry histograms) so fleet-wide
//!   percentiles aggregate by summing bucket counts, never by
//!   concatenating samples.

use serde::{Deserialize, Serialize};

/// Online mean/variance accumulator (Welford's algorithm). Mergeable:
/// [`Welford::merge`] combines two accumulators as if every sample had
/// been pushed into one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance (0 when fewer than two samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }

    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Combines with another accumulator (Chan et al. parallel update).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.mean += delta * other.n as f64 / n as f64;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
    }
}

/// Exponentially weighted moving average. Seeded by the first sample,
/// then `v ← α·x + (1−α)·v`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ewma {
    alpha: f64,
    value: Option<f64>,
}

impl Ewma {
    /// A new EWMA with smoothing factor `alpha` in `(0, 1]` (higher =
    /// faster tracking).
    pub fn new(alpha: f64) -> Self {
        Ewma {
            alpha: alpha.clamp(f64::EPSILON, 1.0),
            value: None,
        }
    }

    /// Absorbs one sample and returns the updated average.
    pub fn push(&mut self, x: f64) -> f64 {
        let v = match self.value {
            None => x,
            Some(v) => self.alpha * x + (1.0 - self.alpha) * v,
        };
        self.value = Some(v);
        v
    }

    /// Current average, when at least one sample has been pushed.
    pub fn value(&self) -> Option<f64> {
        self.value
    }
}

/// Buckets in a [`LogSketch`]: upper bounds double from the `min` given
/// to [`LogSketch::new`], with the last bucket catching overflow.
pub const SKETCH_BUCKETS: usize = 48;

/// A mergeable log-bucket quantile sketch over non-negative values.
///
/// Uses the same doubling-bucket scheme as the registry histograms —
/// bucket `i` holds values in `(min·2^(i−1), min·2^i]`, bucket 0 holds
/// `[0, min]` — so relative error is bounded by one octave and two
/// sketches merge by summing counts. Quantiles interpolate linearly
/// within the crossing bucket, mirroring
/// [`HistSnap::quantile_secs`](crate::HistSnap::quantile_secs).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogSketch {
    /// Upper bound of the first bucket (resolution floor).
    min: f64,
    count: u64,
    sum: f64,
    counts: Vec<u64>,
}

impl LogSketch {
    /// A sketch whose first bucket ends at `min` (values at or below
    /// `min` are indistinguishable). `min` must be positive.
    pub fn new(min: f64) -> Self {
        LogSketch {
            min: min.max(f64::MIN_POSITIVE),
            count: 0,
            sum: 0.0,
            counts: vec![0; SKETCH_BUCKETS],
        }
    }

    /// A sketch suitable for latencies in seconds (128 ns floor, top
    /// finite bucket ≈ 10 days).
    pub fn for_seconds() -> Self {
        LogSketch::new(128e-9)
    }

    fn bucket_of(&self, v: f64) -> usize {
        if v <= self.min {
            return 0;
        }
        let i = (v / self.min).log2().ceil() as usize;
        i.min(SKETCH_BUCKETS - 1)
    }

    /// Upper bound of finite bucket `i`.
    fn le(&self, i: usize) -> f64 {
        self.min * (1u64 << i) as f64
    }

    /// Absorbs one sample (negative values clamp to zero).
    pub fn push(&mut self, v: f64) {
        let v = v.max(0.0);
        self.count += 1;
        self.sum += v;
        let i = self.bucket_of(v);
        self.counts[i] += 1;
    }

    /// Number of samples absorbed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Approximate quantile (`0.0..=1.0`), interpolated within the
    /// crossing bucket. Overflow samples report the last finite bound.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate().take(SKETCH_BUCKETS - 1) {
            if c == 0 {
                continue;
            }
            let before = cum;
            cum += c;
            if cum >= target {
                let hi = self.le(i);
                let lo = if i == 0 { 0.0 } else { hi / 2.0 };
                let frac = (target - before) as f64 / c as f64;
                return lo + frac * (hi - lo);
            }
        }
        self.le(SKETCH_BUCKETS - 2)
    }

    /// Merges another sketch into this one. Both must share the same
    /// resolution floor (sketches built by the same constructor do).
    pub fn merge(&mut self, other: &LogSketch) {
        assert!(
            (self.min - other.min).abs() <= f64::EPSILON * self.min,
            "cannot merge sketches with different resolution floors"
        );
        self.count += other.count;
        self.sum += other.sum;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }
}

/// A fixed-capacity ring of per-day samples: pushing past capacity
/// evicts the oldest day. Iteration runs oldest → newest.
#[derive(Debug, Clone, PartialEq)]
pub struct DaySeries {
    cap: usize,
    head: usize,
    data: Vec<f64>,
}

impl DaySeries {
    /// A series keeping the most recent `cap` days (`cap ≥ 1`).
    pub fn new(cap: usize) -> Self {
        DaySeries {
            cap: cap.max(1),
            head: 0,
            data: Vec::new(),
        }
    }

    /// Appends one day's sample, evicting the oldest past capacity.
    pub fn push(&mut self, x: f64) {
        if self.data.len() < self.cap {
            self.data.push(x);
        } else {
            self.data[self.head] = x;
            self.head = (self.head + 1) % self.cap;
        }
    }

    /// Days currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// `true` when no day has been recorded.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Maximum days retained.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// The most recent sample.
    pub fn last(&self) -> Option<f64> {
        if self.data.is_empty() {
            None
        } else if self.data.len() < self.cap {
            self.data.last().copied()
        } else {
            Some(self.data[(self.head + self.cap - 1) % self.cap])
        }
    }

    /// Samples oldest → newest.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        let (a, b) = if self.data.len() < self.cap {
            (&self.data[..], &[][..])
        } else {
            (&self.data[self.head..], &self.data[..self.head])
        };
        a.iter().chain(b.iter()).copied()
    }

    /// Mean over the retained window (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive_moments() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        assert!((w.variance() - 4.0).abs() < 1e-12);
        assert!((w.std_dev() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_single_stream() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).sin() * 10.0).collect();
        let mut whole = Welford::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut left = Welford::new();
        let mut right = Welford::new();
        for &x in &xs[..37] {
            left.push(x);
        }
        for &x in &xs[37..] {
            right.push(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
        // Merging an empty accumulator is the identity.
        let before = left;
        left.merge(&Welford::new());
        assert_eq!(left, before);
    }

    #[test]
    fn ewma_tracks_level_shifts() {
        let mut e = Ewma::new(0.5);
        assert_eq!(e.value(), None);
        assert_eq!(e.push(10.0), 10.0);
        e.push(10.0);
        for _ in 0..20 {
            e.push(0.0);
        }
        // After 20 zero samples at α = 0.5, the average has decayed to
        // essentially zero.
        assert!(e.value().unwrap() < 1e-4);
    }

    #[test]
    fn log_sketch_quantiles_and_merge() {
        let mut s = LogSketch::for_seconds();
        for i in 1..=1000 {
            s.push(i as f64 / 1000.0); // uniform over (0, 1] s
        }
        assert_eq!(s.count(), 1000);
        assert!((s.mean() - 0.5005).abs() < 1e-9);
        // Within one octave of truth, by construction.
        let p50 = s.quantile(0.5);
        assert!((0.25..=0.75).contains(&p50), "p50 {p50}");
        let p99 = s.quantile(0.99);
        assert!((0.5..=1.1).contains(&p99), "p99 {p99}");

        // Merge = push-all equivalence.
        let mut a = LogSketch::for_seconds();
        let mut b = LogSketch::for_seconds();
        for i in 1..=500 {
            a.push(i as f64 / 1000.0);
        }
        for i in 501..=1000 {
            b.push(i as f64 / 1000.0);
        }
        a.merge(&b);
        assert_eq!(a.count(), s.count());
        assert_eq!(a.counts, s.counts);
        assert!((a.mean() - s.mean()).abs() < 1e-12);
        assert_eq!(a.quantile(0.5), s.quantile(0.5));
    }

    #[test]
    fn log_sketch_empty_merge_is_identity() {
        let mut s = LogSketch::for_seconds();
        for i in 1..=100 {
            s.push(i as f64 / 100.0);
        }
        let before = s.clone();
        s.merge(&LogSketch::for_seconds());
        assert_eq!(s, before);

        // And merging *into* an empty sketch reproduces the source.
        let mut empty = LogSketch::for_seconds();
        empty.merge(&before);
        assert_eq!(empty, before);
        assert_eq!(empty.quantile(0.5), before.quantile(0.5));
    }

    #[test]
    fn log_sketch_single_sample_quantiles_collapse() {
        let mut s = LogSketch::for_seconds();
        s.push(0.125);
        assert_eq!(s.count(), 1);
        // Every quantile of a one-sample sketch lands in the sample's
        // bucket, so they all agree with each other and bracket the
        // sample within one octave.
        let p01 = s.quantile(0.01);
        let p50 = s.quantile(0.5);
        let p99 = s.quantile(0.99);
        assert_eq!(p01, p50);
        assert_eq!(p50, p99);
        assert!((0.0625..=0.25).contains(&p50), "p50 {p50}");
    }

    #[test]
    fn day_series_wrap_exactly_at_capacity() {
        // Filling to exactly `cap` must not evict anything, and the
        // very next push evicts exactly the first sample.
        let mut d = DaySeries::new(4);
        for day in 1..=4 {
            d.push(day as f64);
        }
        assert_eq!(d.len(), 4);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(d.last(), Some(4.0));

        d.push(5.0);
        assert_eq!(d.len(), 4, "wrap keeps len pinned at capacity");
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![2.0, 3.0, 4.0, 5.0]);
        assert_eq!(d.last(), Some(5.0));

        // A full extra lap replaces every slot once.
        for day in 6..=9 {
            d.push(day as f64);
        }
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![6.0, 7.0, 8.0, 9.0]);
        assert_eq!(d.last(), Some(9.0));
    }

    #[test]
    fn day_series_ring_evicts_oldest() {
        let mut d = DaySeries::new(3);
        assert!(d.is_empty());
        assert_eq!(d.last(), None);
        for day in 1..=5 {
            d.push(day as f64);
        }
        assert_eq!(d.len(), 3);
        assert_eq!(d.capacity(), 3);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![3.0, 4.0, 5.0]);
        assert_eq!(d.last(), Some(5.0));
        assert!((d.mean() - 4.0).abs() < 1e-12);
    }
}
