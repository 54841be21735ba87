//! The one histogram of `netmaster-obs`: the bucket grid, the quantile
//! rule, and [`Histogram`], the value that the registry's
//! [`snapshot`](crate::snapshot) and the watchtower both hold.
//!
//! Buckets double from a 128 ns floor: finite bucket `i` holds values
//! in `(2^(6+i) ns, 2^(7+i) ns]`, bucket 0 holds `[0, 128 ns]`, and
//! anything past `2^47 ns` (≈39 h) lands in the overflow bucket. So
//! relative error is bounded by one octave, and two histograms merge by
//! summing counts.

use crate::{BucketSnap, HistSnap};

/// Total histogram buckets; the last one is the overflow bucket,
/// surfaced only through `+Inf` in the Prometheus exposition.
pub const HIST_BUCKETS: usize = 42;
/// Finite buckets: upper bounds `2^7 ns … 2^47 ns` (128 ns … ≈39 h),
/// doubling per bucket — wide enough for wall-clock stage timings *and*
/// simulated-time latencies (deferrals span hours).
pub const FINITE_BUCKETS: usize = HIST_BUCKETS - 1;
const MIN_EXP: u32 = 7;

/// Upper bound of finite bucket `i`, in seconds.
pub(crate) fn bucket_le_secs(i: usize) -> f64 {
    (1u64 << (MIN_EXP + i as u32)) as f64 / 1e9
}

/// First bucket whose upper bound is ≥ `ns` (overflow bucket past 2^47).
#[inline]
pub(crate) fn bucket_of(ns: u64) -> usize {
    if ns <= (1 << MIN_EXP) {
        return 0;
    }
    let ceil_log = 64 - (ns - 1).leading_zeros();
    ((ceil_log - MIN_EXP) as usize).min(HIST_BUCKETS - 1)
}

/// `secs` in whole nanoseconds, clamped to `0..=u64::MAX`.
#[inline]
pub(crate) fn secs_to_ns(secs: f64) -> u64 {
    if secs <= 0.0 {
        0
    } else {
        (secs * 1e9).min(u64::MAX as f64) as u64
    }
}

/// The one quantile rule (see [`Histogram::quantile_secs`]) over
/// `count` observations summing to `sum_secs`, given their non-empty
/// finite buckets as ascending `(upper bound, count)` pairs.
pub(crate) fn quantile(
    count: u64,
    sum_secs: f64,
    buckets: impl IntoIterator<Item = (f64, u64)>,
    q: f64,
) -> f64 {
    if count == 0 {
        return 0.0;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    let mut last = 0.0;
    let mut finite_mass = 0.0;
    for (le, n) in buckets {
        let before = cum;
        cum = cum.saturating_add(n);
        let lo = if le <= bucket_le_secs(0) {
            0.0
        } else {
            le / 2.0
        };
        if cum >= target {
            let frac = (target - before) as f64 / n as f64;
            return lo + frac * (le - lo);
        }
        finite_mass += n as f64 * (lo + le) / 2.0;
        last = le;
    }
    let overflow = count.saturating_sub(cum);
    if overflow == 0 {
        return last;
    }
    ((sum_secs - finite_mass) / overflow as f64).max(last)
}

/// A histogram on the grid: total count (overflow included), sum of
/// observed seconds, and the non-empty finite buckets.
///
/// Recording into a `Histogram` is plain arithmetic, whatever
/// [`runtime_enabled`](crate::runtime_enabled) says: only the
/// registry's handles are gated. Merging and differencing saturate;
/// neither panics.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Histogram {
    count: u64,
    sum_secs: f64,
    /// `(bucket index, count)` per non-empty finite bucket, ascending.
    buckets: Vec<(u8, u64)>,
}

impl Histogram {
    /// A histogram of `count` observations summing to `sum_secs`, with
    /// `n` observations in each `(bucket index, n)`. Indices may come in
    /// any order and repeat; overflow indices and empty buckets add no
    /// bucket (their observations live only in `count`).
    pub(crate) fn from_parts(
        count: u64,
        sum_secs: f64,
        buckets: impl IntoIterator<Item = (usize, u64)>,
    ) -> Histogram {
        let mut h = Histogram {
            count,
            sum_secs,
            buckets: Vec::new(),
        };
        for (i, n) in buckets {
            h.add(i, n);
        }
        h
    }

    fn add(&mut self, i: usize, n: u64) {
        if i >= FINITE_BUCKETS || n == 0 {
            return;
        }
        let i = i as u8;
        match self.buckets.binary_search_by_key(&i, |&(j, _)| j) {
            Ok(k) => self.buckets[k].1 = self.buckets[k].1.saturating_add(n),
            Err(k) => self.buckets.insert(k, (i, n)),
        }
    }

    /// Records one value in seconds (negative values count as zero).
    pub fn observe_secs(&mut self, secs: f64) {
        let secs = secs.max(0.0);
        self.count = self.count.saturating_add(1);
        self.sum_secs += secs;
        self.add(bucket_of(secs_to_ns(secs)), 1);
    }

    /// Total observations, overflow included.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Non-empty finite buckets as ascending `(upper bound in seconds,
    /// observations in that bucket alone)`.
    pub fn buckets(&self) -> impl ExactSizeIterator<Item = (f64, u64)> + '_ {
        self.buckets
            .iter()
            .map(|&(i, n)| (bucket_le_secs(i as usize), n))
    }

    /// Approximate quantile (`0.0..=1.0`), interpolated linearly inside
    /// the bucket where the cumulative count crosses `q · count`. The
    /// bucket's lower bound is half its upper bound (bounds double),
    /// except the first finite bucket which starts at zero — so a rank
    /// landing `f` of the way through a bucket's mass reports
    /// `lo + f · (le − lo)` rather than snapping to `le`. A rank landing
    /// past the last finite bucket (overflow observations) reports the
    /// overflow mass's estimated mean — `sum` minus the finite buckets'
    /// midpoint mass, over the overflow count — never a raw bucket
    /// bound, so a single huge outlier surfaces at its real magnitude
    /// instead of the histogram ceiling.
    pub fn quantile_secs(&self, q: f64) -> f64 {
        quantile(self.count, self.sum_secs, self.buckets(), q)
    }

    /// Adds `other`'s observations to this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        self.count = self.count.saturating_add(other.count);
        self.sum_secs += other.sum_secs;
        for &(i, n) in &other.buckets {
            self.add(i as usize, n);
        }
    }

    /// This histogram exported under `name`.
    pub(crate) fn snap(&self, name: &str) -> HistSnap {
        HistSnap {
            name: name.to_owned(),
            count: self.count,
            sum_secs: self.sum_secs,
            buckets: self
                .buckets()
                .map(|(le_secs, count)| BucketSnap { le_secs, count })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_monotone_and_cover() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(128), 0);
        assert_eq!(bucket_of(129), 1);
        assert_eq!(bucket_of(256), 1);
        assert_eq!(bucket_of(257), 2);
        // Overflow clamps to the last bucket.
        assert_eq!(bucket_of(u64::MAX), HIST_BUCKETS - 1);
        // Bounds double.
        assert!((bucket_le_secs(1) / bucket_le_secs(0) - 2.0).abs() < 1e-12);
        // Last finite bound covers multi-hour simulated latencies.
        assert!(bucket_le_secs(FINITE_BUCKETS - 1) > 24.0 * 3600.0);
    }

    #[test]
    fn every_bound_maps_back_to_its_bucket() {
        for i in 0..FINITE_BUCKETS {
            let le = bucket_le_secs(i);
            assert_eq!(bucket_of(secs_to_ns(le)), i, "bound {le}");
        }
    }

    #[test]
    fn records_regardless_of_the_runtime_switch() {
        let _g = crate::test_serial();
        crate::set_runtime_enabled(false);
        let mut h = Histogram::default();
        h.observe_secs(1.0);
        crate::set_runtime_enabled(true);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn merge_equals_recording_into_one() {
        let mut whole = Histogram::default();
        let (mut a, mut b) = (Histogram::default(), Histogram::default());
        for i in 1..=1000 {
            let v = i as f64 / 1000.0;
            whole.observe_secs(v);
            if i <= 500 { &mut a } else { &mut b }.observe_secs(v);
        }
        let p50 = whole.quantile_secs(0.5);
        assert!((0.25..=0.75).contains(&p50), "within one octave: {p50}");
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert_eq!(
            a.buckets().collect::<Vec<_>>(),
            whole.buckets().collect::<Vec<_>>()
        );
        assert_eq!(a.quantile_secs(0.5), p50);
        // Merging an empty histogram is the identity, both ways.
        let before = a.clone();
        a.merge(&Histogram::default());
        assert_eq!(a, before);
        let mut empty = Histogram::default();
        empty.merge(&before);
        assert_eq!(empty.quantile_secs(0.9), before.quantile_secs(0.9));
        // Saturating, never panicking, at the counter's limit.
        let mut full = Histogram::from_parts(u64::MAX, 0.0, [(3, u64::MAX)]);
        full.merge(&full.clone());
        assert_eq!(full.count(), u64::MAX);
        assert_eq!(
            full.buckets().collect::<Vec<_>>(),
            [(bucket_le_secs(3), u64::MAX)]
        );
    }

    #[test]
    fn single_observation_quantiles_collapse() {
        let mut h = Histogram::default();
        h.observe_secs(0.125);
        let qs: Vec<f64> = [0.01, 0.5, 0.99].map(|q| h.quantile_secs(q)).to_vec();
        assert!(qs.iter().all(|&q| q == qs[0]), "{qs:?}");
        assert!((0.0625..=0.25).contains(&qs[0]), "{qs:?}");
    }
}
