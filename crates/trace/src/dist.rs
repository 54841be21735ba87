//! Small, dependency-free samplers for the distributions the trace
//! generator needs (Poisson, log-normal, exponential, discrete weighted
//! choice).
//!
//! The offline dependency set does not include `rand_distr`, so these are
//! implemented from first principles; each sampler carries unit tests
//! pinning its moments on a seeded stream. Following `rand_distr`, a
//! distribution with fixed parameters is an object built once
//! ([`LogNormal`], [`Poisson`], [`WeightedIndex`]) that precomputes what
//! every draw would otherwise recompute.

use rand::Rng;

/// Draws a standard normal via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid ln(0).
    let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Normal with the given mean and standard deviation.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, sd: f64) -> f64 {
    mean + sd * standard_normal(rng)
}

/// Log-normal parameterized by the *target* median `m` and shape `sigma`
/// (the sd of the underlying normal). Mean is `m * exp(sigma^2 / 2)`.
///
/// Built once per parameter set, like `rand_distr`'s distributions:
/// `ln(m)` is taken at construction, not on every draw.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    ln_median: f64,
    sigma: f64,
}

impl LogNormal {
    /// Log-normal with median `median` (> 0) and shape `sigma`.
    pub fn new(median: f64, sigma: f64) -> Self {
        LogNormal {
            ln_median: median.ln(),
            sigma,
        }
    }

    /// Draws one value (two uniforms, via [`standard_normal`]).
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // `ln(m) > -inf` exactly when `m > 0`.
        debug_assert!(self.ln_median > f64::NEG_INFINITY, "median must be > 0");
        (self.ln_median + self.sigma * standard_normal(rng)).exp()
    }
}

/// Exponential with the given mean (`1/rate`).
pub fn exponential<R: Rng + ?Sized>(rng: &mut R, mean: f64) -> f64 {
    debug_assert!(mean > 0.0);
    let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
    -mean * u.ln()
}

/// Poisson distribution. Knuth's product method for small means, with
/// its `exp(-mean)` stopping limit taken at construction; for large
/// means a rounded normal approximation (fine for count generation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    mean: f64,
    limit: f64,
}

impl Poisson {
    /// Poisson with the given mean; a mean `<= 0` always draws 0.
    pub fn new(mean: f64) -> Self {
        let limit = if mean > 0.0 && mean < 30.0 {
            (-mean).exp()
        } else {
            0.0
        };
        Poisson { mean, limit }
    }

    /// Draws one count.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.mean <= 0.0 {
            return 0;
        }
        if self.mean < 30.0 {
            let mut k = 0u64;
            let mut p = 1.0f64;
            loop {
                p *= rng.random::<f64>();
                if p <= self.limit {
                    return k;
                }
                k += 1;
            }
        } else {
            normal(rng, self.mean, self.mean.sqrt()).round().max(0.0) as u64
        }
    }
}

/// Discrete choice of an index proportionally to fixed `weights` (need
/// not be normalized; non-positive weights are never chosen). The total
/// is summed once at construction, not on every draw.
#[derive(Debug, Clone, PartialEq)]
pub struct WeightedIndex {
    weights: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    /// Table over `weights`.
    pub fn new(weights: Vec<f64>) -> Self {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        WeightedIndex { weights, total }
    }

    /// Draws an index. Returns `None`, without consuming randomness,
    /// when all weights are zero or the table is empty.
    #[inline]
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<usize> {
        if self.total <= 0.0 {
            return None;
        }
        let mut x = rng.random::<f64>() * self.total;
        for (i, &w) in self.weights.iter().enumerate() {
            if w <= 0.0 {
                continue;
            }
            x -= w;
            if x <= 0.0 {
                return Some(i);
            }
        }
        // Floating-point slack: return last positive-weight index.
        self.weights.iter().rposition(|&w| w > 0.0)
    }
}

/// Bernoulli trial with probability `p` (clamped to `[0,1]`).
pub fn coin<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    rng.random::<f64>() < p.clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng() -> StdRng {
        StdRng::seed_from_u64(0x4e45_544d_4153_5452) // "NETMASTR"
    }

    fn sample_stats(mut f: impl FnMut(&mut StdRng) -> f64, n: usize) -> (f64, f64) {
        let mut r = rng();
        let xs: Vec<f64> = (0..n).map(|_| f(&mut r)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        (mean, var)
    }

    #[test]
    fn normal_moments() {
        let (mean, var) = sample_stats(|r| normal(r, 5.0, 2.0), 20_000);
        assert!((mean - 5.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn log_normal_median() {
        let mut r = rng();
        let d = LogNormal::new(100.0, 0.8);
        let mut xs: Vec<f64> = (0..20_001).map(|_| d.sample(&mut r)).collect();
        xs.sort_by(f64::total_cmp);
        let median = xs[xs.len() / 2];
        assert!((median / 100.0 - 1.0).abs() < 0.1, "median {median}");
        assert!(xs.iter().all(|&x| x > 0.0));
    }

    #[test]
    fn exponential_mean() {
        let (mean, _) = sample_stats(|r| exponential(r, 30.0), 20_000);
        assert!((mean / 30.0 - 1.0).abs() < 0.05, "mean {mean}");
    }

    #[test]
    fn poisson_small_mean() {
        let (mean, var) = sample_stats(|r| Poisson::new(3.5).sample(r) as f64, 20_000);
        assert!((mean - 3.5).abs() < 0.1, "mean {mean}");
        assert!((var - 3.5).abs() < 0.25, "var {var}");
    }

    #[test]
    fn poisson_large_mean_uses_normal_branch() {
        let (mean, var) = sample_stats(|r| Poisson::new(200.0).sample(r) as f64, 20_000);
        assert!((mean - 200.0).abs() < 1.0, "mean {mean}");
        assert!((var - 200.0).abs() < 15.0, "var {var}");
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut r = rng();
        assert_eq!(Poisson::new(0.0).sample(&mut r), 0);
        assert_eq!(Poisson::new(-1.0).sample(&mut r), 0);
    }

    #[test]
    fn weighted_index_distribution() {
        let mut r = rng();
        let w = WeightedIndex::new(vec![1.0, 0.0, 3.0]);
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[w.sample(&mut r).unwrap()] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn weighted_index_degenerate_cases() {
        let mut r = rng();
        assert_eq!(WeightedIndex::new(vec![]).sample(&mut r), None);
        assert_eq!(WeightedIndex::new(vec![0.0, 0.0]).sample(&mut r), None);
        assert_eq!(WeightedIndex::new(vec![0.0, 2.0]).sample(&mut r), Some(1));
    }

    #[test]
    fn coin_probability() {
        let mut r = rng();
        let heads = (0..20_000).filter(|_| coin(&mut r, 0.3)).count();
        let p = heads as f64 / 20_000.0;
        assert!((p - 0.3).abs() < 0.02, "p {p}");
        assert!(!coin(&mut r, 0.0));
        assert!(coin(&mut r, 1.0));
    }
}
