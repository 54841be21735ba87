//! Small statistics and measurement helpers shared by the workloads.

use crate::{heap, Outcome};
use std::time::{Duration, Instant};

/// Linear-interpolated quantile of `xs` (`q` in `[0, 1]`); 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Runs `f`, returning its result and the elapsed wall time in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Busy and stolen CPU ticks of the whole machine, summed over its CPUs,
/// from the first line of `/proc/stat`; zeros where it is unavailable.
#[derive(Debug, Clone, Copy, Default)]
struct CpuTicks {
    busy: u64,
    steal: u64,
}

impl CpuTicks {
    fn read() -> CpuTicks {
        let Ok(stat) = std::fs::read_to_string("/proc/stat") else {
            return CpuTicks::default();
        };
        // cpu user nice system idle iowait irq softirq steal ...
        let f: Vec<u64> = stat
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .map(|v| v.parse().unwrap_or(0))
            .collect();
        let at = |i: usize| f.get(i).copied().unwrap_or(0);
        CpuTicks {
            busy: at(0) + at(1) + at(2) + at(5) + at(6),
            steal: at(7),
        }
    }

    /// Of the CPU time the machine's busy CPUs wanted since `self`, the
    /// share the hypervisor gave to other machines instead.
    fn stolen_since(self) -> f64 {
        let now = CpuTicks::read();
        let busy = now.busy.saturating_sub(self.busy);
        let steal = now.steal.saturating_sub(self.steal);
        if busy == 0 {
            0.0
        } else {
            steal as f64 / (busy + steal) as f64
        }
    }
}

/// Runs `f`, returning its result and the share of the busy CPU time
/// meanwhile that the hypervisor stole.
///
/// On a shared virtual machine the hypervisor hands the CPUs to other
/// machines for stretches of minutes: 21% of the busy time was stolen
/// during one measurement, and the wall-clock rates of the same seed fell
/// by a quarter with it. The program cannot change the stolen share, so
/// the rates and set-up times take it out of their wall time.
fn stolen_during<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let before = CpuTicks::read();
    let r = f();
    (r, before.stolen_since())
}

/// Runs `setup` `repeats` times (at least once) and returns the last
/// result with the median of the repetitions' seconds net of steal.
pub fn setup_median<R>(repeats: usize, mut setup: impl FnMut() -> R) -> (R, f64) {
    let mut secs = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let ((r, wall), stolen) = stolen_during(|| timed(&mut setup));
        secs.push(wall * (1.0 - stolen));
        last = Some(r);
    }
    (last.expect("at least one repetition"), median(&secs))
}

/// What the untraced runs of a workload measured.
pub struct Passes<T> {
    /// The reference pass's result, which every timed pass must
    /// reproduce.
    pub reference: T,
    /// Operations per second net of steal, one per timed pass.
    pub rates: Vec<f64>,
    /// Operations per wall second, one per timed pass.
    pub wall_rates: Vec<f64>,
    /// Median over timed passes of each pass's 50th and 90th percentile
    /// step latency, in ms.
    pub p50_ms: f64,
    pub p90_ms: f64,
    /// Median over the untimed passes of each one's peak live heap
    /// above its start, in MiB.
    pub peak_heap_mb: f64,
}

impl<T> Passes<T> {
    /// Median rate over timed passes.
    pub fn rate(&self) -> f64 {
        median(&self.rates)
    }

    pub fn describe(&self) -> String {
        format!(
            "{} timed passes (per-pass rate net of steal min {:.1}, median {:.1}, max {:.1}; \
             per wall second median {:.1})",
            self.rates.len(),
            quantile(&self.rates, 0.0),
            self.rate(),
            quantile(&self.rates, 1.0),
            median(&self.wall_rates)
        )
    }
}

/// Untimed passes with heap counting on, which slows them, before the
/// timed ones. Their peaks depend on how the workers' heaviest moments
/// line up, so the median of a few is reported.
const HEAP_PASSES: usize = 3;

/// Runs [`HEAP_PASSES`] passes of `ops` operations with heap counting
/// on, the first of them the reference, then repeats timed passes until
/// `budget` has elapsed (at least twice). `pass` runs one pass, checks
/// what must hold within it, and returns its result, its wall seconds
/// and its step latencies in ms. `check` compares every later pass's
/// result with the reference's.
pub fn repeat_passes<T>(
    out: &mut Outcome,
    budget: Duration,
    ops: u64,
    mut pass: impl FnMut(&mut Outcome) -> (T, f64, Vec<f64>),
    mut check: impl FnMut(&mut Outcome, &T, &T),
) -> Passes<T> {
    let ((reference, _, _), peak) = heap::peak_growth(|| pass(out));
    let mut peaks = vec![peak];
    while peaks.len() < HEAP_PASSES {
        let ((result, _, _), peak) = heap::peak_growth(|| pass(out));
        check(out, &reference, &result);
        peaks.push(peak);
    }
    out.attempted += HEAP_PASSES as u64 * ops;
    let start = Instant::now();
    let (mut rates, mut wall_rates) = (Vec::new(), Vec::new());
    let (mut p50, mut p90) = (Vec::new(), Vec::new());
    while rates.len() < 2 || start.elapsed() < budget {
        let ((result, wall, lat_ms), stolen) = stolen_during(|| pass(out));
        check(out, &reference, &result);
        p50.push(quantile(&lat_ms, 0.5));
        p90.push(quantile(&lat_ms, 0.9));
        out.attempted += ops;
        rates.push(ops as f64 / (wall * (1.0 - stolen)));
        wall_rates.push(ops as f64 / wall);
    }
    Passes {
        reference,
        rates,
        wall_rates,
        p50_ms: median(&p50),
        p90_ms: median(&p90),
        peak_heap_mb: median(&peaks),
    }
}

/// SplitMix64: derives independent member seeds from the run seed.
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed
        .wrapping_add(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(i.wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Relative closeness for energy conservation checks.
pub fn close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-9 * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn mix_is_deterministic_and_spreads() {
        assert_eq!(mix(1, 2), mix(1, 2));
        assert_ne!(mix(1, 2), mix(1, 3));
        assert_ne!(mix(1, 2), mix(2, 2));
    }
}
