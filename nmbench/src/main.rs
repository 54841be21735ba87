//! End-to-end and per-layer benchmark of the NetMaster pipeline.
//!
//! ```text
//! cargo run --release --offline --manifest-path nmbench/Cargo.toml -- \
//!     --workload fleet-week --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Workloads (see `nmbench/README.md` for why each was chosen):
//!
//! * `fleet-week` — the batch product path: `run_fleet_streaming_with`
//!   over a fixed roster, metrics-only policies, default WCDMA link.
//! * `fleet-binding` — the same roster with the planner's average link
//!   rates divided by [`fleet::BINDING_LINK_DIVISOR`], so slot capacities
//!   bind and the knapsack leaves its fast path.
//! * `watch-drift` — the per-device service path: `MiddlewareService::run_day`
//!   plus the watchtower, flight recorder on, a 12-hour habit shift
//!   halfway through for every other user.
//!
//! With `--trace 0` the run measures the untraced pipeline for
//! `--seconds` and reports the end-to-end metrics. With `--trace 1` it
//! reports the per-layer table instead: a serial traced replay of the
//! same inputs timed at public calls, plus paired A/B runs for the
//! observability shares. The last line of standard output is always one
//! JSON object `{"correct", "attempted", "failed", "metrics"}`; every
//! other line is a human-readable note.

mod fleet;
mod heap;
mod layers;
mod stats;
mod watch;

use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: heap::Counting = heap::Counting;

/// Parsed command line.
#[derive(Debug, Clone)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    FleetWeek,
    FleetBinding,
    WatchDrift,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "fleet-week" => Some(Workload::FleetWeek),
            "fleet-binding" => Some(Workload::FleetBinding),
            "watch-drift" => Some(Workload::WatchDrift),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::FleetWeek => "fleet-week",
            Workload::FleetBinding => "fleet-binding",
            Workload::WatchDrift => "watch-drift",
        }
    }
}

const USAGE: &str = "usage: nmbench --workload fleet-week|fleet-binding|watch-drift \
                     --seed N --seconds S --trace 0|1";

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds must be in (0, 3600], got {s}"));
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// One reported metric.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// What a workload run returns: operations attempted and failed (members
/// or user-days), and its metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records `n` failed operations with the reason on standard error.
    pub fn fail(&mut self, n: u64, why: impl std::fmt::Display) {
        eprintln!("nmbench: check failed ({n} ops): {why}");
        self.failed += n;
    }
}

fn render_json(out: &Outcome) -> String {
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nmbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if !netmaster_obs::ENABLED {
        eprintln!("nmbench: the obs feature must be compiled in (shipped default)");
        return ExitCode::from(2);
    }
    let mut out = match (args.workload, args.trace) {
        (Workload::WatchDrift, false) => watch::untraced(args.seed, args.seconds),
        (Workload::WatchDrift, true) => watch::traced(args.seed, args.seconds),
        (w, false) => fleet::untraced(w, args.seed, args.seconds),
        (w, true) => fleet::traced(w, args.seed, args.seconds),
    };
    if out.attempted == 0 {
        out.fail(1, "no operation completed");
        out.attempted = 1;
    }
    // JSON has no NaN or infinity: a non-finite value fails the run.
    for m in &mut out.metrics {
        if !m.value.is_finite() {
            eprintln!("nmbench: metric {} is not finite ({})", m.name, m.value);
            m.value = -1.0;
            out.failed += 1;
        }
    }
    for m in &out.metrics {
        println!("  {:<32} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!("{}", render_json(&out));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_owned))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload watch-drift --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::WatchDrift);
        assert_eq!(a.seed, 7);
        assert_eq!(a.seconds, Duration::from_secs(10));
        assert!(a.trace);
    }

    #[test]
    fn rejects_bad_command_lines() {
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload fleet-week --seed 1 --seconds 1").is_err());
        assert!(args("--workload fleet-week --seed x --seconds 1 --trace 0").is_err());
        assert!(args("--workload fleet-week --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload fleet-week --seed 1 --seconds 0 --trace 0").is_err());
    }

    #[test]
    fn json_line_has_the_result_keys() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        o.push("setup_s", 0.25, "s");
        assert_eq!(
            render_json(&o),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
    }
}
