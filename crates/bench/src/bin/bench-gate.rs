//! The benchmark gate: runs every `nmbench` invocation a baseline
//! document lists and checks each run's last output line against it
//! (see [`netmaster_bench::regression`] for the document and the
//! checks).
//!
//! ```text
//! cargo run --release -p netmaster-bench --bin bench-gate -- crates/bench/nmbench-baseline.json
//! ```
//!
//! Run it from the repository root: [`NMBENCH`] names
//! `nmbench/Cargo.toml` by a relative path. Exits nonzero when any run
//! cannot start, exits nonzero itself, or breaks a KPI check. It prints
//! every run's output line, whose values are what a deliberate change
//! copies into the baseline.

use netmaster_bench::regression::{check_run, Baseline};
use std::process::{Command, ExitCode, Stdio};

/// Program and leading arguments that run `nmbench`; each baseline
/// run's arguments are appended.
const NMBENCH: [&str; 8] = [
    "cargo",
    "run",
    "--release",
    "--offline",
    "--quiet",
    "--manifest-path",
    "nmbench/Cargo.toml",
    "--",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [path] = args.as_slice() else {
        eprintln!("usage: bench-gate BASELINE.json");
        return ExitCode::FAILURE;
    };
    let baseline = match std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|json| Baseline::parse(&json))
    {
        Ok(b) => b,
        Err(e) => {
            eprintln!("bench-gate: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed_runs = 0;
    for run in &baseline.runs {
        let label = run.label();
        println!("bench-gate: nmbench {label}");
        let output = Command::new(NMBENCH[0])
            .args(&NMBENCH[1..])
            .args(&run.args)
            .stderr(Stdio::inherit())
            .output();
        let violations = match output {
            Ok(o) if o.status.success() => {
                let stdout = String::from_utf8_lossy(&o.stdout);
                println!("  output: {}", stdout.lines().last().unwrap_or(""));
                check_run(path, run, &stdout)
            }
            Ok(o) => vec![format!(
                "{path} [{label}]: nmbench exited with {}",
                o.status
            )],
            Err(e) => vec![format!("{path} [{label}]: cannot run {NMBENCH:?}: {e}")],
        };
        if violations.is_empty() {
            println!("  pass: {} KPIs", run.kpis.len());
        } else {
            failed_runs += 1;
            for v in &violations {
                eprintln!("  FAIL {v}");
            }
        }
    }
    if failed_runs > 0 {
        eprintln!(
            "bench-gate: {failed_runs} of {} runs broke {path}",
            baseline.runs.len()
        );
        return ExitCode::FAILURE;
    }
    println!("bench-gate: all {} runs pass {path}", baseline.runs.len());
    ExitCode::SUCCESS
}
