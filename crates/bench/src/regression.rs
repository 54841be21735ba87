//! The benchmark gate: `nmbench` runs checked against a committed
//! baseline, plus the `perf` solver floors.
//!
//! The baseline document (`crates/bench/nmbench-baseline.json`) lists,
//! for each run, the arguments passed to `nmbench` and the KPIs its last
//! output line must satisfy:
//!
//! ```json
//! {
//!   "runs": [
//!     {"args": ["--workload", "fleet-week", "--seed", "1", "--seconds", "1", "--trace", "0"],
//!      "kpis": {"saving_mean": {"value": 0.6224458972580053, "abs": 0.0, "rel": 0.0},
//!               "members_per_s": {"min": 460.0}}}
//!   ]
//! }
//! ```
//!
//! A KPI spec holds either `value` with its `abs` and `rel` tolerances,
//! passing when `|current - value| <= abs + rel * |value|` (so
//! `abs = rel = 0` is an exact check), or a `min` and/or `max` bound.
//! Unknown keys are rejected, so a misspelt tolerance cannot silently
//! turn a check off. Every run must also report `"correct": true` and
//! `"failed": 0`, and every KPI value must be a finite number.

use serde_json::Value;
use std::collections::BTreeMap;

/// How one KPI is checked.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kpi {
    /// Within `abs + rel * |value|` of `value`.
    Value {
        /// The baseline value.
        value: f64,
        /// Absolute tolerance.
        abs: f64,
        /// Tolerance relative to `|value|`.
        rel: f64,
    },
    /// Inside `[min, max]`; a missing side is unbounded.
    Bound {
        /// Lower bound, inclusive.
        min: Option<f64>,
        /// Upper bound, inclusive.
        max: Option<f64>,
    },
}

/// One `nmbench` invocation of the baseline and what it must report.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineRun {
    /// Arguments passed to `nmbench`.
    pub args: Vec<String>,
    /// KPI name (as `nmbench` prints it) to its check.
    pub kpis: BTreeMap<String, Kpi>,
}

impl BaselineRun {
    /// The run's arguments, space-joined, to name it in messages.
    pub fn label(&self) -> String {
        self.args.join(" ")
    }
}

/// A parsed baseline document.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// The runs to make and check.
    pub runs: Vec<BaselineRun>,
}

fn parse_kpi(name: &str, spec: &Value) -> Result<Kpi, String> {
    let fields = spec
        .as_object()
        .ok_or_else(|| format!("KPI {name}: spec must be an object"))?;
    let num = |key: &str| -> Result<Option<f64>, String> {
        match fields.get(key) {
            None => Ok(None),
            Some(v) => match v.as_f64() {
                Some(x) if x.is_finite() => Ok(Some(x)),
                _ => Err(format!("KPI {name}: {key} must be a finite number")),
            },
        }
    };
    let (value, abs, rel) = (num("value")?, num("abs")?, num("rel")?);
    let (min, max) = (num("min")?, num("max")?);
    if let Some(key) = fields
        .keys()
        .find(|k| !["value", "abs", "rel", "min", "max"].contains(&k.as_str()))
    {
        return Err(format!("KPI {name}: unknown key {key:?}"));
    }
    match (value, abs, rel, min, max) {
        (Some(value), Some(abs), Some(rel), None, None) if abs >= 0.0 && rel >= 0.0 => {
            Ok(Kpi::Value { value, abs, rel })
        }
        (None, None, None, min, max) if min.is_some() || max.is_some() => {
            Ok(Kpi::Bound { min, max })
        }
        _ => Err(format!(
            "KPI {name}: give value with non-negative abs and rel, or min and/or max"
        )),
    }
}

impl Baseline {
    /// Parses a baseline document.
    pub fn parse(json: &str) -> Result<Baseline, String> {
        let doc: Value = serde_json::from_str(json).map_err(|e| format!("not JSON: {e}"))?;
        let runs = doc
            .get("runs")
            .and_then(Value::as_array)
            .ok_or("runs must be an array")?
            .iter()
            .map(|run| {
                let args = run
                    .get("args")
                    .and_then(Value::as_array)
                    .and_then(|a| {
                        a.iter()
                            .map(|s| s.as_str().map(str::to_owned))
                            .collect::<Option<Vec<_>>>()
                    })
                    .ok_or("run args must be an array of strings")?;
                let label = args.join(" ");
                let kpis = run
                    .get("kpis")
                    .and_then(Value::as_object)
                    .ok_or_else(|| format!("run [{label}]: kpis must be an object"))?
                    .iter()
                    .map(|(name, spec)| {
                        parse_kpi(name, spec)
                            .map(|kpi| (name.clone(), kpi))
                            .map_err(|e| format!("run [{label}]: {e}"))
                    })
                    .collect::<Result<_, String>>()?;
                Ok(BaselineRun { args, kpis })
            })
            .collect::<Result<Vec<_>, String>>()?;
        if runs.is_empty() {
            return Err("runs is empty".to_owned());
        }
        Ok(Baseline { runs })
    }
}

/// Why `current` fails `kpi`, or `None` when it passes.
fn kpi_violation(kpi: Kpi, current: f64) -> Option<String> {
    if !current.is_finite() {
        return Some(format!("{current} is not a finite number"));
    }
    match kpi {
        Kpi::Value { value, abs, rel } => {
            let (diff, tol) = ((current - value).abs(), abs + rel * value.abs());
            (diff > tol).then(|| {
                format!("{current:?} differs from the baseline {value:?} by {diff:e} (tolerance {tol:e})")
            })
        }
        Kpi::Bound { min, max } => match (min, max) {
            (Some(min), _) if current < min => {
                Some(format!("{current:?} is below the bound {min:?}"))
            }
            (_, Some(max)) if current > max => {
                Some(format!("{current:?} is above the bound {max:?}"))
            }
            _ => None,
        },
    }
}

/// Checks one run's standard output against its baseline entry. Returns
/// one message per violation, each naming `source` (the baseline file),
/// the run, and the KPI; empty means the run passes.
pub fn check_run(source: &str, run: &BaselineRun, stdout: &str) -> Vec<String> {
    let at = format!("{source} [{}]", run.label());
    let Some(line) = stdout.lines().rev().find(|l| !l.trim().is_empty()) else {
        return vec![format!("{at}: nmbench printed nothing")];
    };
    let doc: Value = match serde_json::from_str(line) {
        Ok(doc) => doc,
        Err(e) => {
            return vec![format!(
                "{at}: last line is not a JSON object ({e}): {line:?}"
            )]
        }
    };
    let mut violations = Vec::new();
    if doc.get("correct").and_then(Value::as_bool) != Some(true) {
        violations.push(format!(
            "{at}: correct: want true, got {:?}",
            doc.get("correct")
        ));
    }
    if doc.get("failed").and_then(Value::as_u64) != Some(0) {
        violations.push(format!("{at}: failed: want 0, got {:?}", doc.get("failed")));
    }
    for (name, &kpi) in &run.kpis {
        let current = doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64);
        match current {
            None => violations.push(format!("{at}: {name}: missing from the output")),
            Some(x) => {
                violations.extend(kpi_violation(kpi, x).map(|why| format!("{at}: {name}: {why}")))
            }
        }
    }
    violations
}

/// One solver bench's measured speedup over its reference oracle.
#[derive(Debug, Clone)]
pub struct SolverSpeedup {
    /// The bench label, e.g. `"sin_knap bound n=100"`.
    pub label: String,
    /// `reference_ns / optimized_ns` from the current run.
    pub speedup: f64,
}

/// Per-solver floor check: every optimized solver must hold `floor`
/// speedup over its reference. Returns one message per sinking solver;
/// needs no baseline document because the reference oracles *are* the
/// baseline.
pub fn check_solver_floors(current: &[SolverSpeedup], floor: f64) -> Vec<String> {
    current
        .iter()
        .filter(|s| s.speedup.is_nan() || s.speedup < floor)
        .map(|s| {
            format!(
                "solver bench {:?} at {:.2}x is below the {floor:.2}x floor vs its reference",
                s.label, s.speedup
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const FILE: &str = "nmbench-baseline.json";
    const SAVING: f64 = 0.6224458972580053;

    fn baseline() -> Baseline {
        Baseline::parse(&format!(
            r#"{{
                "runs": [{{
                    "args": ["--workload", "fleet-week"],
                    "kpis": {{
                        "saving_mean": {{"value": {SAVING:?}, "abs": 0.0, "rel": 0.0}},
                        "knapsack.bnb_calls": {{"value": 0.0, "abs": 0, "rel": 0}},
                        "obs.runtime_share": {{"max": 0.15}},
                        "members_per_s": {{"min": 460.0}}
                    }}
                }}]
            }}"#
        ))
        .unwrap()
    }

    fn output(saving: &str, failed: u64) -> String {
        format!(
            "  saving_mean 0.62 ratio\n{{\"correct\": {}, \"attempted\": 2048, \"failed\": {failed}, \
             \"metrics\": {{\"saving_mean\": {{\"value\": {saving}, \"unit\": \"ratio\"}}, \
             \"knapsack.bnb_calls\": {{\"value\": 0.0, \"unit\": \"count\"}}, \
             \"obs.runtime_share\": {{\"value\": 0.07, \"unit\": \"ratio\"}}, \
             \"members_per_s\": {{\"value\": 1182.4, \"unit\": \"1/s\"}}}}}}\n",
            failed == 0
        )
    }

    /// Runs the check and asserts every violation names the file and
    /// mentions `needle` (the KPI, or what broke).
    fn violations(stdout: &str, needle: &str) -> Vec<String> {
        let run = &baseline().runs[0];
        let v = check_run(FILE, run, stdout);
        assert!(!v.is_empty(), "expected a violation about {needle}");
        assert!(
            v.iter()
                .all(|m| m.contains(FILE) && m.contains("fleet-week")),
            "{v:?}"
        );
        assert!(v.iter().any(|m| m.contains(needle)), "{v:?}");
        v
    }

    #[test]
    fn exact_match_passes() {
        let run = &baseline().runs[0];
        assert_eq!(
            check_run(FILE, run, &output(&format!("{SAVING:?}"), 0)),
            Vec::<String>::new()
        );
    }

    #[test]
    fn one_ulp_saving_change_fails() {
        for bits in [SAVING.to_bits() + 1, SAVING.to_bits() - 1] {
            let v = violations(
                &output(&format!("{:?}", f64::from_bits(bits)), 0),
                "saving_mean",
            );
            assert_eq!(v.len(), 1, "{v:?}");
        }
    }

    #[test]
    fn missing_kpi_fails() {
        let stdout = output(&format!("{SAVING:?}"), 0).replace("knapsack.bnb_calls", "other");
        let v = violations(&stdout, "knapsack.bnb_calls");
        assert!(v[0].contains("missing"), "{v:?}");
    }

    #[test]
    fn failed_ops_fail() {
        let v = violations(&output(&format!("{SAVING:?}"), 1), "failed");
        assert_eq!(v.len(), 2, "correct and failed both report: {v:?}");
    }

    #[test]
    fn truncated_or_non_json_last_line_fails() {
        let full = output(&format!("{SAVING:?}"), 0);
        let truncated = &full[..full.len() - 20];
        violations(truncated, "not a JSON object");
        violations(
            "nmbench: the obs feature must be compiled in\n",
            "not a JSON object",
        );
        violations("", "printed nothing");
    }

    #[test]
    fn nan_fails() {
        violations(&output("NaN", 0), "not a JSON object");
        for spec in [
            Kpi::Value {
                value: SAVING,
                abs: 1.0,
                rel: 1.0,
            },
            Kpi::Bound {
                min: Some(0.0),
                max: None,
            },
            Kpi::Bound {
                min: None,
                max: Some(1.0),
            },
        ] {
            assert!(kpi_violation(spec, f64::NAN).is_some(), "{spec:?}");
            assert!(kpi_violation(spec, f64::INFINITY).is_some(), "{spec:?}");
        }
        // A literal the parser reads as infinity is refused too.
        violations(&output("1e999", 0), "saving_mean");
    }

    #[test]
    fn bound_breach_fails() {
        let stdout = output(&format!("{SAVING:?}"), 0);
        violations(&stdout.replace("0.07", "0.16"), "obs.runtime_share");
        violations(&stdout.replace("1182.4", "459.9"), "members_per_s");
        // Faster is never a breach of a lower bound.
        let run = &baseline().runs[0];
        assert!(check_run(FILE, run, &stdout.replace("1182.4", "5000.0")).is_empty());
    }

    #[test]
    fn tolerances_widen_a_value_check() {
        let kpi = Kpi::Value {
            value: 100.0,
            abs: 1.0,
            rel: 0.01,
        };
        assert!(kpi_violation(kpi, 102.0).is_none());
        assert!(kpi_violation(kpi, 97.9).is_some());
    }

    #[test]
    fn malformed_baselines_are_refused() {
        let run = |kpis: &str| {
            Baseline::parse(&format!(
                r#"{{"runs": [{{"args": [], "kpis": {{"k": {kpis}}}}}]}}"#
            ))
        };
        assert!(run(r#"{"value": 1.0, "abs": 0.0, "rel": 0.0}"#).is_ok());
        assert!(run(r#"{"value": 1.0}"#).is_err(), "tolerances are required");
        assert!(run(r#"{"value": 1.0, "abs": 0.0, "rel": 0.0, "mx": 2}"#).is_err());
        assert!(run(r#"{"value": 1.0, "abs": -1.0, "rel": 0.0}"#).is_err());
        assert!(run(r#"{"value": 1.0, "abs": 0.0, "rel": 0.0, "max": 2.0}"#).is_err());
        assert!(run(r#"{"min": 1e999}"#).is_err());
        assert!(run("{}").is_err());
        assert!(Baseline::parse(r#"{"runs": []}"#).is_err());
        assert!(Baseline::parse("not json").is_err());
    }

    #[test]
    fn committed_baseline_gates_every_workload_exactly() {
        let doc = Baseline::parse(include_str!("../nmbench-baseline.json")).unwrap();
        let exact = |run: &BaselineRun, name: &str| {
            assert!(
                matches!(run.kpis.get(name), Some(Kpi::Value { abs, rel, .. }) if *abs == 0.0 && *rel == 0.0),
                "[{}] must gate {name} exactly",
                run.label()
            )
        };
        for workload in ["fleet-week", "fleet-binding", "watch-drift"] {
            for trace in ["0", "1"] {
                let run = doc
                    .runs
                    .iter()
                    .find(|r| {
                        r.args.windows(2).any(|w| w == ["--workload", workload])
                            && r.args.ends_with(&["--trace".to_owned(), trace.to_owned()])
                    })
                    .unwrap_or_else(|| panic!("no {workload} --trace {trace} run"));
                let names: &[&str] = if trace == "0" {
                    &["saving_mean", "saving_min"]
                } else {
                    &[
                        "knapsack.fastpath_calls",
                        "knapsack.bnb_calls",
                        "knapsack.dp_calls",
                        "knapsack.items_per_day",
                        "mining.remines",
                        "affected_max",
                        "drift_detected_share",
                        "obs.journal_entries_per_day",
                        "obs.ledger_records_per_day",
                    ]
                };
                for name in names {
                    exact(run, name);
                }
            }
        }
    }

    #[test]
    fn solver_floor_catches_a_sinking_solver() {
        let speedups = vec![
            SolverSpeedup {
                label: "sin_knap slack n=100".into(),
                speedup: 120.0,
            },
            SolverSpeedup {
                label: "sin_knap bound n=100".into(),
                speedup: 0.91,
            },
            SolverSpeedup {
                label: "overlapped 3x60".into(),
                speedup: 1.0,
            },
        ];
        let violations = check_solver_floors(&speedups, 1.0);
        assert_eq!(violations.len(), 1, "{violations:?}");
        assert!(
            violations[0].contains("sin_knap bound n=100"),
            "{violations:?}"
        );
        // The lenient smoke floor lets 0.91x pass.
        assert!(check_solver_floors(&speedups, 0.25).is_empty());
    }
}
