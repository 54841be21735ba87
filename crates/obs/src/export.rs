//! Snapshot renderers: Prometheus text exposition and a human table.

use crate::registry::Snapshot;
use std::fmt::Write as _;

/// Prefix applied to every exported metric name.
const PREFIX: &str = "netmaster_";

/// Lowercases and maps anything outside `[a-z0-9_]` to `_` (metric
/// names are compile-time literals already in that alphabet; this
/// guards exports against future drift).
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| match c.to_ascii_lowercase() {
            c @ ('a'..='z' | '0'..='9' | '_') => c,
            _ => '_',
        })
        .collect()
}

/// The `# HELP` text for a metric: the registry's line when the name
/// is registered, a generic fallback otherwise (escaped either way —
/// exposition HELP lines must not contain raw `\n` or `\`).
fn help_line(raw_name: &str) -> String {
    let text = crate::names::help_for(raw_name).unwrap_or("netmaster metric");
    text.replace('\\', "\\\\").replace('\n', "\\n")
}

impl Snapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP` text joined from
    /// [`names::METRICS`](crate::names::METRICS), `# TYPE` lines, cumulative
    /// `_bucket{le=...}` series, `_sum` and `_count` per histogram.
    /// Serve it with `Content-Type: text/plain; version=0.0.4`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for c in &self.counters {
            let name = format!("{PREFIX}{}", sanitize(&c.name));
            let _ = writeln!(out, "# HELP {name} {}", help_line(&c.name));
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {}", c.value);
        }
        for g in &self.gauges {
            let name = format!("{PREFIX}{}", sanitize(&g.name));
            let _ = writeln!(out, "# HELP {name} {}", help_line(&g.name));
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {}", g.value);
        }
        for h in &self.histograms {
            let name = format!("{PREFIX}{}", sanitize(&h.name));
            let _ = writeln!(out, "# HELP {name} {}", help_line(&h.name));
            let _ = writeln!(out, "# TYPE {name} histogram");
            let mut cum = 0u64;
            for b in &h.buckets {
                cum += b.count;
                let _ = writeln!(out, "{name}_bucket{{le=\"{}\"}} {cum}", b.le_secs);
            }
            let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(out, "{name}_sum {}", h.sum_secs);
            let _ = writeln!(out, "{name}_count {}", h.count);
        }
        out
    }

    /// Renders a fixed-width summary table for terminals.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "{:<36} {:>14}", "counter", "value");
            for c in &self.counters {
                let _ = writeln!(out, "{:<36} {:>14}", c.name, c.value);
            }
        }
        if !self.gauges.is_empty() {
            let _ = writeln!(out, "\n{:<36} {:>14}", "gauge", "value");
            for g in &self.gauges {
                let _ = writeln!(out, "{:<36} {:>14.0}", g.name, g.value);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "\n{:<36} {:>10} {:>12} {:>12} {:>12}",
                "histogram", "count", "mean", "p50", "p99"
            );
            for h in &self.histograms {
                let _ = writeln!(
                    out,
                    "{:<36} {:>10} {:>12} {:>12} {:>12}",
                    h.name,
                    h.count,
                    fmt_secs(h.mean_secs()),
                    fmt_secs(h.quantile_secs(0.5)),
                    fmt_secs(h.quantile_secs(0.99)),
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

/// A minimal structural validator for the Prometheus text exposition
/// format (version 0.0.4): every non-comment line must be
/// `name{labels}? value` with a metric name in `[a-z_][a-z0-9_]*`,
/// histogram `_bucket` series must be cumulative (monotone
/// non-decreasing within one histogram), and each histogram must close
/// with a `+Inf` bucket whose count equals its `_count` sample.
/// Returns the first violation found.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    let mut bucket_cum: Option<(String, u64)> = None;
    let mut inf_count: Option<(String, u64)> = None;
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        if line.starts_with('#') {
            if !line.starts_with("# TYPE ") && !line.starts_with("# HELP ") {
                return Err(format!("bad comment line: {line}"));
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("expected `name value`: {line}"))?;
        if series.is_empty() || value.is_empty() {
            return Err(format!("empty series or value: {line}"));
        }
        let name = series.split('{').next().unwrap_or_default();
        let valid_name = !name.is_empty()
            && !name.starts_with(|c: char| c.is_ascii_digit())
            && name
                .chars()
                .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_');
        if !valid_name {
            return Err(format!("bad metric name {name:?} in line: {line}"));
        }
        if let Some(base) = name.strip_suffix("_bucket") {
            let v: u64 = value
                .parse()
                .map_err(|_| format!("bucket count not a u64: {line}"))?;
            if let Some((prev_base, prev)) = &bucket_cum {
                if prev_base == base && v < *prev {
                    return Err(format!("buckets must be cumulative: {line}"));
                }
            }
            bucket_cum = Some((base.to_owned(), v));
            if series.contains("le=\"+Inf\"") {
                inf_count = Some((base.to_owned(), v));
            }
        } else {
            bucket_cum = None;
            value
                .parse::<f64>()
                .map_err(|_| format!("sample value not a number: {line}"))?;
            if let Some(base) = name.strip_suffix("_count") {
                if let Some((inf_base, inf)) = &inf_count {
                    if inf_base == base && value != inf.to_string() {
                        return Err(format!(
                            "histogram {base}: +Inf bucket {inf} != _count {value}"
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

/// Human-scaled seconds: `1.2µs`, `3.4ms`, `5.6s`, `2.1h`.
fn fmt_secs(s: f64) -> String {
    if s <= 0.0 {
        "0".into()
    } else if s < 1e-6 {
        format!("{:.0}ns", s * 1e9)
    } else if s < 1e-3 {
        format!("{:.1}µs", s * 1e6)
    } else if s < 1.0 {
        format!("{:.1}ms", s * 1e3)
    } else if s < 3600.0 {
        format!("{:.1}s", s)
    } else {
        format!("{:.1}h", s / 3600.0)
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{BucketSnap, CounterSnap, GaugeSnap, HistSnap, Snapshot};

    fn sample() -> Snapshot {
        // Real names from the registry, so these tests track renames.
        use crate::names;
        Snapshot {
            counters: vec![CounterSnap {
                name: names::SCHED_DEFERRED_TOTAL.into(),
                value: 42,
            }],
            gauges: vec![GaugeSnap {
                name: names::KNAPSACK_DP_CELLS_HIGHWATER.into(),
                value: 1234.0,
            }],
            histograms: vec![HistSnap {
                name: names::STAGE_PLAN_DAY_SECONDS.into(),
                count: 10,
                sum_secs: 0.011,
                buckets: vec![
                    BucketSnap {
                        le_secs: 0.001048576,
                        count: 9,
                    },
                    BucketSnap {
                        le_secs: 0.002097152,
                        count: 1,
                    },
                ],
            }],
        }
    }

    use crate::validate_prometheus;

    #[test]
    fn prometheus_exposition_is_well_formed() {
        let text = sample().to_prometheus();
        validate_prometheus(&text).unwrap();
        assert!(text.contains(
            "# HELP netmaster_sched_deferred_total \
             Activities the planner deferred out of their requested slot"
        ));
        assert!(text.contains("# HELP netmaster_knapsack_dp_cells_highwater "));
        assert!(text.contains("# HELP netmaster_stage_plan_day_seconds "));
        assert!(text.contains("# TYPE netmaster_sched_deferred_total counter"));
        assert!(text.contains("netmaster_sched_deferred_total 42"));
        assert!(text.contains("# TYPE netmaster_stage_plan_day_seconds histogram"));
        assert!(text.contains("netmaster_stage_plan_day_seconds_bucket{le=\"+Inf\"} 10"));
        assert!(text.contains("netmaster_stage_plan_day_seconds_count 10"));
        // Cumulative: second bucket includes the first's 9.
        assert!(text.contains("le=\"0.002097152\"} 10"));
    }

    #[test]
    fn exposition_escapes_hostile_metric_names() {
        let snap = Snapshot {
            counters: vec![CounterSnap {
                name: "Weird.Name-with spaces/and#symbols".into(),
                value: 1,
            }],
            gauges: vec![],
            histograms: vec![],
        };
        let text = snap.to_prometheus();
        validate_prometheus(&text).unwrap();
        assert!(text.contains("netmaster_weird_name_with_spaces_and_symbols 1"));
        // Unregistered names fall back to generic HELP text.
        assert!(
            text.contains("# HELP netmaster_weird_name_with_spaces_and_symbols netmaster metric")
        );
    }

    #[test]
    fn validator_rejects_malformed_expositions() {
        // Non-cumulative buckets.
        let bad = "netmaster_x_seconds_bucket{le=\"0.001\"} 5\n\
                   netmaster_x_seconds_bucket{le=\"0.002\"} 3\n";
        assert!(validate_prometheus(bad).unwrap_err().contains("cumulative"));
        // +Inf bucket disagrees with _count.
        let bad = "netmaster_x_seconds_bucket{le=\"+Inf\"} 5\n\
                   netmaster_x_seconds_sum 1.0\n\
                   netmaster_x_seconds_count 7\n";
        assert!(validate_prometheus(bad).unwrap_err().contains("+Inf"));
        // Invalid metric name.
        assert!(validate_prometheus("BadName 1\n").is_err());
        assert!(validate_prometheus("1leading_digit 1\n").is_err());
        // Missing value.
        assert!(validate_prometheus("netmaster_lonely\n").is_err());
        // Non-numeric sample.
        assert!(validate_prometheus("netmaster_x abc\n").is_err());
        // Stray comment style.
        assert!(validate_prometheus("# COMMENT nope\n").is_err());
        // A well-formed multi-histogram document passes.
        let good = "# TYPE netmaster_a_seconds histogram\n\
                    netmaster_a_seconds_bucket{le=\"0.001\"} 2\n\
                    netmaster_a_seconds_bucket{le=\"+Inf\"} 4\n\
                    netmaster_a_seconds_sum 0.5\n\
                    netmaster_a_seconds_count 4\n\
                    # TYPE netmaster_b_seconds histogram\n\
                    netmaster_b_seconds_bucket{le=\"0.001\"} 1\n\
                    netmaster_b_seconds_bucket{le=\"+Inf\"} 1\n\
                    netmaster_b_seconds_sum 0.1\n\
                    netmaster_b_seconds_count 1\n";
        validate_prometheus(good).unwrap();
    }

    #[test]
    fn table_renders_all_sections() {
        let table = sample().render_table();
        assert!(table.contains("sched_deferred_total"));
        assert!(table.contains("42"));
        assert!(table.contains("knapsack_dp_cells_highwater"));
        assert!(table.contains("stage_plan_day_seconds"));
        assert!(table.contains("p99"));
        let empty = Snapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![],
        }
        .render_table();
        assert!(empty.contains("no metrics"));
    }

    #[test]
    fn snapshot_json_round_trips() {
        let snap = sample();
        let json = serde_json::to_string_pretty(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn remote_scrape_round_trip_keeps_interpolated_quantiles() {
        // The `obs --url` path: snapshot → JSON over the wire →
        // deserialize → render_table. The quantile columns must come
        // out in-bucket interpolated, not raw bucket upper bounds.
        let snap = Snapshot {
            counters: vec![],
            gauges: vec![],
            histograms: vec![HistSnap {
                name: "t_remote_seconds".into(),
                count: 100,
                sum_secs: 0.16,
                buckets: vec![BucketSnap {
                    le_secs: 0.002048,
                    count: 100,
                }],
            }],
        };
        let wire = serde_json::to_string(&snap).unwrap();
        let back: Snapshot = serde_json::from_str(&wire).unwrap();
        let table = back.render_table();
        // p50 ranks halfway through the [le/2, le] bucket mass:
        // 0.75 · 2.048ms ≈ 1.5ms — NOT the 2.048ms upper bound.
        assert!(table.contains("1.5ms"), "{table}");
    }
}
