//! Findings, waiver accounting, and report rendering (text + JSON).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule id (`hot-path-alloc`, `metric-names`, …).
    pub rule: &'static str,
    /// Workspace-relative file (or `Cargo.toml` path) the finding is in.
    pub file: String,
    /// 1-based line (0 for whole-file/manifest findings).
    pub line: u32,
    /// Human message.
    pub message: String,
}

/// One *used* waiver: a finding that was suppressed by an inline
/// `lint:allow` with a reason. Counted so waiver drift stays visible.
#[derive(Debug, Clone)]
pub struct WaivedFinding {
    /// The suppressed finding.
    pub finding: Finding,
    /// The waiver's justification text.
    pub reason: String,
}

/// The result of one lint run.
#[derive(Default)]
pub struct Report {
    /// Active (non-waived) findings, sorted by file/line.
    pub findings: Vec<Finding>,
    /// Waived findings, with reasons.
    pub waived: Vec<WaivedFinding>,
    /// Rules that ran (id → active finding count).
    pub rule_counts: BTreeMap<&'static str, usize>,
    /// Rules that ran (id → wall time in microseconds) — the CI
    /// artifact's per-rule cost breakdown.
    pub rule_timings_us: BTreeMap<&'static str, u128>,
    /// Source files scanned.
    pub files_scanned: usize,
}

impl Report {
    /// `true` when no active findings remain.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Sorts findings and recomputes per-rule counts.
    pub fn finalize(&mut self) {
        self.findings
            .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
        self.waived.sort_by(|a, b| {
            (&a.finding.file, a.finding.line).cmp(&(&b.finding.file, b.finding.line))
        });
        for f in &self.findings {
            *self.rule_counts.entry(f.rule).or_insert(0) += 1;
        }
    }

    /// Human-readable report.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for f in &self.findings {
            let _ = writeln!(out, "{}:{}: [{}] {}", f.file, f.line, f.rule, f.message);
        }
        let _ = writeln!(
            out,
            "{} finding(s), {} waived, {} file(s) scanned",
            self.findings.len(),
            self.waived.len(),
            self.files_scanned
        );
        if !self.rule_timings_us.is_empty() {
            let total: u128 = self.rule_timings_us.values().sum();
            let per_rule: Vec<String> = self
                .rule_timings_us
                .iter()
                .map(|(r, us)| format!("{r}={us}us"))
                .collect();
            let _ = writeln!(out, "timings: total={total}us {}", per_rule.join(" "));
        }
        if !self.waived.is_empty() {
            for w in &self.waived {
                let _ = writeln!(
                    out,
                    "  waived {}:{}: [{}] {} — {}",
                    w.finding.file, w.finding.line, w.finding.rule, w.finding.message, w.reason
                );
            }
        }
        out
    }

    /// Machine-readable report (hand-rolled JSON; the linter carries no
    /// dependencies).
    pub fn render_json(&self) -> String {
        let mut out = String::from("{\n");
        let _ = writeln!(out, "  \"clean\": {},", self.clean());
        let _ = writeln!(out, "  \"files_scanned\": {},", self.files_scanned);
        let _ = writeln!(out, "  \"waiver_count\": {},", self.waived.len());
        out.push_str("  \"rule_counts\": {");
        let mut first = true;
        for (rule, n) in &self.rule_counts {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {}", json_str(rule), n);
        }
        out.push_str("\n  },\n  \"rule_timings_us\": {");
        let mut first = true;
        for (rule, us) in &self.rule_timings_us {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    {}: {}", json_str(rule), us);
        }
        out.push_str("\n  },\n  \"findings\": [");
        let mut first = true;
        for f in &self.findings {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"message\": {}}}",
                json_str(f.rule),
                json_str(&f.file),
                f.line,
                json_str(&f.message)
            );
        }
        out.push_str("\n  ],\n  \"waived\": [");
        let mut first = true;
        for w in &self.waived {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    {{\"rule\": {}, \"file\": {}, \"line\": {}, \"reason\": {}}}",
                json_str(w.finding.rule),
                json_str(&w.finding.file),
                w.finding.line,
                json_str(&w.reason)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// JSON string escaping.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_escapes_and_counts() {
        let mut r = Report {
            findings: vec![Finding {
                rule: "panic-hygiene",
                file: "a \"b\".rs".into(),
                line: 3,
                message: "tab\there".into(),
            }],
            ..Report::default()
        };
        r.finalize();
        let json = r.render_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("a \\\"b\\\".rs"));
        assert!(json.contains("tab\\there"));
        assert!(json.contains("\"panic-hygiene\": 1"));
        assert!(json.contains("\"waiver_count\": 0"));
    }
}
