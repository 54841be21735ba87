//! netmaster-lint: workspace-aware static analysis for the NetMaster
//! repo. Machine-checks the project's own correctness rules — the
//! conventions DESIGN.md promises but `rustc`/clippy cannot see:
//!
//! | rule               | enforces                                                  |
//! |--------------------|-----------------------------------------------------------|
//! | `hot-path-alloc`   | no allocation in (or reachable from) `lint:hot-path` fns  |
//! | `metric-names`     | one registry for metric/journal names, docs in sync       |
//! | `panic-hygiene`    | no unwrap/expect/panic in library code outside tests      |
//! | `determinism`      | no wall clocks / unseeded RNG outside obs + bench         |
//! | `lock-order`       | no cycles in the lock-acquisition graph (deadlocks)       |
//! | `lock-across-io`   | no guard held across blocking I/O / channel waits         |
//! | `atomic-ordering`  | Relaxed store/load pairs justify themselves or upgrade    |
//! | `thread-lifecycle` | every `thread::spawn` has a reachable join/shutdown path  |
//!
//! Built std-only on a hand-rolled lexer ([`lexer`]), lexical region
//! analysis ([`source`]), and a best-effort symbol/call-graph resolver
//! ([`callgraph`]) — no syn, no proc-macros, no deps. The four
//! concurrency rules and transitive hot-path propagation consume the
//! call graph; its resolution policy and known false-negative classes
//! are documented on the [`callgraph`] module.
//! Findings are waivable inline with
//! `// lint:allow(<rule>) <reason>`; a waiver without a reason is
//! itself an error, and waivers that stop matching anything are
//! flagged so suppressions never outlive their cause.

pub mod callgraph;
pub mod config;
pub mod lexer;
pub mod report;
pub mod rules;
pub mod source;
pub mod workspace;

pub use callgraph::CallGraph;
pub use config::{Level, LintConfig, RULE_IDS};
pub use report::{Finding, Report, WaivedFinding};
pub use workspace::{find_root, LoadError, Workspace};

use rules::WaiverLedger;
use std::path::Path;

/// Rule id for waiver/directive syntax problems. Always active and
/// never waivable — a broken suppression must not suppress itself.
pub const WAIVER_SYNTAX: &str = "waiver-syntax";

/// Lints the workspace rooted at `root` under `cfg`.
pub fn run_lint(root: &Path, cfg: &LintConfig) -> Result<Report, LoadError> {
    let ws = workspace::load(root)?;
    let graph = CallGraph::build(&ws);
    let mut report = Report::default();
    let mut ledger = WaiverLedger::default();
    report.files_scanned = ws.crates.iter().map(|c| c.files.len()).sum();

    // Waiver/directive syntax is checked unconditionally.
    for krate in &ws.crates {
        for file in &krate.files {
            for (line, msg) in &file.directive_errors {
                rules::emit_unwaivable(
                    &mut report,
                    WAIVER_SYNTAX,
                    &file.rel_path,
                    *line,
                    msg.clone(),
                );
            }
            for w in &file.waivers {
                if w.reason.is_empty() {
                    rules::emit_unwaivable(
                        &mut report,
                        WAIVER_SYNTAX,
                        &file.rel_path,
                        w.line,
                        format!(
                            "waiver for ({}) has no reason — a waiver must justify itself",
                            w.rules.join(", ")
                        ),
                    );
                }
                for r in &w.rules {
                    if r != "all" && !RULE_IDS.contains(&r.as_str()) {
                        rules::emit_unwaivable(
                            &mut report,
                            WAIVER_SYNTAX,
                            &file.rel_path,
                            w.line,
                            format!("waiver names unknown rule {r:?}"),
                        );
                    }
                }
            }
        }
    }

    type RuleFn = fn(&Workspace, &CallGraph, &LintConfig, &mut Report, &mut WaiverLedger);
    let catalogue: [(&'static str, RuleFn); 8] = [
        ("hot-path-alloc", rules::hot_path),
        ("metric-names", rules::metric_names),
        ("panic-hygiene", rules::panic_hygiene),
        ("determinism", rules::determinism),
        ("lock-order", rules::lock_order),
        ("lock-across-io", rules::lock_across_io),
        ("atomic-ordering", rules::atomic_ordering),
        ("thread-lifecycle", rules::thread_lifecycle),
    ];
    for (id, rule) in catalogue {
        if cfg.denies(id) {
            report.rule_counts.insert(id, 0);
            // lint:allow(determinism) per-rule wall time is diagnostic output for the CI artifact, never analysis input
            let t0 = std::time::Instant::now();
            rule(&ws, &graph, cfg, &mut report, &mut ledger);
            report.rule_timings_us.insert(id, t0.elapsed().as_micros());
        }
    }

    // Waivers that suppress nothing are drift: the violation they
    // justified is gone, so the suppression must go too. Only checked
    // when every rule the waiver names actually ran.
    for krate in &ws.crates {
        for file in &krate.files {
            for (idx, w) in file.waivers.iter().enumerate() {
                if w.reason.is_empty() {
                    continue; // already flagged above
                }
                let all_ran = w.rules.iter().all(|r| {
                    if r == "all" {
                        RULE_IDS.iter().all(|id| cfg.denies(id))
                    } else {
                        cfg.denies(r)
                    }
                });
                if all_ran && !ledger.was_used(&file.rel_path, idx) {
                    rules::emit_unwaivable(
                        &mut report,
                        WAIVER_SYNTAX,
                        &file.rel_path,
                        w.line,
                        format!(
                            "waiver for ({}) no longer matches any finding — remove it",
                            w.rules.join(", ")
                        ),
                    );
                }
            }
        }
    }

    report.finalize();
    Ok(report)
}
