//! End-to-end engine tests: each violation fixture under
//! `tests/fixtures/` is a miniature workspace that must trip exactly
//! its target rule; the clean fixture must pass every rule.

use netmaster_lint::{run_lint, Level, LintConfig, RULE_IDS};
use std::path::PathBuf;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// A config where only `rule` runs, so fixtures are judged in
/// isolation from one another's deliberate violations.
fn only(rule: &str) -> LintConfig {
    let mut cfg = LintConfig::default();
    for r in RULE_IDS {
        if r != rule {
            cfg.set_level(r, Level::Allow).unwrap();
        }
    }
    cfg
}

#[test]
fn clean_fixture_passes_every_rule() {
    let report = run_lint(&fixture("clean"), &LintConfig::default()).unwrap();
    assert!(
        report.clean(),
        "clean fixture must have no findings, got: {:?}",
        report.findings
    );
    assert!(report.waived.is_empty());
    assert_eq!(report.files_scanned, 2);
    // Every rule ran (deny-by-default).
    for r in RULE_IDS {
        assert_eq!(report.rule_counts.get(r), Some(&0), "rule {r} must run");
    }
}

#[test]
fn hot_path_fixture_trips_hot_path_alloc() {
    let report = run_lint(&fixture("hot_path"), &only("hot-path-alloc")).unwrap();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "hot-path-alloc");
    assert!(report.findings[0].message.contains("collect"));
    assert!(report.findings[0].message.contains("hot_collect"));
}

#[test]
fn hot_path_transitive_fixture_names_the_call_chain() {
    let report = run_lint(&fixture("hot_path_transitive"), &only("hot-path-alloc")).unwrap();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "hot-path-alloc");
    assert!(report.findings[0].message.contains("collect"));
    assert!(report.findings[0]
        .message
        .contains("hot_entry → stage_one → stage_two"));
}

#[test]
fn lock_order_fixture_names_the_cycle() {
    let report = run_lint(&fixture("lock_order"), &only("lock-order")).unwrap();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "lock-order");
    let msg = &report.findings[0].message;
    assert!(msg.contains("deadlock"), "{msg}");
    assert!(
        msg.contains("A → B → A") || msg.contains("B → A → B"),
        "{msg}"
    );
    assert!(msg.contains("read_a"), "the call edge must be named: {msg}");
}

#[test]
fn lock_across_io_fixture_names_guard_and_op() {
    let report = run_lint(&fixture("lock_across_io"), &only("lock-across-io")).unwrap();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "lock-across-io");
    let msg = &report.findings[0].message;
    assert!(msg.contains("write_all"), "{msg}");
    assert!(msg.contains("JOURNAL"), "{msg}");
}

#[test]
fn atomic_ordering_fixture_trips_relaxed_pair() {
    let report = run_lint(&fixture("atomic_ordering"), &only("atomic-ordering")).unwrap();
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report.findings.iter().all(|f| f.rule == "atomic-ordering"));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("store(Ordering::Relaxed)")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("load(Ordering::Relaxed)")));
}

#[test]
fn thread_lifecycle_fixture_trips_discard_and_joinless() {
    let report = run_lint(&fixture("thread_lifecycle"), &only("thread-lifecycle")).unwrap();
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report.findings.iter().all(|f| f.rule == "thread-lifecycle"));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("discarded")));
    assert!(report
        .findings
        .iter()
        .any(|f| f.message.contains("no `.join()` is reachable")));
}

#[test]
fn metric_names_fixture_trips_unregistered_literal() {
    let report = run_lint(&fixture("metric_names"), &only("metric-names")).unwrap();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "metric-names");
    assert!(report.findings[0].message.contains("rogue_total"));
}

#[test]
fn metric_plane_fixture_trips_every_plane_module() {
    let report = run_lint(&fixture("metric_plane"), &only("metric-names")).unwrap();
    assert_eq!(report.findings.len(), 5, "{:?}", report.findings);
    for (module, literal) in [
        ("serve", "bogus_requests_total"),
        ("store", "rogue_store_points_total"),
        ("alerts", "rogue_alerts_firing_seconds"),
        ("spantree", "rogue_spans_dropped_total"),
        ("profile", "rogue_profile_samples_seconds"),
    ] {
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.file.ends_with(&format!("obs/src/{module}.rs"))
                    && f.message.contains(literal)),
            "{module}.rs must be flagged for {literal}: {:?}",
            report.findings
        );
    }
}

#[test]
fn panic_hygiene_fixture_trips_unwrap() {
    let report = run_lint(&fixture("panic_hygiene"), &only("panic-hygiene")).unwrap();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "panic-hygiene");
    assert!(report.findings[0].message.contains("unwrap"));
}

#[test]
fn determinism_fixture_trips_wall_clock() {
    let report = run_lint(&fixture("determinism"), &only("determinism")).unwrap();
    assert_eq!(report.findings.len(), 1, "{:?}", report.findings);
    assert_eq!(report.findings[0].rule, "determinism");
    assert!(report.findings[0].message.contains("Instant"));
}

#[test]
fn allowing_a_rule_skips_it_entirely() {
    let mut cfg = only("determinism");
    cfg.set_level("determinism", Level::Allow).unwrap();
    let report = run_lint(&fixture("determinism"), &cfg).unwrap();
    assert!(report.clean(), "{:?}", report.findings);
    assert!(
        !report.rule_counts.contains_key("determinism"),
        "an allowed rule must not appear as having run"
    );
}

#[test]
fn waivers_suppress_count_and_demand_reasons() {
    let report = run_lint(&fixture("waivers"), &only("determinism")).unwrap();
    // The reasoned waiver suppresses its finding; the reasonless one is
    // both a waiver-syntax error and powerless against its finding.
    assert_eq!(report.waived.len(), 1, "{:?}", report.waived);
    assert!(report.waived[0]
        .reason
        .contains("fixture exercises a reasoned waiver"));
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(report
        .findings
        .iter()
        .any(|f| f.rule == "waiver-syntax" && f.message.contains("no reason")));
    assert!(report.findings.iter().any(|f| f.rule == "determinism"));
}

#[test]
fn json_report_is_well_formed() {
    let report = run_lint(&fixture("waivers"), &only("determinism")).unwrap();
    let json = report.render_json();
    // Std-only smoke check of the hand-rendered JSON: parseable shape
    // markers plus the counts the CI gate consumes.
    assert!(json.contains("\"clean\": false"));
    assert!(json.contains("\"waived\""));
    assert!(json.contains("\"findings\""));
    assert!(json.trim_start().starts_with('{') && json.trim_end().ends_with('}'));
}
