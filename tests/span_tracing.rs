//! Golden span-tree test: one fixed-seed day through the
//! [`MiddlewareService`] must produce an exact hierarchical trace —
//! stage names, nesting, and attributes are part of the product's
//! contract (the `explain` jump and the flamegraph export both key on
//! them), so a drive-by span rename or a lost parent/child edge fails
//! here, not in a dashboard.
//!
//! Deliberately NOT gated on the `obs` feature: under
//! `--no-default-features` the same workload runs and the store must
//! stay empty.

use netmaster_core::MiddlewareService;
use netmaster_obs::{SpanNode, TraceStore};
use netmaster_trace::gen::TraceGenerator;
use netmaster_trace::profile::UserProfile;

const TRAIN_DAYS: usize = 14;
const SEED: u64 = 2014;

/// Preorder flatten to `depth:name` strings — the golden shape.
fn flatten(node: &SpanNode, depth: usize, out: &mut Vec<String>) {
    out.push(format!("{depth}:{}", node.name));
    for child in &node.children {
        flatten(child, depth + 1, out);
    }
}

/// Preorder span ids — creation order must match entry order.
fn ids(node: &SpanNode, out: &mut Vec<u64>) {
    out.push(node.id);
    for child in &node.children {
        ids(child, out);
    }
}

/// Timing sanity for every node: self time within total, children
/// within the parent.
fn check_clocks(node: &SpanNode) {
    assert!(
        node.self_secs >= 0.0 && node.self_secs <= node.total_secs + 1e-9,
        "{}: self {} vs total {}",
        node.name,
        node.self_secs,
        node.total_secs
    );
    let child_sum: f64 = node.children.iter().map(|c| c.total_secs).sum();
    assert!(
        child_sum <= node.total_secs + 1e-6,
        "{}: children sum {} exceeds total {}",
        node.name,
        child_sum,
        node.total_secs
    );
    for child in &node.children {
        check_clocks(child);
    }
}

#[test]
fn one_trained_day_produces_the_golden_span_tree() {
    netmaster_obs::reset();
    netmaster_obs::set_runtime_enabled(true);
    netmaster_obs::set_trace_capture(true);
    TraceStore::global().clear();

    let profile = UserProfile::panel().remove((SEED % 8) as usize);
    let trace = TraceGenerator::new(profile)
        .with_seed(SEED)
        .generate(TRAIN_DAYS + 2);
    let mut svc = MiddlewareService::new().import_history(&trace.days[..TRAIN_DAYS]);
    let report = svc.run_day(&trace.days[TRAIN_DAYS]);
    assert_eq!(report.day, TRAIN_DAYS);

    if !netmaster_obs::ENABLED {
        assert!(
            TraceStore::global().is_empty(),
            "no-obs builds must capture no span trees"
        );
        return;
    }

    let tree = TraceStore::global()
        .exemplar("run_day")
        .expect("the run_day root span must be captured");

    // The golden shape: the middleware day plans — predicting slots,
    // solving the overlapped knapsack, duty-cycling the screen-off
    // windows — and finally mines the observed day into history, all
    // within the planner's extent.
    let mut shape = Vec::new();
    flatten(&tree, 0, &mut shape);
    assert_eq!(
        shape,
        [
            "0:run_day",
            "1:plan_day",
            "2:predict",
            "2:solve",
            "2:dutycycle",
            "2:mine",
        ],
        "span tree shape changed — update the golden shape if intentional"
    );

    // Typed attributes: the day on the root and the planner, the
    // solver-arm mix on the solve span.
    assert_eq!(tree.attr("day"), Some(TRAIN_DAYS.to_string().as_str()));
    let plan = &tree.children[0];
    assert_eq!(plan.attr("day"), Some(TRAIN_DAYS.to_string().as_str()));
    let solve = tree.find_name("solve").expect("solve span present");
    let arm = solve.attr("arm").expect("solve span carries its arm");
    assert!(
        ["fastpath", "bnb", "dp", "mixed"].contains(&arm),
        "unexpected solver arm {arm:?}"
    );

    // Ids are assigned at entry, so preorder ids strictly increase.
    let mut id_order = Vec::new();
    ids(&tree, &mut id_order);
    assert!(
        id_order.windows(2).all(|w| w[0] < w[1]),
        "span ids must increase in entry order: {id_order:?}"
    );
    check_clocks(&tree);
    assert_eq!(tree.node_count(), shape.len());

    // The metric→tree jump used by `explain`: the day attribute finds
    // this exact tree.
    let jumped = TraceStore::global()
        .find_by_attr("day", &TRAIN_DAYS.to_string())
        .expect("find_by_attr must resolve the day");
    assert_eq!(jumped.id, tree.id);

    // The rendered tree and the serde surface both carry the shape.
    let rendered = tree.render();
    assert!(rendered.starts_with("run_day "));
    assert!(rendered.contains("[day=14]"));
    assert!(rendered.contains("arm="));
    let json = serde_json::to_string(&tree).expect("span tree serializes");
    let back: SpanNode = serde_json::from_str(&json).expect("span tree round-trips");
    let mut back_shape = Vec::new();
    flatten(&back, 0, &mut back_shape);
    assert_eq!(back_shape, shape);
}
