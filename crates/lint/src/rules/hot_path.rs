//! L1 `hot-path-alloc`: no allocation inside functions marked
//! `// lint:hot-path` — nor, since the call-graph layer landed, inside
//! any function **reachable** from a marked one over confident call
//! edges. These are the scratch-threaded solver paths the perf harness
//! budgets at zero steady-state allocations; a stray `collect()` in a
//! helper two calls down regresses the fleet-scale story just as
//! surely as one in the marked body.
//!
//! Transitive propagation follows confident edges only (see
//! [`crate::callgraph`]): ambiguous method dispatch degrades to the
//! body-only check, never to false positives. Code under a
//! `#[cfg(feature = …)]` the crate's default build leaves off is
//! skipped, as the call graph skips calls made from it.

use super::{emit, seq_at, WaiverLedger};
use crate::callgraph::CallGraph;
use crate::config::LintConfig;
use crate::report::Report;
use crate::workspace::Workspace;

const RULE: &str = "hot-path-alloc";

/// (token sequence, what to say about it)
const BANNED: &[(&[&str], &str)] = &[
    (
        &["Vec", ":", ":", "new"],
        "`Vec::new` allocates on first push",
    ),
    (
        &["Vec", ":", ":", "with_capacity"],
        "`Vec::with_capacity` allocates",
    ),
    (&["vec", "!"], "`vec![…]` allocates"),
    (
        &["String", ":", ":", "new"],
        "`String::new` allocates on first push",
    ),
    (&["String", ":", ":", "from"], "`String::from` allocates"),
    (&["Box", ":", ":", "new"], "`Box::new` allocates"),
    (&["format", "!"], "`format!` allocates a fresh String"),
    (&[".", "to_vec", "("], "`.to_vec()` copies into a fresh Vec"),
    (&[".", "to_owned", "("], "`.to_owned()` allocates"),
    (&[".", "to_string", "("], "`.to_string()` allocates"),
    (&[".", "clone", "(", ")"], "`.clone()` deep-copies"),
    (
        &[".", "collect", "("],
        "`.collect()` builds a fresh container",
    ),
];

/// Runs L1 over every hot-path-marked function and everything
/// confidently reachable from one.
pub fn check(
    ws: &Workspace,
    graph: &CallGraph,
    _cfg: &LintConfig,
    report: &mut Report,
    ledger: &mut WaiverLedger,
) {
    let seeds: Vec<usize> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.hot_path)
        .map(|(id, _)| id)
        .collect();
    // The markers themselves are load-bearing: if a refactor drops them
    // all, the rule must not silently pass an unmarked workspace.
    if seeds.is_empty() {
        super::emit_unwaivable(
            report,
            RULE,
            "(workspace)",
            0,
            "no `// lint:hot-path` markers found — the solver hot paths must stay marked"
                .to_owned(),
        );
        return;
    }

    let (reach, parent) = graph.reachable(&seeds);
    let enabled: Vec<_> = ws
        .crates
        .iter()
        .map(|k| k.manifest.default_features())
        .collect();

    for (fid, node) in graph.fns.iter().enumerate() {
        if !reach[fid] || node.is_test {
            continue;
        }
        let file = &ws.crates[node.loc.0].files[node.loc.1];
        let (start, end) = node.body;
        let mut i = start;
        while i < end.min(file.code.len()) {
            // Checks the default build does not compile (a
            // `strict-invariants` oracle) are not on the product's path.
            if file.is_feature_gated_off(i, &enabled[node.loc.0]) {
                i += 1;
                continue;
            }
            for (needle, why) in BANNED {
                if seq_at(&file.code, i, needle) {
                    let msg = if node.hot_path {
                        format!("{} inside hot-path fn `{}`", why, node.name)
                    } else {
                        format!(
                            "{} inside `{}`, reachable from a hot path via `{}`",
                            why,
                            node.name,
                            graph.chain(&parent, fid).join(" → ")
                        )
                    };
                    emit(report, ledger, file, RULE, file.code[i].line, msg);
                    break;
                }
            }
            i += 1;
        }
    }
}
