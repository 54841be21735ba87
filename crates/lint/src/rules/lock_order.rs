//! L6 `lock-order`: builds the workspace lock-acquisition graph from
//! guard scopes (directly nested acquisitions plus acquisitions
//! reached through confident call edges) and reports every cycle as a
//! potential deadlock. The serve worker pool and the hub are the
//! audit target: any two threads taking the same pair of locks in
//! opposite orders can wedge the whole telemetry plane.
//!
//! A same-lock nested acquisition is reported directly: `std::sync`
//! locks are not reentrant, so `lock()` under its own guard is a
//! guaranteed self-deadlock (for `RwLock`, read-under-read still
//! deadlocks once a writer queues between the two).

use super::concurrency::{find_guards, Guard};
use super::{emit, WaiverLedger};
use crate::callgraph::{calls_in_range, CallGraph};
use crate::config::LintConfig;
use crate::report::Report;
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet};

const RULE: &str = "lock-order";

/// One lock-order edge `from → to` with its witness site.
struct OrderEdge {
    /// (crate idx, file idx) of the witness site.
    loc: (usize, usize),
    /// 1-based line of the witness site.
    line: u32,
    /// How the second lock is reached (`directly` / `via call to …`).
    how: String,
}

/// Runs L6 over every non-test `src/` function.
pub fn check(
    ws: &Workspace,
    graph: &CallGraph,
    _cfg: &LintConfig,
    report: &mut Report,
    ledger: &mut WaiverLedger,
) {
    // Guards per function, then the transitive set of locks each
    // function acquires (confident call edges only).
    let mut guards: Vec<Vec<Guard>> = Vec::with_capacity(graph.fns.len());
    for node in &graph.fns {
        let file = &ws.crates[node.loc.0].files[node.loc.1];
        guards.push(find_guards(file, node.body));
    }
    let acquired = transitive_locks(graph, &guards);

    // Edge map `from → to`, first witness wins (stable reporting).
    let mut edges: BTreeMap<(String, String), OrderEdge> = BTreeMap::new();
    for (fid, node) in graph.fns.iter().enumerate() {
        if node.is_test {
            continue;
        }
        let file = &ws.crates[node.loc.0].files[node.loc.1];
        for g in &guards[fid] {
            // Directly nested acquisitions inside this guard's scope.
            for h in &guards[fid] {
                if h.acq_tok <= g.acq_tok || h.acq_tok >= g.scope.1 {
                    continue;
                }
                if h.lock_id == g.lock_id {
                    emit(
                        report,
                        ledger,
                        file,
                        RULE,
                        h.line,
                        format!(
                            "`{}` re-acquired via {} while its guard from line {} is still held — \
                             std locks are not reentrant, this self-deadlocks",
                            h.lock_id,
                            h.kind.method(),
                            g.line
                        ),
                    );
                } else {
                    edges
                        .entry((g.lock_id.clone(), h.lock_id.clone()))
                        .or_insert(OrderEdge {
                            loc: node.loc,
                            line: h.line,
                            how: "acquired directly".to_owned(),
                        });
                }
            }
            // Acquisitions reached through calls made under the guard.
            for e in calls_in_range(graph, fid, g.scope) {
                for l in &acquired[e.callee] {
                    if *l == g.lock_id {
                        emit(
                            report,
                            ledger,
                            file,
                            RULE,
                            e.line,
                            format!(
                                "call to `{}` (re)acquires `{}` while its guard from line {} is \
                                 still held — std locks are not reentrant, this self-deadlocks",
                                graph.fns[e.callee].name, l, g.line
                            ),
                        );
                    } else {
                        edges
                            .entry((g.lock_id.clone(), l.clone()))
                            .or_insert(OrderEdge {
                                loc: node.loc,
                                line: e.line,
                                how: format!("via call to `{}`", graph.fns[e.callee].name),
                            });
                    }
                }
            }
        }
    }

    // Cycle detection over the lock-order digraph. Each cycle is one
    // finding, anchored at its first edge's witness site, with every
    // edge's site spelled out for triage.
    for cycle in find_cycles(&edges) {
        let key = (cycle[0].clone(), cycle[1 % cycle.len()].clone());
        let Some(w) = edges.get(&key) else { continue };
        let file = &ws.crates[w.loc.0].files[w.loc.1];
        let mut ring = cycle.clone();
        ring.push(cycle[0].clone());
        let legs: Vec<String> = (0..cycle.len())
            .filter_map(|k| {
                let from = &cycle[k];
                let to = &cycle[(k + 1) % cycle.len()];
                edges.get(&(from.clone(), to.clone())).map(|e| {
                    let f = &ws.crates[e.loc.0].files[e.loc.1];
                    format!("`{from}` → `{to}` {} at {}:{}", e.how, f.rel_path, e.line)
                })
            })
            .collect();
        emit(
            report,
            ledger,
            file,
            RULE,
            w.line,
            format!(
                "potential deadlock: lock-order cycle {} ({}) — make every thread take \
                 these locks in one global order",
                ring.join(" → "),
                legs.join("; ")
            ),
        );
    }
}

/// Per-function set of lock ids acquired directly or through
/// confident call edges (fixpoint union).
fn transitive_locks(graph: &CallGraph, guards: &[Vec<Guard>]) -> Vec<BTreeSet<String>> {
    let mut acq: Vec<BTreeSet<String>> = guards
        .iter()
        .map(|gs| gs.iter().map(|g| g.lock_id.clone()).collect())
        .collect();
    loop {
        let mut changed = false;
        for fid in 0..graph.fns.len() {
            for e in &graph.edges[fid] {
                if !e.confident {
                    continue;
                }
                let add: Vec<String> = acq[e.callee]
                    .iter()
                    .filter(|l| !acq[fid].contains(*l))
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    acq[fid].extend(add);
                    changed = true;
                }
            }
        }
        if !changed {
            return acq;
        }
    }
}

/// Every elementary cycle's node list, canonicalized (rotated to the
/// minimum node) and deduplicated. DFS with back-edge extraction is
/// enough at this graph size (a handful of locks).
fn find_cycles(edges: &BTreeMap<(String, String), OrderEdge>) -> Vec<Vec<String>> {
    let mut adj: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
    for (from, to) in edges.keys() {
        adj.entry(from).or_default().push(to);
        adj.entry(to).or_default();
    }
    let mut out: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in adj.keys() {
        // DFS from each node; record cycles that return to `start`.
        let mut stack: Vec<(&str, usize)> = vec![(start, 0)];
        let mut path: Vec<&str> = vec![start];
        let mut on_path: BTreeSet<&str> = [start].into();
        while let Some((node, next)) = stack.last_mut() {
            let succs = &adj[*node];
            if *next >= succs.len() {
                on_path.remove(*node);
                path.pop();
                stack.pop();
                continue;
            }
            let s = succs[*next];
            *next += 1;
            if s == start {
                out.insert(canonical(&path));
            } else if !on_path.contains(s) {
                on_path.insert(s);
                path.push(s);
                stack.push((s, 0));
            }
        }
    }
    out.into_iter().collect()
}

/// Rotates a cycle's node list so the smallest node comes first.
fn canonical(path: &[&str]) -> Vec<String> {
    let min = path
        .iter()
        .enumerate()
        .min_by_key(|(_, s)| **s)
        .map(|(i, _)| i)
        .unwrap_or(0);
    path.iter()
        .cycle()
        .skip(min)
        .take(path.len())
        .map(|s| (*s).to_owned())
        .collect()
}
