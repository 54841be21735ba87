//! Workspace call graph built on the lexical layer: a per-crate
//! function index, `use`-path resolution, and best-effort call edges
//! that the concurrency rules and transitive hot-path propagation
//! consume.
//!
//! # Resolution policy (best-effort, documented)
//!
//! The resolver is lexical — no type information exists. Edges are
//! built in three tiers:
//!
//! 1. **Path calls** (`foo(…)`, `module::foo(…)`, `krate::m::foo(…)`,
//!    and their turbofish forms such as `foo::<T>(…)`):
//!    the path's head segment is expanded through the file's `use`
//!    aliases; a segment matching a workspace crate (with `-`/`_`
//!    normalized) scopes the lookup to that crate, `crate`/`self`/
//!    `super` scope it to the defining crate, and a bare name prefers
//!    a same-file function, then a same-crate one. These edges are
//!    `confident` when exactly one candidate survives.
//! 2. **Method calls** (`recv.foo(…)`): resolved by name to functions
//!    that take a `self` receiver — same crate first, then the crates
//!    in the caller crate's normal-dependency closure.
//!    Names colliding with std container/trait vocabulary (`push`,
//!    `len`, `clone`, `insert`, …) are never resolved: a lexical
//!    match on those would wire `Vec::push` to any workspace `push`.
//!    Method edges are `confident` only when a single candidate exists.
//! 3. **Unresolved** calls (std/external functions, trait-object and
//!    closure dispatch, macro-generated code) produce no edge.
//!
//! Known false-negative classes, accepted by design: dynamic trait
//! dispatch, function pointers and closures passed as values, calls
//! through the std-name denylist, and macro-expanded calls. Rules that
//! propagate facts through the graph (lock-order, lock-across-io,
//! transitive hot-path) follow **confident edges only**, so ambiguity
//! degrades to missed propagation, never to a flood of false
//! positives.

use crate::lexer::TokKind;
use crate::source::{FileRole, SourceFile};
use crate::workspace::Workspace;
use std::collections::{BTreeMap, VecDeque};

/// Index of a function in [`CallGraph::fns`].
pub type FnId = usize;

/// One function node.
#[derive(Debug, Clone)]
pub struct FnNode {
    /// Defining crate's package name.
    pub krate: String,
    /// Workspace-relative file path.
    pub file: String,
    /// (crate index, file index) into the [`Workspace`].
    pub loc: (usize, usize),
    /// Index into the file's `fns` vector.
    pub fn_idx: usize,
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Code-token body range, braces exclusive.
    pub body: (usize, usize),
    /// Carries a `// lint:hot-path` marker.
    pub hot_path: bool,
    /// Defined in test-gated code or a tests/ file.
    pub is_test: bool,
    /// Takes a `self` receiver (method) — used to disambiguate
    /// method-call targets from free functions.
    pub has_self: bool,
    /// Defined inside an `impl` or `trait` body (see
    /// [`crate::source::FnInfo::associated`]).
    pub associated: bool,
}

/// How a call site was matched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// `foo(…)` / `path::foo(…)`.
    Path,
    /// `.foo(…)`.
    Method,
}

/// One call edge out of a function.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Callee function.
    pub callee: FnId,
    /// Code-token index of the call site (the name token).
    pub tok: usize,
    /// 1-based line of the call site.
    pub line: u32,
    /// Path or method match.
    pub kind: EdgeKind,
    /// Exactly one candidate matched — safe for transitive
    /// propagation.
    pub confident: bool,
}

/// The queryable workspace call graph.
pub struct CallGraph {
    /// All functions, in workspace order.
    pub fns: Vec<FnNode>,
    /// Outgoing edges per function.
    pub edges: Vec<Vec<Edge>>,
}

/// Method names that collide with std container/trait vocabulary and
/// are therefore never resolved (tier 2 denylist).
const STD_METHOD_NAMES: &[&str] = &[
    "as_mut",
    "as_ref",
    "clear",
    "clone",
    "cmp",
    "collect",
    "contains",
    "default",
    "drain",
    "drop",
    "entry",
    "eq",
    "extend",
    "filter",
    "flush",
    "fmt",
    "from",
    "get",
    "get_mut",
    "hash",
    "insert",
    "into",
    "into_iter",
    "is_empty",
    "iter",
    "iter_mut",
    "join",
    "len",
    "lock",
    "map",
    "next",
    "pop",
    "push",
    "push_str",
    "read",
    "recv",
    "remove",
    "retain",
    "send",
    "sort",
    "sort_by",
    "spawn",
    "split",
    "to_owned",
    "to_string",
    "to_vec",
    "trim",
    "try_lock",
    "unwrap",
    "unwrap_or",
    "unwrap_or_else",
    "with_capacity",
    "write",
];

/// Keywords that can precede `(` without being calls.
const NON_CALL_KEYWORDS: &[&str] = &[
    "as", "break", "continue", "else", "fn", "for", "if", "impl", "in", "let", "loop", "match",
    "move", "mut", "pub", "ref", "return", "unsafe", "use", "where", "while",
];

impl CallGraph {
    /// Builds the graph for a loaded workspace.
    pub fn build(ws: &Workspace) -> CallGraph {
        let mut fns = Vec::new();
        // (crate, name) → ids; name → ids.
        let mut by_crate_name: BTreeMap<(usize, String), Vec<FnId>> = BTreeMap::new();
        let mut by_name: BTreeMap<String, Vec<FnId>> = BTreeMap::new();
        // crate package name (normalized) → crate index.
        let mut crate_of: BTreeMap<String, usize> = BTreeMap::new();

        for (ki, krate) in ws.crates.iter().enumerate() {
            crate_of.insert(norm(&krate.name), ki);
            for (fi, file) in krate.files.iter().enumerate() {
                for (fnx, f) in file.fns.iter().enumerate() {
                    let id = fns.len();
                    let is_test = file.role != FileRole::Src || file.is_test(f.body.0);
                    fns.push(FnNode {
                        krate: krate.name.clone(),
                        file: file.rel_path.clone(),
                        loc: (ki, fi),
                        fn_idx: fnx,
                        name: f.name.clone(),
                        line: f.line,
                        body: f.body,
                        hot_path: f.hot_path,
                        is_test,
                        has_self: fn_has_self(file, f.body),
                        associated: f.associated,
                    });
                    by_crate_name
                        .entry((ki, f.name.clone()))
                        .or_default()
                        .push(id);
                    by_name.entry(f.name.clone()).or_default().push(id);
                }
            }
        }

        let deps = dependency_closures(ws, &crate_of);
        let enabled: Vec<_> = ws
            .crates
            .iter()
            .map(|k| k.manifest.default_features())
            .collect();
        let mut edges: Vec<Vec<Edge>> = vec![Vec::new(); fns.len()];
        for caller in 0..fns.len() {
            let (ki, fi) = fns[caller].loc;
            let file = &ws.crates[ki].files[fi];
            let aliases = parse_use_aliases(file);
            let (start, end) = fns[caller].body;
            let code = &file.code;
            let end = end.min(code.len());
            let mut i = start;
            while i < end {
                // A call the default build does not compile
                // (`#[cfg(feature = "strict-invariants")] check(…);`)
                // is no edge of the product's graph.
                if file.is_feature_gated_off(i, &enabled[ki]) {
                    i += 1;
                    continue;
                }
                // Method call: `. name (` — not a path (`::name(`).
                if code[i].is_punct('.')
                    && i + 2 < end
                    && code[i + 1].kind == TokKind::Ident
                    && code[i + 2].is_punct('(')
                {
                    let name = code[i + 1].text.as_str();
                    if !STD_METHOD_NAMES.contains(&name) {
                        let cands =
                            method_candidates(&by_crate_name, &by_name, &fns, &deps, ki, name);
                        let confident = cands.len() == 1;
                        for c in cands {
                            if c != caller {
                                edges[caller].push(Edge {
                                    callee: c,
                                    tok: i + 1,
                                    line: code[i + 1].line,
                                    kind: EdgeKind::Method,
                                    confident,
                                });
                            }
                        }
                    }
                    i += 3;
                    continue;
                }
                // Path / free call: `name (` or `name :: < … > (`
                // where the previous token is neither `.` nor `fn`
                // (declarations).
                if code[i].kind == TokKind::Ident
                    && is_called(code, i, end)
                    && !NON_CALL_KEYWORDS.contains(&code[i].text.as_str())
                    && !(i > 0 && (code[i - 1].is_punct('.') || code[i - 1].is_ident("fn")))
                {
                    let path = path_segments(code, i, start);
                    if path.len() == 1 && path[0].chars().next().is_some_and(char::is_uppercase) {
                        // `Some(…)` / `Ok(…)` / tuple-struct literals:
                        // bare uppercase names are constructors, not
                        // calls.
                        i += 1;
                        continue;
                    }
                    let cands = resolve_path(
                        &path,
                        &aliases,
                        &crate_of,
                        &by_crate_name,
                        &by_name,
                        &fns,
                        ki,
                        fi,
                    );
                    let confident = cands.len() == 1;
                    for c in cands {
                        if c != caller {
                            edges[caller].push(Edge {
                                callee: c,
                                tok: i,
                                line: code[i].line,
                                kind: EdgeKind::Path,
                                confident,
                            });
                        }
                    }
                }
                i += 1;
            }
        }

        CallGraph { fns, edges }
    }

    /// Functions defined in `file` (workspace-relative path).
    pub fn fns_in_file<'a>(&'a self, rel_path: &'a str) -> impl Iterator<Item = FnId> + 'a {
        self.fns
            .iter()
            .enumerate()
            .filter(move |(_, f)| f.file == rel_path)
            .map(|(i, _)| i)
    }

    /// The function whose body contains code-token index `tok` of
    /// `file`, if any. Inner fns shadow outer ones (smallest body
    /// wins).
    pub fn enclosing_fn(&self, rel_path: &str, tok: usize) -> Option<FnId> {
        self.fns_in_file(rel_path)
            .filter(|&id| {
                let (s, e) = self.fns[id].body;
                s <= tok && tok < e
            })
            .min_by_key(|&id| {
                let (s, e) = self.fns[id].body;
                e - s
            })
    }

    /// Breadth-first reachability over **confident** edges from
    /// `seeds`. Returns per-fn reachability plus a BFS parent map for
    /// reconstructing one witness call chain.
    pub fn reachable(&self, seeds: &[FnId]) -> (Vec<bool>, Vec<Option<FnId>>) {
        let mut seen = vec![false; self.fns.len()];
        let mut parent: Vec<Option<FnId>> = vec![None; self.fns.len()];
        let mut q: VecDeque<FnId> = VecDeque::new();
        for &s in seeds {
            if !seen[s] {
                seen[s] = true;
                q.push_back(s);
            }
        }
        while let Some(u) = q.pop_front() {
            for e in &self.edges[u] {
                if e.confident && !seen[e.callee] {
                    seen[e.callee] = true;
                    parent[e.callee] = Some(u);
                    q.push_back(e.callee);
                }
            }
        }
        (seen, parent)
    }

    /// One witness call chain `seed → … → id` from a
    /// [`CallGraph::reachable`] parent map, rendered as fn names.
    pub fn chain(&self, parent: &[Option<FnId>], mut id: FnId) -> Vec<String> {
        let mut out = vec![self.fns[id].name.clone()];
        while let Some(p) = parent[id] {
            out.push(self.fns[p].name.clone());
            id = p;
        }
        out.reverse();
        out
    }
}

/// `netmaster-obs` and `netmaster_obs` are the same crate.
fn norm(name: &str) -> String {
    name.replace('-', "_")
}

/// Does the fn whose body starts at `body.0` take `self`? Anchors on
/// the `fn` keyword (a return type like `-> Result<(), E>` sits
/// between the parameter list and the body, so walking parens back
/// from the brace would mis-land) and checks the first tokens of the
/// parameter list for `self`, `&self`, `&'a mut self`, `mut self`.
fn fn_has_self(file: &SourceFile, body: (usize, usize)) -> bool {
    let mut j = body.0.saturating_sub(1); // at `{`
    while j > 0 && !file.code[j].is_ident("fn") {
        j -= 1;
    }
    let mut k = j;
    while k < body.0 && !file.code[k].is_punct('(') {
        k += 1;
    }
    file.code
        .get(k + 1..(k + 5).min(body.0))
        .unwrap_or_default()
        .iter()
        .take_while(|t| !t.is_punct(')'))
        .any(|t| t.is_ident("self"))
}

/// Is the name token at `i` called: followed by `(`, directly or after
/// a turbofish (`name::<T, U<V>>(`)?
fn is_called(code: &[crate::lexer::Tok], i: usize, end: usize) -> bool {
    let mut j = i + 1;
    if j + 2 < end
        && code[j].is_punct(':')
        && code[j + 1].is_punct(':')
        && code[j + 2].is_punct('<')
    {
        j += 2;
        let mut depth = 0usize;
        while j < end {
            if code[j].is_punct('<') {
                depth += 1;
            } else if code[j].is_punct('>') && !code[j - 1].is_punct('-') {
                depth -= 1;
                if depth == 0 {
                    break;
                }
            } else if code[j].is_punct(';') || code[j].is_punct('{') {
                return false;
            }
            j += 1;
        }
        j += 1;
    }
    j < end && code[j].is_punct('(')
}

/// Per crate, the workspace crates it can call into: itself plus the
/// transitive closure of its normal `[dependencies]`.
fn dependency_closures(ws: &Workspace, crate_of: &BTreeMap<String, usize>) -> Vec<Vec<bool>> {
    let direct: Vec<Vec<usize>> = ws
        .crates
        .iter()
        .map(|k| {
            k.manifest
                .deps
                .keys()
                .filter_map(|d| crate_of.get(&norm(d)).copied())
                .collect()
        })
        .collect();
    (0..ws.crates.len())
        .map(|ki| {
            let mut seen = vec![false; ws.crates.len()];
            let mut stack = vec![ki];
            while let Some(k) = stack.pop() {
                if !std::mem::replace(&mut seen[k], true) {
                    stack.extend(&direct[k]);
                }
            }
            seen
        })
        .collect()
}

/// Collects the `::`-separated path ending at the name token `i`,
/// walking backwards (`a :: b :: name` → `["a","b","name"]`). `::` is
/// two `:` punct tokens in this lexer. Generic arguments are skipped:
/// `Vec::<u8>::new` → `["Vec","new"]`, and a qualified type such as
/// `<Vec<u8>>::new` or `<T as Tr>::f` yields the type's first name
/// (`["Vec","new"]`, `["T","f"]`).
fn path_segments(code: &[crate::lexer::Tok], i: usize, floor: usize) -> Vec<String> {
    let mut segs = vec![code[i].text.clone()];
    let mut j = i;
    while j >= floor + 3 && code[j - 1].is_punct(':') && code[j - 2].is_punct(':') {
        let mut k = j - 3;
        if code[k].is_punct('>') {
            let Some(open) = open_angle(code, k, floor) else {
                break;
            };
            if open >= floor + 3 && code[open - 1].is_punct(':') && code[open - 2].is_punct(':') {
                k = open - 3;
            } else {
                if let Some(t) = code.get(open + 1).filter(|t| t.kind == TokKind::Ident) {
                    segs.push(t.text.clone());
                }
                break;
            }
        }
        if code[k].kind != TokKind::Ident {
            break;
        }
        segs.push(code[k].text.clone());
        j = k;
    }
    segs.reverse();
    segs
}

/// The `<` that opens the generic argument list closed by the `>` at
/// `close`, searching back no further than `floor`. An arrow's `>`
/// (`Fn() -> u8`) closes nothing.
fn open_angle(code: &[crate::lexer::Tok], close: usize, floor: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut k = close;
    loop {
        let t = &code[k];
        if t.is_punct('>') && !(k > 0 && code[k - 1].is_punct('-')) {
            depth += 1;
        } else if t.is_punct('<') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        } else if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            return None;
        }
        if k <= floor {
            return None;
        }
        k -= 1;
    }
}

/// Per-file `use` alias map: local head name → full path segments.
fn parse_use_aliases(file: &SourceFile) -> BTreeMap<String, Vec<String>> {
    let mut out = BTreeMap::new();
    let code = &file.code;
    let n = code.len();
    let mut i = 0usize;
    while i < n {
        if !code[i].is_ident("use") {
            i += 1;
            continue;
        }
        // Collect tokens to the terminating `;`.
        let mut j = i + 1;
        while j < n && !code[j].is_punct(';') {
            j += 1;
        }
        collect_use_tree(&code[i + 1..j], &[], &mut out);
        i = j + 1;
    }
    out
}

/// Expands one `use` tree (`a::b::{c, d as e}`) into leaf aliases.
fn collect_use_tree(
    toks: &[crate::lexer::Tok],
    prefix: &[String],
    out: &mut BTreeMap<String, Vec<String>>,
) {
    let mut path: Vec<String> = prefix.to_vec();
    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Ident && !t.is_ident("as") {
            path.push(t.text.clone());
            i += 1;
        } else if t.is_punct(':') {
            i += 1; // path separator halves
        } else if t.is_ident("as") {
            if let Some(alias) = toks.get(i + 1) {
                out.insert(alias.text.clone(), path.clone());
            }
            return;
        } else if t.is_punct('{') {
            // Split the group body on top-level commas and recurse.
            let mut depth = 0i32;
            let mut close = i;
            for (k, u) in toks.iter().enumerate().skip(i) {
                if u.is_punct('{') {
                    depth += 1;
                } else if u.is_punct('}') {
                    depth -= 1;
                    if depth == 0 {
                        close = k;
                        break;
                    }
                }
            }
            let body = &toks[i + 1..close];
            let mut seg_start = 0usize;
            let mut d = 0i32;
            for (k, u) in body.iter().enumerate() {
                if u.is_punct('{') {
                    d += 1;
                } else if u.is_punct('}') {
                    d -= 1;
                } else if u.is_punct(',') && d == 0 {
                    collect_use_tree(&body[seg_start..k], &path, out);
                    seg_start = k + 1;
                }
            }
            if seg_start < body.len() {
                collect_use_tree(&body[seg_start..], &path, out);
            }
            return;
        } else if t.is_punct('*') {
            return; // glob imports resolve nothing
        } else {
            i += 1;
        }
    }
    if let Some(last) = path.last().cloned() {
        if !path.is_empty() {
            out.insert(last, path);
        }
    }
}

/// Tier-2 method candidates: `self`-taking fns named `name`, same
/// crate first, then the crates the caller crate depends on.
fn method_candidates(
    by_crate_name: &BTreeMap<(usize, String), Vec<FnId>>,
    by_name: &BTreeMap<String, Vec<FnId>>,
    fns: &[FnNode],
    deps: &[Vec<bool>],
    ki: usize,
    name: &str,
) -> Vec<FnId> {
    let in_crate: Vec<FnId> = by_crate_name
        .get(&(ki, name.to_owned()))
        .map(|v| v.iter().copied().filter(|&id| fns[id].has_self).collect())
        .unwrap_or_default();
    if !in_crate.is_empty() {
        return in_crate;
    }
    by_name
        .get(name)
        .map(|v| {
            v.iter()
                .copied()
                .filter(|&id| fns[id].has_self && deps[ki][fns[id].loc.0])
                .collect()
        })
        .unwrap_or_default()
}

/// Tier-1 path resolution (see module docs).
#[allow(clippy::too_many_arguments)]
fn resolve_path(
    path: &[String],
    aliases: &BTreeMap<String, Vec<String>>,
    crate_of: &BTreeMap<String, usize>,
    by_crate_name: &BTreeMap<(usize, String), Vec<FnId>>,
    by_name: &BTreeMap<String, Vec<FnId>>,
    fns: &[FnNode],
    ki: usize,
    fi: usize,
) -> Vec<FnId> {
    let name = match path.last() {
        Some(n) => n.clone(),
        None => return Vec::new(),
    };
    // Expand the head segment through `use` aliases.
    let mut full: Vec<String> = Vec::new();
    if path.len() > 1 {
        if let Some(exp) = aliases.get(&path[0]) {
            full.extend(exp.iter().cloned());
            full.extend(path[1..].iter().cloned());
        } else {
            full.extend(path.iter().cloned());
        }
    } else if let Some(exp) = aliases.get(&name) {
        full.extend(exp.iter().cloned());
    } else {
        full.push(name.clone());
    }
    // An alias may rename the leaf (`use util::tock as beat;`): the
    // definition-side name is the expanded path's last segment.
    let name = match full.last() {
        Some(n) => n.clone(),
        None => return Vec::new(),
    };

    // Bare name: same file shadows same crate.
    if full.len() == 1 {
        let same_file: Vec<FnId> = by_crate_name
            .get(&(ki, name.clone()))
            .map(|v| {
                v.iter()
                    .copied()
                    .filter(|&id| fns[id].loc == (ki, fi))
                    .collect()
            })
            .unwrap_or_default();
        if !same_file.is_empty() {
            return same_file;
        }
        return by_crate_name.get(&(ki, name)).cloned().unwrap_or_default();
    }

    // Qualified: find a crate anchor in the path.
    let target_crate = full.iter().find_map(|seg| match seg.as_str() {
        "crate" | "self" | "super" => Some(ki),
        s => crate_of.get(&norm(s)).copied(),
    });
    match target_crate {
        Some(tk) => by_crate_name.get(&(tk, name)).cloned().unwrap_or_default(),
        None => {
            // Module-qualified local call (`solver::solve(…)`) or a
            // type-associated fn (`Foo::new(…)`): try same crate by
            // name — only associated fns for a type path, which can
            // never name a free fn — then give up rather than guess
            // workspace-wide for common associated names.
            let type_path = full
                .first()
                .is_some_and(|s| s.chars().next().is_some_and(char::is_uppercase));
            let in_crate: Vec<FnId> = by_crate_name
                .get(&(ki, name.clone()))
                .map(|v| {
                    v.iter()
                        .copied()
                        .filter(|&id| !type_path || fns[id].associated)
                        .collect()
                })
                .unwrap_or_default();
            if !in_crate.is_empty() || type_path {
                return in_crate;
            }
            by_name.get(&name).cloned().unwrap_or_default()
        }
    }
}

/// Convenience for rules: the set of confident edges out of `id`
/// whose call-site token lies in `range`.
pub fn calls_in_range(
    graph: &CallGraph,
    id: FnId,
    range: (usize, usize),
) -> impl Iterator<Item = &Edge> {
    graph.edges[id]
        .iter()
        .filter(move |e| e.confident && e.tok >= range.0 && e.tok < range.1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workspace::{CrateInfo, DepEntry, Manifest};
    use std::path::PathBuf;

    fn ws(crates: Vec<(&str, Vec<(&str, &str)>)>) -> Workspace {
        let crates = crates
            .into_iter()
            .map(|(name, files)| CrateInfo {
                name: name.to_owned(),
                rel_dir: format!("crates/{name}"),
                manifest: Manifest {
                    name: name.to_owned(),
                    ..Manifest::default()
                },
                files: files
                    .into_iter()
                    .map(|(rel, src)| {
                        SourceFile::analyze(
                            rel.to_owned(),
                            PathBuf::from(format!("/{rel}")),
                            FileRole::Src,
                            src,
                        )
                    })
                    .collect(),
            })
            .collect();
        Workspace {
            root: PathBuf::from("/"),
            crates,
            root_manifest: Manifest::default(),
        }
    }

    fn id(g: &CallGraph, file: &str, name: &str) -> FnId {
        g.fns
            .iter()
            .position(|f| f.file == file && f.name == name)
            .unwrap_or_else(|| panic!("no fn {name} in {file}"))
    }

    fn callees(g: &CallGraph, from: FnId) -> Vec<&str> {
        g.edges[from]
            .iter()
            .map(|e| g.fns[e.callee].name.as_str())
            .collect()
    }

    #[test]
    fn same_file_call_and_shadowing() {
        // `helper` exists in both files of the same crate; the caller's
        // own file shadows the sibling.
        let g = CallGraph::build(&ws(vec![(
            "app",
            vec![
                ("a.rs", "fn helper() {}\nfn caller() { helper(); }\n"),
                ("b.rs", "fn helper() {}\n"),
            ],
        )]));
        let caller = id(&g, "a.rs", "caller");
        assert_eq!(callees(&g, caller), vec!["helper"]);
        assert_eq!(g.edges[caller].len(), 1);
        assert!(g.edges[caller][0].confident);
        assert_eq!(g.fns[g.edges[caller][0].callee].file, "a.rs");
    }

    #[test]
    fn use_alias_resolves_cross_crate() {
        let g = CallGraph::build(&ws(vec![
            (
                "app",
                vec![(
                    "main.rs",
                    "use netmaster_core::solver as sv;\nfn run() { sv::solve(); }\n",
                )],
            ),
            ("netmaster-core", vec![("solver.rs", "pub fn solve() {}\n")]),
        ]));
        let run = id(&g, "main.rs", "run");
        assert_eq!(callees(&g, run), vec!["solve"]);
        assert_eq!(g.fns[g.edges[run][0].callee].krate, "netmaster-core");
        assert!(g.edges[run][0].confident);
    }

    #[test]
    fn direct_fn_import_and_grouped_aliases() {
        let g = CallGraph::build(&ws(vec![
            (
                "app",
                vec![(
                    "main.rs",
                    "use util::{tick, tock as beat};\nfn go() { tick(); beat(); }\n",
                )],
            ),
            (
                "util",
                vec![("lib.rs", "pub fn tick() {}\npub fn tock() {}\n")],
            ),
        ]));
        let go = id(&g, "main.rs", "go");
        let mut names = callees(&g, go);
        names.sort_unstable();
        assert_eq!(names, vec!["tick", "tock"]);
    }

    #[test]
    fn cross_crate_full_path() {
        let g = CallGraph::build(&ws(vec![
            (
                "app",
                vec![("m.rs", "fn f() { netmaster_obs::hub::publish(); }\n")],
            ),
            ("netmaster-obs", vec![("hub.rs", "pub fn publish() {}\n")]),
        ]));
        let f = id(&g, "m.rs", "f");
        assert_eq!(callees(&g, f), vec!["publish"]);
        assert_eq!(g.fns[g.edges[f][0].callee].krate, "netmaster-obs");
    }

    #[test]
    fn method_calls_resolve_to_self_fns_only() {
        // `flush_all` exists as a method and a free fn; `.flush_all()`
        // must pick the method, `flush_all()` the same-file free fn.
        let g = CallGraph::build(&ws(vec![(
            "app",
            vec![
                (
                    "hub.rs",
                    "struct Hub;\nimpl Hub {\n fn flush_all(&self) {}\n fn kick(&self, h: &Hub) { h.flush_all(); }\n}\n",
                ),
                (
                    "free.rs",
                    "pub fn flush_all() {}\npub fn drive() { flush_all(); }\n",
                ),
            ],
        )]));
        let kick = id(&g, "hub.rs", "kick");
        assert_eq!(g.edges[kick].len(), 1, "{:?}", g.edges[kick]);
        assert_eq!(g.fns[g.edges[kick][0].callee].file, "hub.rs");
        assert_eq!(g.edges[kick][0].kind, EdgeKind::Method);
        assert!(g.edges[kick][0].confident);

        let drive = id(&g, "free.rs", "drive");
        assert_eq!(g.edges[drive].len(), 1);
        assert_eq!(g.fns[g.edges[drive][0].callee].file, "free.rs");
        assert_eq!(g.edges[drive][0].kind, EdgeKind::Path);
    }

    #[test]
    fn std_method_names_are_never_resolved() {
        let g = CallGraph::build(&ws(vec![(
            "app",
            vec![(
                "store.rs",
                "struct S;\nimpl S {\n fn push(&mut self) {}\n}\nfn hot(v: &mut Vec<u8>) { v.push(1); }\n",
            )],
        )]));
        let hot = id(&g, "store.rs", "hot");
        assert!(g.edges[hot].is_empty(), "{:?}", g.edges[hot]);
    }

    #[test]
    fn ambiguous_methods_are_not_confident() {
        let g = CallGraph::build(&ws(vec![(
            "app",
            vec![(
                "two.rs",
                "struct A;\nstruct B;\nimpl A { fn refill(&self) {} }\nimpl B { fn refill(&self) {} }\nfn f(a: &A) { a.refill(); }\n",
            )],
        )]));
        let f = id(&g, "two.rs", "f");
        assert_eq!(g.edges[f].len(), 2);
        assert!(g.edges[f].iter().all(|e| !e.confident));
    }

    #[test]
    fn turbofish_calls_are_path_calls() {
        let g = CallGraph::build(&ws(vec![(
            "app",
            vec![(
                "lib.rs",
                "fn steps<const A: bool>() {}\nfn pick<T>() {}\nfn go() { steps::<false>(); pick::<Vec<Box<dyn Fn() -> u8>>>(); Vec::<u8>::new(); }\n",
            )],
        )]));
        let go = id(&g, "lib.rs", "go");
        let mut names = callees(&g, go);
        names.sort_unstable();
        assert_eq!(names, vec!["pick", "steps"]);
        assert!(g.edges[go]
            .iter()
            .all(|e| e.confident && e.kind == EdgeKind::Path));
    }

    #[test]
    fn turbofish_type_paths_reach_only_associated_fns() {
        // `Vec::<u8>::new()` and `<Vec<u8>>::new()` name an associated
        // fn of `Vec`: never the file's free `fn new`. `W::<u8>::make()`
        // still reaches `W`'s associated `make`.
        let g = CallGraph::build(&ws(vec![(
            "app",
            vec![(
                "lib.rs",
                "fn new() {}\nstruct W<T>(T);\nimpl<T> W<T> {\n fn make() {}\n}\nfn go() { Vec::<u8>::new(); <Vec<u8>>::new(); W::<u8>::make(); }\n",
            )],
        )]));
        let go = id(&g, "lib.rs", "go");
        assert_eq!(callees(&g, go), vec!["make"], "{:?}", g.edges[go]);
        assert!(g.edges[go][0].confident);
    }

    #[test]
    fn feature_gated_call_sites_draw_no_edge() {
        // `floor` is called only under a feature the default build
        // leaves off; `count` under one it turns on (through `default`
        // → `obs`), and `probe` outside any gate.
        let mut w = ws(vec![(
            "app",
            vec![(
                "lib.rs",
                "fn floor() {}\nfn count() {}\nfn probe() {}\nfn solve() {\n #[cfg(feature = \"strict-invariants\")]\n floor();\n #[cfg(feature = \"obs\")]\n count();\n probe();\n}\n",
            )],
        )]);
        let features = &mut w.crates[0].manifest.features;
        features.insert("default".to_owned(), vec!["obs".to_owned()]);
        features.insert("obs".to_owned(), vec!["dep/enabled".to_owned()]);
        features.insert("strict-invariants".to_owned(), Vec::new());
        let g = CallGraph::build(&w);
        let solve = id(&g, "lib.rs", "solve");
        assert_eq!(callees(&g, solve), vec!["count", "probe"]);
    }

    #[test]
    fn method_fallback_stays_in_the_dependency_closure() {
        // `b` defines `Graph::chain`; `a` does not depend on `b`, `c`
        // does (through `mid`). Only `c`'s `.chain()` may reach it.
        let src = "fn f(x: &[u8], y: &[u8]) { x.iter().chain(y); }\n";
        let mut w = ws(vec![
            ("a", vec![("a.rs", src)]),
            (
                "b",
                vec![(
                    "b.rs",
                    "pub struct Graph;\nimpl Graph { pub fn chain(&self) {} }\n",
                )],
            ),
            ("c", vec![("c.rs", src)]),
            ("mid", vec![("mid.rs", "pub fn noop() {}\n")]),
        ]);
        for (krate, dep) in [(2, "mid"), (3, "b")] {
            w.crates[krate]
                .manifest
                .deps
                .insert(dep.to_owned(), DepEntry::default());
        }
        let g = CallGraph::build(&w);
        let a = id(&g, "a.rs", "f");
        assert!(g.edges[a].is_empty(), "{:?}", g.edges[a]);
        let c = id(&g, "c.rs", "f");
        assert_eq!(callees(&g, c), vec!["chain"]);
        assert_eq!(g.fns[g.edges[c][0].callee].krate, "b");
    }

    #[test]
    fn reachability_and_chain() {
        let g = CallGraph::build(&ws(vec![(
            "app",
            vec![(
                "lib.rs",
                "// lint:hot-path\npub fn hot() { mid(); }\nfn mid() { deep(); }\nfn deep() {}\nfn cold() {}\n",
            )],
        )]));
        let hot = id(&g, "lib.rs", "hot");
        let deep = id(&g, "lib.rs", "deep");
        let cold = id(&g, "lib.rs", "cold");
        let (seen, parent) = g.reachable(&[hot]);
        assert!(seen[deep] && !seen[cold]);
        assert_eq!(g.chain(&parent, deep), vec!["hot", "mid", "deep"]);
    }

    #[test]
    fn constructors_and_keywords_are_not_calls() {
        let g = CallGraph::build(&ws(vec![(
            "app",
            vec![(
                "lib.rs",
                "fn f(x: u8) -> Option<u8> { if x > 1 { return Some(x); } while x > 9 { } None }\n",
            )],
        )]));
        let f = id(&g, "lib.rs", "f");
        assert!(g.edges[f].is_empty());
    }

    #[test]
    fn enclosing_fn_finds_smallest_body() {
        let g = CallGraph::build(&ws(vec![(
            "app",
            vec![(
                "lib.rs",
                "fn outer() { fn inner() { leaf(); } inner(); }\nfn leaf() {}\n",
            )],
        )]));
        let inner = id(&g, "lib.rs", "inner");
        let (s, _) = g.fns[inner].body;
        assert_eq!(g.enclosing_fn("lib.rs", s), Some(inner));
    }
}
