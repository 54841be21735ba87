//! L3 `metric-names`: one source of truth for observability names.
//!
//! `crates/obs/src/registry_names.rs` declares every metric as one row
//! of its `metrics!` table (`IDENT = "name": "help text";`, so HELP text
//! cannot be missing) and every journal event kind as a `const`. This
//! rule checks, in order:
//!
//! 1. the registry exists and its names are well-formed (metrics in
//!    the Prometheus charset `[a-z_][a-z0-9_]*`, kinds CamelCase) and
//!    duplicate-free;
//! 2. every *literal* metric name at an instrumentation site
//!    (`counter!`, `observe!`, `gauge_set`/`gauge_max`, `timer!`, and
//!    `span!` after its `stage_<name>_seconds` expansion) is registered;
//! 3. the telemetry-plane modules (`obs/src/serve.rs`, `obs/src/hub.rs`,
//!    `obs/src/spantree.rs`, `obs/src/profile.rs`) mint no
//!    metric-shaped string outside the registry;
//! 4. the `DecisionEvent` enum's variants and the registry's kind
//!    consts match exactly, both directions;
//! 5. docs drift: every registered name appears in DESIGN.md or
//!    EXPERIMENTS.md, and every metric-shaped backtick token in those
//!    docs is registered.

use super::{emit, emit_unwaivable, WaiverLedger};
use crate::config::LintConfig;
use crate::lexer::TokKind;
use crate::report::Report;
use crate::source::{FileRole, SourceFile};
use crate::workspace::Workspace;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;

const RULE: &str = "metric-names";
const REGISTRY_SUFFIX: &str = "registry_names.rs";
const DOC_FILES: &[&str] = &["DESIGN.md", "EXPERIMENTS.md"];

/// Runs L3 across the workspace.
pub fn check(
    ws: &Workspace,
    _graph: &crate::callgraph::CallGraph,
    _cfg: &LintConfig,
    report: &mut Report,
    ledger: &mut WaiverLedger,
) {
    let Some(registry) = ws
        .crates
        .iter()
        .flat_map(|c| c.files.iter())
        .find(|f| f.rel_path.ends_with(REGISTRY_SUFFIX))
    else {
        emit_unwaivable(
            report,
            RULE,
            "(workspace)",
            0,
            format!("metric-name registry `{REGISTRY_SUFFIX}` not found — it is the single source of truth for metric/journal names"),
        );
        return;
    };
    let reg_path = registry.rel_path.clone();

    // --- 1. Parse + validate the registry itself. ---
    let names = registry_names(registry);
    let mut metrics: BTreeMap<String, u32> = BTreeMap::new(); // value -> line
    let mut kinds: BTreeMap<String, u32> = BTreeMap::new();
    for (value, line) in &names {
        let table = if value.chars().next().is_some_and(|c| c.is_ascii_uppercase()) {
            if !value.chars().all(|c| c.is_ascii_alphanumeric()) {
                emit_unwaivable(
                    report,
                    RULE,
                    &reg_path,
                    *line,
                    format!("journal kind {value:?} must be CamelCase alphanumeric"),
                );
            }
            &mut kinds
        } else {
            if !is_prometheus_name(value) {
                emit_unwaivable(
                    report,
                    RULE,
                    &reg_path,
                    *line,
                    format!(
                        "metric name {value:?} must match [a-z_][a-z0-9_]* (Prometheus charset)"
                    ),
                );
            }
            &mut metrics
        };
        if table.insert(value.clone(), *line).is_some() {
            emit_unwaivable(
                report,
                RULE,
                &reg_path,
                *line,
                format!("duplicate registry entry {value:?}"),
            );
        }
    }

    // --- 2. Literal instrumentation sites must be registered. ---
    for krate in &ws.crates {
        for file in &krate.files {
            if file.role != FileRole::Src || file.rel_path.ends_with(REGISTRY_SUFFIX) {
                continue;
            }
            for (line, name, site) in literal_sites(file) {
                if !metrics.contains_key(&name) {
                    emit(
                        report,
                        ledger,
                        file,
                        RULE,
                        line,
                        format!("{site} uses unregistered metric name {name:?} — add it to {REGISTRY_SUFFIX}"),
                    );
                }
            }
        }
    }

    // --- 3. Telemetry-plane modules must not mint metric names. ---
    for krate in &ws.crates {
        for file in &krate.files {
            let plane = file.rel_path.ends_with("obs/src/serve.rs")
                || file.rel_path.ends_with("obs/src/hub.rs")
                || file.rel_path.ends_with("obs/src/spantree.rs")
                || file.rel_path.ends_with("obs/src/profile.rs");
            if !plane || file.role != FileRole::Src {
                continue;
            }
            for i in 0..file.code.len() {
                if file.is_test(i) {
                    continue;
                }
                if let Some(v) = file.code[i].str_value() {
                    if looks_like_metric(v) && !metrics.contains_key(v) {
                        emit(
                            report,
                            ledger,
                            file,
                            RULE,
                            file.code[i].line,
                            format!("telemetry-plane string {v:?} is metric-shaped but unregistered — add it to {REGISTRY_SUFFIX}"),
                        );
                    }
                }
            }
        }
    }

    // --- 4. DecisionEvent variants <-> kind consts, both directions. ---
    if let Some((journal, variants)) = decision_event_variants(ws) {
        for (variant, line) in &variants {
            if !kinds.contains_key(variant) {
                emit_unwaivable(
                    report,
                    RULE,
                    &journal,
                    *line,
                    format!("DecisionEvent::{variant} has no kind const in {REGISTRY_SUFFIX}"),
                );
            }
        }
        let variant_names: BTreeSet<&String> = variants.iter().map(|(v, _)| v).collect();
        for (kind, line) in &kinds {
            if !variant_names.contains(kind) {
                emit_unwaivable(
                    report,
                    RULE,
                    &reg_path,
                    *line,
                    format!("registry kind {kind:?} matches no DecisionEvent variant"),
                );
            }
        }
    }

    // --- 5. Docs drift, both directions. ---
    let mut docs_text = String::new();
    let mut any_docs = false;
    for doc in DOC_FILES {
        let path = ws.root.join(doc);
        if let Ok(text) = fs::read_to_string(&path) {
            any_docs = true;
            // Direction docs -> registry.
            for (line_no, token) in backtick_metric_tokens(&text) {
                if !metrics.contains_key(&token) {
                    emit_unwaivable(
                        report,
                        RULE,
                        doc,
                        line_no,
                        format!(
                            "documented metric {token:?} is not in {REGISTRY_SUFFIX} (docs drift)"
                        ),
                    );
                }
            }
            docs_text.push_str(&text);
            docs_text.push('\n');
        }
    }
    if !any_docs {
        emit_unwaivable(
            report,
            RULE,
            "(workspace)",
            0,
            format!("none of {DOC_FILES:?} exist — registered metrics must be documented"),
        );
        return;
    }
    // Direction registry -> docs.
    for (value, line) in metrics.iter().chain(kinds.iter()) {
        if !docs_text.contains(value.as_str()) {
            emit_unwaivable(
                report,
                RULE,
                &reg_path,
                *line,
                format!("registered name {value:?} appears in none of {DOC_FILES:?} (docs drift)"),
            );
        }
    }
}

/// `(name, line)` pairs from the registry file: the name literal of
/// each `metrics!` table row `IDENT = "name": "help";` and of each
/// plain `const IDENT: &str = "name";`.
fn registry_names(file: &SourceFile) -> Vec<(String, u32)> {
    let code = &file.code;
    let mut out = Vec::new();
    for i in 0..code.len() {
        if file.is_test(i) {
            continue;
        }
        let name = if code[i].is_ident("const") {
            // The first literal before the const's `;`.
            code.iter()
                .skip(i + 1)
                .take_while(|t| !t.is_punct(';'))
                .find_map(|t| t.str_value())
        } else if code[i].kind == TokKind::Ident
            && code.get(i + 1).is_some_and(|t| t.is_punct('='))
            && code.get(i + 3).is_some_and(|t| t.is_punct(':'))
        {
            // The literal between `=` and `:`.
            code.get(i + 2).and_then(|t| t.str_value())
        } else {
            None
        };
        if let Some(v) = name {
            out.push((v.to_owned(), code[i].line));
        }
    }
    out
}

/// Literal metric names at instrumentation sites in one file:
/// `(line, resolved metric name, site description)`.
fn literal_sites(file: &SourceFile) -> Vec<(u32, String, &'static str)> {
    let code = &file.code;
    let mut out = Vec::new();
    for i in 0..code.len() {
        if file.is_test(i) {
            continue;
        }
        let t = &code[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        // Macros: name ! ( "literal"
        let macro_site = code.get(i + 1).is_some_and(|n| n.is_punct('!'))
            && code.get(i + 2).is_some_and(|n| n.is_punct('('));
        if macro_site {
            if let Some(lit) = code.get(i + 3).and_then(|a| a.str_value()) {
                match t.text.as_str() {
                    "counter" => out.push((t.line, lit.to_owned(), "counter!")),
                    "observe" => out.push((t.line, lit.to_owned(), "observe!")),
                    "timer" => out.push((t.line, lit.to_owned(), "timer!")),
                    "span" => out.push((t.line, format!("stage_{lit}_seconds"), "span!")),
                    _ => {}
                }
            }
            continue;
        }
        // Functions: gauge_set("literal", …) / gauge_max("literal", …)
        if matches!(t.text.as_str(), "gauge_set" | "gauge_max")
            && code.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            if let Some(lit) = code.get(i + 2).and_then(|a| a.str_value()) {
                out.push((t.line, lit.to_owned(), "gauge"));
            }
        }
    }
    out
}

/// Finds `enum DecisionEvent { … }` anywhere in the workspace and
/// returns (defining file rel_path, [(variant, line)]).
fn decision_event_variants(ws: &Workspace) -> Option<(String, Vec<(String, u32)>)> {
    for krate in &ws.crates {
        for file in &krate.files {
            let code = &file.code;
            for i in 0..code.len() {
                if !(code[i].is_ident("enum")
                    && code.get(i + 1).is_some_and(|t| t.is_ident("DecisionEvent")))
                {
                    continue;
                }
                // Find the enum body braces.
                let open = (i + 2..code.len()).find(|&j| code[j].is_punct('{'))?;
                let mut depth = 0i32;
                let mut variants = Vec::new();
                let mut j = open;
                while j < code.len() {
                    if code[j].is_punct('{') {
                        depth += 1;
                    } else if code[j].is_punct('}') {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    } else if depth == 1
                        && code[j].kind == TokKind::Ident
                        && code[j]
                            .text
                            .chars()
                            .next()
                            .is_some_and(|c| c.is_ascii_uppercase())
                    {
                        let next_is_sep = code
                            .get(j + 1)
                            .is_some_and(|n| n.is_punct('{') || n.is_punct('(') || n.is_punct(','));
                        // Skip attribute contents like #[derive(Debug)].
                        let prev_is_attr =
                            j >= 1 && (code[j - 1].is_punct('[') || code[j - 1].is_punct('('));
                        if next_is_sep && !prev_is_attr {
                            variants.push((code[j].text.clone(), code[j].line));
                        }
                    }
                    j += 1;
                }
                if !variants.is_empty() {
                    return Some((file.rel_path.clone(), variants));
                }
            }
        }
    }
    None
}

/// `[a-z_][a-z0-9_]*`, at least one underscore (metric-shaped).
fn is_prometheus_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_lowercase() || c == '_')
        && s.chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '_')
}

/// Backtick-quoted tokens in markdown that look like metric names:
/// `(1-based line, token)`.
fn backtick_metric_tokens(text: &str) -> Vec<(u32, String)> {
    let mut out = Vec::new();
    for (ln, line) in text.lines().enumerate() {
        // Odd-indexed split segments are inside backticks.
        for (idx, seg) in line.split('`').enumerate() {
            if idx % 2 == 1 && looks_like_metric(seg) {
                out.push((ln as u32 + 1, seg.to_owned()));
            }
        }
    }
    out
}

/// Heuristic for "this doc token claims to be one of our metrics".
fn looks_like_metric(s: &str) -> bool {
    is_prometheus_name(s)
        && s.contains('_')
        && (s.ends_with("_total")
            || s.ends_with("_seconds")
            || s.ends_with("_highwater")
            || s.starts_with("stage_"))
}
