//! Per-file structural model built on the token stream: `#[cfg(test)]`
//! / `#[cfg(feature = "obs")]` regions, function bodies, inline
//! waivers, and `lint:hot-path` markers.
//!
//! The analysis is deliberately lexical: attribute regions are matched
//! by brace/semicolon extent, not a full parse. That is exact for the
//! item-level attributes this workspace uses and degrades conservatively
//! (a region found too small produces a lint *finding*, never a silent
//! pass of broken code).

use crate::lexer::{lex, Tok, TokKind};
use std::collections::BTreeSet;
use std::path::PathBuf;

/// What part of a crate a file belongs to — rules scope on this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileRole {
    /// Under `src/` (library or binary source).
    Src,
    /// Under `tests/`.
    TestDir,
    /// Under `examples/`.
    ExampleDir,
    /// Under `benches/`.
    BenchDir,
}

/// A `// lint:allow(rule, …) reason` waiver.
#[derive(Debug, Clone)]
pub struct Waiver {
    /// 1-based line of the waiver comment.
    pub line: u32,
    /// Rule ids the waiver covers.
    pub rules: Vec<String>,
    /// Justification text after the closing paren (empty = invalid).
    pub reason: String,
}

/// One `fn` item found in the file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Code-token index range of the body, braces exclusive.
    pub body: (usize, usize),
    /// `true` when a `// lint:hot-path` marker targets this function.
    pub hot_path: bool,
    /// `true` when the function sits inside an `impl` or `trait` body:
    /// an associated function, callable as `Type::name(…)`.
    pub associated: bool,
}

/// A lexed and structurally-annotated source file.
pub struct SourceFile {
    /// Path relative to the workspace root (display / finding anchor).
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Role by directory.
    pub role: FileRole,
    /// Non-comment tokens.
    pub code: Vec<Tok>,
    /// Comment tokens (line + block).
    pub comments: Vec<Tok>,
    /// Per-code-token: inside a `#[cfg(test)]` region.
    in_test: Vec<bool>,
    /// Per-code-token: inside a `#[cfg(feature = "obs")]` region.
    in_obs: Vec<bool>,
    /// Items under a `#[cfg(…)]` naming features: (first token, last
    /// token, the features named).
    feature_gates: Vec<(usize, usize, Vec<String>)>,
    /// The whole file is test-gated (declared `#[cfg(test)] mod x;`).
    pub file_test_gated: bool,
    /// The whole file is obs-gated (declared `#[cfg(feature = "obs")] mod x;`).
    pub file_obs_gated: bool,
    /// Functions (in token order).
    pub fns: Vec<FnInfo>,
    /// Waivers found in comments.
    pub waivers: Vec<Waiver>,
    /// Lines carrying a malformed `lint:` directive, with the problem.
    pub directive_errors: Vec<(u32, String)>,
    /// `mod name;` declarations with their gating, for module-tree
    /// propagation: (module name, test_gated, obs_gated).
    pub mod_decls: Vec<(String, bool, bool)>,
}

impl SourceFile {
    /// Lexes and annotates one file's source text.
    pub fn analyze(rel_path: String, abs_path: PathBuf, role: FileRole, src: &str) -> SourceFile {
        let toks = lex(src);
        let mut code = Vec::new();
        let mut comments = Vec::new();
        for t in toks {
            match t.kind {
                TokKind::LineComment | TokKind::BlockComment => comments.push(t),
                _ => code.push(t),
            }
        }
        let mut f = SourceFile {
            rel_path,
            abs_path,
            role,
            in_test: vec![false; code.len()],
            in_obs: vec![false; code.len()],
            feature_gates: Vec::new(),
            code,
            comments,
            file_test_gated: false,
            file_obs_gated: false,
            fns: Vec::new(),
            waivers: Vec::new(),
            directive_errors: Vec::new(),
            mod_decls: Vec::new(),
        };
        f.find_cfg_regions();
        f.find_fns();
        f.find_directives();
        f
    }

    /// `true` when code token `i` is inside test-gated code.
    pub fn is_test(&self, i: usize) -> bool {
        self.file_test_gated || self.in_test.get(i).copied().unwrap_or(false)
    }

    /// `true` when code token `i` is inside obs-feature-gated code.
    pub fn is_obs_gated(&self, i: usize) -> bool {
        self.file_obs_gated || self.in_obs.get(i).copied().unwrap_or(false)
    }

    /// `true` when code token `i` lies under a `#[cfg(feature = …)]`
    /// none of whose features is in `enabled` (the crate's default
    /// features): code the default build does not compile. `cfg(test)`
    /// regions are [`SourceFile::is_test`]'s business.
    pub fn is_feature_gated_off(&self, i: usize, enabled: &BTreeSet<String>) -> bool {
        self.feature_gates.iter().any(|(start, end, features)| {
            (*start..=*end).contains(&i) && features.iter().all(|f| !enabled.contains(f))
        })
    }

    /// A waiver for `rule` covering `line` (the waiver's own line or
    /// the line directly above). Returns the waiver index.
    pub fn waiver_for(&self, rule: &str, line: u32) -> Option<usize> {
        self.waivers.iter().position(|w| {
            (w.line == line || w.line + 1 == line)
                && !w.reason.is_empty()
                && w.rules.iter().any(|r| r == rule || r == "all")
        })
    }

    fn find_cfg_regions(&mut self) {
        let n = self.code.len();
        let mut i = 0usize;
        while i < n {
            // Outer attribute `#[ … ]` (skip inner `#![ … ]`).
            if self.code[i].is_punct('#') && i + 1 < n && self.code[i + 1].is_punct('[') {
                let close = match self.matching_bracket(i + 1) {
                    Some(c) => c,
                    None => break,
                };
                let (is_test, is_obs) = classify_cfg(&self.code[i + 2..close]);
                let features = cfg_features(&self.code[i + 2..close]);
                if is_test || is_obs || !features.is_empty() {
                    if let Some(end) = self.item_extent(close + 1) {
                        for k in close + 1..=end.min(n - 1) {
                            if is_test {
                                self.in_test[k] = true;
                            }
                            if is_obs {
                                self.in_obs[k] = true;
                            }
                        }
                        // `#[cfg(...)] mod name;` gates a whole child file.
                        self.record_gated_mod(close + 1, end, is_test, is_obs);
                        if !features.is_empty() {
                            self.feature_gates.push((close + 1, end, features));
                        }
                    }
                }
                i = close + 1;
                continue;
            }
            // Ungated `mod name;` still needs recording for the tree.
            if self.code[i].is_ident("mod")
                && i + 2 < n
                && self.code[i + 1].kind == TokKind::Ident
                && self.code[i + 2].is_punct(';')
                && !self.in_test[i]
                && !self.in_obs[i]
            {
                let name = self.code[i + 1].text.clone();
                self.mod_decls.push((name, false, false));
                i += 3;
                continue;
            }
            i += 1;
        }
    }

    fn record_gated_mod(&mut self, start: usize, end: usize, is_test: bool, is_obs: bool) {
        let mut j = start;
        // Skip stacked attributes and visibility.
        while j < end {
            if self.code[j].is_punct('#') && j < end && self.code[j + 1].is_punct('[') {
                match self.matching_bracket(j + 1) {
                    Some(c) => j = c + 1,
                    None => return,
                }
            } else if self.code[j].is_ident("pub") {
                if j < end && self.code[j + 1].is_punct('(') {
                    match self.matching_paren(j + 1) {
                        Some(c) => j = c + 1,
                        None => return,
                    }
                } else {
                    j += 1;
                }
            } else {
                break;
            }
        }
        if j + 2 <= end
            && self.code[j].is_ident("mod")
            && self.code[j + 1].kind == TokKind::Ident
            && self.code[j + 2].is_punct(';')
        {
            self.mod_decls
                .push((self.code[j + 1].text.clone(), is_test, is_obs));
        }
    }

    /// Extent of the item starting at token `start`: index of the
    /// terminating `;` or the matching `}` of its first brace. A `,`
    /// terminates only field/variant-style items (no item keyword
    /// seen) — commas in generic return types (`-> Result<(), E>`)
    /// must not truncate a gated `fn`'s extent.
    fn item_extent(&self, start: usize) -> Option<usize> {
        let n = self.code.len();
        let mut paren = 0i32;
        let mut bracket = 0i32;
        let mut saw_item_kw = false;
        let mut j = start;
        while j < n {
            let t = &self.code[j];
            if t.kind == TokKind::Ident
                && matches!(
                    t.text.as_str(),
                    "fn" | "mod"
                        | "struct"
                        | "enum"
                        | "trait"
                        | "impl"
                        | "use"
                        | "type"
                        | "const"
                        | "static"
                        | "macro_rules"
                )
            {
                saw_item_kw = true;
            }
            if t.kind == TokKind::Punct {
                match t.text.as_bytes().first() {
                    Some(b'(') => paren += 1,
                    Some(b')') => paren -= 1,
                    Some(b'[') => bracket += 1,
                    Some(b']') => bracket -= 1,
                    Some(b'{') if paren == 0 && bracket == 0 => {
                        return self.matching_brace(j);
                    }
                    Some(b';') if paren == 0 && bracket == 0 => {
                        return Some(j);
                    }
                    Some(b',') if paren == 0 && bracket == 0 && !saw_item_kw => {
                        return Some(j);
                    }
                    _ => {}
                }
            }
            j += 1;
        }
        None
    }

    fn matching_brace(&self, open: usize) -> Option<usize> {
        self.matching(open, '{', '}')
    }

    fn matching_bracket(&self, open: usize) -> Option<usize> {
        self.matching(open, '[', ']')
    }

    fn matching_paren(&self, open: usize) -> Option<usize> {
        self.matching(open, '(', ')')
    }

    fn matching(&self, open: usize, o: char, c: char) -> Option<usize> {
        let mut depth = 0i32;
        for (j, t) in self.code.iter().enumerate().skip(open) {
            if t.is_punct(o) {
                depth += 1;
            } else if t.is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return Some(j);
                }
            }
        }
        None
    }

    fn find_fns(&mut self) {
        // Hot-path marker lines, each claiming the next `fn`.
        let mut marker_lines: Vec<u32> = self
            .comments
            .iter()
            .filter(|c| c.text.trim_start().starts_with("lint:hot-path"))
            .map(|c| c.line)
            .collect();
        marker_lines.sort_unstable();

        let n = self.code.len();
        let blocks = self.impl_and_trait_bodies();
        let mut fns = Vec::new();
        let mut i = 0usize;
        while i < n {
            if self.code[i].is_ident("fn") && i + 1 < n && self.code[i + 1].kind == TokKind::Ident {
                let name = self.code[i + 1].text.clone();
                let line = self.code[i].line;
                // Find the body brace (or `;` for trait declarations).
                let mut j = i + 1;
                let mut paren = 0i32;
                let mut body = None;
                while j < n {
                    let t = &self.code[j];
                    if t.is_punct('(') {
                        paren += 1;
                    } else if t.is_punct(')') {
                        paren -= 1;
                    } else if paren == 0 && t.is_punct(';') {
                        break;
                    } else if paren == 0 && t.is_punct('{') {
                        if let Some(close) = self.matching_brace(j) {
                            body = Some((j + 1, close));
                        }
                        break;
                    }
                    j += 1;
                }
                if let Some(body) = body {
                    let hot = marker_lines
                        .iter()
                        .any(|&ml| ml < line && self.first_fn_line_at_or_after(ml) == Some(line));
                    fns.push(FnInfo {
                        name,
                        line,
                        body,
                        hot_path: hot,
                        associated: blocks.iter().any(|&(open, close)| open < i && i < close),
                    });
                }
            }
            i += 1;
        }
        self.fns = fns;
    }

    /// Brace ranges of the item-level `impl` and `trait` bodies. An
    /// `impl` in type position (`-> impl Iterator`, `x: impl Fn()`)
    /// follows a token no item can follow, and is skipped.
    fn impl_and_trait_bodies(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for (i, t) in self.code.iter().enumerate() {
            let item_start = match i.checked_sub(1).map(|p| &self.code[p]) {
                None => true,
                Some(p) if p.kind == TokKind::Punct => {
                    matches!(p.text.as_str(), "}" | ";" | "]" | "{" | ")")
                }
                Some(p) => p.is_ident("pub") || p.is_ident("unsafe") || p.is_ident("default"),
            };
            if !(t.is_ident("trait") || (t.is_ident("impl") && item_start)) {
                continue;
            }
            let body = self.code[i..]
                .iter()
                .position(|t| t.is_punct('{') || t.is_punct(';'))
                .map(|k| i + k)
                .filter(|&k| self.code[k].is_punct('{'));
            if let Some(open) = body {
                if let Some(close) = self.matching_brace(open) {
                    out.push((open, close));
                }
            }
        }
        out
    }

    fn first_fn_line_at_or_after(&self, line: u32) -> Option<u32> {
        self.code
            .iter()
            .enumerate()
            .filter(|(i, t)| {
                t.is_ident("fn")
                    && t.line > line
                    && self
                        .code
                        .get(i + 1)
                        .is_some_and(|nx| nx.kind == TokKind::Ident)
            })
            .map(|(_, t)| t.line)
            .next()
    }

    fn find_directives(&mut self) {
        for c in &self.comments {
            let text = c.text.trim_start();
            let Some(rest) = text.strip_prefix("lint:") else {
                continue;
            };
            if rest.starts_with("hot-path") {
                continue;
            }
            let Some(rest) = rest.strip_prefix("allow") else {
                self.directive_errors.push((
                    c.line,
                    format!("unknown lint directive `lint:{}`", rest.trim()),
                ));
                continue;
            };
            let rest = rest.trim_start();
            let Some(inner_and_tail) = rest.strip_prefix('(') else {
                self.directive_errors
                    .push((c.line, "lint:allow needs a (rule, …) list".to_owned()));
                continue;
            };
            let Some(close) = inner_and_tail.find(')') else {
                self.directive_errors
                    .push((c.line, "lint:allow is missing its closing paren".to_owned()));
                continue;
            };
            let rules: Vec<String> = inner_and_tail[..close]
                .split(',')
                .map(|r| r.trim().to_owned())
                .filter(|r| !r.is_empty())
                .collect();
            let reason = inner_and_tail[close + 1..].trim().to_owned();
            if rules.is_empty() {
                self.directive_errors
                    .push((c.line, "lint:allow lists no rules".to_owned()));
                continue;
            }
            self.waivers.push(Waiver {
                line: c.line,
                rules,
                reason,
            });
        }
    }
}

/// Classifies an attribute's token list: (`cfg(test)`-like,
/// `cfg(feature = "obs")`-like). `not(...)` attributes gate nothing.
fn classify_cfg(toks: &[Tok]) -> (bool, bool) {
    if !toks.first().is_some_and(|t| t.is_ident("cfg")) {
        return (false, false);
    }
    if toks.iter().any(|t| t.is_ident("not")) {
        return (false, false);
    }
    let has_test = toks.iter().any(|t| t.is_ident("test"));
    let has_obs_feature = toks
        .windows(3)
        .any(|w| w[0].is_ident("feature") && w[1].is_punct('=') && w[2].str_value() == Some("obs"));
    (has_test, has_obs_feature)
}

/// The features a `#[cfg(…)]` attribute names, or none when it is not
/// a `cfg` or negates (`not(...)` gates nothing out).
fn cfg_features(toks: &[Tok]) -> Vec<String> {
    if !toks.first().is_some_and(|t| t.is_ident("cfg")) || toks.iter().any(|t| t.is_ident("not")) {
        return Vec::new();
    }
    toks.windows(3)
        .filter(|w| w[0].is_ident("feature") && w[1].is_punct('='))
        .filter_map(|w| w[2].str_value().map(str::to_owned))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(src: &str) -> SourceFile {
        SourceFile::analyze(
            "mem.rs".into(),
            PathBuf::from("/mem.rs"),
            FileRole::Src,
            src,
        )
    }

    #[test]
    fn test_mod_region_is_detected() {
        let src =
            "fn prod() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\n";
        let f = file(src);
        let unwraps: Vec<usize> = f
            .code
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(unwraps.len(), 2);
        assert!(!f.is_test(unwraps[0]));
        assert!(f.is_test(unwraps[1]));
    }

    #[test]
    fn obs_gated_item_and_mod_decl() {
        let src = "#[cfg(feature = \"obs\")]\npub mod watchtower;\nfn open() {}\n#[cfg(feature = \"obs\")]\nfn gated() { scrape(); }\n";
        let f = file(src);
        assert_eq!(f.mod_decls, vec![("watchtower".to_owned(), false, true)]);
        let scrape = f.code.iter().position(|t| t.is_ident("scrape")).unwrap();
        assert!(f.is_obs_gated(scrape));
        let open = f.code.iter().position(|t| t.is_ident("open")).unwrap();
        assert!(!f.is_obs_gated(open));
    }

    #[test]
    fn negated_cfg_gates_nothing() {
        let src = "#[cfg(not(test))]\nfn prod() { a.unwrap(); }\n#[cfg(not(feature = \"obs\"))]\nfn stub() { b(); }\n";
        let f = file(src);
        assert!(f.in_test.iter().all(|&x| !x));
        assert!(f.in_obs.iter().all(|&x| !x));
    }

    #[test]
    fn hot_path_marker_binds_to_next_fn() {
        let src = "fn cold() {}\n// lint:hot-path\n#[inline]\npub fn hot(x: u8) { go(); }\nfn also_cold() {}\n";
        let f = file(src);
        let flags: Vec<(String, bool)> =
            f.fns.iter().map(|f| (f.name.clone(), f.hot_path)).collect();
        assert_eq!(
            flags,
            vec![
                ("cold".to_owned(), false),
                ("hot".to_owned(), true),
                ("also_cold".to_owned(), false)
            ]
        );
    }

    #[test]
    fn waivers_parse_with_and_without_reason() {
        let src = "// lint:allow(panic-hygiene) mutex poisoning is unrecoverable\nx.unwrap();\n// lint:allow(determinism)\ny();\n";
        let f = file(src);
        assert_eq!(f.waivers.len(), 2);
        assert_eq!(f.waivers[0].rules, vec!["panic-hygiene"]);
        assert!(!f.waivers[0].reason.is_empty());
        assert!(f.waivers[1].reason.is_empty());
        // Covering: own line + next line; reasonless waivers never match.
        assert!(f.waiver_for("panic-hygiene", 2).is_some());
        assert!(f.waiver_for("determinism", 4).is_none());
    }

    #[test]
    fn malformed_directives_are_errors() {
        let f = file("// lint:allow panic-hygiene missing parens\nfn a() {}\n// lint:deny(x)\n");
        assert_eq!(f.directive_errors.len(), 2);
    }

    #[test]
    fn fn_bodies_span_their_braces() {
        let src = "fn outer(a: [u8; 2]) -> Result<(), ()> { inner(); Ok(()) }\nfn next() {}\n";
        let f = file(src);
        assert_eq!(f.fns[0].name, "outer");
        let (b, e) = f.fns[0].body;
        assert!(f.code[b..e].iter().any(|t| t.is_ident("inner")));
        assert!(!f.code[b..e].iter().any(|t| t.is_ident("next")));
    }
}
