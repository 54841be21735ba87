//! Workspace discovery: enumerates the project's crates, parses their
//! manifests (a hand-rolled TOML subset — enough for `[dependencies]`
//! and `[features]`), lexes every source file, and propagates
//! `#[cfg(test)] mod x;` gating down the module tree.
//!
//! Scope policy: the root package plus everything under `crates/` is
//! linted; `vendor/` holds offline stand-ins for external dependencies
//! (third-party API surface, not project code) and is excluded, as is
//! any path containing a `fixtures` component (deliberate violations
//! used by the lint engine's own tests) and build output under
//! `target/`.

use crate::source::{FileRole, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};

/// The subset of a `Cargo.toml` the lint rules need.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `[package] name`.
    pub name: String,
    /// `[dependencies]` names.
    pub deps: BTreeSet<String>,
    /// `[features]` (name → forwarded entries).
    pub features: BTreeMap<String, Vec<String>>,
}

impl Manifest {
    /// The package's own features a default build enables: `default`
    /// and everything it forwards to, transitively. Entries that
    /// enable a dependency's feature (`dep/feature`, `dep:name`) are not
    /// the package's own and are left out.
    pub fn default_features(&self) -> BTreeSet<String> {
        let mut on = BTreeSet::new();
        let mut stack = vec!["default".to_owned()];
        while let Some(f) = stack.pop() {
            if let Some(forwards) = self.features.get(&f) {
                stack.extend(
                    forwards
                        .iter()
                        .filter(|e| !e.contains('/') && !e.starts_with("dep:"))
                        .filter(|e| !on.contains(*e))
                        .cloned(),
                );
            }
            on.insert(f);
        }
        on
    }
}

/// One workspace member with its parsed sources.
pub struct CrateInfo {
    /// Package name from the manifest.
    pub name: String,
    /// Directory relative to the workspace root (`""` for the root).
    pub rel_dir: String,
    /// Parsed manifest.
    pub manifest: Manifest,
    /// Analyzed source files.
    pub files: Vec<SourceFile>,
}

/// The whole analyzed workspace.
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// Members (root package first, then `crates/*` sorted by name).
    pub crates: Vec<CrateInfo>,
}

/// Errors from workspace loading.
#[derive(Debug)]
pub struct LoadError(pub String);

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for LoadError {}

/// Walks up from `start` to the first directory whose `Cargo.toml`
/// contains a `[workspace]` table.
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.lines().any(|l| l.trim() == "[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Loads and analyzes the workspace rooted at `root`.
pub fn load(root: &Path) -> Result<Workspace, LoadError> {
    let mut crates = Vec::new();

    // The root package.
    crates.push(load_crate(root, root, String::new())?);

    // crates/* members, sorted for deterministic output.
    let crates_dir = root.join("crates");
    let mut dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)
        .map_err(|e| LoadError(format!("cannot read {}: {e}", crates_dir.display())))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.join("Cargo.toml").is_file())
        .collect();
    dirs.sort();
    for dir in dirs {
        let rel = format!(
            "crates/{}",
            dir.file_name().and_then(|n| n.to_str()).unwrap_or("?")
        );
        crates.push(load_crate(root, &dir, rel)?);
    }

    Ok(Workspace {
        root: root.to_path_buf(),
        crates,
    })
}

fn load_crate(root: &Path, dir: &Path, rel_dir: String) -> Result<CrateInfo, LoadError> {
    let manifest = parse_manifest(&dir.join("Cargo.toml"))?;

    let mut files = Vec::new();
    for (sub, role) in [
        ("src", FileRole::Src),
        ("tests", FileRole::TestDir),
        ("examples", FileRole::ExampleDir),
        ("benches", FileRole::BenchDir),
    ] {
        let base = dir.join(sub);
        if base.is_dir() {
            collect_rs(root, &base, role, &mut files)?;
        }
    }
    files.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    propagate_mod_gates(&mut files);
    Ok(CrateInfo {
        name: manifest.name.clone(),
        rel_dir,
        manifest,
        files,
    })
}

fn collect_rs(
    root: &Path,
    dir: &Path,
    role: FileRole,
    out: &mut Vec<SourceFile>,
) -> Result<(), LoadError> {
    let entries =
        fs::read_dir(dir).map_err(|e| LoadError(format!("cannot read {}: {e}", dir.display())))?;
    for entry in entries.filter_map(|e| e.ok()) {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name == "fixtures" || name == "target" || name.starts_with('.') {
            continue;
        }
        if path.is_dir() {
            collect_rs(root, &path, role, out)?;
        } else if name.ends_with(".rs") {
            let src = fs::read_to_string(&path)
                .map_err(|e| LoadError(format!("cannot read {}: {e}", path.display())))?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            out.push(SourceFile::analyze(rel, path, role, &src));
        }
    }
    Ok(())
}

/// Pushes `#[cfg(test)]` gates on `mod x;` declarations down to the
/// declared files, transitively.
fn propagate_mod_gates(files: &mut [SourceFile]) {
    // (dir that child modules resolve against, decl name) of every
    // test-gated declaration not yet applied.
    let mut pending: Vec<(PathBuf, String)> = files
        .iter()
        .flat_map(|f| {
            let base = module_child_dir(&f.abs_path);
            f.mod_decls
                .iter()
                .filter(|(_, test)| *test)
                .map(move |(name, _)| (base.clone(), name.clone()))
        })
        .collect();
    // A gated file gates every module it declares in turn.
    while let Some((base, name)) = pending.pop() {
        let child_rs = base.join(format!("{name}.rs"));
        let child_mod = base.join(&name).join("mod.rs");
        for f in files.iter_mut() {
            if (f.abs_path == child_rs || f.abs_path == child_mod) && !f.file_test_gated {
                f.file_test_gated = true;
                let child_base = module_child_dir(&f.abs_path);
                pending.extend(
                    f.mod_decls
                        .iter()
                        .map(|(n, _)| (child_base.clone(), n.clone())),
                );
            }
        }
    }
}

/// The directory a file's `mod x;` declarations resolve in.
fn module_child_dir(file: &Path) -> PathBuf {
    let dir = file.parent().unwrap_or(Path::new("")).to_path_buf();
    let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
    match stem {
        "lib" | "main" | "mod" => dir,
        _ => dir.join(stem),
    }
}

/// Parses the TOML subset this workspace's manifests use: `[section]`
/// headers, `key = value` lines (strings, booleans, arrays possibly
/// spanning lines, inline tables), and dotted keys
/// (`dep.workspace = true`).
pub fn parse_manifest(path: &Path) -> Result<Manifest, LoadError> {
    let text = fs::read_to_string(path)
        .map_err(|e| LoadError(format!("cannot read {}: {e}", path.display())))?;
    let mut m = Manifest::default();
    let mut section = String::new();
    let mut buf = String::new();
    for raw in text.lines() {
        let line = strip_toml_comment(raw);
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        if buf.is_empty() && line.starts_with('[') {
            section = line.trim_matches(['[', ']']).to_owned();
            continue;
        }
        buf.push_str(line);
        buf.push(' ');
        // A logical line ends when brackets/braces balance.
        if !balanced(&buf) {
            continue;
        }
        let logical = std::mem::take(&mut buf);
        let Some((key, value)) = logical.split_once('=') else {
            continue;
        };
        let key = key.trim();
        let value = value.trim();
        match section.as_str() {
            "package" if key == "name" => {
                m.name = unquote(value).to_owned();
            }
            "dependencies" => {
                // `dep = { … }` or the dotted `dep.workspace = true` form.
                m.deps
                    .insert(key.split('.').next().unwrap_or(key).trim().to_owned());
            }
            "features" => {
                m.features.insert(key.to_owned(), parse_string_array(value));
            }
            _ => {}
        }
    }
    if m.name.is_empty() {
        m.name = path
            .parent()
            .and_then(|p| p.file_name())
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
    }
    Ok(m)
}

fn parse_string_array(value: &str) -> Vec<String> {
    value
        .trim_matches(['[', ']', ' '])
        .split(',')
        .map(|s| unquote(s.trim()).to_owned())
        .filter(|s| !s.is_empty())
        .collect()
}

fn unquote(s: &str) -> &str {
    s.trim().trim_matches('"')
}

fn balanced(s: &str) -> bool {
    let mut depth = 0i32;
    let mut in_str = false;
    for c in s.chars() {
        match c {
            '"' => in_str = !in_str,
            '[' | '{' if !in_str => depth += 1,
            ']' | '}' if !in_str => depth -= 1,
            _ => {}
        }
    }
    depth == 0 && !in_str
}

fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    fn tmp_manifest(content: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "nmlint-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("Cargo.toml");
        let mut f = fs::File::create(&path).unwrap();
        f.write_all(content.as_bytes()).unwrap();
        path
    }

    #[test]
    fn parses_deps_features_and_multiline_arrays() {
        let path = tmp_manifest(
            r#"
[package]
name = "demo" # trailing comment

[dependencies]
netmaster-obs.workspace = true
other = { path = "../other" }

[dev-dependencies]
rand.workspace = true

[features]
default = ["strict"]
strict = [
    "netmaster-knapsack/strict",
    "other/strict",
]
"#,
        );
        let m = parse_manifest(&path).unwrap();
        assert_eq!(m.name, "demo");
        assert_eq!(
            m.deps,
            BTreeSet::from(["netmaster-obs".to_owned(), "other".to_owned()])
        );
        assert_eq!(m.features["default"], vec!["strict"]);
        assert_eq!(
            m.features["strict"],
            vec!["netmaster-knapsack/strict", "other/strict"]
        );
    }

    #[test]
    fn workspace_dep_table_is_not_a_dependency() {
        let path =
            tmp_manifest("[workspace.dependencies]\nnetmaster-obs = { path = \"crates/obs\" }\n");
        let m = parse_manifest(&path).unwrap();
        assert!(m.deps.is_empty());
    }
}
