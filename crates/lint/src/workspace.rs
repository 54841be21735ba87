//! Workspace discovery: enumerates the project's crates, parses their
//! manifests (a hand-rolled TOML subset — enough for `[dependencies]`
//! and `[features]`), lexes every source file, and propagates
//! `#[cfg(...)] mod x;` gating down the module tree.
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

/// One parsed dependency entry.
#[derive(Debug, Clone, Default)]
pub struct DepEntry {
    /// `default-features = false` was given (directly or via the
    /// workspace dependency table).
    pub default_features_off: bool,
}

/// The subset of a `Cargo.toml` the lint rules need.
#[derive(Debug, Clone, Default)]
pub struct Manifest {
    /// `[package] name`.
    pub name: String,
    /// `[dependencies]` (name → entry).
    pub deps: BTreeMap<String, DepEntry>,
    /// `[dev-dependencies]` names.
    pub dev_deps: BTreeMap<String, DepEntry>,
    /// `[features]` (name → forwarded entries).
    pub features: BTreeMap<String, Vec<String>>,
    /// `[workspace.dependencies]` (root manifest only).
    pub workspace_deps: BTreeMap<String, DepEntry>,
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
    /// Root manifest (for `[workspace.dependencies]` checks).
    pub root_manifest: Manifest,
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
    let root_manifest = parse_manifest(&root.join("Cargo.toml"))?;
    let mut crates = Vec::new();

    // The root package.
    crates.push(load_crate(root, root, String::new(), &root_manifest)?);

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
        crates.push(load_crate(root, &dir, rel, &root_manifest)?);
    }

    Ok(Workspace {
        root: root.to_path_buf(),
        crates,
        root_manifest,
    })
}

fn load_crate(
    root: &Path,
    dir: &Path,
    rel_dir: String,
    root_manifest: &Manifest,
) -> Result<CrateInfo, LoadError> {
    let mut manifest = parse_manifest(&dir.join("Cargo.toml"))?;
    // A `name.workspace = true` dependency inherits the root table's
    // default-features setting.
    for (name, entry) in manifest.deps.iter_mut().chain(manifest.dev_deps.iter_mut()) {
        if let Some(ws) = root_manifest.workspace_deps.get(name) {
            entry.default_features_off |= ws.default_features_off;
        }
    }

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

/// Pushes `#[cfg(test)]` / `#[cfg(feature = "obs")]` gates on
/// `mod x;` declarations down to the declared files, transitively.
fn propagate_mod_gates(files: &mut [SourceFile]) {
    // (dir that child modules resolve against, decl name, test, obs)
    let mut pending: Vec<(PathBuf, String, bool, bool)> = Vec::new();
    for f in files.iter() {
        let base = module_child_dir(&f.abs_path);
        for (name, test, obs) in &f.mod_decls {
            pending.push((base.clone(), name.clone(), *test, *obs));
        }
    }
    // Fixpoint: a gated parent gates its children's declarations too.
    let mut changed = true;
    while changed {
        changed = false;
        for (base, name, test, obs) in pending.clone() {
            let child_rs = base.join(format!("{name}.rs"));
            let child_mod = base.join(name.clone()).join("mod.rs");
            for f in files.iter_mut() {
                if f.abs_path == child_rs || f.abs_path == child_mod {
                    let new_test = f.file_test_gated || test;
                    let new_obs = f.file_obs_gated || obs;
                    if new_test != f.file_test_gated || new_obs != f.file_obs_gated {
                        f.file_test_gated = new_test;
                        f.file_obs_gated = new_obs;
                        changed = true;
                    }
                    if new_test || new_obs {
                        let child_base = module_child_dir(&f.abs_path);
                        for (n, t, o) in &f.mod_decls {
                            let entry =
                                (child_base.clone(), n.clone(), new_test || *t, new_obs || *o);
                            if !pending.contains(&entry) {
                                pending.push(entry);
                                changed = true;
                            }
                        }
                    }
                }
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
            "dependencies" | "dev-dependencies" | "workspace.dependencies" => {
                let (dep_name, entry) = parse_dep(key, value);
                match section.as_str() {
                    "dependencies" => {
                        m.deps.insert(dep_name, entry);
                    }
                    "dev-dependencies" => {
                        m.dev_deps.insert(dep_name, entry);
                    }
                    _ => {
                        m.workspace_deps.insert(dep_name, entry);
                    }
                }
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

fn parse_dep(key: &str, value: &str) -> (String, DepEntry) {
    // `dep.workspace = true` / `dep.features = [...]` dotted form.
    let dep_name = key.split('.').next().unwrap_or(key).trim().to_owned();
    let mut entry = DepEntry::default();
    if value.contains("default-features") {
        // `{ ..., default-features = false }` inline table.
        if let Some(rest) = value.split("default-features").nth(1) {
            entry.default_features_off = rest.trim_start_matches([' ', '=']).starts_with("false");
        }
    }
    (dep_name, entry)
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
other = { path = "../other", default-features = false }

[features]
default = ["obs"]
obs = [
    "netmaster-obs/enabled",
    "other/obs",
]
"#,
        );
        let m = parse_manifest(&path).unwrap();
        assert_eq!(m.name, "demo");
        assert!(m.deps.contains_key("netmaster-obs"));
        assert!(m.deps["other"].default_features_off);
        assert_eq!(m.features["default"], vec!["obs"]);
        assert_eq!(
            m.features["obs"],
            vec!["netmaster-obs/enabled", "other/obs"]
        );
    }

    #[test]
    fn workspace_dep_table_is_separated() {
        let path = tmp_manifest(
            "[workspace.dependencies]\nnetmaster-obs = { path = \"crates/obs\", default-features = false }\n",
        );
        let m = parse_manifest(&path).unwrap();
        assert!(m.workspace_deps["netmaster-obs"].default_features_off);
        assert!(m.deps.is_empty());
    }
}
