//! Lint configuration: per-rule allow/deny plus rule options, read
//! from a `lint.toml` at the workspace root (same hand-rolled TOML
//! subset as the manifest reader).
//!
//! ```toml
//! [rules]
//! hot-path-alloc = "deny"
//! panic-hygiene  = "deny"
//!
//! [options]
//! index-guard = "off"   # L4's slice-index sub-check (see DESIGN.md)
//! ```

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;

/// The eight rule ids, in catalogue order. The last four are the
/// call-graph–aware concurrency rules (PR 9); `hot-path-alloc` is
/// transitive over the same graph.
pub const RULE_IDS: [&str; 8] = [
    "hot-path-alloc",
    "metric-names",
    "panic-hygiene",
    "determinism",
    "lock-order",
    "lock-across-io",
    "atomic-ordering",
    "thread-lifecycle",
];

/// Per-rule disposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Level {
    /// Rule runs; findings fail the lint.
    Deny,
    /// Rule is skipped entirely.
    Allow,
}

/// Resolved configuration for one run.
#[derive(Debug, Clone)]
pub struct LintConfig {
    /// Rule id → level (deny by default).
    pub rules: BTreeMap<String, Level>,
    /// L4's slice-index sub-check. Off by default: the codebase's
    /// fixed-size hourly arrays make a lexical index ban too noisy;
    /// fixtures and stricter configs can turn it on.
    pub index_guard: bool,
}

impl Default for LintConfig {
    fn default() -> Self {
        LintConfig {
            rules: RULE_IDS
                .iter()
                .map(|&r| (r.to_owned(), Level::Deny))
                .collect(),
            index_guard: false,
        }
    }
}

impl LintConfig {
    /// `true` when `rule` should run.
    pub fn denies(&self, rule: &str) -> bool {
        self.rules.get(rule).copied().unwrap_or(Level::Deny) == Level::Deny
    }

    /// Applies a `--allow r1,r2` / `--deny r1,r2` style override.
    pub fn set_level(&mut self, rule: &str, level: Level) -> Result<(), String> {
        if !RULE_IDS.contains(&rule) {
            return Err(format!(
                "unknown rule {rule:?} (rules: {})",
                RULE_IDS.join(", ")
            ));
        }
        self.rules.insert(rule.to_owned(), level);
        Ok(())
    }

    /// Loads `lint.toml` from `path`; a missing file yields defaults.
    pub fn load(path: &Path) -> Result<LintConfig, String> {
        let mut cfg = LintConfig::default();
        let text = match fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(cfg),
            Err(e) => return Err(format!("cannot read {}: {e}", path.display())),
        };
        let mut section = String::new();
        for (ln, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line.starts_with('[') {
                section = line.trim_matches(['[', ']']).to_owned();
                continue;
            }
            let Some((key, value)) = line.split_once('=') else {
                return Err(format!(
                    "{}:{}: expected key = value",
                    path.display(),
                    ln + 1
                ));
            };
            let key = key.trim();
            let value = value.trim().trim_matches('"');
            match section.as_str() {
                "rules" => {
                    let level = match value {
                        "deny" => Level::Deny,
                        "allow" => Level::Allow,
                        other => {
                            return Err(format!(
                                "{}:{}: rule level must be \"deny\" or \"allow\", got {other:?}",
                                path.display(),
                                ln + 1
                            ))
                        }
                    };
                    cfg.set_level(key, level)
                        .map_err(|e| format!("{}:{}: {e}", path.display(), ln + 1))?;
                }
                "options" => match key {
                    "index-guard" => {
                        cfg.index_guard = matches!(value, "on" | "true");
                    }
                    other => {
                        return Err(format!(
                            "{}:{}: unknown option {other:?}",
                            path.display(),
                            ln + 1
                        ))
                    }
                },
                other => {
                    return Err(format!(
                        "{}:{}: unknown section [{other}]",
                        path.display(),
                        ln + 1
                    ))
                }
            }
        }
        Ok(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write as _;

    #[test]
    fn defaults_deny_everything_with_index_guard_off() {
        let cfg = LintConfig::default();
        for r in RULE_IDS {
            assert!(cfg.denies(r));
        }
        assert!(!cfg.index_guard);
    }

    #[test]
    fn parses_overrides_and_rejects_typos() {
        let dir = std::env::temp_dir().join(format!("nmlint-cfg-{}", std::process::id()));
        let _ = fs::create_dir_all(&dir);
        let path = dir.join("lint.toml");
        let mut f = fs::File::create(&path).unwrap();
        writeln!(
            f,
            "[rules]\ndeterminism = \"allow\"  # trial\n[options]\nindex-guard = \"on\""
        )
        .unwrap();
        let cfg = LintConfig::load(&path).unwrap();
        assert!(!cfg.denies("determinism"));
        assert!(cfg.denies("panic-hygiene"));
        assert!(cfg.index_guard);

        let mut f = fs::File::create(&path).unwrap();
        writeln!(f, "[rules]\npanik = \"deny\"").unwrap();
        assert!(LintConfig::load(&path)
            .unwrap_err()
            .contains("unknown rule"));
    }

    #[test]
    fn missing_file_is_defaults() {
        let cfg = LintConfig::load(Path::new("/nonexistent/lint.toml")).unwrap();
        assert!(cfg.denies("metric-names"));
    }
}
