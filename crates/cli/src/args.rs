//! Tiny dependency-free argument parsing for the `netmaster` CLI.

use std::collections::HashMap;

/// Parsed command line: a subcommand, positional arguments, and
/// `--key value` / `--flag` options.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// The subcommand (first bare argument).
    pub command: String,
    /// Remaining positional arguments.
    pub positional: Vec<String>,
    /// `--key value` options (flags map to an empty string).
    pub options: HashMap<String, String>,
}

/// Option keys that are boolean flags (consume no value).
const FLAGS: &[&str] = &[
    "help",
    "quiet",
    "json",
    "prom",
    "index-guard",
    "serve",
    "series",
];

impl Args {
    /// Parses an argument vector (excluding `argv[0]`).
    pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = argv.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err("bare `--` is not supported".into());
                }
                if FLAGS.contains(&key) {
                    args.options.insert(key.to_owned(), String::new());
                } else {
                    let value = it
                        .next()
                        .ok_or_else(|| format!("option --{key} needs a value"))?;
                    args.options.insert(key.to_owned(), value);
                }
            } else if args.command.is_empty() {
                args.command = a;
            } else {
                args.positional.push(a);
            }
        }
        Ok(args)
    }

    /// Whether a boolean flag was given.
    pub fn flag(&self, key: &str) -> bool {
        self.options.contains_key(key)
    }

    /// String option with a default.
    pub fn opt<'a>(&'a self, key: &str, default: &'a str) -> &'a str {
        self.options.get(key).map(String::as_str).unwrap_or(default)
    }

    /// Parsed numeric option with a default.
    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.options.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key}: cannot parse {v:?}")),
        }
    }

    /// Required string option.
    pub fn required_opt(&self, key: &str) -> Result<&str, String> {
        self.options
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Result<Args, String> {
        Args::parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_command_positionals_and_options() {
        let a = parse("simulate trace.json --policy netmaster --days 7").unwrap();
        assert_eq!(a.command, "simulate");
        assert_eq!(a.positional, vec!["trace.json"]);
        assert_eq!(a.opt("policy", "x"), "netmaster");
        assert_eq!(a.num("days", 0u32).unwrap(), 7);
    }

    #[test]
    fn flags_take_no_value() {
        let a = parse("profile t.json --json --user 3").unwrap();
        assert!(a.flag("json"));
        assert_eq!(a.opt("user", ""), "3");
    }

    #[test]
    fn missing_value_is_an_error() {
        assert!(parse("generate --seed").is_err());
    }

    #[test]
    fn defaults_apply_when_options_absent() {
        let a = parse("generate").unwrap();
        assert_eq!(a.num("days", 21usize).unwrap(), 21);
        assert_eq!(a.opt("out", "trace.json"), "trace.json");
        assert_eq!(a.num::<u64>("days", 1).unwrap(), 1);
        assert!(a.required_opt("apps").is_err());
        let b = parse("filter --apps x,y").unwrap();
        assert_eq!(b.required_opt("apps").unwrap(), "x,y");
    }

    #[test]
    fn bad_number_is_an_error() {
        let a = parse("generate --days lots").unwrap();
        assert!(a.num::<u32>("days", 0).is_err());
    }

    #[test]
    fn empty_argv_is_empty_command() {
        let a = parse("").unwrap();
        assert_eq!(a.command, "");
    }
}
