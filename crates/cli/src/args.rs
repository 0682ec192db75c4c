//! Minimal `--flag value` argument parser (no external dependencies).

use std::collections::BTreeMap;
use std::fmt;

/// Why a command failed. An argument error is answered with the usage
/// text after its `error:` line; any other failure with that line alone.
#[derive(Debug, PartialEq)]
pub enum CliError {
    /// The command line is wrong: no or an unknown subcommand, a bad or
    /// missing flag or argument.
    Usage(String),
    /// The work failed: a file that cannot be read or parsed, a refused
    /// run, a service error.
    Failed(String),
}

impl CliError {
    /// An argument error.
    pub fn usage(message: impl Into<String>) -> Self {
        CliError::Usage(message.into())
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError::Failed(message)
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(message) | CliError::Failed(message) => f.write_str(message),
        }
    }
}

/// Parsed positionals + `--key value` flags.
#[derive(Debug, Default)]
pub struct Args {
    positional: Vec<String>,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
}

impl Args {
    /// Parses `argv` (after the subcommand). `--key value` and
    /// `--key=value` pairs become flags; a trailing `--key` with no value
    /// (or followed by another flag) is a boolean switch. Values that
    /// themselves start with `--` must use the `--key=value` form —
    /// `--delta --5` reads `--5` as a (malformed) flag, not a value.
    pub fn parse(argv: &[String]) -> Result<Args, CliError> {
        let mut out = Args::default();
        let mut i = 0;
        while i < argv.len() {
            let a = &argv[i];
            if let Some(key) = a.strip_prefix("--") {
                if key.is_empty() {
                    return Err(CliError::usage("bare `--` is not a flag"));
                }
                if let Some((key, value)) = key.split_once('=') {
                    if key.is_empty() {
                        return Err(CliError::usage(format!("missing flag name in `{a}`")));
                    }
                    out.flags.insert(key.to_string(), value.to_string());
                    i += 1;
                    continue;
                }
                let next_is_value = argv.get(i + 1).is_some_and(|n| !n.starts_with("--"));
                if next_is_value {
                    out.flags.insert(key.to_string(), argv[i + 1].clone());
                    i += 2;
                } else {
                    out.switches.push(key.to_string());
                    i += 1;
                }
            } else {
                out.positional.push(a.clone());
                i += 1;
            }
        }
        Ok(out)
    }

    /// The `n`-th positional argument.
    pub fn positional(&self, n: usize) -> Option<&str> {
        self.positional.get(n).map(String::as_str)
    }

    /// A string flag value.
    pub fn flag(&self, key: &str) -> Option<&str> {
        self.flags.get(key).map(String::as_str)
    }

    /// A typed flag value: `Ok(None)` when absent, `Err` when present but
    /// unparseable.
    pub fn flag_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, CliError> {
        match self.flags.get(key) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| CliError::usage(format!("invalid value `{v}` for --{key}"))),
        }
    }

    /// A parsed flag value with a default.
    pub fn flag_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, CliError> {
        Ok(self.flag_parsed(key)?.unwrap_or(default))
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    /// Errors on any flag or switch not in `known` — typos fail loudly
    /// instead of being silently ignored.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), CliError> {
        for key in self.flags.keys().chain(self.switches.iter()) {
            if !known.contains(&key.as_str()) {
                return Err(CliError::usage(format!("unknown flag `--{key}`")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_positionals_flags_and_switches() {
        let a = Args::parse(&argv(&[
            "scenario.json",
            "--goal",
            "collection",
            "--progress",
            "--volume",
            "60",
        ]))
        .unwrap();
        assert_eq!(a.positional(0), Some("scenario.json"));
        assert_eq!(a.flag("goal"), Some("collection"));
        assert!(a.switch("progress"));
        assert_eq!(a.flag_or("volume", 0.0).unwrap(), 60.0);
        assert_eq!(a.flag_or("seeds", 3usize).unwrap(), 3);
    }

    #[test]
    fn invalid_number_is_an_error() {
        let a = Args::parse(&argv(&["--volume", "sixty"])).unwrap();
        assert!(a.flag_or::<f64>("volume", 1.0).is_err());
    }

    #[test]
    fn switch_before_flag_is_not_swallowed() {
        let a = Args::parse(&argv(&["--progress", "--goal", "constitution"])).unwrap();
        assert!(a.switch("progress"));
        assert_eq!(a.flag("goal"), Some("constitution"));
    }

    #[test]
    fn equals_syntax_parses_and_allows_dashed_values() {
        let a = Args::parse(&argv(&["--goal=collection", "--filter=--weird--"])).unwrap();
        assert_eq!(a.flag("goal"), Some("collection"));
        // The historical gap: a value starting with `--` is only reachable
        // through the `=` form.
        assert_eq!(a.flag("filter"), Some("--weird--"));
        // Empty value via `=` is a present-but-empty flag, not a switch.
        let b = Args::parse(&argv(&["--out="])).unwrap();
        assert_eq!(b.flag("out"), Some(""));
        assert!(!b.switch("out"));
    }

    #[test]
    fn missing_flag_name_before_equals_is_an_error() {
        assert!(Args::parse(&argv(&["--=5"])).is_err());
        assert!(Args::parse(&argv(&["--"])).is_err());
    }

    #[test]
    fn flag_parsed_distinguishes_absent_from_bad() {
        let a = Args::parse(&argv(&["--seeds", "four"])).unwrap();
        assert_eq!(a.flag_parsed::<u64>("rng"), Ok(None));
        assert!(a.flag_parsed::<usize>("seeds").is_err());
        let b = Args::parse(&argv(&["--seeds=4"])).unwrap();
        assert_eq!(b.flag_parsed::<usize>("seeds"), Ok(Some(4)));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let a = Args::parse(&argv(&["--goal", "collection", "--porgress"])).unwrap();
        assert!(a
            .reject_unknown(&["goal"])
            .unwrap_err()
            .to_string()
            .contains("porgress"));
        assert!(a.reject_unknown(&["goal", "porgress"]).is_ok());
    }
}
