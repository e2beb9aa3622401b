//! Minimal hand-rolled option parsing (no external crates).

use std::collections::HashMap;

/// Parsed `--key value` / `-k value` options plus bare flags.
pub struct Options {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

/// Options that take no value.
const BARE_FLAGS: &[&str] = &[
    "weights",
    "fast",
    "no-cache",
    "resume-report",
    "dry-run",
    "telemetry",
    "detach",
    "now",
    "leases",
];

/// An option name as typed: `-k` for one letter, `--name` otherwise.
fn dashed(name: &str) -> String {
    if name.len() == 1 {
        format!("-{name}")
    } else {
        format!("--{name}")
    }
}

/// Levenshtein distance between two option names.
fn edit_distance(a: &str, b: &str) -> usize {
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.chars().enumerate() {
        let mut diagonal = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let substituted = diagonal + usize::from(ca != cb);
            diagonal = row[j + 1];
            row[j + 1] = substituted.min(row[j] + 1).min(diagonal + 1);
        }
    }
    row[b.len()]
}

/// The accepted name an unknown option most likely meant: the longest
/// one it starts with (`cache-dir` → `cache`), else the nearest within
/// edit distance 2 that the distance does not rewrite whole (so `-k`
/// is never suggested for an unrelated short name).
fn nearest<'a>(key: &str, accepted: &[&'a str]) -> Option<&'a str> {
    let prefix = accepted
        .iter()
        .filter(|name| name.len() > 1 && key.starts_with(**name))
        .max_by_key(|name| name.len());
    if let Some(name) = prefix {
        return Some(name);
    }
    accepted
        .iter()
        .map(|name| (edit_distance(key, name), *name))
        .filter(|&(distance, name)| distance <= 2 && distance < name.len())
        .min_by_key(|&(distance, _)| distance)
        .map(|(_, name)| name)
}

impl Options {
    /// Parse an argument list against the option names its command
    /// accepts (without dashes, bare flags included). Every `--key` is
    /// expected to be followed by a value unless listed as a bare flag,
    /// and a key the command does not accept is an error that names it,
    /// suggests the accepted name it most likely meant, and lists the
    /// accepted ones, so a misspelt option never runs the command on
    /// defaults.
    pub fn parse(argv: &[String], accepted: &[&str]) -> Result<Options, String> {
        let mut values = HashMap::new();
        let mut flags = Vec::new();
        let mut it = argv.iter();
        while let Some(arg) = it.next() {
            if !arg.starts_with('-') {
                return Err(format!("unexpected positional argument {arg:?}"));
            }
            let key = arg.trim_start_matches('-');
            if !accepted.contains(&key) {
                let hint = nearest(key, accepted)
                    .map(|name| format!("(did you mean {}?) ", dashed(name)))
                    .unwrap_or_default();
                let names: Vec<String> = accepted.iter().map(|k| dashed(k)).collect();
                return Err(format!(
                    "unknown option {arg} {hint}(accepted: {})",
                    names.join(", ")
                ));
            }
            if BARE_FLAGS.contains(&key) {
                flags.push(key.to_string());
                continue;
            }
            let Some(value) = it.next() else {
                return Err(format!("option {arg} expects a value"));
            };
            values.insert(key.to_string(), value.clone());
        }
        Ok(Options { values, flags })
    }

    /// Required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.values
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required option --{key}"))
    }

    /// Optional string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.values.get(key).map(String::as_str)
    }

    /// Optional typed option with a default.
    pub fn get_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.values.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("option --{key}: cannot parse {v:?}")),
        }
    }

    /// Whether a bare flag was passed.
    pub fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }

    /// Comma-separated usize list option with a default.
    pub fn get_usize_list(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, String> {
        match self.values.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|s| {
                    s.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("option --{key}: bad entry {s:?}"))
                })
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ACCEPTED: &[&str] = &["class", "k", "weights", "fast", "pfail", "ks"];

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn parse(args: &[&str]) -> Options {
        Options::parse(&argv(args), ACCEPTED).unwrap()
    }

    #[test]
    fn values_and_flags() {
        let o = parse(&["--class", "lu", "-k", "8", "--weights"]);
        assert_eq!(o.require("class").unwrap(), "lu");
        assert_eq!(o.get_or::<usize>("k", 5).unwrap(), 8);
        assert!(o.flag("weights"));
        assert!(!o.flag("fast"));
    }

    #[test]
    fn missing_required() {
        let o = parse(&[]);
        assert!(o.require("class").is_err());
    }

    #[test]
    fn defaults() {
        let o = parse(&[]);
        assert_eq!(o.get_or::<f64>("pfail", 0.01).unwrap(), 0.01);
        assert_eq!(o.get_usize_list("ks", &[4, 6]).unwrap(), vec![4, 6]);
    }

    #[test]
    fn list_parsing() {
        let o = parse(&["--ks", "4, 6,8"]);
        assert_eq!(o.get_usize_list("ks", &[]).unwrap(), vec![4, 6, 8]);
    }

    #[test]
    fn value_missing_is_error() {
        assert!(Options::parse(&argv(&["--class"]), ACCEPTED).is_err());
    }

    #[test]
    fn positional_rejected() {
        assert!(Options::parse(&argv(&["oops"]), ACCEPTED).is_err());
    }

    #[test]
    fn unknown_options_are_named_with_the_accepted_ones() {
        for bad in [
            &["--classes", "lu"][..],
            &["--class", "lu", "--now"],
            &["-x", "1"],
        ] {
            let err = Options::parse(&argv(bad), ACCEPTED).err().unwrap();
            let named = bad.iter().rev().find(|a| a.starts_with('-')).unwrap();
            assert!(err.contains(&format!("unknown option {named} ")), "{err}");
            assert!(
                err.contains("--class, -k, --weights, --fast, --pfail, --ks"),
                "{err}"
            );
        }
    }

    #[test]
    fn unknown_options_suggest_the_nearest_accepted_name() {
        let accepted = ["spec", "jobs", "trials", "cache", "no-cache", "k", "ks"];
        let hint = |typed: &str| {
            let err = Options::parse(&argv(&[typed, "1"]), &accepted)
                .err()
                .unwrap();
            err.split_once("(did you mean ")
                .map(|(_, rest)| rest.split_once("?)").unwrap().0.to_string())
        };
        assert_eq!(hint("--cache-dir").as_deref(), Some("--cache"));
        assert_eq!(hint("--no-cache-please").as_deref(), Some("--no-cache"));
        assert_eq!(hint("--job").as_deref(), Some("--jobs"));
        assert_eq!(hint("--trails").as_deref(), Some("--trials"));
        assert_eq!(hint("--kz").as_deref(), Some("--ks"));
        assert_eq!(hint("--addr"), None);
        assert_eq!(hint("-x"), None, "no one-letter name for a short typo");
        let err = Options::parse(&argv(&["--cache-dir", "X"]), &accepted)
            .err()
            .unwrap();
        assert!(
            err.starts_with(
                "unknown option --cache-dir (did you mean --cache?) (accepted: --spec,"
            ),
            "{err}"
        );
        let serve = [
            "listen",
            "cache",
            "no-cache",
            "max-running",
            "max-queued",
            "max-cells",
            "shutdown-report",
        ];
        let err = Options::parse(&argv(&["--addr", "X"]), &serve)
            .err()
            .unwrap();
        assert!(!err.contains("did you mean"), "{err}");
    }
}
