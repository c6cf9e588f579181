//! Minimal flag parsing (`--name value` pairs), no third-party dependency.

use std::collections::HashMap;

/// Parsed `--flag value` arguments.
#[derive(Debug, Default)]
pub(crate) struct Args {
    values: HashMap<String, String>,
    flags: Vec<String>,
}

impl Args {
    /// Parses everything after the subcommand. `values` lists the flags
    /// that take a value and `bools` the flags that take none; any other
    /// flag is an error, so a misspelt or retired flag never goes silently
    /// unread.
    pub(crate) fn parse(argv: &[String], values: &[&str], bools: &[&str]) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            let Some(name) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{a}`"));
            };
            if bools.contains(&name) {
                out.flags.push(name.to_string());
            } else if values.contains(&name) {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                out.values.insert(name.to_string(), v.clone());
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(out)
    }

    /// A required string value.
    pub(crate) fn req(&self, name: &str) -> Result<&str, String> {
        self.values
            .get(name)
            .map(String::as_str)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional string value.
    pub(crate) fn opt(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// An optional parsed value with a default.
    pub(crate) fn num<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.values.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: cannot parse `{v}`")),
        }
    }

    /// Whether a boolean flag was given (e.g. `attack --quick`).
    pub(crate) fn has(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_pairs_and_bools() {
        let a = Args::parse(&sv(&["--in", "x.bench", "--quick"]), &["in"], &["quick"]).unwrap();
        assert_eq!(a.req("in").unwrap(), "x.bench");
        assert!(a.has("quick"));
        assert!(!a.has("verbose"));
        assert!(a.opt("out").is_none());
        assert_eq!(a.num("keys", 4usize).unwrap(), 4);
    }

    #[test]
    fn rejects_positional_and_missing_values() {
        assert!(Args::parse(&sv(&["stray"]), &[], &[]).is_err());
        assert!(Args::parse(&sv(&["--in"]), &["in"], &[]).is_err());
        let a = Args::parse(&sv(&["--keys", "zzz"]), &["keys"], &[]).unwrap();
        assert!(a.num("keys", 1usize).is_err());
        assert!(a.req("absent").is_err());
    }
}
