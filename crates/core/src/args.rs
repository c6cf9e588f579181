//! The one `--flag value` grammar of every front end: the `cutelock`
//! subcommands, the table bins and the daemon's `SUBMIT` lines.
//!
//! The caller lists the flags it reads, split into value flags
//! (`--in FILE`) and bool flags (`--quick`). Anything else is an error: a
//! positional token, a flag the caller does not read, a value flag with no
//! value, and a flag given twice. So a typo, a retired flag or a duplicate
//! never goes silently unread.

use std::collections::HashMap;
use std::str::FromStr;

/// Parsed `--flag value` and `--flag` arguments.
#[derive(Debug, Default)]
pub struct Flags {
    values: HashMap<String, String>,
    bools: Vec<String>,
}

impl Flags {
    /// Parses `argv`. `values` lists the flags that take a value and
    /// `bools` the flags that take none, both without their `--`.
    pub fn parse<S: AsRef<str>>(
        argv: &[S],
        values: &[&str],
        bools: &[&str],
    ) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = argv.iter().map(AsRef::as_ref);
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{arg}`"));
            };
            // Only a listed flag is ever recorded, so this finds repeats.
            if out.has(name) || out.opt(name).is_some() {
                return Err(format!("--{name} given twice"));
            }
            if bools.contains(&name) {
                out.bools.push(name.to_string());
            } else if values.contains(&name) {
                let v = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
                out.values.insert(name.to_string(), v.to_string());
            } else {
                return Err(format!("unknown flag --{name}"));
            }
        }
        Ok(out)
    }

    /// A required value.
    pub fn req(&self, name: &str) -> Result<&str, String> {
        self.opt(name)
            .ok_or_else(|| format!("missing required flag --{name}"))
    }

    /// An optional value.
    pub fn opt(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// An optional parsed value with a default.
    pub fn num<T: FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.opt(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name}: `{v}` is not a number")),
        }
    }

    /// A count that must lie in `1..=64`. Each unit costs a solver clone
    /// (`--portfolio`), an encoded time frame (`--frames`), a pigeonhole
    /// (`--php`) or more lock to build (`--keys`, `--key-bits`, `--ffs`),
    /// so one request cannot ask for unbounded work.
    pub fn bounded(&self, name: &str, default: usize) -> Result<usize, String> {
        match self.num(name, default)? {
            n @ 1..=64 => Ok(n),
            _ => Err(format!("--{name} must be between 1 and 64")),
        }
    }

    /// Whether a bool flag was given.
    pub fn has(&self, name: &str) -> bool {
        self.bools.iter().any(|f| f == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(argv: &[&str]) -> Result<Flags, String> {
        Flags::parse(argv, &["in", "keys"], &["quick"])
    }

    #[test]
    fn parses_pairs_and_bools() {
        let a = parse(&["--in", "x.bench", "--quick"]).unwrap();
        assert_eq!(a.req("in").unwrap(), "x.bench");
        assert!(a.has("quick") && !a.has("verbose"));
        assert!(a.opt("keys").is_none());
        assert_eq!(a.num("keys", 4usize).unwrap(), 4);
        for (v, n) in [("1", 1), ("64", 64)] {
            assert_eq!(parse(&["--keys", v]).unwrap().bounded("keys", 4), Ok(n));
        }
    }

    #[test]
    fn rejects_positional_and_missing_values() {
        let missing = parse(&[]).unwrap().req("keys").unwrap_err();
        assert_eq!(missing, "missing required flag --keys");
        let range = "--keys must be between 1 and 64";
        for (argv, want) in [
            (&["stray"][..], "unexpected positional argument `stray`"),
            (&["--nope", "1"], "unknown flag --nope"),
            (&["--in"], "--in needs a value"),
            (&["--in", "a", "--in", "b"], "--in given twice"),
            (&["--quick", "--quick"], "--quick given twice"),
            (&["--keys", "zzz"], "--keys: `zzz` is not a number"),
            (&["--keys", "0"], range),
            (&["--keys", "65"], range),
        ] {
            let got = parse(argv).and_then(|f| f.bounded("keys", 4));
            assert_eq!(got.unwrap_err(), want, "{argv:?}");
        }
    }
}
