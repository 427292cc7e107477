//! Minimal `--key value` argument parsing — the one command-line parser
//! of `simserved`, `simload` and every `simseq` subcommand. It is strict:
//! a flag given twice is an error, and a command names the flags it takes
//! ([`Opts::reject_unknown`]) so a mistyped one (`--wal-dir` for `--wal`)
//! stops the command rather than being silently dropped.

use std::fmt;

/// A failed parse, printable for `main`.
#[derive(Debug)]
pub struct OptError(pub String);

impl fmt::Display for OptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<OptError> for String {
    fn from(e: OptError) -> Self {
        e.0
    }
}

/// Parsed `--key value` pairs.
pub struct Opts(Vec<(String, String)>);

impl Opts {
    /// Parses pairs from an argv slice (program name excluded). A flag
    /// given twice is an error: neither value is the obvious winner.
    pub fn parse(argv: &[String]) -> Result<Self, OptError> {
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| OptError(format!("expected --flag, got `{flag}`")))?;
            let value = it
                .next()
                .ok_or_else(|| OptError(format!("--{key} needs a value")))?;
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(OptError(format!("--{key} given twice")));
            }
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Self(pairs))
    }

    /// Fails on the first flag that is not one of `known` — the flags the
    /// calling command reads.
    pub fn reject_unknown(&self, known: &[&str]) -> Result<(), OptError> {
        match self.0.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            None => Ok(()),
            Some((k, _)) => Err(OptError(format!("unknown flag --{k}"))),
        }
    }

    /// Looks up a flag.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.0
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// Required flag.
    pub fn req(&self, key: &str) -> Result<&str, OptError> {
        self.get(key)
            .ok_or_else(|| OptError(format!("missing required --{key}")))
    }

    /// Required parsed flag.
    pub fn req_parse<T: std::str::FromStr>(&self, key: &str) -> Result<T, OptError> {
        parsed(key, self.req(key)?)
    }

    /// Optional parsed flag with default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, OptError> {
        self.get(key).map_or(Ok(default), |raw| parsed(key, raw))
    }

    /// Optional `lo..hi` (inclusive) range flag, e.g. `--ma 5..34`.
    pub fn range(&self, key: &str) -> Result<Option<(usize, usize)>, OptError> {
        let Some(raw) = self.get(key) else {
            return Ok(None);
        };
        let (lo, hi) = raw
            .split_once("..")
            .ok_or_else(|| OptError(format!("--{key} must be lo..hi, got `{raw}`")))?;
        let lo: usize = lo
            .parse()
            .map_err(|_| OptError(format!("--{key}: bad lower bound `{lo}`")))?;
        let hi: usize = hi
            .parse()
            .map_err(|_| OptError(format!("--{key}: bad upper bound `{hi}`")))?;
        if lo > hi {
            return Err(OptError(format!("--{key}: lo > hi")));
        }
        Ok(Some((lo, hi)))
    }

    /// [`Self::range`] with a default.
    pub fn range_or(&self, key: &str, default: (usize, usize)) -> Result<(usize, usize), OptError> {
        Ok(self.range(key)?.unwrap_or(default))
    }
}

fn parsed<T: std::str::FromStr>(key: &str, raw: &str) -> Result<T, OptError> {
    raw.parse()
        .map_err(|_| OptError(format!("--{key}: bad value `{raw}`")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| x.to_string()).collect()
    }

    #[test]
    fn parses_flags() {
        let o = Opts::parse(&argv(&["--addr", "127.0.0.1:0", "--conns", "8"])).unwrap();
        assert_eq!(o.req("addr").unwrap(), "127.0.0.1:0");
        assert_eq!(o.parse_or("conns", 1usize).unwrap(), 8);
        assert_eq!(o.parse_or("ops", 5usize).unwrap(), 5);
        assert!(o.req("nope").is_err());
    }

    #[test]
    fn rejects_bad_shapes() {
        assert!(Opts::parse(&argv(&["addr"])).is_err());
        assert!(Opts::parse(&argv(&["--addr"])).is_err());
        let twice = Opts::parse(&argv(&["--workers", "1", "--workers", "2"]));
        assert_eq!(twice.err().unwrap().to_string(), "--workers given twice");
        let o = Opts::parse(&argv(&["--ma", "5..34", "--bad", "x..y"])).unwrap();
        assert_eq!(o.range_or("ma", (1, 8)).unwrap(), (5, 34));
        assert!(o.range_or("bad", (1, 8)).is_err());
        assert_eq!(o.range_or("absent", (1, 8)).unwrap(), (1, 8));
        let backwards = Opts::parse(&argv(&["--ma", "9..3"])).unwrap();
        assert!(backwards.range("ma").is_err());
    }

    #[test]
    fn names_the_flag_nobody_reads() {
        let o = Opts::parse(&argv(&["--index", "idx", "--wal-dir", "wal/"])).unwrap();
        assert!(o.reject_unknown(&["index", "wal-dir"]).is_ok());
        let e = o.reject_unknown(&["index", "wal"]).unwrap_err();
        assert_eq!(e.to_string(), "unknown flag --wal-dir");
    }
}
