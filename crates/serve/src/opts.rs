//! Minimal `--key value` argument parsing shared by the two binaries.

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
    /// Parses pairs from an argv slice (program name excluded).
    pub fn parse(argv: &[String]) -> Result<Self, OptError> {
        let mut pairs = Vec::new();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let key = flag
                .strip_prefix("--")
                .ok_or_else(|| OptError(format!("expected --flag, got `{flag}`")))?;
            let value = it
                .next()
                .ok_or_else(|| OptError(format!("--{key} needs a value")))?;
            pairs.push((key.to_string(), value.clone()));
        }
        Ok(Self(pairs))
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

    /// Optional parsed flag with default.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, OptError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| OptError(format!("--{key}: bad value `{raw}`"))),
        }
    }

    /// Optional `lo..hi` range flag with default.
    pub fn range_or(&self, key: &str, default: (usize, usize)) -> Result<(usize, usize), OptError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => {
                let (lo, hi) = raw
                    .split_once("..")
                    .ok_or_else(|| OptError(format!("--{key} must be lo..hi")))?;
                let lo = lo
                    .parse()
                    .map_err(|_| OptError(format!("--{key}: bad lower bound")))?;
                let hi = hi
                    .parse()
                    .map_err(|_| OptError(format!("--{key}: bad upper bound")))?;
                Ok((lo, hi))
            }
        }
    }
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
        let o = Opts::parse(&argv(&["--ma", "5..34", "--bad", "x..y"])).unwrap();
        assert_eq!(o.range_or("ma", (1, 8)).unwrap(), (5, 34));
        assert!(o.range_or("bad", (1, 8)).is_err());
        assert_eq!(o.range_or("absent", (1, 8)).unwrap(), (1, 8));
    }
}
