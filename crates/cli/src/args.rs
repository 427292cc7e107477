//! The `simseq` command line: a leading subcommand, then `--key value`
//! flags parsed by [`simserve::opts::Opts`] — the parser `simserved` and
//! `simload` use, so a repeated or unknown flag is refused the same way
//! everywhere.

use simserve::opts::Opts;

/// A user-facing CLI error (message already formatted): the parser's own
/// error type, so `?` carries a bad flag straight out of a subcommand.
pub use simserve::opts::OptError as CliError;

/// Shorthand error constructor.
pub fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

/// Splits `argv[1..]` into the subcommand and its flags.
pub fn parse(argv: &[String]) -> Result<(&str, Opts), CliError> {
    let (sub, flags) = argv
        .split_first()
        .ok_or_else(|| err("missing subcommand; try `simseq help`"))?;
    Ok((sub, Opts::parse(flags)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_subcommand_and_flags() {
        let line = argv("query --index idx --rho 0.96");
        let (sub, a) = parse(&line).unwrap();
        assert_eq!(sub, "query");
        assert_eq!(a.req("index").unwrap(), "idx");
        let rho: f64 = a.req_parse("rho").unwrap();
        assert!((rho - 0.96).abs() < 1e-12);
        assert!(a.get("missing").is_none());
        assert_eq!(a.parse_or("k", 7usize).unwrap(), 7);
    }

    #[test]
    fn parses_ranges() {
        let line = argv("query --ma 5..34");
        let (_, a) = parse(&line).unwrap();
        assert_eq!(a.range("ma").unwrap(), Some((5, 34)));
        assert_eq!(a.range("shift").unwrap(), None);
        let line = argv("query --ma 9..3");
        let (_, bad) = parse(&line).unwrap();
        assert!(bad.range("ma").is_err());
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse(&[]).is_err());
        assert!(parse(&argv("q stray")).is_err());
        assert!(parse(&argv("q --flag")).is_err());
        assert!(parse(&argv("q --a 1 --a 2")).is_err());
    }
}
