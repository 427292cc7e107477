//! `simload` — closed-loop load generator for `simserved` (see
//! [`simserve::cmd`] for the flags; `simseq load` is the same thing).
//!
//! Exits non-zero on any error response or (with `--verify-index`) any
//! result-parity failure.

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = simserve::cmd::load(&argv) {
        eprintln!("error: {e}");
        eprint!("{}", simserve::cmd::LOAD_USAGE);
        std::process::exit(1);
    }
}
