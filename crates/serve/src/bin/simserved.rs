//! `simserved` — serve a persisted similarity index over TCP (see
//! [`simserve::cmd`] for the flags; `simseq serve` is the same thing).

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = simserve::cmd::serve(&argv) {
        eprintln!("error: {e}");
        eprint!("{}", simserve::cmd::SERVE_USAGE);
        std::process::exit(1);
    }
}
