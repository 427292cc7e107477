//! `simseq` — similarity-based time-series queries from the command line.
//!
//! ```sh
//! simseq gen   --kind stocks --count 1068 --len 128 --seed 7 --out data.csv
//! simseq build --data data.csv --out idx/
//! simseq info  --index idx/
//! simseq query --index idx/ --query-index 42 --ma 5..34 --rho 0.96
//! simseq join  --index idx/ --ma 5..14 --rho 0.99
//! simseq nn    --index idx/ --query-index 42 --k 5 --ma 2..20
//! simseq serve --index idx/ --addr 127.0.0.1:7878
//! simseq load  --addr 127.0.0.1:7878 --conns 8 --ops 100
//! simseq promote --addr 127.0.0.1:7879
//! simseq metrics --addr 127.0.0.1:7878
//! simseq recover --index idx/ --wal wal/
//! simseq shard build --data data.csv --out sidx/ --shards 4
//! simseq shard query --index sidx/ --query-index 42 --ma 5..34 --rho 0.96
//! ```

mod args;
mod commands;

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("help") || argv.is_empty() {
        print!("{}", commands::USAGE);
        return;
    }
    let result = match argv[0].as_str() {
        // `shard` prefixes a nested subcommand: `simseq shard build --…`.
        "shard" => commands::shard(&argv[1..]),
        // The same entry points `simserved` and `simload` run.
        "serve" => simserve::cmd::serve(&argv[1..]).map_err(args::err),
        "load" => simserve::cmd::load(&argv[1..]).map_err(args::err),
        _ => dispatch(&argv),
    };
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}

fn dispatch(argv: &[String]) -> Result<(), args::CliError> {
    args::parse(argv).and_then(|(sub, args)| match sub {
        "gen" => commands::gen(&args),
        "build" => commands::build(&args),
        "info" => commands::info(&args),
        "query" => commands::query(&args),
        "join" => commands::join(&args),
        "nn" => commands::nn(&args),
        "promote" => commands::promote(&args),
        "metrics" => commands::metrics(&args),
        "recover" => commands::recover(&args),
        other => Err(args::err(format!(
            "unknown subcommand `{other}`; try `simseq help`"
        ))),
    })
}
