//! Subcommand implementations.

use crate::args::{err, CliError};
use simquery::prelude::*;
use simquery::shared::SharedIndex;
use simserve::opts::Opts;
use simshard::{gather, ShardConfig, ShardedIndex};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Help text.
pub const USAGE: &str = "\
simseq — similarity-based queries for time series (Rafiei, ICDE '99)

USAGE:
  simseq gen   --kind walks|stocks --count N --len N --out FILE.csv [--seed S]
  simseq build --data FILE.csv --out DIR/
  simseq info  --index DIR/
  simseq query --index DIR/ (--query-index I | --query-csv FILE --row I)
               [--ma LO..HI] [--shift LO..HI] [--inverted yes]
               [--rho R | --eps E] [--engine auto|mt|st|scan]
               [--policy adaptive|safe|paper] [--mode symmetric|data-only]
               [--limit N]
  simseq join  --index DIR/ [--ma LO..HI] (--rho R | --eps E)
               [--engine auto|mt|st|scan] [--limit N]
  simseq nn    --index DIR/ (--query-index I | --query-csv FILE --row I)
               --k K [--ma LO..HI]
  simseq serve …   (= simserved; flags: `simseq serve help`)
  simseq load  …   (= simload;   flags: `simseq load help`)
  simseq promote --addr HOST:PORT [--timeout-ms MS]
  simseq metrics --addr HOST:PORT [--trace N] [--timeout-ms MS]
  simseq recover --index DIR/ --wal DIR/ [--pool-pages N]
  simseq shard build --data FILE.csv --out DIR/ --shards N
               [--partitioner hash|round-robin|range]
  simseq shard info|query|nn …   (aliases of info|query|nn)

`info`, `query`, `nn` and `recover` take either directory layout: a
single index (`build`) or a shard group (`shard build`), whose queries
scatter-gather across the shards and return exactly the single-index
answer (`--policy paper` is refused there: its false dismissals depend
on the tree layout). `join` needs a single index.

Thresholds: --rho is a cross-correlation in [-1, 1], converted through
Eq. 9; --eps is a Euclidean distance over transformed normal forms.

`serve` and `load` run the same entry points as the `simserved` and
`simload` binaries (protocol: crates/serve/PROTOCOL.md), so every flag
of one exists on the other; their own `help` lists them.

`promote` flips a running follower to primary: the follower bumps its
WAL epoch past everything it has seen, fences the old timeline, and
starts accepting writes from its acked prefix. The old primary demotes
itself to read-only the moment it sees the higher epoch.

`metrics` fetches a running server's METRICS exposition (one
`name{labels} value` line per metric — the same numbers STATS reports)
and, with --trace N, drains up to N recorded spans from its sampling
tracer.

`recover` replays a write-ahead log (written by `simserved --wal`) on
top of the index snapshot, reports what it salvaged, and checkpoints so
the directory opens clean afterwards.

`shard build` partitions the corpus across N independent indexes (serve
the directory with `simserved --index DIR/` to get per-shard STATS).
";

type CliResult = Result<(), CliError>;

/// `simseq gen` — write a synthetic corpus as CSV.
pub fn gen(args: &Opts) -> CliResult {
    args.reject_unknown(&["kind", "count", "len", "out", "seed"])?;
    let kind = match args.req("kind")? {
        "walks" => CorpusKind::SyntheticWalks,
        "stocks" => CorpusKind::StockCloses,
        other => return Err(err(format!("--kind must be walks|stocks, got `{other}`"))),
    };
    let count: usize = args.req_parse("count")?;
    let len: usize = args.req_parse("len")?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let out = PathBuf::from(args.req("out")?);
    let corpus = Corpus::generate(kind, count, len, seed);
    corpus
        .save_csv(&out)
        .map_err(|e| err(format!("writing {}: {e}", out.display())))?;
    println!(
        "wrote {count} sequences of length {len} to {}",
        out.display()
    );
    Ok(())
}

/// `simseq build` — index a CSV corpus and persist it.
pub fn build(args: &Opts) -> CliResult {
    args.reject_unknown(&["data", "out"])?;
    let data = PathBuf::from(args.req("data")?);
    let out = PathBuf::from(args.req("out")?);
    let corpus =
        Corpus::load_csv(&data).map_err(|e| err(format!("reading {}: {e}", data.display())))?;
    let index =
        SeqIndex::build(&corpus, IndexConfig::default()).ok_or_else(|| err("corpus is empty"))?;
    index
        .save(&out)
        .map_err(|e| err(format!("saving index: {e}")))?;
    // Names are needed later for reporting; keep them next to the index.
    std::fs::write(out.join("names.txt"), corpus.names().join("\n"))
        .map_err(|e| err(format!("saving names: {e}")))?;
    println!(
        "indexed {} sequences of length {} ({} skipped as degenerate) into {}",
        index.len(),
        index.seq_len(),
        index.skipped().len(),
        out.display()
    );
    Ok(())
}

/// `simseq info` — describe a persisted index (either layout).
pub fn info(args: &Opts) -> CliResult {
    args.reject_unknown(&["index"])?;
    let (store, names) = open_store(args)?;
    let info = store.describe();
    let get = |key: &str| info.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str());
    for (key, label) in [
        ("sequences", "sequences:   "),
        ("seq_len", "length:      "),
        ("tree_height", "tree height: "),
        ("tree_nodes", "tree nodes:  "),
        ("tree_leaves", "tree leaves: "),
        ("leaf_capacity", "leaf fanout: "),
        ("skipped", "skipped:     "),
        ("shards", "shards:      "),
        ("partitioner", "partitioner: "),
        ("deleted", "deleted:     "),
    ] {
        if let Some(value) = get(key) {
            println!("{label}{value}");
        }
    }
    if let Some(loads) = get("shard_loads") {
        let heights = store.shards().iter().map(|s| s.read().height());
        for (i, (load, height)) in loads.split(',').zip(heights).enumerate() {
            println!("shard {i}:     {load} seqs, tree height {height}");
        }
    }
    if let Some(first) = names.first() {
        println!("first name:  {first}");
    }
    Ok(())
}

/// `simseq query` — Query 1, scatter-gathered when the index is sharded.
pub fn query(args: &Opts) -> CliResult {
    args.reject_unknown(&[
        "index",
        "query-index",
        "query-csv",
        "row",
        "ma",
        "shift",
        "inverted",
        "rho",
        "eps",
        "engine",
        "policy",
        "mode",
        "limit",
    ])?;
    let (store, names) = open_store(args)?;
    let family = family_from(args, store.seq_len())?;
    let spec = spec_from(args)?;
    // `paper` is a heuristic filter whose false dismissals depend on the
    // tree shape, so across shards the answer would vary with their count.
    if spec.policy == FilterPolicy::Paper && SharedIndex::try_from(Arc::clone(&store)).is_err() {
        return Err(err(
            "--policy paper is tree-layout-dependent and may differ across \
             shard counts; use adaptive|safe",
        ));
    }
    let q = query_series(args, &store)?;

    let lq = LogicalQuery::range(family.clone(), spec).with_engine(engine_pref_from(args)?);
    let (chosen, out, per_shard) = execute_cold(&store, &lq, Some(&q))?;
    let PlanOutput::Range(result) = out else {
        return Err(err("range plan produced a non-range result"));
    };

    let limit: usize = args.parse_or("limit", 20)?;
    let mut matches = result.matches.clone();
    matches.sort_by(|a, b| a.dist.total_cmp(&b.dist));
    print_matches(&names, &family, matches.iter().take(limit));
    if matches.len() > limit {
        println!("… and {} more (raise --limit)", matches.len() - limit);
    }
    eprintln!(
        "{} matches over {} sequences | {}",
        result.matches.len(),
        result.matched_sequences().len(),
        result.metrics
    );
    print_per_shard(&per_shard);
    eprintln!("{}", plan_line(&chosen));
    Ok(())
}

/// `simseq join` — Query 2.
pub fn join(args: &Opts) -> CliResult {
    args.reject_unknown(&[
        "index", "ma", "shift", "inverted", "rho", "eps", "engine", "policy", "mode", "limit",
    ])?;
    let (store, names) = open_store(args)?;
    if SharedIndex::try_from(Arc::clone(&store)).is_err() {
        return Err(err(
            "join is not supported on a sharded index (pairs cross shards)",
        ));
    }
    let family = family_from(args, store.seq_len())?;
    let lq =
        LogicalQuery::join(family.clone(), spec_from(args)?).with_engine(engine_pref_from(args)?);
    let (chosen, out, _) = execute_cold(&store, &lq, None)?;
    let PlanOutput::Join(result) = out else {
        return Err(err("join plan produced a non-join result"));
    };

    let limit: usize = args.parse_or("limit", 20)?;
    let mut matches = result.matches.clone();
    matches.sort_by(|a, b| a.dist.total_cmp(&b.dist));
    for m in matches.iter().take(limit) {
        println!(
            "{:20} ~ {:20} via {:10} D = {:.4}",
            display_name(&names, m.seq_a),
            display_name(&names, m.seq_b),
            family.transforms()[m.transform].label(),
            m.dist
        );
    }
    eprintln!(
        "{} qualifying pairs | {}",
        result.matches.len(),
        result.metrics
    );
    eprintln!("{}", plan_line(&chosen));
    Ok(())
}

/// `simseq nn` — k nearest neighbours under the family (exact global kNN
/// with bound propagation when the index is sharded).
pub fn nn(args: &Opts) -> CliResult {
    args.reject_unknown(&[
        "index",
        "query-index",
        "query-csv",
        "row",
        "k",
        "ma",
        "shift",
        "inverted",
    ])?;
    let (store, names) = open_store(args)?;
    let family = family_from(args, store.seq_len())?;
    let k: usize = args.req_parse("k")?;
    let q = query_series(args, &store)?;
    let lq = LogicalQuery::knn(family.clone(), k);
    let (_, out, per_shard) = execute_cold(&store, &lq, Some(&q))?;
    let PlanOutput::Knn(matches, metrics) = out else {
        return Err(err("kNN plan produced a non-kNN result"));
    };
    print_matches(&names, &family, matches.iter());
    eprintln!("{metrics}");
    print_per_shard(&per_shard);
    Ok(())
}

/// `simseq promote` — flip a running follower to primary.
pub fn promote(args: &Opts) -> CliResult {
    args.reject_unknown(&["addr", "timeout-ms"])?;
    let addr = args.req("addr")?;
    let mut client = connect_client(args, addr)?;
    match client
        .promote()
        .map_err(|e| err(format!("PROMOTE failed: {e}")))?
    {
        Ok(epoch) => {
            println!("promoted: {addr} is now primary at epoch {epoch}");
            Ok(())
        }
        Err(resp) => Err(err(format!("PROMOTE rejected: {resp:?}"))),
    }
}

/// `simseq metrics` — fetch a running server's metrics exposition.
pub fn metrics(args: &Opts) -> CliResult {
    args.reject_unknown(&["addr", "trace", "timeout-ms"])?;
    let addr = args.req("addr")?;
    let mut client = connect_client(args, addr)?;
    let lines = client
        .metrics()
        .map_err(|e| err(format!("METRICS failed: {e}")))?
        .map_err(|resp| err(format!("METRICS rejected: {resp:?}")))?;
    for line in &lines {
        println!("{line}");
    }
    if let Some(n) = args.get("trace") {
        let n: usize = n
            .parse()
            .map_err(|e| err(format!("--trace must be a count: {e}")))?;
        let events = client
            .trace(n)
            .map_err(|e| err(format!("TRACE failed: {e}")))?
            .map_err(|resp| err(format!("TRACE rejected: {resp:?}")))?;
        println!("# {} spans (oldest first)", events.len());
        for ev in &events {
            println!(
                "trace={} depth={} start_us={} dur_us={} {}",
                ev.trace, ev.depth, ev.start_us, ev.dur_us, ev.name
            );
        }
    }
    Ok(())
}

/// `simseq recover` — replay a WAL onto its snapshot and checkpoint.
pub fn recover(args: &Opts) -> CliResult {
    args.reject_unknown(&["index", "wal", "pool-pages"])?;
    let dir = PathBuf::from(args.req("index")?);
    let wal = PathBuf::from(args.req("wal")?);
    let pool_pages: usize = args.parse_or("pool-pages", 256)?;
    let oops = |e: &dyn std::fmt::Display| err(format!("recovering {}: {e}", dir.display()));
    let (store, rec) =
        ShardedIndex::open_durable(&dir, &wal, pool_pages, simwal::FsyncPolicy::Always)
            .map_err(|e| oops(&e))?;
    println!("wal epoch:   {}", rec.epoch);
    println!("replayed:    {} frames", rec.frames);
    println!(
        "stale:       {} frames (already in the snapshot)",
        rec.stale_frames
    );
    println!("torn bytes:  {} truncated", rec.truncated_bytes);
    let epoch = store.checkpoint().map_err(|e| oops(&e))?;
    println!(
        "checkpointed {} sequences at epoch {}",
        store.len(),
        epoch.expect("durable index checkpoints")
    );
    Ok(())
}

/// `simseq shard …` — `build` partitions a corpus; `info`/`query`/`nn`
/// are aliases of the top-level commands, which take either layout.
pub fn shard(argv: &[String]) -> CliResult {
    let (sub, args) = crate::args::parse(argv)?;
    match sub {
        "build" => shard_build(&args),
        "info" => info(&args),
        "query" => query(&args),
        "nn" => nn(&args),
        other => Err(err(format!(
            "unknown shard subcommand `{other}`; try `simseq help`"
        ))),
    }
}

/// `simseq shard build` — partition a CSV corpus across N shards.
fn shard_build(args: &Opts) -> CliResult {
    args.reject_unknown(&["data", "out", "shards", "partitioner"])?;
    let data = PathBuf::from(args.req("data")?);
    let out = PathBuf::from(args.req("out")?);
    // The same shardcfg parse that backs `simserved --shards`.
    let cfg = ShardConfig::parse(args.req("shards")?, args.get("partitioner")).map_err(err)?;
    let corpus =
        Corpus::load_csv(&data).map_err(|e| err(format!("reading {}: {e}", data.display())))?;
    let sharded = ShardedIndex::build(&corpus, cfg, IndexConfig::default())
        .map_err(|e| err(e.to_string()))?;
    sharded
        .save(&out)
        .map_err(|e| err(format!("saving sharded index: {e}")))?;
    std::fs::write(out.join("names.txt"), corpus.names().join("\n"))
        .map_err(|e| err(format!("saving names: {e}")))?;
    println!(
        "indexed {} sequences of length {} across {} shards ({}) into {}",
        sharded.len(),
        sharded.seq_len(),
        sharded.shard_count(),
        sharded.partitioner_kind(),
        out.display()
    );
    Ok(())
}

// ---------------------------------------------------------------------

/// Dials a server for the point commands (`promote`, `metrics`),
/// honouring `--timeout-ms` (0 = no socket timeouts).
fn connect_client(args: &Opts, addr: &str) -> Result<simserve::client::Client, CliError> {
    let cfg = match args.get("timeout-ms") {
        None => simserve::client::ClientConfig::default(),
        Some(raw) => {
            let ms: u64 = raw
                .parse()
                .map_err(|_| err(format!("--timeout-ms: cannot parse `{raw}`")))?;
            simserve::client::ClientConfig::with_timeout_ms(ms)
        }
    };
    simserve::client::Client::connect_with(addr, cfg)
        .map_err(|e| err(format!("connecting to {addr}: {e}")))
}

// `info`/`query`/`join`/`nn` are read-only, so skip the directory LOCK
// and coexist with a live simserved on the same files.
fn open_store(args: &Opts) -> Result<(Arc<ShardedIndex>, Vec<String>), CliError> {
    let dir = PathBuf::from(args.req("index")?);
    let store = ShardedIndex::open_read_only(&dir, 256)
        .map(Arc::new)
        .map_err(|e| err(format!("opening index {}: {e}", dir.display())))?;
    let names = std::fs::read_to_string(dir.join("names.txt"))
        .map(|s| s.lines().map(String::from).collect())
        .unwrap_or_default();
    Ok((store, names))
}

/// Executes with cold counters (the paper's per-query accounting),
/// returning the plan, the output and each shard's own metrics.
fn execute_cold(
    store: &ShardedIndex,
    lq: &LogicalQuery,
    q: Option<&TimeSeries>,
) -> Result<(PhysicalPlan, PlanOutput, Vec<EngineMetrics>), CliError> {
    store
        .reset_counters()
        .map_err(|e| err(format!("resetting counters: {e}")))?;
    gather::execute(store, lq, q).map_err(|e| err(e.to_string()))
}

fn print_matches<'a>(names: &[String], family: &Family, matches: impl Iterator<Item = &'a Match>) {
    for m in matches {
        println!(
            "{:24} via {:12} D = {:.4}",
            display_name(names, m.seq),
            family.transforms()[m.transform].label(),
            m.dist
        );
    }
}

fn print_per_shard(per_shard: &[EngineMetrics]) {
    for (i, m) in per_shard.iter().enumerate() {
        eprintln!("  shard {i}: {m}");
    }
}

fn display_name(names: &[String], ordinal: usize) -> String {
    names
        .get(ordinal)
        .cloned()
        .unwrap_or_else(|| format!("#{ordinal}"))
}

fn query_series(args: &Opts, store: &ShardedIndex) -> Result<TimeSeries, CliError> {
    if let Some(raw) = args.get("query-index") {
        let ordinal: usize = raw
            .parse()
            .map_err(|_| err(format!("--query-index: bad ordinal `{raw}`")))?;
        return store
            .fetch_series(ordinal)
            .map_err(|e| err(format!("fetching ordinal {ordinal}: {e}")))?
            .ok_or_else(|| {
                err(format!(
                    "--query-index {ordinal} out of range (0..{})",
                    store.len()
                ))
            });
    }
    csv_query_series(args)
}

fn csv_query_series(args: &Opts) -> Result<TimeSeries, CliError> {
    let csv = Path::new(args.req("query-csv")?);
    let row: usize = args.req_parse("row")?;
    let corpus =
        Corpus::load_csv(csv).map_err(|e| err(format!("reading {}: {e}", csv.display())))?;
    if row >= corpus.len() {
        return Err(err(format!(
            "--row {row} out of range (0..{})",
            corpus.len()
        )));
    }
    Ok(corpus.series()[row].clone())
}

fn family_from(args: &Opts, n: usize) -> Result<Family, CliError> {
    let mut parts: Vec<Family> = Vec::new();
    if let Some((lo, hi)) = args.range("ma")? {
        if hi > n {
            return Err(err(format!("--ma window {hi} exceeds sequence length {n}")));
        }
        parts.push(Family::moving_averages(lo.max(1)..=hi, n));
    }
    if let Some((lo, hi)) = args.range("shift")? {
        parts.push(Family::circular_shifts(lo..=hi, n));
    }
    let mut family = match parts.len() {
        0 => Family::moving_averages(1..=1, n), // identity
        1 => parts.pop().expect("one part"),
        // Several ranges: the composed family (§3.3 — shift, then smooth).
        _ => {
            let mut iter = parts.into_iter();
            let first = iter.next().expect("non-empty");
            iter.fold(first, |acc, next| next.compose(&acc))
        }
    };
    if args.get("inverted") == Some("yes") {
        family = family.with_inverted();
    }
    Ok(family)
}

/// `--engine` → planner preference. `mt` stays the default (matching the
/// wire protocol); `auto` hands the choice to the cost model.
fn engine_pref_from(args: &Opts) -> Result<EnginePref, CliError> {
    simserve::cmd::engine_flag(args.get("engine"))
        .map(simserve::server::engine_pref)
        .map_err(err)
}

/// The one-line plan summary the query commands print to stderr.
fn plan_line(plan: &PhysicalPlan) -> String {
    format!(
        "plan: engine={} chosen_by={} partitions={} est_nodes={:.1} est_pages={:.1} est_cost={:.1}",
        plan.engine.as_str(),
        plan.chosen_by.as_str(),
        plan.partitions(),
        plan.est_nodes,
        plan.est_pages,
        plan.est_cost
    )
}

fn spec_from(args: &Opts) -> Result<RangeSpec, CliError> {
    // Threshold validation is shared with the server's protocol parser
    // (`Threshold::parse_args`), so the two front ends cannot drift.
    let mut spec = match Threshold::parse_args(args.get("rho"), args.get("eps"))
        .map_err(|e| err(e.to_string()))?
    {
        Some(t) => RangeSpec::from_threshold(t),
        None => RangeSpec::correlation(0.96), // the paper's default
    };
    spec = match args.get("policy").unwrap_or("adaptive") {
        "adaptive" => spec.with_policy(FilterPolicy::Adaptive),
        "safe" => spec.with_policy(FilterPolicy::Safe),
        "paper" => spec.with_policy(FilterPolicy::Paper),
        other => {
            return Err(err(format!(
                "--policy must be adaptive|safe|paper, got `{other}`"
            )))
        }
    };
    spec = match args.get("mode").unwrap_or("symmetric") {
        "symmetric" => spec.with_mode(QueryMode::Symmetric),
        "data-only" => spec.with_mode(QueryMode::DataOnly),
        other => {
            return Err(err(format!(
                "--mode must be symmetric|data-only, got `{other}`"
            )))
        }
    };
    Ok(spec)
}
