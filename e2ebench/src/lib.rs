//! `e2e` — the repo's benchmark.
//!
//! ```text
//! e2e --workload NAME --seed N --seconds S --trace 0|1 [--smoke 1]
//! e2e --all [--seed N] [--seconds S] [--runs R] [--out FILE]
//! e2e --check A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json` names: one workload in this
//! process, every metric printed by name with its unit and sample count,
//! then one JSON result line. See `README.md` beside the manifest.

pub mod backend;
pub mod check;
pub mod host;
pub mod metrics;
pub mod report;
pub mod trace;
pub mod workload;

use backend::{closed_loop, peak_rss_mb, setup, verify, Backend, Bench, Segment, Window};
use host::Reference;
use metrics::{Rows, Scope};
use report::{highest_supported, median, percentile, Json};
use simserve::opts::Opts;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;
use workload::{first_reads, Spec, DEFAULT_SEED, TRACED_OPS, WARMUP_OPS, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`, for runs that do not say.
const RUN_SECONDS: u32 = 24;

/// Share of `--seconds` a traced run spends in the closed loop; the rest
/// of its time goes to the probes.
const TRACED_WINDOW: f64 = 0.3;

/// The least a segment of the timed window lasts, seconds: the host's
/// states last longer, so most segments lie inside one, and a segment
/// still holds twenty samples of the reference kernel per client.
const SEGMENT_S: f64 = 0.5;

/// Throw-away set-ups timed between segments, evenly through the window,
/// besides the one the run uses.
const SPARE_SETUPS: usize = 8;

/// How much of everything one run does.
struct Limits {
    seconds: f64,
    max_segments: usize,
    /// Cap on ops per client in a segment.
    max_ops: usize,
    traced_ops: usize,
}

impl Limits {
    fn full(seconds: f64) -> Self {
        Self {
            seconds,
            max_segments: usize::MAX,
            max_ops: usize::MAX,
            traced_ops: TRACED_OPS,
        }
    }

    fn smoke() -> Self {
        Self {
            seconds: 60.0,
            max_segments: 1,
            max_ops: 20,
            traced_ops: 8,
        }
    }
}

struct Outcome {
    rows: Rows,
    attempted: usize,
    failed: usize,
}

/// Warm-up: the reads the run is later verified on, answers discarded.
fn warm_up(bench: &mut Bench) -> usize {
    first_reads(&bench.ctx.spec, bench.ctx.seed, WARMUP_OPS)
        .into_iter()
        .filter(|&ord| bench.read(ord).is_err())
        .count()
}

fn listing(values: impl IntoIterator<Item = f64>) -> String {
    let items: Vec<String> = values.into_iter().map(|v| format!("{v:.4}")).collect();
    items.join(" ")
}

/// The untraced run: every end-to-end metric. Timings are corrected for
/// the state of the host, see `host.rs`; the uncorrected figures are
/// printed beside them.
fn run_measured(spec: &Spec, seed: u64, limits: &Limits) -> Outcome {
    let host = Reference::default();
    let mut probe = host.probe(0);
    // Each `(seconds, slowdown of the host meanwhile)`.
    let mut setups = Vec::new();
    let (mut bench, seconds, slowdown) = probe.bracket(|| setup(spec, seed));
    setups.push((seconds, slowdown));
    let space_amp = bench.space_amp();
    let warm_up_failed = warm_up(&mut bench);

    let mut window = Window::new(&bench.ctx);
    let mut segments: Vec<Segment> = Vec::new();
    let (mut measured_s, mut rss) = (0.0, 0.0);
    while measured_s < limits.seconds && segments.len() < limits.max_segments {
        let last = segments.len() + 1 == limits.max_segments;
        let checkpoint =
            window.checkpoint_ms.is_none() && (measured_s >= limits.seconds / 2.0 || last);
        let segment = closed_loop(
            &mut bench,
            &mut window,
            &host,
            Duration::from_secs_f64(SEGMENT_S),
            limits.max_ops,
            checkpoint,
        );
        if segments.is_empty() {
            // Read before a second copy of the backend exists, and before
            // the oracle runs: both are the harness's memory, not the
            // program's, as is the reference kernel's table.
            rss = peak_rss_mb() - host::TABLE_MIB;
        }
        let before = measured_s;
        measured_s += segment.seconds;
        segments.push(segment);
        let share = limits.seconds / SPARE_SETUPS as f64;
        if (before / share) as usize != (measured_s / share) as usize {
            let (spare, seconds, slowdown) = probe.bracket(|| setup(spec, seed));
            setups.push((seconds, slowdown));
            spare.backend.shutdown();
        }
    }

    println!(
        "# set-ups, s: {}",
        listing(setups.iter().map(|(seconds, _)| *seconds))
    );
    println!(
        "# set-ups, host slowdown: {}",
        listing(setups.iter().map(|(_, slowdown)| *slowdown))
    );
    println!(
        "# segments, ops/s: {}",
        listing(segments.iter().map(|s| s.ops_per_s))
    );
    println!(
        "# segments, median read ms: {}",
        listing(segments.iter().map(|s| s.read_ms))
    );
    println!(
        "# segments, host slowdown: {}",
        listing(segments.iter().map(|s| s.host_slowdown))
    );

    let mut rows = Rows::default();
    let mut corrected: Vec<f64> = setups.iter().map(|(s, slow)| s / slow).collect();
    rows.put("setup_s", median(&mut corrected), corrected.len());
    let mut corrected: Vec<f64> = segments
        .iter()
        .map(|s| s.ops_per_s * s.host_slowdown)
        .collect();
    rows.put("ops_per_s", median(&mut corrected), window.ops());
    let mut corrected: Vec<f64> = segments
        .iter()
        .map(|s| s.read_ms / s.host_slowdown)
        .collect();
    window.read_ms.sort_unstable_by(f64::total_cmp);
    window.write_ms.sort_unstable_by(f64::total_cmp);
    let reads = &window.read_ms;
    rows.put("lat_p50_ms", median(&mut corrected), reads.len());
    rows.put("space_amp", space_amp, 1);
    rows.put("peak_rss_mb", rss, 1);
    let mut slowdowns: Vec<f64> = segments.iter().map(|s| s.host_slowdown).collect();
    rows.put("host_slowdown", median(&mut slowdowns), slowdowns.len());
    rows.put(
        "raw_ops_per_s",
        window.ops() as f64 / measured_s,
        window.ops(),
    );
    rows.put("raw_lat_p50_ms", percentile(reads, 0.5), reads.len());
    rows.put("lat_p95_ms", percentile(reads, 0.95), reads.len());
    if reads.len() >= 1000 {
        rows.put("lat_p99_ms", percentile(reads, 0.99), reads.len());
    }
    let writes = &window.write_ms;
    if !writes.is_empty() {
        rows.put("write_p50_ms", percentile(writes, 0.5), writes.len());
        rows.put("write_p95_ms", percentile(writes, 0.95), writes.len());
    }
    if let Some(ms) = window.checkpoint_ms {
        rows.put("checkpoint_stall_ms", ms, 1);
    }
    let (q, tail) = highest_supported(reads);
    println!(
        "# highest percentile with 10 samples beyond it: p{} = {tail} ms",
        q * 100.0
    );

    let (attempted, failed) = verify(bench, &window);
    Outcome {
        rows,
        attempted: attempted + WARMUP_OPS,
        failed: failed + warm_up_failed,
    }
}

/// The traced run: every per-layer metric, and the span file.
fn run_traced(spec: &Spec, seed: u64, limits: &Limits) -> Outcome {
    let mut bench = setup(spec, seed);
    let mut failed = warm_up(&mut bench);
    let mut rows = Rows::default();
    let mut tracer = trace::Tracer::default();

    // Probes first, on the state set-up left: counts then repeat exactly
    // from run to run, whatever the closed loop below gets through.
    let ords = first_reads(spec, seed, limits.traced_ops);
    let (replay, replay_failed, overhead_pct) = trace::replay(&mut bench, &mut tracer, ords);
    failed += replay_failed;
    rows.put("bench.trace_overhead_pct", overhead_pct, replay.ords.len());
    let outs = bench.backend.with_flat_index(&bench.ctx.corpus, |flat| {
        // Empty the record pool so page reads do not depend on what ran
        // before.
        flat.reset_counters().expect("in-memory pages");
        let outs = trace::probe_query_path(&bench, flat, &mut tracer, &replay, &mut rows);
        trace::probe_regret(&bench, flat, &replay, &mut rows);
        trace::probe_micro(&bench, flat, &mut rows);
        trace::probe_wal(&bench, flat, &mut tracer, &mut rows);
        outs
    });
    trace::probe_shard(&bench, &mut tracer, &replay, &mut rows);
    trace::probe_serve(&bench, &mut tracer, &replay, outs, &mut rows);

    // Two segments, so that a durable backend checkpoints between writes.
    let host = Reference::default();
    let mut window = Window::new(&bench.ctx);
    for checkpoint in [false, true] {
        closed_loop(
            &mut bench,
            &mut window,
            &host,
            Duration::from_secs_f64(limits.seconds * TRACED_WINDOW / 2.0),
            limits.max_ops,
            checkpoint,
        );
    }
    window.read_ms.sort_unstable_by(f64::total_cmp);
    // What the real server saw; with no server on the path, no op was
    // answered from a cache or refused.
    let (mut hit_rate, mut busy_rate) = (0.0, 0.0);
    if let Backend::Wire { clients, .. } = &mut bench.backend {
        if let Ok(Ok(stats)) = clients[0].stats(false) {
            let requests: u64 = stats.ops.iter().map(|op| op.count).sum();
            busy_rate = stats.busy_rejected as f64 / requests.max(1) as f64;
            if let Some(p) = stats.plan {
                hit_rate = p.cache_hits as f64 / (p.cache_hits + p.cache_misses).max(1) as f64;
            }
        } else {
            failed += 1;
        }
    }
    // The tail of the short window above, for the record: it is too
    // unsteady in a sandbox to sit in the gated end-to-end list.
    let reads = &window.read_ms;
    rows.put("bench.lat_p95_ms", percentile(reads, 0.95), reads.len());
    rows.put("core.plan.cache_hit_rate", hit_rate, window.ops());
    rows.put("serve.busy_rate", busy_rate, window.ops());

    let (attempted, verify_failed) = verify(bench, &window);
    let attempted = attempted + WARMUP_OPS + 2 * replay.ords.len();
    failed += verify_failed;
    rows.put(
        "bench.fail_rate",
        failed as f64 / attempted as f64,
        attempted,
    );

    let path = PathBuf::from("results").join(format!("e2e_trace_{}.json", spec.name));
    let written = std::fs::create_dir_all("results")
        .and_then(|()| std::fs::write(&path, format!("{}\n", tracer.to_json())));
    match written {
        Ok(()) => println!("# spans written to {}", path.display()),
        Err(e) => println!("# spans not written to {}: {e}", path.display()),
    }
    Outcome {
        rows,
        attempted,
        failed,
    }
}

/// One workload in this process. Prints one `metric` line per value,
/// then the result line the driver reads.
fn run_workload(opts: &Opts) -> Result<ExitCode, String> {
    let name = opts.req("workload").map_err(|e| e.to_string())?;
    let spec = Spec::by_name(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed: u64 = opts
        .parse_or("seed", DEFAULT_SEED)
        .map_err(|e| e.to_string())?;
    let seconds: f64 = opts
        .parse_or("seconds", f64::from(RUN_SECONDS))
        .map_err(|e| e.to_string())?;
    let traced = opts.parse_or("trace", 0u8).map_err(|e| e.to_string())? != 0;
    let smoke = opts.parse_or("smoke", 0u8).map_err(|e| e.to_string())? != 0;
    if !(seconds > 0.0 && seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let (spec, limits) = if smoke {
        (spec.shrunk(), Limits::smoke())
    } else {
        (spec, Limits::full(seconds))
    };

    println!(
        "# workload {} seed {seed} seconds {seconds} trace {} nproc {}: {} x {}, {} client(s)",
        spec.name,
        traced as u8,
        std::thread::available_parallelism().map_or(1, |p| p.get()),
        spec.sequences,
        spec.len,
        spec.clients,
    );
    let outcome = if traced {
        run_traced(&spec, seed, &limits)
    } else {
        run_measured(&spec, seed, &limits)
    };

    let mut listed = Vec::new();
    for row in &outcome.rows.0 {
        println!(
            "metric {} {} {} n={}",
            row.def.name, row.value, row.def.unit, row.samples
        );
        if row.def.scope != Scope::Extra {
            listed.push((
                row.def.name,
                Json::obj([
                    ("value", Json::Num(row.value)),
                    ("unit", Json::str(row.def.unit)),
                ]),
            ));
        }
    }
    let correct = outcome.failed == 0;
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(correct)),
            ("attempted", Json::Num(outcome.attempted as f64)),
            ("failed", Json::Num(outcome.failed as f64)),
            ("metrics", Json::obj(listed)),
        ])
    );
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn tool_version(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// Every workload, untraced then traced, one child process each so that
/// memory is per workload. Writes one result file.
fn run_all(opts: &Opts) -> Result<ExitCode, String> {
    let seed: u64 = opts
        .parse_or("seed", DEFAULT_SEED)
        .map_err(|e| e.to_string())?;
    let seconds: u32 = opts
        .parse_or("seconds", RUN_SECONDS)
        .map_err(|e| e.to_string())?;
    let rounds: usize = opts.parse_or("runs", 1).map_err(|e| e.to_string())?;
    let out = opts.get("out").map_or_else(
        || PathBuf::from(format!("results/e2e_{seed}.json")),
        PathBuf::from,
    );
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;

    let mut runs = Vec::new();
    let mut all_correct = true;
    for _ in 0..rounds {
        for spec in WORKLOADS {
            for traced in ["0", "1"] {
                let child = std::process::Command::new(&exe)
                    .args(["--workload", spec.name, "--trace", traced])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--smoke", opts.get("smoke").unwrap_or("0")])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&child.stdout);
                print!("{stdout}");
                let run = check::parse_run(spec.name, traced == "1", &stdout)?;
                all_correct &= child.status.success();
                runs.push(run);
            }
        }
    }
    let meta = Json::obj([
        ("benchmark", Json::str("e2e")),
        (
            "rev",
            Json::str(tool_version("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(tool_version("rustc", &["--version"]))),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |p| p.get()) as f64),
        ),
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(f64::from(seconds))),
    ]);
    // One run per line, so that a tracked result file diffs.
    let runs: Vec<String> = runs.iter().map(Json::to_string).collect();
    let result = format!(
        "{{\"meta\": {meta}, \"runs\": [\n{}\n]}}\n",
        runs.join(",\n")
    );
    if let Some(parent) = out.parent() {
        std::fs::create_dir_all(parent).map_err(|e| e.to_string())?;
    }
    std::fs::write(&out, result).map_err(|e| e.to_string())?;
    println!("# result written to {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// The `e2e` binary: `argv` without the program name.
pub fn run(argv: &[String]) -> ExitCode {
    let outcome = match argv.first().map(String::as_str) {
        Some("--check") if argv.len() == 3 => check::run(&argv[1], &argv[2]),
        Some("--all") => Opts::parse(&argv[1..])
            .map_err(|e| e.to_string())
            .and_then(|o| run_all(&o)),
        _ => Opts::parse(argv)
            .map_err(|e| e.to_string())
            .and_then(|o| run_workload(&o)),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("e2e: {e}");
        eprintln!("usage: e2e --workload NAME --seed N --seconds S --trace 0|1");
        eprintln!("       e2e --all [--seed N] [--seconds S] [--runs R] [--out FILE]");
        eprintln!("       e2e --check A.json B.json");
        ExitCode::from(2)
    })
}
