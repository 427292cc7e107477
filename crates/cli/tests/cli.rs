//! End-to-end test of the `simseq` binary: generate → build → info →
//! query → join → nn, all through the real executable.

use std::path::PathBuf;
use std::process::Command;

fn simseq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simseq"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("simseq_cli_test").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> (String, String) {
    let out = cmd.output().expect("spawn simseq");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "command failed.\nstdout: {stdout}\nstderr: {stderr}"
    );
    (stdout, stderr)
}

/// `gen` a walks corpus and `build` it; returns `(data.csv, index dir)`.
fn gen_and_build(dir: &std::path::Path, count: &str, seed: &str) -> (PathBuf, PathBuf) {
    let (data, idx) = (dir.join("data.csv"), dir.join("idx"));
    run_ok(
        simseq()
            .args(["gen", "--kind", "walks", "--len", "64"])
            .args(["--count", count, "--seed", seed, "--out"])
            .arg(&data),
    );
    run_ok(
        simseq()
            .args(["build", "--data"])
            .arg(&data)
            .arg("--out")
            .arg(&idx),
    );
    (data, idx)
}

#[test]
fn full_pipeline() {
    let dir = workdir("pipeline");
    let data = dir.join("data.csv");
    let idx = dir.join("idx");

    run_ok(
        simseq()
            .args([
                "gen", "--kind", "stocks", "--count", "120", "--len", "128", "--seed", "5", "--out",
            ])
            .arg(&data),
    );
    assert!(data.exists());

    let (stdout, _) = run_ok(
        simseq()
            .args(["build", "--data"])
            .arg(&data)
            .arg("--out")
            .arg(&idx),
    );
    assert!(stdout.contains("indexed 120 sequences"));

    let (stdout, _) = run_ok(simseq().args(["info", "--index"]).arg(&idx));
    assert!(stdout.contains("sequences:   120"));
    assert!(stdout.contains("length:      128"));

    // Query: sequence 7 must match itself under the smallest window.
    let (stdout, stderr) = run_ok(
        simseq()
            .args([
                "query",
                "--query-index",
                "7",
                "--ma",
                "5..20",
                "--rho",
                "0.96",
                "--limit",
                "3",
                "--index",
            ])
            .arg(&idx),
    );
    assert!(stdout.contains("S0007"), "self-match missing: {stdout}");
    assert!(stderr.contains("matches over"));

    // The three engines agree on the match count.
    let count = |engine: &str| -> String {
        let (_, stderr) = run_ok(
            simseq()
                .args([
                    "query",
                    "--query-index",
                    "7",
                    "--ma",
                    "5..20",
                    "--rho",
                    "0.96",
                    "--engine",
                    engine,
                    "--policy",
                    "safe",
                    "--index",
                ])
                .arg(&idx),
        );
        stderr.split(" matches").next().unwrap_or("").to_string()
    };
    let mt = count("mt");
    assert_eq!(mt, count("st"));
    assert_eq!(mt, count("scan"));

    // Join runs and reports pairs.
    let (_, stderr) = run_ok(
        simseq()
            .args([
                "join", "--ma", "5..8", "--rho", "0.9", "--limit", "2", "--index",
            ])
            .arg(&idx),
    );
    assert!(stderr.contains("qualifying pairs"));

    // NN returns the query itself first.
    let (stdout, _) = run_ok(
        simseq()
            .args([
                "nn",
                "--query-index",
                "7",
                "--k",
                "2",
                "--ma",
                "1..5",
                "--index",
            ])
            .arg(&idx),
    );
    assert!(stdout.lines().next().unwrap_or("").contains("S0007"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let out = simseq().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = simseq()
        .args(["query", "--index", "/nonexistent-simseq-dir"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("opening index"));

    let out = simseq()
        .args([
            "gen",
            "--kind",
            "nope",
            "--count",
            "1",
            "--len",
            "8",
            "--out",
            "/tmp/x.csv",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    // A flag the subcommand does not take is refused by name, not run as
    // if it were absent.
    let out = simseq().args(["query", "--bogus", "1"]).output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --bogus"));
    // The server serves a directory with the shards it was built with:
    // `--shards` is not one of its flags.
    let out = simseq()
        .args([
            "serve",
            "--index",
            "/nonexistent-simseq-dir",
            "--shards",
            "2",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown flag --shards"));

    let (stdout, _) = run_ok(simseq().arg("help"));
    assert!(stdout.contains("USAGE"));
}

/// `build --shards N` writes a shard group (a plain directory at N = 1),
/// `query`/`nn`/`info` take either layout, and on a shard group the
/// result lines are the single-index build's, byte for byte. There is no
/// `shard` subcommand.
#[test]
fn query_commands_accept_either_layout() {
    let dir = workdir("layouts");
    let (data, one) = gen_and_build(&dir, "90", "11");
    let many = dir.join("many");
    let build = |shards: &str, out: &PathBuf| {
        run_ok(
            simseq()
                .args(["build", "--shards", shards, "--data"])
                .arg(&data)
                .arg("--out")
                .arg(out),
        )
    };
    build("3", &many);
    assert!(many.join("sharding.txt").is_file());
    let plain = dir.join("plain");
    build("1", &plain);
    assert!(plain.join("meta.txt").is_file() && !plain.join("sharding.txt").exists());
    for argv in [&["shard", "build"][..], &["shard", "info"][..]] {
        let out = simseq().args(argv).output().unwrap();
        assert!(!out.status.success(), "{argv:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown subcommand `shard`"),
            "{argv:?}"
        );
    }

    let query = [
        "--query-index",
        "7",
        "--ma",
        "3..12",
        "--rho",
        "0.9",
        "--limit",
        "1000",
    ];
    let nn = ["--query-index", "7", "--k", "6", "--ma", "2..9"];
    for (verb, flags) in [("query", &query[..]), ("nn", &nn[..])] {
        let run = |index: &PathBuf| {
            let mut cmd = simseq();
            cmd.arg(verb).args(flags).arg("--index");
            run_ok(cmd.arg(index))
        };
        let (single, _) = run(&one);
        let (sharded, stderr) = run(&many);
        assert!(single.lines().count() > 3, "{verb}: a broad enough query");
        assert_eq!(sharded, single, "{verb}: sharded vs single stdout");
        assert_eq!(
            run(&plain).0,
            single,
            "{verb}: `--shards 1` is a plain build"
        );
        assert!(stderr.contains("  shard 2: "), "{verb}: per-shard metrics");
    }

    let (info, _) = run_ok(simseq().args(["info", "--index"]).arg(&many));
    assert!(info.contains("shards:      3"), "{info}");
    assert!(info.contains("shard 2:     "), "{info}");

    // The layout-dependent filter is still refused on a shard group, and
    // a join still needs a single index.
    let out = simseq()
        .args([
            "query",
            "--query-index",
            "7",
            "--policy",
            "paper",
            "--index",
        ])
        .arg(&many)
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--policy paper"));
    run_ok(
        simseq()
            .args([
                "query",
                "--query-index",
                "7",
                "--policy",
                "paper",
                "--index",
            ])
            .arg(&one),
    );
    let out = simseq()
        .args(["join", "--rho", "0.9", "--index"])
        .arg(&many)
        .output()
        .unwrap();
    assert!(!out.status.success());

    std::fs::remove_dir_all(&dir).ok();
}

/// `simseq serve` is `simserved` and `simseq load` is `simload`: the
/// durability flags work, `--engine auto` is accepted, and a killed
/// server's log is recovered by `simseq recover`.
#[test]
fn serve_takes_the_simserved_flags() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;

    let dir = workdir("serve");
    let (data, idx) = gen_and_build(&dir, "40", "3");
    let wal = dir.join("wal");

    let mut server = simseq()
        .args(["serve", "--addr", "127.0.0.1:0", "--fsync", "always"])
        .arg("--index")
        .arg(&idx)
        .arg("--wal")
        .arg(&wal)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn simseq serve");
    let mut line = String::new();
    BufReader::new(server.stdout.take().unwrap())
        .read_line(&mut line)
        .unwrap();
    let addr = line
        .trim()
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected banner `{line}`"))
        .to_string();

    let mut client = simserve::client::Client::connect(&addr).unwrap();
    let info = client.info().unwrap().unwrap();
    assert!(
        info.contains(&("durable".to_string(), "true".to_string())),
        "{info:?}"
    );
    let (stdout, _) = run_ok(
        simseq()
            .args(["load", "--conns", "2", "--ops", "5", "--engine", "auto"])
            .args(["--addr", &addr])
            .arg("--verify-index")
            .arg(&idx),
    );
    assert!(stdout.contains("parity: 100%"), "{stdout}");
    let walk: Vec<f64> = (0..64).map(|i| (i as f64 * 0.37).sin() * 5.0).collect();
    assert_eq!(client.insert(walk).unwrap().unwrap(), 40);
    drop(client);
    server.kill().unwrap(); // a crash: no checkpoint
    server.wait().unwrap();

    let (stdout, _) = run_ok(
        simseq()
            .args(["recover", "--index"])
            .arg(&idx)
            .arg("--wal")
            .arg(&wal),
    );
    assert!(stdout.contains("replayed:    1 frames"), "{stdout}");
    assert!(!stdout.contains("dropped:"), "{stdout}");
    assert!(
        stdout.contains("checkpointed 41 sequences at epoch 2"),
        "{stdout}"
    );

    // A shard group recovers through the same report and keeps the same
    // one-log directory.
    let (many, many_wal) = (dir.join("many"), dir.join("many-wal"));
    let shard_build = ["build", "--shards", "3", "--data"];
    run_ok(
        simseq()
            .args(shard_build)
            .arg(&data)
            .arg("--out")
            .arg(&many),
    );
    let recover = ["recover", "--wal"];
    let (sharded, _) = run_ok(
        simseq()
            .args(recover)
            .arg(&many_wal)
            .arg("--index")
            .arg(&many),
    );
    let expected = stdout
        .replace("    1 frames", "    0 frames")
        .replace("checkpointed 41", "checkpointed 40");
    assert_eq!(sharded, expected);
    assert!(many_wal.join("wal.log").is_file() && !many_wal.join("shard-0").exists());

    std::fs::remove_dir_all(&dir).ok();
}
