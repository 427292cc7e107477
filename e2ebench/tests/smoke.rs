//! `BENCHMARK.json`, the tables in the source and what the binary prints
//! must name exactly the same metrics, and `BENCHMARK.json` exactly the
//! workloads the table marks as gated.

use e2ebench::metrics::{MetricDef, Scope, METRICS};
use e2ebench::report::Json;
use e2ebench::workload::WORKLOADS;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn manifest() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` missing in {entry}"))
}

fn in_scope(scope: Scope) -> Vec<&'static MetricDef> {
    METRICS.iter().filter(|m| m.scope == scope).collect()
}

#[test]
fn manifest_matches_the_tables() {
    let manifest = manifest();

    let listed = manifest.get("workloads").expect("workloads").as_arr();
    let gated: Vec<_> = WORKLOADS.into_iter().filter(|w| w.gated).collect();
    assert_eq!(listed.len(), gated.len());
    for (entry, spec) in listed.iter().zip(gated) {
        assert_eq!(text(entry, "name"), spec.name);
        assert_eq!(text(entry, "why"), spec.why);
        assert!(spec.why.len() <= 200, "{}: why is too long", spec.name);
    }

    let listed = manifest.get("end_to_end").expect("end_to_end").as_arr();
    let table = in_scope(Scope::EndToEnd);
    assert_eq!(listed.len(), table.len());
    for (entry, m) in listed.iter().zip(table) {
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(entry, "better"), m.better.as_str(), "{}", m.name);
        let bound = entry.get("bound").and_then(Json::as_f64);
        assert_eq!(bound, Some(m.bound), "{}", m.name);
    }

    let listed = manifest.get("per_layer").expect("per_layer").as_arr();
    let table = in_scope(Scope::PerLayer);
    assert_eq!(listed.len(), table.len());
    for (entry, m) in listed.iter().zip(table) {
        assert_eq!(text(entry, "name"), m.name);
        assert_eq!(text(entry, "unit"), m.unit, "{}", m.name);
        assert_eq!(text(entry, "better"), m.better.as_str(), "{}", m.name);
    }
}

#[test]
fn every_workload_emits_exactly_the_declared_metrics() {
    for spec in WORKLOADS {
        for (trace, scope) in [("0", Scope::EndToEnd), ("1", Scope::PerLayer)] {
            let out = Command::new(env!("CARGO_BIN_EXE_e2e"))
                .args(["--workload", spec.name, "--trace", trace])
                .args(["--seed", "7", "--seconds", "1", "--smoke", "1"])
                .current_dir(env!("CARGO_TARGET_TMPDIR"))
                .output()
                .expect("run e2e");
            let stdout = String::from_utf8_lossy(&out.stdout);
            let what = format!("{} --trace {trace}", spec.name);
            assert!(
                out.status.success(),
                "{what} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = Json::parse(stdout.lines().last().expect("a result line"))
                .unwrap_or_else(|e| panic!("{what}: result line: {e}"));
            assert_eq!(result.get("correct"), Some(&Json::Bool(true)), "{what}");
            assert_eq!(result.get("failed"), Some(&Json::Num(0.0)), "{what}");
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));

            let Some(Json::Obj(metrics)) = result.get("metrics") else {
                panic!("{what}: no metrics object");
            };
            let emitted: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
            let declared: BTreeSet<&str> = in_scope(scope).iter().map(|m| m.name).collect();
            assert_eq!(emitted, declared, "{what}");
            for (name, m) in metrics {
                assert!(
                    name.chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{what}: bad metric name `{name}`"
                );
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
                assert!(m.get("unit").and_then(Json::as_str).is_some(), "{name}");
            }
            // Each metric is printed once on its own line, too.
            let lines = stdout.lines().filter(|l| l.starts_with("metric ")).count();
            assert!(lines >= declared.len(), "{what}");
        }
    }
}
