//! `e2e --check A.json B.json`: is B worse than A?
//!
//! A and B are `--all` result files (use `--runs 3` or more). Each
//! end-to-end (metric, workload) row gets one verdict from its bound:
//! `unresolved` when either side's own spread is wider than the bound,
//! `regressed` when B's median is worse than A's by more than the bound,
//! `ok` otherwise. Counts that must repeat exactly are compared across
//! every traced run of both files.

use crate::metrics::{Better, MetricDef, Scope, METRICS};
use crate::report::{median, quartiles, Json};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// One child run as the result file keeps it: the `metric` lines it
/// printed, and the counts from its result line.
pub fn parse_run(workload: &str, traced: bool, stdout: &str) -> Result<Json, String> {
    let mut metrics = Vec::new();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        if let ["metric", name, value, unit, samples] = fields[..] {
            let number = |s: &str| s.parse::<f64>().map_err(|e| format!("`{line}`: {e}"));
            metrics.push((
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(number(value)?)),
                    ("unit", Json::str(unit)),
                    (
                        "samples",
                        Json::Num(number(samples.trim_start_matches("n="))?),
                    ),
                ]),
            ));
        }
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result = Json::parse(last).map_err(|e| format!("{workload}: no result line: {e}"))?;
    let field = |key: &str| result.get(key).cloned().unwrap_or(Json::Null);
    Ok(Json::obj([
        ("workload", Json::str(workload)),
        ("trace", Json::Num(f64::from(u8::from(traced)))),
        ("correct", field("correct")),
        ("attempted", field("attempted")),
        ("failed", field("failed")),
        ("metrics", Json::obj(metrics)),
    ]))
}

/// Counts that one client on a fixed op list must reproduce digit for
/// digit.
fn must_repeat(m: &MetricDef) -> bool {
    m.unit == "count" || matches!(m.name, "wal.fsyncs_per_write" | "wal.bytes_per_insert")
}

/// `(workload, metric) → values`, over the runs of one file.
type Table = BTreeMap<(String, String), Vec<f64>>;

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let file = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let mut table = Table::new();
    for run in file.get("runs").map_or(&[][..], Json::as_arr) {
        let workload = run.get("workload").and_then(Json::as_str).unwrap_or("?");
        if let Some(Json::Obj(metrics)) = run.get("metrics") {
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    table
                        .entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
        if run.get("failed").and_then(Json::as_f64) != Some(0.0) {
            return Err(format!("{path}: a run of {workload} has failures"));
        }
    }
    if table.is_empty() {
        return Err(format!("{path}: no runs"));
    }
    Ok(table)
}

fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let mid = median(&mut values.to_vec());
    if mid == 0.0 {
        0.0
    } else {
        (q3 - q1) / mid.abs()
    }
}

pub fn run(a_path: &str, b_path: &str) -> Result<ExitCode, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let mut bad = 0;
    println!(
        "{:<16} {:<30} {:>12} {:>12} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread"
    );
    for ((workload, name), a_values) in &a {
        let Some(b_values) = b.get(&(workload.clone(), name.clone())) else {
            continue;
        };
        let Some(m) = METRICS.iter().find(|m| m.name == name) else {
            continue;
        };
        let (a_mid, b_mid) = (median(&mut a_values.clone()), median(&mut b_values.clone()));
        let wider = spread(a_values).max(spread(b_values));
        let verdict = if m.scope == Scope::PerLayer {
            if !must_repeat(m) {
                continue;
            }
            let first = a_values[0];
            if a_values.iter().chain(b_values).all(|v| *v == first) {
                "exact"
            } else {
                bad += 1;
                "differs"
            }
        } else {
            let worse_by = match m.better {
                Better::Lower => (b_mid - a_mid) / a_mid,
                Better::Higher => (a_mid - b_mid) / a_mid,
            };
            if wider > m.bound {
                "unresolved"
            } else if worse_by > m.bound {
                bad += 1;
                "regressed"
            } else {
                "ok"
            }
        };
        println!(
            "{workload:<16} {name:<30} {a_mid:>12.4} {b_mid:>12.4} {:>+7.1}% {:>7.1}%  {verdict}",
            (b_mid / a_mid - 1.0) * 100.0,
            wider * 100.0,
        );
    }
    Ok(if bad == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
