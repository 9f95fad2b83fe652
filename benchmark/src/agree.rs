//! `tempo-benchmark agree A.json [A2.json …] -- B.json [B2.json …]`: do two
//! sets of runs agree within the bounds `BENCHMARK.json` fixes?
//!
//! One row per workload × end-to-end metric: both medians, the ratio with its
//! base, both sets' quartiles, and a verdict — `worse` when B's median is
//! worse than A's by more than the bound, `unresolved` when either set's own
//! inter-quartile range is wider than the bound (the sets cannot tell a
//! difference of that size apart), `agree` otherwise.

use crate::stats::{median, quartiles};
use serde::Value;
use std::collections::BTreeMap;

/// Pure functions of the inputs: with equal seeds any difference at all is a
/// change in behaviour, whatever the bound says.
const DETERMINISTIC: [&str; 2] = ["slo_attainment_share", "best_effort_ajr_s"];

struct MetricDef {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn get<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(value: &Value) -> Option<f64> {
    match value {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))
}

fn metric_defs(bench: &Value) -> Result<Vec<MetricDef>, String> {
    let list = get(bench, "end_to_end").and_then(Value::as_seq).ok_or("no end_to_end list")?;
    list.iter()
        .map(|m| {
            Ok(MetricDef {
                name: get(m, "name").and_then(Value::as_str).ok_or("metric without name")?.into(),
                lower_is_better: get(m, "better").and_then(Value::as_str) == Some("lower"),
                bound: get(m, "bound").and_then(as_f64).ok_or("metric without bound")?,
            })
        })
        .collect()
}

/// `workload → metric → values` over a set of run files, plus the seeds seen.
type Table = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

fn collect(paths: &[String]) -> Result<(Table, Vec<u64>), String> {
    let mut table = Table::new();
    let mut seeds = Vec::new();
    for path in paths {
        let run = load(path)?;
        if let Some(Value::U64(seed)) = get(&run, "seed") {
            seeds.push(*seed);
        }
        let workloads = get(&run, "workloads")
            .and_then(Value::as_map)
            .ok_or(format!("{path}: no workloads"))?;
        for (workload, result) in workloads {
            let Some(metrics) = get(result, "metrics").and_then(Value::as_map) else { continue };
            for (name, metric) in metrics {
                if let Some(value) = get(metric, "value").and_then(as_f64) {
                    table
                        .entry(workload.clone())
                        .or_default()
                        .entry(name.clone())
                        .or_default()
                        .push(value);
                }
            }
        }
    }
    Ok((table, seeds))
}

/// Returns whether every pair agreed or was unresolved (no `worse`).
pub fn run(bench_path: &str, set_a: &[String], set_b: &[String]) -> Result<bool, String> {
    let defs = metric_defs(&load(bench_path)?)?;
    let (a, mut seeds) = collect(set_a)?;
    let (b, seeds_b) = collect(set_b)?;
    seeds.extend(seeds_b);
    let same_seed = seeds.windows(2).all(|w| w[0] == w[1]);
    println!(
        "{:<11} {:<27} {:>12} {:>12}  {:<22} {:<26} {:<26} verdict",
        "workload", "metric", "median A", "median B", "B/A (base A)", "quartiles A", "quartiles B"
    );
    let (mut pairs, mut worse, mut unresolved) = (0, 0, 0);
    for (workload, metrics_a) in &a {
        for def in &defs {
            let (Some(va), Some(vb)) =
                (metrics_a.get(&def.name), b.get(workload).and_then(|m| m.get(&def.name)))
            else {
                continue;
            };
            pairs += 1;
            let (ma, mb) = (median(va), median(vb));
            let (qa, qb) = (quartiles(va), quartiles(vb));
            let spread = |q: [f64; 3], m: f64| if m == 0.0 { 0.0 } else { (q[2] - q[0]) / m.abs() };
            let worsening = if def.lower_is_better { mb - ma } else { ma - mb };
            let exact = same_seed && DETERMINISTIC.contains(&def.name.as_str());
            let verdict = if exact {
                let all: Vec<f64> = va.iter().chain(vb).copied().collect();
                if all.iter().all(|v| v.to_bits() == all[0].to_bits()) {
                    "agree"
                } else {
                    "worse (differs, same seed)"
                }
            } else if worsening > def.bound * ma.abs() {
                "worse"
            } else if spread(qa, ma).max(spread(qb, mb)) > def.bound {
                "unresolved"
            } else {
                "agree"
            };
            worse += usize::from(verdict.starts_with("worse"));
            unresolved += usize::from(verdict == "unresolved");
            let quart = |q: [f64; 3]| format!("{:.4}/{:.4}/{:.4}", q[0], q[1], q[2]);
            println!(
                "{:<11} {:<27} {:>12.4} {:>12.4}  {:<22} {:<26} {:<26} {}",
                workload,
                def.name,
                ma,
                mb,
                format!("{:.4} ({:.4})", if ma == 0.0 { 1.0 } else { mb / ma }, ma),
                quart(qa),
                quart(qb),
                verdict
            );
        }
    }
    println!(
        "{pairs} pairs: {} agree, {worse} worse, {unresolved} unresolved ({} runs in A, {} in B)",
        pairs - worse - unresolved,
        set_a.len(),
        set_b.len()
    );
    if pairs == 0 {
        return Err("no workload × metric pair is present in both sets".into());
    }
    Ok(worse == 0)
}
