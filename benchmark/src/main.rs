//! `tempo-benchmark`: the decision-latency benchmark of the Tempo daemon.
//!
//! ```text
//! tempo-benchmark [--workload NAME|all] [--seed N] [--seconds S]
//!                 [--trace 0|1 | --traced] [--out FILE]
//!                 [--serve-bin PATH] [--work-dir DIR]
//! tempo-benchmark agree A.json [A2.json …] -- B.json [B2.json …]
//! ```
//!
//! The last line of standard output is one JSON object per workload run:
//! `{"correct", "attempted", "failed", "metrics"}`. The exit code is non-zero
//! when a correctness check, the planned decision count or the failed-share
//! check fails. `run.sh` builds both binaries and calls this.

use serde::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use tempo_benchmark::daemon::{Pinning, WorkDir, POOL_WIDTH, SHARDS};
use tempo_benchmark::e2e::Env;
use tempo_benchmark::gen::{plan, round_seed, Drive, Plan, ROUNDS, WORKLOADS};
use tempo_benchmark::{agree, e2e, layers};

/// `run_seconds` of `BENCHMARK.json`: the default when `--seconds` is absent.
const DEFAULT_SECONDS: u64 = 18;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: u64,
    traced: bool,
    out: Option<PathBuf>,
    serve_bin: PathBuf,
    work_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        traced: false,
        out: None,
        serve_bin: PathBuf::from("target/release/tempo-serve"),
        work_dir: PathBuf::from(format!("benchmark/out/work-{}", std::process::id())),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if name != "all" {
                    parsed.workloads = vec![name.clone()];
                }
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => parsed.traced = value()? != "0",
            "--traced" => parsed.traced = true,
            "--out" => parsed.out = Some(PathBuf::from(value()?)),
            "--serve-bin" => parsed.serve_bin = PathBuf::from(value()?),
            "--work-dir" => parsed.work_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(parsed)
}

fn map(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(entries.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
}

/// One workload's result, as it goes into the run file and (the four
/// contract keys of it) onto the last line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `name → {value, unit, …}`.
    metrics: Vec<(String, Value)>,
    extras: Vec<(String, f64)>,
    shares: Vec<(String, f64)>,
    noisy: bool,
    problems: Vec<String>,
}

impl Report {
    fn contract_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, m)| {
                let field = |key: &str| {
                    m.as_map()
                        .and_then(|f| f.iter().find(|(k, _)| k == key))
                        .map(|(_, v)| v.clone())
                };
                (
                    name.clone(),
                    map(vec![
                        ("value", field("value").unwrap_or(Value::Null)),
                        ("unit", field("unit").unwrap_or(Value::Null)),
                    ]),
                )
            })
            .collect();
        let line = map(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("failed", Value::U64(self.failed)),
            ("metrics", Value::Map(metrics)),
        ]);
        serde_json::to_string(&line).expect("values serialize")
    }

    fn to_value(&self) -> Value {
        let pairs = |list: &[(String, f64)]| {
            Value::Map(list.iter().map(|(k, v)| (k.clone(), Value::F64(*v))).collect())
        };
        map(vec![
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::U64(self.attempted)),
            ("succeeded", Value::U64(self.attempted - self.failed)),
            ("failed", Value::U64(self.failed)),
            ("noisy", Value::Bool(self.noisy)),
            ("metrics", Value::Map(self.metrics.clone())),
            ("extras", pairs(&self.extras)),
            ("shares", pairs(&self.shares)),
            ("problems", Value::Seq(self.problems.iter().cloned().map(Value::Str).collect())),
        ])
    }
}

fn describe(plan: &Plan) -> String {
    let drive = match &plan.drive {
        Drive::Closed { depth } => format!("closed loop, {depth} in flight"),
        Drive::Paced { due_us } => format!(
            "open loop, {:.0} decisions/s",
            due_us.len() as f64 * 1e6 / due_us.last().copied().unwrap_or(1) as f64
        ),
    };
    format!(
        "{drive}; {} domains; warm-up {} + measured {} decisions ({} + {} operations); journal {}",
        plan.specs.len(),
        Plan::decisions(&plan.warmup),
        Plan::decisions(&plan.measured),
        Plan::operations(&plan.warmup),
        Plan::operations(&plan.measured),
        if plan.journal { "on" } else { "off" },
    )
}

fn run_one(
    env: &Env,
    args: &Args,
    workload: &str,
    out_dir: &std::path::Path,
) -> Result<Report, String> {
    let plans: Vec<Plan> = (0..ROUNDS)
        .map(|r| plan(workload, round_seed(args.seed, r), args.seconds))
        .collect::<Result<_, _>>()?;
    let plan = &plans[0];
    println!(
        "== {workload}: seed {}, {} s, {ROUNDS} rounds of: {}",
        args.seed,
        args.seconds,
        describe(plan)
    );
    let outcome = if args.traced {
        let t = layers::run(env, plan)?;
        let trace_file = out_dir.join(format!("trace-{workload}.json"));
        std::fs::write(&trace_file, &t.spans_json).map_err(|e| e.to_string())?;
        println!("   spans written to {}", trace_file.display());
        Report {
            correct: t.correct,
            attempted: t.attempted,
            failed: t.failed,
            metrics: t
                .layers
                .iter()
                .map(|(name, unit, value)| {
                    println!("   {name:<40} {value:>14.4} {unit}");
                    (
                        name.to_string(),
                        map(vec![
                            ("value", Value::F64(*value)),
                            ("unit", Value::Str(unit.to_string())),
                        ]),
                    )
                })
                .collect(),
            extras: Vec::new(),
            shares: t.shares.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            noisy: t.noisy,
            problems: t.problems,
        }
    } else {
        let r = e2e::run(env, &plans)?;
        Report {
            correct: r.correct,
            attempted: r.attempted,
            failed: r.failed,
            metrics: r
                .metrics
                .iter()
                .map(|(name, unit, s)| {
                    println!(
                        "   {name:<28} {:>14.4} {unit:<6} spread {:>10.4}  samples {}",
                        s.value, s.spread, s.samples
                    );
                    (
                        name.to_string(),
                        map(vec![
                            ("value", Value::F64(s.value)),
                            ("unit", Value::Str(unit.to_string())),
                            ("spread", Value::F64(s.spread)),
                            ("samples", Value::U64(s.samples)),
                        ]),
                    )
                })
                .collect(),
            extras: r.extras,
            shares: Vec::new(),
            noisy: r.noisy,
            problems: r.problems,
        }
    };
    for (name, value) in outcome.extras.iter().chain(&outcome.shares) {
        println!("   ({name} {value:.4})");
    }
    println!(
        "   operations: attempted {}, succeeded {}, failed {}{}",
        outcome.attempted,
        outcome.attempted - outcome.failed,
        outcome.failed,
        if outcome.noisy { "; \"noisy\": true (canary moved by more than a tenth)" } else { "" }
    );
    for problem in &outcome.problems {
        println!("   PROBLEM: {problem}");
    }
    Ok(outcome)
}

fn run(args: &Args) -> Result<bool, String> {
    // The in-process mirrors must evaluate the way the daemon is told to.
    std::env::set_var("TEMPO_THREADS", POOL_WIDTH.to_string());
    let out_dir = PathBuf::from("benchmark/out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
    let work = WorkDir::create(&args.work_dir).map_err(|e| e.to_string())?;
    // Counted before pinning: afterwards this process is allowed one CPU.
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "tempo-benchmark: nproc {nproc}, daemon shards {SHARDS}, what-if pool width {POOL_WIDTH}; \
         journal directories on {} ({}) — journal numbers are CPU and system-call cost, not a device's",
        work.path.display(),
        work.filesystem()
    );
    let pinning = Pinning::establish();
    match pinning {
        Some(p) => println!(
            "pinning: daemon on CPU {}, load generator on CPU {} (taskset)",
            p.daemon_cpu, p.generator_cpu
        ),
        None => println!("pinning: none (fewer than two CPUs allowed, or no taskset)"),
    }
    let env = Env { serve_bin: args.serve_bin.clone(), work, pinning, nproc };
    let mut results = Vec::new();
    let mut all_ok = true;
    let mut failure = None;
    for workload in &args.workloads {
        match run_one(&env, args, workload, &out_dir) {
            Ok(outcome) => {
                all_ok &= outcome.correct;
                results.push((workload.clone(), outcome));
            }
            Err(e) => {
                failure = Some(format!("{workload}: {e}"));
                break;
            }
        }
    }
    let _ = std::fs::remove_dir_all(&env.work.path);
    if let Some(e) = failure {
        return Err(e);
    }
    let file = args.out.clone().unwrap_or_else(|| {
        out_dir.join(format!("run-{}{}.json", args.seed, if args.traced { "-traced" } else { "" }))
    });
    let run_file = map(vec![
        ("seed", Value::U64(args.seed)),
        ("seconds", Value::U64(args.seconds)),
        ("traced", Value::Bool(args.traced)),
        ("nproc", Value::U64(nproc as u64)),
        ("shards", Value::U64(SHARDS as u64)),
        ("pool_width", Value::U64(POOL_WIDTH as u64)),
        ("pinned", Value::Bool(pinning.is_some())),
        ("workloads", Value::Map(results.iter().map(|(w, o)| (w.clone(), o.to_value())).collect())),
    ]);
    let text = serde_json::to_string_pretty(&run_file).expect("values serialize");
    std::fs::write(&file, text + "\n").map_err(|e| format!("{}: {e}", file.display()))?;
    println!("run file: {}", file.display());
    for (_, outcome) in &results {
        println!("{}", outcome.contract_line());
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("agree") {
        let rest = &args[1..];
        let Some(split) = rest.iter().position(|a| a == "--") else {
            eprintln!("usage: tempo-benchmark agree A.json [A2.json …] -- B.json [B2.json …]");
            return ExitCode::from(2);
        };
        return match agree::run("BENCHMARK.json", &rest[..split], &rest[split + 1..]) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("tempo-benchmark agree: {e}");
                ExitCode::from(2)
            }
        };
    }
    let parsed = match parse_args(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("tempo-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&parsed) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("tempo-benchmark: a check failed (see PROBLEM lines)");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("tempo-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
