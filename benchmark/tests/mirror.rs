//! Reference-mirror test: on a 200-decision cut of `steady` and `fleet-mix`
//! the real daemon, the untraced mirror and the traced mirror (tracing on and
//! off) all produce the same decision records, bit for bit — and a corrupted
//! record is caught.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;
use tempo_benchmark::daemon::WorkDir;
use tempo_benchmark::e2e::{self, Env};
use tempo_benchmark::gen::{plan, Plan, Step, StepKind};
use tempo_benchmark::layers::traced_pass;
use tempo_benchmark::mirror::{check_prefix, record_bits, reference_prefix, Mirror};
use tempo_serve::DecisionRecord;

const WARMUP_DECISIONS: usize = 80;
const MEASURED_DECISIONS: usize = 120;

/// The first `n` decisions of `steps`, with the ticks and other requests
/// between them.
fn first_decisions(steps: &[Step], n: usize) -> Vec<Step> {
    let mut seen = 0;
    steps
        .iter()
        .take_while(|s| {
            seen += usize::from(s.kind == StepKind::Decision);
            seen <= n
        })
        .cloned()
        .collect()
}

fn cut_plan(workload: &str) -> Plan {
    cut_plan_seeded(workload, 11)
}

fn cut_plan_seeded(workload: &str, seed: u64) -> Plan {
    // Both phases come from the head of the stream: the measured requests
    // must follow the warm-up in simulated time, or their jobs lie outside
    // the windows they are tuned on.
    let mut p = plan(workload, seed, 3).unwrap();
    let head = std::mem::take(&mut p.warmup);
    p.warmup = first_decisions(&head, WARMUP_DECISIONS);
    p.measured = first_decisions(&head[p.warmup.len()..], MEASURED_DECISIONS);
    assert_eq!(Plan::decisions(&p.warmup) as usize, WARMUP_DECISIONS);
    assert_eq!(Plan::decisions(&p.measured) as usize, MEASURED_DECISIONS);
    p
}

/// The root workspace's release daemon, built if it is not there yet.
fn serve_bin() -> PathBuf {
    if let Some(path) = std::env::var_os("TEMPO_SERVE_BIN") {
        return PathBuf::from(path);
    }
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).parent().expect("repository root");
    let target = match std::env::var_os("CARGO_TARGET_DIR").map(PathBuf::from) {
        Some(dir) if dir.is_absolute() => dir,
        Some(dir) => std::env::current_dir().unwrap().join(dir),
        None => root.join("target"),
    };
    let status = Command::new(env!("CARGO"))
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "-p",
            "tempo-serve",
            "--bin",
            "tempo-serve",
        ])
        .env("CARGO_TARGET_DIR", &target)
        .current_dir(root)
        .status()
        .expect("run cargo");
    assert!(status.success(), "building tempo-serve failed");
    target.join("release/tempo-serve")
}

fn env(name: &str) -> Env {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{name}-{}", std::process::id()));
    Env { serve_bin: serve_bin(), work: WorkDir::create(&dir).unwrap(), pinning: None, nproc: 2 }
}

fn mirror_records(p: &Plan) -> Vec<DecisionRecord> {
    let mut mirror = Mirror::new(&p.specs);
    p.warmup.iter().chain(&p.measured).filter_map(|s| mirror.apply(s)).collect()
}

fn assert_same(a: &[DecisionRecord], b: &[DecisionRecord], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: record counts");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(record_bits(x) == record_bits(y), "{what}: record {i} differs\n{x:?}\n{y:?}");
    }
}

fn daemon_equals_mirror(workload: &str) {
    std::env::set_var("TEMPO_THREADS", "1");
    // Two rounds: two daemons, the second with another seed's jobs.
    let plans = [cut_plan(workload), cut_plan_seeded(workload, 12)];
    let env = env(workload);
    let result = e2e::run(&env, &plans);
    let _ = std::fs::remove_dir_all(&env.work.path);
    let result = result.unwrap();
    assert!(result.correct, "{workload}: {:?}", result.problems);
    assert_eq!(result.failed, 0);
    // The cut is short enough that the checked prefix is every decision.
    let checked =
        result.extras.iter().find(|(k, _)| k == "reference_records_checked").map(|(_, v)| *v);
    assert_eq!(checked, Some((WARMUP_DECISIONS + MEASURED_DECISIONS) as f64), "{workload}");
}

#[test]
fn steady_daemon_records_equal_the_mirror() {
    daemon_equals_mirror("steady");
}

#[test]
fn fleet_mix_daemon_records_equal_the_mirror_and_survive_kill_9() {
    daemon_equals_mirror("fleet-mix");
}

#[test]
fn tracing_is_a_pure_observer() {
    for workload in ["steady", "fleet-mix"] {
        let p = cut_plan(workload);
        let untraced = mirror_records(&p);
        let (on, recorder, _) = traced_pass(&p, &p.measured, true).unwrap();
        let (off, silent, _) = traced_pass(&p, &p.measured, false).unwrap();
        assert_same(&on, &untraced, &format!("{workload}: traced mirror vs Domain"));
        assert_same(&off, &on, &format!("{workload}: tracing off vs on"));
        assert!(silent.spans().is_empty());
        let spans = recorder.spans();
        let roots = spans.iter().filter(|s| s.name == "decision").count();
        assert_eq!(roots, MEASURED_DECISIONS, "{workload}: one root span per cut decision");
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
    }
}

#[test]
fn a_corrupted_record_fails_the_check() {
    let p = cut_plan("steady");
    let reference = reference_prefix(&p);
    let mut daemon: BTreeMap<usize, DecisionRecord> = reference.iter().cloned().collect();
    assert_eq!(check_prefix(&reference, &daemon), Ok(reference.len() as u64));
    // One bit of one float.
    let victim = daemon.values_mut().find(|r| !r.observed_qs.is_empty()).unwrap();
    victim.observed_qs[0] = f64::from_bits(victim.observed_qs[0].to_bits() ^ 1);
    assert!(check_prefix(&reference, &daemon).is_err());
    // A missing record.
    let mut missing: BTreeMap<usize, DecisionRecord> = reference.iter().cloned().collect();
    let first = *missing.keys().next().unwrap();
    missing.remove(&first);
    assert!(check_prefix(&reference, &missing).is_err());
}
