//! The end-to-end run of one workload: three rounds of spawn, set-up and
//! measured phase, the correctness check, and the nine end-to-end metrics as
//! medians over the rounds' slices.

use crate::daemon::{own_cpu_us, Daemon, DaemonConfig, Pinning, WorkDir};
use crate::gen::{encode_frames, Drive, Plan, SplitMix, Step, StepKind};
use crate::load::{drive_closed, drive_paced, Driven, Reply};
use crate::mirror::{check_prefix, reference_prefix, Outcome};
use crate::stats::{median, quantile, sorted, Summary};
use crate::wire::{decode, Wire};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;
use tempo_serve::proto::{Request, Response};
use tempo_serve::DecisionRecord;

/// The measured phase of a round is cut into this many consecutive slices of
/// equal decision count.
pub const SLICES_PER_ROUND: usize = 3;
/// Samples a 99th percentile needs (ten beyond it).
const MIN_SAMPLES_FOR_P99: usize = 1_000;
/// Warm-up depth of the open-loop workload, whose own drive has none.
const WARMUP_DEPTH: usize = 8;

const WARMUP_CORR: u64 = 1 << 32;
const MEASURED_CORR: u64 = 2 << 32;
const CONTROL_CORR: u64 = 3 << 32;

pub struct Env {
    pub serve_bin: PathBuf,
    pub work: WorkDir,
    pub pinning: Option<Pinning>,
    /// CPUs available before anything was pinned.
    pub nproc: usize,
}

/// A daemon that has been set up: domains created, warm-up replied.
pub struct Warm {
    pub daemon: Daemon,
    pub wire: Wire,
    pub warmup: Driven,
    pub setup_s: f64,
}

impl Env {
    pub fn daemon_config(&self, plan: &Plan) -> Result<DaemonConfig, String> {
        let journal_dir = match plan.journal {
            true => Some(self.work.journal_dir(plan.workload).map_err(|e| e.to_string())?),
            false => None,
        };
        Ok(DaemonConfig {
            serve_bin: self.serve_bin.clone(),
            work: self.work.clone(),
            pin_cpu: self.pinning.map(|p| p.daemon_cpu),
            journal_dir,
            // One checkpoint per slice of the measured phase.
            checkpoint_every: plan
                .journal
                .then(|| (Plan::journaled(&plan.measured) / SLICES_PER_ROUND as u64).max(1)),
            watermark_bytes: plan.watermark_bytes,
        })
    }
}

/// Spawn, `Hello`, every `CreateDomain`, then the warm-up stream. Set-up time
/// runs from `spawn()` to the last warm-up reply.
pub fn set_up(
    config: &DaemonConfig,
    plan: &Plan,
    warmup_frames: &[Vec<u8>],
) -> Result<Warm, String> {
    let daemon = Daemon::spawn(config).map_err(|e| e.to_string())?;
    let mut wire = Wire::connect(daemon.addr).map_err(|e| format!("connect: {e}"))?;
    match wire.call(CONTROL_CORR, &Request::Hello).map_err(|e| format!("Hello: {e}"))? {
        Response::Hello { shards, clock, .. } if shards == 1 && clock == "sim" => {}
        other => return Err(format!("unexpected Hello reply: {other:?}")),
    }
    // Any non-`Tick` kind counts against the pipeline depth; `Config` here
    // only says "not a decision".
    let creates: Vec<Step> = plan
        .specs
        .iter()
        .map(|spec| Step {
            kind: StepKind::Config,
            request: Request::CreateDomain { spec: spec.clone() },
        })
        .collect();
    let create_frames = encode_frames(&creates, 0);
    let created = drive_closed(&mut wire, &creates, &create_frames, 0, 64, |_, _| {});
    if let Some(e) = created.error {
        return Err(format!("CreateDomain: {e}"));
    }
    for (i, reply) in created.replies.iter().enumerate() {
        let body = &reply.as_ref().ok_or("CreateDomain unanswered")?.body;
        match decode(body).map_err(|e| e.to_string())? {
            Response::Created { domain } if domain == i as u64 => {}
            other => return Err(format!("CreateDomain {i}: unexpected reply {other:?}")),
        }
    }
    let depth = match plan.drive {
        Drive::Closed { depth } => depth,
        Drive::Paced { .. } => WARMUP_DEPTH,
    };
    let warmup =
        drive_closed(&mut wire, &plan.warmup, warmup_frames, WARMUP_CORR, depth, |_, _| {});
    if let Some(e) = &warmup.error {
        return Err(format!("warm-up: {e}"));
    }
    let setup_s = warmup.finished.duration_since(daemon.spawned_at).as_secs_f64();
    Ok(Warm { daemon, wire, warmup, setup_s })
}

/// `kill -9` on a journaled daemon and a restart on the same journal. Returns
/// the recovery time (spawn to first `Hello` reply) and whether the `Snapshot`
/// reply after recovery equals, byte for byte, the one taken before the kill.
pub fn crash_and_recover(
    config: &DaemonConfig,
    daemon: Daemon,
    mut wire: Wire,
) -> Result<(f64, bool), String> {
    let snapshot = |wire: &mut Wire, corr: u64| {
        wire.call_raw(corr, &Request::Snapshot).map_err(|e| format!("Snapshot: {e}"))
    };
    let before = snapshot(&mut wire, CONTROL_CORR + 1)?;
    drop(wire);
    daemon.kill();
    let recovered = Daemon::spawn(config).map_err(|e| format!("restart: {e}"))?;
    let mut wire = Wire::connect(recovered.addr).map_err(|e| format!("reconnect: {e}"))?;
    wire.call(CONTROL_CORR + 2, &Request::Hello).map_err(|e| format!("Hello: {e}"))?;
    let seconds = recovered.spawned_at.elapsed().as_secs_f64();
    let after = snapshot(&mut wire, CONTROL_CORR + 3)?;
    Ok((seconds, before == after))
}

/// A fixed 100 ms-class spin, timed: the same arithmetic before and after a
/// workload. When the two readings differ by more than a tenth the host was
/// busy with something else and the run is marked noisy (never dropped).
pub fn canary_us() -> f64 {
    let start = Instant::now();
    let mut rng = SplitMix::new(0x1234_5678_9ABC_DEF0);
    let mut acc = 0u64;
    for _ in 0..40_000_000u64 {
        acc ^= rng.next_u64();
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e6
}

pub struct E2e {
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    /// Not gated: printed and written to the run file only.
    pub extras: Vec<(String, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub noisy: bool,
    /// Why `correct` is false.
    pub problems: Vec<String>,
}

/// What one reply says about its request.
pub enum Verdict {
    Ok(Option<DecisionRecord>),
    Failed(String),
}

pub fn verdict(step: &Step, reply: &Option<Reply>) -> Verdict {
    let Some(reply) = reply else { return Verdict::Failed("unanswered".into()) };
    let response = match decode(&reply.body) {
        Ok(r) => r,
        Err(e) => return Verdict::Failed(format!("undecodable reply: {e}")),
    };
    match (step.kind, response) {
        (StepKind::Tick, Response::Ticked { .. }) => Verdict::Ok(None),
        (StepKind::Config, Response::Config { .. }) => Verdict::Ok(None),
        (StepKind::Ingest, Response::Ingested { .. }) => Verdict::Ok(None),
        (
            StepKind::Decision,
            Response::IngestAdvanced { retry_after_micros: None, mut decisions, .. },
        ) if decisions.len() == 1 => Verdict::Ok(decisions.pop()),
        (_, other) => Verdict::Failed(format!("{other:?}")),
    }
}

/// Slice bookkeeping of the measured phase: where each slice of decisions
/// ends (wall time and daemon CPU), and the order decisions completed in.
struct Slicer<'a> {
    steps: &'a [Step],
    daemon: &'a Daemon,
    /// Cumulative decision count at which slice `k` ends.
    ends: Vec<usize>,
    marks: Vec<(Instant, u64)>,
    arrival: Vec<usize>,
}

impl<'a> Slicer<'a> {
    fn new(steps: &'a [Step], daemon: &'a Daemon) -> Self {
        let decisions = Plan::decisions(steps) as usize;
        let ends = (1..=SLICES_PER_ROUND).map(|k| decisions * k / SLICES_PER_ROUND).collect();
        Slicer { steps, daemon, ends, marks: Vec::new(), arrival: Vec::new() }
    }

    fn on_reply(&mut self, index: usize, at: Instant) {
        if self.steps[index].kind != StepKind::Decision {
            return;
        }
        self.arrival.push(index);
        while self.marks.len() < SLICES_PER_ROUND
            && self.arrival.len() >= self.ends[self.marks.len()]
        {
            self.marks.push((at, self.daemon.cpu_us().unwrap_or(0)));
        }
    }
}

/// One round: its slice values and everything the run-level checks need.
struct Round {
    setup_s: f64,
    rate: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    cpu: Vec<f64>,
    /// Latency of every measured decision that was answered.
    latencies: Vec<f64>,
    within_limit: u64,
    peak_rss_mb: f64,
    wall_s: f64,
    daemon_cpu_us: u64,
    own_cpu_us: u64,
    lag_us: Vec<f64>,
    /// Decision records by step index (warm-up followed by measured).
    records: BTreeMap<usize, DecisionRecord>,
    attempted: u64,
    failed: u64,
    recover_s: Option<f64>,
}

/// Spawns and sets up a daemon, drives the measured phase against it and
/// kills it. On the journaled workload the last round ends with `kill -9`
/// and a restart on the same journal, and the recovered state must equal
/// the state before the kill.
fn round(
    env: &Env,
    plan: &Plan,
    warmup_frames: &[Vec<u8>],
    measured_frames: &[Vec<u8>],
    check_recovery: bool,
    problems: &mut Vec<String>,
) -> Result<Round, String> {
    let config = env.daemon_config(plan)?;
    let Warm { daemon, mut wire, warmup, setup_s } = set_up(&config, plan, warmup_frames)?;

    let cpu_start = daemon.cpu_us().map_err(|e| e.to_string())?;
    let own_cpu_start = own_cpu_us().map_err(|e| e.to_string())?;
    let mut slicer = Slicer::new(&plan.measured, &daemon);
    let measured = match &plan.drive {
        Drive::Closed { depth } => drive_closed(
            &mut wire,
            &plan.measured,
            measured_frames,
            MEASURED_CORR,
            *depth,
            |i, at| slicer.on_reply(i, at),
        ),
        Drive::Paced { due_us } => drive_paced(
            &mut wire,
            &plan.measured,
            measured_frames,
            MEASURED_CORR,
            due_us,
            |i, at| slicer.on_reply(i, at),
        ),
    };
    let own_cpu_us = own_cpu_us().map_err(|e| e.to_string())?.saturating_sub(own_cpu_start);
    let daemon_cpu_us = daemon.cpu_us().map_err(|e| e.to_string())?.saturating_sub(cpu_start);
    let peak_rss_mb = daemon.peak_rss_mb().map_err(|e| e.to_string())?;
    let Slicer { marks, arrival, ends, .. } = slicer;
    if let Some(e) = &measured.error {
        problems.push(format!("measured phase stopped early: {e}"));
    }

    let mut recover_s = None;
    if check_recovery && measured.error.is_none() {
        let (seconds, equal) = crash_and_recover(&config, daemon, wire)?;
        recover_s = Some(seconds);
        if !equal {
            problems.push("recovered state differs from the state before kill -9".into());
        }
    } else {
        drop(wire);
        daemon.kill();
    }
    if let Some(dir) = &config.journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    // Replies → verdicts, decision records, failures.
    let mut records: BTreeMap<usize, DecisionRecord> = BTreeMap::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut ok_measured = vec![false; plan.measured.len()];
    let phases = [
        (&plan.warmup, &warmup.replies, 0usize),
        (&plan.measured, &measured.replies, plan.warmup.len()),
    ];
    for (steps, replies, offset) in phases {
        for (i, (step, reply)) in steps.iter().zip(replies.iter()).enumerate() {
            let counted = step.kind != StepKind::Tick;
            attempted += u64::from(counted);
            match verdict(step, reply) {
                Verdict::Ok(record) => {
                    if offset > 0 {
                        ok_measured[i] = true;
                    }
                    if let Some(record) = record {
                        records.insert(offset + i, record);
                    }
                }
                Verdict::Failed(why) => {
                    failed += u64::from(counted);
                    if problems.len() < 5 {
                        problems.push(format!("step {} failed: {why}", offset + i));
                    }
                }
            }
        }
    }

    // Slice values.
    let latency_of = |i: usize| measured.replies[i].as_ref().map(Reply::latency_us);
    let (mut rate, mut p50, mut p99, mut cpu) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut previous = (measured.started, cpu_start, 0usize);
    for (&(at, cpu_at), &end) in marks.iter().zip(&ends) {
        let in_slice = &arrival[previous.2..end];
        let lat = sorted(in_slice.iter().filter_map(|&i| latency_of(i)).collect());
        let wall = at.duration_since(previous.0).as_secs_f64();
        if !lat.is_empty() && wall > 0.0 {
            rate.push(in_slice.len() as f64 / wall);
            p50.push(quantile(&lat, 0.50));
            p99.push(quantile(&lat, 0.99));
            cpu.push(cpu_at.saturating_sub(previous.1) as f64 / in_slice.len() as f64);
        }
        previous = (at, cpu_at, end);
    }
    if rate.len() != SLICES_PER_ROUND {
        problems.push(format!("only {} of {SLICES_PER_ROUND} slices completed", rate.len()));
    }
    let within_limit = plan
        .measured
        .iter()
        .enumerate()
        .filter(|(i, s)| {
            s.kind == StepKind::Decision
                && ok_measured[*i]
                && latency_of(*i).is_some_and(|l| l <= plan.limit_us as f64)
        })
        .count() as u64;
    Ok(Round {
        setup_s,
        rate,
        p50,
        p99,
        cpu,
        latencies: arrival.iter().filter_map(|&i| latency_of(i)).collect(),
        within_limit,
        peak_rss_mb,
        wall_s: measured.finished.duration_since(measured.started).as_secs_f64(),
        daemon_cpu_us,
        own_cpu_us,
        lag_us: measured.lag_us,
        records,
        attempted,
        failed,
        recover_s,
    })
}

/// Runs one workload: `plans[r]` is the plan of round `r`. The rounds share
/// a workload and a size and differ in their seed (see
/// [`crate::gen::round_seed`]).
pub fn run(env: &Env, plans: &[Plan]) -> Result<E2e, String> {
    let plan = plans.first().ok_or("no plan")?;
    let run_started = Instant::now();
    let canary_before = canary_us();
    let mut problems = Vec::new();
    let mut extras: Vec<(String, f64)> = Vec::new();

    // Every round is a fresh daemon. Identical processes differ by 2–3% in
    // speed from one spawn to the next on this box, and the controllers'
    // trajectories — and with them the cost of a decision — differ by as
    // much from one seed to the next; slices from several daemons and seeds
    // under one median take both out of the run-to-run spread.
    let mut rounds = Vec::with_capacity(plans.len());
    for (r, plan) in plans.iter().enumerate() {
        let warmup_frames = encode_frames(&plan.warmup, WARMUP_CORR);
        let measured_frames = encode_frames(&plan.measured, MEASURED_CORR);
        let last = r + 1 == plans.len();
        rounds.push(round(
            env,
            plan,
            &warmup_frames,
            &measured_frames,
            plan.journal && last,
            &mut problems,
        )?);
    }
    let canary_after = canary_us();

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let failed: u64 = rounds.iter().map(|r| r.failed).sum();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }

    // Planned decision count, none skipped; the paper's outcomes over every
    // decision of every round.
    let mut out = Outcome::default();
    let mut made = 0u64;
    for (r, (plan, round)) in plans.iter().zip(&rounds).enumerate() {
        let planned = Plan::decisions(&plan.warmup) + Plan::decisions(&plan.measured);
        let decided = round.records.values().filter(|rec| !rec.skipped).count() as u64;
        if decided != planned {
            problems.push(format!("round {r}: {decided} decisions made, the plan has {planned}"));
        }
        made += decided;
        let steps: Vec<&Step> = plan.warmup.iter().chain(&plan.measured).collect();
        out.add(
            &plan.specs,
            round.records.iter().map(|(i, rec)| (steps[*i].domain().expect("decision"), rec)),
        );
    }

    // Correctness: the fixed prefix of the first round against the
    // in-process reference.
    let reference_started = Instant::now();
    let reference = reference_prefix(plan);
    extras.push(("reference_s".into(), reference_started.elapsed().as_secs_f64()));
    match check_prefix(&reference, &rounds[0].records) {
        Ok(n) => extras.push(("reference_records_checked".into(), n as f64)),
        Err(e) => problems.push(e),
    }

    let pool = |f: fn(&Round) -> &Vec<f64>| -> Vec<f64> {
        rounds.iter().flat_map(|r| f(r).iter().copied()).collect()
    };
    let (rate, p50, p99, cpu) =
        (pool(|r| &r.rate), pool(|r| &r.p50), pool(|r| &r.p99), pool(|r| &r.cpu));
    if rate.is_empty() {
        return Ok(E2e {
            metrics: Vec::new(),
            extras,
            attempted,
            failed,
            correct: false,
            noisy: false,
            problems,
        });
    }
    let measured_decisions = Plan::decisions(&plan.measured);
    let per_slice = measured_decisions / SLICES_PER_ROUND as u64;
    let latencies = sorted(pool(|r| &r.latencies));
    let range = |v: &[f64]| {
        v.iter().copied().fold(f64::MIN, f64::max) - v.iter().copied().fold(f64::MAX, f64::min)
    };
    // The 99th percentile wants ten samples beyond it: per slice where a
    // slice has a thousand decisions, else per round, else over the whole run.
    let p99_summary = if per_slice as usize >= MIN_SAMPLES_FOR_P99 {
        Summary::over_slices(&p99, per_slice)
    } else if measured_decisions as usize >= MIN_SAMPLES_FOR_P99 {
        let per_round: Vec<f64> =
            rounds.iter().map(|r| quantile(&sorted(r.latencies.clone()), 0.99)).collect();
        Summary {
            value: median(&per_round),
            spread: range(&per_round),
            samples: measured_decisions,
        }
    } else {
        Summary::single(quantile(&latencies, 0.99), latencies.len() as u64)
    };
    let setup_s: Vec<f64> = rounds.iter().map(|r| r.setup_s).collect();
    let rss: Vec<f64> = rounds.iter().map(|r| r.peak_rss_mb).collect();
    let within: u64 = rounds.iter().map(|r| r.within_limit).sum();
    let n = rounds.len() as u64;
    let decisions_attempted = measured_decisions * n;
    let metrics = vec![
        ("setup_s", "s", Summary { value: median(&setup_s), spread: range(&setup_s), samples: n }),
        ("decisions_per_s", "1/s", Summary::over_slices(&rate, per_slice)),
        ("decision_p50_us", "us", Summary::over_slices(&p50, per_slice)),
        ("decision_p99_us", "us", p99_summary),
        (
            "within_limit_share",
            "share",
            Summary::single(within as f64 / decisions_attempted.max(1) as f64, decisions_attempted),
        ),
        ("daemon_cpu_us_per_decision", "us", Summary::over_slices(&cpu, per_slice)),
        (
            "daemon_peak_rss_mb",
            "MB",
            Summary { value: median(&rss), spread: range(&rss), samples: n },
        ),
        ("slo_attainment_share", "share", Summary::single(out.slo_attainment_share(), made)),
        ("best_effort_ajr_s", "s", Summary::single(out.best_effort_ajr_s(), made)),
    ];

    let wall: f64 = rounds.iter().map(|r| r.wall_s).sum();
    extras.push(("measured_wall_s".into(), wall));
    extras.push((
        "daemon_cores".into(),
        rounds.iter().map(|r| r.daemon_cpu_us).sum::<u64>() as f64 / 1e6 / wall,
    ));
    extras.push((
        "loadgen.cpu_share".into(),
        rounds.iter().map(|r| r.own_cpu_us).sum::<u64>() as f64 / 1e6 / wall,
    ));
    let lag = sorted(pool(|r| &r.lag_us));
    if !lag.is_empty() {
        extras.push(("loadgen.lag_p99_us".into(), quantile(&lag, 0.99)));
    }
    if !latencies.is_empty() {
        extras.push(("client.decision_p999_us".into(), quantile(&latencies, 0.999)));
        extras.push(("client.decision_max_us".into(), latencies[latencies.len() - 1]));
    }
    if let Some(recover_s) = rounds.iter().find_map(|r| r.recover_s) {
        extras.push(("recover_s".into(), recover_s));
    }
    extras.push(("decision_latency_limit_us".into(), plan.limit_us as f64));
    extras.push(("run_wall_s".into(), run_started.elapsed().as_secs_f64()));
    extras.push(("host.canary_before_us".into(), canary_before));
    extras.push(("host.canary_after_us".into(), canary_after));
    let noisy = (canary_after - canary_before).abs() > 0.1 * canary_before;

    Ok(E2e { metrics, extras, attempted, failed, correct: problems.is_empty(), noisy, problems })
}
