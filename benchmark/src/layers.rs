//! The traced run: the per-layer table of one workload.
//!
//! A cut of the measured phase (its first decisions) is pushed through
//!
//! 1. the real daemon, one request in flight, with the daemon's own
//!    telemetry read before and after;
//! 2. the untraced mirror (`Domain::{ingest, advance}`), timed per decision;
//! 3. the traced mirror ([`crate::traced::TracedDomain`]), which records the
//!    spans and re-measures the rows that have no call boundary;
//! 4. an embedded one-shard `ControllerRuntime`, for the shard hop, and —
//!    where the workload journals or hibernates — the journal and the
//!    hibernation store.
//!
//! The daemon then serves a further tail of the stream in the workload's own
//! drive mode, which gives the client tail latencies and the load
//! generator's own figures. End-to-end metrics are never taken from this
//! run: tracing is off when they are measured.

use crate::daemon::{own_cpu_us, DaemonConfig};
use crate::e2e::{canary_us, crash_and_recover, set_up, verdict, Env, Verdict};
use crate::gen::{encode_frames, Drive, Plan, Step, StepKind};
use crate::load::{drive_closed, drive_paced, Driven, Reply};
use crate::mirror::{record_bits, Mirror};
use crate::spans::{self_times, to_json, Recorder};
use crate::stats::{median, quantile, sorted};
use crate::traced::{Rows, TracedDomain};
use crate::wire::{decode, Wire};
use bytes::BytesMut;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;
use tempo_obs::{Exposition, Sample};
use tempo_serve::fault::no_faults;
use tempo_serve::proto::{self, Request, Response};
use tempo_serve::wal::{self, Journal, JournalOp, JournalRecord};
use tempo_serve::{codec, Clock, ControllerRuntime, DecisionRecord, RuntimeMetrics, SimClock};

/// Decisions in the cut, and in the tail driven after it.
const CUT_DECISIONS: usize = 2_000;
const ABC_CUT_DECISIONS: usize = 100;
/// Round trips behind each `server.*_rtt_p50_us` and `obs.render_ms`.
const RTT_SAMPLES: usize = 200;
const RENDER_SAMPLES: usize = 20;
/// Domains hibernated and woken for the `fleet.*_us_per_domain` rows.
const FLEET_SAMPLES: usize = 64;
/// No-op round trips through the embedded runtime's shard queue.
const HOP_SAMPLES: usize = 2_000;

const CUT_CORR: u64 = 4 << 32;
const TAIL_CORR: u64 = 5 << 32;
const CONTROL_CORR: u64 = 6 << 32;

pub struct Traced {
    pub layers: Vec<(&'static str, &'static str, f64)>,
    /// Share of the daemon's depth-1 decision latency by layer group.
    pub shares: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub noisy: bool,
    pub problems: Vec<String>,
    pub spans_json: String,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn per(total: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        total / count as f64
    }
}

struct Control<'a> {
    wire: &'a mut Wire,
    corr: u64,
}

impl Control<'_> {
    fn call(&mut self, request: &Request) -> Result<Response, String> {
        self.corr += 1;
        self.wire.call(self.corr, request).map_err(|e| format!("{request:?}: {e}"))
    }

    fn telemetry(&mut self) -> Result<Exposition, String> {
        match self.call(&Request::Telemetry)? {
            Response::Telemetry { text } => Exposition::parse(&text),
            other => Err(format!("unexpected Telemetry reply: {other:?}")),
        }
    }

    fn metrics(&mut self) -> Result<RuntimeMetrics, String> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { metrics } => Ok(metrics),
            other => Err(format!("unexpected Metrics reply: {other:?}")),
        }
    }

    /// Median round-trip time of `request` over `n` calls, in microseconds.
    fn rtt_p50_us(&mut self, request: &Request, n: usize) -> Result<f64, String> {
        let mut samples = Vec::with_capacity(n);
        for _ in 0..n {
            let t = Instant::now();
            self.call(request)?;
            samples.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(median(&samples))
    }
}

/// `after − before`, sample by sample: what the daemon counted in between.
fn delta(before: &Exposition, after: &Exposition) -> Exposition {
    let key = |s: &Sample| (s.name.clone(), s.labels.clone());
    let old: HashMap<_, f64> = before.samples.iter().map(|s| (key(s), s.value)).collect();
    let samples = after
        .samples
        .iter()
        .map(|s| Sample {
            name: s.name.clone(),
            labels: s.labels.clone(),
            value: s.value - old.get(&key(s)).copied().unwrap_or(0.0),
        })
        .collect();
    Exposition { samples }
}

fn decision_latencies_us(steps: &[Step], driven: &Driven) -> Vec<f64> {
    steps
        .iter()
        .zip(&driven.replies)
        .filter(|(s, _)| s.kind == StepKind::Decision)
        .filter_map(|(_, r)| r.as_ref().map(Reply::latency_us))
        .collect()
}

/// Index just past the `n`-th decision of `steps` (or the end).
fn index_after_decisions(steps: &[Step], n: usize) -> usize {
    let mut seen = 0;
    for (i, step) in steps.iter().enumerate() {
        if step.kind == StepKind::Decision {
            seen += 1;
            if seen == n {
                return i + 1;
            }
        }
    }
    steps.len()
}

/// What the daemon phase yields.
struct DaemonPhase {
    cut: Driven,
    tail: Driven,
    tail_wall_s: f64,
    tail_own_cpu_us: u64,
    counted: Exposition,
    metrics_before: RuntimeMetrics,
    metrics_after: RuntimeMetrics,
    hello_rtt_p50_us: f64,
    config_rtt_p50_us: f64,
    render_ms: f64,
    series: u64,
    recover_s: f64,
    recovered_equal: bool,
}

fn daemon_phase(
    config: &DaemonConfig,
    plan: &Plan,
    cut: &[Step],
    tail: &[Step],
    tail_first_op: usize,
) -> Result<DaemonPhase, String> {
    let warmup_frames = encode_frames(&plan.warmup, 1 << 32);
    let warm = set_up(config, plan, &warmup_frames)?;
    let (daemon, mut wire) = (warm.daemon, warm.wire);
    let cut_frames = encode_frames(cut, CUT_CORR);
    let tail_frames = encode_frames(tail, TAIL_CORR);

    let mut control = Control { wire: &mut wire, corr: CONTROL_CORR };
    let metrics_before = control.metrics()?;
    let telemetry_before = control.telemetry()?;
    let cut_driven = drive_closed(control.wire, cut, &cut_frames, CUT_CORR, 1, |_, _| {});
    if let Some(e) = &cut_driven.error {
        return Err(format!("traced cut: {e}"));
    }
    let telemetry_after = control.telemetry()?;
    let metrics_after = control.metrics()?;

    let own_cpu = own_cpu_us().map_err(|e| e.to_string())?;
    let tail_driven = match &plan.drive {
        Drive::Closed { depth } => {
            drive_closed(control.wire, tail, &tail_frames, TAIL_CORR, *depth, |_, _| {})
        }
        Drive::Paced { due_us } => {
            let ops = Plan::operations(tail) as usize;
            let from = tail_first_op.min(due_us.len().saturating_sub(ops));
            let base = if from == 0 { 0 } else { due_us[from - 1] };
            let due: Vec<u64> = due_us[from..from + ops].iter().map(|d| d - base).collect();
            drive_paced(control.wire, tail, &tail_frames, TAIL_CORR, &due, |_, _| {})
        }
    };
    let tail_own_cpu_us = own_cpu_us().map_err(|e| e.to_string())?.saturating_sub(own_cpu);
    if let Some(e) = &tail_driven.error {
        return Err(format!("traced tail: {e}"));
    }
    let tail_wall_s = tail_driven.finished.duration_since(tail_driven.started).as_secs_f64();

    let hello_rtt_p50_us = control.rtt_p50_us(&Request::Hello, RTT_SAMPLES)?;
    let config_rtt_p50_us = control.rtt_p50_us(&Request::Config { domain: 0 }, RTT_SAMPLES)?;
    let mut render = Vec::with_capacity(RENDER_SAMPLES);
    let mut series = 0;
    for _ in 0..RENDER_SAMPLES {
        let t = Instant::now();
        let exposition = control.telemetry()?;
        render.push(t.elapsed().as_secs_f64() * 1e3);
        series = exposition.samples.len() as u64;
    }

    // Crash recovery, where the workload journals.
    let (recover_s, recovered_equal) = match config.journal_dir {
        Some(_) => crash_and_recover(config, daemon, wire)?,
        None => (0.0, true),
    };

    Ok(DaemonPhase {
        cut: cut_driven,
        tail: tail_driven,
        tail_wall_s,
        tail_own_cpu_us,
        counted: delta(&telemetry_before, &telemetry_after),
        metrics_before,
        metrics_after,
        hello_rtt_p50_us,
        config_rtt_p50_us,
        render_ms: median(&render),
        series,
        recover_s,
        recovered_equal,
    })
}

/// The untraced mirror over warm-up and cut: every decision record, and the
/// time of each cut decision (ingest + advance), in nanoseconds.
fn untraced_pass(plan: &Plan, cut: &[Step]) -> (Vec<DecisionRecord>, Vec<u64>) {
    let mut mirror = Mirror::new(&plan.specs);
    let mut records = Vec::new();
    for step in &plan.warmup {
        records.extend(mirror.apply(step));
    }
    let mut times = Vec::new();
    for step in cut {
        if let Some(domain) = step.domain() {
            mirror.ensure(domain);
        }
        let request = step.request.clone();
        let t = Instant::now();
        let record = mirror.apply_request(request);
        let ns = t.elapsed().as_nanos() as u64;
        if let Some(record) = record {
            times.push(ns);
            records.push(record);
        }
    }
    (records, times)
}

/// The traced mirror over the same steps. Spans are recorded for the cut
/// only. Returns the records, the spans' recorder and the re-measured rows.
pub fn traced_pass(
    plan: &Plan,
    cut: &[Step],
    tracing: bool,
) -> Result<(Vec<DecisionRecord>, Recorder, Rows), String> {
    let rec = Recorder::new();
    let mut domains: BTreeMap<u64, TracedDomain> = BTreeMap::new();
    let mut now = 0;
    let mut records = Vec::new();
    let mut decision = 0u64;
    // Counts and re-measured rows; reset when the cut begins.
    let mut rows = Rows::default();
    for (phase, steps) in [(0, plan.warmup.as_slice()), (1, cut)] {
        if phase == 1 {
            // Rows count the cut only.
            rows = Rows::default();
            rec.set_enabled(tracing);
        }
        for step in steps {
            if let Some(id) = step.domain() {
                if let Entry::Vacant(slot) = domains.entry(id) {
                    slot.insert(TracedDomain::new(plan.specs[id as usize].clone())?);
                }
            }
            match step.request.clone() {
                Request::Tick { micros } => now += micros,
                Request::IngestAdvance { domain, jobs, .. } => {
                    decision += 1;
                    rec.set_decision(decision);
                    let d = domains.get_mut(&domain).expect("created above");
                    let open = rec.enter("decision");
                    d.ingest(&rec, &mut rows, jobs);
                    let record = d.advance(&rec, &mut rows, now);
                    rec.exit(open);
                    d.remeasure(&mut rows);
                    records.push(record);
                }
                Request::Ingest { domain, jobs } => {
                    let d = domains.get_mut(&domain).expect("created above");
                    let open = rec.enter("ingest_only");
                    d.ingest(&rec, &mut rows, jobs);
                    rec.exit(open);
                }
                _ => {}
            }
        }
    }
    Ok((records, rec, rows))
}

/// What the embedded-runtime pass yields.
#[derive(Default)]
struct Embedded {
    /// Median round trip of a no-op through the shard queue, microseconds.
    hop_us: f64,
    append_ns: u64,
    appends: u64,
    journal_bytes: u64,
    checkpoint_ms: f64,
    replay_ns: u64,
    replayed: u64,
    replay_equal: bool,
    hibernate_ns: u64,
    rehydrate_ns: u64,
    fleet_samples: u64,
    snapshot_bytes: u64,
}

fn embedded_pass(env: &Env, plan: &Plan, cut: &[Step]) -> Result<Embedded, String> {
    let err = |e: tempo_serve::RuntimeError| e.to_string();
    let clock = Arc::new(SimClock::new());
    let runtime = ControllerRuntime::new(1, Arc::<SimClock>::clone(&clock));
    for spec in &plan.specs {
        runtime.create_domain(spec.clone()).map_err(err)?;
    }
    let apply = |step: &Step| -> Result<(), String> {
        let now = clock.now();
        match step.request.clone() {
            Request::Tick { micros } => {
                clock.advance(micros);
            }
            Request::IngestAdvance { domain, jobs, .. } => {
                runtime
                    .on_domain(domain, move |d| {
                        d.ingest(now, jobs);
                        d.advance(now);
                    })
                    .map_err(err)?;
            }
            Request::Ingest { domain, jobs } => {
                runtime
                    .on_domain(domain, move |d| {
                        d.ingest(now, jobs);
                    })
                    .map_err(err)?;
            }
            _ => {}
        }
        Ok(())
    };
    // The shard hop, directly: a closure that does nothing still pays the
    // boxed job, the queue, the wake-up of the shard thread, the cost sample
    // and the reply — everything `on_domain` adds to a direct call.
    let mut hops = Vec::with_capacity(HOP_SAMPLES);
    for _ in 0..HOP_SAMPLES {
        let t = Instant::now();
        runtime.inspect(0, |_| ()).map_err(err)?;
        hops.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let mut out = Embedded { hop_us: median(&hops), replay_equal: true, ..Embedded::default() };
    if !plan.journal && plan.watermark_bytes.is_none() {
        runtime.shutdown();
        return Ok(out);
    }
    for step in &plan.warmup {
        apply(step)?;
    }

    // The journal: a checkpoint of the warm state, then one append per
    // journaled request of the cut, as the daemon writes them.
    let journal = match plan.journal {
        true => {
            let dir = env.work.journal_dir("mirror").map_err(|e| e.to_string())?;
            let (journal, _) = Journal::open(&dir, u64::MAX, no_faults())?;
            let snapshot = runtime.snapshot();
            let t = Instant::now();
            journal.write_checkpoint(&snapshot)?;
            out.checkpoint_ms = t.elapsed().as_secs_f64() * 1e3;
            Some((journal, dir))
        }
        false => None,
    };
    for step in cut {
        let now_before = clock.now();
        apply(step)?;
        let Some((journal, _)) = &journal else { continue };
        let record = match step.request.clone() {
            Request::Tick { micros } => {
                JournalRecord { now: clock.now(), op: JournalOp::Tick { micros } }
            }
            Request::IngestAdvance { domain, jobs, steps } => JournalRecord {
                now: now_before,
                op: JournalOp::IngestAdvance { domain, jobs, steps },
            },
            Request::Ingest { domain, jobs } => {
                JournalRecord { now: now_before, op: JournalOp::Ingest { domain, jobs } }
            }
            _ => continue,
        };
        let t = Instant::now();
        journal.append(&record)?;
        out.append_ns += t.elapsed().as_nanos() as u64;
    }
    if let Some((journal, dir)) = journal {
        out.appends = journal.stats().appends;
        out.journal_bytes =
            std::fs::metadata(dir.join("journal.bin")).map_err(|e| e.to_string())?.len();
        drop(journal);
        // Replay into a fresh runtime: checkpoint restore plus the cut.
        let (_, recovered) = Journal::open(&dir, u64::MAX, no_faults())?;
        out.replayed = recovered.records.len() as u64;
        let fresh_clock = Arc::new(SimClock::new());
        let fresh = ControllerRuntime::new(1, Arc::<SimClock>::clone(&fresh_clock));
        let t = Instant::now();
        wal::replay(&fresh, Some(&fresh_clock), recovered)?;
        out.replay_ns = t.elapsed().as_nanos() as u64;
        out.replay_equal = fresh.snapshot() == runtime.snapshot();
        fresh.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    // The hibernation store: put domains of the cut to sleep and wake them.
    if plan.watermark_bytes.is_some() {
        let mut ids: Vec<u64> = cut.iter().filter_map(Step::domain).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.truncate(FLEET_SAMPLES);
        let snapshot = runtime.snapshot();
        for id in &ids {
            if let Some(ds) = snapshot.domains.iter().find(|d| d.id == *id) {
                out.snapshot_bytes += codec::encode_snapshot(ds).len() as u64;
            }
            let t = Instant::now();
            runtime.hibernate(*id).map_err(err)?;
            out.hibernate_ns += t.elapsed().as_nanos() as u64;
            let t = Instant::now();
            runtime.inspect(*id, |_| ()).map_err(err)?;
            out.rehydrate_ns += t.elapsed().as_nanos() as u64;
        }
        out.fleet_samples = ids.len() as u64;
    }
    runtime.shutdown();
    Ok(out)
}

/// Codec rows on the cut's own frames and the daemon's own replies.
struct CodecRows {
    decode_us_per_req: f64,
    encode_us_per_resp: f64,
    req_bytes: u64,
    resp_bytes: u64,
    jsonl_decode_us_per_req: f64,
    jsonl_encode_us_per_resp: f64,
}

fn codec_rows(cut: &[Step], driven: &Driven) -> Result<CodecRows, String> {
    let frames = encode_frames(cut, 0);
    let req_bytes = frames.iter().map(|f| f.len() as u64).sum();
    let mut pending = frames.clone();
    let t = Instant::now();
    for frame in &mut pending {
        let (_, body) = codec::take_frame(frame)?.ok_or("incomplete frame")?;
        std::hint::black_box(codec::decode_binary::<Request>(&body)?);
    }
    let decode_ns = t.elapsed().as_nanos() as u64;

    let responses: Vec<Response> = driven
        .replies
        .iter()
        .flatten()
        .map(|r| decode(&r.body).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let resp_bytes =
        driven.replies.iter().flatten().map(|r| (codec::FRAME_HEADER + r.body.len()) as u64).sum();
    let mut buf = BytesMut::with_capacity(64 * 1024);
    let t = Instant::now();
    for (i, response) in responses.iter().enumerate() {
        buf.clear();
        codec::encode_frame(i as u64, response, &mut buf);
        std::hint::black_box(buf.len());
    }
    let encode_ns = t.elapsed().as_nanos() as u64;

    let lines: Vec<String> = cut.iter().map(|s| proto::encode(&s.request)).collect();
    let t = Instant::now();
    for line in &lines {
        std::hint::black_box(proto::decode::<Request>(line)?);
    }
    let jsonl_decode_ns = t.elapsed().as_nanos() as u64;
    let mut line = String::new();
    let t = Instant::now();
    for response in &responses {
        line.clear();
        proto::encode_line(response, &mut line);
        std::hint::black_box(line.len());
    }
    let jsonl_encode_ns = t.elapsed().as_nanos() as u64;

    Ok(CodecRows {
        decode_us_per_req: per(us(decode_ns), cut.len() as u64),
        encode_us_per_resp: per(us(encode_ns), responses.len() as u64),
        req_bytes,
        resp_bytes,
        jsonl_decode_us_per_req: per(us(jsonl_decode_ns), cut.len() as u64),
        jsonl_encode_us_per_resp: per(us(jsonl_encode_ns), responses.len() as u64),
    })
}

pub fn run(env: &Env, plan: &Plan) -> Result<Traced, String> {
    // The mirrors count what the daemon counts.
    tempo_obs::set_enabled(true);
    let canary_before = canary_us();
    let measured_decisions = Plan::decisions(&plan.measured) as usize;
    let wanted = if plan.workload == "abc-replay" { ABC_CUT_DECISIONS } else { CUT_DECISIONS };
    let cut_decisions = wanted.min(measured_decisions * 2 / 3).max(1);
    let tail_decisions = (cut_decisions / 2).min(measured_decisions - cut_decisions);
    let cut_end = index_after_decisions(&plan.measured, cut_decisions);
    let tail_end = index_after_decisions(&plan.measured, cut_decisions + tail_decisions);
    let cut = &plan.measured[..cut_end];
    let tail = &plan.measured[cut_end..tail_end];
    let mut problems = Vec::new();

    // 1. The daemon.
    let config = env.daemon_config(plan)?;
    let phase = daemon_phase(&config, plan, cut, tail, Plan::operations(cut) as usize)?;
    if let Some(dir) = &config.journal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    if !phase.recovered_equal {
        problems.push("recovered state differs from the state before kill -9".into());
    }
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut daemon_records = Vec::new();
    for (steps, driven) in [(cut, &phase.cut), (tail, &phase.tail)] {
        for (step, reply) in steps.iter().zip(&driven.replies) {
            if step.kind == StepKind::Tick {
                continue;
            }
            attempted += 1;
            match verdict(step, reply) {
                Verdict::Ok(record) => daemon_records.extend(record),
                Verdict::Failed(_) => failed += 1,
            }
        }
    }
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} operations failed"));
    }

    // 2. The untraced mirror; the daemon's cut records must equal it.
    let (untraced_records, mirror_ns) = untraced_pass(plan, cut);
    let warm_decisions = Plan::decisions(&plan.warmup) as usize;
    let cut_records = &untraced_records[warm_decisions..];
    if daemon_records.len() < cut_records.len()
        || cut_records.iter().zip(&daemon_records).any(|(m, d)| record_bits(m) != record_bits(d))
    {
        problems.push("daemon records of the cut differ from the mirror's".into());
    }

    // 3. The traced mirror; tracing must be a pure observer.
    let (traced_records, rec, rows) = traced_pass(plan, cut, true)?;
    if traced_records.len() != untraced_records.len()
        || traced_records
            .iter()
            .zip(&untraced_records)
            .any(|(t, u)| record_bits(t) != record_bits(u))
    {
        problems.push("traced mirror records differ from the untraced mirror's".into());
    }
    let spans = rec.spans();
    let selfs = self_times(&spans);
    let self_ns = |name: &str| selfs.get(name).map_or(0, |(ns, _)| *ns);
    let traced_decision_ns: u64 =
        spans.iter().filter(|s| s.name == "decision").map(|s| s.end_ns - s.start_ns).sum();

    // 4. The embedded runtime, journal and hibernation store.
    let embedded = embedded_pass(env, plan, cut)?;
    if !embedded.replay_equal {
        problems.push("journal replay of the cut does not reproduce the runtime state".into());
    }
    let codec_rows = codec_rows(cut, &phase.cut)?;
    let canary_after = canary_us();

    // Assemble the table.
    let decisions = mirror_ns.len() as u64;
    let mirror_us = per(us(mirror_ns.iter().sum()), decisions);
    let daemon_latencies = decision_latencies_us(cut, &phase.cut);
    let daemon_us = per(daemon_latencies.iter().sum(), daemon_latencies.len() as u64);
    // The overhead is a small difference of two large numbers from two
    // processes: decision by decision, then the median, so that neither the
    // spread of decision costs nor a few slow wake-ups decide it.
    let overheads: Vec<f64> =
        daemon_latencies.iter().zip(&mirror_ns).map(|(d, m)| d - us(*m)).collect();
    let overhead_us = if overheads.is_empty() { 0.0 } else { median(&overheads) };
    let counted = &phase.counted;
    let binary_decision = [("codec", "binary"), ("op", "ingest_advance")];
    let request_quantile = |q: f64| {
        counted
            .histogram_quantile("tempo_request_duration_micros", &binary_decision, q)
            .unwrap_or(0.0)
    };
    let sim_runs = counted.sum("tempo_sim_runs_total", &[]);
    let hibernations =
        phase.metrics_after.total_hibernations - phase.metrics_before.total_hibernations;
    let rehydrations =
        phase.metrics_after.total_rehydrations - phase.metrics_before.total_rehydrations;

    let iterate_self = self_ns("control.iterate");
    let step_self = self_ns("pald.step");
    let eval_ns = self_ns("whatif.eval_batch") + self_ns("whatif.eval");
    let solver_ns = rows.loess_ns + rows.mgda_ns + rows.simplex_ns + rows.project_ns;
    let predict_us_per_run = per(us(rows.predict_ns), rows.predict_runs);
    let qs_us_per_schedule = per(us(rows.qs_ns), rows.qs_schedules);
    let sim_qs_ns = rows.sims as f64 * (predict_us_per_run + qs_us_per_schedule) * 1e3;
    let whatif_self_ns = eval_ns as f64 - sim_qs_ns;
    let pald_residual_ns = step_self as f64 - solver_ns as f64;
    let domain_self_ns = self_ns("decision");
    // What the layer spans cover: every span below the decision root. The
    // root's own self time is the part of a decision no layer span accounts
    // for.
    let covered_ns = traced_decision_ns.saturating_sub(domain_self_ns);
    let mirror_total_ns: u64 = mirror_ns.iter().sum();
    let tail_latencies = sorted(decision_latencies_us(tail, &phase.tail));

    let d = decisions;
    let layers: Vec<(&'static str, &'static str, f64)> = vec![
        ("codec.decode_us_per_req", "us", codec_rows.decode_us_per_req),
        ("codec.encode_us_per_resp", "us", codec_rows.encode_us_per_resp),
        ("codec.req_bytes_per_decision", "count", per(codec_rows.req_bytes as f64, d)),
        ("codec.resp_bytes_per_decision", "count", per(codec_rows.resp_bytes as f64, d)),
        ("proto.jsonl_decode_us_per_req", "us", codec_rows.jsonl_decode_us_per_req),
        ("proto.jsonl_encode_us_per_resp", "us", codec_rows.jsonl_encode_us_per_resp),
        ("server.hello_rtt_p50_us", "us", phase.hello_rtt_p50_us),
        ("server.config_rtt_p50_us", "us", phase.config_rtt_p50_us),
        ("server.overhead_us_per_decision", "us", overhead_us),
        ("server.request_p50_us", "us", request_quantile(0.50)),
        ("server.request_p99_us", "us", request_quantile(0.99)),
        ("runtime.hop_us_per_decision", "us", embedded.hop_us),
        ("window.ingest_us_per_job", "us", per(us(self_ns("window.ingest")), rows.ingested_jobs)),
        ("window.snapshot_us_per_decision", "us", per(us(self_ns("window.snapshot")), d)),
        ("window.jobs_per_snapshot", "count", per(rows.snapshot_jobs as f64, rows.snapshots)),
        ("domain.self_us_per_decision", "us", per(us(domain_self_ns), d)),
        ("domain.observe_us_per_decision", "us", per(us(self_ns("domain.observe")), d)),
        ("control.set_workload_us_per_decision", "us", per(us(self_ns("control.set_workload")), d)),
        ("control.iterate_self_us_per_decision", "us", per(us(iterate_self), d)),
        ("pald.step_self_us_per_decision", "us", per(us(step_self), d)),
        ("pald.residual_us_per_decision", "us", per(pald_residual_ns / 1e3, d)),
        ("pald.evals_per_step", "count", per(rows.evals as f64, rows.steps)),
        ("solver.loess_us_per_step", "us", per(us(rows.loess_ns), rows.steps)),
        ("solver.mgda_us_per_step", "us", per(us(rows.mgda_ns), rows.steps)),
        ("solver.simplex_us_per_step", "us", per(us(rows.simplex_ns), rows.steps)),
        ("solver.project_us_per_step", "us", per(us(rows.project_ns), rows.steps)),
        ("whatif.eval_batch_us_per_decision", "us", per(us(eval_ns), d)),
        ("whatif.self_us_per_eval", "us", per(whatif_self_ns / 1e3, rows.evals)),
        ("whatif.sims_per_decision", "count", per(rows.sims as f64, d)),
        ("whatif.cache_hit_share", "share", per(rows.cache_hits as f64, rows.cache_lookups)),
        ("whatif.evals_per_decision", "count", per(rows.evals as f64, d)),
        ("sim.predict_us_per_run", "us", predict_us_per_run),
        ("sim.ns_per_task", "ns", per(rows.predict_ns as f64, rows.predict_tasks)),
        ("sim.tasks_per_run", "count", per(rows.predict_tasks as f64, rows.predict_runs)),
        (
            "sim.events_per_run",
            "count",
            per(counted.sum("tempo_sim_events_total", &[]), sim_runs as u64),
        ),
        ("sched.targets_ns_per_call", "ns", per(rows.sched_ns as f64, rows.sched_calls)),
        ("qs.evaluate_us_per_schedule", "us", qs_us_per_schedule),
        ("qs.ns_per_elem", "ns", per(rows.qs_ns as f64, rows.qs_elems)),
        (
            "qs.scan_elems_per_decision",
            "count",
            per(counted.sum("tempo_qs_scan_elements_total", &[]), d),
        ),
        ("wal.append_us_per_op", "us", per(us(embedded.append_ns), embedded.appends)),
        ("wal.bytes_per_op", "count", per(embedded.journal_bytes as f64, embedded.appends)),
        ("wal.appends_per_decision", "count", per(counted.sum("tempo_wal_appends_total", &[]), d)),
        ("wal.checkpoint_ms", "ms", embedded.checkpoint_ms),
        ("wal.replay_us_per_op", "us", per(us(embedded.replay_ns), embedded.replayed)),
        ("wal.recover_s", "s", phase.recover_s),
        (
            "fleet.hibernate_us_per_domain",
            "us",
            per(us(embedded.hibernate_ns), embedded.fleet_samples),
        ),
        (
            "fleet.rehydrate_us_per_domain",
            "us",
            per(us(embedded.rehydrate_ns), embedded.fleet_samples),
        ),
        (
            "fleet.snapshot_bytes_per_domain",
            "count",
            per(embedded.snapshot_bytes as f64, embedded.fleet_samples),
        ),
        ("fleet.hibernations_per_decision", "count", per(hibernations as f64, d)),
        ("fleet.rehydrations_per_decision", "count", per(rehydrations as f64, d)),
        ("obs.render_ms", "ms", phase.render_ms),
        ("obs.series_count", "count", phase.series as f64),
        (
            "client.decision_p999_us",
            "us",
            if tail_latencies.is_empty() { 0.0 } else { quantile(&tail_latencies, 0.999) },
        ),
        ("client.decision_max_us", "us", tail_latencies.last().copied().unwrap_or(0.0)),
        (
            "loadgen.lag_p99_us",
            "us",
            if phase.tail.lag_us.is_empty() {
                0.0
            } else {
                quantile(&sorted(phase.tail.lag_us.clone()), 0.99)
            },
        ),
        (
            "loadgen.cpu_share",
            "share",
            if phase.tail_wall_s > 0.0 {
                phase.tail_own_cpu_us as f64 / 1e6 / phase.tail_wall_s
            } else {
                0.0
            },
        ),
        ("host.canary_us", "us", canary_after),
        ("host.nproc", "count", env.nproc as f64),
        ("trace.coverage_share", "share", covered_ns as f64 / mirror_total_ns.max(1) as f64),
        (
            "trace.overhead_ratio",
            "ratio",
            traced_decision_ns as f64 / mirror_total_ns.max(1) as f64,
        ),
    ];

    // Layer groups as shares of the daemon's depth-1 decision latency.
    let daemon_total = (daemon_us * d as f64 * 1e3).max(1.0);
    let controller_ns = step_self as f64
        + whatif_self_ns
        + iterate_self as f64
        + self_ns("control.set_workload") as f64;
    let engine_ns = sim_qs_ns + self_ns("domain.observe") as f64;
    let plumbing_ns = (daemon_us - mirror_us) * d as f64 * 1e3
        + self_ns("window.ingest") as f64
        + self_ns("window.snapshot") as f64
        + domain_self_ns as f64;
    let shares = vec![
        ("pald+solver+whatif+control", controller_ns / daemon_total),
        ("sim+qs", engine_ns / daemon_total),
        ("codec+server+runtime+window+wal+fleet", plumbing_ns / daemon_total),
    ];

    let noisy = (canary_after - canary_before).abs() > 0.1 * canary_before;
    Ok(Traced {
        layers,
        shares,
        attempted,
        failed,
        correct: problems.is_empty(),
        noisy,
        problems,
        spans_json: to_json(&spans),
    })
}
