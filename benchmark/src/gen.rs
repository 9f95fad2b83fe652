//! Workload plans: the whole request stream of a run, generated from the
//! seed before the daemon is spawned.
//!
//! Every phase is a fixed list of requests. Simulated time moves only
//! through `Tick` frames placed at fixed positions in the one stream, and
//! the daemon reads its clock when it dispatches a frame, on the connection
//! thread, in stream order — so every clock reading, and with it every
//! decision, is a pure function of `(workload, seed, seconds)`.

use bytes::BytesMut;
use tempo_core::scenario::abc_scenario;
use tempo_serve::codec;
use tempo_serve::demo::{contention_spec, DEMO_WINDOW};
use tempo_serve::proto::Request;
use tempo_serve::DomainSpec;
use tempo_workload::abc::abc_span;
use tempo_workload::time::{Time, MIN, SEC};
use tempo_workload::trace::{JobSpec, TaskSpec};

pub const WORKLOADS: [&str; 4] = ["steady", "paced", "abc-replay", "fleet-mix"];

/// A run measures [`ROUNDS`] daemons, one after the other. Round `r` of a run
/// with `--seed s` is the plan of seed [`round_seed`]`(s, r)`: same workload,
/// same request counts, other jobs.
pub const ROUNDS: u64 = 3;

pub fn round_seed(seed: u64, round: u64) -> u64 {
    seed.wrapping_mul(ROUNDS).wrapping_add(round)
}

/// What the measured phases of a run are sized for together, per second of
/// `--seconds`. Work is fixed, not time: at seed state the rounds together
/// measure for about `--seconds`; a faster daemon finishes them sooner.
const STEADY_DECISIONS_PER_SECOND: u64 = 1_400;
const PACED_DECISIONS_PER_SECOND: u64 = 500;
const ABC_DECISIONS_PER_SECOND: u64 = 45;
const FLEET_REQUESTS_PER_SECOND: u64 = 1_800;

/// Warm-up sizes: fixed, and large enough that set-up (spawn to last warm-up
/// reply) takes at least two seconds at seed state.
const CONTENTION_WARMUP_ROUNDS: u64 = 160;
const ABC_WARMUP_DECISIONS: u64 = 120;
const FLEET_WARMUP_REQUESTS: u64 = 3_584;

pub const CONTENTION_DOMAINS: u64 = 16;
pub const FLEET_DOMAINS: u64 = 4_096;
/// Requests between two `Tick` frames on `fleet-mix`.
const FLEET_TICK_EVERY: u64 = 8;
/// Watermark that keeps about a quarter of the fleet resident: a touched
/// contention domain is estimated at roughly 6 KiB.
const FLEET_WATERMARK_BYTES: u64 = (FLEET_DOMAINS / 4) * 6 * 1024;
/// Simulated time one `Tick` adds on the contention workloads.
const CONTENTION_TICK: Time = DEMO_WINDOW / 24;

/// Company-ABC replay: load scale, re-tuning window and the simulated time
/// between two decisions, sized so one decision costs 20–40 ms at seed state.
const ABC_SCALE: f64 = 0.4;
const ABC_WINDOW: Time = 60 * MIN;
const ABC_TICK: Time = ABC_WINDOW / 8;
const ABC_SLACK: f64 = 0.25;
/// The Company-ABC trace is one fixed draw of the model: job sizes are
/// heavy-tailed, and independent draws differ by 10% in total work, which
/// would be read as run-to-run noise. `--seed` moves every submission by up
/// to this much and seeds the controller's probe placement.
const ABC_TRACE_SEED: u64 = 2016;
const ABC_JITTER: Time = 10 * SEC;

/// Latency limits for `within_limit_share`: three times the seed-state
/// `decision_p99_us`, rounded up to two significant digits (see README).
const STEADY_LIMIT_US: u64 = 22_000;
const PACED_LIMIT_US: u64 = 4_200;
const ABC_LIMIT_US: u64 = 140_000;
const FLEET_LIMIT_US: u64 = 28_000;

/// SplitMix64: the one random stream of the generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepKind {
    /// Advances the simulated clock; not an operation a tenant sees.
    Tick,
    /// `IngestAdvance` with one step: one control-loop decision.
    Decision,
    /// `Ingest` only.
    Ingest,
    /// `Config` read.
    Config,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    pub kind: StepKind,
    pub request: Request,
}

impl Step {
    /// The domain a non-`Tick` step targets.
    pub fn domain(&self) -> Option<u64> {
        match &self.request {
            Request::IngestAdvance { domain, .. }
            | Request::Ingest { domain, .. }
            | Request::Config { domain } => Some(*domain),
            _ => None,
        }
    }
}

/// How the measured phase is driven.
#[derive(Debug, Clone, PartialEq)]
pub enum Drive {
    /// Closed loop: at most `depth` non-`Tick` requests in flight.
    Closed { depth: usize },
    /// Open loop: non-`Tick` request `i` is due `due_us[i]` after the phase
    /// starts and is sent then whether or not earlier replies have arrived.
    Paced { due_us: Vec<u64> },
}

pub struct Plan {
    pub workload: &'static str,
    /// One `CreateDomain` each, in order: domain ids are the indices.
    pub specs: Vec<DomainSpec>,
    pub warmup: Vec<Step>,
    pub measured: Vec<Step>,
    pub drive: Drive,
    /// Domains `0..hot` are checked against the reference for their first
    /// [`HOT_PREFIX`] decisions, every other touched domain for its first
    /// [`COLD_PREFIX`].
    pub hot: u64,
    pub journal: bool,
    pub watermark_bytes: Option<u64>,
    /// A decision slower than this, or failed, misses the latency limit.
    pub limit_us: u64,
}

pub const HOT_PREFIX: u64 = 64;
pub const COLD_PREFIX: u64 = 8;

impl Plan {
    pub fn decisions(steps: &[Step]) -> u64 {
        steps.iter().filter(|s| s.kind == StepKind::Decision).count() as u64
    }

    /// Operations a tenant would count: everything but `Tick`.
    pub fn operations(steps: &[Step]) -> u64 {
        steps.iter().filter(|s| s.kind != StepKind::Tick).count() as u64
    }

    /// Requests the daemon journals when `--journal` is on.
    pub fn journaled(steps: &[Step]) -> u64 {
        steps.iter().filter(|s| s.kind != StepKind::Config).count() as u64
    }

    /// How many decisions of `domain` the correctness check covers.
    pub fn prefix_len(&self, domain: u64) -> u64 {
        if domain < self.hot {
            HOT_PREFIX
        } else {
            COLD_PREFIX
        }
    }
}

/// The request stream as the bytes that go on the wire: frame `i` carries
/// correlation id `first_corr + i`.
pub fn encode_frames(steps: &[Step], first_corr: u64) -> Vec<Vec<u8>> {
    let mut buf = BytesMut::new();
    steps
        .iter()
        .enumerate()
        .map(|(i, step)| {
            buf.clear();
            codec::encode_frame(first_corr + i as u64, &step.request, &mut buf);
            buf.as_slice().to_vec()
        })
        .collect()
}

pub fn plan(workload: &str, seed: u64, seconds: u64) -> Result<Plan, String> {
    let seconds = seconds.max(1);
    match workload {
        "steady" => Ok(contention_plan("steady", seed, seconds)),
        "paced" => Ok(contention_plan("paced", seed, seconds)),
        "abc-replay" => Ok(abc_plan(seed, seconds)),
        "fleet-mix" => Ok(fleet_plan(seed, seconds)),
        other => Err(format!("unknown workload {other:?} (expected one of {WORKLOADS:?})")),
    }
}

/// A burst of `count` submissions spread over the two minutes after `base`,
/// alternating the deadline tenant (0) and the best-effort tenant (1) of
/// [`contention_spec`]. Job shapes follow `tempo_serve::demo`.
fn burst(rng: &mut SplitMix, base: Time, count: u64) -> Vec<JobSpec> {
    let spacing = 2 * MIN / count;
    (0..count)
        .map(|i| {
            let submit = base + i * spacing + rng.below(spacing / 2 + 1);
            if i % 2 == 0 {
                JobSpec::new(
                    0,
                    0,
                    submit,
                    vec![
                        TaskSpec::map((15 + rng.below(10)) * SEC),
                        TaskSpec::map((15 + rng.below(10)) * SEC),
                        TaskSpec::reduce((30 + rng.below(15)) * SEC),
                    ],
                )
                .with_deadline(submit + 2 * MIN)
            } else {
                JobSpec::new(
                    0,
                    1,
                    submit,
                    vec![
                        TaskSpec::map((20 + rng.below(15)) * SEC),
                        TaskSpec::reduce((45 + rng.below(20)) * SEC),
                    ],
                )
            }
        })
        .collect()
}

fn tick(micros: Time) -> Step {
    Step { kind: StepKind::Tick, request: Request::Tick { micros } }
}

fn decision(domain: u64, jobs: Vec<JobSpec>) -> Step {
    Step { kind: StepKind::Decision, request: Request::IngestAdvance { domain, jobs, steps: 1 } }
}

fn contention_specs(seed: u64, count: u64) -> Vec<DomainSpec> {
    (0..count)
        .map(|i| contention_spec(&format!("d{i}"), seed.wrapping_mul(1_000_003) + i))
        .collect()
}

/// `steady` and `paced`: one stream, rounds of one `Tick` and one six-job
/// `IngestAdvance` per domain. A burst is based one window behind the clock
/// so it lies inside the window the advance tunes on.
fn contention_plan(workload: &'static str, seed: u64, seconds: u64) -> Plan {
    let per_second = match workload {
        "steady" => STEADY_DECISIONS_PER_SECOND,
        _ => PACED_DECISIONS_PER_SECOND,
    };
    let measured_rounds = (seconds * per_second / ROUNDS).div_ceil(CONTENTION_DOMAINS);
    let mut rng = SplitMix::new(seed ^ 0x0057_EAD1);
    let mut now: Time = 0;
    let mut round = |rng: &mut SplitMix, out: &mut Vec<Step>| {
        out.push(tick(CONTENTION_TICK));
        now += CONTENTION_TICK;
        for d in 0..CONTENTION_DOMAINS {
            out.push(decision(d, burst(rng, now.saturating_sub(DEMO_WINDOW), 6)));
        }
    };
    let mut warmup = Vec::new();
    for _ in 0..CONTENTION_WARMUP_ROUNDS {
        round(&mut rng, &mut warmup);
    }
    let mut measured = Vec::new();
    for _ in 0..measured_rounds {
        round(&mut rng, &mut measured);
    }
    let (drive, limit_us) = if workload == "steady" {
        (Drive::Closed { depth: 8 }, STEADY_LIMIT_US)
    } else {
        // Fixed interval with ±25% jitter drawn from its own stream, so the
        // requests stay those of `steady`.
        let interval = 1_000_000 / PACED_DECISIONS_PER_SECOND;
        let mut jitter = SplitMix::new(seed ^ 0x000F_ACED);
        let due_us = (0..Plan::operations(&measured))
            .map(|i| (i + 1) * interval - interval / 4 + jitter.below(interval / 2 + 1))
            .collect();
        (Drive::Paced { due_us }, PACED_LIMIT_US)
    };
    Plan {
        workload,
        specs: contention_specs(seed, CONTENTION_DOMAINS),
        warmup,
        measured,
        drive,
        hot: CONTENTION_DOMAINS,
        journal: false,
        watermark_bytes: None,
        limit_us,
    }
}

/// `abc-replay`: one six-tenant Company-ABC domain; each decision is a
/// `Tick` and an `IngestAdvance` carrying the jobs submitted since the last.
fn abc_plan(seed: u64, seconds: u64) -> Plan {
    let scenario = abc_scenario(ABC_SCALE, ABC_SLACK, seed);
    let spec = DomainSpec::new(
        "abc",
        scenario.cluster.clone(),
        scenario.slo_set(),
        scenario.initial_config(),
        ABC_WINDOW,
    )
    .with_seed(seed);
    let measured_decisions = seconds * ABC_DECISIONS_PER_SECOND / ROUNDS;
    let total = ABC_WARMUP_DECISIONS + measured_decisions;
    let mut trace = abc_span(ABC_SCALE, total * ABC_TICK, ABC_TRACE_SEED);
    let mut rng = SplitMix::new(seed ^ 0xABC);
    for job in &mut trace.jobs {
        let shift = rng.below(ABC_JITTER);
        job.submit += shift;
        if let Some(d) = job.deadline.as_mut() {
            *d += shift;
        }
    }
    trace.sort_by_submit();
    let mut jobs = trace.jobs.into_iter().peekable();
    let mut now: Time = 0;
    let mut steps = Vec::new();
    for _ in 0..total {
        steps.push(tick(ABC_TICK));
        now += ABC_TICK;
        let mut batch = Vec::new();
        while let Some(job) = jobs.next_if(|j| j.submit < now) {
            batch.push(job);
        }
        steps.push(decision(0, batch));
    }
    let measured = steps.split_off(2 * ABC_WARMUP_DECISIONS as usize);
    Plan {
        workload: "abc-replay",
        specs: vec![spec],
        warmup: steps,
        measured,
        drive: Drive::Closed { depth: 1 },
        hot: 1,
        journal: false,
        watermark_bytes: None,
        limit_us: ABC_LIMIT_US,
    }
}

/// Zipf(s) over ranks `0..n` by inverse CDF.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: u64, s: f64) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (0..n)
            .map(|i| {
                acc += 1.0 / ((i + 1) as f64).powf(s);
                acc
            })
            .collect();
        for v in &mut cdf {
            *v /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, u: f64) -> u64 {
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1) as u64
    }
}

/// `fleet-mix`: Zipf(1.1) draws over 4,096 contention domains; 70% decisions
/// (6 jobs), 20% ingest-only (32 jobs), 10% config reads.
fn fleet_plan(seed: u64, seconds: u64) -> Plan {
    let zipf = Zipf::new(FLEET_DOMAINS, 1.1);
    let mut rng = SplitMix::new(seed ^ 0x000F_1EE7);
    // The operation mix is one fixed sequence: the seed picks domains and
    // jobs, not how many decisions a run makes.
    let mut kinds = SplitMix::new(0x00F1_EE70);
    let mut now: Time = 0;
    let mut draw = |rng: &mut SplitMix, i: u64, out: &mut Vec<Step>| {
        if i.is_multiple_of(FLEET_TICK_EVERY) {
            out.push(tick(CONTENTION_TICK));
            now += CONTENTION_TICK;
        }
        let domain = zipf.sample(rng.unit());
        let base = now.saturating_sub(DEMO_WINDOW);
        let kind = kinds.below(10);
        out.push(if kind < 7 {
            decision(domain, burst(rng, base, 6))
        } else if kind < 9 {
            Step {
                kind: StepKind::Ingest,
                request: Request::Ingest { domain, jobs: burst(rng, base, 32) },
            }
        } else {
            Step { kind: StepKind::Config, request: Request::Config { domain } }
        });
    };
    let mut warmup = Vec::new();
    for i in 0..FLEET_WARMUP_REQUESTS {
        draw(&mut rng, i, &mut warmup);
    }
    let mut measured = Vec::new();
    for i in 0..seconds * FLEET_REQUESTS_PER_SECOND / ROUNDS {
        draw(&mut rng, FLEET_WARMUP_REQUESTS + i, &mut measured);
    }
    Plan {
        workload: "fleet-mix",
        specs: contention_specs(seed, FLEET_DOMAINS),
        warmup,
        measured,
        drive: Drive::Closed { depth: 8 },
        hot: 16,
        journal: true,
        watermark_bytes: Some(FLEET_WATERMARK_BYTES),
        limit_us: FLEET_LIMIT_US,
    }
}
