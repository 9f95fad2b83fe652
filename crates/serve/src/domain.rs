//! One tenancy domain: a [`Tempo`] controller plus its live workload window.
//!
//! A domain is the unit of isolation in the serving runtime: it owns a
//! controller, a [`WindowLog`] of recently ingested job submissions, and the
//! bookkeeping that turns "advance" calls into control-loop iterations. All
//! of its behaviour is a deterministic function of (spec, ingested jobs,
//! clock readings at advance time) — the property the serve/direct parity
//! suite pins and snapshot/restore relies on.

use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tempo_core::control::{LoopConfig, RevertPolicy, Tempo, TempoSnapshot};
use tempo_core::pald::PaldConfig;
use tempo_core::whatif::{WhatIfModel, WorkloadSource};
use tempo_core::ConfigSpace;
use tempo_qs::SloSet;
use tempo_sim::{ClusterSpec, NoiseModel, RmConfig, Schedule, SimOptions};
use tempo_workload::time::Time;
use tempo_workload::window::{WindowLog, WindowLogState};
use tempo_workload::{JobSpec, Trace};

/// Declarative, wire-serializable description of a tenancy domain.
///
/// The What-if Model always replays the domain's current workload window
/// deterministically (the paper's default mode); `observation_noise` only
/// affects the stand-in cluster runs the controller observes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSpec {
    /// Display name (reports, metrics).
    pub name: String,
    pub cluster: ClusterSpec,
    /// The QS vector the controller optimizes. Tenant ids inside refer to
    /// positions in `initial.tenants`.
    pub slos: SloSet,
    /// Starting RM configuration; its tenant count fixes the configuration
    /// space and its policy selects the scheduler backend.
    pub initial: RmConfig,
    /// Length of the re-tuning window: each advance tunes on the jobs
    /// ingested during the most recent `window_len` of clock time.
    pub window_len: Time,
    /// Master seed: probe placement and observation noise derive from it.
    pub seed: u64,
    /// PALD probes per iteration.
    pub probes: usize,
    /// PALD trust-region radius.
    pub trust_radius: f64,
    pub revert: RevertPolicy,
    /// Noise injected into the stand-in cluster runs the controller
    /// observes (not into What-if predictions).
    pub observation_noise: NoiseModel,
    /// Ignored: the What-if Model keeps no memo. Kept only because the
    /// benchmark's traced mirror (`benchmark/src/traced.rs`) still reads it.
    pub cache_capacity: Option<usize>,
    /// Per-domain ingest budget; `None` (the default) accepts everything.
    /// Old wire specs without the field deserialize as `None`.
    pub ingest_budget: Option<IngestBudget>,
}

/// What to do with a burst that exceeds the domain's ingest budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum BackpressurePolicy {
    /// Drop the excess permanently (lossy, the client keeps streaming):
    /// the burst's accepted prefix is ingested, the rest is shed.
    Shed,
    /// Reject the whole burst with [`IngestOutcome::Busy`] so the client
    /// can retry it after `retry_after_micros` (lossless with backoff).
    Delay,
}

/// A token-bucket ingest budget: at most `jobs_per_window` job submissions
/// per [`DomainSpec::window_len`] of clock time, with burst capacity equal
/// to one window's worth. Refills are a pure function of clock readings, so
/// budgeted domains stay deterministic under a [`crate::SimClock`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IngestBudget {
    pub jobs_per_window: u64,
    pub policy: BackpressurePolicy,
}

impl IngestBudget {
    pub fn shed(jobs_per_window: u64) -> Self {
        Self { jobs_per_window, policy: BackpressurePolicy::Shed }
    }

    pub fn delay(jobs_per_window: u64) -> Self {
        Self { jobs_per_window, policy: BackpressurePolicy::Delay }
    }
}

/// What one ingest call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestOutcome {
    /// `accepted` jobs entered the workload window; under
    /// [`BackpressurePolicy::Shed`] this may be fewer than were offered
    /// (the rest were dropped and counted in `shed_count`).
    Accepted { accepted: u64 },
    /// The burst was rejected whole ([`BackpressurePolicy::Delay`]); retry
    /// after roughly `retry_after_micros` of clock time.
    Busy { retry_after_micros: u64 },
}

impl IngestOutcome {
    /// Jobs that actually entered the window.
    pub fn accepted(&self) -> u64 {
        match self {
            IngestOutcome::Accepted { accepted } => *accepted,
            IngestOutcome::Busy { .. } => 0,
        }
    }
}

impl DomainSpec {
    /// A spec with the control-loop defaults: 5 probes, 0.15 trust radius,
    /// dominated-revert, no observation noise.
    pub fn new(
        name: impl Into<String>,
        cluster: ClusterSpec,
        slos: SloSet,
        initial: RmConfig,
        window_len: Time,
    ) -> Self {
        let pald = PaldConfig::default();
        Self {
            name: name.into(),
            cluster,
            slos,
            initial,
            window_len,
            seed: 0,
            probes: pald.probes,
            trust_radius: pald.trust_radius,
            revert: RevertPolicy::Dominated,
            observation_noise: NoiseModel::NONE,
            cache_capacity: None,
            ingest_budget: None,
        }
    }

    pub fn with_ingest_budget(mut self, budget: IngestBudget) -> Self {
        self.ingest_budget = Some(budget);
        self
    }

    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    pub fn with_probes(mut self, probes: usize) -> Self {
        self.probes = probes;
        self
    }

    pub fn with_trust_radius(mut self, radius: f64) -> Self {
        self.trust_radius = radius;
        self
    }

    pub fn with_observation_noise(mut self, noise: NoiseModel) -> Self {
        self.observation_noise = noise;
        self
    }

    pub fn with_revert(mut self, revert: RevertPolicy) -> Self {
        self.revert = revert;
        self
    }

    /// The QS evaluation window every rolled workload window is scored
    /// over: `[0, window_len + window_len/4)` on the window's own time axis
    /// (the slack lets straggler jobs finish and count).
    pub fn qs_window(&self) -> (Time, Time) {
        (0, self.window_len + self.window_len / 4)
    }

    /// The control-loop configuration this spec expands to.
    pub fn loop_config(&self) -> LoopConfig {
        LoopConfig {
            pald: PaldConfig {
                probes: self.probes,
                trust_radius: self.trust_radius,
                seed: self.seed,
                ..PaldConfig::default()
            },
            revert: self.revert,
            ..LoopConfig::default()
        }
    }

    /// Structural validation, surfaced before a domain is created.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("domain name is empty".into());
        }
        if self.window_len == 0 {
            return Err("window_len must be positive".into());
        }
        if self.slos.is_empty() {
            return Err("domain has no SLOs".into());
        }
        if self.probes == 0 {
            return Err("need at least one probe".into());
        }
        if !(self.trust_radius > 0.0 && self.trust_radius <= 1.0) {
            return Err("trust radius outside (0, 1]".into());
        }
        if let Some(budget) = &self.ingest_budget {
            if budget.jobs_per_window == 0 {
                return Err("ingest budget must allow at least one job per window".into());
            }
        }
        self.initial.validate().map_err(|e| format!("invalid initial RM configuration: {e}"))?;
        for slo in &self.slos.slos {
            if let Some(t) = slo.tenant {
                if t as usize >= self.initial.tenants.len() {
                    return Err(format!("SLO '{}' names tenant {t} beyond the config", slo.name));
                }
            }
        }
        Ok(())
    }
}

/// What one advance call did (the wire-visible decision record).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Advance calls made on this domain so far (this one included).
    pub step: u64,
    /// The absolute workload window `[start, end)` this advance tuned on.
    pub window: (Time, Time),
    /// `true` when the window held no jobs: no iteration was run and the
    /// configuration is unchanged.
    pub skipped: bool,
    /// Controller iteration index (meaningless when skipped).
    pub iteration: u64,
    /// Observed (priority-weighted) QS vector (empty when skipped).
    pub observed_qs: Vec<f64>,
    /// Whether the revert guard rolled back the previous change.
    pub reverted: bool,
    /// The configuration the cluster should run from now on.
    pub config: RmConfig,
}

/// Observation seed for a domain step: decorrelates the noise stream across
/// steps (and, via the spec seed, across domains) while staying replayable.
pub fn observation_seed(seed: u64, step: u64) -> u64 {
    seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// What-if simulation provenance of the most recent non-skipped advance —
/// what the decision trace reports. A transient diagnostic like
/// [`tempo_core::whatif::WhatIfModel`]'s sim counter: never snapshotted, so
/// restore resets it and snapshot bytes stay identical.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceProvenance {
    /// Simulations the iteration ran.
    pub sims: u64,
}

/// A live tenancy domain.
pub struct Domain {
    spec: DomainSpec,
    tempo: Tempo,
    log: WindowLog,
    /// Advance calls so far.
    step: u64,
    /// Iterations actually run (advances minus skips).
    decisions: u64,
    skipped: u64,
    /// End of the most recent window (windows never regress even if the
    /// clock stalls).
    last_end: Time,
    /// The window + shifted segment the What-if Model currently replays
    /// (the segment is the model's own `Arc`, not a second copy).
    installed: Option<((Time, Time), Arc<Trace>)>,
    /// Ingest-budget tokens currently available (meaningless without a
    /// budget). Starts full: a fresh domain can absorb one window's burst.
    tokens: f64,
    /// Clock reading of the last token refill.
    last_refill: Time,
    /// Jobs dropped by the [`BackpressurePolicy::Shed`] policy.
    shed: u64,
    /// Jobs turned away with a retry by [`BackpressurePolicy::Delay`].
    delayed: u64,
    /// Provenance of the most recent non-skipped advance (transient).
    last_provenance: AdvanceProvenance,
}

impl Domain {
    /// Builds the controller wiring for `spec`: a deterministic What-if
    /// Model replaying the (initially empty) window, the backend-native
    /// configuration space, and a Tempo controller seated on the initial
    /// configuration.
    pub fn new(spec: DomainSpec) -> Result<Self, String> {
        spec.validate()?;
        // A standalone domain evaluates serially; domains hosted by a
        // `ControllerRuntime` get [`Domain::install_pool`]ed a clone of the
        // runtime-wide worker pool instead, so N domains × M cores share
        // one pool's threads rather than multiplying into cores² threads.
        // (Trajectories are thread-count invariant either way.)
        let whatif = WhatIfModel::new(
            spec.cluster.clone(),
            spec.slos.clone(),
            WorkloadSource::replay(Trace::default()),
            spec.qs_window(),
        )
        .with_threads(1);
        let space = ConfigSpace::new(spec.initial.tenants.len(), &spec.cluster)
            .with_policy(spec.initial.policy);
        let tempo = Tempo::new(space, whatif, spec.loop_config(), &spec.initial);
        let tokens = spec.ingest_budget.map_or(0.0, |b| b.jobs_per_window as f64);
        Ok(Self {
            spec,
            tempo,
            log: WindowLog::new(),
            step: 0,
            decisions: 0,
            skipped: 0,
            last_end: 0,
            installed: None,
            tokens,
            last_refill: 0,
            shed: 0,
            delayed: 0,
            last_provenance: AdvanceProvenance::default(),
        })
    }

    pub fn spec(&self) -> &DomainSpec {
        &self.spec
    }

    /// Attaches a shared worker pool to this domain's What-if Model and
    /// lifts the standalone serial default. The runtime installs a clone of
    /// its fleet-wide pool on every domain that becomes resident, so
    /// concurrent domains share one bounded set of evaluation threads
    /// instead of each spawning their own.
    pub fn install_pool(&mut self, pool: tempo_core::WorkerPool) {
        self.tempo.whatif.set_threads(None);
        self.tempo.whatif.set_pool(pool);
    }

    /// The controller (read-only: diagnostics and the parity suite).
    pub fn tempo(&self) -> &Tempo {
        &self.tempo
    }

    /// The configuration the domain's cluster should currently run.
    pub fn current_config(&self) -> RmConfig {
        self.tempo.current_config()
    }

    /// Ingests a batch of job submissions at clock reading `now`, enforcing
    /// the spec's ingest budget (if any). Ids are re-assigned from the
    /// domain's dense counter.
    ///
    /// This is the shard-worker half of the backpressure loop: the budget is
    /// charged on the thread that owns the domain, so no amount of client
    /// concurrency can over-admit a tenant.
    pub fn ingest(&mut self, now: Time, jobs: Vec<JobSpec>) -> IngestOutcome {
        let Some(budget) = self.spec.ingest_budget else {
            return IngestOutcome::Accepted { accepted: self.log.extend(jobs) };
        };
        let capacity = budget.jobs_per_window as f64;
        let rate = capacity / self.spec.window_len as f64; // tokens per µs
        let dt = now.saturating_sub(self.last_refill);
        self.last_refill = self.last_refill.max(now);
        self.tokens = (self.tokens + dt as f64 * rate).min(capacity);

        // A burst wider than the whole budget is charged one full window's
        // worth, so oversized-but-rare bursts make progress instead of
        // livelocking behind a bucket that can never hold them.
        let offered = jobs.len() as u64;
        let need = (offered as f64).min(capacity);
        if need <= self.tokens {
            self.tokens -= need;
            return IngestOutcome::Accepted { accepted: self.log.extend(jobs) };
        }
        match budget.policy {
            BackpressurePolicy::Shed => {
                // Admit the prefix the remaining tokens cover; drop the rest.
                let admit = (self.tokens.floor() as u64).min(offered);
                self.tokens -= admit as f64;
                self.shed += offered - admit;
                tempo_obs::counter!("tempo_ingest_shed_total", "Jobs dropped past ingest budgets")
                    .add(offered - admit);
                let mut jobs = jobs;
                jobs.truncate(admit as usize);
                IngestOutcome::Accepted { accepted: self.log.extend(jobs) }
            }
            BackpressurePolicy::Delay => {
                self.delayed += offered;
                tempo_obs::counter!(
                    "tempo_ingest_delayed_total",
                    "Jobs turned away with a retry hint by delay budgets"
                )
                .add(offered);
                let deficit = need - self.tokens;
                IngestOutcome::Busy { retry_after_micros: (deficit / rate).ceil() as u64 }
            }
        }
    }

    /// Jobs dropped past the budget under the shed policy.
    pub fn shed_count(&self) -> u64 {
        self.shed
    }

    /// Jobs turned away with a retry hint under the delay policy.
    pub fn delayed_count(&self) -> u64 {
        self.delayed
    }

    /// Fraction of the ingest budget currently consumed (0 = idle bucket,
    /// 1 = exhausted); 0 for unbudgeted domains.
    pub fn ingest_budget_occupancy(&self) -> f64 {
        match self.spec.ingest_budget {
            Some(b) => 1.0 - self.tokens / b.jobs_per_window as f64,
            None => 0.0,
        }
    }

    /// Jobs accepted over the domain's lifetime.
    pub fn ingested(&self) -> u64 {
        self.log.accepted()
    }

    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    pub fn steps(&self) -> u64 {
        self.step
    }

    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Simulations the domain's What-if Model has run.
    pub fn sim_count(&self) -> u64 {
        self.tempo.whatif.sim_count()
    }

    /// Simulation provenance of the most recent non-skipped advance.
    pub fn last_provenance(&self) -> AdvanceProvenance {
        self.last_provenance
    }

    /// Deterministic count-based estimate of the domain's resident heap
    /// footprint, in bytes — the fleet's memory-accounting currency. This
    /// is intentionally a model, not an allocator measurement: it has to be
    /// identical across platforms and across a hibernate/rehydrate cycle so
    /// watermark behavior is reproducible and testable. Weights approximate
    /// the real per-element costs (a logged job, an installed task, a PALD
    /// history row). An installed task's weight covers its `TaskSpec` in the
    /// segment the domain shares with the What-if Model and its columns in
    /// the model's prepared window.
    pub fn estimated_bytes(&self) -> u64 {
        const BASE: u64 = 4096;
        const PER_LOGGED_JOB: u64 = 96;
        const PER_INSTALLED_TASK: u64 = 48;
        const PER_HISTORY_ROW: u64 = 96;
        let installed_tasks = self.installed.as_ref().map_or(0, |(_, seg)| seg.num_tasks() as u64);
        BASE + PER_LOGGED_JOB * self.log.len() as u64
            + PER_INSTALLED_TASK * installed_tasks
            + PER_HISTORY_ROW * self.tempo.pald().history_len() as u64
    }

    /// Runs one control-loop iteration against the window ending at `now`:
    ///
    /// 1. slice the most recent `window_len` of ingested jobs and rebase it
    ///    to the window origin;
    /// 2. if the window's content changed since the last advance, swap it
    ///    into the What-if Model ([`Tempo::set_workload`]);
    /// 3. observe the window on the stand-in cluster under the current
    ///    configuration and feed the observation to [`Tempo::iterate`].
    ///
    /// An empty window skips the iteration (nothing to tune on) but still
    /// counts as a step, so the observation-seed stream stays aligned with
    /// the advance call sequence.
    pub fn advance(&mut self, now: Time) -> DecisionRecord {
        let end = now.max(self.spec.window_len).max(self.last_end);
        let start = end - self.spec.window_len;
        self.last_end = end;
        self.step += 1;
        let step = self.step;

        // Jobs older than every future window can never be replayed again.
        self.log.evict_before(start);
        let mut segment = self.log.trace_in(start, end);
        segment.shift_to_zero(start);

        if segment.is_empty() {
            self.skipped += 1;
            return DecisionRecord {
                step,
                window: (start, end),
                skipped: true,
                iteration: self.tempo.iteration() as u64,
                observed_qs: Vec::new(),
                reverted: false,
                config: self.tempo.current_config(),
            };
        }

        let changed = match &self.installed {
            Some((w, seg)) => *w != (start, end) || **seg != segment,
            None => true,
        };
        if changed {
            let segment = Arc::new(segment);
            self.tempo
                .set_workload(WorkloadSource::Replay(Arc::clone(&segment)), self.spec.qs_window());
            self.installed = Some(((start, end), segment));
        }

        let observed = self.observe_window(step);
        let sims_before = self.tempo.whatif.sim_count();
        let record = self.tempo.iterate(&observed);
        self.last_provenance =
            AdvanceProvenance { sims: self.tempo.whatif.sim_count() - sims_before };
        self.decisions += 1;
        DecisionRecord {
            step,
            window: (start, end),
            skipped: false,
            iteration: record.iteration as u64,
            observed_qs: record.observed_qs,
            reverted: record.reverted,
            config: self.tempo.current_config(),
        }
    }

    /// The stand-in "production run" of the installed window segment under
    /// the current configuration ([`tempo_sim::observe`] on the window the
    /// What-if Model already prepared for its own predictions).
    fn observe_window(&self, step: u64) -> Schedule {
        let window = self.tempo.whatif.prepared_window().expect("a replayed window is installed");
        let opts = SimOptions {
            horizon: None,
            noise: self.spec.observation_noise,
            seed: observation_seed(self.spec.seed, step),
        };
        window.simulate(&self.spec.cluster, &self.tempo.current_config(), &opts)
    }

    /// Captures everything needed to resume this domain warm.
    pub fn snapshot(&self, id: u64) -> DomainSnapshot {
        DomainSnapshot {
            id,
            spec: self.spec.clone(),
            step: self.step,
            decisions: self.decisions,
            skipped: self.skipped,
            last_end: self.last_end,
            log: self.log.to_state(),
            installed: self.installed.as_ref().map(|(w, seg)| (*w, Trace::clone(seg))),
            tempo: self.tempo.snapshot(),
            tokens: self.tokens,
            last_refill: self.last_refill,
            shed: self.shed,
            delayed: self.delayed,
        }
    }

    /// Rebuilds a domain from a snapshot. Subsequent `ingest`/`advance`
    /// calls behave bit-identically to the never-snapshotted domain.
    pub fn restore(snapshot: DomainSnapshot) -> Result<Self, String> {
        let DomainSnapshot {
            id: _,
            spec,
            step,
            decisions,
            skipped,
            last_end,
            log,
            installed,
            tempo: tempo_snapshot,
            tokens,
            last_refill,
            shed,
            delayed,
        } = snapshot;
        let mut domain = Domain::new(spec)?;
        // Wire-derived snapshots must be rejected gracefully, not let into
        // `Tempo::restore_state`'s assertions (a panic there would kill the
        // serving thread that carried the request).
        let dim = domain.tempo.space.dim();
        let k = domain.tempo.whatif.k();
        if tempo_snapshot.x.len() != dim {
            return Err(format!(
                "snapshot x has {} dims, spec expects {dim}",
                tempo_snapshot.x.len()
            ));
        }
        if tempo_snapshot.r.len() != k {
            return Err(format!(
                "snapshot r has {} entries, spec has {k} SLOs",
                tempo_snapshot.r.len()
            ));
        }
        if let Some((px, pqs)) = &tempo_snapshot.prev {
            if px.len() != dim || pqs.len() != k {
                return Err("snapshot prev-observation arity mismatch".into());
            }
        }
        if tempo_snapshot.pald.history_x.len() != tempo_snapshot.pald.history_f.len()
            || tempo_snapshot.pald.history_x.iter().any(|x| x.len() != dim)
            || tempo_snapshot.pald.history_f.iter().any(|f| f.len() != k)
        {
            return Err("snapshot optimizer history arity mismatch".into());
        }
        // The installed segment goes straight into the What-if Model, whose
        // preparation panics on an invalid trace and whose simulations panic
        // on a tenant the configuration does not have.
        if let Some((_, segment)) = &installed {
            segment.validate().map_err(|e| format!("snapshot window segment: {e}"))?;
            let tenants = domain.spec.initial.tenants.len();
            if let Some(job) = segment.jobs.iter().find(|j| j.tenant as usize >= tenants) {
                return Err(format!(
                    "snapshot window segment: job {} names tenant {} beyond the config",
                    job.id, job.tenant
                ));
            }
        }
        domain.log = WindowLog::from_state(log);
        domain.installed = installed.map(|(w, segment)| (w, Arc::new(segment)));
        if let Some((_, segment)) = &domain.installed {
            // Install the window directly: `set_workload` would reset
            // optimizer state that `restore_state` is about to install.
            domain.tempo.whatif.set_source_window(
                WorkloadSource::Replay(Arc::clone(segment)),
                domain.spec.qs_window(),
            );
        }
        domain.tempo.restore_state(tempo_snapshot);
        domain.step = step;
        domain.decisions = decisions;
        domain.skipped = skipped;
        domain.last_end = last_end;
        domain.tokens = tokens;
        domain.last_refill = last_refill;
        domain.shed = shed;
        domain.delayed = delayed;
        Ok(domain)
    }
}

/// Wire-serializable state of one domain (an element of a runtime
/// snapshot).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainSnapshot {
    pub id: u64,
    pub spec: DomainSpec,
    pub step: u64,
    pub decisions: u64,
    pub skipped: u64,
    pub last_end: Time,
    pub log: WindowLogState,
    /// The window + rebased segment currently installed in the What-if
    /// Model (`None` when no non-empty window has been seen yet).
    pub installed: Option<((Time, Time), Trace)>,
    pub tempo: TempoSnapshot,
    /// Ingest-budget bucket state ([`IngestBudget`]), so a restored tenant
    /// resumes with exactly the admission credit it had.
    pub tokens: f64,
    pub last_refill: Time,
    pub shed: u64,
    pub delayed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_qs::{QsKind, SloSpec};
    use tempo_sim::TenantConfig;
    use tempo_workload::time::{MIN, SEC};
    use tempo_workload::trace::TaskSpec;

    fn demo_spec(seed: u64) -> DomainSpec {
        let slos = SloSet::new(vec![
            SloSpec::new(Some(0), QsKind::DeadlineMiss { gamma: 0.25 }).with_threshold(0.0),
            SloSpec::new(Some(1), QsKind::AvgResponseTime),
        ]);
        let initial = RmConfig::new(vec![
            TenantConfig::fair_default().with_weight(2.0),
            TenantConfig::fair_default(),
        ]);
        DomainSpec::new("demo", ClusterSpec::new(8, 4), slos, initial, 4 * MIN)
            .with_seed(seed)
            .with_probes(3)
    }

    fn burst(base: Time) -> Vec<JobSpec> {
        let mut jobs = Vec::new();
        for i in 0..3u64 {
            jobs.push(
                JobSpec::new(
                    0,
                    0,
                    base + i * 20 * SEC,
                    vec![TaskSpec::map(20 * SEC), TaskSpec::reduce(30 * SEC)],
                )
                .with_deadline(base + i * 20 * SEC + 2 * MIN),
            );
            jobs.push(JobSpec::new(
                0,
                1,
                base + i * 30 * SEC,
                vec![TaskSpec::map(30 * SEC), TaskSpec::reduce(60 * SEC)],
            ));
        }
        jobs
    }

    #[test]
    fn delay_budget_rejects_whole_bursts_with_a_retry_hint() {
        // Budget: 4 jobs per 4-minute window → refill rate 1 job/min.
        let spec = demo_spec(1).with_ingest_budget(IngestBudget::delay(4));
        let mut d = Domain::new(spec).unwrap();
        // A fresh bucket is full; an oversized burst is charged one full
        // window's worth and admitted (rare big bursts make progress).
        assert_eq!(d.ingest(0, burst(0)), IngestOutcome::Accepted { accepted: 6 });
        assert_eq!(d.ingest_budget_occupancy(), 1.0, "bucket drained");
        // Bucket empty: the next burst is turned away whole, lossless.
        assert_eq!(d.ingest(0, burst(0)), IngestOutcome::Busy { retry_after_micros: 4 * MIN });
        assert_eq!(d.delayed_count(), 6);
        assert_eq!(d.shed_count(), 0);
        assert_eq!(d.ingested(), 6, "rejected jobs never entered the window");
        // Half a window later: half the tokens are back, still not enough.
        assert_eq!(
            d.ingest(2 * MIN, burst(0)),
            IngestOutcome::Busy { retry_after_micros: 2 * MIN }
        );
        // Waiting out the hint admits the burst.
        assert_eq!(d.ingest(4 * MIN, burst(0)), IngestOutcome::Accepted { accepted: 6 });
    }

    #[test]
    fn shed_budget_admits_a_prefix_and_drops_the_rest() {
        let spec = demo_spec(1).with_ingest_budget(IngestBudget::shed(4));
        let mut d = Domain::new(spec).unwrap();
        assert_eq!(d.ingest(0, burst(0)), IngestOutcome::Accepted { accepted: 6 });
        // Empty bucket: everything sheds, the client is never told to retry.
        assert_eq!(d.ingest(0, burst(0)), IngestOutcome::Accepted { accepted: 0 });
        assert_eq!(d.shed_count(), 6);
        // One token refilled: a 1-job prefix is admitted, 5 shed.
        assert_eq!(d.ingest(MIN, burst(0)), IngestOutcome::Accepted { accepted: 1 });
        assert_eq!(d.shed_count(), 11);
        assert_eq!(d.delayed_count(), 0);
        assert_eq!(d.ingested(), 7);
    }

    #[test]
    fn budget_state_survives_snapshot_restore() {
        let spec = demo_spec(1).with_ingest_budget(IngestBudget::delay(4));
        let mut d = Domain::new(spec).unwrap();
        d.ingest(0, burst(0));
        d.ingest(0, burst(0));
        let restored = Domain::restore(d.snapshot(0)).unwrap();
        assert_eq!(restored.delayed_count(), d.delayed_count());
        assert_eq!(restored.ingest_budget_occupancy(), d.ingest_budget_occupancy());
        // Identical future behaviour: both still reject at t=0.
        let mut d2 = restored;
        assert_eq!(d2.ingest(0, burst(0)), d.ingest(0, burst(0)));
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let mut s = demo_spec(1);
        s.window_len = 0;
        assert!(Domain::new(s).is_err());
        let mut s = demo_spec(1);
        s.slos = SloSet::new(vec![SloSpec::new(Some(7), QsKind::AvgResponseTime)]);
        match Domain::new(s) {
            Err(e) => assert!(e.contains("tenant 7")),
            Ok(_) => panic!("out-of-range SLO tenant accepted"),
        }
        let mut s = demo_spec(1);
        s.probes = 0;
        assert!(Domain::new(s).is_err());
    }

    #[test]
    fn empty_windows_skip_but_count_steps() {
        let mut d = Domain::new(demo_spec(3)).unwrap();
        let rec = d.advance(0);
        assert!(rec.skipped);
        assert_eq!(rec.step, 1);
        assert_eq!(d.decisions(), 0);
        d.ingest(0, burst(0));
        let rec = d.advance(0);
        assert!(!rec.skipped);
        assert_eq!(rec.step, 2);
        assert_eq!(d.decisions(), 1);
        assert_eq!(rec.observed_qs.len(), 2);
    }

    #[test]
    fn windows_roll_with_the_clock_and_evict_history() {
        let mut d = Domain::new(demo_spec(4)).unwrap();
        d.ingest(0, burst(0));
        d.advance(0);
        let buffered = d.log.len();
        assert!(buffered > 0);
        // Jump two windows ahead: the old burst is out of range and evicted.
        d.ingest(0, burst(9 * MIN));
        let rec = d.advance(12 * MIN);
        assert_eq!(rec.window, (8 * MIN, 12 * MIN));
        assert!(!rec.skipped);
        assert!(d.log.len() < buffered + 6, "pre-window jobs evicted");
        // A stalled clock never regresses the window.
        let rec = d.advance(0);
        assert_eq!(rec.window, (8 * MIN, 12 * MIN));
    }

    #[test]
    fn repeated_advances_on_a_static_window_keep_tuning() {
        let mut d = Domain::new(demo_spec(5)).unwrap();
        d.ingest(0, burst(0));
        let mut iterations = Vec::new();
        for _ in 0..3 {
            let rec = d.advance(0);
            assert!(!rec.skipped);
            iterations.push(rec.iteration);
        }
        assert_eq!(iterations, vec![0, 1, 2], "same window, successive iterations");
        assert_eq!(d.decisions(), 3);
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots_gracefully() {
        let mut d = Domain::new(demo_spec(7)).unwrap();
        d.ingest(0, burst(0));
        d.advance(0);
        // Wire-derived snapshots can be arbitrarily corrupt; each mismatch
        // must surface as Err (never reach core's assertions and panic the
        // serving thread).
        let restore_err = |snapshot: DomainSnapshot| match Domain::restore(snapshot) {
            Err(e) => e,
            Ok(_) => panic!("corrupt snapshot accepted"),
        };
        let mut bad = d.snapshot(0);
        bad.tempo.x.push(0.5);
        assert!(restore_err(bad).contains("dims"));
        let mut bad = d.snapshot(0);
        bad.tempo.r.clear();
        assert!(restore_err(bad).contains("SLOs"));
        let mut bad = d.snapshot(0);
        if let Some((_, pqs)) = bad.tempo.prev.as_mut() {
            pqs.push(1.0);
        }
        assert!(restore_err(bad).contains("arity"));
        let mut bad = d.snapshot(0);
        bad.tempo.pald.history_f.pop();
        assert!(restore_err(bad).contains("history"));
        let mut bad = d.snapshot(0);
        bad.installed.as_mut().unwrap().1.jobs[0].tasks.clear();
        assert!(restore_err(bad).contains("no tasks"));
        let mut bad = d.snapshot(0);
        bad.installed.as_mut().unwrap().1.jobs[0].tenant = 2;
        assert!(restore_err(bad).contains("tenant 2"));
    }

    #[test]
    fn snapshot_restore_resumes_bit_identically() {
        let mut straight = Domain::new(demo_spec(6)).unwrap();
        straight.ingest(0, burst(0));
        straight.advance(0);
        straight.ingest(0, burst(5 * MIN));
        straight.advance(6 * MIN);

        let snap = straight.snapshot(42);
        let json = serde_json::to_string(&snap).unwrap();
        let parsed: DomainSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, snap, "snapshot survives its wire encoding");
        let mut resumed = Domain::restore(parsed).unwrap();

        assert_eq!(resumed.current_config(), straight.current_config());
        assert_eq!(resumed.ingested(), straight.ingested());
        // Both copies now see identical future input.
        for (t, b) in [(6 * MIN, burst(7 * MIN)), (9 * MIN, burst(8 * MIN))] {
            assert_eq!(straight.ingest(t, b.clone()), resumed.ingest(t, b));
            for _ in 0..2 {
                assert_eq!(straight.advance(t), resumed.advance(t), "diverged at t={t}");
            }
        }
        assert_eq!(
            straight.tempo().pald().history(),
            resumed.tempo().pald().history(),
            "optimizer histories identical after restore"
        );
    }
}
