//! One tenancy domain: the core's [`WindowedLoop`] plus what serving adds.
//!
//! A domain is the unit of isolation in the serving runtime. The windowed
//! control loop — window log, installed segment, [`Tempo`] controller — is
//! `tempo-core`'s, the same one Figure 11 and the adaptive example run; the
//! domain adds its wire-serializable [`DomainSpec`], a per-tenant ingest
//! budget, and [`Domain::apply`]: the one executor of domain ops, which the
//! wire, the embedded runtime, journal replay and journal repair all run.
//! All of its behaviour is a deterministic function of (spec, ingested
//! jobs, clock readings at advance time) — the property the serve/direct
//! parity suite pins and snapshot/restore relies on.

use serde::{Deserialize, Serialize};
pub use tempo_core::control::{observation_seed, DecisionRecord};
use tempo_core::control::{
    LoopConfig, RevertPolicy, Tempo, TempoSnapshot, WindowedLoop, WindowedLoopState,
};
use tempo_core::pald::PaldConfig;
use tempo_core::whatif::{WhatIfModel, WorkloadSource};
use tempo_core::ConfigSpace;
use tempo_qs::SloSet;
use tempo_sim::{ClusterSpec, NoiseModel, RmConfig};
use tempo_workload::time::Time;
use tempo_workload::window::WindowLogState;
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
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IngestOutcome {
    /// `accepted` jobs entered the workload window; under
    /// [`BackpressurePolicy::Shed`] this may be fewer than were offered
    /// (the rest were dropped and counted in `shed_count`).
    Accepted { accepted: u64 },
    /// The burst was rejected whole ([`BackpressurePolicy::Delay`]); retry
    /// after roughly `retry_after_micros` of clock time.
    Busy { retry_after_micros: u64 },
    /// The burst held a malformed job (no tasks, a tenant the configuration
    /// lacks, ...) and was refused whole before touching any state.
    Rejected { reason: String },
}

impl IngestOutcome {
    /// Jobs that actually entered the window.
    pub fn accepted(&self) -> u64 {
        match self {
            IngestOutcome::Accepted { accepted } => *accepted,
            IngestOutcome::Busy { .. } | IngestOutcome::Rejected { .. } => 0,
        }
    }
}

/// One domain-targeted operation, as [`Domain::apply`] runs it: the wire's
/// `Ingest`/`Advance`/`IngestAdvance` and the read-only `Config`. The wire,
/// the embedded runtime, journal replay and journal repair all apply their
/// domain ops as these.
#[derive(Debug, Clone, PartialEq)]
pub enum DomainOp {
    Ingest { jobs: Vec<JobSpec> },
    Advance { steps: u64 },
    IngestAdvance { jobs: Vec<JobSpec>, steps: u64 },
    Config,
}

/// One control-loop decision with the provenance of its What-if work.
pub type Decision = (DecisionRecord, AdvanceProvenance);

/// What [`Domain::apply`] did, one variant per [`DomainOp`] variant.
#[derive(Debug, Clone, PartialEq)]
pub enum Applied {
    Ingested(IngestOutcome),
    Advanced(Vec<Decision>),
    /// The batch's outcome, then the decisions; a refused batch ran none.
    IngestAdvanced(IngestOutcome, Vec<Decision>),
    Config(RmConfig),
}

impl Applied {
    /// The decisions the op ran, in order.
    pub fn decisions(&self) -> &[Decision] {
        match self {
            Applied::Advanced(decisions) | Applied::IngestAdvanced(_, decisions) => decisions,
            Applied::Ingested(_) | Applied::Config(_) => &[],
        }
    }

    /// Whether the op changed the domain, and so must be journaled: a read
    /// did not, and neither did a refused batch. A `Busy` ingest did — it
    /// refilled the budget's token bucket.
    pub fn changed(&self) -> bool {
        !matches!(
            self,
            Applied::Config(_)
                | Applied::Ingested(IngestOutcome::Rejected { .. })
                | Applied::IngestAdvanced(IngestOutcome::Rejected { .. }, _)
        )
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

/// What-if simulation provenance of one advance — what the decision trace
/// reports. A transient diagnostic like
/// [`tempo_core::whatif::WhatIfModel`]'s sim counter: never snapshotted.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdvanceProvenance {
    /// Simulations the iteration ran.
    pub sims: u64,
}

/// A live tenancy domain.
pub struct Domain {
    spec: DomainSpec,
    control: WindowedLoop,
    /// Ingest-budget tokens currently available (meaningless without a
    /// budget). Starts full: a fresh domain can absorb one window's burst.
    tokens: f64,
    /// Clock reading of the last token refill.
    last_refill: Time,
    /// Jobs dropped by the [`BackpressurePolicy::Shed`] policy.
    shed: u64,
    /// Jobs turned away with a retry by [`BackpressurePolicy::Delay`].
    delayed: u64,
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
        let control = WindowedLoop::new(
            tempo,
            spec.window_len,
            spec.qs_window(),
            spec.observation_noise,
            spec.seed,
            observation_seed,
        );
        let tokens = spec.ingest_budget.map_or(0.0, |b| b.jobs_per_window as f64);
        Ok(Self { spec, control, tokens, last_refill: 0, shed: 0, delayed: 0 })
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
        self.control.install_pool(pool);
    }

    /// The controller (read-only: diagnostics and the parity suite).
    pub fn tempo(&self) -> &Tempo {
        self.control.tempo()
    }

    /// The configuration the domain's cluster should currently run.
    pub fn current_config(&self) -> RmConfig {
        self.tempo().current_config()
    }

    /// Ingests a batch of job submissions at clock reading `now`, enforcing
    /// the spec's ingest budget (if any). Ids are re-assigned from the
    /// domain's dense counter. A batch holding a malformed job is
    /// [`IngestOutcome::Rejected`] whole, before it charges the budget.
    ///
    /// This is the shard-worker half of the backpressure loop: the budget is
    /// charged on the thread that owns the domain, so no amount of client
    /// concurrency can over-admit a tenant.
    pub fn ingest(&mut self, now: Time, jobs: Vec<JobSpec>) -> IngestOutcome {
        let Some(budget) = self.spec.ingest_budget else {
            return self.admit(jobs);
        };
        if let Err(reason) = self.control.check_jobs(&jobs) {
            return IngestOutcome::Rejected { reason };
        }
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
            return self.admit(jobs);
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
                self.admit(jobs)
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

    fn admit(&mut self, jobs: Vec<JobSpec>) -> IngestOutcome {
        match self.control.ingest(jobs) {
            Ok(accepted) => IngestOutcome::Accepted { accepted },
            Err(reason) => IngestOutcome::Rejected { reason },
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
        self.control.log().accepted()
    }

    pub fn decisions(&self) -> u64 {
        self.control.decisions()
    }

    pub fn steps(&self) -> u64 {
        self.control.steps()
    }

    pub fn skipped(&self) -> u64 {
        self.control.skipped()
    }

    /// Simulations the domain's What-if Model has run.
    pub fn sim_count(&self) -> u64 {
        self.tempo().whatif.sim_count()
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
        let installed_tasks = self.control.installed_segment().map_or(0, |s| s.num_tasks() as u64);
        BASE + PER_LOGGED_JOB * self.control.log().len() as u64
            + PER_INSTALLED_TASK * installed_tasks
            + PER_HISTORY_ROW * self.tempo().pald().history_len() as u64
    }

    /// Runs one control-loop iteration against the window ending at `now`
    /// ([`WindowedLoop::advance`]); the observed schedule is dropped.
    pub fn advance(&mut self, now: Time) -> DecisionRecord {
        self.control.advance(now).0
    }

    /// Applies one op at clock reading `now`: the batch first, if the op
    /// carries one, then its advances — unless the batch was refused, which
    /// runs nothing. Step counts are taken as given. Neither journals nor
    /// traces: the live caller does both with the result.
    pub fn apply(&mut self, now: Time, op: DomainOp) -> Applied {
        match op {
            DomainOp::Ingest { jobs } => Applied::Ingested(self.ingest(now, jobs)),
            DomainOp::Advance { steps } => Applied::Advanced(self.advances(now, steps)),
            DomainOp::IngestAdvance { jobs, steps } => {
                let outcome = self.ingest(now, jobs);
                let steps =
                    if matches!(outcome, IngestOutcome::Rejected { .. }) { 0 } else { steps };
                Applied::IngestAdvanced(outcome, self.advances(now, steps))
            }
            DomainOp::Config => Applied::Config(self.current_config()),
        }
    }

    fn advances(&mut self, now: Time, steps: u64) -> Vec<Decision> {
        (0..steps)
            .map(|_| {
                let sims = self.sim_count();
                let record = self.advance(now);
                (record, AdvanceProvenance { sims: self.sim_count() - sims })
            })
            .collect()
    }

    /// Captures everything needed to resume this domain warm.
    pub fn snapshot(&self, id: u64) -> DomainSnapshot {
        let WindowedLoopState { step, decisions, skipped, last_end, log, installed, tempo } =
            self.control.snapshot();
        DomainSnapshot {
            id,
            spec: self.spec.clone(),
            step,
            decisions,
            skipped,
            last_end,
            log,
            installed,
            tempo,
            tokens: self.tokens,
            last_refill: self.last_refill,
            shed: self.shed,
            delayed: self.delayed,
        }
    }

    /// Rebuilds a domain from a snapshot. Subsequent `ingest`/`advance`
    /// calls behave bit-identically to the never-snapshotted domain; a
    /// corrupt snapshot is an `Err` ([`WindowedLoop::restore`]).
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
            tempo,
            tokens,
            last_refill,
            shed,
            delayed,
        } = snapshot;
        let mut domain = Domain::new(spec)?;
        domain.control.restore(WindowedLoopState {
            step,
            decisions,
            skipped,
            last_end,
            log,
            installed,
            tempo,
        })?;
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
    fn malformed_bursts_are_rejected_before_the_budget_is_charged() {
        let spec = demo_spec(1).with_ingest_budget(IngestBudget::delay(4));
        let mut d = Domain::new(spec).unwrap();
        let mut bad = burst(0);
        bad[3].tasks.clear();
        match d.ingest(MIN, bad) {
            IngestOutcome::Rejected { reason } => assert!(reason.contains("no tasks"), "{reason}"),
            other => panic!("malformed burst accepted: {other:?}"),
        }
        let mut stray = burst(0);
        stray[0].tenant = 2;
        assert!(matches!(d.ingest(MIN, stray), IngestOutcome::Rejected { .. }));
        // Nothing was admitted, charged, refilled or counted.
        assert_eq!(d.ingested(), 0);
        assert_eq!(d.delayed_count(), 0);
        let fresh = Domain::new(demo_spec(1).with_ingest_budget(IngestBudget::delay(4))).unwrap();
        assert_eq!(d.snapshot(0), fresh.snapshot(0));
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
        let buffered = d.control.log().len();
        assert!(buffered > 0);
        // Jump two windows ahead: the old burst is out of range and evicted.
        d.ingest(0, burst(9 * MIN));
        let rec = d.advance(12 * MIN);
        assert_eq!(rec.window, (8 * MIN, 12 * MIN));
        assert!(!rec.skipped);
        assert!(d.control.log().len() < buffered + 6, "pre-window jobs evicted");
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
