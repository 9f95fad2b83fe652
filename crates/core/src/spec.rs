//! `ScenarioSpec`: the N-tenant scenario pipeline.
//!
//! Every end-to-end artifact in the workspace — examples, integration tests,
//! figure harnesses — needs the same assembly: compose *tenants* (a workload
//! archetype from `tempo-workload`, an SLO set from `tempo-qs`, and a
//! share/limit/preemption configuration from `tempo-sim`) on a *cluster*
//! under a *noise model*, then wire the What-if Model, the normalized
//! configuration space, and the Tempo controller together. The seed repo
//! hardcoded that glue for the paper's §8.2 two-tenant EC2 setup and every
//! call site re-derived it by hand; this module is the general, validated
//! pipeline that those setups are now thin presets over (see
//! [`crate::scenario`]).
//!
//! The built What-if Model replays the scenario's one trace (generated, or
//! supplied with [`ScenarioSpec::with_trace`]) with the paper's
//! deterministic predictor. [`Scenario::run`] iterates the controller on
//! that fixed workload; re-tuning on a rolling window of a live or drifting
//! trace is [`crate::control::WindowedLoop`]'s job.
//!
//! ```
//! use tempo_core::spec::{ScenarioSpec, TenantSpec};
//! use tempo_qs::QsKind;
//! use tempo_sim::ClusterSpec;
//! use tempo_workload::synthetic::{cloudera_like_tenant, facebook_like_tenant};
//! use tempo_workload::time::HOUR;
//!
//! let mut scenario = ScenarioSpec::new(ClusterSpec::new(24, 12))
//!     .tenant(
//!         TenantSpec::new(facebook_like_tenant("adhoc", 60.0))
//!             .with_slo(QsKind::AvgResponseTime),
//!     )
//!     .tenant(
//!         TenantSpec::new(cloudera_like_tenant("batch", 20.0))
//!             .with_slo_bound(QsKind::ResponseTimePercentile { q: 0.9 }, 1800.0),
//!     )
//!     .span(HOUR)
//!     .seed(7)
//!     .build()
//!     .expect("valid two-tenant scenario");
//! let records = scenario.run(2, 1);
//! assert_eq!(records.len(), 2);
//! assert_eq!(records[0].observed_qs.len(), 2);
//! ```

use crate::control::{IterationRecord, LoopConfig, RevertPolicy, Tempo};
use crate::pald::PaldConfig;
use crate::space::ConfigSpace;
use crate::whatif::{WhatIfModel, WorkloadSource};
use std::collections::BTreeMap;
use std::fmt;
use tempo_qs::{ParseError, QsKind, SloSet, SloSpec};
use tempo_sim::{
    observe, ClusterSpec, ConfigError, NoiseModel, RmConfig, SchedPolicy, Schedule, TenantConfig,
};
use tempo_workload::time::{Time, HOUR};
use tempo_workload::{TenantId, TenantModel, Trace, WorkloadModel};

/// One tenant of a scenario: workload archetype + SLOs + initial RM config.
///
/// The tenant's id is its position in the [`ScenarioSpec`] — ids are dense
/// and assigned at [`ScenarioSpec::build`] time, so specs compose without
/// manual id bookkeeping.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Display name (used in SLO names and reports). Defaults to the
    /// workload archetype's name.
    pub name: String,
    /// The statistical workload model that generates this tenant's jobs.
    pub workload: TenantModel,
    /// SLOs scoped to this tenant. `tenant` ids inside are assigned at build
    /// time; auto-generated names are rewritten to `"{name}:{metric}"`.
    pub slos: Vec<SloSpec>,
    /// Initial RM configuration (the starting point the optimizer tunes
    /// from). Defaults to plain weighted fair sharing.
    pub rm: TenantConfig,
}

impl TenantSpec {
    /// A tenant named after its workload archetype, with fair-sharing
    /// defaults and no SLOs.
    pub fn new(workload: TenantModel) -> Self {
        Self {
            name: workload.name.clone(),
            workload,
            slos: Vec::new(),
            rm: TenantConfig::fair_default(),
        }
    }

    /// Overrides the display name.
    pub fn named(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Sets the initial share/limit/preemption configuration.
    pub fn with_rm(mut self, rm: TenantConfig) -> Self {
        self.rm = rm;
        self
    }

    /// Adds a best-effort SLO (no threshold: the control loop ratchets the
    /// best value attained so far, §6.1).
    pub fn with_slo(mut self, kind: QsKind) -> Self {
        self.slos.push(SloSpec::new(None, kind));
        self
    }

    /// Adds a constrained SLO `E[f] ≤ r`.
    pub fn with_slo_bound(mut self, kind: QsKind, r: f64) -> Self {
        self.slos.push(SloSpec::new(None, kind).with_threshold(r));
        self
    }

    /// Adds a fully specified SLO (priorities, custom names). The `tenant`
    /// field is overwritten with this tenant's id at build time.
    pub fn with_slo_spec(mut self, slo: SloSpec) -> Self {
        self.slos.push(slo);
        self
    }
}

/// Validation failures from [`ScenarioSpec::build`].
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A scenario needs at least one tenant.
    NoTenants,
    /// A scenario needs at least one SLO to optimize for.
    NoSlos,
    /// Tenant display names must be unique (they key SLO parsing/reports).
    DuplicateTenant(String),
    /// The QS evaluation window is empty or inverted.
    EmptyWindow { start: Time, end: Time },
    /// The trace-generation span is zero.
    EmptySpan,
    /// The per-tenant RM configurations do not validate.
    InvalidRm(ConfigError),
    /// A declarative SLO block failed to parse.
    SloParse(ParseError),
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::NoTenants => write!(f, "scenario has no tenants"),
            SpecError::NoSlos => write!(f, "scenario has no SLOs"),
            SpecError::DuplicateTenant(name) => write!(f, "duplicate tenant name '{name}'"),
            SpecError::EmptyWindow { start, end } => {
                write!(f, "empty QS window [{start}, {end})")
            }
            SpecError::EmptySpan => write!(f, "trace-generation span is zero"),
            SpecError::InvalidRm(e) => write!(f, "invalid initial RM configuration: {e}"),
            SpecError::SloParse(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ConfigError> for SpecError {
    fn from(e: ConfigError) -> Self {
        SpecError::InvalidRm(e)
    }
}

impl From<ParseError> for SpecError {
    fn from(e: ParseError) -> Self {
        SpecError::SloParse(e)
    }
}

/// Declarative description of an N-tenant end-to-end scenario; build it into
/// a runnable [`Scenario`] with [`ScenarioSpec::build`].
#[derive(Debug, Clone)]
pub struct ScenarioSpec {
    /// Tenants in id order (tenant `i` in traces/configs is `tenants[i]`).
    pub tenants: Vec<TenantSpec>,
    /// The cluster the RM schedules onto.
    pub cluster: ClusterSpec,
    /// The scheduler backend the RM runs (and whose native knobs the
    /// optimizer tunes). Defaults to the paper's fair-share substrate.
    pub backend: SchedPolicy,
    /// Cluster-level SLOs (utilization, total throughput, ...).
    pub cluster_slos: Vec<SloSpec>,
    /// Trace-generation horizon `[0, span)`.
    pub span: Time,
    /// QS evaluation window; defaults to `[0, span + span/4)` so straggler
    /// jobs submitted near the end still count.
    pub window: Option<(Time, Time)>,
    /// Noise injected when *observing* the stand-in cluster
    /// ([`Scenario::observe_current`]).
    pub observation_noise: NoiseModel,
    /// Master seed: drives trace generation and (unless overridden via
    /// [`ScenarioSpec::loop_config`]/[`ScenarioSpec::pald`]) probe placement.
    pub seed: u64,
    /// Control-loop settings.
    pub loop_config: LoopConfig,
    /// Pre-recorded trace replayed instead of generating from the tenant
    /// models (§7.1's "replaying historical traces" mode).
    pub trace_override: Option<Trace>,
}

impl ScenarioSpec {
    /// A spec with no tenants yet, default two-hour span, no noise, and
    /// default loop settings.
    pub fn new(cluster: ClusterSpec) -> Self {
        Self {
            tenants: Vec::new(),
            cluster,
            backend: SchedPolicy::FairShare,
            cluster_slos: Vec::new(),
            span: 2 * HOUR,
            window: None,
            observation_noise: NoiseModel::NONE,
            seed: 0,
            loop_config: LoopConfig::default(),
            trace_override: None,
        }
    }

    /// Adds a tenant; its id is its insertion position.
    pub fn tenant(mut self, tenant: TenantSpec) -> Self {
        self.tenants.push(tenant);
        self
    }

    /// Swaps the scheduler backend (fair-share, DRF, capacity, FIFO). The
    /// per-tenant RM configs are carried over and interpreted in the new
    /// backend's native terms; the optimizer searches that backend's knobs.
    pub fn backend(mut self, backend: SchedPolicy) -> Self {
        self.backend = backend;
        self
    }

    /// Adds a cluster-level SLO (the `tenant` field is forced to `None`).
    pub fn cluster_slo(mut self, slo: SloSpec) -> Self {
        self.cluster_slos.push(SloSpec { tenant: None, ..slo });
        self
    }

    /// Sets the trace-generation horizon.
    pub fn span(mut self, span: Time) -> Self {
        self.span = span;
        self
    }

    /// Sets an explicit QS evaluation window.
    pub fn window(mut self, start: Time, end: Time) -> Self {
        self.window = Some((start, end));
        self
    }

    /// Sets the observation noise for stand-in cluster runs.
    pub fn observation_noise(mut self, noise: NoiseModel) -> Self {
        self.observation_noise = noise;
        self
    }

    /// Replays a pre-recorded trace (production logs, drifting-workload
    /// experiments) instead of generating one from the tenant models. The
    /// tenant list still defines SLOs, RM configs, and ids.
    pub fn with_trace(mut self, trace: Trace) -> Self {
        self.trace_override = Some(trace);
        self
    }

    /// Sets the master seed (trace generation *and* optimizer probe
    /// placement; call [`ScenarioSpec::pald`] afterwards to decouple them).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self.loop_config.pald.seed = seed;
        self
    }

    /// Replaces the whole control-loop configuration.
    pub fn loop_config(mut self, config: LoopConfig) -> Self {
        self.loop_config = config;
        self
    }

    /// Overrides just the PALD optimizer settings.
    pub fn pald(mut self, pald: PaldConfig) -> Self {
        self.loop_config.pald = pald;
        self
    }

    /// Overrides just the revert policy.
    pub fn revert(mut self, revert: RevertPolicy) -> Self {
        self.loop_config.revert = revert;
        self
    }

    /// Attaches SLOs written in the declarative template language of §5.2,
    /// scoping `tenant <name>` lines by this spec's tenant names:
    ///
    /// ```text
    /// tenant etl: deadline_miss(slack=25%) <= 0%
    /// tenant adhoc: avg_response_time
    /// cluster: utilization(reduce) >= 40%
    /// ```
    pub fn parsed_slos(mut self, text: &str) -> Result<Self, SpecError> {
        let ids: BTreeMap<String, TenantId> =
            self.tenants.iter().enumerate().map(|(i, t)| (t.name.clone(), i as TenantId)).collect();
        let set = SloSet::parse(text, &ids)?;
        for slo in set.slos {
            match slo.tenant {
                Some(id) => self.tenants[id as usize].slos.push(slo),
                None => self.cluster_slos.push(slo),
            }
        }
        Ok(self)
    }

    /// Number of tenants added so far.
    pub fn num_tenants(&self) -> usize {
        self.tenants.len()
    }

    /// The multi-tenant workload model this spec composes (tenant index =
    /// tenant id).
    pub fn workload_model(&self) -> WorkloadModel {
        WorkloadModel::new(self.tenants.iter().map(|t| t.workload.clone()).collect())
    }

    /// The initial RM configuration this spec composes (under this spec's
    /// scheduler backend).
    pub fn initial_config(&self) -> RmConfig {
        RmConfig::new(self.tenants.iter().map(|t| t.rm.clone()).collect()).with_policy(self.backend)
    }

    /// The full SLO set (tenant SLOs in tenant order, then cluster SLOs),
    /// with tenant ids assigned and auto-generated names rewritten to
    /// `"{tenant}:{metric}"`.
    pub fn slo_set(&self) -> SloSet {
        let mut slos = Vec::new();
        for (id, t) in self.tenants.iter().enumerate() {
            for slo in &t.slos {
                let mut s = SloSpec { tenant: Some(id as TenantId), ..slo.clone() };
                if auto_named(slo) {
                    s.name = format!("{}:{}", t.name, s.kind.label());
                }
                slos.push(s);
            }
        }
        for slo in &self.cluster_slos {
            slos.push(SloSpec { tenant: None, ..slo.clone() });
        }
        SloSet::new(slos)
    }

    /// Validates the spec and assembles the runnable scenario: generates the
    /// trace, wires the What-if Model, configuration space, and Tempo
    /// controller, and seats the initial RM configuration.
    pub fn build(mut self) -> Result<Scenario, SpecError> {
        if self.tenants.is_empty() {
            return Err(SpecError::NoTenants);
        }
        let mut seen = std::collections::BTreeSet::new();
        for t in &self.tenants {
            if !seen.insert(t.name.as_str()) {
                return Err(SpecError::DuplicateTenant(t.name.clone()));
            }
        }
        if self.span == 0 {
            return Err(SpecError::EmptySpan);
        }
        let window = self.window.unwrap_or((0, self.span + self.span / 4));
        if window.0 >= window.1 {
            return Err(SpecError::EmptyWindow { start: window.0, end: window.1 });
        }
        let slos = self.slo_set();
        if slos.is_empty() {
            return Err(SpecError::NoSlos);
        }
        let initial = self.initial_config();
        initial.validate()?;

        // The tenant models are only materialized where actually consumed;
        // a historical-trace replay never clones them.
        let trace = match self.trace_override.take() {
            Some(trace) => trace,
            None => self.workload_model().generate(0, self.span, self.seed),
        };
        let whatif = WhatIfModel::new(
            self.cluster.clone(),
            slos,
            WorkloadSource::replay(trace.clone()),
            window,
        );
        let space = ConfigSpace::new(self.tenants.len(), &self.cluster).with_policy(self.backend);
        let tempo = Tempo::new(space, whatif, self.loop_config, &initial);
        Ok(Scenario {
            names: self.tenants.iter().map(|t| t.name.clone()).collect(),
            cluster: self.cluster,
            trace,
            window,
            noise: self.observation_noise,
            tempo,
        })
    }
}

/// Whether an SLO still carries the default name [`SloSpec::new`] generated
/// (in which case the build rewrites it to use the tenant's display name).
fn auto_named(slo: &SloSpec) -> bool {
    slo.name == SloSpec::new(slo.tenant, slo.kind).name
}

/// A fully assembled scenario: cluster, generated trace, QS window, and a
/// Tempo controller seated on the initial configuration.
pub struct Scenario {
    /// Tenant display names, in tenant-id order.
    pub names: Vec<String>,
    pub cluster: ClusterSpec,
    pub trace: Trace,
    /// QS evaluation window `[start, end)`.
    pub window: (Time, Time),
    /// Noise model for "observed" runs on the stand-in cluster.
    pub noise: NoiseModel,
    pub tempo: Tempo,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("names", &self.names)
            .field("cluster", &self.cluster)
            .field("jobs", &self.trace.len())
            .field("window", &self.window)
            .finish_non_exhaustive()
    }
}

impl Scenario {
    /// Observes the trace on the stand-in cluster under the controller's
    /// current configuration (the "run the production workload for one
    /// interval" step).
    pub fn observe_current(&self, seed: u64) -> Schedule {
        observe(&self.trace, &self.cluster, &self.tempo.current_config(), self.noise, seed)
    }

    /// Runs `iters` control-loop iterations, returning the per-iteration
    /// records (Figure 6's x-axis).
    pub fn run(&mut self, iters: usize, seed: u64) -> Vec<IterationRecord> {
        let mut out = Vec::with_capacity(iters);
        for i in 0..iters {
            let sched = self.observe_current(seed.wrapping_add(i as u64 * 7919));
            out.push(self.tempo.iterate(&sched));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_workload::synthetic::facebook_like_tenant;
    use tempo_workload::time::MIN;

    fn tiny_tenant(name: &str) -> TenantSpec {
        TenantSpec::new(facebook_like_tenant(name, 30.0)).with_slo(QsKind::AvgResponseTime)
    }

    #[test]
    fn build_rejects_degenerate_specs() {
        let cluster = ClusterSpec::new(8, 4);
        assert_eq!(ScenarioSpec::new(cluster.clone()).build().unwrap_err(), SpecError::NoTenants);

        let no_slos = ScenarioSpec::new(cluster.clone())
            .tenant(TenantSpec::new(facebook_like_tenant("a", 10.0)))
            .build();
        assert_eq!(no_slos.unwrap_err(), SpecError::NoSlos);

        let dup = ScenarioSpec::new(cluster.clone())
            .tenant(tiny_tenant("a"))
            .tenant(tiny_tenant("a"))
            .build();
        assert_eq!(dup.unwrap_err(), SpecError::DuplicateTenant("a".into()));

        let window =
            ScenarioSpec::new(cluster.clone()).tenant(tiny_tenant("a")).window(MIN, MIN).build();
        assert_eq!(window.unwrap_err(), SpecError::EmptyWindow { start: MIN, end: MIN });

        let bad_rm = ScenarioSpec::new(cluster.clone())
            .tenant(tiny_tenant("a").with_rm(TenantConfig::fair_default().with_weight(0.0)))
            .build();
        assert!(matches!(bad_rm.unwrap_err(), SpecError::InvalidRm(_)));

        let no_span = ScenarioSpec::new(cluster).tenant(tiny_tenant("a")).span(0).build();
        assert_eq!(no_span.unwrap_err(), SpecError::EmptySpan);
    }

    #[test]
    fn slo_names_use_tenant_names_and_ids_are_dense() {
        let spec = ScenarioSpec::new(ClusterSpec::new(8, 4))
            .tenant(tiny_tenant("alpha"))
            .tenant(
                tiny_tenant("beta").with_slo_spec(
                    SloSpec::new(None, QsKind::DeadlineMiss { gamma: 0.25 })
                        .with_threshold(0.0)
                        .with_priority(2.0),
                ),
            )
            .cluster_slo(SloSpec::new(Some(9), QsKind::Throughput).with_threshold(-10.0));
        let set = spec.slo_set();
        assert_eq!(set.len(), 4);
        assert_eq!(set.slos[0].tenant, Some(0));
        assert_eq!(set.slos[0].name, format!("alpha:{}", QsKind::AvgResponseTime.label()));
        assert_eq!(set.slos[1].tenant, Some(1));
        assert_eq!(set.slos[2].tenant, Some(1));
        assert_eq!(set.slos[2].priority, 2.0);
        // Cluster SLOs are forced to cluster scope even if misdeclared.
        assert_eq!(set.slos[3].tenant, None);
    }

    #[test]
    fn parsed_slos_scope_by_tenant_name() {
        let spec = ScenarioSpec::new(ClusterSpec::new(8, 4))
            .tenant(TenantSpec::new(facebook_like_tenant("etl", 10.0)))
            .tenant(TenantSpec::new(facebook_like_tenant("adhoc", 40.0)))
            .parsed_slos(
                "tenant etl: deadline_miss(slack=25%) <= 0%\n\
                 tenant adhoc: avg_response_time\n\
                 cluster: utilization(reduce) >= 40%\n",
            )
            .expect("parses");
        let set = spec.slo_set();
        assert_eq!(set.len(), 3);
        assert_eq!(set.slos[0].tenant, Some(0));
        assert_eq!(set.slos[0].threshold, Some(0.0));
        assert_eq!(set.slos[1].tenant, Some(1));
        assert_eq!(set.slos[2].tenant, None);
        assert!(spec.parsed_slos("tenant nosuch: avg_response_time").is_err());
    }

    #[test]
    fn built_scenario_runs_and_matches_spec_arity() {
        let mut sc = ScenarioSpec::new(ClusterSpec::new(10, 5))
            .tenant(tiny_tenant("a"))
            .tenant(tiny_tenant("b"))
            .tenant(tiny_tenant("c"))
            .span(20 * MIN)
            .seed(5)
            .build()
            .expect("valid spec");
        assert_eq!(sc.names, vec!["a", "b", "c"]);
        assert_eq!(sc.tempo.current_config().num_tenants(), 3);
        let recs = sc.run(2, 9);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].observed_qs.len(), 3);
    }

    #[test]
    fn backend_flows_to_initial_config_and_config_space() {
        let spec = ScenarioSpec::new(ClusterSpec::new(10, 5))
            .tenant(tiny_tenant("a"))
            .tenant(tiny_tenant("b"))
            .span(20 * MIN)
            .backend(SchedPolicy::Drf);
        assert_eq!(spec.initial_config().policy, SchedPolicy::Drf);
        let mut sc = spec.build().expect("valid DRF scenario");
        assert_eq!(sc.tempo.current_config().policy, SchedPolicy::Drf);
        // The optimizer searches DRF's native knobs: 2 dims × 2 tenants.
        assert_eq!(sc.tempo.current_x().len(), 4);
        let recs = sc.run(1, 2);
        assert_eq!(recs[0].observed_qs.len(), 2);
    }

    #[test]
    fn seed_controls_both_trace_and_probes() {
        let spec = |seed| {
            ScenarioSpec::new(ClusterSpec::new(10, 5))
                .tenant(tiny_tenant("a"))
                .span(20 * MIN)
                .seed(seed)
        };
        let a = spec(3);
        assert_eq!(a.loop_config.pald.seed, 3);
        let t1 = a.build().unwrap().trace;
        let t2 = spec(3).build().unwrap().trace;
        let t3 = spec(4).build().unwrap().trace;
        assert_eq!(t1, t2);
        assert_ne!(t1, t3);
    }
}
