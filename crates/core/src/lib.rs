//! # tempo-core
//!
//! **Tempo**: robust and self-tuning resource management for multi-tenant
//! parallel databases — a faithful Rust reproduction of Tan & Babu
//! (VLDB 2016).
//!
//! Tempo sits on top of an existing Resource Manager (here the `tempo-sim`
//! substrate, whose allocation policy is a pluggable `tempo-sched` backend:
//! fair-share, DRF, capacity, or FIFO) and closes the loop from declarative
//! SLOs to low-level RM configuration:
//!
//! * [`space`] — the normalized RM configuration space the optimizer
//!   searches (§3.2), encoding each scheduler backend's *native* knobs;
//! * [`whatif`] — the What-if Model: Workload Generator + Schedule Predictor
//!   + QS evaluation (§7);
//! * [`pald`] — the PALD multi-objective optimizer: proxy model, max-min
//!   weight LP, ρ*, LOESS gradients, projected SGD (§6);
//! * [`control`] — the eight-step control loop with the revert-on-regression
//!   guard (§4), and the windowed re-tuning loop around it (§8.2.3) that the
//!   serving layer, Figure 11 and the adaptive example share;
//! * [`provision`] — cluster-size what-if estimation (§8.2.4);
//! * [`baselines`] — weighted-sum and random-search optimizers for
//!   ablations;
//! * [`spec`] — the N-tenant [`spec::ScenarioSpec`] pipeline composing
//!   workload archetypes, SLO sets, RM configurations, and a scheduler
//!   backend choice ([`spec::ScenarioSpec::backend`]) into runnable
//!   end-to-end scenarios;
//! * [`scenario`] — preset specs: the paper's §8.2 two-tenant EC2 setup and
//!   the six-tenant Company-ABC mix, shared by the examples, tests, and
//!   figure harnesses — each also buildable under all four scheduler
//!   backends ([`scenario::ec2_backend_specs`],
//!   [`scenario::abc_backend_specs`]).
//!
//! ## Quickstart
//!
//! ```
//! use tempo_core::scenario::Scenario;
//!
//! // A scaled-down §8.2.1 scenario: deadline tenant + best-effort tenant
//! // starting from the expert DBA configuration.
//! let mut scenario = Scenario::mixed(0.08, 0.25, 7);
//! let records = scenario.run(3, 1);
//! assert_eq!(records.len(), 3);
//! // Each record carries the observed QS vector (deadline misses, AJR).
//! assert_eq!(records[0].observed_qs.len(), 2);
//! ```
//!
//! Arbitrary tenant mixes compose through the builder instead of the
//! presets — see [`spec::ScenarioSpec`]:
//!
//! ```
//! use tempo_core::spec::{ScenarioSpec, TenantSpec};
//! use tempo_qs::QsKind;
//! use tempo_sim::ClusterSpec;
//! use tempo_workload::synthetic::facebook_like_tenant;
//! use tempo_workload::time::MIN;
//!
//! let mut scenario = ScenarioSpec::new(ClusterSpec::new(12, 6))
//!     .tenant(TenantSpec::new(facebook_like_tenant("a", 40.0)).with_slo(QsKind::AvgResponseTime))
//!     .tenant(TenantSpec::new(facebook_like_tenant("b", 20.0)).with_slo(QsKind::AvgResponseTime))
//!     .tenant(TenantSpec::new(facebook_like_tenant("c", 10.0)).with_slo(QsKind::AvgResponseTime))
//!     .span(30 * MIN)
//!     .seed(1)
//!     .build()
//!     .expect("three-tenant scenario");
//! assert_eq!(scenario.run(1, 0)[0].observed_qs.len(), 3);
//! ```

pub mod baselines;
pub mod control;
pub mod pald;
pub mod pool;
pub mod provision;
pub mod scenario;
pub mod space;
pub mod spec;
pub mod whatif;

pub use control::{
    dominates, IterationRecord, LoopConfig, RevertPolicy, Tempo, WhatIfObjective, WindowedLoop,
};
pub use pald::{run_pald, Pald, PaldConfig, PaldStep, QsObjective};
pub use pool::WorkerPool;
pub use provision::{estimate_slos, estimation_error_pct, reconstruct_trace};
pub use space::ConfigSpace;
pub use spec::{Scenario, ScenarioSpec, SpecError, TenantSpec};
pub use whatif::{WhatIfModel, WorkloadSource};
