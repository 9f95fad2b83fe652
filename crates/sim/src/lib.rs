//! # tempo-sim
//!
//! Discrete-event cluster + RM simulator: the substrate Tempo tunes, and its
//! fast time-warp Schedule Predictor (§7.2 of the paper).
//!
//! The simulator implements the RM configuration space of §3.2 — per-tenant
//! resource shares, min/max limits, and two-level preemption timeouts — over
//! a cluster of map/reduce container pools, and records the full task
//! schedule (start/end/allocation of every task attempt) that the QS metrics
//! are defined on. Allocation policy is pluggable: [`RmConfig::policy`]
//! selects a `tempo-sched` backend (fair-share, DRF, capacity, or FIFO) and
//! the engine dispatches every target computation and preemption-victim
//! choice through the [`SchedulerBackend`] trait.
//!
//! ```
//! use tempo_sim::{predict, ClusterSpec, RmConfig};
//! use tempo_workload::{Trace, JobSpec, TaskSpec};
//! use tempo_workload::time::SEC;
//!
//! let trace = Trace::new(vec![JobSpec::new(0, 0, 0, vec![TaskSpec::map(10 * SEC)])]);
//! let schedule = predict(&trace, &ClusterSpec::new(4, 2), &RmConfig::fair(1));
//! assert_eq!(schedule.job(0).finish, Some(10 * SEC));
//! ```
//!
//! Schedules are stored **columnar** ([`ScheduleColumns`]) — the QS metrics
//! scan contiguous columns — with the row API ([`JobRecord`], [`TaskView`])
//! preserved as cheap views.
//!
//! A caller that simulates one trace under many configurations — the
//! What-if Model evaluating a probe batch — compiles it once into a
//! [`PreparedWindow`] and runs that: validation and flattening are paid per
//! window, and a run with a warm [`SimPool`] and a recycled output schedule
//! ([`PreparedWindow::simulate_with`]) allocates nothing. [`simulate`],
//! [`predict`] and [`observe`] are "prepare, run once" over the same engine.
//! Pending task finishes and preemption checks wait in an [`EventQueue`], a
//! binary heap ordered by `(time, insertion-seq)`; job arrivals are walked
//! from the prepared window's submit-ordered list.

pub mod config;
pub mod engine;
pub mod kernel;
pub mod noise;
pub mod predictor;
pub mod queue;
pub mod record;

pub use config::{ClusterSpec, ConfigError, PoolSpec, RmConfig, TenantConfig};
pub use engine::{simulate, simulate_pooled, PreparedWindow, SimOptions, SimPool};
pub use queue::EventQueue;
// The allocation kernels live in `tempo-sched`; re-exported so existing
// `tempo_sim::fair_targets` call sites keep compiling.
pub use noise::NoiseModel;
pub use predictor::{observe, predict, predict_until, prediction_error, PredictionError};
pub use record::{
    tenant_mask, Attempt, AttemptOutcome, JobRecord, Schedule, ScheduleColumns, TaskRecord,
    TaskView, NO_TIME,
};
pub use tempo_sched::{
    fair_targets, Capacity, Drf, FairShare, Fifo, SchedPolicy, SchedulerBackend, ShareInput,
    TenantDemand,
};
