//! The workload trace model.
//!
//! Parallel databases decompose queries into DAGs of jobs, each a set of
//! parallel tasks (§3.2). Tempo's unit of resource is a uni-dimensional
//! *container* (slot): every task occupies exactly one container of its kind
//! for its duration. A [`Trace`] is the replayable record of job submissions
//! that the Workload Generator feeds to the Schedule Predictor.

use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// Identifies a tenant (a queue/pool in RM terms). Dense small integers so the
/// simulator can index per-tenant state directly.
pub type TenantId = u16;

/// The container pool a task runs in.
///
/// Hadoop-era RMs partition slots into map and reduce containers, and the
/// paper's evaluation reports the two utilizations separately (UTILMAP /
/// UTILRED in Figure 9), so the distinction is first-class here.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum TaskKind {
    Map,
    Reduce,
}

/// Number of distinct [`TaskKind`]s (container pools).
pub const NUM_KINDS: usize = 2;

impl TaskKind {
    /// All kinds, in pool-index order.
    pub const ALL: [TaskKind; NUM_KINDS] = [TaskKind::Map, TaskKind::Reduce];

    /// Dense pool index.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            TaskKind::Map => 0,
            TaskKind::Reduce => 1,
        }
    }

    /// Inverse of [`TaskKind::index`].
    #[inline]
    pub fn from_index(i: usize) -> TaskKind {
        match i {
            0 => TaskKind::Map,
            1 => TaskKind::Reduce,
            _ => panic!("invalid task kind index {i}"),
        }
    }
}

impl fmt::Display for TaskKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskKind::Map => write!(f, "map"),
            TaskKind::Reduce => write!(f, "reduce"),
        }
    }
}

/// One parallel task of a job: a kind (pool) and a noiseless base duration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskSpec {
    pub kind: TaskKind,
    /// Ideal execution time once the task begins useful work. The simulator
    /// may stretch it with noise or restart it after preemption.
    pub duration: Time,
}

impl TaskSpec {
    pub fn map(duration: Time) -> Self {
        Self { kind: TaskKind::Map, duration }
    }

    pub fn reduce(duration: Time) -> Self {
        Self { kind: TaskKind::Reduce, duration }
    }
}

/// A job: a two-stage (map → reduce) DAG of tasks submitted by a tenant.
///
/// Reduce tasks become runnable once `slowstart` of the job's maps have
/// completed; a launched reduce only begins useful work when *all* maps have
/// finished (the shuffle barrier) — before that it occupies its container
/// idle, which is exactly the mechanism behind the reduce-slot utilization
/// problems of §8.2.2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Stable identifier, unique within a trace.
    pub id: u64,
    pub tenant: TenantId,
    /// Absolute submission time.
    pub submit: Time,
    /// Optional absolute deadline (deadline SLOs, §5.1).
    pub deadline: Option<Time>,
    /// Fraction of maps that must complete before reduces may launch.
    /// `1.0` replicates a full barrier; Hadoop defaults to early launch.
    pub slowstart: f64,
    pub tasks: Vec<TaskSpec>,
}

impl JobSpec {
    /// Creates a job with a full map→reduce barrier (`slowstart = 1.0`).
    pub fn new(id: u64, tenant: TenantId, submit: Time, tasks: Vec<TaskSpec>) -> Self {
        Self { id, tenant, submit, deadline: None, slowstart: 1.0, tasks }
    }

    pub fn with_deadline(mut self, deadline: Time) -> Self {
        self.deadline = Some(deadline);
        self
    }

    pub fn with_slowstart(mut self, slowstart: f64) -> Self {
        assert!((0.0..=1.0).contains(&slowstart), "slowstart must be in [0,1]");
        self.slowstart = slowstart;
        self
    }

    /// The per-job half of [`Trace::validate`]: every rule except id
    /// uniqueness, which only a whole trace can check.
    pub fn validate(&self) -> Result<(), TraceError> {
        if self.tasks.is_empty() {
            return Err(TraceError::EmptyJob(self.id));
        }
        if let Some(d) = self.deadline {
            if d < self.submit {
                return Err(TraceError::DeadlineBeforeSubmit(self.id));
            }
        }
        if !(0.0..=1.0).contains(&self.slowstart) || self.slowstart.is_nan() {
            return Err(TraceError::BadSlowstart(self.id));
        }
        Ok(())
    }

    pub fn map_count(&self) -> usize {
        self.tasks.iter().filter(|t| t.kind == TaskKind::Map).count()
    }

    pub fn reduce_count(&self) -> usize {
        self.tasks.iter().filter(|t| t.kind == TaskKind::Reduce).count()
    }

    /// Total useful work across all tasks (container-microseconds).
    pub fn total_work(&self) -> Time {
        self.tasks.iter().map(|t| t.duration).sum()
    }

    /// Longest single task of the given kind.
    pub fn max_duration(&self, kind: TaskKind) -> Time {
        self.tasks.iter().filter(|t| t.kind == kind).map(|t| t.duration).max().unwrap_or(0)
    }

    /// Work of the given kind (container-microseconds).
    pub fn work_of(&self, kind: TaskKind) -> Time {
        self.tasks.iter().filter(|t| t.kind == kind).map(|t| t.duration).sum()
    }

    /// A coarse makespan estimate when run alone on `parallelism` containers
    /// per pool: per-stage work spread over the containers plus the stage's
    /// straggler. Used by deadline policies to derive sensible deadlines.
    pub fn est_makespan(&self, parallelism: u32) -> Time {
        let p = parallelism.max(1) as u64;
        let map_part = self.work_of(TaskKind::Map) / p + self.max_duration(TaskKind::Map);
        let red_part = self.work_of(TaskKind::Reduce) / p + self.max_duration(TaskKind::Reduce);
        map_part + red_part
    }
}

/// A replayable workload trace: the job submission log.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Trace {
    pub jobs: Vec<JobSpec>,
}

/// Validation failures for a [`Trace`]; surfaced before simulation so the
/// engine can assume well-formed input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceError {
    DuplicateJobId(u64),
    EmptyJob(u64),
    DeadlineBeforeSubmit(u64),
    BadSlowstart(u64),
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::DuplicateJobId(id) => write!(f, "duplicate job id {id}"),
            TraceError::EmptyJob(id) => write!(f, "job {id} has no tasks"),
            TraceError::DeadlineBeforeSubmit(id) => {
                write!(f, "job {id} deadline precedes submission")
            }
            TraceError::BadSlowstart(id) => write!(f, "job {id} slowstart outside [0,1]"),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    pub fn new(jobs: Vec<JobSpec>) -> Self {
        Self { jobs }
    }

    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Total number of tasks across all jobs.
    pub fn num_tasks(&self) -> usize {
        self.jobs.iter().map(|j| j.tasks.len()).sum()
    }

    /// Sorts jobs by submission time (stable; ties keep input order).
    pub fn sort_by_submit(&mut self) {
        self.jobs.sort_by_key(|j| j.submit);
    }

    /// `(earliest submit, latest submit)`, or `None` for an empty trace.
    pub fn submit_span(&self) -> Option<(Time, Time)> {
        let min = self.jobs.iter().map(|j| j.submit).min()?;
        let max = self.jobs.iter().map(|j| j.submit).max()?;
        Some((min, max))
    }

    /// The distinct tenants appearing in the trace, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        let set: BTreeSet<TenantId> = self.jobs.iter().map(|j| j.tenant).collect();
        set.into_iter().collect()
    }

    /// Jobs of one tenant, preserving order.
    pub fn filter_tenant(&self, tenant: TenantId) -> Trace {
        Trace::new(self.jobs.iter().filter(|j| j.tenant == tenant).cloned().collect())
    }

    /// Restricts to jobs submitted in `[start, end)`.
    pub fn window(&self, start: Time, end: Time) -> Trace {
        Trace::new(self.jobs.iter().filter(|j| (start..end).contains(&j.submit)).cloned().collect())
    }

    /// Merges two traces, reassigning ids from `other` on collision.
    pub fn merge(&mut self, other: Trace) {
        let mut used: BTreeSet<u64> = self.jobs.iter().map(|j| j.id).collect();
        let mut next = used.iter().next_back().map_or(0, |m| m + 1);
        for mut job in other.jobs {
            if !used.insert(job.id) {
                while used.contains(&next) {
                    next += 1;
                }
                job.id = next;
                used.insert(next);
            }
            self.jobs.push(job);
        }
        self.sort_by_submit();
    }

    /// Shifts every submission (and deadline) by `offset`.
    pub fn shift(&mut self, offset: Time) {
        for job in &mut self.jobs {
            job.submit += offset;
            if let Some(d) = job.deadline.as_mut() {
                *d += offset;
            }
        }
    }

    /// Rebases the trace so `origin` becomes time 0 (the inverse of
    /// [`Trace::shift`]); used when replaying a window of recent traces in
    /// isolation. Saturates at 0 for events before the origin.
    pub fn shift_to_zero(&mut self, origin: Time) {
        for job in &mut self.jobs {
            job.submit = job.submit.saturating_sub(origin);
            if let Some(d) = job.deadline.as_mut() {
                *d = d.saturating_sub(origin);
            }
        }
    }

    /// Checks structural invariants. Call before feeding to the simulator.
    pub fn validate(&self) -> Result<(), TraceError> {
        let mut seen = BTreeSet::new();
        for job in &self.jobs {
            if !seen.insert(job.id) {
                return Err(TraceError::DuplicateJobId(job.id));
            }
            job.validate()?;
        }
        Ok(())
    }

    /// Per-tenant summary statistics (drives the Table 1 / Figure 5 reports).
    pub fn tenant_stats(&self, tenant: TenantId) -> TenantTraceStats {
        let jobs: Vec<&JobSpec> = self.jobs.iter().filter(|j| j.tenant == tenant).collect();
        let n = jobs.len();
        let maps: Vec<f64> = jobs.iter().map(|j| j.map_count() as f64).collect();
        let reduces: Vec<f64> = jobs.iter().map(|j| j.reduce_count() as f64).collect();
        let map_durs: Vec<f64> = jobs
            .iter()
            .flat_map(|j| j.tasks.iter())
            .filter(|t| t.kind == TaskKind::Map)
            .map(|t| crate::time::to_secs_f64(t.duration))
            .collect();
        let red_durs: Vec<f64> = jobs
            .iter()
            .flat_map(|j| j.tasks.iter())
            .filter(|t| t.kind == TaskKind::Reduce)
            .map(|t| crate::time::to_secs_f64(t.duration))
            .collect();
        TenantTraceStats {
            tenant,
            jobs: n,
            tasks: jobs.iter().map(|j| j.tasks.len()).sum(),
            with_deadline: jobs.iter().filter(|j| j.deadline.is_some()).count(),
            mean_maps: crate::stats::mean(&maps),
            mean_reduces: crate::stats::mean(&reduces),
            mean_map_secs: crate::stats::mean(&map_durs),
            mean_reduce_secs: crate::stats::mean(&red_durs),
            total_work: jobs.iter().map(|j| j.total_work()).sum(),
        }
    }
}

/// Aggregate shape of one tenant's jobs within a trace.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantTraceStats {
    pub tenant: TenantId,
    pub jobs: usize,
    pub tasks: usize,
    pub with_deadline: usize,
    pub mean_maps: f64,
    pub mean_reduces: f64,
    pub mean_map_secs: f64,
    pub mean_reduce_secs: f64,
    pub total_work: Time,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{HOUR, SEC};

    fn job(id: u64, tenant: TenantId, submit: Time) -> JobSpec {
        JobSpec::new(id, tenant, submit, vec![TaskSpec::map(10 * SEC), TaskSpec::reduce(20 * SEC)])
    }

    #[test]
    fn kind_index_roundtrip() {
        for kind in TaskKind::ALL {
            assert_eq!(TaskKind::from_index(kind.index()), kind);
        }
    }

    #[test]
    #[should_panic(expected = "invalid task kind index")]
    fn kind_from_bad_index_panics() {
        let _ = TaskKind::from_index(7);
    }

    #[test]
    fn job_accessors() {
        let j = job(1, 0, 0);
        assert_eq!(j.map_count(), 1);
        assert_eq!(j.reduce_count(), 1);
        assert_eq!(j.total_work(), 30 * SEC);
        assert_eq!(j.work_of(TaskKind::Reduce), 20 * SEC);
        assert_eq!(j.max_duration(TaskKind::Map), 10 * SEC);
        assert_eq!(j.max_duration(TaskKind::Reduce), 20 * SEC);
    }

    #[test]
    fn est_makespan_spreads_work() {
        let tasks = vec![TaskSpec::map(10 * SEC); 10];
        let j = JobSpec::new(1, 0, 0, tasks);
        // 100s of work over 10 slots + 10s straggler = 20s.
        assert_eq!(j.est_makespan(10), 20 * SEC);
        assert_eq!(j.est_makespan(1), 110 * SEC);
        // Parallelism of zero is clamped to one instead of dividing by zero.
        assert_eq!(j.est_makespan(0), 110 * SEC);
    }

    #[test]
    fn validation_catches_errors() {
        let mut t = Trace::new(vec![job(1, 0, 0), job(1, 0, 5)]);
        assert_eq!(t.validate(), Err(TraceError::DuplicateJobId(1)));

        t = Trace::new(vec![JobSpec::new(1, 0, 0, vec![])]);
        assert_eq!(t.validate(), Err(TraceError::EmptyJob(1)));

        t = Trace::new(vec![job(1, 0, 10 * SEC).with_deadline(SEC)]);
        assert_eq!(t.validate(), Err(TraceError::DeadlineBeforeSubmit(1)));

        let mut bad = job(1, 0, 0);
        bad.slowstart = 1.5;
        t = Trace::new(vec![bad]);
        assert_eq!(t.validate(), Err(TraceError::BadSlowstart(1)));

        t = Trace::new(vec![job(1, 0, 0), job(2, 1, 5)]);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn window_and_filter() {
        let t = Trace::new(vec![job(1, 0, 0), job(2, 1, HOUR), job(3, 0, 2 * HOUR)]);
        assert_eq!(t.window(0, HOUR).len(), 1);
        assert_eq!(t.window(0, HOUR + 1).len(), 2);
        assert_eq!(t.filter_tenant(0).len(), 2);
        assert_eq!(t.tenants(), vec![0, 1]);
        assert_eq!(t.submit_span(), Some((0, 2 * HOUR)));
        assert_eq!(Trace::default().submit_span(), None);
    }

    #[test]
    fn merge_reassigns_colliding_ids() {
        let mut a = Trace::new(vec![job(1, 0, 0), job(2, 0, 10)]);
        let b = Trace::new(vec![job(2, 1, 5), job(7, 1, 1)]);
        a.merge(b);
        assert_eq!(a.len(), 4);
        assert!(a.validate().is_ok());
        // Sorted by submit after merge.
        assert!(a.jobs.windows(2).all(|w| w[0].submit <= w[1].submit));
    }

    #[test]
    fn shift_moves_deadlines_too() {
        let mut t = Trace::new(vec![job(1, 0, 0).with_deadline(HOUR)]);
        t.shift(30 * SEC);
        assert_eq!(t.jobs[0].submit, 30 * SEC);
        assert_eq!(t.jobs[0].deadline, Some(HOUR + 30 * SEC));
    }

    #[test]
    fn shift_to_zero_inverts_shift() {
        let mut t = Trace::new(vec![job(1, 0, 10 * SEC).with_deadline(HOUR)]);
        let orig = t.clone();
        t.shift(5 * HOUR);
        t.shift_to_zero(5 * HOUR);
        assert_eq!(t, orig);
        // Saturation below the origin.
        t.shift_to_zero(2 * HOUR);
        assert_eq!(t.jobs[0].submit, 0);
        assert_eq!(t.jobs[0].deadline, Some(0));
    }

    #[test]
    fn tenant_stats_summarise() {
        let t = Trace::new(vec![job(1, 0, 0), job(2, 0, 5), job(3, 1, 5).with_deadline(HOUR)]);
        let s = t.tenant_stats(0);
        assert_eq!(s.jobs, 2);
        assert_eq!(s.tasks, 4);
        assert_eq!(s.with_deadline, 0);
        assert!((s.mean_maps - 1.0).abs() < 1e-12);
        assert!((s.mean_map_secs - 10.0).abs() < 1e-12);
        let s1 = t.tenant_stats(1);
        assert_eq!(s1.with_deadline, 1);
    }

    #[test]
    fn serde_roundtrip() {
        let t = Trace::new(vec![job(1, 0, 0).with_deadline(HOUR)]);
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
