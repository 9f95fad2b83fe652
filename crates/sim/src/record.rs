//! The task schedule produced by a simulation run.
//!
//! A *task schedule* — start time, end time, and resource allocation of every
//! task run on behalf of each tenant (§3.2) — is the domain over which all QS
//! metrics are defined, so this is the central exchange type between the
//! Schedule Predictor, the What-if Model, and the QS evaluators.
//!
//! # Layout
//!
//! The canonical storage is **columnar** ([`ScheduleColumns`]): parallel
//! arrays per job field, per task field, and one flat task-major attempt
//! array addressed by CSR-style spans. The QS metrics are linear scans over
//! those records, so the struct-of-arrays layout keeps every scan on
//! contiguous, branch-predictable memory — the predict→optimize loop
//! evaluates thousands of schedules per control iteration and this is its
//! read side. [`Schedule`] wraps the columns and preserves the original
//! row-oriented API as cheap views: [`JobRecord`]s materialize on the fly
//! (they are `Copy`), task rows come out as [`TaskView`]s borrowing their
//! attempt slice, and serde round-trips through the row encoding so the JSON
//! form is byte-identical to the historical `{jobs: [...], tasks: [...]}`
//! schema.

use serde::{Deserialize, Serialize};
use tempo_workload::time::Time;
use tempo_workload::{TaskKind, TenantId, NUM_KINDS};

/// Column sentinel for "no timestamp" (`None` in the row encoding). Larger
/// than any real time, so window predicates (`finish < end`) reject it
/// without a branch.
pub const NO_TIME: Time = Time::MAX;

/// Splits an optional tenant filter into a branch-free `(match-all, want)`
/// pair: `any | (column == want)` is the per-row keep mask used by every
/// column scan (here and in `tempo_qs::metrics`).
#[inline]
pub fn tenant_mask(tenant: Option<TenantId>) -> (bool, TenantId) {
    match tenant {
        None => (true, 0),
        Some(t) => (false, t),
    }
}

/// Why a task attempt ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AttemptOutcome {
    /// Ran to completion.
    Completed,
    /// Killed by the RM to free resources for a starved tenant; all work is
    /// lost and the task restarts from scratch (the mechanism of Figure 1).
    Preempted,
    /// Failed (noise injection); the task retries.
    Failed,
    /// Still occupying a container when the simulation horizon ended.
    CutOff,
}

/// One attempt of a task: the interval it occupied a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attempt {
    /// When the container was acquired.
    pub launch: Time,
    /// When useful work began. Equal to `launch` for maps; reduces launched
    /// before the map barrier idle-wait until all maps finish.
    pub work_start: Time,
    /// When the container was released.
    pub end: Time,
    pub outcome: AttemptOutcome,
}

impl Attempt {
    /// Container-occupancy time (drives raw utilization).
    #[inline]
    pub fn occupancy(&self) -> Time {
        self.end - self.launch
    }

    /// Time spent doing work that was ultimately kept. Preempted/failed
    /// attempts contribute zero: their work is redone.
    #[inline]
    pub fn useful_work(&self) -> Time {
        match self.outcome {
            AttemptOutcome::Completed => self.end.saturating_sub(self.work_start),
            _ => 0,
        }
    }
}

/// Full history of one task across restarts — the owned row form, used for
/// serde and for callers that need to detach a row from the schedule. Live
/// scans use the borrowing [`TaskView`] instead.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskRecord {
    pub job: u64,
    pub tenant: TenantId,
    pub kind: TaskKind,
    /// When the task first became runnable (entered the tenant queue).
    pub runnable_at: Time,
    /// Base duration from the trace (pre-noise).
    pub duration: Time,
    pub attempts: Vec<Attempt>,
}

impl TaskRecord {
    /// Time from becoming runnable to first acquiring a container.
    pub fn wait_time(&self) -> Option<Time> {
        self.attempts.first().map(|a| a.launch - self.runnable_at)
    }

    /// Completion time, if the task finished within the horizon.
    pub fn finish(&self) -> Option<Time> {
        self.attempts.iter().find(|a| a.outcome == AttemptOutcome::Completed).map(|a| a.end)
    }

    pub fn was_preempted(&self) -> bool {
        self.attempts.iter().any(|a| a.outcome == AttemptOutcome::Preempted)
    }

    pub fn preemption_count(&self) -> usize {
        self.attempts.iter().filter(|a| a.outcome == AttemptOutcome::Preempted).count()
    }

    /// Container time consumed by attempts whose work was thrown away.
    pub fn wasted_time(&self) -> Time {
        self.attempts
            .iter()
            .filter(|a| matches!(a.outcome, AttemptOutcome::Preempted | AttemptOutcome::Failed))
            .map(Attempt::occupancy)
            .sum()
    }
}

/// Borrowed row view of one task: the same shape as [`TaskRecord`] but with
/// the attempt history as a slice into the schedule's flat attempt column —
/// no allocation to iterate tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskView<'a> {
    pub job: u64,
    pub tenant: TenantId,
    pub kind: TaskKind,
    pub runnable_at: Time,
    pub duration: Time,
    pub attempts: &'a [Attempt],
}

impl TaskView<'_> {
    /// Time from becoming runnable to first acquiring a container.
    pub fn wait_time(&self) -> Option<Time> {
        self.attempts.first().map(|a| a.launch - self.runnable_at)
    }

    /// Completion time, if the task finished within the horizon.
    pub fn finish(&self) -> Option<Time> {
        self.attempts.iter().find(|a| a.outcome == AttemptOutcome::Completed).map(|a| a.end)
    }

    pub fn was_preempted(&self) -> bool {
        self.attempts.iter().any(|a| a.outcome == AttemptOutcome::Preempted)
    }

    pub fn preemption_count(&self) -> usize {
        self.attempts.iter().filter(|a| a.outcome == AttemptOutcome::Preempted).count()
    }

    /// Container time consumed by attempts whose work was thrown away.
    pub fn wasted_time(&self) -> Time {
        self.attempts
            .iter()
            .filter(|a| matches!(a.outcome, AttemptOutcome::Preempted | AttemptOutcome::Failed))
            .map(Attempt::occupancy)
            .sum()
    }

    /// Detaches the view into an owned [`TaskRecord`] (clones the attempts).
    pub fn to_record(&self) -> TaskRecord {
        TaskRecord {
            job: self.job,
            tenant: self.tenant,
            kind: self.kind,
            runnable_at: self.runnable_at,
            duration: self.duration,
            attempts: self.attempts.to_vec(),
        }
    }
}

/// Per-job outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRecord {
    pub id: u64,
    pub tenant: TenantId,
    pub submit: Time,
    /// Completion of the job's last task, if within the horizon.
    pub finish: Option<Time>,
    pub deadline: Option<Time>,
    pub map_count: u32,
    pub reduce_count: u32,
}

impl JobRecord {
    /// Response time (`t_f − t_s` in QS_AJR), if completed.
    pub fn response_time(&self) -> Option<Time> {
        self.finish.map(|f| f - self.submit)
    }

    /// Whether the job missed its deadline under slack `gamma`:
    /// `finish > deadline + gamma × (finish − submit)` (QS_DL, §5.1 — the
    /// slack is a fraction of the job's own duration).
    pub fn missed_deadline(&self, gamma: f64) -> Option<bool> {
        match (self.finish, self.deadline) {
            (Some(f), Some(d)) => {
                let slack = (gamma * (f - self.submit) as f64).max(0.0) as Time;
                Some(f > d.saturating_add(slack))
            }
            _ => None,
        }
    }
}

/// Struct-of-arrays task schedule: the canonical product of a simulation
/// run.
///
/// Invariants (upheld by the engine and [`Schedule::from_rows`]):
/// * all job/task columns have one entry per job/task;
/// * `task_attempt_off` has `num_tasks() + 1` entries, is non-decreasing,
///   starts at 0 and ends at `attempts.len()` — task `i`'s attempts are
///   `attempts[off[i]..off[i+1]]`, in task-major order;
/// * `att_tenant`/`att_kind` mirror the owning task's tenant/kind per
///   attempt (denormalized so pool/tenant occupancy integrals scan the flat
///   attempt columns without touching the task table);
/// * `task_preempt_count[i]` counts `Preempted` outcomes in task `i`'s span;
/// * `job_finish`/`job_deadline` use [`NO_TIME`] for `None`.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleColumns {
    /// End of the simulated horizon (all events up to here were processed).
    pub horizon: Time,
    /// Pool capacities in effect (echoed for utilization math).
    pub capacity: [u32; NUM_KINDS],
    // ---- job columns ----
    pub job_id: Vec<u64>,
    pub job_tenant: Vec<TenantId>,
    pub job_submit: Vec<Time>,
    pub job_finish: Vec<Time>,
    pub job_deadline: Vec<Time>,
    pub job_map_count: Vec<u32>,
    pub job_reduce_count: Vec<u32>,
    // ---- task columns ----
    pub task_job: Vec<u64>,
    pub task_tenant: Vec<TenantId>,
    pub task_kind: Vec<TaskKind>,
    pub task_runnable_at: Vec<Time>,
    pub task_duration: Vec<Time>,
    /// CSR offsets into the attempt columns (`num_tasks() + 1` entries).
    pub task_attempt_off: Vec<u32>,
    pub task_preempt_count: Vec<u32>,
    // ---- attempt columns (task-major) ----
    pub attempts: Vec<Attempt>,
    pub att_tenant: Vec<TenantId>,
    pub att_kind: Vec<TaskKind>,
}

impl ScheduleColumns {
    /// An empty schedule with the given horizon and capacities.
    pub fn empty(horizon: Time, capacity: [u32; NUM_KINDS]) -> Self {
        Self {
            horizon,
            capacity,
            job_id: Vec::new(),
            job_tenant: Vec::new(),
            job_submit: Vec::new(),
            job_finish: Vec::new(),
            job_deadline: Vec::new(),
            job_map_count: Vec::new(),
            job_reduce_count: Vec::new(),
            task_job: Vec::new(),
            task_tenant: Vec::new(),
            task_kind: Vec::new(),
            task_runnable_at: Vec::new(),
            task_duration: Vec::new(),
            task_attempt_off: vec![0],
            task_preempt_count: Vec::new(),
            attempts: Vec::new(),
            att_tenant: Vec::new(),
            att_kind: Vec::new(),
        }
    }

    /// Pre-sizes every column for a known shape (one allocation each on the
    /// simulate hot path).
    pub fn with_capacity(
        horizon: Time,
        capacity: [u32; NUM_KINDS],
        jobs: usize,
        tasks: usize,
        attempts: usize,
    ) -> Self {
        let mut c = Self::empty(horizon, capacity);
        c.job_id.reserve(jobs);
        c.job_tenant.reserve(jobs);
        c.job_submit.reserve(jobs);
        c.job_finish.reserve(jobs);
        c.job_deadline.reserve(jobs);
        c.job_map_count.reserve(jobs);
        c.job_reduce_count.reserve(jobs);
        c.task_job.reserve(tasks);
        c.task_tenant.reserve(tasks);
        c.task_kind.reserve(tasks);
        c.task_runnable_at.reserve(tasks);
        c.task_duration.reserve(tasks);
        c.task_attempt_off.reserve(tasks + 1);
        c.task_preempt_count.reserve(tasks);
        c.attempts.reserve(attempts);
        c.att_tenant.reserve(attempts);
        c.att_kind.reserve(attempts);
        c
    }

    /// Starts a run's schedule from `template`, a schedule of the same trace:
    /// the columns the trace fixes (job id/tenant/submit/deadline/task
    /// counts, task job/tenant/kind/duration) are copied from it, and the
    /// columns a run produces are emptied for [`Self::push_job_finish`] and
    /// [`Self::push_task_run`] to fill in row order. Allocations are kept: a
    /// schedule recycled through `reset_from` is refilled without touching
    /// the heap once its columns have grown to the workload's size.
    pub fn reset_from(
        &mut self,
        template: &ScheduleColumns,
        horizon: Time,
        capacity: [u32; NUM_KINDS],
    ) {
        self.horizon = horizon;
        self.capacity = capacity;
        self.job_id.clone_from(&template.job_id);
        self.job_tenant.clone_from(&template.job_tenant);
        self.job_submit.clone_from(&template.job_submit);
        self.job_deadline.clone_from(&template.job_deadline);
        self.job_map_count.clone_from(&template.job_map_count);
        self.job_reduce_count.clone_from(&template.job_reduce_count);
        self.task_job.clone_from(&template.task_job);
        self.task_tenant.clone_from(&template.task_tenant);
        self.task_kind.clone_from(&template.task_kind);
        self.task_duration.clone_from(&template.task_duration);
        self.job_finish.clear();
        self.task_runnable_at.clear();
        self.task_attempt_off.clear();
        self.task_attempt_off.push(0);
        self.task_preempt_count.clear();
        self.attempts.clear();
        self.att_tenant.clear();
        self.att_kind.clear();
    }

    pub fn num_jobs(&self) -> usize {
        self.job_id.len()
    }

    pub fn num_tasks(&self) -> usize {
        self.task_job.len()
    }

    pub fn num_attempts(&self) -> usize {
        self.attempts.len()
    }

    /// Appends one job row.
    pub fn push_job(&mut self, j: JobRecord) {
        self.job_id.push(j.id);
        self.job_tenant.push(j.tenant);
        self.job_submit.push(j.submit);
        self.job_finish.push(j.finish.unwrap_or(NO_TIME));
        self.job_deadline.push(j.deadline.unwrap_or(NO_TIME));
        self.job_map_count.push(j.map_count);
        self.job_reduce_count.push(j.reduce_count);
    }

    /// Appends one task row with its attempts.
    pub fn push_task(
        &mut self,
        job: u64,
        tenant: TenantId,
        kind: TaskKind,
        runnable_at: Time,
        duration: Time,
        attempts: impl IntoIterator<Item = Attempt>,
    ) {
        self.task_job.push(job);
        self.task_tenant.push(tenant);
        self.task_kind.push(kind);
        self.task_duration.push(duration);
        self.push_task_run(runnable_at, attempts);
    }

    /// Appends the finish of the next job whose trace-fixed columns are
    /// already in place ([`Self::reset_from`]).
    pub fn push_job_finish(&mut self, finish: Option<Time>) {
        self.job_finish.push(finish.unwrap_or(NO_TIME));
    }

    /// Appends what a run produced for the next task whose trace-fixed
    /// columns are already in place: when it became runnable, and its
    /// attempts.
    pub fn push_task_run(
        &mut self,
        runnable_at: Time,
        attempts: impl IntoIterator<Item = Attempt>,
    ) {
        let task = self.task_runnable_at.len();
        let (tenant, kind) = (self.task_tenant[task], self.task_kind[task]);
        self.task_runnable_at.push(runnable_at);
        let mut preempted = 0u32;
        for a in attempts {
            preempted += (a.outcome == AttemptOutcome::Preempted) as u32;
            self.attempts.push(a);
            self.att_tenant.push(tenant);
            self.att_kind.push(kind);
        }
        self.task_attempt_off.push(self.attempts.len() as u32);
        self.task_preempt_count.push(preempted);
    }

    /// Materializes job row `i`.
    #[inline]
    pub fn job(&self, i: usize) -> JobRecord {
        let opt = |t: Time| if t == NO_TIME { None } else { Some(t) };
        JobRecord {
            id: self.job_id[i],
            tenant: self.job_tenant[i],
            submit: self.job_submit[i],
            finish: opt(self.job_finish[i]),
            deadline: opt(self.job_deadline[i]),
            map_count: self.job_map_count[i],
            reduce_count: self.job_reduce_count[i],
        }
    }

    /// Borrows task row `i`.
    #[inline]
    pub fn task(&self, i: usize) -> TaskView<'_> {
        let lo = self.task_attempt_off[i] as usize;
        let hi = self.task_attempt_off[i + 1] as usize;
        TaskView {
            job: self.task_job[i],
            tenant: self.task_tenant[i],
            kind: self.task_kind[i],
            runnable_at: self.task_runnable_at[i],
            duration: self.task_duration[i],
            attempts: &self.attempts[lo..hi],
        }
    }

    /// Total container-time occupied in pool `kind` (optionally one tenant)
    /// over `[start, end)`, clipping attempts to the window. One pass over
    /// the flat attempt columns; the filter is a mask multiply, not a
    /// branch.
    pub fn occupancy_in(
        &self,
        kind: TaskKind,
        tenant: Option<TenantId>,
        start: Time,
        end: Time,
    ) -> Time {
        crate::kernel::occupancy(
            &self.attempts,
            &self.att_kind,
            &self.att_tenant,
            kind,
            tenant,
            start,
            end,
        )
    }

    /// Like [`ScheduleColumns::occupancy_in`] but counting only *useful*
    /// work — completed attempts, after their shuffle barrier (the
    /// "effective utilization" of Figure 1 that excludes region I).
    pub fn useful_work_in(
        &self,
        kind: TaskKind,
        tenant: Option<TenantId>,
        start: Time,
        end: Time,
    ) -> Time {
        crate::kernel::useful_work(
            &self.attempts,
            &self.att_kind,
            &self.att_tenant,
            kind,
            tenant,
            start,
            end,
        )
    }

    /// Debug-only structural validation of the column invariants.
    pub fn check_invariants(&self) {
        let nj = self.num_jobs();
        assert!(
            [
                self.job_tenant.len(),
                self.job_submit.len(),
                self.job_finish.len(),
                self.job_deadline.len(),
                self.job_map_count.len(),
                self.job_reduce_count.len(),
            ]
            .iter()
            .all(|&l| l == nj),
            "ragged job columns"
        );
        let nt = self.num_tasks();
        assert!(
            [
                self.task_tenant.len(),
                self.task_kind.len(),
                self.task_runnable_at.len(),
                self.task_duration.len(),
                self.task_preempt_count.len(),
            ]
            .iter()
            .all(|&l| l == nt),
            "ragged task columns"
        );
        assert_eq!(self.task_attempt_off.len(), nt + 1, "offset column arity");
        assert_eq!(self.task_attempt_off.first(), Some(&0));
        assert_eq!(
            *self.task_attempt_off.last().expect("non-empty offsets"),
            self.attempts.len() as u32
        );
        assert!(self.task_attempt_off.windows(2).all(|w| w[0] <= w[1]), "offsets not sorted");
        let na = self.num_attempts();
        assert!(self.att_tenant.len() == na && self.att_kind.len() == na, "ragged attempt columns");
        for i in 0..nt {
            let t = self.task(i);
            let lo = self.task_attempt_off[i] as usize;
            for (k, a) in t.attempts.iter().enumerate() {
                assert_eq!(self.att_tenant[lo + k], t.tenant, "denormalized tenant mismatch");
                assert_eq!(self.att_kind[lo + k], t.kind, "denormalized kind mismatch");
                assert!(a.end >= a.launch, "attempt ends before launch");
            }
            assert_eq!(t.preemption_count() as u32, self.task_preempt_count[i]);
        }
    }
}

/// Everything a simulation run produced.
///
/// A thin wrapper over [`ScheduleColumns`]; the historical row API is
/// preserved as views ([`Schedule::jobs`], [`Schedule::tasks`]) and serde
/// goes through the row encoding, so serialized output is unchanged from the
/// row-of-structs era.
#[derive(Debug, Clone, PartialEq)]
pub struct Schedule {
    pub columns: ScheduleColumns,
}

impl Schedule {
    /// End of the simulated horizon (all events up to here were processed).
    #[inline]
    pub fn horizon(&self) -> Time {
        self.columns.horizon
    }

    /// Pool capacities in effect (echoed for utilization math).
    #[inline]
    pub fn capacity(&self) -> [u32; NUM_KINDS] {
        self.columns.capacity
    }

    pub fn num_jobs(&self) -> usize {
        self.columns.num_jobs()
    }

    pub fn num_tasks(&self) -> usize {
        self.columns.num_tasks()
    }

    /// Materializes job row `i`.
    #[inline]
    pub fn job(&self, i: usize) -> JobRecord {
        self.columns.job(i)
    }

    /// Row view of every job, in simulation order.
    pub fn jobs(&self) -> impl ExactSizeIterator<Item = JobRecord> + '_ {
        (0..self.columns.num_jobs()).map(|i| self.columns.job(i))
    }

    /// Borrows task row `i`.
    #[inline]
    pub fn task(&self, i: usize) -> TaskView<'_> {
        self.columns.task(i)
    }

    /// Row view of every task, in simulation order.
    pub fn tasks(&self) -> impl ExactSizeIterator<Item = TaskView<'_>> {
        (0..self.columns.num_tasks()).map(|i| self.columns.task(i))
    }

    /// Builds a schedule from owned row records (deserialization, tests,
    /// hand-built fixtures).
    pub fn from_rows(
        horizon: Time,
        capacity: [u32; NUM_KINDS],
        jobs: Vec<JobRecord>,
        tasks: Vec<TaskRecord>,
    ) -> Self {
        let attempts = tasks.iter().map(|t| t.attempts.len()).sum();
        let mut columns =
            ScheduleColumns::with_capacity(horizon, capacity, jobs.len(), tasks.len(), attempts);
        for j in jobs {
            columns.push_job(j);
        }
        for t in tasks {
            columns.push_task(t.job, t.tenant, t.kind, t.runnable_at, t.duration, t.attempts);
        }
        Schedule { columns }
    }

    /// Detaches every task into owned [`TaskRecord`] rows (allocates; meant
    /// for serde and parity checks, not the hot path).
    pub fn to_task_records(&self) -> Vec<TaskRecord> {
        self.tasks().map(|t| t.to_record()).collect()
    }

    /// Jobs of a tenant submitted *and completed* inside `[start, end)` —
    /// the set `J_i` over which §5.1 defines the job-level QS metrics.
    pub fn completed_jobs_in(&self, tenant: TenantId, start: Time, end: Time) -> Vec<JobRecord> {
        let c = &self.columns;
        let mut out = Vec::new();
        for i in 0..c.num_jobs() {
            if c.job_tenant[i] == tenant
                && c.job_submit[i] >= start
                && c.job_submit[i] < end
                && c.job_finish[i] < end
            {
                out.push(c.job(i));
            }
        }
        out
    }

    /// All task records of a tenant.
    pub fn tenant_tasks(&self, tenant: TenantId) -> impl Iterator<Item = TaskView<'_>> {
        self.tasks().filter(move |t| t.tenant == tenant)
    }

    /// Fraction of tasks of `kind` (optionally restricted to one tenant)
    /// that were preempted at least once (Figure 7's metric). Scans the
    /// task columns — the cached per-task preemption counts make this a
    /// compare-and-count pass with no attempt traversal.
    pub fn preemption_fraction(&self, kind: TaskKind, tenant: Option<TenantId>) -> f64 {
        let c = &self.columns;
        let (total, preempted) = crate::kernel::preempt_stats(
            &c.task_kind,
            &c.task_tenant,
            &c.task_preempt_count,
            kind,
            tenant,
        );
        if total == 0 {
            0.0
        } else {
            preempted as f64 / total as f64
        }
    }

    /// Total container-time occupied in a pool over `[start, end)`,
    /// clipping attempts to the window.
    pub fn occupancy_in(
        &self,
        kind: TaskKind,
        tenant: Option<TenantId>,
        start: Time,
        end: Time,
    ) -> Time {
        self.columns.occupancy_in(kind, tenant, start, end)
    }

    /// Like [`Schedule::occupancy_in`] but counting only *useful* work
    /// (completed attempts, after their shuffle barrier) — the "effective
    /// utilization" of Figure 1 that excludes region I.
    pub fn useful_work_in(
        &self,
        kind: TaskKind,
        tenant: Option<TenantId>,
        start: Time,
        end: Time,
    ) -> Time {
        self.columns.useful_work_in(kind, tenant, start, end)
    }

    /// Raw pool utilization over `[start, end)`: occupied container-time
    /// over available container-time.
    pub fn utilization(&self, kind: TaskKind, start: Time, end: Time) -> f64 {
        let avail =
            self.columns.capacity[kind.index()] as u128 * (end.saturating_sub(start)) as u128;
        if avail == 0 {
            return 0.0;
        }
        self.occupancy_in(kind, None, start, end) as f64 / avail as f64
    }

    /// Effective pool utilization (useful work only — excludes preempted
    /// attempts' lost work and shuffle idling).
    pub fn effective_utilization(&self, kind: TaskKind, start: Time, end: Time) -> f64 {
        let avail =
            self.columns.capacity[kind.index()] as u128 * (end.saturating_sub(start)) as u128;
        if avail == 0 {
            return 0.0;
        }
        self.useful_work_in(kind, None, start, end) as f64 / avail as f64
    }
}

/// The historical row encoding, kept as the wire format: serializing a
/// columnar [`Schedule`] emits exactly what the old
/// `struct Schedule { horizon, capacity, jobs, tasks }` derive produced.
///
/// NOTE for the eventual real-serde swap: replace these manual impls with
/// `#[serde(into = "ScheduleRows", from = "ScheduleRows")]` on `Schedule`.
#[derive(Serialize, Deserialize)]
struct ScheduleRows {
    horizon: Time,
    capacity: [u32; NUM_KINDS],
    jobs: Vec<JobRecord>,
    tasks: Vec<TaskRecord>,
}

impl Serialize for Schedule {
    fn to_value(&self) -> serde::Value {
        ScheduleRows {
            horizon: self.horizon(),
            capacity: self.capacity(),
            jobs: self.jobs().collect(),
            tasks: self.to_task_records(),
        }
        .to_value()
    }
}

impl Deserialize for Schedule {
    fn from_value(value: &serde::Value) -> Result<Self, serde::Error> {
        let rows = ScheduleRows::from_value(value)?;
        Ok(Schedule::from_rows(rows.horizon, rows.capacity, rows.jobs, rows.tasks))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_workload::time::SEC;

    fn attempt(launch: Time, end: Time, outcome: AttemptOutcome) -> Attempt {
        Attempt { launch, work_start: launch, end, outcome }
    }

    #[test]
    fn attempt_accounting() {
        let ok = attempt(10, 30, AttemptOutcome::Completed);
        assert_eq!(ok.occupancy(), 20);
        assert_eq!(ok.useful_work(), 20);
        let killed = attempt(10, 30, AttemptOutcome::Preempted);
        assert_eq!(killed.useful_work(), 0);
        let idle_reduce =
            Attempt { launch: 10, work_start: 25, end: 30, outcome: AttemptOutcome::Completed };
        assert_eq!(idle_reduce.useful_work(), 5);
        assert_eq!(idle_reduce.occupancy(), 20);
    }

    #[test]
    fn task_record_accessors() {
        let t = TaskRecord {
            job: 1,
            tenant: 0,
            kind: TaskKind::Map,
            runnable_at: 5,
            duration: 15,
            attempts: vec![
                attempt(10, 20, AttemptOutcome::Preempted),
                attempt(22, 37, AttemptOutcome::Completed),
            ],
        };
        assert_eq!(t.wait_time(), Some(5));
        assert_eq!(t.finish(), Some(37));
        assert!(t.was_preempted());
        assert_eq!(t.preemption_count(), 1);
        assert_eq!(t.wasted_time(), 10);
        // The borrowing view agrees with the owned record everywhere.
        let sched = Schedule::from_rows(100, [1, 1], vec![], vec![t.clone()]);
        let v = sched.task(0);
        assert_eq!(v.wait_time(), t.wait_time());
        assert_eq!(v.finish(), t.finish());
        assert_eq!(v.preemption_count(), t.preemption_count());
        assert_eq!(v.wasted_time(), t.wasted_time());
        assert_eq!(v.to_record(), t);
    }

    #[test]
    fn deadline_slack_semantics() {
        let j = JobRecord {
            id: 1,
            tenant: 0,
            submit: 0,
            finish: Some(110 * SEC),
            deadline: Some(100 * SEC),
            map_count: 1,
            reduce_count: 0,
        };
        // No slack: 110 > 100 → missed.
        assert_eq!(j.missed_deadline(0.0), Some(true));
        // 25% slack of the 110s duration = 27.5s → 110 ≤ 127.5 → ok.
        assert_eq!(j.missed_deadline(0.25), Some(false));
        let unfinished = JobRecord { finish: None, ..j };
        assert_eq!(unfinished.missed_deadline(0.0), None);
        let no_deadline = JobRecord { deadline: None, ..j };
        assert_eq!(no_deadline.missed_deadline(0.0), None);
    }

    fn job(id: u64, tenant: TenantId, submit: Time, finish: Option<Time>) -> JobRecord {
        JobRecord { id, tenant, submit, finish, deadline: None, map_count: 1, reduce_count: 0 }
    }

    #[test]
    fn window_filtering() {
        let sched = Schedule::from_rows(
            100,
            [10, 10],
            vec![
                job(1, 0, 10, Some(50)),
                job(2, 0, 20, None),
                job(3, 1, 10, Some(40)),
                job(4, 0, 90, Some(99)),
            ],
            vec![],
        );
        let in_window = sched.completed_jobs_in(0, 0, 60);
        assert_eq!(in_window.iter().map(|j| j.id).collect::<Vec<_>>(), vec![1]);
        assert_eq!(sched.completed_jobs_in(0, 0, 100).len(), 2);
    }

    #[test]
    fn utilization_math() {
        let sched = Schedule::from_rows(
            100,
            [2, 1],
            vec![],
            vec![
                TaskRecord {
                    job: 1,
                    tenant: 0,
                    kind: TaskKind::Map,
                    runnable_at: 0,
                    duration: 50,
                    attempts: vec![attempt(0, 50, AttemptOutcome::Completed)],
                },
                TaskRecord {
                    job: 1,
                    tenant: 1,
                    kind: TaskKind::Map,
                    runnable_at: 0,
                    duration: 50,
                    attempts: vec![
                        attempt(0, 25, AttemptOutcome::Preempted),
                        attempt(25, 75, AttemptOutcome::Completed),
                    ],
                },
            ],
        );
        sched.columns.check_invariants();
        // Occupancy over [0,100): 50 + 25 + 50 = 125 of 200 available.
        assert!((sched.utilization(TaskKind::Map, 0, 100) - 0.625).abs() < 1e-9);
        // Useful: 50 + 50 = 100 → 0.5 — the preempted attempt is region I.
        assert!((sched.effective_utilization(TaskKind::Map, 0, 100) - 0.5).abs() < 1e-9);
        // Clipping: window [0,30) sees 30 + 25 + 5 = 60 of 60 → 1.0.
        assert!((sched.utilization(TaskKind::Map, 0, 30) - 1.0).abs() < 1e-9);
        // Per-tenant occupancy.
        assert_eq!(sched.occupancy_in(TaskKind::Map, Some(1), 0, 100), 75);
        // Preemption fraction: one of two map tasks.
        assert!((sched.preemption_fraction(TaskKind::Map, None) - 0.5).abs() < 1e-9);
        assert_eq!(sched.preemption_fraction(TaskKind::Reduce, None), 0.0);
    }

    #[test]
    fn rows_round_trip_through_columns() {
        let jobs = vec![job(1, 0, 10, Some(50)), job(2, 1, 20, None)];
        let tasks = vec![
            TaskRecord {
                job: 1,
                tenant: 0,
                kind: TaskKind::Map,
                runnable_at: 10,
                duration: 40,
                attempts: vec![attempt(10, 50, AttemptOutcome::Completed)],
            },
            TaskRecord {
                job: 2,
                tenant: 1,
                kind: TaskKind::Reduce,
                runnable_at: 20,
                duration: 30,
                attempts: vec![],
            },
        ];
        let sched = Schedule::from_rows(77, [3, 2], jobs.clone(), tasks.clone());
        sched.columns.check_invariants();
        assert_eq!(sched.jobs().collect::<Vec<_>>(), jobs);
        assert_eq!(sched.to_task_records(), tasks);
        assert_eq!(sched.horizon(), 77);
        assert_eq!(sched.capacity(), [3, 2]);
    }

    #[test]
    fn serde_matches_row_struct_encoding() {
        // The columnar Schedule must serialize byte-identically to the old
        // row-of-structs derive, and deserialize back losslessly.
        #[derive(Serialize)]
        struct LegacySchedule {
            horizon: Time,
            capacity: [u32; NUM_KINDS],
            jobs: Vec<JobRecord>,
            tasks: Vec<TaskRecord>,
        }
        let tasks = vec![TaskRecord {
            job: 9,
            tenant: 1,
            kind: TaskKind::Reduce,
            runnable_at: 4,
            duration: 6,
            attempts: vec![
                attempt(5, 8, AttemptOutcome::Failed),
                attempt(9, 15, AttemptOutcome::Completed),
            ],
        }];
        let jobs = vec![JobRecord {
            id: 9,
            tenant: 1,
            submit: 4,
            finish: Some(15),
            deadline: Some(20),
            map_count: 0,
            reduce_count: 1,
        }];
        let sched = Schedule::from_rows(30, [2, 2], jobs.clone(), tasks.clone());
        let legacy = LegacySchedule { horizon: 30, capacity: [2, 2], jobs, tasks };
        let json = serde_json::to_string(&sched).unwrap();
        assert_eq!(json, serde_json::to_string(&legacy).unwrap());
        let back: Schedule = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sched);
    }
}
