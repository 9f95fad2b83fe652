//! The discrete-event cluster simulator / fast Schedule Predictor.
//!
//! §7.2: "Our implementation computes the cluster resource usage at only the
//! submission time, tentative finish time, and possible preemption time of
//! each task" — the time-warp style of simulation. This engine is exactly
//! that: state is only touched at job arrivals, task finishes/failures, and
//! preemption-timeout checks; between events nothing happens. One engine
//! serves both roles in the paper's architecture:
//!
//! * with [`NoiseModel::NONE`] it is the deterministic **Schedule Predictor**
//!   the What-if Model queries;
//! * with production noise it stands in for the **observed** cluster, which
//!   is how the Table 2 prediction-error experiment gets its ground truth.
//!
//! Scheduling semantics implemented (matching §3.2):
//! * allocation targets computed by a pluggable [`SchedulerBackend`]
//!   (selected by [`RmConfig::policy`]) — the default [`FairShare`] backend
//!   is weighted max-min fair sharing per pool with min/max limits, and
//!   DRF / Capacity / FIFO backends swap in without touching the engine,
//! * work-conserving redistribution of unused quota,
//! * two-level preemption timeouts (below-fair-share and below-min-share)
//!   whose victims the backend selects (default: the *most recently
//!   launched* tasks of over-share tenants); killed tasks restart from
//!   scratch (lost work, Figure 1),
//! * map→reduce slow-start: reduces become runnable after a configurable
//!   fraction of maps complete, but only begin useful work once all maps
//!   finish — early-launched reduces idle in their containers.
//!
//! # Prepare once, run many times
//!
//! A control-loop decision simulates one workload window under a dozen or
//! more candidate configurations. Everything about a run that depends only
//! on the trace is therefore compiled once into a [`PreparedWindow`] —
//! validation, flattened task columns, per-job reduce ranges and slow-start
//! thresholds, the submit-ordered arrival list — and every run borrows it.
//! What varies per run (configuration, noise, seed, horizon) is checked per
//! run. All mutable run state lives in a [`SimPool`] and the result is
//! written into a caller-provided [`Schedule`], so a run over a prepared
//! window with a warm pool and a recycled output does not touch the heap.
//! [`simulate`] is the same path with the preparation inlined: prepare, run
//! once, return the schedule.
//!
//! [`SchedulerBackend`]: tempo_sched::SchedulerBackend
//! [`FairShare`]: tempo_sched::FairShare

use crate::config::{ClusterSpec, RmConfig};
use crate::noise::NoiseModel;
use crate::queue::EventQueue;
use crate::record::{Attempt, AttemptOutcome, JobRecord, Schedule, ScheduleColumns};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use tempo_sched::{SchedPolicy, SchedulerBackend, TenantDemand, VictimCandidate, NUM_RESOURCES};
use tempo_workload::time::Time;
use tempo_workload::trace::TraceError;
use tempo_workload::{TaskKind, TenantId, Trace, NUM_KINDS};

// The backends allocate over exactly the engine's container pools.
const _: () = assert!(NUM_RESOURCES == NUM_KINDS);

/// Simulation options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Hard stop; running tasks are recorded as cut off. `None` runs until
    /// every job completes.
    pub horizon: Option<Time>,
    pub noise: NoiseModel,
    /// RNG seed for the noise stream (ignored when noise is
    /// [`NoiseModel::NONE`], which consumes no randomness).
    pub seed: u64,
}

impl Default for SimOptions {
    fn default() -> Self {
        Self { horizon: None, noise: NoiseModel::NONE, seed: 0 }
    }
}

impl SimOptions {
    /// The Schedule Predictor setting: no noise, run to completion.
    pub fn deterministic() -> Self {
        Self::default()
    }

    /// A production-like noisy run.
    pub fn noisy(seed: u64) -> Self {
        Self { horizon: None, noise: NoiseModel::production(), seed }
    }

    pub fn with_horizon(mut self, horizon: Time) -> Self {
        self.horizon = Some(horizon);
        self
    }
}

thread_local! {
    /// Run state shared by every simulation on this thread.
    static POOL: RefCell<SimPool> = RefCell::new(SimPool::new());
    /// The schedule [`PreparedWindow::simulate_with`] recycles; `None`
    /// before the first call and while a caller's closure is reading it.
    static OUTPUT: Cell<Option<Schedule>> = const { Cell::new(None) };
}

fn empty_schedule() -> Schedule {
    Schedule { columns: ScheduleColumns::empty(0, [0; NUM_KINDS]) }
}

/// Simulates `trace` on `cluster` under `config`: prepares the trace and
/// runs it once on this thread's [`SimPool`].
///
/// Deterministic: identical inputs (including seed) produce identical
/// schedules. Panics if the trace or config fails validation, or if the trace
/// references a tenant id with no configuration entry.
///
/// Callers that simulate one trace many times prepare it themselves
/// ([`PreparedWindow::new`]) and pay for validation and flattening once.
pub fn simulate(
    trace: &Trace,
    cluster: &ClusterSpec,
    config: &RmConfig,
    opts: &SimOptions,
) -> Schedule {
    PreparedWindow::new(trace).expect("invalid trace").simulate(cluster, config, opts)
}

/// [`simulate`] with an explicit scratch pool instead of the thread's own.
pub fn simulate_pooled(
    trace: &Trace,
    cluster: &ClusterSpec,
    config: &RmConfig,
    opts: &SimOptions,
    pool: &mut SimPool,
) -> Schedule {
    let mut out = empty_schedule();
    PreparedWindow::new(trace)
        .expect("invalid trace")
        .simulate_into(cluster, config, opts, pool, &mut out);
    out
}

type TaskId = u32;
type JobIdx = u32;

/// What the run loop needs to know about one job, fixed by the trace.
#[derive(Debug, Clone, Copy)]
struct PreparedJob {
    first_task: TaskId,
    num_tasks: u32,
    /// The job's reduces are `reduce_ids[reduce_lo..reduce_hi]`, in task
    /// order; the same range is its segment of [`SimPool::waiting`].
    reduce_lo: u32,
    reduce_hi: u32,
    /// Maps that must complete before the reduces become runnable:
    /// `ceil(slowstart × map_count)`.
    release_after: u32,
}

/// A workload window compiled for repeated simulation: the validated trace,
/// flattened into the columns the run loop indexes.
///
/// Built once per window ([`PreparedWindow::new`] runs [`Trace::validate`]),
/// then borrowed by any number of runs; it is immutable and owns no
/// per-run state, so runs on different threads may share it.
#[derive(Debug, Clone)]
pub struct PreparedWindow {
    /// The schedule of a run in which nothing has happened yet: every
    /// column the trace fixes — which is also where the run loop reads task
    /// kinds, tenants and durations — no finish, no attempt. Each run's
    /// output starts as a copy of it.
    template: ScheduleColumns,
    jobs: Vec<PreparedJob>,
    /// Index of each task's job.
    task_job: Vec<JobIdx>,
    /// Ids of every reduce task, grouped by job in task order.
    reduce_ids: Vec<TaskId>,
    /// Job indices ordered by `(submit, index)` — the order a queue would
    /// pop arrivals pushed in trace order. The run loop walks this list
    /// instead of queueing one event per job.
    arrivals: Vec<JobIdx>,
    /// Largest tenant id the trace references (checked per run against the
    /// configuration's tenant count).
    max_tenant: Option<TenantId>,
}

impl PreparedWindow {
    /// Validates and flattens `trace`.
    pub fn new(trace: &Trace) -> Result<Self, TraceError> {
        trace.validate()?;
        let num_tasks = trace.num_tasks();
        let mut w = PreparedWindow {
            template: ScheduleColumns::with_capacity(0, [0; NUM_KINDS], trace.len(), num_tasks, 0),
            jobs: Vec::with_capacity(trace.len()),
            task_job: Vec::with_capacity(num_tasks),
            reduce_ids: Vec::new(),
            arrivals: (0..trace.len() as JobIdx).collect(),
            max_tenant: trace.jobs.iter().map(|j| j.tenant).max(),
        };
        for (jix, spec) in trace.jobs.iter().enumerate() {
            let first_task = w.task_job.len() as TaskId;
            let reduce_lo = w.reduce_ids.len() as u32;
            for t in &spec.tasks {
                if t.kind == TaskKind::Reduce {
                    w.reduce_ids.push(w.task_job.len() as TaskId);
                }
                w.task_job.push(jix as JobIdx);
                w.template.push_task(spec.id, spec.tenant, t.kind, 0, t.duration, []);
            }
            let reduce_count = w.reduce_ids.len() as u32 - reduce_lo;
            let map_count = spec.tasks.len() as u32 - reduce_count;
            w.jobs.push(PreparedJob {
                first_task,
                num_tasks: spec.tasks.len() as u32,
                reduce_lo,
                reduce_hi: reduce_lo + reduce_count,
                release_after: (spec.slowstart * map_count as f64).ceil() as u32,
            });
            w.template.push_job(JobRecord {
                id: spec.id,
                tenant: spec.tenant,
                submit: spec.submit,
                finish: None,
                deadline: spec.deadline,
                map_count,
                reduce_count,
            });
        }
        // Stable: jobs submitted at the same instant arrive in trace order.
        w.arrivals.sort_by_key(|&j| w.template.job_submit[j as usize]);
        Ok(w)
    }

    pub fn num_jobs(&self) -> usize {
        self.jobs.len()
    }

    pub fn num_tasks(&self) -> usize {
        self.task_job.len()
    }

    /// Simulates the window on `cluster` under `config` into `out`, with
    /// all run state in `pool` — the engine's one entry point; every other
    /// `simulate*` function is a wrapper around it. `out` is overwritten;
    /// neither its previous contents nor the pool's affect the result.
    ///
    /// Panics if `config` fails validation or has no entry for a tenant the
    /// window references.
    pub fn simulate_into(
        &self,
        cluster: &ClusterSpec,
        config: &RmConfig,
        opts: &SimOptions,
        pool: &mut SimPool,
        out: &mut Schedule,
    ) {
        config.validate().expect("invalid RM config");
        if let Some(max_tenant) = self.max_tenant {
            assert!(
                (max_tenant as usize) < config.num_tenants(),
                "trace references tenant {max_tenant} but config has {} tenants",
                config.num_tenants()
            );
        }
        Engine::new(self, cluster, config, opts, pool).run(out);
    }

    /// Simulates the window on this thread's pool and returns the schedule.
    pub fn simulate(
        &self,
        cluster: &ClusterSpec,
        config: &RmConfig,
        opts: &SimOptions,
    ) -> Schedule {
        let mut out = empty_schedule();
        POOL.with(|pool| {
            self.simulate_into(cluster, config, opts, &mut pool.borrow_mut(), &mut out)
        });
        out
    }

    /// Simulates the window on this thread's pool into this thread's
    /// recycled schedule and hands `read` a borrow of it: the form for
    /// callers that reduce a schedule to a few numbers and drop it (the
    /// What-if Model's QS evaluation). `read` may itself simulate.
    pub fn simulate_with<R>(
        &self,
        cluster: &ClusterSpec,
        config: &RmConfig,
        opts: &SimOptions,
        read: impl FnOnce(&Schedule) -> R,
    ) -> R {
        let mut out = OUTPUT.take().unwrap_or_else(empty_schedule);
        POOL.with(|pool| {
            self.simulate_into(cluster, config, opts, &mut pool.borrow_mut(), &mut out)
        });
        let result = read(&out);
        OUTPUT.set(Some(out));
        result
    }
}

const NO_SLOT: u32 = u32::MAX;
/// Null link in the pooled attempt arena's per-task chains.
const NO_ATT: u32 = u32::MAX;

/// Which starvation level a preemption check guards (§3.2's two timeout
/// levels).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    Fair = 0,
    Min = 1,
}

/// A queued event. Job arrivals are not events: the run loop takes them
/// from [`PreparedWindow::arrivals`].
#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Tentative finish (or mid-run failure) of a task attempt; `epoch`
    /// invalidates events left over from preempted attempts.
    TaskFinish {
        task: TaskId,
        epoch: u32,
    },
    PreemptCheck {
        tenant: u16,
        pool: u8,
        level: Level,
        since: Time,
    },
}

/// Per-run state of one task; what the trace fixes (kind, job, tenant,
/// duration) is read from the [`PreparedWindow`].
#[derive(Clone, Copy)]
struct TaskState {
    runnable_at: Time,
    /// Head/tail of this task's attempt chain in the pool's attempt arena
    /// ([`NO_ATT`] while empty). Attempts live in one pooled slab instead of
    /// a per-task `Vec`, so restart-heavy runs allocate nothing per task.
    first_att: u32,
    last_att: u32,
    // Current attempt (valid while `running`).
    running: bool,
    launch: Time,
    launch_seq: u64,
    work_start: Option<Time>,
    eff_duration: Time,
    fail_frac: Option<f64>,
    epoch: u32,
    /// Position in the owner tenant's `running` vector (NO_SLOT if idle).
    run_slot: u32,
}

impl TaskState {
    const IDLE: TaskState = TaskState {
        runnable_at: 0,
        first_att: NO_ATT,
        last_att: NO_ATT,
        running: false,
        launch: 0,
        launch_seq: 0,
        work_start: None,
        eff_duration: 0,
        fail_frac: None,
        epoch: 0,
        run_slot: NO_SLOT,
    };
}

#[derive(Clone, Copy)]
struct JobState {
    maps_done: u32,
    tasks_remaining: u32,
    maps_done_at: Option<Time>,
    reduces_released: bool,
    finish: Option<Time>,
    /// Launched reduces idling for the map barrier: the first `waiting`
    /// entries of the job's segment of [`SimPool::waiting`].
    waiting: u32,
}

struct TenantState {
    queues: [VecDeque<TaskId>; NUM_KINDS],
    running: [Vec<TaskId>; NUM_KINDS],
    /// `starved_since[level][pool]`.
    starved_since: [[Option<Time>; NUM_KINDS]; 2],
}

impl TenantState {
    fn new() -> Self {
        Self {
            queues: [VecDeque::new(), VecDeque::new()],
            running: [Vec::new(), Vec::new()],
            starved_since: [[None; NUM_KINDS]; 2],
        }
    }

    /// Clears per-run state while keeping the queue/running allocations.
    fn reset(&mut self) {
        for q in &mut self.queues {
            q.clear();
        }
        for r in &mut self.running {
            r.clear();
        }
        self.starved_since = [[None; NUM_KINDS]; 2];
    }
}

/// Reusable run state for the simulator.
///
/// One run of the engine needs an event queue, per-task/per-job/per-tenant
/// state vectors, an attempt arena, allocation scratch buffers and a
/// scheduler backend. On the predict→optimize hot path the What-if Model
/// runs thousands of simulations back to back, so a `SimPool` owns all of it
/// and every run reuses it; every buffer is fully reset per run, so pooling
/// never changes results.
#[derive(Default)]
pub struct SimPool {
    /// Pending task finishes and preemption checks, popped in
    /// `(time, insertion-seq)` order.
    events: EventQueue<EventKind>,
    tasks: Vec<TaskState>,
    jobs: Vec<JobState>,
    /// Barrier-waiting reduces, one segment per job (see
    /// [`PreparedJob::reduce_lo`]).
    waiting: Vec<TaskId>,
    /// Slab of task attempts, chained per task through `att_next`
    /// (task-order is restored at finalize when the chains are flattened
    /// into the schedule's columnar attempt spans).
    att_arena: Vec<Attempt>,
    att_next: Vec<u32>,
    tenants: Vec<TenantState>,
    /// Allocation targets per tenant per pool, refreshed by
    /// `compute_targets`.
    targets: Vec<[u32; NUM_KINDS]>,
    /// Demand vectors, kept current per pool by `compute_targets`.
    demands: Vec<TenantDemand>,
    pool_targets: Vec<u32>,
    victims: Vec<VictimCandidate>,
    victim_tasks: Vec<TaskId>,
    /// One allocator per policy, built on first use. Backends carry only
    /// scratch between calls, so reusing one across runs is invisible.
    backends: [Option<Box<dyn SchedulerBackend + Send>>; SchedPolicy::ALL.len()],
}

impl SimPool {
    pub fn new() -> Self {
        Self::default()
    }

    /// Resets all buffers for a fresh run over `window` under `config`.
    fn reset(&mut self, window: &PreparedWindow, config: &RmConfig) {
        self.events.clear();
        self.att_arena.clear();
        self.att_next.clear();
        self.targets.clear();
        self.demands.clear();
        self.pool_targets.clear();
        self.victims.clear();
        self.victim_tasks.clear();

        self.tasks.clear();
        self.tasks.resize(window.num_tasks(), TaskState::IDLE);
        self.jobs.clear();
        self.jobs.extend(window.jobs.iter().map(|j| JobState {
            maps_done: 0,
            tasks_remaining: j.num_tasks,
            maps_done_at: None,
            reduces_released: false,
            finish: None,
            waiting: 0,
        }));
        self.waiting.clear();
        self.waiting.resize(window.reduce_ids.len(), 0);

        let num_tenants = config.num_tenants().max(1);
        self.tenants.truncate(num_tenants);
        for t in &mut self.tenants {
            t.reset();
        }
        while self.tenants.len() < num_tenants {
            self.tenants.push(TenantState::new());
        }
    }
}

struct Engine<'a> {
    window: &'a PreparedWindow,
    cluster: &'a ClusterSpec,
    config: &'a RmConfig,
    noise: NoiseModel,
    horizon: Option<Time>,
    rng: StdRng,
    now: Time,
    launch_counter: u64,
    free: [u32; NUM_KINDS],
    /// Position in `window.arrivals` of the next job to arrive.
    next_arrival: usize,
    /// The allocation policy ([`RmConfig::policy`]), on loan from the pool
    /// for the duration of the run.
    backend: Box<dyn SchedulerBackend + Send>,
    /// Pools whose demand inputs (queue/running contents) may have changed
    /// since the last `compute_targets` — only these need re-allocation.
    stale_targets: [bool; NUM_KINDS],
    /// Pools mutated since their last launch/starvation pass. A pool with a
    /// clear flag was left at a launch fixpoint with its starvation timers
    /// current, so `reschedule` can skip it entirely: re-running the passes
    /// on untouched state provably makes no decision.
    needs_pass: [bool; NUM_KINDS],
    /// All growable per-run state, borrowed from the caller's pool.
    pool: &'a mut SimPool,
}

impl<'a> Engine<'a> {
    fn new(
        window: &'a PreparedWindow,
        cluster: &'a ClusterSpec,
        config: &'a RmConfig,
        opts: &SimOptions,
        pool: &'a mut SimPool,
    ) -> Self {
        pool.reset(window, config);
        let backend =
            pool.backends[config.policy as usize].take().unwrap_or_else(|| config.policy.backend());
        Engine {
            window,
            cluster,
            config,
            noise: opts.noise,
            horizon: opts.horizon,
            rng: StdRng::seed_from_u64(opts.seed),
            now: 0,
            launch_counter: 0,
            free: [cluster.capacity(TaskKind::Map), cluster.capacity(TaskKind::Reduce)],
            next_arrival: 0,
            backend,
            stale_targets: [true; NUM_KINDS],
            needs_pass: [true; NUM_KINDS],
            pool,
        }
    }

    /// Records that `pool`'s queue/running state changed: its targets are
    /// stale and it needs a launch/starvation pass at the next reschedule.
    #[inline]
    fn touch(&mut self, pool: usize) {
        self.stale_targets[pool] = true;
        self.needs_pass[pool] = true;
    }

    /// Submit time of the next job to arrive, if any is left.
    #[inline]
    fn next_arrival_time(&self) -> Option<Time> {
        let jix = *self.window.arrivals.get(self.next_arrival)?;
        Some(self.window.template.job_submit[jix as usize])
    }

    fn run(mut self, out: &mut Schedule) {
        let hard_horizon = self.horizon.unwrap_or(Time::MAX);
        // Tally events locally and flush once after the loop: one atomic add
        // per run instead of per event, and never a clock read — this path
        // must stay deterministic.
        let mut handled: u64 = 0;
        loop {
            let time = match (self.next_arrival_time(), self.pool.events.next_time()) {
                (Some(a), Some(e)) => a.min(e),
                (Some(t), None) | (None, Some(t)) => t,
                (None, None) => break,
            };
            if time > hard_horizon {
                break;
            }
            self.now = time;
            self.pool.events.advance_to(time);
            // Handle everything at this instant before rescheduling, so a
            // burst of arrivals is allocated against in one pass. Arrivals
            // go first: pushed ahead of every other event, they would hold
            // the lowest sequence numbers of their instant.
            while self.next_arrival_time() == Some(time) {
                let jix = self.window.arrivals[self.next_arrival];
                self.next_arrival += 1;
                handled += 1;
                self.on_job_arrive(jix);
            }
            while let Some(kind) = self.pool.events.pop_at(time) {
                handled += 1;
                match kind {
                    EventKind::TaskFinish { task, epoch } => self.on_task_finish(task, epoch),
                    EventKind::PreemptCheck { tenant, pool, level, since } => {
                        self.on_preempt_check(tenant, pool as usize, level, since)
                    }
                }
            }
            self.reschedule();
        }
        tempo_obs::counter!("tempo_sim_runs_total", "Discrete-event simulations completed").inc();
        tempo_obs::counter!(
            "tempo_sim_events_total",
            "Events (job arrivals, task finishes, preemption checks) handled across all simulation runs"
        )
        .add(handled);
        // `now` is the time of the last event handled.
        let horizon = self.horizon.unwrap_or(self.now);
        self.finalize(horizon, out);
    }

    fn on_job_arrive(&mut self, jix: JobIdx) {
        if !self.noise.is_none() && self.noise.job_killed(&mut self.rng) {
            // Killed at submission: the job never runs; finish stays None and
            // its tasks never become runnable.
            self.pool.jobs[jix as usize].tasks_remaining = 0;
            return;
        }
        let fixed = &self.window.template;
        let job = self.window.jobs[jix as usize];
        let tenant = fixed.job_tenant[jix as usize] as usize;
        // Maps are runnable at once; the reduces stay held (implicitly: they
        // are the job's `reduce_ids` range) until the slow-start threshold.
        for tid in job.first_task..job.first_task + job.num_tasks {
            if fixed.task_kind[tid as usize] == TaskKind::Map {
                self.pool.tasks[tid as usize].runnable_at = self.now;
                self.pool.tenants[tenant].queues[TaskKind::Map.index()].push_back(tid);
                self.touch(TaskKind::Map.index());
            }
        }
        if fixed.job_map_count[jix as usize] == 0 {
            self.pool.jobs[jix as usize].maps_done_at = Some(self.now);
        }
        self.maybe_release_reduces(jix);
    }

    /// Moves the job's reduces into the runnable queue once the slow-start
    /// threshold `ceil(slowstart × maps_total)` is met.
    fn maybe_release_reduces(&mut self, jix: JobIdx) {
        let window = self.window;
        let shape = window.jobs[jix as usize];
        let job = &mut self.pool.jobs[jix as usize];
        if job.reduces_released || job.maps_done < shape.release_after {
            return;
        }
        job.reduces_released = true;
        let tenant = window.template.job_tenant[jix as usize] as usize;
        for &tid in &window.reduce_ids[shape.reduce_lo as usize..shape.reduce_hi as usize] {
            self.pool.tasks[tid as usize].runnable_at = self.now;
            self.pool.tenants[tenant].queues[TaskKind::Reduce.index()].push_back(tid);
            self.touch(TaskKind::Reduce.index());
        }
    }

    fn on_task_finish(&mut self, tid: TaskId, epoch: u32) {
        let task = &self.pool.tasks[tid as usize];
        if !task.running || task.epoch != epoch {
            return; // Stale event from a preempted attempt.
        }
        let failed = task.fail_frac.is_some();
        let outcome = if failed { AttemptOutcome::Failed } else { AttemptOutcome::Completed };
        self.release_container(tid, outcome);
        let window = self.window;
        let tenant = window.template.task_tenant[tid as usize] as usize;
        let kind = window.template.task_kind[tid as usize];
        let jix = window.task_job[tid as usize];
        if failed {
            // Retry from scratch at the back of the queue.
            self.pool.tenants[tenant].queues[kind.index()].push_back(tid);
            return;
        }
        let mut maps_all_done = false;
        let mut job_done = false;
        {
            let job = &mut self.pool.jobs[jix as usize];
            job.tasks_remaining -= 1;
            if kind == TaskKind::Map {
                job.maps_done += 1;
                if job.maps_done == window.template.job_map_count[jix as usize] {
                    job.maps_done_at = Some(self.now);
                    maps_all_done = true;
                }
            }
            if job.tasks_remaining == 0 && job.finish.is_none() {
                job.finish = Some(self.now);
                job_done = true;
            }
        }
        if maps_all_done {
            // Early-launched reduces begin their real work now.
            let lo = window.jobs[jix as usize].reduce_lo as usize;
            let waiting = std::mem::take(&mut self.pool.jobs[jix as usize].waiting) as usize;
            for i in lo..lo + waiting {
                let rid = self.pool.waiting[i];
                self.begin_reduce_work(rid);
            }
        }
        if kind == TaskKind::Map && !job_done {
            self.maybe_release_reduces(jix);
        }
    }

    /// Records the end of the current attempt (appending it to the pooled
    /// attempt arena, chained onto the task) and frees its container.
    fn release_container(&mut self, tid: TaskId, outcome: AttemptOutcome) {
        let now = self.now;
        let pool = self.window.template.task_kind[tid as usize].index();
        let tenant = self.window.template.task_tenant[tid as usize] as usize;
        let p = &mut *self.pool;
        let slot = {
            let task = &mut p.tasks[tid as usize];
            debug_assert!(task.running);
            let att_ix = p.att_arena.len() as u32;
            p.att_arena.push(Attempt {
                launch: task.launch,
                work_start: task.work_start.unwrap_or(now.max(task.launch)),
                end: now,
                outcome,
            });
            p.att_next.push(NO_ATT);
            if task.last_att == NO_ATT {
                task.first_att = att_ix;
            } else {
                p.att_next[task.last_att as usize] = att_ix;
            }
            task.last_att = att_ix;
            task.running = false;
            task.fail_frac = None;
            task.work_start = None;
            let slot = task.run_slot as usize;
            task.run_slot = NO_SLOT;
            slot
        };
        let running = &mut p.tenants[tenant].running[pool];
        debug_assert_eq!(running[slot], tid);
        running.swap_remove(slot);
        let moved = running.get(slot).copied();
        if let Some(moved) = moved {
            p.tasks[moved as usize].run_slot = slot as u32;
        }
        self.free[pool] += 1;
        self.touch(pool);
    }

    /// Starts the clock on a reduce that was idling for the map barrier.
    fn begin_reduce_work(&mut self, tid: TaskId) {
        let (finish_at, epoch) = {
            let task = &mut self.pool.tasks[tid as usize];
            if !task.running {
                return; // Preempted while waiting.
            }
            task.work_start = Some(self.now);
            let finish_at = match task.fail_frac {
                Some(frac) => self.now + ((task.eff_duration as f64 * frac).round() as Time).max(1),
                None => self.now + task.eff_duration,
            };
            (finish_at, task.epoch)
        };
        self.pool.events.push(finish_at, EventKind::TaskFinish { task: tid, epoch });
    }

    fn launch(&mut self, tid: TaskId) {
        let window = self.window;
        let duration = window.template.task_duration[tid as usize];
        let kind = window.template.task_kind[tid as usize];
        let jix = window.task_job[tid as usize];
        let tenant = window.template.task_tenant[tid as usize] as usize;
        let eff = if self.noise.is_none() {
            duration
        } else {
            self.noise.jitter_duration(&mut self.rng, duration)
        };
        let fail =
            if self.noise.is_none() { None } else { self.noise.attempt_failure(&mut self.rng) };
        let maps_done = self.pool.jobs[jix as usize].maps_done_at;
        let pool = kind.index();

        let epoch = {
            let task = &mut self.pool.tasks[tid as usize];
            task.running = true;
            task.launch = self.now;
            task.launch_seq = self.launch_counter;
            task.epoch = task.epoch.wrapping_add(1);
            task.eff_duration = eff;
            task.fail_frac = fail;
            task.epoch
        };
        self.launch_counter += 1;
        self.free[pool] -= 1;
        self.touch(pool);
        let slot = {
            let running = &mut self.pool.tenants[tenant].running[pool];
            running.push(tid);
            (running.len() - 1) as u32
        };
        self.pool.tasks[tid as usize].run_slot = slot;

        let work_begins = match kind {
            TaskKind::Map => Some(self.now),
            TaskKind::Reduce => maps_done.map(|m| m.max(self.now)),
        };
        match work_begins {
            Some(start) => {
                let finish_at = {
                    let task = &mut self.pool.tasks[tid as usize];
                    task.work_start = Some(start);
                    match task.fail_frac {
                        Some(frac) => {
                            start + ((task.eff_duration as f64 * frac).round() as Time).max(1)
                        }
                        None => start + task.eff_duration,
                    }
                };
                self.pool.events.push(finish_at, EventKind::TaskFinish { task: tid, epoch });
            }
            None => {
                // Reduce launched before the barrier: idles until maps_done.
                let lo = window.jobs[jix as usize].reduce_lo;
                let job = &mut self.pool.jobs[jix as usize];
                self.pool.waiting[(lo + job.waiting) as usize] = tid;
                job.waiting += 1;
            }
        }
    }

    /// Refreshes the per-tenant allocation targets from the current demand
    /// vectors — but only for pools whose demand inputs changed since the
    /// last refresh (`stale_targets`). Backends that allocate pools
    /// independently recompute just the touched pool's column; coupled
    /// backends (DRF) fall back to a whole-vector allocation whenever any
    /// pool is stale. Targets for untouched pools are unchanged by
    /// construction, so skipping them is behaviour-identical.
    fn compute_targets(&mut self) {
        let first = self.pool.targets.len() != self.pool.tenants.len();
        let stale = if first { [true; NUM_KINDS] } else { self.stale_targets };
        if !(stale[0] || stale[1]) {
            return;
        }
        self.stale_targets = [false; NUM_KINDS];
        if first {
            // The configuration's half of every demand vector holds for the
            // whole run.
            self.pool.demands.extend(self.config.tenants.iter().map(|cfg| TenantDemand {
                weight: cfg.weight,
                demand: [0; NUM_KINDS],
                min_share: cfg.min_share,
                max_share: cfg.max_share,
                stamp: [u64::MAX; NUM_KINDS],
            }));
        }
        // A pool that is not stale has the queue and running contents its
        // demand entries were computed from: only stale pools are re-read.
        for (tstate, d) in self.pool.tenants.iter().zip(&mut self.pool.demands) {
            for pool in (0..NUM_KINDS).filter(|&pool| stale[pool]) {
                let demand = (tstate.running[pool].len() + tstate.queues[pool].len()) as u64;
                d.demand[pool] = demand.min(u32::MAX as u64) as u32;
                // Head-of-line arrival time (FIFO ordering); preempted work
                // re-queued at the front keeps its original arrival.
                d.stamp[pool] = match tstate.queues[pool].front() {
                    Some(&front) => self.pool.tasks[front as usize].runnable_at,
                    None => u64::MAX,
                };
            }
        }
        let capacity = [self.cluster.pools[0].capacity, self.cluster.pools[1].capacity];
        if !first && stale[0] != stale[1] {
            let r = if stale[0] { 0 } else { 1 };
            let mut out = std::mem::take(&mut self.pool.pool_targets);
            let done = self.backend.allocate_pool(r, capacity[r], &self.pool.demands, &mut out);
            if done {
                for (t, &v) in out.iter().enumerate() {
                    self.pool.targets[t][r] = v;
                }
            }
            self.pool.pool_targets = out;
            if done {
                return;
            }
        }
        self.backend.allocate(&capacity, &self.pool.demands, &mut self.pool.targets);
        // A whole-vector recompute may have moved targets in pools that were
        // not themselves touched (coupled policies like DRF): both pools need
        // a launch/starvation pass against their possibly-new targets.
        self.needs_pass = [true; NUM_KINDS];
    }

    fn reschedule(&mut self) {
        if !(self.needs_pass[0] || self.needs_pass[1]) {
            return;
        }
        // Refresh targets first: a coupled-backend recompute widens
        // `needs_pass` to both pools.
        self.compute_targets();
        let work = self.needs_pass;
        self.needs_pass = [false; NUM_KINDS];
        for (pool, &dirty) in work.iter().enumerate() {
            if dirty {
                self.launch_pass(pool);
                self.update_starvation(pool);
            }
        }
    }

    fn launch_pass(&mut self, pool: usize) {
        // Primary pass: fill deficits against fair targets, most-deprived
        // tenant first (deterministic tie-break on tenant index).
        while self.free[pool] > 0 {
            let mut best: Option<(i64, usize)> = None;
            for (tix, tstate) in self.pool.tenants.iter().enumerate() {
                if tstate.queues[pool].is_empty() {
                    continue;
                }
                let running = tstate.running[pool].len() as i64;
                let deficit = self.pool.targets[tix][pool] as i64 - running;
                if deficit <= 0 {
                    continue;
                }
                if best.is_none_or(|(d, _)| deficit > d) {
                    best = Some((deficit, tix));
                }
            }
            let Some((_, tix)) = best else { break };
            let tid = self.pool.tenants[tix].queues[pool].pop_front().expect("non-empty queue");
            self.launch(tid);
        }
        // Secondary pass (work conservation despite integer rounding): any
        // queued task may take a free slot as long as its tenant stays under
        // its max limit.
        while self.free[pool] > 0 {
            let mut chosen: Option<usize> = None;
            for (tix, tstate) in self.pool.tenants.iter().enumerate() {
                if tstate.queues[pool].is_empty() {
                    continue;
                }
                if (tstate.running[pool].len() as u64)
                    < self.config.tenants[tix].max_share[pool] as u64
                {
                    chosen = Some(tix);
                    break;
                }
            }
            let Some(tix) = chosen else { break };
            let tid = self.pool.tenants[tix].queues[pool].pop_front().expect("non-empty queue");
            self.launch(tid);
        }
    }

    fn update_starvation(&mut self, pool: usize) {
        for tix in 0..self.pool.tenants.len() {
            let (min_starved, fair_starved, min_timeout, fair_timeout) = {
                let cfg = &self.config.tenants[tix];
                let tstate = &self.pool.tenants[tix];
                let running = tstate.running[pool].len() as u32;
                let queued = tstate.queues[pool].len() as u32;
                let eff_demand = running.saturating_add(queued).min(cfg.max_share[pool]);
                let min_entitle = cfg.min_share[pool].min(eff_demand);
                let target = self.pool.targets[tix][pool];
                (
                    queued > 0 && running < min_entitle,
                    queued > 0 && running < target,
                    cfg.min_timeout,
                    cfg.fair_timeout,
                )
            };
            self.track_level(tix, pool, Level::Min, min_starved, min_timeout);
            self.track_level(tix, pool, Level::Fair, fair_starved, fair_timeout);
        }
    }

    fn track_level(
        &mut self,
        tix: usize,
        pool: usize,
        level: Level,
        starved: bool,
        timeout: Option<Time>,
    ) {
        let lix = level as usize;
        if !starved || timeout.is_none() {
            self.pool.tenants[tix].starved_since[lix][pool] = None;
            return;
        }
        if self.pool.tenants[tix].starved_since[lix][pool].is_none() {
            let since = self.now;
            self.pool.tenants[tix].starved_since[lix][pool] = Some(since);
            let at = since.saturating_add(timeout.expect("checked above"));
            self.pool.events.push(
                at,
                EventKind::PreemptCheck { tenant: tix as u16, pool: pool as u8, level, since },
            );
        }
    }

    fn on_preempt_check(&mut self, tenant: u16, pool: usize, level: Level, since: Time) {
        let tix = tenant as usize;
        let lix = level as usize;
        if self.pool.tenants[tix].starved_since[lix][pool] != Some(since) {
            return; // Starvation cleared (or re-armed) since this was scheduled.
        }
        // Recompute entitlement from live demand.
        self.compute_targets();
        let (running, entitle) = {
            let cfg = &self.config.tenants[tix];
            let tstate = &self.pool.tenants[tix];
            let running = tstate.running[pool].len() as u32;
            let queued = tstate.queues[pool].len() as u32;
            let eff_demand = running.saturating_add(queued).min(cfg.max_share[pool]);
            let entitle = match level {
                Level::Min => cfg.min_share[pool].min(eff_demand),
                Level::Fair => self.pool.targets[tix][pool],
            };
            (running, entitle)
        };
        let mut needed = entitle.saturating_sub(running);
        // Offer the backend every running task of tenants above their
        // target and kill its pick, until the deficit is covered — never
        // dragging a victim below its own target. The default backend policy
        // kills the most recently launched task (Hadoop's fair-scheduler
        // preemption).
        while needed > 0 {
            self.pool.victims.clear();
            self.pool.victim_tasks.clear();
            for (vix, vstate) in self.pool.tenants.iter().enumerate() {
                if vix == tix {
                    continue;
                }
                if (vstate.running[pool].len() as u32) <= self.pool.targets[vix][pool] {
                    continue;
                }
                for &tid in &vstate.running[pool] {
                    self.pool.victims.push(VictimCandidate {
                        tenant: vix,
                        launch_seq: self.pool.tasks[tid as usize].launch_seq,
                    });
                    self.pool.victim_tasks.push(tid);
                }
            }
            let Some(pick) = self.backend.select_victim(&self.pool.victims) else { break };
            let tid = self.pool.victim_tasks[pick];
            self.preempt_task(tid);
            needed -= 1;
        }
        // Clear the marker; reschedule() (called by the event loop) launches
        // the starved tenant into the freed slots and re-arms the timer if it
        // is still below entitlement.
        self.pool.tenants[tix].starved_since[lix][pool] = None;
    }

    fn preempt_task(&mut self, tid: TaskId) {
        let jix = self.window.task_job[tid as usize] as usize;
        // Drop from the barrier-waiting list if it was an idle reduce.
        let lo = self.window.jobs[jix].reduce_lo as usize;
        let job = &mut self.pool.jobs[jix];
        let waiting = &mut self.pool.waiting[lo..lo + job.waiting as usize];
        if let Some(pos) = waiting.iter().position(|&w| w == tid) {
            waiting[pos] = waiting[waiting.len() - 1];
            job.waiting -= 1;
        }
        self.release_container(tid, AttemptOutcome::Preempted);
        // Preempted work re-queues at the front: the tenant was entitled to
        // run it already.
        let tenant = self.window.template.task_tenant[tid as usize] as usize;
        let pool = self.window.template.task_kind[tid as usize].index();
        self.pool.tenants[tenant].queues[pool].push_front(tid);
    }

    /// Flattens the pooled run state into `out`'s columns: what the trace
    /// fixes is copied from the prepared window, then each job's finish and
    /// each task's runnable time and attempt chain — walked out of the arena
    /// into a contiguous task-major span — are appended in row order. Arena
    /// and columns both keep their allocations for the next run.
    fn finalize(mut self, horizon: Time, out: &mut Schedule) {
        self.now = horizon;
        // Running tasks at the horizon are cut off (container still held).
        for tid in 0..self.pool.tasks.len() as u32 {
            if self.pool.tasks[tid as usize].running {
                self.release_container(tid, AttemptOutcome::CutOff);
            }
        }
        let columns = &mut out.columns;
        columns.reset_from(
            &self.window.template,
            horizon,
            [self.cluster.capacity(TaskKind::Map), self.cluster.capacity(TaskKind::Reduce)],
        );
        for job in &self.pool.jobs {
            columns.push_job_finish(job.finish);
        }
        let arena = &self.pool.att_arena;
        let next = &self.pool.att_next;
        for t in &self.pool.tasks {
            // Walk this task's arena chain lazily; `push_task_run` owns the
            // attempt-column invariants (spans, denormalized tenant/kind,
            // preempt counts).
            let chain =
                std::iter::successors((t.first_att != NO_ATT).then_some(t.first_att), |&ix| {
                    let n = next[ix as usize];
                    (n != NO_ATT).then_some(n)
                })
                .map(|ix| arena[ix as usize]);
            columns.push_task_run(t.runnable_at, chain);
        }
        self.pool.backends[self.config.policy as usize] = Some(self.backend);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TenantConfig;
    use tempo_workload::time::{MIN, SEC};
    use tempo_workload::trace::{JobSpec, TaskSpec};

    fn one_pool_cluster(map_slots: u32) -> ClusterSpec {
        ClusterSpec::new(map_slots, 0)
    }

    fn maps(n: usize, dur: Time) -> Vec<TaskSpec> {
        vec![TaskSpec::map(dur); n]
    }

    #[test]
    fn single_job_runs_to_completion() {
        let trace = Trace::new(vec![JobSpec::new(0, 0, 0, maps(4, 10 * SEC))]);
        let sched =
            simulate(&trace, &one_pool_cluster(2), &RmConfig::fair(1), &SimOptions::default());
        // 4 tasks on 2 slots: two waves → finish at 20s.
        assert_eq!(sched.job(0).finish, Some(20 * SEC));
        assert_eq!(sched.num_tasks(), 4);
        assert!(sched.tasks().all(|t| t.finish().is_some()));
        // First two tasks start immediately, next two wait 10s.
        let mut waits: Vec<Time> = sched.tasks().filter_map(|t| t.wait_time()).collect();
        waits.sort_unstable();
        assert_eq!(waits, vec![0, 0, 10 * SEC, 10 * SEC]);
    }

    #[test]
    fn map_reduce_barrier() {
        let job = JobSpec::new(
            0,
            0,
            0,
            vec![TaskSpec::map(10 * SEC), TaskSpec::map(30 * SEC), TaskSpec::reduce(20 * SEC)],
        );
        let trace = Trace::new(vec![job]);
        let cluster = ClusterSpec::new(2, 1);
        let sched = simulate(&trace, &cluster, &RmConfig::fair(1), &SimOptions::default());
        // Reduce may only start once both maps complete (t=30), so the job
        // finishes at 50s.
        assert_eq!(sched.job(0).finish, Some(50 * SEC));
        let reduce = sched.tasks().find(|t| t.kind == TaskKind::Reduce).unwrap();
        assert_eq!(reduce.attempts[0].launch, 30 * SEC);
        assert_eq!(reduce.attempts[0].work_start, 30 * SEC);
    }

    #[test]
    fn slowstart_launches_reduce_early_but_work_waits() {
        let job = JobSpec::new(
            0,
            0,
            0,
            vec![TaskSpec::map(10 * SEC), TaskSpec::map(30 * SEC), TaskSpec::reduce(20 * SEC)],
        )
        .with_slowstart(0.5); // release reduces after 1 of 2 maps
        let trace = Trace::new(vec![job]);
        let cluster = ClusterSpec::new(2, 1);
        let sched = simulate(&trace, &cluster, &RmConfig::fair(1), &SimOptions::default());
        let reduce = sched.tasks().find(|t| t.kind == TaskKind::Reduce).unwrap();
        // Launched when the first map finished (t=10) but idled until t=30.
        assert_eq!(reduce.attempts[0].launch, 10 * SEC);
        assert_eq!(reduce.attempts[0].work_start, 30 * SEC);
        assert_eq!(reduce.finish(), Some(50 * SEC));
        // The idle wait counts as occupancy but not useful work.
        assert_eq!(reduce.attempts[0].occupancy(), 40 * SEC);
        assert_eq!(reduce.attempts[0].useful_work(), 20 * SEC);
    }

    #[test]
    fn weighted_sharing_under_contention() {
        // Two tenants with weights 1:3 and saturating demand on 8 slots.
        let trace = Trace::new(vec![
            JobSpec::new(0, 0, 0, maps(100, 100 * SEC)),
            JobSpec::new(1, 1, 0, maps(100, 100 * SEC)),
        ]);
        let config = RmConfig::new(vec![
            TenantConfig::fair_default().with_weight(1.0),
            TenantConfig::fair_default().with_weight(3.0),
        ]);
        let sched = simulate(
            &trace,
            &one_pool_cluster(8),
            &config,
            &SimOptions::default().with_horizon(90 * SEC),
        );
        // During the first wave tenant 0 holds 2 slots, tenant 1 holds 6.
        let occ0 = sched.occupancy_in(TaskKind::Map, Some(0), 0, 90 * SEC);
        let occ1 = sched.occupancy_in(TaskKind::Map, Some(1), 0, 90 * SEC);
        let ratio = occ1 as f64 / occ0 as f64;
        assert!((ratio - 3.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn max_share_caps_borrowing() {
        // Tenant 0 capped at 2 slots; tenant 1 idle. Slots beyond the cap
        // stay free even though tenant 0 has demand.
        let trace = Trace::new(vec![JobSpec::new(0, 0, 0, maps(10, 10 * SEC))]);
        let config = RmConfig::new(vec![
            TenantConfig::fair_default().with_max_share(2, 0),
            TenantConfig::fair_default(),
        ]);
        let sched = simulate(&trace, &one_pool_cluster(8), &config, &SimOptions::default());
        // 10 tasks, 2 at a time → 50s.
        assert_eq!(sched.job(0).finish, Some(50 * SEC));
        let util = sched.utilization(TaskKind::Map, 0, 50 * SEC);
        assert!((util - 0.25).abs() < 1e-9, "util {util}");
    }

    #[test]
    fn idle_quota_is_borrowed_without_preemption() {
        // Tenant 1 has weight 3 but no work: tenant 0 takes the whole pool.
        let trace = Trace::new(vec![JobSpec::new(0, 0, 0, maps(8, 10 * SEC))]);
        let config = RmConfig::new(vec![
            TenantConfig::fair_default().with_weight(1.0),
            TenantConfig::fair_default().with_weight(3.0),
        ]);
        let sched = simulate(&trace, &one_pool_cluster(8), &config, &SimOptions::default());
        assert_eq!(sched.job(0).finish, Some(10 * SEC));
    }

    #[test]
    fn figure_1_preemption_scenario() {
        // Tenant A grabs the whole cluster at t=0 with long tasks; tenant B
        // arrives at t=1min with a min-share guarantee and a 1-minute
        // min-level preemption timeout. At t=2min the RM kills A's most
        // recently launched tasks; A's lost work is region I of Figure 1.
        let trace = Trace::new(vec![
            JobSpec::new(0, 0, 0, maps(10, 10 * MIN)),
            JobSpec::new(1, 1, MIN, maps(5, 2 * MIN)),
        ]);
        let config = RmConfig::new(vec![
            TenantConfig::fair_default(),
            TenantConfig::fair_default().with_min_share(5, 0).with_min_timeout(MIN),
        ]);
        let sched = simulate(&trace, &one_pool_cluster(10), &config, &SimOptions::default());

        // B waited from t=1min; preemption at t=2min.
        let b_tasks: Vec<_> = sched.tasks().filter(|t| t.tenant == 1).collect();
        assert_eq!(b_tasks.len(), 5);
        for t in &b_tasks {
            assert_eq!(t.attempts[0].launch, 2 * MIN, "B launches right after preemption");
        }
        // Exactly 5 of A's tasks were preempted, each having wasted 2min of
        // container time.
        let preempted: Vec<_> = sched.tasks().filter(|t| t.was_preempted()).collect();
        assert_eq!(preempted.len(), 5);
        for t in &preempted {
            assert_eq!(t.tenant, 0);
            assert_eq!(t.wasted_time(), 2 * MIN);
        }
        // A's preempted tasks restart after B finishes (t=4min) and run the
        // full 10 minutes again.
        for t in &preempted {
            let retry = t.attempts.last().unwrap();
            assert_eq!(retry.launch, 4 * MIN);
            assert_eq!(retry.outcome, AttemptOutcome::Completed);
            assert_eq!(retry.end, 14 * MIN);
        }
        // Effective utilization < raw utilization because of region I.
        let raw = sched.utilization(TaskKind::Map, 0, 4 * MIN);
        let eff = sched.effective_utilization(TaskKind::Map, 0, 14 * MIN);
        assert!(raw > 0.99, "cluster stayed busy: {raw}");
        assert!(eff < 1.0);
    }

    #[test]
    fn no_preemption_without_timeouts() {
        // Same scenario but preemption disabled: B must wait for A's wave.
        let trace = Trace::new(vec![
            JobSpec::new(0, 0, 0, maps(10, 10 * MIN)),
            JobSpec::new(1, 1, MIN, maps(5, 2 * MIN)),
        ]);
        let config = RmConfig::fair(2);
        let sched = simulate(&trace, &one_pool_cluster(10), &config, &SimOptions::default());
        assert!(sched.tasks().all(|t| !t.was_preempted()));
        let b_first =
            sched.tasks().filter(|t| t.tenant == 1).filter_map(|t| t.wait_time()).min().unwrap();
        assert_eq!(b_first, 9 * MIN, "B waits for A's tasks to finish at t=10min");
    }

    #[test]
    fn fair_level_preemption_reclaims_fair_share() {
        // Equal weights: fair share is 5 each. A holds all 10 from t=0; B
        // arrives at t=10s with a fair-level timeout of 30s, so the check
        // fires at t=40s and reclaims exactly B's fair share.
        let trace = Trace::new(vec![
            JobSpec::new(0, 0, 0, maps(10, 10 * MIN)),
            JobSpec::new(1, 1, 10 * SEC, maps(10, MIN)),
        ]);
        let config = RmConfig::new(vec![
            TenantConfig::fair_default(),
            TenantConfig::fair_default().with_fair_timeout(30 * SEC),
        ]);
        let sched = simulate(&trace, &one_pool_cluster(10), &config, &SimOptions::default());
        let preempted = sched.tasks().filter(|t| t.was_preempted()).count();
        assert_eq!(preempted, 5, "A gives up down to its fair share");
        let b_launches: Vec<Time> =
            sched.tasks().filter(|t| t.tenant == 1).map(|t| t.attempts[0].launch).collect();
        assert_eq!(b_launches.iter().filter(|&&l| l == 40 * SEC).count(), 5);
    }

    #[test]
    fn preemption_never_kills_below_victim_target() {
        // B (min share 8) arrives at t=10s while A holds all 10 slots. With
        // B's min share carved out first, A's fair target is 1 of the 2
        // non-guaranteed slots. The min-level check kills exactly B's
        // entitlement (8), leaving A with 2 ≥ its target — victims are never
        // dragged below their own target.
        let trace = Trace::new(vec![
            JobSpec::new(0, 0, 0, maps(10, 10 * MIN)),
            JobSpec::new(1, 1, 10 * SEC, maps(20, MIN)),
        ]);
        let config = RmConfig::new(vec![
            TenantConfig::fair_default(),
            TenantConfig::fair_default().with_min_share(8, 0).with_min_timeout(10 * SEC),
        ]);
        let sched = simulate(&trace, &one_pool_cluster(10), &config, &SimOptions::default());
        let first_wave_kills = sched
            .tasks()
            .filter(|t| {
                t.attempts
                    .iter()
                    .any(|a| a.outcome == AttemptOutcome::Preempted && a.end == 20 * SEC)
            })
            .count();
        assert_eq!(first_wave_kills, 8);
        // A's two survivors ran start-to-finish without interruption.
        let a_uninterrupted = sched
            .tasks()
            .filter(|t| t.tenant == 0)
            .filter(|t| t.attempts.len() == 1 && t.attempts[0].launch == 0)
            .count();
        assert_eq!(a_uninterrupted, 2);
    }

    #[test]
    fn horizon_cuts_off_running_tasks() {
        let trace = Trace::new(vec![JobSpec::new(0, 0, 0, maps(2, 10 * MIN))]);
        let sched = simulate(
            &trace,
            &one_pool_cluster(2),
            &RmConfig::fair(1),
            &SimOptions::default().with_horizon(4 * MIN),
        );
        assert_eq!(sched.horizon(), 4 * MIN);
        assert_eq!(sched.job(0).finish, None);
        for t in sched.tasks() {
            assert_eq!(t.attempts.len(), 1);
            assert_eq!(t.attempts[0].outcome, AttemptOutcome::CutOff);
            assert_eq!(t.attempts[0].end, 4 * MIN);
        }
    }

    #[test]
    fn deterministic_under_noise() {
        let trace = Trace::new(vec![
            JobSpec::new(0, 0, 0, maps(20, 30 * SEC)),
            JobSpec::new(1, 1, 5 * SEC, maps(20, 30 * SEC)),
        ]);
        let opts = SimOptions { horizon: None, noise: NoiseModel::production(), seed: 42 };
        let a = simulate(&trace, &one_pool_cluster(4), &RmConfig::fair(2), &opts);
        let b = simulate(&trace, &one_pool_cluster(4), &RmConfig::fair(2), &opts);
        assert_eq!(a, b);
        let c = simulate(
            &trace,
            &one_pool_cluster(4),
            &RmConfig::fair(2),
            &SimOptions { seed: 43, ..opts },
        );
        assert_ne!(a, c, "different seeds should produce different noisy runs");
    }

    #[test]
    fn noise_perturbs_but_preserves_totals() {
        let trace = Trace::new(vec![JobSpec::new(0, 0, 0, maps(50, 30 * SEC))]);
        let opts = SimOptions { horizon: None, noise: NoiseModel::production(), seed: 7 };
        let sched = simulate(&trace, &one_pool_cluster(10), &RmConfig::fair(1), &opts);
        // All tasks eventually finish even with failures/retries.
        assert!(sched.job(0).finish.is_some());
        let completed = sched.tasks().filter(|t| t.finish().is_some()).count();
        assert_eq!(completed, 50);
    }

    #[test]
    fn pooled_reuse_is_invisible() {
        // Interleave differently shaped traces/configs through one pool and
        // check every schedule matches a fresh-pool run: stale state from a
        // previous (bigger) run must never leak into the next.
        let big = Trace::new(vec![
            JobSpec::new(0, 0, 0, maps(30, 20 * SEC)),
            JobSpec::new(1, 1, 5 * SEC, maps(12, 45 * SEC)),
            JobSpec::new(2, 2, 0, vec![TaskSpec::map(10 * SEC), TaskSpec::reduce(30 * SEC)]),
        ]);
        let small = Trace::new(vec![JobSpec::new(0, 0, 0, maps(3, 10 * SEC))]);
        let preempt_cfg = RmConfig::new(vec![
            TenantConfig::fair_default(),
            TenantConfig::fair_default().with_min_share(4, 1).with_min_timeout(10 * SEC),
            TenantConfig::fair_default().with_weight(2.0),
        ]);
        let runs: Vec<(&Trace, RmConfig, SimOptions)> = vec![
            (&big, preempt_cfg.clone(), SimOptions::default()),
            (&small, RmConfig::fair(1), SimOptions::default()),
            (&big, RmConfig::fair(3), SimOptions::noisy(9)),
            (&small, RmConfig::fair(1), SimOptions::default().with_horizon(15 * SEC)),
            (&big, preempt_cfg, SimOptions::default()),
        ];
        let mut pool = SimPool::new();
        let cluster = ClusterSpec::new(6, 2);
        for (trace, cfg, opts) in &runs {
            let pooled = simulate_pooled(trace, &cluster, cfg, opts, &mut pool);
            let fresh = simulate_pooled(trace, &cluster, cfg, opts, &mut SimPool::new());
            assert_eq!(pooled, fresh);
        }
        // The same interleaving over windows prepared once, into one
        // recycled schedule and through the thread's own scratch.
        let windows = [&big, &small].map(|t| PreparedWindow::new(t).unwrap());
        let mut out = empty_schedule();
        for (trace, cfg, opts) in &runs {
            let window = &windows[usize::from(std::ptr::eq(*trace, &small))];
            let fresh = simulate_pooled(trace, &cluster, cfg, opts, &mut SimPool::new());
            window.simulate_into(&cluster, cfg, opts, &mut pool, &mut out);
            assert_eq!(out, fresh);
            assert_eq!(window.simulate_with(&cluster, cfg, opts, Schedule::clone), fresh);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One window and the runs to make over it.
        #[derive(Debug, Clone)]
        struct Case {
            trace: Trace,
            cluster: ClusterSpec,
            runs: Vec<(RmConfig, SimOptions)>,
        }

        /// Times are a few microseconds, so that the boundary timeouts (one
        /// microsecond; `Time::MAX`, which saturates) stay cheap to simulate.
        fn arb_job() -> impl Strategy<Value = JobSpec> {
            (
                0u16..3,
                0u64..4,
                prop::collection::vec(1u64..40, 0..4),
                prop::collection::vec(1u64..40, 0..3),
                0usize..3,
                prop::option::of(0u64..200),
            )
                .prop_map(|(tenant, arrival, maps, reduces, slowstart, slack)| {
                    let mut tasks: Vec<TaskSpec> = Vec::new();
                    // Interleave kinds: reduce ids are not contiguous.
                    let mut reduces = reduces.into_iter();
                    for m in maps {
                        tasks.push(TaskSpec::map(m));
                        tasks.extend(reduces.next().map(TaskSpec::reduce));
                    }
                    tasks.extend(reduces.map(TaskSpec::reduce));
                    if tasks.is_empty() {
                        tasks.push(TaskSpec::reduce(7));
                    }
                    // Few distinct submit times: simultaneous arrivals.
                    let submit = arrival * 10;
                    let mut job = JobSpec::new(0, tenant, submit, tasks)
                        .with_slowstart([0.0, 0.5, 1.0][slowstart]);
                    job.deadline = slack.map(|s| submit + s);
                    job
                })
        }

        fn arb_timeout() -> impl Strategy<Value = Option<Time>> {
            (0usize..5).prop_map(|i| [None, Some(1), Some(15), Some(400), Some(Time::MAX)][i])
        }

        fn arb_tenant() -> impl Strategy<Value = TenantConfig> {
            (1u32..9, 0u32..3, 0u32..3, any::<bool>(), arb_timeout(), arb_timeout()).prop_map(
                |(weight, min_map, min_reduce, capped, fair_timeout, min_timeout)| TenantConfig {
                    weight: weight as f64 / 2.0,
                    min_share: [min_map, min_reduce],
                    max_share: if capped { [min_map + 1, min_reduce + 1] } else { [u32::MAX; 2] },
                    fair_timeout,
                    min_timeout,
                },
            )
        }

        fn arb_case(max_jobs: usize) -> impl Strategy<Value = Case> {
            let run = (prop::collection::vec(arb_tenant(), 3), 0usize..4, 0u8..4, any::<u64>())
                .prop_map(|(tenants, policy, mode, seed)| {
                    let mut config = RmConfig::new(tenants);
                    config.policy = SchedPolicy::ALL[policy];
                    let noise =
                        if mode & 1 == 0 { NoiseModel::NONE } else { NoiseModel::production() };
                    let horizon = (mode & 2 != 0).then_some(45);
                    (config, SimOptions { horizon, noise, seed })
                });
            (
                prop::collection::vec(arb_job(), 1..max_jobs),
                1u32..5,
                1u32..3,
                prop::collection::vec(run, 1..4),
            )
                .prop_map(|(mut jobs, map_slots, reduce_slots, runs)| {
                    for (id, job) in jobs.iter_mut().enumerate() {
                        job.id = id as u64;
                    }
                    Case {
                        trace: Trace::new(jobs),
                        cluster: ClusterSpec::new(map_slots, reduce_slots),
                        runs,
                    }
                })
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            /// Runs over a prepared window — through one reused pool into
            /// one recycled schedule, and through the thread's own scratch —
            /// equal fresh one-shot `simulate` runs, with a bigger and a
            /// smaller window alternating through the same scratch: state
            /// left behind by any earlier run must never show.
            #[test]
            fn prepared_runs_equal_one_shot_runs(big in arb_case(10), small in arb_case(3)) {
                let cases = [&big, &small];
                let windows = cases.map(|c| PreparedWindow::new(&c.trace).unwrap());
                let mut pool = SimPool::new();
                let mut out = empty_schedule();
                for _ in 0..2 {
                    for (case, window) in cases.iter().zip(&windows) {
                        for (config, opts) in &case.runs {
                            let fresh = simulate_pooled(
                                &case.trace,
                                &case.cluster,
                                config,
                                opts,
                                &mut SimPool::new(),
                            );
                            fresh.columns.check_invariants();
                            window.simulate_into(&case.cluster, config, opts, &mut pool, &mut out);
                            prop_assert_eq!(&out, &fresh);
                            let scoped =
                                window.simulate_with(&case.cluster, config, opts, Schedule::clone);
                            prop_assert_eq!(&scoped, &fresh);
                            prop_assert_eq!(&simulate(&case.trace, &case.cluster, config, opts), &fresh);
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "trace references tenant")]
    fn rejects_unknown_tenant() {
        let trace = Trace::new(vec![JobSpec::new(0, 5, 0, maps(1, SEC))]);
        let _ = simulate(&trace, &one_pool_cluster(2), &RmConfig::fair(2), &SimOptions::default());
    }

    #[test]
    fn empty_trace_is_fine() {
        let sched = simulate(
            &Trace::default(),
            &one_pool_cluster(2),
            &RmConfig::fair(1),
            &SimOptions::default(),
        );
        assert_eq!(sched.num_jobs(), 0);
        assert_eq!(sched.num_tasks(), 0);
    }
}
