//! Tempo's control loop (§4, Figure 3).
//!
//! Each iteration executes the eight steps of the architecture diagram:
//!
//! 1. extract the recent task schedule and evaluate the observed QS metrics
//!    under the current RM configuration;
//! 2. through 7. drive the Optimizer (PALD) over the What-if Model —
//!    replaying the recent job traces through the Schedule Predictor to
//!    explore candidate configurations;
//! 8. install a new RM configuration, bounded by the trust-region distance.
//!
//! **Robustness guard**: "the Tempo control loop will revert the RM
//! configuration x′ back to x if the currently observed QS metrics do not
//! dominate the previously observed ones" — implemented with a configurable
//! [`RevertPolicy`], since the literal rule is noise-hostile and the
//! softened variant (revert only when measurably *worse*) is what survives
//! production noise. The ablation bench compares the policies.
//!
//! **Windowed re-tuning** (§8.2.3): [`WindowedLoop`] wraps the controller in
//! the loop that "uses a fixed-length interval of the most recent job
//! traces" — jobs stream into a window log, and each advance re-tunes on the
//! latest window. The serving layer's domains, Figure 11 and the adaptive
//! example all run this one type.

use crate::pald::{Pald, PaldConfig, PaldSnapshot, QsObjective};
use crate::space::ConfigSpace;
use crate::whatif::{WhatIfModel, WorkloadSource};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use tempo_sim::{NoiseModel, RmConfig, Schedule, SimOptions};
use tempo_workload::time::Time;
use tempo_workload::window::{WindowLog, WindowLogState};
use tempo_workload::{JobSpec, Trace};

/// When to undo the previous configuration change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RevertPolicy {
    /// Never revert (ablation baseline).
    Off,
    /// Revert unless the new observation dominates the previous one — the
    /// paper's literal wording. Aggressive under noise.
    Strict,
    /// Revert when the previous observation dominates the new one (the new
    /// config made things strictly worse somewhere and better nowhere,
    /// within tolerance). Default.
    Dominated,
}

/// Does `a` Pareto-dominate `b`? (`a_i ≤ b_i + tol` everywhere and
/// `a_j < b_j − tol` somewhere.)
pub fn dominates(a: &[f64], b: &[f64], tol: f64) -> bool {
    assert_eq!(a.len(), b.len(), "QS vector arity mismatch");
    let mut strictly = false;
    for (ai, bi) in a.iter().zip(b) {
        if *ai > bi + tol {
            return false;
        }
        if *ai < bi - tol {
            strictly = true;
        }
    }
    strictly
}

/// Control-loop settings.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopConfig {
    pub pald: PaldConfig,
    pub revert: RevertPolicy,
    /// Domination tolerance as a fraction of each metric's magnitude.
    pub revert_tol: f64,
    /// Ratchet best-effort SLOs: use the best QS value attained so far as
    /// the next iteration's bound `r_i` (§6.1).
    pub ratchet: bool,
    /// Ignored: the What-if Model keeps no memo. Kept only because the
    /// benchmark's traced mirror (`benchmark/src/traced.rs`) still reads it.
    pub clear_cache_windows: Option<u32>,
}

impl Default for LoopConfig {
    fn default() -> Self {
        Self {
            pald: PaldConfig::default(),
            revert: RevertPolicy::Dominated,
            revert_tol: 0.02,
            ratchet: true,
            clear_cache_windows: None,
        }
    }
}

/// What one control-loop iteration did.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    pub iteration: usize,
    /// Configuration the observation was taken under.
    pub config: RmConfig,
    /// Observed (priority-weighted) QS vector.
    pub observed_qs: Vec<f64>,
    /// Constraint bounds `r` used for this iteration's optimization.
    pub r: Vec<f64>,
    /// Whether the previous change was rolled back this iteration.
    pub reverted: bool,
}

/// The Tempo controller: owns the optimizer state and the current RM
/// configuration; the caller owns the cluster (real or simulated) and feeds
/// observations in.
pub struct Tempo {
    pub space: ConfigSpace,
    pub whatif: WhatIfModel,
    config: LoopConfig,
    pald: Pald,
    x: Vec<f64>,
    prev: Option<(Vec<f64>, Vec<f64>)>, // (x before last change, its observed QS)
    r: Vec<f64>,
    iteration: usize,
}

/// Resumable controller state — everything [`Tempo`] mutates across
/// iterations, detached from the (re-constructible) space/What-if wiring.
///
/// Restoring into a controller built with the same `space`, `whatif`
/// workload and window, and `config` ([`Tempo::restore_state`]) continues
/// bit-identically to the never-snapshotted run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TempoSnapshot {
    /// Current normalized configuration vector.
    pub x: Vec<f64>,
    /// `(x before last change, its observed QS)` for the revert guard.
    pub prev: Option<(Vec<f64>, Vec<f64>)>,
    /// Current constraint bounds (including ratchet progress).
    pub r: Vec<f64>,
    pub iteration: u64,
    pub pald: PaldSnapshot,
}

/// Adapter exposing the What-if Model to PALD as a vector objective over
/// normalized configuration vectors.
///
/// Probe batches are evaluated in parallel: each point decodes to an
/// `RmConfig` and the whole batch goes through
/// [`WhatIfModel::evaluate_batch_salted`], which fans the simulations out
/// across [`WhatIfModel::batch_threads`] workers while preserving the serial
/// path's per-point sample ids — so trajectories are bit-identical under any
/// thread count.
pub struct WhatIfObjective<'a> {
    space: &'a ConfigSpace,
    whatif: &'a WhatIfModel,
}

impl<'a> WhatIfObjective<'a> {
    pub fn new(space: &'a ConfigSpace, whatif: &'a WhatIfModel) -> Self {
        Self { space, whatif }
    }
}

impl QsObjective for WhatIfObjective<'_> {
    fn dim(&self) -> usize {
        self.space.dim()
    }
    fn k(&self) -> usize {
        self.whatif.k()
    }
    fn eval(&self, x: &[f64], sample: u64) -> Vec<f64> {
        self.whatif.evaluate_salted(&self.space.decode(x), sample)
    }
    fn eval_batch(&self, points: &[Vec<f64>], first_sample: u64) -> Vec<Vec<f64>> {
        let configs: Vec<_> = points.iter().map(|x| self.space.decode(x)).collect();
        self.whatif.evaluate_batch_salted(&configs, first_sample)
    }
}

impl Tempo {
    /// Creates a controller starting from `initial` (e.g. the expert
    /// configuration). `whatif.slos` defines the QS vector; SLOs without
    /// thresholds start with `r_i = +∞` and are ratcheted from observations.
    pub fn new(
        space: ConfigSpace,
        whatif: WhatIfModel,
        config: LoopConfig,
        initial: &RmConfig,
    ) -> Self {
        let x = space.encode(initial);
        let r = whatif.slos.thresholds().iter().map(|t| t.unwrap_or(f64::INFINITY)).collect();
        let pald = Pald::new(config.pald.clone());
        Self { space, whatif, config, pald, x, prev: None, r, iteration: 0 }
    }

    /// Captures the controller's resumable state (see [`TempoSnapshot`]).
    pub fn snapshot(&self) -> TempoSnapshot {
        TempoSnapshot {
            x: self.x.clone(),
            prev: self.prev.clone(),
            r: self.r.clone(),
            iteration: self.iteration as u64,
            pald: self.pald.snapshot(),
        }
    }

    /// Restores state captured by [`Tempo::snapshot`]. The controller must
    /// have been built with the same `space`, What-if workload and window,
    /// and [`LoopConfig`] as the snapshotted one; subsequent
    /// [`Tempo::iterate`] calls are then bit-identical to a
    /// never-snapshotted controller fed the same observations.
    pub fn restore_state(&mut self, snapshot: TempoSnapshot) {
        assert_eq!(snapshot.x.len(), self.space.dim(), "snapshot dimension mismatch");
        assert_eq!(snapshot.r.len(), self.whatif.k(), "snapshot QS arity mismatch");
        self.x = snapshot.x;
        self.prev = snapshot.prev;
        self.r = snapshot.r;
        self.iteration = snapshot.iteration as usize;
        self.pald = Pald::restore(self.config.pald.clone(), snapshot.pald);
    }

    /// The PALD optimizer driving this controller (read-only: trajectory
    /// diagnostics and the serve/direct parity suite).
    pub fn pald(&self) -> &Pald {
        &self.pald
    }

    /// Control-loop iterations run so far.
    pub fn iteration(&self) -> usize {
        self.iteration
    }

    /// The configuration the cluster should currently run.
    pub fn current_config(&self) -> RmConfig {
        self.space.decode(&self.x)
    }

    /// Current normalized configuration vector.
    pub fn current_x(&self) -> &[f64] {
        &self.x
    }

    /// Current constraint bounds.
    pub fn current_r(&self) -> &[f64] {
        &self.r
    }

    /// Runs one control-loop iteration given the schedule observed on the
    /// (real or stand-in) cluster since the last iteration, and installs the
    /// next configuration.
    pub fn iterate(&mut self, observed: &Schedule) -> IterationRecord {
        tempo_obs::counter!("tempo_pald_iterations_total", "PALD control-loop iterations executed")
            .inc();
        let (w0, w1) = self.whatif.window;
        let observed_qs = self.whatif.slos.evaluate(observed, w0, w1);
        let under_config = self.current_config();
        let iteration = self.iteration;
        self.iteration += 1;

        // Step 1 guard: revert if the last change regressed.
        let mut reverted = false;
        if let Some((prev_x, prev_qs)) = self.prev.take() {
            let scale: f64 = prev_qs.iter().map(|v| v.abs()).fold(1e-9, f64::max);
            let tol = self.config.revert_tol * scale;
            let undo = match self.config.revert {
                RevertPolicy::Off => false,
                RevertPolicy::Strict => !dominates(&observed_qs, &prev_qs, tol),
                RevertPolicy::Dominated => dominates(&prev_qs, &observed_qs, tol),
            };
            if undo {
                self.x = prev_x;
                reverted = true;
            }
        }

        // Feed the live observation into the gradient history.
        self.pald.record(self.space.encode(&under_config), observed_qs.clone());

        // Ratchet best-effort bounds (threshold-less SLOs) to the best
        // observation so far: "use the QS value attained ... as the r_i for
        // the next iteration" (§6.1).
        if self.config.ratchet {
            for (i, t) in self.whatif.slos.thresholds().iter().enumerate() {
                if t.is_none() {
                    let candidate = observed_qs[i];
                    if candidate.is_finite() {
                        self.r[i] = if self.r[i].is_finite() {
                            self.r[i].min(candidate)
                        } else {
                            candidate
                        };
                    }
                }
            }
        }

        // Steps 2–8: optimize over the What-if Model and install the result.
        let base_x = self.x.clone();
        let objective = WhatIfObjective::new(&self.space, &self.whatif);
        let step = self.pald.step(&objective, &base_x, &self.r);
        self.prev = Some((base_x, observed_qs.clone()));
        self.x = step.x_new;

        IterationRecord {
            iteration,
            config: under_config,
            observed_qs,
            r: self.r.clone(),
            reverted,
        }
    }

    /// Swaps the workload window the What-if Model optimizes over — the
    /// adaptivity mechanism of §8.2.3 (each iteration uses a fixed-length
    /// interval of the most recent job traces).
    ///
    /// The optimizer's evaluation history and the revert guard's previous
    /// observation are cleared: QS values measured against the old window
    /// are evaluations of a *different* objective and would poison the LOESS
    /// fit.
    pub fn set_workload(&mut self, source: WorkloadSource, window: (Time, Time)) {
        self.whatif.set_source_window(source, window);
        self.pald.clear_history();
        self.prev = None;
    }
}

/// What one [`WindowedLoop::advance`] did (the serving layer's wire-visible
/// decision record).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Advance calls made on this loop so far (this one included).
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

/// The serving layer's observation-seed rule for step `step` of a loop
/// seeded with `seed`: decorrelates the noise stream across steps (and, via
/// the seed, across domains) while staying replayable.
pub fn observation_seed(seed: u64, step: u64) -> u64 {
    seed ^ step.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Checks jobs bound for the window log or the What-if Model: each must pass
/// [`JobSpec::validate`] and name one of the configuration's `tenants`. With
/// `ids_below = Some(n)` the jobs carry log-assigned ids, which must also be
/// unique and below `n`; ingested jobs (`None`) are re-identified by the log.
fn check_window_jobs(
    jobs: &[JobSpec],
    tenants: usize,
    ids_below: Option<u64>,
) -> Result<(), String> {
    for job in jobs {
        job.validate().map_err(|e| e.to_string())?;
        if job.tenant as usize >= tenants {
            return Err(format!("job {} names tenant {} beyond the config", job.id, job.tenant));
        }
    }
    if let Some(next_id) = ids_below {
        let mut ids: Vec<u64> = jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        if let Some(w) = ids.windows(2).find(|w| w[0] == w[1]) {
            return Err(format!("duplicate job id {}", w[0]));
        }
        if let Some(&max) = ids.last().filter(|&&max| max >= next_id) {
            return Err(format!("job id {max} is not below the log's next id {next_id}"));
        }
    }
    Ok(())
}

/// The windowed control loop of §8.2.3: a [`Tempo`] controller re-tuned on
/// the most recent fixed-length window of ingested job traces.
///
/// Jobs enter a [`WindowLog`]. Each [`WindowedLoop::advance`] slices the
/// latest window out of it, swaps the slice into the What-if Model when it
/// changed ([`Tempo::set_workload`]), observes it on the stand-in cluster
/// under the current configuration and runs one [`Tempo::iterate`]. All of
/// its behaviour is a deterministic function of its construction, the
/// ingested jobs and the clock readings passed to `advance`.
pub struct WindowedLoop {
    tempo: Tempo,
    log: WindowLog,
    window_len: Time,
    /// QS window every installed segment is scored over, on the segment's
    /// own time axis.
    qs_window: (Time, Time),
    /// Noise of the stand-in observation runs (not of What-if predictions).
    noise: NoiseModel,
    /// Step `s`'s observation run is seeded with `seed_rule(seed, s)`.
    seed: u64,
    seed_rule: fn(u64, u64) -> u64,
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
}

/// Resumable state of a [`WindowedLoop`]: everything it mutates, detached
/// from its construction arguments.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedLoopState {
    pub step: u64,
    pub decisions: u64,
    pub skipped: u64,
    pub last_end: Time,
    pub log: WindowLogState,
    /// The window + rebased segment installed in the What-if Model (`None`
    /// until a non-empty window has been seen).
    pub installed: Option<((Time, Time), Trace)>,
    pub tempo: TempoSnapshot,
}

impl WindowedLoop {
    /// Wraps `tempo` in a loop re-tuning on the last `window_len` of
    /// ingested jobs, scored over `qs_window` and observed with `noise`;
    /// step `s` (1-based) observes with seed `seed_rule(seed, s)`.
    pub fn new(
        tempo: Tempo,
        window_len: Time,
        qs_window: (Time, Time),
        noise: NoiseModel,
        seed: u64,
        seed_rule: fn(u64, u64) -> u64,
    ) -> Self {
        assert!(window_len > 0, "empty re-tuning window");
        Self {
            tempo,
            log: WindowLog::new(),
            window_len,
            qs_window,
            noise,
            seed,
            seed_rule,
            step: 0,
            decisions: 0,
            skipped: 0,
            last_end: 0,
            installed: None,
        }
    }

    /// The controller (read-only).
    pub fn tempo(&self) -> &Tempo {
        &self.tempo
    }

    /// The buffered job submissions.
    pub fn log(&self) -> &WindowLog {
        &self.log
    }

    /// The rebased segment the What-if Model replays, if any.
    pub fn installed_segment(&self) -> Option<&Trace> {
        self.installed.as_ref().map(|(_, segment)| &**segment)
    }

    /// Advance calls so far.
    pub fn steps(&self) -> u64 {
        self.step
    }

    /// Iterations run (advances minus skips).
    pub fn decisions(&self) -> u64 {
        self.decisions
    }

    /// Advances skipped on an empty window.
    pub fn skipped(&self) -> u64 {
        self.skipped
    }

    /// Attaches a shared worker pool to the What-if Model and lifts any
    /// serial pin (trajectories are thread-count invariant either way).
    pub fn install_pool(&mut self, pool: crate::WorkerPool) {
        self.tempo.whatif.set_threads(None);
        self.tempo.whatif.set_pool(pool);
    }

    /// Why `jobs` may not be ingested, if they may not: the batch is
    /// checked whole, so a caller can refuse it before charging anything.
    pub fn check_jobs(&self, jobs: &[JobSpec]) -> Result<(), String> {
        check_window_jobs(jobs, self.tempo.space.num_tenants, None)
            .map_err(|e| format!("ingest rejected: {e}"))
    }

    /// Appends a batch of job submissions to the window log (ids are
    /// re-assigned densely) and returns how many were accepted. A batch
    /// failing [`WindowedLoop::check_jobs`] is refused whole.
    pub fn ingest(&mut self, jobs: Vec<JobSpec>) -> Result<u64, String> {
        self.check_jobs(&jobs)?;
        Ok(self.log.extend(jobs))
    }

    /// Runs one control-loop iteration against the window ending at `now`:
    ///
    /// 1. evict jobs older than the window, slice the most recent
    ///    `window_len` of the log and rebase it to the window origin;
    /// 2. if the window's bounds or content changed since the last advance,
    ///    swap it into the What-if Model ([`Tempo::set_workload`]);
    /// 3. observe the window on the stand-in cluster under the current
    ///    configuration, reusing the model's prepared window, and feed the
    ///    observation to [`Tempo::iterate`].
    ///
    /// Returns the decision and the observed schedule. An empty window
    /// skips the iteration (nothing to tune on, no schedule) but still
    /// counts as a step, so the observation-seed stream stays aligned with
    /// the advance call sequence.
    pub fn advance(&mut self, now: Time) -> (DecisionRecord, Option<Schedule>) {
        let end = now.max(self.window_len).max(self.last_end);
        let start = end - self.window_len;
        self.last_end = end;
        self.step += 1;

        // Jobs older than every future window can never be replayed again.
        self.log.evict_before(start);
        let mut segment = self.log.trace_in(start, end);
        segment.shift_to_zero(start);
        let mut record = DecisionRecord {
            step: self.step,
            window: (start, end),
            skipped: segment.is_empty(),
            iteration: self.tempo.iteration() as u64,
            observed_qs: Vec::new(),
            reverted: false,
            config: self.tempo.current_config(),
        };
        if record.skipped {
            self.skipped += 1;
            return (record, None);
        }

        let changed = match &self.installed {
            Some((w, seg)) => *w != (start, end) || **seg != segment,
            None => true,
        };
        if changed {
            let segment = Arc::new(segment);
            self.tempo.set_workload(WorkloadSource::Replay(Arc::clone(&segment)), self.qs_window);
            self.installed = Some(((start, end), segment));
        }

        let window = self.tempo.whatif.prepared_window().expect("a replayed window is installed");
        let opts = SimOptions {
            horizon: None,
            noise: self.noise,
            seed: (self.seed_rule)(self.seed, self.step),
        };
        let observed = window.simulate(&self.tempo.whatif.cluster, &record.config, &opts);
        let iteration = self.tempo.iterate(&observed);
        self.decisions += 1;
        record.observed_qs = iteration.observed_qs;
        record.reverted = iteration.reverted;
        record.config = self.tempo.current_config();
        (record, Some(observed))
    }

    /// Captures the loop's resumable state.
    pub fn snapshot(&self) -> WindowedLoopState {
        WindowedLoopState {
            step: self.step,
            decisions: self.decisions,
            skipped: self.skipped,
            last_end: self.last_end,
            log: self.log.to_state(),
            installed: self.installed.as_ref().map(|(w, seg)| (*w, Trace::clone(seg))),
            tempo: self.tempo.snapshot(),
        }
    }

    /// Restores state captured by [`WindowedLoop::snapshot`] into a loop
    /// freshly built with the same arguments; later `ingest`/`advance` calls
    /// then behave bit-identically to the never-snapshotted loop.
    ///
    /// State from the wire can be arbitrarily corrupt: every mismatch is an
    /// `Err` (leaving `self` untouched), never one of the controller's,
    /// the What-if Model's or the simulator's panics.
    pub fn restore(&mut self, state: WindowedLoopState) -> Result<(), String> {
        let WindowedLoopState { step, decisions, skipped, last_end, log, installed, tempo } = state;
        let dim = self.tempo.space.dim();
        let k = self.tempo.whatif.k();
        if tempo.x.len() != dim {
            return Err(format!("snapshot x has {} dims, spec expects {dim}", tempo.x.len()));
        }
        if tempo.r.len() != k {
            return Err(format!("snapshot r has {} entries, spec has {k} SLOs", tempo.r.len()));
        }
        if let Some((px, pqs)) = &tempo.prev {
            if px.len() != dim || pqs.len() != k {
                return Err("snapshot prev-observation arity mismatch".into());
            }
        }
        if tempo.pald.history_x.len() != tempo.pald.history_f.len()
            || tempo.pald.history_x.iter().any(|x| x.len() != dim)
            || tempo.pald.history_f.iter().any(|f| f.len() != k)
        {
            return Err("snapshot optimizer history arity mismatch".into());
        }
        // Logged jobs reach the What-if Model on a later advance, and the
        // installed segment goes straight in: both must pass the checks an
        // ingest passes, with log-assigned ids.
        let tenants = self.tempo.space.num_tenants;
        check_window_jobs(&log.jobs, tenants, Some(log.next_id))
            .map_err(|e| format!("snapshot window log: {e}"))?;
        if let Some((_, segment)) = &installed {
            check_window_jobs(&segment.jobs, tenants, Some(log.next_id))
                .map_err(|e| format!("snapshot window segment: {e}"))?;
        }
        self.log = WindowLog::from_state(log);
        self.installed = installed.map(|(w, segment)| (w, Arc::new(segment)));
        if let Some((_, segment)) = &self.installed {
            // Install the window directly: `set_workload` would reset
            // optimizer state that `restore_state` is about to install.
            self.tempo
                .whatif
                .set_source_window(WorkloadSource::Replay(Arc::clone(segment)), self.qs_window);
        }
        self.tempo.restore_state(tempo);
        self.step = step;
        self.decisions = decisions;
        self.skipped = skipped;
        self.last_end = last_end;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::whatif::WorkloadSource;
    use tempo_qs::{QsKind, SloSet, SloSpec};
    use tempo_sim::{observe, ClusterSpec, NoiseModel, TenantConfig};
    use tempo_workload::time::{MIN, SEC};
    use tempo_workload::trace::{JobSpec, TaskSpec, Trace};

    #[test]
    fn dominance_relation() {
        assert!(dominates(&[1.0, 1.0], &[2.0, 1.0], 0.0));
        assert!(!dominates(&[1.0, 1.0], &[1.0, 1.0], 0.0), "equal vectors don't dominate");
        assert!(!dominates(&[1.0, 3.0], &[2.0, 1.0], 0.0), "trade-off isn't dominance");
        assert!(dominates(&[1.0, 1.0], &[1.01, 1.5], 0.05), "tolerance absorbs ties");
    }

    fn contention_trace() -> Trace {
        // Deadline tenant bursts every 2 minutes; best-effort stream fills
        // the rest. Tight cluster so the config matters.
        let mut jobs = Vec::new();
        let mut id = 0;
        for burst in 0..5u64 {
            for j in 0..2u64 {
                jobs.push(
                    JobSpec::new(
                        id,
                        0,
                        burst * 2 * MIN + j * SEC,
                        vec![
                            TaskSpec::map(20 * SEC),
                            TaskSpec::map(20 * SEC),
                            TaskSpec::reduce(40 * SEC),
                        ],
                    )
                    .with_deadline(burst * 2 * MIN + 2 * MIN),
                );
                id += 1;
            }
        }
        for i in 0..40u64 {
            jobs.push(JobSpec::new(
                id,
                1,
                i * 15 * SEC,
                vec![TaskSpec::map(30 * SEC), TaskSpec::reduce(60 * SEC)],
            ));
            id += 1;
        }
        let mut t = Trace::new(jobs);
        t.sort_by_submit();
        t
    }

    fn slos() -> SloSet {
        SloSet::new(vec![
            SloSpec::new(Some(0), QsKind::DeadlineMiss { gamma: 0.25 }).with_threshold(0.0),
            SloSpec::new(Some(1), QsKind::AvgResponseTime),
        ])
    }

    fn bad_initial() -> RmConfig {
        // Pathological: best-effort tenant hard-capped, deadline tenant has
        // aggressive preemption.
        RmConfig::new(vec![
            TenantConfig::fair_default()
                .with_weight(4.0)
                .with_min_timeout(10 * SEC)
                .with_min_share(4, 2),
            TenantConfig::fair_default().with_max_share(2, 1),
        ])
    }

    fn make_tempo(revert: RevertPolicy, seed: u64) -> Tempo {
        let cluster = ClusterSpec::new(8, 4);
        let trace = contention_trace();
        let window = (0, 12 * MIN);
        let whatif = WhatIfModel::new(cluster, slos(), WorkloadSource::replay(trace), window);
        let space = ConfigSpace::new(2, &ClusterSpec::new(8, 4));
        let cfg = LoopConfig {
            pald: PaldConfig { probes: 4, trust_radius: 0.2, seed, ..Default::default() },
            revert,
            ..Default::default()
        };
        Tempo::new(space, whatif, cfg, &bad_initial())
    }

    fn observe_current(t: &Tempo, seed: u64) -> Schedule {
        observe(
            &contention_trace(),
            &ClusterSpec::new(8, 4),
            &t.current_config(),
            NoiseModel { duration_sigma: 0.05, task_failure_prob: 0.0, job_kill_prob: 0.0 },
            seed,
        )
    }

    #[test]
    fn loop_improves_best_effort_latency() {
        let mut tempo = make_tempo(RevertPolicy::Dominated, 11);
        let mut records = Vec::new();
        for i in 0..8 {
            let sched = observe_current(&tempo, 100 + i);
            records.push(tempo.iterate(&sched));
        }
        let first_ajr = records[0].observed_qs[1];
        let best_ajr = records.iter().map(|r| r.observed_qs[1]).fold(f64::INFINITY, f64::min);
        assert!(
            best_ajr < 0.9 * first_ajr,
            "loop should find a better config: first {first_ajr}, best {best_ajr}"
        );
    }

    #[test]
    fn ratchet_tightens_best_effort_bound() {
        let mut tempo = make_tempo(RevertPolicy::Dominated, 12);
        assert!(tempo.current_r()[1].is_infinite(), "best-effort starts unbounded");
        let sched = observe_current(&tempo, 1);
        tempo.iterate(&sched);
        let r1 = tempo.current_r()[1];
        assert!(r1.is_finite(), "ratchet captured an observation");
        for i in 0..3 {
            let sched = observe_current(&tempo, 200 + i);
            tempo.iterate(&sched);
        }
        assert!(tempo.current_r()[1] <= r1, "ratchet never loosens");
    }

    #[test]
    fn strict_revert_rolls_back_on_non_domination() {
        let mut tempo = make_tempo(RevertPolicy::Strict, 13);
        let sched = observe_current(&tempo, 1);
        let rec0 = tempo.iterate(&sched);
        assert!(!rec0.reverted, "nothing to revert on the first iteration");
        let x_before = tempo.current_x().to_vec();
        let sched = observe_current(&tempo, 2);
        let rec1 = tempo.iterate(&sched);
        // Under Strict, a non-improving observation forces a rollback of the
        // previous x (then a fresh proposal is made from it).
        if rec1.reverted {
            assert_ne!(x_before, tempo.current_x(), "a new proposal still happens after revert");
        }
    }

    #[test]
    fn off_policy_never_reverts() {
        let mut tempo = make_tempo(RevertPolicy::Off, 14);
        for i in 0..4 {
            let sched = observe_current(&tempo, 300 + i);
            let rec = tempo.iterate(&sched);
            assert!(!rec.reverted);
        }
    }

    #[test]
    fn constraint_bounds_track_thresholds() {
        let tempo = make_tempo(RevertPolicy::Dominated, 15);
        // Deadline SLO has an explicit threshold 0.0; best-effort is ∞ until
        // ratcheted.
        assert_eq!(tempo.current_r()[0], 0.0);
        assert!(tempo.current_r()[1].is_infinite());
    }

    #[test]
    fn set_workload_swaps_window() {
        let mut tempo = make_tempo(RevertPolicy::Dominated, 16);
        tempo.set_workload(WorkloadSource::replay(contention_trace()), (MIN, 5 * MIN));
        assert_eq!(tempo.whatif.window, (MIN, 5 * MIN));
    }

    #[test]
    fn snapshot_restore_resumes_the_loop_bit_identically() {
        let mut straight = make_tempo(RevertPolicy::Dominated, 19);
        for i in 0..3 {
            let sched = observe_current(&straight, 400 + i);
            straight.iterate(&sched);
        }
        let snap = straight.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        let parsed: TempoSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, snap, "snapshot survives its wire encoding");

        // A freshly built controller with the same wiring, restored from the
        // snapshot, must continue exactly like the uninterrupted one.
        let mut resumed = make_tempo(RevertPolicy::Dominated, 19);
        resumed.restore_state(parsed);
        assert_eq!(resumed.current_config(), straight.current_config());
        for i in 0..3 {
            let sched = observe_current(&straight, 500 + i);
            let a = straight.iterate(&sched);
            let b = resumed.iterate(&sched);
            assert_eq!(a, b, "restored controller diverged at step {i}");
        }
        assert_eq!(resumed.current_x(), straight.current_x());
        assert_eq!(resumed.pald().history(), straight.pald().history());
    }

    /// A loop re-tuning on 4-minute windows of the contention workload.
    fn windowed(seed: u64) -> WindowedLoop {
        let cluster = ClusterSpec::new(8, 4);
        let qs_window = (0, 5 * MIN);
        let whatif = WhatIfModel::new(
            cluster.clone(),
            slos(),
            WorkloadSource::replay(Trace::default()),
            qs_window,
        );
        let cfg = LoopConfig {
            pald: PaldConfig { probes: 3, trust_radius: 0.2, seed, ..Default::default() },
            ..Default::default()
        };
        let tempo = Tempo::new(ConfigSpace::new(2, &cluster), whatif, cfg, &bad_initial());
        WindowedLoop::new(tempo, 4 * MIN, qs_window, NoiseModel::NONE, seed, observation_seed)
    }

    #[test]
    fn windowed_loop_swaps_the_window_only_when_it_changes() {
        let mut control = windowed(20);
        let (rec, observed) = control.advance(0);
        assert!(rec.skipped && observed.is_none(), "an empty window skips");
        control.ingest(contention_trace().jobs).unwrap();
        let (rec, observed) = control.advance(4 * MIN);
        assert_eq!((rec.step, rec.window, rec.iteration), (2, (0, 4 * MIN), 0));
        assert!(observed.is_some());
        let first = control.tempo().pald().history_len();
        // Same window again: the optimizer history is kept, not reset.
        let (rec, _) = control.advance(4 * MIN);
        assert_eq!(rec.iteration, 1);
        let second = control.tempo().pald().history_len();
        assert!(second > first);
        // A new window is swapped in and restarts the history.
        control.advance(6 * MIN);
        assert!(control.tempo().pald().history_len() < second);
        assert_eq!((control.steps(), control.decisions(), control.skipped()), (4, 3, 1));
    }

    #[test]
    fn ingest_refuses_malformed_batches_whole() {
        let mut control = windowed(21);
        let mut jobs = contention_trace().jobs;
        jobs[5].tasks.clear();
        assert!(control.ingest(jobs).unwrap_err().contains("no tasks"));
        let mut jobs = contention_trace().jobs;
        jobs[0].tenant = 2;
        assert!(control.ingest(jobs).unwrap_err().contains("tenant 2"));
        assert!(control.log().is_empty(), "no job of a refused batch was logged");
        let jobs = contention_trace().jobs;
        let n = jobs.len() as u64;
        assert_eq!(control.ingest(jobs), Ok(n));
    }

    #[test]
    fn restore_rejects_inconsistent_snapshots_gracefully() {
        let mut control = windowed(7);
        control.ingest(contention_trace().jobs).unwrap();
        control.advance(4 * MIN);
        let state = control.snapshot();
        // Wire-derived state can be arbitrarily corrupt; each mismatch must
        // surface as Err (never reach an assertion or an engine panic).
        let restore_err = |state: WindowedLoopState| match windowed(7).restore(state) {
            Err(e) => e,
            Ok(()) => panic!("corrupt state accepted"),
        };
        let mut bad = state.clone();
        bad.tempo.x.push(0.5);
        assert!(restore_err(bad).contains("dims"));
        let mut bad = state.clone();
        bad.tempo.r.clear();
        assert!(restore_err(bad).contains("SLOs"));
        let mut bad = state.clone();
        if let Some((_, pqs)) = bad.tempo.prev.as_mut() {
            pqs.push(1.0);
        }
        assert!(restore_err(bad).contains("arity"));
        let mut bad = state.clone();
        bad.tempo.pald.history_f.pop();
        assert!(restore_err(bad).contains("history"));
        let mut bad = state.clone();
        bad.installed.as_mut().unwrap().1.jobs[0].tasks.clear();
        assert!(restore_err(bad).contains("no tasks"));
        let mut bad = state.clone();
        bad.installed.as_mut().unwrap().1.jobs[0].tenant = 2;
        assert!(restore_err(bad).contains("tenant 2"));
        // The log feeds later windows, so it is held to the same rules,
        // plus the ids the log itself assigns.
        let mut bad = state.clone();
        bad.log.jobs[0].tasks.clear();
        let e = restore_err(bad);
        assert!(e.contains("window log") && e.contains("no tasks"), "{e}");
        let mut bad = state.clone();
        bad.log.jobs[0].tenant = 2;
        assert!(restore_err(bad).contains("tenant 2"));
        let mut bad = state.clone();
        bad.log.jobs[1].id = bad.log.jobs[0].id;
        assert!(restore_err(bad).contains("duplicate job id"));
        let mut bad = state.clone();
        bad.log.next_id = 0;
        assert!(restore_err(bad).contains("next id"));
        // The untouched state restores and resumes identically.
        let mut resumed = windowed(7);
        resumed.restore(state).unwrap();
        assert_eq!(resumed.advance(5 * MIN), control.advance(5 * MIN));
    }
}
