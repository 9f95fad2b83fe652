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

use crate::pald::{Pald, PaldConfig, PaldSnapshot, QsObjective};
use crate::space::ConfigSpace;
use crate::whatif::WhatIfModel;
use serde::{Deserialize, Serialize};
use tempo_sim::{RmConfig, Schedule};

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
    pub fn set_workload(
        &mut self,
        source: crate::whatif::WorkloadSource,
        window: (tempo_workload::Time, tempo_workload::Time),
    ) {
        self.whatif.set_source_window(source, window);
        self.pald.clear_history();
        self.prev = None;
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
}
