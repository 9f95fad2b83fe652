//! The traced mirror of one domain: what `Domain::{ingest, advance}` and
//! `Tempo::{set_workload, iterate}` do, rebuilt from the crates' public
//! functions so that a span can sit around every call into a layer.
//!
//! `Domain` and `Tempo` keep their optimizer private, so `Pald::step` cannot
//! be handed a timing objective from outside; this type owns its own `Pald`
//! and repeats the control-loop glue (revert guard, ratchet, window swap).
//! The glue is checked, not trusted: every record it produces must equal the
//! record of the untraced `Domain`, bit for bit, or the traced run fails.
//!
//! Rows that have no call boundary of their own (the solver kernels inside
//! `Pald::step`, the simulator and QS scans inside `WhatIfModel`) are timed
//! by calling the same public function again, right after the decision and
//! outside its span, on the inputs the decision used.

use crate::spans::Recorder;
use std::sync::Mutex;
use std::time::Instant;
use tempo_core::control::{dominates, LoopConfig, RevertPolicy, WhatIfObjective};
use tempo_core::pald::{Pald, QsObjective};
use tempo_core::whatif::{WhatIfModel, WorkloadSource};
use tempo_core::ConfigSpace;
use tempo_sched::{SchedulerBackend, TenantDemand};
use tempo_serve::{DecisionRecord, DomainSpec};
use tempo_sim::{observe, predict_until};
use tempo_solver::loess::loess_jacobian;
use tempo_solver::mgda::min_norm_weights;
use tempo_solver::project::project_box_ball;
use tempo_solver::simplex::max_min_weights;
use tempo_solver::Matrix;
use tempo_workload::time::Time;
use tempo_workload::window::WindowLog;
use tempo_workload::{JobSpec, TaskKind, Trace};

/// Time and counts of the rows measured by calling a public function again.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    pub steps: u64,
    pub loess_ns: u64,
    pub mgda_ns: u64,
    pub simplex_ns: u64,
    pub project_ns: u64,
    /// Objective evaluations `Pald::step` asked for (batch points + singles).
    pub evals: u64,
    pub sims: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
    pub predict_ns: u64,
    pub predict_runs: u64,
    pub predict_tasks: u64,
    pub qs_ns: u64,
    pub qs_schedules: u64,
    pub qs_elems: u64,
    pub sched_ns: u64,
    pub sched_calls: u64,
    pub snapshots: u64,
    pub snapshot_jobs: u64,
    pub ingested_jobs: u64,
}

/// The What-if objective with a span around each evaluation call, keeping
/// the points it was asked about for the re-measurement afterwards.
struct TimedObjective<'a> {
    inner: WhatIfObjective<'a>,
    rec: &'a Recorder,
    points: Mutex<Vec<Vec<f64>>>,
}

impl QsObjective for TimedObjective<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn k(&self) -> usize {
        self.inner.k()
    }

    fn eval(&self, x: &[f64], sample: u64) -> Vec<f64> {
        let open = self.rec.enter("whatif.eval");
        let out = self.inner.eval(x, sample);
        self.rec.exit(open);
        self.points.lock().expect("points lock").push(x.to_vec());
        out
    }

    fn eval_batch(&self, points: &[Vec<f64>], first_sample: u64) -> Vec<Vec<f64>> {
        let open = self.rec.enter("whatif.eval_batch");
        let out = self.inner.eval_batch(points, first_sample);
        self.rec.exit(open);
        self.points.lock().expect("points lock").extend(points.iter().cloned());
        out
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    start.elapsed().as_nanos() as u64
}

fn qs_scan_elements() -> u64 {
    tempo_obs::counter(
        "tempo_qs_scan_elements_total",
        "Elements scanned by QS reduction kernels",
        &[],
    )
    .get()
}

pub struct TracedDomain {
    spec: DomainSpec,
    space: ConfigSpace,
    whatif: WhatIfModel,
    pald: Pald,
    config: LoopConfig,
    x: Vec<f64>,
    prev: Option<(Vec<f64>, Vec<f64>)>,
    r: Vec<f64>,
    iteration: usize,
    windows_since_clear: u32,
    log: WindowLog,
    step: u64,
    last_end: Time,
    installed: Option<((Time, Time), Trace)>,
    backend: Box<dyn SchedulerBackend + Send>,
    /// What the last traced decision used, until [`TracedDomain::remeasure`].
    pending: Option<Pending>,
}

struct Pending {
    x: Vec<f64>,
    points: Vec<Vec<f64>>,
    segment: Trace,
    history_before: usize,
    had_sgd: bool,
}

impl TracedDomain {
    /// The wiring of `Domain::new`.
    pub fn new(spec: DomainSpec) -> Result<Self, String> {
        spec.validate()?;
        if spec.ingest_budget.is_some() {
            return Err("the traced mirror does not model ingest budgets".into());
        }
        let whatif = WhatIfModel::new(
            spec.cluster.clone(),
            spec.slos.clone(),
            WorkloadSource::replay(Trace::default()),
            spec.qs_window(),
        )
        .with_threads(1);
        whatif.set_cache_capacity(spec.cache_capacity);
        let space = ConfigSpace::new(spec.initial.tenants.len(), &spec.cluster)
            .with_policy(spec.initial.policy);
        let config = spec.loop_config();
        let x = space.encode(&spec.initial);
        let r = whatif.slos.thresholds().iter().map(|t| t.unwrap_or(f64::INFINITY)).collect();
        let pald = Pald::new(config.pald.clone());
        let backend = spec.initial.policy.backend();
        Ok(TracedDomain {
            spec,
            space,
            whatif,
            pald,
            config,
            x,
            prev: None,
            r,
            iteration: 0,
            windows_since_clear: 0,
            log: WindowLog::new(),
            step: 0,
            last_end: 0,
            installed: None,
            backend,
            pending: None,
        })
    }

    pub fn ingest(&mut self, rec: &Recorder, rows: &mut Rows, jobs: Vec<JobSpec>) {
        rows.ingested_jobs += jobs.len() as u64;
        let open = rec.enter("window.ingest");
        self.log.extend(jobs);
        rec.exit(open);
    }

    /// `Tempo::set_workload`.
    fn set_workload(&mut self, segment: &Trace) {
        self.whatif
            .set_source_window(WorkloadSource::replay(segment.clone()), self.spec.qs_window());
        self.pald.clear_history();
        self.prev = None;
        self.windows_since_clear += 1;
        if let Some(n) = self.config.clear_cache_windows {
            if self.windows_since_clear >= n.max(1) {
                self.whatif.clear_cache();
                self.windows_since_clear = 0;
            }
        }
    }

    /// `Domain::advance`, with `Tempo::iterate` inlined around a timed
    /// objective. Spans: `window.snapshot`, `control.set_workload`,
    /// `domain.observe`, `control.iterate` ⊃ `pald.step` ⊃ `whatif.*`.
    pub fn advance(&mut self, rec: &Recorder, rows: &mut Rows, now: Time) -> DecisionRecord {
        let end = now.max(self.spec.window_len).max(self.last_end);
        let start = end - self.spec.window_len;
        self.last_end = end;
        self.step += 1;
        let step = self.step;

        let open = rec.enter("window.snapshot");
        self.log.evict_before(start);
        let mut segment = self.log.trace_in(start, end);
        segment.shift_to_zero(start);
        rec.exit(open);
        rows.snapshots += 1;
        rows.snapshot_jobs += segment.len() as u64;

        if segment.is_empty() {
            return DecisionRecord {
                step,
                window: (start, end),
                skipped: true,
                iteration: self.iteration as u64,
                observed_qs: Vec::new(),
                reverted: false,
                config: self.space.decode(&self.x),
            };
        }

        let changed = match &self.installed {
            Some((w, seg)) => *w != (start, end) || *seg != segment,
            None => true,
        };
        if changed {
            let open = rec.enter("control.set_workload");
            self.set_workload(&segment);
            rec.exit(open);
            self.installed = Some(((start, end), segment.clone()));
        }

        let open = rec.enter("domain.observe");
        let observed = observe(
            &segment,
            &self.spec.cluster,
            &self.space.decode(&self.x),
            self.spec.observation_noise,
            tempo_serve::domain::observation_seed(self.spec.seed, step),
        );
        rec.exit(open);

        let (hits_before, misses_before, _) = self.whatif.cache_stats();
        let sims_before = self.whatif.sim_count();
        let history_before = self.pald.history_len();

        // `Tempo::iterate`.
        let open_iterate = rec.enter("control.iterate");
        let (w0, w1) = self.whatif.window;
        let observed_qs = self.whatif.slos.evaluate(&observed, w0, w1);
        let under_config = self.space.decode(&self.x);
        let iteration = self.iteration;
        self.iteration += 1;
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
        self.pald.record(self.space.encode(&under_config), observed_qs.clone());
        if self.config.ratchet {
            for (i, t) in self.whatif.slos.thresholds().iter().enumerate() {
                if t.is_none() && observed_qs[i].is_finite() {
                    self.r[i] = if self.r[i].is_finite() {
                        self.r[i].min(observed_qs[i])
                    } else {
                        observed_qs[i]
                    };
                }
            }
        }
        let base_x = self.x.clone();
        let objective = TimedObjective {
            inner: WhatIfObjective::new(&self.space, &self.whatif),
            rec,
            points: Mutex::new(Vec::new()),
        };
        let open_step = rec.enter("pald.step");
        let pald_step = self.pald.step(&objective, &base_x, &self.r);
        rec.exit(open_step);
        let points = objective.points.into_inner().expect("points lock");
        self.prev = Some((base_x.clone(), observed_qs.clone()));
        self.x = pald_step.x_new.clone();
        rec.exit(open_iterate);

        let (hits_after, misses_after, _) = self.whatif.cache_stats();
        rows.steps += 1;
        rows.evals += points.len() as u64;
        rows.sims += self.whatif.sim_count() - sims_before;
        rows.cache_hits += hits_after - hits_before;
        rows.cache_lookups += (hits_after - hits_before) + (misses_after - misses_before);

        if rec.enabled() {
            self.pending = Some(Pending {
                x: base_x,
                points,
                segment,
                history_before,
                had_sgd: pald_step.grad_norm > 1e-12,
            });
        }

        DecisionRecord {
            step,
            window: (start, end),
            skipped: false,
            iteration: iteration as u64,
            observed_qs,
            reverted,
            config: self.space.decode(&self.x),
        }
    }

    /// Calls the solver kernels, the predictor, the QS scans and the
    /// scheduler backend again on what the last decision used. The caller
    /// runs this after the decision's spans have closed.
    pub fn remeasure(&mut self, rows: &mut Rows) {
        let Some(Pending { x, points, segment, history_before, had_sgd }) = self.pending.take()
        else {
            return;
        };
        let (x, points, segment) = (&x[..], &points[..], &segment);
        let dim = self.space.dim();
        let k = self.whatif.k();
        let cfg = &self.config.pald;
        let radius = cfg.trust_radius * (dim as f64).sqrt();
        let bandwidth = cfg.bandwidth_mult * radius;

        // LOESS saw the history without the SGD proposal evaluated after it.
        let (hx, hf) = self.pald.history();
        let fit_len = hx.len() - usize::from(had_sgd);
        let t = Instant::now();
        let fit = loess_jacobian(&hx[..fit_len], &hf[..fit_len], x, bandwidth);
        rows.loess_ns += elapsed_ns(t);

        // The weight vector: max-min LP over the live violated rows, else
        // MGDA — the branch `Pald::step` took.
        if let Some((jac, fitted)) = std::hint::black_box(fit) {
            let gram = jac.gram();
            let gnorm_max = (0..k).map(|i| gram[(i, i)].sqrt()).fold(0.0_f64, f64::max);
            let live: Vec<usize> = (0..k)
                .filter(|&i| {
                    fitted[i] >= self.r[i] && gram[(i, i)].sqrt() > (1e-6 * gnorm_max).max(1e-12)
                })
                .collect();
            if live.is_empty() {
                let t = Instant::now();
                std::hint::black_box(min_norm_weights(&jac, 300));
                rows.mgda_ns += elapsed_ns(t);
            } else {
                let mut g_v = Matrix::zeros(live.len(), k);
                for (a, &i) in live.iter().enumerate() {
                    for j in 0..k {
                        g_v[(a, j)] = gram[(i, j)];
                    }
                }
                let t = Instant::now();
                std::hint::black_box(max_min_weights(&g_v, cfg.epsilon));
                rows.simplex_ns += elapsed_ns(t);
            }
        }

        // Projection of every point this step placed.
        let mut placed: Vec<Vec<f64>> = hx[history_before + 1..].to_vec();
        let t = Instant::now();
        for p in &mut placed {
            project_box_ball(p, 0.0, 1.0, x, radius);
        }
        rows.project_ns += elapsed_ns(t);
        std::hint::black_box(&placed);

        // Predictor and QS scans on the evaluated (trace, configuration)
        // pairs, with the horizon the What-if Model simulates to.
        let (w0, w1) = self.whatif.window;
        let horizon = w1.saturating_mul(2).max(w1 + 1);
        for p in points {
            let config = self.space.decode(p);
            let t = Instant::now();
            let schedule = predict_until(segment, &self.spec.cluster, &config, horizon);
            rows.predict_ns += elapsed_ns(t);
            rows.predict_runs += 1;
            rows.predict_tasks += schedule.num_tasks() as u64;
            let elems = qs_scan_elements();
            let t = Instant::now();
            std::hint::black_box(self.whatif.slos.evaluate(&schedule, w0, w1));
            rows.qs_ns += elapsed_ns(t);
            rows.qs_elems += qs_scan_elements() - elems;
            rows.qs_schedules += 1;
        }

        // The scheduler backend on demand vectors sampled from the window:
        // the tasks of the first quarter, half, ... of its jobs.
        let config = self.space.decode(x);
        let capacity = [
            self.spec.cluster.capacity(TaskKind::Map),
            self.spec.cluster.capacity(TaskKind::Reduce),
        ];
        let mut targets = Vec::new();
        for quarter in 1..=4 {
            let upto = segment.len() * quarter / 4;
            let mut demands: Vec<TenantDemand> = config
                .tenants
                .iter()
                .map(|t| TenantDemand {
                    weight: t.weight,
                    demand: [0, 0],
                    min_share: t.min_share,
                    max_share: t.max_share,
                    stamp: [u64::MAX; 2],
                })
                .collect();
            for job in &segment.jobs[..upto] {
                if let Some(d) = demands.get_mut(job.tenant as usize) {
                    d.demand[0] += job.map_count() as u32;
                    d.demand[1] += job.reduce_count() as u32;
                    d.stamp = [d.stamp[0].min(job.submit), d.stamp[1].min(job.submit)];
                }
            }
            let t = Instant::now();
            self.backend.allocate(&capacity, &demands, &mut targets);
            rows.sched_ns += elapsed_ns(t);
            rows.sched_calls += 1;
            std::hint::black_box(&targets);
        }
    }
}
