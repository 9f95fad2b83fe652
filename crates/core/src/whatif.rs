//! The What-if Model (§7): predicts QS metrics for a workload under a
//! candidate RM configuration.
//!
//! Prediction is split exactly as in Figure 3: the **Workload Generator**
//! supplies the workload (trace replay or statistical model), the **Schedule
//! Predictor** simulates the task schedule, and the QS metrics are evaluated
//! on the result. Because (SP1) minimizes *expectations*, the model can
//! average each candidate over several sampled workloads/noise draws. Every
//! evaluation simulates: PALD salts each probe with its own sample id, so no
//! (configuration, salt) pair is asked for twice and there is nothing to
//! memoize.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use tempo_qs::SloSet;
use tempo_sim::{ClusterSpec, NoiseModel, PreparedWindow, RmConfig, SimOptions};
use tempo_workload::time::Time;
use tempo_workload::{Trace, WorkloadModel};

/// Where the What-if Model's workloads come from (§7.1: "replaying
/// historical traces or using a statistical model of the workload").
#[derive(Debug, Clone)]
pub enum WorkloadSource {
    /// Replay a fixed trace (identical for every sample). Shared, not owned:
    /// every prediction sample borrows the same `Arc` instead of cloning the
    /// whole trace.
    Replay(Arc<Trace>),
    /// Sample fresh synthetic workloads from a model over `[start, end)`;
    /// each expectation sample uses a distinct generation seed.
    Model { model: WorkloadModel, start: Time, end: Time },
}

impl WorkloadSource {
    /// Replay source from an owned trace.
    pub fn replay(trace: Trace) -> Self {
        WorkloadSource::Replay(Arc::new(trace))
    }

    /// The trace sample `seed` simulates, validated and flattened. Panics
    /// on a trace that fails validation.
    fn prepare(&self, seed: u64) -> PreparedWindow {
        let prepared = match self {
            WorkloadSource::Replay(trace) => PreparedWindow::new(trace),
            WorkloadSource::Model { model, start, end } => {
                PreparedWindow::new(&model.generate(*start, *end, seed))
            }
        };
        prepared.expect("invalid trace")
    }

    /// A replayed trace, compiled once for every sample; `None` for a model,
    /// whose samples each draw their own.
    fn prepare_shared(&self) -> Option<PreparedWindow> {
        (!self.is_stochastic()).then(|| self.prepare(0))
    }

    /// Whether distinct samples actually differ (drives how many samples are
    /// worth running).
    fn is_stochastic(&self) -> bool {
        matches!(self, WorkloadSource::Model { .. })
    }
}

/// The What-if Model: workload source + cluster + SLOs → expected QS vector
/// per candidate configuration.
pub struct WhatIfModel {
    pub cluster: ClusterSpec,
    pub slos: SloSet,
    /// Written only by [`WhatIfModel::set_source_window`], so that
    /// `prepared` can never describe another trace than this one.
    source: WorkloadSource,
    /// QS evaluation window `[start, end)`.
    pub window: (Time, Time),
    /// Samples averaged per evaluation (the `E[·]` in (SP1)).
    pub samples: u32,
    /// Noise injected into predictor runs. [`NoiseModel::NONE`] gives the
    /// paper's deterministic time-warp predictor; non-zero noise lets
    /// experiments study PALD's robustness to noisy QS measurements.
    pub noise: NoiseModel,
    /// Simulation cutoff (defaults to 2× the window end, leaving room for
    /// straggler jobs to finish and count).
    pub horizon: Option<Time>,
    /// Worker-thread override for batched evaluation (`None` = `TEMPO_THREADS`
    /// env var, falling back to the machine's available parallelism).
    threads: Option<usize>,
    /// Persistent worker pool backing batched and nested-sample evaluation.
    /// Lazily built at first parallel use (sized by [`Self::batch_threads`]),
    /// or installed up front with [`Self::set_pool`] to share one pool's
    /// threads across many models (tempo-serve gives every domain shard a
    /// clone of the runtime's pool).
    pool: OnceLock<crate::pool::WorkerPool>,
    /// A replayed source's trace, validated and flattened once per
    /// installed window; every prediction sample (and the caller's
    /// observation run, see [`WhatIfModel::prepared_window`]) simulates it.
    /// Derived from `source`.
    prepared: Option<PreparedWindow>,
    /// Simulations run (diagnostic).
    sims: AtomicU64,
}

/// Telemetry families for the what-if layer (process-global aggregates).
mod obs {
    pub(super) fn sims() -> &'static tempo_obs::Counter {
        tempo_obs::counter!("tempo_whatif_sims_total", "Prediction simulations actually run")
    }
    pub(super) fn probe_batches() -> &'static tempo_obs::Counter {
        tempo_obs::counter!(
            "tempo_whatif_probe_batches_total",
            "Salted probe batches submitted by the optimizer"
        )
    }
    pub(super) fn probe_evals() -> &'static tempo_obs::Counter {
        tempo_obs::counter!(
            "tempo_whatif_probe_evals_total",
            "Configurations evaluated across probe batches"
        )
    }
}

/// Splitmix64-style mixer behind [`sample_seed`].
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let mut x = (h ^ v).wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Simulation seed for expectation sample `s` of an evaluation salted with
/// `salt`: `salt` selects a splitmix64 stream, `s` steps it, and the mixer's
/// avalanche decorrelates neighbours.
///
/// Replaces the old `salt * 1000 + s` spacing, which aliased as soon as
/// `samples >= 1000` (sample 1000 of salt 0 collided with sample 0 of
/// salt 1), silently correlating supposedly independent noisy observations.
/// The mixer is a bijection of `salt ^ (s+1)·golden`, so two (salt, sample)
/// pairs collide only if those inputs do — which neighbouring salts and
/// sample indices up to millions cannot produce (pinned by regression test
/// up to `samples = 4096`).
#[inline]
fn sample_seed(salt: u64, s: u64) -> u64 {
    mix(salt, s.wrapping_add(1).wrapping_mul(0x9E3779B97F4A7C15))
}

impl WhatIfModel {
    pub fn new(
        cluster: ClusterSpec,
        slos: SloSet,
        source: WorkloadSource,
        window: (Time, Time),
    ) -> Self {
        assert!(window.0 < window.1, "empty QS window");
        let prepared = source.prepare_shared();
        Self {
            cluster,
            slos,
            source,
            window,
            samples: 1,
            noise: NoiseModel::NONE,
            horizon: None,
            threads: None,
            pool: OnceLock::new(),
            prepared,
            sims: AtomicU64::new(0),
        }
    }

    /// Swaps the workload source and QS window, preparing a replayed trace
    /// once for every later sample. Panics if that trace fails validation.
    pub fn set_source_window(&mut self, source: WorkloadSource, window: (Time, Time)) {
        assert!(window.0 < window.1, "empty QS window");
        self.prepared = source.prepare_shared();
        self.source = source;
        self.window = window;
    }

    /// Where this model's workloads come from.
    pub fn source(&self) -> &WorkloadSource {
        &self.source
    }

    /// The replayed trace as compiled for simulation (`None` for a model
    /// source). Callers that simulate the installed window themselves — the
    /// serving layer's stand-in observation run — use it instead of
    /// preparing the same trace again.
    pub fn prepared_window(&self) -> Option<&PreparedWindow> {
        self.prepared.as_ref()
    }

    pub fn with_samples(mut self, samples: u32) -> Self {
        assert!(samples > 0, "need at least one sample");
        self.samples = samples;
        self
    }

    pub fn with_noise(mut self, noise: NoiseModel) -> Self {
        self.noise = noise;
        self
    }

    /// Pins the worker-thread count used by batched evaluation.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.set_threads(Some(threads));
        self
    }

    /// Ignored: the model keeps no memo. Kept only because the benchmark's
    /// traced mirror (`benchmark/src/traced.rs`) still calls it.
    pub fn set_cache_capacity(&self, _capacity: Option<usize>) {}

    /// Sets (or clears) the worker-thread override; `Some(1)` forces the
    /// serial path.
    pub fn set_threads(&mut self, threads: Option<usize>) {
        if let Some(t) = threads {
            assert!(t >= 1, "need at least one worker thread");
        }
        self.threads = threads;
    }

    /// Worker threads a batched evaluation will use: the explicit override,
    /// else the `TEMPO_THREADS` environment variable, else every available
    /// core.
    pub fn batch_threads(&self) -> usize {
        if let Some(t) = self.threads {
            return t;
        }
        if let Some(t) =
            std::env::var("TEMPO_THREADS").ok().and_then(|s| s.trim().parse::<usize>().ok())
        {
            if t >= 1 {
                return t;
            }
        }
        std::thread::available_parallelism().map_or(1, |n| n.get())
    }

    /// Installs a shared [`WorkerPool`] for this model's parallel
    /// evaluation. No-op if a pool is already installed (or was lazily
    /// built); call before the first evaluation. Sharing one pool across
    /// models (e.g. every tempo-serve domain shard) keeps total thread
    /// count at the pool's width instead of multiplying per model —
    /// results are unaffected either way, by the determinism contract.
    pub fn set_pool(&self, pool: crate::pool::WorkerPool) {
        let _ = self.pool.set(pool);
    }

    /// The persistent pool backing parallel evaluation, built on first use.
    fn pool(&self) -> &crate::pool::WorkerPool {
        self.pool.get_or_init(|| crate::pool::WorkerPool::new(self.batch_threads()))
    }

    /// Number of QS objectives.
    pub fn k(&self) -> usize {
        self.slos.len()
    }

    fn sim_horizon(&self) -> Time {
        self.horizon.unwrap_or_else(|| self.window.1.saturating_mul(2).max(self.window.1 + 1))
    }

    /// One prediction sample: realize workload, simulate, evaluate QS. The
    /// schedule lives in the simulating thread's recycled buffer and is
    /// scanned in place.
    fn sample_qs(&self, config: &RmConfig, sample: u64) -> Vec<f64> {
        self.sims.fetch_add(1, Ordering::Relaxed);
        obs::sims().inc();
        let drawn;
        let window = match &self.prepared {
            Some(window) => window,
            None => {
                drawn = self.source.prepare(0x5EED ^ sample);
                &drawn
            }
        };
        let opts =
            SimOptions { horizon: Some(self.sim_horizon()), noise: self.noise, seed: sample };
        window.simulate_with(&self.cluster, config, &opts, |schedule| {
            self.slos.evaluate(schedule, self.window.0, self.window.1)
        })
    }

    /// Expected QS vector for a configuration: the mean of `samples`
    /// simulations (one for fully deterministic models). `salt` selects
    /// which sample seeds are drawn.
    ///
    /// Multi-sample estimates fan the simulations out across the worker
    /// pool as nested tasks (this often runs *inside* a pooled batch
    /// evaluation; the pool's work-helping join makes that safe). Sample
    /// seeds are pre-assigned and the per-sample QS vectors are reduced in
    /// sample-index order, so the mean is bit-identical to the serial loop
    /// at any thread count.
    pub(crate) fn evaluate_salted(&self, config: &RmConfig, salt: u64) -> Vec<f64> {
        let n = if self.noise.is_none() && !self.source.is_stochastic() { 1 } else { self.samples };
        let per: Vec<Vec<f64>> = if n > 1 && self.batch_threads() > 1 {
            self.pool().map(n as usize, |s| self.sample_qs(config, sample_seed(salt, s as u64)))
        } else {
            (0..n as u64).map(|s| self.sample_qs(config, sample_seed(salt, s))).collect()
        };
        let mut acc = vec![0.0; self.k()];
        for qs in per {
            for (a, v) in acc.iter_mut().zip(qs) {
                *a += v;
            }
        }
        for a in &mut acc {
            *a /= n as f64;
        }
        acc
    }

    /// Evaluates `configs[i]` with salt `first_salt + i`, in parallel (the
    /// Optimizer explores several RM configurations per control-loop
    /// iteration — §8.2 uses 5). This is the model's one evaluation entry
    /// point: PALD passes its pre-assigned sample ids as the salts, so the
    /// result vector is byte-identical to evaluating serially in input
    /// order — regardless of the worker-thread count.
    ///
    /// The map runs on the persistent [`crate::pool::WorkerPool`], serially
    /// when one thread (or one item) makes fan-out pointless; result `i`
    /// always lands in slot `i`. A panicking evaluation poisons only this
    /// batch — the remaining evaluations still complete and the pool stays
    /// serviceable — before the panic re-raises here.
    pub fn evaluate_batch_salted(&self, configs: &[RmConfig], first_salt: u64) -> Vec<Vec<f64>> {
        obs::probe_batches().inc();
        obs::probe_evals().add(configs.len() as u64);
        let eval = |i: usize| self.evaluate_salted(&configs[i], first_salt.wrapping_add(i as u64));
        if self.batch_threads().min(configs.len()) <= 1 {
            return (0..configs.len()).map(eval).collect();
        }
        self.pool().map(configs.len(), eval)
    }

    /// Ignored: the model keeps no memo. Kept only because the benchmark's
    /// traced mirror (`benchmark/src/traced.rs`) still calls it.
    pub fn clear_cache(&self) {}

    /// Total simulations run so far (test/diagnostic hook).
    pub fn sim_count(&self) -> u64 {
        self.sims.load(Ordering::Relaxed)
    }

    /// Always `(0, 0, 0)`: the model keeps no memo. Kept only because the
    /// benchmark's traced mirror (`benchmark/src/traced.rs`) still reads its
    /// `whatif.cache_hit_share` row from it.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (0, 0, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempo_qs::{QsKind, SloSpec};
    use tempo_sim::TenantConfig;
    use tempo_workload::synthetic::ec2_experiment_model;
    use tempo_workload::time::{HOUR, MIN, SEC};
    use tempo_workload::trace::{JobSpec, TaskSpec};

    fn slos() -> SloSet {
        SloSet::new(vec![
            SloSpec::new(Some(0), QsKind::DeadlineMiss { gamma: 0.25 }).with_threshold(0.0),
            SloSpec::new(Some(1), QsKind::AvgResponseTime),
        ])
    }

    fn replay_model() -> WhatIfModel {
        let trace = Trace::new(vec![
            JobSpec::new(0, 0, 0, vec![TaskSpec::map(30 * SEC)]).with_deadline(2 * MIN),
            JobSpec::new(1, 1, 10 * SEC, vec![TaskSpec::map(60 * SEC)]),
        ]);
        WhatIfModel::new(
            ClusterSpec::new(2, 1),
            slos(),
            WorkloadSource::replay(trace),
            (0, 10 * MIN),
        )
    }

    #[test]
    fn replay_evaluation_is_deterministic() {
        let m = replay_model();
        let cfg = RmConfig::fair(2);
        let a = m.evaluate_salted(&cfg, 0);
        let b = m.evaluate_salted(&cfg, 1);
        assert_eq!(a, b, "a noiseless replay draws nothing from its salt");
        assert_eq!(m.sim_count(), 2, "every evaluation simulates");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], 0.0, "deadline met");
        assert!((a[1] - 60.0).abs() < 1e-9, "tenant 1 ran unobstructed");
    }

    #[test]
    fn config_changes_change_qs() {
        let m = replay_model();
        let fair = m.evaluate_salted(&RmConfig::fair(2), 0);
        // Starve tenant 1 to one slot... cluster only has 2 map slots; cap
        // tenant 1 to share with tenant 0 running first.
        let capped = RmConfig::new(vec![
            TenantConfig::fair_default(),
            TenantConfig::fair_default().with_max_share(1, 1),
        ]);
        let qs_capped = m.evaluate_salted(&capped, 0);
        // Same deadline outcome; response time unchanged here (slots free),
        // but vectors must be well-formed.
        assert_eq!(qs_capped.len(), 2);
        assert!(qs_capped[1] >= fair[1] - 1e-9);
    }

    #[test]
    fn model_source_averages_over_workload_draws() {
        let m = WhatIfModel::new(
            ClusterSpec::new(40, 20),
            slos(),
            WorkloadSource::Model { model: ec2_experiment_model(0.3), start: 0, end: HOUR },
            (0, HOUR),
        )
        .with_samples(3);
        let cfg = RmConfig::fair(2);
        let a = m.evaluate_salted(&cfg, 0);
        let b = m.evaluate_salted(&cfg, 0);
        assert_eq!(a, b, "same salt ⇒ same expectation estimate");
        let c = m.evaluate_salted(&cfg, 7);
        assert_ne!(a, c, "different salt ⇒ different draws");
        assert!(a[1] > 0.0, "best-effort AJR should be positive");
    }

    #[test]
    fn batch_matches_serial() {
        let m = replay_model();
        let cfgs = vec![
            RmConfig::fair(2),
            RmConfig::new(vec![
                TenantConfig::fair_default().with_weight(3.0),
                TenantConfig::fair_default(),
            ]),
            RmConfig::new(vec![
                TenantConfig::fair_default(),
                TenantConfig::fair_default().with_weight(3.0),
            ]),
        ];
        let batch = m.evaluate_batch_salted(&cfgs, 5);
        for (i, (cfg, expect)) in cfgs.iter().zip(&batch).enumerate() {
            assert_eq!(&m.evaluate_salted(cfg, 5 + i as u64), expect);
        }
    }

    #[test]
    fn noisy_predictor_changes_results() {
        let m = replay_model().with_noise(NoiseModel::production()).with_samples(2);
        let qs = m.evaluate_salted(&RmConfig::fair(2), 0);
        assert_eq!(qs.len(), 2);
        assert_eq!(m.sim_count(), 2, "a noisy evaluation runs every sample");
    }

    /// Regression for the pre-splitmix seed schedule `salt * 1000 + s`,
    /// which aliased whenever `samples >= 1000` (salt 0 sample 1000 ==
    /// salt 1 sample 0): distinct `(salt, sample)` pairs must map to
    /// distinct seeds well past any realistic sample count.
    #[test]
    fn sample_seeds_never_alias() {
        let mut seen = std::collections::HashSet::new();
        for salt in 0..=64u64 {
            for s in 0..4096u64 {
                assert!(
                    seen.insert(sample_seed(salt, s)),
                    "seed collision at salt={salt} sample={s}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "empty QS window")]
    fn rejects_empty_window() {
        let _ = WhatIfModel::new(
            ClusterSpec::new(1, 1),
            slos(),
            WorkloadSource::replay(Trace::default()),
            (MIN, MIN),
        );
    }
}
