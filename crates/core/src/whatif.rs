//! The What-if Model (§7): predicts QS metrics for a workload under a
//! candidate RM configuration.
//!
//! Prediction is split exactly as in Figure 3: the **Workload Generator**
//! supplies the workload (trace replay or statistical model), the **Schedule
//! Predictor** simulates the task schedule, and the QS metrics are evaluated
//! on the result. Because (SP1) minimizes *expectations*, the model can
//! average each candidate over several sampled workloads/noise draws, and a
//! memo cache avoids re-simulating configurations the optimizer revisits.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use tempo_qs::SloSet;
use tempo_sim::{ClusterSpec, NoiseModel, PreparedWindow, RmConfig, SimOptions};
use tempo_workload::time::Time;
use tempo_workload::{Trace, WorkloadModel, NUM_KINDS};

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
    /// QS evaluation window `[start, end)`. Read freely; to change it, call
    /// [`WhatIfModel::set_source_window`] (or [`WhatIfModel::refresh_context`]
    /// after a direct write), or memo entries are filed under the old window.
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
    /// Content hashes of (source, window) — the memo key's and the
    /// collision tag's halves — mixed into every lookup so cached
    /// predictions are scoped to the workload context they were computed
    /// against. Kept in sync by [`WhatIfModel::set_source_window`] /
    /// [`WhatIfModel::refresh_context`].
    context: MemoKey,
    /// A replayed source's trace, validated and flattened once per
    /// installed window; every prediction sample (and the caller's
    /// observation run, see [`WhatIfModel::prepared_window`]) simulates it.
    /// Derived from `source`, kept in sync with `context`.
    prepared: Option<PreparedWindow>,
    cache: MemoCache,
    /// Simulations actually run (diagnostic: cache-hit/dedup accounting).
    sims: AtomicU64,
}

/// Telemetry families for the what-if layer. Process-global aggregates; the
/// per-model [`MemoCache`] atomics below feed per-domain `DomainMetrics`.
mod obs {
    pub(super) fn cache_hits() -> &'static tempo_obs::Counter {
        tempo_obs::counter!(
            "tempo_whatif_cache_hits_total",
            "Memoized what-if evaluations served from the cache"
        )
    }
    pub(super) fn cache_misses() -> &'static tempo_obs::Counter {
        tempo_obs::counter!(
            "tempo_whatif_cache_misses_total",
            "What-if evaluations that had to simulate"
        )
    }
    pub(super) fn cache_evictions() -> &'static tempo_obs::Counter {
        tempo_obs::counter!(
            "tempo_whatif_cache_evictions_total",
            "Memo-cache entries evicted by the LRU watermark"
        )
    }
    pub(super) fn cache_collisions() -> &'static tempo_obs::Counter {
        tempo_obs::counter!(
            "tempo_whatif_cache_collisions_total",
            "Memo lookups that found another configuration under their 64-bit key and re-simulated"
        )
    }
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

/// Number of independently locked cache shards. Sixteen keeps lock
/// contention negligible for any plausible probe batch width while staying
/// cheap to scan for `len()`.
const CACHE_SHARDS: usize = 16;

/// The two hashes of one memo lookup, folded over the same fields by
/// independent mixers: `key` addresses the slot, `tag` proves the slot was
/// installed for the same (context, configuration) and not for another one
/// that shares the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemoKey {
    key: u64,
    tag: u64,
}

impl MemoKey {
    fn seeded(seed: u64) -> Self {
        Self { key: seed, tag: !seed }
    }

    #[inline]
    fn fold(self, v: u64) -> Self {
        Self { key: mix(self.key, v), tag: mix_tag(self.tag, v) }
    }

    /// The lookup key of a configuration (`config`) under a context (`self`).
    fn join(self, config: MemoKey) -> Self {
        Self { key: mix(self.key, config.key), tag: mix_tag(self.tag, config.tag) }
    }
}

/// One memoized configuration × prediction context: the QS vector once
/// computed, the lookup's second hash, and (in debug builds) the full key
/// encoding, so 64-bit key collisions are detected instead of silently
/// returning the wrong prediction. `last_used` is the LRU clock reading of
/// the most recent lookup — the eviction watermark's victim-selection key.
struct CacheSlot {
    qs: OnceLock<Vec<f64>>,
    last_used: AtomicU64,
    /// [`MemoKey::tag`] of the lookup that installed the slot, verified on
    /// every later lookup in every build. `None` for entries imported from a
    /// snapshot, which carries keys only (their values were verified when
    /// first computed).
    tag: Option<u64>,
    /// `None` for entries imported from a snapshot, whose original full
    /// encoding is no longer available (their values were collision-checked
    /// when first computed).
    #[cfg(debug_assertions)]
    encoding: Option<String>,
}

/// Sharded memo cache keyed by a 64-bit hash of (workload/window context,
/// RM configuration).
///
/// The context half of the key lets entries from different re-tuning windows
/// coexist: [`crate::Tempo::set_workload`] swaps the window without clearing,
/// and revisiting an earlier window re-hits its entries.
///
/// Concurrency contract: the shard lock is held only to look up / insert the
/// slot, never during simulation. The slot's `OnceLock` serializes
/// computation per configuration — the first evaluator wins and everyone
/// else blocks until the value lands, so a batch containing the same
/// configuration twice simulates it exactly once.
#[derive(Default)]
struct MemoCache {
    shards: [Mutex<HashMap<u64, Arc<CacheSlot>>>; CACHE_SHARDS],
    /// Monotonic LRU clock; every lookup stamps its slot with a fresh tick.
    tick: AtomicU64,
    /// Total-entry watermark (0 = unbounded). Long-running serve domains
    /// accumulate contexts across re-tuning windows; the watermark evicts
    /// least-recently-used entries instead of growing without bound.
    capacity: AtomicUsize,
    /// Lifetime hit/miss/eviction tallies. Like `WhatIfModel::sims` these
    /// are diagnostics, not state: they are never snapshotted, so restored
    /// models start from zero and snapshot bytes stay identical.
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Files every entry under key 0, so that distinct configurations meet
    /// in one slot and only their tags tell them apart.
    #[cfg(test)]
    collide_keys: bool,
}

impl MemoCache {
    /// Looks up (or installs) the slot for `config` under `context`.
    /// `None` when the key's slot belongs to another (context,
    /// configuration) — a 64-bit key collision, caught by the tag; the
    /// caller simulates instead of reusing that slot's QS vector.
    fn slot(&self, context: MemoKey, config: &RmConfig) -> Option<Arc<CacheSlot>> {
        let MemoKey { key: hash, tag } = context.join(config_key(config));
        #[cfg(test)]
        let hash = if self.collide_keys { 0 } else { hash };
        let now = self.tick.fetch_add(1, Ordering::Relaxed);
        let slot = {
            let mut shard = self.shards[hash as usize % CACHE_SHARDS].lock();
            let slot = Arc::clone(shard.entry(hash).or_insert_with(|| {
                Arc::new(CacheSlot {
                    qs: OnceLock::new(),
                    last_used: AtomicU64::new(now),
                    tag: Some(tag),
                    #[cfg(debug_assertions)]
                    encoding: Some(full_encoding(context.key, config)),
                })
            }));
            if slot.tag.is_some_and(|owner| owner != tag) {
                return None;
            }
            slot.last_used.store(now, Ordering::Relaxed);
            self.enforce_watermark(&mut shard, hash);
            slot
        };
        // Key and tag both matched: only the full encoding can still tell
        // two configurations apart.
        #[cfg(debug_assertions)]
        if let Some(encoding) = &slot.encoding {
            assert_eq!(
                *encoding,
                full_encoding(context.key, config),
                "64-bit memo key and tag collision on {hash:#018x}; widen the key"
            );
        }
        Some(slot)
    }

    /// Evicts least-recently-used entries from `shard` until it is within
    /// its share of the watermark. The just-touched `keep` entry is never a
    /// victim. Evicting a still-computing slot is safe: waiters hold their
    /// own `Arc` and finish normally — only future lookups re-simulate.
    fn enforce_watermark(&self, shard: &mut HashMap<u64, Arc<CacheSlot>>, keep: u64) {
        let capacity = self.capacity.load(Ordering::Relaxed);
        if capacity == 0 {
            return;
        }
        let per_shard = capacity.div_ceil(CACHE_SHARDS).max(1);
        while shard.len() > per_shard {
            let victim = shard
                .iter()
                .filter(|(k, _)| **k != keep)
                .min_by_key(|(_, s)| s.last_used.load(Ordering::Relaxed))
                .map(|(k, _)| *k);
            match victim {
                Some(k) => {
                    shard.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    obs::cache_evictions().inc();
                }
                None => break,
            };
        }
    }

    /// Drops every entry across all contexts.
    fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Number of fully computed entries.
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().values().filter(|slot| slot.qs.get().is_some()).count())
            .sum()
    }

    /// Every fully computed `(key, qs)` pair, key-sorted so snapshots are
    /// byte-stable across runs.
    fn export(&self) -> Vec<(u64, Vec<f64>)> {
        let mut out: Vec<(u64, Vec<f64>)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.lock()
                    .iter()
                    .filter_map(|(k, slot)| slot.qs.get().map(|qs| (*k, qs.clone())))
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_by_key(|(k, _)| *k);
        out
    }

    /// Re-installs exported entries as already-computed slots. Existing keys
    /// keep their current value (first writer wins, matching the OnceLock
    /// discipline).
    fn import(&self, entries: &[(u64, Vec<f64>)]) {
        for (key, qs) in entries {
            let now = self.tick.fetch_add(1, Ordering::Relaxed);
            let mut shard = self.shards[*key as usize % CACHE_SHARDS].lock();
            shard.entry(*key).or_insert_with(|| {
                let slot = CacheSlot {
                    qs: OnceLock::new(),
                    last_used: AtomicU64::new(now),
                    tag: None,
                    #[cfg(debug_assertions)]
                    encoding: None,
                };
                slot.qs.set(qs.clone()).expect("fresh slot accepts its value");
                Arc::new(slot)
            });
            self.enforce_watermark(&mut shard, *key);
        }
    }
}

/// Splitmix64-style field mixer shared by the memo-key hashes: strong enough
/// avalanche that accidental collisions are ~impossible at optimizer scales
/// (billions of keys for a 50% birthday bound); every lookup verifies the
/// [`mix_tag`] hash anyway, and debug builds the full encoding.
#[inline]
fn mix(h: u64, v: u64) -> u64 {
    let mut x = (h ^ v).wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// The field mixer of [`MemoKey::tag`]: murmur3's finalizer over a rotated
/// state, sharing no constant, shift or combining step with [`mix`], so
/// that two field sequences colliding under one mixer have no reason to
/// collide under the other.
#[inline]
fn mix_tag(h: u64, v: u64) -> u64 {
    let mut x = (h.rotate_left(29) ^ v).wrapping_mul(0xFF51AFD7ED558CCD);
    x = (x ^ (x >> 33)).wrapping_mul(0xC4CEB9FE1A85EC53);
    x ^ (x >> 33)
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

/// Full (context, config) encoding backing the debug collision check.
#[cfg(debug_assertions)]
fn full_encoding(token: u64, config: &RmConfig) -> String {
    format!("{token:#018x}|{}", serde_json::to_string(config).expect("config serializes"))
}

/// Content hashes of the prediction context — workload source identity plus
/// the QS window — mixed into every memo lookup. Replay sources hash the
/// trace *content*, so re-installing an equal trace (e.g. returning to an
/// earlier re-tuning window) lands on the same keys and re-hits the cache.
fn context_key(source: &WorkloadSource, window: (Time, Time)) -> MemoKey {
    let mut h = MemoKey::seeded(0xC0_11_7E_57).fold(window.0).fold(window.1);
    match source {
        WorkloadSource::Replay(trace) => {
            h = h.fold(trace.jobs.len() as u64);
            for j in &trace.jobs {
                h = h.fold(j.id);
                h = h.fold(j.tenant as u64);
                h = h.fold(j.submit);
                h = h.fold(j.deadline.map_or(u64::MAX, |d| d ^ 0x5851F42D4C957F2D));
                h = h.fold(j.slowstart.to_bits());
                h = h.fold(j.tasks.len() as u64);
                for t in &j.tasks {
                    h = h.fold(t.kind.index() as u64);
                    h = h.fold(t.duration);
                }
            }
        }
        // Stochastic sources are never memoized; a coarse tag suffices.
        WorkloadSource::Model { start, end, .. } => {
            h = h.fold(1).fold(*start).fold(*end);
        }
    }
    h
}

/// Structural hashes of an RM configuration — the config half of a memo
/// lookup.
fn config_key(config: &RmConfig) -> MemoKey {
    let policy_tag = match config.policy {
        tempo_sim::SchedPolicy::FairShare => 0u64,
        tempo_sim::SchedPolicy::Drf => 1,
        tempo_sim::SchedPolicy::Capacity => 2,
        tempo_sim::SchedPolicy::Fifo => 3,
    };
    let mut h = MemoKey::seeded(0x7E3A90_u64).fold(policy_tag).fold(config.tenants.len() as u64);
    let opt = |t: Option<Time>| t.map_or(u64::MAX, |v| v ^ 0x5851F42D4C957F2D);
    for t in &config.tenants {
        h = h.fold(t.weight.to_bits());
        for pool in 0..NUM_KINDS {
            h = h.fold(t.min_share[pool] as u64);
            h = h.fold(t.max_share[pool] as u64);
        }
        h = h.fold(opt(t.fair_timeout));
        h = h.fold(opt(t.min_timeout));
    }
    h
}

impl WhatIfModel {
    pub fn new(
        cluster: ClusterSpec,
        slos: SloSet,
        source: WorkloadSource,
        window: (Time, Time),
    ) -> Self {
        assert!(window.0 < window.1, "empty QS window");
        let context = context_key(&source, window);
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
            context,
            prepared,
            cache: MemoCache::default(),
            sims: AtomicU64::new(0),
        }
    }

    /// Swaps the workload source and QS window, re-deriving the memo-cache
    /// context. Cached predictions for *other* contexts stay: re-tuning
    /// loops that revisit a window (or re-install an identical trace) keep
    /// their hits instead of re-simulating from scratch.
    pub fn set_source_window(&mut self, source: WorkloadSource, window: (Time, Time)) {
        assert!(window.0 < window.1, "empty QS window");
        self.source = source;
        self.window = window;
        self.refresh_context();
    }

    /// Re-derives the memo context and the prepared window from the current
    /// source and `window`. Call after writing `window` directly (prefer
    /// [`WhatIfModel::set_source_window`], which does it for you). Panics if
    /// a replayed trace fails validation.
    pub fn refresh_context(&mut self) {
        self.context = context_key(&self.source, self.window);
        self.prepared = self.source.prepare_shared();
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

    /// Files every memo entry under one primary key, so that only the tags
    /// keep configurations apart.
    #[cfg(test)]
    fn with_colliding_keys(mut self) -> Self {
        self.cache.collide_keys = true;
        self
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

    /// Bounds the memo cache to roughly `capacity` entries with
    /// least-recently-used eviction (see [`WhatIfModel::set_cache_capacity`]).
    pub fn with_cache_capacity(self, capacity: usize) -> Self {
        self.set_cache_capacity(Some(capacity));
        self
    }

    /// Sets (or clears, with `None`) the memo-cache LRU watermark. The bound
    /// is enforced per shard, so the effective ceiling is `capacity` rounded
    /// up to a multiple of the shard count. Eviction only affects *when* a
    /// configuration is re-simulated, never the values returned —
    /// deterministic evaluations are identical either way.
    pub fn set_cache_capacity(&self, capacity: Option<usize>) {
        self.cache.capacity.store(capacity.unwrap_or(0), Ordering::Relaxed);
    }

    /// The configured LRU watermark (`None` = unbounded).
    pub fn cache_capacity(&self) -> Option<usize> {
        match self.cache.capacity.load(Ordering::Relaxed) {
            0 => None,
            n => Some(n),
        }
    }

    /// Exports every computed memo entry as `(key, qs)` pairs, key-sorted —
    /// the warm-cache half of a daemon snapshot. Keys are the full 64-bit
    /// (context, config) hashes, so entries re-imported into a model with
    /// the same workload/window context hit immediately.
    pub fn export_cache(&self) -> Vec<(u64, Vec<f64>)> {
        self.cache.export()
    }

    /// Re-installs entries exported by [`WhatIfModel::export_cache`].
    /// Existing keys keep their current value.
    pub fn import_cache(&self, entries: &[(u64, Vec<f64>)]) {
        self.cache.import(entries);
    }

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

    /// Uncached expectation estimate: mean of `samples` simulations (one for
    /// fully deterministic models).
    ///
    /// Multi-sample estimates fan the simulations out across the worker
    /// pool as nested tasks (this often runs *inside* a pooled batch
    /// evaluation; the pool's work-helping join makes that safe). Sample
    /// seeds are pre-assigned and the per-sample QS vectors are reduced in
    /// sample-index order, so the mean is bit-identical to the serial loop
    /// at any thread count.
    fn compute_qs(&self, config: &RmConfig, salt: u64) -> Vec<f64> {
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

    /// Expected QS vector for a configuration (mean over samples), memoized.
    ///
    /// `salt` perturbs which sample seeds are drawn — optimizers that *want*
    /// independent noisy observations (to average across control-loop
    /// iterations) pass distinct salts and bypass the memo cache.
    pub fn evaluate_salted(&self, config: &RmConfig, salt: u64) -> Vec<f64> {
        let deterministic = salt == 0 && self.noise.is_none() && !self.source.is_stochastic();
        if !deterministic {
            return self.compute_qs(config, salt);
        }
        // First writer wins; concurrent evaluators of the same config block
        // on the OnceLock instead of racing duplicate simulations.
        let Some(slot) = self.cache.slot(self.context, config) else {
            // The key's slot holds another configuration's QS vector.
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            obs::cache_misses().inc();
            obs::cache_collisions().inc();
            return self.compute_qs(config, 0);
        };
        // Approximate under contention (two threads may both tally a miss
        // before one wins the OnceLock); the tallies are diagnostics, never
        // inputs to control decisions.
        if slot.qs.get().is_some() {
            self.cache.hits.fetch_add(1, Ordering::Relaxed);
            obs::cache_hits().inc();
        } else {
            self.cache.misses.fetch_add(1, Ordering::Relaxed);
            obs::cache_misses().inc();
        }
        slot.qs.get_or_init(|| self.compute_qs(config, 0)).clone()
    }

    /// Expected QS vector with the default salt.
    pub fn evaluate(&self, config: &RmConfig) -> Vec<f64> {
        self.evaluate_salted(config, 0)
    }

    /// Evaluates many candidates in parallel (the Optimizer explores several
    /// RM configurations per control-loop iteration — §8.2 uses 5), all with
    /// the default salt. Results are in input order; duplicate
    /// configurations in a deterministic batch simulate at most once (the
    /// memo cache serializes them).
    pub fn evaluate_batch(&self, configs: &[RmConfig]) -> Vec<Vec<f64>> {
        self.batch_map(configs.len(), |i| self.evaluate(&configs[i]))
    }

    /// Evaluates `configs[i]` with salt `first_salt + i`, in parallel. This
    /// is PALD's probe-batch entry point: the salts are the pre-assigned
    /// sample ids, so the result vector is byte-identical to calling
    /// [`Self::evaluate_salted`] serially in input order — regardless of the
    /// worker-thread count.
    pub fn evaluate_batch_salted(&self, configs: &[RmConfig], first_salt: u64) -> Vec<Vec<f64>> {
        obs::probe_batches().inc();
        obs::probe_evals().add(configs.len() as u64);
        self.batch_map(configs.len(), |i| {
            self.evaluate_salted(&configs[i], first_salt.wrapping_add(i as u64))
        })
    }

    /// Order-preserving parallel map over `0..n` evaluations on the
    /// persistent [`crate::pool::WorkerPool`]; serial when one thread (or
    /// one item) makes fan-out pointless. Result `i` always lands in slot
    /// `i`, so output is placement-independent. A panicking evaluation
    /// poisons only its own slot's batch — the remaining evaluations still
    /// complete and the pool stays serviceable — before the panic re-raises
    /// here.
    fn batch_map<F>(&self, n: usize, eval: F) -> Vec<Vec<f64>>
    where
        F: Fn(usize) -> Vec<f64> + Sync,
    {
        if self.batch_threads().min(n) <= 1 {
            return (0..n).map(eval).collect();
        }
        self.pool().map(n, eval)
    }

    /// Invalidates the memo cache across every context. Rarely needed now
    /// that the key carries the workload/window identity — use it after
    /// mutating something the context hash does *not* cover (e.g. `horizon`,
    /// `cluster`, or `slos` in place), or to bound memory across many
    /// windows.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Number of memoized evaluations (test/diagnostic hook).
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Total simulations run so far (test/diagnostic hook: batch dedup and
    /// cache hits keep this below the evaluation count).
    pub fn sim_count(&self) -> u64 {
        self.sims.load(Ordering::Relaxed)
    }

    /// Lifetime memo-cache `(hits, misses, evictions)` for this model. Like
    /// [`Self::sim_count`] these reset to zero on snapshot restore — they
    /// describe work done by this process, not cache contents.
    pub fn cache_stats(&self) -> (u64, u64, u64) {
        (
            self.cache.hits.load(Ordering::Relaxed),
            self.cache.misses.load(Ordering::Relaxed),
            self.cache.evictions.load(Ordering::Relaxed),
        )
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
    fn replay_evaluation_is_deterministic_and_cached() {
        let m = replay_model();
        let cfg = RmConfig::fair(2);
        let a = m.evaluate(&cfg);
        assert_eq!(m.cache_len(), 1);
        let b = m.evaluate(&cfg);
        assert_eq!(a, b);
        assert_eq!(m.cache_len(), 1, "second call hits the cache");
        assert_eq!(a.len(), 2);
        assert_eq!(a[0], 0.0, "deadline met");
        assert!((a[1] - 60.0).abs() < 1e-9, "tenant 1 ran unobstructed");
    }

    #[test]
    fn config_changes_change_qs() {
        let m = replay_model();
        let fair = m.evaluate(&RmConfig::fair(2));
        // Starve tenant 1 to one slot... cluster only has 2 map slots; cap
        // tenant 1 to share with tenant 0 running first.
        let capped = RmConfig::new(vec![
            TenantConfig::fair_default(),
            TenantConfig::fair_default().with_max_share(1, 1),
        ]);
        let qs_capped = m.evaluate(&capped);
        assert_eq!(m.cache_len(), 2);
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
        let a = m.evaluate(&cfg);
        let b = m.evaluate(&cfg);
        assert_eq!(a, b, "same salt ⇒ same expectation estimate");
        let c = m.evaluate_salted(&cfg, 7);
        assert_ne!(a, c, "different salt ⇒ different draws");
        assert_eq!(m.cache_len(), 0, "stochastic sources are not memoized");
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
        let batch = m.evaluate_batch(&cfgs);
        for (cfg, expect) in cfgs.iter().zip(&batch) {
            assert_eq!(&m.evaluate(cfg), expect);
        }
    }

    #[test]
    fn cache_entries_survive_window_swaps_and_rehit() {
        let mut m = replay_model();
        let cfg = RmConfig::fair(2);
        let first = m.evaluate(&cfg);
        assert_eq!(m.sim_count(), 1);

        // Shrink the window: same trace, different context → re-simulate.
        let original_source = m.source.clone();
        m.set_source_window(original_source.clone(), (0, 5 * MIN));
        let narrow = m.evaluate(&cfg);
        assert_eq!(m.sim_count(), 2, "window change is a distinct memo context");
        assert_eq!(m.cache_len(), 2, "old window's entry survives");

        // Swap back: pure hit, no third simulation.
        m.set_source_window(original_source, (0, 10 * MIN));
        assert_eq!(m.evaluate(&cfg), first);
        assert_eq!(m.sim_count(), 2, "revisited window re-hit its entry");

        // A content-identical trace built from scratch lands on the same
        // keys (the token hashes trace content, not identity).
        let rebuilt = Trace::new(vec![
            JobSpec::new(0, 0, 0, vec![TaskSpec::map(30 * SEC)]).with_deadline(2 * MIN),
            JobSpec::new(1, 1, 10 * SEC, vec![TaskSpec::map(60 * SEC)]),
        ]);
        m.set_source_window(WorkloadSource::replay(rebuilt), (0, 10 * MIN));
        assert_eq!(m.evaluate(&cfg), first);
        assert_eq!(m.sim_count(), 2, "equal content ⇒ equal context token ⇒ hit");
        let _ = narrow;
    }

    #[test]
    fn noisy_predictor_changes_results() {
        let mut m = replay_model();
        m = m.with_noise(NoiseModel::production()).with_samples(2);
        let qs = m.evaluate(&RmConfig::fair(2));
        assert_eq!(qs.len(), 2);
        assert_eq!(m.cache_len(), 0, "noisy evaluations are not memoized");
    }

    #[test]
    fn lru_watermark_bounds_entries_and_keeps_hot_ones() {
        let m = replay_model().with_cache_capacity(CACHE_SHARDS);
        // Per-shard bound is 1; generate enough distinct configs that some
        // shard sees more than one key and must evict.
        let configs: Vec<RmConfig> = (0..64)
            .map(|i| {
                RmConfig::new(vec![
                    TenantConfig::fair_default().with_weight(1.0 + i as f64),
                    TenantConfig::fair_default(),
                ])
            })
            .collect();
        for cfg in &configs {
            m.evaluate(cfg);
        }
        assert!(m.cache_len() <= CACHE_SHARDS, "watermark exceeded: {} entries", m.cache_len());
        assert!(m.sim_count() >= 64, "every distinct config simulated at least once");

        // A re-evaluated evicted config re-simulates but returns the same
        // value: eviction is invisible except for the extra work.
        let sims = m.sim_count();
        let again = m.evaluate(&configs[0]);
        assert_eq!(again, replay_model().evaluate(&configs[0]));
        assert!(m.sim_count() >= sims, "values never change, only re-simulation count");
    }

    #[test]
    fn export_import_round_trips_warm_entries() {
        let m = replay_model();
        let cfg_a = RmConfig::fair(2);
        let cfg_b = RmConfig::new(vec![
            TenantConfig::fair_default().with_weight(3.0),
            TenantConfig::fair_default(),
        ]);
        let qs_a = m.evaluate(&cfg_a);
        let qs_b = m.evaluate(&cfg_b);
        let exported = m.export_cache();
        assert_eq!(exported.len(), 2);
        assert!(exported.windows(2).all(|w| w[0].0 < w[1].0), "key-sorted for stable snapshots");

        // A fresh model with the same context answers from the imported
        // entries without simulating.
        let fresh = replay_model();
        fresh.import_cache(&exported);
        assert_eq!(fresh.cache_len(), 2);
        assert_eq!(fresh.evaluate(&cfg_a), qs_a);
        assert_eq!(fresh.evaluate(&cfg_b), qs_b);
        assert_eq!(fresh.sim_count(), 0, "warm restore: no re-simulation");
        // Importing on top of existing entries is idempotent.
        fresh.import_cache(&exported);
        assert_eq!(fresh.cache_len(), 2);
    }

    #[test]
    fn key_collisions_resimulate_instead_of_sharing_a_slot() {
        // One map slot: under plain fair sharing tenant 1 queues behind
        // tenant 0's task; with a guarantee and a timeout it preempts it.
        let model = || {
            let mut m = replay_model();
            m.cluster = ClusterSpec::new(1, 1);
            m
        };
        let fair = RmConfig::fair(2);
        let preempting = RmConfig::new(vec![
            TenantConfig::fair_default(),
            TenantConfig::fair_default().with_min_share(1, 0).with_min_timeout(5 * SEC),
        ]);
        let qs_fair = model().evaluate(&fair);
        let qs_preempting = model().evaluate(&preempting);
        assert_ne!(qs_fair, qs_preempting, "the two configurations must be told apart");

        tempo_obs::set_enabled(true);
        let collisions_before = obs::cache_collisions().get();
        let m = model().with_colliding_keys();
        assert_eq!(m.evaluate(&fair), qs_fair);
        assert_eq!(m.sim_count(), 1);
        // The second configuration finds the first one's slot under its key:
        // the tag differs, so it simulates — every time — and is never
        // handed the other vector.
        assert_eq!(m.evaluate(&preempting), qs_preempting);
        assert_eq!(m.evaluate(&preempting), qs_preempting);
        assert_eq!(m.sim_count(), 3);
        // The slot's owner still hits.
        assert_eq!(m.evaluate(&fair), qs_fair);
        assert_eq!(m.sim_count(), 3);
        assert_eq!(m.cache_len(), 1);
        assert_eq!(m.cache_stats(), (1, 3, 0));
        assert!(obs::cache_collisions().get() >= collisions_before + 2);
        tempo_obs::set_enabled(false);
    }

    #[test]
    fn tags_separate_configurations_on_their_own() {
        // The tag has to do the key's job when keys collide: distinct
        // configurations get distinct tags, from a hash that is not the key.
        let mut tags = std::collections::HashSet::new();
        for weight in 1..200u32 {
            let k = config_key(&RmConfig::new(vec![
                TenantConfig::fair_default().with_weight(weight as f64 / 7.0),
                TenantConfig::fair_default(),
            ]));
            assert_ne!(k.key, k.tag);
            assert!(tags.insert(k.tag), "tag collision at weight {weight}");
        }
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
