//! Fleet management: cold-domain hibernation, per-domain cost accounting,
//! and load-aware shard placement.
//!
//! The sharded runtime keeps every domain fully materialized and pinned to
//! `id % shards` up through PR 6 — fine for hundreds of domains, fatal for
//! the paper's "millions of users" premise under a skewed fleet: memory
//! grows without bound and one hot shard carries most of the advance work.
//! This module is the bookkeeping layer that fixes both:
//!
//! * **Placement table** — every domain has a [`FleetEntry`] recording the
//!   shard it currently lives on. Creation places onto the least-populated
//!   shard; [`crate::ControllerRuntime::migrate`] moves a domain between
//!   shards using hibernate/rehydrate as the safe move primitive, and
//!   [`crate::ControllerRuntime::rebalance`] does so greedily for the
//!   hottest domains until no shard carries more than
//!   [`FleetConfig::rebalance_factor`] × the mean advance load.
//! * **Hibernation** — a domain can leave memory entirely: its
//!   [`crate::DomainSnapshot`] is encoded through the binary wire codec
//!   ([`crate::codec::encode_snapshot`]) into a compact byte buffer held
//!   here, and the next operation targeting the domain transparently
//!   rehydrates it (bit-identical resumption — the PR 6 snapshot/restore
//!   guarantee). Under an operator-set
//!   [`FleetConfig::resident_bytes_watermark`] the least-recently-touched
//!   domains are evicted eagerly at dispatch time, so estimated resident
//!   bytes stay bounded by the watermark plus the domain being touched.
//! * **Cost accounting** — estimated resident bytes (a deterministic
//!   count-based model, [`crate::Domain::estimated_bytes`]), an EWMA of
//!   advance CPU micros, and touch recency per domain, rolled up into
//!   [`crate::RuntimeMetrics`].
//!
//! ## Locking and ordering
//!
//! All placement state lives behind one mutex ([`FleetState::inner`]), and
//! the runtime holds that lock across *both* a placement transition and the
//! enqueue of its shard job. That gives every transition a total order
//! consistent with each shard's FIFO, which is what makes transparent
//! rehydration race-free: a rehydrate job enqueued after a same-shard
//! hibernate necessarily runs after it (FIFO), and a cross-shard rehydrate
//! (migration) spin-waits for the source shard's hibernate job to publish
//! the snapshot bytes — a wait that always terminates, because the enqueue
//! total order is acyclic (see the proof sketch in `ControllerRuntime`'s
//! migration docs).

use crate::runtime::{DomainId, DomainMetrics};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;

/// Operator-facing fleet knobs.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Target ceiling on the fleet's *estimated* resident bytes. When a
    /// dispatch would keep the total above the watermark, least-recently-
    /// touched domains are hibernated until it fits (the domain being
    /// touched is never evicted, so the bound is watermark + one domain).
    /// `None` (the default) never hibernates for memory.
    pub resident_bytes_watermark: Option<u64>,
    /// Hibernate domains untouched for this many dispatch ticks on the next
    /// [`crate::ControllerRuntime::maintain`] sweep (the server runs one per
    /// `Tick`). `None` disables idle hibernation.
    pub idle_ticks: Option<u64>,
    /// Rebalance target: migrate hot domains until no shard's advance load
    /// exceeds this multiple of the mean. 2.0 by default.
    pub rebalance_factor: f64,
    /// Weight of the newest observation in the per-domain advance-cost
    /// EWMA (`ewma = w·new + (1-w)·old`).
    pub cost_ewma_weight: f64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        Self {
            resident_bytes_watermark: None,
            idle_ticks: None,
            rebalance_factor: 2.0,
            cost_ewma_weight: 0.2,
        }
    }
}

impl FleetConfig {
    pub fn with_watermark(mut self, bytes: u64) -> Self {
        self.resident_bytes_watermark = Some(bytes);
        self
    }

    pub fn with_idle_ticks(mut self, ticks: u64) -> Self {
        self.idle_ticks = Some(ticks);
        self
    }

    pub fn with_rebalance_factor(mut self, factor: f64) -> Self {
        self.rebalance_factor = factor;
        self
    }
}

/// Where a domain's state currently lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DomainState {
    /// Materialized in its shard's domain map.
    Resident,
    /// Serialized to snapshot bytes in the fleet store (or in flight to it —
    /// the hibernate job publishing the bytes may still be queued).
    Hibernated,
    /// Lost to a shard-worker panic: not in any shard's domain map and not
    /// in the store. Operations are refused until the repair path rebuilds
    /// the domain from the journal and reinstalls it.
    Degraded,
}

/// Per-domain placement and accounting record.
pub(crate) struct FleetEntry {
    pub shard: usize,
    pub state: DomainState,
    /// Count-based resident-size estimate, refreshed after every operation.
    pub est_bytes: u64,
    /// Size of the last hibernated snapshot encoding (0 until first
    /// hibernation).
    pub snapshot_bytes: u64,
    /// Dispatch sequence number of the last operation targeting this domain.
    pub last_touch: u64,
    /// EWMA of CPU micros per advance step.
    pub advance_ewma_micros: f64,
    /// Advance steps since the last rebalance (the shard-load measure).
    pub work_advances: u64,
    pub hibernations: u64,
    pub rehydrations: u64,
    pub migrations: u64,
    /// Counters captured the last time the domain left memory (and at
    /// creation), so `metrics()` never has to rehydrate a cold domain.
    pub cached: DomainMetrics,
}

/// Everything behind the fleet mutex.
pub(crate) struct FleetInner {
    pub entries: BTreeMap<DomainId, FleetEntry>,
    /// Resident domains ordered by `(last_touch, id)` — the LRU index.
    lru: BTreeSet<(u64, DomainId)>,
    /// Hibernated snapshot bytes (binary codec).
    pub(crate) store: HashMap<DomainId, Vec<u8>>,
    /// Domains (resident or hibernated) assigned to each shard.
    pub shard_counts: Vec<u64>,
    pub resident_bytes: u64,
    pub peak_resident_bytes: u64,
    /// Dispatch sequence: one tick per domain-targeted operation.
    pub touch_seq: u64,
    pub hibernations: u64,
    pub rehydrations: u64,
    pub migrations: u64,
}

/// Shared fleet state: one per runtime, an `Arc` of which also lives in
/// every shard worker (jobs publish snapshot bytes and cost samples
/// through it).
pub struct FleetState {
    pub(crate) config: FleetConfig,
    pub(crate) inner: Mutex<FleetInner>,
}

impl FleetState {
    pub(crate) fn new(config: FleetConfig, shards: usize) -> Self {
        Self {
            config,
            inner: Mutex::new(FleetInner {
                entries: BTreeMap::new(),
                lru: BTreeSet::new(),
                store: HashMap::new(),
                shard_counts: vec![0; shards],
                resident_bytes: 0,
                peak_resident_bytes: 0,
                touch_seq: 0,
                hibernations: 0,
                rehydrations: 0,
                migrations: 0,
            }),
        }
    }

    pub fn config(&self) -> &FleetConfig {
        &self.config
    }

    pub(crate) fn lock(&self) -> std::sync::MutexGuard<'_, FleetInner> {
        self.inner.lock().expect("fleet lock")
    }

    /// Publishes a hibernated domain's snapshot bytes (called by the owning
    /// shard's hibernate job, after the domain left its map).
    pub(crate) fn store_bytes(&self, id: DomainId, bytes: Vec<u8>, cached: DomainMetrics) {
        let mut inner = self.lock();
        if let Some(e) = inner.entries.get_mut(&id) {
            e.snapshot_bytes = bytes.len() as u64;
            e.cached = cached;
        }
        inner.store.insert(id, bytes);
    }

    /// Claims a hibernated domain's bytes for rehydration. `None` while the
    /// publishing hibernate job is still queued on another shard.
    pub(crate) fn take_bytes(&self, id: DomainId) -> Option<Vec<u8>> {
        self.lock().store.remove(&id)
    }

    /// Marks `id` degraded after a shard-worker panic (see
    /// [`FleetInner::mark_degraded`]). Called from the panicking worker's
    /// supervisor, so it must not itself panic on missing ids.
    pub(crate) fn mark_degraded(&self, id: DomainId) {
        self.lock().mark_degraded(id);
    }

    /// Cost/size sample after one shard job: `steps` advance steps ran in
    /// `micros`, and the domain's size estimate is now `est_bytes`.
    pub(crate) fn note_op(&self, id: DomainId, micros: f64, steps: u64, est_bytes: u64) {
        let w = self.config.cost_ewma_weight;
        let mut guard = self.lock();
        let inner = &mut *guard;
        let Some(e) = inner.entries.get_mut(&id) else { return };
        if steps > 0 {
            let per_step = micros / steps as f64;
            e.advance_ewma_micros = if e.advance_ewma_micros == 0.0 {
                per_step
            } else {
                w * per_step + (1.0 - w) * e.advance_ewma_micros
            };
            e.work_advances += steps;
        }
        let old = e.est_bytes;
        e.est_bytes = est_bytes;
        if e.state == DomainState::Resident {
            inner.resident_bytes = inner.resident_bytes.saturating_sub(old) + est_bytes;
            inner.peak_resident_bytes = inner.peak_resident_bytes.max(inner.resident_bytes);
        }
    }
}

/// How a dispatch should reach a domain.
#[derive(Debug)]
pub(crate) enum Routing {
    /// No placement entry: deliver to a fallback shard so the job observes
    /// `UnknownDomain` through the normal callback path.
    Unplaced,
    /// Deliver to `shard`; when `rehydrate`, enqueue a rehydrate job first
    /// (the domain was hibernated and has just been marked resident).
    To { shard: usize, rehydrate: bool },
    /// The domain was lost to a shard panic and awaits journal repair.
    Degraded,
}

impl FleetInner {
    /// Least-populated shard (ties break to the lowest index — round-robin
    /// for sequential creates).
    pub(crate) fn place(&self) -> usize {
        self.shard_counts
            .iter()
            .enumerate()
            .min_by_key(|(i, c)| (**c, *i))
            .map(|(i, _)| i)
            .expect("at least one shard")
    }

    /// Registers a new domain on `shard` as resident.
    pub(crate) fn register(
        &mut self,
        id: DomainId,
        shard: usize,
        est_bytes: u64,
        cached: DomainMetrics,
    ) {
        self.touch_seq += 1;
        let touch = self.touch_seq;
        self.shard_counts[shard] += 1;
        self.lru.insert((touch, id));
        self.resident_bytes += est_bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        self.entries.insert(
            id,
            FleetEntry {
                shard,
                state: DomainState::Resident,
                est_bytes,
                snapshot_bytes: 0,
                last_touch: touch,
                advance_ewma_micros: 0.0,
                work_advances: 0,
                hibernations: 0,
                rehydrations: 0,
                migrations: 0,
                cached,
            },
        );
    }

    /// Re-registers an existing id with fresh domain state (a runtime
    /// restore over a live fleet): keeps placement, swaps the accounting to
    /// the incoming footprint, flips hibernated entries resident, and drops
    /// any stored snapshot bytes — the incoming state supersedes them. (A
    /// hibernate job still in flight may repopulate the store with stale
    /// bytes; they are never read while the entry is resident and the next
    /// hibernation overwrites them.) Returns the shard, or `None` when the
    /// id is unknown.
    pub(crate) fn reinstall(
        &mut self,
        id: DomainId,
        est_bytes: u64,
        cached: DomainMetrics,
    ) -> Option<usize> {
        self.touch_seq += 1;
        let touch = self.touch_seq;
        let (shard, old_est, old_touch, was_resident) = {
            let e = self.entries.get_mut(&id)?;
            let prior = (e.shard, e.est_bytes, e.last_touch, e.state == DomainState::Resident);
            e.state = DomainState::Resident;
            e.est_bytes = est_bytes;
            e.last_touch = touch;
            e.snapshot_bytes = 0;
            e.cached = cached;
            prior
        };
        if was_resident {
            self.lru.remove(&(old_touch, id));
            self.resident_bytes = self.resident_bytes.saturating_sub(old_est);
        }
        self.lru.insert((touch, id));
        self.store.remove(&id);
        self.resident_bytes += est_bytes;
        self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        Some(shard)
    }

    /// Routes one operation: bumps touch recency and, when the domain is
    /// hibernated, flips it resident (the caller enqueues the rehydrate job
    /// under the same lock hold).
    pub(crate) fn route(&mut self, id: DomainId) -> Routing {
        self.touch_seq += 1;
        let touch = self.touch_seq;
        let Some(e) = self.entries.get_mut(&id) else { return Routing::Unplaced };
        if e.state == DomainState::Degraded {
            return Routing::Degraded;
        }
        if e.state == DomainState::Resident {
            self.lru.remove(&(e.last_touch, id));
        }
        e.last_touch = touch;
        self.lru.insert((touch, id));
        let shard = e.shard;
        let rehydrate = e.state == DomainState::Hibernated;
        if rehydrate {
            e.state = DomainState::Resident;
            e.rehydrations += 1;
            let est = e.est_bytes;
            self.rehydrations += 1;
            self.resident_bytes += est;
            self.peak_resident_bytes = self.peak_resident_bytes.max(self.resident_bytes);
        }
        Routing::To { shard, rehydrate }
    }

    /// Marks `id` hibernated (accounting only — the caller enqueues the
    /// hibernate job under the same lock hold). Returns its shard, or `None`
    /// if it was not resident.
    pub(crate) fn mark_hibernated(&mut self, id: DomainId) -> Option<usize> {
        let e = self.entries.get_mut(&id)?;
        if e.state != DomainState::Resident {
            return None;
        }
        e.state = DomainState::Hibernated;
        e.hibernations += 1;
        let (touch, est, shard) = (e.last_touch, e.est_bytes, e.shard);
        self.lru.remove(&(touch, id));
        self.resident_bytes = self.resident_bytes.saturating_sub(est);
        self.hibernations += 1;
        Some(shard)
    }

    /// Marks `id` degraded after a shard-worker panic lost its in-memory
    /// state: out of the LRU and resident accounting (the memory is gone
    /// with the panicked job), and out of the store — any hibernated bytes
    /// predate the ops the journal will replay. `reinstall` clears the mark.
    pub(crate) fn mark_degraded(&mut self, id: DomainId) {
        let Some(e) = self.entries.get_mut(&id) else { return };
        let prior = e.state;
        e.state = DomainState::Degraded;
        let (touch, est) = (e.last_touch, e.est_bytes);
        match prior {
            DomainState::Resident => {
                self.lru.remove(&(touch, id));
                self.resident_bytes = self.resident_bytes.saturating_sub(est);
            }
            DomainState::Hibernated => {
                self.store.remove(&id);
            }
            DomainState::Degraded => {}
        }
    }

    /// LRU eviction plan: marks least-recently-touched resident domains
    /// hibernated until estimated resident bytes fit under `watermark`,
    /// never evicting `protect`. Returns `(id, shard)` pairs whose hibernate
    /// jobs the caller must enqueue before releasing the lock.
    pub(crate) fn plan_evictions(
        &mut self,
        protect: Option<DomainId>,
        watermark: Option<u64>,
    ) -> Vec<(DomainId, usize)> {
        let Some(watermark) = watermark else { return Vec::new() };
        let mut victims = Vec::new();
        while self.resident_bytes > watermark {
            let Some(&(_, id)) = self.lru.iter().find(|(_, id)| Some(*id) != protect) else {
                break;
            };
            let shard = self.mark_hibernated(id).expect("lru entries are resident");
            victims.push((id, shard));
        }
        victims
    }

    /// Idle plan: marks resident domains untouched for more than
    /// `idle_ticks` dispatch ticks hibernated. Same enqueue contract as
    /// [`FleetInner::plan_evictions`].
    pub(crate) fn plan_idle(&mut self, idle_ticks: u64) -> Vec<(DomainId, usize)> {
        let cutoff = self.touch_seq.saturating_sub(idle_ticks);
        let idle: Vec<DomainId> = self.lru.range(..(cutoff, 0)).map(|&(_, id)| id).collect();
        idle.into_iter()
            .filter_map(|id| self.mark_hibernated(id).map(|shard| (id, shard)))
            .collect()
    }

    /// Advance-steps-since-last-rebalance load carried by each shard.
    pub(crate) fn shard_loads(&self) -> Vec<u64> {
        let mut loads = vec![0u64; self.shard_counts.len()];
        for e in self.entries.values() {
            loads[e.shard] += e.work_advances;
        }
        loads
    }

    /// Greedy rebalance plan: repeatedly move the heaviest movable domain
    /// off the hottest shard onto the coolest one until no shard exceeds
    /// `factor` × the mean load. Pure planning — placements are not touched;
    /// the caller executes the returned `(id, from, to)` moves via
    /// `migrate` (which re-checks each one under the lock).
    pub(crate) fn plan_rebalance(&self, factor: f64) -> Vec<(DomainId, usize, usize)> {
        let shards = self.shard_counts.len();
        if shards < 2 {
            return Vec::new();
        }
        let mut loads: Vec<f64> = self.shard_loads().iter().map(|&l| l as f64).collect();
        // Simulated placement overrides, so multi-move plans stay coherent.
        let mut placed: HashMap<DomainId, usize> = HashMap::new();
        let mut moves = Vec::new();
        let total: f64 = loads.iter().sum();
        if total <= 0.0 {
            return Vec::new();
        }
        let mean = total / shards as f64;
        for _ in 0..shards * 8 {
            let (hot, &hot_load) = loads
                .iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
                .expect("at least one shard");
            if hot_load <= factor * mean {
                break;
            }
            let (cool, _) = loads
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.partial_cmp(b.1).expect("finite loads"))
                .expect("at least one shard");
            // Best candidate: the largest domain whose move does not push
            // the hot shard below the mean (avoids ping-ponging); fall back
            // to the smallest loaded domain when every domain is huge.
            let excess = hot_load - mean;
            let mut best_fit: Option<(u64, DomainId)> = None;
            let mut smallest: Option<(u64, DomainId)> = None;
            for (&id, e) in &self.entries {
                let shard = placed.get(&id).copied().unwrap_or(e.shard);
                if shard != hot || e.work_advances == 0 {
                    continue;
                }
                let w = e.work_advances;
                if w as f64 <= excess && best_fit.is_none_or(|(bw, _)| w > bw) {
                    best_fit = Some((w, id));
                }
                if smallest.is_none_or(|(sw, _)| w < sw) {
                    smallest = Some((w, id));
                }
            }
            let Some((w, id)) = best_fit.or(smallest) else { break };
            // Only move if it strictly lowers the maximum: once the
            // coolest shard would end up at least as hot as the source,
            // the spread is domain-granularity-limited and further moves
            // just ping-pong the same domain.
            if loads[cool] + w as f64 >= hot_load {
                break;
            }
            loads[hot] -= w as f64;
            loads[cool] += w as f64;
            placed.insert(id, cool);
            moves.push((id, hot, cool));
        }
        moves
    }

    /// Resets the per-rebalance load window.
    pub(crate) fn reset_work(&mut self) {
        for e in self.entries.values_mut() {
            e.work_advances = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(id: DomainId) -> DomainMetrics {
        DomainMetrics {
            id,
            name: format!("d{id}"),
            steps: 0,
            decisions: 0,
            skipped: 0,
            ingested: 0,
            sims: 0,
            shed_count: 0,
            delayed_count: 0,
            ingest_budget_occupancy: 0.0,
            resident: true,
            shard: 0,
            last_touch_tick: 0,
            estimated_bytes: 0,
            advance_ewma_micros: 0.0,
            hibernations: 0,
            rehydrations: 0,
            degraded: false,
        }
    }

    fn fleet(watermark: Option<u64>, shards: usize) -> FleetState {
        let config = FleetConfig { resident_bytes_watermark: watermark, ..FleetConfig::default() };
        FleetState::new(config, shards)
    }

    #[test]
    fn placement_fills_least_populated_shard_first() {
        let f = fleet(None, 3);
        let mut inner = f.lock();
        for id in 0..7u64 {
            let s = inner.place();
            inner.register(id, s, 100, metrics(id));
        }
        assert_eq!(inner.shard_counts, vec![3, 2, 2]);
        let shards: Vec<usize> = inner.entries.values().map(|e| e.shard).collect();
        assert_eq!(shards, vec![0, 1, 2, 0, 1, 2, 0], "sequential creates round-robin");
    }

    #[test]
    fn watermark_evicts_lru_but_never_the_touched_domain() {
        let f = fleet(Some(250), 1);
        let mut inner = f.lock();
        for id in 0..3u64 {
            inner.register(id, 0, 100, metrics(id));
        }
        assert_eq!(inner.resident_bytes, 300);
        // Touch domain 0 so domain 1 becomes the LRU victim.
        assert!(matches!(inner.route(0), Routing::To { rehydrate: false, .. }));
        let victims = inner.plan_evictions(Some(0), Some(250));
        assert_eq!(victims, vec![(1, 0)]);
        assert_eq!(inner.resident_bytes, 200);
        assert_eq!(inner.entries[&1].state, DomainState::Hibernated);
        // Even a watermark of zero spares the protected domain.
        let victims = inner.plan_evictions(Some(0), Some(0));
        assert_eq!(victims, vec![(2, 0)]);
        assert!(inner.plan_evictions(Some(0), Some(0)).is_empty(), "only domain 0 left");
        assert_eq!(inner.entries[&0].state, DomainState::Resident);
    }

    #[test]
    fn routing_a_hibernated_domain_flips_it_resident() {
        let f = fleet(None, 2);
        let mut inner = f.lock();
        inner.register(9, 1, 64, metrics(9));
        assert_eq!(inner.mark_hibernated(9), Some(1));
        assert_eq!(inner.mark_hibernated(9), None, "already hibernated");
        assert_eq!(inner.resident_bytes, 0);
        match inner.route(9) {
            Routing::To { shard, rehydrate } => {
                assert_eq!(shard, 1);
                assert!(rehydrate);
            }
            other => panic!("expected placement, got {other:?}"),
        }
        assert_eq!(inner.resident_bytes, 64);
        assert_eq!(inner.entries[&9].rehydrations, 1);
        assert!(matches!(inner.route(99), Routing::Unplaced));
    }

    #[test]
    fn idle_plan_hibernate_only_stale_domains() {
        let f = fleet(None, 1);
        let mut inner = f.lock();
        inner.register(0, 0, 10, metrics(0));
        inner.register(1, 0, 10, metrics(1));
        // Burn ticks touching domain 1 only.
        for _ in 0..10 {
            inner.route(1);
        }
        let idle = inner.plan_idle(5);
        assert_eq!(idle, vec![(0, 0)]);
        assert!(inner.plan_idle(5).is_empty(), "already hibernated");
    }

    #[test]
    fn rebalance_plan_moves_hot_domains_off_the_hot_shard() {
        let f = fleet(None, 2);
        let mut inner = f.lock();
        // Four domains on shard 0 carrying all the load, shard 1 idle.
        for id in 0..4u64 {
            inner.register(id, 0, 10, metrics(id));
            inner.entries.get_mut(&id).unwrap().work_advances = 100;
        }
        inner.shard_counts = vec![4, 0];
        assert_eq!(inner.shard_loads(), vec![400, 0]);
        let moves = inner.plan_rebalance(1.5);
        assert!(!moves.is_empty());
        // Simulate the plan: final max load must be within factor × mean.
        let mut loads = [400i64, 0i64];
        for &(_, from, to) in &moves {
            loads[from] -= 100;
            loads[to] += 100;
        }
        let mean = 200.0;
        assert!(loads.iter().all(|&l| (l as f64) <= 1.5 * mean), "{loads:?}");
        // Balanced fleets plan nothing.
        inner.reset_work();
        assert!(inner.plan_rebalance(1.5).is_empty());
    }

    #[test]
    fn cost_samples_update_ewma_and_size_accounting() {
        let f = fleet(None, 1);
        {
            let mut inner = f.lock();
            inner.register(3, 0, 100, metrics(3));
        }
        f.note_op(3, 50.0, 1, 150);
        f.note_op(3, 90.0, 2, 120);
        let inner = f.lock();
        let e = &inner.entries[&3];
        assert_eq!(e.work_advances, 3);
        // 0.2 · 45 + 0.8 · 50 = 49.
        assert!((e.advance_ewma_micros - 49.0).abs() < 1e-9, "{}", e.advance_ewma_micros);
        assert_eq!(e.est_bytes, 120);
        assert_eq!(inner.resident_bytes, 120);
        assert_eq!(inner.peak_resident_bytes, 150);
    }
}
