//! The sharded controller runtime.
//!
//! [`ControllerRuntime`] hosts N independent tenancy domains across a pool
//! of shard worker threads. Each domain lives on exactly one shard and every
//! operation on it runs on that shard's worker — an actor discipline that
//! makes per-domain execution strictly serial (so trajectories are
//! deterministic) while different domains run fully in parallel.
//!
//! Callers talk to shards over crossbeam channels: an operation is a boxed
//! closure sent to the owning shard, and the result comes back on a
//! one-shot reply channel. The embeddable API ([`ControllerRuntime::ingest`],
//! [`ControllerRuntime::advance`], [`ControllerRuntime::advance_all`]) and
//! the TCP wire protocol are both thin clients of this dispatch, and both
//! apply domain ops through one live path: [`Domain::apply`] executes the
//! op, then its decisions go to the trace ring and, when the server keeps
//! a journal, the op as executed is appended to it. Journal replay and
//! repair run the same executor without the trace ring or the journal.
//!
//! Placement is a fleet-managed table, not a hash of the id: domains are
//! created on the least-populated shard, can be migrated between shards
//! ([`ControllerRuntime::migrate`], [`ControllerRuntime::rebalance`]), and
//! can leave memory entirely ([`ControllerRuntime::hibernate`] or the
//! [`crate::FleetConfig::resident_bytes_watermark`] LRU policy), coming
//! back bit-identically on their next operation. See [`crate::fleet`] for
//! the policy layer.

use crate::clock::Clock;
use crate::codec;
use crate::domain::{
    AdvanceProvenance, Applied, DecisionRecord, Domain, DomainOp, DomainSnapshot, DomainSpec,
    IngestOutcome,
};
use crate::fault::{FaultInjector, NoFaults};
use crate::fleet::{DomainState, FleetConfig, FleetState, Routing};
use crate::wal::{Journal, JournalOp, JournalRecord};
use crossbeam::channel::{self, Sender};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use tempo_core::WorkerPool;
use tempo_obs::TraceRing;
use tempo_sim::RmConfig;
use tempo_workload::time::Time;
use tempo_workload::JobSpec;

/// Identifies a domain within a runtime. Dense, assigned at creation.
pub type DomainId = u64;

/// Why a runtime operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    UnknownDomain(DomainId),
    InvalidSpec(String),
    /// A fleet-management request was malformed (e.g. a migration target
    /// shard that does not exist).
    Fleet(String),
    /// The owning shard worker is gone (it panicked or the runtime shut
    /// down mid-call).
    ShardDown,
    /// The domain's in-memory state was lost to a shard-worker panic and
    /// has not been repaired (from the journal) yet.
    DomainDegraded(DomainId),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::UnknownDomain(id) => write!(f, "unknown domain {id}"),
            RuntimeError::InvalidSpec(msg) => write!(f, "invalid domain spec: {msg}"),
            RuntimeError::Fleet(msg) => write!(f, "fleet request invalid: {msg}"),
            RuntimeError::ShardDown => write!(f, "shard worker unavailable"),
            RuntimeError::DomainDegraded(id) => {
                write!(f, "domain {id} degraded by a shard fault (awaiting journal repair)")
            }
        }
    }
}

impl std::error::Error for RuntimeError {}

/// Retained decision-trail length. Older entries fall off the ring;
/// [`TraceRing::pushed`] still counts them.
const TRACE_CAPACITY: usize = 1024;

/// One control-loop decision as retained by the runtime's bounded trace
/// ring — the `TraceQuery` wire payload. Captures what the controller chose
/// and how many What-if simulations it took.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionTrace {
    pub domain: DomainId,
    /// Advance step on the domain (matches [`DecisionRecord::step`]).
    pub step: u64,
    /// Absolute workload window `[start, end)` the decision tuned on.
    pub window: (Time, Time),
    /// Controller iteration index.
    pub iteration: u64,
    /// Whether the revert guard rolled back the previous change.
    pub reverted: bool,
    /// Observed (priority-weighted) QS vector.
    pub observed_qs: Vec<f64>,
    /// The maximin objective over the observation: the worst per-SLO
    /// quality score.
    pub objective: f64,
    /// The configuration the decision chose.
    pub config: RmConfig,
    /// Simulations the iteration ran.
    pub sims: u64,
}

/// Records one non-skipped decision in the trace ring (skipped advances ran
/// no iteration, so there is no decision to trace). Unconditional — not
/// gated on the telemetry flag — so `TraceQuery` works without a scraper.
fn push_trace(
    traces: &TraceRing<DecisionTrace>,
    id: DomainId,
    rec: &DecisionRecord,
    prov: AdvanceProvenance,
) {
    if rec.skipped {
        return;
    }
    tempo_obs::counter!(
        "tempo_domain_decisions_total",
        "Control-loop decisions recorded in the trace ring"
    )
    .inc();
    let objective = rec.observed_qs.iter().copied().fold(f64::INFINITY, f64::min);
    traces.push(DecisionTrace {
        domain: id,
        step: rec.step,
        window: rec.window,
        iteration: rec.iteration,
        reverted: rec.reverted,
        observed_qs: rec.observed_qs.clone(),
        objective: if objective.is_finite() { objective } else { 0.0 },
        config: rec.config.clone(),
        sims: prov.sims,
    });
}

/// The live path of one domain op, run on its owning shard: applies it
/// ([`Domain::apply`]), records its decisions in the trace ring, then —
/// with a journal, and only when the op changed the domain — appends the op
/// as executed right after it ran, so per-domain journal order is
/// execution order. The batch is copied for the journal only when there is
/// one. Journal replay and repair call [`Domain::apply`] alone: they
/// neither trace nor journal.
fn apply_live(
    d: &mut Domain,
    id: DomainId,
    now: Time,
    op: DomainOp,
    traces: &TraceRing<DecisionTrace>,
    journal: Option<&Journal>,
) -> Applied {
    let logged = journal.and_then(|journal| Some((journal, JournalOp::of(id, &op)?)));
    let applied = d.apply(now, op);
    for (rec, prov) in applied.decisions() {
        push_trace(traces, id, rec, *prov);
    }
    if let Some((journal, op)) = logged.filter(|_| applied.changed()) {
        journal.append_logged(&JournalRecord { now, op });
    }
    applied
}

/// The decision of a one-step [`DomainOp::Advance`].
fn only_decision(applied: Applied) -> DecisionRecord {
    match applied {
        Applied::Advanced(decisions) => decisions.into_iter().next().expect("one step ran").0,
        other => unreachable!("an advance applied as {other:?}"),
    }
}

/// Point-in-time health/occupancy counters for one domain.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainMetrics {
    pub id: DomainId,
    pub name: String,
    /// Advance calls (decisions + skipped).
    pub steps: u64,
    /// Control-loop iterations actually run.
    pub decisions: u64,
    pub skipped: u64,
    /// Jobs ingested over the domain's lifetime.
    pub ingested: u64,
    /// Simulations the domain's What-if Model has run: a process-lifetime
    /// diagnostic that resets when a domain is restored (never serialized
    /// into snapshots).
    pub sims: u64,
    /// Jobs dropped by a `Shed` ingest budget.
    pub shed_count: u64,
    /// Jobs turned away (whole bursts) by a `Delay` ingest budget.
    pub delayed_count: u64,
    /// Fraction of the ingest budget currently spent: 0.0 = idle bucket,
    /// 1.0 = saturated. Always 0.0 for unbudgeted domains.
    pub ingest_budget_occupancy: f64,
    /// Whether the domain is materialized in memory (`false` = hibernated
    /// to snapshot bytes; counters above are from its last resident
    /// moment).
    pub resident: bool,
    /// The shard currently hosting (or assigned to) the domain.
    pub shard: u64,
    /// Fleet dispatch tick of the last operation targeting this domain.
    pub last_touch_tick: u64,
    /// Count-based estimate of the domain's resident footprint.
    pub estimated_bytes: u64,
    /// EWMA of CPU micros per advance step.
    pub advance_ewma_micros: f64,
    /// Times this domain has been hibernated / rehydrated.
    pub hibernations: u64,
    pub rehydrations: u64,
    /// Whether the domain's state was lost to a shard-worker panic and is
    /// awaiting journal repair (counters shown are its last good capture).
    pub degraded: bool,
}

/// Aggregated runtime metrics (the wire protocol's `Metrics` reply).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeMetrics {
    pub domains: u64,
    pub shards: u64,
    pub clock_now: Time,
    pub total_decisions: u64,
    pub total_ingested: u64,
    pub total_sims: u64,
    pub total_shed: u64,
    pub total_delayed: u64,
    /// Domains currently materialized in memory.
    pub resident_domains: u64,
    /// Domains lost to shard-worker panics and awaiting journal repair.
    pub degraded_domains: u64,
    /// Estimated bytes held by resident domains right now, and the high
    /// watermark of that estimate over the runtime's lifetime.
    pub resident_bytes: u64,
    pub peak_resident_bytes: u64,
    pub total_hibernations: u64,
    pub total_rehydrations: u64,
    pub total_migrations: u64,
    /// Advance steps each shard has run since the last rebalance.
    pub shard_loads: Vec<u64>,
    pub per_domain: Vec<DomainMetrics>,
}

/// Serializable state of a whole runtime: every domain. Restore with [`ControllerRuntime::restore`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeSnapshot {
    /// Clock reading at snapshot time (restored into a [`crate::SimClock`]
    /// by deterministic-replay setups; informational under wall clocks).
    pub clock_now: Time,
    /// Domain states, id-sorted.
    pub domains: Vec<DomainSnapshot>,
}

/// A unit of work executed on a shard worker thread.
type ShardJob = Box<dyn FnOnce(&mut ShardState) + Send>;

/// What one shard worker owns: its slice of the domain map, plus a handle
/// to the fleet table for publishing snapshot bytes and cost samples.
struct ShardState {
    domains: BTreeMap<DomainId, Domain>,
    fleet: Arc<FleetState>,
    /// Clone of the runtime-wide What-if worker pool, attached to every
    /// domain that becomes resident on this shard.
    whatif_pool: WorkerPool,
    /// This worker's shard index (for fault-schedule lookups and logs).
    shard: usize,
    faults: Arc<dyn FaultInjector>,
    /// Instrumented operations this worker has run (the fault-schedule
    /// event index).
    ops: u64,
    /// The domain the currently-executing instrumented job targets; the
    /// supervisor reads it after a panic to know what was lost.
    active: Option<DomainId>,
}

impl ShardState {
    /// Makes `domain` resident: attaches the shared What-if worker pool
    /// (so N domains x M cores collapses onto one pool's threads instead of
    /// multiplying) and inserts it into the map.
    fn install(&mut self, id: DomainId, mut domain: Domain) {
        domain.install_pool(self.whatif_pool.clone());
        self.domains.insert(id, domain);
    }

    /// Serializes a domain out of memory: removes it from the map, encodes
    /// its snapshot through the binary codec, and publishes the bytes to
    /// the fleet store. No-op if the domain is not hosted here (e.g. it was
    /// already moved).
    fn hibernate(&mut self, id: DomainId) {
        let Some(domain) = self.domains.remove(&id) else { return };
        let cached = base_metrics(id, &domain);
        let bytes = codec::encode_snapshot(&domain.snapshot(id));
        self.fleet.store_bytes(id, bytes, cached);
        tempo_obs::counter!(
            "tempo_domain_hibernations_total",
            "Domains serialized out of memory to snapshot bytes"
        )
        .inc();
    }

    /// Materializes a hibernated domain from its stored snapshot bytes.
    /// When the bytes are still in flight — the publishing hibernate job is
    /// queued on another shard (a migration) — this spins until they land;
    /// the wait always terminates because transition enqueues are totally
    /// ordered by the fleet lock (see [`ControllerRuntime::migrate`]).
    fn rehydrate(&mut self, id: DomainId) {
        if self.domains.contains_key(&id) {
            return;
        }
        let mut spins = 0u32;
        let bytes = loop {
            if let Some(bytes) = self.fleet.take_bytes(id) {
                break bytes;
            }
            spins += 1;
            if spins < 1_000 {
                std::thread::yield_now();
            } else {
                std::thread::sleep(Duration::from_micros(100));
            }
        };
        let restored = codec::decode_snapshot(&bytes).and_then(Domain::restore);
        match restored {
            Ok(domain) => {
                self.install(id, domain);
                tempo_obs::counter!(
                    "tempo_domain_rehydrations_total",
                    "Domains rematerialized from stored snapshot bytes"
                )
                .inc();
            }
            // Unreachable in practice (we encoded the bytes ourselves); a
            // failure leaves the domain unplaced, surfacing as
            // `UnknownDomain` rather than poisoning the worker.
            Err(e) => eprintln!("tempo-serve: failed to rehydrate domain {id}: {e}"),
        }
    }
}

/// Counter snapshot of a live domain. Fleet-level fields (placement,
/// residency, cost accounting) are placeholders here; `metrics()` overlays
/// them from the fleet table.
fn base_metrics(id: DomainId, d: &Domain) -> DomainMetrics {
    DomainMetrics {
        id,
        name: d.spec().name.clone(),
        steps: d.steps(),
        decisions: d.decisions(),
        skipped: d.skipped(),
        ingested: d.ingested(),
        sims: d.sim_count(),
        shed_count: d.shed_count(),
        delayed_count: d.delayed_count(),
        ingest_budget_occupancy: d.ingest_budget_occupancy(),
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

/// Charges work on domain `d` begun at `start` with `steps_before` advance
/// steps: its micros and the steps it ran feed the domain's EWMA and its
/// shard's load, its refreshed size estimate the resident-bytes accounting.
fn charge(fleet: &FleetState, id: DomainId, d: &Domain, steps_before: u64, start: Instant) {
    let micros = start.elapsed().as_secs_f64() * 1e6;
    fleet.note_op(id, micros, d.steps().saturating_sub(steps_before), d.estimated_bytes());
}

/// Wraps a shard job with fault injection and cost/size instrumentation
/// ([`charge`]).
fn instrumented<F>(id: DomainId, f: F) -> ShardJob
where
    F: FnOnce(&mut ShardState) + Send + 'static,
{
    Box::new(move |state| {
        state.ops += 1;
        state.active = Some(id);
        if state.faults.shard_panic(state.shard, state.ops) {
            tempo_obs::counter!(
                "tempo_fault_injections_total",
                "Deterministic fault-injector firings by kind",
                "kind" => "shard_panic"
            )
            .inc();
            panic!("injected shard fault (shard {}, op {})", state.shard, state.ops);
        }
        let steps_before = state.domains.get(&id).map_or(0, Domain::steps);
        let start = Instant::now();
        f(state);
        if let Some(d) = state.domains.get(&id) {
            charge(&state.fleet, id, d, steps_before, start);
        }
        state.active = None;
    })
}

struct ShardHandle {
    tx: Sender<ShardJob>,
    worker: Option<JoinHandle<()>>,
}

/// The sharded multi-domain serving runtime. Cheap to share: all methods
/// take `&self` and may be called concurrently from any number of threads.
pub struct ControllerRuntime {
    shards: Vec<ShardHandle>,
    clock: Arc<dyn Clock>,
    fleet: Arc<FleetState>,
    next_id: AtomicU64,
    /// Guards restore (which rewrites `next_id` and domain placement)
    /// against concurrent creates.
    create_lock: Mutex<()>,
    /// Bounded ring of recent control-loop decisions (`TraceQuery`).
    traces: Arc<TraceRing<DecisionTrace>>,
    /// Every known domain's spec, retained so maintenance can respawn a
    /// degraded domain even without a journal (the domain object itself is
    /// lost with the panicking worker).
    specs: Mutex<HashMap<DomainId, DomainSpec>>,
}

impl ControllerRuntime {
    /// Spawns `shards` worker threads sharing `clock`, with fleet
    /// management at its defaults (no watermark: nothing ever hibernates
    /// unless asked to).
    pub fn new(shards: usize, clock: Arc<dyn Clock>) -> Self {
        Self::with_fleet(shards, clock, FleetConfig::default())
    }

    /// Spawns `shards` worker threads sharing `clock` under the given fleet
    /// policy, with no fault injection.
    pub fn with_fleet(shards: usize, clock: Arc<dyn Clock>, config: FleetConfig) -> Self {
        Self::with_fleet_faults(shards, clock, config, Arc::new(NoFaults))
    }

    /// Full-control constructor: fleet policy plus a fault injector
    /// consulted on every instrumented shard operation.
    ///
    /// Each shard worker is supervised: a panic — injected or real — is
    /// caught, the in-flight domain's (now untrustworthy) state is removed
    /// and marked degraded in the fleet table, and the worker keeps
    /// serving its queue. Sibling domains on the same shard are untouched;
    /// the degraded domain refuses operations until the journal repair
    /// path rebuilds and reinstalls it.
    pub fn with_fleet_faults(
        shards: usize,
        clock: Arc<dyn Clock>,
        config: FleetConfig,
        faults: Arc<dyn FaultInjector>,
    ) -> Self {
        let shards = shards.max(1);
        let fleet = Arc::new(FleetState::new(config, shards));
        // One What-if worker pool for the whole runtime: every resident
        // domain's model shares its threads, so evaluation parallelism is
        // bounded by the pool width regardless of domain count.
        let whatif_pool = WorkerPool::with_default_width();
        let handles = (0..shards)
            .map(|i| {
                let (tx, rx) = channel::unbounded::<ShardJob>();
                let fleet = Arc::clone(&fleet);
                let faults = Arc::clone(&faults);
                let whatif_pool = whatif_pool.clone();
                let worker = std::thread::Builder::new()
                    .name(format!("tempo-serve-shard-{i}"))
                    .spawn(move || {
                        let mut state = ShardState {
                            domains: BTreeMap::new(),
                            fleet,
                            shard: i,
                            faults,
                            ops: 0,
                            active: None,
                            whatif_pool,
                        };
                        while let Ok(job) = rx.recv() {
                            if catch_unwind(AssertUnwindSafe(|| job(&mut state))).is_err() {
                                match state.active.take() {
                                    Some(id) => {
                                        state.domains.remove(&id);
                                        state.fleet.mark_degraded(id);
                                        eprintln!(
                                            "tempo-serve: shard {i} worker panicked; \
                                             domain {id} degraded, worker resumed"
                                        );
                                    }
                                    None => eprintln!(
                                        "tempo-serve: shard {i} worker panicked in a \
                                         non-domain job; worker resumed"
                                    ),
                                }
                            }
                        }
                    })
                    .expect("spawn shard worker");
                ShardHandle { tx, worker: Some(worker) }
            })
            .collect();
        Self {
            shards: handles,
            clock,
            fleet,
            next_id: AtomicU64::new(0),
            create_lock: Mutex::new(()),
            traces: Arc::new(TraceRing::new(TRACE_CAPACITY)),
            specs: Mutex::new(HashMap::new()),
        }
    }

    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Domains in the fleet table: resident, hibernated and degraded alike
    /// (what [`RuntimeMetrics::domains`] counts, without sweeping a shard).
    pub fn num_domains(&self) -> u64 {
        self.fleet.lock().entries.len() as u64
    }

    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The fleet policy this runtime was built with.
    pub fn fleet_config(&self) -> &FleetConfig {
        self.fleet.config()
    }

    fn send_hibernate(&self, shard: usize, id: DomainId) -> Result<(), RuntimeError> {
        let job: ShardJob = Box::new(move |state| state.hibernate(id));
        self.shards[shard].tx.send(job).map_err(|_| RuntimeError::ShardDown)
    }

    fn send_rehydrate(&self, shard: usize, id: DomainId) -> Result<(), RuntimeError> {
        let job: ShardJob = Box::new(move |state| state.rehydrate(id));
        self.shards[shard].tx.send(job).map_err(|_| RuntimeError::ShardDown)
    }

    /// Routes one domain-targeted job through the fleet table: bumps touch
    /// recency, transparently rehydrates a hibernated domain, applies the
    /// watermark eviction policy, and delivers the job to the owning shard.
    ///
    /// Every placement transition (rehydrate mark, eviction marks) and its
    /// shard-job enqueue happen under ONE continuous fleet-lock hold —
    /// sends on the unbounded shard channels never block, so sending under
    /// the lock is safe. That discipline gives transitions a total order
    /// whose restriction to each shard equals that shard's FIFO order,
    /// which is what makes rehydration race-free (a rehydrate can never be
    /// queued ahead of the hibernate that produces its bytes).
    fn dispatch_to(&self, id: DomainId, job: ShardJob) -> Result<(), RuntimeError> {
        let mut inner = self.fleet.lock();
        match inner.route(id) {
            Routing::Unplaced => {
                drop(inner);
                // Unknown id: deliver anyway so the job observes
                // `UnknownDomain` through the normal callback path.
                let fallback = (id % self.shards.len() as u64) as usize;
                self.shards[fallback].tx.send(job).map_err(|_| RuntimeError::ShardDown)
            }
            Routing::To { shard, rehydrate } => {
                if rehydrate {
                    self.send_rehydrate(shard, id)?;
                }
                let watermark = self.fleet.config().resident_bytes_watermark;
                for (vid, vshard) in inner.plan_evictions(Some(id), watermark) {
                    self.send_hibernate(vshard, vid)?;
                }
                self.shards[shard].tx.send(job).map_err(|_| RuntimeError::ShardDown)
            }
            Routing::Degraded => Err(RuntimeError::DomainDegraded(id)),
        }
    }

    /// Runs `f` on the shard owning `id` and waits for the result.
    fn on_shard<R, F>(&self, id: DomainId, f: F) -> Result<R, RuntimeError>
    where
        R: Send + 'static,
        F: FnOnce(&mut ShardState) -> R + Send + 'static,
    {
        let (reply_tx, reply_rx) = channel::bounded::<R>(1);
        let job = instrumented(id, move |state| {
            let _ = reply_tx.send(f(state));
        });
        self.dispatch_to(id, job)?;
        reply_rx.recv().map_err(|_| RuntimeError::ShardDown)
    }

    /// Runs `f` on every shard concurrently and returns the results in
    /// shard order. Bypasses the fleet table: sees resident domains only
    /// and leaves touch recency alone.
    fn on_all_shards<R, F>(&self, f: F) -> Vec<R>
    where
        R: Send + 'static,
        F: Fn(&mut ShardState) -> R + Send + Sync + 'static,
    {
        let f = Arc::new(f);
        let replies: Vec<_> = self
            .shards
            .iter()
            .map(|shard| {
                let (reply_tx, reply_rx) = channel::bounded::<R>(1);
                let f = Arc::clone(&f);
                let job: ShardJob = Box::new(move |state| {
                    let _ = reply_tx.send(f(state));
                });
                let sent = shard.tx.send(job).is_ok();
                (sent, reply_rx)
            })
            .collect();
        replies.into_iter().filter(|(sent, _)| *sent).filter_map(|(_, rx)| rx.recv().ok()).collect()
    }

    /// Creates a domain from `spec`; returns its id. The spec is validated
    /// (inside [`Domain::new`]) before any state is committed, and the
    /// heavyweight controller construction happens outside `create_lock` so
    /// concurrent creates don't serialize on it. Placement goes to the
    /// least-populated shard.
    pub fn create_domain(&self, spec: DomainSpec) -> Result<DomainId, RuntimeError> {
        let domain = Domain::new(spec).map_err(RuntimeError::InvalidSpec)?;
        let _guard = self.create_lock.lock().expect("create lock");
        let id = self.next_id.fetch_add(1, Ordering::SeqCst);
        self.install_domain(id, domain)?;
        Ok(id)
    }

    /// Registers `domain` in the fleet table (placing it if the id is new,
    /// reusing placement on a restore-over-live-id) and inserts it on its
    /// shard, blocking until the insert lands. Watermark evictions run in
    /// the same critical section, so resident bytes never exceed the
    /// watermark by more than the incoming domain.
    fn install_domain(&self, id: DomainId, domain: Domain) -> Result<(), RuntimeError> {
        let est = domain.estimated_bytes();
        let cached = base_metrics(id, &domain);
        self.specs.lock().expect("specs lock").insert(id, domain.spec().clone());
        let (reply_tx, reply_rx) = channel::bounded::<()>(1);
        let mut inner = self.fleet.lock();
        let shard = match inner.reinstall(id, est, cached.clone()) {
            Some(shard) => shard,
            None => {
                let shard = inner.place();
                inner.register(id, shard, est, cached);
                shard
            }
        };
        let job: ShardJob = Box::new(move |state| {
            state.install(id, domain);
            let _ = reply_tx.send(());
        });
        self.shards[shard].tx.send(job).map_err(|_| RuntimeError::ShardDown)?;
        let watermark = self.fleet.config().resident_bytes_watermark;
        for (vid, vshard) in inner.plan_evictions(Some(id), watermark) {
            self.send_hibernate(vshard, vid)?;
        }
        drop(inner);
        reply_rx.recv().map_err(|_| RuntimeError::ShardDown)
    }

    /// Applies `op` to domain `id` on its owning shard at the runtime
    /// clock's reading and waits: the embedded live path ([`apply_live`],
    /// with no journal).
    fn apply(&self, id: DomainId, op: DomainOp) -> Result<Applied, RuntimeError> {
        let now = self.clock.now();
        let traces = Arc::clone(&self.traces);
        self.on_domain(id, move |d| apply_live(d, id, now, op, &traces, None))
    }

    /// Ingests job submissions into a domain's workload window. The domain's
    /// ingest budget (if any) is refilled from the runtime clock, so the
    /// outcome may be `Busy` or a shed-trimmed `Accepted`.
    pub fn ingest(&self, id: DomainId, jobs: Vec<JobSpec>) -> Result<IngestOutcome, RuntimeError> {
        match self.apply(id, DomainOp::Ingest { jobs })? {
            Applied::Ingested(outcome) => Ok(outcome),
            other => unreachable!("an ingest applied as {other:?}"),
        }
    }

    /// Runs `f` against the domain on its owning shard and waits for the
    /// result — the blocking counterpart of
    /// [`ControllerRuntime::on_domain_async`]. Journal replay applies each
    /// record's ops through it.
    pub fn on_domain<R, F>(&self, id: DomainId, f: F) -> Result<R, RuntimeError>
    where
        R: Send + 'static,
        F: FnOnce(&mut Domain) -> R + Send + 'static,
    {
        self.on_shard(id, move |state| {
            state.domains.get_mut(&id).map(f).ok_or(RuntimeError::UnknownDomain(id))
        })?
    }

    /// Fire-and-forget dispatch: runs `f` against the domain on its owning
    /// shard without blocking for a reply. The wire server is built on
    /// this: a connection's reader thread dispatches requests as they
    /// arrive and `f` hands each result to the reply side.
    ///
    /// Same-domain operations dispatched in order execute in order (each
    /// shard is a FIFO actor and migrations preserve the relative order);
    /// `f` gets `Err(UnknownDomain)` if the id is unplaced when the job
    /// runs.
    pub fn on_domain_async<F>(&self, id: DomainId, f: F) -> Result<(), RuntimeError>
    where
        F: FnOnce(Result<&mut Domain, RuntimeError>) + Send + 'static,
    {
        let job = instrumented(id, move |state| match state.domains.get_mut(&id) {
            Some(d) => f(Ok(d)),
            None => f(Err(RuntimeError::UnknownDomain(id))),
        });
        self.dispatch_to(id, job)
    }

    /// The wire's live path: applies `op` to domain `id` at `now` on its
    /// owning shard without waiting ([`apply_live`], journaling to
    /// `journal`), and hands the result to `done` there.
    pub(crate) fn apply_async<F>(
        &self,
        id: DomainId,
        now: Time,
        op: DomainOp,
        journal: Option<Arc<Journal>>,
        done: F,
    ) -> Result<(), RuntimeError>
    where
        F: FnOnce(Result<Applied, RuntimeError>) + Send + 'static,
    {
        let traces = Arc::clone(&self.traces);
        self.on_domain_async(id, move |d| {
            done(d.map(|d| apply_live(d, id, now, op, &traces, journal.as_deref())))
        })
    }

    /// Runs one control-loop iteration on a domain against the window
    /// ending at the runtime clock's current reading.
    pub fn advance(&self, id: DomainId) -> Result<DecisionRecord, RuntimeError> {
        self.apply(id, DomainOp::Advance { steps: 1 }).map(only_decision)
    }

    /// Advances every *resident* domain once, all shards in parallel, using
    /// a single consistent clock reading. Records come back id-sorted.
    ///
    /// Hibernated domains are deliberately skipped — waking the whole cold
    /// fleet would defeat the watermark — and the background sweep does not
    /// refresh touch recency, so it never interferes with the LRU policy.
    /// A cold domain's trajectory resumes on its next targeted operation.
    pub fn advance_all(&self) -> Vec<(DomainId, DecisionRecord)> {
        self.advance_all_at_with(self.clock.now(), |_| {})
    }

    /// [`ControllerRuntime::advance_all`] at the clock reading `now`, with a
    /// per-shard completion hook: `on_shard_done` runs on each shard's own
    /// worker thread right after that shard's domains advanced — and
    /// therefore before any later operation on that shard — with the ids it
    /// advanced. The journaled server uses this to append the sweep to the
    /// ops journal in exact per-domain execution order even under
    /// concurrent connections.
    pub fn advance_all_at_with<F>(
        &self,
        now: Time,
        on_shard_done: F,
    ) -> Vec<(DomainId, DecisionRecord)>
    where
        F: Fn(&[DomainId]) + Send + Sync + 'static,
    {
        let traces = Arc::clone(&self.traces);
        let mut out: Vec<(DomainId, DecisionRecord)> = self
            .on_all_shards(move |state| {
                let records = state
                    .domains
                    .iter_mut()
                    .map(|(&id, d)| {
                        let (steps_before, start) = (d.steps(), Instant::now());
                        let op = DomainOp::Advance { steps: 1 };
                        let rec = only_decision(apply_live(d, id, now, op, &traces, None));
                        charge(&state.fleet, id, d, steps_before, start);
                        (id, rec)
                    })
                    .collect::<Vec<_>>();
                let ids: Vec<DomainId> = records.iter().map(|(id, _)| *id).collect();
                on_shard_done(&ids);
                records
            })
            .into_iter()
            .flatten()
            .collect();
        out.sort_by_key(|(id, _)| *id);
        out
    }

    /// The configuration a domain's cluster should currently run.
    pub fn current_config(&self, id: DomainId) -> Result<RmConfig, RuntimeError> {
        self.on_shard(id, move |state| {
            state
                .domains
                .get(&id)
                .map(|d| d.current_config())
                .ok_or(RuntimeError::UnknownDomain(id))
        })?
    }

    /// Runs a read-only closure against a domain on its owning shard —
    /// the embeddable escape hatch for diagnostics (parity suites compare
    /// optimizer histories through this). Counts as a touch and rehydrates
    /// a hibernated domain, like any other domain-targeted operation.
    pub fn inspect<R, F>(&self, id: DomainId, f: F) -> Result<R, RuntimeError>
    where
        R: Send + 'static,
        F: FnOnce(&Domain) -> R + Send + 'static,
    {
        self.on_shard(id, move |state| {
            state.domains.get(&id).map(f).ok_or(RuntimeError::UnknownDomain(id))
        })?
    }

    /// Serializes a domain out of memory now. Returns `Ok(true)` once the
    /// snapshot bytes are stored (the reply is awaited, so memory really
    /// was released), `Ok(false)` if the domain was already hibernated.
    /// The domain rehydrates transparently on its next operation.
    pub fn hibernate(&self, id: DomainId) -> Result<bool, RuntimeError> {
        let (reply_tx, reply_rx) = channel::bounded::<()>(1);
        {
            let mut inner = self.fleet.lock();
            if !inner.entries.contains_key(&id) {
                return Err(RuntimeError::UnknownDomain(id));
            }
            let Some(shard) = inner.mark_hibernated(id) else {
                return Ok(false);
            };
            let job: ShardJob = Box::new(move |state| {
                state.hibernate(id);
                let _ = reply_tx.send(());
            });
            self.shards[shard].tx.send(job).map_err(|_| RuntimeError::ShardDown)?;
        }
        reply_rx.recv().map_err(|_| RuntimeError::ShardDown)?;
        Ok(true)
    }

    /// Moves a domain to another shard using hibernate/rehydrate as the
    /// move primitive: the source shard serializes the domain to snapshot
    /// bytes and the target shard restores from them — bit-identical state.
    /// Returns `Ok(false)` when the domain is already
    /// on `to`.
    ///
    /// Per-domain FIFO survives the move: operations dispatched before the
    /// migration sit ahead of the hibernate job on the source queue, later
    /// ones sit behind the rehydrate job on the target queue, and the
    /// rehydrate waits for the hibernate's bytes. That wait cannot
    /// deadlock: transitions are totally ordered by the fleet lock and each
    /// shard queue is a restriction of that order, so a rehydrate only ever
    /// waits on a hibernate from a strictly earlier transition — a cycle of
    /// waits would need some transition to precede itself.
    pub fn migrate(&self, id: DomainId, to: usize) -> Result<bool, RuntimeError> {
        self.migrate_from(id, None, to)
    }

    /// Migration with an optional placement precondition: no-op unless the
    /// domain is currently on `only_from` (used by the rebalancer to skip
    /// plan entries that raced with a concurrent move).
    fn migrate_from(
        &self,
        id: DomainId,
        only_from: Option<usize>,
        to: usize,
    ) -> Result<bool, RuntimeError> {
        if to >= self.shards.len() {
            return Err(RuntimeError::Fleet(format!(
                "target shard {to} out of range ({} shards)",
                self.shards.len()
            )));
        }
        let mut guard = self.fleet.lock();
        let inner = &mut *guard;
        let Some(e) = inner.entries.get_mut(&id) else {
            return Err(RuntimeError::UnknownDomain(id));
        };
        let from = e.shard;
        if from == to || only_from.is_some_and(|f| f != from) {
            return Ok(false);
        }
        e.shard = to;
        e.migrations += 1;
        let resident = e.state == DomainState::Resident;
        inner.migrations += 1;
        tempo_obs::counter!("tempo_domain_migrations_total", "Domains moved between shards").inc();
        inner.shard_counts[from] -= 1;
        inner.shard_counts[to] += 1;
        if resident {
            // Both enqueues under the same lock hold (see `dispatch_to`).
            // A hibernated domain needs no jobs: its bytes are already in
            // the store and the next touch rehydrates on the new shard.
            self.send_hibernate(from, id)?;
            self.send_rehydrate(to, id)?;
        }
        Ok(true)
    }

    /// Migrates hot domains off overloaded shards until no shard carries
    /// more than [`FleetConfig::rebalance_factor`] × the mean advance load,
    /// then resets the load window. Returns the executed moves as
    /// `(domain, from, to)`.
    pub fn rebalance(&self) -> Vec<(DomainId, u64, u64)> {
        let factor = self.fleet.config().rebalance_factor;
        let plan = self.fleet.lock().plan_rebalance(factor);
        let mut moves = Vec::with_capacity(plan.len());
        for (id, from, to) in plan {
            if self.migrate_from(id, Some(from), to).unwrap_or(false) {
                moves.push((id, from as u64, to as u64));
            }
        }
        self.fleet.lock().reset_work();
        moves
    }

    /// One fleet-policy sweep: enforces the resident-bytes watermark with
    /// no domain protected, and hibernates domains idle for more than
    /// [`FleetConfig::idle_ticks`] dispatch ticks. Returns how many domains
    /// were sent to hibernation. The server runs this on every `Tick`.
    pub fn maintain(&self) -> u64 {
        let mut inner = self.fleet.lock();
        let watermark = self.fleet.config().resident_bytes_watermark;
        let mut victims = inner.plan_evictions(None, watermark);
        if let Some(ticks) = self.fleet.config().idle_ticks {
            victims.extend(inner.plan_idle(ticks));
        }
        for &(vid, vshard) in &victims {
            if self.send_hibernate(vshard, vid).is_err() {
                break;
            }
        }
        victims.len() as u64
    }

    /// Whether `id` is known to the fleet table at all — resident,
    /// hibernated, or degraded. Journal replay uses this to recognize a
    /// create that is already covered by the checkpoint.
    pub fn contains_domain(&self, id: DomainId) -> bool {
        self.fleet.lock().entries.contains_key(&id)
    }

    /// Domains currently marked degraded (lost to a shard-worker panic),
    /// id-sorted. The journal repair path sweeps this.
    pub fn degraded_domains(&self) -> Vec<DomainId> {
        let inner = self.fleet.lock();
        inner
            .entries
            .iter()
            .filter(|(_, e)| e.state == DomainState::Degraded)
            .map(|(&id, _)| id)
            .collect()
    }

    /// The most recent retained decisions, oldest first. `limit` defaults
    /// to everything retained; `domain` filters to one domain's decisions.
    pub fn recent_traces(
        &self,
        limit: Option<u64>,
        domain: Option<DomainId>,
    ) -> Vec<DecisionTrace> {
        let n = limit.map_or(TRACE_CAPACITY, |l| l.min(TRACE_CAPACITY as u64) as usize);
        match domain {
            Some(id) => self.traces.recent_filtered(n, |t| t.domain == id),
            None => self.traces.recent(n),
        }
    }

    /// Journal-less self-healing: re-creates every degraded domain fresh
    /// from its retained spec and reinstalls it. The rebuilt domain starts
    /// cold — its in-memory trajectory died with the panicking worker, and
    /// only a journal can resurrect that — but the tenant is served again
    /// instead of erroring until an operator intervenes. The journaled
    /// maintenance path uses [`crate::wal::repair_domain`] instead, which
    /// recovers the full trajectory. Returns the respawned ids.
    pub fn respawn_degraded(&self) -> Vec<DomainId> {
        let mut respawned = Vec::new();
        for id in self.degraded_domains() {
            let Some(spec) = self.specs.lock().expect("specs lock").get(&id).cloned() else {
                continue;
            };
            match Domain::new(spec) {
                Ok(domain) => match self.install_domain(id, domain) {
                    Ok(()) => {
                        tempo_obs::counter!(
                            "tempo_domain_respawned_total",
                            "Degraded domains respawned fresh from their retained spec"
                        )
                        .inc();
                        eprintln!("tempo-serve: domain {id} respawned from its spec (state reset)");
                        respawned.push(id);
                    }
                    Err(e) => eprintln!("tempo-serve: respawn of domain {id} failed: {e}"),
                },
                Err(e) => eprintln!("tempo-serve: respawn of domain {id} rejected its spec: {e}"),
            }
        }
        respawned
    }

    /// Occupancy and throughput counters across every domain, id-sorted.
    /// Never rehydrates: hibernated domains report the counters captured
    /// when they left memory, overlaid with live fleet accounting.
    pub fn metrics(&self) -> RuntimeMetrics {
        let swept: HashMap<DomainId, DomainMetrics> = self
            .on_all_shards(|state| {
                state.domains.iter().map(|(id, d)| (*id, base_metrics(*id, d))).collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        let inner = self.fleet.lock();
        let shard_loads = inner.shard_loads();
        let mut resident_domains = 0u64;
        let mut degraded_domains = 0u64;
        let mut per_domain = Vec::with_capacity(inner.entries.len());
        for (&id, e) in &inner.entries {
            let resident = e.state == DomainState::Resident;
            let degraded = e.state == DomainState::Degraded;
            resident_domains += u64::from(resident);
            degraded_domains += u64::from(degraded);
            let mut m = swept.get(&id).cloned().unwrap_or_else(|| e.cached.clone());
            m.resident = resident;
            m.degraded = degraded;
            m.shard = e.shard as u64;
            m.last_touch_tick = e.last_touch;
            m.estimated_bytes = e.est_bytes;
            m.advance_ewma_micros = e.advance_ewma_micros;
            m.hibernations = e.hibernations;
            m.rehydrations = e.rehydrations;
            per_domain.push(m);
        }
        let (resident_bytes, peak_resident_bytes) =
            (inner.resident_bytes, inner.peak_resident_bytes);
        let (total_hibernations, total_rehydrations, total_migrations) =
            (inner.hibernations, inner.rehydrations, inner.migrations);
        drop(inner);
        RuntimeMetrics {
            domains: per_domain.len() as u64,
            shards: self.shards.len() as u64,
            clock_now: self.clock.now(),
            total_decisions: per_domain.iter().map(|m| m.decisions).sum(),
            total_ingested: per_domain.iter().map(|m| m.ingested).sum(),
            total_sims: per_domain.iter().map(|m| m.sims).sum(),
            total_shed: per_domain.iter().map(|m| m.shed_count).sum(),
            total_delayed: per_domain.iter().map(|m| m.delayed_count).sum(),
            resident_domains,
            degraded_domains,
            resident_bytes,
            peak_resident_bytes,
            total_hibernations,
            total_rehydrations,
            total_migrations,
            shard_loads,
            per_domain,
        }
    }

    /// Captures every domain's resumable state, id-sorted. Hibernated
    /// domains are decoded straight from their stored snapshot bytes —
    /// exactly the state a rehydration would resume from — without waking
    /// them. A domain whose hibernate/rehydrate job is mid-flight is picked
    /// up on a retry sweep.
    pub fn snapshot(&self) -> RuntimeSnapshot {
        let clock_now = self.clock.now();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let mut domains: Vec<DomainSnapshot> = self
                .on_all_shards(|state| {
                    state.domains.iter().map(|(id, d)| d.snapshot(*id)).collect::<Vec<_>>()
                })
                .into_iter()
                .flatten()
                .collect();
            let resident: HashSet<DomainId> = domains.iter().map(|d| d.id).collect();
            let mut cold = Vec::new();
            let mut in_flight = false;
            {
                let inner = self.fleet.lock();
                for (&id, e) in &inner.entries {
                    if resident.contains(&id) {
                        continue;
                    }
                    // A degraded domain has no trustworthy state anywhere;
                    // the snapshot simply omits it (the journal is its only
                    // recovery source).
                    if e.state == DomainState::Degraded {
                        continue;
                    }
                    match inner.store.get(&id) {
                        Some(bytes) => cold.push(bytes.clone()),
                        None => in_flight = true,
                    }
                }
            }
            if !in_flight {
                for bytes in cold {
                    domains.push(
                        codec::decode_snapshot(&bytes).expect("stored snapshot bytes decode"),
                    );
                }
                domains.sort_by_key(|d| d.id);
                return RuntimeSnapshot { clock_now, domains };
            }
            assert!(
                Instant::now() < deadline,
                "domain state unavailable for 10s during snapshot (in-flight transition wedged)"
            );
            std::thread::sleep(Duration::from_micros(200));
        }
    }

    /// Stop-the-world capture: every shard worker snapshots its resident
    /// domains and then parks at a barrier, so while `f` runs nothing
    /// executes — or journals — anywhere in the runtime. The checkpoint
    /// path is built on this: taking the state capture and cutting the
    /// journal inside one quiescent window is what guarantees every
    /// journaled op lands in exactly one of {checkpoint, journal suffix}.
    ///
    /// Park jobs are enqueued under one continuous fleet-lock hold, the
    /// same discipline as placement transitions (see
    /// [`ControllerRuntime::dispatch_to`]): a migration's hibernate/
    /// rehydrate pair is therefore entirely before the barrier (its bytes
    /// land before the affected shards park) or entirely behind it — a
    /// rehydrate can never spin for bytes whose hibernate is parked.
    ///
    /// `f` must not dispatch work to shards (it would deadlock against the
    /// barrier); fleet-table reads and journal I/O are fine. Degraded
    /// domains are omitted, exactly as in [`ControllerRuntime::snapshot`].
    pub fn quiesced_snapshot<R>(
        &self,
        f: impl FnOnce(&RuntimeSnapshot) -> R,
    ) -> (RuntimeSnapshot, R) {
        let clock_now = self.clock.now();
        let (cap_tx, cap_rx) = channel::unbounded::<Vec<DomainSnapshot>>();
        let mut releases = Vec::with_capacity(self.shards.len());
        {
            let _inner = self.fleet.lock();
            for shard in &self.shards {
                let cap_tx = cap_tx.clone();
                let (release_tx, release_rx) = channel::bounded::<()>(1);
                let job: ShardJob = Box::new(move |state| {
                    let caps: Vec<DomainSnapshot> =
                        state.domains.iter().map(|(id, d)| d.snapshot(*id)).collect();
                    let _ = cap_tx.send(caps);
                    let _ = release_rx.recv();
                });
                if shard.tx.send(job).is_ok() {
                    releases.push(release_tx);
                }
            }
        }
        let mut domains: Vec<DomainSnapshot> =
            (0..releases.len()).filter_map(|_| cap_rx.recv().ok()).flatten().collect();
        // Every live worker is parked now; cold domains come from the store.
        // No in-flight wait is needed: a transition whose job is queued
        // behind the barrier has not removed its domain from the shard map
        // yet, so the domain was captured as resident above.
        let resident: HashSet<DomainId> = domains.iter().map(|d| d.id).collect();
        {
            let inner = self.fleet.lock();
            for (&id, e) in &inner.entries {
                if resident.contains(&id) || e.state == DomainState::Degraded {
                    continue;
                }
                match inner.store.get(&id) {
                    Some(bytes) => domains
                        .push(codec::decode_snapshot(bytes).expect("stored snapshot bytes decode")),
                    // Only reachable if a rehydrate failed to decode its own
                    // bytes (already logged there); nothing left to capture.
                    None => {
                        eprintln!("tempo-serve: domain {id} has no capturable state during quiesce")
                    }
                }
            }
        }
        domains.sort_by_key(|d| d.id);
        let snapshot = RuntimeSnapshot { clock_now, domains };
        let result = f(&snapshot);
        for release in releases {
            let _ = release.send(());
        }
        (snapshot, result)
    }

    /// Restores domains from a snapshot (ids preserved), replacing any
    /// same-id domains already hosted. Returns the restored ids.
    pub fn restore(&self, snapshot: RuntimeSnapshot) -> Result<Vec<DomainId>, RuntimeError> {
        let _guard = self.create_lock.lock().expect("create lock");
        let mut ids = Vec::with_capacity(snapshot.domains.len());
        let mut max_id = self.next_id.load(Ordering::SeqCst);
        for ds in snapshot.domains {
            let id = ds.id;
            let domain = Domain::restore(ds).map_err(RuntimeError::InvalidSpec)?;
            self.install_domain(id, domain)?;
            ids.push(id);
            max_id = max_id.max(id + 1);
        }
        self.next_id.store(max_id, Ordering::SeqCst);
        Ok(ids)
    }

    /// Stops accepting work and joins every shard worker. Queued operations
    /// submitted before the call complete first (channels drain in order).
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        for shard in &mut self.shards {
            // Dropping the sender closes the queue; the worker drains what
            // is left and exits its recv loop. A rehydrate job draining on
            // one shard can still complete: the hibernate publishing its
            // bytes was enqueued first (fleet-lock order) and other shards'
            // workers keep draining their queues independently.
            let (closed_tx, _closed_rx) = channel::bounded::<ShardJob>(1);
            let tx = std::mem::replace(&mut shard.tx, closed_tx);
            drop(tx);
            drop(_closed_rx);
            if let Some(worker) = shard.worker.take() {
                let _ = worker.join();
            }
        }
    }
}

impl Drop for ControllerRuntime {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimClock;
    use crate::domain::DomainSpec;
    use tempo_qs::{QsKind, SloSet, SloSpec};
    use tempo_sim::{ClusterSpec, TenantConfig};
    use tempo_workload::time::{MIN, SEC};
    use tempo_workload::trace::TaskSpec;

    fn spec(name: &str, seed: u64) -> DomainSpec {
        let slos = SloSet::new(vec![
            SloSpec::new(Some(0), QsKind::DeadlineMiss { gamma: 0.25 }).with_threshold(0.0),
            SloSpec::new(Some(1), QsKind::AvgResponseTime),
        ]);
        let initial = RmConfig::new(vec![
            TenantConfig::fair_default().with_weight(2.0),
            TenantConfig::fair_default(),
        ]);
        DomainSpec::new(name, ClusterSpec::new(8, 4), slos, initial, 4 * MIN)
            .with_seed(seed)
            .with_probes(3)
    }

    fn jobs(base: u64) -> Vec<JobSpec> {
        (0..4u64)
            .map(|i| {
                JobSpec::new(
                    0,
                    (i % 2) as u16,
                    base + i * 30 * SEC,
                    vec![TaskSpec::map(20 * SEC), TaskSpec::reduce(30 * SEC)],
                )
            })
            .collect()
    }

    #[test]
    fn domains_are_isolated_across_shards() {
        let rt = ControllerRuntime::new(3, Arc::new(SimClock::new()));
        let a = rt.create_domain(spec("a", 1)).unwrap();
        let b = rt.create_domain(spec("b", 2)).unwrap();
        assert_ne!(a, b);
        rt.ingest(a, jobs(0)).unwrap();
        let rec = rt.advance(a).unwrap();
        assert!(!rec.skipped);
        // Domain b saw nothing.
        let rec_b = rt.advance(b).unwrap();
        assert!(rec_b.skipped);
        let m = rt.metrics();
        assert_eq!(m.domains, 2);
        assert_eq!(m.total_decisions, 1);
        assert_eq!(m.per_domain[0].ingested, 4);
        assert_eq!(m.per_domain[1].ingested, 0);
        rt.shutdown();
    }

    #[test]
    fn unknown_domains_and_bad_specs_error() {
        let rt = ControllerRuntime::new(2, Arc::new(SimClock::new()));
        assert_eq!(rt.advance(99), Err(RuntimeError::UnknownDomain(99)));
        assert_eq!(rt.ingest(99, vec![]), Err(RuntimeError::UnknownDomain(99)));
        let mut bad = spec("bad", 1);
        bad.window_len = 0;
        assert!(matches!(rt.create_domain(bad), Err(RuntimeError::InvalidSpec(_))));
        rt.shutdown();
    }

    #[test]
    fn advance_all_uses_one_clock_reading() {
        let clock = Arc::new(SimClock::new());
        let rt = ControllerRuntime::new(4, Arc::<SimClock>::clone(&clock));
        let ids: Vec<_> =
            (0..6).map(|i| rt.create_domain(spec(&format!("d{i}"), i)).unwrap()).collect();
        for &id in &ids {
            rt.ingest(id, jobs(0)).unwrap();
        }
        clock.advance(2 * MIN);
        let records = rt.advance_all();
        assert_eq!(records.len(), 6);
        assert!(records.windows(2).all(|w| w[0].0 < w[1].0), "id-sorted");
        let windows: Vec<_> = records.iter().map(|(_, r)| r.window).collect();
        assert!(windows.iter().all(|w| *w == windows[0]), "single consistent now");
        rt.shutdown();
    }

    #[test]
    fn concurrent_clients_make_progress() {
        let rt = Arc::new(ControllerRuntime::new(4, Arc::new(SimClock::new())));
        let ids: Vec<_> =
            (0..8).map(|i| rt.create_domain(spec(&format!("d{i}"), i)).unwrap()).collect();
        let handles: Vec<_> = ids
            .iter()
            .map(|&id| {
                let rt = Arc::clone(&rt);
                std::thread::spawn(move || {
                    rt.ingest(id, jobs(0)).unwrap();
                    for _ in 0..2 {
                        rt.advance(id).unwrap();
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let m = rt.metrics();
        assert_eq!(m.total_decisions, 16);
        Arc::try_unwrap(rt).ok().expect("sole owner").shutdown();
    }

    #[test]
    fn over_budget_tenant_backpressures_without_slowing_siblings() {
        use crate::domain::IngestBudget;
        let clock = Arc::new(SimClock::new());
        // One shard on purpose: the greedy tenant and its siblings share a
        // worker thread, so isolation must come from the budget, not luck.
        let rt = ControllerRuntime::new(1, Arc::<SimClock>::clone(&clock));
        let greedy =
            rt.create_domain(spec("greedy", 1).with_ingest_budget(IngestBudget::delay(4))).unwrap();
        let calm_a = rt.create_domain(spec("calm-a", 2)).unwrap();
        let calm_b = rt.create_domain(spec("calm-b", 3)).unwrap();

        // The greedy tenant drains its bucket, then gets turned away.
        assert_eq!(rt.ingest(greedy, jobs(0)).unwrap(), IngestOutcome::Accepted { accepted: 4 });
        let busy = rt.ingest(greedy, jobs(0)).unwrap();
        assert!(
            matches!(busy, IngestOutcome::Busy { retry_after_micros } if retry_after_micros > 0)
        );

        // Siblings on the same shard keep ingesting and deciding at full
        // rate while the greedy tenant is backpressured.
        for _ in 0..3 {
            assert_eq!(rt.ingest(calm_a, jobs(0)).unwrap().accepted(), 4);
            assert_eq!(rt.ingest(calm_b, jobs(0)).unwrap().accepted(), 4);
            clock.advance(30 * SEC);
            assert!(!rt.advance(calm_a).unwrap().skipped);
            assert!(!rt.advance(calm_b).unwrap().skipped);
        }

        let m = rt.metrics();
        assert_eq!(m.total_delayed, 4);
        assert_eq!(m.total_shed, 0);
        let gm = m.per_domain.iter().find(|d| d.id == greedy).unwrap();
        assert_eq!(gm.delayed_count, 4);
        assert!(gm.ingest_budget_occupancy > 0.0);
        let am = m.per_domain.iter().find(|d| d.id == calm_a).unwrap();
        assert_eq!(am.ingested, 12, "sibling saw every job");
        assert_eq!(am.decisions, 3, "sibling never skipped");

        // Once the retry hint elapses the greedy tenant is admitted again.
        clock.advance(4 * MIN);
        assert_eq!(rt.ingest(greedy, jobs(0)).unwrap().accepted(), 4);
        rt.shutdown();
    }

    #[test]
    fn async_dispatch_preserves_same_domain_order() {
        let rt = ControllerRuntime::new(2, Arc::new(SimClock::new()));
        let id = rt.create_domain(spec("a", 1)).unwrap();
        let (tx, rx) = channel::unbounded::<u64>();
        for i in 0..16u64 {
            let tx = tx.clone();
            rt.on_domain_async(id, move |d| {
                let _ = tx.send(d.map(|d| d.ingested()).unwrap_or(u64::MAX) + i);
            })
            .unwrap();
        }
        let seen: Vec<u64> = (0..16).map(|_| rx.recv().unwrap()).collect();
        assert_eq!(seen, (0..16).collect::<Vec<_>>(), "FIFO per shard");
        // Unknown domains surface through the callback, not a panic.
        let (tx2, rx2) = channel::bounded::<Result<(), RuntimeError>>(1);
        rt.on_domain_async(999, move |d| {
            let _ = tx2.send(d.map(|_| ()));
        })
        .unwrap();
        assert_eq!(rx2.recv().unwrap(), Err(RuntimeError::UnknownDomain(999)));
        rt.shutdown();
    }

    #[test]
    fn snapshot_restore_round_trips_through_a_fresh_runtime() {
        let clock = Arc::new(SimClock::new());
        let rt = ControllerRuntime::new(2, Arc::<SimClock>::clone(&clock));
        let a = rt.create_domain(spec("a", 7)).unwrap();
        let b = rt.create_domain(spec("b", 8)).unwrap();
        rt.ingest(a, jobs(0)).unwrap();
        rt.ingest(b, jobs(MIN)).unwrap();
        rt.advance_all();
        let snap = rt.snapshot();
        let json = serde_json::to_string(&snap).unwrap();
        rt.shutdown();

        let clock2 = Arc::new(SimClock::at(snap.clock_now));
        let rt2 = ControllerRuntime::new(2, Arc::<SimClock>::clone(&clock2));
        let parsed: RuntimeSnapshot = serde_json::from_str(&json).unwrap();
        let ids = rt2.restore(parsed).unwrap();
        assert_eq!(ids, vec![a, b]);
        // New domains never collide with restored ids.
        let c = rt2.create_domain(spec("c", 9)).unwrap();
        assert!(c > b);
        let m = rt2.metrics();
        assert_eq!(m.domains, 3);
        assert_eq!(m.total_decisions, 2);
        rt2.shutdown();
    }

    #[test]
    fn hibernated_domains_report_metrics_and_wake_transparently() {
        let clock = Arc::new(SimClock::new());
        let rt = ControllerRuntime::new(2, Arc::<SimClock>::clone(&clock));
        let a = rt.create_domain(spec("a", 1)).unwrap();
        let b = rt.create_domain(spec("b", 2)).unwrap();
        rt.ingest(a, jobs(0)).unwrap();
        clock.advance(2 * MIN);
        assert!(!rt.advance(a).unwrap().skipped);

        assert!(rt.hibernate(a).unwrap());
        assert!(!rt.hibernate(a).unwrap(), "second hibernate is a no-op");
        assert_eq!(rt.hibernate(777), Err(RuntimeError::UnknownDomain(777)));

        // Metrics come from the cached counters without waking the domain.
        let m = rt.metrics();
        assert_eq!(m.domains, 2);
        assert_eq!(m.resident_domains, 1);
        assert_eq!(m.total_hibernations, 1);
        let am = m.per_domain.iter().find(|d| d.id == a).unwrap();
        assert!(!am.resident);
        assert_eq!(am.ingested, 4);
        assert_eq!(am.decisions, 1);
        assert!(am.estimated_bytes > 0);
        assert!(m.per_domain.iter().find(|d| d.id == b).unwrap().resident);
        assert!(m.resident_bytes < m.peak_resident_bytes);

        // Snapshots include hibernated domains without waking them.
        let snap = rt.snapshot();
        assert_eq!(snap.domains.len(), 2);
        assert_eq!(rt.metrics().resident_domains, 1, "snapshot did not rehydrate");

        // The next operation rehydrates transparently, counters intact.
        clock.advance(2 * MIN);
        rt.ingest(a, jobs(4 * MIN)).unwrap();
        assert!(!rt.advance(a).unwrap().skipped);
        let m = rt.metrics();
        let am = m.per_domain.iter().find(|d| d.id == a).unwrap();
        assert!(am.resident);
        assert_eq!(am.ingested, 8);
        assert_eq!(am.decisions, 2);
        assert_eq!(am.hibernations, 1);
        assert_eq!(am.rehydrations, 1);
        assert_eq!(m.resident_domains, 2);
        rt.shutdown();
    }

    #[test]
    fn watermark_keeps_resident_bytes_bounded() {
        let clock = Arc::new(SimClock::new());
        // Watermark below two idle domains' footprint: at most one stays
        // resident once a second exists.
        let config = FleetConfig::default().with_watermark(6 * 1024);
        let rt = ControllerRuntime::with_fleet(1, Arc::<SimClock>::clone(&clock), config);
        let ids: Vec<_> =
            (0..4).map(|i| rt.create_domain(spec(&format!("d{i}"), i)).unwrap()).collect();
        let m = rt.metrics();
        assert_eq!(m.domains, 4);
        assert_eq!(m.resident_domains, 1, "creation evicted down to the watermark");
        // Peak never exceeded watermark + the single protected domain.
        let max_domain = m.per_domain.iter().map(|d| d.estimated_bytes).max().unwrap();
        assert!(
            m.peak_resident_bytes <= 6 * 1024 + max_domain,
            "peak {} exceeds watermark + one domain",
            m.peak_resident_bytes
        );
        // Every domain still works when touched; LRU churns through them.
        for (i, &id) in ids.iter().enumerate() {
            rt.ingest(id, jobs(i as u64 * 30 * SEC)).unwrap();
            clock.advance(30 * SEC);
            assert!(!rt.advance(id).unwrap().skipped);
        }
        let m = rt.metrics();
        assert_eq!(m.total_decisions, 4);
        assert!(m.total_rehydrations >= 3, "cold domains woke on touch");
        assert_eq!(m.resident_domains, 1);
        rt.shutdown();
    }

    #[test]
    fn migrate_moves_domains_and_validates_targets() {
        let clock = Arc::new(SimClock::new());
        let rt = ControllerRuntime::new(2, Arc::<SimClock>::clone(&clock));
        let a = rt.create_domain(spec("a", 5)).unwrap();
        rt.ingest(a, jobs(0)).unwrap();
        clock.advance(MIN);
        let before = rt.advance(a).unwrap();
        assert!(!before.skipped);

        assert!(matches!(rt.migrate(a, 99), Err(RuntimeError::Fleet(_))));
        assert_eq!(rt.migrate(404, 1), Err(RuntimeError::UnknownDomain(404)));
        let home = rt.metrics().per_domain[0].shard;
        assert!(!rt.migrate(a, home as usize).unwrap(), "already there");
        let away = 1 - home;
        assert!(rt.migrate(a, away as usize).unwrap());

        // The domain keeps working on its new shard, history intact.
        rt.ingest(a, jobs(2 * MIN)).unwrap();
        clock.advance(MIN);
        assert!(!rt.advance(a).unwrap().skipped);
        let m = rt.metrics();
        let am = &m.per_domain[0];
        assert_eq!(am.shard, away);
        assert!(am.resident);
        assert_eq!(am.decisions, 2);
        assert_eq!(am.ingested, 8);
        assert_eq!(m.total_migrations, 1);
        rt.shutdown();
    }

    #[test]
    fn rebalance_spreads_advance_load_across_shards() {
        let clock = Arc::new(SimClock::new());
        let config = FleetConfig::default().with_rebalance_factor(1.25);
        let rt = ControllerRuntime::with_fleet(4, Arc::<SimClock>::clone(&clock), config);
        // Eight domains, two per shard by creation placement; make shard
        // 0's pair do all the work.
        let ids: Vec<_> =
            (0..8).map(|i| rt.create_domain(spec(&format!("d{i}"), i)).unwrap()).collect();
        let hot: Vec<_> = {
            let m = rt.metrics();
            m.per_domain.iter().filter(|d| d.shard == 0).map(|d| d.id).collect()
        };
        assert_eq!(hot.len(), 2);
        for round in 0..6u64 {
            for &id in &hot {
                rt.ingest(id, jobs(round * MIN)).unwrap();
                clock.advance(20 * SEC);
                rt.advance(id).unwrap();
            }
        }
        let loads = rt.metrics().shard_loads;
        assert_eq!(loads.iter().sum::<u64>(), 12);
        assert_eq!(loads[0], 12, "all load on shard 0 before rebalancing");

        let moves = rt.rebalance();
        assert!(!moves.is_empty(), "imbalance above factor must trigger moves");
        assert!(moves.iter().all(|&(id, from, _)| from == 0 && hot.contains(&id)));
        let m = rt.metrics();
        assert!(m.total_migrations >= 1);
        assert!(m.shard_loads.iter().all(|&l| l == 0), "load window reset");
        // Moved domains still advance correctly on their new shards.
        for &id in &ids {
            clock.advance(20 * SEC);
            rt.advance(id).unwrap();
        }
        assert_eq!(rt.metrics().per_domain.len(), 8);
        rt.shutdown();
    }

    #[test]
    fn maintain_hibernates_idle_domains() {
        let clock = Arc::new(SimClock::new());
        let config = FleetConfig::default().with_idle_ticks(6);
        let rt = ControllerRuntime::with_fleet(1, Arc::<SimClock>::clone(&clock), config);
        let idle = rt.create_domain(spec("idle", 1)).unwrap();
        let busy = rt.create_domain(spec("busy", 2)).unwrap();
        assert_eq!(rt.maintain(), 0, "nothing idle yet");
        // Burn dispatch ticks on the busy domain only.
        for round in 0..8u64 {
            rt.ingest(busy, jobs(round * 30 * SEC)).unwrap();
        }
        assert_eq!(rt.maintain(), 1);
        let m = rt.metrics();
        assert!(!m.per_domain.iter().find(|d| d.id == idle).unwrap().resident);
        assert!(m.per_domain.iter().find(|d| d.id == busy).unwrap().resident);
        // The idle domain comes back on touch.
        rt.ingest(idle, jobs(0)).unwrap();
        assert!(rt.metrics().per_domain.iter().find(|d| d.id == idle).unwrap().resident);
        rt.shutdown();
    }

    #[test]
    fn quiesced_snapshot_matches_snapshot_and_resumes_service() {
        let rt = ControllerRuntime::new(2, Arc::new(SimClock::new()));
        let a = rt.create_domain(spec("a", 1)).unwrap();
        let b = rt.create_domain(spec("b", 2)).unwrap();
        let c = rt.create_domain(spec("c", 3)).unwrap();
        rt.ingest(a, jobs(0)).unwrap();
        rt.advance(a).unwrap();
        rt.ingest(b, jobs(5)).unwrap();
        assert!(rt.hibernate(c).unwrap(), "hibernate c");
        let reference = rt.snapshot();
        let (quiesced, seen) = rt.quiesced_snapshot(|s| s.domains.len());
        assert_eq!(quiesced, reference);
        assert_eq!(seen, 3, "closure sees the full capture, cold domains included");
        // The barrier released: every shard serves again.
        rt.advance(a).unwrap();
        rt.advance(b).unwrap();
        rt.advance(c).unwrap();
        rt.shutdown();
    }

    #[test]
    fn advance_all_at_with_reports_each_shards_domains() {
        let rt = ControllerRuntime::new(2, Arc::new(SimClock::new()));
        for i in 0..4u64 {
            rt.create_domain(spec(&format!("d{i}"), i)).unwrap();
        }
        let seen = Arc::new(std::sync::Mutex::new(Vec::<Vec<DomainId>>::new()));
        let hook_seen = Arc::clone(&seen);
        let records = rt.advance_all_at_with(rt.clock().now(), move |shard_ids| {
            hook_seen.lock().unwrap().push(shard_ids.to_vec());
        });
        let mut advanced: Vec<DomainId> = records.iter().map(|(id, _)| *id).collect();
        advanced.sort_unstable();
        let groups = seen.lock().unwrap();
        let mut reported: Vec<DomainId> = groups.iter().flatten().copied().collect();
        reported.sort_unstable();
        assert_eq!(reported, advanced, "hook reports exactly the advanced ids");
        assert!(groups.len() <= 2, "at most one hook call per shard, got {}", groups.len());
        drop(groups);
        rt.shutdown();
    }
}
