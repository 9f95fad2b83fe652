//! Telemetry must be a pure observer: flipping the global collection flag
//! cannot change a single bit of any deterministic trajectory, snapshot, or
//! journal — and scrapes taken mid-flight must never look torn.
//!
//! The pins here: (1) a proptest running the §8.2-style contention scenario
//! twice, telemetry off then on, demanding bit-identical `DecisionRecord`s
//! and `RuntimeSnapshot`s; (2) the same demand end-to-end for a journaled
//! server, down to the raw `journal.bin`/`checkpoint.bin` bytes; (3) a
//! concurrent-scrape test — four shards under live load while the
//! exposition is polled — asserting counters only ever go up and every
//! histogram scrape satisfies `_count == +Inf bucket` with monotone
//! cumulative buckets; (4) journal-less self-healing: a panicked shard
//! degrades a domain, `respawn_degraded` brings it back from its retained
//! spec and bumps `tempo_domain_respawned_total`; (5) the simulator's and
//! the What-if Model's counters keep their meaning — an event is a job
//! arrival, a task finish or a preemption check, however the engine came by
//! it.

use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use tempo_core::whatif::{WhatIfModel, WorkloadSource};
use tempo_obs::Exposition;
use tempo_qs::{QsKind, SloSet, SloSpec};
use tempo_serve::demo::{contention_burst, contention_spec, DEMO_WINDOW};
use tempo_serve::proto::{Request, Response};
use tempo_serve::{
    Client, ClockMode, ControllerRuntime, DecisionRecord, FaultInjector, FleetConfig, Proto,
    RuntimeError, RuntimeSnapshot, Server, ServerConfig, SimClock,
};
use tempo_sim::{simulate, ClusterSpec, RmConfig, SimOptions, TenantConfig};
use tempo_workload::time::{MIN, SEC};
use tempo_workload::trace::{JobSpec, TaskSpec, Trace};

/// The telemetry flag is process-global and the test harness runs tests
/// concurrently, so every test that flips (or reads through) the flag
/// serializes on this lock and restores `false` before releasing it.
static FLAG_LOCK: Mutex<()> = Mutex::new(());

fn flag_guard() -> MutexGuard<'static, ()> {
    FLAG_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// RAII restore: telemetry back off when the test leaves (even on panic,
/// so one failure doesn't contaminate the rest of the binary).
struct FlagOff;
impl Drop for FlagOff {
    fn drop(&mut self) {
        tempo_obs::set_enabled(false);
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("tempo-telemetry-{tag}-{}-{n}", std::process::id()))
}

fn phase_base(phase: u64) -> u64 {
    phase * (DEMO_WINDOW / 2)
}

// ---------------------------------------------------------------------------
// 1. Embedded runtime: telemetry on vs off is bit-identical
// ---------------------------------------------------------------------------

/// Runs the scripted contention scenario on an embedded runtime and returns
/// everything observable about the trajectory.
fn run_embedded(seeds: &[u64], phases: u64) -> (Vec<DecisionRecord>, RuntimeSnapshot) {
    let clock = Arc::new(SimClock::new());
    let runtime = ControllerRuntime::new(2, Arc::<SimClock>::clone(&clock));
    let domains: Vec<u64> = seeds
        .iter()
        .map(|&seed| {
            runtime
                .create_domain(contention_spec(&format!("obs-{seed}"), seed))
                .expect("create domain")
        })
        .collect();
    let mut records = Vec::new();
    for phase in 0..phases {
        for (&id, &seed) in domains.iter().zip(seeds) {
            runtime
                .ingest(id, contention_burst(phase_base(phase), 6, seed ^ phase))
                .expect("ingest");
            records.push(runtime.advance(id).expect("advance"));
            records.push(runtime.advance(id).expect("advance again"));
        }
        clock.advance(DEMO_WINDOW / 2);
    }
    let snapshot = runtime.snapshot();
    runtime.shutdown();
    (records, snapshot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// §8.2 contention scenario, telemetry off vs on: identical
    /// `DecisionRecord` streams and a bit-identical `RuntimeSnapshot`.
    /// Telemetry observes the control loop; it must never steer it.
    #[test]
    fn telemetry_flag_never_changes_the_trajectory(
        seeds in prop::collection::vec(0u64..1000, 1..3),
        phases in 2u64..4,
    ) {
        let _guard = flag_guard();
        let _off = FlagOff;
        tempo_obs::set_enabled(false);
        let (records_off, snapshot_off) = run_embedded(&seeds, phases);
        tempo_obs::set_enabled(true);
        let (records_on, snapshot_on) = run_embedded(&seeds, phases);
        prop_assert_eq!(records_off, records_on);
        prop_assert_eq!(snapshot_off, snapshot_on);
    }
}

// ---------------------------------------------------------------------------
// 2. Journaled server: on vs off down to the raw journal bytes
// ---------------------------------------------------------------------------

/// Drives a fixed wire script against a journaled sim-clock server and
/// returns the final snapshot plus the raw durable artifacts.
fn run_journaled(dir: &Path, telemetry: bool) -> (RuntimeSnapshot, Vec<u8>, Vec<u8>) {
    tempo_obs::set_enabled(telemetry);
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        clock: ClockMode::Sim,
        journal_dir: Some(dir.to_path_buf()),
        checkpoint_every: 4,
        ..ServerConfig::default()
    })
    .expect("start journaled server");
    let mut client = Client::connect(server.local_addr(), Proto::Binary).expect("connect");
    let mut domains = Vec::new();
    for seed in [3u64, 11] {
        match client
            .call(&Request::CreateDomain { spec: contention_spec(&format!("wire-{seed}"), seed) })
            .expect("create")
        {
            Response::Created { domain } => domains.push(domain),
            other => panic!("unexpected create response: {other:?}"),
        }
    }
    for phase in 0..3u64 {
        for (&domain, &seed) in domains.iter().zip(&[3u64, 11]) {
            let jobs = contention_burst(phase_base(phase), 5, seed ^ phase);
            match client
                .call(&Request::IngestAdvance { domain, jobs, steps: 2 })
                .expect("ingest_advance")
            {
                Response::IngestAdvanced { .. } => {}
                other => panic!("unexpected advance response: {other:?}"),
            }
        }
        client.call(&Request::Tick { micros: DEMO_WINDOW / 2 }).expect("tick");
    }
    let snapshot = server.runtime().snapshot();
    assert!(matches!(client.call(&Request::Shutdown), Ok(Response::ShuttingDown)));
    server.join();
    let journal = std::fs::read(dir.join("journal.bin")).expect("read journal");
    let checkpoint = std::fs::read(dir.join("checkpoint.bin")).expect("read checkpoint");
    (snapshot, journal, checkpoint)
}

/// A journaled serve run with telemetry enabled leaves byte-identical
/// durable state (journal and checkpoint files) and an identical final
/// snapshot to the same run with telemetry off.
#[test]
fn telemetry_flag_never_changes_journal_bytes() {
    let _guard = flag_guard();
    let _off = FlagOff;
    let dir_off = temp_dir("journal-off");
    let dir_on = temp_dir("journal-on");
    let (snap_off, journal_off, ckpt_off) = run_journaled(&dir_off, false);
    let (snap_on, journal_on, ckpt_on) = run_journaled(&dir_on, true);
    assert_eq!(snap_off, snap_on, "telemetry changed the final runtime snapshot");
    assert_eq!(journal_off, journal_on, "telemetry changed the journal bytes");
    assert_eq!(ckpt_off, ckpt_on, "telemetry changed the checkpoint bytes");
    let _ = std::fs::remove_dir_all(&dir_off);
    let _ = std::fs::remove_dir_all(&dir_on);
}

// ---------------------------------------------------------------------------
// 3. Concurrent scrapes: monotone counters, no torn histograms
// ---------------------------------------------------------------------------

/// Key identifying one time series across scrapes: sample name plus its
/// full (sorted) label set.
fn series_key(name: &str, labels: &[(String, String)], drop: Option<&str>) -> String {
    let mut labels: Vec<&(String, String)> =
        labels.iter().filter(|(k, _)| Some(k.as_str()) != drop).collect();
    labels.sort();
    let labels: Vec<String> = labels.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("{name}{{{}}}", labels.join(","))
}

/// Checks one parsed scrape for internal (torn-read) consistency and
/// returns every cumulative series for cross-scrape monotonicity checks.
fn audit_scrape(exp: &Exposition) -> BTreeMap<String, f64> {
    // Group histogram buckets by family identity (name + labels sans `le`).
    let mut buckets: BTreeMap<String, Vec<(f64, f64)>> = BTreeMap::new();
    let mut counts: BTreeMap<String, f64> = BTreeMap::new();
    let mut cumulative = BTreeMap::new();
    for s in &exp.samples {
        if let Some(base) = s.name.strip_suffix("_bucket") {
            let le = s.label("le").expect("bucket sample without le");
            let le = if le == "+Inf" { f64::INFINITY } else { le.parse().expect("bad le") };
            buckets.entry(series_key(base, &s.labels, Some("le"))).or_default().push((le, s.value));
        } else if let Some(base) = s.name.strip_suffix("_count") {
            counts.insert(series_key(base, &s.labels, None), s.value);
        }
        // Every sample tempo emits is cumulative except gauges; restricting
        // the cross-scrape monotonicity check to counter-suffixed names.
        if s.name.ends_with("_total")
            || s.name.ends_with("_count")
            || s.name.ends_with("_sum")
            || s.name.ends_with("_bucket")
        {
            cumulative.insert(series_key(&s.name, &s.labels, None), s.value);
        }
    }
    for (family, mut series) in buckets {
        series.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("le ordering"));
        let mut prev = 0.0;
        for &(le, v) in &series {
            assert!(v >= prev, "torn scrape: {family} bucket le={le} fell from {prev} to {v}");
            prev = v;
        }
        let (last_le, inf_count) = *series.last().expect("empty bucket family");
        assert!(last_le.is_infinite(), "{family} missing +Inf bucket");
        let count = counts.get(&family).copied().expect("histogram without _count");
        assert_eq!(inf_count, count, "torn scrape: {family} +Inf bucket disagrees with _count");
    }
    cumulative
}

/// Four shards under continuous load while the exposition is scraped in a
/// tight loop: every counter/bucket/count/sum series is monotone across
/// scrapes, and within each scrape `_count == +Inf bucket` and cumulative
/// buckets never decrease — the "scrapes never look torn" contract.
#[test]
fn concurrent_scrapes_are_monotone_and_untorn() {
    let _guard = flag_guard();
    let _off = FlagOff;
    tempo_obs::set_enabled(true);

    let clock = Arc::new(SimClock::new());
    let runtime = Arc::new(ControllerRuntime::new(4, Arc::<SimClock>::clone(&clock)));
    let domains: Vec<u64> = (0..4u64)
        .map(|seed| {
            runtime
                .create_domain(contention_spec(&format!("scrape-{seed}"), seed))
                .expect("create domain")
        })
        .collect();

    let stop = Arc::new(AtomicBool::new(false));
    let driven = Arc::new(AtomicBool::new(false));
    let driver = {
        let runtime = Arc::clone(&runtime);
        let clock = Arc::clone(&clock);
        let stop = Arc::clone(&stop);
        let driven = Arc::clone(&driven);
        let domains = domains.clone();
        std::thread::spawn(move || {
            let mut phase = 0u64;
            while !stop.load(Ordering::Relaxed) {
                for (i, &id) in domains.iter().enumerate() {
                    let jobs = contention_burst(phase_base(phase), 4, phase ^ i as u64);
                    runtime.ingest(id, jobs).expect("ingest under scrape");
                    runtime.advance(id).expect("advance under scrape");
                }
                clock.advance(DEMO_WINDOW / 2);
                phase += 1;
                driven.store(true, Ordering::Release);
            }
            phase
        })
    };

    // At least 20 scrapes, the last of them taken after the driver's first
    // phase: on a busy box 20 scrapes can be over before the driver thread
    // has decided anything.
    let mut prev: BTreeMap<String, f64> = BTreeMap::new();
    for scrape in 0.. {
        let last = scrape >= 19 && (driven.load(Ordering::Acquire) || driver.is_finished());
        let exp = Exposition::parse(&tempo_obs::render()).expect("parse scrape");
        let cur = audit_scrape(&exp);
        for (series, &v) in &cur {
            if let Some(&p) = prev.get(series) {
                assert!(v >= p, "scrape {scrape}: series {series} went backwards ({p} -> {v})");
            }
        }
        prev = cur;
        if last {
            break;
        }
        std::thread::yield_now();
    }
    stop.store(true, Ordering::Relaxed);
    let phases = driver.join().expect("driver thread");
    assert!(phases > 0, "driver made no progress while scraping");
    // The driver's clone died with its thread; we hold the last reference.
    Arc::try_unwrap(runtime).ok().expect("runtime still shared").shutdown();

    // The load must actually have landed in the scrape stream.
    let decisions =
        prev.get(&series_key("tempo_domain_decisions_total", &[], None)).copied().unwrap_or(0.0);
    assert!(decisions > 0.0, "no decisions surfaced in the exposition");
}

// ---------------------------------------------------------------------------
// 4. Journal-less respawn of a degraded domain
// ---------------------------------------------------------------------------

/// Targeted injector: panics exactly one shard op, whenever armed.
struct ArmedPanic(AtomicBool);

impl FaultInjector for ArmedPanic {
    fn shard_panic(&self, _shard: usize, _index: u64) -> bool {
        self.0.swap(false, Ordering::SeqCst)
    }
}

fn respawned_total() -> f64 {
    let exp = Exposition::parse(&tempo_obs::render()).expect("parse exposition");
    exp.value("tempo_domain_respawned_total", &[]).unwrap_or(0.0)
}

/// Without a journal there is no trajectory to repair, but the tenant must
/// still come back: `respawn_degraded` rebuilds the victim fresh from its
/// retained spec, the domain serves again, the sibling never notices, and
/// `tempo_domain_respawned_total` records the reset.
#[test]
fn journal_less_respawn_revives_a_degraded_domain() {
    let _guard = flag_guard();
    let _off = FlagOff;
    tempo_obs::set_enabled(true);
    let before = respawned_total();

    let sim = Arc::new(SimClock::new());
    let faults = Arc::new(ArmedPanic(AtomicBool::new(false)));
    let runtime = ControllerRuntime::with_fleet_faults(
        2,
        Arc::<SimClock>::clone(&sim),
        FleetConfig::default(),
        Arc::<ArmedPanic>::clone(&faults),
    );
    let victim = runtime.create_domain(contention_spec("victim", 7)).expect("create victim");
    let sibling = runtime.create_domain(contention_spec("sibling", 8)).expect("create sibling");
    for round in 0..2u64 {
        let jobs = contention_burst(0, 4, round);
        runtime.ingest(victim, jobs.clone()).expect("warm victim");
        runtime.advance(victim).expect("advance victim");
        runtime.ingest(sibling, jobs).expect("warm sibling");
        runtime.advance(sibling).expect("advance sibling");
    }

    // Arm and strike: the worker panics before the op runs, the victim's
    // in-memory state is lost, and the supervisor marks it degraded.
    faults.0.store(true, Ordering::SeqCst);
    let err = runtime.ingest(victim, contention_burst(0, 4, 99)).expect_err("panic swallowed");
    assert!(matches!(err, RuntimeError::ShardDown), "unexpected error: {err}");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while runtime.degraded_domains().is_empty() && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(runtime.degraded_domains(), vec![victim]);
    let err = runtime.advance(victim).expect_err("degraded domain served");
    assert!(matches!(err, RuntimeError::DomainDegraded(id) if id == victim));

    // Self-heal: back in service, fresh from the spec.
    assert_eq!(runtime.respawn_degraded(), vec![victim]);
    assert!(runtime.degraded_domains().is_empty());
    assert_eq!(runtime.metrics().degraded_domains, 0);
    runtime.ingest(victim, contention_burst(0, 4, 1)).expect("respawned victim ingests");
    let rec = runtime.advance(victim).expect("respawned victim serves");
    assert_eq!(rec.step, 1, "respawned domain should restart its step odometer");
    runtime.ingest(sibling, contention_burst(0, 4, 2)).expect("sibling unaffected");
    runtime.advance(sibling).expect("sibling advances");

    assert_eq!(
        respawned_total() - before,
        1.0,
        "tempo_domain_respawned_total should count the respawn"
    );
    runtime.shutdown();
}

// ---------------------------------------------------------------------------
// 5. Simulation counters keep their meaning
// ---------------------------------------------------------------------------

fn counter_total(name: &str) -> f64 {
    let exp = Exposition::parse(&tempo_obs::render()).expect("parse exposition");
    exp.value(name, &[]).unwrap_or(0.0)
}

/// `tempo_sim_events_total` counts job arrivals (which the engine takes from
/// the prepared window, not from its queue), task finishes and preemption
/// checks; `tempo_sim_runs_total` and `tempo_whatif_sims_total` count runs;
/// `tempo_qs_scan_elements_total` counts what the QS kernels scanned. Every
/// test in this binary holds the flag lock, so the deltas are exact.
#[test]
fn simulation_counters_count_what_they_name() {
    let _guard = flag_guard();
    let _off = FlagOff;
    tempo_obs::set_enabled(true);
    let names = [
        "tempo_sim_events_total",
        "tempo_sim_runs_total",
        "tempo_whatif_sims_total",
        "tempo_qs_scan_elements_total",
    ];
    let read = || names.map(counter_total);
    let delta = |before: [f64; 4]| {
        let after = read();
        [0, 1, 2, 3].map(|i| (after[i] - before[i]) as u64)
    };

    // Three jobs (two arriving together), five tasks, no preemption: three
    // arrivals and five finishes.
    let maps = |n: usize| vec![TaskSpec::map(10 * SEC); n];
    let trace = Trace::new(vec![
        JobSpec::new(0, 0, 0, maps(2)),
        JobSpec::new(1, 1, 0, maps(2)),
        JobSpec::new(2, 1, 5 * SEC, maps(1)),
    ]);
    let cluster = ClusterSpec::new(2, 1);
    let before = read();
    simulate(&trace, &cluster, &RmConfig::fair(2), &SimOptions::default());
    assert_eq!(delta(before), [3 + 5, 1, 0, 0]);

    // Tenant 0 holds both slots when tenant 1 arrives at 5 s and starves
    // below its guaranteed slot: one preemption check at 10 s kills one of
    // tenant 0's tasks. Three arrivals, the check, and six finishes — five
    // tasks plus the stale finish of the killed attempt.
    let preempting = RmConfig::new(vec![
        TenantConfig::fair_default().with_weight(4.0),
        TenantConfig::fair_default().with_min_share(1, 0).with_min_timeout(5 * SEC),
    ]);
    let contended = Trace::new(vec![
        JobSpec::new(0, 0, 0, vec![TaskSpec::map(MIN); 2]),
        JobSpec::new(1, 1, 5 * SEC, maps(2)),
        JobSpec::new(2, 1, 5 * SEC, maps(1)),
    ]);
    let before = read();
    let sched = simulate(&contended, &cluster, &preempting, &SimOptions::default());
    assert_eq!(sched.tasks().filter(|t| t.was_preempted()).count(), 1);
    assert_eq!(delta(before), [3 + 1 + 6, 1, 0, 0]);

    // Through the What-if Model: one simulation and one scan of the three
    // job rows per evaluated configuration.
    let slos = SloSet::new(vec![SloSpec::new(Some(1), QsKind::AvgResponseTime)]);
    let model = WhatIfModel::new(cluster, slos, WorkloadSource::replay(trace), (0, MIN));
    let before = read();
    model.evaluate_batch_salted(&[RmConfig::fair(2), preempting], 0);
    let [events, runs, sims, scanned] = delta(before);
    assert_eq!((runs, sims), (2, 2));
    assert_eq!(scanned, 2 * 3);
    assert!(events >= 2 * 8, "both runs handle every arrival and finish: {events}");
}
