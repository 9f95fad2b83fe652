//! Crash-only serving: the operations journal must make `kill -9` a
//! non-event.
//!
//! The pin is the parity proptest: run a scripted workload against a
//! journaled server, "kill" it at an *arbitrary byte offset* of the journal
//! (every offset is a place the process can die), recover a fresh runtime
//! from the truncated files, replay the ops the crash swallowed, and demand
//! the final `RuntimeSnapshot` — PALD history, RNG odometers, installed
//! windows, clock — is bit-identical to the uninterrupted run. Alongside it:
//! end-to-end restart recovery over the wire, torn-tail survival, and shard
//! supervision (a panicked worker degrades only its active domain, and the
//! journal repairs it back to exactly the no-fault state).

use bytes::{BufMut, BytesMut};
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use tempo_serve::codec::{decode_snapshot, encode_binary, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
use tempo_serve::demo::{contention_burst, contention_spec, DEMO_WINDOW};
use tempo_serve::fault::no_faults;
use tempo_serve::proto::{Request, Response};
use tempo_serve::wal::{self, Recovered};
use tempo_serve::{
    Client, ClockMode, ControllerRuntime, Domain, FaultInjector, FleetConfig, IngestBudget,
    Journal, JournalOp, JournalRecord, Proto, RuntimeError, Server, ServerConfig, SimClock,
};
use tempo_workload::time::MIN;
use tempo_workload::JobSpec;

fn temp_dir(tag: &str) -> PathBuf {
    static COUNTER: AtomicU32 = AtomicU32::new(0);
    let n = COUNTER.fetch_add(1, Ordering::SeqCst);
    std::env::temp_dir().join(format!("tempo-crash-{tag}-{}-{n}", std::process::id()))
}

fn journaled_config(dir: &Path, checkpoint_every: u64) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        clock: ClockMode::Sim,
        journal_dir: Some(dir.to_path_buf()),
        checkpoint_every,
        ..ServerConfig::default()
    }
}

/// One scripted state-mutating request. Targets index into the list of
/// domains created so far (the script generator guarantees op 0 creates).
#[derive(Debug, Clone)]
enum Op {
    Create {
        seed: u64,
    },
    /// A create whose domain turns over-budget bursts away as `Busy`.
    CreateDelayed {
        seed: u64,
        jobs_per_window: u64,
    },
    Ingest {
        target: usize,
        salt: u64,
        count: u64,
    },
    IngestAdvance {
        target: usize,
        salt: u64,
        count: u64,
        steps: u64,
    },
    Advance {
        target: usize,
        steps: u64,
    },
    AdvanceAll,
    Tick {
        micros: u64,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..50).prop_map(|seed| Op::Create { seed }),
        (0usize..16, 0u64..1000, 1u64..6).prop_map(|(target, salt, count)| Op::Ingest {
            target,
            salt,
            count
        }),
        (0usize..16, 0u64..1000, 1u64..6, 1u64..3).prop_map(|(target, salt, count, steps)| {
            Op::IngestAdvance { target, salt, count, steps }
        }),
        (0usize..16, 1u64..3).prop_map(|(target, steps)| Op::Advance { target, steps }),
        (1u64..DEMO_WINDOW / 2).prop_map(|micros| Op::Tick { micros }),
        (0u64..50, 2u64..8)
            .prop_map(|(seed, jobs_per_window)| Op::CreateDelayed { seed, jobs_per_window }),
        // The wire clamps a zero step count to one: the journal records the
        // step that ran.
        (0usize..16).prop_map(|target| Op::Advance { target, steps: 0 }),
        Just(Op::AdvanceAll),
    ]
}

fn script_strategy() -> impl Strategy<Value = Vec<Op>> {
    (0u64..50, prop::collection::vec(op_strategy(), 4..12)).prop_map(|(seed, mut rest)| {
        let mut script = vec![Op::Create { seed }];
        script.append(&mut rest);
        script
    })
}

/// Drives one scripted op over the wire. `created` maps script targets to
/// live domain ids; `clock` tracks the sim time the bursts anchor to.
fn drive(client: &mut Client, created: &mut Vec<u64>, clock: &mut u64, op: &Op) {
    let burst = |clock: u64, salt: u64, count: u64| {
        contention_burst(clock.saturating_sub(DEMO_WINDOW), count, salt)
    };
    let request = match op {
        Op::Create { seed } => {
            Request::CreateDomain { spec: contention_spec(&format!("crash-{seed}"), *seed) }
        }
        Op::CreateDelayed { seed, jobs_per_window } => Request::CreateDomain {
            spec: contention_spec(&format!("crash-delayed-{seed}"), *seed)
                .with_ingest_budget(IngestBudget::delay(*jobs_per_window)),
        },
        Op::Ingest { target, salt, count } => Request::Ingest {
            domain: created[target % created.len()],
            jobs: burst(*clock, *salt, *count),
        },
        Op::IngestAdvance { target, salt, count, steps } => Request::IngestAdvance {
            domain: created[target % created.len()],
            jobs: burst(*clock, *salt, *count),
            steps: *steps,
        },
        Op::Advance { target, steps } => {
            Request::Advance { domain: created[target % created.len()], steps: *steps }
        }
        Op::AdvanceAll => Request::AdvanceAll,
        Op::Tick { micros } => Request::Tick { micros: *micros },
    };
    match client.call(&request).expect("scripted op") {
        Response::Created { domain } => created.push(domain),
        Response::Ticked { now } => *clock = now,
        Response::Error { message } => panic!("scripted op failed: {message}"),
        _ => {}
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// THE crash-parity pin. A journaled server runs a scripted workload;
    /// copies of its journal+checkpoint are truncated at an arbitrary byte
    /// offset past the header (simulating `kill -9` mid-write at exactly
    /// that point); a fresh runtime recovers from the truncated copy and
    /// replays the ops the crash cut off. The recovered trajectory must be
    /// bit-identical to the uninterrupted run. The three appliers of a
    /// domain op are checked against each other: the live server (over
    /// either codec), journal replay, and journal repair of each domain.
    #[test]
    fn recovery_from_any_journal_offset_is_bit_identical(
        script in script_strategy(),
        checkpoint_every in prop_oneof![Just(3u64), Just(7u64), Just(1_000_000u64)],
        cut in 0usize..1_000_000,
        proto in prop_oneof![Just(Proto::Jsonl), Just(Proto::Binary)],
    ) {
        let dir_a = temp_dir("parity-a");
        let dir_b = temp_dir("parity-b");
        let server = Server::start(journaled_config(&dir_a, checkpoint_every)).expect("start");
        let mut client = Client::connect(server.local_addr(), proto).expect("connect");
        let mut created = Vec::new();
        let mut clock = 0u64;
        for op in &script {
            drive(&mut client, &mut created, &mut clock, op);
        }

        // The uninterrupted reference, plus the journal's consistent view
        // (checkpoint + every record of the current epoch), captured while
        // the files are quiescent.
        let journal = server.journal().cloned().expect("journaled server");
        let reference = server.runtime().snapshot();
        let (checkpoint, full_records) = journal.read_current().expect("read journal");

        // Simulate the kill: copy the files, then chop the journal copy at
        // an arbitrary offset past the 13-byte header.
        std::fs::create_dir_all(&dir_b).expect("create dir b");
        let ckpt_a = dir_a.join("checkpoint.bin");
        if ckpt_a.exists() {
            std::fs::copy(&ckpt_a, dir_b.join("checkpoint.bin")).expect("copy checkpoint");
        }
        let journal_bytes = std::fs::read(dir_a.join("journal.bin")).expect("read journal.bin");
        let offset = 13 + cut % (journal_bytes.len() - 13 + 1);
        std::fs::write(dir_b.join("journal.bin"), &journal_bytes[..offset])
            .expect("write truncated copy");

        prop_assert!(matches!(client.call(&Request::Shutdown), Ok(Response::ShuttingDown)));
        server.join();

        // Recover from the truncated copy: torn tail cut at the last whole
        // record, checkpoint restored, surviving suffix replayed.
        let (journal_b, recovered) =
            Journal::open(&dir_b, checkpoint_every, no_faults()).expect("recover");
        drop(journal_b);
        let survived = recovered.records.len();
        prop_assert!(survived <= full_records.len());
        prop_assert_eq!(
            &recovered.records[..],
            &full_records[..survived],
            "recovered records are not a prefix of the journal"
        );

        let sim = Arc::new(SimClock::new());
        let runtime = ControllerRuntime::with_fleet(
            2,
            Arc::<SimClock>::clone(&sim),
            FleetConfig::default(),
        );
        wal::replay(&runtime, Some(&sim), recovered).expect("replay");
        // The ops the crash swallowed arrive again (recorded dispatch times
        // included — exactly what a client resubmitting after reconnect,
        // or the repair path, would carry).
        let lost = Recovered {
            checkpoint: None,
            records: full_records[survived..].to_vec(),
            truncated_bytes: 0,
            discarded_stale_journal: false,
        };
        wal::replay(&runtime, Some(&sim), lost).expect("replay the lost suffix");

        let recovered_snapshot = runtime.snapshot();
        runtime.shutdown();
        prop_assert_eq!(&recovered_snapshot, &reference);

        // Journal repair rebuilds every domain from the same checkpoint and
        // records, one domain at a time, to the same state.
        let repaired = ControllerRuntime::new(1, Arc::new(SimClock::new()));
        for &id in &created {
            let rebuilt = wal::repair_domain(&repaired, id, checkpoint.as_ref(), &full_records);
            prop_assert_eq!(rebuilt, Ok(true));
        }
        let repaired_domains = repaired.snapshot().domains;
        repaired.shutdown();
        prop_assert_eq!(repaired_domains, reference.domains);

        let _ = std::fs::remove_dir_all(&dir_a);
        let _ = std::fs::remove_dir_all(&dir_b);
    }
}

/// End-to-end over the wire: a journaled daemon dies without ceremony (no
/// final checkpoint — `Server::join` does not write one), and a fresh
/// daemon pointed at the same directory serves the identical state.
#[test]
fn journaled_server_restart_recovers_wire_state() {
    let dir = temp_dir("restart");
    let server = Server::start(journaled_config(&dir, 1024)).expect("start server 1");
    let mut client = Client::connect(server.local_addr(), Proto::Jsonl).expect("connect");
    let mut created = Vec::new();
    let mut clock = 0u64;
    let script = [
        Op::Create { seed: 4 },
        Op::Create { seed: 9 },
        Op::Tick { micros: DEMO_WINDOW },
        Op::Ingest { target: 0, salt: 1, count: 5 },
        Op::IngestAdvance { target: 1, salt: 2, count: 4, steps: 2 },
        Op::Advance { target: 0, steps: 1 },
        Op::Tick { micros: DEMO_WINDOW / 4 },
        Op::Advance { target: 1, steps: 1 },
    ];
    for op in &script {
        drive(&mut client, &mut created, &mut clock, op);
    }
    let reference = server.runtime().snapshot();
    assert!(matches!(client.call(&Request::Shutdown), Ok(Response::ShuttingDown)));
    server.join();

    let server2 = Server::start(journaled_config(&dir, 1024)).expect("start server 2");
    assert_eq!(server2.runtime().snapshot(), reference, "restart lost state");

    // And it still serves: the recovered fleet takes new traffic.
    let mut client2 = Client::connect(server2.local_addr(), Proto::Binary).expect("connect 2");
    match client2.call(&Request::Advance { domain: created[0], steps: 1 }).expect("advance") {
        Response::Advanced { decisions, .. } => assert_eq!(decisions.len(), 1),
        other => panic!("recovered domain refused work: {other:?}"),
    }
    assert!(matches!(client2.call(&Request::Shutdown), Ok(Response::ShuttingDown)));
    server2.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A torn tail (garbage after the last whole record — a write cut off by
/// the crash) is truncated on recovery, not treated as corruption.
#[test]
fn torn_journal_tail_is_survivable_end_to_end() {
    let dir = temp_dir("torn");
    let server = Server::start(journaled_config(&dir, 1024)).expect("start");
    let mut client = Client::connect(server.local_addr(), Proto::Jsonl).expect("connect");
    let mut created = Vec::new();
    let mut clock = 0u64;
    for op in [
        Op::Create { seed: 1 },
        Op::Ingest { target: 0, salt: 3, count: 4 },
        Op::Advance { target: 0, steps: 1 },
    ] {
        drive(&mut client, &mut created, &mut clock, &op);
    }
    let reference = server.runtime().snapshot();
    assert!(matches!(client.call(&Request::Shutdown), Ok(Response::ShuttingDown)));
    server.join();

    // The crash left half a record behind.
    use std::io::Write;
    let mut f = std::fs::OpenOptions::new()
        .append(true)
        .open(dir.join("journal.bin"))
        .expect("open journal");
    f.write_all(&[0xDE, 0xAD, 0xBE, 0xEF, 0x01, 0x02]).expect("append torn tail");
    drop(f);

    let server2 = Server::start(journaled_config(&dir, 1024)).expect("recover past torn tail");
    assert_eq!(server2.runtime().snapshot(), reference);
    server2.request_shutdown();
    server2.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Targeted injector: panics exactly one shard op, whenever armed.
struct ArmedPanic(AtomicBool);

impl FaultInjector for ArmedPanic {
    fn shard_panic(&self, _shard: usize, _index: u64) -> bool {
        self.0.swap(false, Ordering::SeqCst)
    }
}

/// Shard supervision: an injected worker panic degrades only the active
/// domain — its sibling (and the worker thread itself) keep serving — and
/// the journal repair path restores the victim to exactly the state of a
/// runtime that never saw the fault.
#[test]
fn shard_panic_degrades_one_domain_and_journal_repair_restores_it() {
    let sim = Arc::new(SimClock::new());
    let faults = Arc::new(ArmedPanic(AtomicBool::new(false)));
    let runtime = ControllerRuntime::with_fleet_faults(
        2,
        Arc::<SimClock>::clone(&sim),
        FleetConfig::default(),
        Arc::<ArmedPanic>::clone(&faults),
    );
    // The fault-free control both runtimes are judged against.
    let control_sim = Arc::new(SimClock::new());
    let control = ControllerRuntime::with_fleet(
        2,
        Arc::<SimClock>::clone(&control_sim),
        FleetConfig::default(),
    );

    let victim_spec = contention_spec("victim", 7);
    let sibling_spec = contention_spec("sibling", 8);
    let victim = runtime.create_domain(victim_spec.clone()).expect("create victim");
    let sibling = runtime.create_domain(sibling_spec.clone()).expect("create sibling");
    assert_eq!(victim, control.create_domain(victim_spec.clone()).expect("control victim"));
    assert_eq!(sibling, control.create_domain(sibling_spec).expect("control sibling"));

    // Warm both fleets identically, mirroring the victim's ops into the
    // record list a journaled server would have accumulated.
    let mut records = vec![JournalRecord {
        now: 0,
        op: JournalOp::CreateDomain { id: victim, spec: victim_spec },
    }];
    for round in 0..3u64 {
        let jobs = contention_burst(0, 4, round);
        let now = runtime.clock().now();
        runtime.ingest(victim, jobs.clone()).expect("ingest victim");
        records.push(JournalRecord {
            now,
            op: JournalOp::Ingest { domain: victim, jobs: jobs.clone() },
        });
        runtime.advance(victim).expect("advance victim");
        records.push(JournalRecord { now, op: JournalOp::Advance { domain: victim, steps: 1 } });
        runtime.ingest(sibling, jobs.clone()).expect("ingest sibling");
        runtime.advance(sibling).expect("advance sibling");
        control.ingest(victim, jobs.clone()).expect("control ingest victim");
        control.advance(victim).expect("control advance victim");
        control.ingest(sibling, jobs).expect("control ingest sibling");
        control.advance(sibling).expect("control advance sibling");
    }

    // Arm and strike: the next instrumented op panics its worker before the
    // op runs, so the victim's state is lost, never corrupted. The caller
    // sees the shard vanish mid-call.
    faults.0.store(true, Ordering::SeqCst);
    let err = runtime.ingest(victim, contention_burst(0, 4, 99)).expect_err("panic swallowed");
    assert!(matches!(err, RuntimeError::ShardDown), "unexpected error: {err}");

    // The caller's `ShardDown` races the supervisor (the mark lands once
    // the worker finishes unwinding); wait for the mark, bounded.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while runtime.degraded_domains().is_empty() && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }

    // The victim is degraded, visibly; the sibling and the (supervised,
    // still-running) worker are untouched.
    assert_eq!(runtime.degraded_domains(), vec![victim]);
    let err = runtime.advance(victim).expect_err("degraded domain served");
    assert!(matches!(err, RuntimeError::DomainDegraded(id) if id == victim));
    assert!(!runtime.hibernate(victim).expect("hibernate on degraded"), "degraded can't hibernate");
    let m = runtime.metrics();
    assert_eq!(m.degraded_domains, 1);
    assert_eq!(
        m.per_domain.iter().find(|d| d.id == victim).map(|d| d.degraded),
        Some(true),
        "victim not flagged degraded in metrics"
    );
    let jobs = contention_burst(0, 4, 50);
    runtime.ingest(sibling, jobs.clone()).expect("sibling serves through the fault");
    runtime.advance(sibling).expect("sibling advances");
    control.ingest(sibling, jobs).expect("control sibling");
    control.advance(sibling).expect("control sibling advance");

    // Journal repair: rebuild the victim from its journaled history (the
    // panicked op never executed, so it is rightly absent) and reinstall.
    assert!(wal::repair_domain(&runtime, victim, None, &records).expect("repair"), "no source");
    assert!(runtime.degraded_domains().is_empty());
    assert_eq!(runtime.metrics().degraded_domains, 0);

    // The repaired fleet is bit-identical to the one that never faulted.
    runtime.advance(victim).expect("repaired victim serves");
    control.advance(victim).expect("control victim serves");
    let recovered = runtime.snapshot();
    let expected = control.snapshot();
    runtime.shutdown();
    control.shutdown();
    assert_eq!(recovered, expected, "repair diverged from the no-fault run");
}

/// A due checkpoint must not outrun repair: checkpointing first would omit
/// the degraded domain from the checkpoint *and* truncate the journal,
/// destroying both of its recovery sources with no crash involved.
/// Maintenance repairs first, then cuts — and the repaired domain rides
/// into the checkpoint.
#[test]
fn maintenance_repairs_degraded_domains_before_cutting_a_checkpoint() {
    let dir = temp_dir("repair-first");
    let sim = Arc::new(SimClock::new());
    let faults = Arc::new(ArmedPanic(AtomicBool::new(false)));
    let runtime = ControllerRuntime::with_fleet_faults(
        2,
        Arc::<SimClock>::clone(&sim),
        FleetConfig::default(),
        Arc::<ArmedPanic>::clone(&faults),
    );
    // Cadence of 1: the very first append arms a checkpoint.
    let (journal, _) = Journal::open(&dir, 1, no_faults()).expect("open journal");

    let spec = contention_spec("victim", 7);
    let victim = runtime.create_domain(spec.clone()).expect("create victim");
    journal
        .append(&JournalRecord { now: 0, op: JournalOp::CreateDomain { id: victim, spec } })
        .expect("append create");
    for round in 0..3u64 {
        let jobs = contention_burst(0, 4, round);
        let now = runtime.clock().now();
        runtime.ingest(victim, jobs.clone()).expect("ingest victim");
        journal
            .append(&JournalRecord { now, op: JournalOp::Ingest { domain: victim, jobs } })
            .expect("append ingest");
        runtime.advance(victim).expect("advance victim");
        journal
            .append(&JournalRecord { now, op: JournalOp::Advance { domain: victim, steps: 1 } })
            .expect("append advance");
    }

    faults.0.store(true, Ordering::SeqCst);
    let err = runtime.ingest(victim, contention_burst(0, 4, 99)).expect_err("panic swallowed");
    assert!(matches!(err, RuntimeError::ShardDown), "unexpected error: {err}");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while runtime.degraded_domains().is_empty() && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(runtime.degraded_domains(), vec![victim]);
    assert!(journal.checkpoint_due(), "checkpoint came due before the repair");

    wal::run_maintenance(&journal, &runtime);

    assert!(runtime.degraded_domains().is_empty(), "victim repaired before the cut");
    assert_eq!(journal.stats().checkpoints, 1, "checkpoint written after repair");
    let (checkpoint, records) = journal.read_current().expect("read journal");
    assert!(
        checkpoint.expect("checkpoint exists").domains.iter().any(|d| d.id == victim),
        "repaired victim rode into the checkpoint"
    );
    assert!(records.is_empty(), "journal truncated at the cut");
    runtime.advance(victim).expect("repaired victim serves");
    runtime.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// A degraded domain the journal knows nothing about cannot be repaired, so
/// a due checkpoint is deferred — cutting would discard the journal while
/// the fleet still owes a repair — and the due flag re-arms. Once the
/// domain is repaired, the deferred checkpoint lands on the next pass.
#[test]
fn due_checkpoint_defers_while_a_domain_is_degraded() {
    let dir = temp_dir("defer");
    let sim = Arc::new(SimClock::new());
    let faults = Arc::new(ArmedPanic(AtomicBool::new(false)));
    let runtime = ControllerRuntime::with_fleet_faults(
        2,
        Arc::<SimClock>::clone(&sim),
        FleetConfig::default(),
        Arc::<ArmedPanic>::clone(&faults),
    );
    let (journal, _) = Journal::open(&dir, 1, no_faults()).expect("open journal");

    // The create is deliberately not journaled: the journal has no record
    // of this domain, so the repair pass has no source to rebuild it from.
    let spec = contention_spec("orphan", 3);
    let victim = runtime.create_domain(spec.clone()).expect("create orphan");
    let heartbeat = JournalRecord { now: 0, op: JournalOp::Tick { micros: 1 } };
    journal.append(&heartbeat).expect("append heartbeat");

    faults.0.store(true, Ordering::SeqCst);
    let err = runtime.ingest(victim, contention_burst(0, 4, 1)).expect_err("panic swallowed");
    assert!(matches!(err, RuntimeError::ShardDown), "unexpected error: {err}");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    while runtime.degraded_domains().is_empty() && std::time::Instant::now() < deadline {
        std::thread::yield_now();
    }
    assert_eq!(runtime.degraded_domains(), vec![victim]);
    assert!(journal.checkpoint_due());

    wal::run_maintenance(&journal, &runtime);

    assert_eq!(runtime.degraded_domains(), vec![victim], "unrepairable, stays degraded");
    assert_eq!(journal.stats().checkpoints, 0, "checkpoint deferred");
    assert!(journal.checkpoint_due(), "due flag re-armed for the next pass");
    let (_, records) = journal.read_current().expect("read journal");
    assert_eq!(records, vec![heartbeat], "journal not truncated by the deferral");

    // Repair by hand (a resubmitted create would journal the same record),
    // then the deferred checkpoint lands.
    let resubmitted =
        vec![JournalRecord { now: 0, op: JournalOp::CreateDomain { id: victim, spec } }];
    assert!(wal::repair_domain(&runtime, victim, None, &resubmitted).expect("repair"));
    wal::run_maintenance(&journal, &runtime);
    assert_eq!(journal.stats().checkpoints, 1, "deferred checkpoint landed after repair");
    assert!(!journal.checkpoint_due());
    runtime.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Concurrency pin for the journal's ordering guarantees: four connections
/// (JSONL and binary alike) hammer overlapping domains while ticks,
/// fleet-wide sweeps, and checkpoint cuts interleave with the load.
/// Whatever linearization the shards actually executed, the files on disk
/// must record one that replays to the identical fleet: a fresh server
/// recovered from them (no graceful final checkpoint) matches the live
/// runtime bit for bit.
#[test]
fn concurrent_load_with_checkpoint_cuts_recovers_bit_identical() {
    let dir = temp_dir("concurrent");
    let server = Server::start(journaled_config(&dir, 5)).expect("start");
    let addr = server.local_addr();
    let mut setup = Client::connect(addr, Proto::Jsonl).expect("connect setup");
    let mut created = Vec::new();
    let mut clock = 0u64;
    for seed in 0..4 {
        drive(&mut setup, &mut created, &mut clock, &Op::Create { seed });
    }
    let created = Arc::new(created);
    let workers: Vec<_> = (0..4usize)
        .map(|t| {
            let created = Arc::clone(&created);
            std::thread::spawn(move || {
                let proto = if t % 2 == 0 { Proto::Jsonl } else { Proto::Binary };
                let mut client = Client::connect(addr, proto).expect("connect worker");
                for round in 0..25u64 {
                    let domain = created[(t + round as usize) % created.len()];
                    let salt = t as u64 * 1_000 + round;
                    let request = match round % 5 {
                        0 => Request::Tick { micros: DEMO_WINDOW / 7 },
                        1 => Request::AdvanceAll,
                        2 => Request::Ingest { domain, jobs: contention_burst(0, 3, salt) },
                        3 => Request::IngestAdvance {
                            domain,
                            jobs: contention_burst(0, 2, salt),
                            steps: 1,
                        },
                        _ => Request::Advance { domain, steps: 1 },
                    };
                    if let Response::Error { message } = client.call(&request).expect("worker op") {
                        panic!("worker op failed: {message}");
                    }
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }
    let checkpoints = server.journal().expect("journaled server").stats().checkpoints;
    assert!(checkpoints >= 1, "load never crossed a checkpoint cut");

    let reference = server.runtime().snapshot();
    assert!(matches!(setup.call(&Request::Shutdown), Ok(Response::ShuttingDown)));
    server.join();

    let server2 = Server::start(journaled_config(&dir, 5)).expect("recover");
    assert_eq!(server2.runtime().snapshot(), reference, "concurrent recovery diverged");
    server2.request_shutdown();
    server2.join();
    let _ = std::fs::remove_dir_all(&dir);
}

/// The field `key` of a serialized struct.
fn field_mut<'a>(value: &'a mut Value, key: &str) -> &'a mut Value {
    let Value::Map(fields) = value else { panic!("{key}: not inside a struct") };
    &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no field {key}")).1
}

/// Adds a field that this build's type no longer declares.
fn add_field(value: &mut Value, key: &str, field: Value) {
    let Value::Map(fields) = value else { panic!("{key}: not inside a struct") };
    fields.push((key.into(), field));
}

/// Two more windows of load, identical for every copy of the domain.
fn tail_bursts() -> impl Iterator<Item = (u64, Vec<JobSpec>)> {
    (3..5u64).map(|phase| (phase * DEMO_WINDOW / 2, contention_burst(phase * MIN, 5, phase)))
}

/// Snapshots, checkpoints and journals written while the What-if Model kept
/// a memo carry fields this build dropped: the domain's `cache` entries, the
/// controller's `windows_since_clear` counter and the spec's
/// `clear_cache_windows`. Decoders look fields up by name, so such files
/// still load, through the hibernation codec and through checkpoint +
/// journal recovery, and resume exactly like the snapshot without them.
#[test]
fn snapshots_and_journals_with_memo_fields_still_load() {
    let clock = Arc::new(SimClock::new());
    let runtime = ControllerRuntime::new(1, Arc::<SimClock>::clone(&clock));
    let id = runtime.create_domain(contention_spec("legacy", 3)).expect("create");
    for phase in 0..3u64 {
        runtime.ingest(id, contention_burst(phase * MIN, 5, phase)).expect("ingest");
        runtime.advance(id).expect("advance");
        clock.advance(DEMO_WINDOW / 2);
    }
    let current = runtime.snapshot();
    runtime.shutdown();
    let ds = &current.domains[0];

    let mut legacy = ds.to_value();
    let entry = Value::Seq(vec![
        Value::U64(0x5EED_CAFE),
        Value::Seq(vec![Value::F64(0.0), Value::F64(61.5)]),
    ]);
    add_field(&mut legacy, "cache", Value::Seq(vec![entry]));
    add_field(field_mut(&mut legacy, "tempo"), "windows_since_clear", Value::U64(3));
    add_field(field_mut(&mut legacy, "spec"), "clear_cache_windows", Value::U64(32));

    // Hibernation codec: the header `encode_snapshot` writes, then the body.
    let mut bytes = BytesMut::new();
    bytes.put_u8(SNAPSHOT_MAGIC);
    bytes.put_u8(SNAPSHOT_VERSION);
    encode_binary(&legacy, &mut bytes);
    let decoded = decode_snapshot(bytes.as_slice()).expect("legacy snapshot decodes");
    assert_eq!(&decoded, ds, "the memo fields are ignored");
    let mut straight = Domain::restore(ds.clone()).expect("restore current");
    let mut resumed = Domain::restore(decoded).expect("restore legacy");
    for (now, jobs) in tail_bursts() {
        assert_eq!(straight.ingest(now, jobs.clone()), resumed.ingest(now, jobs));
        assert_eq!(straight.advance(now), resumed.advance(now), "diverged at {now}");
    }

    // Checkpoint + journal: the legacy snapshot as the checkpoint, and a
    // create whose spec still sets both memo knobs as the journal suffix.
    let dir = temp_dir("legacy");
    std::fs::create_dir_all(&dir).expect("create journal dir");
    let mut checkpoint = current.to_value();
    *field_mut(&mut checkpoint, "domains") = Value::Seq(vec![legacy]);
    let mut body = BytesMut::new();
    encode_binary(&checkpoint, &mut body);
    let mut image = wal::CHECKPOINT_MAGIC.to_vec();
    image.push(wal::JOURNAL_VERSION);
    image.extend_from_slice(&1u64.to_le_bytes());
    image.extend_from_slice(&wal::crc32(body.as_slice()).to_le_bytes());
    image.extend_from_slice(body.as_slice());
    std::fs::write(dir.join("checkpoint.bin"), image).expect("write checkpoint");

    let spec = contention_spec("legacy-create", 9);
    let create = JournalOp::CreateDomain { id: id + 1, spec: spec.clone() };
    let mut record = JournalRecord { now: current.clock_now, op: create }.to_value();
    let legacy_spec = field_mut(field_mut(field_mut(&mut record, "op"), "CreateDomain"), "spec");
    add_field(legacy_spec, "clear_cache_windows", Value::U64(32));
    *field_mut(legacy_spec, "cache_capacity") = Value::U64(4096);
    let mut body = BytesMut::new();
    encode_binary(&record, &mut body);
    let mut image = wal::JOURNAL_MAGIC.to_vec();
    image.push(wal::JOURNAL_VERSION);
    image.extend_from_slice(&1u64.to_le_bytes());
    image.extend_from_slice(&(body.len() as u32).to_le_bytes());
    image.extend_from_slice(&wal::crc32(body.as_slice()).to_le_bytes());
    image.extend_from_slice(body.as_slice());
    std::fs::write(dir.join("journal.bin"), image).expect("write journal");

    let (_journal, recovered) = Journal::open(&dir, 1024, no_faults()).expect("legacy files open");
    let sim = Arc::new(SimClock::new());
    let recovered_rt = ControllerRuntime::new(1, Arc::<SimClock>::clone(&sim));
    let report = wal::replay(&recovered_rt, Some(&sim), recovered).expect("legacy files replay");
    assert_eq!((report.checkpoint_domains, report.replayed), (1, 1));
    let mut created = Domain::new(spec).expect("spec builds").snapshot(id + 1).to_value();
    *field_mut(field_mut(&mut created, "spec"), "cache_capacity") = Value::U64(4096);
    let after = recovered_rt.snapshot();
    assert_eq!(after.domains[0], *ds, "checkpointed domain restored without its memo fields");
    assert_eq!(after.domains[1].to_value(), created, "journaled create replayed fresh");

    let baseline_sim = Arc::new(SimClock::new());
    let baseline = ControllerRuntime::new(1, Arc::<SimClock>::clone(&baseline_sim));
    baseline_sim.set(current.clock_now);
    baseline.restore(current.clone()).expect("restore current");
    for (now, jobs) in tail_bursts() {
        for (rt, clock) in [(&baseline, &baseline_sim), (&recovered_rt, &sim)] {
            clock.set(now);
            rt.ingest(id, jobs.clone()).expect("ingest");
        }
        assert_eq!(
            baseline.advance(id).expect("advance baseline"),
            recovered_rt.advance(id).expect("advance recovered"),
            "recovered domain diverged"
        );
    }
    baseline.shutdown();
    recovered_rt.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
