//! Serve/direct parity: hosting a controller inside the sharded serving
//! runtime must be **invisible** in its trajectory.
//!
//! Under a `SimClock`, a daemon-driven domain (ingest → advance over the
//! runtime's shard workers) has to produce bit-identical PALD steps,
//! recorded optimizer history, and installed configurations to the
//! equivalent direct `Tempo` loop driven by hand from `tempo_core` — and a
//! snapshot→restore→advance cycle has to match the never-restarted
//! execution exactly.

use proptest::prelude::*;
use std::sync::Arc;
use tempo_core::control::Tempo;
use tempo_core::whatif::{WhatIfModel, WorkloadSource};
use tempo_core::ConfigSpace;
use tempo_serve::demo::{contention_burst, contention_spec, DEMO_WINDOW};
use tempo_serve::domain::observation_seed;
use tempo_serve::proto::{Request, Response};
use tempo_serve::{
    Client, Clock, ClockMode, ControllerRuntime, DecisionRecord, DomainSpec, Proto, Server,
    ServerConfig, SimClock,
};
use tempo_sim::observe;
use tempo_workload::time::Time;
use tempo_workload::window::WindowLog;
use tempo_workload::JobSpec;

/// The direct (no-runtime) equivalent of a serve domain: a raw `Tempo`
/// controller plus the same windowing discipline, built verbatim from
/// `tempo_core` APIs.
struct DirectLoop {
    spec: DomainSpec,
    tempo: Tempo,
    log: WindowLog,
    step: u64,
    last_end: Time,
    installed: Option<((Time, Time), tempo_workload::Trace)>,
}

impl DirectLoop {
    fn new(spec: DomainSpec) -> Self {
        let whatif = WhatIfModel::new(
            spec.cluster.clone(),
            spec.slos.clone(),
            WorkloadSource::replay(tempo_workload::Trace::default()),
            spec.qs_window(),
        )
        .with_threads(1);
        let space = ConfigSpace::new(spec.initial.tenants.len(), &spec.cluster)
            .with_policy(spec.initial.policy);
        let tempo = Tempo::new(space, whatif, spec.loop_config(), &spec.initial);
        Self { spec, tempo, log: WindowLog::new(), step: 0, last_end: 0, installed: None }
    }

    fn ingest(&mut self, jobs: Vec<JobSpec>) -> u64 {
        self.log.extend(jobs)
    }

    /// Mirrors `tempo_serve::domain::Domain::advance`, written against the
    /// raw controller.
    fn advance(&mut self, now: Time) -> DecisionRecord {
        let end = now.max(self.spec.window_len).max(self.last_end);
        let start = end - self.spec.window_len;
        self.last_end = end;
        self.step += 1;
        self.log.evict_before(start);
        let mut segment = self.log.trace_in(start, end);
        segment.shift_to_zero(start);
        if segment.is_empty() {
            return DecisionRecord {
                step: self.step,
                window: (start, end),
                skipped: true,
                iteration: self.tempo.iteration() as u64,
                observed_qs: Vec::new(),
                reverted: false,
                config: self.tempo.current_config(),
            };
        }
        let changed = match &self.installed {
            Some((w, seg)) => *w != (start, end) || *seg != segment,
            None => true,
        };
        if changed {
            self.tempo.set_workload(WorkloadSource::replay(segment.clone()), self.spec.qs_window());
            self.installed = Some(((start, end), segment.clone()));
        }
        let sched = observe(
            &segment,
            &self.spec.cluster,
            &self.tempo.current_config(),
            self.spec.observation_noise,
            observation_seed(self.spec.seed, self.step),
        );
        let rec = self.tempo.iterate(&sched);
        DecisionRecord {
            step: self.step,
            window: (start, end),
            skipped: false,
            iteration: rec.iteration as u64,
            observed_qs: rec.observed_qs,
            reverted: rec.reverted,
            config: self.tempo.current_config(),
        }
    }
}

/// The shared driving script: phases of (ingest burst, advance twice, roll
/// the clock half a window).
fn phase_base(phase: u64) -> Time {
    phase * (DEMO_WINDOW / 2)
}

#[test]
fn serve_parity_daemon_trajectory_matches_direct_loop() {
    let clock = Arc::new(SimClock::new());
    let runtime = ControllerRuntime::new(3, Arc::<SimClock>::clone(&clock));
    // Two domains with different seeds: parity must hold per-domain even
    // while another domain churns on the same runtime (cross-domain
    // isolation).
    let specs = [contention_spec("parity-a", 11), contention_spec("parity-b", 12)];
    let ids: Vec<u64> =
        specs.iter().map(|s| runtime.create_domain(s.clone()).expect("create")).collect();
    let mut direct: Vec<DirectLoop> = specs.iter().map(|s| DirectLoop::new(s.clone())).collect();

    for phase in 0..4u64 {
        for (slot, &id) in ids.iter().enumerate() {
            let burst = contention_burst(phase_base(phase), 6, specs[slot].seed ^ phase);
            let served = runtime.ingest(id, burst.clone()).expect("ingest");
            let direct_n = direct[slot].ingest(burst);
            assert_eq!(served.accepted(), direct_n);
        }
        for _ in 0..2 {
            let now = clock.now();
            for (slot, &id) in ids.iter().enumerate() {
                let served = runtime.advance(id).expect("advance");
                let expected = direct[slot].advance(now);
                assert_eq!(served, expected, "trajectory diverged (domain {slot})");
                assert!(!served.skipped, "script keeps every window non-empty");
            }
        }
        clock.advance(DEMO_WINDOW / 2);
    }

    // Beyond the per-step records: final configurations and the *entire*
    // recorded optimizer history must agree bit-for-bit.
    for (slot, &id) in ids.iter().enumerate() {
        assert_eq!(
            runtime.current_config(id).expect("config"),
            direct[slot].tempo.current_config()
        );
        let served_history = runtime
            .inspect(id, |d| {
                let (hx, hf) = d.tempo().pald().history();
                (hx.to_vec(), hf.to_vec())
            })
            .expect("inspect");
        let (dx, df) = direct[slot].tempo.pald().history();
        assert_eq!(served_history.0, dx, "probe history diverged (domain {slot})");
        assert_eq!(served_history.1, df, "QS history diverged (domain {slot})");
    }
    runtime.shutdown();
}

#[test]
fn serve_parity_advance_all_matches_per_domain_advance() {
    // advance_all (parallel across shards, one clock reading) must equal
    // the serial per-domain advance at the same instant.
    let clock_a = Arc::new(SimClock::new());
    let clock_b = Arc::new(SimClock::new());
    let fleet = ControllerRuntime::new(4, Arc::<SimClock>::clone(&clock_a));
    let solo = ControllerRuntime::new(1, Arc::<SimClock>::clone(&clock_b));
    let ids: Vec<(u64, u64)> = (0..6u64)
        .map(|i| {
            let spec = contention_spec(&format!("fleet-{i}"), 20 + i);
            (
                fleet.create_domain(spec.clone()).expect("fleet create"),
                solo.create_domain(spec).expect("solo create"),
            )
        })
        .collect();
    for phase in 0..3u64 {
        for (i, &(fa, sa)) in ids.iter().enumerate() {
            let burst = contention_burst(phase_base(phase), 5, (20 + i as u64) ^ phase);
            fleet.ingest(fa, burst.clone()).expect("ingest fleet");
            solo.ingest(sa, burst).expect("ingest solo");
        }
        let batch = fleet.advance_all();
        assert_eq!(batch.len(), ids.len());
        for (&(fa, sa), (bid, brec)) in ids.iter().zip(&batch) {
            assert_eq!(fa, *bid);
            let srec = solo.advance(sa).expect("solo advance");
            assert_eq!(*brec, srec, "parallel fleet diverged from serial runtime");
        }
        clock_a.advance(DEMO_WINDOW / 2);
        clock_b.advance(DEMO_WINDOW / 2);
    }
    fleet.shutdown();
    solo.shutdown();
}

/// Drives one scripted domain through a real TCP daemon and returns its
/// decision records. `batched` folds each phase's ingest+advance into a
/// single `IngestAdvance` frame.
fn wire_trajectory(proto: Proto, batched: bool) -> Vec<DecisionRecord> {
    let server = Server::start(ServerConfig {
        addr: "127.0.0.1:0".into(),
        shards: 2,
        clock: ClockMode::Sim,
        ..ServerConfig::default()
    })
    .expect("start server");
    let mut client = Client::connect(server.local_addr(), proto).expect("connect");
    let spec = contention_spec("wire-parity", 33);
    let domain = match client.call(&Request::CreateDomain { spec }).expect("create") {
        Response::Created { domain } => domain,
        other => panic!("unexpected {other:?}"),
    };
    let mut records = Vec::new();
    for phase in 0..4u64 {
        let burst = contention_burst(phase_base(phase), 6, 33 ^ phase);
        if batched {
            match client
                .call(&Request::IngestAdvance { domain, jobs: burst, steps: 2 })
                .expect("ingest-advance")
            {
                Response::IngestAdvanced { accepted, retry_after_micros, decisions, .. } => {
                    assert_eq!(accepted, 6);
                    assert_eq!(retry_after_micros, None);
                    records.extend(decisions);
                }
                other => panic!("unexpected {other:?}"),
            }
        } else {
            match client.call(&Request::Ingest { domain, jobs: burst }).expect("ingest") {
                Response::Ingested { accepted, .. } => assert_eq!(accepted, 6),
                other => panic!("unexpected {other:?}"),
            }
            match client.call(&Request::Advance { domain, steps: 2 }).expect("advance") {
                Response::Advanced { decisions, .. } => records.extend(decisions),
                other => panic!("unexpected {other:?}"),
            }
        }
        client.call(&Request::Tick { micros: DEMO_WINDOW / 2 }).expect("tick");
    }
    client.call(&Request::Shutdown).expect("shutdown");
    server.join();
    records
}

#[test]
fn serve_parity_wire_codecs_match_direct_loop() {
    // The reference trajectory, straight from tempo_core.
    let mut direct = DirectLoop::new(contention_spec("wire-parity", 33));
    let mut expected = Vec::new();
    for phase in 0..4u64 {
        let now = phase_base(phase);
        assert_eq!(direct.ingest(contention_burst(now, 6, 33 ^ phase)), 6);
        expected.push(direct.advance(now));
        expected.push(direct.advance(now));
    }
    assert!(expected.iter().all(|r| !r.skipped));

    // Daemon over legacy JSONL, over binary frames, and over the fused
    // `IngestAdvance` form must all be bit-identical to it.
    assert_eq!(wire_trajectory(Proto::Jsonl, false), expected, "jsonl daemon diverged");
    assert_eq!(wire_trajectory(Proto::Binary, false), expected, "binary daemon diverged");
    assert_eq!(wire_trajectory(Proto::Binary, true), expected, "batched IngestAdvance diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Snapshot → restore → advance must match never-restarted execution
    /// for arbitrary seeds, burst sizes, and cut points.
    #[test]
    fn serve_parity_snapshot_restore_matches_uninterrupted_run(
        seed in 0u64..500,
        burst_len in 3u64..8,
        cut_after in 1usize..5,
        tail_steps in 1usize..4,
    ) {
        let clock = Arc::new(SimClock::new());
        let runtime = ControllerRuntime::new(2, Arc::<SimClock>::clone(&clock));
        let id = runtime.create_domain(contention_spec("prop", seed)).expect("create");

        // Scripted prefix: `cut_after` phases of ingest+advance.
        let mut phase = 0u64;
        for _ in 0..cut_after {
            runtime
                .ingest(id, contention_burst(phase_base(phase), burst_len, seed ^ phase))
                .expect("ingest");
            runtime.advance(id).expect("advance");
            clock.advance(DEMO_WINDOW / 2);
            phase += 1;
        }

        let snapshot = runtime.snapshot();
        prop_assert_eq!(snapshot.domains.len(), 1);

        // Restored copy on a fresh runtime with a clock at the same time.
        let clock2 = Arc::new(SimClock::at(snapshot.clock_now));
        let runtime2 = ControllerRuntime::new(4, Arc::<SimClock>::clone(&clock2));
        let restored = runtime2.restore(snapshot).expect("restore");
        prop_assert_eq!(restored, vec![id]);

        // Identical tail input to both: records must agree bit-for-bit.
        for _ in 0..tail_steps {
            let burst = contention_burst(phase_base(phase), burst_len, seed ^ phase);
            let a = runtime.ingest(id, burst.clone()).expect("ingest a");
            let b = runtime2.ingest(id, burst).expect("ingest b");
            prop_assert_eq!(a, b);
            let ra = runtime.advance(id).expect("advance a");
            let rb = runtime2.advance(id).expect("advance b");
            prop_assert_eq!(ra, rb, "restored runtime diverged");
            clock.advance(DEMO_WINDOW / 2);
            clock2.advance(DEMO_WINDOW / 2);
            phase += 1;
        }
        prop_assert_eq!(
            runtime.current_config(id).expect("config a"),
            runtime2.current_config(id).expect("config b")
        );
        runtime.shutdown();
        runtime2.shutdown();
    }

    /// Hibernate → rehydrate → advance must be bit-identical to the
    /// uninterrupted domain: decision records and the full recorded PALD
    /// history survive the round trip through compact snapshot bytes.
    #[test]
    fn serve_parity_hibernate_rehydrate_matches_uninterrupted_run(
        seed in 0u64..500,
        burst_len in 3u64..8,
        cut_after in 1usize..5,
        tail_steps in 1usize..4,
    ) {
        let clock = Arc::new(SimClock::new());
        let baseline = ControllerRuntime::new(2, Arc::<SimClock>::clone(&clock));
        let fleet = ControllerRuntime::new(2, Arc::<SimClock>::clone(&clock));
        let spec = contention_spec("prop-hib", seed);
        let a = baseline.create_domain(spec.clone()).expect("create baseline");
        let b = fleet.create_domain(spec).expect("create fleet");

        // Identical prefix on both runtimes.
        let mut phase = 0u64;
        for _ in 0..cut_after {
            let burst = contention_burst(phase_base(phase), burst_len, seed ^ phase);
            baseline.ingest(a, burst.clone()).expect("ingest baseline");
            fleet.ingest(b, burst).expect("ingest fleet");
            let ra = baseline.advance(a).expect("advance baseline");
            let rb = fleet.advance(b).expect("advance fleet");
            prop_assert_eq!(ra, rb);
            clock.advance(DEMO_WINDOW / 2);
            phase += 1;
        }

        // Serialize one copy out of memory; the next touch rehydrates it.
        prop_assert!(fleet.hibernate(b).expect("hibernate"));
        prop_assert!(!fleet.hibernate(b).expect("already cold"), "second hibernate is a no-op");

        // Identical tail: the rehydrated domain must not be distinguishable.
        for _ in 0..tail_steps {
            let burst = contention_burst(phase_base(phase), burst_len, seed ^ phase);
            let ia = baseline.ingest(a, burst.clone()).expect("ingest baseline");
            let ib = fleet.ingest(b, burst).expect("ingest fleet");
            prop_assert_eq!(ia, ib);
            let ra = baseline.advance(a).expect("advance baseline");
            let rb = fleet.advance(b).expect("advance fleet");
            prop_assert_eq!(ra, rb, "rehydrated domain diverged");
            clock.advance(DEMO_WINDOW / 2);
            phase += 1;
        }
        prop_assert_eq!(
            baseline.current_config(a).expect("config a"),
            fleet.current_config(b).expect("config b")
        );
        // `sim_count` is deliberately absent: it counts simulations run by
        // this process, which a snapshot does not (and should not) carry.
        let state = |rt: &ControllerRuntime, id: u64| {
            rt.inspect(id, |d| {
                let (hx, hf) = d.tempo().pald().history();
                (hx.to_vec(), hf.to_vec())
            })
            .expect("inspect")
        };
        prop_assert_eq!(state(&baseline, a), state(&fleet, b), "PALD history diverged");
        baseline.shutdown();
        fleet.shutdown();
    }

    /// A mid-stream shard-to-shard migration must preserve the per-domain
    /// FIFO and the domain's bit-exact state: the migrated trajectory has
    /// to match an undisturbed run of the same script.
    #[test]
    fn serve_parity_migration_matches_uninterrupted_run(
        seed in 0u64..500,
        burst_len in 3u64..8,
        cut_after in 1usize..5,
        tail_steps in 1usize..4,
    ) {
        let clock = Arc::new(SimClock::new());
        let baseline = ControllerRuntime::new(4, Arc::<SimClock>::clone(&clock));
        let fleet = ControllerRuntime::new(4, Arc::<SimClock>::clone(&clock));
        let spec = contention_spec("prop-mig", seed);
        let a = baseline.create_domain(spec.clone()).expect("create baseline");
        let b = fleet.create_domain(spec).expect("create fleet");

        let mut phase = 0u64;
        for _ in 0..cut_after {
            let burst = contention_burst(phase_base(phase), burst_len, seed ^ phase);
            baseline.ingest(a, burst.clone()).expect("ingest baseline");
            fleet.ingest(b, burst).expect("ingest fleet");
            prop_assert_eq!(
                baseline.advance(a).expect("advance baseline"),
                fleet.advance(b).expect("advance fleet")
            );
            clock.advance(DEMO_WINDOW / 2);
            phase += 1;
        }

        // Mid-stream: queue the next burst, then migrate with that ingest
        // already in the domain's pipeline — FIFO must hold across the
        // move — and advance on the new shard.
        for _ in 0..tail_steps {
            let burst = contention_burst(phase_base(phase), burst_len, seed ^ phase);
            baseline.ingest(a, burst.clone()).expect("ingest baseline");
            fleet.ingest(b, burst).expect("ingest fleet");
            let home = fleet
                .metrics()
                .per_domain
                .iter()
                .find(|m| m.id == b)
                .expect("fleet metrics")
                .shard as usize;
            let away = (home + 1 + (seed as usize % 3)) % 4;
            prop_assert_eq!(fleet.migrate(b, away).expect("migrate"), away != home);
            prop_assert_eq!(
                baseline.advance(a).expect("advance baseline"),
                fleet.advance(b).expect("advance fleet"),
                "migrated domain diverged"
            );
            clock.advance(DEMO_WINDOW / 2);
            phase += 1;
        }
        prop_assert_eq!(
            baseline.current_config(a).expect("config a"),
            fleet.current_config(b).expect("config b")
        );
        baseline.shutdown();
        fleet.shutdown();
    }
}
