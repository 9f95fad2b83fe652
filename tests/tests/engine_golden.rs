//! Golden pins for the simulation engine: FNV-1a hashes over the binary wire
//! encoding of decision records and schedules, computed on the commit
//! *before* the engine's event queue, prepared windows and fair-share fast
//! paths were rewritten, and unchanged since. Any drift in event order,
//! allocation targets or schedule columns — however small — moves a hash.
//!
//! The parity suites compare the engine against itself (pooled vs fresh,
//! prepared vs one-shot); these constants are the only check against its
//! ancestors.

use bytes::BytesMut;
use serde::Serialize;
use tempo_core::scenario::abc_scenario;
use tempo_serve::demo::{contention_burst, contention_spec};
use tempo_serve::{codec, Domain, DomainSpec};
use tempo_sim::{
    simulate, ClusterSpec, NoiseModel, RmConfig, SchedPolicy, SimOptions, TenantConfig,
};
use tempo_workload::abc::abc_span;
use tempo_workload::time::{MIN, SEC};
use tempo_workload::trace::{JobSpec, TaskSpec, Trace};

/// Incremental 64-bit FNV-1a over the binary codec's bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn feed<T: Serialize>(&mut self, value: &T) {
        let mut buf = BytesMut::new();
        codec::encode_binary(value, &mut buf);
        for &b in buf.iter() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

const CONTENTION_GOLDEN: u64 = 0xc3b3_a9cb_321a_b22f;
const ABC_GOLDEN: u64 = 0x7b65_1806_60e8_0ddf;
const SCHEDULES_GOLDEN: u64 = 0x1222_1141_633e_36c1;

/// 400 decision records: four contention domains, 100 advances each on a
/// 10 s tick, every tick ingesting a 1–3 job burst.
#[test]
fn contention_decisions_match_the_pinned_hash() {
    let mut domains: Vec<Domain> = (0..4u64)
        .map(|d| Domain::new(contention_spec(&format!("golden-{d}"), d + 1)).unwrap())
        .collect();
    let mut h = Fnv::new();
    for step in 0..100u64 {
        let now = step * 10 * SEC;
        for (d, domain) in domains.iter_mut().enumerate() {
            let salt = step * 4 + d as u64;
            domain.ingest(now, contention_burst(now, 1 + salt % 3, salt));
            h.feed(&domain.advance(now));
        }
    }
    assert_eq!(h.0, CONTENTION_GOLDEN, "contention decisions drifted: {:#018x}", h.0);
}

/// 40 decisions of the six-tenant Company-ABC domain the benchmark's
/// `abc-replay` workload runs: one-hour window, 7.5 simulated minutes
/// between decisions.
#[test]
fn abc_decisions_match_the_pinned_hash() {
    const WINDOW: u64 = 60 * MIN;
    const TICK: u64 = WINDOW / 8;
    const DECISIONS: u64 = 40;
    let scenario = abc_scenario(0.4, 0.25, 1);
    let spec = DomainSpec::new(
        "abc",
        scenario.cluster.clone(),
        scenario.slo_set(),
        scenario.initial_config(),
        WINDOW,
    )
    .with_seed(1);
    let mut domain = Domain::new(spec).unwrap();
    let mut trace = abc_span(0.4, DECISIONS * TICK, 2016);
    trace.sort_by_submit();
    let mut jobs = trace.jobs.into_iter().peekable();
    let mut h = Fnv::new();
    for step in 1..=DECISIONS {
        let now = step * TICK;
        let mut batch = Vec::new();
        while let Some(job) = jobs.next_if(|j| j.submit < now) {
            batch.push(job);
        }
        domain.ingest(now, batch);
        h.feed(&domain.advance(now));
    }
    assert_eq!(h.0, ABC_GOLDEN, "ABC decisions drifted: {:#018x}", h.0);
}

/// A trace that exercises every engine mechanism: same-instant arrivals in
/// unsorted trace order, zero-map jobs, early-launched reduces, deadlines,
/// and a long-task tenant for the preemption timeouts to kill.
fn golden_trace() -> Trace {
    let mut jobs = Vec::new();
    let mut id = 0u64;
    for wave in (0..4u64).rev() {
        for tenant in 0..3u16 {
            for k in 0..3u64 {
                let submit = wave * 2 * MIN + (k % 2) * 5 * SEC;
                let job = JobSpec::new(
                    id,
                    tenant,
                    submit,
                    vec![
                        TaskSpec::map((40 + k) * SEC),
                        TaskSpec::reduce(50 * SEC),
                        TaskSpec::map(70 * SEC),
                        TaskSpec::reduce((20 + tenant as u64) * SEC),
                    ],
                )
                .with_slowstart([0.0, 0.5, 1.0][k as usize])
                .with_deadline(submit + 4 * MIN);
                jobs.push(job);
                id += 1;
            }
        }
    }
    jobs.push(JobSpec::new(id, 1, 30 * SEC, vec![TaskSpec::reduce(45 * SEC); 3]));
    jobs.push(JobSpec::new(id + 1, 0, 0, vec![TaskSpec::map(20 * MIN); 6]));
    Trace::new(jobs)
}

/// One schedule per backend × noise model × horizon.
#[test]
fn schedules_match_the_pinned_hash() {
    let trace = golden_trace();
    let cluster = ClusterSpec::new(6, 3);
    let mut h = Fnv::new();
    for policy in SchedPolicy::ALL {
        let mut config = RmConfig::new(vec![
            TenantConfig::fair_default(),
            TenantConfig::fair_default().with_min_share(2, 1).with_min_timeout(15 * SEC),
            TenantConfig::fair_default().with_fair_timeout(30 * SEC).with_weight(2.0),
        ]);
        config.policy = policy;
        for noise in [NoiseModel::NONE, NoiseModel::production()] {
            for horizon in [None, Some(7 * MIN)] {
                let opts = SimOptions { horizon, noise, seed: 23 };
                h.feed(&simulate(&trace, &cluster, &config, &opts));
            }
        }
    }
    assert_eq!(h.0, SCHEDULES_GOLDEN, "schedules drifted: {:#018x}", h.0);
}
