//! The predict→optimize parallelism contract: fanning probe evaluation out
//! across threads must be **invisible** in the results. PALD trajectories,
//! recorded histories, and the control loop's iteration records have to be
//! bit-identical at any worker-thread count, and the hashed memo cache must
//! hit exactly where the old serde_json string key hit.

use std::collections::HashSet;
use tempo_core::pald::{Pald, PaldConfig, QsObjective};
use tempo_core::whatif::{WhatIfModel, WorkloadSource};
use tempo_core::{scenario, ConfigSpace, WhatIfObjective};
use tempo_qs::{QsKind, SloSet, SloSpec};
use tempo_sim::{ClusterSpec, RmConfig, TenantConfig};
use tempo_workload::time::{MIN, SEC};
use tempo_workload::trace::{JobSpec, TaskSpec, Trace};

/// Deadline bursts against a best-effort stream on a tight cluster — the
/// §8.2-style contention shape used across the control-loop tests.
fn contention_trace() -> Trace {
    let mut jobs = Vec::new();
    let mut id = 0;
    for burst in 0..4u64 {
        jobs.push(
            JobSpec::new(
                id,
                0,
                burst * 2 * MIN,
                vec![TaskSpec::map(20 * SEC), TaskSpec::map(20 * SEC), TaskSpec::reduce(40 * SEC)],
            )
            .with_deadline(burst * 2 * MIN + 2 * MIN),
        );
        id += 1;
    }
    for i in 0..24u64 {
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

fn model_with_threads(threads: usize) -> (WhatIfModel, ConfigSpace) {
    let cluster = ClusterSpec::new(8, 4);
    let model = WhatIfModel::new(
        cluster.clone(),
        slos(),
        WorkloadSource::replay(contention_trace()),
        (0, 10 * MIN),
    )
    .with_threads(threads);
    (model, ConfigSpace::new(2, &cluster))
}

#[test]
fn pald_step_and_history_identical_across_thread_counts() {
    let run = |threads: usize| {
        let (model, space) = model_with_threads(threads);
        let objective = WhatIfObjective::new(&space, &model);
        let mut pald = Pald::new(PaldConfig { probes: 4, seed: 17, ..Default::default() });
        let mut x = space.encode(&RmConfig::fair(2));
        let r = [0.0, f64::INFINITY];
        let mut steps = Vec::new();
        for _ in 0..4 {
            let step = pald.step(&objective, &x, &r);
            x = step.x_new.clone();
            steps.push(step);
        }
        let (hx, hf) = pald.history();
        (steps, hx.to_vec(), hf.to_vec())
    };
    let baseline = run(1);
    for threads in [2, 4, 8] {
        let other = run(threads);
        assert_eq!(baseline.0, other.0, "PaldStep sequence diverged at {threads} threads");
        assert_eq!(baseline.1, other.1, "history x diverged at {threads} threads");
        assert_eq!(baseline.2, other.2, "history f diverged at {threads} threads");
    }
}

#[test]
fn whatif_objective_batch_equals_serial_eval() {
    let (model, space) = model_with_threads(4);
    let objective = WhatIfObjective::new(&space, &model);
    let x0 = space.encode(&RmConfig::fair(2));
    // A batch shaped like a probe set: center plus perturbed points.
    let mut points = vec![x0.clone()];
    for i in 1..=6usize {
        let p: Vec<f64> = x0
            .iter()
            .enumerate()
            .map(|(j, &v)| (v + 0.11 * ((i * 7 + j * 3) % 5) as f64 / 5.0 - 0.05).clamp(0.0, 1.0))
            .collect();
        points.push(p);
    }
    let first_sample = 42u64;
    let batch = objective.eval_batch(&points, first_sample);
    for (i, (p, got)) in points.iter().zip(&batch).enumerate() {
        let serial = objective.eval(p, first_sample + i as u64);
        assert_eq!(&serial, got, "batch element {i} diverged from serial eval");
    }
}

#[test]
fn hashed_cache_hits_match_string_key_behavior() {
    // Decode a grid of §8.2-scenario configurations (with deliberate
    // duplicates) and check the 64-bit-hash cache memoizes exactly the
    // distinct-full-encoding set: one simulation and one cache entry per
    // distinct serde_json string — the old key — and pure hits afterwards.
    let cluster = scenario::ec2_cluster().scaled(0.1);
    let model = WhatIfModel::new(
        cluster.clone(),
        scenario::mixed_slos(0.25),
        WorkloadSource::replay(scenario::experiment_trace(0.1, 5)),
        (0, 30 * MIN),
    );
    let space = ConfigSpace::new(2, &cluster);
    let dim = space.dim();
    let mut configs = Vec::new();
    for step in 0..6 {
        let x: Vec<f64> = (0..dim).map(|j| ((step + j) % 5) as f64 / 4.0).collect();
        configs.push(space.decode(&x));
    }
    configs.push(configs[0].clone());
    configs.push(configs[3].clone());

    let distinct: HashSet<String> =
        configs.iter().map(|c| serde_json::to_string(c).expect("config serializes")).collect();

    let mut first_pass = Vec::new();
    for cfg in &configs {
        first_pass.push(model.evaluate(cfg));
    }
    assert_eq!(model.cache_len(), distinct.len(), "one cache entry per distinct encoding");
    assert_eq!(model.sim_count(), distinct.len() as u64, "one simulation per distinct encoding");

    for (cfg, expected) in configs.iter().zip(&first_pass) {
        assert_eq!(&model.evaluate(cfg), expected, "cache hit returned a different vector");
    }
    assert_eq!(model.cache_len(), distinct.len(), "second pass added no entries");
    assert_eq!(model.sim_count(), distinct.len() as u64, "second pass was pure cache hits");
}

#[test]
fn batched_duplicates_simulate_exactly_once() {
    // First writer wins; the other seven evaluations of the same config must
    // wait for it instead of racing duplicate simulations past the cache.
    let (model, _space) = model_with_threads(4);
    let cfg = RmConfig::new(vec![
        TenantConfig::fair_default().with_weight(2.0),
        TenantConfig::fair_default(),
    ]);
    let batch: Vec<RmConfig> = std::iter::repeat_with(|| cfg.clone()).take(8).collect();
    let out = model.evaluate_batch(&batch);
    assert_eq!(model.sim_count(), 1, "duplicate configs in one batch raced the cache");
    assert_eq!(model.cache_len(), 1);
    for qs in &out {
        assert_eq!(qs, &out[0]);
    }
    assert_eq!(&model.evaluate(&cfg), &out[0]);
    assert_eq!(model.sim_count(), 1, "later lookups are cache hits");
}

#[test]
fn ec2_observed_schedule_is_stable_across_builds_and_serde() {
    // Determinism-suite extension for the columnar engine: the
    // §8.2 scenario's observed schedule — the figure fixtures' data source —
    // must be identical across independent scenario builds, and its serde
    // encoding (the row-view JSON) must be stable too.
    let build = || scenario::ec2_scenario(0.04, 1.0, 0.25, 11).build().expect("scenario builds");
    let a = build().observe_current(5);
    let b = build().observe_current(5);
    assert_eq!(a, b, "observed schedules diverged across builds");
    assert_eq!(
        serde_json::to_string(&a).expect("schedule serializes"),
        serde_json::to_string(&b).expect("schedule serializes"),
        "schedule serde encoding unstable"
    );
}

#[test]
fn stochastic_nested_fanout_identical_across_thread_counts() {
    // The pool's nested fan-out path: a pooled `evaluate_batch_salted` over a
    // stochastic source with `samples > 1` runs each batch element as a pool
    // task that itself fans its expectation samples out as sub-tasks. The
    // result must be byte-identical (compared as raw f64 bits) whether the
    // nest ran serially or across 2, 4, or 7 threads — the reduce happens in
    // sample-index order over pre-assigned seeds either way.
    let cluster = scenario::ec2_cluster().scaled(0.05);
    let space = ConfigSpace::new(6, &cluster);
    let run = |threads: usize| {
        let model = WhatIfModel::new(
            cluster.clone(),
            scenario::mixed_slos(0.25),
            WorkloadSource::Model {
                model: tempo_workload::abc::abc_model(0.02),
                start: 0,
                end: 10 * MIN,
            },
            (0, 10 * MIN),
        )
        .with_samples(3)
        .with_threads(threads);
        let probes: Vec<RmConfig> = (0..5)
            .map(|i| {
                let x: Vec<f64> = (0..space.dim()).map(|j| ((i + j) % 4) as f64 / 3.0).collect();
                space.decode(&x)
            })
            .collect();
        let out = model.evaluate_batch_salted(&probes, 91);
        out.into_iter()
            .map(|qs| qs.into_iter().map(f64::to_bits).collect::<Vec<u64>>())
            .collect::<Vec<_>>()
    };
    let baseline = run(1);
    for threads in [2, 4, 7] {
        assert_eq!(
            baseline,
            run(threads),
            "stochastic nested fan-out diverged at {threads} threads"
        );
    }
}

#[test]
fn full_scenario_trajectory_identical_across_thread_counts() {
    // The §8.2 EC2 scenario end to end: observed schedules, reverts,
    // ratchets, and installed configurations must not depend on how many
    // workers evaluated the probe batches.
    let run = |threads: usize| {
        let mut sc = scenario::ec2_scenario(0.04, 1.0, 0.25, 11).build().expect("scenario builds");
        sc.tempo.whatif.set_threads(Some(threads));
        sc.run(3, 100)
    };
    let baseline = run(1);
    let wide = run(4);
    assert_eq!(baseline, wide, "control-loop records diverged with 4 worker threads");
}
