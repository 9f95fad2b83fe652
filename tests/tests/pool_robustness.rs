//! Pool poisoning contract: a simulation that panics inside a pooled task
//! (including the nested stochastic sample fan-out) must surface a clear
//! error to the caller of that evaluation — and ONLY wedge that call. The
//! batch still drains, the worker threads survive, and the same model keeps
//! serving later evaluations on the same pool.

use std::panic::{catch_unwind, AssertUnwindSafe};
use tempo_core::whatif::{WhatIfModel, WorkloadSource};
use tempo_qs::{QsKind, SloSet, SloSpec};
use tempo_sim::{ClusterSpec, RmConfig};
use tempo_workload::model::WorkloadModel;
use tempo_workload::synthetic::{cloudera_like_tenant, facebook_like_tenant};
use tempo_workload::time::MIN;

/// A stochastic source whose generated traces reference three tenants. Any
/// config declaring fewer trips the engine's tenant-range assertion *inside
/// the simulation* — i.e. inside a pooled (and, with `samples > 1`, nested)
/// task — which is exactly the deliberate panic this suite needs.
fn three_tenant_source() -> WorkloadSource {
    WorkloadSource::Model {
        model: WorkloadModel::new(vec![
            facebook_like_tenant("fb-a", 40.0),
            cloudera_like_tenant("cd-b", 10.0),
            facebook_like_tenant("fb-c", 40.0),
        ]),
        start: 0,
        end: 10 * MIN,
    }
}

fn model_with_threads(threads: usize) -> WhatIfModel {
    WhatIfModel::new(
        ClusterSpec::new(4, 2),
        SloSet::new(vec![
            SloSpec::new(Some(0), QsKind::AvgResponseTime),
            SloSpec::new(Some(1), QsKind::AvgResponseTime),
        ]),
        three_tenant_source(),
        (0, 10 * MIN),
    )
    .with_samples(3)
    .with_threads(threads)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_else(|| "<non-string panic payload>".into())
}

#[test]
fn panicking_simulation_degrades_one_evaluation_not_the_pool() {
    let model = model_with_threads(4);
    let good = [RmConfig::fair(3)];
    let bad = [RmConfig::fair(2)]; // trace references tenant 2 -> engine asserts

    // The poisoned evaluation fails loudly, with the engine's own message —
    // not a hang, not a generic join error.
    let err = catch_unwind(AssertUnwindSafe(|| model.evaluate_batch_salted(&bad, 7)))
        .expect_err("evaluating a config the trace out-ranges must fail");
    let msg = panic_message(err);
    assert!(
        msg.contains("trace references tenant 2"),
        "panic message should carry the engine diagnostic, got: {msg}"
    );

    // Same model, same pool, immediately afterwards: healthy evaluations
    // still run — including the nested sample fan-out — and stay
    // deterministic (bit-identical to a fresh serial model).
    let after = model.evaluate_batch_salted(&good, 11);
    assert!(after[0].iter().all(|v| v.is_finite()), "post-poison evaluation produced {after:?}");
    let serial = model_with_threads(1).evaluate_batch_salted(&good, 11);
    assert_eq!(after, serial, "pool diverged from serial after a poisoned batch");
}

#[test]
fn poisoned_batch_drains_and_pool_survives() {
    let model = model_with_threads(4);
    let good = RmConfig::fair(3);
    let bad = RmConfig::fair(2);

    // One bad config inside a pooled batch: the whole batch call fails (the
    // joiner re-raises the first panic), but it must fail cleanly and leave
    // the pool serviceable.
    let batch = vec![good.clone(), bad, good.clone()];
    let err = catch_unwind(AssertUnwindSafe(|| model.evaluate_batch_salted(&batch, 31)))
        .expect_err("a batch containing a poisoned config must fail");
    let msg = panic_message(err);
    assert!(msg.contains("trace references tenant 2"), "unexpected batch panic: {msg}");

    // The pool is not wedged: a follow-up all-good batch on the same model
    // completes, with both elements of the duplicate pair agreeing.
    let ok = model.evaluate_batch_salted(&[good.clone(), good], 57);
    assert_eq!(ok.len(), 2);
    assert!(ok.iter().flatten().all(|v| v.is_finite()), "post-poison batch produced {ok:?}");
}
