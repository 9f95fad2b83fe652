//! `repro perf` — the two absolute gates that no `benchmark/` row covers.
//!
//! `benchmark/run.sh` measures Tempo (end to end, and per layer with
//! `--traced`). Two properties have no row there and are gated here against
//! fixed bounds — no baseline file, no tolerance: enabling telemetry may
//! cost at most 3% of stochastic What-if evaluations/sec, and the QS
//! lane-kernel scans must sustain a floor of column elements/sec.

use crate::report::{fmt, render_table};
use std::time::Instant;
use tempo_core::whatif::{WhatIfModel, WorkloadSource};
use tempo_core::{scenario, ConfigSpace};
use tempo_sim::{predict, RmConfig};
use tempo_workload::time::HOUR;

#[derive(Debug)]
enum Direction {
    AtMost,
    AtLeast,
}

struct Gate {
    name: &'static str,
    direction: Direction,
    bound: f64,
}

/// [`perf`] measures them in this order.
const GATES: [Gate; 2] = [
    // `telemetry off / telemetry on` evaluations/sec on the hottest
    // instrumented loop (sim engine + QS kernels): the no-op-mode contract
    // of `tempo-obs`.
    Gate { name: "telemetry_overhead_ratio", direction: Direction::AtMost, bound: 1.03 },
    // 0.7 × 210,310,007, the last value the retired baseline trail recorded.
    Gate { name: "qs_scan_elems_per_sec", direction: Direction::AtLeast, bound: 147_217_005.0 },
];

impl Gate {
    /// A measurement that is not a finite number fails: a gate that can
    /// skip itself is not a gate.
    fn passes(&self, value: f64) -> bool {
        value.is_finite()
            && match self.direction {
                Direction::AtMost => value <= self.bound,
                Direction::AtLeast => value >= self.bound,
            }
    }
}

/// Renders one row per gate; `Err` carries the same table when any fails.
fn verdict(values: &[f64; GATES.len()]) -> Result<String, String> {
    let mut failed = false;
    let rows: Vec<Vec<String>> = GATES
        .iter()
        .zip(values)
        .map(|(gate, &value)| {
            let ok = gate.passes(value);
            failed |= !ok;
            vec![
                gate.name.into(),
                fmt(value),
                format!("{:?}", gate.direction),
                fmt(gate.bound),
                if ok { "ok" } else { "FAIL" }.into(),
            ]
        })
        .collect();
    let table =
        render_table("repro perf", &["gate", "value", "direction", "bound", "verdict"], &rows);
    if failed {
        Err(table)
    } else {
        Ok(table)
    }
}

/// Runs `work` (which reports how many units it processed) until enough
/// wall-clock has accumulated for a stable rate, and returns units/sec.
fn rate(mut work: impl FnMut() -> u64) -> f64 {
    // Warm-up round: fills sim pools and caches outside the timed window.
    work();
    let start = Instant::now();
    let mut units = 0u64;
    let mut rounds = 0usize;
    while rounds < 2 || start.elapsed().as_secs_f64() < 0.5 {
        units += work();
        rounds += 1;
    }
    units as f64 / start.elapsed().as_secs_f64()
}

/// Eight deterministic perturbations of the mid-point encoding — the shape
/// of one PALD probe batch.
fn probe_configs(space: &ConfigSpace) -> Vec<RmConfig> {
    let mut state = 0x243F6A8885A308D3u64; // deterministic LCG, no wall-clock
    let mut jitter = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((state >> 33) as f64 / (1u64 << 31) as f64) - 0.5 // [-0.5, 0.5)
    };
    (0..8)
        .map(|_| {
            let x: Vec<f64> =
                (0..space.dim()).map(|_| (0.5 + 0.3 * jitter()).clamp(0.0, 1.0)).collect();
            space.decode(&x)
        })
        .collect()
}

/// Measures both gates and renders the verdict (`Err` = a bound is violated).
pub fn perf() -> Result<String, String> {
    const WL_SCALE: f64 = 0.15;
    let window = (0, HOUR);
    let cluster = scenario::ec2_cluster().scaled(WL_SCALE);

    // Stochastic ABC: six tenants, synthetic workload draws per evaluation —
    // nothing memoizable, so every eval pays full simulate + QS scans. One
    // worker thread: the instrumentation under test is per simulated event
    // and per scan, and across pool workers on a shared 2-core box the rate
    // varies ±25% from window to window where this repeats within ±2%.
    let abc_model = WhatIfModel::new(
        cluster.clone(),
        scenario::mixed_slos(0.25),
        WorkloadSource::Model {
            model: tempo_workload::abc::abc_model(WL_SCALE * 0.5),
            start: window.0,
            end: window.1,
        },
        window,
    )
    .with_samples(2)
    .with_threads(1);
    let abc_probes = probe_configs(&ConfigSpace::new(6, &cluster));
    // Alternate off/on rounds (so drift hits both modes equally) and take
    // the best rate per mode — peak capability is stable where one window is
    // not. The "off" rounds exercise the compiled near-no-op early return.
    let evals_per_sec = |salt0: u64| {
        let mut salt = salt0;
        rate(|| {
            std::hint::black_box(abc_model.evaluate_batch_salted(&abc_probes, salt));
            salt += abc_probes.len() as u64;
            abc_probes.len() as u64
        })
    };
    let mut rate_off = 0.0f64;
    let mut rate_on = 0.0f64;
    for round in 0..2u64 {
        tempo_obs::set_enabled(false);
        rate_off = rate_off.max(evals_per_sec(10_000_000 + round * 1_000_000));
        tempo_obs::set_enabled(true);
        rate_on = rate_on.max(evals_per_sec(20_000_000 + round * 1_000_000));
    }
    tempo_obs::set_enabled(false);
    let telemetry_overhead = rate_off / rate_on; // 0/0 or x/0 is not finite, so it fails

    // The lane-kernel masked scans (`tempo_sim::kernel`) over a predicted
    // schedule's job columns, every SLO of the mixed set per round.
    let trace = tempo_workload::synthetic::ec2_experiment_model(WL_SCALE).generate(0, HOUR, 7);
    let schedule = predict(&trace, &cluster, &RmConfig::fair(2));
    let slos = scenario::mixed_slos(0.25);
    let elems_per_round = schedule.num_jobs() as u64 * slos.len() as u64;
    let qs_scan = rate(|| {
        std::hint::black_box(slos.evaluate(&schedule, window.0, window.1));
        elems_per_round
    });

    verdict(&[telemetry_overhead, qs_scan])
}

#[cfg(test)]
mod tests {
    use super::*;

    const AT_MOST: Gate = Gate { name: "cap", direction: Direction::AtMost, bound: 1.03 };
    const AT_LEAST: Gate = Gate { name: "floor", direction: Direction::AtLeast, bound: 100.0 };

    #[test]
    fn a_gate_passes_inside_its_bound_and_fails_outside_it_or_unmeasured() {
        for (gate, inside, outside) in [(AT_MOST, 1.03, 1.031), (AT_LEAST, 100.0, 99.9)] {
            assert!(gate.passes(inside), "{} {inside}", gate.name);
            for value in [outside, f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
                assert!(!gate.passes(value), "{} {value}", gate.name);
            }
        }
    }

    #[test]
    fn the_verdict_names_every_row_and_fails_when_any_gate_does() {
        let pass = verdict(&[1.0, 2.0e8]).expect("both inside their bounds");
        let slow_scan = verdict(&[1.0, 1.0e8]).expect_err("floor violated");
        let costly_telemetry = verdict(&[1.04, 2.0e8]).expect_err("cap violated");
        let unmeasured = verdict(&[f64::NAN, 2.0e8]).expect_err("NaN is a failure");
        for table in [&pass, &slow_scan, &costly_telemetry, &unmeasured] {
            for gate in &GATES {
                assert!(table.contains(gate.name), "{} missing from:\n{table}", gate.name);
            }
        }
        assert!(!pass.contains("FAIL"));
        assert_eq!(slow_scan.matches("FAIL").count(), 1);
    }
}
