//! # tempo-bench
//!
//! The experiment harness: regenerates **every table and figure** of the
//! Tempo paper's evaluation (§8) plus the ablations DESIGN.md calls out.
//! Each experiment is a library function returning a typed result whose
//! `Display` prints the same rows/series the paper reports, so the `repro`
//! binary and the integration tests share one implementation.
//!
//! | id | content | function |
//! |---|---|---|
//! | table1 | tenant characteristics | [`tables::table1`] |
//! | table2 | prediction RAE/RSE | [`tables::table2`] |
//! | fig1 | preemption waste | [`fig_preemption::fig1`] |
//! | fig2 | static limits vs demand | [`fig_limits::fig2`] |
//! | fig5 | workload CDFs | [`fig_workload::fig5`] |
//! | fig6 | loop convergence | [`fig_loop::fig6`] |
//! | fig7 | weekly preemptions | [`fig_preemption::fig7`] |
//! | fig8 | duration CDFs | [`fig_preemption::fig8`] |
//! | fig9 | original vs optimized SLOs | [`fig_loop::fig9`] |
//! | fig10 | instant response times | [`fig_workload::fig10`] |
//! | fig11 | interval lengths | [`fig_loop::fig11`] |
//! | fig12 | provisioning errors | [`fig_provision::fig12`] |
//! | fig_backends | scheduler-backend frontiers | [`fig_backends::fig_backends`] |
//! | ablations | design-choice studies | [`ablations`] |

pub mod ablations;
pub mod fig_backends;
pub mod fig_limits;
pub mod fig_loop;
pub mod fig_preemption;
pub mod fig_provision;
pub mod fig_workload;
pub mod perf;
pub mod report;
pub mod tables;

pub use tables::Scale;

/// Runs one experiment by id, returning its printed report. Ids match the
/// table in the crate docs; `all` runs everything in paper order.
pub fn run_experiment(id: &str, scale: Scale) -> Result<String, String> {
    let out = match id {
        "table1" => tables::table1(scale).to_string(),
        "table2" => tables::table2(scale).to_string(),
        "fig1" => fig_preemption::fig1().to_string(),
        "fig2" => fig_limits::fig2().to_string(),
        "fig5" => fig_workload::fig5(scale).to_string(),
        "fig6" => fig_loop::fig6(scale).to_string(),
        "fig7" => fig_preemption::fig7(scale).to_string(),
        "fig8" => {
            let f7 = fig_preemption::fig7(scale);
            fig_preemption::fig8(&f7).to_string()
        }
        "fig9" => fig_loop::fig9(scale).to_string(),
        "fig10" => fig_workload::fig10(scale).to_string(),
        "fig11" => fig_loop::fig11(scale).to_string(),
        "fig12" => fig_provision::fig12(scale).to_string(),
        "fig_backends" => fig_backends::fig_backends(scale).to_string(),
        "ablations" => {
            let mut s = String::new();
            s.push_str(&ablations::ablation_scalarization().to_string());
            s.push('\n');
            s.push_str(&ablations::ablation_revert().to_string());
            s.push('\n');
            s.push_str(&ablations::ablation_trust_radius().to_string());
            s.push('\n');
            s.push_str(&ablations::ablation_gradients().to_string());
            s
        }
        "all" => {
            // Same expansion (and parallelism) as the multi-id path; this
            // arm only folds the per-id results into one report, aborting on
            // the first error per the signature.
            let mut s = String::new();
            for out in run_experiments_parallel(&["all"], scale) {
                s.push_str(&out?);
                s.push('\n');
            }
            s
        }
        other => {
            return Err(format!(
                "unknown experiment '{other}'; try one of {ALL_EXPERIMENTS:?} or 'all'"
            ))
        }
    };
    Ok(out)
}

/// Runs several experiments concurrently — they are fully independent pure
/// functions — bounded by the machine's available parallelism, and returns
/// the results in **input order** so `repro`'s output is stable no matter
/// how the workers interleave. `all` expands to [`ALL_EXPERIMENTS`] here, so
/// this is the single expansion path.
///
/// Callers that parallelize at this level should pin the inner What-if
/// batch width (e.g. `TEMPO_THREADS=1`, as the `repro` binary does) —
/// otherwise every worker fans its probe batches out across all cores too,
/// oversubscribing the machine ~cores².
pub fn run_experiments_parallel(ids: &[&str], scale: Scale) -> Vec<Result<String, String>> {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;
    let ids: Vec<&str> = ids
        .iter()
        .flat_map(|id| if *id == "all" { ALL_EXPERIMENTS.to_vec() } else { vec![*id] })
        .collect();
    let ids = &ids[..];
    if ids.len() <= 1 {
        return ids.iter().map(|id| run_experiment(id, scale)).collect();
    }
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get()).min(ids.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<String, String>>>> =
        ids.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Work-stealing by index: long experiments (fig6, ablations)
                // don't serialize behind short ones.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= ids.len() {
                    break;
                }
                let result = run_experiment(ids[i], scale);
                *slots[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every experiment slot filled")
        })
        .collect()
}

/// Every experiment id, in paper order (repo-original experiments after).
pub const ALL_EXPERIMENTS: [&str; 14] = [
    "table1",
    "table2",
    "fig1",
    "fig2",
    "fig5",
    "fig6",
    "fig7",
    "fig8",
    "fig9",
    "fig10",
    "fig11",
    "fig12",
    "fig_backends",
    "ablations",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_experiment_is_an_error() {
        assert!(run_experiment("fig99", Scale::Quick).is_err());
    }

    #[test]
    fn cheap_experiments_run_by_id() {
        for id in ["table1", "fig1", "fig2"] {
            let out = run_experiment(id, Scale::Quick).unwrap();
            assert!(!out.is_empty(), "{id} produced no output");
        }
    }

    #[test]
    fn parallel_runner_preserves_order_and_output() {
        let ids = ["fig2", "table1", "fig99", "fig1"];
        let parallel = run_experiments_parallel(&ids, Scale::Quick);
        assert_eq!(parallel.len(), ids.len());
        for (id, got) in ids.iter().zip(&parallel) {
            assert_eq!(got, &run_experiment(id, Scale::Quick), "{id} diverged");
        }
        assert!(parallel[2].is_err(), "unknown id stays an error in its own slot");
    }
}
