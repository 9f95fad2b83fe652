//! Preset scenarios: thin, shared setups over the [`crate::spec`] pipeline.
//!
//! Two families are packaged here so the examples, integration tests, and
//! figure harnesses agree on them:
//!
//! * **§8.2 EC2** — the paper's end-to-end setting: a deadline-driven tenant
//!   and a best-effort tenant on a 20-node EC2-like cluster, starting from
//!   the RM configuration "derived directly from the expert one created by
//!   DBAs for Company ABC's production database" ([`ec2_scenario`]).
//! * **Company ABC** — the six-tenant production mix of Table 1 with its
//!   deadline/best-effort SLO classes ([`abc_scenario`]).
//!
//! Everything is a preset over [`ScenarioSpec`]: grab the spec, customize
//! (swap SLOs, add tenants, change noise), then `build()`.

use crate::pald::PaldConfig;
use crate::spec::{ScenarioSpec, TenantSpec};
use tempo_qs::{PoolScope, QsKind, SloSet, SloSpec};
use tempo_sim::{ClusterSpec, NoiseModel, RmConfig, SchedPolicy, TenantConfig};
use tempo_workload::abc::{self, TENANT_DEADLINE_DRIVEN};
use tempo_workload::synthetic::ec2_experiment_trace;
use tempo_workload::time::{HOUR, SEC};
use tempo_workload::{TaskKind, Trace};

pub use crate::spec::Scenario;

/// Tenant ids in the EC2 experiment traces.
pub use tempo_workload::synthetic::ec2_tenant as tenant;

/// The 20-node EC2-like cluster: m3.xlarge-era Hadoop sizing of ~6 map and
/// ~3 reduce containers per node.
pub fn ec2_cluster() -> ClusterSpec {
    ClusterSpec::new(120, 60)
}

/// The expert-DBA starting configuration, encoding the production
/// pathologies the paper documents:
///
/// * the best-effort tenant is hard-capped at under half the cluster
///   (Figure 2's "configured resource limit prevents one tenant from using
///   the resources unused by the other");
/// * the deadline tenant preempts aggressively on both levels, killing the
///   best-effort tenant's long reduces and wasting their work (Figures 1
///   and 7);
/// * shares otherwise favour the deadline tenant 2:1 — sensible-looking,
///   brittle in practice.
pub fn expert_config() -> RmConfig {
    RmConfig::new(vec![
        TenantConfig::fair_default()
            .with_weight(2.0)
            .with_min_share(48, 24)
            .with_max_share(120, 60)
            .with_fair_timeout(45 * SEC)
            .with_min_timeout(15 * SEC),
        TenantConfig::fair_default().with_weight(1.0).with_min_share(0, 0).with_max_share(96, 48),
    ])
}

/// The §8.2.1 SLO set: the deadline tenant's violations (with the given
/// slack) must stay at zero, while the best-effort tenant's average job
/// response time is minimized (ratcheted best-effort objective).
pub fn mixed_slos(slack: f64) -> SloSet {
    SloSet::new(vec![
        SloSpec::new(Some(tenant::DEADLINE), QsKind::DeadlineMiss { gamma: slack })
            .with_threshold(0.0),
        SloSpec::new(Some(tenant::BEST_EFFORT), QsKind::AvgResponseTime),
    ])
}

/// The §8.2.2 SLO set: §8.2.1 plus map/reduce container-utilization
/// constraints whose bounds `r_i` are "set according to the measured map and
/// reduce container utilization under the expert RM configuration".
pub fn utilization_slos(slack: f64, expert_map_util: f64, expert_reduce_util: f64) -> SloSet {
    SloSet::new(vec![
        SloSpec::new(Some(tenant::DEADLINE), QsKind::DeadlineMiss { gamma: slack })
            .with_threshold(0.0),
        SloSpec::new(Some(tenant::BEST_EFFORT), QsKind::AvgResponseTime),
        SloSpec::new(None, QsKind::Utilization { pool: PoolScope::Map, effective: true })
            .with_threshold(-expert_map_util),
        SloSpec::new(None, QsKind::Utilization { pool: PoolScope::Reduce, effective: true })
            .with_threshold(-expert_reduce_util),
    ])
}

/// The standard two-hour experiment trace (≈30k tasks at scale 1.0; use a
/// smaller scale with a proportionally smaller cluster for quick runs).
pub fn experiment_trace(scale: f64, seed: u64) -> Trace {
    ec2_experiment_trace(scale, 2 * HOUR, seed)
}

/// Measurement noise for "observed" runs in the end-to-end scenarios:
/// moderate duration jitter and rare failures.
pub fn observation_noise() -> NoiseModel {
    NoiseModel { duration_sigma: 0.12, task_failure_prob: 0.005, job_kill_prob: 0.0 }
}

/// The §8.2 two-tenant EC2 scenario as a [`ScenarioSpec`].
///
/// * `scale` shrinks the cluster (and the expert configuration's shares)
///   onto a stand-in size;
/// * `load_boost` multiplies workload intensity only — the heavy-tailed job
///   widths in the trace do not grow with the cluster, so relative
///   contention *falls* as the stand-in cluster grows; full-scale
///   experiments boost the workload (~1.4×) to keep pool pressure
///   comparable to the paper's saturated clusters;
/// * `slack` is the deadline-miss slack γ of the §8.2.1 SLO set.
///
/// Customize the returned spec before `build()` for variants (utilization
/// constraints, different revert policies, a replayed trace, ...).
pub fn ec2_scenario(scale: f64, load_boost: f64, slack: f64, seed: u64) -> ScenarioSpec {
    let cluster = ec2_cluster().scaled(scale);
    let model = tempo_workload::synthetic::ec2_experiment_model(scale * load_boost);
    let expert = scaled_expert(scale);
    let [deadline_model, best_effort_model]: [tempo_workload::TenantModel; 2] =
        model.tenants.try_into().expect("EC2 model has exactly two tenants");
    let [deadline_rm, best_effort_rm]: [TenantConfig; 2] =
        expert.tenants.try_into().expect("expert config has exactly two tenants");
    ScenarioSpec::new(cluster)
        .tenant(
            TenantSpec::new(deadline_model)
                .with_rm(deadline_rm)
                .with_slo_bound(QsKind::DeadlineMiss { gamma: slack }, 0.0),
        )
        .tenant(
            TenantSpec::new(best_effort_model)
                .with_rm(best_effort_rm)
                .with_slo(QsKind::AvgResponseTime),
        )
        .span(2 * HOUR)
        .observation_noise(observation_noise())
        .seed(seed)
        .pald(PaldConfig { probes: 5, trust_radius: 0.18, seed, ..Default::default() })
}

/// The six-tenant Company-ABC scenario of Table 1 as a [`ScenarioSpec`]:
/// deadline-driven tenants (APP, MV, ETL) carry deadline-miss bounds, the
/// best-effort tenants (BI, DEV, STR) carry ratcheted response-time
/// objectives, and the initial configuration is the production-flavoured
/// [`abc_production_config`].
///
/// `scale = 1.0` is a ~600-node-class cluster's worth of load; tests use
/// 0.05–0.2.
pub fn abc_scenario(scale: f64, slack: f64, seed: u64) -> ScenarioSpec {
    let cluster = ClusterSpec::new(1200, 600).scaled(scale);
    let production = abc_production_config(&cluster);
    let model = abc::abc_model(scale);
    let mut spec = ScenarioSpec::new(cluster)
        .span(tempo_workload::time::DAY)
        .observation_noise(observation_noise())
        .seed(seed);
    for ((tenant_model, rm), &deadline_driven) in
        model.tenants.into_iter().zip(production.tenants).zip(&TENANT_DEADLINE_DRIVEN)
    {
        let mut t = TenantSpec::new(tenant_model).with_rm(rm);
        t = if deadline_driven {
            t.with_slo_bound(QsKind::DeadlineMiss { gamma: slack }, 0.05)
        } else {
            t.with_slo(QsKind::AvgResponseTime)
        };
        spec = spec.tenant(t);
    }
    spec
}

/// A production-flavoured six-tenant ABC configuration: deadline pipelines
/// (APP, MV, ETL) get guarantees and preemption; best-effort tenants get
/// weights only. MV's long reduces plus ETL's bursty preemption reproduce
/// the paper's observation that MV has the worst prediction error.
pub fn abc_production_config(cluster: &ClusterSpec) -> RmConfig {
    let m = cluster.capacity(TaskKind::Map);
    let r = cluster.capacity(TaskKind::Reduce);
    let frac = |c: u32, f: f64| ((c as f64 * f) as u32).max(1);
    RmConfig::new(vec![
        // BI
        TenantConfig::fair_default().with_weight(1.5).with_max_share(frac(m, 0.5), frac(r, 0.5)),
        // DEV
        TenantConfig::fair_default().with_weight(1.0).with_max_share(frac(m, 0.4), frac(r, 0.4)),
        // APP
        TenantConfig::fair_default()
            .with_weight(3.0)
            .with_min_share(frac(m, 0.1), frac(r, 0.1))
            .with_min_timeout(30 * SEC),
        // STR
        TenantConfig::fair_default().with_weight(1.0).with_max_share(frac(m, 0.4), frac(r, 0.4)),
        // MV
        TenantConfig::fair_default()
            .with_weight(2.0)
            .with_min_share(frac(m, 0.15), frac(r, 0.25))
            .with_fair_timeout(2 * tempo_workload::time::MIN)
            .with_min_timeout(45 * SEC),
        // ETL
        TenantConfig::fair_default()
            .with_weight(2.5)
            .with_min_share(frac(m, 0.2), frac(r, 0.15))
            .with_fair_timeout(tempo_workload::time::MIN)
            .with_min_timeout(20 * SEC),
    ])
}

impl Scenario {
    /// Builds the §8.2.1 mixed deadline/best-effort scenario at a given
    /// workload scale (cluster scales along to keep contention comparable).
    /// Thin preset over [`ec2_scenario`].
    pub fn mixed(scale: f64, slack: f64, seed: u64) -> Self {
        ec2_scenario(scale, 1.0, slack, seed).build().expect("EC2 preset is always valid")
    }
}

/// The §8.2 two-tenant EC2 spec under each stock scheduler backend, in
/// [`SchedPolicy::ALL`] order — the comparison set of `examples/backends.rs`
/// and the backend figures.
pub fn ec2_backend_specs(
    scale: f64,
    load_boost: f64,
    slack: f64,
    seed: u64,
) -> Vec<(SchedPolicy, ScenarioSpec)> {
    SchedPolicy::ALL
        .into_iter()
        .map(|p| (p, ec2_scenario(scale, load_boost, slack, seed).backend(p)))
        .collect()
}

/// The six-tenant Company-ABC spec under each stock scheduler backend, in
/// [`SchedPolicy::ALL`] order (the `fig_backends` comparison set).
pub fn abc_backend_specs(scale: f64, slack: f64, seed: u64) -> Vec<(SchedPolicy, ScenarioSpec)> {
    SchedPolicy::ALL.into_iter().map(|p| (p, abc_scenario(scale, slack, seed).backend(p))).collect()
}

/// The expert configuration scaled to a smaller stand-in cluster.
pub fn scaled_expert(scale: f64) -> RmConfig {
    let base = expert_config();
    if (scale - 1.0).abs() < 1e-9 {
        return base;
    }
    let s = |v: u32| ((v as f64 * scale).round() as u32).max(1);
    RmConfig::new(
        base.tenants
            .iter()
            .map(|t| TenantConfig {
                weight: t.weight,
                min_share: [s(t.min_share[0]), s(t.min_share[1])],
                max_share: [s(t.max_share[0]), s(t.max_share[1])],
                fair_timeout: t.fair_timeout,
                min_timeout: t.min_timeout,
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expert_config_is_valid_and_pathological() {
        let cfg = expert_config();
        assert!(cfg.validate().is_ok());
        let cluster = ec2_cluster();
        // Best-effort tenant cannot borrow the whole cluster.
        assert!(
            cfg.tenants[tenant::BEST_EFFORT as usize].max_share[0]
                < cluster.capacity(tempo_workload::TaskKind::Map)
        );
        // Deadline tenant preempts on both levels.
        assert!(cfg.tenants[tenant::DEADLINE as usize].fair_timeout.is_some());
        assert!(cfg.tenants[tenant::DEADLINE as usize].min_timeout.is_some());
    }

    #[test]
    fn scaled_expert_shrinks_with_cluster() {
        let half = scaled_expert(0.5);
        assert!(half.validate().is_ok());
        assert_eq!(half.tenants[0].min_share, [24, 12]);
        assert_eq!(half.tenants[1].max_share, [48, 24]);
    }

    #[test]
    fn slo_sets_have_expected_arities() {
        assert_eq!(mixed_slos(0.25).len(), 2);
        assert_eq!(utilization_slos(0.0, 0.5, 0.5).len(), 4);
        // Utilization thresholds are the negated expert measurements.
        let set = utilization_slos(0.0, 0.6, 0.4);
        assert_eq!(set.slos[2].threshold, Some(-0.6));
        assert_eq!(set.slos[3].threshold, Some(-0.4));
    }

    #[test]
    fn ec2_preset_matches_the_hand_assembled_setup() {
        // The spec must reproduce the seed repo's §8.2 glue exactly: same
        // trace, same SLO arity/bounds, same expert starting configuration.
        let spec = ec2_scenario(0.1, 1.0, 0.25, 7);
        assert_eq!(spec.initial_config(), scaled_expert(0.1));
        let set = spec.slo_set();
        let reference = mixed_slos(0.25);
        assert_eq!(set.len(), reference.len());
        for (a, b) in set.slos.iter().zip(&reference.slos) {
            assert_eq!(a.tenant, b.tenant);
            assert_eq!(a.kind, b.kind);
            assert_eq!(a.threshold, b.threshold);
        }
        let sc = spec.build().expect("valid preset");
        assert_eq!(sc.trace, experiment_trace(0.1, 7));
        assert_eq!(sc.window, (0, 2 * HOUR + 30 * tempo_workload::time::MIN));
        assert_eq!(sc.names, vec!["deadline-driven", "best-effort"]);
    }

    #[test]
    fn small_scenario_smoke() {
        let mut sc = Scenario::mixed(0.08, 0.25, 7);
        let recs = sc.run(2, 1);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].observed_qs.len(), 2);
        assert!(recs[0].observed_qs[1] > 0.0, "best-effort AJR is positive");
        // Deadline-miss fraction is a valid fraction.
        assert!((0.0..=1.0).contains(&recs[0].observed_qs[0]));
    }

    #[test]
    fn abc_preset_builds_six_tenants_with_table1_slo_classes() {
        let spec = abc_scenario(0.05, 0.25, 3);
        assert_eq!(spec.num_tenants(), 6);
        let set = spec.slo_set();
        assert_eq!(set.len(), 6);
        for (i, slo) in set.slos.iter().enumerate() {
            assert_eq!(slo.tenant, Some(i as u16));
            if TENANT_DEADLINE_DRIVEN[i] {
                assert!(matches!(slo.kind, QsKind::DeadlineMiss { .. }), "tenant {i}: {slo:?}");
            } else {
                assert_eq!(slo.kind, QsKind::AvgResponseTime);
            }
        }
        let sc = spec.build().expect("valid ABC preset");
        assert_eq!(sc.names, abc::TENANT_NAMES);
        assert_eq!(sc.trace.tenants(), vec![0, 1, 2, 3, 4, 5]);
    }
}
