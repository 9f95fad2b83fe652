//! Weighted max-min fair-share computation with min/max limits.
//!
//! This is the allocation policy of the Hadoop Fair Scheduler family that the
//! Tempo paper's example in §3.2 walks through: shares 1:2:3 over 12
//! containers give 2/4/6; if one tenant is idle its quota is redistributed by
//! weight; a max limit of 3 on tenant C yields 3/6/3.
//!
//! The algorithm is the classic two-phase water-fill:
//!
//! 1. every tenant is first granted `min(min_share, demand)` (scaled down
//!    proportionally if the minimums oversubscribe the pool), then
//! 2. the remainder is distributed proportionally to weights, iteratively
//!    saturating tenants at their effective demand `min(demand, max_share)`.
//!
//! Fractional targets are converted to integers by largest-remainder
//! rounding, so the integer targets always sum to exactly the distributable
//! capacity.
//!
//! Two entry points share one implementation: the pure [`fair_targets`]
//! function (allocates its own scratch; convenient for tests and one-shot
//! callers) and the [`FairShare`] backend, which keeps the scratch buffers
//! alive across calls because the simulation engine invokes it per
//! scheduling event — thousands of times per what-if evaluation.

use crate::{ResourceVec, SchedulerBackend, TenantDemand, NUM_RESOURCES};

/// Per-tenant inputs to the fair-share computation for one pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShareInput {
    pub weight: f64,
    /// Containers the tenant could use right now (running + queued).
    pub demand: u32,
    pub min_share: u32,
    pub max_share: u32,
}

impl ShareInput {
    /// Demand clamped by the max limit — the most this tenant may hold.
    #[inline]
    pub fn effective_demand(&self) -> u32 {
        self.demand.min(self.max_share)
    }
}

/// Reusable scratch for the water-fill; one instance per backend so the hot
/// path performs no heap allocation after warm-up.
#[derive(Debug, Default, Clone)]
pub(crate) struct WaterfillScratch {
    eff: Vec<u32>,
    want_min: Vec<u32>,
    base: Vec<f64>,
    saturated: Vec<bool>,
    remainder: Vec<f64>,
    order: Vec<usize>,
}

/// Computes integer fair-share targets for one pool.
///
/// Guarantees (tested by `proptest` below):
/// * `target[i] <= min(demand[i], max_share[i])`,
/// * `sum(target) == min(capacity, sum(effective demand))` (work conserving),
/// * if `sum(min(min_share, eff_demand)) <= capacity`, every tenant gets at
///   least `min(min_share, eff_demand)` (guarantees honoured),
/// * targets scale with weights among unsaturated tenants.
pub fn fair_targets(capacity: u32, inputs: &[ShareInput]) -> Vec<u32> {
    let mut scratch = WaterfillScratch::default();
    let mut out = Vec::with_capacity(inputs.len());
    fair_targets_into(capacity, inputs, &mut scratch, &mut out);
    out
}

/// The allocation-free core of [`fair_targets`]: identical arithmetic, but
/// every intermediate lives in `scratch` and the result is written to `out`.
pub(crate) fn fair_targets_into(
    capacity: u32,
    inputs: &[ShareInput],
    scratch: &mut WaterfillScratch,
    out: &mut Vec<u32>,
) {
    let n = inputs.len();
    out.clear();
    if n == 0 || capacity == 0 {
        out.resize(n, 0);
        return;
    }
    let WaterfillScratch { eff, want_min, base, saturated, remainder, order } = scratch;
    eff.clear();
    eff.extend(inputs.iter().map(ShareInput::effective_demand));
    let total_eff: u64 = eff.iter().map(|&e| e as u64).sum();
    if total_eff <= capacity as u64 {
        // Uncontended pool: the water-fill provably grants every tenant its
        // full effective demand (work conservation with `distributable ==
        // total_eff` and the per-tenant cap `target <= eff` force equality),
        // and the integral bases round to themselves. Skip straight there —
        // on lightly loaded clusters this is the per-event common case.
        out.extend_from_slice(eff);
        return;
    }
    let distributable = (capacity as u64).min(total_eff) as u32;
    if distributable == 0 {
        out.resize(n, 0);
        return;
    }

    // Phase 1: guaranteed minimums, scaled down proportionally if they
    // oversubscribe the pool (Hadoop's behaviour when Σ minShare > capacity).
    want_min.clear();
    want_min.extend(inputs.iter().zip(eff.iter()).map(|(inp, &e)| inp.min_share.min(e)));
    let total_min: u64 = want_min.iter().map(|&m| m as u64).sum();
    base.clear();
    if total_min <= distributable as u64 {
        base.extend(want_min.iter().map(|&m| m as f64));
    } else {
        let scale = distributable as f64 / total_min as f64;
        base.extend(want_min.iter().map(|&m| m as f64 * scale));
    }

    // Phase 2: water-fill the remainder by weight, capped at effective
    // demand. Iterates because saturating one tenant frees share for others.
    let mut remaining = distributable as f64 - base.iter().sum::<f64>();
    saturated.clear();
    saturated.resize(n, false);
    for i in 0..n {
        if base[i] >= eff[i] as f64 - 1e-9 {
            saturated[i] = true;
        }
    }
    while remaining > 1e-9 {
        let weight_sum: f64 = inputs
            .iter()
            .zip(saturated.iter())
            .filter(|(_, &s)| !s)
            .map(|(inp, _)| inp.weight)
            .sum();
        if weight_sum <= 0.0 {
            break;
        }
        let unit = remaining / weight_sum;
        let mut newly_saturated = false;
        let mut distributed = 0.0;
        for i in 0..n {
            if saturated[i] {
                continue;
            }
            let grant = unit * inputs[i].weight;
            let room = eff[i] as f64 - base[i];
            if grant >= room - 1e-9 {
                base[i] = eff[i] as f64;
                distributed += room;
                saturated[i] = true;
                newly_saturated = true;
            } else {
                base[i] += grant;
                distributed += grant;
            }
        }
        remaining -= distributed;
        if !newly_saturated {
            // Nothing saturated this round: the proportional grants fit, so
            // all remaining capacity was consumed.
            break;
        }
    }

    // Largest-remainder rounding to integers summing to `distributable`,
    // still respecting the effective-demand caps.
    round_targets_into(base, eff, distributable, remainder, order, out);
}

/// Largest-remainder rounding of fractional targets under per-tenant caps.
///
/// Every `frac[i]` lies in `[0, caps[i]]`, so the `as u32` cast — which
/// truncates toward zero — is its floor, without the libm call.
fn round_targets_into(
    frac: &[f64],
    caps: &[u32],
    total: u32,
    remainder: &mut Vec<f64>,
    order: &mut Vec<usize>,
    out: &mut Vec<u32>,
) {
    let n = frac.len();
    out.clear();
    remainder.clear();
    let mut assigned: u64 = 0;
    for (&f, &c) in frac.iter().zip(caps) {
        let floor = f as u32;
        remainder.push(f - floor as f64);
        let granted = floor.min(c);
        out.push(granted);
        assigned += granted as u64;
    }
    if assigned >= total as u64 {
        // The floors already use up the pool (integral targets — the common
        // case once tenants saturate): no slot is left to hand out.
        return;
    }
    // Order by descending fractional remainder, tenant index as tiebreak for
    // determinism.
    order.clear();
    order.extend(0..n);
    order.sort_by(|&a, &b| {
        remainder[b].partial_cmp(&remainder[a]).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(&b))
    });
    let mut idx = 0;
    while assigned < total as u64 && idx < 10 * n.max(1) {
        let i = order[idx % n];
        if out[i] < caps[i] {
            out[i] += 1;
            assigned += 1;
        }
        idx += 1;
    }
}

/// The Hadoop-Fair-Scheduler backend: independent weighted max-min
/// water-fills per resource pool. This is the policy the pre-subsystem
/// engine hard-coded; routed through the [`SchedulerBackend`] trait it
/// produces byte-identical schedules (see the workspace `backend_parity`
/// integration tests).
#[derive(Debug, Default, Clone)]
pub struct FairShare {
    inputs: Vec<ShareInput>,
    scratch: WaterfillScratch,
    out: Vec<u32>,
}

impl FairShare {
    pub fn new() -> Self {
        Self::default()
    }

    /// [`fair_targets`] into a caller-provided buffer, reusing this
    /// backend's scratch (the allocation-free hot-path entry point).
    pub fn fair_targets_into(&mut self, capacity: u32, inputs: &[ShareInput], out: &mut Vec<u32>) {
        fair_targets_into(capacity, inputs, &mut self.scratch, out);
    }
}

impl SchedulerBackend for FairShare {
    fn name(&self) -> &'static str {
        "fair-share"
    }

    fn allocate(
        &mut self,
        capacity: &ResourceVec,
        demands: &[TenantDemand],
        targets: &mut Vec<ResourceVec>,
    ) {
        targets.clear();
        targets.resize(demands.len(), [0; NUM_RESOURCES]);
        for r in 0..NUM_RESOURCES {
            let mut out = std::mem::take(&mut self.out);
            self.allocate_pool(r, capacity[r], demands, &mut out);
            for (t, &v) in out.iter().enumerate() {
                targets[t][r] = v;
            }
            self.out = out;
        }
    }

    fn allocate_pool(
        &mut self,
        resource: usize,
        capacity: u32,
        demands: &[TenantDemand],
        out: &mut Vec<u32>,
    ) -> bool {
        self.inputs.clear();
        self.inputs.extend(demands.iter().map(|d| ShareInput {
            weight: d.weight,
            demand: d.demand[resource],
            min_share: d.min_share[resource],
            max_share: d.max_share[resource],
        }));
        fair_targets_into(capacity, &self.inputs, &mut self.scratch, out);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input(weight: f64, demand: u32, min: u32, max: u32) -> ShareInput {
        ShareInput { weight, demand, min_share: min, max_share: max }
    }

    fn unlimited(weight: f64, demand: u32) -> ShareInput {
        input(weight, demand, 0, u32::MAX)
    }

    #[test]
    fn paper_example_basic_shares() {
        // §3.2: shares 1:2:3, 12 containers, all saturated → 2, 4, 6.
        let t = fair_targets(12, &[unlimited(1.0, 100), unlimited(2.0, 100), unlimited(3.0, 100)]);
        assert_eq!(t, vec![2, 4, 6]);
    }

    #[test]
    fn paper_example_idle_tenant_redistribution() {
        // §3.2: C idle → A and B split 12 in ratio 1:2 → 4 and 8.
        let t = fair_targets(12, &[unlimited(1.0, 100), unlimited(2.0, 100), unlimited(3.0, 0)]);
        assert_eq!(t, vec![4, 8, 0]);
    }

    #[test]
    fn paper_example_max_limit() {
        // §3.2: C capped at 3 → A, B, C get 3, 6, 3.
        let t =
            fair_targets(12, &[unlimited(1.0, 100), unlimited(2.0, 100), input(3.0, 100, 0, 3)]);
        assert_eq!(t, vec![3, 6, 3]);
    }

    #[test]
    fn min_shares_guaranteed() {
        let t = fair_targets(10, &[input(1.0, 10, 6, u32::MAX), unlimited(9.0, 10)]);
        assert!(t[0] >= 6, "min share must be honoured, got {t:?}");
        assert_eq!(t.iter().sum::<u32>(), 10);
    }

    #[test]
    fn oversubscribed_min_shares_scale_down() {
        let t = fair_targets(10, &[input(1.0, 20, 12, u32::MAX), input(1.0, 20, 8, u32::MAX)]);
        assert_eq!(t.iter().sum::<u32>(), 10);
        // 12:8 scaled onto 10 → 6:4.
        assert_eq!(t, vec![6, 4]);
    }

    #[test]
    fn min_share_larger_than_demand_is_clamped() {
        let t = fair_targets(10, &[input(1.0, 2, 8, u32::MAX), unlimited(1.0, 100)]);
        assert_eq!(t, vec![2, 8]);
    }

    #[test]
    fn surplus_capacity_leaves_slack() {
        let t = fair_targets(100, &[unlimited(1.0, 5), unlimited(1.0, 7)]);
        assert_eq!(t, vec![5, 7]);
    }

    #[test]
    fn empty_and_zero_cases() {
        assert!(fair_targets(10, &[]).is_empty());
        assert_eq!(fair_targets(0, &[unlimited(1.0, 5)]), vec![0]);
        assert_eq!(fair_targets(10, &[unlimited(1.0, 0)]), vec![0]);
    }

    #[test]
    fn rounding_preserves_total() {
        // 3 equal tenants on 10 slots: 3.33 each → 4/3/3 after rounding.
        let t = fair_targets(10, &[unlimited(1.0, 50), unlimited(1.0, 50), unlimited(1.0, 50)]);
        assert_eq!(t.iter().sum::<u32>(), 10);
        let max = *t.iter().max().unwrap();
        let min = *t.iter().min().unwrap();
        assert!(max - min <= 1, "near-equal split expected, got {t:?}");
    }

    #[test]
    fn cascading_saturation() {
        // Tenant 0 saturates at 2, freeing share for the rest.
        let t = fair_targets(12, &[unlimited(2.0, 2), unlimited(1.0, 100), unlimited(1.0, 100)]);
        assert_eq!(t, vec![2, 5, 5]);
    }

    #[test]
    fn scratch_reuse_matches_fresh_scratch() {
        // One backend instance reused across differently-sized calls gives
        // the same answers as one-shot computation.
        let mut backend = FairShare::new();
        let cases: Vec<(u32, Vec<ShareInput>)> = vec![
            (12, vec![unlimited(1.0, 100), unlimited(2.0, 100), unlimited(3.0, 100)]),
            (10, vec![input(1.0, 20, 12, u32::MAX), input(1.0, 20, 8, u32::MAX)]),
            (7, vec![unlimited(1.5, 3)]),
            (0, vec![unlimited(1.0, 5), unlimited(2.0, 5)]),
            (100, vec![]),
            (12, vec![unlimited(2.0, 2), unlimited(1.0, 100), unlimited(1.0, 100)]),
        ];
        let mut out = Vec::new();
        for (capacity, inputs) in &cases {
            backend.fair_targets_into(*capacity, inputs, &mut out);
            assert_eq!(out, fair_targets(*capacity, inputs), "capacity {capacity}");
        }
    }

    #[test]
    fn backend_allocate_matches_per_pool_fair_targets() {
        let demands = [
            TenantDemand {
                weight: 2.0,
                demand: [30, 7],
                min_share: [4, 0],
                max_share: [10, 5],
                stamp: [u64::MAX; NUM_RESOURCES],
            },
            TenantDemand {
                weight: 1.0,
                demand: [50, 50],
                min_share: [0, 0],
                max_share: [u32::MAX, u32::MAX],
                stamp: [u64::MAX; NUM_RESOURCES],
            },
        ];
        let capacity = [12, 8];
        let mut backend = FairShare::new();
        let mut targets = Vec::new();
        backend.allocate(&capacity, &demands, &mut targets);
        for r in 0..NUM_RESOURCES {
            let inputs: Vec<ShareInput> = demands
                .iter()
                .map(|d| ShareInput {
                    weight: d.weight,
                    demand: d.demand[r],
                    min_share: d.min_share[r],
                    max_share: d.max_share[r],
                })
                .collect();
            let expect = fair_targets(capacity[r], &inputs);
            let got: Vec<u32> = targets.iter().map(|t| t[r]).collect();
            assert_eq!(got, expect, "pool {r}");
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        fn arb_inputs() -> impl Strategy<Value = (u32, Vec<ShareInput>)> {
            let tenant = (0.1_f64..10.0, 0u32..200, 0u32..50, 0u32..250).prop_map(
                |(weight, demand, min_share, max_raw)| ShareInput {
                    weight,
                    demand,
                    min_share: min_share.min(max_raw),
                    max_share: max_raw,
                },
            );
            (0u32..500, prop::collection::vec(tenant, 0..8))
        }

        proptest! {
            #[test]
            fn targets_within_bounds((capacity, inputs) in arb_inputs()) {
                let t = fair_targets(capacity, &inputs);
                prop_assert_eq!(t.len(), inputs.len());
                for (ti, inp) in t.iter().zip(&inputs) {
                    prop_assert!(*ti <= inp.effective_demand());
                }
            }

            #[test]
            fn work_conserving((capacity, inputs) in arb_inputs()) {
                let t = fair_targets(capacity, &inputs);
                let total: u64 = t.iter().map(|&v| v as u64).sum();
                let eff: u64 = inputs.iter().map(|i| i.effective_demand() as u64).sum();
                prop_assert_eq!(total, eff.min(capacity as u64));
            }

            #[test]
            fn min_shares_honoured_when_feasible((capacity, inputs) in arb_inputs()) {
                let t = fair_targets(capacity, &inputs);
                let want: u64 = inputs
                    .iter()
                    .map(|i| i.min_share.min(i.effective_demand()) as u64)
                    .sum();
                if want <= capacity as u64 {
                    for (ti, inp) in t.iter().zip(&inputs) {
                        prop_assert!(
                            *ti >= inp.min_share.min(inp.effective_demand()),
                            "target {} below guaranteed min {}",
                            ti, inp.min_share.min(inp.effective_demand())
                        );
                    }
                }
            }

            #[test]
            fn weight_proportionality_for_unsaturated_pairs(
                capacity in 10u32..400,
                w1 in 0.5f64..4.0,
                w2 in 0.5f64..4.0,
            ) {
                // Two tenants with unbounded demand: ratio of targets tracks
                // the weight ratio to within rounding.
                let t = fair_targets(
                    capacity,
                    &[ShareInput { weight: w1, demand: u32::MAX, min_share: 0, max_share: u32::MAX },
                      ShareInput { weight: w2, demand: u32::MAX, min_share: 0, max_share: u32::MAX }],
                );
                let expect1 = capacity as f64 * w1 / (w1 + w2);
                prop_assert!((t[0] as f64 - expect1).abs() <= 1.0);
                prop_assert_eq!(t[0] + t[1], capacity);
            }

            #[test]
            fn deterministic((capacity, inputs) in arb_inputs()) {
                prop_assert_eq!(fair_targets(capacity, &inputs), fair_targets(capacity, &inputs));
            }

            #[test]
            fn reused_scratch_is_equivalent((capacity, inputs) in arb_inputs()) {
                // The perf-restructured entry point (scratch reuse) is
                // observationally identical to the pure function, even after
                // the scratch has been dirtied by an unrelated call.
                let mut backend = FairShare::new();
                let mut out = Vec::new();
                backend.fair_targets_into(
                    97,
                    &[ShareInput { weight: 3.0, demand: 41, min_share: 7, max_share: 100 }],
                    &mut out,
                );
                backend.fair_targets_into(capacity, &inputs, &mut out);
                prop_assert_eq!(out, fair_targets(capacity, &inputs));
            }
        }
    }
}
