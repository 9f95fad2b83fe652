//! The event queue's contract with the engine: entries leave in exactly
//! `(time, insertion-seq)` order on *any* event sequence, only ever at the
//! clock, and the engine built on it must stay deterministic — including
//! across scratch-pool reuse and serde — on schedules engineered to stress
//! the queue (same-instant bursts, preemption storms, far-future tails,
//! push/pop churn). Job arrivals never enter the queue — the engine walks
//! them from the prepared window's submit-ordered list — and must still be
//! handled as if they had been pushed first.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tempo_sim::{
    simulate, simulate_pooled, ClusterSpec, EventQueue, NoiseModel, PreparedWindow, RmConfig,
    Schedule, SimOptions, SimPool, TenantConfig,
};
use tempo_workload::time::{Time, MIN, SEC};
use tempo_workload::trace::{JobSpec, TaskSpec, Trace};

/// Removes the earliest entry the way the engine does: move the clock to
/// its time, then drain at the clock.
fn pop(q: &mut EventQueue<u64>) -> Option<(Time, u64)> {
    let time = q.next_time()?;
    q.advance_to(time);
    let item = q.pop_at(time).expect("the earliest entry sits at the clock");
    Some((time, item))
}

/// Replays a (push | pop)* script against both the event queue and a
/// `BinaryHeap<Reverse<(time, seq)>>` model, asserting identical pop
/// sequences.
fn pin_against_heap(script: impl IntoIterator<Item = Option<Time>>) {
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut heap: BinaryHeap<Reverse<(Time, u64)>> = BinaryHeap::new();
    let mut seq = 0u64;
    let mut clock: Time = 0;
    for op in script {
        match op {
            Some(offset) => {
                // The engine never schedules into the past: all pushes land
                // at or after the last popped time.
                let t = clock + offset;
                q.push(t, seq);
                heap.push(Reverse((t, seq)));
                seq += 1;
            }
            None => {
                let expect = heap.pop().map(|Reverse((t, s))| (t, s));
                assert_eq!(pop(&mut q), expect, "pop diverged from the model");
                if let Some((t, _)) = expect {
                    clock = t;
                }
            }
        }
        assert_eq!(q.len(), heap.len());
    }
    while let Some(Reverse((t, s))) = heap.pop() {
        assert_eq!(pop(&mut q), Some((t, s)));
    }
    assert!(q.next_time().is_none());
    assert!(q.is_empty());
}

#[test]
fn equal_time_storm_pops_in_insertion_order() {
    // 200 events at one instant, interleaved with drains — the job-arrival
    // burst shape.
    let mut script = Vec::new();
    for _ in 0..200 {
        script.push(Some(0));
    }
    for _ in 0..150 {
        script.push(None);
    }
    for _ in 0..50 {
        script.push(Some(0));
    }
    pin_against_heap(script);
}

#[test]
fn adversarial_mixed_offsets_match_heap() {
    // Deterministic pseudo-random mix of dense offsets, zero offsets, and
    // far-future spikes, with pops woven through.
    let mut state = 0x9E3779B97F4A7C15u64;
    let mut step = || {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        state >> 33
    };
    let mut script = Vec::new();
    for round in 0..4000u64 {
        let r = step();
        if round % 5 == 4 {
            script.push(None);
        } else {
            let offset = match r % 7 {
                0 => 0,                     // same-instant burst
                1..=4 => r % 3_000_000,     // dense near-term events
                5 => 30 * 60 * 1_000_000,   // half an hour out
                _ => 24 * 3600 * 1_000_000, // a day out
            };
            script.push(Some(offset));
        }
    }
    for _ in 0..4000 {
        script.push(None);
    }
    pin_against_heap(script);
}

#[test]
fn power_of_two_offsets_and_far_future_tails_stay_ordered() {
    // Offsets that are multiples of large powers of two, each paired with a
    // same-instant entry, under one entry a simulated year out.
    const YEAR: Time = 365 * 24 * 3600 * 1_000_000;
    let mut script = vec![Some(YEAR)];
    for i in 0..64u64 {
        script.push(Some((64 - i) * (1 << 24)));
        script.push(Some(0));
    }
    for _ in 0..129 {
        script.push(None);
    }
    pin_against_heap(script);
}

#[test]
fn interleaved_push_pop_churn_matches_heap() {
    // Two pushes per pop, then the reverse, repeatedly: the heap grows to a
    // few hundred entries and drains to empty several times over.
    let mut state = 0x12345u64;
    let mut script = Vec::new();
    for phase in 0..6u64 {
        for round in 0..600u64 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let push = if phase % 2 == 0 { round % 3 != 2 } else { round % 3 == 2 };
            script.push(push.then_some((state >> 40) % 5_000_000));
        }
    }
    pin_against_heap(script);
}

#[test]
fn pop_at_returns_only_entries_at_the_clock() {
    let mut q: EventQueue<u64> = EventQueue::new();
    for (seq, t) in [10, 10, 11, 10].into_iter().enumerate() {
        q.push(t, seq as u64);
    }
    q.advance_to(10);
    assert_eq!(q.pop_at(10), Some(0));
    assert_eq!(q.pop_at(10), Some(1));
    assert_eq!(q.pop_at(10), Some(3));
    assert_eq!(q.pop_at(10), None, "the entry at 11 is not at the clock");
    assert_eq!(q.next_time(), Some(11));
    // The clock may move to an instant with no entry of its own (a job
    // arrival's): nothing pops there.
    q.push(20, 4);
    q.advance_to(11);
    assert_eq!(q.pop_at(11), Some(2));
    q.advance_to(15);
    assert_eq!(q.pop_at(15), None);
    assert_eq!(q.next_time(), Some(20));
}

#[test]
#[should_panic(expected = "pushed into the past")]
fn pushing_behind_the_clock_panics_in_every_build() {
    let mut q: EventQueue<u64> = EventQueue::new();
    q.push(5, 0);
    q.advance_to(5);
    q.pop_at(5);
    q.push(4, 1);
}

#[test]
#[should_panic(expected = "off the clock")]
fn popping_off_the_clock_panics_in_every_build() {
    let mut q: EventQueue<u64> = EventQueue::new();
    q.push(5, 0);
    q.push(9, 1);
    q.advance_to(5);
    q.pop_at(9);
}

#[test]
#[should_panic(expected = "skips a pending entry")]
fn moving_the_clock_past_a_pending_entry_panics() {
    let mut q: EventQueue<u64> = EventQueue::new();
    q.push(5, 0);
    q.advance_to(6);
}

// ---------------------------------------------------------------------------
// The arrival cursor
// ---------------------------------------------------------------------------

/// Jobs in *unsorted* submit order with ties; three tenants, and task
/// finishes that land exactly on later arrivals' instants (0 s + 30 s and
/// 10 s + 20 s both meet the three arrivals at 30 s).
fn unsorted_trace() -> Trace {
    let job = |id: u64, tenant: u16, submit: Time, maps: &[Time]| {
        JobSpec::new(id, tenant, submit, maps.iter().map(|&d| TaskSpec::map(d)).collect())
    };
    Trace::new(vec![
        job(0, 0, 30 * SEC, &[10 * SEC, 10 * SEC]),
        job(1, 1, 10 * SEC, &[20 * SEC]),
        job(2, 0, 0, &[30 * SEC, 30 * SEC, 45 * SEC]),
        job(3, 1, 30 * SEC, &[5 * SEC]),
        job(4, 2, 10 * SEC, &[20 * SEC, 50 * SEC]),
        job(5, 0, 30 * SEC, &[15 * SEC]),
        job(6, 2, 0, &[30 * SEC]),
    ])
}

#[test]
fn unsorted_traces_run_as_if_sorted_by_submit_then_index() {
    // A queue that is handed arrivals first, in trace order, pops them by
    // `(submit, trace index)`. Sorting the trace that way beforehand must
    // therefore change nothing but the row order of the schedule: every job
    // and task keeps its times.
    let trace = unsorted_trace();
    let mut sorted = trace.clone();
    sorted.sort_by_submit();
    assert_ne!(trace, sorted);
    let cluster = ClusterSpec::new(3, 1);
    let config = RmConfig::new(vec![
        TenantConfig::fair_default(),
        TenantConfig::fair_default().with_min_share(1, 0).with_min_timeout(15 * SEC),
        TenantConfig::fair_default().with_weight(2.0),
    ]);
    for opts in
        [SimOptions::default(), SimOptions::noisy(5), SimOptions::default().with_horizon(MIN)]
    {
        let a = simulate(&trace, &cluster, &config, &opts);
        let b = simulate(&sorted, &cluster, &config, &opts);
        assert_eq!(a.horizon(), b.horizon());
        let rows = |s: &Schedule| {
            let mut jobs: Vec<_> = s.jobs().collect();
            jobs.sort_by_key(|j| j.id);
            let mut tasks = s.to_task_records();
            tasks.sort_by_key(|t| t.job);
            (jobs, tasks)
        };
        assert_eq!(rows(&a), rows(&b));
    }
}

#[test]
fn arrivals_precede_task_finishes_at_their_instant() {
    // Job 0's only map finishes at 30 s, releasing its reduce; job 1 has no
    // maps and arrives at 30 s, releasing its reduce on arrival. Both land
    // in tenant 0's reduce queue at 30 s, in the order they were handled:
    // the arrival first, although the finish was scheduled long before.
    let trace = Trace::new(vec![
        JobSpec::new(0, 0, 0, vec![TaskSpec::map(30 * SEC), TaskSpec::reduce(10 * SEC)]),
        JobSpec::new(1, 0, 30 * SEC, vec![TaskSpec::reduce(20 * SEC)]),
    ]);
    let sched =
        simulate(&trace, &ClusterSpec::new(1, 1), &RmConfig::fair(1), &SimOptions::default());
    assert_eq!(sched.job(1).finish, Some(50 * SEC), "the arrival's reduce runs first");
    assert_eq!(sched.job(0).finish, Some(60 * SEC));
}

#[test]
fn arrivals_precede_preemption_checks_at_their_instant() {
    // Tenant 0 holds all four slots; tenant 1 arrives at 10 s and starves
    // below its fair share (2 of 4) until its 20 s timeout fires at 30 s —
    // the instant tenant 2 arrives with demand of its own. The check
    // recomputes fair shares from live demand: with tenant 2 counted they
    // are 2/1/1, so one task is killed, not two.
    let maps = |n: usize| vec![TaskSpec::map(100 * SEC); n];
    let trace = Trace::new(vec![
        JobSpec::new(0, 2, 30 * SEC, maps(4)),
        JobSpec::new(1, 0, 0, maps(4)),
        JobSpec::new(2, 1, 10 * SEC, maps(4)),
    ]);
    let config = RmConfig::new(vec![
        TenantConfig::fair_default(),
        TenantConfig::fair_default().with_fair_timeout(20 * SEC),
        TenantConfig::fair_default(),
    ]);
    let sched = simulate(&trace, &ClusterSpec::new(4, 1), &config, &SimOptions::default());
    let killed_at_30 = sched
        .tasks()
        .filter(|t| t.attempts.iter().any(|a| a.end == 30 * SEC && t.was_preempted()))
        .count();
    assert_eq!(killed_at_30, 1, "tenant 2's arrival was counted before the check ran");
}

#[test]
fn same_instant_arrivals_queue_in_trace_index_order() {
    // One slot, one tenant: tasks launch in queue order, which is arrival
    // order. Jobs 0, 3 and 5 all arrive at 30 s (trace indices 0 < 3 < 5)
    // behind the tasks of job 2 (0 s) and jobs 1, 4 (10 s, indices 1 < 4).
    let mut trace = unsorted_trace();
    for job in &mut trace.jobs {
        job.tenant = 0;
    }
    let cluster = ClusterSpec::new(1, 1);
    let sched = simulate(&trace, &cluster, &RmConfig::fair(1), &SimOptions::default());
    let mut launches: Vec<(Time, u64)> =
        sched.tasks().map(|t| (t.attempts[0].launch, t.job)).collect();
    launches.sort_unstable();
    let order: Vec<u64> = launches.into_iter().map(|(_, job)| job).collect();
    assert_eq!(order, vec![2, 2, 2, 6, 1, 4, 4, 0, 0, 3, 5]);
}

#[test]
fn prepared_window_counts_what_the_trace_holds() {
    let window = PreparedWindow::new(&unsorted_trace()).unwrap();
    assert_eq!(window.num_jobs(), 7);
    assert_eq!(window.num_tasks(), 11);
    let mut dup = unsorted_trace();
    dup.jobs[3].id = 0;
    assert!(PreparedWindow::new(&dup).is_err(), "preparing validates the trace");
}

/// Preemption-heavy, burst-heavy trace: many same-instant arrivals, two
/// starvation timeouts firing, reduce barriers, and noise-driven retries.
fn stress_trace() -> Trace {
    let mut jobs = Vec::new();
    let mut id = 0u64;
    // Same-instant burst of map+reduce jobs from three tenants.
    for wave in 0..4u64 {
        for tenant in 0..3u16 {
            for _ in 0..3 {
                jobs.push(JobSpec::new(
                    id,
                    tenant,
                    wave * 2 * MIN,
                    vec![
                        TaskSpec::map(40 * SEC),
                        TaskSpec::map(70 * SEC),
                        TaskSpec::reduce(50 * SEC),
                    ],
                ));
                id += 1;
            }
        }
    }
    // A long-task tenant to preempt.
    jobs.push(JobSpec::new(id, 0, 0, vec![TaskSpec::map(20 * MIN); 6]));
    let mut t = Trace::new(jobs);
    t.sort_by_submit();
    t
}

fn stress_config() -> RmConfig {
    RmConfig::new(vec![
        TenantConfig::fair_default(),
        TenantConfig::fair_default().with_min_share(2, 1).with_min_timeout(15 * SEC),
        TenantConfig::fair_default().with_fair_timeout(30 * SEC).with_weight(2.0),
    ])
}

#[test]
fn engine_determinism_on_queue_stress_schedule() {
    let trace = stress_trace();
    let cluster = ClusterSpec::new(6, 3);
    let config = stress_config();
    for opts in [
        SimOptions::default(),
        SimOptions::default().with_horizon(7 * MIN),
        SimOptions { horizon: None, noise: NoiseModel::production(), seed: 23 },
    ] {
        let fresh_a = simulate_pooled(&trace, &cluster, &config, &opts, &mut SimPool::new());
        let fresh_b = simulate_pooled(&trace, &cluster, &config, &opts, &mut SimPool::new());
        assert_eq!(fresh_a, fresh_b, "fresh-pool runs diverged");
        // Pool reuse across differently-shaped runs must be invisible, and
        // the serde encoding (the figure/fixture format) must be stable.
        let pooled = simulate(&trace, &cluster, &config, &opts);
        assert_eq!(pooled, fresh_a, "thread-local pool reuse changed the schedule");
        assert_eq!(
            serde_json::to_string(&pooled).unwrap(),
            serde_json::to_string(&fresh_a).unwrap(),
            "serde encoding unstable"
        );
    }
}

#[test]
fn preemption_storm_is_pool_reuse_invariant() {
    // Alternate the stress schedule with a tiny trace through one pool so
    // stale queue/arena state from the big run would surface immediately.
    let big = stress_trace();
    let small = Trace::new(vec![JobSpec::new(0, 0, 0, vec![TaskSpec::map(10 * SEC)])]);
    let cluster = ClusterSpec::new(6, 3);
    let config = stress_config();
    let small_config = RmConfig::fair(1);
    let mut pool = SimPool::new();
    for _ in 0..3 {
        let a = simulate_pooled(&big, &cluster, &config, &SimOptions::default(), &mut pool);
        let fresh =
            simulate_pooled(&big, &cluster, &config, &SimOptions::default(), &mut SimPool::new());
        assert_eq!(a, fresh);
        let b = simulate_pooled(&small, &cluster, &small_config, &SimOptions::default(), &mut pool);
        assert_eq!(b.job(0).finish, Some(10 * SEC));
    }
}
