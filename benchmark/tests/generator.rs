//! Generator self-test: the request stream is a pure function of the seed.

use tempo_benchmark::gen::{encode_frames, plan, Plan, Step, StepKind, WORKLOADS};
use tempo_serve::proto::Request;

const SECONDS: u64 = 3;

fn stream(p: &Plan) -> Vec<&Step> {
    p.warmup.iter().chain(&p.measured).collect()
}

fn wire_bytes(p: &Plan) -> Vec<Vec<u8>> {
    let mut frames = encode_frames(&p.warmup, 0);
    frames.extend(encode_frames(&p.measured, 1 << 32));
    frames
}

fn tick_positions(p: &Plan) -> Vec<usize> {
    stream(p).iter().enumerate().filter(|(_, s)| s.kind == StepKind::Tick).map(|(i, _)| i).collect()
}

fn counts(p: &Plan) -> [usize; 4] {
    let mut n = [0; 4];
    for step in stream(p) {
        n[match step.kind {
            StepKind::Tick => 0,
            StepKind::Decision => 1,
            StepKind::Ingest => 2,
            StepKind::Config => 3,
        }] += 1;
    }
    n
}

fn jobs_of(p: &Plan) -> Vec<&tempo_workload::JobSpec> {
    stream(p)
        .iter()
        .flat_map(|s| match &s.request {
            Request::IngestAdvance { jobs, .. } | Request::Ingest { jobs, .. } => jobs.iter(),
            _ => [].iter(),
        })
        .collect()
}

#[test]
fn same_seed_gives_the_same_bytes_and_tick_positions() {
    for workload in WORKLOADS {
        let (a, b) = (plan(workload, 7, SECONDS).unwrap(), plan(workload, 7, SECONDS).unwrap());
        assert!(wire_bytes(&a) == wire_bytes(&b), "{workload}: request bytes differ");
        assert_eq!(tick_positions(&a), tick_positions(&b), "{workload}: tick positions differ");
        assert_eq!(a.specs, b.specs, "{workload}: domain specs differ");
        assert_eq!(a.drive, b.drive, "{workload}: drive differs");
    }
}

#[test]
fn another_seed_gives_other_jobs_but_the_same_counts() {
    for workload in WORKLOADS {
        let (a, b) = (plan(workload, 7, SECONDS).unwrap(), plan(workload, 8, SECONDS).unwrap());
        assert_ne!(jobs_of(&a), jobs_of(&b), "{workload}: the seed does not reach the jobs");
        assert_eq!(counts(&a), counts(&b), "{workload}: request counts differ between seeds");
        assert_eq!(tick_positions(&a), tick_positions(&b), "{workload}");
        assert_eq!(a.specs.len(), b.specs.len(), "{workload}");
    }
}

#[test]
fn paced_sends_the_requests_of_steady() {
    let (steady, paced) = (plan("steady", 3, SECONDS).unwrap(), plan("paced", 3, SECONDS).unwrap());
    assert_eq!(steady.warmup, paced.warmup);
    let n = steady.measured.len().min(paced.measured.len());
    assert!(n > 0);
    assert_eq!(steady.measured[..n], paced.measured[..n]);
}

#[test]
fn no_burst_falls_outside_the_window_it_is_tuned_on() {
    // A decision on an empty window is skipped; the plans must never make one.
    for workload in ["steady", "fleet-mix"] {
        let p = plan(workload, 5, SECONDS).unwrap();
        let mut now = 0u64;
        for step in stream(&p) {
            match &step.request {
                Request::Tick { micros } => now += micros,
                Request::IngestAdvance { jobs, domain, .. } => {
                    let window = p.specs[*domain as usize].window_len;
                    let start = now.max(window) - window;
                    assert!(
                        jobs.iter().any(|j| j.submit >= start && j.submit < now.max(window)),
                        "{workload}: burst at {now} misses its window"
                    );
                }
                _ => {}
            }
        }
    }
}
