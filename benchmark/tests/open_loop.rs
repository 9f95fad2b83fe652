//! The open-loop sender against a stub server that answers nothing until it
//! has received every request: a sender that waited for a reply would never
//! finish. Alone in its test binary so that no other test competes for the
//! two cores while send lateness is measured.

use std::io::{Read, Write};
use std::net::TcpListener;
use tempo_benchmark::gen::{encode_frames, Step, StepKind};
use tempo_benchmark::load::drive_paced;
use tempo_benchmark::stats::{quantile, sorted};
use tempo_benchmark::wire::Wire;
use tempo_serve::proto::Request;

const REQUESTS: usize = 400;
const INTERVAL_US: u64 = 1_000;

#[test]
fn sends_keep_their_schedule_and_never_wait_for_replies() {
    let steps: Vec<Step> = (0..REQUESTS)
        .map(|i| Step { kind: StepKind::Config, request: Request::Config { domain: i as u64 } })
        .collect();
    let frames = encode_frames(&steps, 0);
    let expected: usize = frames.iter().map(Vec::len).sum();
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();

    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let mut negotiation = [0u8; 2];
        stream.read_exact(&mut negotiation).unwrap();
        // Every request, to the last byte, before the first reply.
        let mut received = vec![0u8; expected];
        stream.read_exact(&mut received).unwrap();
        // Echo: each request frame is a well-formed frame with its own id.
        stream.write_all(&received).unwrap();
    });

    let mut wire = Wire::connect(addr).unwrap();
    let due_us: Vec<u64> = (1..=REQUESTS as u64).map(|i| i * INTERVAL_US).collect();
    let driven = drive_paced(&mut wire, &steps, &frames, 0, &due_us, |_, _| {});
    server.join().unwrap();

    assert_eq!(driven.error, None);
    assert!(driven.replies.iter().all(Option::is_some), "every request was answered");
    assert_eq!(driven.lag_us.len(), REQUESTS);
    let lag_p99 = quantile(&sorted(driven.lag_us.clone()), 0.99);
    assert!(lag_p99 < 200.0, "loadgen.lag_p99_us = {lag_p99:.1}, want below 200");
    // Replies came only after the last send, so latency from the due time is
    // at least the remaining schedule for the early requests.
    let first = driven.replies[0].as_ref().unwrap();
    assert!(first.latency_us() >= ((REQUESTS as u64 - 1) * INTERVAL_US) as f64 * 0.99);
}
