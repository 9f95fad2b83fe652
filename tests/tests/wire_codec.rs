//! Wire-codec equivalence: the binary framing introduced for the pipelined
//! data plane must carry exactly the same messages as the legacy JSONL
//! codec.
//!
//! Both codecs are faithful encodings of the serde shim's `Value` tree, so
//! the suite checks (a) binary round-trips are identity on arbitrary trees,
//! (b) every concrete `Request`/`Response` variant survives both codecs and
//! decodes to the same message either way, and (c) framing reassembles
//! pipelined streams byte-for-byte under arbitrary fragmentation.

use bytes::BytesMut;
use proptest::prelude::*;
use serde::{Serialize, Value};
use std::sync::Arc;
use tempo_serve::codec::{
    decode_binary, decode_snapshot, decode_value, encode_binary, encode_frame, encode_snapshot,
    encode_value, take_frame,
};
use tempo_serve::demo::{contention_burst, contention_spec};
use tempo_serve::proto::{decode, encode, Request, Response};
use tempo_serve::{BackpressurePolicy, ControllerRuntime, IngestBudget, SimClock, PROTO_VERSION};
use tempo_workload::time::{MIN, SEC};
use tempo_workload::trace::{JobSpec, TaskSpec};

fn binary_roundtrip_value(v: &Value) -> Value {
    let mut buf = BytesMut::new();
    encode_value(v, &mut buf);
    let mut slice: &[u8] = &buf;
    let back = decode_value(&mut slice).expect("binary decode");
    assert!(slice.is_empty(), "whole encoding consumed");
    back
}

/// Strings over an alphabet chosen to stress JSON escaping (quotes,
/// backslashes, control characters, multi-byte UTF-8).
fn string_strategy() -> impl Strategy<Value = String> {
    const ALPHABET: &[char] =
        &['a', 'Z', '0', ' ', '_', '-', ':', '"', '\\', '\n', '\t', 'é', 'λ', '軽'];
    prop::collection::vec(0usize..ALPHABET.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// JSON text cannot distinguish a non-negative `I64` from a `U64`; fold the
/// former into the latter so binary decodes can be compared against text
/// decodes.
fn jsonl_normal_form(v: Value) -> Value {
    match v {
        Value::I64(x) if x >= 0 => Value::U64(x as u64),
        Value::Seq(items) => Value::Seq(items.into_iter().map(jsonl_normal_form).collect()),
        Value::Map(entries) => {
            Value::Map(entries.into_iter().map(|(k, v)| (k, jsonl_normal_form(v))).collect())
        }
        other => other,
    }
}

/// Arbitrary `Value` trees (floats kept finite so derived equality and the
/// JSON text form are both well-defined; exact NaN-bit preservation has its
/// own dedicated test in the codec module).
fn value_strategy() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(Value::U64),
        any::<i64>().prop_map(Value::I64),
        any::<f64>().prop_map(|x| Value::F64(if x.is_finite() { x } else { 0.0 })),
        string_strategy().prop_map(Value::Str),
    ];
    leaf.prop_recursive(3, 32, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..6).prop_map(Value::Seq),
            prop::collection::vec((string_strategy(), inner), 0..6).prop_map(Value::Map),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Binary encode→decode is identity on arbitrary value trees.
    #[test]
    fn binary_value_roundtrip_is_identity(v in value_strategy()) {
        prop_assert_eq!(binary_roundtrip_value(&v), v);
    }

    /// Both codecs agree: a tree pushed through JSON text and through the
    /// binary encoding decodes to the same tree. JSON text carries no sign
    /// tag, so a non-negative `I64` reads back as `U64`; agreement is checked
    /// in that normal form (the binary codec preserves the exact variant).
    #[test]
    fn binary_and_jsonl_decode_agree(v in value_strategy()) {
        let json = serde_json::to_string(&v).expect("to json");
        let from_json: Value = serde_json::from_str(&json).expect("from json");
        prop_assert_eq!(jsonl_normal_form(binary_roundtrip_value(&v)), from_json);
    }

    /// Frames reassemble exactly however the stream is fragmented.
    #[test]
    fn frames_survive_arbitrary_fragmentation(
        messages in prop::collection::vec((any::<u64>(), value_strategy()), 1..5),
        chunk_len in 1usize..64,
    ) {
        let mut wire = BytesMut::new();
        for (corr, v) in &messages {
            encode_frame(*corr, v, &mut wire);
        }
        let mut pending = Vec::new();
        let mut seen = Vec::new();
        for chunk in wire.chunks(chunk_len) {
            pending.extend_from_slice(chunk);
            while let Some((corr, body)) = take_frame(&mut pending).expect("frame") {
                seen.push((corr, decode_binary::<Value>(&body).expect("decode")));
            }
        }
        prop_assert!(pending.is_empty());
        prop_assert_eq!(seen, messages);
    }
}

/// A burst with every job feature exercised (deadlines, both tenants,
/// map+reduce stages).
fn rich_jobs() -> Vec<JobSpec> {
    let mut jobs = contention_burst(0, 4, 9);
    jobs.push(
        JobSpec::new(7, 1, 3 * MIN, vec![TaskSpec::map(SEC), TaskSpec::reduce(2 * SEC)])
            .with_deadline(9 * MIN),
    );
    jobs
}

/// Every `Request` variant, populated with realistic payloads.
fn all_requests(snapshot: tempo_serve::runtime::RuntimeSnapshot) -> Vec<Request> {
    vec![
        Request::Hello,
        Request::CreateDomain {
            spec: contention_spec("codec", 5).with_ingest_budget(IngestBudget::shed(16)),
        },
        Request::CreateDomain {
            spec: contention_spec("codec-delay", 6).with_ingest_budget(IngestBudget::delay(8)),
        },
        Request::Ingest { domain: 3, jobs: rich_jobs() },
        Request::Advance { domain: 3, steps: 2 },
        Request::IngestAdvance { domain: 3, jobs: rich_jobs(), steps: 1 },
        Request::AdvanceAll,
        Request::Config { domain: 0 },
        Request::Metrics,
        Request::Snapshot,
        Request::Restore { snapshot },
        Request::Tick { micros: 1_000_000 },
        Request::Hibernate { domain: 3 },
        Request::Migrate { domain: 3, shard: 1 },
        Request::Rebalance,
        Request::Shutdown,
    ]
}

/// Every `Response` variant, populated from a real runtime run (decision
/// records, metrics, and snapshots — the deep payloads).
fn all_responses() -> Vec<Response> {
    let clock = Arc::new(SimClock::new());
    let runtime = ControllerRuntime::new(2, Arc::<SimClock>::clone(&clock));
    let spec = contention_spec("codec-live", 17).with_ingest_budget(IngestBudget::delay(64));
    let id = runtime.create_domain(spec).expect("create");
    runtime.ingest(id, contention_burst(0, 6, 3)).expect("ingest");
    let rec = runtime.advance(id).expect("advance");
    let metrics = runtime.metrics();
    let snapshot = runtime.snapshot();
    let config = runtime.current_config(id).expect("config");
    runtime.shutdown();
    vec![
        Response::Hello { proto: PROTO_VERSION, shards: 2, domains: 1, clock: "sim".into() },
        Response::Created { domain: id },
        Response::Ingested { domain: id, accepted: 6 },
        Response::Busy { domain: id, retry_after_micros: 123_456 },
        Response::Advanced { domain: id, decisions: vec![rec.clone()] },
        Response::IngestAdvanced {
            domain: id,
            accepted: 6,
            retry_after_micros: None,
            decisions: vec![rec.clone()],
        },
        Response::IngestAdvanced {
            domain: id,
            accepted: 0,
            retry_after_micros: Some(42),
            decisions: vec![rec.clone()],
        },
        Response::AdvancedAll { decisions: vec![(id, rec)] },
        Response::Config { domain: id, config },
        Response::Metrics { metrics },
        Response::Snapshot { snapshot: snapshot.clone() },
        Response::Restored { domains: vec![id] },
        Response::Ticked { now: 5 * MIN },
        Response::Hibernated { domain: id, was_resident: true },
        Response::Migrated { domain: id, shard: 1, moved: true },
        Response::Rebalanced { moves: vec![(id, 0, 1)] },
        Response::ShuttingDown,
        Response::Error { message: "unknown domain 9".into() },
    ]
}

fn assert_both_codecs_roundtrip<T>(msg: &T)
where
    T: Serialize + serde::Deserialize + PartialEq + std::fmt::Debug,
{
    // Binary identity.
    let mut buf = BytesMut::new();
    encode_binary(msg, &mut buf);
    let from_binary: T = decode_binary(&buf).expect("binary decode");
    assert_eq!(&from_binary, msg, "binary round trip");
    // JSONL identity.
    let from_json: T = decode(&encode(msg)).expect("jsonl decode");
    assert_eq!(&from_json, msg, "jsonl round trip");
    // Agreement: both decodes name the same message.
    assert_eq!(from_binary, from_json, "codecs disagree");
}

#[test]
fn every_request_variant_survives_both_codecs() {
    // A real snapshot (optimizer history included) is the deepest payload the
    // protocol carries; build one for the Restore variant.
    let clock = Arc::new(SimClock::new());
    let runtime = ControllerRuntime::new(1, Arc::<SimClock>::clone(&clock));
    let id = runtime.create_domain(contention_spec("snap", 21)).expect("create");
    runtime.ingest(id, contention_burst(0, 5, 2)).expect("ingest");
    runtime.advance(id).expect("advance");
    let snapshot = runtime.snapshot();
    runtime.shutdown();

    for request in all_requests(snapshot) {
        assert_both_codecs_roundtrip(&request);
    }
}

#[test]
fn every_response_variant_survives_both_codecs() {
    for response in all_responses() {
        assert_both_codecs_roundtrip(&response);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Hibernation snapshots ride the binary codec: for arbitrary warm
    /// domains, `encode_snapshot`/`decode_snapshot` must be identity, must
    /// name exactly the message the JSONL codec names, and must be
    /// strictly smaller than the JSONL text — the size win that makes
    /// hibernating a million-domain cold tail worthwhile.
    #[test]
    fn hibernation_snapshots_agree_across_codecs_and_shrink(
        seed in 0u64..200,
        burst_len in 3u64..8,
        steps in 1usize..4,
    ) {
        let clock = Arc::new(SimClock::new());
        let runtime = ControllerRuntime::new(1, Arc::<SimClock>::clone(&clock));
        let id = runtime.create_domain(contention_spec("hib-codec", seed)).expect("create");
        for phase in 0..steps as u64 {
            runtime
                .ingest(id, contention_burst(phase * MIN, burst_len, seed ^ phase))
                .expect("ingest");
            runtime.advance(id).expect("advance");
            clock.advance(MIN);
        }
        let snapshot = runtime.snapshot();
        runtime.shutdown();
        let ds = &snapshot.domains[0];

        let bytes = encode_snapshot(ds);
        let back = decode_snapshot(&bytes).expect("binary snapshot decode");
        prop_assert_eq!(&back, ds, "binary snapshot round trip");

        let json = encode(ds);
        let from_json: tempo_serve::domain::DomainSnapshot =
            decode(&json).expect("jsonl snapshot decode");
        prop_assert_eq!(&from_json, ds, "jsonl snapshot round trip");

        prop_assert!(
            bytes.len() < json.len(),
            "binary snapshot ({} bytes) should undercut JSONL ({} bytes)",
            bytes.len(),
            json.len()
        );
    }
}

#[test]
fn budget_policies_survive_the_wire_inside_specs() {
    for policy in [BackpressurePolicy::Shed, BackpressurePolicy::Delay] {
        let spec = contention_spec("p", 1)
            .with_ingest_budget(IngestBudget { jobs_per_window: 32, policy });
        let mut buf = BytesMut::new();
        encode_binary(&spec, &mut buf);
        let back: tempo_serve::DomainSpec = decode_binary(&buf).expect("decode");
        assert_eq!(back.ingest_budget, Some(IngestBudget { jobs_per_window: 32, policy }));
    }
    // Pre-budget wire specs (no `ingest_budget` key) decode as unbudgeted —
    // the compatibility contract for old snapshots and clients.
    let legacy = contention_spec("legacy", 1);
    let json = encode(&legacy);
    assert!(!json.contains("ingest_budget") || json.contains("\"ingest_budget\":null"));
    let back: tempo_serve::DomainSpec = decode(&json).expect("decode legacy");
    assert_eq!(back.ingest_budget, None);
}

/// Feeds `bytes` through every decode surface a peer can reach: the frame
/// splitter, the typed binary decoders, the versioned snapshot decoder, and
/// the JSONL line decoder. Every one must return `Err` or `Ok` — a panic
/// here is a remote crash vector.
fn exercise_decoders(bytes: &[u8]) {
    let mut pending = bytes.to_vec();
    while let Ok(Some((_, body))) = take_frame(&mut pending) {
        let _ = decode_binary::<Value>(&body);
        let _ = decode_binary::<Request>(&body);
        let _ = decode_binary::<Response>(&body);
    }
    let _ = decode_binary::<Value>(bytes);
    let _ = decode_binary::<Request>(bytes);
    let _ = decode_binary::<Response>(bytes);
    let _ = decode_snapshot(bytes);
    let _ = decode::<Request>(&String::from_utf8_lossy(bytes));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Defensive decode: a well-formed frame with a handful of byte flips
    /// and an arbitrary truncation point must never panic a decoder —
    /// corruption is an `Err`, full stop.
    #[test]
    fn mutated_frames_never_panic_the_decoders(
        v in value_strategy(),
        corr in any::<u64>(),
        flips in prop::collection::vec((0usize..1_000_000, 1u8..=255), 1..6),
        cut in 0usize..1_000_000,
    ) {
        let mut wire = BytesMut::new();
        encode_frame(corr, &v, &mut wire);
        let mut bytes = wire.to_vec();
        for (idx, mask) in flips {
            let i = idx % bytes.len();
            bytes[i] ^= mask;
        }
        bytes.truncate(cut % (bytes.len() + 1));
        exercise_decoders(&bytes);
    }

    /// Pure noise — including length prefixes that claim absurd sizes — is
    /// rejected without panicking or preallocating unbounded memory.
    #[test]
    fn random_bytes_never_panic_the_decoders(
        bytes in prop::collection::vec(any::<u8>(), 0..256),
    ) {
        exercise_decoders(&bytes);
    }
}

#[test]
fn snapshot_headers_reject_forward_versions() {
    let clock = Arc::new(SimClock::new());
    let runtime = ControllerRuntime::new(1, Arc::<SimClock>::clone(&clock));
    let id = runtime.create_domain(contention_spec("ver", 3)).expect("create");
    runtime.ingest(id, contention_burst(0, 3, 1)).expect("ingest");
    let snapshot = runtime.snapshot();
    runtime.shutdown();
    let bytes = encode_snapshot(&snapshot.domains[0]);

    // A snapshot stamped by a future release must be refused with an error
    // that names the version problem, not misdecoded as garbage.
    let mut future = bytes.clone();
    future[1] = future[1].wrapping_add(1);
    let err = decode_snapshot(&future).expect_err("future version accepted");
    assert!(err.contains("version"), "unhelpful version error: {err}");

    let mut bad_magic = bytes.clone();
    bad_magic[0] ^= 0xFF;
    assert!(decode_snapshot(&bad_magic).is_err(), "bad magic accepted");
    assert!(decode_snapshot(&bytes[..1]).is_err(), "truncated header accepted");
    assert!(decode_snapshot(&[]).is_err(), "empty snapshot accepted");

    // The current stamp still round-trips.
    assert!(decode_snapshot(&bytes).is_ok());
}
