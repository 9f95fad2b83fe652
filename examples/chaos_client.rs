//! `chaos_client` — the CI chaos smoke's deterministic driver.
//!
//! ```text
//! chaos_client prelude  HOST:PORT   # create domains 0-2, run fixed rounds
//! chaos_client digest   HOST:PORT   # print domains 0-2's exact state
//! chaos_client shutdown HOST:PORT   # ask the daemon to drain
//! ```
//!
//! The chaos smoke boots a journaled daemon under a connection-fault plan,
//! runs `prelude` (every call retried through injected drops and stalls —
//! safe, because connection faults fire *before* the handshake, so a
//! retried request is never double-executed) and `kill -9`s the daemon. A
//! restart on the same journal must then produce a `digest` byte-identical
//! to a clean daemon that ran the same prelude: the prelude domains' full
//! snapshots (ids 0-2). The serve smoke uses `prelude` and `shutdown` as
//! its JSONL driver.

use tempo_serve::demo::{contention_burst, contention_spec, DEMO_WINDOW};
use tempo_serve::proto::{encode, Request, Response};
use tempo_serve::{Client, Proto, RetryPolicy};

/// Domains the prelude creates and the digest covers.
const PRELUDE_DOMAINS: u64 = 3;
const PRELUDE_ROUNDS: u64 = 5;

fn connect(addr: &str) -> Client {
    let retry = RetryPolicy { max_attempts: 10, ..RetryPolicy::default() };
    Client::connect_retry(addr, Proto::Jsonl, retry).expect("connect to tempo-serve")
}

fn call(client: &mut Client, request: &Request) -> Response {
    match client.call(request).expect("call tempo-serve") {
        Response::Error { message } => panic!("request refused: {message}"),
        response => response,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mode, addr) = match &args[..] {
        [mode, addr] => (mode.as_str(), addr.as_str()),
        _ => {
            eprintln!("usage: chaos_client prelude|digest|shutdown HOST:PORT");
            std::process::exit(2);
        }
    };
    let mut client = connect(addr);
    match mode {
        "prelude" => {
            for i in 0..PRELUDE_DOMAINS {
                let spec = contention_spec(&format!("chaos-{i}"), i);
                match call(&mut client, &Request::CreateDomain { spec }) {
                    Response::Created { domain } => assert_eq!(
                        domain, i,
                        "prelude must run against a fresh daemon (domain ids drifted)"
                    ),
                    other => panic!("create failed: {other:?}"),
                }
            }
            for round in 0..PRELUDE_ROUNDS {
                let now = match call(&mut client, &Request::Tick { micros: DEMO_WINDOW / 4 }) {
                    Response::Ticked { now } => now,
                    other => panic!("tick failed: {other:?}"),
                };
                for id in 0..PRELUDE_DOMAINS {
                    let jobs =
                        contention_burst(now.saturating_sub(DEMO_WINDOW), 6, id * 31 + round);
                    call(&mut client, &Request::Ingest { domain: id, jobs });
                    call(&mut client, &Request::Advance { domain: id, steps: 1 });
                }
            }
            let stats = client.stats();
            eprintln!(
                "chaos_client: prelude done ({} attempts, {} retries, {} reconnects)",
                stats.attempts, stats.retries, stats.reconnects
            );
        }
        "digest" => {
            // Exact-state digest: the full serialized snapshot of each
            // prelude domain (warm caches, RNG odometers, PALD history —
            // everything). Printed as stable JSONL so CI can `diff` it.
            let snapshot = match call(&mut client, &Request::Snapshot) {
                Response::Snapshot { snapshot } => snapshot,
                other => panic!("snapshot failed: {other:?}"),
            };
            let mut covered = 0;
            for ds in snapshot.domains.iter().filter(|d| d.id < PRELUDE_DOMAINS) {
                println!("{}", encode(ds));
                covered += 1;
            }
            assert_eq!(covered, PRELUDE_DOMAINS, "prelude domains missing from the digest");
            for id in 0..PRELUDE_DOMAINS {
                match call(&mut client, &Request::Config { domain: id }) {
                    Response::Config { config, .. } => println!("{}", encode(&config)),
                    other => panic!("config {id} failed: {other:?}"),
                }
            }
        }
        "shutdown" => {
            assert!(matches!(call(&mut client, &Request::Shutdown), Response::ShuttingDown));
        }
        other => {
            eprintln!("unknown mode '{other}' (want prelude|digest|shutdown)");
            std::process::exit(2);
        }
    }
}
