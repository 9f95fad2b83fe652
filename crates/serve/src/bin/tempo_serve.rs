//! `tempo-serve` — the Tempo controller daemon.
//!
//! ```text
//! tempo-serve [--addr 127.0.0.1:7077] [--shards N] [--sim-clock]
//!             [--port-file FILE] [--resident-bytes N] [--idle-ticks N]
//!             [--journal DIR] [--journal-checkpoint N] [--fault-plan SPEC]
//!             [--metrics-port PORT] [--metrics-port-file FILE]
//! ```
//!
//! Hosts a sharded [`tempo_serve::ControllerRuntime`] behind the JSONL/TCP
//! protocol. An unknown flag, a flag with its value missing or a value that
//! does not parse prints the usage line and exits 2.
//! `--port-file` writes the bound port (useful with `--addr host:0`).
//! `--resident-bytes N` sets the fleet watermark: estimated resident bytes
//! stay under N by hibernating least-recently-touched domains to compact
//! binary snapshots (they rehydrate transparently on their next request).
//! `--idle-ticks N` additionally hibernates domains untouched for N
//! dispatch ticks on each `Tick` maintenance sweep.
//!
//! `--journal DIR` makes the daemon crash-only: every state-mutating
//! request is appended to a checksummed operations journal in DIR, a
//! checkpoint is cut every `--journal-checkpoint` ops (default 1024), and a
//! restart replays checkpoint + journal suffix to the exact pre-crash state
//! — `kill -9` is the supported shutdown path. A graceful exit cuts a final
//! checkpoint, so the next boot is warm and replays nothing: tuned
//! configurations, optimizer state, and What-if memo caches survive.
//! `--fault-plan SPEC`
//! (`seed=7,shard=0.001,journal=0.01,conn=0.05,stall=0.1,stall-ms=25`) arms
//! the deterministic fault injector for chaos testing.
//!
//! `--metrics-port PORT` serves the Prometheus text exposition at
//! `http://127.0.0.1:PORT/metrics` (port 0 picks an ephemeral port;
//! `--metrics-port-file` writes the bound port back). The same payload is
//! reachable in-band via the `Telemetry` wire request. Telemetry collection
//! is always on in the daemon.

use std::sync::Arc;
use tempo_serve::{ClockMode, FaultPlan, Server, ServerConfig};

const USAGE: &str = "usage: tempo-serve [--addr HOST:PORT] [--shards N] [--sim-clock] \
     [--port-file FILE] [--resident-bytes N] [--idle-ticks N] \
     [--journal DIR] [--journal-checkpoint N] [--fault-plan SPEC] \
     [--metrics-port PORT] [--metrics-port-file FILE]";

struct Args {
    config: ServerConfig,
    port_file: Option<String>,
    metrics_port_file: Option<String>,
}

/// Strict: an unknown argument, a value flag with nothing after it or a
/// value that does not parse is an error, never silently ignored (a
/// mistyped `--journal` must not boot a daemon with no durability).
fn parse_args(args: &[String]) -> Result<Args, String> {
    fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
        value.parse().map_err(|_| format!("{flag}: cannot parse {value:?}"))
    }
    let mut config = ServerConfig::default();
    let mut port_file = None;
    let mut metrics_port_file = None;
    let mut rest = args.iter();
    while let Some(flag) = rest.next() {
        let mut value = || rest.next().ok_or_else(|| format!("{flag} takes a value"));
        match flag.as_str() {
            "--sim-clock" => config.clock = ClockMode::Sim,
            "--addr" => config.addr = value()?.clone(),
            "--shards" => config.shards = number(flag, value()?)?,
            "--port-file" => port_file = Some(value()?.clone()),
            "--resident-bytes" => {
                config.fleet.resident_bytes_watermark = Some(number(flag, value()?)?);
            }
            "--idle-ticks" => config.fleet.idle_ticks = Some(number(flag, value()?)?),
            "--journal" => config.journal_dir = Some(value()?.into()),
            "--journal-checkpoint" => config.checkpoint_every = number(flag, value()?)?,
            "--fault-plan" => {
                let plan = FaultPlan::parse(value()?).map_err(|e| format!("--fault-plan: {e}"))?;
                eprintln!("tempo-serve: fault plan armed: {plan:?}");
                config.faults = Arc::new(plan);
            }
            "--metrics-port" => {
                let port: u16 = number(flag, value()?)?;
                config.metrics_addr = Some(format!("127.0.0.1:{port}"));
            }
            "--metrics-port-file" => metrics_port_file = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args { config, port_file, metrics_port_file })
}

fn main() {
    // The daemon always collects telemetry; embedded/library users opt in.
    tempo_obs::set_enabled(true);
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        eprintln!("{USAGE}");
        return;
    }
    let Args { config, port_file, metrics_port_file } = parse_args(&args).unwrap_or_else(|e| {
        eprintln!("tempo-serve: {e}\n{USAGE}");
        std::process::exit(2);
    });

    let server = Server::start(config).expect("bind tempo-serve listener");
    let addr = server.local_addr();
    if let Some(path) = &port_file {
        std::fs::write(path, format!("{}\n", addr.port())).expect("write port file");
    }
    if let Some(metrics_addr) = server.metrics_addr() {
        eprintln!("tempo-serve: metrics exposition on http://{metrics_addr}/metrics");
        if let Some(path) = &metrics_port_file {
            std::fs::write(path, format!("{}\n", metrics_addr.port()))
                .expect("write metrics port file");
        }
    }

    println!("tempo-serve listening on {addr}");
    let journal = server.journal().cloned();
    let runtime = server.join();

    // Graceful exit cuts a final checkpoint so the next boot replays
    // nothing. (A crash skips this — that's what the journal is for.)
    // Quiesced like every checkpoint: shard queues may still be draining
    // dispatched work, so the capture and the journal cut must share one
    // quiescent window.
    if let Some(journal) = &journal {
        let (snapshot, result) = runtime.quiesced_snapshot(|snapshot| {
            journal.write_checkpoint_with(snapshot, || runtime.clock().now())
        });
        match result {
            Ok(()) => eprintln!(
                "tempo-serve: final checkpoint ({} domain(s)) in {}",
                snapshot.domains.len(),
                journal.dir().display()
            ),
            Err(e) => eprintln!("tempo-serve: final checkpoint failed: {e}"),
        }
    }

    let metrics = runtime.metrics();
    eprintln!(
        "tempo-serve: drained cleanly ({} domains, {} decisions, {} jobs ingested)",
        metrics.domains, metrics.total_decisions, metrics.total_ingested
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let args: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&args)
    }

    #[test]
    fn the_argument_vector_the_benchmark_passes_is_accepted() {
        // benchmark/src/daemon.rs, fleet-mix: every flag it can pass.
        let args = parse(
            "--shards 1 --sim-clock --addr 127.0.0.1:0 --port-file /tmp/p --journal /tmp/j \
             --journal-checkpoint 4096 --resident-bytes 8388608",
        )
        .expect("benchmark argument vector");
        assert_eq!(args.config.shards, 1);
        assert!(matches!(args.config.clock, ClockMode::Sim));
        assert_eq!(args.config.addr, "127.0.0.1:0");
        assert_eq!(args.port_file.as_deref(), Some("/tmp/p"));
        assert_eq!(args.config.journal_dir.as_deref(), Some(std::path::Path::new("/tmp/j")));
        assert_eq!(args.config.checkpoint_every, 4096);
        assert_eq!(args.config.fleet.resident_bytes_watermark, Some(8_388_608));
        assert_eq!(args.metrics_port_file, None);
    }

    #[test]
    fn accepted_and_rejected_command_lines() {
        let cases: [(&str, Result<(), &str>); 12] = [
            ("", Ok(())),
            ("--metrics-port 0 --metrics-port-file m.port --idle-ticks 3", Ok(())),
            ("--fault-plan seed=1,conn=0.35,stall=0.2,stall-ms=10", Ok(())),
            ("--journl dir", Err("unknown argument \"--journl\"")),
            ("--bogus", Err("unknown argument \"--bogus\"")),
            ("stray", Err("unknown argument \"stray\"")),
            ("--snapshot state.json", Err("unknown argument \"--snapshot\"")),
            ("--journal", Err("--journal takes a value")),
            ("--sim-clock --addr", Err("--addr takes a value")),
            ("--shards two", Err("--shards: cannot parse \"two\"")),
            ("--metrics-port 70000", Err("--metrics-port: cannot parse \"70000\"")),
            ("--fault-plan conn=2", Err("--fault-plan: ")),
        ];
        for (line, want) in cases {
            match (parse(line), want) {
                (Ok(_), Ok(())) => {}
                (Err(got), Err(want)) => assert!(got.contains(want), "{line:?}: {got}"),
                (got, want) => panic!("{line:?}: got {:?}, want {want:?}", got.map(|_| ())),
            }
        }
    }
}
