//! The `tempo-serve` TCP server: negotiated JSONL or binary framing over
//! `std::net`.
//!
//! One accept thread, one handler thread per connection, all thin clients
//! of the shared [`ControllerRuntime`]. The first byte of a connection
//! picks the codec ([`codec::BINARY_PREFIX`] + version for binary frames,
//! anything else for legacy JSONL — raw `nc` sessions keep working).
//!
//! JSONL connections are strict request/response, served inline on the
//! handler thread with responses coalesced while more complete request
//! lines are already buffered. Binary connections are pipelined: the
//! handler thread decodes frames and fires domain-targeted operations at
//! the owning shards without waiting ([`ControllerRuntime::on_domain_async`]),
//! and a per-connection writer thread streams completions back tagged with
//! the request's correlation id — so responses may legally arrive out of
//! order while per-domain order is preserved.
//!
//! Graceful shutdown is cooperative: a `Shutdown` request (or
//! [`Server::request_shutdown`]) raises a flag, handler reads poll it via
//! short socket timeouts, and the accept loop is unblocked by a loopback
//! poke — every thread drains and joins before [`Server::join`] returns.

use crate::clock::{Clock, SimClock, WallClock};
use crate::codec::{self, BINARY_PREFIX, BINARY_VERSION};
use crate::domain::{Domain, IngestOutcome};
use crate::fault::{no_faults, FaultInjector};
use crate::fleet::FleetConfig;
use crate::proto::{decode, encode_line, Request, Response, PROTO_VERSION};
use crate::runtime::{push_trace, ControllerRuntime, DecisionTrace, RuntimeError};
use crate::wal::{self, Journal, JournalOp, JournalRecord};
use bytes::BytesMut;
use crossbeam::channel::{self, Receiver, Sender};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;
use tempo_obs::TraceRing;
use tempo_workload::time::Time;
use tempo_workload::JobSpec;

/// Step-count clamp for `Advance`/`IngestAdvance` requests.
const MAX_STEPS: u64 = 10_000;

mod obs {
    /// Wire latency histogram for one `(codec, op)` pair — dynamic labels,
    /// so this goes through the registry rather than the call-site-cached
    /// macro.
    pub(super) fn request_micros(codec: &'static str, op: &str) -> &'static tempo_obs::Histogram {
        tempo_obs::histogram(
            "tempo_request_duration_micros",
            "Wire request service time by codec and op",
            &[("codec", codec), ("op", op)],
        )
    }

    pub(super) fn conn_faults(kind: &'static str) -> &'static tempo_obs::Counter {
        tempo_obs::counter(
            "tempo_fault_injections_total",
            "Deterministic fault-injector firings by kind",
            &[("kind", kind)],
        )
    }
}

/// Stable label value for the request-latency histogram.
fn request_op_name(request: &Request) -> &'static str {
    match request {
        Request::Hello => "hello",
        Request::CreateDomain { .. } => "create_domain",
        Request::Ingest { .. } => "ingest",
        Request::Advance { .. } => "advance",
        Request::IngestAdvance { .. } => "ingest_advance",
        Request::AdvanceAll => "advance_all",
        Request::Config { .. } => "config",
        Request::Metrics => "metrics",
        Request::Snapshot => "snapshot",
        Request::Restore { .. } => "restore",
        Request::Tick { .. } => "tick",
        Request::Hibernate { .. } => "hibernate",
        Request::Migrate { .. } => "migrate",
        Request::Rebalance => "rebalance",
        Request::Telemetry => "telemetry",
        Request::TraceQuery { .. } => "trace_query",
        Request::Shutdown => "shutdown",
    }
}

/// How the server's runtime reads time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClockMode {
    /// Real time ([`WallClock`]).
    Wall,
    /// Simulated time, driven by `Tick` requests ([`SimClock`]) —
    /// deterministic replay mode.
    Sim,
}

/// Server settings.
#[derive(Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (read it back from
    /// [`Server::local_addr`]).
    pub addr: String,
    /// Shard worker threads.
    pub shards: usize,
    pub clock: ClockMode,
    /// Fleet-management policy (hibernation watermark, idle ticks,
    /// rebalance factor).
    pub fleet: FleetConfig,
    /// Directory for the durable operations journal. `None` = the
    /// pre-crash-only behavior: nothing survives a kill.
    pub journal_dir: Option<PathBuf>,
    /// Checkpoint (and truncate the journal) every this many journaled ops.
    pub checkpoint_every: u64,
    /// Fault injector threaded through the runtime's shard workers, the
    /// journal's appends, and the accept loop's connections.
    pub faults: Arc<dyn FaultInjector>,
    /// Bind address for the Prometheus exposition HTTP endpoint
    /// (`--metrics-port`); `None` disables it. Port 0 picks an ephemeral
    /// port (read it back from [`Server::metrics_addr`]).
    pub metrics_addr: Option<String>,
}

impl std::fmt::Debug for ServerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ServerConfig")
            .field("addr", &self.addr)
            .field("shards", &self.shards)
            .field("clock", &self.clock)
            .field("fleet", &self.fleet)
            .field("journal_dir", &self.journal_dir)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("metrics_addr", &self.metrics_addr)
            .finish_non_exhaustive()
    }
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7077".into(),
            shards: default_shards(),
            clock: ClockMode::Wall,
            fleet: FleetConfig::default(),
            journal_dir: None,
            checkpoint_every: 1024,
            faults: no_faults(),
            metrics_addr: None,
        }
    }
}

/// Default shard count: the machine's parallelism.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A running server. Dropping it without [`Server::join`] aborts less
/// gracefully (threads are detached); prefer `join`.
pub struct Server {
    runtime: Arc<ControllerRuntime>,
    journal: Option<Arc<Journal>>,
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
    metrics: Option<tempo_obs::MetricsServer>,
}

impl Server {
    /// Binds and starts serving in background threads.
    ///
    /// With a journal directory configured, recovery runs here — before the
    /// accept thread exists, so no request can observe a half-recovered
    /// runtime: the latest checkpoint is restored, a torn journal tail is
    /// truncated, and the surviving records replay at their recorded clock
    /// readings. Unrecoverable journal state (corrupt checkpoint, future
    /// format version) fails the start rather than serving wrong state.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let local_addr = listener.local_addr()?;
        let metrics = match &config.metrics_addr {
            Some(addr) => {
                let addr: SocketAddr = addr.parse().map_err(|e| {
                    std::io::Error::new(
                        ErrorKind::InvalidInput,
                        format!("bad metrics address {addr}: {e}"),
                    )
                })?;
                Some(tempo_obs::MetricsServer::start(addr)?)
            }
            None => None,
        };
        let fleet = config.fleet;
        let faults = Arc::clone(&config.faults);
        let (runtime, sim) = match config.clock {
            ClockMode::Wall => {
                let clock: Arc<dyn Clock> = Arc::new(WallClock::new());
                (
                    ControllerRuntime::with_fleet_faults(
                        config.shards,
                        clock,
                        fleet,
                        Arc::clone(&faults),
                    ),
                    None,
                )
            }
            ClockMode::Sim => {
                let sim = Arc::new(SimClock::new());
                let clock: Arc<dyn Clock> = Arc::<SimClock>::clone(&sim);
                (
                    ControllerRuntime::with_fleet_faults(
                        config.shards,
                        clock,
                        fleet,
                        Arc::clone(&faults),
                    ),
                    Some(sim),
                )
            }
        };
        let runtime = Arc::new(runtime);
        let shutdown = Arc::new(AtomicBool::new(false));

        let corrupt = |e: String| std::io::Error::new(ErrorKind::InvalidData, e);
        let journal = match &config.journal_dir {
            Some(dir) => {
                let (journal, recovered) =
                    Journal::open(dir, config.checkpoint_every, Arc::clone(&faults))
                        .map_err(corrupt)?;
                let report = wal::replay(&runtime, sim.as_deref(), recovered).map_err(corrupt)?;
                if report.checkpoint_domains > 0
                    || report.replayed > 0
                    || report.truncated_bytes > 0
                {
                    eprintln!(
                        "tempo-serve: recovered {} checkpoint domain(s) + {} journal record(s) \
                         ({} torn byte(s) truncated{})",
                        report.checkpoint_domains,
                        report.replayed,
                        report.truncated_bytes,
                        if report.discarded_stale_journal {
                            ", stale journal discarded"
                        } else {
                            ""
                        }
                    );
                }
                Some(Arc::new(journal))
            }
            None => None,
        };

        let accept_runtime = Arc::clone(&runtime);
        let accept_journal = journal.clone();
        let accept_shutdown = Arc::clone(&shutdown);
        let accept_thread = std::thread::Builder::new()
            .name("tempo-serve-accept".into())
            .spawn(move || {
                accept_loop(listener, accept_runtime, sim, accept_journal, faults, accept_shutdown);
            })
            .expect("spawn accept thread");

        Ok(Server {
            runtime,
            journal,
            local_addr,
            shutdown,
            accept_thread: Some(accept_thread),
            metrics,
        })
    }

    /// The operations journal, when one is configured. The daemon uses this
    /// to write a final checkpoint on graceful exit.
    pub fn journal(&self) -> Option<&Arc<Journal>> {
        self.journal.as_ref()
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The bound address of the Prometheus exposition endpoint, when one is
    /// configured (resolves ephemeral ports).
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics.as_ref().map(|m| m.addr())
    }

    /// The hosted runtime (embedded callers can bypass the socket).
    pub fn runtime(&self) -> &Arc<ControllerRuntime> {
        &self.runtime
    }

    /// Raises the shutdown flag and unblocks the accept loop. Returns
    /// immediately; use [`Server::join`] to wait for drain.
    pub fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        // Poke the blocking accept() so it observes the flag.
        let _ = TcpStream::connect(self.local_addr);
    }

    /// Whether a shutdown has been requested (by a client or locally).
    pub fn shutdown_requested(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Blocks until the server has fully drained (accept loop exited, every
    /// connection handler joined), then returns the runtime so the caller
    /// can snapshot it before dropping (which joins the shard workers).
    pub fn join(mut self) -> Arc<ControllerRuntime> {
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
        Arc::clone(&self.runtime)
    }
}

fn accept_loop(
    listener: TcpListener,
    runtime: Arc<ControllerRuntime>,
    sim: Option<Arc<SimClock>>,
    journal: Option<Arc<Journal>>,
    faults: Arc<dyn FaultInjector>,
    shutdown: Arc<AtomicBool>,
) {
    let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    let mut conn_index = 0u64;
    for stream in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        conn_index += 1;
        let index = conn_index;
        let runtime = Arc::clone(&runtime);
        let sim = sim.clone();
        let journal = journal.clone();
        let faults = Arc::clone(&faults);
        let flag = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("tempo-serve-conn".into())
            .spawn(move || {
                // Connection faults fire before the handshake, so a dropped
                // connection never half-executed anything: a retrying client
                // reconnects and resends without double-execution.
                if faults.drop_connection(index) {
                    obs::conn_faults("conn_drop").inc();
                    drop(stream);
                    return;
                }
                if let Some(stall) = faults.stall_connection(index) {
                    obs::conn_faults("conn_stall").inc();
                    std::thread::sleep(stall);
                }
                handle_connection(stream, runtime, sim, journal, flag)
            })
            .expect("spawn connection handler");
        let mut list = handlers.lock().expect("handler list");
        // Reap finished handlers so a long-lived daemon serving many
        // short-lived connections doesn't accumulate join state forever.
        list.retain(|h| !h.is_finished());
        list.push(handle);
    }
    for handle in handlers.lock().expect("handler list").drain(..) {
        let _ = handle.join();
    }
}

/// Reads one byte, riding out the shutdown-poll timeouts. `None` means the
/// connection closed, errored, or the server is shutting down.
fn read_negotiation_byte(mut stream: &TcpStream, shutdown: &AtomicBool) -> Option<u8> {
    let mut byte = [0u8; 1];
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return None;
        }
        match stream.read(&mut byte) {
            Ok(0) => return None,
            Ok(_) => return Some(byte[0]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => return None,
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    runtime: Arc<ControllerRuntime>,
    sim: Option<Arc<SimClock>>,
    journal: Option<Arc<Journal>>,
    shutdown: Arc<AtomicBool>,
) {
    // Short read timeouts keep handlers responsive to the shutdown flag
    // without busy-waiting.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    // The first byte negotiates the codec.
    let Some(first) = read_negotiation_byte(&stream, &shutdown) else { return };
    match first {
        BINARY_PREFIX => {
            let Some(version) = read_negotiation_byte(&stream, &shutdown) else { return };
            if version != BINARY_VERSION {
                let mut buf = BytesMut::new();
                let resp = Response::Error {
                    message: format!(
                        "unsupported binary version {version} (server speaks {BINARY_VERSION})"
                    ),
                };
                codec::encode_frame(0, &resp, &mut buf);
                let mut writer = &stream;
                let _ = writer.write_all(&buf);
                return;
            }
            handle_binary(stream, runtime, sim, journal, shutdown);
        }
        codec::JSONL_PREFIX => handle_jsonl(stream, runtime, sim, journal, shutdown, Vec::new()),
        // Anything else is the first byte of a bare JSONL session (`nc`
        // with no explicit prefix): keep it as part of the stream.
        other => handle_jsonl(stream, runtime, sim, journal, shutdown, vec![other]),
    }
}

/// Pokes the server's own accept loop so it observes the shutdown flag; the
/// connection's local address *is* the server's bound address.
fn poke_accept_loop(stream: &TcpStream) {
    if let Ok(addr) = stream.local_addr() {
        let _ = TcpStream::connect(addr);
    }
}

// ------------------------------------------------------------------- JSONL

fn handle_jsonl(
    stream: TcpStream,
    runtime: Arc<ControllerRuntime>,
    sim: Option<Arc<SimClock>>,
    journal: Option<Arc<Journal>>,
    shutdown: Arc<AtomicBool>,
    mut pending: Vec<u8>,
) {
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    // Reusable line buffer: responses accumulate here and go out in one
    // write+flush only once no further complete request line is already
    // buffered — pipelined JSONL clients get coalesced replies instead of
    // a syscall pair per message.
    let mut out = String::new();
    // Frame lines at the byte level: `read_line` would *discard* a partial
    // read whose accumulated bytes aren't yet valid UTF-8 (a timeout firing
    // mid-way through a multibyte character), silently corrupting the
    // stream. `read_until` keeps every byte across timeouts.
    loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        match reader.read_until(b'\n', &mut pending) {
            Ok(0) => break, // client closed
            Ok(_) => {
                if pending.last() != Some(&b'\n') {
                    continue; // EOF without newline; next read returns 0
                }
                let raw = std::mem::take(&mut pending);
                let mut stop = false;
                match std::str::from_utf8(&raw) {
                    Err(_) => encode_line(
                        &Response::Error { message: "request is not valid UTF-8".into() },
                        &mut out,
                    ),
                    Ok(line) if line.trim().is_empty() => {}
                    Ok(line) => {
                        let (response, requested_stop) = dispatch_line(
                            &runtime,
                            sim.as_deref(),
                            journal.as_ref(),
                            &shutdown,
                            line,
                        );
                        encode_line(&response, &mut out);
                        stop = requested_stop;
                    }
                }
                // Coalesce: hold the flush while complete request lines are
                // already sitting in the read buffer.
                let more_buffered = !stop && reader.buffer().contains(&b'\n');
                let mut ok = true;
                if !out.is_empty() && !more_buffered {
                    ok = writer.write_all(out.as_bytes()).and_then(|()| writer.flush()).is_ok();
                    out.clear();
                    // Journal upkeep between rounds, off the shard threads:
                    // due checkpoints and degraded-domain repair. With no
                    // journal, degraded domains respawn fresh from their
                    // retained specs instead.
                    if let Some(journal) = &journal {
                        wal::run_maintenance(journal, &runtime);
                    } else {
                        runtime.respawn_degraded();
                    }
                }
                if stop {
                    poke_accept_loop(&writer);
                }
                if !ok || stop {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                // Timeout poll: partial bytes are already in `pending`.
            }
            Err(_) => break,
        }
    }
}

/// Decodes and executes one JSONL request; the bool asks the handler (and,
/// transitively, the whole server) to stop.
fn dispatch_line(
    runtime: &ControllerRuntime,
    sim: Option<&SimClock>,
    journal: Option<&Arc<Journal>>,
    shutdown: &AtomicBool,
    line: &str,
) -> (Response, bool) {
    match decode(line) {
        Ok(request) => {
            let watch = tempo_obs::Stopwatch::start();
            let op_name = request_op_name(&request);
            let result = dispatch(runtime, sim, journal, shutdown, request);
            watch.observe_into(|| obs::request_micros("jsonl", op_name));
            result
        }
        Err(e) => (Response::Error { message: format!("bad request: {e}") }, false),
    }
}

/// Executes one request synchronously; the bool asks the handler to stop.
///
/// Journaling is write-behind: every state-mutating operation is appended
/// to the journal *after* it executed (and only when it executed — errors
/// and read-only requests are never logged). The crash-only contract: an op
/// whose response never reached the client may or may not survive a crash;
/// an op journaled before the crash always replays.
fn dispatch(
    runtime: &ControllerRuntime,
    sim: Option<&SimClock>,
    journal: Option<&Arc<Journal>>,
    shutdown: &AtomicBool,
    request: Request,
) -> (Response, bool) {
    let fail = |e: RuntimeError| Response::Error { message: e.to_string() };
    // Domain-targeted requests share one execution path with the binary
    // pipeline: a single clock reading at dispatch covers the whole op, and
    // the journal append runs inside the shard callback, right after
    // execution — per-domain journal order equals execution order even when
    // concurrent connections hit the same domain.
    let request = match split_domain_op(request) {
        Ok((domain, op)) => {
            let now = runtime.clock().now();
            let logged = journal.and_then(|_| journal_op(domain, &op));
            let journal = journal.map(Arc::clone);
            let traces = Arc::clone(runtime.traces());
            let response = match runtime.on_domain(domain, move |d| {
                let response = run_domain_op(domain, d, now, op, &traces);
                if let (Some(journal), Some(op)) = (journal, logged) {
                    journal.append_logged(&JournalRecord { now, op });
                }
                response
            }) {
                Ok(response) => response,
                Err(e) => fail(e),
            };
            return (response, false);
        }
        Err(request) => request,
    };
    let response = match request {
        Request::Hello => {
            let m = runtime.metrics();
            Response::Hello {
                proto: PROTO_VERSION,
                shards: m.shards,
                domains: m.domains,
                clock: if sim.is_some() { "sim".into() } else { "wall".into() },
            }
        }
        Request::CreateDomain { spec } => {
            let logged = journal.map(|_| spec.clone());
            match runtime.create_domain(spec) {
                Ok(domain) => {
                    if let (Some(journal), Some(spec)) = (journal, logged) {
                        journal.append_logged(&JournalRecord {
                            now: runtime.clock().now(),
                            op: JournalOp::CreateDomain { id: domain, spec },
                        });
                    }
                    Response::Created { domain }
                }
                Err(e) => fail(e),
            }
        }
        Request::AdvanceAll => {
            let now = runtime.clock().now();
            // Journaled per-shard, from each shard's own worker right after
            // its domains advanced: the sweep's records interleave with
            // concurrent per-domain ops in true execution order, which a
            // single post-hoc record from this thread could not guarantee.
            let decisions = match journal {
                Some(journal) => {
                    let journal = Arc::clone(journal);
                    runtime.advance_all_at_with(now, move |ids| {
                        if ids.is_empty() {
                            return;
                        }
                        journal.append_logged(&JournalRecord {
                            now,
                            op: JournalOp::AdvanceAll { domains: ids.to_vec() },
                        });
                    })
                }
                None => runtime.advance_all_at(now),
            };
            Response::AdvancedAll { decisions }
        }
        Request::Metrics => Response::Metrics { metrics: runtime.metrics() },
        Request::Snapshot => Response::Snapshot { snapshot: runtime.snapshot() },
        Request::Restore { snapshot } => {
            let logged = journal.map(|_| snapshot.clone());
            match runtime.restore(snapshot) {
                Ok(domains) => {
                    if let (Some(journal), Some(snapshot)) = (journal, logged) {
                        journal.append_logged(&JournalRecord {
                            now: runtime.clock().now(),
                            op: JournalOp::Restore { snapshot },
                        });
                    }
                    Response::Restored { domains }
                }
                Err(e) => fail(e),
            }
        }
        Request::Tick { micros } => match sim {
            Some(clock) => {
                let now = clock.advance(micros);
                // Ticks double as the fleet's maintenance heartbeat:
                // watermark enforcement and idle-tick hibernation run here.
                runtime.maintain();
                if let Some(journal) = journal {
                    // The record carries the post-advance reading; replay
                    // restores it with an idempotent monotonic set, never by
                    // re-advancing (a record that straddles a checkpoint cut
                    // must not apply the delta twice).
                    journal.append_logged(&JournalRecord { now, op: JournalOp::Tick { micros } });
                }
                Response::Ticked { now }
            }
            None => Response::Error { message: "Tick requires --sim-clock".into() },
        },
        Request::Hibernate { domain } => match runtime.hibernate(domain) {
            Ok(was_resident) => {
                // Only a hibernation that did something is journaled
                // (replay tolerates it no-oping anyway).
                if was_resident {
                    if let Some(journal) = journal {
                        journal.append_logged(&JournalRecord {
                            now: runtime.clock().now(),
                            op: JournalOp::Hibernate { domain },
                        });
                    }
                }
                Response::Hibernated { domain, was_resident }
            }
            Err(e) => fail(e),
        },
        Request::Migrate { domain, shard } => match runtime.migrate(domain, shard as usize) {
            Ok(moved) => {
                if moved {
                    if let Some(journal) = journal {
                        journal.append_logged(&JournalRecord {
                            now: runtime.clock().now(),
                            op: JournalOp::Migrate { domain, shard },
                        });
                    }
                }
                Response::Migrated { domain, shard, moved }
            }
            Err(e) => fail(e),
        },
        Request::Rebalance => {
            let moves = runtime.rebalance();
            // Journaled even when no move happened: rebalance resets the
            // per-shard load window, which shapes later rebalances.
            if let Some(journal) = journal {
                journal.append_logged(&JournalRecord {
                    now: runtime.clock().now(),
                    op: JournalOp::Rebalance,
                });
            }
            Response::Rebalanced { moves }
        }
        Request::Telemetry => Response::Telemetry { text: tempo_obs::render() },
        Request::TraceQuery { limit, domain } => {
            Response::Traces { traces: runtime.recent_traces(limit, domain) }
        }
        Request::Shutdown => {
            shutdown.store(true, Ordering::SeqCst);
            return (Response::ShuttingDown, true);
        }
        // Handled by split_domain_op above.
        Request::Ingest { .. }
        | Request::Advance { .. }
        | Request::IngestAdvance { .. }
        | Request::Config { .. } => unreachable!("domain ops split before the match"),
    };
    (response, false)
}

// ------------------------------------------------------------------ binary

/// The domain-targeted subset of [`Request`], runnable on the owning shard
/// without blocking the connection's reader.
enum DomainOp {
    Ingest { jobs: Vec<JobSpec> },
    Advance { steps: u64 },
    IngestAdvance { jobs: Vec<JobSpec>, steps: u64 },
    Config,
}

/// Splits a request into its async-dispatchable form, or hands it back for
/// synchronous (global) execution.
#[allow(clippy::result_large_err)] // Err is the ownership hand-back, not an error path
fn split_domain_op(request: Request) -> Result<(u64, DomainOp), Request> {
    match request {
        Request::Ingest { domain, jobs } => Ok((domain, DomainOp::Ingest { jobs })),
        Request::Advance { domain, steps } => Ok((domain, DomainOp::Advance { steps })),
        Request::IngestAdvance { domain, jobs, steps } => {
            Ok((domain, DomainOp::IngestAdvance { jobs, steps }))
        }
        Request::Config { domain } => Ok((domain, DomainOp::Config)),
        other => Err(other),
    }
}

fn ingest_response(domain: u64, outcome: IngestOutcome) -> Response {
    match outcome {
        IngestOutcome::Accepted { accepted } => Response::Ingested { domain, accepted },
        IngestOutcome::Busy { retry_after_micros } => Response::Busy { domain, retry_after_micros },
    }
}

/// The journal image of a domain op, `None` for read-only ops. `Busy`
/// outcomes are journaled too: refilling the ingest budget's token bucket
/// mutated domain state, and replaying the op reproduces it exactly.
fn journal_op(domain: u64, op: &DomainOp) -> Option<JournalOp> {
    match op {
        DomainOp::Ingest { jobs } => Some(JournalOp::Ingest { domain, jobs: jobs.clone() }),
        DomainOp::Advance { steps } => {
            Some(JournalOp::Advance { domain, steps: (*steps).clamp(1, MAX_STEPS) })
        }
        DomainOp::IngestAdvance { jobs, steps } => Some(JournalOp::IngestAdvance {
            domain,
            jobs: jobs.clone(),
            steps: (*steps).clamp(1, MAX_STEPS),
        }),
        DomainOp::Config => None,
    }
}

/// Executes one domain-targeted operation directly against the domain, on
/// its owning shard, against the clock reading taken at dispatch. Control
/// decisions land in the runtime's trace ring (same path as embedded
/// advances).
fn run_domain_op(
    domain: u64,
    d: &mut Domain,
    now: Time,
    op: DomainOp,
    traces: &TraceRing<DecisionTrace>,
) -> Response {
    let advance = |d: &mut Domain| {
        let rec = d.advance(now);
        push_trace(traces, domain, &rec, d.last_provenance());
        rec
    };
    match op {
        DomainOp::Ingest { jobs } => ingest_response(domain, d.ingest(now, jobs)),
        DomainOp::Advance { steps } => {
            let steps = steps.clamp(1, MAX_STEPS);
            let decisions = (0..steps).map(|_| advance(d)).collect();
            Response::Advanced { domain, decisions }
        }
        DomainOp::IngestAdvance { jobs, steps } => {
            let (accepted, retry_after_micros) = match d.ingest(now, jobs) {
                IngestOutcome::Accepted { accepted } => (accepted, None),
                IngestOutcome::Busy { retry_after_micros } => (0, Some(retry_after_micros)),
            };
            let steps = steps.clamp(1, MAX_STEPS);
            let decisions = (0..steps).map(|_| advance(d)).collect();
            Response::IngestAdvanced { domain, accepted, retry_after_micros, decisions }
        }
        DomainOp::Config => Response::Config { domain, config: d.current_config() },
    }
}

fn handle_binary(
    stream: TcpStream,
    runtime: Arc<ControllerRuntime>,
    sim: Option<Arc<SimClock>>,
    journal: Option<Arc<Journal>>,
    shutdown: Arc<AtomicBool>,
) {
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    // Completions flow to a dedicated writer thread, which is what lets the
    // reader keep dispatching while earlier requests are still running.
    let (resp_tx, resp_rx) = channel::unbounded::<(u64, Response)>();
    let writer_thread = std::thread::Builder::new()
        .name("tempo-serve-conn-writer".into())
        .spawn(move || binary_writer_loop(writer, resp_rx))
        .expect("spawn connection writer");

    let mut reader = stream;
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 64 * 1024];
    'conn: loop {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        // Drain every complete frame already buffered before reading more.
        loop {
            match codec::take_frame(&mut pending) {
                Ok(None) => break,
                Ok(Some((corr, body))) => {
                    if !dispatch_frame(
                        &runtime,
                        sim.as_deref(),
                        journal.as_ref(),
                        &shutdown,
                        corr,
                        &body,
                        &resp_tx,
                    ) {
                        poke_accept_loop(&reader);
                        break 'conn;
                    }
                }
                Err(e) => {
                    // Framing is unrecoverable: report and drop the
                    // connection (there is no resync point in the stream).
                    let _ = resp_tx.send((0, Response::Error { message: e }));
                    break 'conn;
                }
            }
        }
        // Journal upkeep runs on this connection thread, never a shard
        // worker (a checkpoint sweeps every shard and would self-deadlock
        // from one). With no journal, degraded domains respawn fresh from
        // their retained specs instead.
        if let Some(journal) = &journal {
            wal::run_maintenance(journal, &runtime);
        } else {
            runtime.respawn_degraded();
        }
        match reader.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {}
            Err(_) => break,
        }
    }
    // Shard-queued completions still hold sender clones; the writer drains
    // them all and exits once the last one is gone.
    drop(resp_tx);
    let _ = writer_thread.join();
}

/// Decodes and routes one binary frame. Returns `false` when the connection
/// should stop (shutdown requested).
fn dispatch_frame(
    runtime: &Arc<ControllerRuntime>,
    sim: Option<&SimClock>,
    journal: Option<&Arc<Journal>>,
    shutdown: &AtomicBool,
    corr: u64,
    body: &[u8],
    resp_tx: &Sender<(u64, Response)>,
) -> bool {
    let request: Request = match codec::decode_binary(body) {
        Ok(r) => r,
        Err(e) => {
            let _ = resp_tx.send((corr, Response::Error { message: format!("bad request: {e}") }));
            return true;
        }
    };
    let watch = tempo_obs::Stopwatch::start();
    let op_name = request_op_name(&request);
    match split_domain_op(request) {
        Ok((domain, op)) => {
            // Clock is read at dispatch, not execution: a pipelined window
            // of operations shares the submission-time view of now.
            let now = runtime.clock().now();
            // Journaled from the shard callback, right after execution —
            // per-domain journal order therefore equals execution order,
            // which is what replay reproduces. An op that never executes
            // (shard panic, unknown domain) is never journaled.
            let logged = journal.and_then(|_| journal_op(domain, &op));
            let journal = journal.cloned();
            let tx = resp_tx.clone();
            let traces = Arc::clone(runtime.traces());
            let dispatched = runtime.on_domain_async(domain, move |d| {
                let response = match d {
                    Ok(d) => {
                        let response = run_domain_op(domain, d, now, op, &traces);
                        if let (Some(journal), Some(op)) = (journal.as_deref(), logged) {
                            journal.append_logged(&JournalRecord { now, op });
                        }
                        response
                    }
                    Err(e) => Response::Error { message: e.to_string() },
                };
                // Completion-time reading: the histogram sees the full
                // pipelined latency (queue wait included), not just decode.
                watch.observe_into(|| obs::request_micros("binary", op_name));
                let _ = tx.send((corr, response));
            });
            if let Err(e) = dispatched {
                let _ = resp_tx.send((corr, Response::Error { message: e.to_string() }));
            }
            true
        }
        Err(request) => {
            // Global requests run inline; their shard-fanning operations
            // queue behind already-dispatched domain ops, so a pipelined
            // `Metrics` still observes every earlier completion.
            let (response, stop) = dispatch(runtime, sim, journal, shutdown, request);
            watch.observe_into(|| obs::request_micros("binary", op_name));
            let _ = resp_tx.send((corr, response));
            !stop
        }
    }
}

/// Streams completion frames back to the client, coalescing everything
/// already queued into one write+flush.
fn binary_writer_loop(mut writer: TcpStream, resp_rx: Receiver<(u64, Response)>) {
    let mut buf = BytesMut::with_capacity(64 * 1024);
    while let Ok((corr, response)) = resp_rx.recv() {
        buf.clear();
        codec::encode_frame(corr, &response, &mut buf);
        while let Ok((corr, response)) = resp_rx.try_recv() {
            codec::encode_frame(corr, &response, &mut buf);
        }
        if writer.write_all(&buf).and_then(|()| writer.flush()).is_err() {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, Proto};
    use crate::domain::{DomainSpec, IngestBudget};
    use tempo_qs::{QsKind, SloSet, SloSpec};
    use tempo_sim::{ClusterSpec, RmConfig, TenantConfig};
    use tempo_workload::time::{MIN, SEC};
    use tempo_workload::trace::{JobSpec, TaskSpec};

    fn spec(name: &str) -> DomainSpec {
        let slos = SloSet::new(vec![
            SloSpec::new(Some(0), QsKind::DeadlineMiss { gamma: 0.25 }).with_threshold(0.0),
            SloSpec::new(Some(1), QsKind::AvgResponseTime),
        ]);
        let initial = RmConfig::new(vec![
            TenantConfig::fair_default().with_weight(2.0),
            TenantConfig::fair_default(),
        ]);
        DomainSpec::new(name, ClusterSpec::new(8, 4), slos, initial, 4 * MIN).with_probes(3)
    }

    fn start_sim_server(shards: usize) -> Server {
        Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards,
            clock: ClockMode::Sim,
            ..ServerConfig::default()
        })
        .expect("start server")
    }

    fn wire_jobs(count: u64) -> Vec<JobSpec> {
        (0..count)
            .map(|i| {
                JobSpec::new(
                    0,
                    (i % 2) as u16,
                    i * 30 * SEC,
                    vec![TaskSpec::map(20 * SEC), TaskSpec::reduce(30 * SEC)],
                )
            })
            .collect()
    }

    fn end_to_end(proto: Proto) {
        tempo_obs::set_enabled(true);
        let server = start_sim_server(2);
        let mut client = Client::connect(server.local_addr(), proto).expect("connect");

        match client.call(&Request::Hello).unwrap() {
            Response::Hello { proto, clock, .. } => {
                assert_eq!(proto, PROTO_VERSION);
                assert_eq!(clock, "sim");
            }
            other => panic!("unexpected {other:?}"),
        }

        let domain = match client.call(&Request::CreateDomain { spec: spec("wire") }).unwrap() {
            Response::Created { domain } => domain,
            other => panic!("unexpected {other:?}"),
        };

        match client.call(&Request::Ingest { domain, jobs: wire_jobs(4) }).unwrap() {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 4),
            other => panic!("unexpected {other:?}"),
        }

        match client.call(&Request::Tick { micros: 2 * MIN }).unwrap() {
            Response::Ticked { now } => assert_eq!(now, 2 * MIN),
            other => panic!("unexpected {other:?}"),
        }

        match client.call(&Request::Advance { domain, steps: 2 }).unwrap() {
            Response::Advanced { decisions, .. } => {
                assert_eq!(decisions.len(), 2);
                assert!(decisions.iter().all(|d| !d.skipped));
            }
            other => panic!("unexpected {other:?}"),
        }

        match client.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.domains, 1);
                assert_eq!(metrics.total_decisions, 2);
                assert_eq!(metrics.total_ingested, 4);
            }
            other => panic!("unexpected {other:?}"),
        }

        // Bad input degrades to an error response, not a dropped connection.
        match client.call(&Request::Advance { domain: 999, steps: 1 }).unwrap() {
            Response::Error { message } => assert!(message.contains("unknown domain")),
            other => panic!("unexpected {other:?}"),
        }

        // The request histogram is labelled with the codec that carried the
        // request. A lower bound only: the registry is process-global and
        // the crate's other tests run beside this one.
        let codec = match proto {
            Proto::Jsonl => "jsonl",
            Proto::Binary => "binary",
        };
        match client.call(&Request::Telemetry).unwrap() {
            Response::Telemetry { text } => {
                let exposition = tempo_obs::Exposition::parse(&text).expect("exposition parses");
                let advances = exposition.sum(
                    "tempo_request_duration_micros_count",
                    &[("codec", codec), ("op", "advance")],
                );
                assert!(advances >= 1.0, "no {codec} advance in the request histogram:\n{text}");
            }
            other => panic!("unexpected {other:?}"),
        }

        assert_eq!(client.call(&Request::Shutdown).unwrap(), Response::ShuttingDown);
        let runtime = server.join();
        assert_eq!(runtime.metrics().total_decisions, 2);
    }

    #[test]
    fn end_to_end_over_tcp_jsonl() {
        end_to_end(Proto::Jsonl);
    }

    #[test]
    fn end_to_end_over_tcp_binary() {
        end_to_end(Proto::Binary);
    }

    #[test]
    fn binary_pipelining_matches_request_order_across_domains() {
        let server = start_sim_server(2);
        let mut client = Client::connect(server.local_addr(), Proto::Binary).expect("connect");
        let mut domains = Vec::new();
        for i in 0..4 {
            match client.call(&Request::CreateDomain { spec: spec(&format!("d{i}")) }).unwrap() {
                Response::Created { domain } => domains.push(domain),
                other => panic!("unexpected {other:?}"),
            }
        }
        // A whole window of batched ingest+advance rounds in flight at once,
        // interleaved across domains that live on different shards.
        let requests: Vec<Request> = (0..16)
            .map(|i| Request::IngestAdvance {
                domain: domains[i % domains.len()],
                jobs: wire_jobs(2),
                steps: 1,
            })
            .collect();
        let responses = client.call_pipelined(&requests, 8).unwrap();
        assert_eq!(responses.len(), 16);
        for (req, resp) in requests.iter().zip(&responses) {
            let Request::IngestAdvance { domain, .. } = req else { unreachable!() };
            match resp {
                Response::IngestAdvanced { domain: d, accepted, decisions, .. } => {
                    assert_eq!(d, domain, "responses matched to their requests");
                    assert_eq!(*accepted, 2);
                    assert_eq!(decisions.len(), 1);
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        // A trailing Metrics observes every pipelined completion.
        match client.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.total_ingested, 32);
                assert_eq!(
                    metrics.total_decisions
                        + metrics.per_domain.iter().map(|d| d.skipped).sum::<u64>(),
                    16
                );
            }
            other => panic!("unexpected {other:?}"),
        }
        client.call(&Request::Shutdown).unwrap();
        server.join();
    }

    #[test]
    fn busy_tenants_surface_backpressure_on_the_wire() {
        let server = start_sim_server(1);
        let mut client = Client::connect(server.local_addr(), Proto::Binary).expect("connect");
        let spec = spec("greedy").with_ingest_budget(IngestBudget::delay(4));
        let domain = match client.call(&Request::CreateDomain { spec }).unwrap() {
            Response::Created { domain } => domain,
            other => panic!("unexpected {other:?}"),
        };
        match client.call(&Request::Ingest { domain, jobs: wire_jobs(4) }).unwrap() {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 4),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Ingest { domain, jobs: wire_jobs(4) }).unwrap() {
            Response::Busy { domain: d, retry_after_micros } => {
                assert_eq!(d, domain);
                assert!(retry_after_micros > 0);
            }
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => assert_eq!(metrics.total_delayed, 4),
            other => panic!("unexpected {other:?}"),
        }
        client.call(&Request::Shutdown).unwrap();
        server.join();
    }

    #[test]
    fn bare_jsonl_without_negotiation_prefix_still_works() {
        // A raw `nc`-style session: first byte is `{`, not a prefix.
        let server = start_sim_server(1);
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writer.write_all(b"\"Hello\"\n").expect("send");
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        match decode::<Response>(&line).expect("parse") {
            Response::Hello { proto, .. } => assert_eq!(proto, PROTO_VERSION),
            other => panic!("unexpected {other:?}"),
        }
        writer.write_all(b"\"Shutdown\"\n").expect("send");
        line.clear();
        reader.read_line(&mut line).expect("read");
        server.join();
    }

    #[test]
    fn unsupported_binary_version_is_rejected_with_an_error_frame() {
        let server = start_sim_server(1);
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&[BINARY_PREFIX, 99]).expect("send");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read");
        let (corr, body) = codec::take_frame(&mut raw).expect("frame").expect("complete");
        assert_eq!(corr, 0);
        match codec::decode_binary::<Response>(&body).expect("decode") {
            Response::Error { message } => assert!(message.contains("version")),
            other => panic!("unexpected {other:?}"),
        }
        server.request_shutdown();
        server.join();
    }

    #[test]
    fn fleet_requests_work_over_the_wire() {
        // A deliberately tiny watermark forces hibernation churn under a
        // handful of domains; ticks run the maintenance sweep.
        let server = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 2,
            clock: ClockMode::Sim,
            fleet: FleetConfig::default().with_watermark(6 * 1024),
            ..ServerConfig::default()
        })
        .expect("start server");
        let mut client = Client::connect(server.local_addr(), Proto::Binary).expect("connect");
        let mut domains = Vec::new();
        for i in 0..3 {
            match client.call(&Request::CreateDomain { spec: spec(&format!("f{i}")) }).unwrap() {
                Response::Created { domain } => domains.push(domain),
                other => panic!("unexpected {other:?}"),
            }
        }
        client.call(&Request::Tick { micros: MIN }).unwrap();
        match client.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.domains, 3);
                assert!(metrics.resident_domains < 3, "watermark hibernated cold domains");
                assert!(metrics.total_hibernations >= 1);
                assert!(metrics.per_domain.iter().any(|d| !d.resident));
            }
            other => panic!("unexpected {other:?}"),
        }
        // Explicit hibernate, then a touch wakes the domain transparently.
        match client.call(&Request::Hibernate { domain: domains[0] }).unwrap() {
            Response::Hibernated { domain, .. } => assert_eq!(domain, domains[0]),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Ingest { domain: domains[0], jobs: wire_jobs(2) }).unwrap() {
            Response::Ingested { accepted, .. } => assert_eq!(accepted, 2),
            other => panic!("unexpected {other:?}"),
        }
        // Migrate to the other shard; bad targets error without dropping
        // the connection.
        let shard = match client.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => {
                metrics.per_domain.iter().find(|d| d.id == domains[0]).unwrap().shard
            }
            other => panic!("unexpected {other:?}"),
        };
        match client.call(&Request::Migrate { domain: domains[0], shard: 1 - shard }).unwrap() {
            Response::Migrated { moved, .. } => assert!(moved),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Migrate { domain: domains[0], shard: 99 }).unwrap() {
            Response::Error { message } => assert!(message.contains("out of range")),
            other => panic!("unexpected {other:?}"),
        }
        match client.call(&Request::Rebalance).unwrap() {
            Response::Rebalanced { .. } => {}
            other => panic!("unexpected {other:?}"),
        }
        // The migrated domain still answers with its state intact.
        match client.call(&Request::Advance { domain: domains[0], steps: 1 }).unwrap() {
            Response::Advanced { decisions, .. } => assert_eq!(decisions.len(), 1),
            other => panic!("unexpected {other:?}"),
        }
        client.call(&Request::Shutdown).unwrap();
        server.join();
    }

    #[test]
    fn snapshot_restore_across_server_instances() {
        let server = start_sim_server(2);
        let mut client = Client::connect(server.local_addr(), Proto::Jsonl).expect("connect");
        let domain = match client.call(&Request::CreateDomain { spec: spec("resume") }).unwrap() {
            Response::Created { domain } => domain,
            other => panic!("unexpected {other:?}"),
        };
        let jobs: Vec<JobSpec> =
            (0..3).map(|i| JobSpec::new(0, 0, i * MIN, vec![TaskSpec::map(30 * SEC)])).collect();
        client.call(&Request::Ingest { domain, jobs }).unwrap();
        client.call(&Request::Advance { domain, steps: 1 }).unwrap();
        let snapshot = match client.call(&Request::Snapshot).unwrap() {
            Response::Snapshot { snapshot } => snapshot,
            other => panic!("unexpected {other:?}"),
        };
        client.call(&Request::Shutdown).unwrap();
        server.join();

        // A fresh daemon restores the state and keeps counting from there —
        // over the binary codec this time.
        let server2 = Server::start(ServerConfig {
            addr: "127.0.0.1:0".into(),
            shards: 4, // shard count need not match
            clock: ClockMode::Sim,
            ..ServerConfig::default()
        })
        .expect("start server 2");
        let mut client2 = Client::connect(server2.local_addr(), Proto::Binary).expect("connect");
        match client2.call(&Request::Restore { snapshot }).unwrap() {
            Response::Restored { domains } => assert_eq!(domains, vec![domain]),
            other => panic!("unexpected {other:?}"),
        }
        match client2.call(&Request::Metrics).unwrap() {
            Response::Metrics { metrics } => {
                assert_eq!(metrics.total_decisions, 1);
                assert_eq!(metrics.total_ingested, 3);
            }
            other => panic!("unexpected {other:?}"),
        }
        client2.call(&Request::Shutdown).unwrap();
        server2.join();
    }

    #[test]
    fn corrupt_restore_errors_without_wedging_later_creates() {
        let server = start_sim_server(1);
        let mut client = Client::connect(server.local_addr(), Proto::Binary).expect("connect");
        let domain = match client.call(&Request::CreateDomain { spec: spec("donor") }).unwrap() {
            Response::Created { domain } => domain,
            other => panic!("unexpected {other:?}"),
        };
        client.call(&Request::Ingest { domain, jobs: wire_jobs(4) }).unwrap();
        client.call(&Request::Advance { domain, steps: 1 }).unwrap();
        let snapshot = match client.call(&Request::Snapshot).unwrap() {
            Response::Snapshot { snapshot } => snapshot,
            other => panic!("unexpected {other:?}"),
        };

        // An installed segment with a task-less job, then one naming a
        // tenant the spec does not have: each is refused as a bad spec.
        let mut empty_job = snapshot.clone();
        empty_job.domains[0].installed.as_mut().expect("a window is installed").1.jobs[0]
            .tasks
            .clear();
        let mut stray_tenant = snapshot;
        stray_tenant.domains[0].installed.as_mut().expect("a window is installed").1.jobs[0]
            .tenant = 5;
        for (bad, expect) in [(empty_job, "no tasks"), (stray_tenant, "tenant 5")] {
            match client.call(&Request::Restore { snapshot: bad }).unwrap() {
                Response::Error { message } => assert!(message.contains(expect), "{message}"),
                other => panic!("unexpected {other:?}"),
            }
        }

        // The refused restores left the runtime able to create domains.
        match client.call(&Request::CreateDomain { spec: spec("after") }).unwrap() {
            Response::Created { domain: created } => assert_ne!(created, domain),
            other => panic!("unexpected {other:?}"),
        }
        client.call(&Request::Shutdown).unwrap();
        server.join();
    }
}
