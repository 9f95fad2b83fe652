//! # tempo-serve
//!
//! The serving layer of the Tempo reproduction: where `tempo-core` gives
//! you *one* self-tuning controller you step by hand, this crate runs
//! *fleets* of them continuously — the paper's control loop (§4) promoted
//! from batch harness to daemon.
//!
//! * [`runtime::ControllerRuntime`] — a sharded runtime hosting N
//!   independent tenancy domains ([`domain::Domain`]), each a Tempo
//!   controller plus a live workload window, driven by a pool of shard
//!   worker threads over crossbeam channels. Per-domain execution is
//!   strictly serial (deterministic trajectories); distinct domains run in
//!   parallel.
//! * [`clock`] — pluggable time: [`clock::WallClock`] for production,
//!   [`clock::SimClock`] for deterministic replay and the serve/direct
//!   parity suite.
//! * [`proto`] + [`codec`] + [`server`] — a TCP wire protocol with two
//!   negotiated codecs sharing one message set: legacy JSONL (strict
//!   request/response, `nc`-scriptable) and length-prefixed binary frames
//!   with correlation ids, which the server pipelines out of order across
//!   domains. [`client::Client`] speaks both.
//! * Per-tenant ingest backpressure — domains can carry an
//!   [`domain::IngestBudget`] (token bucket per re-tuning window) that
//!   sheds or delays over-budget bursts ([`proto::Response::Busy`])
//!   without slowing sibling domains on the same shard.
//! * Snapshot/restore — [`runtime::RuntimeSnapshot`] captures tuned
//!   configurations, optimizer state and workload windows, so a restarted
//!   daemon resumes bit-identically.
//! * [`fleet`] — million-domain fleet management: cold domains hibernate
//!   to compact binary snapshot bytes under an operator-set resident-bytes
//!   watermark (LRU + idle-tick policies) and rehydrate transparently on
//!   their next operation; per-domain cost accounting (estimated resident
//!   bytes, advance-cost EWMA, touch recency) rolls up into
//!   [`runtime::RuntimeMetrics`]; and a load-aware placement table with a
//!   greedy rebalancer ([`runtime::ControllerRuntime::rebalance`]) keeps
//!   any one shard from hoarding the advance work, using
//!   hibernate/rehydrate as the bit-identical cross-shard move primitive.
//!
//! The load generator is the `benchmark/` package (`benchmark/run.sh`): it
//! spawns the daemon, drives it over TCP and checks every decision record
//! against an in-process mirror.

pub mod client;
pub mod clock;
pub mod codec;
pub mod demo;
pub mod domain;
pub mod fault;
pub mod fleet;
pub mod proto;
pub mod runtime;
pub mod server;
pub mod wal;

pub use client::{Client, ClientStats, Proto, RetryPolicy};
pub use clock::{Clock, SimClock, WallClock};
pub use domain::{
    BackpressurePolicy, DecisionRecord, Domain, DomainSnapshot, DomainSpec, IngestBudget,
    IngestOutcome,
};
pub use fault::{FaultInjector, FaultPlan, NoFaults};
pub use fleet::FleetConfig;
pub use proto::{Request, Response, PROTO_VERSION};
pub use runtime::{
    ControllerRuntime, DomainId, DomainMetrics, RuntimeError, RuntimeMetrics, RuntimeSnapshot,
};
pub use server::{ClockMode, Server, ServerConfig};
pub use wal::{Journal, JournalOp, JournalRecord, RecoveryReport};
