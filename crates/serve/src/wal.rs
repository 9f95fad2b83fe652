//! The durable operations journal — what makes tempo-serve crash-only.
//!
//! Every state-mutating request the server executes is appended to
//! `journal.bin` as a CRC-checksummed, length-prefixed binary-codec frame,
//! *after* it executed (write-behind: an op the client saw acknowledged may
//! be lost if the process dies between execute and append — crash-only
//! semantics, not two-phase commit). Periodically the whole runtime is
//! checkpointed to `checkpoint.bin` and the journal is reset, inside one
//! stop-the-world window ([`ControllerRuntime::quiesced_snapshot`]): every
//! shard parks while the state is captured and the journal cut, so each
//! journaled op lands in exactly one of {checkpoint, fresh journal}, never
//! neither. Recovery loads the latest
//! valid checkpoint, truncates the journal at the first bad CRC (a torn
//! tail from `kill -9` is expected, not an error), and replays the suffix.
//!
//! Because every journaled record carries the clock reading its operation
//! originally executed with, replay is independent of the recovery-time
//! clock: the recovered trajectory — PALD history, RNG odometer, installed
//! workload window — is bit-identical to the uninterrupted run for any
//! serialized (single-connection) workload, and equal to the journal's
//! recorded linearization under concurrency. The crash-recovery parity
//! proptest pins exactly this.
//!
//! ## File formats (all integers little-endian)
//!
//! ```text
//! journal.bin    = "TWAL" ‖ u8 version ‖ u64 epoch ‖ record*
//! record         = u32 body_len ‖ u32 crc32(body) ‖ body
//! body           = binary-codec encoding of JournalRecord
//! checkpoint.bin = "TCKP" ‖ u8 version ‖ u64 epoch ‖ u32 crc32(body) ‖ body
//! body           = binary-codec encoding of RuntimeSnapshot
//! ```
//!
//! The epoch stitches the two files together: writing a checkpoint bumps the
//! epoch, renames the checkpoint into place, then atomically replaces the
//! journal with a fresh header carrying the new epoch. A crash between the
//! two renames leaves a journal whose epoch trails the checkpoint's; its
//! records are already covered by the checkpoint, so recovery discards them.
//! Both headers are versioned: a file from a future build is rejected with a
//! clear error, never fed to the deserializer.
//!
//! Appends flush to the OS page cache and survive `kill -9`; they do not
//! `fsync`, so a host power loss can lose the tail (documented in the
//! README's fault model). Checkpoints, being rare, *are* synced before the
//! rename.

use crate::clock::SimClock;
use crate::codec;
use crate::domain::Domain;
use crate::fault::FaultInjector;
use crate::runtime::{ControllerRuntime, DomainId, RuntimeSnapshot};
use bytes::BytesMut;
use serde::{Deserialize, Serialize};
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use tempo_workload::time::Time;
use tempo_workload::JobSpec;

mod obs {
    pub(super) fn appends() -> &'static tempo_obs::Counter {
        tempo_obs::counter!("tempo_wal_appends_total", "Journal records durably appended")
    }

    pub(super) fn append_errors() -> &'static tempo_obs::Counter {
        tempo_obs::counter!(
            "tempo_wal_append_errors_total",
            "Journal appends that failed (injected or real I/O error)"
        )
    }

    pub(super) fn checkpoints() -> &'static tempo_obs::Counter {
        tempo_obs::counter!("tempo_wal_checkpoints_total", "Checkpoints written and synced")
    }

    pub(super) fn append_micros() -> &'static tempo_obs::Histogram {
        tempo_obs::histogram!(
            "tempo_wal_append_duration_micros",
            "Wall time of one successful journal append, in microseconds"
        )
    }

    pub(super) fn checkpoint_micros() -> &'static tempo_obs::Histogram {
        tempo_obs::histogram!(
            "tempo_wal_checkpoint_duration_micros",
            "Wall time of one checkpoint write (encode + sync + journal reset), in microseconds"
        )
    }

    pub(super) fn recovery_micros() -> &'static tempo_obs::Histogram {
        tempo_obs::histogram!(
            "tempo_wal_recovery_duration_micros",
            "Wall time of one recovery pass (checkpoint restore + journal replay), in microseconds"
        )
    }

    pub(super) fn replayed() -> &'static tempo_obs::Counter {
        tempo_obs::counter!(
            "tempo_wal_replayed_records_total",
            "Journal records replayed during recovery passes"
        )
    }

    /// Fault-injection firings by kind. `kind` varies per call site, so this
    /// resolves through the registry instead of the call-site-cached macro.
    pub(super) fn fault_injections(kind: &str) -> &'static tempo_obs::Counter {
        tempo_obs::counter(
            "tempo_fault_injections_total",
            "Deterministic fault-injector firings by kind",
            &[("kind", kind)],
        )
    }
}

/// Magic opening `journal.bin`.
pub const JOURNAL_MAGIC: [u8; 4] = *b"TWAL";
/// Magic opening `checkpoint.bin`.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"TCKP";
/// On-disk format version carried by both headers.
pub const JOURNAL_VERSION: u8 = 1;
/// `magic ‖ version ‖ epoch`.
const JOURNAL_HEADER: usize = 4 + 1 + 8;
/// Sanity cap on one journal record's body (mirrors the wire frame cap): a
/// length prefix beyond it is corruption, treated as a torn tail.
const MAX_RECORD_LEN: usize = codec::MAX_FRAME_LEN;

const fn build_crc32_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut n = 0;
    while n < 256 {
        let mut c = n as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[n] = c;
        n += 1;
    }
    table
}

static CRC32_TABLE: [u32; 256] = build_crc32_table();

/// CRC-32 (IEEE 802.3, the zlib/PNG polynomial).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC32_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One journaled operation: the dispatch-time clock reading plus what ran.
/// Replay applies `op` with the recorded `now`, never the recovery clock.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JournalRecord {
    pub now: Time,
    pub op: JournalOp,
}

/// The state-mutating operations the server journals. Read-only requests
/// (Hello/Config/Metrics/Snapshot) and failed operations are never logged.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalOp {
    /// A successful create, with the id the runtime assigned (replay asserts
    /// the recovered runtime assigns the same one).
    CreateDomain {
        id: DomainId,
        spec: crate::domain::DomainSpec,
    },
    /// An executed ingest — journaled even when the budget answered `Busy`,
    /// because refilling the token bucket mutates domain state.
    Ingest {
        domain: DomainId,
        jobs: Vec<JobSpec>,
    },
    Advance {
        domain: DomainId,
        steps: u64,
    },
    IngestAdvance {
        domain: DomainId,
        jobs: Vec<JobSpec>,
        steps: u64,
    },
    /// A fleet-wide advance, with the ids it actually advanced (resident
    /// domains only) so single-domain repair knows whether it participated.
    AdvanceAll {
        domains: Vec<DomainId>,
    },
    /// A clock tick (sim-clock daemons) and its maintenance sweep.
    Tick {
        micros: u64,
    },
    Hibernate {
        domain: DomainId,
    },
    Migrate {
        domain: DomainId,
        shard: u64,
    },
    Rebalance,
    /// An operator-initiated restore over the live runtime.
    Restore {
        snapshot: RuntimeSnapshot,
    },
}

/// What [`Journal::open`] found on disk.
pub struct Recovered {
    pub checkpoint: Option<RuntimeSnapshot>,
    /// Valid journal records past the checkpoint, in append order.
    pub records: Vec<JournalRecord>,
    /// Bytes cut from a torn journal tail (0 on a clean open).
    pub truncated_bytes: u64,
    /// Whether a stale pre-checkpoint journal was discarded whole (a crash
    /// landed between the checkpoint rename and the journal reset).
    pub discarded_stale_journal: bool,
}

/// Counters the daemon surfaces about its journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Records durably appended (successful writes only).
    pub appends: u64,
    /// Appends that failed (injected or real I/O error): the op executed
    /// but was not journaled, so a crash may lose it.
    pub append_errors: u64,
    pub checkpoints: u64,
}

struct Appender {
    file: File,
    epoch: u64,
    records_since_checkpoint: u64,
}

/// An open operations journal. Appends are serialized by an internal lock;
/// the handle is shared freely across connection threads.
pub struct Journal {
    dir: PathBuf,
    checkpoint_every: u64,
    faults: Arc<dyn FaultInjector>,
    inner: Mutex<Appender>,
    checkpoint_due: AtomicBool,
    /// Append *attempts*, successful or not — this is the fault-schedule
    /// index, so it must tick once per call to keep injection deterministic.
    attempts: AtomicU64,
    /// Successful appends only (what [`JournalStats::appends`] reports).
    appended: AtomicU64,
    append_errors: AtomicU64,
    checkpoints: AtomicU64,
}

impl Journal {
    /// Opens (creating if absent) the journal in `dir` and reads back
    /// whatever a previous process left: the latest checkpoint, the valid
    /// journal suffix (torn tail truncated in place), or an error for real
    /// corruption — a bad checkpoint CRC or a header from a future version.
    pub fn open(
        dir: impl AsRef<Path>,
        checkpoint_every: u64,
        faults: Arc<dyn FaultInjector>,
    ) -> Result<(Journal, Recovered), String> {
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir).map_err(|e| format!("create journal dir: {e}"))?;
        let journal_path = dir.join("journal.bin");

        let (checkpoint, ckpt_epoch) = match read_checkpoint_file(&dir.join("checkpoint.bin"))? {
            Some((snapshot, epoch)) => (Some(snapshot), epoch),
            None => (None, 0),
        };

        let mut truncated_bytes = 0u64;
        let mut discarded_stale_journal = false;
        let records = if journal_path.exists() {
            let bytes = fs::read(&journal_path).map_err(|e| format!("read journal: {e}"))?;
            let (epoch, records, valid_len) = parse_journal(&bytes)?;
            if epoch != ckpt_epoch {
                if epoch > ckpt_epoch {
                    return Err(format!(
                        "journal epoch {epoch} is ahead of checkpoint epoch {ckpt_epoch} \
                         (checkpoint file rolled back or deleted?)"
                    ));
                }
                // The checkpoint already covers these records; reset.
                discarded_stale_journal = true;
                replace_journal(&dir, ckpt_epoch)?;
                Vec::new()
            } else {
                if valid_len < bytes.len() {
                    truncated_bytes = (bytes.len() - valid_len) as u64;
                    let f = OpenOptions::new()
                        .write(true)
                        .open(&journal_path)
                        .map_err(|e| format!("open journal for truncation: {e}"))?;
                    f.set_len(valid_len as u64)
                        .map_err(|e| format!("truncate torn journal tail: {e}"))?;
                }
                records
            }
        } else {
            replace_journal(&dir, ckpt_epoch)?;
            Vec::new()
        };

        let file = OpenOptions::new()
            .append(true)
            .open(&journal_path)
            .map_err(|e| format!("open journal for append: {e}"))?;
        let journal = Journal {
            dir,
            checkpoint_every: checkpoint_every.max(1),
            faults,
            inner: Mutex::new(Appender {
                file,
                epoch: ckpt_epoch,
                records_since_checkpoint: records.len() as u64,
            }),
            checkpoint_due: AtomicBool::new(false),
            attempts: AtomicU64::new(0),
            appended: AtomicU64::new(0),
            append_errors: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
        };
        let recovered = Recovered { checkpoint, records, truncated_bytes, discarded_stale_journal };
        Ok((journal, recovered))
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    pub fn stats(&self) -> JournalStats {
        JournalStats {
            appends: self.appended.load(Ordering::SeqCst),
            append_errors: self.append_errors.load(Ordering::SeqCst),
            checkpoints: self.checkpoints.load(Ordering::SeqCst),
        }
    }

    /// Appends one record. Fails on injected or real I/O errors — the
    /// caller keeps serving either way (see [`Journal::append_logged`]).
    pub fn append(&self, record: &JournalRecord) -> Result<(), String> {
        let watch = tempo_obs::Stopwatch::start();
        let mut inner = self.inner.lock().expect("journal lock");
        let index = self.attempts.fetch_add(1, Ordering::SeqCst);
        if self.faults.journal_write_fails(index) {
            self.append_errors.fetch_add(1, Ordering::SeqCst);
            obs::append_errors().inc();
            obs::fault_injections("journal").inc();
            return Err(format!("injected journal write fault at append {index}"));
        }
        let mut body = BytesMut::new();
        codec::encode_binary(record, &mut body);
        let mut frame = Vec::with_capacity(8 + body.len());
        frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(body.as_slice()).to_le_bytes());
        frame.extend_from_slice(body.as_slice());
        if let Err(e) = inner.file.write_all(&frame) {
            self.append_errors.fetch_add(1, Ordering::SeqCst);
            obs::append_errors().inc();
            return Err(format!("journal append I/O error: {e}"));
        }
        self.appended.fetch_add(1, Ordering::SeqCst);
        obs::appends().inc();
        watch.observe_into(obs::append_micros);
        inner.records_since_checkpoint += 1;
        if inner.records_since_checkpoint >= self.checkpoint_every {
            self.checkpoint_due.store(true, Ordering::SeqCst);
        }
        Ok(())
    }

    /// Append that degrades instead of failing: an error is logged and
    /// counted, and the server keeps serving (the op may be lost on crash —
    /// the crash-only durability contract, weakened for this one record).
    pub fn append_logged(&self, record: &JournalRecord) {
        if let Err(e) = self.append(record) {
            eprintln!("tempo-serve: {e} (op executed but not journaled)");
        }
    }

    /// Whether enough records accumulated that a connection thread should
    /// checkpoint. Cleared by [`Journal::write_checkpoint`]; reading it does
    /// not clear it (use [`Journal::take_checkpoint_due`] to claim the job).
    pub fn checkpoint_due(&self) -> bool {
        self.checkpoint_due.load(Ordering::SeqCst)
    }

    /// Claims a due checkpoint: returns true to exactly one caller.
    pub fn take_checkpoint_due(&self) -> bool {
        self.checkpoint_due.swap(false, Ordering::SeqCst)
    }

    /// Re-arms the due flag — used when a claimed checkpoint had to be
    /// deferred (e.g. a degraded domain whose only recovery source is the
    /// journal the checkpoint would truncate).
    pub fn mark_checkpoint_due(&self) {
        self.checkpoint_due.store(true, Ordering::SeqCst);
    }

    /// Writes `snapshot` as the new checkpoint and resets the journal, both
    /// atomically (tmp + rename). Appends wait while this runs, so the
    /// checkpoint/journal cut is a consistent point in the op stream.
    pub fn write_checkpoint(&self, snapshot: &RuntimeSnapshot) -> Result<(), String> {
        self.write_checkpoint_with(snapshot, || snapshot.clock_now)
    }

    /// [`Journal::write_checkpoint`] with a clock re-stamp taken *under the
    /// append lock*. A `Tick` runs on a connection thread, not a shard, so
    /// quiescing the shards does not stop it: one can advance the clock and
    /// append after the snapshot captured `clock_now` but before the journal
    /// is truncated, and its record would vanish with the old journal while
    /// the checkpoint still carried the older reading. Re-reading the clock
    /// here closes that window — an advance strictly precedes its record's
    /// append, so any tick record this truncation destroys is covered by the
    /// stamped reading. A tick record that instead lands in the fresh
    /// journal replays as an idempotent `SimClock::set` (monotonic max), so
    /// over-stamping is harmless.
    pub fn write_checkpoint_with(
        &self,
        snapshot: &RuntimeSnapshot,
        stamp: impl FnOnce() -> Time,
    ) -> Result<(), String> {
        let watch = tempo_obs::Stopwatch::start();
        let mut inner = self.inner.lock().expect("journal lock");
        let epoch = inner.epoch + 1;
        let stamped = RuntimeSnapshot {
            clock_now: stamp().max(snapshot.clock_now),
            domains: snapshot.domains.clone(),
        };
        let mut body = BytesMut::new();
        codec::encode_binary(&stamped, &mut body);
        let mut bytes = Vec::with_capacity(JOURNAL_HEADER + 4 + body.len());
        bytes.extend_from_slice(&CHECKPOINT_MAGIC);
        bytes.push(JOURNAL_VERSION);
        bytes.extend_from_slice(&epoch.to_le_bytes());
        bytes.extend_from_slice(&crc32(body.as_slice()).to_le_bytes());
        bytes.extend_from_slice(body.as_slice());
        let tmp = self.dir.join("checkpoint.tmp");
        let write = || -> std::io::Result<()> {
            let mut f = File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
            fs::rename(&tmp, self.dir.join("checkpoint.bin"))
        };
        write().map_err(|e| format!("write checkpoint: {e}"))?;
        inner.file = replace_journal(&self.dir, epoch)?;
        inner.epoch = epoch;
        inner.records_since_checkpoint = 0;
        self.checkpoint_due.store(false, Ordering::SeqCst);
        self.checkpoints.fetch_add(1, Ordering::SeqCst);
        obs::checkpoints().inc();
        watch.observe_into(obs::checkpoint_micros);
        Ok(())
    }

    /// Re-reads the current checkpoint + journal suffix without disturbing
    /// either (appends are paused for a consistent cut). The repair path
    /// uses this to rebuild a degraded domain in place.
    pub fn read_current(&self) -> Result<(Option<RuntimeSnapshot>, Vec<JournalRecord>), String> {
        let _inner = self.inner.lock().expect("journal lock");
        let checkpoint = read_checkpoint_file(&self.dir.join("checkpoint.bin"))?.map(|(s, _)| s);
        let bytes =
            fs::read(self.dir.join("journal.bin")).map_err(|e| format!("read journal: {e}"))?;
        let (_, records, _) = parse_journal(&bytes)?;
        Ok((checkpoint, records))
    }
}

/// Atomically replaces `journal.bin` with a fresh header at `epoch`;
/// returns an append handle to the new file.
fn replace_journal(dir: &Path, epoch: u64) -> Result<File, String> {
    let tmp = dir.join("journal.tmp");
    let write = || -> std::io::Result<File> {
        let mut f = File::create(&tmp)?;
        f.write_all(&JOURNAL_MAGIC)?;
        f.write_all(&[JOURNAL_VERSION])?;
        f.write_all(&epoch.to_le_bytes())?;
        f.sync_all()?;
        drop(f);
        fs::rename(&tmp, dir.join("journal.bin"))?;
        OpenOptions::new().append(true).open(dir.join("journal.bin"))
    };
    write().map_err(|e| format!("reset journal: {e}"))
}

/// Parses a journal image: header, then records until the first torn or
/// corrupt one. Returns `(epoch, valid records, valid byte length)`.
/// Header problems (bad magic, future version) are hard errors; anything
/// wrong past the header is a torn tail by policy.
fn parse_journal(bytes: &[u8]) -> Result<(u64, Vec<JournalRecord>, usize), String> {
    if bytes.len() < JOURNAL_HEADER {
        return Err(format!("journal header truncated ({} bytes)", bytes.len()));
    }
    if bytes[..4] != JOURNAL_MAGIC {
        return Err("journal magic mismatch (not a tempo-serve journal)".into());
    }
    if bytes[4] != JOURNAL_VERSION {
        return Err(format!(
            "journal version {} unsupported (this build speaks version {JOURNAL_VERSION})",
            bytes[4]
        ));
    }
    let epoch = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
    let mut records = Vec::new();
    let mut at = JOURNAL_HEADER;
    while bytes.len() - at >= 8 {
        let body_len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[at + 4..at + 8].try_into().expect("4 bytes"));
        if body_len > MAX_RECORD_LEN || bytes.len() - at - 8 < body_len {
            break; // torn or corrupt length
        }
        let body = &bytes[at + 8..at + 8 + body_len];
        if crc32(body) != crc {
            break; // torn or corrupt body
        }
        match codec::decode_binary::<JournalRecord>(body) {
            Ok(record) => records.push(record),
            Err(_) => break, // CRC-valid but undecodable: treat as the tail
        }
        at += 8 + body_len;
    }
    Ok((epoch, records, at))
}

/// Reads and validates `checkpoint.bin`. `Ok(None)` when absent; hard
/// errors for truncation, bad magic/CRC, or a future version — the journal
/// was truncated when this file was written, so there is no safe fallback.
fn read_checkpoint_file(path: &Path) -> Result<Option<(RuntimeSnapshot, u64)>, String> {
    let bytes = match fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(format!("read checkpoint: {e}")),
    };
    if bytes.len() < JOURNAL_HEADER + 4 {
        return Err(format!("checkpoint truncated ({} bytes)", bytes.len()));
    }
    if bytes[..4] != CHECKPOINT_MAGIC {
        return Err("checkpoint magic mismatch (not a tempo-serve checkpoint)".into());
    }
    if bytes[4] != JOURNAL_VERSION {
        return Err(format!(
            "checkpoint version {} unsupported (this build speaks version {JOURNAL_VERSION})",
            bytes[4]
        ));
    }
    let epoch = u64::from_le_bytes(bytes[5..13].try_into().expect("8 bytes"));
    let crc = u32::from_le_bytes(bytes[13..17].try_into().expect("4 bytes"));
    let body = &bytes[17..];
    if crc32(body) != crc {
        return Err("checkpoint CRC mismatch (corrupt checkpoint, no safe fallback)".into());
    }
    let snapshot = codec::decode_binary::<RuntimeSnapshot>(body)
        .map_err(|e| format!("checkpoint decode: {e}"))?;
    Ok(Some((snapshot, epoch)))
}

/// What a recovery pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    pub checkpoint_domains: u64,
    pub replayed: u64,
    pub truncated_bytes: u64,
    pub discarded_stale_journal: bool,
}

/// Rebuilds runtime state from what [`Journal::open`] recovered: restore
/// the checkpoint (setting the sim clock to its reading), then replay every
/// journal record with its recorded clock reading.
pub fn replay(
    runtime: &ControllerRuntime,
    sim: Option<&SimClock>,
    recovered: Recovered,
) -> Result<RecoveryReport, String> {
    let watch = tempo_obs::Stopwatch::start();
    let Recovered { checkpoint, records, truncated_bytes, discarded_stale_journal } = recovered;
    let mut checkpoint_domains = 0;
    if let Some(snapshot) = checkpoint {
        checkpoint_domains = snapshot.domains.len() as u64;
        if let Some(sim) = sim {
            sim.set(snapshot.clock_now);
        }
        runtime.restore(snapshot).map_err(|e| format!("checkpoint restore: {e}"))?;
    }
    let replayed = records.len() as u64;
    for (i, record) in records.into_iter().enumerate() {
        apply_record(runtime, sim, record)
            .map_err(|e| format!("journal replay failed at record {i}: {e}"))?;
    }
    obs::replayed().add(replayed);
    watch.observe_into(obs::recovery_micros);
    Ok(RecoveryReport { checkpoint_domains, replayed, truncated_bytes, discarded_stale_journal })
}

fn apply_record(
    runtime: &ControllerRuntime,
    sim: Option<&SimClock>,
    record: JournalRecord,
) -> Result<(), String> {
    let now = record.now;
    match record.op {
        JournalOp::CreateDomain { id, spec } => {
            // A create that executed just before the checkpoint cut but
            // appended just after it is in both the checkpoint and the
            // journal; re-creating would reset the domain. Skip it — restore
            // already advanced the id counter past every checkpointed id.
            if runtime.contains_domain(id) {
                return Ok(());
            }
            let created = runtime.create_domain(spec).map_err(|e| e.to_string())?;
            if created != id {
                return Err(format!(
                    "replayed create assigned id {created}, journal recorded {id}"
                ));
            }
        }
        JournalOp::Ingest { domain, jobs } => {
            runtime
                .on_domain(domain, move |d| {
                    d.ingest(now, jobs);
                })
                .map_err(|e| e.to_string())?;
        }
        JournalOp::Advance { domain, steps } => {
            runtime
                .on_domain(domain, move |d| {
                    for _ in 0..steps {
                        d.advance(now);
                    }
                })
                .map_err(|e| e.to_string())?;
        }
        JournalOp::IngestAdvance { domain, jobs, steps } => {
            runtime
                .on_domain(domain, move |d| {
                    d.ingest(now, jobs);
                    for _ in 0..steps {
                        d.advance(now);
                    }
                })
                .map_err(|e| e.to_string())?;
        }
        JournalOp::AdvanceAll { domains } => {
            // Advance exactly the recorded ids, not `advance_all_at`: after a
            // checkpoint restore every domain is resident, while the original
            // sweep skipped hibernated ones — and the record may cover only
            // one shard's share of a sweep (the server journals the sweep
            // per-shard, in each shard's execution order).
            for id in domains {
                runtime
                    .on_domain(id, move |d| {
                        d.advance(now);
                    })
                    .map_err(|e| e.to_string())?;
            }
        }
        JournalOp::Tick { micros: _ } => {
            // `record.now` is the post-advance reading, and `SimClock::set`
            // is a monotonic max — so replay is idempotent whether the tick's
            // effect was already captured by a checkpoint or not, and
            // replaying ticks in journal order reproduces the final clock
            // even when concurrent ticks appended out of value order.
            if let Some(sim) = sim {
                sim.set(now);
            }
            runtime.maintain();
        }
        // Placement ops can legitimately no-op on replay (e.g. an already-
        // hibernated domain); domain-internal state is unaffected either way.
        JournalOp::Hibernate { domain } => {
            let _ = runtime.hibernate(domain);
        }
        JournalOp::Migrate { domain, shard } => {
            let _ = runtime.migrate(domain, shard as usize);
        }
        JournalOp::Rebalance => {
            runtime.rebalance();
        }
        JournalOp::Restore { snapshot } => {
            runtime.restore(snapshot).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Journal upkeep run from connection threads after serving requests:
/// repairs any degraded domains, then writes a due checkpoint. Never call
/// from a shard worker — checkpointing parks every shard and would
/// self-deadlock.
///
/// Order matters: a checkpoint omits degraded domains *and* truncates the
/// journal, which together destroy both of a degraded domain's recovery
/// sources. Repair therefore runs first, and a claimed checkpoint is
/// deferred (the due flag re-armed) if any domain is still degraded at the
/// cut. The degraded check happens inside the quiesced window, where no
/// shard job can run and newly panic — so "empty then" means "empty for the
/// whole checkpoint".
pub fn run_maintenance(journal: &Journal, runtime: &ControllerRuntime) {
    let degraded = runtime.degraded_domains();
    if !degraded.is_empty() {
        match journal.read_current() {
            Ok((checkpoint, records)) => {
                for id in degraded {
                    match repair_domain(runtime, id, checkpoint.as_ref(), &records) {
                        Ok(true) => eprintln!("tempo-serve: domain {id} repaired from the journal"),
                        Ok(false) => {
                            eprintln!(
                                "tempo-serve: domain {id} has no recovery source in the journal"
                            )
                        }
                        Err(e) => eprintln!("tempo-serve: domain {id} repair failed: {e}"),
                    }
                }
            }
            Err(e) => eprintln!("tempo-serve: journal read for repair failed: {e}"),
        }
    }
    if journal.take_checkpoint_due() {
        // Stop-the-world capture: the snapshot and the journal cut happen in
        // one quiescent window, so every journaled op lands in exactly one
        // of {checkpoint, fresh journal} — a free-running snapshot would let
        // an op on an already-captured shard append to the journal this cut
        // truncates, losing it from both.
        let (_, result) = runtime.quiesced_snapshot(|snapshot| {
            if !runtime.degraded_domains().is_empty() {
                journal.mark_checkpoint_due();
                eprintln!(
                    "tempo-serve: checkpoint deferred — degraded domain awaits journal repair"
                );
                return Ok(());
            }
            journal.write_checkpoint_with(snapshot, || runtime.clock().now())
        });
        if let Err(e) = result {
            eprintln!("tempo-serve: checkpoint failed: {e}");
        }
    }
}

/// Rebuilds one degraded domain from the checkpoint + journal and installs
/// it back into the runtime (clearing its degraded mark). Returns
/// `Ok(false)` when neither the checkpoint nor the journal knows the id.
///
/// Only the domain's own records matter: placement ops and other domains'
/// records never change its internal state, so the rebuild applies its
/// creates/restores/ingests/advances (with their recorded clock readings)
/// and skips everything else.
pub fn repair_domain(
    runtime: &ControllerRuntime,
    id: DomainId,
    checkpoint: Option<&RuntimeSnapshot>,
    records: &[JournalRecord],
) -> Result<bool, String> {
    let mut domain: Option<Domain> =
        match checkpoint.and_then(|s| s.domains.iter().find(|d| d.id == id)) {
            Some(ds) => Some(Domain::restore(ds.clone())?),
            None => None,
        };
    for record in records {
        let now = record.now;
        match &record.op {
            JournalOp::CreateDomain { id: cid, spec } if *cid == id => {
                domain = Some(Domain::new(spec.clone())?);
            }
            JournalOp::Restore { snapshot } => {
                if let Some(ds) = snapshot.domains.iter().find(|d| d.id == id) {
                    domain = Some(Domain::restore(ds.clone())?);
                }
            }
            JournalOp::Ingest { domain: did, jobs } if *did == id => {
                if let Some(d) = domain.as_mut() {
                    d.ingest(now, jobs.clone());
                }
            }
            JournalOp::Advance { domain: did, steps } if *did == id => {
                if let Some(d) = domain.as_mut() {
                    for _ in 0..*steps {
                        d.advance(now);
                    }
                }
            }
            JournalOp::IngestAdvance { domain: did, jobs, steps } if *did == id => {
                if let Some(d) = domain.as_mut() {
                    d.ingest(now, jobs.clone());
                    for _ in 0..*steps {
                        d.advance(now);
                    }
                }
            }
            JournalOp::AdvanceAll { domains } if domains.contains(&id) => {
                if let Some(d) = domain.as_mut() {
                    d.advance(now);
                }
            }
            _ => {}
        }
    }
    let Some(domain) = domain else { return Ok(false) };
    runtime
        .restore(RuntimeSnapshot {
            clock_now: runtime.clock().now(),
            domains: vec![domain.snapshot(id)],
        })
        .map_err(|e| e.to_string())?;
    Ok(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{no_faults, FaultPlan};
    use std::sync::atomic::AtomicU32;

    fn temp_dir(tag: &str) -> PathBuf {
        static COUNTER: AtomicU32 = AtomicU32::new(0);
        let dir = std::env::temp_dir().join(format!(
            "tempo-wal-{tag}-{}-{}",
            std::process::id(),
            COUNTER.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn tick(now: Time, micros: u64) -> JournalRecord {
        JournalRecord { now, op: JournalOp::Tick { micros } }
    }

    #[test]
    fn crc32_matches_the_reference_vector() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_survive_reopen() {
        let dir = temp_dir("reopen");
        let recs: Vec<_> = (0..5).map(|i| tick(i * 10, 10)).collect();
        {
            let (journal, recovered) = Journal::open(&dir, 1024, no_faults()).unwrap();
            assert!(recovered.checkpoint.is_none());
            assert!(recovered.records.is_empty());
            for r in &recs {
                journal.append(r).unwrap();
            }
            assert_eq!(journal.stats().appends, 5);
        }
        let (journal, recovered) = Journal::open(&dir, 1024, no_faults()).unwrap();
        assert_eq!(recovered.records, recs);
        assert_eq!(recovered.truncated_bytes, 0);
        // Appends continue past the recovered suffix.
        journal.append(&tick(99, 1)).unwrap();
        drop(journal);
        let (_, recovered) = Journal::open(&dir, 1024, no_faults()).unwrap();
        assert_eq!(recovered.records.len(), 6);
    }

    #[test]
    fn torn_tail_is_truncated_and_appends_resume() {
        let dir = temp_dir("torn");
        {
            let (journal, _) = Journal::open(&dir, 1024, no_faults()).unwrap();
            for i in 0..3 {
                journal.append(&tick(i, 1)).unwrap();
            }
        }
        let path = dir.join("journal.bin");
        let mut bytes = fs::read(&path).unwrap();
        // Flip a byte inside the second record's body: it and everything
        // after it become the torn tail.
        let record_len = (bytes.len() - JOURNAL_HEADER) / 3;
        bytes[JOURNAL_HEADER + record_len + 9] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();

        let (journal, recovered) = Journal::open(&dir, 1024, no_faults()).unwrap();
        assert_eq!(recovered.records, vec![tick(0, 1)]);
        assert_eq!(recovered.truncated_bytes, 2 * record_len as u64);
        // The file was truncated in place, so a fresh append lands cleanly.
        journal.append(&tick(7, 7)).unwrap();
        drop(journal);
        let (_, recovered) = Journal::open(&dir, 1024, no_faults()).unwrap();
        assert_eq!(recovered.records, vec![tick(0, 1), tick(7, 7)]);

        // Mid-record kill: any byte-level prefix recovers a record prefix.
        let bytes = fs::read(&path).unwrap();
        for cut in JOURNAL_HEADER..bytes.len() {
            let dir2 = temp_dir("cut");
            fs::create_dir_all(&dir2).unwrap();
            fs::write(dir2.join("journal.bin"), &bytes[..cut]).unwrap();
            let (_, r) = Journal::open(&dir2, 1024, no_faults()).unwrap();
            assert!(r.records.len() <= 2, "cut {cut} produced {} records", r.records.len());
            let _ = fs::remove_dir_all(&dir2);
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoints_truncate_the_journal_and_bump_the_epoch() {
        let dir = temp_dir("ckpt");
        let snapshot = RuntimeSnapshot { clock_now: 1234, domains: Vec::new() };
        {
            let (journal, _) = Journal::open(&dir, 1024, no_faults()).unwrap();
            journal.append(&tick(1, 1)).unwrap();
            journal.append(&tick(2, 1)).unwrap();
            journal.write_checkpoint(&snapshot).unwrap();
            assert_eq!(journal.stats().checkpoints, 1);
            journal.append(&tick(3, 1)).unwrap();
        }
        let (_, recovered) = Journal::open(&dir, 1024, no_faults()).unwrap();
        assert_eq!(recovered.checkpoint, Some(snapshot));
        assert_eq!(recovered.records, vec![tick(3, 1)], "pre-checkpoint records truncated");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_due_fires_at_the_cadence_and_is_claimed_once() {
        let dir = temp_dir("due");
        let (journal, _) = Journal::open(&dir, 3, no_faults()).unwrap();
        journal.append(&tick(1, 1)).unwrap();
        journal.append(&tick(2, 1)).unwrap();
        assert!(!journal.checkpoint_due());
        journal.append(&tick(3, 1)).unwrap();
        assert!(journal.checkpoint_due());
        assert!(journal.take_checkpoint_due());
        assert!(!journal.take_checkpoint_due(), "claimed exactly once");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_journal_from_a_checkpoint_crash_window_is_discarded() {
        let dir = temp_dir("stale");
        let snapshot = RuntimeSnapshot { clock_now: 5, domains: Vec::new() };
        let stale = {
            let (journal, _) = Journal::open(&dir, 1024, no_faults()).unwrap();
            journal.append(&tick(1, 1)).unwrap();
            let stale = fs::read(dir.join("journal.bin")).unwrap();
            journal.write_checkpoint(&snapshot).unwrap();
            stale
        };
        // Simulate a crash between the checkpoint rename and the journal
        // reset: the old epoch-0 journal is still in place.
        fs::write(dir.join("journal.bin"), &stale).unwrap();
        let (_, recovered) = Journal::open(&dir, 1024, no_faults()).unwrap();
        assert!(recovered.discarded_stale_journal);
        assert!(recovered.records.is_empty(), "stale records are covered by the checkpoint");
        assert_eq!(recovered.checkpoint, Some(snapshot));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn forward_versions_are_rejected_with_a_clear_error() {
        let dir = temp_dir("version");
        let snapshot = RuntimeSnapshot { clock_now: 0, domains: Vec::new() };
        {
            let (journal, _) = Journal::open(&dir, 1024, no_faults()).unwrap();
            journal.append(&tick(1, 1)).unwrap();
            journal.write_checkpoint(&snapshot).unwrap();
        }
        for file in ["journal.bin", "checkpoint.bin"] {
            let path = dir.join(file);
            let mut bytes = fs::read(&path).unwrap();
            let saved = bytes[4];
            bytes[4] = JOURNAL_VERSION + 1;
            fs::write(&path, &bytes).unwrap();
            let err = Journal::open(&dir, 1024, no_faults()).map(drop).unwrap_err();
            assert!(err.contains("version"), "{file}: {err}");
            bytes[4] = saved;
            fs::write(&path, &bytes).unwrap();
        }
        // Garbage magic is corruption, not a version problem.
        fs::write(dir.join("journal.bin"), b"GARBAGEGARBAGEGARBAGE").unwrap();
        assert!(Journal::open(&dir, 1024, no_faults()).map(drop).unwrap_err().contains("magic"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoints_are_a_hard_error() {
        let dir = temp_dir("badckpt");
        {
            let (journal, _) = Journal::open(&dir, 1024, no_faults()).unwrap();
            journal
                .write_checkpoint(&RuntimeSnapshot { clock_now: 9, domains: Vec::new() })
                .unwrap();
        }
        let path = dir.join("checkpoint.bin");
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        fs::write(&path, &bytes).unwrap();
        assert!(Journal::open(&dir, 1024, no_faults()).map(drop).unwrap_err().contains("CRC"));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn injected_journal_faults_fail_appends_deterministically() {
        let dir = temp_dir("fault");
        let plan = FaultPlan::new(3).with_journal_errors(1.0);
        let (journal, _) = Journal::open(&dir, 1024, Arc::new(plan)).unwrap();
        assert!(journal.append(&tick(1, 1)).unwrap_err().contains("injected"));
        assert_eq!(journal.stats().append_errors, 1);
        assert_eq!(journal.stats().appends, 0, "a failed append is not an append");
        drop(journal);
        let (_, recovered) = Journal::open(&dir, 1024, no_faults()).unwrap();
        assert!(recovered.records.is_empty(), "failed appends wrote nothing");
        let _ = fs::remove_dir_all(&dir);
    }
}
