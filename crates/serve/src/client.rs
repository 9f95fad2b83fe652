//! TCP client for the serve wire protocol, speaking either codec.
//!
//! [`Client::call`] is the classic synchronous request/response round.
//! [`Client::call_pipelined`] keeps a window of requests in flight: over the
//! binary codec responses are matched by correlation id (the server may
//! complete them out of order), over JSONL the client simply writes ahead
//! and relies on the server's in-order replies. Either way the writes for a
//! full window are coalesced into one syscall.

use crate::codec::{self, BINARY_PREFIX, BINARY_VERSION, JSONL_PREFIX, MAX_FRAME_LEN};
use crate::fault::splitmix64;
use crate::proto::{decode, encode_line, Request, Response};
use bytes::BytesMut;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Which wire codec a [`Client`] negotiates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Proto {
    /// Line-delimited JSON (the legacy, `nc`-friendly codec).
    Jsonl,
    /// Length-prefixed binary frames with correlation ids.
    Binary,
}

/// How [`Client::call`] retries: bounded attempts with exponential backoff
/// and deterministic jitter, transparent reconnect + renegotiation after a
/// dropped connection, and (optionally) honoring the server's
/// [`Response::Busy`] `retry_after_micros` hint.
///
/// Retry makes `call` at-least-once, not exactly-once: a connection that
/// dies after the server executed a request but before the response arrived
/// is retried, re-executing the request. Fine for idempotent reads and for
/// workloads that tolerate re-ingest; callers needing exactly-once must
/// keep `Client` retry off and deduplicate themselves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total tries per `call` (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before retry `n` is `base_backoff × 2^(n-1)`, capped at
    /// `max_backoff`, scaled by jitter in `[0.5, 1.0)`.
    pub base_backoff: Duration,
    pub max_backoff: Duration,
    /// Read timeout applied to the socket (`None` = block forever). A
    /// timed-out read counts as a transient failure and is retried.
    pub timeout: Option<Duration>,
    /// Treat `Busy { retry_after_micros }` as retryable: sleep the server's
    /// hint (capped at `max_backoff`) and resend. When attempts run out the
    /// `Busy` is returned to the caller, never an error.
    pub honor_busy: bool,
    /// Seed for the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(500),
            timeout: None,
            honor_busy: true,
            jitter_seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The un-jittered backoff before retry attempt `attempt` (1-based).
    fn backoff(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(20);
        self.base_backoff.saturating_mul(1 << shift).min(self.max_backoff)
    }
}

/// Counters for what the retry machinery has done on this client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientStats {
    /// Requests handed to the wire (includes every retry resend).
    pub attempts: u64,
    /// Resends after a transient I/O failure.
    pub retries: u64,
    /// Successful reconnect + renegotiations.
    pub reconnects: u64,
    /// Resends after a `Busy` backpressure response.
    pub busy_retries: u64,
    /// Calls that exhausted `max_attempts` and surfaced an error.
    pub exhausted: u64,
}

/// A connected wire-protocol client with reusable encode/decode buffers.
pub struct Client {
    proto: Proto,
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    /// The peer address, kept for reconnects.
    addr: SocketAddr,
    retry: Option<RetryPolicy>,
    stats: ClientStats,
    /// Jitter stream state (SplitMix64 counter).
    jitter: u64,
    /// Reusable JSONL line buffers (encode side / decode side).
    line_out: String,
    line_in: String,
    /// Reusable binary frame encode buffer.
    frame_out: BytesMut,
    /// Next correlation id to assign (binary only).
    next_corr: u64,
}

fn bad_data(e: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e.into())
}

/// Errors worth a reconnect-and-resend: the connection died (dropped by a
/// fault, a crashed server, a mid-restart window) or a read timed out.
fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::UnexpectedEof
            | io::ErrorKind::ConnectionReset
            | io::ErrorKind::ConnectionAborted
            | io::ErrorKind::ConnectionRefused
            | io::ErrorKind::NotConnected
            | io::ErrorKind::BrokenPipe
            | io::ErrorKind::TimedOut
            | io::ErrorKind::WouldBlock
    )
}

impl Client {
    /// Connects and sends the negotiation prefix for `proto`.
    pub fn connect(addr: impl ToSocketAddrs, proto: Proto) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let addr = stream.peer_addr()?;
        let mut writer = stream.try_clone()?;
        match proto {
            Proto::Jsonl => writer.write_all(&[JSONL_PREFIX])?,
            Proto::Binary => writer.write_all(&[BINARY_PREFIX, BINARY_VERSION])?,
        }
        Ok(Client {
            proto,
            reader: BufReader::new(stream),
            writer,
            addr,
            retry: None,
            stats: ClientStats::default(),
            jitter: 0,
            line_out: String::new(),
            line_in: String::new(),
            frame_out: BytesMut::with_capacity(4096),
            next_corr: 0,
        })
    }

    /// Connects with a retry policy already installed (and its read timeout
    /// applied).
    pub fn connect_retry(
        addr: impl ToSocketAddrs,
        proto: Proto,
        policy: RetryPolicy,
    ) -> io::Result<Client> {
        let mut client = Client::connect(addr, proto)?;
        client.set_retry(policy)?;
        Ok(client)
    }

    /// Installs (or replaces) the retry policy on a live client, applying
    /// its read timeout to the socket.
    pub fn set_retry(&mut self, policy: RetryPolicy) -> io::Result<()> {
        self.reader.get_ref().set_read_timeout(policy.timeout)?;
        self.jitter = policy.jitter_seed;
        self.retry = Some(policy);
        Ok(())
    }

    /// What the retry machinery has done so far.
    pub fn stats(&self) -> ClientStats {
        self.stats
    }

    /// The negotiated codec.
    pub fn proto(&self) -> Proto {
        self.proto
    }

    /// One synchronous request/response round. With a [`RetryPolicy`]
    /// installed, transient failures reconnect + renegotiate and resend,
    /// and `Busy` responses are waited out and resent (see the policy docs
    /// for the at-least-once caveat).
    pub fn call(&mut self, request: &Request) -> io::Result<Response> {
        let Some(policy) = self.retry else { return self.call_once(request) };
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            self.stats.attempts += 1;
            match self.call_once(request) {
                Ok(Response::Busy { domain, retry_after_micros })
                    if policy.honor_busy && attempt < policy.max_attempts =>
                {
                    self.stats.busy_retries += 1;
                    let hint = Duration::from_micros(retry_after_micros).min(policy.max_backoff);
                    std::thread::sleep(self.jittered(hint));
                    let _ = domain;
                }
                Ok(response) => return Ok(response),
                Err(e) if attempt < policy.max_attempts && is_transient(&e) => {
                    self.stats.retries += 1;
                    std::thread::sleep(self.jittered(policy.backoff(attempt)));
                    // A failed reconnect leaves the dead streams in place:
                    // the next call_once fails fast as transient and the
                    // loop backs off toward another reconnect, until
                    // attempts run out.
                    if self.reconnect().is_ok() {
                        self.stats.reconnects += 1;
                    }
                }
                Err(e) => {
                    self.stats.exhausted += 1;
                    return Err(e);
                }
            }
        }
    }

    /// One request/response round with no retry.
    fn call_once(&mut self, request: &Request) -> io::Result<Response> {
        let mut responses = self.call_pipelined(std::slice::from_ref(request), 1)?;
        Ok(responses.pop().expect("one response per request"))
    }

    /// Re-establishes the connection and renegotiates the codec. Buffered
    /// partial responses from the dead connection are discarded with it.
    fn reconnect(&mut self) -> io::Result<()> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        if let Some(policy) = &self.retry {
            stream.set_read_timeout(policy.timeout)?;
        }
        let mut writer = stream.try_clone()?;
        match self.proto {
            Proto::Jsonl => writer.write_all(&[JSONL_PREFIX])?,
            Proto::Binary => writer.write_all(&[BINARY_PREFIX, BINARY_VERSION])?,
        }
        self.reader = BufReader::new(stream);
        self.writer = writer;
        Ok(())
    }

    /// Scales `d` by a deterministic factor in `[0.5, 1.0)` — spreads
    /// synchronized retry herds without an RNG dependency.
    fn jittered(&mut self, d: Duration) -> Duration {
        self.jitter = self.jitter.wrapping_add(1);
        let h = splitmix64(self.jitter);
        let frac = 0.5 + 0.5 * ((h >> 11) as f64 / (1u64 << 53) as f64);
        d.mul_f64(frac)
    }

    /// Issues `requests` with up to `window` in flight at once; returns the
    /// responses in request order.
    pub fn call_pipelined(
        &mut self,
        requests: &[Request],
        window: usize,
    ) -> io::Result<Vec<Response>> {
        let window = window.max(1);
        match self.proto {
            Proto::Jsonl => self.pipelined_jsonl(requests, window),
            Proto::Binary => self.pipelined_binary(requests, window),
        }
    }

    fn pipelined_jsonl(
        &mut self,
        requests: &[Request],
        window: usize,
    ) -> io::Result<Vec<Response>> {
        let mut responses = Vec::with_capacity(requests.len());
        let mut sent = 0;
        while responses.len() < requests.len() {
            // Top the window off, all queued lines in one write.
            if sent < requests.len() && sent - responses.len() < window {
                self.line_out.clear();
                while sent < requests.len() && sent - responses.len() < window {
                    encode_line(&requests[sent], &mut self.line_out);
                    sent += 1;
                }
                self.writer.write_all(self.line_out.as_bytes())?;
                self.writer.flush()?;
            }
            self.line_in.clear();
            if self.reader.read_line(&mut self.line_in)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            responses.push(decode(&self.line_in).map_err(bad_data)?);
        }
        Ok(responses)
    }

    fn pipelined_binary(
        &mut self,
        requests: &[Request],
        window: usize,
    ) -> io::Result<Vec<Response>> {
        let base = self.next_corr;
        self.next_corr += requests.len() as u64;
        let mut responses: Vec<Option<Response>> = (0..requests.len()).map(|_| None).collect();
        let mut sent = 0;
        let mut received = 0;
        while received < requests.len() {
            if sent < requests.len() && sent - received < window {
                self.frame_out.clear();
                while sent < requests.len() && sent - received < window {
                    codec::encode_frame(base + sent as u64, &requests[sent], &mut self.frame_out);
                    sent += 1;
                }
                self.writer.write_all(&self.frame_out)?;
                self.writer.flush()?;
            }
            let (corr, body) = self.read_frame()?;
            let idx =
                corr.checked_sub(base).filter(|&i| (i as usize) < requests.len()).ok_or_else(
                    || bad_data(format!("response for unknown correlation id {corr}")),
                )? as usize;
            if responses[idx].replace(codec::decode_binary(&body).map_err(bad_data)?).is_some() {
                return Err(bad_data(format!("duplicate response for correlation id {corr}")));
            }
            received += 1;
        }
        Ok(responses.into_iter().map(|r| r.expect("all received")).collect())
    }

    fn read_frame(&mut self) -> io::Result<(u64, Vec<u8>)> {
        let mut len = [0u8; 4];
        self.reader.read_exact(&mut len)?;
        let body_len = u32::from_le_bytes(len) as usize;
        if !(8..=MAX_FRAME_LEN).contains(&body_len) {
            return Err(bad_data(format!("bad frame length {body_len}")));
        }
        let mut corr = [0u8; 8];
        self.reader.read_exact(&mut corr)?;
        let mut body = vec![0u8; body_len - 8];
        self.reader.read_exact(&mut body)?;
        Ok((u64::from_le_bytes(corr), body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let policy = RetryPolicy {
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(100),
            ..RetryPolicy::default()
        };
        assert_eq!(policy.backoff(1), Duration::from_millis(10));
        assert_eq!(policy.backoff(2), Duration::from_millis(20));
        assert_eq!(policy.backoff(3), Duration::from_millis(40));
        assert_eq!(policy.backoff(4), Duration::from_millis(80));
        assert_eq!(policy.backoff(5), Duration::from_millis(100), "capped");
        assert_eq!(policy.backoff(40), Duration::from_millis(100), "shift saturates");
    }

    #[test]
    fn jitter_is_deterministic_per_seed_and_in_range() {
        let stream = |seed: u64| -> Vec<u64> {
            let mut state = seed;
            (0..64)
                .map(|_| {
                    state = state.wrapping_add(1);
                    let h = splitmix64(state);
                    let frac = 0.5 + 0.5 * ((h >> 11) as f64 / (1u64 << 53) as f64);
                    assert!((0.5..1.0).contains(&frac), "jitter factor {frac} out of range");
                    Duration::from_millis(100).mul_f64(frac).as_micros() as u64
                })
                .collect()
        };
        assert_eq!(stream(7), stream(7), "same seed, same jitter");
        assert_ne!(stream(7), stream(8), "different seeds diverge");
    }

    #[test]
    fn transient_errors_are_classified() {
        for kind in [
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WouldBlock,
        ] {
            assert!(is_transient(&io::Error::from(kind)), "{kind:?} should be transient");
        }
        assert!(!is_transient(&io::Error::from(io::ErrorKind::InvalidData)));
        assert!(!is_transient(&io::Error::from(io::ErrorKind::PermissionDenied)));
    }
}
