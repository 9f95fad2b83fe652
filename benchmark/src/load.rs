//! The load generator: one connection, closed-loop or open-loop, every
//! request timed from send (or from when it was due) to reply.

use crate::gen::{Step, StepKind};
use crate::wire::Wire;
use std::io::{self, Write};
use std::time::{Duration, Instant};

/// What came back for one step of the stream.
#[derive(Debug, Clone)]
pub struct Reply {
    /// When the request was written — or, open loop, when it was due.
    pub start: Instant,
    pub received: Instant,
    pub body: Vec<u8>,
}

impl Reply {
    pub fn latency_us(&self) -> f64 {
        self.received.duration_since(self.start).as_secs_f64() * 1e6
    }
}

pub struct Driven {
    /// One entry per step; `None` when the reply never arrived.
    pub replies: Vec<Option<Reply>>,
    pub started: Instant,
    pub finished: Instant,
    /// Open loop only: how late each request was written against its due
    /// time, in microseconds.
    pub lag_us: Vec<f64>,
    /// Why the phase stopped early, if it did.
    pub error: Option<String>,
}

/// Sends `steps` keeping at most `depth` non-`Tick` requests in flight.
/// `Tick` frames ride along with the request that follows them and do not
/// count against the depth. `on_reply` sees every reply as it arrives.
pub fn drive_closed(
    wire: &mut Wire,
    steps: &[Step],
    frames: &[Vec<u8>],
    first_corr: u64,
    depth: usize,
    mut on_reply: impl FnMut(usize, Instant),
) -> Driven {
    let n = steps.len();
    let mut sent_at: Vec<Option<Instant>> = vec![None; n];
    let mut replies: Vec<Option<Reply>> = vec![None; n];
    let started = Instant::now();
    let (mut next, mut received, mut in_flight) = (0usize, 0usize, 0usize);
    let mut batch: Vec<u8> = Vec::new();
    let mut error = None;
    while received < n {
        batch.clear();
        let first = next;
        while next < n && (steps[next].kind == StepKind::Tick || in_flight < depth) {
            batch.extend_from_slice(&frames[next]);
            if steps[next].kind != StepKind::Tick {
                in_flight += 1;
            }
            next += 1;
        }
        if next > first {
            let now = Instant::now();
            sent_at[first..next].fill(Some(now));
            if let Err(e) = wire.send(&batch) {
                error = Some(format!("send failed: {e}"));
                break;
            }
        }
        match wire.recv() {
            Ok((corr, body)) => {
                let received_at = Instant::now();
                let index = corr.wrapping_sub(first_corr) as usize;
                let Some(start) = sent_at.get(index).copied().flatten() else {
                    error = Some(format!("reply for unknown correlation id {corr}"));
                    break;
                };
                if steps[index].kind != StepKind::Tick {
                    in_flight -= 1;
                }
                replies[index] = Some(Reply { start, received: received_at, body });
                received += 1;
                on_reply(index, received_at);
            }
            Err(e) => {
                error = Some(format!("receive failed: {e}"));
                break;
            }
        }
    }
    Driven { replies, started, finished: Instant::now(), lag_us: Vec::new(), error }
}

/// How long before a due time the sender stops sleeping and spins: sleeps
/// overshoot by the timer slack (50 us and more on this box).
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(150);

fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > SPIN_BEFORE_DUE {
            std::thread::sleep(left - SPIN_BEFORE_DUE);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Sends non-`Tick` request `i` at `started + due_us[i]` from a sender
/// thread that never looks at replies; this thread reads them. Latency is
/// timed from the due time, so a stall is charged to every request it delays.
pub fn drive_paced(
    wire: &mut Wire,
    steps: &[Step],
    frames: &[Vec<u8>],
    first_corr: u64,
    due_us: &[u64],
    mut on_reply: impl FnMut(usize, Instant),
) -> Driven {
    let n = steps.len();
    let mut replies: Vec<Option<Reply>> = vec![None; n];
    let mut error = None;
    let mut sender = match wire.sender() {
        Ok(s) => s,
        Err(e) => {
            let now = Instant::now();
            return Driven {
                replies,
                started: now,
                finished: now,
                lag_us: Vec::new(),
                error: Some(format!("clone socket: {e}")),
            };
        }
    };
    let started = Instant::now() + Duration::from_millis(1);
    // Due time of every step: a `Tick` shares the due time of the request it
    // precedes and is written with it.
    let mut due_at: Vec<Instant> = Vec::with_capacity(n);
    let mut op = 0usize;
    for step in steps {
        due_at.push(started + Duration::from_micros(due_us[op.min(due_us.len() - 1)]));
        if step.kind != StepKind::Tick {
            op += 1;
        }
    }
    let lag_us = std::thread::scope(|scope| {
        let due_at = &due_at;
        let handle = scope.spawn(move || -> io::Result<Vec<f64>> {
            let mut lag = Vec::with_capacity(due_us.len());
            let mut batch: Vec<u8> = Vec::new();
            for (i, step) in steps.iter().enumerate() {
                batch.extend_from_slice(&frames[i]);
                if step.kind == StepKind::Tick && i + 1 < n {
                    continue;
                }
                wait_until(due_at[i]);
                lag.push(Instant::now().duration_since(due_at[i]).as_secs_f64() * 1e6);
                sender.write_all(&batch)?;
                batch.clear();
            }
            Ok(lag)
        });
        for _ in 0..n {
            match wire.recv() {
                Ok((corr, body)) => {
                    let received = Instant::now();
                    let index = corr.wrapping_sub(first_corr) as usize;
                    if index >= n {
                        error = Some(format!("reply for unknown correlation id {corr}"));
                        break;
                    }
                    replies[index] = Some(Reply { start: due_at[index], received, body });
                    on_reply(index, received);
                }
                Err(e) => {
                    error = Some(format!("receive failed: {e}"));
                    break;
                }
            }
        }
        match handle.join().expect("sender thread") {
            Ok(lag) => lag,
            Err(e) => {
                error.get_or_insert(format!("send failed: {e}"));
                Vec::new()
            }
        }
    });
    Driven { replies, started, finished: Instant::now(), lag_us, error }
}
