//! The engine's pending-event set: a binary heap of `(time, seq)` keys.
//!
//! Entries pop in strictly increasing `(time, insertion-seq)` order — the
//! engine's determinism contract — and that order holds by construction: the
//! heap compares exactly those two fields. Keys are 16 bytes, so sifting
//! moves little memory; the payloads sit in a side table indexed by `seq`
//! and are never moved. All storage is retained by [`EventQueue::clear`], so
//! a pooled queue allocates only while growing toward a workload's
//! high-water mark.
//!
//! The queue is *monotone*: nothing may be pushed earlier than the clock,
//! and entries leave only at the clock ([`EventQueue::pop_at`]). The engine
//! moves the clock itself ([`EventQueue::advance_to`]) because job arrivals
//! are not queued here — they come from the prepared window's submit-ordered
//! cursor — so the next instant may belong to an arrival alone.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tempo_workload::time::Time;

/// A monotone priority queue over `(Time, insertion-seq)` keys carrying
/// `Copy` payloads.
pub struct EventQueue<T> {
    heap: BinaryHeap<Reverse<(Time, u32)>>,
    /// Payload of the entry pushed `seq`-th since the last clear.
    items: Vec<T>,
    /// The instant entries may currently be popped at; the floor under every
    /// pending entry.
    clock: Time,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self { heap: BinaryHeap::new(), items: Vec::new(), clock: 0 }
    }
}

impl<T: Copy> EventQueue<T> {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Empties the queue, resetting the clock and the sequence counter while
    /// keeping both allocations for the next run.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.items.clear();
        self.clock = 0;
    }

    /// Inserts `item` at `time`. Entries at equal times pop in insertion
    /// order.
    ///
    /// # Panics
    ///
    /// If `time` precedes the clock: a past-time entry could never be popped
    /// at its own instant, so the contract is enforced unconditionally (one
    /// predictable compare per push).
    pub fn push(&mut self, time: Time, item: T) {
        assert!(time >= self.clock, "pushed into the past: {time} < {}", self.clock);
        let seq = u32::try_from(self.items.len()).expect("more than u32::MAX events in one run");
        self.items.push(item);
        self.heap.push(Reverse((time, seq)));
    }

    /// Time of the earliest pending entry.
    pub fn next_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse((time, _))| *time)
    }

    /// Moves the clock forward to `time`.
    ///
    /// # Panics
    ///
    /// If `time` precedes the clock, or if an entry earlier than `time` is
    /// still pending — it would be skipped.
    pub fn advance_to(&mut self, time: Time) {
        assert!(time >= self.clock, "clock moved backwards: {time} < {}", self.clock);
        assert!(
            self.next_time().is_none_or(|next| next >= time),
            "advance_to({time}) skips a pending entry"
        );
        self.clock = time;
    }

    /// Removes and returns the next entry **only if** its time is exactly
    /// `time`, which must be the clock — the engine's same-instant drain.
    ///
    /// # Panics
    ///
    /// If `time` is not the clock.
    pub fn pop_at(&mut self, time: Time) -> Option<T> {
        assert!(time == self.clock, "pop_at({time}) off the clock {}", self.clock);
        match self.heap.peek() {
            Some(&Reverse((t, seq))) if t == time => {
                self.heap.pop();
                Some(self.items[seq as usize])
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains everything pending, one instant at a time.
    fn drain<T: Copy>(q: &mut EventQueue<T>) -> Vec<(Time, T)> {
        let mut out = Vec::new();
        while let Some(t) = q.next_time() {
            q.advance_to(t);
            while let Some(item) = q.pop_at(t) {
                out.push((t, item));
            }
        }
        out
    }

    #[test]
    fn pops_in_time_then_insertion_order() {
        let mut q = EventQueue::new();
        for (seq, t) in [5, 3, 3, 9, 3, 1, 1, 9, 0].into_iter().enumerate() {
            q.push(t, seq);
        }
        assert_eq!(
            drain(&mut q),
            vec![(0, 8), (1, 5), (1, 6), (3, 1), (3, 2), (3, 4), (5, 0), (9, 3), (9, 7)]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn pop_at_drains_only_the_current_instant() {
        let mut q = EventQueue::new();
        q.push(10, 'a');
        q.push(10, 'b');
        q.push(11, 'c');
        q.advance_to(10);
        assert_eq!(q.pop_at(10), Some('a'));
        // An entry pushed at the clock joins the drain, after its elders.
        q.push(10, 'd');
        assert_eq!(q.pop_at(10), Some('b'));
        assert_eq!(q.pop_at(10), Some('d'));
        assert_eq!(q.pop_at(10), None, "next entry is later");
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn clear_restarts_the_clock_and_the_sequence_space() {
        let mut q = EventQueue::new();
        for i in 0..1000u64 {
            q.push(i * 1000, i);
        }
        q.advance_to(0);
        assert_eq!(q.pop_at(0), Some(0));
        q.clear();
        assert!(q.is_empty());
        q.push(3, 77);
        q.push(1, 88);
        assert_eq!(drain(&mut q), vec![(1, 88), (3, 77)]);
    }
}
