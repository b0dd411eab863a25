//! Deterministic timestamped event queue.
//!
//! A thin wrapper over `BinaryHeap` that pops events in nondecreasing time
//! order and breaks ties by insertion sequence number, so two events scheduled
//! for the same instant always pop in the order they were pushed. This is the
//! property that makes the PFS engine's rank interleaving reproducible.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops first.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Priority queue of `(SimTime, E)` pairs with deterministic FIFO tie-breaking.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    last_popped: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Create an empty queue with room for `n` pending events.
    ///
    /// The PFS engine keeps at most one in-flight event per rank, so sizing
    /// the queue to the rank count up front means the steady-state push/pop
    /// cycle of the simulation loop never reallocates the heap.
    pub fn with_capacity(n: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(n),
            next_seq: 0,
            last_popped: SimTime::ZERO,
        }
    }

    /// Remove all pending events and rewind the clock to [`SimTime::ZERO`],
    /// keeping the heap's allocation so the queue can be reused for another
    /// run without reallocating.
    ///
    /// The sequence counter restarts too: a cleared queue breaks
    /// `(time, seq)` ties in exactly the order a fresh queue would.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.next_seq = 0;
        self.last_popped = SimTime::ZERO;
    }

    /// Number of pending events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Schedule `event` at `time`.
    ///
    /// # Panics
    /// In debug builds, panics if `time` is earlier than the last popped event
    /// (scheduling into the past breaks causality).
    pub fn push(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.last_popped,
            "event scheduled into the past: {time} < {}",
            self.last_popped
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { time, seq, event });
    }

    /// Pop the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        self.last_popped = entry.time;
        Some((entry.time, entry.event))
    }

    /// Pop *every* event sharing the earliest pending timestamp, appending
    /// them to `out` in FIFO sequence order, and return that timestamp.
    /// Returns `None` (and leaves `out` untouched) when the queue is empty.
    ///
    /// This is the batch form of [`pop`](Self::pop) for simulation loops that
    /// process events one virtual instant at a time. It is observationally
    /// identical to calling `pop` in a loop while the head's time equals the
    /// first popped time, under one condition the debug-build push assertion
    /// already enforces: events pushed *while processing* the batch are
    /// scheduled at or after the batch's timestamp, and any pushed exactly at
    /// it carry a later sequence number than every drained member — so they
    /// pop in a subsequent drain of the same instant, exactly where the
    /// one-at-a-time loop would deliver them.
    ///
    /// The caller owns `out`'s lifecycle (typically `clear()` + reuse across
    /// iterations), so the steady-state loop does no per-instant allocation.
    ///
    /// ```
    /// use simcore::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// let t = SimTime::from_secs(1);
    /// q.push(t, "a");
    /// q.push(SimTime::from_secs(2), "later");
    /// q.push(t, "b");
    ///
    /// let mut batch = Vec::new();
    /// assert_eq!(q.pop_run_into(&mut batch), Some(t));
    /// assert_eq!(batch, vec!["a", "b"]); // FIFO within the instant
    /// assert_eq!(q.len(), 1); // "later" stays queued
    /// ```
    pub fn pop_run_into(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        let first = self.heap.peek()?.time;
        self.last_popped = first;
        while let Some(head) = self.heap.peek() {
            if head.time != first {
                break;
            }
            let entry = self.heap.pop().expect("peeked entry must pop");
            out.push(entry.event);
        }
        Some(first)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Virtual time of the most recently popped event.
    pub fn now(&self) -> SimTime {
        self.last_popped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::Duration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(3), "c");
        q.push(SimTime::from_secs(1), "a");
        q.push(SimTime::from_secs(2), "b");
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_secs(3), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        for i in 0..100 {
            q.push(t, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(1), 1u32);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(SimTime::from_secs(5), 5);
        q.push(SimTime::from_secs(2), 2);
        assert_eq!(q.pop().unwrap().1, 2);
        q.push(q.now() + Duration::from_secs(1), 3);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 5);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.push(SimTime::ZERO, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    /// Regression pin for the heap-reuse change: `(time, seq)` ties pop in
    /// insertion order through interleaved pushes/pops, a `clear()`, and a
    /// pre-sized queue — the exact property the PFS engine's rank
    /// interleaving depends on.
    #[test]
    fn tie_order_survives_reuse_and_presizing() {
        let mut q = EventQueue::with_capacity(8);
        assert!(q.capacity() >= 8);
        let t = SimTime::from_secs(1);
        q.push(t, 10u32);
        q.push(t, 11);
        assert_eq!(q.pop().unwrap().1, 10);
        q.push(t, 12); // later seq than the pending 11
        assert_eq!(q.pop().unwrap().1, 11);
        assert_eq!(q.pop().unwrap().1, 12);

        // A cleared queue replays ties exactly like a fresh one.
        q.clear();
        assert_eq!(q.now(), SimTime::ZERO);
        let mut fresh = EventQueue::new();
        for (queue, tag) in [(&mut q, "reused"), (&mut fresh, "fresh")] {
            queue.push(t, 2u32);
            queue.push(SimTime::from_secs(2), 4);
            queue.push(t, 3);
            let popped: Vec<u32> = std::iter::from_fn(|| queue.pop().map(|(_, e)| e)).collect();
            assert_eq!(popped, vec![2, 3, 4], "{tag}");
        }

        // Reuse kept the allocation.
        assert!(q.capacity() >= 8);
    }

    /// Regression pin for batched draining: `pop_run_into` must deliver the
    /// exact sequence the one-at-a-time `pop` loop would, including events
    /// pushed *at the drained instant* while the batch is being processed
    /// (they land in a later drain of the same instant, after every member of
    /// the current batch).
    #[test]
    fn batched_drain_matches_serial_pop_order() {
        // Scenario: ranks 0..4 ready at t=1s; processing rank i schedules a
        // follow-up — even ranks at the same instant, odd ranks 1s later.
        let build = || {
            let mut q = EventQueue::new();
            for i in 0..4u32 {
                q.push(SimTime::from_secs(1), i);
            }
            q
        };
        let follow_up = |q: &mut EventQueue<u32>, now: SimTime, ev: u32| {
            if ev < 4 {
                let (delay, tag) = if ev % 2 == 0 {
                    (Duration::ZERO, 10 + ev)
                } else {
                    (Duration::from_secs(1), 20 + ev)
                };
                q.push(now + delay, tag);
            }
        };

        let mut serial = Vec::new();
        let mut q = build();
        while let Some((now, ev)) = q.pop() {
            serial.push((now, ev));
            follow_up(&mut q, now, ev);
        }

        let mut batched = Vec::new();
        let mut q = build();
        let mut batch = Vec::new();
        while let Some(now) = q.pop_run_into(&mut batch) {
            for ev in batch.drain(..) {
                batched.push((now, ev));
                follow_up(&mut q, now, ev);
            }
        }

        assert_eq!(serial, batched);
        // Sanity: same-instant follow-ups really did run at t=1s after the
        // whole original batch, and delayed ones at t=2s.
        let t1: Vec<u32> = serial
            .iter()
            .filter(|(t, _)| *t == SimTime::from_secs(1))
            .map(|&(_, e)| e)
            .collect();
        assert_eq!(t1, vec![0, 1, 2, 3, 10, 12]);
    }

    #[test]
    fn pop_run_into_on_empty_queue_is_none() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let mut batch = vec![7u8]; // pre-existing contents must survive
        assert_eq!(q.pop_run_into(&mut batch), None);
        assert_eq!(batch, vec![7]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_secs(2), ());
        q.pop();
        q.push(SimTime::from_secs(1), ());
    }
}
