//! The discrete-event queue: a binary heap ordered on `(time, sched, seq)`.
//!
//! `time` is when the event fires, `sched` the engine time at which it was
//! scheduled, and `seq` a monotone insertion counter. With integer
//! [`SimTime`] the order is total, which makes event processing
//! deterministic.
//!
//! An engine that schedules every event while processing the event
//! before it gets the plain `(time, seq)` order from this key: `seq` is
//! assigned in processing order and processing never goes back in time,
//! so `seq` already orders `sched`. The `sched` part matters to an engine
//! that schedules an event *ahead* of the moment it logically belongs to
//! — the cluster engine's checkpoint chains (see [`crate::cluster`]) —
//! and keys it with that later moment: it then pops after every event
//! scheduled before that moment, where a plain insertion counter would
//! pop it first on a time tie.
//!
//! [`FastQueue`] is an indexed Vec-backed binary heap whose entries carry
//! the key and the payload inline, with no liveness bookkeeping at all.
//! Engines built on it invalidate superseded events with epoch/generation
//! counters checked at dispatch instead of cancelling them, so the pop
//! path is a single sift — no side-table lookups, no allocation growth
//! proportional to events ever scheduled.

use crate::time::SimTime;

/// The packed `(time, sched)` part of an event's queue key: `time` in the
/// high 64 bits, `sched` in the low ones.
#[inline]
pub(crate) fn key(time: SimTime, sched: SimTime) -> u128 {
    ((time.0 as u128) << 64) | sched.0 as u128
}

/// The hot-path future-event list: a Vec-backed binary heap whose entries
/// are ordered by `(time, sched, seq)`.
///
/// Invariants:
///
/// * **Stable tie-breaking** — among equal `(time, sched)`, events
///   scheduled earlier pop first (`seq` is a monotone insertion counter).
/// * **No cancellation** — superseded events must be ignored by the
///   consumer (epoch/generation checks at dispatch). In exchange, pop is
///   one sift over a dense `Vec` with the payload inline, and memory is
///   proportional to *live* events only.
#[derive(Debug)]
pub struct FastQueue<E> {
    /// Min-heap over `(key, seq, payload)`; `key = time << 64 | sched`.
    heap: Vec<(u128, u64, E)>,
    next_seq: u64,
}

impl<E> Default for FastQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> FastQueue<E> {
    /// Empty queue.
    pub fn new() -> Self {
        Self {
            heap: Vec::new(),
            next_seq: 0,
        }
    }

    /// Empty queue with room for `n` events before reallocating.
    pub fn with_capacity(n: usize) -> Self {
        Self {
            heap: Vec::with_capacity(n),
            next_seq: 0,
        }
    }

    #[inline]
    fn less(a: &(u128, u64, E), b: &(u128, u64, E)) -> bool {
        (a.0, a.1) < (b.0, b.1)
    }

    /// Schedule `payload` at `time`, keyed as scheduled at `sched`.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, sched: SimTime, payload: E) {
        debug_assert!(sched <= time, "event scheduled into its own past");
        self.heap.push((key(time, sched), self.next_seq, payload));
        self.next_seq += 1;
        // Sift up.
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::less(&self.heap[i], &self.heap[parent]) {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    /// Earliest pending event time, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| SimTime((e.0 >> 64) as u64))
    }

    /// Pop the earliest event as `(time, sched, payload)`.
    pub fn pop(&mut self) -> Option<(SimTime, SimTime, E)> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        let (key, _, payload) = self.heap.swap_remove(0);
        // Sift the (former) last element down from the root.
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && Self::less(&self.heap[r], &self.heap[l]) {
                r
            } else {
                l
            };
            if !Self::less(&self.heap[c], &self.heap[i]) {
                break;
            }
            self.heap.swap(i, c);
            i = c;
        }
        Some((SimTime((key >> 64) as u64), SimTime(key as u64), payload))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn fast_queue_pops_in_time_order_with_stable_ties() {
        let mut q = FastQueue::new();
        q.schedule(t(3.0), t(0.0), "c");
        q.schedule(t(1.0), t(0.0), "a1");
        q.schedule(t(1.0), t(0.0), "a2");
        q.schedule(t(2.0), t(0.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, _, p)| p)).collect();
        assert_eq!(order, vec!["a1", "a2", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn a_later_sched_pops_after_on_a_time_tie() {
        // Scheduled first but keyed as scheduled at 0.5 s: it pops after
        // the event scheduled at 0.2 s for the same time, and before one
        // scheduled at 0.5 s after it.
        let mut q = FastQueue::new();
        q.schedule(t(1.0), t(0.5), "ahead");
        q.schedule(t(1.0), t(0.2), "early");
        q.schedule(t(1.0), t(0.5), "late");
        assert_eq!(q.pop(), Some((t(1.0), t(0.2), "early")));
        assert_eq!(q.pop(), Some((t(1.0), t(0.5), "ahead")));
        assert_eq!(q.pop(), Some((t(1.0), t(0.5), "late")));
    }

    #[test]
    fn fast_queue_peek_matches_pop() {
        let mut q = FastQueue::with_capacity(4);
        assert!(q.peek_time().is_none());
        q.schedule(t(5.0), t(1.0), 5);
        q.schedule(t(2.0), t(1.0), 2);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.pop().unwrap(), (t(2.0), t(1.0), 2));
        assert_eq!(q.peek_time(), Some(t(5.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn fast_queue_matches_a_stable_sort_reference() {
        // The queue must pop exactly what a linear scan for the earliest
        // `(time, sched, insertion order)` pending entry picks, including
        // tie-breaks, for any interleaving of schedules and pops.
        let mut fast = FastQueue::new();
        let mut reference: Vec<(SimTime, SimTime, u64)> = Vec::new();
        let pop_reference = |pending: &mut Vec<(SimTime, SimTime, u64)>| {
            let i = (0..pending.len()).min_by_key(|&i| pending[i])?;
            Some(pending.swap_remove(i))
        };
        let mut mix: u64 = 0x9E3779B97F4A7C15;
        for i in 0..5_000u64 {
            mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1);
            let time = SimTime(mix % 997);
            let sched = SimTime((mix >> 32) % 3 * time.0 / 2);
            fast.schedule(time, sched, i);
            reference.push((time, sched, i));
            if mix.is_multiple_of(3) {
                assert_eq!(fast.pop(), pop_reference(&mut reference));
            }
        }
        loop {
            let f = fast.pop();
            assert_eq!(f, pop_reference(&mut reference));
            if f.is_none() {
                break;
            }
        }
        assert!(fast.is_empty() && fast.peek_time().is_none());
    }
}
