//! The discrete-event queue: a binary heap ordered on `(time, sequence)`.
//!
//! Sequence numbers break time ties in insertion order, which — combined
//! with integer [`SimTime`] — makes event processing deterministic.
//!
//! [`FastQueue`] is an indexed Vec-backed binary heap whose entries carry
//! one packed `(time, seq)` `u128` key, with no liveness bookkeeping at
//! all. Engines built on it (see [`crate::cluster`]) invalidate superseded
//! events with epoch/generation counters checked at dispatch instead of
//! cancelling them, so the pop path is a single sift with inline payloads
//! — no side-table lookups, no allocation growth proportional to events
//! ever scheduled.

use crate::time::SimTime;

/// The hot-path future-event list: a Vec-backed binary heap whose entries
/// are ordered by one packed `(time, seq)` `u128` key.
///
/// Invariants:
///
/// * **Stable tie-breaking** — events scheduled earlier pop first among
///   equal times (`seq` is a monotone insertion counter).
/// * **No cancellation** — superseded events must be ignored by the
///   consumer (epoch/generation checks at dispatch). In exchange, pop is
///   one sift over a dense `Vec` with the payload inline, and memory is
///   proportional to *live* events only.
#[derive(Debug)]
pub struct FastQueue<E> {
    /// Min-heap over `(key, payload)`; `key = time << 64 | seq`.
    heap: Vec<(u128, E)>,
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
    fn key(&mut self, time: SimTime) -> u128 {
        let key = ((time.0 as u128) << 64) | self.next_seq as u128;
        self.next_seq += 1;
        key
    }

    /// Schedule `payload` at `time`.
    #[inline]
    pub fn schedule(&mut self, time: SimTime, payload: E) {
        let key = self.key(time);
        self.heap.push((key, payload));
        // Sift up.
        let mut i = self.heap.len() - 1;
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].0 <= self.heap[i].0 {
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

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let n = self.heap.len();
        if n == 0 {
            return None;
        }
        let (key, payload) = self.heap.swap_remove(0);
        // Sift the (former) last element down from the root.
        let n = self.heap.len();
        let mut i = 0;
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let c = if r < n && self.heap[r].0 < self.heap[l].0 {
                r
            } else {
                l
            };
            if self.heap[i].0 <= self.heap[c].0 {
                break;
            }
            self.heap.swap(i, c);
            i = c;
        }
        Some((SimTime((key >> 64) as u64), payload))
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
        q.schedule(t(3.0), "c");
        q.schedule(t(1.0), "a1");
        q.schedule(t(1.0), "a2");
        q.schedule(t(2.0), "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a1", "a2", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn fast_queue_peek_matches_pop() {
        let mut q = FastQueue::with_capacity(4);
        assert!(q.peek_time().is_none());
        q.schedule(t(5.0), 5);
        q.schedule(t(2.0), 2);
        assert_eq!(q.peek_time(), Some(t(2.0)));
        assert_eq!(q.pop().unwrap(), (t(2.0), 2));
        assert_eq!(q.peek_time(), Some(t(5.0)));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn fast_queue_matches_a_stable_sort_reference() {
        // The queue must pop exactly what a linear scan for the earliest
        // `(time, insertion order)` pending entry picks, including
        // tie-breaks, for any interleaving of schedules and pops.
        let mut fast = FastQueue::new();
        let mut reference: Vec<(SimTime, u64)> = Vec::new();
        let pop_reference = |pending: &mut Vec<(SimTime, u64)>| {
            let i = (0..pending.len()).min_by_key(|&i| pending[i])?;
            Some(pending.swap_remove(i))
        };
        let mut mix: u64 = 0x9E3779B97F4A7C15;
        for i in 0..5_000u64 {
            mix = mix.wrapping_mul(6364136223846793005).wrapping_add(1);
            let time = SimTime(mix % 997);
            fast.schedule(time, i);
            reference.push((time, i));
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
