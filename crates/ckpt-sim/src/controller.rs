//! Checkpoint controllers: the bridge between a *policy* (which formula,
//! static or adaptive) and the *executor* (the task simulation), expressed
//! entirely in productive-progress positions.

use ckpt_policy::adaptive::{AdaptiveCheckpointer, CheckpointDecision};
use ckpt_policy::schedule::EquidistantSchedule;

/// What the task executor asks of a checkpoint controller, in
/// productive-progress positions. The fast-path executor
/// ([`crate::task_sim`]) is generic over it, so each controller kind runs
/// its own monomorphized copy of the one task loop; the cluster DES drives
/// the [`Controller`] enum through the same calls.
pub trait Schedule {
    /// Absolute productive position of the next checkpoint, strictly after
    /// the durable progress; `None` ⇒ run to completion.
    fn next_checkpoint(&self) -> Option<f64>;

    /// The checkpoint [`Self::next_checkpoint`] handed out completed:
    /// durable progress is now its position `pos`.
    fn on_checkpoint_complete(&mut self, pos: f64);

    /// A failure rolled the task back to durable progress `pos`.
    fn on_rollback(&mut self, pos: f64);

    /// The task's full-task MNOF belief changed (priority flip). Fixed
    /// controllers ignore it (the paper's "static algorithm"); adaptive
    /// controllers re-solve (Algorithm 1). Returns whether a re-solve
    /// happened.
    fn on_mnof_change(&mut self, mnof_full: f64) -> bool;
}

/// A fixed equidistant schedule: positions `i·w` for `i = 1..=count`
/// (Young, Daly, and the static Formula (3) variant all use this).
///
/// Stored as `(segment length, count, cursor)` rather than a materialized
/// position `Vec`: positions are recomputed with the *same* float
/// expression [`EquidistantSchedule::positions`] uses (`i·w`), so the
/// values are bit-identical to the materialized schedule while
/// construction is allocation-free. The cursor caches its position, so
/// the innermost replay loop reads the next checkpoint and steps past a
/// completed one with one multiply per checkpoint.
#[derive(Debug, Clone)]
pub struct FixedSchedule {
    /// Segment length `Te/x`.
    w: f64,
    /// Number of checkpoints (`x − 1`).
    count: u32,
    /// Index of the first position strictly after durable progress
    /// (0-based: position `i` is `(i+1)·w`).
    next_idx: u32,
    /// Invariant: `next_pos == position(next_idx)`.
    next_pos: f64,
}

impl FixedSchedule {
    /// Build from an equidistant schedule.
    pub fn new(schedule: &EquidistantSchedule) -> Self {
        Self::with_segments(schedule.segment_len(), schedule.checkpoint_count())
    }

    /// Build with no checkpoints at all.
    pub fn none() -> Self {
        Self::with_segments(0.0, 0)
    }

    fn with_segments(w: f64, count: u32) -> Self {
        Self {
            w,
            count,
            next_idx: 0,
            next_pos: w, // position(0) = 1·w, exactly w
        }
    }

    /// Position `i` (0-based): `(i+1)·w`, the exact expression
    /// [`EquidistantSchedule::positions`] evaluates.
    #[inline]
    fn position(&self, i: u32) -> f64 {
        (i + 1) as f64 * self.w
    }

    /// Forward step: move the cursor past every position `<= p`.
    /// Precondition: `p` is not behind the cursor (`p >= position(next_idx
    /// − 1)`), which holds for a checkpoint completing at the position
    /// this schedule handed out.
    #[inline]
    fn advance_past(&mut self, p: f64) {
        while self.next_idx < self.count && self.next_pos <= p {
            self.next_idx += 1;
            self.next_pos = self.position(self.next_idx);
        }
    }

    /// Re-point the cursor at the first position strictly after an
    /// arbitrary `p` — the incremental equivalent of
    /// `partition_point(|&q| q <= p)` over the materialized positions. A
    /// `p` behind the cursor rescans from 0.
    fn seek(&mut self, p: f64) {
        if self.next_idx > 0 && self.position(self.next_idx - 1) > p {
            self.next_idx = 0;
            self.next_pos = self.position(0);
        }
        self.advance_past(p);
    }
}

impl Schedule for FixedSchedule {
    #[inline]
    fn next_checkpoint(&self) -> Option<f64> {
        (self.next_idx < self.count).then_some(self.next_pos)
    }

    #[inline]
    fn on_checkpoint_complete(&mut self, pos: f64) {
        // A checkpoint completing at the cursor's own position cannot
        // trigger `seek`'s reset, so the cursor only steps forward.
        debug_assert!(
            self.next_idx == 0 || self.position(self.next_idx - 1) <= pos,
            "checkpoint at {pos} completed behind the cursor"
        );
        self.advance_past(pos);
    }

    fn on_rollback(&mut self, pos: f64) {
        self.seek(pos);
    }

    fn on_mnof_change(&mut self, _mnof_full: f64) -> bool {
        false
    }
}

impl Schedule for AdaptiveCheckpointer {
    #[inline]
    fn next_checkpoint(&self) -> Option<f64> {
        match self.decision() {
            CheckpointDecision::RunUntil { at_progress } => Some(at_progress),
            CheckpointDecision::RunToCompletion => None,
        }
    }

    fn on_checkpoint_complete(&mut self, pos: f64) {
        AdaptiveCheckpointer::on_checkpoint_complete(self, pos);
    }

    fn on_rollback(&mut self, pos: f64) {
        AdaptiveCheckpointer::on_rollback(self, pos);
    }

    fn on_mnof_change(&mut self, mnof_full: f64) -> bool {
        self.update_mnof(mnof_full)
    }
}

/// The controller driving one task's checkpoints.
#[derive(Debug, Clone)]
pub enum Controller {
    /// Positions fixed at task start.
    Fixed(FixedSchedule),
    /// The paper's Algorithm 1 (re-solves on MNOF change).
    Adaptive(AdaptiveCheckpointer),
}

impl Schedule for Controller {
    fn next_checkpoint(&self) -> Option<f64> {
        match self {
            Controller::Fixed(f) => f.next_checkpoint(),
            Controller::Adaptive(a) => a.next_checkpoint(),
        }
    }

    fn on_checkpoint_complete(&mut self, pos: f64) {
        match self {
            Controller::Fixed(f) => f.on_checkpoint_complete(pos),
            Controller::Adaptive(a) => a.on_checkpoint_complete(pos),
        }
    }

    fn on_rollback(&mut self, pos: f64) {
        match self {
            Controller::Fixed(f) => f.on_rollback(pos),
            Controller::Adaptive(a) => a.on_rollback(pos),
        }
    }

    fn on_mnof_change(&mut self, mnof_full: f64) -> bool {
        match self {
            Controller::Fixed(f) => f.on_mnof_change(mnof_full),
            Controller::Adaptive(a) => a.on_mnof_change(mnof_full),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixed(te: f64, x: u32) -> Controller {
        Controller::Fixed(FixedSchedule::new(
            &EquidistantSchedule::new(te, x).unwrap(),
        ))
    }

    #[test]
    fn fixed_walks_positions() {
        let mut c = fixed(100.0, 4); // 25, 50, 75
        assert_eq!(c.next_checkpoint(), Some(25.0));
        c.on_checkpoint_complete(25.0);
        assert_eq!(c.next_checkpoint(), Some(50.0));
        c.on_checkpoint_complete(50.0);
        c.on_checkpoint_complete(75.0);
        assert_eq!(c.next_checkpoint(), None);
    }

    #[test]
    fn fixed_rollback_repeats_position() {
        let mut c = fixed(100.0, 4);
        c.on_checkpoint_complete(25.0);
        assert_eq!(c.next_checkpoint(), Some(50.0));
        // Failure between 25 and 50: still aiming for 50 after rollback.
        c.on_rollback(25.0);
        assert_eq!(c.next_checkpoint(), Some(50.0));
        // Failure before the first checkpoint ever completes:
        let mut c2 = fixed(100.0, 4);
        c2.on_rollback(0.0);
        assert_eq!(c2.next_checkpoint(), Some(25.0));
    }

    #[test]
    fn none_never_checkpoints() {
        let mut c = Controller::Fixed(FixedSchedule::none());
        assert_eq!(c.next_checkpoint(), None);
        c.on_rollback(0.0);
        assert_eq!(c.next_checkpoint(), None);
    }

    #[test]
    fn fixed_ignores_mnof_changes() {
        let mut c = fixed(100.0, 4);
        assert!(!c.on_mnof_change(50.0));
        assert_eq!(c.next_checkpoint(), Some(25.0));
    }

    #[test]
    fn adaptive_resolves_on_mnof_change() {
        let a = AdaptiveCheckpointer::new(400.0, 1.0, 2.0).unwrap();
        let mut c = Controller::Adaptive(a);
        let first = c.next_checkpoint().unwrap();
        assert!(c.on_mnof_change(32.0)); // 16× failures ⇒ 4× checkpoints
        let new_first = c.next_checkpoint().unwrap();
        assert!(new_first < first, "{new_first} vs {first}");
    }
}
