//! Algorithm 1 — the adaptive checkpointing controller — and Theorem 2, its
//! correctness argument.
//!
//! The controller tracks a task's productive progress and decides *when to
//! checkpoint*. Per **Theorem 2**, the optimal positions for the remaining
//! work change **iff** the task's MNOF changed during the last interval
//! (e.g. its priority was re-tuned): if MNOF is unchanged, the previously
//! computed spacing stays optimal and the interval count simply decrements
//! (`X(k+1) = X(k) − 1`); if it changed, the controller re-solves Formula (3)
//! for the remaining workload.
//!
//! The controller is deliberately I/O-free: the simulator (or a real system)
//! drives it with productive-time advancement and completion callbacks, and
//! it answers with [`CheckpointDecision`]s. This mirrors Algorithm 1's
//! countdown loop without imposing a polling thread.

use crate::optimal::{optimal_interval_count, scale_mnof};
use crate::{PolicyError, Result};

/// What the controller wants the executor to do after a progress update.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CheckpointDecision {
    /// Keep executing; next checkpoint is `at_progress` units of productive
    /// time from task start (absolute position).
    RunUntil {
        /// Absolute productive-time position of the next checkpoint.
        at_progress: f64,
    },
    /// Run to completion; no further checkpoints are scheduled.
    RunToCompletion,
}

/// The adaptive (or, with adaptivity disabled, static) checkpoint controller
/// of Algorithm 1.
#[derive(Debug, Clone)]
pub struct AdaptiveCheckpointer {
    /// Per-checkpoint cost `C` (seconds).
    c: f64,
    /// Full productive length `Te`.
    te_total: f64,
    /// MNOF over the *full* task, as currently believed.
    mnof_full: f64,
    /// Productive progress made and durably checkpointed or completed.
    progress: f64,
    /// Segment length currently in force.
    segment: f64,
    /// Absolute position of the next checkpoint (None ⇒ run to completion).
    next_ckpt: Option<f64>,
    /// If false, MNOF updates are ignored — the "static algorithm" the paper
    /// compares against in Figure 14.
    adaptive: bool,
    /// Count of re-solves triggered by MNOF changes (observability).
    resolves: u32,
}

impl AdaptiveCheckpointer {
    /// Create a controller for a task with productive length `te`,
    /// checkpoint cost `c`, and full-task MNOF `mnof`.
    pub fn new(te: f64, c: f64, mnof: f64) -> Result<Self> {
        Self::with_adaptivity(te, c, mnof, true)
    }

    /// Create a *static* controller: the checkpoint spacing computed at task
    /// start is kept even if MNOF later changes (Figure 14's baseline).
    pub fn new_static(te: f64, c: f64, mnof: f64) -> Result<Self> {
        Self::with_adaptivity(te, c, mnof, false)
    }

    fn with_adaptivity(te: f64, c: f64, mnof: f64, adaptive: bool) -> Result<Self> {
        if !(te.is_finite() && te > 0.0) {
            return Err(PolicyError::BadInput {
                what: "te",
                value: te,
            });
        }
        if !(c.is_finite() && c > 0.0) {
            return Err(PolicyError::BadInput {
                what: "c",
                value: c,
            });
        }
        if !(mnof.is_finite() && mnof >= 0.0) {
            return Err(PolicyError::BadInput {
                what: "mnof",
                value: mnof,
            });
        }
        let mut s = Self {
            c,
            te_total: te,
            mnof_full: mnof,
            progress: 0.0,
            segment: te,
            next_ckpt: None,
            adaptive,
            resolves: 0,
        };
        s.solve_from_current();
        Ok(s)
    }

    /// Re-solve Formula (3) for the remaining workload and reset the spacing.
    fn solve_from_current(&mut self) {
        let remaining = (self.te_total - self.progress).max(0.0);
        if remaining <= 0.0 {
            self.next_ckpt = None;
            return;
        }
        // Expected failures over the remaining work, proportional scaling
        // (the E_k(Y) = Tr(k)/Tr(0)·E_0(Y) step in Theorem 2's proof).
        let e_rem = scale_mnof(self.mnof_full, self.te_total, remaining)
            .expect("validated at construction");
        let x = match optimal_interval_count(remaining, self.c, e_rem) {
            Ok(x) => x.rounded(),
            Err(_) => 1,
        };
        self.segment = remaining / x as f64;
        self.next_ckpt = if x <= 1 {
            None
        } else {
            Some(self.progress + self.segment)
        };
    }

    /// Current checkpoint decision.
    pub fn decision(&self) -> CheckpointDecision {
        match self.next_ckpt {
            Some(p) if p < self.te_total => CheckpointDecision::RunUntil { at_progress: p },
            _ => CheckpointDecision::RunToCompletion,
        }
    }

    /// The executor reports that a checkpoint completed at productive
    /// position `at_progress` (durable progress). Per Theorem 2, if MNOF is
    /// unchanged the spacing is kept (`X` decrements implicitly); the next
    /// checkpoint is one segment further.
    pub fn on_checkpoint_complete(&mut self, at_progress: f64) {
        self.progress = at_progress.clamp(0.0, self.te_total);
        let candidate = self.progress + self.segment;
        // Tolerate FP drift: if the candidate lands within half a segment of
        // the task end, run to completion instead of a vanishing segment.
        self.next_ckpt = if candidate + 0.5 * self.segment >= self.te_total {
            None
        } else {
            Some(candidate)
        };
    }

    /// The executor reports a failure rolled the task back to durable
    /// progress `at_progress` (the last checkpoint or 0). The schedule for
    /// the re-executed work keeps the same spacing — the failure does not
    /// change MNOF by itself.
    pub fn on_rollback(&mut self, at_progress: f64) {
        self.progress = at_progress.clamp(0.0, self.te_total);
        let candidate = self.progress + self.segment;
        self.next_ckpt = if candidate + 0.5 * self.segment >= self.te_total {
            None
        } else {
            Some(candidate)
        };
    }

    /// The task's failure statistics changed (e.g. priority re-tuned):
    /// update the full-task MNOF. An adaptive controller re-solves for the
    /// remaining workload (Algorithm 1 lines 9–12); a static one ignores it.
    ///
    /// Returns `true` if the schedule was re-solved.
    pub fn update_mnof(&mut self, mnof_full: f64) -> bool {
        if !(self.adaptive && mnof_full.is_finite() && mnof_full >= 0.0) {
            return false;
        }
        if (mnof_full - self.mnof_full).abs() < f64::EPSILON * self.mnof_full.abs() {
            // Theorem 2: unchanged MNOF ⇒ positions stay optimal; do nothing.
            return false;
        }
        self.mnof_full = mnof_full;
        self.resolves += 1;
        self.solve_from_current();
        true
    }

    /// Durable productive progress (work that survives a failure).
    #[inline]
    pub fn progress(&self) -> f64 {
        self.progress
    }

    /// Current segment length in force.
    #[inline]
    pub fn segment(&self) -> f64 {
        self.segment
    }

    /// Current full-task MNOF belief.
    #[inline]
    pub fn mnof(&self) -> f64 {
        self.mnof_full
    }

    /// How many times an MNOF change forced a re-solve.
    #[inline]
    pub fn resolve_count(&self) -> u32 {
        self.resolves
    }
}

/// Theorem 2, checked numerically: with unchanged MNOF, the optimal interval
/// count recomputed at the (k+1)-st checkpoint equals the count at the k-th
/// minus one. Returns `(x_k, x_k_plus_1_recomputed)` for inspection.
pub fn theorem2_check(te: f64, c: f64, mnof: f64, k: u32) -> Result<(f64, f64)> {
    if !(te.is_finite() && te > 0.0) {
        return Err(PolicyError::BadInput {
            what: "te",
            value: te,
        });
    }
    if !(c.is_finite() && c > 0.0) {
        return Err(PolicyError::BadInput {
            what: "c",
            value: c,
        });
    }
    if !(mnof.is_finite() && mnof > 0.0) {
        return Err(PolicyError::BadInput {
            what: "mnof",
            value: mnof,
        });
    }
    // Continuous X* at the k-th checkpoint, with Tr(k) the remaining length.
    let x0 = (te * mnof / (2.0 * c)).sqrt();
    // Remaining work after k segments of the *current* schedule: the paper's
    // setting has Tr(k+1) = Tr(k)·(X−1)/X repeatedly.
    let mut tr = te;
    let mut x = x0;
    for _ in 0..k {
        tr *= (x - 1.0) / x;
        x -= 1.0;
    }
    let e_rem = mnof * tr / te;
    let x_k = (tr * e_rem / (2.0 * c)).sqrt();
    // One more segment:
    let tr_next = tr * (x_k - 1.0) / x_k;
    let e_next = mnof * tr_next / te;
    let x_next = (tr_next * e_next / (2.0 * c)).sqrt();
    Ok((x_k, x_next))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn theorem2_decrement_invariant() {
        // X(k+1) = X(k) − 1 for unchanged MNOF, at every k.
        for k in 0..5 {
            let (xk, xk1) = theorem2_check(1000.0, 1.0, 8.0, k).unwrap();
            assert!((xk1 - (xk - 1.0)).abs() < 1e-9, "k={k}: {xk} → {xk1}");
        }
    }

    #[test]
    fn theorem2_breaks_when_mnof_changes() {
        // Same remaining-work geometry but with a doubled MNOF: the
        // recomputed count is NOT x−1.
        let (xk, _) = theorem2_check(1000.0, 1.0, 8.0, 0).unwrap();
        let tr_next = 1000.0 * (xk - 1.0) / xk;
        let e_next_doubled = 16.0 * tr_next / 1000.0;
        let x_next = (tr_next * e_next_doubled / 2.0).sqrt();
        assert!((x_next - (xk - 1.0)).abs() > 0.5);
    }

    #[test]
    fn controller_initial_solution_matches_formula3() {
        // Te=441, C=1, MNOF=2 ⇒ x=21, segment=21 s, first checkpoint at 21 s.
        let ctl = AdaptiveCheckpointer::new(441.0, 1.0, 2.0).unwrap();
        assert!((ctl.segment() - 21.0).abs() < 1e-9);
        match ctl.decision() {
            CheckpointDecision::RunUntil { at_progress } => {
                assert!((at_progress - 21.0).abs() < 1e-9)
            }
            other => panic!("unexpected decision {other:?}"),
        }
    }

    #[test]
    fn spacing_kept_across_checkpoints_without_mnof_change() {
        let mut ctl = AdaptiveCheckpointer::new(441.0, 1.0, 2.0).unwrap();
        let seg = ctl.segment();
        ctl.on_checkpoint_complete(21.0);
        assert_eq!(ctl.segment(), seg); // Theorem 2 fast path: no re-solve
        match ctl.decision() {
            CheckpointDecision::RunUntil { at_progress } => {
                assert!((at_progress - 42.0).abs() < 1e-9)
            }
            other => panic!("unexpected decision {other:?}"),
        }
    }

    #[test]
    fn last_segment_runs_to_completion() {
        let mut ctl = AdaptiveCheckpointer::new(100.0, 2.0, 1.0).unwrap();
        // x* = sqrt(100/4) = 5 ⇒ segment 20; checkpoints at 20,40,60,80.
        for p in [20.0, 40.0, 60.0] {
            ctl.on_checkpoint_complete(p);
            assert!(matches!(
                ctl.decision(),
                CheckpointDecision::RunUntil { .. }
            ));
        }
        ctl.on_checkpoint_complete(80.0);
        assert_eq!(ctl.decision(), CheckpointDecision::RunToCompletion);
    }

    #[test]
    fn zero_mnof_runs_to_completion() {
        let ctl = AdaptiveCheckpointer::new(100.0, 1.0, 0.0).unwrap();
        assert_eq!(ctl.decision(), CheckpointDecision::RunToCompletion);
    }

    #[test]
    fn rollback_keeps_spacing() {
        let mut ctl = AdaptiveCheckpointer::new(100.0, 2.0, 1.0).unwrap();
        ctl.on_checkpoint_complete(20.0);
        ctl.on_rollback(20.0); // failure at, say, progress 33 rolls back to 20
        match ctl.decision() {
            CheckpointDecision::RunUntil { at_progress } => {
                assert!((at_progress - 40.0).abs() < 1e-9)
            }
            other => panic!("unexpected decision {other:?}"),
        }
    }

    #[test]
    fn mnof_update_resolves_adaptive_only() {
        let mut adaptive = AdaptiveCheckpointer::new(400.0, 1.0, 2.0).unwrap();
        let mut fixed = AdaptiveCheckpointer::new_static(400.0, 1.0, 2.0).unwrap();
        adaptive.on_checkpoint_complete(adaptive.segment());
        fixed.on_checkpoint_complete(fixed.segment());
        let seg_before = adaptive.segment();

        assert!(adaptive.update_mnof(8.0));
        assert!(!fixed.update_mnof(8.0));
        assert_eq!(adaptive.resolve_count(), 1);
        assert_eq!(fixed.resolve_count(), 0);
        // 4× MNOF ⇒ roughly half the segment length for remaining work.
        assert!(
            adaptive.segment() < seg_before * 0.7,
            "{}",
            adaptive.segment()
        );
        assert_eq!(fixed.segment(), seg_before);
    }

    #[test]
    fn unchanged_mnof_update_is_noop() {
        let mut ctl = AdaptiveCheckpointer::new(400.0, 1.0, 2.0).unwrap();
        assert!(!ctl.update_mnof(2.0));
        assert_eq!(ctl.resolve_count(), 0);
    }

    #[test]
    fn construction_rejects_bad_inputs() {
        assert!(AdaptiveCheckpointer::new(0.0, 1.0, 1.0).is_err());
        assert!(AdaptiveCheckpointer::new(10.0, 0.0, 1.0).is_err());
        assert!(AdaptiveCheckpointer::new(10.0, 1.0, -1.0).is_err());
    }

    #[test]
    fn theorem2_check_rejects_bad_inputs() {
        assert!(theorem2_check(0.0, 1.0, 1.0, 0).is_err());
        assert!(theorem2_check(1.0, 0.0, 1.0, 0).is_err());
        assert!(theorem2_check(1.0, 1.0, 0.0, 0).is_err());
    }
}
