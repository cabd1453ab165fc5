//! The per-task checkpoint/failure execution model — the heart of every WPR
//! experiment.
//!
//! A task needs `Te` seconds of productive work. Its failures are
//! **pre-planned kill events** at fixed busy-time positions (busy time =
//! time the task is actually executing or checkpointing), replaying the
//! paper's methodology: "any running task would be killed by `kill -9` from
//! time to time based on the kill/evict/failure events recorded in the
//! trace". Because the kill plan is drawn from the task's dedicated RNG
//! stream, *every policy replays the same kills*, which is what makes the
//! paper's paired comparisons (Figure 13) exact.
//!
//! When a kill fires, the task loses all progress since its last durable
//! checkpoint, pays the restart cost, and resumes. Checkpoints pause
//! productive work for the per-checkpoint cost `C`; a checkpoint becomes
//! durable only when it completes (a kill mid-write aborts it).
//!
//! Wall-clock accounting matches the paper's Formula (1): wall = productive
//! time + checkpoint costs + rollback losses + restart costs.
//!
//! This module is the *fast path*'s executor: it advances one task
//! analytically from kill to kill with no event queue at all. The cluster
//! engine ([`crate::cluster`]) runs the same per-task model as discrete
//! events, so that scheduling, storage contention, and host failures can
//! interleave between tasks. Both engines call the transitions defined
//! here (`next_checkpoint_in`, and `TaskOutcome`'s `roll_back`,
//! `abort_checkpoint` and `complete_checkpoint`) and keep only their own
//! clocks; `fast_path_and_cluster_des_agree_per_job` in
//! `tests/end_to_end.rs` checks that they give every job the same outcome
//! on a fleet where nothing queues. They differ in the tie rule alone: this
//! loop's kill tests (`tf < run_needed`, `tf < ckpt_cost`) are strict, so a
//! kill exactly at a phase's end lands in the next phase, while the DES
//! lets the kill win the tie.

use crate::controller::{Controller, Schedule};
use ckpt_stats::rng::Rng64;
use ckpt_trace::failure::{sample_task_plan_into, FailureModelSpec};
use ckpt_trace::spec::{FailureModel, FailurePlan};

/// A planned mid-execution priority flip, as the executor sees it.
#[derive(Debug, Clone, Copy)]
pub struct ExecFlip {
    /// Productive-progress position at which the flip occurs (first
    /// crossing; rollbacks do not re-trigger it).
    pub at_progress: f64,
    /// Priority in force after the flip: the remaining kill plan is
    /// re-drawn for it over the remaining work.
    pub new_priority: u8,
    /// The failure model the re-draw samples under — the same model the
    /// rest of the trace replays (the default routes through the legacy
    /// calibrated sampler, draw for draw).
    pub model: FailureModelSpec,
    /// New full-task MNOF belief handed to the controller (adaptive
    /// controllers re-solve; static ones ignore it). `None` ⇒ the policy is
    /// not informed (failure behaviour changes but the schedule keeps its
    /// old belief).
    pub new_mnof_full: Option<f64>,
}

/// Immutable inputs of one task execution.
#[derive(Debug, Clone, Copy)]
pub struct TaskSimSpec {
    /// Productive length `Te` (seconds).
    pub te: f64,
    /// Per-checkpoint wall-clock cost `C` (seconds).
    pub ckpt_cost: f64,
    /// Per-restart cost `R` (seconds).
    pub restart_cost: f64,
}

/// What happened during one task execution.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct TaskOutcome {
    /// Total wall-clock from start to completion (seconds).
    pub wall: f64,
    /// Productive work completed (= `Te`).
    pub productive: f64,
    /// Failures endured.
    pub failures: u32,
    /// Checkpoints completed (durable).
    pub checkpoints: u32,
    /// Checkpoints aborted by a failure mid-write.
    pub aborted_checkpoints: u32,
    /// Total productive work lost to rollbacks (seconds).
    pub rollback_loss: f64,
    /// Total time spent writing checkpoints (seconds), including aborted
    /// partial writes.
    pub checkpoint_time: f64,
    /// Total restart overhead (seconds).
    pub restart_time: f64,
    /// Whether a priority flip fired during execution.
    pub flipped: bool,
}

impl TaskOutcome {
    /// The task-level workload-processing ratio `Te / wall`.
    pub fn wpr(&self) -> f64 {
        if self.wall > 0.0 {
            self.productive / self.wall
        } else {
            1.0
        }
    }

    /// A kill struck at progress `live`: the task rolls back to its
    /// durable progress, losing what lies in between.
    #[inline]
    pub(crate) fn roll_back<S: Schedule>(&mut self, live: f64, durable: f64, sched: &mut S) {
        self.failures += 1;
        self.rollback_loss += (live - durable).max(0.0);
        sched.on_rollback(durable);
    }

    /// A kill `partial` seconds into a checkpoint write aborted it; the
    /// partial write still counts as checkpoint time.
    #[inline]
    pub(crate) fn abort_checkpoint(&mut self, partial: f64) {
        self.aborted_checkpoints += 1;
        self.checkpoint_time += partial;
    }

    /// A write that took `duration` seconds made progress `pos` durable.
    #[inline]
    pub(crate) fn complete_checkpoint<S: Schedule>(
        &mut self,
        pos: f64,
        duration: f64,
        sched: &mut S,
    ) {
        self.checkpoint_time += duration;
        self.checkpoints += 1;
        sched.on_checkpoint_complete(pos);
    }
}

/// The schedule's next checkpoint if it lies strictly inside `(from, te)`:
/// the milestone a run phase starting at progress `from` heads for, the
/// task's end `te` otherwise.
#[inline]
pub(crate) fn next_checkpoint_in<S: Schedule>(sched: &S, from: f64, te: f64) -> Option<f64> {
    sched.next_checkpoint().filter(|&p| p > from && p < te)
}

/// A reusable kill-plan buffer: the busy-time kill positions of one task,
/// in order, which the executor walks with a cursor of its own. The replay
/// hot loop hands one of these out per worker so a whole-trace replay
/// performs **zero** per-task queue allocations; a warm buffer serves
/// every task of a worker's job stream.
#[derive(Debug, Default, Clone)]
pub struct KillQueue {
    buf: Vec<f64>,
}

impl KillQueue {
    /// An empty queue (allocates nothing until loaded).
    pub fn new() -> Self {
        Self::default()
    }

    /// Wrap an owned position vector (no copy).
    pub fn from_vec(positions: Vec<f64>) -> Self {
        Self { buf: positions }
    }

    /// Replace the queue's contents with `kills`, reusing the buffer.
    pub fn load(&mut self, kills: &[f64]) {
        self.buf.clear();
        self.buf.extend_from_slice(kills);
    }
}

/// Execute one task to completion, drawing its kill plan from `rng` (the
/// task's failure stream) — convenience wrapper over
/// [`simulate_task_with_plan`].
pub fn simulate_task<R: Rng64 + ?Sized>(
    spec: &TaskSimSpec,
    model: FailureModel,
    flip: Option<ExecFlip>,
    ctl: &mut Controller,
    rng: &mut R,
) -> TaskOutcome {
    let plan = model.sample_plan(spec.te, rng);
    simulate_task_with_plan(spec, plan, flip, ctl, rng)
}

/// Execute one task to completion with an explicit kill plan.
///
/// `rng` is only consumed if a priority flip re-draws the remaining plan.
pub fn simulate_task_with_plan<R: Rng64 + ?Sized>(
    spec: &TaskSimSpec,
    plan: FailurePlan,
    flip: Option<ExecFlip>,
    ctl: &mut Controller,
    rng: &mut R,
) -> TaskOutcome {
    let mut pending = KillQueue::from_vec(plan.positions);
    simulate_task_queued(spec, &mut pending, flip, ctl, rng)
}

/// Execute one task to completion against a pre-loaded [`KillQueue`] —
/// the allocation-free core behind [`simulate_task_with_plan`]. The queue
/// arrives holding the task's kill plan and leaves in an unspecified
/// state (its buffer stays warm for the caller's next task).
///
/// Matches on the controller once per task, so each kind runs its own
/// monomorphized copy of the one task loop.
pub fn simulate_task_queued<R: Rng64 + ?Sized>(
    spec: &TaskSimSpec,
    pending: &mut KillQueue,
    flip: Option<ExecFlip>,
    ctl: &mut Controller,
    rng: &mut R,
) -> TaskOutcome {
    match ctl {
        Controller::Fixed(f) => execute(spec, pending, flip, f, rng),
        Controller::Adaptive(a) => execute(spec, pending, flip, a, rng),
    }
}

/// The task loop, written once and monomorphized per [`Schedule`]. The
/// kill cursor, the clock and the outcome live in locals rather than
/// behind `pending` and an output reference, so they can stay in
/// registers.
fn execute<S: Schedule, R: Rng64 + ?Sized>(
    spec: &TaskSimSpec,
    pending: &mut KillQueue,
    mut flip: Option<ExecFlip>,
    sched: &mut S,
    rng: &mut R,
) -> TaskOutcome {
    assert!(spec.te > 0.0 && spec.te.is_finite(), "te must be positive");
    assert!(
        spec.ckpt_cost >= 0.0 && spec.restart_cost >= 0.0,
        "costs must be non-negative"
    );

    let mut head = 0usize; // next kill in `pending.buf`
    let mut out = TaskOutcome::default();
    let mut busy = 0.0f64; // cumulative execution (run + checkpoint) time
    let mut durable = 0.0f64; // checkpointed progress
    let mut live = 0.0f64; // progress since start (≥ durable, volatile)

    // Closure-free helper: busy time until the next kill.
    macro_rules! to_fail {
        () => {
            pending
                .buf
                .get(head)
                .map(|f| f - busy)
                .unwrap_or(f64::INFINITY)
        };
    }

    loop {
        // Next milestone in productive progress: the nearest of the next
        // checkpoint, the flip and the task end that lies ahead.
        let mut target = next_checkpoint_in(sched, live, spec.te).unwrap_or(spec.te);
        if let Some(f) = flip {
            if f.at_progress > live && f.at_progress < target {
                target = f.at_progress;
            }
        }

        let run_needed = target - live;
        let tf = to_fail!();
        if tf < run_needed {
            // Kill strikes mid-run.
            head += 1;
            out.wall += tf + spec.restart_cost;
            out.restart_time += spec.restart_cost;
            busy += tf;
            live += tf;
            out.roll_back(live, durable, sched);
            live = durable;
            continue;
        }

        // Reach the milestone.
        out.wall += run_needed;
        busy += run_needed;
        live = target;

        if let Some(f) = flip {
            if live >= f.at_progress {
                // Priority flip: the remaining kill plan is re-drawn for
                // the new priority over the remaining work, under the same
                // failure model as the rest of the trace. (Default model:
                // sample_count + sample_positions in the legacy order —
                // identical draws to the historical re-plan.)
                pending.buf.clear();
                head = 0;
                let remaining = spec.te - live;
                if remaining > 0.0 {
                    sample_task_plan_into(
                        f.model,
                        f.new_priority,
                        remaining,
                        rng,
                        &mut pending.buf,
                    );
                    for p in &mut pending.buf {
                        *p += busy;
                    }
                }
                if let Some(mnof) = f.new_mnof_full {
                    sched.on_mnof_change(mnof);
                }
                out.flipped = true;
                flip = None;
                continue;
            }
        }

        if live >= spec.te {
            out.productive = spec.te;
            return out;
        }

        // The milestone is a checkpoint. The write takes `ckpt_cost` of busy
        // time; a kill inside it aborts the write.
        let tf = to_fail!();
        if tf < spec.ckpt_cost {
            head += 1;
            out.wall += tf + spec.restart_cost;
            out.restart_time += spec.restart_cost;
            busy += tf;
            out.abort_checkpoint(tf);
            out.roll_back(live, durable, sched);
            live = durable;
        } else {
            out.wall += spec.ckpt_cost;
            busy += spec.ckpt_cost;
            durable = live;
            out.complete_checkpoint(durable, spec.ckpt_cost, sched);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::FixedSchedule;
    use ckpt_policy::schedule::EquidistantSchedule;
    use ckpt_stats::rng::Xoshiro256StarStar;

    fn fixed_ctl(te: f64, x: u32) -> Controller {
        Controller::Fixed(FixedSchedule::new(
            &EquidistantSchedule::new(te, x).unwrap(),
        ))
    }

    fn no_ckpt_ctl() -> Controller {
        Controller::Fixed(FixedSchedule::none())
    }

    fn plan(positions: &[f64]) -> FailurePlan {
        FailurePlan {
            positions: positions.to_vec(),
        }
    }

    #[test]
    fn failure_free_run_costs_te_plus_checkpoints() {
        let spec = TaskSimSpec {
            te: 100.0,
            ckpt_cost: 2.0,
            restart_cost: 1.0,
        };
        let mut ctl = fixed_ctl(100.0, 4); // 3 checkpoints
        let mut rng = Xoshiro256StarStar::new(1);
        let out = simulate_task_with_plan(&spec, plan(&[]), None, &mut ctl, &mut rng);
        assert!((out.wall - 106.0).abs() < 1e-9);
        assert_eq!(out.checkpoints, 3);
        assert_eq!(out.failures, 0);
        assert_eq!(out.rollback_loss, 0.0);
        assert!((out.wpr() - 100.0 / 106.0).abs() < 1e-12);
    }

    #[test]
    fn single_failure_formula1_accounting() {
        // Te=18, x=3 (checkpoints at 6, 12; C=2), one kill at busy time 9.
        // Busy 9 = 6 productive + 2 ckpt + 1 productive ⇒ progress 7, rolls
        // back to 6 losing 1 s. Wall = 18 + 2·2 + (1 + R=1) + 1·... =
        // productive 18 + ckpt 4 + rollback 1 + restart 1 = 24.
        let spec = TaskSimSpec {
            te: 18.0,
            ckpt_cost: 2.0,
            restart_cost: 1.0,
        };
        let mut ctl = fixed_ctl(18.0, 3);
        let mut rng = Xoshiro256StarStar::new(1);
        let out = simulate_task_with_plan(&spec, plan(&[9.0]), None, &mut ctl, &mut rng);
        assert_eq!(out.failures, 1);
        assert!((out.rollback_loss - 1.0).abs() < 1e-9);
        assert!((out.wall - 24.0).abs() < 1e-9, "wall = {}", out.wall);
        assert_eq!(out.checkpoints, 2);
    }

    #[test]
    fn kill_during_checkpoint_aborts_it() {
        // Te=10, one checkpoint at 5 (C=2): kill at busy 6 is 1 s into the
        // write. Progress stays 5 but durable is 0 ⇒ rollback loss 5.
        let spec = TaskSimSpec {
            te: 10.0,
            ckpt_cost: 2.0,
            restart_cost: 0.5,
        };
        let mut ctl = fixed_ctl(10.0, 2);
        let mut rng = Xoshiro256StarStar::new(1);
        let out = simulate_task_with_plan(&spec, plan(&[6.0]), None, &mut ctl, &mut rng);
        assert_eq!(out.aborted_checkpoints, 1);
        assert_eq!(out.failures, 1);
        assert!((out.rollback_loss - 5.0).abs() < 1e-9);
        // Wall: 10 productive (5 redone ⇒ 15 total run) — let's use the
        // identity instead of hand-counting:
        let parts = out.productive + out.checkpoint_time + out.rollback_loss + out.restart_time;
        assert!((out.wall - parts).abs() < 1e-9);
        // The retried checkpoint eventually completes.
        assert_eq!(out.checkpoints, 1);
    }

    #[test]
    fn accounting_identity_holds_under_any_plan() {
        let spec = TaskSimSpec {
            te: 800.0,
            ckpt_cost: 0.5,
            restart_cost: 1.5,
        };
        for seed in 0..50u64 {
            let model = ckpt_trace::spec::FailureModel::for_priority(1);
            let mut ctl = fixed_ctl(800.0, 8);
            let mut rng = Xoshiro256StarStar::new(seed);
            let out = simulate_task(&spec, model, None, &mut ctl, &mut rng);
            let reconstructed =
                out.productive + out.checkpoint_time + out.rollback_loss + out.restart_time;
            assert!(
                (out.wall - reconstructed).abs() < 1e-6,
                "seed {seed}: wall {} vs parts {}",
                out.wall,
                reconstructed
            );
            assert!(out.wpr() <= 1.0);
        }
    }

    #[test]
    fn planned_failures_all_strike() {
        // Kill positions are within (0, te) busy time, and total busy time
        // always exceeds te, so every planned kill fires.
        let spec = TaskSimSpec {
            te: 500.0,
            ckpt_cost: 0.2,
            restart_cost: 0.5,
        };
        for seed in 0..30u64 {
            let model = ckpt_trace::spec::FailureModel::for_priority(10);
            let mut rng_plan = Xoshiro256StarStar::new(seed);
            let plan = model.sample_plan(500.0, &mut rng_plan);
            let expected = plan.count();
            let mut ctl = fixed_ctl(500.0, 10);
            let mut rng = Xoshiro256StarStar::new(seed);
            let out = simulate_task(&spec, model, None, &mut ctl, &mut rng);
            assert_eq!(out.failures, expected, "seed {seed}");
        }
    }

    #[test]
    fn no_checkpoints_no_checkpoint_time() {
        let spec = TaskSimSpec {
            te: 300.0,
            ckpt_cost: 1.0,
            restart_cost: 1.0,
        };
        let mut ctl = no_ckpt_ctl();
        let mut rng = Xoshiro256StarStar::new(3);
        let out = simulate_task_with_plan(&spec, plan(&[100.0, 200.0]), None, &mut ctl, &mut rng);
        assert_eq!(out.checkpoints, 0);
        assert_eq!(out.checkpoint_time, 0.0);
        // Without checkpoints each kill rolls back to zero. Kills are at
        // busy-time 100 and 200: the first loses 100 s of progress, the
        // second fires after 100 s of re-execution and loses those 100 s.
        assert_eq!(out.failures, 2);
        assert!((out.rollback_loss - 200.0).abs() < 1e-9);
    }

    #[test]
    fn checkpointing_beats_none_for_failure_heavy_tasks() {
        let spec = TaskSimSpec {
            te: 400.0,
            ckpt_cost: 0.3,
            restart_cost: 0.5,
        };
        let model = ckpt_trace::spec::FailureModel::for_priority(10);
        let mut wall_ckpt = 0.0;
        let mut wall_none = 0.0;
        for seed in 0..40u64 {
            let mut c1 = fixed_ctl(400.0, 20);
            let mut r1 = Xoshiro256StarStar::new(seed);
            wall_ckpt += simulate_task(&spec, model, None, &mut c1, &mut r1).wall;
            let mut c2 = no_ckpt_ctl();
            let mut r2 = Xoshiro256StarStar::new(seed); // same kill plan
            wall_none += simulate_task(&spec, model, None, &mut c2, &mut r2).wall;
        }
        // With replayed kills the un-checkpointed loss per task is bounded
        // by Te, so the advantage is solid but not unbounded.
        assert!(
            wall_ckpt < 0.8 * wall_none,
            "checkpointing {wall_ckpt} vs none {wall_none}"
        );
    }

    #[test]
    fn same_stream_same_outcome() {
        let spec = TaskSimSpec {
            te: 600.0,
            ckpt_cost: 0.4,
            restart_cost: 1.0,
        };
        let model = ckpt_trace::spec::FailureModel::for_priority(10);
        let run = |seed: u64| {
            let mut ctl = fixed_ctl(600.0, 6);
            let mut rng = Xoshiro256StarStar::new(seed);
            simulate_task(&spec, model, None, &mut ctl, &mut rng)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn flip_fires_once_and_replans_failures() {
        let spec = TaskSimSpec {
            te: 200.0,
            ckpt_cost: 0.5,
            restart_cost: 0.5,
        };
        let flip = ExecFlip {
            at_progress: 100.0,
            new_priority: 10,
            model: FailureModelSpec::Exponential,
            new_mnof_full: Some(12.0),
        };
        let mut ctl = Controller::Adaptive(
            ckpt_policy::adaptive::AdaptiveCheckpointer::new(200.0, 0.5, 1.0).unwrap(),
        );
        let mut rng = Xoshiro256StarStar::new(11);
        // Start quiet (p12), flip to failure-heavy (p10) at half way.
        let out = simulate_task(
            &spec,
            ckpt_trace::spec::FailureModel::for_priority(12),
            Some(flip),
            &mut ctl,
            &mut rng,
        );
        assert!(out.flipped);
        assert!(out.wall >= 200.0);
    }

    #[test]
    fn flip_to_quiet_model_calms_task() {
        let spec = TaskSimSpec {
            te: 400.0,
            ckpt_cost: 0.3,
            restart_cost: 0.5,
        };
        let mut flipped_wall = 0.0;
        let mut stayed_wall = 0.0;
        for seed in 0..30u64 {
            let flip = ExecFlip {
                at_progress: 100.0,
                new_priority: 12,
                model: FailureModelSpec::Exponential,
                new_mnof_full: Some(0.2),
            };
            let model = ckpt_trace::spec::FailureModel::for_priority(10);
            let mut c1 = Controller::Adaptive(
                ckpt_policy::adaptive::AdaptiveCheckpointer::new(400.0, 0.3, 10.0).unwrap(),
            );
            let mut r1 = Xoshiro256StarStar::new(seed);
            flipped_wall += simulate_task(&spec, model, Some(flip), &mut c1, &mut r1).wall;
            let mut c2 = Controller::Adaptive(
                ckpt_policy::adaptive::AdaptiveCheckpointer::new(400.0, 0.3, 10.0).unwrap(),
            );
            let mut r2 = Xoshiro256StarStar::new(seed);
            stayed_wall += simulate_task(&spec, model, None, &mut c2, &mut r2).wall;
        }
        assert!(
            flipped_wall < stayed_wall,
            "flipped {flipped_wall} vs stayed {stayed_wall}"
        );
    }

    #[test]
    fn back_to_back_kills_handled() {
        // Two kills close together, both before the first checkpoint.
        let spec = TaskSimSpec {
            te: 100.0,
            ckpt_cost: 1.0,
            restart_cost: 0.5,
        };
        let mut ctl = fixed_ctl(100.0, 2);
        let mut rng = Xoshiro256StarStar::new(1);
        let out = simulate_task_with_plan(&spec, plan(&[10.0, 10.5]), None, &mut ctl, &mut rng);
        assert_eq!(out.failures, 2);
        // First kill loses 10, second loses 0.5 (progress after restart).
        assert!((out.rollback_loss - 10.5).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "te must be positive")]
    fn rejects_zero_te() {
        let spec = TaskSimSpec {
            te: 0.0,
            ckpt_cost: 1.0,
            restart_cost: 1.0,
        };
        let mut ctl = no_ckpt_ctl();
        let mut rng = Xoshiro256StarStar::new(1);
        simulate_task_with_plan(&spec, plan(&[]), None, &mut ctl, &mut rng);
    }
}
