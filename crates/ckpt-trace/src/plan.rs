//! The failure-plan arena: every task's pre-planned kill events, sampled
//! once and stored flat, plus the post-sampling RNG stream states that
//! make replays resumable.
//!
//! Kill plans are a pure function of `(trace seed, failure model, task id,
//! priority, task length)` — the *policy* never enters the draw (that is
//! precisely the paper's common-random-numbers methodology: every policy
//! replays the same kills, which makes the Figure 13 paired comparisons
//! exact). [`FailurePlanArena::build`] is the one place a task's initial
//! kill plan is drawn. The failure histories, the fast replay and the
//! cluster engine all read it, and an entry that is handed no arena
//! builds one at its top, so one sampling pass per `(trace, failure
//! model)` can serve every policy cell.
//!
//! Two details make the sharing work:
//!
//! * Positions are stored in **one flat buffer** with per-task spans, so a
//!   replay borrows a `&[f64]` instead of materializing a per-task `Vec`.
//!   Spans are indexed by task id, so ids must be unique (every generated
//!   trace numbers its tasks `0..n`, and `export::read_csv` rejects any
//!   other numbering).
//! * When the trace contains mid-run priority flips, the executor draws a
//!   *fresh* plan for the remaining work from the task's stream — draws
//!   that come **after** the plan's own. The arena captures each task's
//!   stream state right after sampling ([`Xoshiro256StarStar::state`]),
//!   and [`FailurePlanArena::resume_stream`] continues it from there.
//!   Traces without flips never touch the stream again, and the capture
//!   is skipped.

use crate::failure::sample_task_plan_into;
use crate::gen::Trace;
use ckpt_stats::rng::Xoshiro256StarStar;

/// Every task's kill plan for one `(trace, failure model)` pair, stored
/// flat; see the module docs.
#[derive(Debug, Clone)]
pub struct FailurePlanArena {
    /// All kill positions, task after task (each task's run is sorted).
    positions: Vec<f64>,
    /// `(offset, len)` into `positions`, indexed by task id.
    spans: Vec<(u32, u32)>,
    /// Post-sampling stream state per task — captured only when the trace
    /// contains priority flips (the only consumer of post-plan draws).
    rng_states: Option<Vec<[u64; 4]>>,
}

impl FailurePlanArena {
    /// Sample every task's plan from its own failure stream
    /// ([`Trace::failure_stream`]) under the trace's failure model.
    pub fn build(trace: &Trace) -> Self {
        let max_id = trace
            .tasks()
            .map(|(_, t)| t.id)
            .max()
            .map(|m| m as usize + 1)
            .unwrap_or(0);
        let needs_states = trace.jobs.iter().any(|j| j.flip.is_some());
        let mut positions = Vec::new();
        let mut spans = vec![(0u32, 0u32); max_id];
        let mut rng_states = needs_states.then(|| vec![[0u64; 4]; max_id]);
        for (job, task) in trace.tasks() {
            let mut rng = trace.failure_stream(task.id);
            let start = positions.len();
            sample_task_plan_into(
                trace.failure_model,
                job.priority,
                task.length_s,
                &mut rng,
                &mut positions,
            );
            assert!(
                positions.len() <= u32::MAX as usize,
                "failure-plan arena overflow: more than u32::MAX kill positions"
            );
            spans[task.id as usize] = (start as u32, (positions.len() - start) as u32);
            if let Some(states) = &mut rng_states {
                states[task.id as usize] = rng.state();
            }
        }
        Self {
            positions,
            spans,
            rng_states,
        }
    }

    /// The kill positions of task `task_id` (empty for tasks with no
    /// planned failures).
    #[inline]
    pub fn kills(&self, task_id: u64) -> &[f64] {
        match self.spans.get(task_id as usize) {
            Some(&(off, len)) => &self.positions[off as usize..(off + len) as usize],
            None => &[],
        }
    }

    /// Whether post-sampling stream states were captured (true exactly
    /// when the trace contains priority flips).
    #[inline]
    pub fn captures_streams(&self) -> bool {
        self.rng_states.is_some()
    }

    /// Resume task `task_id`'s failure stream from right after its plan
    /// was sampled: the state the executor's flip re-draw continues from.
    /// `None` when states were not captured (traces without flips: the
    /// stream is never consumed post-plan).
    pub fn resume_stream(&self, task_id: u64) -> Option<Xoshiro256StarStar> {
        self.rng_states
            .as_ref()
            .map(|s| Xoshiro256StarStar::from_state(s[task_id as usize]))
    }

    /// Total planned kills across all tasks.
    #[inline]
    pub fn total_kills(&self) -> usize {
        self.positions.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::failure::sample_task_plan;
    use crate::gen::generate;
    use crate::spec::WorkloadSpec;
    use ckpt_stats::rng::Rng64;

    #[test]
    fn arena_matches_fresh_sampling_for_every_task() {
        let trace = generate(&WorkloadSpec::google_like(200), 9).expect("valid spec");
        let arena = FailurePlanArena::build(&trace);
        assert!(!arena.captures_streams(), "no flips ⇒ no states");
        for (job, task) in trace.tasks() {
            let mut rng = trace.failure_stream(task.id);
            let fresh =
                sample_task_plan(trace.failure_model, job.priority, task.length_s, &mut rng);
            assert_eq!(arena.kills(task.id), fresh.positions.as_slice());
        }
    }

    #[test]
    fn flip_traces_capture_resumable_states() {
        let trace =
            generate(&WorkloadSpec::google_like(80).with_priority_flips(), 11).expect("valid spec");
        let arena = FailurePlanArena::build(&trace);
        assert!(arena.captures_streams());
        for (job, task) in trace.tasks() {
            let mut rng = trace.failure_stream(task.id);
            let _ = sample_task_plan(trace.failure_model, job.priority, task.length_s, &mut rng);
            let mut resumed = arena.resume_stream(task.id).expect("states captured");
            // The resumed stream continues exactly where fresh sampling
            // left off.
            assert_eq!(rng.next_u64(), resumed.next_u64());
        }
    }

    #[test]
    fn arena_is_model_sensitive() {
        let spec = WorkloadSpec::google_like(120);
        let trace = generate(&spec, 5).expect("valid spec");
        let base = FailurePlanArena::build(&trace);
        let pareto = FailurePlanArena::build(
            &generate(
                &spec
                    .clone()
                    .with_failure_model(crate::failure::FailureModelSpec::Pareto {
                        shape: 1.5,
                        scale: 1.0,
                    }),
                5,
            )
            .expect("valid spec"),
        );
        assert_ne!(base.total_kills(), 0);
        // Same trace shape, different interval law ⇒ different plans.
        let differs = trace
            .tasks()
            .any(|(_, task)| base.kills(task.id) != pareto.kills(task.id));
        assert!(differs, "pareto arena replayed the default plans");
    }

    #[test]
    fn empty_trace_is_fine() {
        let trace = Trace {
            jobs: Vec::new(),
            seed: 1,
            failure_model: Default::default(),
        };
        let arena = FailurePlanArena::build(&trace);
        assert_eq!(arena.total_kills(), 0);
        assert_eq!(arena.kills(42), &[] as &[f64]);
        assert!(arena.resume_stream(0).is_none());
    }
}
