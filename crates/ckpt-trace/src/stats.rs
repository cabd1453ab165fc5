//! "Historical" failure statistics over a generated trace.
//!
//! The paper estimates MNOF and MTBF "based on historical task events in the
//! trace" (§5.1). Here the history of a task is its pre-planned failure
//! events (see [`crate::spec::FailureModel`]): the recorded failure count is
//! the plan's kill count, and the recorded uninterrupted intervals are the
//! gaps between consecutive kills.
//!
//! Two properties of this construction carry the paper's argument:
//!
//! * **Length scaling of intervals** — kill positions scale with task
//!   length, so intervals recorded by short tasks are short while long
//!   service tasks record huge ones. MTBF estimated over short tasks is
//!   modest; over all tasks it is tail-dominated (Table 7's 179 s vs 4199 s
//!   for priority 2) — the bias that breaks Young's formula.
//! * **Common random numbers** — the histories read the plans of a
//!   [`FailurePlanArena`], the same plans the simulators replay, so
//!   "precise prediction" oracles (Table 6) are exact and paired policy
//!   comparisons (Figure 13) replay identical kill events, like the
//!   paper's `kill -9` trace replay.

use crate::gen::Trace;
use crate::plan::FailurePlanArena;
use ckpt_policy::estimator::{GroupedEstimator, TaskHistory};
use std::collections::{HashMap, HashSet};

/// A task's history along with its identity (so experiments can build
/// per-task oracles).
#[derive(Debug, Clone, PartialEq)]
pub struct TaskRecord {
    /// The task's global id.
    pub task_id: u64,
    /// The owning job's id.
    pub job_id: u64,
    /// The recorded failure history.
    pub history: TaskHistory,
}

/// Histories for every task in the trace, from one [`FailurePlanArena`]
/// sampled here (see [`trace_histories_from_plans`]).
pub fn trace_histories(trace: &Trace) -> Vec<TaskRecord> {
    trace_histories_from_plans(trace, &FailurePlanArena::build(trace))
}

/// Histories for every task in the trace, read from `plans`: a task's
/// recorded failure count is its plan's kill count, and its recorded
/// intervals are the gaps between kills. Experiments and the sweep
/// executor pass the arena their replays borrow, so one sampling pass
/// serves the estimator input and every replay.
pub fn trace_histories_from_plans(trace: &Trace, plans: &FailurePlanArena) -> Vec<TaskRecord> {
    trace
        .tasks()
        .map(|(job, task)| {
            let kills = plans.kills(task.id);
            TaskRecord {
                task_id: task.id,
                job_id: job.id,
                history: TaskHistory {
                    priority: job.priority,
                    task_length: task.length_s,
                    failure_count: kills.len() as u32,
                    intervals: crate::spec::intervals_of(kills),
                },
            }
        })
        .collect()
}

/// Ids of jobs where at least `fraction` of tasks suffered ≥ 1 failure —
/// the paper's sample-job selection rule ("only jobs half of whose tasks
/// (at least) suffer from a failure event are selected", §5.1 uses 0.5).
pub fn failure_prone_jobs(records: &[TaskRecord], fraction: f64) -> HashSet<u64> {
    let mut per_job: HashMap<u64, (usize, usize)> = HashMap::new();
    for r in records {
        let e = per_job.entry(r.job_id).or_insert((0, 0));
        e.0 += 1;
        if r.history.failure_count > 0 {
            e.1 += 1;
        }
    }
    per_job
        .into_iter()
        .filter(|(_, (total, failed))| *failed as f64 >= fraction * *total as f64)
        .map(|(id, _)| id)
        .collect()
}

/// Build a priority-grouped MNOF/MTBF estimator from task records (the
/// Table 7 machinery).
pub fn estimator_from_records(records: &[TaskRecord]) -> GroupedEstimator {
    let mut est = GroupedEstimator::new();
    est.extend(records.iter().map(|r| r.history.clone()));
    est
}

/// Uninterrupted-interval samples pooled per priority — the data behind
/// Figure 4's per-priority CDFs.
pub fn interval_samples_by_priority(records: &[TaskRecord]) -> HashMap<u8, Vec<f64>> {
    let mut map: HashMap<u8, Vec<f64>> = HashMap::new();
    for r in records {
        map.entry(r.history.priority)
            .or_default()
            .extend_from_slice(&r.history.intervals);
    }
    map
}

/// All uninterrupted-interval samples pooled — the data behind Figure 5.
pub fn pooled_intervals(records: &[TaskRecord]) -> Vec<f64> {
    records
        .iter()
        .flat_map(|r| r.history.intervals.iter().copied())
        .collect()
}

/// Per-task oracle lookup: `task_id → (failure_count, mean_interval)`.
/// `mean_interval` is `None` for tasks that recorded no intervals.
/// This is the "precise prediction" input of the paper's Table 6.
pub fn per_task_oracle(records: &[TaskRecord]) -> HashMap<u64, (u32, Option<f64>)> {
    records
        .iter()
        .map(|r| {
            let mtbf = if r.history.intervals.is_empty() {
                None
            } else {
                Some(r.history.intervals.iter().sum::<f64>() / r.history.intervals.len() as f64)
            };
            (r.task_id, (r.history.failure_count, mtbf))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::generate;
    use crate::spec::WorkloadSpec;

    fn trace() -> Trace {
        generate(&WorkloadSpec::google_like(800), 2024).expect("valid workload spec")
    }

    #[test]
    fn histories_deterministic() {
        let t = trace();
        let a = trace_histories(&t);
        let b = trace_histories(&t);
        assert_eq!(a, b);
    }

    #[test]
    fn recorded_intervals_shorter_than_task() {
        // The censoring property that drives Table 7's MTBF inflation.
        let t = trace();
        for r in trace_histories(&t) {
            for &iv in &r.history.intervals {
                assert!(
                    iv < r.history.task_length,
                    "interval {iv} ≥ task length {}",
                    r.history.task_length
                );
            }
            let total: f64 = r.history.intervals.iter().sum();
            assert!(total <= r.history.task_length);
            assert_eq!(r.history.failure_count as usize, r.history.intervals.len());
        }
    }

    #[test]
    fn mtbf_inflates_with_length_limit() {
        // Table 7's headline shape: MTBF grows dramatically as the length
        // limit is lifted (the paper measures 179 s → 4199 s for priority 2;
        // pooled here across priorities for sample-size robustness).
        let t = generate(&WorkloadSpec::google_like(4000), 77).expect("valid workload spec");
        let recs = trace_histories(&t);
        let est = estimator_from_records(&recs);
        let short = est.estimate_pooled(1000.0).unwrap();
        let all = est.estimate_pooled(f64::INFINITY).unwrap();
        assert!(
            all.mtbf > 4.0 * short.mtbf,
            "expected strong inflation: short {} vs all {}",
            short.mtbf,
            all.mtbf
        );
    }

    #[test]
    fn mnof_nearly_length_independent() {
        // The paper's key Table 7 observation: MNOF "would not change a lot
        // with task lengths, rather than MTBF".
        let t = generate(&WorkloadSpec::google_like(4000), 78).expect("valid workload spec");
        let recs = trace_histories(&t);
        let est = estimator_from_records(&recs);
        let short = est.estimate_pooled(1000.0).unwrap();
        let all = est.estimate_pooled(f64::INFINITY).unwrap();
        let ratio = all.mnof / short.mnof;
        assert!(
            ratio > 0.7 && ratio < 1.6,
            "MNOF should be nearly length-free: short {} vs all {}",
            short.mnof,
            all.mnof
        );
    }

    #[test]
    fn priority10_fails_most() {
        let t = generate(&WorkloadSpec::google_like(6000), 79).expect("valid workload spec");
        let recs = trace_histories(&t);
        let est = estimator_from_records(&recs);
        let p10 = est.estimate(10, f64::INFINITY).unwrap();
        let p2 = est.estimate(2, f64::INFINITY).unwrap();
        assert!(p10.mnof > 3.0 * p2.mnof, "p10 {:?} vs p2 {:?}", p10, p2);
    }

    #[test]
    fn failure_prone_selection() {
        let t = trace();
        let recs = trace_histories(&t);
        let selected = failure_prone_jobs(&recs, 0.5);
        assert!(!selected.is_empty());
        assert!(selected.len() < t.jobs.len());
        // Every selected job really has ≥ half its tasks failing.
        for job in &t.jobs {
            if selected.contains(&job.id) {
                let rs: Vec<&TaskRecord> = recs.iter().filter(|r| r.job_id == job.id).collect();
                let failed = rs.iter().filter(|r| r.history.failure_count > 0).count();
                assert!(failed * 2 >= rs.len());
            }
        }
    }

    #[test]
    fn oracle_consistent_with_history() {
        let t = trace();
        let recs = trace_histories(&t);
        let oracle = per_task_oracle(&recs);
        assert_eq!(oracle.len(), recs.len());
        for r in &recs {
            let (count, mtbf) = oracle[&r.task_id];
            assert_eq!(count, r.history.failure_count);
            assert_eq!(mtbf.is_some(), !r.history.intervals.is_empty());
        }
    }

    #[test]
    fn interval_samples_grouped() {
        let t = trace();
        let recs = trace_histories(&t);
        let by_p = interval_samples_by_priority(&recs);
        let pooled = pooled_intervals(&recs);
        let total: usize = by_p.values().map(|v| v.len()).sum();
        assert_eq!(total, pooled.len());
        assert!(!pooled.is_empty());
    }

    #[test]
    fn pooled_intervals_short_mass_matches_paper() {
        // Figure 5: > 63 % of recorded failure intervals below 1000 s.
        let t = generate(&WorkloadSpec::google_like(3000), 80).expect("valid workload spec");
        let recs = trace_histories(&t);
        let pooled = pooled_intervals(&recs);
        let below = pooled.iter().filter(|&&x| x < 1000.0).count();
        let frac = below as f64 / pooled.len() as f64;
        assert!(frac > 0.63, "fraction below 1000 s = {frac}");
    }
}
