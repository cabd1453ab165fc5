//! Shared experiment setup: standard trace scales, estimates, and the
//! paper's sample-job selection.
//!
//! Scale, seeding, and environment resolution live in [`ckpt_report`]
//! (re-exported here) so every layer — experiments, sweeps, CLI — shares
//! one [`RunContext`].

use ckpt_sim::cluster::{ClusterConfig, ClusterSim};
use ckpt_sim::policy::{Estimates, PolicyConfig};
use ckpt_sim::runner::{run_trace_with_plans, RunOptions};
use ckpt_sim::JobRecord;
use ckpt_trace::gen::{generate, Trace};
use ckpt_trace::plan::FailurePlanArena;
use ckpt_trace::spec::WorkloadSpec;
use ckpt_trace::stats::{failure_prone_jobs, trace_histories_from_plans, TaskRecord};
use std::collections::HashSet;

pub use ckpt_report::{seed_from_env, RunContext, Scale, DEFAULT_SEED};

/// A fully prepared experiment context.
pub struct Setup {
    /// The generated trace.
    pub trace: Trace,
    /// Every task's kill plan, sampled once: the histories below read it,
    /// and every replay borrows it (`run_trace_with_plans`,
    /// `ClusterSim::with_plans`), so each policy replays the same kills.
    pub plans: FailurePlanArena,
    /// Per-task failure histories (the "historical trace events").
    pub records: Vec<TaskRecord>,
    /// Precomputed estimator state.
    pub estimates: Estimates,
    /// The paper's sample jobs: ids where ≥ half the tasks failed.
    pub sample_jobs: HashSet<u64>,
}

/// Prepare a standard Google-like workload at the given scale.
pub fn setup(scale: Scale, seed: u64) -> Result<Setup, String> {
    setup_with(WorkloadSpec::google_like(scale.jobs()), seed)
}

/// Prepare a standard workload from a [`RunContext`] (its scale + seed).
pub fn setup_ctx(ctx: &RunContext) -> Result<Setup, String> {
    setup(ctx.scale, ctx.seed)
}

/// Prepare with a custom spec (e.g. priority flips for Figure 14, or a
/// non-default failure model). Spec errors surface as experiment errors
/// instead of aborting the process.
pub fn setup_with(spec: WorkloadSpec, seed: u64) -> Result<Setup, String> {
    let trace = generate(&spec, seed).map_err(|e| e.to_string())?;
    let plans = FailurePlanArena::build(&trace);
    let records = trace_histories_from_plans(&trace, &plans);
    let estimates = Estimates::from_records(&records);
    let sample_jobs = failure_prone_jobs(&records, 0.5);
    Ok(Setup {
        trace,
        plans,
        records,
        estimates,
        sample_jobs,
    })
}

impl Setup {
    /// Replay the trace under `cfg` on the fast path, borrowing the shared
    /// kill plans.
    pub fn replay(&self, cfg: &PolicyConfig, options: RunOptions) -> Vec<JobRecord> {
        run_trace_with_plans(&self.trace, &self.estimates, cfg, options, &self.plans)
    }

    /// The cluster DES over the trace under `policy`, built from the
    /// shared kill plans.
    pub fn cluster(&self, cfg: ClusterConfig, policy: PolicyConfig) -> ClusterSim<'_> {
        ClusterSim::with_plans(cfg, &self.trace, &self.estimates, policy, &self.plans)
    }

    /// Restrict job records to the paper's failure-prone sample set.
    pub fn sample_only(&self, records: &[JobRecord]) -> Vec<JobRecord> {
        records
            .iter()
            .filter(|r| self.sample_jobs.contains(&r.job_id))
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_setup_produces_samples() {
        let s = setup(Scale::Quick, 1).unwrap();
        assert_eq!(s.trace.jobs.len(), 800);
        assert!(!s.sample_jobs.is_empty());
        assert_eq!(s.records.len(), s.trace.task_count());
    }

    #[test]
    fn setup_ctx_matches_explicit_setup() {
        let ctx = RunContext::new(Scale::Quick).with_seed(1);
        let a = setup_ctx(&ctx).unwrap();
        let b = setup(Scale::Quick, 1).unwrap();
        assert_eq!(a.trace.jobs.len(), b.trace.jobs.len());
        assert_eq!(a.sample_jobs, b.sample_jobs);
    }

    #[test]
    fn scale_env_parsing_is_strict() {
        // Unset → default; the strictness itself is covered in
        // ckpt-report (environment mutation is not thread-safe in tests).
        assert_eq!(Scale::from_env(Scale::Quick).unwrap(), Scale::Quick);
        assert_eq!(Scale::Day.jobs(), 10_000);
        assert!(Scale::parse("huge").is_err());
    }
}
