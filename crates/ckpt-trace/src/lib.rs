//! # ckpt-trace — Google-trace-like synthetic cloud workload generator
//!
//! The paper's evaluation replays a one-month Google production trace
//! (10k+ hosts, millions of tasks). That trace only enters the experiments
//! through a handful of per-task quantities:
//!
//! 1. job arrival times and structure — sequential-task (ST) vs
//!    bag-of-tasks (BoT) jobs (paper §5.1),
//! 2. task productive lengths and memory sizes (paper Figure 8),
//! 3. task priorities 1–12, and
//! 4. per-priority failure-interval behaviour: short bodies with Pareto
//!    tails, priority-dependent (paper Figures 4–5, Table 7).
//!
//! This crate synthesizes workloads with exactly those marginals, seeded and
//! fully deterministic:
//!
//! * [`spec`] — the calibrated per-priority failure models and the workload
//!   shape knobs ([`spec::WorkloadSpec`]).
//! * [`gen`] — the trace generator: [`gen::generate`] produces a
//!   [`gen::Trace`] of jobs and tasks.
//! * [`stats`] — "historical" failure statistics: renewal-process histories
//!   per task, MNOF/MTBF tables by priority × length limit (Table 7),
//!   uninterrupted-interval samples (Figures 4–5).
//!
//! The **key phenomenon** the calibration preserves (because the paper's
//! headline result depends on it): failure intervals are heavy-tailed, so
//! the MTBF estimated over all tasks is inflated by rare huge intervals
//! while the mean *number* of failures per task (MNOF) stays stable —
//! making Young's MTBF-driven formula checkpoint too rarely and the paper's
//! MNOF-driven Formula (3) well-calibrated.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod export;
pub mod failure;
pub mod gen;
pub mod plan;
pub mod spec;
pub mod stats;

pub use failure::{FailureKind, FailureModelSpec, FailureProcess, HazardProcess};
pub use gen::{generate, JobSpec, JobStructure, TaskSpec, Trace, WorkloadError};
pub use plan::FailurePlanArena;
pub use spec::{FailureModel, WorkloadSpec, NUM_PRIORITIES};
pub use stats::{trace_histories, trace_histories_from_plans};
