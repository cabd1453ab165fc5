//! # ckpt-scenario — declarative scenarios and the parallel sweep engine
//!
//! The paper's results (Figures 4–14, Tables 2–7) are parameter sweeps
//! over policy × estimator × checkpoint-cost × failure-model grids. This
//! crate replaces the one-off-binary-per-figure pattern with a declarative
//! subsystem:
//!
//! * [`spec`] — [`ScenarioSpec`]: one run as a value (engine, workload or
//!   trace file, policy/estimator/adaptivity, storage device, cost tweaks,
//!   record filters, seed).
//! * [`parse`] — a minimal hand-rolled TOML-subset parser (the workspace's
//!   no-dependency idiom).
//! * [`sweep`] — [`SweepSpec`]: base scenario × axes (`policy =
//!   ["formula3", "young"]`, `ckpt_cost_scale = { from, to, steps }`),
//!   expanded row-major into a scenario grid.
//! * [`exec`] — the parallel executor: work-stealing over grid cells with
//!   an atomic counter, per-cell RNG streams derived from
//!   `(seed, cell_index)` (thread-count-invariant results), and a
//!   once-per-run-key cache so cells that differ only in aggregation
//!   filters share a single replay.
//! * [`identity`] — one encoder of what a result depends on, in three
//!   scopes (prep, run, sweep): the executor's caches key on its words,
//!   and the checkpoint store's digests hash the same words.
//! * [`agg`] — streaming per-cell reduction to mean/p50/p99/min/max
//!   summaries.
//! * [`ckpt`] — checkpointed sweeps, the paper's own mechanism applied to
//!   the executor: completed cells persist to an append-only
//!   `ckpt-store` file as workers finish them, and
//!   [`run_sweep_checkpointed`] resumes a killed sweep by loading
//!   persisted cells and replaying only the missing ones — with exports
//!   byte-identical to an uninterrupted run. Cell evaluation, store I/O
//!   and (through [`guarded_io`]) the caller's export all retry in
//!   `ckpt-faults`' one loop, so one health report covers them.
//! * [`export`] — the per-cell results as CSV/JSON, streamed from borrowed
//!   rows through `ckpt-report`'s shared row writers, or as an owned
//!   [`ckpt_report::Frame`] built from the same rows.
//!
//! Sweeps also run under a shared [`ckpt_report::RunContext`]
//! (seed + scale + threads + sink) via [`run_sweep_ctx`], so a sweep cell
//! and a registered `ckpt-bench` experiment share one execution and
//! export path.
//!
//! ## Example: a policy × checkpoint-cost grid
//!
//! ```
//! use ckpt_scenario::{run_sweep, SweepOptions, SweepSpec};
//!
//! let sweep = SweepSpec::from_str(r#"
//!     [sweep]
//!     name = "policy_x_cost"
//!     engine = "fast"
//!     seed = 7
//!     jobs = 120
//!
//!     [axes]
//!     policy = ["formula3", "young"]
//!     ckpt_cost_scale = { from = 0.5, to = 2.0, steps = 2 }
//! "#).unwrap();
//! assert_eq!(sweep.grid_size(), 4);
//!
//! let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
//! let wpr = result.cells[0].metrics.iter().find(|(n, _)| *n == "wpr").unwrap().1;
//! assert!(wpr.mean > 0.0 && wpr.mean <= 1.0);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod agg;
pub mod ckpt;
pub mod exec;
pub mod export;
pub mod identity;
pub mod parse;
pub mod spec;
pub mod sweep;

pub use agg::MetricSummary;
pub use ckpt::{CheckpointConfig, ResumeReport, CRASH_EXIT_CODE};
pub use exec::{
    guarded_io, run_sweep, run_sweep_checkpointed, run_sweep_ctx, run_sweep_guarded,
    run_sweep_telemetry, CellResult, CellStatus, FaultPolicy, SweepOptions, SweepResult,
};
pub use export::{csv_string, json_string, to_frame, write_outputs};
pub use spec::{EngineKind, SampleFilter, ScenarioSpec, WorkloadTweaks};
pub use sweep::{Axis, SweepError, SweepSpec};
