//! # ckpt-bench — the experiment library for the SC'13 reproduction
//!
//! Every figure/table of the paper's evaluation section (plus this
//! repo's extensions) is a typed, registered [`exp::Experiment`]:
//!
//! * [`exp`] — the `Experiment` trait (`id()`, `paper_ref()`, `claim()`,
//!   `run(&RunContext) -> ExpOutput`).
//! * [`registry`] — the static list of all registered experiments and
//!   the lookup functions.
//! * [`experiments`] — one module per experiment; each produces
//!   structured [`ckpt_report::Frame`]s rendered by the shared writer
//!   (CSV / JSON / aligned table) — no bespoke `println!` paths.
//! * [`harness`] — shared trace setup; scale/seed/context types are
//!   re-exported from [`ckpt_report`].
//! * `benches/` — criterion micro/meso benchmarks of the policy math,
//!   the statistics substrate, the DES engine, and the end-to-end replay.
//!
//! The front end is `cloud-ckpt exp list|run|all`.

pub mod exp;
pub mod experiments;
pub mod harness;
pub mod registry;
pub mod report;

pub use exp::{ExpError, ExpResult, Experiment};
