//! # ckpt-report — shared experiment output frames and run context
//!
//! Every result in this workspace — a paper figure/table experiment, a
//! sweep grid, a CLI replay summary — is ultimately *tabular data with a
//! bit of metadata*. This crate gives all of them one representation and
//! one writer:
//!
//! * [`Frame`] — named columns + typed rows + `(key, value)` metadata,
//!   rendered by a single deterministic CSV / JSON / aligned-table
//!   implementation (shortest-roundtrip floats, RFC-4180 quoting, stable
//!   key order), so outputs are byte-identical across runs, platforms,
//!   and thread counts.
//! * [`writer`] — the one CSV and one JSON row writer behind those
//!   renderings: [`CsvWriter`] and [`JsonWriter`] append borrowed
//!   [`Cell`]s into one `String`. Sweep exports stream their rows through
//!   the same writers without building a [`Frame`].
//! * [`ExpOutput`] — what one experiment produces: a list of frames plus
//!   free-text notes (the prose observations the paper prints under its
//!   figures).
//! * [`RunContext`] — the execution context every experiment and sweep
//!   consumes: seed, [`Scale`], thread budget, and an output [`Sink`].
//!   Environment resolution (`CKPT_SCALE`, `CKPT_SEED`) is strict:
//!   unrecognized values are hard errors naming the accepted set.
//! * [`Sink`] — where frames go: a stdout format ([`Format`]) and an
//!   optional directory for per-frame files.
//! * [`telemetry`] — the observability exports: `ckpt-obs` counter totals
//!   rendered as a deterministic [`Frame`], and wall-clock phase timings
//!   as a separate non-deterministic `timings.json`.
//!
//! `ckpt-scenario`'s sweep exports and `ckpt-bench`'s experiment registry
//! both build on these types, so a sweep cell and a standalone experiment
//! share one execution and export path.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod context;
pub mod frame;
pub mod sink;
pub mod telemetry;
pub mod value;
pub mod writer;

pub use context::{seed_from_env, RunContext, Scale, DEFAULT_SEED};
pub use frame::{ExpOutput, Frame};
pub use sink::{Format, Sink};
pub use telemetry::{counters_frame, timings_json, write_telemetry};
pub use value::{compact_f64, Cell, Value};
pub use writer::{reserve_hint, CsvWriter, JsonWriter, RowWriter};
