//! # ckpt-sim — discrete-event cloud simulator for checkpoint/restart research
//!
//! The substrate standing in for the paper's physical testbed (32 hosts ×
//! 7 XEN VMs, BLCR, NFS/DM-NFS, Google trace replay):
//!
//! * [`time`], [`event`] — deterministic DES foundations (integer
//!   microseconds, the `(time, seq)`-ordered [`event::FastQueue`]).
//! * [`task_store`] — dense struct-of-arrays task state for the cluster
//!   engine (stable [`task_store::TaskId`]s, flat kill-plan arena).
//! * [`blcr`] — the BLCR cost model calibrated to the paper's Figure 7 and
//!   Tables 4–5 (checkpoint cost linear in memory; restart cost by
//!   migration type).
//! * [`storage`] — processor-sharing storage servers: one central NFS
//!   server (Table 2's contention) vs per-host DM-NFS (Table 3's flatness).
//! * [`controller`], [`task_sim`] — per-task execution under a checkpoint
//!   policy: failures, rollbacks, restarts, aborted checkpoints,
//!   mid-run priority flips.
//! * [`policy`] — policy drivers: estimator kinds (oracle / per-priority /
//!   global), storage choice (§4.2.2), and interval counts from
//!   Formula (3) / Young / Daly.
//! * [`metrics`] — WPR (Formula (9)) and figure-ready aggregations.
//! * [`runner`] — parallel trace replay (scoped worker threads,
//!   deterministic via per-task RNG streams).
//! * [`cluster`] — the full-cluster DES: memory-constrained greedy
//!   scheduling, VM placement, checkpoint storage contention, restart
//!   migration — used for the contention experiments and end-to-end
//!   validation of the fast path.
//! * [`shard`] — the sharded cluster DES: the host fleet partitioned into
//!   contiguous host groups, one engine per shard run to completion on
//!   the work-stealing substrate, results and counters folded once in
//!   shard order.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod blcr;
pub mod cluster;
pub mod controller;
pub mod event;
pub mod metrics;
pub mod policy;
pub mod runner;
pub mod shard;
pub mod storage;
pub mod task_sim;
pub mod task_store;
pub mod time;

pub use blcr::{BlcrModel, Device, Migration};
pub use cluster::{ClusterSim, MetricsMode, SimBudget};
pub use metrics::JobRecord;
pub use policy::{CostTweak, Estimates, EstimatorKind, PolicyConfig, StorageChoice};
pub use runner::{parallel_indexed, run_trace, RunOptions};
pub use shard::{shard_of, ShardPlan, ShardedClusterSim};
pub use time::{SimDuration, SimTime};
