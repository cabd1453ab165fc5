//! The full-cluster discrete-event simulation: the stand-in for the paper's
//! testbed (32 hosts × 7 VMs, XEN, BLCR, NFS/DM-NFS).
//!
//! Compared to the fast per-task path ([`crate::runner`]), this engine adds
//! the cluster-level effects the paper's §5.1 describes:
//!
//! * **memory-constrained greedy scheduling** — a pending task is placed on
//!   the host with the maximum available memory (the paper's VM selection
//!   policy); tasks queue when no host fits;
//! * **checkpoint storage contention** — shared-disk checkpoints are
//!   operations on processor-sharing storage servers (one central NFS
//!   server, or one per host for DM-NFS with uniform-random selection);
//! * **restart migration** — a failed task re-queues and restarts on
//!   another host, paying the migration-type restart cost after placement.
//!
//! Sequential-task jobs release their next task only when the previous one
//! finishes; bag-of-tasks jobs submit all tasks at arrival.
//!
//! ## High-throughput core
//!
//! The engine is built to push millions of tasks in seconds (the regimes
//! of arXiv:1802.07455's asymptotics and arXiv:2311.17545's fleet
//! evaluation — long tasks, high failure rates, large fleets):
//!
//! * task state lives in a dense struct-of-arrays [`TaskStore`] — an event
//!   touches only the columns it needs, and kill plans live in one shared
//!   arena instead of a `VecDeque` per task;
//! * the future-event list is an indexed binary heap
//!   ([`crate::event::FastQueue`]) with stable `(time, sched, seq)`
//!   ordering and inline payloads; job arrivals are *not* pre-scheduled —
//!   a sorted arrival cursor feeds them in lazily, so the heap holds only
//!   the events of currently-active tasks (hundreds, not hundreds of
//!   thousands);
//! * a ramdisk task steps its own run → checkpoint → run chain without
//!   the heap (see *Checkpoint chains* below);
//! * failure events that provably cannot land inside the current phase
//!   (the next kill falls beyond the phase's known end) are never
//!   scheduled — they would arrive stale and be dropped anyway, so
//!   skipping them changes no results, only wasted heap traffic;
//! * per-host occupant lists make whole-host failures O(victims), not
//!   O(all tasks);
//! * [`MetricsMode::Streaming`] keeps no per-checkpoint sample, so
//!   million-checkpoint runs don't grow per-event `Vec`s;
//! * [`SimBudget::progress_every`] hands the processed-event count to a
//!   callback while a long run is in flight — the sharded runner
//!   ([`crate::shard`]) forwards it into `--progress` heartbeats;
//! * the engine is generic over an [`Observer`] (default [`ckpt_obs::NoObs`],
//!   which compiles every counter hook to nothing); attach a
//!   [`ckpt_obs::Counters`] cell via [`ClusterSim::with_observer`] and run
//!   through [`ClusterSim::run_observed`] to collect deterministic event /
//!   kill / checkpoint counters without perturbing results.
//!
//! Staleness discipline: every task-directed event carries the task's
//! *epoch* at scheduling time; any state transition bumps the epoch, so
//! events from superseded phases are ignored on arrival. Storage completions
//! use the PS server's generation counter the same way.
//!
//! Determinism: results are a pure function of `(config, trace, estimates,
//! policy)`. Event order is total — integer-microsecond times, ties broken
//! by the time an event was scheduled, then by schedule order — and all
//! randomness (host-failure draws, DM-NFS server picks) comes from one
//! stream consumed in event order.
//!
//! ## Checkpoint chains
//!
//! A ramdisk write has a fixed cost and draws nothing from the RNG, so
//! between its own kills, its completion and its host's failures, a
//! running ramdisk task touches no state that another event reads. When
//! such a task enters a phase, the engine steps the phase ends itself,
//! on the same `SimTime` arithmetic and through the same transition
//! helpers the heap handlers call, and stops at the first phase where
//!
//! * its next planned kill lands (the `arm_kill` test: a kill at exactly
//!   the phase end lands and wins the tie),
//! * the task completes, or
//! * the phase end's queue key `(end, phase start)` is not below the
//!   pending failure of the task's host.
//!
//! Only that last phase's events enter the heap, keyed as scheduled at
//! the phase's start, exactly as the heap path would have keyed them. A
//! host failure draws its successor at the start of its handler rather
//! than at the end (no other draw happens in between), so tasks placed on
//! the host while its victims re-queue see the new bound; the event is
//! still pushed last.
//!
//! Every stepped-past phase end counts as a scheduled and popped event
//! (`events`, [`ckpt_obs::Counter::EventsChained`]), progress reports
//! fire once per crossed multiple, and stale kills are counted as before.
//! Under [`MetricsMode::Full`] each duration is stored with the key of
//! the event that completed it and sorted once at the end, so the sample
//! keeps the order the all-heap engine pops in. The one order the chain
//! cannot reproduce is an exact `(time, sched)` tie between a
//! chain-scheduled event and one that another handler scheduled at that
//! same `sched`: the chain's event gets the lower `seq`. The golden
//! digests, the stress pins and the 30 000-job benchmark-shape pin all
//! come out byte-identical to the all-heap engine.

use crate::blcr::{BlcrModel, Device};
use crate::event::{self, FastQueue};
use crate::metrics::JobRecord;
use crate::policy::{plan_task, Estimates, PolicyConfig};
use crate::storage::{OpId, PsResource};
use crate::task_sim::{next_checkpoint_in, TaskOutcome};
use crate::task_store::{TaskState, TaskStore, NO_HOST, NO_TASK};
use crate::time::{SimDuration, SimTime};
use ckpt_obs::{Counter, NoObs, Observer};
use ckpt_stats::rng::{Rng64, SplitMix64, Xoshiro256StarStar};
use ckpt_trace::failure::{sample_task_plan, FailureModelSpec, FailureProcess, HazardProcess};
use ckpt_trace::gen::{JobStructure, Trace};
use ckpt_trace::plan::FailurePlanArena;
use std::collections::{HashMap, VecDeque};

/// Cluster topology and storage parameters (defaults = the paper's testbed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterConfig {
    /// Number of physical hosts (paper: 32).
    pub n_hosts: usize,
    /// VM slots per host (paper: 7 one-GB VMs per host).
    pub vms_per_host: usize,
    /// Usable memory per host, MB (paper: 7 × 1 GB VM allocations).
    pub host_mem_mb: f64,
    /// Aggregate service rate of each NFS server, in uncontended
    /// checkpoint-seconds per wall second (1.0 = nominal Table 4 speed).
    pub storage_rate: f64,
    /// Optional whole-host failures: mean time between failures per host
    /// (seconds). When a host fails, every task running (or
    /// checkpointing) on it is killed and "immediately restarted on other
    /// hosts from their most recent checkpoints" (paper §2). `None`
    /// disables host failures (the default; the paper's evaluation injects
    /// failures at task granularity from the trace).
    pub host_mtbf_s: Option<f64>,
    /// The inter-failure law host failures are drawn from
    /// ([`ckpt_trace::failure`]). The default
    /// [`FailureModelSpec::Exponential`] reproduces the historical
    /// `-ln(U)·MTBF` draws bit-for-bit; other models keep the configured
    /// MTBF as the process mean and change only the interval law.
    pub failure_model: FailureModelSpec,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            n_hosts: 32,
            vms_per_host: 7,
            host_mem_mb: 7.0 * 1024.0,
            storage_rate: 1.0,
            host_mtbf_s: None,
            failure_model: FailureModelSpec::Exponential,
        }
    }
}

/// How the engine accumulates per-checkpoint observations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MetricsMode {
    /// Keep every checkpoint duration (Table 2/3-style measurements need
    /// the raw sample). The default; output is byte-identical to the
    /// historical engine.
    #[default]
    Full,
    /// Keep no per-checkpoint sample — constant memory, for stress-scale
    /// runs where a raw `Vec` would grow per event.
    /// [`ClusterRunResult::checkpoint_durations`] stays empty.
    Streaming,
}

/// Reporting cadence for [`ClusterSim::run_observed`]. A run always goes
/// to completion; the budget only decides how often it reports progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimBudget {
    /// Invoke the progress callback every N processed events (0 = never).
    pub progress_every: u64,
}

impl SimBudget {
    /// No progress reporting.
    pub const UNLIMITED: SimBudget = SimBudget { progress_every: 0 };
}

/// One job's result from a cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterJobRecord {
    /// The per-task aggregation. Task walls are ready→done spans, so
    /// queueing delays count against WPR, as in the paper's Formula (9).
    pub base: JobRecord,
    /// Total time tasks spent waiting in the scheduler queue (seconds).
    pub queue_wait: f64,
    /// Job span: arrival of the job to completion of its last task (s).
    pub span: f64,
}

/// Result of a cluster replay.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// Per-job records, in job order.
    pub jobs: Vec<ClusterJobRecord>,
    /// Durations of all completed checkpoints (for Table 2/3 style
    /// contention measurements). Empty under [`MetricsMode::Streaming`].
    pub checkpoint_durations: Vec<f64>,
    /// Highest number of simultaneously in-flight shared-disk checkpoints.
    pub max_concurrent_checkpoints: usize,
    /// Total simulated time.
    pub makespan: SimTime,
    /// Whole-host failures injected (0 unless `host_mtbf_s` was set).
    pub host_failures: u64,
    /// Events processed (arrivals, milestones, failures, checkpoint and
    /// storage completions, restores, host failures), including the phase
    /// ends a checkpoint chain stepped past without the heap.
    pub events: u64,
    /// Tasks completed. Below the trace's task count when some task needs
    /// more memory than a host has: the FIFO scheduler blocks behind it,
    /// the records of unfinished jobs are partial, and
    /// [`crate::shard::ShardedClusterSim`] reports the run as an error.
    pub tasks_done: usize,
}

/// Compact event payload. Job arrivals are not heap events — they feed in
/// from the engine's sorted arrival cursor.
#[derive(Debug, Clone, Copy)]
enum Ev {
    Failure { task: u32, epoch: u32 },
    CkptDone { task: u32, epoch: u32 },
    Milestone { task: u32, epoch: u32 },
    RestoreDone { task: u32, epoch: u32 },
    Storage { server: u32, generation: u64 },
    HostFailure { host: u32 },
}

/// Stream selector of the cluster-level RNG (host-failure draws, DM-NFS
/// server picks). The sharded runner derives per-shard streams as
/// `CLUSTER_STREAM + shard_index`, so shard 0 reproduces the unsharded
/// engine's stream bit-for-bit.
pub(crate) const CLUSTER_STREAM: u64 = 0xC105;

/// The cluster engine. Build with [`ClusterSim::new`], then
/// [`ClusterSim::run`] (or [`ClusterSim::run_observed`] for progress
/// snapshots and the attached observer's counters).
pub struct ClusterSim<'a, O: Observer = NoObs> {
    cfg: ClusterConfig,
    trace: &'a Trace,
    queue: FastQueue<Ev>,
    store: TaskStore,
    /// First dense task id of each job (`job_start.len() == jobs + 1`).
    job_start: Vec<u32>,
    /// Job arrivals sorted by `(time, job index)`; fed into the event
    /// stream lazily through `arrival_cursor` so the heap never holds the
    /// whole future workload.
    arrivals: Vec<(SimTime, u32)>,
    arrival_cursor: usize,
    /// FIFO scheduler queue of task ids.
    pending: VecDeque<u32>,
    host_mem_free: Vec<f64>,
    /// Tasks currently holding a VM slot on each host (swap-remove order;
    /// consumers that need determinism sort before use). Doubles as the
    /// per-host VM-slot count (`occupants[h].len()`).
    occupants: Vec<Vec<u32>>,
    /// Free VM slots fleet-wide: `try_place` skips its host scan at 0.
    free_slots: usize,
    /// Queue key ([`event::key`]) of each host's pending failure event;
    /// `u128::MAX` when host failures are off. A checkpoint chain skips
    /// only phase ends that pop before it.
    host_fail_key: Vec<u128>,
    storage: Vec<PsResource>,
    /// op id → task id.
    storage_ops: HashMap<u64, u32>,
    next_op_id: u64,
    cluster_rng: Xoshiro256StarStar,
    /// Host inter-failure process, built once from `(failure_model,
    /// host_mtbf_s)` — constructing it per draw would redo Weibull/Pareto
    /// parameter derivation on every host-failure event. `None` when host
    /// failures are disabled.
    host_process: Option<HazardProcess>,
    metrics_mode: MetricsMode,
    /// Full mode: each checkpoint's duration with the queue key
    /// `(time, sched)` of the event that completed it. Chains record
    /// ahead of the clock, so [`ClusterSim::into_result`] sorts once.
    ckpt_durations: Vec<(SimTime, SimTime, f64)>,
    max_concurrent: usize,
    host_failures: u64,
    /// Kill-plan provenance recorded at build time (one lookup per task):
    /// transferred to the observer by [`ClusterSim::with_observer`] so the
    /// arena-identity telemetry invariant covers cluster cells too.
    plan_lookups: u64,
    arena_hits: u64,
    arena_misses: u64,
    /// Tasks not yet completed; host-failure injection stops at zero so the
    /// event queue can drain.
    tasks_remaining: usize,
    /// Time of the last workload event (makespan; excludes trailing
    /// host-failure events after completion).
    last_activity: SimTime,
    now: SimTime,
    events: u64,
    /// Telemetry hook; [`NoObs`] (the default) compiles every counter
    /// call in the event loop to nothing.
    obs: O,
}

impl<'a> ClusterSim<'a> {
    /// Build a cluster simulation over a trace with a policy, sampling
    /// every task's kill plan fresh from its failure stream.
    pub fn new(
        cfg: ClusterConfig,
        trace: &'a Trace,
        estimates: &'a Estimates,
        policy: PolicyConfig,
    ) -> Self {
        Self::build(cfg, trace, estimates, policy, None, CLUSTER_STREAM)
    }

    /// [`ClusterSim::new`] drawing kill plans from a shared
    /// [`FailurePlanArena`] instead of re-sampling — byte-identical output
    /// (the arena holds the exact positions the per-task streams produce),
    /// minus the whole per-cell sampling pass. This is the sweep engine's
    /// cross-cell fast path, now shared with the fast engine: one arena
    /// per `(trace, failure model)` serves every policy/cost cell. The
    /// arena is only read during construction; nothing borrows it after.
    pub fn with_plans(
        cfg: ClusterConfig,
        trace: &'a Trace,
        estimates: &'a Estimates,
        policy: PolicyConfig,
        plans: &FailurePlanArena,
    ) -> Self {
        Self::build(cfg, trace, estimates, policy, Some(plans), CLUSTER_STREAM)
    }

    /// Build over `trace`, drawing kill plans from `plans` when given. The
    /// cluster RNG `stream` is fixed here because the initial host-failure
    /// wave draws from it: shard `s` of a sharded run passes
    /// `CLUSTER_STREAM + s`.
    pub(crate) fn build(
        cfg: ClusterConfig,
        trace: &'a Trace,
        estimates: &'a Estimates,
        policy: PolicyConfig,
        plans: Option<&FailurePlanArena>,
        stream: u64,
    ) -> Self {
        let blcr = BlcrModel;
        let n_tasks: usize = trace.jobs.iter().map(|j| j.tasks.len()).sum();
        let mut store = TaskStore::with_capacity(n_tasks);
        let mut job_start = Vec::with_capacity(trace.jobs.len() + 1);
        for (job_idx, job) in trace.jobs.iter().enumerate() {
            job_start.push(store.len() as u32);
            for t in &job.tasks {
                let plan = plan_task(&policy, &blcr, estimates, t, job.priority);
                // The same kill plan the history/estimator saw (common
                // random numbers across policies and with the fast path):
                // borrowed from the shared arena when one is provided —
                // it holds exactly the positions the stream produces —
                // or sampled fresh from the task's own stream.
                match plans {
                    Some(arena) => {
                        store.push(
                            t.length_s,
                            t.mem_mb,
                            plan.device,
                            plan.ckpt_cost,
                            plan.restart_cost,
                            plan.controller,
                            arena.kills(t.id),
                        );
                    }
                    None => {
                        let kills = {
                            let mut rng = trace.failure_stream(t.id);
                            sample_task_plan(
                                trace.failure_model,
                                job.priority,
                                t.length_s,
                                &mut rng,
                            )
                        };
                        store.push(
                            t.length_s,
                            t.mem_mb,
                            plan.device,
                            plan.ckpt_cost,
                            plan.restart_cost,
                            plan.controller,
                            &kills.positions,
                        );
                    }
                }
            }
            // Successor links for sequential release (idx k → idx k+1).
            let base = job_start[job_idx] as usize;
            if job.structure == JobStructure::Sequential {
                for (k, t) in job.tasks.iter().enumerate() {
                    let succ = if job.tasks.get(k + 1).map(|n| n.idx) == Some(t.idx + 1) {
                        Some(base + k + 1)
                    } else {
                        job.tasks
                            .iter()
                            .position(|n| n.idx == t.idx + 1)
                            .map(|p| base + p)
                    };
                    store.next_in_job[base + k] = succ.map(|s| s as u32).unwrap_or(NO_TASK);
                }
            }
        }
        job_start.push(store.len() as u32);

        let mut arrivals: Vec<(SimTime, u32)> = trace
            .jobs
            .iter()
            .enumerate()
            .map(|(i, j)| (SimTime::from_secs_f64(j.arrival_s), i as u32))
            .collect();
        // Stable by time: equal-time arrivals keep job order, matching the
        // historical engine's (time, schedule-seq) order.
        arrivals.sort_by_key(|&(t, _)| t);

        let mut sim = Self {
            cfg,
            trace,
            queue: FastQueue::with_capacity(1024),
            store,
            job_start,
            arrivals,
            arrival_cursor: 0,
            pending: VecDeque::new(),
            host_mem_free: vec![cfg.host_mem_mb; cfg.n_hosts],
            occupants: vec![Vec::new(); cfg.n_hosts],
            free_slots: cfg.n_hosts * cfg.vms_per_host,
            host_fail_key: vec![u128::MAX; cfg.n_hosts],
            storage: (0..cfg.n_hosts)
                .map(|_| PsResource::new(cfg.storage_rate))
                .collect(),
            storage_ops: HashMap::new(),
            next_op_id: 0,
            cluster_rng: Xoshiro256StarStar::stream(SplitMix64::mix(trace.seed), stream),
            host_process: cfg.host_mtbf_s.map(|mtbf| cfg.failure_model.process(mtbf)),
            metrics_mode: MetricsMode::Full,
            ckpt_durations: Vec::new(),
            max_concurrent: 0,
            host_failures: 0,
            plan_lookups: 0,
            arena_hits: 0,
            arena_misses: 0,
            tasks_remaining: 0,
            last_activity: SimTime::ZERO,
            now: SimTime::ZERO,
            events: 0,
            obs: NoObs,
        };
        sim.tasks_remaining = sim.store.len();
        sim.plan_lookups = sim.store.len() as u64;
        if plans.is_some() {
            sim.arena_hits = sim.plan_lookups;
        } else {
            sim.arena_misses = sim.plan_lookups;
        }
        for host in 0..cfg.n_hosts {
            if let Some(at) = sim.draw_host_failure(host) {
                sim.schedule_ev(at, Ev::HostFailure { host: host as u32 });
            }
        }
        sim
    }
}

impl<'a, O: Observer> ClusterSim<'a, O> {
    /// Set the metrics accumulation mode (default [`MetricsMode::Full`]).
    pub fn with_metrics(mut self, mode: MetricsMode) -> Self {
        self.metrics_mode = mode;
        self
    }

    /// Swap in a different observer (e.g. a [`ckpt_obs::Counters`] cell).
    /// A counting observer never changes what the simulation computes —
    /// results stay bit-identical to the [`NoObs`] build; it only records
    /// what happened. Retrieve the counts via [`ClusterSim::run_observed`].
    pub fn with_observer<O2: Observer>(self, mut obs: O2) -> ClusterSim<'a, O2> {
        // Events already in the heap (the initial host-failure wave,
        // scheduled at construction under the previous observer) transfer
        // their scheduled-count to the incoming observer, preserving the
        // popped == scheduled − stale accounting identity. Build-time
        // kill-plan lookups transfer the same way, so the arena identity
        // (hits + misses == lookups) holds for cluster cells.
        obs.incr(Counter::EventsScheduled, self.queue.len() as u64);
        obs.incr(Counter::PlanLookups, self.plan_lookups);
        obs.incr(Counter::ArenaHits, self.arena_hits);
        obs.incr(Counter::ArenaMisses, self.arena_misses);
        ClusterSim {
            cfg: self.cfg,
            trace: self.trace,
            queue: self.queue,
            store: self.store,
            job_start: self.job_start,
            arrivals: self.arrivals,
            arrival_cursor: self.arrival_cursor,
            pending: self.pending,
            host_mem_free: self.host_mem_free,
            occupants: self.occupants,
            free_slots: self.free_slots,
            host_fail_key: self.host_fail_key,
            storage: self.storage,
            storage_ops: self.storage_ops,
            next_op_id: self.next_op_id,
            cluster_rng: self.cluster_rng,
            host_process: self.host_process,
            metrics_mode: self.metrics_mode,
            ckpt_durations: self.ckpt_durations,
            max_concurrent: self.max_concurrent,
            host_failures: self.host_failures,
            plan_lookups: self.plan_lookups,
            arena_hits: self.arena_hits,
            arena_misses: self.arena_misses,
            tasks_remaining: self.tasks_remaining,
            last_activity: self.last_activity,
            now: self.now,
            events: self.events,
            obs,
        }
    }

    /// Number of tasks in the workload.
    pub fn task_count(&self) -> usize {
        self.store.len()
    }

    /// Schedule a heap event, counting it toward
    /// [`Counter::EventsScheduled`].
    #[inline]
    fn schedule_ev(&mut self, when: SimTime, ev: Ev) {
        self.obs.tick(Counter::EventsScheduled);
        self.queue.schedule(when, self.now, ev);
    }

    /// Draw the next whole-host failure for `host` from the configured
    /// failure process (the default exponential process reproduces the
    /// historical `-ln(U)·MTBF` draw on the same stream, bit-for-bit) and
    /// record its queue key as the host's chain bound. The caller pushes
    /// the event, keyed as scheduled now.
    fn draw_host_failure(&mut self, host: usize) -> Option<SimTime> {
        let process = self.host_process.as_ref()?;
        let dt = process.sample_interval(&mut self.cluster_rng);
        let at = self.now + SimDuration::from_secs_f64(dt);
        self.host_fail_key[host] = event::key(at, self.now);
        Some(at)
    }

    /// Mark a task ready and try to place it.
    fn make_ready(&mut self, ti: usize) {
        self.store.state[ti] = TaskState::Queued;
        self.store.bump_epoch(ti);
        self.store.ready_at[ti] = self.now;
        if !self.store.first_ready_set[ti] {
            self.store.first_ready_set[ti] = true;
            self.store.first_ready[ti] = self.now;
        }
        self.pending.push_back(ti as u32);
        self.try_place();
    }

    /// Greedy placement: host with maximum free memory that fits (the
    /// paper's policy), FIFO over the queue.
    fn try_place(&mut self) {
        while self.free_slots > 0 {
            let ti = match self.pending.front().copied() {
                Some(ti) => ti as usize,
                None => return,
            };
            let mem = self.store.mem_mb[ti];
            let mut best: Option<(usize, f64)> = None;
            for h in 0..self.cfg.n_hosts {
                if self.occupants[h].len() < self.cfg.vms_per_host && self.host_mem_free[h] >= mem {
                    match best {
                        Some((_, free)) if free >= self.host_mem_free[h] => {}
                        _ => best = Some((h, self.host_mem_free[h])),
                    }
                }
            }
            let Some((h, _)) = best else {
                return; // head of queue does not fit anywhere: FIFO blocks
            };
            self.pending.pop_front();
            self.free_slots -= 1;
            self.host_mem_free[h] -= mem;
            self.store.host[ti] = h as u32;
            self.store.host_slot[ti] = self.occupants[h].len() as u32;
            self.occupants[h].push(ti as u32);
            self.store.wait_time[ti] += (self.now - self.store.ready_at[ti]).as_secs_f64();
            let is_restart = self.store.outcome[ti].failures > 0;
            if is_restart {
                // Pay the restore (migration) cost; the task is not busy, so
                // its failure clock is paused.
                self.obs.tick(Counter::Restarts);
                self.store.state[ti] = TaskState::Restoring;
                let epoch = self.store.bump_epoch(ti);
                let restart_cost = self.store.restart_cost[ti];
                self.store.outcome[ti].restart_time += restart_cost;
                let when = self.now + SimDuration::from_secs_f64(restart_cost);
                self.schedule_ev(
                    when,
                    Ev::RestoreDone {
                        task: ti as u32,
                        epoch,
                    },
                );
            } else {
                self.advance(ti, None);
            }
        }
    }

    /// Enter task `ti`'s next phase at the engine clock: a ramdisk write
    /// of progress `write` when given, a run phase from the durable
    /// position otherwise, and schedule the phase's end.
    ///
    /// A ramdisk task then steps its checkpoint chain: while its phase
    /// ends before anything else can touch it (no kill lands in the
    /// phase, the task does not complete, and the end's queue key is
    /// below its host's pending failure), the end event is counted as
    /// popped instead of scheduled, and the next phase begins at that end
    /// on the chain's own clock. Only the last phase's events enter the
    /// heap, keyed as scheduled at that phase's start. The engine clock is
    /// restored on return.
    fn advance(&mut self, ti: usize, mut write: Option<f64>) {
        let clock = self.now;
        loop {
            if let Some(pos) = write {
                let epoch = self.begin_checkpoint(ti, pos);
                let end = self.now + SimDuration::from_secs_f64(self.store.ckpt_cost[ti]);
                if self.arm_kill(ti, epoch, Some(end)) || !self.chains(ti, end) {
                    self.schedule_ev(
                        end,
                        Ev::CkptDone {
                            task: ti as u32,
                            epoch,
                        },
                    );
                    break;
                }
                let sched = self.now;
                self.skip_to(end);
                self.complete_checkpoint(ti, self.store.ckpt_cost[ti], sched);
            }
            let (epoch, end, next) = self.begin_run(ti);
            if self.arm_kill(ti, epoch, Some(end)) || next.is_none() || !self.chains(ti, end) {
                self.schedule_ev(
                    end,
                    Ev::Milestone {
                        task: ti as u32,
                        epoch,
                    },
                );
                break;
            }
            self.skip_to(end);
            self.store.busy[ti] += (self.now - self.store.phase_start[ti]).as_secs_f64();
            write = next;
        }
        self.now = clock;
    }

    /// Begin a run phase from the durable position. Returns its epoch, its
    /// end, and the checkpoint it heads for (`None`: it completes the
    /// task).
    fn begin_run(&mut self, ti: usize) -> (u32, SimTime, Option<f64>) {
        self.store.state[ti] = TaskState::Running;
        let epoch = self.store.bump_epoch(ti);
        let durable = self.store.durable[ti];
        let te = self.store.te[ti];
        self.store.run_base[ti] = durable;
        self.store.phase_start[ti] = self.now;
        let next = next_checkpoint_in(&self.store.controller[ti], durable, te);
        let run_needed = (next.unwrap_or(te) - durable).max(0.0);
        (
            epoch,
            self.now + SimDuration::from_secs_f64(run_needed),
            next,
        )
    }

    /// Begin writing a checkpoint of progress `pos`; returns its epoch.
    fn begin_checkpoint(&mut self, ti: usize, pos: f64) -> u32 {
        self.store.run_base[ti] = pos;
        self.store.state[ti] = TaskState::Checkpointing;
        self.store.phase_start[ti] = self.now;
        self.store.bump_epoch(ti)
    }

    /// Whether a chain may step past the end of task `ti`'s current phase:
    /// the task writes to ramdisk, and the end event, keyed `(end, now)`,
    /// would pop before its host's pending failure.
    #[inline]
    fn chains(&self, ti: usize, end: SimTime) -> bool {
        self.store.device[ti] == Device::Ramdisk
            && event::key(end, self.now) < self.host_fail_key[self.store.host[ti] as usize]
    }

    /// Account one chained phase end as scheduled and popped, and move
    /// the chain's clock to it.
    #[inline]
    fn skip_to(&mut self, end: SimTime) {
        self.now = end;
        self.events += 1;
        self.obs.tick(Counter::EventsScheduled);
        self.obs.tick(Counter::EventsPopped);
        self.obs.tick(Counter::EventsChained);
    }

    /// Arm the task's next planned kill for the phase it entered now under
    /// `epoch`. A kill beyond the phase's known end (`ends_at`) can never
    /// fire in it — the phase's own transition would make it stale — so it
    /// is skipped, and the next phase arms the same kill again. The skip
    /// counts as scheduled *and* stale-skipped, keeping the `popped ==
    /// scheduled − stale_skips` identity exact on completion. A kill at
    /// exactly `ends_at` is armed; scheduled before the phase's end event,
    /// it pops first and wins the tie. Returns whether the kill was armed.
    fn arm_kill(&mut self, ti: usize, epoch: u32, ends_at: Option<SimTime>) -> bool {
        let Some(kill) = self.store.next_kill(ti) else {
            return false;
        };
        let fail_at = self.now + SimDuration::from_secs_f64((kill - self.store.busy[ti]).max(0.0));
        if ends_at.is_some_and(|end| fail_at > end) {
            self.obs.tick(Counter::EventsScheduled);
            self.obs.tick(Counter::StaleSkips);
            false
        } else {
            self.schedule_ev(
                fail_at,
                Ev::Failure {
                    task: ti as u32,
                    epoch,
                },
            );
            true
        }
    }

    /// Release the task's host resources.
    fn release_host(&mut self, ti: usize) {
        let h = self.store.host[ti];
        if h != NO_HOST {
            let h = h as usize;
            self.store.host[ti] = NO_HOST;
            self.free_slots += 1;
            self.host_mem_free[h] += self.store.mem_mb[ti];
            // Swap-remove from the occupant list, patching the moved
            // task's slot index (no patch needed when the removed task
            // was the last entry).
            let slot = self.store.host_slot[ti] as usize;
            self.occupants[h].swap_remove(slot);
            if let Some(&moved) = self.occupants[h].get(slot) {
                self.store.host_slot[moved as usize] = slot as u32;
            }
        }
    }

    /// Kill a task: either its next planned trace kill (`from_plan`) or an
    /// exogenous event such as a whole-host failure.
    fn on_failure(&mut self, ti: usize, from_plan: bool) {
        let now = self.now;
        self.obs.tick(Counter::TaskKills);
        let elapsed = (now - self.store.phase_start[ti]).as_secs_f64();
        self.store.busy[ti] += elapsed;
        if from_plan {
            self.store.pop_kill(ti);
        }
        let run_base = self.store.run_base[ti];
        let live = match self.store.state[ti] {
            TaskState::Running => run_base + elapsed,
            // The kill aborts the write: the partial write is busy time
            // but not progress, which stays frozen at run_base. A
            // shared-disk write (the only kind with a storage op) ran for
            // its op's elapsed time.
            TaskState::Checkpointing => {
                let partial = match self.store.storage_op[ti].take() {
                    Some((server, op, started)) => {
                        let server = server as usize;
                        self.storage[server].remove(now, op);
                        self.storage_ops.remove(&op.0);
                        self.reschedule_storage(server);
                        (now - started).as_secs_f64()
                    }
                    None => elapsed,
                };
                self.store.outcome[ti].abort_checkpoint(partial);
                self.obs.tick(Counter::CheckpointsAborted);
                run_base
            }
            _ => run_base,
        };
        let durable = self.store.durable[ti];
        self.store.outcome[ti].roll_back(live, durable, &mut self.store.controller[ti]);
        self.store.state[ti] = TaskState::Queued;
        self.store.bump_epoch(ti);
        self.store.ready_at[ti] = now;
        // The task migrates: release this host, re-queue.
        self.release_host(ti);
        self.pending.push_back(ti as u32);
        self.try_place();
    }

    fn on_milestone(&mut self, ti: usize) {
        let now = self.now;
        self.store.busy[ti] += (now - self.store.phase_start[ti]).as_secs_f64();
        let durable = self.store.durable[ti];
        let te = self.store.te[ti];
        let Some(target) = next_checkpoint_in(&self.store.controller[ti], durable, te) else {
            self.complete_task(ti);
            return;
        };
        let server = match self.store.device[ti] {
            Device::CentralNfs => 0usize,
            Device::DmNfs => self.cluster_rng.next_range(self.cfg.n_hosts as u64) as usize,
            Device::Ramdisk => {
                self.advance(ti, Some(target));
                return;
            }
        };
        // Contended write: completion time is not known up front, so the
        // kill (if any) must always be armed.
        let epoch = self.begin_checkpoint(ti, target);
        self.arm_kill(ti, epoch, None);
        let demand = self.store.ckpt_cost[ti];
        let op = OpId(self.next_op_id);
        self.next_op_id += 1;
        self.store.storage_op[ti] = Some((server as u32, op, now));
        self.storage[server].add(now, op, demand);
        self.storage_ops.insert(op.0, ti as u32);
        self.max_concurrent = self.max_concurrent.max(self.storage_ops.len());
        self.reschedule_storage(server);
    }

    /// (Re-)schedule the pending completion event of a PS server.
    fn reschedule_storage(&mut self, server: usize) {
        if let Some((_, when)) = self.storage[server].next_completion(self.now) {
            let generation = self.storage[server].generation();
            self.schedule_ev(
                when,
                Ev::Storage {
                    server: server as u32,
                    generation,
                },
            );
        }
    }

    /// A write that took `duration` seconds completed now, by an event
    /// keyed as scheduled at `sched`: its progress becomes durable.
    fn complete_checkpoint(&mut self, ti: usize, duration: f64, sched: SimTime) {
        let now = self.now;
        self.store.busy[ti] += (now - self.store.phase_start[ti]).as_secs_f64();
        self.obs.tick(Counter::CheckpointsWritten);
        let pos = self.store.run_base[ti];
        self.store.durable[ti] = pos;
        self.store.outcome[ti].complete_checkpoint(pos, duration, &mut self.store.controller[ti]);
        if self.metrics_mode == MetricsMode::Full {
            self.ckpt_durations.push((now, sched, duration));
        }
    }

    fn complete_task(&mut self, ti: usize) {
        let now = self.now;
        self.store.state[ti] = TaskState::Done;
        self.store.bump_epoch(ti);
        self.store.done_at[ti] = now;
        let start = if self.store.first_ready_set[ti] {
            self.store.first_ready[ti]
        } else {
            now
        };
        self.store.outcome[ti].wall = (now - start).as_secs_f64();
        self.tasks_remaining -= 1;
        self.release_host(ti);
        // ST jobs: release the successor task.
        let succ = self.store.next_in_job[ti];
        if succ != NO_TASK {
            self.make_ready(succ as usize);
            return; // make_ready already tried placement
        }
        self.try_place();
    }

    /// The next event in global `(time, sched, schedule-order)` order as
    /// `(time, sched, event)`, merging the lazy arrival cursor with the
    /// heap. Arrivals win ties — they were scheduled first (at
    /// construction, `sched` 0) in the historical engine, and the merge
    /// preserves exactly that order.
    fn next_event(&mut self) -> Option<(SimTime, SimTime, Option<Ev>)> {
        let arrival = self.arrivals.get(self.arrival_cursor).map(|&(t, _)| t);
        match (arrival, self.queue.peek_time()) {
            (Some(at), Some(qt)) if at <= qt => {
                self.arrival_cursor += 1;
                // Arrivals bypass the heap, but they are still events the
                // loop pops: count them as scheduled at consumption so
                // the popped/scheduled identity covers them.
                self.obs.tick(Counter::EventsScheduled);
                Some((at, SimTime::ZERO, None))
            }
            (Some(at), None) => {
                self.arrival_cursor += 1;
                self.obs.tick(Counter::EventsScheduled);
                Some((at, SimTime::ZERO, None))
            }
            (_, Some(_)) => self.queue.pop().map(|(t, sched, ev)| (t, sched, Some(ev))),
            (None, None) => None,
        }
    }

    /// No task holds a host and no job is still to arrive: every task left
    /// is queued behind one that fits no host, so nothing but host
    /// failures could ever happen again.
    fn stalled(&self) -> bool {
        self.arrival_cursor == self.arrivals.len() && self.occupants.iter().all(Vec::is_empty)
    }

    /// Run the simulation to completion and collect results.
    pub fn run(self) -> ClusterRunResult {
        self.run_observed(SimBudget::UNLIMITED, |_| {}).0
    }

    /// Run to completion, handing the processed-event count to
    /// `on_progress` every [`SimBudget::progress_every`] events (the
    /// sharded runner turns it into `--progress` heartbeats), and return
    /// the observer with
    /// the counters it collected. The observer never perturbs the
    /// simulation: results are bit-identical to the [`NoObs`] build.
    pub fn run_observed(
        mut self,
        budget: SimBudget,
        mut on_progress: impl FnMut(u64),
    ) -> (ClusterRunResult, O) {
        while let Some((time, sched, ev)) = self.next_event() {
            debug_assert!(time >= self.now);
            self.now = time;
            let counted = self.events;
            self.events += 1;
            self.obs.tick(Counter::EventsPopped);
            if O::ENABLED {
                self.obs
                    .record_peak(Counter::HeapPeak, self.queue.len() as u64);
            }
            if !matches!(ev, Some(Ev::HostFailure { .. })) {
                self.last_activity = time;
            }
            // Labeled so early exits (stale events, post-completion host
            // failures) still fall through to the progress check below —
            // every counted event gets its progress tick.
            'dispatch: {
                match ev {
                    None => {
                        // Job arrival (from the sorted cursor): the job index is
                        // the one just consumed.
                        let job_idx = self.arrivals[self.arrival_cursor - 1].1 as usize;
                        let job = &self.trace.jobs[job_idx];
                        let base = self.job_start[job_idx] as usize;
                        match job.structure {
                            JobStructure::Sequential => {
                                for k in 0..job.tasks.len() {
                                    if job.tasks[k].idx == 0 {
                                        self.make_ready(base + k);
                                    }
                                }
                            }
                            JobStructure::BagOfTasks => {
                                for k in 0..job.tasks.len() {
                                    self.make_ready(base + k);
                                }
                            }
                        }
                    }
                    Some(Ev::Failure { task, epoch }) => {
                        let t = task as usize;
                        let valid = self.store.epoch[t] == epoch
                            && matches!(
                                self.store.state[t],
                                TaskState::Running | TaskState::Checkpointing
                            );
                        if valid {
                            self.on_failure(t, true);
                        }
                    }
                    Some(Ev::HostFailure { host }) => {
                        if self.tasks_remaining == 0 || self.stalled() {
                            break 'dispatch; // nothing left to kill: stop injecting, let the queue drain
                        }
                        self.host_failures += 1;
                        self.obs.tick(Counter::HostFailures);
                        // Drawn before the victims re-queue, so tasks
                        // placed on this host in this handler chain up to
                        // its next failure. No other draw happens in
                        // between, and the event is still pushed last.
                        let next = self.draw_host_failure(host as usize);
                        // Kill every task currently occupying this host; they
                        // restart elsewhere from their last durable checkpoints.
                        // Sorted ascending: the historical engine scanned the
                        // dense task array in id order, and victim order decides
                        // re-queue (hence placement) order.
                        let mut victims: Vec<u32> = self.occupants[host as usize]
                            .iter()
                            .copied()
                            .filter(|&t| {
                                matches!(
                                    self.store.state[t as usize],
                                    TaskState::Running | TaskState::Checkpointing
                                )
                            })
                            .collect();
                        victims.sort_unstable();
                        for ti in victims {
                            self.on_failure(ti as usize, false);
                        }
                        if let Some(at) = next {
                            self.schedule_ev(at, Ev::HostFailure { host });
                        }
                    }
                    Some(Ev::Milestone { task, epoch }) => {
                        let t = task as usize;
                        let valid = self.store.epoch[t] == epoch
                            && self.store.state[t] == TaskState::Running;
                        if valid {
                            self.on_milestone(t);
                        }
                    }
                    Some(Ev::CkptDone { task, epoch }) => {
                        let t = task as usize;
                        let valid = self.store.epoch[t] == epoch
                            && self.store.state[t] == TaskState::Checkpointing;
                        if valid {
                            self.complete_checkpoint(t, self.store.ckpt_cost[t], sched);
                            self.advance(t, None);
                        }
                    }
                    Some(Ev::RestoreDone { task, epoch }) => {
                        let t = task as usize;
                        let valid = self.store.epoch[t] == epoch
                            && self.store.state[t] == TaskState::Restoring;
                        if valid {
                            self.advance(t, None);
                        }
                    }
                    Some(Ev::Storage { server, generation }) => {
                        let server = server as usize;
                        if generation != self.storage[server].generation() {
                            break 'dispatch; // stale: membership changed since scheduling
                        }
                        if let Some((op, when)) = self.storage[server].next_completion(self.now) {
                            // Only complete if the op is actually due now.
                            if when > self.now {
                                break 'dispatch;
                            }
                            if let Some(&ti) = self.storage_ops.get(&op.0) {
                                let ti = ti as usize;
                                let started = self.store.storage_op[ti].map(|(_, _, s)| s);
                                self.storage[server].remove(self.now, op);
                                self.storage_ops.remove(&op.0);
                                self.store.storage_op[ti] = None;
                                self.reschedule_storage(server);
                                let dur =
                                    started.map(|s| (self.now - s).as_secs_f64()).unwrap_or(0.0);
                                self.complete_checkpoint(ti, dur, sched);
                                self.advance(ti, None);
                            }
                        }
                    }
                }
            }
            // A chain counts the phase ends it stepped past, so one pass
            // can cross several multiples: report each.
            if budget.progress_every > 0 {
                let every = budget.progress_every;
                let mut next = (counted / every + 1) * every;
                while next <= self.events {
                    on_progress(next);
                    next += every;
                }
            }
        }
        if O::ENABLED {
            // The queue drained, so every scheduled event was popped and
            // every provably-stale skip is accounted: the engine's event
            // bookkeeping must balance exactly.
            debug_assert_eq!(
                self.obs.get(Counter::EventsPopped),
                self.obs.get(Counter::EventsScheduled) - self.obs.get(Counter::StaleSkips),
                "DES event accounting identity violated"
            );
        }
        let obs = std::mem::take(&mut self.obs);
        (self.into_result(), obs)
    }

    /// Assemble per-job records from the store (dense ids are trace order,
    /// so one running cursor walks every job's tasks without lookups).
    fn into_result(self) -> ClusterRunResult {
        let mut jobs = Vec::with_capacity(self.trace.jobs.len());
        let mut outcomes: Vec<TaskOutcome> = Vec::new();
        let mut lengths: Vec<f64> = Vec::new();
        let mut cursor = 0usize;
        for job in self.trace.jobs.iter() {
            outcomes.clear();
            lengths.clear();
            let mut wait = 0.0;
            let mut last_done = SimTime::from_secs_f64(job.arrival_s);
            for t in &job.tasks {
                let ti = cursor;
                cursor += 1;
                outcomes.push(self.store.outcome[ti]);
                lengths.push(t.length_s);
                wait += self.store.wait_time[ti];
                if self.store.state[ti] == TaskState::Done {
                    last_done = last_done.max(self.store.done_at[ti]);
                }
            }
            let base =
                JobRecord::from_outcomes(job.id, job.structure, job.priority, &outcomes, &lengths);
            let span = (last_done.as_secs_f64() - job.arrival_s).max(0.0);
            jobs.push(ClusterJobRecord {
                base,
                queue_wait: wait,
                span,
            });
        }
        // Back into the order the completing events pop in: chained
        // entries were recorded early, and a stable sort keeps the pop
        // order of equal keys.
        let mut durations = self.ckpt_durations;
        durations.sort_by_key(|&(time, sched, _)| (time, sched));
        ClusterRunResult {
            jobs,
            checkpoint_durations: durations.into_iter().map(|(_, _, d)| d).collect(),
            max_concurrent_checkpoints: self.max_concurrent,
            makespan: self.last_activity,
            host_failures: self.host_failures,
            events: self.events,
            tasks_done: self.store.len() - self.tasks_remaining,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Estimates, PolicyConfig, StorageChoice};
    use ckpt_trace::gen::generate;
    use ckpt_trace::spec::WorkloadSpec;
    use ckpt_trace::stats::trace_histories;

    fn setup(n: usize, seed: u64) -> (Trace, Estimates) {
        let mut spec = WorkloadSpec::google_like(n);
        spec.long_task_fraction = 0.0; // keep cluster tests quick
        let trace = generate(&spec, seed).expect("valid workload spec");
        let records = trace_histories(&trace);
        (trace, Estimates::from_records(&records))
    }

    #[test]
    fn all_jobs_complete() {
        let (trace, est) = setup(60, 31);
        let result = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        assert_eq!(result.jobs.len(), 60);
        for j in &result.jobs {
            assert!(j.span > 0.0);
            assert!(j.base.total_wall > 0.0);
            let wpr = j.base.wpr();
            assert!(wpr > 0.0 && wpr <= 1.0, "wpr = {wpr}");
        }
        assert!(result.makespan > SimTime::ZERO);
        assert!(result.events > 0);
        assert_eq!(result.tasks_done, trace.task_count());
    }

    #[test]
    fn deterministic_replay() {
        let (trace, est) = setup(40, 32);
        let r1 = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        let r2 = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        assert_eq!(r1.jobs, r2.jobs);
        assert_eq!(r1.checkpoint_durations, r2.checkpoint_durations);
        assert_eq!(r1.events, r2.events);
    }

    /// Golden digests captured from the engine *before* the
    /// TaskStore/FastQueue rewrite (commit fad19c3's `ckpt-sim`): the
    /// rewrite is an optimization, not a semantic change, so every digest
    /// must match bit-for-bit. If a deliberate semantic change ever breaks
    /// this, re-capture the digests and say so in the commit message.
    #[test]
    fn golden_digests_match_pre_rewrite_engine() {
        fn fnv(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100000001b3)
        }
        fn digest(result: &ClusterRunResult) -> u64 {
            let mut h = 0xcbf29ce484222325u64;
            for j in &result.jobs {
                h = fnv(h, j.base.job_id);
                h = fnv(h, j.base.total_work.to_bits());
                h = fnv(h, j.base.total_wall.to_bits());
                h = fnv(h, j.base.failures as u64);
                h = fnv(h, j.base.checkpoints as u64);
                h = fnv(h, j.base.rollback_loss.to_bits());
                h = fnv(h, j.base.checkpoint_time.to_bits());
                h = fnv(h, j.base.restart_time.to_bits());
                h = fnv(h, j.queue_wait.to_bits());
                h = fnv(h, j.span.to_bits());
            }
            for &d in &result.checkpoint_durations {
                h = fnv(h, d.to_bits());
            }
            h = fnv(h, result.max_concurrent_checkpoints as u64);
            h = fnv(h, result.makespan.0);
            h = fnv(h, result.host_failures);
            h
        }

        let (trace, est) = setup(60, 31);
        let plans = FailurePlanArena::build(&trace);
        let cases: Vec<(&str, ClusterConfig, PolicyConfig, u64)> = vec![
            (
                "default_formula3",
                ClusterConfig::default(),
                PolicyConfig::formula3(),
                0xb0c9f9ce211739c4,
            ),
            (
                "young",
                ClusterConfig::default(),
                PolicyConfig::young(),
                0x366cf32dc70ba92a,
            ),
            (
                "central_nfs",
                ClusterConfig::default(),
                PolicyConfig::formula3().with_storage(StorageChoice::Force(Device::CentralNfs)),
                0xbd7a52953a35067c,
            ),
            (
                "dm_nfs",
                ClusterConfig::default(),
                PolicyConfig::formula3().with_storage(StorageChoice::Force(Device::DmNfs)),
                0xe02fe080ed79a924,
            ),
            (
                "host_failures",
                ClusterConfig {
                    host_mtbf_s: Some(3_600.0),
                    ..ClusterConfig::default()
                },
                PolicyConfig::formula3(),
                0xa3b09cb1dde50639,
            ),
            (
                "none_policy",
                ClusterConfig::default(),
                PolicyConfig::none(),
                0xbde822dc3f476c61,
            ),
            (
                "adaptive",
                ClusterConfig::default(),
                PolicyConfig::formula3().with_adaptivity(true),
                0xe88bf3e9ea611681,
            ),
            (
                "tiny_cluster",
                ClusterConfig {
                    n_hosts: 2,
                    vms_per_host: 2,
                    ..ClusterConfig::default()
                },
                PolicyConfig::formula3(),
                0x18de1d1bba98bcc8,
            ),
        ];
        for (name, cfg, policy, expected) in cases {
            let r = ClusterSim::new(cfg, &trace, &est, policy).run();
            assert_eq!(
                digest(&r),
                expected,
                "{name}: output diverged from the pre-rewrite engine"
            );
            // A counting observer rides the same run without moving a
            // single output bit — and its totals satisfy the DES
            // accounting identities.
            let (observed, counters) = ClusterSim::new(cfg, &trace, &est, policy)
                .with_observer(ckpt_obs::Counters::new())
                .run_observed(SimBudget::UNLIMITED, |_| {});
            assert_eq!(
                digest(&observed),
                expected,
                "{name}: counting observer changed the simulation output"
            );
            counters
                .verify_invariants(true)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(counters.get(Counter::EventsPopped), observed.events);
            assert_eq!(counters.get(Counter::HostFailures), observed.host_failures);
            // Fresh sampling attributes every build-time kill-plan lookup
            // as a miss (one lookup per task), satisfying the arena
            // identity `hits + misses == lookups` on cluster cells.
            let tasks = trace.task_count() as u64;
            assert_eq!(counters.get(Counter::PlanLookups), tasks, "{name}");
            assert_eq!(counters.get(Counter::ArenaMisses), tasks, "{name}");
            assert_eq!(counters.get(Counter::ArenaHits), 0, "{name}");

            // Routing kills through the shared plan arena is byte-identical
            // (the arena holds the same draws from the same streams), and
            // every lookup becomes a hit.
            let (arena_run, arena_counters) =
                ClusterSim::with_plans(cfg, &trace, &est, policy, &plans)
                    .with_observer(ckpt_obs::Counters::new())
                    .run_observed(SimBudget::UNLIMITED, |_| {});
            assert_eq!(
                digest(&arena_run),
                expected,
                "{name}: arena-routed kills diverged from fresh sampling"
            );
            arena_counters
                .verify_invariants(true)
                .unwrap_or_else(|e| panic!("{name} (arena): {e}"));
            assert_eq!(arena_counters.get(Counter::PlanLookups), tasks, "{name}");
            assert_eq!(arena_counters.get(Counter::ArenaHits), tasks, "{name}");
            assert_eq!(arena_counters.get(Counter::ArenaMisses), 0, "{name}");
        }

        // The failure-model layer must not perturb the default path: a
        // config that *explicitly* selects the exponential model matches
        // the default-config digest above bit-for-bit.
        let explicit = ClusterSim::new(
            ClusterConfig {
                failure_model: FailureModelSpec::Exponential,
                ..ClusterConfig::default()
            },
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        assert_eq!(digest(&explicit), 0xb0c9f9ce211739c4);
    }

    /// Non-default failure models get their own pinned digests (captured
    /// at introduction): the hazard paths must stay exactly as
    /// deterministic and stable as the legacy one.
    #[test]
    fn golden_digests_hazard_models() {
        fn fnv(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100000001b3)
        }
        fn digest(result: &ClusterRunResult) -> u64 {
            let mut h = 0xcbf29ce484222325u64;
            for j in &result.jobs {
                h = fnv(h, j.base.total_wall.to_bits());
                h = fnv(h, j.base.failures as u64);
                h = fnv(h, j.span.to_bits());
            }
            h = fnv(h, result.makespan.0);
            h = fnv(h, result.host_failures);
            h
        }

        let mut spec = WorkloadSpec::google_like(60);
        spec.long_task_fraction = 0.0;
        let cases: Vec<(&str, FailureModelSpec, u64)> = vec![
            (
                "weibull_tasks_and_hosts",
                FailureModelSpec::Weibull {
                    shape: 0.7,
                    scale: 1.0,
                },
                0x4053c235cd6b38e4,
            ),
            (
                "pareto_tasks_and_hosts",
                FailureModelSpec::Pareto {
                    shape: 1.5,
                    scale: 1.0,
                },
                0x900c63bd673a5c3f,
            ),
        ];
        for (name, model, expected) in cases {
            let trace =
                generate(&spec.clone().with_failure_model(model), 31).expect("valid workload spec");
            let records = trace_histories(&trace);
            let est = Estimates::from_records(&records);
            let cfg = ClusterConfig {
                host_mtbf_s: Some(3_600.0),
                failure_model: model,
                ..ClusterConfig::default()
            };
            let r = ClusterSim::new(cfg, &trace, &est, PolicyConfig::formula3()).run();
            let again = ClusterSim::new(cfg, &trace, &est, PolicyConfig::formula3()).run();
            assert_eq!(digest(&r), digest(&again), "{name}: nondeterministic");
            assert_eq!(digest(&r), expected, "{name}: digest drifted");
            assert!(r.host_failures > 0, "{name}: no host failures injected");
            // Arena-routed kills reproduce the hazard-model digests too.
            let plans = FailurePlanArena::build(&trace);
            let arena_run =
                ClusterSim::with_plans(cfg, &trace, &est, PolicyConfig::formula3(), &plans).run();
            assert_eq!(digest(&arena_run), expected, "{name}: arena diverged");
            // Hazard paths under a counting observer: identical bits,
            // valid accounting.
            let (observed, counters) = ClusterSim::new(cfg, &trace, &est, PolicyConfig::formula3())
                .with_observer(ckpt_obs::Counters::new())
                .run_observed(SimBudget::UNLIMITED, |_| {});
            assert_eq!(
                digest(&observed),
                expected,
                "{name}: observer perturbed run"
            );
            counters
                .verify_invariants(true)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    /// Plan data a tie case writes into the store after `build`, so that
    /// kills land exactly on phase boundaries: every task is 100 s long
    /// and the costs are whole seconds, so each boundary is an exact
    /// microsecond.
    struct TieCase {
        name: &'static str,
        cfg: ClusterConfig,
        policy: PolicyConfig,
        ckpt_cost: f64,
        restart_cost: f64,
        /// `Some((te, x))`: replace every controller with the fixed
        /// schedule of `x` intervals over `te` seconds.
        schedule: Option<(f64, u32)>,
        /// Busy-time kill positions by dense task id.
        kills: fn(usize) -> Vec<f64>,
    }

    fn rewrite_plans(sim: &mut ClusterSim<'_>, case: &TieCase) {
        let s = &mut sim.store;
        s.kill_off.clear();
        s.kill_pos.clear();
        s.kill_off.push(0);
        for t in 0..s.len() {
            s.kill_cursor[t] = s.kill_off[t];
            s.kill_pos.extend((case.kills)(t));
            s.kill_off.push(s.kill_pos.len() as u32);
            s.ckpt_cost[t] = case.ckpt_cost;
            s.restart_cost[t] = case.restart_cost;
            if let Some((te, x)) = case.schedule {
                let schedule = ckpt_policy::schedule::EquidistantSchedule::new(te, x).unwrap();
                s.controller[t] = crate::controller::Controller::Fixed(
                    crate::controller::FixedSchedule::new(&schedule),
                );
            }
        }
    }

    /// Ties and edge cases of the DES's phase boundaries, pinned by one
    /// digest over every case's job records, Full-mode checkpoint
    /// durations, makespan and event count. Every task writes to ramdisk,
    /// runs 100 s on a six-slot cluster (so tasks start when others end),
    /// and its kills sit on exact phase boundaries: with `x = 4` and
    /// `C = 2`, the milestones fall at busy 25, 52, 79 and the writes end
    /// at busy 27, 54, 81.
    #[test]
    fn phase_boundary_ties_and_edge_cases_are_pinned() {
        fn fnv(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100000001b3)
        }
        let mut spec = WorkloadSpec::google_like(30);
        spec.long_task_fraction = 0.0;
        let mut trace = generate(&spec, 41).expect("valid workload spec");
        for job in &mut trace.jobs {
            for t in &mut job.tasks {
                t.length_s = 100.0;
            }
        }
        let est = Estimates::from_records(&trace_histories(&trace));
        let small = ClusterConfig {
            n_hosts: 3,
            vms_per_host: 2,
            ..ClusterConfig::default()
        };
        let ramdisk = PolicyConfig::formula3().with_storage(StorageChoice::Force(Device::Ramdisk));
        let base = TieCase {
            name: "",
            cfg: small,
            policy: ramdisk,
            ckpt_cost: 2.0,
            restart_cost: 3.0,
            schedule: Some((100.0, 4)),
            kills: |_| Vec::new(),
        };
        let cases = [
            TieCase {
                name: "kill_at_run_milestone",
                kills: |t| match t % 3 {
                    0 => vec![25.0],
                    1 => vec![52.0, 79.0],
                    _ => vec![],
                },
                ..base
            },
            TieCase {
                name: "kill_at_write_end",
                kills: |t| match t % 3 {
                    0 => vec![27.0],
                    1 => vec![54.0, 81.0],
                    _ => vec![],
                },
                ..base
            },
            TieCase {
                name: "kill_at_phase_start_and_same_busy_time",
                kills: |t| match t % 3 {
                    0 => vec![0.0],
                    1 => vec![30.0, 30.0],
                    _ => vec![27.0, 27.0],
                },
                ..base
            },
            TieCase {
                name: "zero_ckpt_cost",
                ckpt_cost: 0.0,
                kills: |t| match t % 3 {
                    0 => vec![50.0],
                    1 => vec![25.0, 60.0],
                    _ => vec![],
                },
                ..base
            },
            TieCase {
                name: "run_phases_round_to_zero_us",
                // Checkpoints at 0.4, 0.8 and 1.2 µs of progress.
                schedule: Some((1.6e-6, 4)),
                kills: |t| match t % 3 {
                    0 => vec![2.0],
                    1 => vec![4.0, 50.0],
                    _ => vec![],
                },
                ..base
            },
            TieCase {
                name: "zero_length_phases",
                ckpt_cost: 0.0,
                schedule: Some((1.6e-6, 4)),
                kills: |t| match t % 2 {
                    0 => vec![0.0, 40.0],
                    _ => vec![],
                },
                ..base
            },
            TieCase {
                name: "x_equals_one",
                schedule: Some((100.0, 1)),
                kills: |t| match t % 2 {
                    0 => vec![40.0],
                    _ => vec![],
                },
                ..base
            },
            TieCase {
                name: "adaptive_controller",
                policy: ramdisk.with_adaptivity(true),
                schedule: None,
                kills: |t| match t % 3 {
                    0 => vec![25.0],
                    1 => vec![40.0, 41.0],
                    _ => vec![],
                },
                ..base
            },
            TieCase {
                name: "host_failures",
                cfg: ClusterConfig {
                    host_mtbf_s: Some(400.0),
                    ..small
                },
                kills: |t| match t % 3 {
                    0 => vec![52.0],
                    1 => vec![27.0],
                    _ => vec![],
                },
                ..base
            },
        ];
        let mut h = 0xcbf29ce484222325u64;
        for (i, case) in cases.iter().enumerate() {
            let mut sim = ClusterSim::new(case.cfg, &trace, &est, case.policy);
            rewrite_plans(&mut sim, case);
            let (r, counters) = sim
                .with_observer(ckpt_obs::Counters::new())
                .run_observed(SimBudget::UNLIMITED, |_| {});
            let name = case.name;
            assert_eq!(r.tasks_done, trace.task_count(), "{name}");
            counters
                .verify_invariants(true)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(counters.get(Counter::EventsPopped), r.events, "{name}");
            h = fnv(h, i as u64);
            for j in &r.jobs {
                h = fnv(h, j.base.total_wall.to_bits());
                h = fnv(h, j.base.failures as u64);
                h = fnv(h, j.base.checkpoints as u64);
                h = fnv(h, j.base.rollback_loss.to_bits());
                h = fnv(h, j.base.checkpoint_time.to_bits());
                h = fnv(h, j.base.restart_time.to_bits());
                h = fnv(h, j.queue_wait.to_bits());
                h = fnv(h, j.span.to_bits());
            }
            for &d in &r.checkpoint_durations {
                h = fnv(h, d.to_bits());
            }
            h = fnv(h, r.makespan.0);
            h = fnv(h, r.events);
            h = fnv(h, r.host_failures);
        }
        assert_eq!(
            h, 0xad8c_d522_911e_d014,
            "tie-case digest drifted: {h:#018x}"
        );
    }

    #[test]
    fn streaming_metrics_match_full_statistics() {
        let (trace, est) = setup(60, 31);
        let full = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        let streaming = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .with_metrics(MetricsMode::Streaming)
        .run();
        // Same simulation, same jobs; only the raw-duration Vec differs.
        assert_eq!(full.jobs, streaming.jobs);
        assert_eq!(full.events, streaming.events);
        assert!(!full.checkpoint_durations.is_empty());
        assert!(streaming.checkpoint_durations.is_empty());
    }

    #[test]
    fn progress_ticks_once_per_event_and_is_monotone() {
        let (trace, est) = setup(60, 31);
        let full = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        let mut snapshots = Vec::new();
        let (result, _) = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run_observed(SimBudget { progress_every: 1 }, |events| {
            snapshots.push(events)
        });
        assert_eq!(result.events, full.events);
        assert_eq!(result.tasks_done, trace.task_count());
        // progress_every = 1 ticks once per processed event, including
        // stale/drained ones: the k-th tick reports k events.
        assert_eq!(snapshots, (1..=full.events).collect::<Vec<_>>());
    }

    #[test]
    fn sequential_jobs_serialize_tasks() {
        let (trace, est) = setup(50, 33);
        let result = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        for (job, rec) in trace.jobs.iter().zip(&result.jobs) {
            if job.structure == JobStructure::Sequential && job.tasks.len() > 1 {
                // Span ≥ sum of task walls (tasks cannot overlap).
                assert!(
                    rec.span + 1e-6 >= rec.base.total_wall,
                    "job {}: span {} < total wall {}",
                    job.id,
                    rec.span,
                    rec.base.total_wall
                );
            }
        }
    }

    #[test]
    fn nfs_contention_vs_dmnfs() {
        let (trace, est) = setup(150, 34);
        let central = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3().with_storage(StorageChoice::Force(Device::CentralNfs)),
        )
        .run();
        let dm = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3().with_storage(StorageChoice::Force(Device::DmNfs)),
        )
        .run();
        let mean = |xs: &[f64]| xs.iter().sum::<f64>() / xs.len().max(1) as f64;
        let m_central = mean(&central.checkpoint_durations);
        let m_dm = mean(&dm.checkpoint_durations);
        // DM-NFS spreads the load: average checkpoint no slower than central.
        assert!(
            m_dm <= m_central + 1e-9,
            "dm {m_dm} vs central {m_central} (conc {} vs {})",
            dm.max_concurrent_checkpoints,
            central.max_concurrent_checkpoints
        );
        assert!(!central.checkpoint_durations.is_empty());
    }

    #[test]
    fn ramdisk_runs_have_zero_storage_ops() {
        let (trace, est) = setup(40, 35);
        let r = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3().with_storage(StorageChoice::Force(Device::Ramdisk)),
        )
        .run();
        assert_eq!(r.max_concurrent_checkpoints, 0);
        // Checkpoints still happen (fixed-duration path).
        assert!(!r.checkpoint_durations.is_empty());
    }

    #[test]
    fn tiny_cluster_queues_tasks() {
        let (trace, est) = setup(60, 36);
        let tiny = ClusterConfig {
            n_hosts: 2,
            vms_per_host: 2,
            ..ClusterConfig::default()
        };
        let small = ClusterSim::new(tiny, &trace, &est, PolicyConfig::formula3()).run();
        let big = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        let wait_small: f64 = small.jobs.iter().map(|j| j.queue_wait).sum();
        let wait_big: f64 = big.jobs.iter().map(|j| j.queue_wait).sum();
        assert!(
            wait_small > wait_big,
            "2-host cluster should queue more: {wait_small} vs {wait_big}"
        );
    }

    #[test]
    fn host_failures_injected_and_survived() {
        let (trace, est) = setup(40, 38);
        let cfg = ClusterConfig {
            host_mtbf_s: Some(3_600.0),
            ..ClusterConfig::default()
        };
        let result = ClusterSim::new(cfg, &trace, &est, PolicyConfig::formula3()).run();
        // Everything still completes, with some host failures recorded.
        assert_eq!(result.jobs.len(), 40);
        assert!(
            result.host_failures > 0,
            "expected host failures at 1 h MTBF"
        );
        for j in &result.jobs {
            let wpr = j.base.wpr();
            assert!(wpr > 0.0 && wpr <= 1.0);
        }
        // And the run is still deterministic.
        let again = ClusterSim::new(cfg, &trace, &est, PolicyConfig::formula3()).run();
        assert_eq!(result.jobs, again.jobs);
        assert_eq!(result.host_failures, again.host_failures);
    }

    #[test]
    fn host_failures_hurt_wpr() {
        let (trace, est) = setup(40, 39);
        let calm = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        let stormy = ClusterSim::new(
            ClusterConfig {
                host_mtbf_s: Some(1_800.0),
                ..ClusterConfig::default()
            },
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        let mean = |r: &ClusterRunResult| {
            r.jobs.iter().map(|j| j.base.wpr()).sum::<f64>() / r.jobs.len() as f64
        };
        assert!(
            mean(&stormy) < mean(&calm),
            "host failures should reduce WPR: {} vs {}",
            mean(&stormy),
            mean(&calm)
        );
    }

    #[test]
    fn accounting_identity_modulo_wait() {
        // Task wall (ready→done span) = productive + ckpt + rollback +
        // restart + wait, aggregated per job.
        let (trace, est) = setup(50, 37);
        let result = ClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
        )
        .run();
        for rec in &result.jobs {
            let parts = rec.base.total_work
                + rec.base.checkpoint_time
                + rec.base.rollback_loss
                + rec.base.restart_time
                + rec.queue_wait;
            assert!(
                (rec.base.total_wall - parts).abs() < 1e-3,
                "job {}: wall {} vs parts {}",
                rec.base.job_id,
                rec.base.total_wall,
                parts
            );
        }
    }
}
