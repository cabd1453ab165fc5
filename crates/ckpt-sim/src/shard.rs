//! Sharded cluster DES: one simulation across all cores.
//!
//! The cluster engine ([`crate::cluster`]) is strictly sequential — one
//! event loop, one core. This module partitions the host fleet into `S`
//! contiguous host groups ("shards") and runs one [`ClusterSim`] per shard
//! on the work-stealing substrate ([`crate::runner::parallel_indexed`]),
//! so a single stress-scale simulation saturates the machine instead of
//! one core.
//!
//! ## Partition rule
//!
//! * **Jobs** are assigned to shards at *trace* level: shard =
//!   `SplitMix64::mix(job_id ^ SHARD_SALT) % S` ([`shard_of`]). The
//!   assignment depends only on the job id and the shard count — never on
//!   thread count or scheduling — so a fixed `shards` value produces
//!   byte-identical results at any thread count.
//! * **Hosts** split into contiguous groups: shard `s` owns hosts
//!   `⌊H·s/S⌋ .. ⌊H·(s+1)/S⌋` (sizes differ by at most one). Each shard's
//!   engine sees only its own host count, VM slots, and per-host storage
//!   servers, so scheduling and NFS contention stay shard-local.
//! * **RNG**: each shard's cluster-level stream is
//!   `stream(mix(seed), CLUSTER_STREAM + shard_index)` — derived
//!   `(seed, shard)`-style like sweep cells. Shard 0 consumes the exact
//!   legacy stream, so a 1-shard run is bit-identical to the unsharded
//!   engine by construction.
//! * **Kill plans** come from one [`FailurePlanArena`] for the whole run:
//!   the caller's (see [`ShardedClusterSim::with_plans`]), or one sampled
//!   over the full trace before any shard starts. The arena is keyed by
//!   *global* task id, so per-shard sub-traces slice it for free.
//!
//! ## Run to completion, fold once
//!
//! Shards exchange no events (there is no cross-shard task migration), so
//! each shard engine runs to completion on whichever worker claims it, and
//! at most `threads` engines are alive at once. The finished results are
//! then folded once, **in shard order**: job records scatter back to
//! global trace order, and the checkpoint-duration samples and
//! `ckpt-obs` counter cells merge shard by shard. The fold order is
//! fixed, so merged frames are byte-identical at any thread count.
//!
//! A sharded run ticks [`Counter::ShardWindows`] once for its fold and
//! [`Counter::ShardMerges`] `S − 1` times (shard 0 seeds the fold); a
//! one-shard run ticks neither. So `shard_merges == shard_windows × (S − 1)`
//! is a checkable invariant (`ckpt_obs::Counters::verify_shard_invariants`).
//!
//! `shards = 1` runs the same code: its one sub-trace borrows the parent
//! trace, and its one engine consumes the legacy stream.
//!
//! ## Semantics vs. the unsharded engine
//!
//! With `S > 1` the simulation itself changes (that is the point —
//! results get their own pinned digests): scheduling is shard-local
//! (a job queues only against its own host group), DM-NFS server picks
//! draw from per-shard streams, and whole-host failures are injected per
//! shard. Aggregates merge deterministically: job records scatter back
//! to global trace order, event counts and host failures sum, makespan
//! is the max across shards, and `max_concurrent_checkpoints` is the max
//! of the per-shard peaks (shard-local storage has no cross-shard
//! contention to measure). Under [`MetricsMode::Full`],
//! `checkpoint_durations` concatenates shard-major (chronological within
//! a shard).
//!
//! A run that leaves tasks unplaced (some task needs more memory than a
//! host has, so the FIFO scheduler blocks behind it) is an error, not a
//! result: its job records would count unfinished work against the wall
//! time of the tasks that did run.

use crate::cluster::{
    ClusterConfig, ClusterJobRecord, ClusterRunResult, ClusterSim, MetricsMode, SimBudget,
    CLUSTER_STREAM,
};
use crate::policy::{Estimates, PolicyConfig};
use crate::runner::{parallel_indexed, plans_or_own};
use crate::time::SimTime;
use ckpt_obs::{Counter, NoObs, Observer, Progress};
use ckpt_stats::rng::SplitMix64;
use ckpt_trace::gen::Trace;
use ckpt_trace::plan::FailurePlanArena;
use std::borrow::Cow;

/// Salt folded into the job-id hash so shard assignment is independent of
/// every other consumer of the id space (failure streams, sweep cells).
const SHARD_SALT: u64 = 0x5AAD_C105;

/// Events between two heartbeats of one shard engine. Purely a reporting
/// cadence: outputs are identical for any value.
const PROGRESS_EVERY: u64 = 65_536;

/// The shard owning a job: a pure function of `(job_id, shards)` —
/// independent of thread count, host count, and trace order.
pub fn shard_of(job_id: u64, shards: usize) -> usize {
    (SplitMix64::mix(job_id ^ SHARD_SALT) % shards as u64) as usize
}

/// The trace-level partition of a sharded run: per-shard sub-traces (job
/// subsets in original arrival order), the scatter map back to global job
/// indices, and the contiguous host split.
#[derive(Debug)]
pub struct ShardPlan<'a> {
    /// Number of shards.
    pub shards: usize,
    /// Per-shard sub-traces (same seed and failure model as the parent,
    /// so global task ids keep their failure streams and arena slots). A
    /// one-shard plan borrows the parent trace instead of copying it.
    pub sub_traces: Vec<Cow<'a, Trace>>,
    /// `job_origin[s][local]` = global job index of shard `s`'s
    /// `local`-th job.
    pub job_origin: Vec<Vec<usize>>,
    /// Hosts owned by each shard (contiguous groups; sums to `n_hosts`).
    pub host_counts: Vec<usize>,
}

impl<'a> ShardPlan<'a> {
    /// Partition `trace` and `n_hosts` into `shards` groups.
    ///
    /// Errors when `shards == 0` or `shards > n_hosts` (a shard with zero
    /// hosts could never place a task).
    pub fn new(trace: &'a Trace, shards: usize, n_hosts: usize) -> Result<ShardPlan<'a>, String> {
        if shards == 0 {
            return Err("shards must be >= 1".into());
        }
        if shards > n_hosts {
            return Err(format!(
                "shards ({shards}) exceeds n_hosts ({n_hosts}): a shard would own zero hosts"
            ));
        }
        let mut job_origin: Vec<Vec<usize>> = vec![Vec::new(); shards];
        for (global, job) in trace.jobs.iter().enumerate() {
            job_origin[shard_of(job.id, shards)].push(global);
        }
        let sub_traces = if shards == 1 {
            // The one shard owns every job in trace order.
            vec![Cow::Borrowed(trace)]
        } else {
            job_origin
                .iter()
                .map(|origin| {
                    Cow::Owned(Trace {
                        jobs: origin.iter().map(|&g| trace.jobs[g].clone()).collect(),
                        seed: trace.seed,
                        failure_model: trace.failure_model,
                    })
                })
                .collect()
        };
        let host_counts = (0..shards)
            .map(|s| n_hosts * (s + 1) / shards - n_hosts * s / shards)
            .collect();
        Ok(ShardPlan {
            shards,
            sub_traces,
            job_origin,
            host_counts,
        })
    }
}

/// A sharded cluster simulation: build with [`ShardedClusterSim::new`],
/// configure, then [`ShardedClusterSim::run`] /
/// [`ShardedClusterSim::run_observed`].
pub struct ShardedClusterSim<'a> {
    cfg: ClusterConfig,
    trace: &'a Trace,
    estimates: &'a Estimates,
    policy: PolicyConfig,
    plans: Option<&'a FailurePlanArena>,
    shards: usize,
    threads: usize,
    metrics_mode: MetricsMode,
}

impl<'a> ShardedClusterSim<'a> {
    /// A sharded simulation over `shards` host groups. `threads` defaults
    /// to the shard count (capped by the substrate at available cores).
    pub fn new(
        cfg: ClusterConfig,
        trace: &'a Trace,
        estimates: &'a Estimates,
        policy: PolicyConfig,
        shards: usize,
    ) -> Self {
        ShardedClusterSim {
            cfg,
            trace,
            estimates,
            policy,
            plans: None,
            shards,
            threads: shards,
            metrics_mode: MetricsMode::Full,
        }
    }

    /// Borrow kill plans from a shared [`FailurePlanArena`] (keyed by
    /// global task id, so the per-shard sub-traces slice it without
    /// copying). Without one, [`ShardedClusterSim::run_observed`] samples
    /// an arena over the whole trace, once, before any shard starts.
    pub fn with_plans(mut self, plans: &'a FailurePlanArena) -> Self {
        self.plans = Some(plans);
        self
    }

    /// Worker threads for the shard engines (0 ⇒ one per core). Thread
    /// count never changes results — only wall clock.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Metrics accumulation mode for every shard engine.
    pub fn with_metrics(mut self, mode: MetricsMode) -> Self {
        self.metrics_mode = mode;
        self
    }

    /// Run to completion without an observer or heartbeats.
    pub fn run(self) -> Result<ClusterRunResult, String> {
        self.run_observed::<NoObs>(None).map(|(r, _)| r)
    }

    /// Run every shard to completion, then fold the results and the
    /// shards' `ckpt-obs` counters once, in shard order. With a
    /// `progress` sink, each shard engine adds the events it has processed
    /// every `PROGRESS_EVERY` events and once more when it finishes, from
    /// whichever worker runs it, so the sink ends at the run's `events`.
    ///
    /// Errors when the partition is invalid (see [`ShardPlan::new`]) or
    /// when some task never ran because no host could place it.
    pub fn run_observed<O: Observer>(
        self,
        progress: Option<&Progress>,
    ) -> Result<(ClusterRunResult, O), String> {
        let plan = ShardPlan::new(self.trace, self.shards, self.cfg.n_hosts)?;
        let (plans, plan_lookup) = plans_or_own(self.trace, self.plans);
        let budget = SimBudget {
            progress_every: if progress.is_some() {
                PROGRESS_EVERY
            } else {
                0
            },
        };
        let runs = parallel_indexed(plan.shards, self.threads, |s| {
            let cfg = ClusterConfig {
                n_hosts: plan.host_counts[s],
                ..self.cfg
            };
            let mut reported = 0u64;
            let mut report = |events: u64| {
                if let Some(progress) = progress {
                    progress.add_events(events - reported);
                    reported = events;
                    progress.beat();
                }
            };
            let (result, obs) = ClusterSim::build(
                cfg,
                &plan.sub_traces[s],
                self.estimates,
                self.policy,
                &plans,
                plan_lookup,
                CLUSTER_STREAM + s as u64,
            )
            .with_metrics(self.metrics_mode)
            .with_observer(O::default())
            .run_observed(budget, &mut report);
            report(result.events);
            (result, obs)
        });

        // The one fold, in shard order (shard 0 seeds it): job records
        // scatter back to global trace order and everything else merges.
        // Counter sums accumulate and peaks max-merge.
        let mut master = O::default();
        if plan.shards > 1 {
            master.tick(Counter::ShardWindows);
        }
        let mut jobs: Vec<Option<ClusterJobRecord>> = vec![None; self.trace.jobs.len()];
        let mut durations = Vec::new();
        let mut max_concurrent = 0usize;
        let mut makespan = SimTime::ZERO;
        let mut host_failures = 0u64;
        let mut events = 0u64;
        let mut tasks_done = 0usize;
        for (s, (res, obs)) in runs.into_iter().enumerate() {
            if s > 0 {
                master.tick(Counter::ShardMerges);
            }
            master.merge_from(&obs);
            durations.extend(res.checkpoint_durations);
            max_concurrent = max_concurrent.max(res.max_concurrent_checkpoints);
            makespan = makespan.max(res.makespan);
            host_failures += res.host_failures;
            events += res.events;
            tasks_done += res.tasks_done;
            for (local, rec) in res.jobs.into_iter().enumerate() {
                let global = plan.job_origin[s][local];
                debug_assert!(jobs[global].is_none());
                jobs[global] = Some(rec);
            }
        }
        let tasks_total = self.trace.task_count();
        if tasks_done < tasks_total {
            return Err(format!(
                "{} of {tasks_total} tasks were never placed: the scheduler queue \
                 blocked behind a task no host can take (capacity keys n_hosts = {}, \
                 vms_per_host = {}, host_mem_mb = {})",
                tasks_total - tasks_done,
                self.cfg.n_hosts,
                self.cfg.vms_per_host,
                self.cfg.host_mem_mb
            ));
        }
        let jobs = jobs
            .into_iter()
            .map(|j| j.expect("every job belongs to exactly one shard"))
            .collect();
        if O::ENABLED {
            // Per-shard `events_popped` cells sum to the cluster total.
            debug_assert_eq!(master.get(Counter::EventsPopped), events);
        }
        Ok((
            ClusterRunResult {
                jobs,
                checkpoint_durations: durations,
                max_concurrent_checkpoints: max_concurrent,
                makespan,
                host_failures,
                events,
                tasks_done,
            },
            master,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Estimates, PolicyConfig};
    use ckpt_obs::Counters;
    use ckpt_trace::failure::FailureModelSpec;
    use ckpt_trace::gen::generate;
    use ckpt_trace::spec::WorkloadSpec;
    use ckpt_trace::stats::trace_histories;

    fn setup(n: usize, seed: u64) -> (Trace, Estimates) {
        let mut spec = WorkloadSpec::google_like(n);
        spec.long_task_fraction = 0.0;
        let trace = generate(&spec, seed).expect("valid workload spec");
        let records = trace_histories(&trace);
        (trace, Estimates::from_records(&records))
    }

    fn digest(result: &ClusterRunResult) -> u64 {
        fn fnv(h: u64, v: u64) -> u64 {
            (h ^ v).wrapping_mul(0x100000001b3)
        }
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

    #[test]
    fn shard_assignment_is_a_pure_function() {
        for shards in [1usize, 2, 3, 8] {
            for id in 0..64u64 {
                let s = shard_of(id, shards);
                assert!(s < shards);
                assert_eq!(s, shard_of(id, shards));
            }
        }
        // Not degenerate: 64 ids over 4 shards hit every shard.
        let mut seen = [false; 4];
        for id in 0..64u64 {
            seen[shard_of(id, 4)] = true;
        }
        assert!(seen.iter().all(|&s| s), "hash never reaches some shard");
    }

    #[test]
    fn host_partition_is_contiguous_and_complete() {
        for (hosts, shards) in [(32, 4), (128, 8), (7, 3), (5, 5)] {
            let (trace, _) = setup(8, 1);
            let plan = ShardPlan::new(&trace, shards, hosts).unwrap();
            assert_eq!(plan.host_counts.len(), shards);
            assert_eq!(plan.host_counts.iter().sum::<usize>(), hosts);
            let (min, max) = (
                plan.host_counts.iter().min().unwrap(),
                plan.host_counts.iter().max().unwrap(),
            );
            assert!(max - min <= 1, "{hosts}/{shards}: {:?}", plan.host_counts);
            // Every job lands in exactly one shard.
            let assigned: usize = plan.job_origin.iter().map(Vec::len).sum();
            assert_eq!(assigned, trace.jobs.len());
        }
        // One shard owns the parent trace as is: borrowed, not copied.
        let (trace, _) = setup(8, 1);
        let plan = ShardPlan::new(&trace, 1, 32).unwrap();
        assert!(matches!(plan.sub_traces[0], Cow::Borrowed(_)));
        assert_eq!(
            plan.job_origin[0],
            (0..trace.jobs.len()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn invalid_shard_counts_are_rejected() {
        let (trace, _) = setup(4, 2);
        assert!(ShardPlan::new(&trace, 0, 32).is_err());
        let err = ShardPlan::new(&trace, 33, 32).unwrap_err();
        assert!(err.contains("n_hosts"), "{err}");
    }

    /// `shards = 1` must be bit-identical to the unsharded engine — for
    /// every failure model, with and without a plan arena, across seeds.
    /// Non-vacuous by construction: the 1-shard path still goes through
    /// `ShardPlan` + `ClusterSim::build`, so this pins that shard 0's
    /// RNG stream, sub-trace, and host split reproduce the legacy run.
    #[test]
    fn one_shard_matches_unsharded_engine_across_failure_models() {
        let models = [
            FailureModelSpec::Exponential,
            FailureModelSpec::Weibull {
                shape: 0.7,
                scale: 1.0,
            },
            FailureModelSpec::LogNormal {
                sigma: 1.2,
                scale: 1.0,
            },
            FailureModelSpec::Pareto {
                shape: 1.5,
                scale: 1.0,
            },
            FailureModelSpec::TraceReplay { scale: 1.0 },
        ];
        for (i, model) in models.into_iter().enumerate() {
            let mut spec = WorkloadSpec::google_like(40);
            spec.long_task_fraction = 0.0;
            let seed = 77 + i as u64;
            let trace = generate(&spec.with_failure_model(model), seed).expect("valid spec");
            let records = trace_histories(&trace);
            let est = Estimates::from_records(&records);
            let cfg = ClusterConfig {
                host_mtbf_s: Some(3_600.0),
                failure_model: model,
                ..ClusterConfig::default()
            };
            let policy = PolicyConfig::formula3();
            let plans = FailurePlanArena::build(&trace);

            let legacy = ClusterSim::with_plans(cfg, &trace, &est, policy, &plans).run();
            let sharded = ShardedClusterSim::new(cfg, &trace, &est, policy, 1)
                .with_plans(&plans)
                .run()
                .unwrap();
            assert_eq!(
                digest(&legacy),
                digest(&sharded),
                "model {model:?}: 1-shard run diverged from the unsharded engine"
            );
            assert_eq!(legacy.events, sharded.events, "model {model:?}");

            // Without a shared arena too (each entry samples its own).
            let legacy_own = ClusterSim::new(cfg, &trace, &est, policy).run();
            let sharded_own = ShardedClusterSim::new(cfg, &trace, &est, policy, 1)
                .run()
                .unwrap();
            assert_eq!(digest(&legacy_own), digest(&sharded_own), "{model:?}");
        }
    }

    /// Fixed `shards > 1` is thread-count invariant: the partition, RNG
    /// streams, and fold order all key off shard index, never workers.
    #[test]
    fn sharded_runs_are_thread_invariant() {
        let (trace, est) = setup(60, 31);
        let policy = PolicyConfig::formula3();
        let cfg = ClusterConfig::default();
        let baseline = ShardedClusterSim::new(cfg, &trace, &est, policy, 4)
            .with_threads(1)
            .run()
            .unwrap();
        for threads in [2, 4, 8] {
            let run = ShardedClusterSim::new(cfg, &trace, &est, policy, 4)
                .with_threads(threads)
                .run()
                .unwrap();
            assert_eq!(
                digest(&baseline),
                digest(&run),
                "4-shard digest differs at {threads} threads"
            );
        }
    }

    /// The sharded configuration gets its own pinned digests (captured at
    /// introduction): sharded semantics are a deliberate, stable contract,
    /// not an accident of fold order.
    #[test]
    fn golden_digests_sharded() {
        let (trace, est) = setup(60, 31);
        let plans = FailurePlanArena::build(&trace);
        let cases: Vec<(&str, usize, u64)> = vec![
            ("two_shards", 2, 0x5b376b001a74cf16),
            ("four_shards", 4, 0x21a8086bd3cc2515),
        ];
        for (name, shards, expected) in cases {
            let r = ShardedClusterSim::new(
                ClusterConfig::default(),
                &trace,
                &est,
                PolicyConfig::formula3(),
                shards,
            )
            .with_plans(&plans)
            .run()
            .unwrap();
            assert_eq!(r.tasks_done, trace.task_count(), "{name}");
            assert_eq!(
                digest(&r),
                expected,
                "{name}: sharded digest drifted (got {:#x})",
                digest(&r)
            );
        }
    }

    /// Fold accounting: one fold per sharded run (`shard_windows == 1`,
    /// `shard_merges == S − 1`), none for a one-shard run; merged
    /// `events_popped` equals the cluster event total, and the merged
    /// counters satisfy the per-shard DES identities summed.
    #[test]
    fn the_single_fold_satisfies_shard_invariants() {
        let (trace, est) = setup(60, 31);
        let cfg = ClusterConfig {
            host_mtbf_s: Some(3_600.0),
            ..ClusterConfig::default()
        };
        for shards in [1u64, 4] {
            let (result, counters) =
                ShardedClusterSim::new(cfg, &trace, &est, PolicyConfig::young(), shards as usize)
                    .run_observed::<Counters>(None)
                    .unwrap();
            counters
                .verify_shard_invariants(shards, result.events)
                .unwrap_or_else(|e| panic!("{e}"));
            counters
                .verify_invariants(true)
                .unwrap_or_else(|e| panic!("{e}"));
            let windows = u64::from(shards > 1);
            assert_eq!(counters.get(Counter::ShardWindows), windows, "S = {shards}");
            assert_eq!(
                counters.get(Counter::ShardMerges),
                shards - 1,
                "S = {shards}"
            );
            assert_eq!(counters.get(Counter::EventsPopped), result.events);
            assert_eq!(counters.get(Counter::HostFailures), result.host_failures);
            assert!(result.host_failures > 0, "S = {shards}: no host failures");
        }
    }

    /// A task that needs more memory than a host has blocks its shard's
    /// FIFO queue for good. The run must still end — with host failures
    /// on too, which stop once nothing is left to kill — and be an error
    /// naming the stranded count and the capacity keys, sharded or not.
    #[test]
    fn unplaced_tasks_are_a_named_error() {
        let (trace, est) = setup(60, 31);
        let biggest = trace.tasks().map(|(_, t)| t.mem_mb).fold(0.0, f64::max);
        for host_mtbf_s in [None, Some(3_600.0)] {
            let cfg = ClusterConfig {
                host_mem_mb: biggest * 0.99,
                host_mtbf_s,
                ..ClusterConfig::default()
            };
            for shards in [1, 4] {
                let err =
                    ShardedClusterSim::new(cfg, &trace, &est, PolicyConfig::formula3(), shards)
                        .run()
                        .unwrap_err();
                let total = trace.task_count();
                assert!(
                    err.contains(&format!("of {total} tasks were never placed")),
                    "{err}"
                );
                for key in ["n_hosts", "vms_per_host", "host_mem_mb"] {
                    assert!(err.contains(key), "S = {shards}: {err}");
                }
            }
        }
    }

    /// Streaming metrics change only what a sharded run keeps, never what
    /// it simulates: identical jobs and events versus the full-metrics
    /// run, and no per-checkpoint sample.
    #[test]
    fn streaming_sharded_matches_full_sharded() {
        let (trace, est) = setup(60, 31);
        let full = ShardedClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
            3,
        )
        .run()
        .unwrap();
        let streaming = ShardedClusterSim::new(
            ClusterConfig::default(),
            &trace,
            &est,
            PolicyConfig::formula3(),
            3,
        )
        .with_metrics(MetricsMode::Streaming)
        .run()
        .unwrap();
        assert_eq!(full.jobs, streaming.jobs);
        assert_eq!(full.events, streaming.events);
        assert!(!full.checkpoint_durations.is_empty());
        assert!(streaming.checkpoint_durations.is_empty());
    }
}
