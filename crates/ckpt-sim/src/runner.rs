//! The experiment runner: replay a trace under a policy configuration and
//! collect per-job records.
//!
//! Replay is embarrassingly parallel across jobs — every task draws its
//! failures from its own RNG stream ([`ckpt_trace::Trace::failure_stream`]),
//! so the result is a pure function of `(trace, estimates, config)` no
//! matter how many worker threads run it. Parallelism uses `std::thread`
//! scoped threads claiming index chunks from an atomic counter (guide-idiom
//! work stealing without a pool dependency) and writing results straight
//! into their final slots.
//!
//! ## One replay body
//!
//! [`replay_trace`] is the single entry into the per-job loop. It takes the
//! [`Fold`] (every [`JobRecord`], or streaming [`ReplayStats`]) and an
//! optional counter bank, and picks the observer once: [`NoObs`] without a
//! bank, [`Counters`] with one. Both instantiations of the generic loop are
//! compiled in this crate, because the entry itself is not generic — a
//! generic entry would be compiled again inside every calling crate.
//! [`run_trace`], [`run_trace_with_plans`], [`run_trace_counted`] and
//! [`run_trace_stream`] are one-call forms of it.
//!
//! ## The fast-path memory model
//!
//! Every kill plan comes from a [`FailurePlanArena`], sampled once per
//! `(trace, failure model)`: the caller's shared arena when it passes one
//! (the cross-cell reuse behind sweep throughput, counted as
//! [`Counter::ArenaHits`]), else one [`replay_trace`] samples at its top
//! before any job runs (counted as [`Counter::ArenaMisses`]).
//!
//! The replay hot loop is allocation-free on a warm worker:
//!
//! * each task's plan is copied from the arena into the worker's reusable
//!   kill queue;
//! * task outcomes fold straight into the job's [`JobRecord`]
//!   ([`JobRecord::accumulate`]) — no per-job outcome/length vectors;
//! * each worker owns one kill queue and one observer, handed out by
//!   [`parallel_indexed_scratch`] and reused across every job it claims;
//!   the workers' observers are merged once after the join.
//!
//! Per-task planning goes through [`Estimates`]' memoized group lookups
//! (see [`crate::policy`]): predictions for a `(priority, limit)` group
//! are computed once per run instead of rescanning the group's history
//! for every task, which keeps whole-trace replay O(tasks) — at month
//! scale and beyond the rescan used to dominate the replay itself.

use crate::blcr::BlcrModel;
use crate::metrics::{JobRecord, StreamDist};
use crate::policy::{plan_task, Estimates, PolicyConfig};
use crate::task_sim::{simulate_task_queued, ExecFlip, KillQueue, TaskSimSpec};
use ckpt_obs::{Counter, Counters, NoObs, Observer, SharedCounters};
use ckpt_stats::rng::Xoshiro256StarStar;
use ckpt_trace::gen::{JobSpec, Trace};
use ckpt_trace::plan::FailurePlanArena;
use std::borrow::Cow;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Run configuration beyond the policy itself.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunOptions {
    /// Worker threads; 0 ⇒ one per available core.
    pub threads: usize,
}

fn effective_threads(requested: usize, jobs: usize) -> usize {
    let hw = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let t = if requested == 0 { hw } else { requested };
    t.clamp(1, jobs.max(1))
}

/// One replay worker's state: a kill queue whose backing `Vec` stays warm
/// across every job the worker claims, and the worker's observer.
#[derive(Default)]
struct ReplayScratch<O> {
    queue: KillQueue,
    obs: O,
}

/// The arena an entry replays and the counter each of its lookups ticks:
/// the caller's shared arena counts [`Counter::ArenaHits`]; without one,
/// the entry samples its own here, once, and counts
/// [`Counter::ArenaMisses`].
pub(crate) fn plans_or_own<'p>(
    trace: &Trace,
    plans: Option<&'p FailurePlanArena>,
) -> (Cow<'p, FailurePlanArena>, Counter) {
    match plans {
        Some(shared) => (Cow::Borrowed(shared), Counter::ArenaHits),
        None => (
            Cow::Owned(FailurePlanArena::build(trace)),
            Counter::ArenaMisses,
        ),
    }
}

/// Simulate one job, borrowing every task's kill plan from `plans`.
/// Counting reads the per-task [`crate::task_sim::TaskOutcome`] *after*
/// simulation — the innermost simulate loop stays untouched — and with
/// [`NoObs`] every hook compiles to nothing.
fn replay_job<O: Observer>(
    trace: &Trace,
    job: &JobSpec,
    estimates: &Estimates,
    cfg: &PolicyConfig,
    plans: &FailurePlanArena,
    scratch: &mut ReplayScratch<O>,
) -> JobRecord {
    let obs = &mut scratch.obs;
    let mut rec = JobRecord::empty(job.id, job.structure, job.priority);
    for task in &job.tasks {
        let mut plan = plan_task(cfg, &BlcrModel, estimates, task, job.priority);
        // Mid-run priority flip (Figure 14 scenario): translate the job-level
        // plan to this task (each task flips at the same fraction of its own
        // work, approximating "in the middle of the job's execution").
        let flip = job.flip.map(|f| {
            // The controller's new belief comes from the same estimator,
            // evaluated at the new priority. The executor re-draws a full
            // dose of the new priority's failures over the remaining work
            // (MNOF is per-task, not per-second), so the equivalent
            // full-task MNOF is the group MNOF divided by the remaining
            // fraction — this keeps the adaptive re-solve calibrated to
            // the kills that will actually strike.
            let (new_mnof, _) = estimates.predict(cfg.estimator, task, f.new_priority);
            let remaining_fraction = (1.0 - f.at_fraction).max(0.05);
            ExecFlip {
                at_progress: f.at_fraction * task.length_s,
                new_priority: f.new_priority,
                model: trace.failure_model,
                new_mnof_full: Some(new_mnof / remaining_fraction),
            }
        });
        let spec = TaskSimSpec {
            te: task.length_s,
            ckpt_cost: plan.ckpt_cost,
            restart_cost: plan.restart_cost,
        };
        // The RNG is consumed only if a flip re-draws the remaining plan:
        // it is the task's stream, resumed right after its plan's draws.
        scratch.queue.load(plans.kills(task.id));
        let mut rng = if flip.is_some() {
            plans
                .resume_stream(task.id)
                .expect("plan arena built from a flip trace captures stream states")
        } else {
            // Never consumed: simulate only draws on a flip.
            Xoshiro256StarStar::from_state([1, 2, 3, 4])
        };
        let outcome = simulate_task_queued(
            &spec,
            &mut scratch.queue,
            flip,
            &mut plan.controller,
            &mut rng,
        );
        if O::ENABLED {
            // Simulation facts only (kills, checkpoints, replans): sums
            // over tasks are invariant to thread count and job order.
            obs.tick(Counter::TasksReplayed);
            obs.incr(Counter::TaskKills, outcome.failures as u64);
            obs.incr(Counter::Restarts, outcome.failures as u64);
            obs.incr(Counter::CheckpointsWritten, outcome.checkpoints as u64);
            obs.incr(
                Counter::CheckpointsAborted,
                outcome.aborted_checkpoints as u64,
            );
            if outcome.flipped {
                obs.tick(Counter::Replans);
            }
        }
        rec.accumulate(&outcome, task.length_s);
    }
    obs.tick(Counter::JobsReplayed);
    rec
}

/// Evaluate `f(0..n)` on `threads` workers (0 ⇒ one per core), returning
/// results in index order regardless of scheduling — the parallel
/// substrate for both trace replay and the sweep engine. Convenience form
/// of [`parallel_indexed_scratch`] with no per-worker state.
pub fn parallel_indexed<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    parallel_indexed_scratch(n, threads, || (), |(), i| f(i)).0
}

/// A raw result-slot pointer that may cross thread boundaries: every
/// claimed index is written by exactly one worker, so writes never alias.
struct SlotPtr<T>(*mut MaybeUninit<T>);
unsafe impl<T: Send> Send for SlotPtr<T> {}
unsafe impl<T: Send> Sync for SlotPtr<T> {}

/// [`parallel_indexed`] with a per-worker scratch value: each worker calls
/// `init()` once and threads the result through every `f` invocation it
/// claims — how replay workers reuse their kill queues. Returns the results
/// and every worker's final scratch value (one per worker, in spawn order),
/// so per-worker accumulators such as telemetry counters can be merged
/// after the join.
///
/// Workers claim **chunks** of indices from a shared atomic counter and
/// write each result directly into its final slot (no per-worker
/// `(index, value)` staging and no `Option<T>` merge pass — the historical
/// substrate allocated both). Chunk size adapts to `n / threads` and
/// collapses to 1 for small grids, so coarse sweeps keep perfect load
/// balancing while fine-grained job replays amortize the counter traffic.
///
/// Determinism: `f(i)` lands in slot `i` no matter which worker ran it,
/// so the output is independent of thread count and scheduling. Which
/// indices a worker's scratch saw is not; only merge it with an
/// order-independent fold.
pub fn parallel_indexed_scratch<S, T, I, F>(
    n: usize,
    threads: usize,
    init: I,
    f: F,
) -> (Vec<T>, Vec<S>)
where
    S: Send,
    T: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> T + Sync,
{
    let threads = effective_threads(threads, n);
    if threads == 1 {
        let mut scratch = init();
        let out = (0..n).map(|i| f(&mut scratch, i)).collect();
        return (out, vec![scratch]);
    }

    let chunk = (n / (threads * 8)).clamp(1, 64);
    let mut slots: Vec<MaybeUninit<T>> = Vec::with_capacity(n);
    // SAFETY: MaybeUninit<T> needs no initialization.
    unsafe { slots.set_len(n) };
    let ptr = SlotPtr(slots.as_mut_ptr());
    let next = AtomicUsize::new(0);
    let workers = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                let (ptr, next, init, f) = (&ptr, &next, &init, &f);
                s.spawn(move || {
                    let mut scratch = init();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= n {
                            break;
                        }
                        let end = (start + chunk).min(n);
                        for i in start..end {
                            let value = f(&mut scratch, i);
                            // SAFETY: each index in 0..n is claimed by
                            // exactly one worker (disjoint chunks), so this
                            // slot is written once with no aliasing; the
                            // joins order all writes before the read below.
                            unsafe { (*ptr.0.add(i)).write(value) };
                        }
                    }
                    scratch
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    // Every worker joined and the claim counter is exhausted, so all n
    // slots are initialized. (If a worker panicked, the panic propagated
    // above and the MaybeUninit vec dropped without reading — initialized
    // elements leak, which is safe.)
    let mut slots = std::mem::ManuallyDrop::new(slots);
    let (ptr, len, cap) = (slots.as_mut_ptr(), slots.len(), slots.capacity());
    // SAFETY: Vec<MaybeUninit<T>> and Vec<T> have identical layout and
    // every element is initialized.
    let out = unsafe { Vec::from_raw_parts(ptr as *mut T, len, cap) };
    (out, workers)
}

/// How [`replay_trace`] folds the per-job records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fold {
    /// Every job's [`JobRecord`] in job order, each written in place into
    /// its own slot.
    Records,
    /// Streaming [`ReplayStats`]: jobs fold into fixed 1024-job blocks and
    /// block partials merge in block order, so the record vector never
    /// materializes and the result is the same at any thread count. The
    /// block size is part of the output bytes (moment and sketch merges
    /// depend on their order).
    Stream,
}

/// The result of [`replay_trace`], shaped by its [`Fold`].
#[derive(Debug, Clone, PartialEq)]
pub enum Replay {
    /// [`Fold::Records`]: one record per job, in job order.
    Records(Vec<JobRecord>),
    /// [`Fold::Stream`]: the folded summaries.
    Stream(Box<ReplayStats>),
}

impl Replay {
    fn records(self) -> Vec<JobRecord> {
        match self {
            Replay::Records(records) => records,
            Replay::Stream(_) => unreachable!("a records fold yields records"),
        }
    }

    fn stream(self) -> ReplayStats {
        match self {
            Replay::Stream(stats) => *stats,
            Replay::Records(_) => unreachable!("a stream fold yields stats"),
        }
    }
}

/// Replay the whole trace under a policy, in parallel — the one entry into
/// the per-job loop. Kill plans come from `plans` when given (each lookup
/// an arena hit), else from an arena sampled here before the replay
/// starts (each lookup a miss). `fold` picks the output shape. With `counters`, each
/// worker counts into its own [`Counters`] cell, the cells merge once after
/// the join and land in the bank in one absorb; the totals are sums of
/// per-task facts, so they are the same at any thread count and for either
/// fold, and the replay output is byte-identical to the uncounted run.
pub fn replay_trace(
    trace: &Trace,
    estimates: &Estimates,
    cfg: &PolicyConfig,
    options: RunOptions,
    plans: Option<&FailurePlanArena>,
    fold: Fold,
    counters: Option<&SharedCounters>,
) -> Replay {
    let (plans, lookup) = plans_or_own(trace, plans);
    match counters {
        None => replay::<NoObs>(trace, estimates, cfg, options, &plans, fold).0,
        Some(shared) => {
            let (out, mut obs) = replay::<Counters>(trace, estimates, cfg, options, &plans, fold);
            // One kill-plan lookup per task, all in the same arena.
            let tasks = trace.task_count() as u64;
            obs.incr(Counter::PlanLookups, tasks);
            obs.incr(lookup, tasks);
            shared.absorb(&obs);
            out
        }
    }
}

/// Jobs folded per block by [`Fold::Stream`]. Fixed (independent of
/// thread count), so partial merges happen in a deterministic block order
/// and the folded totals are invariant to scheduling.
const STREAM_FOLD_BLOCK: usize = 1024;

/// The parallel driver behind [`replay_trace`]: the replay and the merge
/// of every worker's observer.
fn replay<O: Observer>(
    trace: &Trace,
    estimates: &Estimates,
    cfg: &PolicyConfig,
    options: RunOptions,
    plans: &FailurePlanArena,
    fold: Fold,
) -> (Replay, O) {
    let n = trace.jobs.len();
    let job = |scratch: &mut ReplayScratch<O>, i: usize| {
        replay_job(trace, &trace.jobs[i], estimates, cfg, plans, scratch)
    };
    let (out, workers) = match fold {
        Fold::Records => {
            let (records, workers) =
                parallel_indexed_scratch(n, options.threads, ReplayScratch::default, job);
            (Replay::Records(records), workers)
        }
        Fold::Stream => {
            let blocks = n.div_ceil(STREAM_FOLD_BLOCK);
            let (partials, workers) = parallel_indexed_scratch(
                blocks,
                options.threads,
                ReplayScratch::default,
                |scratch, b| {
                    let mut acc = ReplayStats::new();
                    let lo = b * STREAM_FOLD_BLOCK;
                    for i in lo..(lo + STREAM_FOLD_BLOCK).min(n) {
                        acc.add(&job(scratch, i));
                    }
                    acc
                },
            );
            let mut total = ReplayStats::new();
            for p in &partials {
                total.merge(p);
            }
            (Replay::Stream(Box::new(total)), workers)
        }
    };
    let mut obs = O::default();
    for w in &workers {
        obs.merge_from(&w.obs);
    }
    (out, obs)
}

/// Replay the whole trace under a policy, in parallel, from a kill-plan
/// arena sampled for this one call. Records are returned in job order
/// (deterministic regardless of thread count).
pub fn run_trace(
    trace: &Trace,
    estimates: &Estimates,
    cfg: &PolicyConfig,
    options: RunOptions,
) -> Vec<JobRecord> {
    replay_trace(trace, estimates, cfg, options, None, Fold::Records, None).records()
}

/// [`run_trace`] borrowing every kill plan from a shared
/// [`FailurePlanArena`] instead of sampling its own — the same output,
/// minus the sampling pass. This is the cross-cell fast path of the sweep
/// engine and the experiments: one arena per `(trace, failure model)`
/// serves every policy/cost cell.
pub fn run_trace_with_plans(
    trace: &Trace,
    estimates: &Estimates,
    cfg: &PolicyConfig,
    options: RunOptions,
    plans: &FailurePlanArena,
) -> Vec<JobRecord> {
    replay_trace(
        trace,
        estimates,
        cfg,
        options,
        Some(plans),
        Fold::Records,
        None,
    )
    .records()
}

/// [`run_trace`] / [`run_trace_with_plans`] with telemetry counters
/// absorbed into `shared` (see [`replay_trace`]).
pub fn run_trace_counted(
    trace: &Trace,
    estimates: &Estimates,
    cfg: &PolicyConfig,
    options: RunOptions,
    plans: Option<&FailurePlanArena>,
    shared: &SharedCounters,
) -> Vec<JobRecord> {
    replay_trace(
        trace,
        estimates,
        cfg,
        options,
        plans,
        Fold::Records,
        Some(shared),
    )
    .records()
}

/// Streaming per-metric summaries of one whole-trace replay — the fast
/// path's [`crate::cluster::MetricsMode::Streaming`] analog: per-job
/// records fold into constant-size [`StreamDist`] accumulators (moments
/// plus a mergeable quantile sketch, so p50/p99 survive the fold) as they
/// are produced, and the record vector never materializes.
#[derive(Debug, Clone, PartialEq)]
pub struct ReplayStats {
    /// Jobs replayed.
    pub jobs: u64,
    /// Per-job WPR (`total_work / total_wall`).
    pub wpr: StreamDist,
    /// Per-job wall clock (seconds).
    pub wall: StreamDist,
    /// Per-job checkpoint-writing time (seconds).
    pub checkpoint_time: StreamDist,
    /// Per-job rollback loss (seconds).
    pub rollback_loss: StreamDist,
    /// Per-job restart overhead (seconds).
    pub restart_time: StreamDist,
    /// Per-job failure count.
    pub failures: StreamDist,
    /// Per-job durable checkpoint count.
    pub checkpoints: StreamDist,
}

impl Default for ReplayStats {
    fn default() -> Self {
        Self::new()
    }
}

impl ReplayStats {
    /// An empty accumulator (zero jobs, every stream empty) — the fold
    /// seed for both the fast streaming path and the sweep executor's
    /// cluster streaming fold.
    pub fn new() -> Self {
        Self {
            jobs: 0,
            wpr: StreamDist::new(),
            wall: StreamDist::new(),
            checkpoint_time: StreamDist::new(),
            rollback_loss: StreamDist::new(),
            restart_time: StreamDist::new(),
            failures: StreamDist::new(),
            checkpoints: StreamDist::new(),
        }
    }

    /// Fold one job record in.
    pub fn add(&mut self, r: &JobRecord) {
        self.jobs += 1;
        self.wpr.add(r.wpr());
        self.wall.add(r.total_wall);
        self.checkpoint_time.add(r.checkpoint_time);
        self.rollback_loss.add(r.rollback_loss);
        self.restart_time.add(r.restart_time);
        self.failures.add(r.failures as f64);
        self.checkpoints.add(r.checkpoints as f64);
    }

    /// Merge another partial in (block order gives determinism).
    pub fn merge(&mut self, other: &ReplayStats) {
        self.jobs += other.jobs;
        self.wpr.merge(&other.wpr);
        self.wall.merge(&other.wall);
        self.checkpoint_time.merge(&other.checkpoint_time);
        self.rollback_loss.merge(&other.rollback_loss);
        self.restart_time.merge(&other.restart_time);
        self.failures.merge(&other.failures);
        self.checkpoints.merge(&other.checkpoints);
    }
}

/// Replay the whole trace into streaming summaries ([`Fold::Stream`])
/// without materializing the record vector.
pub fn run_trace_stream(
    trace: &Trace,
    estimates: &Estimates,
    cfg: &PolicyConfig,
    options: RunOptions,
    plans: Option<&FailurePlanArena>,
) -> ReplayStats {
    replay_trace(trace, estimates, cfg, options, plans, Fold::Stream, None).stream()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics;
    use ckpt_trace::gen::generate;
    use ckpt_trace::spec::WorkloadSpec;
    use ckpt_trace::stats::trace_histories;

    fn setup(n: usize, seed: u64) -> (Trace, Estimates) {
        let trace = generate(&WorkloadSpec::google_like(n), seed).expect("valid workload spec");
        let records = trace_histories(&trace);
        (trace, Estimates::from_records(&records))
    }

    #[test]
    fn deterministic_across_thread_counts() {
        let (trace, est) = setup(120, 9);
        let cfg = PolicyConfig::formula3();
        let seq = run_trace(&trace, &est, &cfg, RunOptions { threads: 1 });
        let par = run_trace(&trace, &est, &cfg, RunOptions { threads: 4 });
        assert_eq!(seq, par);
    }

    #[test]
    fn all_jobs_simulated_in_order() {
        let (trace, est) = setup(80, 10);
        let recs = run_trace(
            &trace,
            &est,
            &PolicyConfig::formula3(),
            RunOptions::default(),
        );
        assert_eq!(recs.len(), trace.jobs.len());
        for (i, r) in recs.iter().enumerate() {
            assert_eq!(r.job_id, i as u64);
        }
    }

    #[test]
    fn wpr_in_unit_interval() {
        let (trace, est) = setup(150, 11);
        for cfg in [
            PolicyConfig::formula3(),
            PolicyConfig::young(),
            PolicyConfig::none(),
        ] {
            let recs = run_trace(&trace, &est, &cfg, RunOptions::default());
            for r in &recs {
                let w = r.wpr();
                assert!(w > 0.0 && w <= 1.0, "wpr = {w} under {:?}", cfg.kind);
            }
        }
    }

    /// A shared arena and the one `run_trace` samples for itself replay
    /// the same records, at any thread count.
    #[test]
    fn plan_arena_replay_is_byte_identical() {
        let (trace, est) = setup(150, 21);
        let plans = FailurePlanArena::build(&trace);
        for cfg in [
            PolicyConfig::formula3(),
            PolicyConfig::young(),
            PolicyConfig::none(),
            PolicyConfig::formula3().with_adaptivity(true),
        ] {
            let own = run_trace(&trace, &est, &cfg, RunOptions { threads: 1 });
            let shared =
                run_trace_with_plans(&trace, &est, &cfg, RunOptions { threads: 2 }, &plans);
            assert_eq!(own, shared, "{:?}", cfg.kind);
        }
    }

    #[test]
    fn plan_arena_replay_matches_on_flip_traces() {
        // Flip traces consume the stream *after* the plan: the arena's
        // resumed stream state must reproduce the re-draws exactly.
        let trace = generate(&WorkloadSpec::google_like(80).with_priority_flips(), 14)
            .expect("valid workload spec");
        let records = trace_histories(&trace);
        let est = Estimates::from_records(&records);
        let plans = FailurePlanArena::build(&trace);
        for cfg in [
            PolicyConfig::formula3().with_adaptivity(true),
            PolicyConfig::young(),
        ] {
            let own = run_trace(&trace, &est, &cfg, RunOptions { threads: 1 });
            let shared =
                run_trace_with_plans(&trace, &est, &cfg, RunOptions { threads: 1 }, &plans);
            assert_eq!(own, shared, "{:?}", cfg.kind);
        }
    }

    #[test]
    fn stream_fold_matches_full_records() {
        let (trace, est) = setup(130, 33);
        let cfg = PolicyConfig::formula3();
        let full = run_trace(&trace, &est, &cfg, RunOptions::default());
        for threads in [1, 3] {
            let stats = run_trace_stream(&trace, &est, &cfg, RunOptions { threads }, None);
            assert_eq!(stats.jobs as usize, full.len());
            assert_eq!(stats.wall.stats.count, full.len() as u64);
            let max_wall = full.iter().fold(0.0f64, |m, r| m.max(r.total_wall));
            assert_eq!(stats.wall.stats.max, max_wall);
            assert_eq!(stats.wall.sketch.max(), max_wall);
            let mean_wpr = metrics::mean_wpr(&full);
            assert!((stats.wpr.stats.mean() - mean_wpr).abs() < 1e-9);
            // Sketch-backed p50 tracks the exact median within the bound.
            let mut walls: Vec<f64> = full.iter().map(|r| r.total_wall).collect();
            walls.sort_by(|a, b| a.partial_cmp(b).unwrap());
            let exact_p50 = walls[((0.5 * walls.len() as f64).ceil() as usize).max(1) - 1];
            let p50 = stats.wall.sketch.quantile(0.5);
            assert!(
                (p50 - exact_p50).abs() <= stats.wall.sketch.relative_error_bound() * exact_p50,
                "p50 {p50} vs exact {exact_p50}"
            );
        }
        // Thread invariance is exact (fixed fold blocks).
        let a = run_trace_stream(&trace, &est, &cfg, RunOptions { threads: 1 }, None);
        let b = run_trace_stream(&trace, &est, &cfg, RunOptions { threads: 4 }, None);
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_indexed_chunked_matches_sequential() {
        let threads_hw = 4;
        for n in [0usize, 1, 2, 3, 5, 64, 65, 1000] {
            let seq: Vec<u64> = (0..n)
                .map(|i| (i as u64).wrapping_mul(0x9E3779B9))
                .collect();
            let par = parallel_indexed(n, threads_hw, |i| (i as u64).wrapping_mul(0x9E3779B9));
            assert_eq!(seq, par, "n = {n}");
        }
    }

    #[test]
    fn parallel_scratch_is_per_worker() {
        // Scratch state must never leak between indices in observable
        // output: f returns a pure function of i regardless of the scratch
        // history it sees.
        let (out, workers) = parallel_indexed_scratch(500, 7, Vec::<usize>::new, |scratch, i| {
            scratch.push(i);
            i * 2
        });
        assert_eq!(out, (0..500).map(|i| i * 2).collect::<Vec<_>>());
        // Every worker's scratch comes back, and together they saw each
        // index exactly once.
        assert_eq!(workers.len(), 7);
        let mut seen = workers.concat();
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<_>>());
    }

    #[test]
    fn formula3_beats_no_checkpointing_on_failure_prone_jobs() {
        let (trace, est) = setup(300, 12);
        let f3 = run_trace(
            &trace,
            &est,
            &PolicyConfig::formula3(),
            RunOptions::default(),
        );
        let none = run_trace(&trace, &est, &PolicyConfig::none(), RunOptions::default());
        // Restrict to jobs that actually failed (checkpointing costs a
        // little on failure-free jobs).
        let failed_ids: Vec<usize> = none
            .iter()
            .enumerate()
            .filter(|(_, r)| r.failures >= 2)
            .map(|(i, _)| i)
            .collect();
        assert!(
            failed_ids.len() > 10,
            "need failure-prone jobs in the sample"
        );
        let mean = |recs: &[JobRecord]| {
            failed_ids.iter().map(|&i| recs[i].wpr()).sum::<f64>() / failed_ids.len() as f64
        };
        let m_f3 = mean(&f3);
        let m_none = mean(&none);
        assert!(m_f3 > m_none, "formula3 {m_f3} vs none {m_none}");
    }

    #[test]
    fn flipped_trace_marks_outcomes() {
        let trace = generate(&WorkloadSpec::google_like(60).with_priority_flips(), 14)
            .expect("valid workload spec");
        let records = trace_histories(&trace);
        let est = Estimates::from_records(&records);
        let cfg = PolicyConfig::formula3().with_adaptivity(true);
        let recs = run_trace(&trace, &est, &cfg, RunOptions::default());
        assert_eq!(recs.len(), 60);
        // WPRs remain valid under flips.
        for r in &recs {
            assert!(r.wpr() > 0.0 && r.wpr() <= 1.0);
        }
    }

    #[test]
    fn headline_formula3_vs_young_direction() {
        // The paper's headline: with per-priority estimation, Formula (3)
        // achieves higher average WPR than Young's formula.
        let (trace, est) = setup(400, 15);
        let f3 = run_trace(
            &trace,
            &est,
            &PolicyConfig::formula3(),
            RunOptions::default(),
        );
        let yg = run_trace(&trace, &est, &PolicyConfig::young(), RunOptions::default());
        let m_f3 = metrics::mean_wpr(&f3);
        let m_yg = metrics::mean_wpr(&yg);
        assert!(
            m_f3 > m_yg,
            "Formula(3) mean WPR {m_f3} should beat Young {m_yg}"
        );
    }

    #[test]
    fn counted_replay_is_byte_identical_and_thread_invariant() {
        // More jobs than one stream block, so the stream fold merges
        // several block partials.
        let (trace, est) = setup(1100, 21);
        assert!(trace.jobs.len() > STREAM_FOLD_BLOCK);
        let cfg = PolicyConfig::formula3();
        let plans = FailurePlanArena::build(&trace);
        let run = |fold: Fold, threads: usize, counters: Option<&SharedCounters>| {
            let options = RunOptions { threads };
            replay_trace(&trace, &est, &cfg, options, Some(&plans), fold, counters)
        };
        let mut totals = Vec::new();
        for fold in [Fold::Records, Fold::Stream] {
            // The Debug rendering carries every accumulated bit, NaN
            // included.
            let plain = format!("{:?}", run(fold, 2, None));
            for threads in [1, 4] {
                let uncounted = run(fold, threads, None);
                assert_eq!(
                    format!("{uncounted:?}"),
                    plain,
                    "{fold:?} at {threads} threads"
                );
                let shared = SharedCounters::new();
                let counted = run(fold, threads, Some(&shared));
                assert_eq!(
                    format!("{counted:?}"),
                    plain,
                    "counting changed the {fold:?} output at {threads} threads"
                );
                totals.push(shared.snapshot());
            }
        }

        // Counter totals are sums of per-task facts: the same at any
        // thread count and for either fold.
        let c = totals[0];
        for other in &totals {
            assert_eq!(format!("{other:?}"), format!("{c:?}"));
        }
        assert_eq!(c.get(Counter::JobsReplayed), trace.jobs.len() as u64);
        assert_eq!(c.get(Counter::TasksReplayed), trace.task_count() as u64);
        assert!(c.get(Counter::TaskKills) > 0, "no failures counted");
        c.verify_invariants(false).expect("arena identity");
    }

    #[test]
    fn counted_replay_attributes_arena_hits_and_misses() {
        let (trace, est) = setup(100, 22);
        let cfg = PolicyConfig::formula3();
        let tasks = trace.task_count() as u64;

        // With an arena: every lookup hits.
        let plans = FailurePlanArena::build(&trace);
        let shared = SharedCounters::new();
        run_trace_counted(
            &trace,
            &est,
            &cfg,
            RunOptions { threads: 2 },
            Some(&plans),
            &shared,
        );
        let c = shared.snapshot();
        assert_eq!(c.get(Counter::PlanLookups), tasks);
        assert_eq!(c.get(Counter::ArenaHits), tasks);
        assert_eq!(c.get(Counter::ArenaMisses), 0);

        // Without: every lookup misses (the entry samples its own arena).
        let shared = SharedCounters::new();
        run_trace_counted(&trace, &est, &cfg, RunOptions { threads: 2 }, None, &shared);
        let c = shared.snapshot();
        assert_eq!(c.get(Counter::PlanLookups), tasks);
        assert_eq!(c.get(Counter::ArenaHits), 0);
        assert_eq!(c.get(Counter::ArenaMisses), tasks);
        c.verify_invariants(false).expect("arena identity");
    }
}
