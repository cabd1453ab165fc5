//! The parallel sweep executor.
//!
//! Worker threads pull cell indices from an atomic counter (the
//! [`ckpt_sim::runner::parallel_indexed`] work-stealing substrate, shared
//! with trace replay). Determinism guarantees:
//!
//! * every cell's extra randomness (contention jitter, cluster tie-breaks)
//!   comes from an RNG stream derived from `(cell seed, cell index)`, never
//!   from a shared generator — so results are invariant to thread count and
//!   completion order;
//! * cells that share a *run key* (identical simulation inputs, differing
//!   only in aggregation filters) share one replay through a once-per-key
//!   cache, computed by whichever worker gets there first and reused by the
//!   rest. A second cache level shares trace preparation (generation,
//!   failure histories, estimator state) across run keys that differ only
//!   in policy/cost configuration — the common shape of a policy sweep.

use crate::agg::MetricSummary;
use crate::ckpt::{self, CheckpointConfig, ResumeReport};
use crate::spec::{EngineKind, MetricsChoice, SampleFilter, ScenarioSpec};
use crate::sweep::{SweepError, SweepSpec};
use ckpt_faults::{
    io_kind_name, is_transient_kind, CellFault, FaultState, IoFault, IoOp, Retried, RunHealth,
    MAX_ATTEMPTS,
};
use ckpt_obs::{Counter, Counters, Phase, Telemetry};
use ckpt_sim::blcr::{BlcrModel, Device};
use ckpt_sim::cluster::MetricsMode;
use ckpt_sim::metrics::{JobRecord, StreamDist};
use ckpt_sim::policy::Estimates;
use ckpt_sim::runner::{parallel_indexed, replay_trace, Fold, Replay, ReplayStats, RunOptions};
use ckpt_sim::shard::ShardedClusterSim;
use ckpt_sim::storage::{OpId, PsResource};
use ckpt_sim::time::SimTime;
use ckpt_stats::rng::{Rng64, Xoshiro256StarStar};
use ckpt_store::{CellRecord, StoreError, StoreHeader, SweepStore};
use ckpt_trace::export;
use ckpt_trace::gen::{generate, Trace};
use ckpt_trace::plan::FailurePlanArena;
use ckpt_trace::stats::{failure_prone_jobs, trace_histories_from_plans, TaskRecord};
use std::collections::HashMap;
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

/// Executor options.
#[derive(Debug, Clone, Copy, Default)]
pub struct SweepOptions {
    /// Worker threads; 0 ⇒ one per available core.
    pub threads: usize,
}

impl From<&ckpt_report::RunContext> for SweepOptions {
    fn from(ctx: &ckpt_report::RunContext) -> Self {
        SweepOptions {
            threads: ctx.threads,
        }
    }
}

/// The fault-tolerance policy a sweep runs under: the armed fault plan
/// (empty by default — nothing injected) and the failure discipline.
/// The default policy quarantines failing cells after retries so the
/// rest of the grid completes; `strict` restores fail-fast.
#[derive(Debug, Clone, Default)]
pub struct FaultPolicy {
    /// Armed injection plan, shared by every worker (and the store
    /// layer) for the whole run.
    pub faults: Arc<FaultState>,
    /// Fail the sweep on the first cell failure instead of retrying and
    /// quarantining (`--strict`).
    pub strict: bool,
}

impl FaultPolicy {
    /// The historical discipline: nothing injected, no retries, and the
    /// first cell failure aborts the whole sweep. [`run_sweep`] and the
    /// other legacy entry points run under this, so their error behavior
    /// is unchanged; [`run_sweep_guarded`] takes an explicit policy.
    pub fn fail_fast() -> Self {
        FaultPolicy {
            faults: Arc::default(),
            strict: true,
        }
    }
}

/// How a cell's evaluation ended.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum CellStatus {
    /// Evaluated successfully (possibly after retries).
    #[default]
    Ok,
    /// Quarantined: every attempt failed, the retry budget is spent, and
    /// the cell exports NaN metrics with this reason in the `status`
    /// column. Failed cells are never persisted to a checkpoint store,
    /// so `--resume` re-evaluates them once the cause is fixed.
    Failed {
        /// What the last attempt died of (panic message or error).
        reason: String,
    },
}

impl CellStatus {
    /// True for a successfully evaluated cell.
    pub fn is_ok(&self) -> bool {
        matches!(self, CellStatus::Ok)
    }
}

/// One evaluated grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// Cell index in row-major grid order.
    pub index: usize,
    /// The axis assignments that define this cell, rendered as strings.
    pub params: Vec<(String, String)>,
    /// Named metric summaries.
    pub metrics: Vec<(&'static str, MetricSummary)>,
    /// Ok, or quarantined with a reason.
    pub status: CellStatus,
}

impl CellResult {
    /// The rendered value of axis `key`, or an error naming the missing
    /// axis — the lookup every frame-building experiment needs.
    pub fn param(&self, key: &str) -> Result<&str, String> {
        self.params
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
            .ok_or_else(|| format!("sweep cell is missing the {key} axis"))
    }

    /// The named metric summary, or an error naming the missing metric.
    pub fn metric(&self, key: &str) -> Result<MetricSummary, String> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == key)
            .map(|(_, m)| *m)
            .ok_or_else(|| format!("sweep cell is missing the {key} metric"))
    }
}

/// A completed sweep: every cell, in grid order.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Sweep name (from the spec).
    pub name: String,
    /// The base seed the sweep actually ran with — recorded here so
    /// export metadata stays truthful even when a [`run_sweep_ctx`]
    /// context overrode the spec's own seed.
    pub seed: u64,
    /// Evaluated cells, index-ordered.
    pub cells: Vec<CellResult>,
    /// The degraded-run summary: cells ok/quarantined, retries, faults
    /// fired. A clean run reports all-ok and zero everything.
    pub health: RunHealth,
}

/// Prepared simulation inputs, shared by every run key over the same
/// workload: the trace, its kill-plan arena, its failure histories, and
/// the estimator state.
///
/// The arena is the cross-cell fast path: kill plans depend only on
/// `(trace, failure model, priority, te, task stream)` — never on the
/// policy — so one sampling pass serves every policy/cost cell over this
/// prep slot, bit-identically (cells that change the failure axis land in
/// a different prep slot and sample their own arena).
struct PrepData {
    trace: Trace,
    plans: FailurePlanArena,
    records: Vec<TaskRecord>,
    estimates: Estimates,
}

/// One shared replay: produced once per run key, reused by every cell that
/// only differs in aggregation filters.
struct RunData {
    jobs: Vec<JobRecord>,
    /// Streaming-mode summaries (`metrics = "streaming"`, both replay
    /// engines): the record vector above stays empty and cells read these
    /// instead — including sketch-backed p50/p99.
    stream: Option<ReplayStats>,
    /// Streaming-mode queue-wait fold (cluster engine only).
    stream_queue: Option<StreamDist>,
    /// Per-job queue wait (cluster engine only, aligned with `jobs`).
    queue_wait: Option<Vec<f64>>,
    /// Cluster makespan (cluster engine only).
    makespan_s: Option<f64>,
    /// DES events processed (cluster engine only) — deterministic, so it
    /// can live in exported frames.
    events: Option<u64>,
    /// The shared trace preparation (for the failure-prone sample filter).
    prep: Arc<PrepData>,
}

/// A cache slot: filled exactly once by whichever worker claims it first;
/// other workers needing the same key block on the `OnceLock`.
type Slot<T> = Arc<OnceLock<Result<Arc<T>, String>>>;

#[derive(Default)]
struct RunCache {
    preps: Mutex<HashMap<String, Slot<PrepData>>>,
    runs: Mutex<HashMap<String, Slot<RunData>>>,
    /// Failure-prone job-id sets, keyed by `(prep key, fraction)` — the
    /// scan over all task records would otherwise repeat per filter cell.
    prones: Mutex<HashMap<String, Slot<std::collections::HashSet<u64>>>>,
}

/// Take a mutex, recovering from poisoning. A worker that panicked while
/// holding one of these locks (the panic is caught and the cell
/// quarantined upstream) must not take every other worker down with it.
/// Recovery is sound here because the guarded data is structurally valid
/// at every await-free lock release point: cache maps only gain entries
/// (slot fills go through `OnceLock`, which leaves the slot empty if the
/// initializer panics, so a retry re-runs it), and the checkpoint writer
/// appends whole frames before updating its bookkeeping.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

fn get_or_init<T>(
    map: &Mutex<HashMap<String, Slot<T>>>,
    key: &str,
    f: impl FnOnce() -> Result<T, String>,
) -> Result<Arc<T>, String> {
    let slot = {
        let mut slots = lock_recover(map);
        slots.entry(key.to_string()).or_default().clone()
    };
    slot.get_or_init(|| f().map(Arc::new)).clone()
}

/// Key of the trace-preparation inputs: workload shape + failure model +
/// seed + trace file, independent of policy/cost/engine configuration.
fn prep_key(spec: &ScenarioSpec) -> String {
    format!(
        "{}|{}|{:?}|{:?}|{:?}|{:?}|{}",
        spec.seed,
        spec.jobs,
        spec.trace_file,
        spec.workload,
        spec.failure_model,
        spec.failure_shape,
        spec.failure_scale
    )
}

fn prepare(spec: &ScenarioSpec) -> Result<PrepData, String> {
    let trace = match &spec.trace_file {
        Some(path) => {
            let mut trace = export::read_csv(path).map_err(|e| e.to_string())?;
            // Kill plans are drawn at run time from the trace's model, so
            // a failure_model axis must reach replayed traces too: a
            // non-default scenario model overrides whatever the CSV
            // recorded (the default keeps the CSV's own model, preserving
            // replay fidelity for exported non-default traces).
            let model = spec.failure_spec()?;
            if !model.is_default() {
                trace.failure_model = model;
            }
            trace
        }
        None => generate(&spec.workload_spec()?, spec.seed).map_err(|e| e.to_string())?,
    };
    // One sampling pass: the arena holds every task's kill plan, and the
    // histories (estimator input) derive from it instead of re-drawing —
    // identical streams, identical values.
    let plans = FailurePlanArena::build(&trace);
    let records = trace_histories_from_plans(&trace, &plans);
    let estimates = Estimates::from_records(&records);
    Ok(PrepData {
        trace,
        plans,
        records,
        estimates,
    })
}

fn replay(
    spec: &ScenarioSpec,
    prep: Arc<PrepData>,
    threads: usize,
    telemetry: Option<&Telemetry>,
) -> Result<RunData, String> {
    let cfg = spec.policy_config();
    match spec.engine {
        EngineKind::Fast => {
            // `threads` is the sweep's per-replay budget: total capacity
            // divided by the number of distinct replays, so filter-heavy
            // grids (few replays, many cells) still use every core.
            // Kill plans come from the prep slot's shared arena — sampled
            // once per (trace, failure model), replayed by every
            // policy/cost cell.
            let fold = match spec.metrics {
                MetricsChoice::Streaming => {
                    validate_streaming(spec)?;
                    Fold::Stream
                }
                MetricsChoice::Full => Fold::Records,
            };
            let replay = replay_trace(
                &prep.trace,
                &prep.estimates,
                &cfg,
                RunOptions { threads },
                Some(&prep.plans),
                fold,
                telemetry.map(|t| &t.counters),
            );
            let (jobs, stream) = match replay {
                Replay::Records(jobs) => (jobs, None),
                Replay::Stream(stream) => (Vec::new(), Some(*stream)),
            };
            Ok(RunData {
                jobs,
                stream,
                stream_queue: None,
                queue_wait: None,
                makespan_s: None,
                events: None,
                prep,
            })
        }
        EngineKind::Cluster => {
            // The scenario's failure model drives host failures too, so
            // one `failure_model` axis swaps the hazard end to end (task
            // kills come from the trace, which already carries it).
            let mut cluster_cfg = spec.cluster;
            cluster_cfg.failure_model = spec.failure_spec()?;
            // One engine per host-group shard on the work-stealing
            // substrate, folded once in shard order: results depend on
            // `shards`, never on `threads`, and `shards = 1` is the
            // historical single engine. Streaming metrics: sweep
            // aggregation never reads the raw checkpoint-duration sample,
            // so stress-scale cells keep constant per-event memory (cell
            // outputs are unaffected). Task kill plans come from the prep
            // slot's shared arena — one sampling pass per (trace, failure
            // model), reused by every policy/cost cell.
            let sim =
                ShardedClusterSim::new(cluster_cfg, &prep.trace, &prep.estimates, cfg, spec.shards)
                    .with_plans(&prep.plans)
                    .with_threads(threads)
                    .with_metrics(MetricsMode::Streaming);
            let result = match telemetry {
                Some(t) => {
                    let (result, obs) = sim.run_observed::<Counters>(t.progress.as_ref())?;
                    obs.verify_shard_invariants(spec.shards as u64, result.events)
                        .map_err(|e| format!("sharded run accounting violated: {e}"))?;
                    t.counters.absorb(&obs);
                    result
                }
                None => sim.run()?,
            };
            if spec.metrics == MetricsChoice::Streaming {
                validate_streaming(spec)?;
                // Fold job records in job order. The DES emits jobs in a
                // deterministic order that does not depend on the sweep's
                // replay-thread budget, so the fold (and the sketches it
                // fills) is byte-identical at any thread count.
                let mut stream = ReplayStats::new();
                let mut queue = StreamDist::new();
                for j in &result.jobs {
                    stream.add(&j.base);
                    queue.add(j.queue_wait);
                }
                return Ok(RunData {
                    jobs: Vec::new(),
                    stream: Some(stream),
                    stream_queue: Some(queue),
                    queue_wait: None,
                    makespan_s: Some(result.makespan.as_secs_f64()),
                    events: Some(result.events),
                    prep,
                });
            }
            let queue_wait = result.jobs.iter().map(|j| j.queue_wait).collect();
            let events = result.events;
            let jobs = result.jobs.into_iter().map(|j| j.base).collect();
            Ok(RunData {
                jobs,
                stream: None,
                stream_queue: None,
                queue_wait: Some(queue_wait),
                makespan_s: Some(result.makespan.as_secs_f64()),
                events: Some(events),
                prep,
            })
        }
        _ => unreachable!("replay() is only called for trace engines"),
    }
}

/// Streaming cells fold records at replay time, before any aggregation
/// filter could apply — so the filters must all be at their pass-through
/// settings, validated here with the offending spec keys named.
fn validate_streaming(spec: &ScenarioSpec) -> Result<(), String> {
    let mut blocked = Vec::new();
    if spec.sample != SampleFilter::All {
        blocked.push("sample (set sample = \"all\")");
    }
    if spec.structure.is_some() {
        blocked.push("structure");
    }
    if spec.priority.is_some() {
        blocked.push("priority");
    }
    if spec.max_task_length.is_some() {
        blocked.push("max_task_length");
    }
    if blocked.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "key \"metrics\": streaming summaries fold records before filters apply; \
             incompatible with: {}",
            blocked.join(", ")
        ))
    }
}

/// The streaming-mode metric set: same names and order as the full-record
/// path, summarized from the fold. p50/p99 come from each stream's
/// mergeable quantile sketch — exact in rank, within the sketch's
/// documented ≈ 1 % relative value-error bound of the full-record
/// percentiles (see [`ckpt_stats::sketch`]).
fn stream_metrics(stats: &ReplayStats) -> Vec<(&'static str, MetricSummary)> {
    vec![
        ("wpr", MetricSummary::from_stream(&stats.wpr)),
        ("wall_s", MetricSummary::from_stream(&stats.wall)),
        (
            "ckpt_overhead_s",
            MetricSummary::from_stream(&stats.checkpoint_time),
        ),
        (
            "rollback_s",
            MetricSummary::from_stream(&stats.rollback_loss),
        ),
        ("restart_s", MetricSummary::from_stream(&stats.restart_time)),
        ("failures", MetricSummary::from_stream(&stats.failures)),
        (
            "checkpoints",
            MetricSummary::from_stream(&stats.checkpoints),
        ),
    ]
}

/// Indices of `data.jobs` that pass the scenario's aggregation filters.
fn filtered_indices(
    spec: &ScenarioSpec,
    data: &RunData,
    cache: &RunCache,
) -> Result<Vec<usize>, String> {
    let prone = match spec.sample {
        SampleFilter::All => None,
        SampleFilter::FailureProne { fraction } => {
            let key = format!("{}|{}", prep_key(spec), fraction.to_bits());
            Some(get_or_init(&cache.prones, &key, || {
                Ok(failure_prone_jobs(&data.prep.records, fraction))
            })?)
        }
    };
    Ok(data
        .jobs
        .iter()
        .enumerate()
        .filter(|(_, r)| prone.as_ref().is_none_or(|p| p.contains(&r.job_id)))
        .filter(|(_, r)| spec.structure.is_none_or(|s| r.structure == s))
        .filter(|(_, r)| spec.priority.is_none_or(|p| r.priority == p))
        .filter(|(_, r)| spec.max_task_length.is_none_or(|l| r.max_task_length <= l))
        .map(|(i, _)| i)
        .collect())
}

fn replay_metrics(
    spec: &ScenarioSpec,
    data: &RunData,
    cache: &RunCache,
) -> Result<Vec<(&'static str, MetricSummary)>, String> {
    if let Some(stats) = &data.stream {
        let mut metrics = stream_metrics(stats);
        if let Some(queue) = &data.stream_queue {
            metrics.push(("queue_wait_s", MetricSummary::from_stream(queue)));
        }
        if let Some(makespan) = data.makespan_s {
            metrics.push(("makespan_s", MetricSummary::from_value(makespan)));
        }
        if let Some(events) = data.events {
            metrics.push(("events", MetricSummary::from_value(events as f64)));
        }
        return Ok(metrics);
    }
    let idx = filtered_indices(spec, data, cache)?;
    let collect = |f: &dyn Fn(&JobRecord) -> f64| -> Vec<f64> {
        idx.iter().map(|&i| f(&data.jobs[i])).collect()
    };
    let mut metrics = vec![
        ("wpr", MetricSummary::from_values(&collect(&|r| r.wpr()))),
        (
            "wall_s",
            MetricSummary::from_values(&collect(&|r| r.total_wall)),
        ),
        (
            "ckpt_overhead_s",
            MetricSummary::from_values(&collect(&|r| r.checkpoint_time)),
        ),
        (
            "rollback_s",
            MetricSummary::from_values(&collect(&|r| r.rollback_loss)),
        ),
        (
            "restart_s",
            MetricSummary::from_values(&collect(&|r| r.restart_time)),
        ),
        (
            "failures",
            MetricSummary::from_values(&collect(&|r| r.failures as f64)),
        ),
        (
            "checkpoints",
            MetricSummary::from_values(&collect(&|r| r.checkpoints as f64)),
        ),
    ];
    if let Some(waits) = &data.queue_wait {
        let w: Vec<f64> = idx.iter().map(|&i| waits[i]).collect();
        metrics.push(("queue_wait_s", MetricSummary::from_values(&w)));
    }
    if let Some(makespan) = data.makespan_s {
        metrics.push(("makespan_s", MetricSummary::from_value(makespan)));
    }
    if let Some(events) = data.events {
        metrics.push(("events", MetricSummary::from_value(events as f64)));
    }
    Ok(metrics)
}

fn ckpt_cost_metrics(spec: &ScenarioSpec) -> Vec<(&'static str, MetricSummary)> {
    let blcr = BlcrModel;
    let unit = spec
        .cost
        .apply_ckpt(blcr.checkpoint_cost(spec.device, spec.mem_mb));
    vec![
        ("unit_cost_s", MetricSummary::from_value(unit)),
        (
            "total_cost_s",
            MetricSummary::from_value(unit * spec.n_checkpoints as f64),
        ),
    ]
}

/// Durations of `degree` simultaneous checkpoint operations, Table 2/3
/// style: ramdisk ops are independent; central NFS contends on one
/// processor-sharing server; DM-NFS spreads ops over per-host servers
/// picked uniformly at random. The server bank is created once by the
/// caller and reset between rounds (constructing `PsResource`s draws no
/// randomness, so the hoist leaves every draw — and every duration —
/// unchanged).
fn contention_round(
    spec: &ScenarioSpec,
    rng: &mut Xoshiro256StarStar,
    servers: &mut [PsResource],
    durations: &mut Vec<f64>,
) {
    let blcr = BlcrModel;
    match spec.device {
        Device::Ramdisk => {
            for _ in 0..spec.degree {
                durations.push(blcr.checkpoint_cost_jittered(spec.device, spec.mem_mb, rng));
            }
        }
        Device::CentralNfs | Device::DmNfs => {
            let n_servers = servers.len();
            for server in servers.iter_mut() {
                server.reset();
            }
            let t0 = SimTime::ZERO;
            for i in 0..spec.degree {
                let demand = blcr.checkpoint_cost_jittered(spec.device, spec.mem_mb, rng);
                let server = if n_servers == 1 {
                    0
                } else {
                    rng.next_range(n_servers as u64) as usize
                };
                servers[server].add(t0, OpId(i as u64), demand);
            }
            for server in servers.iter_mut() {
                let mut now = t0;
                while let Some((op, when)) = server.next_completion(now) {
                    server.remove(when, op);
                    durations.push(when.as_secs_f64());
                    now = when;
                }
            }
        }
    }
}

fn contention_metrics(
    spec: &ScenarioSpec,
    cell_index: usize,
) -> Vec<(&'static str, MetricSummary)> {
    // Per-cell stream: thread-count invariant by construction.
    let mut rng = Xoshiro256StarStar::stream(spec.seed, cell_index as u64);
    // One server bank for the whole cell, reset per round — the per-round
    // rebuild used to reallocate `n_hosts` PS servers × reps.
    let n_servers = match spec.device {
        Device::Ramdisk => 0,
        Device::CentralNfs => 1,
        Device::DmNfs => spec.cluster.n_hosts.max(1),
    };
    let mut servers: Vec<PsResource> = (0..n_servers)
        .map(|_| PsResource::new(spec.cluster.storage_rate))
        .collect();
    let mut durations = Vec::with_capacity(spec.reps * spec.degree);
    for _ in 0..spec.reps {
        contention_round(spec, &mut rng, &mut servers, &mut durations);
    }
    vec![("duration_s", MetricSummary::from_values(&durations))]
}

/// Time `f` into the telemetry bundle's phase timer (when telemetry is
/// attached; otherwise just run it). Worker threads time concurrently, so
/// phase totals are *aggregate worker time*, not wall clock — and they
/// live strictly outside the deterministic outputs.
fn timed<T>(telemetry: Option<&Telemetry>, phase: Phase, f: impl FnOnce() -> T) -> T {
    match telemetry {
        Some(t) => t.timers.time(phase, f),
        None => f(),
    }
}

fn evaluate_cell(
    sweep: &SweepSpec,
    spec: &ScenarioSpec,
    cell_index: usize,
    replay_threads: usize,
    cache: &RunCache,
    telemetry: Option<&Telemetry>,
) -> Result<CellResult, String> {
    // `metrics = "streaming"` is a replay-engine mode (fast and cluster);
    // an analytic engine silently ignoring it would leave the user
    // believing it is active, so reject that combination by name for
    // every engine here (not per-branch, where the analytic engines
    // would skip the check).
    if spec.metrics == MetricsChoice::Streaming
        && !matches!(spec.engine, EngineKind::Fast | EngineKind::Cluster)
    {
        return Err(format!(
            "key \"metrics\": streaming summaries are a replay-engine mode (engine is {:?}; \
             the analytic engines have no replay to stream)",
            spec.engine.label()
        ));
    }
    let metrics = match spec.engine {
        EngineKind::Fast | EngineKind::Cluster => {
            // The cache makes counter totals thread-invariant: counters
            // tick only inside the fill closure, so each distinct replay
            // is counted exactly once no matter how many cells share it
            // or which worker claims the slot.
            let data = get_or_init(&cache.runs, &spec.run_key(), || {
                let prep = timed(telemetry, Phase::Sample, || {
                    get_or_init(&cache.preps, &prep_key(spec), || prepare(spec))
                })?;
                timed(telemetry, Phase::Simulate, || {
                    replay(spec, prep, replay_threads, telemetry)
                })
            })?;
            timed(telemetry, Phase::Aggregate, || {
                replay_metrics(spec, &data, cache)
            })?
        }
        EngineKind::CkptCost => ckpt_cost_metrics(spec),
        EngineKind::Contention => timed(telemetry, Phase::Simulate, || {
            contention_metrics(spec, cell_index)
        }),
    };
    if let Some(t) = telemetry {
        t.counters.add(Counter::CellsEvaluated, 1);
        if let Some(progress) = &t.progress {
            progress.cell_done();
        }
    }
    let params = sweep
        .cell_params(cell_index)
        .into_iter()
        .map(|(k, v)| (k, v.render()))
        .collect();
    Ok(CellResult {
        index: cell_index,
        params,
        metrics,
        status: CellStatus::Ok,
    })
}

/// Render a caught panic payload into a quarantine reason.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    let msg = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string());
    format!("panicked: {msg}")
}

thread_local! {
    /// Set while this thread evaluates a cell under `catch_unwind`.
    static GUARDED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Install, once per process, a panic hook that prints nothing for a
/// panic inside a guarded cell evaluation — the retry and quarantine
/// notes name its reason — and hands every other panic to the hook it
/// replaced.
fn quiet_guarded_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !GUARDED.with(|g| g.get()) {
                previous(info);
            }
        }));
    });
}

/// Count a fault the plan fired into the telemetry counters, at the
/// moment it fires.
fn fired<F>(telemetry: Option<&Telemetry>, fault: Option<F>) -> Option<F> {
    if let (Some(t), Some(_)) = (telemetry, &fault) {
        t.counters.add(Counter::FaultsInjected, 1);
    }
    fault
}

/// [`evaluate_cell`] under the fault policy: injected cell faults fire
/// first (before any cache fill, so counters never half-tick for an
/// injected failure), panics unwind no further than this frame, and a
/// failing cell is retried through [`FaultState::retry`] before being
/// quarantined as [`CellStatus::Failed`] — unless the policy is strict,
/// in which case the first failure is fatal. A panic prints no report of
/// its own (see [`quiet_guarded_panics`]).
fn evaluate_cell_guarded(
    sweep: &SweepSpec,
    spec: &ScenarioSpec,
    cell_index: usize,
    replay_threads: usize,
    cache: &RunCache,
    telemetry: Option<&Telemetry>,
    policy: &FaultPolicy,
) -> Result<CellResult, String> {
    quiet_guarded_panics();
    let evaluated = policy.faults.retry(
        Retried::Cell,
        policy.strict,
        |_| true,
        |n, reason: &String| {
            eprintln!(
                "sweep: cell {cell_index} failed ({reason}); retry {n}/{}",
                MAX_ATTEMPTS - 1
            );
            if let Some(t) = telemetry {
                t.counters.add(Counter::CellsRetried, 1);
            }
        },
        || {
            let injected = fired(telemetry, policy.faults.cell_fault(cell_index as u64));
            GUARDED.with(|g| g.set(true));
            let caught = std::panic::catch_unwind(AssertUnwindSafe(|| match injected {
                Some(CellFault::Panic) => panic!("injected fault: panic at cell {cell_index}"),
                Some(CellFault::Budget) => Err(format!(
                    "injected fault: budget exhausted at cell {cell_index}"
                )),
                None => evaluate_cell(sweep, spec, cell_index, replay_threads, cache, telemetry),
            }));
            GUARDED.with(|g| g.set(false));
            caught.unwrap_or_else(|payload| Err(panic_reason(payload)))
        },
    );
    let reason = match evaluated {
        Err(reason) if !policy.strict => reason,
        done => return done,
    };
    // Retry budget spent: quarantine. The cell keeps its place in the
    // grid with NaN metrics and the reason in its status; it is never
    // persisted, so a later --resume re-evaluates it.
    eprintln!("sweep: cell {cell_index} quarantined after {MAX_ATTEMPTS} attempts: {reason}");
    if let Some(t) = telemetry {
        t.counters.add(Counter::CellsFailed, 1);
        if let Some(progress) = &t.progress {
            progress.cell_done();
        }
    }
    let params = sweep
        .cell_params(cell_index)
        .into_iter()
        .map(|(k, v)| (k, v.render()))
        .collect();
    Ok(CellResult {
        index: cell_index,
        params,
        metrics: vec![("failed", MetricSummary::from_values(&[]))],
        status: CellStatus::Failed { reason },
    })
}

/// One failed attempt of a guarded I/O operation: an error the fault
/// plan injected, or the operation's own with its I/O error kind (`None`
/// when no I/O error is behind it).
enum IoFailure<E> {
    Injected(std::io::ErrorKind),
    Failed(Option<std::io::ErrorKind>, E),
}

impl<E> IoFailure<E> {
    fn kind(&self) -> Option<std::io::ErrorKind> {
        match self {
            IoFailure::Injected(kind) => Some(*kind),
            IoFailure::Failed(kind, _) => *kind,
        }
    }
}

/// Run one store or export I/O operation under the fault policy — the
/// single entry every guarded I/O operation of a sweep goes through. Each
/// attempt first consults the plan's `op` faults (an injected error
/// stands in for the attempt; a fired fault ticks `faults_injected`),
/// then calls `attempt(torn)`, where `torn` asks a store append to tear
/// its frame and abort. Failures go through [`FaultState::retry`]: an
/// injected error, or one whose `io_kind` is some I/O error kind, retries
/// when that kind is transient, and the retry note names the kind alone.
/// `what` names the operation in the retry notes and the final error, and
/// is only formatted for them.
pub fn guarded_io<T, E: std::fmt::Display>(
    policy: &FaultPolicy,
    telemetry: Option<&Telemetry>,
    op: IoOp,
    what: impl Fn() -> String,
    io_kind: impl Fn(&E) -> Option<std::io::ErrorKind>,
    mut attempt: impl FnMut(bool) -> Result<T, E>,
) -> Result<T, String> {
    policy
        .faults
        .retry(
            Retried::Io,
            policy.strict,
            |failure: &IoFailure<E>| failure.kind().is_some_and(is_transient_kind),
            |n, failure| {
                // Only a failure with a transient kind is retried.
                let kind = failure.kind().map_or("io", io_kind_name);
                eprintln!(
                    "sweep: transient io failure {} ({kind}); retry {n}/{}",
                    what(),
                    MAX_ATTEMPTS - 1
                );
                if let Some(t) = telemetry {
                    t.counters.add(Counter::IoRetries, 1);
                }
            },
            || match fired(telemetry, policy.faults.io_fault(op)) {
                Some(IoFault::Io(kind)) => Err(IoFailure::Injected(kind)),
                torn => attempt(torn.is_some()).map_err(|e| IoFailure::Failed(io_kind(&e), e)),
            },
        )
        .map_err(|failure| match failure {
            IoFailure::Injected(kind) => {
                format!("{}: injected io error ({})", what(), io_kind_name(kind))
            }
            IoFailure::Failed(_, e) => format!("{}: {e}", what()),
        })
}

/// Run a sweep under a shared [`ckpt_report::RunContext`]: the context's
/// seed replaces the spec's base seed, its scale sets the base job count
/// (trace engines; per-cell axes still win, and analytic engines ignore
/// it), and its thread budget drives the executor — so a sweep cell and a
/// standalone experiment are controlled by one `(seed, scale, threads)`
/// triple.
pub fn run_sweep_ctx(
    sweep: &SweepSpec,
    ctx: &ckpt_report::RunContext,
) -> Result<SweepResult, SweepError> {
    run_sweep_telemetry(
        &sweep.contextualized(ctx),
        SweepOptions::from(ctx),
        ctx.telemetry.as_deref(),
    )
}

/// Run every cell of a sweep, in parallel, deterministically.
pub fn run_sweep(sweep: &SweepSpec, options: SweepOptions) -> Result<SweepResult, SweepError> {
    run_sweep_telemetry(sweep, options, None)
}

/// [`run_sweep`] with an optional telemetry bundle attached. Counters
/// accumulate simulation facts (thread-invariant by construction: each
/// distinct replay counts once, in the cache fill), phase timers
/// accumulate worker time, and — if the bundle carries a progress sink —
/// cell completions and DES event counts stream as stderr heartbeats.
/// With `None` this is exactly [`run_sweep`]: instrumentation compiles
/// to nothing in the replay loops and outputs are byte-identical.
pub fn run_sweep_telemetry(
    sweep: &SweepSpec,
    options: SweepOptions,
    telemetry: Option<&Telemetry>,
) -> Result<SweepResult, SweepError> {
    run_sweep_inner(sweep, options, telemetry, None, &FaultPolicy::fail_fast())
        .map(|(result, _)| result)
}

/// The fully general entry point: [`run_sweep_telemetry`] plus optional
/// checkpointing plus an explicit [`FaultPolicy`]. Under a non-strict
/// policy, failing cells are retried with deterministic backoff and then
/// quarantined (NaN metrics, [`CellStatus::Failed`]) while the rest of
/// the grid completes; transient store-I/O errors are retried the same
/// way. With an empty fault plan and no genuine failures, results are
/// byte-identical to the legacy entry points.
pub fn run_sweep_guarded(
    sweep: &SweepSpec,
    options: SweepOptions,
    telemetry: Option<&Telemetry>,
    config: Option<&CheckpointConfig>,
    policy: &FaultPolicy,
) -> Result<(SweepResult, Option<ResumeReport>), SweepError> {
    run_sweep_inner(sweep, options, telemetry, config, policy)
}

/// [`run_sweep_telemetry`] with cell-level checkpointing: each completed
/// cell is persisted to an append-only [`SweepStore`] as its worker
/// finishes it, and a resume run loads the persisted cells (validated
/// against the current spec) and evaluates only the missing ones.
///
/// Because every cell is a pure function of `(spec, seed, cell index)`,
/// the merged result — and therefore every exported byte — is identical
/// whether the sweep ran straight through or was killed and resumed any
/// number of times, at any thread count.
pub fn run_sweep_checkpointed(
    sweep: &SweepSpec,
    options: SweepOptions,
    telemetry: Option<&Telemetry>,
    config: &CheckpointConfig,
) -> Result<(SweepResult, ResumeReport), SweepError> {
    let (result, report) = run_sweep_inner(
        sweep,
        options,
        telemetry,
        Some(config),
        &FaultPolicy::fail_fast(),
    )?;
    Ok((result, report.expect("checkpointed run always reports")))
}

/// The store plus this run's persistence bookkeeping, behind one lock.
/// Workers take it only *between* cells (appending a finished result),
/// never inside a replay — the simulation hot path stays lock-free.
struct CkptWriter {
    store: SweepStore,
    /// Records persisted by this run (not counting loaded ones).
    written: u64,
    /// Fault injection: abort once `written` reaches this.
    crash_after: Option<u64>,
}

impl CkptWriter {
    /// Append one finished cell through [`guarded_io`]; with the crash
    /// hook armed, abort the process once enough records landed — while
    /// still holding the lock, so exactly `crash_after` records exist on
    /// disk. Torn-write injection leaves half a frame on disk and dies
    /// like a mid-append kill; an error that outlasts the retries is fatal
    /// for the whole run — a store that can't persist is not a per-cell
    /// problem.
    fn persist(
        writer: &Mutex<CkptWriter>,
        spec: &ScenarioSpec,
        cell: &CellResult,
        telemetry: Option<&Telemetry>,
        policy: &FaultPolicy,
    ) -> Result<(), String> {
        let record = CellRecord {
            index: cell.index as u64,
            key_digest: ckpt::cell_key_digest(&spec.run_key(), &cell.params),
            payload: ckpt::encode_cell(cell),
        };
        guarded_io(
            policy,
            telemetry,
            IoOp::Write,
            || format!("persisting cell {}", cell.index),
            StoreError::kind,
            |torn| {
                let mut w = lock_recover(writer);
                if torn {
                    // Half a frame, no bookkeeping, die hard: the next
                    // open must detect and truncate the torn tail.
                    let _ = w.store.append_torn(&record);
                    eprintln!(
                        "ckpt fault: torn write persisting cell {}; aborting mid-append",
                        cell.index
                    );
                    std::process::exit(ckpt::CRASH_EXIT_CODE);
                }
                w.store.append(&record)?;
                w.written += 1;
                if let Some(t) = telemetry {
                    t.counters.add(Counter::CkptRecordsWritten, 1);
                }
                if let Some(limit) = w.crash_after {
                    if w.written >= limit {
                        // Simulated preemption for kill-and-resume tests:
                        // die hard (no unwinding, no final sync), like a
                        // real kill -9 — appended records are already in
                        // the file.
                        eprintln!(
                            "ckpt crash hook: aborting after {} persisted cell{}",
                            w.written,
                            if w.written == 1 { "" } else { "s" }
                        );
                        std::process::exit(ckpt::CRASH_EXIT_CODE);
                    }
                }
                Ok(())
            },
        )
    }
}

/// Open-or-create the sweep's store per the config, returning the store
/// positioned to append, the cells loaded from it (resume only), and the
/// partially filled report.
fn open_store(
    sweep: &SweepSpec,
    cells: &[ScenarioSpec],
    config: &CheckpointConfig,
    policy: &FaultPolicy,
    telemetry: Option<&Telemetry>,
) -> Result<(SweepStore, HashMap<usize, CellResult>, ResumeReport), SweepError> {
    std::fs::create_dir_all(&config.dir)
        .map_err(|e| SweepError(format!("checkpoint dir {}: {e}", config.dir.display())))?;
    let path = config.store_path(&sweep.name);
    let header = StoreHeader {
        spec_digest: ckpt::sweep_digest(sweep),
        seed: sweep.base.seed,
        scale: sweep.base.jobs as u64,
        grid_size: cells.len() as u64,
    };
    let mut report = ResumeReport {
        store_path: path.clone(),
        ..ResumeReport::default()
    };
    let mut loaded = HashMap::new();
    let store = if config.resume && ckpt::store_exists(&path) {
        let (store, records, open) = guarded_io(
            policy,
            telemetry,
            IoOp::Open,
            || format!("opening {}", path.display()),
            StoreError::kind,
            |_| SweepStore::open(&path),
        )
        .map_err(SweepError)?;
        store
            .header()
            .validate_against(&header)
            .map_err(|e| SweepError(e.to_string()))?;
        report.recovered = open.warning;
        for record in records {
            // The store guarantees index < grid_size; the digest ties the
            // record to this exact cell's simulation inputs and rendered
            // params under the *current* spec.
            let index = record.index as usize;
            let cell = ckpt::decode_cell(index, &record.payload)
                .map_err(|e| SweepError(format!("cell {index} in {}: {e}", path.display())))?;
            let expect = ckpt::cell_key_digest(&cells[index].run_key(), &cell.params);
            if record.key_digest != expect {
                return Err(SweepError(format!(
                    "cell {index} in {} does not match the current spec \
                     (rerun without --resume to start fresh)",
                    path.display()
                )));
            }
            // Duplicate indices: last record wins (a re-run after a crash
            // that lost the in-memory dedup can legitimately re-append).
            loaded.insert(index, cell);
        }
        store
    } else {
        report.fresh_start = config.resume;
        guarded_io(
            policy,
            telemetry,
            IoOp::Open,
            || format!("creating {}", path.display()),
            StoreError::kind,
            |_| SweepStore::create(&path, header),
        )
        .map_err(SweepError)?
    };
    report.loaded = loaded.len();
    Ok((store, loaded, report))
}

fn run_sweep_inner(
    sweep: &SweepSpec,
    options: SweepOptions,
    telemetry: Option<&Telemetry>,
    config: Option<&CheckpointConfig>,
    policy: &FaultPolicy,
) -> Result<(SweepResult, Option<ResumeReport>), SweepError> {
    let n = sweep.grid_size();
    let cells = timed(telemetry, Phase::Plan, || sweep.cells())?;
    let cache = RunCache::default();

    // Checkpointing: open/create the store and split the grid into cells
    // already on disk and cells still to evaluate. Without a config this
    // collapses to "everything is missing" and zero extra work.
    let (writer, loaded, mut report) = match config {
        Some(cfg) => {
            let (store, loaded, report) = open_store(sweep, &cells, cfg, policy, telemetry)?;
            let writer = Mutex::new(CkptWriter {
                store,
                written: 0,
                // The programmatic hook and a `crash@cells=N` plan
                // directive feed the same counter; the config wins.
                crash_after: cfg.crash_after_cells.or(policy.faults.crash_after_cells()),
            });
            (Some(writer), loaded, Some(report))
        }
        None => (None, HashMap::new(), None),
    };
    // "Resumed" cells are the ones a resume run evaluates on top of an
    // existing store (a fresh start under --resume is just a plain run).
    let resuming =
        config.is_some_and(|c| c.resume) && report.as_ref().is_some_and(|r| !r.fresh_start);
    let missing: Vec<usize> = (0..n).filter(|i| !loaded.contains_key(i)).collect();
    if let Some(r) = report.as_mut() {
        r.evaluated = missing.len();
    }
    if let Some(t) = telemetry {
        if !loaded.is_empty() {
            t.counters.add(Counter::CellsSkipped, loaded.len() as u64);
        }
    }
    if let Some(progress) = telemetry.and_then(|t| t.progress.as_ref()) {
        progress.set_cells_total(n as u64);
        for _ in 0..loaded.len() {
            progress.cell_done();
        }
    }

    // Budget nested parallelism: grids with fewer distinct replays than
    // cells (filter axes) would otherwise leave workers blocked on the
    // run cache while each replay runs single-threaded. Splitting total
    // capacity across the distinct replays keeps workers × replay-threads
    // ≈ capacity without oversubscribing. (Replay results are
    // thread-count-invariant, so this never changes output bytes.)
    let capacity = if options.threads == 0 {
        std::thread::available_parallelism()
            .map(|t| t.get())
            .unwrap_or(1)
    } else {
        options.threads
    };
    // Only replays that can use extra threads dilute the per-replay
    // budget: fast-engine cells (the parallel trace runner) and sharded
    // cluster cells (one engine per shard). Unsharded cluster DES cells
    // are inherently sequential. Resumed runs budget over the cells they
    // actually evaluate.
    let distinct_replays = missing
        .iter()
        .filter(|&&i| match cells[i].engine {
            EngineKind::Fast => true,
            EngineKind::Cluster => cells[i].shards > 1,
            _ => false,
        })
        .map(|&i| cells[i].run_key())
        .collect::<std::collections::HashSet<_>>()
        .len();
    let replay_threads = capacity.checked_div(distinct_replays).unwrap_or(1).max(1);

    let evaluated: Vec<Result<CellResult, String>> =
        parallel_indexed(missing.len(), options.threads, |j| {
            let i = missing[j];
            let cell = evaluate_cell_guarded(
                sweep,
                &cells[i],
                i,
                replay_threads,
                &cache,
                telemetry,
                policy,
            )?;
            if let Some(writer) = &writer {
                // Persist at the worker's join point, after the replay is
                // done — the store lock never contends with simulation.
                // Quarantined cells are never persisted: the store holds
                // only real results, so --resume re-evaluates them.
                if cell.status.is_ok() {
                    CkptWriter::persist(writer, &cells[i], &cell, telemetry, policy)?;
                }
            }
            Ok(cell)
        });

    // Merge loaded and evaluated cells back into grid order. Loaded cells
    // decode to bit-exact copies of their original evaluation, and every
    // cell is deterministic in (spec, seed, index) — so this vector is
    // byte-for-byte the uninterrupted run's.
    let mut slots: Vec<Option<CellResult>> = (0..n).map(|_| None).collect();
    for (index, cell) in loaded {
        slots[index] = Some(cell);
    }
    for (j, result) in evaluated.into_iter().enumerate() {
        let i = missing[j];
        match result {
            Ok(cell) => slots[i] = Some(cell),
            Err(e) => return Err(SweepError(format!("cell {i}: {e}"))),
        }
    }
    let result_cells: Vec<CellResult> = slots
        .into_iter()
        .map(|s| s.expect("every grid cell is loaded or evaluated"))
        .collect();

    if let (Some(t), true) = (telemetry, resuming) {
        t.counters.add(
            Counter::CellsResumed,
            report.as_ref().map_or(0, |r| r.evaluated) as u64,
        );
    }
    if let Some(writer) = writer {
        let w = writer.into_inner().unwrap_or_else(|e| e.into_inner());
        w.store
            .sync()
            .map_err(|e| SweepError(format!("syncing checkpoint store: {e}")))?;
    }
    let cells_ok = result_cells.iter().filter(|c| c.status.is_ok()).count() as u64;
    let health = policy
        .faults
        .health(cells_ok, result_cells.len() as u64 - cells_ok);
    Ok((
        SweepResult {
            name: sweep.name.clone(),
            seed: sweep.base.seed,
            cells: result_cells,
            health,
        },
        report,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: &str = r#"
        [sweep]
        name = "small"
        engine = "fast"
        seed = 9
        jobs = 150

        [axes]
        policy = ["formula3", "none"]
        ckpt_cost_scale = { from = 0.5, to = 2.0, steps = 2 }
    "#;

    /// A policy with the given plan text and a fake clock, so tests never
    /// actually sleep through the backoff schedule.
    fn test_policy(plan: &str, strict: bool) -> FaultPolicy {
        let plan = ckpt_faults::FaultPlan::parse(plan).unwrap();
        FaultPolicy {
            faults: Arc::new(ckpt_faults::FaultState::with_clock(
                plan,
                Box::new(ckpt_faults::TestClock::default()),
            )),
            strict,
        }
    }

    #[test]
    fn injected_panic_quarantines_one_cell_and_completes_the_grid() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let policy = test_policy("panic@cell=2", false);
        let (result, _) =
            run_sweep_guarded(&sweep, SweepOptions { threads: 2 }, None, None, &policy).unwrap();
        assert_eq!(result.cells.len(), 4);
        for (i, c) in result.cells.iter().enumerate() {
            assert_eq!(c.index, i);
            if i == 2 {
                let CellStatus::Failed { reason } = &c.status else {
                    panic!("cell 2 should be quarantined");
                };
                assert!(
                    reason.contains("injected fault: panic at cell 2"),
                    "{reason}"
                );
                // NaN metrics, still exportable.
                assert_eq!(c.metrics.len(), 1);
                assert!(c.metrics[0].1.mean.is_nan());
            } else {
                assert!(c.status.is_ok(), "cell {i} should be healthy");
            }
        }
        assert!(result.health.degraded());
        assert_eq!(result.health.cells_ok, 3);
        assert_eq!(result.health.cells_quarantined, 1);
        // A sticky panic burns the full retry budget: MAX_ATTEMPTS fires,
        // MAX_ATTEMPTS - 1 retries.
        assert_eq!(
            result.health.cell_retries,
            ckpt_faults::MAX_ATTEMPTS as u64 - 1
        );
        assert_eq!(
            result.health.faults_injected,
            ckpt_faults::MAX_ATTEMPTS as u64
        );
    }

    /// Store errors retry by the `io::ErrorKind` they carry: a transient
    /// kind is retried, any other kind and a non-I/O error fail at once.
    #[test]
    fn store_errors_retry_by_their_io_kind() {
        use std::io::{Error, ErrorKind};
        let policy = test_policy("", false);
        let run = |first: StoreError| {
            let mut attempts = 0;
            let mut first = Some(first);
            let result = guarded_io(
                &policy,
                None,
                IoOp::Write,
                || "persisting cell 0".to_string(),
                StoreError::kind,
                |_| {
                    attempts += 1;
                    first.take().map_or(Ok(()), Err)
                },
            );
            (result, attempts)
        };
        let (result, attempts) = run(Error::new(ErrorKind::Interrupted, "blip").into());
        assert_eq!((result, attempts), (Ok(()), 2));
        let (result, attempts) = run(Error::new(ErrorKind::PermissionDenied, "locked").into());
        assert_eq!(attempts, 1);
        assert!(result.unwrap_err().contains("locked"));
        let Err(other) = SweepStore::open(std::env::temp_dir().join("no_such_ckpt_store.bin"))
        else {
            panic!("a missing store does not open");
        };
        assert_eq!(other.kind(), Some(ErrorKind::NotFound));
        assert_eq!(run(other).1, 1);
    }

    #[test]
    fn transient_cell_fault_retries_to_a_byte_identical_result() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let clean = run_sweep(&sweep, SweepOptions { threads: 2 }).unwrap();
        // times=2 < MAX_ATTEMPTS: the third attempt succeeds.
        let policy = test_policy("budget@cell=1:times=2", false);
        let (faulted, _) =
            run_sweep_guarded(&sweep, SweepOptions { threads: 2 }, None, None, &policy).unwrap();
        assert_eq!(clean.cells, faulted.cells);
        assert!(!faulted.health.degraded());
        assert_eq!(faulted.health.cell_retries, 2);
        assert_eq!(faulted.health.faults_injected, 2);
    }

    #[test]
    fn strict_mode_fails_fast_on_the_first_injected_fault() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let policy = test_policy("panic@cell=1", true);
        let err = run_sweep_guarded(&sweep, SweepOptions { threads: 1 }, None, None, &policy)
            .unwrap_err();
        assert!(err.0.contains("cell 1"), "{err}");
        assert!(err.0.contains("panic"), "{err}");
    }

    #[test]
    fn default_policy_matches_legacy_entry_points_byte_for_byte() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let legacy = run_sweep(&sweep, SweepOptions { threads: 2 }).unwrap();
        let (guarded, report) = run_sweep_guarded(
            &sweep,
            SweepOptions { threads: 2 },
            None,
            None,
            &FaultPolicy::default(),
        )
        .unwrap();
        assert!(report.is_none());
        assert_eq!(legacy.cells, guarded.cells);
        assert!(!guarded.health.degraded());
        assert_eq!(
            guarded.health.summary(),
            "4 cells ok, 0 quarantined, 0 cell retries, 0 io retries, 0 faults injected"
        );
    }

    #[test]
    fn a_worker_panic_does_not_poison_the_caches_for_other_cells() {
        // Regression for the lock-poisoning expect()s this module used to
        // carry: a panicking cell (caught and quarantined) must leave the
        // shared caches usable — other cells sharing the same prep/run
        // key still evaluate. All four SMALL cells share one prep key, so
        // a panic in one cell's first attempts exercises exactly that.
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let policy = test_policy("panic@cell=0:times=2", false);
        let (result, _) =
            run_sweep_guarded(&sweep, SweepOptions { threads: 4 }, None, None, &policy).unwrap();
        let clean = run_sweep(&sweep, SweepOptions { threads: 4 }).unwrap();
        assert_eq!(result.cells, clean.cells, "retried run must converge");
    }

    #[test]
    fn transient_store_io_faults_retry_and_quarantined_cells_are_not_persisted() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let dir = std::env::temp_dir().join(format!("ckpt_exec_faults_{}", std::process::id()));
        let config = CheckpointConfig {
            dir: dir.clone(),
            resume: false,
            crash_after_cells: None,
        };
        // Two transient write errors (retried away) plus a sticky panic on
        // cell 3 (quarantined).
        let policy = test_policy(
            "io_error@write=1:kind=interrupted:times=2; panic@cell=3",
            false,
        );
        let (result, report) = run_sweep_guarded(
            &sweep,
            SweepOptions { threads: 2 },
            None,
            Some(&config),
            &policy,
        )
        .unwrap();
        assert_eq!(result.health.io_retries, 2);
        assert_eq!(result.health.cells_quarantined, 1);
        // Only the three healthy cells are persisted: a resume with the
        // fault gone re-evaluates cell 3 and lands on the clean result.
        let (store, records, _) = SweepStore::open(config.store_path(&sweep.name)).unwrap();
        drop(store);
        assert_eq!(records.len(), 3);
        assert!(records.iter().all(|r| r.index != 3));
        let resume = CheckpointConfig {
            resume: true,
            ..config.clone()
        };
        let (resumed, _) = run_sweep_guarded(
            &sweep,
            SweepOptions { threads: 2 },
            None,
            Some(&resume),
            &FaultPolicy::default(),
        )
        .unwrap();
        let clean = run_sweep(&sweep, SweepOptions { threads: 2 }).unwrap();
        assert_eq!(resumed.cells, clean.cells);
        assert!(!resumed.health.degraded());
        assert_eq!(report.unwrap().evaluated, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sweep_runs_and_orders_cells() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let result = run_sweep(&sweep, SweepOptions { threads: 2 }).unwrap();
        assert_eq!(result.cells.len(), 4);
        for (i, c) in result.cells.iter().enumerate() {
            assert_eq!(c.index, i);
            let wpr = c.metrics.iter().find(|(n, _)| *n == "wpr").unwrap().1;
            assert!(wpr.count > 0, "cell {i} aggregated no jobs");
            assert!(wpr.mean > 0.0 && wpr.mean <= 1.0);
        }
    }

    #[test]
    fn run_context_drives_seed_scale_and_threads() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let ctx = ckpt_report::RunContext::new(ckpt_report::Scale::Quick)
            .with_seed(9)
            .with_threads(2);
        let via_ctx = run_sweep_ctx(&sweep, &ctx).unwrap();
        // The context reproduces a direct run whose spec carries the
        // context's seed and scale-derived job count.
        let mut patched = sweep.clone();
        patched.base.seed = 9;
        patched.base.jobs = ckpt_report::Scale::Quick.jobs();
        let direct = run_sweep(&patched, SweepOptions { threads: 2 }).unwrap();
        assert_eq!(via_ctx.cells, direct.cells);
        // A different context seed changes the replay.
        let other = run_sweep_ctx(&sweep, &ctx.clone().with_seed(10)).unwrap();
        assert_ne!(via_ctx.cells, other.cells);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let a = run_sweep(&sweep, SweepOptions { threads: 1 }).unwrap();
        let b = run_sweep(&sweep, SweepOptions { threads: 4 }).unwrap();
        assert_eq!(a.cells, b.cells);
    }

    #[test]
    fn prep_is_shared_across_policy_cells() {
        // All four cells differ only in policy/cost, so they share one
        // prep key (single trace generation) even with four run keys.
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let cells = sweep.cells().unwrap();
        let keys: std::collections::HashSet<String> = cells.iter().map(prep_key).collect();
        assert_eq!(keys.len(), 1);
        let run_keys: std::collections::HashSet<String> =
            cells.iter().map(|c| c.run_key()).collect();
        assert_eq!(run_keys.len(), 4);
    }

    #[test]
    fn filter_cells_share_one_replay() {
        // structure is a pure filter ⇒ both cells share a run key, and the
        // union of their job counts is the full sample.
        let spec = r#"
            [sweep]
            name = "filters"
            engine = "fast"
            seed = 11
            jobs = 200
            sample = "all"

            [axes]
            structure = ["ST", "BoT"]
        "#;
        let sweep = SweepSpec::from_str(spec).unwrap();
        let cells = sweep.cells().unwrap();
        assert_eq!(cells[0].run_key(), cells[1].run_key());
        let result = run_sweep(&sweep, SweepOptions { threads: 2 }).unwrap();
        let count = |i: usize| {
            result.cells[i]
                .metrics
                .iter()
                .find(|(n, _)| *n == "wpr")
                .unwrap()
                .1
                .count
        };
        assert_eq!(count(0) + count(1), 200);
    }

    #[test]
    fn ckpt_cost_engine_matches_blcr_model() {
        let spec = r#"
            [sweep]
            name = "fig7ish"
            engine = "ckpt-cost"

            [axes]
            device = ["ramdisk", "nfs"]
            mem_mb = [10, 240]
            n_checkpoints = { from = 1, to = 5, steps = 5 }
        "#;
        let sweep = SweepSpec::from_str(spec).unwrap();
        assert_eq!(sweep.grid_size(), 20);
        let result = run_sweep(&sweep, SweepOptions { threads: 3 }).unwrap();
        let blcr = BlcrModel;
        for cell in &result.cells {
            let scen = sweep.cell(cell.index).unwrap();
            let expect = blcr.checkpoint_cost(scen.device, scen.mem_mb) * scen.n_checkpoints as f64;
            let got = cell
                .metrics
                .iter()
                .find(|(n, _)| *n == "total_cost_s")
                .unwrap()
                .1;
            assert_eq!(got.mean, expect, "cell {}", cell.index);
        }
    }

    #[test]
    fn contention_engine_shows_nfs_congestion() {
        let spec = r#"
            [sweep]
            name = "table2ish"
            engine = "contention"
            seed = 20130217
            mem_mb = 160
            reps = 25

            [axes]
            device = ["ramdisk", "nfs"]
            degree = { from = 1, to = 5, steps = 5 }
        "#;
        let sweep = SweepSpec::from_str(spec).unwrap();
        let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        let mean = |i: usize| {
            result.cells[i]
                .metrics
                .iter()
                .find(|(n, _)| *n == "duration_s")
                .unwrap()
                .1
                .mean
        };
        // Cells 0..5 are ramdisk X=1..5 (flat); 5..10 are NFS (climbing).
        assert!(mean(4) < 2.0 * mean(0), "ramdisk should stay flat");
        assert!(mean(9) > 3.0 * mean(5), "NFS should congest with degree");
        // Thread invariance for RNG-using engines specifically.
        let again = run_sweep(&sweep, SweepOptions { threads: 7 }).unwrap();
        assert_eq!(result.cells, again.cells);
    }

    const HAZARD: &str = r#"
        [sweep]
        name = "hazard"
        engine = "fast"
        seed = 9
        jobs = 150

        [axes]
        failure_model = ["exponential", "weibull", "pareto", "trace"]
        policy = ["formula3", "young"]
    "#;

    #[test]
    fn failure_model_axis_is_thread_invariant_and_distinct() {
        let sweep = SweepSpec::from_str(HAZARD).unwrap();
        let a = run_sweep(&sweep, SweepOptions { threads: 1 }).unwrap();
        let b = run_sweep(&sweep, SweepOptions { threads: 4 }).unwrap();
        assert_eq!(a.cells, b.cells);
        // Each model produces a genuinely different replay: the formula3
        // wall-clock must differ across models.
        let wall = |i: usize| {
            a.cells[i]
                .metrics
                .iter()
                .find(|(n, _)| *n == "wall_s")
                .unwrap()
                .1
                .mean
        };
        let walls: Vec<f64> = (0..4).map(|m| wall(2 * m)).collect();
        for i in 1..walls.len() {
            assert_ne!(walls[0], walls[i], "model {i} replayed the default plan");
        }
    }

    #[test]
    fn exponential_failure_model_cells_match_the_legacy_sweep() {
        // The acceptance contract: an explicit failure_model =
        // "exponential" axis value changes nothing — metrics equal the
        // same sweep with no failure_model key at all.
        let with_axis = SweepSpec::from_str(
            r#"
            [sweep]
            name = "small"
            engine = "fast"
            seed = 9
            jobs = 150
            failure_model = "exponential"

            [axes]
            policy = ["formula3", "none"]
        "#,
        )
        .unwrap();
        let legacy = SweepSpec::from_str(
            r#"
            [sweep]
            name = "small"
            engine = "fast"
            seed = 9
            jobs = 150

            [axes]
            policy = ["formula3", "none"]
        "#,
        )
        .unwrap();
        let a = run_sweep(&with_axis, SweepOptions::default()).unwrap();
        let b = run_sweep(&legacy, SweepOptions::default()).unwrap();
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.metrics, cb.metrics);
        }
    }

    #[test]
    fn cluster_engine_threads_failure_model_into_host_failures() {
        let spec = r#"
            [sweep]
            name = "haz_cluster"
            engine = "cluster"
            seed = 11
            jobs = 60

            [cluster]
            host_mtbf_s = 1800

            [axes]
            failure_model = ["exponential", "pareto"]
        "#;
        let sweep = SweepSpec::from_str(spec).unwrap();
        let result = run_sweep(&sweep, SweepOptions { threads: 2 }).unwrap();
        assert_eq!(result.cells.len(), 2);
        let makespan = |i: usize| {
            result.cells[i]
                .metrics
                .iter()
                .find(|(n, _)| *n == "makespan_s")
                .unwrap()
                .1
                .mean
        };
        // Different hazard ⇒ different host-failure stream ⇒ different run.
        assert_ne!(makespan(0), makespan(1));
        let again = run_sweep(&sweep, SweepOptions { threads: 7 }).unwrap();
        assert_eq!(result.cells, again.cells);
    }

    #[test]
    fn failure_model_axis_reaches_replayed_trace_files() {
        // A failure_model axis over a trace_file scenario must change the
        // replay (kill plans are drawn at run time), not silently produce
        // a grid of identical cells.
        let trace = ckpt_trace::gen::generate(&ckpt_trace::spec::WorkloadSpec::google_like(80), 41)
            .expect("valid workload spec");
        let path = std::env::temp_dir().join(format!(
            "ckpt_scenario_test_{}_axis_trace.csv",
            std::process::id()
        ));
        export::write_csv(&trace, &path).unwrap();
        let spec = format!(
            r#"
            [sweep]
            name = "traced"
            engine = "fast"
            trace = "{}"
            sample = "all"

            [axes]
            failure_model = ["exponential", "pareto"]
        "#,
            path.display()
        );
        let sweep = SweepSpec::from_str(&spec).unwrap();
        let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        std::fs::remove_file(&path).ok();
        assert_ne!(result.cells[0].metrics, result.cells[1].metrics);
    }

    #[test]
    fn bad_workload_values_error_instead_of_panicking() {
        // length_spread <= 1 used to panic inside generate(); it must now
        // surface as a cell error through the sweep.
        let sweep = SweepSpec::from_str(
            r#"
            [sweep]
            name = "badgen"
            engine = "fast"
            jobs = 10

            [workload]
            length_spread = 0.5
        "#,
        )
        .unwrap();
        let err = run_sweep(&sweep, SweepOptions::default()).unwrap_err();
        assert!(err.0.contains("length_spread"), "{err}");
    }

    #[test]
    fn streaming_metrics_match_full_mode_where_defined() {
        // Streaming cells fold the same replay the full-record cells
        // materialize: count/mean/min/max must agree exactly; p50/p99
        // come from the fold's quantile sketch and must land within its
        // documented relative error bound of the full-record percentiles.
        let full = SweepSpec::from_str(
            r#"
            [sweep]
            name = "m_full"
            engine = "fast"
            seed = 9
            jobs = 150
            sample = "all"

            [axes]
            policy = ["formula3", "none"]
        "#,
        )
        .unwrap();
        let streaming = SweepSpec::from_str(
            r#"
            [sweep]
            name = "m_stream"
            engine = "fast"
            seed = 9
            jobs = 150
            sample = "all"
            metrics = "streaming"

            [axes]
            policy = ["formula3", "none"]
        "#,
        )
        .unwrap();
        let a = run_sweep(&full, SweepOptions { threads: 1 }).unwrap();
        let b = run_sweep(&streaming, SweepOptions { threads: 1 }).unwrap();
        for (ca, cb) in a.cells.iter().zip(&b.cells) {
            assert_eq!(ca.metrics.len(), cb.metrics.len());
            for ((name_a, ma), (name_b, mb)) in ca.metrics.iter().zip(&cb.metrics) {
                assert_eq!(name_a, name_b);
                assert_eq!(ma.count, mb.count, "{name_a}");
                // Min/max are order-free and match exactly; the mean sums
                // in job order (the full path sums sorted values), so it
                // agrees to float-association noise.
                assert_eq!(ma.min.to_bits(), mb.min.to_bits(), "{name_a}");
                assert_eq!(ma.max.to_bits(), mb.max.to_bits(), "{name_a}");
                let tol = 1e-12 * ma.mean.abs().max(1.0);
                assert!((ma.mean - mb.mean).abs() <= tol, "{name_a}");
                // Sketch percentiles: populated, within the documented
                // relative error bound of the exact nearest-rank values.
                let bound = ckpt_stats::QuantileSketch::new().relative_error_bound();
                for (exact, sketched) in [(ma.p50, mb.p50), (ma.p99, mb.p99)] {
                    assert!(!sketched.is_nan(), "{name_a}: sketch percentile is NaN");
                    assert!(
                        (sketched - exact).abs() <= bound * exact.abs() + 1e-9,
                        "{name_a}: sketched {sketched} vs exact {exact}"
                    );
                }
            }
        }
        // And the mode is thread-invariant (fixed fold blocks, mergeable
        // sketches): byte-identical cells at any thread count.
        let b4 = run_sweep(&streaming, SweepOptions { threads: 4 }).unwrap();
        assert_eq!(b.cells, b4.cells);
    }

    #[test]
    fn streaming_metrics_reject_filters_and_analytic_by_name() {
        let filtered = SweepSpec::from_str(
            r#"
            [sweep]
            name = "m_bad"
            engine = "fast"
            jobs = 50
            metrics = "streaming"

            [axes]
            structure = ["ST", "BoT"]
        "#,
        )
        .unwrap();
        let err = run_sweep(&filtered, SweepOptions::default()).unwrap_err();
        assert!(
            err.0.contains("sample") && err.0.contains("structure"),
            "{err}"
        );

        // Cluster + streaming is now a supported combination: the DES job
        // records fold into the same sketch-backed summaries.
        let cluster = SweepSpec::from_str(
            r#"
            [sweep]
            name = "m_cluster"
            engine = "cluster"
            jobs = 30
            sample = "all"
            metrics = "streaming"
        "#,
        )
        .unwrap();
        let result = run_sweep(&cluster, SweepOptions::default()).unwrap();
        let (_, wpr) = result.cells[0]
            .metrics
            .iter()
            .find(|(name, _)| *name == "wpr")
            .unwrap();
        assert!(wpr.count > 0 && !wpr.p50.is_nan() && !wpr.p99.is_nan());
        assert!(result.cells[0]
            .metrics
            .iter()
            .any(|(name, _)| *name == "queue_wait_s"));

        // Analytic engines have no replay to stream and are rejected.
        let analytic = SweepSpec::from_str(
            r#"
            [sweep]
            name = "m_analytic"
            engine = "ckpt-cost"
            metrics = "streaming"
        "#,
        )
        .unwrap();
        let err = run_sweep(&analytic, SweepOptions::default()).unwrap_err();
        assert!(err.0.contains("replay-engine"), "{err}");
    }

    #[test]
    fn cluster_cells_draw_kill_plans_from_the_shared_arena() {
        // Every cluster cell replays through the prep slot's plan arena:
        // one sampling pass per (trace, failure model), shared by every
        // policy cell. Observable as all-hit arena counters satisfying
        // `arena_hits + arena_misses == plan_lookups`.
        let sweep = SweepSpec::from_str(
            r#"
            [sweep]
            name = "cluster_arena"
            engine = "cluster"
            seed = 11
            jobs = 40

            [axes]
            policy = ["formula3", "young", "none"]
        "#,
        )
        .unwrap();
        let telemetry = Telemetry::new();
        let result =
            run_sweep_telemetry(&sweep, SweepOptions { threads: 2 }, Some(&telemetry)).unwrap();
        assert_eq!(result.cells.len(), 3);
        let snap = telemetry.counters.snapshot();
        snap.verify_invariants(true).unwrap();
        let lookups = snap.get(Counter::PlanLookups);
        assert!(lookups > 0, "cluster cells must register plan lookups");
        assert_eq!(snap.get(Counter::ArenaHits), lookups);
        assert_eq!(snap.get(Counter::ArenaMisses), 0);
    }

    use ckpt_obs::Observer;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ckpt_exec_{}_{name}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_full_resume_skips_everything() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let plain = run_sweep(&sweep, SweepOptions { threads: 2 }).unwrap();

        let dir = tmp_dir("fresh");
        let cfg = CheckpointConfig {
            dir: dir.clone(),
            resume: false,
            crash_after_cells: None,
        };
        let (fresh, report) =
            run_sweep_checkpointed(&sweep, SweepOptions { threads: 2 }, None, &cfg).unwrap();
        assert_eq!(fresh.cells, plain.cells);
        assert_eq!(report.loaded, 0);
        assert_eq!(report.evaluated, 4);

        // Resuming a completed store evaluates nothing and reproduces the
        // run bit-exactly, even at a different thread count.
        let telemetry = Telemetry::new();
        let resume = CheckpointConfig {
            resume: true,
            ..cfg
        };
        let (resumed, report) = run_sweep_checkpointed(
            &sweep,
            SweepOptions { threads: 1 },
            Some(&telemetry),
            &resume,
        )
        .unwrap();
        assert_eq!(resumed.cells, plain.cells);
        assert_eq!(report.loaded, 4);
        assert_eq!(report.evaluated, 0);
        let snap = telemetry.counters.snapshot();
        assert_eq!(snap.get(Counter::CellsSkipped), 4);
        assert_eq!(snap.get(Counter::CellsEvaluated), 0);
        assert_eq!(snap.get(Counter::CkptRecordsWritten), 0);
        snap.verify_sweep_invariants(4).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn partial_store_resumes_only_missing_cells_with_identical_results() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let plain = run_sweep(&sweep, SweepOptions { threads: 2 }).unwrap();

        // Hand-build a store holding only cells {0, 2}, as a killed run
        // would have left it.
        let dir = tmp_dir("partial");
        let cfg = CheckpointConfig {
            dir: dir.clone(),
            resume: true,
            crash_after_cells: None,
        };
        let cells = sweep.cells().unwrap();
        let header = StoreHeader {
            spec_digest: ckpt::sweep_digest(&sweep),
            seed: sweep.base.seed,
            scale: sweep.base.jobs as u64,
            grid_size: 4,
        };
        let path = cfg.store_path(&sweep.name);
        let mut store = SweepStore::create(&path, header).unwrap();
        for &i in &[0usize, 2] {
            store
                .append(&CellRecord {
                    index: i as u64,
                    key_digest: ckpt::cell_key_digest(&cells[i].run_key(), &plain.cells[i].params),
                    payload: ckpt::encode_cell(&plain.cells[i]),
                })
                .unwrap();
        }
        drop(store);

        let telemetry = Telemetry::new();
        let (resumed, report) =
            run_sweep_checkpointed(&sweep, SweepOptions { threads: 4 }, Some(&telemetry), &cfg)
                .unwrap();
        assert_eq!(resumed.cells, plain.cells);
        assert_eq!(report.loaded, 2);
        assert_eq!(report.evaluated, 2);
        let snap = telemetry.counters.snapshot();
        assert_eq!(snap.get(Counter::CellsSkipped), 2);
        assert_eq!(snap.get(Counter::CellsEvaluated), 2);
        assert_eq!(snap.get(Counter::CellsResumed), 2);
        assert_eq!(snap.get(Counter::CkptRecordsWritten), 2);
        snap.verify_sweep_invariants(4).unwrap();

        // The store is now complete: a further resume loads all four.
        let (_, report) =
            run_sweep_checkpointed(&sweep, SweepOptions::default(), None, &cfg).unwrap();
        assert_eq!(report.loaded, 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_against_changed_spec_is_rejected_by_name() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let dir = tmp_dir("mismatch");
        let cfg = CheckpointConfig {
            dir: dir.clone(),
            resume: false,
            crash_after_cells: None,
        };
        run_sweep_checkpointed(&sweep, SweepOptions::default(), None, &cfg).unwrap();

        // Same name, different seed ⇒ different spec digest: the resume
        // must refuse rather than merge incompatible cells.
        let mut other = sweep.clone();
        other.base.seed = 1234;
        let resume = CheckpointConfig {
            resume: true,
            ..cfg.clone()
        };
        let err =
            run_sweep_checkpointed(&other, SweepOptions::default(), None, &resume).unwrap_err();
        assert!(err.0.contains("spec digest"), "{err}");

        // Without --resume the same store is simply overwritten.
        let (result, report) =
            run_sweep_checkpointed(&other, SweepOptions::default(), None, &cfg).unwrap();
        assert_eq!(report.loaded, 0);
        assert_eq!(result.cells.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_without_a_store_starts_fresh() {
        let sweep = SweepSpec::from_str(SMALL).unwrap();
        let dir = tmp_dir("freshstart");
        let cfg = CheckpointConfig {
            dir: dir.clone(),
            resume: true,
            crash_after_cells: None,
        };
        let telemetry = Telemetry::new();
        let (result, report) =
            run_sweep_checkpointed(&sweep, SweepOptions::default(), Some(&telemetry), &cfg)
                .unwrap();
        assert!(report.fresh_start);
        assert_eq!(report.loaded, 0);
        assert_eq!(result.cells.len(), 4);
        // A fresh start is not a resume: nothing counts as resumed.
        let snap = telemetry.counters.snapshot();
        assert_eq!(snap.get(Counter::CellsResumed), 0);
        assert_eq!(snap.get(Counter::CkptRecordsWritten), 4);
        snap.verify_sweep_invariants(4).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn policy_ordering_matches_headline() {
        // Formula (3) should beat no-checkpointing on the failure-prone
        // sample at default cost — the sweep reproduces the paper's
        // qualitative result end-to-end.
        let sweep = SweepSpec::from_str(
            r#"
            [sweep]
            name = "ordering"
            engine = "fast"
            seed = 15
            jobs = 400

            [axes]
            policy = ["formula3", "none"]
        "#,
        )
        .unwrap();
        let result = run_sweep(&sweep, SweepOptions::default()).unwrap();
        let wpr = |i: usize| {
            result.cells[i]
                .metrics
                .iter()
                .find(|(n, _)| *n == "wpr")
                .unwrap()
                .1
                .mean
        };
        assert!(wpr(0) > wpr(1), "formula3 {} vs none {}", wpr(0), wpr(1));
    }
}
