//! # ckpt-obs — zero-overhead telemetry for the engines, sweeps, and
//! experiments
//!
//! Three small, hand-rolled (no external deps) layers:
//!
//! * [`Counters`] — named monotonic counters on a plain `u64` array. Each
//!   worker thread owns its own cell ([`Observer::incr`] is a plain add,
//!   no atomics in the hot loop) and flushes into a [`SharedCounters`]
//!   bank at its join point. Sum- and max-merged counters are commutative,
//!   so the merged totals are **invariant to thread count and scheduling**
//!   — a counter frame is deterministic output, safe to export next to
//!   golden-digested results.
//! * [`Timers`] — scoped wall-clock phase timing
//!   ([`Phase::Parse`]..[`Phase::Export`]). Wall-clock is inherently
//!   non-deterministic, so timers live in a **separate** export
//!   (`timings.json`) and must never feed a deterministic frame.
//! * [`Progress`] — a throttled (~2 Hz) heartbeat sink for stderr:
//!   events/s, cells done/total, ETA. Side-effect only; never touches
//!   results.
//!
//! ## The zero-cost contract
//!
//! Engines take a generic `Obs: Observer` parameter defaulting to
//! [`NoObs`], a zero-sized type whose methods are empty `#[inline]`
//! bodies — with telemetry off, instrumentation compiles to nothing and
//! outputs are byte-identical to an uninstrumented build. With telemetry
//! on, the observer is a per-worker [`Counters`] cell: incrementing is an
//! array add, allocation-free, and safe inside the hottest loops.
//!
//! ## Determinism rules
//!
//! 1. Counter totals must be a pure function of the simulation inputs —
//!    count simulation facts (events, kills, checkpoints), never
//!    scheduling facts (which worker, what order, how long).
//! 2. Merges must be commutative and associative (sums and maxes are),
//!    so flush order cannot leak into totals.
//! 3. Wall-clock ([`Timers`], [`Progress`]) stays out of every
//!    deterministic artifact.

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The counter catalog. Every counter is monotone within a run; the
/// display/merge order is this declaration order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// DES events popped off the future-event list (arrivals included).
    EventsPopped,
    /// DES events scheduled, *including* provably-stale kills that the
    /// engine skipped scheduling (see [`Counter::StaleSkips`]) — so that
    /// `popped == scheduled − stale_skips` holds on completed runs.
    EventsScheduled,
    /// Provably-stale failure events never enqueued (the kill falls
    /// beyond its phase's known end, so it could only arrive stale).
    StaleSkips,
    /// Task kills delivered (planned trace kills + host-failure victims).
    TaskKills,
    /// Whole-host failures injected.
    HostFailures,
    /// Checkpoints written durably.
    CheckpointsWritten,
    /// Checkpoints aborted by a failure mid-write.
    CheckpointsAborted,
    /// Task restarts (every kill leads to exactly one restart).
    Restarts,
    /// Adaptive re-plans (priority-flip re-solves on the fast path).
    Replans,
    /// Kill-plan lookups on the fast replay path (one per task).
    PlanLookups,
    /// Plan lookups served by a shared [`FailurePlanArena`] borrow.
    ///
    /// [`FailurePlanArena`]: https://docs.rs/ckpt-trace
    ArenaHits,
    /// Plan lookups that sampled fresh (no arena available).
    ArenaMisses,
    /// Tasks replayed on the fast path.
    TasksReplayed,
    /// Jobs replayed on the fast path.
    JobsReplayed,
    /// Sweep cells evaluated.
    CellsEvaluated,
    /// Sweep cells loaded from a checkpoint store instead of evaluated
    /// (a `--resume` run skipping already-persisted cells).
    CellsSkipped,
    /// Sweep cells evaluated *by a resume run* — the missing cells a
    /// `--resume` replayed after loading the rest from the store.
    CellsResumed,
    /// Cell records appended to a checkpoint store.
    CkptRecordsWritten,
    /// Result folds of sharded cluster runs: one per run with more than
    /// one shard, none for a one-shard run.
    ShardWindows,
    /// Per-shard merges performed by those folds (`shards − 1` per fold:
    /// shard 0 is the fold seed).
    ShardMerges,
    /// Peak length of the DES future-event heap (max-merged).
    HeapPeak,
    /// Sweep cells quarantined after exhausting the retry budget
    /// (exported with `Failed` status and NaN metrics).
    CellsFailed,
    /// Cell-evaluation retry attempts (a panic or error on a guarded
    /// attempt that had budget left).
    CellsRetried,
    /// Store/export I/O retry attempts (transient errors retried with
    /// backoff).
    IoRetries,
    /// Faults an injected [`FaultPlan`] actually fired
    /// (`--inject`; zero on clean runs).
    ///
    /// [`FaultPlan`]: https://docs.rs/ckpt-faults
    FaultsInjected,
}

/// Number of counters in the catalog.
pub const N_COUNTERS: usize = 25;

/// All counters, in catalog (display/merge) order.
pub const ALL_COUNTERS: [Counter; N_COUNTERS] = [
    Counter::EventsPopped,
    Counter::EventsScheduled,
    Counter::StaleSkips,
    Counter::TaskKills,
    Counter::HostFailures,
    Counter::CheckpointsWritten,
    Counter::CheckpointsAborted,
    Counter::Restarts,
    Counter::Replans,
    Counter::PlanLookups,
    Counter::ArenaHits,
    Counter::ArenaMisses,
    Counter::TasksReplayed,
    Counter::JobsReplayed,
    Counter::CellsEvaluated,
    Counter::CellsSkipped,
    Counter::CellsResumed,
    Counter::CkptRecordsWritten,
    Counter::ShardWindows,
    Counter::ShardMerges,
    Counter::HeapPeak,
    Counter::CellsFailed,
    Counter::CellsRetried,
    Counter::IoRetries,
    Counter::FaultsInjected,
];

impl Counter {
    /// Stable snake_case name (frame rows, docs).
    pub fn name(self) -> &'static str {
        match self {
            Counter::EventsPopped => "events_popped",
            Counter::EventsScheduled => "events_scheduled",
            Counter::StaleSkips => "stale_skips",
            Counter::TaskKills => "task_kills",
            Counter::HostFailures => "host_failures",
            Counter::CheckpointsWritten => "checkpoints_written",
            Counter::CheckpointsAborted => "checkpoints_aborted",
            Counter::Restarts => "restarts",
            Counter::Replans => "replans",
            Counter::PlanLookups => "plan_lookups",
            Counter::ArenaHits => "arena_hits",
            Counter::ArenaMisses => "arena_misses",
            Counter::TasksReplayed => "tasks_replayed",
            Counter::JobsReplayed => "jobs_replayed",
            Counter::CellsEvaluated => "cells_evaluated",
            Counter::CellsSkipped => "cells_skipped",
            Counter::CellsResumed => "cells_resumed",
            Counter::CkptRecordsWritten => "ckpt_records_written",
            Counter::ShardWindows => "shard_windows",
            Counter::ShardMerges => "shard_merges",
            Counter::HeapPeak => "heap_peak",
            Counter::CellsFailed => "cells_failed",
            Counter::CellsRetried => "cells_retried",
            Counter::IoRetries => "io_retries",
            Counter::FaultsInjected => "faults_injected",
        }
    }

    /// Whether merging takes the max (high-water marks) instead of the
    /// sum.
    pub fn is_peak(self) -> bool {
        matches!(self, Counter::HeapPeak)
    }
}

/// The instrumentation hook engines are generic over. Implemented by
/// [`NoObs`] (every method an empty inline body — the disabled build) and
/// [`Counters`] (plain array adds — the enabled build).
pub trait Observer: Default + Send {
    /// `false` only for [`NoObs`]; lets call sites skip work that only
    /// feeds telemetry (e.g. reading a queue length for a peak).
    const ENABLED: bool;

    /// Add `n` to a counter.
    fn incr(&mut self, c: Counter, n: u64);

    /// Add 1 to a counter.
    #[inline(always)]
    fn tick(&mut self, c: Counter) {
        self.incr(c, 1);
    }

    /// Raise a high-water-mark counter to at least `v`.
    fn record_peak(&mut self, c: Counter, v: u64);

    /// Current value of a counter (0 for [`NoObs`]).
    fn get(&self, c: Counter) -> u64;

    /// Fold another cell of the same observer type in (sum / max per
    /// counter kind). The sharded cluster runner folds its per-shard
    /// cells through this once, in shard order; a no-op for [`NoObs`].
    fn merge_from(&mut self, other: &Self);
}

/// The disabled observer: zero-sized, every method compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoObs;

impl Observer for NoObs {
    const ENABLED: bool = false;

    #[inline(always)]
    fn incr(&mut self, _c: Counter, _n: u64) {}

    #[inline(always)]
    fn record_peak(&mut self, _c: Counter, _v: u64) {}

    #[inline(always)]
    fn get(&self, _c: Counter) -> u64 {
        0
    }

    #[inline(always)]
    fn merge_from(&mut self, _other: &Self) {}
}

/// A per-worker counter cell: a plain `u64` array, allocation-free and
/// atomics-free. Merge cells with [`Counters::merge`] (or flush into a
/// [`SharedCounters`]) at join points.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counters {
    vals: [u64; N_COUNTERS],
}

impl Default for Counters {
    fn default() -> Self {
        Counters {
            vals: [0; N_COUNTERS],
        }
    }
}

impl Observer for Counters {
    const ENABLED: bool = true;

    #[inline(always)]
    fn incr(&mut self, c: Counter, n: u64) {
        self.vals[c as usize] += n;
    }

    #[inline(always)]
    fn record_peak(&mut self, c: Counter, v: u64) {
        let slot = &mut self.vals[c as usize];
        if v > *slot {
            *slot = v;
        }
    }

    #[inline(always)]
    fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize]
    }

    #[inline(always)]
    fn merge_from(&mut self, other: &Self) {
        self.merge(other);
    }
}

impl Counters {
    /// A zeroed cell.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merge another cell in: sums for flow counters, max for peaks.
    /// Commutative and associative, so merge order never shows in totals.
    pub fn merge(&mut self, other: &Counters) {
        for c in ALL_COUNTERS {
            let i = c as usize;
            if c.is_peak() {
                self.vals[i] = self.vals[i].max(other.vals[i]);
            } else {
                self.vals[i] += other.vals[i];
            }
        }
    }

    /// `(counter, value)` pairs in catalog order.
    pub fn entries(&self) -> impl Iterator<Item = (Counter, u64)> + '_ {
        ALL_COUNTERS.iter().map(|&c| (c, self.vals[c as usize]))
    }

    /// Check the counter-level accounting identities:
    ///
    /// * `events_popped == events_scheduled − stale_skips` (holds exactly
    ///   on *completed* DES runs — a budget-interrupted run leaves
    ///   scheduled events unpopped);
    /// * `arena_hits + arena_misses == plan_lookups`.
    ///
    /// `des_completed` gates the first identity. Returns a message naming
    /// the violated identity.
    pub fn verify_invariants(&self, des_completed: bool) -> Result<(), String> {
        let g = |c: Counter| self.vals[c as usize];
        if des_completed {
            let (popped, scheduled, stale) = (
                g(Counter::EventsPopped),
                g(Counter::EventsScheduled),
                g(Counter::StaleSkips),
            );
            if popped != scheduled - stale {
                return Err(format!(
                    "events_popped ({popped}) != events_scheduled ({scheduled}) - \
                     stale_skips ({stale})"
                ));
            }
        }
        let (hits, misses, lookups) = (
            g(Counter::ArenaHits),
            g(Counter::ArenaMisses),
            g(Counter::PlanLookups),
        );
        if hits + misses != lookups {
            return Err(format!(
                "arena_hits ({hits}) + arena_misses ({misses}) != plan_lookups ({lookups})"
            ));
        }
        Ok(())
    }

    /// Check the sharded-run accounting identities against a known shard
    /// count and total cluster event count (for runs that executed
    /// exactly one sharded cluster simulation):
    ///
    /// * `shard_merges == shard_windows × (shards − 1)` — every fold
    ///   merges every non-seed shard exactly once;
    /// * `events_popped == cluster_events` — the per-shard
    ///   `events_popped` cells sum (commutatively) to the cluster total;
    /// * an unsharded run (`shards <= 1`) records no folds or merges.
    ///
    /// Returns a message naming the violated identity.
    pub fn verify_shard_invariants(&self, shards: u64, cluster_events: u64) -> Result<(), String> {
        let g = |c: Counter| self.vals[c as usize];
        let (windows, merges, popped) = (
            g(Counter::ShardWindows),
            g(Counter::ShardMerges),
            g(Counter::EventsPopped),
        );
        if shards <= 1 {
            if windows != 0 || merges != 0 {
                return Err(format!(
                    "unsharded run recorded shard_windows ({windows}) / \
                     shard_merges ({merges})"
                ));
            }
            return Ok(());
        }
        if merges != windows * (shards - 1) {
            return Err(format!(
                "shard_merges ({merges}) != shard_windows ({windows}) * \
                 (shards - 1) ({})",
                shards - 1
            ));
        }
        if popped != cluster_events {
            return Err(format!(
                "events_popped ({popped}) != cluster event total ({cluster_events})"
            ));
        }
        Ok(())
    }

    /// Check the sweep accounting identities against a known grid size
    /// (for runs that executed exactly one sweep):
    ///
    /// * `cells_skipped + cells_evaluated + cells_failed == grid_size` —
    ///   every cell was loaded from the checkpoint store, evaluated, or
    ///   quarantined (ok + quarantined + skipped covers the grid);
    /// * `cells_resumed <= cells_evaluated + cells_failed` — resumed
    ///   cells are a subset of the cells this run actually attempted;
    /// * `ckpt_records_written` is `0` (no store attached) or equals
    ///   `cells_evaluated` (every *successful* evaluation was persisted;
    ///   quarantined cells are never written, so `--resume` retries
    ///   them).
    ///
    /// Returns a message naming the violated identity.
    pub fn verify_sweep_invariants(&self, grid_size: u64) -> Result<(), String> {
        let g = |c: Counter| self.vals[c as usize];
        let (skipped, evaluated, failed, resumed, written) = (
            g(Counter::CellsSkipped),
            g(Counter::CellsEvaluated),
            g(Counter::CellsFailed),
            g(Counter::CellsResumed),
            g(Counter::CkptRecordsWritten),
        );
        if skipped + evaluated + failed != grid_size {
            return Err(format!(
                "cells_skipped ({skipped}) + cells_evaluated ({evaluated}) + \
                 cells_failed ({failed}) != grid size ({grid_size})"
            ));
        }
        if resumed > evaluated + failed {
            return Err(format!(
                "cells_resumed ({resumed}) > cells_evaluated ({evaluated}) + \
                 cells_failed ({failed})"
            ));
        }
        if written != 0 && written != evaluated {
            return Err(format!(
                "ckpt_records_written ({written}) is neither 0 nor \
                 cells_evaluated ({evaluated})"
            ));
        }
        Ok(())
    }
}

/// A cross-thread counter bank: workers absorb their local [`Counters`]
/// cells here at join points. Relaxed atomics suffice — sums and maxes
/// are commutative, and readers snapshot after the joins that published
/// the writes.
#[derive(Debug, Default)]
pub struct SharedCounters {
    cells: [AtomicU64; N_COUNTERS],
}

impl SharedCounters {
    /// A zeroed bank.
    pub fn new() -> Self {
        Self::default()
    }

    /// Fold one worker-local cell in (sum / max per counter kind).
    pub fn absorb(&self, local: &Counters) {
        for (c, v) in local.entries() {
            if v == 0 {
                continue;
            }
            let cell = &self.cells[c as usize];
            if c.is_peak() {
                cell.fetch_max(v, Ordering::Relaxed);
            } else {
                cell.fetch_add(v, Ordering::Relaxed);
            }
        }
    }

    /// Add directly to one counter (coordinator-side bookkeeping such as
    /// cells-evaluated; not for hot loops).
    pub fn add(&self, c: Counter, n: u64) {
        if c.is_peak() {
            self.cells[c as usize].fetch_max(n, Ordering::Relaxed);
        } else {
            self.cells[c as usize].fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Copy the current totals out.
    pub fn snapshot(&self) -> Counters {
        let mut out = Counters::default();
        for c in ALL_COUNTERS {
            out.vals[c as usize] = self.cells[c as usize].load(Ordering::Relaxed);
        }
        out
    }
}

/// The instrumented phases of a sweep / experiment run, coarsest useful
/// breakdown: where does the wall-clock go?
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Phase {
    /// Reading and parsing specs / flags.
    Parse,
    /// Expanding the sweep grid into scenario cells.
    Plan,
    /// Trace generation, kill-plan sampling, estimator fitting.
    Sample,
    /// Engine execution (DES runs, fast replays).
    Simulate,
    /// Metric aggregation and filtering.
    Aggregate,
    /// Rendering and writing output files.
    Export,
}

/// Number of phases.
pub const N_PHASES: usize = 6;

/// All phases, in pipeline order.
pub const ALL_PHASES: [Phase; N_PHASES] = [
    Phase::Parse,
    Phase::Plan,
    Phase::Sample,
    Phase::Simulate,
    Phase::Aggregate,
    Phase::Export,
];

impl Phase {
    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Parse => "parse",
            Phase::Plan => "plan",
            Phase::Sample => "sample",
            Phase::Simulate => "simulate",
            Phase::Aggregate => "aggregate",
            Phase::Export => "export",
        }
    }
}

/// Cumulative per-phase wall-clock, nanosecond-resolution. Phases may
/// overlap (parallel workers can be in [`Phase::Simulate`] concurrently),
/// so totals are *cpu-phase* time, and can exceed wall time. Strictly
/// non-deterministic: export only to the timings side-channel, never into
/// a deterministic frame.
#[derive(Debug, Default)]
pub struct Timers {
    nanos: [AtomicU64; N_PHASES],
}

impl Timers {
    /// Zeroed timers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Time a closure under a phase.
    pub fn time<T>(&self, phase: Phase, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.add_nanos(phase, start.elapsed().as_nanos() as u64);
        out
    }

    /// Record raw nanoseconds against a phase.
    pub fn add_nanos(&self, phase: Phase, nanos: u64) {
        self.nanos[phase as usize].fetch_add(nanos, Ordering::Relaxed);
    }

    /// `(phase, cumulative nanoseconds)` in pipeline order.
    pub fn snapshot(&self) -> [(Phase, u64); N_PHASES] {
        let mut out = [(Phase::Parse, 0u64); N_PHASES];
        for (i, p) in ALL_PHASES.into_iter().enumerate() {
            out[i] = (p, self.nanos[p as usize].load(Ordering::Relaxed));
        }
        out
    }
}

/// Heartbeat interval: ~2 Hz, the throttle that keeps `--progress` cheap
/// on million-event runs.
const HEARTBEAT_NANOS: u64 = 500_000_000;

/// A throttled progress heartbeat sink writing plain lines to stderr.
///
/// All state is atomic so any worker can report; a compare-and-swap on
/// the last-emit time enforces the ~2 Hz throttle without locks, and
/// losing the race costs a few atomic loads. Heartbeats are a pure
/// side-channel — they never feed results.
#[derive(Debug)]
pub struct Progress {
    start: Instant,
    /// Nanos-since-start of the last emitted heartbeat.
    last_emit: AtomicU64,
    events: AtomicU64,
    cells_done: AtomicU64,
    cells_total: AtomicU64,
}

impl Default for Progress {
    fn default() -> Self {
        Self::new()
    }
}

impl Progress {
    /// A heartbeat clock starting now.
    pub fn new() -> Self {
        Progress {
            start: Instant::now(),
            last_emit: AtomicU64::new(0),
            events: AtomicU64::new(0),
            cells_done: AtomicU64::new(0),
            cells_total: AtomicU64::new(0),
        }
    }

    /// Set the denominator for `cells done/total`.
    pub fn set_cells_total(&self, n: u64) {
        self.cells_total.store(n, Ordering::Relaxed);
    }

    /// Fold in newly processed events (partial counts welcome).
    pub fn add_events(&self, n: u64) {
        self.events.fetch_add(n, Ordering::Relaxed);
    }

    /// Mark one sweep cell complete.
    pub fn cell_done(&self) {
        self.cells_done.fetch_add(1, Ordering::Relaxed);
        self.beat();
    }

    /// Emit a heartbeat line to stderr if the throttle window has passed.
    /// Call freely from hot-ish paths; the common case is three relaxed
    /// loads and a compare.
    pub fn beat(&self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        let last = self.last_emit.load(Ordering::Relaxed);
        if elapsed.saturating_sub(last) < HEARTBEAT_NANOS {
            return;
        }
        // One winner per window; losers skip the write entirely.
        if self
            .last_emit
            .compare_exchange(last, elapsed, Ordering::Relaxed, Ordering::Relaxed)
            .is_err()
        {
            return;
        }
        self.emit(elapsed);
    }

    /// Emit a final summary line regardless of the throttle.
    pub fn finish(&self) {
        let elapsed = self.start.elapsed().as_nanos() as u64;
        self.emit(elapsed);
    }

    fn emit(&self, elapsed_nanos: u64) {
        let secs = (elapsed_nanos as f64 / 1e9).max(1e-9);
        let events = self.events.load(Ordering::Relaxed);
        let done = self.cells_done.load(Ordering::Relaxed);
        let total = self.cells_total.load(Ordering::Relaxed);
        let mut line = format!("progress: {:.1}s", secs);
        if total > 0 {
            line.push_str(&format!(" | cells {done}/{total}"));
            if done > 0 && done < total {
                let eta = secs / done as f64 * (total - done) as f64;
                line.push_str(&format!(" | eta {eta:.0}s"));
            }
        }
        if events > 0 {
            line.push_str(&format!(
                " | {events} events ({:.2}M ev/s)",
                events as f64 / secs / 1e6
            ));
        }
        eprintln!("{line}");
    }
}

/// The bundle a run threads through engines and executors: a shared
/// counter bank (deterministic), phase timers (wall-clock side-channel),
/// and an optional heartbeat sink (`--progress`).
#[derive(Debug, Default)]
pub struct Telemetry {
    /// Deterministic counter totals, absorbed from per-worker cells.
    pub counters: SharedCounters,
    /// Wall-clock phase breakdown (non-deterministic side-channel).
    pub timers: Timers,
    /// Heartbeat sink; `None` unless `--progress` asked for one.
    pub progress: Option<Progress>,
}

impl Telemetry {
    /// Telemetry with counters and timers only (no heartbeats).
    pub fn new() -> Self {
        Self::default()
    }

    /// Telemetry with a stderr heartbeat sink attached.
    pub fn with_progress(mut self) -> Self {
        self.progress = Some(Progress::new());
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    // The whole point of this test is pinning the compile-time constants.
    #[allow(clippy::assertions_on_constants)]
    fn noobs_is_zero_sized_and_inert() {
        assert_eq!(std::mem::size_of::<NoObs>(), 0);
        let mut o = NoObs;
        o.incr(Counter::EventsPopped, 5);
        o.tick(Counter::TaskKills);
        o.record_peak(Counter::HeapPeak, 99);
        assert_eq!(o.get(Counter::EventsPopped), 0);
        assert!(!NoObs::ENABLED);
        assert!(Counters::ENABLED);
    }

    #[test]
    fn counter_catalog_is_consistent() {
        assert_eq!(ALL_COUNTERS.len(), N_COUNTERS);
        let mut names: Vec<&str> = ALL_COUNTERS.iter().map(|c| c.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), N_COUNTERS, "duplicate counter names");
        for (i, c) in ALL_COUNTERS.iter().enumerate() {
            assert_eq!(*c as usize, i, "{} out of order", c.name());
        }
    }

    #[test]
    fn counters_sum_and_peak_merge() {
        let mut a = Counters::new();
        a.incr(Counter::TaskKills, 3);
        a.record_peak(Counter::HeapPeak, 10);
        let mut b = Counters::new();
        b.incr(Counter::TaskKills, 4);
        b.record_peak(Counter::HeapPeak, 7);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, ba, "merge must be commutative");
        assert_eq!(ab.get(Counter::TaskKills), 7);
        assert_eq!(ab.get(Counter::HeapPeak), 10);
    }

    #[test]
    fn record_peak_keeps_high_water_mark() {
        let mut c = Counters::new();
        c.record_peak(Counter::HeapPeak, 5);
        c.record_peak(Counter::HeapPeak, 3);
        assert_eq!(c.get(Counter::HeapPeak), 5);
        c.record_peak(Counter::HeapPeak, 8);
        assert_eq!(c.get(Counter::HeapPeak), 8);
    }

    #[test]
    fn shared_counters_absorb_matches_local_merge() {
        let shared = SharedCounters::new();
        let mut locals = Vec::new();
        for i in 0..4u64 {
            let mut c = Counters::new();
            c.incr(Counter::EventsPopped, 10 + i);
            c.record_peak(Counter::HeapPeak, 100 * (i + 1));
            locals.push(c);
        }
        for l in &locals {
            shared.absorb(l);
        }
        let mut merged = Counters::new();
        for l in &locals {
            merged.merge(l);
        }
        assert_eq!(shared.snapshot(), merged);
    }

    #[test]
    fn invariants_detect_violations() {
        let mut ok = Counters::new();
        ok.incr(Counter::EventsScheduled, 10);
        ok.incr(Counter::StaleSkips, 2);
        ok.incr(Counter::EventsPopped, 8);
        ok.incr(Counter::PlanLookups, 5);
        ok.incr(Counter::ArenaHits, 5);
        assert!(ok.verify_invariants(true).is_ok());

        let mut bad = ok;
        bad.incr(Counter::EventsPopped, 1);
        let err = bad.verify_invariants(true).unwrap_err();
        assert!(err.contains("events_popped"), "{err}");
        // Incomplete runs skip the DES identity but keep the arena one.
        assert!(bad.verify_invariants(false).is_ok());

        let mut bad2 = ok;
        bad2.incr(Counter::ArenaMisses, 1);
        let err = bad2.verify_invariants(false).unwrap_err();
        assert!(err.contains("arena_hits"), "{err}");
    }

    #[test]
    fn sweep_invariants_detect_violations() {
        // An uncheckpointed run: everything evaluated, nothing written.
        let mut plain = Counters::new();
        plain.incr(Counter::CellsEvaluated, 24);
        assert!(plain.verify_sweep_invariants(24).is_ok());

        // A resume run: 10 loaded, 14 replayed, all 14 persisted.
        let mut resumed = Counters::new();
        resumed.incr(Counter::CellsSkipped, 10);
        resumed.incr(Counter::CellsEvaluated, 14);
        resumed.incr(Counter::CellsResumed, 14);
        resumed.incr(Counter::CkptRecordsWritten, 14);
        assert!(resumed.verify_sweep_invariants(24).is_ok());

        // A degraded run: 23 ok + 1 quarantined still covers the grid,
        // and only the ok cells were persisted.
        let mut degraded = Counters::new();
        degraded.incr(Counter::CellsEvaluated, 23);
        degraded.incr(Counter::CellsFailed, 1);
        degraded.incr(Counter::CellsRetried, 3);
        degraded.incr(Counter::CkptRecordsWritten, 23);
        assert!(degraded.verify_sweep_invariants(24).is_ok());

        let err = plain.verify_sweep_invariants(25).unwrap_err();
        assert!(err.contains("cells_skipped"), "{err}");

        let mut bad = resumed;
        bad.incr(Counter::CellsResumed, 1);
        let err = bad.verify_sweep_invariants(24).unwrap_err();
        assert!(err.contains("cells_resumed"), "{err}");

        let mut partial = plain;
        partial.incr(Counter::CkptRecordsWritten, 23);
        let err = partial.verify_sweep_invariants(24).unwrap_err();
        assert!(err.contains("ckpt_records_written"), "{err}");
    }

    #[test]
    fn shard_invariants_detect_violations() {
        // Three 4-shard runs, one fold each: 3 × (4 − 1) = 9 merges.
        let mut ok = Counters::new();
        ok.incr(Counter::ShardWindows, 3);
        ok.incr(Counter::ShardMerges, 9);
        ok.incr(Counter::EventsPopped, 1000);
        assert!(ok.verify_shard_invariants(4, 1000).is_ok());

        let err = ok.verify_shard_invariants(4, 999).unwrap_err();
        assert!(err.contains("events_popped"), "{err}");

        let mut bad = ok;
        bad.incr(Counter::ShardMerges, 1);
        let err = bad.verify_shard_invariants(4, 1000).unwrap_err();
        assert!(err.contains("shard_merges"), "{err}");

        // Unsharded runs must record no folds at all.
        let plain = Counters::new();
        assert!(plain.verify_shard_invariants(1, 42).is_ok());
        let err = ok.verify_shard_invariants(1, 1000).unwrap_err();
        assert!(err.contains("unsharded"), "{err}");
    }

    #[test]
    fn timers_accumulate_into_phases() {
        let t = Timers::new();
        let v = t.time(Phase::Simulate, || 42);
        assert_eq!(v, 42);
        t.add_nanos(Phase::Simulate, 1_000);
        t.add_nanos(Phase::Export, 5);
        let snap = t.snapshot();
        let get = |p: Phase| snap.iter().find(|(q, _)| *q == p).unwrap().1;
        assert!(get(Phase::Simulate) >= 1_000);
        assert_eq!(get(Phase::Export), 5);
        assert_eq!(get(Phase::Parse), 0);
    }

    #[test]
    fn progress_throttles_but_finishes() {
        // Can't assert on stderr here; check the counters and that the
        // throttle state machine doesn't wedge.
        let p = Progress::new();
        p.set_cells_total(10);
        p.add_events(1_000);
        for _ in 0..5 {
            p.cell_done();
        }
        assert_eq!(p.cells_done.load(Ordering::Relaxed), 5);
        p.finish();
    }

    #[test]
    fn telemetry_bundle_defaults_off() {
        let t = Telemetry::new();
        assert!(t.progress.is_none());
        let t = Telemetry::new().with_progress();
        assert!(t.progress.is_some());
    }
}
