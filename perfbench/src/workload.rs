//! The four workloads: the spec each one generates from the seed, its
//! set-up (what the sweep needs before its first cell), and one timed
//! repetition of the user-visible pipeline (sweep, export, resume from a
//! complete checkpoint store, export again).

use crate::check::{Checks, WorkCounts};
use ckpt_obs::{Counter, Counters, Observer, Telemetry};
use ckpt_scenario::{
    csv_string, json_string, run_sweep, run_sweep_checkpointed, run_sweep_guarded,
    CheckpointConfig, FaultPolicy, ResumeReport, ScenarioSpec, SweepOptions, SweepResult,
    SweepSpec,
};
use ckpt_sim::policy::Estimates;
use ckpt_store::{fnv1a, StoreHeader, SweepStore};
use ckpt_trace::gen::{generate, Trace};
use ckpt_trace::plan::FailurePlanArena;
use ckpt_trace::stats::trace_histories_from_plans;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Jobs in the `policy_grid` trace (24 replays of it per sweep).
pub const POLICY_GRID_JOBS: usize = 20_000;
/// Jobs in both stress-fleet traces.
pub const STRESS_JOBS: usize = 30_000;
/// Fixed shard count of `stress_fleet_sharded`.
pub const SHARDS: usize = 4;
/// Memory sizes on the `cost_grid_resume` grid (drawn from the seed).
pub const COST_MEM_SIZES: usize = 100;
/// Checkpoint counts on the `cost_grid_resume` grid (1..=this).
pub const COST_CHECKPOINT_COUNTS: usize = 100;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    PolicyGrid,
    StressFleet,
    StressFleetSharded,
    CostGridResume,
}

pub const ALL: [Kind; 4] = [
    Kind::PolicyGrid,
    Kind::StressFleet,
    Kind::StressFleetSharded,
    Kind::CostGridResume,
];

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::PolicyGrid => "policy_grid",
            Kind::StressFleet => "stress_fleet",
            Kind::StressFleetSharded => "stress_fleet_sharded",
            Kind::CostGridResume => "cost_grid_resume",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        ALL.into_iter().find(|k| k.name() == s)
    }

    /// Trace workloads replay a generated trace; the cost grid is analytic.
    pub fn has_trace(self) -> bool {
        self != Kind::CostGridResume
    }

    pub fn is_cluster(self) -> bool {
        matches!(self, Kind::StressFleet | Kind::StressFleetSharded)
    }

    pub fn shards(self) -> usize {
        if self == Kind::StressFleetSharded {
            SHARDS
        } else {
            1
        }
    }

    /// Input sizes, for the fingerprint.
    pub fn sizes(self) -> Vec<(&'static str, u64)> {
        match self {
            Kind::PolicyGrid => vec![("jobs", POLICY_GRID_JOBS as u64), ("cells", 24)],
            Kind::StressFleet => vec![("jobs", STRESS_JOBS as u64), ("cells", 2)],
            Kind::StressFleetSharded => vec![
                ("jobs", STRESS_JOBS as u64),
                ("cells", 1),
                ("shards", SHARDS as u64),
            ],
            Kind::CostGridResume => vec![(
                "cells",
                (3 * COST_MEM_SIZES * COST_CHECKPOINT_COUNTS) as u64,
            )],
        }
    }

    /// The sweep spec this workload runs. The seed reaches the program only
    /// through this text (clipped to 53 bits: spec numbers are doubles).
    pub fn spec_text(self, seed: u64) -> String {
        let seed = seed & ((1u64 << 53) - 1);
        let stress = |name: &str, policies: &str, shards: usize| {
            format!(
                "[sweep]\nname = \"{name}\"\nengine = \"cluster\"\nseed = {seed}\n\
                 jobs = {STRESS_JOBS}\nsample = \"all\"\n\n\
                 [workload]\nlong_task_fraction = 0.0\nmean_interarrival_s = 2.0\n\n\
                 [cluster]\nn_hosts = 128\nvms_per_host = 8\nhost_mem_mb = 8192\n\
                 host_mtbf_s = 7200\nshards = {shards}\n\n\
                 [axes]\npolicy = [{policies}]\n"
            )
        };
        match self {
            Kind::PolicyGrid => format!(
                "[sweep]\nname = \"perf_policy_grid\"\nengine = \"fast\"\nseed = {seed}\n\
                 jobs = {POLICY_GRID_JOBS}\n\n\
                 [scenario]\nsample = \"failure-prone\"\n\n\
                 [axes]\npolicy = [\"formula3\", \"young\", \"daly\", \"none\"]\n\
                 ckpt_cost_scale = {{ from = 0.25, to = 8.0, steps = 6, log = true }}\n"
            ),
            Kind::StressFleet => stress("perf_stress_fleet", "\"formula3\", \"none\"", 1),
            Kind::StressFleetSharded => stress("perf_stress_fleet_sharded", "\"formula3\"", SHARDS),
            Kind::CostGridResume => {
                // Distinct, sorted memory sizes: one draw inside each 20 MB
                // band from 10 MB up.
                let mut state = seed;
                let mems: Vec<String> = (0..COST_MEM_SIZES)
                    .map(|i| (10 + 20 * i as u64 + splitmix64(&mut state) % 20).to_string())
                    .collect();
                format!(
                    "[sweep]\nname = \"perf_cost_grid\"\nengine = \"ckpt-cost\"\nseed = {seed}\n\n\
                     [axes]\ndevice = [\"ramdisk\", \"nfs\", \"dmnfs\"]\nmem_mb = [{}]\n\
                     n_checkpoints = {{ from = 1, to = {COST_CHECKPOINT_COUNTS}, steps = {COST_CHECKPOINT_COUNTS} }}\n",
                    mems.join(", ")
                )
            }
        }
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The trace preparation the sweep performs before its first replay:
/// generated trace, shared kill-plan arena, failure histories, estimates.
pub struct Prep {
    pub trace: Trace,
    pub plans: FailurePlanArena,
    pub estimates: Estimates,
}

/// Everything set-up produces.
pub struct Setup {
    pub sweep: SweepSpec,
    pub cells: Vec<ScenarioSpec>,
    pub prep: Option<Prep>,
}

/// The store set-up creates. Callers remove it between set-ups: replacing
/// a file by truncation makes ext4 flush it on close (`auto_da_alloc`),
/// and that flush took 30 ms on a busy shared disk where a new file took
/// 10 us.
pub const SETUP_STORE: &str = "setup.sweepckpt";

/// How a workload's calls are observed: the timed runs call straight
/// through ([`Untraced`]); the traced run wraps each call in a span.
pub trait Steps {
    fn step<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T;
}

pub struct Untraced;

impl Steps for Untraced {
    fn step<T>(&self, _name: &'static str, f: impl FnOnce() -> T) -> T {
        f()
    }
}

/// One set-up: spec parse, grid expansion, and either trace preparation
/// (trace workloads) or store creation (the cost grid).
pub fn setup(kind: Kind, seed: u64, work_dir: &Path, s: &impl Steps) -> Result<Setup, String> {
    let text = kind.spec_text(seed);
    let sweep = s
        .step("sweep.parse", || SweepSpec::from_str(&text))
        .map_err(|e| e.to_string())?;
    let cells = s
        .step("sweep.expand", || sweep.cells())
        .map_err(|e| e.to_string())?;
    let prep = if kind.has_trace() {
        let spec = &cells[0];
        let workload = spec.workload_spec()?;
        let trace = s
            .step("trace.generate", || generate(&workload, spec.seed))
            .map_err(|e| e.to_string())?;
        let plans = s.step("trace.arena_build", || FailurePlanArena::build(&trace));
        let records = s.step("trace.histories", || {
            trace_histories_from_plans(&trace, &plans)
        });
        let estimates = s.step("policy.estimates", || Estimates::from_records(&records));
        Some(Prep {
            trace,
            plans,
            estimates,
        })
    } else {
        let header = StoreHeader {
            spec_digest: ckpt_scenario::ckpt::sweep_digest(&sweep),
            seed: sweep.base.seed,
            scale: sweep.base.jobs as u64,
            grid_size: cells.len() as u64,
        };
        let path = work_dir.join(SETUP_STORE);
        s.step("store.create", || SweepStore::create(&path, header))
            .map_err(|e| e.to_string())?;
        None
    };
    Ok(Setup { sweep, cells, prep })
}

fn options(threads: usize) -> SweepOptions {
    SweepOptions { threads }
}

fn ckpt_config(dir: &Path, resume: bool) -> CheckpointConfig {
    CheckpointConfig {
        dir: dir.to_path_buf(),
        resume,
        crash_after_cells: None,
    }
}

/// The bytes a user gets out of a sweep: CSV then JSON.
#[derive(Clone)]
pub struct Export {
    pub csv: String,
    pub json: String,
}

impl Export {
    pub fn of(sweep: &SweepSpec, result: &SweepResult) -> Export {
        Export {
            csv: csv_string(sweep, result),
            json: json_string(sweep, result),
        }
    }

    pub fn bytes(&self) -> usize {
        self.csv.len() + self.json.len()
    }

    pub fn digest(&self) -> u64 {
        fnv1a(self.csv.as_bytes()) ^ fnv1a(self.json.as_bytes()).rotate_left(1)
    }
}

/// Timings and outputs of one repetition.
#[derive(Clone)]
pub struct Rep {
    pub wall_s: f64,
    pub sweep_s: f64,
    pub result: SweepResult,
    pub export: Export,
    pub resumed: Export,
    pub loaded: usize,
    pub evaluated_on_resume: usize,
}

/// A sweep with a checkpoint store in `dir`: fresh (`resume = false`) or
/// resumed from the store already there.
pub fn run_persisted(
    setup: &Setup,
    threads: usize,
    dir: &Path,
    resume: bool,
) -> Result<(SweepResult, ResumeReport), String> {
    run_sweep_checkpointed(
        &setup.sweep,
        options(threads),
        None,
        &ckpt_config(dir, resume),
    )
    .map_err(|e| e.to_string())
}

/// The call sequence of one repetition: sweep, CSV/JSON export, resume
/// from the complete store in `dir`, export again.
///
/// The store is written once per run, by the counters pass, not by every
/// repetition: a persisted sweep ends with a flush of the whole store to
/// disk (`sync_data`), and on a shared disk that flush alone varied from
/// 1 to 150 ms for the cost grid's 6.6 MB, more than the sweep's own work.
/// The traced run times the persisted sweep (`exec.persist_s`).
pub fn rep(setup: &Setup, threads: usize, dir: &Path, s: &impl Steps) -> Result<Rep, String> {
    let export = |result: &SweepResult| Export {
        csv: s.step("export.csv", || csv_string(&setup.sweep, result)),
        json: s.step("export.json", || json_string(&setup.sweep, result)),
    };
    let t0 = Instant::now();
    let result = s
        .step("exec.sweep", || run_sweep(&setup.sweep, options(threads)))
        .map_err(|e| e.to_string())?;
    let sweep_s = t0.elapsed().as_secs_f64();
    let export_first = export(&result);
    let (resumed_result, report) =
        s.step("exec.resume", || run_persisted(setup, threads, dir, true))?;
    let resumed = export(&resumed_result);
    Ok(Rep {
        wall_s: t0.elapsed().as_secs_f64(),
        sweep_s,
        result,
        export: export_first,
        resumed,
        loaded: report.loaded,
        evaluated_on_resume: report.evaluated,
    })
}

/// Resumes are repeated until this much time has gone into them, so the
/// restore rate of a small grid is timed over more than one store open.
const RESUME_MIN_SECS: f64 = 0.05;

/// Seconds of each resume from the complete store in `dir`.
pub fn timed_resumes(setup: &Setup, threads: usize, dir: &Path) -> Result<Vec<f64>, String> {
    let start = Instant::now();
    let mut times = Vec::new();
    while times.is_empty() || start.elapsed().as_secs_f64() < RESUME_MIN_SECS {
        let t = Instant::now();
        run_persisted(setup, threads, dir, true)?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(times)
}

/// The untimed pass with the `Counters` observer: exact work counts of one
/// persisted sweep, checked against the counter identities. It leaves the
/// complete store in `dir` that every repetition resumes from.
pub fn counters_pass(
    kind: Kind,
    setup: &Setup,
    threads: usize,
    dir: &Path,
    checks: &mut Checks,
) -> Result<(Counters, u64), String> {
    let telemetry = Telemetry::new();
    let (result, _) = run_sweep_guarded(
        &setup.sweep,
        options(threads),
        Some(&telemetry),
        Some(&ckpt_config(dir, false)),
        &FaultPolicy::fail_fast(),
    )
    .map_err(|e| e.to_string())?;
    let counters = telemetry.counters.snapshot();
    let grid = setup.cells.len() as u64;
    let events = cluster_events(&result);
    checks.record("counters.invariants", counters.verify_invariants(true));
    checks.record(
        "counters.sweep_invariants",
        counters.verify_sweep_invariants(grid),
    );
    checks.record(
        "counters.shard_invariants",
        counters.verify_shard_invariants(kind.shards() as u64, events),
    );
    checks.expect_eq(
        "counters.cells_evaluated",
        counters.get(Counter::CellsEvaluated),
        grid,
    );
    checks.expect_eq(
        "counters.records_written",
        counters.get(Counter::CkptRecordsWritten),
        grid,
    );
    checks.expect_eq(
        "counters.cells_failed",
        counters.get(Counter::CellsFailed),
        0,
    );
    if kind.is_cluster() {
        checks.expect_eq(
            "counters.events_popped",
            counters.get(Counter::EventsPopped),
            events,
        );
    }
    if let (Some(prep), false) = (&setup.prep, kind.is_cluster()) {
        // Every cell of the policy grid is its own replay of the whole trace.
        checks.expect_eq(
            "counters.tasks_replayed",
            counters.get(Counter::TasksReplayed),
            prep.trace.task_count() as u64 * grid,
        );
    }
    Ok((counters, Export::of(&setup.sweep, &result).digest()))
}

/// DES events the sweep's cluster cells report (0 for other engines).
fn cluster_events(result: &SweepResult) -> u64 {
    result
        .cells
        .iter()
        .filter_map(|c| c.metric("events").ok())
        .map(|m| m.mean as u64)
        .sum()
}

/// The workload's unit of simulated work per sweep, for `events_per_s`:
/// DES events (cluster engine); replayed tasks plus the kills and durable
/// checkpoints the replay stepped through (fast engine); cells evaluated
/// plus cells restored (analytic grid, one cost-model evaluation per cell).
pub fn work_events(kind: Kind, work: &WorkCounts) -> u64 {
    match kind {
        Kind::StressFleet | Kind::StressFleetSharded => work.events,
        Kind::PolicyGrid => work.tasks + work.kills + work.checkpoints,
        Kind::CostGridResume => 2 * work.cells,
    }
}

/// A fresh per-process scratch directory inside the checkout.
pub fn work_dir(root: &Path, label: &str) -> Result<PathBuf, String> {
    let dir = root.join(format!("work-{label}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}
