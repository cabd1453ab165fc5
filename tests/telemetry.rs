//! Telemetry acceptance guards.
//!
//! * With telemetry **off** (the default), sweep exports are pinned to
//!   FNV-1a digests captured from the uninstrumented build — any byte
//!   drift in simulation output caused by the observability layer fails
//!   here. Two more pins cover the export writer itself: an analytic
//!   grid whose summaries all have count 1, and a degraded run with a
//!   `status` column; both also check that the streamed exports equal
//!   the owned frame's renderings.
//! * With telemetry **on**, cell results are identical to the plain run
//!   (full and streaming metrics), and the deterministic counter frame is
//!   byte-identical across thread counts on both stress specs (the
//!   cluster DES and the fast replay paths both count simulation facts,
//!   never scheduling facts).

use ckpt_faults::{FaultPlan, FaultState, TestClock};
use ckpt_obs::{Counter, Observer, Telemetry};
use ckpt_report::{counters_frame, RunContext, Scale};
use ckpt_scenario::spec::MetricsChoice;
use ckpt_scenario::{
    csv_string, json_string, run_sweep, run_sweep_guarded, run_sweep_telemetry, to_frame,
    FaultPolicy, SampleFilter, SweepOptions, SweepResult, SweepSpec,
};
use std::sync::Arc;

/// FNV-1a 64 over the rendered bytes — the same digest the golden DES
/// tests pin, applied to exported files.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn load(path: &str) -> SweepSpec {
    let text = std::fs::read_to_string(path).expect("spec file readable");
    SweepSpec::from_str(&text).expect("spec parses")
}

/// The acceptance sweep's exports, pinned byte-for-byte: these digests
/// were recorded from the build *before* the telemetry layer existed, so
/// they prove `NoObs` instrumentation compiles to the identical replay.
#[test]
fn acceptance_sweep_exports_match_pre_telemetry_digests() {
    let sweep = load("specs/policy_x_ckpt_cost.toml");
    let result = run_sweep(&sweep, SweepOptions { threads: 4 }).expect("sweep runs");
    let csv = csv_string(&sweep, &result);
    let json = json_string(&sweep, &result);
    assert_eq!(
        fnv1a(csv.as_bytes()),
        0x70380b28ce7488fe,
        "policy_x_ckpt_cost_cells.csv drifted from the pre-telemetry build"
    );
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x86190083f702b315,
        "policy_x_ckpt_cost_summary.json drifted from the pre-telemetry build"
    );
}

/// An analytic `ckpt-cost` grid: every metric of every cell is a count-1
/// summary, so mean, p50, p99, min and max repeat one value per row.
const COST_GRID: &str = r#"
[sweep]
name = "cost_grid_pin"
engine = "ckpt-cost"

[axes]
device = ["ramdisk", "nfs", "dmnfs"]
mem_mb = [10, 37.5, 240, 1024]
n_checkpoints = { from = 1, to = 20, steps = 20 }
"#;

/// The streamed exports must equal the owned frame's renderings.
fn assert_exports_match_frame(sweep: &SweepSpec, result: &SweepResult) -> (String, String) {
    let csv = csv_string(sweep, result);
    let json = json_string(sweep, result);
    let frame = to_frame(sweep, result);
    assert_eq!(frame.to_csv(), csv, "to_frame(..).to_csv() != csv_string");
    assert_eq!(
        frame.to_json(),
        json,
        "to_frame(..).to_json() != json_string"
    );
    (csv, json)
}

/// The count-1 export of an analytic grid, pinned byte-for-byte.
#[test]
fn cost_grid_exports_match_pinned_digests() {
    let sweep = SweepSpec::from_str(COST_GRID).expect("spec parses");
    let result = run_sweep(&sweep, SweepOptions { threads: 2 }).expect("sweep runs");
    assert!(result
        .cells
        .iter()
        .all(|c| c.metrics.iter().all(|(_, s)| s.count == 1)));
    let (csv, json) = assert_exports_match_frame(&sweep, &result);
    assert_eq!(csv.lines().count(), 1 + 2 * 240);
    assert_eq!(
        fnv1a(csv.as_bytes()),
        0x305b17cae795ad2e,
        "cost_grid_pin_cells.csv drifted"
    );
    assert_eq!(
        fnv1a(json.as_bytes()),
        0xea6a7f367b6603df,
        "cost_grid_pin_summary.json drifted"
    );
}

/// A degraded run's export: one cell quarantined by an injected panic, so
/// the `status` column appears and that cell's row carries NaN metrics.
#[test]
fn degraded_sweep_exports_match_pinned_digests() {
    let sweep = load("specs/policy_x_ckpt_cost.toml");
    let plan = FaultPlan::parse("panic@cell=7").expect("plan parses");
    let policy = FaultPolicy {
        faults: Arc::new(FaultState::with_clock(plan, Box::new(TestClock::default()))),
        strict: false,
    };
    let (result, _) = run_sweep_guarded(&sweep, SweepOptions { threads: 4 }, None, None, &policy)
        .expect("guarded sweep completes");
    assert_eq!(result.health.cells_quarantined, 1);
    let (csv, json) = assert_exports_match_frame(&sweep, &result);
    assert!(csv.lines().next().unwrap().ends_with(",status"));
    assert_eq!(
        fnv1a(csv.as_bytes()),
        0x0c68f64523719bf2,
        "degraded policy_x_ckpt_cost_cells.csv drifted"
    );
    assert_eq!(
        fnv1a(json.as_bytes()),
        0x58c4eeed4225085f,
        "degraded policy_x_ckpt_cost_summary.json drifted"
    );
}

/// Attaching telemetry must not change a single cell: same metrics, same
/// params, same order — on the acceptance grid and on its streaming twin
/// (`sample = "all"`, `metrics = "streaming"`). Both grids run the same
/// 24 replays and only fold them differently, so they count the same.
#[test]
fn telemetry_does_not_change_sweep_results() {
    let sweep = load("specs/policy_x_ckpt_cost.toml");
    let mut streaming = sweep.clone();
    streaming.base.sample = SampleFilter::All;
    streaming.base.metrics = MetricsChoice::Streaming;
    let mut snapshots = Vec::new();
    for sweep in [&sweep, &streaming] {
        let plain = run_sweep(sweep, SweepOptions { threads: 2 }).expect("plain sweep");
        let telemetry = Telemetry::new();
        let observed = run_sweep_telemetry(sweep, SweepOptions { threads: 2 }, Some(&telemetry))
            .expect("observed sweep");
        assert_eq!(plain.cells, observed.cells, "{:?}", sweep.base.metrics);
        // And the observed run actually counted.
        let counters = telemetry.counters.snapshot();
        assert_eq!(
            counters.get(Counter::CellsEvaluated),
            plain.cells.len() as u64
        );
        assert!(counters.get(Counter::TasksReplayed) > 0);
        counters
            .verify_invariants(true)
            .expect("counter identities");
        snapshots.push(counters);
    }
    assert_eq!(
        snapshots[0], snapshots[1],
        "the streaming twin must count the same replays as the full grid"
    );
}

/// Counter frame for one stress spec at quick scale under `threads`.
fn stress_counters_csv(path: &str, threads: usize) -> String {
    let sweep = load(path);
    let ctx = RunContext::new(Scale::Quick).with_threads(threads);
    let telemetry = Telemetry::new();
    let result = run_sweep_telemetry(
        &sweep.contextualized(&ctx),
        SweepOptions { threads },
        Some(&telemetry),
    )
    .expect("sweep runs");
    assert!(!result.cells.is_empty());
    let counters = telemetry.counters.snapshot();
    // Every stress cell runs to completion, so the DES event accounting
    // identity and the arena identity both hold on the totals.
    counters
        .verify_invariants(true)
        .expect("counter identities");
    counters_frame(&counters).to_csv()
}

#[test]
fn stress_fleet_counter_frame_is_thread_invariant() {
    let a = stress_counters_csv("specs/stress_fleet.toml", 1);
    let b = stress_counters_csv("specs/stress_fleet.toml", 4);
    assert_eq!(a, b, "stress_fleet counters must not depend on threads");
    // The cluster DES really ran: heap events were popped.
    assert!(a.lines().any(|l| l.starts_with("events_popped,")), "{a}");
    let popped: u64 = a
        .lines()
        .find_map(|l| l.strip_prefix("events_popped,"))
        .unwrap()
        .parse()
        .unwrap();
    assert!(popped > 0, "cluster cells produced no DES events");
}

#[test]
fn stress_long_tasks_counter_frame_is_thread_invariant() {
    let a = stress_counters_csv("specs/stress_long_tasks.toml", 1);
    let b = stress_counters_csv("specs/stress_long_tasks.toml", 4);
    assert_eq!(
        a, b,
        "stress_long_tasks counters must not depend on threads"
    );
}
