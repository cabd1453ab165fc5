//! Determinism guards for the stress tier: the two stress specs
//! (`specs/stress_fleet.toml`, `specs/stress_long_tasks.toml`) must render
//! byte-identical frames for the same seed regardless of thread count, the
//! 1-thread frames (unsharded and at 4 shards) are pinned by FNV-1a
//! digests, and the `stress` scale must resolve everywhere a scale can be
//! named.
//!
//! CI-sized: the specs run under a `quick`-scale context (the cell count
//! is what matters — each spec's full grid executes — not the job count);
//! the full-size runs are `--scale stress` / direct `cloud-ckpt sweep`.

use ckpt_report::{RunContext, Scale};
use ckpt_scenario::spec::MetricsChoice;
use ckpt_scenario::{run_sweep_ctx, to_frame, SampleFilter, SweepSpec};

/// FNV-1a 64 over rendered bytes, the digest `tests/telemetry.rs` pins
/// exports with.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Pin a spec's 1-thread frames across commits. Thread invariance alone
/// passes a change that moves every byte of the stress shape (host
/// failures, saturated queues, DM-NFS, hundreds of checkpoints per long
/// task), which the 60-job golden DES digests never reach.
fn assert_frames_pinned(label: &str, csv: &str, json: &str, pinned: (u64, u64)) {
    let got = (fnv1a(csv.as_bytes()), fnv1a(json.as_bytes()));
    assert!(
        got == pinned,
        "{label}: CSV/JSON digests {:#018x}/{:#018x} drifted from the pinned {:#018x}/{:#018x}",
        got.0,
        got.1,
        pinned.0,
        pinned.1
    );
}

fn spec_frames(path: &str, threads: usize) -> (String, String) {
    sharded_spec_frames(path, threads, 1)
}

/// Render a spec's frames with the cluster replays partitioned into
/// `shards` host-group shards (1 = the legacy unsharded path).
fn sharded_spec_frames(path: &str, threads: usize, shards: usize) -> (String, String) {
    let text = std::fs::read_to_string(path).expect("spec file readable");
    let sweep = SweepSpec::from_str(&text).expect("spec parses");
    let mut ctx = RunContext::new(Scale::Quick).with_threads(threads);
    if shards > 1 {
        ctx = ctx.with_shards(shards);
    }
    let result = run_sweep_ctx(&sweep, &ctx).expect("sweep runs");
    let frame = to_frame(&sweep, &result);
    (frame.to_csv(), frame.to_json())
}

/// Sharded replays are part of the replay identity, not an execution
/// detail: a fixed shard count must render byte-identical frames at any
/// thread count, and a different shard count must render different ones.
fn assert_sharded_frames_thread_invariant(path: &str, pinned: (u64, u64)) {
    let (csv1, json1) = sharded_spec_frames(path, 1, 4);
    assert_frames_pinned(&format!("{path} at 4 shards"), &csv1, &json1, pinned);
    for threads in [4, 8] {
        let (csv_t, json_t) = sharded_spec_frames(path, threads, 4);
        assert_eq!(
            csv1, csv_t,
            "{path} sharded CSV differs at {threads} threads"
        );
        assert_eq!(
            json1, json_t,
            "{path} sharded JSON differs at {threads} threads"
        );
    }
    // Shard-local scheduling really changed the simulation (otherwise the
    // axis would be dead weight in the run key).
    let (unsharded_csv, _) = spec_frames(path, 1);
    assert_ne!(
        csv1, unsharded_csv,
        "{path}: 4-shard frames unexpectedly identical to unsharded"
    );
}

/// Load a spec and force the pass-through aggregation settings streaming
/// mode requires (`sample = "all"`, no record filters), returning
/// otherwise-identical full and streaming variants of the same sweep.
fn streaming_pair(path: &str) -> (SweepSpec, SweepSpec) {
    let text = std::fs::read_to_string(path).expect("spec file readable");
    let mut sweep = SweepSpec::from_str(&text).expect("spec parses");
    sweep.base.sample = SampleFilter::All;
    sweep.base.structure = None;
    sweep.base.priority = None;
    sweep.base.max_task_length = None;
    let mut full = sweep.clone();
    full.base.metrics = MetricsChoice::Full;
    sweep.base.metrics = MetricsChoice::Streaming;
    (full, sweep)
}

/// Differential guard: streaming cells must agree with full-record cells
/// exactly on count/min/max, to float-association noise on the mean, and
/// within the sketch's documented relative error bound on p50/p99 — and
/// the streaming frames must be byte-identical across thread counts.
fn assert_streaming_matches_full(path: &str) {
    let (full, streaming) = streaming_pair(path);
    let ctx = RunContext::new(Scale::Quick).with_threads(1);
    let a = run_sweep_ctx(&full, &ctx).expect("full sweep runs");
    let b = run_sweep_ctx(&streaming, &ctx).expect("streaming sweep runs");
    let bound = cloud_ckpt::stats::QuantileSketch::new().relative_error_bound();
    assert_eq!(a.cells.len(), b.cells.len());
    for (ca, cb) in a.cells.iter().zip(&b.cells) {
        assert_eq!(ca.metrics.len(), cb.metrics.len(), "{path}");
        for ((name_a, ma), (name_b, mb)) in ca.metrics.iter().zip(&cb.metrics) {
            assert_eq!(name_a, name_b, "{path}");
            assert_eq!(ma.count, mb.count, "{path}:{name_a}");
            assert_eq!(ma.min.to_bits(), mb.min.to_bits(), "{path}:{name_a}");
            assert_eq!(ma.max.to_bits(), mb.max.to_bits(), "{path}:{name_a}");
            let mean_tol = 1e-12 * ma.mean.abs().max(1.0);
            assert!(
                (ma.mean - mb.mean).abs() <= mean_tol,
                "{path}:{name_a} mean {} vs {}",
                ma.mean,
                mb.mean
            );
            for (exact, sketched) in [(ma.p50, mb.p50), (ma.p99, mb.p99)] {
                assert!(
                    (sketched - exact).abs() <= bound * exact.abs() + 1e-9,
                    "{path}:{name_a} sketched {sketched} vs exact {exact}"
                );
            }
        }
    }
    // Byte-identity of the rendered streaming frames at 1/4/8 threads.
    let frame1 = {
        let f = to_frame(&streaming, &b);
        (f.to_csv(), f.to_json())
    };
    for threads in [4, 8] {
        let ctx_t = RunContext::new(Scale::Quick).with_threads(threads);
        let bt = run_sweep_ctx(&streaming, &ctx_t).expect("streaming sweep runs");
        let ft = to_frame(&streaming, &bt);
        assert_eq!(
            frame1.0,
            ft.to_csv(),
            "{path} CSV differs at {threads} threads"
        );
        assert_eq!(
            frame1.1,
            ft.to_json(),
            "{path} JSON differs at {threads} threads"
        );
    }
}

#[test]
fn stress_fleet_frames_are_thread_invariant() {
    let (csv1, json1) = spec_frames("specs/stress_fleet.toml", 1);
    let (csv4, json4) = spec_frames("specs/stress_fleet.toml", 4);
    assert_eq!(csv1, csv4, "stress_fleet CSV must not depend on threads");
    assert_eq!(json1, json4, "stress_fleet JSON must not depend on threads");
    assert_frames_pinned(
        "stress_fleet",
        &csv1,
        &json1,
        (0x5f1e_0b13_bfbd_a1b7, 0xd37b_ca4c_23dc_b4aa),
    );
    // The cluster engine's cells carry the deterministic DES event count.
    assert!(csv1.lines().any(|l| l.contains(",events,")), "{csv1}");
}

#[test]
fn stress_long_tasks_frames_are_thread_invariant() {
    let (csv1, json1) = spec_frames("specs/stress_long_tasks.toml", 1);
    let (csv4, json4) = spec_frames("specs/stress_long_tasks.toml", 4);
    assert_eq!(csv1, csv4);
    assert_eq!(json1, json4);
    assert_frames_pinned(
        "stress_long_tasks",
        &csv1,
        &json1,
        (0xd04c_9f05_a4be_1589, 0x4de9_a0f3_e79e_7eae),
    );
    // Long-task cells really are long-task cells: mean wall is far beyond
    // the calibrated default workload's minutes-long tasks.
    let wall_row = csv1
        .lines()
        .find(|l| l.contains(",wall_s,"))
        .expect("wall_s metric present");
    let mean: f64 = wall_row.split(',').nth(4).unwrap().parse().unwrap();
    assert!(
        mean > 10_000.0,
        "long-task mean wall {mean} suspiciously low"
    );
}

#[test]
fn stress_fleet_sharded_frames_are_thread_invariant() {
    assert_sharded_frames_thread_invariant(
        "specs/stress_fleet.toml",
        (0x32ae_36f9_bac1_9844, 0x8db9_63d2_012e_ab1d),
    );
}

#[test]
fn stress_long_tasks_sharded_frames_are_thread_invariant() {
    assert_sharded_frames_thread_invariant(
        "specs/stress_long_tasks.toml",
        (0x12ea_6d4b_0b04_6744, 0x4390_1167_f8a8_e563),
    );
}

#[test]
fn streaming_differential_acceptance_grid() {
    // The acceptance grid (fast engine, 24 cells), with its
    // failure-prone filter lifted to the pass-through settings streaming
    // requires.
    assert_streaming_matches_full("specs/policy_x_ckpt_cost.toml");
}

#[test]
fn streaming_differential_stress_fleet() {
    // Cluster engine: the DES job records fold through the same sketch.
    assert_streaming_matches_full("specs/stress_fleet.toml");
}

#[test]
fn streaming_differential_stress_long_tasks() {
    assert_streaming_matches_full("specs/stress_long_tasks.toml");
}

#[test]
fn stress_scale_resolves_like_the_other_tiers() {
    assert_eq!(Scale::parse("stress").unwrap(), Scale::Stress);
    assert!(Scale::Stress.jobs() > Scale::Month.jobs());
    let err = Scale::parse("giga").unwrap_err();
    assert!(err.contains("stress"), "error names the stress tier: {err}");
    // The registered stress experiment exists and defaults CI-sized.
    let exp = cloud_ckpt::bench::registry::find("ext_stress_fleet").expect("registered");
    assert_eq!(exp.default_scale(), Scale::Quick);
}
