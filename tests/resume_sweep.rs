//! Kill-and-resume integration tests: the `sweep --checkpoint-dir` /
//! `--resume` path driven through the real binary, with an injected
//! `--inject 'crash@cells=k'` fault standing in for a preemption.
//!
//! The headline assertion is the tentpole contract: a sweep killed after
//! k persisted cells and resumed produces CSV/JSON **byte-identical** to
//! an uninterrupted run, for k at the start, middle, and end of the grid,
//! at both 1 and 4 threads.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Exit code of the injected crash (ckpt_scenario::CRASH_EXIT_CODE).
const CRASH_CODE: i32 = 86;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cloud-ckpt"))
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("ckpt_resume_{}_{name}", std::process::id()))
}

/// The acceptance grid (specs/policy_x_ckpt_cost.toml) at a debug-profile
/// job count: same 4 x 6 = 24-cell shape, same seed, same axes.
const GRID: &str = r#"
[sweep]
name = "policy_x_ckpt_cost"
engine = "fast"
seed = 20130217
jobs = 120

[scenario]
sample = "failure-prone"

[axes]
policy = ["formula3", "young", "daly", "none"]
ckpt_cost_scale = { from = 0.25, to = 8.0, steps = 6, log = true }
"#;

/// The acceptance-grid shape in streaming-metrics mode (`sample = "all"`
/// as streaming requires): exercises the sketch-backed p50/p99 through
/// the checkpoint store on kill-and-resume.
const GRID_STREAMING: &str = r#"
[sweep]
name = "policy_x_ckpt_cost"
engine = "fast"
seed = 20130217
jobs = 120

[scenario]
sample = "all"
metrics = "streaming"

[axes]
policy = ["formula3", "young", "daly", "none"]
ckpt_cost_scale = { from = 0.25, to = 8.0, steps = 6, log = true }
"#;

/// A small grid for the failure-path tests.
const SMALL: &str = r#"
[sweep]
name = "small"
engine = "fast"
seed = 9
jobs = 60

[axes]
policy = ["formula3", "none"]
ckpt_cost_scale = { from = 0.5, to = 2.0, steps = 2 }
"#;

fn write_spec(name: &str, body: &str) -> PathBuf {
    let path = tmp(name).with_extension("toml");
    std::fs::write(&path, body).unwrap();
    path
}

fn read_outputs(dir: &Path, sweep_name: &str) -> (Vec<u8>, Vec<u8>) {
    let csv = std::fs::read(dir.join(format!("{sweep_name}_cells.csv"))).expect("cells csv");
    let json = std::fs::read(dir.join(format!("{sweep_name}_summary.json"))).expect("summary json");
    (csv, json)
}

fn counter_value(telemetry_dir: &Path, counter: &str) -> u64 {
    let csv = std::fs::read_to_string(telemetry_dir.join("telemetry_counters.csv"))
        .expect("telemetry counters");
    csv.lines()
        .find_map(|l| l.strip_prefix(&format!("{counter},")))
        .unwrap_or_else(|| panic!("counter {counter} missing:\n{csv}"))
        .parse()
        .expect("counter value")
}

#[test]
fn killed_sweeps_resume_to_byte_identical_outputs() {
    let spec = write_spec("grid_spec", GRID);

    // The reference: one uninterrupted run (outputs are thread-invariant,
    // so one clean run serves every thread count below).
    let clean_dir = tmp("grid_clean");
    let out = cli()
        .args(["sweep", "--threads", "2", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&clean_dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (clean_csv, clean_json) = read_outputs(&clean_dir, "policy_x_ckpt_cost");

    // Kill after k cells at one thread count, resume at the other: first
    // cell, mid-grid, and all-but-one, in both thread directions.
    for (k, crash_threads, resume_threads) in [
        (1u64, "4", "1"),
        (1, "1", "4"),
        (12, "4", "1"),
        (12, "1", "4"),
        (23, "4", "1"),
        (23, "1", "4"),
    ] {
        let case = format!("k{k}_t{resume_threads}");
        let ckpt_dir = tmp(&format!("grid_ckpt_{case}"));
        let out_dir = tmp(&format!("grid_out_{case}"));
        let tel_dir = tmp(&format!("grid_tel_{case}"));

        let crash = cli()
            .args(["sweep", "--threads", crash_threads, "--spec"])
            .arg(&spec)
            .arg("--out")
            .arg(&out_dir)
            .arg("--checkpoint-dir")
            .arg(&ckpt_dir)
            .arg("--inject")
            .arg(format!("crash@cells={k}"))
            .output()
            .expect("binary runs");
        assert_eq!(
            crash.status.code(),
            Some(CRASH_CODE),
            "case {case}: crash hook should abort with the injected code\n{}",
            String::from_utf8_lossy(&crash.stderr)
        );
        assert!(
            String::from_utf8_lossy(&crash.stderr).contains("crash hook"),
            "case {case}: stderr should name the hook"
        );
        // The killed run must not have exported results.
        assert!(
            !out_dir.join("policy_x_ckpt_cost_cells.csv").exists(),
            "case {case}: a killed sweep must not write outputs"
        );

        let resume = cli()
            .args(["sweep", "--threads", resume_threads, "--spec"])
            .arg(&spec)
            .arg("--out")
            .arg(&out_dir)
            .arg("--checkpoint-dir")
            .arg(&ckpt_dir)
            .arg("--resume")
            .arg("--telemetry")
            .arg(&tel_dir)
            .output()
            .expect("binary runs");
        assert!(
            resume.status.success(),
            "case {case}: {}",
            String::from_utf8_lossy(&resume.stderr)
        );
        let text = String::from_utf8_lossy(&resume.stdout);
        assert!(
            text.contains(&format!("({k} loaded, {} evaluated)", 24 - k)),
            "case {case}: resume accounting wrong\n{text}"
        );

        let (csv, json) = read_outputs(&out_dir, "policy_x_ckpt_cost");
        assert_eq!(
            csv, clean_csv,
            "case {case}: resumed CSV must be byte-identical to the clean run"
        );
        assert_eq!(
            json, clean_json,
            "case {case}: resumed JSON must be byte-identical to the clean run"
        );

        // Resume efficacy is observable: skipped + evaluated == grid.
        assert_eq!(counter_value(&tel_dir, "cells_skipped"), k, "case {case}");
        assert_eq!(
            counter_value(&tel_dir, "cells_evaluated"),
            24 - k,
            "case {case}"
        );
        assert_eq!(
            counter_value(&tel_dir, "cells_resumed"),
            24 - k,
            "case {case}"
        );
        assert_eq!(
            counter_value(&tel_dir, "ckpt_records_written"),
            24 - k,
            "case {case}"
        );

        for d in [&ckpt_dir, &out_dir, &tel_dir] {
            std::fs::remove_dir_all(d).ok();
        }
    }
    std::fs::remove_file(&spec).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

#[test]
fn killed_streaming_sweeps_resume_to_byte_identical_outputs() {
    let spec = write_spec("stream_grid_spec", GRID_STREAMING);

    // Uninterrupted streaming reference run. The sketch-backed p50/p99
    // must be populated in the export (non-empty, no nulls for wpr).
    let clean_dir = tmp("stream_grid_clean");
    let out = cli()
        .args(["sweep", "--threads", "2", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&clean_dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let (clean_csv, clean_json) = read_outputs(&clean_dir, "policy_x_ckpt_cost");
    let csv_text = String::from_utf8_lossy(&clean_csv);
    let wpr_row = csv_text
        .lines()
        .find(|l| l.contains(",wpr,"))
        .expect("wpr metric row present");
    for col in wpr_row.split(',').skip(4) {
        assert!(
            col.parse::<f64>().map(|v| !v.is_nan()).unwrap_or(false),
            "streaming export must carry populated statistics: {wpr_row}"
        );
    }

    // Kill mid-grid and at the tail, resuming across thread counts: the
    // sketch-derived summaries must round-trip the store byte-exactly.
    for (k, crash_threads, resume_threads) in [(12u64, "4", "1"), (23, "1", "4")] {
        let case = format!("stream_k{k}_t{resume_threads}");
        let ckpt_dir = tmp(&format!("stream_ckpt_{case}"));
        let out_dir = tmp(&format!("stream_out_{case}"));

        let crash = cli()
            .args(["sweep", "--threads", crash_threads, "--spec"])
            .arg(&spec)
            .arg("--out")
            .arg(&out_dir)
            .arg("--checkpoint-dir")
            .arg(&ckpt_dir)
            .arg("--inject")
            .arg(format!("crash@cells={k}"))
            .output()
            .expect("binary runs");
        assert_eq!(
            crash.status.code(),
            Some(CRASH_CODE),
            "case {case}: {}",
            String::from_utf8_lossy(&crash.stderr)
        );

        let resume = cli()
            .args(["sweep", "--threads", resume_threads, "--spec"])
            .arg(&spec)
            .arg("--out")
            .arg(&out_dir)
            .arg("--checkpoint-dir")
            .arg(&ckpt_dir)
            .arg("--resume")
            .output()
            .expect("binary runs");
        assert!(
            resume.status.success(),
            "case {case}: {}",
            String::from_utf8_lossy(&resume.stderr)
        );

        let (csv, json) = read_outputs(&out_dir, "policy_x_ckpt_cost");
        assert_eq!(
            csv, clean_csv,
            "case {case}: resumed streaming CSV must be byte-identical"
        );
        assert_eq!(
            json, clean_json,
            "case {case}: resumed streaming JSON must be byte-identical"
        );

        for d in [&ckpt_dir, &out_dir] {
            std::fs::remove_dir_all(d).ok();
        }
    }
    std::fs::remove_file(&spec).ok();
    std::fs::remove_dir_all(&clean_dir).ok();
}

#[test]
fn resuming_a_completed_sweep_reexports_identical_bytes() {
    let spec = write_spec("done_spec", SMALL);
    let ckpt_dir = tmp("done_ckpt");
    let out_a = tmp("done_out_a");
    let out_b = tmp("done_out_b");

    let out = cli()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_a)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    // Every cell loads from the store; nothing is evaluated.
    let tel_dir = tmp("done_tel");
    let out = cli()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_b)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .arg("--resume")
        .arg("--telemetry")
        .arg(&tel_dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert_eq!(counter_value(&tel_dir, "cells_skipped"), 4);
    assert_eq!(counter_value(&tel_dir, "cells_evaluated"), 0);

    assert_eq!(read_outputs(&out_a, "small"), read_outputs(&out_b, "small"));
    for d in [&ckpt_dir, &out_a, &out_b, &tel_dir] {
        std::fs::remove_dir_all(d).ok();
    }
    std::fs::remove_file(&spec).ok();
}

#[test]
fn resume_with_a_changed_spec_is_rejected_naming_the_digest() {
    let spec = write_spec("mismatch_spec", SMALL);
    let ckpt_dir = tmp("mismatch_ckpt");
    let out_dir = tmp("mismatch_out");

    let out = cli()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_dir)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // Same sweep name, different seed: the store must be refused, not
    // silently merged.
    let changed = write_spec("mismatch_spec2", &SMALL.replace("seed = 9", "seed = 10"));
    let out = cli()
        .args(["sweep", "--spec"])
        .arg(&changed)
        .arg("--out")
        .arg(&out_dir)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .arg("--resume")
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "changed spec must not resume");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("spec digest"), "{err}");
    assert!(err.contains("--resume"), "{err}");

    for d in [&ckpt_dir, &out_dir] {
        std::fs::remove_dir_all(d).ok();
    }
    std::fs::remove_file(&spec).ok();
    std::fs::remove_file(&changed).ok();
}

#[test]
fn torn_store_tail_is_recovered_on_resume() {
    let spec = write_spec("torn_spec", SMALL);
    let ckpt_dir = tmp("torn_ckpt");
    let out_a = tmp("torn_out_a");
    let out_b = tmp("torn_out_b");

    let out = cli()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_a)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());

    // Simulate a crash mid-append: garbage half-frame at the tail.
    let store_path = ckpt_dir.join("small.sweepckpt");
    let mut bytes = std::fs::read(&store_path).expect("store exists");
    bytes.extend_from_slice(&[0x2a; 9]);
    std::fs::write(&store_path, &bytes).unwrap();

    let out = cli()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_b)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .arg("--resume")
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("recovered") && err.contains("9 corrupt tail bytes"),
        "{err}"
    );
    assert_eq!(read_outputs(&out_a, "small"), read_outputs(&out_b, "small"));

    for d in [&ckpt_dir, &out_a, &out_b] {
        std::fs::remove_dir_all(d).ok();
    }
    std::fs::remove_file(&spec).ok();
}

/// Drop the wall-clock throughput line — the only nondeterministic line
/// a sweep prints to stdout.
fn strip_wallclock(stdout: &[u8]) -> String {
    String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| !l.contains(" cells/s, "))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A panicking cell prints no panic report, not even with backtraces
/// on: its stderr is the three retry notes, the quarantine line and the
/// health line, and each note names the panic's reason.
#[test]
fn quarantined_panics_print_no_panic_report() {
    let spec = write_spec("quiet_panic_spec", SMALL);
    let out = cli()
        .args(["sweep", "--threads", "2", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(tmp("quiet_panic_out"))
        .args(["--inject", "panic@cell=2"])
        .env("RUST_BACKTRACE", "1")
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked at"), "{err}");
    assert!(!err.contains("backtrace"), "{err}");
    let reason = "panicked: injected fault: panic at cell 2";
    let lines: Vec<&str> = err.lines().collect();
    assert_eq!(lines.len(), 5, "{err}");
    for (n, line) in lines[..3].iter().enumerate() {
        assert_eq!(
            *line,
            format!("sweep: cell 2 failed ({reason}); retry {}/3", n + 1)
        );
    }
    assert_eq!(
        lines[3],
        format!("sweep: cell 2 quarantined after 4 attempts: {reason}")
    );
    assert!(
        lines[4].starts_with("health: 3 cells ok, 1 quarantined"),
        "{err}"
    );
}

#[test]
fn injected_panic_quarantines_one_cell_and_resume_reproduces_the_clean_run() {
    let spec = write_spec("quarantine_spec", SMALL);
    let clean_dir = tmp("quarantine_clean");
    let out = cli()
        .args(["sweep", "--threads", "2", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&clean_dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let (clean_csv, clean_json) = read_outputs(&clean_dir, "small");

    // The faulted run: a sticky panic on cell 2. The sweep must complete
    // (exit 0) with the other three cells healthy.
    let ckpt_dir = tmp("quarantine_ckpt");
    let out_dir = tmp("quarantine_out");
    let tel_dir = tmp("quarantine_tel");
    let faulted = cli()
        .args(["sweep", "--threads", "2", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_dir)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .arg("--telemetry")
        .arg(&tel_dir)
        .args(["--inject", "panic@cell=2"])
        .output()
        .expect("binary runs");
    assert!(
        faulted.status.success(),
        "a quarantined cell must not fail the run\n{}",
        String::from_utf8_lossy(&faulted.stderr)
    );
    let err = String::from_utf8_lossy(&faulted.stderr);
    assert!(err.contains("cell 2 quarantined"), "{err}");
    assert!(
        err.contains(
            "health: 3 cells ok, 1 quarantined, 3 cell retries, 0 io retries, 4 faults injected"
        ),
        "{err}"
    );

    // Exactly one Failed status row; healthy rows carry the ok marker.
    let (csv, _) = read_outputs(&out_dir, "small");
    let csv_text = String::from_utf8_lossy(&csv);
    assert!(csv_text.lines().next().unwrap().ends_with(",status"));
    let failed: Vec<&str> = csv_text.lines().filter(|l| l.contains("failed")).collect();
    assert_eq!(failed.len(), 1, "{csv_text}");
    assert!(failed[0].starts_with("2,"), "{}", failed[0]);
    assert!(
        failed[0].contains("failed: panicked: injected fault: panic at cell 2"),
        "{}",
        failed[0]
    );

    // Degraded-run counters, and the quarantined cell is not persisted.
    assert_eq!(counter_value(&tel_dir, "cells_failed"), 1);
    assert_eq!(counter_value(&tel_dir, "cells_retried"), 3);
    assert_eq!(counter_value(&tel_dir, "cells_evaluated"), 3);
    assert_eq!(counter_value(&tel_dir, "ckpt_records_written"), 3);
    assert_eq!(counter_value(&tel_dir, "faults_injected"), 4);

    // Resume with the fault removed: only cell 2 is re-evaluated, and the
    // outputs are byte-identical to the clean run.
    let resume = cli()
        .args(["sweep", "--threads", "1", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_dir)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .arg("--resume")
        .output()
        .expect("binary runs");
    assert!(
        resume.status.success(),
        "{}",
        String::from_utf8_lossy(&resume.stderr)
    );
    assert!(
        String::from_utf8_lossy(&resume.stdout).contains("(3 loaded, 1 evaluated)"),
        "quarantined cells must be re-evaluated on resume"
    );
    assert_eq!(read_outputs(&out_dir, "small"), (clean_csv, clean_json));

    for d in [&clean_dir, &ckpt_dir, &out_dir, &tel_dir] {
        std::fs::remove_dir_all(d).ok();
    }
    std::fs::remove_file(&spec).ok();
}

#[test]
fn eventually_transient_faults_leave_stdout_and_outputs_byte_identical() {
    let spec = write_spec("transient_spec", SMALL);
    let out_dir = tmp("transient_out");

    let clean = cli()
        .args(["sweep", "--threads", "2", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_dir)
        .output()
        .expect("binary runs");
    assert!(clean.status.success());
    let clean_outputs = read_outputs(&out_dir, "small");
    let clean_stdout = strip_wallclock(&clean.stdout);

    // Same run with a transient cell fault and a transient export fault:
    // retries happen (stderr), results and stdout don't move.
    let tel_dir = tmp("transient_tel");
    let faulted = cli()
        .args(["sweep", "--threads", "2", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_dir)
        .arg("--telemetry")
        .arg(&tel_dir)
        .args([
            "--inject",
            "budget@cell=1:times=2; io_error@export=1:times=1",
        ])
        .output()
        .expect("binary runs");
    assert!(
        faulted.status.success(),
        "{}",
        String::from_utf8_lossy(&faulted.stderr)
    );
    let err = String::from_utf8_lossy(&faulted.stderr);
    assert!(err.contains("cell 1 failed"), "{err}");
    assert!(err.contains("writing outputs"), "{err}");
    // One tally: the export's fault and retry count like the cell's, in
    // the health line and the counter frame alike.
    assert!(
        err.lines().any(|l| l
            == "health: 4 cells ok, 0 quarantined, 2 cell retries, 1 io retry, 3 faults injected"),
        "{err}"
    );
    assert_eq!(counter_value(&tel_dir, "io_retries"), 1);
    assert_eq!(counter_value(&tel_dir, "faults_injected"), 3);
    assert_eq!(read_outputs(&out_dir, "small"), clean_outputs);
    assert_eq!(
        strip_wallclock(&faulted.stdout),
        clean_stdout,
        "retry noise must never reach stdout"
    );

    // Only `--inject` arms a plan: the retired `CKPT_FAULT_PLAN`
    // environment variable is ignored.
    let via_env = cli()
        .args(["sweep", "--threads", "2", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_dir)
        .env("CKPT_FAULT_PLAN", "budget@cell=0:times=1")
        .output()
        .expect("binary runs");
    assert!(via_env.status.success());
    let err = String::from_utf8_lossy(&via_env.stderr);
    assert!(
        !err.contains("cell 0 failed"),
        "CKPT_FAULT_PLAN must arm nothing: {err}"
    );
    assert_eq!(read_outputs(&out_dir, "small"), clean_outputs);

    std::fs::remove_dir_all(&out_dir).ok();
    std::fs::remove_dir_all(&tel_dir).ok();
    std::fs::remove_file(&spec).ok();
}

#[test]
fn torn_write_injection_kills_the_run_and_resume_recovers_the_tail() {
    let spec = write_spec("tornfault_spec", SMALL);
    let clean_dir = tmp("tornfault_clean");
    let out = cli()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&clean_dir)
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let clean_outputs = read_outputs(&clean_dir, "small");

    // The second persisted record is torn mid-append and the process dies
    // with the crash exit code, like a kill -9 during write().
    let ckpt_dir = tmp("tornfault_ckpt");
    let out_dir = tmp("tornfault_out");
    let torn = cli()
        .args(["sweep", "--threads", "1", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_dir)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .args(["--inject", "torn_write@record=2"])
        .output()
        .expect("binary runs");
    assert_eq!(
        torn.status.code(),
        Some(CRASH_CODE),
        "{}",
        String::from_utf8_lossy(&torn.stderr)
    );
    assert!(
        String::from_utf8_lossy(&torn.stderr).contains("torn write"),
        "{}",
        String::from_utf8_lossy(&torn.stderr)
    );

    // Resume without the fault: the torn tail is truncated away (named on
    // stderr) and the finished outputs are byte-identical to clean.
    let resume = cli()
        .args(["sweep", "--threads", "4", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(&out_dir)
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .arg("--resume")
        .output()
        .expect("binary runs");
    assert!(
        resume.status.success(),
        "{}",
        String::from_utf8_lossy(&resume.stderr)
    );
    let err = String::from_utf8_lossy(&resume.stderr);
    assert!(
        err.contains("recovered") && err.contains("corrupt tail"),
        "the torn-tail warning belongs on stderr: {err}"
    );
    assert_eq!(read_outputs(&out_dir, "small"), clean_outputs);

    for d in [&clean_dir, &ckpt_dir, &out_dir] {
        std::fs::remove_dir_all(d).ok();
    }
    std::fs::remove_file(&spec).ok();
}

#[test]
fn strict_mode_and_bad_plans_are_named_errors() {
    let spec = write_spec("strictfault_spec", SMALL);

    // --strict restores fail-fast: the run dies on the first failure
    // instead of quarantining.
    let strict = cli()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(tmp("strictfault_out"))
        .args(["--inject", "panic@cell=1", "--strict"])
        .output()
        .expect("binary runs");
    assert!(!strict.status.success());
    let err = String::from_utf8_lossy(&strict.stderr);
    assert!(err.contains("cell 1") && err.contains("panic"), "{err}");

    // A malformed plan is rejected up front, naming the directive.
    let bad = cli()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .args(["--inject", "meteor@cell=1"])
        .output()
        .expect("binary runs");
    assert!(!bad.status.success());
    assert!(
        String::from_utf8_lossy(&bad.stderr).contains("--inject"),
        "plan errors must name the flag"
    );

    // A crash directive without a checkpoint store is as meaningless as
    // the env knob without one.
    let orphan = cli()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .args(["--inject", "crash@cells=2"])
        .output()
        .expect("binary runs");
    assert!(!orphan.status.success());
    assert!(
        String::from_utf8_lossy(&orphan.stderr).contains("--checkpoint-dir"),
        "{}",
        String::from_utf8_lossy(&orphan.stderr)
    );

    // With a store, crash@cells behaves exactly like the env knob.
    let ckpt_dir = tmp("strictfault_ckpt");
    let crash = cli()
        .args(["sweep", "--spec"])
        .arg(&spec)
        .arg("--out")
        .arg(tmp("strictfault_out"))
        .arg("--checkpoint-dir")
        .arg(&ckpt_dir)
        .args(["--inject", "crash@cells=2"])
        .output()
        .expect("binary runs");
    assert_eq!(
        crash.status.code(),
        Some(CRASH_CODE),
        "{}",
        String::from_utf8_lossy(&crash.stderr)
    );
    assert!(
        String::from_utf8_lossy(&crash.stderr).contains("aborting after 2 persisted cells"),
        "{}",
        String::from_utf8_lossy(&crash.stderr)
    );

    std::fs::remove_dir_all(tmp("strictfault_out")).ok();
    std::fs::remove_dir_all(&ckpt_dir).ok();
    std::fs::remove_file(&spec).ok();
}

#[test]
fn resume_without_checkpoint_dir_is_a_named_error() {
    let spec = write_spec("orphan_spec", SMALL);
    let out = cli()
        .args(["sweep", "--resume", "--spec"])
        .arg(&spec)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("--checkpoint-dir"),
        "error must name the missing flag"
    );

    // An injected crash without a store to crash into is equally a
    // mistake.
    let out = cli()
        .args(["sweep", "--inject", "crash@cells=3", "--spec"])
        .arg(&spec)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("crash@cells") && stderr.contains("--checkpoint-dir"),
        "error must name the directive and the missing flag: {stderr}"
    );

    let out = cli()
        .args(["sweep", "--inject", "crash@cells=three", "--spec"])
        .arg(&spec)
        .arg("--checkpoint-dir")
        .arg(tmp("orphan_ckpt"))
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot parse \"three\" as a count"),
        "bad crash counts must be named: {stderr}"
    );

    std::fs::remove_file(&spec).ok();
    std::fs::remove_dir_all(tmp("orphan_ckpt")).ok();
}
