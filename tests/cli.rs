//! Integration tests of the `cloud-ckpt` CLI binary: plan, generate,
//! replay, sweep, the experiment registry (`exp list|run|all`), and error
//! handling, driven through the real executable.

use std::process::Command;

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_cloud-ckpt"))
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("cloud_ckpt_cli_{}_{name}.csv", std::process::id()))
}

#[test]
fn plan_reports_paper_example() {
    let out = cli()
        .args(["plan", "--te", "441", "--ckpt-cost", "1", "--mnof", "2"])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("21 intervals"), "{text}");
    assert!(text.contains("20 checkpoints"), "{text}");
}

#[test]
fn plan_with_mtbf_adds_baselines() {
    let out = cli()
        .args([
            "plan",
            "--te",
            "441",
            "--ckpt-cost",
            "1",
            "--mnof",
            "2",
            "--mtbf",
            "179",
        ])
        .output()
        .expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("Young:"), "{text}");
    assert!(text.contains("Daly:"), "{text}");
}

#[test]
fn generate_then_replay_roundtrip() {
    let path = tmp("roundtrip");
    let gen = cli()
        .args(["generate", "--jobs", "200", "--seed", "9", "--out"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        gen.status.success(),
        "{}",
        String::from_utf8_lossy(&gen.stderr)
    );

    let replay = cli()
        .args(["replay", "--policy", "young", "--trace"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(
        replay.status.success(),
        "{}",
        String::from_utf8_lossy(&replay.stderr)
    );
    let text = String::from_utf8_lossy(&replay.stdout);
    assert!(text.contains("avg WPR"), "{text}");
    assert!(text.contains("Young"), "{text}");
    std::fs::remove_file(&path).ok();
}

/// Task ids index the kill-plan arena, so a trace whose ids are not
/// `0..n` once each is a named parse error from every command that reads
/// it: never an allocation abort (an id of 10^12), a panic (an id of
/// `u64::MAX`), or a silently different replay (a duplicated id).
#[test]
fn traces_with_hostile_task_ids_are_named_errors() {
    let path = tmp("hostile_base");
    let gen = cli()
        .args(["generate", "--jobs", "40", "--seed", "9", "--out"])
        .arg(&path)
        .output()
        .expect("binary runs");
    assert!(gen.status.success());
    let text = std::fs::read_to_string(&path).unwrap();
    std::fs::remove_file(&path).ok();
    // Line 1 is the seed, line 2 the header: line 5 is task row 3.
    for (name, line, id) in [
        ("huge_id", 5, "1000000000000"),
        ("max_id", 3, "18446744073709551615"),
        ("dup_id", 6, "1"),
    ] {
        let rows: Vec<String> = text
            .lines()
            .enumerate()
            .map(|(i, row)| {
                if i + 1 != line {
                    return row.to_string();
                }
                let mut cols: Vec<&str> = row.split(',').collect();
                cols[6] = id;
                cols.join(",")
            })
            .collect();
        let csv = tmp(name);
        std::fs::write(&csv, rows.join("\n") + "\n").unwrap();
        let named = format!("trace parse error at line {line}: task_id {id} ");

        let replay = cli()
            .args(["replay", "--trace"])
            .arg(&csv)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&replay.stderr);
        assert_eq!(replay.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains(&named), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");

        let spec =
            std::env::temp_dir().join(format!("cloud_ckpt_cli_{}_{name}.toml", std::process::id()));
        std::fs::write(
            &spec,
            format!(
                "[sweep]\nname = \"{name}\"\nengine = \"fast\"\ntrace_file = {:?}\n\n\
                 [axes]\npolicy = [\"formula3\", \"young\"]\n",
                csv.display().to_string()
            ),
        )
        .unwrap();
        let out_dir =
            std::env::temp_dir().join(format!("cloud_ckpt_cli_{}_{name}_out", std::process::id()));
        // Strict: the first failing cell fails the sweep.
        let strict = cli()
            .args(["sweep", "--strict", "--spec"])
            .arg(&spec)
            .arg("--out")
            .arg(&out_dir)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&strict.stderr);
        assert_eq!(strict.status.code(), Some(1), "{name}: {err}");
        assert!(err.contains(&named), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");
        // Default: every cell is quarantined with the same named reason.
        let quarantined = cli()
            .args(["sweep", "--spec"])
            .arg(&spec)
            .arg("--out")
            .arg(&out_dir)
            .output()
            .expect("binary runs");
        let err = String::from_utf8_lossy(&quarantined.stderr);
        assert_eq!(quarantined.status.code(), Some(0), "{name}: {err}");
        assert!(err.contains("0 cells ok, 2 quarantined"), "{name}: {err}");
        assert!(err.contains(&named), "{name}: {err}");
        assert!(!err.contains("panicked"), "{name}: {err}");

        std::fs::remove_file(&csv).ok();
        std::fs::remove_file(&spec).ok();
        std::fs::remove_dir_all(&out_dir).ok();
    }
}

#[test]
fn replay_inline_generation() {
    let out = cli()
        .args([
            "replay", "--jobs", "150", "--seed", "3", "--policy", "formula3",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("Formula(3)"));
}

#[test]
fn bad_inputs_fail_with_usage() {
    for args in [
        vec!["frobnicate"],
        vec!["plan", "--te", "441"], // missing flags
        vec!["plan", "--te", "nan?", "--ckpt-cost", "1", "--mnof", "2"],
        vec!["replay", "--policy", "quantum"],
        vec!["generate", "--jobs", "10"], // missing --out
    ] {
        let out = cli().args(&args).output().expect("binary runs");
        assert!(!out.status.success(), "args {args:?} should fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("USAGE") || err.contains("error"), "{err}");
    }
}

#[test]
fn no_args_prints_usage() {
    let out = cli().output().expect("binary runs");
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("USAGE"));
}

#[test]
fn help_succeeds() {
    let out = cli().arg("help").output().expect("binary runs");
    assert!(out.status.success());
    assert!(String::from_utf8_lossy(&out.stdout).contains("cloud-ckpt"));
}

#[test]
fn sweep_runs_grid_and_is_thread_invariant() {
    let spec_path = tmp("sweep_spec");
    std::fs::write(
        &spec_path,
        r#"
        [sweep]
        name = "cli_grid"
        engine = "fast"
        seed = 5
        jobs = 120

        [axes]
        policy = ["formula3", "young", "daly", "none"]
        ckpt_cost_scale = { from = 0.25, to = 8.0, steps = 6, log = true }
        "#,
    )
    .unwrap();

    let dir1 = std::env::temp_dir().join(format!("cloud_ckpt_sweep1_{}", std::process::id()));
    let dir8 = std::env::temp_dir().join(format!("cloud_ckpt_sweep8_{}", std::process::id()));
    for (threads, dir) in [("1", &dir1), ("8", &dir8)] {
        let out = cli()
            .args(["sweep", "--threads", threads, "--spec"])
            .arg(&spec_path)
            .arg("--out")
            .arg(dir)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
        let text = String::from_utf8_lossy(&out.stdout);
        assert!(text.contains("24 cells"), "{text}");
    }
    for file in ["cli_grid_cells.csv", "cli_grid_summary.json"] {
        let a = std::fs::read(dir1.join(file)).expect("output written");
        let b = std::fs::read(dir8.join(file)).expect("output written");
        assert_eq!(a, b, "{file} must be byte-identical across thread counts");
    }
    let csv = std::fs::read_to_string(dir1.join("cli_grid_cells.csv")).unwrap();
    assert!(csv.starts_with("cell,policy,ckpt_cost_scale,metric,"));
    // 24 cells x 7 replay metrics + header.
    assert_eq!(csv.lines().count(), 1 + 24 * 7, "{csv}");

    std::fs::remove_file(&spec_path).ok();
    std::fs::remove_dir_all(&dir1).ok();
    std::fs::remove_dir_all(&dir8).ok();
}

#[test]
fn exp_list_enumerates_every_registered_id_uniquely() {
    // The registry itself must be duplicate-free...
    let ids = cloud_ckpt::bench::registry::ids();
    let set: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(set.len(), ids.len(), "duplicate experiment ids: {ids:?}");
    assert_eq!(ids.len(), 26, "{ids:?}");
    // ...and `exp list` must present all of it.
    let out = cli().args(["exp", "list"]).output().expect("binary runs");
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    for id in &ids {
        assert!(text.contains(id), "exp list missing {id}:\n{text}");
    }
}

#[test]
fn registry_round_trip_has_paper_refs() {
    for exp in cloud_ckpt::bench::registry::all() {
        assert!(
            !exp.paper_ref().is_empty(),
            "{} has an empty paper_ref",
            exp.id()
        );
        assert!(!exp.claim().is_empty(), "{} has an empty claim", exp.id());
        assert_eq!(
            cloud_ckpt::bench::registry::find(exp.id()).map(|e| e.id()),
            Some(exp.id()),
            "find() does not round-trip {}",
            exp.id()
        );
    }
}

/// Parse the columns and data rows out of a frame's `.json` file without
/// a JSON dependency: the shared writer's layout is line-oriented.
fn frame_json_shape(json: &str) -> (Vec<String>, Vec<Vec<String>>) {
    let columns_line = json
        .lines()
        .find(|l| l.trim_start().starts_with("\"columns\":"))
        .expect("columns line");
    let inner = columns_line
        .trim()
        .trim_start_matches("\"columns\": [")
        .trim_end_matches("],");
    let columns: Vec<String> = inner
        .split(", ")
        .map(|c| c.trim_matches('"').to_string())
        .collect();
    let rows: Vec<Vec<String>> = json
        .lines()
        .filter(|l| l.trim_start().starts_with('['))
        .map(|l| {
            l.trim()
                .trim_start_matches('[')
                .trim_end_matches(',')
                .trim_end_matches(']')
                .split(", ")
                .map(|v| v.trim_matches('"').to_string())
                .collect()
        })
        .collect();
    (columns, rows)
}

#[test]
fn exp_run_emits_identical_frames_as_csv_and_json() {
    let dir_csv = std::env::temp_dir().join(format!("cloud_ckpt_exp_csv_{}", std::process::id()));
    let dir_json = std::env::temp_dir().join(format!("cloud_ckpt_exp_json_{}", std::process::id()));
    for (format, dir) in [("csv", &dir_csv), ("json", &dir_json)] {
        let out = cli()
            .args([
                "exp",
                "run",
                "table2_simultaneous",
                "--scale",
                "quick",
                "--format",
                format,
                "--out",
            ])
            .arg(dir)
            .output()
            .expect("binary runs");
        assert!(
            out.status.success(),
            "{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
    // The same frames, one file each, in both formats.
    let csv = std::fs::read_to_string(dir_csv.join("table2_simultaneous.csv")).unwrap();
    let json = std::fs::read_to_string(dir_json.join("table2_simultaneous.json")).unwrap();
    let csv_lines: Vec<&str> = csv.lines().collect();
    let csv_header: Vec<&str> = csv_lines[0].split(',').collect();
    let (json_columns, json_rows) = frame_json_shape(&json);
    assert_eq!(csv_header, json_columns, "column mismatch");
    assert_eq!(csv_lines.len() - 1, json_rows.len(), "row-count mismatch");
    // Cell-by-cell equality (CSV text == JSON value, quotes stripped).
    for (csv_row, json_row) in csv_lines[1..].iter().zip(&json_rows) {
        let csv_cells: Vec<&str> = csv_row.split(',').collect();
        assert_eq!(&csv_cells, json_row, "row values differ");
    }
    // The sweep cells frame rides along in both formats too.
    assert!(dir_csv.join("table2_simultaneous_cells.csv").exists());
    assert!(dir_json.join("table2_simultaneous_cells.json").exists());
    std::fs::remove_dir_all(&dir_csv).ok();
    std::fs::remove_dir_all(&dir_json).ok();
}

#[test]
fn exp_run_multiple_ids_emits_one_json_document() {
    let out = cli()
        .args([
            "exp",
            "run",
            "table4_op_cost",
            "table5_restart_cost",
            "--format",
            "json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    // One top-level document containing both experiments' frames, each
    // tagged with its source experiment.
    assert_eq!(text.matches("\"frames\": [").count(), 1, "{text}");
    assert!(text.trim_start().starts_with('{'), "{text}");
    assert!(
        text.contains("\"experiment\": \"table4_op_cost\""),
        "{text}"
    );
    assert!(
        text.contains("\"experiment\": \"table5_restart_cost\""),
        "{text}"
    );
    assert_eq!(text.matches('{').count(), text.matches('}').count());
}

#[test]
fn exp_run_table_format_persists_csv_files() {
    let dir = std::env::temp_dir().join(format!("cloud_ckpt_exp_tbl_{}", std::process::id()));
    let out = cli()
        .args(["exp", "run", "table4_op_cost", "--out"])
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Table stdout pairs with full-precision CSV files (never rounded
    // .txt), matching the legacy binaries.
    let csv = std::fs::read_to_string(dir.join("table4_op_cost.csv")).expect("csv written");
    assert!(csv.starts_with("memory_mb,paper_op_time_s,model_op_time_s"));
    assert!(!dir.join("table4_op_cost.txt").exists());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn exp_run_rejects_unknown_ids_and_bad_scale() {
    let out = cli()
        .args(["exp", "run", "fig99_nope"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("fig99_nope"), "{err}");
    assert!(err.contains("exp list"), "{err}");

    let out = cli()
        .args(["exp", "run", "table4_op_cost", "--scale", "huge"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("quick, day, month"), "{err}");
}

#[test]
fn bad_ckpt_scale_env_is_a_hard_error() {
    let out = cli()
        .args(["exp", "run", "table4_op_cost"])
        .env("CKPT_SCALE", "enormous")
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "unknown CKPT_SCALE must fail hard");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("CKPT_SCALE"), "{err}");
    assert!(err.contains("quick, day, month"), "{err}");

    let out = cli()
        .args(["exp", "run", "table4_op_cost"])
        .env("CKPT_SEED", "not-a-seed")
        .output()
        .expect("binary runs");
    assert!(!out.status.success(), "bad CKPT_SEED must fail hard");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("CKPT_SEED"),
        "stderr should name CKPT_SEED"
    );
}

#[test]
fn replay_supports_json_format_via_shared_writer() {
    let out = cli()
        .args([
            "replay", "--jobs", "150", "--seed", "3", "--policy", "formula3", "--format", "json",
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("\"frames\""), "{text}");
    assert!(text.contains("\"name\": \"replay_summary\""), "{text}");
    assert!(text.contains("\"avg WPR\""), "{text}");
}

#[test]
fn duplicate_and_unknown_flags_are_rejected() {
    let out = cli()
        .args(["replay", "--jobs", "10", "--jobs", "20"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("duplicate flag --jobs"), "{err}");
    // Flag mistakes are usage errors: the usage text follows.
    assert!(err.contains("USAGE:"), "{err}");

    let out = cli()
        .args(["replay", "--jbos", "10", "--polcy", "young"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jbos"), "{err}");
    assert!(err.contains("--polcy"), "{err}");
    assert!(err.contains("USAGE:"), "{err}");
}

#[test]
fn sweep_rejects_missing_or_bad_specs() {
    let out = cli()
        .args(["sweep", "--spec", "/nonexistent/spec.toml"])
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("cannot read spec"), "{err}");
    // A spec error is not a usage mistake: its error line stands alone.
    assert!(!err.contains("USAGE:"), "{err}");

    let bad = tmp("bad_spec");
    std::fs::write(&bad, "[axes]\npolicy = [\"zebra\"]\n").unwrap();
    let out = cli()
        .args(["sweep", "--spec"])
        .arg(&bad)
        .output()
        .expect("binary runs");
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("zebra"), "{err}");
    assert!(!err.contains("USAGE:"), "{err}");
    std::fs::remove_file(&bad).ok();
}

/// Sum of one metric's per-cell means in a sweep's long-format CSV
/// (`cell,<params…>,metric,count,mean,…`).
fn csv_metric_sum(csv: &str, metric: &str) -> f64 {
    let header: Vec<&str> = csv.lines().next().unwrap().split(',').collect();
    let col = |name: &str| header.iter().position(|h| *h == name).unwrap();
    let (metric_col, mean_col) = (col("metric"), col("mean"));
    csv.lines()
        .skip(1)
        .map(|line| line.split(',').collect::<Vec<_>>())
        .filter(|f| f[metric_col] == metric)
        .map(|f| f[mean_col].parse::<f64>().unwrap())
        .sum()
}

#[test]
fn progress_heartbeats_count_every_cluster_event() {
    let spec_path = tmp("progress_spec");
    std::fs::write(
        &spec_path,
        r#"
        [sweep]
        name = "progress"
        engine = "cluster"
        seed = 11
        jobs = 1000

        [workload]
        long_task_fraction = 0.0

        [cluster]
        n_hosts = 16
        host_mtbf_s = 7200

        [axes]
        policy = ["formula3", "none"]
        "#,
    )
    .unwrap();
    for shards in ["1", "4"] {
        let dir = std::env::temp_dir().join(format!(
            "cloud_ckpt_progress_{shards}_{}",
            std::process::id()
        ));
        let out = cli()
            .args(["sweep", "--progress", "--shards", shards, "--spec"])
            .arg(&spec_path)
            .arg("--out")
            .arg(&dir)
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "{stderr}");
        let last = stderr
            .lines()
            .rfind(|l| l.starts_with("progress:"))
            .unwrap_or_else(|| panic!("--shards {shards}: no progress line in {stderr}"));
        let reported: u64 = last
            .split(" | ")
            .find_map(|part| part.strip_suffix(" ev/s)"))
            .and_then(|part| part.split(' ').next())
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("--shards {shards}: no event count in {last:?}"));
        let csv = std::fs::read_to_string(dir.join("progress_cells.csv")).unwrap();
        let events = csv_metric_sum(&csv, "events");
        assert!(events > 0.0, "{csv}");
        assert_eq!(
            reported as f64, events,
            "--shards {shards}: final heartbeat {last:?} vs the CSV's events"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
    std::fs::remove_file(&spec_path).ok();
}

/// A task that needs more memory than any host has stalls the cluster
/// scheduler. The cell must fail with a named error, never export the
/// partial run as a healthy result.
#[test]
fn cluster_sweep_that_cannot_place_a_task_is_a_named_error() {
    let spec_path = tmp("stranded_spec");
    std::fs::write(
        &spec_path,
        r#"
        [sweep]
        name = "stranded"
        engine = "cluster"
        seed = 7
        jobs = 400

        [cluster]
        host_mem_mb = 400

        [axes]
        policy = ["formula3"]
        "#,
    )
    .unwrap();
    let dir = std::env::temp_dir().join(format!("cloud_ckpt_stranded_{}", std::process::id()));
    let out = cli()
        .args(["sweep", "--spec"])
        .arg(&spec_path)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    for needle in [
        "tasks were never placed",
        "n_hosts",
        "vms_per_host",
        "host_mem_mb",
    ] {
        assert!(stderr.contains(needle), "{needle:?} missing from {stderr}");
    }
    // The fault-isolated default quarantines the cell: no WPR row.
    let csv = std::fs::read_to_string(dir.join("stranded_cells.csv")).unwrap();
    assert!(csv.lines().next().unwrap().ends_with(",status"), "{csv}");
    assert!(!csv.contains(",wpr,"), "{csv}");
    assert!(csv.contains("never placed"), "{csv}");

    let strict = cli()
        .args(["sweep", "--strict", "--spec"])
        .arg(&spec_path)
        .arg("--out")
        .arg(&dir)
        .output()
        .expect("binary runs");
    assert!(!strict.status.success());
    let stderr = String::from_utf8_lossy(&strict.stderr);
    assert!(stderr.contains("tasks were never placed"), "{stderr}");
    assert!(!stderr.contains("key \"shards\""), "{stderr}");
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_file(&spec_path).ok();
}
