//! `cloud-ckpt` — command-line front end for the SC'13 checkpoint-restart
//! reproduction.
//!
//! ```text
//! cloud-ckpt plan     --te 441 --ckpt-cost 1 --mnof 2 [--mtbf 179]
//! cloud-ckpt generate --jobs 2000 --seed 7 --out trace.csv [--flips]
//! cloud-ckpt replay   --trace trace.csv --policy formula3 [--format json]
//! cloud-ckpt replay   --jobs 2000 --seed 7 --policy young  (generate inline)
//! cloud-ckpt sweep    --spec grid.toml [--threads 8] [--out results]
//! cloud-ckpt exp      list | run <id...> | all   (the experiment registry)
//! ```
//!
//! Argument parsing is hand-rolled (no CLI dependency); every subcommand
//! declares the exact flags it accepts, so typos, duplicates, and unknown
//! flags are hard errors instead of inert map entries.

use cloud_ckpt::bench::registry;
use cloud_ckpt::faults::{FaultPlan, FaultState, IoOp};
use cloud_ckpt::obs::{Phase, Telemetry};
use cloud_ckpt::policy::daly::daly_interval_count;
use cloud_ckpt::policy::optimal::{expected_wall_clock, optimal_interval_count};
use cloud_ckpt::policy::young::{young_interval, young_interval_count};
use cloud_ckpt::report::{row, write_telemetry, ExpOutput, Format, Frame, RunContext, Scale, Sink};
use cloud_ckpt::scenario::{
    ckpt, guarded_io, run_sweep_guarded, write_outputs, CheckpointConfig, FaultPolicy,
    SweepOptions, SweepSpec,
};
use cloud_ckpt::sim::metrics::{mean_wpr, with_structure, wpr_ecdf};
use cloud_ckpt::sim::policy::{Estimates, EstimatorKind, PolicyConfig};
use cloud_ckpt::sim::runner::{run_trace_with_plans, RunOptions};
use cloud_ckpt::trace::export;
use cloud_ckpt::trace::gen::{generate, JobStructure, Trace};
use cloud_ckpt::trace::plan::FailurePlanArena;
use cloud_ckpt::trace::spec::WorkloadSpec;
use cloud_ckpt::trace::stats::{failure_prone_jobs, trace_histories_from_plans};
use std::collections::HashMap;
use std::process::ExitCode;

const USAGE: &str = "\
cloud-ckpt — optimal cloud checkpointing (Di et al., SC'13) toolkit

USAGE:
  cloud-ckpt plan --te <s> --ckpt-cost <s> --mnof <n> [--mtbf <s>] [--restart-cost <s>]
      Compute checkpoint plans for one task under Formula (3), Young and Daly.

  cloud-ckpt generate --jobs <n> [--seed <u64>] [--flips] --out <file.csv>
      Generate a Google-like synthetic trace and write it as CSV.

  cloud-ckpt replay (--trace <file.csv> | --jobs <n> [--seed <u64>]) \\
                    [--policy formula3|young|daly|none] [--adaptive] \\
                    [--estimator oracle|priority|global] [--limit <s>] [--threads <n>] \\
                    [--format table|csv|json]
      Replay a trace under a policy and report WPR statistics through the
      shared frame writer.

  cloud-ckpt sweep --spec <file.toml> [--threads <n>] [--shards <n>] [--out <dir>] \\
                   [--checkpoint-dir <dir>] [--resume] \\
                   [--telemetry <dir>] [--progress] \\
                   [--inject <plan>] [--strict]
      Expand a declarative sweep spec into a scenario grid, evaluate every
      cell in parallel, and write per-cell CSV + JSON summaries.
      --checkpoint-dir persists each cell to an append-only store as it
      completes; --resume reopens that store, skips persisted cells, and
      evaluates only the missing ones — outputs are byte-identical to an
      uninterrupted run at any thread count.
      --telemetry writes a deterministic counter frame plus wall-clock
      phase timings to <dir>; --progress streams ~2 Hz heartbeats to
      stderr. Neither changes any simulation output byte.
      --shards partitions every cluster-engine replay into <n> host-group
      shards, runs each to completion in parallel and folds the results
      once in shard order. Results depend on the shard count (it is replay
      identity), never on the thread count; --shards 1 is the single
      engine. A cluster replay that cannot place every task (some task
      needs more than host_mem_mb) fails its cell with a named error.
      --inject arms a deterministic fault plan, e.g.
      \"panic@cell=7; io_error@write=3:times=2\".
      Failing cells retry with backoff, then quarantine with NaN metrics
      and a `status` column while the rest of the grid completes; a run
      health summary goes to stderr. --strict restores fail-fast (first
      failure aborts, no retries).

  cloud-ckpt exp list [--format table|csv|json]
      List every registered experiment (id, paper figure/table, claim).

  cloud-ckpt exp run <id...> [--scale quick|day|month|stress] [--seed <u64>] \\
                     [--format table|csv|json] [--out <dir>] [--threads <n>] \\
                     [--shards <n>] [--deny-empty] [--telemetry <dir>] [--progress]
      Run one or more registered experiments; frames go to stdout in the
      chosen format and, with --out, to one file per frame. --telemetry,
      --progress and --shards work as in `sweep` (one batch-wide telemetry
      bundle; --shards applies to every cluster-engine replay).

  cloud-ckpt exp all [same flags as exp run]
      Run the whole registry in paper order.

  cloud-ckpt help
      Show this message.
";

/// Why a command failed.
enum CliError {
    /// A mistake in choosing the command or its flags: printed with the
    /// usage text.
    Usage(String),
    /// Any other failure: printed as its `error:` line alone.
    Failed(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> Self {
        CliError::Failed(msg)
    }
}

/// The exact flags one subcommand accepts.
struct FlagSpec {
    /// Flags that take a value (`--key value`).
    value: &'static [&'static str],
    /// Boolean flags (`--key`).
    boolean: &'static [&'static str],
}

const PLAN_FLAGS: FlagSpec = FlagSpec {
    value: &["te", "ckpt-cost", "mnof", "mtbf", "restart-cost"],
    boolean: &[],
};
const GENERATE_FLAGS: FlagSpec = FlagSpec {
    value: &["jobs", "seed", "out"],
    boolean: &["flips"],
};
const REPLAY_FLAGS: FlagSpec = FlagSpec {
    value: &[
        "trace",
        "jobs",
        "seed",
        "policy",
        "estimator",
        "limit",
        "threads",
        "format",
    ],
    boolean: &["adaptive"],
};
const SWEEP_FLAGS: FlagSpec = FlagSpec {
    value: &[
        "spec",
        "threads",
        "shards",
        "out",
        "telemetry",
        "checkpoint-dir",
        "inject",
    ],
    boolean: &["progress", "resume", "strict"],
};
const EXP_LIST_FLAGS: FlagSpec = FlagSpec {
    value: &["format"],
    boolean: &[],
};
const EXP_RUN_FLAGS: FlagSpec = FlagSpec {
    value: &[
        "scale",
        "seed",
        "format",
        "out",
        "threads",
        "shards",
        "telemetry",
    ],
    boolean: &["deny-empty", "progress"],
};

/// Parse `--flag [value]` arguments against a subcommand's flag spec.
/// Duplicate flags are errors; unknown flags are collected and reported
/// together, naming the accepted set.
fn parse_flags(args: &[String], spec: &FlagSpec) -> Result<HashMap<String, String>, String> {
    let mut map = HashMap::new();
    let mut unknown: Vec<String> = Vec::new();
    let mut i = 0;
    while i < args.len() {
        let a = &args[i];
        let Some(key) = a.strip_prefix("--") else {
            return Err(format!("unexpected argument {a:?}"));
        };
        let is_bool = spec.boolean.contains(&key);
        let is_value = spec.value.contains(&key);
        if !is_bool && !is_value {
            unknown.push(format!("--{key}"));
            // Skip a trailing value so every unknown flag is reported.
            if args.get(i + 1).is_some_and(|v| !v.starts_with("--")) {
                i += 2;
            } else {
                i += 1;
            }
            continue;
        }
        if map.contains_key(key) {
            return Err(format!("duplicate flag --{key}"));
        }
        if is_bool {
            map.insert(key.to_string(), "true".to_string());
            i += 1;
        } else {
            // A following `--flag` token is a forgotten value, not a
            // value: swallowing it would silently drop the next flag.
            let value = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => v.clone(),
                _ => return Err(format!("flag --{key} needs a value")),
            };
            map.insert(key.to_string(), value);
            i += 2;
        }
    }
    if !unknown.is_empty() {
        let accepted: Vec<String> = spec
            .value
            .iter()
            .chain(spec.boolean.iter())
            .map(|f| format!("--{f}"))
            .collect();
        return Err(format!(
            "unknown flag{} {} (accepted: {})",
            if unknown.len() > 1 { "s" } else { "" },
            unknown.join(", "),
            accepted.join(", ")
        ));
    }
    Ok(map)
}

/// [`parse_flags`] for a command: a failure is a usage error.
fn command_flags(args: &[String], spec: &FlagSpec) -> Result<HashMap<String, String>, CliError> {
    parse_flags(args, spec).map_err(CliError::Usage)
}

fn need<T: std::str::FromStr>(flags: &HashMap<String, String>, key: &str) -> Result<T, CliError> {
    let value = flags
        .get(key)
        .ok_or_else(|| CliError::Usage(format!("missing required flag --{key}")))?;
    Ok(value
        .parse()
        .map_err(|_| format!("flag --{key}: cannot parse {value:?}"))?)
}

fn opt<T: std::str::FromStr>(
    flags: &HashMap<String, String>,
    key: &str,
    default: T,
) -> Result<T, String> {
    match flags.get(key) {
        None => Ok(default),
        Some(v) => v
            .parse()
            .map_err(|_| format!("flag --{key}: cannot parse {v:?}")),
    }
}

fn format_flag(flags: &HashMap<String, String>) -> Result<Format, String> {
    match flags.get("format") {
        None => Ok(Format::Table),
        Some(f) => Format::parse(f).map_err(|e| format!("flag --format: {e}")),
    }
}

fn cmd_plan(flags: HashMap<String, String>) -> Result<(), CliError> {
    let te: f64 = need(&flags, "te")?;
    let c: f64 = need(&flags, "ckpt-cost")?;
    let mnof: f64 = need(&flags, "mnof")?;
    let r: f64 = opt(&flags, "restart-cost", 0.0)?;

    let x = optimal_interval_count(te, c, mnof).map_err(|e| e.to_string())?;
    let e_tw = expected_wall_clock(te, c, r, mnof, x.rounded()).map_err(|e| e.to_string())?;
    println!("Formula (3) [paper]:");
    println!(
        "  x* = {:.3} -> {} intervals of {:.2} s ({} checkpoints)",
        x.continuous(),
        x.rounded(),
        x.interval_length(te),
        x.checkpoint_count()
    );
    println!("  E(Tw) = {e_tw:.2} s (vs {te} s productive)");

    if let Some(mtbf_s) = flags.get("mtbf") {
        let mtbf: f64 = mtbf_s.parse().map_err(|_| "bad --mtbf".to_string())?;
        let tc = young_interval(c, mtbf).map_err(|e| e.to_string())?;
        let xy = young_interval_count(te, c, mtbf).map_err(|e| e.to_string())?;
        let xd = daly_interval_count(te, c, mtbf).map_err(|e| e.to_string())?;
        println!("Young:   Tc = {tc:.2} s -> {xy} intervals");
        println!("Daly:    {xd} intervals");
        let e_young = expected_wall_clock(te, c, r, mnof, xy).map_err(|e| e.to_string())?;
        println!("  E(Tw) under Young's count (true E(Y) = {mnof}): {e_young:.2} s");
    }
    Ok(())
}

fn cmd_generate(flags: HashMap<String, String>) -> Result<(), CliError> {
    let jobs: usize = need(&flags, "jobs")?;
    let seed: u64 = opt(&flags, "seed", cloud_ckpt::report::DEFAULT_SEED)?;
    let out: String = need(&flags, "out")?;
    let mut spec = WorkloadSpec::google_like(jobs);
    if flags.contains_key("flips") {
        spec = spec.with_priority_flips();
    }
    let trace = generate(&spec, seed).map_err(|e| e.to_string())?;
    export::write_csv(&trace, &out).map_err(|e| e.to_string())?;
    println!(
        "wrote {} jobs / {} tasks (seed {seed}) to {out}",
        trace.jobs.len(),
        trace.task_count()
    );
    Ok(())
}

fn load_trace(flags: &HashMap<String, String>) -> Result<Trace, CliError> {
    if let Some(path) = flags.get("trace") {
        Ok(export::read_csv(path).map_err(|e| e.to_string())?)
    } else {
        let jobs: usize = need(flags, "jobs")?;
        let seed: u64 = opt(flags, "seed", cloud_ckpt::report::DEFAULT_SEED)?;
        Ok(generate(&WorkloadSpec::google_like(jobs), seed).map_err(|e| e.to_string())?)
    }
}

fn cmd_replay(flags: HashMap<String, String>) -> Result<(), CliError> {
    let trace = load_trace(&flags)?;
    let limit: f64 = opt(&flags, "limit", f64::INFINITY)?;
    let format = format_flag(&flags)?;
    let estimator = match flags.get("estimator").map(String::as_str) {
        None | Some("priority") => EstimatorKind::PerPriority { limit },
        Some("oracle") => EstimatorKind::Oracle,
        Some("global") => EstimatorKind::Global { limit },
        Some(other) => return Err(format!("unknown estimator {other:?}").into()),
    };
    let base = match flags.get("policy").map(String::as_str) {
        None | Some("formula3") => PolicyConfig::formula3(),
        Some("young") => PolicyConfig::young(),
        Some("daly") => PolicyConfig::daly(),
        Some("none") => PolicyConfig::none(),
        Some(other) => return Err(format!("unknown policy {other:?}").into()),
    };
    let cfg = base
        .with_estimator(estimator)
        .with_adaptivity(flags.contains_key("adaptive"));
    let threads: usize = opt(&flags, "threads", 0)?;

    // One sampling pass: the histories and the replay read one arena.
    let plans = FailurePlanArena::build(&trace);
    let records = trace_histories_from_plans(&trace, &plans);
    let estimates = Estimates::from_records(&records);
    let sample = failure_prone_jobs(&records, 0.5);
    let recs: Vec<_> =
        run_trace_with_plans(&trace, &estimates, &cfg, RunOptions { threads }, &plans)
            .into_iter()
            .filter(|r| sample.contains(&r.job_id))
            .collect();
    let Some(e) = wpr_ecdf(&recs) else {
        return Err(CliError::Failed(
            "no failure-prone sample jobs in this trace".into(),
        ));
    };

    // One summary frame, rendered by the shared writer: the replay report
    // is machine-readable in every format, like any registered experiment.
    let mut frame = Frame::new(
        "replay_summary",
        vec![
            "policy",
            "estimator",
            "sample_jobs",
            "total_jobs",
            "avg WPR",
            "st_wpr",
            "bot_wpr",
            "p_wpr_below_088",
            "p_wpr_above_095",
            "min_wpr",
            "med_wpr",
        ],
    )
    .with_title(format!(
        "replay: policy {} | estimator {:?}",
        cfg.kind.label(),
        cfg.estimator
    ));
    frame.push_row(row![
        cfg.kind.label(),
        format!("{:?}", cfg.estimator),
        recs.len(),
        trace.jobs.len(),
        mean_wpr(&recs),
        mean_wpr(&with_structure(&recs, JobStructure::Sequential)),
        mean_wpr(&with_structure(&recs, JobStructure::BagOfTasks)),
        e.cdf(0.88),
        1.0 - e.cdf(0.95),
        e.min(),
        e.quantile(0.5),
    ]);
    let mut out = ExpOutput::new();
    out.push(frame);
    Sink::new(format).emit(&out).map_err(|e| e.to_string())?;
    Ok(())
}

/// Build the optional telemetry bundle from `--telemetry` / `--progress`.
/// Returns the bundle (if either flag is present) and the export
/// directory (if `--telemetry` carried one). `None` means every engine
/// runs its uninstrumented code path.
fn telemetry_flags(
    flags: &HashMap<String, String>,
) -> (Option<std::sync::Arc<Telemetry>>, Option<String>) {
    let dir = flags.get("telemetry").cloned();
    let progress = flags.contains_key("progress");
    if dir.is_none() && !progress {
        return (None, None);
    }
    let telemetry = if progress {
        Telemetry::new().with_progress()
    } else {
        Telemetry::new()
    };
    (Some(std::sync::Arc::new(telemetry)), dir)
}

/// Flush a telemetry bundle: final heartbeat, then the counter frame and
/// phase timings to `dir` (when `--telemetry` gave one).
fn finish_telemetry(telemetry: &Telemetry, dir: Option<&str>) -> Result<(), String> {
    if let Some(progress) = &telemetry.progress {
        progress.finish();
    }
    if let Some(dir) = dir {
        let paths = write_telemetry(telemetry, dir)
            .map_err(|e| format!("cannot write telemetry to {dir:?}: {e}"))?;
        for p in paths {
            eprintln!("telemetry: wrote {}", p.display());
        }
    }
    Ok(())
}

/// Build the optional [`CheckpointConfig`] from `--checkpoint-dir` /
/// `--resume`. A kill for kill-and-resume tests is injected with
/// `--inject 'crash@cells=N'`, which feeds the same abort.
fn checkpoint_flags(flags: &HashMap<String, String>) -> Result<Option<CheckpointConfig>, String> {
    let resume = flags.contains_key("resume");
    let Some(dir) = flags.get("checkpoint-dir") else {
        if resume {
            return Err("--resume needs --checkpoint-dir (nowhere to resume from)".into());
        }
        return Ok(None);
    };
    Ok(Some(CheckpointConfig {
        dir: dir.into(),
        resume,
        crash_after_cells: None,
    }))
}

/// Build the [`FaultPolicy`] from `--inject` / `--strict`. Without
/// `--inject` the policy carries an empty plan (nothing injected) and
/// cells still quarantine on genuine failures unless `--strict` asks for
/// the historical fail-fast discipline.
fn fault_flags(flags: &HashMap<String, String>) -> Result<FaultPolicy, String> {
    let plan = match flags.get("inject") {
        Some(text) => FaultPlan::parse(text).map_err(|e| format!("flag --inject: {e}"))?,
        None => FaultPlan::default(),
    };
    Ok(FaultPolicy {
        faults: std::sync::Arc::new(FaultState::new(plan)),
        strict: flags.contains_key("strict"),
    })
}

/// Parse a `--shards` value: a positive shard count (the per-shard
/// host-count upper bound is checked at execution time, where the final
/// fleet size is known).
fn parse_shards_flag(s: &str) -> Result<usize, String> {
    let shards: usize = s
        .parse()
        .map_err(|_| format!("flag --shards: cannot parse {s:?} as a shard count"))?;
    if shards == 0 {
        return Err("flag --shards: must be >= 1".to_string());
    }
    Ok(shards)
}

fn cmd_sweep(flags: HashMap<String, String>) -> Result<(), CliError> {
    let spec_path: String = need(&flags, "spec")?;
    let out_dir: String = opt(&flags, "out", "results".to_string())?;
    let checkpoint = checkpoint_flags(&flags)?;
    let policy = fault_flags(&flags)?;
    if policy.faults.crash_after_cells().is_some() && checkpoint.is_none() {
        return Err(CliError::Failed(
            "the fault plan has a crash@cells directive but --checkpoint-dir is not set; \
             the crash hook only makes sense for a checkpointed sweep"
                .into(),
        ));
    }
    let (telemetry, telemetry_dir) = telemetry_flags(&flags);
    let parse_spec = || -> Result<SweepSpec, String> {
        let text = std::fs::read_to_string(&spec_path)
            .map_err(|e| format!("cannot read spec {spec_path:?}: {e}"))?;
        SweepSpec::from_str(&text).map_err(|e| e.to_string())
    };
    let mut sweep = match &telemetry {
        Some(t) => t.timers.time(Phase::Parse, parse_spec)?,
        None => parse_spec()?,
    };
    let threads: usize = opt(&flags, "threads", sweep.threads)?;
    if let Some(s) = flags.get("shards") {
        sweep.base.shards = parse_shards_flag(s)?;
    }

    let n = sweep.grid_size();
    let axes: Vec<String> = sweep
        .axes
        .iter()
        .map(|a| format!("{}({})", a.param, a.values.len()))
        .collect();
    println!(
        "sweep {:?}: {} cells over {} [engine {}, seed {}]",
        sweep.name,
        n,
        if axes.is_empty() {
            "no axes".to_string()
        } else {
            axes.join(" x ")
        },
        sweep.base.engine.label(),
        sweep.base.seed,
    );

    let start = std::time::Instant::now();
    let (result, report) = run_sweep_guarded(
        &sweep,
        SweepOptions { threads },
        telemetry.as_deref(),
        checkpoint.as_ref(),
        &policy,
    )
    .map_err(|e| e.to_string())?;
    if let Some(report) = &report {
        let mut lines = Vec::new();
        ckpt::report_lines(report, &mut lines);
        for line in lines {
            eprintln!("checkpoint: {line}");
        }
        println!(
            "checkpoint: {} ({} loaded, {} evaluated)",
            report.store_path.display(),
            report.loaded,
            report.evaluated,
        );
    }
    let elapsed = start.elapsed();

    // Persist before printing the report: the exports must land even if
    // stdout goes away mid-print (e.g. piped through `head`). Export
    // faults retry like any other guarded I/O.
    let write = || {
        guarded_io(
            &policy,
            telemetry.as_deref(),
            IoOp::Export,
            || "writing outputs".to_string(),
            |e: &std::io::Error| Some(e.kind()),
            |_| write_outputs(&sweep, &result, &out_dir),
        )
    };
    let written = match &telemetry {
        Some(t) => t.timers.time(Phase::Export, write),
        None => write(),
    };
    // Degraded-run reporting goes to stderr, never stdout: a clean run's
    // stdout must stay byte-identical whether or not a plan was armed.
    // It comes after the export, so it covers every guarded operation.
    if result.health.degraded() || !policy.faults.is_empty() {
        let health = policy
            .faults
            .health(result.health.cells_ok, result.health.cells_quarantined);
        eprintln!("health: {}", health.summary());
    }
    let (csv, json) = written?;
    if let Some(t) = &telemetry {
        finish_telemetry(t, telemetry_dir.as_deref())?;
    }

    // Compact per-cell report: axis assignments plus the first metric.
    let shown = result.cells.len().min(48);
    for cell in result.cells.iter().take(shown) {
        let params: Vec<String> = cell
            .params
            .iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect();
        if let Some((name, s)) = cell.metrics.first() {
            println!(
                "  [{:>3}] {:<52} {} mean {:.4} p50 {:.4} p99 {:.4} (n={})",
                cell.index,
                params.join(" "),
                name,
                s.mean,
                s.p50,
                s.p99,
                s.count
            );
        }
    }
    if result.cells.len() > shown {
        println!("  ... and {} more cells", result.cells.len() - shown);
    }

    println!(
        "{} cells in {:.2}s ({:.1} cells/s, {} threads requested)",
        n,
        elapsed.as_secs_f64(),
        n as f64 / elapsed.as_secs_f64().max(1e-9),
        threads,
    );
    println!("wrote {} and {}", csv.display(), json.display());
    Ok(())
}

/// Run one or more registered experiments under flags shared by
/// `exp run` and `exp all`.
fn run_experiments(ids: &[String], flags: &HashMap<String, String>) -> Result<(), String> {
    // Resolve every id up front so one typo fails before hours of work.
    let mut exps = Vec::new();
    let mut unknown = Vec::new();
    for id in ids {
        match registry::find(id) {
            Some(e) => exps.push(e),
            None => unknown.push(id.as_str()),
        }
    }
    if !unknown.is_empty() {
        return Err(format!(
            "unknown experiment id(s): {} (see `cloud-ckpt exp list`)",
            unknown.join(", ")
        ));
    }

    let format = format_flag(flags)?;
    let deny_empty = flags.contains_key("deny-empty");
    let threads: usize = opt(flags, "threads", 0)?;
    let shards = match flags.get("shards") {
        Some(s) => Some(parse_shards_flag(s)?),
        None => None,
    };
    // One bundle for the whole batch: counters and phase timers aggregate
    // across experiments, and the heartbeat line spans the run.
    let (telemetry, telemetry_dir) = telemetry_flags(flags);
    // Files keep full precision: table stdout pairs with CSV files (the
    // legacy binary behavior); csv/json stdout pairs with same-format files.
    let mut sink = Sink::new(format);
    if format == Format::Table {
        sink = sink.with_file_format(Format::Csv);
    }
    if let Some(dir) = flags.get("out") {
        sink = sink.with_dir(dir);
    }

    // JSON stdout must stay one parseable document even for `exp all`:
    // frames accumulate (tagged with their experiment id) and are emitted
    // once at the end. A failing experiment doesn't abort the batch —
    // later experiments still run and completed frames still land;
    // failures are collected and reported together (non-zero exit).
    let mut combined = ExpOutput::new();
    let mut failures: Vec<String> = Vec::new();
    for exp in &exps {
        // Environment first (hard errors on bad CKPT_SCALE / CKPT_SEED),
        // then explicit flags override.
        let mut ctx = RunContext::from_env(exp.default_scale())?.with_threads(threads);
        if let Some(s) = flags.get("scale") {
            ctx.scale = Scale::parse(s).map_err(|e| format!("flag --scale: {e}"))?;
        }
        if let Some(s) = flags.get("seed") {
            ctx.seed = s
                .parse()
                .map_err(|_| format!("flag --seed: cannot parse {s:?}"))?;
        }
        ctx.sink = sink.clone();
        if let Some(t) = &telemetry {
            ctx = ctx.with_telemetry(t.clone());
        }
        if let Some(s) = shards {
            ctx = ctx.with_shards(s);
        }

        if exps.len() > 1 && format == Format::Table {
            println!("\n### {} ({})", exp.id(), exp.paper_ref());
        }
        let output = match exp.run(&ctx) {
            Ok(output) => output,
            Err(e) => {
                eprintln!("error: {}: {e}", exp.id());
                failures.push(format!("{}: {e}", exp.id()));
                continue;
            }
        };
        if deny_empty {
            let empty = if output.frames.is_empty() {
                Some("produced no frames".to_string())
            } else {
                output
                    .frames
                    .iter()
                    .find(|f| f.is_empty())
                    .map(|f| format!("frame {:?} is empty", f.name))
            };
            if let Some(why) = empty {
                eprintln!("error: {}: {why}", exp.id());
                failures.push(format!("{}: {why}", exp.id()));
                continue;
            }
        }
        if format == Format::Json {
            for mut frame in output.frames {
                frame.metadata.push(("experiment".into(), exp.id().into()));
                combined.push(frame);
            }
            for note in output.notes {
                combined.note(if exps.len() > 1 {
                    format!("{}: {note}", exp.id())
                } else {
                    note
                });
            }
        } else {
            let paths = ctx.sink.emit(&output).map_err(|e| e.to_string())?;
            if format == Format::Table {
                for p in paths {
                    println!("wrote {}", p.display());
                }
            }
        }
    }
    if format == Format::Json {
        sink.emit(&combined).map_err(|e| e.to_string())?;
    }
    if let Some(t) = &telemetry {
        finish_telemetry(t, telemetry_dir.as_deref())?;
    }
    if !failures.is_empty() {
        return Err(format!(
            "{} of {} experiment(s) failed: {}",
            failures.len(),
            exps.len(),
            failures.join("; ")
        ));
    }
    Ok(())
}

fn cmd_exp(args: &[String]) -> Result<(), CliError> {
    let Some(sub) = args.first().map(String::as_str) else {
        return Err(CliError::Usage(
            "exp needs a subcommand: list | run <id...> | all".into(),
        ));
    };
    match sub {
        "list" => {
            let flags = command_flags(&args[1..], &EXP_LIST_FLAGS)?;
            let format = format_flag(&flags)?;
            let mut out = ExpOutput::new();
            out.push(registry::catalog());
            Sink::new(format).emit(&out).map_err(|e| e.to_string())?;
            Ok(())
        }
        "run" => {
            let mut ids = Vec::new();
            let mut rest = 1;
            while rest < args.len() && !args[rest].starts_with("--") {
                ids.push(args[rest].clone());
                rest += 1;
            }
            if ids.is_empty() {
                return Err(CliError::Usage(
                    "exp run needs at least one experiment id (see `cloud-ckpt exp list`)".into(),
                ));
            }
            let flags = command_flags(&args[rest..], &EXP_RUN_FLAGS)?;
            Ok(run_experiments(&ids, &flags)?)
        }
        "all" => {
            let flags = command_flags(&args[1..], &EXP_RUN_FLAGS)?;
            let ids: Vec<String> = registry::ids().iter().map(|s| s.to_string()).collect();
            Ok(run_experiments(&ids, &flags)?)
        }
        other => Err(CliError::Usage(format!(
            "unknown exp subcommand {other:?} (accepted: list, run, all)"
        ))),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let result = match cmd {
        "plan" => command_flags(&args[1..], &PLAN_FLAGS).and_then(cmd_plan),
        "generate" => command_flags(&args[1..], &GENERATE_FLAGS).and_then(cmd_generate),
        "replay" => command_flags(&args[1..], &REPLAY_FLAGS).and_then(cmd_replay),
        "sweep" => command_flags(&args[1..], &SWEEP_FLAGS).and_then(cmd_sweep),
        "exp" => cmd_exp(&args[1..]),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command {other:?}"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(msg)) => {
            eprintln!("error: {msg}\n");
            eprint!("{USAGE}");
            ExitCode::FAILURE
        }
        Err(CliError::Failed(msg)) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_flags_accepts_declared_flags() {
        let flags = parse_flags(
            &args(&["--jobs", "10", "--flips", "--out", "t.csv"]),
            &GENERATE_FLAGS,
        )
        .unwrap();
        assert_eq!(flags["jobs"], "10");
        assert_eq!(flags["flips"], "true");
        assert_eq!(flags["out"], "t.csv");
    }

    #[test]
    fn parse_flags_rejects_duplicates() {
        let err =
            parse_flags(&args(&["--jobs", "10", "--jobs", "20"]), &GENERATE_FLAGS).unwrap_err();
        assert!(err.contains("duplicate flag --jobs"), "{err}");
        let err = parse_flags(&args(&["--flips", "--flips"]), &GENERATE_FLAGS).unwrap_err();
        assert!(err.contains("duplicate flag --flips"), "{err}");
    }

    #[test]
    fn parse_flags_reports_all_unknown_flags() {
        // Two typos at once: both must be reported, with the accepted set.
        let err = parse_flags(
            &args(&["--sed", "7", "--polcy", "young", "--jobs", "10"]),
            &REPLAY_FLAGS,
        )
        .unwrap_err();
        assert!(err.contains("--sed"), "{err}");
        assert!(err.contains("--polcy"), "{err}");
        assert!(err.contains("--policy"), "{err}");
        assert!(err.starts_with("unknown flags"), "{err}");
    }

    #[test]
    fn parse_flags_rejects_missing_value_and_positional() {
        let err = parse_flags(&args(&["--jobs"]), &GENERATE_FLAGS).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err = parse_flags(&args(&["oops"]), &GENERATE_FLAGS).unwrap_err();
        assert!(err.contains("unexpected argument"), "{err}");
    }

    #[test]
    fn value_flag_does_not_swallow_a_following_flag() {
        // `--out --deny-empty` is a forgotten value, not a directory
        // named "--deny-empty" with the guard silently dropped.
        let err = parse_flags(&args(&["--out", "--deny-empty"]), &EXP_RUN_FLAGS).unwrap_err();
        assert!(err.contains("--out needs a value"), "{err}");
        // Negative numbers are still fine as values.
        let flags = parse_flags(&args(&["--limit", "-1"]), &REPLAY_FLAGS).unwrap();
        assert_eq!(flags["limit"], "-1");
    }

    #[test]
    fn unknown_boolean_like_flag_is_reported_alone() {
        let err = parse_flags(&args(&["--adaptve"]), &REPLAY_FLAGS).unwrap_err();
        assert!(err.starts_with("unknown flag --adaptve"), "{err}");
    }

    #[test]
    fn telemetry_flags_parse_on_sweep_and_exp() {
        for spec in [&SWEEP_FLAGS, &EXP_RUN_FLAGS] {
            let flags =
                parse_flags(&args(&["--telemetry", "tel_dir", "--progress"]), spec).unwrap();
            assert_eq!(flags["telemetry"], "tel_dir");
            assert_eq!(flags["progress"], "true");
            // --telemetry takes a directory; forgetting it is an error,
            // not a silently-swallowed next flag.
            let err = parse_flags(&args(&["--telemetry", "--progress"]), spec).unwrap_err();
            assert!(err.contains("--telemetry needs a value"), "{err}");
            let err = parse_flags(&args(&["--progress", "--progress"]), spec).unwrap_err();
            assert!(err.contains("duplicate flag --progress"), "{err}");
        }
        // Other subcommands don't grow the flags implicitly.
        let err = parse_flags(&args(&["--progress"]), &REPLAY_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag --progress"), "{err}");
    }

    #[test]
    fn shards_flag_parses_on_sweep_and_exp() {
        for spec in [&SWEEP_FLAGS, &EXP_RUN_FLAGS] {
            let flags = parse_flags(&args(&["--shards", "4"]), spec).unwrap();
            assert_eq!(flags["shards"], "4");
        }
        assert_eq!(parse_shards_flag("4").unwrap(), 4);
        assert_eq!(parse_shards_flag("1").unwrap(), 1);
        let err = parse_shards_flag("0").unwrap_err();
        assert!(err.contains("must be >= 1"), "{err}");
        let err = parse_shards_flag("four").unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
        // Subcommands with no cluster replays don't accept the flag.
        let err = parse_flags(&args(&["--shards", "4"]), &REPLAY_FLAGS).unwrap_err();
        assert!(err.contains("unknown flag --shards"), "{err}");
    }

    #[test]
    fn checkpoint_flags_require_a_directory() {
        // --resume alone has nowhere to resume from.
        let flags = parse_flags(&args(&["--resume"]), &SWEEP_FLAGS).unwrap();
        let err = checkpoint_flags(&flags).unwrap_err();
        assert!(err.contains("--checkpoint-dir"), "{err}");

        let flags =
            parse_flags(&args(&["--checkpoint-dir", "ck", "--resume"]), &SWEEP_FLAGS).unwrap();
        let cfg = checkpoint_flags(&flags).unwrap().expect("config built");
        assert_eq!(cfg.dir, std::path::PathBuf::from("ck"));
        assert!(cfg.resume);

        // No flags, no config (and no store is ever touched).
        assert!(checkpoint_flags(&HashMap::new()).unwrap().is_none());
    }

    #[test]
    fn telemetry_flags_build_the_right_bundle() {
        let (none, dir) = telemetry_flags(&HashMap::new());
        assert!(none.is_none() && dir.is_none());

        let mut flags = HashMap::new();
        flags.insert("telemetry".to_string(), "tdir".to_string());
        let (t, dir) = telemetry_flags(&flags);
        let t = t.expect("bundle built");
        assert!(t.progress.is_none(), "--progress off means no heartbeats");
        assert_eq!(dir.as_deref(), Some("tdir"));

        // --progress alone still instruments (heartbeats without export).
        let mut flags = HashMap::new();
        flags.insert("progress".to_string(), "true".to_string());
        let (t, dir) = telemetry_flags(&flags);
        assert!(t.expect("bundle built").progress.is_some());
        assert!(dir.is_none());
    }
}
