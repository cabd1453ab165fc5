//! The repository's benchmark: four workloads over the fast replay, the
//! cluster DES (unsharded and sharded) and the analytic grid with its
//! checkpoint store, each checked for correct output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path perfbench/Cargo.toml -- --self-test
//! ```
//!
//! `--trace 0` prints the end-to-end metrics (medians over repetitions
//! measured for `--seconds`); `--trace 1` prints the per-layer metrics of
//! a traced run, with the untraced repetitions of the same process as the
//! base of the tracing overhead. The last stdout line is one JSON object;
//! the process exits non-zero if any output check failed. Records and
//! spans are written under `.perfbench_out/` in the working directory.
//! See `perfbench/METRICS.md` for the metric map.

mod check;
mod probes;
mod spans;
mod workload;

use check::{check_rep, Checks, Expect, WorkCounts};
use ckpt_obs::{Counter, Counters, Observer};
use spans::Tracer;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workload::{Kind, Setup, Steps, Untraced};

/// Per-layer metrics (`--trace 1`), with units.
const PER_LAYER: [(&str, &str); 51] = [
    ("sweep.parse_s", "s"),
    ("sweep.expand_s", "s"),
    ("trace.generate_s", "s"),
    ("trace.tasks", "count"),
    ("trace.arena_build_s", "s"),
    ("trace.arena_kills", "count"),
    ("trace.histories_s", "s"),
    ("policy.estimates_s", "s"),
    ("policy.plan_task_ns", "ns"),
    ("task_sim.simulate_ns", "ns"),
    ("task_sim.checkpoint_ns", "ns"),
    ("task_sim.checkpoints", "count"),
    ("task_sim.kills", "count"),
    ("task_sim.aborted_ratio", "ratio"),
    ("runner.replay_s", "s"),
    ("runner.stream_replay_s", "s"),
    ("runner.jobs", "count"),
    ("runner.parallel_eff", "ratio"),
    ("sketch.fold_s", "s"),
    ("sketch.merge_s", "s"),
    ("des.run_s", "s"),
    ("des.events", "count"),
    ("des.ns_per_event", "ns"),
    ("des.events_scheduled", "count"),
    ("des.stale_skips", "count"),
    ("des.stale_ratio", "ratio"),
    ("des.task_kills", "count"),
    ("des.host_failures", "count"),
    ("des.checkpoints_written", "count"),
    ("des.checkpoints_aborted", "count"),
    ("des.heap_peak", "count"),
    ("shard.run_s", "s"),
    ("shard.windows", "count"),
    ("shard.merges", "count"),
    ("shard.speedup", "ratio"),
    ("exec.sweep_s", "s"),
    ("exec.persist_s", "s"),
    ("exec.cell_overhead_us", "us"),
    ("codec.encode_us", "us"),
    ("codec.decode_us", "us"),
    ("store.append_us", "us"),
    ("store.open_s", "s"),
    ("store.sync_s", "s"),
    ("store.bytes", "bytes"),
    ("export.csv_s", "s"),
    ("export.json_s", "s"),
    ("export.bytes", "bytes"),
    ("obs.replay_overhead", "ratio"),
    ("obs.des_overhead", "ratio"),
    ("tracing.overhead", "ratio"),
    ("tracing.coverage", "ratio"),
];

/// Set-up repeats at least this many times, and until this much time has
/// gone into it, so its median is steady even when one set-up is short.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MIN_SECS: f64 = 0.5;
/// Timed repetitions never fall below this count, whatever `--seconds` is.
const MIN_REPS: usize = 3;

const OUT_DIR: &str = ".perfbench_out";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Option<Args>, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--self-test") {
        return Ok(None);
    }
    let get = |flag: &str| -> Result<String, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        argv.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let name = get("--workload")?;
    let kind = Kind::parse(&name).ok_or_else(|| {
        let names: Vec<_> = workload::ALL.iter().map(|k| k.name()).collect();
        format!(
            "unknown workload {name:?} (expected one of {})",
            names.join(", ")
        )
    })?;
    let num = |flag: &str, v: String| v.parse::<u64>().map_err(|e| format!("{flag} {v:?}: {e}"));
    let seed = num("--seed", get("--seed")?)?;
    let seconds = num("--seconds", get("--seconds")?)? as f64;
    let trace = match get("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace {other:?}: expected 0 or 1")),
    };
    Ok(Some(Args {
        kind,
        seed,
        seconds,
        trace,
    }))
}

/// Quantile `p` of `xs`, interpolated linearly between order statistics
/// (NaN when `xs` is empty).
fn quantile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = p * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Interquartile range over the median (the spread every record reports).
fn rel_iqr(xs: &[f64]) -> f64 {
    (quantile(xs, 0.75) - quantile(xs, 0.25)) / median(xs)
}

fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Worker threads a workload's sweep runs on: all cores where spreading
/// the work is what the workload measures (the policy grid's replays, the
/// shards), one elsewhere. Two concurrent stress-fleet DES cells left the
/// process at about 155 or about 197 MB at random (allocator arenas), a
/// `peak_rss_mb` spread of 0.23 over four runs against 0.015 on one
/// worker. The cost grid's ~0.4 us cells ran 25-35% slower on two
/// workers than on one (allocator contention outweighs the split work).
fn workers(kind: Kind) -> usize {
    match kind {
        Kind::PolicyGrid | Kind::StressFleetSharded => threads(),
        Kind::StressFleet | Kind::CostGridResume => 1,
    }
}

/// Restart the kernel's peak-RSS mark at the current RSS, so the next
/// `peak_rss_mb` reads the peak of what ran in between. Where the kernel
/// refuses, the mark keeps the process-wide peak.
fn reset_peak_rss() {
    std::fs::write("/proc/self/clear_refs", "5").ok();
}

/// Peak resident set size of this process (VmHWM), in MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

fn git(args: &[&str]) -> Option<String> {
    let out = Command::new("git")
        .args(args)
        .stdin(Stdio::null())
        .stderr(Stdio::null())
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Where the numbers came from: machine, build and inputs.
fn fingerprint(kind: Kind, seed: u64) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let rev = git(&["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown (not a git checkout)".into());
    let dirty = git(&["status", "--porcelain", "--untracked-files=no"])
        .map_or("unknown".to_string(), |s| (!s.is_empty()).to_string());
    let sizes: Vec<String> = kind
        .sizes()
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    vec![
        ("available_parallelism", threads().to_string()),
        ("cpu_model", cpu),
        ("git_rev", rev),
        ("git_dirty", dirty),
        ("build_profile", env!("PERFBENCH_PROFILE").to_string()),
        ("rustc", env!("PERFBENCH_RUSTC").to_string()),
        ("workload", kind.name().to_string()),
        ("seed", seed.to_string()),
        ("sizes", sizes.join(",")),
    ]
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Runs the traced run's calls under one parent span.
struct Under<'a> {
    tracer: &'a Tracer,
    parent: u64,
}

impl Steps for Under<'_> {
    fn step<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.tracer.span(name, Some(self.parent), |_| f())
    }
}

/// What the untraced part of every invocation measured.
struct Measured {
    setup: Setup,
    setup_s: Vec<f64>,
    wall_s: Vec<f64>,
    sweep_s: Vec<f64>,
    resume_s: Vec<f64>,
    rss_mb: Vec<f64>,
    counters: Counters,
    digest: Option<u64>,
    export_bytes: usize,
}

fn expect_for(setup: &Setup, kind: Kind) -> Expect {
    Expect {
        grid: setup.cells.len(),
        cluster_jobs: setup
            .prep
            .as_ref()
            .filter(|_| kind.is_cluster())
            .map(|p| p.trace.jobs.len()),
    }
}

/// Set-up (repeated, median), the counters pass, one warm-up repetition,
/// then timed repetitions for `seconds`. Every repetition is checked.
fn measure(args: &Args, dir: &Path, checks: &mut Checks) -> Result<Measured, String> {
    let threads = workers(args.kind);
    let mut setup_s = Vec::new();
    let mut setup = None;
    let started = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS || started.elapsed().as_secs_f64() < SETUP_MIN_SECS {
        drop(setup.take());
        std::fs::remove_file(dir.join(workload::SETUP_STORE)).ok();
        let t = Instant::now();
        setup = Some(workload::setup(args.kind, args.seed, dir, &Untraced)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let setup = setup.expect("set-up ran");
    let expect = expect_for(&setup, args.kind);

    let (counters, digest) = workload::counters_pass(args.kind, &setup, threads, dir, checks)?;
    let mut digest = Some(digest);
    let warm = workload::rep(&setup, threads, dir, &Untraced)?;
    check_rep(&warm, &expect, &mut digest, checks);
    let export_bytes = warm.export.bytes();
    drop(warm);

    let (mut wall_s, mut sweep_s, mut resume_s) = (Vec::new(), Vec::new(), Vec::new());
    let mut rss_mb = Vec::new();
    let started = Instant::now();
    while wall_s.len() < MIN_REPS || started.elapsed().as_secs_f64() < args.seconds {
        reset_peak_rss();
        let r = workload::rep(&setup, threads, dir, &Untraced)?;
        rss_mb.push(peak_rss_mb());
        check_rep(&r, &expect, &mut digest, checks);
        wall_s.push(r.wall_s);
        sweep_s.push(r.sweep_s);
        resume_s.extend(workload::timed_resumes(&setup, threads, dir)?);
    }
    Ok(Measured {
        setup,
        setup_s,
        wall_s,
        sweep_s,
        resume_s,
        rss_mb,
        counters,
        digest,
        export_bytes,
    })
}

/// A metric value, with the sample count and IQR/median behind it when it
/// is a median of samples.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: usize,
    rel_iqr: Option<f64>,
}

fn end_to_end(kind: Kind, m: &Measured) -> Vec<Metric> {
    let grid = m.setup.cells.len() as f64;
    let events = workload::work_events(kind, &WorkCounts::from_counters(&m.counters)) as f64;
    let sample = |name, unit, xs: &[f64]| Metric {
        name,
        unit,
        value: median(xs),
        samples: xs.len(),
        rel_iqr: Some(rel_iqr(xs)),
    };
    // Throughputs are medians of the per-repetition rates.
    let rates = |k: f64, xs: &[f64]| xs.iter().map(|x| k / x).collect::<Vec<_>>();
    // Except the resume rate: on the stores of 1 to 24 cells a resume takes
    // 25-90 us, in a fast and a slow mode whose mix drifts between runs, so
    // the median flips between the modes (run medians 25-39 us on
    // stress_fleet_sharded). The 90th-percentile rate (10th-percentile
    // time) tracks the fast mode.
    let resume_rates = rates(grid, &m.resume_s);
    let resume = Metric {
        value: quantile(&resume_rates, 0.9),
        ..sample("resume_cells_per_s", "1/s", &resume_rates)
    };
    vec![
        sample("wall_s", "s", &m.wall_s),
        sample("setup_s", "s", &m.setup_s),
        sample("cells_per_s", "1/s", &rates(grid, &m.sweep_s)),
        resume,
        sample("events_per_s", "1/s", &rates(events, &m.wall_s)),
        sample("peak_rss_mb", "MB", &m.rss_mb),
    ]
}

/// The traced run: set-up and one repetition with a span around every
/// call, then the layer probes; the untraced repetitions measured before
/// it in this process are the base of the tracing overhead.
fn traced(
    args: &Args,
    m: &Measured,
    dir: &Path,
    tracer: &Tracer,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let kind = args.kind;
    let threads = workers(kind);
    let mut v = probes::Values::new();
    let (setup, rep, rep_id, work, replay_s) = tracer.span("workload", None, |root| {
        let setup = tracer.span("setup", Some(root), |id| {
            workload::setup(kind, args.seed, dir, &Under { tracer, parent: id })
        })?;
        let (rep, rep_id) = tracer.span("rep", Some(root), |id| {
            workload::rep(&setup, threads, dir, &Under { tracer, parent: id }).map(|r| (r, id))
        })?;
        check_rep(
            &rep,
            &expect_for(&setup, kind),
            &mut m.digest.clone(),
            checks,
        );
        let (work, replay_s) = tracer.span("probes", Some(root), |id| {
            probes::run(kind, tracer, id, &setup, &rep, threads, dir, &mut v, checks)
        })?;
        Ok::<_, String>((setup, rep, rep_id, work, replay_s))
    })?;

    // The traced path's own calls did the same work the counters counted.
    checks.expect_eq(
        "traced_work_equals_counters",
        work,
        WorkCounts::from_counters(&m.counters),
    );

    let total = |name: &str| tracer.total(name);
    let prep_s = total("trace.generate")
        + total("trace.arena_build")
        + total("trace.histories")
        + total("policy.estimates");
    for (metric, span) in [
        ("sweep.parse_s", "sweep.parse"),
        ("sweep.expand_s", "sweep.expand"),
        ("exec.sweep_s", "exec.sweep"),
    ] {
        v.insert(metric, total(span));
    }
    if kind.has_trace() {
        for (metric, span) in [
            ("trace.generate_s", "trace.generate"),
            ("trace.arena_build_s", "trace.arena_build"),
            ("trace.histories_s", "trace.histories"),
            ("policy.estimates_s", "policy.estimates"),
        ] {
            v.insert(metric, total(span));
        }
    }
    // Each repetition exports twice (after the sweep and after the resume).
    v.insert("export.csv_s", total("export.csv") / 2.0);
    v.insert("export.json_s", total("export.json") / 2.0);
    v.insert("export.bytes", rep.export.bytes() as f64);
    let grid = setup.cells.len() as f64;
    v.insert(
        "exec.cell_overhead_us",
        (total("exec.sweep") - total("sweep.expand") - prep_s - replay_s) * 1e6 / grid,
    );
    let c = &m.counters;
    if kind.is_cluster() {
        let scheduled = c.get(Counter::EventsScheduled);
        for (metric, counter) in [
            ("des.events", Counter::EventsPopped),
            ("des.events_scheduled", Counter::EventsScheduled),
            ("des.stale_skips", Counter::StaleSkips),
            ("des.task_kills", Counter::TaskKills),
            ("des.host_failures", Counter::HostFailures),
            ("des.checkpoints_written", Counter::CheckpointsWritten),
            ("des.checkpoints_aborted", Counter::CheckpointsAborted),
            ("des.heap_peak", Counter::HeapPeak),
            ("shard.windows", Counter::ShardWindows),
            ("shard.merges", Counter::ShardMerges),
        ] {
            v.insert(metric, c.get(counter) as f64);
        }
        v.insert(
            "des.stale_ratio",
            c.get(Counter::StaleSkips) as f64 / scheduled.max(1) as f64,
        );
    }
    let base_wall = median(&m.wall_s);
    let rep_s = tracer
        .spans()
        .iter()
        .find(|s| s.id == rep_id)
        .map(spans::Span::secs)
        .expect("rep span recorded");
    v.insert("tracing.overhead", rep_s / base_wall - 1.0);
    v.insert(
        "tracing.coverage",
        tracer.children_total(rep_id) / base_wall,
    );

    Ok(PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: v.get(name).copied().unwrap_or(0.0),
            samples: 1,
            rel_iqr: None,
        })
        .collect())
}

fn write_record(
    path: &Path,
    finger: &[(&str, String)],
    metrics: &[Metric],
    m: &Measured,
    checks: &Checks,
) -> Result<(), String> {
    let kv = |pairs: Vec<(String, String)>| {
        pairs
            .iter()
            .map(|(k, v)| format!("    {}: {v}", json_str(k)))
            .collect::<Vec<_>>()
            .join(",\n")
    };
    let fp = kv(finger
        .iter()
        .map(|(k, v)| (k.to_string(), json_str(v)))
        .collect());
    let ms = kv(metrics
        .iter()
        .map(|x| {
            (
                x.name.to_string(),
                format!(
                    "{{\"value\": {}, \"unit\": {}, \"samples\": {}, \"rel_iqr\": {}}}",
                    x.value,
                    json_str(x.unit),
                    x.samples,
                    x.rel_iqr.map_or("null".into(), |r| r.to_string())
                ),
            )
        })
        .collect());
    let cs = kv(m
        .counters
        .entries()
        .map(|(c, v)| (c.name().to_string(), v.to_string()))
        .collect());
    let samples = |xs: &[f64]| {
        format!(
            "[{}]",
            xs.iter().map(f64::to_string).collect::<Vec<_>>().join(", ")
        )
    };
    let failures: Vec<String> = checks.failures.iter().map(|f| json_str(f)).collect();
    let body = format!(
        "{{\n  \"fingerprint\": {{\n{fp}\n  }},\n  \"metrics\": {{\n{ms}\n  }},\n  \
         \"samples\": {{\"wall_s\": {}, \"setup_s\": {}, \"sweep_s\": {}, \"resume_s\": {}, \"rss_mb\": {}}},\n  \
         \"counters\": {{\n{cs}\n  }},\n  \"export_digest\": \"{:016x}\",\n  \
         \"export_bytes\": {},\n  \"checks\": {{\"attempted\": {}, \"failed\": [{}]}}\n}}\n",
        samples(&m.wall_s),
        samples(&m.setup_s),
        samples(&m.sweep_s),
        samples(&m.resume_s),
        samples(&m.rss_mb),
        m.digest.unwrap_or(0),
        m.export_bytes,
        checks.attempted,
        failures.join(", ")
    );
    std::fs::write(path, body).map_err(|e| format!("{}: {e}", path.display()))
}

fn run(args: &Args) -> Result<bool, String> {
    let out = PathBuf::from(OUT_DIR);
    let dir = workload::work_dir(&out, args.kind.name())?;
    let finger = fingerprint(args.kind, args.seed);
    for (k, v) in &finger {
        println!("# {k}: {v}");
    }
    let mut checks = Checks::default();
    let result = (|| {
        let m = measure(args, &dir, &mut checks)?;
        let metrics = if args.trace {
            let tracer = Tracer::new();
            let metrics = traced(args, &m, &dir, &tracer, &mut checks)?;
            let spans = out.join(format!("spans-{}-seed{}.json", args.kind.name(), args.seed));
            std::fs::write(&spans, tracer.to_json())
                .map_err(|e| format!("{}: {e}", spans.display()))?;
            metrics
        } else {
            end_to_end(args.kind, &m)
        };
        Ok::<_, String>((m, metrics))
    })();
    std::fs::remove_dir_all(&dir).ok();
    let (m, metrics) = result?;
    for x in &metrics {
        if !x.value.is_finite() {
            checks.record(x.name, Err("value is not finite".into()));
        }
    }
    let record = out.join(format!(
        "record-{}-seed{}-trace{}.json",
        args.kind.name(),
        args.seed,
        u8::from(args.trace)
    ));
    write_record(&record, &finger, &metrics, &m, &checks)?;

    for x in &metrics {
        let spread = x.rel_iqr.map_or(String::new(), |r| {
            format!("  ({} samples, IQR/median {:.4})", x.samples, r)
        });
        println!("{:<24} {:>16.6} {:<6}{spread}", x.name, x.value, x.unit);
    }
    let failed_frac = checks.failed() as f64 / checks.attempted.max(1) as f64;
    println!(
        "failed_frac              {failed_frac:>16.6} ratio   ({} of {} checks failed)",
        checks.failed(),
        checks.attempted
    );
    for f in &checks.failures {
        println!("# CHECK FAILED: {f}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "{}: {{\"value\": {value}, \"unit\": {}}}",
                json_str(x.name),
                json_str(x.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed() == 0,
        checks.attempted,
        checks.failed(),
        body.join(", ")
    );
    Ok(checks.failed() == 0)
}

/// Checks that corrupted outputs fail: one real repetition of the cost
/// grid, then each guarded output corrupted in turn.
fn self_test() -> Result<Vec<String>, String> {
    let kind = Kind::CostGridResume;
    let dir = workload::work_dir(Path::new(OUT_DIR), "self-test")?;
    let result = (|| {
        let setup = workload::setup(kind, 1, &dir, &Untraced)?;
        workload::run_persisted(&setup, workers(kind), &dir, false)?;
        let rep = workload::rep(&setup, workers(kind), &dir, &Untraced)?;
        check::self_test(&rep, &expect_for(&setup, kind))
    })();
    std::fs::remove_dir_all(&dir).ok();
    result
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => {
            return match self_test() {
                Ok(lines) => {
                    lines.iter().for_each(|l| println!("self-test: {l}"));
                    println!("self-test: ok");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("self-test failed: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> | --self-test"
            );
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn corrupted_outputs_fail_the_checks() {
        let lines = super::self_test().expect("every corruption is caught");
        assert!(lines.len() > 1);
    }
}
