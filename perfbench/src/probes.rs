//! Layer probes of the traced run: direct calls into each layer's public
//! functions on the workload's own prepared inputs, each wrapped in a
//! span, plus the same-process baselines every ratio is taken against.
//! Layers a workload does not exercise are not probed and report 0.

use crate::check::{Checks, WorkCounts};
use crate::spans::Tracer;
use crate::workload::{run_persisted, Kind, Prep, Rep, Setup};
use ckpt_obs::{Counters, SharedCounters};
use ckpt_scenario::ckpt::{cell_key_digest, decode_cell, encode_cell, sweep_digest};
use ckpt_scenario::ScenarioSpec;
use ckpt_sim::blcr::BlcrModel;
use ckpt_sim::cluster::{ClusterConfig, ClusterRunResult, ClusterSim, MetricsMode, SimBudget};
use ckpt_sim::metrics::JobRecord;
use ckpt_sim::policy::{plan_task, PolicyConfig};
use ckpt_sim::runner::{
    parallel_indexed, run_trace_counted, run_trace_stream, run_trace_with_plans, ReplayStats,
    RunOptions,
};
use ckpt_sim::shard::ShardedClusterSim;
use ckpt_sim::task_sim::{simulate_task_queued, KillQueue, TaskSimSpec};
use ckpt_stats::rng::Xoshiro256StarStar;
use ckpt_store::{CellRecord, StoreHeader, SweepStore};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

pub type Values = BTreeMap<&'static str, f64>;

/// Timed alternation of two variants of the same call, `reps` times each:
/// returns (median seconds of `a`, median seconds of `b`).
fn alternate(reps: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let (mut ta, mut tb) = (Vec::new(), Vec::new());
    for _ in 0..reps {
        let t = Instant::now();
        a();
        ta.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        b();
        tb.push(t.elapsed().as_secs_f64());
    }
    (crate::median(&ta), crate::median(&tb))
}

fn cluster_config(spec: &ScenarioSpec) -> Result<ClusterConfig, String> {
    let mut cfg = spec.cluster;
    cfg.failure_model = spec.failure_spec()?;
    Ok(cfg)
}

fn job_totals<'a>(jobs: impl Iterator<Item = &'a JobRecord>, work: &mut WorkCounts) {
    for j in jobs {
        work.kills += j.failures as u64;
        work.checkpoints += j.checkpoints as u64;
    }
}

/// Fast engine: every cell replayed on the runner (one replay thread per
/// cell, cells spread over the workers, as the sweep executor budgets
/// them), its records folded into streaming sketches; then cell 0 for the
/// thread-scaling, streaming and observer baselines. Returns the replay
/// section's wall seconds and cell 0's work.
fn probe_runner(
    t: &Tracer,
    root: u64,
    setup: &Setup,
    prep: &Prep,
    threads: usize,
    v: &mut Values,
    work: &mut WorkCounts,
) -> (f64, WorkCounts) {
    let run = |cfg: &PolicyConfig, n: usize| -> Vec<JobRecord> {
        run_trace_with_plans(
            &prep.trace,
            &prep.estimates,
            cfg,
            RunOptions { threads: n },
            &prep.plans,
        )
    };
    let start = Instant::now();
    let per_cell = t.span("probe.replay", Some(root), |sec| {
        parallel_indexed(setup.cells.len(), threads, |i| {
            let cfg = setup.cells[i].policy_config();
            let records = t.span("runner.replay", Some(sec), |_| run(&cfg, 1));
            let partials: Vec<ReplayStats> = t.span("sketch.fold", Some(sec), |_| {
                records
                    .chunks(1024)
                    .map(|block| {
                        let mut acc = ReplayStats::new();
                        block.iter().for_each(|r| acc.add(r));
                        acc
                    })
                    .collect()
            });
            let folded = t.span("sketch.merge", Some(sec), |_| {
                let mut total = ReplayStats::new();
                partials.iter().for_each(|p| total.merge(p));
                total
            });
            assert_eq!(folded.jobs as usize, records.len(), "fold keeps every job");
            records
        })
    });
    let section_s = start.elapsed().as_secs_f64();
    let mut cell0 = WorkCounts::default();
    job_totals(per_cell[0].iter(), &mut cell0);
    for records in &per_cell {
        work.cells += 1;
        work.tasks += prep.trace.task_count() as u64;
        job_totals(records.iter(), work);
    }
    drop(per_cell);
    v.insert(
        "runner.jobs",
        (prep.trace.jobs.len() * setup.cells.len()) as f64,
    );
    v.insert("runner.replay_s", t.total("runner.replay"));
    v.insert("sketch.fold_s", t.total("sketch.fold"));
    v.insert("sketch.merge_s", t.total("sketch.merge"));

    let cfg0 = setup.cells[0].policy_config();
    t.span("probe.runner_cell0", Some(root), |sec| {
        let one = t.span("runner.replay_1t", Some(sec), |_| {
            let s = Instant::now();
            black_box(run(&cfg0, 1));
            s.elapsed().as_secs_f64()
        });
        let all = t.span("runner.replay_nt", Some(sec), |_| {
            let s = Instant::now();
            black_box(run(&cfg0, threads));
            s.elapsed().as_secs_f64()
        });
        v.insert("runner.parallel_eff", one / all / threads as f64);
        t.span("runner.stream_replay", Some(sec), |_| {
            black_box(run_trace_stream(
                &prep.trace,
                &prep.estimates,
                &cfg0,
                RunOptions { threads },
                Some(&prep.plans),
            ))
        });
        v.insert("runner.stream_replay_s", t.total("runner.stream_replay"));
        let (noobs, counted) = t.span("obs.replay", Some(sec), |_| {
            alternate(
                3,
                || {
                    black_box(run(&cfg0, threads));
                },
                || {
                    black_box(run_trace_counted(
                        &prep.trace,
                        &prep.estimates,
                        &cfg0,
                        RunOptions { threads },
                        Some(&prep.plans),
                        &SharedCounters::new(),
                    ));
                },
            )
        });
        v.insert("obs.replay_overhead", counted / noobs - 1.0);
    });
    (section_s, cell0)
}

/// Cluster engine: the unsharded cells on the DES (cells spread over the
/// workers, as the executor runs them), or for the sharded workload the
/// unsharded formula3 base run followed by the sharded run; then the
/// observer baseline on cell 0. Returns the section wall seconds the
/// sweep's own replay corresponds to.
#[allow(clippy::too_many_arguments)]
fn probe_cluster(
    kind: Kind,
    t: &Tracer,
    root: u64,
    setup: &Setup,
    prep: &Prep,
    threads: usize,
    v: &mut Values,
    work: &mut WorkCounts,
) -> Result<f64, String> {
    let configs: Vec<ClusterConfig> = setup
        .cells
        .iter()
        .map(cluster_config)
        .collect::<Result<_, _>>()?;
    let sim = |i: usize| {
        ClusterSim::with_plans(
            configs[i],
            &prep.trace,
            &prep.estimates,
            setup.cells[i].policy_config(),
            &prep.plans,
        )
        .with_metrics(MetricsMode::Streaming)
    };
    let count = |r: &ClusterRunResult, work: &mut WorkCounts| {
        work.cells += 1;
        work.events += r.events;
        job_totals(r.jobs.iter().map(|j| &j.base), work);
    };
    let section_s;
    if kind == Kind::StressFleetSharded {
        // Base of shard.speedup: the same formula3 cell, unsharded, here.
        let base = t.span("probe.des_base", Some(root), |sec| {
            t.span("des.run", Some(sec), |_| sim(0).run())
        });
        v.insert(
            "des.ns_per_event",
            t.total("des.run") * 1e9 / base.events as f64,
        );
        let start = Instant::now();
        let sharded = t.span("probe.shard", Some(root), |sec| {
            t.span("shard.run", Some(sec), |_| {
                ShardedClusterSim::new(
                    configs[0],
                    &prep.trace,
                    &prep.estimates,
                    setup.cells[0].policy_config(),
                    kind.shards(),
                )
                .with_plans(&prep.plans)
                .with_threads(threads)
                .with_metrics(MetricsMode::Streaming)
                .run()
            })
        })?;
        section_s = start.elapsed().as_secs_f64();
        count(&sharded, work);
        v.insert("shard.run_s", t.total("shard.run"));
        v.insert("shard.speedup", t.total("des.run") / t.total("shard.run"));
    } else {
        let start = Instant::now();
        let results = t.span("probe.des", Some(root), |sec| {
            parallel_indexed(setup.cells.len(), threads, |i| {
                t.span("des.run", Some(sec), |_| sim(i).run())
            })
        });
        section_s = start.elapsed().as_secs_f64();
        let events: u64 = results.iter().map(|r| r.events).sum();
        results.iter().for_each(|r| count(r, work));
        v.insert("des.ns_per_event", t.total("des.run") * 1e9 / events as f64);
    }
    v.insert("des.run_s", t.total("des.run"));
    let (noobs, counted) = t.span("obs.des", Some(root), |_| {
        alternate(
            2,
            || {
                black_box(sim(0).run());
            },
            || {
                black_box(
                    sim(0)
                        .with_observer(Counters::new())
                        .run_observed(SimBudget::UNLIMITED, |_| {}),
                );
            },
        )
    });
    v.insert("obs.des_overhead", counted / noobs - 1.0);
    Ok(section_s)
}

/// Interval planning and the task-sim inner loop, called directly for
/// every task of the trace under cell 0's policy. The counts must match
/// what the runner produced for the same cell.
fn probe_task_loop(
    t: &Tracer,
    root: u64,
    setup: &Setup,
    prep: &Prep,
    v: &mut Values,
) -> Result<(u64, u64), String> {
    if prep.trace.jobs.iter().any(|j| j.flip.is_some()) {
        return Err("task-loop probe replays traces without priority flips only".into());
    }
    let cfg = setup.cells[0].policy_config();
    let blcr = BlcrModel;
    let tasks = prep.trace.task_count() as f64;
    let (kills, checkpoints, aborted) = t.span("probe.task_loop", Some(root), |sec| {
        let mut plans = t.span("policy.plan_task", Some(sec), |_| {
            prep.trace
                .tasks()
                .map(|(job, task)| plan_task(&cfg, &blcr, &prep.estimates, task, job.priority))
                .collect::<Vec<_>>()
        });
        t.span("task_sim.simulate", Some(sec), |_| {
            let mut queue = KillQueue::new();
            let mut rng = Xoshiro256StarStar::from_state([1, 2, 3, 4]);
            let (mut kills, mut checkpoints, mut aborted) = (0u64, 0u64, 0u64);
            for ((_, task), plan) in prep.trace.tasks().zip(plans.iter_mut()) {
                queue.load(prep.plans.kills(task.id));
                let spec = TaskSimSpec {
                    te: task.length_s,
                    ckpt_cost: plan.ckpt_cost,
                    restart_cost: plan.restart_cost,
                };
                let out =
                    simulate_task_queued(&spec, &mut queue, None, &mut plan.controller, &mut rng);
                kills += out.failures as u64;
                checkpoints += out.checkpoints as u64;
                aborted += out.aborted_checkpoints as u64;
            }
            (kills, checkpoints, aborted)
        })
    });
    let sim_s = t.total("task_sim.simulate");
    v.insert(
        "policy.plan_task_ns",
        t.total("policy.plan_task") * 1e9 / tasks,
    );
    v.insert("task_sim.simulate_ns", sim_s * 1e9 / tasks);
    v.insert(
        "task_sim.checkpoint_ns",
        sim_s * 1e9 / checkpoints.max(1) as f64,
    );
    v.insert("task_sim.checkpoints", checkpoints as f64);
    v.insert("task_sim.kills", kills as f64);
    v.insert(
        "task_sim.aborted_ratio",
        aborted as f64 / (checkpoints + aborted).max(1) as f64,
    );
    Ok((kills, checkpoints))
}

/// The cell codec and the store, called directly on the traced repetition's
/// cells: encode, append, sync, reopen, decode. Decoded cells must equal
/// the originals and the reopened store must hold every record.
fn probe_codec_store(
    t: &Tracer,
    root: u64,
    setup: &Setup,
    rep: &Rep,
    dir: &Path,
    v: &mut Values,
    checks: &mut Checks,
) -> Result<(), String> {
    let cells = &rep.result.cells;
    let n = cells.len() as f64;
    let path = dir.join("probe.sweepckpt");
    t.span(
        "probe.codec_store",
        Some(root),
        |sec| -> Result<(), String> {
            let payloads: Vec<Vec<u8>> = t.span("codec.encode", Some(sec), |_| {
                cells.iter().map(encode_cell).collect()
            });
            let decoded = t.span("codec.decode", Some(sec), |_| {
                payloads
                    .iter()
                    .enumerate()
                    .map(|(i, p)| decode_cell(i, p))
                    .collect::<Result<Vec<_>, _>>()
            })?;
            checks.expect_eq("probe.codec_roundtrip", &decoded, cells);
            let records: Vec<CellRecord> = cells
                .iter()
                .zip(payloads)
                .map(|(cell, payload)| CellRecord {
                    index: cell.index as u64,
                    key_digest: cell_key_digest(&setup.cells[cell.index].run_key(), &cell.params),
                    payload,
                })
                .collect();
            let header = StoreHeader {
                spec_digest: sweep_digest(&setup.sweep),
                seed: setup.sweep.base.seed,
                scale: setup.sweep.base.jobs as u64,
                grid_size: setup.cells.len() as u64,
            };
            let mut store = SweepStore::create(&path, header).map_err(|e| e.to_string())?;
            t.span("store.append", Some(sec), |_| {
                records.iter().try_for_each(|r| store.append(r))
            })
            .map_err(|e| e.to_string())?;
            t.span("store.sync", Some(sec), |_| store.sync())
                .map_err(|e| e.to_string())?;
            drop(store);
            let (_, reopened, _) = t
                .span("store.open", Some(sec), |_| SweepStore::open(&path))
                .map_err(|e| e.to_string())?;
            checks.expect_eq("probe.store_records", reopened.len(), cells.len());
            Ok(())
        },
    )?;
    v.insert("codec.encode_us", t.total("codec.encode") * 1e6 / n);
    v.insert("codec.decode_us", t.total("codec.decode") * 1e6 / n);
    v.insert("store.append_us", t.total("store.append") * 1e6 / n);
    v.insert("store.sync_s", t.total("store.sync"));
    v.insert("store.open_s", t.total("store.open"));
    let bytes = std::fs::metadata(&path).map_err(|e| e.to_string())?.len();
    v.insert("store.bytes", bytes as f64);
    Ok(())
}

/// All probes of one workload. Returns the work the probes' own calls
/// did, for comparison with the counters pass, and the seconds of the
/// section that stands for the sweep's replay (0 on the analytic grid).
#[allow(clippy::too_many_arguments)]
pub fn run(
    kind: Kind,
    t: &Tracer,
    root: u64,
    setup: &Setup,
    rep: &Rep,
    threads: usize,
    dir: &Path,
    v: &mut Values,
    checks: &mut Checks,
) -> Result<(WorkCounts, f64), String> {
    let mut work = WorkCounts::default();
    let mut replay_s = 0.0;
    if let Some(prep) = &setup.prep {
        v.insert("trace.tasks", prep.trace.task_count() as f64);
        v.insert("trace.arena_kills", prep.plans.total_kills() as f64);
        let (kills, checkpoints) = probe_task_loop(t, root, setup, prep, v)?;
        if kind.is_cluster() {
            replay_s = probe_cluster(kind, t, root, setup, prep, threads, v, &mut work)?;
        } else {
            let cell0;
            (replay_s, cell0) = probe_runner(t, root, setup, prep, threads, v, &mut work);
            checks.expect_eq(
                "probe.task_loop_matches_runner",
                (kills, checkpoints),
                (cell0.kills, cell0.checkpoints),
            );
        }
    } else {
        work.cells = rep.result.cells.len() as u64;
    }
    let (persisted, _) = t.span("exec.persist", Some(root), |_| {
        run_persisted(setup, threads, dir, false)
    })?;
    checks.expect_eq("probe.persisted_cells", &persisted.cells, &rep.result.cells);
    v.insert("exec.persist_s", t.total("exec.persist"));
    probe_codec_store(t, root, setup, rep, dir, v, checks)?;
    Ok((work, replay_s))
}
