//! End-to-end integration: generate a workload, extract history, build
//! estimators, replay under every policy, and assert the paper's headline
//! orderings — across crate boundaries, the way a downstream user would
//! drive the library.

use cloud_ckpt::sim::cluster::{ClusterConfig, ClusterSim};
use cloud_ckpt::sim::metrics::{mean_wpr, with_structure, wpr_by_priority};
use cloud_ckpt::sim::policy::{Estimates, EstimatorKind, PolicyConfig, StorageChoice};
use cloud_ckpt::sim::runner::{run_trace, run_trace_with_plans, RunOptions};
use cloud_ckpt::sim::Device;
use cloud_ckpt::trace::gen::{generate, JobStructure};
use cloud_ckpt::trace::plan::FailurePlanArena;
use cloud_ckpt::trace::spec::WorkloadSpec;
use cloud_ckpt::trace::stats::{failure_prone_jobs, trace_histories};
use std::collections::HashSet;

struct World {
    trace: cloud_ckpt::trace::gen::Trace,
    estimates: Estimates,
    sample: HashSet<u64>,
}

fn world(n: usize, seed: u64) -> World {
    let trace = generate(&WorkloadSpec::google_like(n), seed).expect("valid workload spec");
    let records = trace_histories(&trace);
    let estimates = Estimates::from_records(&records);
    let sample = failure_prone_jobs(&records, 0.5);
    World {
        trace,
        estimates,
        sample,
    }
}

fn sample_records(w: &World, cfg: &PolicyConfig) -> Vec<cloud_ckpt::sim::JobRecord> {
    run_trace(&w.trace, &w.estimates, cfg, RunOptions::default())
        .into_iter()
        .filter(|r| w.sample.contains(&r.job_id))
        .collect()
}

#[test]
fn headline_policy_ordering() {
    // Formula (3) > Young > no-checkpointing on failure-prone jobs —
    // the paper's Figure 9 plus the obvious sanity bound.
    let w = world(1500, 42);
    let f3 = mean_wpr(&sample_records(&w, &PolicyConfig::formula3()));
    let yg = mean_wpr(&sample_records(&w, &PolicyConfig::young()));
    let none = mean_wpr(&sample_records(&w, &PolicyConfig::none()));
    assert!(f3 > yg, "Formula(3) {f3} must beat Young {yg}");
    assert!(yg > none, "Young {yg} must beat no checkpointing {none}");
    // The paper's magnitude: a 1-10 percentage-point gap.
    assert!(f3 - yg > 0.005, "gap too small: {f3} vs {yg}");
    assert!(f3 - yg < 0.15, "gap implausibly large: {f3} vs {yg}");
}

#[test]
fn oracle_estimation_near_ties_the_formulas() {
    // Table 6: with precise per-task prediction the two formulas nearly
    // coincide.
    let w = world(1500, 43);
    let f3 = mean_wpr(&sample_records(
        &w,
        &PolicyConfig::formula3().with_estimator(EstimatorKind::Oracle),
    ));
    let yg = mean_wpr(&sample_records(
        &w,
        &PolicyConfig::young().with_estimator(EstimatorKind::Oracle),
    ));
    assert!(
        (f3 - yg).abs() < 0.02,
        "oracle runs should nearly tie: {f3} vs {yg}"
    );
}

#[test]
fn both_structures_improve() {
    let w = world(1500, 44);
    let f3 = sample_records(&w, &PolicyConfig::formula3());
    let yg = sample_records(&w, &PolicyConfig::young());
    for structure in [JobStructure::Sequential, JobStructure::BagOfTasks] {
        let a = mean_wpr(&with_structure(&f3, structure));
        let b = mean_wpr(&with_structure(&yg, structure));
        assert!(a > b, "{}: {a} vs {b}", structure.label());
    }
}

#[test]
fn per_priority_gains_mostly_positive() {
    // Figure 10: Formula (3) ahead for (almost) all priorities.
    let w = world(3000, 45);
    let f3 = wpr_by_priority(&sample_records(&w, &PolicyConfig::formula3()));
    let yg = wpr_by_priority(&sample_records(&w, &PolicyConfig::young()));
    let mut ahead = 0;
    let mut total = 0;
    for p in 1..=12u8 {
        if let (Some(a), Some(b)) = (f3.get(&p), yg.get(&p)) {
            if a.count() >= 20 {
                total += 1;
                if a.mean() > b.mean() {
                    ahead += 1;
                }
            }
        }
    }
    assert!(total >= 6, "need enough priorities with data, got {total}");
    assert!(
        ahead * 10 >= total * 9,
        "Formula (3) ahead for {ahead}/{total} priorities"
    );
}

#[test]
fn determinism_across_threads_and_runs() {
    let w = world(400, 46);
    let cfg = PolicyConfig::formula3();
    let a = run_trace(&w.trace, &w.estimates, &cfg, RunOptions { threads: 1 });
    let b = run_trace(&w.trace, &w.estimates, &cfg, RunOptions { threads: 3 });
    let c = run_trace(&w.trace, &w.estimates, &cfg, RunOptions { threads: 0 });
    assert_eq!(a, b);
    assert_eq!(a, c);
}

#[test]
fn wprs_always_valid() {
    let w = world(600, 47);
    for cfg in [
        PolicyConfig::formula3(),
        PolicyConfig::young(),
        PolicyConfig::daly(),
        PolicyConfig::none(),
        PolicyConfig::formula3().with_adaptivity(true),
    ] {
        for r in run_trace(&w.trace, &w.estimates, &cfg, RunOptions::default()) {
            let wpr = r.wpr();
            assert!(
                wpr > 0.0 && wpr <= 1.0,
                "invalid WPR {wpr} under {:?}",
                cfg.kind
            );
            assert!(r.total_wall >= r.total_work - 1e-9);
        }
    }
}

#[test]
fn dynamic_beats_static_under_flips() {
    // Figure 14's ordering.
    let trace = generate(&WorkloadSpec::google_like(1200).with_priority_flips(), 48)
        .expect("valid workload spec");
    let records = trace_histories(&trace);
    let estimates = Estimates::from_records(&records);
    let sample = failure_prone_jobs(&records, 0.5);
    let keep = |v: Vec<cloud_ckpt::sim::JobRecord>| -> Vec<_> {
        v.into_iter()
            .filter(|r| sample.contains(&r.job_id))
            .collect()
    };
    let dynamic = keep(run_trace(
        &trace,
        &estimates,
        &PolicyConfig::formula3().with_adaptivity(true),
        RunOptions::default(),
    ));
    let fixed = keep(run_trace(
        &trace,
        &estimates,
        &PolicyConfig::formula3(),
        RunOptions::default(),
    ));
    let m_dyn = mean_wpr(&dynamic);
    let m_sta = mean_wpr(&fixed);
    assert!(m_dyn > m_sta, "dynamic {m_dyn} must beat static {m_sta}");
    // The static algorithm's low tail is fatter (the paper's 0.5-vs-0.8
    // worst-case contrast).
    let low_dyn = dynamic.iter().filter(|r| r.wpr() < 0.8).count() as f64 / dynamic.len() as f64;
    let low_sta = fixed.iter().filter(|r| r.wpr() < 0.8).count() as f64 / fixed.len() as f64;
    assert!(
        low_sta > low_dyn,
        "static low-tail {low_sta} vs dynamic {low_dyn}"
    );
}

#[test]
fn common_random_numbers_make_comparisons_paired() {
    // The same job under two policies experiences the same kill count —
    // the property that makes Figure 13's per-job comparison meaningful.
    let w = world(300, 49);
    let f3 = sample_records(&w, &PolicyConfig::formula3());
    let yg = sample_records(&w, &PolicyConfig::young());
    let by_id: std::collections::HashMap<u64, &cloud_ckpt::sim::JobRecord> =
        yg.iter().map(|r| (r.job_id, r)).collect();
    for a in &f3 {
        let b = by_id[&a.job_id];
        assert_eq!(
            a.failures, b.failures,
            "job {} kill counts differ",
            a.job_id
        );
        assert_eq!(a.total_work, b.total_work);
    }
}

#[test]
fn fast_path_and_cluster_des_agree_per_job() {
    // Both engines run the paper's per-task model: a kill rolls back to
    // the last durable checkpoint and pays R, a kill mid-write aborts the
    // write, wall = productive + checkpoint + rollback + restart. On a
    // fleet where nothing queues (more VM slots than tasks, unbounded
    // memory, no host failures, fixed-cost ramdisk writes) the DES must
    // give every job the fast path's outcome. Counts and the summed `R`
    // values are exact; each DES phase rounds one duration to whole
    // microseconds, so wall, rollback and checkpoint time may drift by
    // 2 µs per transition (task, failure or checkpoint).
    let fleet = ClusterConfig {
        n_hosts: 256,
        vms_per_host: 64,
        host_mem_mb: 1e12,
        host_mtbf_s: None,
        ..ClusterConfig::default()
    };
    for seed in [7, 20130217] {
        let mut spec = WorkloadSpec::google_like(600);
        spec.long_task_fraction = 0.0;
        let trace = generate(&spec, seed).expect("valid workload spec");
        // Priority flips exist only in the fast path.
        assert!(trace.jobs.iter().all(|j| j.flip.is_none()));
        assert!(trace.task_count() <= fleet.n_hosts * fleet.vms_per_host);
        let estimates = Estimates::from_records(&trace_histories(&trace));
        let plans = FailurePlanArena::build(&trace);
        for (name, policy) in [
            ("formula3", PolicyConfig::formula3()),
            ("young", PolicyConfig::young()),
            ("daly", PolicyConfig::daly()),
            ("none", PolicyConfig::none()),
            ("adaptive", PolicyConfig::formula3().with_adaptivity(true)),
        ] {
            let policy = policy.with_storage(StorageChoice::Force(Device::Ramdisk));
            let fast =
                run_trace_with_plans(&trace, &estimates, &policy, RunOptions::default(), &plans);
            let des = ClusterSim::with_plans(fleet, &trace, &estimates, policy, &plans).run();
            assert_eq!(des.tasks_done, trace.task_count());
            assert_eq!(fast.len(), des.jobs.len());
            for ((job, f), d) in trace.jobs.iter().zip(&fast).zip(&des.jobs) {
                let d_base = &d.base;
                let at = format!("seed {seed}, {name}, job {}", f.job_id);
                assert_eq!(f.job_id, d_base.job_id, "{at}");
                assert_eq!(f.failures, d_base.failures, "{at}: failures");
                assert_eq!(f.checkpoints, d_base.checkpoints, "{at}: checkpoints");
                assert_eq!(f.total_work, d_base.total_work, "{at}: total_work");
                assert_eq!(f.restart_time, d_base.restart_time, "{at}: restart_time");
                assert_eq!(d.queue_wait, 0.0, "{at}: queue_wait");
                let transitions = job.tasks.len() as f64 + f.failures as f64 + f.checkpoints as f64;
                let bound = 2e-6 * transitions;
                for (field, a, b) in [
                    ("total_wall", f.total_wall, d_base.total_wall),
                    ("rollback_loss", f.rollback_loss, d_base.rollback_loss),
                    ("checkpoint_time", f.checkpoint_time, d_base.checkpoint_time),
                ] {
                    assert!(
                        (a - b).abs() <= bound,
                        "{at}: {field} fast {a} vs DES {b} (bound {bound})"
                    );
                }
            }
        }
    }
}
