//! **Cluster validation** — run the full-cluster DES (32 hosts × 7 VMs,
//! the paper's testbed shape) against the fast per-task path on the same
//! trace and policy, confirming that (a) the policy ordering
//! (Formula (3) ≥ Young) survives queueing and storage contention, and
//! (b) DM-NFS keeps checkpoint durations flat where central NFS escalates
//! (the in-situ version of Tables 2–3).

use crate::exp::{ExpResult, Experiment};
use crate::harness::setup_with;
use crate::report::f;
use ckpt_report::{row, ExpOutput, Frame, RunContext, Value};
use ckpt_sim::cluster::ClusterConfig;
use ckpt_sim::metrics::mean_wpr;
use ckpt_sim::{Device, PolicyConfig, RunOptions, StorageChoice};
use ckpt_stats::summary::Summary;
use ckpt_trace::spec::WorkloadSpec;

/// Cluster-validation experiment.
pub struct ClusterValidation;

impl Experiment for ClusterValidation {
    fn id(&self) -> &'static str {
        "cluster_validation"
    }
    fn paper_ref(&self) -> &'static str {
        "Tables 2-3 (in situ), §5 testbed"
    }
    fn claim(&self) -> &'static str {
        "Policy ordering survives cluster effects; DM-NFS flattens checkpoint durations"
    }

    fn run(&self, ctx: &RunContext) -> ExpResult {
        // The cluster engine is O(events) single-threaded; keep it at
        // quick scale by default. Arrival rate is tuned so the paper's
        // 32-host / 224-VM cluster runs loaded but not saturated (the
        // paper replayed its one-month trace on the same topology without
        // unbounded queueing); long service tasks are excluded so the
        // validation window is bounded.
        let mut spec = WorkloadSpec::google_like(ctx.scale.jobs());
        spec.mean_interarrival_s = 25.0;
        spec.long_task_fraction = 0.0;
        let s = setup_with(spec, ctx.seed)?;
        let cfg = ClusterConfig::default();

        let mut table = Frame::new(
            "cluster_validation",
            vec![
                "mode",
                "policy",
                "storage",
                "avg_wpr",
                "mean_ckpt_dur_s",
                "max_conc_ckpts",
            ],
        )
        .with_title(
            "Cluster DES validation: policy ordering survives cluster effects; \
             DM-NFS flattens checkpoint durations",
        );

        for (policy, label) in [
            (PolicyConfig::formula3(), "Formula(3)"),
            (PolicyConfig::young(), "Young"),
        ] {
            // Fast path (no cluster effects).
            let fast = s.sample_only(&s.replay(
                &policy,
                RunOptions {
                    threads: ctx.threads,
                },
            ));
            table.push_row(row!["fast", label, "auto", mean_wpr(&fast), "-", "-"]);
            // Full cluster DES.
            let result = s.cluster(cfg, policy).run();
            let sample: Vec<_> = result
                .jobs
                .iter()
                .filter(|j| s.sample_jobs.contains(&j.base.job_id))
                .map(|j| j.base.clone())
                .collect();
            let dur = Summary::from_slice(&result.checkpoint_durations)
                .map(|sm| Value::Num(sm.mean))
                .unwrap_or_else(|_| Value::Text("-".into()));
            table.push_row(vec![
                Value::from("cluster"),
                Value::from(label),
                Value::from("auto"),
                Value::Num(mean_wpr(&sample)),
                dur,
                Value::from(result.max_concurrent_checkpoints),
            ]);
        }

        // Storage architecture comparison inside the cluster.
        for (device, label) in [
            (Device::CentralNfs, "central NFS"),
            (Device::DmNfs, "DM-NFS"),
        ] {
            let policy = PolicyConfig::formula3().with_storage(StorageChoice::Force(device));
            let result = s.cluster(cfg, policy).run();
            let sm = Summary::from_slice(&result.checkpoint_durations).map_err(|_| {
                "no checkpoint durations were recorded in the forced-storage cluster run"
            })?;
            table.push_row(row![
                "cluster",
                "Formula(3)",
                label,
                mean_wpr(
                    &result
                        .jobs
                        .iter()
                        .filter(|j| s.sample_jobs.contains(&j.base.job_id))
                        .map(|j| j.base.clone())
                        .collect::<Vec<_>>(),
                ),
                format!("{} (p95 {})", f(sm.mean), f(sm.p95)),
                result.max_concurrent_checkpoints,
            ]);
        }

        let mut out = ExpOutput::new();
        out.push(table);
        Ok(out)
    }
}
