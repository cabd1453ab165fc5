//! **Extension** — whole-host failures in the cluster DES: the paper's §2
//! describes that "if a host is down, all the tasks running on the VMs of
//! this host will be immediately restarted on other hosts from their most
//! recent checkpoints". This sweep injects host failures at decreasing
//! MTBFs and shows checkpointing (Formula (3)) degrading gracefully while
//! the no-checkpoint baseline collapses.

use crate::exp::{ExpResult, Experiment};
use crate::harness::setup_with;
use ckpt_report::{row, ExpOutput, Frame, RunContext};
use ckpt_sim::cluster::ClusterConfig;
use ckpt_sim::metrics::mean_wpr;
use ckpt_sim::PolicyConfig;
use ckpt_trace::spec::WorkloadSpec;

/// Host-failure extension experiment.
pub struct ExtHostFailures;

impl Experiment for ExtHostFailures {
    fn id(&self) -> &'static str {
        "ext_host_failures"
    }
    fn paper_ref(&self) -> &'static str {
        "§2 host-down restart path (extension)"
    }
    fn claim(&self) -> &'static str {
        "Checkpointing degrades gracefully under whole-host failures; no-ckpt collapses"
    }

    fn run(&self, ctx: &RunContext) -> ExpResult {
        let mut spec = WorkloadSpec::google_like(ctx.scale.jobs().min(500));
        spec.mean_interarrival_s = 25.0;
        spec.long_task_fraction = 0.0;
        let s = setup_with(spec, ctx.seed)?;

        let mut table = Frame::new(
            "ext_host_failures",
            vec![
                "host_mtbf",
                "policy",
                "avg_wpr",
                "host_failures",
                "makespan_h",
            ],
        )
        .with_title("Extension: whole-host failure sweep (paper §2's host-down restart path)");
        for mtbf in [None, Some(14_400.0), Some(3_600.0), Some(1_200.0)] {
            let cfg = ClusterConfig {
                host_mtbf_s: mtbf,
                ..ClusterConfig::default()
            };
            for (label, policy) in [
                ("Formula(3)", PolicyConfig::formula3()),
                ("none", PolicyConfig::none()),
            ] {
                let result = s.cluster(cfg, policy).run();
                let jobs: Vec<_> = result.jobs.iter().map(|j| j.base.clone()).collect();
                table.push_row(row![
                    mtbf.map(|m| format!("{:.0} min", m / 60.0))
                        .unwrap_or_else(|| "off".into()),
                    label,
                    mean_wpr(&jobs),
                    result.host_failures,
                    result.makespan.as_secs_f64() / 3600.0,
                ]);
            }
        }
        let mut out = ExpOutput::new();
        out.push(table);
        Ok(out)
    }
}
