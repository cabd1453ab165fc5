//! **Figure 11** — WPR distributions for relatively short jobs with
//! restricted task length RL ∈ {1000, 2000, 4000} s, over a one-day trace
//! (~10k jobs). MNOF/MTBF are estimated from the corresponding short tasks
//! ("in order to estimate MTBF with as small errors as possible for
//! Young's formula").
//!
//! Paper: under Formula (3), 98 % of jobs reach WPR > 0.9; under Young's
//! formula up to 40 % of jobs fall below 0.9.

use crate::exp::{ExpResult, Experiment};
use crate::harness::{setup_ctx, Scale};
use ckpt_report::{row, ExpOutput, Frame, RunContext};
use ckpt_sim::metrics::{mean_wpr, with_max_length, with_structure, wpr_ecdf};
use ckpt_sim::{EstimatorKind, PolicyConfig, RunOptions};
use ckpt_trace::gen::JobStructure;

/// Figure 11 experiment.
pub struct Fig11WprRestricted;

impl Experiment for Fig11WprRestricted {
    fn id(&self) -> &'static str {
        "fig11_wpr_restricted"
    }
    fn paper_ref(&self) -> &'static str {
        "Figure 11"
    }
    fn claim(&self) -> &'static str {
        "For short jobs, 98 % exceed WPR 0.9 under Formula (3); up to 40 % fall below under Young"
    }
    fn default_scale(&self) -> Scale {
        Scale::Day
    }

    fn run(&self, ctx: &RunContext) -> ExpResult {
        let s = setup_ctx(ctx)?;
        let opts = RunOptions {
            threads: ctx.threads,
        };

        let mut summary = Frame::new(
            "fig11_summary",
            vec![
                "structure",
                "rl_s",
                "policy",
                "jobs",
                "avg_wpr",
                "p_above_09",
            ],
        )
        .with_title(
            "Figure 11: WPR for restricted task lengths (paper: 98 % above 0.9 \
             under Formula (3); up to 40 % below 0.9 under Young)",
        );
        let mut cdf = Frame::new(
            "fig11_wpr_restricted",
            vec!["structure", "rl_s", "policy", "wpr", "cdf"],
        );
        for rl in [1000.0, 2000.0, 4000.0] {
            // Estimators restricted to tasks within the limit (honest MTBF).
            let est = EstimatorKind::PerPriority { limit: rl };
            let f3 = PolicyConfig::formula3().with_estimator(est);
            let yg = PolicyConfig::young().with_estimator(est);
            let recs_f3 = s.sample_only(&s.replay(&f3, opts));
            let recs_yg = s.sample_only(&s.replay(&yg, opts));
            for structure in [JobStructure::Sequential, JobStructure::BagOfTasks] {
                for (label, recs) in [("Formula(3)", &recs_f3), ("Young", &recs_yg)] {
                    let sub = with_max_length(&with_structure(recs, structure), rl);
                    if sub.is_empty() {
                        continue;
                    }
                    let e = wpr_ecdf(&sub).ok_or("empty WPR sample")?;
                    summary.push_row(row![
                        structure.label(),
                        rl,
                        label,
                        sub.len(),
                        mean_wpr(&sub),
                        1.0 - e.cdf(0.9),
                    ]);
                    for (x, q) in e.points(64) {
                        cdf.push_row(row![structure.label(), rl, label, x, q]);
                    }
                }
            }
        }
        let mut out = ExpOutput::new();
        out.push(summary);
        out.push(cdf);
        Ok(out)
    }
}
