//! **Figure 13** — per-job paired comparison of wall-clock lengths under
//! Formula (3) vs Young's formula (RL = 1000 s): (a) the ratio, (b) the
//! absolute difference.
//!
//! Paper: "about 70 % of jobs' wall-clock lengths are reduced by about 15 %
//! on average, while only 30 % of jobs' wall-clock lengths are increased by
//! 5 % on average". Both runs replay identical kill events (common random
//! numbers), exactly like the paper's trace replay.

use crate::exp::{ExpResult, Experiment};
use crate::harness::{setup_ctx, Scale};
use ckpt_report::{row, ExpOutput, Frame, RunContext, Value};
use ckpt_sim::metrics::{paired_wall_clock, with_max_length};
use ckpt_sim::{EstimatorKind, PolicyConfig, RunOptions};

const RL: f64 = 1000.0;

/// Figure 13 experiment.
pub struct Fig13Paired;

impl Experiment for Fig13Paired {
    fn id(&self) -> &'static str {
        "fig13_paired"
    }
    fn paper_ref(&self) -> &'static str {
        "Figure 13"
    }
    fn claim(&self) -> &'static str {
        "~70 % of jobs run ~15 % faster under Formula (3); ~30 % run ~5 % slower"
    }
    fn default_scale(&self) -> Scale {
        Scale::Day
    }

    fn run(&self, ctx: &RunContext) -> ExpResult {
        let s = setup_ctx(ctx)?;
        let opts = RunOptions {
            threads: ctx.threads,
        };

        // Deployment estimator (full-range per-priority statistics, as in
        // the Figure 9 runs); RL only filters which jobs are compared.
        let est = EstimatorKind::PerPriority {
            limit: f64::INFINITY,
        };
        let f3 = PolicyConfig::formula3().with_estimator(est);
        let yg = PolicyConfig::young().with_estimator(est);
        let recs_f3 = with_max_length(&s.sample_only(&s.replay(&f3, opts)), RL);
        let recs_yg = with_max_length(&s.sample_only(&s.replay(&yg, opts)), RL);

        // ratio = wall(F3) / wall(Young): < 1 means Formula (3) is faster.
        let pairs = paired_wall_clock(&recs_f3, &recs_yg);
        if pairs.is_empty() {
            return Err(format!("no paired jobs at RL={RL}").into());
        }

        let faster: Vec<&(u64, f64, f64)> = pairs.iter().filter(|(_, r, _)| *r < 1.0).collect();
        let slower: Vec<&(u64, f64, f64)> = pairs.iter().filter(|(_, r, _)| *r >= 1.0).collect();
        let mean_reduction = if faster.is_empty() {
            0.0
        } else {
            faster.iter().map(|(_, r, _)| 1.0 - r).sum::<f64>() / faster.len() as f64
        };
        let mean_increase = if slower.is_empty() {
            0.0
        } else {
            slower.iter().map(|(_, r, _)| r - 1.0).sum::<f64>() / slower.len() as f64
        };

        let mut summary = Frame::new(
            "fig13_summary",
            vec!["group", "jobs", "share_pct", "mean_wall_change_pct"],
        )
        .with_title(
            "Figure 13: paired per-job comparison, RL = 1000 s \
             (paper: ~70 % faster by ~15 %, ~30 % slower by ~5 %)",
        );
        summary.push_row(row![
            "faster under Formula(3)",
            faster.len(),
            Value::Num(100.0 * faster.len() as f64 / pairs.len() as f64),
            Value::Num(-100.0 * mean_reduction),
        ]);
        summary.push_row(row![
            "faster under Young",
            slower.len(),
            Value::Num(100.0 * slower.len() as f64 / pairs.len() as f64),
            Value::Num(100.0 * mean_increase),
        ]);

        let mut series = Frame::new(
            "fig13_paired",
            vec!["job_id", "wall_ratio_f3_over_young", "wall_diff_s"],
        );
        for &(job, ratio, diff) in &pairs {
            series.push_row(row![job, ratio, diff]);
        }

        let mut out = ExpOutput::new();
        out.push(summary);
        out.push(series);
        Ok(out)
    }
}
