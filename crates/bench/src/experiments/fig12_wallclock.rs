//! **Figure 12** — real wall-clock lengths of jobs under both formulas,
//! with task lengths restricted to RL = 1000 s and RL = 4000 s.
//!
//! Paper: "majority of jobs' wall-clock lengths are incremented by
//! 50-100 seconds under Young's formula compared to our Formula (3)" —
//! large because most Google jobs are only 200–1000 s long.

use crate::exp::{ExpResult, Experiment};
use crate::harness::{setup_ctx, Scale};
use ckpt_report::{row, ExpOutput, Frame, RunContext};
use ckpt_sim::metrics::{paired_wall_clock, with_max_length};
use ckpt_sim::{EstimatorKind, PolicyConfig, RunOptions};
use ckpt_stats::ecdf::Ecdf;

/// Figure 12 experiment.
pub struct Fig12Wallclock;

impl Experiment for Fig12Wallclock {
    fn id(&self) -> &'static str {
        "fig12_wallclock"
    }
    fn paper_ref(&self) -> &'static str {
        "Figure 12"
    }
    fn claim(&self) -> &'static str {
        "Most jobs run 50-100 s longer under Young's formula than under Formula (3)"
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
            "fig12_summary",
            vec![
                "rl_s",
                "jobs",
                "med_wall_f3_s",
                "med_wall_young_s",
                "med_extra_under_young_s",
                "p75_extra_s",
            ],
        )
        .with_title("Figure 12: wall-clock lengths (paper: most jobs +50-100 s under Young)");
        let mut series = Frame::new(
            "fig12_wallclock",
            vec!["rl_s", "job_id", "young_minus_f3_s"],
        );
        // Deployment estimator (full-range per-priority statistics, as in
        // the Figure 9 runs); the RL value only filters which jobs are
        // plotted.
        let est = EstimatorKind::PerPriority {
            limit: f64::INFINITY,
        };
        for rl in [1000.0, 4000.0] {
            let f3 = PolicyConfig::formula3().with_estimator(est);
            let yg = PolicyConfig::young().with_estimator(est);
            let recs_f3 = with_max_length(&s.sample_only(&s.replay(&f3, opts)), rl);
            let recs_yg = with_max_length(&s.sample_only(&s.replay(&yg, opts)), rl);
            // Paired per job: Young − Formula(3) wall-clock difference.
            let pairs = paired_wall_clock(&recs_yg, &recs_f3);
            if pairs.is_empty() {
                continue;
            }
            let diffs: Vec<f64> = pairs.iter().map(|&(_, _, d)| d).collect();
            let walls_f3: Vec<f64> = recs_f3.iter().map(|r| r.total_wall).collect();
            let walls_yg: Vec<f64> = recs_yg.iter().map(|r| r.total_wall).collect();
            let ed = Ecdf::new(&diffs).map_err(|e| e.to_string())?;
            let ef = Ecdf::new(&walls_f3).map_err(|e| e.to_string())?;
            let ey = Ecdf::new(&walls_yg).map_err(|e| e.to_string())?;
            summary.push_row(row![
                rl,
                pairs.len(),
                ef.quantile(0.5),
                ey.quantile(0.5),
                ed.quantile(0.5),
                ed.quantile(0.75),
            ]);
            for (i, &(job, _, d)) in pairs.iter().enumerate() {
                // Keep the series bounded at large scales.
                if i % 4 == 0 {
                    series.push_row(row![rl, job, d]);
                }
            }
        }
        let mut out = ExpOutput::new();
        out.push(summary);
        out.push(series);
        Ok(out)
    }
}
