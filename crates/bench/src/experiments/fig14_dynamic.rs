//! **Figure 14** — the dynamic (adaptive-MNOF, Algorithm 1) solution vs the
//! static one when every job's priority changes once in the middle of its
//! execution: (a) WPR distribution, (b) per-job wall-clock ratio.
//!
//! Paper: "the worst WPR under dynamic solution stays about 0.8 while that
//! under static approach is about 0.5"; "67 % of jobs' wall-clock lengths
//! are similar under the two different solutions, while over 21 % of jobs
//! run faster in the dynamic one than static one by 10 %".

use crate::exp::{ExpResult, Experiment};
use crate::harness::{setup_with, Scale};
use crate::report::ascii_cdf;
use ckpt_report::{row, ExpOutput, Frame, RunContext};
use ckpt_sim::metrics::{mean_wpr, paired_wall_clock, wpr_ecdf, wprs};
use ckpt_sim::{PolicyConfig, RunOptions};
use ckpt_trace::spec::WorkloadSpec;

/// Figure 14 experiment.
pub struct Fig14Dynamic;

impl Experiment for Fig14Dynamic {
    fn id(&self) -> &'static str {
        "fig14_dynamic"
    }
    fn paper_ref(&self) -> &'static str {
        "Figure 14"
    }
    fn claim(&self) -> &'static str {
        "Under mid-run priority flips, adaptive re-solving keeps worst WPR ~0.8 vs ~0.5 static"
    }
    fn default_scale(&self) -> Scale {
        Scale::Day
    }

    fn run(&self, ctx: &RunContext) -> ExpResult {
        let spec = WorkloadSpec::google_like(ctx.scale.jobs()).with_priority_flips();
        let s = setup_with(spec, ctx.seed)?;
        let opts = RunOptions {
            threads: ctx.threads,
        };

        let dynamic_cfg = PolicyConfig::formula3().with_adaptivity(true);
        let static_cfg = PolicyConfig::formula3(); // keeps the start-of-task schedule
        let dynamic = s.sample_only(&s.replay(&dynamic_cfg, opts));
        let fixed = s.sample_only(&s.replay(&static_cfg, opts));

        let e_dyn = wpr_ecdf(&dynamic).ok_or("empty dynamic WPR sample")?;
        let e_sta = wpr_ecdf(&fixed).ok_or("empty static WPR sample")?;
        let mut summary = Frame::new(
            "fig14_summary",
            vec![
                "algorithm",
                "jobs",
                "avg_wpr",
                "worst_wpr",
                "p5_wpr",
                "p_below_08",
            ],
        )
        .with_title(
            "Figure 14(a): dynamic vs static WPR under mid-run priority flips \
             (paper: worst ~0.8 vs ~0.5)",
        );
        summary.push_row(row![
            "dynamic (Algorithm 1)",
            dynamic.len(),
            mean_wpr(&dynamic),
            e_dyn.min(),
            e_dyn.quantile(0.05),
            e_dyn.cdf(0.8),
        ]);
        summary.push_row(row![
            "static",
            fixed.len(),
            mean_wpr(&fixed),
            e_sta.min(),
            e_sta.quantile(0.05),
            e_sta.cdf(0.8),
        ]);

        let mut out = ExpOutput::new();
        out.note(ascii_cdf(&e_dyn.points(80), 64, 12, "WPR CDF — dynamic"));
        out.note(ascii_cdf(&e_sta.points(80), 64, 12, "WPR CDF — static"));

        // (b) per-job wall-clock ratio dynamic/static.
        let pairs = paired_wall_clock(&dynamic, &fixed);
        let similar = pairs
            .iter()
            .filter(|(_, r, _)| (*r - 1.0).abs() <= 0.02)
            .count();
        let faster10 = pairs.iter().filter(|(_, r, _)| *r <= 0.90).count();
        out.note(format!(
            "wall-clock ratio (dynamic/static): {:.1} % of jobs within ±2 %, \
             {:.1} % faster by ≥10 % under dynamic (paper: 67 % similar, >21 % faster by 10 %)",
            100.0 * similar as f64 / pairs.len() as f64,
            100.0 * faster10 as f64 / pairs.len() as f64
        ));

        let mut series = Frame::new("fig14_dynamic", vec!["wpr_dynamic", "wpr_static"]);
        for (w_dyn, w_sta) in wprs(&dynamic).iter().zip(wprs(&fixed).iter()) {
            series.push_row(row![*w_dyn, *w_sta]);
        }
        out.push(summary);
        out.push(series);
        Ok(out)
    }
}
