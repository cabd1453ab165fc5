//! **Figure 9** — CDF of the Workload-Processing Ratio under Formula (3)
//! vs Young's formula, with priority-group MNOF/MTBF estimation, split by
//! job structure (a: sequential-task, b: bag-of-task).
//!
//! Paper reference: average WPR 0.945 (Formula 3) vs 0.916 (Young) for ST
//! jobs; 0.955 vs 0.915 for BoT. Only 7 % of ST jobs fall below WPR 0.88
//! under Formula (3) vs ~20 % under Young; 56.6 % of BoT jobs exceed 0.95
//! vs 46.5 %.

use crate::exp::{ExpResult, Experiment};
use crate::harness::{setup_ctx, Scale};
use crate::report::ascii_cdf;
use ckpt_report::{row, ExpOutput, Frame, RunContext};
use ckpt_sim::metrics::{mean_wpr, with_structure, wpr_ecdf};
use ckpt_sim::{PolicyConfig, RunOptions};
use ckpt_trace::gen::JobStructure;

/// Figure 9 experiment.
pub struct Fig09WprCdf;

impl Experiment for Fig09WprCdf {
    fn id(&self) -> &'static str {
        "fig09_wpr_cdf"
    }
    fn paper_ref(&self) -> &'static str {
        "Figure 9"
    }
    fn claim(&self) -> &'static str {
        "Formula (3) beats Young on WPR: ST 0.945 vs 0.916, BoT 0.955 vs 0.915"
    }
    fn default_scale(&self) -> Scale {
        Scale::Day
    }

    fn run(&self, ctx: &RunContext) -> ExpResult {
        let s = setup_ctx(ctx)?;
        let opts = RunOptions {
            threads: ctx.threads,
        };

        let f3 = s.replay(&PolicyConfig::formula3(), opts);
        let yg = s.replay(&PolicyConfig::young(), opts);
        let f3 = s.sample_only(&f3);
        let yg = s.sample_only(&yg);

        let mut summary = Frame::new(
            "fig09_summary",
            vec![
                "structure",
                "policy",
                "jobs",
                "avg_wpr",
                "p_below_088",
                "p_above_095",
            ],
        )
        .with_title(
            "Figure 9: WPR under Formula (3) vs Young \
             (paper: ST 0.945 vs 0.916, BoT 0.955 vs 0.915)",
        );
        let mut cdf = Frame::new("fig09_wpr_cdf", vec!["structure", "policy", "wpr", "cdf"]);
        let mut out = ExpOutput::new();
        for structure in [JobStructure::Sequential, JobStructure::BagOfTasks] {
            for (label, recs) in [("Formula(3)", &f3), ("Young", &yg)] {
                let sub = with_structure(recs, structure);
                let ecdf = wpr_ecdf(&sub).ok_or("empty WPR sample")?;
                summary.push_row(row![
                    structure.label(),
                    label,
                    sub.len(),
                    mean_wpr(&sub),
                    ecdf.cdf(0.88),
                    1.0 - ecdf.cdf(0.95),
                ]);
                let pts = ecdf.points(100);
                out.note(ascii_cdf(
                    &pts,
                    64,
                    12,
                    &format!("WPR CDF — {} jobs, {label}", structure.label()),
                ));
                for (x, p) in pts {
                    cdf.push_row(row![structure.label(), label, x, p]);
                }
            }
        }
        out.push(summary);
        out.push(cdf);
        Ok(out)
    }
}
