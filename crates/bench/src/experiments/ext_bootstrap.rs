//! **Extension** — bootstrap confidence intervals on the headline result.
//! The paper reports point estimates; this experiment quantifies the
//! uncertainty of the Figure 9 WPR gap with a paired percentile bootstrap
//! (resampling jobs, preserving the common-random-number pairing).

use crate::exp::{ExpResult, Experiment};
use crate::harness::{setup_ctx, Scale};
use ckpt_report::{row, ExpOutput, Frame, RunContext};
use ckpt_sim::metrics::wprs;
use ckpt_sim::{PolicyConfig, RunOptions};
use ckpt_stats::bootstrap::{bootstrap_mean_ci, bootstrap_paired_diff_ci};

/// Bootstrap-CI extension experiment.
pub struct ExtBootstrap;

impl Experiment for ExtBootstrap {
    fn id(&self) -> &'static str {
        "ext_bootstrap"
    }
    fn paper_ref(&self) -> &'static str {
        "Figure 9 (extension)"
    }
    fn claim(&self) -> &'static str {
        "The Formula (3) WPR advantage is significant at the 95 % level"
    }
    fn default_scale(&self) -> Scale {
        Scale::Day
    }

    fn run(&self, ctx: &RunContext) -> ExpResult {
        let s = setup_ctx(ctx)?;
        let opts = RunOptions {
            threads: ctx.threads,
        };

        let f3 = s.sample_only(&s.replay(&PolicyConfig::formula3(), opts));
        let yg = s.sample_only(&s.replay(&PolicyConfig::young(), opts));
        let w_f3 = wprs(&f3);
        let w_yg = wprs(&yg);

        let ci_f3 = bootstrap_mean_ci(&w_f3, 0.95, 2000, 11).map_err(|e| e.to_string())?;
        let ci_yg = bootstrap_mean_ci(&w_yg, 0.95, 2000, 12).map_err(|e| e.to_string())?;
        let ci_diff =
            bootstrap_paired_diff_ci(&w_f3, &w_yg, 0.95, 2000, 13).map_err(|e| e.to_string())?;

        let mut table = Frame::new(
            "ext_bootstrap_ci",
            vec!["quantity", "estimate", "ci95_lo", "ci95_hi"],
        )
        .with_title("Extension: bootstrap CIs for the Figure 9 headline (paired, 2000 resamples)");
        table.push_row(row![
            "mean WPR Formula(3)",
            ci_f3.estimate,
            ci_f3.lo,
            ci_f3.hi
        ]);
        table.push_row(row!["mean WPR Young", ci_yg.estimate, ci_yg.lo, ci_yg.hi]);
        table.push_row(row![
            "paired diff (F3 - Young)",
            ci_diff.estimate,
            ci_diff.lo,
            ci_diff.hi
        ]);

        let mut out = ExpOutput::new();
        out.push(table);
        if ci_diff.lo > 0.0 {
            out.note("the Formula (3) advantage is significant at the 95 % level (CI excludes 0).");
        } else {
            out.note("warning: the 95 % CI of the gap includes 0 at this scale.");
        }
        Ok(out)
    }
}
