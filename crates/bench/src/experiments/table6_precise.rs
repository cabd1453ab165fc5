//! **Table 6** — checkpointing effect with *precise* prediction: both
//! formulas are fed each task's true failure count / true mean interval
//! (per-task oracle). Paper: the two are nearly tied — avg WPR 0.960 vs
//! 0.954 (BoT), 0.937 vs 0.938 (ST), 0.949 vs 0.939 (mixture) — "with
//! exact values, both approaches almost coincide as expected".

use crate::exp::{ExpResult, Experiment};
use crate::harness::{setup_ctx, Scale};
use ckpt_report::{row, ExpOutput, Frame, RunContext};
use ckpt_sim::metrics::{lowest_wpr, mean_wpr, with_structure};
use ckpt_sim::{EstimatorKind, PolicyConfig, RunOptions};
use ckpt_trace::gen::JobStructure;

/// Table 6 experiment.
pub struct Table6Precise;

impl Experiment for Table6Precise {
    fn id(&self) -> &'static str {
        "table6_precise"
    }
    fn paper_ref(&self) -> &'static str {
        "Table 6"
    }
    fn claim(&self) -> &'static str {
        "With oracle (precise) prediction, Formula (3) and Young almost coincide"
    }
    fn default_scale(&self) -> Scale {
        // The paper's Table 6 analyses "all of 300k Google jobs" — the
        // month scale (downscale with --scale quick / CKPT_SCALE=quick).
        Scale::Month
    }

    fn run(&self, ctx: &RunContext) -> ExpResult {
        let s = setup_ctx(ctx)?;
        let opts = RunOptions {
            threads: ctx.threads,
        };

        let f3 = PolicyConfig::formula3().with_estimator(EstimatorKind::Oracle);
        let yg = PolicyConfig::young().with_estimator(EstimatorKind::Oracle);
        let recs_f3 = s.sample_only(&s.replay(&f3, opts));
        let recs_yg = s.sample_only(&s.replay(&yg, opts));

        let mut table = Frame::new(
            "table6_precise",
            vec![
                "structure",
                "avg_wpr_f3",
                "lowest_f3",
                "avg_wpr_young",
                "lowest_young",
                "paper_avg_f3",
                "paper_avg_young",
            ],
        )
        .with_title("Table 6: WPR with precise (oracle) prediction — the formulas nearly coincide");
        let paper = [
            ("BoT", 0.960, 0.954),
            ("ST", 0.937, 0.938),
            ("Mix", 0.949, 0.939),
        ];
        for (label, p_f3, p_yg) in paper {
            let (a, b): (Vec<_>, Vec<_>) = match label {
                "BoT" => (
                    with_structure(&recs_f3, JobStructure::BagOfTasks),
                    with_structure(&recs_yg, JobStructure::BagOfTasks),
                ),
                "ST" => (
                    with_structure(&recs_f3, JobStructure::Sequential),
                    with_structure(&recs_yg, JobStructure::Sequential),
                ),
                _ => (recs_f3.clone(), recs_yg.clone()),
            };
            table.push_row(row![
                label,
                mean_wpr(&a),
                lowest_wpr(&a),
                mean_wpr(&b),
                lowest_wpr(&b),
                p_f3,
                p_yg,
            ]);
        }
        let mut out = ExpOutput::new();
        out.note(format!(
            "jobs: {} sample jobs of {} total",
            recs_f3.len(),
            s.trace.jobs.len()
        ));
        out.push(table);
        Ok(out)
    }
}
