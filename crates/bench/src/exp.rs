//! The typed experiment API: one trait every paper figure/table (and
//! extension) implements, executed under a shared [`RunContext`] and
//! producing a structured [`ExpOutput`] rendered by the shared frame
//! writer — no bespoke `println!` paths.

use ckpt_report::{ExpOutput, RunContext, Scale};

/// Error from one experiment run (bad inputs, I/O, an invariant the
/// experiment asserts about its own spec).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpError(pub String);

impl std::fmt::Display for ExpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}
impl std::error::Error for ExpError {}

impl From<String> for ExpError {
    fn from(s: String) -> Self {
        ExpError(s)
    }
}
impl From<&str> for ExpError {
    fn from(s: &str) -> Self {
        ExpError(s.to_string())
    }
}

/// Result of one experiment run.
pub type ExpResult = Result<ExpOutput, ExpError>;

/// One experiment of the paper's evaluation section (or one of this
/// repo's extensions): a stable id, the paper anchor, a one-line claim,
/// and an execution entry point consuming the shared [`RunContext`].
///
/// Implementations are registered in [`crate::registry`] and reached
/// through `cloud-ckpt exp list|run|all`.
///
/// # Example
///
/// ```
/// use ckpt_bench::exp::{Experiment, ExpResult};
/// use ckpt_report::{row, ExpOutput, Frame, RunContext, Scale};
///
/// struct Demo;
///
/// impl Experiment for Demo {
///     fn id(&self) -> &'static str {
///         "demo"
///     }
///     fn paper_ref(&self) -> &'static str {
///         "Figure 0"
///     }
///     fn claim(&self) -> &'static str {
///         "experiments are frames, not println!"
///     }
///     fn run(&self, ctx: &RunContext) -> ExpResult {
///         let mut frame = Frame::new("demo", vec!["scale", "seed"]);
///         frame.push_row(row![ctx.scale.label(), ctx.seed]);
///         let mut out = ExpOutput::new();
///         out.push(frame);
///         Ok(out)
///     }
/// }
///
/// let out = Demo.run(&RunContext::new(Scale::Quick)).unwrap();
/// assert_eq!(out.frames.len(), 1);
/// assert_eq!(out.frames[0].to_csv(), "scale,seed\nquick,20130217\n");
/// ```
pub trait Experiment: Sync {
    /// Stable registry id — also the CLI name (`cloud-ckpt exp run <id>`)
    /// and the prefix of the experiment's output frames.
    fn id(&self) -> &'static str;

    /// The paper figure/table this reproduces (e.g. `"Figure 9"`), or the
    /// extension it builds on.
    fn paper_ref(&self) -> &'static str;

    /// One-line claim being reproduced or tested.
    fn claim(&self) -> &'static str;

    /// Scale used when neither `--scale` nor `CKPT_SCALE` picks one.
    fn default_scale(&self) -> Scale {
        Scale::Quick
    }

    /// Execute under the context, producing structured frames + notes.
    fn run(&self, ctx: &RunContext) -> ExpResult;
}
