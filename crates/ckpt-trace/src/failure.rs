//! Pluggable failure processes — the layer that stresses the paper's
//! *distribution-free* claim.
//!
//! Theorem 1's optimal interval count `x* = sqrt(Te·E(Y)/(2C))` needs only
//! the expected **number** of failures (MNOF), not any distributional
//! assumption about the inter-failure times. Young's and Daly's formulas,
//! by contrast, consume an MTBF and implicitly assume the memoryless
//! (exponential) failure law that makes "mean time between failures" a
//! sufficient statistic. Real failure records are not memoryless: HPC
//! failure logs are Weibull with shape < 1 (infant mortality, e.g. the
//! records surveyed in arXiv:2311.17545), and the paper's own Figure 5
//! fits a Pareto tail. This module makes the inter-failure law a swappable
//! component so every engine can run the same workload under exponential,
//! Weibull, log-normal, Pareto, or trace-replayed hazards — and the
//! experiments can quantify how much Young/Daly degrade where Theorem 1
//! does not.
//!
//! ## Design
//!
//! * [`FailureProcess`] — the trait: sample one inter-failure time, plus
//!   the closed-form MTBF and expected failure count (MNOF) over a window.
//! * [`ExponentialProcess`], [`WeibullProcess`], [`LogNormalProcess`],
//!   [`ParetoProcess`], [`TraceReplayProcess`] — renewal implementations on
//!   top of the [`ckpt_stats::dist`] samplers, all parameterized by their
//!   **mean** so a model swap preserves the failure *intensity* and changes
//!   only the interval *law*.
//! * [`FailureModelSpec`] — the serializable configuration value threaded
//!   through [`crate::spec::WorkloadSpec`], [`crate::gen::Trace`], the
//!   cluster engine's host failures, and the scenario `failure_model` axis.
//!
//! ## Bit-compatibility contract
//!
//! [`FailureModelSpec::Exponential`] is the default and takes the exact
//! legacy code paths: task kill plans come from the paper-calibrated
//! per-priority replay model ([`crate::spec::FailureModel`], the repo's
//! memoryless-baseline construction) and host inter-failure times are
//! drawn as `-ln(U)·MTBF` — the same draws, in the same RNG stream order,
//! as before this layer existed. Every golden digest and experiment output
//! is byte-identical under the default. Non-default models keep the
//! per-priority MNOF calibration (mean inter-failure time is set to
//! `scale · Te / MNOF(priority, Te)`) so the distribution-free input of
//! Theorem 1 is held fixed while the hazard shape — the input Young/Daly
//! are sensitive to — varies.

use crate::spec::{FailureModel, FailurePlan};
use ckpt_stats::dist::{ContinuousDist, LogNormal, Pareto, Weibull};
use ckpt_stats::rng::Rng64;
use ckpt_stats::solve::ln_gamma;
use std::sync::OnceLock;

/// A stationary failure (renewal) process: inter-failure times are i.i.d.
/// draws, and the closed forms expose the two statistics the paper's
/// policies consume — MTBF (Young/Daly's input) and MNOF over a window
/// (Theorem 1's input, via the elementary renewal theorem).
pub trait FailureProcess {
    /// Draw one inter-failure time (seconds).
    fn sample_interval<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64;

    /// Mean inter-failure time (seconds) — the closed-form MTBF.
    fn mtbf(&self) -> f64;

    /// Expected number of failures over a `window` of busy time — the
    /// closed-form MNOF, `window / MTBF` by the elementary renewal theorem
    /// (exact for the exponential process, asymptotic for the rest).
    fn mnof(&self, window: f64) -> f64 {
        window / self.mtbf()
    }

    /// Short label for reports.
    fn label(&self) -> &'static str;
}

/// Memoryless renewal process with the given mean.
///
/// The sampler is `-ln(U)·mean` — deliberately *not* the
/// [`ckpt_stats::dist::Exponential`] quantile form `-ln(1−U)·mean` — so it
/// reproduces, draw for draw, the host-failure stream the cluster engine
/// has always generated.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentialProcess {
    mean: f64,
}

impl ExponentialProcess {
    /// From the mean inter-failure time (must be positive and finite).
    pub fn new(mean: f64) -> Self {
        assert!(
            mean.is_finite() && mean > 0.0,
            "exponential process mean must be positive, got {mean}"
        );
        Self { mean }
    }
}

impl FailureProcess for ExponentialProcess {
    fn sample_interval<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        -rng.next_f64_open().ln() * self.mean
    }
    fn mtbf(&self) -> f64 {
        self.mean
    }
    fn label(&self) -> &'static str {
        "exponential"
    }
}

/// Weibull renewal process. Shape < 1 is the HPC-standard infant-mortality
/// regime: many short gaps, a stretched-exponential tail — the regime
/// where the sample MTBF overstates the typical gap.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WeibullProcess {
    dist: Weibull,
}

impl WeibullProcess {
    /// From the shape `k > 0` and the target mean: the scale is
    /// `mean / Γ(1 + 1/k)` so the process MTBF equals `mean`.
    pub fn from_mean(shape: f64, mean: f64) -> Result<Self, String> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(format!("weibull process mean must be positive, got {mean}"));
        }
        let scale = mean / ln_gamma(1.0 + 1.0 / shape).exp();
        let dist = Weibull::new(shape, scale).map_err(|e| e.to_string())?;
        Ok(Self { dist })
    }

    /// The underlying distribution (closed forms live there).
    pub fn dist(&self) -> &Weibull {
        &self.dist
    }
}

impl FailureProcess for WeibullProcess {
    fn sample_interval<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        self.dist.sample(rng)
    }
    fn mtbf(&self) -> f64 {
        self.dist.mean()
    }
    fn label(&self) -> &'static str {
        "weibull"
    }
}

/// Log-normal renewal process: multiplicative gap spread with log-space
/// sigma `σ`; the location is set so the mean equals the target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormalProcess {
    dist: LogNormal,
}

impl LogNormalProcess {
    /// From the log-space `sigma > 0` and the target mean: the location is
    /// `ln(mean) − σ²/2` so `E[X] = mean`.
    pub fn from_mean(sigma: f64, mean: f64) -> Result<Self, String> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(format!(
                "lognormal process mean must be positive, got {mean}"
            ));
        }
        let mu = mean.ln() - 0.5 * sigma * sigma;
        let dist = LogNormal::new(mu, sigma).map_err(|e| e.to_string())?;
        Ok(Self { dist })
    }

    /// The underlying distribution.
    pub fn dist(&self) -> &LogNormal {
        &self.dist
    }
}

impl FailureProcess for LogNormalProcess {
    fn sample_interval<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        self.dist.sample(rng)
    }
    fn mtbf(&self) -> f64 {
        self.dist.mean()
    }
    fn label(&self) -> &'static str {
        "lognormal"
    }
}

/// Pareto renewal process — the paper's Figure 5 heavy tail. The shape
/// must exceed 1 so the mean (and hence the MNOF calibration) is finite;
/// shapes in (1, 2) still have infinite variance, which is exactly what
/// wrecks an MTBF-driven policy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ParetoProcess {
    dist: Pareto,
}

impl ParetoProcess {
    /// From the tail index `shape > 1` and the target mean: the scale
    /// (minimum gap) is `mean·(shape − 1)/shape`.
    pub fn from_mean(shape: f64, mean: f64) -> Result<Self, String> {
        if !(shape.is_finite() && shape > 1.0) {
            return Err(format!(
                "pareto process needs shape > 1 for a finite mean, got {shape}"
            ));
        }
        if !(mean.is_finite() && mean > 0.0) {
            return Err(format!("pareto process mean must be positive, got {mean}"));
        }
        let scale = mean * (shape - 1.0) / shape;
        let dist = Pareto::new(scale, shape).map_err(|e| e.to_string())?;
        Ok(Self { dist })
    }

    /// The underlying distribution.
    pub fn dist(&self) -> &Pareto {
        &self.dist
    }
}

impl FailureProcess for ParetoProcess {
    fn sample_interval<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        self.dist.sample(rng)
    }
    fn mtbf(&self) -> f64 {
        self.dist.mean()
    }
    fn label(&self) -> &'static str {
        "pareto"
    }
}

/// Normalized (mean-1) inter-failure gaps shaped like public HPC failure
/// records (LANL-style logs, the family surveyed by arXiv:2311.17545):
/// a large mass of short gaps, a shoulder, and a few huge quiet stretches.
/// The empirical mean is normalized to exactly 1 at first use so a
/// [`TraceReplayProcess`] scaled by `mean` has MTBF = `mean`.
const TRACE_GAPS_RAW: &[f64] = &[
    0.04, 0.05, 0.07, 0.08, 0.10, 0.12, 0.14, 0.17, 0.20, 0.24, 0.28, 0.33, 0.39, 0.46, 0.55, 0.65,
    0.78, 0.95, 1.15, 1.40, 1.75, 2.20, 2.90, 4.10, 6.50, 11.0, 19.0,
];

fn trace_gaps() -> &'static [f64] {
    static NORMALIZED: OnceLock<Vec<f64>> = OnceLock::new();
    NORMALIZED.get_or_init(|| {
        let mean = TRACE_GAPS_RAW.iter().sum::<f64>() / TRACE_GAPS_RAW.len() as f64;
        TRACE_GAPS_RAW.iter().map(|&g| g / mean).collect()
    })
}

/// Empirical renewal process: inter-failure times are resampled uniformly
/// (i.i.d. bootstrap) from a recorded gap table, scaled to the target
/// mean. The built-in table is the normalized HPC-log shape above; this is
/// the "replay a real failure record" escape hatch of the model family.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceReplayProcess {
    mean: f64,
}

impl TraceReplayProcess {
    /// From the target mean inter-failure time.
    pub fn new(mean: f64) -> Result<Self, String> {
        if !(mean.is_finite() && mean > 0.0) {
            return Err(format!(
                "trace-replay process mean must be positive, got {mean}"
            ));
        }
        Ok(Self { mean })
    }
}

impl FailureProcess for TraceReplayProcess {
    fn sample_interval<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        let gaps = trace_gaps();
        let idx = rng.next_range(gaps.len() as u64) as usize;
        gaps[idx] * self.mean
    }
    fn mtbf(&self) -> f64 {
        self.mean
    }
    fn label(&self) -> &'static str {
        "trace"
    }
}

/// Enum dispatch over the concrete processes (the trait's generic sampler
/// keeps it from being a trait object; engines hold one of these).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HazardProcess {
    /// Memoryless baseline.
    Exponential(ExponentialProcess),
    /// HPC infant-mortality / wear-out family.
    Weibull(WeibullProcess),
    /// Multiplicative gap spread.
    LogNormal(LogNormalProcess),
    /// Heavy tail (paper Figure 5).
    Pareto(ParetoProcess),
    /// Empirical record replay.
    TraceReplay(TraceReplayProcess),
}

impl FailureProcess for HazardProcess {
    fn sample_interval<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            HazardProcess::Exponential(p) => p.sample_interval(rng),
            HazardProcess::Weibull(p) => p.sample_interval(rng),
            HazardProcess::LogNormal(p) => p.sample_interval(rng),
            HazardProcess::Pareto(p) => p.sample_interval(rng),
            HazardProcess::TraceReplay(p) => p.sample_interval(rng),
        }
    }
    fn mtbf(&self) -> f64 {
        match self {
            HazardProcess::Exponential(p) => p.mtbf(),
            HazardProcess::Weibull(p) => p.mtbf(),
            HazardProcess::LogNormal(p) => p.mtbf(),
            HazardProcess::Pareto(p) => p.mtbf(),
            HazardProcess::TraceReplay(p) => p.mtbf(),
        }
    }
    fn label(&self) -> &'static str {
        match self {
            HazardProcess::Exponential(p) => p.label(),
            HazardProcess::Weibull(p) => p.label(),
            HazardProcess::LogNormal(p) => p.label(),
            HazardProcess::Pareto(p) => p.label(),
            HazardProcess::TraceReplay(p) => p.label(),
        }
    }
}

/// The failure-model family names, without parameters — what a spec's
/// `failure_model = "..."` key selects before `failure_shape` /
/// `failure_scale` refine it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailureKind {
    /// The memoryless baseline (the default, bit-identical legacy path).
    #[default]
    Exponential,
    /// Weibull hazard (default shape 0.7: infant mortality).
    Weibull,
    /// Log-normal hazard (default log-space sigma 1.0).
    LogNormal,
    /// Pareto hazard (default tail index 1.5: heavy tail, finite mean).
    Pareto,
    /// Empirical HPC-record replay.
    TraceReplay,
}

impl FailureKind {
    /// Parse a spec value.
    pub fn from_name(name: &str) -> Result<Self, String> {
        match name {
            "exponential" => Ok(FailureKind::Exponential),
            "weibull" => Ok(FailureKind::Weibull),
            "lognormal" => Ok(FailureKind::LogNormal),
            "pareto" => Ok(FailureKind::Pareto),
            "trace" => Ok(FailureKind::TraceReplay),
            other => Err(format!(
                "unknown failure model {other:?} \
                 (expected exponential|weibull|lognormal|pareto|trace)"
            )),
        }
    }

    /// Spec label (inverse of [`FailureKind::from_name`]).
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Exponential => "exponential",
            FailureKind::Weibull => "weibull",
            FailureKind::LogNormal => "lognormal",
            FailureKind::Pareto => "pareto",
            FailureKind::TraceReplay => "trace",
        }
    }

    /// Build a validated [`FailureModelSpec`], rejecting bad or
    /// inapplicable parameters with messages naming the offending spec
    /// field (`failure_shape` / `failure_scale`).
    pub fn build(&self, shape: Option<f64>, scale: f64) -> Result<FailureModelSpec, String> {
        if !(scale.is_finite() && scale > 0.0) {
            return Err(format!(
                "key \"failure_scale\": must be positive and finite, got {scale}"
            ));
        }
        if let Some(s) = shape {
            if !(s.is_finite() && s > 0.0) {
                return Err(format!(
                    "key \"failure_shape\": must be positive and finite, got {s}"
                ));
            }
        }
        match self {
            FailureKind::Exponential => {
                if shape.is_some() {
                    return Err("key \"failure_shape\" has no effect with the exponential \
                         failure model; set failure_model first"
                        .to_string());
                }
                if scale != 1.0 {
                    return Err(format!(
                        "key \"failure_scale\": the exponential failure model is the \
                         bit-identical legacy path and takes no scale, got {scale} \
                         (set failure_model first)"
                    ));
                }
                Ok(FailureModelSpec::Exponential)
            }
            FailureKind::Weibull => Ok(FailureModelSpec::Weibull {
                shape: shape.unwrap_or(0.7),
                scale,
            }),
            FailureKind::LogNormal => Ok(FailureModelSpec::LogNormal {
                sigma: shape.unwrap_or(1.0),
                scale,
            }),
            FailureKind::Pareto => {
                let s = shape.unwrap_or(1.5);
                if s <= 1.0 {
                    return Err(format!(
                        "key \"failure_shape\": the pareto failure model needs shape > 1 \
                         (finite mean), got {s}"
                    ));
                }
                Ok(FailureModelSpec::Pareto { shape: s, scale })
            }
            FailureKind::TraceReplay => {
                if shape.is_some() {
                    return Err("key \"failure_shape\" has no effect with the trace \
                         failure model (it replays recorded gaps)"
                        .to_string());
                }
                Ok(FailureModelSpec::TraceReplay { scale })
            }
        }
    }
}

/// A fully parameterized failure model: the value carried by
/// [`crate::spec::WorkloadSpec`], [`crate::gen::Trace`], and the cluster
/// configuration. `scale` multiplies the mean inter-failure time (> 1 ⇒
/// fewer failures than the MNOF calibration).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum FailureModelSpec {
    /// The memoryless baseline — the exact legacy code path (default).
    #[default]
    Exponential,
    /// Weibull hazard with the given shape.
    Weibull {
        /// Weibull shape `k` (< 1 = infant mortality).
        shape: f64,
        /// Mean-interval multiplier.
        scale: f64,
    },
    /// Log-normal hazard with the given log-space sigma.
    LogNormal {
        /// Log-space standard deviation σ.
        sigma: f64,
        /// Mean-interval multiplier.
        scale: f64,
    },
    /// Pareto hazard with the given tail index (> 1).
    Pareto {
        /// Tail index α (smaller = heavier tail; must exceed 1).
        shape: f64,
        /// Mean-interval multiplier.
        scale: f64,
    },
    /// Empirical HPC-record replay.
    TraceReplay {
        /// Mean-interval multiplier.
        scale: f64,
    },
}

impl FailureModelSpec {
    /// The family this model belongs to.
    pub fn kind(&self) -> FailureKind {
        match self {
            FailureModelSpec::Exponential => FailureKind::Exponential,
            FailureModelSpec::Weibull { .. } => FailureKind::Weibull,
            FailureModelSpec::LogNormal { .. } => FailureKind::LogNormal,
            FailureModelSpec::Pareto { .. } => FailureKind::Pareto,
            FailureModelSpec::TraceReplay { .. } => FailureKind::TraceReplay,
        }
    }

    /// Whether this is the bit-identical legacy default.
    pub fn is_default(&self) -> bool {
        matches!(self, FailureModelSpec::Exponential)
    }

    /// Spec label of the family.
    pub fn label(&self) -> &'static str {
        self.kind().label()
    }

    /// The mean-interval multiplier (1.0 for the default model).
    pub fn scale(&self) -> f64 {
        match self {
            FailureModelSpec::Exponential => 1.0,
            FailureModelSpec::Weibull { scale, .. }
            | FailureModelSpec::LogNormal { scale, .. }
            | FailureModelSpec::Pareto { scale, .. }
            | FailureModelSpec::TraceReplay { scale } => *scale,
        }
    }

    /// Compact `kind[:shape[:scale]]` rendering for trace-file metadata.
    pub fn render_compact(&self) -> String {
        match self {
            FailureModelSpec::Exponential => "exponential".to_string(),
            FailureModelSpec::Weibull { shape, scale } => format!("weibull:{shape}:{scale}"),
            FailureModelSpec::LogNormal { sigma, scale } => format!("lognormal:{sigma}:{scale}"),
            FailureModelSpec::Pareto { shape, scale } => format!("pareto:{shape}:{scale}"),
            FailureModelSpec::TraceReplay { scale } => format!("trace::{scale}"),
        }
    }

    /// Parse the [`FailureModelSpec::render_compact`] form.
    pub fn parse_compact(s: &str) -> Result<Self, String> {
        let mut parts = s.split(':');
        let kind = FailureKind::from_name(parts.next().unwrap_or(""))?;
        let shape = match parts.next() {
            None | Some("") => None,
            Some(v) => Some(
                v.parse::<f64>()
                    .map_err(|_| format!("bad failure-model shape {v:?}"))?,
            ),
        };
        let scale = match parts.next() {
            None | Some("") => 1.0,
            Some(v) => v
                .parse::<f64>()
                .map_err(|_| format!("bad failure-model scale {v:?}"))?,
        };
        if parts.next().is_some() {
            return Err(format!("bad failure-model spec {s:?}"));
        }
        kind.build(shape, scale)
    }

    /// The renewal process for this model. Callers pass the *unscaled*
    /// base mean (the MNOF-derived `te/MNOF` for task plans, the
    /// configured MTBF for host failures); the model's `scale` multiplier
    /// is applied here, exactly once.
    pub fn process(&self, mean: f64) -> HazardProcess {
        let mean = mean * self.scale();
        match self {
            FailureModelSpec::Exponential => {
                HazardProcess::Exponential(ExponentialProcess::new(mean))
            }
            FailureModelSpec::Weibull { shape, .. } => HazardProcess::Weibull(
                WeibullProcess::from_mean(*shape, mean).expect("validated parameters"),
            ),
            FailureModelSpec::LogNormal { sigma, .. } => HazardProcess::LogNormal(
                LogNormalProcess::from_mean(*sigma, mean).expect("validated parameters"),
            ),
            FailureModelSpec::Pareto { shape, .. } => HazardProcess::Pareto(
                ParetoProcess::from_mean(*shape, mean).expect("validated parameters"),
            ),
            FailureModelSpec::TraceReplay { .. } => {
                HazardProcess::TraceReplay(TraceReplayProcess::new(mean).expect("positive mean"))
            }
        }
    }
}

/// Draw the kill plan of one task under a failure model.
///
/// * Under the default [`FailureModelSpec::Exponential`] this is exactly
///   the legacy calibrated sampler
///   ([`FailureModel::sample_plan`]) — same draws, same
///   stream order, byte-identical plans.
/// * Under any other model, kills are the renewal points of the chosen
///   process over the task's busy-time window `(0, te)`, with the mean
///   inter-failure time set to `scale · te / MNOF(priority, te)` — the
///   per-priority MNOF calibration carries over via the elementary renewal
///   theorem (approximately: strongly skewed laws over-count in windows
///   comparable to the mean gap; the estimators always ingest the
///   *realized* histories, so policies stay calibrated to the actual
///   process). Sub-second gaps are coalesced exactly like the legacy
///   sampler (event logs have second granularity).
pub fn sample_task_plan<R: Rng64 + ?Sized>(
    model: FailureModelSpec,
    priority: u8,
    te: f64,
    rng: &mut R,
) -> FailurePlan {
    let mut positions = Vec::new();
    sample_task_plan_into(model, priority, te, rng, &mut positions);
    FailurePlan { positions }
}

/// [`sample_task_plan`] appended to a caller-provided position buffer —
/// the allocation-free form the replay hot loop and the failure-plan
/// arena use. Draws are identical, value for value and stream-state for
/// stream-state, to the allocating form.
pub fn sample_task_plan_into<R: Rng64 + ?Sized>(
    model: FailureModelSpec,
    priority: u8,
    te: f64,
    rng: &mut R,
    out: &mut Vec<f64>,
) {
    let calibrated = FailureModel::for_priority(priority);
    if model.is_default() {
        calibrated.sample_plan_into(te, rng, out);
        return;
    }
    let mnof = calibrated.mean_failures(te);
    if !mnof.is_finite() || mnof <= 0.0 || te <= 0.0 {
        return;
    }
    let process = model.process(te / mnof);
    let mut at = 0.0f64;
    let mut prev = 0.0f64;
    loop {
        at += process.sample_interval(rng).max(0.0);
        if at >= te {
            break;
        }
        // Coalesce sub-second gaps, as in the legacy sampler.
        if at - prev >= 1.0 {
            out.push(at);
            prev = at;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckpt_stats::rng::Xoshiro256StarStar;

    fn sample_mean(p: &HazardProcess, seed: u64, n: usize) -> f64 {
        let mut rng = Xoshiro256StarStar::new(seed);
        (0..n).map(|_| p.sample_interval(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn all_processes_hit_their_closed_form_mtbf() {
        let target = 500.0;
        for (spec, tol) in [
            (FailureModelSpec::Exponential, 0.02),
            (
                FailureModelSpec::Weibull {
                    shape: 0.7,
                    scale: 1.0,
                },
                0.03,
            ),
            (
                FailureModelSpec::LogNormal {
                    sigma: 1.0,
                    scale: 1.0,
                },
                0.03,
            ),
            // Pareto 2.5 still has finite variance; heavier tails need far
            // larger samples and are covered by the root proptest.
            (
                FailureModelSpec::Pareto {
                    shape: 2.5,
                    scale: 1.0,
                },
                0.05,
            ),
            (FailureModelSpec::TraceReplay { scale: 1.0 }, 0.03),
        ] {
            let p = spec.process(target);
            assert!(
                (p.mtbf() - target).abs() / target < 1e-9,
                "{}: constructed MTBF {} != {target}",
                p.label(),
                p.mtbf()
            );
            let m = sample_mean(&p, 42, 200_000);
            assert!(
                (m - target).abs() / target < tol,
                "{}: sampled mean {m} vs closed-form {target}",
                p.label()
            );
            assert!((p.mnof(1000.0) - 1000.0 / p.mtbf()).abs() < 1e-12);
        }
    }

    #[test]
    fn scale_multiplies_the_mean() {
        let spec = FailureModelSpec::Weibull {
            shape: 0.7,
            scale: 4.0,
        };
        let p = spec.process(100.0);
        assert!((p.mtbf() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn exponential_process_matches_legacy_host_draw() {
        // The cluster engine's historical draw: -ln(U)·mtbf on the same
        // stream. Bit-identical is the contract, not just distributional.
        let p = ExponentialProcess::new(3_600.0);
        let mut a = Xoshiro256StarStar::new(7);
        let mut b = Xoshiro256StarStar::new(7);
        for _ in 0..100 {
            let legacy = -b.next_f64_open().ln() * 3_600.0;
            assert_eq!(p.sample_interval(&mut a).to_bits(), legacy.to_bits());
        }
    }

    #[test]
    fn default_task_plan_is_the_legacy_calibrated_plan() {
        for priority in [1u8, 2, 10, 12] {
            for seed in 0..20u64 {
                let mut a = Xoshiro256StarStar::new(seed);
                let mut b = Xoshiro256StarStar::new(seed);
                let legacy = FailureModel::for_priority(priority).sample_plan(700.0, &mut a);
                let routed =
                    sample_task_plan(FailureModelSpec::Exponential, priority, 700.0, &mut b);
                assert_eq!(legacy, routed, "priority {priority} seed {seed}");
                // And the RNG streams advanced identically.
                assert_eq!(a.next_u64(), b.next_u64());
            }
        }
    }

    #[test]
    fn hazard_plans_preserve_the_mnof_calibration() {
        // Renewal plans with mean = te/MNOF must keep the average failure
        // count near the calibrated MNOF. The renewal theorem is
        // asymptotic: strongly skewed laws (many tiny gaps, a few huge
        // ones) over-count in a window comparable to the mean gap, so the
        // band widens for the pareto/trace family — the estimators see
        // the realized histories, so the policies stay calibrated to
        // whatever the process actually does.
        let te = 2_000.0;
        let priority = 2u8;
        let expect = FailureModel::for_priority(priority).mean_failures(te);
        for (spec, hi) in [
            (
                FailureModelSpec::Weibull {
                    shape: 0.7,
                    scale: 1.0,
                },
                1.5,
            ),
            (
                FailureModelSpec::LogNormal {
                    sigma: 1.0,
                    scale: 1.0,
                },
                1.8,
            ),
            (
                FailureModelSpec::Pareto {
                    shape: 1.5,
                    scale: 1.0,
                },
                2.5,
            ),
            (FailureModelSpec::TraceReplay { scale: 1.0 }, 2.5),
        ] {
            let mut rng = Xoshiro256StarStar::new(11);
            let n = 30_000;
            let mean = (0..n)
                .map(|_| sample_task_plan(spec, priority, te, &mut rng).count() as f64)
                .sum::<f64>()
                / n as f64;
            assert!(
                mean > 0.5 * expect && mean < hi * expect,
                "{}: mean count {mean} vs calibrated {expect}",
                spec.label()
            );
        }
    }

    #[test]
    fn hazard_plan_positions_sorted_spaced_and_in_range() {
        let spec = FailureModelSpec::Pareto {
            shape: 1.5,
            scale: 1.0,
        };
        let mut rng = Xoshiro256StarStar::new(3);
        for _ in 0..500 {
            let plan = sample_task_plan(spec, 10, 900.0, &mut rng);
            let mut prev = 0.0;
            for &p in &plan.positions {
                assert!(p > prev && p < 900.0, "position {p} out of order/range");
                assert!(p - prev >= 1.0 || prev == 0.0, "sub-second gap survived");
                prev = p;
            }
        }
    }

    #[test]
    fn kind_parsing_and_defaults() {
        assert_eq!(
            FailureKind::from_name("weibull").unwrap(),
            FailureKind::Weibull
        );
        assert!(FailureKind::from_name("gamma").is_err());
        for kind in [
            FailureKind::Exponential,
            FailureKind::Weibull,
            FailureKind::LogNormal,
            FailureKind::Pareto,
            FailureKind::TraceReplay,
        ] {
            assert_eq!(FailureKind::from_name(kind.label()).unwrap(), kind);
            let spec = kind.build(None, 1.0).unwrap();
            assert_eq!(spec.kind(), kind);
        }
    }

    #[test]
    fn build_rejects_bad_parameters_with_named_fields() {
        let shape_err = FailureKind::Weibull.build(Some(-1.0), 1.0).unwrap_err();
        assert!(shape_err.contains("failure_shape"), "{shape_err}");
        let nan_err = FailureKind::Weibull.build(Some(f64::NAN), 1.0).unwrap_err();
        assert!(nan_err.contains("failure_shape"), "{nan_err}");
        let scale_err = FailureKind::Pareto.build(None, 0.0).unwrap_err();
        assert!(scale_err.contains("failure_scale"), "{scale_err}");
        let pareto_err = FailureKind::Pareto.build(Some(0.9), 1.0).unwrap_err();
        assert!(pareto_err.contains("shape > 1"), "{pareto_err}");
        assert!(FailureKind::Exponential.build(Some(2.0), 1.0).is_err());
        assert!(FailureKind::Exponential.build(None, 2.0).is_err());
        assert!(FailureKind::TraceReplay.build(Some(2.0), 1.0).is_err());
    }

    #[test]
    fn compact_roundtrip() {
        for spec in [
            FailureModelSpec::Exponential,
            FailureModelSpec::Weibull {
                shape: 0.7,
                scale: 2.0,
            },
            FailureModelSpec::LogNormal {
                sigma: 1.25,
                scale: 1.0,
            },
            FailureModelSpec::Pareto {
                shape: 1.5,
                scale: 0.5,
            },
            FailureModelSpec::TraceReplay { scale: 3.0 },
        ] {
            let s = spec.render_compact();
            assert_eq!(FailureModelSpec::parse_compact(&s).unwrap(), spec, "{s}");
        }
        assert!(FailureModelSpec::parse_compact("weibull:0").is_err());
        assert!(FailureModelSpec::parse_compact("zebra").is_err());
    }

    #[test]
    fn trace_gap_table_is_mean_one() {
        let gaps = trace_gaps();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 1.0).abs() < 1e-12);
        assert!(gaps.iter().all(|&g| g > 0.0));
        // Heavy-tailed: the largest normalized gap dwarfs the mean.
        let max = gaps.iter().cloned().fold(0.0, f64::max);
        assert!(max > 8.0, "max normalized gap {max}");
    }
}
