//! Analytical tooling around Formula (4): the penalty of mis-estimated
//! inputs, and the robustness comparison behind the paper's §5.2
//! discussion ("Young's formula is not proper ... due to its assumption" /
//! "MNOF ... would not change a lot").
//!
//! The central quantity is the **penalty factor**: expected fault-tolerance
//! overhead under a mis-calibrated interval count, relative to the optimal
//! overhead. Because Formula (4)'s overhead is `C·x + Te·E(Y)/(2x)` (up to
//! the `x`-independent terms), using `k·x*` instead of `x*` costs a factor
//! `(k + 1/k)/2` — the square-root-shaped flatness that makes Formula (3)
//! forgiving of MNOF errors, and the quadratic-in-`sqrt(inflation)` blowup
//! that punishes Young's inflated MTBF.

use crate::optimal::{expected_wall_clock, optimal_interval_count};
use crate::{PolicyError, Result};

/// The idealized overhead penalty of running at `k · x*` instead of `x*`:
/// `(k + 1/k) / 2` (continuous approximation; exact as `Te → ∞`).
///
/// ```
/// use ckpt_policy::analysis::penalty_factor;
/// assert!((penalty_factor(1.0).unwrap() - 1.0).abs() < 1e-12);
/// // A 4x mis-scaling of the interval count doubles the overhead:
/// assert!((penalty_factor(4.0).unwrap() - 2.125).abs() < 1e-12);
/// ```
pub fn penalty_factor(k: f64) -> Result<f64> {
    if !(k.is_finite() && k > 0.0) {
        return Err(PolicyError::BadInput {
            what: "k",
            value: k,
        });
    }
    Ok(0.5 * (k + 1.0 / k))
}

/// Exact (discrete) overhead ratio of using `x_used` instead of the optimal
/// count for `(te, c, e_y)`: `overhead(x_used) / overhead(x*)`.
pub fn overhead_ratio(te: f64, c: f64, e_y: f64, x_used: u32) -> Result<f64> {
    let x_opt = optimal_interval_count(te, c, e_y)?.rounded();
    let w_used = expected_wall_clock(te, c, 0.0, e_y, x_used)? - te;
    let w_opt = expected_wall_clock(te, c, 0.0, e_y, x_opt)? - te;
    if w_opt <= 0.0 {
        // No failures expected: any extra checkpoint is pure overhead.
        return Ok(if w_used <= 0.0 { 1.0 } else { f64::INFINITY });
    }
    Ok(w_used / w_opt)
}

/// The penalty of driving Formula (3) with a mis-estimated MNOF
/// `e_y_est = β · e_y_true`: the count scales with `sqrt(β)`, so the
/// overhead ratio is `(sqrt(β) + 1/sqrt(β))/2` — sub-linear in the
/// estimation error. This is the paper's robustness argument, quantified.
pub fn mnof_misestimation_penalty(te: f64, c: f64, e_y_true: f64, beta: f64) -> Result<f64> {
    if !(beta.is_finite() && beta > 0.0) {
        return Err(PolicyError::BadInput {
            what: "beta",
            value: beta,
        });
    }
    let x_est = optimal_interval_count(te, c, e_y_true * beta)?.rounded();
    overhead_ratio(te, c, e_y_true, x_est)
}

/// The penalty of driving Young's formula with an MTBF inflated by `γ`
/// (the Table 7 phenomenon): Young's interval grows by `sqrt(γ)`, the
/// count shrinks by `sqrt(γ)`, and the overhead ratio grows accordingly.
pub fn mtbf_inflation_penalty(
    te: f64,
    c: f64,
    e_y_true: f64,
    honest_mtbf: f64,
    gamma: f64,
) -> Result<f64> {
    if !(gamma.is_finite() && gamma > 0.0) {
        return Err(PolicyError::BadInput {
            what: "gamma",
            value: gamma,
        });
    }
    let x_young = crate::young::young_interval_count(te, c, honest_mtbf * gamma)?;
    overhead_ratio(te, c, e_y_true, x_young)
}

/// How a failure process distorts Young/Daly's input: the ratio of the
/// process's recorded MTBF to the *effective* mean interval `te / E(Y)`
/// implied by the failure count over the window.
///
/// Under an exponential (memoryless) process the two coincide and the
/// distortion is ≈ 1. Heavy-tailed or infant-mortality hazards record an
/// MTBF dominated by rare huge gaps while the count keeps climbing through
/// the bursts of short ones, so the distortion exceeds 1 — and Young's
/// interval `sqrt(2·C·MTBF)` inflates by its square root.
///
/// ```
/// use ckpt_policy::analysis::mtbf_distortion;
/// // Memoryless: recorded MTBF equals te/E(Y), no distortion.
/// assert!((mtbf_distortion(600.0, 2.0, 300.0).unwrap() - 1.0).abs() < 1e-12);
/// // Heavy tail: recorded MTBF 10x the effective interval.
/// assert!((mtbf_distortion(600.0, 2.0, 3000.0).unwrap() - 10.0).abs() < 1e-12);
/// ```
pub fn mtbf_distortion(te: f64, e_y: f64, recorded_mtbf: f64) -> Result<f64> {
    for (what, value) in [("te", te), ("e_y", e_y), ("recorded_mtbf", recorded_mtbf)] {
        if !(value.is_finite() && value > 0.0) {
            return Err(PolicyError::BadInput { what, value });
        }
    }
    Ok(recorded_mtbf / (te / e_y))
}

/// The per-policy plan and Formula (4) overhead under a general hazard:
/// what each formula chooses when the process's true expected failure
/// count is `e_y` but its recorded MTBF is `mtbf`, and what that choice
/// costs relative to the Theorem 1 optimum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HazardPolicyCosts {
    /// Theorem 1's interval count from the true `E(Y)` (distribution-free).
    pub x_opt: u32,
    /// Young's interval count from the recorded MTBF.
    pub x_young: u32,
    /// Daly's interval count from the recorded MTBF.
    pub x_daly: u32,
    /// Formula (4) overhead of Young's count relative to the optimum (≥ 1).
    pub young_ratio: f64,
    /// Formula (4) overhead of Daly's count relative to the optimum (≥ 1).
    pub daly_ratio: f64,
}

/// Expected-cost comparison of the three formulas under a general hazard.
///
/// Formula (4)'s expected overhead `C·x + Te·E(Y)/(2x)` needs only the
/// expected failure *count* — that is Theorem 1's distribution-free claim
/// — so it prices any policy's interval count under any hazard once
/// `E(Y)` is known. Young and Daly, whose counts come from the recorded
/// MTBF, are mis-sized exactly when [`mtbf_distortion`] departs from 1.
///
/// ```
/// use ckpt_policy::analysis::hazard_policy_costs;
/// // Memoryless hazard: MTBF = te/E(Y), all three nearly coincide.
/// let fair = hazard_policy_costs(600.0, 0.5, 1.2, 500.0).unwrap();
/// assert!(fair.young_ratio < 1.1);
/// // The same workload under a hazard whose recorded MTBF is 18x
/// // inflated: Young checkpoints far too rarely and pays for it.
/// let tail = hazard_policy_costs(600.0, 0.5, 1.2, 9_000.0).unwrap();
/// assert!(tail.x_young < fair.x_young);
/// assert!(tail.young_ratio > fair.young_ratio);
/// ```
pub fn hazard_policy_costs(te: f64, c: f64, e_y: f64, mtbf: f64) -> Result<HazardPolicyCosts> {
    let x_opt = optimal_interval_count(te, c, e_y)?.rounded();
    let x_young = crate::young::young_interval_count(te, c, mtbf)?;
    let x_daly = crate::daly::daly_interval_count(te, c, mtbf)?;
    Ok(HazardPolicyCosts {
        x_opt,
        x_young,
        x_daly,
        young_ratio: overhead_ratio(te, c, e_y, x_young)?,
        daly_ratio: overhead_ratio(te, c, e_y, x_daly)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_convex_with_minimum_at_xstar() {
        // Formula (4)'s E(Tw) over x = 1..=60.
        let curve: Vec<(u32, f64)> = (1..=60)
            .map(|x| (x, expected_wall_clock(441.0, 1.0, 0.0, 2.0, x).unwrap()))
            .collect();
        let (x_min, _) = curve
            .iter()
            .copied()
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        // x* = sqrt(441·2/2) = 21.
        assert_eq!(x_min, 21);
        // Discrete convexity: the curve falls to the minimum, then rises.
        for w in curve.windows(2) {
            let rising = w[1].1 > w[0].1;
            assert_eq!(rising, w[0].0 >= x_min, "curve must fall then rise");
        }
    }

    #[test]
    fn penalty_factor_symmetry() {
        // Over- and under-estimation by the same factor cost the same.
        let over = penalty_factor(3.0).unwrap();
        let under = penalty_factor(1.0 / 3.0).unwrap();
        assert!((over - under).abs() < 1e-12);
        assert!(penalty_factor(0.0).is_err());
    }

    #[test]
    fn mnof_misestimation_is_forgiving() {
        // A 2x MNOF error costs < 7 % extra overhead — the robustness that
        // makes the paper's group-MNOF estimator viable.
        let p = mnof_misestimation_penalty(600.0, 0.5, 1.2, 2.0).unwrap();
        assert!(p < 1.07, "penalty {p}");
        let p_half = mnof_misestimation_penalty(600.0, 0.5, 1.2, 0.5).unwrap();
        assert!(p_half < 1.07, "penalty {p_half}");
    }

    #[test]
    fn mtbf_inflation_is_punishing() {
        // An 18x MTBF inflation (our Table 7 measurement) costs Young far
        // more than a 2x MNOF error costs Formula (3).
        let honest = 150.0;
        let p_young = mtbf_inflation_penalty(600.0, 0.5, 1.2, honest, 18.0).unwrap();
        let p_f3 = mnof_misestimation_penalty(600.0, 0.5, 1.2, 2.0).unwrap();
        assert!(p_young > 1.3, "young penalty {p_young}");
        assert!(
            p_young > 3.0 * (p_f3 - 1.0) + 1.0,
            "young {p_young} vs f3 {p_f3}"
        );
    }

    #[test]
    fn overhead_ratio_at_optimum_is_one() {
        let x_opt = optimal_interval_count(600.0, 0.5, 1.2).unwrap().rounded();
        let r = overhead_ratio(600.0, 0.5, 1.2, x_opt).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
        assert!(overhead_ratio(600.0, 0.5, 1.2, x_opt * 3).unwrap() > 1.0);
    }

    #[test]
    fn zero_failures_edge() {
        assert_eq!(overhead_ratio(100.0, 1.0, 0.0, 1).unwrap(), 1.0);
        assert_eq!(overhead_ratio(100.0, 1.0, 0.0, 5).unwrap(), f64::INFINITY);
    }

    #[test]
    fn distortion_is_one_for_memoryless_and_rejects_bad_inputs() {
        assert!((mtbf_distortion(1000.0, 2.0, 500.0).unwrap() - 1.0).abs() < 1e-12);
        assert!(mtbf_distortion(0.0, 2.0, 500.0).is_err());
        assert!(mtbf_distortion(1000.0, f64::NAN, 500.0).is_err());
        assert!(mtbf_distortion(1000.0, 2.0, -1.0).is_err());
    }

    #[test]
    fn hazard_costs_grow_monotonically_with_distortion() {
        // As the recorded MTBF inflates past the effective interval,
        // Young's count shrinks and its overhead ratio climbs; the
        // Theorem 1 count (true E(Y)) never moves.
        let (te, c, e_y) = (600.0, 0.5, 1.2);
        let honest = te / e_y;
        let mut last_ratio = 0.0;
        let mut last_count = u32::MAX;
        for gamma in [1.0, 2.0, 6.0, 18.0] {
            let hc = hazard_policy_costs(te, c, e_y, honest * gamma).unwrap();
            assert_eq!(
                hc.x_opt,
                optimal_interval_count(te, c, e_y).unwrap().rounded()
            );
            assert!(hc.x_young <= last_count, "count must shrink: {hc:?}");
            assert!(
                hc.young_ratio + 1e-12 >= last_ratio,
                "ratio must climb: {hc:?}"
            );
            assert!(hc.daly_ratio >= 1.0 && hc.young_ratio >= 1.0);
            last_ratio = hc.young_ratio;
            last_count = hc.x_young;
        }
        assert!(last_ratio > 1.3, "18x distortion must visibly hurt Young");
    }
}
