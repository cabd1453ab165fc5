//! Small numerical routines used by the MLE fitters and quantile functions:
//! bisection root finding, Newton–Raphson with bisection fallback, and
//! special functions (`erf`, `erfc`, `ln_gamma`).

use crate::{Result, StatsError};

/// Find a root of `f` in `[lo, hi]` by bisection.
///
/// Requires `f(lo)` and `f(hi)` to have opposite signs. Converges to absolute
/// tolerance `tol` on the argument or after `max_iter` halvings.
pub fn bisect<F: Fn(f64) -> f64>(
    f: F,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64> {
    let mut flo = f(lo);
    let fhi = f(hi);
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo * fhi > 0.0 {
        return Err(StatsError::BadInput("bisect: no sign change on interval"));
    }
    for _ in 0..max_iter {
        let mid = 0.5 * (lo + hi);
        let fmid = f(mid);
        if fmid == 0.0 || (hi - lo) < tol {
            return Ok(mid);
        }
        if flo * fmid < 0.0 {
            hi = mid;
        } else {
            lo = mid;
            flo = fmid;
        }
    }
    Ok(0.5 * (lo + hi))
}

/// Newton–Raphson with a bracketing bisection fallback.
///
/// `f` returns `(value, derivative)`. The iterate is kept inside `[lo, hi]`;
/// whenever a Newton step leaves the bracket or the derivative vanishes the
/// routine falls back to bisection on the current bracket. This is the classic
/// "safe Newton" of Numerical Recipes.
pub fn newton_bisect<F: Fn(f64) -> (f64, f64)>(
    f: F,
    mut lo: f64,
    mut hi: f64,
    x0: f64,
    tol: f64,
    max_iter: usize,
) -> Result<f64> {
    let (flo, _) = f(lo);
    let (fhi, _) = f(hi);
    if flo == 0.0 {
        return Ok(lo);
    }
    if fhi == 0.0 {
        return Ok(hi);
    }
    if flo * fhi > 0.0 {
        return Err(StatsError::BadInput(
            "newton_bisect: no sign change on interval",
        ));
    }
    // Orient so that f(lo) < 0 < f(hi).
    if flo > 0.0 {
        std::mem::swap(&mut lo, &mut hi);
    }
    let mut x = x0.clamp(lo.min(hi), lo.max(hi));
    for _ in 0..max_iter {
        let (fx, dfx) = f(x);
        if fx.abs() < tol {
            return Ok(x);
        }
        // Shrink the bracket using the current iterate, *then* pick the next
        // point — this way a bisection fallback can never return the current
        // iterate and stall.
        if fx < 0.0 {
            lo = x;
        } else {
            hi = x;
        }
        let newton = if dfx != 0.0 { x - fx / dfx } else { f64::NAN };
        let in_bracket = newton.is_finite() && (newton - lo) * (newton - hi) < 0.0;
        let x_new = if in_bracket { newton } else { 0.5 * (lo + hi) };
        if (x_new - x).abs() < tol {
            return Ok(x_new);
        }
        x = x_new;
    }
    Err(StatsError::NoConvergence("newton_bisect"))
}

/// The error function `erf(x)`, accurate to ~1.2e-7 (Numerical Recipes'
/// Chebyshev fit of `erfc`). Sufficient for CDF evaluation and fitting.
pub fn erf(x: f64) -> f64 {
    1.0 - erfc(x)
}

/// The complementary error function `erfc(x)`.
pub fn erfc(x: f64) -> f64 {
    let z = x.abs();
    let t = 1.0 / (1.0 + 0.5 * z);
    // Chebyshev polynomial approximation (Numerical Recipes 6.2).
    let ans = t
        * (-z * z - 1.265_512_23
            + t * (1.000_023_68
                + t * (0.374_091_96
                    + t * (0.096_784_18
                        + t * (-0.186_288_06
                            + t * (0.278_868_07
                                + t * (-1.135_203_98
                                    + t * (1.488_515_87
                                        + t * (-0.822_152_23 + t * 0.170_872_77)))))))))
            .exp();
    if x >= 0.0 {
        ans
    } else {
        2.0 - ans
    }
}

/// Inverse of the standard normal CDF (Acklam's rational approximation,
/// relative error < 1.15e-9), refined with one Halley step.
pub fn inv_norm_cdf(p: f64) -> f64 {
    assert!(
        p > 0.0 && p < 1.0,
        "inv_norm_cdf: p must be in (0,1), got {p}"
    );
    // Coefficients for Acklam's algorithm.
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;
    const P_HIGH: f64 = 1.0 - P_LOW;

    let x = if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    };

    // One Halley refinement using the analytic normal pdf/cdf.
    let e = 0.5 * erfc(-x / std::f64::consts::SQRT_2) - p;
    let u = e * (2.0 * std::f64::consts::PI).sqrt() * (x * x / 2.0).exp();
    x - u / (1.0 + x * u / 2.0)
}

/// Natural log of the gamma function (Lanczos approximation, |err| < 2e-10).
pub fn ln_gamma(x: f64) -> f64 {
    assert!(x > 0.0, "ln_gamma: x must be positive, got {x}");
    const G: f64 = 7.0;
    const COEF: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    if x < 0.5 {
        // Reflection formula.
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEF[0];
    let t = x + G + 0.5;
    for (i, &c) in COEF.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Regularized lower incomplete gamma function `P(a, x) = γ(a, x)/Γ(a)`
/// (Numerical Recipes 6.2: series for `x < a+1`, continued fraction
/// otherwise). Accurate to ~1e-12 over the ranges used here.
pub fn gamma_p(a: f64, x: f64) -> f64 {
    assert!(a > 0.0, "gamma_p: a must be positive, got {a}");
    assert!(x >= 0.0, "gamma_p: x must be non-negative, got {x}");
    if x == 0.0 {
        return 0.0;
    }
    if x < a + 1.0 {
        // Series representation.
        let mut ap = a;
        let mut sum = 1.0 / a;
        let mut del = sum;
        for _ in 0..500 {
            ap += 1.0;
            del *= x / ap;
            sum += del;
            if del.abs() < sum.abs() * 1e-15 {
                break;
            }
        }
        sum * (-x + a * x.ln() - ln_gamma(a)).exp()
    } else {
        // Continued fraction for Q(a, x) = 1 − P(a, x) (Lentz's method).
        let mut b = x + 1.0 - a;
        let mut c = 1.0 / 1e-300;
        let mut d = 1.0 / b;
        let mut h = d;
        for i in 1..500 {
            let an = -(i as f64) * (i as f64 - a);
            b += 2.0;
            d = an * d + b;
            if d.abs() < 1e-300 {
                d = 1e-300;
            }
            c = b + an / c;
            if c.abs() < 1e-300 {
                c = 1e-300;
            }
            d = 1.0 / d;
            let del = d * c;
            h *= del;
            if (del - 1.0).abs() < 1e-15 {
                break;
            }
        }
        let q = (-x + a * x.ln() - ln_gamma(a)).exp() * h;
        (1.0 - q).clamp(0.0, 1.0)
    }
}

/// Digamma function `ψ(x)` (asymptotic series with recurrence shift),
/// used by the gamma MLE fitter.
pub fn digamma(mut x: f64) -> f64 {
    assert!(x > 0.0, "digamma: x must be positive, got {x}");
    let mut result = 0.0;
    // Shift x up until the asymptotic expansion is accurate (truncation
    // error ~ x^-10 at the shift point).
    while x < 10.0 {
        result -= 1.0 / x;
        x += 1.0;
    }
    let inv = 1.0 / x;
    let inv2 = inv * inv;
    result + x.ln()
        - 0.5 * inv
        - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 * (1.0 / 252.0 - inv2 * (1.0 / 240.0))))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bisect_finds_sqrt2() {
        let r = bisect(|x| x * x - 2.0, 0.0, 2.0, 1e-12, 200).unwrap();
        assert!((r - std::f64::consts::SQRT_2).abs() < 1e-10);
    }

    #[test]
    fn bisect_rejects_bad_bracket() {
        assert!(bisect(|x| x * x + 1.0, -1.0, 1.0, 1e-9, 100).is_err());
    }

    #[test]
    fn bisect_accepts_root_at_endpoint() {
        let r = bisect(|x| x, 0.0, 1.0, 1e-12, 100).unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn newton_finds_cube_root() {
        let f = |x: f64| (x * x * x - 27.0, 3.0 * x * x);
        let r = newton_bisect(f, 0.0, 10.0, 5.0, 1e-12, 100).unwrap();
        assert!((r - 3.0).abs() < 1e-9);
    }

    #[test]
    fn newton_handles_flat_derivative() {
        // f(x) = x^3 has zero derivative at 0 but the bracket keeps us safe.
        let f = |x: f64| (x * x * x - 1e-9, 3.0 * x * x);
        let r = newton_bisect(f, -1.0, 1.0, 0.0, 1e-14, 200).unwrap();
        assert!((r - 1e-3).abs() < 1e-5);
    }

    #[test]
    fn erf_reference_values() {
        // Values from Abramowitz & Stegun tables. The Chebyshev fit is
        // accurate to ~1.2e-7, so tolerances are set accordingly.
        assert!((erf(0.0)).abs() < 1e-7);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(2.0) - 0.995_322_27).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
    }

    #[test]
    fn erfc_symmetry() {
        for &x in &[0.1, 0.7, 1.3, 2.9] {
            assert!((erfc(x) + erfc(-x) - 2.0).abs() < 1e-7, "x = {x}");
        }
    }

    #[test]
    fn inv_norm_round_trips() {
        for &p in &[0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999] {
            let x = inv_norm_cdf(p);
            let back = 0.5 * erfc(-x / std::f64::consts::SQRT_2);
            assert!((back - p).abs() < 1e-7, "p = {p}, back = {back}");
        }
    }

    #[test]
    fn inv_norm_median_is_zero() {
        // Limited by the erfc approximation used in the Halley refinement.
        assert!(inv_norm_cdf(0.5).abs() < 1e-6);
    }

    #[test]
    fn ln_gamma_matches_factorials() {
        for n in 1..15u64 {
            let expect: f64 = (1..n).map(|k| (k as f64).ln()).sum();
            assert!((ln_gamma(n as f64) - expect).abs() < 1e-8, "n = {n}");
        }
    }

    #[test]
    fn ln_gamma_half() {
        // Γ(1/2) = sqrt(pi)
        let expect = std::f64::consts::PI.sqrt().ln();
        assert!((ln_gamma(0.5) - expect).abs() < 1e-9);
    }

    #[test]
    fn gamma_p_exponential_special_case() {
        // P(1, x) = 1 − e^−x.
        for &x in &[0.1, 1.0, 3.7, 10.0] {
            assert!(
                (gamma_p(1.0, x) - (1.0 - (-x).exp())).abs() < 1e-12,
                "x = {x}"
            );
        }
    }

    #[test]
    fn gamma_p_erlang_special_case() {
        // P(2, x) = 1 − e^−x(1 + x).
        for &x in &[0.5f64, 2.0, 8.0] {
            let expect = 1.0 - (-x).exp() * (1.0 + x);
            assert!((gamma_p(2.0, x) - expect).abs() < 1e-12, "x = {x}");
        }
    }

    #[test]
    fn gamma_p_monotone_and_bounded() {
        let mut prev = 0.0;
        for i in 0..200 {
            let x = i as f64 * 0.2;
            let p = gamma_p(3.3, x);
            assert!((0.0..=1.0).contains(&p));
            assert!(p >= prev - 1e-12);
            prev = p;
        }
        assert!(prev > 0.9999);
    }

    #[test]
    fn digamma_reference_values() {
        // ψ(1) = −γ (Euler–Mascheroni).
        assert!((digamma(1.0) + 0.577_215_664_901_532_9).abs() < 1e-10);
        // Recurrence ψ(x+1) = ψ(x) + 1/x.
        for &x in &[0.5, 1.7, 4.2] {
            assert!(
                (digamma(x + 1.0) - digamma(x) - 1.0 / x).abs() < 1e-10,
                "x = {x}"
            );
        }
    }
}
