//! Probability distributions: the continuous families the paper fits to
//! Google failure intervals in Figure 5 (exponential, Pareto, Laplace,
//! normal, geometric) plus Weibull, log-normal, uniform and gamma, and the
//! discrete Poisson/geometric counting distributions.
//!
//! All sampling is inverse-transform (or explicit rejection for the gamma)
//! on top of [`Rng64`], so draws are bit-for-bit reproducible across
//! platforms — no dependency on external RNG crates' value streams.

use crate::rng::Rng64;
use crate::solve::{erfc, gamma_p, inv_norm_cdf, ln_gamma};
use crate::{Result, StatsError};

/// A continuous univariate distribution.
///
/// `sample` has a default inverse-transform implementation via
/// [`ContinuousDist::quantile`]; distributions with cheaper direct samplers
/// override it.
pub trait ContinuousDist {
    /// Probability density at `x`.
    fn pdf(&self, x: f64) -> f64;

    /// Cumulative distribution function `P(X ≤ x)`.
    fn cdf(&self, x: f64) -> f64;

    /// Quantile (inverse CDF) at `p ∈ (0, 1)`.
    fn quantile(&self, p: f64) -> f64;

    /// Expected value (may be `inf` for heavy tails).
    fn mean(&self) -> f64;

    /// Variance (may be `inf` for heavy tails).
    fn variance(&self) -> f64;

    /// Natural log of the density at `x` (default: `ln(pdf(x))`; overridden
    /// where direct evaluation is more stable).
    fn ln_pdf(&self, x: f64) -> f64 {
        self.pdf(x).ln()
    }

    /// Draw one value.
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        self.quantile(rng.next_f64_open())
    }

    /// Draw `n` values.
    fn sample_n<R: Rng64 + ?Sized>(&self, rng: &mut R, n: usize) -> Vec<f64> {
        (0..n).map(|_| self.sample(rng)).collect()
    }
}

/// Object-safe view of a [`ContinuousDist`] (the generic `sample` method
/// keeps the main trait from being a trait object).
pub trait DynContinuousDist: Send + Sync {
    /// CDF, callable through a trait object.
    fn cdf_dyn(&self, x: f64) -> f64;
    /// Mean, callable through a trait object.
    fn mean_dyn(&self) -> f64;
}

impl<D: ContinuousDist + Send + Sync> DynContinuousDist for D {
    fn cdf_dyn(&self, x: f64) -> f64 {
        self.cdf(x)
    }
    fn mean_dyn(&self) -> f64 {
        self.mean()
    }
}

/// A discrete distribution over the non-negative integers.
pub trait DiscreteDist {
    /// Draw one value.
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64;

    /// Expected value.
    fn mean(&self) -> f64;
}

fn require(cond: bool, what: &'static str, value: f64) -> Result<()> {
    if cond {
        Ok(())
    } else {
        Err(StatsError::BadParam { what, value })
    }
}

// --- Exponential -------------------------------------------------------------

/// Exponential(λ) on `[0, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// From the rate λ > 0.
    pub fn new(rate: f64) -> Result<Self> {
        require(rate.is_finite() && rate > 0.0, "exponential rate", rate)?;
        Ok(Self { rate })
    }

    /// From the mean `1/λ > 0`.
    pub fn from_mean(mean: f64) -> Result<Self> {
        require(mean.is_finite() && mean > 0.0, "exponential mean", mean)?;
        Ok(Self { rate: 1.0 / mean })
    }

    /// The rate λ.
    #[inline]
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl ContinuousDist for Exponential {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            0.0
        } else {
            self.rate * (-self.rate * x).exp()
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-self.rate * x).exp_m1()
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p in (0,1) required, got {p}");
        -(-p).ln_1p() / self.rate
    }
    fn mean(&self) -> f64 {
        1.0 / self.rate
    }
    fn variance(&self) -> f64 {
        1.0 / (self.rate * self.rate)
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            f64::NEG_INFINITY
        } else {
            self.rate.ln() - self.rate * x
        }
    }
}

// --- Normal ------------------------------------------------------------------

/// Normal(μ, σ).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mu: f64,
    sigma: f64,
}

impl Normal {
    /// From mean μ and standard deviation σ > 0.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        require(mu.is_finite(), "normal mu", mu)?;
        require(sigma.is_finite() && sigma > 0.0, "normal sigma", sigma)?;
        Ok(Self { mu, sigma })
    }

    /// The location μ.
    #[inline]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale σ.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl ContinuousDist for Normal {
    fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }
    fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        0.5 * erfc(-z / std::f64::consts::SQRT_2)
    }
    fn quantile(&self, p: f64) -> f64 {
        self.mu + self.sigma * inv_norm_cdf(p)
    }
    fn mean(&self) -> f64 {
        self.mu
    }
    fn variance(&self) -> f64 {
        self.sigma * self.sigma
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.sigma;
        -0.5 * z * z - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
}

// --- LogNormal ---------------------------------------------------------------

/// LogNormal(μ, σ): `ln X ~ Normal(μ, σ)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

impl LogNormal {
    /// From the log-space parameters.
    pub fn new(mu: f64, sigma: f64) -> Result<Self> {
        require(mu.is_finite(), "lognormal mu", mu)?;
        require(sigma.is_finite() && sigma > 0.0, "lognormal sigma", sigma)?;
        Ok(Self { mu, sigma })
    }

    /// From the median and a multiplicative spread factor `s > 1`: the
    /// central ~68 % of mass lies within `[median/s, median·s]`
    /// (`μ = ln median`, `σ = ln s`).
    pub fn from_median_spread(median: f64, spread: f64) -> Result<Self> {
        require(
            median.is_finite() && median > 0.0,
            "lognormal median",
            median,
        )?;
        require(
            spread.is_finite() && spread > 1.0,
            "lognormal spread",
            spread,
        )?;
        Self::new(median.ln(), spread.ln())
    }

    /// The log-space location μ.
    #[inline]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The log-space scale σ.
    #[inline]
    pub fn sigma(&self) -> f64 {
        self.sigma
    }
}

impl ContinuousDist for LogNormal {
    fn pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        (-0.5 * z * z).exp() / (x * self.sigma * (2.0 * std::f64::consts::PI).sqrt())
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return 0.0;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        0.5 * erfc(-z / std::f64::consts::SQRT_2)
    }
    fn quantile(&self, p: f64) -> f64 {
        (self.mu + self.sigma * inv_norm_cdf(p)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + 0.5 * self.sigma * self.sigma).exp()
    }
    fn variance(&self) -> f64 {
        let s2 = self.sigma * self.sigma;
        (s2.exp() - 1.0) * (2.0 * self.mu + s2).exp()
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let z = (x.ln() - self.mu) / self.sigma;
        -0.5 * z * z - x.ln() - self.sigma.ln() - 0.5 * (2.0 * std::f64::consts::PI).ln()
    }
}

// --- Pareto ------------------------------------------------------------------

/// Pareto Type I (x_m, α) on `[x_m, ∞)` — the paper's heavy tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pareto {
    scale: f64,
    shape: f64,
}

impl Pareto {
    /// From the scale `x_m > 0` and shape `α > 0`.
    pub fn new(scale: f64, shape: f64) -> Result<Self> {
        require(scale.is_finite() && scale > 0.0, "pareto scale", scale)?;
        require(shape.is_finite() && shape > 0.0, "pareto shape", shape)?;
        Ok(Self { scale, shape })
    }

    /// The scale (minimum) x_m.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }

    /// The shape (tail index) α.
    #[inline]
    pub fn shape(&self) -> f64 {
        self.shape
    }
}

impl ContinuousDist for Pareto {
    fn pdf(&self, x: f64) -> f64 {
        if x < self.scale {
            0.0
        } else {
            self.shape * self.scale.powf(self.shape) / x.powf(self.shape + 1.0)
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= self.scale {
            0.0
        } else {
            1.0 - (self.scale / x).powf(self.shape)
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p in (0,1) required, got {p}");
        self.scale * (1.0 - p).powf(-1.0 / self.shape)
    }
    fn mean(&self) -> f64 {
        if self.shape > 1.0 {
            self.shape * self.scale / (self.shape - 1.0)
        } else {
            f64::INFINITY
        }
    }
    fn variance(&self) -> f64 {
        if self.shape > 2.0 {
            let a = self.shape;
            self.scale * self.scale * a / ((a - 1.0) * (a - 1.0) * (a - 2.0))
        } else {
            f64::INFINITY
        }
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x < self.scale {
            f64::NEG_INFINITY
        } else {
            self.shape.ln() + self.shape * self.scale.ln() - (self.shape + 1.0) * x.ln()
        }
    }
}

// --- Laplace -----------------------------------------------------------------

/// Laplace(μ, b) — double exponential.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Laplace {
    mu: f64,
    b: f64,
}

impl Laplace {
    /// From location μ and scale `b > 0`.
    pub fn new(mu: f64, b: f64) -> Result<Self> {
        require(mu.is_finite(), "laplace mu", mu)?;
        require(b.is_finite() && b > 0.0, "laplace b", b)?;
        Ok(Self { mu, b })
    }

    /// The location μ.
    #[inline]
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// The scale b.
    #[inline]
    pub fn b(&self) -> f64 {
        self.b
    }
}

impl ContinuousDist for Laplace {
    fn pdf(&self, x: f64) -> f64 {
        (-(x - self.mu).abs() / self.b).exp() / (2.0 * self.b)
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < self.mu {
            0.5 * ((x - self.mu) / self.b).exp()
        } else {
            1.0 - 0.5 * (-(x - self.mu) / self.b).exp()
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p in (0,1) required, got {p}");
        if p < 0.5 {
            self.mu + self.b * (2.0 * p).ln()
        } else {
            self.mu - self.b * (2.0 * (1.0 - p)).ln()
        }
    }
    fn mean(&self) -> f64 {
        self.mu
    }
    fn variance(&self) -> f64 {
        2.0 * self.b * self.b
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        -(x - self.mu).abs() / self.b - (2.0 * self.b).ln()
    }
}

// --- Weibull -----------------------------------------------------------------

/// Weibull(k, λ) on `[0, ∞)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Weibull {
    shape: f64,
    scale: f64,
}

impl Weibull {
    /// From shape `k > 0` and scale `λ > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        require(shape.is_finite() && shape > 0.0, "weibull shape", shape)?;
        require(scale.is_finite() && scale > 0.0, "weibull scale", scale)?;
        Ok(Self { shape, scale })
    }

    /// The shape k.
    #[inline]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale λ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl ContinuousDist for Weibull {
    fn pdf(&self, x: f64) -> f64 {
        if x < 0.0 {
            return 0.0;
        }
        let t = x / self.scale;
        self.shape / self.scale * t.powf(self.shape - 1.0) * (-t.powf(self.shape)).exp()
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            -(-(x / self.scale).powf(self.shape)).exp_m1()
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p in (0,1) required, got {p}");
        self.scale * (-(-p).ln_1p()).powf(1.0 / self.shape)
    }
    fn mean(&self) -> f64 {
        self.scale * (ln_gamma(1.0 + 1.0 / self.shape)).exp()
    }
    fn variance(&self) -> f64 {
        let g1 = (ln_gamma(1.0 + 1.0 / self.shape)).exp();
        let g2 = (ln_gamma(1.0 + 2.0 / self.shape)).exp();
        self.scale * self.scale * (g2 - g1 * g1)
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        let t = x / self.scale;
        self.shape.ln() - self.scale.ln() + (self.shape - 1.0) * t.ln() - t.powf(self.shape)
    }
}

// --- Uniform -----------------------------------------------------------------

/// Uniform(a, b) on the half-open interval `[a, b)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    a: f64,
    b: f64,
}

impl Uniform {
    /// From the bounds `a < b`.
    pub fn new(a: f64, b: f64) -> Result<Self> {
        require(a.is_finite(), "uniform a", a)?;
        require(b.is_finite() && b > a, "uniform b", b)?;
        Ok(Self { a, b })
    }

    /// The lower bound a.
    #[inline]
    pub fn a(&self) -> f64 {
        self.a
    }

    /// The upper bound b.
    #[inline]
    pub fn b(&self) -> f64 {
        self.b
    }
}

impl ContinuousDist for Uniform {
    fn pdf(&self, x: f64) -> f64 {
        if x >= self.a && x < self.b {
            1.0 / (self.b - self.a)
        } else {
            0.0
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        ((x - self.a) / (self.b - self.a)).clamp(0.0, 1.0)
    }
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p in (0,1) required, got {p}");
        self.a + p * (self.b - self.a)
    }
    fn mean(&self) -> f64 {
        0.5 * (self.a + self.b)
    }
    fn variance(&self) -> f64 {
        let w = self.b - self.a;
        w * w / 12.0
    }
}

// --- Gamma -------------------------------------------------------------------

/// Gamma(k, θ) on `(0, ∞)` (shape–scale parameterization).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gamma {
    shape: f64,
    scale: f64,
}

impl Gamma {
    /// From shape `k > 0` and scale `θ > 0`.
    pub fn new(shape: f64, scale: f64) -> Result<Self> {
        require(shape.is_finite() && shape > 0.0, "gamma shape", shape)?;
        require(scale.is_finite() && scale > 0.0, "gamma scale", scale)?;
        Ok(Self { shape, scale })
    }

    /// The shape k.
    #[inline]
    pub fn shape(&self) -> f64 {
        self.shape
    }

    /// The scale θ.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.scale
    }
}

impl ContinuousDist for Gamma {
    fn pdf(&self, x: f64) -> f64 {
        self.ln_pdf(x).exp()
    }
    fn cdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            0.0
        } else {
            gamma_p(self.shape, x / self.scale)
        }
    }
    fn quantile(&self, p: f64) -> f64 {
        assert!(p > 0.0 && p < 1.0, "quantile: p in (0,1) required, got {p}");
        // Monotone CDF: expand an upper bracket, then bisect.
        let mut hi = self.mean() + 10.0 * self.variance().sqrt().max(self.scale);
        while self.cdf(hi) < p {
            hi *= 2.0;
        }
        let (mut lo, mut hi) = (0.0, hi);
        for _ in 0..200 {
            let mid = 0.5 * (lo + hi);
            if self.cdf(mid) < p {
                lo = mid;
            } else {
                hi = mid;
            }
            if hi - lo < 1e-12 * (1.0 + hi) {
                break;
            }
        }
        0.5 * (lo + hi)
    }
    fn mean(&self) -> f64 {
        self.shape * self.scale
    }
    fn variance(&self) -> f64 {
        self.shape * self.scale * self.scale
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        if x <= 0.0 {
            return f64::NEG_INFINITY;
        }
        (self.shape - 1.0) * x.ln()
            - x / self.scale
            - ln_gamma(self.shape)
            - self.shape * self.scale.ln()
    }
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        // Marsaglia–Tsang squeeze; the k < 1 case boosts a (k+1) draw.
        let (k, boost) = if self.shape < 1.0 {
            (self.shape + 1.0, rng.next_f64_open().powf(1.0 / self.shape))
        } else {
            (self.shape, 1.0)
        };
        let d = k - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let z = inv_norm_cdf(rng.next_f64_open());
            let v = 1.0 + c * z;
            if v <= 0.0 {
                continue;
            }
            let v3 = v * v * v;
            let u = rng.next_f64_open();
            if u < 1.0 - 0.0331 * z * z * z * z || u.ln() < 0.5 * z * z + d * (1.0 - v3 + v3.ln()) {
                return d * v3 * self.scale * boost;
            }
        }
    }
}

// --- Geometric ---------------------------------------------------------------

/// Geometric(p) on `{1, 2, ...}` — number of trials to first success.
///
/// Doubles as a "continuous" distribution for MLE ranking purposes (the
/// paper compares it against continuous families in Figure 5): densities are
/// evaluated at rounded support points and the CDF is the usual step
/// function.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
}

impl Geometric {
    /// From the success probability `p ∈ (0, 1]`.
    pub fn new(p: f64) -> Result<Self> {
        require(p.is_finite() && p > 0.0 && p <= 1.0, "geometric p", p)?;
        Ok(Self { p })
    }

    /// The success probability p.
    #[inline]
    pub fn p(&self) -> f64 {
        self.p
    }
}

impl ContinuousDist for Geometric {
    fn pdf(&self, x: f64) -> f64 {
        let k = x.round();
        if k < 1.0 {
            0.0
        } else {
            self.p * (1.0 - self.p).powf(k - 1.0)
        }
    }
    fn cdf(&self, x: f64) -> f64 {
        if x < 1.0 {
            0.0
        } else {
            1.0 - (1.0 - self.p).powf(x.floor())
        }
    }
    fn quantile(&self, q: f64) -> f64 {
        assert!(q > 0.0 && q < 1.0, "quantile: p in (0,1) required, got {q}");
        if self.p >= 1.0 {
            return 1.0;
        }
        ((1.0 - q).ln() / (1.0 - self.p).ln()).ceil().max(1.0)
    }
    fn mean(&self) -> f64 {
        1.0 / self.p
    }
    fn variance(&self) -> f64 {
        (1.0 - self.p) / (self.p * self.p)
    }
    fn ln_pdf(&self, x: f64) -> f64 {
        let k = x.round();
        if k < 1.0 {
            f64::NEG_INFINITY
        } else {
            self.p.ln() + (k - 1.0) * (1.0 - self.p).ln()
        }
    }
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> f64 {
        DiscreteDist::sample(self, rng) as f64
    }
}

impl DiscreteDist for Geometric {
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.p >= 1.0 {
            return 1;
        }
        let u = rng.next_f64_open();
        (u.ln() / (1.0 - self.p).ln()).floor() as u64 + 1
    }
    fn mean(&self) -> f64 {
        1.0 / self.p
    }
}

// --- Poisson -----------------------------------------------------------------

/// Poisson(λ) on `{0, 1, 2, ...}` — the paper's counting model for the
/// expected number of failures `E(Y)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// From the mean `λ > 0`.
    pub fn new(lambda: f64) -> Result<Self> {
        require(lambda.is_finite() && lambda > 0.0, "poisson lambda", lambda)?;
        Ok(Self { lambda })
    }

    /// The mean λ.
    #[inline]
    pub fn lambda(&self) -> f64 {
        self.lambda
    }
}

impl DiscreteDist for Poisson {
    fn sample<R: Rng64 + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.lambda < 60.0 {
            // Knuth's product-of-uniforms method.
            let l = (-self.lambda).exp();
            let mut k = 0u64;
            let mut p = 1.0;
            loop {
                p *= rng.next_f64_open();
                if p <= l {
                    return k;
                }
                k += 1;
            }
        }
        // Large mean: split λ and sum (keeps Knuth's method in its stable
        // range without changing the distribution).
        let halves = (self.lambda / 30.0).ceil() as u64;
        let part = Poisson {
            lambda: self.lambda / halves as f64,
        };
        (0..halves).map(|_| part.sample(rng)).sum()
    }
    fn mean(&self) -> f64 {
        self.lambda
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Xoshiro256StarStar;

    fn check_mean<D: ContinuousDist>(d: &D, seed: u64, tol: f64) {
        let mut rng = Xoshiro256StarStar::new(seed);
        let n = 60_000;
        let mean = d.sample_n(&mut rng, n).iter().sum::<f64>() / n as f64;
        assert!(
            (mean - d.mean()).abs() / d.mean().abs().max(1.0) < tol,
            "sample mean {mean} vs analytic {}",
            d.mean()
        );
    }

    #[test]
    fn constructors_reject_bad_params() {
        assert!(Exponential::new(0.0).is_err());
        assert!(Exponential::from_mean(-1.0).is_err());
        assert!(Normal::new(0.0, 0.0).is_err());
        assert!(LogNormal::new(f64::NAN, 1.0).is_err());
        assert!(LogNormal::from_median_spread(100.0, 1.0).is_err());
        assert!(Pareto::new(1.0, -2.0).is_err());
        assert!(Laplace::new(0.0, 0.0).is_err());
        assert!(Weibull::new(0.0, 1.0).is_err());
        assert!(Uniform::new(2.0, 2.0).is_err());
        assert!(Gamma::new(1.0, 0.0).is_err());
        assert!(Geometric::new(0.0).is_err());
        assert!(Poisson::new(0.0).is_err());
    }

    #[test]
    fn sample_means_match_analytic() {
        check_mean(&Exponential::new(0.004).unwrap(), 1, 0.02);
        check_mean(&Normal::new(42.0, 7.0).unwrap(), 2, 0.02);
        check_mean(&LogNormal::new(2.0, 0.8).unwrap(), 3, 0.03);
        check_mean(&Pareto::new(10.0, 3.0).unwrap(), 4, 0.02);
        check_mean(&Laplace::new(5.0, 2.0).unwrap(), 5, 0.02);
        check_mean(&Weibull::new(1.5, 100.0).unwrap(), 6, 0.02);
        check_mean(&Uniform::new(-3.0, 9.0).unwrap(), 7, 0.02);
        check_mean(&Gamma::new(2.3, 40.0).unwrap(), 8, 0.02);
    }

    #[test]
    fn quantile_cdf_roundtrip_all_families() {
        let exp = Exponential::new(0.1).unwrap();
        let nor = Normal::new(0.0, 1.0).unwrap();
        let ln = LogNormal::new(1.0, 0.5).unwrap();
        let par = Pareto::new(2.0, 1.5).unwrap();
        let lap = Laplace::new(-1.0, 2.0).unwrap();
        let wei = Weibull::new(0.8, 50.0).unwrap();
        let uni = Uniform::new(0.0, 10.0).unwrap();
        let gam = Gamma::new(3.0, 2.0).unwrap();
        for i in 1..40 {
            let p = i as f64 / 40.0;
            assert!((exp.cdf(exp.quantile(p)) - p).abs() < 1e-9);
            assert!((nor.cdf(nor.quantile(p)) - p).abs() < 1e-6);
            assert!((ln.cdf(ln.quantile(p)) - p).abs() < 1e-6);
            assert!((par.cdf(par.quantile(p)) - p).abs() < 1e-9);
            assert!((lap.cdf(lap.quantile(p)) - p).abs() < 1e-9);
            assert!((wei.cdf(wei.quantile(p)) - p).abs() < 1e-9);
            assert!((uni.cdf(uni.quantile(p)) - p).abs() < 1e-9);
            assert!((gam.cdf(gam.quantile(p)) - p).abs() < 1e-8);
        }
    }

    #[test]
    fn pareto_heavy_tail_mean() {
        assert!(Pareto::new(1.0, 0.9).unwrap().mean().is_infinite());
        assert!(Pareto::new(1.0, 1.5).unwrap().variance().is_infinite());
        let p = Pareto::new(1000.0, 2.0).unwrap();
        assert!((p.mean() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn poisson_sample_mean() {
        for lambda in [0.5, 3.0, 11.9, 75.0] {
            let d = Poisson::new(lambda).unwrap();
            let mut rng = Xoshiro256StarStar::new(9);
            let n = 40_000;
            let mean: f64 = (0..n).map(|_| d.sample(&mut rng) as f64).sum::<f64>() / n as f64;
            assert!(
                (mean - lambda).abs() / lambda < 0.05,
                "lambda {lambda}: sampled {mean}"
            );
        }
    }

    #[test]
    fn geometric_support_starts_at_one() {
        let d = Geometric::new(0.3).unwrap();
        let mut rng = Xoshiro256StarStar::new(11);
        for _ in 0..10_000 {
            assert!(DiscreteDist::sample(&d, &mut rng) >= 1);
        }
        assert_eq!(d.cdf(0.5), 0.0);
        assert!((d.cdf(1.0) - 0.3).abs() < 1e-12);
        let mut rng2 = Xoshiro256StarStar::new(12);
        let n = 50_000;
        let mean: f64 = (0..n)
            .map(|_| DiscreteDist::sample(&d, &mut rng2) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 1.0 / 0.3).abs() < 0.05, "mean {mean}");
    }

    type LnAndPdf = Box<dyn Fn(f64) -> (f64, f64)>;

    #[test]
    fn ln_pdf_matches_pdf() {
        let dists: Vec<LnAndPdf> = vec![
            {
                let d = Exponential::new(0.5).unwrap();
                Box::new(move |x| (d.ln_pdf(x), d.pdf(x)))
            },
            {
                let d = Normal::new(1.0, 2.0).unwrap();
                Box::new(move |x| (d.ln_pdf(x), d.pdf(x)))
            },
            {
                let d = LogNormal::new(0.5, 0.7).unwrap();
                Box::new(move |x| (d.ln_pdf(x), d.pdf(x)))
            },
            {
                let d = Gamma::new(2.0, 3.0).unwrap();
                Box::new(move |x| (d.ln_pdf(x), d.pdf(x)))
            },
        ];
        for f in &dists {
            for &x in &[0.3, 1.0, 4.5, 20.0] {
                let (lp, p) = f(x);
                assert!((lp.exp() - p).abs() < 1e-12 * (1.0 + p));
            }
        }
    }

    #[test]
    fn dyn_view_agrees() {
        let d = Exponential::new(0.25).unwrap();
        let b: Box<dyn DynContinuousDist> = Box::new(d);
        assert_eq!(b.cdf_dyn(3.0), d.cdf(3.0));
        assert_eq!(b.mean_dyn(), 4.0);
    }
}
