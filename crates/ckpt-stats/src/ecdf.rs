//! Empirical cumulative distribution functions.
//!
//! Every CDF figure in the paper (Figures 4, 5, 8, 9, 11, 14) is an ECDF of
//! some per-task or per-job quantity; this module provides construction,
//! evaluation, quantiles, and plot-ready point extraction.

use crate::{Result, StatsError};

/// An empirical CDF over a set of `f64` samples.
///
/// Construction sorts a copy of the samples (`O(n log n)`); evaluation is a
/// binary search (`O(log n)`).
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Build an ECDF from samples. NaNs are rejected; an empty input is an
    /// error (an ECDF of nothing is meaningless).
    pub fn new(samples: &[f64]) -> Result<Self> {
        if samples.is_empty() {
            return Err(StatsError::BadInput("ecdf: empty sample set"));
        }
        if samples.iter().any(|x| x.is_nan()) {
            return Err(StatsError::BadInput("ecdf: NaN in samples"));
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        Ok(Self { sorted })
    }

    /// Number of underlying samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Whether the ECDF is empty (never true for a constructed ECDF).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// `P(X <= x)`: fraction of samples ≤ `x`.
    pub fn cdf(&self, x: f64) -> f64 {
        // partition_point gives the count of samples <= x.
        let count = self.sorted.partition_point(|&s| s <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// Empirical quantile: smallest sample `x` with `cdf(x) >= q`, for
    /// `q ∈ (0, 1]`. `q = 0.5` is the median.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!(
            q > 0.0 && q <= 1.0,
            "quantile: q in (0,1] required, got {q}"
        );
        let n = self.sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        self.sorted[idx]
    }

    /// Minimum sample.
    #[inline]
    pub fn min(&self) -> f64 {
        self.sorted[0]
    }

    /// Maximum sample.
    #[inline]
    pub fn max(&self) -> f64 {
        *self.sorted.last().unwrap()
    }

    /// Arithmetic mean of the samples.
    pub fn mean(&self) -> f64 {
        self.sorted.iter().sum::<f64>() / self.sorted.len() as f64
    }

    /// Extract `n` plot-ready `(x, F(x))` points, uniformly spaced in
    /// probability — exactly what the paper's CDF figures plot.
    pub fn points(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(n >= 2, "points: need at least 2 points");
        (0..n)
            .map(|i| {
                let q = (i as f64 + 1.0) / n as f64;
                (self.quantile(q), q)
            })
            .collect()
    }

    /// Two-sided Kolmogorov–Smirnov statistic against an analytic CDF.
    pub fn ks_statistic<F: Fn(f64) -> f64>(&self, cdf: F) -> f64 {
        let n = self.sorted.len() as f64;
        let mut ks: f64 = 0.0;
        for (i, &x) in self.sorted.iter().enumerate() {
            let c = cdf(x);
            let hi = (i as f64 + 1.0) / n;
            let lo = i as f64 / n;
            ks = ks.max((c - lo).abs()).max((hi - c).abs());
        }
        ks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_input() {
        assert!(Ecdf::new(&[]).is_err());
        assert!(Ecdf::new(&[1.0, f64::NAN]).is_err());
    }

    #[test]
    fn step_function_semantics() {
        let e = Ecdf::new(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        assert_eq!(e.cdf(0.5), 0.0);
        assert_eq!(e.cdf(1.0), 0.25);
        assert_eq!(e.cdf(2.5), 0.5);
        assert_eq!(e.cdf(4.0), 1.0);
        assert_eq!(e.cdf(100.0), 1.0);
    }

    #[test]
    fn handles_duplicates() {
        let e = Ecdf::new(&[2.0, 2.0, 2.0, 5.0]).unwrap();
        assert_eq!(e.cdf(2.0), 0.75);
        assert_eq!(e.cdf(1.9), 0.0);
    }

    #[test]
    fn quantiles() {
        let e = Ecdf::new(&[10.0, 20.0, 30.0, 40.0, 50.0]).unwrap();
        assert_eq!(e.quantile(0.2), 10.0);
        assert_eq!(e.quantile(0.21), 20.0);
        assert_eq!(e.quantile(0.5), 30.0);
        assert_eq!(e.quantile(1.0), 50.0);
    }

    #[test]
    #[should_panic(expected = "quantile")]
    fn quantile_rejects_zero() {
        let e = Ecdf::new(&[1.0]).unwrap();
        e.quantile(0.0);
    }

    #[test]
    fn quantile_cdf_galois() {
        // quantile(q) is the smallest x with cdf(x) >= q.
        let e = Ecdf::new(&[3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0]).unwrap();
        for i in 1..=100 {
            let q = i as f64 / 100.0;
            let x = e.quantile(q);
            assert!(e.cdf(x) >= q - 1e-12);
        }
    }

    #[test]
    fn points_are_monotone() {
        let e = Ecdf::new(
            &(0..1000)
                .map(|i| (i as f64).sin() * 50.0)
                .collect::<Vec<_>>(),
        )
        .unwrap();
        let pts = e.points(64);
        assert_eq!(pts.len(), 64);
        for w in pts.windows(2) {
            assert!(w[0].0 <= w[1].0);
            assert!(w[0].1 < w[1].1);
        }
        assert!((pts.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_of_own_cdf_is_small() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64 / 1000.0).collect();
        let e = Ecdf::new(&samples).unwrap();
        // Against the true U(0,1) CDF the KS statistic should be tiny.
        let ks = e.ks_statistic(|x| x.clamp(0.0, 1.0));
        assert!(ks < 0.01, "ks = {ks}");
    }

    #[test]
    fn fraction_below_matches_paper_usage() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64 * 20.0).collect(); // 20..2000
        let e = Ecdf::new(&samples).unwrap();
        assert!((e.cdf(1000.0) - 0.5).abs() < 1e-12);
    }
}
