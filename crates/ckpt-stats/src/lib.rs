//! # ckpt-stats — statistics substrate for the SC'13 checkpoint-restart reproduction
//!
//! This crate provides every piece of probability and statistics machinery the
//! reproduction of *"Optimization of Cloud Task Processing with
//! Checkpoint-Restart Mechanism"* (Di, Robert, Vivien, Kondo, Wang, Cappello —
//! SC'13) needs, implemented from scratch so that the whole workspace stays
//! deterministic and dependency-light:
//!
//! * **Deterministic RNGs** ([`rng`]) — `SplitMix64` and `Xoshiro256StarStar`
//!   with explicit 64-bit seeding and stream derivation, so every experiment in
//!   the paper reproduction is bit-for-bit reproducible across runs and thread
//!   counts.
//! * **Distributions** ([`dist`]) — the continuous families the paper fits to
//!   Google failure intervals in Figure 5 (exponential, Pareto, Laplace,
//!   normal, geometric) plus Weibull, log-normal and uniform, and the Poisson
//!   counting distribution used for the paper's worked examples of the
//!   expected number of failures `E(Y)`.
//! * **Maximum-likelihood fitting** ([`fit`]) — closed-form or iterative MLE
//!   for each family together with goodness-of-fit diagnostics
//!   (Kolmogorov–Smirnov statistic, log-likelihood, AIC). This regenerates the
//!   paper's Figure 5 analysis ("Pareto fits all intervals best; exponential
//!   fits the ≤1000 s body best").
//! * **Empirical machinery** ([`ecdf`], [`summary`]) — empirical CDFs and
//!   quantiles (every CDF plot in the paper) and numerically stable online
//!   moments.
//! * **Quantile sketch** ([`sketch`]) — a deterministic mergeable
//!   log-spaced histogram with exact rank selection and a documented
//!   relative value-error bound, so streaming sweeps can export p50/p99
//!   that are bit-identical at any thread count.
//! * **Resampling and numerics** ([`bootstrap`], [`solve`]) — bootstrap
//!   confidence intervals for the WPR comparisons, and the root finders and
//!   special functions behind the fitters and quantile functions.
//!
//! ## Quick example
//!
//! ```
//! use ckpt_stats::dist::{ContinuousDist, Exponential};
//! use ckpt_stats::fit::fit_exponential;
//! use ckpt_stats::rng::SplitMix64;
//!
//! let mut rng = SplitMix64::new(42);
//! let d = Exponential::new(0.00423445).unwrap(); // the paper's fitted rate
//! let samples: Vec<f64> = (0..10_000).map(|_| d.sample(&mut rng)).collect();
//! let fitted = fit_exponential(&samples).unwrap();
//! assert!((fitted.rate() - 0.00423445).abs() / 0.00423445 < 0.05);
//! ```

#![warn(missing_docs)]
// `!(v > 0.0)` deliberately rejects NaN alongside non-positive values; the
// clippy-suggested `v <= 0.0` would silently accept NaN.
#![allow(clippy::neg_cmp_op_on_partial_ord)]
#![warn(rust_2018_idioms)]

pub mod bootstrap;
pub mod dist;
pub mod ecdf;
pub mod fit;
pub mod rng;
pub mod sketch;
pub mod solve;
pub mod summary;

pub use dist::{ContinuousDist, DiscreteDist};
pub use ecdf::Ecdf;
pub use rng::{Rng64, SplitMix64, Xoshiro256StarStar};
pub use sketch::QuantileSketch;
pub use summary::{OnlineStats, Summary};

/// Crate-wide error type for invalid statistical parameters or inputs.
#[derive(Debug, Clone, PartialEq)]
pub enum StatsError {
    /// A distribution parameter was outside its valid domain.
    BadParam {
        /// Human-readable description of the offending parameter.
        what: &'static str,
        /// The offending value.
        value: f64,
    },
    /// An input sample set was empty or otherwise unusable.
    BadInput(&'static str),
    /// An iterative numerical routine failed to converge.
    NoConvergence(&'static str),
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::BadParam { what, value } => {
                write!(f, "invalid parameter {what}: {value}")
            }
            StatsError::BadInput(msg) => write!(f, "invalid input: {msg}"),
            StatsError::NoConvergence(msg) => write!(f, "no convergence: {msg}"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StatsError>;
