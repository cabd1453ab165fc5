//! Deterministic mergeable quantile sketch.
//!
//! A fixed-rule log-spaced histogram in the DDSketch family: every
//! observation `v` with `|v| > MIN_POS` lands in the bucket
//! `i = ⌈ln|v| / ln γ⌉` (sign-mirrored for negatives), where
//! `γ = (1 + α)/(1 − α)` and `α =` [`ALPHA`]. Bucket counts are plain
//! `u64`s, so [`QuantileSketch::merge`] is element-wise integer addition —
//! exactly associative and commutative, with the empty sketch as identity.
//! Per-worker sketches folded at a join are therefore **bit-identical for
//! any thread count**, which is the property the streaming sweep path
//! builds its determinism guarantee on.
//!
//! # Error bound
//!
//! Rank is exact: the sketch stores exact integer counts per bucket, and
//! [`QuantileSketch::quantile`] selects the bucket containing the
//! nearest-rank order statistic `r = clamp(⌈q·n⌉, 1, n)` — the same rank
//! rule the workspace uses for exact quantiles over sorted vectors. Only
//! the *value* is approximated, by the bucket's geometric midpoint
//! `sign · γ^(i − 1/2)` clamped into the exactly-tracked `[min, max]`:
//!
//! * for `|v| > MIN_POS` the relative error is at most `√γ − 1` (≈ 1.005 %
//!   at `α = 0.01`) — see [`QuantileSketch::relative_error_bound`];
//! * observations with `|v| ≤ MIN_POS` share one zero bucket reported as
//!   `0.0`, an absolute error of at most [`MIN_POS`] (`1e-12`).
//!
//! Memory is one `u64` per *occupied* bucket plus a contiguous span of
//! empties between the extremes: ~460 buckets per decade of dynamic range
//! at `α = 0.01`.

use crate::StatsError;

/// Relative-accuracy parameter of the sketch: quantile *values* are exact
/// in rank and within `√γ − 1 ≈ α` in relative value error.
pub const ALPHA: f64 = 0.01;

/// Magnitudes at or below this threshold collapse into the zero bucket
/// (reported as exactly `0.0`).
pub const MIN_POS: f64 = 1e-12;

/// `γ = (1 + α)/(1 − α)`: the geometric bucket growth factor.
fn gamma() -> f64 {
    (1.0 + ALPHA) / (1.0 - ALPHA)
}

/// Bucket index for a magnitude `m > MIN_POS`: `⌈ln m / ln γ⌉`.
fn bucket_index(m: f64) -> i64 {
    (m.ln() / gamma().ln()).ceil() as i64
}

/// Geometric midpoint of bucket `i`: `γ^(i − 1/2)`.
fn bucket_midpoint(i: i64) -> f64 {
    ((i as f64 - 0.5) * gamma().ln()).exp()
}

/// A contiguous span of log-spaced bucket counts. `bins[k]` counts
/// magnitudes in bucket `offset + k`. Kept *canonical* (first and last
/// bin non-zero, or empty) by construction, so derived equality compares
/// logical content.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LogBins {
    offset: i64,
    bins: Vec<u64>,
}

impl LogBins {
    fn add(&mut self, idx: i64) {
        if self.bins.is_empty() {
            self.offset = idx;
            self.bins.push(1);
            return;
        }
        if idx < self.offset {
            let grow = (self.offset - idx) as usize;
            let mut widened = vec![0u64; grow + self.bins.len()];
            widened[grow..].copy_from_slice(&self.bins);
            self.bins = widened;
            self.offset = idx;
        } else if idx >= self.offset + self.bins.len() as i64 {
            self.bins.resize((idx - self.offset) as usize + 1, 0);
        }
        self.bins[(idx - self.offset) as usize] += 1;
    }

    fn merge(&mut self, other: &LogBins) {
        if other.bins.is_empty() {
            return;
        }
        if self.bins.is_empty() {
            *self = other.clone();
            return;
        }
        let lo = self.offset.min(other.offset);
        let hi = (self.offset + self.bins.len() as i64).max(other.offset + other.bins.len() as i64);
        let mut merged = vec![0u64; (hi - lo) as usize];
        for (k, &c) in self.bins.iter().enumerate() {
            merged[(self.offset - lo) as usize + k] = c;
        }
        for (k, &c) in other.bins.iter().enumerate() {
            merged[(other.offset - lo) as usize + k] += c;
        }
        self.offset = lo;
        self.bins = merged;
    }

    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.offset.to_le_bytes());
        out.extend_from_slice(&(self.bins.len() as u64).to_le_bytes());
        for &b in &self.bins {
            out.extend_from_slice(&b.to_le_bytes());
        }
    }

    fn decode(bytes: &[u8], at: &mut usize) -> crate::Result<LogBins> {
        let offset = i64::from_le_bytes(take(bytes, at)?);
        let len = u64::from_le_bytes(take(bytes, at)?);
        // Each bin takes 8 bytes: a length the remaining input cannot hold
        // is rejected before anything is allocated for it.
        if len > ((bytes.len() - *at) / 8) as u64 {
            return Err(StatsError::BadInput("sketch bytes truncated"));
        }
        let mut bins = Vec::with_capacity(len as usize);
        for _ in 0..len {
            bins.push(u64::from_le_bytes(take(bytes, at)?));
        }
        if !bins.is_empty() && (bins[0] == 0 || bins[bins.len() - 1] == 0) {
            return Err(StatsError::BadInput("sketch bins not in canonical form"));
        }
        Ok(LogBins { offset, bins })
    }
}

fn take(bytes: &[u8], at: &mut usize) -> crate::Result<[u8; 8]> {
    let end = at
        .checked_add(8)
        .filter(|&e| e <= bytes.len())
        .ok_or(StatsError::BadInput("sketch bytes truncated"))?;
    let mut word = [0u8; 8];
    word.copy_from_slice(&bytes[*at..end]);
    *at = end;
    Ok(word)
}

/// Serialization format version written by [`QuantileSketch::to_bytes`].
const CODEC_VERSION: u8 = 1;

/// Mergeable quantile sketch over `f64` observations (log-spaced
/// histogram; see the [module docs](self) for the bucketing rule and the
/// error bound). `merge` is associative and commutative with the empty
/// sketch as identity, and equality is logical-content equality, so two
/// sketches built from the same multiset of observations — in any order,
/// by any partition across workers — compare equal.
///
/// ```
/// use ckpt_stats::sketch::QuantileSketch;
///
/// let mut a = QuantileSketch::new();
/// let mut b = QuantileSketch::new();
/// for v in [1.0, 2.0, 3.0] {
///     a.add(v);
/// }
/// for v in [4.0, 5.0] {
///     b.add(v);
/// }
/// a.merge(&b);
/// let p50 = a.quantile(0.5);
/// assert!((p50 - 3.0).abs() / 3.0 <= a.relative_error_bound());
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuantileSketch {
    count: u64,
    zero: u64,
    min: f64,
    max: f64,
    neg: LogBins,
    pos: LogBins,
}

impl QuantileSketch {
    /// An empty sketch (`min = +∞`, `max = −∞`, like `StreamSummary`).
    pub fn new() -> Self {
        QuantileSketch {
            count: 0,
            zero: 0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            neg: LogBins::default(),
            pos: LogBins::default(),
        }
    }

    /// Build a sketch from a slice of observations.
    pub fn from_values(values: &[f64]) -> Self {
        let mut s = QuantileSketch::new();
        for &v in values {
            s.add(v);
        }
        s
    }

    /// Number of observations ingested.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact smallest observation (`+∞` when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Exact largest observation (`−∞` when empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Upper bound on the relative value error of [`Self::quantile`] for
    /// observations with `|v| > MIN_POS`: `√γ − 1` (≈ 1.005 % at
    /// `α = 0.01`).
    pub fn relative_error_bound(&self) -> f64 {
        gamma().sqrt() - 1.0
    }

    /// Ingest one observation.
    ///
    /// # Panics
    /// Panics on NaN — a NaN metric upstream is a bug, not data.
    #[inline]
    pub fn add(&mut self, v: f64) {
        assert!(!v.is_nan(), "sketch values must not be NaN");
        self.count += 1;
        if v < self.min {
            self.min = v;
        }
        if v > self.max {
            self.max = v;
        }
        if v.abs() <= MIN_POS {
            self.zero += 1;
        } else if v > 0.0 {
            self.pos.add(bucket_index(v));
        } else {
            self.neg.add(bucket_index(-v));
        }
    }

    /// Merge another sketch in. Element-wise integer addition of bucket
    /// counts: exactly associative, commutative, and identity on empty —
    /// any merge tree over the same per-worker sketches yields the same
    /// bits.
    pub fn merge(&mut self, other: &QuantileSketch) {
        self.count += other.count;
        self.zero += other.zero;
        if other.min < self.min {
            self.min = other.min;
        }
        if other.max > self.max {
            self.max = other.max;
        }
        self.neg.merge(&other.neg);
        self.pos.merge(&other.pos);
    }

    /// Nearest-rank quantile estimate for `q ∈ [0, 1]` (`NaN` when the
    /// sketch is empty).
    ///
    /// The rank `r = clamp(⌈q·n⌉, 1, n)` is exact — identical to the
    /// workspace's sorted-vector quantile rule — and the returned value is
    /// the containing bucket's geometric midpoint clamped into the exact
    /// `[min, max]`, so it is within the documented relative error bound
    /// of the exact order statistic.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        // Ascending value order: negatives (largest magnitude first), the
        // zero bucket, then positives (smallest magnitude first).
        for (k, &c) in self.neg.bins.iter().enumerate().rev() {
            seen += c;
            if seen >= rank {
                let mid = -bucket_midpoint(self.neg.offset + k as i64);
                return mid.clamp(self.min, self.max);
            }
        }
        seen += self.zero;
        if seen >= rank {
            return 0.0f64.clamp(self.min, self.max);
        }
        for (k, &c) in self.pos.bins.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let mid = bucket_midpoint(self.pos.offset + k as i64);
                return mid.clamp(self.min, self.max);
            }
        }
        // Unreachable when the per-bucket counts sum to `count`; fall back
        // to the exact maximum rather than panic in release builds.
        self.max
    }

    /// Canonical byte serialization (little-endian, versioned). Because
    /// bucket spans are kept canonical, equal sketches serialize to equal
    /// bytes — the property the sweep checkpoint codec's byte-identical
    /// resume contract relies on.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(41 + 8 * (self.neg.bins.len() + self.pos.bins.len()));
        out.push(CODEC_VERSION);
        out.extend_from_slice(&self.count.to_le_bytes());
        out.extend_from_slice(&self.zero.to_le_bytes());
        out.extend_from_slice(&self.min.to_bits().to_le_bytes());
        out.extend_from_slice(&self.max.to_bits().to_le_bytes());
        self.neg.encode(&mut out);
        self.pos.encode(&mut out);
        out
    }

    /// Decode a sketch serialized by [`Self::to_bytes`], validating the
    /// version, framing, and count/bucket consistency.
    pub fn from_bytes(bytes: &[u8]) -> crate::Result<Self> {
        if bytes.first() != Some(&CODEC_VERSION) {
            return Err(StatsError::BadInput("unknown sketch codec version"));
        }
        let mut at = 1usize;
        let count = u64::from_le_bytes(take(bytes, &mut at)?);
        let zero = u64::from_le_bytes(take(bytes, &mut at)?);
        let min = f64::from_bits(u64::from_le_bytes(take(bytes, &mut at)?));
        let max = f64::from_bits(u64::from_le_bytes(take(bytes, &mut at)?));
        let neg = LogBins::decode(bytes, &mut at)?;
        let pos = LogBins::decode(bytes, &mut at)?;
        if at != bytes.len() {
            return Err(StatsError::BadInput("trailing bytes after sketch"));
        }
        let total = neg
            .bins
            .iter()
            .chain(&pos.bins)
            .try_fold(zero, |sum, &c| sum.checked_add(c));
        if total != Some(count) {
            return Err(StatsError::BadInput("sketch bucket counts disagree"));
        }
        Ok(QuantileSketch {
            count,
            zero,
            min,
            max,
            neg,
            pos,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        let n = sorted.len();
        let idx = ((q * n as f64).ceil() as usize).clamp(1, n) - 1;
        sorted[idx]
    }

    fn assert_within_bound(s: &QuantileSketch, sorted: &[f64]) {
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            let exact = exact_quantile(sorted, q);
            let approx = s.quantile(q);
            let tol = s.relative_error_bound() * exact.abs() + MIN_POS;
            assert!(
                (approx - exact).abs() <= tol,
                "q={q}: approx {approx} vs exact {exact} (tol {tol})"
            );
        }
    }

    #[test]
    fn empty_sketch_is_nan_and_identity() {
        let e = QuantileSketch::new();
        assert!(e.quantile(0.5).is_nan());
        assert_eq!(e.count(), 0);
        let mut s = QuantileSketch::from_values(&[1.0, 2.0, 3.0]);
        let before = s.clone();
        s.merge(&e);
        assert_eq!(s, before);
        let mut e2 = QuantileSketch::new();
        e2.merge(&before);
        assert_eq!(e2, before);
    }

    #[test]
    fn quantiles_track_exact_values() {
        let values: Vec<f64> = (1..=1000).map(|i| (i as f64) * 0.37).collect();
        let s = QuantileSketch::from_values(&values);
        assert_within_bound(&s, &values);
        assert_eq!(s.min(), values[0]);
        assert_eq!(s.max(), values[999]);
    }

    #[test]
    fn negative_and_zero_values() {
        let mut values = vec![-50.0, -1.0, 0.0, 0.0, 2.0, 100.0, -3.0e-13];
        let s = QuantileSketch::from_values(&values);
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_within_bound(&s, &values);
        // Extremes stay inside the exact range.
        assert!(s.quantile(0.0) >= s.min());
        assert!(s.quantile(1.0) <= s.max());
    }

    #[test]
    fn merge_matches_concat() {
        let a: Vec<f64> = (0..300).map(|i| (i as f64 * 0.11).exp() % 977.0).collect();
        let b: Vec<f64> = (0..200).map(|i| (i as f64) + 0.5).collect();
        let mut merged = QuantileSketch::from_values(&a);
        merged.merge(&QuantileSketch::from_values(&b));
        let mut concat = a.clone();
        concat.extend_from_slice(&b);
        assert_eq!(merged, QuantileSketch::from_values(&concat));
    }

    #[test]
    fn merge_is_commutative_and_associative() {
        let parts: Vec<QuantileSketch> = [&[1.0, 5.0, 9.0][..], &[2.0, -4.0], &[1e6, 1e-6, 0.0]]
            .iter()
            .map(|vs| QuantileSketch::from_values(vs))
            .collect();
        let mut ab_c = parts[0].clone();
        ab_c.merge(&parts[1]);
        ab_c.merge(&parts[2]);
        let mut a_bc = parts[1].clone();
        a_bc.merge(&parts[2]);
        let mut left = parts[0].clone();
        left.merge(&a_bc);
        assert_eq!(ab_c, left);
        let mut cba = parts[2].clone();
        cba.merge(&parts[1]);
        cba.merge(&parts[0]);
        assert_eq!(ab_c, cba);
    }

    #[test]
    fn bytes_round_trip() {
        let s = QuantileSketch::from_values(&[-7.5, 0.0, 1e-14, 3.25, 88.0, 1e9]);
        let back = QuantileSketch::from_bytes(&s.to_bytes()).unwrap();
        assert_eq!(s, back);
        assert_eq!(s.to_bytes(), back.to_bytes());
        let empty = QuantileSketch::new();
        assert_eq!(
            QuantileSketch::from_bytes(&empty.to_bytes()).unwrap(),
            empty
        );
    }

    #[test]
    fn bytes_reject_corruption() {
        let s = QuantileSketch::from_values(&[1.0, 2.0]);
        let bytes = s.to_bytes();
        assert!(QuantileSketch::from_bytes(&bytes[..bytes.len() - 1]).is_err());
        let mut wrong_version = bytes.clone();
        wrong_version[0] = 99;
        assert!(QuantileSketch::from_bytes(&wrong_version).is_err());
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(QuantileSketch::from_bytes(&trailing).is_err());
        let mut bad_count = bytes.clone();
        bad_count[1] ^= 0xff;
        assert!(QuantileSketch::from_bytes(&bad_count).is_err());
        assert!(QuantileSketch::from_bytes(&[]).is_err());

        // Bin lengths the input cannot hold are named errors, not a
        // capacity-overflow panic or an 8 TiB allocation. The header is
        // the version byte and four words; the negative store's bin
        // length follows its offset.
        for len in [u64::MAX, 1 << 40] {
            let mut huge = bytes.clone();
            huge[41..49].copy_from_slice(&len.to_le_bytes());
            assert_eq!(
                QuantileSketch::from_bytes(&huge),
                Err(StatsError::BadInput("sketch bytes truncated"))
            );
        }
        // Bin counts whose sum overflows are rejected, not wrapped: count
        // 1, zero 0, min = max = 1.0, a negative store at offset 0 with
        // bins [u64::MAX, 2], and an empty positive store.
        let mut overflow = vec![CODEC_VERSION];
        for word in [
            1u64,
            0,
            1f64.to_bits(),
            1f64.to_bits(),
            0,
            2,
            u64::MAX,
            2,
            0,
            0,
        ] {
            overflow.extend_from_slice(&word.to_le_bytes());
        }
        assert_eq!(
            QuantileSketch::from_bytes(&overflow),
            Err(StatsError::BadInput("sketch bucket counts disagree"))
        );
    }

    #[test]
    #[should_panic(expected = "must not be NaN")]
    fn nan_input_panics() {
        QuantileSketch::new().add(f64::NAN);
    }
}
