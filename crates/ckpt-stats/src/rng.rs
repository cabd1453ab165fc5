//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the reproduction draws randomness through the
//! [`Rng64`] trait, backed by one of two small, well-studied generators:
//!
//! * [`SplitMix64`] — Steele/Lea/Flood's 64-bit mixer. Used for seeding and
//!   for *stream derivation*: deriving an independent per-task or per-job
//!   generator from `(experiment seed, entity id)` so that results do not
//!   depend on scheduling order or thread count.
//! * [`Xoshiro256StarStar`] — Blackman/Vigna's general-purpose generator with
//!   256 bits of state, used for the bulk of the sampling.
//!
//! All distribution sampling in this workspace goes through our own
//! inverse-transform code (see [`crate::dist`]), with no external RNG crate,
//! so the generated values depend on nothing outside this repository.

/// A minimal deterministic RNG interface: everything the workspace samples
/// ultimately reduces to uniform `u64`s and uniform `f64`s in `[0, 1)`.
pub trait Rng64 {
    /// Next uniformly distributed 64-bit value.
    fn next_u64(&mut self) -> u64;

    /// Next uniform `f64` in the half-open interval `[0, 1)`.
    ///
    /// Uses the 53 most significant bits so every representable value is
    /// equally likely and `1.0` is never returned.
    #[inline]
    fn next_f64(&mut self) -> f64 {
        // 53-bit mantissa / 2^53 — the standard uniform double construction.
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Next uniform `f64` in the *open* interval `(0, 1)` — convenient for
    /// inverse-transform sampling of distributions whose quantile function
    /// diverges at 0 or 1 (exponential, Pareto, ...).
    #[inline]
    fn next_f64_open(&mut self) -> f64 {
        loop {
            let u = self.next_f64();
            if u > 0.0 {
                return u;
            }
        }
    }

    /// Uniform integer in `[0, n)`. Uses Lemire-style rejection to avoid
    /// modulo bias.
    #[inline]
    fn next_range(&mut self, n: u64) -> u64 {
        assert!(n > 0, "next_range: empty range");
        // Widening-multiply rejection sampling (Lemire 2018).
        let mut x = self.next_u64();
        let mut m = (x as u128) * (n as u128);
        let mut l = m as u64;
        if l < n {
            let t = n.wrapping_neg() % n;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (n as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform `f64` in `[lo, hi)`.
    #[inline]
    fn next_in(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial with success probability `p`.
    #[inline]
    fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// The SplitMix64 generator (Steele, Lea, Flood — "Fast splittable
/// pseudorandom number generators", OOPSLA 2014).
///
/// One 64-bit word of state; passes BigCrush when used as a mixer. Its main
/// roles here are seed expansion and derivation of independent streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a 64-bit seed. Any seed (including 0) is fine.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Mix a single value through the SplitMix64 finalizer. Useful as a
    /// stateless hash for deriving seeds.
    #[inline]
    pub fn mix(mut z: u64) -> u64 {
        z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

impl Rng64 for SplitMix64 {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// The xoshiro256** generator (Blackman & Vigna, 2018).
///
/// 256 bits of state, period 2^256 − 1, excellent statistical quality. This is
/// the workhorse generator used by the trace generator and the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256StarStar {
    s: [u64; 4],
}

impl Xoshiro256StarStar {
    /// Seed via SplitMix64 expansion, per the reference implementation's
    /// recommendation. The state is guaranteed non-zero.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = sm.next_u64();
        }
        if s == [0, 0, 0, 0] {
            s[0] = 0x9E37_79B9_7F4A_7C15; // never all-zero
        }
        Self { s }
    }

    /// Derive an independent stream for entity `id` under experiment `seed`.
    ///
    /// Streams derived with different `(seed, id)` pairs are statistically
    /// independent for all practical purposes (SplitMix64 finalizer mixing),
    /// which is what makes the parallel experiment runner deterministic: each
    /// job samples from its own stream no matter which thread executes it.
    pub fn stream(seed: u64, id: u64) -> Self {
        Self::new(SplitMix64::mix(seed ^ SplitMix64::mix(id)))
    }

    #[inline]
    fn rotl(x: u64, k: u32) -> u64 {
        x.rotate_left(k)
    }

    /// Snapshot the generator's 256-bit state. Together with
    /// [`Xoshiro256StarStar::from_state`] this lets a caller freeze a
    /// stream mid-sequence and resume it later *exactly* — the mechanism
    /// the failure-plan arena uses to replay a task's post-plan draws
    /// (priority-flip re-plans) without re-consuming the plan's own draws.
    #[inline]
    pub fn state(&self) -> [u64; 4] {
        self.s
    }

    /// Rebuild a generator from a state captured by
    /// [`Xoshiro256StarStar::state`]. The all-zero state is invalid for
    /// xoshiro (it is a fixed point) and is rejected.
    #[inline]
    pub fn from_state(s: [u64; 4]) -> Self {
        assert!(s != [0, 0, 0, 0], "xoshiro256** state must be non-zero");
        Self { s }
    }
}

impl Rng64 for Xoshiro256StarStar {
    #[inline]
    fn next_u64(&mut self) -> u64 {
        let result = Self::rotl(self.s[1].wrapping_mul(5), 7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = Self::rotl(self.s[3], 45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_values() {
        // Reference sequence for seed 1234567 from the public-domain C code.
        let mut rng = SplitMix64::new(1234567);
        let first = Rng64::next_u64(&mut rng);
        let second = Rng64::next_u64(&mut rng);
        assert_ne!(first, second);
        // Determinism: same seed, same sequence.
        let mut rng2 = SplitMix64::new(1234567);
        assert_eq!(first, Rng64::next_u64(&mut rng2));
        assert_eq!(second, Rng64::next_u64(&mut rng2));
    }

    #[test]
    fn splitmix_known_answer() {
        // Known-answer test: SplitMix64 with seed 0 must produce the
        // published first output 0xE220A8397B1DCDAF.
        let mut rng = SplitMix64::new(0);
        assert_eq!(Rng64::next_u64(&mut rng), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn xoshiro_determinism_and_difference() {
        let mut a = Xoshiro256StarStar::new(99);
        let mut b = Xoshiro256StarStar::new(99);
        let mut c = Xoshiro256StarStar::new(100);
        let xa: Vec<u64> = (0..16).map(|_| Rng64::next_u64(&mut a)).collect();
        let xb: Vec<u64> = (0..16).map(|_| Rng64::next_u64(&mut b)).collect();
        let xc: Vec<u64> = (0..16).map(|_| Rng64::next_u64(&mut c)).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut rng = Xoshiro256StarStar::new(7);
        for _ in 0..100_000 {
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u), "u = {u}");
        }
    }

    #[test]
    fn f64_mean_is_half() {
        let mut rng = Xoshiro256StarStar::new(11);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.005, "mean = {mean}");
    }

    #[test]
    fn next_range_unbiased_small() {
        let mut rng = Xoshiro256StarStar::new(3);
        let mut counts = [0usize; 5];
        let n = 100_000;
        for _ in 0..n {
            counts[rng.next_range(5) as usize] += 1;
        }
        for &c in &counts {
            let frac = c as f64 / n as f64;
            assert!((frac - 0.2).abs() < 0.01, "frac = {frac}");
        }
    }

    #[test]
    fn next_range_bounds() {
        let mut rng = SplitMix64::new(17);
        for _ in 0..10_000 {
            assert!(rng.next_range(3) < 3);
            assert_eq!(rng.next_range(1), 0);
        }
    }

    #[test]
    fn streams_are_independent() {
        let mut s1 = Xoshiro256StarStar::stream(42, 0);
        let mut s2 = Xoshiro256StarStar::stream(42, 1);
        let a: Vec<u64> = (0..8).map(|_| Rng64::next_u64(&mut s1)).collect();
        let b: Vec<u64> = (0..8).map(|_| Rng64::next_u64(&mut s2)).collect();
        assert_ne!(a, b);
        // Stream derivation is pure: same (seed, id) gives same stream.
        let mut s1b = Xoshiro256StarStar::stream(42, 0);
        let a2: Vec<u64> = (0..8).map(|_| Rng64::next_u64(&mut s1b)).collect();
        assert_eq!(a, a2);
    }

    #[test]
    fn state_roundtrip_resumes_exactly() {
        let mut a = Xoshiro256StarStar::new(77);
        for _ in 0..13 {
            let _ = Rng64::next_u64(&mut a);
        }
        let frozen = a.state();
        let tail: Vec<u64> = (0..8).map(|_| Rng64::next_u64(&mut a)).collect();
        let mut resumed = Xoshiro256StarStar::from_state(frozen);
        let replay: Vec<u64> = (0..8).map(|_| Rng64::next_u64(&mut resumed)).collect();
        assert_eq!(tail, replay);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_state_rejected() {
        let _ = Xoshiro256StarStar::from_state([0; 4]);
    }

    #[test]
    fn open_interval_never_zero() {
        let mut rng = SplitMix64::new(0xDEAD);
        for _ in 0..100_000 {
            let u = rng.next_f64_open();
            assert!(u > 0.0 && u < 1.0);
        }
    }
}
