//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the simulator (arrival processes, service
//! times, network loss, scheduler jitter) draws from a [`SimRng`], an
//! implementation of the xoshiro256★★ generator seeded through SplitMix64.
//! Determinism is a hard requirement: two runs with the same seed must
//! produce bit-identical traces, which is what makes the experiment harness
//! and the differential backend tests reproducible.
//!
//! A generator can be [`forked`](SimRng::fork) to give each component an
//! independent stream, so adding draws to one component never perturbs the
//! sequence seen by another.

use core::fmt;

/// SplitMix64 step; used for seeding and stream derivation.
///
/// Reference: Steele, Lea, Flood — "Fast splittable pseudorandom number
/// generators" (OOPSLA 2014).
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic xoshiro256★★ generator.
///
/// # Examples
///
/// ```
/// use kscope_simcore::SimRng;
///
/// let mut a = SimRng::seed_from_u64(42);
/// let mut b = SimRng::seed_from_u64(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Clone)]
pub struct SimRng {
    s: [u64; 4],
    /// Cached second output of the Box–Muller transform.
    gauss_spare: Option<f64>,
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The internal state is deliberately opaque; printing it in full
        // would invite accidental dependence on representation.
        f.debug_struct("SimRng").finish_non_exhaustive()
    }
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// The seed is expanded through SplitMix64, so nearby seeds produce
    /// unrelated streams; seed 0 is fine.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng {
            s,
            gauss_spare: None,
        }
    }

    /// Derives an independent child generator.
    ///
    /// Forking draws one value from `self` and reseeds through SplitMix64
    /// with a stream label, so the child stream is statistically independent
    /// of both the parent's future output and siblings forked with different
    /// labels.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let base = self.next_u64() ^ label.wrapping_mul(0xA24B_AED4_963E_E407);
        SimRng::seed_from_u64(base)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Next 32-bit output (upper half of a 64-bit draw).
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        (self.next_u64() >> 32) as u32
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's multiply-shift
    /// rejection method (unbiased).
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below requires a non-zero bound");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(bound as u128);
            let low = m as u64;
            if low >= bound {
                return (m >> 64) as u64;
            }
            // Rejection zone: only entered for low < bound.
            let threshold = bound.wrapping_neg() % bound;
            if low >= threshold {
                return (m >> 64) as u64;
            }
        }
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_range requires lo <= hi");
        let span = hi - lo;
        if span == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(span + 1)
    }

    /// Bernoulli trial: true with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn next_bool(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.next_f64() < p
        }
    }

    /// Standard normal draw via the Box–Muller transform (caches the spare).
    pub fn next_gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Avoid ln(0) by drawing u1 from (0, 1].
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = core::f64::consts::TAU * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Exponential draw with the given rate (mean `1/rate`).
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not strictly positive.
    pub fn next_exponential(&mut self, rate: f64) -> f64 {
        assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.next_f64(); // in (0, 1]
        -u.ln() / rate
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, slice: &mut [T]) {
        for i in (1..slice.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            slice.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics if the slice is empty.
    pub fn choose<'a, T>(&mut self, slice: &'a [T]) -> &'a T {
        assert!(!slice.is_empty(), "choose requires a non-empty slice");
        &slice[self.next_below(slice.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_equal_seeds() {
        let mut a = SimRng::seed_from_u64(7);
        let mut b = SimRng::seed_from_u64(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from_u64(1);
        let mut b = SimRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn forked_streams_are_independent_of_label() {
        let mut parent = SimRng::seed_from_u64(3);
        let mut c1 = parent.clone().fork(1);
        let mut c2 = parent.fork(2);
        assert_ne!(c1.next_u64(), c2.next_u64());
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = SimRng::seed_from_u64(11);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn next_below_respects_bound() {
        let mut rng = SimRng::seed_from_u64(13);
        for bound in [1u64, 2, 3, 7, 100, 1 << 40] {
            for _ in 0..200 {
                assert!(rng.next_below(bound) < bound);
            }
        }
    }

    #[test]
    fn next_below_is_roughly_uniform() {
        let mut rng = SimRng::seed_from_u64(17);
        let mut counts = [0u32; 8];
        for _ in 0..80_000 {
            counts[rng.next_below(8) as usize] += 1;
        }
        for &c in &counts {
            // Expected 10_000 per bucket; allow 5% deviation.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn next_range_covers_endpoints() {
        let mut rng = SimRng::seed_from_u64(19);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..1_000 {
            match rng.next_range(5, 8) {
                5 => saw_lo = true,
                8 => saw_hi = true,
                6 | 7 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn next_bool_edge_probabilities() {
        let mut rng = SimRng::seed_from_u64(23);
        assert!(!rng.next_bool(0.0));
        assert!(rng.next_bool(1.0));
        assert!(!rng.next_bool(-0.5));
        assert!(rng.next_bool(1.5));
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = SimRng::seed_from_u64(29);
        let n = 100_000;
        let mut sum = 0.0;
        let mut sum_sq = 0.0;
        for _ in 0..n {
            let z = rng.next_gaussian();
            sum += z;
            sum_sq += z * z;
        }
        let mean = sum / n as f64;
        let var = sum_sq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.03, "var {var}");
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut rng = SimRng::seed_from_u64(31);
        let rate = 4.0;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_exponential(rate)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / rate).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = SimRng::seed_from_u64(37);
        let mut v: Vec<u32> = (0..50).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    #[should_panic(expected = "non-zero bound")]
    fn next_below_zero_panics() {
        SimRng::seed_from_u64(1).next_below(0);
    }
}
