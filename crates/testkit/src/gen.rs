//! Small generator helpers over [`SimRng`].
//!
//! Generators in this harness are plain closures `FnMut(&mut SimRng) -> T`;
//! these free functions cover the patterns the workspace's property suites
//! need (sized vectors, ranged scalars, weighted picks) without a
//! combinator DSL.

use kscope_simcore::SimRng;

/// Uniform `u64` in `[lo, hi]` (inclusive).
pub fn u64_in(rng: &mut SimRng, lo: u64, hi: u64) -> u64 {
    rng.next_range(lo, hi)
}

/// Uniform `usize` in `[lo, hi]` (inclusive).
pub fn usize_in(rng: &mut SimRng, lo: usize, hi: usize) -> usize {
    rng.next_range(lo as u64, hi as u64) as usize
}

/// Uniform `i64` in `[lo, hi]` (inclusive).
pub fn i64_in(rng: &mut SimRng, lo: i64, hi: i64) -> i64 {
    debug_assert!(lo <= hi);
    lo.wrapping_add(rng.next_below((hi - lo) as u64 + 1) as i64)
}

/// Uniform `i32` in `[lo, hi]` (inclusive).
pub fn i32_in(rng: &mut SimRng, lo: i32, hi: i32) -> i32 {
    i64_in(rng, lo as i64, hi as i64) as i32
}

/// Uniform `f64` in `[lo, hi)`.
pub fn f64_in(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    debug_assert!(lo <= hi);
    lo + rng.next_f64() * (hi - lo)
}

/// A fully random `u64` (all 64 bits uniform).
pub fn u64_any(rng: &mut SimRng) -> u64 {
    rng.next_u64()
}

/// A fully random `i32`.
pub fn i32_any(rng: &mut SimRng) -> i32 {
    rng.next_u32() as i32
}

/// A fully random `u8`.
pub fn u8_any(rng: &mut SimRng) -> u8 {
    (rng.next_u64() & 0xFF) as u8
}

/// A fair coin.
pub fn bool_any(rng: &mut SimRng) -> bool {
    rng.next_u64() & 1 == 1
}

/// A vector of `len ∈ [min_len, max_len]` elements drawn from `element`.
pub fn vec_of<T>(
    rng: &mut SimRng,
    min_len: usize,
    max_len: usize,
    mut element: impl FnMut(&mut SimRng) -> T,
) -> Vec<T> {
    let len = usize_in(rng, min_len, max_len);
    (0..len).map(|_| element(rng)).collect()
}

/// A uniformly random element of a non-empty slice, by value.
pub fn pick<T: Copy>(rng: &mut SimRng, options: &[T]) -> T {
    *rng.choose(options)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranges_are_inclusive() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut saw_lo = false;
        let mut saw_hi = false;
        for _ in 0..500 {
            match i64_in(&mut rng, -2, 2) {
                -2 => saw_lo = true,
                2 => saw_hi = true,
                -1..=1 => {}
                other => panic!("out of range: {other}"),
            }
        }
        assert!(saw_lo && saw_hi);
    }

    #[test]
    fn i64_in_handles_negative_spans() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..200 {
            let v = i64_in(&mut rng, -1000, -10);
            assert!((-1000..=-10).contains(&v));
        }
    }

    #[test]
    fn f64_in_stays_in_range() {
        let mut rng = SimRng::seed_from_u64(3);
        for _ in 0..200 {
            let v = f64_in(&mut rng, 2.5, 7.5);
            assert!((2.5..7.5).contains(&v));
        }
    }

    #[test]
    fn vec_of_respects_bounds() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..100 {
            let v = vec_of(&mut rng, 2, 5, |r| r.next_below(10));
            assert!((2..=5).contains(&v.len()));
        }
    }

    #[test]
    fn generators_are_deterministic() {
        let mut a = SimRng::seed_from_u64(9);
        let mut b = SimRng::seed_from_u64(9);
        for _ in 0..50 {
            assert_eq!(i32_any(&mut a), i32_any(&mut b));
        }
    }
}
