//! Virtual time for the simulation, with nanosecond resolution.
//!
//! All simulated clocks — the kernel's `bpf_ktime_get_ns`, syscall
//! timestamps, client-side latency measurements — are expressed as [`Nanos`],
//! a thin newtype over `u64` so that virtual time can never be confused
//! with wall-clock time or a bare counter.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An absolute instant of virtual time, in nanoseconds since simulation start.
///
/// `Nanos` is the simulation's equivalent of the value returned by the kernel
/// helper `bpf_ktime_get_ns`. It is ordered, copyable, and supports the
/// arithmetic a tracing pipeline needs: `instant - instant = delta`,
/// `instant + delta = instant`.
///
/// # Examples
///
/// ```
/// use kscope_simcore::Nanos;
///
/// let start = Nanos::from_micros(10);
/// let end = start + Nanos::from_micros(5);
/// assert_eq!((end - start).as_nanos(), 5_000);
/// ```
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Nanos(u64);

impl Nanos {
    /// The zero instant: simulation start.
    pub const ZERO: Nanos = Nanos(0);
    /// The greatest representable instant; used as an "infinite" deadline.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates an instant from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Nanos(ns)
    }

    /// Creates an instant from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Nanos(us * 1_000)
    }

    /// Creates an instant from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Nanos(ms * 1_000_000)
    }

    /// Creates an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Nanos(s * 1_000_000_000)
    }

    /// Creates an instant from fractional seconds, rounding to the nearest
    /// nanosecond. Negative values saturate to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        Nanos((s * 1e9).round().max(0.0) as u64)
    }

    /// Raw nanoseconds since simulation start.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Microseconds since simulation start (truncating).
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// Milliseconds since simulation start (truncating).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds since simulation start.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds since simulation start.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Fractional microseconds since simulation start.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Difference that saturates at zero instead of panicking when `other`
    /// is later than `self`.
    #[inline]
    pub const fn saturating_sub(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(other.0))
    }

    /// Sum that saturates at [`Nanos::MAX`].
    #[inline]
    pub const fn saturating_add(self, other: Nanos) -> Nanos {
        Nanos(self.0.saturating_add(other.0))
    }

    /// Checked difference, `None` when `other > self`.
    #[inline]
    pub const fn checked_sub(self, other: Nanos) -> Option<Nanos> {
        match self.0.checked_sub(other.0) {
            Some(v) => Some(Nanos(v)),
            None => None,
        }
    }

    /// True if this is the zero instant.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for Nanos {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", ns as f64 / 1e9)
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// # Panics
    ///
    /// Panics in debug builds if `rhs` is later than `self`; use
    /// [`Nanos::saturating_sub`] when the ordering is not guaranteed.
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 - rhs.0)
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, |a, b| a + b)
    }
}

impl From<u64> for Nanos {
    #[inline]
    fn from(ns: u64) -> Self {
        Nanos(ns)
    }
}

impl From<Nanos> for u64 {
    #[inline]
    fn from(n: Nanos) -> Self {
        n.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(Nanos::from_micros(3).as_nanos(), 3_000);
        assert_eq!(Nanos::from_millis(3).as_nanos(), 3_000_000);
        assert_eq!(Nanos::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(Nanos::from_secs_f64(0.5).as_nanos(), 500_000_000);
    }

    #[test]
    fn from_secs_f64_clamps_negative_to_zero() {
        assert_eq!(Nanos::from_secs_f64(-1.0), Nanos::ZERO);
    }

    #[test]
    fn arithmetic_round_trips() {
        let a = Nanos::from_micros(10);
        let b = Nanos::from_micros(4);
        assert_eq!((a + b) - b, a);
        assert_eq!(a * 3, Nanos::from_micros(30));
        assert_eq!(a / 2, Nanos::from_micros(5));
    }

    #[test]
    fn saturating_sub_clamps() {
        let a = Nanos::from_nanos(5);
        let b = Nanos::from_nanos(9);
        assert_eq!(a.saturating_sub(b), Nanos::ZERO);
        assert_eq!(b.saturating_sub(a), Nanos::from_nanos(4));
    }

    #[test]
    fn checked_sub_detects_underflow() {
        assert_eq!(Nanos::from_nanos(1).checked_sub(Nanos::from_nanos(2)), None);
        assert_eq!(
            Nanos::from_nanos(2).checked_sub(Nanos::from_nanos(1)),
            Some(Nanos::from_nanos(1))
        );
    }

    #[test]
    fn display_picks_human_unit() {
        assert_eq!(Nanos::from_nanos(12).to_string(), "12ns");
        assert_eq!(Nanos::from_micros(12).to_string(), "12.000us");
        assert_eq!(Nanos::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Nanos::from_secs(12).to_string(), "12.000s");
    }

    #[test]
    fn sum_of_instants() {
        let total: Nanos = [1u64, 2, 3].into_iter().map(Nanos::from_nanos).sum();
        assert_eq!(total, Nanos::from_nanos(6));
    }
}
