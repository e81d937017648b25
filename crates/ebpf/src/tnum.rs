//! Tristate numbers: the known-bits abstract domain.
//!
//! A [`Tnum`] represents a set of 64-bit values by tracking, for each bit
//! position, whether the bit is known-0, known-1, or unknown. `value`
//! holds the known bits; `mask` has a 1 for every unknown bit. The
//! invariant is `value & mask == 0` — a bit cannot be both known-1 and
//! unknown.
//!
//! This is the same domain the Linux verifier uses (`struct tnum` in
//! `kernel/bpf/tnum.c`, after Vishwanathan et al.'s formalization). It
//! composes with interval bounds in the verifier's scalar domain: tnums
//! are precise for bitwise ops and shifts, intervals for ordered
//! comparisons, and each refines the other (`Tnum::range`,
//! `Tnum::intersect`).

/// A tristate number: a partially-known 64-bit value.
///
/// Every concrete value `v` represented by the tnum satisfies
/// `v & !mask == value`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tnum {
    /// Known-1 bits. Disjoint from `mask`.
    pub value: u64,
    /// Unknown bits (1 = unknown).
    pub mask: u64,
}

impl Tnum {
    /// The completely unknown value.
    pub const UNKNOWN: Tnum = Tnum {
        value: 0,
        mask: u64::MAX,
    };

    /// A fully known constant.
    pub const fn constant(value: u64) -> Tnum {
        Tnum { value, mask: 0 }
    }

    /// `Some(v)` iff every bit is known.
    pub const fn const_val(self) -> Option<u64> {
        if self.mask == 0 {
            Some(self.value)
        } else {
            None
        }
    }

    /// Whether the concrete value `v` is a member of this tnum's set.
    pub const fn contains(self, v: u64) -> bool {
        v & !self.mask == self.value
    }

    /// The smallest tnum containing every value in `[min, max]`
    /// (kernel `tnum_range`): bits above the highest differing bit are
    /// common to the whole interval and therefore known.
    pub fn range(min: u64, max: u64) -> Tnum {
        let chi = min ^ max;
        let bits = 64 - chi.leading_zeros();
        if bits >= 64 {
            return Tnum::UNKNOWN;
        }
        let mask = (1u64 << bits) - 1;
        Tnum {
            value: min & !mask,
            mask,
        }
    }

    /// Wrapping addition (kernel `tnum_add`): carries out of unknown bits
    /// poison every position they can reach.
    // Named after the kernel's `tnum_add`, not the `Add` operator.
    #[allow(clippy::should_implement_trait)]
    pub fn add(self, other: Tnum) -> Tnum {
        let sm = self.mask.wrapping_add(other.mask);
        let sv = self.value.wrapping_add(other.value);
        let sigma = sm.wrapping_add(sv);
        let chi = sigma ^ sv;
        let mu = chi | self.mask | other.mask;
        Tnum {
            value: sv & !mu,
            mask: mu,
        }
    }

    /// Wrapping subtraction (kernel `tnum_sub`).
    // Named after the kernel's `tnum_sub`, not the `Sub` operator.
    #[allow(clippy::should_implement_trait)]
    pub fn sub(self, other: Tnum) -> Tnum {
        let dv = self.value.wrapping_sub(other.value);
        let alpha = dv.wrapping_add(self.mask);
        let beta = dv.wrapping_sub(other.mask);
        let chi = alpha ^ beta;
        let mu = chi | self.mask | other.mask;
        Tnum {
            value: dv & !mu,
            mask: mu,
        }
    }

    /// Bitwise AND: a result bit is known-1 only if both inputs are
    /// known-1, known-0 if either input is known-0.
    pub fn and(self, other: Tnum) -> Tnum {
        let alpha = self.value | self.mask;
        let beta = other.value | other.mask;
        let v = self.value & other.value;
        Tnum {
            value: v,
            mask: alpha & beta & !v,
        }
    }

    /// Bitwise OR.
    pub fn or(self, other: Tnum) -> Tnum {
        let v = self.value | other.value;
        let mu = self.mask | other.mask;
        Tnum {
            value: v,
            mask: mu & !v,
        }
    }

    /// Bitwise XOR.
    pub fn xor(self, other: Tnum) -> Tnum {
        let v = self.value ^ other.value;
        let mu = self.mask | other.mask;
        Tnum {
            value: v & !mu,
            mask: mu,
        }
    }

    /// Left shift by a known amount.
    pub fn lshift(self, shift: u32) -> Tnum {
        Tnum {
            value: self.value << shift,
            mask: self.mask << shift,
        }
    }

    /// Logical right shift by a known amount.
    pub fn rshift(self, shift: u32) -> Tnum {
        Tnum {
            value: self.value >> shift,
            mask: self.mask >> shift,
        }
    }

    /// Arithmetic right shift by a known amount. If the sign bit is
    /// unknown, the sign-extended mask marks every copied-in bit unknown.
    pub fn arshift(self, shift: u32) -> Tnum {
        Tnum {
            value: ((self.value as i64) >> shift) as u64 & !(((self.mask as i64) >> shift) as u64),
            mask: ((self.mask as i64) >> shift) as u64,
        }
    }

    /// Multiplication: exact for two constants, shift for a known
    /// power-of-two factor, unknown otherwise (the kernel's `tnum_mul`
    /// is sharper; this keeps the sound cases we actually use).
    // Named after the kernel's `tnum_mul`, not the `Mul` operator.
    #[allow(clippy::should_implement_trait)]
    pub fn mul(self, other: Tnum) -> Tnum {
        match (self.const_val(), other.const_val()) {
            (Some(a), Some(b)) => Tnum::constant(a.wrapping_mul(b)),
            (Some(c), None) if c.is_power_of_two() => other.lshift(c.trailing_zeros()),
            (None, Some(c)) if c.is_power_of_two() => self.lshift(c.trailing_zeros()),
            _ => Tnum::UNKNOWN,
        }
    }

    /// Intersection: keeps only values in both sets. `None` when the
    /// known bits conflict (the intersection is empty).
    pub fn intersect(self, other: Tnum) -> Option<Tnum> {
        if (self.value ^ other.value) & !self.mask & !other.mask != 0 {
            return None;
        }
        let mask = self.mask & other.mask;
        Some(Tnum {
            value: (self.value | other.value) & !mask,
            mask,
        })
    }

    /// Union (lattice join): a bit stays known only where both operands
    /// know it and agree.
    pub fn union(self, other: Tnum) -> Tnum {
        let mu = self.mask | other.mask | (self.value ^ other.value);
        Tnum {
            value: self.value & !mu,
            mask: mu,
        }
    }

    /// Truncation to the low 32 bits (for ALU32 results, which
    /// zero-extend).
    pub fn cast32(self) -> Tnum {
        Tnum {
            value: self.value & 0xFFFF_FFFF,
            mask: self.mask & 0xFFFF_FFFF,
        }
    }

    /// Smallest value in the set.
    pub const fn min(self) -> u64 {
        self.value
    }

    /// Largest value in the set.
    pub const fn max(self) -> u64 {
        self.value | self.mask
    }
}

impl std::fmt::Display for Tnum {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if let Some(v) = self.const_val() {
            write!(f, "{v:#x}")
        } else if self.mask == u64::MAX {
            write!(f, "?")
        } else {
            write!(f, "(v={:#x} m={:#x})", self.value, self.mask)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exhaustive membership oracle over a small concretization.
    fn members(t: Tnum, width: u32) -> Vec<u64> {
        (0..1u64 << width).filter(|&v| t.contains(v)).collect()
    }

    #[test]
    fn constant_round_trip() {
        let t = Tnum::constant(0xDEAD_BEEF);
        assert_eq!(t.const_val(), Some(0xDEAD_BEEF));
        assert!(t.contains(0xDEAD_BEEF));
        assert!(!t.contains(0xDEAD_BEEE));
    }

    #[test]
    fn add_is_sound_exhaustively() {
        // Every pair of 4-bit tnums: concrete sums stay inside abstract sum.
        for av in 0..16u64 {
            for am in 0..16u64 {
                if av & am != 0 {
                    continue;
                }
                for bv in 0..16u64 {
                    for bm in 0..16u64 {
                        if bv & bm != 0 {
                            continue;
                        }
                        let (a, b) = (
                            Tnum {
                                value: av,
                                mask: am,
                            },
                            Tnum {
                                value: bv,
                                mask: bm,
                            },
                        );
                        let sum = a.add(b);
                        for x in members(a, 4) {
                            for y in members(b, 4) {
                                assert!(sum.contains(x.wrapping_add(y)), "{a} + {b} lost {x}+{y}");
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn bitwise_ops_are_sound_exhaustively() {
        for av in 0..8u64 {
            for am in 0..8u64 {
                if av & am != 0 {
                    continue;
                }
                for bv in 0..8u64 {
                    for bm in 0..8u64 {
                        if bv & bm != 0 {
                            continue;
                        }
                        let (a, b) = (
                            Tnum {
                                value: av,
                                mask: am,
                            },
                            Tnum {
                                value: bv,
                                mask: bm,
                            },
                        );
                        for x in members(a, 3) {
                            for y in members(b, 3) {
                                assert!(a.and(b).contains(x & y));
                                assert!(a.or(b).contains(x | y));
                                assert!(a.xor(b).contains(x ^ y));
                                assert!(a.sub(b).contains(x.wrapping_sub(y)));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn range_covers_interval() {
        let t = Tnum::range(100, 163);
        for v in 100..=163 {
            assert!(t.contains(v), "range lost {v}");
        }
        // And it knows the high bits: nothing above 255 fits.
        assert!(t.max() < 256);
    }

    #[test]
    fn intersect_detects_conflicts() {
        let a = Tnum::constant(5);
        let b = Tnum::constant(6);
        assert_eq!(a.intersect(b), None);
        let c = Tnum { value: 4, mask: 3 }; // {4,5,6,7}
        assert_eq!(a.intersect(c), Some(Tnum::constant(5)));
    }

    #[test]
    fn union_keeps_common_bits() {
        let u = Tnum::constant(0b1100).union(Tnum::constant(0b1000));
        assert!(u.contains(0b1100));
        assert!(u.contains(0b1000));
        // Bit 3 is known-1 in both.
        assert_eq!(u.value & 0b1000, 0b1000);
    }

    #[test]
    fn arshift_sign_extends_unknowns() {
        // Sign bit unknown: shifted-in bits must be unknown.
        let t = Tnum {
            value: 0,
            mask: 1 << 63,
        };
        let s = t.arshift(4);
        assert_eq!(s.mask >> 59, 0b11111);
    }

    #[test]
    fn shifts_track_known_bits() {
        let t = Tnum {
            value: 0b10,
            mask: 0b01,
        };
        assert_eq!(
            t.lshift(3),
            Tnum {
                value: 0b10000,
                mask: 0b01000
            }
        );
        assert_eq!(
            t.rshift(1),
            Tnum {
                value: 0b1,
                mask: 0
            }
        );
    }
}
