//! A fixed-key fast hasher for small integer keys.
//!
//! The standard library's default `RandomState` runs SipHash under a
//! per-process random key: robust against hash flooding, but slow for
//! the simulator's hot maps keyed by a thread id, where every key is a
//! small trusted integer. [`FastHasher`] is a multiply-rotate hash (the
//! Firefox/rustc "Fx" scheme) with no key at all, so it is also the same
//! in every process. Use it only for maps nothing iterates, or whose
//! iteration order does not reach any output.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiply-rotate hasher with a fixed (absent) key.
///
/// # Examples
///
/// ```
/// use std::collections::HashMap;
/// use kscope_simcore::hash::FastBuildHasher;
///
/// let mut open: HashMap<u32, u64, FastBuildHasher> = HashMap::default();
/// open.insert(7, 99);
/// assert_eq!(open.remove(&7), Some(99));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct FastHasher {
    hash: u64,
}

/// Odd multiplier with well-spread bits (rustc's `FxHasher` constant).
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl FastHasher {
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FastHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            let mut word = [0u8; 8];
            word.copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, i: u32) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn finish(&self) -> u64 {
        self.hash
    }
}

/// `BuildHasher` for [`FastHasher`], for `HashMap<K, V, FastBuildHasher>`.
pub type FastBuildHasher = BuildHasherDefault<FastHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        FastBuildHasher::default().hash_one(value)
    }

    #[test]
    fn hash_is_fixed_and_spreads_small_keys() {
        // No per-process key: the same value hashes the same everywhere.
        assert_eq!(hash_of(42u32), hash_of(42u32));
        let hashes: std::collections::BTreeSet<u64> = (0u32..4096).map(hash_of).collect();
        assert_eq!(hashes.len(), 4096, "distinct small keys must not collide");
    }

    #[test]
    fn byte_writes_cover_partial_words() {
        assert_ne!(hash_of([1u8; 9]), hash_of([1u8; 8]));
        assert_ne!(hash_of([0u8, 1]), hash_of([1u8, 0]));
    }
}
