//! Mergeable Top-K heavy-hitter sketches for hierarchical collection.
//!
//! The probe side ([`kscope_ebpf::SketchState`], updated in-kernel by
//! `bpf_sketch_update`) produces a bounded summary of the per-entity
//! request stream: a Count-Min matrix plus a small candidate table.
//! This module adds the userspace half the fleet's collection tree
//! needs: [`TopKSketch`], a thin wrapper with an n-ary **merge** whose
//! result is independent of merge order and grouping.
//!
//! # Merge semantics
//!
//! The Count-Min matrices are summed cell-wise (wrapping, like the
//! probe's own updates), so the merged matrix is **bit-identical** to
//! the matrix a single sketch would have built over the concatenated
//! stream — in any order, at any fan-in. Candidate tables are *not*
//! summed: the merger unions the candidate keys of all inputs, ranks
//! them by their merged-matrix estimate (ties broken by key bytes), and
//! keeps the top `capacity`. Ranking over a set makes the result a pure
//! function of {input keys} × merged matrix, hence permutation- and
//! associativity-invariant, which is what lets a collection tree roll
//! sketches up shard-by-shard and still produce byte-identical root
//! reports at any `--jobs` and any fan-in.
//!
//! # Error bound
//!
//! A Count-Min estimate never undercounts, and overcounts by exactly
//! the lightest row's collision mass. Merging only sums matrices, so
//! the merged estimate obeys the same bound with respect to the
//! concatenated stream: `true ≤ est ≤ true + min_row(collisions)`.
//! The property suite in `kscope-testkit` pins both halves.

use kscope_ebpf::SketchState;

/// A mergeable Top-K heavy-hitter sketch (userspace side).
///
/// Wraps the probe-shared [`SketchState`] — the *same type* the eBPF
/// runtime updates in-kernel, so a userspace replay of a probe's stream
/// is bit-identical to the probe's own sketch — and adds the order- and
/// grouping-invariant merge the fleet's collection tree is built on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopKSketch {
    state: SketchState,
}

impl TopKSketch {
    /// An empty sketch for `key_size`-byte keys holding up to
    /// `capacity` candidates.
    ///
    /// # Panics
    ///
    /// Panics if `capacity == 0` or `key_size` is outside `1..=16`,
    /// as for [`SketchState::new`].
    pub fn new(key_size: u32, capacity: u32) -> TopKSketch {
        TopKSketch {
            state: SketchState::new(key_size, capacity),
        }
    }

    /// Wraps a probe-produced sketch state (e.g. from
    /// `BytecodeBackend::entity_sketch`).
    pub fn from_state(state: SketchState) -> TopKSketch {
        TopKSketch { state }
    }

    /// The underlying probe-shared state.
    pub fn state(&self) -> &SketchState {
        &self.state
    }

    /// Folds one observation of `key` with the given weight — the
    /// userspace mirror of the probe's `bpf_sketch_update`.
    pub fn record(&mut self, key: &[u8], weight: u64) {
        self.state.update(key, weight);
    }

    /// The Count-Min estimate for `key`: never below the true count,
    /// above it by at most the lightest row's collision mass.
    pub fn estimate(&self, key: &[u8]) -> u64 {
        self.state.estimate(key)
    }

    /// Total weight folded in (wrapping), across all merged inputs.
    pub fn total_weight(&self) -> u64 {
        self.state.total_weight()
    }

    /// Serialized size in bytes: `O(K)`, independent of how many
    /// distinct entities the stream contained.
    pub fn wire_bytes(&self) -> usize {
        self.state.wire_bytes()
    }

    /// The top `k` candidates as `(key, estimate)`, heaviest first,
    /// ties broken by ascending key bytes (so the ordering — like the
    /// merge — is a pure function of the sketch's contents).
    pub fn top_k(&self, k: usize) -> Vec<(Vec<u8>, u64)> {
        let mut ranked: Vec<(Vec<u8>, u64)> = self
            .state
            .candidate_keys()
            .map(|key| {
                let est = self.state.estimate(key);
                (key.to_vec(), est)
            })
            .collect();
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// [`TopKSketch::top_k`] for the common 8-byte little-endian keys
    /// (`pid_tgid` entities), decoded to `u64`.
    ///
    /// # Panics
    ///
    /// Panics if the sketch's `key_size` is not 8.
    pub fn top_k_u64(&self, k: usize) -> Vec<(u64, u64)> {
        assert_eq!(self.state.key_size(), 8, "u64 decode needs 8-byte keys");
        self.top_k(k)
            .into_iter()
            .map(|(key, est)| {
                let mut bytes = [0u8; 8];
                bytes.copy_from_slice(&key);
                (u64::from_le_bytes(bytes), est)
            })
            .collect()
    }

    /// The candidate keys as integers: each key's bytes read big-endian.
    /// A sketch's keys all share one `key_size`, so integer order is
    /// key-byte order, and ranking or deduplicating integers is cheaper
    /// than comparing byte slices.
    pub fn candidate_words(&self) -> impl Iterator<Item = u128> + '_ {
        self.state.candidate_keys().map(key_word)
    }

    /// Replaces the candidate table: deduplicates `words` (keys as
    /// [`TopKSketch::candidate_words`] gives them), ranks them by *this*
    /// sketch's matrix estimate (desc, ties by key bytes asc), and keeps
    /// the top `capacity`.
    ///
    /// This is the collection tree's second round. Pass 1 merges
    /// matrices up the tree exactly, but candidate truncation at inner
    /// nodes uses subtree-local estimates, so which keys survive can
    /// depend on the fan-in. Re-selecting at the root under the global
    /// (root-matrix) order erases that: hierarchical top-`capacity`
    /// selection under one total order equals the flat selection over
    /// the union of every leaf's keys, so the result is identical at
    /// any fan-in and any worker count.
    pub fn reselect_candidates<I>(&mut self, words: I)
    where
        I: IntoIterator<Item = u128>,
    {
        let kept = self.select_keys(words, self.state.capacity() as usize);
        set_candidate_words(&mut self.state, &kept);
    }

    /// The first `limit` of `words`, deduplicated and ranked by this
    /// sketch's matrix estimate (desc, ties by key bytes asc) — the
    /// order [`TopKSketch::reselect_candidates`] keeps candidates in.
    pub fn select_keys<I>(&self, words: I, limit: usize) -> Vec<u128>
    where
        I: IntoIterator<Item = u128>,
    {
        select_keys(&self.state, words, limit)
    }

    /// Merges any number of sketches into one, as if every input stream
    /// had been folded into a single sketch (matrix-wise exactly so).
    ///
    /// The result is invariant under permutation *and* grouping of the
    /// inputs: `merge_all([a, b, c])` equals
    /// `merge_all([merge_all([c, a]), b])` bit for bit. Returns `None`
    /// for an empty input.
    ///
    /// # Panics
    ///
    /// Panics if the inputs disagree on key size, capacity, or matrix
    /// geometry — merging sketches from differently-configured probes
    /// is a deployment bug, not a recoverable condition.
    pub fn merge_all<'a, I>(sketches: I) -> Option<TopKSketch>
    where
        I: IntoIterator<Item = &'a TopKSketch>,
    {
        let mut iter = sketches.into_iter();
        let first = iter.next()?;
        let mut merged = SketchState::new(first.state.key_size(), first.state.capacity());
        merged.merge_counts_from(&first.state);
        let mut union: Vec<u128> = first.candidate_words().collect();
        for sketch in iter {
            merged.merge_counts_from(&sketch.state);
            union.extend(sketch.candidate_words());
        }
        // The union's top `capacity` under the merged matrix becomes the
        // merged candidate table.
        let kept = select_keys(&merged, union, merged.capacity() as usize);
        set_candidate_words(&mut merged, &kept);
        Some(TopKSketch { state: merged })
    }
}

/// `key`'s bytes read as a big-endian integer (keys are at most 16
/// bytes).
fn key_word(key: &[u8]) -> u128 {
    key.iter()
        .fold(0, |word, &byte| word << 8 | u128::from(byte))
}

/// Replaces `state`'s candidate table with `words`, each turned back
/// into `key_size` bytes.
fn set_candidate_words(state: &mut SketchState, words: &[u128]) {
    let skip = 16 - state.key_size() as usize;
    let bytes: Vec<[u8; 16]> = words.iter().map(|w| w.to_be_bytes()).collect();
    state.set_candidates(bytes.iter().map(|b| &b[skip..]));
}

/// The first `limit` of `words`, deduplicated and ranked by `state`'s
/// matrix estimate (desc), then key (asc). Deduplicating a sorted union
/// makes the result independent of the order keys arrive in, and each
/// key's estimate is computed once, not per comparison.
fn select_keys<I>(state: &SketchState, words: I, limit: usize) -> Vec<u128>
where
    I: IntoIterator<Item = u128>,
{
    let skip = 16 - state.key_size() as usize;
    let mut union: Vec<u128> = words.into_iter().collect();
    union.sort_unstable();
    union.dedup();
    let mut ranked: Vec<(u64, u128)> = union
        .into_iter()
        .map(|word| (state.estimate(&word.to_be_bytes()[skip..]), word))
        .collect();
    ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    ranked.truncate(limit);
    ranked.into_iter().map(|(_, word)| word).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A deterministic skewed stream: key `i` appears `weights[i]`
    /// times, interleaved round-robin so no key arrives in one burst.
    fn skewed_stream(weights: &[u64]) -> Vec<u64> {
        let mut stream = Vec::new();
        let max = weights.iter().copied().max().unwrap_or(0);
        for round in 0..max {
            for (i, &w) in weights.iter().enumerate() {
                if round < w {
                    stream.push(i as u64);
                }
            }
        }
        stream
    }

    fn sketch_of(stream: &[u64], capacity: u32) -> TopKSketch {
        let mut s = TopKSketch::new(8, capacity);
        for &key in stream {
            s.record(&key.to_le_bytes(), 1);
        }
        s
    }

    #[test]
    fn merged_matrix_is_bit_identical_to_concat_stream() {
        let stream = skewed_stream(&[90, 40, 40, 9, 9, 3, 1, 1, 1, 1]);
        let whole = sketch_of(&stream, 8);
        // Shard the stream three ways and merge.
        let shards: Vec<TopKSketch> = stream
            .chunks(stream.len() / 3 + 1)
            .map(|c| sketch_of(c, 8))
            .collect();
        let merged = TopKSketch::merge_all(&shards).expect("non-empty");
        assert_eq!(merged.state().cells(), whole.state().cells());
        assert_eq!(merged.total_weight(), whole.total_weight());
        // And every key estimates identically.
        for key in 0..10u64 {
            let key = key.to_le_bytes();
            assert_eq!(merged.estimate(&key), whole.estimate(&key));
        }
    }

    #[test]
    fn merge_is_invariant_under_permutation_and_grouping() {
        let stream = skewed_stream(&[50, 25, 12, 6, 3, 1]);
        let shards: Vec<TopKSketch> = stream
            .chunks(stream.len() / 4 + 1)
            .map(|c| sketch_of(c, 4))
            .collect();

        let flat = TopKSketch::merge_all(&shards).expect("non-empty");

        // Reversed order.
        let reversed: Vec<&TopKSketch> = shards.iter().rev().collect();
        assert_eq!(TopKSketch::merge_all(reversed).expect("non-empty"), flat);

        // Nested grouping: merge pairs, then merge the pair-merges.
        let left = TopKSketch::merge_all(&shards[..2]).expect("non-empty");
        let right = TopKSketch::merge_all(&shards[2..]).expect("non-empty");
        let nested = TopKSketch::merge_all([&left, &right]).expect("non-empty");
        assert_eq!(nested, flat);
    }

    #[test]
    fn top_k_names_the_true_heavy_hitters_on_skewed_input() {
        // Zipf-ish weights with a clear top 4.
        let weights = [400u64, 200, 100, 50, 4, 3, 2, 1];
        let stream = skewed_stream(&weights);
        let shards: Vec<TopKSketch> = stream
            .chunks(stream.len() / 5 + 1)
            .map(|c| sketch_of(c, 8))
            .collect();
        let merged = TopKSketch::merge_all(&shards).expect("non-empty");
        let top: Vec<u64> = merged.top_k_u64(4).into_iter().map(|(k, _)| k).collect();
        assert_eq!(top, vec![0, 1, 2, 3], "exact top-4 of the true stream");
        // Estimates never undercount the true weights.
        for (key, est) in merged.top_k_u64(4) {
            assert!(est >= weights[key as usize]);
        }
    }

    #[test]
    fn merge_all_of_nothing_is_none_and_one_is_identity() {
        assert!(TopKSketch::merge_all([]).is_none());
        let s = sketch_of(&[1, 2, 2, 3], 4);
        let merged = TopKSketch::merge_all([&s]).expect("non-empty");
        // Same matrix and same candidate set (re-ranked, same keys).
        assert_eq!(merged.state().cells(), s.state().cells());
        let mut a: Vec<Vec<u8>> = merged
            .state()
            .candidate_keys()
            .map(<[u8]>::to_vec)
            .collect();
        let mut b: Vec<Vec<u8>> = s.state().candidate_keys().map(<[u8]>::to_vec).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn reselect_is_grouping_invariant_where_plain_merge_is_not() {
        // Two shards whose local heavy hitters differ: key 0 is heavy in
        // shard A only, key 9 in shard B only, with enough tied middling
        // keys that a capacity-2 candidate table must drop some.
        let a = sketch_of(&skewed_stream(&[30, 10, 10, 10]), 2);
        let b = sketch_of(&[9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9, 9], 2);
        let c = sketch_of(&skewed_stream(&[0, 10, 10, 10]), 2);
        let flat = TopKSketch::merge_all([&a, &b, &c]).expect("non-empty");
        let ab = TopKSketch::merge_all([&a, &b]).expect("non-empty");
        let nested = TopKSketch::merge_all([&ab, &c]).expect("non-empty");
        // Re-selecting both roots over the same key union under their
        // (identical) matrices converges them bit-for-bit.
        let union: Vec<u128> = [&a, &b, &c]
            .iter()
            .flat_map(|s| s.candidate_words())
            .collect();
        let mut flat2 = flat.clone();
        let mut nested2 = nested.clone();
        flat2.reselect_candidates(union.iter().copied());
        nested2.reselect_candidates(union.iter().copied());
        assert_eq!(flat2, nested2);
        assert_eq!(
            flat2.state().cells(),
            flat.state().cells(),
            "matrix untouched"
        );
    }

    #[test]
    #[should_panic(expected = "capacities differ")]
    fn merge_rejects_mismatched_geometry() {
        let a = TopKSketch::new(8, 4);
        let b = TopKSketch::new(8, 8);
        let _ = TopKSketch::merge_all([&a, &b]);
    }
}
