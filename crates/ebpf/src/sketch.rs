//! Mergeable Top-K heavy-hitter sketch — the state behind
//! [`MapKind::TopkSketch`](crate::maps::MapKind) maps.
//!
//! The fleet plane needs every report to carry a *bounded-size* summary
//! of per-entity activity instead of the full entity table (eHashPipe's
//! observation: push the heavy-hitter structure into the probe, merge it
//! in the collector tree). The sketch has two halves:
//!
//! * a **count-min matrix**: [`SKETCH_ROWS`] rows of `cols` wrapping
//!   `u64` cells. Every update adds `weight` to one cell per row
//!   (row-seeded hash of the key), so for any key the minimum over its
//!   row cells is an estimate that (a) never *under*counts and (b)
//!   overcounts by exactly the colliding mass of its best row. Cells
//!   are plain wrapping counters, which makes the matrix **exactly
//!   mergeable**: adding two matrices cell-wise is bit-identical to
//!   having sketched the concatenated stream, in any merge order or
//!   grouping — the property the hierarchical collection tree leans on.
//! * a **candidate table**: `capacity` key slots probed at
//!   [`SKETCH_STAGES`] stage positions. A new key claims an empty
//!   stage slot, and otherwise evicts the stage incumbent with the
//!   smallest estimate iff that estimate is *strictly* below the new
//!   key's — the eHashPipe eviction rule. The table bounds which keys a
//!   report can name; their counts always come from the matrix, so an
//!   evicted-then-readmitted key loses nothing.
//!
//! Userspace reuses this exact type (`kscope-core` re-exports it), so
//! the probe-side stream and a userspace replay of the same stream
//! produce bit-identical sketches — the invariant the property suite
//! pins.
//!
//! # Merge semantics
//!
//! [`SketchState::merge_all`] is the collection tree's n-ary merge. The
//! Count-Min matrices are summed cell-wise (wrapping, like the probe's
//! own updates), so the merged matrix is **bit-identical** to the matrix
//! a single sketch would have built over the concatenated stream — in
//! any order, at any fan-in. Candidate tables are *not* summed: the
//! merger unions the candidate keys of all inputs, ranks them by their
//! merged-matrix estimate (ties broken by key bytes), and keeps the top
//! `capacity`. Ranking over a set makes the result a pure function of
//! {input keys} × merged matrix, hence permutation- and
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

use crate::mapindex::mix64;
use crate::maps::MAX_KEY_SIZE;

/// Count-min rows (independent hash functions) per sketch.
pub const SKETCH_ROWS: u32 = 4;

/// Candidate-table probe stages per update (eHashPipe's pipeline depth).
pub const SKETCH_STAGES: u32 = 2;

/// Seed folded into [`row_hash`]; arbitrary but fixed ("kssketch") so
/// probe-side and userspace hashing can never drift apart.
pub const SKETCH_SEED: u64 = 0x6b73_736b_6574_6368;

/// Count-min columns per row for a sketch with `capacity` candidate
/// slots: `4 * capacity` rounded up to a power of two, at least 64.
/// Power-of-two so the row hash reduces with a mask, like the JIT's
/// hash-index probe.
pub fn sketch_cols(capacity: u32) -> u32 {
    capacity.saturating_mul(4).next_power_of_two().max(64)
}

/// Little-endian u64 read of `key[off..off+8]`, zero-padded past the end.
#[inline]
fn key_word(key: &[u8], off: usize) -> u64 {
    let mut buf = [0u8; 8];
    let end = key.len().min(off.saturating_add(8));
    if let Some(src) = key.get(off..end) {
        if let Some(dst) = buf.get_mut(..src.len()) {
            dst.copy_from_slice(src);
        }
    }
    u64::from_le_bytes(buf)
}

/// Row-seeded key hash. Rows `0..SKETCH_ROWS` index the count-min
/// matrix; rows `SKETCH_ROWS..SKETCH_ROWS + SKETCH_STAGES` index the
/// candidate-table probe stages.
#[inline]
pub fn row_hash(row: u32, key: &[u8]) -> u64 {
    let seed = SKETCH_SEED ^ ((row as u64) << 32) ^ key.len() as u64;
    let mut h = mix64(seed ^ key_word(key, 0));
    if key.len() > 8 {
        h = mix64(h ^ key_word(key, 8));
    }
    h
}

/// `key`'s bytes read as a big-endian integer (keys are at most 16
/// bytes): the form [`SketchState::candidate_words`] ranks keys in.
fn candidate_word(key: &[u8]) -> u128 {
    key.iter()
        .fold(0, |word, &byte| word << 8 | u128::from(byte))
}

/// One candidate-table slot: a key the sketch is currently able to name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct SketchSlot {
    used: bool,
    len: u8,
    key: [u8; MAX_KEY_SIZE],
}

impl SketchSlot {
    const VACANT: SketchSlot = SketchSlot {
        used: false,
        len: 0,
        key: [0; MAX_KEY_SIZE],
    };

    #[inline]
    fn occupy(key: &[u8]) -> SketchSlot {
        let mut buf = [0u8; MAX_KEY_SIZE];
        let len = key.len().min(MAX_KEY_SIZE);
        if let (Some(dst), Some(src)) = (buf.get_mut(..len), key.get(..len)) {
            dst.copy_from_slice(src);
        }
        SketchSlot {
            used: true,
            len: len as u8,
            key: buf,
        }
    }

    #[inline]
    fn key_bytes(&self) -> &[u8] {
        self.key.get(..self.len as usize).unwrap_or(&[])
    }
}

/// A mergeable Top-K heavy-hitter sketch (count-min matrix + bounded
/// candidate table). See the module docs for the structure and the
/// merge/error-bound contract.
///
/// # Examples
///
/// ```
/// use kscope_ebpf::sketch::SketchState;
///
/// let mut s = SketchState::new(8, 16);
/// for _ in 0..5 {
///     s.update(&7u64.to_le_bytes(), 1);
/// }
/// // Count-min never undercounts.
/// assert!(s.estimate(&7u64.to_le_bytes()) >= 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SketchState {
    key_size: u32,
    capacity: u32,
    cols: u32,
    /// `SKETCH_ROWS * cols` wrapping counters, row-major.
    cells: Box<[u64]>,
    slots: Box<[SketchSlot]>,
    total_weight: u64,
    update_count: u64,
}

impl SketchState {
    /// Creates an empty sketch for `key_size`-byte keys with `capacity`
    /// candidate slots.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity or a key size outside
    /// `1..=`[`MAX_KEY_SIZE`] (map creation enforces both).
    pub fn new(key_size: u32, capacity: u32) -> SketchState {
        assert!(capacity > 0, "sketch needs at least one candidate slot");
        assert!(
            key_size >= 1 && key_size as usize <= MAX_KEY_SIZE,
            "sketch keys are limited to 1..={MAX_KEY_SIZE} bytes, got {key_size}"
        );
        let cols = sketch_cols(capacity);
        SketchState {
            key_size,
            capacity,
            cols,
            cells: vec![0u64; (SKETCH_ROWS * cols) as usize].into_boxed_slice(),
            slots: vec![SketchSlot::VACANT; capacity as usize].into_boxed_slice(),
            total_weight: 0,
            update_count: 0,
        }
    }

    /// Key size (bytes) this sketch was created for.
    pub fn key_size(&self) -> u32 {
        self.key_size
    }

    /// Candidate-table capacity (the map's `max_entries`).
    pub fn capacity(&self) -> u32 {
        self.capacity
    }

    /// Count-min columns per row.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// The raw count-min cells, row-major (`SKETCH_ROWS * cols` values).
    pub fn cells(&self) -> &[u64] {
        &self.cells
    }

    /// Total weight folded into the sketch (wrapping).
    pub fn total_weight(&self) -> u64 {
        self.total_weight
    }

    /// Number of updates folded into the sketch (wrapping).
    pub fn update_count(&self) -> u64 {
        self.update_count
    }

    /// Flat cell index of `key` in `row`.
    #[inline]
    fn cell_index(&self, row: u32, key: &[u8]) -> usize {
        let col = row_hash(row, key) & (self.cols as u64 - 1);
        (row * self.cols + col as u32) as usize
    }

    /// Candidate slot probed at `stage`.
    #[inline]
    fn stage_slot(&self, stage: u32, key: &[u8]) -> usize {
        (row_hash(SKETCH_ROWS + stage, key) % self.capacity as u64) as usize
    }

    /// Count-min estimate of `key`: minimum over its row cells. Never
    /// below the key's true (weighted) count; above it by exactly the
    /// smallest per-row colliding mass.
    #[inline]
    pub fn estimate(&self, key: &[u8]) -> u64 {
        let mut est = u64::MAX;
        for row in 0..SKETCH_ROWS {
            let cell = self
                .cells
                .get(self.cell_index(row, key))
                .copied()
                .unwrap_or(0);
            est = est.min(cell);
        }
        est
    }

    /// Folds `weight` for `key` into the sketch: count-min cells first,
    /// then the candidate table (claim an empty stage slot, or evict the
    /// smallest-estimate stage incumbent iff strictly below this key's
    /// fresh estimate). Zero-allocation; this is the probe hot path
    /// behind `bpf_sketch_update`.
    pub fn update(&mut self, key: &[u8], weight: u64) {
        debug_assert_eq!(key.len(), self.key_size as usize);
        let mut est = u64::MAX;
        for row in 0..SKETCH_ROWS {
            let idx = self.cell_index(row, key);
            if let Some(cell) = self.cells.get_mut(idx) {
                *cell = cell.wrapping_add(weight);
                est = est.min(*cell);
            }
        }
        self.total_weight = self.total_weight.wrapping_add(weight);
        self.update_count = self.update_count.wrapping_add(1);

        let mut evict: Option<usize> = None;
        let mut evict_est = u64::MAX;
        for stage in 0..SKETCH_STAGES {
            let slot = self.stage_slot(stage, key);
            let (used, incumbent) = match self.slots.get(slot) {
                Some(s) => (s.used, *s),
                None => return,
            };
            if !used {
                if let Some(s) = self.slots.get_mut(slot) {
                    *s = SketchSlot::occupy(key);
                }
                return;
            }
            if incumbent.key_bytes() == key {
                return;
            }
            let inc_est = self.estimate(incumbent.key_bytes());
            if inc_est < evict_est {
                evict_est = inc_est;
                evict = Some(slot);
            }
        }
        if let Some(slot) = evict {
            if evict_est < est {
                if let Some(s) = self.slots.get_mut(slot) {
                    *s = SketchSlot::occupy(key);
                }
            }
        }
    }

    /// The keys the candidate table currently names, in slot order.
    pub fn candidate_keys(&self) -> impl Iterator<Item = &[u8]> {
        self.slots.iter().filter(|s| s.used).map(|s| s.key_bytes())
    }

    /// Number of occupied candidate slots.
    pub fn candidate_len(&self) -> u32 {
        self.slots.iter().filter(|s| s.used).count() as u32
    }

    /// Adds `other`'s count-min cells, total weight, and update count
    /// into `self`, cell-wise and wrapping — bit-identical to having
    /// sketched the concatenated stream, in any order or grouping.
    /// Candidate tables are *not* merged here; [`SketchState::merge_all`]
    /// unions the key sets and ranks them (the slot-probe layout is a
    /// probe-side artifact, not part of the merged value).
    ///
    /// # Panics
    ///
    /// Panics when the two sketches have different geometry (key size,
    /// capacity, or column count) — merging those is a logic error, the
    /// same contract as `ScaledAcc::merge` in `kscope-core`.
    fn merge_counts_from(&mut self, other: &SketchState) {
        assert_eq!(self.key_size, other.key_size, "sketch key sizes differ");
        assert_eq!(self.capacity, other.capacity, "sketch capacities differ");
        assert_eq!(self.cols, other.cols, "sketch column counts differ");
        for (dst, src) in self.cells.iter_mut().zip(other.cells.iter()) {
            *dst = dst.wrapping_add(*src);
        }
        self.total_weight = self.total_weight.wrapping_add(other.total_weight);
        self.update_count = self.update_count.wrapping_add(other.update_count);
    }

    /// Replaces the candidate table with `words` (keys as
    /// [`SketchState::candidate_words`] gives them), each turned back
    /// into `key_size` bytes and placed sequentially from slot 0; words
    /// beyond `capacity` are ignored.
    fn set_candidates(&mut self, words: &[u128]) {
        let skip = 16 - self.key_size as usize;
        let mut words = words.iter();
        for slot in self.slots.iter_mut() {
            *slot = match words.next() {
                Some(word) => SketchSlot::occupy(&word.to_be_bytes()[skip..]),
                None => SketchSlot::VACANT,
            };
        }
    }

    /// The top `k` candidates as `(key, estimate)`, heaviest first,
    /// ties broken by ascending key bytes (so the ordering — like the
    /// merge — is a pure function of the sketch's contents).
    pub fn top_k(&self, k: usize) -> Vec<(Vec<u8>, u64)> {
        let mut ranked: Vec<(Vec<u8>, u64)> = self
            .candidate_keys()
            .map(|key| (key.to_vec(), self.estimate(key))) // cold path: rollup readout
            .collect(); // cold path: rollup readout
        ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        ranked.truncate(k);
        ranked
    }

    /// The candidate keys as integers: each key's bytes read big-endian.
    /// A sketch's keys all share one `key_size`, so integer order is
    /// key-byte order, and ranking or deduplicating integers is cheaper
    /// than comparing byte slices.
    pub fn candidate_words(&self) -> impl Iterator<Item = u128> + '_ {
        self.candidate_keys().map(candidate_word)
    }

    /// Replaces the candidate table: deduplicates `words` (keys as
    /// [`SketchState::candidate_words`] gives them), ranks them by
    /// *this* sketch's matrix estimate (desc, ties by key bytes asc),
    /// and keeps the top `capacity`.
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
        let kept = self.select_keys(words, self.capacity as usize);
        self.set_candidates(&kept);
    }

    /// The first `limit` of `words`, deduplicated and ranked by this
    /// sketch's matrix estimate (desc), then key (asc) — the order
    /// [`SketchState::reselect_candidates`] keeps candidates in.
    /// Deduplicating a sorted union makes the result independent of the
    /// order keys arrive in, and each key's estimate is computed once,
    /// not per comparison.
    pub fn select_keys<I>(&self, words: I, limit: usize) -> Vec<u128>
    where
        I: IntoIterator<Item = u128>,
    {
        let skip = 16 - self.key_size as usize;
        let mut union: Vec<u128> = words.into_iter().collect(); // cold path: merge only
        union.sort_unstable();
        union.dedup();
        let mut ranked: Vec<(u64, u128)> = union
            .into_iter()
            .map(|word| (self.estimate(&word.to_be_bytes()[skip..]), word))
            .collect(); // cold path: merge only
        ranked.sort_unstable_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        ranked.truncate(limit);
        ranked.into_iter().map(|(_, word)| word).collect() // cold path: merge only
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
    pub fn merge_all<'a, I>(sketches: I) -> Option<SketchState>
    where
        I: IntoIterator<Item = &'a SketchState>,
    {
        let mut iter = sketches.into_iter();
        let first = iter.next()?;
        let mut merged = SketchState::new(first.key_size, first.capacity); // cold path: merge only
        merged.merge_counts_from(first);
        let mut union: Vec<u128> = first.candidate_words().collect(); // cold path: merge only
        for sketch in iter {
            merged.merge_counts_from(sketch);
            union.extend(sketch.candidate_words());
        }
        // The union's top `capacity` under the merged matrix becomes the
        // merged candidate table.
        let kept = merged.select_keys(union, merged.capacity as usize);
        merged.set_candidates(&kept);
        Some(merged)
    }

    /// Serialized size (bytes) of this sketch on a report edge: a fixed
    /// geometry header, the count-min matrix, and the candidate table.
    /// Depends only on the sketch geometry — O(K), independent of how
    /// many distinct entities the stream contained.
    pub fn wire_bytes(&self) -> usize {
        16 + self.cells.len() * 8 + self.capacity as usize * (1 + self.key_size as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> [u8; 8] {
        i.to_le_bytes()
    }

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

    fn sketch_of(stream: &[u64], capacity: u32) -> SketchState {
        let mut s = SketchState::new(8, capacity);
        for &k in stream {
            s.update(&key(k), 1);
        }
        s
    }

    #[test]
    fn estimate_never_undercounts() {
        let mut s = SketchState::new(8, 8);
        // 64 distinct keys through an 8-slot table: plenty of collisions.
        for i in 0..64u64 {
            for _ in 0..=(i % 7) {
                s.update(&key(i), 1);
            }
        }
        for i in 0..64u64 {
            assert!(s.estimate(&key(i)) > (i % 7), "key {i} undercounted");
        }
    }

    #[test]
    fn overestimate_is_exactly_the_best_row_collision_mass() {
        let mut s = SketchState::new(8, 8);
        let mut truth = std::collections::HashMap::new();
        for i in 0..40u64 {
            let w = 1 + i % 5;
            s.update(&key(i), w);
            *truth.entry(i).or_insert(0u64) += w;
        }
        for (&i, &t) in &truth {
            // Per-row colliding mass, computed from the ground truth.
            let mut best = u64::MAX;
            for row in 0..SKETCH_ROWS {
                let col = row_hash(row, &key(i)) & (s.cols() as u64 - 1);
                let coll: u64 = truth
                    .iter()
                    .filter(|(&j, _)| {
                        j != i && row_hash(row, &key(j)) & (s.cols() as u64 - 1) == col
                    })
                    .map(|(_, &w)| w)
                    .sum();
                best = best.min(coll);
            }
            assert_eq!(s.estimate(&key(i)), t + best, "key {i}");
        }
    }

    #[test]
    fn merge_counts_equals_concatenated_stream() {
        let mut concat = SketchState::new(8, 16);
        let mut a = SketchState::new(8, 16);
        let mut b = SketchState::new(8, 16);
        for i in 0..200u64 {
            let k = key(i % 23);
            let w = 1 + i % 3;
            concat.update(&k, w);
            if i % 2 == 0 {
                a.update(&k, w);
            } else {
                b.update(&k, w);
            }
        }
        let mut ab = a.clone();
        ab.merge_counts_from(&b);
        let mut ba = b.clone();
        ba.merge_counts_from(&a);
        assert_eq!(ab.cells(), concat.cells());
        assert_eq!(ba.cells(), concat.cells());
        assert_eq!(ab.total_weight(), concat.total_weight());
        assert_eq!(ab.update_count(), concat.update_count());
    }

    #[test]
    fn heavy_key_survives_the_candidate_table() {
        let mut s = SketchState::new(8, 4);
        // A hot key with 10x the weight of 32 cold keys.
        for round in 0..100u64 {
            s.update(&key(1000), 10);
            s.update(&key(round % 32), 1);
        }
        assert!(
            s.candidate_keys().any(|k| k == key(1000)),
            "hot key evicted from the candidate table"
        );
        assert!(s.candidate_len() <= 4);
    }

    #[test]
    fn eviction_requires_strictly_larger_estimate() {
        let mut s = SketchState::new(8, 1);
        s.update(&key(1), 5);
        // Equal estimate must not evict the incumbent.
        s.update(&key(2), 5);
        let survivors: Vec<&[u8]> = s.candidate_keys().collect();
        assert_eq!(survivors, vec![&key(1)[..]]);
        // A strictly larger one must.
        s.update(&key(3), 100);
        let survivors: Vec<&[u8]> = s.candidate_keys().collect();
        assert_eq!(survivors, vec![&key(3)[..]]);
    }

    #[test]
    fn set_candidates_replaces_and_truncates() {
        let mut s = SketchState::new(8, 2);
        s.update(&key(9), 1);
        let picks = [key(1), key(2), key(3)].map(|k| candidate_word(&k));
        s.set_candidates(&picks);
        let got: Vec<&[u8]> = s.candidate_keys().collect();
        assert_eq!(got, vec![&key(1)[..], &key(2)[..]]);
    }

    #[test]
    fn wire_bytes_independent_of_stream_cardinality() {
        let mut small = SketchState::new(8, 16);
        let mut large = SketchState::new(8, 16);
        small.update(&key(1), 1);
        for i in 0..10_000u64 {
            large.update(&key(i), 1);
        }
        assert_eq!(small.wire_bytes(), large.wire_bytes());
    }

    #[test]
    #[should_panic(expected = "capacities differ")]
    fn merge_rejects_geometry_mismatch() {
        let mut a = SketchState::new(8, 8);
        let b = SketchState::new(8, 16);
        a.merge_counts_from(&b);
    }

    #[test]
    fn merged_matrix_is_bit_identical_to_concat_stream() {
        let stream = skewed_stream(&[90, 40, 40, 9, 9, 3, 1, 1, 1, 1]);
        let whole = sketch_of(&stream, 8);
        // Shard the stream three ways and merge.
        let shards: Vec<SketchState> = stream
            .chunks(stream.len() / 3 + 1)
            .map(|c| sketch_of(c, 8))
            .collect();
        let merged = SketchState::merge_all(&shards).expect("non-empty");
        assert_eq!(merged.cells(), whole.cells());
        assert_eq!(merged.total_weight(), whole.total_weight());
        // And every key estimates identically.
        for k in 0..10u64 {
            assert_eq!(merged.estimate(&key(k)), whole.estimate(&key(k)));
        }
    }

    #[test]
    fn merge_is_invariant_under_permutation_and_grouping() {
        let stream = skewed_stream(&[50, 25, 12, 6, 3, 1]);
        let shards: Vec<SketchState> = stream
            .chunks(stream.len() / 4 + 1)
            .map(|c| sketch_of(c, 4))
            .collect();

        let flat = SketchState::merge_all(&shards).expect("non-empty");

        // Reversed order.
        let reversed: Vec<&SketchState> = shards.iter().rev().collect();
        assert_eq!(SketchState::merge_all(reversed).expect("non-empty"), flat);

        // Nested grouping: merge pairs, then merge the pair-merges.
        let left = SketchState::merge_all(&shards[..2]).expect("non-empty");
        let right = SketchState::merge_all(&shards[2..]).expect("non-empty");
        let nested = SketchState::merge_all([&left, &right]).expect("non-empty");
        assert_eq!(nested, flat);
    }

    #[test]
    fn top_k_names_the_true_heavy_hitters_on_skewed_input() {
        // Zipf-ish weights with a clear top 4.
        let weights = [400u64, 200, 100, 50, 4, 3, 2, 1];
        let stream = skewed_stream(&weights);
        let shards: Vec<SketchState> = stream
            .chunks(stream.len() / 5 + 1)
            .map(|c| sketch_of(c, 8))
            .collect();
        let merged = SketchState::merge_all(&shards).expect("non-empty");
        let top: Vec<(u64, u64)> = merged
            .top_k(4)
            .into_iter()
            .map(|(k, est)| (u64::from_le_bytes(k.try_into().expect("8-byte key")), est))
            .collect();
        let keys: Vec<u64> = top.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![0, 1, 2, 3], "exact top-4 of the true stream");
        // Estimates never undercount the true weights.
        for (k, est) in top {
            assert!(est >= weights[k as usize]);
        }
    }

    #[test]
    fn merge_all_of_nothing_is_none_and_one_is_identity() {
        assert!(SketchState::merge_all([]).is_none());
        let s = sketch_of(&[1, 2, 2, 3], 4);
        let merged = SketchState::merge_all([&s]).expect("non-empty");
        // Same matrix and same candidate set (re-ranked, same keys).
        assert_eq!(merged.cells(), s.cells());
        let mut a: Vec<Vec<u8>> = merged.candidate_keys().map(<[u8]>::to_vec).collect();
        let mut b: Vec<Vec<u8>> = s.candidate_keys().map(<[u8]>::to_vec).collect();
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
        let flat = SketchState::merge_all([&a, &b, &c]).expect("non-empty");
        let ab = SketchState::merge_all([&a, &b]).expect("non-empty");
        let nested = SketchState::merge_all([&ab, &c]).expect("non-empty");
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
        assert_eq!(flat2.cells(), flat.cells(), "matrix untouched");
    }

    #[test]
    #[should_panic(expected = "capacities differ")]
    fn merge_rejects_mismatched_geometry() {
        let a = SketchState::new(8, 4);
        let b = SketchState::new(8, 8);
        let _ = SketchState::merge_all([&a, &b]);
    }
}
