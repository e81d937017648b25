//! JIT-visible runtime layouts backing the inline map-lookup fast path.
//!
//! The template JIT (DESIGN §6f) wants to answer `bpf_map_lookup_elem`
//! without round-tripping through the sysv64 trampoline. That requires
//! three things to have a stable, `#[repr(C)]` layout the emitter can
//! hard-code offsets against:
//!
//! * [`SlotEntry`] — one resolved lookup (fd + key bytes). The VM's slot
//!   list is a `Vec<SlotEntry>`; JIT code appends to it in place when a
//!   fast-path lookup hits and falls back to the trampoline when the
//!   vector is full.
//! * [`ArrayArena`] — the contiguous value storage of an array map. One
//!   allocation sized `value_size * max_entries` at map creation, never
//!   reallocated, so a base pointer captured before program entry stays
//!   valid across every in-place update the program performs (the same
//!   pointer-stability argument DESIGN §6d makes for the recycling pool).
//! * [`HashIndex`] — a fixed-size open-addressed side table mirroring a
//!   hash map's key set. JIT code probes exactly one slot (the home
//!   slot); anything but a definitive hit or a definitive miss falls
//!   back to the trampoline.
//! * [`MapRuntimeDesc`] — one 32-byte descriptor per map fd, built by
//!   the registry when the map is created, telling the emitted guards what
//!   shape the fd actually has *at run time*. Compiled programs bake in
//!   no pointers and no shapes: a program compiled once runs correctly
//!   against any registry because every assumption is re-checked against
//!   this table.
//!
//! ## Single-probe soundness
//!
//! The JIT reads only the home slot `index_hash(key) & mask`. For that to
//! be sound the table maintains one invariant: **a key never rests beyond
//! an `EMPTY` slot on its probe path**. [`HashIndex::insert`] walks the
//! probe chain remembering the first tombstone; if it reaches an empty
//! slot the key is placed at that first tombstone (or the empty slot
//! itself), both of which precede any empty slot on the chain. Deletion
//! writes a tombstone, never an empty, so the invariant survives
//! arbitrary insert/delete interleavings; a full [`HashIndex::rebuild`]
//! re-places every key from scratch with zero tombstones. Consequently:
//!
//! * home slot `EMPTY`            → key definitively absent (miss);
//! * home slot occupied, key `==` → key definitively present (hit);
//! * anything else (tombstone, other key) → fall back to the trampoline.

/// Maximum key bytes stored inline; mirrors `maps::MAX_KEY_SIZE`.
pub const INDEX_KEY_MAX: usize = 16;

/// `state` value of an [`IndexEntry`] that was never written.
pub const INDEX_EMPTY: u32 = 0;
/// `state` value of a live [`IndexEntry`].
pub const INDEX_OCCUPIED: u32 = 1;
/// `state` value of a deleted [`IndexEntry`].
pub const INDEX_TOMBSTONE: u32 = 2;

/// `kind` of a [`MapRuntimeDesc`] with no inline fast path (ring buffers).
pub const DESC_KIND_NONE: u32 = 0;
/// `kind` of an array-map [`MapRuntimeDesc`]; `base` is the value arena.
pub const DESC_KIND_ARRAY: u32 = 1;
/// `kind` of a hash-map [`MapRuntimeDesc`]; `base`/`aux` are the index
/// table base pointer and its power-of-two mask.
pub const DESC_KIND_HASH: u32 = 2;

/// Seed folded into [`index_hash`]; arbitrary but fixed so the JIT can
/// bake `INDEX_SEED ^ key_len` into emitted code as one constant.
pub const INDEX_SEED: u64 = 0x6b73_6d61_7069_6478; // "ksmapidx"

/// First multiplier of the [`mix64`] finalizer (also emitted by the JIT).
pub const MIX64_MUL1: u64 = 0xbf58_476d_1ce4_e5b9;
/// Second multiplier of the [`mix64`] finalizer (also emitted by the JIT).
pub const MIX64_MUL2: u64 = 0x94d0_49bb_1331_11eb;

/// splitmix64 finalizer; the JIT emits this exact instruction sequence,
/// so changing it requires changing `jit.rs` in lockstep (the
/// hash-collision differential tests catch drift).
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(MIX64_MUL1);
    x ^= x >> 27;
    x = x.wrapping_mul(MIX64_MUL2);
    x ^= x >> 31;
    x
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

/// Home-slot hash of a key. For 8-byte keys this reduces to
/// `mix64((INDEX_SEED ^ 8) ^ w0)`, which is what the JIT emits inline.
#[inline]
pub fn index_hash(key: &[u8]) -> u64 {
    let mut h = mix64(INDEX_SEED ^ (key.len() as u64) ^ key_word(key, 0));
    if key.len() > 8 {
        h = mix64(h ^ key_word(key, 8));
    }
    h
}

/// One resolved map lookup: which fd it hit and the exact key bytes.
///
/// Layout is load-bearing: JIT code writes entries at
/// `slots_base + slot * 24` with hard-coded field offsets (fd `+0`,
/// key_len `+4`, key `+8`).
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotEntry {
    /// Raw map fd (`MapFd.0`).
    pub fd: u32,
    /// Live prefix length of `key`.
    pub key_len: u32,
    /// Key bytes, zero-padded to [`INDEX_KEY_MAX`].
    pub key: [u8; INDEX_KEY_MAX],
}

impl SlotEntry {
    /// Builds an entry from raw key bytes; `key` must be at most
    /// [`INDEX_KEY_MAX`] long (map creation enforces this).
    pub fn new(fd: u32, key: &[u8]) -> Self {
        let mut buf = [0u8; INDEX_KEY_MAX];
        let len = key.len().min(INDEX_KEY_MAX);
        if let (Some(dst), Some(src)) = (buf.get_mut(..len), key.get(..len)) {
            dst.copy_from_slice(src);
        }
        SlotEntry {
            fd,
            key_len: len as u32,
            key: buf,
        }
    }

    /// The live key bytes.
    pub fn key_bytes(&self) -> &[u8] {
        self.key.get(..self.key_len as usize).unwrap_or(&[])
    }
}

/// Contiguous value storage for an array map: entry `i` lives at byte
/// offset `i * value_size`. Allocated once at map creation and never
/// resized, so `base_ptr` is stable for the registry's lifetime.
#[derive(Clone, Debug)]
pub struct ArrayArena {
    value_size: usize,
    max_entries: usize,
    data: Box<[u8]>,
}

impl ArrayArena {
    /// Allocates a zeroed arena. Callers bound `value_size * max_entries`
    /// (map creation caps values at 1 MiB).
    pub fn new(value_size: usize, max_entries: usize) -> Self {
        ArrayArena {
            value_size,
            max_entries,
            data: vec![0u8; value_size * max_entries].into_boxed_slice(),
        }
    }

    /// Number of entries (always `max_entries`; array maps are dense).
    pub fn len(&self) -> usize {
        self.max_entries
    }

    /// True only for zero-entry arenas (map creation rejects those).
    pub fn is_empty(&self) -> bool {
        self.max_entries == 0
    }

    /// Value bytes of entry `idx`, or `None` past the end.
    pub fn get(&self, idx: usize) -> Option<&[u8]> {
        if idx >= self.max_entries {
            return None;
        }
        self.data.get(idx * self.value_size..(idx + 1) * self.value_size)
    }

    /// Mutable value bytes of entry `idx`, or `None` past the end.
    pub fn get_mut(&mut self, idx: usize) -> Option<&mut [u8]> {
        if idx >= self.max_entries {
            return None;
        }
        self.data
            .get_mut(idx * self.value_size..(idx + 1) * self.value_size)
    }

    /// Stable base pointer of the arena (valid until the registry drops).
    pub fn base_ptr(&self) -> *const u8 {
        self.data.as_ptr()
    }
}

/// One slot of a [`HashIndex`]. Layout is load-bearing for the JIT
/// (key `+0`, key_len `+16`, state `+20`; stride 24).
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndexEntry {
    /// Key bytes, zero-padded.
    pub key: [u8; INDEX_KEY_MAX],
    /// Live prefix length of `key`.
    pub key_len: u32,
    /// [`INDEX_EMPTY`], [`INDEX_OCCUPIED`], or [`INDEX_TOMBSTONE`].
    pub state: u32,
}

impl IndexEntry {
    const VACANT: IndexEntry = IndexEntry {
        key: [0; INDEX_KEY_MAX],
        key_len: 0,
        state: INDEX_EMPTY,
    };

    fn matches(&self, key: &[u8]) -> bool {
        self.state == INDEX_OCCUPIED && self.key_bytes() == key
    }

    fn key_bytes(&self) -> &[u8] {
        self.key.get(..self.key_len as usize).unwrap_or(&[])
    }
}

/// Fixed-size open-addressed mirror of a hash map's key set.
///
/// Capacity is `(max_entries * 2).next_power_of_two()`, at least 8, so
/// with at most `max_entries` live keys the table is never more than
/// half full and every probe chain terminates at an empty or tombstone
/// slot. The allocation is made once and only rewritten in place.
#[derive(Clone, Debug)]
pub struct HashIndex {
    entries: Box<[IndexEntry]>,
    mask: u64,
    live: usize,
    tombstones: usize,
}

impl HashIndex {
    /// Allocates an empty index sized for `max_entries` live keys.
    pub fn new(max_entries: u32) -> Self {
        let cap = (max_entries as usize)
            .saturating_mul(2)
            .next_power_of_two()
            .max(8);
        HashIndex {
            entries: vec![IndexEntry::VACANT; cap].into_boxed_slice(),
            mask: cap as u64 - 1,
            live: 0,
            tombstones: 0,
        }
    }

    /// Power-of-two mask JIT guards AND the hash with.
    pub fn mask(&self) -> u64 {
        self.mask
    }

    /// Stable base pointer of the slot array.
    pub fn base_ptr(&self) -> *const IndexEntry {
        self.entries.as_ptr()
    }

    /// Total slots (power of two).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Live keys currently indexed.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Records `key` as present. Idempotent for keys already indexed.
    pub fn insert(&mut self, key: &[u8]) {
        let mut i = index_hash(key) & self.mask;
        let mut first_free: Option<usize> = None;
        for _ in 0..self.entries.len() {
            let Some(e) = self.entries.get(i as usize) else { return };
            match e.state {
                INDEX_OCCUPIED if e.matches(key) => return,
                INDEX_OCCUPIED => {}
                INDEX_TOMBSTONE => {
                    if first_free.is_none() {
                        first_free = Some(i as usize);
                    }
                }
                // EMPTY terminates the chain: place at the earliest
                // vacancy so the key never rests beyond an empty slot.
                _ => {
                    self.place(first_free.unwrap_or(i as usize), key);
                    return;
                }
            }
            i = (i + 1) & self.mask;
        }
        // Chain had no empty slot (all occupied/tombstoned). The table is
        // at most half live, so a tombstone exists on the chain.
        if let Some(slot) = first_free {
            self.place(slot, key);
        }
    }

    fn place(&mut self, slot: usize, key: &[u8]) {
        let Some(e) = self.entries.get_mut(slot) else {
            return;
        };
        if e.state == INDEX_TOMBSTONE {
            self.tombstones -= 1;
        }
        let mut buf = [0u8; INDEX_KEY_MAX];
        let len = key.len().min(INDEX_KEY_MAX);
        if let (Some(dst), Some(src)) = (buf.get_mut(..len), key.get(..len)) {
            dst.copy_from_slice(src);
        }
        *e = IndexEntry {
            key: buf,
            key_len: len as u32,
            state: INDEX_OCCUPIED,
        };
        self.live += 1;
    }

    /// Records `key` as absent (tombstones its slot if present).
    pub fn remove(&mut self, key: &[u8]) {
        let mut i = index_hash(key) & self.mask;
        for _ in 0..self.entries.len() {
            let Some(e) = self.entries.get_mut(i as usize) else { return };
            match e.state {
                INDEX_OCCUPIED if e.matches(key) => {
                    e.state = INDEX_TOMBSTONE;
                    self.live -= 1;
                    self.tombstones += 1;
                    return;
                }
                INDEX_EMPTY => return, // chain ends: key was absent
                _ => {}
            }
            i = (i + 1) & self.mask;
        }
    }

    /// True when tombstones crowd more than a quarter of the table and a
    /// rebuild would shorten probe chains.
    pub fn needs_rebuild(&self) -> bool {
        self.tombstones * 4 > self.entries.len()
    }

    /// Clears and re-indexes `keys` in place (same allocation, so base
    /// pointers captured by an in-flight JIT context stay valid).
    pub fn rebuild<'a>(&mut self, keys: impl Iterator<Item = &'a [u8]>) {
        for e in self.entries.iter_mut() {
            *e = IndexEntry::VACANT;
        }
        self.live = 0;
        self.tombstones = 0;
        for key in keys {
            self.insert(key);
        }
    }

    /// Test/debug helper: what the single-probe JIT fast path would
    /// conclude for `key` at its home slot.
    pub fn home_probe(&self, key: &[u8]) -> HomeProbe {
        let i = (index_hash(key) & self.mask) as usize;
        let Some(e) = self.entries.get(i) else {
            return HomeProbe::Fallback;
        };
        match e.state {
            INDEX_EMPTY => HomeProbe::Miss,
            INDEX_OCCUPIED if e.matches(key) => HomeProbe::Hit,
            _ => HomeProbe::Fallback,
        }
    }
}

/// Outcome of the single home-slot probe the JIT performs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HomeProbe {
    /// Occupied by exactly this key: definitively present.
    Hit,
    /// Empty home slot: definitively absent.
    Miss,
    /// Tombstone or another key: the JIT takes the trampoline.
    Fallback,
}

/// Per-fd runtime shape descriptor the JIT guards against. Built by
/// `MapRegistry::create` and handed to every JIT entry; layout
/// is load-bearing (kind `+0`, key_size `+4`, value_size `+8`,
/// max_entries `+12`, base `+16`, aux `+24`; stride 32).
#[repr(C)]
#[derive(Clone, Copy, Debug)]
pub struct MapRuntimeDesc {
    /// [`DESC_KIND_NONE`], [`DESC_KIND_ARRAY`], or [`DESC_KIND_HASH`].
    pub kind: u32,
    /// Key size in bytes.
    pub key_size: u32,
    /// Value size in bytes.
    pub value_size: u32,
    /// Maximum (array: exact) entry count.
    pub max_entries: u32,
    /// Array: value arena base. Hash: index table base.
    pub base: u64,
    /// Hash: index table mask. Array: 0.
    pub aux: u64,
}

impl MapRuntimeDesc {
    /// Descriptor for a map with no inline fast path.
    pub fn none() -> Self {
        MapRuntimeDesc {
            kind: DESC_KIND_NONE,
            key_size: 0,
            value_size: 0,
            max_entries: 0,
            base: 0,
            aux: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{offset_of, size_of};

    #[test]
    fn layouts_match_jit_offsets() {
        assert_eq!(size_of::<SlotEntry>(), 24);
        assert_eq!(offset_of!(SlotEntry, fd), 0);
        assert_eq!(offset_of!(SlotEntry, key_len), 4);
        assert_eq!(offset_of!(SlotEntry, key), 8);

        assert_eq!(size_of::<IndexEntry>(), 24);
        assert_eq!(offset_of!(IndexEntry, key), 0);
        assert_eq!(offset_of!(IndexEntry, key_len), 16);
        assert_eq!(offset_of!(IndexEntry, state), 20);

        assert_eq!(size_of::<MapRuntimeDesc>(), 32);
        assert_eq!(offset_of!(MapRuntimeDesc, kind), 0);
        assert_eq!(offset_of!(MapRuntimeDesc, key_size), 4);
        assert_eq!(offset_of!(MapRuntimeDesc, value_size), 8);
        assert_eq!(offset_of!(MapRuntimeDesc, max_entries), 12);
        assert_eq!(offset_of!(MapRuntimeDesc, base), 16);
        assert_eq!(offset_of!(MapRuntimeDesc, aux), 24);
    }

    #[test]
    fn eight_byte_index_hash_is_one_mix() {
        // The JIT bakes INDEX_SEED ^ 8 into emitted code; the general
        // function must agree for every 8-byte key.
        let key = 0xdead_beef_0042_1100u64.to_le_bytes();
        let w0 = u64::from_le_bytes(key);
        assert_eq!(index_hash(&key), mix64((INDEX_SEED ^ 8) ^ w0));
    }

    #[test]
    fn insert_never_rests_beyond_empty() {
        let mut idx = HashIndex::new(64);
        let keys: Vec<[u8; 8]> = (0..64u64).map(|i| i.to_le_bytes()).collect();
        for k in &keys {
            idx.insert(k);
        }
        // Every inserted key must be findable by walking from its home
        // slot without crossing an empty slot.
        for k in &keys {
            let mut i = index_hash(k) & idx.mask();
            let found = loop {
                let e = idx.entries.get(i as usize).unwrap();
                if e.matches(k) {
                    break true;
                }
                if e.state == INDEX_EMPTY {
                    break false;
                }
                i = (i + 1) & idx.mask();
            };
            assert!(found, "key {k:?} lost");
        }
    }

    #[test]
    fn home_probe_is_definitive() {
        let mut idx = HashIndex::new(16);
        let a = 1u64.to_le_bytes();
        idx.insert(&a);
        assert_eq!(idx.home_probe(&a), HomeProbe::Hit);
        idx.remove(&a);
        // Tombstoned home slot: single probe can no longer decide.
        assert_eq!(idx.home_probe(&a), HomeProbe::Fallback);
        // A fresh key whose home slot never held anything is a miss.
        let mut miss = None;
        for i in 2u64..1000 {
            let k = i.to_le_bytes();
            if idx.home_probe(&k) == HomeProbe::Miss {
                miss = Some(k);
                break;
            }
        }
        assert!(miss.is_some());
    }

    #[test]
    fn delete_insert_cycle_reuses_tombstone() {
        let mut idx = HashIndex::new(8);
        let k = 7u64.to_le_bytes();
        idx.insert(&k);
        let before = idx.tombstones;
        for _ in 0..1000 {
            idx.remove(&k);
            idx.insert(&k);
        }
        // Steady-state enter/exit churn must not accumulate tombstones.
        assert_eq!(idx.tombstones, before);
        assert_eq!(idx.live, 1);
        assert_eq!(idx.home_probe(&k), HomeProbe::Hit);
    }

    #[test]
    fn rebuild_restores_home_hits() {
        let mut idx = HashIndex::new(8);
        // Churn enough distinct keys to force tombstones, then rebuild.
        for i in 0..64u64 {
            idx.insert(&i.to_le_bytes());
            idx.remove(&i.to_le_bytes());
        }
        // Two keys with distinct home slots, so after a rebuild both
        // must rest at home (keys that collide may legitimately probe
        // as Fallback even in a tombstone-free table).
        let a = 100u64;
        let mut b = 101u64;
        let home = |k: u64| index_hash(&k.to_le_bytes()) & idx.mask();
        while home(b) == home(a) {
            b += 1;
        }
        let live = [a.to_le_bytes(), b.to_le_bytes()];
        for k in &live {
            idx.insert(k);
        }
        assert!(idx.needs_rebuild());
        let refs: Vec<&[u8]> = live.iter().map(|k| k.as_slice()).collect();
        idx.rebuild(refs.into_iter());
        assert_eq!(idx.tombstones, 0);
        assert_eq!(idx.live, 2);
        for k in &live {
            assert_eq!(idx.home_probe(k), HomeProbe::Hit);
        }
    }

    #[test]
    fn arena_addressing_matches_get() {
        let mut a = ArrayArena::new(16, 4);
        a.get_mut(2).unwrap().copy_from_slice(&[7u8; 16]);
        assert_eq!(a.get(2).unwrap(), &[7u8; 16]);
        assert!(a.get(4).is_none());
        let base = a.base_ptr();
        // In-place updates never move the arena.
        for i in 0..4 {
            a.get_mut(i).unwrap().fill(i as u8);
        }
        assert_eq!(a.base_ptr(), base);
    }

    #[test]
    fn slot_entry_round_trips_keys() {
        let e = SlotEntry::new(3, &[1, 2, 3, 4]);
        assert_eq!(e.fd, 3);
        assert_eq!(e.key_bytes(), &[1, 2, 3, 4]);
        let full = SlotEntry::new(9, &[0xAA; 16]);
        assert_eq!(full.key_bytes(), &[0xAA; 16]);
    }
}
