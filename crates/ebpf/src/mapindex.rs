//! JIT-visible runtime layouts backing the inline map-lookup and
//! map-value fast paths.
//!
//! The template JIT (DESIGN §6f) wants to answer `bpf_map_lookup_elem`
//! without round-tripping through the sysv64 trampoline, and to reach a
//! looked-up value without resolving its key again. That requires these
//! to have a stable, `#[repr(C)]` layout the emitter addresses through
//! the named offsets beside each type (`SLOT_*`, `DESC_*`):
//!
//! * [`SlotEntry`] — one resolved lookup: fd, key bytes, and the value's
//!   host address and size. The VM's slot list is a `Vec<SlotEntry>`;
//!   JIT code appends to it in place when a fast-path lookup hits (and
//!   falls back to the trampoline when the vector is full), and a proven
//!   map-value access goes straight through the recorded address. A
//!   trampolined update or delete, and an inline delete, clear the
//!   address in every slot of the hash map they change, so an access
//!   after them resolves the key again; an inline overwrite or insert
//!   moves no value and leaves it.
//! * [`ArrayArena`] — the contiguous value storage of an array map. One
//!   allocation sized `value_size * max_entries` at map creation, never
//!   reallocated, so a value address stays valid across every in-place
//!   update the program performs.
//! * [`HashIndex`] — a hash map's only storage: an open-addressed slot
//!   array plus a parallel value arena, sized by content. JIT code
//!   probes exactly one slot (the home slot); anything but a definitive
//!   hit or a definitive miss falls back to the trampoline, and writes it
//!   in place only where [`HashIndex::home_write`] / [`HashIndex::home_remove`]
//!   say `insert` / `remove` would write that slot without a relayout.
//!   Its [`HashCounts`] (live keys, tombstones, the load bound) sit in a
//!   box of their own so the descriptor can point JIT code at them.
//! * [`MapRuntimeDesc`] — one [`DESC_SIZE`]-byte descriptor per map fd,
//!   built by the registry when the map is created and republished
//!   whenever a hash table moves, telling the emitted guards what shape
//!   the fd actually has *at run time*, where its values live and, for
//!   a hash map, where its counts live.
//!   Compiled programs bake in no pointers and no shapes: a program
//!   compiled once runs correctly against any registry because every
//!   assumption is re-checked against this table at every lookup site.
//!
//! ## Single-probe soundness
//!
//! The JIT reads only the home slot `index_hash(key) & mask`. For that to
//! be sound the table maintains one invariant: **a key never rests beyond
//! an `EMPTY` slot on its probe path**. [`HashIndex::insert`] walks the
//! probe chain remembering the first tombstone; if it reaches an empty
//! slot the key is placed at that first tombstone (or the empty slot
//! itself), both of which precede any empty slot on the chain. Deletion
//! writes a tombstone, and turns it (and the tombstones before it) back
//! into empties only when the next slot is empty, so the invariant
//! survives arbitrary insert/delete interleavings. Growth re-inserts
//! every key into a fresh table and compaction re-places them in place,
//! both leaving no tombstones. Consequently:
//!
//! * home slot `EMPTY`            → key definitively absent (miss);
//! * home slot occupied, key `==` → key definitively present (hit);
//! * anything else (tombstone, other key) → fall back to the trampoline.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use crate::maps::MapError;

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

/// Byte offset of [`SlotEntry::fd`].
pub const SLOT_FD_OFF: usize = 0;
/// Byte offset of [`SlotEntry::key_len`].
pub const SLOT_KEY_LEN_OFF: usize = 4;
/// Byte offset of [`SlotEntry::key`].
pub const SLOT_KEY_OFF: usize = 8;
/// Byte offset of [`SlotEntry::value`].
pub const SLOT_VALUE_OFF: usize = 24;
/// Byte offset of [`SlotEntry::value_size`].
pub const SLOT_VALUE_SIZE_OFF: usize = 32;
/// Size of one [`SlotEntry`]: the stride of the slot vector.
pub const SLOT_ENTRY_SIZE: usize = 40;

/// One resolved map lookup: which fd it hit, the exact key bytes, and
/// where the value lives.
///
/// The key is what the interpreter resolves a map-value access by, on
/// every access. The value's host address and size are recorded when
/// the lookup resolves them, so JIT code can reach a proven map-value
/// access through the address directly (DESIGN §6f). `value` is 0 once
/// the address may no longer hold: a trampolined update or delete of a
/// hash map, or an inline delete, clears it in every slot of that map,
/// since only a relayout moves a hash table's values and only a delete
/// frees one; an access through a cleared slot resolves the key again,
/// as the interpreter does.
///
/// Layout is load-bearing: JIT code reads and writes entries at
/// `slots_base + slot * SLOT_ENTRY_SIZE` with the `SLOT_*_OFF` field
/// offsets.
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SlotEntry {
    /// Raw map fd (`MapFd.0`).
    pub fd: u32,
    /// Live prefix length of `key`.
    pub key_len: u32,
    /// Key bytes, zero-padded to [`INDEX_KEY_MAX`].
    pub key: [u8; INDEX_KEY_MAX],
    /// Host address of the value bytes, or 0 when the value must be
    /// resolved by key again.
    pub value: u64,
    /// Length of the value bytes at `value`.
    pub value_size: u32,
}

impl SlotEntry {
    /// Builds an entry for `key` resolved to `value`; `key` must be at
    /// most [`INDEX_KEY_MAX`] long (map creation enforces this).
    pub fn new(fd: u32, key: &[u8], value: &mut [u8]) -> Self {
        let IndexEntry { key, key_len, .. } = IndexEntry::live(key);
        SlotEntry {
            fd,
            key_len,
            key,
            value: value.as_mut_ptr() as u64,
            value_size: value.len() as u32,
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
        self.data
            .get(idx * self.value_size..(idx + 1) * self.value_size)
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

/// Byte offset of [`IndexEntry::key_len`].
pub const ENTRY_KEY_LEN_OFF: usize = 16;
/// Byte offset of [`IndexEntry::state`].
pub const ENTRY_STATE_OFF: usize = 20;
/// Size of one [`IndexEntry`]: the stride of a hash table's slot array.
pub const ENTRY_SIZE: usize = 24;

/// One slot of a [`HashIndex`]. Layout is load-bearing for the JIT
/// (key `+0`, then the `ENTRY_*_OFF` fields; stride [`ENTRY_SIZE`]).
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

    /// A live slot holding `key`, zero-padded so that a key compare is
    /// one fixed-width compare.
    fn live(key: &[u8]) -> IndexEntry {
        let mut buf = [0u8; INDEX_KEY_MAX];
        let len = key.len().min(INDEX_KEY_MAX);
        if let (Some(dst), Some(src)) = (buf.get_mut(..len), key.get(..len)) {
            dst.copy_from_slice(src);
        }
        IndexEntry {
            key: buf,
            key_len: len as u32,
            state: INDEX_OCCUPIED,
        }
    }

    fn matches(&self, key: &[u8]) -> bool {
        self.state == INDEX_OCCUPIED && self.key_bytes() == key
    }

    fn key_bytes(&self) -> &[u8] {
        self.key.get(..self.key_len as usize).unwrap_or(&[])
    }
}

/// Slots a hash table starts with, unless its cap is smaller.
pub const HASH_MIN_SLOTS: usize = 64;

/// Below its cap, a table keeps at most one slot in `HASH_LOAD_DIV`
/// non-empty (live or tombstoned). Sparse home slots keep the JIT's
/// single probe conclusive: every home-slot collision sends an inline
/// lookup to the trampoline. Measured on `paper_sweep` (DESIGN §6f):
/// 63,220 trampolined lookups per run at 4, 31,623 at 8, none at 16.
const HASH_LOAD_DIV: usize = 16;

/// `state` of a key awaiting its slot inside [`HashIndex::compact`].
const INDEX_PENDING: u32 = 3;

/// A hash map's storage: an open-addressed slot array the JIT probes in
/// place, plus a parallel value arena (slot `i`'s value at byte
/// `i * value_size`). It starts at [`HASH_MIN_SLOTS`] slots, doubles when
/// an insert would pass its load bound, and never grows past
/// `(2 * max_entries).next_power_of_two()` (at least 8) slots; a table
/// full of tombstones is compacted in place. Growth is the only thing that
/// moves it: re-read [`HashIndex::base_ptr`] after every insert.
#[derive(Clone, Debug)]
pub struct HashIndex {
    entries: Box<[IndexEntry]>,
    values: Box<[u8]>,
    value_size: usize,
    max_entries: usize,
    max_slots: usize,
    /// Boxed so its address stays put while the registry's map list
    /// grows: the runtime descriptor publishes it for inline writes.
    counts: Box<HashCounts>,
}

/// Byte offset of [`HashCounts::live`].
pub const COUNTS_LIVE_OFF: usize = 0;
/// Byte offset of [`HashCounts::tombstones`].
pub const COUNTS_TOMBSTONES_OFF: usize = 8;
/// Byte offset of [`HashCounts::limit`].
pub const COUNTS_LIMIT_OFF: usize = 16;

/// A [`HashIndex`]'s occupancy: what decides whether an insert may take
/// an EMPTY slot or must lay the table out afresh first. JIT code reads
/// it through [`MapRuntimeDesc::counts`] and keeps `live` and
/// `tombstones` exact when it writes the table inline. Layout is
/// load-bearing (the `COUNTS_*_OFF` offsets).
#[repr(C)]
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HashCounts {
    /// Live keys.
    pub live: u64,
    /// Deleted keys' slots not yet reused or cleared.
    pub tombstones: u64,
    /// The load bound: non-empty slots the table may hold before an
    /// insert into an EMPTY slot relays it out. Fixed per table size.
    pub limit: u64,
}

impl HashIndex {
    /// An empty table for up to `max_entries` keys with `value_size`-byte
    /// values.
    pub fn new(value_size: u32, max_entries: u32) -> Self {
        let max_slots = (2 * max_entries as usize).next_power_of_two().max(8);
        let slots = HASH_MIN_SLOTS.min(max_slots);
        HashIndex::with_slots(value_size as usize, max_entries as usize, max_slots, slots)
    }

    fn with_slots(value_size: usize, max_entries: usize, max_slots: usize, slots: usize) -> Self {
        // At the cap, `max_entries` live keys fill at most half of the
        // table and tombstones another quarter.
        let limit = if slots == max_slots {
            slots - slots / 4
        } else {
            slots / HASH_LOAD_DIV
        };
        HashIndex {
            entries: vec![IndexEntry::VACANT; slots].into_boxed_slice(),
            values: vec![0u8; slots * value_size].into_boxed_slice(),
            value_size,
            max_entries,
            max_slots,
            counts: Box::new(HashCounts {
                live: 0,
                tombstones: 0,
                limit: limit as u64,
            }),
        }
    }

    /// Power-of-two mask JIT guards AND the hash with.
    pub fn mask(&self) -> u64 {
        self.entries.len() as u64 - 1
    }

    /// Base pointer of the slot array; valid until the next insert.
    pub fn base_ptr(&self) -> *const IndexEntry {
        self.entries.as_ptr()
    }

    /// Base pointer of the value arena (slot `i`'s value at byte
    /// `i * value_size`); valid until the next insert.
    pub fn values_ptr(&self) -> *const u8 {
        self.values.as_ptr()
    }

    /// Address of the table's [`HashCounts`]; valid until the next
    /// insert.
    pub fn counts_ptr(&self) -> *const HashCounts {
        &*self.counts
    }

    /// Total slots (power of two).
    pub fn capacity(&self) -> usize {
        self.entries.len()
    }

    /// Live keys.
    pub fn live(&self) -> usize {
        self.counts.live as usize
    }

    /// Deleted keys' slots not yet reused or cleared.
    pub fn tombstones(&self) -> usize {
        self.counts.tombstones as usize
    }

    /// The value stored under `key`.
    pub fn get(&self, key: &[u8]) -> Option<&[u8]> {
        let slot = self.probe(key).ok()?;
        self.values.get(self.value_range(slot))
    }

    /// Mutable access to the value stored under `key`.
    pub fn get_mut(&mut self, key: &[u8]) -> Option<&mut [u8]> {
        let slot = self.probe(key).ok()?;
        let range = self.value_range(slot);
        self.values.get_mut(range)
    }

    /// Stores `value` (exactly `value_size` bytes) under `key`,
    /// overwriting an existing value in place.
    ///
    /// # Errors
    ///
    /// [`MapError::Full`] when `key` is new and `max_entries` keys are
    /// live.
    pub fn insert(&mut self, key: &[u8], value: &[u8]) -> Result<(), MapError> {
        let slot = match self.probe(key) {
            Ok(slot) => slot,
            Err(_) if self.live() >= self.max_entries => return Err(MapError::Full),
            Err(slot) => self.claim(key, slot),
        };
        let range = self.value_range(slot);
        if let Some(cell) = self.values.get_mut(range) {
            cell.copy_from_slice(value);
        }
        Ok(())
    }

    /// Removes `key`; `false` when it was absent.
    pub fn remove(&mut self, key: &[u8]) -> bool {
        let Ok(mut slot) = self.probe(key) else {
            return false;
        };
        self.set_state(slot, INDEX_TOMBSTONE);
        self.counts.live -= 1;
        self.counts.tombstones += 1;
        // A tombstone right before an EMPTY slot ends no chain that goes
        // on (no key rests beyond an EMPTY slot), so it can be EMPTY
        // itself — and then so can the tombstones before it.
        let mask = self.mask() as usize;
        while self.state((slot + 1) & mask) == INDEX_EMPTY && self.state(slot) == INDEX_TOMBSTONE {
            self.set_state(slot, INDEX_EMPTY);
            self.counts.tombstones -= 1;
            slot = slot.wrapping_sub(1) & mask;
        }
        true
    }

    /// Live `(key, value)` pairs in slot order.
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        self.entries
            .iter()
            .zip(self.values.chunks_exact(self.value_size.max(1)))
            .filter(|(e, _)| e.state == INDEX_OCCUPIED)
            .map(|(e, value)| (e.key_bytes(), value))
    }

    /// What the single-probe JIT fast path would conclude for `key` at
    /// its home slot.
    pub fn home_probe(&self, key: &[u8]) -> HomeProbe {
        let i = (index_hash(key) & self.mask()) as usize;
        let Some(e) = self.entries.get(i) else {
            return HomeProbe::Fallback;
        };
        match e.state {
            INDEX_EMPTY => HomeProbe::Miss,
            INDEX_OCCUPIED if e.matches(key) => HomeProbe::Hit,
            _ => HomeProbe::Fallback,
        }
    }

    /// What the JIT's inline `map_update_elem` does with `key`: it writes
    /// only where [`HashIndex::insert`] would write the same slot without
    /// a relayout, and leaves every other case to the trampoline.
    pub fn home_write(&self, key: &[u8]) -> HomeWrite {
        let i = (index_hash(key) & self.mask()) as usize;
        let Some(e) = self.entries.get(i) else {
            return HomeWrite::Fallback;
        };
        let c = &self.counts;
        match e.state {
            INDEX_OCCUPIED if e.matches(key) => HomeWrite::Overwrite,
            INDEX_EMPTY if c.live < self.max_entries as u64 && c.live + c.tombstones < c.limit => {
                HomeWrite::Insert
            }
            _ => HomeWrite::Fallback,
        }
    }

    /// What the JIT's inline `map_delete_elem` does with `key`: it
    /// removes a key that rests at its home slot unless
    /// [`HashIndex::remove`]'s backward walk would clear tombstones
    /// before the home slot, and answers a miss at an EMPTY home slot.
    pub fn home_remove(&self, key: &[u8]) -> HomeRemove {
        let mask = self.mask() as usize;
        let i = (index_hash(key) as usize) & mask;
        let Some(e) = self.entries.get(i) else {
            return HomeRemove::Fallback;
        };
        match e.state {
            INDEX_EMPTY => HomeRemove::Absent,
            INDEX_OCCUPIED if e.matches(key) => {
                if self.state((i + 1) & mask) != INDEX_EMPTY {
                    HomeRemove::Tombstone
                } else if self.state(i.wrapping_sub(1) & mask) != INDEX_TOMBSTONE {
                    HomeRemove::Empty
                } else {
                    HomeRemove::Fallback
                }
            }
            _ => HomeRemove::Fallback,
        }
    }

    /// Walks `key`'s probe chain: `Ok(slot)` where it lives, or
    /// `Err(slot)` where an insert places it — the chain's first
    /// tombstone, else the EMPTY slot that ends it. Placing there keeps
    /// every key before any EMPTY slot on its chain.
    fn probe(&self, key: &[u8]) -> Result<usize, usize> {
        let want = IndexEntry::live(key);
        let mask = self.mask();
        let mut i = index_hash(key) & mask;
        let mut vacancy = None;
        for _ in 0..self.entries.len() {
            let slot = i as usize;
            match self.entries.get(slot) {
                Some(e) if e.state == INDEX_EMPTY => return Err(vacancy.unwrap_or(slot)),
                Some(e) if e.state == INDEX_TOMBSTONE => {
                    vacancy.get_or_insert(slot);
                }
                Some(e) if e.key == want.key && e.key_len == want.key_len => return Ok(slot),
                _ => {}
            }
            i = (i + 1) & mask;
        }
        // Every table keeps an EMPTY slot (the load bound is below one),
        // so only a chain of tombstones and other keys gets here.
        Err(vacancy.unwrap_or(usize::MAX))
    }

    /// Makes a vacancy `probe` found live for `key` and returns the slot
    /// the key ended up in. Taking an EMPTY slot past the load bound
    /// lays the table out afresh first.
    fn claim(&mut self, key: &[u8], slot: usize) -> usize {
        let slot = if self.state(slot) == INDEX_TOMBSTONE {
            self.counts.tombstones -= 1;
            slot
        } else if self.live() + self.tombstones() < self.load_limit() {
            slot
        } else {
            self.relayout();
            match self.probe(key) {
                Ok(slot) | Err(slot) => slot,
            }
        };
        if let Some(e) = self.entries.get_mut(slot) {
            *e = IndexEntry::live(key);
        }
        self.counts.live += 1;
        slot
    }

    /// Non-empty slots the table may hold ([`HashCounts::limit`]).
    fn load_limit(&self) -> usize {
        self.counts.limit as usize
    }

    /// Clears every tombstone ahead of one more key: in place while the
    /// live keys fill at most half the load bound (or the table is at
    /// its cap), else into a table twice the size.
    fn relayout(&mut self) {
        let slots = self.entries.len();
        if (self.live() + 1) * 2 <= self.load_limit() || slots == self.max_slots {
            self.compact();
            return;
        }
        let mut grown =
            HashIndex::with_slots(self.value_size, self.max_entries, self.max_slots, slots * 2);
        for (key, value) in self.iter() {
            // Cannot fail: distinct keys, room for one more than these.
            let _fits = grown.insert(key, value);
        }
        *self = grown;
    }

    /// Re-places every live key in place with no tombstones left: each
    /// key moves to the first slot on its chain not yet holding a placed
    /// key, swapping with a key still waiting there. Placed slots never
    /// change again, so no key ends up beyond an EMPTY slot.
    fn compact(&mut self) {
        for e in self.entries.iter_mut() {
            e.state = if e.state == INDEX_OCCUPIED {
                INDEX_PENDING
            } else {
                INDEX_EMPTY
            };
        }
        self.counts.tombstones = 0;
        let mask = self.mask() as usize;
        for i in 0..self.entries.len() {
            while let Some(e) = self.entries.get(i).filter(|e| e.state == INDEX_PENDING) {
                let mut j = (index_hash(e.key_bytes()) as usize) & mask;
                while self.state(j) == INDEX_OCCUPIED {
                    j = (j + 1) & mask;
                }
                if j != i {
                    self.entries.swap(i, j);
                    self.swap_values(i, j);
                }
                self.set_state(j, INDEX_OCCUPIED);
            }
        }
    }

    fn swap_values(&mut self, a: usize, b: usize) {
        let (lo, hi) = (self.value_range(a.min(b)), self.value_range(a.max(b)));
        let (head, tail) = self.values.split_at_mut(hi.start.min(self.values.len()));
        if let (Some(x), Some(y)) = (head.get_mut(lo), tail.get_mut(..hi.len())) {
            x.swap_with_slice(y);
        }
    }

    fn value_range(&self, slot: usize) -> std::ops::Range<usize> {
        let start = slot.saturating_mul(self.value_size);
        start..start.saturating_add(self.value_size)
    }

    fn state(&self, slot: usize) -> u32 {
        self.entries.get(slot).map_or(INDEX_EMPTY, |e| e.state)
    }

    fn set_state(&mut self, slot: usize, state: u32) {
        if let Some(e) = self.entries.get_mut(slot) {
            e.state = state;
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

/// What the JIT's inline `map_update_elem` does at a key's home slot
/// ([`HashIndex::home_write`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HomeWrite {
    /// The home slot holds this key: its value is overwritten in place.
    Overwrite,
    /// The home slot is EMPTY and the table has room under its load
    /// bound and `max_entries`: the key takes it.
    Insert,
    /// Anything else (a tombstone or another key at home, a full map, a
    /// relayout): the trampoline.
    Fallback,
}

/// What the JIT's inline `map_delete_elem` does at a key's home slot
/// ([`HashIndex::home_remove`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HomeRemove {
    /// The key rests at home and the next slot is not EMPTY: its slot
    /// becomes a tombstone.
    Tombstone,
    /// The key rests at home, the next slot is EMPTY and the previous
    /// one is no tombstone: its slot becomes EMPTY and the walk stops.
    Empty,
    /// The home slot is EMPTY: the key is absent and nothing changes.
    Absent,
    /// Anything else (a tombstone or another key at home, or a walk that
    /// would clear tombstones before home): the trampoline.
    Fallback,
}

/// Byte offset of [`MapRuntimeDesc::kind`].
pub const DESC_KIND_OFF: usize = 0;
/// Byte offset of [`MapRuntimeDesc::key_size`].
pub const DESC_KEY_SIZE_OFF: usize = 4;
/// Byte offset of [`MapRuntimeDesc::value_size`].
pub const DESC_VALUE_SIZE_OFF: usize = 8;
/// Byte offset of [`MapRuntimeDesc::max_entries`].
pub const DESC_MAX_ENTRIES_OFF: usize = 12;
/// Byte offset of [`MapRuntimeDesc::base`].
pub const DESC_BASE_OFF: usize = 16;
/// Byte offset of [`MapRuntimeDesc::aux`].
pub const DESC_AUX_OFF: usize = 24;
/// Byte offset of [`MapRuntimeDesc::values`].
pub const DESC_VALUES_OFF: usize = 32;
/// Byte offset of [`MapRuntimeDesc::counts`].
pub const DESC_COUNTS_OFF: usize = 40;
/// Size of one [`MapRuntimeDesc`]: the stride of the descriptor table.
pub const DESC_SIZE: usize = 48;

/// Per-fd runtime shape descriptor the JIT guards against. Built by
/// `MapRegistry::create`, republished when a hash table moves, and
/// handed to every JIT entry; layout is load-bearing (the `DESC_*_OFF`
/// offsets, stride [`DESC_SIZE`]).
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
    /// Array: value arena base. Hash: slot array base.
    pub base: u64,
    /// Hash: slot array mask. Array: 0.
    pub aux: u64,
    /// Value arena base: entry or slot `i`'s value at byte
    /// `i * value_size` (an array's is its `base`).
    pub values: u64,
    /// Hash: address of the table's [`HashCounts`]. Otherwise 0.
    pub counts: u64,
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
            values: 0,
            counts: 0,
        }
    }
}

/// A [`MapRuntimeDesc`] the registry republishes through a shared
/// reference while JIT code holds a pointer to it, laid out exactly like
/// one so the JIT reads it as one. Only `base`, `aux`, `values` and
/// `counts` ever change;
/// atomics make that a permitted interior mutation and keep the registry
/// `Sync` (`Relaxed`: helpers run on the JIT code's own thread).
#[repr(C)]
#[derive(Debug)]
pub(crate) struct DescCell {
    shape: [u32; 4],
    base: AtomicU64,
    aux: AtomicU64,
    values: AtomicU64,
    counts: AtomicU64,
}

const _: () = assert!(std::mem::size_of::<DescCell>() == std::mem::size_of::<MapRuntimeDesc>());

impl DescCell {
    pub(crate) fn new(d: MapRuntimeDesc) -> Self {
        let shape = [d.kind, d.key_size, d.value_size, d.max_entries];
        DescCell {
            shape,
            base: AtomicU64::new(d.base),
            aux: AtomicU64::new(d.aux),
            values: AtomicU64::new(d.values),
            counts: AtomicU64::new(d.counts),
        }
    }

    /// Points the descriptor at a hash map's moved table.
    pub(crate) fn publish(&self, table: &HashIndex) {
        self.base.store(table.base_ptr() as u64, Relaxed);
        self.aux.store(table.mask(), Relaxed);
        self.values.store(table.values_ptr() as u64, Relaxed);
        self.counts.store(table.counts_ptr() as u64, Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::{offset_of, size_of};

    #[test]
    fn layouts_match_jit_offsets() {
        assert_eq!(size_of::<SlotEntry>(), SLOT_ENTRY_SIZE);
        assert_eq!(offset_of!(SlotEntry, fd), SLOT_FD_OFF);
        assert_eq!(offset_of!(SlotEntry, key_len), SLOT_KEY_LEN_OFF);
        assert_eq!(offset_of!(SlotEntry, key), SLOT_KEY_OFF);
        assert_eq!(offset_of!(SlotEntry, value), SLOT_VALUE_OFF);
        assert_eq!(offset_of!(SlotEntry, value_size), SLOT_VALUE_SIZE_OFF);

        assert_eq!(size_of::<IndexEntry>(), ENTRY_SIZE);
        assert_eq!(offset_of!(IndexEntry, key), 0);
        assert_eq!(offset_of!(IndexEntry, key_len), ENTRY_KEY_LEN_OFF);
        assert_eq!(offset_of!(IndexEntry, state), ENTRY_STATE_OFF);

        assert_eq!(size_of::<MapRuntimeDesc>(), DESC_SIZE);
        assert_eq!(offset_of!(MapRuntimeDesc, kind), DESC_KIND_OFF);
        assert_eq!(offset_of!(MapRuntimeDesc, key_size), DESC_KEY_SIZE_OFF);
        assert_eq!(offset_of!(MapRuntimeDesc, value_size), DESC_VALUE_SIZE_OFF);
        assert_eq!(
            offset_of!(MapRuntimeDesc, max_entries),
            DESC_MAX_ENTRIES_OFF
        );
        assert_eq!(offset_of!(MapRuntimeDesc, base), DESC_BASE_OFF);
        assert_eq!(offset_of!(MapRuntimeDesc, aux), DESC_AUX_OFF);
        assert_eq!(offset_of!(MapRuntimeDesc, values), DESC_VALUES_OFF);
        assert_eq!(offset_of!(MapRuntimeDesc, counts), DESC_COUNTS_OFF);
        assert_eq!(size_of::<HashCounts>(), 24);
        assert_eq!(offset_of!(HashCounts, live), COUNTS_LIVE_OFF);
        assert_eq!(offset_of!(HashCounts, tombstones), COUNTS_TOMBSTONES_OFF);
        assert_eq!(offset_of!(HashCounts, limit), COUNTS_LIMIT_OFF);
        // The registry's cells are read by the JIT as descriptors.
        assert_eq!(size_of::<DescCell>(), DESC_SIZE);
        assert_eq!(offset_of!(DescCell, shape), DESC_KIND_OFF);
        assert_eq!(offset_of!(DescCell, base), DESC_BASE_OFF);
        assert_eq!(offset_of!(DescCell, aux), DESC_AUX_OFF);
        assert_eq!(offset_of!(DescCell, values), DESC_VALUES_OFF);
        assert_eq!(offset_of!(DescCell, counts), DESC_COUNTS_OFF);
    }

    #[test]
    fn eight_byte_index_hash_is_one_mix() {
        // The JIT bakes INDEX_SEED ^ 8 into emitted code; the general
        // function must agree for every 8-byte key.
        let key = 0xdead_beef_0042_1100u64.to_le_bytes();
        let w0 = u64::from_le_bytes(key);
        assert_eq!(index_hash(&key), mix64((INDEX_SEED ^ 8) ^ w0));
    }

    /// Inserts `key` with its own bytes as the (8-byte) value.
    fn put(idx: &mut HashIndex, key: u64) {
        idx.insert(&key.to_le_bytes(), &key.to_le_bytes())
            .expect("under max_entries");
    }

    /// Walks `key`'s chain from its home slot, stopping at an EMPTY one.
    fn reachable(idx: &HashIndex, key: &[u8]) -> bool {
        let mut i = index_hash(key) & idx.mask();
        for _ in 0..idx.capacity() {
            let e = idx.entries.get(i as usize).unwrap();
            if e.matches(key) {
                return true;
            }
            if e.state == INDEX_EMPTY {
                return false;
            }
            i = (i + 1) & idx.mask();
        }
        false
    }

    #[test]
    fn insert_never_rests_beyond_empty() {
        let mut idx = HashIndex::new(8, 64);
        for k in 0..64u64 {
            put(&mut idx, k);
        }
        // Every inserted key must be findable by walking from its home
        // slot without crossing an empty slot.
        for k in 0..64u64 {
            assert!(reachable(&idx, &k.to_le_bytes()), "key {k} lost");
        }
        assert_eq!(idx.insert(&[0xFF; 8], &[0; 8]), Err(MapError::Full));
    }

    #[test]
    fn tables_start_small_and_grow_to_the_cap() {
        let mut idx = HashIndex::new(8, 4096);
        assert_eq!(idx.capacity(), HASH_MIN_SLOTS);
        for k in 0..4096u64 {
            put(&mut idx, k);
            assert_eq!(idx.get(&k.to_le_bytes()), Some(&k.to_le_bytes()[..]));
        }
        assert_eq!(
            idx.capacity(),
            8192,
            "never past (2 * max_entries).next_power_of_two()"
        );
        assert_eq!(idx.insert(&[0xFF; 8], &[0; 8]), Err(MapError::Full));
        for k in 0..4096u64 {
            assert!(reachable(&idx, &k.to_le_bytes()), "key {k} lost");
        }
        // Maps whose cap is below the starting size start at the cap.
        assert_eq!(HashIndex::new(8, 4).capacity(), 8);
    }

    #[test]
    fn home_probe_is_definitive() {
        let mut idx = HashIndex::new(8, 16);
        let a = 1u64;
        put(&mut idx, a);
        assert_eq!(idx.home_probe(&a.to_le_bytes()), HomeProbe::Hit);
        // A key resting right after `a` keeps `a`'s slot a tombstone
        // once `a` is gone: the single probe can no longer decide.
        let home = |k: u64| index_hash(&k.to_le_bytes()) & idx.mask();
        let b = (2u64..)
            .find(|&k| home(k) == (home(a) + 1) & idx.mask())
            .unwrap();
        put(&mut idx, b);
        assert!(idx.remove(&a.to_le_bytes()));
        assert_eq!(idx.home_probe(&a.to_le_bytes()), HomeProbe::Fallback);
        // Without a key after it, a deleted key's slot is EMPTY again.
        assert!(idx.remove(&b.to_le_bytes()));
        assert_eq!(idx.home_probe(&b.to_le_bytes()), HomeProbe::Miss);
        assert_eq!(idx.home_probe(&a.to_le_bytes()), HomeProbe::Miss);
        assert_eq!(idx.tombstones(), 0, "the trailing tombstone cleared too");
        assert_eq!(idx.get(&a.to_le_bytes()), None);
    }

    #[test]
    fn delete_insert_cycle_reuses_tombstone() {
        let mut idx = HashIndex::new(8, 8);
        let k = 7u64;
        put(&mut idx, k);
        let before = idx.tombstones();
        for _ in 0..1000 {
            idx.remove(&k.to_le_bytes());
            put(&mut idx, k);
        }
        // Steady-state enter/exit churn must not accumulate tombstones.
        assert_eq!(idx.tombstones(), before);
        assert_eq!(idx.live(), 1);
        assert_eq!(idx.home_probe(&k.to_le_bytes()), HomeProbe::Hit);
    }

    #[test]
    fn compaction_restores_home_hits() {
        let mut idx = HashIndex::new(8, 4096);
        let mask = idx.mask();
        let home = |k: u64| index_hash(&k.to_le_bytes()) & mask;
        // `d` takes `a`'s home slot, so `a` rests one further; deleting
        // `d` leaves a tombstone in front of it.
        let a = 100u64;
        let d = (101u64..).find(|&k| home(k) == home(a)).unwrap();
        put(&mut idx, d);
        put(&mut idx, a);
        assert!(idx.remove(&d.to_le_bytes()));
        assert_eq!(idx.tombstones(), 1);
        assert_eq!(idx.home_probe(&a.to_le_bytes()), HomeProbe::Fallback);
        idx.compact();
        assert_eq!(idx.tombstones(), 0);
        assert_eq!(idx.capacity(), HASH_MIN_SLOTS, "compaction keeps the size");
        assert_eq!(idx.home_probe(&a.to_le_bytes()), HomeProbe::Hit);
        assert_eq!(idx.get(&a.to_le_bytes()), Some(&a.to_le_bytes()[..]));
    }

    #[test]
    fn inserts_past_the_load_bound_compact_at_the_cap() {
        // max_entries 4 caps the table at its starting 8 slots, where
        // tombstones may fill a quarter of it.
        let mut idx = HashIndex::new(8, 4);
        let mut compactions = 0;
        for k in 0..2_000u64 {
            let before = idx.tombstones();
            put(&mut idx, k);
            if idx.tombstones() + 1 < before {
                compactions += 1;
            }
            assert_eq!(idx.capacity(), 8);
            assert!(idx.live() + idx.tombstones() <= idx.load_limit());
            if k >= 2 {
                assert!(idx.remove(&(k - 2).to_le_bytes()));
            }
            for (key, value) in idx.iter() {
                assert_eq!(key, value, "values move with their keys");
                assert!(reachable(&idx, key));
            }
        }
        assert!(
            compactions > 0,
            "fresh keys over tombstones force compactions"
        );
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
        let mut value = [0u8; 12];
        let e = SlotEntry::new(3, &[1, 2, 3, 4], &mut value);
        assert_eq!(e.fd, 3);
        assert_eq!(e.key_bytes(), &[1, 2, 3, 4]);
        assert_eq!((e.value, e.value_size), (value.as_ptr() as u64, 12));
        let full = SlotEntry::new(9, &[0xAA; 16], &mut value);
        assert_eq!(full.key_bytes(), &[0xAA; 16]);
    }
}
