//! eBPF maps — the shared state between programs and "userspace".
//!
//! Maps are the only persistent storage an eBPF program has, and the channel
//! through which the paper's in-kernel statistics reach the userspace agent.
//! The registry supports the map kinds the methodology needs: `Hash` (the
//! `start` timestamp map of Listing 1), `Array` (fixed accumulator slots),
//! and `RingBuf` (event streaming, used when the collector exports raw
//! events instead of aggregates).
//!
//! # Hot-path storage model
//!
//! The per-syscall probe path (`map_lookup_elem` / `map_update_elem` /
//! `map_delete_elem` on every traced event) performs no heap allocation in
//! steady state, mirroring the kernel's preallocated BPF hash maps:
//!
//! * keys are stored inline in fixed-capacity [`InlineKey`] cells
//!   (every probe key in this codebase is ≤ 8 bytes; the cap is
//!   [`MAX_KEY_SIZE`] = 16 and enforced at map creation);
//! * hash values live in `Box<[u8]>` cells that are recycled through a
//!   per-map free pool on delete, so the enter-store / exit-delete cycle of
//!   the `start` map reuses the same allocation forever;
//! * [`MapRegistry::update_in_place`] overwrites existing values through a
//!   borrowed slice instead of inserting fresh ones;
//! * ring-buffer records are written into cells recycled from
//!   [`MapRegistry::ring_consume`]'s free pool, so the streaming
//!   produce/consume cycle (`ring_push` → `ring_consume`) allocates only
//!   while the ring is growing toward its high-water mark.
//!
//! Hash maps use a fixed-seed FNV-1a hasher ([`DetState`]) instead of the
//! standard library's `RandomState`, so iteration and dump order are
//! reproducible across runs and platforms — a requirement for golden
//! fixtures, not just a nicety.
//!
//! # JIT-visible storage (DESIGN §6f)
//!
//! Two pieces of storage are laid out so the template JIT can address
//! them directly, without trampolining into this module:
//!
//! * array-map values live in one contiguous [`ArrayArena`] allocation
//!   (entry `i` at byte `i * value_size`), fixed at creation;
//! * each hash map maintains a fixed-size open-addressed
//!   [`HashIndex`] mirroring its key set, kept in sync by
//!   [`MapRegistry::update_in_place`] / [`MapRegistry::delete`].
//!
//! Neither allocation ever moves or resizes after creation, which is the
//! pointer-stability argument that lets the registry build each map's
//! [`MapRuntimeDesc`] once, in [`MapRegistry::create`], and hand the
//! table to every JIT entry ([`MapRegistry::runtime_descs`]): in-place
//! updates, deletes (tombstones), and even index rebuilds rewrite the
//! same allocation. Only a clone has storage of its own, so `Clone`
//! rebuilds the table against the copy.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};

use crate::mapindex::{
    ArrayArena, HashIndex, MapRuntimeDesc, DESC_KIND_ARRAY, DESC_KIND_HASH,
};
use crate::sketch::SketchState;

/// Maximum key size (bytes) of hash maps: keys are stored inline, never on
/// the heap. Every probe map in the methodology uses 4- or 8-byte keys.
pub const MAX_KEY_SIZE: usize = 16;

/// Map kinds supported by the runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MapKind {
    /// Key/value hash map (`BPF_MAP_TYPE_HASH`).
    Hash,
    /// Fixed-size array indexed by `u32` (`BPF_MAP_TYPE_ARRAY`).
    Array,
    /// Byte ring buffer (`BPF_MAP_TYPE_RINGBUF`).
    RingBuf,
    /// Mergeable Top-K heavy-hitter sketch (this runtime's extension;
    /// no kernel equivalent — the closest shape is eHashPipe built on
    /// `BPF_MAP_TYPE_ARRAY`). Updated only through `bpf_sketch_update`;
    /// the generic lookup/update/delete helpers reject it.
    TopkSketch,
}

/// Static definition of a map, fixed at creation time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MapDef {
    /// Kind of map.
    pub kind: MapKind,
    /// Key size in bytes (0 for ring buffers; 4 for arrays).
    pub key_size: u32,
    /// Value size in bytes (capacity granularity for ring buffers).
    pub value_size: u32,
    /// Maximum number of entries (array length / hash capacity / ring slots).
    pub max_entries: u32,
}

impl MapDef {
    /// A hash map with the given key/value sizes.
    pub fn hash(key_size: u32, value_size: u32, max_entries: u32) -> MapDef {
        MapDef {
            kind: MapKind::Hash,
            key_size,
            value_size,
            max_entries,
        }
    }

    /// An array of `max_entries` values (keys are `u32` indices).
    pub fn array(value_size: u32, max_entries: u32) -> MapDef {
        MapDef {
            kind: MapKind::Array,
            key_size: 4,
            value_size,
            max_entries,
        }
    }

    /// A ring buffer holding up to `max_entries` records of `value_size`
    /// bytes each.
    pub fn ring_buf(value_size: u32, max_entries: u32) -> MapDef {
        MapDef {
            kind: MapKind::RingBuf,
            key_size: 0,
            value_size,
            max_entries,
        }
    }

    /// A Top-K heavy-hitter sketch over `key_size`-byte entity keys with
    /// `max_entries` candidate slots. The count-min geometry (rows,
    /// columns) is derived from `max_entries` by
    /// [`sketch_cols`](crate::sketch::sketch_cols); counters are 8-byte
    /// wrapping cells, hence the fixed `value_size`.
    pub fn topk_sketch(key_size: u32, max_entries: u32) -> MapDef {
        MapDef {
            kind: MapKind::TopkSketch,
            key_size,
            value_size: 8,
            max_entries,
        }
    }
}

/// Handle to a created map (the "file descriptor" a program embeds via
/// `ld_map_fd`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MapFd(pub u32);

/// A fixed-capacity inline map key.
///
/// Keys are copied into a `[u8; MAX_KEY_SIZE]` cell instead of a heap
/// `Vec<u8>`, so storing, comparing, and hashing a key never allocates.
/// The padding beyond `len` is always zero, but equality and hashing are
/// defined over the live `as_slice()` prefix only, matching how a borrowed
/// `&[u8]` key hashes — which is what makes `HashMap::get(&[u8])` find
/// entries keyed by `InlineKey` through the `Borrow` impl.
///
/// # Examples
///
/// ```
/// use kscope_ebpf::maps::InlineKey;
///
/// let key = InlineKey::new(&7u64.to_le_bytes());
/// assert_eq!(key.as_slice(), &7u64.to_le_bytes());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct InlineKey {
    len: u8,
    bytes: [u8; MAX_KEY_SIZE],
}

impl InlineKey {
    /// Copies `key` into inline storage.
    ///
    /// # Panics
    ///
    /// Panics if `key` is longer than [`MAX_KEY_SIZE`]; map creation
    /// rejects such definitions, so keys reaching this type always fit.
    pub fn new(key: &[u8]) -> InlineKey {
        assert!(
            key.len() <= MAX_KEY_SIZE,
            "map keys are limited to {MAX_KEY_SIZE} bytes, got {}",
            key.len()
        );
        let mut bytes = [0u8; MAX_KEY_SIZE];
        bytes[..key.len()].copy_from_slice(key);
        InlineKey {
            len: key.len() as u8,
            bytes,
        }
    }

    /// The live key bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.bytes[..self.len as usize]
    }
}

impl PartialEq for InlineKey {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for InlineKey {}

impl Hash for InlineKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        // Must match `<[u8] as Hash>::hash` exactly so lookups by borrowed
        // `&[u8]` hash to the same bucket (the `Borrow` contract).
        self.as_slice().hash(state);
    }
}

impl Borrow<[u8]> for InlineKey {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

/// Deterministic `BuildHasher` for map storage: seeded FNV-1a with a
/// finalizer, identical on every run and platform.
///
/// `std::collections::HashMap`'s default `RandomState` draws a fresh seed
/// per process, which makes iteration order — and therefore map dumps,
/// golden fixtures, and any debug output derived from them — differ
/// between runs. Simulated probes have no hash-flooding adversary, so a
/// fixed seed trades nothing for reproducibility.
#[derive(Debug, Clone, Copy, Default)]
pub struct DetState;

/// FNV-1a offset basis (64-bit).
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime (64-bit).
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
/// Fixed seed folded into the offset basis.
const DET_SEED: u64 = 0x6b73_636f_7065_6d61;

impl BuildHasher for DetState {
    type Hasher = DetHasher;

    fn build_hasher(&self) -> DetHasher {
        DetHasher {
            state: FNV_OFFSET ^ DET_SEED,
        }
    }
}

/// The hasher produced by [`DetState`].
#[derive(Debug, Clone, Copy)]
pub struct DetHasher {
    state: u64,
}

impl Hasher for DetHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state ^ b as u64).wrapping_mul(FNV_PRIME);
        }
    }

    fn finish(&self) -> u64 {
        // FNV mixes the low bits poorly; HashMap keys buckets off the high
        // bits, so run a final avalanche (splitmix64 finalizer).
        let mut x = self.state;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
        x ^= x >> 31;
        x
    }
}

/// Errors returned by map operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MapError {
    /// The fd does not name a live map.
    BadFd(MapFd),
    /// Key length does not match the map definition.
    KeySize {
        /// Expected key size.
        expected: u32,
        /// Provided key size.
        got: usize,
    },
    /// Value length does not match the map definition.
    ValueSize {
        /// Expected value size.
        expected: u32,
        /// Provided value size.
        got: usize,
    },
    /// Array index out of range.
    IndexOutOfBounds {
        /// The offending index.
        index: u32,
        /// The array length.
        len: u32,
    },
    /// Hash map is full.
    Full,
    /// Operation not supported for this map kind.
    WrongKind(MapKind),
}

impl std::fmt::Display for MapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapError::BadFd(fd) => write!(f, "no map with fd {}", fd.0),
            MapError::KeySize { expected, got } => {
                write!(f, "key size mismatch: expected {expected}, got {got}")
            }
            MapError::ValueSize { expected, got } => {
                write!(f, "value size mismatch: expected {expected}, got {got}")
            }
            MapError::IndexOutOfBounds { index, len } => {
                write!(f, "array index {index} out of bounds for length {len}")
            }
            MapError::Full => f.write_str("map is full"),
            MapError::WrongKind(kind) => write!(f, "operation not supported on {kind:?} map"),
        }
    }
}

impl std::error::Error for MapError {}

/// Borrowed `(key, value)` pairs of a hash map, in deterministic
/// iteration order — what [`MapRegistry::hash_entries`] returns.
pub type HashEntries<'a> = Vec<(&'a [u8], &'a [u8])>;

#[derive(Debug, Clone)]
enum MapStorage {
    Hash {
        entries: HashMap<InlineKey, Box<[u8]>, DetState>,
        /// Value cells recycled from deleted entries — the kernel's
        /// preallocated-elements free list, in miniature. `update` pops
        /// here before touching the allocator, so the per-event
        /// store/delete cycle of the `start` map allocates only on its
        /// very first insertions.
        free: Vec<Box<[u8]>>,
        /// Open-addressed key index the JIT's inline lookup probes;
        /// mirrors `entries`' key set exactly (see DESIGN §6f).
        index: HashIndex,
    },
    Array(ArrayArena),
    RingBuf {
        records: std::collections::VecDeque<Vec<u8>>,
        /// Record buffers recycled by `ring_consume` — the ring-buffer
        /// twin of the hash map's free pool. `ring_push` refills these
        /// instead of allocating, so the steady-state produce/consume
        /// cycle performs no heap allocation.
        free: Vec<Vec<u8>>,
        dropped: u64,
    },
    /// Fixed-geometry sketch state: all allocations happen at map
    /// creation, updates touch cells and inline slots in place.
    Sketch(SketchState),
}

#[derive(Debug, Clone)]
struct MapEntry {
    def: MapDef,
    name: String,
    storage: MapStorage,
}

impl MapEntry {
    /// The JIT's runtime shape descriptor for this map's storage.
    fn runtime_desc(&self) -> MapRuntimeDesc {
        match &self.storage {
            MapStorage::Array(arena) => MapRuntimeDesc {
                kind: DESC_KIND_ARRAY,
                key_size: self.def.key_size,
                value_size: self.def.value_size,
                max_entries: self.def.max_entries,
                base: arena.base_ptr() as u64,
                aux: 0,
            },
            MapStorage::Hash { index, .. } => MapRuntimeDesc {
                kind: DESC_KIND_HASH,
                key_size: self.def.key_size,
                value_size: self.def.value_size,
                max_entries: self.def.max_entries,
                base: index.base_ptr() as u64,
                aux: index.mask(),
            },
            // Ring buffers and sketches have no inline fast path; their
            // helpers always take the trampoline.
            MapStorage::RingBuf { .. } | MapStorage::Sketch(_) => MapRuntimeDesc::none(),
        }
    }
}

/// Owns all maps of one eBPF runtime instance.
///
/// # Examples
///
/// ```
/// use kscope_ebpf::maps::{MapDef, MapRegistry};
///
/// let mut maps = MapRegistry::new();
/// let fd = maps.create("start", MapDef::hash(8, 8, 1024));
/// maps.update(fd, &7u64.to_le_bytes(), &99u64.to_le_bytes()).unwrap();
/// let value = maps.lookup(fd, &7u64.to_le_bytes()).unwrap().unwrap();
/// assert_eq!(value, 99u64.to_le_bytes());
/// ```
#[derive(Default)]
pub struct MapRegistry {
    maps: Vec<MapEntry>,
    /// Per-fd runtime shape descriptors for the JIT's inline guards, one
    /// per map, pushed by [`MapRegistry::create`]. The base pointers
    /// inside point at this registry's own storage, which never moves.
    descs: Vec<MapRuntimeDesc>,
}

// Manual impl: a clone's maps have storage of their own, so its
// descriptors must point there, not at the original's.
impl Clone for MapRegistry {
    fn clone(&self) -> MapRegistry {
        let maps = self.maps.clone(); // cold path: registry copy, never per event
        let descs = maps.iter().map(MapEntry::runtime_desc).collect();
        MapRegistry { maps, descs }
    }
}

// Manual impl: `descs` holds host pointers that differ between
// otherwise-identical registries, so it must not leak into debug dumps
// the differential suite compares.
impl std::fmt::Debug for MapRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapRegistry")
            .field("maps", &self.maps)
            .finish_non_exhaustive()
    }
}

impl MapRegistry {
    /// Creates an empty registry.
    pub fn new() -> MapRegistry {
        MapRegistry::default()
    }

    /// Creates a map and returns its fd.
    ///
    /// # Panics
    ///
    /// Panics on degenerate definitions (zero sizes where a size is
    /// required, zero entries, hash keys wider than [`MAX_KEY_SIZE`]).
    pub fn create(&mut self, name: impl Into<String>, def: MapDef) -> MapFd {
        assert!(def.max_entries > 0, "map needs at least one entry");
        assert!(def.value_size > 0, "map values must be non-empty");
        // The interpreter hands out map-value pointers in 1 MiB slots;
        // larger values would alias neighbouring slots.
        assert!(
            def.value_size <= 1 << 20,
            "map values are limited to 1 MiB"
        );
        let storage = match def.kind {
            MapKind::Hash => {
                assert!(def.key_size > 0, "hash maps need non-empty keys");
                assert!(
                    def.key_size as usize <= MAX_KEY_SIZE,
                    "hash keys are limited to {MAX_KEY_SIZE} bytes (inline storage)"
                );
                MapStorage::Hash {
                    // Pre-size the table (bounded, like the kernel's
                    // prealloc) so steady-state inserts never rehash.
                    entries: HashMap::with_capacity_and_hasher(
                        def.max_entries.min(4096) as usize,
                        DetState,
                    ),
                    free: Vec::new(),
                    index: HashIndex::new(def.max_entries),
                }
            }
            MapKind::Array => {
                assert_eq!(def.key_size, 4, "array maps use u32 keys");
                MapStorage::Array(ArrayArena::new(
                    def.value_size as usize,
                    def.max_entries as usize,
                ))
            }
            MapKind::RingBuf => MapStorage::RingBuf {
                records: std::collections::VecDeque::new(),
                free: Vec::new(),
                dropped: 0,
            },
            MapKind::TopkSketch => {
                assert!(def.key_size > 0, "sketch maps need non-empty keys");
                assert!(
                    def.key_size as usize <= MAX_KEY_SIZE,
                    "sketch keys are limited to {MAX_KEY_SIZE} bytes (inline storage)"
                );
                assert_eq!(def.value_size, 8, "sketch counters are 8-byte cells");
                MapStorage::Sketch(SketchState::new(def.key_size, def.max_entries))
            }
        };
        let fd = MapFd(self.maps.len() as u32);
        let entry = MapEntry {
            def,
            name: name.into(),
            storage,
        };
        self.descs.push(entry.runtime_desc());
        self.maps.push(entry);
        fd
    }

    /// The definition of a map.
    ///
    /// # Errors
    ///
    /// Fails with [`MapError::BadFd`] for unknown fds.
    pub fn def(&self, fd: MapFd) -> Result<MapDef, MapError> {
        self.entry(fd).map(|e| e.def)
    }

    /// The name a map was created with.
    ///
    /// # Errors
    ///
    /// Fails with [`MapError::BadFd`] for unknown fds.
    pub fn name(&self, fd: MapFd) -> Result<&str, MapError> {
        self.entry(fd).map(|e| e.name.as_str())
    }

    /// Every map's name and definition, in fd order.
    pub fn defs(&self) -> impl Iterator<Item = (&str, MapDef)> + '_ {
        self.maps.iter().map(|e| (e.name.as_str(), e.def))
    }

    /// A registry with the same maps as this one — same names, same
    /// definitions, same fds — but none of their contents: every map is
    /// as [`MapRegistry::create`] makes it. Programs verified against
    /// this registry are therefore verified against the copy too (the
    /// verifier reads only the definitions).
    pub fn fresh_like(&self) -> MapRegistry {
        let mut fresh = MapRegistry::new();
        for (name, def) in self.defs() {
            fresh.create(name, def);
        }
        fresh
    }

    /// Looks up a map by name (first match).
    pub fn fd_by_name(&self, name: &str) -> Option<MapFd> {
        self.maps
            .iter()
            .position(|e| e.name == name)
            .map(|i| MapFd(i as u32))
    }

    fn entry(&self, fd: MapFd) -> Result<&MapEntry, MapError> {
        self.maps.get(fd.0 as usize).ok_or(MapError::BadFd(fd))
    }

    fn entry_mut(&mut self, fd: MapFd) -> Result<&mut MapEntry, MapError> {
        self.maps.get_mut(fd.0 as usize).ok_or(MapError::BadFd(fd))
    }

    fn check_key(def: &MapDef, key: &[u8]) -> Result<(), MapError> {
        if key.len() != def.key_size as usize {
            return Err(MapError::KeySize {
                expected: def.key_size,
                got: key.len(),
            });
        }
        Ok(())
    }

    /// Decodes an array-map index from a key that `check_key` already
    /// sized: array maps always declare 4-byte keys.
    fn array_index(key: &[u8]) -> u32 {
        match key.try_into() {
            Ok(bytes) => u32::from_le_bytes(bytes),
            Err(_) => unreachable!("check_key verified the 4-byte array key"),
        }
    }

    fn check_value(def: &MapDef, value: &[u8]) -> Result<(), MapError> {
        if value.len() != def.value_size as usize {
            return Err(MapError::ValueSize {
                expected: def.value_size,
                got: value.len(),
            });
        }
        Ok(())
    }

    /// Looks up a value by key; `Ok(None)` when absent.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, key-size mismatches, or ring-buffer maps.
    pub fn lookup(&self, fd: MapFd, key: &[u8]) -> Result<Option<&[u8]>, MapError> {
        let entry = self.entry(fd)?;
        Self::check_key(&entry.def, key)?;
        match &entry.storage {
            MapStorage::Hash { entries, .. } => Ok(entries.get(key).map(|v| &v[..])),
            MapStorage::Array(arena) => {
                // Matches kernel semantics: OOB lookup is NULL (None).
                Ok(arena.get(Self::array_index(key) as usize))
            }
            MapStorage::RingBuf { .. } => Err(MapError::WrongKind(MapKind::RingBuf)),
            MapStorage::Sketch(_) => Err(MapError::WrongKind(MapKind::TopkSketch)),
        }
    }

    /// Mutable access to a value by key; `Ok(None)` when absent.
    ///
    /// This mirrors the in-kernel behaviour where `map_lookup_elem` returns
    /// a writable pointer into the map.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, key-size mismatches, or ring-buffer maps.
    pub fn lookup_mut(&mut self, fd: MapFd, key: &[u8]) -> Result<Option<&mut [u8]>, MapError> {
        let entry = self.entry_mut(fd)?;
        Self::check_key(&entry.def, key)?;
        match &mut entry.storage {
            MapStorage::Hash { entries, .. } => Ok(entries.get_mut(key).map(|v| &mut v[..])),
            MapStorage::Array(arena) => Ok(arena.get_mut(Self::array_index(key) as usize)),
            MapStorage::RingBuf { .. } => Err(MapError::WrongKind(MapKind::RingBuf)),
            MapStorage::Sketch(_) => Err(MapError::WrongKind(MapKind::TopkSketch)),
        }
    }

    /// Inserts or overwrites a key/value pair.
    ///
    /// Equivalent to [`MapRegistry::update_in_place`]; kept as the
    /// long-standing name used by userspace-side code and tests.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, size mismatches, a full hash map, an
    /// out-of-bounds array index, or ring-buffer maps.
    pub fn update(&mut self, fd: MapFd, key: &[u8], value: &[u8]) -> Result<(), MapError> {
        self.update_in_place(fd, key, value)
    }

    /// Inserts or overwrites a key/value pair without allocating on the
    /// overwrite path.
    ///
    /// Existing values are overwritten through a borrowed slice; fresh
    /// hash insertions reuse a value cell recycled from a prior delete
    /// when one is available. This is the interpreter's
    /// `bpf_map_update_elem` entry point — the per-syscall hot path.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, size mismatches, a full hash map, an
    /// out-of-bounds array index, or ring-buffer maps.
    pub fn update_in_place(&mut self, fd: MapFd, key: &[u8], value: &[u8]) -> Result<(), MapError> {
        let entry = self.entry_mut(fd)?;
        Self::check_key(&entry.def, key)?;
        Self::check_value(&entry.def, value)?;
        let def = entry.def;
        match &mut entry.storage {
            MapStorage::Hash {
                entries,
                free,
                index,
            } => {
                if let Some(slot) = entries.get_mut(key) {
                    slot.copy_from_slice(value);
                    return Ok(());
                }
                if entries.len() as u32 >= def.max_entries {
                    return Err(MapError::Full);
                }
                let cell = match free.pop() {
                    Some(mut cell) => {
                        cell.copy_from_slice(value);
                        cell
                    }
                    // First-ever insertion for this cell count: the one
                    // allocation each live entry costs over a map's life.
                    None => Box::from(value),
                };
                entries.insert(InlineKey::new(key), cell);
                index.insert(key);
                Ok(())
            }
            MapStorage::Array(arena) => {
                let index = Self::array_index(key);
                match arena.get_mut(index as usize) {
                    Some(slot) => {
                        slot.copy_from_slice(value);
                        Ok(())
                    }
                    None => Err(MapError::IndexOutOfBounds {
                        index,
                        len: def.max_entries,
                    }),
                }
            }
            MapStorage::RingBuf { .. } => Err(MapError::WrongKind(MapKind::RingBuf)),
            MapStorage::Sketch(_) => Err(MapError::WrongKind(MapKind::TopkSketch)),
        }
    }

    /// Deletes a key from a hash map. `Ok(false)` when the key was absent.
    ///
    /// The deleted value's cell is recycled for future insertions rather
    /// than freed, so a store/delete cycle does not churn the allocator.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, size mismatches, or non-hash maps (array elements
    /// cannot be deleted, as in the kernel).
    pub fn delete(&mut self, fd: MapFd, key: &[u8]) -> Result<bool, MapError> {
        let entry = self.entry_mut(fd)?;
        Self::check_key(&entry.def, key)?;
        match &mut entry.storage {
            MapStorage::Hash {
                entries,
                free,
                index,
            } => match entries.remove(key) {
                Some(cell) => {
                    free.push(cell);
                    index.remove(key);
                    if index.needs_rebuild() {
                        // In place (same allocation): base pointers held
                        // by an in-flight JIT context stay valid.
                        index.rebuild(entries.keys().map(|k| k.as_slice()));
                    }
                    Ok(true)
                }
                None => Ok(false),
            },
            MapStorage::Array(_) => Err(MapError::WrongKind(MapKind::Array)),
            MapStorage::RingBuf { .. } => Err(MapError::WrongKind(MapKind::RingBuf)),
            MapStorage::Sketch(_) => Err(MapError::WrongKind(MapKind::TopkSketch)),
        }
    }

    /// All live entries of a hash map, in the map's (deterministic)
    /// iteration order — the same order on every run and platform thanks
    /// to [`DetState`].
    ///
    /// # Errors
    ///
    /// Fails on bad fds or non-hash maps.
    pub fn hash_entries(&self, fd: MapFd) -> Result<HashEntries<'_>, MapError> {
        let entry = self.entry(fd)?;
        match &entry.storage {
            MapStorage::Hash { entries, .. } => Ok(entries
                .iter()
                .map(|(k, v)| (k.as_slice(), &v[..]))
                .collect()),
            _ => Err(MapError::WrongKind(entry.def.kind)),
        }
    }

    /// Appends a record to a ring buffer, dropping it (and counting the
    /// drop) when the buffer is full. Returns `true` when stored.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, non-ringbuf maps, or oversized records.
    pub fn ring_push(&mut self, fd: MapFd, record: &[u8]) -> Result<bool, MapError> {
        let entry = self.entry_mut(fd)?;
        let def = entry.def;
        if record.len() > def.value_size as usize {
            return Err(MapError::ValueSize {
                expected: def.value_size,
                got: record.len(),
            });
        }
        match &mut entry.storage {
            MapStorage::RingBuf {
                records,
                free,
                dropped,
            } => {
                if records.len() as u32 >= def.max_entries {
                    *dropped += 1;
                    Ok(false)
                } else {
                    let mut cell = match free.pop() {
                        Some(cell) => cell,
                        // First fill of this slot: the one allocation it
                        // costs over the map's life. The capacity covers
                        // any legal record, so recycled cells never grow.
                        None => Vec::with_capacity(def.value_size as usize),
                    };
                    cell.clear();
                    cell.extend_from_slice(record);
                    records.push_back(cell);
                    Ok(true)
                }
            }
            other => Err(MapError::WrongKind(match other {
                MapStorage::Hash { .. } => MapKind::Hash,
                MapStorage::Array(_) => MapKind::Array,
                MapStorage::Sketch(_) => MapKind::TopkSketch,
                MapStorage::RingBuf { .. } => unreachable!(),
            })),
        }
    }

    /// Consumes all pending ring-buffer records in FIFO order without
    /// allocating: each record is passed to `consume` by reference, and
    /// its buffer is recycled into the free pool for future pushes. This
    /// is the userspace consumer's hot path — the analogue of walking the
    /// mmap'd producer pages in place — and together with the recycling
    /// `ring_push` it makes the steady-state produce/consume cycle
    /// allocation-free. Returns how many records were consumed.
    ///
    /// # Errors
    ///
    /// Fails on bad fds or non-ringbuf maps.
    pub fn ring_consume<F>(&mut self, fd: MapFd, mut consume: F) -> Result<usize, MapError>
    where
        F: FnMut(&[u8]),
    {
        let entry = self.entry_mut(fd)?;
        match &mut entry.storage {
            MapStorage::RingBuf { records, free, .. } => {
                let mut consumed = 0;
                while let Some(cell) = records.pop_front() {
                    consume(&cell);
                    free.push(cell);
                    consumed += 1;
                }
                Ok(consumed)
            }
            _ => Err(MapError::WrongKind(entry.def.kind)),
        }
    }

    /// Drains all pending ring-buffer records as owned buffers.
    ///
    /// The drained cells leave the map (and its free pool) for good, so
    /// every later push re-allocates; prefer [`MapRegistry::ring_consume`]
    /// on any recurring path.
    ///
    /// # Errors
    ///
    /// Fails on bad fds or non-ringbuf maps.
    pub fn ring_drain(&mut self, fd: MapFd) -> Result<Vec<Vec<u8>>, MapError> {
        let entry = self.entry_mut(fd)?;
        match &mut entry.storage {
            MapStorage::RingBuf { records, .. } => Ok(records.drain(..).collect()),
            _ => Err(MapError::WrongKind(entry.def.kind)),
        }
    }

    /// Number of records dropped because the ring buffer was full.
    ///
    /// # Errors
    ///
    /// Fails on bad fds or non-ringbuf maps.
    pub fn ring_dropped(&self, fd: MapFd) -> Result<u64, MapError> {
        let entry = self.entry(fd)?;
        match &entry.storage {
            MapStorage::RingBuf { dropped, .. } => Ok(*dropped),
            _ => Err(MapError::WrongKind(entry.def.kind)),
        }
    }

    /// Number of live entries in a hash map, or the fixed length of an
    /// array.
    ///
    /// # Errors
    ///
    /// Fails on bad fds.
    pub fn len(&self, fd: MapFd) -> Result<u32, MapError> {
        let entry = self.entry(fd)?;
        Ok(match &entry.storage {
            MapStorage::Hash { entries, .. } => entries.len() as u32,
            MapStorage::Array(arena) => arena.len() as u32,
            MapStorage::RingBuf { records, .. } => records.len() as u32,
            MapStorage::Sketch(state) => state.candidate_len(),
        })
    }

    /// Folds `weight` for `key` into a Top-K sketch map — the
    /// `bpf_sketch_update` entry point. Zero-allocation: the sketch's
    /// cells and candidate slots are fixed at map creation and updated
    /// in place.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, key-size mismatches, or non-sketch maps.
    pub fn sketch_update(&mut self, fd: MapFd, key: &[u8], weight: u64) -> Result<(), MapError> {
        let entry = self.entry_mut(fd)?;
        Self::check_key(&entry.def, key)?;
        let kind = entry.def.kind;
        match &mut entry.storage {
            MapStorage::Sketch(state) => {
                state.update(key, weight);
                Ok(())
            }
            _ => Err(MapError::WrongKind(kind)),
        }
    }

    /// Borrows the state of a Top-K sketch map — the userspace read
    /// side: a host agent clones this into its report envelope.
    ///
    /// # Errors
    ///
    /// Fails on bad fds or non-sketch maps.
    pub fn sketch_state(&self, fd: MapFd) -> Result<&SketchState, MapError> {
        let entry = self.entry(fd)?;
        match &entry.storage {
            MapStorage::Sketch(state) => Ok(state),
            _ => Err(MapError::WrongKind(entry.def.kind)),
        }
    }

    /// The per-fd [`MapRuntimeDesc`] table's base pointer and length, for
    /// a JIT context to guard inline map accesses against. The table is
    /// built as maps are created, and the descriptors (and the base
    /// pointers inside them) stay valid for the registry's lifetime
    /// because every storage allocation they reference is fixed at map
    /// creation and only ever rewritten in place.
    pub fn runtime_descs(&self) -> (*const MapRuntimeDesc, usize) {
        (self.descs.as_ptr(), self.descs.len())
    }

    /// Convenience: reads a `u64` from an array map slot.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, non-array maps, out-of-range slots, or values
    /// narrower than 8 bytes.
    pub fn array_u64(&self, fd: MapFd, slot: u32) -> Result<u64, MapError> {
        let key = slot.to_le_bytes();
        let value = self
            .lookup(fd, &key)?
            .ok_or(MapError::IndexOutOfBounds {
                index: slot,
                len: self.def(fd)?.max_entries,
            })?;
        if value.len() < 8 {
            return Err(MapError::ValueSize {
                expected: 8,
                got: value.len(),
            });
        }
        match value[..8].try_into() {
            Ok(bytes) => Ok(u64::from_le_bytes(bytes)),
            Err(_) => unreachable!("an 8-byte slice converts to [u8; 8]"),
        }
    }

    /// Convenience: writes a `u64` into an array map slot.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`MapRegistry::array_u64`].
    pub fn set_array_u64(&mut self, fd: MapFd, slot: u32, value: u64) -> Result<(), MapError> {
        let def = self.def(fd)?;
        if def.value_size != 8 {
            return Err(MapError::ValueSize {
                expected: 8,
                got: def.value_size as usize,
            });
        }
        self.update(fd, &slot.to_le_bytes(), &value.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hash_lookup_update_delete() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("h", MapDef::hash(4, 4, 2));
        assert_eq!(maps.lookup(fd, &[0; 4]).unwrap(), None);
        maps.update(fd, &[0; 4], &[1; 4]).unwrap();
        assert_eq!(maps.lookup(fd, &[0; 4]).unwrap(), Some(&[1u8; 4][..]));
        assert!(maps.delete(fd, &[0; 4]).unwrap());
        assert!(!maps.delete(fd, &[0; 4]).unwrap());
    }

    #[test]
    fn hash_capacity_enforced() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("h", MapDef::hash(1, 1, 2));
        maps.update(fd, &[1], &[1]).unwrap();
        maps.update(fd, &[2], &[2]).unwrap();
        assert_eq!(maps.update(fd, &[3], &[3]), Err(MapError::Full));
        // Overwriting an existing key still works at capacity.
        maps.update(fd, &[1], &[9]).unwrap();
        assert_eq!(maps.len(fd).unwrap(), 2);
    }

    #[test]
    fn store_delete_cycle_recycles_cells() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("start", MapDef::hash(8, 8, 4));
        // The enter/exit probe pattern: store, read, delete, repeat.
        for i in 0..1000u64 {
            let key = i.to_le_bytes();
            maps.update(fd, &key, &(i * 3).to_le_bytes()).unwrap();
            assert_eq!(
                maps.lookup(fd, &key).unwrap(),
                Some(&(i * 3).to_le_bytes()[..])
            );
            assert!(maps.delete(fd, &key).unwrap());
        }
        assert_eq!(maps.len(fd).unwrap(), 0);
    }

    #[test]
    fn update_in_place_overwrites_existing_values() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("h", MapDef::hash(4, 8, 4));
        maps.update_in_place(fd, &[9, 0, 0, 0], &1u64.to_le_bytes()).unwrap();
        maps.update_in_place(fd, &[9, 0, 0, 0], &2u64.to_le_bytes()).unwrap();
        assert_eq!(
            maps.lookup(fd, &[9, 0, 0, 0]).unwrap().unwrap(),
            2u64.to_le_bytes()
        );
        assert_eq!(maps.len(fd).unwrap(), 1);
    }

    #[test]
    fn hash_iteration_order_is_deterministic() {
        let build = || {
            let mut maps = MapRegistry::new();
            let fd = maps.create("h", MapDef::hash(8, 8, 64));
            for i in (0..32u64).rev() {
                maps.update(fd, &i.to_le_bytes(), &(i ^ 0xFF).to_le_bytes())
                    .unwrap();
            }
            let dump: Vec<(Vec<u8>, Vec<u8>)> = maps
                .hash_entries(fd)
                .unwrap()
                .into_iter()
                .map(|(k, v)| (k.to_vec(), v.to_vec()))
                .collect();
            dump
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "same insertions must iterate identically");
        assert_eq!(a.len(), 32);
    }

    #[test]
    fn inline_key_matches_borrowed_slices() {
        let key = InlineKey::new(&[1, 2, 3]);
        assert_eq!(key.as_slice(), &[1, 2, 3]);
        assert_eq!(key, InlineKey::new(&[1, 2, 3]));
        assert_ne!(key, InlineKey::new(&[1, 2, 3, 0]));
        let borrowed: &[u8] = key.borrow();
        assert_eq!(borrowed, &[1, 2, 3]);
        // Hashing an InlineKey and its borrowed slice must agree (the
        // HashMap `Borrow` lookup contract).
        let hash = |h: &dyn Fn(&mut DetHasher)| {
            let mut state = DetState.build_hasher();
            h(&mut state);
            state.finish()
        };
        let a = hash(&|s| key.hash(s));
        let b = hash(&|s| [1u8, 2, 3].as_slice().hash(s));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "limited to 16 bytes")]
    fn oversized_hash_keys_rejected_at_create() {
        let mut maps = MapRegistry::new();
        maps.create("wide", MapDef::hash(17, 8, 4));
    }

    #[test]
    fn array_semantics() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("a", MapDef::array(8, 4));
        // Array slots are zero-initialized.
        assert_eq!(maps.array_u64(fd, 0).unwrap(), 0);
        maps.set_array_u64(fd, 3, 42).unwrap();
        assert_eq!(maps.array_u64(fd, 3).unwrap(), 42);
        // Out-of-bounds lookup is None (NULL), update is an error.
        assert_eq!(maps.lookup(fd, &4u32.to_le_bytes()).unwrap(), None);
        assert!(matches!(
            maps.update(fd, &4u32.to_le_bytes(), &[0; 8]),
            Err(MapError::IndexOutOfBounds { .. })
        ));
        // Deleting array entries is not a thing.
        assert!(matches!(
            maps.delete(fd, &0u32.to_le_bytes()),
            Err(MapError::WrongKind(MapKind::Array))
        ));
    }

    #[test]
    #[allow(unsafe_code)] // reads the raw descriptor table like JIT code does
    fn runtime_descs_report_shapes_and_stable_bases() {
        use crate::mapindex::{DESC_KIND_ARRAY, DESC_KIND_HASH, DESC_KIND_NONE};
        let mut maps = MapRegistry::new();
        let h = maps.create("h", MapDef::hash(8, 8, 1024));
        let a = maps.create("a", MapDef::array(8, 4));
        let r = maps.create("r", MapDef::ring_buf(8, 2));
        let read = |maps: &MapRegistry| -> Vec<MapRuntimeDesc> {
            let (ptr, len) = maps.runtime_descs();
            (0..len).map(|i| unsafe { *ptr.add(i) }).collect()
        };
        let descs = read(&maps);
        assert_eq!(descs.len(), 3);
        assert_eq!(descs[h.0 as usize].kind, DESC_KIND_HASH);
        assert_eq!(descs[h.0 as usize].key_size, 8);
        assert!(descs[h.0 as usize].aux >= 2047, "mask covers 2x entries");
        assert_eq!(descs[a.0 as usize].kind, DESC_KIND_ARRAY);
        assert_eq!(descs[a.0 as usize].value_size, 8);
        assert_eq!(descs[a.0 as usize].max_entries, 4);
        assert_eq!(descs[r.0 as usize].kind, DESC_KIND_NONE);
        // In-place churn (with index rebuilds) must not move any base
        // pointer: the table built at creation still matches one built
        // from the live storage now.
        for i in 0..1000u64 {
            maps.update(h, &i.to_le_bytes(), &i.to_le_bytes()).unwrap();
            maps.delete(h, &i.to_le_bytes()).unwrap();
            maps.set_array_u64(a, (i % 4) as u32, i).unwrap();
        }
        let live: Vec<MapRuntimeDesc> = maps.maps.iter().map(MapEntry::runtime_desc).collect();
        for (built, now) in read(&maps).iter().zip(&live) {
            assert_eq!(
                (built.kind, built.base, built.aux),
                (now.kind, now.base, now.aux)
            );
        }
        // A clone's table points at the clone's own storage.
        let copy = maps.clone();
        let copied = read(&copy);
        for (fd, entry) in copy.maps.iter().enumerate() {
            let own = entry.runtime_desc();
            assert_eq!((copied[fd].kind, copied[fd].base), (own.kind, own.base));
        }
        assert_ne!(copied[h.0 as usize].base, descs[h.0 as usize].base);
        assert_ne!(copied[a.0 as usize].base, descs[a.0 as usize].base);
    }

    #[test]
    fn hash_index_mirrors_entries_under_churn() {
        use crate::mapindex::HomeProbe;
        let mut maps = MapRegistry::new();
        let fd = maps.create("start", MapDef::hash(8, 8, 64));
        let probe = |maps: &MapRegistry, key: &[u8]| {
            let Some(MapEntry {
                storage: MapStorage::Hash { index, .. },
                ..
            }) = maps.maps.first()
            else {
                panic!("hash map expected");
            };
            index.home_probe(key)
        };
        for i in 0..2000u64 {
            let key = (i % 96).to_le_bytes();
            maps.update(fd, &key, &i.to_le_bytes()).unwrap();
            // Present keys must never probe as a definitive miss...
            assert_ne!(probe(&maps, &key), HomeProbe::Miss, "key {i}");
            maps.delete(fd, &key).unwrap();
            // ...and deleted keys must never probe as a definitive hit.
            assert_ne!(probe(&maps, &key), HomeProbe::Hit, "key {i}");
        }
        assert_eq!(maps.len(fd).unwrap(), 0);
    }

    #[test]
    fn key_and_value_sizes_validated() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("h", MapDef::hash(8, 8, 8));
        assert!(matches!(
            maps.lookup(fd, &[0; 4]),
            Err(MapError::KeySize { expected: 8, got: 4 })
        ));
        assert!(matches!(
            maps.update(fd, &[0; 8], &[0; 2]),
            Err(MapError::ValueSize { expected: 8, got: 2 })
        ));
    }

    #[test]
    fn lookup_mut_writes_through() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("h", MapDef::hash(4, 8, 8));
        maps.update(fd, &[7, 0, 0, 0], &[0; 8]).unwrap();
        {
            let value = maps.lookup_mut(fd, &[7, 0, 0, 0]).unwrap().unwrap();
            value.copy_from_slice(&123u64.to_le_bytes());
        }
        assert_eq!(
            maps.lookup(fd, &[7, 0, 0, 0]).unwrap().unwrap(),
            123u64.to_le_bytes()
        );
    }

    #[test]
    fn ring_buffer_push_drain_drop() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("rb", MapDef::ring_buf(16, 2));
        assert!(maps.ring_push(fd, b"one").unwrap());
        assert!(maps.ring_push(fd, b"two").unwrap());
        assert!(!maps.ring_push(fd, b"three").unwrap());
        assert_eq!(maps.ring_dropped(fd).unwrap(), 1);
        let drained = maps.ring_drain(fd).unwrap();
        assert_eq!(drained, vec![b"one".to_vec(), b"two".to_vec()]);
        assert!(maps.ring_push(fd, b"four").unwrap());
    }

    #[test]
    fn ring_consume_walks_fifo_and_recycles() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("rb", MapDef::ring_buf(16, 4));
        // Many push/consume cycles through a pool of at most 4 cells: the
        // free list keeps the cycle going without unbounded growth.
        for round in 0..100u8 {
            assert!(maps.ring_push(fd, &[round, 1]).unwrap());
            assert!(maps.ring_push(fd, &[round, 2]).unwrap());
            let mut seen = Vec::new();
            let consumed = maps
                .ring_consume(fd, |record| seen.push(record.to_vec()))
                .unwrap();
            assert_eq!(consumed, 2);
            assert_eq!(seen, vec![vec![round, 1], vec![round, 2]]);
        }
        assert_eq!(maps.ring_dropped(fd).unwrap(), 0);
        // An empty ring consumes nothing.
        assert_eq!(maps.ring_consume(fd, |_| panic!("empty")).unwrap(), 0);
        // Recycled cells must not leak a previous record's bytes.
        assert!(maps.ring_push(fd, b"tiny").unwrap());
        maps.ring_consume(fd, |record| assert_eq!(record, b"tiny"))
            .unwrap();
    }

    #[test]
    fn ring_consume_rejects_non_ring_maps() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("h", MapDef::hash(4, 4, 2));
        assert!(matches!(
            maps.ring_consume(fd, |_| {}),
            Err(MapError::WrongKind(MapKind::Hash))
        ));
    }

    #[test]
    fn ring_buffer_rejects_map_ops() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("rb", MapDef::ring_buf(8, 2));
        assert!(matches!(
            maps.lookup(fd, &[]),
            Err(MapError::WrongKind(MapKind::RingBuf))
        ));
        assert!(matches!(
            maps.hash_entries(fd),
            Err(MapError::WrongKind(MapKind::RingBuf))
        ));
    }

    #[test]
    fn sketch_update_and_read_back() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("topk", MapDef::topk_sketch(8, 8));
        assert_eq!(maps.len(fd).unwrap(), 0);
        for i in 0..20u64 {
            maps.sketch_update(fd, &(i % 3).to_le_bytes(), 2).unwrap();
        }
        let state = maps.sketch_state(fd).unwrap();
        assert!(state.estimate(&0u64.to_le_bytes()) >= 14);
        assert_eq!(state.total_weight(), 40);
        assert!(maps.len(fd).unwrap() >= 1);
    }

    #[test]
    fn sketch_rejects_generic_map_ops() {
        let mut maps = MapRegistry::new();
        let fd = maps.create("topk", MapDef::topk_sketch(8, 8));
        let key = 1u64.to_le_bytes();
        assert!(matches!(
            maps.lookup(fd, &key),
            Err(MapError::WrongKind(MapKind::TopkSketch))
        ));
        assert!(matches!(
            maps.update(fd, &key, &[0; 8]),
            Err(MapError::WrongKind(MapKind::TopkSketch))
        ));
        assert!(matches!(
            maps.delete(fd, &key),
            Err(MapError::WrongKind(MapKind::TopkSketch))
        ));
        assert!(matches!(
            maps.ring_push(fd, &[0; 8]),
            Err(MapError::WrongKind(MapKind::TopkSketch))
        ));
        // And the other kinds reject sketch ops.
        let h = maps.create("h", MapDef::hash(8, 8, 4));
        assert!(matches!(
            maps.sketch_update(h, &key, 1),
            Err(MapError::WrongKind(MapKind::Hash))
        ));
        assert!(matches!(
            maps.sketch_state(h),
            Err(MapError::WrongKind(MapKind::Hash))
        ));
    }

    #[test]
    fn sketch_runtime_desc_has_no_fast_path() {
        use crate::mapindex::DESC_KIND_NONE;
        let mut maps = MapRegistry::new();
        let fd = maps.create("topk", MapDef::topk_sketch(8, 16));
        let (ptr, len) = maps.runtime_descs();
        assert_eq!(len, 1);
        assert!(!ptr.is_null());
        // Safe read through the registry-owned cache.
        let desc = maps.descs[fd.0 as usize];
        assert_eq!(desc.kind, DESC_KIND_NONE);
    }

    #[test]
    fn fd_by_name_finds_map() {
        let mut maps = MapRegistry::new();
        let a = maps.create("alpha", MapDef::array(8, 1));
        let b = maps.create("beta", MapDef::array(8, 1));
        assert_eq!(maps.fd_by_name("alpha"), Some(a));
        assert_eq!(maps.fd_by_name("beta"), Some(b));
        assert_eq!(maps.fd_by_name("gamma"), None);
        assert_eq!(maps.name(a).unwrap(), "alpha");
    }

    #[test]
    fn fresh_like_copies_the_layout_but_not_the_contents() {
        let mut maps = MapRegistry::new();
        let h = maps.create("h", MapDef::hash(8, 8, 16));
        let a = maps.create("a", MapDef::array(8, 2));
        let s = maps.create("s", MapDef::topk_sketch(8, 4));
        maps.update(h, &1u64.to_le_bytes(), &2u64.to_le_bytes())
            .unwrap();
        maps.set_array_u64(a, 1, 7).unwrap();
        maps.sketch_update(s, &3u64.to_le_bytes(), 1).unwrap();

        let fresh = maps.fresh_like();
        assert!(fresh.defs().eq(maps.defs()));
        assert_eq!(fresh.len(h).unwrap(), 0);
        assert_eq!(fresh.array_u64(a, 1).unwrap(), 0);
        assert_eq!(fresh.sketch_state(s).unwrap().update_count(), 0);
        // The source keeps its contents.
        assert_eq!(maps.array_u64(a, 1).unwrap(), 7);
    }

    #[test]
    fn bad_fd_errors() {
        let maps = MapRegistry::new();
        let err = maps.def(MapFd(9)).unwrap_err();
        assert_eq!(err, MapError::BadFd(MapFd(9)));
        assert!(err.to_string().contains("fd 9"));
    }
}
