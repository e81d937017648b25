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
//! `map_delete_elem` on every traced event) performs no heap allocation
//! once a map's key set stops growing:
//!
//! * a hash map is one [`HashIndex`]: an open-addressed slot array with
//!   keys stored inline (the cap is [`MAX_KEY_SIZE`] = 16, enforced at
//!   map creation) and a parallel value arena. A delete leaves a
//!   tombstone the next insert on its chain reuses, so the enter-store /
//!   exit-delete cycle of the `start` map touches the same slot forever;
//! * the table is sized by content, not by `max_entries`: it doubles only
//!   while the number of slots in use climbs, and compacts tombstones in
//!   place;
//! * [`MapRegistry::update_in_place`] overwrites existing values through a
//!   borrowed slice instead of inserting fresh ones;
//! * ring-buffer records are written into cells recycled from
//!   [`MapRegistry::ring_consume`]'s free pool, so the streaming
//!   produce/consume cycle (`ring_push` → `ring_consume`) allocates only
//!   while the ring is growing toward its high-water mark.
//!
//! Slots follow a fixed hash, so iteration and dump order are
//! reproducible across runs and platforms — a requirement for golden
//! fixtures, not just a nicety.
//!
//! # JIT-visible storage (DESIGN §6f)
//!
//! Array-map values live in one contiguous [`ArrayArena`] (entry `i` at
//! byte `i * value_size`), fixed at creation; a hash map's [`HashIndex`]
//! slot array is probed by the JIT's inline lookup exactly as
//! [`MapRegistry::lookup`] probes it. The registry builds each map's
//! [`MapRuntimeDesc`] in [`MapRegistry::create`] and hands the table to
//! every JIT entry ([`MapRegistry::runtime_descs`]). A hash table moves
//! when it grows, and the insert that grew it republishes the map's
//! descriptor in place; JIT code reads the descriptor at every lookup
//! site, so it always probes the live table. A clone has storage of its
//! own, so `Clone` rebuilds the table against the copy.

use crate::mapindex::{
    ArrayArena, DescCell, HashIndex, MapRuntimeDesc, DESC_KIND_ARRAY, DESC_KIND_HASH,
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
    /// Keys, values and the JIT-visible slot array, in one table.
    Hash {
        table: HashIndex,
    },
    Array(ArrayArena),
    RingBuf {
        records: std::collections::VecDeque<Vec<u8>>,
        /// Record buffers recycled by `ring_consume`. `ring_push`
        /// refills these instead of allocating, so the steady-state
        /// produce/consume cycle performs no heap allocation.
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
            MapStorage::Hash { table } => MapRuntimeDesc {
                kind: DESC_KIND_HASH,
                key_size: self.def.key_size,
                value_size: self.def.value_size,
                max_entries: self.def.max_entries,
                base: table.base_ptr() as u64,
                aux: table.mask(),
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
    /// per map, pushed by [`MapRegistry::create`] and republished in
    /// place whenever a hash table moves. Cells, because JIT code holds
    /// a pointer to this table while a helper it calls rewrites an entry
    /// (see [`MapRegistry::runtime_descs`]).
    descs: Vec<DescCell>,
}

// Manual impl: a clone's maps have storage of their own, so its
// descriptors must point there, not at the original's.
impl Clone for MapRegistry {
    fn clone(&self) -> MapRegistry {
        let maps = self.maps.clone(); // cold path: registry copy, never per event
        let descs = maps
            .iter()
            .map(|e| DescCell::new(e.runtime_desc()))
            .collect();
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
        assert!(def.value_size <= 1 << 20, "map values are limited to 1 MiB");
        let storage = match def.kind {
            MapKind::Hash => {
                assert!(def.key_size > 0, "hash maps need non-empty keys");
                assert!(
                    def.key_size as usize <= MAX_KEY_SIZE,
                    "hash keys are limited to {MAX_KEY_SIZE} bytes (inline storage)"
                );
                MapStorage::Hash {
                    table: HashIndex::new(def.value_size, def.max_entries),
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
        self.descs.push(DescCell::new(entry.runtime_desc()));
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
            MapStorage::Hash { table } => Ok(table.get(key)),
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
            MapStorage::Hash { table } => Ok(table.get_mut(key)),
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
    /// Existing values are overwritten in place. A fresh hash key takes a
    /// slot of the map's table, which grows (and moves) only when the
    /// key would push it past its load bound; the map's runtime
    /// descriptor is then republished. This is the interpreter's
    /// `bpf_map_update_elem` entry point — the per-syscall hot path.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, size mismatches, a full hash map, an
    /// out-of-bounds array index, or ring-buffer maps.
    pub fn update_in_place(&mut self, fd: MapFd, key: &[u8], value: &[u8]) -> Result<(), MapError> {
        let entry = self
            .maps
            .get_mut(fd.0 as usize)
            .ok_or(MapError::BadFd(fd))?;
        Self::check_key(&entry.def, key)?;
        Self::check_value(&entry.def, value)?;
        let def = entry.def;
        match &mut entry.storage {
            MapStorage::Hash { table } => {
                let base = table.base_ptr();
                table.insert(key, value)?;
                if table.base_ptr() != base {
                    // The table grew, so it moved: republish it.
                    if let Some(desc) = self.descs.get(fd.0 as usize) {
                        desc.publish(table.base_ptr() as u64, table.mask());
                    }
                }
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
    /// The table never moves on delete; the key's slot becomes a
    /// tombstone (or empty again) that a later insert reuses.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, size mismatches, or non-hash maps (array elements
    /// cannot be deleted, as in the kernel).
    pub fn delete(&mut self, fd: MapFd, key: &[u8]) -> Result<bool, MapError> {
        let entry = self.entry_mut(fd)?;
        Self::check_key(&entry.def, key)?;
        match &mut entry.storage {
            MapStorage::Hash { table } => Ok(table.remove(key)),
            MapStorage::Array(_) => Err(MapError::WrongKind(MapKind::Array)),
            MapStorage::RingBuf { .. } => Err(MapError::WrongKind(MapKind::RingBuf)),
            MapStorage::Sketch(_) => Err(MapError::WrongKind(MapKind::TopkSketch)),
        }
    }

    /// All live entries of a hash map in slot order — the same order on
    /// every run and platform, since slots follow a fixed hash.
    ///
    /// # Errors
    ///
    /// Fails on bad fds or non-hash maps.
    pub fn hash_entries(&self, fd: MapFd) -> Result<HashEntries<'_>, MapError> {
        let entry = self.entry(fd)?;
        match &entry.storage {
            MapStorage::Hash { table } => Ok(table.iter().collect()),
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
            MapStorage::Hash { table } => table.live() as u32,
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
    /// a JIT context to guard inline map accesses against. The table never
    /// moves after the last [`MapRegistry::create`], but an insert that
    /// grows a hash table rewrites that map's entry — possibly from a
    /// helper the JIT code called while holding this pointer. That is
    /// sound: the entries are atomic cells (a write through `&self` is a
    /// permitted interior mutation), helpers run on the JIT code's own
    /// thread, and JIT code re-reads `base`/`aux` at every lookup site and
    /// keeps no table pointer across a helper call. Map-value pointers are
    /// slot handles resolved by key on every access, never table pointers.
    pub fn runtime_descs(&self) -> (*const MapRuntimeDesc, usize) {
        (
            self.descs.as_ptr().cast::<MapRuntimeDesc>(),
            self.descs.len(),
        )
    }

    /// Convenience: reads a `u64` from an array map slot.
    ///
    /// # Errors
    ///
    /// Fails on bad fds, non-array maps, out-of-range slots, or values
    /// narrower than 8 bytes.
    pub fn array_u64(&self, fd: MapFd, slot: u32) -> Result<u64, MapError> {
        let key = slot.to_le_bytes();
        let value = self.lookup(fd, &key)?.ok_or(MapError::IndexOutOfBounds {
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
        maps.update_in_place(fd, &[9, 0, 0, 0], &1u64.to_le_bytes())
            .unwrap();
        maps.update_in_place(fd, &[9, 0, 0, 0], &2u64.to_le_bytes())
            .unwrap();
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
    fn runtime_descs_follow_relayouts_and_clones() {
        use crate::mapindex::{DESC_KIND_ARRAY, DESC_KIND_HASH, DESC_KIND_NONE, HASH_MIN_SLOTS};
        let mut maps = MapRegistry::new();
        let h = maps.create("h", MapDef::hash(8, 8, 1024));
        let a = maps.create("a", MapDef::array(8, 4));
        let r = maps.create("r", MapDef::ring_buf(8, 2));
        let read = |maps: &MapRegistry| -> Vec<MapRuntimeDesc> {
            let (ptr, len) = maps.runtime_descs();
            (0..len).map(|i| unsafe { *ptr.add(i) }).collect()
        };
        let live = |maps: &MapRegistry| -> Vec<MapRuntimeDesc> {
            maps.maps.iter().map(MapEntry::runtime_desc).collect()
        };
        let same = |x: &[MapRuntimeDesc], y: &[MapRuntimeDesc]| {
            assert_eq!(x.len(), y.len());
            for (x, y) in x.iter().zip(y) {
                assert_eq!(
                    (
                        x.kind,
                        x.key_size,
                        x.value_size,
                        x.max_entries,
                        x.base,
                        x.aux
                    ),
                    (
                        y.kind,
                        y.key_size,
                        y.value_size,
                        y.max_entries,
                        y.base,
                        y.aux
                    )
                );
            }
        };
        let descs = read(&maps);
        assert_eq!(descs.len(), 3);
        assert_eq!(descs[h.0 as usize].kind, DESC_KIND_HASH);
        assert_eq!(descs[h.0 as usize].key_size, 8);
        assert_eq!(
            descs[h.0 as usize].aux,
            HASH_MIN_SLOTS as u64 - 1,
            "sized by content"
        );
        assert_eq!(descs[a.0 as usize].kind, DESC_KIND_ARRAY);
        assert_eq!(descs[a.0 as usize].value_size, 8);
        assert_eq!(descs[a.0 as usize].max_entries, 4);
        assert_eq!(descs[r.0 as usize].kind, DESC_KIND_NONE);
        // Growth moves the table: the published descriptor follows it.
        for i in 0..600u64 {
            maps.update(h, &i.to_le_bytes(), &i.to_le_bytes()).unwrap();
            maps.set_array_u64(a, (i % 4) as u32, i).unwrap();
            same(&read(&maps), &live(&maps));
        }
        let grown = read(&maps)[h.0 as usize];
        assert_eq!(grown.aux, 2047, "600 keys grow the table to its cap");
        assert_ne!(grown.base, descs[h.0 as usize].base);
        assert_eq!(
            read(&maps)[a.0 as usize].base,
            descs[a.0 as usize].base,
            "arrays never move"
        );
        // Churn that leaves tombstones and compacts: still the live table.
        for i in 0..600u64 {
            maps.delete(h, &i.to_le_bytes()).unwrap();
            maps.update(h, &(10_000 + i).to_le_bytes(), &i.to_le_bytes())
                .unwrap();
            if i % 2 == 0 {
                maps.delete(h, &(10_000 + i).to_le_bytes()).unwrap();
            }
            same(&read(&maps), &live(&maps));
        }
        assert_eq!(maps.len(h).unwrap(), 300);
        // A clone's table points at the clone's own storage.
        let copy = maps.clone();
        let copied = read(&copy);
        same(&copied, &live(&copy));
        assert_ne!(copied[h.0 as usize].base, read(&maps)[h.0 as usize].base);
        assert_ne!(copied[a.0 as usize].base, descs[a.0 as usize].base);
    }

    #[test]
    fn hash_index_mirrors_entries_under_churn() {
        use crate::mapindex::HomeProbe;
        let mut maps = MapRegistry::new();
        let fd = maps.create("start", MapDef::hash(8, 8, 64));
        let probe = |maps: &MapRegistry, key: &[u8]| {
            let Some(MapEntry {
                storage: MapStorage::Hash { table },
                ..
            }) = maps.maps.first()
            else {
                panic!("hash map expected");
            };
            table.home_probe(key)
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
            Err(MapError::KeySize {
                expected: 8,
                got: 4
            })
        ));
        assert!(matches!(
            maps.update(fd, &[0; 8], &[0; 2]),
            Err(MapError::ValueSize {
                expected: 8,
                got: 2
            })
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
    #[allow(unsafe_code)] // reads the raw descriptor table like JIT code does
    fn sketch_runtime_desc_has_no_fast_path() {
        use crate::mapindex::DESC_KIND_NONE;
        let mut maps = MapRegistry::new();
        let fd = maps.create("topk", MapDef::topk_sketch(8, 16));
        let (ptr, len) = maps.runtime_descs();
        assert_eq!(len, 1);
        assert!(!ptr.is_null());
        let desc = unsafe { *ptr.add(fd.0 as usize) };
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
