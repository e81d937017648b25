//! Kernel helper functions callable from eBPF programs.
//!
//! Helper ids match the real Linux numbering so that programs written
//! against this runtime read like genuine bcc/libbpf output (the paper's
//! Listing 1 calls `bpf_ktime_get_ns` and `bpf_get_current_pid_tgid`).

/// The helpers this runtime implements, with their Linux helper ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(i32)]
pub enum Helper {
    /// `void *bpf_map_lookup_elem(map, key)` — id 1.
    MapLookupElem = 1,
    /// `long bpf_map_update_elem(map, key, value, flags)` — id 2.
    MapUpdateElem = 2,
    /// `long bpf_map_delete_elem(map, key)` — id 3.
    MapDeleteElem = 3,
    /// `u64 bpf_ktime_get_ns(void)` — id 5.
    KtimeGetNs = 5,
    /// `long bpf_trace_printk(fmt, fmt_size, ...)` — id 6 (stub: counts calls).
    TracePrintk = 6,
    /// `u32 bpf_get_prandom_u32(void)` — id 7.
    GetPrandomU32 = 7,
    /// `u64 bpf_get_current_pid_tgid(void)` — id 14.
    GetCurrentPidTgid = 14,
    /// `long bpf_ringbuf_output(ringbuf, data, size, flags)` — id 130.
    RingbufOutput = 130,
    /// `long bpf_sketch_update(sketch, key, weight)` — id 200.
    ///
    /// This runtime's extension (ids ≥ 200 are outside the Linux helper
    /// range): folds `weight` for `key` into a `TopkSketch` map — the
    /// in-probe heavy-hitter structure the fleet's O(K) reports carry.
    SketchUpdate = 200,
}

impl Helper {
    /// Every helper, in id order; [`Helper::index`] is a position here.
    pub const ALL: [Helper; 9] = [
        Helper::MapLookupElem,
        Helper::MapUpdateElem,
        Helper::MapDeleteElem,
        Helper::KtimeGetNs,
        Helper::TracePrintk,
        Helper::GetPrandomU32,
        Helper::GetCurrentPidTgid,
        Helper::RingbufOutput,
        Helper::SketchUpdate,
    ];

    /// This helper's position in [`Helper::ALL`]: a dense index for
    /// per-helper tables.
    pub fn index(self) -> usize {
        match self {
            Helper::MapLookupElem => 0,
            Helper::MapUpdateElem => 1,
            Helper::MapDeleteElem => 2,
            Helper::KtimeGetNs => 3,
            Helper::TracePrintk => 4,
            Helper::GetPrandomU32 => 5,
            Helper::GetCurrentPidTgid => 6,
            Helper::RingbufOutput => 7,
            Helper::SketchUpdate => 8,
        }
    }

    /// Decodes a call immediate into a helper, if known.
    pub fn from_id(id: i32) -> Option<Helper> {
        Some(match id {
            1 => Helper::MapLookupElem,
            2 => Helper::MapUpdateElem,
            3 => Helper::MapDeleteElem,
            5 => Helper::KtimeGetNs,
            6 => Helper::TracePrintk,
            7 => Helper::GetPrandomU32,
            14 => Helper::GetCurrentPidTgid,
            130 => Helper::RingbufOutput,
            200 => Helper::SketchUpdate,
            _ => return None,
        })
    }

    /// The helper id as used in the `call` immediate.
    pub fn id(self) -> i32 {
        self as i32
    }

    /// The canonical C-style name.
    pub fn name(self) -> &'static str {
        match self {
            Helper::MapLookupElem => "bpf_map_lookup_elem",
            Helper::MapUpdateElem => "bpf_map_update_elem",
            Helper::MapDeleteElem => "bpf_map_delete_elem",
            Helper::KtimeGetNs => "bpf_ktime_get_ns",
            Helper::TracePrintk => "bpf_trace_printk",
            Helper::GetPrandomU32 => "bpf_get_prandom_u32",
            Helper::GetCurrentPidTgid => "bpf_get_current_pid_tgid",
            Helper::RingbufOutput => "bpf_ringbuf_output",
            Helper::SketchUpdate => "bpf_sketch_update",
        }
    }

    /// Number of argument registers (`r1`..) the helper consumes.
    pub fn arg_count(self) -> usize {
        match self {
            Helper::KtimeGetNs | Helper::GetPrandomU32 | Helper::GetCurrentPidTgid => 0,
            Helper::MapLookupElem | Helper::MapDeleteElem | Helper::TracePrintk => 2,
            Helper::SketchUpdate => 3,
            Helper::MapUpdateElem | Helper::RingbufOutput => 4,
        }
    }

    /// Argument classes, used by the verifier.
    pub fn signature(self) -> &'static [ArgClass] {
        use ArgClass::*;
        match self {
            Helper::MapLookupElem => &[Map, MapKeyPtr],
            Helper::MapUpdateElem => &[Map, MapKeyPtr, MapValuePtr, Scalar],
            Helper::MapDeleteElem => &[Map, MapKeyPtr],
            Helper::KtimeGetNs => &[],
            Helper::TracePrintk => &[MemPtr, Scalar],
            Helper::GetPrandomU32 => &[],
            Helper::GetCurrentPidTgid => &[],
            Helper::RingbufOutput => &[Map, MemPtr, Scalar, Scalar],
            Helper::SketchUpdate => &[Map, MapKeyPtr, Scalar],
        }
    }

    /// True for zero-argument helpers that only read execution-environment
    /// state (clock, current task, PRNG). The JIT inlines these as loads
    /// from scratch fields seeded out of `ExecEnv` before entry, with no
    /// trampoline round-trip; the interpreter and the trampoline fallback
    /// observe the exact same values, including the PRNG draw sequence.
    pub fn is_env(self) -> bool {
        matches!(
            self,
            Helper::KtimeGetNs | Helper::GetCurrentPidTgid | Helper::GetPrandomU32
        )
    }

    /// What the helper leaves in `r0`.
    pub fn return_class(self) -> RetClass {
        match self {
            Helper::MapLookupElem => RetClass::MapValueOrNull,
            Helper::MapUpdateElem
            | Helper::MapDeleteElem
            | Helper::TracePrintk
            | Helper::RingbufOutput
            | Helper::SketchUpdate => RetClass::Scalar,
            Helper::KtimeGetNs | Helper::GetPrandomU32 | Helper::GetCurrentPidTgid => {
                RetClass::Scalar
            }
        }
    }
}

/// Argument classes for verifier signature checking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgClass {
    /// A map handle loaded with `ld_map_fd`.
    Map,
    /// A readable pointer covering the map's key size.
    MapKeyPtr,
    /// A readable pointer covering the map's value size.
    MapValuePtr,
    /// A readable memory pointer (size given by a following Scalar arg).
    MemPtr,
    /// A plain scalar.
    Scalar,
}

/// Return classes for verifier modeling.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetClass {
    /// A scalar value.
    Scalar,
    /// A pointer into a map value, possibly NULL, that must be null-checked
    /// before dereferencing.
    MapValueOrNull,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_match_linux_numbering() {
        assert_eq!(Helper::MapLookupElem.id(), 1);
        assert_eq!(Helper::MapUpdateElem.id(), 2);
        assert_eq!(Helper::KtimeGetNs.id(), 5);
        assert_eq!(Helper::GetCurrentPidTgid.id(), 14);
        assert_eq!(Helper::RingbufOutput.id(), 130);
        // This runtime's extension lives outside the Linux range.
        assert_eq!(Helper::SketchUpdate.id(), 200);
    }

    #[test]
    fn from_id_round_trips() {
        for helper in Helper::ALL {
            assert_eq!(Helper::from_id(helper.id()), Some(helper));
        }
        assert_eq!(Helper::from_id(9999), None);
    }

    #[test]
    fn index_is_the_position_in_all() {
        for (i, helper) in Helper::ALL.into_iter().enumerate() {
            assert_eq!(helper.index(), i, "{helper:?}");
        }
    }

    #[test]
    fn signatures_match_arg_counts() {
        for helper in Helper::ALL {
            assert_eq!(helper.signature().len(), helper.arg_count(), "{helper:?}");
        }
    }

    #[test]
    fn env_helpers_are_exactly_the_zero_arg_state_readers() {
        for helper in [
            Helper::KtimeGetNs,
            Helper::GetPrandomU32,
            Helper::GetCurrentPidTgid,
        ] {
            assert!(helper.is_env(), "{helper:?}");
            assert_eq!(helper.arg_count(), 0, "{helper:?}");
        }
        for helper in [
            Helper::MapLookupElem,
            Helper::MapUpdateElem,
            Helper::MapDeleteElem,
            Helper::TracePrintk,
            Helper::RingbufOutput,
            Helper::SketchUpdate,
        ] {
            assert!(!helper.is_env(), "{helper:?}");
        }
    }

    #[test]
    fn names_are_bpf_prefixed() {
        assert_eq!(Helper::KtimeGetNs.name(), "bpf_ktime_get_ns");
        assert_eq!(Helper::GetCurrentPidTgid.name(), "bpf_get_current_pid_tgid");
    }
}
