//! Property-based tests for the eBPF VM.
//!
//! The headline property is verifier soundness: any program the verifier
//! accepts must execute without faulting, for every context the runtime
//! can supply. Random-program fuzzing can't prove it, but it searches the
//! instruction space far more rudely than hand-written tests do.
//!
//! The instruction generators live in `kscope_testkit::ebpf_gen` so the
//! differential fuzzer (`crates/testkit/tests/differential.rs`) drives
//! the exact same distribution.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

use kscope_ebpf::insn::{Insn, OP_ADD, OP_SUB};
use kscope_ebpf::interp::{ExecEnv, Vm};
use kscope_ebpf::mapindex::{HashIndex, HomeProbe};
use kscope_ebpf::maps::{MapDef, MapError, MapRegistry};
use kscope_ebpf::verifier::Verifier;
use kscope_ebpf::{Helper, Program};
use kscope_simcore::SimRng;
use kscope_testkit::ebpf_gen::{arb_insn, fuzz_program};
use kscope_testkit::{gen, Config};

/// Encoding round-trips for arbitrary instruction words.
#[test]
fn encode_decode_round_trip() {
    kscope_testkit::check!(
        Config::cases(400),
        |rng: &mut SimRng| arb_insn(rng),
        |&insn: &Insn| {
            assert_eq!(Insn::decode(insn.encode()), insn);
        }
    );
}

/// Soundness: if the verifier accepts a random program, the
/// interpreter must not fault on it — for any context contents.
#[test]
fn verified_programs_never_fault() {
    kscope_testkit::check!(
        Config::cases(400),
        |rng: &mut SimRng| { (gen::vec_of(rng, 0, 23, arb_insn), gen::u8_any(rng),) },
        |case: &(Vec<Insn>, u8)| {
            let (ref body, ctx_fill) = *case;
            // Seed r0 so `exit` is reachable-legal, then append the random
            // body and a final exit.
            let mut insns = vec![Insn::mov64_imm(0, 7)];
            insns.extend(body.iter().copied());
            insns.push(Insn::exit());
            let prog = Program::new("fuzz", insns);

            let mut maps = MapRegistry::new();
            maps.create("m", MapDef::hash(8, 8, 64));
            if Verifier::default().verify(&prog, &maps).is_ok() {
                let ctx = vec![ctx_fill; 64];
                let result = Vm::new().execute(&prog, &ctx, &mut maps, &mut ExecEnv::default());
                assert!(
                    result.is_ok(),
                    "verifier accepted but interpreter faulted: {:?}\n{}",
                    result,
                    prog.disassemble()
                );
            }
        }
    );
}

/// The verifier itself must be total: no panics on arbitrary input.
#[test]
fn verifier_never_panics() {
    kscope_testkit::check!(
        Config::cases(400),
        |rng: &mut SimRng| gen::vec_of(rng, 0, 31, arb_insn),
        |body: &Vec<Insn>| {
            let prog = Program::new("fuzz", body.clone());
            let maps = MapRegistry::new();
            let _ = Verifier::default().verify(&prog, &maps);
        }
    );
}

/// The interpreter must be total too (fault, not panic), even on
/// unverified garbage.
#[test]
fn interpreter_never_panics_on_unverified_input() {
    kscope_testkit::check!(
        Config::cases(400),
        |rng: &mut SimRng| gen::vec_of(rng, 1, 23, arb_insn),
        |body: &Vec<Insn>| {
            let prog = Program::new("fuzz", body.clone());
            let mut maps = MapRegistry::new();
            let _ = Vm::with_insn_budget(10_000).execute(
                &prog,
                &[0u8; 32],
                &mut maps,
                &mut ExecEnv::default(),
            );
        }
    );
}

/// The wrapped generator used by the differential suite also never
/// faults once verified (same soundness property, richer prologue).
#[test]
fn fuzz_program_generator_is_sound() {
    kscope_testkit::check!(
        Config::cases(200),
        |rng: &mut SimRng| { fuzz_program(rng, 24).insns().to_vec() },
        |insns: &Vec<Insn>| {
            let prog = Program::new("fuzz", insns.clone());
            let mut maps = MapRegistry::new();
            maps.create("m", MapDef::hash(8, 8, 64));
            if Verifier::default().verify(&prog, &maps).is_ok() {
                let result =
                    Vm::new().execute(&prog, &[0u8; 64], &mut maps, &mut ExecEnv::default());
                assert!(result.is_ok(), "faulted after verification: {result:?}");
            }
        }
    );
}

/// ALU semantics: mov/add/sub round-trip against native arithmetic.
#[test]
fn alu_matches_native_arithmetic() {
    kscope_testkit::check!(
        Config::cases(400),
        |rng: &mut SimRng| (gen::i32_any(rng), gen::i32_any(rng)),
        |&(a, b): &(i32, i32)| {
            let prog = Program::new(
                "alu",
                vec![
                    Insn::mov64_imm(0, a),
                    Insn::alu64_imm(OP_ADD, 0, b),
                    Insn::alu64_imm(OP_SUB, 0, b),
                    Insn::exit(),
                ],
            );
            let mut maps = MapRegistry::new();
            Verifier::default().verify(&prog, &maps).unwrap();
            let out = Vm::new()
                .execute(&prog, &[], &mut maps, &mut ExecEnv::default())
                .unwrap();
            assert_eq!(out.ret, a as i64 as u64);
        }
    );
}

/// Map round-trip: whatever bytes go in through update come back out
/// through lookup, for arbitrary keys and values.
#[test]
fn map_update_lookup_round_trip() {
    kscope_testkit::check!(
        Config::cases(400),
        |rng: &mut SimRng| (gen::u64_any(rng), gen::u64_any(rng)),
        |&(key, value): &(u64, u64)| {
            let mut maps = MapRegistry::new();
            let fd = maps.create("m", MapDef::hash(8, 8, 16));
            maps.update(fd, &key.to_le_bytes(), &value.to_le_bytes())
                .unwrap();
            let got = maps.lookup(fd, &key.to_le_bytes()).unwrap().unwrap();
            assert_eq!(u64::from_le_bytes(got.try_into().unwrap()), value);
        }
    );
}

/// Keys the hash-table property draws from: few enough to collide,
/// overwrite and delete often.
const KEY_SPACE: u64 = 160;

/// In-place compactions the hash-table property's cases went through.
static COMPACTIONS: AtomicUsize = AtomicUsize::new(0);

/// A hash table against a `BTreeMap` model: random inserts (fresh keys
/// and overwrites), deletes and lookups, on tables small enough to grow,
/// fill up and compact (some case must compact). After every operation the two agree, the table
/// stays within its cap, and the JIT's single home-slot probe is never
/// wrong about any key: a present key is never a definitive miss, an
/// absent one never a definitive hit.
#[test]
fn hash_table_matches_a_btreemap_model() {
    kscope_testkit::check!(
        Config::cases(100),
        |rng: &mut SimRng| {
            let max_entries = gen::u64_in(rng, 1, 128);
            let ops = gen::vec_of(rng, 0, 400, |rng| {
                (
                    gen::u8_any(rng) % 8,
                    gen::u64_in(rng, 0, KEY_SPACE - 1),
                    gen::u64_any(rng),
                )
            });
            (max_entries, ops)
        },
        |(max_entries, ops): &(u64, Vec<(u8, u64, u64)>)| {
            let max = *max_entries as usize;
            let cap = (2 * max).next_power_of_two().max(8);
            let mut table = HashIndex::new(8, max as u32);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for &(op, key, value) in ops {
                let k = key.to_le_bytes();
                let (slots, tombstones) = (table.capacity(), table.tombstones());
                match op {
                    0..=2 => {
                        let got = table.insert(&k, &value.to_le_bytes());
                        if model.contains_key(&key) || model.len() < max {
                            assert_eq!(got, Ok(()));
                            model.insert(key, value);
                        } else {
                            assert_eq!(got, Err(MapError::Full));
                        }
                    }
                    3..=5 => assert_eq!(table.remove(&k), model.remove(&key).is_some()),
                    _ => assert_eq!(
                        table.get(&k),
                        model
                            .get(&key)
                            .map(|v| v.to_le_bytes())
                            .as_ref()
                            .map(|v| &v[..])
                    ),
                }
                assert_eq!(table.live(), model.len());
                assert!(table.capacity() <= cap, "past the cap");
                // Only a compaction clears several tombstones in one insert.
                let cleared = op <= 2 && tombstones >= 2 && table.tombstones() == 0;
                if cleared && table.capacity() == slots {
                    COMPACTIONS.fetch_add(1, Ordering::Relaxed);
                }
                for probe in 0..KEY_SPACE {
                    match table.home_probe(&probe.to_le_bytes()) {
                        HomeProbe::Miss => assert!(!model.contains_key(&probe), "{probe} missed"),
                        HomeProbe::Hit => assert!(model.contains_key(&probe), "{probe} hit"),
                        HomeProbe::Fallback => {}
                    }
                }
            }
            let mut entries: Vec<(u64, u64)> = table
                .iter()
                .map(|(k, v)| {
                    (
                        u64::from_le_bytes(k.try_into().unwrap()),
                        u64::from_le_bytes(v.try_into().unwrap()),
                    )
                })
                .collect();
            entries.sort_unstable();
            assert_eq!(entries, model.into_iter().collect::<Vec<_>>());
        }
    );
    assert!(
        COMPACTIONS.load(Ordering::Relaxed) > 0,
        "no case compacted a table"
    );
}

/// Helper ids round-trip through `from_id`.
#[test]
fn helper_ids_round_trip() {
    kscope_testkit::check!(
        Config::cases(400),
        |rng: &mut SimRng| gen::i32_in(rng, 0, 199),
        |&id: &i32| {
            if let Some(helper) = Helper::from_id(id) {
                assert_eq!(helper.id(), id);
            }
        }
    );
}
