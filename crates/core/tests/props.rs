//! Property-based tests for the observability core.
//!
//! The crown jewel is the differential property: on *any* event stream,
//! the native probe and the generated-verified-interpreted eBPF probe
//! produce identical metric cells.

use kscope_core::{MetricBackend, NativeBackend, ProbeSet, ScaledAcc};
use kscope_simcore::{Nanos, SimRng};
use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, SyscallProfile, TracePhase, TracepointCtx};
use kscope_testkit::{gen, Config};

fn arb_event(rng: &mut SimRng) -> TracepointCtx {
    let enter = gen::bool_any(rng);
    let which = gen::u64_in(rng, 0, 6);
    let tid_off = gen::u64_in(rng, 0, 3) as u32;
    let foreign = gen::bool_any(rng);
    let dt = gen::u64_in(rng, 1, 1_999_999);
    let no = match which {
        0 => SyscallNo::EPOLL_WAIT,
        1 => SyscallNo::READ,
        2 => SyscallNo::SENDMSG,
        3 => SyscallNo::FUTEX,
        4 => SyscallNo::WRITE, // not in the data-caching profile
        5 => SyscallNo::ACCEPT,
        _ => SyscallNo::SELECT,
    };
    let tgid = if foreign { 999 } else { 1200 };
    TracepointCtx {
        phase: if enter {
            TracePhase::Enter
        } else {
            TracePhase::Exit
        },
        no,
        pid_tgid: pid_tgid(tgid, 1300 + tid_off),
        ktime: Nanos::from_nanos(dt), // rebased cumulatively below
        ret: 1,
        net: NetCtx::NONE,
    }
}

/// Native and bytecode backends agree cell-for-cell on any stream.
#[test]
fn backends_agree_on_any_stream() {
    kscope_testkit::check!(
        Config::cases(64),
        |rng: &mut SimRng| {
            (
                gen::vec_of(rng, 0, 399, arb_event),
                gen::u64_in(rng, 0, 11) as u32,
            )
        },
        |case: &(Vec<TracepointCtx>, u32)| {
            let (ref events, shift) = *case;
            let profile = SyscallProfile::data_caching();
            let mut native = NativeBackend::new(1200, profile.clone(), shift);
            let mut bytecode = ProbeSet::new(vec![1200], profile, shift).build().unwrap();
            let mut t = 0u64;
            for ev in events {
                let mut ev = *ev;
                // Make timestamps strictly increasing (deltas from the
                // generator).
                t += ev.ktime.as_nanos();
                ev.ktime = Nanos::from_nanos(t);
                native.on_event(&ev);
                bytecode.on_event(&ev);
            }
            assert_eq!(native.counters(), bytecode.counters());
        }
    );
}

/// Window resets never desynchronize the two backends.
#[test]
fn backends_agree_across_window_resets() {
    kscope_testkit::check!(
        Config::cases(64),
        |rng: &mut SimRng| { gen::vec_of(rng, 1, 5, |r| gen::vec_of(r, 1, 59, arb_event)) },
        |chunks: &Vec<Vec<TracepointCtx>>| {
            let profile = SyscallProfile::data_caching();
            let mut native = NativeBackend::new(1200, profile.clone(), 10);
            let mut bytecode = ProbeSet::new(vec![1200], profile, 10).build().unwrap();
            let mut t = 0u64;
            for chunk in chunks {
                for ev in chunk {
                    let mut ev = *ev;
                    t += ev.ktime.as_nanos();
                    ev.ktime = Nanos::from_nanos(t);
                    native.on_event(&ev);
                    bytecode.on_event(&ev);
                }
                assert_eq!(native.counters(), bytecode.counters());
                native.reset_window();
                bytecode.reset_window();
            }
            assert_eq!(native.counters(), bytecode.counters());
        }
    );
}

/// The scaled accumulator's mean stays within one quantum of the exact
/// mean, and its variance is non-negative.
#[test]
fn scaled_acc_tracks_exact_moments() {
    kscope_testkit::check!(
        Config::cases(64),
        |rng: &mut SimRng| {
            (
                gen::vec_of(rng, 1, 299, |r| gen::u64_in(r, 0, 99_999_999)),
                gen::u64_in(rng, 0, 11) as u32,
            )
        },
        |case: &(Vec<u64>, u32)| {
            let (ref xs, shift) = *case;
            let mut acc = ScaledAcc::new(shift);
            for &x in xs {
                acc.push(x);
            }
            let quantum = (1u64 << shift) as f64;
            let exact_mean = xs.iter().map(|&x| x as f64).sum::<f64>() / xs.len() as f64;
            let mean = acc.mean().unwrap();
            assert!(
                (mean - exact_mean).abs() <= quantum,
                "mean {mean} vs exact {exact_mean} (quantum {quantum})"
            );
            assert!(acc.variance().unwrap() >= 0.0);
        }
    );
}

/// Merging scaled accumulators equals accumulating the concatenation.
#[test]
fn scaled_acc_merge_is_concatenation() {
    kscope_testkit::check!(
        Config::cases(64),
        |rng: &mut SimRng| {
            (
                gen::vec_of(rng, 0, 99, |r| gen::u64_in(r, 0, 999_999)),
                gen::vec_of(rng, 0, 99, |r| gen::u64_in(r, 0, 999_999)),
            )
        },
        |case: &(Vec<u64>, Vec<u64>)| {
            let (ref xs, ref ys) = *case;
            let mut a = ScaledAcc::new(6);
            let mut b = ScaledAcc::new(6);
            let mut all = ScaledAcc::new(6);
            for &x in xs {
                a.push(x);
                all.push(x);
            }
            for &y in ys {
                b.push(y);
                all.push(y);
            }
            a.merge(&b);
            assert_eq!(a, all);
        }
    );
}
