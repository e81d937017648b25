//! Deterministic scoped-thread worker pool for independent work items.
//!
//! Sweeps and fleet rollups are embarrassingly parallel: every item (a
//! `(workload, load level, netem config)` cell, or a shard of collector
//! state) owns a split PRNG seed and shares no mutable state with its
//! neighbours. [`map_indexed`] fans such items out across a small std-only
//! worker pool while keeping the output **bitwise identical** to a serial
//! run:
//!
//! * each item's result is written into the slot of its input index, so
//!   output order never depends on thread scheduling;
//! * items carry their own seeds, so no worker observes another's RNG;
//! * floating-point work happens per item with no cross-item reduction,
//!   so there is no reassociation to perturb the last ulp.
//!
//! The `sweep_parallel_determinism` test in `kscope-experiments` asserts
//! the jobs=1 ≡ jobs=N property on a real sweep, and
//! `kscope-fleet`'s determinism tests assert it on sharded collector
//! rollups; [`default_jobs`] wires the pool width to `--jobs N` /
//! `KSCOPE_JOBS` with `available_parallelism` as the default.
//!
//! This module lives in `kscope-simcore` (rather than the experiments
//! crate where it started) so that library crates such as `kscope-fleet`
//! can share the pool without depending on the binaries crate;
//! `kscope_experiments::parallel` re-exports it for compatibility.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count to use when the caller does not pin one: the first of
/// `--jobs N` (or `--jobs=N`) on the command line, the `KSCOPE_JOBS`
/// environment variable, and [`std::thread::available_parallelism`] that
/// yields a positive number.
pub fn default_jobs() -> usize {
    if let Some(n) = jobs_from_args(std::env::args()) {
        return n;
    }
    if let Some(n) = std::env::var("KSCOPE_JOBS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Parses `--jobs N` / `--jobs=N` out of an argument stream.
fn jobs_from_args(args: impl Iterator<Item = String>) -> Option<usize> {
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let value = if arg == "--jobs" {
            args.peek().map(String::as_str)
        } else {
            arg.strip_prefix("--jobs=")
        };
        if let Some(n) = value.and_then(|v| v.parse::<usize>().ok()) {
            if n > 0 {
                return Some(n);
            }
        }
    }
    None
}

/// Applies `f` to every item on up to `jobs` worker threads, returning the
/// results **in input order** regardless of completion order.
///
/// Workers claim items through a shared atomic cursor (work stealing by
/// index), so long items do not convoy short ones behind a fixed
/// partition. With `jobs <= 1` the items run serially on the caller's
/// thread with no pool at all — the reference execution the parallel path
/// is tested against.
///
/// # Panics
///
/// A panic inside `f` propagates to the caller once the scope joins.
pub fn map_indexed<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    if jobs <= 1 || items.len() <= 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }

    let workers = jobs.min(items.len());
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = items.iter().map(|_| Mutex::new(None)).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(item) = items.get(i) else {
                        break;
                    };
                    let result = f(i, item);
                    match slots[i].lock() {
                        Ok(mut slot) => *slot = Some(result),
                        // A poisoned slot means another worker panicked while
                        // holding it; that panic is already propagating.
                        Err(_) => break,
                    }
                })
            })
            .collect();
        // Join explicitly and re-raise the worker's own payload, so a
        // caller sees the original panic message rather than the scope's
        // generic "a scoped thread panicked".
        for handle in handles {
            if let Err(payload) = handle.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });

    slots
        .into_iter()
        .enumerate()
        .map(|(i, slot)| {
            let inner = match slot.into_inner() {
                Ok(inner) => inner,
                Err(poisoned) => poisoned.into_inner(),
            };
            match inner {
                Some(result) => result,
                None => panic!("worker pool lost the result for item {i}"),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..64).collect();
        let out = map_indexed(&items, 8, |i, &x| {
            // Stagger completion so out-of-order finishes would show.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 3 + i as u64
        });
        let expected: Vec<u64> = items
            .iter()
            .enumerate()
            .map(|(i, &x)| x * 3 + i as u64)
            .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn serial_and_parallel_agree() {
        let items: Vec<u64> = (0..40).collect();
        let work = |i: usize, &x: &u64| -> f64 { (x as f64 + i as f64).sqrt() * 1e-3 };
        let serial = map_indexed(&items, 1, work);
        let parallel = map_indexed(&items, 4, work);
        // Bitwise equality, not approximate equality.
        let bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|x| x.to_bits()).collect() };
        assert_eq!(bits(&serial), bits(&parallel));
    }

    #[test]
    fn empty_and_single_item_inputs() {
        let none: Vec<u32> = vec![];
        assert_eq!(map_indexed(&none, 4, |_, &x| x).len(), 0);
        assert_eq!(map_indexed(&[9u32], 4, |i, &x| (i, x)), vec![(0, 9)]);
    }

    #[test]
    fn more_jobs_than_items_is_fine() {
        let items = [1u32, 2, 3];
        assert_eq!(map_indexed(&items, 64, |_, &x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn jobs_flag_parsing() {
        let parse = |argv: &[&str]| jobs_from_args(argv.iter().map(|s| s.to_string()));
        assert_eq!(parse(&["bin", "--jobs", "4"]), Some(4));
        assert_eq!(parse(&["bin", "--jobs=2", "--quick"]), Some(2));
        assert_eq!(parse(&["bin", "--quick"]), None);
        assert_eq!(parse(&["bin", "--jobs", "zero"]), None);
        assert_eq!(parse(&["bin", "--jobs", "0"]), None);
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let items: Vec<u32> = (0..8).collect();
        map_indexed(&items, 4, |i, _| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
