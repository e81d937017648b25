//! Property-based tests for the kernel substrate.

use std::collections::VecDeque;

use kscope_kernel::{
    ChannelId, ChannelTable, CpuScheduler, EpollId, EpollTable, Message, SchedConfig,
};
use kscope_simcore::{Nanos, SimRng};
use kscope_testkit::{gen, Config};

/// Scheduler invariants under random submit/complete interleavings:
/// never more running threads than cores, FIFO dispatch order, and
/// every submitted slice eventually granted.
#[test]
fn scheduler_never_oversubscribes() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| {
            (
                gen::u64_any(rng),
                gen::u64_in(rng, 1, 7) as u32,
                gen::vec_of(rng, 1, 63, |r| gen::u64_in(r, 1, 99_999)),
            )
        },
        |case: &(u64, u32, Vec<u64>)| {
            let (seed, cores, ref demands) = *case;
            let mut rng = SimRng::seed_from_u64(seed);
            let mut sched = CpuScheduler::new(cores, SchedConfig::default());
            let mut running: Vec<(u32, Nanos)> = Vec::new(); // (tid, finish)
            let mut granted = 0usize;
            let mut queued_order: Vec<u32> = Vec::new();
            let mut dispatch_order: Vec<u32> = Vec::new();
            let mut now = Nanos::ZERO;

            for (i, &demand) in demands.iter().enumerate() {
                let tid = i as u32;
                match sched.submit(tid, Nanos::from_nanos(demand), now, &mut rng) {
                    Some(grant) => {
                        granted += 1;
                        running.push((grant.tid, grant.finish));
                    }
                    None => queued_order.push(tid),
                }
                assert!(sched.busy_cores() <= cores as usize);
                // Occasionally complete the earliest-running slice.
                if running.len() == cores as usize {
                    running.sort_by_key(|&(_, f)| f);
                    let (tid_done, finish) = running.remove(0);
                    now = now.max(finish);
                    if let Some(next) = sched.complete(tid_done, now, &mut rng) {
                        granted += 1;
                        dispatch_order.push(next.tid);
                        running.push((next.tid, next.finish));
                    }
                }
            }
            // Drain.
            while !running.is_empty() {
                running.sort_by_key(|&(_, f)| f);
                let (tid_done, finish) = running.remove(0);
                now = now.max(finish);
                if let Some(next) = sched.complete(tid_done, now, &mut rng) {
                    granted += 1;
                    dispatch_order.push(next.tid);
                    running.push((next.tid, next.finish));
                }
                assert!(sched.busy_cores() <= cores as usize);
            }
            assert_eq!(granted, demands.len(), "every slice granted exactly once");
            assert_eq!(sched.queue_depth(), 0);
            // FIFO: queued threads dispatch in submission order.
            assert_eq!(dispatch_order, queued_order);
        }
    );
}

/// Channel conservation: messages out = messages in, in FIFO order.
#[test]
fn channels_conserve_messages() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| gen::vec_of(rng, 0, 99, |r| gen::u64_in(r, 1, 1_999) as u32),
        |payloads: &Vec<u32>| {
            let mut channels = ChannelTable::new();
            let c = channels.create();
            for (i, &bytes) in payloads.iter().enumerate() {
                channels.deliver(
                    c,
                    Message::internal(i as u64, bytes, Nanos::from_nanos(i as u64)),
                );
            }
            for (i, &bytes) in payloads.iter().enumerate() {
                let msg = channels.recv(c).unwrap();
                assert_eq!(msg.request, i as u64);
                assert_eq!(msg.bytes, bytes);
            }
            assert!(channels.recv(c).is_none());
            assert_eq!(channels.total_pending(), 0);
        }
    );
}

/// Epoll wake-one: each delivery wakes at most one waiter per watching
/// instance, and waiters wake in FIFO order.
#[test]
fn epoll_wakes_at_most_one_waiter() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| {
            (
                gen::vec_of(rng, 0, 15, |r| gen::u64_in(r, 1, 999) as u32),
                gen::usize_in(rng, 0, 19),
            )
        },
        |case: &(Vec<u32>, usize)| {
            let (ref waiters, deliveries) = *case;
            // Deduplicate tids (block() forbids duplicates by contract).
            let mut tids = waiters.clone();
            tids.sort_unstable();
            tids.dedup();

            let mut channels = ChannelTable::new();
            let mut epolls = EpollTable::new();
            let conn = channels.create();
            let ep = epolls.create();
            epolls.watch(ep, conn);
            for &tid in &tids {
                epolls.block(ep, tid);
            }
            let mut woken = Vec::new();
            for i in 0..deliveries {
                channels.deliver(conn, Message::internal(i as u64, 1, Nanos::ZERO));
                let mut wakeups = Vec::new();
                epolls.wake(conn, |ep, tid| wakeups.push((ep, tid)));
                assert!(wakeups.len() <= 1);
                woken.extend(wakeups.into_iter().map(|(_, tid)| tid));
            }
            let expected: Vec<u32> = tids.iter().copied().take(deliveries).collect();
            assert_eq!(woken, expected);
        }
    );
}

/// Running pending count: after every deliver/recv step over several
/// channels, `total_pending()` equals the sum of the per-channel queue
/// lengths.
#[test]
fn total_pending_matches_queue_sum() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| {
            (
                gen::usize_in(rng, 1, 6),
                gen::vec_of(rng, 0, 79, |r| {
                    (gen::bool_any(r), gen::u64_in(r, 0, 5) as u8)
                }),
            )
        },
        |case: &(usize, Vec<(bool, u8)>)| {
            let (n, ref steps) = *case;
            let mut channels = ChannelTable::new();
            let ids: Vec<ChannelId> = (0..n).map(|_| channels.create()).collect();
            for (i, &(deliver, c)) in steps.iter().enumerate() {
                let id = ids[c as usize % n];
                if deliver {
                    channels.deliver(id, Message::internal(i as u64, 1, Nanos::ZERO));
                } else {
                    channels.recv(id);
                }
                let sum: usize = ids.iter().map(|&c| channels.pending(c)).sum();
                assert_eq!(channels.total_pending(), sum, "after step {i}");
            }
        }
    );
}

/// The reference semantics of epoll wakeups: a full scan over every
/// instance in id order, popping one waiter from each instance that
/// watches the channel.
#[derive(Debug, Default)]
struct ScanModel {
    watched: Vec<Vec<ChannelId>>,
    waiters: Vec<VecDeque<u32>>,
}

impl ScanModel {
    fn wake(&mut self, channel: ChannelId) -> Vec<(EpollId, u32)> {
        let mut woken = Vec::new();
        for (ep, watched) in self.watched.iter().enumerate() {
            if watched.contains(&channel) {
                if let Some(tid) = self.waiters[ep].pop_front() {
                    woken.push((EpollId(ep as u32), tid));
                }
            }
        }
        woken
    }
}

const EPOLLS: usize = 5;
const CHANNELS: usize = 6;

/// Watch layouts: `(epoll, channel)` pairs in watch order.
fn watch_layout(shape: u8, random: &[(u8, u8)]) -> Vec<(usize, usize)> {
    match shape % 3 {
        // TwoStage: front-end instances 0..3 split the connections 2..6,
        // instance 0 also watches the reply queue 1, and one back-end
        // instance 4 watches the stage queue 0 (its several threads all
        // block on it). The reply queue is watched after the front ends
        // exist, so watch order is not instance order.
        0 => {
            let mut pairs: Vec<(usize, usize)> = (2..CHANNELS).map(|c| (c % 3, c)).collect();
            pairs.insert(0, (0, 1));
            pairs.push((4, 0));
            pairs
        }
        // DispatchPool: network instances 1..4 split the connections
        // 1..6, one worker instance 0 watches the worker queue 0.
        1 => {
            let mut pairs = vec![(0, 0)];
            pairs.extend((1..CHANNELS).map(|c| (1 + c % 3, c)));
            pairs
        }
        // Arbitrary: any instance may watch any channel, in any order,
        // so channels end up watched by none, one or several instances.
        _ => {
            let mut pairs: Vec<(usize, usize)> = Vec::new();
            for &(ep, c) in random {
                let pair = (ep as usize % EPOLLS, c as usize % CHANNELS);
                if !pairs.contains(&pair) {
                    pairs.push(pair);
                }
            }
            pairs
        }
    }
}

/// A watch-layout shape, arbitrary `(epoll, channel)` watch pairs, and
/// `(kind, argument)` operations.
type EpollCase = (u8, Vec<(u8, u8)>, Vec<(u8, u8)>);

/// The per-channel watcher index wakes exactly the `(EpollId, Tid)`
/// sequence a full scan over every instance would, under random
/// watch/block/deliver/recv sequences, and `ready_into` reports the
/// level-triggered readable set in watch order.
#[test]
fn watcher_index_wakes_like_a_full_scan() {
    kscope_testkit::check!(
        Config::cases(192),
        |rng: &mut SimRng| {
            (
                gen::u64_in(rng, 0, 2) as u8,
                gen::vec_of(rng, 0, 20, |r| {
                    (gen::u64_in(r, 0, 255) as u8, gen::u64_in(r, 0, 255) as u8)
                }),
                gen::vec_of(rng, 0, 80, |r| {
                    (gen::u64_in(r, 0, 2) as u8, gen::u64_in(r, 0, 255) as u8)
                }),
            )
        },
        |case: &EpollCase| {
            let (shape, ref random, ref ops) = *case;
            let mut channels = ChannelTable::new();
            let mut epolls = EpollTable::new();
            let mut model = ScanModel::default();
            let ids: Vec<ChannelId> = (0..CHANNELS).map(|_| channels.create()).collect();
            let eps: Vec<EpollId> = (0..EPOLLS).map(|_| epolls.create()).collect();
            model.watched = vec![Vec::new(); EPOLLS];
            model.waiters = vec![VecDeque::new(); EPOLLS];
            for (ep, c) in watch_layout(shape, random) {
                epolls.watch(eps[ep], ids[c]);
                model.watched[ep].push(ids[c]);
            }
            let mut next_tid = 100u32;
            let mut ready = Vec::new();
            for (i, &(kind, arg)) in ops.iter().enumerate() {
                match kind {
                    0 => {
                        let ep = arg as usize % EPOLLS;
                        epolls.block(eps[ep], next_tid);
                        model.waiters[ep].push_back(next_tid);
                        next_tid += 1;
                    }
                    1 => {
                        let c = ids[arg as usize % CHANNELS];
                        channels.deliver(c, Message::internal(i as u64, 1, Nanos::ZERO));
                        let mut woken = Vec::new();
                        epolls.wake(c, |ep, tid| woken.push((ep, tid)));
                        assert_eq!(woken, model.wake(c), "op {i}: wake {c:?}");
                    }
                    _ => {
                        channels.recv(ids[arg as usize % CHANNELS]);
                    }
                }
                for (ep, watched) in model.watched.iter().enumerate() {
                    epolls.ready_into(eps[ep], &channels, &mut ready);
                    let expected: Vec<ChannelId> = watched
                        .iter()
                        .copied()
                        .filter(|&c| channels.pending(c) > 0)
                        .collect();
                    assert_eq!(ready, expected, "op {i}: ready set of {:?}", eps[ep]);
                    assert_eq!(epolls.blocked_count(eps[ep]), model.waiters[ep].len());
                }
            }
        }
    );
}
