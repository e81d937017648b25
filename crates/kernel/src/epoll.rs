//! Event-polling (epoll/select) semantics.
//!
//! The poll-family syscalls are the paper's idleness signal (Fig. 4): a
//! thread that calls `epoll_wait` blocks until one of its watched channels
//! becomes readable, and the *duration* of that block is exactly the
//! server's idle slack. This module provides the bookkeeping: watch sets,
//! blocked waiters, and wakeups on delivery.

use std::collections::VecDeque;

use kscope_syscalls::Tid;

use crate::socket::{ChannelId, ChannelTable};

/// Identifier of an epoll (or select fd-set) instance.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord,
)]
pub struct EpollId(pub u32);

#[derive(Debug, Clone, Default)]
struct EpollInstance {
    watched: Vec<ChannelId>,
    waiters: VecDeque<Tid>,
}

/// All epoll instances of the simulated host.
///
/// # Examples
///
/// ```
/// use kscope_kernel::{ChannelTable, EpollTable, Message};
/// use kscope_simcore::Nanos;
///
/// let mut channels = ChannelTable::new();
/// let mut epolls = EpollTable::new();
/// let conn = channels.create();
/// let ep = epolls.create();
/// epolls.watch(ep, conn);
///
/// // Nothing readable: the caller must block.
/// let mut ready = Vec::new();
/// epolls.ready_into(ep, &channels, &mut ready);
/// assert!(ready.is_empty());
/// epolls.block(ep, 42);
///
/// // Delivery wakes the blocked thread.
/// channels.deliver(conn, Message::internal(1, 8, Nanos::ZERO));
/// let mut woken = Vec::new();
/// epolls.wake(conn, |ep, tid| woken.push((ep, tid)));
/// assert_eq!(woken, vec![(ep, 42)]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EpollTable {
    instances: Vec<EpollInstance>,
    /// Per channel id, the instances watching it in ascending id order
    /// (the order a scan over every instance would find them in).
    watchers: Vec<Vec<EpollId>>,
}

impl EpollTable {
    /// Creates an empty table.
    pub fn new() -> EpollTable {
        EpollTable::default()
    }

    /// Creates a new epoll instance (`epoll_create1`).
    pub fn create(&mut self) -> EpollId {
        let id = EpollId(self.instances.len() as u32);
        self.instances.push(EpollInstance::default());
        id
    }

    /// Number of instances.
    pub fn len(&self) -> usize {
        self.instances.len()
    }

    /// True if no instances exist.
    pub fn is_empty(&self) -> bool {
        self.instances.is_empty()
    }

    /// Adds a channel to an instance's watch set (`epoll_ctl ADD`).
    ///
    /// # Panics
    ///
    /// Panics on an unknown epoll id or a duplicate watch.
    pub fn watch(&mut self, ep: EpollId, channel: ChannelId) {
        let inst = &mut self.instances[ep.0 as usize];
        assert!(
            !inst.watched.contains(&channel),
            "channel {channel:?} already watched by {ep:?}"
        );
        inst.watched.push(channel);
        let idx = channel.0 as usize;
        if self.watchers.len() <= idx {
            self.watchers.resize_with(idx + 1, Vec::new);
        }
        let watchers = &mut self.watchers[idx];
        let at = watchers.partition_point(|&w| w < ep);
        watchers.insert(at, ep);
    }

    /// The watched channels of an instance.
    ///
    /// # Panics
    ///
    /// Panics on an unknown epoll id.
    pub fn watched(&self, ep: EpollId) -> &[ChannelId] {
        &self.instances[ep.0 as usize].watched
    }

    /// Refills `out` with the channels of `ep` that are currently readable
    /// (level-triggered), in watch order. `out` is cleared first, so one
    /// buffer serves every call without allocating.
    ///
    /// # Panics
    ///
    /// Panics on an unknown epoll id.
    pub fn ready_into(&self, ep: EpollId, channels: &ChannelTable, out: &mut Vec<ChannelId>) {
        out.clear();
        out.extend(
            self.instances[ep.0 as usize]
                .watched
                .iter()
                .copied()
                .filter(|&c| channels.is_readable(c)),
        );
    }

    /// Registers `tid` as blocked in `epoll_wait` on `ep`.
    ///
    /// The caller is responsible for first checking
    /// [`ready_into`](Self::ready_into) — blocking with data pending is a
    /// driver bug.
    ///
    /// # Panics
    ///
    /// Panics on an unknown epoll id or if the thread is already blocked
    /// on this instance.
    pub fn block(&mut self, ep: EpollId, tid: Tid) {
        let inst = &mut self.instances[ep.0 as usize];
        assert!(
            !inst.waiters.contains(&tid),
            "thread {tid} already blocked on {ep:?}"
        );
        inst.waiters.push_back(tid);
    }

    /// Number of threads blocked on an instance.
    ///
    /// # Panics
    ///
    /// Panics on an unknown epoll id.
    pub fn blocked_count(&self, ep: EpollId) -> usize {
        self.instances[ep.0 as usize].waiters.len()
    }

    /// Called when `channel` becomes readable: wakes at most one waiter per
    /// watching instance (no thundering herd, as with modern epoll).
    ///
    /// Calls `woken(instance, thread)` for every wakeup, in ascending
    /// instance order; the driver completes those threads' `epoll_wait`
    /// calls.
    pub fn wake(&mut self, channel: ChannelId, mut woken: impl FnMut(EpollId, Tid)) {
        let Some(watchers) = self.watchers.get(channel.0 as usize) else {
            return;
        };
        for &ep in watchers {
            if let Some(tid) = self.instances[ep.0 as usize].waiters.pop_front() {
                woken(ep, tid);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::socket::Message;
    use kscope_simcore::Nanos;

    fn msg(request: u64) -> Message {
        Message::internal(request, 16, Nanos::ZERO)
    }

    fn ready(epolls: &EpollTable, ep: EpollId, channels: &ChannelTable) -> Vec<ChannelId> {
        // A stale entry proves the buffer is refilled, not appended to.
        let mut out = vec![ChannelId(99)];
        epolls.ready_into(ep, channels, &mut out);
        out
    }

    fn wake(epolls: &mut EpollTable, channel: ChannelId) -> Vec<(EpollId, Tid)> {
        let mut woken = Vec::new();
        epolls.wake(channel, |ep, tid| woken.push((ep, tid)));
        woken
    }

    #[test]
    fn ready_channels_is_level_triggered() {
        let mut channels = ChannelTable::new();
        let mut epolls = EpollTable::new();
        let a = channels.create();
        let b = channels.create();
        let ep = epolls.create();
        epolls.watch(ep, a);
        epolls.watch(ep, b);
        assert!(ready(&epolls, ep, &channels).is_empty());
        channels.deliver(a, msg(1));
        channels.deliver(a, msg(2));
        channels.deliver(b, msg(3));
        assert_eq!(ready(&epolls, ep, &channels), vec![a, b]);
        channels.recv(a);
        // One message still pending on a: still ready (level-triggered).
        assert_eq!(ready(&epolls, ep, &channels), vec![a, b]);
    }

    #[test]
    fn wakes_one_waiter_per_instance() {
        let mut channels = ChannelTable::new();
        let mut epolls = EpollTable::new();
        let conn = channels.create();
        let ep = epolls.create();
        epolls.watch(ep, conn);
        epolls.block(ep, 10);
        epolls.block(ep, 11);
        channels.deliver(conn, msg(1));
        assert_eq!(wake(&mut epolls, conn), vec![(ep, 10)]);
        assert_eq!(epolls.blocked_count(ep), 1);
        channels.deliver(conn, msg(2));
        assert_eq!(wake(&mut epolls, conn), vec![(ep, 11)]);
        assert_eq!(epolls.blocked_count(ep), 0);
        // Nobody left to wake.
        channels.deliver(conn, msg(3));
        assert!(wake(&mut epolls, conn).is_empty());
    }

    #[test]
    fn wakeups_go_to_every_watching_instance() {
        let mut channels = ChannelTable::new();
        let mut epolls = EpollTable::new();
        let conn = channels.create();
        let ep1 = epolls.create();
        let ep2 = epolls.create();
        epolls.watch(ep1, conn);
        epolls.watch(ep2, conn);
        epolls.block(ep1, 20);
        epolls.block(ep2, 21);
        channels.deliver(conn, msg(1));
        let wakeups = wake(&mut epolls, conn);
        assert_eq!(wakeups, vec![(ep1, 20), (ep2, 21)]);
    }

    #[test]
    fn wakeups_follow_instance_order_not_watch_order() {
        let mut channels = ChannelTable::new();
        let mut epolls = EpollTable::new();
        let conn = channels.create();
        let eps: Vec<EpollId> = (0..3).map(|_| epolls.create()).collect();
        for &ep in eps.iter().rev() {
            epolls.watch(ep, conn);
        }
        for (i, &ep) in eps.iter().enumerate() {
            epolls.block(ep, 30 + i as Tid);
        }
        channels.deliver(conn, msg(1));
        assert_eq!(
            wake(&mut epolls, conn),
            vec![(eps[0], 30), (eps[1], 31), (eps[2], 32)]
        );
        // A channel nobody watches wakes nobody.
        let stray = channels.create();
        assert!(wake(&mut epolls, stray).is_empty());
    }

    #[test]
    fn waiters_wake_in_fifo_order() {
        let mut epolls = EpollTable::new();
        let mut channels = ChannelTable::new();
        let conn = channels.create();
        let ep = epolls.create();
        epolls.watch(ep, conn);
        for tid in [5, 6, 7] {
            epolls.block(ep, tid);
        }
        channels.deliver(conn, msg(1));
        assert_eq!(wake(&mut epolls, conn)[0].1, 5);
        channels.deliver(conn, msg(2));
        assert_eq!(wake(&mut epolls, conn)[0].1, 6);
    }

    #[test]
    #[should_panic(expected = "already watched")]
    fn duplicate_watch_panics() {
        let mut channels = ChannelTable::new();
        let mut epolls = EpollTable::new();
        let conn = channels.create();
        let ep = epolls.create();
        epolls.watch(ep, conn);
        epolls.watch(ep, conn);
    }

    #[test]
    #[should_panic(expected = "already blocked")]
    fn double_block_panics() {
        let mut epolls = EpollTable::new();
        let ep = epolls.create();
        epolls.block(ep, 1);
        epolls.block(ep, 1);
    }
}
