//! Connection buffers — the queues requests flow through.
//!
//! A [`ChannelId`] names a FIFO byte-stream endpoint on the server: a TCP
//! connection's receive buffer, or an internal handoff queue between
//! application stages (the "application-level request queues" the paper
//! cites from Seer). Both behave identically for the simulation's purposes:
//! messages are delivered in, threads `recv` them out, and epoll instances
//! watch for readability.

use std::collections::VecDeque;

use kscope_simcore::Nanos;

/// Identifier of a connection or internal queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

/// Per-stage ingress timestamps carried by a message that traversed the
/// modeled host network stack (see `kscope_kernel::netstack`).
///
/// Invariant: `nic_at <= softirq_at <= enqueued_at` — a packet reaches the
/// NIC ring, is processed by a softirq, and only then lands on its socket
/// queue. Messages created by internal stage handoffs never have stamps
/// (`Message::stack == None`), which is how the drain path knows not to
/// fire the network tracepoints for them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StackStamps {
    /// When the packet arrived at the NIC ring.
    pub nic_at: Nanos,
    /// When softirq/NAPI processing of the packet completed.
    pub softirq_at: Nanos,
}

/// One queued message (request or stage-handoff work item).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Message {
    /// The request this message belongs to (threading-model agnostic token).
    pub request: u64,
    /// Payload size in bytes (drives `recv`/`send` return values).
    pub bytes: u32,
    /// When the message entered this queue.
    pub enqueued_at: Nanos,
    /// Ingress-path timestamps; `None` for internal stage handoffs that
    /// never crossed the network stack.
    pub stack: Option<StackStamps>,
}

impl Message {
    /// A message created by an internal stage handoff (no network-stack
    /// traversal, so no stage stamps).
    pub fn internal(request: u64, bytes: u32, enqueued_at: Nanos) -> Message {
        Message {
            request,
            bytes,
            enqueued_at,
            stack: None,
        }
    }
}

/// All channel buffers of the simulated host.
///
/// # Examples
///
/// ```
/// use kscope_kernel::{ChannelTable, Message};
/// use kscope_simcore::Nanos;
///
/// let mut channels = ChannelTable::new();
/// let conn = channels.create();
/// channels.deliver(conn, Message::internal(1, 64, Nanos::ZERO));
/// assert!(channels.is_readable(conn));
/// let msg = channels.recv(conn).unwrap();
/// assert_eq!(msg.request, 1);
/// assert!(!channels.is_readable(conn));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ChannelTable {
    queues: Vec<VecDeque<Message>>,
    /// Sum of every queue's length, kept by `deliver` and `recv`.
    total_pending: usize,
}

impl ChannelTable {
    /// Creates an empty table.
    pub fn new() -> ChannelTable {
        ChannelTable::default()
    }

    /// Creates a new channel.
    pub fn create(&mut self) -> ChannelId {
        let id = ChannelId(self.queues.len() as u32);
        self.queues.push(VecDeque::new());
        id
    }

    /// Number of channels.
    pub fn len(&self) -> usize {
        self.queues.len()
    }

    /// True if no channels exist.
    pub fn is_empty(&self) -> bool {
        self.queues.is_empty()
    }

    fn queue(&self, id: ChannelId) -> &VecDeque<Message> {
        &self.queues[id.0 as usize]
    }

    /// Enqueues a message (network delivery or stage handoff).
    ///
    /// # Panics
    ///
    /// Panics on an unknown channel id.
    pub fn deliver(&mut self, id: ChannelId, msg: Message) {
        self.queues[id.0 as usize].push_back(msg);
        self.total_pending += 1;
    }

    /// Dequeues the oldest message, if any (`recv`/queue-pop semantics).
    ///
    /// # Panics
    ///
    /// Panics on an unknown channel id.
    pub fn recv(&mut self, id: ChannelId) -> Option<Message> {
        let msg = self.queues[id.0 as usize].pop_front()?;
        self.total_pending -= 1;
        Some(msg)
    }

    /// True when at least one message is pending.
    ///
    /// # Panics
    ///
    /// Panics on an unknown channel id.
    pub fn is_readable(&self, id: ChannelId) -> bool {
        !self.queue(id).is_empty()
    }

    /// Number of pending messages.
    ///
    /// # Panics
    ///
    /// Panics on an unknown channel id.
    pub fn pending(&self, id: ChannelId) -> usize {
        self.queue(id).len()
    }

    /// Queueing delay of the head-of-line message relative to `now`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown channel id.
    pub fn head_age(&self, id: ChannelId, now: Nanos) -> Option<Nanos> {
        self.queue(id)
            .front()
            .map(|m| now.saturating_sub(m.enqueued_at))
    }

    /// Total pending messages across every channel (queue-pressure
    /// metric), in constant time.
    pub fn total_pending(&self) -> usize {
        self.total_pending
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(request: u64, at_us: u64) -> Message {
        Message::internal(request, 100, Nanos::from_micros(at_us))
    }

    #[test]
    fn fifo_order_per_channel() {
        let mut t = ChannelTable::new();
        let c = t.create();
        t.deliver(c, msg(1, 0));
        t.deliver(c, msg(2, 1));
        t.deliver(c, msg(3, 2));
        assert_eq!(t.recv(c).unwrap().request, 1);
        assert_eq!(t.recv(c).unwrap().request, 2);
        assert_eq!(t.recv(c).unwrap().request, 3);
        assert_eq!(t.recv(c), None);
    }

    #[test]
    fn channels_are_independent() {
        let mut t = ChannelTable::new();
        let a = t.create();
        let b = t.create();
        t.deliver(a, msg(1, 0));
        assert!(t.is_readable(a));
        assert!(!t.is_readable(b));
        assert_eq!(t.pending(a), 1);
        assert_eq!(t.pending(b), 0);
        assert_eq!(t.total_pending(), 1);
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn head_age_measures_queueing_delay() {
        let mut t = ChannelTable::new();
        let c = t.create();
        assert_eq!(t.head_age(c, Nanos::from_micros(5)), None);
        t.deliver(c, msg(1, 10));
        assert_eq!(
            t.head_age(c, Nanos::from_micros(25)),
            Some(Nanos::from_micros(15))
        );
    }
}
