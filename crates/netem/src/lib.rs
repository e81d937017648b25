//! # kscope-netem
//!
//! Network emulation modeled on Linux `tc-netem`, the tool the paper used
//! to inject delay and loss on the loopback interface (§V-A). A
//! [`NetemLink`] is one direction of a path; sending a message through it
//! yields the arrival delay including retransmissions.
//!
//! The crucial behaviour the paper's Fig. 5 / Table II depend on: **loss
//! inflates client-observed latency through TCP retransmission timeouts,
//! but barely shifts when the request reaches the server**, so server-side
//! syscall statistics stay stable while client tail latency explodes. The
//! link reproduces that by charging lost transmissions a sender-side RTO
//! (with exponential backoff) before the successful copy transits.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use kscope_simcore::{Dist, Nanos, SimRng};

/// Packet-loss models supported by the link.
#[derive(Debug, Clone, PartialEq)]
pub enum LossModel {
    /// No loss.
    None,
    /// Independent loss with probability `p` per transmission.
    Bernoulli {
        /// Loss probability in `[0, 1]`.
        p: f64,
    },
    /// Two-state Gilbert–Elliott burst loss.
    GilbertElliott {
        /// Probability of moving good→bad after a transmission.
        p_good_to_bad: f64,
        /// Probability of moving bad→good after a transmission.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        loss_good: f64,
        /// Loss probability while in the bad state.
        loss_bad: f64,
    },
}

impl LossModel {
    /// Average long-run loss rate of the model.
    pub fn steady_state_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p,
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                // Stationary distribution of the two-state chain.
                let denom = p_good_to_bad + p_bad_to_good;
                if denom == 0.0 {
                    return loss_good;
                }
                let pi_bad = p_good_to_bad / denom;
                (1.0 - pi_bad) * loss_good + pi_bad * loss_bad
            }
        }
    }
}

/// Configuration of one link direction (the `tc qdisc add dev lo root
/// netem …` equivalent).
#[derive(Debug, Clone, PartialEq)]
pub struct NetemConfig {
    /// Fixed one-way propagation delay.
    pub delay: Nanos,
    /// Additional random jitter added per transit (sampled in nanoseconds).
    pub jitter: Option<Dist>,
    /// Loss model.
    pub loss: LossModel,
    /// Base retransmission timeout charged per lost transmission.
    pub rto: Nanos,
    /// Multiplier applied to the RTO after each consecutive loss
    /// (TCP-style exponential backoff).
    pub rto_backoff: f64,
    /// Upper bound on retransmissions; after this many losses the packet is
    /// delivered anyway (the connection would otherwise reset — a case the
    /// paper's experiments never reach at 1% loss).
    pub max_retransmits: u32,
}

impl NetemConfig {
    /// A perfect link: zero delay, no jitter, no loss.
    pub fn ideal() -> NetemConfig {
        NetemConfig {
            delay: Nanos::ZERO,
            jitter: None,
            loss: LossModel::None,
            rto: Nanos::from_millis(200),
            rto_backoff: 2.0,
            max_retransmits: 15,
        }
    }

    /// Loopback-like link: tens of microseconds of delay, no loss — the
    /// paper's baseline configuration.
    pub fn loopback() -> NetemConfig {
        NetemConfig {
            delay: Nanos::from_micros(30),
            jitter: Some(Dist::exponential(5_000.0)),
            ..NetemConfig::ideal()
        }
    }

    /// `delay Xms loss Y%` — the Table II impaired configuration is
    /// `NetemConfig::impaired(Nanos::from_millis(10), 0.01)`.
    ///
    /// # Panics
    ///
    /// Panics if `loss` is outside `[0, 1]`.
    pub fn impaired(delay: Nanos, loss: f64) -> NetemConfig {
        assert!((0.0..=1.0).contains(&loss), "loss must be in [0, 1]");
        NetemConfig {
            delay,
            jitter: Some(Dist::exponential(5_000.0)),
            loss: if loss > 0.0 {
                LossModel::Bernoulli { p: loss }
            } else {
                LossModel::None
            },
            ..NetemConfig::ideal()
        }
    }
}

impl Default for NetemConfig {
    fn default() -> Self {
        NetemConfig::loopback()
    }
}

/// Outcome of sending one message through the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transit {
    /// Time from send to successful delivery.
    pub delay: Nanos,
    /// Total transmissions (1 = no loss).
    pub transmissions: u32,
}

/// Outcome of one unreliable (datagram) transmission attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DatagramTransit {
    /// One-way transit time. For a dropped datagram this is when the loss
    /// resolves at the link (useful to release sender-side inflight
    /// budget deterministically); nothing arrives at the receiver.
    pub delay: Nanos,
    /// Whether the datagram arrived.
    pub delivered: bool,
}

/// Aggregate link statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Messages offered to the link.
    pub offered: u64,
    /// Messages delivered. For the reliable [`NetemLink::send`] path this
    /// equals `offered` (delivery is eventual); datagrams sent with
    /// [`NetemLink::send_datagram`] may instead count into `dropped`.
    pub delivered: u64,
    /// Transmissions lost and retransmitted (reliable path only).
    pub retransmissions: u64,
    /// Datagrams lost outright (unreliable path only).
    pub dropped: u64,
    /// Payload bytes offered via [`NetemLink::send_datagram_sized`].
    pub bytes_offered: u64,
    /// Payload bytes delivered via [`NetemLink::send_datagram_sized`].
    pub bytes_delivered: u64,
}

/// One direction of an emulated network path.
///
/// # Examples
///
/// ```
/// use kscope_netem::{NetemConfig, NetemLink};
/// use kscope_simcore::{Nanos, SimRng};
///
/// let mut link = NetemLink::new(NetemConfig::impaired(Nanos::from_millis(10), 0.0));
/// let mut rng = SimRng::seed_from_u64(3);
/// let transit = link.send(&mut rng);
/// assert!(transit.delay >= Nanos::from_millis(10));
/// assert_eq!(transit.transmissions, 1);
/// ```
#[derive(Debug, Clone)]
pub struct NetemLink {
    config: NetemConfig,
    /// Gilbert–Elliott state: true = bad.
    ge_bad: bool,
    stats: LinkStats,
}

impl NetemLink {
    /// Creates a link with the given configuration.
    pub fn new(config: NetemConfig) -> NetemLink {
        NetemLink {
            config,
            ge_bad: false,
            stats: LinkStats::default(),
        }
    }

    /// The link's configuration.
    pub fn config(&self) -> &NetemConfig {
        &self.config
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    fn transmission_lost(&mut self, rng: &mut SimRng) -> bool {
        match self.config.loss {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.next_bool(p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            } => {
                let p = if self.ge_bad { loss_bad } else { loss_good };
                let lost = rng.next_bool(p);
                // State transition after each transmission.
                if self.ge_bad {
                    if rng.next_bool(p_bad_to_good) {
                        self.ge_bad = false;
                    }
                } else if rng.next_bool(p_good_to_bad) {
                    self.ge_bad = true;
                }
                lost
            }
        }
    }

    fn one_way(&self, rng: &mut SimRng) -> Nanos {
        let jitter = self
            .config
            .jitter
            .as_ref()
            .map(|d| d.sample_nanos(rng))
            .unwrap_or(Nanos::ZERO);
        self.config.delay + jitter
    }

    /// Sends one message; returns when (relative to now) it arrives and how
    /// many transmissions it took.
    pub fn send(&mut self, rng: &mut SimRng) -> Transit {
        self.stats.offered += 1;
        let mut elapsed = Nanos::ZERO;
        let mut rto = self.config.rto;
        let mut transmissions = 1u32;
        while transmissions <= self.config.max_retransmits && self.transmission_lost(rng) {
            // Sender waits out the RTO, then retransmits with backoff.
            elapsed += rto;
            rto = Nanos::from_nanos((rto.as_nanos() as f64 * self.config.rto_backoff) as u64);
            transmissions += 1;
            self.stats.retransmissions += 1;
        }
        self.stats.delivered += 1;
        Transit {
            delay: elapsed + self.one_way(rng),
            transmissions,
        }
    }

    /// Sends one message with **no** retransmission — UDP-style datagram
    /// semantics for control-plane traffic that tolerates loss (e.g. the
    /// fleet report channel, whose cumulative payloads make any later
    /// report subsume a lost one). A single transmission attempt either
    /// arrives after the one-way delay (plus jitter) or is dropped and
    /// counted in [`LinkStats::dropped`]. Jitter reorders: two datagrams
    /// sent back-to-back may arrive out of order, which is why receivers
    /// must sequence-check.
    pub fn send_datagram(&mut self, rng: &mut SimRng) -> DatagramTransit {
        self.stats.offered += 1;
        let lost = self.transmission_lost(rng);
        let delay = self.one_way(rng);
        if lost {
            self.stats.dropped += 1;
        } else {
            self.stats.delivered += 1;
        }
        DatagramTransit {
            delay,
            delivered: !lost,
        }
    }

    /// [`NetemLink::send_datagram`] with a payload size, so the link
    /// accounts wire bytes: `bytes` counts into
    /// [`LinkStats::bytes_offered`], and into
    /// [`LinkStats::bytes_delivered`] when the datagram arrives. This is
    /// what the fleet's O(K) report envelopes travel through — the byte
    /// ledger is how the collection plane proves its reports stay
    /// constant-size as entity counts grow.
    pub fn send_datagram_sized(&mut self, rng: &mut SimRng, bytes: u64) -> DatagramTransit {
        let transit = self.send_datagram(rng);
        self.stats.bytes_offered += bytes;
        if transit.delivered {
            self.stats.bytes_delivered += bytes;
        }
        transit
    }
}

/// A bidirectional path: request direction and response direction with the
/// same configuration (the paper configures both sides of loopback at once).
#[derive(Debug, Clone)]
pub struct NetemPath {
    /// Client → server direction.
    pub request: NetemLink,
    /// Server → client direction.
    pub response: NetemLink,
}

impl NetemPath {
    /// Creates a symmetric path from one configuration.
    pub fn symmetric(config: NetemConfig) -> NetemPath {
        NetemPath {
            request: NetemLink::new(config.clone()),
            response: NetemLink::new(config),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ideal_link_is_instant_and_lossless() {
        let mut link = NetemLink::new(NetemConfig::ideal());
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            let t = link.send(&mut rng);
            assert_eq!(t.delay, Nanos::ZERO);
            assert_eq!(t.transmissions, 1);
        }
        assert_eq!(link.stats().retransmissions, 0);
        assert_eq!(link.stats().offered, 1000);
        assert_eq!(link.stats().delivered, 1000);
    }

    #[test]
    fn fixed_delay_applies() {
        let mut cfg = NetemConfig::ideal();
        cfg.delay = Nanos::from_millis(10);
        let mut link = NetemLink::new(cfg);
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(link.send(&mut rng).delay, Nanos::from_millis(10));
    }

    #[test]
    fn bernoulli_loss_rate_matches_configuration() {
        let mut cfg = NetemConfig::ideal();
        cfg.loss = LossModel::Bernoulli { p: 0.1 };
        let mut link = NetemLink::new(cfg);
        let mut rng = SimRng::seed_from_u64(3);
        let n = 100_000;
        for _ in 0..n {
            link.send(&mut rng);
        }
        // Retransmission count ≈ expected losses: n * p / (1 - p).
        let expected = n as f64 * 0.1 / 0.9;
        let got = link.stats().retransmissions as f64;
        assert!(
            (got - expected).abs() / expected < 0.05,
            "retransmissions {got}, expected ≈ {expected}"
        );
    }

    #[test]
    fn loss_charges_rto_with_backoff() {
        let mut cfg = NetemConfig::ideal();
        cfg.loss = LossModel::Bernoulli { p: 1.0 };
        cfg.max_retransmits = 2;
        cfg.rto = Nanos::from_millis(100);
        let mut link = NetemLink::new(cfg);
        let mut rng = SimRng::seed_from_u64(4);
        let t = link.send(&mut rng);
        // Both allowed retransmissions were consumed: 100ms + 200ms of RTO.
        assert_eq!(t.delay, Nanos::from_millis(300));
        assert_eq!(t.transmissions, 3);
    }

    #[test]
    fn delivery_is_eventual_even_at_full_loss() {
        let mut cfg = NetemConfig::ideal();
        cfg.loss = LossModel::Bernoulli { p: 1.0 };
        let mut link = NetemLink::new(cfg.clone());
        let mut rng = SimRng::seed_from_u64(5);
        let t = link.send(&mut rng);
        assert_eq!(t.transmissions, cfg.max_retransmits + 1);
        assert_eq!(link.stats().delivered, 1);
    }

    #[test]
    fn gilbert_elliott_steady_state() {
        let model = LossModel::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.09,
            loss_good: 0.0,
            loss_bad: 0.5,
        };
        // pi_bad = 0.01 / 0.1 = 0.1; loss = 0.1 * 0.5 = 0.05.
        assert!((model.steady_state_loss() - 0.05).abs() < 1e-12);

        let mut cfg = NetemConfig::ideal();
        cfg.loss = model;
        let mut link = NetemLink::new(cfg);
        let mut rng = SimRng::seed_from_u64(6);
        let n = 200_000;
        for _ in 0..n {
            link.send(&mut rng);
        }
        let rate = link.stats().retransmissions as f64
            / (link.stats().offered + link.stats().retransmissions) as f64;
        assert!(
            (rate - 0.05).abs() < 0.01,
            "observed loss rate {rate}, expected ≈ 0.05"
        );
    }

    #[test]
    fn jitter_widens_the_delay_distribution() {
        let mut cfg = NetemConfig::ideal();
        cfg.delay = Nanos::from_micros(100);
        cfg.jitter = Some(Dist::uniform(0.0, 50_000.0));
        let mut link = NetemLink::new(cfg);
        let mut rng = SimRng::seed_from_u64(7);
        let delays: Vec<u64> = (0..100)
            .map(|_| link.send(&mut rng).delay.as_nanos())
            .collect();
        assert!(delays.iter().all(|&d| d >= 100_000));
        assert!(delays.iter().any(|&d| d > 110_000));
    }

    #[test]
    fn impaired_preset_matches_table_two_column() {
        let cfg = NetemConfig::impaired(Nanos::from_millis(10), 0.01);
        assert_eq!(cfg.delay, Nanos::from_millis(10));
        assert_eq!(cfg.loss, LossModel::Bernoulli { p: 0.01 });
        assert_eq!(cfg.loss.steady_state_loss(), 0.01);
        let zero = NetemConfig::impaired(Nanos::ZERO, 0.0);
        assert_eq!(zero.loss, LossModel::None);
    }

    #[test]
    fn datagrams_drop_instead_of_retransmitting() {
        let mut cfg = NetemConfig::ideal();
        cfg.loss = LossModel::Bernoulli { p: 0.2 };
        let mut link = NetemLink::new(cfg);
        let mut rng = SimRng::seed_from_u64(11);
        let n = 50_000u64;
        for _ in 0..n {
            link.send_datagram(&mut rng);
        }
        let stats = link.stats();
        assert_eq!(stats.offered, n);
        assert_eq!(stats.delivered + stats.dropped, n);
        assert_eq!(stats.retransmissions, 0);
        let rate = stats.dropped as f64 / n as f64;
        assert!(
            (rate - 0.2).abs() < 0.01,
            "drop rate {rate}, expected ≈ 0.2"
        );
    }

    #[test]
    fn ideal_datagrams_all_arrive_instantly() {
        let mut link = NetemLink::new(NetemConfig::ideal());
        let mut rng = SimRng::seed_from_u64(12);
        for _ in 0..100 {
            let t = link.send_datagram(&mut rng);
            assert!(t.delivered);
            assert_eq!(t.delay, Nanos::ZERO);
        }
        assert_eq!(link.stats().dropped, 0);
        assert_eq!(link.stats().delivered, 100);
    }

    #[test]
    fn sized_datagrams_keep_a_byte_ledger() {
        let mut cfg = NetemConfig::ideal();
        cfg.loss = LossModel::Bernoulli { p: 0.3 };
        let mut link = NetemLink::new(cfg);
        let mut rng = SimRng::seed_from_u64(21);
        let n = 10_000u64;
        for _ in 0..n {
            link.send_datagram_sized(&mut rng, 700);
        }
        let stats = link.stats();
        assert_eq!(stats.bytes_offered, n * 700);
        assert_eq!(stats.bytes_delivered, stats.delivered * 700);
        assert!(
            stats.bytes_delivered < stats.bytes_offered,
            "30% loss drops bytes"
        );
        // The datagram counters and the byte ledger agree exactly.
        assert_eq!(
            stats.bytes_offered - stats.bytes_delivered,
            stats.dropped * 700
        );
    }

    #[test]
    fn unsized_datagrams_leave_the_byte_ledger_untouched() {
        let mut link = NetemLink::new(NetemConfig::ideal());
        let mut rng = SimRng::seed_from_u64(22);
        link.send_datagram(&mut rng);
        assert_eq!(link.stats().bytes_offered, 0);
        assert_eq!(link.stats().bytes_delivered, 0);
    }

    #[test]
    fn symmetric_path_has_independent_stats() {
        let mut path = NetemPath::symmetric(NetemConfig::ideal());
        let mut rng = SimRng::seed_from_u64(8);
        path.request.send(&mut rng);
        assert_eq!(path.request.stats().offered, 1);
        assert_eq!(path.response.stats().offered, 0);
    }

    #[test]
    #[should_panic(expected = "loss must be in")]
    fn impaired_rejects_bad_loss() {
        NetemConfig::impaired(Nanos::ZERO, 1.5);
    }
}
