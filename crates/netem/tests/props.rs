//! Property-based tests for the network emulator.

use kscope_netem::{LossModel, NetemConfig, NetemLink};
use kscope_simcore::{Nanos, SimRng};
use kscope_testkit::{gen, Config};

/// Conservation: every offered message is eventually delivered, and
/// transit delay is never below the configured propagation delay.
#[test]
fn conservation_and_delay_floor() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| {
            (
                gen::u64_any(rng),
                gen::u64_in(rng, 0, 49_999),
                gen::f64_in(rng, 0.0, 0.6),
                gen::usize_in(rng, 1, 199),
            )
        },
        |&(seed, delay_us, loss, n): &(u64, u64, f64, usize)| {
            let mut cfg = NetemConfig::impaired(Nanos::from_micros(delay_us), loss);
            cfg.jitter = None;
            let mut link = NetemLink::new(cfg);
            let mut rng = SimRng::seed_from_u64(seed);
            for _ in 0..n {
                let t = link.send(&mut rng);
                assert!(t.delay >= Nanos::from_micros(delay_us));
                assert!(t.transmissions >= 1);
            }
            assert_eq!(link.stats().offered, n as u64);
            assert_eq!(link.stats().delivered, n as u64);
        }
    );
}

/// Retransmission count is bounded by the configured maximum.
#[test]
fn retransmissions_are_bounded() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| (gen::u64_any(rng), gen::u64_in(rng, 0, 7) as u32),
        |&(seed, max_rtx): &(u64, u32)| {
            let mut cfg = NetemConfig::ideal();
            cfg.loss = LossModel::Bernoulli { p: 0.9 };
            cfg.max_retransmits = max_rtx;
            let mut link = NetemLink::new(cfg);
            let mut rng = SimRng::seed_from_u64(seed);
            for _ in 0..100 {
                let t = link.send(&mut rng);
                assert!(t.transmissions <= max_rtx + 1);
            }
        }
    );
}

/// A lossless link never retransmits, whatever the other knobs say.
#[test]
fn lossless_links_never_retransmit() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| (gen::u64_any(rng), gen::u64_in(rng, 0, 9_999)),
        |&(seed, delay_us): &(u64, u64)| {
            let mut link = NetemLink::new(NetemConfig::impaired(Nanos::from_micros(delay_us), 0.0));
            let mut rng = SimRng::seed_from_u64(seed);
            for _ in 0..200 {
                assert_eq!(link.send(&mut rng).transmissions, 1);
            }
            assert_eq!(link.stats().retransmissions, 0);
        }
    );
}

/// Steady-state loss of any model is a probability.
#[test]
fn steady_state_loss_is_a_probability() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| {
            (
                gen::f64_in(rng, 0.0, 1.0),
                gen::f64_in(rng, 0.0, 1.0),
                gen::f64_in(rng, 0.0, 1.0),
                gen::f64_in(rng, 0.0, 1.0),
            )
        },
        |&(p_gb, p_bg, lg, lb): &(f64, f64, f64, f64)| {
            let model = LossModel::GilbertElliott {
                p_good_to_bad: p_gb,
                p_bad_to_good: p_bg,
                loss_good: lg,
                loss_bad: lb,
            };
            let rate = model.steady_state_loss();
            assert!((0.0..=1.0).contains(&rate), "rate {rate}");
        }
    );
}

/// Determinism of the control channel: a seeded channel applied twice to
/// the same event stream yields identical per-message delivery times and
/// an identical drop set — the prerequisite trust for routing fleet
/// reports through netem. Exercises jitter (reordering source), both loss
/// models, and the unreliable datagram path's stats.
#[test]
fn seeded_channel_replays_identically() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| {
            (
                gen::u64_any(rng),
                gen::u64_in(rng, 0, 9_999),
                gen::f64_in(rng, 0.0, 0.5),
                gen::bool_any(rng),
                gen::usize_in(rng, 1, 300),
            )
        },
        |&(seed, delay_us, loss, bursty, n): &(u64, u64, f64, bool, usize)| {
            let mut cfg = NetemConfig::impaired(Nanos::from_micros(delay_us), loss);
            if bursty && loss > 0.0 {
                cfg.loss = LossModel::GilbertElliott {
                    p_good_to_bad: loss / 2.0,
                    p_bad_to_good: 0.3,
                    loss_good: loss / 4.0,
                    loss_bad: 0.9,
                };
            }
            let replay = |cfg: &NetemConfig| {
                let mut link = NetemLink::new(cfg.clone());
                let mut rng = SimRng::seed_from_u64(seed);
                // (delivery time | None for dropped) per message, i.e. the
                // delivery schedule and the drop set in one sequence.
                let schedule: Vec<Option<Nanos>> = (0..n)
                    .map(|_| {
                        let t = link.send_datagram(&mut rng);
                        t.delivered.then_some(t.delay)
                    })
                    .collect();
                (schedule, *link.stats())
            };
            let (sched_a, stats_a) = replay(&cfg);
            let (sched_b, stats_b) = replay(&cfg);
            assert_eq!(sched_a, sched_b);
            assert_eq!(stats_a, stats_b);
            assert_eq!(
                stats_a.delivered + stats_a.dropped,
                n as u64,
                "every datagram is either delivered or counted dropped"
            );
        }
    );
}

/// Determinism: identical seeds produce identical transit sequences.
#[test]
fn links_are_deterministic() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| gen::u64_any(rng),
        |&seed: &u64| {
            let cfg = NetemConfig::impaired(Nanos::from_millis(1), 0.2);
            let mut a = NetemLink::new(cfg.clone());
            let mut b = NetemLink::new(cfg);
            let mut rng_a = SimRng::seed_from_u64(seed);
            let mut rng_b = SimRng::seed_from_u64(seed);
            for _ in 0..50 {
                assert_eq!(a.send(&mut rng_a), b.send(&mut rng_b));
            }
        }
    );
}
