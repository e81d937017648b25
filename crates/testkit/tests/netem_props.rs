//! Gilbert–Elliott loss-model properties.
//!
//! The netstack figure and the Table II reproduction both lean on the
//! link's burst-loss model behaving like the two-state Markov chain it
//! claims to be. Checked here over seeded random parameterizations:
//!
//! 1. **Steady state**: `LossModel::steady_state_loss()` matches the
//!    long-run empirical loss fraction of a driven link, on both the
//!    datagram path (one transmission per send) and the reliable path
//!    (retransmissions until delivery).
//! 2. **Burst geometry**: with the classic Gilbert parameterization
//!    (`loss_good = 0`, `loss_bad = 1`) the lengths of consecutive-loss
//!    runs are geometric on `{1, 2, …}` with mean `1 / p_bad_to_good`,
//!    and the distribution is memoryless (the survival ratio past each
//!    prefix stays `1 - p_bad_to_good`).

use kscope_netem::{LossModel, NetemConfig, NetemLink};
use kscope_simcore::SimRng;
use kscope_testkit::{gen, Config};

fn ge_config(loss: LossModel) -> NetemConfig {
    NetemConfig {
        loss,
        ..NetemConfig::ideal()
    }
}

/// Drives `n` datagrams and returns the per-transmission loss sequence
/// (`true` = dropped).
fn loss_sequence(model: LossModel, seed: u64, n: usize) -> Vec<bool> {
    let mut link = NetemLink::new(ge_config(model));
    let mut rng = SimRng::seed_from_u64(seed);
    (0..n)
        .map(|_| !link.send_datagram(&mut rng).delivered)
        .collect()
}

/// Consecutive-loss run lengths of a loss sequence.
fn burst_lengths(losses: &[bool]) -> Vec<u64> {
    let mut bursts = Vec::new();
    let mut run = 0u64;
    for &lost in losses {
        if lost {
            run += 1;
        } else if run > 0 {
            bursts.push(run);
            run = 0;
        }
    }
    // Discard a trailing unfinished run: its length is censored.
    bursts
}

/// The analytic steady-state loss matches the empirical drop fraction of
/// a long datagram stream, and sits between the two per-state rates.
///
/// Tolerance: the chain decorrelates in `1 / (p_g2b + p_b2g) ≤ 5`
/// transmissions, so 20 000 transmissions give ≥ ~4 000 effective
/// samples; 0.05 absolute is several standard errors.
#[test]
fn steady_state_loss_matches_long_run_empirical_loss() {
    kscope_testkit::check!(
        Config::cases(24),
        |rng: &mut SimRng| {
            let p_good_to_bad = gen::f64_in(rng, 0.05, 0.5);
            let p_bad_to_good = gen::f64_in(rng, 0.15, 0.9);
            let loss_good = gen::f64_in(rng, 0.0, 0.1);
            let loss_bad = gen::f64_in(rng, 0.3, 0.95);
            let seed = gen::u64_any(rng);
            (p_good_to_bad, p_bad_to_good, loss_good, loss_bad, seed)
        },
        |&(p_good_to_bad, p_bad_to_good, loss_good, loss_bad, seed)| {
            let model = LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good,
                loss_bad,
            };
            let analytic = model.steady_state_loss();
            assert!(
                analytic >= loss_good && analytic <= loss_bad,
                "steady state {analytic} outside [{loss_good}, {loss_bad}]"
            );
            let n = 20_000usize;
            let losses = loss_sequence(model, seed, n);
            let empirical = losses.iter().filter(|&&l| l).count() as f64 / n as f64;
            assert!(
                (empirical - analytic).abs() < 0.05,
                "empirical loss {empirical:.4} vs steady state {analytic:.4} \
                 (p_g2b={p_good_to_bad:.3} p_b2g={p_bad_to_good:.3})"
            );
        }
    );
}

/// The reliable path sees the same steady state: counting every
/// transmission attempt (retransmissions + final deliveries), the lost
/// fraction matches `steady_state_loss()`. Loss rates are kept far from
/// the `max_retransmits` truncation point.
#[test]
fn reliable_path_retransmission_fraction_matches_steady_state() {
    kscope_testkit::check!(
        Config::cases(16),
        |rng: &mut SimRng| {
            let p_good_to_bad = gen::f64_in(rng, 0.05, 0.3);
            let p_bad_to_good = gen::f64_in(rng, 0.3, 0.9);
            let loss_bad = gen::f64_in(rng, 0.2, 0.6);
            let seed = gen::u64_any(rng);
            (p_good_to_bad, p_bad_to_good, loss_bad, seed)
        },
        |&(p_good_to_bad, p_bad_to_good, loss_bad, seed)| {
            let model = LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                loss_good: 0.0,
                loss_bad,
            };
            let analytic = model.steady_state_loss();
            let mut link = NetemLink::new(ge_config(model));
            let mut rng = SimRng::seed_from_u64(seed);
            for _ in 0..10_000 {
                link.send(&mut rng);
            }
            let stats = link.stats();
            let attempts = stats.retransmissions + stats.delivered;
            let empirical = stats.retransmissions as f64 / attempts as f64;
            assert!(
                (empirical - analytic).abs() < 0.05,
                "reliable-path loss {empirical:.4} vs steady state {analytic:.4}"
            );
        }
    );
}

/// Classic Gilbert bursts (`loss_good = 0`, `loss_bad = 1`) are
/// geometric: every transmission in the bad state is lost, so a burst
/// lasts exactly as long as the bad-state sojourn — geometric on
/// `{1, 2, …}` with mean `1 / p_bad_to_good` — and memoryless, so the
/// fraction of bursts surviving past any prefix length decays by
/// `1 - p_bad_to_good` per step.
#[test]
fn gilbert_burst_lengths_are_geometric_with_mean_inverse_recovery() {
    kscope_testkit::check!(
        Config::cases(16),
        |rng: &mut SimRng| {
            let p_bad_to_good = gen::f64_in(rng, 0.2, 0.8);
            let seed = gen::u64_any(rng);
            (p_bad_to_good, seed)
        },
        |&(p_bad_to_good, seed)| {
            let model = LossModel::GilbertElliott {
                p_good_to_bad: 0.05,
                p_bad_to_good,
                loss_good: 0.0,
                loss_bad: 1.0,
            };
            let losses = loss_sequence(model, seed, 60_000);
            let bursts = burst_lengths(&losses);
            assert!(
                bursts.len() > 500,
                "only {} bursts observed — stream too short to test",
                bursts.len()
            );
            let expected_mean = 1.0 / p_bad_to_good;
            let mean = bursts.iter().sum::<u64>() as f64 / bursts.len() as f64;
            assert!(
                (mean - expected_mean).abs() < 0.2 * expected_mean,
                "burst mean {mean:.3} vs 1/p_b2g = {expected_mean:.3}"
            );
            // Memorylessness: survival past length k decays geometrically.
            let survive = |k: u64| bursts.iter().filter(|&&b| b > k).count() as f64;
            let continue_rate = 1.0 - p_bad_to_good;
            for k in 0..2u64 {
                let at_least_k = survive(k);
                if at_least_k < 100.0 {
                    break; // Too few long bursts to estimate the ratio.
                }
                let ratio = survive(k + 1) / at_least_k;
                assert!(
                    (ratio - continue_rate).abs() < 0.1,
                    "survival ratio past {} is {ratio:.3}, expected {continue_rate:.3}",
                    k + 1
                );
            }
        }
    );
}
