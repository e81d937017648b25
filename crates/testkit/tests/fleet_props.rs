//! Fleet collection-plane properties.
//!
//! The load-bearing one is **mergeability**: the fleet's estimator state
//! (count/Σδ/Σδ² sufficient statistics per stream, plus log2 histogram
//! cells) merged across K shards must equal the state computed over the
//! concatenated stream — bit for bit in every integer cell, which in turn
//! makes every derived float identical. This is the algebraic fact that
//! lets the collector merge per-host reports without bias, whatever the
//! sharding; the acceptance bar is ≥500 seeded iterations over
//! K ∈ {1, 4, 16}.

use kscope_core::{Log2Hist, RawCounters, SketchState, StackDelay};
use kscope_fleet::{run_fleet, Collector, FleetConfig, HostSlot, ReportEnvelope};
use kscope_simcore::{Nanos, SimRng};
use kscope_testkit::{gen, Config};

/// One synthetic probe sample: which stream it lands in and its raw value.
#[derive(Debug, Clone, Copy)]
enum Stream {
    Send,
    Recv,
    Poll,
}

fn apply(state: &mut (RawCounters, Log2Hist), sample: (Stream, u64, u64)) {
    let (stream, raw, ts) = sample;
    let (counters, hist) = state;
    match stream {
        Stream::Send => {
            counters.send.push(raw);
            counters.send_last_ts = counters.send_last_ts.max(ts);
        }
        Stream::Recv => {
            counters.recv.push(raw);
            counters.recv_last_ts = counters.recv_last_ts.max(ts);
        }
        Stream::Poll => {
            counters.poll.push(raw);
            hist.record(raw);
        }
    }
    counters.events = counters.events.wrapping_add(1);
}

fn assert_states_equal(merged: &(RawCounters, Log2Hist), whole: &(RawCounters, Log2Hist)) {
    let (mc, mh) = merged;
    let (wc, wh) = whole;
    // Integer cells: bit for bit.
    for (label, m, w) in [
        ("send", &mc.send, &wc.send),
        ("recv", &mc.recv, &wc.recv),
        ("poll", &mc.poll, &wc.poll),
    ] {
        assert_eq!(m.count, w.count, "{label} count");
        assert_eq!(m.sum, w.sum, "{label} sum");
        assert_eq!(m.sum_sq, w.sum_sq, "{label} sum_sq");
    }
    assert_eq!(mc.events, wc.events, "events");
    assert_eq!(mc.send_last_ts, wc.send_last_ts, "send_last_ts");
    assert_eq!(mc.recv_last_ts, wc.recv_last_ts, "recv_last_ts");
    assert_eq!(mh.buckets(), wh.buckets(), "histogram cells");
    // Derived floats follow from the cells, so equality is exact — well
    // inside the 1e-9 relative bound the acceptance criteria allow.
    for (label, m, w) in [
        ("send", &mc.send, &wc.send),
        ("recv", &mc.recv, &wc.recv),
        ("poll", &mc.poll, &wc.poll),
    ] {
        assert_eq!(m.mean(), w.mean(), "{label} mean");
        assert_eq!(m.variance(), w.variance(), "{label} variance");
    }
}

/// Merging K per-shard states equals computing over the concatenated
/// stream, for K ∈ {1, 4, 16}, across ≥500 seeded iterations.
#[test]
fn merged_shards_equal_concatenated_stream() {
    kscope_testkit::check!(
        Config::cases(510),
        |rng: &mut SimRng| {
            let k = gen::pick(rng, &[1usize, 4, 16]);
            let shift = gen::u64_in(rng, 0, 12) as u32;
            let n = gen::usize_in(rng, 0, 400);
            let samples: Vec<(u8, u64)> = (0..n)
                .map(|_| {
                    let stream = gen::u64_in(rng, 0, 2) as u8;
                    // Mix tiny, realistic, and near-overflow magnitudes so
                    // the wrapping arithmetic is exercised, not assumed.
                    let raw = match gen::u64_in(rng, 0, 9) {
                        0 => gen::u64_in(rng, 0, 3),
                        1..=7 => gen::u64_in(rng, 1_000, 400_000_000),
                        _ => gen::u64_any(rng),
                    };
                    (stream, raw)
                })
                .collect();
            (k, shift, samples)
        },
        |&(k, shift, ref samples): &(usize, u32, Vec<(u8, u64)>)| {
            let decode = |(stream, raw): (u8, u64), ts: u64| {
                let stream = match stream {
                    0 => Stream::Send,
                    1 => Stream::Recv,
                    _ => Stream::Poll,
                };
                (stream, raw, ts)
            };
            // The concatenated-stream state.
            let mut whole = (RawCounters::new(shift), Log2Hist::new(shift));
            for (i, &s) in samples.iter().enumerate() {
                apply(&mut whole, decode(s, i as u64));
            }
            // K contiguous shards (uneven on purpose), merged in order.
            let chunk = samples.len().div_ceil(k).max(1);
            let mut merged = (RawCounters::new(shift), Log2Hist::new(shift));
            for (shard_idx, shard) in samples.chunks(chunk).enumerate() {
                let mut state = (RawCounters::new(shift), Log2Hist::new(shift));
                for (j, &s) in shard.iter().enumerate() {
                    apply(&mut state, decode(s, (shard_idx * chunk + j) as u64));
                }
                merged.0.merge(&state.0);
                merged.1.merge(&state.1);
            }
            assert_states_equal(&merged, &whole);
        }
    );
}

/// Shard-order invariance: because the cells are wrapping sums, merging
/// the per-shard states in any order yields the same integer state.
#[test]
fn merge_is_order_invariant() {
    kscope_testkit::check!(
        Config::cases(128),
        |rng: &mut SimRng| {
            let n = gen::usize_in(rng, 0, 200);
            let samples: Vec<(u8, u64)> = (0..n)
                .map(|_| {
                    (
                        gen::u64_in(rng, 0, 2) as u8,
                        gen::u64_in(rng, 0, 500_000_000),
                    )
                })
                .collect();
            samples
        },
        |samples: &Vec<(u8, u64)>| {
            let build = |shard: &[(u8, u64)], base: usize| {
                let mut state = (RawCounters::new(4), Log2Hist::new(4));
                for (j, &(stream, raw)) in shard.iter().enumerate() {
                    let stream = match stream {
                        0 => Stream::Send,
                        1 => Stream::Recv,
                        _ => Stream::Poll,
                    };
                    apply(&mut state, (stream, raw, (base + j) as u64));
                }
                state
            };
            let chunk = samples.len().div_ceil(4).max(1);
            let shards: Vec<_> = samples
                .chunks(chunk)
                .enumerate()
                .map(|(i, s)| build(s, i * chunk))
                .collect();
            let mut forward = (RawCounters::new(4), Log2Hist::new(4));
            for s in &shards {
                forward.0.merge(&s.0);
                forward.1.merge(&s.1);
            }
            let mut reverse = (RawCounters::new(4), Log2Hist::new(4));
            for s in shards.iter().rev() {
                reverse.0.merge(&s.0);
                reverse.1.merge(&s.1);
            }
            assert_states_equal(&forward, &reverse);
        }
    );
}

/// End-to-end accounting conservation under arbitrary loss: whatever the
/// channel does, every report is accounted for exactly once on each side
/// of the ledger, and the collector's state is never silently wrong.
#[test]
fn fleet_accounting_conserves_under_any_loss() {
    kscope_testkit::check!(
        Config::cases(12),
        |rng: &mut SimRng| {
            (
                gen::u64_any(rng),
                gen::usize_in(rng, 2, 6),
                gen::f64_in(rng, 0.0, 0.5),
            )
        },
        |&(seed, hosts, loss): &(u64, usize, f64)| {
            let mut config = FleetConfig::quick(hosts).with_loss(loss);
            config.seed = seed;
            let run = match run_fleet(&config) {
                Ok(run) => run,
                Err(e) => panic!("fleet build failed: {e:?}"),
            };
            let rollup = run.rollup(3);
            let acc = rollup.accounting;
            assert_eq!(acc.produced, acc.shed + acc.offered);
            assert_eq!(acc.offered, acc.channel_delivered + acc.channel_dropped);
            assert_eq!(acc.accepted + acc.stale, acc.channel_delivered);
            assert!(rollup.reporting_hosts + rollup.silent_hosts == hosts);
        }
    );
}

/// Host 0's report `seq`, with a payload that differs per sequence
/// number so a slot holding the wrong envelope shows.
fn host0_report(seq: u64) -> ReportEnvelope {
    let mut cum = RawCounters::new(0);
    cum.send.push(seq);
    cum.events = seq;
    ReportEnvelope {
        host: 0,
        seq,
        sent_at: Nanos::from_nanos(seq),
        windows_observed: seq,
        cum,
        hist: Log2Hist::new(0),
        sketch: SketchState::new(8, 8),
        stack: StackDelay::new(0),
        latest_rps: None,
        saturation: None,
        slack: None,
    }
}

/// Folding a host's arrivals into its slot on the worker that simulated
/// it ([`HostSlot::receive`]) equals feeding the same arrivals to the
/// collector ([`Collector::receive`]), for streams with drops,
/// duplicates, replays, reordering, sequence numbers near `u64::MAX`,
/// and interleaved envelopes from host ids outside the fleet. Either
/// way every delivered report is accepted or stale, exactly once.
#[test]
fn worker_folding_equals_collector_receive() {
    kscope_testkit::check!(
        Config::cases(300),
        |rng: &mut SimRng| {
            let base = gen::pick(rng, &[0, 1_000, u64::MAX - 1_000]);
            let n = gen::u64_in(rng, 0, 40);
            // Sent in order, some lost on the way.
            let mut seqs: Vec<u64> = (0..n)
                .filter(|_| gen::u64_in(rng, 0, 4) != 0)
                .map(|i| base + i)
                .collect();
            // Duplicates and replays: an earlier report again, later.
            for _ in 0..gen::usize_in(rng, 0, seqs.len() / 2) {
                let from = gen::usize_in(rng, 0, seqs.len() - 1);
                let to = gen::usize_in(rng, from, seqs.len());
                seqs.insert(to, seqs[from]);
            }
            // Reordering in flight.
            for _ in 0..gen::usize_in(rng, 0, seqs.len() / 2) {
                let a = gen::usize_in(rng, 0, seqs.len() - 1);
                let b = gen::usize_in(rng, 0, seqs.len() - 1);
                seqs.swap(a, b);
            }
            seqs.into_iter()
                .map(|seq| (seq, gen::u64_in(rng, 0, 5_000), gen::u64_in(rng, 0, 9) == 0))
                .collect::<Vec<(u64, u64, bool)>>()
        },
        |stream: &Vec<(u64, u64, bool)>| {
            let mut slot = HostSlot::default();
            let mut collector = Collector::new(1, 0, 1);
            let mut now = Nanos::ZERO;
            let mut hostile = 0;
            for &(seq, gap_ns, from_unknown_host) in stream {
                now += Nanos::from_nanos(gap_ns);
                slot.receive(host0_report(seq), now);
                if from_unknown_host {
                    let mut stray = host0_report(seq);
                    stray.host = 1 + seq as u32 % 7;
                    collector.receive(stray, now);
                    hostile += 1;
                }
                collector.receive(host0_report(seq), now);
            }
            let folded = &collector.slots()[0];
            assert_eq!(slot.accepted, folded.accepted, "accepted");
            assert_eq!(slot.stale, folded.stale, "stale");
            assert_eq!(slot.gaps, folded.gaps, "gaps");
            assert_eq!(slot.last_seq, folded.last_seq, "last_seq");
            assert_eq!(slot.latest, folded.latest, "latest");
            assert_eq!(&slot, folded);
            assert_eq!(collector.unknown_host_reports(), hostile);
            assert_eq!(slot.accepted + slot.stale, stream.len() as u64);
            // A report is stale exactly when an earlier arrival carried a
            // sequence number at least as new.
            let stale = (0..stream.len())
                .filter(|&i| stream[..i].iter().any(|e| e.0 >= stream[i].0))
                .count();
            assert_eq!(slot.stale, stale as u64, "stale by definition");
            // The slot holds the newest report, and every sequence number
            // up to it was either accepted or counted missing.
            let newest = stream.iter().map(|&(seq, _, _)| seq).max();
            assert_eq!(slot.last_seq, newest);
            assert_eq!(slot.latest.as_ref().map(|e| e.seq), newest);
            if let Some(last) = newest {
                assert_eq!(u128::from(slot.accepted + slot.gaps), u128::from(last) + 1);
            }
        }
    );
}
