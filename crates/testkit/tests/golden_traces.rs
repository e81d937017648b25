//! Golden-trace regression tests: committed tracepoint streams pushed
//! through the real probe pipeline, with every derived metric checked
//! against committed expectations and explicit tolerances.
//!
//! The fixtures are exact by construction (scaling shift 0, integer
//! nanosecond deltas), so most tolerances are tiny; each `.expected`
//! file documents the arithmetic behind its numbers.

use kscope_core::{
    MetricBackend, NativeBackend, ProbeSet, RpsEstimator, SaturationDetector,
    SlackEstimator, WindowMetrics, WindowedObserver,
};
use kscope_kernel::TracepointProbe;
use kscope_simcore::Nanos;
use kscope_syscalls::SyscallProfile;
use kscope_testkit::golden::{parse_trace, Expectations};

const STEADY_TRACE: &str = include_str!("fixtures/steady_1krps.trace");
const STEADY_EXPECTED: &str = include_str!("fixtures/steady_1krps.expected");
const BURSTY_TRACE: &str = include_str!("fixtures/bursty_saturation.trace");
const BURSTY_EXPECTED: &str = include_str!("fixtures/bursty_saturation.expected");
const SLACK_TRACE: &str = include_str!("fixtures/poll_slack_ramp.trace");
const SLACK_EXPECTED: &str = include_str!("fixtures/poll_slack_ramp.expected");

/// The tgid every fixture uses.
const TGID: u32 = 1200;
/// All fixtures are laid out on a 64ms observation window.
const WINDOW_MS: u64 = 64;

/// Replays a trace fixture through the JIT-compiled bytecode probe —
/// the probe every experiment attaches — with 64ms windows.
fn replay(trace: &str, finish_ms: u64) -> Vec<WindowMetrics> {
    let ctxs = parse_trace(trace).expect("fixture must parse");
    let backend = ProbeSet::new(vec![TGID], SyscallProfile::data_caching(), 0)
        .with_jit()
        .build()
        .expect("probe program must build");
    let mut observer = WindowedObserver::new(backend, Nanos::from_millis(WINDOW_MS));
    for ctx in &ctxs {
        observer.fire(ctx);
    }
    observer.finish(Nanos::from_millis(finish_ms));
    observer.into_windows()
}

fn as_flag(b: bool) -> f64 {
    if b {
        1.0
    } else {
        0.0
    }
}

/// Steady 1000 RPS loop: raw window metrics, the Eq. 1 estimate, and
/// the slack assessment all match the committed goldens.
#[test]
fn steady_loop_matches_goldens() {
    let exp = Expectations::parse(STEADY_EXPECTED).expect("expectations must parse");
    let windows = replay(STEADY_TRACE, WINDOW_MS);
    assert_eq!(windows.len(), 1, "fixture is one window long");
    let w = &windows[0];

    exp.check_opt("rps_obsv", w.rps_obsv);
    exp.check_opt("recv_rate", w.recv_rate);
    exp.check_opt("var_send", w.var_send);
    exp.check_opt("var_recv", w.var_recv);
    exp.check_opt("poll_mean_ns", w.poll_mean_ns);
    exp.check("poll_count", w.poll_count as f64);
    exp.check("send_samples", w.send_samples as f64);
    exp.check("events", w.events as f64);

    let est = RpsEstimator::with_min_samples(32);
    exp.check_opt("rps_eq1", est.from_window(w));

    let mut slack = SlackEstimator::default();
    let a = slack.observe(w).expect("64 polls is enough signal");
    exp.check("slack_headroom", a.headroom);
    exp.check("slack_saturated", as_flag(a.saturated));
}

/// Variance knee (Eq. 2): same throughput in both windows, 81x the
/// inter-send variance in the second — the detector must flag exactly
/// the bursty window.
#[test]
fn bursty_saturation_matches_goldens() {
    let exp = Expectations::parse(BURSTY_EXPECTED).expect("expectations must parse");
    let windows = replay(BURSTY_TRACE, 2 * WINDOW_MS);
    assert_eq!(windows.len(), 2, "fixture is two windows long");

    let mut det = SaturationDetector::default();
    det.min_samples = 32;
    let a0 = det.observe(&windows[0]).expect("window 0 carries signal");
    let a1 = det.observe(&windows[1]).expect("window 1 carries signal");

    exp.check("w0_rps", a0.rps);
    exp.check_opt("w0_var_send", windows[0].var_send);
    exp.check("w0_saturated", as_flag(a0.saturated));
    exp.check("w1_rps", a1.rps);
    exp.check_opt("w1_var_send", windows[1].var_send);
    exp.check("w1_saturated", as_flag(a1.saturated));
    exp.check("variance_floor", a1.variance_floor);
}

/// Poll-slack ramp (§IV-C2): headroom follows the committed log-scale
/// positions as mean poll duration falls toward the floor.
#[test]
fn poll_slack_ramp_matches_goldens() {
    let exp = Expectations::parse(SLACK_EXPECTED).expect("expectations must parse");
    let windows = replay(SLACK_TRACE, 3 * WINDOW_MS);
    assert_eq!(windows.len(), 3, "fixture is three windows long");

    let mut slack = SlackEstimator::default();
    for (i, w) in windows.iter().enumerate() {
        let a = slack.observe(w).unwrap_or_else(|| panic!("window {i} carries signal"));
        exp.check(&format!("w{i}_poll_mean_ns"), a.poll_mean_ns);
        exp.check(&format!("w{i}_headroom"), a.headroom);
        exp.check(&format!("w{i}_saturated"), as_flag(a.saturated));
    }
}

/// Both backends — native Rust and verified eBPF bytecode — must decode
/// to identical counters over every committed fixture stream.
#[test]
fn backends_agree_on_golden_traces() {
    for (name, trace) in [
        ("steady_1krps", STEADY_TRACE),
        ("bursty_saturation", BURSTY_TRACE),
        ("poll_slack_ramp", SLACK_TRACE),
    ] {
        let ctxs = parse_trace(trace).expect("fixture must parse");
        let mut native = NativeBackend::new(TGID, SyscallProfile::data_caching(), 0);
        let mut bytecode = ProbeSet::new(vec![TGID], SyscallProfile::data_caching(), 0)
            .build()
            .expect("probe program must build");
        for ctx in &ctxs {
            native.on_event(ctx);
            bytecode.on_event(ctx);
        }
        assert_eq!(
            native.counters(),
            bytecode.counters(),
            "backends diverged on fixture `{name}`"
        );
    }
}

/// Every expectation key in every fixture is consumed by a test above;
/// a stray key would silently check nothing.
#[test]
fn no_orphan_expectation_keys() {
    let consumed: &[(&str, &[&str])] = &[
        (
            STEADY_EXPECTED,
            &[
                "rps_obsv",
                "recv_rate",
                "var_send",
                "var_recv",
                "poll_mean_ns",
                "poll_count",
                "send_samples",
                "events",
                "rps_eq1",
                "slack_headroom",
                "slack_saturated",
            ],
        ),
        (
            BURSTY_EXPECTED,
            &[
                "w0_rps",
                "w0_var_send",
                "w0_saturated",
                "w1_rps",
                "w1_var_send",
                "w1_saturated",
                "variance_floor",
            ],
        ),
        (
            SLACK_EXPECTED,
            &[
                "w0_poll_mean_ns",
                "w0_headroom",
                "w0_saturated",
                "w1_poll_mean_ns",
                "w1_headroom",
                "w1_saturated",
                "w2_poll_mean_ns",
                "w2_headroom",
                "w2_saturated",
            ],
        ),
    ];
    for (text, keys) in consumed {
        let exp = Expectations::parse(text).unwrap();
        for key in exp.keys() {
            assert!(keys.contains(&key), "expectation `{key}` is never checked");
        }
        for key in *keys {
            assert!(exp.get(key).is_some(), "test checks missing key `{key}`");
        }
    }
}
