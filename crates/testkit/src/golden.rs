//! Golden-trace regression support.
//!
//! Fixtures are committed as plain text so review diffs show exactly what
//! an estimator is expected to produce. Two file formats:
//!
//! **Trace files** (`*.trace`) — one tracepoint firing per line, in
//! chronological order, exactly the fields a probe attached to
//! `raw_syscalls:sys_enter`/`sys_exit` can read:
//!
//! ```text
//! # phase syscall tgid tid ktime_ns ret
//! enter epoll_wait 1200 1201 100000 0
//! exit  epoll_wait 1200 1201 400000 1
//! exit  sendmsg    1200 1201 500000 64
//! ```
//!
//! **Expectation files** (`*.expected`) — `key = value ~ tolerance`
//! lines; the tolerance is absolute and mandatory, so every golden
//! comparison states how much drift it accepts:
//!
//! ```text
//! rps_obsv = 1000.0 ~ 0.5
//! var_send = 0.0    ~ 1e-3
//! ```
//!
//! [`Expectations::check`] panics with the fixture key, both values, and
//! the tolerance, so a red test names the drifted metric directly.
//!
//! **Exact goldens** (`*.golden`) — rendered text that must match byte
//! for byte; [`assert_matches_golden`] compares it, or rewrites the file
//! under `UPDATE_GOLDEN=1`.

use std::collections::BTreeMap;

use kscope_simcore::Nanos;
use kscope_syscalls::{pid_tgid, NetCtx, SyscallNo, TracePhase, TracepointCtx};

/// A malformed fixture line.
#[derive(Debug, Clone, PartialEq)]
pub struct GoldenError {
    /// 1-based line number in the fixture text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for GoldenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "fixture line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for GoldenError {}

fn gerr(line: usize, message: impl Into<String>) -> GoldenError {
    GoldenError {
        line,
        message: message.into(),
    }
}

/// Strips comments (`#` to end of line) and surrounding whitespace;
/// returns `None` for blank lines.
fn significant(line: &str) -> Option<&str> {
    let line = match line.find('#') {
        Some(pos) => &line[..pos],
        None => line,
    };
    let line = line.trim();
    if line.is_empty() {
        None
    } else {
        Some(line)
    }
}

/// Parses a trace fixture into tracepoint firings, in file order.
///
/// # Errors
///
/// Returns a [`GoldenError`] naming the offending line for unknown
/// phases or syscall names, missing fields, or unparsable numbers.
///
/// # Examples
///
/// ```
/// use kscope_testkit::golden::parse_trace;
///
/// let ctxs = parse_trace("exit sendmsg 1200 1201 500000 64").unwrap();
/// assert_eq!(ctxs.len(), 1);
/// assert_eq!(ctxs[0].tgid(), 1200);
/// ```
pub fn parse_trace(text: &str) -> Result<Vec<TracepointCtx>, GoldenError> {
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let Some(line) = significant(raw) else {
            continue;
        };
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 6 {
            return Err(gerr(
                line_no,
                format!("expected 6 fields (phase syscall tgid tid ktime ret), got {}", fields.len()),
            ));
        }
        let phase = match fields[0] {
            "enter" => TracePhase::Enter,
            "exit" => TracePhase::Exit,
            other => return Err(gerr(line_no, format!("unknown phase `{other}`"))),
        };
        let no = SyscallNo::from_name(fields[1])
            .ok_or_else(|| gerr(line_no, format!("unknown syscall `{}`", fields[1])))?;
        let tgid: u32 = fields[2]
            .parse()
            .map_err(|_| gerr(line_no, format!("bad tgid `{}`", fields[2])))?;
        let tid: u32 = fields[3]
            .parse()
            .map_err(|_| gerr(line_no, format!("bad tid `{}`", fields[3])))?;
        let ktime: u64 = fields[4]
            .parse()
            .map_err(|_| gerr(line_no, format!("bad ktime `{}`", fields[4])))?;
        let ret: i64 = fields[5]
            .parse()
            .map_err(|_| gerr(line_no, format!("bad ret `{}`", fields[5])))?;
        out.push(TracepointCtx {
            phase,
            no,
            pid_tgid: pid_tgid(tgid, tid),
            ktime: Nanos::from_nanos(ktime),
            ret,
            net: NetCtx::NONE,
        });
    }
    Ok(out)
}

/// One expected value with its explicit absolute tolerance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Expected {
    /// The golden value.
    pub value: f64,
    /// Maximum absolute deviation the comparison accepts.
    pub tolerance: f64,
}

/// A parsed expectation fixture: named golden values with tolerances.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Expectations {
    entries: BTreeMap<String, Expected>,
}

impl Expectations {
    /// Parses `key = value ~ tolerance` lines.
    ///
    /// # Errors
    ///
    /// Returns a [`GoldenError`] for syntax errors, duplicate keys,
    /// unparsable numbers, or negative tolerances.
    ///
    /// # Examples
    ///
    /// ```
    /// use kscope_testkit::golden::Expectations;
    ///
    /// let exp = Expectations::parse("rps = 1000.0 ~ 0.5").unwrap();
    /// exp.check("rps", 1000.2);
    /// ```
    pub fn parse(text: &str) -> Result<Expectations, GoldenError> {
        let mut entries = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let line_no = idx + 1;
            let Some(line) = significant(raw) else {
                continue;
            };
            let (key, rest) = line
                .split_once('=')
                .ok_or_else(|| gerr(line_no, "expected `key = value ~ tolerance`"))?;
            let (value_str, tol_str) = rest
                .split_once('~')
                .ok_or_else(|| gerr(line_no, "missing `~ tolerance` (tolerances are mandatory)"))?;
            let key = key.trim().to_string();
            let value: f64 = value_str
                .trim()
                .parse()
                .map_err(|_| gerr(line_no, format!("bad value `{}`", value_str.trim())))?;
            let tolerance: f64 = tol_str
                .trim()
                .parse()
                .map_err(|_| gerr(line_no, format!("bad tolerance `{}`", tol_str.trim())))?;
            if tolerance.is_nan() || tolerance < 0.0 {
                return Err(gerr(line_no, "tolerance must be non-negative"));
            }
            if entries
                .insert(key.clone(), Expected { value, tolerance })
                .is_some()
            {
                return Err(gerr(line_no, format!("key `{key}` defined twice")));
            }
        }
        Ok(Expectations { entries })
    }

    /// The expectation stored under `key`, if any.
    pub fn get(&self, key: &str) -> Option<Expected> {
        self.entries.get(key).copied()
    }

    /// All keys, in sorted order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(String::as_str)
    }

    /// Asserts `actual` is within the committed tolerance of `key`.
    ///
    /// # Panics
    ///
    /// Panics if `key` is absent from the fixture, or if the deviation
    /// exceeds the tolerance — naming the key, both values, and the
    /// allowed drift.
    #[track_caller]
    pub fn check(&self, key: &str, actual: f64) {
        let expected = self
            .entries
            .get(key)
            .unwrap_or_else(|| panic!("fixture has no expectation for `{key}`"));
        let deviation = (actual - expected.value).abs();
        assert!(
            deviation <= expected.tolerance,
            "golden drift on `{key}`: expected {} (±{}), got {} (off by {})",
            expected.value,
            expected.tolerance,
            actual,
            deviation,
        );
    }

    /// Like [`Expectations::check`] for `Option<f64>` estimator outputs:
    /// the fixture value `nan` asserts the estimator produced `None`;
    /// any other value asserts `Some` within tolerance.
    #[track_caller]
    pub fn check_opt(&self, key: &str, actual: Option<f64>) {
        let expected = self
            .entries
            .get(key)
            .unwrap_or_else(|| panic!("fixture has no expectation for `{key}`"));
        match (expected.value.is_nan(), actual) {
            (true, None) => {}
            (true, Some(got)) => panic!("`{key}`: expected None, estimator produced {got}"),
            (false, None) => panic!(
                "`{key}`: expected {} (±{}), estimator produced None",
                expected.value, expected.tolerance
            ),
            (false, Some(got)) => self.check(key, got),
        }
    }
}


/// Compares `actual` with the committed golden file at `path`, or
/// rewrites the file when the environment sets `UPDATE_GOLDEN=1`.
///
/// # Panics
///
/// Panics if the file cannot be read (or written), or if its contents
/// differ from `actual`.
#[track_caller]
pub fn assert_matches_golden(path: &str, actual: &str) {
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::write(path, actual).unwrap_or_else(|e| panic!("writing {path}: {e}"));
        return;
    }
    let expected = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("reading {path}: {e} (run with UPDATE_GOLDEN=1 to create)"));
    assert_eq!(
        expected, actual,
        "golden {path} drifted; review the diff and rerun with UPDATE_GOLDEN=1 if intended"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_lines_parse_with_comments() {
        let text = "\n# header\nenter epoll_wait 1200 1201 100000 0 # inline\nexit sendmsg 1200 1202 500000 64\n";
        let ctxs = parse_trace(text).unwrap();
        assert_eq!(ctxs.len(), 2);
        assert_eq!(ctxs[0].phase, TracePhase::Enter);
        assert_eq!(ctxs[0].no, SyscallNo::EPOLL_WAIT);
        assert_eq!(ctxs[1].tid(), 1202);
        assert_eq!(ctxs[1].ret, 64);
        assert_eq!(ctxs[1].ktime, Nanos::from_nanos(500_000));
    }

    #[test]
    fn trace_errors_carry_line_numbers() {
        let err = parse_trace("exit sendmsg 1200 1201 500000 64\nexit nosuchcall 1 2 3 4").unwrap_err();
        assert_eq!(err.line, 2);
        assert!(err.message.contains("nosuchcall"));
    }

    #[test]
    fn trace_rejects_wrong_arity() {
        let err = parse_trace("exit sendmsg 1200").unwrap_err();
        assert!(err.message.contains("6 fields"));
    }

    #[test]
    fn expectations_parse_and_check() {
        let exp = Expectations::parse("rps = 1000.0 ~ 0.5\nvar = 2.5e3 ~ 1.0").unwrap();
        exp.check("rps", 1000.4);
        exp.check("var", 2500.9);
        assert_eq!(exp.keys().collect::<Vec<_>>(), vec!["rps", "var"]);
    }

    #[test]
    #[should_panic(expected = "golden drift on `rps`")]
    fn drift_panics_with_the_key() {
        let exp = Expectations::parse("rps = 1000.0 ~ 0.5").unwrap();
        exp.check("rps", 1001.0);
    }

    #[test]
    fn nan_means_none() {
        let exp = Expectations::parse("thin = nan ~ 0").unwrap();
        exp.check_opt("thin", None);
    }

    #[test]
    #[should_panic(expected = "expected None")]
    fn nan_rejects_some() {
        let exp = Expectations::parse("thin = nan ~ 0").unwrap();
        exp.check_opt("thin", Some(3.0));
    }

    #[test]
    fn missing_tolerance_is_an_error() {
        assert!(Expectations::parse("rps = 1000.0").is_err());
        assert!(Expectations::parse("rps = 1000.0 ~ -1").is_err());
    }
}
