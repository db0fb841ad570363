//! Small statistics and process helpers shared by the workloads.

use std::time::{Duration, Instant};

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `values`; 0 when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Run `f` and return its result with the elapsed wall time.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Reset the process's peak resident set (`VmHWM`) to its current resident
/// set, so the next [`peak_rss_mb`] reads the peak of what ran in between.
pub fn reset_peak_rss() -> Result<(), String> {
    std::fs::write("/proc/self/clear_refs", "5")
        .map_err(|e| format!("cannot reset VmHWM through /proc/self/clear_refs: {e}"))
}

/// The process's peak resident set (`VmHWM`) in MB, from
/// `/proc/self/status`; 0 where that file does not exist.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Repeat `rep` until `budget` has elapsed and at least `min_reps` ran,
/// or until `rep` returns false (a repetition that cannot go on).
pub fn repeat_for(budget: Duration, min_reps: usize, mut rep: impl FnMut() -> bool) {
    let start = Instant::now();
    let mut reps = 0usize;
    while reps < min_reps || start.elapsed() < budget {
        if !rep() {
            return;
        }
        reps += 1;
    }
}
