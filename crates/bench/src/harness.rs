//! Helpers shared by the smoke and benchmark binaries: contract
//! failures that exit non-zero, leg selection, latency percentiles, and
//! the peak-RSS cell every bench row carries.

use std::time::Duration;

/// Prints `[<binary>] FAIL: <msg>` to stderr and exits with status 1.
pub fn fail(msg: &str) -> ! {
    let bin = std::env::args()
        .next()
        .and_then(|arg0| {
            std::path::Path::new(&arg0)
                .file_stem()
                .map(|s| s.to_string_lossy().into_owned())
        })
        .unwrap_or_else(|| "bench".to_string());
    eprintln!("[{bin}] FAIL: {msg}");
    std::process::exit(1);
}

/// [`fail`]s with `msg` unless `cond` holds.
pub fn ensure(cond: bool, msg: &str) {
    if !cond {
        fail(msg);
    }
}

/// Whether leg `name` runs: `var` holds a comma list of leg names
/// (unknown names are ignored); empty or unset means every leg.
pub fn leg_enabled(var: &str, name: &str) -> bool {
    match std::env::var(var) {
        Ok(v) if !v.trim().is_empty() => v.split(',').any(|l| l.trim() == name),
        _ => true,
    }
}

/// Nearest-rank percentile `p` (in `[0, 1]`) of ascending `sorted`
/// samples; zero when there are none.
pub fn percentile(sorted: &[Duration], p: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

/// Process peak RSS in MB, or a dash where procfs is unavailable.
pub fn peak_rss_mb() -> String {
    match sarn_obs::peak_rss_bytes() {
        Some(bytes) => format!("{:.1}", bytes as f64 / (1024.0 * 1024.0)),
        None => "-".to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_of_no_samples_is_zero_and_ends_are_min_and_max() {
        assert_eq!(percentile(&[], 0.99), Duration::ZERO);
        let v: Vec<Duration> = (1..=5).map(Duration::from_millis).collect();
        assert_eq!(percentile(&v, 0.0), Duration::from_millis(1));
        assert_eq!(percentile(&v, 0.5), Duration::from_millis(3));
        assert_eq!(percentile(&v, 1.0), Duration::from_millis(5));
    }
}
