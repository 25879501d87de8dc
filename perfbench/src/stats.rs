//! Small measurement helpers: order statistics, a report digest, and the
//! peak resident set size of a process.

use std::fmt::Debug;

/// Median of `xs` (mean of the middle pair for even counts); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Median of `f` over `xs`.
pub fn median_of<T>(xs: &[T], f: impl Fn(&T) -> f64) -> f64 {
    median(&xs.iter().map(f).collect::<Vec<_>>())
}

/// Nearest-rank percentile `q` (0–1) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `p50/p90/p99/p99.9/max` of `xs` with the sample count, for the log.
pub fn quantiles(xs: &[f64]) -> String {
    format!(
        "n={} p50={:.1} p90={:.1} p99={:.1} p99.9={:.1} max={:.1}",
        xs.len(),
        percentile(xs, 0.5),
        percentile(xs, 0.9),
        percentile(xs, 0.99),
        percentile(xs, 0.999),
        percentile(xs, 1.0)
    )
}

/// FNV-1a 64 of a value's `Debug` rendering. Two `RunReport`s with the
/// same digest render byte-identically, which is how the benchmark shows
/// that the traced run and every repetition simulated the same thing.
pub fn digest(value: &impl Debug) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{value:?}").bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Peak resident set size (`VmHWM`) of process `pid` (`None` = this
/// process), in MiB. `None` when `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> Option<f64> {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".to_string(),
    };
    let status = std::fs::read_to_string(path).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.5), 50.0);
        assert_eq!(percentile(&xs, 0.99), 99.0);
        assert_eq!(percentile(&xs, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn digest_tracks_rendering() {
        assert_eq!(digest(&(1, "a")), digest(&(1, "a")));
        assert_ne!(digest(&(1, "a")), digest(&(2, "a")));
    }

    #[test]
    fn own_peak_rss_is_positive() {
        assert!(peak_rss_mb(None).is_some_and(|mb| mb > 0.0));
    }
}
