//! Order statistics and process measurements.

/// The median of `values` (the mean of the middle pair for an even count),
/// or `None` when there are none.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    })
}

/// The `q` quantile of `values` (`q` in 0..=1), interpolated linearly
/// between the two nearest ranks, or `None` when there are none.
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    Some(sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64))
}

/// The throughput a run reports from its per-operation (or per-window)
/// rates: their upper quartile. Other tenants of a shared host only ever
/// slow an operation down, so the faster quartile follows the program and
/// moves less with the host's load than the median does.
pub fn steady_rate(rates: &[f64]) -> Option<f64> {
    quantile(rates, 0.75)
}

/// Samples that must lie beyond a reported tail value.
pub const TAIL_BEYOND: usize = 10;

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentage of samples at or below `value`.
    pub percentile: f64,
    /// The sample at that percentile.
    pub value: f64,
    /// Samples the percentile was taken over.
    pub samples: usize,
    /// Samples strictly above the percentile's rank.
    pub beyond: usize,
}

/// The tail of `values` by the rule above, or `None` with fewer than
/// `TAIL_BEYOND + 1` samples.
///
/// With `n` sorted samples the value at rank `n − 10` (1-based) has
/// exactly ten samples ranked above it, and it sits at the
/// `100 · (n − 10) / n` percentile.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let n = values.len();
    if n <= TAIL_BEYOND {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = n - TAIL_BEYOND;
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        samples: n,
        beyond: TAIL_BEYOND,
    })
}

/// Peak resident set size of this process (`VmHWM`) in MiB, where the
/// platform exposes it.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
