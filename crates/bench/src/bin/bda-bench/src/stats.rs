//! Order statistics used by every metric: nearest-rank percentiles,
//! medians, and the slice cut of a measured window.

/// Nearest-rank percentile of an ascending slice: the smallest value with
/// at least `p` percent of the samples at or below it. `NaN` when empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median: the middle value, or the mean of the two middle values.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// One completed operation: when it completed (ns since the window
/// opened) and how long the caller waited for it (ns).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    pub done_ns: u64,
    pub latency_ns: u64,
}

/// What one measured window says about one stream of operations.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Median of the per-slice latency medians, in ms.
    pub p50_ms: f64,
    /// Percentiles pooled over the whole window, in ms.
    pub p95_ms: f64,
    pub p99_ms: f64,
    /// Median of the per-slice completion rates, in ops/s.
    pub ops_per_s: f64,
    /// Samples inside the window.
    pub count: usize,
    /// The per-slice latency medians, in ms, in window order.
    pub slice_p50_ms: Vec<f64>,
}

/// Cut `[0, window_ns)` into `slices` equal parts by completion time and
/// summarise. Samples completing outside the window are ignored; an empty
/// slice contributes a rate of 0 and no median.
pub fn window_stats(samples: &[Sample], window_ns: u64, slices: usize) -> WindowStats {
    let slice_ns = (window_ns / slices as u64).max(1);
    let mut per_slice: Vec<Vec<f64>> = vec![Vec::new(); slices];
    let mut pooled = Vec::with_capacity(samples.len());
    for s in samples.iter().filter(|s| s.done_ns < window_ns) {
        let ms = s.latency_ns as f64 / 1e6;
        per_slice[((s.done_ns / slice_ns) as usize).min(slices - 1)].push(ms);
        pooled.push(ms);
    }
    pooled.sort_by(f64::total_cmp);
    let medians: Vec<f64> = per_slice
        .iter()
        .filter(|s| !s.is_empty())
        .map(|s| median(s))
        .collect();
    let rates: Vec<f64> = per_slice
        .iter()
        .map(|s| s.len() as f64 / (slice_ns as f64 / 1e9))
        .collect();
    WindowStats {
        p50_ms: median(&medians),
        p95_ms: percentile(&pooled, 95.0),
        p99_ms: percentile(&pooled, 99.0),
        ops_per_s: median(&rates),
        count: pooled.len(),
        slice_p50_ms: medians,
    }
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method), for the `--aa` spread report.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let q = |k: usize| -> f64 {
        if n < 2 {
            return v.first().copied().unwrap_or(f64::NAN);
        }
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(2), q(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 5.0);
        assert_eq!(percentile(&v, 95.0), 10.0);
        assert_eq!(percentile(&v, 90.0), 9.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&v, 100.0), 10.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 95.0), 190.0);
        assert_eq!(percentile(&v, 99.0), 198.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn window_is_cut_into_slices_by_completion_time() {
        // Four 1 s slices; slice i holds i+1 samples of latency (i+1) ms,
        // plus one straggler completing after the window closes.
        let mut samples = Vec::new();
        for slice in 0..4u64 {
            for j in 0..=slice {
                samples.push(Sample {
                    done_ns: slice * 1_000_000_000 + j * 1_000,
                    latency_ns: (slice + 1) * 1_000_000,
                });
            }
        }
        samples.push(Sample {
            done_ns: 4_000_000_001,
            latency_ns: 999_000_000,
        });
        let w = window_stats(&samples, 4_000_000_000, 4);
        assert_eq!(w.count, 10);
        // Slice medians are 1, 2, 3, 4 ms; slice rates 1, 2, 3, 4 ops/s.
        assert_eq!(w.p50_ms, 2.5);
        assert_eq!(w.ops_per_s, 2.5);
        assert_eq!(w.p95_ms, 4.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q2, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12);
        assert!((q2 - 5.5).abs() < 1e-12);
        assert!((q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        let (q1, q2, q3) = quartiles(&[40.0, 10.0, 20.0]);
        assert_eq!((q1, q2, q3), (10.0, 20.0, 40.0));
    }
}
