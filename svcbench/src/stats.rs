//! Order statistics for latency samples.
//!
//! Percentiles use the nearest-rank definition on the sorted samples, so a
//! reported p99 is always a latency that some request actually saw. Each
//! summary carries its sample count and how many samples lie above the
//! percentile, so a reader can tell a p99 backed by a thousand samples
//! from one backed by three.

/// Nearest-rank percentile of already sorted samples (`p` in 0..=100).
/// `None` for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Median of unsorted values (mean of the two middle values for an even
/// count); `None` for no values.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len().is_multiple_of(2) {
        (v[mid - 1] + v[mid]) / 2.0
    } else {
        v[mid]
    })
}

/// p50 and p99 of one sample set, with the counts behind them.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Median (0 when `n == 0`).
    pub p50: f64,
    /// 99th percentile (0 when `n == 0`).
    pub p99: f64,
    /// Samples strictly above the reported p99.
    pub beyond_p99: usize,
}

impl Summary {
    /// Summarizes `samples` (any order) with [`band_percentile`] p50 and
    /// p99.
    pub fn smoothed(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let p99 = band_percentile(&v, 99.0);
        Summary {
            n: v.len(),
            p50: band_percentile(&v, 50.0),
            p99,
            beyond_p99: v.iter().filter(|&&x| x > p99).count(),
        }
    }

    /// Summarizes `samples` (any order).
    pub fn of(samples: &[f64]) -> Summary {
        let mut v = samples.to_vec();
        v.sort_by(f64::total_cmp);
        let p50 = percentile(&v, 50.0).unwrap_or(0.0);
        let p99 = percentile(&v, 99.0).unwrap_or(0.0);
        let beyond_p99 = v.iter().filter(|&&x| x > p99).count();
        Summary {
            n: v.len(),
            p50,
            p99,
            beyond_p99,
        }
    }
}

/// Median over consecutive one-second buckets of event instants (ns),
/// counted from the first event; the last, partial bucket is dropped by
/// sizing the buckets to the whole seconds of `window_s`. A burst of CPU
/// steal on the host moves one bucket, not the figure.
pub fn median_rate(instants_ns: &[u64], window_s: f64) -> f64 {
    let Some(&t0) = instants_ns.iter().min() else {
        return 0.0;
    };
    let mut buckets = vec![0.0; (window_s.floor() as usize).max(1)];
    for &t in instants_ns {
        if let Some(b) = buckets.get_mut(((t - t0) / 1_000_000_000) as usize) {
            *b += 1.0;
        }
    }
    median(&buckets).unwrap_or(0.0)
}

/// Percentile `p` of sorted samples estimated as the mean of the order
/// statistics from `p - 0.5` to `p + 0.5` (at least one sample).
/// Averaging the band around the rank, instead of taking the one sample
/// at it, keeps a p99 set by a dozen samples from jumping with any one of
/// them, and gives a median of coarse timer ticks all its digits.
pub fn band_percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let n = sorted.len() as f64;
    let rank = |q: f64| ((q / 100.0 * n).ceil() as usize).clamp(1, sorted.len());
    let (lo, hi) = (rank(p - 0.5), rank(p + 0.5));
    let band = &sorted[lo - 1..hi.max(lo)];
    band.iter().sum::<f64>() / band.len() as f64
}

/// [`band_percentile`] p99 of unsorted samples.
pub fn smoothed_p99(samples: &[f64]) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    band_percentile(&v, 99.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[7.0], 99.0), Some(7.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn summary_counts_samples_and_the_tail() {
        // 1000 samples: p99 is the 990th, ten samples lie beyond it.
        let v: Vec<f64> = (0..1000).rev().map(f64::from).collect();
        let s = Summary::of(&v);
        assert_eq!(s.n, 1000);
        assert_eq!(s.p50, 499.0);
        assert_eq!(s.p99, 989.0);
        assert_eq!(s.beyond_p99, 10);
        let empty = Summary::of(&[]);
        assert_eq!((empty.n, empty.p50, empty.beyond_p99), (0, 0.0, 0));
    }

    #[test]
    fn ties_at_the_percentile_are_not_beyond_it() {
        let s = Summary::of(&[5.0; 200]);
        assert_eq!((s.p50, s.p99, s.beyond_p99), (5.0, 5.0, 0));
    }

    #[test]
    fn rate_is_the_median_whole_second_bucket() {
        // 10/s for three seconds, then a stalled second with 1 event.
        let mut t: Vec<u64> = (0..30).map(|i| i * 100_000_000).collect();
        t.push(3_500_000_000);
        assert_eq!(median_rate(&t, 4.0), 10.0);
        assert_eq!(median_rate(&[], 4.0), 0.0);
    }

    #[test]
    fn band_percentiles_average_around_the_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        // Ranks 495..=505 and 985..=995.
        assert_eq!(band_percentile(&v, 50.0), 500.0);
        let s = Summary::smoothed(&v);
        assert_eq!((s.n, s.p50, s.p99, s.beyond_p99), (1000, 500.0, 990.0, 10));
        assert_eq!(band_percentile(&[], 50.0), 0.0);
    }

    #[test]
    fn smoothed_p99_averages_the_band_around_the_rank() {
        // 1..=1000: ranks 985..=995 average to 990.
        let v: Vec<f64> = (1..=1000).rev().map(f64::from).collect();
        assert_eq!(smoothed_p99(&v), 990.0);
        assert_eq!(smoothed_p99(&[7.0]), 7.0);
        assert_eq!(smoothed_p99(&[]), 0.0);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
