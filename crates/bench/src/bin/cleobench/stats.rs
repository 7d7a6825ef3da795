//! The arithmetic every reported number goes through: percentiles of a
//! sample, the median over a run's windows, and quartile spread.

/// The `q`-quantile (0..=1) of `sorted` by the nearest-rank rule: the smallest
/// sample with at least a share `q` of the samples at or below it.  Panics on
/// an empty slice: every caller has attempted at least one operation.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sort `xs` in place (all values are finite durations or counts).
pub fn sort(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("finite sample"));
}

/// Median of a sample: the mean of the two middle values when the count is
/// even, so a run of an even number of windows does not favour either half.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let mut v = xs.to_vec();
    sort(&mut v);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of a sample (0 for an empty one).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)` gives
/// them (the "exclusive" method), so `--calibrate` reports the same spread the
/// benchmark driver computes.  Needs at least two values.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two values");
    let mut v = xs.to_vec();
    sort(&mut v);
    let n = v.len();
    let cut = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

/// Per-window latency samples reduced to the run's p50 and p95: each window's
/// percentile is taken on its own and the run reports the median over
/// windows, so one stalled window cannot move the result.
#[derive(Debug, Default)]
pub struct WindowedLatency {
    p50: Vec<f64>,
    p95: Vec<f64>,
    p99: Vec<f64>,
    samples: usize,
}

impl WindowedLatency {
    /// Fold one window's samples (any order; the slice is sorted in place).
    /// `scale` converts to reported units and applies the window's speed
    /// factor.
    pub fn push_window(&mut self, samples: &mut [f64], scale: f64) {
        if samples.is_empty() {
            return;
        }
        sort(samples);
        self.p50.push(percentile_sorted(samples, 0.50) * scale);
        self.p95.push(percentile_sorted(samples, 0.95) * scale);
        self.p99.push(percentile_sorted(samples, 0.99) * scale);
        self.samples += samples.len();
    }

    /// Windows folded so far.
    pub fn windows(&self) -> usize {
        self.p50.len()
    }

    /// Samples folded so far, over all windows.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Median over windows of the per-window p50.
    pub fn p50(&self) -> f64 {
        median(&self.p50)
    }

    /// Median over windows of the per-window p95.
    pub fn p95(&self) -> f64 {
        median(&self.p95)
    }

    /// Median over windows of the per-window p99 (per-layer only: too noisy
    /// on a shared builder to gate on).
    pub fn p99(&self) -> f64 {
        median(&self.p99)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_sorted(&v, 0.50), 50.0);
        assert_eq!(percentile_sorted(&v, 0.95), 95.0);
        assert_eq!(percentile_sorted(&v, 0.99), 99.0);
        assert_eq!(percentile_sorted(&v, 1.0), 100.0);
        assert_eq!(percentile_sorted(&v, 0.0), 1.0);
        assert_eq!(percentile_sorted(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn median_handles_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12);
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        let (q1, q3) = quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]);
        assert!((q1 - 15.0).abs() < 1e-12 && (q3 - 120.0).abs() < 1e-12);
        assert!((spread(&[160.0, 10.0, 40.0, 20.0, 80.0]) - 105.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn one_stalled_window_does_not_move_the_median_of_windows() {
        let mut lat = WindowedLatency::default();
        for w in 0..7 {
            let stall = if w == 3 { 100.0 } else { 1.0 };
            let mut window: Vec<f64> = (1..=200).map(|i| f64::from(i) * stall).collect();
            lat.push_window(&mut window, 1.0);
        }
        assert_eq!(lat.windows(), 7);
        assert_eq!(lat.samples(), 1400);
        assert_eq!(lat.p50(), 100.0);
        assert_eq!(lat.p95(), 190.0);
        assert_eq!(lat.p99(), 198.0);
    }
}
