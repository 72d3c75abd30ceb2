//! The estimators every reported number goes through: exact percentiles
//! over sorted samples, quartile spread (the driver's acceptance statistic),
//! and per-second window series with their medians.

/// Nanoseconds in one second; the width of a reporting window.
pub const SEC_NS: u64 = 1_000_000_000;

/// Sort `values` in place and return their nearest-rank percentile, `q`
/// in `[0, 1]`. An empty slice reads as 0, so an idle layer is zero, not
/// NaN.
pub fn percentile_of(values: &mut [u64], q: f64) -> f64 {
    values.sort_unstable();
    if values.is_empty() {
        return 0.0;
    }
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1] as f64
}

/// Median with the midpoint rule for even counts (what Python's
/// `statistics.median` returns, so `--compare` agrees with the driver).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method — the cut points
/// `statistics.quantiles(values, n=4)` returns. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |i: usize| {
        // Position i*(n+1)/4 in 1-based ranks, interpolated and clamped.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median: the spread the
/// driver holds against each metric's bound.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let m = median(values);
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// Samples bucketed into consecutive one-second windows starting at
/// `start_ns`. Samples outside `[start_ns, start_ns + secs)` are ignored.
pub struct Windows {
    start_ns: u64,
    buckets: Vec<Vec<u64>>,
}

impl Windows {
    pub fn new(start_ns: u64, secs: usize) -> Windows {
        Windows { start_ns, buckets: vec![Vec::new(); secs] }
    }

    /// File `value` under the window that contains instant `at_ns`.
    pub fn add(&mut self, at_ns: u64, value: u64) {
        if at_ns < self.start_ns {
            return;
        }
        let idx = ((at_ns - self.start_ns) / SEC_NS) as usize;
        if let Some(b) = self.buckets.get_mut(idx) {
            b.push(value);
        }
    }

    /// Samples per window (a rate series when one sample is one event).
    pub fn counts(&self) -> Vec<f64> {
        self.buckets.iter().map(|b| b.len() as f64).collect()
    }

    /// Median sample of each non-empty window.
    pub fn medians(&mut self) -> Vec<f64> {
        self.buckets.iter_mut().filter(|b| !b.is_empty()).map(|b| percentile_of(b, 0.5)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_on_known_data() {
        let mut w: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile_of(&mut w, 0.5), 50.0);
        assert_eq!(percentile_of(&mut w, 0.99), 99.0);
        assert_eq!(percentile_of(&mut w, 0.999), 100.0);
        assert_eq!(percentile_of(&mut w, 1.0), 100.0);
        assert_eq!(percentile_of(&mut w, 0.0), 1.0);
        assert_eq!(percentile_of(&mut [], 0.5), 0.0);
        assert_eq!(percentile_of(&mut [7], 0.999), 7.0);
    }

    #[test]
    fn median_and_quartiles_match_python_statistics() {
        // statistics.median([1,2,3,4]) == 2.5
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the
        // exclusive method extrapolates past both ends on tiny inputs.
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn window_medians_ignore_a_stalled_second() {
        // Five seconds of 100 events/s, one of which stalls to 10/s: the
        // window median stays at 100 where the mean would read 82.
        let mut w = Windows::new(SEC_NS, 5);
        for s in 0..5u64 {
            let events = if s == 2 { 10 } else { 100 };
            for e in 0..events {
                w.add(SEC_NS + s * SEC_NS + e * 1000, 500 + s);
            }
        }
        w.add(0, 1); // before the first window
        w.add(7 * SEC_NS, 1); // after the last
        assert_eq!(w.counts(), vec![100.0, 100.0, 10.0, 100.0, 100.0]);
        assert_eq!(median(&w.counts()), 100.0);
        assert_eq!(w.medians(), vec![500.0, 501.0, 502.0, 503.0, 504.0]);
    }
}
