//! Exact-sample latency recording and percentiles.
//!
//! Every sample is kept, so a percentile is an order statistic of the
//! measured values rather than the edge of a histogram bucket: a move from
//! 45 µs to 60 µs shows, where loadgen's power-of-two buckets would report
//! both as `le_64`.

/// A percentile must leave at least this many samples above it, or it is
/// refused: a p99 read off 200 samples is the third-largest value, not a
/// tail estimate.
pub const MIN_BEYOND: usize = 10;

/// A percentile together with the sample count it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The order statistic (same unit as the samples).
    pub value: f64,
    /// Samples recorded.
    pub samples: usize,
    /// Samples strictly ranked above the reported one.
    pub beyond: usize,
}

/// Exact per-operation samples.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// An empty recorder sized for `n` samples.
    pub fn with_capacity(n: usize) -> Samples {
        Samples {
            values: Vec::with_capacity(n),
            sorted: true,
        }
    }

    /// Records one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Share of samples at or above `threshold`.
    pub fn share_at_least(&self, threshold: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        let n = self.values.iter().filter(|&&v| v >= threshold).count();
        n as f64 / self.values.len() as f64
    }

    /// The nearest-rank `p`-th percentile (`0 < p < 100`): the smallest
    /// sample with at least `p`% of samples at or below it. Refused when
    /// fewer than [`MIN_BEYOND`] samples rank above it.
    pub fn percentile(&mut self, p: f64) -> Result<Percentile, String> {
        assert!(p > 0.0 && p < 100.0, "percentile {p} out of (0, 100)");
        let n = self.values.len();
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let beyond = n.saturating_sub(rank);
        if rank == 0 || beyond < MIN_BEYOND {
            return Err(format!(
                "p{p} refused: {n} samples leave {beyond} beyond it (need {MIN_BEYOND})"
            ));
        }
        Ok(Percentile {
            value: self.values[rank - 1],
            samples: n,
            beyond,
        })
    }
}

/// Median of a list of per-repetition values (mean of the middle two for
/// an even count). Panics on an empty list: every caller measures at least
/// once.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: impl IntoIterator<Item = f64>) -> Samples {
        let mut s = Samples::default();
        for v in values {
            s.push(v);
        }
        s
    }

    #[test]
    fn nearest_rank_picks_an_order_statistic() {
        let mut s = samples((1..=1000).rev().map(f64::from));
        let p50 = s.percentile(50.0).unwrap();
        assert_eq!(p50.value, 500.0);
        assert_eq!(p50.beyond, 500);
        let p99 = s.percentile(99.0).unwrap();
        assert_eq!(p99.value, 990.0);
        assert_eq!((p99.samples, p99.beyond), (1000, 10));
    }

    #[test]
    fn refuses_a_percentile_without_ten_samples_beyond() {
        let mut s = samples((1..=999).map(f64::from));
        let err = s.percentile(99.0).unwrap_err();
        assert!(err.contains("9 beyond"), "{err}");
        assert!(s.percentile(95.0).is_ok());
        assert!(Samples::default().percentile(50.0).is_err());
    }

    #[test]
    fn resolves_changes_a_power_of_two_bucket_hides() {
        // 45 µs and 60 µs share the (32, 64] bucket; exact samples differ.
        let mut before = samples(std::iter::repeat_n(45.0, 100));
        let mut after = samples(std::iter::repeat_n(60.0, 100));
        assert_eq!(before.percentile(50.0).unwrap().value, 45.0);
        assert_eq!(after.percentile(50.0).unwrap().value, 60.0);
    }

    #[test]
    fn share_and_median() {
        let s = samples([0.5, 1.0, 2.0, 0.1]);
        assert_eq!(s.share_at_least(1.0), 0.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
