//! Latency summaries: nearest-rank percentiles that carry their sample
//! count, so no percentile is ever reported without the `n` behind it.

/// Timing samples in the order they were taken, in whatever unit the
/// caller recorded.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// The last `share` (0..=1) of the samples, at least one if any.
    pub fn tail(&self, share: f64) -> Samples {
        let n = self.values.len();
        let keep = ((n as f64 * share).ceil() as usize).clamp(n.min(1), n);
        Samples {
            values: self.values[n - keep..].to_vec(),
        }
    }

    /// The p50/p99 pair plus its sample count.
    pub fn summary(&self) -> Summary {
        summarize(&self.values)
    }
}

/// The nearest-rank `p`-th percentile (`0 < p <= 100`): the smallest
/// sample such that at least `p`% of the samples are at or below it, i.e.
/// the sample at 1-based rank `ceil(p/100 · n)`. `None` when empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().clamp(1.0, n as f64) as usize;
    Some(sorted[rank - 1])
}

fn summarize(values: &[f64]) -> Summary {
    Summary {
        n: values.len(),
        p50: percentile(values, 50.0).unwrap_or(f64::NAN),
        p99: percentile(values, 99.0).unwrap_or(f64::NAN),
    }
}

/// Median and 99th percentile with the sample count behind them.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub n: usize,
    pub p50: f64,
    pub p99: f64,
}

/// The median of a handful of values (nearest rank, as above).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 50.0).unwrap_or(f64::NAN)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(values: &[f64]) -> Samples {
        let mut s = Samples::default();
        for &v in values {
            s.push(v);
        }
        s
    }

    fn p(values: &[f64], q: f64) -> Option<f64> {
        percentile(values, q)
    }

    #[test]
    fn nearest_rank_picks_an_observed_sample() {
        // 1..=100: p50 is rank 50, p99 rank 99 — no interpolation.
        let s: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(p(&s, 50.0), Some(50.0));
        assert_eq!(p(&s, 99.0), Some(99.0));
        assert_eq!(p(&s, 100.0), Some(100.0));
        // Ten samples: p99 is rank ceil(9.9) = 10, the maximum.
        let s = [5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 10.0, 6.0];
        assert_eq!(p(&s, 50.0), Some(5.0));
        assert_eq!(p(&s, 99.0), Some(10.0));
        // Interpolation would give 2.5 here; nearest rank gives 2.
        assert_eq!(p(&[4.0, 1.0, 3.0, 2.0], 50.0), Some(2.0));
        assert_eq!(p(&[], 50.0), None);
    }

    #[test]
    fn summary_reports_its_sample_count() {
        let summary = samples(&[3.0, 1.0, 2.0]).summary();
        assert_eq!(summary.n, 3);
        assert_eq!(summary.p50, 2.0);
        assert_eq!(summary.p99, 3.0);
        let empty = Samples::default().summary();
        assert_eq!(empty.n, 0);
        assert!(empty.p50.is_nan());
    }

    #[test]
    fn tail_keeps_the_latest_samples() {
        let s = samples(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]);
        assert_eq!(s.tail(0.2).summary().p50, 9.0);
        assert_eq!(s.tail(0.2).len(), 2);
        assert_eq!(s.tail(0.01).len(), 1);
        assert_eq!(Samples::default().tail(0.1).len(), 0);
    }

    #[test]
    fn median_of_a_few_values() {
        assert_eq!(median(&[0.3, 0.1, 0.2]), 0.2);
        assert!(median(&[]).is_nan());
    }
}
