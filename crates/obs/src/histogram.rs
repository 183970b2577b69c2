//! Log-scale histogram with cheap recording and quantile extraction.

use std::collections::BTreeMap;

/// Subbuckets per octave (power of two). 16 gives bucket boundaries
/// `2^(k/16)`, i.e. a worst-case relative quantile error of
/// `2^(1/16) - 1 ≈ 4.4%`.
const SUBBUCKETS_PER_OCTAVE: f64 = 16.0;

/// Offset added to `log2(value) * 16` so indices stay non-negative for
/// every finite positive `f64` (minimum exponent ≈ -1075 for subnormals).
const INDEX_OFFSET: f64 = 20_000.0;

/// A histogram over non-negative samples with logarithmically spaced
/// buckets: relative resolution ~4.4% per bucket, O(log n) memory in the
/// dynamic range actually observed. Zero (and negative) samples are kept in
/// a dedicated bucket so counts stay exact.
#[derive(Debug, Clone, Default)]
pub struct LogHistogram {
    buckets: BTreeMap<u32, u64>,
    zero_count: u64,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

fn bucket_index(value: f64) -> u32 {
    (value.log2() * SUBBUCKETS_PER_OCTAVE + INDEX_OFFSET).floor() as u32
}

fn bucket_midpoint(index: u32) -> f64 {
    // Geometric midpoint of the bucket [2^(k/16), 2^((k+1)/16)).
    ((index as f64 + 0.5 - INDEX_OFFSET) / SUBBUCKETS_PER_OCTAVE).exp2()
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample. Non-finite samples are ignored; zero and
    /// negative samples land in the exact zero bucket.
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            return;
        }
        if self.count == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.count += 1;
        self.sum += value;
        if value > 0.0 {
            *self.buckets.entry(bucket_index(value)).or_insert(0) += 1;
        } else {
            self.zero_count += 1;
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean of recorded samples (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest recorded sample (`NaN` when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest recorded sample (`NaN` when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            f64::NAN
        } else {
            self.max
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`) of the recorded samples, within
    /// one bucket's relative resolution (~4.4%). `NaN` when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return f64::NAN;
        }
        // Rank of the q-quantile among `count` ordered samples.
        let target = (q * self.count as f64).ceil().max(1.0) as u64;
        if target <= self.zero_count {
            return 0.0;
        }
        let mut cumulative = self.zero_count;
        for (&index, &n) in &self.buckets {
            cumulative += n;
            if cumulative >= target {
                return bucket_midpoint(index).clamp(self.min, self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_track_exact_values_within_resolution() {
        // 1..=1000: exact p50 = 500, p90 = 900, p99 = 990.
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        for (q, exact) in [(0.5, 500.0), (0.9, 900.0), (0.99, 990.0)] {
            let got = h.quantile(q);
            let rel = (got - exact).abs() / exact;
            assert!(rel < 0.045, "q={q}: got {got}, exact {exact}, rel {rel}");
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        assert!((h.quantile(0.0) - 1.0).abs() / 1.0 < 0.045);
        assert_eq!(h.quantile(1.0), 1000.0); // clamped to the exact max
    }

    #[test]
    fn zero_and_negative_samples_are_exact() {
        let mut h = LogHistogram::new();
        for _ in 0..60 {
            h.record(0.0);
        }
        for _ in 0..40 {
            h.record(5.0);
        }
        assert_eq!(h.quantile(0.5), 0.0);
        assert!((h.quantile(0.7) - 5.0).abs() / 5.0 < 0.045);
        assert_eq!(h.min(), 0.0);
        assert_eq!(h.max(), 5.0);
    }

    #[test]
    fn wide_dynamic_range() {
        let mut h = LogHistogram::new();
        for &v in &[1e-9, 1e-3, 1.0, 1e3, 1e9] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        let p50 = h.quantile(0.5);
        assert!((p50 - 1.0).abs() < 0.045, "p50 {p50}");
    }

    #[test]
    fn empty_histogram_is_nan() {
        let h = LogHistogram::new();
        for q in [0.0, 0.5, 1.0] {
            assert!(h.quantile(q).is_nan(), "q={q}");
        }
        assert!(h.mean().is_nan());
        assert!(h.min().is_nan());
        assert!(h.max().is_nan());
        assert_eq!(h.count(), 0);
        assert_eq!(h.sum(), 0.0);
    }

    #[test]
    fn single_sample_dominates_every_quantile() {
        let mut h = LogHistogram::new();
        h.record(7.25);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 7.25);
        assert_eq!(h.min(), 7.25);
        assert_eq!(h.max(), 7.25);
        // Bucket midpoints are clamped to [min, max], so a single sample is
        // returned exactly at every quantile.
        for q in [0.0, 0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), 7.25, "q={q}");
        }
    }

    #[test]
    fn quantile_outside_unit_interval_is_nan() {
        let mut h = LogHistogram::new();
        h.record(1.0);
        assert!(h.quantile(-0.1).is_nan());
        assert!(h.quantile(1.1).is_nan());
        assert!(h.quantile(f64::NAN).is_nan());
    }

    #[test]
    fn negative_samples_count_exactly_in_the_zero_bucket() {
        let mut h = LogHistogram::new();
        h.record(-3.0);
        h.record(-1.0);
        h.record(2.0);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), -3.0);
        assert_eq!(h.max(), 2.0);
        assert!((h.sum() - (-2.0)).abs() < 1e-12);
        // Two of three samples are in the non-positive bucket, reported as 0.
        assert_eq!(h.quantile(0.5), 0.0);
        assert!((h.quantile(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn ignores_non_finite() {
        let mut h = LogHistogram::new();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        h.record(f64::NEG_INFINITY);
        assert_eq!(h.count(), 0);
        assert!(h.mean().is_nan());
        // Mixed with a finite sample, non-finite values leave no residue.
        h.record(4.0);
        h.record(f64::NAN);
        assert_eq!(h.count(), 1);
        assert_eq!(h.mean(), 4.0);
        assert_eq!(h.quantile(0.5), 4.0);
    }
}
