//! A small logarithmic-bucket histogram for latency and occupancy
//! distributions. The paper reports means; percentile tails (p95/p99) are
//! where queueing pathologies show first, so the simulator tracks them too.

/// Log₂-bucketed histogram of `u64` samples. Bucket `i` covers
/// `[2^i, 2^(i+1))` (bucket 0 covers {0, 1}).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// Number of log₂ buckets: one per bit of a `u64` sample.
    pub const NUM_BUCKETS: usize = 64;

    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; Self::NUM_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(v: u64) -> usize {
        (64 - v.max(1).leading_zeros() - 1) as usize
    }

    /// Smallest sample bucket `i` covers: 0 for bucket 0 (which holds both
    /// 0 and 1), `2^i` otherwise.
    pub fn bucket_low(i: usize) -> u64 {
        if i == 0 {
            0
        } else {
            1u64 << i
        }
    }

    /// Largest sample bucket `i` covers: `2^(i+1) - 1`, saturating at
    /// `u64::MAX` for the last bucket (where `2^64` does not fit in u64).
    pub fn bucket_high(i: usize) -> u64 {
        if i >= Self::NUM_BUCKETS - 1 {
            u64::MAX
        } else {
            (1u64 << (i + 1)) - 1
        }
    }

    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        // Saturate rather than overflow: samples near u64::MAX (e.g. a
        // sentinel that leaked into a latency path) must not panic the
        // accounting; the mean degrades gracefully instead.
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Record `n` copies of `v` in O(1) (equivalent to `n` `record` calls).
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::bucket_of(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    /// Saturating sum of all recorded samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// Approximate percentile (upper bound of the bucket containing the
    /// p-th sample). `p` in [0, 1].
    pub fn percentile(&self, p: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * p.clamp(0.0, 1.0)).ceil() as u64;
        let mut seen = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target.max(1) {
                return Self::bucket_high(i).min(self.max);
            }
        }
        self.max
    }

    /// Merge another histogram into this one. Saturating on every counter,
    /// matching `record`'s contract: a cross-channel merge of histograms
    /// whose counts sit near `u64::MAX` must pin at the ceiling, not wrap.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty `(bucket_low, count)` pairs, for report printing.
    pub fn nonzero_buckets(&self) -> Vec<(u64, u64)> {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| (Self::bucket_low(i), n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.percentile(0.99), 0);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn mean_min_max_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20.0);
        assert_eq!(h.min(), 10);
        assert_eq!(h.max(), 30);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn percentile_bounds_the_samples() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.percentile(0.5);
        let p99 = h.percentile(0.99);
        // Log buckets: p50 within a factor of 2 of the true median.
        assert!((500..=1023).contains(&p50), "{p50}");
        assert!(p99 >= p50);
        assert!(p99 <= h.max());
    }

    #[test]
    fn bucket_of_zero_and_powers() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(1024);
        assert_eq!(h.count(), 4);
        assert_eq!(h.max(), 1024);
        assert_eq!(h.min(), 0);
    }

    #[test]
    fn percentile_of_top_bucket_does_not_overflow() {
        // Regression: a sample in bucket 63 (>= 2^63, e.g. a leaked
        // sentinel) used to make `percentile` compute `1u64 << 64`, a
        // shift overflow that panics in debug builds.
        let mut h = Histogram::new();
        h.record(u64::MAX);
        assert_eq!(h.percentile(0.5), u64::MAX);
        assert_eq!(h.percentile(1.0), u64::MAX);
        h.record(1u64 << 63);
        assert_eq!(h.percentile(1.0), u64::MAX);
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(Histogram::bucket_low(0), 0);
        assert_eq!(Histogram::bucket_high(0), 1);
        assert_eq!(Histogram::bucket_low(1), 2);
        assert_eq!(Histogram::bucket_high(1), 3);
        assert_eq!(Histogram::bucket_low(63), 1u64 << 63);
        assert_eq!(Histogram::bucket_high(63), u64::MAX);
        // Adjacent buckets tile the range with no gaps.
        for i in 0..Histogram::NUM_BUCKETS - 1 {
            assert_eq!(Histogram::bucket_high(i) + 1, Histogram::bucket_low(i + 1));
        }
    }

    #[test]
    fn nonzero_buckets_reports_zero_low_for_bucket_zero() {
        // Regression: bucket 0 covers {0, 1} but used to print low bound 1,
        // so zero-latency samples showed up as ">= 1" in report dumps.
        let mut h = Histogram::new();
        h.record(0);
        h.record(7);
        assert_eq!(h.nonzero_buckets(), vec![(0, 1), (4, 1)]);
    }

    #[test]
    fn merge_combines() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(5);
        b.record(500);
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.min(), 5);
        assert_eq!(a.max(), 500);
        assert_eq!(a.nonzero_buckets().len(), 2);
    }
}
