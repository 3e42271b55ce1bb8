//! Property tests for the log-bucket histogram: ordering and bound
//! invariants that must hold for any sample stream, not just the
//! hand-picked cases in the unit tests.

use microbank_core::hist::Histogram;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// percentile(p) is monotone non-decreasing in p.
    #[test]
    fn percentile_monotone_in_p(samples in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let ps = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0];
        for w in ps.windows(2) {
            prop_assert!(
                h.percentile(w[0]) <= h.percentile(w[1]),
                "p{} = {} > p{} = {}",
                w[0], h.percentile(w[0]), w[1], h.percentile(w[1]),
            );
        }
        // Every percentile is bounded by the observed extremes.
        for p in ps {
            prop_assert!(h.percentile(p) <= h.max());
        }
    }

    /// Merging two histograms preserves count/min/max exactly and keeps
    /// every percentile within the merged sample bounds.
    #[test]
    fn merge_preserves_percentile_bounds(
        a in prop::collection::vec(0u64..1_000_000, 1..100),
        b in prop::collection::vec(0u64..1_000_000, 1..100),
    ) {
        let mut ha = Histogram::new();
        let mut hb = Histogram::new();
        for &s in &a {
            ha.record(s);
        }
        for &s in &b {
            hb.record(s);
        }
        let (lo_a, hi_a) = (ha.min(), ha.max());
        let mut merged = ha.clone();
        merged.merge(&hb);
        prop_assert_eq!(merged.count(), (a.len() + b.len()) as u64);
        prop_assert_eq!(merged.min(), lo_a.min(hb.min()));
        prop_assert_eq!(merged.max(), hi_a.max(hb.max()));
        for p in [0.0, 0.5, 0.95, 1.0] {
            let v = merged.percentile(p);
            prop_assert!(v <= merged.max(), "p{p} = {v} above max {}", merged.max());
        }
        // Mean of the merge lies between the two means.
        let (lo, hi) = if ha.mean() <= hb.mean() {
            (ha.mean(), hb.mean())
        } else {
            (hb.mean(), ha.mean())
        };
        prop_assert!(merged.mean() >= lo - 1e-9 && merged.mean() <= hi + 1e-9);
    }

    /// Samples near u64::MAX must not panic the accounting: the running
    /// sum saturates instead of overflowing.
    #[test]
    fn huge_samples_do_not_panic(n in 1usize..20) {
        let mut h = Histogram::new();
        for _ in 0..n {
            h.record(u64::MAX);
        }
        h.record(u64::MAX - 1);
        prop_assert_eq!(h.count(), n as u64 + 1);
        prop_assert_eq!(h.max(), u64::MAX);
        // The saturated mean still fits and is positive.
        prop_assert!(h.mean() > 0.0);
        let mut other = Histogram::new();
        other.record(u64::MAX);
        h.merge(&other); // must not overflow either
        prop_assert_eq!(h.count(), n as u64 + 2);
    }

    /// Cross-channel merges follow the same saturating contract as `record`:
    /// two histograms whose counts together exceed u64::MAX pin the merged
    /// count (and the affected bucket) at the ceiling instead of wrapping.
    #[test]
    fn merge_saturates_counts_and_buckets(v in 1u64..1_000_000, extra in 1u64..1_000) {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record_n(v, u64::MAX - extra);
        b.record_n(v, 2 * extra);
        a.merge(&b);
        prop_assert_eq!(a.count(), u64::MAX, "merged count wrapped instead of saturating");
        prop_assert_eq!(a.sum(), u64::MAX);
        // The shared bucket carries the whole count, so it must pin too.
        let buckets = a.nonzero_buckets();
        prop_assert_eq!(buckets.len(), 1);
        prop_assert_eq!(buckets[0].1, u64::MAX);
    }
}
