//! Log-bucketed (HDR-style) histograms with bounded relative error.
//!
//! Values below `2^(SUB_BITS+1)` are recorded exactly; above that, each
//! power-of-two range is split into `2^SUB_BITS` linear sub-buckets, so a
//! bucket's width is at most `1/2^SUB_BITS` of its lower edge and any
//! quantile estimate is within that relative error of a real sample.
//! Histograms merge by bucket-wise addition, which makes the merge
//! operation associative and commutative — per-PE histograms recorded
//! independently can be combined in any order.

/// Linear sub-buckets per power of two: 2^5 = 32.
const SUB_BITS: u32 = 5;
/// Values below this are bucketed exactly (one bucket per value).
const EXACT: u64 = 1 << (SUB_BITS + 1);
/// Total buckets: the exact region plus 32 sub-buckets for each of the
/// exponents 6..=63.
const BUCKETS: usize = EXACT as usize + ((63 - SUB_BITS as usize) * (1 << SUB_BITS));

/// A mergeable log-bucketed histogram of non-negative integers
/// (nanoseconds, bytes, queue depths — the unit is the caller's).
#[derive(Clone)]
pub struct LogHistogram {
    buckets: Box<[u64; BUCKETS]>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for LogHistogram {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count
            && self.sum == other.sum
            && self.min == other.min
            && self.max == other.max
            && self.buckets[..] == other.buckets[..]
    }
}

impl std::fmt::Debug for LogHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogHistogram")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("mean", &self.mean())
            .finish()
    }
}

/// Bucket index for a value.
fn index_of(v: u64) -> usize {
    if v < EXACT {
        v as usize
    } else {
        let e = 63 - v.leading_zeros(); // floor(log2 v), >= SUB_BITS + 1
        let shift = e - SUB_BITS;
        let mantissa = (v >> shift) as usize; // in [2^SUB_BITS, 2^(SUB_BITS+1))
        (shift as usize + 1) * (1 << SUB_BITS) + (mantissa - (1 << SUB_BITS))
    }
}

/// Highest value contained in bucket `idx` (the "highest equivalent
/// value" of HDR histograms).
fn upper_of(idx: usize) -> u64 {
    if idx < EXACT as usize {
        idx as u64
    } else {
        let shift = (idx / (1 << SUB_BITS) - 1) as u32;
        let mantissa = ((1 << SUB_BITS) + idx % (1 << SUB_BITS)) as u64;
        // The very top bucket's upper edge is 2^64; saturate instead.
        let edge = ((mantissa as u128 + 1) << shift) - 1;
        edge.min(u64::MAX as u128) as u64
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram { buckets: Box::new([0; BUCKETS]), count: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        self.buckets[index_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Fold `other` into `self` (bucket-wise addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact mean of the recorded values (zero if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest recorded value (zero if empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded value.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The q-quantile: the highest equivalent value of the bucket holding
    /// the sample of rank `ceil(q * count)`.  Within `1/32` relative error
    /// of a recorded sample (exact below 64).
    pub fn quantile(&self, q: f64) -> u64 {
        assert!((0.0..=1.0).contains(&q), "quantile out of range: {q}");
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= target {
                return upper_of(i).min(self.max);
            }
        }
        self.max
    }

    /// Compact one-line summary: `count mean p50 p99 max`.
    pub fn summary(&self) -> String {
        format!(
            "n={} mean={:.1} p50={} p99={} max={}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_region_is_exact() {
        let mut h = LogHistogram::new();
        for v in 0..EXACT {
            h.record(v);
        }
        for v in 0..EXACT {
            assert_eq!(index_of(v), v as usize);
            assert_eq!(upper_of(v as usize), v);
        }
        assert_eq!(h.count(), EXACT);
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(1.0), EXACT - 1);
    }

    #[test]
    fn buckets_are_continuous_and_monotone() {
        // Every value maps to a bucket whose range contains it, and
        // bucket indices never decrease as values grow.
        let mut last = 0usize;
        for &v in &[0u64, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, (1 << 40) + 12345, u64::MAX] {
            let idx = index_of(v);
            assert!(idx >= last, "index regressed at {v}");
            assert!(upper_of(idx) >= v, "upper {} < value {v}", upper_of(idx));
            last = idx;
        }
        assert!(index_of(u64::MAX) < BUCKETS);
    }

    #[test]
    fn relative_error_bound() {
        for &v in &[100u64, 1_000, 123_456, 98_765_432, 1 << 50] {
            let ub = upper_of(index_of(v));
            assert!(ub >= v);
            assert!((ub - v) as f64 / v as f64 <= 1.0 / 32.0, "error too large at {v}: upper {ub}");
        }
    }

    #[test]
    fn merge_matches_union() {
        let (mut a, mut b, mut u) = (LogHistogram::new(), LogHistogram::new(), LogHistogram::new());
        for v in [3u64, 70, 900, 1 << 30] {
            a.record(v);
            u.record(v);
        }
        for v in [5u64, 70, 12_345] {
            b.record(v);
            u.record(v);
        }
        a.merge(&b);
        assert_eq!(a, u);
    }

    #[test]
    fn empty_histogram_is_safe() {
        let h = LogHistogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.quantile(0.99), 0);
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = LogHistogram::new();
        for i in 1..=10_000u64 {
            h.record(i * 37);
        }
        let mut last = 0;
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let v = h.quantile(q);
            assert!(v >= last, "quantile({q}) regressed");
            last = v;
        }
        assert_eq!(h.quantile(1.0), 10_000 * 37);
    }
}
