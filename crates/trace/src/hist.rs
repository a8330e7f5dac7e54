//! Fixed-bucket log-linear latency histograms.
//!
//! Buckets are laid out HDR-style: values below 2^[`SUB_BITS`] land in
//! exact unit buckets; above that, each power-of-two octave is split into
//! 2^[`SUB_BITS`] linear sub-buckets. With `SUB_BITS = 4` the relative
//! quantization error is bounded by 1/16 (6.25 %) at any magnitude, and
//! the whole `u64` range fits in a fixed array — no allocation, no
//! rebucketing, and (crucially for CI golden-diffing) no dependence on
//! insertion order: two runs that record the same multiset of latencies
//! produce byte-identical histograms.

use crate::Nanos;

/// log2 of the linear sub-buckets per octave.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave.
pub const SUB: usize = 1 << SUB_BITS;
/// Total bucket count: one linear run of `2*SUB` exact-ish buckets plus
/// `(64 - SUB_BITS - 1)` octaves of `SUB` sub-buckets each, covering all
/// of `u64`.
pub const BUCKETS: usize = (2 * SUB) + (64 - SUB_BITS as usize - 1) * SUB;

/// Bucket index for a value. Total order preserving: `a <= b` implies
/// `index(a) <= index(b)`.
fn index(v: u64) -> usize {
    if v < (2 * SUB) as u64 {
        return v as usize;
    }
    // v >= 2*SUB, so bit length >= SUB_BITS + 2.
    let bits = 64 - v.leading_zeros(); // position of the leading one, 1-based
    let octave = bits - SUB_BITS - 1; // >= 1
    let sub = (v >> (bits - SUB_BITS - 1)) as usize & (SUB - 1);
    SUB + octave as usize * SUB + sub
}

/// Inclusive upper bound of bucket `i` — the histogram's reported value
/// for every sample that landed there (so quantiles never under-report).
fn upper_bound(i: usize) -> u64 {
    if i < 2 * SUB {
        return i as u64;
    }
    let rel = i - SUB;
    let octave = (rel / SUB) as u32; // >= 1
    let sub = (rel % SUB) as u64;
    let base = 1u64 << (octave + SUB_BITS);
    let width = 1u64 << octave; // base / SUB
    base + (sub + 1) * width - 1
}

/// A latency histogram over simulated nanoseconds.
#[derive(Clone)]
pub struct Hist {
    counts: [u64; BUCKETS],
    count: u64,
    sum: u128,
    min: Nanos,
    max: Nanos,
}

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: [0; BUCKETS],
            count: 0,
            sum: 0,
            min: Nanos::MAX,
            max: 0,
        }
    }
}

impl std::fmt::Debug for Hist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Hist")
            .field("count", &self.count)
            .field("min", &self.min)
            .field("max", &self.max)
            .field("p50", &self.quantile(0.50))
            .field("p99", &self.quantile(0.99))
            .finish()
    }
}

impl Hist {
    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one latency sample.
    pub fn record(&mut self, v: Nanos) {
        self.counts[index(v)] += 1;
        self.count += 1;
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds another histogram into this one.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if no sample was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact largest recorded sample (0 when empty).
    pub fn max(&self) -> Nanos {
        if self.count == 0 {
            0
        } else {
            self.max
        }
    }

    /// Exact smallest recorded sample (0 when empty).
    pub fn min(&self) -> Nanos {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Mean latency in nanoseconds (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) as the upper bound of the bucket
    /// holding the sample at rank `ceil(q * count)`; the exact maximum is
    /// returned for the top rank so `quantile(1.0) == max()`. 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> Nanos {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                // Never report beyond the true extremes.
                return upper_bound(i).min(self.max).max(self.min);
            }
        }
        self.max
    }

    /// Shorthand for the median.
    pub fn p50(&self) -> Nanos {
        self.quantile(0.50)
    }

    /// Shorthand for the 95th percentile.
    pub fn p95(&self) -> Nanos {
        self.quantile(0.95)
    }

    /// Shorthand for the 99th percentile.
    pub fn p99(&self) -> Nanos {
        self.quantile(0.99)
    }

    /// A compact fixed summary for reports.
    pub fn summary(&self) -> HistSummary {
        HistSummary {
            count: self.count,
            sum_ns: self.sum.min(u128::from(u64::MAX)) as u64,
            min_ns: self.min(),
            p50_ns: self.p50(),
            p95_ns: self.p95(),
            p99_ns: self.p99(),
            max_ns: self.max(),
        }
    }
}

/// The percentile summary of one [`Hist`], as embedded in bench reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[allow(missing_docs, reason = "fields are the percentiles they name")]
pub struct HistSummary {
    pub count: u64,
    pub sum_ns: u64,
    pub min_ns: Nanos,
    pub p50_ns: Nanos,
    pub p95_ns: Nanos,
    pub p99_ns: Nanos,
    pub max_ns: Nanos,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_is_monotone_and_in_range() {
        // Probe around every power of two, sort by value, and require the
        // bucket index to be non-decreasing.
        let mut samples: Vec<u64> = vec![0, u64::MAX];
        for shift in 0..64u32 {
            let p = 1u64 << shift;
            for delta in [0u64, 1, 2, 3] {
                samples.push(p.saturating_add(delta));
                samples.push(p.saturating_sub(delta));
            }
        }
        samples.sort_unstable();
        let mut last = 0usize;
        for v in samples {
            let i = index(v);
            assert!(i < BUCKETS, "v={v} i={i}");
            assert!(i >= last, "monotonicity broken at v={v}: {i} < {last}");
            last = i;
        }
    }

    #[test]
    fn small_values_are_exact() {
        for v in 0..(2 * SUB as u64) {
            assert_eq!(index(v), v as usize);
            assert_eq!(upper_bound(index(v)), v);
        }
    }

    #[test]
    fn bucket_bounds_bracket_their_values() {
        // Every value's bucket upper bound is >= the value and within
        // 1/SUB relative error.
        for &v in &[37u64, 100, 1_000, 65_537, 1_000_000, 123_456_789_123] {
            let ub = upper_bound(index(v));
            assert!(ub >= v, "v={v} ub={ub}");
            assert!(
                (ub - v) as f64 <= v as f64 / SUB as f64 + 1.0,
                "v={v} ub={ub}"
            );
        }
    }

    #[test]
    fn boundary_values_change_bucket() {
        // The first value of each octave starts a new bucket run.
        assert_eq!(index(31), 31);
        assert_eq!(index(32), 32);
        assert!(index(63) < index(64));
        assert!(index(1023) < index(1024));
    }

    #[test]
    fn quantiles_of_uniform_ramp() {
        let mut h = Hist::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        let p50 = h.p50();
        assert!((470..=540).contains(&p50), "p50={p50}");
        let p99 = h.p99();
        assert!((980..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.quantile(1.0), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    #[test]
    fn quantile_never_exceeds_true_extremes() {
        let mut h = Hist::new();
        h.record(1_000_003);
        assert_eq!(h.p50(), 1_000_003);
        assert_eq!(h.p99(), 1_000_003);
        assert_eq!(h.max(), 1_000_003);
        assert_eq!(h.min(), 1_000_003);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Hist::new();
        let mut b = Hist::new();
        let mut c = Hist::new();
        for v in [5u64, 900, 17, 123_456, 3] {
            a.record(v);
            c.record(v);
        }
        for v in [7u64, 7, 88_000_000] {
            b.record(v);
            c.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), c.count());
        assert_eq!(a.min(), c.min());
        assert_eq!(a.max(), c.max());
        assert_eq!(a.summary(), c.summary());
    }

    #[test]
    fn identical_runs_are_deterministic() {
        let run = || {
            let mut h = Hist::new();
            for i in 0..10_000u64 {
                h.record(i.wrapping_mul(2_654_435_761) % 5_000_000);
            }
            h.summary()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn insertion_order_is_irrelevant() {
        let vals = [9u64, 1, 77_777, 4096, 4096, 12];
        let mut fwd = Hist::new();
        let mut rev = Hist::new();
        for &v in &vals {
            fwd.record(v);
        }
        for &v in vals.iter().rev() {
            rev.record(v);
        }
        assert_eq!(fwd.summary(), rev.summary());
    }

    #[test]
    fn empty_histogram_reports_zeros() {
        let h = Hist::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.mean(), 0.0);
        assert!(h.is_empty());
    }
}
