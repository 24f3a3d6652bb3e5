//! Fixed-size, allocation-free, lock-free log-bucketed latency histograms.
//!
//! The layout is log-linear (HDR-style): values below [`SUB_BUCKETS`] get one
//! exact bucket each; above that, every power of two is split into
//! [`SUB_BUCKETS`] linear sub-buckets. With 32 sub-buckets a bucket spans at
//! most 1/32 ≈ 3.1% of its value, so reporting the bucket midpoint is off by
//! at most ~1.6% — comfortably inside the "~2.5% relative error" budget — at
//! a fixed cost of [`NUM_BUCKETS`] = 1920 `u64` slots (15 KiB) covering the
//! full `u64` nanosecond range (0 ns … ~584 years) with no configuration.
//!
//! Two flavours share the bucket math:
//!
//! * [`LatencyHistogram`] — atomic, `&self`-recording, safe to hammer from
//!   many threads (`fetch_add(1, Relaxed)` per sample). Used for anything
//!   shared: per-plan TTF/delay/page distributions, the global page
//!   histogram.
//! * [`LocalHistogram`] — plain `u64`s for single-threaded recorders (the
//!   per-cursor delay recorder), where even relaxed atomics would be wasted
//!   work on the enumeration hot path.
//!
//! Both produce a [`HistogramSnapshot`], which is mergeable (bucket-wise
//! addition — associative and commutative) and answers percentile queries.

use std::sync::atomic::{AtomicU64, Ordering};

/// Sub-buckets per power of two; also the threshold below which every value
/// has an exact bucket.
pub const SUB_BUCKETS: usize = 32;
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros(); // 5

/// Total bucket count: one exact range plus 59 log ranges of 32 each.
pub const NUM_BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1); // 1920

/// The bucket index a value lands in. Total order preserving: `a <= b`
/// implies `bucket_index(a) <= bucket_index(b)`.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_BUCKETS as u64 {
        return value as usize;
    }
    let msb = 63 - value.leading_zeros(); // >= SUB_BITS
    let shift = msb - SUB_BITS;
    // `value >> shift` is in [SUB_BUCKETS, 2*SUB_BUCKETS).
    let sub = ((value >> shift) as usize) - SUB_BUCKETS;
    ((msb - SUB_BITS + 1) as usize) * SUB_BUCKETS + sub
}

/// The smallest value mapping to bucket `index`.
pub fn bucket_low(index: usize) -> u64 {
    debug_assert!(index < NUM_BUCKETS);
    if index < SUB_BUCKETS {
        return index as u64;
    }
    let msb = (index / SUB_BUCKETS - 1) as u32 + SUB_BITS;
    let sub = (index % SUB_BUCKETS) as u64;
    (SUB_BUCKETS as u64 + sub) << (msb - SUB_BITS)
}

/// The largest value mapping to bucket `index`.
pub fn bucket_high(index: usize) -> u64 {
    debug_assert!(index < NUM_BUCKETS);
    if index + 1 == NUM_BUCKETS {
        u64::MAX
    } else {
        bucket_low(index + 1) - 1
    }
}

/// The representative (midpoint) value reported for bucket `index`.
fn bucket_mid(index: usize) -> u64 {
    let low = bucket_low(index);
    low + (bucket_high(index) - low) / 2
}

/// A lock-free histogram: concurrent `record` calls never block, never
/// allocate, and are never lost (each is one relaxed `fetch_add` per
/// counter). Snapshots read whole `u64`s, so they are torn-read-free;
/// increments racing a snapshot land in either that snapshot or the next.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram (one fixed 15 KiB allocation, then allocation-free).
    pub fn new() -> Self {
        let buckets: Vec<AtomicU64> = (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect();
        LatencyHistogram {
            buckets: buckets.into_boxed_slice(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Record one sample (typically nanoseconds). Lock-free, allocation-free.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Bulk-merge primitive: add `n` samples to bucket `index` without
    /// touching the totals (callers follow up with [`Self::add_totals`]).
    pub(crate) fn add_bucket(&self, index: usize, n: u64) {
        self.buckets[index].fetch_add(n, Ordering::Relaxed);
    }

    /// Bulk-merge primitive: fold externally accumulated totals in.
    pub(crate) fn add_totals(&self, count: u64, sum: u64, max: u64) {
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum.fetch_add(sum, Ordering::Relaxed);
        self.max.fetch_max(max, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Derive the count from the buckets themselves so every snapshot is
        // internally consistent even while writers race the scan (`count` /
        // `sum` / `max` may momentarily run ahead of or behind the buckets).
        let count = buckets.iter().sum();
        HistogramSnapshot {
            buckets,
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// The six-number summary served on the wire.
    pub fn summary(&self) -> HistogramSummary {
        self.snapshot().summary()
    }
}

/// A plain (non-atomic) histogram for single-threaded recorders: identical
/// bucket math to [`LatencyHistogram`] at plain-integer-add cost.
#[derive(Debug, Clone)]
pub struct LocalHistogram {
    buckets: Box<[u64]>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for LocalHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LocalHistogram {
    /// An empty histogram (one fixed allocation at construction).
    pub fn new() -> Self {
        LocalHistogram {
            buckets: vec![0u64; NUM_BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample. A handful of plain integer ops.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.buckets[bucket_index(value)] += 1;
        self.count += 1;
        // Wrap like the atomic `fetch_add` would: a sum of u64::MAX-scale
        // samples is already meaningless, but the two flavours must agree.
        self.sum = self.sum.wrapping_add(value);
        if value > self.max {
            self.max = value;
        }
    }

    /// Record `n` samples that together took `total`, each as their mean:
    /// the count and the sum stay exact, the buckets and the max see the
    /// mean. This is how the delay recorder books a stride of answers it
    /// timed with one clock read. `n = 0` records nothing.
    #[inline]
    pub fn record_spread(&mut self, total: u64, n: u64) {
        let Some(mean) = total.checked_div(n) else {
            return;
        };
        self.buckets[bucket_index(mean)] += n;
        self.count += n;
        self.sum = self.sum.wrapping_add(total);
        if mean > self.max {
            self.max = mean;
        }
    }

    /// Samples recorded so far.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// A copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.to_vec(),
            count: self.count,
            sum: self.sum,
            max: self.max,
        }
    }

    pub(crate) fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    pub(crate) fn totals(&self) -> (u64, u64, u64) {
        (self.count, self.sum, self.max)
    }
}

/// An owned, mergeable copy of a histogram's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

impl HistogramSnapshot {
    /// A snapshot with no samples.
    pub fn empty() -> Self {
        HistogramSnapshot {
            buckets: vec![0; NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Samples in the snapshot.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (for means over exact totals).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Largest sample observed (exact, not bucketed).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Mean sample value (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Fold `other` into `self` bucket-wise. Merging is associative and
    /// commutative, so shard/thread-local histograms can be combined in any
    /// order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `(0, 1]`: the representative (midpoint)
    /// of the bucket holding the `ceil(q·count)`-th smallest sample, clamped
    /// to the observed maximum. Off from the true sample by at most one
    /// bucket width (≤ 1/32 of the value). Returns 0 for an empty snapshot.
    pub fn percentile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_mid(i).min(self.max);
            }
        }
        self.max
    }

    /// Median.
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 90th percentile.
    pub fn p90(&self) -> u64 {
        self.percentile(0.90)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// The six-number summary served on the wire.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary {
            count: self.count,
            sum: self.sum,
            max: self.max,
            p50: self.p50(),
            p90: self.p90(),
            p99: self.p99(),
        }
    }
}

/// The fixed-width summary of one histogram: what crosses the wire in a
/// stats snapshot. All fields are plain `u64` nanosecond values, so the
/// encoding round-trips byte-exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample (exact).
    pub max: u64,
    /// Median (bucket midpoint).
    pub p50: u64,
    /// 90th percentile (bucket midpoint).
    pub p90: u64,
    /// 99th percentile (bucket midpoint).
    pub p99: u64,
}

impl HistogramSummary {
    /// Mean sample value (0 if empty).
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_exhaustive() {
        // Exact range.
        for v in 0..SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(v), v as usize);
        }
        // Boundaries: every bucket's low maps back to the bucket, and lows
        // are strictly increasing.
        let mut prev_low = None;
        for i in 0..NUM_BUCKETS {
            let low = bucket_low(i);
            assert_eq!(bucket_index(low), i, "low of bucket {i}");
            assert_eq!(bucket_index(bucket_high(i)), i, "high of bucket {i}");
            if let Some(p) = prev_low {
                assert!(low > p);
            }
            prev_low = Some(low);
        }
        assert_eq!(bucket_index(u64::MAX), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_relative_width_is_bounded() {
        for i in SUB_BUCKETS..NUM_BUCKETS - 1 {
            let low = bucket_low(i);
            let width = bucket_high(i) - low + 1;
            // Width is at most low/32: midpoint error ≤ ~1.6%.
            assert!(width as f64 <= low as f64 / SUB_BUCKETS as f64 + 1.0);
        }
    }

    #[test]
    fn percentiles_on_known_data() {
        let h = LatencyHistogram::new();
        for v in 1..=100u64 {
            h.record(v * 10); // 10, 20, ..., 1000 (some land in log buckets)
        }
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.max(), 1000);
        assert_eq!(s.sum(), (1..=100u64).map(|v| v * 10).sum::<u64>());
        // p50 is the 50th sample = 500; allow one bucket of slack.
        let p50 = s.p50();
        let idx = bucket_index(500);
        assert!(p50 >= bucket_low(idx) && p50 <= bucket_high(idx), "{p50}");
        // p99 is the 99th sample = 990.
        let p99 = s.p99();
        let idx = bucket_index(990);
        assert!(p99 >= bucket_low(idx) && p99 <= bucket_high(idx), "{p99}");
    }

    #[test]
    fn local_and_atomic_agree() {
        let atomic = LatencyHistogram::new();
        let mut local = LocalHistogram::new();
        for v in [0, 1, 31, 32, 33, 1000, 123_456_789, u64::MAX] {
            atomic.record(v);
            local.record(v);
        }
        assert_eq!(atomic.snapshot(), local.snapshot());
    }

    #[test]
    fn spread_keeps_count_and_sum_exact() {
        let mut spread = LocalHistogram::new();
        spread.record_spread(1_000, 3); // mean 333, remainder 1 kept in the sum
        spread.record_spread(5, 0); // nothing to spread over
        spread.record_spread(64, 1); // one sample is itself
        let s = spread.snapshot();
        assert_eq!(s.count(), 4);
        assert_eq!(s.sum(), 1_064);
        assert_eq!(s.max(), 333);
        let mut each = LocalHistogram::new();
        for v in [333, 333, 333, 64] {
            each.record(v);
        }
        assert_eq!(s.p50(), each.snapshot().p50());
        assert_eq!(s.p99(), each.snapshot().p99());
    }

    #[test]
    fn merge_adds_counts_and_keeps_max() {
        let a = LatencyHistogram::new();
        let b = LatencyHistogram::new();
        a.record(10);
        a.record(20);
        b.record(1_000_000);
        let mut m = a.snapshot();
        m.merge(&b.snapshot());
        assert_eq!(m.count(), 3);
        assert_eq!(m.max(), 1_000_000);
        assert_eq!(m.sum(), 1_000_030);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert!(s.is_empty());
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0);
        assert_eq!(s, HistogramSnapshot::empty());
    }
}
