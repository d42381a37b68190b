//! Collection primitives: counters, histograms, span timers.
//!
//! Two parallel implementations live here, selected by the `enabled`
//! cargo feature. The enabled one uses relaxed atomics (counters,
//! histogram buckets) so probes can be shared across worker threads
//! without locks; the disabled one is all zero-sized types with empty
//! inline methods, so instrumentation sites cost nothing.

/// Number of log₂ buckets: values up to 2⁶³ land in a bucket.
const BUCKETS: usize = 64;

/// Bucket index of `value`: 0 for 0, else `floor(log2(value)) + 1`,
/// clamped to the last bucket. Bucket `i > 0` covers
/// `[2^(i-1), 2^i - 1]`.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).min(BUCKETS - 1)
}

/// Upper bound (inclusive) of bucket `i`.
#[inline]
fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else {
        (1u64 << i).wrapping_sub(1)
    }
}

/// Point-in-time copy of a [`Histogram`], safe to serialize and
/// compare after collection has moved on.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Smallest recorded value (0 when empty).
    pub min: u64,
    /// Largest recorded value (0 when empty).
    pub max: u64,
    /// Non-empty log₂ buckets as `(inclusive upper bound, count)`,
    /// in increasing bound order.
    pub buckets: Vec<(u64, u64)>,
}

impl HistogramSnapshot {
    /// Mean recorded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Approximate quantile `q` in [0, 1]: the upper bound of the
    /// bucket where the cumulative count crosses `q · count`. Within a
    /// factor of 2 of the true quantile by construction of the log₂
    /// buckets.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cumulative = 0u64;
        for &(upper, count) in &self.buckets {
            cumulative += count;
            if cumulative >= rank {
                return upper.min(self.max);
            }
        }
        self.max
    }
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{bucket_of, bucket_upper, HistogramSnapshot, BUCKETS};
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Instant;

    /// A thread-safe monotonic event counter (relaxed atomics).
    #[derive(Debug, Default)]
    pub struct Counter(AtomicU64);

    impl Counter {
        /// Creates a zeroed counter.
        pub const fn new() -> Self {
            Counter(AtomicU64::new(0))
        }

        /// Adds `n` to the counter.
        #[inline]
        pub fn add(&self, n: u64) {
            self.0.fetch_add(n, Ordering::Relaxed);
        }

        /// Adds one to the counter.
        #[inline]
        pub fn incr(&self) {
            self.add(1);
        }

        /// Current value.
        #[inline]
        pub fn get(&self) -> u64 {
            self.0.load(Ordering::Relaxed)
        }
    }

    impl Clone for Counter {
        fn clone(&self) -> Self {
            Counter(AtomicU64::new(self.get()))
        }
    }

    /// A single-threaded counter for `&mut`-held hot paths: a plain
    /// `Cell`, so bumping it is one register-width store, not an
    /// atomic RMW.
    #[derive(Clone, Debug, Default)]
    pub struct LocalCounter(Cell<u64>);

    impl LocalCounter {
        /// Creates a zeroed counter.
        pub const fn new() -> Self {
            LocalCounter(Cell::new(0))
        }

        /// Adds `n` to the counter.
        #[inline]
        pub fn add(&self, n: u64) {
            self.0.set(self.0.get().wrapping_add(n));
        }

        /// Adds one to the counter.
        #[inline]
        pub fn incr(&self) {
            self.add(1);
        }

        /// Current value.
        #[inline]
        pub fn get(&self) -> u64 {
            self.0.get()
        }
    }

    /// A log₂-bucketed histogram of `u64` values, shareable across
    /// threads (every field is a relaxed atomic; `merge_from` and
    /// concurrent `record` calls never lose counts, though `snapshot`
    /// taken mid-record may be momentarily torn between fields).
    #[derive(Debug)]
    pub struct Histogram {
        buckets: [AtomicU64; BUCKETS],
        count: AtomicU64,
        sum: AtomicU64,
        /// Min encoded as `u64::MAX` when empty.
        min: AtomicU64,
        max: AtomicU64,
    }

    impl Histogram {
        /// Creates an empty histogram.
        pub const fn new() -> Self {
            Histogram {
                buckets: [const { AtomicU64::new(0) }; BUCKETS],
                count: AtomicU64::new(0),
                sum: AtomicU64::new(0),
                min: AtomicU64::new(u64::MAX),
                max: AtomicU64::new(0),
            }
        }

        /// Records one value.
        #[inline]
        pub fn record(&self, value: u64) {
            self.record_n(value, 1);
        }

        /// Records `value` `n` times in one update per field — the same
        /// contents as `n` calls of [`record`](Self::record). For
        /// distributions derived from counts at flush time.
        #[inline]
        pub fn record_n(&self, value: u64, n: u64) {
            if n == 0 {
                return;
            }
            self.buckets[bucket_of(value)].fetch_add(n, Ordering::Relaxed);
            self.count.fetch_add(n, Ordering::Relaxed);
            self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
            self.min.fetch_min(value, Ordering::Relaxed);
            self.max.fetch_max(value, Ordering::Relaxed);
        }

        /// Values recorded so far.
        #[inline]
        pub fn count(&self) -> u64 {
            self.count.load(Ordering::Relaxed)
        }

        /// Sum of values recorded so far.
        #[inline]
        pub fn sum(&self) -> u64 {
            self.sum.load(Ordering::Relaxed)
        }

        /// Folds another histogram's contents into this one.
        pub fn merge_from(&self, other: &Histogram) {
            for (mine, theirs) in self.buckets.iter().zip(&other.buckets) {
                let n = theirs.load(Ordering::Relaxed);
                if n > 0 {
                    mine.fetch_add(n, Ordering::Relaxed);
                }
            }
            self.count
                .fetch_add(other.count.load(Ordering::Relaxed), Ordering::Relaxed);
            self.sum
                .fetch_add(other.sum.load(Ordering::Relaxed), Ordering::Relaxed);
            self.min
                .fetch_min(other.min.load(Ordering::Relaxed), Ordering::Relaxed);
            self.max
                .fetch_max(other.max.load(Ordering::Relaxed), Ordering::Relaxed);
        }

        /// Point-in-time copy of the distribution.
        pub fn snapshot(&self) -> HistogramSnapshot {
            let count = self.count.load(Ordering::Relaxed);
            let min = self.min.load(Ordering::Relaxed);
            HistogramSnapshot {
                count,
                sum: self.sum.load(Ordering::Relaxed),
                min: if min == u64::MAX { 0 } else { min },
                max: self.max.load(Ordering::Relaxed),
                buckets: self
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((bucket_upper(i), n))
                    })
                    .collect(),
            }
        }

        /// Starts a scoped timer that records elapsed nanoseconds into
        /// this histogram when dropped.
        #[inline]
        pub fn span(&self) -> Span<'_> {
            Span {
                histogram: self,
                start: Instant::now(),
            }
        }
    }

    impl Default for Histogram {
        fn default() -> Self {
            Histogram::new()
        }
    }

    impl Clone for Histogram {
        fn clone(&self) -> Self {
            let fresh = Histogram::new();
            fresh.merge_from(self);
            fresh
        }
    }

    /// Guard returned by [`Histogram::span`]: records the elapsed
    /// nanoseconds between creation and drop.
    #[derive(Debug)]
    pub struct Span<'a> {
        histogram: &'a Histogram,
        start: Instant,
    }

    impl Drop for Span<'_> {
        #[inline]
        fn drop(&mut self) {
            self.histogram
                .record(self.start.elapsed().as_nanos() as u64);
        }
    }
}

#[cfg(not(feature = "enabled"))]
mod imp {
    use super::HistogramSnapshot;

    /// Disabled probe counter: zero-sized, all methods are no-ops.
    #[derive(Clone, Debug, Default)]
    pub struct Counter;

    impl Counter {
        /// Creates a no-op counter.
        pub const fn new() -> Self {
            Counter
        }

        /// No-op.
        #[inline(always)]
        pub fn add(&self, _n: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn incr(&self) {}

        /// Always 0.
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// Disabled single-threaded counter: zero-sized no-op.
    #[derive(Clone, Debug, Default)]
    pub struct LocalCounter;

    impl LocalCounter {
        /// Creates a no-op counter.
        pub const fn new() -> Self {
            LocalCounter
        }

        /// No-op.
        #[inline(always)]
        pub fn add(&self, _n: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn incr(&self) {}

        /// Always 0.
        #[inline(always)]
        pub fn get(&self) -> u64 {
            0
        }
    }

    /// Disabled histogram: zero-sized, records nothing.
    #[derive(Clone, Debug, Default)]
    pub struct Histogram;

    impl Histogram {
        /// Creates a no-op histogram.
        pub const fn new() -> Self {
            Histogram
        }

        /// No-op.
        #[inline(always)]
        pub fn record(&self, _value: u64) {}

        /// No-op.
        #[inline(always)]
        pub fn record_n(&self, _value: u64, _n: u64) {}

        /// Always 0.
        #[inline(always)]
        pub fn count(&self) -> u64 {
            0
        }

        /// Always 0.
        #[inline(always)]
        pub fn sum(&self) -> u64 {
            0
        }

        /// No-op.
        #[inline(always)]
        pub fn merge_from(&self, _other: &Histogram) {}

        /// Always the empty snapshot.
        #[inline(always)]
        pub fn snapshot(&self) -> HistogramSnapshot {
            HistogramSnapshot::default()
        }

        /// Returns a guard whose drop does nothing — no clock is read.
        #[inline(always)]
        pub fn span(&self) -> Span<'_> {
            Span(std::marker::PhantomData)
        }
    }

    /// Disabled span guard: zero-sized, drop is a no-op.
    #[derive(Debug)]
    pub struct Span<'a>(pub(super) std::marker::PhantomData<&'a ()>);
}

pub use imp::{Counter, Histogram, LocalCounter, Span};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_partition_the_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        // Every value is ≤ its bucket's upper bound (last bucket saturates).
        for v in [0u64, 1, 2, 5, 100, 1 << 40] {
            assert!(v <= bucket_upper(bucket_of(v)), "{v}");
        }
    }

    #[test]
    fn counter_accumulates_or_noops() {
        let c = Counter::new();
        c.incr();
        c.add(9);
        if crate::enabled() {
            assert_eq!(c.get(), 10);
            assert_eq!(c.clone().get(), 10, "clone snapshots the value");
        } else {
            assert_eq!(c.get(), 0);
        }
    }

    #[test]
    fn local_counter_accumulates_or_noops() {
        let c = LocalCounter::new();
        c.add(4);
        c.incr();
        assert_eq!(c.get(), if crate::enabled() { 5 } else { 0 });
    }

    #[test]
    fn histogram_records_distribution() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        if crate::enabled() {
            assert_eq!(snap.count, 5);
            assert_eq!(snap.sum, 1106);
            assert_eq!(snap.min, 1);
            assert_eq!(snap.max, 1000);
            assert!((snap.mean() - 221.2).abs() < 1e-9);
            let total: u64 = snap.buckets.iter().map(|&(_, n)| n).sum();
            assert_eq!(total, 5, "buckets partition the count");
            assert_eq!(snap.quantile(0.0), 1);
            assert!(snap.quantile(0.5) >= 3);
            assert_eq!(snap.quantile(1.0), 1000);
        } else {
            assert_eq!(snap, HistogramSnapshot::default());
        }
    }

    #[test]
    fn record_n_equals_n_single_records() {
        let bulk = Histogram::new();
        bulk.record_n(700, 0);
        assert_eq!(
            bulk.snapshot(),
            HistogramSnapshot::default(),
            "n = 0 records nothing"
        );
        let single = Histogram::new();
        for (value, n) in [(127u64, 5u64), (2047, 3), (0, 2), (127, 1)] {
            bulk.record_n(value, n);
            for _ in 0..n {
                single.record(value);
            }
        }
        assert_eq!(bulk.snapshot(), single.snapshot());
        if crate::enabled() {
            let snap = bulk.snapshot();
            assert_eq!(
                (snap.count, snap.sum, snap.min, snap.max),
                (11, 6903, 0, 2047)
            );
            assert_eq!(snap.buckets, vec![(0, 2), (127, 6), (2047, 3)]);
        }
    }

    #[test]
    fn histogram_merges_across_threads() {
        // Eight threads record into private histograms and one shared
        // one; the merged private histograms must equal the shared one.
        let shared = Histogram::new();
        let merged = Histogram::new();
        let locals: Vec<Histogram> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8u64)
                .map(|t| {
                    let shared = &shared;
                    scope.spawn(move || {
                        let local = Histogram::new();
                        for i in 0..1000u64 {
                            let v = t * 1000 + i;
                            local.record(v);
                            shared.record(v);
                        }
                        local
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for local in &locals {
            merged.merge_from(local);
        }
        assert_eq!(merged.snapshot(), shared.snapshot());
        if crate::enabled() {
            assert_eq!(merged.count(), 8000);
            assert_eq!(merged.snapshot().min, 0);
            assert_eq!(merged.snapshot().max, 7999);
        }
    }

    #[test]
    fn concurrent_counter_adds_never_lose_updates() {
        let c = Counter::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), if crate::enabled() { 40_000 } else { 0 });
    }

    #[test]
    fn span_records_elapsed_nanoseconds() {
        let h = Histogram::new();
        {
            let _span = h.span();
            std::hint::black_box(());
        }
        if crate::enabled() {
            assert_eq!(h.count(), 1);
        } else {
            assert_eq!(h.count(), 0);
        }
    }

    #[test]
    fn empty_snapshot_is_sane() {
        let snap = Histogram::new().snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.min, 0);
        assert_eq!(snap.max, 0);
        assert_eq!(snap.mean(), 0.0);
        assert_eq!(snap.quantile(0.5), 0);
        assert!(snap.buckets.is_empty());
    }
}
