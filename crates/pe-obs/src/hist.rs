//! Lock-free counters, gauges and log-linear histograms.
//!
//! Writers touch one atomic per event. Readers take [`HistSnapshot`]s —
//! plain bucket-count arrays — and read quantiles off them.
//!
//! Latencies land in log-linear nanosecond buckets, the HdrHistogram
//! layout: every power of two is split into [`SUB_BUCKETS`] equal linear
//! sub-buckets, and a quantile reads back as the midpoint of its
//! sub-bucket. A sub-bucket is at most 1/16 of its lower bound wide, so a
//! reported quantile lies within 1/32 of the exact order statistic — fine
//! enough to tell a p50 from a p99 of samples that sit within 2× of each
//! other, and immune to the coordinated omission of a locked histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Linear sub-buckets per power of two (a power of two itself).
pub const SUB_BUCKETS: usize = 16;

/// `log2(SUB_BUCKETS)`: the bits of a sample below its leading one that
/// select its sub-bucket.
const SUB_BITS: u32 = SUB_BUCKETS.trailing_zeros();

/// Number of latency buckets: one exact bucket per nanosecond value below
/// `SUB_BUCKETS`, then `SUB_BUCKETS` per power of two up to 2^64 ns.
pub const BUCKETS: usize = SUB_BUCKETS * (64 - SUB_BITS as usize + 1);

/// The bucket covering a duration. Values below `2 * SUB_BUCKETS` ns each
/// get their own bucket; above that, a value with leading bit `e` lands in
/// sub-bucket `(ns >> (e - SUB_BITS)) - SUB_BUCKETS` of its power of two.
/// Everything from 2^64 ns up saturates into the last bucket.
/// [`bucket_value`] is the inverse mapping; keeping them adjacent is what
/// guarantees `record` and `quantile` agree on every bucket, the top one
/// included.
#[must_use]
pub fn bucket_index(d: Duration) -> usize {
    let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
    if ns < SUB_BUCKETS as u64 {
        return ns as usize;
    }
    let e = ns.ilog2();
    let sub = (ns >> (e - SUB_BITS)) as usize - SUB_BUCKETS;
    SUB_BUCKETS * (e - SUB_BITS + 1) as usize + sub
}

/// The representative duration of bucket `i`: the midpoint of its covered
/// range `[lo, lo + width)` (exact for the one-nanosecond buckets). For the
/// top bucket the midpoint still fits a `u64` nanosecond count.
#[must_use]
pub fn bucket_value(i: usize) -> Duration {
    if i < SUB_BUCKETS {
        return Duration::from_nanos(i as u64);
    }
    let shift = (i / SUB_BUCKETS - 1) as u32;
    let lo = ((SUB_BUCKETS + i % SUB_BUCKETS) as u64) << shift;
    let width = 1u64 << shift;
    Duration::from_nanos(lo + width / 2)
}

/// A monotonically increasing lock-free counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A counter at zero.
    #[must_use]
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// The current total.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A lock-free **gauge**: a level that moves both ways (open connections,
/// readiness-queue depth, parked requests), where [`Counter`] only ever
/// grows. `add`/`sub` pair around a resource's lifetime; `peak` remembers
/// the high-water mark so a scrape between bursts still shows how high the
/// level got.
#[derive(Debug, Default)]
pub struct Gauge {
    level: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    /// A gauge at zero.
    #[must_use]
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Raises the level by `n` and updates the high-water mark.
    pub fn add(&self, n: u64) {
        let now = self.level.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Raises the level by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Lowers the level by `n`, saturating at zero (a stray extra `sub`
    /// must not wrap the gauge to 2^64).
    pub fn sub(&self, n: u64) {
        let mut cur = self.level.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.level.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Lowers the level by one.
    pub fn dec(&self) {
        self.sub(1);
    }

    /// Sets the level outright (for sampled gauges like queue depth) and
    /// updates the high-water mark.
    pub fn set(&self, n: u64) {
        self.level.store(n, Ordering::Relaxed);
        self.peak.fetch_max(n, Ordering::Relaxed);
    }

    /// The current level.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.level.load(Ordering::Relaxed)
    }

    /// The highest level ever observed.
    #[must_use]
    pub fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// A lock-free histogram over log-linear nanosecond buckets.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Histogram { buckets: std::array::from_fn(|_| AtomicU64::new(0)) }
    }

    /// Records one sample.
    pub fn record(&self, d: Duration) {
        self.buckets[bucket_index(d)].fetch_add(1, Ordering::Relaxed);
    }

    /// A point-in-time copy of the bucket counts. Buckets are read
    /// individually (relaxed), so a snapshot taken during writes may
    /// straddle an in-flight sample — fine for monitoring.
    #[must_use]
    pub fn snapshot(&self) -> HistSnapshot {
        HistSnapshot { counts: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)) }
    }

    /// The `q`-quantile over everything recorded so far (see
    /// [`HistSnapshot::quantile`]).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        self.snapshot().quantile(q)
    }
}

/// Plain bucket counts copied out of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples per log-linear bucket (see [`bucket_index`]).
    pub counts: [u64; BUCKETS],
}

impl Default for HistSnapshot {
    fn default() -> Self {
        HistSnapshot { counts: [0; BUCKETS] }
    }
}

impl HistSnapshot {
    /// Total samples in this snapshot.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `q`-quantile: the midpoint ([`bucket_value`]) of the bucket
    /// holding the sample of rank `floor((count - 1) * q)`, within 1/32 of
    /// that sample; zero when nothing was recorded.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        let total = self.count();
        if total == 0 {
            return Duration::ZERO;
        }
        let rank = ((total as f64 - 1.0) * q.clamp(0.0, 1.0)).floor() as u64;
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if c > 0 && seen > rank {
                return bucket_value(i);
            }
        }
        Duration::ZERO
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_recorded_values() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(Duration::from_micros(100)); // bucket [98.3, 102.4) µs
        }
        for _ in 0..10 {
            h.record(Duration::from_millis(10));
        }
        let p50 = h.quantile(0.5);
        assert!(p50 >= Duration::from_micros(64) && p50 <= Duration::from_micros(200), "{p50:?}");
        let p99 = h.quantile(0.99);
        assert!(p99 >= Duration::from_millis(8) && p99 <= Duration::from_millis(25), "{p99:?}");
        assert_eq!(Histogram::new().quantile(0.5), Duration::ZERO);
    }

    /// Whether `got` lies within 1/32 of `exact`, in whole nanoseconds.
    fn within_a_32nd(got: Duration, exact: Duration) -> bool {
        got.as_nanos().abs_diff(exact.as_nanos()) * 32 <= exact.as_nanos()
    }

    /// The order statistic [`HistSnapshot::quantile`] estimates.
    fn exact_quantile(sorted: &[Duration], q: f64) -> Duration {
        sorted[((sorted.len() - 1) as f64 * q).floor() as usize]
    }

    #[test]
    fn quantiles_lie_within_a_32nd_of_the_exact_order_statistic() {
        // 5,000 log-uniform samples from 1 µs to ~1 s (a fixed LCG): every
        // percentile reads back within 1/32 of the sample it stands for.
        let h = Histogram::new();
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut samples: Vec<Duration> = (0..5_000)
            .map(|_| {
                state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                Duration::from_nanos((1e3 * 1e6f64.powf(u)) as u64)
            })
            .collect();
        for &d in &samples {
            h.record(d);
        }
        samples.sort();
        let snap = h.snapshot();
        assert_eq!(snap.count(), samples.len() as u64);
        for pct in 0..=100 {
            let q = f64::from(pct) / 100.0;
            let (got, exact) = (snap.quantile(q), exact_quantile(&samples, q));
            assert!(within_a_32nd(got, exact), "q {q}: {got:?} vs exact {exact:?}");
        }
    }

    #[test]
    fn p50_and_p99_differ_for_samples_within_one_octave() {
        // 66..130 µs: all inside one power of two, so a per-octave bucket
        // would report p50 == p99.
        let h = Histogram::new();
        let samples: Vec<Duration> =
            (0..1_000u64).map(|k| Duration::from_nanos(66_000 + 64 * k)).collect();
        for &d in &samples {
            h.record(d);
        }
        let (p50, p99) = (h.quantile(0.5), h.quantile(0.99));
        assert!(p50 < p99, "p50 {p50:?} must read below p99 {p99:?}");
        assert!(within_a_32nd(p50, exact_quantile(&samples, 0.5)), "{p50:?}");
        assert!(within_a_32nd(p99, exact_quantile(&samples, 0.99)), "{p99:?}");
    }

    #[test]
    fn top_bucket_samples_are_not_misreported() {
        let h = Histogram::new();
        h.record(Duration::from_nanos(u64::MAX));
        h.record(Duration::MAX); // beyond 2^64 ns: saturates
        let q = h.quantile(0.5);
        assert_eq!(q, bucket_value(BUCKETS - 1));
        assert!(q >= Duration::from_nanos(31 << 59), "{q:?} must be in the top bucket");
    }

    #[test]
    fn bucket_mapping_round_trips() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_value(i)), i, "bucket {i} must map to itself");
        }
        // Below 2 * SUB_BUCKETS ns every nanosecond has its own bucket.
        for ns in 0..2 * SUB_BUCKETS as u64 {
            assert_eq!(bucket_index(Duration::from_nanos(ns)), ns as usize);
            assert_eq!(bucket_value(ns as usize), Duration::from_nanos(ns));
        }
        // 1023 ns is the last sub-bucket of [512, 1024); 1024 ns opens the
        // next power of two.
        assert_eq!(bucket_index(Duration::from_nanos((1 << 10) - 1)), 111);
        assert_eq!(bucket_index(Duration::from_nanos(1 << 10)), 112);
        assert_eq!(bucket_value(112), Duration::from_nanos(1024 + 32));
    }

    #[test]
    fn counters_accumulate() {
        let c = Counter::new();
        c.inc();
        c.add(9);
        assert_eq!(c.get(), 10);
    }

    #[test]
    fn gauges_move_both_ways_and_remember_their_peak() {
        let g = Gauge::new();
        g.add(3);
        g.inc();
        assert_eq!(g.get(), 4);
        g.dec();
        g.sub(2);
        assert_eq!(g.get(), 1);
        assert_eq!(g.peak(), 4, "peak survives the drop");
        // A stray extra sub saturates at zero instead of wrapping.
        g.sub(100);
        assert_eq!(g.get(), 0);
        g.set(7);
        assert_eq!(g.get(), 7);
        assert_eq!(g.peak(), 7);
        g.set(2);
        assert_eq!(g.peak(), 7, "set never lowers the peak");
    }
}
