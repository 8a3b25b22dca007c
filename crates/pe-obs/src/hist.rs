//! Lock-free counters and log-scale histograms.
//!
//! Writers touch one atomic per event. Readers take [`HistSnapshot`]s —
//! plain bucket-count arrays — that merge bucket-wise, so per-shard
//! histograms add up to an exact aggregate. Scalar rates use
//! [`RateWindow`]: feed it the current total and a timestamp, get back the
//! rate over the window since the previous feed.
//!
//! Latencies land in power-of-two nanosecond buckets, so quantiles are
//! estimates with at most 2× resolution error — plenty for spotting the
//! knee of a latency curve, and immune to coordinated omission caused by a
//! locked histogram.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Number of log-scale latency buckets (covers 1 ns .. ~2^63 ns).
pub const BUCKETS: usize = 64;

/// The bucket covering a duration: `floor(log2(ns))`, with sub-nanosecond
/// samples landing in bucket 0 and everything from 2^63 ns up saturating
/// into the last bucket. [`bucket_value`] is the inverse mapping; keeping
/// them adjacent is what guarantees `record` and `quantile` agree on every
/// bucket, the top one included.
#[must_use]
pub fn bucket_index(d: Duration) -> usize {
    let ns = (d.as_nanos() as u64).max(1);
    (ns.ilog2() as usize).min(BUCKETS - 1)
}

/// The representative duration of bucket `i`: the arithmetic midpoint
/// `1.5 * 2^i` of the covered range `[2^i, 2^(i+1))`. For the top bucket
/// (`i = 63`) the midpoint still fits a `u64` nanosecond count.
#[must_use]
pub fn bucket_value(i: usize) -> Duration {
    let lo = 1u64 << i;
    Duration::from_nanos(lo + lo / 2)
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

/// A lock-free histogram over power-of-two nanosecond buckets.
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

/// Plain bucket counts copied out of a [`Histogram`]; snapshots of several
/// histograms merge bucket-wise ([`HistSnapshot::merge`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistSnapshot {
    /// Samples per power-of-two bucket (see [`bucket_index`]).
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

    /// Merges another snapshot in (bucket-wise sum) — the aggregate of two
    /// shards.
    pub fn merge(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// The `q`-quantile as the arithmetic midpoint of the covering bucket
    /// ([`bucket_value`]; zero when nothing was recorded).
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

/// Turns a monotonically increasing total into a windowed rate: each
/// [`RateWindow::tick`] closes the window opened by the previous one and
/// returns events/second over it. The first tick reports over the window
/// since construction.
///
/// The lock is only taken by readers (snapshotters); writers never touch a
/// `RateWindow`.
#[derive(Debug)]
pub struct RateWindow {
    last: Mutex<(Instant, u64)>,
}

impl RateWindow {
    /// Opens the first window now, at the given starting total.
    #[must_use]
    pub fn new(total: u64) -> Self {
        RateWindow { last: Mutex::new((Instant::now(), total)) }
    }

    /// Closes the current window at `total` events and returns
    /// `(events/second over the window, window length)`. Windows shorter
    /// than a millisecond report a zero rate rather than a wild one.
    pub fn tick(&self, total: u64) -> (f64, Duration) {
        let mut last = self.last.lock().expect("rate window poisoned");
        let now = Instant::now();
        let dt = now.duration_since(last.0);
        let events = total.saturating_sub(last.1);
        *last = (now, total);
        if dt < Duration::from_millis(1) {
            (0.0, dt)
        } else {
            (events as f64 / dt.as_secs_f64(), dt)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_bracket_recorded_values() {
        let h = Histogram::new();
        for _ in 0..90 {
            h.record(Duration::from_micros(100)); // bucket [65.5, 131] µs
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

    #[test]
    fn top_bucket_samples_are_not_misreported() {
        let h = Histogram::new();
        h.record(Duration::from_nanos(u64::MAX)); // bucket 63
        let q = h.quantile(0.5);
        assert_eq!(q, bucket_value(63));
        assert!(q >= Duration::from_nanos(1u64 << 63), "{q:?} must be in the top bucket");
    }

    #[test]
    fn bucket_mapping_round_trips() {
        for i in 0..BUCKETS {
            assert_eq!(bucket_index(bucket_value(i)), i, "bucket {i} must map to itself");
        }
        assert_eq!(bucket_index(Duration::ZERO), 0);
        assert_eq!(bucket_index(Duration::from_nanos(1)), 0);
        assert_eq!(bucket_index(Duration::from_nanos(2)), 1);
        assert_eq!(bucket_index(Duration::from_nanos((1 << 10) - 1)), 9);
        assert_eq!(bucket_index(Duration::from_nanos(1 << 10)), 10);
    }

    #[test]
    fn rate_window_reports_interval_rate_not_lifetime() {
        let w = RateWindow::new(0);
        std::thread::sleep(Duration::from_millis(20));
        let (r1, dt1) = w.tick(100);
        assert!(dt1 >= Duration::from_millis(20));
        assert!(r1 > 0.0, "100 events over ~20ms must be a positive rate");
        std::thread::sleep(Duration::from_millis(20));
        // No new events in the second window: the interval rate is zero even
        // though the lifetime total is 100.
        let (r2, _) = w.tick(100);
        assert_eq!(r2, 0.0);
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
