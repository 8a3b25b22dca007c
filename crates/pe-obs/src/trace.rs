//! A fixed-capacity, non-blocking ring of per-request span records.
//!
//! The serving layer traces each request through five spans:
//!
//! ```text
//! enqueue ──queue_wait──▶ coalesce ──setup──▶ sweep ──verify──▶ reply
//! ```
//!
//! * **queue_wait** — submission until a worker drained the request's batch
//!   from the pending queue (the coalescing delay: the key's in-flight
//!   sweep + queue depth).
//! * **setup** — batch drained until the simulator starts sweeping: model
//!   lookup, request unpacking, the integer golden path in verify mode, and
//!   simulator stamping.
//! * **sweep** — the gate-level `run_batch` call itself.
//! * **verify** — the integer-vs-gate cross-check (zero outside verify mode).
//! * **reply** — fan-out of the batch's predictions to the reply channels.
//!
//! Writers claim a slot with one `fetch_add` and a `try_lock`: a contended
//! slot **drops the record** and counts the drop instead of blocking the
//! serving hot path. Readers ([`TraceRing::recent`]) lock slots one at a
//! time, so a dump never stops the world.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One traced request: the five span durations plus enough context to read
/// the dump without cross-referencing (model, batch occupancy, reply time).
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Monotonic sequence number assigned at record time (dump order key).
    pub seq: u64,
    /// The model key token the request addressed (e.g. `cardio:seq`).
    pub model: String,
    /// How many requests rode in the same coalesced batch.
    pub batch_lanes: usize,
    /// Submission until the batch was drained by a worker.
    pub queue_wait: Duration,
    /// Batch drained until the gate-level sweep started.
    pub setup: Duration,
    /// The gate-level `run_batch` call.
    pub sweep: Duration,
    /// The integer-vs-gate cross-check (verify mode only).
    pub verify: Duration,
    /// Prediction fan-out to the reply channels.
    pub reply: Duration,
    /// Submission to reply — the latency the client saw.
    pub total: Duration,
    /// When the reply was sent (for "age" in dumps).
    pub at: Instant,
}

impl RequestTrace {
    /// One parse-friendly dump line (the `trace` wire format), newest-first
    /// consumers prepend their own framing.
    #[must_use]
    pub fn to_line(&self, now: Instant) -> String {
        let us = |d: Duration| d.as_secs_f64() * 1e6;
        format!(
            "seq={} model={} age_ms={:.0} total_us={:.1} queue_us={:.1} setup_us={:.1} \
             sweep_us={:.1} verify_us={:.1} reply_us={:.1} lanes={}",
            self.seq,
            self.model,
            now.saturating_duration_since(self.at).as_secs_f64() * 1e3,
            us(self.total),
            us(self.queue_wait),
            us(self.setup),
            us(self.sweep),
            us(self.verify),
            us(self.reply),
            self.batch_lanes,
        )
    }
}

/// The ring. Capacity 0 disables tracing entirely (every record is a cheap
/// no-op), which is also the instrumentation-off baseline the overhead
/// measurement uses.
#[derive(Debug)]
pub struct TraceRing {
    slots: Vec<Mutex<Option<RequestTrace>>>,
    next: AtomicUsize,
    seq: AtomicU64,
    dropped: AtomicU64,
}

impl TraceRing {
    /// A ring holding the most recent `capacity` records.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        TraceRing {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            next: AtomicUsize::new(0),
            seq: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    /// Records one trace, assigning its sequence number. Never blocks: if
    /// the claimed slot is momentarily held by a reader (or another writer
    /// that wrapped), the record is dropped and counted.
    pub fn record(&self, mut trace: RequestTrace) {
        if self.slots.is_empty() {
            return;
        }
        trace.seq = self.seq.fetch_add(1, Ordering::Relaxed);
        let slot = self.next.fetch_add(1, Ordering::Relaxed) % self.slots.len();
        match self.slots[slot].try_lock() {
            Ok(mut guard) => *guard = Some(trace),
            Err(_) => {
                self.dropped.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Records dropped to slot contention so far.
    #[must_use]
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Total records ever offered to the ring (accepted + dropped).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.seq.load(Ordering::Relaxed)
    }

    /// The most recent `limit` records, newest first. Slots are locked one
    /// at a time; a slot a writer holds right now is skipped.
    #[must_use]
    pub fn recent(&self, limit: usize) -> Vec<RequestTrace> {
        let mut out: Vec<RequestTrace> = Vec::new();
        for slot in &self.slots {
            if let Ok(guard) = slot.try_lock() {
                if let Some(t) = guard.as_ref() {
                    out.push(t.clone());
                }
            }
        }
        out.sort_by_key(|ev| std::cmp::Reverse(ev.seq));
        out.truncate(limit);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(model: &str, total_us: u64) -> RequestTrace {
        RequestTrace {
            seq: 0,
            model: model.to_owned(),
            batch_lanes: 4,
            queue_wait: Duration::from_micros(total_us / 2),
            setup: Duration::from_micros(total_us / 8),
            sweep: Duration::from_micros(total_us / 4),
            verify: Duration::ZERO,
            reply: Duration::from_micros(total_us / 8),
            total: Duration::from_micros(total_us),
            at: Instant::now(),
        }
    }

    #[test]
    fn ring_keeps_the_most_recent_records() {
        let ring = TraceRing::new(4);
        for i in 0..10 {
            ring.record(trace("cardio:seq", 100 + i));
        }
        let recent = ring.recent(16);
        assert_eq!(recent.len(), 4, "capacity bounds the dump");
        // Newest first, and the oldest six wrapped away.
        assert_eq!(recent[0].seq, 9);
        assert_eq!(recent[3].seq, 6);
        assert_eq!(ring.recorded(), 10);
        assert_eq!(ring.dropped(), 0);
    }

    #[test]
    fn zero_capacity_disables_recording() {
        let ring = TraceRing::new(0);
        ring.record(trace("cardio:seq", 10));
        assert!(ring.recent(8).is_empty());
        assert_eq!(ring.recorded(), 0);
    }

    #[test]
    fn concurrent_writers_never_block_and_rarely_drop() {
        let ring = std::sync::Arc::new(TraceRing::new(64));
        std::thread::scope(|s| {
            for t in 0..8 {
                let ring = std::sync::Arc::clone(&ring);
                s.spawn(move || {
                    for i in 0..1000 {
                        ring.record(trace("m", t * 1000 + i));
                    }
                });
            }
        });
        let total = ring.recorded();
        assert_eq!(total, 8000);
        // Every record was either stored or counted as dropped; the dump is
        // well-formed either way.
        let recent = ring.recent(64);
        assert!(recent.len() <= 64);
        for w in recent.windows(2) {
            assert!(w[0].seq > w[1].seq, "dump must be newest-first");
        }
    }

    #[test]
    fn trace_lines_round_trip_key_fields() {
        let t = trace("pendigits:seq", 800);
        let line = t.to_line(Instant::now());
        assert!(line.contains("model=pendigits:seq"), "{line}");
        assert!(line.contains("total_us=800.0"), "{line}");
        assert!(line.contains("queue_us=400.0"), "{line}");
        assert!(line.contains("lanes=4"), "{line}");
    }
}
