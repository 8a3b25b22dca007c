//! Service metrics on the [`pe_obs`] kit: per-model-key shards of lock-free
//! counters and log-linear histograms, rendered as one Prometheus-style
//! text exposition ([`Metrics::prometheus`], the `metrics` wire reply).
//!
//! Every model key served gets its own [`ModelMetrics`] shard — counters,
//! a **queue-wait** histogram (submission until a worker drained the
//! request's batch), a **service-time** histogram (drain until reply), the
//! total-latency histogram, and a [`ProfileRecorder`] fed by the gate-level
//! simulator's [`SimProfile`](pe_obs::SimProfile) hook. Sharding is what
//! makes `lane_width` honest under mixed-model traffic: each model reports
//! the slab width *it* ran at, instead of whichever model's batch happened
//! to land last.
//!
//! Apart from the since-start `pe_lifetime_rps`, the exposition carries
//! no rate: a rate is the difference between two scrapes of a counter
//! (`pe_served_total`) over the time between them, which every scraper
//! measures for itself.

use crate::registry::ModelKey;
use pe_obs::{Counter, Gauge, HistSnapshot, Histogram, ProfileRecorder, ProfileSnapshot};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// One model key's metric shard. All figures are atomics; submitters and
/// batch workers update them without any shared lock.
#[derive(Debug)]
pub struct ModelMetrics {
    submitted: Counter,
    served: Counter,
    rejected: Counter,
    verify_mismatches: Counter,
    batches: Counter,
    batch_lanes: Counter,
    sweeps: Counter,
    sweep_capacity: Counter,
    /// Slab width (words) of this model's most recent gate-level batch —
    /// honest per key, unlike the old single global cell.
    lane_words: AtomicU64,
    gate_cycles: Counter,
    queue_wait: Histogram,
    service_time: Histogram,
    latency: Histogram,
    profile: Arc<ProfileRecorder>,
}

impl ModelMetrics {
    fn new() -> Self {
        ModelMetrics {
            submitted: Counter::new(),
            served: Counter::new(),
            rejected: Counter::new(),
            verify_mismatches: Counter::new(),
            batches: Counter::new(),
            batch_lanes: Counter::new(),
            sweeps: Counter::new(),
            sweep_capacity: Counter::new(),
            lane_words: AtomicU64::new(0),
            gate_cycles: Counter::new(),
            queue_wait: Histogram::new(),
            service_time: Histogram::new(),
            latency: Histogram::new(),
            profile: Arc::new(ProfileRecorder::new()),
        }
    }

    /// The simulator-profile recorder workers install on this model's
    /// batches ([`pe_sim::Simulator::set_profile`]).
    #[must_use]
    pub fn profile(&self) -> &Arc<ProfileRecorder> {
        &self.profile
    }

    /// Accounts one executed batch. `lane_words` is the slab width (in
    /// words) the gate-level simulator swept this batch at
    /// ([`pe_sim::LaneWidth::for_batch`]) — 0 for integer-only batches,
    /// which do no sweeps. Sweep occupancy is accounted against the
    /// **effective** lane capacity `64 * lane_words`, not a hardcoded 64.
    pub(crate) fn on_batch(
        &self,
        lanes: usize,
        lane_words: usize,
        gate_cycles: u64,
        mismatches: usize,
    ) {
        self.batches.inc();
        self.batch_lanes.add(lanes as u64);
        if lane_words > 0 && lanes > 0 {
            let capacity = (lane_words * 64) as u64;
            let sweeps = (lanes as u64).div_ceil(capacity);
            self.sweeps.add(sweeps);
            self.sweep_capacity.add(sweeps * capacity);
            self.lane_words.store(lane_words as u64, Ordering::Relaxed);
        }
        self.gate_cycles.add(gate_cycles);
        if mismatches > 0 {
            self.verify_mismatches.add(mismatches as u64);
        }
    }

    /// Accounts one answered request with its latency decomposition.
    pub(crate) fn on_served(&self, queue_wait: Duration, service: Duration) {
        self.served.inc();
        self.queue_wait.record(queue_wait);
        self.service_time.record(service);
        self.latency.record(queue_wait + service);
    }

    /// A point-in-time copy of this shard.
    #[must_use]
    pub fn snapshot(&self, batch_max: usize) -> ModelMetricsSnapshot {
        let served = self.served.get();
        let batches = self.batches.get();
        let lanes = self.batch_lanes.get();
        let sweeps = self.sweeps.get();
        let sweep_capacity = self.sweep_capacity.get();
        let queue_wait = self.queue_wait.snapshot();
        let service_time = self.service_time.snapshot();
        let latency = self.latency.snapshot();
        ModelMetricsSnapshot {
            submitted: self.submitted.get(),
            served,
            rejected: self.rejected.get(),
            verify_mismatches: self.verify_mismatches.get(),
            batches,
            gate_cycles: self.gate_cycles.get(),
            batch_fill: if batches == 0 {
                0.0
            } else {
                lanes as f64 / (batches as f64 * batch_max.max(1) as f64)
            },
            lane_width: self.lane_words.load(Ordering::Relaxed),
            sweeps,
            lane_fill: if sweep_capacity == 0 { 0.0 } else { lanes as f64 / sweep_capacity as f64 },
            queue_wait,
            service_time,
            latency,
            profile: self.profile.snapshot(),
        }
    }
}

/// A point-in-time copy of one model shard (see [`ModelMetrics::snapshot`]).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMetricsSnapshot {
    /// Requests accepted into the queue for this model.
    pub submitted: u64,
    /// Requests answered.
    pub served: u64,
    /// Requests rejected for backpressure.
    pub rejected: u64,
    /// Integer-vs-gate-level disagreements (must stay 0).
    pub verify_mismatches: u64,
    /// `run_batch` calls issued.
    pub batches: u64,
    /// Gate-level clock cycles simulated.
    pub gate_cycles: u64,
    /// Mean fraction of `batch_max` a batch actually filled.
    pub batch_fill: f64,
    /// Slab width (words) this model's most recent gate-level batch swept
    /// at — the narrowest holding that batch, up to the configured cap
    /// (the `pe_lane_width_words` series). A level, not a history:
    /// `sweep_capacity / (64 × sweeps)` is the width the sweeps ran at on
    /// average.
    pub lane_width: u64,
    /// Bit-sliced sweeps executed.
    pub sweeps: u64,
    /// Mean fraction of the **effective** lane capacity (`64 * lane_width`
    /// per sweep, not a hardcoded 64) the executed sweeps filled.
    pub lane_fill: f64,
    /// Queue-wait histogram (submission → batch drained).
    pub queue_wait: HistSnapshot,
    /// Service-time histogram (batch drained → reply).
    pub service_time: HistSnapshot,
    /// Total-latency histogram (submission → reply).
    pub latency: HistSnapshot,
    /// Simulator profile totals (phase ns, sweeps, cell evals) fed through
    /// [`pe_obs::SimProfile`].
    pub profile: ProfileSnapshot,
}

/// Connection and readiness gauges for the non-blocking TCP front end.
///
/// Owned by [`Metrics`] (so the `metrics` wire command exposes them without
/// any registration dance) and written by the [`Server`](crate::Server)
/// event loop. All figures stay zero when the service runs without a TCP
/// front end (in-process use, tests).
#[derive(Debug, Default)]
pub struct FrontendStats {
    /// Connections currently open (level) and the high-water mark (peak).
    pub conns_open: Gauge,
    /// Connections accepted over the server's lifetime.
    pub accepted: Counter,
    /// Connections refused because the slot table was full.
    pub rejected: Counter,
    /// Requests discarded for exceeding the line-length cap.
    pub oversized: Counter,
    /// Classify requests parked for service backpressure (queue full) and
    /// retried on a later pass instead of being dropped.
    pub parked: Counter,
    /// Connections found readable on the most recent scan (level) and the
    /// busiest single pass (peak).
    pub conns_ready: Gauge,
    /// Event-loop scan passes.
    pub poll_passes: Counter,
    /// Scan passes that made no progress (accept/read/write/reply) and paid
    /// an idle pause instead.
    pub poll_idle: Counter,
}

/// Live metrics for one [`Service`](crate::Service): per-model shards plus
/// the TCP front end's gauges.
#[derive(Debug)]
pub struct Metrics {
    started: Instant,
    shards: RwLock<HashMap<ModelKey, Arc<ModelMetrics>>>,
    /// TCP front-end gauges (zero without a [`Server`](crate::Server)).
    frontend: FrontendStats,
}

impl Metrics {
    pub(crate) fn new() -> Self {
        Metrics {
            started: Instant::now(),
            shards: RwLock::new(HashMap::new()),
            frontend: FrontendStats::default(),
        }
    }

    /// The TCP front end's connection/readiness instruments.
    #[must_use]
    pub fn frontend(&self) -> &FrontendStats {
        &self.frontend
    }

    /// The shard for `key`, created on first use.
    #[must_use]
    pub fn shard(&self, key: ModelKey) -> Arc<ModelMetrics> {
        if let Some(s) = self.shards.read().expect("metrics shards poisoned").get(&key) {
            return Arc::clone(s);
        }
        let mut w = self.shards.write().expect("metrics shards poisoned");
        Arc::clone(w.entry(key).or_insert_with(|| Arc::new(ModelMetrics::new())))
    }

    pub(crate) fn on_submit(&self, key: ModelKey) {
        self.shard(key).submitted.inc();
    }

    pub(crate) fn on_reject(&self, key: ModelKey) {
        self.shard(key).rejected.inc();
    }

    /// Every shard's snapshot, sorted by model token (stable output for the
    /// exposition and tests).
    #[must_use]
    pub fn model_snapshots(&self, batch_max: usize) -> Vec<(ModelKey, ModelMetricsSnapshot)> {
        let mut out: Vec<(ModelKey, ModelMetricsSnapshot)> = self
            .shards
            .read()
            .expect("metrics shards poisoned")
            .iter()
            .map(|(k, s)| (*k, s.snapshot(batch_max)))
            .collect();
        out.sort_by_key(|(k, _)| k.token());
        out
    }

    /// Prometheus-style text exposition: one line per series, `model=`
    /// labels, terminated by `# EOF` (the `metrics` wire reply). Gauges
    /// carry the queue depth across all keys, the since-start throughput
    /// (`pe_lifetime_rps`) and the
    /// front end's connection/readiness instruments (`pe_conn_*`,
    /// `pe_poll_*` — zero without a TCP server);
    /// per-model series carry the shard counters, the queue-wait /
    /// service-time / latency quantiles, and the simulator profile series
    /// (phase nanoseconds, sweeps, cell evaluations, cone-campaign
    /// counters). `pe_lane_width_words` is a level, not a
    /// counter: the slab width (in 64-lane words) the model's most recent
    /// gate-level batch swept at, which follows the batch size up to the
    /// configured cap ([`pe_sim::LaneWidth::for_batch`]).
    #[must_use]
    pub fn prometheus(&self, batch_max: usize, queue_depth: usize) -> String {
        use std::fmt::Write as _;
        let shards = self.model_snapshots(batch_max);
        let mut out = String::new();
        let elapsed = self.started.elapsed().as_secs_f64();
        let served: u64 = shards.iter().map(|(_, s)| s.served).sum();
        let _ = writeln!(out, "pe_queue_depth {queue_depth}");
        let _ = writeln!(
            out,
            "pe_lifetime_rps {:.3}",
            if elapsed > 0.0 { served as f64 / elapsed } else { 0.0 }
        );
        let fe = &self.frontend;
        let _ = writeln!(out, "pe_conn_open {}", fe.conns_open.get());
        let _ = writeln!(out, "pe_conn_open_peak {}", fe.conns_open.peak());
        let _ = writeln!(out, "pe_conn_accepted_total {}", fe.accepted.get());
        let _ = writeln!(out, "pe_conn_rejected_total {}", fe.rejected.get());
        let _ = writeln!(out, "pe_conn_oversized_total {}", fe.oversized.get());
        let _ = writeln!(out, "pe_conn_parked_total {}", fe.parked.get());
        let _ = writeln!(out, "pe_conn_ready {}", fe.conns_ready.get());
        let _ = writeln!(out, "pe_conn_ready_peak {}", fe.conns_ready.peak());
        let _ = writeln!(out, "pe_poll_passes_total {}", fe.poll_passes.get());
        let _ = writeln!(out, "pe_poll_idle_total {}", fe.poll_idle.get());
        for (key, s) in &shards {
            let m = key.token();
            let us = |d: Duration| d.as_secs_f64() * 1e6;
            let _ = writeln!(out, "pe_submitted_total{{model=\"{m}\"}} {}", s.submitted);
            let _ = writeln!(out, "pe_served_total{{model=\"{m}\"}} {}", s.served);
            let _ = writeln!(out, "pe_rejected_total{{model=\"{m}\"}} {}", s.rejected);
            let _ = writeln!(
                out,
                "pe_verify_mismatches_total{{model=\"{m}\"}} {}",
                s.verify_mismatches
            );
            let _ = writeln!(out, "pe_batches_total{{model=\"{m}\"}} {}", s.batches);
            let _ = writeln!(out, "pe_gate_cycles_total{{model=\"{m}\"}} {}", s.gate_cycles);
            let _ = writeln!(out, "pe_batch_fill{{model=\"{m}\"}} {:.4}", s.batch_fill);
            let _ = writeln!(out, "pe_lane_width_words{{model=\"{m}\"}} {}", s.lane_width);
            let _ = writeln!(out, "pe_sweeps_total{{model=\"{m}\"}} {}", s.sweeps);
            let _ = writeln!(out, "pe_lane_fill{{model=\"{m}\"}} {:.4}", s.lane_fill);
            for (name, h) in [
                ("pe_queue_wait_us", &s.queue_wait),
                ("pe_service_time_us", &s.service_time),
                ("pe_latency_us", &s.latency),
            ] {
                let _ = writeln!(
                    out,
                    "{name}{{model=\"{m}\",quantile=\"0.5\"}} {:.1}",
                    us(h.quantile(0.5))
                );
                let _ = writeln!(
                    out,
                    "{name}{{model=\"{m}\",quantile=\"0.99\"}} {:.1}",
                    us(h.quantile(0.99))
                );
                let _ = writeln!(out, "{name}_count{{model=\"{m}\"}} {}", h.count());
            }
            let p = &s.profile;
            let _ = writeln!(out, "pe_sim_batches_total{{model=\"{m}\"}} {}", p.batches);
            let _ = writeln!(out, "pe_sim_lanes_total{{model=\"{m}\"}} {}", p.lanes);
            let _ = writeln!(out, "pe_sim_sweeps_total{{model=\"{m}\"}} {}", p.sweeps);
            let _ = writeln!(out, "pe_sim_cycles_total{{model=\"{m}\"}} {}", p.cycles);
            let _ = writeln!(out, "pe_sim_cell_evals_total{{model=\"{m}\"}} {}", p.cell_evals);
            let _ = writeln!(out, "pe_sim_drive_ns_total{{model=\"{m}\"}} {}", p.drive_ns);
            let _ = writeln!(out, "pe_sim_eval_ns_total{{model=\"{m}\"}} {}", p.eval_ns);
            let _ = writeln!(out, "pe_sim_readout_ns_total{{model=\"{m}\"}} {}", p.readout_ns);
            let _ = writeln!(out, "pe_sim_cone_chunks_total{{model=\"{m}\"}} {}", p.cone_chunks);
            let _ = writeln!(
                out,
                "pe_sim_fallback_chunks_total{{model=\"{m}\"}} {}",
                p.fallback_chunks
            );
        }
        out.push_str("# EOF\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::styles::DesignStyle;
    use pe_data::UciProfile;

    fn cardio() -> ModelKey {
        ModelKey::new(UciProfile::Cardio, DesignStyle::SequentialSvm)
    }

    fn pendigits() -> ModelKey {
        ModelKey::new(UciProfile::PenDigits, DesignStyle::SequentialSvm)
    }

    #[test]
    fn snapshot_line_round_trips_fields() {
        let m = Metrics::new();
        m.on_submit(cardio());
        let shard = m.shard(cardio());
        shard.on_batch(32, 1, 96, 0);
        shard.on_served(Duration::from_micros(400), Duration::from_micros(100));
        let snap = shard.snapshot(64);
        assert_eq!((snap.submitted, snap.served, snap.verify_mismatches), (1, 1, 0));
        assert_eq!(snap.gate_cycles, 96);
        assert!((snap.batch_fill - 0.5).abs() < 1e-9);
        assert_eq!(snap.lane_width, 1);
        assert_eq!(snap.sweeps, 1);
        assert!((snap.lane_fill - 0.5).abs() < 1e-9);
        // One sample each: every quantile reads it back within 1/32.
        for (h, want) in [(&snap.queue_wait, 400.0), (&snap.service_time, 100.0)] {
            for q in [0.5, 0.99] {
                let us = h.quantile(q).as_secs_f64() * 1e6;
                assert!((us - want).abs() <= want / 32.0, "q {q}: {us} µs vs {want} µs");
            }
        }
        assert_eq!(snap.latency.count(), 1);
    }

    #[test]
    fn lane_fill_accounts_against_effective_capacity() {
        // 300 requests in one batch at an 8-word slab (512-lane sweeps): one
        // sweep, 300/512 full. The old hardcoded-64 accounting would report
        // five "batches" worth of lanes instead.
        let m = Metrics::new();
        m.shard(cardio()).on_batch(300, 8, 0, 0);
        let snap = m.shard(cardio()).snapshot(512);
        assert_eq!(snap.lane_width, 8);
        assert_eq!(snap.sweeps, 1);
        assert!((snap.lane_fill - 300.0 / 512.0).abs() < 1e-9, "lane_fill {}", snap.lane_fill);
        // Integer-only batches do no sweeps and leave lane accounting alone.
        let int_only = Metrics::new();
        int_only.shard(cardio()).on_batch(10, 0, 0, 0);
        let snap = int_only.shard(cardio()).snapshot(64);
        assert_eq!(snap.lane_width, 0);
        assert_eq!(snap.sweeps, 0);
        assert_eq!(snap.lane_fill, 0.0);
    }

    #[test]
    fn per_model_lane_width_survives_mixed_traffic() {
        // The satellite bug: a single global `lane_words` cell meant the
        // last model's batch overwrote every other model's width. Shards
        // keep each model honest.
        let m = Metrics::new();
        m.shard(cardio()).on_batch(300, 8, 0, 0);
        m.shard(pendigits()).on_batch(10, 1, 0, 0);
        let per_model = m.model_snapshots(512);
        let widths: HashMap<String, u64> =
            per_model.iter().map(|(k, s)| (k.token(), s.lane_width)).collect();
        assert_eq!(widths["cardio:seq"], 8);
        assert_eq!(widths["pendigits:seq"], 1);
    }

    #[test]
    fn prometheus_exposition_is_per_model_and_eof_terminated() {
        let m = Metrics::new();
        let c = m.shard(cardio());
        c.on_batch(32, 1, 96, 0);
        c.on_served(Duration::from_micros(100), Duration::from_micros(50));
        m.shard(pendigits()).on_batch(10, 2, 40, 0);
        let text = m.prometheus(64, 3);
        assert!(text.ends_with("# EOF\n"), "{text}");
        assert!(text.contains("pe_queue_depth 3"), "{text}");
        // Front-end gauges are always exposed; without a TCP server they
        // read zero except what we poke here.
        m.frontend().conns_open.add(5);
        m.frontend().conns_open.sub(2);
        m.frontend().accepted.add(5);
        let text = m.prometheus(64, 3);
        assert!(text.contains("pe_conn_open 3"), "{text}");
        assert!(text.contains("pe_conn_open_peak 5"), "{text}");
        assert!(text.contains("pe_conn_accepted_total 5"), "{text}");
        assert!(text.contains("pe_poll_passes_total 0"), "{text}");
        assert!(text.contains("pe_served_total{model=\"cardio:seq\"} 1"), "{text}");
        assert!(text.contains("pe_lane_width_words{model=\"pendigits:seq\"} 2"), "{text}");
        assert!(text.contains("pe_queue_wait_us{model=\"cardio:seq\",quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("pe_service_time_us{model=\"cardio:seq\",quantile=\"0.99\"}"));
        assert!(text.contains("pe_sim_cell_evals_total{model=\"cardio:seq\"} 0"));
        // Every non-comment line is `name{labels} value` or `name value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let mut parts = line.rsplitn(2, ' ');
            let value = parts.next().unwrap();
            assert!(value.parse::<f64>().is_ok(), "unparseable value in {line:?}");
            assert!(parts.next().is_some(), "no series name in {line:?}");
        }
    }
}
