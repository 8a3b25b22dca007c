//! `pe-serve` — a batch-coalescing classification service over the
//! bit-sliced gate-level simulator.
//!
//! The paper's sequential SVMs exist to classify *streams* of sensor
//! samples; this crate turns the reproduction into the corresponding
//! server. The economics come straight from `pe-sim`'s word-parallel
//! engine: one [`run_batch`](pe_sim::WarmSimulator::run_batch) call evaluates
//! up to 64 packed requests with a single bitwise op per gate, so a batch
//! of 64 coalesced requests costs roughly what one request costs served
//! alone. The service's whole job is to keep those lanes full without
//! letting tail latency run away.
//!
//! # Pieces
//!
//! * [`ModelRegistry`] — trains, quantizes and elaborates each
//!   `(dataset, style)` model exactly once (the engine-style memoization
//!   from `pe-core`) and caches the netlist; each worker builds its warm
//!   engine from it once ([`ModelEntry::warm_simulator`]).
//! * [`Service`] — the batcher and hand-rolled worker pool: a bounded
//!   pending queue with blocking backpressure, and work-conserving
//!   per-key coalescing into ≤64-lane batches: a request waits only while
//!   a batch of its model is being swept, so a lone request flushes at
//!   once at low load and batches fill up under load. Modes: gate-level
//!   serving (default), the integer fast path, or verify — both paths
//!   cross-checked bit-for-bit per batch.
//! * [`Metrics`] — per-model-key shards of lock-free counters and
//!   log-linear histograms (built on [`pe_obs`]): served and rejected
//!   counts, queue-wait vs. service-time latency split, batch-fill ratio,
//!   verify mismatches, and the simulator's per-batch profile, all
//!   rendered as one Prometheus-style text exposition; plus a per-request
//!   span trace ring.
//! * [`protocol`] / [`Server`] — a line-oriented TCP front end (the
//!   `pe-serve` binary) for driving the service from outside the process.
//!   `metrics` and `trace` return multi-line observability dumps
//!   terminated by `# EOF`.
//!
//! # Example
//!
//! ```no_run
//! use pe_core::pipeline::RunOptions;
//! use pe_serve::{ModelKey, ModelRegistry, Service, ServiceConfig};
//! use std::sync::Arc;
//!
//! let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
//! let service = Service::start(Arc::clone(&registry), ServiceConfig::default());
//! let key = ModelKey::parse("cardio:seq").unwrap();
//! let entry = registry.get(key);
//! let (x, _) = entry.prepared.test.sample(0);
//! let class = service.classify(key, x).unwrap();
//! println!("class {class}\n{}", service.metrics_text());
//! ```

pub mod metrics;
pub mod poller;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod service;

pub use metrics::{FrontendStats, Metrics, ModelMetrics, ModelMetricsSnapshot};
pub use registry::{ModelEntry, ModelKey, ModelRegistry};
pub use server::Server;
pub use service::{Intake, ServeError, ServeMode, Service, ServiceConfig, Ticket};
