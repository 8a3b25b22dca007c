//! `pe-obs` — the workspace's std-only observability kit.
//!
//! Serving traffic through the bit-sliced simulator is only tunable when
//! every layer can say where time went. This crate holds the three reusable
//! instruments the stack shares, all built on `std` atomics (no
//! dependencies, `unsafe` forbidden):
//!
//! * [`hist`] — lock-free counters and log-scale latency histograms with
//!   **interval snapshots**: every snapshot carries plain bucket counts, so
//!   consumers subtract two snapshots ([`HistSnapshot::delta_since`]) to get
//!   windowed quantiles/rates instead of since-start totals. A service that
//!   idled through warm-up no longer deflates its reported throughput
//!   forever.
//! * [`trace`] — a fixed-capacity, non-blocking ring of per-request span
//!   records (`enqueue → coalesce → sweep → verify → reply`). Writers never
//!   block: a contended slot drops the record and counts the drop. Readers
//!   dump the most recent spans for a `trace` wire command.
//! * [`profile`] — the [`SimProfile`] hook trait the
//!   simulator crate feeds with per-batch phase timings (drive/eval/readout),
//!   sweep counts, event-driven work accounting, and per-chunk fault-campaign
//!   cone statistics — plus [`ProfileRecorder`], an
//!   atomic aggregator any number of simulators can share.
//!
//! The dependency direction is strictly upward: `pe-sim` and `pe-serve`
//! depend on this crate, never the reverse, so the instruments stay reusable
//! by campaign binaries, benches and tests alike.

pub mod hist;
pub mod profile;
pub mod trace;

pub use hist::{Counter, Gauge, HistSnapshot, Histogram, RateWindow};
pub use profile::{NullProfile, ProfileRecorder, ProfileSnapshot, SimBatch, SimChunk, SimProfile};
pub use trace::{RequestTrace, TraceRing};
