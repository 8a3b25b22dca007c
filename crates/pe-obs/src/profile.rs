//! Simulator profiling hooks: the [`SimProfile`] trait the simulator crate
//! feeds, and [`ProfileRecorder`], the atomic aggregator most consumers
//! install.
//!
//! The simulator cannot know who wants its numbers — a serving metrics
//! shard, a fault-campaign progress printer, a bench harness — so it talks
//! to this trait. Two feed points:
//!
//! * [`SimProfile::on_batch`] — once per bit-sliced `run_batch` call, with
//!   the phase decomposition (drive/eval/readout nanoseconds), sweep count,
//!   cycles, and combinational cell evaluations.
//! * [`SimProfile::on_chunk`] / [`SimProfile::on_campaign_golden`] — once
//!   per PPSFP fault-campaign chunk (cone-scheduled or swept in full,
//!   with the cone/core cell counts) and once for the campaign's golden
//!   run, so a recorder's totals reconcile exactly with the campaign's
//!   exit-summary `ConeStats`.
//!
//! Implementations must be cheap and non-blocking: hooks run on the serving
//! hot path. [`ProfileRecorder`] is all relaxed atomics.

use std::sync::atomic::{AtomicU64, Ordering};

/// One bit-sliced `run_batch` call, decomposed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimBatch {
    /// Requests (vectors) in the batch.
    pub lanes: usize,
    /// Slab width in 64-lane words.
    pub lane_words: usize,
    /// `64 * lane_words`-lane sweeps (chunks) the batch took.
    pub sweeps: u64,
    /// Clock cycles accounted by the batch.
    pub cycles: u64,
    /// Combinational cell evaluations spent.
    pub cell_evals: u64,
    /// Nanoseconds packing inputs into lane slabs.
    pub drive_ns: u64,
    /// Nanoseconds settling/ticking the core (the actual simulation).
    pub eval_ns: u64,
    /// Nanoseconds reading outputs back out and collapsing the carry lane.
    pub readout_ns: u64,
}

/// One PPSFP fault-campaign chunk (`64 * W` pinned sites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SimChunk {
    /// Fault sites pinned in this chunk.
    pub sites: usize,
    /// Whether the chunk was evaluated through its fanout cone (false = a
    /// full sweep).
    pub cone_scheduled: bool,
    /// Combinational cells in the chunk's union cone.
    pub cone_cells: usize,
    /// Combinational cells in the whole scheduled core (a full sweep's cost).
    pub core_cells: usize,
    /// Cell evaluations this chunk actually spent.
    pub cell_evals: u64,
}

/// The hook trait. All methods default to no-ops so implementors opt into
/// the feed points they care about. `Debug` is required so simulators
/// holding a hook stay debuggable.
pub trait SimProfile: Send + Sync + std::fmt::Debug {
    /// Called once per bit-sliced `run_batch` call.
    fn on_batch(&self, batch: &SimBatch) {
        let _ = batch;
    }

    /// Called once per PPSFP campaign chunk.
    fn on_chunk(&self, chunk: &SimChunk) {
        let _ = chunk;
    }

    /// Called once per campaign with the golden (fault-free) run's cell
    /// evaluations, so chunk totals + golden == the campaign's total work.
    fn on_campaign_golden(&self, cell_evals: u64) {
        let _ = cell_evals;
    }
}

/// A hook that ignores everything (the default wiring).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullProfile;

impl SimProfile for NullProfile {}

/// Atomic aggregator of every feed point; share one `Arc<ProfileRecorder>`
/// between any number of simulators (e.g. all batches of one model key) and
/// snapshot it whenever a report is due.
#[derive(Debug, Default)]
pub struct ProfileRecorder {
    batches: AtomicU64,
    lanes: AtomicU64,
    sweeps: AtomicU64,
    cycles: AtomicU64,
    cell_evals: AtomicU64,
    drive_ns: AtomicU64,
    eval_ns: AtomicU64,
    readout_ns: AtomicU64,
    chunks: AtomicU64,
    cone_chunks: AtomicU64,
    fallback_chunks: AtomicU64,
    campaign_cell_evals: AtomicU64,
    campaign_sites: AtomicU64,
}

impl ProfileRecorder {
    /// A recorder at zero.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// A consistent-enough point-in-time copy (relaxed loads; may straddle
    /// an in-flight batch, which is fine for monitoring).
    #[must_use]
    pub fn snapshot(&self) -> ProfileSnapshot {
        ProfileSnapshot {
            batches: self.batches.load(Ordering::Relaxed),
            lanes: self.lanes.load(Ordering::Relaxed),
            sweeps: self.sweeps.load(Ordering::Relaxed),
            cycles: self.cycles.load(Ordering::Relaxed),
            cell_evals: self.cell_evals.load(Ordering::Relaxed),
            drive_ns: self.drive_ns.load(Ordering::Relaxed),
            eval_ns: self.eval_ns.load(Ordering::Relaxed),
            readout_ns: self.readout_ns.load(Ordering::Relaxed),
            chunks: self.chunks.load(Ordering::Relaxed),
            cone_chunks: self.cone_chunks.load(Ordering::Relaxed),
            fallback_chunks: self.fallback_chunks.load(Ordering::Relaxed),
            campaign_cell_evals: self.campaign_cell_evals.load(Ordering::Relaxed),
            campaign_sites: self.campaign_sites.load(Ordering::Relaxed),
        }
    }
}

impl SimProfile for ProfileRecorder {
    fn on_batch(&self, b: &SimBatch) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.lanes.fetch_add(b.lanes as u64, Ordering::Relaxed);
        self.sweeps.fetch_add(b.sweeps, Ordering::Relaxed);
        self.cycles.fetch_add(b.cycles, Ordering::Relaxed);
        self.cell_evals.fetch_add(b.cell_evals, Ordering::Relaxed);
        self.drive_ns.fetch_add(b.drive_ns, Ordering::Relaxed);
        self.eval_ns.fetch_add(b.eval_ns, Ordering::Relaxed);
        self.readout_ns.fetch_add(b.readout_ns, Ordering::Relaxed);
    }

    fn on_chunk(&self, c: &SimChunk) {
        self.chunks.fetch_add(1, Ordering::Relaxed);
        if c.cone_scheduled {
            self.cone_chunks.fetch_add(1, Ordering::Relaxed);
        } else {
            self.fallback_chunks.fetch_add(1, Ordering::Relaxed);
        }
        self.campaign_cell_evals.fetch_add(c.cell_evals, Ordering::Relaxed);
        self.campaign_sites.fetch_add(c.sites as u64, Ordering::Relaxed);
    }

    fn on_campaign_golden(&self, cell_evals: u64) {
        self.campaign_cell_evals.fetch_add(cell_evals, Ordering::Relaxed);
    }
}

/// A plain copy of a [`ProfileRecorder`]'s totals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ProfileSnapshot {
    /// `run_batch` calls observed.
    pub batches: u64,
    /// Requests (vectors) across those batches.
    pub lanes: u64,
    /// Bit-sliced sweeps executed.
    pub sweeps: u64,
    /// Clock cycles accounted.
    pub cycles: u64,
    /// Combinational cell evaluations spent by batches.
    pub cell_evals: u64,
    /// Nanoseconds packing inputs.
    pub drive_ns: u64,
    /// Nanoseconds settling/ticking.
    pub eval_ns: u64,
    /// Nanoseconds reading outputs / collapsing.
    pub readout_ns: u64,
    /// PPSFP campaign chunks observed.
    pub chunks: u64,
    /// Chunks evaluated through their fanout cone.
    pub cone_chunks: u64,
    /// Chunks swept in full instead of through their fanout cone.
    pub fallback_chunks: u64,
    /// Campaign cell evaluations (chunks + golden run).
    pub campaign_cell_evals: u64,
    /// Fault sites across the observed chunks.
    pub campaign_sites: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_aggregates_batches_and_chunks() {
        let r = ProfileRecorder::new();
        r.on_batch(&SimBatch {
            lanes: 300,
            lane_words: 8,
            sweeps: 1,
            cycles: 3000,
            cell_evals: 5000,
            drive_ns: 100,
            eval_ns: 900,
            readout_ns: 50,
        });
        r.on_batch(&SimBatch {
            lanes: 64,
            lane_words: 1,
            sweeps: 1,
            cycles: 640,
            cell_evals: 200,
            drive_ns: 10,
            eval_ns: 90,
            readout_ns: 5,
        });
        r.on_chunk(&SimChunk {
            sites: 512,
            cone_scheduled: true,
            cone_cells: 40,
            core_cells: 400,
            cell_evals: 4000,
        });
        r.on_chunk(&SimChunk {
            sites: 100,
            cone_scheduled: false,
            cone_cells: 390,
            core_cells: 400,
            cell_evals: 40_000,
        });
        r.on_campaign_golden(1234);
        let s = r.snapshot();
        assert_eq!(s.batches, 2);
        assert_eq!(s.lanes, 364);
        assert_eq!(s.cell_evals, 5200);
        assert_eq!(s.drive_ns, 110);
        assert_eq!(s.eval_ns, 990);
        assert_eq!(s.readout_ns, 55);
        assert_eq!(s.chunks, 2);
        assert_eq!(s.cone_chunks, 1);
        assert_eq!(s.fallback_chunks, 1);
        assert_eq!(s.campaign_cell_evals, 44_000 + 1234);
        assert_eq!(s.campaign_sites, 612);
    }

    #[test]
    fn recorder_is_shareable_across_threads() {
        let r = std::sync::Arc::new(ProfileRecorder::new());
        std::thread::scope(|s| {
            for _ in 0..4 {
                let r = std::sync::Arc::clone(&r);
                s.spawn(move || {
                    for _ in 0..250 {
                        r.on_batch(&SimBatch {
                            lanes: 1,
                            lane_words: 1,
                            sweeps: 1,
                            cycles: 1,
                            cell_evals: 1,
                            drive_ns: 1,
                            eval_ns: 1,
                            readout_ns: 1,
                        });
                    }
                });
            }
        });
        assert_eq!(r.snapshot().batches, 1000);
        assert_eq!(r.snapshot().cell_evals, 1000);
    }
}
