//! Lifetime-free **warm** simulators for long-lived serving workers.
//!
//! The serving path's economics problem:
//! [`Simulator::run_batch`](crate::Simulator::run_batch) constructs a fresh
//! [`BitSlicedSimulator`] per call, and a fresh engine starts its
//! event-driven worklist *all-dirty* — the first settle of every batch is a
//! full sweep, so the worklist pays its bookkeeping overhead without ever
//! collecting its savings. That is exactly why event-driven serving *lost*
//! throughput on `pendigits:seq` while winning >70% of cell evaluations in
//! fault campaigns, where one engine lives across the whole campaign.
//!
//! [`WarmSimulator`] is the fix: it owns the slab engine's detached state
//! ([`DetachedSlab`]) across batches and reattaches it to the netlist only
//! for the duration of each [`WarmSimulator::run_batch`] call. Because the
//! struct holds **no netlist borrow**, a worker thread can keep one per
//! model right next to the `Arc` that owns the netlist — the
//! self-referential layout a borrowing `Simulator<'nl>` cannot express
//! without `unsafe` (which the workspace forbids).
//!
//! What carries across batches:
//!
//! * net value and register-state slabs (collapsed to the serial carry),
//! * the event-driven worklist's clean/dirty flags — a repeated or
//!   near-constant request stream re-dirties only the cells downstream of
//!   the inputs that actually changed *since the previous batch*,
//! * toggle counters and cycle/eval accounting (so activity reports span
//!   the worker's whole serving history, like a long-lived dense
//!   [`Simulator`](crate::Simulator)),
//! * forced lanes, if any.
//!
//! # Equivalence contract
//!
//! A warm simulator fed a stream of batches is bit-identical — outputs,
//! carried state, *and* toggle counters — to one long-lived dense
//! [`Simulator`](crate::Simulator) fed the same batches at the same
//! [`LaneWidth`]: the slabs
//! between batches are broadcasts of the carried serial state either way,
//! and the event-driven worklist's exactness invariant (see
//! [`BitSlicedSimulator::set_event_driven`]) makes the skip lossless.
//! Against *fresh-per-batch* simulation the predictions still match for the
//! paper's classifier datapaths (control returns to idle after every
//! inference), but per-batch toggle deltas differ on the entry settle —
//! the warm engine starts each batch from carried state, a fresh engine
//! from power-on reset. `pe-serve`'s warm-state equivalence suite pins both
//! halves of this contract at every width.

use crate::activity::ActivityReport;
use crate::bitslice::{BitSlicedSimulator, DetachedSlab, LaneWidth};
use crate::sim::BatchResult;
use pe_netlist::{CellId, Netlist};
use pe_obs::SimProfile;
use std::sync::Arc;

/// The scalar seed a [`WarmSimulator`] attaches from on its first batch:
/// the owning [`Simulator`](crate::Simulator)'s schedule and settled state,
/// captured by [`Simulator::warm`](crate::Simulator::warm).
#[derive(Debug)]
struct Seed {
    order: Vec<CellId>,
    regs: Vec<CellId>,
    values: Vec<bool>,
    state: Vec<bool>,
    frozen: Vec<bool>,
}

/// The width-monomorphized detached engine (fixed at construction by the
/// seeding simulator's [`LaneWidth`]).
#[derive(Debug)]
enum WarmSlab {
    W1(DetachedSlab<1>),
    W2(DetachedSlab<2>),
    W4(DetachedSlab<4>),
    W8(DetachedSlab<8>),
}

impl WarmSlab {
    fn cycles(&self) -> u64 {
        match self {
            WarmSlab::W1(s) => s.cycles(),
            WarmSlab::W2(s) => s.cycles(),
            WarmSlab::W4(s) => s.cycles(),
            WarmSlab::W8(s) => s.cycles(),
        }
    }

    fn cell_evals(&self) -> u64 {
        match self {
            WarmSlab::W1(s) => s.cell_evals(),
            WarmSlab::W2(s) => s.cell_evals(),
            WarmSlab::W4(s) => s.cell_evals(),
            WarmSlab::W8(s) => s.cell_evals(),
        }
    }

    fn activity(&self) -> ActivityReport {
        match self {
            WarmSlab::W1(s) => s.activity(),
            WarmSlab::W2(s) => s.activity(),
            WarmSlab::W4(s) => s.activity(),
            WarmSlab::W8(s) => s.activity(),
        }
    }
}

/// A bit-sliced batch engine that stays **warm** across
/// [`run_batch`](WarmSimulator::run_batch) calls and holds no netlist
/// borrow. Built by [`Simulator::warm`](crate::Simulator::warm); see the
/// [module docs](self) for what carries over and the equivalence contract.
#[derive(Debug)]
pub struct WarmSimulator {
    /// Consumed by the first attach; `None` once `slab` exists.
    seed: Option<Seed>,
    /// The detached engine between batches; `None` before the first batch.
    slab: Option<WarmSlab>,
    lane_width: LaneWidth,
    event_driven: bool,
    track_activity: bool,
    profile: Option<Arc<dyn SimProfile>>,
    batches: u64,
}

impl WarmSimulator {
    /// Captures the seeding simulator's schedule, settled state and
    /// configuration (called by [`Simulator::warm`](crate::Simulator::warm)).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_scalar_parts(
        order: Vec<CellId>,
        regs: Vec<CellId>,
        values: Vec<bool>,
        state: Vec<bool>,
        frozen: Vec<bool>,
        lane_width: LaneWidth,
        event_driven: bool,
        track_activity: bool,
        profile: Option<Arc<dyn SimProfile>>,
    ) -> Self {
        WarmSimulator {
            seed: Some(Seed { order, regs, values, state, frozen }),
            slab: None,
            lane_width,
            event_driven,
            track_activity,
            profile,
            batches: 0,
        }
    }

    /// Runs one batch with the same contract as
    /// [`Simulator::run_batch`](crate::Simulator::run_batch), carrying the
    /// engine's full state (including event-driven clean/dirty flags) from
    /// the previous call. `nl` must be the netlist the seeding simulator
    /// was built over — the caller keeps it alive next to this struct,
    /// typically inside the same `Arc`ed model entry.
    ///
    /// # Panics
    ///
    /// Panics if `nl` has a different shape than the seeding netlist, or on
    /// unknown ports / out-of-range values like
    /// [`Simulator::run_batch`](crate::Simulator::run_batch).
    pub fn run_batch(
        &mut self,
        nl: &Netlist,
        vectors: &[Vec<i64>],
        cycles_per_vector: u64,
        out_port: &str,
    ) -> BatchResult {
        self.batches += 1;
        macro_rules! run {
            ($W:literal, $variant:ident) => {{
                let mut sim: BitSlicedSimulator<'_, $W> = match self.slab.take() {
                    Some(WarmSlab::$variant(slab)) => BitSlicedSimulator::reattach(nl, slab),
                    Some(_) => unreachable!("slab width is fixed at construction"),
                    None => {
                        let seed = self.seed.take().expect("no slab means the seed is intact");
                        let mut sim = BitSlicedSimulator::<'_, $W>::from_parts(
                            nl,
                            seed.order,
                            seed.regs,
                            &seed.values,
                            &seed.state,
                            &seed.frozen,
                            self.track_activity,
                        );
                        if self.event_driven {
                            sim.set_event_driven(true);
                        }
                        sim
                    }
                };
                let result = sim.run_batch_profiled(
                    vectors,
                    cycles_per_vector,
                    out_port,
                    self.profile.as_deref(),
                );
                self.slab = Some(WarmSlab::$variant(sim.detach()));
                result
            }};
        }
        match self.lane_width {
            LaneWidth::W1 => run!(1, W1),
            LaneWidth::W2 => run!(2, W2),
            LaneWidth::W4 => run!(4, W4),
            LaneWidth::W8 => run!(8, W8),
        }
    }

    /// Installs (or removes) the per-batch observability hook — see
    /// [`Simulator::set_profile`](crate::Simulator::set_profile).
    pub fn set_profile(&mut self, profile: Option<Arc<dyn SimProfile>>) {
        self.profile = profile;
    }

    /// The slab width every batch runs at (fixed at construction).
    #[must_use]
    pub fn lane_width(&self) -> LaneWidth {
        self.lane_width
    }

    /// Whether batches run event-driven (fixed at construction).
    #[must_use]
    pub fn event_driven(&self) -> bool {
        self.event_driven
    }

    /// Batches served since construction.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Clock cycles accounted across every batch so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.slab.as_ref().map_or(0, WarmSlab::cycles)
    }

    /// Combinational cell evaluations across every batch so far. Dividing
    /// by batches served is the headline warm-event-driven payoff metric:
    /// a cold engine pays `scheduled_cells × sweeps` per batch, a warm
    /// event-driven one only re-evaluates what the traffic actually
    /// changed.
    #[must_use]
    pub fn cell_evals(&self) -> u64 {
        self.slab.as_ref().map_or(0, WarmSlab::cell_evals)
    }

    /// Snapshot of the switching activity accumulated across every batch
    /// (the warm counterpart of
    /// [`Simulator::activity`](crate::Simulator::activity)).
    ///
    /// # Panics
    ///
    /// Panics if the seeding simulator did not have activity tracking
    /// enabled.
    #[must_use]
    pub fn activity(&self) -> ActivityReport {
        assert!(
            self.track_activity,
            "activity tracking not enabled; seed from a simulator with enable_activity()"
        );
        match &self.slab {
            Some(slab) => slab.activity(),
            // No batch yet: zero toggles over zero cycles, at the seeding
            // netlist's net count.
            None => ActivityReport::new(
                vec![0; self.seed.as_ref().expect("seed intact before first batch").values.len()],
                0,
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::sim::Simulator;
    use crate::LaneWidth;
    use pe_netlist::{Builder, Netlist};

    /// A small sequential design (`q' = x0 XOR x1` through a register) —
    /// the same shape the engine differential tests use.
    fn toggle_reg() -> Netlist {
        let mut b = Builder::new("tog");
        let x0 = b.input("x0");
        let x1 = b.input("x1");
        let nxt = b.xor2(x0, x1);
        let q = b.dff(nxt, false);
        b.output("q", q);
        b.finish()
    }

    /// A low-activity stream split into several ragged batches: mostly
    /// repeated vectors with occasional changes — the event-driven
    /// worklist's target traffic shape.
    fn low_activity_batches() -> Vec<Vec<Vec<i64>>> {
        let mut batches = Vec::new();
        for (size, period) in [(70usize, 9usize), (64, 64), (3, 1), (130, 17)] {
            batches.push(
                (0..size)
                    .map(|i| {
                        let flip = i64::from(i % period == 0);
                        vec![flip, (i / period) as i64 & 1]
                    })
                    .collect(),
            );
        }
        batches
    }

    #[test]
    fn warm_stream_matches_long_lived_dense_simulator_at_every_width() {
        // The module's equivalence contract: a warm simulator fed a stream
        // of batches is bit-identical — outputs, cycles, toggle counters —
        // to one long-lived dense Simulator fed the same batches, at every
        // width, with the event-driven worklist carrying dirty state across
        // batches on the warm side.
        let nl = toggle_reg();
        for width in [LaneWidth::W1, LaneWidth::W2, LaneWidth::W4, LaneWidth::W8] {
            for events in [false, true] {
                let mut dense = Simulator::new(&nl).unwrap();
                dense.set_lane_width(width);
                dense.enable_activity();
                let mut seed = Simulator::new(&nl).unwrap();
                seed.set_lane_width(width);
                seed.set_event_driven(events);
                seed.enable_activity();
                let mut warm = seed.warm();
                assert_eq!(warm.lane_width(), width);
                assert_eq!(warm.event_driven(), events);
                for (i, batch) in low_activity_batches().iter().enumerate() {
                    let want = dense.run_batch(batch, 2, "q");
                    let got = warm.run_batch(&nl, batch, 2, "q");
                    assert_eq!(got, want, "{width} events={events} batch {i} diverged");
                }
                assert_eq!(warm.batches(), 4);
                assert_eq!(warm.cycles(), dense.cycles(), "{width} events={events}");
                assert_eq!(warm.activity(), dense.activity(), "{width} events={events} toggles");
            }
        }
    }

    #[test]
    fn warm_event_driven_saves_cell_evals_on_repeated_batches() {
        // The economic pin: over a stream of *identical* batches the warm
        // event-driven engine must evaluate strictly fewer cells than the
        // warm dense engine — the first batch sweeps (all-dirty start), the
        // rest ride the carried clean state.
        let nl = toggle_reg();
        let batch: Vec<Vec<i64>> = (0..64).map(|_| vec![1, 0]).collect();
        let mut dense = Simulator::new(&nl).unwrap().warm();
        let mut seed = Simulator::new(&nl).unwrap();
        seed.set_event_driven(true);
        let mut events = seed.warm();
        for _ in 0..8 {
            let want = dense.run_batch(&nl, &batch, 2, "q");
            let got = events.run_batch(&nl, &batch, 2, "q");
            assert_eq!(got, want);
        }
        assert!(
            events.cell_evals() < dense.cell_evals(),
            "warm event-driven must skip work on repeated batches: {} vs {} evals",
            events.cell_evals(),
            dense.cell_evals()
        );
    }

    #[test]
    fn activity_is_empty_before_the_first_batch() {
        let nl = toggle_reg();
        let mut seed = Simulator::new(&nl).unwrap();
        seed.enable_activity();
        let warm = seed.warm();
        assert_eq!(warm.activity().total_toggles(), 0);
        assert_eq!(warm.cycles(), 0);
        assert_eq!(warm.cell_evals(), 0);
        assert_eq!(warm.batches(), 0);
    }

    #[test]
    #[should_panic(expected = "does not fit netlist")]
    fn reattaching_a_different_netlist_panics() {
        let nl = toggle_reg();
        let mut warm = Simulator::new(&nl).unwrap().warm();
        let _ = warm.run_batch(&nl, &[vec![1, 0]], 1, "q");
        let mut b = Builder::new("other");
        let a = b.input("x0");
        b.output("y", a);
        let other = b.finish();
        let _ = warm.run_batch(&other, &[vec![1]], 1, "y");
    }
}
