//! Lifetime-free **warm** simulators for long-lived serving workers.
//!
//! [`Simulator::run_batch`](crate::Simulator::run_batch) constructs a fresh
//! [`BitSlicedSimulator`] per call: it compiles the sweep program, allocates
//! every slab and broadcasts the scalar carry into it, then copies the carry
//! back out when the batch ends. A serving worker that answers batch after
//! batch of the same model pays that setup every time.
//!
//! [`WarmSimulator`] keeps the slab engine instead. [`WarmSimulator::new`]
//! builds it straight from the netlist — registers at their init values,
//! the core settled with every input at 0, the same power-on as
//! [`Simulator::new`](crate::Simulator::new) — and detaches it at once. It
//! owns the engine's detached state (the crate-private `DetachedSlab`)
//! across batches and reattaches it to the netlist only for the duration of
//! each [`WarmSimulator::run_batch`] call. Because the struct holds **no
//! netlist borrow**, a worker thread can keep one per model right next to
//! the `Arc` that owns the netlist — the self-referential layout a
//! borrowing `Simulator<'nl>` cannot express without `unsafe` (which the
//! workspace forbids).
//!
//! What carries across batches:
//!
//! * net value and register-state slabs (collapsed to the serial carry),
//! * the compiled sweep program and net → op map,
//! * toggle counters and cycle/eval accounting (so activity reports span
//!   the worker's whole serving history, like a long-lived dense
//!   [`Simulator`](crate::Simulator)).
//!
//! # Slab width per batch
//!
//! The [`LaneWidth`] given to [`WarmSimulator::new`] is the chunk size (the
//! cap). Each batch sweeps at [`LaneWidth::for_batch`] — the narrowest slab
//! that holds one chunk — so a 64-request batch under a W8 cap evaluates 64
//! lanes, not 512. When that width differs from the previous batch's, the
//! detached state is re-packed at the new width: exact, because between
//! batches every slab is a broadcast of the carried serial value. Chunk
//! boundaries never move (a batch that fits one cap chunk is one chunk at
//! either width), so nothing below depends on the swept width.
//!
//! # Equivalence contract
//!
//! A warm simulator fed a stream of batches is bit-identical — outputs,
//! carried state, *and* toggle counters — to one long-lived dense
//! [`Simulator`](crate::Simulator) fed the same batches at the same
//! configured [`LaneWidth`]: both start from the same power-on state, the
//! slabs between batches are broadcasts of the carried serial state either
//! way, and both sweep every cell densely. Against *fresh-per-batch*
//! simulation the predictions still match for the paper's classifier
//! datapaths (control returns to idle after every inference), but
//! per-batch toggle deltas differ on the entry settle — the warm engine
//! starts each batch from carried state, a fresh engine from power-on
//! reset. `pe-serve`'s warm-state equivalence suite pins both
//! halves of this contract at every width.

use crate::activity::ActivityReport;
use crate::bitslice::{BitSlicedSimulator, DetachedSlab, LaneWidth};
use crate::sim::BatchResult;
use pe_netlist::{Netlist, NetlistError};
use pe_obs::SimProfile;
use std::sync::Arc;

/// Why the slab can be missing: only a batch that panicked mid-sweep
/// leaves it taken.
const TAKEN: &str = "a previous batch panicked mid-sweep";

/// The width-monomorphized detached engine, at the width of the most
/// recent batch ([`LaneWidth::for_batch`] under the configured cap).
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

    fn enable_activity(&mut self) {
        match self {
            WarmSlab::W1(s) => s.enable_activity(),
            WarmSlab::W2(s) => s.enable_activity(),
            WarmSlab::W4(s) => s.enable_activity(),
            WarmSlab::W8(s) => s.enable_activity(),
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

    fn rewidth<const V: usize>(self) -> DetachedSlab<V> {
        match self {
            WarmSlab::W1(s) => s.rewidth(),
            WarmSlab::W2(s) => s.rewidth(),
            WarmSlab::W4(s) => s.rewidth(),
            WarmSlab::W8(s) => s.rewidth(),
        }
    }
}

/// A bit-sliced batch engine that stays **warm** across
/// [`run_batch`](WarmSimulator::run_batch) calls and holds no netlist
/// borrow. Built by [`WarmSimulator::new`]; see the [module docs](self) for
/// what carries over and the equivalence contract.
#[derive(Debug)]
pub struct WarmSimulator {
    /// The detached engine, at the width of the most recent batch. Taken
    /// only while a batch runs.
    slab: Option<WarmSlab>,
    lane_width: LaneWidth,
    profile: Option<Arc<dyn SimProfile>>,
    batches: u64,
}

impl WarmSimulator {
    /// Builds the engine over `nl` at power-on, exactly like
    /// [`Simulator::new`](crate::Simulator::new): registers at their init
    /// values and the combinational core settled with every input at 0.
    /// `lane_width` is the configured width (the chunk size and the widest
    /// slab a batch sweeps at). Activity tracking starts off
    /// ([`WarmSimulator::enable_activity`]), and no profile hook is
    /// installed ([`WarmSimulator::set_profile`]).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the design's
    /// combinational core is cyclic.
    pub fn new(nl: &Netlist, lane_width: LaneWidth) -> Result<Self, NetlistError> {
        let slab = BitSlicedSimulator::<1>::new(nl)?.detach();
        Ok(WarmSimulator { slab: Some(WarmSlab::W1(slab)), lane_width, profile: None, batches: 0 })
    }

    /// Enables per-net toggle counting and clears the cycle count, like
    /// [`Simulator::enable_activity`](crate::Simulator::enable_activity).
    pub fn enable_activity(&mut self) {
        self.slab_mut().enable_activity();
    }

    /// Runs one batch with the same contract as
    /// [`Simulator::run_batch`](crate::Simulator::run_batch), carrying the
    /// engine's full state from the previous call. `nl` must be the netlist
    /// this engine was built over — the caller keeps it alive next to this
    /// struct, typically inside the same `Arc`ed model entry.
    ///
    /// # Panics
    ///
    /// Panics if `nl` has a different shape than the netlist this engine was
    /// built over, or on unknown ports / out-of-range values like
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
                let mut sim: BitSlicedSimulator<'_, $W> = match self.slab.take().expect(TAKEN) {
                    WarmSlab::$variant(slab) => BitSlicedSimulator::reattach(nl, slab),
                    other => BitSlicedSimulator::reattach(nl, other.rewidth()),
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
        match LaneWidth::for_batch(vectors.len(), self.lane_width) {
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

    /// The configured width (fixed at construction): the chunk size and the
    /// widest slab a batch runs at. Each batch sweeps at
    /// [`LaneWidth::for_batch`] of its size under this cap.
    #[must_use]
    pub fn lane_width(&self) -> LaneWidth {
        self.lane_width
    }

    /// Batches served since construction.
    #[must_use]
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Clock cycles accounted across every batch so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.slab().cycles()
    }

    /// Combinational cell evaluations since construction (`scheduled_cells`
    /// per settle pass), the power-on settle included — like
    /// [`BitSlicedSimulator::cell_evals`].
    #[must_use]
    pub fn cell_evals(&self) -> u64 {
        self.slab().cell_evals()
    }

    /// Snapshot of the switching activity accumulated across every batch
    /// (the warm counterpart of
    /// [`Simulator::activity`](crate::Simulator::activity)).
    ///
    /// # Panics
    ///
    /// Panics if activity tracking was never enabled.
    #[must_use]
    pub fn activity(&self) -> ActivityReport {
        self.slab().activity()
    }

    fn slab(&self) -> &WarmSlab {
        self.slab.as_ref().expect(TAKEN)
    }

    fn slab_mut(&mut self) -> &mut WarmSlab {
        self.slab.as_mut().expect(TAKEN)
    }
}

#[cfg(test)]
mod tests {
    use super::WarmSimulator;
    use crate::sim::Simulator;
    use crate::LaneWidth;
    use pe_netlist::{Builder, Netlist, NetlistError};

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
    /// repeated vectors with occasional changes.
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
        // width.
        let nl = toggle_reg();
        for width in [LaneWidth::W1, LaneWidth::W2, LaneWidth::W4, LaneWidth::W8] {
            let mut dense = Simulator::new(&nl).unwrap();
            dense.set_lane_width(width);
            dense.enable_activity();
            let mut warm = WarmSimulator::new(&nl, width).unwrap();
            warm.enable_activity();
            assert_eq!(warm.lane_width(), width);
            for (i, batch) in low_activity_batches().iter().enumerate() {
                let want = dense.run_batch(batch, 2, "q");
                let got = warm.run_batch(&nl, batch, 2, "q");
                assert_eq!(got, want, "{width} batch {i} diverged");
            }
            assert_eq!(warm.batches(), 4);
            assert_eq!(warm.cycles(), dense.cycles(), "{width}");
            assert_eq!(warm.activity(), dense.activity(), "{width} toggles");
        }
    }

    #[test]
    fn activity_is_empty_before_the_first_batch() {
        let nl = toggle_reg();
        let mut warm = WarmSimulator::new(&nl, LaneWidth::W1).unwrap();
        warm.enable_activity();
        assert_eq!(warm.activity().total_toggles(), 0);
        assert_eq!(warm.activity().num_nets(), nl.num_nets());
        assert_eq!(warm.cycles(), 0);
        assert_eq!(warm.cell_evals(), 1, "the power-on settle of the one XOR");
        assert_eq!(warm.batches(), 0);
    }

    #[test]
    fn a_cyclic_netlist_is_refused() {
        use pe_netlist::testing::RawNetlistBuilder;
        use pe_netlist::{CellKind, Driver};
        let mut rb = RawNetlistBuilder::new("cyclic");
        let x = rb.input("x0");
        let n1 = rb.net(Driver::Input);
        let n2 = rb.net(Driver::Input);
        rb.cell(CellKind::And2, &[x, n2], n1);
        rb.cell(CellKind::Or2, &[n1, x], n2);
        rb.output("o0", &[n2]);
        let err = WarmSimulator::new(&rb.finish(), LaneWidth::W1).unwrap_err();
        assert!(matches!(err, NetlistError::CombinationalCycle(_)), "{err}");
    }

    #[test]
    #[should_panic(expected = "does not fit netlist")]
    fn reattaching_a_different_netlist_panics() {
        let nl = toggle_reg();
        let mut warm = WarmSimulator::new(&nl, LaneWidth::W1).unwrap();
        let _ = warm.run_batch(&nl, &[vec![1, 0]], 1, "q");
        let mut b = Builder::new("other");
        let a = b.input("x0");
        b.output("y", a);
        let other = b.finish();
        let _ = warm.run_batch(&other, &[vec![1]], 1, "y");
    }
}
