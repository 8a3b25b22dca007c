//! The levelized two-valued simulator.

use crate::activity::{ActivityReport, ToggleCounters};
use crate::bitslice::{BitSlicedSimulator, LaneWidth};
use pe_netlist::{CellId, CellKind, Netlist, NetlistError, PortDir};
use pe_obs::SimProfile;
use std::collections::HashMap;

/// Which engine executes [`Simulator::run_batch`].
///
/// The bit-sliced engine is the default: it packs up to 64 vectors per
/// machine word and is what every grid run and fault campaign uses. The
/// scalar engine implements the identical batch contract with one `bool` per
/// net and exists as the reference oracle the differential test suite pins
/// the fast path against (`tests/bitslice_differential.rs`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BatchMode {
    /// One vector at a time, one `bool` per net (the reference).
    Scalar,
    /// 64 vectors per `u64` per net (see [`crate::bitslice`]).
    #[default]
    BitSliced,
}

/// A cycle-based simulator over a borrowed [`Netlist`].
///
/// Construction performs the topological scheduling once; every subsequent
/// evaluation is a linear sweep. See the [crate documentation](crate) for the
/// timing model.
#[derive(Debug, Clone)]
pub struct Simulator<'nl> {
    nl: &'nl Netlist,
    /// Settled value of every net.
    values: Vec<bool>,
    /// Topological order of combinational cells.
    order: Vec<CellId>,
    /// All sequential cells.
    regs: Vec<CellId>,
    /// Current state of each register (parallel to `regs`).
    state: Vec<bool>,
    /// Input port name -> bit nets (LSB first).
    input_ports: HashMap<String, Vec<pe_netlist::NetId>>,
    /// Output port name -> bit nets (LSB first).
    output_ports: HashMap<String, Vec<pe_netlist::NetId>>,
    /// Per-net toggle counters (disabled until `enable_activity`).
    toggles: ToggleCounters,
    /// Number of clock cycles accounted so far (ticks + sampled comb cycles).
    cycles: u64,
    /// Scratch buffer for cell input values.
    scratch: Vec<bool>,
    /// Nets pinned by [`Simulator::force_net`]; never updated by evaluation.
    frozen: Vec<bool>,
    /// Engine selection for [`Simulator::run_batch`].
    engine: BatchMode,
    /// Slab width of [`Simulator::run_batch`]: how many vectors one chunk
    /// carries (`64 * W`). Part of the sequential chunked-streaming
    /// contract, so *both* engines honor it — the scalar reference chunks
    /// by the same effective lane count.
    lane_width: LaneWidth,
    /// Observability hook fed once per bit-sliced batch (see
    /// [`Simulator::set_profile`]); `None` skips all phase clocks.
    profile: Option<std::sync::Arc<dyn SimProfile>>,
}

impl<'nl> Simulator<'nl> {
    /// Builds a simulator, scheduling the combinational core.
    ///
    /// Registers power on at their declared init values and the combinational
    /// core is settled once with all primary inputs at 0.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the design's
    /// combinational core is cyclic.
    pub fn new(nl: &'nl Netlist) -> Result<Self, NetlistError> {
        let order = pe_netlist::graph::topo_order(nl)?;
        let regs: Vec<CellId> =
            nl.cells().filter(|(_, c)| c.kind().is_sequential()).map(|(id, _)| id).collect();
        let mut input_ports = HashMap::new();
        let mut output_ports = HashMap::new();
        for p in nl.ports() {
            match p.dir() {
                PortDir::Input => {
                    input_ports.insert(p.name().to_owned(), p.bits().to_vec());
                }
                PortDir::Output => {
                    output_ports.insert(p.name().to_owned(), p.bits().to_vec());
                }
            }
        }
        let mut values = vec![false; nl.num_nets()];
        values[nl.const1().index()] = true;
        let mut sim = Simulator {
            nl,
            values,
            order,
            regs,
            state: Vec::new(),
            input_ports,
            output_ports,
            toggles: ToggleCounters::disabled(),
            cycles: 0,
            scratch: Vec::new(),
            frozen: vec![false; nl.num_nets()],
            engine: BatchMode::default(),
            lane_width: LaneWidth::default(),
            profile: None,
        };
        sim.reset();
        Ok(sim)
    }

    /// Selects which engine executes [`Simulator::run_batch`]. The default
    /// is [`BatchMode::BitSliced`]; tests pin the fast path against
    /// [`BatchMode::Scalar`], the reference implementation.
    pub fn set_batch_mode(&mut self, mode: BatchMode) {
        self.engine = mode;
    }

    /// The currently selected batch engine.
    #[must_use]
    pub fn batch_mode(&self) -> BatchMode {
        self.engine
    }

    /// Selects the chunk size of [`Simulator::run_batch`]: `64 * W` vectors
    /// per chunk (see [`LaneWidth`]). The width is part of the sequential
    /// chunked-streaming contract, so it applies to *both* engines — the
    /// scalar reference chunks by the same effective lane count, keeping
    /// scalar/bit-sliced bit-identity at every width. It is a cap on the
    /// slab, not a forced slab: a batch that fits one chunk sweeps at the
    /// narrowest width holding it ([`LaneWidth::for_batch`]). The default is
    /// [`LaneWidth::W1`] (the original 64-lane engine).
    pub fn set_lane_width(&mut self, width: LaneWidth) {
        self.lane_width = width;
    }

    /// The currently selected slab width.
    #[must_use]
    pub fn lane_width(&self) -> LaneWidth {
        self.lane_width
    }

    /// Installs an observability hook fed once per bit-sliced batch with the
    /// phase decomposition (drive/eval/readout nanoseconds), sweep count,
    /// cycles and cell-evaluation count — see
    /// [`pe_obs::SimProfile::on_batch`]. `None` (the default) removes the
    /// hook and with it every phase clock read, so the unprofiled hot path
    /// is byte-identical to before. The scalar reference engine is never
    /// profiled: it exists as a correctness oracle, not a production path.
    pub fn set_profile(&mut self, profile: Option<std::sync::Arc<dyn SimProfile>>) {
        self.profile = profile;
    }

    /// Enables per-net toggle counting (and clears any previous counts).
    pub fn enable_activity(&mut self) {
        self.toggles = ToggleCounters::enabled(self.nl.num_nets());
        self.cycles = 0;
    }

    /// Resets registers to their power-on values and settles the
    /// combinational core. Toggle counters are not cleared. Nets pinned by
    /// [`Simulator::force_net`] stay pinned: a forced register keeps its
    /// forced state across the reset.
    pub fn reset(&mut self) {
        self.state = self
            .regs
            .iter()
            .map(|&r| {
                let out = self.nl.cell(r).output().index();
                if self.frozen[out] {
                    self.values[out]
                } else {
                    self.nl.cell(r).init()
                }
            })
            .collect();
        for (i, &r) in self.regs.iter().enumerate() {
            let out = self.nl.cell(r).output().index();
            if !self.frozen[out] {
                self.values[out] = self.state[i];
            }
        }
        self.eval_comb();
    }

    /// Current register states, in the simulator's internal register order
    /// (stable for a given netlist). The differential suite uses this to
    /// assert that both batch engines carry identical sequential state
    /// across chunks.
    #[must_use]
    pub fn register_state(&self) -> Vec<bool> {
        self.state.clone()
    }

    /// Drives an input port with an integer (two's complement, LSB first).
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or `value` does not fit the port
    /// width (signed or unsigned interpretation both accepted).
    pub fn set_input(&mut self, port: &str, value: i64) {
        let bits = self
            .input_ports
            .get(port)
            .unwrap_or_else(|| panic!("no input port named {port:?}"))
            .clone();
        let w = bits.len() as u32;
        assert!(w <= 63, "port {port} too wide");
        let min = -(1i64 << (w - 1));
        let max = (1i64 << w) - 1;
        assert!(value >= min && value <= max, "value {value} does not fit {w}-bit port {port}");
        for (i, &b) in bits.iter().enumerate() {
            self.values[b.index()] = (value >> i) & 1 == 1;
        }
    }

    /// Pins a net to a constant value: evaluation and clocking will never
    /// change it until [`Simulator::release_net`] is called. This is the
    /// mechanism behind stuck-at fault injection ([`crate::faults`]) and is
    /// also handy for interactive debugging.
    pub fn force_net(&mut self, net: pe_netlist::NetId, value: bool) {
        self.frozen[net.index()] = true;
        self.values[net.index()] = value;
        // Keep register state consistent with a forced register output.
        for (i, &r) in self.regs.iter().enumerate() {
            if self.nl.cell(r).output() == net {
                self.state[i] = value;
            }
        }
    }

    /// Releases a pinned net (its next evaluation recomputes it normally).
    /// A released *register* output is restored to its power-on init value —
    /// not left at the stale forced value — so a post-campaign batch on a
    /// sequential design starts from sane state; combinational nets need no
    /// restore because the next settle recomputes them.
    pub fn release_net(&mut self, net: pe_netlist::NetId) {
        if !self.frozen[net.index()] {
            return;
        }
        self.frozen[net.index()] = false;
        for (i, &r) in self.regs.iter().enumerate() {
            if self.nl.cell(r).output() == net {
                self.state[i] = self.nl.cell(r).init();
                self.values[net.index()] = self.state[i];
            }
        }
    }

    /// Settles the combinational core with current inputs and register
    /// outputs. Accumulates toggle counts if activity tracking is enabled.
    pub fn eval_comb(&mut self) {
        let track = self.toggles.is_enabled();
        for idx in 0..self.order.len() {
            let cell_id = self.order[idx];
            let cell = self.nl.cell(cell_id);
            let out = cell.output().index();
            if self.frozen[out] {
                continue;
            }
            self.scratch.clear();
            for &inp in cell.inputs() {
                self.scratch.push(self.values[inp.index()]);
            }
            let new = cell.kind().eval(&self.scratch);
            if self.values[out] != new {
                if track {
                    self.toggles.bump(out);
                }
                self.values[out] = new;
            }
        }
    }

    /// One clock cycle: settle, capture register next-states, update
    /// registers, settle again. Increments the cycle counter.
    pub fn tick(&mut self) {
        self.eval_comb();
        let track = self.toggles.is_enabled();
        // Capture next states from settled values.
        let mut next = Vec::with_capacity(self.regs.len());
        for (i, &r) in self.regs.iter().enumerate() {
            let cell = self.nl.cell(r);
            self.scratch.clear();
            for &inp in cell.inputs() {
                self.scratch.push(self.values[inp.index()]);
            }
            next.push(cell.kind().next_state(&self.scratch, self.state[i]));
        }
        // Apply.
        for (i, &r) in self.regs.iter().enumerate() {
            let out = self.nl.cell(r).output().index();
            if self.frozen[out] {
                continue;
            }
            if self.values[out] != next[i] {
                if track {
                    self.toggles.bump(out);
                }
                self.values[out] = next[i];
            }
            self.state[i] = next[i];
        }
        self.eval_comb();
        self.cycles += 1;
    }

    /// Accounts one clock cycle for a purely combinational design: settles
    /// the core and increments the cycle counter. Use after driving a new
    /// input vector on a single-cycle (unregistered) datapath.
    pub fn sample_comb(&mut self) {
        self.eval_comb();
        self.cycles += 1;
    }

    /// Current value of a net.
    #[must_use]
    pub fn net_value(&self, net: pe_netlist::NetId) -> bool {
        self.values[net.index()]
    }

    /// Reads an output port as an unsigned integer.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or is wider than 63 bits.
    #[must_use]
    pub fn output_unsigned(&self, port: &str) -> i64 {
        let bits =
            self.output_ports.get(port).unwrap_or_else(|| panic!("no output port named {port:?}"));
        assert!(bits.len() <= 63, "port {port} too wide");
        let mut v = 0i64;
        for (i, &b) in bits.iter().enumerate() {
            if self.values[b.index()] {
                v |= 1i64 << i;
            }
        }
        v
    }

    /// Reads an output port as a signed (two's complement) integer.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or is wider than 63 bits.
    #[must_use]
    pub fn output_signed(&self, port: &str) -> i64 {
        let bits =
            self.output_ports.get(port).unwrap_or_else(|| panic!("no output port named {port:?}"));
        let w = bits.len();
        let mut v = self.output_unsigned(port);
        if w > 0 && self.values[bits[w - 1].index()] {
            v -= 1i64 << w;
        }
        v
    }

    /// Number of clock cycles accounted so far.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Drives a whole batch of input vectors through the design and records
    /// the value of `out_port` after each one — verification plus activity
    /// extraction in a single call instead of a caller-side loop.
    ///
    /// Element `j` of each vector drives input port `x{j}` (the naming
    /// convention of every generated classifier datapath). For a sequential
    /// design pass the design's cycles-per-inference as `cycles_per_vector`;
    /// pass 0 for a purely combinational datapath (the vector is settled and
    /// accounted as one cycle, like [`Simulator::sample_comb`]).
    ///
    /// # Batch semantics
    ///
    /// Combinational batches behave exactly like a caller-side serial loop
    /// (each vector's settled values toggle against the previous vector's),
    /// at every configured [`LaneWidth`]. Sequential batches use **chunked
    /// streaming**: vectors are processed in chunks of `64 * W` (the
    /// configured [`LaneWidth`], default 64), every vector in a chunk starts
    /// from the register state and net values carried into the chunk, and
    /// the last vector's state carries into the next chunk. For the generated classifier
    /// datapaths — whose control returns to its idle state after every
    /// inference — the recorded outputs are identical to fully-serial
    /// back-to-back classification; for a design whose state genuinely
    /// accumulates across vectors, drive it with the serial
    /// [`Simulator::set_input`]/[`Simulator::tick`] API instead of a batch.
    /// Both [`BatchMode`] engines implement
    /// this contract bit-identically (outputs, per-net toggles, carried
    /// state); the bit-sliced engine evaluates the lanes of a chunk in
    /// parallel, one bitwise op per gate, on the narrowest slab that holds
    /// the chunk ([`LaneWidth::for_batch`]; see [`crate::bitslice`]).
    ///
    /// # Panics
    ///
    /// Panics on unknown ports or out-of-range values, like
    /// [`Simulator::set_input`].
    pub fn run_batch(
        &mut self,
        vectors: &[Vec<i64>],
        cycles_per_vector: u64,
        out_port: &str,
    ) -> BatchResult {
        match self.engine {
            BatchMode::Scalar => self.run_batch_scalar(vectors, cycles_per_vector, out_port),
            BatchMode::BitSliced => self.run_batch_sliced(vectors, cycles_per_vector, out_port),
        }
    }

    /// The reference implementation of the [`Simulator::run_batch`]
    /// contract: plain `bool` evaluation, one vector at a time.
    fn run_batch_scalar(
        &mut self,
        vectors: &[Vec<i64>],
        cycles_per_vector: u64,
        out_port: &str,
    ) -> BatchResult {
        let mut outputs = Vec::with_capacity(vectors.len());
        let start_cycles = self.cycles;
        if cycles_per_vector == 0 {
            for x in vectors {
                for (j, &v) in x.iter().enumerate() {
                    self.set_input(&format!("x{j}"), v);
                }
                self.sample_comb();
                outputs.push(self.output_unsigned(out_port));
            }
        } else {
            for chunk in vectors.chunks(self.lane_width.lanes()) {
                // Chunked streaming: every vector in the chunk starts from
                // the chunk-entry snapshot; the last vector's state carries.
                let entry_values = self.values.clone();
                let entry_state = self.state.clone();
                for (l, x) in chunk.iter().enumerate() {
                    if l > 0 {
                        self.values.copy_from_slice(&entry_values);
                        self.state.copy_from_slice(&entry_state);
                    }
                    for (j, &v) in x.iter().enumerate() {
                        self.set_input(&format!("x{j}"), v);
                    }
                    for _ in 0..cycles_per_vector {
                        self.tick();
                    }
                    outputs.push(self.output_unsigned(out_port));
                }
            }
        }
        BatchResult { outputs, cycles: self.cycles - start_cycles }
    }

    /// The fast path of [`Simulator::run_batch`]: seeds a
    /// [`BitSlicedSimulator`] with the current values/state (reusing this
    /// simulator's schedule), runs the batch `64 * W` lanes at a time, and
    /// folds the carried state, toggle counts and cycles back in. The
    /// monomorphized slab engine that runs is the narrowest that keeps the
    /// configured [`LaneWidth`]'s chunking ([`LaneWidth::for_batch`]).
    fn run_batch_sliced(
        &mut self,
        vectors: &[Vec<i64>],
        cycles_per_vector: u64,
        out_port: &str,
    ) -> BatchResult {
        match LaneWidth::for_batch(vectors.len(), self.lane_width) {
            LaneWidth::W1 => self.run_batch_sliced_w::<1>(vectors, cycles_per_vector, out_port),
            LaneWidth::W2 => self.run_batch_sliced_w::<2>(vectors, cycles_per_vector, out_port),
            LaneWidth::W4 => self.run_batch_sliced_w::<4>(vectors, cycles_per_vector, out_port),
            LaneWidth::W8 => self.run_batch_sliced_w::<8>(vectors, cycles_per_vector, out_port),
        }
    }

    /// The width-monomorphized body of [`Simulator::run_batch_sliced`].
    fn run_batch_sliced_w<const W: usize>(
        &mut self,
        vectors: &[Vec<i64>],
        cycles_per_vector: u64,
        out_port: &str,
    ) -> BatchResult {
        let track = self.toggles.is_enabled();
        let mut sliced = BitSlicedSimulator::<'_, W>::from_parts(
            self.nl,
            self.order.clone(),
            self.regs.clone(),
            &self.values,
            &self.state,
            &self.frozen,
            track,
        );
        let result = sliced.run_batch_profiled(
            vectors,
            cycles_per_vector,
            out_port,
            self.profile.as_deref(),
        );
        sliced.carry_into(&mut self.values, &mut self.state);
        if track {
            self.toggles.merge(sliced.toggle_counters());
        }
        self.cycles += result.cycles;
        result
    }

    /// Snapshot of the accumulated switching activity.
    ///
    /// # Panics
    ///
    /// Panics if activity tracking was never enabled.
    #[must_use]
    pub fn activity(&self) -> ActivityReport {
        assert!(
            self.toggles.is_enabled(),
            "activity tracking not enabled; call enable_activity() first"
        );
        self.toggles.report(self.cycles)
    }
}

/// Result of a [`Simulator::run_batch`] call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchResult {
    /// Value of the observed output port after each input vector, in input
    /// order.
    pub outputs: Vec<i64>,
    /// Clock cycles accounted by this batch.
    pub cycles: u64,
}

/// Checks that a netlist contains no sequential cells (useful before
/// single-pass combinational evaluation).
#[must_use]
pub(crate) fn is_combinational(nl: &Netlist) -> bool {
    !nl.cells().any(|(_, c)| matches!(c.kind(), CellKind::Dff | CellKind::DffE))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_netlist::Builder;

    fn full_adder() -> Netlist {
        let mut b = Builder::new("fa");
        let a = b.input("a");
        let x = b.input("b");
        let cin = b.input("cin");
        let s1 = b.xor2(a, x);
        let sum = b.xor2(s1, cin);
        let carry = b.maj3(a, x, cin);
        b.output("sum", sum);
        b.output("carry", carry);
        b.finish()
    }

    #[test]
    fn full_adder_truth_table() {
        let nl = full_adder();
        let mut sim = Simulator::new(&nl).unwrap();
        for a in 0..2 {
            for x in 0..2 {
                for c in 0..2 {
                    sim.set_input("a", a);
                    sim.set_input("b", x);
                    sim.set_input("cin", c);
                    sim.eval_comb();
                    let total = a + x + c;
                    assert_eq!(sim.output_unsigned("sum"), total & 1);
                    assert_eq!(sim.output_unsigned("carry"), total >> 1);
                }
            }
        }
    }

    #[test]
    fn counter_sequences() {
        // 2-bit counter: q0' = !q0 ; q1' = q1 ^ q0.
        let mut b = Builder::new("count2");
        let seed = b.input("unused");
        let _ = seed;
        // Create feedback: build dffs with placeholder inputs is not possible
        // in a pure builder, so express the counter algebraically:
        // q0 = dff(!q0) requires a cycle through the register, which is legal.
        // The builder cannot reference a net before creating it, so build via
        // two passes: first the registers on dummy nets is impossible; instead
        // we exploit DffE: hold register feeding itself. For the test we use
        // a simpler structure: a toggle register from an inverter loop.
        let mut b = Builder::new("toggle");
        let q_feedback = b.input("qf"); // stand-in driven externally
        let q = b.dff(q_feedback, false);
        b.output("q", q);
        let nl = b.finish();
        let mut sim = Simulator::new(&nl).unwrap();
        // Manually close the loop: drive qf with !q each cycle.
        let mut expected = false;
        for _ in 0..8 {
            let q_now = sim.output_unsigned("q") == 1;
            assert_eq!(q_now, expected);
            sim.set_input("qf", i64::from(!q_now));
            sim.tick();
            expected = !expected;
        }
    }

    #[test]
    fn registers_power_on_at_init() {
        let mut b = Builder::new("init");
        let d = b.input("d");
        let q1 = b.dff(d, true);
        let q0 = b.dff(d, false);
        b.output("q1", q1);
        b.output("q0", q0);
        let nl = b.finish();
        let sim = Simulator::new(&nl).unwrap();
        assert_eq!(sim.output_unsigned("q1"), 1);
        assert_eq!(sim.output_unsigned("q0"), 0);
    }

    #[test]
    fn dffe_holds_without_enable() {
        let mut b = Builder::new("hold");
        let d = b.input("d");
        let en = b.input("en");
        let q = b.dffe(d, en, false);
        b.output("q", q);
        let nl = b.finish();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("d", 1);
        sim.set_input("en", 0);
        sim.tick();
        assert_eq!(sim.output_unsigned("q"), 0, "disabled register must hold");
        sim.set_input("en", 1);
        sim.tick();
        assert_eq!(sim.output_unsigned("q"), 1, "enabled register must load");
    }

    #[test]
    fn signed_output_reads() {
        let mut b = Builder::new("neg");
        let xs = b.input_bus("x", 4);
        b.output_bus("y", &xs);
        let nl = b.finish();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("x", -3);
        sim.eval_comb();
        assert_eq!(sim.output_signed("y"), -3);
        assert_eq!(sim.output_unsigned("y"), 13);
    }

    #[test]
    fn activity_counts_toggles() {
        let nl = full_adder();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.enable_activity();
        sim.set_input("a", 1);
        sim.set_input("b", 1);
        sim.set_input("cin", 0);
        sim.sample_comb();
        sim.set_input("a", 0);
        sim.sample_comb();
        let act = sim.activity();
        assert_eq!(act.cycles(), 2);
        assert!(act.total_toggles() > 0);
    }

    #[test]
    fn reset_restores_state() {
        let mut b = Builder::new("r");
        let d = b.input("d");
        let q = b.dff(d, false);
        b.output("q", q);
        let nl = b.finish();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("d", 1);
        sim.tick();
        assert_eq!(sim.output_unsigned("q"), 1);
        sim.reset();
        assert_eq!(sim.output_unsigned("q"), 0);
    }

    #[test]
    fn run_batch_matches_manual_loop() {
        // Combinational: batch over the full-adder (renamed x-ports).
        let mut b = Builder::new("fa");
        let a = b.input("x0");
        let x = b.input("x1");
        let cin = b.input("x2");
        let s1 = b.xor2(a, x);
        let sum = b.xor2(s1, cin);
        b.output("sum", sum);
        let nl = b.finish();
        let vectors: Vec<Vec<i64>> =
            (0..8).map(|v| (0..3).map(|i| (v >> i) & 1).collect()).collect();

        let mut manual = Simulator::new(&nl).unwrap();
        manual.enable_activity();
        let mut expected = Vec::new();
        for x in &vectors {
            for (j, &v) in x.iter().enumerate() {
                manual.set_input(&format!("x{j}"), v);
            }
            manual.sample_comb();
            expected.push(manual.output_unsigned("sum"));
        }

        let mut batched = Simulator::new(&nl).unwrap();
        batched.enable_activity();
        let r = batched.run_batch(&vectors, 0, "sum");
        assert_eq!(r.outputs, expected);
        assert_eq!(r.cycles, 8);
        assert_eq!(batched.activity().total_toggles(), manual.activity().total_toggles());
    }

    #[test]
    fn run_batch_sequential_carries_state() {
        // q' = x0 XOR x1 through a register; both engines must agree on the
        // outputs, the cycle count, and the register state carried out of
        // the batch.
        let mut b = Builder::new("tog");
        let x0 = b.input("x0");
        let fb = b.input("x1");
        let nxt = b.xor2(x0, fb);
        let q = b.dff(nxt, false);
        b.output("q", q);
        let nl = b.finish();
        let vectors = vec![vec![1, 0], vec![1, 1], vec![0, 0]];
        let mut sim = Simulator::new(&nl).unwrap();
        let r = sim.run_batch(&vectors, 1, "q");
        assert_eq!(r.cycles, 3);
        assert_eq!(r.outputs, vec![1, 0, 0]);

        let mut reference = Simulator::new(&nl).unwrap();
        reference.set_batch_mode(BatchMode::Scalar);
        let want = reference.run_batch(&vectors, 1, "q");
        assert_eq!(r, want);
        assert_eq!(sim.register_state(), reference.register_state());
        assert_eq!(sim.register_state(), vec![false], "last vector leaves q = 0");
    }

    #[test]
    fn wide_lane_width_keeps_both_engines_in_lockstep() {
        // Sequential design, batch longer than one 64-lane word: at W=4 both
        // engines chunk by 256 and must stay bit-identical on outputs,
        // cycles, toggles and carried state.
        let mut b = Builder::new("tog");
        let x0 = b.input("x0");
        let fb = b.input("x1");
        let nxt = b.xor2(x0, fb);
        let q = b.dff(nxt, false);
        b.output("q", q);
        let nl = b.finish();
        let vectors: Vec<Vec<i64>> = (0..300).map(|v| vec![v & 1, (v >> 1) & 1]).collect();
        let mut fast = Simulator::new(&nl).unwrap();
        fast.set_lane_width(LaneWidth::W4);
        fast.enable_activity();
        let got = fast.run_batch(&vectors, 2, "q");
        let mut reference = Simulator::new(&nl).unwrap();
        reference.set_batch_mode(BatchMode::Scalar);
        reference.set_lane_width(LaneWidth::W4);
        reference.enable_activity();
        let want = reference.run_batch(&vectors, 2, "q");
        assert_eq!(got, want);
        assert_eq!(fast.activity(), reference.activity());
        assert_eq!(fast.register_state(), reference.register_state());
        assert_eq!(fast.lane_width(), LaneWidth::W4);
    }

    #[test]
    #[should_panic(expected = "no input port")]
    fn unknown_port_panics() {
        let nl = full_adder();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("nope", 0);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_value_panics() {
        let nl = full_adder();
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_input("a", 5);
    }

    #[test]
    fn helpers() {
        let nl = full_adder();
        assert!(is_combinational(&nl));
        let mut b = Builder::new("r");
        let d = b.input("d");
        let q = b.dff(d, false);
        b.output("q", q);
        assert!(!is_combinational(&b.finish()));
    }
}
