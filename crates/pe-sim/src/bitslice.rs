//! Word-parallel bit-sliced simulation: up to 512 test vectors per sweep.
//!
//! The scalar [`Simulator`](crate::Simulator) stores one `bool` per net and
//! walks the netlist once per test vector — the single hottest loop behind
//! every Table-I grid run and fault campaign. [`BitSlicedSimulator`] packs
//! test vectors into a **slab** of `W` machine words (`[u64; W]`, the const
//! generic `W` one of 1/2/4/8) per net, so a topological sweep evaluates
//! every gate for `64 * W` vectors at once with `W` bitwise operations per
//! cell ([`pe_netlist::CellKind::eval_packed_wide`]). The slabs are stored
//! structure-of-arrays: each net owns `W` contiguous words, so a cell eval
//! touches whole cache lines (a `[u64; 8]` slab is exactly one 64-byte
//! line). `W = 1` compiles to exactly the original one-word engine; the
//! runtime knob picking among the monomorphized widths is [`LaneWidth`].
//!
//! # Sweep program
//!
//! Construction compiles the levelized schedule into a flat program of
//! 20-byte ops (cell kind, output net, three input nets, a *pinned* bit),
//! combinational cells in topological order and then the registers. Every
//! sweep — dense settles, cone passes over a chunk's filtered sub-program,
//! and register updates — runs one per-op step over it, so no sweep chases
//! cell ids into the netlist, and only ops whose output has pinned lanes
//! read the forced-value slabs.
//!
//! # Lane layout
//!
//! Bit `l` of word `i` of every slab belongs to **lane** `64*i + l`, which
//! simulates vector `64*i + l` of the current chunk. A batch of `N` vectors
//! is processed as `ceil(N / (64*W))` chunks; the final chunk may be
//! *ragged* (fewer than `64*W` active lanes) and is handled with a **lane
//! mask** — a slab with one bit set per active lane.
//! Values in masked-off lanes are garbage and are never allowed to escape:
//! activity accounting ANDs every XOR-difference with the mask before
//! popcounting, outputs are extracted per active lane only, and the
//! chunk-exit carry reads exactly the last active lane.
//!
//! # Batch semantics (shared with the scalar engine)
//!
//! Between chunks every slab is a *broadcast* (all `64*W` lanes hold the
//! same bit): the serial value carried from the previous chunk.
//!
//! * **Combinational batches** (`cycles_per_vector == 0`): settled values are
//!   pure functions of the inputs, so lanes evaluate independently and the
//!   result is bit-identical to a caller-side serial loop *at every width*.
//!   Toggle counts are serial-exact too: for each net the count of adjacent
//!   differences in the settled sequence `v_prev, v_0, v_1, …` is
//!   `popcount((w ^ ((w << 1) | carry)) & mask)` per word — lane `l`
//!   compares against lane `l-1`, lane 0 of word `i` against bit 63 of word
//!   `i-1` (word 0 against the carried broadcast bit), chaining the shift
//!   carry across the slab.
//! * **Sequential batches** (`cycles_per_vector == c > 0`): every lane starts
//!   the chunk from the chunk-entry net values and register state, all lanes
//!   run `c` clock cycles in lockstep — one settle, then per cycle a packed
//!   register update ([`pe_netlist::CellKind::next_state_packed_wide`]) and
//!   a settle, `1 + c` settles for what `c` scalar ticks settle `2c` times
//!   — and the last active lane's final values/state become the carry into
//!   the next chunk. The chunk size — `64*W` lanes of the *configured*
//!   [`LaneWidth`] — is part of this contract: the scalar engine implements
//!   the identical chunked-streaming semantics at the *same* configured
//!   [`LaneWidth`]
//!   ([`Simulator::run_batch`](crate::Simulator::run_batch) with
//!   [`BatchMode::Scalar`](crate::sim::BatchMode)), which is what makes
//!   bit-identity — outputs, per-net toggle counts, carried register state —
//!   testable exactly (see `tests/bitslice_differential.rs`). Sequential
//!   *outputs* are additionally width-invariant whenever each
//!   classification's result depends only on its own input vector (true for
//!   the paper's classifier datapaths); sequential *toggle counts* are
//!   defined per configured width because chunk boundaries move.
//!
//! The configured width is a cap, not a forced slab: the batch drivers
//! ([`Simulator::run_batch`](crate::Simulator::run_batch) and
//! [`WarmSimulator::run_batch`](crate::WarmSimulator::run_batch)) sweep each
//! batch at [`LaneWidth::for_batch`], the narrowest slab that holds one
//! chunk. A batch of at most `64*W` vectors is one chunk at either width and
//! a larger one runs at the cap, so chunk boundaries never move and every
//! result above is unchanged — a 64-vector batch under a W8 cap simply
//! stops evaluating 448 lanes nobody asked for.
//!
//! Fault campaigns reuse one `BitSlicedSimulator` across every fault site by
//! pinning nets with [`BitSlicedSimulator::force_net`] and releasing them
//! afterwards, instead of rebuilding and rescheduling a simulator per site;
//! at `W = 8` a PPSFP sweep carries 512 faulty machines in lockstep (see
//! [`crate::faults`]).

use crate::activity::{ActivityReport, ToggleCounters};
use crate::faults::GoldenTrajectory;
use crate::sim::BatchResult;
use pe_netlist::{CellId, CellKind, Netlist, NetlistError, PortDir};
use pe_obs::{SimBatch, SimProfile};
use std::collections::HashMap;

/// Number of simulation lanes in one machine word (one slab holds
/// `LANES * W` lanes).
pub const LANES: usize = 64;

/// Runtime-selectable slab width of the bit-sliced engine: how many `u64`
/// words (and therefore how many `64 * W` packed test vectors) one
/// topological sweep carries. Each variant selects a monomorphized
/// `[u64; W]` engine; [`LaneWidth::W1`] is exactly the original one-word
/// engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LaneWidth {
    /// One word per net: 64 lanes per sweep.
    #[default]
    W1,
    /// Two words per net: 128 lanes per sweep.
    W2,
    /// Four words per net: 256 lanes per sweep.
    W4,
    /// Eight words per net (a full 64-byte cache line): 512 lanes per sweep.
    W8,
}

impl LaneWidth {
    /// Every supported width, narrowest first (the width-sweep order used by
    /// benches and differential tests).
    pub const ALL: [LaneWidth; 4] = [LaneWidth::W1, LaneWidth::W2, LaneWidth::W4, LaneWidth::W8];

    /// Slab width in words.
    #[must_use]
    pub fn words(self) -> usize {
        match self {
            LaneWidth::W1 => 1,
            LaneWidth::W2 => 2,
            LaneWidth::W4 => 4,
            LaneWidth::W8 => 8,
        }
    }

    /// Packed vectors per sweep (`64 * words`).
    #[must_use]
    pub fn lanes(self) -> usize {
        LANES * self.words()
    }

    /// Parses a CLI-style width spec: a word count (`1`/`2`/`4`/`8`) or a
    /// lane count (`64`/`128`/`256`/`512`).
    #[must_use]
    pub fn parse(s: &str) -> Option<Self> {
        match s.trim() {
            "1" | "64" => Some(LaneWidth::W1),
            "2" | "128" => Some(LaneWidth::W2),
            "4" | "256" => Some(LaneWidth::W4),
            "8" | "512" => Some(LaneWidth::W8),
            _ => None,
        }
    }

    /// Smallest width whose sweep covers `n` fault sites (capped at
    /// [`LaneWidth::W8`]) — the auto choice of the PPSFP campaigns, which
    /// are width-invariant in their verdicts, so wider is purely fewer
    /// sweeps.
    #[must_use]
    pub fn for_sites(n: usize) -> Self {
        Self::ALL.into_iter().find(|w| n <= w.lanes()).unwrap_or(LaneWidth::W8)
    }

    /// The slab width a batch of `n` vectors sweeps at under the configured
    /// width `cap`: the narrowest whose `64 * W` lanes cover
    /// `min(n, cap.lanes())`. `cap` stays the chunk size, so chunk
    /// boundaries — and with them every output, carried state and toggle
    /// count — are the same as sweeping at `cap`; a batch that fits one
    /// `cap` chunk just stops evaluating lanes nobody asked for.
    #[must_use]
    pub fn for_batch(n: usize, cap: LaneWidth) -> Self {
        Self::for_sites(n.min(cap.lanes()))
    }

    /// Netlist-size heuristic for batch classification: the widest slab
    /// whose hot working set (three slabs per net: values, forced masks,
    /// forced values) still fits comfortably in a per-core L2. Tiny printed
    /// classifiers (hundreds of nets) always get [`LaneWidth::W8`]; very
    /// large netlists fall back toward [`LaneWidth::W1`], where the extra
    /// words would just thrash the cache for no occupancy win.
    #[must_use]
    pub fn auto_for_netlist(nl: &Netlist) -> Self {
        const BUDGET_BYTES: usize = 512 * 1024;
        let per_net_per_word = 3 * std::mem::size_of::<u64>();
        Self::ALL
            .into_iter()
            .rev()
            .find(|w| nl.num_nets() * per_net_per_word * w.words() <= BUDGET_BYTES)
            .unwrap_or(LaneWidth::W1)
    }
}

impl std::fmt::Display for LaneWidth {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.words())
    }
}

/// A slab mask with one bit set per active lane of a (possibly ragged)
/// chunk of up to `64 * W` lanes.
#[inline]
#[must_use]
pub(crate) fn lane_mask_wide<const W: usize>(active: usize) -> [u64; W] {
    debug_assert!((1..=LANES * W).contains(&active));
    core::array::from_fn(|i| {
        let lo = i * LANES;
        if active >= lo + LANES {
            !0
        } else if active <= lo {
            0
        } else {
            (1u64 << (active - lo)) - 1
        }
    })
}

/// Number of set lanes in a slab mask.
#[inline]
#[must_use]
pub(crate) fn popcount_wide<const W: usize>(mask: &[u64; W]) -> u64 {
    let mut n = 0u64;
    for &w in mask {
        n += u64::from(w.count_ones());
    }
    n
}

/// Replicates one bit into all 64 lanes of one word.
#[inline]
fn broadcast(b: bool) -> u64 {
    if b {
        !0
    } else {
        0
    }
}

/// Replicates one bit into every lane of a slab.
#[inline]
fn broadcast_wide<const W: usize>(b: bool) -> [u64; W] {
    [broadcast(b); W]
}

/// A word-parallel cycle-based simulator over a borrowed [`Netlist`],
/// carrying `64 * W` packed test vectors per sweep.
///
/// The default `W = 1` is the original one-word engine; see the
/// [module docs](self) for the slab layout and batch semantics, and
/// [`LaneWidth`] for the runtime width knob callers dispatch over.
#[derive(Debug)]
pub struct BitSlicedSimulator<'nl, const W: usize = 1> {
    nl: &'nl Netlist,
    /// Topological order of combinational cells (the schedule `prog` is
    /// compiled from; cone schedules filter it by cell).
    order: Vec<CellId>,
    /// All sequential cells.
    regs: Vec<CellId>,
    /// The compiled sweep program: one [`Op`] per combinational cell in
    /// `order` order, followed by one per register in `regs` order.
    prog: Vec<Op>,
    /// Position in `prog` of the op driving each net, or `u32::MAX` for
    /// primary inputs and constants. Positions past `order.len()` are
    /// registers (`regs` index = position − `order.len()`).
    op_of_net: Vec<u32>,
    /// Packed value slab of every net, one lane per bit (structure of
    /// arrays: the `W` words of one net are contiguous).
    words: Vec<[u64; W]>,
    /// Packed state slab of each register (parallel to `regs`).
    state: Vec<[u64; W]>,
    /// Scratch buffer for packed next-states (parallel to `regs`).
    next_scratch: Vec<[u64; W]>,
    /// Input port name -> bit nets (LSB first).
    input_ports: HashMap<String, Vec<pe_netlist::NetId>>,
    /// Output port name -> bit nets (LSB first).
    output_ports: HashMap<String, Vec<pe_netlist::NetId>>,
    /// Per-net toggle counters (disabled when empty).
    toggles: ToggleCounters,
    /// Clock cycles accounted so far (summed over active lanes).
    cycles: u64,
    /// Per-net slab mask of lanes pinned by
    /// [`BitSlicedSimulator::force_lanes`] (all-ones for a broadcast
    /// [`BitSlicedSimulator::force_net`]).
    forced_mask: Vec<[u64; W]>,
    /// Per-net pinned values in the lanes selected by `forced_mask`.
    forced_vals: Vec<[u64; W]>,
    /// Combinational cell evaluations performed so far (each cell of each
    /// settle pass counts one, at every width — the work metric the
    /// cone-scheduled mode exists to shrink).
    cell_evals: u64,
}

/// The owned state of a [`BitSlicedSimulator`] with the netlist borrow
/// removed: schedule, slabs, register state, forced lanes, toggle counters,
/// and cycle/eval accounting.
///
/// A `BitSlicedSimulator<'nl, W>` borrows its netlist, so it cannot live
/// inside a struct that also owns the netlist (self-referential, and the
/// workspace forbids `unsafe`). Detaching breaks the borrow:
/// [`BitSlicedSimulator::detach`] moves every field here,
/// [`BitSlicedSimulator::reattach`] moves them back around any netlist of
/// the same shape. Both directions are pure moves — no allocation, no
/// re-settling. [`crate::warm`] builds the lifetime-free
/// [`WarmSimulator`](crate::WarmSimulator) on top.
#[derive(Debug)]
pub(crate) struct DetachedSlab<const W: usize = 1> {
    num_nets: usize,
    num_cells: usize,
    order: Vec<CellId>,
    regs: Vec<CellId>,
    prog: Vec<Op>,
    op_of_net: Vec<u32>,
    words: Vec<[u64; W]>,
    state: Vec<[u64; W]>,
    next_scratch: Vec<[u64; W]>,
    input_ports: HashMap<String, Vec<pe_netlist::NetId>>,
    output_ports: HashMap<String, Vec<pe_netlist::NetId>>,
    toggles: ToggleCounters,
    cycles: u64,
    forced_mask: Vec<[u64; W]>,
    forced_vals: Vec<[u64; W]>,
    cell_evals: u64,
}

impl<const W: usize> DetachedSlab<W> {
    /// Whether this state was detached from a netlist of this shape.
    #[must_use]
    pub fn matches(&self, nl: &Netlist) -> bool {
        self.num_nets == nl.num_nets() && self.num_cells == nl.num_cells()
    }

    /// Clock cycles accounted so far (carried across detach/reattach).
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Combinational cell evaluations so far (carried across
    /// detach/reattach).
    #[must_use]
    pub fn cell_evals(&self) -> u64 {
        self.cell_evals
    }

    /// Enables per-net toggle counting (and clears any previous counts),
    /// like [`BitSlicedSimulator::enable_activity`].
    pub(crate) fn enable_activity(&mut self) {
        self.toggles = ToggleCounters::enabled(self.num_nets);
        self.cycles = 0;
    }

    /// Snapshot of the switching activity accumulated so far.
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

    /// Re-packs this state at slab width `V`. Between batches every slab is
    /// a broadcast of the carried serial value, so re-broadcasting it over
    /// `V` words is exact; the program, op map, toggle counters and
    /// cycle/eval counts move across unchanged.
    ///
    /// # Panics
    ///
    /// Panics if a slab is not a broadcast — e.g. state detached with
    /// per-lane pins from [`BitSlicedSimulator::force_lanes`] still held.
    #[must_use]
    pub(crate) fn rewidth<const V: usize>(self) -> DetachedSlab<V> {
        fn rebroadcast<const W: usize, const V: usize>(slabs: Vec<[u64; W]>) -> Vec<[u64; V]> {
            slabs
                .into_iter()
                .map(|s| {
                    assert!(
                        (s[0] == 0 || s[0] == !0) && s.iter().all(|&w| w == s[0]),
                        "only broadcast slabs can change width"
                    );
                    [s[0]; V]
                })
                .collect()
        }
        DetachedSlab {
            num_nets: self.num_nets,
            num_cells: self.num_cells,
            order: self.order,
            regs: self.regs,
            prog: self.prog,
            op_of_net: self.op_of_net,
            words: rebroadcast(self.words),
            state: rebroadcast(self.state),
            next_scratch: vec![[0; V]; self.next_scratch.len()],
            input_ports: self.input_ports,
            output_ports: self.output_ports,
            toggles: self.toggles,
            cycles: self.cycles,
            forced_mask: rebroadcast(self.forced_mask),
            forced_vals: rebroadcast(self.forced_vals),
            cell_evals: self.cell_evals,
        }
    }
}

/// One compiled cell of the sweep program: everything a sweep reads per
/// cell in 20 contiguous bytes, instead of chasing `CellId` → `Cell` → the
/// cell's heap-allocated input list on every evaluation.
#[derive(Debug, Clone, Copy)]
struct Op {
    kind: CellKind,
    /// Whether any lane of `out` is pinned (`forced_mask[out]` non-zero):
    /// only pinned ops read `forced_mask`/`forced_vals` for the
    /// forced-value merge. In the simulator's program this is kept in step
    /// by [`BitSlicedSimulator::force_lanes`] and
    /// [`BitSlicedSimulator::release_net`]; a [`ConeSchedule`]'s copies fix
    /// it for the chunk they were compiled in.
    pinned: bool,
    /// Output net index.
    out: u32,
    /// Input net indices; pins past the cell's arity repeat the first
    /// input (the arity-free kernels ignore them).
    ins: [u32; 3],
}

/// Compiles a levelized schedule into the flat sweep program (combinational
/// cells in `order` order, then the registers in `regs` order) and the
/// net → driving-op map.
fn compile(nl: &Netlist, order: &[CellId], regs: &[CellId]) -> (Vec<Op>, Vec<u32>) {
    let mut op_of_net = vec![u32::MAX; nl.num_nets()];
    let prog = order
        .iter()
        .chain(regs)
        .enumerate()
        .map(|(p, &c)| {
            let cell = nl.cell(c);
            let pins = cell.inputs();
            let out = cell.output().index();
            op_of_net[out] = p as u32;
            Op {
                kind: cell.kind(),
                pinned: false,
                out: out as u32,
                ins: core::array::from_fn(|k| pins.get(k).unwrap_or(&pins[0]).index() as u32),
            }
        })
        .collect();
    (prog, op_of_net)
}

/// How a sweep step accounts the toggles of the slab it writes.
#[derive(Debug, Clone, Copy)]
enum Tally {
    /// No accounting (activity disabled).
    Off,
    /// Per-lane difference against the stored slab (sequential cycles,
    /// lane-parallel settles).
    Slab,
    /// Serial adjacent-lane differences for combinational batches: lane
    /// `l` is compared against lane `l-1` (lane 0 of word `i` against bit
    /// 63 of word `i-1`, lane 0 of word 0 against the carried broadcast
    /// bit), reproducing exactly the adjacent-vector toggle sequence of a
    /// serial loop across the whole slab.
    Serial,
}

/// Net → reader-op table over a simulator's compiled program, in CSR
/// layout: the program positions of the ops reading net `n` are
/// `targets[offsets[n]..offsets[n + 1]]`, ascending, each op listed once
/// per net even when the net feeds several of its pins. Built once per
/// campaign by [`BitSlicedSimulator::reader_table`]; the cone search of
/// [`BitSlicedSimulator::cone_schedule`] walks it instead of the netlist.
#[derive(Debug)]
pub(crate) struct ReaderTable {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl ReaderTable {
    /// Program positions of the ops reading net index `net`.
    fn readers(&self, net: usize) -> &[u32] {
        &self.targets[self.offsets[net] as usize..self.offsets[net + 1] as usize]
    }
}

/// The per-chunk cone schedule of a cone-scheduled PPSFP sweep: the
/// sub-program of ops downstream of the chunk's pinned fault sites, plus the
/// *frontier* — the nets feeding that sub-program from outside it, whose
/// fault-free values are loaded from a precomputed golden trajectory instead
/// of being recomputed. Rebuilt in place for every chunk by
/// [`BitSlicedSimulator::cone_schedule`] (its buffers and marks are reused,
/// so a build allocates nothing in steady state), consumed by
/// [`BitSlicedSimulator::lanes_diverging_cone`].
#[derive(Debug, Default)]
pub(crate) struct ConeSchedule {
    /// The cone's combinational ops, copied from the program in topological
    /// order with their pinned bits fixed at compile time (forcing is
    /// constant within a chunk).
    comb: Vec<Op>,
    /// Indices (into `regs`) of the cone's sequential cells.
    regs: Vec<u32>,
    /// Nets read by cone cells but not driven by one, plus root (fault
    /// site) nets not driven by a cone cell: everything the cone consumes
    /// from the fault-free world, with whether the net is pinned. Loaded
    /// broadcast from the golden trajectory (pinned lanes keep their forced
    /// values).
    frontier: Vec<(u32, bool)>,
    /// Net-indexed stamps: `valid[n] == epoch` iff the net's slab is
    /// meaningful after a cone pass of the current build (cone-driven or
    /// frontier-loaded). Output bits outside this set are provably
    /// fault-free and are skipped by the divergence diff.
    valid: Vec<u32>,
    /// Stamp of the current build; bumping it clears `valid` in O(1).
    epoch: u32,
    /// Cone search scratch: one bit per program position, all clear
    /// between builds.
    in_cone: Vec<u64>,
    /// Cone search scratch: nets whose readers are still to be visited.
    stack: Vec<u32>,
}

impl ConeSchedule {
    /// Number of combinational cells a cone pass evaluates.
    pub(crate) fn comb_cells(&self) -> usize {
        self.comb.len()
    }

    /// Whether net index `n` holds a meaningful slab after a cone pass.
    fn valid_net(&self, n: usize) -> bool {
        self.valid[n] == self.epoch
    }
}

impl<'nl, const W: usize> BitSlicedSimulator<'nl, W> {
    /// Builds a bit-sliced simulator, scheduling the combinational core.
    ///
    /// Registers power on at their declared init values (broadcast to all
    /// lanes) and the combinational core is settled once with all primary
    /// inputs at 0, exactly like the scalar constructor.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] if the design's
    /// combinational core is cyclic.
    pub fn new(nl: &'nl Netlist) -> Result<Self, NetlistError> {
        let order = pe_netlist::graph::topo_order(nl)?;
        let regs: Vec<CellId> =
            nl.cells().filter(|(_, c)| c.kind().is_sequential()).map(|(id, _)| id).collect();
        let mut sim = Self::assemble(nl, order, regs);
        for (i, &r) in sim.regs.clone().iter().enumerate() {
            sim.state[i] = broadcast_wide(nl.cell(r).init());
            sim.words[nl.cell(r).output().index()] = sim.state[i];
        }
        sim.settle(&[!0; W], false);
        Ok(sim)
    }

    /// Builds a simulator from an already-computed schedule, seeding every
    /// lane with the given (settled) scalar values and register state. Used
    /// by the scalar [`Simulator`](crate::Simulator) to route `run_batch`
    /// through the sliced engine without re-scheduling or re-settling.
    pub(crate) fn from_parts(
        nl: &'nl Netlist,
        order: Vec<CellId>,
        regs: Vec<CellId>,
        values: &[bool],
        state: &[bool],
        frozen: &[bool],
        track_activity: bool,
    ) -> Self {
        let mut sim = Self::assemble(nl, order, regs);
        for (w, &v) in sim.words.iter_mut().zip(values) {
            *w = broadcast_wide(v);
        }
        for (s, &v) in sim.state.iter_mut().zip(state) {
            *s = broadcast_wide(v);
        }
        for (i, &f) in frozen.iter().enumerate() {
            if f {
                sim.forced_mask[i] = [!0; W];
                sim.forced_vals[i] = sim.words[i];
                sim.sync_pinned(i);
            }
        }
        if track_activity {
            sim.toggles = ToggleCounters::enabled(nl.num_nets());
        }
        sim
    }

    fn assemble(nl: &'nl Netlist, order: Vec<CellId>, regs: Vec<CellId>) -> Self {
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
        let mut words = vec![[0u64; W]; nl.num_nets()];
        words[nl.const1().index()] = [!0; W];
        let state = vec![[0u64; W]; regs.len()];
        let next_scratch = vec![[0u64; W]; regs.len()];
        let (prog, op_of_net) = compile(nl, &order, &regs);
        BitSlicedSimulator {
            nl,
            order,
            regs,
            prog,
            op_of_net,
            words,
            state,
            next_scratch,
            input_ports,
            output_ports,
            toggles: ToggleCounters::disabled(),
            cycles: 0,
            forced_mask: vec![[0; W]; nl.num_nets()],
            forced_vals: vec![[0; W]; nl.num_nets()],
            cell_evals: 0,
        }
    }

    /// Combinational cell evaluations performed since construction: each
    /// cell visited by each settle pass counts one, regardless of width.
    /// Full sweeps evaluate the whole scheduled core per pass; the
    /// cone-scheduled mode exists to make this counter grow slower at
    /// identical outputs.
    #[must_use]
    pub fn cell_evals(&self) -> u64 {
        self.cell_evals
    }

    /// Number of combinational cells one full settle pass evaluates.
    #[must_use]
    pub fn scheduled_cells(&self) -> usize {
        self.order.len()
    }

    /// Packed vectors one sweep of this simulator carries (`64 * W`).
    #[must_use]
    pub fn lanes(&self) -> usize {
        LANES * W
    }

    /// Enables per-net toggle counting (and clears any previous counts).
    pub fn enable_activity(&mut self) {
        self.toggles = ToggleCounters::enabled(self.nl.num_nets());
        self.cycles = 0;
    }

    /// Number of clock cycles accounted so far, summed over active lanes so
    /// the total matches what a serial simulation of the same batch would
    /// report.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Pins a net to a constant in every lane: evaluation and clocking will
    /// never change it until [`BitSlicedSimulator::release_net`]. This is
    /// the force/release mechanism fault campaigns use to reuse one
    /// scheduled simulator across all fault sites.
    pub fn force_net(&mut self, net: pe_netlist::NetId, value: bool) {
        self.force_lanes(net, broadcast_wide(value), [!0; W]);
    }

    /// Pins a net in a single lane (lane `64*i + l` is bit `l` of slab word
    /// `i`) — the per-site convenience the PPSFP campaigns use to pack one
    /// fault site per lane.
    ///
    /// # Panics
    ///
    /// Panics if `lane >= 64 * W`.
    pub(crate) fn force_lane(&mut self, net: pe_netlist::NetId, lane: usize, value: bool) {
        assert!(lane < LANES * W, "lane {lane} out of range for width {W}");
        let mut vals = [0u64; W];
        let mut mask = [0u64; W];
        mask[lane / LANES] = 1u64 << (lane % LANES);
        if value {
            vals[lane / LANES] = 1u64 << (lane % LANES);
        }
        self.force_lanes(net, vals, mask);
    }

    /// Pins a net per lane: in every lane selected by `mask` the net is held
    /// at the corresponding bit of `values`; unselected lanes keep evaluating
    /// normally. Pinned lanes are re-merged after every cell evaluation and
    /// register update, so `64 * W` *different* faulty machines can tick in
    /// lockstep in one slab — the PPSFP mechanism behind
    /// [`crate::faults::fault_campaign_comb`] and
    /// [`crate::faults::fault_campaign_seq`]. Repeated calls merge:
    /// forcing the same net in different lanes (e.g. its stuck-at-0 and
    /// stuck-at-1 sites packed into one chunk) accumulates.
    pub fn force_lanes(&mut self, net: pe_netlist::NetId, values: [u64; W], mask: [u64; W]) {
        let i = net.index();
        for w in 0..W {
            self.forced_mask[i][w] |= mask[w];
            self.forced_vals[i][w] = (self.forced_vals[i][w] & !mask[w]) | (values[w] & mask[w]);
            self.words[i][w] = (self.words[i][w] & !mask[w]) | (values[w] & mask[w]);
        }
        if let Some(r) = self.reg_of_net(i) {
            for w in 0..W {
                self.state[r][w] = (self.state[r][w] & !mask[w]) | (values[w] & mask[w]);
            }
        }
        self.sync_pinned(i);
    }

    /// Releases a pinned net in every lane (its next evaluation recomputes
    /// it normally). A released *register* output is restored to its
    /// power-on init value — not left at the stale forced value — so a
    /// post-campaign batch on a sequential design starts from sane state
    /// (combinational nets need no restore: the next settle recomputes
    /// them).
    pub fn release_net(&mut self, net: pe_netlist::NetId) {
        let i = net.index();
        if self.forced_mask[i] == [0; W] {
            return;
        }
        self.forced_mask[i] = [0; W];
        self.forced_vals[i] = [0; W];
        if let Some(r) = self.reg_of_net(i) {
            let init = broadcast_wide(self.nl.cell(self.regs[r]).init());
            self.state[r] = init;
            self.words[i] = init;
        }
        self.sync_pinned(i);
    }

    /// The register index (into `regs`/`state`) driving net `i`, if any.
    fn reg_of_net(&self, i: usize) -> Option<usize> {
        (self.op_of_net[i] as usize).checked_sub(self.order.len()).filter(|&r| r < self.regs.len())
    }

    /// Re-derives the pinned bit of the op driving net `i` from
    /// `forced_mask`, the single source of truth for which lanes are pinned.
    fn sync_pinned(&mut self, i: usize) {
        if let Some(op) = self.prog.get_mut(self.op_of_net[i] as usize) {
            op.pinned = self.forced_mask[i] != [0; W];
        }
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

    /// Writes the carried serial value of every net and register back into
    /// scalar storage (the batch-glue counterpart of
    /// [`BitSlicedSimulator::from_parts`]). Slabs are broadcasts between
    /// chunks, so lane 0 is the carried value.
    pub(crate) fn carry_into(&self, values: &mut [bool], state: &mut [bool]) {
        for (v, w) in values.iter_mut().zip(&self.words) {
            *v = w[0] & 1 == 1;
        }
        for (s, w) in state.iter_mut().zip(&self.state) {
            *s = w[0] & 1 == 1;
        }
    }

    /// The raw toggle accumulator (for merging back into a scalar owner).
    pub(crate) fn toggle_counters(&self) -> &ToggleCounters {
        &self.toggles
    }

    /// Splits the simulator into its owned state, dropping the netlist
    /// borrow — the storage half of the **warm-simulator** pattern (see
    /// [`crate::warm`]). Everything moves: slabs, register state, forced
    /// lanes, toggle counters and cycle/eval accounting, so a later
    /// [`BitSlicedSimulator::reattach`] resumes exactly where this simulator
    /// left off.
    #[must_use]
    pub(crate) fn detach(self) -> DetachedSlab<W> {
        DetachedSlab {
            num_nets: self.nl.num_nets(),
            num_cells: self.nl.num_cells(),
            order: self.order,
            regs: self.regs,
            prog: self.prog,
            op_of_net: self.op_of_net,
            words: self.words,
            state: self.state,
            next_scratch: self.next_scratch,
            input_ports: self.input_ports,
            output_ports: self.output_ports,
            toggles: self.toggles,
            cycles: self.cycles,
            forced_mask: self.forced_mask,
            forced_vals: self.forced_vals,
            cell_evals: self.cell_evals,
        }
    }

    /// Rebuilds a simulator around detached state — the inverse of
    /// [`BitSlicedSimulator::detach`]. This is a pure move (no allocation,
    /// no re-settling), so attaching per batch costs nothing next to the
    /// batch itself.
    ///
    /// # Panics
    ///
    /// Panics if `nl` does not have the net/cell counts the state was
    /// detached with. This is a shape check only: the warm path reattaches
    /// the *same* long-lived netlist it was built from every batch.
    #[must_use]
    pub(crate) fn reattach(nl: &Netlist, slab: DetachedSlab<W>) -> BitSlicedSimulator<'_, W> {
        assert!(
            slab.matches(nl),
            "detached slab ({} nets / {} cells) does not fit netlist {:?} ({} nets / {} cells)",
            slab.num_nets,
            slab.num_cells,
            nl.name(),
            nl.num_nets(),
            nl.num_cells()
        );
        BitSlicedSimulator {
            nl,
            order: slab.order,
            regs: slab.regs,
            prog: slab.prog,
            op_of_net: slab.op_of_net,
            words: slab.words,
            state: slab.state,
            next_scratch: slab.next_scratch,
            input_ports: slab.input_ports,
            output_ports: slab.output_ports,
            toggles: slab.toggles,
            cycles: slab.cycles,
            forced_mask: slab.forced_mask,
            forced_vals: slab.forced_vals,
            cell_evals: slab.cell_evals,
        }
    }

    // ---- packed kernel ---------------------------------------------------

    /// The one per-op step every sweep runs: evaluate a combinational op
    /// over the current slabs with the packed kernel and commit the result.
    #[inline(always)]
    fn step(&mut self, op: &Op, mask: &[u64; W], tally: Tally) {
        let w = &self.words;
        let new = op.kind.eval_packed_wide::<W>(
            &w[op.ins[0] as usize],
            &w[op.ins[1] as usize],
            &w[op.ins[2] as usize],
        );
        self.commit(op, new, mask, tally);
    }

    /// Writes an op's freshly computed slab: pinned lanes re-merged (pinned
    /// ops only), toggles tallied per `tally` against the stored slab
    /// (masked, so ragged lanes never leak into activity).
    #[inline(always)]
    fn commit(&mut self, op: &Op, mut new: [u64; W], mask: &[u64; W], tally: Tally) {
        let out = op.out as usize;
        if op.pinned {
            let (fm, fv) = (&self.forced_mask[out], &self.forced_vals[out]);
            for w in 0..W {
                new[w] = (new[w] & !fm[w]) | (fv[w] & fm[w]);
            }
        }
        let old = std::mem::replace(&mut self.words[out], new);
        match tally {
            Tally::Off => {}
            Tally::Slab => {
                if new != old {
                    let diff: [u64; W] = core::array::from_fn(|w| (new[w] ^ old[w]) & mask[w]);
                    self.toggles.bump_packed_wide(out, &diff);
                }
            }
            Tally::Serial => {
                let mut carry = old[0] & 1;
                let mut diff = [0u64; W];
                for w in 0..W {
                    diff[w] = (new[w] ^ ((new[w] << 1) | carry)) & mask[w];
                    carry = new[w] >> 63;
                }
                self.toggles.bump_packed_wide(out, &diff);
            }
        }
    }

    /// The toggle accounting of a settle pass (see [`Tally`]).
    fn tally(&self, serial: bool) -> Tally {
        match (self.toggles.is_enabled(), serial) {
            (false, _) => Tally::Off,
            (true, false) => Tally::Slab,
            (true, true) => Tally::Serial,
        }
    }

    /// One lane-parallel settle pass: steps every combinational op in
    /// program order. `serial` selects serial toggle accounting
    /// ([`Tally::Serial`], for combinational batches) over the per-lane slab
    /// difference.
    fn settle(&mut self, mask: &[u64; W], serial: bool) {
        let tally = self.tally(serial);
        let n = self.order.len();
        for p in 0..n {
            let op = self.prog[p];
            self.step(&op, mask, tally);
        }
        self.cell_evals += n as u64;
    }

    /// The register phase of a clock edge for the registers `regs` (indices
    /// into `regs`/`state`): capture every packed next-state from the
    /// settled slabs first, then commit them — two phases, because a
    /// register may feed another directly.
    fn clock_regs(&mut self, regs: impl Iterator<Item = usize> + Clone, mask: &[u64; W]) {
        let tally = self.tally(false);
        let base = self.order.len();
        for i in regs.clone() {
            let op = &self.prog[base + i];
            let w = &self.words;
            self.next_scratch[i] = op.kind.next_state_packed_wide::<W>(
                &w[op.ins[0] as usize],
                &w[op.ins[1] as usize],
                &self.state[i],
            );
        }
        for i in regs {
            let op = self.prog[base + i];
            self.commit(&op, self.next_scratch[i], mask, tally);
            self.state[i] = self.words[op.out as usize];
        }
    }

    /// `c` clock cycles for the lanes in `mask`: settle once, then per cycle
    /// clock every register and settle — the lane-parallel mirror of `c`
    /// calls to [`Simulator::tick`](crate::Simulator::tick). A tick settles
    /// before its edge and again after it; here the settle opening each
    /// later cycle is skipped, because it would recompute exactly the values
    /// the previous cycle's settle left (no slab changes in between, so no
    /// toggles either). `1 + c` settles give the same nets, registers and
    /// toggle counts as `2c`.
    ///
    /// `at_settle(self, k)` runs after settle point `k`: `0` before the first
    /// edge, `k` after the `k`-th.
    fn run_cycles(&mut self, mask: &[u64; W], c: u64, mut at_settle: impl FnMut(&Self, usize)) {
        self.settle(mask, false);
        at_settle(self, 0);
        for k in 1..=c as usize {
            self.clock_regs(0..self.regs.len(), mask);
            self.settle(mask, false);
            at_settle(self, k);
        }
    }

    /// Resets the registers `regs` (indices into `regs`/`state`) to their
    /// power-on init value in all lanes except the ones pinned by
    /// [`BitSlicedSimulator::force_lanes`], which keep their forced values —
    /// the lane-aware per-classification reset shared by
    /// [`BitSlicedSimulator::run_workload_seq_reset`] and the PPSFP
    /// campaign drivers.
    fn reset_regs(&mut self, regs: impl Iterator<Item = usize>) {
        for i in regs {
            let cell = self.nl.cell(self.regs[i]);
            let out = cell.output().index();
            let init = broadcast(cell.init());
            let fm = &self.forced_mask[out];
            let fv = &self.forced_vals[out];
            for w in 0..W {
                self.state[i][w] = (init & !fm[w]) | (fv[w] & fm[w]);
            }
            self.words[out] = self.state[i];
        }
    }

    /// Collapses every slab (and register) to a broadcast of lane `lane`,
    /// establishing the between-chunk invariant that the carried serial
    /// value occupies all lanes. Lanes pinned by
    /// [`BitSlicedSimulator::force_lanes`] are re-merged afterwards so a
    /// collapse never un-pins them.
    fn collapse_to_lane(&mut self, lane: usize) {
        let (wi, bi) = (lane / LANES, lane % LANES);
        for (i, w) in self.words.iter_mut().enumerate() {
            let b = broadcast((w[wi] >> bi) & 1 == 1);
            let fm = &self.forced_mask[i];
            let fv = &self.forced_vals[i];
            for k in 0..W {
                w[k] = (b & !fm[k]) | (fv[k] & fm[k]);
            }
        }
        for (r, s) in self.state.iter_mut().enumerate() {
            let out = self.nl.cell(self.regs[r]).output().index();
            let b = broadcast((s[wi] >> bi) & 1 == 1);
            let fm = &self.forced_mask[out];
            let fv = &self.forced_vals[out];
            for k in 0..W {
                s[k] = (b & !fm[k]) | (fv[k] & fm[k]);
            }
        }
    }

    // ---- lane I/O --------------------------------------------------------

    /// Drives an input port with one integer per lane (two's complement,
    /// LSB first). Lanes beyond `values.len()` are zeroed.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist, more than `64 * W` values are
    /// given, or a value does not fit the port width.
    pub(crate) fn set_input_lanes(&mut self, port: &str, values: &[i64]) {
        let nets = self
            .input_ports
            .get(port)
            .unwrap_or_else(|| panic!("no input port named {port:?}"))
            .clone();
        assert!(values.len() <= LANES * W, "more than {} lanes driven on port {port}", LANES * W);
        let w = nets.len() as u32;
        assert!(w <= 63, "port {port} too wide");
        let min = -(1i64 << (w - 1));
        let max = (1i64 << w) - 1;
        for &v in values {
            assert!(v >= min && v <= max, "value {v} does not fit {w}-bit port {port}");
        }
        for (j, &net) in nets.iter().enumerate() {
            let mut slab = [0u64; W];
            for (l, &v) in values.iter().enumerate() {
                slab[l / LANES] |= (((v >> j) & 1) as u64) << (l % LANES);
            }
            self.words[net.index()] = slab;
        }
    }

    /// Reads an output port of one lane as an unsigned integer.
    ///
    /// # Panics
    ///
    /// Panics if the port does not exist or is wider than 63 bits.
    #[must_use]
    pub(crate) fn output_unsigned_lane(&self, port: &str, lane: usize) -> i64 {
        let bits =
            self.output_ports.get(port).unwrap_or_else(|| panic!("no output port named {port:?}"));
        assert!(bits.len() <= 63, "port {port} too wide");
        let (wi, bi) = (lane / LANES, lane % LANES);
        let mut v = 0i64;
        for (j, &b) in bits.iter().enumerate() {
            if (self.words[b.index()][wi] >> bi) & 1 == 1 {
                v |= 1i64 << j;
            }
        }
        v
    }

    /// Resolves the port list of a workload entry to nets and value ranges,
    /// done once per chunk/campaign so per-entry driving is pure bit packing.
    fn resolve_entry_ports(
        &self,
        first: &[(String, i64)],
    ) -> Vec<(usize, Vec<pe_netlist::NetId>, i64, i64)> {
        first
            .iter()
            .enumerate()
            .map(|(k, (p, _))| {
                let nets = self
                    .input_ports
                    .get(p)
                    .unwrap_or_else(|| panic!("no input port named {p:?}"))
                    .clone();
                let w = nets.len() as u32;
                assert!(w <= 63, "port {p} too wide");
                (k, nets, -(1i64 << (w - 1)), (1i64 << w) - 1)
            })
            .collect()
    }

    /// Packs one chunk of port-named workload entries into the lanes. Every
    /// entry must drive the same ports in the same order (campaign workloads
    /// always do); the port lists are resolved once per chunk from the first
    /// entry, so the per-lane loop is pure bit packing.
    fn drive_port_lanes(&mut self, chunk: &[Vec<(String, i64)>]) {
        let first = &chunk[0];
        let ports = self.resolve_entry_ports(first);
        for (_, nets, _, _) in &ports {
            for &net in nets {
                self.words[net.index()] = [0; W];
            }
        }
        for (l, entry) in chunk.iter().enumerate() {
            assert_eq!(
                entry.len(),
                first.len(),
                "workload entries must drive the same ports in the same order"
            );
            let (wi, bi) = (l / LANES, l % LANES);
            for &(k, ref nets, min, max) in &ports {
                let (p, v) = &entry[k];
                assert_eq!(
                    p, &first[k].0,
                    "workload entries must drive the same ports in the same order"
                );
                assert!(*v >= min && *v <= max, "value {v} does not fit port {p}");
                for (j, &net) in nets.iter().enumerate() {
                    self.words[net.index()][wi] |= (((v >> j) & 1) as u64) << bi;
                }
            }
        }
    }

    // ---- batch drivers ---------------------------------------------------

    /// Word-parallel counterpart of
    /// [`Simulator::run_batch`](crate::Simulator::run_batch): element `j` of
    /// each vector drives input port `x{j}`, the observed output port is
    /// recorded per vector. See the [module docs](self) for the exact batch
    /// semantics (serial-identical for combinational batches, chunked
    /// streaming with `64 * W`-lane chunks for sequential ones).
    ///
    /// # Panics
    ///
    /// Panics on unknown ports, out-of-range values, or vectors of unequal
    /// length.
    pub fn run_batch(
        &mut self,
        vectors: &[Vec<i64>],
        cycles_per_vector: u64,
        out_port: &str,
    ) -> BatchResult {
        self.run_batch_profiled(vectors, cycles_per_vector, out_port, None)
    }

    /// [`BitSlicedSimulator::run_batch`] with an optional [`SimProfile`] hook
    /// fed once at the end with the batch's phase decomposition: nanoseconds
    /// spent packing input lanes (*drive*), settling/ticking the core
    /// (*eval*), and reading outputs back out (*readout*), plus sweep and
    /// cell-evaluation counts. Phase clocks are only read when a hook is
    /// installed — `None` is exactly the unprofiled path.
    ///
    /// # Panics
    ///
    /// Same contract as [`BitSlicedSimulator::run_batch`].
    pub(crate) fn run_batch_profiled(
        &mut self,
        vectors: &[Vec<i64>],
        cycles_per_vector: u64,
        out_port: &str,
        profile: Option<&dyn SimProfile>,
    ) -> BatchResult {
        let timing = profile.is_some();
        let start_cycles = self.cycles;
        let start_evals = self.cell_evals;
        let (mut drive_ns, mut eval_ns, mut readout_ns) = (0u64, 0u64, 0u64);
        let mut sweeps = 0u64;
        let mut outputs = Vec::with_capacity(vectors.len());
        let mut lane_vals = Vec::with_capacity(LANES * W);
        for chunk in vectors.chunks(LANES * W) {
            sweeps += 1;
            let t0 = timing.then(std::time::Instant::now);
            let active = chunk.len();
            let mask = lane_mask_wide::<W>(active);
            let m = chunk[0].len();
            for x in chunk {
                assert_eq!(x.len(), m, "all vectors in a batch must have the same arity");
            }
            for j in 0..m {
                lane_vals.clear();
                lane_vals.extend(chunk.iter().map(|x| x[j]));
                self.set_input_lanes(&format!("x{j}"), &lane_vals);
            }
            let t1 = timing.then(std::time::Instant::now);
            if cycles_per_vector == 0 {
                self.settle(&mask, true);
                self.cycles += active as u64;
            } else {
                self.run_cycles(&mask, cycles_per_vector, |_, _| {});
                self.cycles += active as u64 * cycles_per_vector;
            }
            let t2 = timing.then(std::time::Instant::now);
            for l in 0..active {
                outputs.push(self.output_unsigned_lane(out_port, l));
            }
            self.collapse_to_lane(active - 1);
            if let (Some(t0), Some(t1), Some(t2)) = (t0, t1, t2) {
                drive_ns += (t1 - t0).as_nanos() as u64;
                eval_ns += (t2 - t1).as_nanos() as u64;
                readout_ns += t2.elapsed().as_nanos() as u64;
            }
        }
        if let Some(p) = profile {
            p.on_batch(&SimBatch {
                lanes: vectors.len(),
                lane_words: W,
                sweeps,
                cycles: self.cycles - start_cycles,
                cell_evals: self.cell_evals - start_evals,
                drive_ns,
                eval_ns,
                readout_ns,
            });
        }
        BatchResult { outputs, cycles: self.cycles - start_cycles }
    }

    /// Drives a port-named **combinational** workload through the design and
    /// returns the output port value per entry — the golden run of
    /// [`crate::faults::fault_campaign_comb`], `64 * W` patterns per sweep.
    ///
    /// # Panics
    ///
    /// Panics on unknown ports or out-of-range values.
    pub fn run_workload_comb(
        &mut self,
        workload: &[Vec<(String, i64)>],
        out_port: &str,
    ) -> Vec<i64> {
        self.run_golden(workload, None, out_port, false).0
    }

    /// Drives a port-named **sequential** workload where every entry starts
    /// from power-on register state (frozen nets stay pinned) and is clocked
    /// for `cycles_per_vector` cycles — the per-classification reset protocol
    /// of [`crate::faults::fault_campaign_seq`], `64 * W` classifications
    /// per sweep. Lanes are independent, so the whole chunk resets and ticks
    /// in lockstep.
    ///
    /// Activity tracking must be disabled: the per-entry reset makes toggle
    /// accounting meaningless here, and campaigns never enable it.
    ///
    /// # Panics
    ///
    /// Panics on unknown ports, out-of-range values,
    /// `cycles_per_vector == 0`, or enabled activity tracking.
    pub fn run_workload_seq_reset(
        &mut self,
        workload: &[Vec<(String, i64)>],
        cycles_per_vector: u64,
        out_port: &str,
    ) -> Vec<i64> {
        self.run_golden(workload, Some(cycles_per_vector), out_port, false).0
    }

    /// The campaign golden run behind [`BitSlicedSimulator::run_workload_comb`]
    /// (`cycles` = `None`) and [`BitSlicedSimulator::run_workload_seq_reset`]
    /// (`Some(c)`): entry `e` of the workload runs in lane `e % (64 * W)` of
    /// sweep chunk `e / (64 * W)`, and the output port is read per entry.
    /// With `record` it also returns the fault-free [`GoldenTrajectory`]:
    /// every net at every settle point of every entry, copied from the
    /// chunk's active lanes before the chunk collapses.
    ///
    /// # Panics
    ///
    /// As the two public wrappers.
    pub(crate) fn run_golden(
        &mut self,
        workload: &[Vec<(String, i64)>],
        cycles: Option<u64>,
        out_port: &str,
        record: bool,
    ) -> (Vec<i64>, Option<GoldenTrajectory>) {
        if let Some(c) = cycles {
            assert!(c >= 1, "sequential workloads need at least one cycle");
            assert!(
                !self.toggles.is_enabled(),
                "run_workload_seq_reset resets state per entry; activity accounting is undefined"
            );
        }
        let mut traj =
            record.then(|| GoldenTrajectory::new(self.nl.num_nets(), workload.len(), cycles));
        let mut out = Vec::with_capacity(workload.len());
        for (k, chunk) in workload.chunks(LANES * W).enumerate() {
            let active = chunk.len();
            let mask = lane_mask_wide::<W>(active);
            let mut at_settle = |sim: &Self, point: usize| {
                if let Some(t) = &mut traj {
                    t.record(point, k * W, &sim.words, &mask);
                }
            };
            match cycles {
                None => {
                    self.drive_port_lanes(chunk);
                    self.settle(&mask, true);
                    at_settle(self, 0);
                    self.cycles += active as u64;
                }
                Some(c) => {
                    self.reset_regs(0..self.regs.len());
                    self.drive_port_lanes(chunk);
                    self.run_cycles(&mask, c, at_settle);
                    self.cycles += active as u64 * c;
                }
            }
            for l in 0..active {
                out.push(self.output_unsigned_lane(out_port, l));
            }
            // Re-establish the between-chunk broadcast invariant so a later
            // run_batch on this simulator reads a coherent serial carry.
            self.collapse_to_lane(active - 1);
        }
        (out, traj)
    }

    // ---- PPSFP drivers (one fault site per lane) -------------------------

    /// Drives one entry's value broadcast into every lane of its ports.
    fn drive_entry_broadcast(
        &mut self,
        ports: &[(usize, Vec<pe_netlist::NetId>, i64, i64)],
        first: &[(String, i64)],
        entry: &[(String, i64)],
    ) {
        assert_eq!(
            entry.len(),
            first.len(),
            "workload entries must drive the same ports in the same order"
        );
        for &(k, ref nets, min, max) in ports {
            let (p, v) = &entry[k];
            assert_eq!(
                p, &first[k].0,
                "workload entries must drive the same ports in the same order"
            );
            assert!(*v >= min && *v <= max, "value {v} does not fit port {p}");
            for (j, &net) in nets.iter().enumerate() {
                self.words[net.index()] = broadcast_wide((v >> j) & 1 == 1);
            }
        }
    }

    /// Slab mask of lanes whose current value of `out_port` differs from
    /// `golden` (compared over the port's bits, like
    /// [`BitSlicedSimulator::output_unsigned_lane`] per lane).
    fn output_diff_lanes(&self, out_bits: &[pe_netlist::NetId], golden: i64) -> [u64; W] {
        let mut diff = [0u64; W];
        for (j, &b) in out_bits.iter().enumerate() {
            let want = broadcast((golden >> j) & 1 == 1);
            let slab = &self.words[b.index()];
            for w in 0..W {
                diff[w] |= slab[w] ^ want;
            }
        }
        diff
    }

    /// PPSFP inner loop for **combinational** designs: every workload entry
    /// is driven *broadcast* across all lanes (each lane is one faulty
    /// machine, pinned per lane via [`BitSlicedSimulator::force_lanes`]) and
    /// compared against the fault-free `golden` response. Returns the slab
    /// mask of `watch` lanes whose output differed on at least one entry,
    /// early-exiting once every watched lane has diverged.
    ///
    /// Settled values are lane-wise pure functions of the (broadcast) inputs
    /// and the lane's pinned net, so lane `l`'s responses are exactly those
    /// of a scalar simulator with only fault `l` injected — which is what
    /// makes the campaign bit-identical to the rebuild-per-site oracle at
    /// every width.
    ///
    /// Cycle accounting: each driven entry counts one cycle per watched
    /// lane (one classification per faulty machine).
    ///
    /// # Panics
    ///
    /// Panics on unknown ports, out-of-range values, `golden` shorter than
    /// the workload, or enabled activity tracking (lanes hold different
    /// machines; toggle accounting is undefined).
    pub(crate) fn lanes_diverging_comb(
        &mut self,
        workload: &[Vec<(String, i64)>],
        out_port: &str,
        golden: &[i64],
        watch: [u64; W],
    ) -> [u64; W] {
        self.lanes_diverging(workload, None, out_port, golden, watch)
    }

    /// PPSFP inner loop for **sequential** designs under the
    /// per-classification reset protocol: every workload entry resets the
    /// registers to power-on state (lanes pinned by
    /// [`BitSlicedSimulator::force_lanes`] keep their forced values), is
    /// driven broadcast and clocked for `cycles_per_vector` ticks, and the
    /// output is compared against the fault-free `golden` response — the
    /// `64 * W`-faulty-machines-in-lockstep counterpart of
    /// [`BitSlicedSimulator::run_workload_seq_reset`]. Returns the slab mask
    /// of `watch` lanes that diverged, early-exiting once all of them have.
    ///
    /// On return the registers are reset to power-on state again (pinned
    /// lanes still pinned): the run leaves every lane a different faulty
    /// machine, and a later batch on this simulator must not observe one
    /// lane's leftover register state.
    ///
    /// # Panics
    ///
    /// Panics on unknown ports, out-of-range values, `cycles_per_vector ==
    /// 0`, a short `golden`, or enabled activity tracking.
    pub(crate) fn lanes_diverging_seq_reset(
        &mut self,
        workload: &[Vec<(String, i64)>],
        cycles_per_vector: u64,
        out_port: &str,
        golden: &[i64],
        watch: [u64; W],
    ) -> [u64; W] {
        assert!(cycles_per_vector >= 1, "sequential workloads need at least one cycle");
        self.lanes_diverging(workload, Some(cycles_per_vector), out_port, golden, watch)
    }

    /// The shared PPSFP frame: `cycles` selects the per-entry step — `None`
    /// settles combinationally, `Some(c)` resets the registers and runs `c`
    /// clock cycles.
    fn lanes_diverging(
        &mut self,
        workload: &[Vec<(String, i64)>],
        cycles: Option<u64>,
        out_port: &str,
        golden: &[i64],
        watch: [u64; W],
    ) -> [u64; W] {
        assert!(
            !self.toggles.is_enabled(),
            "PPSFP lanes hold different machines; activity accounting is undefined"
        );
        assert!(golden.len() >= workload.len(), "golden response shorter than the workload");
        if workload.is_empty() || watch == [0; W] {
            return [0; W];
        }
        let first = &workload[0];
        let ports = self.resolve_entry_ports(first);
        let out_bits = self
            .output_ports
            .get(out_port)
            .unwrap_or_else(|| panic!("no output port named {out_port:?}"))
            .clone();
        assert!(out_bits.len() <= 63, "port {out_port} too wide");
        let watched = popcount_wide(&watch);
        let mut diverged = [0u64; W];
        for (entry, &want) in workload.iter().zip(golden) {
            match cycles {
                None => {
                    self.drive_entry_broadcast(&ports, first, entry);
                    self.settle(&[!0; W], false);
                    self.cycles += watched;
                }
                Some(c) => {
                    self.reset_regs(0..self.regs.len());
                    self.drive_entry_broadcast(&ports, first, entry);
                    self.run_cycles(&[!0; W], c, |_, _| {});
                    self.cycles += watched * c;
                }
            }
            let diff = self.output_diff_lanes(&out_bits, want);
            for w in 0..W {
                diverged[w] |= diff[w] & watch[w];
            }
            if diverged == watch {
                break;
            }
        }
        if cycles.is_some() {
            // Leave the registers at power-on instead of 64*W different
            // faulty machines' leftovers: non-forced registers would
            // otherwise stay lane-divergent after the campaign chunk, and
            // release_net only heals the *forced* nets.
            self.reset_regs(0..self.regs.len());
        }
        diverged
    }

    // ---- cone-scheduled PPSFP (evaluate only downstream of the sites) ----

    /// The net → reader-op table of this simulator's compiled program (see
    /// [`ReaderTable`]), the index [`BitSlicedSimulator::cone_schedule`]
    /// searches. Built on demand, so only fault campaigns pay for it.
    pub(crate) fn reader_table(&self) -> ReaderTable {
        let nets = self.words.len();
        // Distinct nets an op reads: pins past the arity repeat the first.
        let distinct = |op: &Op| {
            let ins = op.ins;
            (0..3).filter(move |&k| !ins[..k].contains(&ins[k])).map(move |k| ins[k] as usize)
        };
        let mut offsets = vec![0u32; nets + 1];
        for op in &self.prog {
            for n in distinct(op) {
                offsets[n + 1] += 1;
            }
        }
        for n in 0..nets {
            offsets[n + 1] += offsets[n];
        }
        let mut next = offsets.clone();
        let mut targets = vec![0u32; offsets[nets] as usize];
        for (p, op) in self.prog.iter().enumerate() {
            for n in distinct(op) {
                targets[next[n] as usize] = p as u32;
                next[n] += 1;
            }
        }
        ReaderTable { offsets, targets }
    }

    /// Builds, into `sched`, the cone schedule of one PPSFP chunk: the ops
    /// downstream of the chunk's pinned `roots` (register feedback
    /// included — reaching a register's input puts the register in the
    /// cone and continues from its output, exactly like
    /// [`FanoutCones::cone`](pe_netlist::graph::FanoutCones::cone)),
    /// compiled into a sub-program of combinational ops and a list of
    /// register indices, plus the frontier nets the cone reads from the
    /// fault-free world. The chunk's sites must already be pinned: the
    /// copied ops and frontier entries fix their pinned bits here.
    ///
    /// The search walks `readers` and marks ops in a bitset over program
    /// positions; the set bits, read in ascending order, are the cone in
    /// program order. Its cost follows the cone, not the netlist: the
    /// net-indexed marks are epoch-stamped and reused across chunks.
    ///
    /// A net is *cone-driven* when its driver is in the cone; every other
    /// net holds its fault-free value in all lanes throughout the chunk —
    /// no pinned site can reach it — which is what makes loading the
    /// frontier from a golden trajectory exact. Root nets whose driver is
    /// outside the cone (the common case: the fault's upstream cell) join
    /// the frontier so the pinned lanes merge against golden values, and
    /// are valid nets so sites on dead-end nets wired straight to an
    /// output port are still observed by the divergence diff.
    pub(crate) fn cone_schedule(
        &self,
        readers: &ReaderTable,
        roots: &[pe_netlist::NetId],
        sched: &mut ConeSchedule,
    ) {
        let ConeSchedule { comb, regs, frontier, valid, epoch, in_cone, stack } = sched;
        comb.clear();
        regs.clear();
        frontier.clear();
        valid.resize(self.words.len(), 0);
        in_cone.resize(self.prog.len().div_ceil(64), 0);
        *epoch = epoch.wrapping_add(1);
        if *epoch == 0 {
            valid.fill(0);
            *epoch = 1;
        }
        let epoch = *epoch;

        let (mut lo, mut hi) = (usize::MAX, 0);
        stack.extend(roots.iter().map(|r| r.index() as u32));
        while let Some(n) = stack.pop() {
            for &p in readers.readers(n as usize) {
                let (wi, bit) = (p as usize / 64, 1u64 << (p % 64));
                if in_cone[wi] & bit == 0 {
                    in_cone[wi] |= bit;
                    (lo, hi) = (lo.min(wi), hi.max(wi));
                    stack.push(self.prog[p as usize].out);
                }
            }
        }

        let base = self.order.len();
        for wi in lo..=hi {
            let mut bits = std::mem::take(&mut in_cone[wi]);
            while bits != 0 {
                let p = wi * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                let op = self.prog[p];
                valid[op.out as usize] = epoch;
                if p < base {
                    comb.push(op);
                } else {
                    regs.push((p - base) as u32);
                }
            }
        }

        let reg_ops = regs.iter().map(|&i| &self.prog[base + i as usize]);
        let inputs = comb.iter().chain(reg_ops).flat_map(|op| op.ins);
        for n in inputs.chain(roots.iter().map(|r| r.index() as u32)) {
            let i = n as usize;
            if valid[i] != epoch {
                valid[i] = epoch;
                frontier.push((n, self.forced_mask[i] != [0; W]));
            }
        }
    }

    /// Loads every frontier net from the golden trajectory at settle point
    /// `point` of entry `e`, broadcast across the lanes with pinned lanes
    /// re-merged — the cone counterpart of driving an entry broadcast.
    fn load_frontier(
        &mut self,
        sched: &ConeSchedule,
        traj: &GoldenTrajectory,
        point: usize,
        e: usize,
    ) {
        for &(n, pinned) in &sched.frontier {
            let i = n as usize;
            let b = broadcast(traj.bit(point, e, i));
            let w = &mut self.words[i];
            if pinned {
                let (fm, fv) = (&self.forced_mask[i], &self.forced_vals[i]);
                for k in 0..W {
                    w[k] = (b & !fm[k]) | (fv[k] & fm[k]);
                }
            } else {
                *w = [b; W];
            }
        }
    }

    /// One settle pass over the cone's sub-program only. It is in program
    /// order, so this is a valid topological sweep of the cone; inputs from
    /// outside the cone were frontier-loaded.
    fn eval_cone(&mut self, sched: &ConeSchedule) {
        for op in &sched.comb {
            self.step(op, &[!0; W], Tally::Off);
        }
        self.cell_evals += sched.comb.len() as u64;
    }

    /// Cone-scheduled PPSFP inner loop: the exact counterpart of
    /// [`BitSlicedSimulator::lanes_diverging_comb`] /
    /// [`BitSlicedSimulator::lanes_diverging_seq_reset`] that evaluates only
    /// the chunk's fanout cone. Per workload entry the frontier is loaded
    /// from the precomputed fault-free `traj` states (and for sequential
    /// designs the cone registers are reset, then capture/update/settle per
    /// cycle tracks the trajectory state by state), so every net outside the
    /// cone provably holds its golden value — the divergence diff therefore
    /// only inspects output bits in `valid_net`. Verdicts, early exit and
    /// cycle accounting are bit-identical to the full-sweep path.
    pub(crate) fn lanes_diverging_cone(
        &mut self,
        sched: &ConeSchedule,
        traj: &GoldenTrajectory,
        out_port: &str,
        golden: &[i64],
        watch: [u64; W],
    ) -> [u64; W] {
        assert!(
            !self.toggles.is_enabled(),
            "PPSFP lanes hold different machines; activity accounting is undefined"
        );
        assert!(golden.len() >= traj.entries(), "golden response shorter than the workload");
        if traj.entries() == 0 || watch == [0; W] {
            return [0; W];
        }
        let out_bits = self
            .output_ports
            .get(out_port)
            .unwrap_or_else(|| panic!("no output port named {out_port:?}"))
            .clone();
        assert!(out_bits.len() <= 63, "port {out_port} too wide");
        // Only output bits the cone can reach (or frontier-loaded root
        // nets wired straight to the port) can diverge; the rest may hold
        // stale slabs and are provably golden anyway.
        let cone_bits: Vec<(usize, pe_netlist::NetId)> = out_bits
            .iter()
            .enumerate()
            .filter(|(_, b)| sched.valid_net(b.index()))
            .map(|(j, &b)| (j, b))
            .collect();
        let cycles = traj.cycles_per_entry();
        let watched = popcount_wide(&watch);
        let mut diverged = [0u64; W];
        for (e, &want) in golden.iter().enumerate().take(traj.entries()) {
            match cycles {
                None => {
                    self.load_frontier(sched, traj, 0, e);
                    self.eval_cone(sched);
                    self.cycles += watched;
                }
                Some(c) => {
                    // Non-cone registers need no reset: if the cone reads
                    // them their output nets are frontier-loaded, and the
                    // golden trajectory's first state *is* the post-reset
                    // state.
                    let regs = sched.regs.iter().map(|&i| i as usize);
                    self.reset_regs(regs.clone());
                    self.load_frontier(sched, traj, 0, e);
                    self.eval_cone(sched);
                    for k in 1..=c as usize {
                        self.clock_regs(regs.clone(), &[!0; W]);
                        self.load_frontier(sched, traj, k, e);
                        self.eval_cone(sched);
                    }
                    self.cycles += watched * c;
                }
            }
            let mut diff = [0u64; W];
            for &(j, b) in &cone_bits {
                let want_b = broadcast((want >> j) & 1 == 1);
                let slab = &self.words[b.index()];
                for w in 0..W {
                    diff[w] |= slab[w] ^ want_b;
                }
            }
            for w in 0..W {
                diverged[w] |= diff[w] & watch[w];
            }
            if diverged == watch {
                break;
            }
        }
        diverged
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{BatchMode, Simulator};
    use pe_netlist::Builder;

    fn full_adder_x() -> Netlist {
        let mut b = Builder::new("fa");
        let a = b.input("x0");
        let x = b.input("x1");
        let cin = b.input("x2");
        let s1 = b.xor2(a, x);
        let sum = b.xor2(s1, cin);
        let carry = b.maj3(a, x, cin);
        b.output("sum", sum);
        b.output("carry", carry);
        b.finish()
    }

    #[test]
    fn profiled_batches_feed_the_hook_and_match_unprofiled_outputs() {
        let nl = full_adder_x();
        let vectors: Vec<Vec<i64>> =
            (0..150).map(|i| vec![i & 1, (i >> 1) & 1, (i >> 2) & 1]).collect();
        let rec = std::sync::Arc::new(pe_obs::ProfileRecorder::new());

        let mut plain = Simulator::new(&nl).unwrap();
        let want = plain.run_batch(&vectors, 0, "sum");

        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_profile(Some(rec.clone()));
        let got = sim.run_batch(&vectors, 0, "sum");
        assert_eq!(got, want, "profiling must not change batch results");

        let s = rec.snapshot();
        assert_eq!(s.batches, 1);
        assert_eq!(s.lanes, 150);
        assert_eq!(s.sweeps, 3, "150 vectors at W1 = three 64-lane sweeps");
        assert_eq!(s.cycles, got.cycles);
        assert!(s.cell_evals > 0, "a comb settle spends cell evaluations");
    }

    #[test]
    fn lane_mask_edges() {
        assert_eq!(lane_mask_wide::<1>(1), [1]);
        assert_eq!(lane_mask_wide::<1>(63), [(1u64 << 63) - 1]);
        assert_eq!(lane_mask_wide::<1>(64), [!0]);
    }

    #[test]
    fn wide_lane_mask_straddles_word_boundaries() {
        assert_eq!(lane_mask_wide::<1>(64), [!0]);
        assert_eq!(lane_mask_wide::<2>(63), [(1u64 << 63) - 1, 0]);
        assert_eq!(lane_mask_wide::<2>(64), [!0, 0]);
        assert_eq!(lane_mask_wide::<2>(65), [!0, 1]);
        assert_eq!(lane_mask_wide::<4>(128), [!0, !0, 0, 0]);
        assert_eq!(lane_mask_wide::<4>(129), [!0, !0, 1, 0]);
        assert_eq!(lane_mask_wide::<8>(512), [!0; 8]);
        assert_eq!(lane_mask_wide::<8>(511), {
            let mut m = [!0u64; 8];
            m[7] = (1u64 << 63) - 1;
            m
        });
        assert_eq!(popcount_wide(&lane_mask_wide::<8>(300)), 300);
    }

    #[test]
    fn lane_width_knob_round_trips() {
        for w in LaneWidth::ALL {
            assert_eq!(LaneWidth::parse(&w.to_string()), Some(w));
            assert_eq!(LaneWidth::parse(&w.lanes().to_string()), Some(w));
            assert_eq!(w.lanes(), 64 * w.words());
        }
        assert_eq!(LaneWidth::parse("3"), None);
        assert_eq!(LaneWidth::default(), LaneWidth::W1);
        assert_eq!(LaneWidth::for_sites(1), LaneWidth::W1);
        assert_eq!(LaneWidth::for_sites(64), LaneWidth::W1);
        assert_eq!(LaneWidth::for_sites(65), LaneWidth::W2);
        assert_eq!(LaneWidth::for_sites(256), LaneWidth::W4);
        assert_eq!(LaneWidth::for_sites(257), LaneWidth::W8);
        assert_eq!(LaneWidth::for_sites(10_000), LaneWidth::W8);
        // A tiny netlist always earns the full cache-line slab.
        assert_eq!(LaneWidth::auto_for_netlist(&full_adder_x()), LaneWidth::W8);
    }

    #[test]
    fn batch_width_is_the_narrowest_that_keeps_the_cap_chunking() {
        // The per-batch slab rule: sweeping at `for_batch(n, cap)` must cut
        // the batch into exactly as many chunks as `cap` would (so chunk
        // boundaries, and with them sequential state carry and toggles,
        // never move), and no narrower width may manage that.
        let chunks = |n: usize, w: LaneWidth| n.div_ceil(w.lanes());
        for cap in LaneWidth::ALL {
            for n in 1..=1100 {
                let w = LaneWidth::for_batch(n, cap);
                assert!(w.words() <= cap.words(), "n={n} cap={cap}: {w} is wider than the cap");
                assert_eq!(chunks(n, w), chunks(n, cap), "n={n} cap={cap}: {w} moves chunks");
                for narrower in LaneWidth::ALL.into_iter().filter(|v| v.words() < w.words()) {
                    assert_ne!(
                        chunks(n, narrower),
                        chunks(n, cap),
                        "n={n} cap={cap}: {narrower} would also do, {w} is not the narrowest"
                    );
                }
            }
        }
    }

    #[test]
    fn comb_batch_matches_scalar_engine_exactly() {
        let nl = full_adder_x();
        let vectors: Vec<Vec<i64>> =
            (0..8).map(|v| (0..3).map(|i| (v >> i) & 1).collect()).collect();

        let mut scalar = Simulator::new(&nl).unwrap();
        scalar.set_batch_mode(BatchMode::Scalar);
        scalar.enable_activity();
        let want = scalar.run_batch(&vectors, 0, "sum");

        let mut sliced: BitSlicedSimulator<'_> = BitSlicedSimulator::new(&nl).unwrap();
        sliced.enable_activity();
        let got = sliced.run_batch(&vectors, 0, "sum");

        assert_eq!(got, want);
        assert_eq!(sliced.activity(), scalar.activity());
    }

    #[test]
    fn wide_comb_batch_matches_narrow_engine_exactly() {
        // Combinational outputs *and* serial toggle accounting are
        // width-invariant: sweep every width over the same batch.
        let nl = full_adder_x();
        let vectors: Vec<Vec<i64>> =
            (0..8).map(|v| (0..3).map(|i| (v >> i) & 1).collect()).collect();
        let mut narrow = BitSlicedSimulator::<1>::new(&nl).unwrap();
        narrow.enable_activity();
        let want = narrow.run_batch(&vectors, 0, "sum");
        macro_rules! check {
            ($w:literal) => {
                let mut wide = BitSlicedSimulator::<'_, $w>::new(&nl).unwrap();
                wide.enable_activity();
                let got = wide.run_batch(&vectors, 0, "sum");
                assert_eq!(got, want, "W={} diverged", $w);
                assert_eq!(wide.activity(), narrow.activity(), "W={} toggles diverged", $w);
            };
        }
        check!(2);
        check!(4);
        check!(8);
    }

    #[test]
    fn forced_net_is_pinned_in_every_lane() {
        let nl = full_adder_x();
        let site = crate::faults::enumerate_fault_sites(&nl)[0];
        let mut sliced = BitSlicedSimulator::<'_, 2>::new(&nl).unwrap();
        sliced.force_net(site.net, true);
        let vectors: Vec<Vec<i64>> =
            (0..8).map(|v| (0..3).map(|i| (v >> i) & 1).collect()).collect();
        sliced.run_batch(&vectors, 0, "sum");
        assert_eq!(sliced.words[site.net.index()], [!0; 2], "stuck-at-1 must hold in all lanes");
        sliced.release_net(site.net);
        let healthy = sliced.run_batch(&vectors, 0, "sum");
        let mut scalar = Simulator::new(&nl).unwrap();
        scalar.set_batch_mode(BatchMode::Scalar);
        assert_eq!(healthy.outputs, scalar.run_batch(&vectors, 0, "sum").outputs);
    }

    #[test]
    fn force_lanes_pins_only_the_masked_lanes() {
        // Pin `sum`'s driving net to 1 in lane 2 only: lanes 0/1/3.. keep
        // evaluating normally while lane 2 behaves as its own faulty machine.
        let nl = full_adder_x();
        let sum_net = nl.ports().iter().find(|p| p.name() == "sum").unwrap().bits()[0];
        let vectors: Vec<Vec<i64>> =
            (0..8).map(|v| (0..3).map(|i| (v >> i) & 1).collect()).collect();
        let mut healthy = BitSlicedSimulator::<1>::new(&nl).unwrap();
        let want = healthy.run_batch(&vectors, 0, "sum");

        let mut sliced = BitSlicedSimulator::<1>::new(&nl).unwrap();
        sliced.force_lanes(sum_net, [!0], [1 << 2]);
        let golden: Vec<i64> = want.outputs.clone();
        let diverged = sliced.lanes_diverging_comb(
            &(0..8)
                .map(|v| (0..3).map(|i| (format!("x{i}"), (v >> i) & 1)).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
            "sum",
            &golden,
            [0b1111],
        );
        // Only lane 2 is faulty; sum=1 disagrees with golden on the four
        // even-parity vectors, so lane 2 must diverge and no other lane may.
        assert_eq!(diverged, [1 << 2]);
        sliced.release_net(sum_net);
        let got = sliced.run_batch(&vectors, 0, "sum");
        assert_eq!(got.outputs, want.outputs, "release must fully heal the lane");
    }

    #[test]
    fn force_lane_pins_across_word_boundaries() {
        // The same single-lane fault behaves identically whether the lane
        // lives in word 0 or word 3 of a wide slab.
        let nl = full_adder_x();
        let sum_net = nl.ports().iter().find(|p| p.name() == "sum").unwrap().bits()[0];
        let workload: Vec<Vec<(String, i64)>> = (0..8)
            .map(|v| (0..3).map(|i| (format!("x{i}"), (v >> i) & 1)).collect::<Vec<_>>())
            .collect();
        let mut healthy = BitSlicedSimulator::<1>::new(&nl).unwrap();
        let golden = healthy.run_workload_comb(&workload, "sum");

        let mut sliced = BitSlicedSimulator::<'_, 4>::new(&nl).unwrap();
        let lane = 3 * 64 + 17;
        sliced.force_lane(sum_net, lane, true);
        let watch = lane_mask_wide::<4>(256);
        let diverged = sliced.lanes_diverging_comb(&workload, "sum", &golden, watch);
        let mut want = [0u64; 4];
        want[3] = 1 << 17;
        assert_eq!(diverged, want, "only the forced lane may diverge");
    }

    #[test]
    fn force_lanes_merges_conflicting_values_per_lane() {
        let nl = full_adder_x();
        let site = crate::faults::enumerate_fault_sites(&nl)[0];
        let mut sliced = BitSlicedSimulator::<1>::new(&nl).unwrap();
        // Stuck-at-0 in lane 0, stuck-at-1 in lane 1 on the same net.
        sliced.force_lanes(site.net, [0], [1 << 0]);
        sliced.force_lanes(site.net, [!0], [1 << 1]);
        let vectors: Vec<Vec<i64>> =
            (0..8).map(|v| (0..3).map(|i| (v >> i) & 1).collect()).collect();
        sliced.run_batch(&vectors, 0, "sum");
        let w = sliced.words[site.net.index()][0];
        assert_eq!(w & 0b11, 0b10, "lane 0 pinned low, lane 1 pinned high");
    }

    #[test]
    fn ragged_chunk_never_leaks_garbage_lanes() {
        // A single vector (1 active lane of 512): totals must match a scalar
        // run exactly, proving masked lanes contribute nothing.
        let nl = full_adder_x();
        let vectors = vec![vec![1, 1, 0]];
        let mut scalar = Simulator::new(&nl).unwrap();
        scalar.set_batch_mode(BatchMode::Scalar);
        scalar.enable_activity();
        let want = scalar.run_batch(&vectors, 0, "carry");
        let mut sliced = BitSlicedSimulator::<'_, 8>::new(&nl).unwrap();
        sliced.enable_activity();
        let got = sliced.run_batch(&vectors, 0, "carry");
        assert_eq!(got, want);
        assert_eq!(sliced.activity().total_toggles(), scalar.activity().total_toggles());
        assert_eq!(sliced.cycles(), 1);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let nl = full_adder_x();
        let mut sliced: BitSlicedSimulator<'_> = BitSlicedSimulator::new(&nl).unwrap();
        sliced.enable_activity();
        let r = sliced.run_batch(&[], 0, "sum");
        assert!(r.outputs.is_empty());
        assert_eq!(r.cycles, 0);
        assert_eq!(sliced.activity().total_toggles(), 0);
    }

    #[test]
    fn sequential_chunk_streaming_matches_scalar_reference() {
        // q' = x0 XOR x1 through a register; outputs depend only on the
        // current vector, so chunked streaming agrees with a serial loop.
        let mut b = Builder::new("tog");
        let x0 = b.input("x0");
        let x1 = b.input("x1");
        let nxt = b.xor2(x0, x1);
        let q = b.dff(nxt, false);
        b.output("q", q);
        let nl = b.finish();
        let vectors = vec![vec![1, 0], vec![1, 1], vec![0, 0], vec![0, 1]];

        let mut scalar = Simulator::new(&nl).unwrap();
        scalar.set_batch_mode(BatchMode::Scalar);
        scalar.enable_activity();
        let want = scalar.run_batch(&vectors, 2, "q");

        let mut sliced: BitSlicedSimulator<'_> = BitSlicedSimulator::new(&nl).unwrap();
        sliced.enable_activity();
        let got = sliced.run_batch(&vectors, 2, "q");
        assert_eq!(got, want);
        assert_eq!(sliced.activity(), scalar.activity());
        assert_eq!(got.cycles, 8);
    }

    #[test]
    #[should_panic(expected = "same ports in the same order")]
    fn heterogeneous_workload_chunk_panics() {
        let nl = full_adder_x();
        let mut sliced: BitSlicedSimulator<'_> = BitSlicedSimulator::new(&nl).unwrap();
        let workload = vec![
            vec![("x0".to_string(), 1), ("x1".to_string(), 0)],
            vec![("x1".to_string(), 1), ("x2".to_string(), 0)],
        ];
        let _ = sliced.run_workload_comb(&workload, "sum");
    }

    #[test]
    fn seq_reset_workload_restores_broadcast_invariant() {
        // After a reset-per-entry campaign run, a subsequent batch on the
        // same simulator must still agree with a fresh scalar reference:
        // the carry words may not stay lane-divergent.
        let mut b = Builder::new("tog");
        let x0 = b.input("x0");
        let x1 = b.input("x1");
        let nxt = b.xor2(x0, x1);
        let q = b.dff(nxt, false);
        b.output("q", q);
        let nl = b.finish();
        let mut sliced = BitSlicedSimulator::<'_, 2>::new(&nl).unwrap();
        let workload = vec![
            vec![("x0".to_string(), 1), ("x1".to_string(), 0)],
            vec![("x0".to_string(), 0), ("x1".to_string(), 1)],
            vec![("x0".to_string(), 1), ("x1".to_string(), 1)],
        ];
        let _ = sliced.run_workload_seq_reset(&workload, 1, "q");
        for w in &sliced.words {
            for &word in w {
                assert!(word == 0 || word == !0, "word {word:#x} not a broadcast after workload");
            }
        }
        let vectors = vec![vec![1, 0], vec![1, 1], vec![0, 1]];
        let got = sliced.run_batch(&vectors, 1, "q");
        let mut scalar = Simulator::new(&nl).unwrap();
        scalar.set_batch_mode(BatchMode::Scalar);
        // Bring the scalar reference to the same carried state first.
        for (p, v) in &workload[2] {
            scalar.set_input(p, *v);
        }
        scalar.reset();
        scalar.tick();
        let want = scalar.run_batch(&vectors, 1, "q");
        assert_eq!(got.outputs, want.outputs);
    }

    /// The cells of a built cone schedule as a cell-indexed membership
    /// vector, after checking that its ops and registers are in program
    /// order.
    fn schedule_cells(sim: &BitSlicedSimulator<'_>, sched: &ConeSchedule) -> Vec<bool> {
        let positions: Vec<u32> =
            sched.comb.iter().map(|op| sim.op_of_net[op.out as usize]).collect();
        assert!(positions.windows(2).all(|w| w[0] < w[1]), "cone ops out of program order");
        assert!(sched.regs.windows(2).all(|w| w[0] < w[1]), "cone registers out of order");
        let mut cells = vec![false; sim.nl.num_cells()];
        for &p in &positions {
            cells[sim.order[p as usize].index()] = true;
        }
        for &r in &sched.regs {
            cells[sim.regs[r as usize].index()] = true;
        }
        cells
    }

    /// Builds the reader-table cone of `roots` into the reused `sched` and
    /// checks it against [`FanoutCones::cone`](pe_netlist::graph::FanoutCones::cone)
    /// cell for cell, and its frontier and valid nets against their
    /// definitions over the netlist.
    fn assert_cone_matches(
        sim: &BitSlicedSimulator<'_>,
        readers: &ReaderTable,
        cones: &pe_netlist::graph::FanoutCones,
        roots: &[pe_netlist::NetId],
        sched: &mut ConeSchedule,
    ) {
        let nl = sim.nl;
        sim.cone_schedule(readers, roots, sched);
        let want = cones.cone(nl, roots);
        assert_eq!(schedule_cells(sim, sched), want, "{}: cone of {roots:?}", nl.name());

        let driven: Vec<bool> = nl
            .nets()
            .map(|(_, net)| matches!(net.driver(), pe_netlist::Driver::Cell(c) if want[c.index()]))
            .collect();
        let mut frontier = std::collections::BTreeSet::new();
        for (id, cell) in nl.cells() {
            if want[id.index()] {
                frontier.extend(cell.inputs().iter().map(|n| n.index()).filter(|&n| !driven[n]));
            }
        }
        frontier.extend(roots.iter().map(|r| r.index()).filter(|&n| !driven[n]));
        let got: Vec<usize> = sched.frontier.iter().map(|&(n, _)| n as usize).collect();
        assert_eq!(got.len(), frontier.len(), "{}: frontier of {roots:?} repeats a net", nl.name());
        assert_eq!(got.into_iter().collect::<std::collections::BTreeSet<_>>(), frontier);
        for n in 0..nl.num_nets() {
            let valid = driven[n] || frontier.contains(&n);
            assert_eq!(sched.valid_net(n), valid, "{}: valid net {n} of {roots:?}", nl.name());
        }
    }

    /// A design with nets wired to two pins of one cell, inside a register
    /// feedback loop.
    fn shared_pin_netlist() -> Netlist {
        use pe_netlist::testing::RawNetlistBuilder;
        let mut b = RawNetlistBuilder::new("shared_pins");
        let a = b.input("x0");
        let c = b.input("x1");
        let q = b.net(pe_netlist::Driver::Input);
        let t = b.net(pe_netlist::Driver::Input);
        b.cell(CellKind::And2, &[a, q], t);
        let m = b.net(pe_netlist::Driver::Input);
        b.cell(CellKind::Maj3, &[t, t, c], m);
        let x = b.net(pe_netlist::Driver::Input);
        b.cell(CellKind::Xor2, &[m, m], x);
        let y = b.net(pe_netlist::Driver::Input);
        b.cell(CellKind::Mux2, &[a, m, m], y);
        b.cell(CellKind::Dff, &[y], q);
        b.output("o0", &[x]);
        b.output("o1", &[q]);
        let nl = b.finish();
        nl.validate().unwrap();
        nl
    }

    #[test]
    fn reader_table_cones_match_fanout_cones() {
        use pe_netlist::testing::{random_netlist, RandomNetlistSpec};
        let mut designs = vec![shared_pin_netlist()];
        for seed in 0..6 {
            let spec = RandomNetlistSpec {
                inputs: 5,
                gates: 80,
                registers: (seed % 3) as usize * 3,
                outputs: 3,
                input_prefix: "x",
            };
            designs.push(random_netlist(&spec, 0xC0DE + seed));
        }
        for nl in &designs {
            let sim = BitSlicedSimulator::<'_, 1>::new(nl).unwrap();
            let readers = sim.reader_table();
            let cones = pe_netlist::graph::FanoutCones::new(nl);
            // One schedule reused for every build, as a campaign reuses it.
            let mut sched = ConeSchedule::default();
            let nets: Vec<pe_netlist::NetId> = nl.nets().map(|(id, _)| id).collect();
            for &n in &nets {
                assert_cone_matches(&sim, &readers, &cones, &[n], &mut sched);
                assert_cone_matches(&sim, &readers, &cones, &[n, n], &mut sched);
            }
            for (i, &n) in nets.iter().enumerate() {
                // A root inside another root's cone, in both orders, and a
                // duplicate among several roots.
                let cone = cones.cone(nl, &[n]);
                let inner: Vec<pe_netlist::NetId> =
                    nl.cells().filter(|(c, _)| cone[c.index()]).map(|(_, c)| c.output()).collect();
                if let Some(&d) = inner.get(i % inner.len().max(1)) {
                    assert_cone_matches(&sim, &readers, &cones, &[n, d], &mut sched);
                    assert_cone_matches(&sim, &readers, &cones, &[d, n], &mut sched);
                }
                let other = nets[(i * 7 + 3) % nets.len()];
                assert_cone_matches(&sim, &readers, &cones, &[n, other, n], &mut sched);
            }
            // The stamp wrapping around must not revive a stale mark.
            sched.epoch = u32::MAX;
            assert_cone_matches(&sim, &readers, &cones, &nets[nets.len() / 2..], &mut sched);
            assert_cone_matches(&sim, &readers, &cones, &[], &mut sched);
        }
    }

    #[test]
    #[should_panic(expected = "activity accounting is undefined")]
    fn seq_reset_workload_rejects_activity() {
        let mut b = Builder::new("r");
        let d = b.input("d");
        let q = b.dff(d, false);
        b.output("q", q);
        let nl = b.finish();
        let mut sliced: BitSlicedSimulator<'_> = BitSlicedSimulator::new(&nl).unwrap();
        sliced.enable_activity();
        let _ = sliced.run_workload_seq_reset(&[vec![("d".to_string(), 1)]], 1, "q");
    }
}
