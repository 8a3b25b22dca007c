//! Cycle-based gate-level logic simulation for printed bespoke circuits.
//!
//! This crate plays the role gate-level simulation plays in the paper's flow:
//! it verifies that generated netlists are bit-exact against behavioral golden
//! models, and it extracts per-net switching activity, the input to dynamic
//! power analysis (the equivalent of dumping SAIF from a simulator and handing
//! it to PrimeTime).
//!
//! The simulation model is two-valued and zero-delay: combinational cells are
//! evaluated in topological order until settled, flip-flops update on an
//! implicit common clock via [`Simulator::tick`]. Per-net toggle counts are
//! accumulated on every settle pass when activity tracking is enabled.
//!
//! Batched workloads ([`Simulator::run_batch`] and the fault campaigns in
//! [`faults`]) run **word-parallel** by default: [`BitSlicedSimulator`]
//! packs test vectors into a `[u64; W]` slab per net — 64 lanes per word,
//! with the runtime-selectable [`LaneWidth`] choosing `W` in 1/2/4/8 (64 to
//! 512 vectors per topological sweep) — and evaluates every gate for the
//! whole chunk with `W` bitwise operations, counting toggles by popcount.
//! The scalar engine remains available as [`BatchMode::Scalar`], the
//! reference oracle the differential test suite pins the sliced engine
//! against at every width. See [`bitslice`] for the slab layout, masking
//! rules and batch semantics.
//!
//! Serving workers answer batch after batch of one model on a
//! [`WarmSimulator`], built straight from the netlist by
//! [`WarmSimulator::new`]: the slab engine stays allocated and keeps its
//! state across batches, without borrowing the netlist (see [`warm`]).
//!
//! Stuck-at fault campaigns have one surface: [`faults::fault_campaign_comb`]
//! / [`faults::fault_campaign_seq`] by default, the `_ppsfp_wide_obs` pair
//! for an explicit width, cone mode and profile hook, and
//! [`collapse`]'s `_ppsfp_collapsed` pair for statically collapsed site
//! lists. [`faults::oracle`] is the rebuild-per-site reference they are all
//! checked against.
//!
//! # Example
//!
//! ```
//! use pe_netlist::Builder;
//! use pe_sim::Simulator;
//!
//! let mut b = Builder::new("adder1");
//! let a = b.input("a");
//! let c = b.input("b");
//! let sum = b.xor2(a, c);
//! let carry = b.and2(a, c);
//! b.output("sum", sum);
//! b.output("carry", carry);
//! let nl = b.finish();
//!
//! let mut sim = Simulator::new(&nl).unwrap();
//! sim.set_input("a", 1);
//! sim.set_input("b", 1);
//! sim.eval_comb();
//! assert_eq!(sim.output_unsigned("sum"), 0);
//! assert_eq!(sim.output_unsigned("carry"), 1);
//! ```

pub mod activity;
pub mod bitslice;
pub mod collapse;
pub mod faults;
pub mod sim;
pub mod warm;

pub use activity::ActivityReport;
pub use bitslice::{BitSlicedSimulator, LaneWidth};
pub use collapse::{
    fault_campaign_comb_ppsfp_collapsed, fault_campaign_seq_ppsfp_collapsed, CollapseStats,
};
pub use faults::{ConeMode, ConeStats, FaultReport, FaultSite};
pub use sim::{BatchMode, BatchResult, Simulator};
pub use warm::WarmSimulator;
