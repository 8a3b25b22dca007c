//! Stuck-at fault injection and fault simulation.
//!
//! Printed fabrication yields are far below silicon's: additively printed
//! transistors short or open at percent-level rates, so the printed-ML
//! literature cares which faults actually flip classifications. This module
//! implements the classic single-stuck-at model: a [`FaultSite`] pins one
//! net to a constant, and [`fault_campaign_comb`] / [`fault_campaign_seq`]
//! measure how many injected faults change a design's predictions on a
//! workload — the robustness analog of test-pattern fault coverage.
//!
//! Campaigns reuse **one** scheduled [`BitSlicedSimulator`] for every fault
//! site and run **PPSFP-style** (parallel-pattern single-fault propagation,
//! flipped): each bit-sliced lane carries a *different* fault site, pinned
//! per lane via [`BitSlicedSimulator::force_lane`], and every workload
//! pattern is driven broadcast across the lanes — up to `64 * W` faulty
//! machines (one slab word holds 64 lanes; the [`LaneWidth`] slab carries
//! 64–512) evaluating (or, under the per-classification reset protocol,
//! ticking) in lockstep per sweep. A per-lane divergence mask against the
//! fault-free golden response accumulates the verdicts, early-exiting once
//! every site in the sweep has diverged.
//!
//! Campaign verdicts are **width-invariant** — each lane is an independent
//! faulty machine reset per entry — so the default campaigns auto-pick the
//! smallest slab covering the site list ([`LaneWidth::for_sites`]): a
//! campaign with more than 64 sites automatically completes in fewer
//! sweeps.
//!
//! The campaign surface is three pairs, each with a combinational and a
//! sequential member:
//!
//! * [`fault_campaign_comb`] / [`fault_campaign_seq`] — the defaults: auto
//!   width, [`ConeMode::Auto`].
//! * [`fault_campaign_comb_ppsfp_wide_obs`] /
//!   [`fault_campaign_seq_ppsfp_wide_obs`] — explicit width, cone mode and
//!   an optional [`SimProfile`] hook; they also return the campaign's
//!   [`ConeStats`].
//! * [`crate::collapse::fault_campaign_comb_ppsfp_collapsed`] /
//!   [`crate::collapse::fault_campaign_seq_ppsfp_collapsed`] — the same
//!   verdicts with statically equivalent and unobservable sites retired
//!   before simulation.
//!
//! [`oracle`] keeps the original flow as the reference the differential
//! suites check every PPSFP campaign against, site by site: a freshly
//! scheduled scalar simulator per site, one pattern at a time.

use crate::bitslice::{lane_mask_wide, BitSlicedSimulator, LaneWidth, LANES};
use crate::sim::Simulator;
use pe_netlist::graph::FanoutCones;
use pe_netlist::{Driver, NetId, Netlist, NetlistError};
use pe_obs::{SimChunk, SimProfile};

/// One single-stuck-at fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSite {
    /// The faulted net.
    pub net: NetId,
    /// The value the net is stuck at.
    pub stuck_at: bool,
}

/// Enumerates candidate fault sites: every cell output net (input and
/// constant nets are excluded — faults there are modeled as cell faults of
/// their sinks).
#[must_use]
pub fn enumerate_fault_sites(nl: &Netlist) -> Vec<FaultSite> {
    let mut sites = Vec::new();
    for (id, net) in nl.nets() {
        if matches!(net.driver(), Driver::Cell(_)) {
            sites.push(FaultSite { net: id, stuck_at: false });
            sites.push(FaultSite { net: id, stuck_at: true });
        }
    }
    sites
}

/// Result of a fault-simulation campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultReport {
    /// Faults whose injection changed at least one prediction.
    pub critical: usize,
    /// Faults that never changed any prediction (logically masked or
    /// functionally tolerated by the classifier).
    pub benign: usize,
    /// Total faults simulated.
    pub total: usize,
}

impl FaultReport {
    /// Fraction of faults that altered behavior.
    #[must_use]
    pub fn criticality(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.critical as f64 / self.total as f64
        }
    }

    /// Folds per-site verdicts (`true` = critical) into a report.
    pub(crate) fn from_verdicts(verdicts: &[bool]) -> Self {
        let critical = verdicts.iter().filter(|&&v| v).count();
        FaultReport { critical, benign: verdicts.len() - critical, total: verdicts.len() }
    }
}

/// Cone-scheduling policy of the PPSFP campaigns.
///
/// A cone-scheduled chunk evaluates only the cells downstream of its `64 * W`
/// pinned sites (the union fanout cone, register feedback included), loading
/// everything the cone reads from a precomputed fault-free trajectory — the
/// verdicts are bit-identical to the full sweep either way, so this knob is
/// purely about work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ConeMode {
    /// Cone-schedule a chunk unless its union cone covers more than 3/4 of
    /// the combinational core, where a full sweep's better locality wins.
    #[default]
    Auto,
    /// Cone-schedule every chunk, however dense (benchmark / test knob).
    Always,
    /// Full sweeps only — the pre-cone campaign behavior (the reference the
    /// differential suites compare against).
    Never,
}

/// Work accounting of one PPSFP campaign (second element of the `_wide_obs`
/// campaign results): how many sweep chunks took the cone-scheduled path and
/// the total combinational cell evaluations spent, the metric cone
/// scheduling exists to shrink at identical verdicts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ConeStats {
    /// Total `64 * W`-site sweep chunks in the campaign.
    pub chunks: usize,
    /// Chunks evaluated through their fanout cone.
    pub cone_chunks: usize,
    /// Chunks that fell back to full sweeps (density threshold exceeded, or
    /// [`ConeMode::Never`]).
    pub fallback_chunks: usize,
    /// Combinational cell evaluations over the whole campaign, golden run
    /// included (see [`BitSlicedSimulator::cell_evals`]).
    pub cell_evals: u64,
}

/// The fault-free net-value trajectory of a campaign workload, captured once
/// with the scalar reference simulator: one bit-packed snapshot of **every**
/// net (bit `net.index()`) per settle point — one per entry for combinational
/// workloads, `cycles + 1` per entry (post-reset, then after each tick) under
/// the sequential per-classification reset protocol. Cone-scheduled chunks
/// load their frontier nets from these snapshots instead of recomputing the
/// fault-free world per sweep.
#[derive(Debug)]
pub(crate) struct GoldenTrajectory {
    /// `entries * per_entry` snapshots, each entry's consecutive.
    states: Vec<Vec<u64>>,
    /// Snapshots per workload entry (`1` comb, `cycles + 1` seq).
    per_entry: usize,
    /// `Some(cycles)` for sequential workloads, `None` for combinational.
    cycles: Option<u64>,
}

impl GoldenTrajectory {
    /// Runs the workload on a fresh scalar simulator, snapshotting every
    /// settle point of every entry. The settle points are exactly the ones
    /// the bit-sliced PPSFP driver visits: sequential entries reset the
    /// registers to power-on, settle (snapshot 0), then tick `cycles` times
    /// (snapshots `1..=cycles`); combinational entries drive and settle.
    pub(crate) fn capture(
        nl: &Netlist,
        workload: &[Vec<(String, i64)>],
        cycles: Option<u64>,
    ) -> Result<Self, NetlistError> {
        let mut sim = Simulator::new(nl)?;
        let words = nl.num_nets().div_ceil(64);
        let per_entry = match cycles {
            None => 1,
            Some(c) => c as usize + 1,
        };
        let mut states = Vec::with_capacity(workload.len() * per_entry);
        for entry in workload {
            for (p, v) in entry {
                sim.set_input(p, *v);
            }
            match cycles {
                None => {
                    sim.eval_comb();
                    states.push(Self::snapshot(&sim, nl, words));
                }
                Some(c) => {
                    sim.reset();
                    states.push(Self::snapshot(&sim, nl, words));
                    for _ in 0..c {
                        sim.tick();
                        states.push(Self::snapshot(&sim, nl, words));
                    }
                }
            }
        }
        Ok(GoldenTrajectory { states, per_entry, cycles })
    }

    fn snapshot(sim: &Simulator<'_>, nl: &Netlist, words: usize) -> Vec<u64> {
        let mut s = vec![0u64; words];
        for (id, _) in nl.nets() {
            if sim.net_value(id) {
                s[id.index() / 64] |= 1u64 << (id.index() % 64);
            }
        }
        s
    }

    /// Number of workload entries captured.
    pub(crate) fn entries(&self) -> usize {
        self.states.len() / self.per_entry
    }

    /// The consecutive snapshots of one entry (`per_entry` of them).
    pub(crate) fn entry_states(&self, e: usize) -> &[Vec<u64>] {
        &self.states[e * self.per_entry..(e + 1) * self.per_entry]
    }

    /// `Some(cycles)` for sequential workloads, `None` for combinational.
    pub(crate) fn cycles_per_entry(&self) -> Option<u64> {
        self.cycles
    }
}

/// Runs a fault campaign on a **combinational** design: for each fault,
/// drives every workload vector and compares the output port against the
/// fault-free run. This is the PPSFP path at the auto-picked width
/// ([`LaneWidth::for_sites`]) under [`ConeMode::Auto`] — one fault site per
/// bit-sliced lane; see [`fault_campaign_comb_ppsfp_wide_obs`].
///
/// # Panics
///
/// Panics if the design is sequential (use [`fault_campaign_seq`] for
/// clocked circuits) or ports are unknown.
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn fault_campaign_comb(
    nl: &Netlist,
    faults: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out_port: &str,
) -> Result<FaultReport, NetlistError> {
    let width = LaneWidth::for_sites(faults.len());
    fault_campaign_comb_ppsfp_wide_obs(nl, faults, workload, out_port, width, ConeMode::Auto, None)
        .map(|(report, _)| report)
}

/// Runs a fault campaign on a **sequential** design: each workload entry
/// starts from power-on register state (faults stay pinned across the
/// reset), is driven for `cycles` clock ticks (inputs held), and the output
/// port is compared against the fault-free run — faults are judged per
/// classification. This is the PPSFP path at the auto-picked width under
/// [`ConeMode::Auto`]; see [`fault_campaign_seq_ppsfp_wide_obs`].
///
/// # Panics
///
/// Panics on unknown ports or `cycles == 0`.
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn fault_campaign_seq(
    nl: &Netlist,
    faults: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out_port: &str,
    cycles: u64,
) -> Result<FaultReport, NetlistError> {
    let width = LaneWidth::for_sites(faults.len());
    let mode = ConeMode::Auto;
    fault_campaign_seq_ppsfp_wide_obs(nl, faults, workload, out_port, cycles, width, mode, None)
        .map(|(report, _)| report)
}

/// Pins one chunk of fault sites, one per lane, and returns the watch mask.
fn force_site_lanes<const W: usize>(
    sim: &mut BitSlicedSimulator<'_, W>,
    chunk: &[FaultSite],
) -> [u64; W] {
    for (l, f) in chunk.iter().enumerate() {
        sim.force_lane(f.net, l, f.stuck_at);
    }
    lane_mask_wide::<W>(chunk.len())
}

/// The width-monomorphized PPSFP campaign frame shared by every campaign:
/// pin `64 * W` sites per sweep, drive the workload broadcast, accumulate
/// divergence, release. Under [`ConeMode::Auto`] / [`ConeMode::Always`]
/// each chunk is evaluated through its fanout cone (frontier loaded from a
/// once-captured [`GoldenTrajectory`]) whenever the cone is sparse enough
/// to pay; every chunk's verdicts are bit-identical either way.
///
/// `verdicts[i]` is true iff pinning `faults[i]` diverged the observed port
/// on some workload entry. The aggregate campaigns fold this into a
/// [`FaultReport`]; the collapsed campaigns ([`crate::collapse`]) expand it
/// back over equivalence classes.
fn fault_campaign_ppsfp_verdicts_w<const W: usize>(
    nl: &Netlist,
    faults: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out_port: &str,
    cycles: Option<u64>,
    mode: ConeMode,
    profile: Option<&dyn SimProfile>,
) -> Result<(Vec<bool>, ConeStats), NetlistError> {
    let mut sim = BitSlicedSimulator::<'_, W>::new(nl)?;
    let golden = match cycles {
        None => sim.run_workload_comb(workload, out_port),
        Some(c) => sim.run_workload_seq_reset(workload, c, out_port),
    };
    if let Some(p) = profile {
        // Fed first so a recorder's campaign totals reconcile exactly with
        // the exit-summary `ConeStats::cell_evals` (golden + chunk deltas).
        p.on_campaign_golden(sim.cell_evals());
    }
    let prep = if mode != ConeMode::Never && !faults.is_empty() {
        Some((FanoutCones::new(nl), GoldenTrajectory::capture(nl, workload, cycles)?))
    } else {
        None
    };
    let mut stats = ConeStats::default();
    let mut verdicts = Vec::with_capacity(faults.len());
    for chunk in faults.chunks(LANES * W) {
        stats.chunks += 1;
        let evals_before = sim.cell_evals();
        let watch = force_site_lanes(&mut sim, chunk);
        let mut cone_diverged = None;
        let mut cone_cells = 0usize;
        if let Some((cones, traj)) = &prep {
            let mut roots: Vec<NetId> = chunk.iter().map(|f| f.net).collect();
            roots.dedup();
            let sched = sim.cone_schedule(cones, &roots);
            cone_cells = sched.comb_cells();
            // Density threshold: past ~3/4 of the core a cone pass does
            // nearly a full sweep's work with worse locality, so Auto falls
            // back to the plain path.
            let dense = sched.comb_cells() * 4 > sim.scheduled_cells() * 3;
            if mode == ConeMode::Always || !dense {
                cone_diverged =
                    Some(sim.lanes_diverging_cone(&sched, traj, out_port, &golden, watch));
            }
        }
        let (diverged, cone_scheduled) = match cone_diverged {
            Some(d) => {
                stats.cone_chunks += 1;
                (d, true)
            }
            None => {
                stats.fallback_chunks += 1;
                let d = match cycles {
                    None => sim.lanes_diverging_comb(workload, out_port, &golden, watch),
                    Some(c) => sim.lanes_diverging_seq_reset(workload, c, out_port, &golden, watch),
                };
                (d, false)
            }
        };
        for l in 0..chunk.len() {
            verdicts.push(diverged[l / 64] >> (l % 64) & 1 == 1);
        }
        for f in chunk {
            sim.release_net(f.net);
        }
        if let Some(p) = profile {
            p.on_chunk(&SimChunk {
                sites: chunk.len(),
                cone_scheduled,
                cone_cells,
                core_cells: sim.scheduled_cells(),
                cell_evals: sim.cell_evals() - evals_before,
            });
        }
    }
    stats.cell_evals = sim.cell_evals();
    Ok((verdicts, stats))
}

/// The one width dispatch of the PPSFP campaigns: per-site verdicts and
/// work accounting at `width`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn ppsfp_verdicts(
    nl: &Netlist,
    faults: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out_port: &str,
    cycles: Option<u64>,
    width: LaneWidth,
    mode: ConeMode,
    profile: Option<&dyn SimProfile>,
) -> Result<(Vec<bool>, ConeStats), NetlistError> {
    let (f, w, o, c, m, p) = (faults, workload, out_port, cycles, mode, profile);
    match width {
        LaneWidth::W1 => fault_campaign_ppsfp_verdicts_w::<1>(nl, f, w, o, c, m, p),
        LaneWidth::W2 => fault_campaign_ppsfp_verdicts_w::<2>(nl, f, w, o, c, m, p),
        LaneWidth::W4 => fault_campaign_ppsfp_verdicts_w::<4>(nl, f, w, o, c, m, p),
        LaneWidth::W8 => fault_campaign_ppsfp_verdicts_w::<8>(nl, f, w, o, c, m, p),
    }
}

/// PPSFP fault campaign on a **combinational** design at an explicit
/// [`LaneWidth`] and [`ConeMode`]: fault sites are packed `64 * W` per slab
/// (site `l` of a chunk pinned in lane `l` via
/// [`BitSlicedSimulator::force_lane`]), every workload pattern is driven
/// broadcast across the lanes, and a per-lane divergence mask against the
/// fault-free golden response collects the verdicts — with an early exit
/// once every site in the sweep has diverged. One simulator is scheduled
/// for the whole campaign.
///
/// Settled values are lane-wise pure functions of the broadcast inputs and
/// the lane's pinned net, so the verdicts are bit-identical to the
/// rebuild-per-site reference ([`oracle::fault_campaign_comb`]), site for
/// site, at every width and in every mode; only the returned [`ConeStats`]
/// differ.
///
/// An optional [`SimProfile`] hook is fed live during the campaign: once per
/// `64 * W`-site chunk ([`SimProfile::on_chunk`] — cone-scheduled or
/// fallback, with the cone/core cell counts and the chunk's
/// cell-evaluation cost) and once for the golden run
/// ([`SimProfile::on_campaign_golden`]). A [`pe_obs::ProfileRecorder`]'s
/// campaign totals reconcile exactly with the returned [`ConeStats`].
///
/// # Panics
///
/// Panics if the design is sequential or ports are unknown.
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn fault_campaign_comb_ppsfp_wide_obs(
    nl: &Netlist,
    faults: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out_port: &str,
    width: LaneWidth,
    mode: ConeMode,
    profile: Option<&dyn SimProfile>,
) -> Result<(FaultReport, ConeStats), NetlistError> {
    assert!(
        crate::sim::is_combinational(nl),
        "fault_campaign_comb requires a combinational design"
    );
    let (verdicts, stats) =
        ppsfp_verdicts(nl, faults, workload, out_port, None, width, mode, profile)?;
    Ok((FaultReport::from_verdicts(&verdicts), stats))
}

/// PPSFP fault campaign on a **sequential** design at an explicit
/// [`LaneWidth`] and [`ConeMode`], under the per-classification reset
/// protocol: `64 * W` faulty machines — one fault site per lane — reset,
/// load the broadcast pattern and tick in lockstep, per workload entry,
/// against the fault-free golden response
/// ([`BitSlicedSimulator::lanes_diverging_seq_reset`]). The reset keeps
/// pinned lanes pinned, so the verdicts are bit-identical to the
/// rebuild-per-site reference ([`oracle::fault_campaign_seq`]), site for
/// site, at every width and in every mode. See
/// [`fault_campaign_comb_ppsfp_wide_obs`] for the profile feed points and
/// their reconciliation with the returned [`ConeStats`].
///
/// # Panics
///
/// Panics on unknown ports or `cycles == 0`.
///
/// # Errors
///
/// Propagates scheduling errors.
#[allow(clippy::too_many_arguments)]
pub fn fault_campaign_seq_ppsfp_wide_obs(
    nl: &Netlist,
    faults: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out_port: &str,
    cycles: u64,
    width: LaneWidth,
    mode: ConeMode,
    profile: Option<&dyn SimProfile>,
) -> Result<(FaultReport, ConeStats), NetlistError> {
    let (verdicts, stats) =
        ppsfp_verdicts(nl, faults, workload, out_port, Some(cycles), width, mode, profile)?;
    Ok((FaultReport::from_verdicts(&verdicts), stats))
}

/// The original rebuild-per-site campaign implementations.
///
/// These schedule a fresh scalar [`Simulator`] for every fault
/// site and evaluate one pattern at a time — quadratic-ish work the reused
/// force/release PPSFP campaigns avoid. They are kept **only** as the
/// reference oracle: the differential suites assert the fast campaigns
/// reproduce these reports exactly, site for site.
pub mod oracle {
    use super::{FaultReport, FaultSite, Netlist, NetlistError};
    use crate::sim::Simulator;

    /// A scalar simulator with a set of nets forced to constant values.
    #[derive(Debug)]
    pub(super) struct FaultySimulator<'nl> {
        sim: Simulator<'nl>,
        faults: Vec<FaultSite>,
    }

    impl<'nl> FaultySimulator<'nl> {
        /// Builds a faulty simulator: every fault site is pinned via
        /// [`Simulator::force_net`], so ordinary evaluation and clocking
        /// simply never touch the faulted nets.
        pub(super) fn new(nl: &'nl Netlist, faults: Vec<FaultSite>) -> Result<Self, NetlistError> {
            let mut sim = Simulator::new(nl)?;
            for f in &faults {
                sim.force_net(f.net, f.stuck_at);
            }
            sim.eval_comb();
            Ok(FaultySimulator { sim, faults })
        }

        /// Drives an input port (see [`Simulator::set_input`]).
        pub(super) fn set_input(&mut self, port: &str, value: i64) {
            self.sim.set_input(port, value);
        }

        /// Settles combinational logic with faults applied.
        pub(super) fn eval_comb(&mut self) {
            self.sim.eval_comb();
        }

        /// Reads an output port as unsigned (see
        /// [`Simulator::output_unsigned`]).
        pub(super) fn output_unsigned(&self, port: &str) -> i64 {
            self.sim.output_unsigned(port)
        }
    }

    /// Reference implementation of [`super::fault_campaign_comb`]: one
    /// freshly scheduled simulator per fault site.
    ///
    /// # Panics
    ///
    /// Panics if the design is sequential or ports are unknown.
    ///
    /// # Errors
    ///
    /// Propagates scheduling errors.
    pub fn fault_campaign_comb(
        nl: &Netlist,
        faults: &[FaultSite],
        workload: &[Vec<(String, i64)>],
        out_port: &str,
    ) -> Result<FaultReport, NetlistError> {
        assert!(
            crate::sim::is_combinational(nl),
            "fault_campaign_comb requires a combinational design"
        );
        // Golden responses.
        let mut golden = Vec::with_capacity(workload.len());
        let mut sim = Simulator::new(nl)?;
        for vec in workload {
            for (p, v) in vec {
                sim.set_input(p, *v);
            }
            sim.eval_comb();
            golden.push(sim.output_unsigned(out_port));
        }
        let mut critical = 0usize;
        for &fault in faults {
            let mut fsim = FaultySimulator::new(nl, vec![fault])?;
            let mut differs = false;
            for (vec, &want) in workload.iter().zip(&golden) {
                for (p, v) in vec {
                    fsim.set_input(p, *v);
                }
                fsim.eval_comb();
                if fsim.output_unsigned(out_port) != want {
                    differs = true;
                    break;
                }
            }
            if differs {
                critical += 1;
            }
        }
        Ok(FaultReport { critical, benign: faults.len() - critical, total: faults.len() })
    }

    /// Reference implementation of [`super::fault_campaign_seq`]: one
    /// freshly scheduled simulator per fault site, reset per sample.
    ///
    /// # Panics
    ///
    /// Panics on unknown ports.
    ///
    /// # Errors
    ///
    /// Propagates scheduling errors.
    pub fn fault_campaign_seq(
        nl: &Netlist,
        faults: &[FaultSite],
        workload: &[Vec<(String, i64)>],
        out_port: &str,
        cycles: u64,
    ) -> Result<FaultReport, NetlistError> {
        let run = |sim_faults: Vec<FaultSite>| -> Result<Vec<i64>, NetlistError> {
            let mut responses = Vec::with_capacity(workload.len());
            let mut fsim = FaultySimulator::new(nl, sim_faults)?;
            for vec in workload {
                fsim.sim.reset();
                for f in fsim.faults.clone() {
                    fsim.sim.force_net(f.net, f.stuck_at);
                }
                for (p, v) in vec {
                    fsim.set_input(p, *v);
                }
                for _ in 0..cycles {
                    fsim.sim.tick();
                }
                responses.push(fsim.output_unsigned(out_port));
            }
            Ok(responses)
        };
        let golden = run(Vec::new())?;
        let mut critical = 0usize;
        for &fault in faults {
            if run(vec![fault])? != golden {
                critical += 1;
            }
        }
        Ok(FaultReport { critical, benign: faults.len() - critical, total: faults.len() })
    }
}

#[cfg(test)]
mod tests {
    use super::oracle::FaultySimulator;
    use super::*;
    use pe_netlist::Builder;

    fn adder2() -> Netlist {
        let mut b = Builder::new("a2");
        let xs = b.input_bus("x", 2);
        let ys = b.input_bus("y", 2);
        // 2-bit adder out of discrete gates.
        let s0 = b.xor2(xs[0], ys[0]);
        let c0 = b.and2(xs[0], ys[0]);
        let t = b.xor2(xs[1], ys[1]);
        let s1 = b.xor2(t, c0);
        let c1a = b.and2(xs[1], ys[1]);
        let c1b = b.and2(t, c0);
        let c1 = b.or2(c1a, c1b);
        b.output_bus("s", &[s0, s1, c1]);
        b.finish()
    }

    fn full_workload() -> Vec<Vec<(String, i64)>> {
        let mut w = Vec::new();
        for x in 0..4 {
            for y in 0..4 {
                w.push(vec![("x".to_string(), x), ("y".to_string(), y)]);
            }
        }
        w
    }

    #[test]
    fn fault_free_run_matches_plain_simulator() {
        let nl = adder2();
        let mut f = FaultySimulator::new(&nl, vec![]).unwrap();
        f.set_input("x", 3);
        f.set_input("y", 2);
        f.eval_comb();
        assert_eq!(f.output_unsigned("s"), 5);
    }

    #[test]
    fn stuck_at_changes_outputs() {
        let nl = adder2();
        let sites = enumerate_fault_sites(&nl);
        assert_eq!(sites.len(), 2 * 7, "7 gates -> 14 single-stuck-at faults");
        // Stuck the low sum bit at 0: 1+0 must come out wrong.
        let s0_site =
            sites.iter().find(|s| !s.stuck_at).copied().expect("at least one stuck-at-0 site");
        let mut f = FaultySimulator::new(&nl, vec![s0_site]).unwrap();
        f.set_input("x", 1);
        f.set_input("y", 0);
        f.eval_comb();
        // The first site is the low sum bit's net: pinned at 0, 1 + 0
        // reads 0 instead of 1.
        assert_eq!(f.output_unsigned("s"), 0);
    }

    #[test]
    fn exhaustive_campaign_finds_all_faults_on_exhaustive_workload() {
        // With an exhaustive workload every single-stuck-at fault in an
        // adder is detectable (adders are fully testable).
        let nl = adder2();
        let sites = enumerate_fault_sites(&nl);
        let report = fault_campaign_comb(&nl, &sites, &full_workload(), "s").unwrap();
        assert_eq!(report.benign, 0, "all adder faults must be critical: {report:?}");
        assert_eq!(report.total, sites.len());
        assert!((report.criticality() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sparse_workload_misses_faults() {
        // A single test vector cannot exercise every fault.
        let nl = adder2();
        let sites = enumerate_fault_sites(&nl);
        let workload = vec![vec![("x".to_string(), 0), ("y".to_string(), 0)]];
        let report = fault_campaign_comb(&nl, &sites, &workload, "s").unwrap();
        assert!(report.benign > 0, "a single vector should miss some faults");
        assert!(report.critical > 0, "but catch some (stuck-at-1 on sums)");
    }

    #[test]
    fn sequential_campaign_detects_register_faults() {
        // A 2-bit shift register: out = in delayed by 2 cycles.
        let mut b = Builder::new("shift");
        let d = b.input("d");
        let q1 = b.dff(d, false);
        let q2 = b.dff(q1, false);
        b.output("q", q2);
        let nl = b.finish();
        let sites = enumerate_fault_sites(&nl);
        // Workload: drive 1 for 3 cycles -> q must be 1.
        let workload = vec![vec![("d".to_string(), 1)]];
        let report = fault_campaign_seq(&nl, &sites, &workload, "q", 3).unwrap();
        // Stuck-at-0 on either register output forces q to 0: critical.
        assert!(report.critical >= 2, "{report:?}");
        // Stuck-at-1 faults agree with the golden value 1: benign here.
        assert!(report.benign >= 2, "{report:?}");
    }

    #[test]
    fn empty_fault_list_reports_zero() {
        let nl = adder2();
        let report = fault_campaign_comb(&nl, &[], &full_workload(), "s").unwrap();
        assert_eq!(report.total, 0);
        assert_eq!(report.criticality(), 0.0);
    }

    #[test]
    fn reused_comb_campaign_matches_rebuild_oracle() {
        let nl = adder2();
        let sites = enumerate_fault_sites(&nl);
        let fast = fault_campaign_comb(&nl, &sites, &full_workload(), "s").unwrap();
        let slow = oracle::fault_campaign_comb(&nl, &sites, &full_workload(), "s").unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn reused_seq_campaign_matches_rebuild_oracle() {
        let mut b = Builder::new("shift");
        let d = b.input("d");
        let q1 = b.dff(d, false);
        let q2 = b.dff(q1, false);
        b.output("q", q2);
        let nl = b.finish();
        let sites = enumerate_fault_sites(&nl);
        let workload = vec![vec![("d".to_string(), 1)], vec![("d".to_string(), 0)]];
        let fast = fault_campaign_seq(&nl, &sites, &workload, "q", 3).unwrap();
        let slow = oracle::fault_campaign_seq(&nl, &sites, &workload, "q", 3).unwrap();
        assert_eq!(fast, slow);
    }

    #[test]
    fn release_restores_scalar_register_state() {
        // The satellite bug: release_net used to clear the frozen flag but
        // leave the forced value in the register, so a post-campaign batch
        // started from stale state.
        let mut b = Builder::new("r");
        let d = b.input("x0");
        let q = b.dff(d, false);
        b.output("q", q);
        let nl = b.finish();
        let site = enumerate_fault_sites(&nl)
            .into_iter()
            .find(|s| s.stuck_at)
            .expect("stuck-at-1 site on q");
        let vectors = vec![vec![0i64], vec![1], vec![0]];
        let mut sim = Simulator::new(&nl).unwrap();
        sim.force_net(site.net, true);
        sim.set_input("x0", 0);
        sim.tick();
        sim.release_net(site.net);
        let got = sim.run_batch(&vectors, 1, "q");
        let want = Simulator::new(&nl).unwrap().run_batch(&vectors, 1, "q");
        assert_eq!(got.outputs, want.outputs, "released register must not leak forced state");
        assert_eq!(sim.register_state(), vec![false]);
    }

    #[test]
    fn release_restores_bitsliced_register_state() {
        let mut b = Builder::new("r");
        let d = b.input("x0");
        let q = b.dff(d, false);
        b.output("q", q);
        let nl = b.finish();
        let site = enumerate_fault_sites(&nl)
            .into_iter()
            .find(|s| s.stuck_at)
            .expect("stuck-at-1 site on q");
        let workload = vec![vec![("x0".to_string(), 0i64)], vec![("x0".to_string(), 1)]];
        let mut sim: BitSlicedSimulator<'_> = BitSlicedSimulator::new(&nl).unwrap();
        sim.force_net(site.net, true);
        let _ = sim.run_workload_seq_reset(&workload, 2, "q");
        sim.release_net(site.net);
        let vectors = vec![vec![0i64], vec![1], vec![0]];
        let got = sim.run_batch(&vectors, 1, "q");
        let want = BitSlicedSimulator::<1>::new(&nl).unwrap().run_batch(&vectors, 1, "q");
        assert_eq!(got, want, "post-campaign batch must start from power-on state");
    }

    #[test]
    fn ppsfp_seq_run_leaves_unforced_registers_coherent() {
        // Multi-register hazard: a PPSFP sequential run leaves every lane a
        // different faulty machine, and release_net only heals the *forced*
        // net — the driver itself must restore the other registers, or a
        // post-campaign batch reads 64 different leftover states. The
        // holding register (enable low) is what keeps the leftover alive
        // into the batch: a plain shift register would flush it.
        let mut b = Builder::new("hold");
        let d = b.input("x0");
        let en = b.input("x1");
        let q1 = b.dff(d, false);
        let q2 = b.dffe(q1, en, false);
        b.output("q", q2);
        let nl = b.finish();
        let q1_sites: Vec<FaultSite> =
            enumerate_fault_sites(&nl).into_iter().filter(|s| s.net == q1).collect();
        assert_eq!(q1_sites.len(), 2, "stuck-at-0 and stuck-at-1 on q1");
        // Campaign workload loads q2 (enable high) so each lane's q2 captures
        // its own faulty q1.
        let workload = vec![
            vec![("x0".to_string(), 0i64), ("x1".to_string(), 1)],
            vec![("x0".to_string(), 1), ("x1".to_string(), 1)],
        ];
        let mut sim: BitSlicedSimulator<'_> = BitSlicedSimulator::new(&nl).unwrap();
        let golden = sim.run_workload_seq_reset(&workload, 2, "q");
        for (l, s) in q1_sites.iter().enumerate() {
            sim.force_lane(s.net, l, s.stuck_at);
        }
        let _ = sim.lanes_diverging_seq_reset(&workload, 2, "q", &golden, [0b11]);
        sim.release_net(q1);
        // Post-campaign batch with enable low: q2 holds, so any leftover
        // lane-divergent state would surface directly in the outputs.
        let vectors = vec![vec![0i64, 0], vec![0, 0], vec![0, 0]];
        let got = sim.run_batch(&vectors, 1, "q");
        let want = BitSlicedSimulator::<1>::new(&nl).unwrap().run_batch(&vectors, 1, "q");
        assert_eq!(got, want, "unforced registers must not leak lane-divergent state");
    }

    #[test]
    fn profile_recorder_reconciles_with_cone_stats() {
        // The observability contract: a ProfileRecorder fed live through the
        // `_obs` entry points must reproduce the campaign's exit-summary
        // ConeStats exactly — chunk counts, cone/fallback split, and total
        // cell evaluations (golden run included).
        let nl = adder2();
        let sites = enumerate_fault_sites(&nl);
        for mode in [ConeMode::Auto, ConeMode::Always, ConeMode::Never] {
            let rec = pe_obs::ProfileRecorder::new();
            let (report, stats) = fault_campaign_comb_ppsfp_wide_obs(
                &nl,
                &sites,
                &full_workload(),
                "s",
                LaneWidth::W1,
                mode,
                Some(&rec),
            )
            .unwrap();
            let s = rec.snapshot();
            assert_eq!(s.chunks as usize, stats.chunks, "{mode:?}");
            assert_eq!(s.cone_chunks as usize, stats.cone_chunks, "{mode:?}");
            assert_eq!(s.fallback_chunks as usize, stats.fallback_chunks, "{mode:?}");
            assert_eq!(s.campaign_cell_evals, stats.cell_evals, "{mode:?}");
            assert_eq!(s.campaign_sites as usize, report.total, "{mode:?}");
        }

        let mut b = Builder::new("shiftobs");
        let d = b.input("d");
        let q1 = b.dff(d, false);
        let q2 = b.dff(q1, false);
        b.output("q", q2);
        let snl = b.finish();
        let ssites = enumerate_fault_sites(&snl);
        let wl = vec![vec![("d".to_string(), 1i64)], vec![("d".to_string(), 0)]];
        let rec = pe_obs::ProfileRecorder::new();
        let (sreport, sstats) = fault_campaign_seq_ppsfp_wide_obs(
            &snl,
            &ssites,
            &wl,
            "q",
            3,
            LaneWidth::W1,
            ConeMode::Auto,
            Some(&rec),
        )
        .unwrap();
        let s = rec.snapshot();
        assert_eq!(s.chunks as usize, sstats.chunks);
        assert_eq!(s.campaign_cell_evals, sstats.cell_evals);
        assert_eq!(s.campaign_sites as usize, sreport.total);
        // And the verdicts are identical to the unprofiled path.
        let (plain, _) = fault_campaign_seq_ppsfp_wide_obs(
            &snl,
            &ssites,
            &wl,
            "q",
            3,
            LaneWidth::W1,
            ConeMode::Auto,
            None,
        )
        .unwrap();
        assert_eq!(sreport, plain);
    }

    #[test]
    fn ppsfp_verdicts_are_width_invariant() {
        // Same campaign at every explicit slab width: per-lane verdicts must
        // not depend on how many faulty machines share a sweep.
        let nl = adder2();
        let sites = enumerate_fault_sites(&nl);
        let wl = full_workload();
        let comb = |width| {
            fault_campaign_comb_ppsfp_wide_obs(&nl, &sites, &wl, "s", width, ConeMode::Auto, None)
                .unwrap()
                .0
        };
        let baseline = comb(LaneWidth::W1);
        for width in LaneWidth::ALL {
            assert_eq!(comb(width), baseline, "comb verdicts diverge at {width} words");
        }

        let mut b = Builder::new("seqwide");
        let d = b.input("x0");
        let q1 = b.dff(d, false);
        let q2 = b.dff(q1, false);
        b.output("q", q2);
        let snl = b.finish();
        let ssites = enumerate_fault_sites(&snl);
        let wl: Vec<Vec<(String, i64)>> = (0..4).map(|v| vec![("x0".to_string(), v & 1)]).collect();
        let seq = |width| {
            let mode = ConeMode::Auto;
            fault_campaign_seq_ppsfp_wide_obs(&snl, &ssites, &wl, "q", 3, width, mode, None)
                .unwrap()
                .0
        };
        let sbase = seq(LaneWidth::W1);
        for width in LaneWidth::ALL {
            assert_eq!(seq(width), sbase, "seq verdicts diverge at {width} words");
        }
    }

    #[test]
    fn ppsfp_packs_both_stuck_values_of_one_net_in_one_word() {
        // enumerate_fault_sites emits stuck-at-0 and stuck-at-1 of each net
        // adjacently, so every chunk forces the same net in two lanes with
        // opposite values — the force_lanes merge must keep them distinct.
        let nl = adder2();
        let sites = enumerate_fault_sites(&nl);
        assert!(sites.len() <= 64, "all sites must share one word for this test");
        for (a, b) in sites.iter().zip(sites.iter().skip(1)).step_by(2) {
            assert_eq!(a.net, b.net, "paired sites share a net");
            assert_ne!(a.stuck_at, b.stuck_at);
        }
        let report = fault_campaign_comb(&nl, &sites, &full_workload(), "s").unwrap();
        assert_eq!(report.benign, 0, "adders are fully testable: {report:?}");
    }

    #[test]
    fn cone_modes_agree_on_comb_and_seq_campaigns() {
        // Always / Never / Auto are three routes to the same verdicts; the
        // stats must also confirm each route actually ran where claimed.
        let nl = adder2();
        let sites = enumerate_fault_sites(&nl);
        let wl = full_workload();
        let comb = |mode| {
            fault_campaign_comb_ppsfp_wide_obs(&nl, &sites, &wl, "s", LaneWidth::W1, mode, None)
                .unwrap()
        };
        let (never, sn) = comb(ConeMode::Never);
        let (always, sa) = comb(ConeMode::Always);
        let (auto, _) = comb(ConeMode::Auto);
        assert_eq!(always, never, "cone-scheduled comb verdicts diverged");
        assert_eq!(auto, never, "auto comb verdicts diverged");
        assert_eq!(sn.cone_chunks, 0, "Never must not take the cone path");
        assert_eq!(sa.fallback_chunks, 0, "Always must never fall back");
        assert_eq!(sa.cone_chunks, sa.chunks);

        let mut b = Builder::new("shift");
        let d = b.input("x0");
        let q1 = b.dff(d, false);
        let q2 = b.dff(q1, false);
        b.output("q", q2);
        let snl = b.finish();
        let ssites = enumerate_fault_sites(&snl);
        let swl: Vec<Vec<(String, i64)>> =
            (0..4).map(|v| vec![("x0".to_string(), v & 1)]).collect();
        let seq = |mode| {
            let w1 = LaneWidth::W1;
            fault_campaign_seq_ppsfp_wide_obs(&snl, &ssites, &swl, "q", 3, w1, mode, None).unwrap()
        };
        let (snever, _) = seq(ConeMode::Never);
        let (salways, st) = seq(ConeMode::Always);
        assert_eq!(salways, snever, "cone-scheduled seq verdicts diverged");
        assert_eq!(st.cone_chunks, st.chunks, "Always must run every chunk through cones");
        assert_eq!(
            snever,
            oracle::fault_campaign_seq(&snl, &ssites, &swl, "q", 3).unwrap(),
            "both routes must agree with the rebuild oracle"
        );
    }

    #[test]
    fn cone_scheduling_cuts_cell_evals_near_the_outputs() {
        // A deep xor chain feeding a masked and-gate, with fault sites only
        // on the and output: that site's cone is empty, so each workload
        // entry costs the cone pass nothing while the dense sweep re-settles
        // the whole chain. The stuck-at-0 site is benign (z is held low, o
        // is constant 0), which keeps the dense sweep from early-exiting —
        // this is exactly the shape where cone scheduling pays.
        let mut b = Builder::new("chain");
        let x = b.input("x0");
        let t = b.input("x1");
        let z = b.input("x2");
        let mut n = x;
        for _ in 0..64 {
            n = b.xor2(n, t);
        }
        let o = b.and2(n, z);
        b.output("o", o);
        let nl = b.finish();
        let tail: Vec<FaultSite> =
            enumerate_fault_sites(&nl).into_iter().filter(|s| s.net == o).collect();
        assert_eq!(tail.len(), 2);
        let wl: Vec<Vec<(String, i64)>> = (0..16)
            .map(|v| {
                vec![
                    ("x0".to_string(), v & 1),
                    ("x1".to_string(), (v >> 1) & 1),
                    ("x2".to_string(), 0),
                ]
            })
            .collect();
        let tail_campaign = |mode| {
            fault_campaign_comb_ppsfp_wide_obs(&nl, &tail, &wl, "o", LaneWidth::W1, mode, None)
                .unwrap()
        };
        let (always, sa) = tail_campaign(ConeMode::Always);
        let (never, sn) = tail_campaign(ConeMode::Never);
        assert_eq!(always, never);
        assert_eq!(always.critical, 1, "stuck-at-1 critical, stuck-at-0 masked by z=0");
        assert!(
            sa.cell_evals * 4 < sn.cell_evals,
            "tail-site cone sweep should be >4x cheaper: {} vs {}",
            sa.cell_evals,
            sn.cell_evals
        );
    }

    #[test]
    fn frozen_register_survives_scalar_reset() {
        // The force/release reuse protocol depends on reset() keeping pinned
        // nets pinned (the old rebuild flow re-forced after every reset).
        let mut b = Builder::new("r");
        let d = b.input("d");
        let q = b.dff(d, false);
        b.output("q", q);
        let nl = b.finish();
        let mut sim = Simulator::new(&nl).unwrap();
        let site = enumerate_fault_sites(&nl)
            .into_iter()
            .find(|s| s.stuck_at)
            .expect("stuck-at-1 site on q");
        sim.force_net(site.net, true);
        sim.reset();
        assert_eq!(sim.output_unsigned("q"), 1, "reset must not clobber a forced register");
        sim.set_input("d", 0);
        sim.tick();
        assert_eq!(sim.output_unsigned("q"), 1, "clocking must not clobber a forced register");
        sim.release_net(site.net);
        sim.reset();
        assert_eq!(sim.output_unsigned("q"), 0, "released register resets normally");
    }
}
