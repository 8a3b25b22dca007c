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
//! per lane via [`BitSlicedSimulator::force_lanes`], and every workload
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

use crate::bitslice::{lane_mask_wide, BitSlicedSimulator, ConeSchedule, LaneWidth, LANES};
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
    /// Cone-schedule every chunk, however dense its union cone: a cone pass
    /// never evaluates more cells than a full sweep.
    #[default]
    Auto,
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
    /// Chunks swept in full ([`ConeMode::Never`]; zero under
    /// [`ConeMode::Auto`]).
    pub fallback_chunks: usize,
    /// Combinational cell evaluations over the whole campaign, golden run
    /// included (see [`BitSlicedSimulator::cell_evals`]).
    pub cell_evals: u64,
}

/// The fault-free net-value trajectory of a campaign workload, recorded by
/// the campaign's own bit-sliced golden run
/// ([`BitSlicedSimulator::run_golden`]): every net's value at every settle
/// point, for every entry. There is one settle point per entry for
/// combinational workloads, and `cycles + 1` per entry (post-reset, then
/// after each clock edge) under the sequential per-classification reset
/// protocol. Cone-scheduled chunks load their frontier nets from here
/// instead of recomputing the fault-free world per sweep.
///
/// The golden run carries entry `e` in lane `e` of its sweep chunks, so the
/// layout follows the lanes: per settle point × net, `ceil(entries / 64)`
/// words with bit `e % 64` of word `e / 64` holding entry `e`.
#[derive(Debug)]
pub(crate) struct GoldenTrajectory {
    /// `points * nets * words` words, indexed `(point * nets + net) * words
    /// + e / 64`.
    bits: Vec<u64>,
    /// Net count of the netlist.
    nets: usize,
    /// Words per (settle point, net): `ceil(entries / 64)`.
    words: usize,
    /// Workload entries recorded.
    entries: usize,
    /// `Some(cycles)` for sequential workloads, `None` for combinational.
    cycles: Option<u64>,
}

impl GoldenTrajectory {
    /// An all-zero trajectory of `entries` entries over `nets` nets, to be
    /// filled chunk by chunk by [`GoldenTrajectory::record`].
    pub(crate) fn new(nets: usize, entries: usize, cycles: Option<u64>) -> Self {
        let points = cycles.map_or(1, |c| c as usize + 1);
        let words = entries.div_ceil(LANES);
        GoldenTrajectory { bits: vec![0; points * nets * words], nets, words, entries, cycles }
    }

    /// Records settle point `point` of one golden sweep chunk whose lane 0
    /// carries entry `64 * first_word`: every net's slab, masked to the
    /// chunk's active lanes.
    pub(crate) fn record<const W: usize>(
        &mut self,
        point: usize,
        first_word: usize,
        slabs: &[[u64; W]],
        mask: &[u64; W],
    ) {
        let n = W.min(self.words - first_word);
        let base = point * self.nets * self.words + first_word;
        for (net, slab) in slabs.iter().enumerate() {
            let dst = &mut self.bits[base + net * self.words..][..n];
            for (w, d) in dst.iter_mut().enumerate() {
                *d = slab[w] & mask[w];
            }
        }
    }

    /// The fault-free value of net index `net` at settle point `point` of
    /// entry `e`.
    #[inline]
    pub(crate) fn bit(&self, point: usize, e: usize, net: usize) -> bool {
        let word = self.bits[(point * self.nets + net) * self.words + e / LANES];
        (word >> (e % LANES)) & 1 == 1
    }

    /// Number of workload entries recorded.
    pub(crate) fn entries(&self) -> usize {
        self.entries
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
/// divergence, release. Under [`ConeMode::Auto`] every chunk is evaluated
/// through its fanout cone (frontier loaded from the [`GoldenTrajectory`]
/// the golden run recorded), found by a search over a reader table of the
/// simulator's compiled program that is built once, right after the golden
/// run; under [`ConeMode::Never`] every chunk is swept in full. Every
/// chunk's verdicts are bit-identical either way.
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
    let cone = mode == ConeMode::Auto && !faults.is_empty();
    let (golden, traj) = sim.run_golden(workload, cycles, out_port, cone);
    if let Some(p) = profile {
        // Fed first so a recorder's campaign totals reconcile exactly with
        // the exit-summary `ConeStats::cell_evals` (golden + chunk deltas).
        p.on_campaign_golden(sim.cell_evals());
    }
    let prep = traj.map(|t| (sim.reader_table(), t));
    let mut sched = ConeSchedule::default();
    let mut stats = ConeStats::default();
    let mut verdicts = Vec::with_capacity(faults.len());
    for chunk in faults.chunks(LANES * W) {
        stats.chunks += 1;
        let evals_before = sim.cell_evals();
        let watch = force_site_lanes(&mut sim, chunk);
        let (diverged, cone_cells) = match &prep {
            Some((readers, traj)) => {
                stats.cone_chunks += 1;
                let mut roots: Vec<NetId> = chunk.iter().map(|f| f.net).collect();
                roots.dedup();
                sim.cone_schedule(readers, &roots, &mut sched);
                (
                    sim.lanes_diverging_cone(&sched, traj, out_port, &golden, watch),
                    sched.comb_cells(),
                )
            }
            None => {
                stats.fallback_chunks += 1;
                let d = match cycles {
                    None => sim.lanes_diverging_comb(workload, out_port, &golden, watch),
                    Some(c) => sim.lanes_diverging_seq_reset(workload, c, out_port, &golden, watch),
                };
                (d, 0)
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
                cone_scheduled: prep.is_some(),
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
/// [`BitSlicedSimulator::force_lanes`]), every workload pattern is driven
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
/// swept in full, with the cone/core cell counts and the chunk's
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
/// against the fault-free golden response. The reset keeps
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
/// These schedule a fresh scalar [`Simulator`](crate::Simulator) for every
/// fault site and evaluate one pattern at a time — quadratic-ish work the
/// reused force/release PPSFP campaigns avoid. They are kept **only** as the
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
    use crate::sim::Simulator;
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
        // ConeStats exactly — chunk counts, cone/full-sweep split, and total
        // cell evaluations (golden run included).
        let nl = adder2();
        let sites = enumerate_fault_sites(&nl);
        for mode in [ConeMode::Auto, ConeMode::Never] {
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
        // Auto / Never are two routes to the same verdicts; the stats must
        // also confirm each route actually ran where claimed.
        let nl = adder2();
        let sites = enumerate_fault_sites(&nl);
        let wl = full_workload();
        let comb = |mode| {
            fault_campaign_comb_ppsfp_wide_obs(&nl, &sites, &wl, "s", LaneWidth::W1, mode, None)
                .unwrap()
        };
        let (never, sn) = comb(ConeMode::Never);
        let (auto, sa) = comb(ConeMode::Auto);
        assert_eq!(auto, never, "cone-scheduled comb verdicts diverged");
        assert_eq!(sn.cone_chunks, 0, "Never must not take the cone path");
        assert_eq!(sa.fallback_chunks, 0, "Auto must never fall back");
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
        let (sauto, st) = seq(ConeMode::Auto);
        assert_eq!(sauto, snever, "cone-scheduled seq verdicts diverged");
        assert_eq!(st.cone_chunks, st.chunks, "Auto must run every chunk through cones");
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
        let (auto, sa) = tail_campaign(ConeMode::Auto);
        let (never, sn) = tail_campaign(ConeMode::Never);
        assert_eq!(auto, never);
        assert_eq!(auto.critical, 1, "stuck-at-1 critical, stuck-at-0 masked by z=0");
        assert!(
            sa.cell_evals * 4 < sn.cell_evals,
            "tail-site cone sweep should be >4x cheaper: {} vs {}",
            sa.cell_evals,
            sn.cell_evals
        );
    }

    /// A [`SimProfile`] that keeps every chunk it is fed.
    #[derive(Debug, Default)]
    struct ChunkLog(std::sync::Mutex<Vec<SimChunk>>);

    impl SimProfile for ChunkLog {
        fn on_chunk(&self, chunk: &SimChunk) {
            self.0.lock().expect("no test thread panics holding the log").push(*chunk);
        }
    }

    #[test]
    fn dense_chunks_take_the_cone_path_and_match_the_references() {
        // One W8 chunk holding every site of a random design: the union
        // cone covers nearly the whole core, past the 3/4 density where
        // Auto once fell back to full sweeps. Auto must still cone-schedule
        // it, with the verdicts of the dense sweep and the rebuild oracle.
        use pe_netlist::testing::{random_netlist, RandomNetlistSpec};
        for (seed, registers) in [(21u64, 0usize), (22, 3), (23, 5)] {
            let spec = RandomNetlistSpec {
                inputs: 5,
                gates: 70,
                registers,
                outputs: 3,
                input_prefix: "x",
            };
            let nl = random_netlist(&spec, seed);
            let sites = enumerate_fault_sites(&nl);
            assert!(sites.len() <= LaneWidth::W8.lanes(), "sites must fit one W8 chunk");
            let wl = random_workload(5, 12, seed);
            let log = ChunkLog::default();
            let run = |mode, profile: Option<&dyn SimProfile>| {
                let w8 = LaneWidth::W8;
                if registers == 0 {
                    fault_campaign_comb_ppsfp_wide_obs(&nl, &sites, &wl, "o0", w8, mode, profile)
                } else {
                    fault_campaign_seq_ppsfp_wide_obs(&nl, &sites, &wl, "o0", 2, w8, mode, profile)
                }
                .unwrap()
            };
            let (auto, stats) = run(ConeMode::Auto, Some(&log));
            let chunks = log.0.into_inner().expect("no test thread panics holding the log");
            assert_eq!((stats.chunks, stats.cone_chunks, stats.fallback_chunks), (1, 1, 0));
            let c = chunks[0];
            assert!(c.cone_scheduled);
            assert!(c.cone_cells * 4 > c.core_cells * 3, "seed {seed}: chunk not dense: {c:?}");
            assert_eq!(auto, run(ConeMode::Never, None).0, "seed {seed}: Auto vs Never");
            let oracle = if registers == 0 {
                oracle::fault_campaign_comb(&nl, &sites, &wl, "o0")
            } else {
                oracle::fault_campaign_seq(&nl, &sites, &wl, "o0", 2)
            };
            assert_eq!(auto, oracle.unwrap(), "seed {seed}: Auto vs the rebuild oracle");
        }
    }

    /// The scalar replay the golden run's recording replaced, kept as its
    /// oracle: every net's value (`[net.index()]`) at every settle point of
    /// every entry, on the scalar reference simulator — `cycles = None`
    /// drives and settles, `Some(c)` resets, then ticks `c` times.
    fn scalar_trajectory(
        nl: &Netlist,
        workload: &[Vec<(String, i64)>],
        cycles: Option<u64>,
    ) -> Vec<Vec<Vec<bool>>> {
        let snapshot = |sim: &Simulator<'_>| -> Vec<bool> {
            let mut s = vec![false; nl.num_nets()];
            for (id, _) in nl.nets() {
                s[id.index()] = sim.net_value(id);
            }
            s
        };
        let mut sim = Simulator::new(nl).unwrap();
        let mut entries = Vec::with_capacity(workload.len());
        for entry in workload {
            for (p, v) in entry {
                sim.set_input(p, *v);
            }
            let mut states = Vec::new();
            match cycles {
                None => {
                    sim.eval_comb();
                    states.push(snapshot(&sim));
                }
                Some(c) => {
                    sim.reset();
                    states.push(snapshot(&sim));
                    for _ in 0..c {
                        sim.tick();
                        states.push(snapshot(&sim));
                    }
                }
            }
            entries.push(states);
        }
        entries
    }

    /// Deterministic 1-bit vectors on ports `x0..x{inputs}`.
    fn random_workload(inputs: usize, count: usize, seed: u64) -> Vec<Vec<(String, i64)>> {
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..count)
            .map(|_| {
                (0..inputs)
                    .map(|i| {
                        s ^= s >> 12;
                        s ^= s << 25;
                        s ^= s >> 27;
                        (format!("x{i}"), (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 60) as i64 & 1)
                    })
                    .collect()
            })
            .collect()
    }

    /// Records the golden trajectory at slab width `W` and asserts every
    /// (settle point, entry, net) bit against the scalar replay, and that
    /// the padding lanes past the last entry stay zero.
    fn assert_trajectory_matches_scalar<const W: usize>(
        nl: &Netlist,
        workload: &[Vec<(String, i64)>],
        cycles: Option<u64>,
        out: &str,
    ) {
        let mut sim = BitSlicedSimulator::<'_, W>::new(nl).unwrap();
        let traj = sim.run_golden(workload, cycles, out, true).1.expect("recording was requested");
        assert_eq!(traj.entries(), workload.len());
        assert_eq!(traj.cycles_per_entry(), cycles);
        let want = scalar_trajectory(nl, workload, cycles);
        for (e, states) in want.iter().enumerate() {
            for (point, nets) in states.iter().enumerate() {
                for (net, &v) in nets.iter().enumerate() {
                    assert_eq!(
                        traj.bit(point, e, net),
                        v,
                        "W={W} {cycles:?}: entry {e} of {}, point {point}, net {net}",
                        workload.len()
                    );
                }
            }
        }
        let points = cycles.map_or(1, |c| c as usize + 1);
        for e in workload.len()..workload.len().div_ceil(LANES) * LANES {
            for point in 0..points {
                for net in 0..nl.num_nets() {
                    assert!(!traj.bit(point, e, net), "padding lane {e} leaked at net {net}");
                }
            }
        }
    }

    #[test]
    fn recorded_trajectory_matches_the_scalar_replay() {
        // One ragged chunk (1), one full word (64), a second word (65), a
        // multi-chunk run at W1 (130 = 64 + 64 + 2) and a ragged second
        // chunk at W8 (513 = 512 + 1), on a combinational and a sequential
        // design with register feedback.
        use pe_netlist::testing::{random_netlist, RandomNetlistSpec};
        let spec = |registers| RandomNetlistSpec {
            inputs: 5,
            gates: 60,
            registers,
            outputs: 3,
            input_prefix: "x",
        };
        let comb = random_netlist(&spec(0), 11);
        let seq = random_netlist(&spec(3), 13);
        for n in [1, 64, 65, 130] {
            let wl = random_workload(5, n, n as u64);
            assert_trajectory_matches_scalar::<1>(&comb, &wl, None, "o0");
            assert_trajectory_matches_scalar::<1>(&seq, &wl, Some(3), "o1");
        }
        let wl = random_workload(5, 513, 513);
        assert_trajectory_matches_scalar::<8>(&comb, &wl, None, "o0");
        assert_trajectory_matches_scalar::<8>(&seq, &wl, Some(3), "o1");
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
