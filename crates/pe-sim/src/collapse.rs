//! Collapsed PPSFP fault campaigns: run class representatives only, prove
//! the rest benign statically, and expand verdicts back bit-for-bit.
//!
//! The campaign pipeline composes two verdict-preserving reductions from
//! [`pe_lint::collapse_sites`] before any lane is pinned:
//!
//! 1. **Equivalence collapsing**: classic gate-rule equivalence classes
//!    (inverter/buffer chains, controlling input ≡ forced output, register
//!    `d`-at-init ≡ `q`-at-init). Every member of a class induces the
//!    *same* faulty circuit, so one representative's verdict is every
//!    member's verdict.
//! 2. **Structural observability**: classes with no member whose fanout
//!    cone reaches an output port can never diverge anything observable —
//!    statically benign, never simulated.
//!
//! Both are *sound*: a site is only dropped when no input vector can
//! distinguish the faulty machine at the observed port, so the expanded
//! [`FaultReport`] is bit-identical to the uncollapsed campaign's — the
//! differential suite pins this across lane widths and cone modes.
//!
//! On the paper's sequential OvR classifier (4126 sites) the two retire
//! 13.7 % of the fault list before simulation: the xor/maj-dominated MAC
//! datapath is collapse-resistant to pure gate-rule equivalence (25 sites
//! merge into classes), and nearly all of the reduction comes from the 542
//! statically benign sites.

use crate::bitslice::LaneWidth;
use crate::faults::{ppsfp_verdicts, ConeMode, FaultReport, FaultSite};
use pe_lint::StuckAt;
use pe_netlist::{Netlist, NetlistError};

/// Site accounting of one collapsed campaign (second element of the
/// collapsed campaign results).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollapseStats {
    /// Sites in the requested fault list.
    pub sites: usize,
    /// Equivalence classes over those sites.
    pub classes: usize,
    /// Classes proven benign structurally (no observable member).
    pub static_benign: usize,
    /// Sites actually pinned into simulator lanes (one representative per
    /// class that is not statically benign).
    pub simulated: usize,
}

impl CollapseStats {
    /// Fraction of the fault list never pinned into a lane.
    #[must_use]
    pub fn reduction(&self) -> f64 {
        if self.sites == 0 {
            0.0
        } else {
            1.0 - self.simulated as f64 / self.sites as f64
        }
    }
}

/// The shared collapsed-campaign frame.
fn collapsed_campaign(
    nl: &Netlist,
    faults: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out_port: &str,
    cycles: Option<u64>,
    width: LaneWidth,
    mode: ConeMode,
) -> Result<(FaultReport, CollapseStats), NetlistError> {
    let sites: Vec<StuckAt> =
        faults.iter().map(|f| StuckAt { net: f.net, stuck_at: f.stuck_at }).collect();
    let collapsed = pe_lint::collapse_sites(nl, &sites);
    let reps: Vec<FaultSite> = collapsed.simulate.iter().map(|&i| faults[i]).collect();
    let (verdicts, _) = ppsfp_verdicts(nl, &reps, workload, out_port, cycles, width, mode, None)?;
    let stats = CollapseStats {
        sites: faults.len(),
        classes: collapsed.num_representatives(),
        static_benign: collapsed.static_benign.len(),
        simulated: reps.len(),
    };
    Ok((FaultReport::from_verdicts(&collapsed.expand_verdicts(&verdicts, false)), stats))
}

/// Collapsed PPSFP campaign on a **combinational** design: equivalence
/// classes and structurally unobservable sites are retired before
/// simulation, the remaining representatives sweep at `width` under `mode`
/// (see [`crate::faults::fault_campaign_comb_ppsfp_wide_obs`]), and their
/// verdicts expand back over their classes. The [`FaultReport`] is
/// bit-identical to the uncollapsed campaign's.
///
/// # Panics
///
/// Panics if the design is sequential or ports are unknown.
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn fault_campaign_comb_ppsfp_collapsed(
    nl: &Netlist,
    faults: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out_port: &str,
    width: LaneWidth,
    mode: ConeMode,
) -> Result<(FaultReport, CollapseStats), NetlistError> {
    assert!(
        crate::sim::is_combinational(nl),
        "fault_campaign_comb requires a combinational design"
    );
    collapsed_campaign(nl, faults, workload, out_port, None, width, mode)
}

/// Collapsed PPSFP campaign on a **sequential** design under the
/// per-classification reset protocol: see
/// [`fault_campaign_comb_ppsfp_collapsed`] for the reduction pipeline and
/// [`crate::faults::fault_campaign_seq_ppsfp_wide_obs`] for the campaign
/// semantics the verdicts are bit-identical to.
///
/// # Panics
///
/// Panics on unknown ports or `cycles == 0`.
///
/// # Errors
///
/// Propagates scheduling errors.
pub fn fault_campaign_seq_ppsfp_collapsed(
    nl: &Netlist,
    faults: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out_port: &str,
    cycles: u64,
    width: LaneWidth,
    mode: ConeMode,
) -> Result<(FaultReport, CollapseStats), NetlistError> {
    assert!(cycles >= 1, "sequential workloads need at least one cycle");
    collapsed_campaign(nl, faults, workload, out_port, Some(cycles), width, mode)
}
