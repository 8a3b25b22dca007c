//! Switching-activity reports.
//!
//! An [`ActivityReport`] is the simulator's answer to a SAIF file: per-net
//! toggle counts over a known number of clock cycles. Power analysis in
//! `pe-synth` multiplies these by per-cell switching energies.
//!
//! The crate-private `ToggleCounters` is the raw accumulator both simulation
//! engines write into: the scalar engine bumps one net at a time, the
//! bit-sliced engine ([`crate::bitslice`]) hands in a masked XOR-difference
//! slab and the counter popcounts it, so one call accounts the toggles of up
//! to `64 * W` test vectors. Because both engines fold into the same counters, activity
//! (and therefore energy) reports are directly comparable between them.

use pe_netlist::NetId;

/// Per-net toggle accumulator shared by the scalar and bit-sliced engines.
///
/// A disabled counter set is an empty vector; every accounting call is a
/// no-op then, which keeps the simulator hot loops branch-cheap.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct ToggleCounters {
    counts: Vec<u64>,
}

impl ToggleCounters {
    /// A disabled accumulator (all accounting calls are no-ops).
    #[must_use]
    pub fn disabled() -> Self {
        ToggleCounters { counts: Vec::new() }
    }

    /// An enabled accumulator with one zeroed counter per net.
    #[must_use]
    pub fn enabled(num_nets: usize) -> Self {
        ToggleCounters { counts: vec![0; num_nets] }
    }

    /// Whether tracking is on.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        !self.counts.is_empty()
    }

    /// Accounts one toggle of one net (the scalar engine's path).
    #[inline]
    pub fn bump(&mut self, net_index: usize) {
        self.counts[net_index] += 1;
    }

    /// Accounts up to `64 * W` toggles of one net at once: `lanes` is a
    /// masked XOR-difference slab (see [`crate::bitslice`] for the slab
    /// layout), each set bit one lane whose value changed. The popcounts are
    /// summed before the single counter add, so widening the slab does not
    /// multiply the accounting cost per net.
    #[inline]
    pub fn bump_packed_wide<const W: usize>(&mut self, net_index: usize, lanes: &[u64; W]) {
        let mut n = 0u64;
        for &w in lanes {
            n += u64::from(w.count_ones());
        }
        self.counts[net_index] += n;
    }

    /// Adds another accumulator's counts into this one (used when a
    /// bit-sliced batch folds its activity back into the owning simulator).
    ///
    /// # Panics
    ///
    /// Panics if the net counts differ.
    pub fn merge(&mut self, other: &ToggleCounters) {
        assert_eq!(self.counts.len(), other.counts.len(), "net count mismatch in merge");
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Snapshot into an [`ActivityReport`] over `cycles` accounted cycles.
    #[must_use]
    pub fn report(&self, cycles: u64) -> ActivityReport {
        ActivityReport::new(self.counts.clone(), cycles)
    }
}

/// Per-net toggle counts over a measured interval.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActivityReport {
    toggles: Vec<u64>,
    cycles: u64,
}

impl ActivityReport {
    /// Wraps raw counters. `toggles` is indexed by [`NetId::index`].
    #[must_use]
    pub fn new(toggles: Vec<u64>, cycles: u64) -> Self {
        ActivityReport { toggles, cycles }
    }

    /// A report with every net at the given constant activity factor
    /// (toggles per cycle), used when no simulation trace is available
    /// (vector-less power estimation, like PrimeTime's default mode).
    #[must_use]
    pub fn uniform(num_nets: usize, cycles: u64, factor: f64) -> Self {
        let per_net = (factor * cycles as f64).round().max(0.0) as u64;
        ActivityReport { toggles: vec![per_net; num_nets], cycles }
    }

    /// Toggle count of one net.
    ///
    /// # Panics
    ///
    /// Panics if the net index is out of range.
    #[must_use]
    pub fn toggles(&self, net: NetId) -> u64 {
        self.toggles[net.index()]
    }

    /// Average toggles per cycle for one net (its activity factor).
    /// Returns 0 when no cycles have been accounted.
    #[must_use]
    pub fn factor(&self, net: NetId) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.toggles[net.index()] as f64 / self.cycles as f64
        }
    }

    /// Number of clock cycles the counts were accumulated over.
    #[must_use]
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Sum of all toggle counts.
    #[must_use]
    pub fn total_toggles(&self) -> u64 {
        self.toggles.iter().sum()
    }

    /// Number of nets covered by the report.
    #[must_use]
    pub fn num_nets(&self) -> usize {
        self.toggles.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_normalize_by_cycles() {
        let r = ActivityReport::new(vec![10, 0, 5], 10);
        assert!((r.factor(NetIdHelper::id(0)) - 1.0).abs() < 1e-12);
        assert!((r.factor(NetIdHelper::id(2)) - 0.5).abs() < 1e-12);
        assert_eq!(r.total_toggles(), 15);
        assert_eq!(r.num_nets(), 3);
        assert_eq!(r.cycles(), 10);
    }

    #[test]
    fn zero_cycles_yield_zero_factors() {
        let r = ActivityReport::new(vec![3], 0);
        assert_eq!(r.factor(NetIdHelper::id(0)), 0.0);
    }

    #[test]
    fn toggle_counters_scalar_and_packed_agree() {
        let mut scalar = ToggleCounters::enabled(2);
        let mut packed = ToggleCounters::enabled(2);
        // Three lanes toggled on net 0, one on net 1.
        let diff0 = 0b1011u64;
        let diff1 = 0b0100u64;
        for lane in 0..4u64 {
            if (diff0 >> lane) & 1 == 1 {
                scalar.bump(0);
            }
            if (diff1 >> lane) & 1 == 1 {
                scalar.bump(1);
            }
        }
        packed.bump_packed_wide(0, &[diff0]);
        packed.bump_packed_wide(1, &[diff1]);
        assert_eq!(scalar, packed);
        assert_eq!(packed.report(4), ActivityReport::new(vec![3, 1], 4));
        // Merging doubles the counts.
        let snapshot = packed.clone();
        packed.merge(&snapshot);
        assert_eq!(packed.report(4), ActivityReport::new(vec![6, 2], 4));
        assert_eq!(packed.report(4).total_toggles(), 8);
    }

    #[test]
    fn wide_bump_sums_popcounts_across_words() {
        let mut narrow = ToggleCounters::enabled(1);
        let mut wide = ToggleCounters::enabled(1);
        let slab = [0b1011u64, !0, 0, 1 << 63];
        for &w in &slab {
            narrow.bump_packed_wide(0, &[w]);
        }
        wide.bump_packed_wide(0, &slab);
        assert_eq!(narrow, wide);
        assert_eq!(wide.report(1).total_toggles(), 3 + 64 + 1);
    }

    #[test]
    fn disabled_counters_report_empty() {
        let c = ToggleCounters::disabled();
        assert!(!c.is_enabled());
        assert!(ToggleCounters::enabled(3).is_enabled());
        assert_eq!(c.report(10).num_nets(), 0);
    }

    #[test]
    fn uniform_report() {
        let r = ActivityReport::uniform(4, 100, 0.25);
        assert_eq!(r.toggles(NetIdHelper::id(3)), 25);
    }

    /// NetId's constructor is crate-private to pe-netlist; build ids through
    /// a tiny netlist so tests stay honest.
    struct NetIdHelper;

    impl NetIdHelper {
        fn id(i: usize) -> NetId {
            use pe_netlist::Builder;
            let mut b = Builder::new("ids");
            // const0, const1 occupy 0 and 1; create inputs to reach index i.
            let mut last = b.input("i0");
            let mut nets = vec![b.constant(false), b.constant(true), last];
            for k in 1..=i {
                last = b.input(format!("i{k}"));
                nets.push(last);
            }
            nets[i]
        }
    }
}
