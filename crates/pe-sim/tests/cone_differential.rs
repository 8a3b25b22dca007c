//! Differential lockdown of the fanout-cone precomputation and the
//! bit-sliced batch sweep.
//!
//! The cone-scheduled PPSFP path trusts [`FanoutCones::cone`] completely:
//! any cell the structural cone misses is a cell the campaign never
//! re-evaluates, so a too-small cone silently corrupts fault verdicts.
//! These tests check the precomputation against **brute-force semantic
//! reachability**: pin one net both ways in two lockstep scalar
//! simulators, drive random vectors through random sequential netlists
//! (register feedback included), and diff *every* net after every settle
//! and every clock tick — a net that differs must be the pinned root or
//! the output of a cone cell.
//!
//! The second half locks the bit-sliced sweep to the scalar reference at
//! the `run_batch` level: identical outputs *and* identical toggle
//! accounting at every slab width, on random netlists and on low-activity
//! (repeated and near-constant) streams.
//!
//! Deliberately proptest-free: seeded xorshift workloads, exhaustive net
//! enumeration, zero external dependencies.

use pe_netlist::graph::FanoutCones;
use pe_netlist::testing::{random_netlist, RandomNetlistSpec};
use pe_netlist::{Builder, Driver, Netlist};
use pe_sim::{BatchMode, LaneWidth, Simulator};

fn fuzz_vectors(inputs: usize, count: usize, seed: u64) -> Vec<Vec<i64>> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..count)
        .map(|_| {
            (0..inputs)
                .map(|_| {
                    s ^= s >> 12;
                    s ^= s << 25;
                    s ^= s >> 27;
                    (s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 60) as i64 & 1
                })
                .collect()
        })
        .collect()
}

/// Diffs every net between two lockstep simulators; every differing net
/// must be the pinned `root` or driven by a cell inside `membership`.
fn assert_diff_inside_cone(
    nl: &Netlist,
    a: &Simulator<'_>,
    b: &Simulator<'_>,
    root: pe_netlist::NetId,
    membership: &[bool],
    when: &str,
) {
    for (id, net) in nl.nets() {
        if a.net_value(id) == b.net_value(id) || id == root {
            continue;
        }
        let in_cone = match net.driver() {
            Driver::Cell(c) => membership[c.index()],
            _ => false,
        };
        assert!(
            in_cone,
            "net {id:?} of {} differs {when} but its driver is outside the cone of {root:?}",
            nl.name()
        );
    }
}

/// Brute-force semantic reachability: pin `root` low in one simulator and
/// high in another, drive the same random workload through both, and
/// check after every settle/tick that the influence stayed inside the
/// structural cone.
fn check_cone_bounds_influence(nl: &Netlist, vectors: &[Vec<i64>], ticks: u64) {
    let cones = FanoutCones::new(nl);
    let sequential = ticks > 0;
    for (root, _) in nl.nets() {
        let membership = cones.cone(nl, &[root]);
        let mut a = Simulator::new(nl).unwrap();
        let mut b = Simulator::new(nl).unwrap();
        a.force_net(root, false);
        b.force_net(root, true);
        for v in vectors {
            for (sim, v) in [(&mut a, v), (&mut b, v)] {
                for (i, &bit) in v.iter().enumerate() {
                    sim.set_input(&format!("x{i}"), bit);
                }
            }
            if sequential {
                a.reset();
                b.reset();
                assert_diff_inside_cone(nl, &a, &b, root, &membership, "after reset");
                for t in 0..ticks {
                    a.tick();
                    b.tick();
                    assert_diff_inside_cone(
                        nl,
                        &a,
                        &b,
                        root,
                        &membership,
                        &format!("after tick {t}"),
                    );
                }
            } else {
                a.eval_comb();
                b.eval_comb();
                assert_diff_inside_cone(nl, &a, &b, root, &membership, "after settle");
            }
        }
    }
}

// ---- structural cone vs brute-force influence ---------------------------

#[test]
fn cone_bounds_influence_on_random_combinational_netlists() {
    for seed in 0..4 {
        let spec =
            RandomNetlistSpec { inputs: 5, gates: 50, registers: 0, outputs: 3, input_prefix: "x" };
        let nl = random_netlist(&spec, seed);
        check_cone_bounds_influence(&nl, &fuzz_vectors(5, 6, seed ^ 0xC0DE), 0);
    }
}

#[test]
fn cone_bounds_influence_on_random_sequential_netlists() {
    // Registers included: the cone closure must not cut at sequential
    // cells, or a fault upstream of a register would look benign after the
    // first tick. random_netlist wires register feedback (dff inputs
    // connect back into the combinational cloud), so the closure also has
    // cycles to survive.
    for seed in 0..4 {
        let spec =
            RandomNetlistSpec { inputs: 5, gates: 40, registers: 4, outputs: 3, input_prefix: "x" };
        let nl = random_netlist(&spec, seed);
        check_cone_bounds_influence(&nl, &fuzz_vectors(5, 4, seed ^ 0xFEED), 3);
    }
}

#[test]
fn cone_closes_over_register_feedback_cycles() {
    // A self-sustaining toggle loop: q feeds its own next-state logic. The
    // cone of the loop's combinational net must contain the register *and*
    // re-enter the loop logic (fixed point, not infinite recursion), and
    // the brute-force diff must stay inside it across many ticks.
    let mut b = Builder::new("feedback");
    let en = b.input("x0");
    let (q, q_src) = b.dff_deferred(false);
    let nxt = b.xor2(q, en);
    b.connect_dff(q_src, nxt);
    let probe = b.and2(q, en);
    b.output("o0", probe);
    let nl = b.finish();
    let cones = FanoutCones::new(&nl);
    let membership = cones.cone(&nl, &[nxt]);
    // The register consumes nxt, the xor consumes the register's q: both
    // live in the closed cone.
    assert!(
        membership.iter().filter(|&&m| m).count() >= 3,
        "feedback cone must close over the register loop"
    );
    check_cone_bounds_influence(&nl, &fuzz_vectors(1, 6, 11), 4);
}

// ---- bit-sliced sweeps vs the scalar reference at the run_batch level ----

/// Scalar and bit-sliced engines on the same batch: outputs and toggle
/// counts must agree exactly at every width. The scalar reference is pinned
/// to the same [`LaneWidth`] because sequential batch semantics chunk by
/// `64 * W` vectors (chunked streaming).
fn assert_sliced_matches_scalar(nl: &Netlist, vectors: &[Vec<i64>], cycles: u64, out: &str) {
    for width in LaneWidth::ALL {
        let mut scalar = Simulator::new(nl).unwrap();
        scalar.set_batch_mode(BatchMode::Scalar);
        scalar.set_lane_width(width);
        scalar.enable_activity();
        let want = scalar.run_batch(vectors, cycles, out);
        let mut sim = Simulator::new(nl).unwrap();
        sim.set_lane_width(width);
        sim.enable_activity();
        let got = sim.run_batch(vectors, cycles, out);
        assert_eq!(got.outputs, want.outputs, "outputs diverged on {} (W={width})", nl.name());
        assert_eq!(
            sim.activity(),
            scalar.activity(),
            "toggles diverged on {} (W={width})",
            nl.name()
        );
    }
}

#[test]
fn sliced_batches_agree_on_random_netlists() {
    for seed in 0..4 {
        let comb =
            RandomNetlistSpec { inputs: 5, gates: 60, registers: 0, outputs: 3, input_prefix: "x" };
        let nl = random_netlist(&comb, seed ^ 0xAB);
        assert_sliced_matches_scalar(&nl, &fuzz_vectors(5, 130, seed), 0, "o0");
        let seq =
            RandomNetlistSpec { inputs: 5, gates: 50, registers: 4, outputs: 3, input_prefix: "x" };
        let snl = random_netlist(&seq, seed ^ 0xCD);
        assert_sliced_matches_scalar(&snl, &fuzz_vectors(5, 70, seed ^ 0x77), 2, "o1");
    }
}

#[test]
fn sliced_batches_agree_on_low_activity_streams() {
    // Repeated and near-constant vectors: long constant runs alternate
    // with single-bit steps, so most lanes repeat their neighbour and the
    // serial toggle accounting sees few, isolated changes.
    let spec =
        RandomNetlistSpec { inputs: 5, gates: 60, registers: 3, outputs: 3, input_prefix: "x" };
    let nl = random_netlist(&spec, 23);
    let mut vectors = vec![vec![1, 0, 1, 0, 1]; 80];
    for (i, v) in vectors.iter_mut().enumerate() {
        if i % 17 == 0 {
            v[i % 5] ^= 1;
        }
    }
    assert_sliced_matches_scalar(&nl, &vectors, 2, "o0");
}
