//! Differential lockdown of the PPSFP fault-parallel campaigns.
//!
//! The PPSFP path packs one fault *site* per bit-sliced lane
//! (`force_lanes`), drives every workload pattern broadcast across the
//! lanes, and accumulates a per-lane divergence mask — 64 faulty machines
//! per word. These tests assert the campaign reports are **identical, site
//! for site**, to the rebuild-per-site serial
//! [`oracle`](pe_sim::faults::oracle). Coverage spans every generated design style, seeded-random netlists with
//! registered feedback, ragged site counts around the 64-lane word boundary
//! (1/63/64/65), words whose lanes mix faults on register-driving nets
//! with ordinary combinational sites, and workloads long enough (65/130/513
//! entries) that the golden run takes several chunks and cone-scheduled
//! chunks read the recorded trajectory past its first word.
//!
//! The slab is width-generic (`[u64; W]`, up to 512 faulty machines per
//! sweep) and fault verdicts are width-invariant, so the suite additionally
//! sweeps every [`LaneWidth`] with site counts straddling every slab
//! boundary (64W ± 1) and pins each width to the same per-site verdicts.
//!
//! The campaign simulator is reused across chunks, so the suite also pins
//! chunk-to-chunk isolation under every [`ConeMode`] at every width, and
//! force/release replays on long-lived engines.
//!
//! Like the batch differential suite, CI runs this in debug and release:
//! release strips the debug assertions that would otherwise mask
//! wrapping/shift mistakes in the lane-masked merge.

use pe_core::designs::{mlp, parallel, sequential};
use pe_data::{train_test_split, Dataset, Normalizer, UciProfile};
use pe_ml::linear::SvmTrainParams;
use pe_ml::mlp::{Mlp, MlpTrainParams};
use pe_ml::multiclass::{MulticlassScheme, SvmModel};
use pe_ml::{QuantizedMlp, QuantizedSvm};
use pe_netlist::testing::{random_netlist, RandomNetlistSpec};
use pe_netlist::{Driver, Netlist};
use pe_sim::faults::{
    enumerate_fault_sites, fault_campaign_comb, fault_campaign_comb_ppsfp_wide_obs,
    fault_campaign_seq, fault_campaign_seq_ppsfp_wide_obs, oracle, FaultSite,
};
use pe_sim::{BatchMode, BitSlicedSimulator, ConeMode, LaneWidth, Simulator};

// ---- model / workload helpers -------------------------------------------

fn normalized_split(seed: u64) -> (Dataset, Dataset) {
    let d = UciProfile::Cardio.generate(seed);
    let (train, test) = train_test_split(&d, 0.2, seed);
    let norm = Normalizer::fit(&train);
    (norm.apply(&train), norm.apply(&test))
}

fn svm_model(scheme: MulticlassScheme, seed: u64) -> (QuantizedSvm, Dataset) {
    let (train, test) = normalized_split(seed);
    let sub: Vec<usize> = (0..train.len().min(300)).collect();
    let p = SvmTrainParams { max_epochs: 25, ..SvmTrainParams::default() };
    let m = SvmModel::train(&train.subset(&sub, "-s").quantize_inputs(4), scheme, &p);
    (QuantizedSvm::quantize(&m, 4, 5), test)
}

fn mlp_model(seed: u64) -> (QuantizedMlp, Dataset) {
    let (train, test) = normalized_split(seed);
    let sub: Vec<usize> = (0..train.len().min(300)).collect();
    let train = train.subset(&sub, "-s");
    let m = Mlp::train(&train, &MlpTrainParams { hidden: 4, epochs: 25, ..Default::default() });
    (QuantizedMlp::quantize(&m, &train, 4, 5, 6), test)
}

fn svm_workload(q: &QuantizedSvm, test: &Dataset, take: usize) -> Vec<Vec<(String, i64)>> {
    test.features()
        .iter()
        .take(take)
        .map(|x| {
            q.quantize_input(x).iter().enumerate().map(|(i, &v)| (format!("x{i}"), v)).collect()
        })
        .collect()
}

fn fuzz_spec(registers: usize) -> RandomNetlistSpec {
    RandomNetlistSpec { inputs: 5, gates: 60, registers, outputs: 3, input_prefix: "x" }
}

fn fuzz_workload(inputs: usize, count: usize, seed: u64) -> Vec<Vec<(String, i64)>> {
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

/// Asserts the PPSFP combinational campaign agrees with the rebuild oracle,
/// in aggregate and site for site.
fn assert_comb_agrees(
    nl: &Netlist,
    sites: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out: &str,
) {
    let ppsfp = fault_campaign_comb(nl, sites, workload, out).unwrap();
    let slow = oracle::fault_campaign_comb(nl, sites, workload, out).unwrap();
    assert_eq!(ppsfp, slow, "PPSFP vs oracle on {}", nl.name());
    for &site in sites {
        let f = fault_campaign_comb(nl, &[site], workload, out).unwrap();
        let s = oracle::fault_campaign_comb(nl, &[site], workload, out).unwrap();
        assert_eq!(f, s, "site {site:?} diverged from the rebuild oracle on {}", nl.name());
    }
}

/// Sequential counterpart of [`assert_comb_agrees`].
fn assert_seq_agrees(
    nl: &Netlist,
    sites: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out: &str,
    cycles: u64,
) {
    let ppsfp = fault_campaign_seq(nl, sites, workload, out, cycles).unwrap();
    let slow = oracle::fault_campaign_seq(nl, sites, workload, out, cycles).unwrap();
    assert_eq!(ppsfp, slow, "PPSFP vs oracle on {}", nl.name());
    for &site in sites {
        let f = fault_campaign_seq(nl, &[site], workload, out, cycles).unwrap();
        let s = oracle::fault_campaign_seq(nl, &[site], workload, out, cycles).unwrap();
        assert_eq!(f, s, "site {site:?} diverged from the rebuild oracle on {}", nl.name());
    }
}

// ---- random netlists, every site ----------------------------------------

#[test]
fn random_combinational_netlists_agree_per_site() {
    for seed in 0..6 {
        let nl = random_netlist(&fuzz_spec(0), seed);
        let sites = enumerate_fault_sites(&nl);
        assert!(sites.len() > 64, "need more than one PPSFP word");
        assert_comb_agrees(&nl, &sites, &fuzz_workload(5, 20, seed), "o0");
    }
}

#[test]
fn random_sequential_netlists_agree_per_site() {
    for seed in 0..6 {
        let nl = random_netlist(&fuzz_spec(3), seed);
        let sites = enumerate_fault_sites(&nl);
        assert_seq_agrees(&nl, &sites, &fuzz_workload(5, 12, seed ^ 0xBEEF), "o1", 3);
    }
}

// ---- ragged site counts around the word boundary ------------------------

#[test]
fn ragged_site_counts_agree() {
    let nl = random_netlist(&fuzz_spec(2), 107);
    let all = enumerate_fault_sites(&nl);
    assert!(all.len() >= 65, "spec must yield at least 65 sites, got {}", all.len());
    let workload = fuzz_workload(5, 10, 21);
    for count in [1usize, 63, 64, 65] {
        let sites = &all[..count];
        let ppsfp = fault_campaign_seq(&nl, sites, &workload, "o0", 2).unwrap();
        let slow = oracle::fault_campaign_seq(&nl, sites, &workload, "o0", 2).unwrap();
        assert_eq!(ppsfp, slow, "{count} sites diverged");
        assert_eq!(ppsfp.total, count);
    }
    // Zero sites: an empty report, no simulation.
    let empty = fault_campaign_seq(&nl, &[], &workload, "o0", 2).unwrap();
    assert_eq!(empty.total, 0);
    assert_eq!(empty.criticality(), 0.0);
}

// ---- lane-width sweep ----------------------------------------------------

/// Site counts straddling every slab boundary: 64W ± 1 and the exact
/// boundary for W = 1, 2, 4, 8.
const WIDTH_BOUNDARY_COUNTS: [usize; 12] =
    [63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513];

#[test]
fn every_width_matches_w1_on_ragged_site_counts() {
    // W = 1 verdicts are locked to the rebuild oracle by the tests above;
    // this pins every wider slab to the same reports across site counts
    // that leave every word of the widest slab ragged, full, or
    // one-past-full. Lanes are independent machines, so the verdicts must
    // not depend on how many share a sweep.
    let spec =
        RandomNetlistSpec { inputs: 6, gates: 300, registers: 3, outputs: 3, input_prefix: "x" };
    let nl = random_netlist(&spec, 149);
    let all = enumerate_fault_sites(&nl);
    assert!(all.len() >= 513, "need 513+ sites for the widest boundary, got {}", all.len());
    let workload = fuzz_workload(6, 6, 91);
    let seq = |sites: &[FaultSite], width| {
        let mode = ConeMode::Auto;
        fault_campaign_seq_ppsfp_wide_obs(&nl, sites, &workload, "o0", 2, width, mode, None)
            .unwrap()
            .0
    };
    for count in WIDTH_BOUNDARY_COUNTS {
        let sites = &all[..count];
        let w1 = seq(sites, LaneWidth::W1);
        assert_eq!(w1.total, count);
        for width in [LaneWidth::W2, LaneWidth::W4, LaneWidth::W8] {
            assert_eq!(seq(sites, width), w1, "{count} sites diverged at W={width}");
        }
    }
}

#[test]
fn every_width_matches_the_oracle_on_a_full_comb_slab() {
    // Combinational counterpart, anchored straight to the rebuild-per-site
    // oracle: 257 sites leave a 1-site ragged tail word at W = 4 and a
    // half-full slab at W = 8.
    let spec =
        RandomNetlistSpec { inputs: 6, gates: 160, registers: 0, outputs: 3, input_prefix: "x" };
    let nl = random_netlist(&spec, 151);
    let all = enumerate_fault_sites(&nl);
    assert!(all.len() >= 257, "need 257+ sites, got {}", all.len());
    let sites = &all[..257];
    let workload = fuzz_workload(6, 10, 17);
    let slow = oracle::fault_campaign_comb(&nl, sites, &workload, "o0").unwrap();
    for width in LaneWidth::ALL {
        let (wide, _) = fault_campaign_comb_ppsfp_wide_obs(
            &nl,
            sites,
            &workload,
            "o0",
            width,
            ConeMode::Auto,
            None,
        )
        .unwrap();
        assert_eq!(wide, slow, "verdicts diverged from the oracle at W={width}");
    }
}

// ---- register-driving nets sharing a word with ordinary sites -----------

#[test]
fn register_sites_share_a_word_with_combinational_sites() {
    // Order the site list so register outputs and their stuck-at pairs land
    // in the same PPSFP word as plain combinational sites: the per-lane
    // state merge in tick/reset must keep every lane independent.
    let nl = random_netlist(&fuzz_spec(3), 109);
    let mut sites = enumerate_fault_sites(&nl);
    sites.sort_by_key(|s| {
        let is_reg = match nl.net(s.net).driver() {
            Driver::Cell(c) => nl.cell(c).kind().is_sequential(),
            _ => false,
        };
        // Interleave: register sites first, then alternate.
        (!is_reg, s.net)
    });
    let reg_sites = sites
        .iter()
        .filter(|s| match nl.net(s.net).driver() {
            Driver::Cell(c) => nl.cell(c).kind().is_sequential(),
            _ => false,
        })
        .count();
    assert!(reg_sites >= 2, "need register-output sites in the first word");
    assert!(sites.len() > 64, "the first word must also hold combinational sites");
    assert_seq_agrees(&nl, &sites, &fuzz_workload(5, 10, 33), "o2", 2);
}

// ---- generated design styles --------------------------------------------

#[test]
fn parallel_svm_style_agrees() {
    let (q, test) = svm_model(MulticlassScheme::OneVsOne, 43);
    let nl = parallel::build_parallel_svm(&q);
    // Sampled sites (the oracle reference is slow), full word + ragged tail.
    let sites: Vec<FaultSite> =
        enumerate_fault_sites(&nl).into_iter().step_by(37).take(90).collect();
    let workload = svm_workload(&q, &test, 12);
    assert_comb_agrees(&nl, &sites, &workload, "class");
}

#[test]
fn mlp_style_agrees() {
    let (q, test) = mlp_model(53);
    let nl = mlp::build_parallel_mlp(&q);
    let sites: Vec<FaultSite> =
        enumerate_fault_sites(&nl).into_iter().step_by(41).take(80).collect();
    let workload: Vec<Vec<(String, i64)>> = test
        .features()
        .iter()
        .take(10)
        .map(|x| {
            q.quantize_input(x).iter().enumerate().map(|(i, &v)| (format!("x{i}"), v)).collect()
        })
        .collect();
    let ppsfp = fault_campaign_comb(&nl, &sites, &workload, "class").unwrap();
    let slow = oracle::fault_campaign_comb(&nl, &sites, &workload, "class").unwrap();
    assert_eq!(ppsfp, slow);
}

#[test]
fn sequential_svm_style_agrees() {
    // The paper's headline circuit: clocked campaign, per-classification
    // reset, faults pinned across the reset.
    let (q, test) = svm_model(MulticlassScheme::OneVsRest, 61);
    let nl = sequential::build_sequential_ovr(&q);
    let sites: Vec<FaultSite> = enumerate_fault_sites(&nl).into_iter().step_by(97).collect();
    let workload = svm_workload(&q, &test, 8);
    let n = q.num_classes() as u64;
    let ppsfp = fault_campaign_seq(&nl, &sites, &workload, "class", n).unwrap();
    let slow = oracle::fault_campaign_seq(&nl, &sites, &workload, "class", n).unwrap();
    assert_eq!(ppsfp, slow);
}

// ---- cone-scheduled campaigns vs the same references --------------------

#[test]
fn cone_scheduled_campaigns_agree_with_references_at_every_width() {
    // ConeMode::Auto sends every chunk through the fanout-cone pass
    // (frontier loaded from the golden trajectory); ConeMode::Never is the
    // dense sweep the suite above locks to the oracle. Both must produce
    // the same report at every slab width, comb and seq.
    let cnl = random_netlist(&fuzz_spec(0), 3);
    let csites = enumerate_fault_sites(&cnl);
    let cwl = fuzz_workload(5, 14, 77);
    let coracle = oracle::fault_campaign_comb(&cnl, &csites, &cwl, "o0").unwrap();

    let snl = random_netlist(&fuzz_spec(3), 5);
    let ssites = enumerate_fault_sites(&snl);
    let swl = fuzz_workload(5, 10, 79);
    let soracle = oracle::fault_campaign_seq(&snl, &ssites, &swl, "o1", 3).unwrap();

    for width in LaneWidth::ALL {
        for mode in [ConeMode::Auto, ConeMode::Never] {
            let (comb, cs) =
                fault_campaign_comb_ppsfp_wide_obs(&cnl, &csites, &cwl, "o0", width, mode, None)
                    .unwrap();
            assert_eq!(comb, coracle, "comb {mode:?} at W={width} diverged from the oracle");
            let (seq, ss) =
                fault_campaign_seq_ppsfp_wide_obs(&snl, &ssites, &swl, "o1", 3, width, mode, None)
                    .unwrap();
            assert_eq!(seq, soracle, "seq {mode:?} at W={width} diverged from the oracle");
            match mode {
                ConeMode::Auto => {
                    assert_eq!(cs.fallback_chunks + ss.fallback_chunks, 0, "Auto fell back");
                }
                ConeMode::Never => {
                    assert_eq!(cs.cone_chunks + ss.cone_chunks, 0, "Never took the cone path");
                }
            }
        }
    }
}

#[test]
fn cone_scheduled_ragged_site_counts_agree() {
    // Ragged chunk tails exercise the watch-masked diff of the cone pass:
    // 1/63/64/65 straddle the word boundary at W1, 511/513 the slab
    // boundary at W8. Verdicts locked to the dense sweep, which the suite
    // above locks to the oracle on this exact netlist (seed 149).
    let spec =
        RandomNetlistSpec { inputs: 6, gates: 300, registers: 3, outputs: 3, input_prefix: "x" };
    let nl = random_netlist(&spec, 149);
    let all = enumerate_fault_sites(&nl);
    assert!(all.len() >= 513, "need 513+ sites, got {}", all.len());
    let workload = fuzz_workload(6, 6, 91);
    let seq = |sites: &[FaultSite], width, mode| {
        fault_campaign_seq_ppsfp_wide_obs(&nl, sites, &workload, "o0", 2, width, mode, None)
            .unwrap()
    };
    for count in [1usize, 63, 64, 65, 511, 513] {
        let sites = &all[..count];
        let width = if count > 64 { LaneWidth::W8 } else { LaneWidth::W1 };
        let (cone, stats) = seq(sites, width, ConeMode::Auto);
        let (dense, _) = seq(sites, width, ConeMode::Never);
        assert_eq!(cone, dense, "{count} sites diverged under cone scheduling");
        assert_eq!(cone.total, count);
        assert_eq!(stats.cone_chunks, stats.chunks, "Auto must run every chunk through cones");
    }
}

#[test]
fn cone_scheduled_mixed_register_and_comb_sites_agree() {
    // Register sites and combinational sites packed into the same PPSFP
    // word: the cone pass must reset/update the cone's registers per lane
    // exactly like the dense sweep's full tick. Site-for-site against the
    // rebuild oracle, in cone mode.
    let nl = random_netlist(&fuzz_spec(3), 109);
    let mut sites = enumerate_fault_sites(&nl);
    sites.sort_by_key(|s| {
        let is_reg = match nl.net(s.net).driver() {
            Driver::Cell(c) => nl.cell(c).kind().is_sequential(),
            _ => false,
        };
        (!is_reg, s.net)
    });
    assert!(sites.len() > 64, "the first word must mix register and comb sites");
    let workload = fuzz_workload(5, 10, 33);
    let cone = |sites: &[FaultSite]| {
        let (w1, mode) = (LaneWidth::W1, ConeMode::Auto);
        fault_campaign_seq_ppsfp_wide_obs(&nl, sites, &workload, "o2", 2, w1, mode, None).unwrap()
    };
    let (whole, _) = cone(&sites);
    assert_eq!(whole, oracle::fault_campaign_seq(&nl, &sites, &workload, "o2", 2).unwrap());
    for &site in &sites {
        let (f, _) = cone(&[site]);
        let s = oracle::fault_campaign_seq(&nl, &[site], &workload, "o2", 2).unwrap();
        assert_eq!(f, s, "site {site:?} diverged from the rebuild oracle under cone scheduling");
    }
}

/// A workload of `count > 64` entries whose first 64 all repeat one vector
/// and whose 65th is its complement, so the faults only later entries
/// detect are judged from the trajectory's second and later words.
fn multi_word_workload(count: usize, seed: u64) -> Vec<Vec<(String, i64)>> {
    let mut wl = fuzz_workload(5, count, seed);
    let first = wl[0].clone();
    for entry in wl.iter_mut().take(64) {
        entry.clone_from(&first);
    }
    wl[64] = first.iter().map(|(p, v)| (p.clone(), 1 - v)).collect();
    wl
}

#[test]
fn multi_chunk_golden_runs_agree_with_the_oracle() {
    // The golden run records the fault-free trajectory one bit per entry,
    // 64 entries per word, and cone-scheduled chunks read their frontier
    // back from it. 65 and 130 entries reach a second and third word at W1
    // (the golden run also takes two and three chunks there); 513 entries
    // at W8 take a full 512-lane golden chunk plus a ragged one.
    let cnl = random_netlist(&fuzz_spec(0), 17);
    let csites = enumerate_fault_sites(&cnl);
    let snl = random_netlist(&fuzz_spec(3), 19);
    let ssites = enumerate_fault_sites(&snl);
    for (count, width) in [(65, LaneWidth::W1), (130, LaneWidth::W1), (513, LaneWidth::W8)] {
        let wl = multi_word_workload(count, count as u64);
        let coracle = oracle::fault_campaign_comb(&cnl, &csites, &wl, "o0").unwrap();
        let soracle = oracle::fault_campaign_seq(&snl, &ssites, &wl, "o1", 3).unwrap();
        // The later words matter: they catch faults the first word misses.
        let head = &wl[..64];
        let chead = oracle::fault_campaign_comb(&cnl, &csites, head, "o0").unwrap();
        let shead = oracle::fault_campaign_seq(&snl, &ssites, head, "o1", 3).unwrap();
        assert!(coracle.critical > chead.critical, "{count} comb entries: later words idle");
        assert!(soracle.critical > shead.critical, "{count} seq entries: later words idle");
        let mode = ConeMode::Auto;
        let (comb, cs) =
            fault_campaign_comb_ppsfp_wide_obs(&cnl, &csites, &wl, "o0", width, mode, None)
                .unwrap();
        assert_eq!(comb, coracle, "comb, {count} entries at W={width}");
        let (seq, ss) =
            fault_campaign_seq_ppsfp_wide_obs(&snl, &ssites, &wl, "o1", 3, width, mode, None)
                .unwrap();
        assert_eq!(seq, soracle, "seq, {count} entries at W={width}");
        assert_eq!(cs.cone_chunks + ss.cone_chunks, cs.chunks + ss.chunks);
    }
}

// ---- campaign reuse: one simulator across divergent-lane chunks ---------

#[test]
fn ppsfp_chunks_do_not_contaminate_each_other() {
    // One multi-chunk campaign must agree with the rebuild-per-site oracle
    // under every cone mode at every width: the forced lanes
    // *and* the compiled pinned bits of one chunk may not leak into the
    // next. Sites are ordered so every chunk re-pins, at the other
    // polarity, exactly the nets the previous chunk just released — their
    // cones coincide, so a pinned bit left stale by a release (or missed by
    // a force) flips verdicts.
    let spec =
        RandomNetlistSpec { inputs: 6, gates: 600, registers: 4, outputs: 3, input_prefix: "x" };
    let nl = random_netlist(&spec, 113);
    let all = enumerate_fault_sites(&nl);
    let workload = fuzz_workload(6, 8, 55);
    // The rebuild-per-site reference: one fresh scalar simulator per site.
    let want = oracle::fault_campaign_seq(&nl, &all, &workload, "o0", 2).unwrap().critical;
    for width in LaneWidth::ALL {
        // `all` lists each net's stuck-at-0 then stuck-at-1 site, so a run
        // of 2*lanes sites covers `lanes` nets: one chunk of their
        // stuck-at-0 sites, then one of their stuck-at-1 sites.
        let lanes = width.lanes();
        let mut order: Vec<usize> = Vec::new();
        for group in (0..all.len()).collect::<Vec<_>>().chunks(2 * lanes) {
            order.extend(group.iter().filter(|&&i| !all[i].stuck_at));
            order.extend(group.iter().filter(|&&i| all[i].stuck_at));
        }
        let sites: Vec<FaultSite> = order.iter().map(|&i| all[i]).collect();
        assert!(sites.len() > 2 * lanes, "need at least three chunks at W={width}");
        for mode in [ConeMode::Auto, ConeMode::Never] {
            let (got, stats) = fault_campaign_seq_ppsfp_wide_obs(
                &nl, &sites, &workload, "o0", 2, width, mode, None,
            )
            .unwrap();
            assert_eq!(got.critical, want, "{mode:?} at W={width}: chunks contaminated each other");
            assert_eq!(stats.chunks, sites.len().div_ceil(lanes));
        }
    }
}

/// Pins every fault site of `nl` in turn on one long-lived engine —
/// `force_net`, `run_batch`, `release_net`, `run_batch` — and checks each
/// forced batch against a scalar reference with the same net frozen and
/// each healed batch against a fresh engine.
fn force_release_replay<const W: usize>(nl: &Netlist, vectors: &[Vec<i64>]) {
    let fresh = || BitSlicedSimulator::<'_, W>::new(nl).unwrap();
    let healthy = fresh().run_batch(vectors, 0, "o0");
    let mut sim = fresh();
    assert_eq!(sim.run_batch(vectors, 0, "o0"), healthy);
    for site in enumerate_fault_sites(nl) {
        let mut scalar = Simulator::new(nl).unwrap();
        scalar.set_batch_mode(BatchMode::Scalar);
        scalar.force_net(site.net, site.stuck_at);
        let want = scalar.run_batch(vectors, 0, "o0").outputs;
        sim.force_net(site.net, site.stuck_at);
        let what = format!("{site:?} at W={W}");
        assert_eq!(sim.run_batch(vectors, 0, "o0").outputs, want, "forced batch of {what}");
        sim.release_net(site.net);
        assert_eq!(sim.run_batch(vectors, 0, "o0").outputs, healthy.outputs, "healed {what}");
    }
}

#[test]
fn force_release_replays_match_fresh_engines() {
    let nl = random_netlist(&fuzz_spec(0), 21);
    let vectors: Vec<Vec<i64>> = fuzz_workload(5, 70, 13)
        .into_iter()
        .map(|entry| entry.into_iter().map(|(_, v)| v).collect())
        .collect();
    force_release_replay::<1>(&nl, &vectors);
    force_release_replay::<2>(&nl, &vectors);
    force_release_replay::<4>(&nl, &vectors);
    force_release_replay::<8>(&nl, &vectors);
}
