//! Differential lockdown of the collapsed fault campaigns.
//!
//! The collapsed campaigns ([`pe_sim::collapse`]) retire fault sites two
//! ways before pinning a lane — equivalence classes and structural
//! observability — and every reduction must be invisible in the verdicts. Each test runs the
//! same campaign through the uncollapsed PPSFP path and the collapsed path
//! and asserts the reports are **identical**, across lane widths and cone
//! modes, on generated design styles, seeded-random netlists with
//! registered feedback, and hand-built pathologies (dead cones, inverter
//! chains, workload-quiescent gates) where the collapser has work to do or
//! must leave a site alone.
//!
//! The site-enumeration order of `pe-lint`'s collapser is additionally
//! pinned against [`enumerate_fault_sites`]: the two crates must agree on
//! what "the fault list of a netlist" means, element for element.

use pe_core::designs::{parallel, sequential};
use pe_data::{train_test_split, Dataset, Normalizer, UciProfile};
use pe_ml::linear::SvmTrainParams;
use pe_ml::multiclass::{MulticlassScheme, SvmModel};
use pe_ml::QuantizedSvm;
use pe_netlist::testing::{random_netlist, RandomNetlistSpec, RawNetlistBuilder};
use pe_netlist::{CellKind, Driver, Netlist};
use pe_sim::collapse::{fault_campaign_comb_ppsfp_collapsed, fault_campaign_seq_ppsfp_collapsed};
use pe_sim::faults::{
    enumerate_fault_sites, fault_campaign_comb_ppsfp_wide_obs, fault_campaign_seq_ppsfp_wide_obs,
    FaultSite,
};
use pe_sim::{ConeMode, LaneWidth};

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

const WIDTHS: [LaneWidth; 2] = [LaneWidth::W1, LaneWidth::W4];
const MODES: [ConeMode; 3] = [ConeMode::Auto, ConeMode::Always, ConeMode::Never];

/// Full vs. collapsed sequential campaign, every width × cone mode.
fn assert_seq_collapsed_identical(
    nl: &Netlist,
    sites: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out: &str,
    cycles: u64,
) {
    for width in WIDTHS {
        for mode in MODES {
            let (full, _) = fault_campaign_seq_ppsfp_wide_obs(
                nl, sites, workload, out, cycles, width, mode, None,
            )
            .unwrap();
            let (collapsed, stats) =
                fault_campaign_seq_ppsfp_collapsed(nl, sites, workload, out, cycles, width, mode)
                    .unwrap();
            assert_eq!(full, collapsed, "collapsed seq verdicts differ at {width:?}/{mode:?}");
            assert_eq!(stats.sites, sites.len());
            assert!(stats.simulated <= stats.sites);
        }
    }
}

/// Full vs. collapsed combinational campaign, every width × cone mode.
fn assert_comb_collapsed_identical(
    nl: &Netlist,
    sites: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out: &str,
) {
    for width in WIDTHS {
        for mode in MODES {
            let (full, _) =
                fault_campaign_comb_ppsfp_wide_obs(nl, sites, workload, out, width, mode, None)
                    .unwrap();
            let (collapsed, stats) =
                fault_campaign_comb_ppsfp_collapsed(nl, sites, workload, out, width, mode).unwrap();
            assert_eq!(full, collapsed, "collapsed comb verdicts differ at {width:?}/{mode:?}");
            assert_eq!(stats.sites, sites.len());
        }
    }
}

// ---- cross-crate enumeration pinning ------------------------------------

#[test]
fn lint_site_enumeration_matches_sim_enumeration() {
    let (q, _) = svm_model(MulticlassScheme::OneVsRest, 11);
    let designs: Vec<Netlist> = vec![
        sequential::build_sequential_ovr(&q),
        parallel::build_parallel_svm(&q),
        random_netlist(&fuzz_spec(4), 17),
    ];
    for nl in &designs {
        let sim_sites = enumerate_fault_sites(nl);
        let lint_sites = pe_lint::collapse::enumerate_sites(nl);
        assert_eq!(sim_sites.len(), lint_sites.len(), "site counts differ on {}", nl.name());
        for (a, b) in sim_sites.iter().zip(&lint_sites) {
            assert_eq!((a.net, a.stuck_at), (b.net, b.stuck_at));
        }
    }
}

// ---- random netlists ----------------------------------------------------

#[test]
fn random_sequential_netlists_collapse_identically() {
    for seed in [3u64, 19, 48] {
        let nl = random_netlist(&fuzz_spec(6), seed);
        let sites = enumerate_fault_sites(&nl);
        let workload = fuzz_workload(5, 12, seed ^ 0xC0FE);
        assert_seq_collapsed_identical(&nl, &sites, &workload, "o1", 3);
    }
}

#[test]
fn random_combinational_netlists_collapse_identically() {
    for seed in [7u64, 23] {
        let nl = random_netlist(&fuzz_spec(0), seed);
        let sites = enumerate_fault_sites(&nl);
        let workload = fuzz_workload(5, 16, seed);
        assert_comb_collapsed_identical(&nl, &sites, &workload, "o0");
    }
}

// ---- generated design styles --------------------------------------------

#[test]
fn sequential_svm_style_collapses_identically() {
    // The paper's headline circuit: clocked campaign, per-classification
    // reset. Sites are sampled to keep the debug-mode full reference fast;
    // the release-mode kernels bench runs the full 4k-site campaign.
    let (q, test) = svm_model(MulticlassScheme::OneVsRest, 5);
    let nl = sequential::build_sequential_ovr(&q);
    let sites: Vec<FaultSite> = enumerate_fault_sites(&nl).into_iter().step_by(9).collect();
    let workload = svm_workload(&q, &test, 8);
    assert_seq_collapsed_identical(&nl, &sites, &workload, "class", q.num_classes() as u64);
}

#[test]
fn parallel_svm_style_collapses_identically() {
    let (q, test) = svm_model(MulticlassScheme::OneVsOne, 9);
    let nl = parallel::build_parallel_svm(&q);
    let sites: Vec<FaultSite> = enumerate_fault_sites(&nl).into_iter().step_by(9).collect();
    let workload = svm_workload(&q, &test, 8);
    assert_comb_collapsed_identical(&nl, &sites, &workload, "class");
}

// ---- hand-built pathologies ---------------------------------------------

/// A dead xor cone hanging off the live path: its sites must be retired
/// statically, and the report must still match the full campaign.
#[test]
fn dead_cones_are_statically_benign() {
    let mut rb = RawNetlistBuilder::new("dead_cone");
    let x = rb.input("x0");
    let y = rb.input("x1");
    let live = rb.net(Driver::Input);
    rb.cell(CellKind::And2, &[x, y], live);
    let dead1 = rb.net(Driver::Input);
    rb.cell(CellKind::Xor2, &[x, y], dead1);
    let dead2 = rb.net(Driver::Input);
    rb.cell(CellKind::Xor2, &[dead1, x], dead2);
    rb.output("o0", &[live]);
    let nl = rb.finish();
    nl.validate().unwrap();

    let sites = enumerate_fault_sites(&nl);
    let workload = fuzz_workload(2, 4, 77);
    let (_, stats) = fault_campaign_comb_ppsfp_collapsed(
        &nl,
        &sites,
        &workload,
        "o0",
        LaneWidth::W1,
        ConeMode::Auto,
    )
    .unwrap();
    assert!(stats.static_benign > 0, "dead cone sites should be retired statically");
    assert_comb_collapsed_identical(&nl, &sites, &workload, "o0");
}

/// An inverter chain collapses to two equivalence classes; the collapsed
/// campaign pins at most two lanes yet reports all six sites.
#[test]
fn inverter_chains_collapse_to_class_representatives() {
    let mut rb = RawNetlistBuilder::new("inv_chain");
    let x = rb.input("x0");
    let mut cur = x;
    for _ in 0..3 {
        let next = rb.net(Driver::Input);
        rb.cell(CellKind::Inv, &[cur], next);
        cur = next;
    }
    rb.output("o0", &[cur]);
    let nl = rb.finish();
    nl.validate().unwrap();

    let sites = enumerate_fault_sites(&nl);
    assert_eq!(sites.len(), 6);
    let workload = fuzz_workload(1, 4, 5);
    let (_, stats) = fault_campaign_comb_ppsfp_collapsed(
        &nl,
        &sites,
        &workload,
        "o0",
        LaneWidth::W1,
        ConeMode::Never,
    )
    .unwrap();
    assert_eq!(stats.classes, 2, "x -> inv^3 -> y holds exactly two collapse classes");
    assert!(stats.simulated <= 2);
    assert_comb_collapsed_identical(&nl, &sites, &workload, "o0");
}

/// A gate the workload never exercises: an `And2` leg held at 0 keeps the
/// gate's output at 0 in every entry, so its stuck-at-0 site is benign on
/// this workload although no static rule can retire it. The collapsed
/// campaign must simulate it and still match the full campaign.
#[test]
fn workload_quiet_sites_collapse_identically() {
    let mut rb = RawNetlistBuilder::new("quiet");
    let x = rb.input("x0");
    let y = rb.input("x1");
    let g = rb.net(Driver::Input);
    rb.cell(CellKind::And2, &[x, y], g);
    let o = rb.net(Driver::Input);
    rb.cell(CellKind::Xor2, &[g, x], o);
    rb.output("o0", &[o]);
    let nl = rb.finish();
    nl.validate().unwrap();

    let workload: Vec<Vec<(String, i64)>> = (0..3)
        .map(|i| vec![("x0".to_string(), i64::from(i % 2 == 0)), ("x1".to_string(), 0)])
        .collect();
    let sites = enumerate_fault_sites(&nl);
    assert_comb_collapsed_identical(&nl, &sites, &workload, "o0");
}
