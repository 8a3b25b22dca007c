//! Integration tests for the import/export and robustness tooling on real
//! generated classifier circuits.

use printed_svm::core::designs::{parallel, sequential};
use printed_svm::netlist::{verilog, verilog_parse};
use printed_svm::prelude::*;
use printed_svm::sim::collapse::fault_campaign_seq_ppsfp_collapsed;
use printed_svm::sim::faults::{
    enumerate_fault_sites, fault_campaign_comb, fault_campaign_seq,
    fault_campaign_seq_ppsfp_wide_obs,
};
use printed_svm::sim::{ConeMode, LaneWidth};

fn quantized(profile: UciProfile, scheme: MulticlassScheme) -> (QuantizedSvm, Dataset) {
    let d = profile.generate(77);
    let (train, test) = train_test_split(&d, 0.2, 77);
    let norm = Normalizer::fit(&train);
    let (train, test) = (norm.apply(&train), norm.apply(&test));
    let sub: Vec<usize> = (0..train.len().min(300)).collect();
    let p = SvmTrainParams { max_epochs: 30, ..SvmTrainParams::default() };
    let m = SvmModel::train(&train.subset(&sub, "-s").quantize_inputs(4), scheme, &p);
    (QuantizedSvm::quantize(&m, 4, 5), test)
}

#[test]
fn sequential_svm_survives_verilog_round_trip() {
    let (q, test) = quantized(UciProfile::Cardio, MulticlassScheme::OneVsRest);
    let original = sequential::build_sequential_ovr(&q);
    let text = verilog::to_verilog(&original);
    let imported = verilog_parse::from_verilog(&text).expect("emitted subset must re-parse");
    imported.validate().unwrap();
    // Functional equivalence over real samples, on both netlists.
    let mut sim_a = Simulator::new(&original).unwrap();
    let mut sim_b = Simulator::new(&imported).unwrap();
    let n = q.num_classes();
    for x in test.features().iter().take(20) {
        let x_q = q.quantize_input(x);
        for (i, &v) in x_q.iter().enumerate() {
            sim_a.set_input(&format!("x{i}"), v);
            sim_b.set_input(&format!("x{i}"), v);
        }
        for _ in 0..n {
            sim_a.tick();
            sim_b.tick();
        }
        assert_eq!(
            sim_a.output_unsigned("class"),
            sim_b.output_unsigned("class"),
            "round-tripped netlist diverged"
        );
    }
}

#[test]
fn parallel_svm_survives_verilog_round_trip() {
    let (q, test) = quantized(UciProfile::Cardio, MulticlassScheme::OneVsOne);
    let original = parallel::build_parallel_svm(&q);
    let imported = verilog_parse::from_verilog(&verilog::to_verilog(&original)).expect("re-parse");
    let mut sim_a = Simulator::new(&original).unwrap();
    let mut sim_b = Simulator::new(&imported).unwrap();
    for x in test.features().iter().take(20) {
        let x_q = q.quantize_input(x);
        for (i, &v) in x_q.iter().enumerate() {
            sim_a.set_input(&format!("x{i}"), v);
            sim_b.set_input(&format!("x{i}"), v);
        }
        sim_a.eval_comb();
        sim_b.eval_comb();
        assert_eq!(sim_a.output_unsigned("class"), sim_b.output_unsigned("class"));
    }
}

#[test]
fn classifiers_mask_a_good_fraction_of_faults() {
    // The printed-yield story: many stuck-at defects never flip a
    // prediction, on both architectures.
    let (q, test) = quantized(UciProfile::Cardio, MulticlassScheme::OneVsRest);
    let workload: Vec<Vec<(String, i64)>> = test
        .features()
        .iter()
        .take(12)
        .map(|x| {
            q.quantize_input(x).iter().enumerate().map(|(i, &v)| (format!("x{i}"), v)).collect()
        })
        .collect();

    let seq_nl = sequential::build_sequential_ovr(&q);
    let seq_sites: Vec<_> = enumerate_fault_sites(&seq_nl).into_iter().step_by(23).collect();
    let seq_report =
        fault_campaign_seq(&seq_nl, &seq_sites, &workload, "class", q.num_classes() as u64)
            .unwrap();
    assert!(seq_report.total > 20);
    assert!(
        seq_report.benign > 0 && seq_report.critical > 0,
        "expected a mix of masked and critical faults: {seq_report:?}"
    );

    let par_nl = parallel::build_parallel_svm(&q);
    let par_sites: Vec<_> = enumerate_fault_sites(&par_nl).into_iter().step_by(31).collect();
    let par_report = fault_campaign_comb(&par_nl, &par_sites, &workload, "class").unwrap();
    assert!(par_report.benign > 0 && par_report.critical > 0, "{par_report:?}");
    // Neither architecture is catastrophically fragile on this workload.
    assert!(seq_report.criticality() < 0.9);
    assert!(par_report.criticality() < 0.9);
}

#[test]
fn collapsed_campaign_is_bit_identical_and_retires_13_percent_of_sites() {
    // Every stuck-at site of the Table-I sequential SVM (Cardio seed 7, OvR
    // quantized 4/6) under a 12-vector workload, at W=8. Cone scheduling and
    // static collapsing may only skip work, never change a verdict; the
    // collapse must retire at least 13 % of the 4126 sites (class merges
    // plus statically benign classes).
    let d = UciProfile::Cardio.generate(7);
    let (train, test) = train_test_split(&d, 0.2, 7);
    let norm = Normalizer::fit(&train);
    let (train, test) = (norm.apply(&train), norm.apply(&test));
    let m = SvmModel::train(&train, MulticlassScheme::OneVsRest, &SvmTrainParams::default());
    let q = QuantizedSvm::quantize(&m, 4, 6);
    let nl = sequential::build_sequential_ovr(&q);
    let workload: Vec<Vec<(String, i64)>> = test
        .features()
        .iter()
        .take(12)
        .map(|x| {
            q.quantize_input(x).iter().enumerate().map(|(i, &v)| (format!("x{i}"), v)).collect()
        })
        .collect();
    let sites = enumerate_fault_sites(&nl);
    assert_eq!(sites.len(), 4126);
    let cycles = q.num_classes() as u64;
    let width = LaneWidth::W8;
    let campaign = |mode| {
        fault_campaign_seq_ppsfp_wide_obs(
            &nl, &sites, &workload, "class", cycles, width, mode, None,
        )
        .unwrap()
        .0
    };
    let full = campaign(ConeMode::Auto);
    assert_eq!(full, campaign(ConeMode::Never), "cone scheduling changed a verdict");
    let (collapsed, stats) = fault_campaign_seq_ppsfp_collapsed(
        &nl,
        &sites,
        &workload,
        "class",
        cycles,
        width,
        ConeMode::Auto,
    )
    .unwrap();
    assert_eq!(collapsed, full, "collapsing changed a verdict");
    assert_eq!(stats.sites, sites.len());
    assert!(
        stats.reduction() >= 0.13,
        "collapsing retired only {:.1} % of {} sites",
        100.0 * stats.reduction(),
        stats.sites
    );
}

#[test]
fn netlist_sweep_preserves_generated_design_behavior() {
    let (q, test) = quantized(UciProfile::Cardio, MulticlassScheme::OneVsRest);
    let nl = sequential::build_sequential_ovr(&q);
    let (swept, stats) = printed_svm::netlist::opt::sweep(&nl).unwrap();
    swept.validate().unwrap();
    assert!(stats.cells_after <= stats.cells_before);
    let mut sim_a = Simulator::new(&nl).unwrap();
    let mut sim_b = Simulator::new(&swept).unwrap();
    let n = q.num_classes();
    for x in test.features().iter().take(15) {
        let x_q = q.quantize_input(x);
        for (i, &v) in x_q.iter().enumerate() {
            sim_a.set_input(&format!("x{i}"), v);
            sim_b.set_input(&format!("x{i}"), v);
        }
        for _ in 0..n {
            sim_a.tick();
            sim_b.tick();
        }
        assert_eq!(sim_a.output_unsigned("class"), sim_b.output_unsigned("class"));
    }
}
