//! Benches for the heavy kernels each pipeline stage runs: SVM training,
//! netlist elaboration, batched gate-level simulation and the STA/area/
//! power analyses.

use pe_bench::harness::{black_box, BenchGroup};
use pe_cells::{EgfetLibrary, TechParams};
use pe_core::designs::{parallel, sequential};
use pe_data::{train_test_split, Normalizer, UciProfile};
use pe_ml::linear::SvmTrainParams;
use pe_ml::multiclass::{MulticlassScheme, SvmModel};
use pe_ml::QuantizedSvm;
use pe_sim::{BatchMode, LaneWidth, Simulator};

struct Fixture {
    train: pe_data::Dataset,
    test: pe_data::Dataset,
    q_ovr: QuantizedSvm,
    q_ovo: QuantizedSvm,
}

fn fixture() -> Fixture {
    let d = UciProfile::Cardio.generate(7);
    let (train, test) = train_test_split(&d, 0.2, 7);
    let norm = Normalizer::fit(&train);
    let (train, test) = (norm.apply(&train), norm.apply(&test));
    let p = SvmTrainParams::default();
    let ovr = SvmModel::train(&train, MulticlassScheme::OneVsRest, &p);
    let ovo = SvmModel::train(
        &train,
        MulticlassScheme::OneVsOne,
        &SvmTrainParams { balance_classes: false, ..p },
    );
    Fixture {
        q_ovr: QuantizedSvm::quantize(&ovr, 4, 6),
        q_ovo: QuantizedSvm::quantize(&ovo, 8, 6),
        train,
        test,
    }
}

fn bench_training(g: &mut BenchGroup, f: &Fixture) {
    g.bench("svm_ovr_cardio", || {
        black_box(SvmModel::train(
            &f.train,
            MulticlassScheme::OneVsRest,
            &SvmTrainParams { max_epochs: 30, ..SvmTrainParams::default() },
        ));
    });
}

fn bench_elaboration(g: &mut BenchGroup, f: &Fixture) {
    g.bench("sequential_cardio", || {
        black_box(sequential::build_sequential_ovr(&f.q_ovr));
    });
    g.bench("parallel_ovo_cardio", || {
        black_box(parallel::build_parallel_svm(&f.q_ovo));
    });
}

fn bench_simulation(g: &mut BenchGroup, f: &Fixture) {
    let nl = sequential::build_sequential_ovr(&f.q_ovr);
    let samples: Vec<Vec<i64>> =
        f.test.features().iter().take(16).map(|x| f.q_ovr.quantize_input(x)).collect();
    g.bench("sequential_16_classifications", || {
        let mut sim = Simulator::new(&nl).unwrap();
        black_box(sim.run_batch(&samples, 3, "class"));
    });
}

/// Scalar vs. bit-sliced `run_batch` on a full 64-vector chunk of the
/// Table-I sequential SVM circuit, then the same 512-classification batch at
/// every slab width (64–512 packed vectors per sweep).
fn bench_batch_engines(g: &mut BenchGroup, f: &Fixture) {
    let nl = sequential::build_sequential_ovr(&f.q_ovr);
    let samples: Vec<Vec<i64>> =
        f.test.features().iter().cycle().take(512).map(|x| f.q_ovr.quantize_input(x)).collect();
    g.bench("scalar_64_classifications", || {
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_batch_mode(BatchMode::Scalar);
        black_box(sim.run_batch(&samples[..64], 3, "class"));
    });
    g.bench("bitsliced_64_classifications", || {
        let mut sim = Simulator::new(&nl).unwrap();
        black_box(sim.run_batch(&samples[..64], 3, "class"));
    });
    for width in LaneWidth::ALL {
        g.bench(&format!("bitsliced_512_classifications_w{width}"), || {
            let mut sim = Simulator::new(&nl).unwrap();
            sim.set_lane_width(width);
            black_box(sim.run_batch(&samples, 3, "class"));
        });
    }
}

fn bench_analysis(g: &mut BenchGroup, f: &Fixture) {
    let nl = parallel::build_parallel_svm(&f.q_ovo);
    let lib = EgfetLibrary::standard();
    let tech = TechParams::standard();
    g.bench("sta_parallel_cardio", || {
        black_box(pe_synth::analyze_timing(&nl, &lib, &tech).unwrap());
    });
    g.bench("area_parallel_cardio", || {
        black_box(pe_synth::analyze_area(&nl, &lib));
    });
    let activity = pe_sim::ActivityReport::uniform(nl.num_nets(), 100, 0.3);
    g.bench("power_parallel_cardio", || {
        black_box(pe_synth::analyze_power(&nl, &lib, &tech, &activity, 20.0).unwrap());
    });
}

fn main() {
    let f = fixture();
    let mut g = BenchGroup::new("training");
    bench_training(&mut g, &f);
    let mut g = BenchGroup::new("elaboration");
    bench_elaboration(&mut g, &f);
    let mut g = BenchGroup::new("simulation");
    bench_simulation(&mut g, &f);
    bench_batch_engines(&mut g, &f);
    let mut g = BenchGroup::new("analysis");
    bench_analysis(&mut g, &f);
}
