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
use pe_sim::collapse::fault_campaign_seq_ppsfp_collapsed;
use pe_sim::faults::{enumerate_fault_sites, fault_campaign_seq_ppsfp_wide_obs};
use pe_sim::{BatchMode, ConeMode, LaneWidth, Simulator};
use std::time::Instant;

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
/// Table-I sequential SVM circuit: the kernel the bit-slicing PR exists
/// for. Reports both engines through the harness and prints the measured
/// speedup (acceptance floor: 8x on this batch).
fn bench_bitslice_speedup(g: &mut BenchGroup, f: &Fixture) {
    let nl = sequential::build_sequential_ovr(&f.q_ovr);
    let samples: Vec<Vec<i64>> =
        f.test.features().iter().cycle().take(64).map(|x| f.q_ovr.quantize_input(x)).collect();
    g.bench("scalar_64_classifications", || {
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_batch_mode(BatchMode::Scalar);
        black_box(sim.run_batch(&samples, 3, "class"));
    });
    g.bench("bitsliced_64_classifications", || {
        let mut sim = Simulator::new(&nl).unwrap();
        black_box(sim.run_batch(&samples, 3, "class"));
    });
    // Direct head-to-head on identical fresh simulators (batch only, no
    // scheduling), so the printed ratio isolates the kernel speedup.
    let time = |mode: BatchMode| {
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_batch_mode(mode);
        sim.run_batch(&samples, 3, "class"); // warm up
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_batch_mode(mode);
        let t0 = std::time::Instant::now();
        let reps = 5;
        for _ in 0..reps {
            black_box(sim.run_batch(&samples, 3, "class"));
        }
        t0.elapsed() / reps
    };
    let scalar = time(BatchMode::Scalar);
    let sliced = time(BatchMode::BitSliced);
    println!(
        "simulation/bitslice_speedup                  {:.1}x  (scalar {:?} / bit-sliced {:?} per 64-vector batch)",
        scalar.as_secs_f64() / sliced.as_secs_f64(),
        scalar,
        sliced
    );
}

/// One row of the lane-width sweep: `run_batch` over the same 512-vector
/// Table-I workload at each slab width.
struct WidthRow {
    words: usize,
    secs: f64,
    vectors_per_sec: f64,
    speedup_vs_scalar: f64,
    speedup_vs_w1: f64,
}

/// Times one closure as the median of `reps` runs.
fn median_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    f(); // warm up
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The tentpole measurement: the same 512-classification sequential-SVM
/// batch at every slab width (64–512 packed vectors per sweep), against the
/// scalar engine; plus the PPSFP sweep-count payoff on a >64-site fault
/// campaign. Writes `BENCH_kernels.json` with the raw numbers.
fn bench_width_sweep(g: &mut BenchGroup, f: &Fixture) {
    let nl = sequential::build_sequential_ovr(&f.q_ovr);
    let samples: Vec<Vec<i64>> =
        f.test.features().iter().cycle().take(512).map(|x| f.q_ovr.quantize_input(x)).collect();
    let reps = 5;
    let time_width = |width: LaneWidth| {
        median_secs(reps, || {
            let mut sim = Simulator::new(&nl).unwrap();
            sim.set_lane_width(width);
            black_box(sim.run_batch(&samples, 3, "class"));
        })
    };
    let scalar_secs = median_secs(reps, || {
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_batch_mode(BatchMode::Scalar);
        black_box(sim.run_batch(&samples, 3, "class"));
    });
    for width in LaneWidth::ALL {
        g.bench(&format!("bitsliced_512_classifications_w{width}"), || {
            let mut sim = Simulator::new(&nl).unwrap();
            sim.set_lane_width(width);
            black_box(sim.run_batch(&samples, 3, "class"));
        });
    }
    let w1_secs = time_width(LaneWidth::W1);
    let rows: Vec<WidthRow> = LaneWidth::ALL
        .into_iter()
        .map(|width| {
            let secs = if width == LaneWidth::W1 { w1_secs } else { time_width(width) };
            WidthRow {
                words: width.words(),
                secs,
                vectors_per_sec: samples.len() as f64 / secs,
                speedup_vs_scalar: scalar_secs / secs,
                speedup_vs_w1: w1_secs / secs,
            }
        })
        .collect();
    let best = rows.iter().max_by(|a, b| a.speedup_vs_w1.total_cmp(&b.speedup_vs_w1)).unwrap();
    println!(
        "simulation/width_sweep                       best W={} ({:.2}x vs W=1, {:.1}x vs scalar, {:.0} vectors/s on 512x3-cycle cardio:seq)",
        best.words, best.speedup_vs_w1, best.speedup_vs_scalar, best.vectors_per_sec
    );

    // PPSFP occupancy: a campaign with more than 64 sites needs
    // ceil(sites / 64W) sweeps — wider slabs finish in fewer sweeps.
    let sites = enumerate_fault_sites(&nl);
    let workload: Vec<Vec<(String, i64)>> = samples
        .iter()
        .take(12)
        .map(|x| x.iter().enumerate().map(|(i, &v)| (format!("x{i}"), v)).collect())
        .collect();
    assert!(sites.len() > 64, "cardio:seq must expose a >64-site campaign");
    let campaign = |width, mode| {
        fault_campaign_seq_ppsfp_wide_obs(&nl, &sites, &workload, "class", 3, width, mode, None)
            .unwrap()
    };
    let ppsfp: Vec<(usize, usize, f64)> = LaneWidth::ALL
        .into_iter()
        .map(|width| {
            let sweeps = sites.len().div_ceil(width.lanes());
            let secs = median_secs(3, || {
                black_box(campaign(width, ConeMode::Auto));
            });
            (width.words(), sweeps, secs)
        })
        .collect();
    println!(
        "faults/ppsfp_width_sweep                     {} sites: {} sweeps at W=1 -> {} at W=8 ({:.2}x faster)",
        sites.len(),
        ppsfp[0].1,
        ppsfp[3].1,
        ppsfp[0].2 / ppsfp[3].2
    );

    // Cone-scheduled PPSFP on the same full Table-I campaign: chunks whose
    // union fanout cone is sparse run through the cone pass, the rest fall
    // back to the dense sweep — verdicts identical, cell evaluations
    // counted both ways. Sites enumerate in netlist (≈ topological) order,
    // so the output-side chunks are the ones with small cones.
    let cone_width = LaneWidth::W8;
    let (auto_report, auto_stats) = campaign(cone_width, ConeMode::Auto);
    let (never_report, never_stats) = campaign(cone_width, ConeMode::Never);
    assert_eq!(auto_report, never_report, "cone-scheduled verdicts must be bit-identical");
    let avoided_pct = 100.0 * (1.0 - auto_stats.cell_evals as f64 / never_stats.cell_evals as f64);
    let auto_secs = median_secs(3, || {
        black_box(campaign(cone_width, ConeMode::Auto));
    });
    let never_secs = median_secs(3, || {
        black_box(campaign(cone_width, ConeMode::Never));
    });
    println!(
        "faults/cone_scheduling                       {}/{} chunks through cones at W=8, {:.1}% cell evals avoided ({:.2}x faster)",
        auto_stats.cone_chunks,
        auto_stats.chunks,
        avoided_pct,
        never_secs / auto_secs
    );

    // Static fault collapsing on the same full campaign: the collapsed path
    // retires equivalence-class duplicates and unobservable cones before
    // pinning any lane, then expands the representatives' verdicts back
    // over all sites. The gate: the report must be bit-identical and at
    // least 13 % of the sites must collapse away (25 class-merged + 542
    // statically benign of 4126 is 13.7 %). (The analysis is a fixed
    // per-campaign cost, so at W=8, where the full campaign is only a few
    // sweeps, the honest speedup below can dip under 1x.)
    let t_collapse = Instant::now();
    let (collapsed_report, cstats) = fault_campaign_seq_ppsfp_collapsed(
        &nl,
        &sites,
        &workload,
        "class",
        3,
        cone_width,
        ConeMode::Auto,
    )
    .unwrap();
    let collapsed_secs = t_collapse.elapsed().as_secs_f64();
    assert_eq!(
        collapsed_report, auto_report,
        "collapsed campaign must be bit-identical to the full campaign"
    );
    assert!(
        cstats.reduction() >= 0.13,
        "fault collapsing must retire >= 13 % of the {} sites (got {:.1} %)",
        cstats.sites,
        100.0 * cstats.reduction()
    );
    let collapsed_sweeps = cstats.simulated.div_ceil(cone_width.lanes());
    println!(
        "faults/collapse                              {} sites -> {} simulated ({:.1}% collapsed: {} merged into classes, {} statically-benign classes), {} sweeps -> {}, bit-identical",
        cstats.sites,
        cstats.simulated,
        100.0 * cstats.reduction(),
        cstats.sites - cstats.classes,
        cstats.static_benign,
        sites.len().div_ceil(cone_width.lanes()),
        collapsed_sweeps,
    );

    // Machine-readable record for the acceptance gates and the README.
    let width_json: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "{{\"words\": {}, \"secs\": {:.6}, \"vectors_per_sec\": {:.0}, \
                 \"speedup_vs_scalar\": {:.3}, \"speedup_vs_w1\": {:.3}}}",
                r.words, r.secs, r.vectors_per_sec, r.speedup_vs_scalar, r.speedup_vs_w1
            )
        })
        .collect();
    let ppsfp_json: Vec<String> = ppsfp
        .iter()
        .map(|(words, sweeps, secs)| {
            format!("{{\"words\": {words}, \"sweeps\": {sweeps}, \"secs\": {secs:.6}}}")
        })
        .collect();
    let json = format!(
        "{{\n  \"workload\": \"cardio:seq, 512 classifications x 3 cycles\",\n  \
         \"scalar_secs\": {:.6},\n  \"scalar_vectors_per_sec\": {:.0},\n  \
         \"widths\": [\n    {}\n  ],\n  \"best_words\": {},\n  \
         \"best_speedup_vs_w1\": {:.3},\n  \"ppsfp\": {{\n    \"sites\": {},\n    \
         \"workload_vectors\": {},\n    \"sweep\": [\n      {}\n    ]\n  }},\n  \
         \"cone\": {{\n    \"width_words\": {},\n    \"chunks\": {},\n    \
         \"cone_chunks\": {},\n    \"fallback_chunks\": {},\n    \
         \"cell_evals_auto\": {},\n    \"cell_evals_full\": {},\n    \
         \"cell_evals_avoided_pct\": {:.1},\n    \"auto_secs\": {:.6},\n    \
         \"full_secs\": {:.6}\n  }},\n  \
         \"collapse\": {{\n    \"sites\": {},\n    \"classes\": {},\n    \
         \"static_benign_classes\": {},\n    \
         \"simulated\": {},\n    \"reduction\": {:.4},\n    \
         \"collapsed_secs\": {:.6},\n    \"full_secs\": {:.6},\n    \
         \"speedup\": {:.3}\n  }}\n}}\n",
        scalar_secs,
        samples.len() as f64 / scalar_secs,
        width_json.join(",\n    "),
        best.words,
        best.speedup_vs_w1,
        sites.len(),
        workload.len(),
        ppsfp_json.join(",\n      "),
        cone_width.words(),
        auto_stats.chunks,
        auto_stats.cone_chunks,
        auto_stats.fallback_chunks,
        auto_stats.cell_evals,
        never_stats.cell_evals,
        avoided_pct,
        auto_secs,
        never_secs,
        cstats.sites,
        cstats.classes,
        cstats.static_benign,
        cstats.simulated,
        cstats.reduction(),
        collapsed_secs,
        auto_secs,
        auto_secs / collapsed_secs.max(1e-9),
    );
    // Anchor to the workspace root: cargo runs bench binaries with the
    // package directory as cwd.
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    if let Err(e) = std::fs::write(out, &json) {
        eprintln!("kernels: cannot write BENCH_kernels.json: {e}");
    } else {
        println!("wrote BENCH_kernels.json");
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
    bench_bitslice_speedup(&mut g, &f);
    bench_width_sweep(&mut g, &f);
    let mut g = BenchGroup::new("analysis");
    bench_analysis(&mut g, &f);
}
