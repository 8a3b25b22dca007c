//! The end-to-end evaluation pipeline: train → quantize → generate →
//! verify → simulate → analyze.
//!
//! [`run_experiment`] reproduces one cell-row of the paper's Table I: it
//! trains the style's model on a synthetic UCI-shaped dataset under the
//! paper's protocol (normalized `[0,1]` inputs, random 80/20 split), applies
//! the style's quantization policy, elaborates the bespoke netlist, checks
//! the netlist **bit-exactly** against the integer golden model on test
//! samples while collecting real switching activity, and runs the
//! STA/area/power flow to produce the six metrics the paper reports.

use crate::designs;
use crate::report::DesignReport;
use crate::styles::{default_params, DesignStyle, WeightPrecision};
use pe_cells::{EgfetLibrary, TechParams};
use pe_data::{train_test_split, Dataset, Normalizer, UciProfile};
use pe_fixed::search::{search_lowest_width, SearchSpec};
use pe_ml::linear::SvmTrainParams;
use pe_ml::mlp::{Mlp, MlpTrainParams};
use pe_ml::multiclass::{MulticlassScheme, SvmModel};
use pe_ml::{QuantizedMlp, QuantizedSvm};
use pe_netlist::Netlist;
use pe_sim::{LaneWidth, Simulator};

/// Options shared by all experiments.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Master seed (dataset generation, splits, training shuffles).
    pub seed: u64,
    /// Held-out fraction (the paper uses 0.2).
    pub test_fraction: f64,
    /// How many test samples to drive through the gate-level simulator for
    /// verification and activity extraction (accuracy itself is computed on
    /// the full test set with the integer golden model).
    pub max_sim_samples: usize,
    /// The cell library.
    pub lib: EgfetLibrary,
    /// Technology parameters.
    pub tech: TechParams,
    /// Slab width for the bit-sliced engine: how many 64-lane words each
    /// net's packed value spans (64–512 vectors per topological sweep).
    /// `None` picks a per-model default from the netlist size
    /// ([`LaneWidth::auto_for_netlist`]); `Some` sets it. The width is the
    /// batch's chunk size and a cap: a batch sweeps the narrowest slab that
    /// holds one chunk ([`LaneWidth::for_batch`]).
    pub lane_width: Option<LaneWidth>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions {
            seed: 7,
            test_fraction: 0.2,
            max_sim_samples: 120,
            lib: EgfetLibrary::standard(),
            tech: TechParams::standard(),
            lane_width: None,
        }
    }
}

/// The trained-and-quantized model for one style (exposed so examples can
/// inspect coefficients or reuse models across analyses).
#[derive(Debug, Clone)]
pub enum PreparedModel {
    /// A quantized SVM (sequential or parallel styles).
    Svm(QuantizedSvm),
    /// A quantized MLP (baseline \[4\]).
    Mlp(QuantizedMlp),
}

/// Everything produced before hardware generation.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The quantized model.
    pub model: PreparedModel,
    /// Float-model test accuracy (reference point).
    pub float_accuracy: f64,
    /// Integer-model test accuracy (what Table I reports).
    pub quant_accuracy: f64,
    /// The coefficient width actually used.
    pub weight_bits: u32,
    /// The input width actually used.
    pub input_bits: u32,
    /// The normalized test set.
    pub test: Dataset,
}

/// Trains and quantizes the model for `(profile, style)` under the paper's
/// protocol. Exposed separately from [`run_experiment`] so callers can
/// reuse the expensive training step.
#[must_use]
pub fn prepare_model(profile: UciProfile, style: DesignStyle, opts: &RunOptions) -> Prepared {
    let params = default_params(style, profile);
    let data = profile.generate(opts.seed);
    let (train, test) = train_test_split(&data, opts.test_fraction, opts.seed);
    let norm = Normalizer::fit(&train);
    let (train, test) = (norm.apply(&train), norm.apply(&test));
    // The paper trains with low-precision inputs: snap the training set to
    // the style's input grid.
    let train_q = train.quantize_inputs(params.input_bits);

    match style {
        DesignStyle::ParallelMlp => {
            let arch = params.mlp.expect("MLP style has an architecture");
            let mlp = Mlp::train(
                &train_q,
                &MlpTrainParams {
                    hidden: arch.hidden,
                    epochs: arch.epochs,
                    seed: opts.seed ^ 0x4d4c50,
                    ..MlpTrainParams::default()
                },
            );
            let float_accuracy = mlp.accuracy(&test);
            let weight_bits = match params.weight_precision {
                WeightPrecision::Fixed(w) => w,
                WeightPrecision::Search { max, .. } => max,
            };
            let q = QuantizedMlp::quantize(
                &mlp,
                &train_q,
                params.input_bits,
                weight_bits,
                arch.hidden_bits,
            );
            let quant_accuracy = q.accuracy(&test);
            Prepared {
                model: PreparedModel::Mlp(q),
                float_accuracy,
                quant_accuracy,
                weight_bits,
                input_bits: params.input_bits,
                test,
            }
        }
        _ => {
            let scheme = if style == DesignStyle::SequentialSvm {
                MulticlassScheme::OneVsRest
            } else {
                MulticlassScheme::OneVsOne
            };
            // The baselines replicate their published flows (sklearn-default
            // unweighted training). The paper's own models are trained more
            // carefully: for OvR we fit both class-rebalanced and unweighted
            // variants and keep whichever fits the training set better
            // (rebalancing rescues heavily imbalanced OvR subproblems such
            // as WhiteWine's rare quality grades, but over-boosts minority
            // classes on Cardio).
            let model = if scheme == MulticlassScheme::OneVsRest {
                let balanced = SvmModel::train(
                    &train_q,
                    scheme,
                    &SvmTrainParams {
                        seed: opts.seed ^ 0x53564d,
                        balance_classes: true,
                        ..SvmTrainParams::default()
                    },
                );
                let unweighted = SvmModel::train(
                    &train_q,
                    scheme,
                    &SvmTrainParams {
                        seed: opts.seed ^ 0x53564d,
                        balance_classes: false,
                        ..SvmTrainParams::default()
                    },
                );
                if balanced.accuracy(&train_q) >= unweighted.accuracy(&train_q) {
                    balanced
                } else {
                    unweighted
                }
            } else {
                SvmModel::train(
                    &train_q,
                    scheme,
                    &SvmTrainParams {
                        seed: opts.seed ^ 0x53564d,
                        balance_classes: false,
                        ..SvmTrainParams::default()
                    },
                )
            };
            let float_accuracy = model.accuracy(&test);
            let (weight_bits, q) = match params.weight_precision {
                WeightPrecision::Fixed(w) => {
                    (w, QuantizedSvm::quantize(&model, params.input_bits, w))
                }
                WeightPrecision::Search { min, max, tolerance } => {
                    // §II: "quantize ... to the lowest precision that can
                    // retain acceptable accuracy" — judged on training data.
                    let reference = model.accuracy(&train_q);
                    let spec = SearchSpec::new(min, max, tolerance, reference);
                    // Candidate widths are independent, so quantize-and-score
                    // them in parallel, then replay the serial early-exit scan
                    // against the precomputed table: the chosen width and the
                    // outcome trace stay bit-identical to a serial search.
                    // With one worker the eager evaluation would only waste
                    // the scan's early exit, so fall back to the lazy scan.
                    let score =
                        |w| QuantizedSvm::quantize(&model, params.input_bits, w).accuracy(&train_q);
                    let widths: Vec<u32> = (min..=max).collect();
                    let threads = crate::engine::default_threads(widths.len());
                    let outcome = if threads <= 1 {
                        search_lowest_width(spec, score)
                    } else {
                        let accuracies =
                            crate::engine::parallel_map(&widths, threads, |&w| score(w));
                        search_lowest_width(spec, |w| accuracies[(w - min) as usize])
                    };
                    (
                        outcome.width,
                        QuantizedSvm::quantize(&model, params.input_bits, outcome.width),
                    )
                }
            };
            let q = match params.csd_terms {
                Some(terms) => q.approximate_csd(terms),
                None => q,
            };
            let quant_accuracy = q.accuracy(&test);
            Prepared {
                model: PreparedModel::Svm(q),
                float_accuracy,
                quant_accuracy,
                weight_bits,
                input_bits: params.input_bits,
                test,
            }
        }
    }
}

/// Elaborates the netlist for a prepared model.
#[must_use]
pub fn build_netlist(style: DesignStyle, prepared: &Prepared) -> Netlist {
    match (&prepared.model, style) {
        (PreparedModel::Svm(q), DesignStyle::SequentialSvm) => {
            designs::sequential::build_sequential_ovr(q)
        }
        (PreparedModel::Svm(q), _) => designs::parallel::build_parallel_svm(q),
        (PreparedModel::Mlp(q), _) => designs::mlp::build_parallel_mlp(q),
    }
}

/// Builds a port-named fault-campaign workload from the first `n` test
/// samples of a prepared model: each entry quantizes one sample onto the
/// model's input grid and names the `x{i}` input ports the generated
/// datapaths use — the format `pe_sim::faults` campaigns drive.
#[must_use]
pub fn fault_workload(prepared: &Prepared, n: usize) -> Vec<Vec<(String, i64)>> {
    prepared
        .test
        .features()
        .iter()
        .take(n)
        .map(|x| {
            let xq = match &prepared.model {
                PreparedModel::Svm(q) => q.quantize_input(x),
                PreparedModel::Mlp(q) => q.quantize_input(x),
            };
            xq.iter().enumerate().map(|(i, &v)| (format!("x{i}"), v)).collect()
        })
        .collect()
}

/// Cycles one classification occupies: `n` for the sequential design (one
/// support vector per cycle), 1 for every parallel design.
#[must_use]
pub fn cycles_per_inference(style: DesignStyle, prepared: &Prepared) -> u64 {
    match (style, &prepared.model) {
        (DesignStyle::SequentialSvm, PreparedModel::Svm(q)) => q.num_classes() as u64,
        (DesignStyle::SequentialSvm, PreparedModel::Mlp(_)) => {
            unreachable!("the sequential style always prepares an SVM")
        }
        _ => 1,
    }
}

/// The first `n` test samples (at most the whole test set) quantized onto
/// the model's input grid, with the integer golden model's class for each.
fn golden_vectors(prepared: &Prepared, n: usize) -> (Vec<Vec<i64>>, Vec<usize>) {
    prepared
        .test
        .features()
        .iter()
        .take(n)
        .map(|x| match &prepared.model {
            PreparedModel::Svm(q) => {
                let xq = q.quantize_input(x);
                let g = q.predict_int(&xq);
                (xq, g)
            }
            PreparedModel::Mlp(q) => {
                let xq = q.quantize_input(x);
                let g = q.predict_int(&xq);
                (xq, g)
            }
        })
        .unzip()
}

/// Runs one full Table-I cell-row: see the [module docs](self).
///
/// This is the canonical single-job entry point; grid runs go through
/// [`crate::engine::ExperimentEngine`], which reuses [`prepare_model`]
/// results across jobs and calls [`run_prepared`] with the memoized model.
///
/// # Panics
///
/// Panics if the generated circuit cannot be scheduled (would indicate an
/// internal bug; generated designs are acyclic by construction).
#[must_use]
pub fn run_experiment(profile: UciProfile, style: DesignStyle, opts: &RunOptions) -> DesignReport {
    let prepared = prepare_model(profile, style, opts);
    run_prepared(profile, style, &prepared, opts)
}

/// The hardware half of [`run_experiment`]: elaborate, verify, simulate and
/// analyze an already-prepared model. Exposed so the engine (and analyses
/// that sweep PDK variants) can reuse one trained model across runs.
///
/// # Panics
///
/// Panics if the generated circuit cannot be scheduled (would indicate an
/// internal bug; generated designs are acyclic by construction).
#[must_use]
pub fn run_prepared(
    profile: UciProfile,
    style: DesignStyle,
    prepared: &Prepared,
    opts: &RunOptions,
) -> DesignReport {
    let nl = build_netlist(style, prepared);
    let cycles = cycles_per_inference(style, prepared);

    // Gate-level verification + activity extraction over test samples, in
    // one batched simulator call.
    let (vectors, goldens) = golden_vectors(prepared, opts.max_sim_samples);
    let mut sim = Simulator::new(&nl).expect("generated designs are acyclic");
    sim.set_lane_width(opts.lane_width.unwrap_or_else(|| LaneWidth::auto_for_netlist(&nl)));
    sim.enable_activity();
    let cycles_per_vector = if style == DesignStyle::SequentialSvm { cycles } else { 0 };
    let batch = sim.run_batch(&vectors, cycles_per_vector, "class");
    let verified = batch.outputs.len();
    let mismatches =
        batch.outputs.iter().zip(&goldens).filter(|(&got, &want)| got as usize != want).count();
    let activity = sim.activity();

    let timing = pe_synth::analyze_timing(&nl, &opts.lib, &opts.tech)
        .expect("generated designs are acyclic");
    let area = pe_synth::analyze_area(&nl, &opts.lib);
    let power = pe_synth::analyze_power(&nl, &opts.lib, &opts.tech, &activity, timing.freq_hz)
        .expect("generated designs are acyclic");

    let latency_ms = cycles as f64 * timing.clock_period_ms;
    // mW × ms = µJ; report mJ.
    let energy_mj = power.total_mw * latency_ms / 1000.0;
    DesignReport {
        dataset: profile.name().to_owned(),
        style,
        accuracy_pct: prepared.quant_accuracy * 100.0,
        float_accuracy_pct: prepared.float_accuracy * 100.0,
        area_cm2: area.total_cm2,
        power_mw: power.total_mw,
        static_mw: power.static_mw,
        dynamic_mw: power.dynamic_mw,
        freq_hz: timing.freq_hz,
        cycles,
        latency_ms,
        energy_mj,
        num_cells: nl.num_cells(),
        num_ffs: nl.num_seq_cells(),
        input_bits: prepared.input_bits,
        weight_bits: prepared.weight_bits,
        verified_samples: verified,
        mismatches,
        group_area_cm2: area.by_group.clone(),
        group_power_mw: power.by_group.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_opts() -> RunOptions {
        RunOptions { max_sim_samples: 25, ..RunOptions::default() }
    }

    #[test]
    fn sequential_cardio_end_to_end() {
        let r = run_experiment(UciProfile::Cardio, DesignStyle::SequentialSvm, &fast_opts());
        assert_eq!(r.mismatches, 0, "circuit must match the golden model");
        assert_eq!(r.verified_samples, 25);
        assert_eq!(r.cycles, 3, "Cardio has 3 classes -> 3 cycles");
        assert!(r.accuracy_pct > 70.0, "accuracy {}", r.accuracy_pct);
        assert!(r.area_cm2 > 0.5 && r.area_cm2 < 100.0, "area {}", r.area_cm2);
        assert!(r.freq_hz > 1.0 && r.freq_hz < 1000.0, "freq {}", r.freq_hz);
        assert!(r.energy_mj > 0.0);
        assert!((r.latency_ms - 3.0 * 1000.0 / r.freq_hz).abs() < 1e-6);
    }

    #[test]
    fn parallel_cardio_end_to_end() {
        let r = run_experiment(UciProfile::Cardio, DesignStyle::ParallelSvm, &fast_opts());
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.cycles, 1);
        assert_eq!(r.num_ffs, 0);
        assert!(r.accuracy_pct > 65.0);
    }

    #[test]
    fn approx_is_smaller_than_exact() {
        let exact = run_experiment(UciProfile::Cardio, DesignStyle::ParallelSvm, &fast_opts());
        let approx =
            run_experiment(UciProfile::Cardio, DesignStyle::ApproxParallelSvm, &fast_opts());
        assert_eq!(approx.mismatches, 0);
        assert!(approx.area_cm2 < exact.area_cm2);
        assert!(approx.accuracy_pct <= exact.accuracy_pct + 2.0);
    }

    #[test]
    fn mlp_cardio_end_to_end() {
        let r = run_experiment(UciProfile::Cardio, DesignStyle::ParallelMlp, &fast_opts());
        assert_eq!(r.mismatches, 0);
        assert_eq!(r.cycles, 1);
        assert!(r.accuracy_pct > 60.0, "MLP accuracy {}", r.accuracy_pct);
    }

    #[test]
    fn reports_are_deterministic() {
        let a = run_experiment(UciProfile::Cardio, DesignStyle::SequentialSvm, &fast_opts());
        let b = run_experiment(UciProfile::Cardio, DesignStyle::SequentialSvm, &fast_opts());
        assert_eq!(a.accuracy_pct, b.accuracy_pct);
        assert_eq!(a.area_cm2, b.area_cm2);
        assert_eq!(a.energy_mj, b.energy_mj);
    }

    #[test]
    fn precision_search_is_deterministic_under_parallel_evaluation() {
        // The candidate widths are scored on worker threads; the replayed
        // early-exit scan must make the outcome independent of scheduling.
        let a = prepare_model(UciProfile::Cardio, DesignStyle::SequentialSvm, &fast_opts());
        let b = prepare_model(UciProfile::Cardio, DesignStyle::SequentialSvm, &fast_opts());
        assert_eq!(a.weight_bits, b.weight_bits);
        assert_eq!(a.quant_accuracy, b.quant_accuracy);
        match (&a.model, &b.model) {
            (PreparedModel::Svm(qa), PreparedModel::Svm(qb)) => assert_eq!(qa, qb),
            _ => panic!("the sequential style always prepares an SVM"),
        }
    }

    /// The pipeline's gate-level half re-run on the scalar reference
    /// engine: the same netlist and vectors `run_prepared` simulates, at the
    /// same lane width, with the scalar activity handed to `analyze_power`.
    /// Returns `(mismatches, dynamic_mw, energy_mj)`.
    fn scalar_reference(opts: &RunOptions) -> (usize, f64, f64) {
        let style = DesignStyle::SequentialSvm;
        let prepared = prepare_model(UciProfile::Cardio, style, opts);
        let nl = build_netlist(style, &prepared);
        let cycles = cycles_per_inference(style, &prepared);
        let (vectors, goldens) = golden_vectors(&prepared, opts.max_sim_samples);
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_batch_mode(pe_sim::BatchMode::Scalar);
        sim.set_lane_width(opts.lane_width.unwrap_or_else(|| LaneWidth::auto_for_netlist(&nl)));
        sim.enable_activity();
        let outputs = sim.run_batch(&vectors, cycles, "class").outputs;
        let mismatches = outputs.iter().zip(&goldens).filter(|(&y, &g)| y as usize != g).count();
        let timing = pe_synth::analyze_timing(&nl, &opts.lib, &opts.tech).unwrap();
        let power =
            pe_synth::analyze_power(&nl, &opts.lib, &opts.tech, &sim.activity(), timing.freq_hz)
                .unwrap();
        let latency_ms = cycles as f64 * timing.clock_period_ms;
        let energy_mj = power.total_mw * latency_ms / 1000.0;
        (mismatches, power.dynamic_mw, energy_mj)
    }

    #[test]
    fn scalar_and_bitsliced_engines_agree_end_to_end() {
        // System-level differential check: the whole Table-I cell must come
        // out bit-identical whichever batch engine simulates it, energy
        // included (energy is a pure function of the toggle counts).
        let opts = fast_opts();
        let sliced = run_experiment(UciProfile::Cardio, DesignStyle::SequentialSvm, &opts);
        let (mismatches, dynamic_mw, energy_mj) = scalar_reference(&opts);
        assert_eq!(sliced.mismatches, mismatches);
        assert_eq!(sliced.dynamic_mw, dynamic_mw);
        assert_eq!(sliced.energy_mj, energy_mj);
    }

    #[test]
    fn wide_lanes_agree_with_scalar_end_to_end() {
        // Same differential check at an explicit wide slab: the sequential
        // chunk size (64·W vectors) is part of the batch contract, so both
        // engines must be pinned to the same width to compare energies.
        let opts = RunOptions { lane_width: Some(LaneWidth::W4), ..fast_opts() };
        let wide = run_experiment(UciProfile::Cardio, DesignStyle::SequentialSvm, &opts);
        let (mismatches, dynamic_mw, energy_mj) = scalar_reference(&opts);
        assert_eq!((wide.mismatches, mismatches), (0, 0));
        assert_eq!(wide.dynamic_mw, dynamic_mw);
        assert_eq!(wide.energy_mj, energy_mj);
    }

    #[test]
    fn sequential_beats_parallel_on_energy() {
        // The headline claim, on the smallest dataset for test speed.
        let ours = run_experiment(UciProfile::Cardio, DesignStyle::SequentialSvm, &fast_opts());
        let sota = run_experiment(UciProfile::Cardio, DesignStyle::ParallelSvm, &fast_opts());
        assert!(
            ours.energy_mj < sota.energy_mj,
            "ours {} mJ vs [2] {} mJ",
            ours.energy_mj,
            sota.energy_mj
        );
    }
}
