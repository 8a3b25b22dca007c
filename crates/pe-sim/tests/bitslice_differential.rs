//! Differential lockdown of the word-parallel bit-sliced engine.
//!
//! Every test drives the same workload through [`BatchMode::Scalar`] (the
//! bool-per-net reference) and [`BatchMode::BitSliced`] (the wide-lane fast
//! path) and asserts **bit identity**: recorded outputs, accounted cycles,
//! per-net toggle counts, and the register state carried out of the batch.
//! Circuits cover every generated design style (sequential, parallel,
//! pipelined, MLP) plus seeded-random netlists with registered feedback,
//! batch sizes sweep the ragged-chunk edge cases, and the force/release
//! fault campaigns are pinned against the old rebuild-per-site oracle.
//!
//! The engine is width-generic (`[u64; W]` slabs, 64–512 lanes per sweep),
//! so the suite additionally sweeps every [`LaneWidth`] with batch sizes
//! straddling every slab boundary (64W ± 1) — which, since each batch
//! sweeps the narrowest slab holding one chunk of the configured width,
//! also runs every narrower slab under each cap — and pins cross-width
//! identity on combinational circuits. Setting `PE_LANE_WIDTH=1|2|4|8`
//! re-runs every scalar-vs-sliced test at that configured width (the chunk
//! size; the CI non-default-width pass uses 4).
//!
//! CI runs this suite in both debug and release: release builds strip the
//! debug assertions that would otherwise mask wrapping/shift mistakes in the
//! packed kernels.

use pe_core::designs::{mlp, parallel, pipelined, sequential};
use pe_data::{train_test_split, Dataset, Normalizer, UciProfile};
use pe_ml::linear::SvmTrainParams;
use pe_ml::mlp::{Mlp, MlpTrainParams};
use pe_ml::multiclass::{MulticlassScheme, SvmModel};
use pe_ml::{QuantizedMlp, QuantizedSvm};
use pe_netlist::testing::{random_netlist, RandomNetlistSpec};
use pe_netlist::Netlist;
use pe_obs::{ProfileRecorder, SimBatch, SimProfile};
use pe_sim::faults::{enumerate_fault_sites, fault_campaign_comb, fault_campaign_seq, oracle};
use pe_sim::{BatchMode, BatchResult, BitSlicedSimulator, LaneWidth, Simulator};
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

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

fn svm_vectors(q: &QuantizedSvm, test: &Dataset, take: usize) -> Vec<Vec<i64>> {
    test.features().iter().take(take).map(|x| q.quantize_input(x)).collect()
}

/// The slab width under test: `PE_LANE_WIDTH=1|2|4|8` (words) forces it so
/// CI can replay the whole suite at a non-default width; unset keeps the
/// simulator default.
fn env_width() -> Option<LaneWidth> {
    std::env::var("PE_LANE_WIDTH").ok().as_deref().and_then(LaneWidth::parse)
}

/// Records the slab width (`SimBatch::lane_words`) of every bit-sliced
/// batch it is installed on.
#[derive(Debug, Default)]
struct SweptWidths(Mutex<BTreeSet<usize>>);

impl SimProfile for SweptWidths {
    fn on_batch(&self, batch: &SimBatch) {
        self.0.lock().unwrap().insert(batch.lane_words);
    }
}

impl SweptWidths {
    /// Every width swept since the last call, narrowest first.
    fn take(&self) -> Vec<usize> {
        std::mem::take(&mut *self.0.lock().unwrap()).into_iter().collect()
    }
}

/// Runs the same batch through both engines on fresh simulators — at
/// `width` if given (both sides, since the sequential chunk size is part of
/// the batch contract), else at the `PE_LANE_WIDTH`/default width — and
/// asserts full bit identity; returns the (shared) result. `profile`, if
/// given, is installed on the bit-sliced side.
fn assert_engines_agree_at(
    nl: &Netlist,
    vectors: &[Vec<i64>],
    cycles_per_vector: u64,
    out_port: &str,
    width: Option<LaneWidth>,
    profile: Option<Arc<dyn SimProfile>>,
) -> BatchResult {
    let width = width.or_else(env_width);
    let mut reference = Simulator::new(nl).unwrap();
    reference.set_batch_mode(BatchMode::Scalar);
    if let Some(w) = width {
        reference.set_lane_width(w);
    }
    reference.enable_activity();
    let want = reference.run_batch(vectors, cycles_per_vector, out_port);

    let mut fast = Simulator::new(nl).unwrap();
    assert_eq!(fast.batch_mode(), BatchMode::BitSliced, "bit-slicing must be the default");
    if let Some(w) = width {
        fast.set_lane_width(w);
    }
    fast.enable_activity();
    fast.set_profile(profile);
    let got = fast.run_batch(vectors, cycles_per_vector, out_port);

    assert_eq!(got.outputs, want.outputs, "outputs diverged on {}", nl.name());
    assert_eq!(got.cycles, want.cycles, "cycle accounting diverged on {}", nl.name());
    assert_eq!(
        fast.activity(),
        reference.activity(),
        "per-net toggle counts diverged on {}",
        nl.name()
    );
    assert_eq!(
        fast.register_state(),
        reference.register_state(),
        "carried register state diverged on {}",
        nl.name()
    );
    got
}

/// [`assert_engines_agree_at`] at the suite-wide (`PE_LANE_WIDTH`/default)
/// width.
fn assert_engines_agree(
    nl: &Netlist,
    vectors: &[Vec<i64>],
    cycles_per_vector: u64,
    out_port: &str,
) -> BatchResult {
    assert_engines_agree_at(nl, vectors, cycles_per_vector, out_port, None, None)
}

// ---- design styles -------------------------------------------------------

#[test]
fn sequential_svm_style_is_bit_identical() {
    let (q, test) = svm_model(MulticlassScheme::OneVsRest, 41);
    let nl = sequential::build_sequential_ovr(&q);
    // 90 vectors = one full chunk plus a ragged one: exercises the
    // cross-chunk state carry on the paper's own architecture.
    let vectors = svm_vectors(&q, &test, 90);
    let n = q.num_classes() as u64;
    let r = assert_engines_agree(&nl, &vectors, n, "class");
    assert_eq!(r.cycles, 90 * n);
    // The batched prediction must still match the integer golden model.
    for (x, &got) in vectors.iter().zip(&r.outputs) {
        assert_eq!(got, q.predict_int(x) as i64, "circuit diverged from golden model");
    }
}

#[test]
fn parallel_svm_style_is_bit_identical() {
    let (q, test) = svm_model(MulticlassScheme::OneVsOne, 43);
    let nl = parallel::build_parallel_svm(&q);
    let vectors = svm_vectors(&q, &test, 80);
    let r = assert_engines_agree(&nl, &vectors, 0, "class");
    for (x, &got) in vectors.iter().zip(&r.outputs) {
        assert_eq!(got, q.predict_int(x) as i64);
    }
}

#[test]
fn pipelined_svm_style_is_bit_identical() {
    let (q, test) = svm_model(MulticlassScheme::OneVsRest, 47);
    let nl = pipelined::build_pipelined_ovr(&q);
    let vectors = svm_vectors(&q, &test, 70);
    assert_engines_agree(&nl, &vectors, pipelined::cycles_per_inference(&q), "class");
}

#[test]
fn mlp_style_is_bit_identical() {
    let (q, test) = mlp_model(53);
    let nl = mlp::build_parallel_mlp(&q);
    let vectors: Vec<Vec<i64>> =
        test.features().iter().take(80).map(|x| q.quantize_input(x)).collect();
    let r = assert_engines_agree(&nl, &vectors, 0, "class");
    for (x, &got) in vectors.iter().zip(&r.outputs) {
        assert_eq!(got, q.predict_int(x) as i64);
    }
}

// ---- seeded-random netlists (registered feedback, arbitrary logic) ------

fn fuzz_spec(registers: usize) -> RandomNetlistSpec {
    RandomNetlistSpec { inputs: 5, gates: 60, registers, outputs: 3, input_prefix: "x" }
}

fn fuzz_vectors(inputs: usize, count: usize, seed: u64) -> Vec<Vec<i64>> {
    // Deterministic pseudo-random 1-bit vectors (xorshift, like testing.rs).
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

#[test]
fn random_combinational_netlists_are_bit_identical() {
    for seed in 0..12 {
        let nl = random_netlist(&fuzz_spec(0), seed);
        let vectors = fuzz_vectors(5, 100, seed);
        assert_engines_agree(&nl, &vectors, 0, "o0");
    }
}

#[test]
fn random_sequential_netlists_are_bit_identical() {
    for seed in 0..12 {
        let nl = random_netlist(&fuzz_spec(3), seed);
        let vectors = fuzz_vectors(5, 100, seed ^ 0xABCD);
        for cycles in [1, 2, 3] {
            assert_engines_agree(&nl, &vectors, cycles, "o1");
        }
    }
}

// ---- ragged batches ------------------------------------------------------

#[test]
fn ragged_batch_sizes_agree_combinational() {
    let nl = random_netlist(&fuzz_spec(0), 99);
    for size in [0usize, 1, 63, 64, 65, 127, 128] {
        let vectors = fuzz_vectors(5, size, size as u64 + 7);
        let r = assert_engines_agree(&nl, &vectors, 0, "o0");
        assert_eq!(r.outputs.len(), size);
        assert_eq!(r.cycles, size as u64);
    }
}

#[test]
fn ragged_batch_sizes_agree_sequential() {
    let nl = random_netlist(&fuzz_spec(2), 101);
    for size in [0usize, 1, 63, 64, 65, 127, 128] {
        let vectors = fuzz_vectors(5, size, size as u64 + 11);
        let r = assert_engines_agree(&nl, &vectors, 2, "o2");
        assert_eq!(r.outputs.len(), size);
        assert_eq!(r.cycles, 2 * size as u64);
    }
}

#[test]
fn garbage_lanes_never_leak_into_activity() {
    // A 1-vector batch uses 1 of 64 lanes; if masking were wrong the other
    // 63 lanes of settling garbage would inflate the toggle counts, so
    // equality with a scalar run of the same single vector is a leak check.
    let nl = random_netlist(&fuzz_spec(2), 103);
    let one = fuzz_vectors(5, 1, 5);
    let r = assert_engines_agree(&nl, &one, 3, "o0");
    assert_eq!(r.cycles, 3);
}

// ---- cross-chunk sequential state carry ---------------------------------

#[test]
fn sequential_state_carries_across_chunks() {
    let (q, test) = svm_model(MulticlassScheme::OneVsRest, 59);
    let nl = sequential::build_sequential_ovr(&q);
    let n = q.num_classes() as u64;
    let vectors = svm_vectors(&q, &test, 130); // three chunks: 64 + 64 + 2

    let mut reference = Simulator::new(&nl).unwrap();
    reference.set_batch_mode(BatchMode::Scalar);
    let want = reference.run_batch(&vectors, n, "class");

    let mut fast = Simulator::new(&nl).unwrap();
    let got = fast.run_batch(&vectors, n, "class");
    assert_eq!(got, want);
    assert_eq!(fast.register_state(), reference.register_state());

    // The carried state must be live, not cosmetic: classifying one more
    // sample on both simulators (scalar API, no batch) still agrees.
    let extra = svm_vectors(&q, &test, 131).pop().unwrap();
    for (j, &v) in extra.iter().enumerate() {
        reference.set_input(&format!("x{j}"), v);
        fast.set_input(&format!("x{j}"), v);
    }
    for _ in 0..n {
        reference.tick();
        fast.tick();
    }
    assert_eq!(fast.output_unsigned("class"), reference.output_unsigned("class"));
    assert_eq!(fast.register_state(), reference.register_state());
}

// ---- lane-width sweep ----------------------------------------------------

/// Batch sizes straddling every slab boundary: 64W ± 1 and the exact
/// boundary for W = 1, 2, 4, 8. Under a configured width (the cap, which
/// sets the chunk size) each batch sweeps the narrowest slab holding one
/// chunk, so the sizes up to the cap cover every narrower slab too.
const WIDTH_BOUNDARY_SIZES: [usize; 12] = [63, 64, 65, 127, 128, 129, 255, 256, 257, 511, 512, 513];

/// Every slab width up to `cap`, narrowest first, in words.
fn widths_up_to(cap: LaneWidth) -> Vec<usize> {
    LaneWidth::ALL.iter().map(|w| w.words()).filter(|&w| w <= cap.words()).collect()
}

#[test]
fn every_width_agrees_on_ragged_combinational_batches() {
    let nl = random_netlist(&fuzz_spec(0), 131);
    let swept = Arc::new(SweptWidths::default());
    for width in LaneWidth::ALL {
        for size in WIDTH_BOUNDARY_SIZES {
            let vectors = fuzz_vectors(5, size, size as u64 ^ 0x51AB);
            let profile: Arc<dyn SimProfile> = swept.clone();
            let r = assert_engines_agree_at(&nl, &vectors, 0, "o0", Some(width), Some(profile));
            assert_eq!(r.outputs.len(), size, "W={width} size={size}");
        }
        assert_eq!(swept.take(), widths_up_to(width), "slabs swept under cap W={width}");
    }
}

#[test]
fn every_width_agrees_on_ragged_sequential_batches() {
    let nl = random_netlist(&fuzz_spec(3), 137);
    let swept = Arc::new(SweptWidths::default());
    for width in LaneWidth::ALL {
        for size in WIDTH_BOUNDARY_SIZES {
            let vectors = fuzz_vectors(5, size, size as u64 ^ 0xC0DE);
            let profile: Arc<dyn SimProfile> = swept.clone();
            let r = assert_engines_agree_at(&nl, &vectors, 2, "o1", Some(width), Some(profile));
            assert_eq!(r.cycles, 2 * size as u64, "W={width} size={size}");
        }
        assert_eq!(swept.take(), widths_up_to(width), "slabs swept under cap W={width}");
    }
}

#[test]
fn dense_sequential_batches_settle_once_per_cycle() {
    // A chunk of c cycles settles once before the first edge and once after
    // each: exactly (1 + c) full sweeps of the scheduled core, at every
    // width, with outputs, toggles and carried state still equal to the
    // scalar engine, whose tick settles twice per cycle.
    let nl = random_netlist(&fuzz_spec(3), 151);
    let core = BitSlicedSimulator::<1>::new(&nl).unwrap().scheduled_cells() as u64;
    for width in LaneWidth::ALL {
        for size in [3, width.lanes() + 5] {
            for cycles in [1u64, 4] {
                let vectors = fuzz_vectors(5, size, size as u64 ^ cycles);
                let rec = Arc::new(ProfileRecorder::new());
                let profile: Arc<dyn SimProfile> = rec.clone();
                assert_engines_agree_at(&nl, &vectors, cycles, "o1", Some(width), Some(profile));
                let s = rec.snapshot();
                let chunks = size.div_ceil(width.lanes()) as u64;
                assert_eq!(s.sweeps, chunks, "W={width} size={size}");
                assert_eq!(
                    s.cell_evals,
                    core * (1 + cycles) * chunks,
                    "W={width} size={size} cycles={cycles}"
                );
            }
        }
    }
}

#[test]
fn combinational_results_are_width_invariant() {
    // Same batch at every width: outputs, cycle accounting, and per-net
    // toggle counts must be identical — widening the slab may change how
    // many sweeps run, never what they compute. (Sequential batches are
    // excluded by design: the chunk size 64W is part of the streaming
    // contract, so each width is locked to its own scalar reference above.)
    let nl = random_netlist(&fuzz_spec(0), 139);
    let vectors = fuzz_vectors(5, 300, 77);
    let run_at = |width: LaneWidth| {
        let mut sim = Simulator::new(&nl).unwrap();
        sim.set_lane_width(width);
        sim.enable_activity();
        (sim.run_batch(&vectors, 0, "o0"), sim.activity())
    };
    let (want, want_activity) = run_at(LaneWidth::W1);
    for width in [LaneWidth::W2, LaneWidth::W4, LaneWidth::W8] {
        let (got, got_activity) = run_at(width);
        assert_eq!(got, want, "outputs changed at W={width}");
        assert_eq!(got_activity, want_activity, "toggle counts changed at W={width}");
    }
}

// ---- fault campaigns vs. the rebuild-per-site oracle --------------------

#[test]
fn comb_fault_campaign_reproduces_oracle_per_site() {
    let nl = random_netlist(&fuzz_spec(0), 71);
    let sites = enumerate_fault_sites(&nl);
    let workload: Vec<Vec<(String, i64)>> = fuzz_vectors(5, 20, 3)
        .into_iter()
        .map(|v| v.iter().enumerate().map(|(i, &b)| (format!("x{i}"), b)).collect())
        .collect();
    // Aggregate equality over every site...
    let fast = fault_campaign_comb(&nl, &sites, &workload, "o0").unwrap();
    let slow = oracle::fault_campaign_comb(&nl, &sites, &workload, "o0").unwrap();
    assert_eq!(fast, slow);
    assert_eq!(fast.total, sites.len());
    // ...and per-site equality, so compensating double-miscounts cannot
    // hide behind matching totals.
    for &site in &sites {
        let f = fault_campaign_comb(&nl, &[site], &workload, "o0").unwrap();
        let s = oracle::fault_campaign_comb(&nl, &[site], &workload, "o0").unwrap();
        assert_eq!(f, s, "site {site:?} diverged from the rebuild oracle");
    }
}

#[test]
fn seq_fault_campaign_reproduces_oracle_per_site() {
    let nl = random_netlist(&fuzz_spec(3), 73);
    let sites = enumerate_fault_sites(&nl);
    let workload: Vec<Vec<(String, i64)>> = fuzz_vectors(5, 12, 9)
        .into_iter()
        .map(|v| v.iter().enumerate().map(|(i, &b)| (format!("x{i}"), b)).collect())
        .collect();
    let fast = fault_campaign_seq(&nl, &sites, &workload, "o0", 4).unwrap();
    let slow = oracle::fault_campaign_seq(&nl, &sites, &workload, "o0", 4).unwrap();
    assert_eq!(fast, slow);
    for &site in &sites {
        let f = fault_campaign_seq(&nl, &[site], &workload, "o0", 4).unwrap();
        let s = oracle::fault_campaign_seq(&nl, &[site], &workload, "o0", 4).unwrap();
        assert_eq!(f, s, "site {site:?} diverged from the rebuild oracle");
    }
}

#[test]
fn seq_fault_campaign_reproduces_oracle_on_the_paper_circuit() {
    // The real sequential SVM, sparsely sampled sites (the oracle is slow).
    let (q, test) = svm_model(MulticlassScheme::OneVsRest, 61);
    let nl = sequential::build_sequential_ovr(&q);
    let sites: Vec<_> = enumerate_fault_sites(&nl).into_iter().step_by(97).collect();
    let workload: Vec<Vec<(String, i64)>> = test
        .features()
        .iter()
        .take(8)
        .map(|x| {
            q.quantize_input(x).iter().enumerate().map(|(i, &v)| (format!("x{i}"), v)).collect()
        })
        .collect();
    let n = q.num_classes() as u64;
    let fast = fault_campaign_seq(&nl, &sites, &workload, "class", n).unwrap();
    let slow = oracle::fault_campaign_seq(&nl, &sites, &workload, "class", n).unwrap();
    assert_eq!(fast, slow);
}
