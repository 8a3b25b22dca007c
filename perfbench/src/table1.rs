//! `table1`: the paper's full 20-cell Table I through
//! `ExperimentEngine::table1_grid` on two worker threads.
//!
//! Timed work: whole grid builds (train, precision search, elaborate,
//! gate-level verify, STA, area, power), fresh engine each pass so nothing
//! is memoized across passes. The traced run rebuilds every cell from the
//! crates' public calls, timing each layer, and asserts each rebuilt row
//! equals the engine's `run_prepared` row.

use crate::calib::{Calibrator, Shape, Span};
use crate::stats::{median, ms, secs, Rng};
use crate::{Config, Outcome};
use pe_core::engine::{parallel_map, ExperimentEngine, Job, ReportSink};
use pe_core::pipeline::{
    build_netlist, cycles_per_inference, prepare_model, Prepared, PreparedModel, RunOptions,
};
use pe_core::{DesignReport, DesignStyle, Table1};
use pe_data::UciProfile;
use pe_obs::{ProfileRecorder, SimProfile};
use pe_sim::{BatchMode, LaneWidth, Simulator};
use std::collections::HashMap;
use std::sync::Arc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Engine worker threads (the benchmark host has two cores).
const THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Cells whose verification the seeded spot check repeats on the scalar
/// reference engine, and test vectors per cell.
const SPOT_CELLS: usize = 2;
const SPOT_VECTORS: usize = 24;

/// Per-job latency from outside the engine: a worker's job starts when its
/// previous job was reported (or when the pass started).
struct JobClock {
    start: Instant,
    last: HashMap<ThreadId, Instant>,
    latencies_ms: HashMap<Job, f64>,
}

impl ReportSink for JobClock {
    fn on_report(&mut self, job: Job, _report: &DesignReport) {
        let now = Instant::now();
        let began = self.last.insert(std::thread::current().id(), now).unwrap_or(self.start);
        self.latencies_ms.insert(job, ms(now - began));
    }
}

/// Set-up: one discarded grid build, so first-touch allocation, lazy
/// initialization and cache warm-up are paid before any timed pass.
fn setup() -> Span {
    let (_, table, span, _) = pass();
    std::hint::black_box(table);
    span
}

/// One timed grid build: the engine (so its memoized models can serve the
/// spot check), the table, the pass's span and the per-job latencies in
/// grid order.
fn pass() -> (ExperimentEngine, Table1, Span, Vec<f64>) {
    let engine = ExperimentEngine::table1_grid(RunOptions::default()).with_threads(THREADS);
    let start = Instant::now();
    let mut clock = JobClock { start, last: HashMap::new(), latencies_ms: HashMap::new() };
    let table = engine.run_streaming(&mut clock);
    let span = Span::since(start);
    let lat = engine.jobs().iter().map(|j| clock.latencies_ms[j]).collect();
    (engine, table, span, lat)
}

/// Reference check plus the any-seed invariant: every row verified with
/// zero gate-level mismatches. Returns the rows that failed.
fn check_table(cfg: &Config, table: &Table1, out: &mut Outcome) -> u64 {
    cfg.check_reference("table1.md", &table.to_markdown(), out);
    let mut failed = 0;
    for r in &table.rows {
        if r.mismatches != 0 || r.verified_samples == 0 {
            failed += 1;
            out.problem(format!(
                "{} {}: {} mismatches over {} verified samples",
                r.dataset,
                r.style.label(),
                r.mismatches,
                r.verified_samples
            ));
        }
    }
    failed
}

/// The held-out samples `picks` on the model's input grid, with the integer
/// golden model's class for each (as `run_prepared` builds its verify batch).
fn golden_vectors(
    prepared: &Prepared,
    picks: impl IntoIterator<Item = usize>,
) -> (Vec<Vec<i64>>, Vec<usize>) {
    picks
        .into_iter()
        .map(|i| {
            let (x, _) = prepared.test.sample(i);
            match &prepared.model {
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
            }
        })
        .unzip()
}

/// Seeded spot check: a few cells' netlists re-simulated on the scalar
/// reference engine over seeded held-out vectors, against the integer
/// golden model. Returns (vectors checked, mismatches).
fn spot_check(cfg: &Config, engine: &ExperimentEngine, out: &mut Outcome) -> (u64, u64) {
    let mut rng = Rng::new(cfg.seed, 11);
    let (mut checked, mut wrong) = (0, 0);
    for _ in 0..SPOT_CELLS {
        let job = engine.jobs()[rng.below(engine.jobs().len())];
        let prepared = engine.prepared(job.profile, job.style);
        let nl = build_netlist(job.style, &prepared);
        let picks: Vec<usize> = (0..SPOT_VECTORS).map(|_| rng.below(prepared.test.len())).collect();
        let (vectors, goldens) = golden_vectors(&prepared, picks);
        let mut sim = Simulator::new(&nl).expect("generated designs are acyclic");
        sim.set_batch_mode(BatchMode::Scalar);
        sim.set_lane_width(LaneWidth::auto_for_netlist(&nl));
        let cycles = if job.style == DesignStyle::SequentialSvm {
            cycles_per_inference(job.style, &prepared)
        } else {
            0
        };
        let got = sim.run_batch(&vectors, cycles, "class").outputs;
        let bad = got.iter().zip(&goldens).filter(|(&g, &w)| g as usize != w).count() as u64;
        checked += vectors.len() as u64;
        wrong += bad;
        if bad > 0 {
            out.problem(format!(
                "{} {}: scalar re-simulation disagrees with the golden model on {bad} vectors",
                job.profile.name(),
                job.style.label()
            ));
        }
    }
    println!("check: {checked} seeded vectors re-simulated on the scalar engine, {wrong} wrong");
    (checked, wrong)
}

/// Runs the workload (untraced or traced, per `cfg.trace`). Host-speed
/// probes run before every set-up and pass and after the last pass, while
/// no engine thread runs; each set-up and pass is scaled by the probes
/// around it, and a pass's job latencies by its factor.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut calib = Calibrator::new(THREADS, Shape::Core);
    let setups: Vec<Span> = (0..SETUPS)
        .map(|_| {
            calib.probe();
            setup()
        })
        .collect();
    let raw_setups: Vec<f64> = setups.iter().map(|s| secs(s.took)).collect();
    println!("setup: {SETUPS} discarded grid builds, median {:.4} s", median(&raw_setups));
    if cfg.trace {
        trace(cfg, &mut out);
        return out;
    }

    let budget = Duration::from_secs_f64(cfg.seconds);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    let mut jobs_ms = Vec::new();
    let mut last_engine = None;
    while passes.is_empty() || t0.elapsed() < budget {
        calib.probe();
        let (engine, table, span, lat) = pass();
        passes.push(span);
        jobs_ms.push(lat);
        out.attempted += table.rows.len() as u64;
        out.failed += check_table(cfg, &table, &mut out);
        last_engine = Some(engine);
    }
    calib.probe();
    let engine = last_engine.expect("at least one pass ran");
    let (checked, wrong) = spot_check(cfg, &engine, &mut out);
    out.attempted += checked;
    out.failed += wrong;

    calib.report();
    let raw: Vec<f64> = passes.iter().map(|s| secs(s.took)).collect();
    println!("raw: median set-up {:.4} s, median pass {:.4} s", median(&raw_setups), median(&raw));
    let setup_s = median(&setups.iter().map(|&s| calib.scaled_s(s)).collect::<Vec<_>>());
    println!("setup_s {setup_s:.4} s");
    out.metric("setup_s", setup_s);
    let jobs_ms: Vec<Vec<f64>> = passes
        .iter()
        .zip(&jobs_ms)
        .map(|(&s, lat)| lat.iter().map(|l| l * calib.factor(s)).collect())
        .collect();
    let passes: Vec<f64> = passes.iter().map(|&s| calib.scaled_s(s)).collect();
    out.batch_metrics("Table-I grid", "cell job", &passes, &jobs_ms);
    out
}

/// Layer times of one rebuilt cell.
#[derive(Debug, Default, Clone, Copy)]
struct CellTimes {
    prepare: f64,
    elaborate: f64,
    verify: f64,
    sta: f64,
    area: f64,
    power: f64,
    total: f64,
}

/// Rebuilds one Table-I cell from public calls, timing each layer. Mirrors
/// `pe_core::pipeline::run_prepared` step for step.
fn traced_cell(
    profile: UciProfile,
    style: DesignStyle,
    opts: &RunOptions,
    profile_hook: &Arc<ProfileRecorder>,
) -> (DesignReport, CellTimes) {
    let mut t = CellTimes::default();
    let start = Instant::now();
    let mut lap = Instant::now();
    let mut split = |slot: &mut f64| {
        let now = Instant::now();
        *slot = secs(now - lap);
        lap = now;
    };

    let prepared = prepare_model(profile, style, opts);
    split(&mut t.prepare);
    let nl = build_netlist(style, &prepared);
    let cycles = cycles_per_inference(style, &prepared);
    split(&mut t.elaborate);

    let n_sim = prepared.test.len().min(opts.max_sim_samples);
    let (vectors, goldens) = golden_vectors(&prepared, 0..n_sim);
    let mut sim = Simulator::new(&nl).expect("generated designs are acyclic");
    sim.set_lane_width(opts.lane_width.unwrap_or_else(|| LaneWidth::auto_for_netlist(&nl)));
    sim.enable_activity();
    sim.set_profile(Some(Arc::clone(profile_hook) as Arc<dyn SimProfile>));
    let cycles_per_vector = if style == DesignStyle::SequentialSvm { cycles } else { 0 };
    let batch = sim.run_batch(&vectors, cycles_per_vector, "class");
    let mismatches =
        batch.outputs.iter().zip(&goldens).filter(|(&got, &want)| got as usize != want).count();
    let activity = sim.activity();
    split(&mut t.verify);

    let timing = pe_synth::analyze_timing(&nl, &opts.lib, &opts.tech)
        .expect("generated designs are acyclic");
    split(&mut t.sta);
    let area = pe_synth::analyze_area(&nl, &opts.lib);
    split(&mut t.area);
    let power = pe_synth::analyze_power(&nl, &opts.lib, &opts.tech, &activity, timing.freq_hz)
        .expect("generated designs are acyclic");
    split(&mut t.power);

    let latency_ms = cycles as f64 * timing.clock_period_ms;
    let report = DesignReport {
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
        energy_mj: power.total_mw * latency_ms / 1000.0,
        num_cells: nl.num_cells(),
        num_ffs: nl.num_seq_cells(),
        input_bits: prepared.input_bits,
        weight_bits: prepared.weight_bits,
        verified_samples: batch.outputs.len(),
        mismatches,
        group_area_cm2: area.by_group.clone(),
        group_power_mw: power.by_group.clone(),
    };
    t.total = secs(start.elapsed());
    (report, t)
}

/// The traced run: every cell rebuilt from public calls through the engine's
/// own fan-out (`parallel_map`, same worker count and nesting rule), between
/// two untraced passes that give the overhead baseline.
fn trace(cfg: &Config, out: &mut Outcome) {
    let (_, table, before, _) = pass();
    out.attempted += table.rows.len() as u64;
    out.failed += check_table(cfg, &table, out);

    let opts = RunOptions::default();
    let jobs: Vec<(UciProfile, DesignStyle)> = UciProfile::all()
        .into_iter()
        .flat_map(|p| DesignStyle::all().into_iter().map(move |s| (p, s)))
        .collect();
    let hook = Arc::new(ProfileRecorder::new());
    let start = Instant::now();
    let cells = parallel_map(&jobs, THREADS, |&(p, s)| traced_cell(p, s, &opts, &hook));
    let wall = secs(start.elapsed());
    let (_, _, after, _) = pass();
    let untraced = (secs(before.took) + secs(after.took)) / 2.0;

    for ((rebuilt, _), want) in cells.iter().zip(&table.rows) {
        out.attempted += 1;
        if rebuilt != want {
            out.failed += 1;
            out.problem(format!(
                "{} {}: rebuilt row differs from run_prepared",
                want.dataset,
                want.style.label()
            ));
        }
    }
    // Busy seconds summed over the jobs, divided by the worker count, so
    // the layers add up to (and are comparable with) the traced wall time.
    let per_worker = |f: fn(&CellTimes) -> f64| -> f64 {
        cells.iter().map(|(_, t)| f(t)).sum::<f64>() / THREADS as f64
    };
    let layers = [
        ("pe-core.prepare_s", per_worker(|t| t.prepare)),
        ("pe-core.elaborate_s", per_worker(|t| t.elaborate)),
        ("pe-sim.verify_s", per_worker(|t| t.verify)),
        ("pe-synth.sta_s", per_worker(|t| t.sta)),
        ("pe-synth.area_s", per_worker(|t| t.area)),
        ("pe-synth.power_s", per_worker(|t| t.power)),
    ];
    let named: f64 = layers.iter().map(|(_, v)| v).sum();
    for (name, v) in layers {
        println!("layer {name:<22} {v:.4} s ({:.1} % of traced wall)", 100.0 * v / wall);
        out.metric(name, v);
    }
    let slowest = cells.iter().map(|(_, t)| t.total).fold(0.0, f64::max);
    let prof = hook.snapshot();
    out.metric("pe-core.slowest_job_s", slowest);
    out.metric("pe-core.other_s", (wall - named).max(0.0));
    out.metric("pe-core.cells", cells.iter().map(|(r, _)| r.num_cells as f64).sum());
    out.metric("pe-sim.cell_evals", prof.cell_evals as f64);
    out.metric("pe-sim.ns_per_cell_eval", prof.eval_ns as f64 / prof.cell_evals.max(1) as f64);
    println!(
        "trace: untraced pass {untraced:.4} s (mean of two), traced pass {wall:.4} s \
         (overhead {:+.1} %); named layers cover {:.1} % of the traced wall; \
         slowest job {slowest:.4} s",
        100.0 * (wall / untraced - 1.0),
        100.0 * named / wall
    );
}
