//! The shared experiment engine: one place that runs `(dataset × style)`
//! job grids for every binary, bench and example in the workspace.
//!
//! The paper's evaluation is a grid — five datasets by four design styles —
//! and each cell runs the same train → quantize → elaborate → verify →
//! analyze pipeline. Before this module existed, every driver re-implemented
//! that loop serially. [`ExperimentEngine`] centralizes it:
//!
//! * **Job grid** — an ordered list of [`Job`]s; [`ExperimentEngine::table1_grid`]
//!   builds the paper's full 5 × 4 grid in Table-I order.
//! * **Model memoization** — [`prepare_model`] (training + precision search)
//!   is the expensive stage and depends only on `(profile, style, seed,
//!   test_fraction)`, never on the PDK. The engine trains each pair exactly
//!   once, so netlist/simulation/STA variants (PDK ablations, battery
//!   studies) reuse one trained model.
//! * **Parallelism** — jobs run on `std::thread::scope` workers. Every job is
//!   a pure function of the engine's options, and results are collected by
//!   job index, so the produced [`Table1`] is **bit-identical regardless of
//!   thread count or scheduling**.
//! * **Streaming** — completed [`DesignReport`]s are pushed through a
//!   [`ReportSink`] as they finish (progress display, incremental logging),
//!   while the final table stays in grid order.
//! * **Word-parallel simulation** — each job's gate-level verify/activity
//!   batch runs on the bit-sliced engine (64 test vectors per machine word,
//!   see `pe_sim::bitslice`). The pipeline's own tests re-run a cell on the
//!   scalar reference engine and check the power and energy come out
//!   bit-identical.
//!
//! # Example
//!
//! ```no_run
//! use pe_core::engine::ExperimentEngine;
//! use pe_core::pipeline::RunOptions;
//!
//! let engine = ExperimentEngine::table1_grid(RunOptions::default()).with_threads(4);
//! let table = engine.run();
//! println!("{}", table.to_markdown());
//! ```

use crate::pipeline::{prepare_model, run_prepared, Prepared, RunOptions};
use crate::report::{DesignReport, Table1};
use crate::styles::DesignStyle;
use pe_cells::{EgfetLibrary, TechParams};
use pe_data::UciProfile;
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// One cell of the evaluation grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Job {
    /// Dataset profile.
    pub profile: UciProfile,
    /// Design style.
    pub style: DesignStyle,
}

impl Job {
    /// Creates a job.
    #[must_use]
    pub fn new(profile: UciProfile, style: DesignStyle) -> Self {
        Job { profile, style }
    }
}

/// Observer for reports as they complete (completion order, not grid order).
///
/// Implementations must tolerate being called from worker threads; the
/// engine serializes calls through a mutex.
pub trait ReportSink: Send {
    /// Called once per finished job.
    fn on_report(&mut self, job: Job, report: &DesignReport);
}

/// Line-oriented progress events from long-running stages.
///
/// [`ReportSink`] is the engine-specific observer (it sees whole
/// [`DesignReport`]s); this is the lowest-common-denominator interface
/// shared with non-engine callers — the serving-path model registry warms
/// models through it, campaign drivers narrate sweeps — so every driver
/// reuses one progress printer instead of rolling its own.
pub trait ProgressSink: Send {
    /// Called with one human-readable line per completed step.
    fn note(&mut self, line: &str);
}

/// A sink that drops every report (the default for [`ExperimentEngine::run`]).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ReportSink for NullSink {
    fn on_report(&mut self, _job: Job, _report: &DesignReport) {}
}

impl ProgressSink for NullSink {
    fn note(&mut self, _line: &str) {}
}

/// A sink that prints each finished step to stderr — the progress style the
/// reproduction binaries and the serving front end share.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrProgress;

impl ProgressSink for StderrProgress {
    fn note(&mut self, line: &str) {
        eprintln!("  {line}");
    }
}

impl ReportSink for StderrProgress {
    fn on_report(&mut self, _job: Job, report: &DesignReport) {
        self.note(&format!("done: {}", report.one_line()));
    }
}

/// Memoization table for [`prepare_model`] results, keyed by
/// `(profile, style)`. Safe for concurrent use; each pair trains exactly
/// once even when several workers request it simultaneously.
#[derive(Debug, Default)]
struct ModelCache {
    entries: Mutex<HashMap<Job, Arc<OnceLock<Arc<Prepared>>>>>,
    trainings: AtomicUsize,
}

impl ModelCache {
    fn get_or_train(&self, job: Job, opts: &RunOptions) -> Arc<Prepared> {
        let slot = {
            let mut map = self.entries.lock().expect("model cache poisoned");
            Arc::clone(map.entry(job).or_default())
        };
        // Train outside the map lock; OnceLock serializes per-key so other
        // (profile, style) pairs keep training in parallel.
        Arc::clone(slot.get_or_init(|| {
            self.trainings.fetch_add(1, Ordering::Relaxed);
            Arc::new(prepare_model(job.profile, job.style, opts))
        }))
    }
}

/// The shared parallel evaluation engine. See the [module docs](self).
#[derive(Debug)]
pub struct ExperimentEngine {
    jobs: Vec<Job>,
    opts: RunOptions,
    threads: usize,
    cache: ModelCache,
}

impl ExperimentEngine {
    /// An engine over an explicit job list (kept in the given order).
    #[must_use]
    pub fn new(jobs: Vec<Job>, opts: RunOptions) -> Self {
        let threads = default_threads(jobs.len());
        ExperimentEngine { jobs, opts, threads, cache: ModelCache::default() }
    }

    /// The paper's full Table-I grid: five datasets × four styles, dataset-
    /// major with the baselines first (the paper's row order).
    #[must_use]
    pub fn table1_grid(opts: RunOptions) -> Self {
        let jobs = UciProfile::all()
            .into_iter()
            .flat_map(|p| DesignStyle::all().into_iter().map(move |s| Job::new(p, s)))
            .collect();
        Self::new(jobs, opts)
    }

    /// A single-cell engine (quickstart-style runs).
    #[must_use]
    pub fn single(profile: UciProfile, style: DesignStyle, opts: RunOptions) -> Self {
        Self::new(vec![Job::new(profile, style)], opts)
    }

    /// Sets the worker-thread count (clamped to at least 1). The produced
    /// table is identical for every value; this only changes wall-clock.
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// The configured worker-thread count.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The job grid, in run order.
    #[must_use]
    pub fn jobs(&self) -> &[Job] {
        &self.jobs
    }

    /// The shared run options.
    #[must_use]
    pub fn options(&self) -> &RunOptions {
        &self.opts
    }

    /// The memoized trained model for a grid cell (training it on first
    /// request). Ablations use this to analyze model variants without
    /// retraining.
    #[must_use]
    pub fn prepared(&self, profile: UciProfile, style: DesignStyle) -> Arc<Prepared> {
        self.cache.get_or_train(Job::new(profile, style), &self.opts)
    }

    /// How many times [`prepare_model`] actually ran (for memoization tests
    /// and cost accounting).
    #[must_use]
    pub fn trainings(&self) -> usize {
        self.cache.trainings.load(Ordering::Relaxed)
    }

    /// Runs the whole grid and returns the table in grid order.
    #[must_use]
    pub fn run(&self) -> Table1 {
        self.run_streaming(&mut NullSink)
    }

    /// Runs the whole grid, streaming each finished report through `sink`
    /// (in completion order) and returning the table in grid order.
    pub fn run_streaming(&self, sink: &mut dyn ReportSink) -> Table1 {
        self.run_inner(sink, &self.opts)
    }

    /// Runs the grid under a different PDK calibration while **reusing the
    /// memoized trained models** — the engine behind PDK-sensitivity
    /// ablations, where only the hardware half of the pipeline changes.
    #[must_use]
    pub fn run_with_pdk(&self, lib: &EgfetLibrary, tech: &TechParams) -> Table1 {
        let opts = RunOptions { lib: lib.clone(), tech: *tech, ..self.opts.clone() };
        self.run_inner(&mut NullSink, &opts)
    }

    fn run_inner(&self, sink: &mut dyn ReportSink, opts: &RunOptions) -> Table1 {
        let reports = parallel_map_indexed(
            self.jobs.len(),
            self.threads,
            |i| {
                let job = self.jobs[i];
                let prepared = self.cache.get_or_train(job, &self.opts);
                run_prepared(job.profile, job.style, &prepared, opts)
            },
            |i, report| sink.on_report(self.jobs[i], report),
        );
        let mut table = Table1::default();
        for report in reports {
            table.push(report);
        }
        table
    }
}

/// The default worker count: the machine's parallelism, capped by the job
/// count (a 1-job grid should not spawn 16 idle workers).
#[must_use]
pub fn default_threads(jobs: usize) -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
        .min(jobs.max(1))
}

std::thread_local! {
    /// Set while the current thread is a [`parallel_map`] worker. Nested
    /// fan-outs (e.g. the precision search inside `prepare_model`, itself
    /// running on an engine or registry worker) degrade to the serial path
    /// instead of multiplying thread counts — results are identical either
    /// way, only scheduling changes.
    static IN_PARALLEL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Maps `f` over `0..n` on `threads` scoped workers and returns results in
/// index order — the deterministic fan-out primitive the engine, the
/// scaling sweeps and the fault campaigns share. `observe` fires in
/// completion order as each item finishes.
fn parallel_map_indexed<R: Send>(
    n: usize,
    threads: usize,
    f: impl Fn(usize) -> R + Sync,
    observe: impl FnMut(usize, &R) + Send,
) -> Vec<R> {
    let nested = IN_PARALLEL_WORKER.with(std::cell::Cell::get);
    let threads = if nested { 1 } else { threads.max(1).min(n.max(1)) };
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    if threads <= 1 {
        let mut observe = observe;
        for (i, slot) in slots.iter().enumerate() {
            let r = f(i);
            observe(i, &r);
            *slot.lock().expect("slot poisoned") = Some(r);
        }
    } else {
        let next = AtomicUsize::new(0);
        let observe = Mutex::new(observe);
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    IN_PARALLEL_WORKER.with(|w| w.set(true));
                    loop {
                        let i = next.fetch_add(1, Ordering::SeqCst);
                        if i >= n {
                            break;
                        }
                        let r = f(i);
                        {
                            let mut obs = observe.lock().expect("observer poisoned");
                            obs(i, &r);
                        }
                        *slots[i].lock().expect("slot poisoned") = Some(r);
                    }
                });
            }
        });
    }
    slots
        .into_iter()
        .map(|s| s.into_inner().expect("slot poisoned").expect("every index filled"))
        .collect()
}

/// Maps `f` over a slice on `threads` scoped workers, preserving input
/// order. The shared fan-out helper for sweeps and campaigns outside the
/// `(profile, style)` grid.
pub fn parallel_map<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    parallel_map_indexed(items.len(), threads, |i| f(&items[i]), |_, _| {})
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fast_opts() -> RunOptions {
        RunOptions { max_sim_samples: 12, ..RunOptions::default() }
    }

    fn small_grid() -> Vec<Job> {
        vec![
            Job::new(UciProfile::Cardio, DesignStyle::SequentialSvm),
            Job::new(UciProfile::Cardio, DesignStyle::ParallelSvm),
            Job::new(UciProfile::Cardio, DesignStyle::ParallelMlp),
        ]
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<usize> = (0..57).collect();
        let out = parallel_map(&items, 8, |&x| x * x);
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallel_map_degrades_to_serial() {
        let outer: Vec<usize> = (0..4).collect();
        let out = parallel_map(&outer, 4, |&i| {
            // On an outer worker thread the nested fan-out must run inline
            // (no thread multiplication) and still produce ordered results.
            let inner = parallel_map(&[1usize, 2, 3], 3, |&x| {
                assert!(
                    IN_PARALLEL_WORKER.with(std::cell::Cell::get),
                    "nested map must stay on the outer worker thread"
                );
                x * 10 + i
            });
            inner.iter().sum::<usize>()
        });
        assert_eq!(out, vec![60, 63, 66, 69]);
    }

    #[test]
    fn engine_matches_run_experiment() {
        let opts = fast_opts();
        let engine = ExperimentEngine::new(small_grid(), opts.clone()).with_threads(1);
        let table = engine.run();
        let direct =
            crate::pipeline::run_experiment(UciProfile::Cardio, DesignStyle::SequentialSvm, &opts);
        assert_eq!(table.rows[0], direct, "engine must reproduce run_experiment bit for bit");
    }

    #[test]
    fn serial_and_parallel_runs_are_bit_identical() {
        let serial = ExperimentEngine::new(small_grid(), fast_opts()).with_threads(1).run();
        let parallel = ExperimentEngine::new(small_grid(), fast_opts()).with_threads(4).run();
        assert_eq!(serial.rows, parallel.rows);
    }

    #[test]
    fn models_train_once_per_pair() {
        let mut jobs = small_grid();
        jobs.extend(small_grid()); // every pair appears twice
        let engine = ExperimentEngine::new(jobs, fast_opts()).with_threads(4);
        let table = engine.run();
        assert_eq!(table.rows.len(), 6);
        assert_eq!(engine.trainings(), 3, "duplicate jobs must reuse the memoized model");
        // A PDK re-run must not retrain either.
        let lib = pe_cells::EgfetLibrary::standard();
        let tech = pe_cells::TechParams::standard();
        let _ = engine.run_with_pdk(&lib, &tech);
        assert_eq!(engine.trainings(), 3);
    }

    #[test]
    fn streaming_sink_sees_every_job() {
        struct Counter(usize);
        impl ReportSink for Counter {
            fn on_report(&mut self, _job: Job, _report: &DesignReport) {
                self.0 += 1;
            }
        }
        let engine = ExperimentEngine::new(small_grid(), fast_opts()).with_threads(2);
        let mut sink = Counter(0);
        let table = engine.run_streaming(&mut sink);
        assert_eq!(sink.0, table.rows.len());
    }
}
