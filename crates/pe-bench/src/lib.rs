//! Benchmark harness for the DATE'25 sequential-SVM paper: shared driver
//! code used by the `table1`, `experiments`, `figure1` and `ablations` binaries
//! and by the bench targets.
//!
//! All grid evaluation goes through [`pe_core::engine::ExperimentEngine`]:
//! one trained model per `(dataset, style)` pair, jobs fanned out over
//! scoped threads, results in deterministic Table-I order.

pub mod harness;

use pe_core::engine::{ExperimentEngine, StderrProgress};
use pe_core::pipeline::RunOptions;
use pe_core::report::Table1;

/// The engine for the paper's full evaluation grid (5 datasets × 4 design
/// styles) with the default thread count. Binaries that need memoized
/// models or PDK variants hold on to the engine itself.
#[must_use]
pub fn table1_engine(opts: &RunOptions) -> ExperimentEngine {
    ExperimentEngine::table1_grid(opts.clone()).with_threads(grid_threads())
}

/// Runs the full evaluation grid and collects the rows in the paper's order
/// (baselines first, ours last, per dataset), printing per-row progress to
/// stderr as jobs finish.
#[must_use]
pub fn build_table1(opts: &RunOptions) -> Table1 {
    table1_engine(opts).run_streaming(&mut StderrProgress)
}

/// Fast options for CI-sized runs (fewer simulated samples).
#[must_use]
pub fn quick_options() -> RunOptions {
    RunOptions { max_sim_samples: 60, ..RunOptions::default() }
}

/// Worker threads for grid runs: `PE_THREADS` if set, else the machine's
/// parallelism. Thread count never changes results, only wall-clock.
#[must_use]
pub fn grid_threads() -> usize {
    std::env::var("PE_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or_else(|| pe_core::engine::default_threads(usize::MAX))
}

/// The stride that subsamples at most `cap` evenly spaced items out of
/// `total` via `step_by`: `ceil(total / cap)`.
///
/// Flooring the division here was a real bug: `(total / cap).max(1)` keeps
/// up to `2 * cap - 1` items (1000 sites at cap 400 → step 2 → 500 kept);
/// the ceiling guarantees `ceil(total / step) <= cap`. A `cap` of zero
/// degrades to keeping everything (step 1) rather than dividing by zero.
#[must_use]
pub fn sample_step(total: usize, cap: usize) -> usize {
    if cap == 0 {
        1
    } else {
        total.div_ceil(cap).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::sample_step;

    #[test]
    fn sample_step_respects_the_cap() {
        // The motivating case: flooring kept 500 of 1000 at cap 400.
        assert_eq!(sample_step(1000, 400), 3);
        for (total, cap) in [(1000, 400), (1, 1), (7, 3), (64, 64), (65, 64), (10_000, 1)] {
            let step = sample_step(total, cap);
            let kept = (0..total).step_by(step).count();
            assert!(kept <= cap, "{total} sites at cap {cap}: step {step} keeps {kept}");
        }
    }

    #[test]
    fn sample_step_keeps_everything_when_uncapped() {
        assert_eq!(sample_step(123, 0), 1);
        assert_eq!(sample_step(123, 1000), 1);
        assert_eq!(sample_step(0, 10), 1);
    }
}
