//! `perfbench` — the repository's benchmark: three workloads over the
//! Table-I pipeline, the fault-campaign grid and TCP serving.
//!
//! ```text
//! perfbench --workload table1|campaign|serve_seq --seed N
//!           --seconds S --trace 0|1 --reference-dir DIR
//! ```
//!
//! Human-readable lines go to stdout first; the last stdout line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics, `--trace 1` the per-layer ones (see
//! `NOTES.md`).

mod calib;
mod campaign;
mod client;
mod serve;
mod stats;
mod table1;

use std::fmt::Write as _;
use std::path::PathBuf;

/// End-to-end metrics: every workload reports every one.
const END_TO_END: &[(&str, &str)] =
    &[("setup_s", "s"), ("work_s", "s"), ("p50_ms", "ms"), ("p99_ms", "ms"), ("peak_rss_mb", "MB")];

/// Per-layer metrics (traced run). A workload that makes no call into a
/// layer reports that layer's metrics as 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("pe-core.prepare_s", "s"),
    ("pe-core.elaborate_s", "s"),
    ("pe-sim.verify_s", "s"),
    ("pe-synth.sta_s", "s"),
    ("pe-synth.area_s", "s"),
    ("pe-synth.power_s", "s"),
    ("pe-core.slowest_job_s", "s"),
    ("pe-core.other_s", "s"),
    ("pe-core.cells", "count"),
    ("pe-sim.golden_s", "s"),
    ("pe-netlist.cones_s", "s"),
    ("pe-sim.sweep_s", "s"),
    ("pe-sim.cell_evals", "count"),
    ("pe-sim.chunks", "count"),
    ("pe-sim.fallback_chunks", "count"),
    ("pe-sim.ns_per_cell_eval", "ns"),
    ("pe-lint.collapse_s", "s"),
    ("pe-lint.collapse_reduction", "ratio"),
    ("pe-serve.inproc_p50_ms", "ms"),
    ("pe-serve.frontend_p50_ms", "ms"),
    ("pe-serve.reqs_per_batch", "count"),
    ("pe-serve.lane_fill", "ratio"),
    ("pe-serve.poll_passes_per_req", "count"),
    ("pe-serve.poll_idle_frac", "ratio"),
    ("pe-serve.parked", "count"),
    ("pe-sim.batch_us", "us"),
    ("pe-sim.cell_evals_per_req", "count"),
    ("pe-sim.busy_frac", "ratio"),
    ("client.late_p99_ms", "ms"),
];

/// Command-line settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Config {
    /// Drives every generated input.
    pub seed: u64,
    /// Measurement budget of one run.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Where the reference outputs live.
    pub reference_dir: PathBuf,
}

/// What one workload run produced: its operation counts, the problems its
/// correctness checks found, and its metrics by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: wrong answers, error replies, requests still
    /// unanswered at the drain deadline.
    pub failed: u64,
    /// One line per failed correctness check.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Records a correctness problem.
    pub fn problem(&mut self, line: String) {
        println!("check FAILED: {line}");
        self.problems.push(line);
    }

    /// Records a metric.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// The end-to-end timings of a batch workload (`table1`, `campaign`)
    /// from its timed passes, already scaled to the reference host speed
    /// (see [`calib`]): `work_s` is the median pass, and `p50_ms`/`p99_ms`
    /// are quantiles over the units (cells, designs) of each unit's median
    /// over the passes. `unit_ms[p][i]` is unit `i` in pass `p`.
    pub fn batch_metrics(&mut self, what: &str, unit: &str, passes: &[f64], unit_ms: &[Vec<f64>]) {
        let units = stats::column_medians(unit_ms);
        let work = stats::median(passes);
        let (p50, p99) = (stats::median(&units), stats::quantile(&units, 0.99));
        println!(
            "{what}: {} timed passes, work_s = median {work:.4} s (fastest {:.4}, slowest {:.4})",
            passes.len(),
            stats::quantile(passes, 0.0),
            stats::quantile(passes, 1.0)
        );
        println!(
            "{unit} latency, median of {} passes per {unit}: p50 {p50:.1} ms, p99 {p99:.1} ms \
             over {} {unit}s",
            unit_ms.len(),
            units.len()
        );
        self.metric("work_s", work);
        self.metric("p50_ms", p50);
        self.metric("p99_ms", p99);
    }
}

impl Config {
    /// Checks `actual` against the reference file `name` (one failed
    /// operation if it differs). On a mismatch the whole rendering is
    /// printed, so a change meant to alter the output updates the reference
    /// by copying it.
    pub fn check_reference(&self, name: &str, actual: &str, out: &mut Outcome) {
        let path = self.reference_dir.join(name);
        let problem = match std::fs::read_to_string(&path) {
            Ok(want) if want == actual => {
                println!("check ok: output equals {name}");
                return;
            }
            Ok(want) => {
                let diff = want.lines().zip(actual.lines()).find(|(w, a)| w != a).map_or_else(
                    || "line counts differ".to_owned(),
                    |(w, a)| format!("want {w:?}, got {a:?}"),
                );
                println!("--- actual {name} ---\n{actual}--- end of actual {name} ---");
                format!("output differs from {name}: {diff}")
            }
            Err(e) => format!("cannot read {}: {e}", path.display()),
        };
        out.failed += 1;
        out.problem(problem);
    }
}

fn usage() -> ! {
    eprintln!(
        "usage: perfbench --workload table1|campaign|serve_seq --seed N \
         --seconds S --trace 0|1 --reference-dir DIR"
    );
    std::process::exit(2);
}

fn parse_args() -> (String, Config) {
    let mut workload = None;
    let mut cfg = Config {
        seed: 1,
        seconds: 10.0,
        trace: false,
        reference_dir: PathBuf::from("perfbench/reference"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else { usage() };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => cfg.seed = value.parse().unwrap_or_else(|_| usage()),
            "--seconds" => {
                cfg.seconds =
                    value.parse().ok().filter(|s: &f64| *s > 0.0).unwrap_or_else(|| usage());
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage(),
                }
            }
            "--reference-dir" => cfg.reference_dir = PathBuf::from(value),
            _ => usage(),
        }
    }
    (workload.unwrap_or_else(|| usage()), cfg)
}

/// Renders the result line: the declared metrics of the run's mode, in
/// declaration order. A per-layer metric the workload does not touch is 0.
fn result_json(out: &Outcome, trace: bool) -> String {
    let declared = if trace { PER_LAYER } else { END_TO_END };
    for (name, _) in &out.metrics {
        assert!(
            declared.iter().any(|(d, _)| d == name),
            "metric {name} is not declared for this mode"
        );
    }
    let mut correct = out.problems.is_empty();
    let mut metrics = String::new();
    for (i, (name, unit)) in declared.iter().enumerate() {
        let value = out.metrics.iter().find(|(n, _)| n == name).map(|&(_, v)| v);
        if value.is_none() && !trace {
            panic!("end-to-end metric {name} was not measured");
        }
        let mut value = value.unwrap_or(0.0);
        if !value.is_finite() {
            println!("check FAILED: metric {name} is not finite");
            correct = false;
            value = 0.0;
        }
        if i > 0 {
            metrics.push_str(", ");
        }
        let _ = write!(metrics, "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        out.attempted.max(1),
        out.failed
    )
}

fn main() {
    let (workload, cfg) = parse_args();
    println!(
        "# perfbench workload={workload} seed={} seconds={} trace={} cores={}",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let mut out = match workload.as_str() {
        "table1" => table1::run(&cfg),
        "campaign" => campaign::run(&cfg),
        "serve_seq" => serve::run(&cfg),
        _ => usage(),
    };
    if !cfg.trace {
        out.metric("peak_rss_mb", stats::peak_rss_mb());
    }
    println!(
        "ops: attempted={} failed={} failed_frac={}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    println!("{}", result_json(&out, cfg.trace));
}
