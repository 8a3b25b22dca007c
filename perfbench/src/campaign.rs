//! `campaign`: single-stuck-at PPSFP fault campaigns (one fault site per
//! simulator lane) on all 20 Table-I netlists, full site lists, 40-vector
//! workloads, on one thread.
//!
//! Models are trained and netlists elaborated in set-up; the timed work is
//! the campaign grid alone. Every campaign goes through [`campaign`], the
//! benchmark's single call site into `pe-sim`'s campaign API.

use crate::calib::{Calibrator, Shape, Span};
use crate::stats::{median, secs, Rng};
use crate::{Config, Outcome};
use pe_core::engine::{parallel_map, ExperimentEngine};
use pe_core::pipeline::{build_netlist, cycles_per_inference, fault_workload, RunOptions};
use pe_core::DesignStyle;
use pe_netlist::graph::FanoutCones;
use pe_netlist::Netlist;
use pe_obs::{ProfileRecorder, SimProfile};
use pe_sim::faults::{
    enumerate_fault_sites, fault_campaign_comb_ppsfp_wide_obs, fault_campaign_seq_ppsfp_wide_obs,
    oracle,
};
use pe_sim::{BitSlicedSimulator, ConeMode, ConeStats, FaultReport, FaultSite, LaneWidth};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// Threads for set-up (training, elaboration); the campaigns themselves
/// run on one thread.
const SETUP_THREADS: usize = 2;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Held-out test vectors driven per fault site.
const WORKLOAD: usize = 40;

/// Seeded sites per design re-judged by the rebuild-per-site oracle.
const ORACLE_SITES: usize = 2;

/// The observed output port of every generated design.
const OUT_PORT: &str = "class";

/// One campaign target, built in set-up.
struct Design {
    label: String,
    nl: Netlist,
    sites: Vec<FaultSite>,
    workload: Vec<Vec<(String, i64)>>,
    /// `Some(cycles)` per classification for the sequential design.
    cycles: Option<u64>,
}

/// The one call site into `pe-sim`'s fault-campaign API: the default entry
/// point's behaviour (width auto-picked from the site count, cone
/// scheduling on `Auto`), with an optional profile hook for traced runs.
fn campaign(
    d: &Design,
    sites: &[FaultSite],
    profile: Option<&dyn SimProfile>,
) -> (FaultReport, ConeStats) {
    let width = LaneWidth::for_sites(sites.len());
    let mode = ConeMode::Auto;
    match d.cycles {
        None => fault_campaign_comb_ppsfp_wide_obs(
            &d.nl,
            sites,
            &d.workload,
            OUT_PORT,
            width,
            mode,
            profile,
        ),
        Some(c) => fault_campaign_seq_ppsfp_wide_obs(
            &d.nl,
            sites,
            &d.workload,
            OUT_PORT,
            c,
            width,
            mode,
            profile,
        ),
    }
    .expect("generated designs are acyclic")
}

/// Trains every Table-I model and builds its campaign inputs.
fn setup() -> (Vec<Design>, Span) {
    let t0 = Instant::now();
    let engine = ExperimentEngine::table1_grid(RunOptions::default()).with_threads(SETUP_THREADS);
    let designs = parallel_map(engine.jobs(), SETUP_THREADS, |job| {
        let prepared = engine.prepared(job.profile, job.style);
        let nl = build_netlist(job.style, &prepared);
        let cycles = (job.style == DesignStyle::SequentialSvm)
            .then(|| cycles_per_inference(job.style, &prepared));
        Design {
            label: format!("{} {}", job.profile.name(), job.style.label()),
            sites: enumerate_fault_sites(&nl),
            workload: fault_workload(&prepared, WORKLOAD),
            nl,
            cycles,
        }
    });
    (designs, Span::since(t0))
}

/// The per-design verdict counts, one line each (the reference format).
fn render(designs: &[Design], reports: &[FaultReport]) -> String {
    let mut s = String::new();
    for (d, r) in designs.iter().zip(reports) {
        let _ = writeln!(
            s,
            "{} | sites={} critical={} benign={}",
            d.label, r.total, r.critical, r.benign
        );
    }
    s
}

/// One timed pass over the grid: reports and the span of each design's
/// campaign. A host-speed probe runs before each design, outside its span.
fn pass(designs: &[Design], calib: &mut Calibrator) -> (Vec<FaultReport>, Vec<Span>) {
    let mut spans = Vec::with_capacity(designs.len());
    let reports = designs
        .iter()
        .map(|d| {
            calib.probe();
            let t = Instant::now();
            let (r, _) = campaign(d, &d.sites, None);
            spans.push(Span::since(t));
            r
        })
        .collect();
    (reports, spans)
}

/// Raw seconds of a pass: the sum of its design campaigns.
fn pass_s(spans: &[Span]) -> f64 {
    spans.iter().map(|s| secs(s.took)).sum()
}

/// The rebuild-per-site oracle's verdict on one site.
fn oracle_critical(d: &Design, site: FaultSite) -> bool {
    let r = match d.cycles {
        None => oracle::fault_campaign_comb(&d.nl, &[site], &d.workload, OUT_PORT),
        Some(c) => oracle::fault_campaign_seq(&d.nl, &[site], &d.workload, OUT_PORT, c),
    }
    .expect("generated designs are acyclic");
    r.critical == 1
}

/// Seeded site subsample judged by both the PPSFP path and the oracle.
/// Returns (sites checked, disagreements).
fn oracle_check(cfg: &Config, designs: &[Design], out: &mut Outcome) -> (u64, u64) {
    let mut rng = Rng::new(cfg.seed, 21);
    let (mut checked, mut wrong) = (0, 0);
    for d in designs {
        for _ in 0..ORACLE_SITES {
            let site = d.sites[rng.below(d.sites.len())];
            let ppsfp = campaign(d, &[site], None).0.critical == 1;
            checked += 1;
            if ppsfp != oracle_critical(d, site) {
                wrong += 1;
                out.problem(format!("{}: PPSFP and oracle disagree on {site:?}", d.label));
            }
        }
    }
    println!("check: {checked} seeded sites re-judged by faults::oracle, {wrong} disagreements");
    (checked, wrong)
}

/// Runs the workload (untraced or traced, per `cfg.trace`). Host-speed
/// probes run before every set-up and design campaign and after the last.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut calib = Calibrator::new(1, Shape::Memory);
    let mut setups = Vec::new();
    let mut designs = Vec::new();
    for _ in 0..SETUPS {
        calib.probe();
        let (d, span) = setup();
        setups.push(span);
        designs = d;
    }
    let total_sites: usize = designs.iter().map(|d| d.sites.len()).sum();
    let raw_setups: Vec<f64> = setups.iter().map(|s| secs(s.took)).collect();
    println!(
        "setup: {SETUPS} set-ups (train + elaborate {} designs, {total_sites} sites), median {:.4} s",
        designs.len(),
        median(&raw_setups)
    );
    if cfg.trace {
        trace(cfg, &designs, &mut calib, &mut out);
        return out;
    }

    let budget = Duration::from_secs_f64(cfg.seconds);
    let t0 = Instant::now();
    let mut passes = Vec::new();
    while passes.is_empty() || t0.elapsed() < budget {
        let (reports, spans) = pass(&designs, &mut calib);
        passes.push(spans);
        out.attempted += reports.len() as u64;
        cfg.check_reference("campaign.txt", &render(&designs, &reports), &mut out);
    }
    calib.probe();
    let (checked, wrong) = oracle_check(cfg, &designs, &mut out);
    out.attempted += checked;
    out.failed += wrong;

    calib.report();
    let raw: Vec<f64> = passes.iter().map(|p| pass_s(p)).collect();
    println!("raw: median set-up {:.4} s, median pass {:.4} s", median(&raw_setups), median(&raw));
    let setup_s = median(&setups.iter().map(|&s| calib.scaled_s(s)).collect::<Vec<_>>());
    println!("setup_s {setup_s:.4} s");
    out.metric("setup_s", setup_s);
    let lat: Vec<Vec<f64>> =
        passes.iter().map(|p| p.iter().map(|&s| calib.scaled_s(s) * 1e3).collect()).collect();
    let passes: Vec<f64> = lat.iter().map(|p| p.iter().sum::<f64>() / 1e3).collect();
    out.batch_metrics("campaign grid", "design campaign", &passes, &lat);
    out
}

/// The golden (fault-free) workload run at the campaign's width, timed from
/// outside: the same work the campaign's first step does.
fn golden_probe(d: &Design) -> Vec<i64> {
    fn at<const W: usize>(d: &Design) -> Vec<i64> {
        let mut sim =
            BitSlicedSimulator::<'_, W>::new(&d.nl).expect("generated designs are acyclic");
        match d.cycles {
            None => sim.run_workload_comb(&d.workload, OUT_PORT),
            Some(c) => sim.run_workload_seq_reset(&d.workload, c, OUT_PORT),
        }
    }
    match LaneWidth::for_sites(d.sites.len()) {
        LaneWidth::W1 => at::<1>(d),
        LaneWidth::W2 => at::<2>(d),
        LaneWidth::W4 => at::<4>(d),
        LaneWidth::W8 => at::<8>(d),
    }
}

/// The traced run: an untraced pass for the overhead baseline, then per
/// design the golden run and cone build timed on their own, the profiled
/// campaign call, and the static collapse analysis.
fn trace(cfg: &Config, designs: &[Design], calib: &mut Calibrator, out: &mut Outcome) {
    let (want, spans) = pass(designs, calib);
    let untraced = pass_s(&spans);
    out.attempted += want.len() as u64;
    cfg.check_reference("campaign.txt", &render(designs, &want), out);

    let recorder = ProfileRecorder::new();
    let (mut golden, mut cones, mut sweep, mut collapse) = (0.0, 0.0, 0.0, 0.0);
    let (mut sites, mut simulated) = (0usize, 0usize);
    let mut reports = Vec::new();
    let start = Instant::now();
    for d in designs {
        let t = Instant::now();
        std::hint::black_box(golden_probe(d));
        let g = secs(t.elapsed());
        let t = Instant::now();
        std::hint::black_box(FanoutCones::new(&d.nl));
        let c = secs(t.elapsed());
        let t = Instant::now();
        let (r, _) = campaign(d, &d.sites, Some(&recorder));
        let call = secs(t.elapsed());
        let t = Instant::now();
        let collapsed = pe_lint::collapse_fault_sites(&d.nl);
        collapse += secs(t.elapsed());
        sites += collapsed.sites.len();
        simulated += collapsed.simulate.len();
        golden += g;
        cones += c;
        sweep += (call - g - c).max(0.0);
        reports.push(r);
    }
    let wall = secs(start.elapsed());
    out.attempted += reports.len() as u64;
    if reports != want {
        out.failed += 1;
        out.problem("profiled campaign verdicts differ from the untraced pass".to_owned());
    }

    let prof = recorder.snapshot();
    let evals = prof.campaign_cell_evals;
    out.metric("pe-sim.golden_s", golden);
    out.metric("pe-netlist.cones_s", cones);
    out.metric("pe-sim.sweep_s", sweep);
    out.metric("pe-sim.cell_evals", evals as f64);
    out.metric("pe-sim.chunks", prof.chunks as f64);
    out.metric("pe-sim.fallback_chunks", prof.fallback_chunks as f64);
    out.metric("pe-sim.ns_per_cell_eval", (golden + sweep) * 1e9 / evals.max(1) as f64);
    out.metric("pe-lint.collapse_s", collapse);
    out.metric("pe-lint.collapse_reduction", 1.0 - simulated as f64 / sites.max(1) as f64);
    let layers = golden + cones + sweep + collapse;
    println!(
        "layers: golden {golden:.4} s, cones {cones:.4} s, sweep {sweep:.4} s, collapse {collapse:.4} s; \
         {} chunks ({} full-sweep fallback), {evals} cell evals",
        prof.chunks, prof.fallback_chunks
    );
    println!(
        "trace: untraced pass {untraced:.4} s, traced pass {wall:.4} s (overhead {:+.1} % excluding \
         the {collapse:.4} s collapse analysis); layers cover {:.1} % of the traced wall",
        100.0 * ((wall - collapse) / untraced - 1.0),
        100.0 * layers / wall
    );
}
