//! Yield/robustness study: single-stuck-at fault campaigns on the Table-I
//! classifier circuits. Printed fabrication defects are frequent; this
//! measures how many faults actually flip classifications on a real
//! workload (faults masked by quantization/argmax margins are benign) — on
//! both a fully-parallel baseline datapath **and** the paper's headline
//! sequential SVM, whose clocked campaign judges faults per classification
//! under the per-classification reset protocol.
//!
//! Campaigns run PPSFP-style (`pe_sim::faults`): up to `64 * W` fault sites
//! per bit-sliced slab (the lane width `W` auto-picked per shard, or forced
//! with `--width`), one faulty machine per lane, every workload pattern
//! driven broadcast — and the site list is additionally sharded across
//! `parallel_map` workers in slab-aligned chunks, so the campaign
//! parallelizes across threads *and* lanes. Each worker schedules one
//! simulator and reuses it for its whole shard via per-lane force/release.
//!
//! Usage: `cargo run --release -p pe-bench --bin faults
//!         [max_sites] [--compare] [--collapse] [--width 1|2|4|8] [--events]`
//!
//! `--compare` re-runs a subsample of the sites through the rebuild-per-site
//! serial oracle, asserts the reports agree, and prints the measured
//! speedup. Verdicts are width-invariant, so `--compare` at a widened
//! occupancy checks the wide engine against the oracle. Every campaign is
//! also re-run unsharded with cones on and off ([`ConeMode::Never`], the
//! plain-sweep reference) and both reports are asserted equal to the
//! sharded one; `--compare` additionally checks that the live
//! [`SimProfile`] recorder reconciles with each run's exit [`ConeStats`],
//! and cross-checks **toggle/activity counters** (not just
//! classifications) between the scalar and bit-sliced engines on the same
//! workload batch; `--events` adds the event-driven (dirty-cell worklist)
//! engine to that cross-check. Every campaign additionally reports its
//! cone-scheduling stats: chunks evaluated through their fanout cone vs
//! full-sweep fallbacks, and the cell evaluations saved vs cone-off.
//!
//! `--collapse` additionally runs the statically collapsed campaign
//! (`pe_sim::collapse`): equivalence classes and unobservable cones are
//! retired before any lane is pinned, the surviving representatives sweep
//! as usual, and the verdicts are expanded back over the full site list —
//! asserted bit-identical to the uncollapsed report, with the site
//! reduction and wall-clock printed.

use pe_core::engine::{self, ExperimentEngine, Job};
use pe_core::pipeline::{build_netlist, cycles_per_inference, fault_workload, RunOptions};
use pe_core::styles::DesignStyle;
use pe_data::UciProfile;
use pe_netlist::Netlist;
use pe_obs::{ProfileRecorder, ProfileSnapshot, SimProfile};
use pe_sim::collapse::{fault_campaign_comb_ppsfp_collapsed, fault_campaign_seq_ppsfp_collapsed};
use pe_sim::faults::{
    enumerate_fault_sites, fault_campaign_comb_ppsfp_wide_obs, fault_campaign_seq_ppsfp_wide_obs,
    oracle, ConeMode, ConeStats, FaultReport, FaultSite,
};
use pe_sim::{BatchMode, LaneWidth, Simulator};
use std::time::Instant;

/// Workload size: real test samples driven per fault site.
const WORKLOAD: usize = 40;

/// Site cap for the rebuild-per-site oracle timing (it is slow by design).
const ORACLE_CAP: usize = 192;

/// One campaign flavor: combinational (settle per pattern) or sequential
/// (reset + `cycles` ticks per pattern).
#[derive(Clone, Copy)]
enum Flavor {
    Comb,
    Seq { cycles: u64 },
}

/// Splits the site list into per-worker shards whose sizes are multiples of
/// the sweep's lane capacity (except the last) — `64 * W` when a width is
/// forced, 64 otherwise — so no worker simulates half-empty PPSFP sweeps.
fn sweep_aligned_shards(
    sites: &[FaultSite],
    threads: usize,
    width: Option<LaneWidth>,
) -> Vec<Vec<FaultSite>> {
    let lanes = width.map_or(64, LaneWidth::lanes);
    let per_worker = sites.len().div_ceil(threads.max(1)).next_multiple_of(lanes);
    sites.chunks(per_worker.max(lanes)).map(<[_]>::to_vec).collect()
}

fn merge(partials: Vec<FaultReport>) -> FaultReport {
    partials.into_iter().fold(FaultReport { critical: 0, benign: 0, total: 0 }, |acc, r| {
        FaultReport {
            critical: acc.critical + r.critical,
            benign: acc.benign + r.benign,
            total: acc.total + r.total,
        }
    })
}

/// One campaign implementation driven by [`run_sharded`]: the PPSFP
/// default or the rebuild-per-site oracle. The [`LaneWidth`] override only
/// matters to the PPSFP path; the oracle ignores it.
type CampaignPath = fn(
    &Netlist,
    &[FaultSite],
    &[Vec<(String, i64)>],
    &str,
    Flavor,
    Option<LaneWidth>,
) -> FaultReport;

/// Runs one campaign over site shards on the worker pool and returns the
/// merged report with its wall-clock seconds.
fn run_sharded(
    nl: &Netlist,
    shards: &[Vec<FaultSite>],
    workload: &[Vec<(String, i64)>],
    flavor: Flavor,
    width: Option<LaneWidth>,
    threads: usize,
    path: CampaignPath,
) -> (FaultReport, f64) {
    let t0 = Instant::now();
    let partials = engine::parallel_map(shards, threads, |shard| {
        path(nl, shard, workload, "class", flavor, width)
    });
    (merge(partials), t0.elapsed().as_secs_f64())
}

fn ppsfp_path(
    nl: &Netlist,
    sites: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out: &str,
    flavor: Flavor,
    width: Option<LaneWidth>,
) -> FaultReport {
    // `None` is the default campaigns' width: the smallest slab covering
    // the shard.
    let w = width.unwrap_or_else(|| LaneWidth::for_sites(sites.len()));
    let mode = ConeMode::Auto;
    match flavor {
        Flavor::Comb => fault_campaign_comb_ppsfp_wide_obs(nl, sites, workload, out, w, mode, None),
        Flavor::Seq { cycles } => {
            fault_campaign_seq_ppsfp_wide_obs(nl, sites, workload, out, cycles, w, mode, None)
        }
    }
    .expect("acyclic")
    .0
}

fn oracle_path(
    nl: &Netlist,
    sites: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    out: &str,
    flavor: Flavor,
    _width: Option<LaneWidth>,
) -> FaultReport {
    match flavor {
        Flavor::Comb => oracle::fault_campaign_comb(nl, sites, workload, out).expect("acyclic"),
        Flavor::Seq { cycles } => {
            oracle::fault_campaign_seq(nl, sites, workload, out, cycles).expect("acyclic")
        }
    }
}

/// Runs the whole (unsharded) campaign through the `_obs` path at one
/// explicit [`ConeMode`] with a live [`ProfileRecorder`] installed,
/// returning the report, the campaign's exit work accounting, and the
/// recorder's view of the same run (the reconciliation pair).
fn cone_run(
    nl: &Netlist,
    sites: &[FaultSite],
    workload: &[Vec<(String, i64)>],
    flavor: Flavor,
    width: LaneWidth,
    mode: ConeMode,
) -> (FaultReport, ConeStats, ProfileSnapshot) {
    let recorder = ProfileRecorder::new();
    let profile = Some(&recorder as &dyn SimProfile);
    let (report, stats) = match flavor {
        Flavor::Comb => {
            fault_campaign_comb_ppsfp_wide_obs(nl, sites, workload, "class", width, mode, profile)
                .expect("acyclic")
        }
        Flavor::Seq { cycles } => fault_campaign_seq_ppsfp_wide_obs(
            nl, sites, workload, "class", cycles, width, mode, profile,
        )
        .expect("acyclic"),
    };
    (report, stats, recorder.snapshot())
}

/// The `--compare` gate for the observability layer: the [`SimProfile`]
/// recorder fed chunk-by-chunk during the campaign must reconcile exactly
/// with the campaign's exit-summary [`ConeStats`] — same chunk counts, same
/// cone/fallback split, same total cell evaluations (golden run included).
fn assert_profile_reconciles(label: &str, prof: &ProfileSnapshot, stats: &ConeStats, sites: usize) {
    assert_eq!(prof.chunks, stats.chunks as u64, "{label}: recorder chunk count");
    assert_eq!(prof.cone_chunks, stats.cone_chunks as u64, "{label}: recorder cone chunks");
    assert_eq!(
        prof.fallback_chunks, stats.fallback_chunks as u64,
        "{label}: recorder fallback chunks"
    );
    assert_eq!(prof.campaign_cell_evals, stats.cell_evals, "{label}: recorder cell evals");
    assert_eq!(prof.campaign_sites, sites as u64, "{label}: recorder site count");
}

/// The counter gate `--compare` was missing: classifications *and*
/// toggle/activity counters must be bit-identical between the scalar
/// reference and the bit-sliced full-sweep engine at the same width — and,
/// with `--events`, the event-driven worklist engine too.
fn activity_crosscheck(
    nl: &Netlist,
    workload: &[Vec<(String, i64)>],
    flavor: Flavor,
    width: LaneWidth,
    events: bool,
) {
    let vectors: Vec<Vec<i64>> =
        workload.iter().map(|e| e.iter().map(|(_, v)| *v).collect()).collect();
    let cycles = match flavor {
        Flavor::Comb => 0,
        Flavor::Seq { cycles } => cycles,
    };
    let run = |mode: BatchMode, ev: bool| {
        let mut sim = Simulator::new(nl).expect("acyclic");
        sim.set_batch_mode(mode);
        sim.set_lane_width(width);
        sim.set_event_driven(ev);
        sim.enable_activity();
        let batch = sim.run_batch(&vectors, cycles, "class");
        (batch, sim.activity())
    };
    let (want_batch, want_act) = run(BatchMode::Scalar, false);
    let (full_batch, full_act) = run(BatchMode::BitSliced, false);
    assert_eq!(full_batch, want_batch, "bit-sliced batch diverged from scalar");
    assert_eq!(full_act, want_act, "bit-sliced toggle counters diverged from scalar");
    if events {
        let (ev_batch, ev_act) = run(BatchMode::BitSliced, true);
        assert_eq!(ev_batch, want_batch, "event-driven batch diverged from scalar");
        assert_eq!(ev_act, want_act, "event-driven toggle counters diverged from scalar");
    }
    println!(
        "activity check   : scalar == bit-sliced{} ({} toggles over {} vectors)",
        if events { " == event-driven" } else { "" },
        want_act.total_toggles(),
        vectors.len()
    );
}

/// The CLI knobs, shared verbatim by both campaign styles.
struct CampaignOpts {
    max_sites: usize,
    compare: bool,
    collapse: bool,
    events: bool,
    width: Option<LaneWidth>,
    threads: usize,
}

fn campaign(
    engine: &ExperimentEngine,
    profile: UciProfile,
    style: DesignStyle,
    opts: &CampaignOpts,
) {
    let CampaignOpts { max_sites, compare, collapse, events, width, threads } = *opts;
    let prepared = engine.prepared(profile, style);
    let nl = build_netlist(style, &prepared);
    let flavor = match style {
        DesignStyle::SequentialSvm => {
            Flavor::Seq { cycles: cycles_per_inference(style, &prepared) }
        }
        _ => Flavor::Comb,
    };
    let workload = fault_workload(&prepared, WORKLOAD);
    let mut sites = enumerate_fault_sites(&nl);
    let all = sites.len();
    let step = pe_bench::sample_step(all, max_sites);
    sites = sites.into_iter().step_by(step).collect();
    let shards = sweep_aligned_shards(&sites, threads, width);
    eprintln!(
        "[{} {}] {} sites (of {} candidates), {} workload vectors, {} threads, {} shards, \
         width {}...",
        profile.name(),
        style.label(),
        sites.len(),
        all,
        workload.len(),
        threads,
        shards.len(),
        width.map_or("auto".to_owned(), |w| format!("{w} ({} lanes/sweep)", w.lanes())),
    );
    let (report, secs) = run_sharded(&nl, &shards, &workload, flavor, width, threads, ppsfp_path);

    let kind = match flavor {
        Flavor::Comb => "combinational".to_owned(),
        Flavor::Seq { cycles } => format!("sequential, {cycles} cycles/classification"),
    };
    println!(
        "# Single-stuck-at fault campaign ({}, {}; {})\n",
        profile.name(),
        style.label(),
        kind
    );
    println!("faults simulated : {} ({:.2} s PPSFP)", report.total, secs);
    println!("critical         : {} ({:.1} %)", report.critical, 100.0 * report.criticality());
    println!("benign (masked)  : {}", report.benign);

    // Cone-scheduling accounting: one unsharded pass with cones on and one
    // with cones off, both asserted bit-identical to the sharded campaign.
    let eff_width = width.unwrap_or_else(|| LaneWidth::for_sites(sites.len()));
    let (auto_report, auto_stats, auto_prof) =
        cone_run(&nl, &sites, &workload, flavor, eff_width, ConeMode::Auto);
    assert_eq!(auto_report, report, "cone-scheduled report must match the sharded campaign");
    let (never_report, never_stats, never_prof) =
        cone_run(&nl, &sites, &workload, flavor, eff_width, ConeMode::Never);
    assert_eq!(never_report, report, "cone-off report must match the sharded campaign");
    let avoided =
        100.0 * (1.0 - auto_stats.cell_evals as f64 / never_stats.cell_evals.max(1) as f64);
    println!(
        "cone scheduling  : {}/{} chunks through fanout cones ({} full-sweep fallback)",
        auto_stats.cone_chunks, auto_stats.chunks, auto_stats.fallback_chunks
    );
    println!(
        "cell evaluations : {} cone-scheduled vs {} full-sweep ({:.1} % avoided)",
        auto_stats.cell_evals, never_stats.cell_evals, avoided
    );
    // The same numbers as seen *during* the run by the SimProfile hook —
    // what a live dashboard would read mid-campaign.
    println!(
        "live profile     : {} chunks over {} sites, {} cell evals (SimProfile recorder)",
        auto_prof.chunks, auto_prof.campaign_sites, auto_prof.campaign_cell_evals
    );
    if compare {
        assert_profile_reconciles("cone auto", &auto_prof, &auto_stats, sites.len());
        assert_profile_reconciles("cone never", &never_prof, &never_stats, sites.len());
        println!("profile check    : SimProfile recorder == exit ConeStats (auto and never)");
    }

    if collapse {
        // Collapsed campaign: equivalence classes and unobservable sites
        // retired, representatives swept, verdicts expanded back. The report
        // must be indistinguishable from the full campaign's.
        let t0 = Instant::now();
        let mode = ConeMode::Auto;
        let (creport, cstats) = match flavor {
            Flavor::Comb => fault_campaign_comb_ppsfp_collapsed(
                &nl, &sites, &workload, "class", eff_width, mode,
            )
            .expect("acyclic"),
            Flavor::Seq { cycles } => fault_campaign_seq_ppsfp_collapsed(
                &nl, &sites, &workload, "class", cycles, eff_width, mode,
            )
            .expect("acyclic"),
        };
        let c_secs = t0.elapsed().as_secs_f64();
        assert_eq!(creport, report, "collapsed report must be bit-identical to the full campaign");
        let t1 = Instant::now();
        let _ = ppsfp_path(&nl, &sites, &workload, "class", flavor, Some(eff_width));
        let f_secs = t1.elapsed().as_secs_f64();
        println!(
            "fault collapsing : {} sites -> {} simulated ({} classes, {} statically benign; \
             {:.1} % collapsed away)",
            cstats.sites,
            cstats.simulated,
            cstats.classes,
            cstats.static_benign,
            100.0 * cstats.reduction(),
        );
        println!(
            "collapsed run    : {:.3} s vs {:.3} s uncollapsed ({:.2}x), report bit-identical",
            c_secs,
            f_secs,
            f_secs / c_secs.max(1e-9),
        );
    }

    if compare {
        let oracle_sites: Vec<FaultSite> =
            sites.iter().copied().step_by(pe_bench::sample_step(sites.len(), ORACLE_CAP)).collect();
        let oracle_shards = sweep_aligned_shards(&oracle_sites, threads, width);
        let (ora, ora_secs) =
            run_sharded(&nl, &oracle_shards, &workload, flavor, width, threads, oracle_path);
        let (ppsfp_sub, ppsfp_sub_secs) =
            run_sharded(&nl, &oracle_shards, &workload, flavor, width, threads, ppsfp_path);
        assert_eq!(ora, ppsfp_sub, "oracle report must match PPSFP on the subsample");
        let per_site = |s: f64, n: usize| 1e6 * s / n.max(1) as f64;
        println!(
            "\nper-site cost    : {:.1} µs PPSFP | {:.1} µs rebuild oracle",
            per_site(secs, report.total),
            per_site(ora_secs, ora.total)
        );
        println!(
            "speedup          : {:.0}x vs serial-site rebuild oracle",
            per_site(ora_secs, ora.total) / per_site(ppsfp_sub_secs, ppsfp_sub.total).max(1e-9)
        );
        activity_crosscheck(
            &nl,
            &workload,
            flavor,
            width.unwrap_or_else(|| LaneWidth::auto_for_netlist(&nl)),
            events,
        );
    }
    println!();
}

fn main() {
    let mut max_sites: usize = 0; // 0 = the full site list
    let mut compare = false;
    let mut collapse = false;
    let mut events = false;
    let mut width: Option<LaneWidth> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--compare" {
            compare = true;
        } else if arg == "--collapse" {
            collapse = true;
        } else if arg == "--events" {
            events = true;
        } else if arg == "--width" {
            width = match it.next().as_deref().and_then(LaneWidth::parse) {
                Some(w) => Some(w),
                None => {
                    eprintln!("faults: --width needs 1|2|4|8 (words) or 64|128|256|512 (lanes)");
                    std::process::exit(2);
                }
            };
        } else if let Ok(n) = arg.parse() {
            max_sites = n;
        } else {
            eprintln!(
                "usage: faults [max_sites] [--compare] [--collapse] [--width 1|2|4|8] [--events]"
            );
            std::process::exit(2);
        }
    }
    let profile = UciProfile::Cardio;
    let engine = ExperimentEngine::new(
        vec![
            Job::new(profile, DesignStyle::ParallelSvm),
            Job::new(profile, DesignStyle::SequentialSvm),
        ],
        RunOptions::default(),
    );
    let opts = CampaignOpts {
        max_sites,
        compare,
        collapse,
        events,
        width,
        threads: pe_bench::grid_threads(),
    };
    // The fully-parallel baseline (combinational campaign) and the paper's
    // sequential SVM (clocked campaign) — the headline design's robustness
    // was previously never measured here.
    campaign(&engine, profile, DesignStyle::ParallelSvm, &opts);
    campaign(&engine, profile, DesignStyle::SequentialSvm, &opts);
    println!("Reading: a substantial fraction of printed defects never flips a");
    println!("prediction — classification margins absorb them — which is why bespoke");
    println!("printed classifiers tolerate printing yields that would kill a CPU.");
}
