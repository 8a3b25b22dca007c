//! The `pe-serve` binary: a TCP classification server over the bit-sliced
//! gate-level simulator.
//!
//! ```text
//! pe-serve [--addr HOST:PORT] [--mode gate|int|verify] [--batch-max N]
//!          [--width 1|2|4|8] [--events] [--deadline-us N] [--workers N]
//!          [--capacity N] [--warm key,key,... | --warm-grid]
//!          [--weight key=W ...] [--max-conns N]
//!          [--trace-capacity N] [--trace-slow-us N] [--no-sim-profile]
//! ```
//!
//! Keys are `profile:style` tokens (`cardio:seq`, `pendigits:mlp`, …; see
//! the protocol docs). Warmed models train before the listener opens, so
//! the first request never pays training latency. See
//! [`pe_serve::protocol`] for the wire format.

use pe_core::engine::{ProgressSink, StderrProgress};
use pe_core::pipeline::RunOptions;
use pe_serve::{ModelKey, ModelRegistry, ServeMode, Server, Service, ServiceConfig};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

struct Args {
    addr: String,
    cfg: ServiceConfig,
    warm: Vec<ModelKey>,
    max_conns: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pe-serve [--addr HOST:PORT] [--mode gate|int|verify] [--batch-max N]\n\
         \x20               [--width 1|2|4|8] [--events] [--deadline-us N] [--workers N]\n\
         \x20               [--capacity N] [--warm key,key,... | --warm-grid]\n\
         \x20               [--weight key=W ...] [--max-conns N]\n\
         \x20               [--trace-capacity N] [--trace-slow-us N] [--no-sim-profile]\n\
         --width forces the bit-sliced slab width in words (64-512 lanes per\n\
         sweep; lane counts accepted); default: per-model auto\n\
         --events enables event-driven sweeps (dirty-cell worklist; identical\n\
         predictions, fewer cell evaluations on low-activity batches)\n\
         --weight sets a model's weighted-fair admission share (repeatable;\n\
         e.g. --weight cardio:seq=2 gives it twice the default share)\n\
         --max-conns caps concurrent connections (default 16384)\n\
         --trace-capacity sizes the request trace ring (`trace` command;\n\
         0 disables tracing; default 256)\n\
         --trace-slow-us only traces batches whose oldest request waited at\n\
         least this long end to end (default 0: trace every batch)\n\
         --no-sim-profile skips the simulator's per-batch phase clocks\n\
         (the pe_sim_* series of the `metrics` command read zero)"
    );
    std::process::exit(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        cfg: ServiceConfig::default(),
        warm: vec![ModelKey::parse("cardio:seq").expect("default key parses")],
        max_conns: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--mode" => args.cfg.mode = ServeMode::parse(&value("--mode")?)?,
            "--batch-max" => {
                args.cfg.batch_max =
                    value("--batch-max")?.parse().map_err(|_| "bad --batch-max".to_owned())?;
            }
            "--width" => {
                let spec = value("--width")?;
                args.cfg.lane_width = Some(
                    pe_sim::LaneWidth::parse(&spec)
                        .ok_or(format!("bad --width {spec:?} (expected 1|2|4|8 words)"))?,
                );
            }
            "--events" => args.cfg.event_driven = true,
            "--deadline-us" => {
                let us: u64 =
                    value("--deadline-us")?.parse().map_err(|_| "bad --deadline-us".to_owned())?;
                args.cfg.batch_deadline = Duration::from_micros(us);
            }
            "--workers" => {
                args.cfg.workers =
                    value("--workers")?.parse().map_err(|_| "bad --workers".to_owned())?;
            }
            "--capacity" => {
                args.cfg.queue_capacity =
                    value("--capacity")?.parse().map_err(|_| "bad --capacity".to_owned())?;
            }
            "--trace-capacity" => {
                args.cfg.trace_capacity = value("--trace-capacity")?
                    .parse()
                    .map_err(|_| "bad --trace-capacity".to_owned())?;
            }
            "--trace-slow-us" => {
                let us: u64 = value("--trace-slow-us")?
                    .parse()
                    .map_err(|_| "bad --trace-slow-us".to_owned())?;
                args.cfg.trace_slow = Duration::from_micros(us);
            }
            "--no-sim-profile" => args.cfg.sim_profile = false,
            "--weight" => {
                let spec = value("--weight")?;
                let (key, w) =
                    spec.split_once('=').ok_or(format!("bad --weight {spec:?} (key=W)"))?;
                let key = ModelKey::parse(key)?;
                let w: f64 = w.parse().map_err(|_| format!("bad --weight value {w:?}"))?;
                if !(w.is_finite() && w > 0.0) {
                    return Err(format!("--weight must be positive, got {w}"));
                }
                args.cfg.weights.push((key, w));
            }
            "--max-conns" => {
                args.max_conns =
                    Some(value("--max-conns")?.parse().map_err(|_| "bad --max-conns".to_owned())?);
            }
            "--warm" => {
                args.warm =
                    value("--warm")?.split(',').map(ModelKey::parse).collect::<Result<_, _>>()?;
            }
            "--warm-grid" => args.warm = ModelKey::table1_grid(),
            "--help" | "-h" => usage(),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("pe-serve: {msg}");
            return ExitCode::from(2);
        }
    };
    let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
    let mut progress = StderrProgress;
    if !args.warm.is_empty() {
        progress.note(&format!("warming {} model(s)...", args.warm.len()));
        let threads = pe_core::engine::default_threads(args.warm.len());
        registry.warm(&args.warm, threads, &mut progress);
    }
    let service = Service::start(Arc::clone(&registry), args.cfg);
    let mut server = match Server::bind(&args.addr, Arc::clone(&service)) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("pe-serve: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    if let Some(max) = args.max_conns {
        server.set_max_conns(max);
    }
    let cfg = service.config();
    let width = cfg.lane_width.map_or("auto".to_owned(), |w| w.to_string());
    eprintln!(
        "pe-serve listening on {} (mode {:?}, batch_max {}, width {}, sweeps {}, deadline {:?}, \
         workers {})",
        server.local_addr(),
        cfg.mode,
        cfg.batch_max,
        width,
        if cfg.event_driven { "event-driven" } else { "full" },
        cfg.batch_deadline,
        cfg.workers,
    );
    let connections = server.run();
    eprintln!("pe-serve: clean shutdown after {connections} connection(s)");
    eprintln!("{}", service.metrics());
    ExitCode::SUCCESS
}
