//! The `pe-serve` binary: a TCP classification server over the bit-sliced
//! gate-level simulator.
//!
//! ```text
//! pe-serve [--addr HOST:PORT] [--mode gate|int|verify] [--batch-max N]
//!          [--width 1|2|4|8] [--workers N]
//!          [--capacity N] [--warm key,key,... | --warm-grid]
//!          [--max-conns N]
//! ```
//!
//! Keys are `profile:style` tokens (`cardio:seq`, `pendigits:mlp`, …; see
//! the protocol docs). Warmed models train before the listener opens, so
//! the first request never pays training latency. See
//! [`pe_serve::protocol`] for the wire format. On a clean shutdown the
//! server prints its final `metrics` exposition to stderr.

use pe_core::engine::{ProgressSink, StderrProgress};
use pe_core::pipeline::RunOptions;
use pe_serve::{ModelKey, ModelRegistry, ServeMode, Server, Service, ServiceConfig};
use std::process::ExitCode;
use std::sync::Arc;

struct Args {
    addr: String,
    cfg: ServiceConfig,
    /// Model preparation options; `--width` sets their `lane_width`.
    opts: RunOptions,
    warm: Vec<ModelKey>,
    max_conns: Option<usize>,
}

fn usage() -> ! {
    eprintln!(
        "usage: pe-serve [--addr HOST:PORT] [--mode gate|int|verify] [--batch-max N]\n\
         \x20               [--width 1|2|4|8] [--workers N]\n\
         \x20               [--capacity N] [--warm key,key,... | --warm-grid]\n\
         \x20               [--max-conns N]\n\
         --width caps the bit-sliced slab width in words (64-512 lanes; lane\n\
         counts accepted) and sets the chunk size of larger batches; each\n\
         batch sweeps the narrowest slab that holds it; default: per-model auto\n\
         --max-conns caps concurrent connections (default 16384)"
    );
    std::process::exit(2)
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".to_owned(),
        cfg: ServiceConfig::default(),
        opts: RunOptions::default(),
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
                args.opts.lane_width = Some(
                    pe_sim::LaneWidth::parse(&spec)
                        .ok_or(format!("bad --width {spec:?} (expected 1|2|4|8 words)"))?,
                );
            }
            "--workers" => {
                args.cfg.workers =
                    value("--workers")?.parse().map_err(|_| "bad --workers".to_owned())?;
            }
            "--capacity" => {
                args.cfg.queue_capacity =
                    value("--capacity")?.parse().map_err(|_| "bad --capacity".to_owned())?;
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
    let registry = Arc::new(ModelRegistry::new(args.opts));
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
    let width = registry.options().lane_width.map_or("auto".to_owned(), |w| w.to_string());
    eprintln!(
        "pe-serve listening on {} (mode {:?}, batch_max {}, width {}, workers {})",
        server.local_addr(),
        cfg.mode,
        cfg.batch_max,
        width,
        cfg.workers,
    );
    let connections = server.run();
    eprintln!("pe-serve: clean shutdown after {connections} connection(s)");
    eprint!("{}", service.metrics_text());
    ExitCode::SUCCESS
}
