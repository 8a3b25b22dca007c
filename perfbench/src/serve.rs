//! `serve_seq`: `pe-serve` serving `pendigits:seq` in Gate mode under the
//! default `ServiceConfig`, driven over loopback TCP by the one-thread
//! client in [`crate::client`].
//!
//! Set-up trains the models, binds the server and runs a discarded
//! closed-loop warm-up. The measured run is an open-loop phase at a fixed
//! offered rate (`p50_ms`, `p99_ms`) followed by closed-loop passes of
//! [`CLOSED_REQS`] requests (`work_s`). The traced run scrapes the server's
//! own `metrics` exposition before and after each phase and replays the
//! open-loop schedule in process through `Service::submit`.

use crate::calib::{Calibrator, Shape, Span};
use crate::client::{closed_loop, nap, open_loop, Conn, PhaseResult, Request, DRAIN, WINDOW};
use crate::stats::{median, ms, quantile, secs, Rng};
use crate::{Config, Outcome};
use pe_core::engine::NullSink;
use pe_core::pipeline::RunOptions;
use pe_serve::protocol::format_classify;
use pe_serve::{ModelKey, ModelRegistry, Server, Service, ServiceConfig, Ticket};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server instances per run. `setup_s` is the median set-up, and
/// `p50_ms`/`p99_ms` the median over instances of each instance's exact
/// open-loop quantiles.
const SETUPS: usize = 9;

/// Share of the measurement budget given to the open loop; the closed loop
/// gets the rest (its median pass needs only a few passes per instance).
const OPEN_SHARE: f64 = 0.6;

/// Requests per closed-loop pass; `work_s` is the median pass time.
pub const CLOSED_REQS: usize = 1 << 13;

/// Host-speed probe threads: the host's two cores, which the server's
/// threads and the client share.
const PROBE_THREADS: usize = 2;

/// How long a probe waits after a closed-loop pass: by then the server's
/// front end has left its spin phase and wakes once a millisecond, and its
/// workers block until work arrives.
const SETTLE: Duration = Duration::from_millis(5);

/// Discarded closed-loop requests at the end of each set-up.
const WARMUP_REQS: usize = 1 << 14;

/// Distinct pre-rendered requests per model key.
const POOL_PER_KEY: usize = 4096;

/// The served model: `pendigits:seq`, a small sequential netlist with ten
/// cycles per request — front end, batching and sequential ticks.
const KEYS: &[&str] = &["pendigits:seq"];

/// Open-loop offered rate, about a sixth of closed-loop saturation.
const RATE: f64 = 15_000.0;

fn key(token: &str) -> ModelKey {
    ModelKey::parse(token).expect("benchmark model keys are valid")
}

/// A running server with its client connections.
struct Stack {
    service: Arc<Service>,
    stop: Arc<AtomicBool>,
    server: Option<JoinHandle<usize>>,
    addr: SocketAddr,
    conns: Vec<Conn>,
    pool: Vec<Request>,
}

impl Stack {
    /// Trains, binds and connects; the discarded warm-up is run by the
    /// caller so its failures are counted.
    fn start(keys: &[ModelKey], seed: u64) -> Stack {
        let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
        registry.warm(keys, 2, &mut NullSink);
        let pool = build_pool(&registry, keys, seed);
        let service = Service::start(Arc::clone(&registry), ServiceConfig::default());
        let server =
            Server::bind("127.0.0.1:0", Arc::clone(&service)).expect("loopback bind succeeds");
        let addr = server.local_addr();
        let stop = server.stop_handle();
        let server = Some(std::thread::spawn(move || server.run()));
        let nconns = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
        let conns = (0..nconns).map(|_| Conn::open(addr).expect("loopback connect")).collect();
        Stack { service, stop, server, addr, conns, pool }
    }

    /// Replaces connections a phase gave up on, so stale replies can never
    /// be matched to later requests.
    fn repair(&mut self, res: &PhaseResult) {
        for &i in &res.broken {
            self.conns[i] = Conn::open(self.addr).expect("loopback reconnect");
        }
    }

    /// Scrapes the server's `metrics` exposition over an idle connection.
    fn scrape(&mut self, out: &mut Outcome) -> Exposition {
        match self.conns[0].request_multi("metrics") {
            Ok(text) => Exposition::parse(&text),
            Err(e) => {
                out.problem(format!("metrics scrape failed: {e}"));
                Exposition::default()
            }
        }
    }

    /// Drains and joins the server.
    fn stop(mut self) {
        self.conns.clear();
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.server.take() {
            let _ = h.join();
        }
        self.service.shutdown();
    }
}

/// Seeded request pool: consecutive rounds cover every key once, each round
/// in a seeded order, with seeded held-out samples.
fn build_pool(registry: &ModelRegistry, keys: &[ModelKey], seed: u64) -> Vec<Request> {
    let mut rng = Rng::new(seed, 31);
    let entries: Vec<_> = keys.iter().map(|&k| registry.get(k)).collect();
    let mut pool = Vec::with_capacity(POOL_PER_KEY * keys.len());
    for _ in 0..POOL_PER_KEY {
        let mut round: Vec<usize> = (0..keys.len()).collect();
        rng.shuffle(&mut round);
        for k in round {
            let e = &entries[k];
            let (x, _) = e.prepared.test.sample(rng.below(e.prepared.test.len()));
            let want = e.predict_int(&e.quantize_input(x));
            let mut line = format_classify(keys[k], x).into_bytes();
            line.push(b'\n');
            pool.push(Request {
                key: k,
                x: x.to_vec(),
                line,
                want,
                ok: format!("ok {want}").into_bytes(),
            });
        }
    }
    pool
}

/// Accounts one phase's operations into the outcome and repairs the stack.
fn account(stack: &mut Stack, res: &PhaseResult, phase: &str, out: &mut Outcome) {
    out.attempted += res.sent;
    out.failed += res.failed;
    if res.failed > 0 {
        out.problem(format!("{phase}: {} of {} requests failed", res.failed, res.sent));
    }
    stack.repair(res);
}

/// Open-loop requests in a phase of `secs` seconds at [`RATE`].
fn open_count(secs: f64) -> usize {
    ((RATE * secs) as usize).max(1)
}

/// What the timed phases measured, over every server instance.
#[derive(Debug, Default)]
struct Measured {
    /// Each instance's exact open-loop p50 and p99.
    p50s: Vec<f64>,
    p99s: Vec<f64>,
    /// Every open-loop latency, and how late each send left.
    latency_ms: Vec<f64>,
    late_ms: Vec<f64>,
    /// Closed-loop passes.
    passes: Vec<Span>,
    /// Client connections per instance.
    conns: usize,
    closed_wall: Duration,
    /// Exposition deltas summed per phase (traced runs only).
    open: Exposition,
    closed: Exposition,
}

/// The timed phases on one server instance: an open loop of `open_s`
/// seconds, then closed-loop passes for `closed_s` seconds, each followed
/// (untraced) by a host-speed probe while the server idles. Traced runs
/// scrape the exposition around each phase; nothing runs inside one.
fn measure(
    stack: &mut Stack,
    cfg: &Config,
    calib: &mut Calibrator,
    open_s: f64,
    closed_s: f64,
    m: &mut Measured,
    out: &mut Outcome,
) {
    let scrape = |stack: &mut Stack, out: &mut Outcome| cfg.trace.then(|| stack.scrape(out));
    let s0 = scrape(stack, out);
    let open = open_loop(&mut stack.conns, &stack.pool, RATE, open_count(open_s), 0);
    account(stack, &open, "open loop", out);
    let s1 = scrape(stack, out);
    let t0 = Instant::now();
    let mut n = 0;
    while n == 0 || secs(t0.elapsed()) < closed_s {
        let start = Instant::now();
        let res = closed_loop(&mut stack.conns, &stack.pool, CLOSED_REQS, n * CLOSED_REQS);
        account(stack, &res, "closed loop", out);
        // Traced runs skip the probes: the pauses would add idle scans to
        // the front end's poll counters.
        if !cfg.trace {
            std::thread::sleep(SETTLE);
            calib.probe();
        }
        m.passes.push(Span { start, took: res.wall });
        m.closed_wall += res.wall;
        n += 1;
    }
    let s2 = scrape(stack, out);
    if let (Some(a), Some(b), Some(c)) = (s0, s1, s2) {
        m.open.add(&b.minus(&a));
        m.closed.add(&c.minus(&b));
    }
    let (p50, p99) = (median(&open.latency_ms), quantile(&open.latency_ms, 0.99));
    let passes: Vec<f64> = m.passes[m.passes.len() - n..].iter().map(|p| secs(p.took)).collect();
    println!(
        "instance: open loop p50 {p50:.3} ms, p90 {:.3} ms, p99 {p99:.3} ms, max {:.3} ms \
         (n={}, {} beyond p99), lateness p99 {:.3} ms; closed loop {n} passes, fastest {:.4} s",
        quantile(&open.latency_ms, 0.9),
        quantile(&open.latency_ms, 1.0),
        open.latency_ms.len(),
        open.latency_ms.len() / 100,
        quantile(&open.late_ms, 0.99),
        quantile(&passes, 0.0)
    );
    m.p50s.push(p50);
    m.p99s.push(p99);
    m.conns = stack.conns.len();
    m.latency_ms.extend(open.latency_ms);
    m.late_ms.extend(open.late_ms);
}

/// Runs the workload (untraced or traced, per `cfg.trace`). Each of the
/// [`SETUPS`] server instances is set up (timed: `setup_s`), then measured
/// for an equal part of the budget, so one run samples the thread
/// placement of several instances rather than one. Host-speed probes run
/// before and after every set-up, after every closed-loop pass and after
/// the last instance stops; each set-up and pass is scaled by the probes
/// around it.
pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let keys: Vec<ModelKey> = KEYS.iter().map(|t| key(t)).collect();
    let open_s = cfg.seconds * OPEN_SHARE / SETUPS as f64;
    let closed_s = cfg.seconds * (1.0 - OPEN_SHARE) / SETUPS as f64;
    let mut calib = Calibrator::new(PROBE_THREADS, Shape::Core);
    let mut m = Measured::default();
    let mut setups = Vec::new();
    for i in 0..SETUPS {
        calib.probe();
        let t0 = Instant::now();
        let mut stack = Stack::start(&keys, cfg.seed);
        let warm = closed_loop(&mut stack.conns, &stack.pool, WARMUP_REQS, 0);
        setups.push(Span::since(t0));
        account(&mut stack, &warm, "warm-up", &mut out);
        if !cfg.trace {
            std::thread::sleep(SETTLE);
            calib.probe();
        }
        measure(&mut stack, cfg, &mut calib, open_s, closed_s, &mut m, &mut out);
        if cfg.trace && i + 1 == SETUPS {
            let n_replay = open_count(open_s * SETUPS as f64);
            trace_metrics(&mut stack, &keys, &m, n_replay, &mut out);
        }
        stack.stop();
    }
    calib.probe();
    println!(
        "setup: {SETUPS} set-ups (train {} key(s), bind, {WARMUP_REQS} warm-up requests), \
         median {:.4} s; each instance then measured {open_s:.2} s open + {closed_s:.2} s closed",
        keys.len(),
        median(&setups.iter().map(|s| secs(s.took)).collect::<Vec<_>>())
    );

    let (p50, p99) = (median(&m.p50s), median(&m.p99s));
    println!(
        "open loop @ {RATE:.0} req/s: p50 {p50:.3} ms, p99 {p99:.3} ms (median over {SETUPS} \
         instances); over every sample of all instances p50 {:.3} ms, p99 {:.3} ms, max {:.3} ms \
         (n={}, {} beyond p99); client lateness p50 {:.3} ms, p99 {:.3} ms (n={})",
        median(&m.latency_ms),
        quantile(&m.latency_ms, 0.99),
        quantile(&m.latency_ms, 1.0),
        m.latency_ms.len(),
        m.latency_ms.len() / 100,
        median(&m.late_ms),
        quantile(&m.late_ms, 0.99),
        m.late_ms.len()
    );
    let raw: Vec<f64> = m.passes.iter().map(|p| secs(p.took)).collect();
    let pass = median(&raw);
    println!(
        "closed loop ({} conns x {WINDOW} window): {} passes of {CLOSED_REQS}, median {pass:.4} s \
         = {:.0} req/s (fastest {:.4} s, slowest {:.4} s)",
        m.conns,
        raw.len(),
        CLOSED_REQS as f64 / pass,
        quantile(&raw, 0.0),
        quantile(&raw, 1.0)
    );
    if !cfg.trace {
        calib.report();
        let setup_s = median(&setups.iter().map(|&s| calib.scaled_s(s)).collect::<Vec<_>>());
        let work_s = median(&m.passes.iter().map(|&p| calib.scaled_s(p)).collect::<Vec<_>>());
        println!("setup_s {setup_s:.4} s, work_s {work_s:.4} s");
        out.metric("setup_s", setup_s);
        out.metric("work_s", work_s);
        out.metric("p50_ms", p50);
        out.metric("p99_ms", p99);
    }
    out
}

/// Derives the per-layer metrics from the phase deltas and the in-process
/// replay of the open-loop schedule.
fn trace_metrics(
    stack: &mut Stack,
    keys: &[ModelKey],
    m: &Measured,
    n_replay: usize,
    out: &mut Outcome,
) {
    let (open, closed, closed_wall) = (&m.open, &m.closed, m.closed_wall);
    let (tcp_p50, late_p99) = (median(&m.p50s), quantile(&m.late_ms, 0.99));
    let replay = inproc_replay(&stack.service, keys, &stack.pool, RATE, n_replay);
    out.attempted += replay.sent;
    out.failed += replay.failed;
    if replay.failed > 0 {
        out.problem(format!(
            "in-process replay: {} of {} requests failed",
            replay.failed, replay.sent
        ));
    }
    let inproc_p50 = median(&replay.latency_ms);

    let served = closed.sum("pe_served_total");
    let sim_ns = closed.sum("pe_sim_drive_ns_total")
        + closed.sum("pe_sim_eval_ns_total")
        + closed.sum("pe_sim_readout_ns_total");
    let evals = closed.sum("pe_sim_cell_evals_total");
    let capacity: f64 = closed
        .models()
        .iter()
        .map(|m| closed.get("pe_sim_sweeps_total", m) * 64.0 * closed.get("pe_lane_width_words", m))
        .sum();
    let workers = stack.service.config().workers as f64;
    let passes = closed.sum("pe_poll_passes_total");
    let metrics = [
        ("pe-serve.inproc_p50_ms", inproc_p50),
        ("pe-serve.frontend_p50_ms", tcp_p50 - inproc_p50),
        ("pe-serve.reqs_per_batch", served / closed.sum("pe_batches_total").max(1.0)),
        ("pe-serve.lane_fill", closed.sum("pe_sim_lanes_total") / capacity.max(1.0)),
        ("pe-serve.poll_passes_per_req", passes / served.max(1.0)),
        ("pe-serve.poll_idle_frac", closed.sum("pe_poll_idle_total") / passes.max(1.0)),
        ("pe-serve.parked", closed.sum("pe_conn_parked_total") + open.sum("pe_conn_parked_total")),
        ("pe-sim.batch_us", sim_ns / 1e3 / closed.sum("pe_sim_batches_total").max(1.0)),
        ("pe-sim.cell_evals", evals),
        ("pe-sim.ns_per_cell_eval", closed.sum("pe_sim_eval_ns_total") / evals.max(1.0)),
        ("pe-sim.cell_evals_per_req", evals / served.max(1.0)),
        ("pe-sim.busy_frac", sim_ns / (closed_wall.as_secs_f64() * 1e9 * workers)),
        ("client.late_p99_ms", late_p99),
    ];
    for (name, v) in metrics {
        println!("layer {name:<28} {v:.6}");
        out.metric(name, v);
    }
    println!(
        "open phase: {} served in {} batches ({:.1} req/batch), {:.3} idle poll fraction",
        open.sum("pe_served_total"),
        open.sum("pe_batches_total"),
        open.sum("pe_served_total") / open.sum("pe_batches_total").max(1.0),
        open.sum("pe_poll_idle_total") / open.sum("pe_poll_passes_total").max(1.0)
    );
    println!(
        "trace: the only tracing work is one metrics scrape between phases; nothing runs \
         inside a timed phase, so phase figures equal untraced ones up to run-to-run noise"
    );
}

/// The open-loop schedule replayed in process through `Service::submit`
/// (no TCP): request `i` due at `t0 + i / rate`, timed from its due time.
fn inproc_replay(
    service: &Service,
    keys: &[ModelKey],
    pool: &[Request],
    rate: f64,
    n: usize,
) -> PhaseResult {
    let mut res = PhaseResult::default();
    let gap = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| t0 + gap.mul_f64(i as f64);
    let give_up = due(n) + DRAIN;
    let mut pending: Vec<(Ticket, usize, Instant)> = Vec::new();
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < n && due(next) <= now {
            let idx = next % pool.len();
            let r = &pool[idx];
            res.late_ms.push(ms(now - due(next)));
            res.sent += 1;
            match service.submit(keys[r.key], &r.x) {
                Ok(t) => pending.push((t, idx, due(next))),
                Err(_) => res.failed += 1,
            }
            next += 1;
        }
        let now = Instant::now();
        pending.retain(|(t, idx, intended)| match t.try_wait() {
            None => true,
            Some(Ok(class)) if class == pool[*idx].want => {
                res.latency_ms.push(ms(now - *intended));
                false
            }
            Some(_) => {
                res.failed += 1;
                false
            }
        });
        if next == n && pending.is_empty() {
            break;
        }
        if now > give_up {
            res.failed += pending.len() as u64;
            break;
        }
        nap((next < n).then(|| due(next)));
    }
    res.wall = t0.elapsed();
    res
}

/// A parsed `metrics` exposition: `(series, model label)` → value, with
/// quantile series dropped (only counters and levels are differenced).
#[derive(Debug, Default, Clone)]
struct Exposition(HashMap<(String, String), f64>);

impl Exposition {
    fn parse(text: &str) -> Exposition {
        let mut map = HashMap::new();
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let Some((series, value)) = line.rsplit_once(' ') else { continue };
            let Ok(value) = value.parse::<f64>() else { continue };
            if series.contains("quantile=") {
                continue;
            }
            let (name, model) = match series.split_once('{') {
                Some((name, labels)) => {
                    let model = labels
                        .trim_end_matches('}')
                        .strip_prefix("model=\"")
                        .map_or("", |m| m.trim_end_matches('"'));
                    (name, model)
                }
                None => (series, ""),
            };
            map.insert((name.to_owned(), model.to_owned()), value);
        }
        Exposition(map)
    }

    /// Accumulates another phase's deltas: counters add, levels keep the
    /// latest value.
    fn add(&mut self, other: &Exposition) {
        for (k, &v) in &other.0 {
            let slot = self.0.entry(k.clone()).or_insert(0.0);
            *slot = if k.0.ends_with("_total") { *slot + v } else { v };
        }
    }

    /// Counter deltas `self - earlier`; levels (`pe_lane_width_words`) keep
    /// their later value.
    fn minus(&self, earlier: &Exposition) -> Exposition {
        Exposition(
            self.0
                .iter()
                .map(|(k, &v)| {
                    let d = if k.0.ends_with("_total") {
                        v - earlier.0.get(k).copied().unwrap_or(0.0)
                    } else {
                        v
                    };
                    (k.clone(), d)
                })
                .collect(),
        )
    }

    fn models(&self) -> Vec<String> {
        let mut m: Vec<String> =
            self.0.keys().filter(|(_, m)| !m.is_empty()).map(|(_, m)| m.clone()).collect();
        m.sort();
        m.dedup();
        m
    }

    fn get(&self, name: &str, model: &str) -> f64 {
        self.0.get(&(name.to_owned(), model.to_owned())).copied().unwrap_or(0.0)
    }

    /// A series summed over every model label (or the unlabeled value).
    fn sum(&self, name: &str) -> f64 {
        self.0.iter().filter(|((n, _), _)| n == name).map(|(_, v)| v).sum()
    }
}
