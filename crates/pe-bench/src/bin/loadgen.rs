//! `loadgen` — load generator for the `pe-serve` classification service.
//!
//! Three drive modes:
//!
//! * **Ratio** (`--ratio`, part of the default run): closed-loop saturation
//!   throughput of the lane-coalescing service (up to `64 * W` requests per
//!   sweep; `--width` sets the slab width cap) versus a
//!   one-request-per-`run_batch` service (`batch_max = 1`, one 64-lane
//!   sweep per request) — the measured
//!   payoff of batch coalescing. `--expect-ratio R` turns the measurement
//!   into a gate (exit 1 below `R`), and the measured figures land in
//!   `BENCH_serve.json` at the workspace root. The main saturation run
//!   prints one line per `--sample-ms` interval — windowed throughput plus
//!   the queue-wait / service-time quantiles of just that interval
//!   (`HistSnapshot::delta_since`) — and the run is repeated with the
//!   observability layer disabled (`trace_capacity 0`, no `SimProfile`) to
//!   measure the instrumentation cost, recorded as `obs_overhead_pct`.
//! * **Sweep** (`--sweep`, part of the default run): open-loop arrival
//!   rates, reporting served throughput, batch fill and p50/p99 latency
//!   per rate — how the work-conserving batcher trades fill for latency
//!   as load grows.
//! * **TCP** (`--tcp ADDR`): hammers a running `pe-serve` binary over the
//!   wire protocol with `--conns` concurrent connections, checks every
//!   reply, **scrapes the `metrics` exposition mid-run** (failing unless
//!   the per-model series — and the front end's `pe_conn_*` connection
//!   gauges — are present and non-zero), then reads `stats` and **fails if
//!   the server saw any verify mismatches**. `--shutdown` asks the server
//!   to drain and exit at the end (the CI smoke flow).
//! * **Open-loop TCP** (`--tcp ADDR --open`): one nonblocking client
//!   event loop multiplexing `--conns` concurrent connections (thousands —
//!   the 10k-connection acceptance run), pipelining every request up front
//!   so arrivals never wait on replies. Per-request latency is measured
//!   from last-byte-written to reply-line-read, the p50/p99 land in
//!   `BENCH_serve.json` (`open_*` fields), and **any** protocol error —
//!   a non-`ok` reply, an early server EOF, an unsolicited reply — fails
//!   the run.
//!
//! In-process modes serve real held-out test samples; TCP mode generates
//! uniform `[0,1)` feature vectors (integer-vs-gate equivalence holds for
//! every input, so random traffic is as strong a check as real traffic).

use pe_core::engine::{NullSink, ProgressSink, StderrProgress};
use pe_core::pipeline::RunOptions;
use pe_serve::{
    MetricsSnapshot, ModelKey, ModelMetricsSnapshot, ModelRegistry, ServeMode, Service,
    ServiceConfig,
};
use pe_sim::LaneWidth;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Args {
    key: ModelKey,
    mode: ServeMode,
    requests: usize,
    batch_max: usize,
    width: Option<LaneWidth>,
    ratio: bool,
    sweep: bool,
    expect_ratio: Option<f64>,
    tcp: Option<String>,
    conns: usize,
    open: bool,
    shutdown: bool,
    sample_ms: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        // The paper's own design style on the biggest dataset: the most
        // server-shaped cell of the grid (10 classes -> 10 cycles/request).
        key: ModelKey::parse("pendigits:seq").expect("default key parses"),
        mode: ServeMode::Verify,
        requests: 20_000,
        // One full 8-word slab per run_batch call (a single 512-lane sweep
        // at the default auto width): amortizes simulator construction past
        // the single-chunk floor without splitting the batch.
        batch_max: 512,
        width: None,
        ratio: false,
        sweep: false,
        expect_ratio: None,
        tcp: None,
        conns: 16,
        open: false,
        shutdown: false,
        sample_ms: 500,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--key" => args.key = ModelKey::parse(&value("--key")?)?,
            "--mode" => args.mode = ServeMode::parse(&value("--mode")?)?,
            "--requests" => {
                args.requests = value("--requests")?.parse().map_err(|_| "bad --requests")?;
            }
            "--batch-max" => {
                args.batch_max = value("--batch-max")?.parse().map_err(|_| "bad --batch-max")?;
            }
            "--width" => {
                let spec = value("--width")?;
                args.width = Some(
                    LaneWidth::parse(&spec)
                        .ok_or(format!("bad --width {spec:?} (expected 1|2|4|8 words)"))?,
                );
            }
            "--ratio" => args.ratio = true,
            "--sweep" => args.sweep = true,
            "--expect-ratio" => {
                args.expect_ratio =
                    Some(value("--expect-ratio")?.parse().map_err(|_| "bad --expect-ratio")?);
            }
            "--tcp" => args.tcp = Some(value("--tcp")?),
            "--conns" => args.conns = value("--conns")?.parse().map_err(|_| "bad --conns")?,
            "--open" => args.open = true,
            "--shutdown" => args.shutdown = true,
            "--sample-ms" => {
                args.sample_ms = value("--sample-ms")?.parse().map_err(|_| "bad --sample-ms")?;
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if !args.ratio && !args.sweep && args.tcp.is_none() {
        args.ratio = true;
        args.sweep = true;
    }
    args.requests = args.requests.max(1);
    args.conns = args.conns.max(1);
    Ok(args)
}

/// Held-out test samples for `key`, cycled to `n` vectors.
fn test_vectors(registry: &ModelRegistry, key: ModelKey, n: usize) -> Vec<Vec<f64>> {
    registry.get(key).sample_requests(n)
}

/// Closed-loop saturation: `injectors` threads bulk-submit their whole
/// slice (backpressure paces them against the bounded queue), then wait
/// for every reply. With `sample`, a sampler thread prints one line per
/// interval: windowed throughput plus the queue-wait / service-time
/// quantiles of **just that interval** — per-model shard snapshots
/// subtracted with [`pe_obs::HistSnapshot::delta_since`]. Returns the rate,
/// the aggregate snapshot and `key`'s own shard snapshot.
fn saturation_rps(
    registry: &Arc<ModelRegistry>,
    key: ModelKey,
    cfg: ServiceConfig,
    xs: &[Vec<f64>],
    injectors: usize,
    sample: Option<Duration>,
) -> (f64, MetricsSnapshot, ModelMetricsSnapshot) {
    let service = Service::start(Arc::clone(registry), cfg);
    let batch_max = service.config().batch_max;
    let done = AtomicBool::new(false);
    let t0 = Instant::now();
    let mut dt = 0.0;
    std::thread::scope(|scope| {
        if let Some(every) = sample {
            let service = &service;
            let done = &done;
            scope.spawn(move || {
                let us = |d: Duration| d.as_secs_f64() * 1e6;
                let shard = service.metrics_store().shard(key);
                let mut prev = shard.snapshot(batch_max);
                let mut prev_t = Instant::now();
                loop {
                    std::thread::sleep(every);
                    let cur = shard.snapshot(batch_max);
                    let stop = done.load(Ordering::Acquire);
                    let served = cur.served - prev.served;
                    if served > 0 {
                        let queue = cur.queue_wait.delta_since(&prev.queue_wait);
                        let svc = cur.service_time.delta_since(&prev.service_time);
                        println!(
                            "    t+{:<5.1}s {:>8.0} req/s  queue p50/p99 {:>7.1}/{:>9.1} µs  \
                             service p50/p99 {:>7.1}/{:>9.1} µs",
                            t0.elapsed().as_secs_f64(),
                            served as f64 / prev_t.elapsed().as_secs_f64(),
                            us(queue.quantile(0.5)),
                            us(queue.quantile(0.99)),
                            us(svc.quantile(0.5)),
                            us(svc.quantile(0.99)),
                        );
                    }
                    if stop {
                        break;
                    }
                    prev = cur;
                    prev_t = Instant::now();
                }
            });
        }
        let handles: Vec<_> = xs
            .chunks(xs.len().div_ceil(injectors))
            .map(|chunk| {
                let service = &service;
                scope.spawn(move || {
                    for t in service.submit_many(key, chunk) {
                        t.and_then(pe_serve::Ticket::wait).expect("saturation request failed");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("injector panicked");
        }
        // Stop the clock before the sampler's final interval drains, so the
        // reported rate covers exactly the injection window.
        dt = t0.elapsed().as_secs_f64();
        done.store(true, Ordering::Release);
    });
    let m = service.metrics();
    let shard = service.metrics_store().shard(key).snapshot(batch_max);
    service.shutdown();
    (xs.len() as f64 / dt, m, shard)
}

/// The batching payoff: coalesced wide-lane serving vs one-request-per-
/// `run_batch` serving, both at saturation. Records the figures in
/// `BENCH_serve.json` at the workspace root.
fn run_ratio(registry: &Arc<ModelRegistry>, args: &Args) -> f64 {
    let base = ServiceConfig {
        mode: args.mode,
        batch_max: args.batch_max,
        lane_width: args.width,
        ..ServiceConfig::default()
    };
    let injectors = 8;
    let xs_batched = test_vectors(registry, args.key, args.requests);
    // The unbatched service is ~batch_max× slower; a smaller sample keeps
    // wall clock sane without changing the per-request cost being measured.
    let xs_single = test_vectors(registry, args.key, (args.requests / 16).max(512));

    let sample =
        if args.sample_ms > 0 { Some(Duration::from_millis(args.sample_ms)) } else { None };
    println!(
        "== batching payoff ({} @ {:?} mode, batch_max {}, saturation) ==",
        args.key.token(),
        args.mode,
        args.batch_max
    );
    // A short discarded pass first: first-touch allocation and frequency
    // ramp-up deflate whichever run goes first by 2x or more, which would
    // otherwise be charged to the headline figure.
    let _ = saturation_rps(registry, args.key, base.clone(), &xs_single, injectors, None);
    let (rps_b, m_b, shard_b) =
        saturation_rps(registry, args.key, base.clone(), &xs_batched, injectors, sample);
    let (rps_s, m_s, _) = saturation_rps(
        registry,
        args.key,
        ServiceConfig { batch_max: 1, ..base.clone() },
        &xs_single,
        injectors,
        None,
    );
    println!(
        "  coalesced:            {rps_b:>10.0} req/s  fill {:>5.1}%  p99 {:>8.1} µs  mismatches {}",
        m_b.batch_fill * 100.0,
        m_b.p99.as_secs_f64() * 1e6,
        m_b.verify_mismatches
    );
    println!(
        "  one-per-run_batch:    {rps_s:>10.0} req/s  fill {:>5.1}%  p99 {:>8.1} µs  mismatches {}",
        m_s.batch_fill * 100.0,
        m_s.p99.as_secs_f64() * 1e6,
        m_s.verify_mismatches
    );
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    println!(
        "  decomposition:        queue p50/p99 {:.1}/{:.1} µs, service p50/p99 {:.1}/{:.1} µs \
         (coalesced)",
        us(m_b.queue_p50),
        us(m_b.queue_p99),
        us(m_b.service_p50),
        us(m_b.service_p99)
    );
    let ratio = rps_b / rps_s;
    // The width gauge holds only the last (often ragged) batch's slab;
    // the capacity-weighted mean covers every sweep of the run.
    let lane_words = shard_b.mean_lane_words();
    println!(
        "  batching speedup: {ratio:.1}x  (lane_width {lane_words:.2} words, lane_fill {:.1}%, \
         {} sweeps)",
        m_b.lane_fill * 100.0,
        m_b.sweeps
    );
    assert_eq!(m_b.verify_mismatches + m_s.verify_mismatches, 0, "verify must never fire");

    // Instrumentation cost: the same saturation workload with the
    // observability layer fully on (the default) vs fully off (no trace
    // ring, no SimProfile clocks). Best-of-two interleaved trials push
    // scheduler noise below the effect being measured.
    let bare_cfg = ServiceConfig { trace_capacity: 0, sim_profile: false, ..base.clone() };
    let mut rps_obs = 0.0f64;
    let mut rps_bare = 0.0f64;
    for _ in 0..2 {
        rps_obs = rps_obs
            .max(saturation_rps(registry, args.key, base.clone(), &xs_batched, injectors, None).0);
        rps_bare = rps_bare.max(
            saturation_rps(registry, args.key, bare_cfg.clone(), &xs_batched, injectors, None).0,
        );
    }
    let obs_overhead_pct = (1.0 - rps_obs / rps_bare) * 100.0;
    println!(
        "  instrumentation cost: {rps_obs:.0} req/s instrumented vs {rps_bare:.0} req/s bare \
         ({obs_overhead_pct:+.2}% throughput)"
    );

    // Machine-readable record for the acceptance gates and the README.
    record_bench(&[
        (
            "workload",
            format!(
                "\"{} @ {:?} mode, {} requests, batch_max {}, saturation\"",
                args.key.token(),
                args.mode,
                args.requests,
                args.batch_max
            ),
        ),
        ("coalesced_rps", format!("{rps_b:.0}")),
        ("single_rps", format!("{rps_s:.0}")),
        ("batching_speedup", format!("{ratio:.2}")),
        ("coalesced_p99_us", format!("{:.1}", m_b.p99.as_secs_f64() * 1e6)),
        ("single_p99_us", format!("{:.1}", m_s.p99.as_secs_f64() * 1e6)),
        ("coalesced_queue_p50_us", format!("{:.1}", us(m_b.queue_p50))),
        ("coalesced_queue_p99_us", format!("{:.1}", us(m_b.queue_p99))),
        ("coalesced_service_p50_us", format!("{:.1}", us(m_b.service_p50))),
        ("coalesced_service_p99_us", format!("{:.1}", us(m_b.service_p99))),
        ("batch_fill", format!("{:.3}", m_b.batch_fill)),
        ("lane_width_words", format!("{lane_words:.2}")),
        ("lane_fill", format!("{:.3}", m_b.lane_fill)),
        ("sweeps", format!("{}", m_b.sweeps)),
        ("instrumented_rps", format!("{rps_obs:.0}")),
        ("bare_rps", format!("{rps_bare:.0}")),
        ("obs_overhead_pct", format!("{obs_overhead_pct:.2}")),
    ]);
    ratio
}

/// Merges `fields` into `BENCH_serve.json` at the workspace root, keeping
/// any flat keys other runs wrote (the ratio run and the open-loop run
/// update disjoint key sets of the same record). Values are raw JSON
/// fragments (numbers, or pre-quoted strings).
fn record_bench(fields: &[(&str, String)]) {
    // Anchor to the workspace root: cargo runs bin targets with varying cwd.
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_serve.json");
    let mut entries: Vec<(String, String)> = Vec::new();
    if let Ok(text) = std::fs::read_to_string(path) {
        for line in text.lines() {
            let t = line.trim().trim_end_matches(',');
            if let Some((k, v)) = t.split_once(':') {
                let k = k.trim().trim_matches('"');
                if !k.is_empty() && !v.trim().is_empty() {
                    entries.push((k.to_owned(), v.trim().to_owned()));
                }
            }
        }
    }
    for (k, v) in fields {
        match entries.iter_mut().find(|(ek, _)| ek == k) {
            Some(e) => e.1.clone_from(v),
            None => entries.push(((*k).to_owned(), v.clone())),
        }
    }
    let mut json = String::from("{\n");
    for (i, (k, v)) in entries.iter().enumerate() {
        let sep = if i + 1 < entries.len() { "," } else { "" };
        json.push_str(&format!("  \"{k}\": {v}{sep}\n"));
    }
    json.push_str("}\n");
    if let Err(e) = std::fs::write(path, &json) {
        eprintln!("loadgen: cannot write BENCH_serve.json: {e}");
    } else {
        println!("  wrote BENCH_serve.json");
    }
}

/// Open-loop arrival sweep: one fresh service per rate.
fn run_sweep(registry: &Arc<ModelRegistry>, args: &Args) {
    let rates = [2_000u64, 10_000, 50_000];
    println!("== open-loop sweep ({} @ {:?} mode) ==", args.key.token(), args.mode);
    println!(
        "  {:>9}  {:>8}  {:>8}  {:>6}  {:>9}  {:>9}",
        "rate r/s", "served", "dropped", "fill%", "p50 µs", "p99 µs"
    );
    for &rate in &rates {
        let n = ((rate as f64 * 0.25) as usize).clamp(200, 8_000);
        let xs = test_vectors(registry, args.key, n);
        let service = Service::start(
            Arc::clone(registry),
            ServiceConfig { mode: args.mode, ..ServiceConfig::default() },
        );
        let interval = Duration::from_secs_f64(1.0 / rate as f64);
        let mut tickets = Vec::with_capacity(n);
        let mut dropped = 0usize;
        let start = Instant::now();
        for (i, x) in xs.iter().enumerate() {
            let due = start + interval * i as u32;
            while Instant::now() < due {
                std::hint::spin_loop();
            }
            // Open loop: never block the arrival process on the queue.
            match service.try_submit(args.key, x) {
                Ok(t) => tickets.push(t),
                Err(_) => dropped += 1,
            }
        }
        for t in tickets {
            let _ = t.wait();
        }
        let m = service.metrics();
        println!(
            "  {:>9}  {:>8}  {:>8}  {:>6.1}  {:>9.1}  {:>9.1}",
            rate,
            m.served,
            dropped,
            m.batch_fill * 100.0,
            m.p50.as_secs_f64() * 1e6,
            m.p99.as_secs_f64() * 1e6
        );
        service.shutdown();
    }
}

/// What a mid-run `metrics` scrape saw (the front-end gauges feed the
/// open-loop acceptance record).
struct Scrape {
    conn_open: f64,
    conn_open_peak: f64,
}

/// Scrapes the `metrics` exposition from a running server (reading to the
/// `# EOF` sentinel) and fails unless the per-model series for `key` — and
/// the non-blocking front end's `pe_conn_*`/`pe_poll_*` gauges — are
/// present and non-zero: the CI smoke assertion that the observability
/// plumbing is actually live, not just parseable.
fn scrape_metrics(addr: &str, key: ModelKey) -> Result<Scrape, String> {
    // Let the classify connections land some traffic first, so the scrape
    // reads a genuinely mid-run exposition rather than a cold server.
    std::thread::sleep(Duration::from_millis(200));
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = stream;
    writeln!(writer, "metrics").map_err(|e| format!("send: {e}"))?;
    let mut text = String::new();
    loop {
        let mut line = String::new();
        let n = reader.read_line(&mut line).map_err(|e| format!("recv: {e}"))?;
        if n == 0 {
            return Err(format!("metrics reply ended before # EOF:\n{text}"));
        }
        let done = line.trim_end() == "# EOF";
        text.push_str(&line);
        if done {
            break;
        }
    }
    let model = key.token();
    let series_value = |name: &str| -> Option<f64> {
        let prefix = format!("{name}{{model=\"{model}\"}} ");
        text.lines().find_map(|l| l.strip_prefix(&prefix)).and_then(|v| v.parse().ok())
    };
    for name in ["pe_submitted_total", "pe_served_total", "pe_latency_us_count"] {
        let v = series_value(name)
            .ok_or_else(|| format!("metrics exposition missing {name} for {model}"))?;
        if v <= 0.0 {
            return Err(format!("mid-run {name}{{model=\"{model}\"}} is {v}, expected non-zero"));
        }
    }
    // Unlabeled front-end series: at minimum this scrape's own connection
    // is open, and the event loop has made passes.
    let plain = |name: &str| -> Option<f64> {
        let prefix = format!("{name} ");
        text.lines().find_map(|l| l.strip_prefix(&prefix)).and_then(|v| v.parse().ok())
    };
    for name in ["pe_conn_open", "pe_conn_accepted_total", "pe_poll_passes_total"] {
        let v = plain(name).ok_or_else(|| format!("metrics exposition missing {name}"))?;
        if v <= 0.0 {
            return Err(format!("mid-run {name} is {v}, expected non-zero"));
        }
    }
    println!(
        "tcp: mid-run metrics scrape ok ({} series; {:.0} served so far, {:.0} conns open, \
         peak {:.0})",
        text.lines().filter(|l| !l.starts_with('#')).count(),
        series_value("pe_served_total").unwrap_or(0.0),
        plain("pe_conn_open").unwrap_or(0.0),
        plain("pe_conn_open_peak").unwrap_or(0.0),
    );
    Ok(Scrape {
        conn_open: plain("pe_conn_open").unwrap_or(0.0),
        conn_open_peak: plain("pe_conn_open_peak").unwrap_or(0.0),
    })
}

/// One connection of the open-loop client: pre-rendered pipelined request
/// bytes, send timestamps per line, and a reply parse buffer.
struct OpenConn {
    stream: TcpStream,
    out: Vec<u8>,
    opos: usize,
    /// End offset in `out` of each not-yet-fully-written request line.
    line_ends: std::collections::VecDeque<usize>,
    /// Flush timestamp of each written-but-unanswered request.
    sent_at: std::collections::VecDeque<Instant>,
    rbuf: Vec<u8>,
    replies_due: usize,
    eof: bool,
}

/// Open-loop TCP mode: one nonblocking event loop multiplexing
/// `args.conns` concurrent connections (the high-connection acceptance
/// run). Every request is pipelined up front — arrivals never wait on
/// replies — and per-request latency runs from last-byte-flushed to
/// reply-line-parsed. Any protocol error fails the run; the mid-run scrape
/// must see the front end's connection gauges at the expected level.
fn run_open_tcp(addr: &str, args: &Args) -> Result<(), String> {
    use std::io::{ErrorKind, Read};
    let n_features = args.key.profile.spec().n_features;
    let mut rng = StdRng::seed_from_u64(0x0bea10ad);
    let per_conn = (args.requests / args.conns).max(1);
    let total = per_conn * args.conns;
    println!(
        "tcp open-loop: {} connections x {per_conn} pipelined request(s) = {total} total",
        args.conns
    );
    let t_ramp = Instant::now();
    let mut conns: Vec<OpenConn> = Vec::with_capacity(args.conns);
    for c in 0..args.conns {
        let mut attempt = 0;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(s) => break s,
                Err(e) => {
                    // Transient refusals happen when the listener backlog
                    // overflows during the ramp; retry with a pause.
                    attempt += 1;
                    if attempt > 50 {
                        return Err(format!("connect {c}/{}: {e}", args.conns));
                    }
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
        };
        stream.set_nonblocking(true).map_err(|e| format!("nonblocking: {e}"))?;
        let _ = stream.set_nodelay(true);
        let mut out = Vec::new();
        let mut line_ends = std::collections::VecDeque::new();
        for _ in 0..per_conn {
            let x: Vec<f64> = (0..n_features).map(|_| rng.gen::<f64>()).collect();
            out.extend_from_slice(pe_serve::protocol::format_classify(args.key, &x).as_bytes());
            out.push(b'\n');
            line_ends.push_back(out.len());
        }
        conns.push(OpenConn {
            stream,
            out,
            opos: 0,
            line_ends,
            sent_at: std::collections::VecDeque::new(),
            rbuf: Vec::new(),
            replies_due: per_conn,
            eof: false,
        });
    }
    println!("tcp open-loop: ramp complete in {:.2}s", t_ramp.elapsed().as_secs_f64());

    let scrape = std::thread::spawn({
        let addr = addr.to_owned();
        let key = args.key;
        move || scrape_metrics(&addr, key)
    });
    let hist = pe_obs::Histogram::new();
    let mut errors = 0usize;
    let mut replies = 0usize;
    let t0 = Instant::now();
    let deadline = t0 + Duration::from_secs(120 + total as u64 / 1_000);
    let mut idle_pause = Duration::from_micros(50);
    while replies + errors < total {
        if Instant::now() > deadline {
            return Err(format!(
                "open-loop timed out: {replies}/{total} replies after {:.1}s",
                t0.elapsed().as_secs_f64()
            ));
        }
        let mut progressed = false;
        for conn in &mut conns {
            if conn.replies_due == 0 {
                continue;
            }
            while conn.opos < conn.out.len() {
                match conn.stream.write(&conn.out[conn.opos..]) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.opos += n;
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("send: {e}")),
                }
            }
            let now = Instant::now();
            while conn.line_ends.front().is_some_and(|&end| end <= conn.opos) {
                conn.line_ends.pop_front();
                conn.sent_at.push_back(now);
            }
            let mut buf = [0u8; 4096];
            loop {
                match conn.stream.read(&mut buf) {
                    Ok(0) => {
                        conn.eof = true;
                        break;
                    }
                    Ok(n) => {
                        conn.rbuf.extend_from_slice(&buf[..n]);
                        progressed = true;
                    }
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) => return Err(format!("recv: {e}")),
                }
            }
            while let Some(i) = conn.rbuf.iter().position(|&b| b == b'\n') {
                let line: Vec<u8> = conn.rbuf.drain(..=i).collect();
                let Some(sent) = conn.sent_at.pop_front() else {
                    errors += 1; // unsolicited reply
                    continue;
                };
                conn.replies_due -= 1;
                if line.starts_with(b"ok ") {
                    replies += 1;
                    hist.record(sent.elapsed());
                } else {
                    errors += 1;
                }
            }
            if conn.eof && conn.replies_due > 0 {
                return Err(format!(
                    "server EOF with {} replies outstanding on one connection",
                    conn.replies_due
                ));
            }
        }
        if progressed {
            idle_pause = Duration::from_micros(50);
        } else {
            std::thread::sleep(idle_pause);
            idle_pause = (idle_pause * 2).min(Duration::from_millis(2));
        }
    }
    let dt = t0.elapsed().as_secs_f64();
    // Keep every connection open until the delayed scrape has looked at the
    // server's gauges — dropping them first would deflate `pe_conn_open`.
    let scrape = scrape.join().expect("metrics scrape thread panicked")?;
    drop(conns);
    if errors > 0 {
        return Err(format!("{errors} protocol error(s) across {total} open-loop requests"));
    }
    if scrape.conn_open < args.conns as f64 {
        return Err(format!(
            "mid-run pe_conn_open {} below the {} connections this client held open",
            scrape.conn_open, args.conns
        ));
    }
    let snap = hist.snapshot();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    let (p50, p99) = (us(snap.quantile(0.5)), us(snap.quantile(0.99)));
    println!(
        "tcp open-loop: {replies} ok replies over {} conns in {dt:.2}s ({:.0} req/s), \
         latency p50 {p50:.0} µs p99 {p99:.0} µs, 0 protocol errors",
        args.conns,
        replies as f64 / dt
    );
    record_bench(&[
        ("open_conns", format!("{}", args.conns)),
        ("open_requests", format!("{total}")),
        ("open_rps", format!("{:.0}", replies as f64 / dt)),
        ("open_p50_us", format!("{p50:.1}")),
        ("open_p99_us", format!("{p99:.1}")),
        ("open_errors", format!("{errors}")),
        ("open_conn_open_peak", format!("{:.0}", scrape.conn_open_peak)),
    ]);

    // One control connection: stats, then optionally shutdown.
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = stream;
    writeln!(writer, "stats").map_err(|e| format!("send: {e}"))?;
    let mut stats = String::new();
    reader.read_line(&mut stats).map_err(|e| format!("recv: {e}"))?;
    println!("{}", stats.trim_end());
    let mismatches = MetricsSnapshot::field(&stats, "mismatches")
        .ok_or_else(|| format!("stats reply unparsable: {stats:?}"))?;
    if mismatches != 0.0 {
        return Err(format!("server reported {mismatches} verify mismatches"));
    }
    if args.shutdown {
        writeln!(writer, "shutdown").map_err(|e| format!("send: {e}"))?;
        let mut bye = String::new();
        reader.read_line(&mut bye).map_err(|e| format!("recv: {e}"))?;
        if bye.trim_end() != "bye" {
            return Err(format!("unexpected shutdown reply {:?}", bye.trim_end()));
        }
        println!("tcp: server acknowledged shutdown");
    }
    Ok(())
}

/// Drives a running `pe-serve` over TCP; returns an error message on any
/// failed reply, a failed mid-run `metrics` scrape, or server-side verify
/// mismatches.
fn run_tcp(addr: &str, args: &Args) -> Result<(), String> {
    let n_features = args.key.profile.spec().n_features;
    let mut rng = StdRng::seed_from_u64(0x10adf3ed);
    let per_conn = args.requests.div_ceil(args.conns);
    let vectors: Vec<Vec<f64>> = (0..args.conns * per_conn)
        .map(|_| (0..n_features).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let t0 = Instant::now();
    let results: Vec<Result<usize, String>> = std::thread::scope(|scope| {
        // While the connection threads hammer the server, one extra thread
        // scrapes the `metrics` exposition mid-run.
        let scrape = scope.spawn(|| scrape_metrics(addr, args.key));
        let handles: Vec<_> = vectors
            .chunks(per_conn)
            .map(|chunk| {
                scope.spawn(move || -> Result<usize, String> {
                    let stream =
                        TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
                    // Like the open-loop client: no Nagle, and each request
                    // leaves in one write, so the measured round trip is
                    // the server's, not a delayed ACK's.
                    let _ = stream.set_nodelay(true);
                    let mut reader = BufReader::new(
                        stream.try_clone().map_err(|e| format!("clone stream: {e}"))?,
                    );
                    let mut writer = stream;
                    let mut reply = String::new();
                    for x in chunk {
                        let mut line = pe_serve::protocol::format_classify(args.key, x);
                        line.push('\n');
                        writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
                        reply.clear();
                        reader.read_line(&mut reply).map_err(|e| format!("recv: {e}"))?;
                        if !reply.starts_with("ok ") {
                            return Err(format!("unexpected reply {:?}", reply.trim_end()));
                        }
                    }
                    Ok(chunk.len())
                })
            })
            .collect();
        let mut results: Vec<Result<usize, String>> =
            handles.into_iter().map(|h| h.join().expect("connection thread panicked")).collect();
        results.push(scrape.join().expect("metrics scrape thread panicked").map(|_| 0));
        results
    });
    let dt = t0.elapsed().as_secs_f64();
    let mut total = 0usize;
    for r in results {
        total += r?;
    }

    // One control connection: stats, then optionally shutdown.
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    let mut writer = stream;
    writeln!(writer, "stats").map_err(|e| format!("send: {e}"))?;
    let mut stats = String::new();
    reader.read_line(&mut stats).map_err(|e| format!("recv: {e}"))?;
    println!("{}", stats.trim_end());
    println!(
        "tcp: {total} requests over {} connection(s) in {dt:.2}s ({:.0} req/s)",
        args.conns,
        total as f64 / dt
    );
    let mismatches = MetricsSnapshot::field(&stats, "mismatches")
        .ok_or_else(|| format!("stats reply unparsable: {stats:?}"))?;
    if mismatches != 0.0 {
        return Err(format!("server reported {mismatches} verify mismatches"));
    }
    if args.shutdown {
        writeln!(writer, "shutdown").map_err(|e| format!("send: {e}"))?;
        let mut bye = String::new();
        reader.read_line(&mut bye).map_err(|e| format!("recv: {e}"))?;
        if bye.trim_end() != "bye" {
            return Err(format!("unexpected shutdown reply {:?}", bye.trim_end()));
        }
        println!("tcp: server acknowledged shutdown");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            return ExitCode::from(2);
        }
    };
    if let Some(addr) = &args.tcp {
        let res = if args.open { run_open_tcp(addr, &args) } else { run_tcp(addr, &args) };
        return match res {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("loadgen: {msg}");
                ExitCode::FAILURE
            }
        };
    }
    let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
    StderrProgress.note(&format!("warming {}...", args.key.token()));
    registry.warm(&[args.key], 1, &mut NullSink);
    let mut ok = true;
    if args.ratio {
        let ratio = run_ratio(&registry, &args);
        if let Some(floor) = args.expect_ratio {
            if ratio < floor {
                eprintln!("loadgen: batching speedup {ratio:.1}x is below the {floor:.0}x floor");
                ok = false;
            }
        }
    }
    if args.sweep {
        run_sweep(&registry, &args);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
