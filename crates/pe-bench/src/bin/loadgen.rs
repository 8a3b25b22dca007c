//! `loadgen` — TCP load generator and smoke checker for a running
//! `pe-serve`.
//!
//! ```text
//! loadgen --tcp HOST:PORT [--key profile:style] [--requests N] [--conns N]
//!         [--open] [--shutdown]
//! ```
//!
//! Two drive modes:
//!
//! * **Closed loop** (`--tcp ADDR`): `--conns` concurrent connections,
//!   each sending one request and waiting for its reply. Every reply is
//!   checked, the `metrics` exposition is **scraped mid-run** (failing
//!   unless the per-model series — and the front end's `pe_conn_*`
//!   connection gauges — are present and non-zero), then `stats` is read
//!   and the run **fails if the server saw any verify mismatches**.
//! * **Open loop** (`--tcp ADDR --open`): one nonblocking client event
//!   loop multiplexing `--conns` concurrent connections (thousands),
//!   pipelining every request up front so arrivals never wait on replies.
//!   **Any** protocol error — a non-`ok` reply, an early server EOF, an
//!   unsolicited reply — fails the run, and so does a mid-run
//!   `pe_conn_open` below the connections the client holds open.
//!
//! `--shutdown` asks the server to drain and exit at the end (the CI smoke
//! flow). Requests are uniform `[0,1)` feature vectors: integer-vs-gate
//! equivalence holds for every input, so random traffic is as strong a
//! check as real traffic. The printed rates and latencies come from one
//! run and are informational; `perfbench`'s `serve_seq` workload is the
//! serving benchmark.

use pe_serve::{MetricsSnapshot, ModelKey};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::time::{Duration, Instant};

struct Args {
    key: ModelKey,
    requests: usize,
    tcp: String,
    conns: usize,
    open: bool,
    shutdown: bool,
}

fn parse_args() -> Result<Args, String> {
    // The paper's own design style on the biggest dataset: the most
    // server-shaped cell of the grid (10 classes -> 10 cycles/request).
    let mut key = ModelKey::parse("pendigits:seq").expect("default key parses");
    let mut requests = 20_000usize;
    let mut tcp = None;
    let mut conns = 16usize;
    let mut open = false;
    let mut shutdown = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--key" => key = ModelKey::parse(&value("--key")?)?,
            "--requests" => {
                requests = value("--requests")?.parse().map_err(|_| "bad --requests")?;
            }
            "--tcp" => tcp = Some(value("--tcp")?),
            "--conns" => conns = value("--conns")?.parse().map_err(|_| "bad --conns")?,
            "--open" => open = true,
            "--shutdown" => shutdown = true,
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let tcp = tcp.ok_or("--tcp HOST:PORT is required (the address of a running pe-serve)")?;
    Ok(Args { key, requests: requests.max(1), tcp, conns: conns.max(1), open, shutdown })
}

/// Scrapes the `metrics` exposition from a running server (reading to the
/// `# EOF` sentinel) and fails unless the per-model series for `key` — and
/// the non-blocking front end's `pe_conn_*`/`pe_poll_*` gauges — are
/// present and non-zero: the CI smoke assertion that the observability
/// plumbing is actually live, not just parseable. Returns the mid-run
/// `pe_conn_open` level.
fn scrape_metrics(addr: &str, key: ModelKey) -> Result<f64, String> {
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
    let conn_open = plain("pe_conn_open").unwrap_or(0.0);
    println!(
        "tcp: mid-run metrics scrape ok ({} series; {:.0} served so far, {conn_open:.0} conns \
         open, peak {:.0})",
        text.lines().filter(|l| !l.starts_with('#')).count(),
        series_value("pe_served_total").unwrap_or(0.0),
        plain("pe_conn_open_peak").unwrap_or(0.0),
    );
    Ok(conn_open)
}

/// One control connection at the end of a run: reads `stats`, fails on any
/// server-side verify mismatch, then optionally asks the server to shut
/// down and checks its `bye`.
fn check_stats(addr: &str, shutdown: bool) -> Result<(), String> {
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
    if shutdown {
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
fn run_open_tcp(args: &Args) -> Result<(), String> {
    use std::io::{ErrorKind, Read};
    let addr = args.tcp.as_str();
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
    let conn_open = scrape.join().expect("metrics scrape thread panicked")?;
    drop(conns);
    if errors > 0 {
        return Err(format!("{errors} protocol error(s) across {total} open-loop requests"));
    }
    if conn_open < args.conns as f64 {
        return Err(format!(
            "mid-run pe_conn_open {conn_open} below the {} connections this client held open",
            args.conns
        ));
    }
    let snap = hist.snapshot();
    let us = |d: Duration| d.as_secs_f64() * 1e6;
    println!(
        "tcp open-loop: {replies} ok replies over {} conns in {dt:.2}s ({:.0} req/s), \
         latency p50 {:.0} µs p99 {:.0} µs, 0 protocol errors",
        args.conns,
        replies as f64 / dt,
        us(snap.quantile(0.5)),
        us(snap.quantile(0.99)),
    );
    check_stats(addr, args.shutdown)
}

/// Closed-loop TCP mode; returns an error message on any failed reply, a
/// failed mid-run `metrics` scrape, or server-side verify mismatches.
fn run_tcp(args: &Args) -> Result<(), String> {
    let addr = args.tcp.as_str();
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
    println!(
        "tcp: {total} requests over {} connection(s) in {dt:.2}s ({:.0} req/s)",
        args.conns,
        total as f64 / dt
    );
    check_stats(addr, args.shutdown)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            return ExitCode::from(2);
        }
    };
    let res = if args.open { run_open_tcp(&args) } else { run_tcp(&args) };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}
