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
//!   checked.
//! * **Open loop** (`--tcp ADDR --open`): one nonblocking client event
//!   loop multiplexing `--conns` concurrent connections (thousands),
//!   pipelining each half of a connection's requests at once so arrivals
//!   never wait on replies.
//!   **Any** protocol error — a non-`ok` reply, an early server EOF, an
//!   unsolicited reply — fails the run.
//!
//! Both modes scrape the `metrics` exposition **mid-run**. Each classify
//! connection sends the first half of its requests, then holds the rest
//! back, open, until the scrape has returned; the scrape starts once every
//! first-half reply is in (reply counts, not a timer). The run fails
//! unless the per-model series and the front end's `pe_conn_*` gauges are
//! present and non-zero, unless `pe_conn_open` counts every classify
//! connection plus the scrape's own, and unless `pe_served_total` is still
//! below the run's request count — the scrape must see work to come, not
//! an idle server. At the end one more exposition is read, and the run
//! **fails on any verify mismatch or rejected request**
//! (`pe_verify_mismatches_total`, `pe_rejected_total`).
//!
//! `--shutdown` asks the server to drain and exit at the end (the CI smoke
//! flow). Requests are uniform `[0,1)` feature vectors: integer-vs-gate
//! equivalence holds for every input, so random traffic is as strong a
//! check as real traffic. The printed rates and latencies come from one
//! run and are informational; `perfbench`'s `serve_seq` workload is the
//! serving benchmark.

use pe_serve::ModelKey;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::{Condvar, Mutex};
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
    let conns = conns.max(1);
    if requests < 2 * conns {
        return Err(format!(
            "--requests {requests} is below 2 x --conns {conns}: every connection needs a \
             second half of requests to hold back until the mid-run scrape has returned"
        ));
    }
    Ok(Args { key, requests, tcp, conns, open, shutdown })
}

/// How many of a connection's `per_conn` requests it sends before the
/// mid-run scrape: the first half, at least one, leaving at least one to
/// hold back when `per_conn >= 2`.
fn first_half(per_conn: usize) -> usize {
    per_conn.div_ceil(2)
}

/// Splits the run around the mid-run scrape: every connection sends the
/// [`first_half`] of its requests, then holds the rest back until the
/// scrape has returned ([`ScrapeGate::close`]). The gate opens once every
/// first-half reply is in, so the scrape reads a server with every classify
/// connection open and the second halves still to come.
struct ScrapeGate {
    conns: usize,
    /// Requests in the whole run.
    total: usize,
    /// Replies that open the gate: the first halves of every connection.
    held: usize,
    state: Mutex<GateState>,
    changed: Condvar,
}

#[derive(Default)]
struct GateState {
    replies: usize,
    /// A connection failed, so the trigger may never hold.
    aborted: bool,
    /// The scrape has returned.
    closed: bool,
}

impl ScrapeGate {
    fn new(conns: usize, per_conn: usize) -> Self {
        ScrapeGate {
            conns,
            total: conns * per_conn,
            held: conns * first_half(per_conn),
            state: Mutex::default(),
            changed: Condvar::new(),
        }
    }

    fn update(&self, f: impl FnOnce(&mut GateState)) {
        f(&mut self.state.lock().expect("scrape gate poisoned"));
        self.changed.notify_all();
    }

    /// Counts one reply.
    fn reply(&self) {
        self.update(|st| st.replies += 1);
    }

    /// A classify connection failed: releases the scrape and the held
    /// connections.
    fn abort(&self) {
        self.update(|st| st.aborted = true);
    }

    /// The scrape has returned: held requests may go.
    fn close(&self) {
        self.update(|st| st.closed = true);
    }

    /// Whether the scrape has returned.
    fn is_closed(&self) -> bool {
        self.state.lock().expect("scrape gate poisoned").closed
    }

    /// Blocks until the scrape may start; false if a connection failed
    /// first.
    fn wait_open(&self) -> bool {
        let st = self.state.lock().expect("scrape gate poisoned");
        let st = self
            .changed
            .wait_while(st, |st| !st.aborted && st.replies < self.held)
            .expect("scrape gate poisoned");
        !st.aborted
    }

    /// Blocks until the scrape has returned.
    fn wait_closed(&self) {
        let st = self.state.lock().expect("scrape gate poisoned");
        drop(self.changed.wait_while(st, |st| !st.closed).expect("scrape gate poisoned"));
    }

    /// Runs the mid-run scrape once the gate opens, then closes it.
    fn scrape(&self, addr: &str, key: ModelKey) -> Result<f64, String> {
        let res = if self.wait_open() {
            scrape_metrics(addr, key, self.conns, self.total)
        } else {
            Err("a classify connection failed before the mid-run scrape".to_owned())
        };
        self.close();
        res
    }
}

/// Connects a line client: the write half and a buffered read half.
fn connect(addr: &str) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    let reader = BufReader::new(stream.try_clone().map_err(|e| format!("clone: {e}"))?);
    Ok((stream, reader))
}

/// Sends `metrics` and reads the exposition up to its `# EOF` sentinel.
fn read_exposition(
    writer: &mut TcpStream,
    reader: &mut BufReader<TcpStream>,
) -> Result<String, String> {
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
            return Ok(text);
        }
    }
}

/// The value of one exposition series: `name{labels}` as given, e.g.
/// `pe_served_total{model="cardio:seq"}`, or an unlabeled `name`.
fn series(text: &str, name: &str) -> Option<f64> {
    let prefix = format!("{name} ");
    text.lines().find_map(|l| l.strip_prefix(&prefix)).and_then(|v| v.parse().ok())
}

/// The sum of a per-model series over every model in the exposition;
/// `None` when no model carries it.
fn series_sum(text: &str, name: &str) -> Option<f64> {
    let values: Vec<f64> = text
        .lines()
        .filter_map(|l| l.strip_prefix(name).filter(|rest| rest.starts_with('{')))
        .filter_map(|rest| rest.rsplit(' ').next()?.parse().ok())
        .collect();
    (!values.is_empty()).then(|| values.iter().sum())
}

/// Scrapes the `metrics` exposition from a running server and fails
/// unless the per-model series for `key` — and the non-blocking front
/// end's `pe_conn_*`/`pe_poll_*` gauges — are present and non-zero, and
/// unless `pe_conn_open` counts the `conns` classify connections plus this
/// scrape's own, and unless `pe_served_total` is below the run's `total`
/// requests: the CI smoke assertion that the observability plumbing is
/// actually live, not just parseable, and read mid-run. Returns the
/// mid-run `pe_conn_open`.
fn scrape_metrics(addr: &str, key: ModelKey, conns: usize, total: usize) -> Result<f64, String> {
    let (mut writer, mut reader) = connect(addr)?;
    let text = read_exposition(&mut writer, &mut reader)?;
    let model = key.token();
    let per_model = |name: &str| series(&text, &format!("{name}{{model=\"{model}\"}}"));
    for name in ["pe_submitted_total", "pe_served_total", "pe_latency_us_count"] {
        let v = per_model(name)
            .ok_or_else(|| format!("metrics exposition missing {name} for {model}"))?;
        if v <= 0.0 {
            return Err(format!("mid-run {name}{{model=\"{model}\"}} is {v}, expected non-zero"));
        }
    }
    // Unlabeled front-end series: at minimum this scrape's own connection
    // is open, and the event loop has made passes.
    for name in ["pe_conn_open", "pe_conn_accepted_total", "pe_poll_passes_total"] {
        let v = series(&text, name).ok_or_else(|| format!("metrics exposition missing {name}"))?;
        if v <= 0.0 {
            return Err(format!("mid-run {name} is {v}, expected non-zero"));
        }
    }
    let conn_open = series(&text, "pe_conn_open").unwrap_or(0.0);
    let served = per_model("pe_served_total").unwrap_or(0.0);
    println!(
        "tcp: mid-run metrics scrape ok ({} series; {served:.0} of {total} served so far, \
         {conn_open:.0} conns open, peak {:.0})",
        text.lines().filter(|l| !l.starts_with('#')).count(),
        series(&text, "pe_conn_open_peak").unwrap_or(0.0),
    );
    if served >= total as f64 {
        return Err(format!(
            "mid-run pe_served_total {served} is not below the run's {total} requests: the \
             scrape read an idle server"
        ));
    }
    if conn_open < (conns + 1) as f64 {
        return Err(format!(
            "mid-run pe_conn_open {conn_open} below the {conns} classify connections this \
             client held open plus the scrape's own"
        ));
    }
    Ok(conn_open)
}

/// One control connection at the end of a run: reads the `metrics`
/// exposition and fails on any verify mismatch or rejected request, then
/// optionally asks the server to shut down and checks its `bye`.
fn check_exposition(addr: &str, shutdown: bool) -> Result<(), String> {
    let (mut writer, mut reader) = connect(addr)?;
    let text = read_exposition(&mut writer, &mut reader)?;
    let total = |name: &str| {
        series_sum(&text, name).ok_or_else(|| format!("metrics exposition has no {name} series"))
    };
    let (served, mismatches, rejected) = (
        total("pe_served_total")?,
        total("pe_verify_mismatches_total")?,
        total("pe_rejected_total")?,
    );
    println!(
        "tcp: end of run: {served:.0} served, {mismatches:.0} verify mismatches, \
         {rejected:.0} rejected"
    );
    if mismatches != 0.0 {
        return Err(format!("server reported {mismatches} verify mismatches"));
    }
    if rejected != 0.0 {
        return Err(format!("server rejected {rejected} requests"));
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
    /// End offset in `out` of the [`first_half`] of the requests: writing
    /// stops here until the mid-run scrape has returned.
    hold: usize,
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
/// run). Each half of a connection's requests is pipelined at once —
/// arrivals never wait on replies — and per-request latency runs from
/// last-byte-flushed to reply-line-parsed. Any protocol error fails the
/// run; the mid-run scrape must see the front end's connection gauges at
/// the expected level.
fn run_open_tcp(args: &Args) -> Result<(), String> {
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
            hold: line_ends[first_half(per_conn) - 1],
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

    let gate = ScrapeGate::new(args.conns, per_conn);
    let hist = pe_obs::Histogram::new();
    let t0 = Instant::now();
    let (pumped, dt, scraped) = std::thread::scope(|scope| {
        let scrape = scope.spawn(|| gate.scrape(addr, args.key));
        let pumped = pump_open(&mut conns, total, &gate, &hist);
        let dt = t0.elapsed().as_secs_f64();
        if pumped.is_err() {
            gate.abort();
        }
        (pumped, dt, scrape.join().expect("metrics scrape thread panicked"))
    });
    // Every connection stayed open until its second half was answered,
    // after the scrape had read the gauges.
    drop(conns);
    let (replies, errors) = pumped?;
    scraped?;
    if errors > 0 {
        return Err(format!("{errors} protocol error(s) across {total} open-loop requests"));
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
    check_exposition(addr, args.shutdown)
}

/// The open-loop event loop: writes, reads and parses every connection
/// until each request has a reply line, feeding `gate` and recording each
/// `ok` reply's latency. Writes stop at each connection's `hold` until
/// the gate has closed. Returns `(ok replies, protocol errors)`.
fn pump_open(
    conns: &mut [OpenConn],
    total: usize,
    gate: &ScrapeGate,
    hist: &pe_obs::Histogram,
) -> Result<(usize, usize), String> {
    use std::io::{ErrorKind, Read};
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
        let released = gate.is_closed();
        for conn in conns.iter_mut() {
            if conn.replies_due == 0 {
                continue;
            }
            let end = if released { conn.out.len() } else { conn.hold };
            while conn.opos < end {
                match conn.stream.write(&conn.out[conn.opos..end]) {
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
                gate.reply();
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
    Ok((replies, errors))
}

/// Closed-loop TCP mode; returns an error message on any failed reply, a
/// failed mid-run `metrics` scrape, or a failed end-of-run check.
fn run_tcp(args: &Args) -> Result<(), String> {
    let addr = args.tcp.as_str();
    let n_features = args.key.profile.spec().n_features;
    let mut rng = StdRng::seed_from_u64(0x10adf3ed);
    let per_conn = args.requests.div_ceil(args.conns);
    let vectors: Vec<Vec<f64>> = (0..args.conns * per_conn)
        .map(|_| (0..n_features).map(|_| rng.gen::<f64>()).collect())
        .collect();
    let gate = ScrapeGate::new(args.conns, per_conn);
    let t0 = Instant::now();
    let results: Vec<Result<usize, String>> = std::thread::scope(|scope| {
        // While the connection threads hammer the server, one extra thread
        // scrapes the `metrics` exposition mid-run.
        let scrape = scope.spawn(|| gate.scrape(addr, args.key));
        let gate = &gate;
        let handles: Vec<_> = vectors
            .chunks(per_conn)
            .map(|chunk| {
                scope.spawn(move || match drive_closed(addr, args.key, chunk, gate) {
                    Ok(()) => Ok(chunk.len()),
                    Err(e) => {
                        gate.abort();
                        Err(e)
                    }
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
    check_exposition(addr, args.shutdown)
}

/// One closed-loop connection: sends each request of `chunk` and checks
/// its reply before the next, holding the connection open after the
/// [`first_half`] until the mid-run scrape has returned.
fn drive_closed(
    addr: &str,
    key: ModelKey,
    chunk: &[Vec<f64>],
    gate: &ScrapeGate,
) -> Result<(), String> {
    let (mut writer, mut reader) = connect(addr)?;
    // Like the open-loop client: no Nagle, and each request leaves in one
    // write, so the measured round trip is the server's, not a delayed
    // ACK's.
    let _ = writer.set_nodelay(true);
    let mut reply = String::new();
    for (i, x) in chunk.iter().enumerate() {
        let mut line = pe_serve::protocol::format_classify(key, x);
        line.push('\n');
        writer.write_all(line.as_bytes()).map_err(|e| format!("send: {e}"))?;
        reply.clear();
        reader.read_line(&mut reply).map_err(|e| format!("recv: {e}"))?;
        if !reply.starts_with("ok ") {
            return Err(format!("unexpected reply {:?}", reply.trim_end()));
        }
        gate.reply();
        if i + 1 == first_half(chunk.len()) {
            gate.wait_closed();
        }
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
    let res = if args.open { run_open_tcp(&args) } else { run_tcp(&args) };
    match res {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("loadgen: {msg}");
            ExitCode::FAILURE
        }
    }
}
