//! The TCP front end: a non-blocking, readiness-driven line server over
//! [`Service`], speaking the [`protocol`](crate::protocol).
//!
//! # Architecture
//!
//! One event-loop thread multiplexes every connection (the previous front
//! end spawned a thread per connection, which topped out around the OS
//! thread limit and made shutdown join semantics fragile). All sockets run
//! in nonblocking mode; each pass the loop:
//!
//! 1. **accepts** a bounded burst of new connections into a slot table
//!    (capped by [`Server::set_max_conns`]; over-limit connections get a
//!    best-effort `err server full` and are dropped),
//! 2. **scans** every open connection with a one-byte peek
//!    ([`poller::read_readiness`](crate::poller::read_readiness)) — dead
//!    peers are reaped even when the server is not willing to read from
//!    them — and reads readable ones into a per-connection buffer,
//! 3. **parses** complete lines through a partial-line state machine
//!    (bytes accumulate across passes; lines longer than
//!    [`protocol::MAX_LINE`](crate::protocol::MAX_LINE) are answered with
//!    an error and discarded up to the next newline),
//! 4. **pumps** each connection's pipelined reply FIFO — classify requests
//!    become [`Ticket`]s polled with `try_wait`, immediate
//!    replies (`ping`, `metrics`, …) queue behind them so replies always come
//!    back in request order — and
//! 5. **flushes** write buffers as far as the sockets accept.
//!
//! Every classify request of a pass is submitted through one [`Intake`],
//! so the service's workers wake once per pass, with the pass's whole
//! burst already queued.
//!
//! A pass that makes no progress pays an adaptive pause
//! ([`poller::Backoff`](crate::poller::Backoff)): the loop polls flat out
//! under load and converges to ~1 wakeup/ms when idle.
//!
//! **Backpressure** is per-connection and lossless: when the service queue
//! is full (`try_submit` returns `Busy`) the request is *parked* and the
//! connection stops being read until the park clears, so a flooding client
//! throttles itself instead of crashing the server or losing requests.
//!
//! **Shutdown** is a deterministic drain, not a heuristic: a `shutdown`
//! request queues its `bye`, the loop stops accepting and reading,
//! [`Service::shutdown`] runs (answering every queued request), then the
//! loop keeps pumping tickets and flushing until every connection's
//! pipeline is empty (or `DRAIN_DEADLINE` passes). No throwaway
//! self-connection is needed to wake an accept loop — nothing blocks.

use crate::metrics::FrontendStats;
use crate::poller::{read_readiness, Backoff, Readiness};
use crate::protocol::{parse_request, Request, MAX_LINE};
use crate::service::{Intake, ServeError, Service, Ticket};
use crate::ModelKey;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// New connections accepted per event-loop pass (keeps one accept flood
/// from starving established connections).
const ACCEPT_BURST: usize = 256;

/// Bytes read from one connection per pass (fairness under floods).
const READ_BUDGET: usize = 16 * 1024;

/// Unanswered pipelined requests per connection before its reads pause.
const PIPELINE_MAX: usize = 256;

/// Compact the write buffer once this many flushed bytes accumulate.
const WBUF_COMPACT: usize = 8 * 1024;

/// How long the shutdown drain keeps flushing before abandoning
/// connections that will not take their replies.
const DRAIN_DEADLINE: Duration = Duration::from_secs(5);

/// Default connection-slot cap (see [`Server::set_max_conns`]).
const DEFAULT_MAX_CONNS: usize = 16 * 1024;

/// A bound-but-not-yet-running TCP front end.
#[derive(Debug)]
pub struct Server {
    service: Arc<Service>,
    listener: TcpListener,
    max_conns: usize,
    stop: Arc<AtomicBool>,
}

/// One request's slot in a connection's in-order reply FIFO.
#[derive(Debug)]
enum Reply {
    /// Already rendered (immediate replies, and resolved tickets).
    Ready(String),
    /// A classify request still queued or running in the service.
    Pending(Ticket),
}

/// Per-connection state: buffers, the partial-line machine, the pipelined
/// reply FIFO and the park slot.
#[derive(Debug)]
struct Conn {
    stream: TcpStream,
    /// Bytes received but not yet parsed (may end mid-line).
    rbuf: Vec<u8>,
    /// Rendered replies not yet accepted by the socket.
    wbuf: Vec<u8>,
    /// Flushed prefix of `wbuf` (compacted lazily).
    wpos: usize,
    /// Replies owed to the client, in request order.
    inflight: VecDeque<Reply>,
    /// A classify request the service refused with `Busy`; retried every
    /// pass, and while present the connection is not read (backpressure).
    parked: Option<(ModelKey, Vec<f64>)>,
    /// Discarding an oversized line up to its terminating newline.
    discarding: bool,
    /// Peer sent EOF (or the read side errored); replies still flush.
    read_closed: bool,
    /// The write side failed — the connection is reaped unconditionally.
    dead: bool,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            rbuf: Vec::new(),
            wbuf: Vec::new(),
            wpos: 0,
            inflight: VecDeque::new(),
            parked: None,
            discarding: false,
            read_closed: false,
            dead: false,
        }
    }

    /// One full pass over this connection, submitting through the scan
    /// pass's `intake`. Returns `true` if any progress was made; sets
    /// `*shutdown_req` when a `shutdown` line was parsed.
    fn pass(
        &mut self,
        service: &Service,
        intake: &mut Intake<'_>,
        fe: &FrontendStats,
        draining: bool,
        ready_now: &mut u64,
        shutdown_req: &mut bool,
    ) -> bool {
        let mut progressed = false;
        // Retry the parked request first: the park must clear before any
        // more of this connection's bytes are even looked at.
        if let Some((key, x)) = self.parked.take() {
            match intake.try_submit(key, &x) {
                Ok(t) => {
                    self.inflight.push_back(Reply::Pending(t));
                    progressed = true;
                }
                Err(ServeError::Busy) => self.parked = Some((key, x)),
                Err(e) => {
                    self.inflight.push_back(Reply::Ready(format!("err {e}\n")));
                    progressed = true;
                }
            }
        }
        let has_room = !draining && self.parked.is_none() && self.inflight.len() < PIPELINE_MAX;
        if !self.read_closed {
            match read_readiness(&self.stream) {
                Readiness::Readable => {
                    *ready_now += 1;
                    if has_room {
                        progressed |= self.fill_rbuf();
                    }
                }
                Readiness::Closed => {
                    // EOF or a broken read side: a trailing partial line
                    // dies with the peer, but complete lines already
                    // buffered (and a parked request) are still answered —
                    // a half-closed client keeps reading its replies.
                    self.read_closed = true;
                    let complete = self.rbuf.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                    self.rbuf.truncate(complete);
                    progressed = true;
                }
                Readiness::NotReady => {}
            }
        }
        // Parse whenever lines are buffered and there is room, whatever the
        // socket's readiness: lines left behind by the pipeline cap, a park
        // or an EOF read in the same burst may never see another readable
        // edge.
        if !draining && !self.rbuf.is_empty() {
            progressed |= self.parse_lines(service, intake, fe, shutdown_req);
        }
        progressed |= self.pump_replies();
        progressed |= self.flush();
        progressed
    }

    /// Drains the socket into `rbuf` up to the per-pass budget.
    fn fill_rbuf(&mut self) -> bool {
        let mut buf = [0u8; 4096];
        let mut total = 0usize;
        while total < READ_BUDGET {
            match self.stream.read(&mut buf) {
                Ok(0) => {
                    self.read_closed = true;
                    break;
                }
                Ok(n) => {
                    self.rbuf.extend_from_slice(&buf[..n]);
                    total += n;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.read_closed = true;
                    break;
                }
            }
        }
        total > 0
    }

    /// Parses every complete line in `rbuf`, stopping on backpressure
    /// (park, pipeline cap) or a `shutdown` request.
    fn parse_lines(
        &mut self,
        service: &Service,
        intake: &mut Intake<'_>,
        fe: &FrontendStats,
        shutdown_req: &mut bool,
    ) -> bool {
        let mut progressed = false;
        loop {
            if self.parked.is_some() || self.inflight.len() >= PIPELINE_MAX {
                break;
            }
            let newline = self.rbuf.iter().position(|&b| b == b'\n');
            if self.discarding {
                // Drop the rest of an oversized line; its error reply is
                // already queued.
                match newline {
                    Some(i) => {
                        self.rbuf.drain(..=i);
                        self.discarding = false;
                        continue;
                    }
                    None => {
                        self.rbuf.clear();
                        break;
                    }
                }
            }
            let Some(i) = newline else {
                if self.rbuf.len() > MAX_LINE {
                    fe.oversized.inc();
                    self.rbuf.clear();
                    self.discarding = true;
                    self.inflight.push_back(Reply::Ready("err line too long\n".to_owned()));
                    progressed = true;
                    continue;
                }
                break;
            };
            let line: Vec<u8> = self.rbuf.drain(..=i).collect();
            if line.len() > MAX_LINE + 1 {
                fe.oversized.inc();
                self.inflight.push_back(Reply::Ready("err line too long\n".to_owned()));
                progressed = true;
                continue;
            }
            let Ok(text) = std::str::from_utf8(&line) else {
                self.inflight.push_back(Reply::Ready("err invalid utf-8\n".to_owned()));
                progressed = true;
                continue;
            };
            if text.trim().is_empty() {
                continue;
            }
            progressed = true;
            match parse_request(text) {
                Ok(Request::Classify { key, features }) => {
                    match intake.try_submit(key, &features) {
                        Ok(t) => self.inflight.push_back(Reply::Pending(t)),
                        Err(ServeError::Busy) => {
                            fe.parked.inc();
                            self.parked = Some((key, features));
                        }
                        Err(e) => self.inflight.push_back(Reply::Ready(format!("err {e}\n"))),
                    }
                }
                Ok(Request::Metrics) => {
                    // Multi-line reply; metrics_text ends with `# EOF\n`.
                    self.inflight.push_back(Reply::Ready(service.metrics_text()));
                }
                Ok(Request::Trace { limit }) => {
                    let now = Instant::now();
                    let mut text = String::new();
                    for t in service.traces(limit) {
                        text.push_str(&t.to_line(now));
                        text.push('\n');
                    }
                    // `recorded` counts every trace ever offered, including
                    // ones that have since wrapped away.
                    text.push_str(&format!(
                        "# recorded={} dropped={}\n# EOF\n",
                        service.traces_recorded(),
                        service.traces_dropped()
                    ));
                    self.inflight.push_back(Reply::Ready(text));
                }
                Ok(Request::Ping) => self.inflight.push_back(Reply::Ready("pong\n".to_owned())),
                Ok(Request::Shutdown) => {
                    self.inflight.push_back(Reply::Ready("bye\n".to_owned()));
                    *shutdown_req = true;
                    break;
                }
                Err(msg) => self.inflight.push_back(Reply::Ready(format!("err {msg}\n"))),
            }
        }
        progressed
    }

    /// Moves resolved replies (in request order) into the write buffer.
    fn pump_replies(&mut self) -> bool {
        let mut progressed = false;
        while let Some(front) = self.inflight.front_mut() {
            let rendered = match front {
                Reply::Ready(s) => std::mem::take(s),
                Reply::Pending(t) => match t.try_wait() {
                    Some(Ok(class)) => format!("ok {class}\n"),
                    Some(Err(e)) => format!("err {e}\n"),
                    None => break, // later replies must wait their turn
                },
            };
            self.wbuf.extend_from_slice(rendered.as_bytes());
            self.inflight.pop_front();
            progressed = true;
        }
        progressed
    }

    /// Writes as much of `wbuf` as the socket accepts right now.
    fn flush(&mut self) -> bool {
        let mut progressed = false;
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => {
                    self.dead = true;
                    break;
                }
                Ok(n) => {
                    self.wpos += n;
                    progressed = true;
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.dead = true;
                    break;
                }
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        } else if self.wpos >= WBUF_COMPACT {
            self.wbuf.drain(..self.wpos);
            self.wpos = 0;
        }
        progressed
    }

    /// Whether this connection's slot can be reclaimed.
    fn finished(&self, draining: bool) -> bool {
        if self.dead {
            return true;
        }
        let idle =
            self.inflight.is_empty() && self.parked.is_none() && self.wpos == self.wbuf.len();
        // After EOF the pipeline still drains (half-closed clients read
        // their replies); during shutdown every connection closes once its
        // pipeline is empty.
        idle && (self.read_closed || draining)
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`; port 0 picks a free port).
    ///
    /// # Errors
    ///
    /// Propagates the bind error.
    pub fn bind(addr: &str, service: Arc<Service>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        Ok(Server {
            service,
            listener,
            max_conns: DEFAULT_MAX_CONNS,
            stop: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Panics
    ///
    /// Panics if the listener's local address cannot be read (never happens
    /// for a successfully bound socket).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.listener.local_addr().expect("bound listener has an address")
    }

    /// Caps concurrent connections (default 16384). Connections over the
    /// cap are answered `err server full` best-effort and dropped.
    pub fn set_max_conns(&mut self, max: usize) {
        self.max_conns = max.max(1);
    }

    /// A flag that, once set, makes [`Server::run`] drain and return as if
    /// a `shutdown` request had arrived — the external-stop hook for tests
    /// and supervisors. No wake-up connection is needed: the event loop
    /// never blocks, so it observes the flag within one backoff pause.
    #[must_use]
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Runs the event loop on the calling thread until a `shutdown` request
    /// (or the [stop handle](Server::stop_handle)) arrives, then drains:
    /// every queued request is answered and flushed before the loop exits.
    /// Returns the number of connections accepted.
    ///
    /// # Panics
    ///
    /// Panics if the listener cannot be switched to nonblocking mode.
    pub fn run(self) -> usize {
        self.listener.set_nonblocking(true).expect("listener supports nonblocking mode");
        let fe = self.service.metrics_store().frontend();
        let mut conns: Vec<Option<Conn>> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut accepted = 0usize;
        let mut backoff = Backoff::new();
        // `Some(t0)` once shutdown was requested; the service is already
        // drained by then and t0 bounds the flush grace.
        let mut draining: Option<Instant> = None;
        loop {
            fe.poll_passes.inc();
            let mut progressed = false;
            if draining.is_none() && self.stop.load(Ordering::Acquire) {
                self.service.shutdown();
                draining = Some(Instant::now());
                progressed = true;
            }
            if draining.is_none() {
                progressed |= self.accept_burst(&mut conns, &mut free, &mut accepted, fe);
            }
            let mut ready_now = 0u64;
            // One intake per scan pass: every request parsed (or retried
            // from a park) this pass reaches the workers in one wake-up
            // when the intake drops at the end of the pass.
            let mut intake = self.service.intake();
            for i in 0..conns.len() {
                let Some(conn) = conns[i].as_mut() else { continue };
                let mut shutdown_req = false;
                progressed |= conn.pass(
                    &self.service,
                    &mut intake,
                    fe,
                    draining.is_some(),
                    &mut ready_now,
                    &mut shutdown_req,
                );
                if shutdown_req && draining.is_none() {
                    // Drain the service synchronously: every ticket already
                    // in the queue resolves before this returns, so the
                    // remaining passes just pump and flush.
                    self.service.shutdown();
                    draining = Some(Instant::now());
                    progressed = true;
                }
                if conn.finished(draining.is_some()) {
                    conns[i] = None;
                    free.push(i);
                    fe.conns_open.dec();
                    progressed = true;
                }
            }
            drop(intake);
            fe.conns_ready.set(ready_now);
            if let Some(t0) = draining {
                let open = conns.iter().filter(|c| c.is_some()).count();
                if open == 0 || t0.elapsed() > DRAIN_DEADLINE {
                    // Account abandoned connections before dropping them.
                    for _ in 0..open {
                        fe.conns_open.dec();
                    }
                    break;
                }
            }
            if progressed {
                backoff.reset();
            } else {
                fe.poll_idle.inc();
                backoff.idle();
            }
        }
        if draining.is_none() {
            self.service.shutdown();
        }
        accepted
    }

    /// Accepts up to [`ACCEPT_BURST`] connections into the slot table.
    fn accept_burst(
        &self,
        conns: &mut Vec<Option<Conn>>,
        free: &mut Vec<usize>,
        accepted: &mut usize,
        fe: &FrontendStats,
    ) -> bool {
        let mut progressed = false;
        for _ in 0..ACCEPT_BURST {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    progressed = true;
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let open = conns.len() - free.len();
                    if open >= self.max_conns {
                        fe.rejected.inc();
                        let mut stream = stream;
                        let _ = stream.write(b"err server full\n");
                        continue; // dropped
                    }
                    *accepted += 1;
                    fe.accepted.inc();
                    fe.conns_open.inc();
                    let conn = Conn::new(stream);
                    match free.pop() {
                        Some(i) => conns[i] = Some(conn),
                        None => conns.push(Some(conn)),
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break,
            }
        }
        progressed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ModelKey, ModelRegistry};
    use crate::service::{ServeMode, ServiceConfig};
    use pe_core::pipeline::RunOptions;
    use pe_core::styles::DesignStyle;
    use pe_data::UciProfile;
    use std::io::{BufRead, BufReader};

    fn send(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(stream, "{line}").unwrap();
        let mut reply = String::new();
        reader.read_line(&mut reply).unwrap();
        reply.trim_end().to_owned()
    }

    /// Sends a multi-line request (`metrics` / `trace`) and reads until the
    /// `# EOF` sentinel line — the client side of the multi-line framing.
    fn send_multi(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
        writeln!(stream, "{line}").unwrap();
        let mut text = String::new();
        loop {
            let mut reply = String::new();
            assert!(reader.read_line(&mut reply).unwrap() > 0, "EOF before sentinel:\n{text}");
            let done = reply.trim_end() == "# EOF";
            text.push_str(&reply);
            if done {
                return text;
            }
        }
    }

    #[test]
    fn tcp_round_trip_classify_stats_shutdown() {
        let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
        let key = ModelKey::new(UciProfile::Cardio, DesignStyle::SequentialSvm);
        let entry = registry.get(key);
        let service = Service::start(
            Arc::clone(&registry),
            ServiceConfig { mode: ServeMode::Verify, ..ServiceConfig::default() },
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let addr = server.local_addr();
        let server_thread = std::thread::spawn(move || server.run());

        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        assert_eq!(send(&mut conn, &mut reader, "ping"), "pong");

        let (x, _) = entry.prepared.test.sample(0);
        let want = entry.predict_int(&entry.quantize_input(x));
        let line = crate::protocol::format_classify(key, x);
        assert_eq!(send(&mut conn, &mut reader, &line), format!("ok {want}"));

        // `stats` is not a verb: `metrics` is the one metrics surface.
        assert!(send(&mut conn, &mut reader, "stats").starts_with("err unknown verb"));

        // The multi-line observability replies, read to the `# EOF` sentinel
        // on the same connection — the next one-line request still works.
        let metrics = send_multi(&mut conn, &mut reader, "metrics");
        assert!(metrics.contains("pe_served_total{model=\"cardio:seq\"} 1"), "{metrics}");
        assert!(
            metrics.contains("pe_verify_mismatches_total{model=\"cardio:seq\"} 0"),
            "{metrics}"
        );
        assert!(
            metrics.contains("pe_queue_wait_us{model=\"cardio:seq\",quantile=\"0.5\"}"),
            "{metrics}"
        );
        assert!(metrics.contains("pe_sim_batches_total{model=\"cardio:seq\"}"), "{metrics}");
        // The non-blocking front end's own gauges are live.
        assert!(metrics.contains("pe_conn_open 1"), "{metrics}");
        assert!(metrics.contains("pe_conn_accepted_total 1"), "{metrics}");
        let trace = send_multi(&mut conn, &mut reader, "trace 8");
        assert!(trace.contains("model=cardio:seq"), "{trace}");
        assert!(trace.contains("# recorded="), "{trace}");
        assert_eq!(send(&mut conn, &mut reader, "ping"), "pong");

        assert_eq!(
            send(&mut conn, &mut reader, "classify cardio seq 0.5"),
            "err expected 21 features, got 1"
        );
        assert!(send(&mut conn, &mut reader, "nonsense").starts_with("err "));

        assert_eq!(send(&mut conn, &mut reader, "shutdown"), "bye");
        drop(conn);
        let connections = server_thread.join().unwrap();
        assert!(connections >= 1);
        assert!(service.is_stopped(), "shutdown must drain the service");
    }

    #[test]
    fn idle_connection_does_not_hang_shutdown() {
        let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
        let service = Service::start(Arc::clone(&registry), ServiceConfig::default());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let addr = server.local_addr();
        let server_thread = std::thread::spawn(move || server.run());

        // A client that connects and never sends anything...
        let idle = TcpStream::connect(addr).unwrap();
        // ...must not pin the drain when another client shuts down.
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        assert_eq!(send(&mut conn, &mut reader, "shutdown"), "bye");
        let t0 = std::time::Instant::now();
        let _ = server_thread.join().unwrap();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(10),
            "shutdown waited on an idle connection"
        );
        assert!(service.is_stopped());
        drop(idle);
    }

    #[test]
    fn shutdown_drains_pipelined_requests_before_bye() {
        // The drain pin: a burst of pipelined classifies followed by
        // `shutdown` in the same write must yield every reply, in order,
        // with `bye` last — no dropped requests, no reordering, and the
        // loop exits without any wake-up connection.
        let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
        let key = ModelKey::new(UciProfile::Cardio, DesignStyle::SequentialSvm);
        let entry = registry.get(key);
        let service = Service::start(
            Arc::clone(&registry),
            ServiceConfig { mode: ServeMode::Verify, ..ServiceConfig::default() },
        );
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let addr = server.local_addr();
        let server_thread = std::thread::spawn(move || server.run());

        let (x, _) = entry.prepared.test.sample(0);
        let want = entry.predict_int(&entry.quantize_input(x));
        let mut burst = String::new();
        let n = 32;
        for _ in 0..n {
            burst.push_str(&crate::protocol::format_classify(key, x));
            burst.push('\n');
        }
        burst.push_str("shutdown\n");

        let mut conn = TcpStream::connect(addr).unwrap();
        conn.write_all(burst.as_bytes()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut replies = Vec::new();
        loop {
            let mut line = String::new();
            if reader.read_line(&mut line).unwrap() == 0 {
                break;
            }
            replies.push(line.trim_end().to_owned());
        }
        assert_eq!(replies.len(), n + 1, "{replies:?}");
        assert!(replies[..n].iter().all(|r| r == &format!("ok {want}")), "{replies:?}");
        assert_eq!(replies[n], "bye");
        let _ = server_thread.join().unwrap();
        assert!(service.is_stopped());
    }

    #[test]
    fn stop_handle_drains_without_a_request() {
        let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
        let service = Service::start(Arc::clone(&registry), ServiceConfig::default());
        let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
        let stop = server.stop_handle();
        let server_thread = std::thread::spawn(move || server.run());
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Release);
        let t0 = Instant::now();
        let accepted = server_thread.join().unwrap();
        assert_eq!(accepted, 0);
        assert!(t0.elapsed() < Duration::from_secs(10));
        assert!(service.is_stopped());
    }
}
