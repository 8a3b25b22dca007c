//! The serving torture suite: adversarial byte streams against the
//! non-blocking front end's partial-line state machines.
//!
//! Every test drives a real [`pe_serve::Server`] over loopback with traffic
//! shaped to break line framing — writes split at every byte boundary,
//! oversized lines, interleaved pipelined bursts, invalid UTF-8, and abrupt
//! mid-request disconnects — and asserts the contract the front end
//! promises: no hangs, no leaked connection slots (checked through the
//! `pe_conn_open` gauge from a live observer connection), and a clean
//! one-line error reply for every malformed request with the connection
//! still usable afterwards.
//!
//! Models run in [`ServeMode::Int`]: framing torture is about bytes, not
//! gates, and the integer path keeps the suite fast. The `cardio:seq`
//! model is trained once for the whole suite.

use pe_core::pipeline::RunOptions;
use pe_serve::protocol::MAX_LINE;
use pe_serve::{ModelKey, ModelRegistry, ServeMode, Server, Service, ServiceConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

fn registry() -> Arc<ModelRegistry> {
    static REGISTRY: OnceLock<Arc<ModelRegistry>> = OnceLock::new();
    Arc::clone(REGISTRY.get_or_init(|| {
        let registry = Arc::new(ModelRegistry::new(RunOptions::default()));
        let _ = registry.get(key()); // train once for every test in the suite
        registry
    }))
}

fn key() -> ModelKey {
    ModelKey::parse("cardio:seq").unwrap()
}

/// Spawns a service + server pair on an ephemeral port; the returned guard
/// shuts the server down (deterministic drain) when dropped.
struct Harness {
    addr: std::net::SocketAddr,
    service: Arc<Service>,
    thread: Option<std::thread::JoinHandle<usize>>,
}

fn start() -> Harness {
    start_with(ServiceConfig { mode: ServeMode::Int, ..ServiceConfig::default() })
}

fn start_with(config: ServiceConfig) -> Harness {
    let service = Service::start(registry(), config);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&service)).unwrap();
    let addr = server.local_addr();
    Harness { addr, service, thread: Some(std::thread::spawn(move || server.run())) }
}

impl Drop for Harness {
    fn drop(&mut self) {
        let mut conn = TcpStream::connect(self.addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        assert_eq!(send(&mut conn, &mut reader, "shutdown"), "bye");
        self.thread.take().unwrap().join().unwrap();
        assert!(self.service.is_stopped());
    }
}

fn send(stream: &mut TcpStream, reader: &mut BufReader<TcpStream>, line: &str) -> String {
    writeln!(stream, "{line}").unwrap();
    read_reply(reader)
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> String {
    let mut reply = String::new();
    assert!(reader.read_line(&mut reply).unwrap() > 0, "connection closed before reply");
    reply.trim_end().to_owned()
}

/// A well-formed classify request line (no trailing newline) and its
/// expected `ok` reply.
fn classify_line() -> (String, String) {
    let registry = registry();
    let entry = registry.get(key());
    let (x, _) = entry.prepared.test.sample(0);
    let want = entry.predict_int(&entry.quantize_input(x));
    (pe_serve::protocol::format_classify(key(), x), format!("ok {want}"))
}

/// Reads the unlabeled `pe_conn_open` gauge through a fresh observer
/// connection (which itself counts as one open connection).
fn conn_open(addr: std::net::SocketAddr) -> u64 {
    let mut conn = TcpStream::connect(addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    writeln!(conn, "metrics").unwrap();
    loop {
        let line = read_reply(&mut reader);
        if let Some(v) = line.strip_prefix("pe_conn_open ") {
            return v.trim().parse().unwrap();
        }
        assert_ne!(line, "# EOF", "metrics reply had no pe_conn_open series");
    }
}

/// Polls `pe_conn_open` until it reaches `want` (the observer's own
/// connection included) or a deadline expires — slot reclamation is
/// asynchronous to the client's close, but must always happen.
fn wait_conn_open(addr: std::net::SocketAddr, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let open = conn_open(addr);
        if open == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "pe_conn_open stuck at {open}, want {want}: leaked connection slots"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn writes_split_at_every_byte_boundary_parse_identically() {
    let h = start();
    let (line, want) = classify_line();
    let bytes = format!("{line}\nping\n").into_bytes();
    let mut conn = TcpStream::connect(h.addr).unwrap();
    conn.set_nodelay(true).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    for split in 1..bytes.len() {
        conn.write_all(&bytes[..split]).unwrap();
        conn.flush().unwrap();
        // Let the front end observe (and buffer) the partial line alone.
        std::thread::sleep(Duration::from_millis(1));
        conn.write_all(&bytes[split..]).unwrap();
        assert_eq!(read_reply(&mut reader), want, "split at byte {split}");
        assert_eq!(read_reply(&mut reader), "pong", "split at byte {split}");
    }
}

#[test]
fn oversized_lines_get_an_error_and_the_connection_recovers() {
    let h = start();
    let mut conn = TcpStream::connect(h.addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());

    // A line that never ends: the reader must reply (and enter discard
    // mode) as soon as the buffered prefix exceeds MAX_LINE, well before
    // any newline shows up.
    conn.write_all(&vec![b'x'; MAX_LINE + 100]).unwrap();
    assert_eq!(read_reply(&mut reader), "err line too long");
    // Everything up to the newline is discarded, including bytes arriving
    // after the error reply; the next line parses normally.
    conn.write_all(b"more garbage\n").unwrap();
    assert_eq!(send(&mut conn, &mut reader, "ping"), "pong");

    // A complete newline-terminated line just over the cap gets the same
    // error, same recovery.
    let mut big = vec![b'y'; MAX_LINE + 1];
    big.push(b'\n');
    conn.write_all(&big).unwrap();
    assert_eq!(read_reply(&mut reader), "err line too long");
    assert_eq!(send(&mut conn, &mut reader, "ping"), "pong");

    let (line, want) = classify_line();
    assert_eq!(send(&mut conn, &mut reader, &line), want);
}

#[test]
fn invalid_utf8_gets_a_clean_error_and_the_connection_recovers() {
    let h = start();
    let mut conn = TcpStream::connect(h.addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    conn.write_all(&[0xff, 0xfe, 0x80, b'\n']).unwrap();
    assert_eq!(read_reply(&mut reader), "err invalid utf-8");
    assert_eq!(send(&mut conn, &mut reader, "ping"), "pong");
}

#[test]
fn interleaved_pipelined_requests_reply_in_order() {
    let h = start();
    let (line, want) = classify_line();
    // One write carrying a burst of mixed requests — classifications that
    // go through the async service ticket path, instant replies (ping),
    // an unknown verb (stats), and malformed lines — replies must come back
    // in request order, errors included, nothing dropped.
    let burst = format!("{line}\nping\nnonsense\n{line}\nstats\nclassify cardio seq 0.5\nping\n");
    let mut conn = TcpStream::connect(h.addr).unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    conn.write_all(burst.as_bytes()).unwrap();
    assert_eq!(read_reply(&mut reader), want);
    assert_eq!(read_reply(&mut reader), "pong");
    assert!(read_reply(&mut reader).starts_with("err "), "bad command must reply in order");
    assert_eq!(read_reply(&mut reader), want);
    assert!(read_reply(&mut reader).starts_with("err unknown verb"), "stats must reply in order");
    assert_eq!(read_reply(&mut reader), "err expected 21 features, got 1");
    assert_eq!(read_reply(&mut reader), "pong");

    // A pipelined burst split mid-burst at an arbitrary byte boundary.
    let bytes = burst.as_bytes();
    let split = line.len() + 3; // inside "ping"
    conn.write_all(&bytes[..split]).unwrap();
    conn.flush().unwrap();
    std::thread::sleep(Duration::from_millis(1));
    conn.write_all(&bytes[split..]).unwrap();
    for (i, expect) in [
        &want,
        "pong",
        "err ",
        &want,
        "err unknown verb",
        "err expected 21 features, got 1",
        "pong",
    ]
    .iter()
    .enumerate()
    {
        let reply = read_reply(&mut reader);
        assert!(reply.starts_with(*expect), "burst reply {i}: {reply:?}");
    }
}

#[test]
fn abrupt_disconnects_leak_no_connection_slots() {
    let h = start();
    let (line, _) = classify_line();
    // A mix of rude clients: drop mid-line, drop right after a full
    // request without reading the reply, drop after half a pipelined
    // burst. Every slot must come back; the server must keep serving.
    for round in 0..3 {
        let mut rude = Vec::new();
        for i in 0..12 {
            let mut conn = TcpStream::connect(h.addr).unwrap();
            conn.set_nodelay(true).unwrap();
            match i % 3 {
                0 => {
                    // Mid-line: bytes buffered, no newline ever.
                    conn.write_all(&line.as_bytes()[..line.len() / 2]).unwrap();
                }
                1 => {
                    // Full request submitted, reply never read.
                    conn.write_all(format!("{line}\n").as_bytes()).unwrap();
                }
                _ => {
                    // Half a pipelined burst, cut inside the second line.
                    conn.write_all(format!("{line}\n{line}").as_bytes()).unwrap();
                }
            }
            conn.flush().unwrap();
            rude.push(conn);
        }
        // Give the front end a chance to buffer the fragments, then
        // vanish without so much as a FIN handshake completion.
        std::thread::sleep(Duration::from_millis(10));
        drop(rude);
        // Only the observer's own connection may remain.
        wait_conn_open(h.addr, 1);
        // The server is still fully alive for polite clients.
        let mut conn = TcpStream::connect(h.addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        assert_eq!(send(&mut conn, &mut reader, "ping"), "pong", "round {round}");
    }
    let metrics = {
        let mut conn = TcpStream::connect(h.addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        writeln!(conn, "metrics").unwrap();
        let mut text = String::new();
        loop {
            let l = read_reply(&mut reader);
            let done = l == "# EOF";
            text.push_str(&l);
            text.push('\n');
            if done {
                break text;
            }
        }
    };
    // 36 rude clients + per-round ping conns + observers all came and went.
    let accepted: u64 = metrics
        .lines()
        .find_map(|l| l.strip_prefix("pe_conn_accepted_total "))
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    assert!(accepted >= 36, "accepted only {accepted} connections");
}

#[test]
fn a_half_open_connection_with_a_buffered_request_still_gets_served_state_drained() {
    let h = start();
    let (line, want) = classify_line();
    // Client shuts down its write half after a full pipelined request but
    // keeps reading: the server must drain the buffered request and
    // deliver the reply even though the read side already hit EOF.
    let conn = TcpStream::connect(h.addr).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    writer.write_all(format!("{line}\nping\n").as_bytes()).unwrap();
    writer.flush().unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    assert_eq!(read_reply(&mut reader), want);
    assert_eq!(read_reply(&mut reader), "pong");
    // After the replies, the server closes its half too: clean EOF.
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "unexpected trailing bytes {rest:?}");
    wait_conn_open(h.addr, 1);
}

#[test]
fn buffered_lines_are_answered_after_a_half_close() {
    // A four-slot service queue parks the connection every few requests,
    // so the front end reads all 300 lines (and the EOF behind them) long
    // before it has parsed them. The client half-closes and only reads: no
    // byte will ever arrive again, so the buffered lines must be parsed as
    // each park clears (or pipeline capacity frees up) rather than on the
    // socket's next readable edge.
    let h = start_with(ServiceConfig {
        mode: ServeMode::Int,
        queue_capacity: 4,
        ..ServiceConfig::default()
    });
    let (line, want) = classify_line();
    const REQUESTS: usize = 300;
    let conn = TcpStream::connect(h.addr).unwrap();
    // A hang guard, not an assertion: a stranded line would otherwise
    // block `read_reply` forever.
    conn.set_read_timeout(Some(Duration::from_secs(20))).unwrap();
    let mut writer = conn.try_clone().unwrap();
    let mut reader = BufReader::new(conn.try_clone().unwrap());
    writer.write_all(format!("{line}\n").repeat(REQUESTS).as_bytes()).unwrap();
    conn.shutdown(std::net::Shutdown::Write).unwrap();
    for i in 0..REQUESTS {
        assert_eq!(read_reply(&mut reader), want, "reply {i} of {REQUESTS}");
    }
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "unexpected trailing bytes {rest:?}");
    // Only the observer's own connection may remain.
    wait_conn_open(h.addr, 1);
    // Every park was retried and served: the front end counts parks, and
    // the service, which refused no client, counts no rejection.
    let parked = h
        .service
        .metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("pe_conn_parked_total ").map(|v| v.parse::<u64>().unwrap()))
        .expect("metrics exposition has pe_conn_parked_total");
    assert!(parked > 0, "a four-slot queue must park some of {REQUESTS} pipelined requests");
    let m = h.service.metrics_store().shard(key()).snapshot(h.service.config().batch_max);
    assert_eq!((m.served, m.rejected), (REQUESTS as u64, 0), "{m:?}");
}
