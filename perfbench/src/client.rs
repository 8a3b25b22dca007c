//! The load client: one thread, at most `nproc` non-blocking `TCP_NODELAY`
//! connections, sleeping (never spinning) between sends.
//!
//! * [`open_loop`] sends on a fixed schedule and times every request from
//!   its *intended* send time, so a stalled server cannot hide its own
//!   latency by delaying the client's next send (coordinated omission).
//! * [`closed_loop`] keeps a fixed window of requests outstanding per
//!   connection and measures saturation throughput.
//!
//! Every window stays under the server's 256-request pipeline cap: lines a
//! server leaves buffered past that cap are only parsed when the socket
//! peeks readable again, so a client that stops sending would strand them.

use crate::stats::ms;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Open-loop outstanding requests per connection before the client holds
/// back sends (they then run late, and their lateness is reported).
pub const OPEN_CAP: usize = 192;

/// Closed-loop outstanding requests per connection.
pub const WINDOW: usize = 128;

/// How long a phase waits for stragglers before counting them as failed.
pub const DRAIN: Duration = Duration::from_secs(2);

/// Longest client sleep while replies are due (bounds timestamp error).
const POLL: Duration = Duration::from_micros(100);

/// One pre-rendered request and the reply it must get.
#[derive(Debug, Clone)]
pub struct Request {
    /// Index of the request's model key in the workload's key list.
    pub key: usize,
    /// Normalized features (the in-process replay submits these).
    pub x: Vec<f64>,
    /// The wire line, newline included.
    pub line: Vec<u8>,
    /// The expected class: `ModelEntry::predict_int` of the input.
    pub want: usize,
    /// The expected reply line, `ok <want>`.
    pub ok: Vec<u8>,
}

/// One client connection with its pipelined reply FIFO.
#[derive(Debug)]
pub struct Conn {
    stream: TcpStream,
    wbuf: Vec<u8>,
    wpos: usize,
    rbuf: Vec<u8>,
    /// (request index, intended send time) per unanswered request.
    inflight: VecDeque<(usize, Instant)>,
}

impl Conn {
    /// Connects with `TCP_NODELAY`, non-blocking.
    ///
    /// # Errors
    ///
    /// Propagates connect and socket-option errors.
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Conn { stream, wbuf: Vec::new(), wpos: 0, rbuf: Vec::new(), inflight: VecDeque::new() })
    }

    fn push(&mut self, idx: usize, line: &[u8], intended: Instant) {
        self.wbuf.extend_from_slice(line);
        self.inflight.push_back((idx, intended));
    }

    /// Writes as much buffered output as the socket takes now.
    fn flush(&mut self) -> std::io::Result<()> {
        while self.wpos < self.wbuf.len() {
            match self.stream.write(&self.wbuf[self.wpos..]) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => self.wpos += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        if self.wpos == self.wbuf.len() {
            self.wbuf.clear();
            self.wpos = 0;
        }
        Ok(())
    }

    /// Reads what has arrived and hands each complete reply line to `f`
    /// with its request index, intended send time and arrival time.
    fn read_replies(
        &mut self,
        mut f: impl FnMut(&[u8], usize, Instant, Instant),
    ) -> std::io::Result<usize> {
        let mut buf = [0u8; 16 * 1024];
        loop {
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        let now = Instant::now();
        let mut start = 0;
        let mut n = 0;
        while let Some(pos) = self.rbuf[start..].iter().position(|&b| b == b'\n') {
            let line = &self.rbuf[start..start + pos];
            let Some((idx, intended)) = self.inflight.pop_front() else {
                return Err(std::io::Error::new(ErrorKind::InvalidData, "unsolicited reply"));
            };
            f(line, idx, intended, now);
            start += pos + 1;
            n += 1;
        }
        self.rbuf.drain(..start);
        Ok(n)
    }

    /// Sends one multi-line request (`metrics`) on an idle connection and
    /// returns the reply up to its `# EOF` sentinel.
    ///
    /// # Errors
    ///
    /// Fails on socket errors, or when the reply does not complete within
    /// the drain deadline.
    pub fn request_multi(&mut self, line: &str) -> std::io::Result<String> {
        assert!(self.inflight.is_empty(), "multi-line requests need an idle connection");
        self.wbuf.extend_from_slice(line.as_bytes());
        self.wbuf.push(b'\n');
        let deadline = Instant::now() + DRAIN;
        let mut buf = [0u8; 16 * 1024];
        loop {
            self.flush()?;
            match self.stream.read(&mut buf) {
                Ok(0) => return Err(ErrorKind::UnexpectedEof.into()),
                Ok(n) => self.rbuf.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => std::thread::sleep(POLL),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
            if self.rbuf.ends_with(b"# EOF\n") {
                let text = String::from_utf8_lossy(&self.rbuf).into_owned();
                self.rbuf.clear();
                return Ok(text);
            }
            if Instant::now() > deadline {
                return Err(ErrorKind::TimedOut.into());
            }
        }
    }
}

/// What one phase saw.
#[derive(Debug, Default)]
pub struct PhaseResult {
    /// Requests sent.
    pub sent: u64,
    /// Wrong answers, error replies and requests unanswered at the drain
    /// deadline.
    pub failed: u64,
    /// Latency of every correct reply, from its intended send time.
    pub latency_ms: Vec<f64>,
    /// How late each send left against its schedule.
    pub late_ms: Vec<f64>,
    /// Phase wall time, first send to last reply.
    pub wall: Duration,
    /// Connections that broke or hung and must be replaced.
    pub broken: Vec<usize>,
}

impl PhaseResult {
    fn judge(
        &mut self,
        pool: &[Request],
        reply: &[u8],
        idx: usize,
        intended: Instant,
        now: Instant,
    ) {
        if reply == pool[idx].ok.as_slice() {
            self.latency_ms.push(ms(now.saturating_duration_since(intended)));
        } else {
            self.failed += 1;
        }
    }

    /// Counts every still-unanswered request as failed and marks the
    /// connections that hold them (or broke) for replacement.
    fn abandon(&mut self, conns: &mut [Conn], broken: &[bool]) {
        for (i, c) in conns.iter_mut().enumerate() {
            if broken[i] || !c.inflight.is_empty() {
                self.failed += c.inflight.len() as u64;
                c.inflight.clear();
                self.broken.push(i);
            }
        }
    }
}

/// Sleeps until `wake` (or for [`POLL`], whichever is sooner).
pub fn nap(wake: Option<Instant>) {
    let now = Instant::now();
    let until = wake.map_or(now + POLL, |w| w.min(now + POLL));
    if until > now {
        std::thread::sleep(until - now);
    }
}

/// Open loop: `n` requests at `rate` per second, request `i` due at
/// `t0 + i / rate` on connection `i % conns`, content `pool[(first + i) %
/// pool.len()]`.
pub fn open_loop(
    conns: &mut [Conn],
    pool: &[Request],
    rate: f64,
    n: usize,
    first: usize,
) -> PhaseResult {
    let mut res = PhaseResult::default();
    let mut broken = vec![false; conns.len()];
    let gap = Duration::from_secs_f64(1.0 / rate);
    let t0 = Instant::now() + Duration::from_millis(1);
    let due = |i: usize| t0 + gap.mul_f64(i as f64);
    let give_up = due(n) + DRAIN;
    let mut next = 0;
    loop {
        let now = Instant::now();
        while next < n && due(next) <= now {
            let c = next % conns.len();
            if conns[c].inflight.len() >= OPEN_CAP {
                break;
            }
            let idx = (first + next) % pool.len();
            conns[c].push(idx, &pool[idx].line, due(next));
            res.late_ms.push(ms(now - due(next)));
            res.sent += 1;
            next += 1;
        }
        for (i, c) in conns.iter_mut().enumerate() {
            if broken[i] {
                continue;
            }
            let ok = c.flush().and_then(|()| {
                c.read_replies(|reply, idx, intended, at| res.judge(pool, reply, idx, intended, at))
            });
            broken[i] = ok.is_err();
        }
        let idle = conns.iter().all(|c| c.inflight.is_empty());
        if next == n && idle {
            break;
        }
        if Instant::now() > give_up || broken.iter().any(|&b| b) {
            res.abandon(conns, &broken);
            break;
        }
        nap((next < n).then(|| due(next)));
    }
    res.wall = t0.elapsed();
    res
}

/// Closed loop: `n` requests with [`WINDOW`] outstanding per connection,
/// content `pool[(first + i) % pool.len()]`.
pub fn closed_loop(conns: &mut [Conn], pool: &[Request], n: usize, first: usize) -> PhaseResult {
    let mut res = PhaseResult::default();
    let mut broken = vec![false; conns.len()];
    let t0 = Instant::now();
    let mut next = 0;
    let mut answered = 0;
    let mut last_progress = t0;
    loop {
        let mut got = 0;
        for (i, c) in conns.iter_mut().enumerate() {
            if broken[i] {
                continue;
            }
            while c.inflight.len() < WINDOW && next < n {
                let idx = (first + next) % pool.len();
                c.push(idx, &pool[idx].line, Instant::now());
                res.sent += 1;
                next += 1;
            }
            let ok = c.flush().and_then(|()| {
                c.read_replies(|reply, idx, intended, at| res.judge(pool, reply, idx, intended, at))
            });
            match ok {
                Ok(k) => got += k,
                Err(_) => broken[i] = true,
            }
        }
        answered += got;
        if answered == n {
            break;
        }
        let now = Instant::now();
        if got > 0 {
            last_progress = now;
        } else if now - last_progress > DRAIN || broken.iter().any(|&b| b) {
            res.abandon(conns, &broken);
            break;
        } else {
            nap(None);
        }
    }
    res.wall = t0.elapsed();
    res
}
