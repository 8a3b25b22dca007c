//! The batch-coalescing classification service.
//!
//! Requests are submitted per [`ModelKey`] and coalesced into lanes of one
//! word-parallel [`run_batch`](pe_sim::WarmSimulator::run_batch) call: the
//! bit-sliced engine evaluates up to `64 * W` requests per sweep with `W`
//! bitwise ops per gate, which is the entire economic argument for
//! batching. The slab width `W` (64–512 lanes) is picked per batch as the
//! narrowest that holds it ([`LaneWidth::for_batch`]), under a per-model cap
//! ([`ModelEntry::lane_width`]: auto-picked, or set through the registry's
//! [`RunOptions::lane_width`](pe_core::pipeline::RunOptions::lane_width))
//! that is also the chunk size of larger batches; the default 64-request
//! batch therefore sweeps 64 lanes even where the cap is 512.
//!
//! # Work-conserving flush rule
//!
//! Batching is adaptive, with no timer: a key's queue is **ready** when it
//! holds a full batch ([`ServiceConfig::batch_max`] requests), when the
//! service is stopping, or when **no batch of that key is being swept**.
//! A request for an idle key therefore goes to an idle worker at once (a
//! batch of one sweeps a single 64-lane word), while requests that arrive
//! during one of the key's sweeps coalesce into its next batch — the
//! batch grows exactly as long as the work it waits for is busy. Another
//! key's ragged batch is never held back by this one's sweep.
//!
//! The worker pool is hand-rolled on `std` primitives: one bounded pending
//! queue (a `Mutex` + two condvars, [`ServiceConfig::queue_capacity`]
//! requests across all keys), [`Service::submit`] blocking for space —
//! backpressure, not unbounded buffering — and [`Service::try_submit`]
//! rejecting instead for callers that must not block. Both go through an
//! [`Intake`], which enqueues without waking anyone and wakes the workers
//! once when it is dropped; a front end that holds one intake across a
//! burst of requests hands the workers the whole burst, not its first
//! line.
//!
//! # Any idle worker; per-worker warm engines
//!
//! Any idle worker takes any ready key. Each worker keeps a **warm**
//! [`pe_sim::WarmSimulator`] per key it has served — the slab engine's
//! full state (compiled sweep program, slabs, counters) carries across that
//! worker's batches of the key instead of being rebuilt per batch.
//!
//! # Fair admission
//!
//! Ready batches are picked by **virtual time**, not first-full-first:
//! each key accrues `lanes × cycles-per-vector` of virtual time as it is
//! served, a key (re)joining the queue is clamped up to the global virtual
//! clock (no idle credit hoarding), and the scheduler serves the ready key
//! with the *smallest* virtual time. A `pendigits:par` flood therefore
//! cannot starve a `cardio:seq` trickle: the trickle's virtual time stays
//! pinned at the clock and wins the next free worker, while the flood's
//! keeps advancing with the work it already got.
//!
//! Three serving modes ([`ServeMode`]):
//!
//! * [`Gate`](ServeMode::Gate) — classify on the gate-level simulator (the
//!   default: this service exists to put traffic through the hardware).
//! * [`Int`](ServeMode::Int) — the integer golden model only
//!   ([`QuantizedSvm::predict_int`](pe_ml::QuantizedSvm::predict_int)-class
//!   fast path, no simulation).
//! * [`Verify`](ServeMode::Verify) — both per batch, cross-checked
//!   bit-for-bit; disagreements are counted per model in
//!   [`ModelMetricsSnapshot::verify_mismatches`](crate::ModelMetricsSnapshot::verify_mismatches)
//!   (the `pe_verify_mismatches_total` series) and must stay zero.

use crate::metrics::Metrics;
use crate::registry::{ModelEntry, ModelKey, ModelRegistry};
use pe_obs::{RequestTrace, SimProfile, TraceRing};
use pe_sim::bitslice::LANES;
use pe_sim::LaneWidth;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Which path answers classification requests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ServeMode {
    /// Gate-level simulation of the bespoke netlist (the default).
    #[default]
    Gate,
    /// Integer golden model only — the fast path, no simulation.
    Int,
    /// Gate-level **and** integer paths, cross-checked per batch.
    Verify,
}

impl ServeMode {
    /// Parses a mode token (`gate`, `int`, `verify`).
    ///
    /// # Errors
    ///
    /// Returns a message listing the valid tokens on failure.
    pub fn parse(tok: &str) -> Result<Self, String> {
        match tok.to_ascii_lowercase().as_str() {
            "gate" => Ok(ServeMode::Gate),
            "int" => Ok(ServeMode::Int),
            "verify" => Ok(ServeMode::Verify),
            other => Err(format!("unknown mode {other:?} (expected gate|int|verify)")),
        }
    }
}

/// Tunables of one [`Service`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Which path answers requests.
    pub mode: ServeMode,
    /// Requests per `run_batch` call, clamped to `1..=1024`. Values above
    /// the slab cap's `64 * W` lanes run as several sweeps inside **one**
    /// call, amortizing simulator construction further; 1 degenerates to
    /// one-request-per-`run_batch` serving. Under an 8-word cap a batch of
    /// 512 is a single sweep — no splitting.
    pub batch_max: usize,
    /// Bound on queued requests across all keys; beyond it `submit` blocks
    /// and `try_submit` rejects.
    pub queue_capacity: usize,
    /// Worker threads executing batches.
    pub workers: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            mode: ServeMode::default(),
            batch_max: LANES,
            queue_capacity: 4096,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .min(8),
        }
    }
}

/// Capacity of the request trace ring ([`Service::traces`], the `trace`
/// wire command). Each executed batch records one span trace for its
/// **oldest** request — the worst queue wait of the batch.
pub const TRACE_CAPACITY: usize = 256;

/// Why a request was not answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The feature vector had the wrong arity for the addressed model.
    WrongArity {
        /// Features the model expects.
        expected: usize,
        /// Features the request carried.
        got: usize,
    },
    /// The queue was full (`try_submit` only; `submit` blocks instead).
    Busy,
    /// The service is shutting down.
    ShuttingDown,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::WrongArity { expected, got } => {
                write!(f, "expected {expected} features, got {got}")
            }
            ServeError::Busy => write!(f, "queue full"),
            ServeError::ShuttingDown => write!(f, "service shutting down"),
        }
    }
}

/// A pending reply: wait on it to get the predicted class.
#[derive(Debug)]
pub struct Ticket {
    rx: mpsc::Receiver<Result<usize, ServeError>>,
}

impl Ticket {
    /// Blocks until the batch containing this request was executed.
    pub fn wait(self) -> Result<usize, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }

    /// Non-blocking poll: `None` while the request is still queued or its
    /// batch is running. The non-blocking front end pumps pipelined tickets
    /// with this between readiness passes instead of parking a thread per
    /// request.
    pub fn try_wait(&self) -> Option<Result<usize, ServeError>> {
        match self.rx.try_recv() {
            Ok(reply) => Some(reply),
            Err(mpsc::TryRecvError::Empty) => None,
            Err(mpsc::TryRecvError::Disconnected) => Some(Err(ServeError::ShuttingDown)),
        }
    }
}

/// The sending half of one request's reply channel.
type ReplyTx = mpsc::Sender<Result<usize, ServeError>>;

struct Pending {
    x_q: Vec<i64>,
    enqueued: Instant,
    /// Virtual-time cost of this request: the model's cycles-per-vector
    /// (min 1), so a fair share is a share of *simulated work*, not of
    /// request count — a 26-cycle sequential inference is charged 26× a
    /// combinational one.
    cost: u64,
    tx: ReplyTx,
}

#[derive(Default)]
struct QueueState {
    pending: HashMap<ModelKey, VecDeque<Pending>>,
    total: usize,
    stopping: bool,
    /// Per-key virtual finish time of the fair scheduler.
    vt: HashMap<ModelKey, f64>,
    /// The global virtual clock: the virtual time of the last key served.
    /// A key (re)joining an empty queue is clamped **up** to this, so a key
    /// that idled cannot bank credit and later monopolize the workers.
    vclock: f64,
    /// Batches of each key being swept right now (absent: none). A ragged
    /// queue waits only while its key is in here.
    sweeping: HashMap<ModelKey, usize>,
}

impl QueueState {
    /// Enqueues one request, clamping the key's virtual time to the clock
    /// when the key's queue was empty (its (re)join point).
    fn push(&mut self, key: ModelKey, req: Pending) {
        let q = self.pending.entry(key).or_default();
        if q.is_empty() {
            let vt = self.vt.entry(key).or_insert(0.0);
            *vt = vt.max(self.vclock);
        }
        q.push_back(req);
        self.total += 1;
    }

    /// Charges a drained batch to its key's virtual time and advances the
    /// global clock.
    fn charge(&mut self, key: ModelKey, cost: u64) {
        let vt = self.vt.entry(key).or_insert(self.vclock);
        *vt += cost as f64;
        self.vclock = self.vclock.max(*vt);
    }

    /// The key to flush next under fair admission: among the
    /// **ready** queues (a full batch, a shutdown drain, or no batch of the
    /// key in flight), the one with the smallest virtual time — ties broken
    /// by token so scheduling is deterministic regardless of `HashMap`
    /// iteration order.
    fn pick_ready_key(&self, batch_max: usize) -> Option<ModelKey> {
        let mut best: Option<(f64, String, ModelKey)> = None;
        for (&key, q) in &self.pending {
            let ready = self.stopping || q.len() >= batch_max || !self.sweeping.contains_key(&key);
            if q.is_empty() || !ready {
                continue;
            }
            let vt = self.vt.get(&key).copied().unwrap_or(self.vclock);
            let better = match &best {
                None => true,
                Some((bvt, btok, _)) => {
                    vt < *bvt || (vt == *bvt && key.token().as_str() < btok.as_str())
                }
            };
            if better {
                best = Some((vt, key.token(), key));
            }
        }
        best.map(|(_, _, key)| key)
    }

    /// Drains the next ready batch (at most `batch_max` requests), charges
    /// it to its key's virtual time and marks the key as being swept. The
    /// caller releases the mark with [`QueueState::finish`] once the batch
    /// has run.
    fn take_batch(&mut self, cfg: &ServiceConfig) -> Option<(ModelKey, Vec<Pending>)> {
        let key = self.pick_ready_key(cfg.batch_max)?;
        let q = self.pending.get_mut(&key).expect("picked key exists");
        let n = q.len().min(cfg.batch_max);
        let reqs: Vec<Pending> = q.drain(..n).collect();
        if q.is_empty() {
            self.pending.remove(&key);
        }
        self.total -= n;
        let cost: u64 = reqs.iter().map(|r| r.cost).sum();
        self.charge(key, cost);
        *self.sweeping.entry(key).or_insert(0) += 1;
        Some((key, reqs))
    }

    /// Releases one in-flight mark of `key` taken by [`QueueState::take_batch`].
    fn finish(&mut self, key: ModelKey) {
        if let Some(n) = self.sweeping.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                self.sweeping.remove(&key);
            }
        }
    }
}

/// The in-flight mark of the batch one worker is sweeping. The worker
/// releases it under the queue lock it takes for its next pick
/// ([`InFlight::release`]); if the batch unwinds instead, `Drop` releases
/// it, so a panicking batch cannot leave its key marked busy and hold
/// back that key's ragged batches on every other worker.
struct InFlight<'a> {
    state: &'a Mutex<QueueState>,
    work_ready: &'a Condvar,
    key: Option<ModelKey>,
}

impl InFlight<'_> {
    /// Releases the mark under the caller's lock; returns the released key.
    fn release(&mut self, st: &mut QueueState) -> Option<ModelKey> {
        let key = self.key.take()?;
        st.finish(key);
        Some(key)
    }
}

impl Drop for InFlight<'_> {
    fn drop(&mut self) {
        if let Some(key) = self.key.take() {
            self.state.lock().unwrap_or_else(PoisonError::into_inner).finish(key);
            // The key's queued requests may be ready now.
            self.work_ready.notify_all();
        }
    }
}

struct Shared {
    registry: Arc<ModelRegistry>,
    cfg: ServiceConfig,
    metrics: Metrics,
    traces: TraceRing,
    state: Mutex<QueueState>,
    work_ready: Condvar,
    space_ready: Condvar,
    stopped: AtomicBool,
}

/// The in-process classification service. See the [module docs](self).
pub struct Service {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Service {
    /// Starts the worker pool. Models are built lazily on first request per
    /// key; call [`ModelRegistry::warm`] first to front-load training.
    #[must_use]
    pub fn start(registry: Arc<ModelRegistry>, mut cfg: ServiceConfig) -> Arc<Service> {
        cfg.batch_max = cfg.batch_max.clamp(1, 16 * LANES);
        cfg.workers = cfg.workers.max(1);
        cfg.queue_capacity = cfg.queue_capacity.max(1);
        let shared = Arc::new(Shared {
            registry,
            traces: TraceRing::new(TRACE_CAPACITY),
            cfg,
            metrics: Metrics::new(),
            state: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            stopped: AtomicBool::new(false),
        });
        let workers = (0..shared.cfg.workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Arc::new(Service { shared, workers: Mutex::new(workers) })
    }

    /// The registry serving this service's models.
    #[must_use]
    pub fn registry(&self) -> &ModelRegistry {
        &self.shared.registry
    }

    /// The effective (clamped) configuration.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.shared.cfg
    }

    /// A submission session: requests enqueued through it wake the workers
    /// once, when it is dropped. See [`Intake`].
    #[must_use]
    pub fn intake(&self) -> Intake<'_> {
        Intake { shared: &self.shared, queued: false }
    }

    /// Enqueues one request, blocking while the queue is full
    /// (backpressure). The returned [`Ticket`] resolves when the batch
    /// containing the request was executed.
    ///
    /// `x` is a normalized (`[0,1]`) feature vector; quantization to the
    /// model's input grid happens here, on the submitter's thread.
    pub fn submit(&self, key: ModelKey, x: &[f64]) -> Result<Ticket, ServeError> {
        self.intake().submit(key, x)
    }

    /// Like [`Service::submit`] but returns [`ServeError::Busy`] instead of
    /// blocking when the queue is full, counted as a rejection of the key
    /// (the `pe_rejected_total` series).
    pub fn try_submit(&self, key: ModelKey, x: &[f64]) -> Result<Ticket, ServeError> {
        let res = self.intake().try_submit(key, x);
        if matches!(res, Err(ServeError::Busy)) {
            self.shared.metrics.on_reject(key);
        }
        res
    }

    /// Submit-and-wait for one request.
    pub fn classify(&self, key: ModelKey, x: &[f64]) -> Result<usize, ServeError> {
        self.submit(key, x)?.wait()
    }

    /// Bulk intake: enqueues a whole slice of requests under **one** queue
    /// lock acquisition (blocking for space as needed), with one registry
    /// resolve and one worker wake-up for the slice. This is the
    /// high-throughput front door — per-request locking is what caps
    /// [`Service::submit`] at saturation.
    pub fn submit_many(&self, key: ModelKey, xs: &[Vec<f64>]) -> Vec<Result<Ticket, ServeError>> {
        self.intake().submit_many(key, xs)
    }

    /// Submits a whole slice of requests before waiting on any of them, so
    /// they coalesce into as few batches as the configuration allows.
    #[must_use]
    pub fn classify_batch(&self, key: ModelKey, xs: &[Vec<f64>]) -> Vec<Result<usize, ServeError>> {
        self.submit_many(key, xs).into_iter().map(|t| t.and_then(Ticket::wait)).collect()
    }

    /// Requests queued right now (all keys).
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared.state.lock().expect("service queue poisoned").total
    }

    /// The live metrics store: per-model shards, snapshots and the
    /// Prometheus-style exposition.
    #[must_use]
    pub fn metrics_store(&self) -> &Metrics {
        &self.shared.metrics
    }

    /// The Prometheus-style text exposition over every model shard (the
    /// `metrics` wire reply), `# EOF`-terminated.
    #[must_use]
    pub fn metrics_text(&self) -> String {
        self.shared.metrics.prometheus(self.shared.cfg.batch_max, self.queue_depth())
    }

    /// The most recent `limit` request traces, newest first (the `trace`
    /// wire reply; the ring holds [`TRACE_CAPACITY`]).
    #[must_use]
    pub fn traces(&self, limit: usize) -> Vec<RequestTrace> {
        self.shared.traces.recent(limit)
    }

    /// Traces dropped to ring-slot contention (never blocks the hot path).
    #[must_use]
    pub fn traces_dropped(&self) -> u64 {
        self.shared.traces.dropped()
    }

    /// Traces ever offered to the ring (accepted + dropped), including ones
    /// that have since wrapped away.
    #[must_use]
    pub fn traces_recorded(&self) -> u64 {
        self.shared.traces.recorded()
    }

    /// Stops accepting requests, drains every queued batch (ragged ones
    /// included, whether or not their key is being swept), answers the
    /// stragglers and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut st = self.shared.state.lock().expect("service queue poisoned");
            st.stopping = true;
        }
        self.shared.work_ready.notify_all();
        self.shared.space_ready.notify_all();
        let workers = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for w in workers {
            let _ = w.join();
        }
        self.shared.stopped.store(true, Ordering::Release);
    }

    /// Whether [`Service::shutdown`] has completed.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.shared.stopped.load(Ordering::Acquire)
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl fmt::Debug for Service {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Service")
            .field("cfg", &self.shared.cfg)
            .field("queue_depth", &self.queue_depth())
            .finish_non_exhaustive()
    }
}

/// A submission session over one [`Service`]: it enqueues requests
/// without waking the workers, and wakes them all once when it is dropped
/// — if it queued anything. A front end that holds one intake across a
/// burst (the TCP server holds one per scan pass) hands the workers the
/// whole burst at once; under the work-conserving flush rule, waking them
/// at the burst's first request would sweep that request alone.
/// [`Service::submit`], [`Service::try_submit`] and
/// [`Service::submit_many`] are one-shot intakes.
pub struct Intake<'a> {
    shared: &'a Shared,
    queued: bool,
}

impl Intake<'_> {
    /// [`Service::submit`] through this intake: blocks while the queue is
    /// full, waking the workers first.
    pub fn submit(&mut self, key: ModelKey, x: &[f64]) -> Result<Ticket, ServeError> {
        self.submit_one(key, x, true)
    }

    /// [`Service::try_submit`] through this intake: [`ServeError::Busy`]
    /// instead of blocking when the queue is full. Unlike the one-shot
    /// [`Service::try_submit`], a `Busy` here is not counted as a
    /// rejection: the caller may hold the request and retry it (the TCP
    /// front end parks it, counted by `pe_conn_parked_total`).
    pub fn try_submit(&mut self, key: ModelKey, x: &[f64]) -> Result<Ticket, ServeError> {
        self.submit_one(key, x, false)
    }

    fn submit_one(&mut self, key: ModelKey, x: &[f64], block: bool) -> Result<Ticket, ServeError> {
        // Resolve the model outside the queue lock: the first request for a
        // key pays its training cost here, not under the lock.
        let entry = self.shared.registry.get(key);
        if x.len() != entry.num_features() {
            return Err(ServeError::WrongArity { expected: entry.num_features(), got: x.len() });
        }
        let x_q = entry.quantize_input(x);
        let (tx, rx) = mpsc::channel();
        let mut st = self.shared.state.lock().expect("service queue poisoned");
        if !block && !st.stopping && st.total >= self.shared.cfg.queue_capacity {
            return Err(ServeError::Busy);
        }
        st = self.wait_for_space(st);
        if st.stopping {
            return Err(ServeError::ShuttingDown);
        }
        self.push(&mut st, key, &entry, x_q, tx);
        Ok(Ticket { rx })
    }

    /// [`Service::submit_many`] through this intake.
    pub fn submit_many(
        &mut self,
        key: ModelKey,
        xs: &[Vec<f64>],
    ) -> Vec<Result<Ticket, ServeError>> {
        let entry = self.shared.registry.get(key);
        // Validate and quantize outside the lock.
        let mut out: Vec<Result<Ticket, ServeError>> = Vec::with_capacity(xs.len());
        let mut ready: Vec<(usize, Vec<i64>, ReplyTx)> = Vec::with_capacity(xs.len());
        for (i, x) in xs.iter().enumerate() {
            if x.len() == entry.num_features() {
                let (tx, rx) = mpsc::channel();
                out.push(Ok(Ticket { rx }));
                ready.push((i, entry.quantize_input(x), tx));
            } else {
                out.push(Err(ServeError::WrongArity {
                    expected: entry.num_features(),
                    got: x.len(),
                }));
            }
        }
        let mut st = self.shared.state.lock().expect("service queue poisoned");
        for (i, x_q, tx) in ready {
            st = self.wait_for_space(st);
            if st.stopping {
                out[i] = Err(ServeError::ShuttingDown);
                continue;
            }
            self.push(&mut st, key, &entry, x_q, tx);
        }
        out
    }

    /// Blocks while the queue is full and the service is running. The
    /// workers may not have been woken for the requests that filled the
    /// queue yet, so wake them before sleeping — or no one ever frees space.
    fn wait_for_space<'g>(&self, mut st: MutexGuard<'g, QueueState>) -> MutexGuard<'g, QueueState> {
        while !st.stopping && st.total >= self.shared.cfg.queue_capacity {
            self.shared.work_ready.notify_all();
            st = self.shared.space_ready.wait(st).expect("service queue poisoned");
        }
        st
    }

    fn push(
        &mut self,
        st: &mut QueueState,
        key: ModelKey,
        entry: &ModelEntry,
        x_q: Vec<i64>,
        tx: ReplyTx,
    ) {
        let cost = entry.cycles_per_vector.max(1);
        st.push(key, Pending { x_q, enqueued: Instant::now(), cost, tx });
        self.shared.metrics.on_submit(key);
        self.queued = true;
    }
}

impl Drop for Intake<'_> {
    fn drop(&mut self) {
        if self.queued {
            self.shared.work_ready.notify_all();
        }
    }
}

impl fmt::Debug for Intake<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Intake").field("queued", &self.queued).finish_non_exhaustive()
    }
}

fn worker_loop(shared: &Shared) {
    // The worker's warm-simulator cache: one engine per key this worker has
    // served, carrying slab state across batches. Dropped — and with it all carried state — when the worker
    // exits at shutdown.
    let mut warm_sims: HashMap<ModelKey, WarmEntry> = HashMap::new();
    let mut in_flight =
        InFlight { state: &shared.state, work_ready: &shared.work_ready, key: None };
    loop {
        let batch = {
            let mut st = shared.state.lock().expect("service queue poisoned");
            let released = in_flight.release(&mut st);
            loop {
                if let Some((key, reqs)) = st.take_batch(&shared.cfg) {
                    in_flight.key = Some(key);
                    // Requests that arrived during the released key's sweep
                    // are ready now; if this worker took another key, hand
                    // them to an idle one.
                    if released.is_some_and(|k| k != key && st.pending.contains_key(&k)) {
                        shared.work_ready.notify_one();
                    }
                    shared.space_ready.notify_all();
                    break Some((key, reqs));
                }
                if st.stopping {
                    debug_assert_eq!(st.total, 0, "stopping with no ready key means empty queues");
                    break None;
                }
                st = shared.work_ready.wait(st).expect("service queue poisoned");
            }
        };
        let Some((key, reqs)) = batch else { return };
        run_one_batch(shared, key, reqs, &mut warm_sims);
    }
}

/// One worker's warm engine for one key: the lifetime-free simulator next
/// to the `Arc` that owns the netlist it reattaches every batch.
struct WarmEntry {
    entry: Arc<ModelEntry>,
    sim: pe_sim::WarmSimulator,
}

/// Executes one coalesced batch and answers its requests, decomposing the
/// batch into the five trace spans (`queue_wait → setup → sweep → verify →
/// reply`; see [`pe_obs::trace`]) and feeding the model's metric shard.
fn run_one_batch(
    shared: &Shared,
    key: ModelKey,
    mut reqs: Vec<Pending>,
    warm_sims: &mut HashMap<ModelKey, WarmEntry>,
) {
    // `drained` splits every request's latency: submission → here is queue
    // wait (coalescing delay), here → reply is service time.
    let drained = Instant::now();
    let shard = shared.metrics.shard(key);
    let entry = shared.registry.get(key);
    let vectors: Vec<Vec<i64>> = reqs.iter_mut().map(|r| std::mem::take(&mut r.x_q)).collect();
    let int_preds: Vec<usize> = match shared.cfg.mode {
        ServeMode::Gate => Vec::new(),
        ServeMode::Int | ServeMode::Verify => {
            vectors.iter().map(|x_q| entry.predict_int(x_q)).collect()
        }
    };
    let mut sweep = Duration::ZERO;
    let mut verify = Duration::ZERO;
    let setup_end;
    let (preds, lane_words, gate_cycles, mismatches) = match shared.cfg.mode {
        ServeMode::Int => {
            setup_end = Instant::now();
            (int_preds, 0, 0, 0)
        }
        ServeMode::Gate | ServeMode::Verify => {
            // The warm path: reuse (or build, first time) this worker's
            // long-lived slab engine for the key. Reattach is a pure move —
            // no per-batch simulator construction.
            let warm = warm_sims.entry(key).or_insert_with(|| {
                let mut sim = entry.warm_simulator();
                let profile: Arc<dyn SimProfile> = Arc::clone(shard.profile()) as _;
                sim.set_profile(Some(profile));
                WarmEntry { entry: Arc::clone(&entry), sim }
            });
            // The slab this batch actually sweeps; the configured width is
            // only the cap (chunk size).
            let lane_words = LaneWidth::for_batch(vectors.len(), warm.sim.lane_width()).words();
            setup_end = Instant::now();
            let result =
                warm.sim.run_batch(&warm.entry.netlist, &vectors, entry.cycles_per_vector, "class");
            let sweep_end = Instant::now();
            sweep = sweep_end.saturating_duration_since(setup_end);
            let gate: Vec<usize> = result.outputs.iter().map(|&v| v as usize).collect();
            let mismatches = if shared.cfg.mode == ServeMode::Verify {
                let n = gate.iter().zip(&int_preds).filter(|(g, i)| g != i).count();
                verify = sweep_end.elapsed();
                n
            } else {
                0
            };
            (gate, lane_words, result.cycles, mismatches)
        }
    };
    shard.on_batch(reqs.len(), lane_words, gate_cycles, mismatches);
    let lanes = reqs.len();
    let oldest = reqs.iter().map(|r| r.enqueued).min();
    let reply_start = Instant::now();
    for (req, pred) in reqs.into_iter().zip(preds) {
        let queue_wait = drained.saturating_duration_since(req.enqueued);
        let service = reply_start.saturating_duration_since(drained);
        shard.on_served(queue_wait, service);
        // A dropped ticket (caller gave up) is fine; ignore send errors.
        let _ = req.tx.send(Ok(pred));
    }
    // One trace per batch, for its oldest request — the worst queue wait
    // this batch inflicted.
    let now = Instant::now();
    let queue_wait = oldest.map_or(Duration::ZERO, |enq| drained.saturating_duration_since(enq));
    let total = oldest.map_or(Duration::ZERO, |enq| now.saturating_duration_since(enq));
    shared.traces.record(RequestTrace {
        seq: 0,
        model: key.token(),
        batch_lanes: lanes,
        queue_wait,
        setup: setup_end.saturating_duration_since(drained),
        sweep,
        verify,
        reply: now.saturating_duration_since(reply_start),
        total,
        at: now,
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelMetricsSnapshot;
    use pe_core::pipeline::RunOptions;
    use pe_core::styles::DesignStyle;
    use pe_data::UciProfile;

    fn cardio_seq() -> ModelKey {
        ModelKey::new(UciProfile::Cardio, DesignStyle::SequentialSvm)
    }

    fn test_registry() -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::new(RunOptions::default()))
    }

    /// A registry whose models cap their slab at `width` (`pe-serve --width`).
    fn registry_at_width(width: LaneWidth) -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::new(RunOptions {
            lane_width: Some(width),
            ..RunOptions::default()
        }))
    }

    /// The key's metric shard, as the `metrics` exposition reports it.
    fn shard(svc: &Service, key: ModelKey) -> ModelMetricsSnapshot {
        svc.metrics_store().shard(key).snapshot(svc.config().batch_max)
    }

    fn samples(registry: &ModelRegistry, key: ModelKey, n: usize) -> Vec<Vec<f64>> {
        registry.get(key).sample_requests(n)
    }

    #[test]
    fn classify_matches_golden_model_in_every_mode() {
        let registry = test_registry();
        let key = cardio_seq();
        let entry = registry.get(key);
        let xs = samples(&registry, key, 5);
        for mode in [ServeMode::Gate, ServeMode::Int, ServeMode::Verify] {
            let svc = Service::start(
                Arc::clone(&registry),
                ServiceConfig { mode, ..ServiceConfig::default() },
            );
            for x in &xs {
                let want = entry.predict_int(&entry.quantize_input(x));
                assert_eq!(svc.classify(key, x), Ok(want), "mode {mode:?}");
            }
            let m = shard(&svc, key);
            assert_eq!(m.verify_mismatches, 0);
            assert_eq!(m.served, 5);
            svc.shutdown();
            assert!(svc.is_stopped());
        }
    }

    #[test]
    fn wrong_arity_is_rejected_at_submit() {
        let registry = test_registry();
        let svc = Service::start(Arc::clone(&registry), ServiceConfig::default());
        let err = svc.classify(cardio_seq(), &[0.5, 0.5]).unwrap_err();
        assert!(matches!(err, ServeError::WrongArity { expected: 21, got: 2 }), "{err:?}");
    }

    #[test]
    fn try_submit_rejects_when_full_and_submit_after_shutdown_errors() {
        let registry = test_registry();
        let key = cardio_seq();
        let xs = samples(&registry, key, 4);
        // One worker, capacity 2, and a batch of the key marked in flight:
        // the two ragged requests wait behind it, so nothing drains while
        // the queue is overfilled.
        let svc = Service::start(
            Arc::clone(&registry),
            ServiceConfig { workers: 1, queue_capacity: 2, ..ServiceConfig::default() },
        );
        svc.shared.state.lock().unwrap().sweeping.insert(key, 1);
        let t1 = svc.try_submit(key, &xs[0]).expect("first fits");
        let t2 = svc.try_submit(key, &xs[1]).expect("second fits");
        let err = svc.try_submit(key, &xs[2]).unwrap_err();
        assert_eq!(err, ServeError::Busy);
        assert_eq!(shard(&svc, key).rejected, 1);
        // Shutdown drains the two queued requests and answers them.
        svc.shutdown();
        assert!(t1.wait().is_ok());
        assert!(t2.wait().is_ok());
        assert_eq!(svc.classify(key, &xs[3]), Err(ServeError::ShuttingDown));
    }

    #[test]
    fn full_batches_coalesce_to_64_lanes() {
        let registry = test_registry();
        let key = cardio_seq();
        let xs = samples(&registry, key, 128);
        let svc = Service::start(
            Arc::clone(&registry),
            ServiceConfig { mode: ServeMode::Verify, workers: 2, ..ServiceConfig::default() },
        );
        let results = svc.classify_batch(key, &xs);
        assert!(results.iter().all(Result::is_ok));
        let m = shard(&svc, key);
        assert_eq!(m.served, 128);
        assert_eq!(m.verify_mismatches, 0);
        assert!(m.batches <= 4, "128 requests should land in few batches, got {}", m.batches);
        assert!(m.batch_fill > 0.5, "fill {}", m.batch_fill);
    }

    /// A synthetic pending request for scheduler-level tests (no service,
    /// no registry — pure queue mechanics).
    fn synthetic(cost: u64) -> Pending {
        let (tx, _rx) = mpsc::channel();
        Pending { x_q: Vec::new(), enqueued: Instant::now(), cost, tx }
    }

    /// Drains one batch and runs it to completion, as a single worker
    /// does, and returns its key, or None when nothing is ready.
    fn drain_one(st: &mut QueueState, cfg: &ServiceConfig) -> Option<ModelKey> {
        let (key, _) = st.take_batch(cfg)?;
        st.finish(key);
        Some(key)
    }

    /// A flush-rule harness: batches of 4, and the queued count of a key.
    fn rule_cfg() -> ServiceConfig {
        ServiceConfig { batch_max: 4, workers: 2, ..ServiceConfig::default() }
    }

    fn queued(st: &QueueState, key: ModelKey) -> usize {
        st.pending.get(&key).map_or(0, VecDeque::len)
    }

    #[test]
    fn a_lone_request_on_an_idle_key_is_ready() {
        let (key, cfg) = (cardio_seq(), rule_cfg());
        let mut st = QueueState::default();
        st.push(key, synthetic(1));
        let (picked, reqs) = st.take_batch(&cfg).expect("an idle key flushes at once");
        assert_eq!((picked, reqs.len()), (key, 1));
        assert_eq!(st.sweeping.get(&key), Some(&1), "the drained batch is marked in flight");
    }

    #[test]
    fn a_ragged_queue_waits_while_its_key_sweeps_and_a_full_one_does_not() {
        let (key, cfg) = (cardio_seq(), rule_cfg());
        let mut st = QueueState::default();
        st.push(key, synthetic(1));
        assert!(st.take_batch(&cfg).is_some());
        // Requests arriving during the sweep coalesce: a ragged queue waits.
        for _ in 1..cfg.batch_max {
            st.push(key, synthetic(1));
            assert!(st.take_batch(&cfg).is_none(), "ragged queue of {}", queued(&st, key));
        }
        // A full batch is ready regardless, so a second worker takes it.
        st.push(key, synthetic(1));
        let (_, reqs) = st.take_batch(&cfg).expect("a full batch is ready");
        assert_eq!(reqs.len(), cfg.batch_max);
        assert_eq!(st.sweeping.get(&key), Some(&2));
        // The next ragged batch waits for both sweeps, not just one.
        st.push(key, synthetic(1));
        st.finish(key);
        assert!(st.take_batch(&cfg).is_none());
        st.finish(key);
        assert_eq!(st.take_batch(&cfg).map(|(k, r)| (k, r.len())), Some((key, 1)));
    }

    #[test]
    fn another_keys_ragged_queue_is_ready_while_one_key_sweeps() {
        let cfg = rule_cfg();
        let busy = cardio_seq();
        let other = ModelKey::parse("pendigits:seq").unwrap();
        let mut st = QueueState::default();
        st.push(busy, synthetic(1));
        assert!(st.take_batch(&cfg).is_some());
        st.push(busy, synthetic(1));
        st.push(other, synthetic(1));
        let (picked, _) = st.take_batch(&cfg).expect("the other key is idle");
        assert_eq!(picked, other);
        assert!(st.take_batch(&cfg).is_none(), "the busy key's ragged queue still waits");
    }

    #[test]
    fn stopping_drains_everything() {
        let (key, cfg) = (cardio_seq(), rule_cfg());
        let mut st = QueueState::default();
        st.push(key, synthetic(1));
        assert!(st.take_batch(&cfg).is_some());
        st.push(key, synthetic(1));
        assert!(st.take_batch(&cfg).is_none());
        st.stopping = true;
        assert!(st.take_batch(&cfg).is_some(), "shutdown flushes a ragged queue mid-sweep");
        assert_eq!(st.total, 0);
    }

    #[test]
    fn in_flight_mark_is_released_when_a_batch_unwinds() {
        let (key, cfg) = (cardio_seq(), rule_cfg());
        let state = Mutex::new(QueueState::default());
        let work_ready = Condvar::new();
        let mut in_flight = InFlight { state: &state, work_ready: &work_ready, key: None };
        {
            let mut st = state.lock().unwrap();
            st.push(key, synthetic(1));
            in_flight.key = st.take_batch(&cfg).map(|(k, _)| k);
            st.push(key, synthetic(1));
            assert!(st.take_batch(&cfg).is_none(), "the key is marked in flight");
        }
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
            let _held = in_flight;
            panic!("batch panicked mid-sweep");
        }));
        assert!(unwound.is_err());
        let mut st = state.lock().unwrap();
        assert!(st.sweeping.is_empty(), "the unwind released the mark");
        assert!(st.take_batch(&cfg).is_some(), "the key's ragged queue is ready again");
    }

    #[test]
    fn fair_admission_interleaves_a_trickle_through_a_flood() {
        // The deterministic fairness harness: a pendigits:par flood deep
        // enough for 32 full batches, with a cardio:seq trickle joining
        // after the flood is queued. Under the old full-batch-first rule
        // the trickle waited out the whole flood; under virtual-time fair
        // admission it must be served within a couple of drains of joining,
        // every time it rejoins.
        let flood = ModelKey::parse("pendigits:par").unwrap();
        let trickle = ModelKey::parse("cardio:seq").unwrap();
        let cfg = ServiceConfig { batch_max: 4, workers: 1, ..ServiceConfig::default() };
        let mut st = QueueState::default();
        for _ in 0..32 * cfg.batch_max {
            st.push(flood, synthetic(1));
        }
        // The flood has already been served for a while before the trickle
        // joins — its virtual time is well ahead of the clock.
        for _ in 0..4 {
            assert_eq!(drain_one(&mut st, &cfg), Some(flood));
        }
        let mut gaps = Vec::new();
        for _ in 0..8 {
            st.push(trickle, synthetic(1));
            let mut gap = 0;
            loop {
                let picked = drain_one(&mut st, &cfg).expect("queues are non-empty");
                if picked == trickle {
                    break;
                }
                gap += 1;
                assert!(gap <= 2, "trickle starved behind the flood for {gap} drains");
            }
            gaps.push(gap);
        }
        // The rejoin clamp means the trickle never banks credit: it is
        // served promptly but cannot monopolize either.
        assert!(gaps.iter().all(|&g| g <= 2), "queue-wait in drains: {gaps:?}");
        assert!(!st.pending.contains_key(&trickle));
    }

    #[test]
    fn warm_and_cold_serving_agree_with_the_golden_model() {
        // A repeated low-activity stream through a warm verify service:
        // replies identical to the integer model and zero verify mismatches
        // (the real warm pin — identical toggle accounting — lives in the
        // serving_equivalence suite).
        let registry = test_registry();
        let key = cardio_seq();
        let entry = registry.get(key);
        let base = entry.sample_requests(1).remove(0);
        let xs: Vec<Vec<f64>> = (0..96).map(|_| base.clone()).collect();
        let want: Vec<_> =
            xs.iter().map(|x| Ok(entry.predict_int(&entry.quantize_input(x)))).collect();
        let svc = Service::start(
            Arc::clone(&registry),
            ServiceConfig { mode: ServeMode::Verify, workers: 1, ..ServiceConfig::default() },
        );
        // Several rounds so the warm path actually carries state across
        // run_batch calls.
        for round in 0..3 {
            assert_eq!(svc.classify_batch(key, &xs), want, "round {round}");
        }
        let m = shard(&svc, key);
        assert_eq!(m.verify_mismatches, 0);
        assert_eq!(m.served, 3 * 96);
        svc.shutdown();
    }

    #[test]
    fn widened_batch_max_serves_one_batch_in_one_sweep() {
        // batch_max beyond 64 used to split into several 64-lane chunks; at
        // an 8-word slab a 300-request batch is a single 512-lane sweep.
        let registry = registry_at_width(LaneWidth::W8);
        let key = cardio_seq();
        let xs = samples(&registry, key, 300);
        let svc = Service::start(
            Arc::clone(&registry),
            ServiceConfig { mode: ServeMode::Verify, batch_max: 512, ..ServiceConfig::default() },
        );
        let results = svc.classify_batch(key, &xs);
        assert!(results.iter().all(Result::is_ok));
        let m = shard(&svc, key);
        assert_eq!(m.served, 300);
        assert_eq!(m.verify_mismatches, 0);
        assert_eq!(m.lane_width, 8, "the shard must surface the slab width");
        assert!(m.batches <= 2, "300 requests at batch_max 512, got {} batches", m.batches);
        assert!(m.sweeps <= 2, "one 512-lane sweep should cover 300 lanes, got {}", m.sweeps);
        assert!(m.lane_fill > 0.5, "lane_fill {} must be against 512, not 64", m.lane_fill);
    }

    #[test]
    fn the_registry_width_caps_the_served_slab() {
        // `pe-serve --width 2` sets the registry's `RunOptions::lane_width`:
        // the same 300-request batch that is one 512-lane sweep under the
        // 8-word auto cap becomes three 128-lane sweeps.
        let registry = registry_at_width(LaneWidth::W2);
        let key = cardio_seq();
        assert_eq!(registry.get(key).lane_width, LaneWidth::W2);
        let xs = samples(&registry, key, 300);
        let svc = Service::start(
            Arc::clone(&registry),
            ServiceConfig { mode: ServeMode::Verify, batch_max: 512, ..ServiceConfig::default() },
        );
        assert!(svc.classify_batch(key, &xs).iter().all(Result::is_ok));
        let m = shard(&svc, key);
        assert_eq!((m.served, m.verify_mismatches), (300, 0));
        assert_eq!(m.lane_width, 2, "the cap bounds the slab");
        assert_eq!(m.sweeps, 3 * m.batches, "each 300-request batch is three 128-lane sweeps");
    }

    #[test]
    fn default_batches_sweep_the_narrowest_slab_that_holds_them() {
        // The model's auto width is only the cap: a full default batch of 64
        // requests sweeps one 64-lane word, not the cap's 512 lanes, and the
        // lane accounting reports the slab actually swept.
        let registry = test_registry();
        let key = cardio_seq();
        let entry = registry.get(key);
        assert_eq!(entry.lane_width, LaneWidth::W8, "cardio:seq auto-picks an 8-word cap");
        let xs = samples(&registry, key, 2 * LANES);
        let svc = Service::start(Arc::clone(&registry), ServiceConfig::default());
        let want: Vec<_> =
            xs.iter().map(|x| Ok(entry.predict_int(&entry.quantize_input(x)))).collect();
        assert_eq!(svc.classify_batch(key, &xs), want);
        let m = shard(&svc, key);
        assert_eq!(m.batches, 2, "two full 64-request batches");
        assert_eq!(m.sweeps, 2);
        assert_eq!(m.lane_width, 1, "a 64-request batch sweeps one word");
        assert_eq!(m.lane_fill, 1.0);
        svc.shutdown();
    }

    #[test]
    fn coalesced_requests_cost_a_64th_of_one_request_batches() {
        // The batching payoff, counted in simulator work: a sweep costs
        // `scheduled_cells × (1 + cycles)` cell evaluations whatever its
        // width or fill, so 128 requests coalesced into two 64-lane sweeps
        // cost exactly 1/64 of one sweep per request (`batch_max: 1`).
        let registry = test_registry();
        let key = cardio_seq();
        let entry = registry.get(key);
        let xs = samples(&registry, key, 2 * LANES);
        let run = |batch_max: usize| {
            let cfg =
                ServiceConfig { mode: ServeMode::Verify, batch_max, ..ServiceConfig::default() };
            let svc = Service::start(Arc::clone(&registry), cfg);
            assert!(svc.classify_batch(key, &xs).iter().all(Result::is_ok));
            let m = shard(&svc, key);
            svc.shutdown();
            assert_eq!((m.served, m.verify_mismatches), (xs.len() as u64, 0));
            assert_eq!(m.profile.sweeps, m.sweeps);
            (m.sweeps, m.profile.cell_evals)
        };
        let per_sweep = pe_sim::BitSlicedSimulator::<1>::new(&entry.netlist)
            .expect("admitted netlists schedule")
            .scheduled_cells() as u64
            * (1 + entry.cycles_per_vector);
        let (coalesced_sweeps, coalesced_evals) = run(LANES);
        let (single_sweeps, single_evals) = run(1);
        assert_eq!((coalesced_sweeps, single_sweeps), (2, xs.len() as u64));
        assert_eq!(coalesced_evals, 2 * per_sweep);
        assert_eq!(single_evals, xs.len() as u64 * per_sweep);
        // Per served request: 2·s/128 = s/64 against s.
        assert_eq!(64 * coalesced_evals, single_evals);
    }
}
