//! The batch-coalescing classification service.
//!
//! Requests are submitted per [`ModelKey`] and coalesced into lanes of one
//! word-parallel [`run_batch`](pe_sim::Simulator::run_batch) call: the
//! bit-sliced engine evaluates up to `64 * W` requests per sweep with `W`
//! bitwise ops per gate, which is the entire economic argument for
//! batching. The slab width `W` (64–512 lanes) is picked per batch as the
//! narrowest that holds it ([`LaneWidth::for_batch`]), under a per-model cap
//! — auto-picked, or set via [`ServiceConfig::lane_width`] — that is also
//! the chunk size of larger batches; the default 64-request batch therefore
//! sweeps 64 lanes even where the cap is 512. A batch is
//! flushed when it reaches [`ServiceConfig::batch_max`] lanes **or** when
//! its oldest request has waited [`ServiceConfig::batch_deadline`] — ragged
//! batches still flush promptly at low load, full batches flush immediately
//! at saturation.
//!
//! The worker pool is hand-rolled on `std` primitives: one bounded pending
//! queue (a `Mutex` + two condvars, [`ServiceConfig::queue_capacity`]
//! requests across all keys), [`Service::submit`] blocking for space —
//! backpressure, not unbounded buffering — and [`Service::try_submit`]
//! rejecting instead for callers that must not block.
//!
//! # Sharding, affinity, and warm simulators
//!
//! Workers are **sharded by model key**: every key hashes to a preferred
//! worker ([`Service::preferred_worker`]), and each worker keeps a **warm**
//! [`pe_sim::WarmSimulator`] per key it has served — the slab engine's full
//! state (including the event-driven worklist's clean/dirty flags) carries
//! across batches instead of being stamped out all-dirty per batch. That is
//! what finally lets event-driven serving collect the >70% cell-eval
//! savings the fault campaigns get on low-activity streams. Affinity is
//! *soft*: a non-owner steals a key when its batch is full (at saturation
//! warmness matters less than idle workers), when the owner has let the
//! oldest request sit past **twice** the deadline, or during shutdown.
//!
//! # Weighted-fair admission
//!
//! Ready batches are picked by **virtual time**, not first-full-first:
//! each key accrues `lanes × cycles-per-vector / weight` of virtual time as
//! it is served, a key (re)joining the queue is clamped up to the global
//! virtual clock (no idle credit hoarding), and the scheduler serves the
//! eligible ready key with the *smallest* virtual time. A `pendigits:par`
//! flood therefore cannot starve a `cardio:seq` trickle: the trickle's
//! virtual time stays pinned at the clock and wins the next free worker,
//! while the flood's keeps advancing with the work it already got. Weights
//! ([`ServiceConfig::weights`], default 1.0) scale a key's share.
//!
//! Three serving modes ([`ServeMode`]):
//!
//! * [`Gate`](ServeMode::Gate) — classify on the gate-level simulator (the
//!   default: this service exists to put traffic through the hardware).
//! * [`Int`](ServeMode::Int) — the integer golden model only
//!   ([`QuantizedSvm::predict_int`](pe_ml::QuantizedSvm::predict_int)-class
//!   fast path, no simulation).
//! * [`Verify`](ServeMode::Verify) — both per batch, cross-checked
//!   bit-for-bit; disagreements are counted in
//!   [`MetricsSnapshot::verify_mismatches`] and must stay zero.

use crate::metrics::{Metrics, MetricsSnapshot};
use crate::registry::{ModelKey, ModelRegistry};
use pe_obs::{RequestTrace, SimProfile, TraceRing};
use pe_sim::bitslice::LANES;
use pe_sim::LaneWidth;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex};
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
    /// one-request-per-`run_batch` serving (the loadgen baseline). Under an
    /// 8-word cap a batch of 512 is a single sweep — no splitting.
    pub batch_max: usize,
    /// Bit-sliced slab width **cap** override. `None` (the default) uses
    /// each model's auto-picked width ([`ModelEntry::lane_width`]). Either
    /// way the value is a cap and the chunk size, not a forced width: each
    /// gate-level batch sweeps at the narrowest slab that holds it, up to
    /// this cap ([`LaneWidth::for_batch`]).
    ///
    /// [`ModelEntry::lane_width`]: crate::registry::ModelEntry::lane_width
    pub lane_width: Option<LaneWidth>,
    /// Event-driven sweeps for gate-level batches: the slab engine only
    /// re-evaluates cells whose input slabs changed, which pays off on
    /// low-activity batches (repeated or near-constant feature rows) and is
    /// bit-identical to the full-sweep default — predictions *and* toggle
    /// accounting.
    pub event_driven: bool,
    /// How long the oldest queued request may wait before its (possibly
    /// ragged) batch is flushed anyway.
    pub batch_deadline: Duration,
    /// Bound on queued requests across all keys; beyond it `submit` blocks
    /// and `try_submit` rejects.
    pub queue_capacity: usize,
    /// Worker threads executing batches.
    pub workers: usize,
    /// Capacity of the request trace ring ([`Service::traces`], the `trace`
    /// wire command). Each executed batch records one span trace for its
    /// **oldest** request — the worst queue wait of the batch. 0 disables
    /// tracing entirely (the instrumentation-off baseline).
    pub trace_capacity: usize,
    /// Only record traces whose total latency is at least this long. The
    /// default [`Duration::ZERO`] traces every batch's oldest request;
    /// raising it turns the ring into a slow-request sampler.
    pub trace_slow: Duration,
    /// Feed each model's [`pe_obs::ProfileRecorder`] from the gate-level
    /// simulator (per-batch phase timings, sweep and cell-evaluation
    /// counts — the `pe_sim_*` series of the `metrics` exposition). Off
    /// skips every phase clock read inside `run_batch`.
    pub sim_profile: bool,
    /// Weighted-fair admission weights per key (default 1.0 for keys not
    /// listed). A key with weight 2.0 accrues virtual time half as fast and
    /// therefore gets twice the service share under contention.
    pub weights: Vec<(ModelKey, f64)>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            mode: ServeMode::default(),
            batch_max: LANES,
            lane_width: None,
            event_driven: false,
            batch_deadline: Duration::from_millis(2),
            queue_capacity: 4096,
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(2)
                .min(8),
            trace_capacity: 256,
            trace_slow: Duration::ZERO,
            sim_profile: true,
            weights: Vec::new(),
        }
    }
}

impl ServiceConfig {
    /// The fair-admission weight of one key (1.0 unless overridden).
    #[must_use]
    pub fn weight(&self, key: ModelKey) -> f64 {
        self.weights
            .iter()
            .find(|(k, _)| *k == key)
            .map_or(1.0, |&(_, w)| if w > 0.0 { w } else { 1.0 })
    }
}

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
    /// Per-key virtual finish time of the weighted-fair scheduler.
    vt: HashMap<ModelKey, f64>,
    /// The global virtual clock: the virtual time of the last key served.
    /// A key (re)joining an empty queue is clamped **up** to this, so a key
    /// that idled cannot bank credit and later monopolize the workers.
    vclock: f64,
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
    fn charge(&mut self, key: ModelKey, cost: u64, weight: f64) {
        let vt = self.vt.entry(key).or_insert(self.vclock);
        *vt += cost as f64 / weight;
        self.vclock = self.vclock.max(*vt);
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
            traces: TraceRing::new(cfg.trace_capacity),
            cfg,
            metrics: Metrics::new(),
            state: Mutex::new(QueueState::default()),
            work_ready: Condvar::new(),
            space_ready: Condvar::new(),
            stopped: AtomicBool::new(false),
        });
        let workers = (0..shared.cfg.workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared, i))
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

    /// The soft-affinity owner of a key under this service's worker count:
    /// the worker whose warm simulator serves the key's batches unless it
    /// falls behind (see the [module docs](self)).
    #[must_use]
    pub fn preferred_worker(&self, key: ModelKey) -> usize {
        preferred_worker(key, self.shared.cfg.workers)
    }

    /// Enqueues one request, blocking while the queue is full
    /// (backpressure). The returned [`Ticket`] resolves when the batch
    /// containing the request was executed.
    ///
    /// `x` is a normalized (`[0,1]`) feature vector; quantization to the
    /// model's input grid happens here, on the submitter's thread.
    pub fn submit(&self, key: ModelKey, x: &[f64]) -> Result<Ticket, ServeError> {
        self.submit_inner(key, x, true)
    }

    /// Like [`Service::submit`] but returns [`ServeError::Busy`] instead of
    /// blocking when the queue is full.
    pub fn try_submit(&self, key: ModelKey, x: &[f64]) -> Result<Ticket, ServeError> {
        self.submit_inner(key, x, false)
    }

    fn submit_inner(&self, key: ModelKey, x: &[f64], block: bool) -> Result<Ticket, ServeError> {
        // Resolve the model outside the queue lock: the first request for a
        // key pays its training cost here, not under the lock.
        let entry = self.shared.registry.get(key);
        if x.len() != entry.num_features() {
            return Err(ServeError::WrongArity { expected: entry.num_features(), got: x.len() });
        }
        let x_q = entry.quantize_input(x);
        let (tx, rx) = mpsc::channel();
        let mut st = self.shared.state.lock().expect("service queue poisoned");
        loop {
            if st.stopping {
                return Err(ServeError::ShuttingDown);
            }
            if st.total < self.shared.cfg.queue_capacity {
                break;
            }
            if !block {
                self.shared.metrics.on_reject(key);
                return Err(ServeError::Busy);
            }
            st = self.shared.space_ready.wait(st).expect("service queue poisoned");
        }
        st.push(
            key,
            Pending { x_q, enqueued: Instant::now(), cost: entry.cycles_per_vector.max(1), tx },
        );
        self.shared.metrics.on_submit(key);
        drop(st);
        self.shared.work_ready.notify_one();
        Ok(Ticket { rx })
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
            // Wait for space before pushing. Workers may not have been woken
            // for the requests that filled the queue yet, so wake them
            // before sleeping — or no one ever frees space.
            while !st.stopping && st.total >= self.shared.cfg.queue_capacity {
                self.shared.work_ready.notify_all();
                st = self.shared.space_ready.wait(st).expect("service queue poisoned");
            }
            if st.stopping {
                out[i] = Err(ServeError::ShuttingDown);
                continue;
            }
            st.push(
                key,
                Pending { x_q, enqueued: Instant::now(), cost: entry.cycles_per_vector.max(1), tx },
            );
            self.shared.metrics.on_submit(key);
        }
        drop(st);
        self.shared.work_ready.notify_all();
        out
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

    /// A point-in-time aggregate metrics view. Ticks the interval clock:
    /// [`MetricsSnapshot::throughput_rps`] covers the span since the
    /// previous `metrics()` call.
    #[must_use]
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot(self.shared.cfg.batch_max, self.queue_depth())
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
    /// wire reply). Empty when [`ServiceConfig::trace_capacity`] is 0.
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

    /// Stops accepting requests, drains every queued batch (deadlines are
    /// ignored — everything flushes), answers the stragglers and joins the
    /// workers. Idempotent.
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

/// The soft-affinity owner of a key: a stable FNV-1a hash of its token,
/// modulo the worker count. (`HashMap`'s default hasher is
/// process-randomized — affinity must survive restarts and be testable, so
/// it gets its own fixed hash.)
fn preferred_worker(key: ModelKey, workers: usize) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.token().bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % workers.max(1) as u64) as usize
}

/// How long past the deadline a non-owner lets a ragged batch sit before
/// stealing it (in multiples of [`ServiceConfig::batch_deadline`]): the
/// owner gets one extra deadline of first refusal, so low-rate traffic
/// stays on its warm simulator instead of bouncing between workers.
const STEAL_GRACE: u32 = 2;

/// Whether worker `worker` may take this ready queue now. Owners always
/// may; non-owners steal full batches (saturation — warmth matters less
/// than idle workers), anything during shutdown, and ragged batches whose
/// oldest request has sat past `STEAL_GRACE` deadlines (the owner is
/// presumably stuck in a long batch).
fn eligible(
    q: &VecDeque<Pending>,
    key: ModelKey,
    cfg: &ServiceConfig,
    stopping: bool,
    now: Instant,
    worker: usize,
    workers: usize,
) -> bool {
    if stopping || q.len() >= cfg.batch_max || preferred_worker(key, workers) == worker {
        return true;
    }
    q.front()
        .is_some_and(|front| now.duration_since(front.enqueued) >= cfg.batch_deadline * STEAL_GRACE)
}

/// Picks the key worker `worker` should flush now under weighted-fair
/// admission: among the **ready** queues (full batch, expired deadline, or
/// shutdown drain) this worker is eligible for, the one with the smallest
/// virtual time — ties broken by token so scheduling is deterministic
/// regardless of `HashMap` iteration order.
fn pick_ready_key(
    st: &QueueState,
    cfg: &ServiceConfig,
    now: Instant,
    worker: usize,
    workers: usize,
) -> Option<ModelKey> {
    let mut best: Option<(f64, String, ModelKey)> = None;
    for (&key, q) in &st.pending {
        let Some(front) = q.front() else { continue };
        let ready = st.stopping
            || q.len() >= cfg.batch_max
            || now.duration_since(front.enqueued) >= cfg.batch_deadline;
        if !ready || !eligible(q, key, cfg, st.stopping, now, worker, workers) {
            continue;
        }
        let vt = st.vt.get(&key).copied().unwrap_or(st.vclock);
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

/// The next instant any queued request becomes takeable by worker `worker`
/// (for its timed wait): its own keys' requests at one deadline, other
/// workers' at the steal grace.
fn earliest_wakeup(
    st: &QueueState,
    cfg: &ServiceConfig,
    worker: usize,
    workers: usize,
) -> Option<Instant> {
    st.pending
        .iter()
        .filter_map(|(&key, q)| {
            let front = q.front()?;
            let factor = if preferred_worker(key, workers) == worker { 1 } else { STEAL_GRACE };
            Some(front.enqueued + cfg.batch_deadline * factor)
        })
        .min()
}

fn worker_loop(shared: &Shared, worker: usize) {
    // The worker's warm-simulator cache: one engine per key this worker has
    // served, carrying slab state (and the event-driven worklist) across
    // batches. Dropped — and with it all carried state — when the worker
    // exits at shutdown.
    let mut warm_sims: HashMap<ModelKey, WarmEntry> = HashMap::new();
    let workers = shared.cfg.workers;
    loop {
        let batch = {
            let mut st = shared.state.lock().expect("service queue poisoned");
            loop {
                let now = Instant::now();
                if let Some(key) = pick_ready_key(&st, &shared.cfg, now, worker, workers) {
                    let q = st.pending.get_mut(&key).expect("picked key exists");
                    let n = q.len().min(shared.cfg.batch_max);
                    let reqs: Vec<Pending> = q.drain(..n).collect();
                    if q.is_empty() {
                        st.pending.remove(&key);
                    }
                    st.total -= n;
                    let cost: u64 = reqs.iter().map(|r| r.cost).sum();
                    st.charge(key, cost, shared.cfg.weight(key));
                    shared.space_ready.notify_all();
                    break Some((key, reqs));
                }
                if st.stopping {
                    debug_assert_eq!(st.total, 0, "stopping with no ready key means empty queues");
                    break None;
                }
                match earliest_wakeup(&st, &shared.cfg, worker, workers) {
                    Some(when) => {
                        let wait = when.saturating_duration_since(Instant::now());
                        let (guard, _) = shared
                            .work_ready
                            .wait_timeout(st, wait)
                            .expect("service queue poisoned");
                        st = guard;
                    }
                    None => {
                        st = shared.work_ready.wait(st).expect("service queue poisoned");
                    }
                }
            }
        };
        let Some((key, reqs)) = batch else { return };
        run_one_batch(shared, key, reqs, &mut warm_sims);
    }
}

/// One worker's warm engine for one key: the lifetime-free simulator next
/// to the `Arc` that owns the netlist it reattaches every batch.
struct WarmEntry {
    entry: Arc<crate::registry::ModelEntry>,
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
            // The warm path: reuse (or seed, first time) this worker's
            // long-lived slab engine for the key. Reattach is a pure move —
            // no per-batch simulator construction, and the event-driven
            // worklist keeps its clean state from the previous batch.
            let warm = warm_sims.entry(key).or_insert_with(|| {
                let mut sim = entry.simulator();
                if let Some(w) = shared.cfg.lane_width {
                    sim.set_lane_width(w);
                }
                sim.set_event_driven(shared.cfg.event_driven);
                if shared.cfg.sim_profile {
                    let profile: Arc<dyn SimProfile> = Arc::clone(shard.profile()) as _;
                    sim.set_profile(Some(profile));
                }
                WarmEntry { entry: Arc::clone(&entry), sim: sim.warm() }
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
    if shared.traces.enabled() {
        // One trace per batch, for its oldest request — the worst queue
        // wait this batch inflicted.
        let now = Instant::now();
        let queue_wait =
            oldest.map_or(Duration::ZERO, |enq| drained.saturating_duration_since(enq));
        let total = oldest.map_or(Duration::ZERO, |enq| now.saturating_duration_since(enq));
        if total >= shared.cfg.trace_slow {
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
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pe_core::pipeline::RunOptions;
    use pe_core::styles::DesignStyle;
    use pe_data::UciProfile;

    fn cardio_seq() -> ModelKey {
        ModelKey::new(UciProfile::Cardio, DesignStyle::SequentialSvm)
    }

    fn test_registry() -> Arc<ModelRegistry> {
        Arc::new(ModelRegistry::new(RunOptions::default()))
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
            let m = svc.metrics();
            assert_eq!(m.verify_mismatches, 0);
            assert_eq!(m.served, 5);
            svc.shutdown();
            assert!(svc.is_stopped());
        }
    }

    #[test]
    fn ragged_batch_flushes_at_the_deadline() {
        let registry = test_registry();
        let key = cardio_seq();
        let xs = samples(&registry, key, 3);
        let svc = Service::start(
            Arc::clone(&registry),
            ServiceConfig {
                mode: ServeMode::Verify,
                batch_deadline: Duration::from_millis(5),
                ..ServiceConfig::default()
            },
        );
        let t0 = Instant::now();
        let results = svc.classify_batch(key, &xs);
        assert!(results.iter().all(Result::is_ok));
        // 3 requests never fill a 64-lane batch: only the deadline flushes
        // them. Generous upper bound to stay robust on loaded CI machines.
        assert!(t0.elapsed() >= Duration::from_millis(4), "flushed before the deadline");
        assert!(t0.elapsed() < Duration::from_secs(5));
        let m = svc.metrics();
        assert_eq!(m.served, 3);
        assert_eq!(m.batches, 1, "3 requests must coalesce into one ragged batch");
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
        // One worker, capacity 2, a deadline long enough that nothing
        // flushes while we overfill.
        let svc = Service::start(
            Arc::clone(&registry),
            ServiceConfig {
                workers: 1,
                queue_capacity: 2,
                batch_deadline: Duration::from_secs(5),
                ..ServiceConfig::default()
            },
        );
        let t1 = svc.try_submit(key, &xs[0]).expect("first fits");
        let t2 = svc.try_submit(key, &xs[1]).expect("second fits");
        let err = svc.try_submit(key, &xs[2]).unwrap_err();
        assert_eq!(err, ServeError::Busy);
        assert_eq!(svc.metrics().rejected, 1);
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
            ServiceConfig {
                mode: ServeMode::Verify,
                workers: 2,
                batch_deadline: Duration::from_millis(50),
                ..ServiceConfig::default()
            },
        );
        let results = svc.classify_batch(key, &xs);
        assert!(results.iter().all(Result::is_ok));
        let m = svc.metrics();
        assert_eq!(m.served, 128);
        assert_eq!(m.verify_mismatches, 0);
        assert!(m.batches <= 4, "128 requests should land in few batches, got {}", m.batches);
        assert!(m.batch_fill > 0.5, "fill {}", m.batch_fill);
    }

    /// A synthetic pending request for scheduler-level tests (no service,
    /// no registry — pure queue mechanics).
    fn synthetic(enqueued: Instant, cost: u64) -> Pending {
        let (tx, _rx) = mpsc::channel();
        Pending { x_q: Vec::new(), enqueued, cost, tx }
    }

    /// Drains one picked batch exactly like the worker loop does (without
    /// executing it) and returns the key, or None when nothing is ready.
    fn drain_one(st: &mut QueueState, cfg: &ServiceConfig, worker: usize) -> Option<ModelKey> {
        let key = pick_ready_key(st, cfg, Instant::now(), worker, cfg.workers)?;
        let q = st.pending.get_mut(&key).expect("picked key exists");
        let n = q.len().min(cfg.batch_max);
        let cost: u64 = q.drain(..n).map(|r| r.cost).sum();
        if q.is_empty() {
            st.pending.remove(&key);
        }
        st.total -= n;
        st.charge(key, cost, cfg.weight(key));
        Some(key)
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
        let cfg = ServiceConfig {
            batch_max: 4,
            batch_deadline: Duration::ZERO, // everything queued is ready
            workers: 1,
            ..ServiceConfig::default()
        };
        let mut st = QueueState::default();
        let now = Instant::now();
        for _ in 0..32 * cfg.batch_max {
            st.push(flood, synthetic(now, 1));
        }
        // The flood has already been served for a while before the trickle
        // joins — its virtual time is well ahead of the clock.
        for _ in 0..4 {
            assert_eq!(drain_one(&mut st, &cfg, 0), Some(flood));
        }
        let mut gaps = Vec::new();
        for _ in 0..8 {
            st.push(trickle, synthetic(Instant::now(), 1));
            let mut gap = 0;
            loop {
                let picked = drain_one(&mut st, &cfg, 0).expect("queues are non-empty");
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
    fn weights_scale_the_service_share() {
        let a = ModelKey::parse("cardio:par").unwrap();
        let b = ModelKey::parse("cardio:seq").unwrap();
        let cfg = ServiceConfig {
            batch_max: 4,
            batch_deadline: Duration::ZERO,
            workers: 1,
            weights: vec![(b, 2.0)],
            ..ServiceConfig::default()
        };
        assert_eq!(cfg.weight(a), 1.0);
        assert_eq!(cfg.weight(b), 2.0);
        let mut st = QueueState::default();
        let now = Instant::now();
        let total = 30 * cfg.batch_max;
        for _ in 0..total {
            st.push(a, synthetic(now, 1));
            st.push(b, synthetic(now, 1));
        }
        let (mut served_a, mut served_b) = (0, 0);
        // Sample mid-contention: while both floods are pending, the weight-2
        // key must get ~2x the drains of the weight-1 key.
        for _ in 0..30 {
            match drain_one(&mut st, &cfg, 0) {
                Some(k) if k == a => served_a += 1,
                Some(k) if k == b => served_b += 1,
                other => panic!("unexpected pick {other:?}"),
            }
        }
        assert!(
            served_b >= 2 * served_a - 1 && served_b <= 2 * served_a + 2,
            "weight 2.0 should double the share: a={served_a} b={served_b}"
        );
    }

    #[test]
    fn affinity_steals_full_batches_but_gives_ragged_ones_grace() {
        let key = cardio_seq();
        let cfg = ServiceConfig {
            batch_max: 4,
            batch_deadline: Duration::from_millis(10),
            workers: 4,
            ..ServiceConfig::default()
        };
        let owner = preferred_worker(key, cfg.workers);
        let thief = (owner + 1) % cfg.workers;
        let now = Instant::now();

        // A ragged batch past one deadline: the owner takes it, the thief
        // must wait for the steal grace.
        let expired = now.checked_sub(Duration::from_millis(11)).expect("clock has history");
        let mut st = QueueState::default();
        st.push(key, synthetic(expired, 1));
        assert_eq!(pick_ready_key(&st, &cfg, now, owner, cfg.workers), Some(key));
        assert_eq!(pick_ready_key(&st, &cfg, now, thief, cfg.workers), None);

        // Past STEAL_GRACE deadlines the thief is allowed in (owner stuck).
        let stale = now.checked_sub(Duration::from_millis(25)).expect("clock has history");
        let mut st = QueueState::default();
        st.push(key, synthetic(stale, 1));
        assert_eq!(pick_ready_key(&st, &cfg, now, thief, cfg.workers), Some(key));

        // A full batch is stealable immediately, fresh or not.
        let mut st = QueueState::default();
        for _ in 0..cfg.batch_max {
            st.push(key, synthetic(now, 1));
        }
        assert_eq!(pick_ready_key(&st, &cfg, now, thief, cfg.workers), Some(key));

        // Shutdown drains everything through anyone.
        let mut st = QueueState::default();
        st.push(key, synthetic(now, 1));
        st.stopping = true;
        assert_eq!(pick_ready_key(&st, &cfg, now, thief, cfg.workers), Some(key));
    }

    #[test]
    fn preferred_worker_is_stable_and_in_range() {
        for key in ModelKey::table1_grid() {
            let w = preferred_worker(key, 8);
            assert!(w < 8);
            assert_eq!(w, preferred_worker(key, 8), "affinity must be deterministic");
        }
        assert_eq!(preferred_worker(cardio_seq(), 1), 0);
    }

    #[test]
    fn warm_and_cold_serving_agree_with_the_golden_model() {
        // The same repeated low-activity stream through a warm event-driven
        // service and a warm dense one: replies identical to the integer
        // model on both and zero verify mismatches (the real warm pin —
        // identical toggle accounting — lives in the serving_equivalence
        // suite).
        let registry = test_registry();
        let key = cardio_seq();
        let entry = registry.get(key);
        let base = entry.sample_requests(1).remove(0);
        let xs: Vec<Vec<f64>> = (0..96).map(|_| base.clone()).collect();
        let want: Vec<_> =
            xs.iter().map(|x| Ok(entry.predict_int(&entry.quantize_input(x)))).collect();
        for event_driven in [true, false] {
            let svc = Service::start(
                Arc::clone(&registry),
                ServiceConfig {
                    mode: ServeMode::Verify,
                    event_driven,
                    workers: 1,
                    batch_deadline: Duration::from_millis(1),
                    ..ServiceConfig::default()
                },
            );
            // Several rounds so the warm path actually carries state across
            // run_batch calls.
            for round in 0..3 {
                assert_eq!(
                    svc.classify_batch(key, &xs),
                    want,
                    "events={event_driven} round {round}"
                );
            }
            let m = svc.metrics();
            assert_eq!(m.verify_mismatches, 0, "events={event_driven}");
            assert_eq!(m.served, 3 * 96);
            svc.shutdown();
        }
    }

    #[test]
    fn widened_batch_max_serves_one_batch_in_one_sweep() {
        // batch_max beyond 64 used to split into several 64-lane chunks; at
        // an 8-word slab a 300-request batch is a single 512-lane sweep.
        let registry = test_registry();
        let key = cardio_seq();
        let xs = samples(&registry, key, 300);
        let svc = Service::start(
            Arc::clone(&registry),
            ServiceConfig {
                mode: ServeMode::Verify,
                batch_max: 512,
                lane_width: Some(LaneWidth::W8),
                batch_deadline: Duration::from_millis(20),
                ..ServiceConfig::default()
            },
        );
        let results = svc.classify_batch(key, &xs);
        assert!(results.iter().all(Result::is_ok));
        let m = svc.metrics();
        assert_eq!(m.served, 300);
        assert_eq!(m.verify_mismatches, 0);
        assert_eq!(m.lane_width, 8, "stats must surface the slab width");
        assert!(m.batches <= 2, "300 requests at batch_max 512, got {} batches", m.batches);
        assert!(m.sweeps <= 2, "one 512-lane sweep should cover 300 lanes, got {}", m.sweeps);
        assert!(m.lane_fill > 0.5, "lane_fill {} must be against 512, not 64", m.lane_fill);
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
        let m = svc.metrics();
        assert_eq!(m.batches, 2, "two full 64-request batches");
        assert_eq!(m.sweeps, 2);
        assert_eq!(m.lane_width, 1, "a 64-request batch sweeps one word");
        assert_eq!(m.lane_fill, 1.0);
        svc.shutdown();
    }
}
