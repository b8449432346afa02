//! The threaded HTTP server: a bounded worker pool over an
//! [`AsrsEngine`].
//!
//! The topology mirrors the engine's batch executor: one acceptor thread
//! feeds accepted connections into a *bounded* channel, and a fixed pool of
//! workers drains it, each serving whole connections (keep-alive included).
//! The bound is the admission valve — when every worker is busy and the
//! queue is full, the acceptor blocks and excess load piles up in the
//! kernel's TCP backlog instead of ballooning memory in user space.

use crate::http::{self, HttpRequest};
use crate::metrics::{MetricsSnapshot, ServerMetrics, SweeperSnapshot};
use asrs_core::sync::Mutex;
use asrs_core::{AsrsEngine, AsrsError, QueryRequest};
use asrs_data::SpatialObject;
use asrs_persist::PersistHandle;
use serde::{Deserialize, Serialize};
use std::io::{self, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sizing of the serving topology.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Worker threads serving connections.  Defaults to the available
    /// parallelism, capped at 8 — queries themselves may fan out further
    /// (batch requests use the engine's own worker pool).
    pub workers: usize,
    /// Bound of the accepted-connection queue; the acceptor blocks when it
    /// is full (admission control by backpressure).
    pub backlog: usize,
    /// Per-connection read timeout; an idle keep-alive connection is closed
    /// after this long, which also bounds how long shutdown can take.
    pub read_timeout: Duration,
    /// Whole-request read deadline: the total wall-clock time one request
    /// (head + body) may take to arrive.  The per-read socket timeout only
    /// bounds individual syscalls, so without this a client trickling one
    /// byte per timeout window could pin a pool worker indefinitely.
    pub request_deadline: Duration,
    /// Cadence of the background maintenance thread, which expires TTL'd
    /// objects (`sweep_expired`) and takes persistence snapshots when the
    /// write-ahead log outgrows its compaction threshold.  `None` disables
    /// the thread; clients must then `POST /sweep` (and `POST /snapshot`)
    /// themselves.  Defaults to every 500 ms.
    pub sweep_interval: Option<Duration>,
    /// Server-side execution deadline applied to `/query` requests that do
    /// not carry their own budget: the request is submitted with this
    /// budget, so a query that cannot finish in time answers 408 instead
    /// of pinning a pool worker.  A client-supplied budget always wins.
    /// `None` (the default) leaves budget-less queries unbounded.
    pub query_deadline: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        let workers = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(2)
            .min(8);
        Self {
            workers,
            backlog: workers * 4,
            read_timeout: Duration::from_secs(5),
            request_deadline: Duration::from_secs(30),
            sweep_interval: Some(Duration::from_millis(500)),
            query_deadline: None,
        }
    }
}

/// A bound-but-not-yet-serving server.  [`AsrsServer::start`] spawns the
/// threads and returns the [`ServerHandle`] controlling them.
#[derive(Debug)]
pub struct AsrsServer {
    listener: TcpListener,
    engine: AsrsEngine,
    config: ServerConfig,
    persist: Option<Arc<PersistHandle>>,
}

impl AsrsServer {
    /// Binds to `addr` (use port 0 for an ephemeral port) without serving
    /// yet.
    pub fn bind<A: ToSocketAddrs>(
        engine: AsrsEngine,
        addr: A,
        config: ServerConfig,
    ) -> io::Result<Self> {
        Ok(Self {
            listener: TcpListener::bind(addr)?,
            engine,
            config,
            persist: None,
        })
    }

    /// Attaches the engine's persistence handle: enables `POST /snapshot`,
    /// surfaces the WAL/snapshot counters under `/metrics`, and lets the
    /// maintenance thread snapshot in the background when the write-ahead
    /// log outgrows its compaction threshold.
    pub fn with_persistence(mut self, persist: Arc<PersistHandle>) -> Self {
        self.persist = Some(persist);
        self
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Spawns the acceptor, worker, and maintenance threads and starts
    /// serving.
    pub fn start(self) -> io::Result<ServerHandle> {
        let addr = self.listener.local_addr()?;
        let shared = Arc::new(Shared {
            engine: self.engine,
            metrics: ServerMetrics::new(),
            shutdown: AtomicBool::new(false),
            read_timeout: self.config.read_timeout,
            request_deadline: self.config.request_deadline,
            query_deadline: self.config.query_deadline,
            persist: self.persist,
            sweeper: self.config.sweep_interval.map(SweeperState::new),
        });
        let (tx, rx): (SyncSender<TcpStream>, Receiver<TcpStream>) =
            sync_channel(self.config.backlog.max(1));
        let rx = Arc::new(Mutex::new(rx));

        let mut threads = Vec::with_capacity(self.config.workers + 1);
        for _ in 0..self.config.workers.max(1) {
            let shared = Arc::clone(&shared);
            let rx = Arc::clone(&rx);
            threads.push(std::thread::spawn(move || worker_loop(&shared, &rx)));
        }
        let acceptor_shared = Arc::clone(&shared);
        let listener = self.listener;
        threads.push(std::thread::spawn(move || {
            accept_loop(&acceptor_shared, &listener, tx);
        }));
        if shared.sweeper.is_some() {
            let sweeper_shared = Arc::clone(&shared);
            threads.push(std::thread::spawn(move || {
                maintenance_loop(&sweeper_shared)
            }));
        }

        Ok(ServerHandle {
            addr,
            shared,
            threads,
        })
    }
}

/// Controls a running server: address, metrics, and shutdown.  Dropping
/// the handle shuts the server down.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the server listens on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A metrics snapshot, as `GET /metrics` would serve it.
    pub fn metrics(&self) -> MetricsSnapshot {
        full_metrics(&self.shared)
    }

    /// Stops accepting, drains queued connections, and joins every thread.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.shared.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor out of its blocking accept; it observes the
        // flag, stops accepting and drops the channel sender, which lets
        // the workers drain and exit.  An unspecified bind address
        // (0.0.0.0 / ::) is not connectable on every platform, so the
        // wake-up targets loopback on the same port, with a timeout so a
        // firewalled self-connect cannot hang shutdown.
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match self.addr {
                SocketAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
        for thread in self.threads.drain(..) {
            let _ = thread.join();
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[derive(Debug)]
struct Shared {
    engine: AsrsEngine,
    metrics: ServerMetrics,
    shutdown: AtomicBool,
    read_timeout: Duration,
    request_deadline: Duration,
    query_deadline: Option<Duration>,
    persist: Option<Arc<PersistHandle>>,
    sweeper: Option<SweeperState>,
}

/// Counters of the background maintenance thread.
#[derive(Debug)]
struct SweeperState {
    interval: Duration,
    sweeps: AtomicU64,
    swept_objects: AtomicU64,
    sweep_errors: AtomicU64,
    sweeps_skipped: AtomicU64,
    snapshots_taken: AtomicU64,
    snapshot_errors: AtomicU64,
}

impl SweeperState {
    fn new(interval: Duration) -> Self {
        Self {
            interval,
            sweeps: AtomicU64::new(0),
            swept_objects: AtomicU64::new(0),
            sweep_errors: AtomicU64::new(0),
            sweeps_skipped: AtomicU64::new(0),
            snapshots_taken: AtomicU64::new(0),
            snapshot_errors: AtomicU64::new(0),
        }
    }

    fn snapshot(&self) -> SweeperSnapshot {
        SweeperSnapshot {
            interval_ms: self.interval.as_millis() as u64,
            sweeps: self.sweeps.load(Ordering::Relaxed),
            swept_objects: self.swept_objects.load(Ordering::Relaxed),
            sweep_errors: self.sweep_errors.load(Ordering::Relaxed),
            sweeps_skipped: self.sweeps_skipped.load(Ordering::Relaxed),
            snapshots_taken: self.snapshots_taken.load(Ordering::Relaxed),
            snapshot_errors: self.snapshot_errors.load(Ordering::Relaxed),
        }
    }
}

/// Granularity of the maintenance thread's shutdown poll: sleeps are
/// chopped into slices this long so a long sweep interval cannot delay
/// shutdown by more than one slice.
const MAINTENANCE_POLL: Duration = Duration::from_millis(50);

/// The background maintenance loop: every `sweep_interval`, expire TTL'd
/// objects, and — when persistence is attached and its write-ahead log has
/// outgrown the compaction threshold — snapshot the current generation.
/// Both run off the request path: queries and mutations never wait on a
/// sweep or a snapshot (snapshots serialize an `Arc`'d immutable
/// generation).
///
/// The timer sweep yields to write traffic: every application commit
/// batch pops the then-due TTL expiries and folds them into its own
/// generation (see `asrs_core::mutate`), so when the generation advanced
/// since the previous tick the expiries already rode those batches and
/// the tick skips its sweep.  The timer only fires on quiet intervals —
/// its original job — which keeps an append-heavy server from paying a
/// redundant mutator acquisition (and publish) every `sweep_interval`.
fn maintenance_loop(shared: &Shared) {
    let Some(sweeper) = shared.sweeper.as_ref() else {
        return;
    };
    let mut last = Instant::now();
    let mut last_generation = shared.engine.generation();
    while !shared.shutdown.load(Ordering::SeqCst) {
        std::thread::sleep(MAINTENANCE_POLL.min(sweeper.interval));
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        if last.elapsed() < sweeper.interval {
            continue;
        }
        last = Instant::now();
        let generation = shared.engine.generation();
        if generation != last_generation {
            last_generation = generation;
            sweeper.sweeps_skipped.fetch_add(1, Ordering::Relaxed);
            maybe_snapshot(shared, sweeper);
            continue;
        }
        match shared.engine.sweep_expired() {
            Ok(receipts) => {
                sweeper.sweeps.fetch_add(1, Ordering::Relaxed);
                sweeper
                    .swept_objects
                    .fetch_add(receipts.len() as u64, Ordering::Relaxed);
            }
            Err(_) => {
                sweeper.sweep_errors.fetch_add(1, Ordering::Relaxed);
            }
        }
        last_generation = shared.engine.generation();
        maybe_snapshot(shared, sweeper);
    }
}

/// Snapshot the current generation when the write-ahead log has outgrown
/// the compaction threshold.  Runs on every maintenance tick, whether or
/// not the tick swept.
fn maybe_snapshot(shared: &Shared, sweeper: &SweeperState) {
    if let Some(persist) = shared.persist.as_ref() {
        if persist.snapshot_due() {
            match persist.snapshot_now(&shared.engine.export_state()) {
                Ok(_) => {
                    sweeper.snapshots_taken.fetch_add(1, Ordering::Relaxed);
                }
                Err(_) => {
                    sweeper.snapshot_errors.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }
}

fn accept_loop(shared: &Shared, listener: &TcpListener, tx: SyncSender<TcpStream>) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                if tx.send(stream).is_err() {
                    break;
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                // Persistent accept errors (fd exhaustion, EMFILE) return
                // instantly; back off briefly instead of spinning a core,
                // which would worsen exactly the overload that caused it.
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
    // Dropping `tx` here ends the workers once the queue drains.
}

fn worker_loop(shared: &Shared, rx: &Mutex<Receiver<TcpStream>>) {
    loop {
        // A poisoned queue lock means a sibling worker panicked holding
        // it; exiting is the same shutdown path as a closed channel.  The
        // guard is released before serving so workers dequeue in parallel.
        // interlock:allow(blocking recv is the worker's idle wait; the guard spans only the dequeue, never the serve)
        let received = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let stream = match received {
            Ok(stream) => stream,
            Err(_) => return,
        };
        serve_connection(shared, stream);
    }
}

/// Serves one connection until the client closes, asks to close, breaks
/// framing, or the server shuts down.
fn serve_connection(shared: &Shared, stream: TcpStream) {
    if stream.set_read_timeout(Some(shared.read_timeout)).is_err() {
        return;
    }
    // See `HttpClient::connect`: disable Nagle so small JSON responses are
    // not held hostage to the peer's delayed ACKs.
    let _ = stream.set_nodelay(true);
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    loop {
        match http::read_request(&mut reader, shared.request_deadline) {
            Ok(Some(request)) => {
                let keep_alive = request.keep_alive() && !shared.shutdown.load(Ordering::SeqCst);
                // A panicking handler must cost the client a 500, never a
                // pool worker: an unwinding worker thread would die
                // silently and the pool would shrink request by request —
                // the same invariant the engine's batch slots uphold.
                let (status, body) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    route(shared, &request)
                }))
                .unwrap_or_else(|_| {
                    // Attribute the failure to the query counters only when
                    // a query actually failed — the counter is documented
                    // as "/query requests answered 5xx".
                    if request.path.split('?').next() == Some("/query") {
                        shared.metrics.record_query_error(500);
                    }
                    (500, error_body("internal", "request handler panicked"))
                });
                if http::write_response(&mut writer, status, &body, keep_alive).is_err() {
                    return;
                }
                if !keep_alive {
                    return;
                }
            }
            // Clean end-of-stream between requests.
            Ok(None) => return,
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                shared.metrics.record_protocol_error();
                let body = error_body("malformed-request", &e.to_string());
                let _ = http::write_response(&mut writer, 400, &body, false);
                return;
            }
            // Timeout or reset: close (an idle keep-alive client simply
            // reconnects).
            Err(_) => return,
        }
    }
}

fn route(shared: &Shared, request: &HttpRequest) -> (u16, String) {
    shared.metrics.record_request();
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("POST", "/query") => handle_query(shared, &request.body),
        // /explain answers GET for symmetry with /metrics, but the request
        // payload travels in the body either way.
        ("GET" | "POST", "/explain") => handle_explain(shared, &request.body),
        ("POST", "/append") => handle_append(shared, &request.body),
        ("POST", "/append_batch") => handle_append_batch(shared, &request.body),
        ("DELETE", p) if p.strip_prefix("/objects/").is_some() => {
            handle_delete(shared, p.strip_prefix("/objects/").unwrap_or(""))
        }
        ("POST", "/sweep") => handle_sweep(shared),
        ("POST", "/snapshot") => handle_snapshot(shared),
        ("GET", "/metrics") => (200, serde::json::to_string(&full_metrics(shared))),
        ("GET", "/audit") => handle_audit(shared),
        ("GET", "/healthz") => (200, "{\"status\":\"ok\"}".to_string()),
        (
            _,
            "/query" | "/explain" | "/metrics" | "/audit" | "/healthz" | "/append"
            | "/append_batch" | "/sweep" | "/snapshot",
        ) => (
            405,
            error_body(
                "method-not-allowed",
                &format!("{} does not accept {}", path, request.method),
            ),
        ),
        (_, p) if p.starts_with("/objects/") => (
            405,
            error_body(
                "method-not-allowed",
                &format!("{} does not accept {}", path, request.method),
            ),
        ),
        _ => (
            404,
            error_body("not-found", &format!("no route for {path}")),
        ),
    }
}

/// Assembles the full `/metrics` payload from every counter source.
fn full_metrics(shared: &Shared) -> MetricsSnapshot {
    shared.metrics.snapshot(
        shared.engine.cache_stats(),
        shared.engine.shard_request_counts(),
        shared.engine.mutation_stats(),
        shared.sweeper.as_ref().map(SweeperState::snapshot),
        shared.persist.as_ref().map(|p| p.stats()),
    )
}

fn parse_request_body(body: &[u8]) -> Result<QueryRequest, String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not UTF-8".to_string())?;
    serde::json::from_str(text).map_err(|e| e.to_string())
}

fn handle_query(shared: &Shared, body: &[u8]) -> (u16, String) {
    let mut request = match parse_request_body(body) {
        Ok(request) => request,
        Err(message) => {
            shared.metrics.record_query_error(400);
            return (400, error_body("invalid-json", &message));
        }
    };
    // The server-side deadline backstops clients that sent no budget of
    // their own; the engine's budget machinery then turns an over-long
    // query into `DeadlineExceeded`, which maps to 408 below.
    if let Some(deadline) = shared.query_deadline {
        if request.budget_ms().is_none() {
            request = request.with_budget_ms(deadline.as_millis().max(1) as u64);
        }
    }
    match shared.engine.submit(&request) {
        Ok(response) => {
            shared.metrics.record_query_ok(&response.stats);
            (200, serde::json::to_string(&response))
        }
        Err(error) => {
            let (status, kind) = status_for(&error);
            shared.metrics.record_query_error(status);
            (status, error_body(kind, &error.to_string()))
        }
    }
}

/// The `POST /append` payload: the object to insert plus an optional
/// time-to-live in milliseconds (expired objects are removed by
/// `POST /sweep`).
#[derive(Debug, Deserialize)]
struct AppendBody {
    object: SpatialObject,
    ttl_ms: Option<u64>,
}

fn handle_append(shared: &Shared, body: &[u8]) -> (u16, String) {
    let parsed: Result<AppendBody, String> = std::str::from_utf8(body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| serde::json::from_str(text).map_err(|e| e.to_string()));
    let append = match parsed {
        Ok(append) => append,
        Err(message) => {
            shared.metrics.record_mutation_error(400);
            return (400, error_body("invalid-json", &message));
        }
    };
    let result = match append.ttl_ms {
        Some(ms) => shared
            .engine
            .append_with_ttl(append.object, Duration::from_millis(ms)),
        None => shared.engine.append(append.object),
    };
    match result {
        Ok(receipt) => {
            shared.metrics.record_mutation_ok();
            shared.metrics.record_commit(std::slice::from_ref(&receipt));
            (200, serde::json::to_string(&receipt))
        }
        Err(error) => {
            let (status, kind) = status_for(&error);
            shared.metrics.record_mutation_error(status);
            (status, error_body(kind, &error.to_string()))
        }
    }
}

/// The `POST /append_batch` payload: a whole batch of appends (each with
/// its optional TTL) committed atomically — one published generation, one
/// WAL fsync, all-or-nothing validation.
#[derive(Debug, Deserialize)]
struct AppendBatchBody {
    items: Vec<AppendBody>,
}

/// The `POST /append_batch` response: one receipt per appended object,
/// all sharing the batch's generation.
#[derive(Debug, Serialize)]
struct AppendBatchReceipts {
    receipts: Vec<asrs_core::MutationReceipt>,
}

fn handle_append_batch(shared: &Shared, body: &[u8]) -> (u16, String) {
    let parsed: Result<AppendBatchBody, String> = std::str::from_utf8(body)
        .map_err(|_| "body is not UTF-8".to_string())
        .and_then(|text| serde::json::from_str(text).map_err(|e| e.to_string()));
    let batch = match parsed {
        Ok(batch) => batch,
        Err(message) => {
            shared.metrics.record_mutation_error(400);
            return (400, error_body("invalid-json", &message));
        }
    };
    let items: Vec<_> = batch
        .items
        .into_iter()
        .map(|a| (a.object, a.ttl_ms.map(Duration::from_millis)))
        .collect();
    match shared.engine.append_batch(items) {
        Ok(receipts) => {
            shared.metrics.record_mutation_ok();
            shared.metrics.record_batch_ingest(receipts.len() as u64);
            shared.metrics.record_commit(&receipts);
            (
                200,
                serde::json::to_string(&AppendBatchReceipts { receipts }),
            )
        }
        Err(error) => {
            let (status, kind) = status_for(&error);
            shared.metrics.record_mutation_error(status);
            (status, error_body(kind, &error.to_string()))
        }
    }
}

fn handle_delete(shared: &Shared, id: &str) -> (u16, String) {
    let Ok(id) = id.parse::<u64>() else {
        shared.metrics.record_mutation_error(400);
        return (
            400,
            error_body("invalid-object-id", &format!("{id:?} is not a u64 id")),
        );
    };
    match shared.engine.remove(id) {
        Ok(receipt) => {
            shared.metrics.record_mutation_ok();
            shared.metrics.record_commit(std::slice::from_ref(&receipt));
            (200, serde::json::to_string(&receipt))
        }
        Err(error) => {
            let (status, kind) = status_for(&error);
            shared.metrics.record_mutation_error(status);
            (status, error_body(kind, &error.to_string()))
        }
    }
}

fn handle_sweep(shared: &Shared) -> (u16, String) {
    match shared.engine.sweep_expired() {
        Ok(receipts) => {
            shared.metrics.record_mutation_ok();
            shared.metrics.record_commit(&receipts);
            (
                200,
                serde::json::to_string(&SweepBody { expired: receipts }),
            )
        }
        Err(error) => {
            let (status, kind) = status_for(&error);
            shared.metrics.record_mutation_error(status);
            (status, error_body(kind, &error.to_string()))
        }
    }
}

#[derive(Debug, Serialize)]
struct SweepBody {
    expired: Vec<asrs_core::MutationReceipt>,
}

/// `GET /audit`: run the deep invariant audit over the current generation.
/// 200 with the report when every check passes; 500 with the same report
/// when any invariant is violated, so probes and dashboards can alert on
/// status alone while operators read the findings.
fn handle_audit(shared: &Shared) -> (u16, String) {
    let report = shared.engine.audit();
    let status = if report.is_clean() { 200 } else { 500 };
    (status, serde::json::to_string(&report))
}

/// `POST /snapshot`: persist the engine's current generation immediately
/// (the background thread otherwise snapshots only when the WAL outgrows
/// its threshold).  409 when the server runs without persistence.
fn handle_snapshot(shared: &Shared) -> (u16, String) {
    let Some(persist) = shared.persist.as_ref() else {
        return (
            409,
            error_body(
                "persistence-not-configured",
                "the server was started without a persistence directory",
            ),
        );
    };
    match persist.snapshot_now(&shared.engine.export_state()) {
        Ok(report) => (200, serde::json::to_string(&report)),
        Err(error) => (500, error_body("persistence", &error.to_string())),
    }
}

fn handle_explain(shared: &Shared, body: &[u8]) -> (u16, String) {
    let request = match parse_request_body(body) {
        Ok(request) => request,
        Err(message) => return (400, error_body("invalid-json", &message)),
    };
    match shared.engine.plan(&request) {
        Ok(plan) => {
            shared.metrics.record_plan_explained();
            let body = ExplainBody {
                backend: plan.backend.name().to_string(),
                operation: plan.operation.to_string(),
                reason: plan.reason.to_string(),
                explanation: plan.explain(),
                budget_ms: plan.budget_ms,
                span_ratio: plan.span_ratio,
                estimated_work_ds_search: plan.estimates.ds_search,
                estimated_work_gi_ds: plan.estimates.gi_ds,
                estimated_work_naive: plan.estimates.naive,
                shard_fan_out: plan.fan_out,
            };
            (200, serde::json::to_string(&body))
        }
        Err(error) => {
            let (status, kind) = status_for(&error);
            (status, error_body(kind, &error.to_string()))
        }
    }
}

/// Maps an engine error to its HTTP status and a stable machine-readable
/// kind: 408 for a spent budget, 429 for a breached admission ceiling,
/// 404/409 for mutations addressing the wrong id, 500 for engine-internal
/// failures, 400 for everything the client phrased wrong.
pub fn status_for(error: &AsrsError) -> (u16, &'static str) {
    match error {
        AsrsError::DeadlineExceeded { .. } => (408, "deadline-exceeded"),
        AsrsError::CostCeilingExceeded { .. } => (429, "cost-ceiling-exceeded"),
        AsrsError::UnknownObjectId { .. } => (404, "unknown-object-id"),
        AsrsError::DuplicateObjectId { .. } => (409, "duplicate-object-id"),
        AsrsError::Schema(_) => (400, "schema-violation"),
        AsrsError::NonFiniteLocation { .. } => (400, "non-finite-location"),
        AsrsError::Persistence { .. } => (500, "persistence"),
        AsrsError::Internal { .. } => (500, "internal"),
        AsrsError::Query(_) => (400, "invalid-query"),
        AsrsError::Config(_) => (400, "invalid-config"),
        AsrsError::EmptyDataset => (400, "empty-dataset"),
        AsrsError::IndexRequired { .. } => (400, "index-required"),
        AsrsError::IndexMismatch { .. } => (400, "index-mismatch"),
        AsrsError::InvalidTopK => (400, "invalid-top-k"),
        AsrsError::InvalidRegionSize { .. } => (400, "invalid-region-size"),
    }
}

#[derive(Debug, Serialize)]
struct ErrorBody {
    error: ErrorDetail,
}

#[derive(Debug, Serialize)]
struct ErrorDetail {
    kind: String,
    message: String,
}

fn error_body(kind: &str, message: &str) -> String {
    serde::json::to_string(&ErrorBody {
        error: ErrorDetail {
            kind: kind.to_string(),
            message: message.to_string(),
        },
    })
}

#[derive(Debug, Serialize)]
struct ExplainBody {
    backend: String,
    operation: String,
    reason: String,
    explanation: String,
    budget_ms: Option<u64>,
    span_ratio: Option<(f64, f64)>,
    estimated_work_ds_search: f64,
    estimated_work_gi_ds: Option<f64>,
    estimated_work_naive: f64,
    shard_fan_out: Option<asrs_core::ShardFanOut>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_statuses_map_by_family() {
        assert_eq!(
            status_for(&AsrsError::DeadlineExceeded {
                budget: Duration::ZERO
            })
            .0,
            408
        );
        assert_eq!(
            status_for(&AsrsError::Internal {
                message: "x".to_string()
            })
            .0,
            500
        );
        assert_eq!(status_for(&AsrsError::InvalidTopK).0, 400);
        assert_eq!(status_for(&AsrsError::EmptyDataset).0, 400);
        assert_eq!(
            status_for(&AsrsError::IndexRequired { backend: "gi-ds" }).0,
            400
        );
    }

    #[test]
    fn error_bodies_are_json_with_kind_and_message() {
        let body = error_body("invalid-json", "oops");
        assert!(body.contains("\"kind\":\"invalid-json\""));
        assert!(body.contains("\"message\":\"oops\""));
    }
}
