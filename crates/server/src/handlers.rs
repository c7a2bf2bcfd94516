//! The serving front end: accept loop, connection threads, dispatch.
//!
//! One [`Server`] owns a [`DistanceOracle`] and serves it over TCP:
//!
//! - **JSON lines** (the protocol in [`crate::protocol`]): each
//!   connection gets a thread that parses request lines and dispatches
//!   them. When the connection has no further request line buffered
//!   and the coalescer is idle, a point query claims the coalescer's
//!   idle stage and a `distances_from` fan-out claims the one inline
//!   read slot, and either is answered on the connection thread.
//!   Otherwise point queries go to the [`Coalescer`] and fan-outs, like
//!   every other request, run as jobs on the [`WorkerPool`]. Responses
//!   carry the request's `id`, so clients may pipeline.
//! - **HTTP/1.1 shim**: a connection whose first line is an HTTP
//!   request gets `GET /health` or `GET /metrics` answered and the
//!   connection closed — enough for probes and scrapes, not a web
//!   server.
//!
//! Admission control: writes are refused (`unhealthy`) unless the
//! oracle reports [`OracleHealth::Healthy`], refused (`read_only`) on
//! replicas, and *all* work is shed with a typed `shed` response when
//! the job queue or coalescer is at capacity — an overloaded server
//! degrades into fast refusals, never into unbounded queueing.

use crate::coalescer::{CoalesceConfig, Coalescer, Executing};
use crate::json::Json;
use crate::metrics::ServerMetrics;
use crate::pool::{SubmitError, WorkerPool};
use crate::protocol::{
    parse_request, resp_committed, resp_dist, resp_dists, resp_error, resp_ok, resp_top_k,
    resp_what_if, Request, TailMsg, MAX_LINE_BYTES,
};
use batchhl::{DistanceOracle, Edit, OracleHealth, OracleReader, TxnId, Vertex};
use std::io::{self, BufWriter, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How a [`Server`] listens and schedules.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks a free port (see [`Server::addr`]).
    pub addr: String,
    /// Worker threads executing oracle jobs.
    pub workers: usize,
    /// Job-queue bound; submissions beyond it are shed.
    pub max_queue: usize,
    /// Load-adaptive coalescing of point queries (see
    /// [`crate::coalescer`]); `None` dispatches each query as its own
    /// job (the baseline mode in the coalescer bench).
    pub coalesce: Option<CoalesceConfig>,
    /// Refuse `commit`/`recover` with a `read_only` error (replicas).
    pub read_only: bool,
    /// Node name reported by `health`/`stats` and the demo logs.
    pub node: String,
    /// Close a connection that produces no complete request line for
    /// this long (slow-loris containment: a half-sent line does *not*
    /// reset the clock). `None` disables the sweep. Tail streams are
    /// exempt — a caught-up replica legitimately sends nothing.
    pub idle_timeout: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            max_queue: 1024,
            coalesce: Some(CoalesceConfig::default()),
            read_only: false,
            node: "primary".to_string(),
            idle_timeout: Some(Duration::from_secs(60)),
        }
    }
}

/// The write half of a connection, shared between the connection
/// thread and coalescer drain jobs. One lock + one flush per batch of
/// lines is the syscall amortization the coalescer exists for.
pub struct Conn {
    writer: Mutex<BufWriter<TcpStream>>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            writer: Mutex::new(BufWriter::new(stream)),
        }
    }

    /// Write one response line (newline appended) and flush.
    pub fn write_line(&self, line: &str) -> io::Result<()> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }

    /// Write many response lines under one lock with one flush.
    pub fn write_lines(&self, lines: &[String]) -> io::Result<()> {
        let mut w = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        for line in lines {
            w.write_all(line.as_bytes())?;
            w.write_all(b"\n")?;
        }
        w.flush()
    }
}

/// A point query parked in the coalescer.
pub struct PendingQuery {
    pub s: Vertex,
    pub t: Vertex,
    pub id: Option<u64>,
    pub conn: Arc<Conn>,
    pub start: Instant,
    /// The request's latency budget; members already past it when the
    /// batch drains are answered `deadline_exceeded`, not queried.
    pub deadline_ms: Option<u64>,
}

/// Has the request's `deadline_ms` budget (measured from `start`, its
/// arrival) run out?
fn expired(start: Instant, deadline_ms: Option<u64>) -> bool {
    match deadline_ms {
        Some(ms) => start.elapsed() >= Duration::from_millis(ms),
        None => false,
    }
}

/// Answer a dead request with the typed `deadline_exceeded` refusal.
fn refuse_expired(core: &Core, conn: &Conn, id: Option<u64>, deadline_ms: u64) {
    core.metrics.deadlines.inc();
    let _ = conn.write_line(&resp_error(
        id,
        "deadline_exceeded",
        &format!("deadline of {deadline_ms}ms passed before execution"),
    ));
}

/// Everything connection threads and jobs share.
pub(crate) struct Core {
    oracle: Mutex<DistanceOracle>,
    reader: RwLock<OracleReader>,
    /// Batches committed (mirrors `oracle.batches_committed()` so tail
    /// streams can wait on it without holding the oracle lock).
    committed: Mutex<u64>,
    commit_cv: Condvar,
    pub(crate) metrics: ServerMetrics,
    pub(crate) pool: WorkerPool,
    /// Held by the fan-out being answered on a connection thread, so
    /// at most one fan-out runs outside the pool at a time.
    inline_read: AtomicBool,
    shutdown: AtomicBool,
    config: ServerConfig,
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Core {
    pub(crate) fn committed_seq(&self) -> u64 {
        *self.committed.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn publish_committed(&self, seq: u64) {
        *self.committed.lock().unwrap_or_else(|e| e.into_inner()) = seq;
        self.commit_cv.notify_all();
    }

    /// Apply a replicated batch (replica side). The batch must be the
    /// next in sequence; a gap means the stream diverged and the
    /// caller re-syncs from a checkpoint.
    pub(crate) fn apply_remote_batch(&self, seq: u64, edits: &[Edit]) -> Result<(), String> {
        let mut oracle = self.oracle.lock().unwrap_or_else(|e| e.into_inner());
        let have = oracle.batches_committed();
        if seq != have {
            return Err(format!(
                "sequence gap: batch {seq} arrived at cursor {have}"
            ));
        }
        let mut session = oracle.update();
        for &edit in edits {
            session = session.push(edit);
        }
        session
            .commit()
            .map_err(|e| format!("replicated batch {seq} refused: {e:?}"))?;
        let now = oracle.batches_committed();
        drop(oracle);
        self.metrics.commits.inc();
        self.publish_committed(now);
        Ok(())
    }

    /// Swap in a freshly re-synced oracle (replica re-sync path).
    pub(crate) fn install_oracle(&self, new_oracle: DistanceOracle) {
        let reader = new_oracle.reader();
        let seq = new_oracle.batches_committed();
        *self.oracle.lock().unwrap_or_else(|e| e.into_inner()) = new_oracle;
        *self.reader.write().unwrap_or_else(|e| e.into_inner()) = reader;
        self.publish_committed(seq);
    }

    fn health_summary(&self) -> (String, Option<String>) {
        let oracle = self.oracle.lock().unwrap_or_else(|e| e.into_inner());
        match oracle.health() {
            OracleHealth::Healthy => ("healthy".to_string(), None),
            OracleHealth::Degraded { reason } => ("degraded".to_string(), Some(reason.clone())),
            OracleHealth::WritesPoisoned { reason, .. } => {
                ("writes_poisoned".to_string(), Some(reason.clone()))
            }
        }
    }
}

/// A running serving node. Dropping it (or calling
/// [`shutdown`](Server::shutdown)) stops the acceptor, the workers,
/// the coalescer and every connection thread.
pub struct Server {
    core: Arc<Core>,
    coalescer: Option<Arc<Coalescer<PendingQuery>>>,
    acceptor: Option<JoinHandle<()>>,
    addr: SocketAddr,
}

impl Server {
    /// Take ownership of an oracle and serve it on `config.addr`.
    pub fn start(oracle: DistanceOracle, config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let reader = oracle.reader();
        let committed = oracle.batches_committed();
        let metrics = ServerMetrics::new();
        let pool = WorkerPool::new(
            &config.node,
            config.workers,
            config.max_queue,
            Arc::clone(&metrics.job_panics),
        );
        let core = Arc::new(Core {
            oracle: Mutex::new(oracle),
            reader: RwLock::new(reader),
            committed: Mutex::new(committed),
            commit_cv: Condvar::new(),
            metrics,
            pool,
            inline_read: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            config: config.clone(),
            conns: Mutex::new(Vec::new()),
        });
        let coalescer = config.coalesce.map(|cfg| {
            let drain_core = Arc::clone(&core);
            Arc::new(Coalescer::start(cfg, move |batch, executing| {
                let job_core = Arc::clone(&drain_core);
                // The guard moves into the job, so the batch counts as
                // executing until the job ends (or is discarded).
                let job = Box::new(move || {
                    execute_coalesced(&job_core, batch);
                    drop(executing);
                });
                // Members were admitted individually; never drop them.
                let _ = drain_core.pool.submit_unbounded(job);
            }))
        });
        let acceptor = {
            let core = Arc::clone(&core);
            let coalescer = coalescer.clone();
            std::thread::Builder::new()
                .name(format!("{}-acceptor", core.config.node))
                .spawn(move || accept_loop(&listener, &core, coalescer.as_ref()))?
        };
        Ok(Server {
            core,
            coalescer,
            acceptor: Some(acceptor),
            addr,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This node's metrics (also served at `GET /metrics`).
    pub fn metrics(&self) -> &ServerMetrics {
        &self.core.metrics
    }

    /// Batches this node has committed/applied.
    pub fn committed_seq(&self) -> u64 {
        self.core.committed_seq()
    }

    pub(crate) fn core(&self) -> &Arc<Core> {
        &self.core
    }

    /// Stop accepting, drain the coalescer, stop the workers and join
    /// every connection thread. Idempotent.
    pub fn shutdown(&mut self) {
        self.core.shutdown.store(true, Ordering::Release);
        self.core.commit_cv.notify_all();
        if let Some(handle) = self.acceptor.take() {
            let _ = handle.join();
        }
        if let Some(coalescer) = &self.coalescer {
            coalescer.shutdown();
        }
        self.core.pool.shutdown();
        let conns: Vec<_> = self
            .core
            .conns
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .drain(..)
            .collect();
        for handle in conns {
            let _ = handle.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    core: &Arc<Core>,
    coalescer: Option<&Arc<Coalescer<PendingQuery>>>,
) {
    let mut next_conn = 0u64;
    loop {
        if core.shutdown.load(Ordering::Acquire) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                core.metrics.conns_opened.inc();
                let conn_core = Arc::clone(core);
                let conn_coalescer = coalescer.map(Arc::clone);
                let handle = std::thread::Builder::new()
                    .name(format!("{}-conn-{next_conn}", core.config.node))
                    .spawn(move || {
                        serve_connection(&conn_core, conn_coalescer.as_deref(), stream);
                        conn_core.metrics.conns_closed.inc();
                    });
                next_conn += 1;
                match handle {
                    Ok(handle) => core
                        .conns
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .push(handle),
                    Err(_) => core.metrics.conns_closed.inc(),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Buffered line reader over a read-timeout socket: timeouts poll the
/// shutdown flag, partial lines survive across reads, and a line
/// longer than [`MAX_LINE_BYTES`] is an error (hostile input must not
/// grow the buffer unboundedly). A partial line at EOF is dropped,
/// never surfaced — a peer killed mid-write leaves a clean prefix.
pub(crate) struct LineReader {
    stream: TcpStream,
    buf: Vec<u8>,
}

pub(crate) enum ReadOutcome {
    Line(String),
    Closed,
    TooLong,
    /// No complete line arrived within the caller's idle window
    /// (partial bytes do NOT reset the clock — a slow-loris drip is
    /// exactly what the window exists to bound).
    Idle,
}

impl LineReader {
    pub(crate) fn new(stream: TcpStream) -> LineReader {
        LineReader {
            stream,
            buf: Vec::new(),
        }
    }

    /// Does the buffer already hold another complete request line? (A
    /// pipelining client has more requests behind the current one.)
    fn has_buffered_line(&self) -> bool {
        self.buf.contains(&b'\n')
    }

    pub(crate) fn read_line(&mut self, shutdown: &AtomicBool) -> ReadOutcome {
        self.read_line_idle(shutdown, None)
    }

    /// [`read_line`](Self::read_line), bounded by an idle window: give
    /// up with [`ReadOutcome::Idle`] when no *complete* line has been
    /// produced within `idle` of entering the call.
    pub(crate) fn read_line_idle(
        &mut self,
        shutdown: &AtomicBool,
        idle: Option<Duration>,
    ) -> ReadOutcome {
        let entered = Instant::now();
        let mut scanned = 0;
        loop {
            if let Some(nl) = self.buf[scanned..].iter().position(|&b| b == b'\n') {
                let mut line: Vec<u8> = self.buf.drain(..scanned + nl + 1).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return match String::from_utf8(line) {
                    Ok(s) => ReadOutcome::Line(s),
                    Err(_) => ReadOutcome::TooLong, // handled as bad input
                };
            }
            scanned = self.buf.len();
            if scanned > MAX_LINE_BYTES {
                return ReadOutcome::TooLong;
            }
            if let Some(window) = idle {
                if entered.elapsed() >= window {
                    return ReadOutcome::Idle;
                }
            }
            let mut chunk = [0u8; 4096];
            match self.stream.read(&mut chunk) {
                Ok(0) => return ReadOutcome::Closed,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    if shutdown.load(Ordering::Acquire) {
                        return ReadOutcome::Closed;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(_) => return ReadOutcome::Closed,
            }
        }
    }
}

fn serve_connection(
    core: &Arc<Core>,
    coalescer: Option<&Coalescer<PendingQuery>>,
    stream: TcpStream,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let write_half = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let conn = Arc::new(Conn::new(write_half));
    let mut reader = LineReader::new(stream);
    loop {
        if core.shutdown.load(Ordering::Acquire) {
            return;
        }
        let line = match reader.read_line_idle(&core.shutdown, core.config.idle_timeout) {
            ReadOutcome::Line(line) => line,
            ReadOutcome::Closed => return,
            ReadOutcome::TooLong => {
                core.metrics.bad_requests.inc();
                let _ = conn.write_line(&resp_error(
                    None,
                    "bad_request",
                    "request line too long or not valid UTF-8",
                ));
                return;
            }
            ReadOutcome::Idle => {
                core.metrics.idle_closed.inc();
                let _ = conn.write_line(&resp_error(
                    None,
                    "idle_timeout",
                    "no complete request within the idle window; closing",
                ));
                return;
            }
        };
        if line.is_empty() {
            continue;
        }
        // HTTP shim: probes and scrapes speak HTTP on the same port.
        if line.starts_with("GET ") || line.starts_with("HEAD ") || line.starts_with("POST ") {
            serve_http(core, &mut reader, &conn, &line);
            return;
        }
        if !dispatch(core, coalescer, &conn, &line, reader.has_buffered_line()) {
            return;
        }
    }
}

/// Handle one request line; `pipelined` says the connection already
/// has another request line buffered behind it. Returns `false` when
/// the connection should close (tail streams end their connection).
fn dispatch(
    core: &Arc<Core>,
    coalescer: Option<&Coalescer<PendingQuery>>,
    conn: &Arc<Conn>,
    line: &str,
    pipelined: bool,
) -> bool {
    let start = Instant::now();
    let envelope = match parse_request(line) {
        Ok(envelope) => envelope,
        Err(reason) => {
            core.metrics.bad_requests.inc();
            let _ = conn.write_line(&resp_error(None, "bad_request", &reason));
            return true;
        }
    };
    let id = envelope.id;
    let deadline_ms = envelope.deadline_ms;
    let read = ReadReq {
        id,
        start,
        deadline_ms,
    };
    match envelope.request {
        Request::Query { s, t } => match coalescer {
            Some(coalescer) => {
                let pending = PendingQuery {
                    s,
                    t,
                    id,
                    conn: Arc::clone(conn),
                    start,
                    deadline_ms,
                };
                // A pipelined query goes to the coalescer even when idle:
                // the requests behind it should share its batch.
                let idle = if pipelined {
                    None
                } else {
                    coalescer.try_claim_idle()
                };
                match idle {
                    Some(executing) => answer_inline(core, pending, executing),
                    None => {
                        if coalescer.submit(pending).is_err() {
                            shed(core, conn, id, "coalescer at capacity");
                        }
                    }
                }
            }
            None => serve_read(core, conn, read, false, move |core| {
                let d = reader(core).query(s, t);
                (1, resp_dist(id, d))
            }),
        },
        Request::QueryMany { pairs } => serve_read(core, conn, read, false, move |core| {
            let ds = reader(core).query_many(&pairs);
            (pairs.len(), resp_dists(id, &ds))
        }),
        Request::DistancesFrom { s, targets } => {
            let inline = claim_inline_read(core, coalescer, pipelined);
            serve_read(core, conn, read, inline, move |core| {
                let ds = reader(core).distances_from(s, &targets);
                (targets.len(), resp_dists(id, &ds))
            })
        }
        Request::TopKClosest { s, k } => serve_read(core, conn, read, false, move |core| {
            let closest = reader(core).top_k_closest(s, k);
            (1, resp_top_k(id, &closest))
        }),
        Request::Commit { edits, txn } => {
            if core.config.read_only {
                let _ = conn.write_line(&resp_error(
                    id,
                    "read_only",
                    "this node is a replica; commit on the primary",
                ));
                return true;
            }
            submit_or_shed(core, conn, id, {
                let core = Arc::clone(core);
                let conn = Arc::clone(conn);
                Box::new(move || run_commit(&core, &conn, id, &edits, txn, start, deadline_ms))
            });
        }
        // Read-only speculation: allowed on replicas, no health gate —
        // the published generation is never touched.
        Request::WhatIf { edits, pairs } => serve_read(core, conn, read, false, move |core| {
            match reader(core).what_if(&edits) {
                Ok(mut session) => {
                    let ds = session.query_many(&pairs);
                    (pairs.len(), resp_what_if(id, session.version(), &ds))
                }
                Err(e) => (0, resp_error(id, "bad_request", &format!("{e:?}"))),
            }
        }),
        Request::Recover => {
            if core.config.read_only {
                let _ = conn.write_line(&resp_error(
                    id,
                    "read_only",
                    "this node is a replica; recover on the primary",
                ));
                return true;
            }
            submit_or_shed(core, conn, id, {
                let core = Arc::clone(core);
                let conn = Arc::clone(conn);
                Box::new(move || run_recover(&core, &conn, id))
            });
        }
        Request::Verify => submit_or_shed(core, conn, id, {
            let core = Arc::clone(core);
            let conn = Arc::clone(conn);
            Box::new(move || {
                let result = core
                    .oracle
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .verify_integrity();
                let _ = match result {
                    Ok(()) => conn.write_line(&resp_ok(id, vec![])),
                    Err(e) => conn.write_line(&resp_error(id, "internal", &format!("{e:?}"))),
                };
            })
        }),
        Request::Health => {
            let (health, reason) = core.health_summary();
            let mut extra = vec![
                ("health".to_string(), Json::str(health)),
                ("node".to_string(), Json::str(core.config.node.clone())),
            ];
            if let Some(reason) = reason {
                extra.push(("reason".to_string(), Json::str(reason)));
            }
            let _ = conn.write_line(&resp_ok(id, extra));
        }
        Request::Stats => {
            let position = core
                .oracle
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .wal_position();
            let extra = vec![
                ("node".to_string(), Json::str(core.config.node.clone())),
                ("committed".to_string(), Json::u64(core.committed_seq())),
                (
                    "queue_depth".to_string(),
                    Json::u64(core.pool.depth() as u64),
                ),
                ("queries".to_string(), Json::u64(core.metrics.queries.get())),
                ("sheds".to_string(), Json::u64(core.metrics.sheds.get())),
                ("next_seq".to_string(), Json::u64(position.next_seq)),
                (
                    "wal_bytes".to_string(),
                    position.wal_bytes.map_or(Json::Null, Json::u64),
                ),
            ];
            let _ = conn.write_line(&resp_ok(id, extra));
        }
        Request::Tail { from_seq } => {
            serve_tail(core, conn, id, from_seq);
            return false;
        }
    }
    true
}

fn shed(core: &Core, conn: &Conn, id: Option<u64>, what: &str) {
    core.metrics.sheds.inc();
    let _ = conn.write_line(&resp_error(
        id,
        "shed",
        &format!("overloaded ({what}); retry later"),
    ));
}

fn submit_or_shed(core: &Arc<Core>, conn: &Arc<Conn>, id: Option<u64>, job: crate::pool::Job) {
    match core.pool.submit(job) {
        Ok(()) => {}
        Err(SubmitError::Full { depth }) => {
            shed(core, conn, id, &format!("queue depth {depth}"));
        }
        Err(SubmitError::ShuttingDown) => {
            let _ = conn.write_line(&resp_error(id, "shed", "server shutting down"));
        }
    }
}

fn run_commit(
    core: &Core,
    conn: &Conn,
    id: Option<u64>,
    edits: &[Edit],
    txn: Option<TxnId>,
    start: Instant,
    deadline_ms: Option<u64>,
) {
    let mut oracle = core.oracle.lock().unwrap_or_else(|e| e.into_inner());
    // Re-check the deadline after the (possibly long) lock wait: a
    // commit the client has given up on must not be applied — the
    // retry it already sent carries the same txn id and will land.
    if expired(start, deadline_ms) {
        drop(oracle);
        refuse_expired(core, conn, id, deadline_ms.unwrap_or(0));
        return;
    }
    // Dedup BEFORE the health gate: a retry of an already-applied
    // commit is a read of history and must answer even when writes
    // are poisoned — the work it asks about already happened.
    if let Some(txn) = txn {
        if let Some(receipt) = oracle.txn_receipt(txn) {
            drop(oracle);
            core.metrics.dedup_commits.inc();
            let _ = conn.write_line(&resp_committed(
                id,
                receipt.stats.applied,
                receipt.seq,
                true,
            ));
            return;
        }
    }
    if let Some(reason) = health_refusal(&oracle) {
        drop(oracle);
        let _ = conn.write_line(&resp_error(id, "unhealthy", &reason));
        return;
    }
    let mut session = oracle.update();
    for &edit in edits {
        session = session.push(edit);
    }
    if let Some(txn) = txn {
        session = session.txn(txn);
    }
    match session.commit_with_receipt() {
        Ok(receipt) => {
            let now = oracle.batches_committed();
            drop(oracle);
            core.metrics.commits.inc();
            if receipt.deduplicated {
                core.metrics.dedup_commits.inc();
            }
            core.publish_committed(now);
            let _ = conn.write_line(&resp_committed(
                id,
                receipt.stats.applied,
                receipt.seq,
                receipt.deduplicated,
            ));
        }
        Err(e) => {
            drop(oracle);
            let _ = conn.write_line(&resp_error(id, "commit_failed", &format!("{e:?}")));
        }
    }
}

fn health_refusal(oracle: &DistanceOracle) -> Option<String> {
    match oracle.health() {
        OracleHealth::Healthy => None,
        OracleHealth::Degraded { reason } => {
            Some(format!("oracle degraded: {reason}; run recover"))
        }
        OracleHealth::WritesPoisoned { reason, .. } => {
            Some(format!("writes poisoned: {reason}; run recover"))
        }
    }
}

fn run_recover(core: &Core, conn: &Conn, id: Option<u64>) {
    let mut oracle = core.oracle.lock().unwrap_or_else(|e| e.into_inner());
    match oracle.recover() {
        Ok(()) => {
            // Readers do NOT re-pin across recover(): publish a fresh
            // handle for every query path.
            let reader = oracle.reader();
            let seq = oracle.batches_committed();
            drop(oracle);
            *core.reader.write().unwrap_or_else(|e| e.into_inner()) = reader;
            core.publish_committed(seq);
            let _ = conn.write_line(&resp_ok(
                id,
                vec![("committed".to_string(), Json::u64(seq))],
            ));
        }
        Err(e) => {
            drop(oracle);
            let _ = conn.write_line(&resp_error(id, "internal", &format!("{e:?}")));
        }
    }
}

/// The published generation's reader.
fn reader(core: &Core) -> std::sync::RwLockReadGuard<'_, OracleReader> {
    core.reader.read().unwrap_or_else(|e| e.into_inner())
}

/// Claim the inline read slot for a fan-out answered on the connection
/// thread: only when no further request line is buffered (pipelined
/// requests queue on the pool), nothing executes or waits in the
/// coalescer, and no other fan-out holds the slot. The coalescer's stage
/// stays unclaimed, so point queries arriving meanwhile are still
/// answered inline instead of gathering behind the fan-out.
fn claim_inline_read(
    core: &Core,
    coalescer: Option<&Coalescer<PendingQuery>>,
    pipelined: bool,
) -> bool {
    !pipelined
        && coalescer.is_some_and(Coalescer::is_idle)
        && core
            .inline_read
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
}

/// A read request's reply id, arrival and latency budget.
#[derive(Clone, Copy)]
struct ReadReq {
    id: Option<u64>,
    start: Instant,
    deadline_ms: Option<u64>,
}

/// Answer a read: on the connection thread behind the pool's panic
/// boundary when `inline` (the caller holds the inline read slot, which
/// this releases), otherwise as a pool job. `answer` returns how many
/// queries it answered and the reply line. Either way an expired
/// deadline is refused first.
fn serve_read(
    core: &Arc<Core>,
    conn: &Arc<Conn>,
    read: ReadReq,
    inline: bool,
    answer: impl FnOnce(&Core) -> (usize, String) + Send + 'static,
) {
    let run = move |core: &Core, conn: &Conn| {
        if expired(read.start, read.deadline_ms) {
            refuse_expired(core, conn, read.id, read.deadline_ms.unwrap_or(0));
            return;
        }
        let (queries, line) = answer(core);
        core.metrics.queries.add(queries as u64);
        core.metrics.request_latency.observe(read.start.elapsed());
        let _ = conn.write_line(&line);
    };
    if inline {
        core.pool.run_contained(|| run(core, conn));
        core.inline_read.store(false, Ordering::Release);
    } else {
        submit_or_shed(core, conn, read.id, {
            let core = Arc::clone(core);
            let conn = Arc::clone(conn);
            Box::new(move || run(&core, &conn))
        });
    }
}

/// Answer a lone query on the connection thread, as a coalesced batch
/// of one, while `executing` holds the coalescer's idle stage.
fn answer_inline(core: &Core, query: PendingQuery, executing: Executing<PendingQuery>) {
    core.pool
        .run_contained(|| execute_coalesced(core, vec![query]));
    drop(executing);
}

/// Answer one coalesced batch: one `query_many` (grouped by source
/// inside the oracle), one write + flush per distinct connection.
fn execute_coalesced(core: &Core, batch: Vec<PendingQuery>) {
    core.metrics.coalesce_batch.observe_us(batch.len() as u64);
    // Members whose budget ran out while parked are answered
    // `deadline_exceeded`, not queried — spending oracle time on an
    // answer the client already abandoned is pure waste.
    let (dead, live): (Vec<&PendingQuery>, Vec<&PendingQuery>) =
        batch.iter().partition(|q| expired(q.start, q.deadline_ms));
    for q in &dead {
        refuse_expired(core, &q.conn, q.id, q.deadline_ms.unwrap_or(0));
    }
    let pairs: Vec<(Vertex, Vertex)> = live.iter().map(|q| (q.s, q.t)).collect();
    let dists = reader(core).query_many(&pairs);
    core.metrics.queries.add(live.len() as u64);
    let mut groups: Vec<(Arc<Conn>, Vec<String>)> = Vec::new();
    for (q, d) in live.iter().zip(&dists) {
        let line = resp_dist(q.id, *d);
        match groups.iter_mut().find(|(c, _)| Arc::ptr_eq(c, &q.conn)) {
            Some((_, lines)) => lines.push(line),
            None => groups.push((Arc::clone(&q.conn), vec![line])),
        }
    }
    for (conn, lines) in &groups {
        let _ = conn.write_lines(lines);
    }
    for q in &live {
        core.metrics.request_latency.observe(q.start.elapsed());
    }
}

/// Stream committed WAL batches to a tailing replica. Runs on the
/// connection's own thread; the connection closes when the stream ends.
fn serve_tail(core: &Arc<Core>, conn: &Arc<Conn>, id: Option<u64>, from_seq: u64) {
    {
        let oracle = core.oracle.lock().unwrap_or_else(|e| e.into_inner());
        if oracle.durability_dir().is_none() {
            drop(oracle);
            let _ = conn.write_line(&resp_error(
                id,
                "not_primary",
                "this node has no write-ahead log to ship",
            ));
            return;
        }
    }
    let mut next = from_seq;
    loop {
        if core.shutdown.load(Ordering::Acquire) {
            return;
        }
        // Read the committed cursor BEFORE scanning the WAL: a record
        // with `seq >= committed` may be an in-flight batch that is
        // about to be aborted, and must never be shipped.
        let committed = core.committed_seq();
        let tail = {
            let oracle = core.oracle.lock().unwrap_or_else(|e| e.into_inner());
            oracle.wal_tail(next)
        };
        let tail = match tail {
            Ok(tail) => tail,
            Err(e) => {
                let _ = conn.write_line(&resp_error(id, "internal", &format!("{e:?}")));
                return;
            }
        };
        // The retained log starts after the requested position: the
        // records in between were pruned by a checkpoint rotation and
        // the replica must re-sync from a fresh checkpoint.
        let pruned = match tail.floor {
            Some(floor) => next < floor,
            None => next < committed,
        };
        if pruned {
            let msg = TailMsg::Resync {
                floor: tail.floor.unwrap_or(committed),
                next: committed,
            };
            let _ = conn.write_line(&msg.render());
            return;
        }
        let mut shipped = false;
        for record in &tail.records {
            if record.seq >= next && record.seq < committed {
                if conn
                    .write_line(&TailMsg::from_record(record).render())
                    .is_err()
                {
                    return;
                }
                core.metrics.tail_records.inc();
                next = record.seq + 1;
                shipped = true;
            }
        }
        if !shipped {
            if conn
                .write_line(&TailMsg::Heartbeat { next }.render())
                .is_err()
            {
                return;
            }
            // Park until another batch commits (or shutdown).
            let guard = core.committed.lock().unwrap_or_else(|e| e.into_inner());
            if *guard <= next && !core.shutdown.load(Ordering::Acquire) {
                let _ = core
                    .commit_cv
                    .wait_timeout(guard, Duration::from_millis(250));
            }
        }
    }
}

/// Serve the HTTP shim: `GET /health`, `GET /metrics`, 404 otherwise.
/// Reads (and discards) the header block, answers, closes.
fn serve_http(core: &Core, reader: &mut LineReader, conn: &Conn, request_line: &str) {
    // Drain headers until the blank line (ignore errors: the response
    // below is best-effort either way).
    loop {
        match reader.read_line(&core.shutdown) {
            ReadOutcome::Line(line) if line.is_empty() => break,
            ReadOutcome::Line(_) => {}
            _ => break,
        }
    }
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    let (status, content_type, body) = match path {
        "/health" => {
            let (health, reason) = core.health_summary();
            let mut fields = vec![
                ("ok".to_string(), Json::Bool(health == "healthy")),
                ("health".to_string(), Json::str(health)),
                ("node".to_string(), Json::str(core.config.node.clone())),
                ("committed".to_string(), Json::u64(core.committed_seq())),
            ];
            if let Some(reason) = reason {
                fields.push(("reason".to_string(), Json::str(reason)));
            }
            ("200 OK", "application/json", Json::Obj(fields).render())
        }
        "/metrics" => ("200 OK", "text/plain; version=0.0.4", core.metrics.render()),
        _ => (
            "404 Not Found",
            "text/plain",
            format!("no such endpoint: {path}\n"),
        ),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let mut w = conn.writer.lock().unwrap_or_else(|e| e.into_inner());
    let _ = w.write_all(response.as_bytes());
    let _ = w.flush();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{http_get, Client};
    use batchhl::graph::generators::barabasi_albert;
    use batchhl::Oracle;

    #[test]
    fn contained_panics_reach_metrics_and_the_connection_keeps_serving() {
        let oracle = Oracle::builder()
            .top_degree_landmarks(4)
            .build(barabasi_albert(200, 3, 5))
            .expect("build oracle");
        // One worker runs pool jobs in submission order.
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(oracle, config).expect("start server");
        let mut client = Client::connect(server.addr()).expect("connect");
        let want = client.query(1, 150).expect("query");
        server
            .core()
            .pool
            .submit(Box::new(|| panic!("injected job panic")))
            .expect("submit");
        // This connection's next pool job runs after the panicking one.
        let got = client.query_many(&[(1, 150)]).expect("query_many");
        assert_eq!(got, vec![want]);
        assert_eq!(server.metrics().job_panics.get(), 1);
        let (_, body) = http_get(server.addr(), "/metrics").expect("GET /metrics");
        assert!(
            body.contains("batchhl_server_job_panics_total 1\n"),
            "{body}"
        );
        assert_eq!(client.query(1, 150).expect("query"), want);
    }

    #[test]
    fn idle_fanouts_skip_the_pool_one_at_a_time() {
        use std::io::{BufRead, BufReader};
        use std::sync::mpsc;
        let build = || {
            Oracle::builder()
                .top_degree_landmarks(4)
                .build(barabasi_albert(200, 3, 5))
                .expect("build oracle")
        };
        let mut twin = build();
        let targets: Vec<Vertex> = (0..64).map(|t| t * 3).collect();
        let fan = twin.distances_from(1, &targets);
        let pairs = [(1, 150), (7, 8)];
        let many = twin.query_many(&pairs);
        let config = ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        };
        let server = Server::start(build(), config).expect("start server");
        // Park the only worker until the test releases it.
        let (started_tx, started_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        server
            .core()
            .pool
            .submit(Box::new(move || {
                started_tx.send(()).unwrap();
                let _ = release_rx.recv();
            }))
            .expect("submit");
        started_rx.recv().unwrap();

        // An idle connection's fan-out is answered on its own thread.
        let mut client = Client::connect(server.addr()).expect("connect");
        assert_eq!(client.distances_from(1, &targets).expect("fan-out"), fan);
        // An expired budget is still refused, inline too.
        client.set_deadline_ms(Some(0));
        let err = client.distances_from(1, &targets).unwrap_err();
        assert_eq!(err.code(), Some("deadline_exceeded"));

        // While another fan-out holds the inline slot, even an unpipelined
        // fan-out queues on the pool, as pipelined reads always do.
        // The slot is released after the reply is written, so the
        // refused fan-out above may still hold it for a moment.
        let slot = &server.core().inline_read;
        while slot
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::thread::yield_now();
        }
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        let list: Vec<String> = targets.iter().map(|t| t.to_string()).collect();
        let fan_line = |id: u64| {
            format!(
                "{{\"op\":\"distances_from\",\"s\":1,\"targets\":[{}],\"id\":{id}}}\n",
                list.join(",")
            )
        };
        let many_line =
            |id: u64| format!("{{\"op\":\"query_many\",\"pairs\":[[1,150],[7,8]],\"id\":{id}}}\n");
        let batch = [fan_line(10), many_line(11), fan_line(12), fan_line(13)].concat();
        stream.write_all(batch.as_bytes()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(100)))
            .unwrap();
        let mut replies = BufReader::new(stream);
        let mut line = String::new();
        assert!(
            replies.read_line(&mut line).is_err(),
            "answered while the worker is parked: {line}"
        );
        slot.store(false, Ordering::Release);
        release_tx.send(()).unwrap();
        // Replies are matched by id, as the protocol asks of clients.
        replies
            .get_ref()
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut got: Vec<String> = (0..4)
            .map(|_| {
                let mut line = String::new();
                replies.read_line(&mut line).expect("reply");
                line.trim_end().to_string()
            })
            .collect();
        got.sort();
        let mut want = vec![
            resp_dists(Some(10), &fan),
            resp_dists(Some(11), &many),
            resp_dists(Some(12), &fan),
            resp_dists(Some(13), &fan),
        ];
        want.sort();
        assert_eq!(got, want);
    }
}
