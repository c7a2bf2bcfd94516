//! A blocking JSON-lines client.
//!
//! Small by design: it exists so the integration tests, the demo and
//! the coalescer bench talk to the server through the same code path a
//! real client would. Every request carries an `id` and responses are
//! matched by `id`, so requests may be pipelined (see
//! [`Client::send_query`] / [`Client::recv_dist`] — the bench uses a
//! window of outstanding queries per connection). Replies may arrive in
//! any order (see [`crate::protocol`]). A call returns the first reply
//! carrying its `id`; if the network delivered the request twice, the
//! second reply is indistinguishable from the first and is parked like
//! any reply nobody waits for.
//!
//! # Fault tolerance
//!
//! With a [`RetryPolicy`] attached ([`Client::with_retry`]), calls
//! that fail on the wire — I/O errors, a closed or garbled stream, a
//! typed `shed` refusal — are retried with jittered exponential
//! backoff, reconnecting first when the stream itself is suspect.
//! Retrying a **commit** is safe because every logical commit is
//! stamped once with a `txn` id (random session id + per-commit
//! counter) that is reused verbatim across attempts: a server that
//! already applied the batch answers the original receipt (with
//! `deduped: true`) instead of applying it twice.
//!
//! A per-request deadline ([`Client::set_deadline_ms`]) is enforced on
//! both ends: the server refuses to *start* work past the deadline
//! (typed `deadline_exceeded`, never retried), and the client bounds
//! its read timeout to the deadline plus a grace window so a wedged
//! server surfaces as an error rather than a hang.

use crate::json::{parse, Json};
use crate::protocol::encode_edit;
use batchhl::common::rng::SplitMix64;
use batchhl::{Dist, Edit, TxnId, Vertex};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasher, RandomState};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How a [`Client`] retries wire-level failures.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per call, including the first (so `1` disables
    /// retries).
    pub max_attempts: u32,
    /// Delay before the first retry; doubles per attempt up to
    /// `max_backoff`, each sleep jittered into `[delay/2, delay]`.
    pub initial_backoff: Duration,
    pub max_backoff: Duration,
    /// Seed for the jitter stream (deterministic per client).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(500),
            jitter_seed: 0x9e37_79b9_7f4a_7c15,
        }
    }
}

/// What a successful commit told us.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitOutcome {
    /// Edits that changed the graph.
    pub applied: usize,
    /// The batch's sequence number.
    pub seq: u64,
    /// `true` when the server answered from its txn dedup table — the
    /// batch had already been applied by an earlier attempt.
    pub deduped: bool,
}

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or timed out.
    Io(io::Error),
    /// The server sent something the client cannot interpret.
    Protocol(String),
    /// The server refused the request with a typed error.
    Server { code: String, message: String },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "connection error: {e}"),
            ClientError::Protocol(reason) => write!(f, "protocol error: {reason}"),
            ClientError::Server { code, message } => {
                write!(f, "server refused ({code}): {message}")
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server's error code, when the failure is a typed refusal.
    pub fn code(&self) -> Option<&str> {
        match self {
            ClientError::Server { code, .. } => Some(code),
            _ => None,
        }
    }
}

/// How long past the deadline the client keeps listening for the
/// server's (possibly in-flight) answer before declaring a timeout.
const DEADLINE_GRACE: Duration = Duration::from_millis(500);

/// The read timeout with no deadline configured.
const DEFAULT_READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Txn session ids ride the wire as JSON numbers; keep them inside
/// f64's lossless integer range.
const TXN_SESSION_MASK: u64 = (1 << 53) - 1;

/// One blocking connection to a serving node.
pub struct Client {
    addr: SocketAddr,
    writer: TcpStream,
    reader: BufReader<TcpStream>,
    next_id: u64,
    /// Responses read while waiting for a different id (pipelining).
    pending: HashMap<u64, Json>,
    /// Wire-failure retry policy; `None` fails fast (the default).
    retry: Option<RetryPolicy>,
    jitter: SplitMix64,
    /// Stamped on every request when set; see [`set_deadline_ms`](Self::set_deadline_ms).
    deadline_ms: Option<u64>,
    /// Txn identity: `(session, counter)` stamped once per logical
    /// commit, reused verbatim across retry attempts.
    txn_session: u64,
    txn_counter: u64,
    /// Retry attempts performed (for tests and ops visibility).
    retries: u64,
}

impl Client {
    /// Connect with a 10 s read timeout — a wedged server surfaces as
    /// an error, never as a hang. No retries (see [`with_retry`](Self::with_retry)).
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = Self::dial(addr, None)?;
        let reader = BufReader::new(stream.try_clone()?);
        // A random session id makes txn ids from independent client
        // processes collision-free without coordination. Masked to the
        // wire's lossless integer range (53 bits — the protocol's
        // numbers ride in f64).
        let txn_session = RandomState::new().hash_one(0u64) & TXN_SESSION_MASK;
        Ok(Client {
            addr,
            writer: stream,
            reader,
            next_id: 1,
            pending: HashMap::new(),
            retry: None,
            jitter: SplitMix64::new(0),
            deadline_ms: None,
            txn_session,
            txn_counter: 0,
            retries: 0,
        })
    }

    /// Attach a retry policy: wire-level failures (I/O, closed or
    /// garbled stream, typed `shed`) reconnect and retry with jittered
    /// exponential backoff. Typed refusals other than `shed` — and
    /// `deadline_exceeded` in particular — are never retried.
    pub fn with_retry(mut self, policy: RetryPolicy) -> Client {
        self.jitter = SplitMix64::new(policy.jitter_seed);
        self.retry = Some(policy);
        self
    }

    /// Stamp every subsequent request with this latency budget. The
    /// server refuses to *start* work past it (`deadline_exceeded`);
    /// the client's read timeout is bounded to the budget plus a small
    /// grace window, so no call outlives its deadline by more than
    /// that grace. `None` removes the budget.
    pub fn set_deadline_ms(&mut self, deadline_ms: Option<u64>) {
        self.deadline_ms = deadline_ms;
        let _ = self
            .writer
            .set_read_timeout(Some(read_timeout_for(deadline_ms)));
        let _ = self
            .reader
            .get_ref()
            .set_read_timeout(Some(read_timeout_for(deadline_ms)));
    }

    /// Pin the txn session id (deterministic tests; a second client
    /// with the same session id impersonates this one's retries).
    /// Masked to the wire's 53-bit lossless integer range.
    pub fn set_txn_session(&mut self, session: u64) {
        self.txn_session = session & TXN_SESSION_MASK;
    }

    /// The session half of this client's txn ids.
    pub fn txn_session(&self) -> u64 {
        self.txn_session
    }

    /// Retry attempts this client has performed.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn dial(addr: SocketAddr, deadline_ms: Option<u64>) -> io::Result<TcpStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(read_timeout_for(deadline_ms)))?;
        Ok(stream)
    }

    /// Replace a suspect stream with a fresh connection. Pipelined
    /// responses still in flight on the old stream are gone; pending
    /// ids are dropped so they surface as protocol errors, not hangs.
    fn reconnect(&mut self) -> Result<(), ClientError> {
        let stream = Self::dial(self.addr, self.deadline_ms)?;
        self.reader = BufReader::new(stream.try_clone()?);
        self.writer = stream;
        self.pending.clear();
        Ok(())
    }

    fn send(&mut self, mut fields: Vec<(String, Json)>) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        fields.insert(0, ("id".to_string(), Json::u64(id)));
        if let Some(ms) = self.deadline_ms {
            fields.push(("deadline_ms".to_string(), Json::u64(ms)));
        }
        let mut line = Json::Obj(fields).render();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        Ok(id)
    }

    fn read_response(&mut self) -> Result<(u64, Json), ClientError> {
        loop {
            let mut line = String::new();
            let n = self.reader.read_line(&mut line)?;
            if n == 0 {
                return Err(ClientError::Protocol("server closed the stream".into()));
            }
            let line = line.trim_end();
            if line.is_empty() {
                continue;
            }
            let v = parse(line).map_err(|e| ClientError::Protocol(e.to_string()))?;
            match v.get("id").and_then(Json::as_u64) {
                Some(id) => return Ok((id, v)),
                // Responses without an id (bad_request for an unparsable
                // line) cannot be matched; surface them immediately.
                None => return Err(server_error_of(&v)),
            }
        }
    }

    fn wait_for(&mut self, id: u64) -> Result<Json, ClientError> {
        if let Some(v) = self.pending.remove(&id) {
            return checked(v);
        }
        loop {
            let (rid, v) = self.read_response()?;
            if rid == id {
                return checked(v);
            }
            self.pending.insert(rid, v);
        }
    }

    fn call_once(&mut self, fields: Vec<(String, Json)>) -> Result<Json, ClientError> {
        let id = self.send(fields)?;
        self.wait_for(id)
    }

    /// One logical call under the retry policy. `fields` is re-sent
    /// verbatim on each attempt (a fresh envelope `id` per attempt,
    /// but the same `txn` for commits — that is what makes retried
    /// commits idempotent).
    fn call(&mut self, fields: Vec<(String, Json)>) -> Result<Json, ClientError> {
        let Some(policy) = self.retry.clone() else {
            return self.call_once(fields);
        };
        let mut backoff = policy.initial_backoff;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let err = match self.call_once(fields.clone()) {
                Ok(v) => return Ok(v),
                Err(e) => e,
            };
            if attempt >= policy.max_attempts.max(1) || !retryable(&err) {
                return Err(err);
            }
            self.retries += 1;
            let nanos = backoff.as_nanos() as u64;
            let half = nanos / 2;
            std::thread::sleep(Duration::from_nanos(
                half + self.jitter.below(nanos - half + 1),
            ));
            backoff = (backoff * 2).min(policy.max_backoff);
            if needs_reconnect(&err) {
                // Best effort: a failed reconnect just fails the next
                // attempt's write, which re-enters this loop.
                let _ = self.reconnect();
            }
        }
    }

    /// Point distance query.
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Result<Option<Dist>, ClientError> {
        let v = self.call(vec![
            ("op".to_string(), Json::str("query")),
            ("s".to_string(), Json::u64(s as u64)),
            ("t".to_string(), Json::u64(t as u64)),
        ])?;
        dist_field(&v, "dist")
    }

    /// Send a point query without waiting (windowed pipelining).
    pub fn send_query(&mut self, s: Vertex, t: Vertex) -> Result<u64, ClientError> {
        self.send(vec![
            ("op".to_string(), Json::str("query")),
            ("s".to_string(), Json::u64(s as u64)),
            ("t".to_string(), Json::u64(t as u64)),
        ])
    }

    /// Receive the next pipelined answer: `(id, distance)`.
    pub fn recv_dist(&mut self) -> Result<(u64, Option<Dist>), ClientError> {
        let (id, v) = self.read_response()?;
        let v = checked(v)?;
        Ok((id, dist_field(&v, "dist")?))
    }

    /// Batched point queries, answered positionally.
    pub fn query_many(
        &mut self,
        pairs: &[(Vertex, Vertex)],
    ) -> Result<Vec<Option<Dist>>, ClientError> {
        let wire = Json::Arr(
            pairs
                .iter()
                .map(|&(s, t)| Json::Arr(vec![Json::u64(s as u64), Json::u64(t as u64)]))
                .collect(),
        );
        let v = self.call(vec![
            ("op".to_string(), Json::str("query_many")),
            ("pairs".to_string(), wire),
        ])?;
        dists_field(&v)
    }

    /// One-source fan-out.
    pub fn distances_from(
        &mut self,
        s: Vertex,
        targets: &[Vertex],
    ) -> Result<Vec<Option<Dist>>, ClientError> {
        let wire = Json::Arr(targets.iter().map(|&t| Json::u64(t as u64)).collect());
        let v = self.call(vec![
            ("op".to_string(), Json::str("distances_from")),
            ("s".to_string(), Json::u64(s as u64)),
            ("targets".to_string(), wire),
        ])?;
        dists_field(&v)
    }

    /// The `k` nearest vertices to `s`.
    pub fn top_k_closest(
        &mut self,
        s: Vertex,
        k: usize,
    ) -> Result<Vec<(Vertex, Dist)>, ClientError> {
        let v = self.call(vec![
            ("op".to_string(), Json::str("top_k_closest")),
            ("s".to_string(), Json::u64(s as u64)),
            ("k".to_string(), Json::u64(k as u64)),
        ])?;
        let arr = v
            .get("closest")
            .and_then(Json::as_arr)
            .ok_or_else(|| ClientError::Protocol("missing \"closest\"".into()))?;
        arr.iter()
            .map(|pair| {
                let pair = pair.as_arr().filter(|p| p.len() == 2);
                match pair {
                    Some([v, d]) => match (v.as_u64(), d.as_u64()) {
                        (Some(v), Some(d)) => Ok((v as Vertex, d as Dist)),
                        _ => Err(ClientError::Protocol("malformed closest pair".into())),
                    },
                    _ => Err(ClientError::Protocol("malformed closest pair".into())),
                }
            })
            .collect()
    }

    /// Answer `pairs` as if `edits` had been committed, without
    /// committing them. Returns `(version, dists)` — the version of
    /// the generation the speculation ran over (unchanged by the
    /// call), and positional answers under the hypothetical.
    pub fn what_if(
        &mut self,
        edits: &[Edit],
        pairs: &[(Vertex, Vertex)],
    ) -> Result<(u64, Vec<Option<Dist>>), ClientError> {
        let wire_edits = Json::Arr(edits.iter().map(encode_edit).collect());
        let wire_pairs = Json::Arr(
            pairs
                .iter()
                .map(|&(s, t)| Json::Arr(vec![Json::u64(s as u64), Json::u64(t as u64)]))
                .collect(),
        );
        let v = self.call(vec![
            ("op".to_string(), Json::str("what_if")),
            ("edits".to_string(), wire_edits),
            ("pairs".to_string(), wire_pairs),
        ])?;
        let version = v
            .get("version")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("missing \"version\"".into()))?;
        Ok((version, dists_field(&v)?))
    }

    /// Commit an edit batch. Returns `(applied, seq)`.
    pub fn commit(&mut self, edits: &[Edit]) -> Result<(usize, u64), ClientError> {
        self.commit_detailed(edits).map(|o| (o.applied, o.seq))
    }

    /// [`commit`](Self::commit) with the full [`CommitOutcome`],
    /// including whether the server deduplicated a retried attempt.
    /// The txn id is allocated once here — every wire attempt of this
    /// logical commit carries the same one.
    pub fn commit_detailed(&mut self, edits: &[Edit]) -> Result<CommitOutcome, ClientError> {
        self.txn_counter += 1;
        let txn = TxnId {
            session: self.txn_session,
            counter: self.txn_counter,
        };
        let wire = Json::Arr(edits.iter().map(encode_edit).collect());
        let v = self.call(vec![
            ("op".to_string(), Json::str("commit")),
            ("edits".to_string(), wire),
            (
                "txn".to_string(),
                Json::Arr(vec![Json::u64(txn.session), Json::u64(txn.counter)]),
            ),
        ])?;
        let applied = v
            .get("applied")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("missing \"applied\"".into()))?;
        let seq = v
            .get("seq")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("missing \"seq\"".into()))?;
        let deduped = v.get("deduped").and_then(Json::as_bool).unwrap_or(false);
        Ok(CommitOutcome {
            applied: applied as usize,
            seq,
            deduped,
        })
    }

    /// The node's health string (`healthy` / `degraded` /
    /// `writes_poisoned`).
    pub fn health(&mut self) -> Result<String, ClientError> {
        let v = self.call(vec![("op".to_string(), Json::str("health"))])?;
        v.get("health")
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| ClientError::Protocol("missing \"health\"".into()))
    }

    /// The node's counters, as raw JSON.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call(vec![("op".to_string(), Json::str("stats"))])
    }

    /// Ask the node to recover (checkpoint + WAL reload). Returns the
    /// committed cursor after recovery.
    pub fn recover(&mut self) -> Result<u64, ClientError> {
        let v = self.call(vec![("op".to_string(), Json::str("recover"))])?;
        v.get("committed")
            .and_then(Json::as_u64)
            .ok_or_else(|| ClientError::Protocol("missing \"committed\"".into()))
    }

    /// Run the oracle's integrity verification on the node.
    pub fn verify(&mut self) -> Result<(), ClientError> {
        self.call(vec![("op".to_string(), Json::str("verify"))])
            .map(|_| ())
    }
}

/// Read timeout that bounds a call to its deadline plus grace — a
/// client with a 200ms budget must not sit in `read` for 10s.
fn read_timeout_for(deadline_ms: Option<u64>) -> Duration {
    match deadline_ms {
        Some(ms) => (Duration::from_millis(ms) + DEADLINE_GRACE).min(DEFAULT_READ_TIMEOUT),
        None => DEFAULT_READ_TIMEOUT,
    }
}

/// Wire-level failures retry; refusals the server *decided* do not.
/// `shed` is the one typed refusal that retries: it is an explicit
/// "try again later". `deadline_exceeded` must not — the budget is
/// gone, and for commits the dedup table makes a *caller-level* retry
/// safe anyway.
fn retryable(e: &ClientError) -> bool {
    match e {
        ClientError::Io(_) | ClientError::Protocol(_) => true,
        ClientError::Server { code, .. } => code == "shed",
    }
}

/// `shed` means the server is alive and refusing; everything else
/// retryable means the stream itself is suspect — dial a fresh one.
fn needs_reconnect(e: &ClientError) -> bool {
    !matches!(e, ClientError::Server { .. })
}

fn checked(v: Json) -> Result<Json, ClientError> {
    if v.get("error").is_some() {
        Err(server_error_of(&v))
    } else {
        Ok(v)
    }
}

fn server_error_of(v: &Json) -> ClientError {
    match v.get("error").and_then(Json::as_str) {
        Some(code) => ClientError::Server {
            code: code.to_string(),
            message: v
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string(),
        },
        None => ClientError::Protocol(format!("unintelligible response: {}", v.render())),
    }
}

fn dist_field(v: &Json, name: &str) -> Result<Option<Dist>, ClientError> {
    match v.get(name) {
        Some(Json::Null) => Ok(None),
        Some(d) => d
            .as_u64()
            .map(|d| Some(d as Dist))
            .ok_or_else(|| ClientError::Protocol(format!("malformed {name:?}"))),
        None => Err(ClientError::Protocol(format!("missing {name:?}"))),
    }
}

fn dists_field(v: &Json) -> Result<Vec<Option<Dist>>, ClientError> {
    let arr = v
        .get("dists")
        .and_then(Json::as_arr)
        .ok_or_else(|| ClientError::Protocol("missing \"dists\"".into()))?;
    arr.iter()
        .map(|d| match d {
            Json::Null => Ok(None),
            d => d
                .as_u64()
                .map(|d| Some(d as Dist))
                .ok_or_else(|| ClientError::Protocol("malformed distance".into())),
        })
        .collect()
}

/// Minimal HTTP GET against the server's shim: returns `(status,
/// body)`. Supports exactly what the shim emits (`Connection: close`
/// with a `Content-Length`).
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: batchhl\r\nConnection: close\r\n\r\n"
    )?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let mut lines = response.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::other(format!("malformed status line {status_line:?}")))?;
    let body = response
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or_default();
    Ok((status, body))
}
