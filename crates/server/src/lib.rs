//! # batchhl-server
//!
//! A threaded serving tier for the [`batchhl`] distance oracle — the
//! piece that turns the library into a network service. Built entirely
//! on `std::net` + `std::thread` (the workspace is offline; there is
//! no async runtime): a fixed [`WorkerPool`] executes oracle jobs
//! behind a bounded queue, and admission control sheds with typed
//! responses instead of queueing unbounded work.
//!
//! Three pillars:
//!
//! - **Serving front end** ([`Server`]) — a line-delimited
//!   JSON-over-TCP protocol ([`protocol`]) for queries, commits and
//!   operational verbs, plus a minimal HTTP/1.1 shim answering
//!   `GET /health` and `GET /metrics` on the same port.
//! - **Request coalescing** ([`Coalescer`]) — point queries are
//!   microbatched for a bounded window and drained through the
//!   oracle's batched entry points, amortizing per-request fixed costs
//!   (worker wakeups, generation pins, response syscalls) into
//!   per-batch costs.
//! - **WAL-shipping replication** ([`Replica`]) — a primary streams
//!   committed write-ahead-log batches over TCP (`tail`); replicas
//!   bootstrap from a checkpoint, apply the stream through the
//!   ordinary commit path, serve snapshot-consistent reads, reconnect
//!   with jittered backoff (and a heartbeat watchdog for half-open
//!   streams), and re-sync from a fresh checkpoint when their
//!   position falls behind a checkpoint rotation.
//!
//! Wire-level fault tolerance rides on three mechanisms: commits are
//! stamped with txn ids and deduplicated server-side, so a
//! [`Client`] with a [`RetryPolicy`] can retry blindly without
//! double-applying; requests carry a `deadline_ms` budget the server
//! enforces before starting work; and the deterministic
//! [`FaultProxy`] interposer (tests) injects delays, torn frames,
//! black holes and duplicate delivery on a scripted schedule.
//!
//! ```no_run
//! use batchhl::Oracle;
//! use batchhl::graph::generators::barabasi_albert;
//! use batchhl_server::{Client, Server, ServerConfig};
//!
//! let oracle = Oracle::new(barabasi_albert(500, 3, 7)).unwrap();
//! let server = Server::start(oracle, ServerConfig::default()).unwrap();
//! let mut client = Client::connect(server.addr()).unwrap();
//! let d = client.query(1, 200).unwrap();
//! # let _ = d;
//! ```

#![forbid(unsafe_code)]

pub mod chaos;
pub mod client;
pub mod coalescer;
pub mod handlers;
pub mod json;
pub mod metrics;
pub mod pool;
pub mod protocol;
pub mod replication;

pub use chaos::{Fault, FaultProxy};
pub use client::{http_get, Client, ClientError, CommitOutcome, RetryPolicy};
pub use coalescer::{CoalesceConfig, Coalescer};
pub use handlers::{Conn, PendingQuery, Server, ServerConfig};
pub use metrics::ServerMetrics;
pub use pool::{SubmitError, WorkerPool};
pub use protocol::{Envelope, Request, TailMsg};
pub use replication::{Replica, ReplicaConfig};
