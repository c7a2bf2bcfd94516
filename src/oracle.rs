//! The unified [`DistanceOracle`] facade: one object over every index
//! family.
//!
//! The workspace maintains three batch-dynamic index families
//! (undirected, directed, weighted); historically a caller picked one
//! at compile time and mirrored ~27 methods across them. The oracle
//! erases that choice behind the [`Backend`] trait: the builder
//! inspects the graph it is given (and the declared `directed(..)` /
//! `weighted(..)` intent), constructs the right family, and every
//! later interaction — queries, batched query plans, update sessions,
//! reader handles — is family-agnostic.
//!
//! ```
//! use batchhl::{Oracle, Algorithm};
//! use batchhl::graph::generators::barabasi_albert;
//!
//! let mut oracle = Oracle::builder()
//!     .algorithm(Algorithm::BhlPlus)
//!     .threads(1)
//!     .build(barabasi_albert(500, 3, 42))
//!     .expect("undirected source, undirected oracle");
//!
//! // Single pairs, batched pairs, one-to-many, k-nearest.
//! let d = oracle.query(3, 77);
//! let batch = oracle.query_many(&[(3, 77), (3, 191), (9, 44)]);
//! let fanout = oracle.distances_from(3, &[77, 191, 44]);
//! let closest = oracle.top_k_closest(3, 10);
//!
//! // Mutations accumulate in a session and commit as one batch.
//! let stats = oracle
//!     .update()
//!     .insert(3, 77)
//!     .remove(0, 1)
//!     .commit()
//!     .expect("structural edits are valid on every family");
//! assert_eq!(oracle.query(3, 77), Some(1));
//! # let _ = (d, batch, fanout, closest, stats);
//! ```
//!
//! Serving threads use [`DistanceOracle::reader`]: a `Send + Sync`
//! handle with the identical query-plan surface whose methods take
//! `&self` (the handle re-pins the freshest published generation
//! internally), so no `&mut` ever crosses a thread boundary.

use batchhl_common::metrics;
use batchhl_common::{Dist, Vertex};
use batchhl_core::admission::validate_batch;
use batchhl_core::backend::{
    build_backend, load_backend, Backend, BackendFamily, BackendReader, Edit, GraphSource,
    OracleError,
};
use batchhl_core::index::{Algorithm, CompactionPolicy, IndexConfig};
use batchhl_core::persist::{write_checkpoint, CheckpointMeta, PersistError};
use batchhl_core::stats::UpdateStats;
use batchhl_core::wal::{read_wal_from, recover_wal, TxnId, WalRecord, WalTail, WalWriter};
use batchhl_core::whatif::WhatIfQuery;
use batchhl_graph::weighted::Weight;
use batchhl_hcl::LandmarkSelection;
use std::collections::{HashMap, VecDeque};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Handles into the process-wide metrics registry
/// ([`metrics::global`]), resolved once: the facade records owner-side
/// query latency and commit latency/outcomes so both are observable
/// without a serving tier (`batchhl-server` layers its own per-node
/// registry on top).
struct FacadeMetrics {
    query_latency: Arc<metrics::Histogram>,
    commit_latency: Arc<metrics::Histogram>,
    commits: Arc<metrics::Counter>,
    commit_failures: Arc<metrics::Counter>,
    generation_clones: Arc<metrics::Counter>,
}

fn facade_metrics() -> &'static FacadeMetrics {
    static METRICS: OnceLock<FacadeMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = metrics::global();
        FacadeMetrics {
            query_latency: r.histogram("batchhl_oracle_query_latency_us"),
            commit_latency: r.histogram("batchhl_oracle_commit_latency_us"),
            commits: r.counter("batchhl_oracle_commits_total"),
            commit_failures: r.counter("batchhl_oracle_commit_failures_total"),
            generation_clones: r.counter("batchhl_oracle_generation_clones_total"),
        }
    })
}

/// Failpoint shim: maps an injected failure at `site` onto the persist
/// error surface. Compiles to `Ok(())` without the `failpoints`
/// feature.
fn fail(site: &str) -> Result<(), PersistError> {
    batchhl_common::failpoint::check(site).map_err(|m| PersistError::Io(std::io::Error::other(m)))
}

/// Renders a caught panic payload for error messages.
fn panic_reason(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// File names inside an oracle's durability directory.
const CHECKPOINT_FILE: &str = "checkpoint.bhl2";
const CHECKPOINT_TMP: &str = "checkpoint.bhl2.tmp";
const WAL_FILE: &str = "batches.wal";

/// When the write-ahead log is forced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FsyncPolicy {
    /// `fsync` the WAL on every committed batch (write-ahead in the
    /// strict sense: an acknowledged commit survives power loss).
    #[default]
    EveryCommit,
    /// Only checkpoints are synced; WAL appends ride the OS cache. A
    /// crash may lose the most recent batches but never corrupts —
    /// recovery truncates the torn tail.
    CheckpointOnly,
    /// Nothing is synced explicitly (tests, throwaway runs).
    Never,
}

/// Durability tuning for [`DistanceOracle::persist_to`] /
/// [`DistanceOracle::open_with`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurabilityConfig {
    /// Write a fresh checkpoint (and rotate the WAL) automatically
    /// after this many committed batches; `None` = only on explicit
    /// [`DistanceOracle::save`] calls.
    pub checkpoint_every: Option<u64>,
    /// WAL sync policy.
    pub fsync: FsyncPolicy,
}

impl Default for DurabilityConfig {
    fn default() -> Self {
        DurabilityConfig {
            checkpoint_every: Some(64),
            fsync: FsyncPolicy::EveryCommit,
        }
    }
}

/// Attached durability state: the directory, the open WAL, and the
/// auto-checkpoint cadence counter.
struct Durability {
    dir: PathBuf,
    wal: WalWriter,
    config: DurabilityConfig,
    batches_since_checkpoint: u64,
}

/// Writer-path health of a [`DistanceOracle`]. Queries and readers are
/// never blocked by health: they keep serving the last published
/// generation in every state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleHealth {
    /// Commits are accepted.
    Healthy,
    /// A post-commit durability step (the auto-checkpoint) failed
    /// *after* the batch was applied and logged. The in-memory index
    /// and the write-ahead log are intact and further commits are
    /// accepted; a reopen replays from the older checkpoint.
    Degraded {
        /// What failed.
        reason: String,
    },
    /// A batch failed or panicked mid-apply. The backend was rolled
    /// back to the last published generation and (when durable) the
    /// logged batch was cancelled with a WAL abort record; further
    /// commits are refused until [`DistanceOracle::recover`].
    WritesPoisoned {
        /// What failed.
        reason: String,
        /// The WAL abort record cancelling the failed batch could not
        /// be written, so the batch is still *live* in the log: a
        /// naive reload would replay the very batch that just failed.
        /// [`DistanceOracle::recover`] re-attempts the cancellation
        /// before reloading and refuses to proceed while it keeps
        /// failing; a cold [`DistanceOracle::open`] by a process with
        /// no memory of the failure will attempt the replay, which is
        /// contained — a deterministic replay failure surfaces as a
        /// typed [`PersistError::Replay`], never a panic.
        batch_still_logged: bool,
    },
}

/// How many recently applied transaction ids the oracle remembers for
/// commit deduplication. Old entries are evicted in insertion order; a
/// retry arriving after its id was evicted (or after a WAL rotation on
/// a reopened oracle) is treated as a new commit, so clients should
/// bound their retry horizon well below this many intervening commits.
const TXN_DEDUP_CAPACITY: usize = 1024;

/// Outcome of one committed batch, as returned by
/// [`UpdateSession::commit_with_receipt`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitReceipt {
    /// Update statistics of the apply pass. For a deduplicated retry
    /// these are the *original* commit's stats, replayed from the
    /// dedup table.
    pub stats: UpdateStats,
    /// Sequence number the batch committed at (the WAL record's `seq`;
    /// equal to `batches_committed` at admission time).
    pub seq: u64,
    /// `true` when this commit's [`TxnId`] matched a recently applied
    /// batch: nothing was re-applied or re-logged, and `stats`/`seq`
    /// describe the original application.
    pub deduplicated: bool,
}

/// Bounded memory of recently applied txn-stamped commits, keyed by
/// the client's idempotency id. Rebuilt from the WAL on reopen (replay
/// re-derives each record's stats), so a retry that crosses a server
/// restart still deduplicates as long as the batch is in the log.
#[derive(Default)]
struct TxnDedup {
    receipts: HashMap<TxnId, CommitReceipt>,
    /// Insertion order, for capacity eviction.
    order: VecDeque<TxnId>,
}

impl TxnDedup {
    fn get(&self, txn: TxnId) -> Option<&CommitReceipt> {
        self.receipts.get(&txn)
    }

    /// Record a freshly applied commit, evicting the oldest entry past
    /// capacity. A re-recorded id (possible only on replay of a log
    /// that legitimately repeats an evicted id) keeps the newest
    /// receipt.
    fn record(&mut self, txn: TxnId, stats: UpdateStats, seq: u64) {
        let fresh = self
            .receipts
            .insert(
                txn,
                CommitReceipt {
                    stats,
                    seq,
                    deduplicated: false,
                },
            )
            .is_none();
        if fresh {
            self.order.push_back(txn);
        }
        while self.order.len() > TXN_DEDUP_CAPACITY {
            if let Some(old) = self.order.pop_front() {
                self.receipts.remove(&old);
            }
        }
    }
}

/// Write-ahead-log cursor reported by [`DistanceOracle::wal_position`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalPosition {
    /// Sequence number the next committed batch will receive (equal to
    /// [`DistanceOracle::batches_committed`]).
    pub next_seq: u64,
    /// Byte length of the attached WAL file; `None` when durability is
    /// not attached.
    pub wal_bytes: Option<u64>,
}

/// A batch-dynamic distance oracle over one of the index families,
/// chosen at build time and erased behind [`Backend`].
pub struct DistanceOracle {
    backend: Box<dyn Backend>,
    /// Total batches committed over the oracle's lifetime (across
    /// restarts — restored from the checkpoint + WAL replay). This is
    /// the WAL sequence cursor.
    batches_committed: u64,
    durability: Option<Durability>,
    health: OracleHealth,
    /// Recently applied txn-stamped commits (idempotent-retry memory).
    txn_dedup: TxnDedup,
}

/// The short name the builder examples use (`Oracle::builder()`).
pub use self::DistanceOracle as Oracle;

impl std::fmt::Debug for DistanceOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DistanceOracle")
            .field("family", &self.backend.family())
            .field("num_vertices", &self.backend.num_vertices())
            .field("version", &self.backend.version())
            .finish()
    }
}

impl DistanceOracle {
    /// Start configuring an oracle (see [`OracleBuilder`]).
    pub fn builder() -> OracleBuilder {
        OracleBuilder::default()
    }

    /// Build with the default configuration for the family `source`
    /// implies.
    pub fn new(source: impl Into<GraphSource>) -> Result<Self, OracleError> {
        Self::builder().build(source)
    }

    /// Which index family serves this oracle.
    pub fn family(&self) -> BackendFamily {
        self.backend.family()
    }

    pub fn num_vertices(&self) -> usize {
        self.backend.num_vertices()
    }

    /// Version of the newest published generation (bumps per committed
    /// update pass).
    pub fn version(&self) -> u64 {
        self.backend.version()
    }

    /// Logical label entries across the index's labelling(s).
    pub fn label_entries(&self) -> usize {
        self.backend.label_entries()
    }

    /// Logical labelling size in bytes.
    pub fn label_size_bytes(&self) -> usize {
        self.backend.label_size_bytes()
    }

    /// Exact distance; `None` when disconnected/unreachable or out of
    /// range. On directed oracles this is `d(s → t)`.
    ///
    /// Owner-side query calls (this and the other plan methods below)
    /// record their latency into the process-wide metrics registry as
    /// `batchhl_oracle_query_latency_us`, one observation per call.
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        let start = Instant::now();
        let d = self.backend.query(s, t);
        facade_metrics().query_latency.observe(start.elapsed());
        d
    }

    /// Batched pair queries: one generation for the whole call, pairs
    /// grouped by source so each group reuses one source-side label
    /// plan. Result order matches `pairs`.
    pub fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        let start = Instant::now();
        let out = self.backend.query_many(pairs);
        facade_metrics().query_latency.observe(start.elapsed());
        out
    }

    /// One-source-to-many-targets distances: the source's label rows
    /// are pinned once and reused across all targets, and the targets
    /// are searched pair by pair until that costs more than one bounded
    /// sweep would, which then answers the rest.
    pub fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        let start = Instant::now();
        let out = self.backend.distances_from(s, targets);
        facade_metrics().query_latency.observe(start.elapsed());
        out
    }

    /// The `k` vertices closest to `s` (excluding `s`), nondecreasing
    /// by distance.
    pub fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        let start = Instant::now();
        let out = self.backend.top_k_closest(s, k);
        facade_metrics().query_latency.observe(start.elapsed());
        out
    }

    /// Out-neighbours of `v` in the current graph (weights dropped on
    /// weighted oracles; empty when out of range).
    pub fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        self.backend.neighbors(v)
    }

    /// Degree of `v` (out-degree on directed oracles).
    pub fn degree(&self, v: Vertex) -> usize {
        self.backend.degree(v)
    }

    /// Open an update session: edits accumulate on the session and
    /// [`UpdateSession::commit`] applies them as **one** batch.
    /// Dropping the session without committing discards the edits.
    ///
    /// When durability is attached ([`DistanceOracle::persist_to`] or
    /// [`DistanceOracle::open`]), `commit` appends the batch to the
    /// write-ahead log *before* applying it, so an acknowledged commit
    /// survives a crash.
    pub fn update(&mut self) -> UpdateSession<'_> {
        UpdateSession {
            oracle: self,
            edits: Vec::new(),
            txn: None,
        }
    }

    /// The receipt of a recently applied commit stamped with `txn`, if
    /// the oracle still remembers it (`deduplicated` forced to `true`).
    ///
    /// This is the idempotent-retry lookup: a serving tier consults it
    /// before admission so a retried commit whose original response
    /// was lost is answered from history — even while writes are
    /// poisoned or read-only, since answering from history performs no
    /// write. The memory is bounded ([`TxnId`]s are evicted oldest
    /// first past ~1k commits) and is rebuilt from the WAL on reopen;
    /// a WAL rotation (checkpoint) truncates it for reopened oracles.
    pub fn txn_receipt(&self, txn: TxnId) -> Option<CommitReceipt> {
        self.txn_dedup.get(txn).map(|r| CommitReceipt {
            deduplicated: true,
            ..r.clone()
        })
    }

    /// Total batches committed over this oracle's lifetime, counted
    /// across restarts (it is the write-ahead-log sequence cursor).
    pub fn batches_committed(&self) -> u64 {
        self.batches_committed
    }

    /// Where the write-ahead log stands: the sequence number the next
    /// committed batch will receive, plus the attached log file's
    /// current byte length (`None` without durability).
    ///
    /// This is the introspection surface WAL-shipping replication
    /// hangs off: a replica records `next_seq` as the point it must
    /// tail from, and a primary compares a tailer's requested sequence
    /// against [`DistanceOracle::wal_tail`]'s floor to detect that the
    /// log has rotated past it.
    pub fn wal_position(&self) -> WalPosition {
        let wal_bytes = self
            .durability
            .as_ref()
            .and_then(|d| std::fs::metadata(d.wal.path()).ok())
            .map(|m| m.len());
        WalPosition {
            next_seq: self.batches_committed,
            wal_bytes,
        }
    }

    /// The committed batch records still present in the attached
    /// write-ahead log with `seq >= from_seq`, in commit order — the
    /// feed a read replica applies. Abort-cancelled batches are
    /// excluded, the scan is strictly read-only (it never truncates a
    /// torn tail — every record it returns was fully framed and
    /// checksummed), and a detached oracle returns an empty tail.
    ///
    /// [`WalTail::floor`] is the oldest sequence the log can still
    /// serve: a `from_seq` below it means the caller needs a fresh
    /// checkpoint ([`DistanceOracle::open_detached`]) before tailing.
    pub fn wal_tail(&self, from_seq: u64) -> Result<WalTail, PersistError> {
        match &self.durability {
            Some(d) => read_wal_from(d.wal.path(), from_seq),
            None => Ok(WalTail::default()),
        }
    }

    /// Writer-path health. [`OracleHealth::WritesPoisoned`] refuses
    /// further commits until [`DistanceOracle::recover`];
    /// [`OracleHealth::Degraded`] keeps accepting them. Queries and
    /// readers serve the last published generation in every state.
    pub fn health(&self) -> &OracleHealth {
        &self.health
    }

    /// Return the oracle to [`OracleHealth::Healthy`] after a failed
    /// commit.
    ///
    /// With durability attached this re-opens the directory from disk
    /// — checkpoint load plus WAL replay, which skips any aborted
    /// batch — and replaces `self` with the reloaded oracle, so it
    /// lands on exactly the state a crash-restart would. Reader
    /// handles taken *before* `recover` stay pinned to the old store
    /// and no longer follow new commits; take fresh readers afterwards.
    ///
    /// Without durability the rollback already republished the last
    /// good generation, so recovery just clears the poison.
    ///
    /// Fails (leaving health untouched) only if the durable reload
    /// itself fails — including when the failed batch is still live in
    /// the log ([`OracleHealth::WritesPoisoned::batch_still_logged`])
    /// and re-attempting its WAL cancellation fails again; the error
    /// names the cause.
    pub fn recover(&mut self) -> Result<(), OracleError> {
        if self.health == OracleHealth::Healthy {
            return Ok(());
        }
        // If the failed batch's abort record never reached the log, the
        // WAL still replays that batch — retry the cancellation first,
        // and refuse to reload behind a log that would replay a batch
        // the caller was told failed.
        if let OracleHealth::WritesPoisoned {
            batch_still_logged: true,
            ..
        } = &self.health
        {
            if let Some(d) = &mut self.durability {
                let seq = self.batches_committed;
                d.wal
                    .append_abort(seq, true)
                    .map_err(|e| OracleError::Durability {
                        reason: format!(
                            "recover: failed batch {seq} is still logged and its abort \
                             record could not be written: {e}"
                        ),
                    })?;
            }
            if let OracleHealth::WritesPoisoned {
                batch_still_logged, ..
            } = &mut self.health
            {
                *batch_still_logged = false;
            }
        }
        if let Some(d) = &self.durability {
            let dir = d.dir.clone();
            let config = d.config;
            let reloaded = Self::open_with(&dir, config).map_err(|e| OracleError::Durability {
                reason: format!("recover reload: {e}"),
            })?;
            *self = reloaded;
        } else {
            self.health = OracleHealth::Healthy;
        }
        Ok(())
    }

    /// Audit the live index against ground truth: labelling minimality
    /// (unweighted families, Theorem 5.21) plus deterministic sampled
    /// distance sweeps recomputed by BFS/Dijkstra on the current
    /// graph. Returns [`OracleError::Integrity`] naming the first
    /// discrepancy. Intended for tests and operational spot checks —
    /// cost is a handful of full traversals.
    pub fn verify_integrity(&mut self) -> Result<(), OracleError> {
        self.backend.verify_integrity(8)
    }

    /// Cancel the in-flight batch (`seq == self.batches_committed`)
    /// after a failed or panicked apply: append a WAL abort record
    /// (always synced — the cancellation must be at least as durable
    /// as the batch it cancels), restore the backend to the last
    /// published generation, and poison writes. Returns the full
    /// reason string recorded in the health state.
    fn abort_batch(&mut self, token: Box<dyn std::any::Any + Send>, reason: &str) -> String {
        let mut full = reason.to_string();
        let mut batch_still_logged = false;
        if let Some(d) = &mut self.durability {
            let seq = self.batches_committed;
            match catch_unwind(AssertUnwindSafe(|| d.wal.append_abort(seq, true))) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    batch_still_logged = true;
                    full.push_str(&format!("; abort record failed: {e}"));
                }
                Err(p) => {
                    batch_still_logged = true;
                    full.push_str(&format!("; abort record panicked: {}", panic_reason(p)));
                }
            }
        }
        if let Err(e) = self.backend.restore(token) {
            full.push_str(&format!("; rollback failed: {e}"));
        }
        self.health = OracleHealth::WritesPoisoned {
            reason: full.clone(),
            batch_still_logged,
        };
        full
    }

    /// The durability directory, when durability is attached.
    pub fn durability_dir(&self) -> Option<&Path> {
        self.durability.as_ref().map(|d| d.dir.as_path())
    }

    /// Write a `BHL2` checkpoint of the full oracle state into `dir`
    /// (atomically: temp file + rename). If durability is attached to
    /// the same directory, the write-ahead log is rotated afterwards —
    /// the checkpoint subsumes every logged batch.
    ///
    /// The checkpoint captures the graph, labelling(s), landmark set,
    /// update configuration and generation metadata for whichever
    /// family serves this oracle; [`DistanceOracle::open`] restores an
    /// oracle that answers and maintains identically.
    pub fn save(&mut self, dir: impl AsRef<Path>) -> Result<(), PersistError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let sync = self
            .durability
            .as_ref()
            .map(|d| d.config.fsync != FsyncPolicy::Never)
            .unwrap_or(true);
        let tmp = dir.join(CHECKPOINT_TMP);
        let meta = CheckpointMeta {
            batch_seq: self.batches_committed,
            version: self.backend.version(),
        };
        let mut out = BufWriter::new(File::create(&tmp)?);
        write_checkpoint(self.backend.as_ref(), meta, &mut out)?;
        let file = out.into_inner().map_err(|e| PersistError::Io(e.into()))?;
        fail("persist::after_tmp_write")?;
        if sync {
            file.sync_all()?;
        }
        drop(file);
        fail("persist::before_rename")?;
        std::fs::rename(&tmp, dir.join(CHECKPOINT_FILE))?;
        if sync {
            // Persist the rename itself (best effort — not all
            // platforms let a directory be fsynced).
            if let Ok(d) = File::open(dir) {
                let _ = d.sync_all();
            }
        }
        // Only now that the superseding checkpoint is durable may the
        // log be rotated — and a *stale* WAL from an earlier process in
        // this directory must be reset too, or `open` would replay
        // foreign batches on top of this checkpoint.
        match &mut self.durability {
            Some(d) if d.dir == dir => {
                d.wal = WalWriter::create(dir.join(WAL_FILE))?;
                d.batches_since_checkpoint = 0;
            }
            _ => {
                if dir.join(WAL_FILE).exists() {
                    WalWriter::create(dir.join(WAL_FILE))?;
                }
            }
        }
        Ok(())
    }

    /// Attach durability: write an initial checkpoint into `dir`, start
    /// a fresh write-ahead log, and from now on log every committed
    /// batch (checkpointing automatically per
    /// [`DurabilityConfig::checkpoint_every`]).
    pub fn persist_to(
        &mut self,
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<(), PersistError> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // Attach without truncating any existing log: an earlier
        // process's acknowledged batches stay recoverable until the
        // superseding checkpoint has been renamed into place — `save`
        // rotates the WAL only after that point.
        let wal = WalWriter::open_append(dir.join(WAL_FILE))?;
        self.durability = Some(Durability {
            dir: dir.clone(),
            wal,
            config,
            batches_since_checkpoint: 0,
        });
        self.save(&dir)
    }

    /// Reopen a persisted oracle: load the checkpoint in `dir`, replay
    /// the write-ahead-log tail (truncating a torn final record), and
    /// resume with durability attached — the warm-restart path.
    ///
    /// Fails with a typed [`PersistError`] on a missing checkpoint or
    /// any corruption; it never panics and never serves a state that
    /// mixes checkpoint and half-applied batches. Batches cancelled by
    /// a WAL abort record (a commit that failed mid-apply) are skipped
    /// by replay, so a reopen after a poisoned commit lands on exactly
    /// the last good state. The opened oracle is always
    /// [`OracleHealth::Healthy`].
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        Self::open_with(dir, DurabilityConfig::default())
    }

    /// [`DistanceOracle::open`] with explicit durability tuning.
    pub fn open_with(
        dir: impl AsRef<Path>,
        config: DurabilityConfig,
    ) -> Result<Self, PersistError> {
        let dir = dir.as_ref().to_path_buf();
        let (mut backend, meta) = Self::load_checkpoint(&dir)?;
        // Replay the records committed after the checkpoint was cut.
        // Records the checkpoint already covers are skipped by their
        // sequence number (a checkpoint may race ahead of WAL rotation).
        let (records, _recovery) = recover_wal(dir.join(WAL_FILE))?;
        let mut dedup = TxnDedup::default();
        let (cursor, replayed) =
            Self::replay_records(backend.as_mut(), meta.batch_seq, &records, &mut dedup)?;
        let wal = WalWriter::open_append(dir.join(WAL_FILE))?;
        Ok(DistanceOracle {
            backend,
            batches_committed: cursor,
            durability: Some(Durability {
                dir,
                wal,
                config,
                batches_since_checkpoint: replayed,
            }),
            health: OracleHealth::Healthy,
            txn_dedup: dedup,
        })
    }

    /// Load the state persisted in `dir` — checkpoint plus committed
    /// WAL tail — **without attaching durability**: the opened oracle
    /// logs nothing and never writes into `dir`.
    ///
    /// This is the read-replica bootstrap path: a replica opens the
    /// primary's (shared) checkpoint directory detached, then applies
    /// the batches it tails over the network through ordinary commits,
    /// which stay purely in memory. Unlike [`DistanceOracle::open`]
    /// the WAL scan here is strictly read-only — the directory may
    /// belong to a *live* primary, so a torn tail is treated as
    /// end-of-log rather than truncated in place.
    pub fn open_detached(dir: impl AsRef<Path>) -> Result<Self, PersistError> {
        let dir = dir.as_ref();
        let (mut backend, meta) = Self::load_checkpoint(dir)?;
        let tail = read_wal_from(dir.join(WAL_FILE), meta.batch_seq)?;
        let mut dedup = TxnDedup::default();
        let (cursor, _) =
            Self::replay_records(backend.as_mut(), meta.batch_seq, &tail.records, &mut dedup)?;
        Ok(DistanceOracle {
            backend,
            batches_committed: cursor,
            durability: None,
            health: OracleHealth::Healthy,
            txn_dedup: dedup,
        })
    }

    /// Open and deserialize `dir`'s checkpoint file.
    fn load_checkpoint(dir: &Path) -> Result<(Box<dyn Backend>, CheckpointMeta), PersistError> {
        let ckpt = dir.join(CHECKPOINT_FILE);
        let file = match File::open(&ckpt) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(PersistError::MissingCheckpoint {
                    path: ckpt.display().to_string(),
                })
            }
            Err(e) => return Err(e.into()),
        };
        load_backend(BufReader::new(file))
    }

    /// Replay recovered WAL records on top of a just-loaded checkpoint
    /// (records the checkpoint already covers are skipped by sequence
    /// number). Returns the resulting batch cursor and how many records
    /// were actually replayed. Txn-stamped records repopulate `dedup`
    /// with the stats the replayed apply produced, so a client retry
    /// that crosses the reopen still deduplicates.
    fn replay_records(
        backend: &mut dyn Backend,
        checkpoint_seq: u64,
        records: &[WalRecord],
        dedup: &mut TxnDedup,
    ) -> Result<(u64, u64), PersistError> {
        let mut cursor = checkpoint_seq;
        let mut replayed = 0u64;
        for rec in records {
            if rec.seq < checkpoint_seq {
                continue;
            }
            if rec.seq != cursor {
                return Err(PersistError::WalCorrupt {
                    offset: 0,
                    reason: format!("sequence gap: expected batch {cursor}, found {}", rec.seq),
                });
            }
            // Replay under a panic boundary: the log may legitimately
            // carry a batch whose cancellation could not be written
            // (`batch_still_logged`), and `open` promises a typed error
            // — never a panic — even when replaying it trips the same
            // deterministic bug that failed the original commit.
            match catch_unwind(AssertUnwindSafe(|| backend.commit_edits(&rec.edits))) {
                Ok(Ok(stats)) => {
                    if let Some(txn) = rec.txn {
                        dedup.record(txn, stats, rec.seq);
                    }
                }
                Ok(Err(e)) => return Err(PersistError::Replay(e)),
                Err(p) => {
                    return Err(PersistError::Replay(OracleError::CommitPanicked {
                        reason: format!("replay of batch {}: {}", rec.seq, panic_reason(p)),
                    }))
                }
            }
            cursor += 1;
            replayed += 1;
        }
        Ok((cursor, replayed))
    }

    /// A `Send + Sync` reader with the identical query-plan surface,
    /// queries taking `&self` (interior re-pinning). Clone it or share
    /// it by reference across serving threads.
    pub fn reader(&self) -> OracleReader {
        OracleReader {
            inner: self.backend.reader(),
        }
    }

    /// Tune the CSR compaction policy of published views.
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        self.backend.set_compaction(policy);
    }
}

/// Configures and constructs a [`DistanceOracle`].
///
/// `directed(..)` and `weighted(..)` *declare intent*: leave them unset
/// and the family is inferred from the graph source; set them and a
/// mismatching source is rejected with [`OracleError::SourceMismatch`]
/// instead of silently building the wrong index.
#[derive(Debug, Clone, Default)]
pub struct OracleBuilder {
    directed: Option<bool>,
    weighted: Option<bool>,
    config: IndexConfig,
}

impl OracleBuilder {
    /// Declare whether the oracle is over a directed graph.
    pub fn directed(mut self, directed: bool) -> Self {
        self.directed = Some(directed);
        self
    }

    /// Declare whether the oracle is over a weighted graph.
    pub fn weighted(mut self, weighted: bool) -> Self {
        self.weighted = Some(weighted);
        self
    }

    /// Update variant (default [`Algorithm::BhlPlus`]; ignored by the
    /// weighted family, which has one update path).
    pub fn algorithm(mut self, algorithm: Algorithm) -> Self {
        self.config.algorithm = algorithm;
        self
    }

    /// Worker threads for construction and updates (landmark-level
    /// parallelism; default 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Landmark selection strategy (default: the paper's 20 top-degree
    /// vertices).
    pub fn landmarks(mut self, selection: LandmarkSelection) -> Self {
        self.config.selection = selection;
        self
    }

    /// Shorthand for [`LandmarkSelection::TopDegree`].
    pub fn top_degree_landmarks(self, k: usize) -> Self {
        self.landmarks(LandmarkSelection::TopDegree(k))
    }

    /// CSR compaction policy for published views.
    pub fn compaction(mut self, policy: CompactionPolicy) -> Self {
        self.config.compaction = policy;
        self
    }

    /// Build the oracle over `source` — any of the three graph types
    /// (or an explicit [`GraphSource`]). The source's family must agree
    /// with any `directed(..)` / `weighted(..)` declaration.
    pub fn build(self, source: impl Into<GraphSource>) -> Result<DistanceOracle, OracleError> {
        let source = source.into();
        let declared = match (self.directed, self.weighted) {
            (Some(true), _) => Some(BackendFamily::Directed),
            (_, Some(true)) => Some(BackendFamily::Weighted),
            (Some(false), Some(false)) => Some(BackendFamily::Undirected),
            _ => None,
        };
        // A directed+weighted declaration names a family the workspace
        // does not grow yet; surface that as a mismatch against
        // whatever source was provided rather than guessing.
        if self.directed == Some(true) && self.weighted == Some(true) {
            return Err(OracleError::SourceMismatch {
                declared: BackendFamily::Directed,
                source: source.family(),
            });
        }
        if let Some(declared) = declared {
            if declared != source.family() {
                return Err(OracleError::SourceMismatch {
                    declared,
                    source: source.family(),
                });
            }
        }
        // Partial declarations (`directed(false)` alone, say) only need
        // to not contradict the source.
        if self.directed == Some(false) && source.family() == BackendFamily::Directed {
            return Err(OracleError::SourceMismatch {
                declared: BackendFamily::Undirected,
                source: source.family(),
            });
        }
        if self.weighted == Some(false) && source.family() == BackendFamily::Weighted {
            return Err(OracleError::SourceMismatch {
                declared: BackendFamily::Undirected,
                source: source.family(),
            });
        }
        Ok(DistanceOracle {
            backend: build_backend(source, self.config)?,
            batches_committed: 0,
            durability: None,
            health: OracleHealth::Healthy,
            txn_dedup: TxnDedup::default(),
        })
    }
}

/// Accumulates edits against one oracle and commits them as a single
/// batch (the unified mutation surface over `apply_batch`).
///
/// Edit methods consume and return the session so calls chain;
/// [`UpdateSession::commit`] consumes it for good. A dropped session
/// commits nothing.
#[must_use = "edits are applied only by `commit()`"]
pub struct UpdateSession<'a> {
    oracle: &'a mut DistanceOracle,
    edits: Vec<Edit>,
    txn: Option<TxnId>,
}

impl UpdateSession<'_> {
    /// Queue an edge/arc insertion (unit weight on weighted oracles).
    pub fn insert(mut self, a: Vertex, b: Vertex) -> Self {
        self.edits.push(Edit::Insert(a, b));
        self
    }

    /// Queue a weighted edge insertion (weighted oracles; unweighted
    /// oracles accept `w == 1` and reject anything else at commit).
    pub fn insert_weighted(mut self, a: Vertex, b: Vertex, w: Weight) -> Self {
        self.edits.push(Edit::InsertWeighted(a, b, w));
        self
    }

    /// Queue an edge/arc removal.
    pub fn remove(mut self, a: Vertex, b: Vertex) -> Self {
        self.edits.push(Edit::Remove(a, b));
        self
    }

    /// Queue a weight change of an existing edge (weighted oracles).
    pub fn set_weight(mut self, a: Vertex, b: Vertex, w: Weight) -> Self {
        self.edits.push(Edit::SetWeight(a, b, w));
        self
    }

    /// Queue an already-constructed edit (e.g. replayed from a log).
    pub fn push(mut self, edit: Edit) -> Self {
        self.edits.push(edit);
        self
    }

    /// Stamp this commit with a client idempotency key.
    ///
    /// A stamped commit is written to the WAL as a txn-carrying record
    /// and remembered in the oracle's bounded dedup table; committing
    /// again with the **same** id — a retry after a lost response —
    /// returns the original [`CommitReceipt`] (marked `deduplicated`)
    /// without re-applying or re-logging anything. The id identifies
    /// the *logical commit*, not its payload: a reused id returns the
    /// original result even if the queued edits differ, exactly like
    /// an idempotency key on a payments API. Failed or aborted commits
    /// are **not** remembered — retrying them re-attempts the batch.
    pub fn txn(mut self, txn: TxnId) -> Self {
        self.txn = Some(txn);
        self
    }

    /// Queued edits so far.
    pub fn len(&self) -> usize {
        self.edits.len()
    }

    pub fn is_empty(&self) -> bool {
        self.edits.is_empty()
    }

    /// Apply every queued edit as **one** batch (normalization, batch
    /// search, batch repair, publication) and return the update stats.
    ///
    /// # Failure semantics
    ///
    /// The commit is transactional — it either lands in full or is
    /// cancelled in full, phase by phase:
    ///
    /// - **Admission.** The batch is validated against the family and
    ///   the current graph *before* anything is written: unsupported
    ///   edit kinds, out-of-range or overflowing endpoints, self-loops,
    ///   zero or clamp-unsafe weights, and conflicting duplicate edits
    ///   are refused with a typed [`OracleError`]. Nothing is applied
    ///   and nothing is logged — an inadmissible batch never becomes
    ///   durable. An **empty** batch short-circuits here to a zeroed
    ///   [`UpdateStats`]: no WAL record, no generation churn.
    /// - **Write-ahead.** With durability attached the batch is
    ///   appended to the log (synced per [`FsyncPolicy`]). An error or
    ///   panic here is contained; the log's all-or-nothing append
    ///   guard leaves the file untouched and the oracle stays
    ///   [`OracleHealth::Healthy`] — the commit merely failed.
    /// - **Apply.** The batch runs against the index under a panic
    ///   boundary. On error or panic the logged batch is cancelled
    ///   with a WAL *abort record*, the backend is rolled back to the
    ///   last published generation (readers never observe the failed
    ///   batch), and health flips to [`OracleHealth::WritesPoisoned`]
    ///   — further commits are refused until
    ///   [`DistanceOracle::recover`].
    /// - **Checkpoint.** A due auto-checkpoint that fails (or panics)
    ///   reports [`OracleError::Durability`] and flips health to
    ///   [`OracleHealth::Degraded`], but the batch itself *stays*
    ///   committed and logged — a reopen replays it from the WAL.
    pub fn commit(self) -> Result<UpdateStats, OracleError> {
        self.commit_with_receipt().map(|r| r.stats)
    }

    /// [`commit`](Self::commit), but returning the full
    /// [`CommitReceipt`]: the stats, the sequence number the batch
    /// landed at, and whether the commit was answered from the txn
    /// dedup table instead of being applied.
    pub fn commit_with_receipt(self) -> Result<CommitReceipt, OracleError> {
        let start = Instant::now();
        let result = self.commit_inner();
        // Commit outcomes and latency land in the process-wide registry
        // (`batchhl_oracle_commit*`), alongside owner-side query latency.
        let m = facade_metrics();
        match &result {
            Ok(receipt) => {
                m.commits.inc();
                m.commit_latency.observe(start.elapsed());
                if !receipt.deduplicated {
                    m.generation_clones
                        .add(receipt.stats.generation_clones as u64);
                }
            }
            Err(_) => m.commit_failures.inc(),
        }
        result
    }

    fn commit_inner(self) -> Result<CommitReceipt, OracleError> {
        let oracle = self.oracle;
        // Idempotent-retry fast path, checked before *everything* —
        // health included: a retry of a commit that already applied is
        // a read of history, and must keep answering even after a later
        // unrelated batch poisoned writes.
        if let Some(txn) = self.txn {
            if let Some(receipt) = oracle.txn_receipt(txn) {
                return Ok(receipt);
            }
        }
        if let OracleHealth::WritesPoisoned { reason, .. } = &oracle.health {
            return Err(OracleError::WritesPoisoned {
                reason: reason.clone(),
            });
        }
        // Admission: validate against the family and the current graph
        // *before* logging — a batch the oracle cannot apply must never
        // become durable (it would poison every replay).
        validate_batch(
            oracle.backend.family(),
            oracle.backend.num_vertices(),
            &self.edits,
        )?;
        if self.edits.is_empty() {
            // Empty batches consume no sequence number and touch no
            // state, so they are naturally idempotent — no dedup entry
            // is recorded for them either.
            return Ok(CommitReceipt {
                stats: UpdateStats::default(),
                seq: oracle.batches_committed,
                deduplicated: false,
            });
        }
        // Phase 1 — write-ahead. Contained: on error or panic the WAL's
        // truncate-on-unwind guard has already rolled the file back, so
        // nothing is durable, nothing was applied, health is untouched.
        if let Some(d) = &mut oracle.durability {
            let sync = d.config.fsync == FsyncPolicy::EveryCommit;
            let seq = oracle.batches_committed;
            let edits = &self.edits;
            let txn = self.txn;
            match catch_unwind(AssertUnwindSafe(|| d.wal.append_txn(seq, edits, txn, sync))) {
                Ok(Ok(())) => {}
                Ok(Err(e)) => {
                    return Err(OracleError::Durability {
                        reason: e.to_string(),
                    })
                }
                Err(p) => {
                    return Err(OracleError::CommitPanicked {
                        reason: format!("wal append: {}", panic_reason(p)),
                    })
                }
            }
        }
        // Phase 2 — apply. The batch is durable now (when attached), so
        // a failure past this point must be cancelled in the log too:
        // capture the rollback token, contain any panic, and on failure
        // abort the batch (abort record + generation rollback + poison).
        let token = oracle.backend.rollback_token();
        let stats = match catch_unwind(AssertUnwindSafe(|| {
            oracle.backend.commit_edits(&self.edits)
        })) {
            Ok(Ok(stats)) => stats,
            Ok(Err(e)) => {
                oracle.abort_batch(token, &e.to_string());
                return Err(e);
            }
            Err(p) => {
                let full = oracle.abort_batch(token, &panic_reason(p));
                return Err(OracleError::CommitPanicked { reason: full });
            }
        };
        let seq = oracle.batches_committed;
        oracle.batches_committed += 1;
        // The batch is applied and (when attached) durable: only now is
        // its txn id remembered — a failed commit must stay retryable.
        if let Some(txn) = self.txn {
            oracle.txn_dedup.record(txn, stats.clone(), seq);
        }
        // Phase 3 — auto-checkpoint. The batch is committed and logged;
        // a checkpoint failure degrades health but is NOT rolled back —
        // the WAL still replays the batch on reopen.
        let due = oracle.durability.as_mut().and_then(|d| {
            d.batches_since_checkpoint += 1;
            let every = d.config.checkpoint_every?;
            (d.batches_since_checkpoint >= every).then(|| d.dir.clone())
        });
        if let Some(dir) = due {
            let failure = match catch_unwind(AssertUnwindSafe(|| oracle.save(&dir))) {
                Ok(Ok(())) => None,
                Ok(Err(e)) => Some(e.to_string()),
                Err(p) => Some(format!("checkpoint panicked: {}", panic_reason(p))),
            };
            if let Some(reason) = failure {
                oracle.health = OracleHealth::Degraded {
                    reason: reason.clone(),
                };
                return Err(OracleError::Durability { reason });
            }
            // A succeeding checkpoint supersedes whatever the last
            // failed one degraded us over.
            if matches!(oracle.health, OracleHealth::Degraded { .. }) {
                oracle.health = OracleHealth::Healthy;
            }
        }
        Ok(CommitReceipt {
            stats,
            seq,
            deduplicated: false,
        })
    }

    /// Explicitly throw the queued edits away.
    pub fn discard(self) {}
}

/// `Send + Sync` query handle over an oracle's published generations,
/// with the same batched query-plan surface as the oracle itself —
/// every method takes `&self`, so one reader can be shared by
/// reference across any number of serving threads.
pub struct OracleReader {
    inner: Box<dyn BackendReader>,
}

impl Clone for OracleReader {
    fn clone(&self) -> Self {
        OracleReader {
            inner: self.inner.clone_reader(),
        }
    }
}

impl std::fmt::Debug for OracleReader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("OracleReader")
            .field("version", &self.inner.version())
            .finish()
    }
}

impl OracleReader {
    /// Version of the freshest published generation.
    pub fn version(&self) -> u64 {
        self.inner.version()
    }

    /// Exact distance on the freshest published generation.
    pub fn query(&self, s: Vertex, t: Vertex) -> Option<Dist> {
        self.inner.query(s, t)
    }

    /// Batched pair queries against one pinned generation.
    pub fn query_many(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        self.inner.query_many(pairs)
    }

    /// One-source-to-many-targets against one pinned generation.
    pub fn distances_from(&self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        self.inner.distances_from(s, targets)
    }

    /// The `k` closest vertices on the freshest published generation.
    pub fn top_k_closest(&self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        self.inner.top_k_closest(s, k)
    }

    /// A speculative **what-if session**: answers queries as if `edits`
    /// had been committed, without committing them. The session pins
    /// the freshest published generation and builds a private graph
    /// overlay plus a scoped label patch over it — no generation bump,
    /// no WAL traffic, and the oracle's own answers are untouched. The
    /// hypothetical evaporates when the session is dropped, so many
    /// sessions (distinct failure scenarios) can run concurrently
    /// against one snapshot.
    ///
    /// Errors on edits the backend family cannot express (the same
    /// rule as `commit_edits`): unweighted oracles reject
    /// weight-carrying edits.
    pub fn what_if(&self, edits: &[Edit]) -> Result<WhatIfSession, OracleError> {
        Ok(WhatIfSession {
            inner: self.inner.what_if(edits)?,
        })
    }
}

/// A scoped hypothetical built by [`OracleReader::what_if`]. Query
/// methods take `&mut self` (the session owns private search
/// workspace); drop it to discard the hypothetical.
pub struct WhatIfSession {
    inner: Box<dyn WhatIfQuery>,
}

impl std::fmt::Debug for WhatIfSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WhatIfSession")
            .field("version", &self.inner.version())
            .finish()
    }
}

impl WhatIfSession {
    /// Version of the pinned generation the hypothetical sits on.
    /// Never changes for the life of the session.
    pub fn version(&self) -> u64 {
        self.inner.version()
    }

    /// Exact distance under the hypothetical edits.
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        self.inner.query(s, t)
    }

    /// Batched pair queries under the hypothetical edits.
    pub fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        self.inner.query_many(pairs)
    }

    /// One-source-to-many-targets under the hypothetical edits.
    pub fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        self.inner.distances_from(s, targets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_graph::generators::path;
    use batchhl_graph::weighted::WeightedGraph;
    use batchhl_graph::DynamicDiGraph;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("batchhl_oracle_tests").join(name);
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn save_open_roundtrip_preserves_answers_and_resumes() {
        let dir = tmp_dir("roundtrip");
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(8))
            .unwrap();
        oracle.update().insert(0, 7).commit().unwrap();
        oracle.save(&dir).unwrap();

        let mut back = Oracle::open(&dir).unwrap();
        assert_eq!(back.family(), BackendFamily::Undirected);
        assert_eq!(back.batches_committed(), 1);
        for s in 0..8u32 {
            for t in 0..8u32 {
                assert_eq!(back.query(s, t), oracle.query(s, t), "({s},{t})");
            }
        }
        // The reopened oracle keeps maintaining — and logging.
        back.update().remove(3, 4).commit().unwrap();
        assert_eq!(back.query(3, 4), Some(7), "rerouted 3-2-1-0-7-6-5-4");
    }

    #[test]
    fn txn_retry_deduplicates_in_memory_and_across_reopen() {
        let dir = tmp_dir("txn_dedup");
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(8))
            .unwrap();
        oracle
            .persist_to(
                &dir,
                DurabilityConfig {
                    checkpoint_every: None,
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
        let txn = TxnId {
            session: 0xABCD,
            counter: 1,
        };
        let first = oracle
            .update()
            .insert(0, 7)
            .txn(txn)
            .commit_with_receipt()
            .unwrap();
        assert!(!first.deduplicated);
        assert_eq!(first.seq, 0);
        let wal_after = std::fs::read(dir.join(WAL_FILE)).unwrap();

        // Same txn again — a retry after a lost response: the original
        // receipt comes back, nothing is re-applied or re-logged.
        let retry = oracle
            .update()
            .insert(0, 7)
            .txn(txn)
            .commit_with_receipt()
            .unwrap();
        assert!(retry.deduplicated);
        assert_eq!(retry.seq, first.seq);
        assert_eq!(retry.stats, first.stats);
        assert_eq!(oracle.batches_committed(), 1, "applied exactly once");
        assert_eq!(
            std::fs::read(dir.join(WAL_FILE)).unwrap(),
            wal_after,
            "retry leaves the WAL byte-identical"
        );

        // Crash-restart: the reopened oracle rebuilds the dedup table
        // from the log and still refuses to re-apply the duplicate.
        drop(oracle);
        let mut revived = Oracle::open_with(
            &dir,
            DurabilityConfig {
                checkpoint_every: None,
                fsync: FsyncPolicy::Never,
            },
        )
        .unwrap();
        assert_eq!(revived.batches_committed(), 1);
        let replayed = revived
            .update()
            .insert(0, 7)
            .txn(txn)
            .commit_with_receipt()
            .unwrap();
        assert!(replayed.deduplicated, "dedup survives reopen via WAL");
        assert_eq!(replayed.seq, first.seq);
        assert_eq!(revived.batches_committed(), 1);
        // A *new* txn still commits normally.
        let next = revived
            .update()
            .insert(1, 6)
            .txn(TxnId {
                session: 0xABCD,
                counter: 2,
            })
            .commit_with_receipt()
            .unwrap();
        assert!(!next.deduplicated);
        assert_eq!(next.seq, 1);
    }

    #[test]
    fn txn_dedup_answers_even_while_writes_are_poisoned() {
        // Poisoning is simulated the way chaos_commit does it — but
        // without failpoints here, we use an inadmissible-at-apply
        // construct: a weighted edit on an unweighted oracle passes
        // admission never (typed refusal, health untouched), so instead
        // poison via a panic route is unavailable. Approximate by
        // checking the dedup lookup path itself ignores health: seed a
        // receipt, force health, and observe the retry answer.
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(6))
            .unwrap();
        let txn = TxnId {
            session: 9,
            counter: 9,
        };
        let first = oracle
            .update()
            .insert(0, 5)
            .txn(txn)
            .commit_with_receipt()
            .unwrap();
        oracle.health = OracleHealth::WritesPoisoned {
            reason: "test".into(),
            batch_still_logged: false,
        };
        let retry = oracle
            .update()
            .txn(txn)
            .commit_with_receipt()
            .expect("retry of an applied commit answers from history");
        assert!(retry.deduplicated);
        assert_eq!(retry.seq, first.seq);
        // A fresh commit is still refused.
        assert!(matches!(
            oracle.update().insert(1, 4).commit(),
            Err(OracleError::WritesPoisoned { .. })
        ));
    }

    #[test]
    fn txn_dedup_table_is_bounded() {
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(6))
            .unwrap();
        let old = TxnId {
            session: 1,
            counter: 0,
        };
        oracle.update().insert(0, 2).txn(old).commit().unwrap();
        assert!(oracle.txn_receipt(old).is_some());
        // Push the oldest entry out of the bounded table. Alternating
        // an insert/remove pair keeps every batch admissible.
        for i in 0..TXN_DEDUP_CAPACITY as u64 {
            let txn = TxnId {
                session: 2,
                counter: i,
            };
            let (a, b) = (0u32, 5u32);
            let s = oracle.update().txn(txn);
            let s = if i % 2 == 0 {
                s.insert(a, b)
            } else {
                s.remove(a, b)
            };
            s.commit().unwrap();
        }
        assert!(
            oracle.txn_receipt(old).is_none(),
            "oldest txn evicted past capacity"
        );
        assert!(oracle
            .txn_receipt(TxnId {
                session: 2,
                counter: TXN_DEDUP_CAPACITY as u64 - 1,
            })
            .is_some());
    }

    #[test]
    fn wal_tail_replays_after_simulated_crash() {
        let dir = tmp_dir("crash");
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(10))
            .unwrap();
        // Disable auto-checkpointing so the WAL holds the tail.
        oracle
            .persist_to(
                &dir,
                DurabilityConfig {
                    checkpoint_every: None,
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
        oracle.update().insert(0, 9).commit().unwrap();
        oracle.update().insert(2, 7).remove(4, 5).commit().unwrap();
        let expected: Vec<_> = (0..10u32).map(|t| oracle.query(0, t)).collect();
        // Simulate the crash: drop without saving.
        drop(oracle);

        let mut revived = Oracle::open(&dir).unwrap();
        assert_eq!(revived.batches_committed(), 2);
        let got: Vec<_> = (0..10u32).map(|t| revived.query(0, t)).collect();
        assert_eq!(got, expected, "replayed state must match pre-crash answers");
    }

    #[test]
    fn save_into_a_stale_directory_resets_the_foreign_wal() {
        let dir = tmp_dir("stale_wal");
        // Process A leaves a checkpoint + WAL tail behind.
        let mut a = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(6))
            .unwrap();
        a.persist_to(
            &dir,
            DurabilityConfig {
                checkpoint_every: None,
                fsync: FsyncPolicy::Never,
            },
        )
        .unwrap();
        a.update().insert(0, 5).commit().unwrap();
        drop(a);
        // Process B checkpoints a *different* oracle into the same
        // directory without attaching durability: A's logged batches
        // must not replay onto B's state.
        let mut b = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(4))
            .unwrap();
        b.save(&dir).unwrap();
        let mut revived = Oracle::open(&dir).unwrap();
        assert_eq!(revived.num_vertices(), 4);
        assert_eq!(revived.batches_committed(), 0);
        assert_eq!(revived.query(0, 3), Some(3), "B's path, no foreign edits");
    }

    #[test]
    fn reattaching_persistence_preserves_the_old_log_until_checkpointed() {
        // `persist_to` over an existing durable directory must not
        // truncate the WAL before the new checkpoint is in place (a
        // crash in between would lose acknowledged batches). Observable
        // effect: after a successful persist_to, the directory is
        // self-consistent and the new oracle's state wins.
        let dir = tmp_dir("reattach");
        let mut a = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(7))
            .unwrap();
        a.persist_to(
            &dir,
            DurabilityConfig {
                checkpoint_every: None,
                fsync: FsyncPolicy::Never,
            },
        )
        .unwrap();
        a.update().insert(0, 6).commit().unwrap();
        drop(a);
        let mut b = Oracle::open(&dir).unwrap();
        assert_eq!(b.query(0, 6), Some(1));
        // Re-attach (fresh epoch): rotation happens after the new
        // checkpoint, and the reopened state carries A's batch.
        b.persist_to(
            &dir,
            DurabilityConfig {
                checkpoint_every: None,
                fsync: FsyncPolicy::Never,
            },
        )
        .unwrap();
        drop(b);
        let mut c = Oracle::open(&dir).unwrap();
        assert_eq!(c.query(0, 6), Some(1), "A's batch survived re-attachment");
    }

    #[test]
    fn open_missing_checkpoint_is_typed() {
        let dir = tmp_dir("missing");
        assert!(matches!(
            Oracle::open(&dir),
            Err(PersistError::MissingCheckpoint { .. })
        ));
    }

    #[test]
    fn rejected_batches_are_never_logged() {
        let dir = tmp_dir("reject");
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(6))
            .unwrap();
        oracle
            .persist_to(
                &dir,
                DurabilityConfig {
                    checkpoint_every: None,
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
        let err = oracle.update().set_weight(0, 1, 5).commit().unwrap_err();
        assert!(matches!(err, OracleError::WeightedEditsUnsupported { .. }));
        oracle.update().insert(0, 5).commit().unwrap();
        drop(oracle);
        // Replay sees only the accepted batch.
        let mut revived = Oracle::open(&dir).unwrap();
        assert_eq!(revived.batches_committed(), 1);
        assert_eq!(revived.query(0, 5), Some(1));
    }

    #[test]
    fn auto_checkpoint_rotates_the_wal() {
        let dir = tmp_dir("auto");
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(12))
            .unwrap();
        oracle
            .persist_to(
                &dir,
                DurabilityConfig {
                    checkpoint_every: Some(2),
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
        oracle.update().insert(0, 11).commit().unwrap();
        oracle.update().insert(1, 10).commit().unwrap(); // triggers checkpoint
        oracle.update().insert(2, 9).commit().unwrap(); // in the fresh WAL
        let (records, _) = batchhl_core::wal::recover_wal(dir.join("batches.wal")).unwrap();
        assert_eq!(
            records.len(),
            1,
            "rotation left only the post-checkpoint tail"
        );
        assert_eq!(records[0].seq, 2);
        drop(oracle);
        let mut revived = Oracle::open(&dir).unwrap();
        assert_eq!(revived.batches_committed(), 3);
        assert_eq!(revived.query(2, 9), Some(1));
        assert_eq!(revived.query(0, 11), Some(1));
    }

    #[test]
    fn builder_infers_family_from_source() {
        let o = Oracle::new(path(5)).unwrap();
        assert_eq!(o.family(), BackendFamily::Undirected);
        let o = Oracle::new(DynamicDiGraph::from_edges(3, &[(0, 1)])).unwrap();
        assert_eq!(o.family(), BackendFamily::Directed);
        let o = Oracle::new(WeightedGraph::from_edges(3, &[(0, 1, 2)])).unwrap();
        assert_eq!(o.family(), BackendFamily::Weighted);
    }

    #[test]
    fn builder_rejects_contradicting_declarations() {
        let err = Oracle::builder().directed(true).build(path(5)).unwrap_err();
        assert!(matches!(err, OracleError::SourceMismatch { .. }));
        let err = Oracle::builder()
            .weighted(false)
            .build(WeightedGraph::new(3))
            .unwrap_err();
        assert!(matches!(err, OracleError::SourceMismatch { .. }));
        let err = Oracle::builder()
            .directed(true)
            .weighted(true)
            .build(path(5))
            .unwrap_err();
        assert!(matches!(err, OracleError::SourceMismatch { .. }));
        // Matching declarations pass.
        let o = Oracle::builder()
            .directed(true)
            .build(DynamicDiGraph::from_edges(3, &[(0, 1), (1, 2)]))
            .unwrap();
        assert_eq!(o.family(), BackendFamily::Directed);
    }

    #[test]
    fn update_sessions_commit_once_or_not_at_all() {
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(6))
            .unwrap();
        assert_eq!(oracle.query(0, 5), Some(5));

        // Dropped sessions apply nothing.
        oracle.update().insert(0, 5).discard();
        assert_eq!(oracle.query(0, 5), Some(5));
        assert_eq!(oracle.version(), 0);

        let session = oracle.update().insert(0, 5).remove(2, 3);
        assert_eq!(session.len(), 2);
        let stats = session.commit().unwrap();
        assert_eq!(stats.applied, 2);
        assert_eq!(oracle.version(), 1);
        assert_eq!(oracle.query(0, 5), Some(1));

        // A failing commit applies nothing.
        let err = oracle.update().set_weight(0, 5, 9).commit().unwrap_err();
        assert!(matches!(err, OracleError::WeightedEditsUnsupported { .. }));
        assert_eq!(oracle.version(), 1);
    }

    #[test]
    fn empty_commit_is_a_noop() {
        let dir = tmp_dir("empty");
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(6))
            .unwrap();
        oracle
            .persist_to(
                &dir,
                DurabilityConfig {
                    checkpoint_every: None,
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
        let version = oracle.version();
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        let stats = oracle.update().commit().unwrap();
        assert_eq!(stats, UpdateStats::default(), "zeroed stats");
        assert_eq!(oracle.version(), version, "no generation churn");
        assert_eq!(oracle.batches_committed(), 0, "no sequence consumed");
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            wal_len,
            "no WAL record"
        );
        assert_eq!(*oracle.health(), OracleHealth::Healthy);
    }

    #[test]
    fn inadmissible_batches_are_refused_before_logging() {
        let dir = tmp_dir("admission");
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(6))
            .unwrap();
        oracle
            .persist_to(
                &dir,
                DurabilityConfig {
                    checkpoint_every: None,
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
        // Self-loop, dangling removal, conflicting duplicate.
        let err = oracle.update().insert(2, 2).commit().unwrap_err();
        assert!(
            matches!(err, OracleError::InvalidBatch { index: 0, .. }),
            "{err}"
        );
        let err = oracle.update().remove(0, 17).commit().unwrap_err();
        assert!(
            matches!(err, OracleError::InvalidBatch { index: 0, .. }),
            "{err}"
        );
        let err = oracle
            .update()
            .insert(0, 3)
            .remove(0, 3)
            .commit()
            .unwrap_err();
        assert!(
            matches!(err, OracleError::InvalidBatch { index: 1, .. }),
            "{err}"
        );
        // Nothing was logged or applied; the oracle is still healthy
        // and a well-formed batch still lands.
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            wal_len
        );
        assert_eq!(oracle.version(), 0);
        assert_eq!(*oracle.health(), OracleHealth::Healthy);
        oracle.update().insert(0, 5).commit().unwrap();
        assert_eq!(oracle.query(0, 5), Some(1));
    }

    #[test]
    fn verify_integrity_accepts_every_family() {
        let mut o = Oracle::new(path(9)).unwrap();
        o.update().insert(0, 8).commit().unwrap();
        o.verify_integrity().unwrap();
        let mut o = Oracle::new(DynamicDiGraph::from_edges(5, &[(0, 1), (1, 2), (2, 3)])).unwrap();
        o.update().insert(3, 4).commit().unwrap();
        o.verify_integrity().unwrap();
        let mut o = Oracle::new(WeightedGraph::from_edges(5, &[(0, 1, 2), (1, 2, 3)])).unwrap();
        o.update().insert_weighted(2, 3, 4).commit().unwrap();
        o.verify_integrity().unwrap();
    }

    #[test]
    fn wal_position_and_tail_track_commits() {
        let dir = tmp_dir("wal_introspection");
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(8))
            .unwrap();
        // Detached: position has no file, the tail is empty.
        assert_eq!(
            oracle.wal_position(),
            WalPosition {
                next_seq: 0,
                wal_bytes: None
            }
        );
        assert_eq!(
            oracle.wal_tail(0).unwrap(),
            batchhl_core::wal::WalTail::default()
        );

        oracle
            .persist_to(
                &dir,
                DurabilityConfig {
                    checkpoint_every: None,
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
        oracle.update().insert(0, 7).commit().unwrap();
        oracle.update().insert(1, 6).commit().unwrap();
        let pos = oracle.wal_position();
        assert_eq!(pos.next_seq, 2);
        assert!(pos.wal_bytes.unwrap() > 8, "two records behind the header");
        let tail = oracle.wal_tail(0).unwrap();
        assert_eq!(tail.floor, Some(0));
        assert_eq!(tail.records.len(), 2);
        assert_eq!(tail.records[1].edits, vec![Edit::Insert(1, 6)]);
        assert_eq!(oracle.wal_tail(1).unwrap().records.len(), 1);
    }

    #[test]
    fn open_detached_matches_open_and_stays_in_memory() {
        let dir = tmp_dir("detached");
        let mut primary = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(9))
            .unwrap();
        primary
            .persist_to(
                &dir,
                DurabilityConfig {
                    checkpoint_every: None,
                    fsync: FsyncPolicy::Never,
                },
            )
            .unwrap();
        primary.update().insert(0, 8).commit().unwrap();
        let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();

        let mut replica = Oracle::open_detached(&dir).unwrap();
        assert_eq!(replica.batches_committed(), 1, "WAL tail replayed");
        for t in 0..9u32 {
            assert_eq!(replica.query(0, t), primary.query(0, t), "t={t}");
        }
        // Detached commits are memory-only: the primary's log is not
        // touched, and the replica reports no durability.
        replica.update().insert(2, 7).commit().unwrap();
        assert_eq!(replica.durability_dir(), None);
        assert_eq!(replica.wal_position().wal_bytes, None);
        assert_eq!(
            std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
            wal_len,
            "primary WAL untouched by detached commits"
        );
    }

    #[test]
    fn commit_and_query_metrics_reach_the_global_registry() {
        let commits_before = batchhl_common::metrics::global()
            .counter("batchhl_oracle_commits_total")
            .get();
        let queries_before = batchhl_common::metrics::global()
            .histogram("batchhl_oracle_query_latency_us")
            .count();
        let mut oracle = Oracle::builder()
            .top_degree_landmarks(2)
            .build(path(5))
            .unwrap();
        oracle.update().insert(0, 4).commit().unwrap();
        oracle.query(0, 4);
        oracle.distances_from(0, &[1, 2]);
        assert!(
            batchhl_common::metrics::global()
                .counter("batchhl_oracle_commits_total")
                .get()
                > commits_before
        );
        assert!(
            batchhl_common::metrics::global()
                .histogram("batchhl_oracle_query_latency_us")
                .count()
                >= queries_before + 2
        );
    }

    #[test]
    fn reader_is_send_sync_and_follows_commits() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<OracleReader>();

        let mut oracle = Oracle::builder()
            .top_degree_landmarks(1)
            .build(path(6))
            .unwrap();
        let reader = oracle.reader();
        assert_eq!(reader.query(0, 5), Some(5));
        oracle.update().insert(0, 5).commit().unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let r = &reader;
                scope.spawn(move || {
                    assert_eq!(r.query(0, 5), Some(1));
                    assert_eq!(r.query_many(&[(0, 4), (5, 2)]), vec![Some(2), Some(3)]);
                });
            }
        });
        assert_eq!(reader.version(), 1);
    }
}
