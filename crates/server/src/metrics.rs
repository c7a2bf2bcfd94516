//! Per-node serving metrics.
//!
//! Each server node owns its own [`Registry`] (so a primary and a
//! replica running in one process — as in `examples/serve_demo.rs` —
//! do not mix counters), with the hot-path handles resolved once at
//! startup. `GET /metrics` renders this registry *plus* the process
//! [`global`] registry, which is where `Oracle::commit` and the
//! facade query paths record.

use batchhl_common::metrics::{global, Counter, Histogram, Registry};
use std::sync::Arc;

/// Cached handles into one node's registry.
pub struct ServerMetrics {
    registry: Arc<Registry>,
    /// Point queries answered (coalesced or direct).
    pub queries: Arc<Counter>,
    /// Edit batches committed through the server.
    pub commits: Arc<Counter>,
    /// Requests refused by admission control.
    pub sheds: Arc<Counter>,
    /// Lines that failed to parse or validate.
    pub bad_requests: Arc<Counter>,
    /// Connections accepted / closed.
    pub conns_opened: Arc<Counter>,
    pub conns_closed: Arc<Counter>,
    /// WAL records shipped to tailing replicas.
    pub tail_records: Arc<Counter>,
    /// Requests answered `deadline_exceeded` instead of executed (the
    /// client's `deadline_ms` budget ran out while queued).
    pub deadlines: Arc<Counter>,
    /// Commits answered from the txn dedup table (idempotent retries
    /// of an already-applied batch).
    pub dedup_commits: Arc<Counter>,
    /// Connections closed by the idle sweep (no complete request
    /// within the configured idle window — slow-loris containment).
    pub idle_closed: Arc<Counter>,
    /// Tail-stream reconnect attempts by this node's replica tailer
    /// (wire-level retries: dropped streams, watchdog trips, resyncs).
    pub tail_reconnects: Arc<Counter>,
    /// Panics contained in pool jobs and in queries answered inline on
    /// a connection thread (the worker or connection keeps serving).
    pub job_panics: Arc<Counter>,
    /// End-to-end request latency (receipt to response write).
    pub request_latency: Arc<Histogram>,
    /// Occupancy of each coalesced batch; a query answered inline counts
    /// as one batch of size 1.
    pub coalesce_batch: Arc<Histogram>,
}

impl ServerMetrics {
    /// Build a fresh registry with every serving metric registered.
    pub fn new() -> Self {
        let registry = Arc::new(Registry::new());
        ServerMetrics {
            queries: registry.counter("batchhl_server_queries_total"),
            commits: registry.counter("batchhl_server_commits_total"),
            sheds: registry.counter("batchhl_server_sheds_total"),
            bad_requests: registry.counter("batchhl_server_bad_requests_total"),
            conns_opened: registry.counter("batchhl_server_connections_opened_total"),
            conns_closed: registry.counter("batchhl_server_connections_closed_total"),
            tail_records: registry.counter("batchhl_server_tail_records_total"),
            deadlines: registry.counter("batchhl_server_deadline_exceeded_total"),
            dedup_commits: registry.counter("batchhl_server_commit_dedup_total"),
            idle_closed: registry.counter("batchhl_server_idle_closed_total"),
            tail_reconnects: registry.counter("batchhl_server_tail_reconnects_total"),
            job_panics: registry.counter("batchhl_server_job_panics_total"),
            request_latency: registry.histogram("batchhl_server_request_latency_us"),
            coalesce_batch: registry.histogram("batchhl_server_coalesce_batch_size"),
            registry,
        }
    }

    /// This node's registry (for tests and custom exposition).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Prometheus text exposition: this node's registry followed by the
    /// process-global one (oracle commit/query instrumentation).
    pub fn render(&self) -> String {
        let mut out = self.registry.render();
        out.push_str(&global().render());
        out
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nodes_do_not_share_counters() {
        let a = ServerMetrics::new();
        let b = ServerMetrics::new();
        a.queries.add(5);
        assert_eq!(a.queries.get(), 5);
        assert_eq!(b.queries.get(), 0);
        let text = a.render();
        assert!(text.contains("batchhl_server_queries_total 5"));
        // The global (oracle-side) registry rides along.
        global().counter("batchhl_server_metrics_test_total").inc();
        assert!(a.render().contains("batchhl_server_metrics_test_total"));
    }
}
