//! The two ways a client reaches the oracle: in-process through the
//! facade, or over one loopback TCP connection to a `batchhl_server`.
//! Both run one request at a time (a closed loop with one client).

use batchhl::{
    Algorithm, Dist, DistanceOracle, DurabilityConfig, Edit, FsyncPolicy, GraphSource, Oracle,
    OracleReader, Vertex,
};
use batchhl_server::{http_get, Client, ClientError, Server, ServerConfig};
use std::path::Path;
use std::time::{Duration, Instant};

/// Landmarks per index (the paper's top-degree choice).
pub const LANDMARKS: usize = 20;

/// The oracle configuration every workload uses, with `threads` workers
/// for construction and repair.
pub fn build_oracle(source: GraphSource, threads: usize) -> Result<DistanceOracle, String> {
    Oracle::builder()
        .algorithm(Algorithm::BhlPlus)
        .threads(threads)
        .top_degree_landmarks(LANDMARKS)
        .build(source)
        .map_err(|e| format!("build: {e}"))
}

/// WAL appends ride the OS cache; checkpoints are synced. Checkpoints
/// are cut only explicitly, so no commit pays for one.
pub fn durability() -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: None,
        fsync: FsyncPolicy::CheckpointOnly,
    }
}

/// A set-up endpoint, how long the set-up took, and the label bytes of
/// the freshly built index.
pub struct Setup {
    pub ep: Endpoint,
    pub elapsed: Duration,
    pub label_bytes: usize,
}

pub enum Endpoint {
    InProc {
        oracle: DistanceOracle,
        reader: OracleReader,
    },
    Wire {
        // Dropped after `client`, so the connection closes first.
        client: Client,
        server: Server,
    },
}

fn wire_err(e: ClientError) -> String {
    format!("wire: {e}")
}

impl Endpoint {
    pub fn in_proc(oracle: DistanceOracle) -> Endpoint {
        let reader = oracle.reader();
        Endpoint::InProc { oracle, reader }
    }

    pub fn serve(oracle: DistanceOracle) -> Result<Endpoint, String> {
        let server = Server::start(oracle, ServerConfig::default()).map_err(|e| e.to_string())?;
        let client = Client::connect(server.addr()).map_err(|e| e.to_string())?;
        Ok(Endpoint::Wire { client, server })
    }

    /// The timed set-up: build the oracle over `source`, attach
    /// durability under `dir` and, for a wire endpoint, start the server.
    pub fn setup(
        source: GraphSource,
        dir: &Path,
        wire: bool,
        threads: usize,
    ) -> Result<Setup, String> {
        let t = Instant::now();
        let mut oracle = build_oracle(source, threads)?;
        oracle
            .persist_to(dir, durability())
            .map_err(|e| format!("persist_to: {e}"))?;
        let mut elapsed = t.elapsed();
        let label_bytes = oracle.label_size_bytes();
        let ep = if wire {
            let t = Instant::now();
            let ep = Endpoint::serve(oracle)?;
            elapsed += t.elapsed();
            ep
        } else {
            Endpoint::in_proc(oracle)
        };
        Ok(Setup {
            ep,
            elapsed,
            label_bytes,
        })
    }

    pub fn is_wire(&self) -> bool {
        matches!(self, Endpoint::Wire { .. })
    }

    pub fn query(&mut self, s: Vertex, t: Vertex) -> Result<Option<Dist>, String> {
        match self {
            Endpoint::InProc { reader, .. } => Ok(reader.query(s, t)),
            Endpoint::Wire { client, .. } => client.query(s, t).map_err(wire_err),
        }
    }

    pub fn fanout(&mut self, s: Vertex, targets: &[Vertex]) -> Result<Vec<Option<Dist>>, String> {
        match self {
            Endpoint::InProc { reader, .. } => Ok(reader.distances_from(s, targets)),
            Endpoint::Wire { client, .. } => client.distances_from(s, targets).map_err(wire_err),
        }
    }

    /// Commit one batch; returns the number of edits applied.
    pub fn commit(&mut self, edits: &[Edit]) -> Result<usize, String> {
        match self {
            Endpoint::InProc { oracle, .. } => {
                let mut session = oracle.update();
                for &e in edits {
                    session = session.push(e);
                }
                session
                    .commit()
                    .map(|stats| stats.applied)
                    .map_err(|e| format!("commit: {e}"))
            }
            Endpoint::Wire { client, .. } => client
                .commit_detailed(edits)
                .map(|o| o.applied)
                .map_err(wire_err),
        }
    }

    /// The in-process oracle, when there is one.
    pub fn oracle(&mut self) -> Option<&mut DistanceOracle> {
        match self {
            Endpoint::InProc { oracle, .. } => Some(oracle),
            Endpoint::Wire { .. } => None,
        }
    }

    /// Mean occupancy of the server's coalesced query batches, from its
    /// `/metrics` page.
    pub fn coalesce_batch_mean(&self) -> Result<f64, String> {
        let Endpoint::Wire { server, .. } = self else {
            return Err("no server".into());
        };
        let (_, body) = http_get(server.addr(), "/metrics").map_err(|e| e.to_string())?;
        let read = |series: &str| {
            body.lines()
                .find_map(|l| l.strip_prefix(series)?.trim().parse::<f64>().ok())
                .ok_or_else(|| format!("/metrics lacks {series}"))
        };
        let sum = read("batchhl_server_coalesce_batch_size_sum ")?;
        let count = read("batchhl_server_coalesce_batch_size_count ")?;
        Ok(if count > 0.0 { sum / count } else { 0.0 })
    }
}
