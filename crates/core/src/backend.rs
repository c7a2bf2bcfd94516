//! The type-erased backend surface behind the `DistanceOracle` facade.
//!
//! The workspace has three index families — [`BatchIndex`]
//! (undirected), [`DirectedBatchIndex`] and [`WeightedBatchIndex`],
//! each the generic [`Index`] over its [`Family`]. [`Backend`] erases
//! the family: a facade caller picks one at **runtime** (from the kind
//! of graph it feeds the builder), and everything downstream —
//! queries, batched query plans, the update session, reader handles —
//! goes through `Box<dyn Backend>`. There is one implementation, for
//! every `Index<F>`.
//!
//! The mutation side is normalized too: every family consumes the same
//! [`Edit`] list, committed as one batch. Unweighted families reject
//! weight-carrying edits with [`OracleError::WeightedEditsUnsupported`]
//! rather than silently dropping the weight.

use crate::directed::DirectedBatchIndex;
use crate::family::Family;
use crate::index::{BatchIndex, CompactionPolicy, Index, IndexConfig};
use crate::persist::{self, CheckpointMeta, PersistError};
use crate::reader::SharedReader;
use crate::stats::UpdateStats;
use crate::weighted::WeightedBatchIndex;
use crate::whatif::{WhatIf, WhatIfQuery};
use batchhl_common::{Dist, SplitMix64, Vertex, INF};
use batchhl_graph::weighted::{Weight, WeightedGraph};
use batchhl_graph::{Batch, DynamicDiGraph, DynamicGraph};
use batchhl_hcl::{LabelError, Versioned};
use std::any::Any;
use std::fmt;
use std::sync::Arc;

/// Which index family a backend (or a graph source) belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendFamily {
    /// Unweighted undirected graphs — [`BatchIndex`].
    Undirected,
    /// Unweighted directed graphs — [`DirectedBatchIndex`].
    Directed,
    /// Positively weighted undirected graphs — [`WeightedBatchIndex`].
    Weighted,
}

impl BackendFamily {
    pub fn as_str(self) -> &'static str {
        match self {
            BackendFamily::Undirected => "undirected",
            BackendFamily::Directed => "directed",
            BackendFamily::Weighted => "weighted",
        }
    }
}

impl fmt::Display for BackendFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// A graph handed to the oracle builder. The variant decides the
/// backend family; the `From` impls let callers pass any of the three
/// graph types directly.
#[derive(Debug, Clone)]
pub enum GraphSource {
    Undirected(DynamicGraph),
    Directed(DynamicDiGraph),
    Weighted(WeightedGraph),
}

impl GraphSource {
    pub fn family(&self) -> BackendFamily {
        match self {
            GraphSource::Undirected(_) => BackendFamily::Undirected,
            GraphSource::Directed(_) => BackendFamily::Directed,
            GraphSource::Weighted(_) => BackendFamily::Weighted,
        }
    }

    pub fn num_vertices(&self) -> usize {
        match self {
            GraphSource::Undirected(g) => g.num_vertices(),
            GraphSource::Directed(g) => g.num_vertices(),
            GraphSource::Weighted(g) => g.num_vertices(),
        }
    }
}

impl From<DynamicGraph> for GraphSource {
    fn from(g: DynamicGraph) -> Self {
        GraphSource::Undirected(g)
    }
}

impl From<DynamicDiGraph> for GraphSource {
    fn from(g: DynamicDiGraph) -> Self {
        GraphSource::Directed(g)
    }
}

impl From<WeightedGraph> for GraphSource {
    fn from(g: WeightedGraph) -> Self {
        GraphSource::Weighted(g)
    }
}

/// One edit accumulated by an oracle update session. Directed backends
/// read `(a, b)` as the arc `a → b`; undirected backends as the edge
/// `{a, b}`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Edit {
    /// Add an edge/arc (unit weight on the weighted family).
    Insert(Vertex, Vertex),
    /// Add a weighted edge. Unweighted families accept `w == 1` and
    /// reject anything else.
    InsertWeighted(Vertex, Vertex, Weight),
    /// Remove an edge/arc.
    Remove(Vertex, Vertex),
    /// Change the weight of an existing edge (weighted family only).
    SetWeight(Vertex, Vertex, Weight),
}

/// Why an oracle operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The builder's declared family (`directed(..)` / `weighted(..)`)
    /// contradicts the graph source that was handed to `build`.
    SourceMismatch {
        declared: BackendFamily,
        source: BackendFamily,
    },
    /// A weight-carrying edit ([`Edit::SetWeight`], or
    /// [`Edit::InsertWeighted`] with weight ≠ 1) was committed to an
    /// unweighted backend.
    WeightedEditsUnsupported { family: BackendFamily },
    /// The labelling could not be constructed (invalid landmark set).
    Label(LabelError),
    /// The durability layer failed to make a commit durable (e.g. the
    /// write-ahead log could not be appended or synced). The batch was
    /// **not** applied. Carries the rendered [`crate::persist::PersistError`].
    Durability { reason: String },
    /// Batch admission refused the edit list before anything was logged
    /// or applied: `index` is the position of the first offending edit
    /// (see [`crate::admission::validate_batch`] for the rules). The
    /// oracle is untouched.
    InvalidBatch { index: usize, reason: String },
    /// A panic was caught while the batch was being applied. The batch
    /// was rolled back (readers keep the pre-batch generation, a WAL
    /// abort record cancels the logged batch) and the oracle's write
    /// path is poisoned until recovery.
    CommitPanicked { reason: String },
    /// The write path is unavailable after an earlier contained failure;
    /// reads still serve the last good generation. Clear with
    /// `Oracle::recover()` or by re-opening from disk.
    WritesPoisoned { reason: String },
    /// A deep integrity audit found the index inconsistent with the
    /// graph it claims to describe.
    Integrity { reason: String },
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OracleError::SourceMismatch { declared, source } => write!(
                f,
                "builder declared a {declared} oracle but the graph source is {source}"
            ),
            OracleError::WeightedEditsUnsupported { family } => write!(
                f,
                "weight-carrying edits are not supported by the {family} backend"
            ),
            OracleError::Label(e) => write!(f, "labelling construction failed: {e}"),
            OracleError::Durability { reason } => {
                write!(f, "commit could not be made durable: {reason}")
            }
            OracleError::InvalidBatch { index, reason } => {
                write!(f, "batch refused at edit {index}: {reason}")
            }
            OracleError::CommitPanicked { reason } => {
                write!(f, "commit panicked and was rolled back: {reason}")
            }
            OracleError::WritesPoisoned { reason } => {
                write!(f, "write path unavailable until recovery: {reason}")
            }
            OracleError::Integrity { reason } => {
                write!(f, "integrity audit failed: {reason}")
            }
        }
    }
}

impl std::error::Error for OracleError {}

impl From<LabelError> for OracleError {
    fn from(e: LabelError) -> Self {
        OracleError::Label(e)
    }
}

/// One batch-dynamic index family, type-erased for the
/// `DistanceOracle` facade.
///
/// Every method takes concrete types only (the trait is object-safe);
/// queries take `&mut self` because the owner answers against the
/// published generation with its own reusable search workspace, while
/// [`Backend::reader`] hands out `&self`-querying [`BackendReader`]
/// handles for serving threads.
///
/// # Adding a fourth backend: implement [`Family`]
///
/// A new family (say, a directed *weighted* index, or a road-network
/// labelling) plugs in without touching the facade:
///
/// 1. Give it a generation type (labelling(s), CSR view) and
///    implement [`Family`] for it: the update, view and search types,
///    construction, normalization, the view rewrite and the repair runs
///    of one pass, the [`Edit`] translation (reject edit kinds the
///    family cannot express with a typed [`OracleError`] instead of
///    dropping them), the checkpoint graph block and the audit. [`Index`] over it then has the whole index surface, this
///    trait, readers, what-if sessions and checkpoints.
/// 2. Add a [`BackendFamily`] and a [`GraphSource`] variant (plus a
///    `From` impl), a match arm in [`build_backend`] and a family code
///    in [`crate::persist`]; the builder then reaches the new family
///    with no new facade API.
///
/// Invariants expected by the facade: `commit_edits` applies the whole
/// list as **one** batch per the index's configured algorithm
/// (atomicity of the published generation), queries answer against the
/// newest committed state, and `version` increases with every
/// published pass.
pub trait Backend: Send {
    /// Which family this backend is (useful for diagnostics).
    fn family(&self) -> BackendFamily;

    /// The configuration the index updates with (a checkpoint keeps it).
    fn config(&self) -> &IndexConfig;

    /// Number of vertices in the current graph.
    fn num_vertices(&self) -> usize;

    /// Version of the newest published generation.
    fn version(&self) -> u64;

    /// Logical label entries across the index's labelling(s).
    fn label_entries(&self) -> usize;

    /// Logical labelling size in bytes (Table 4's metric).
    fn label_size_bytes(&self) -> usize;

    /// Exact distance; `None` when disconnected/unreachable or out of
    /// range. Directed backends answer `d(s → t)`.
    fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist>;

    /// Batched pair queries (order preserved; pairs sharing a source
    /// reuse one source plan).
    fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>>;

    /// One-source-to-many-targets distances (one source plan + at most
    /// one sweep for the whole call).
    fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>>;

    /// The `k` vertices closest to `s` (excluding `s`), nondecreasing
    /// by distance.
    fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)>;

    /// Out-neighbours of `v` in the current graph (weights
    /// dropped on the weighted family; empty when out of range).
    fn neighbors(&self, v: Vertex) -> Vec<Vertex>;

    /// Degree of `v` (out-degree on directed backends; 0 out of range).
    fn degree(&self, v: Vertex) -> usize;

    /// Apply an accumulated edit list as **one** batch (normalization,
    /// search and repair per the configured algorithm) and publish the
    /// next generation.
    fn commit_edits(&mut self, edits: &[Edit]) -> Result<UpdateStats, OracleError>;

    /// A `Send + Sync` handle with the same query-plan surface, whose
    /// queries take `&self` (interior re-pinning; see
    /// [`SharedReader`]).
    fn reader(&self) -> Box<dyn BackendReader>;

    /// Tune the CSR compaction policy of published views.
    fn set_compaction(&mut self, policy: CompactionPolicy);

    /// Serialize this backend's family body (graph, labelling(s), and
    /// update configuration) for a `BHL2` checkpoint. Callers normally
    /// go through [`crate::persist::write_checkpoint`], which frames the
    /// body with the format header and CRC-32 trailer; the counterpart
    /// [`load_backend`] reads the framed form back.
    fn save(&self, out: &mut dyn std::io::Write) -> Result<(), PersistError>;

    /// Capture a rollback token for the *currently published*
    /// generation. Cheap: the token pins the published `Arc`, whose CSR
    /// base and label buffers are shared across generations.
    ///
    /// The facade captures a token before `commit_edits` and, if the
    /// commit fails or panics mid-way, hands it back to [`restore`] —
    /// which is why it is an opaque `Any` rather than a family-specific
    /// type (the trait must stay object-safe).
    ///
    /// [`restore`]: Backend::restore
    fn rollback_token(&self) -> Box<dyn std::any::Any + Send>;

    /// Restore the backend to the generation captured by a
    /// [`rollback_token`]: republish the captured content under a fresh
    /// version number (a failed pass mutated nothing else, so there is
    /// nothing to rebuild). Errors only if `token` came from a
    /// different backend family.
    ///
    /// [`rollback_token`]: Backend::rollback_token
    fn restore(&mut self, token: Box<dyn std::any::Any + Send>) -> Result<(), OracleError>;

    /// Deep audit of the live index against ground truth:
    /// family-specific structural checks (the labelling must equal the
    /// minimal highway-cover labelling on the unweighted families) plus
    /// `samples` sampled single-source truth sweeps (BFS / Dijkstra)
    /// compared against the index's own answers. Expensive — intended
    /// for operators and tests, not the hot path.
    fn verify_integrity(&mut self, samples: usize) -> Result<(), OracleError>;
}

/// Deserialize a `BHL2` checkpoint into whichever backend family it
/// holds (the load hook paired with [`Backend::save`]). Also returns
/// the checkpoint's generation metadata — the WAL replay cursor.
pub fn load_backend<R: std::io::Read>(
    r: R,
) -> Result<(Box<dyn Backend>, CheckpointMeta), PersistError> {
    persist::read_checkpoint(r)
}

/// Check an edit list against a family *without* applying anything —
/// the same acceptance rule [`Backend::commit_edits`] enforces. The
/// durability layer calls this before a batch is logged to the
/// write-ahead log, so a batch that would be refused at commit is never
/// made durable (and therefore never replayed).
pub fn edits_supported(family: BackendFamily, edits: &[Edit]) -> Result<(), OracleError> {
    if family == BackendFamily::Weighted {
        return Ok(());
    }
    for &e in edits {
        match e {
            Edit::Insert(..) | Edit::Remove(..) | Edit::InsertWeighted(_, _, 1) => {}
            Edit::InsertWeighted(..) | Edit::SetWeight(..) => {
                return Err(OracleError::WeightedEditsUnsupported { family })
            }
        }
    }
    Ok(())
}

/// The `&self` query surface served to reading threads, type-erased.
/// Obtained from [`Backend::reader`]; clone freely (clones share the
/// underlying generation store and follow the same writer).
pub trait BackendReader: Send + Sync {
    /// Version of the generation the next query will pin.
    fn version(&self) -> u64;

    /// Exact distance on the freshest published generation.
    fn query(&self, s: Vertex, t: Vertex) -> Option<Dist>;

    /// Batched pair queries against one pinned generation.
    fn query_many(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>>;

    /// One-source-to-many-targets against one pinned generation.
    fn distances_from(&self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>>;

    /// The `k` closest vertices on the freshest published generation.
    fn top_k_closest(&self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)>;

    /// A speculative session answering queries as if `edits` had been
    /// committed, built over one pinned generation — no generation
    /// bump, no WAL traffic (see [`crate::whatif`]). Errors on edits
    /// the backend family cannot express, mirroring `commit_edits`.
    fn what_if(&self, edits: &[Edit]) -> Result<Box<dyn WhatIfQuery>, OracleError>;

    /// Clone through the trait object.
    fn clone_reader(&self) -> Box<dyn BackendReader>;
}

impl<F: Family> BackendReader for SharedReader<F> {
    fn version(&self) -> u64 {
        SharedReader::version(self)
    }

    fn query(&self, s: Vertex, t: Vertex) -> Option<Dist> {
        SharedReader::query(self, s, t)
    }

    fn query_many(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        SharedReader::query_many(self, pairs)
    }

    fn distances_from(&self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        SharedReader::distances_from(self, s, targets)
    }

    fn top_k_closest(&self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        SharedReader::top_k_closest(self, s, k)
    }

    fn what_if(&self, edits: &[Edit]) -> Result<Box<dyn WhatIfQuery>, OracleError> {
        let batch = F::from_edits(edits)?;
        Ok(Box::new(WhatIf::build(self.pin(), &batch)))
    }

    fn clone_reader(&self) -> Box<dyn BackendReader> {
        Box::new(self.clone())
    }
}

/// Translate an edit list for the unweighted families; errors on
/// weight-carrying edits instead of dropping the weight. The
/// acceptance rule itself lives in [`edits_supported`] (shared with
/// the durability layer, which must refuse a batch *before* logging
/// it) — this function only adds the translation.
pub(crate) fn unweighted_batch(
    edits: &[Edit],
    family: BackendFamily,
) -> Result<Batch, OracleError> {
    edits_supported(family, edits)?;
    let mut batch = Batch::new();
    for &e in edits {
        match e {
            // `InsertWeighted` passed validation, so its weight is 1.
            Edit::Insert(a, b) | Edit::InsertWeighted(a, b, _) => batch.insert(a, b),
            Edit::Remove(a, b) => batch.delete(a, b),
            Edit::SetWeight(..) => unreachable!("rejected by edits_supported"),
        }
    }
    Ok(batch)
}

impl<F: Family> Backend for Index<F> {
    fn family(&self) -> BackendFamily {
        F::KIND
    }

    fn config(&self) -> &IndexConfig {
        Index::config(self)
    }

    fn num_vertices(&self) -> usize {
        Index::num_vertices(self)
    }

    fn version(&self) -> u64 {
        Index::version(self)
    }

    fn label_entries(&self) -> usize {
        self.generation()
            .labellings()
            .iter()
            .map(|l| l.size_entries())
            .sum()
    }

    fn label_size_bytes(&self) -> usize {
        self.size_bytes()
    }

    fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        Index::query(self, s, t)
    }

    fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        Index::query_many(self, pairs)
    }

    fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        Index::distances_from(self, s, targets)
    }

    fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        Index::top_k_closest(self, s, k)
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        if (v as usize) < Index::num_vertices(self) {
            self.generation().neighbors(v)
        } else {
            Vec::new()
        }
    }

    fn degree(&self, v: Vertex) -> usize {
        Backend::neighbors(self, v).len()
    }

    fn commit_edits(&mut self, edits: &[Edit]) -> Result<UpdateStats, OracleError> {
        let batch = F::from_edits(edits)?;
        Ok(self.apply_batch(&batch))
    }

    fn reader(&self) -> Box<dyn BackendReader> {
        Box::new(self.shared_reader())
    }

    fn set_compaction(&mut self, policy: CompactionPolicy) {
        Index::set_compaction(self, policy);
    }

    fn save(&self, out: &mut dyn std::io::Write) -> Result<(), PersistError> {
        persist::save_body(self, out)
    }

    fn rollback_token(&self) -> Box<dyn Any + Send> {
        Box::new(self.published())
    }

    fn restore(&mut self, token: Box<dyn Any + Send>) -> Result<(), OracleError> {
        let snap = token
            .downcast::<Arc<Versioned<F>>>()
            .map_err(|_| OracleError::Integrity {
                reason: format!("rollback token does not belong to the {} backend", F::KIND),
            })?;
        self.restore_generation(snap.value());
        Ok(())
    }

    fn verify_integrity(&mut self, samples: usize) -> Result<(), OracleError> {
        self.generation()
            .audit()
            .map_err(|reason| OracleError::Integrity { reason })?;
        // A deterministic sample of sources, each checked against a
        // full truth sweep.
        let mut sources: Vec<Vertex> = (0..Index::num_vertices(self) as Vertex).collect();
        SplitMix64::new(0x5EED_AD17).shuffle(&mut sources);
        for &s in sources.iter().take(samples) {
            for (t, want) in self.generation().truth(s).into_iter().enumerate() {
                let want = (want != INF).then_some(want);
                let got = Index::query(self, s, t as Vertex);
                if got != want {
                    return Err(OracleError::Integrity {
                        reason: format!("query({s}, {t}) = {got:?}, ground truth says {want:?}"),
                    });
                }
            }
        }
        Ok(())
    }
}

/// Construct the backend a graph source calls for. The facade's
/// `Oracle::builder()` is the intended entry point; this is the family
/// dispatch it bottoms out in. An invalid explicit landmark list is a
/// typed [`OracleError::Label`], not a panic.
pub fn build_backend(
    source: GraphSource,
    config: IndexConfig,
) -> Result<Box<dyn Backend>, OracleError> {
    Ok(match source {
        GraphSource::Undirected(g) => Box::new(BatchIndex::try_build(g, config)?),
        GraphSource::Directed(g) => Box::new(DirectedBatchIndex::try_build(g, config)?),
        GraphSource::Weighted(g) => Box::new(WeightedBatchIndex::try_build(g, config)?),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::testing::config;
    use crate::index::Algorithm;
    use batchhl_graph::generators::path;
    use batchhl_hcl::LandmarkSelection;

    fn small_config() -> IndexConfig {
        config(Algorithm::BhlPlus, 2)
    }

    fn backends() -> Vec<Box<dyn Backend>> {
        let mut wg = WeightedGraph::new(6);
        for v in 0..5 {
            wg.insert_edge(v, v + 1, 1);
        }
        let mut dg = DynamicDiGraph::new(6);
        for v in 0..5 {
            dg.insert_edge(v, v + 1);
            dg.insert_edge(v + 1, v);
        }
        vec![
            build_backend(GraphSource::Undirected(path(6)), small_config()).unwrap(),
            build_backend(GraphSource::Directed(dg), small_config()).unwrap(),
            build_backend(GraphSource::Weighted(wg), small_config()).unwrap(),
        ]
    }

    #[test]
    fn all_families_serve_the_same_surface() {
        for mut b in backends() {
            let family = b.family();
            assert_eq!(b.num_vertices(), 6, "{family}");
            assert_eq!(b.query(0, 5), Some(5), "{family}");
            assert_eq!(b.query(0, 17), None, "{family}: out of range");
            assert_eq!(
                b.query_many(&[(0, 3), (0, 4), (2, 2)]),
                vec![Some(3), Some(4), Some(0)],
                "{family}"
            );
            assert_eq!(
                b.distances_from(1, &[0, 5, 9]),
                vec![Some(1), Some(4), None],
                "{family}"
            );
            assert_eq!(b.top_k_closest(0, 2), vec![(1, 1), (2, 2)], "{family}");
            assert_eq!(b.neighbors(1), vec![0, 2], "{family}");
            assert_eq!(b.degree(0), 1, "{family}");
            assert!(b.label_entries() > 0, "{family}");

            // Unified mutation: one commit, same shape everywhere.
            let stats = b
                .commit_edits(&[Edit::Insert(0, 5), Edit::Remove(2, 3)])
                .unwrap();
            assert_eq!(stats.applied, 2, "{family}");
            assert_eq!(b.query(0, 5), Some(1), "{family}");
            assert_eq!(b.query(0, 3), Some(3), "{family}: via the new edge");
            assert_eq!(b.version(), 1, "{family}");

            // Readers follow publications and share the plan surface.
            let reader = b.reader();
            assert_eq!(reader.query(0, 5), Some(1), "{family}");
            assert_eq!(
                reader.distances_from(0, &[3, 5]),
                vec![Some(3), Some(1)],
                "{family}"
            );
            assert_eq!(reader.version(), 1, "{family}");
            let clone = reader.clone_reader();
            assert_eq!(clone.query_many(&[(0, 3)]), vec![Some(3)], "{family}");
        }
    }

    #[test]
    fn invalid_explicit_landmarks_are_typed_errors_not_panics() {
        for source in [
            GraphSource::Undirected(path(4)),
            GraphSource::Directed(DynamicDiGraph::from_edges(4, &[(0, 1)])),
            GraphSource::Weighted(WeightedGraph::from_edges(4, &[(0, 1, 2)])),
        ] {
            let family = source.family();
            let dup = IndexConfig {
                selection: LandmarkSelection::Explicit(vec![1, 1]),
                ..IndexConfig::default()
            };
            assert_eq!(
                build_backend(source.clone(), dup).err(),
                Some(OracleError::Label(LabelError::DuplicateLandmark {
                    landmark: 1
                })),
                "{family}"
            );
            let oob = IndexConfig {
                selection: LandmarkSelection::Explicit(vec![0, 9]),
                ..IndexConfig::default()
            };
            assert!(
                matches!(
                    build_backend(source.clone(), oob),
                    Err(OracleError::Label(LabelError::LandmarkOutOfBounds { .. }))
                ),
                "{family}"
            );
        }
    }

    #[test]
    fn weight_edits_are_typed_errors_on_unweighted_families() {
        let mut b = build_backend(GraphSource::Undirected(path(4)), small_config()).unwrap();
        assert_eq!(
            b.commit_edits(&[Edit::SetWeight(0, 1, 3)]),
            Err(OracleError::WeightedEditsUnsupported {
                family: BackendFamily::Undirected
            })
        );
        // Unit-weight inserts are accepted (they are exact).
        assert!(b.commit_edits(&[Edit::InsertWeighted(0, 3, 1)]).is_ok());
        assert_eq!(b.query(0, 3), Some(1));
        // The weighted family accepts all edit kinds.
        let mut wg = WeightedGraph::new(4);
        wg.insert_edge(0, 1, 4);
        wg.insert_edge(1, 2, 1);
        let mut w = build_backend(GraphSource::Weighted(wg), small_config()).unwrap();
        w.commit_edits(&[Edit::SetWeight(0, 1, 2), Edit::InsertWeighted(2, 3, 5)])
            .unwrap();
        assert_eq!(w.query(0, 2), Some(3));
        assert_eq!(w.query(0, 3), Some(8));
    }
}
