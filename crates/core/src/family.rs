//! What distinguishes one index family from another.
//!
//! Section 6 of the paper presents the directed and weighted indexes as
//! parameterisations of one algorithm: weighted graphs run "pruned
//! Dijkstra's algorithm in place of pruned BFSs", directed graphs add a
//! second, backward labelling. [`Family`] is that parameter. It is
//! implemented by each family's generation type —
//! [`crate::IndexSnapshot`] (undirected), [`crate::DirectedSnapshot`] and
//! [`crate::WeightedSnapshot`] — and everything else is written once over
//! it: the index [`crate::Index`] (construction, the pass dispatch of
//! Algorithm 1, publication and recycling, rollback), its readers, the
//! type-erased [`crate::Backend`], the what-if session and the checkpoint
//! frame.
//!
//! A family supplies its graph, update and search types and a handful of
//! hooks: build the labelling(s), normalize a batch, run one
//! search→repair pass through [`crate::engine::run_landmarks`] (twice for
//! directed graphs, the second time over the `Reversed` view), replay a
//! pass onto a recycled buffer, translate [`Edit`] lists, build a
//! speculative overlay, encode its graph in a checkpoint, and audit
//! itself against ground truth. The Section 4 query is provided: every
//! family names its CSR view, its `(fwd, bwd)` labellings (one labelling
//! twice for the undirected and weighted families) and its search engine,
//! and runs the one query path of `batchhl_hcl::query`.

use crate::backend::{BackendFamily, Edit, OracleError};
use crate::index::IndexConfig;
use crate::persist::PersistError;
use crate::stats::UpdateStats;
use batchhl_common::{Dist, Vertex, INF};
use batchhl_graph::io::BinGraphError;
use batchhl_graph::{BoundedSearch, CompactionPolicy};
use batchhl_hcl::query::{distances_from, point_dist, top_k};
use batchhl_hcl::{DegreeOrder, LabelError, LabelPatch, Labelling};
use std::fmt::Debug;
use std::io::{Read, Write};

/// One index family, implemented by its immutable generation type
/// (graph + labelling(s) + frozen CSR view).
///
/// Every hook is monomorphised into [`crate::Index`]; nothing on the
/// query or commit path goes through a trait object.
pub trait Family: Clone + Debug + Send + Sync + Sized + 'static {
    /// The backend family this is (diagnostics, checkpoint family byte).
    const KIND: BackendFamily;

    /// Whether the configured [`crate::Algorithm`] drives the passes
    /// (BHLₛ/UHL sub-batching, improved search) and is recorded in the
    /// checkpoint body. The weighted family runs one basic pass per
    /// batch, and its checkpoints carry no algorithm byte.
    const HONOURS_ALGORITHM: bool;

    /// Number of labellings per generation (the length of `Labels`).
    const LABELLINGS: usize;

    /// The writer's mutable graph.
    type Graph: Clone + Debug + Default + Send + Sync + DegreeOrder;
    /// The labellings a generation carries, as `[Labelling; LABELLINGS]`.
    type Labels: TryFrom<Vec<Labelling>, Error = Vec<Labelling>>;
    /// One native update (`Update` or `WeightedUpdate`).
    type Update: Copy;
    /// What `apply_batch` takes (`Batch` or `[WeightedUpdate]`).
    type Batch: ?Sized;
    /// A batch normalized against the current graph: one pass's input.
    type Norm;
    /// What one pass changed — enough to replay it onto a retired buffer.
    type Log: Send;
    /// Scratch state of one pass (grown by the pass itself).
    type Workspace: Default + Send;
    /// The frozen CSR view queries and passes traverse.
    type View: Clone + Debug + Send + Sync;
    /// The bounded search of the query path.
    type Search: BoundedSearch<Self::View> + Default + Debug + Send + Sync;

    /// Freeze `graph` into a view and construct the minimal labelling(s)
    /// for `landmarks`. Errors on an invalid landmark list.
    fn build(
        graph: Self::Graph,
        landmarks: Vec<Vertex>,
        threads: usize,
    ) -> Result<Self, LabelError>;

    /// Pair `graph` with previously built labellings (no validation;
    /// see `Index::from_parts`).
    fn assemble(graph: Self::Graph, labels: Self::Labels) -> Self;

    /// An empty generation, swapped in while the working one is published.
    fn placeholder() -> Self {
        let empty = Labelling::empty(0, Vec::new()).expect("empty labelling is valid");
        let labels = vec![empty; Self::LABELLINGS].try_into();
        Self::assemble(Self::Graph::default(), labels.expect("one per labelling"))
    }

    fn graph(&self) -> &Self::Graph;

    fn view(&self) -> &Self::View;

    /// Every labelling of the generation, in checkpoint order.
    fn labellings(&self) -> Vec<&Labelling>;

    /// The `(fwd, bwd)` labellings of the query path: `d(r → t)` labels
    /// of targets and `d(s → r)` labels of sources.
    fn query_labels(&self) -> (&Labelling, &Labelling);

    /// Set the compaction policy of the CSR view.
    fn set_compaction(&mut self, policy: CompactionPolicy);

    /// Out-neighbours of an in-range vertex, weights dropped.
    fn neighbors(&self, v: Vertex) -> Vec<Vertex>;

    fn updates(batch: &Self::Batch) -> &[Self::Update];

    /// One update as a batch of its own (the UHL/UHL⁺ pass unit).
    fn single(update: Self::Update) -> Box<Self::Batch>;

    fn normalize(&self, batch: &Self::Batch) -> Self::Norm;

    /// BHLₛ: split a normalized batch into (deletions, insertions).
    fn split(norm: Self::Norm) -> (Self::Norm, Self::Norm);

    /// One search→repair pass: apply `norm` to the graph, absorb it into
    /// the view, grow the workspace and labellings, and repair every
    /// labelling in place against the published generation `old`.
    /// Fills `applied`, `insertions`, `deletions` and
    /// `affected_per_landmark`. Returns `None`, touching nothing, when
    /// `norm` is empty.
    fn pass(
        &mut self,
        old: &Self,
        norm: Self::Norm,
        config: &IndexConfig,
        ws: &mut Self::Workspace,
        stats: &mut UpdateStats,
    ) -> Option<Self::Log>;

    /// Bring `buf`, holding the state just before a logged pass, to the
    /// state just after it, copying repaired entries from `fresh`.
    fn replay(buf: &mut Self, fresh: &Self, log: &Self::Log);

    /// Translate a facade edit list; refuse edits the family cannot
    /// express with a typed error rather than drop them.
    fn from_edits(edits: &[Edit]) -> Result<Box<Self::Batch>, OracleError>;

    /// The what-if overlay of a normalized batch: a private copy of the
    /// view with the batch recorded, and one label patch per labelling
    /// (in `labellings()` order) from the speculative kernels.
    fn speculate(&self, norm: &Self::Norm) -> (Self::View, Vec<LabelPatch>);

    /// Write the length-prefixed graph block of a checkpoint body.
    fn write_graph(graph: &Self::Graph, out: &mut dyn Write) -> Result<(), PersistError>;

    /// Decode the graph block written by `write_graph` (without its
    /// length prefix).
    fn read_graph<R: Read>(r: &mut R) -> Result<Self::Graph, BinGraphError>;

    /// Structural audit: every labelling is the minimal highway cover
    /// labelling of the graph (where minimality is defined).
    fn audit(&self) -> Result<(), String>;

    /// Ground-truth distances from `s` (BFS or Dijkstra on the graph).
    fn truth(&self, s: Vertex) -> Vec<Dist>;

    /// Exact distance, `INF` when disconnected or out of range.
    fn query_dist(&self, search: &mut Self::Search, s: Vertex, t: Vertex) -> Dist {
        let (fwd, bwd) = self.query_labels();
        point_dist(self.view(), fwd, bwd, search, s, t)
    }

    /// One-source-to-many-targets distances (aligned with `targets`,
    /// `None` for disconnected or out of range): one source-side label
    /// plan for every target, and one bounded sweep instead of
    /// per-target searches for large target sets.
    fn distances_from(
        &self,
        search: &mut Self::Search,
        s: Vertex,
        targets: &[Vertex],
    ) -> Vec<Option<Dist>> {
        let (fwd, bwd) = self.query_labels();
        distances_from(self.view(), fwd, bwd, search, s, targets)
            .into_iter()
            .map(|d| (d != INF).then_some(d))
            .collect()
    }

    /// The `k` vertices closest to `s` (excluding `s`), nondecreasing by
    /// distance — a capped sweep of the full graph.
    fn top_k(&self, search: &mut Self::Search, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        top_k(self.view(), search, s, k)
    }
}
