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
//! Algorithm 1, publication, rollback), its readers, the type-erased
//! [`crate::Backend`], the what-if session and the checkpoint frame.
//!
//! A generation holds exactly what readers read: the labelling(s) and
//! the frozen CSR view. The writer's mutable graph is not part of it;
//! [`crate::Index`] owns the one copy, and the hooks that mutate or audit
//! it take it as an argument.
//!
//! A family supplies its graph, update and search types and a handful of
//! hooks: build the labelling(s), normalize a batch against the view,
//! split it into deletion-like and insertion-like halves (BHLₛ), run one
//! search→repair pass through [`crate::engine::run_landmarks`] over its
//! [`crate::metric::Metric`] and the batch's seed arcs (twice for
//! directed graphs, the second time over the `Reversed` view), rebuild
//! the writer graph from a view, translate [`Edit`] lists, build a
//! speculative overlay, encode its graph in a checkpoint, and audit
//! itself against ground truth. The Section 4 query is provided:
//! every family names its CSR view, its `(fwd, bwd)` labellings (one
//! labelling twice for the undirected and weighted families) and its
//! search engine, and runs the one query path of `batchhl_hcl::query`.

use crate::backend::{BackendFamily, Edit, OracleError};
use crate::index::IndexConfig;
use crate::persist::PersistError;
use crate::stats::UpdateStats;
use batchhl_common::{Dist, Vertex, INF};
use batchhl_graph::io::BinGraphError;
use batchhl_graph::BoundedSearch;
use batchhl_hcl::query::{distances_from, point_dist, top_k};
use batchhl_hcl::{DegreeOrder, LabelError, LabelPatch, Labelling};
use std::fmt::Debug;
use std::io::{Read, Write};

/// One index family, implemented by its immutable generation type
/// (labelling(s) + frozen CSR view).
///
/// Every hook is monomorphised into [`crate::Index`]; nothing on the
/// query or commit path goes through a trait object.
pub trait Family: Clone + Debug + Send + Sync + Sized + 'static {
    /// The backend family this is (diagnostics, checkpoint family byte).
    const KIND: BackendFamily;

    /// Number of labellings per generation (the length of `Labels`).
    const LABELLINGS: usize;

    /// The writer's mutable graph.
    type Graph: Clone + Debug + PartialEq + Send + Sync + DegreeOrder;
    /// The labellings a generation carries, as `[Labelling; LABELLINGS]`.
    type Labels: TryFrom<Vec<Labelling>, Error = Vec<Labelling>>;
    /// One native update (`Update` or `WeightedUpdate`).
    type Update: Copy;
    /// What `apply_batch` takes (`Batch` or `[WeightedUpdate]`).
    type Batch: ?Sized;
    /// A batch normalized against the current graph: one pass's input.
    type Norm;
    /// Scratch state of one pass (the engine grows it).
    type Workspace: Default + Send;
    /// The frozen CSR view queries and passes traverse.
    type View: Clone + Debug + Send + Sync;
    /// The bounded search of the query path.
    type Search: BoundedSearch<Self::View> + Default + Debug + Send + Sync;

    /// Freeze `graph` into a view and construct the minimal labelling(s)
    /// for `landmarks`. Errors on an invalid landmark list.
    fn build(
        graph: &Self::Graph,
        landmarks: Vec<Vertex>,
        threads: usize,
    ) -> Result<Self, LabelError>;

    /// Pair a view of `graph` with previously built labellings (no
    /// validation; see `Index::from_parts`).
    fn assemble(graph: &Self::Graph, labels: Self::Labels) -> Self;

    /// The writer graph a view presents (the rollback path: `O(n + m)`).
    fn graph_of(view: &Self::View) -> Self::Graph;

    fn view(&self) -> &Self::View;

    /// Every labelling of the generation, in checkpoint order.
    fn labellings(&self) -> Vec<&Labelling>;

    /// The `(fwd, bwd)` labellings of the query path: `d(r → t)` labels
    /// of targets and `d(s → r)` labels of sources.
    fn query_labels(&self) -> (&Labelling, &Labelling);

    /// Out-neighbours of an in-range vertex, weights dropped.
    fn neighbors(&self, v: Vertex) -> Vec<Vertex>;

    fn updates(batch: &Self::Batch) -> &[Self::Update];

    /// One update as a batch of its own (the UHL/UHL⁺ pass unit).
    fn single(update: Self::Update) -> Box<Self::Batch>;

    /// Normalize against this generation's view (which, between passes,
    /// presents the writer graph).
    fn normalize(&self, batch: &Self::Batch) -> Self::Norm;

    /// BHLₛ: split a normalized batch into (deletions, insertions); on
    /// weighted graphs weight increases go with the deletions and
    /// decreases with the insertions.
    fn split(norm: Self::Norm) -> (Self::Norm, Self::Norm);

    /// One search→repair pass: apply `norm` to the writer `graph`, absorb
    /// it into a copy of `old`'s view, and build the next generation's
    /// labelling(s) from `old`'s plus the repair deltas.
    /// Fills `applied`, `insertions`, `deletions` and
    /// `affected_per_landmark`. Returns `None`, touching nothing, when
    /// `norm` is empty.
    fn pass(
        graph: &mut Self::Graph,
        old: &Self,
        norm: Self::Norm,
        config: &IndexConfig,
        ws: &mut Self::Workspace,
        stats: &mut UpdateStats,
    ) -> Option<Self>;

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
    /// labelling of `graph`.
    fn audit(&self, graph: &Self::Graph) -> Result<(), String>;

    /// Ground-truth distances from `s` (BFS or Dijkstra on `graph`).
    fn truth(graph: &Self::Graph, s: Vertex) -> Vec<Dist>;

    /// Exact distance, `INF` when disconnected or out of range.
    fn query_dist(&self, search: &mut Self::Search, s: Vertex, t: Vertex) -> Dist {
        let (fwd, bwd) = self.query_labels();
        point_dist(self.view(), fwd, bwd, search, s, t)
    }

    /// One-source-to-many-targets distances (aligned with `targets`,
    /// `None` for disconnected or out of range): one source-side label
    /// plan for every target, then per-target searches under the pooled
    /// fair share, with one bounded sweep once they overrun it.
    fn distances_from(
        &self,
        search: &mut Self::Search,
        s: Vertex,
        targets: &[Vertex],
    ) -> Vec<Option<Dist>> {
        let (fwd, bwd) = self.query_labels();
        distances_from(self.view(), fwd, bwd, search, s, targets)
            .0
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
