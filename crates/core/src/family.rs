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
//! the frozen CSR view, which is the one graph there is. A pass builds
//! `G′` from the published view and the batch, rewriting only the lists
//! the batch touches ([`Family::rewrite`]), runs the search and repair
//! of every labelling over it ([`Family::repair`]) and seals the next
//! generation ([`Family::pass`]); a what-if session runs the same two
//! steps and keeps the repair as a patch ([`Family::speculate`]).
//! Nothing is mutated on the way, so a failed pass is rolled back by
//! not publishing it.
//!
//! A family supplies its update, view and search types and a handful of
//! hooks: build the labelling(s) over a view, normalize a batch against
//! the view, split it into deletion-like and insertion-like halves
//! (BHLₛ), count its kinds, rewrite the view, run a [`Repair`] through
//! its [`crate::metric::Metric`] and the batch's seed arcs (twice for
//! directed graphs, the second time over the `Reversed` view), translate
//! [`Edit`] lists, encode its view in a checkpoint, and audit itself
//! against ground truth. The Section 4 query is provided: every family
//! names its CSR view, its `(fwd, bwd)` labellings (one labelling twice
//! for the undirected and weighted families) and its search engine, and
//! runs the one query path of `batchhl_hcl::query`.

use crate::backend::{BackendFamily, Edit, OracleError};
use crate::engine::{Commit, Repair, Speculative};
use crate::index::IndexConfig;
use crate::persist::PersistError;
use crate::stats::UpdateStats;
use crate::workspace::UpdateWorkspace;
use batchhl_common::{Dist, MonotoneQueue, Vertex, INF};
use batchhl_graph::csr::{CompactionPolicy, Frozen};
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

    /// The labellings a generation carries, as `[Labelling; LABELLINGS]`.
    type Labels: TryFrom<Vec<Labelling>, Error = Vec<Labelling>>;
    /// One native update (`Update` or `WeightedUpdate`).
    type Update: Copy;
    /// What `apply_batch` takes (`Batch` or `[WeightedUpdate]`).
    type Batch: ?Sized;
    /// A batch normalized against the current graph: one pass's input.
    type Norm;
    /// The monotone queue of the family's search and repair (its
    /// [`UpdateWorkspace`]'s).
    type Queue: MonotoneQueue;
    /// The frozen CSR view queries and passes traverse — the graph of a
    /// generation; [`Frozen::Graph`] is what an index is built from.
    type View: Frozen + DegreeOrder + Clone + Debug + PartialEq + Send + Sync;
    /// The bounded search of the query path.
    type Search: BoundedSearch<Self::View> + Default + Debug + Send + Sync;

    /// Construct the minimal labelling(s) of `view` for `landmarks`.
    /// Errors on an invalid landmark list.
    fn build(view: Self::View, landmarks: Vec<Vertex>, threads: usize) -> Result<Self, LabelError>;

    /// Pair a view with its labellings (no validation; see
    /// `Index::from_parts`).
    fn assemble(view: Self::View, labels: Self::Labels) -> Self;

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

    /// Normalize against this generation's view.
    fn normalize(&self, batch: &Self::Batch) -> Self::Norm;

    /// BHLₛ: split a normalized batch into (deletions, insertions); on
    /// weighted graphs weight increases go with the deletions and
    /// decreases with the insertions.
    fn split(norm: Self::Norm) -> (Self::Norm, Self::Norm);

    /// `(insertions, deletions)` in a normalized batch; a weight change
    /// counts as the kind it mimics.
    fn kinds(norm: &Self::Norm) -> (usize, usize);

    /// `G′`: this generation's view with every list `norm` touches
    /// rewritten, as one more overlay chunk (grown to the vertices the
    /// batch names, compacted under `policy`; `None` never compacts).
    fn rewrite(&self, norm: &Self::Norm, policy: Option<CompactionPolicy>) -> Self::View;

    /// Run `repair` for every labelling, in `labellings()` order, over
    /// `view` (this generation's `G′` for `norm`) from the batch's seeds.
    fn repair<R: Repair<Self::Queue>>(
        &self,
        view: &Self::View,
        norm: &Self::Norm,
        repair: &mut R,
    ) -> Vec<R::Out>;

    /// Translate a facade edit list; refuse edits the family cannot
    /// express with a typed error rather than drop them.
    fn from_edits(edits: &[Edit]) -> Result<Box<Self::Batch>, OracleError>;

    /// Write the length-prefixed graph block of a checkpoint body.
    fn write_graph(view: &Self::View, out: &mut dyn Write) -> Result<(), PersistError>;

    /// Decode the graph block written by `write_graph` (without its
    /// length prefix) into a fresh view.
    fn read_graph<R: Read>(r: &mut R) -> Result<Self::View, BinGraphError>;

    /// Structural audit: every labelling is the minimal highway cover
    /// labelling of the generation's graph.
    fn audit(&self) -> Result<(), String>;

    /// Ground-truth distances from `s` (BFS or Dijkstra on the view).
    fn truth(&self, s: Vertex) -> Vec<Dist>;

    /// One search→repair pass (Algorithm 1 over one normalized batch):
    /// `G′` from [`Family::rewrite`], the next labelling(s) sealed from
    /// this generation's plus the repair deltas. Fills `applied`,
    /// `insertions`, `deletions` and `affected_per_landmark`. Returns
    /// `None` when `norm` is empty. Reads `self` only, so dropping the
    /// result undoes the pass.
    fn pass(
        &self,
        norm: Self::Norm,
        config: &IndexConfig,
        ws: &mut UpdateWorkspace<Self::Queue>,
        stats: &mut UpdateStats,
    ) -> Option<Self> {
        let (insertions, deletions) = Self::kinds(&norm);
        if insertions + deletions == 0 {
            return None;
        }
        (stats.insertions, stats.deletions) = (insertions, deletions);
        stats.applied = insertions + deletions;
        let view = self.rewrite(&norm, Some(config.compaction));
        let runs = self.repair(&view, &norm, &mut Commit { config, ws });
        let mut labels = Vec::with_capacity(runs.len());
        for (lab, affected) in runs {
            let total = &mut stats.affected_per_landmark;
            total.resize(affected.len(), 0);
            total.iter_mut().zip(affected).for_each(|(t, a)| *t += a);
            labels.push(lab);
        }
        let labels = Self::Labels::try_from(labels).expect("one labelling per run");
        Some(Self::assemble(view, labels))
    }

    /// The what-if overlay of a normalized batch: the same `G′` a pass
    /// builds (never compacted), and one label patch per labelling (in
    /// `labellings()` order) from the same kernels.
    fn speculate(&self, norm: &Self::Norm) -> (Self::View, Vec<LabelPatch>) {
        let view = self.rewrite(norm, None);
        let patches = self.repair(&view, norm, &mut Speculative);
        (view, patches)
    }

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
