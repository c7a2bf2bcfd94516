//! Dynamic graph substrate for the `batchhl` workspace.
//!
//! The BatchHL paper operates on unweighted graphs stored explicitly in
//! main memory that undergo *batches* of edge insertions and deletions
//! (Section 3). This crate provides that substrate in **two
//! representations with distinct roles**:
//!
//! * **Dynamic graphs** — [`graph::DynamicGraph`],
//!   [`digraph::DynamicDiGraph`] and [`weighted::WeightedGraph`]: sorted
//!   per-vertex `Vec` adjacency with O(log d) edge tests and cheap
//!   in-place mutation. An index is built from one and can materialise
//!   one ([`csr::Frozen`]); tests, generators and baselines mutate them.
//! * **Snapshot views** — [`csr`]: frozen flat CSR arrays plus an
//!   overlay of per-batch chunks ([`csr::CsrDelta`] and friends). This
//!   is the one graph an index holds: published generations expose it
//!   to queries and to the update engine's landmark searches, and a
//!   batch produces the next view by rewriting only the lists it
//!   touches. Traversal is sequential memory access instead of one
//!   pointer chase per vertex, and consecutive generations share the
//!   frozen base and every earlier chunk until a compaction.
//!
//! Remaining modules:
//!
//! * [`update`] — the update/batch model with the paper's normalization
//!   rules (cancel insert+delete pairs, drop invalid/duplicate updates),
//! * [`bfs`] — reusable BFS workspaces, including the distance-bounded
//!   bidirectional search that powers query answering (Section 4);
//!   [`BoundedSearch`] abstracts it and its weighted counterpart
//!   ([`weighted::BiDijkstra`]) for the one generic query path, with an
//!   optional expansion budget ([`SearchOutcome`]),
//! * [`generators`] — seeded synthetic graphs standing in for the
//!   paper's 14 datasets, which are too large to ship,
//! * [`stream`] — an evolving timestamped edge stream standing in for
//!   the real dynamic Wikipedia networks,
//! * [`io`] — SNAP-style edge-list reading/writing,
//! * [`components`] — connectivity helpers used by tests and workloads.

#![forbid(unsafe_code)]

pub mod bfs;
pub mod components;
pub mod csr;
pub mod digraph;
pub mod generators;
pub mod graph;
pub mod io;
pub mod stream;
pub mod update;
pub mod weighted;

pub use csr::{
    CompactionPolicy, CsrDelta, CsrDiDelta, CsrGraph, VertexRemap, WeightedCsrDelta,
    WeightedCsrGraph,
};
pub use digraph::DynamicDiGraph;
pub use graph::DynamicGraph;
pub use update::{Batch, Update};
pub use weighted::WeightedAdjacencyView;

pub use batchhl_common::{Dist, Vertex, INF};

/// How a budgeted bounded search ended (see
/// [`BoundedSearch::run_budgeted`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchOutcome {
    /// The exact distance, strictly below the bound.
    Found(Dist),
    /// No path in the allowed subgraph is shorter than the bound.
    NotBelow,
    /// The next step would have spent more expansions than the budget
    /// held, so the search was abandoned with its answer unknown.
    OutOfBudget,
}

impl SearchOutcome {
    /// The distance of a [`SearchOutcome::Found`]; `None` otherwise.
    #[inline]
    pub fn found(self) -> Option<Dist> {
        match self {
            SearchOutcome::Found(d) => Some(d),
            SearchOutcome::NotBelow | SearchOutcome::OutOfBudget => None,
        }
    }
}

/// The search half of a Section 4 query over a graph type `G`, restricted
/// to the vertices passing `allowed`. [`bfs::BiBfs`] implements it over
/// any [`AdjacencyView`] and [`weighted::BiDijkstra`] over any
/// [`WeightedAdjacencyView`].
///
/// A search is split into a **source side** and a **target side** so
/// that one source side can serve many targets:
/// [`BoundedSearch::start_source`] seeds it at `s`, each
/// [`BoundedSearch::search_target`] runs one target's side against it
/// (growing the source side when that is cheaper, and leaving what it
/// grew for the next target), and [`BoundedSearch::extend_source`] grows
/// it alone, as a one-to-many sweep. A point query is one source side and
/// one target side ([`BoundedSearch::run_budgeted`]).
///
/// Expansions are counted as BFS levels' frontier vertices or Dijkstra
/// settles, on either side, and taken off a caller's budget.
pub trait BoundedSearch<G> {
    /// Number of vertices of `g` (`0..n` ids are valid endpoints).
    fn num_vertices(g: &G) -> usize;

    /// Forget the last search and seed a source side at `s`, which must
    /// be allowed.
    fn start_source(&mut self, g: &G, s: Vertex);

    /// Exact `d(s, t)` in the allowed subgraph if it is `< bound`, with
    /// `s` the source side's seed; `t` must be allowed. The target side
    /// checks every vertex it reaches against the source side's
    /// distances, and the source side checks the target's when it grows,
    /// so meetings with source vertices reached for earlier targets count.
    ///
    /// The source side grows when its frontier volume divided by `open`
    /// (the targets still to be served by it, this one included) is no
    /// larger than the target side's, so a shared source side takes a
    /// larger share of the work. Every expansion is taken off `budget`;
    /// a step that would need more than is left returns
    /// [`SearchOutcome::OutOfBudget`] with the source side intact, so
    /// [`BoundedSearch::extend_source`] can continue it.
    fn search_target<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &G,
        t: Vertex,
        bound: Dist,
        open: usize,
        budget: &mut usize,
        allowed: F,
    ) -> SearchOutcome;

    /// Grow the source side alone until it has settled every vertex
    /// within distance `bound` of `s`, or `cap` vertices (a BFS completes
    /// the level it crosses `cap` in). Unless `cap` stopped it,
    /// [`BoundedSearch::sweep_dist`] is then exact for every vertex
    /// within `bound` and reads `INF` or a value above `bound` elsewhere,
    /// so `min(b, sweep_dist(v))` is exact for any bound `b ≤ bound`.
    fn extend_source<F: Fn(Vertex) -> bool>(&mut self, g: &G, bound: Dist, cap: usize, allowed: F);

    /// Exact `d(s, t)` in the allowed subgraph if it is `< bound`.
    fn run<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &G,
        s: Vertex,
        t: Vertex,
        bound: Dist,
        allowed: F,
    ) -> Option<Dist> {
        let mut unlimited = usize::MAX;
        self.run_budgeted(g, s, t, bound, &mut unlimited, allowed)
            .found()
    }

    /// [`BoundedSearch::run`] under an expansion budget: one source side
    /// and one target side.
    fn run_budgeted<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &G,
        s: Vertex,
        t: Vertex,
        bound: Dist,
        budget: &mut usize,
        allowed: F,
    ) -> SearchOutcome {
        self.start_source(g, s);
        self.search_target(g, t, bound, 1, budget, allowed)
    }

    /// Bounded sweep from `s`, stopping past `bound` or once `cap`
    /// vertices are reached (`cap = 0` reaches nothing).
    fn sweep<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &G,
        s: Vertex,
        bound: Dist,
        cap: usize,
        allowed: F,
    ) {
        debug_assert!(allowed(s), "sweep source must be allowed");
        // Seeding sizes the workspace for `g`, so `sweep_dist` reads
        // `INF` for every vertex even when `cap = 0` reaches none.
        self.start_source(g, s);
        if cap == 0 {
            self.clear();
        } else {
            self.extend_source(g, bound, cap, allowed);
        }
    }

    /// Vertices the source side has settled, nondecreasing by distance.
    fn swept(&self) -> &[Vertex];

    /// The source side's distance to `v` (`INF` when unreached).
    fn sweep_dist(&self, v: Vertex) -> Dist;

    /// Forget the last search or sweep (see [`bfs::BiBfs::clear`]).
    fn clear(&mut self);
}

/// Uniform view over the adjacency of directed and undirected graphs.
///
/// Undirected graphs present the same neighbour list in both directions;
/// directed graphs present out- and in-neighbours. The BFS toolkit and
/// the labelling algorithms are generic over this trait so the directed
/// variant of BatchHL (Section 6) reuses the exact same machinery.
/// Every implementation returns *borrowed slices* — the trait never
/// forces an allocation or a boxed iterator on the traversal hot path,
/// and slice `len()` makes the degree accessors O(1) (for CSR views the
/// slice itself is two array reads).
pub trait AdjacencyView {
    /// Number of vertices (`0..n` ids are valid).
    fn num_vertices(&self) -> usize;

    /// Successors of `v` (all neighbours for undirected graphs).
    fn out_neighbors(&self, v: Vertex) -> &[Vertex];

    /// Predecessors of `v` (all neighbours for undirected graphs).
    fn in_neighbors(&self, v: Vertex) -> &[Vertex];

    /// Out-degree of `v` — O(1) for every implementation in this
    /// workspace.
    #[inline]
    fn out_degree(&self, v: Vertex) -> usize {
        self.out_neighbors(v).len()
    }

    /// In-degree of `v` — O(1) for every implementation in this
    /// workspace.
    #[inline]
    fn in_degree(&self, v: Vertex) -> usize {
        self.in_neighbors(v).len()
    }
}

/// Generic direction-swapping adapter: `Reversed(&g)` presents every
/// arc of `g` flipped, for any [`AdjacencyView`] — dynamic
/// graphs and CSR snapshots alike. The backward passes of the directed
/// index run the forward machinery over this view.
#[derive(Debug, Clone, Copy)]
pub struct Reversed<'g, A: ?Sized>(pub &'g A);

impl<A: AdjacencyView + ?Sized> AdjacencyView for Reversed<'_, A> {
    fn num_vertices(&self) -> usize {
        self.0.num_vertices()
    }

    #[inline]
    fn out_neighbors(&self, v: Vertex) -> &[Vertex] {
        self.0.in_neighbors(v)
    }

    #[inline]
    fn in_neighbors(&self, v: Vertex) -> &[Vertex] {
        self.0.out_neighbors(v)
    }
}
