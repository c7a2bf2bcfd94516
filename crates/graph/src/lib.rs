//! Dynamic graph substrate for the `batchhl` workspace.
//!
//! The BatchHL paper operates on unweighted graphs stored explicitly in
//! main memory that undergo *batches* of edge insertions and deletions
//! (Section 3). This crate provides that substrate in **two
//! representations with distinct roles**:
//!
//! * **Writer graphs** — [`graph::DynamicGraph`],
//!   [`digraph::DynamicDiGraph`] and [`weighted::WeightedGraph`]: sorted
//!   per-vertex `Vec` adjacency with O(log d) edge tests and cheap
//!   in-place mutation. This is what `apply_batch` mutates.
//! * **Snapshot views** — [`csr`]: frozen flat CSR arrays plus a small
//!   per-generation delta overlay ([`csr::CsrDelta`] and friends). This
//!   is what published generations expose to queries and to the update
//!   engine's landmark searches: traversal is sequential memory access
//!   instead of one pointer chase per vertex, and consecutive
//!   generations share the frozen base until a compaction.
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

/// The search half of a Section 4 query over a graph type `G`: a
/// distance-bounded bidirectional search for one pair plus a one-sided
/// bounded sweep for one-to-many calls, both restricted to the vertices
/// passing `allowed`. [`bfs::BiBfs`] implements it over any
/// [`AdjacencyView`] and [`weighted::BiDijkstra`] over any
/// [`WeightedAdjacencyView`]; every required method forwards to the
/// inherent one of the same name, so the contracts are documented there.
pub trait BoundedSearch<G> {
    /// Number of vertices of `g` (`0..n` ids are valid endpoints).
    fn num_vertices(g: &G) -> usize;

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

    /// [`BoundedSearch::run`] under an expansion budget: one expansion
    /// is one vertex of a BFS level's frontier or one Dijkstra settle.
    /// Spent expansions are taken off `budget`; a step that would need
    /// more than is left abandons the search as
    /// [`SearchOutcome::OutOfBudget`].
    fn run_budgeted<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &G,
        s: Vertex,
        t: Vertex,
        bound: Dist,
        budget: &mut usize,
        allowed: F,
    ) -> SearchOutcome;

    /// Bounded sweep from `s`, stopping past `bound` or once `cap`
    /// vertices are reached.
    fn sweep<F: Fn(Vertex) -> bool>(
        &mut self,
        g: &G,
        s: Vertex,
        bound: Dist,
        cap: usize,
        allowed: F,
    );

    /// Vertices the last sweep reached, nondecreasing by distance.
    fn swept(&self) -> &[Vertex];

    /// Distance recorded by the last sweep (`INF` when unreached).
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
/// arc of `g` flipped, for any [`AdjacencyView`] — dynamic writer
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
