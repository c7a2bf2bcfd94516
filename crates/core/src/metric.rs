//! The edge metric of a search space, and the arcs a batch seeds.
//!
//! Section 6 of the paper runs "pruned Dijkstra's algorithm in place of
//! pruned BFSs" on weighted graphs, so batch search and batch repair
//! ([`crate::search`], [`crate::repair`]) are written once over a
//! [`Metric`]: the edges of a vertex with their lengths, plus the
//! monotone queue that orders extended landmark lengths. Every
//! [`AdjacencyView`] (an undirected graph, or either direction of a
//! directed one) has unit lengths and a bucketed [`LexDialQueue`];
//! [`Weighted`] gives a [`WeightedAdjacencyView`] its weights and the
//! monotone radix heap [`RadixHeap`], whose buckets follow the bits of
//! the packed keys rather than one bucket per distance. A family turns
//! its batch into [`Seed`] arcs.

use batchhl_common::{Dist, LexDialQueue, MonotoneQueue, RadixHeap, Vertex};
use batchhl_graph::weighted::WeightedAdjacencyView;
use batchhl_graph::{AdjacencyView, Update};

/// Edge lengths and queue order of a search space.
pub trait Metric: Sync {
    /// The monotone queue of the search and the repair.
    type Queue: MonotoneQueue;

    /// `(successor, length)` pairs of `v`.
    fn out_edges(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Dist)> + '_;

    /// `(predecessor, length)` pairs of `v`.
    fn in_edges(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Dist)> + '_;
}

impl<A: AdjacencyView + Sync + ?Sized> Metric for A {
    type Queue = LexDialQueue;

    fn out_edges(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Dist)> + '_ {
        self.out_neighbors(v).iter().map(|&w| (w, 1))
    }

    fn in_edges(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Dist)> + '_ {
        self.in_neighbors(v).iter().map(|&w| (w, 1))
    }
}

/// A weighted (undirected) graph as a metric: edge weights are lengths.
#[derive(Debug, Clone, Copy)]
pub struct Weighted<'g, W: ?Sized>(pub &'g W);

impl<W: WeightedAdjacencyView + Sync + ?Sized> Metric for Weighted<'_, W> {
    type Queue = RadixHeap;

    fn out_edges(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Dist)> + '_ {
        self.0.weighted_neighbors(v).iter().copied()
    }

    fn in_edges(&self, v: Vertex) -> impl Iterator<Item = (Vertex, Dist)> + '_ {
        self.out_edges(v)
    }
}

/// An arc the batch search seeds from: a path to `tail` extended by
/// `len` may reach `head`. `deleted` marks an arc whose old paths the
/// batch destroys (a removal, or a weight increase at the old weight);
/// otherwise `len` is the new length of an added or lightened arc. An
/// undirected edge seeds both of its arcs, a directed one only its own.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Seed {
    pub tail: Vertex,
    pub head: Vertex,
    pub len: Dist,
    pub deleted: bool,
}

impl Seed {
    /// The arc of an unweighted update, tail first.
    pub fn unit(u: &Update) -> Seed {
        let (tail, head) = u.endpoints();
        Seed {
            tail,
            head,
            len: 1,
            deleted: u.is_delete(),
        }
    }

    /// The same arc, pointing the other way.
    pub fn reversed(self) -> Seed {
        Seed {
            tail: self.head,
            head: self.tail,
            ..self
        }
    }

    /// Both arcs of an undirected edge.
    pub fn both_ways(self) -> [Seed; 2] {
        [self, self.reversed()]
    }

    /// The seeds of an undirected unweighted batch.
    pub fn undirected(updates: &[Update]) -> Vec<Seed> {
        updates
            .iter()
            .flat_map(|u| Seed::unit(u).both_ways())
            .collect()
    }
}
