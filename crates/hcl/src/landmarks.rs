//! Landmark selection.
//!
//! The paper selects the highest-degree vertices (20 by default, "in the
//! same way as FulFD"); degree is the standard centrality proxy on
//! complex networks, where hubs cover a large fraction of shortest
//! paths. Random selection and explicit lists are provided for
//! experiments and tests.

use batchhl_common::SplitMix64;
use batchhl_graph::csr::CsrOverlay;
use batchhl_graph::weighted::WeightedGraph;
use batchhl_graph::{AdjacencyView, CsrDiDelta, DynamicDiGraph, DynamicGraph, Vertex};

/// Strategy for choosing the landmark set `R`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LandmarkSelection {
    /// The `k` highest-degree vertices (ties by vertex id) — the
    /// paper's choice.
    TopDegree(usize),
    /// `k` uniform random vertices (seeded).
    Random { count: usize, seed: u64 },
    /// An explicit landmark list.
    Explicit(Vec<Vertex>),
}

impl LandmarkSelection {
    /// Default configuration used throughout the paper's experiments.
    pub fn paper_default() -> Self {
        LandmarkSelection::TopDegree(20)
    }

    /// Materialize the landmark set for any graph family (directed
    /// graphs rank by total degree; weighted graphs ignore weights —
    /// hub coverage is structural).
    pub fn select<G: DegreeOrder + ?Sized>(&self, g: &G) -> Vec<Vertex> {
        let n = g.num_vertices();
        match self {
            LandmarkSelection::TopDegree(k) => {
                let mut order = g.vertices_by_degree();
                order.truncate((*k).min(n));
                order
            }
            LandmarkSelection::Random { count, seed } => {
                let mut rng = SplitMix64::new(*seed);
                let mut all: Vec<Vertex> = (0..n as Vertex).collect();
                rng.shuffle(&mut all);
                all.truncate((*count).min(n));
                all
            }
            LandmarkSelection::Explicit(list) => list.clone(),
        }
    }
}

/// What landmark selection reads from a graph.
pub trait DegreeOrder {
    fn num_vertices(&self) -> usize;

    /// Vertex ids by decreasing degree, ties broken by id.
    fn vertices_by_degree(&self) -> Vec<Vertex>;
}

macro_rules! degree_order {
    ($($graph:ty),*) => {$(
        impl DegreeOrder for $graph {
            fn num_vertices(&self) -> usize {
                <$graph>::num_vertices(self)
            }

            fn vertices_by_degree(&self) -> Vec<Vertex> {
                <$graph>::vertices_by_degree(self)
            }
        }
    )*};
}

degree_order!(DynamicGraph, DynamicDiGraph, WeightedGraph);

/// `0..n` by decreasing `degree`, ties by id.
fn by_degree(n: usize, degree: impl Fn(Vertex) -> usize) -> Vec<Vertex> {
    let mut order: Vec<Vertex> = (0..n as Vertex).collect();
    order.sort_by_key(|&v| (std::cmp::Reverse(degree(v)), v));
    order
}

/// A CSR view ranks like the graph it presents.
impl<T: Copy> DegreeOrder for CsrOverlay<T> {
    fn num_vertices(&self) -> usize {
        CsrOverlay::num_vertices(self)
    }

    fn vertices_by_degree(&self) -> Vec<Vertex> {
        by_degree(self.num_vertices(), |v| self.degree(v))
    }
}

/// Out- plus in-degree, as [`DynamicDiGraph::degree`].
impl DegreeOrder for CsrDiDelta {
    fn num_vertices(&self) -> usize {
        CsrDiDelta::num_vertices(self)
    }

    fn vertices_by_degree(&self) -> Vec<Vertex> {
        by_degree(self.num_vertices(), |v| {
            self.out_degree(v) + self.in_degree(v)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_graph::generators::star;

    #[test]
    fn top_degree_picks_hub_first() {
        let g = star(10);
        let lms = LandmarkSelection::TopDegree(3).select(&g);
        assert_eq!(lms.len(), 3);
        assert_eq!(lms[0], 0, "star centre has max degree");
    }

    #[test]
    fn top_degree_caps_at_n() {
        let g = star(3);
        let lms = LandmarkSelection::TopDegree(10).select(&g);
        assert_eq!(lms.len(), 3);
    }

    #[test]
    fn random_is_seeded_and_distinct() {
        let g = star(50);
        let a = LandmarkSelection::Random { count: 10, seed: 3 }.select(&g);
        let b = LandmarkSelection::Random { count: 10, seed: 3 }.select(&g);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 10, "landmarks must be distinct");
    }

    #[test]
    fn explicit_passthrough() {
        let g = star(5);
        let lms = LandmarkSelection::Explicit(vec![4, 2]).select(&g);
        assert_eq!(lms, vec![4, 2]);
    }

    #[test]
    fn directed_uses_total_degree() {
        let g = DynamicDiGraph::from_edges(4, &[(0, 1), (2, 1), (3, 1)]);
        let lms = LandmarkSelection::TopDegree(1).select(&g);
        assert_eq!(lms, vec![1]);
    }
}
