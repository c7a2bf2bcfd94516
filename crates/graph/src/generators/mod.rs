//! Seeded synthetic graph generators.
//!
//! These stand in for the paper's 14 real-world datasets, which are
//! too large to ship:
//! Barabási–Albert for the social networks (power-law degrees, small
//! diameter), R-MAT for the skewed web/communication graphs,
//! Watts–Strogatz as a small-world control, Erdős–Rényi as the
//! homogeneous control, plus the deterministic classics (paths, grids,
//! stars, cliques) used heavily by the test suites.
//!
//! All generators are deterministic given their seed.

mod ba;
mod classic;
mod er;
mod rmat;
mod ws;

pub use ba::barabasi_albert;
pub use classic::{complete, cycle, grid, path, star};
pub use er::{erdos_renyi_gnm, erdos_renyi_gnp};
pub use rmat::{rmat, RmatParams};
pub use ws::watts_strogatz;

use crate::graph::DynamicGraph;
use crate::DynamicDiGraph;
use batchhl_common::Vertex;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Summary statistics mirroring the columns of Table 2.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphStats {
    pub num_vertices: usize,
    pub num_edges: usize,
    pub avg_degree: f64,
    pub max_degree: usize,
}

impl GraphStats {
    pub fn of(g: &DynamicGraph) -> Self {
        GraphStats {
            num_vertices: g.num_vertices(),
            num_edges: g.num_edges(),
            avg_degree: g.avg_degree(),
            max_degree: g.max_degree(),
        }
    }
}

/// Orient every undirected edge of `g` randomly (and keep ~`both_frac`
/// of them bidirectional), producing the directed datasets of Table 6.
pub fn orient_randomly(g: &DynamicGraph, both_frac: f64, seed: u64) -> DynamicDiGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut dg = DynamicDiGraph::new(g.num_vertices());
    for (u, v) in g.edges() {
        if rng.gen_bool(both_frac) {
            dg.insert_edge(u, v);
            dg.insert_edge(v, u);
        } else if rng.gen_bool(0.5) {
            dg.insert_edge(u, v);
        } else {
            dg.insert_edge(v, u);
        }
    }
    dg
}

/// Sample a uniformly random pair of distinct vertices.
pub(crate) fn random_pair<R: Rng>(n: usize, rng: &mut R) -> (Vertex, Vertex) {
    debug_assert!(n >= 2);
    let u = rng.gen_range(0..n) as Vertex;
    loop {
        let v = rng.gen_range(0..n) as Vertex;
        if v != u {
            return (u, v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_reflect_graph() {
        let g = path(5);
        let s = GraphStats::of(&g);
        assert_eq!(s.num_vertices, 5);
        assert_eq!(s.num_edges, 4);
        assert_eq!(s.max_degree, 2);
        assert!((s.avg_degree - 1.6).abs() < 1e-12);
    }

    #[test]
    fn orientation_preserves_adjacency() {
        let g = erdos_renyi_gnm(100, 300, 7);
        let dg = orient_randomly(&g, 0.3, 8);
        assert_eq!(dg.num_vertices(), 100);
        // Every arc corresponds to an undirected edge.
        for (u, v) in dg.edges() {
            assert!(g.has_edge(u, v));
        }
        // Every undirected edge yields at least one arc.
        for (u, v) in g.edges() {
            assert!(dg.has_edge(u, v) || dg.has_edge(v, u));
        }
        dg.validate().unwrap();
    }

    #[test]
    fn orientation_is_deterministic() {
        let g = erdos_renyi_gnm(50, 120, 3);
        let a = orient_randomly(&g, 0.2, 9);
        let b = orient_randomly(&g, 0.2, 9);
        assert_eq!(a, b);
    }
}
