//! Undirected dynamic graph with sorted adjacency lists.
//!
//! The representation follows the paper's setting: an explicit in-memory
//! simple graph (no self-loops, no parallel edges) over dense vertex ids
//! `0..n`. Neighbour lists are kept sorted so that
//!
//! * `has_edge` is a binary search (`O(log d)`),
//! * insertion/removal are `O(d)` shifts (cheap at complex-network
//!   degrees and amortized by batch application),
//! * neighbour iteration is a contiguous slice scan, which dominates the
//!   running time of every search in this workspace and benefits from
//!   the cache-friendly layout.

use crate::update::{Batch, Update};
use crate::AdjacencyView;
use batchhl_common::Vertex;

/// An undirected simple graph under batch updates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DynamicGraph {
    adj: Vec<Vec<Vertex>>,
    num_edges: usize,
}

impl DynamicGraph {
    /// Create an edgeless graph on `n` vertices.
    pub fn new(n: usize) -> Self {
        DynamicGraph {
            adj: vec![Vec::new(); n],
            num_edges: 0,
        }
    }

    /// Build from an edge list, ignoring self-loops and duplicate edges.
    ///
    /// Endpoints must be `< n`; use [`DynamicGraph::from_edges_auto`] to
    /// size the graph from the data.
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut g = DynamicGraph::new(n);
        for &(u, v) in edges {
            g.insert_edge(u, v);
        }
        g
    }

    /// Assemble from complete per-vertex adjacency lists (each sorted,
    /// mirrored on both endpoints) — the load path of the binary CSR
    /// snapshot format in [`crate::io`]. The lists are validated
    /// structurally; invalid input gets an error, never a graph that
    /// breaks invariants later.
    pub fn try_from_adjacency(adj: Vec<Vec<Vertex>>) -> Result<Self, String> {
        let half_edges: usize = adj.iter().map(Vec::len).sum();
        let g = DynamicGraph {
            adj,
            num_edges: half_edges / 2,
        };
        if !half_edges.is_multiple_of(2) {
            return Err("odd half-edge count: adjacency not mirrored".into());
        }
        g.validate()?;
        Ok(g)
    }

    /// Build from an edge list, sizing the vertex set to the largest id.
    pub fn from_edges_auto(edges: &[(Vertex, Vertex)]) -> Self {
        let n = edges
            .iter()
            .map(|&(u, v)| u.max(v) as usize + 1)
            .max()
            .unwrap_or(0);
        Self::from_edges(n, edges)
    }

    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    pub fn num_edges(&self) -> usize {
        self.num_edges
    }

    pub fn is_empty(&self) -> bool {
        self.num_edges == 0
    }

    /// Append an isolated vertex, returning its id.
    pub fn add_vertex(&mut self) -> Vertex {
        self.adj.push(Vec::new());
        (self.adj.len() - 1) as Vertex
    }

    /// Grow the vertex set so ids `0..n` are all valid.
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.adj.len() {
            self.adj.resize(n, Vec::new());
        }
    }

    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.adj[v as usize].len()
    }

    /// Sorted neighbour slice of `v`.
    #[inline]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        &self.adj[v as usize]
    }

    #[inline]
    /// Resident bytes of the adjacency lists (list headers plus their
    /// allocated capacity).
    pub fn resident_bytes(&self) -> usize {
        self.adj.capacity() * std::mem::size_of::<Vec<Vertex>>()
            + self.adj.iter().map(|l| l.capacity() * 4).sum::<usize>()
    }

    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        let (a, b) = if self.degree(u) <= self.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        self.adj[a as usize].binary_search(&b).is_ok()
    }

    /// Insert edge `{u, v}`. Returns `false` (graph unchanged) for
    /// self-loops and already-present edges — such updates are *invalid*
    /// in the paper's terminology and ignored.
    pub fn insert_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        if u == v {
            return false;
        }
        let max = u.max(v) as usize;
        assert!(max < self.adj.len(), "vertex {max} out of bounds");
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(iu) => {
                // Second search cannot fail symmetry: lists are mirrored.
                let iv = self.adj[v as usize].binary_search(&u).unwrap_err();
                self.adj[u as usize].insert(iu, v);
                self.adj[v as usize].insert(iv, u);
                self.num_edges += 1;
                true
            }
        }
    }

    /// Remove edge `{u, v}`. Returns `false` if absent.
    pub fn remove_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        if u == v {
            return false;
        }
        match self.adj[u as usize].binary_search(&v) {
            Err(_) => false,
            Ok(iu) => {
                let iv = self.adj[v as usize].binary_search(&u).unwrap();
                self.adj[u as usize].remove(iu);
                self.adj[v as usize].remove(iv);
                self.num_edges -= 1;
                true
            }
        }
    }

    /// Apply every update of a batch in order, growing the vertex set if
    /// an update mentions an unseen vertex. Returns the number of
    /// updates that changed the graph.
    pub fn apply_batch(&mut self, batch: &Batch) -> usize {
        let mut applied = 0;
        for u in batch.updates() {
            let (a, b) = u.endpoints();
            self.ensure_vertices(a.max(b) as usize + 1);
            let changed = match u {
                Update::Insert(..) => self.insert_edge(a, b),
                Update::Delete(..) => self.remove_edge(a, b),
            };
            applied += usize::from(changed);
        }
        applied
    }

    /// All edges as canonical `(u, v)` pairs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.adj.iter().enumerate().flat_map(|(u, nbrs)| {
            let u = u as Vertex;
            nbrs.iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    pub fn max_degree(&self) -> usize {
        self.adj.iter().map(Vec::len).max().unwrap_or(0)
    }

    pub fn avg_degree(&self) -> f64 {
        if self.adj.is_empty() {
            0.0
        } else {
            2.0 * self.num_edges as f64 / self.adj.len() as f64
        }
    }

    /// Vertex ids sorted by decreasing degree (ties broken by id), the
    /// ordering used for landmark selection and PLL ranking.
    pub fn vertices_by_degree(&self) -> Vec<Vertex> {
        let mut order: Vec<Vertex> = (0..self.num_vertices() as Vertex).collect();
        order.sort_by_key(|&v| (std::cmp::Reverse(self.degree(v)), v));
        order
    }

    /// Internal consistency check used by tests and debug assertions:
    /// sorted, mirrored, loop-free adjacency and an accurate edge count.
    pub fn validate(&self) -> Result<(), String> {
        let mut half_edges = 0usize;
        for (u, nbrs) in self.adj.iter().enumerate() {
            if !nbrs.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of {u} not strictly sorted"));
            }
            for &v in nbrs {
                if v as usize == u {
                    return Err(format!("self-loop at {u}"));
                }
                if (v as usize) >= self.adj.len() {
                    return Err(format!("dangling neighbour {v} of {u}"));
                }
                if self.adj[v as usize].binary_search(&(u as Vertex)).is_err() {
                    return Err(format!("edge ({u},{v}) not mirrored"));
                }
            }
            half_edges += nbrs.len();
        }
        if half_edges != 2 * self.num_edges {
            return Err(format!(
                "edge count {} inconsistent with {} half-edges",
                self.num_edges, half_edges
            ));
        }
        Ok(())
    }
}

impl AdjacencyView for DynamicGraph {
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn out_neighbors(&self, v: Vertex) -> &[Vertex] {
        self.neighbors(v)
    }

    #[inline]
    fn in_neighbors(&self, v: Vertex) -> &[Vertex] {
        self.neighbors(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_roundtrip() {
        let mut g = DynamicGraph::new(5);
        assert!(g.insert_edge(0, 1));
        assert!(g.insert_edge(1, 2));
        assert!(!g.insert_edge(0, 1), "duplicate insert is invalid");
        assert!(!g.insert_edge(1, 0), "reversed duplicate is invalid");
        assert!(!g.insert_edge(3, 3), "self-loop is invalid");
        assert_eq!(g.num_edges(), 2);
        assert!(g.has_edge(1, 0));
        assert!(g.remove_edge(0, 1));
        assert!(!g.remove_edge(0, 1));
        assert_eq!(g.num_edges(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn neighbors_stay_sorted() {
        let mut g = DynamicGraph::new(10);
        for v in [5u32, 2, 9, 1, 7] {
            g.insert_edge(0, v);
        }
        assert_eq!(g.neighbors(0), &[1, 2, 5, 7, 9]);
        g.remove_edge(0, 5);
        assert_eq!(g.neighbors(0), &[1, 2, 7, 9]);
        g.validate().unwrap();
    }

    #[test]
    fn from_edges_dedups() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 0), (1, 2), (2, 2), (0, 1)]);
        assert_eq!(g.num_edges(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn from_edges_auto_sizes() {
        let g = DynamicGraph::from_edges_auto(&[(0, 7), (3, 2)]);
        assert_eq!(g.num_vertices(), 8);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn edges_iterator_is_canonical() {
        let g = DynamicGraph::from_edges(4, &[(2, 1), (0, 3), (1, 0)]);
        let mut es: Vec<_> = g.edges().collect();
        es.sort_unstable();
        assert_eq!(es, vec![(0, 1), (0, 3), (1, 2)]);
    }

    #[test]
    fn degree_statistics() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.max_degree(), 3);
        assert!((g.avg_degree() - 1.5).abs() < 1e-12);
        assert_eq!(g.vertices_by_degree()[0], 0);
    }

    #[test]
    fn add_vertex_and_grow() {
        let mut g = DynamicGraph::new(2);
        let v = g.add_vertex();
        assert_eq!(v, 2);
        g.ensure_vertices(10);
        assert_eq!(g.num_vertices(), 10);
        assert!(g.insert_edge(9, 0));
        g.validate().unwrap();
    }

    #[test]
    fn apply_batch_counts_valid_updates() {
        let mut g = DynamicGraph::new(3);
        let batch = Batch::from_updates(vec![
            Update::Insert(0, 1),
            Update::Insert(0, 1), // duplicate: invalid
            Update::Delete(1, 2), // absent: invalid
            Update::Insert(1, 2),
            Update::Delete(0, 1),
        ]);
        assert_eq!(g.apply_batch(&batch), 3);
        assert_eq!(g.num_edges(), 1);
        assert!(g.has_edge(1, 2));
    }

    #[test]
    fn apply_batch_grows_vertex_set() {
        let mut g = DynamicGraph::new(1);
        let batch = Batch::from_updates(vec![Update::Insert(0, 5)]);
        g.apply_batch(&batch);
        assert_eq!(g.num_vertices(), 6);
        assert!(g.has_edge(0, 5));
    }
}
