//! Shortest-path *reconstruction* on top of the distance index.
//!
//! The labelling answers distances; many downstream tasks (routing,
//! recommendation explanations) also want an actual path. Exact
//! distances make reconstruction a greedy descent: from `s`, repeatedly
//! step to any neighbour `u` with `d(u, t) = d(v, t) − 1` — such a
//! neighbour always exists on a shortest path. Each step costs one
//! neighbourhood scan of distance queries, so reconstruction is
//! `O(d(s,t) · deg · Q)` where `Q` is the (micro-second scale) query
//! time — fine for the occasional path, not meant for bulk extraction.

use crate::index::BatchIndex;
use batchhl_common::{Vertex, INF};

impl BatchIndex {
    /// One shortest path from `s` to `t` (inclusive); `None` if
    /// disconnected. The path has exactly `self.query(s, t)? + 1`
    /// vertices.
    pub fn query_path(&mut self, s: Vertex, t: Vertex) -> Option<Vec<Vertex>> {
        let n = self.num_vertices();
        if (s as usize) >= n || (t as usize) >= n {
            return None;
        }
        let total = self.query_dist(s, t);
        if total == INF {
            return None;
        }
        let mut path = Vec::with_capacity(total as usize + 1);
        path.push(s);
        let mut v = s;
        let mut remaining = total;
        while v != t {
            // Look ahead: some neighbour is one step closer to t.
            let nbrs = self.generation().view.list(v).to_vec();
            let mut stepped = false;
            for u in nbrs {
                if u == t {
                    path.push(u);
                    v = u;
                    stepped = true;
                    break;
                }
                if remaining >= 2 && self.query_dist(u, t) == remaining - 1 {
                    path.push(u);
                    v = u;
                    remaining -= 1;
                    stepped = true;
                    break;
                }
            }
            debug_assert!(stepped, "exact distances guarantee a descent step");
            if !stepped {
                return None; // defensive: inconsistent index
            }
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use crate::index::{Algorithm, BatchIndex, IndexConfig};
    use batchhl_graph::generators::{barabasi_albert, erdos_renyi_gnm, path as path_graph};
    use batchhl_graph::{Batch, DynamicGraph};
    use batchhl_hcl::LandmarkSelection;

    fn index(g: DynamicGraph, k: usize) -> BatchIndex {
        BatchIndex::build(
            g,
            IndexConfig {
                selection: LandmarkSelection::TopDegree(k),
                algorithm: Algorithm::BhlPlus,
                threads: 1,
                ..IndexConfig::default()
            },
        )
    }

    fn assert_valid_path(idx: &mut BatchIndex, s: u32, t: u32) {
        let d = idx.query(s, t);
        let p = idx.query_path(s, t);
        match (d, p) {
            (None, None) => {}
            (Some(d), Some(p)) => {
                assert_eq!(p.len() as u32, d + 1, "length matches distance");
                assert_eq!(p[0], s);
                assert_eq!(*p.last().unwrap(), t);
                for w in p.windows(2) {
                    assert!(
                        idx.graph().has_edge(w[0], w[1]),
                        "non-edge ({}, {}) on path",
                        w[0],
                        w[1]
                    );
                }
            }
            (d, p) => panic!("distance {d:?} but path {p:?}"),
        }
    }

    #[test]
    fn paths_on_line() {
        let mut idx = index(path_graph(8), 2);
        assert_eq!(idx.query_path(0, 4), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(idx.query_path(5, 5), Some(vec![5]));
    }

    #[test]
    fn paths_everywhere_on_random_graphs() {
        for seed in 0..3 {
            let g = erdos_renyi_gnm(60, 120, seed);
            let mut idx = index(g, 5);
            for s in (0..60).step_by(7) {
                for t in (0..60).step_by(5) {
                    assert_valid_path(&mut idx, s, t);
                }
            }
        }
    }

    #[test]
    fn paths_survive_updates() {
        let g = barabasi_albert(100, 3, 4);
        let mut idx = index(g, 6);
        let mut b = Batch::new();
        b.delete(0, 1);
        b.insert(40, 90);
        idx.apply_batch(&b);
        for (s, t) in [(0u32, 99u32), (40, 90), (13, 77)] {
            assert_valid_path(&mut idx, s, t);
        }
    }

    #[test]
    fn disconnected_has_no_path() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let mut idx = index(g, 2);
        assert_eq!(idx.query_path(0, 3), None);
        assert_eq!(idx.query_path(0, 9), None, "out of range");
    }
}
