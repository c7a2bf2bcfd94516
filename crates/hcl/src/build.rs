//! Labelling construction by flagged BFS.
//!
//! One BFS per landmark `r` computes, for every vertex `v`, the pair
//! `d^L_G(r, v) = (d_G(r, v), flag)` where the flag records whether some
//! shortest `r`–`v` path passes through another landmark (Definition
//! 5.13). By Lemma 5.14 that pair determines the minimal labelling
//! directly: `v` receives the label `(r, d)` iff `d` is finite and the
//! flag is clear; landmark–landmark distances go to the highway.
//!
//! The flag propagates along BFS levels: when `v` is first reached its
//! flag is `flag(parent) | is_landmark(v)`; further same-level parents
//! OR their flags in. Level order guarantees every parent is settled
//! before `v` is expanded, so flags are final when read.
//!
//! `O(|R| · (|V| + |E|))` total — the paper's construction bound — and
//! embarrassingly parallel over landmarks ([`build_labelling_parallel`]).

use crate::labelling::{index_landmarks, LabelError, Labelling, NO_LABEL};
use batchhl_common::{Dist, Vertex, INF};
use batchhl_graph::AdjacencyView;
use std::collections::VecDeque;

const NOT_LANDMARK: u16 = u16::MAX;

/// Reusable scratch for one flagged BFS.
struct Scratch {
    dist: Vec<Dist>,
    flag: Vec<bool>,
    touched: Vec<Vertex>,
    queue: VecDeque<Vertex>,
}

impl Scratch {
    fn new(n: usize) -> Self {
        Scratch {
            dist: vec![INF; n],
            flag: vec![false; n],
            touched: Vec::new(),
            queue: VecDeque::new(),
        }
    }

    fn reset(&mut self) {
        for &v in &self.touched {
            self.dist[v as usize] = INF;
            self.flag[v as usize] = false;
        }
        self.touched.clear();
        self.queue.clear();
    }
}

/// Run the flagged BFS for landmark `i` rooted at `root`, writing the
/// label row and the highway row.
fn flagged_bfs<A: AdjacencyView>(
    g: &A,
    i: usize,
    root: Vertex,
    lm_index: &[u16],
    label_row: &mut [Dist],
    highway_row: &mut [Dist],
    scratch: &mut Scratch,
) {
    label_row.fill(NO_LABEL);
    highway_row.fill(INF);
    highway_row[i] = 0;
    scratch.reset();

    scratch.dist[root as usize] = 0;
    scratch.touched.push(root);
    scratch.queue.push_back(root);
    while let Some(v) = scratch.queue.pop_front() {
        let dv = scratch.dist[v as usize];
        let fv = scratch.flag[v as usize];
        for &w in g.out_neighbors(v) {
            let wi = w as usize;
            if scratch.dist[wi] == INF {
                scratch.dist[wi] = dv + 1;
                scratch.flag[wi] = fv | (lm_index[wi] != NOT_LANDMARK);
                scratch.touched.push(w);
                scratch.queue.push_back(w);
            } else if scratch.dist[wi] == dv + 1 {
                // Another shortest path into w: OR the flag in.
                scratch.flag[wi] |= fv;
            }
        }
    }

    for &v in &scratch.touched {
        if v == root {
            continue;
        }
        let vi = v as usize;
        let lm = lm_index[vi];
        if lm != NOT_LANDMARK {
            highway_row[lm as usize] = scratch.dist[vi];
        } else if !scratch.flag[vi] {
            label_row[vi] = scratch.dist[vi];
        }
    }
}

/// Dense landmark-major scratch rows for construction: one label row
/// and one highway row per landmark, which the flagged BFSs fill
/// (threads own disjoint rows) before they are packed once and dropped.
struct DenseRows {
    n: usize,
    landmarks: Vec<Vertex>,
    lm_index: Vec<u16>,
    labels: Vec<Box<[Dist]>>,
    highway: Vec<Dist>,
}

impl DenseRows {
    fn new(n: usize, landmarks: Vec<Vertex>) -> Result<Self, LabelError> {
        let lm_index = index_landmarks(n, &landmarks)?;
        let r = landmarks.len();
        Ok(DenseRows {
            n,
            labels: vec![vec![NO_LABEL; n].into_boxed_slice(); r],
            highway: vec![INF; r * r],
            landmarks,
            lm_index,
        })
    }

    /// `(landmark index, label row, highway row)` for every landmark.
    fn rows_mut(&mut self) -> impl Iterator<Item = (usize, &mut [Dist], &mut [Dist])> {
        let r = self.landmarks.len().max(1);
        self.labels
            .iter_mut()
            .zip(self.highway.chunks_mut(r))
            .enumerate()
            .map(|(i, (label, highway))| (i, &mut label[..], highway))
    }

    fn pack(self) -> Result<Labelling, LabelError> {
        Labelling::from_parts(self.n, self.landmarks, self.labels, self.highway)
    }
}

/// Build the minimal highway cover labelling for `g` over `landmarks`.
///
/// Fails with [`LabelError`] when the landmark set is invalid (out of
/// range, duplicated, or too large).
pub fn build_labelling<A: AdjacencyView>(
    g: &A,
    landmarks: Vec<Vertex>,
) -> Result<Labelling, LabelError> {
    let mut dense = DenseRows::new(g.num_vertices(), landmarks)?;
    let (lms, lm_index) = (dense.landmarks.clone(), dense.lm_index.clone());
    let mut scratch = Scratch::new(dense.n);
    for (i, label_row, highway_row) in dense.rows_mut() {
        flagged_bfs(
            g,
            i,
            lms[i],
            &lm_index,
            label_row,
            highway_row,
            &mut scratch,
        );
    }
    dense.pack()
}

/// Parallel construction: landmarks are distributed over `threads` OS
/// threads, each owning disjoint label/highway rows (no locks).
///
/// Fails with [`LabelError`] when the landmark set is invalid.
pub fn build_labelling_parallel<A: AdjacencyView + Sync>(
    g: &A,
    landmarks: Vec<Vertex>,
    threads: usize,
) -> Result<Labelling, LabelError> {
    let threads = threads.max(1);
    if threads == 1 || landmarks.len() <= 1 {
        return build_labelling(g, landmarks);
    }
    let mut dense = DenseRows::new(g.num_vertices(), landmarks)?;
    let (n, lms, lm_index) = (dense.n, dense.landmarks.clone(), dense.lm_index.clone());
    {
        let mut work: Vec<_> = dense.rows_mut().collect();
        let per = work.len().div_ceil(threads);
        std::thread::scope(|s| {
            while !work.is_empty() {
                let take = per.min(work.len());
                let chunk: Vec<_> = work.drain(..take).collect();
                let (lm_index, lms) = (&lm_index, &lms);
                s.spawn(move || {
                    let mut scratch = Scratch::new(n);
                    for (i, label_row, highway_row) in chunk {
                        flagged_bfs(g, i, lms[i], lm_index, label_row, highway_row, &mut scratch);
                    }
                });
            }
        });
    }
    dense.pack()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle;
    use batchhl_graph::generators::{barabasi_albert, erdos_renyi_gnm, path, star};
    use batchhl_graph::DynamicGraph;

    #[test]
    fn path_with_one_landmark() {
        let g = path(5);
        let lab = build_labelling(&g, vec![0]).unwrap();
        for v in 1..5u32 {
            assert_eq!(lab.label(0, v), v, "label of {v}");
        }
        assert_eq!(lab.label(0, 0), NO_LABEL, "no self label");
        assert_eq!(lab.size_entries(), 4);
    }

    #[test]
    fn path_with_middle_landmark_prunes() {
        // 0-1-2-3-4 with landmarks {0, 2}: vertices 3, 4 are covered via
        // landmark 2 on every shortest path from 0, so they carry no
        // 0-label; vertex 1 keeps labels to both.
        let g = path(5);
        let lab = build_labelling(&g, vec![0, 2]).unwrap();
        assert_eq!(lab.label(0, 1), 1);
        assert_eq!(lab.label(1, 1), 1);
        assert_eq!(lab.label(0, 3), NO_LABEL);
        assert_eq!(lab.label(0, 4), NO_LABEL);
        assert_eq!(lab.label(1, 3), 1);
        assert_eq!(lab.label(1, 4), 2);
        assert_eq!(lab.highway(0, 1), 2);
        assert_eq!(lab.highway(1, 0), 2);
    }

    #[test]
    fn equal_length_path_through_landmark_prunes_label() {
        // Diamond: 0-1-3, 0-2-3. Landmarks {0, 1}: vertex 3 has a
        // shortest path through landmark 1, so no 0-label even though
        // another shortest path (via 2) avoids landmarks.
        let g = DynamicGraph::from_edges(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let lab = build_labelling(&g, vec![0, 1]).unwrap();
        assert_eq!(lab.label(0, 3), NO_LABEL);
        assert_eq!(lab.label(1, 3), 1);
        assert_eq!(lab.label(0, 2), 1);
    }

    #[test]
    fn disconnected_vertices_get_no_labels() {
        let g = DynamicGraph::from_edges(4, &[(0, 1)]);
        let lab = build_labelling(&g, vec![0]).unwrap();
        assert_eq!(lab.label(0, 2), NO_LABEL);
        assert_eq!(lab.label(0, 3), NO_LABEL);
        assert_eq!(lab.landmark_to_vertex(0, 2), INF);
    }

    #[test]
    fn matches_bruteforce_oracle_on_classics() {
        for (g, k) in [
            (path(9), 3),
            (star(12), 2),
            (batchhl_graph::generators::cycle(10), 3),
            (batchhl_graph::generators::complete(6), 2),
            (batchhl_graph::generators::grid(4, 4), 4),
        ] {
            let lms = crate::LandmarkSelection::TopDegree(k).select(&g);
            let built = build_labelling(&g, lms.clone()).unwrap();
            let want = oracle::minimal_labelling_bruteforce(&g, lms);
            assert_eq!(built, want);
        }
    }

    #[test]
    fn matches_bruteforce_oracle_on_random_graphs() {
        for seed in 0..8 {
            let g = erdos_renyi_gnm(60, 120, seed);
            let lms = crate::LandmarkSelection::TopDegree(5).select(&g);
            let built = build_labelling(&g, lms.clone()).unwrap();
            let want = oracle::minimal_labelling_bruteforce(&g, lms);
            assert_eq!(built, want, "seed {seed}");
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let g = barabasi_albert(400, 3, 7);
        let lms = crate::LandmarkSelection::TopDegree(8).select(&g);
        let seq = build_labelling(&g, lms.clone()).unwrap();
        for threads in [1, 2, 3, 8] {
            let par = build_labelling_parallel(&g, lms.clone(), threads).unwrap();
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn highway_is_symmetric_on_undirected() {
        let g = barabasi_albert(200, 3, 9);
        let lab = build_labelling(&g, crate::LandmarkSelection::TopDegree(6).select(&g)).unwrap();
        for i in 0..6 {
            for j in 0..6 {
                assert_eq!(lab.highway(i, j), lab.highway(j, i));
            }
        }
    }
}
