//! Brute-force reference implementations.
//!
//! These are *independent* of the production code paths (they use plain
//! BFS distance matrices and the textbook definitions, not the flagged
//! BFS or the repair machinery), so agreement is meaningful evidence of
//! correctness. They are exercised by the unit, integration and property
//! test suites of every crate in the workspace; complexity is
//! `O(|R| · |E|)` or worse, so keep inputs small.

use crate::labelling::{Labelling, NO_LABEL};
use batchhl_common::{Dist, Vertex, INF};
use batchhl_graph::bfs::bfs_distances;
use batchhl_graph::AdjacencyView;

/// All-pairs BFS distance matrix (rows = sources, following out-edges).
pub fn all_pairs_bfs<A: AdjacencyView>(g: &A) -> Vec<Vec<Dist>> {
    (0..g.num_vertices() as Vertex)
        .map(|s| bfs_distances(g, s))
        .collect()
}

/// The unique minimal highway cover labelling, built from first
/// principles: label `(r_i, d)` exists iff `d = d_G(r_i, v)` is finite,
/// `v` is not a landmark, and **no** landmark `r_j ≠ r_i` satisfies
/// `d_G(r_i, r_j) + d_G(r_j, v) = d_G(r_i, v)` (i.e. no shortest path is
/// covered by another landmark; `r_j = v` covers the terminal-landmark
/// convention automatically).
pub fn minimal_labelling_bruteforce<A: AdjacencyView>(g: &A, landmarks: Vec<Vertex>) -> Labelling {
    let n = g.num_vertices();
    let dists: Vec<Vec<Dist>> = landmarks.iter().map(|&r| bfs_distances(g, r)).collect();
    let r = landmarks.len();
    let mut highway = vec![INF; r * r];
    let mut rows = vec![vec![NO_LABEL; n].into_boxed_slice(); r];
    for (i, row) in dists.iter().enumerate() {
        for (j, &lj) in landmarks.iter().enumerate() {
            highway[i * r + j] = row[lj as usize];
        }
    }
    for i in 0..r {
        for v in 0..n as Vertex {
            let d = dists[i][v as usize];
            if landmarks.contains(&v) || d == INF {
                continue;
            }
            let covered = (0..r).any(|j| {
                j != i && {
                    let via = dists[i][landmarks[j] as usize] as u64 + dists[j][v as usize] as u64;
                    via == d as u64
                }
            });
            if !covered {
                rows[i][v as usize] = d;
            }
        }
    }
    Labelling::from_parts(n, landmarks, rows, highway).expect("invalid landmark set")
}

/// Check the highway cover property (Definition 3.3) plus minimality:
/// `Γ` must equal the brute-force minimal labelling on its landmark set.
/// Returns a human-readable mismatch description.
pub fn check_minimal<A: AdjacencyView>(g: &A, lab: &Labelling) -> Result<(), String> {
    let want = minimal_labelling_bruteforce(g, lab.landmarks().to_vec());
    first_difference(lab, &want)
}

/// `Ok` when `lab` equals `want`; otherwise the first differing highway
/// entry or label, for debuggability.
pub fn first_difference(lab: &Labelling, want: &Labelling) -> Result<(), String> {
    if lab == want {
        return Ok(());
    }
    let r = lab.num_landmarks();
    for i in 0..r {
        for j in 0..r {
            if lab.highway(i, j) != want.highway(i, j) {
                return Err(format!(
                    "highway({i},{j}) = {} want {}",
                    lab.highway(i, j),
                    want.highway(i, j)
                ));
            }
        }
    }
    for i in 0..r {
        for v in 0..lab.num_vertices() as Vertex {
            if lab.label(i, v) != want.label(i, v) {
                return Err(format!(
                    "label(r{i}={}, v={v}) = {:?} want {:?}",
                    lab.landmark_vertex(i),
                    lab.label(i, v),
                    want.label(i, v)
                ));
            }
        }
    }
    Err("labellings differ in vertex count".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_graph::generators::{cycle, path};
    use batchhl_graph::DynamicGraph;

    #[test]
    fn all_pairs_on_cycle() {
        let g = cycle(6);
        let d = all_pairs_bfs(&g);
        assert_eq!(d[0][3], 3);
        assert_eq!(d[0][5], 1);
        assert_eq!(d[2][5], 3);
    }

    #[test]
    fn bruteforce_labelling_basics() {
        let g = path(5);
        let lab = minimal_labelling_bruteforce(&g, vec![0, 2]);
        assert_eq!(lab.label(0, 1), 1);
        assert_eq!(lab.label(0, 3), super::super::NO_LABEL);
        assert_eq!(lab.highway(0, 1), 2);
    }

    #[test]
    fn check_minimal_detects_tampering() {
        let g = path(5);
        let mut lab = minimal_labelling_bruteforce(&g, vec![0, 2]);
        assert!(check_minimal(&g, &lab).is_ok());
        lab.set_label(0, 3, 3); // redundant entry: breaks minimality
        let err = check_minimal(&g, &lab).unwrap_err();
        assert!(err.contains("label"), "got: {err}");
    }

    #[test]
    fn check_minimal_detects_wrong_highway() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let mut lab = minimal_labelling_bruteforce(&g, vec![0, 3]);
        lab.set_highway_sym(0, 1, 1);
        assert!(check_minimal(&g, &lab).unwrap_err().contains("highway"));
    }
}
