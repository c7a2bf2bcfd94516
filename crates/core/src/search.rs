//! Batch search (Algorithms 2 and 3): find the affected vertices.
//!
//! The "shared pattern" of Section 5.1 unifies insertions and deletions:
//! a vertex `v` is affected w.r.t. landmark `r` iff some shortest path
//! between them in `G ∪ G′` crosses an updated edge, and every such path
//! can be traced on `G′` from the update's *anchor* (the endpoint
//! farther from `r`) with starting distance `d_G(r, pre-anchor) + len`.
//! So one Dijkstra-like pass runs over the anchors of the whole batch,
//! never expanding a vertex twice — the batch-level saving of Figure 2 —
//! with edge weights as lengths on Section 6's weighted graphs.
//!
//! Keys are *extended landmark lengths* `(d, l, e)` (Definition 5.16),
//! popped in lexicographic order with `True < False` on both flags:
//! among equal-length paths, landmark-covered and deletion-carrying ones
//! first, so a vertex is finalized with the strongest evidence (Lemma
//! 5.18's proof relies on this). A path into `w` is admitted by:
//!
//! * **basic** (Algorithm 2): `d ≤ d_G(r, w)`, giving the
//!   *composite-path-affected* vertices (Definition 5.7, Lemma 5.8), a
//!   superset of the truly affected ones;
//! * **improved** (Algorithm 3): the β test of Lemma 5.17, `(d, l, e) ≤
//!   β(r, w) = (d^L_G(r, w), True)`, since repair only needs the vertices
//!   whose *label or landmark distance* changes (Definition 5.12). An
//!   insertion-only path survives iff its landmark length is *strictly*
//!   smaller than the old one, a deletion-carrying path iff it is `≤` —
//!   the two pruning conditions of Section 5.2.
//!
//! The paper's pseudocode omits the test for the initial anchor pushes,
//! but its worked example 5.9(a) requires it, so the same test applies
//! there too (pruning at every push). Example 5.9(c) (deleting one of two
//! equal-landmark-length shortest paths) is *not* prunable by the β test
//! alone: detecting that the surviving path makes the deleted one
//! redundant would require reading neighbour distances that other updates
//! in the same batch may have invalidated. We keep the conservative
//! superset — Theorem 5.21 only needs `V_aff ⊇` LD-affected, and repair
//! leaves such labels unchanged.

use crate::metric::{Metric, Seed};
use crate::workspace::{dl_old, UpdateWorkspace};
use batchhl_common::{ExtLandmarkLength, LandmarkLength, MonotoneQueue};
use batchhl_hcl::Labelling;

/// Run batch search for landmark `i` over the *old* labelling `lab`
/// (the `d^L_G(r, ·)` oracle) and the *new* graph `g` (`G′`), from the
/// batch's `seeds`. `improved` selects the β test (Algorithm 3) over the
/// basic distance test (Algorithm 2).
///
/// On return `ws.aff` holds `V_aff`; the caller passes it straight to
/// batch repair. `ws.dl_cache` retains the old-distance memo that
/// repair's boundary initialization reuses.
pub fn batch_search<M: Metric>(
    lab: &Labelling,
    g: &M,
    seeds: &[Seed],
    i: usize,
    improved: bool,
    ws: &mut UpdateWorkspace<M::Queue>,
) {
    ws.aff.clear();
    ws.queue.clear();
    let admits = |cand: ExtLandmarkLength, old: LandmarkLength| {
        !cand.landmark_length().is_infinite()
            && if improved {
                cand <= old.with_deleted(true)
            } else {
                cand.dist() <= old.dist()
            }
    };

    // Seed the queue with anchors. Updates with equidistant endpoints
    // are trivial w.r.t. r (Lemma 5.2) and fail the test.
    for s in seeds {
        let tail = dl_old(lab, i, s.tail, &mut ws.dl_cache);
        let head = dl_old(lab, i, s.head, &mut ws.dl_cache);
        let cand = tail
            .extend_by(s.len, lab.is_landmark(s.head))
            .with_deleted(s.deleted);
        if admits(cand, head) {
            ws.queue.push(cand, s.head);
        }
    }

    // Pruned traversal.
    while let Some((key, v)) = ws.queue.pop() {
        if !ws.aff.insert(v) {
            continue;
        }
        for (w, len) in g.out_edges(v) {
            let cand = key.extend_by(len, lab.is_landmark(w));
            if admits(cand, dl_old(lab, i, w, &mut ws.dl_cache)) {
                ws.queue.push(cand, w);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_common::Vertex;
    use batchhl_graph::generators::{erdos_renyi_gnm, path};
    use batchhl_graph::{Batch, DynamicGraph, Update};
    use batchhl_hcl::{build_labelling, LandmarkSelection};
    use std::collections::BTreeSet;

    /// Apply a batch and return (old labelling, new graph, normalized
    /// updates).
    fn setup(
        g0: &DynamicGraph,
        landmarks: Vec<Vertex>,
        batch: Batch,
    ) -> (Labelling, DynamicGraph, Batch) {
        let lab = build_labelling(g0, landmarks).unwrap();
        let norm = batch.normalize(g0);
        let mut g1 = g0.clone();
        g1.apply_batch(&norm);
        (lab, g1, norm)
    }

    /// The affected set of landmark `i`, ascending.
    fn search(
        g1: &DynamicGraph,
        lab: &Labelling,
        b: &Batch,
        i: usize,
        improved: bool,
    ) -> Vec<Vertex> {
        let mut ws = UpdateWorkspace::new(g1.num_vertices());
        batch_search(
            lab,
            g1,
            &Seed::undirected(b.updates()),
            i,
            improved,
            &mut ws,
        );
        let mut v: Vec<Vertex> = ws.aff.iter().collect();
        v.sort_unstable();
        v
    }

    fn affected(lab: &Labelling, g1: &DynamicGraph, batch: &Batch, i: usize) -> Vec<Vertex> {
        search(g1, lab, batch, i, false)
    }

    fn affected_improved(lab: &Labelling, g1: &DynamicGraph, b: &Batch, i: usize) -> Vec<Vertex> {
        search(g1, lab, b, i, true)
    }

    #[test]
    fn figure3_worked_example() {
        // Figure 3(a), reconstructed from its distance table
        // d_G(r,·) = a:1 b:3 c:2 d:3 e:4 f:5 g:6, with updates
        // +(a,b), +(d,e), -(a,c), -(b,e).
        let mut g0 = DynamicGraph::new(8);
        let (r, a, b, c, d, e, f, gg) = (0u32, 1u32, 2u32, 3u32, 4u32, 5u32, 6u32, 7u32);
        for &(x, y) in &[(r, a), (a, c), (c, b), (c, d), (b, e), (e, f), (f, gg)] {
            g0.insert_edge(x, y);
        }
        // Old distances: a=1, c=2, b=3, d=3, e=4, f=5, g=6 — matches the
        // paper's table.
        let mut batch = Batch::new();
        batch.insert(a, b);
        batch.insert(d, e);
        batch.delete(a, c);
        batch.delete(b, e);
        let (lab, g1, norm) = setup(&g0, vec![r], batch);
        let aff = affected(&lab, &g1, &norm, 0);
        // Example 5.4: the affected set is {b, c, d, e, f, g}.
        assert_eq!(aff, vec![b, c, d, e, f, gg]);
    }

    #[test]
    fn trivial_update_affects_nothing() {
        // Cycle 0-1-2-3: inserting the chord (1, 3) with d(r,1) = d(r,3)
        // = 1 w.r.t. r = 0 is trivial (Lemma 5.2).
        let g0 = batchhl_graph::generators::cycle(4);
        let mut batch = Batch::new();
        batch.insert(1, 3);
        let (lab, g1, norm) = setup(&g0, vec![0], batch);
        assert!(affected(&lab, &g1, &norm, 0).is_empty());
    }

    #[test]
    fn insertion_affects_downstream_and_equal_length_rewires() {
        // Path 0-1-2-3-4, landmark 0; insert (0, 3): 3 and 4 get
        // closer, and 2 gains a *new* shortest path 0-3-2 of the same
        // length — affected per Definition 5.1. Vertex 1 is untouched.
        let g0 = path(5);
        let mut batch = Batch::new();
        batch.insert(0, 3);
        let (lab, g1, norm) = setup(&g0, vec![0], batch);
        assert_eq!(affected(&lab, &g1, &norm, 0), vec![2, 3, 4]);
    }

    #[test]
    fn deletion_affects_cut_off_suffix() {
        // Path 0-1-2-3-4, landmark 0; delete (1, 2): 2, 3, 4 lose their
        // paths.
        let g0 = path(5);
        let mut batch = Batch::new();
        batch.delete(1, 2);
        let (lab, g1, norm) = setup(&g0, vec![0], batch);
        assert_eq!(affected(&lab, &g1, &norm, 0), vec![2, 3, 4]);
    }

    #[test]
    fn batch_visits_shared_suffix_once_but_counts_it() {
        // Example 5.3 shape: two updates whose affected regions overlap;
        // the search returns the union without duplicates.
        let g0 = path(7);
        let mut batch = Batch::new();
        batch.insert(0, 2); // shortens 2..6
        batch.insert(0, 3); // shortens 3..6 further
        let (lab, g1, norm) = setup(&g0, vec![0], batch);
        let aff = affected(&lab, &g1, &norm, 0);
        assert_eq!(aff, vec![2, 3, 4, 5, 6]);
    }

    #[test]
    fn directed_mode_only_anchors_heads() {
        use batchhl_graph::DynamicDiGraph;
        // Arc path 0→1→2→3; landmark 0. The new arc 2→0 seeds only its
        // head 0, which d(0→2) + 1 cannot reach: it shortens no path
        // *from* 0, so nothing is affected.
        let g0 = DynamicDiGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let lab = build_labelling(&g0, vec![0]).unwrap();
        let mut g1 = g0.clone();
        g1.insert_edge(2, 0);
        let mut ws = UpdateWorkspace::new(4);
        let arc = |u: Update| [Seed::unit(&u)];
        batch_search(&lab, &g1, &arc(Update::Insert(2, 0)), 0, false, &mut ws);
        assert_eq!(ws.aff.iter().count(), 0);
        // But inserting 0→3 does affect 3 (2 → 1).
        let mut g2 = g0.clone();
        g2.insert_edge(0, 3);
        batch_search(&lab, &g2, &arc(Update::Insert(0, 3)), 0, false, &mut ws);
        let aff: Vec<Vertex> = ws.aff.iter().collect();
        assert_eq!(aff, vec![3]);
    }

    #[test]
    fn unreachable_vertices_become_affected_on_connection() {
        let g0 = DynamicGraph::from_edges(5, &[(0, 1), (2, 3), (3, 4)]);
        let mut batch = Batch::new();
        batch.insert(1, 2);
        let (lab, g1, norm) = setup(&g0, vec![0], batch);
        // The whole far component gains finite distances.
        assert_eq!(affected(&lab, &g1, &norm, 0), vec![2, 3, 4]);
    }

    #[test]
    fn example_5_9a_insertion_with_equal_path_is_pruned() {
        // Example 5.9(a): r-a, r-b, a-v; insert (b, v). The new path
        // r-b-v has the same landmark length (2, False) as the existing
        // r-a-v, so v's label does not change — improved search prunes
        // it; basic search would return it.
        let (r, a, b, v) = (0u32, 1u32, 2u32, 3u32);
        let g0 = DynamicGraph::from_edges(4, &[(r, a), (r, b), (a, v)]);
        let mut batch = Batch::new();
        batch.insert(b, v);
        let (lab, g1, norm) = setup(&g0, vec![r], batch);
        assert!(affected_improved(&lab, &g1, &norm, 0).is_empty());

        assert_eq!(affected(&lab, &g1, &norm, 0), vec![v]);
    }

    #[test]
    fn example_5_9b_insertion_creating_landmark_cover_is_kept() {
        // Example 5.9(b): same shape but b is a landmark: the new path
        // r-b-v passes through landmark b, so its landmark length
        // (2, True) < (2, False) — v's r-label must be deleted, and the
        // improved search returns v.
        let (r, a, b, v) = (0u32, 1u32, 2u32, 3u32);
        let g0 = DynamicGraph::from_edges(4, &[(r, a), (r, b), (a, v)]);
        let mut batch = Batch::new();
        batch.insert(b, v);
        let (lab, g1, norm) = setup(&g0, vec![r, b], batch);
        assert_eq!(affected_improved(&lab, &g1, &norm, 0), vec![v]);
    }

    #[test]
    fn example_5_9c_deletion_of_redundant_path_is_pruned() {
        // Example 5.9(c): r-a, r-b, a-v, b-v; delete (b, v). The paper
        // does not return v: r-a-v keeps its label. But the anchor push
        // (d^L(r,b) ⊕ v, e=True) = (2, False, True) equals β(r, v), so v
        // is returned — a conservative superset; repair then leaves the
        // label unchanged. We pin the conservative behaviour here.
        let (r, a, b, v) = (0u32, 1u32, 2u32, 3u32);
        let g0 = DynamicGraph::from_edges(4, &[(r, a), (r, b), (a, v), (b, v)]);
        let mut batch = Batch::new();
        batch.delete(b, v);
        let (lab, g1, norm) = setup(&g0, vec![r], batch);
        assert_eq!(affected_improved(&lab, &g1, &norm, 0), vec![v]);
    }

    #[test]
    fn example_5_9d_deletion_removing_landmark_cover_is_kept() {
        // Example 5.9(d): b is a landmark, delete (b, v): the deleted
        // path was the landmark-covered one; v's r-label must be
        // restored. Improved search returns v.
        let (r, a, b, v) = (0u32, 1u32, 2u32, 3u32);
        let g0 = DynamicGraph::from_edges(4, &[(r, a), (r, b), (a, v), (b, v)]);
        let mut batch = Batch::new();
        batch.delete(b, v);
        let (lab, g1, norm) = setup(&g0, vec![r, b], batch);
        assert_eq!(affected_improved(&lab, &g1, &norm, 0), vec![v]);
    }

    #[test]
    fn improved_is_subset_of_basic() {
        for seed in 0..10 {
            let g0 = erdos_renyi_gnm(60, 140, seed);
            let lms = LandmarkSelection::TopDegree(4).select(&g0);
            let lab = build_labelling(&g0, lms).unwrap();
            let mut batch = Batch::new();
            // Mixed batch derived from the seed.
            for k in 0..10u32 {
                let a = (seed as u32 * 7 + k * 13) % 60;
                let b = (seed as u32 * 11 + k * 17) % 60;
                if a != b {
                    if g0.has_edge(a, b) {
                        batch.delete(a, b);
                    } else {
                        batch.insert(a, b);
                    }
                }
            }
            let norm = batch.normalize(&g0);
            let mut g1 = g0.clone();
            g1.apply_batch(&norm);
            for i in 0..lab.num_landmarks() {
                let basic: BTreeSet<Vertex> = affected(&lab, &g1, &norm, i).into_iter().collect();
                let improved: BTreeSet<Vertex> =
                    affected_improved(&lab, &g1, &norm, i).into_iter().collect();
                assert!(
                    improved.is_subset(&basic),
                    "seed {seed} landmark {i}: improved ⊄ basic"
                );
            }
        }
    }

    #[test]
    fn example_5_22_affected_sets() {
        // The paper's full worked example (Example 5.22) cannot be
        // replayed literally: its labelling table is garbled in the
        // text. Check its stable claim, improved ⊆ basic, on a
        // perturbation of a two-landmark graph instead (repair to
        // minimality is covered by the index-level tests).
        let g0 = erdos_renyi_gnm(40, 80, 99);
        let lms = LandmarkSelection::TopDegree(2).select(&g0);
        let lab = build_labelling(&g0, lms.clone()).unwrap();
        let mut batch = Batch::new();
        batch.delete(lms[0], *g0.neighbors(lms[0]).first().unwrap());
        batch.insert(5, 23);
        let norm = batch.normalize(&g0);
        let mut g1 = g0.clone();
        g1.apply_batch(&norm);
        for i in 0..lab.num_landmarks() {
            let basic: BTreeSet<Vertex> = affected(&lab, &g1, &norm, i).into_iter().collect();
            let improved: BTreeSet<Vertex> =
                affected_improved(&lab, &g1, &norm, i).into_iter().collect();
            assert!(improved.is_subset(&basic));
        }
    }

    #[test]
    fn no_false_negatives_on_distance_changes() {
        // Every vertex whose distance to the landmark actually changes
        // must be returned (Lemma 5.18).
        use batchhl_graph::bfs::bfs_distances;
        for seed in 0..10u64 {
            let g0 = erdos_renyi_gnm(50, 100, seed);
            let lab = build_labelling(&g0, vec![0]).unwrap();
            let mut batch = Batch::new();
            for k in 0..8u32 {
                let a = (seed as u32 * 3 + k * 19) % 50;
                let b = (seed as u32 * 5 + k * 23) % 50;
                if a != b {
                    if g0.has_edge(a, b) {
                        batch.delete(a, b);
                    } else {
                        batch.insert(a, b);
                    }
                }
            }
            let norm = batch.normalize(&g0);
            let mut g1 = g0.clone();
            g1.apply_batch(&norm);
            let d0 = bfs_distances(&g0, 0);
            let d1 = bfs_distances(&g1, 0);
            let aff = affected_improved(&lab, &g1, &norm, 0);
            let aff: BTreeSet<Vertex> = aff.into_iter().collect();
            for v in 0..50u32 {
                if d0[v as usize] != d1[v as usize] {
                    assert!(
                        aff.contains(&v),
                        "seed {seed}: vertex {v} distance changed {} -> {} but not returned",
                        d0[v as usize],
                        d1[v as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn path_insertion_prunes_equal_length_rewire() {
        // Counterpart of the basic-search test: insert (0, 3) into the
        // path. Vertex 2's new path 0-3-2 has equal landmark length, so
        // the improved search prunes it; 3 and 4 truly change distance.
        let g0 = path(5);
        let mut batch = Batch::new();
        batch.insert(0, 3);
        let (lab, g1, norm) = setup(&g0, vec![0], batch);
        assert_eq!(affected_improved(&lab, &g1, &norm, 0), vec![3, 4]);
    }
}
