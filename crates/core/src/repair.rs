//! Batch repair (Algorithm 4): restore correctness and minimality.
//!
//! Given the affected set `V_aff` of a landmark `r`, repair recomputes
//! the landmark distances `d^L_{G′}(r, v)` of affected vertices by a
//! Dijkstra-like sweep that starts from the *boundary*: every affected
//! vertex is seeded with its **landmark distance bound** (Definition
//! 5.19) — the best `d^L_{G′}(r, w) ⊕ v` over unaffected in-neighbours
//! `w`, whose values are still the old ones and thus readable from `Γ`.
//! Lemma 5.20 shows the minimum-bound vertex's bound is exact, so
//! finalizing in bound order and relaxing affected neighbours yields
//! exact landmark distances for the whole set, even though a vertex may
//! have been affected by many updates (each label is written once).
//! Edge lengths come from the [`Metric`]; with positive lengths the
//! Dijkstra exchange argument of Lemma 5.20 holds for weights as it does
//! for hops (Section 6).
//!
//! Finalization applies Lemma 5.14: the `r`-label of `v` is `(r, d)` iff
//! `d` is finite and the landmark flag is clear, otherwise the label is
//! removed; if `v` is itself a landmark its highway entry is updated
//! instead (landmarks never carry labels — their paths terminate in a
//! landmark, so their flag is always set). Finalization is the pass's
//! one write site: it appends to the landmark's [`RowDelta`], from which
//! the engine builds `Γ′`.
//!
//! Implementation notes: the sweep pops `(d, l)` keys in lexicographic
//! order with lazy decrease-key (a popped key that no longer matches the
//! vertex's bound is stale), so values are final at pop time. Vertices
//! whose bound never becomes finite are unreachable in `G′` and are
//! finalized with `∞` after the queue drains.

use crate::metric::Metric;
use crate::workspace::{dl_old, UpdateWorkspace};
use batchhl_common::{LandmarkLength, MonotoneQueue, Vertex, INF};
use batchhl_hcl::{Labelling, RowDelta, NO_LABEL};

/// Run Algorithm 4 for landmark `i`.
///
/// * `lab` — the *old* labelling `Γ` (read-only oracle),
/// * `g` — the updated graph `G′`,
/// * `ws.aff` — the affected set from batch search (drained in place).
///
/// Returns landmark `i`'s delta of the *new* labelling `Γ′`: one label
/// entry per affected vertex and the rewritten highway entries of row
/// `i`. Nothing else of `Γ′` depends on landmark `i`, which is what
/// makes landmark-level parallelism write-disjoint.
pub fn batch_repair<M: Metric>(
    lab: &Labelling,
    g: &M,
    i: usize,
    ws: &mut UpdateWorkspace<M::Queue>,
) -> RowDelta {
    let mut delta = RowDelta {
        labels: Vec::with_capacity(ws.aff.inserted().len()),
        highway: Vec::new(),
    };
    ws.queue.clear();
    ws.bounds.clear();

    // Boundary initialization (lines 2–3): bounds from unaffected
    // in-neighbours, whose d^L in G′ equals their (cached) value in G.
    for idx in 0..ws.aff.inserted().len() {
        let v = ws.aff.inserted()[idx];
        if !ws.aff.contains(v) {
            continue; // stale entry (removed earlier)
        }
        let v_is_lm = lab.is_landmark(v);
        let mut best = LandmarkLength::INFINITE;
        for (w, len) in g.in_edges(v) {
            if ws.aff.contains(w) {
                continue;
            }
            let cand = dl_old(lab, i, w, &mut ws.dl_cache).extend_by(len, v_is_lm);
            if cand < best {
                best = cand;
            }
        }
        ws.bounds.set(v as usize, best.key());
        if !best.is_infinite() {
            ws.queue.push(best.with_deleted(false), v);
        }
    }

    // Main sweep (lines 4–15).
    while let Some((key, v)) = ws.queue.pop() {
        if !ws.aff.contains(v) {
            continue; // already finalized
        }
        let bound = LandmarkLength::from_key(ws.bounds.get(v as usize).expect("queued ⇒ bounded"));
        if bound != key.landmark_length() {
            continue; // stale queue entry
        }
        ws.aff.remove(v);
        finalize(lab, i, v, bound, &mut delta);
        // Relax affected out-neighbours (lines 14–15).
        for (w, len) in g.out_edges(v) {
            if !ws.aff.contains(w) {
                continue;
            }
            let cand = bound.extend_by(len, lab.is_landmark(w));
            let cur = ws
                .bounds
                .get(w as usize)
                .map(LandmarkLength::from_key)
                .unwrap_or(LandmarkLength::INFINITE);
            if cand < cur {
                ws.bounds.set(w as usize, cand.key());
                if !cand.is_infinite() {
                    ws.queue.push(cand.with_deleted(false), w);
                }
            }
        }
    }

    // Unreached vertices are disconnected from r in G′.
    for idx in 0..ws.aff.inserted().len() {
        let v = ws.aff.inserted()[idx];
        if ws.aff.contains(v) {
            ws.aff.remove(v);
            finalize(lab, i, v, LandmarkLength::INFINITE, &mut delta);
        }
    }
    delta
}

/// Record the final landmark distance of `v` in landmark `i`'s delta
/// of Γ′ (lines 8–13).
#[inline]
fn finalize(lab: &Labelling, i: usize, v: Vertex, dl: LandmarkLength, delta: &mut RowDelta) {
    if let Some(j) = lab.landmark_index(v) {
        debug_assert_ne!(j, i, "the root landmark can never be affected");
        debug_assert!(
            dl.is_infinite() || dl.through_landmark(),
            "paths ending at a landmark must carry the flag"
        );
        delta
            .highway
            .push((j, if dl.is_infinite() { INF } else { dl.dist() }));
        delta.labels.push((v, NO_LABEL));
    } else if dl.is_infinite() || dl.through_landmark() {
        delta.labels.push((v, NO_LABEL));
    } else {
        delta.labels.push((v, dl.dist()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metric::Seed;
    use crate::search::batch_search;
    use batchhl_graph::generators::path;
    use batchhl_graph::{Batch, DynamicGraph};
    use batchhl_hcl::{build_labelling, oracle};

    /// Full single-landmark pipeline: search (basic or improved) then
    /// repair; returns the repaired labelling.
    fn run(
        g0: &DynamicGraph,
        landmarks: Vec<Vertex>,
        batch: &Batch,
        improved: bool,
    ) -> (Labelling, DynamicGraph) {
        let mut lab = build_labelling(g0, landmarks).unwrap();
        let norm = batch.normalize(g0);
        let mut g1 = g0.clone();
        g1.apply_batch(&norm);
        lab.ensure_vertices(g1.num_vertices());
        let seeds = Seed::undirected(norm.updates());
        let mut ws = UpdateWorkspace::new(g1.num_vertices());
        let deltas: Vec<RowDelta> = (0..lab.num_landmarks())
            .map(|i| {
                ws.reset();
                batch_search(&lab, &g1, &seeds, i, improved, &mut ws);
                batch_repair(&lab, &g1, i, &mut ws)
            })
            .collect();
        let policy = batchhl_graph::CompactionPolicy::default();
        (lab.seal_patched(&deltas, policy), g1)
    }

    fn assert_minimal_after(g0: &DynamicGraph, landmarks: Vec<Vertex>, batch: Batch) {
        for improved in [false, true] {
            let (repaired, g1) = run(g0, landmarks.clone(), &batch, improved);
            oracle::check_minimal(&g1, &repaired)
                .unwrap_or_else(|e| panic!("improved={improved}: {e}"));
        }
    }

    #[test]
    fn repairs_path_insertion() {
        let g0 = path(6);
        let mut b = Batch::new();
        b.insert(0, 4);
        assert_minimal_after(&g0, vec![0], b);
    }

    #[test]
    fn repairs_path_deletion_with_disconnect() {
        let g0 = path(6);
        let mut b = Batch::new();
        b.delete(2, 3);
        assert_minimal_after(&g0, vec![0, 5], b);
    }

    #[test]
    fn repairs_mixed_batch() {
        let g0 = path(8);
        let mut b = Batch::new();
        b.delete(3, 4);
        b.insert(0, 7);
        b.insert(2, 5);
        assert_minimal_after(&g0, vec![0, 4], b);
    }

    #[test]
    fn repairs_landmark_incident_updates() {
        // Updates touching landmarks exercise the highway rewrite path.
        let g0 = path(6);
        let mut b = Batch::new();
        b.delete(0, 1); // landmark 0 loses its only edge
        assert_minimal_after(&g0, vec![0, 3], b);
    }

    #[test]
    fn repairs_reconnection() {
        let g0 = DynamicGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4), (4, 5)]);
        let mut b = Batch::new();
        b.insert(2, 3); // join the two components
        assert_minimal_after(&g0, vec![0, 4], b);
    }

    #[test]
    fn repairs_example_5_9_label_transitions() {
        // (b): insertion deletes a label; (d): deletion restores one.
        let (r, a, b, v) = (0u32, 1u32, 2u32, 3u32);
        let g0 = DynamicGraph::from_edges(4, &[(r, a), (r, b), (a, v)]);
        let mut batch = Batch::new();
        batch.insert(b, v);
        let (repaired, g1) = run(&g0, vec![r, b], &batch, true);
        oracle::check_minimal(&g1, &repaired).unwrap();
        // v's r-label (index 0) must be gone: covered via landmark b.
        assert_eq!(repaired.label(0, v), NO_LABEL);

        let g0 = DynamicGraph::from_edges(4, &[(r, a), (r, b), (a, v), (b, v)]);
        let mut batch = Batch::new();
        batch.delete(b, v);
        let (repaired, g1) = run(&g0, vec![r, b], &batch, true);
        oracle::check_minimal(&g1, &repaired).unwrap();
        assert_eq!(repaired.label(0, v), 2, "r-label restored");
    }

    #[test]
    fn example_5_10_label_change_far_from_update() {
        // Figure 4(b): a-b-c-v plus r-a? Reconstruct: r and b landmarks;
        // edge (r, b) deleted; c's distance changes but its label
        // doesn't; v's label changes. Shape: r-b, b-c, c-v, r-a, a-b?
        // Use: r-b, b-c, c-v, r-d, d-e, e-c? Simplest concrete witness:
        //   r-b (deleted), b-c, c-v, r-x, x-y, y-b  (long alternative)
        let edges = &[(0u32, 1u32), (1, 2), (2, 3), (0, 4), (4, 5), (5, 1)];
        let g0 = DynamicGraph::from_edges(6, edges);
        // landmarks r=0, b=1.
        let mut batch = Batch::new();
        batch.delete(0, 1);
        assert_minimal_after(&g0, vec![0, 1], batch);
    }

    #[test]
    fn example_5_11_boundary_needs_distance_affected() {
        // Figure 4(c): landmarks r, a, c; delete (r, a); b's distance
        // changes though its label stays redundant; using b's stale
        // distance would corrupt a's highway entry. Shape:
        //   r-a (deleted), r-b, b-a, a-c? Paper: "r,a,c landmarks, edge
        //   (r,a) deleted"; graph a-b, b-r, r-?, c next to a.
        let edges = &[(0u32, 1u32), (0, 2), (2, 1), (1, 3)];
        let g0 = DynamicGraph::from_edges(4, edges);
        let mut batch = Batch::new();
        batch.delete(0, 1);
        assert_minimal_after(&g0, vec![0, 1, 3], batch);
    }
}
