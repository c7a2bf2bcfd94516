//! Property-based equivalence for one-to-many queries.
//!
//! `distances_from` serves all its targets from one source-side search
//! and may end in a sweep from that search; every answer must still
//! equal the point query of its pair. Checked per family (undirected /
//! directed / weighted) on random graphs, on the committed generation
//! and in what-if sessions (whose labels are patched views), for every
//! source — landmarks, isolated vertices and one out-of-range id
//! included — against target lists that mix random vertices,
//! duplicates, landmarks, the source itself, out-of-range ids and
//! unreachable (isolated) vertices. The long lists hold more targets
//! than the graph has vertices, so their fan-outs sweep; the short ones
//! mostly stay within the pooled share, so each target side meets the
//! source side grown for the targets before it.

use batchhl::graph::weighted::WeightedGraph;
use batchhl::graph::{DynamicDiGraph, DynamicGraph, Vertex};
use batchhl::{Dist, DistanceOracle, Edit, LandmarkSelection, Oracle};
use proptest::prelude::*;
use std::collections::HashSet;

/// Vertices; the last `ISOLATED` get no edges from the strategies.
const N: usize = 28;
const ISOLATED: usize = 3;
const CONNECTED: Vertex = (N - ISOLATED) as Vertex;
const LANDMARKS: [Vertex; 3] = [0, 7, 13];

fn build(graph: impl Into<batchhl::GraphSource>) -> DistanceOracle {
    Oracle::builder()
        .landmarks(LandmarkSelection::Explicit(LANDMARKS.to_vec()))
        .build(graph)
        .expect("build oracle")
}

fn pairs_strategy() -> impl Strategy<Value = Vec<(Vertex, Vertex)>> {
    prop::collection::vec((0..CONNECTED, 0..CONNECTED), 10..70)
}

/// Random picks, out-of-range ids (up to `N + 3`) among them.
fn picks_strategy() -> impl Strategy<Value = Vec<Vertex>> {
    prop::collection::vec(0..N as Vertex + 4, 1..30)
}

/// Target lists for source `s`: the picks with a duplicate of each, the
/// source, the landmarks, an isolated and an out-of-range id; the picks
/// alone; and every id three times over, which sweeps.
fn target_lists(s: Vertex, picks: &[Vertex]) -> Vec<Vec<Vertex>> {
    let mut mixed: Vec<Vertex> = picks.iter().flat_map(|&t| [t, t]).collect();
    mixed.extend([s, N as Vertex - 1, N as Vertex + 2]);
    mixed.extend(LANDMARKS);
    let every: Vec<Vertex> = (0..3).flat_map(|_| 0..N as Vertex + 2).collect();
    vec![mixed, picks.to_vec(), every]
}

/// Every source (and one out-of-range id) against every target list:
/// each `fan` answer equals `point` on its pair.
fn check_fanouts(
    picks: &[Vertex],
    mut point: impl FnMut(Vertex, Vertex) -> Option<Dist>,
    mut fan: impl FnMut(Vertex, &[Vertex]) -> Vec<Option<Dist>>,
) -> Result<(), String> {
    for s in 0..=N as Vertex {
        for targets in target_lists(s, picks) {
            let got = fan(s, &targets);
            prop_assert_eq!(got.len(), targets.len());
            for (&t, &d) in targets.iter().zip(&got) {
                prop_assert_eq!(d, point(s, t), "distances_from({}) at target {}", s, t);
            }
        }
    }
    Ok(())
}

/// Toggle each sampled pair once: remove it where `present`, insert it
/// otherwise.
fn toggle_edits(
    toggles: &[(Vertex, Vertex)],
    undirected: bool,
    present: impl Fn(Vertex, Vertex) -> bool,
) -> Vec<Edit> {
    let mut seen = HashSet::new();
    let mut edits = Vec::new();
    for &(a, b) in toggles {
        let key = if undirected {
            (a.min(b), a.max(b))
        } else {
            (a, b)
        };
        if a == b || !seen.insert(key) {
            continue;
        }
        edits.push(if present(a, b) {
            Edit::Remove(a, b)
        } else {
            Edit::Insert(a, b)
        });
    }
    edits
}

/// The committed generation, then a what-if session over `edits`.
fn check_oracle(oracle: &DistanceOracle, edits: &[Edit], picks: &[Vertex]) -> Result<(), String> {
    let reader = oracle.reader();
    check_fanouts(
        picks,
        |s, t| reader.query(s, t),
        |s, ts| reader.distances_from(s, ts),
    )?;
    let session = std::cell::RefCell::new(reader.what_if(edits).expect("what_if"));
    check_fanouts(
        picks,
        |s, t| session.borrow_mut().query(s, t),
        |s, ts| session.borrow_mut().distances_from(s, ts),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn undirected_fanouts_equal_point_queries(
        edges in pairs_strategy(),
        toggles in prop::collection::vec((0..N as Vertex, 0..N as Vertex), 1..12),
        picks in picks_strategy(),
    ) {
        let g = DynamicGraph::from_edges(N, &edges);
        let edits = toggle_edits(&toggles, true, |a, b| g.has_edge(a, b));
        check_oracle(&build(g), &edits, &picks)?;
    }

    #[test]
    fn directed_fanouts_equal_point_queries(
        arcs in pairs_strategy(),
        toggles in prop::collection::vec((0..N as Vertex, 0..N as Vertex), 1..12),
        picks in picks_strategy(),
    ) {
        let g = DynamicDiGraph::from_edges(N, &arcs);
        let edits = toggle_edits(&toggles, false, |a, b| g.has_edge(a, b));
        check_oracle(&build(g), &edits, &picks)?;
    }

    #[test]
    fn weighted_fanouts_equal_point_queries(
        edges in prop::collection::vec((0..CONNECTED, 0..CONNECTED, 1..30u32), 10..70),
        toggles in prop::collection::vec((0..N as Vertex, 0..N as Vertex, 1..30u32), 1..12),
        picks in picks_strategy(),
    ) {
        let mut g = WeightedGraph::new(N);
        for &(a, b, w) in &edges {
            if a != b {
                g.insert_edge(a, b, w);
            }
        }
        // Remove, re-weight or insert each sampled pair.
        let mut seen = HashSet::new();
        let mut edits = Vec::new();
        for (i, &(a, b, w)) in toggles.iter().enumerate() {
            if a == b || !seen.insert((a.min(b), a.max(b))) {
                continue;
            }
            edits.push(match (g.weight(a, b), i % 2) {
                (Some(_), 0) => Edit::Remove(a, b),
                (Some(_), _) => Edit::SetWeight(a, b, w),
                (None, _) => Edit::InsertWeighted(a, b, w),
            });
        }
        check_oracle(&build(g), &edits, &picks)?;
    }
}
