//! Property-based equivalence for speculative what-if sessions.
//!
//! Three invariants, checked per family (undirected / directed /
//! weighted) on random graphs and random hypothetical edit batches:
//!
//! 1. **Speculation = commitment.** Every answer a `what_if` session
//!    gives equals the answer of a twin oracle that actually committed
//!    the same edits — over `query`, `query_many` and
//!    `distances_from`.
//! 2. **The base is untouched.** The reader the session was built from
//!    answers identically before, during and after the session's life;
//!    the hypothetical never leaks.
//! 3. **No generation churn.** `version()` is the same on the reader
//!    and the session, before and after.

use batchhl::graph::weighted::WeightedGraph;
use batchhl::graph::{DynamicDiGraph, DynamicGraph, Vertex};
use batchhl::{Dist, DistanceOracle, Edit, LandmarkSelection, Oracle};
use proptest::prelude::*;
use std::collections::HashSet;

const N: usize = 22;
const LANDMARKS: usize = 4;

fn edges_strategy() -> impl Strategy<Value = Vec<(Vertex, Vertex)>> {
    prop::collection::vec((0..N as Vertex, 0..N as Vertex), 8..50)
}

fn toggles_strategy() -> impl Strategy<Value = Vec<(Vertex, Vertex)>> {
    prop::collection::vec((0..N as Vertex, 0..N as Vertex), 1..16)
}

fn build(graph: impl Into<batchhl::GraphSource>) -> DistanceOracle {
    Oracle::builder()
        .landmarks(LandmarkSelection::TopDegree(LANDMARKS))
        .build(graph)
        .expect("build oracle")
}

/// Commit `edits` on the twin through the ordinary session path.
fn commit_on(twin: &mut DistanceOracle, edits: &[Edit]) {
    let mut session = twin.update();
    for &e in edits {
        session = session.push(e);
    }
    session.commit().expect("twin commit");
}

/// All-pairs answers over the vertex range both the base and the
/// hypothetical can name.
fn answer_grid(f: &mut dyn FnMut(Vertex, Vertex) -> Option<Dist>) -> Vec<Option<Dist>> {
    let mut grid = Vec::with_capacity(N * N);
    for s in 0..N as Vertex {
        for t in 0..N as Vertex {
            grid.push(f(s, t));
        }
    }
    grid
}

/// Every vertex, repeated until the targets left to search (all but the
/// source and the landmarks of each copy) outnumber the vertices: the
/// first pooled allowance is then ⌊N/T⌋ = 0, so `distances_from` from a
/// non-landmark source takes its sweep branch. Its answers are checked
/// against per-pair queries, which never sweep, so a fault shared by the
/// session and the twin still shows.
fn sweep_targets() -> Vec<Vertex> {
    let searched_per_copy = N - LANDMARKS - 1;
    let copies = N / searched_per_copy + 1;
    assert!(copies * searched_per_copy > N);
    (0..copies).flat_map(|_| 0..N as Vertex).collect()
}

/// Row `s` of an [`answer_grid`], gathered at `targets`.
fn grid_row(grid: &[Option<Dist>], s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
    targets
        .iter()
        .map(|&t| grid[s as usize * N + t as usize])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn undirected_what_if_equals_committed_twin(
        edges in edges_strategy(),
        toggles in toggles_strategy(),
    ) {
        let mirror = DynamicGraph::from_edges(N, &edges);
        let oracle = build(mirror.clone());
        let mut twin = build(mirror.clone());

        // Toggle each sampled pair so inserts are genuinely absent and
        // removals genuinely present.
        let mut seen = HashSet::new();
        let mut edits = Vec::new();
        for &(a, b) in &toggles {
            if a == b || !seen.insert((a.min(b), a.max(b))) {
                continue;
            }
            edits.push(if mirror.has_edge(a, b) {
                Edit::Remove(a, b)
            } else {
                Edit::Insert(a, b)
            });
        }

        let reader = oracle.reader();
        let v0 = reader.version();
        let mut base_before = answer_grid(&mut |s, t| reader.query(s, t));

        commit_on(&mut twin, &edits);
        let mut session = reader.what_if(&edits).expect("what_if");

        // 1. speculation = commitment, on every query entry point.
        let hypo = answer_grid(&mut |s, t| session.query(s, t));
        let want = answer_grid(&mut |s, t| twin.query(s, t));
        prop_assert_eq!(&hypo, &want);
        let pairs: Vec<(Vertex, Vertex)> =
            (0..N as Vertex).map(|s| (s, (s * 7 + 3) % N as Vertex)).collect();
        prop_assert_eq!(session.query_many(&pairs), twin.query_many(&pairs));
        let targets: Vec<Vertex> = (0..N as Vertex).collect();
        prop_assert_eq!(
            session.distances_from(1, &targets),
            twin.distances_from(1, &targets)
        );
        let many = sweep_targets();
        for s in 0..N as Vertex {
            let per_pair = grid_row(&want, s, &many);
            prop_assert_eq!(&session.distances_from(s, &many), &per_pair);
            prop_assert_eq!(twin.distances_from(s, &many), per_pair);
        }

        // 2. the base reader is untouched while the session lives...
        let during = answer_grid(&mut |s, t| reader.query(s, t));
        prop_assert_eq!(&base_before, &during);
        // 3. ...and no generation moved.
        prop_assert_eq!(session.version(), v0);
        drop(session);
        let after = answer_grid(&mut |s, t| reader.query(s, t));
        base_before.truncate(after.len());
        prop_assert_eq!(base_before, after);
        prop_assert_eq!(reader.version(), v0);
    }

    #[test]
    fn directed_what_if_equals_committed_twin(
        arcs in edges_strategy(),
        toggles in toggles_strategy(),
    ) {
        let mirror = DynamicDiGraph::from_edges(N, &arcs);
        let oracle = build(mirror.clone());
        let mut twin = build(mirror.clone());

        let mut seen = HashSet::new();
        let mut edits = Vec::new();
        for &(a, b) in &toggles {
            if a == b || !seen.insert((a, b)) {
                continue;
            }
            edits.push(if mirror.has_edge(a, b) {
                Edit::Remove(a, b)
            } else {
                Edit::Insert(a, b)
            });
        }

        let reader = oracle.reader();
        let v0 = reader.version();
        let base_before = answer_grid(&mut |s, t| reader.query(s, t));

        commit_on(&mut twin, &edits);
        let mut session = reader.what_if(&edits).expect("what_if");

        let hypo = answer_grid(&mut |s, t| session.query(s, t));
        let want = answer_grid(&mut |s, t| twin.query(s, t));
        prop_assert_eq!(&hypo, &want);
        let targets: Vec<Vertex> = (0..N as Vertex).collect();
        prop_assert_eq!(
            session.distances_from(2, &targets),
            twin.distances_from(2, &targets)
        );
        let many = sweep_targets();
        for s in 0..N as Vertex {
            let per_pair = grid_row(&want, s, &many);
            prop_assert_eq!(&session.distances_from(s, &many), &per_pair);
            prop_assert_eq!(twin.distances_from(s, &many), per_pair);
        }

        prop_assert_eq!(session.version(), v0);
        drop(session);
        let after = answer_grid(&mut |s, t| reader.query(s, t));
        prop_assert_eq!(base_before, after);
        prop_assert_eq!(reader.version(), v0);
    }

    #[test]
    fn weighted_what_if_equals_committed_twin(
        edges in prop::collection::vec(
            (0..N as Vertex, 0..N as Vertex, 1..6u32), 8..50),
        toggles in prop::collection::vec(
            (0..N as Vertex, 0..N as Vertex, 1..6u32), 1..16),
    ) {
        let mut mirror = WeightedGraph::new(N);
        for &(a, b, w) in &edges {
            if a != b {
                mirror.insert_edge(a, b, w);
            }
        }
        let oracle = build(mirror.clone());
        let mut twin = build(mirror.clone());

        // Mix all three weighted edit shapes: remove present edges,
        // re-weight present edges, insert absent ones.
        let mut seen = HashSet::new();
        let mut edits = Vec::new();
        for (i, &(a, b, w)) in toggles.iter().enumerate() {
            if a == b || !seen.insert((a.min(b), a.max(b))) {
                continue;
            }
            edits.push(match (mirror.weight(a, b), i % 2) {
                (Some(_), 0) => Edit::Remove(a, b),
                (Some(_), _) => Edit::SetWeight(a, b, w),
                (None, _) => Edit::InsertWeighted(a, b, w),
            });
        }

        let reader = oracle.reader();
        let v0 = reader.version();
        let base_before = answer_grid(&mut |s, t| reader.query(s, t));

        commit_on(&mut twin, &edits);
        let mut session = reader.what_if(&edits).expect("what_if");

        let hypo = answer_grid(&mut |s, t| session.query(s, t));
        let want = answer_grid(&mut |s, t| twin.query(s, t));
        prop_assert_eq!(&hypo, &want);
        let targets: Vec<Vertex> = (0..N as Vertex).collect();
        prop_assert_eq!(
            session.distances_from(0, &targets),
            twin.distances_from(0, &targets)
        );
        let many = sweep_targets();
        for s in 0..N as Vertex {
            let per_pair = grid_row(&want, s, &many);
            prop_assert_eq!(&session.distances_from(s, &many), &per_pair);
            prop_assert_eq!(twin.distances_from(s, &many), per_pair);
        }

        prop_assert_eq!(session.version(), v0);
        drop(session);
        let after = answer_grid(&mut |s, t| reader.query(s, t));
        prop_assert_eq!(base_before, after);
        prop_assert_eq!(reader.version(), v0);
    }
}
