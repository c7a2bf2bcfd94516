//! Property-based tests of the workspace-wide invariants:
//!
//! * the maintained labelling after arbitrary batches equals the
//!   from-scratch minimal labelling (which is *unique* — Section 3, so
//!   equality pins every entry),
//! * queries equal BFS ground truth,
//! * batch normalization laws (validity, idempotence, invertibility),
//! * directed maintenance mirrors the undirected guarantees.

use batchhl::core::directed::DirectedBatchIndex;
use batchhl::core::index::{Algorithm, BatchIndex, IndexConfig};
use batchhl::graph::{Batch, DynamicDiGraph, DynamicGraph, Update, Vertex};
use batchhl::hcl::{oracle, LandmarkSelection};
use proptest::prelude::*;

const N: usize = 24;

/// Strategy: a list of undirected edges over `N` vertices.
fn edges_strategy() -> impl Strategy<Value = Vec<(Vertex, Vertex)>> {
    prop::collection::vec((0..N as Vertex, 0..N as Vertex), 0..60)
}

/// Strategy: a raw (possibly messy) update list; booleans choose
/// insert/delete against the evolving graph at application time.
fn updates_strategy() -> impl Strategy<Value = Vec<(Vertex, Vertex)>> {
    prop::collection::vec((0..N as Vertex, 0..N as Vertex), 1..25)
}

fn graph_from(edges: &[(Vertex, Vertex)]) -> DynamicGraph {
    DynamicGraph::from_edges(N, edges)
}

/// Toggle-batch: flip the existence of every sampled pair.
fn toggle_batch(g: &DynamicGraph, pairs: &[(Vertex, Vertex)]) -> Batch {
    let mut b = Batch::new();
    for &(x, y) in pairs {
        if x == y {
            continue;
        }
        if g.has_edge(x, y) {
            b.delete(x, y);
        } else {
            b.insert(x, y);
        }
    }
    b
}

fn config(algorithm: Algorithm, k: usize) -> IndexConfig {
    IndexConfig {
        selection: LandmarkSelection::TopDegree(k),
        algorithm,
        threads: 1,
        ..IndexConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn labelling_tracks_rebuild_bhl_plus(
        edges in edges_strategy(),
        batch1 in updates_strategy(),
        batch2 in updates_strategy(),
    ) {
        let g0 = graph_from(&edges);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 4));
        for pairs in [batch1, batch2] {
            let batch = toggle_batch(&index.graph(), &pairs);
            index.apply_batch(&batch);
            prop_assert!(oracle::check_minimal(&index.graph(), index.labelling()).is_ok(),
                "{:?}", oracle::check_minimal(&index.graph(), index.labelling()));
        }
    }

    #[test]
    fn labelling_tracks_rebuild_bhl_basic(
        edges in edges_strategy(),
        batch1 in updates_strategy(),
    ) {
        let g0 = graph_from(&edges);
        let mut index = BatchIndex::build(g0, config(Algorithm::Bhl, 3));
        let batch = toggle_batch(&index.graph(), &batch1);
        index.apply_batch(&batch);
        prop_assert!(oracle::check_minimal(&index.graph(), index.labelling()).is_ok());
    }

    #[test]
    fn queries_match_bfs(
        edges in edges_strategy(),
        batch1 in updates_strategy(),
        s in 0..N as Vertex,
    ) {
        let g0 = graph_from(&edges);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 4));
        let batch = toggle_batch(&index.graph(), &batch1);
        index.apply_batch(&batch);
        let truth = batchhl::graph::bfs::bfs_distances(&index.graph(), s);
        for t in 0..N as Vertex {
            prop_assert_eq!(index.query_dist(s, t), truth[t as usize],
                "d({}, {})", s, t);
        }
    }

    #[test]
    fn normalized_batches_apply_and_invert(
        edges in edges_strategy(),
        raw in prop::collection::vec(
            (prop::bool::ANY, 0..N as Vertex, 0..N as Vertex), 0..30),
    ) {
        let g0 = graph_from(&edges);
        let batch: Batch = raw
            .into_iter()
            .map(|(ins, a, b)| if ins { Update::Insert(a, b) } else { Update::Delete(a, b) })
            .collect();
        let norm = batch.normalize(&g0);
        // Normalization is idempotent.
        prop_assert_eq!(norm.normalize(&g0), norm.clone());
        // Every normalized update is valid, and inversion round-trips.
        let mut g = g0.clone();
        let applied = g.apply_batch(&norm);
        prop_assert_eq!(applied, norm.len());
        g.apply_batch(&norm.inverse());
        prop_assert_eq!(g, g0);
    }

    #[test]
    fn uhl_equals_batch_processing(
        edges in edges_strategy(),
        batch1 in updates_strategy(),
    ) {
        let g0 = graph_from(&edges);
        let batch = toggle_batch(&g0, &batch1);
        let mut batched = BatchIndex::build(g0.clone(), config(Algorithm::BhlPlus, 4));
        let mut single = BatchIndex::build(g0, config(Algorithm::UhlPlus, 4));
        batched.apply_batch(&batch);
        single.apply_batch(&batch);
        prop_assert_eq!(batched.labelling(), single.labelling());
    }

    #[test]
    fn directed_tracks_rebuild(
        arcs in prop::collection::vec((0..N as Vertex, 0..N as Vertex), 0..70),
        batch1 in updates_strategy(),
    ) {
        let g0 = DynamicDiGraph::from_edges(N, &arcs);
        let mut index = DirectedBatchIndex::build(g0, config(Algorithm::BhlPlus, 3));
        let mut b = Batch::new();
        for &(x, y) in &batch1 {
            if x == y { continue; }
            if index.graph().has_edge(x, y) {
                b.delete(x, y);
            } else {
                b.insert(x, y);
            }
        }
        index.apply_batch(&b);
        prop_assert!(oracle::check_minimal(&index.graph(), index.forward_labelling()).is_ok());
        let rev = batchhl::graph::Reversed(&index.graph());
        prop_assert!(oracle::check_minimal(&rev, index.backward_labelling()).is_ok());
    }
}
