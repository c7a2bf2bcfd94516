//! Directed BatchHL (Section 6): the directed [`Family`].
//!
//! Directed graphs keep **two** labellings: a forward one on `G`
//! (entries `(r, d(r→v))`, highway `δ_Hf(r_i, r_j) = d(r_i→r_j)`) and a
//! backward one that is simply the forward structure of the *reversed*
//! graph (entries `(r, d(v→r))`). A pass runs the unified update engine
//! ([`crate::engine`]) once per labelling with the same unit-length
//! search and repair the undirected index uses — the backward run just
//! hands it the generic `Reversed` adapter and arc-reversed seeds:
//!
//! * the search anchors only arc *heads* (one [`Seed`] per arc, where an
//!   undirected edge seeds both): an arc `a→b` can only carry `r`-paths
//!   through it in its own direction;
//! * repair reads bounds from in-neighbours and relaxes out-neighbours,
//!   which on the reversed view becomes the mirror image.
//!
//! A query `d(s, t)` combines `d(s→r_i)` (backward labels of `s`),
//! `δ_Hf(r_i, r_j)` and `d(r_j→t)` (forward labels of `t`) into the
//! upper bound of Eq. 3, then refines with a directed bounded
//! bidirectional BFS on `G[V \ R]` — the shared query path of
//! `batchhl_hcl::query` with `(fwd, bwd)` as its label pair.
//!
//! [`DirectedBatchIndex`] is [`Index`] over [`DirectedSnapshot`]: the
//! same generations, readers and variant dispatch as the undirected
//! index.

use crate::backend::{unweighted_batch, BackendFamily, Edit, OracleError};
use crate::engine::Repair;
use crate::family::Family;
use crate::metric::Seed;
use crate::persist::PersistError;
use crate::whatif::{grown_n, rewrite_lists};
use batchhl_common::{Dist, LexDialQueue, Vertex};
use batchhl_graph::bfs::{bfs_distances, BiBfs};
use batchhl_graph::csr::CompactionPolicy;
use batchhl_graph::io::{digraph_bin_len, read_digraph_csr, write_digraph_bin, BinGraphError};
use batchhl_graph::{AdjacencyView, Batch, CsrDiDelta, DynamicDiGraph, Reversed, Update};
use batchhl_hcl::{build_labelling_parallel, oracle, upper_bound_pair, LabelError, Labelling};
use std::io::{Read, Write};

use crate::index::Index;
pub use crate::index::{Algorithm, IndexConfig};

/// Batch-dynamic distance index over a directed graph.
pub type DirectedBatchIndex = Index<DirectedSnapshot>;

/// One immutable generation of the directed index: both labellings and
/// the frozen two-direction CSR (+ overlay) that queries and both update
/// passes traverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectedSnapshot {
    /// Forward labelling on `G` — answers `d(r → v)`.
    pub fwd: Labelling,
    /// Backward labelling (forward labelling of `Gᵀ`) — answers `d(v → r)`.
    pub bwd: Labelling,
    pub view: CsrDiDelta,
}

/// The search seeds of a directed batch: its arcs for the forward
/// labelling, and the same arcs reversed for the backward one.
fn seeds(norm: &Batch) -> (Vec<Seed>, Vec<Seed>) {
    let fwd: Vec<Seed> = norm.updates().iter().map(Seed::unit).collect();
    let bwd = fwd.iter().map(|s| s.reversed()).collect();
    (fwd, bwd)
}

impl Family for DirectedSnapshot {
    const KIND: BackendFamily = BackendFamily::Directed;
    const LABELLINGS: usize = 2;
    type Labels = [Labelling; 2];
    type Update = Update;
    type Batch = Batch;
    type Norm = Batch;
    type Queue = LexDialQueue;
    type View = CsrDiDelta;
    type Search = BiBfs;

    /// Both construction passes run over the frozen CSR snapshot.
    fn build(view: CsrDiDelta, landmarks: Vec<Vertex>, threads: usize) -> Result<Self, LabelError> {
        let fwd = build_labelling_parallel(&view, landmarks.clone(), threads)?;
        let bwd = build_labelling_parallel(&Reversed(&view), landmarks, threads)?;
        Ok(DirectedSnapshot { fwd, bwd, view })
    }

    fn assemble(view: CsrDiDelta, [fwd, bwd]: [Labelling; 2]) -> Self {
        DirectedSnapshot { fwd, bwd, view }
    }

    fn view(&self) -> &CsrDiDelta {
        &self.view
    }

    fn labellings(&self) -> Vec<&Labelling> {
        vec![&self.fwd, &self.bwd]
    }

    fn query_labels(&self) -> (&Labelling, &Labelling) {
        (&self.fwd, &self.bwd)
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        self.view.out_neighbors(v).to_vec()
    }

    fn updates(batch: &Batch) -> &[Update] {
        batch.updates()
    }

    fn single(update: Update) -> Box<Batch> {
        Box::new(Batch::from_updates(vec![update]))
    }

    fn normalize(&self, batch: &Batch) -> Batch {
        batch.normalize_directed(&self.view)
    }

    fn split(norm: Batch) -> (Batch, Batch) {
        norm.split()
    }

    fn kinds(norm: &Batch) -> (usize, usize) {
        (norm.num_insertions(), norm.num_deletions())
    }

    /// Tails re-read their out-lists, heads their in-lists; the two
    /// direction overlays compact independently.
    fn rewrite(&self, norm: &Batch, policy: Option<CompactionPolicy>) -> CsrDiDelta {
        let arcs = || {
            norm.updates()
                .iter()
                .map(|u| (u.endpoints(), u.is_insert()))
        };
        let n = grown_n(arcs().map(|(ab, _)| ab), self.view.num_vertices());
        let (out, inn) = self.view.directions();
        let outs = arcs().map(|((a, b), kept)| (a, b, kept.then_some(b)));
        let ins = arcs().map(|((a, b), kept)| (b, a, kept.then_some(a)));
        CsrDiDelta::from_directions(
            rewrite_lists(out, n, policy, outs, |&x| x),
            rewrite_lists(inn, n, policy, ins, |&x| x),
        )
    }

    /// The forward labelling over `G′`, then the backward one over `G′`
    /// with every arc reversed.
    fn repair<R: Repair<LexDialQueue>>(
        &self,
        view: &CsrDiDelta,
        norm: &Batch,
        repair: &mut R,
    ) -> Vec<R::Out> {
        let (fwd_seeds, bwd_seeds) = seeds(norm);
        let n = view.num_vertices();
        vec![
            repair.run(view, n, &self.fwd, &fwd_seeds),
            repair.run(&Reversed(view), n, &self.bwd, &bwd_seeds),
        ]
    }

    fn from_edits(edits: &[Edit]) -> Result<Box<Batch>, OracleError> {
        unweighted_batch(edits, Self::KIND).map(Box::new)
    }

    fn write_graph(view: &CsrDiDelta, out: &mut dyn Write) -> Result<(), PersistError> {
        out.write_all(&digraph_bin_len(view).to_le_bytes())?;
        Ok(write_digraph_bin(view, out)?)
    }

    fn read_graph<R: Read>(r: &mut R) -> Result<CsrDiDelta, BinGraphError> {
        read_digraph_csr(r)
    }

    fn audit(&self) -> Result<(), String> {
        oracle::check_minimal(&self.view, &self.fwd)
            .map_err(|reason| format!("forward labelling: {reason}"))?;
        oracle::check_minimal(&Reversed(&self.view), &self.bwd)
            .map_err(|reason| format!("backward labelling: {reason}"))
    }

    fn truth(&self, s: Vertex) -> Vec<Dist> {
        bfs_distances(&self.view, s)
    }
}

impl DirectedBatchIndex {
    /// Build with the given configuration; panics on an invalid
    /// explicit landmark list (see [`Index::try_build`]).
    pub fn build(graph: DynamicDiGraph, config: IndexConfig) -> Self {
        Self::try_build(graph, config).expect("selected landmarks are valid")
    }

    /// The published forward labelling.
    pub fn forward_labelling(&self) -> &Labelling {
        &self.generation().fwd
    }

    /// The published backward labelling.
    pub fn backward_labelling(&self) -> &Labelling {
        &self.generation().bwd
    }

    /// Eq. 3 for directed graphs: `min_{i,j} d(s→r_i) + δ_Hf(r_i, r_j)
    /// + d(r_j→t)` over the backward labels of `s` and forward labels
    /// of `t`.
    pub fn upper_bound(&self, s: Vertex, t: Vertex) -> Dist {
        let g = self.generation();
        upper_bound_pair(&g.bwd, &g.fwd, &g.fwd, s, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::testing::{config, random_batch};
    use batchhl_graph::csr::Frozen;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn random_digraph(n: usize, m: usize, seed: u64) -> DynamicDiGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = DynamicDiGraph::new(n);
        while g.num_edges() < m {
            let a = rng.gen_range(0..n as Vertex);
            let b = rng.gen_range(0..n as Vertex);
            if a != b {
                g.insert_edge(a, b);
            }
        }
        g
    }

    fn assert_both_minimal(index: &DirectedBatchIndex) {
        oracle::check_minimal(&index.graph(), index.forward_labelling())
            .unwrap_or_else(|e| panic!("forward: {e}"));
        oracle::check_minimal(&Reversed(&index.graph()), index.backward_labelling())
            .unwrap_or_else(|e| panic!("backward: {e}"));
    }

    #[test]
    fn construction_is_minimal_both_ways() {
        let g = random_digraph(60, 180, 3);
        let index = DirectedBatchIndex::build(g, config(Algorithm::BhlPlus, 5));
        assert_both_minimal(&index);
    }

    #[test]
    fn queries_match_bfs_exhaustively() {
        let g = random_digraph(50, 160, 7);
        let truth = oracle::all_pairs_bfs(&g);
        let mut index = DirectedBatchIndex::build(g, config(Algorithm::BhlPlus, 5));
        for s in 0..50u32 {
            for t in 0..50u32 {
                assert_eq!(
                    index.query_dist(s, t),
                    truth[s as usize][t as usize],
                    "query({s},{t})"
                );
            }
        }
    }

    #[test]
    fn updates_track_rebuild() {
        for (alg, seed) in [
            (Algorithm::Bhl, 1u64),
            (Algorithm::BhlPlus, 2),
            (Algorithm::BhlPlus, 3),
            (Algorithm::Bhl, 4),
        ] {
            let mut g = random_digraph(60, 170, seed);
            let mut index = DirectedBatchIndex::build(g.clone(), config(alg, 5));
            let mut rng = StdRng::seed_from_u64(seed ^ 0xF00);
            for round in 0..4 {
                let batch = random_batch(&g, 12, &mut rng);
                index.apply_batch(&batch);
                g.apply_batch(&batch);
                oracle::check_minimal(&index.graph(), index.forward_labelling())
                    .unwrap_or_else(|e| panic!("{alg:?}/{seed} fwd round {round}: {e}"));
                oracle::check_minimal(&Reversed(&index.graph()), index.backward_labelling())
                    .unwrap_or_else(|e| panic!("{alg:?}/{seed} bwd round {round}: {e}"));
                let published = index.published();
                assert_eq!(&published.fwd, index.forward_labelling());
                assert_eq!(&published.bwd, index.backward_labelling());
                // Both directions present the shadow graph's lists.
                assert_eq!(published.view, CsrDiDelta::freeze(&g), "round {round}");
            }
        }
    }

    #[test]
    fn queries_stay_exact_under_updates() {
        let g = random_digraph(40, 120, 11);
        let mut index = DirectedBatchIndex::build(g, config(Algorithm::BhlPlus, 4));
        let mut rng = StdRng::seed_from_u64(55);
        for _ in 0..4 {
            let batch = random_batch(&index.graph(), 10, &mut rng);
            index.apply_batch(&batch);
            let truth = oracle::all_pairs_bfs(&index.graph());
            for s in 0..40u32 {
                for t in 0..40u32 {
                    assert_eq!(index.query_dist(s, t), truth[s as usize][t as usize]);
                }
            }
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g = random_digraph(80, 240, 13);
        let mut rng = StdRng::seed_from_u64(77);
        let batch = random_batch(&g, 16, &mut rng);
        let mut seq = DirectedBatchIndex::build(g.clone(), config(Algorithm::BhlPlus, 6));
        seq.apply_batch(&batch);
        let mut cfg = config(Algorithm::BhlPlus, 6);
        cfg.threads = 4;
        let mut par = DirectedBatchIndex::build(g, cfg);
        par.apply_batch(&batch);
        assert_eq!(seq.forward_labelling(), par.forward_labelling());
        assert_eq!(seq.backward_labelling(), par.backward_labelling());
    }

    #[test]
    fn one_way_reachability() {
        // 0→1→2, landmark picks highest total degree (vertex 1).
        let g = DynamicDiGraph::from_edges(3, &[(0, 1), (1, 2)]);
        let mut index = DirectedBatchIndex::build(g, config(Algorithm::BhlPlus, 1));
        assert_eq!(index.query(0, 2), Some(2));
        assert_eq!(index.query(2, 0), None);
        // Add the return arc and re-check.
        let mut b = Batch::new();
        b.insert(2, 0);
        index.apply_batch(&b);
        assert_eq!(index.query(2, 0), Some(1));
        assert_both_minimal(&index);
    }

    #[test]
    fn directed_reader_follows_and_matches_owner() {
        let g = random_digraph(50, 150, 21);
        let mut index = DirectedBatchIndex::build(g, config(Algorithm::BhlPlus, 4));
        let mut reader = index.reader();
        let mut rng = StdRng::seed_from_u64(23);
        for _ in 0..3 {
            let batch = random_batch(&index.graph(), 8, &mut rng);
            index.apply_batch(&batch);
            for s in (0..50u32).step_by(7) {
                for t in (0..50u32).step_by(9) {
                    assert_eq!(reader.query_dist(s, t), index.query_dist(s, t));
                }
            }
        }
        assert_eq!(reader.version(), index.version());
    }
}
