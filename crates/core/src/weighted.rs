//! Weighted BatchHL (the Section 6 extension).
//!
//! "For weighted graphs, we can use pruned Dijkstra's algorithm in place
//! of pruned BFSs. We consider updates in the form of edge weight
//! increase or decrease instead of edge insertion or deletion. Our
//! methods can then handle weight increases in a similar way to edge
//! deletions, and weight decreases in a similar way to edge insertions."
//!
//! So construction, batch search and batch repair run over the
//! [`Weighted`] metric: edge weights are lengths, a monotone radix heap
//! orders the keys. Each update seeds both arcs of its edge with
//! `len = min(w_old, w_new)` — the lighter weight covers both the paths
//! an increase destroys and the paths a decrease creates (insertion and
//! deletion are the `w = ∞` cases) — with the deletion flag set on
//! removals and increases. [`WeightedBatchIndex`] is [`Index`] over the
//! weighted [`Family`], so everything else, every [`crate::Algorithm`]
//! included, is the code the unweighted indexes run.
//!
//! The paper reports no weighted experiments, so the harness claims
//! none either; correctness is pinned the same way as the unweighted
//! index — the maintained labelling must equal the (unique) minimal
//! labelling rebuilt from scratch.

use crate::backend::{BackendFamily, Edit, OracleError};
use crate::engine::{self, Repair};
use crate::family::Family;
use crate::index::{Index, IndexConfig};
use crate::metric::{Seed, Weighted};
use crate::persist::PersistError;
use crate::whatif::{grown_n, rewrite_lists};
use batchhl_common::{Dist, FxHashMap, RadixHeap, Vertex};
use batchhl_graph::csr::{CompactionPolicy, Frozen};
use batchhl_graph::io::{read_weighted_bin, weighted_bin_len, write_weighted_bin, BinGraphError};
use batchhl_graph::weighted::{dijkstra, BiDijkstra, Weight, WeightedGraph, WeightedUpdate};
use batchhl_graph::WeightedCsrDelta;
use batchhl_hcl::{oracle, LabelError, Labelling, LandmarkSelection};
use std::io::{Read, Write};

/// A normalized weighted update: the edge plus its old/new weight
/// (`None` = absent on that side).
#[derive(Debug, Clone, Copy)]
pub struct Effect {
    a: Vertex,
    b: Vertex,
    w_old: Option<Weight>,
    w_new: Option<Weight>,
}

impl Effect {
    /// A removal or a weight increase: handled like a deletion.
    fn deletes(&self) -> bool {
        match (self.w_old, self.w_new) {
            (Some(old), Some(new)) => new > old,
            (_, w_new) => w_new.is_none(),
        }
    }
}

/// The search seeds of a weighted batch: both arcs of every edge, at
/// the lighter of its two weights.
fn seeds(effects: &[Effect]) -> Vec<Seed> {
    let seed = |e: &Effect| {
        let len = e.w_old.into_iter().chain(e.w_new).min();
        Seed {
            tail: e.a,
            head: e.b,
            len: len.expect("a normalized effect has a weight"),
            deleted: e.deletes(),
        }
    };
    effects.iter().flat_map(|e| seed(e).both_ways()).collect()
}

/// One immutable generation of the weighted index: the labelling and
/// the frozen weighted CSR (+ overlay) that queries and passes
/// traverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedSnapshot {
    pub lab: Labelling,
    pub view: WeightedCsrDelta,
}

/// Batch-dynamic distance index over a positively weighted graph.
pub type WeightedBatchIndex = Index<WeightedSnapshot>;

impl Family for WeightedSnapshot {
    const KIND: BackendFamily = BackendFamily::Weighted;
    const LABELLINGS: usize = 1;
    type Labels = [Labelling; 1];
    type Update = WeightedUpdate;
    type Batch = [WeightedUpdate];
    type Norm = Vec<Effect>;
    type Queue = RadixHeap;
    type View = WeightedCsrDelta;
    type Search = BiDijkstra;

    /// Construction runs one flagged Dijkstra per landmark over the
    /// frozen CSR snapshot: Algorithm 4 from an unlabelled labelling.
    fn build(
        view: WeightedCsrDelta,
        landmarks: Vec<Vertex>,
        threads: usize,
    ) -> Result<Self, LabelError> {
        let empty = Labelling::empty(view.num_vertices(), landmarks)?;
        let lab = engine::build_labelling(&Weighted(&view), &empty, threads);
        Ok(WeightedSnapshot { lab, view })
    }

    fn assemble(view: WeightedCsrDelta, [lab]: [Labelling; 1]) -> Self {
        WeightedSnapshot { lab, view }
    }

    fn view(&self) -> &WeightedCsrDelta {
        &self.view
    }

    fn labellings(&self) -> Vec<&Labelling> {
        vec![&self.lab]
    }

    fn query_labels(&self) -> (&Labelling, &Labelling) {
        (&self.lab, &self.lab)
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        self.view.list(v).iter().map(|&(w, _)| w).collect()
    }

    fn updates(batch: &[WeightedUpdate]) -> &[WeightedUpdate] {
        batch
    }

    fn single(update: WeightedUpdate) -> Box<[WeightedUpdate]> {
        Box::new([update])
    }

    /// Canonicalize endpoints and drop self-loops, repeated updates of
    /// an edge (only the first counts) and invalid updates (inserting a
    /// present edge, deleting or reweighting an absent one, no-op
    /// reweights).
    fn normalize(&self, batch: &[WeightedUpdate]) -> Vec<Effect> {
        let mut seen: FxHashMap<(Vertex, Vertex), ()> = FxHashMap::default();
        let mut out = Vec::new();
        for u in batch {
            let u = u.canonical();
            let (a, b) = u.endpoints();
            if a == b || seen.contains_key(&(a, b)) {
                continue;
            }
            let in_range = (b as usize) < self.view.num_vertices();
            let w_old = if in_range {
                let list = self.view.list(a);
                let k = list.binary_search_by_key(&b, |&(x, _)| x);
                k.ok().map(|k| list[k].1)
            } else {
                None
            };
            let effect = match u {
                WeightedUpdate::Insert(_, _, w) if w_old.is_none() => Effect {
                    a,
                    b,
                    w_old: None,
                    w_new: Some(w),
                },
                WeightedUpdate::Delete(..) if w_old.is_some() => Effect {
                    a,
                    b,
                    w_old,
                    w_new: None,
                },
                WeightedUpdate::SetWeight(_, _, w) if w_old.is_some() && w_old != Some(w) => {
                    Effect {
                        a,
                        b,
                        w_old,
                        w_new: Some(w),
                    }
                }
                _ => continue, // invalid
            };
            seen.insert((a, b), ());
            out.push(effect);
        }
        out
    }

    /// Removals and increases first, then additions and decreases.
    fn split(norm: Vec<Effect>) -> (Vec<Effect>, Vec<Effect>) {
        norm.into_iter().partition(Effect::deletes)
    }

    fn kinds(effects: &Vec<Effect>) -> (usize, usize) {
        let deletions = effects.iter().filter(|e| e.deletes()).count();
        (effects.len() - deletions, deletions)
    }

    fn rewrite(&self, effects: &Vec<Effect>, policy: Option<CompactionPolicy>) -> WeightedCsrDelta {
        let n = grown_n(effects.iter().map(|e| (e.a, e.b)), self.view.num_vertices());
        let changes = effects.iter().flat_map(|e| {
            let (a, b) = (e.a, e.b);
            [
                (a, b, e.w_new.map(|w| (b, w))),
                (b, a, e.w_new.map(|w| (a, w))),
            ]
        });
        rewrite_lists(&self.view, n, policy, changes, |&(x, _)| x)
    }

    fn repair<R: Repair<RadixHeap>>(
        &self,
        view: &WeightedCsrDelta,
        effects: &Vec<Effect>,
        repair: &mut R,
    ) -> Vec<R::Out> {
        let n = view.num_vertices();
        vec![repair.run(&Weighted(view), n, &self.lab, &seeds(effects))]
    }

    fn from_edits(edits: &[Edit]) -> Result<Box<[WeightedUpdate]>, OracleError> {
        Ok(edits
            .iter()
            .map(|&e| match e {
                Edit::Insert(a, b) => WeightedUpdate::Insert(a, b, 1),
                Edit::InsertWeighted(a, b, w) => WeightedUpdate::Insert(a, b, w),
                Edit::Remove(a, b) => WeightedUpdate::Delete(a, b),
                Edit::SetWeight(a, b, w) => WeightedUpdate::SetWeight(a, b, w),
            })
            .collect())
    }

    fn write_graph(view: &WeightedCsrDelta, out: &mut dyn Write) -> Result<(), PersistError> {
        out.write_all(&weighted_bin_len(view).to_le_bytes())?;
        Ok(write_weighted_bin(view, out)?)
    }

    fn read_graph<R: Read>(r: &mut R) -> Result<WeightedCsrDelta, BinGraphError> {
        read_weighted_bin(r).map(|g| WeightedCsrDelta::freeze(&g))
    }

    /// The minimal labelling is unique, so it must equal a fresh
    /// flagged-Dijkstra build over the same landmarks.
    fn audit(&self) -> Result<(), String> {
        let fresh = Self::build(self.view.clone(), self.lab.landmarks().to_vec(), 1)
            .map_err(|e| format!("rebuild refused: {e}"))?;
        oracle::first_difference(&self.lab, &fresh.lab)
    }

    fn truth(&self, s: Vertex) -> Vec<Dist> {
        dijkstra(&self.view, s)
    }
}

impl WeightedBatchIndex {
    /// Build with `k` top-degree landmarks and the default
    /// configuration (one thread; see [`Index::with_threads`]).
    pub fn build(graph: WeightedGraph, k: usize) -> Self {
        let config = IndexConfig {
            selection: LandmarkSelection::TopDegree(k),
            ..IndexConfig::default()
        };
        Self::try_build(graph, config).expect("top-degree landmarks are valid")
    }

    /// The published labelling.
    pub fn labelling(&self) -> &Labelling {
        &self.generation().lab
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_common::{SplitMix64, INF};
    use batchhl_hcl::NO_LABEL;

    fn with_landmarks(
        g: WeightedGraph,
        landmarks: Vec<Vertex>,
    ) -> Result<WeightedBatchIndex, LabelError> {
        let config = IndexConfig {
            selection: LandmarkSelection::Explicit(landmarks),
            ..IndexConfig::default()
        };
        WeightedBatchIndex::try_build(g, config)
    }

    /// Brute-force minimal weighted labelling via Dijkstra matrices.
    fn bruteforce(g: &WeightedGraph, landmarks: Vec<Vertex>) -> Labelling {
        let dists: Vec<Vec<Dist>> = landmarks.iter().map(|&r| dijkstra(g, r)).collect();
        let mut lab = Labelling::empty(g.num_vertices(), landmarks).expect("valid landmark set");
        let r = lab.num_landmarks();
        for (i, row) in dists.iter().enumerate() {
            for j in 0..r {
                lab.set_highway_row(i, j, row[lab.landmark_vertex(j) as usize]);
            }
        }
        for i in 0..r {
            for v in 0..g.num_vertices() as Vertex {
                if lab.is_landmark(v) || dists[i][v as usize] == INF {
                    continue;
                }
                let d = dists[i][v as usize];
                let covered = (0..r).any(|j| {
                    j != i
                        && dists[i][lab.landmark_vertex(j) as usize] != INF
                        && dists[j][v as usize] != INF
                        && dists[i][lab.landmark_vertex(j) as usize] as u64
                            + dists[j][v as usize] as u64
                            == d as u64
                });
                if !covered {
                    lab.set_label(i, v, d);
                }
            }
        }
        lab
    }

    fn random_weighted(n: usize, m: usize, seed: u64) -> WeightedGraph {
        let mut rng = SplitMix64::new(seed);
        let mut g = WeightedGraph::new(n);
        while g.num_edges() < m {
            let a = rng.below(n as u64) as Vertex;
            let b = rng.below(n as u64) as Vertex;
            if a != b {
                g.insert_edge(a, b, 1 + rng.below(9) as Weight);
            }
        }
        g
    }

    fn random_mixed_batch(
        idx: &WeightedBatchIndex,
        rng: &mut SplitMix64,
        n: u64,
    ) -> Vec<WeightedUpdate> {
        let mut batch = Vec::new();
        let edges: Vec<_> = idx.graph().edges().collect();
        for k in 0..8 {
            match k % 3 {
                0 => {
                    let (a, b, w) = edges[rng.below(edges.len() as u64) as usize];
                    let nw = 1 + ((w as u64 + rng.below(6)) % 9) as Weight;
                    batch.push(WeightedUpdate::SetWeight(a, b, nw));
                }
                1 => {
                    let (a, b, _) = edges[rng.below(edges.len() as u64) as usize];
                    batch.push(WeightedUpdate::Delete(a, b));
                }
                _ => {
                    let a = rng.below(n) as Vertex;
                    let b = rng.below(n) as Vertex;
                    if a != b {
                        batch.push(WeightedUpdate::Insert(a, b, 1 + rng.below(9) as Weight));
                    }
                }
            }
        }
        batch
    }

    #[test]
    fn construction_is_minimal() {
        for seed in 0..6 {
            let g = random_weighted(40, 90, seed);
            let idx = WeightedBatchIndex::build(g.clone(), 5);
            let want = bruteforce(&g, idx.labelling().landmarks().to_vec());
            assert_eq!(idx.labelling(), &want, "seed {seed}");
        }
    }

    #[test]
    fn queries_match_dijkstra() {
        let g = random_weighted(45, 100, 3);
        let mut idx = WeightedBatchIndex::build(g.clone(), 5);
        for s in 0..45u32 {
            let truth = dijkstra(&g, s);
            for t in 0..45u32 {
                assert_eq!(idx.query_dist(s, t), truth[t as usize], "({s},{t})");
            }
        }
    }

    #[test]
    fn weight_changes_track_rebuild() {
        for seed in 0..6u64 {
            let g = random_weighted(35, 80, seed);
            let mut idx = WeightedBatchIndex::build(g, 4);
            let mut rng = SplitMix64::new(seed ^ 0xAB);
            for round in 0..4 {
                let batch = random_mixed_batch(&idx, &mut rng, 35);
                idx.apply_batch(&batch);
                let want = bruteforce(&idx.graph(), idx.labelling().landmarks().to_vec());
                assert_eq!(
                    idx.labelling(),
                    &want,
                    "seed {seed} round {round}: labelling diverged from rebuild"
                );
                assert_eq!(
                    &idx.published().lab,
                    idx.labelling(),
                    "published generation out of sync"
                );
            }
            // Queries stay exact at the end.
            let g = idx.graph();
            for s in (0..35u32).step_by(5) {
                let truth = dijkstra(&g, s);
                for t in 0..35u32 {
                    assert_eq!(idx.query_dist(s, t), truth[t as usize]);
                }
            }
        }
    }

    #[test]
    fn parallel_weighted_updates_match_sequential() {
        let g = random_weighted(40, 100, 9);
        let mut seq = WeightedBatchIndex::build(g.clone(), 5);
        let mut par = WeightedBatchIndex::build(g, 5).with_threads(4);
        let mut rng = SplitMix64::new(0xBEEF);
        for _ in 0..3 {
            let batch = random_mixed_batch(&seq, &mut rng, 40);
            seq.apply_batch(&batch);
            par.apply_batch(&batch);
            assert_eq!(seq.labelling(), par.labelling());
        }
    }

    #[test]
    fn weighted_reader_matches_owner() {
        let g = random_weighted(40, 90, 15);
        let mut idx = WeightedBatchIndex::build(g, 5);
        let mut reader = idx.reader();
        let mut rng = SplitMix64::new(0xCAFE);
        let batch = random_mixed_batch(&idx, &mut rng, 40);
        idx.apply_batch(&batch);
        for s in (0..40u32).step_by(3) {
            for t in (0..40u32).step_by(7) {
                assert_eq!(reader.query_dist(s, t), idx.query_dist(s, t), "({s},{t})");
            }
        }
        assert_eq!(reader.version(), 1);
    }

    #[test]
    fn audit_rejects_a_labelling_that_is_not_the_minimal_one() {
        use crate::backend::Backend;
        let g = WeightedGraph::from_edges(4, &[(0, 1, 1), (1, 2, 1), (2, 3, 1)]);
        let mut idx = with_landmarks(g.clone(), vec![0, 1]).unwrap();
        Backend::verify_integrity(&mut idx, 8).unwrap();
        // Vertex 2 reaches landmark 0 through landmark 1, so the minimal
        // labelling holds no such entry. A correct but redundant one
        // leaves every query right: only the audit can see it.
        let mut lab = idx.labelling().clone();
        assert_eq!(lab.label(0, 2), NO_LABEL);
        lab.set_label(0, 2, 2);
        let mut bad = WeightedBatchIndex::from_parts(g, [lab], idx.config().clone()).unwrap();
        for s in 0..4 {
            for t in 0..4 {
                assert_eq!(bad.query_dist(s, t), idx.query_dist(s, t));
            }
        }
        let err = Backend::verify_integrity(&mut bad, 8).unwrap_err();
        assert!(err.to_string().contains("label(r0=0, v=2)"), "{err}");
    }

    #[test]
    fn weight_increase_behaves_like_deletion() {
        // Path 0 -1- 1 -1- 2; landmark 0. Bumping (0,1) to 5 must
        // raise d(0,2) to 6 and keep labels minimal.
        let g = WeightedGraph::from_edges(3, &[(0, 1, 1), (1, 2, 1)]);
        let mut idx = with_landmarks(g, vec![0]).unwrap();
        assert_eq!(idx.query(0, 2), Some(2));
        idx.apply_batch(&[WeightedUpdate::SetWeight(0, 1, 5)]);
        assert_eq!(idx.query(0, 2), Some(6));
        assert_eq!(idx.query(1, 2), Some(1));
    }

    #[test]
    fn weight_decrease_behaves_like_insertion() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 9), (1, 2, 1)]);
        let mut idx = with_landmarks(g, vec![0]).unwrap();
        assert_eq!(idx.query(0, 2), Some(10));
        idx.apply_batch(&[WeightedUpdate::SetWeight(0, 1, 2)]);
        assert_eq!(idx.query(0, 2), Some(3));
    }

    #[test]
    fn constructor_rejects_bad_landmarks() {
        let g = WeightedGraph::from_edges(3, &[(0, 1, 2)]);
        assert!(with_landmarks(g.clone(), vec![7]).is_err());
        assert!(with_landmarks(g, vec![0, 0]).is_err());
    }

    #[test]
    fn normalization_rules() {
        let g = WeightedGraph::from_edges(4, &[(0, 1, 2)]);
        let mut idx = WeightedBatchIndex::build(g, 2);
        let stats = idx.apply_batch(&[
            WeightedUpdate::Insert(0, 1, 5),    // exists: invalid
            WeightedUpdate::SetWeight(0, 1, 2), // unchanged: invalid
            WeightedUpdate::Delete(2, 3),       // absent: invalid
            WeightedUpdate::Insert(1, 1, 4),    // self-loop
            WeightedUpdate::Insert(2, 3, 4),    // valid
            WeightedUpdate::SetWeight(2, 3, 7), // same edge twice: dropped
        ]);
        assert_eq!(stats.applied, 1);
        assert_eq!(idx.graph().weight(2, 3), Some(4));
    }
}
