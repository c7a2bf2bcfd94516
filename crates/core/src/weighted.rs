//! Weighted BatchHL (the Section 6 extension).
//!
//! "For weighted graphs, we can use pruned Dijkstra's algorithm in place
//! of pruned BFSs. We consider updates in the form of edge weight
//! increase or decrease instead of edge insertion or deletion. Our
//! methods can then handle weight increases in a similar way to edge
//! deletions, and weight decreases in a similar way to edge insertions."
//!
//! The machinery carries over with three changes:
//!
//! * construction runs a *flagged Dijkstra* per landmark (same landmark
//!   flags, heap-ordered settle),
//! * batch search seeds each update's anchors with
//!   `d_G(r, near) + min(w_old, w_new)` — the lighter of the two
//!   weights covers both the paths an increase destroys and the paths a
//!   decrease creates (insertion/deletion are the `w = ∞` edge cases) —
//!   and expands with the basic (Algorithm 2 style) pruning
//!   `d + w(v, u) ≤ d_G(r, u)`,
//! * batch repair pops by the full packed `(distance, landmark-flag)`
//!   key from a binary heap instead of a Dial queue (weights > 1 void
//!   the unit-bucket argument; the Dijkstra exchange argument of
//!   Lemma 5.20 still applies verbatim).
//!
//! Both phases plug into the unified update engine as the
//! `DijkstraKernel`, and [`WeightedSnapshot`] is the weighted
//! [`Family`]: [`WeightedBatchIndex`] is [`Index`] over it, so the
//! per-landmark orchestration (sequential or landmark-parallel), the
//! generation publication and the readers are the exact code the
//! unweighted indexes run. Unlike them it runs one basic pass per
//! batch whatever [`crate::IndexConfig::algorithm`] says.
//!
//! The paper reports no weighted experiments, so the harness claims
//! none either; correctness is pinned the same way as the unweighted
//! index — the maintained labelling must equal the (unique) minimal
//! labelling rebuilt from scratch.

use crate::backend::{BackendFamily, Edit, OracleError};
use crate::engine::{self, UpdateKernel};
use crate::family::Family;
use crate::index::{Index, IndexConfig};
use crate::persist::PersistError;
use crate::stats::UpdateStats;
use crate::whatif::{grown_n, rewrite_lists};
use crate::workspace::dl_old;
use batchhl_common::{Dist, EpochCache, FxHashMap, LandmarkLength, SparseBitSet, Vertex, INF};
use batchhl_graph::io::{read_weighted_bin, weighted_bin_len, write_weighted_bin, BinGraphError};
use batchhl_graph::weighted::{
    dijkstra, BiDijkstra, Weight, WeightedAdjacencyView, WeightedGraph, WeightedUpdate,
};
use batchhl_graph::WeightedCsrDelta;
use batchhl_hcl::{LabelError, LabelPatch, Labelling, LandmarkSelection, RowDelta, NO_LABEL};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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

/// One immutable generation of the weighted index: the labelling and
/// the frozen weighted CSR (+ overlay) that queries and the Dijkstra
/// kernel traverse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeightedSnapshot {
    pub lab: Labelling,
    pub view: WeightedCsrDelta,
}

/// Scratch state for one weighted search→repair pass.
#[derive(Debug, Default)]
pub struct DijkstraWorkspace {
    aff: SparseBitSet,
    dl_cache: EpochCache,
    bounds: EpochCache,
    heap: BinaryHeap<Reverse<(u64, Vertex)>>,
}

impl DijkstraWorkspace {
    fn new(n: usize) -> Self {
        DijkstraWorkspace {
            aff: SparseBitSet::new(n),
            dl_cache: EpochCache::new(n),
            bounds: EpochCache::new(n),
            heap: BinaryHeap::new(),
        }
    }

    fn grow(&mut self, n: usize) {
        self.aff.grow(n);
        self.dl_cache.grow(n);
        self.bounds.grow(n);
    }

    fn reset(&mut self) {
        self.aff.clear();
        self.dl_cache.clear();
        self.bounds.clear();
        self.heap.clear();
    }
}

/// The weighted search space for the unified engine: pruned Dijkstra
/// search plus heap-ordered repair.
pub(crate) struct DijkstraKernel;

impl<W: WeightedAdjacencyView + Sync> UpdateKernel<W> for DijkstraKernel {
    type Update = Effect;
    type Workspace = DijkstraWorkspace;

    fn workspace(&self, n: usize) -> DijkstraWorkspace {
        DijkstraWorkspace::new(n)
    }

    fn process_landmark(
        &self,
        old: &Labelling,
        g: &W,
        updates: &[Effect],
        i: usize,
        ws: &mut DijkstraWorkspace,
    ) -> RowDelta {
        ws.reset();
        weighted_search(old, g, updates, i, ws);
        weighted_repair(old, g, i, ws)
    }
}

/// Weighted batch search for landmark `i` (Algorithm 2 analogue).
fn weighted_search<W: WeightedAdjacencyView>(
    old: &Labelling,
    g: &W,
    effects: &[Effect],
    i: usize,
    ws: &mut DijkstraWorkspace,
) {
    // All seed/expansion sums are taken in u64: distances saturate at
    // the `INF` sentinel, and a path of length ≥ INF is unrepresentable
    // (= unreachable), so such candidates are dropped rather than let a
    // u32 sum wrap around.
    for e in effects {
        let min_w = e
            .w_old
            .unwrap_or(Weight::MAX)
            .min(e.w_new.unwrap_or(Weight::MAX)) as u64;
        let da = dl_old(old, i, e.a, &mut ws.dl_cache).dist() as u64;
        let db = dl_old(old, i, e.b, &mut ws.dl_cache).dist() as u64;
        let inf = INF as u64;
        if da + min_w < inf && da + min_w <= db {
            ws.heap.push(Reverse((da + min_w, e.b)));
        }
        if db + min_w < inf && db + min_w <= da {
            ws.heap.push(Reverse((db + min_w, e.a)));
        }
    }
    while let Some(Reverse((d, v))) = ws.heap.pop() {
        if !ws.aff.insert(v) {
            continue;
        }
        for &(w, wt) in g.weighted_neighbors(v) {
            let nd = d + wt as u64;
            if nd < INF as u64 && nd <= dl_old(old, i, w, &mut ws.dl_cache).dist() as u64 {
                ws.heap.push(Reverse((nd, w)));
            }
        }
    }
}

/// Weighted batch repair for landmark `i` (Algorithm 4 analogue,
/// heap-ordered by the packed landmark-length key); returns the
/// landmark's delta, like [`crate::repair::batch_repair`].
fn weighted_repair<W: WeightedAdjacencyView>(
    old: &Labelling,
    g: &W,
    i: usize,
    ws: &mut DijkstraWorkspace,
) -> RowDelta {
    let mut delta = RowDelta {
        labels: Vec::with_capacity(ws.aff.inserted().len()),
        highway: Vec::new(),
    };
    ws.heap.clear();
    ws.bounds.clear();
    for idx in 0..ws.aff.inserted().len() {
        let v = ws.aff.inserted()[idx];
        let v_is_lm = old.is_landmark(v);
        let mut best = LandmarkLength::INFINITE;
        for &(w, wt) in g.weighted_neighbors(v) {
            if ws.aff.contains(w) {
                continue;
            }
            let cand = dl_old(old, i, w, &mut ws.dl_cache).extend_by(wt, v_is_lm);
            if cand < best {
                best = cand;
            }
        }
        ws.bounds.set(v as usize, best.key());
        if !best.is_infinite() {
            ws.heap.push(Reverse((best.key(), v)));
        }
    }
    while let Some(Reverse((key, v))) = ws.heap.pop() {
        if !ws.aff.contains(v) {
            continue;
        }
        let bound = LandmarkLength::from_key(ws.bounds.get(v as usize).expect("queued ⇒ bounded"));
        if bound.key() != key {
            continue; // stale
        }
        ws.aff.remove(v);
        crate::repair::finalize(old, i, v, bound, &mut delta);
        for &(w, wt) in g.weighted_neighbors(v) {
            if !ws.aff.contains(w) {
                continue;
            }
            let cand = bound.extend_by(wt, old.is_landmark(w));
            let cur = ws
                .bounds
                .get(w as usize)
                .map(LandmarkLength::from_key)
                .unwrap_or(LandmarkLength::INFINITE);
            if cand < cur {
                ws.bounds.set(w as usize, cand.key());
                if !cand.is_infinite() {
                    ws.heap.push(Reverse((cand.key(), w)));
                }
            }
        }
    }
    for idx in 0..ws.aff.inserted().len() {
        let v = ws.aff.inserted()[idx];
        if ws.aff.contains(v) {
            ws.aff.remove(v);
            crate::repair::finalize(old, i, v, LandmarkLength::INFINITE, &mut delta);
        }
    }
    delta
}

/// Batch-dynamic distance index over a positively weighted graph.
pub type WeightedBatchIndex = Index<WeightedSnapshot>;

impl Family for WeightedSnapshot {
    const KIND: BackendFamily = BackendFamily::Weighted;
    const HONOURS_ALGORITHM: bool = false;
    const LABELLINGS: usize = 1;
    type Graph = WeightedGraph;
    type Labels = [Labelling; 1];
    type Update = WeightedUpdate;
    type Batch = [WeightedUpdate];
    type Norm = Vec<Effect>;
    type Workspace = DijkstraWorkspace;
    type View = WeightedCsrDelta;
    type Search = BiDijkstra;

    /// Construction runs one flagged Dijkstra per landmark, in turn
    /// (`threads` only parallelises updates on this family), into dense
    /// scratch rows packed once at the end.
    fn build(
        graph: &WeightedGraph,
        landmarks: Vec<Vertex>,
        _threads: usize,
    ) -> Result<Self, LabelError> {
        let n = graph.num_vertices();
        // An unlabelled labelling is the landmark map the Dijkstras read.
        let marks = Labelling::empty(n, landmarks.clone())?;
        let r = landmarks.len();
        let mut rows = vec![vec![NO_LABEL; n].into_boxed_slice(); r];
        let mut highway = vec![INF; r * r];
        // Construction Dijkstras run over the frozen CSR snapshot.
        let view = WeightedCsrDelta::from_weighted(graph);
        for (i, row) in rows.iter_mut().enumerate() {
            highway[i * r + i] = 0;
            for (v, ll) in flagged_dijkstra(&view, &marks, i) {
                if let Some(j) = marks.landmark_index(v) {
                    highway[i * r + j] = ll.dist();
                } else if !ll.through_landmark() {
                    row[v as usize] = ll.dist();
                }
            }
        }
        let lab = Labelling::from_parts(n, landmarks, rows, highway)?;
        Ok(WeightedSnapshot { lab, view })
    }

    fn assemble(graph: &WeightedGraph, [lab]: [Labelling; 1]) -> Self {
        let view = WeightedCsrDelta::from_weighted(graph);
        WeightedSnapshot { lab, view }
    }

    fn graph_of(view: &WeightedCsrDelta) -> WeightedGraph {
        let n = view.num_vertices() as Vertex;
        WeightedGraph::try_from_adjacency((0..n).map(|v| view.list(v).to_vec()).collect())
            .expect("a published view is a valid graph")
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

    /// Not reached (`HONOURS_ALGORITHM` is false): the whole batch is
    /// one pass.
    fn split(norm: Vec<Effect>) -> (Vec<Effect>, Vec<Effect>) {
        (norm, Vec::new())
    }

    fn pass(
        graph: &mut WeightedGraph,
        old: &Self,
        effects: Vec<Effect>,
        config: &IndexConfig,
        ws: &mut DijkstraWorkspace,
        stats: &mut UpdateStats,
    ) -> Option<Self> {
        if effects.is_empty() {
            return None;
        }
        apply_effects(graph, &effects, stats);
        stats.applied = effects.len();

        let n = graph.num_vertices();
        ws.grow(n);

        // Freeze the batch's endpoints into the weighted CSR view; the
        // Dijkstra searches below traverse it.
        let mut view = old.view.clone();
        view.set_policy(config.compaction);
        let mut touched: Vec<Vertex> = effects.iter().flat_map(|e| [e.a, e.b]).collect();
        touched.sort_unstable();
        touched.dedup();
        view.absorb_from(graph, touched);
        let (lab, affected) = engine::run_landmarks(
            &DijkstraKernel,
            &engine::oracle_for(&old.lab, n),
            &view,
            &effects,
            config,
            ws,
        );
        stats.affected_per_landmark = affected;
        Some(WeightedSnapshot { lab, view })
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

    fn speculate(&self, effects: &Vec<Effect>) -> (WeightedCsrDelta, Vec<LabelPatch>) {
        let mut view = self.view.clone();
        let n = grown_n(effects.iter().map(|e| (e.a, e.b)), view.num_vertices());
        view.ensure_vertices(n);
        let changes = effects.iter().flat_map(|e| {
            let (a, b) = (e.a, e.b);
            [
                (a, b, e.w_new.map(|w| (b, w))),
                (b, a, e.w_new.map(|w| (a, w))),
            ]
        });
        let key = |&(x, _): &(Vertex, Weight)| x;
        rewrite_lists(
            &mut view,
            changes,
            key,
            WeightedCsrDelta::list,
            WeightedCsrDelta::set_vertex,
        );
        let patch = engine::run_landmarks_speculative(
            &DijkstraKernel,
            &engine::oracle_for(&self.lab, n),
            &view,
            effects,
        );
        (view, vec![patch])
    }

    fn write_graph(graph: &WeightedGraph, out: &mut dyn Write) -> Result<(), PersistError> {
        out.write_all(&weighted_bin_len(graph).to_le_bytes())?;
        Ok(write_weighted_bin(graph, out)?)
    }

    fn read_graph<R: Read>(r: &mut R) -> Result<WeightedGraph, BinGraphError> {
        read_weighted_bin(r)
    }

    /// No minimality audit on the weighted family (the highway-cover
    /// minimality characterization is defined for unweighted
    /// labellings); sampled Dijkstra truth covers the query surface.
    fn audit(&self, _graph: &WeightedGraph) -> Result<(), String> {
        Ok(())
    }

    fn truth(graph: &WeightedGraph, s: Vertex) -> Vec<Dist> {
        dijkstra(graph, s)
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

/// Apply normalized effects to the writer graph, counting them.
fn apply_effects(graph: &mut WeightedGraph, effects: &[Effect], stats: &mut UpdateStats) {
    for e in effects {
        match (e.w_old, e.w_new) {
            (None, Some(w)) => {
                graph.ensure_vertices(e.a.max(e.b) as usize + 1);
                graph.insert_edge(e.a, e.b, w);
                stats.insertions += 1;
            }
            (Some(_), None) => {
                graph.remove_edge(e.a, e.b);
                stats.deletions += 1;
            }
            (Some(_), Some(w)) => {
                graph.set_weight(e.a, e.b, w);
                // Weight changes count toward the kind they mimic.
                if Some(w) < e.w_old {
                    stats.insertions += 1;
                } else {
                    stats.deletions += 1;
                }
            }
            (None, None) => unreachable!("normalization keeps valid effects only"),
        }
    }
}

/// Flagged Dijkstra from landmark `i`: `(vertex, d^L)` for all reached
/// vertices, flags as in the flagged BFS of the unweighted build.
fn flagged_dijkstra<W: WeightedAdjacencyView>(
    g: &W,
    lab: &Labelling,
    i: usize,
) -> Vec<(Vertex, LandmarkLength)> {
    let n = g.num_vertices();
    let root = lab.landmark_vertex(i);
    let mut best: Vec<u64> = vec![LandmarkLength::INFINITE.key(); n];
    let mut heap: BinaryHeap<Reverse<(u64, Vertex)>> = BinaryHeap::new();
    best[root as usize] = LandmarkLength::ZERO.key();
    heap.push(Reverse((LandmarkLength::ZERO.key(), root)));
    while let Some(Reverse((key, v))) = heap.pop() {
        if key > best[v as usize] {
            continue;
        }
        let ll = LandmarkLength::from_key(key);
        for &(w, wt) in g.weighted_neighbors(v) {
            let cand = ll.extend_by(wt, lab.is_landmark(w));
            if cand.key() < best[w as usize] {
                best[w as usize] = cand.key();
                heap.push(Reverse((cand.key(), w)));
            }
        }
    }
    (0..n as Vertex)
        .filter(|&v| v != root)
        .map(|v| (v, LandmarkLength::from_key(best[v as usize])))
        .filter(|(_, ll)| !ll.is_infinite())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_common::SplitMix64;

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
                let want = bruteforce(idx.graph(), idx.labelling().landmarks().to_vec());
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
            let g = idx.graph().clone();
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
