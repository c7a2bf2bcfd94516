//! The batch-dynamic index (Algorithm 1 and its variants), written once
//! for every graph family, and the undirected family.
//!
//! [`Index<F>`] separates the two roles a production index serves:
//!
//! * **Writer** — the index owns a mutable working snapshot (graph +
//!   labelling `Γ′`) that [`Index::apply_batch`] repairs in place,
//!   reading the immutable published generation `Γ` as the
//!   old-labelling oracle of Algorithm 1.
//! * **Readers** — [`Index::reader`] hands out cheap `Send + Sync`
//!   [`GenReader`] handles that answer queries against the published
//!   generation without locks, even while a batch is being applied on
//!   another thread.
//!
//! After repair the working snapshot is published with a single atomic
//! swap and the previous generation's buffers are recycled (only the
//! affected entries are re-synced), so the steady-state cost per batch
//! is `O(affected + batch)`, not `O(|R|·|V|)`.
//!
//! What differs between families is the [`Family`] parameter:
//! [`BatchIndex`] is `Index<IndexSnapshot>` (this module),
//! `DirectedBatchIndex` and `WeightedBatchIndex` are the same index over
//! [`crate::DirectedSnapshot`] and [`crate::WeightedSnapshot`]. The
//! per-landmark search→repair loop lives in [`crate::engine`];
//! `threads > 1` in the config runs it with landmark-level parallelism
//! (BHLₚ, Section 6).

use crate::backend::{unweighted_batch, BackendFamily, Edit, OracleError};
use crate::engine::{self, BfsKernel};
use crate::family::Family;
use crate::persist::PersistError;
use crate::reader::{query_many_on, GenReader, SharedReader};
use crate::stats::UpdateStats;
use crate::whatif::{grown_n, rewrite_lists};
use crate::workspace::UpdateWorkspace;
use batchhl_common::{Dist, Vertex, INF};
use batchhl_graph::bfs::{bfs_distances, BiBfs};
use batchhl_graph::io::{graph_bin_len, read_graph_bin, write_graph_bin, BinGraphError};
use batchhl_graph::{Batch, CsrDelta, DynamicGraph, Update, VertexRemap};
use batchhl_hcl::{
    build_labelling_parallel, oracle, DegreeOrder, LabelError, LabelPatch, LabelStore, Labelling,
    LandmarkSelection, Versioned,
};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::Instant;

pub use batchhl_graph::csr::CompactionPolicy;

/// Which published variant performs the update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// BHL: basic batch search (Algorithm 2) + batch repair.
    Bhl,
    /// BHL⁺: improved batch search (Algorithm 3) + batch repair.
    BhlPlus,
    /// BHLₛ: deletions and insertions processed as two sequential
    /// sub-batches (each with the basic search).
    BhlS,
    /// UHL: every update processed alone (single-update setting).
    Uhl,
    /// UHL⁺: single-update setting with the improved search.
    UhlPlus,
}

impl Algorithm {
    pub(crate) fn improved_search(self) -> bool {
        matches!(self, Algorithm::BhlPlus | Algorithm::UhlPlus)
    }

    /// Display name matching the paper's tables.
    pub fn paper_name(self) -> &'static str {
        match self {
            Algorithm::Bhl => "BHL",
            Algorithm::BhlPlus => "BHL+",
            Algorithm::BhlS => "BHLs",
            Algorithm::Uhl => "UHL",
            Algorithm::UhlPlus => "UHL+",
        }
    }
}

/// Index configuration.
#[derive(Debug, Clone)]
pub struct IndexConfig {
    /// How to choose the landmark set (paper default: 20 top-degree).
    pub selection: LandmarkSelection,
    /// Update variant, honoured by the undirected and directed
    /// families. The weighted family runs one basic pass per batch
    /// whatever is set here (and its checkpoints do not record it).
    pub algorithm: Algorithm,
    /// Worker threads for construction and updates. `> 1` turns BHL⁺
    /// into the paper's BHLₚ.
    pub threads: usize,
    /// When published CSR views compact their delta overlay — one
    /// policy shared by all index families (undirected, directed,
    /// weighted).
    pub compaction: CompactionPolicy,
}

impl Default for IndexConfig {
    fn default() -> Self {
        IndexConfig {
            selection: LandmarkSelection::paper_default(),
            algorithm: Algorithm::BhlPlus,
            threads: 1,
            compaction: CompactionPolicy::default(),
        }
    }
}

/// Batch-dynamic distance index over the graph family `F`.
///
/// Cloning copies the working snapshot into an independent index with
/// its own (single-generation) store; reader handles of the original
/// keep following the original.
pub struct Index<F: Family> {
    /// The writer's working snapshot: the current graph and `Γ′`.
    pub(crate) work: F,
    /// Published generations; outside `apply_batch` the newest one has
    /// the same content as `work`.
    store: LabelStore<F>,
    /// Retired-buffer recycling (see [`engine::Recycler`]).
    recycler: engine::Recycler<F, F::Log>,
    /// Holds the CSR compaction policy too — it is re-applied to the
    /// view every pass, because publish/recycle swaps the working
    /// snapshot for a buffer that predates any setter call.
    config: IndexConfig,
    ws: F::Workspace,
    engine: F::Search,
}

/// Batch-dynamic distance index over an undirected graph.
pub type BatchIndex = Index<IndexSnapshot>;

impl<F: Family> Clone for Index<F> {
    fn clone(&self) -> Self {
        Index::new(self.work.clone(), self.config.clone())
    }
}

impl<F: Family> Index<F> {
    /// Build the index: select landmarks, freeze the graph into a CSR
    /// snapshot and construct the minimal labelling(s) over it
    /// (`O(|R|·(|V|+|E|))` per labelling). Errors on an invalid
    /// explicit landmark list.
    pub fn try_build(graph: F::Graph, config: IndexConfig) -> Result<Self, LabelError> {
        let landmarks = config.selection.select(&graph);
        let work = F::build(graph, landmarks, config.threads.max(1))?;
        Ok(Index::new(work, config))
    }

    pub(crate) fn new(work: F, config: IndexConfig) -> Self {
        Index {
            store: LabelStore::new(work.clone()),
            work,
            recycler: engine::Recycler::default(),
            config,
            ws: F::Workspace::default(),
            engine: F::Search::default(),
        }
    }

    /// Use `threads` workers for landmark-parallel updates (BHLₚ).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Tune when the published CSR view compacts its delta overlay into
    /// a fresh base snapshot (see [`CompactionPolicy`]; normally set up
    /// front through [`IndexConfig::compaction`]).
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        self.config.compaction = policy;
        self.work.set_compaction(policy);
    }

    pub fn graph(&self) -> &F::Graph {
        self.work.graph()
    }

    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    pub fn num_vertices(&self) -> usize {
        self.work.graph().num_vertices()
    }

    /// Combined logical size of the labelling(s) in bytes.
    pub fn size_bytes(&self) -> usize {
        self.work.labellings().iter().map(|l| l.size_bytes()).sum()
    }

    /// The most recently published generation (what readers see).
    pub fn published(&self) -> Arc<Versioned<F>> {
        self.store.snapshot()
    }

    /// The version number of the published generation. Bumps once per
    /// search→repair pass (so once per batch for BHL/BHL⁺, once per
    /// sub-batch for BHLₛ, once per update for UHL/UHL⁺).
    pub fn version(&self) -> u64 {
        self.store.version()
    }

    /// A `Send + Sync` query handle over the published generations.
    ///
    /// Readers are independent of the index value: they can be moved to
    /// other threads and keep answering (against the freshest published
    /// generation) while [`Index::apply_batch`] runs.
    pub fn reader(&self) -> GenReader<F> {
        GenReader::new(self.store.reader())
    }

    /// A `Send + Sync` query handle whose queries take `&self` (shared
    /// across serving threads without cloning): the handle re-pins the
    /// freshest generation internally. See [`SharedReader`].
    pub fn shared_reader(&self) -> SharedReader<F> {
        SharedReader::new(self.store.clone())
    }

    /// Exact distance (`d(s → t)` on directed graphs), `None` when
    /// disconnected (Section 4: labelling upper bound + bounded
    /// bidirectional search on `G[V\R]`, run over the CSR view).
    /// Answers against the published generation, which outside
    /// [`Index::apply_batch`] holds the owner's latest batch and whose
    /// packed mirror the writer sealed at publication. (The working
    /// snapshot is a recycled buffer whose mirror is dropped on every
    /// pass; querying it would repack all `|R|·|V|` cells.)
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        let d = self.query_dist(s, t);
        (d != INF).then_some(d)
    }

    /// As [`Index::query`], returning `INF` for disconnected or
    /// out-of-range pairs.
    pub fn query_dist(&mut self, s: Vertex, t: Vertex) -> Dist {
        self.store.snapshot().query_dist(&mut self.engine, s, t)
    }

    /// Batched pair queries: groups the pairs by source and reuses the
    /// per-source label plan across each group (see
    /// [`batchhl_hcl::SourcePlan`]). Order of results matches `pairs`.
    pub fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        query_many_on(self.store.snapshot().value(), &mut self.engine, pairs)
    }

    /// One-source-to-many-targets distances (the batched fast path:
    /// one generation, one source plan, one sweep for large target
    /// sets). `None` marks disconnected or out-of-range endpoints.
    pub fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        self.store
            .snapshot()
            .distances_from(&mut self.engine, s, targets)
    }

    /// The `k` vertices closest to `s` (excluding `s`), nondecreasing
    /// by distance.
    pub fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        self.store.snapshot().top_k(&mut self.engine, s, k)
    }

    /// Apply a batch of updates and repair the labelling(s)
    /// (Algorithm 1, dispatched per the configured [`Algorithm`] on the
    /// families that honour it).
    pub fn apply_batch(&mut self, batch: &F::Batch) -> UpdateStats {
        let start = Instant::now();
        let algorithm = if F::HONOURS_ALGORITHM {
            self.config.algorithm
        } else {
            Algorithm::Bhl
        };
        let mut stats = match algorithm {
            Algorithm::Bhl | Algorithm::BhlPlus => {
                let norm = self.work.normalize(batch);
                self.run_pass(norm)
            }
            Algorithm::BhlS => {
                let (deletions, insertions) = F::split(self.work.normalize(batch));
                let mut s = self.run_pass(deletions);
                s.absorb(self.run_pass(insertions));
                s
            }
            Algorithm::Uhl | Algorithm::UhlPlus => {
                let mut s = UpdateStats::default();
                for &u in F::updates(batch) {
                    let norm = self.work.normalize(&F::single(u));
                    s.absorb(self.run_pass(norm));
                }
                s
            }
        };
        stats.elapsed = start.elapsed();
        stats
    }

    /// Rebuild the labelling(s) from scratch (used by tests) and publish
    /// the result as a new generation.
    pub fn rebuild(&mut self) {
        let landmarks = self.work.labellings()[0].landmarks().to_vec();
        let graph = self.work.graph().clone();
        self.work = F::build(graph, landmarks, self.config.threads.max(1))
            .expect("existing landmarks are valid");
        self.store.publish(self.work.clone());
        // Retained retired buffers predate the rebuild; replaying pass
        // logs over them would skip the rebuild's changes.
        self.recycler.clear();
    }

    /// Reset the writer to the generation captured in `snap` and
    /// republish it, so readers re-pin content identical to `snap`
    /// under a fresh version number. Used by the facade to roll back a
    /// batch whose application failed mid-way: the working snapshot may
    /// be arbitrarily damaged (even mid-panic), but `snap` is immutable
    /// and shares its CSR base + label buffers behind `Arc`s, so the
    /// restore is a cheap clone. Workspaces are rebuilt from scratch —
    /// they may hold state from the aborted pass.
    pub(crate) fn restore_generation(&mut self, snap: &F) {
        self.work = snap.clone();
        self.work.set_compaction(self.config.compaction);
        self.store.publish(self.work.clone());
        self.recycler.clear();
        self.ws = F::Workspace::default();
        self.engine = F::Search::default();
    }

    /// One search+repair pass over a normalized, conflict-free batch:
    /// mutate the working graph, repair `Γ′` against the published `Γ`,
    /// publish, and rebuild the working buffer from a retired
    /// generation (replay the logged pass on its graph, re-freeze the
    /// replayed endpoints into its CSR view, and copy back only the
    /// entries the pass repaired).
    fn run_pass(&mut self, norm: F::Norm) -> UpdateStats {
        let mut stats = UpdateStats {
            passes: 1,
            ..Default::default()
        };
        let old = self.store.snapshot();
        self.recycler.prepare(old.value(), F::replay);
        let Some(log) = self
            .work
            .pass(old.value(), norm, &self.config, &mut self.ws, &mut stats)
        else {
            return stats;
        };
        stats.affected_total = stats.affected_per_landmark.iter().sum();
        let cloned = engine::publish_pass(
            &self.store,
            &mut self.recycler,
            &mut self.work,
            F::placeholder(),
            old,
            log,
            F::replay,
        );
        stats.generation_clones = usize::from(cloned);
        stats
    }
}

/// One immutable generation of the undirected index: the graph, the
/// labelling that describes it, and the frozen CSR view of the graph
/// that queries and landmark searches traverse. Readers always see a
/// whole snapshot — never a labelling paired with a graph from a
/// different generation.
///
/// `graph` is the writer's mutation substrate (and the replay source
/// for buffer recycling); `view` is the publication format: a flat CSR
/// base shared across generations plus the delta overlay of the
/// batches since the last compaction (see [`batchhl_graph::csr`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSnapshot {
    pub graph: DynamicGraph,
    pub lab: Labelling,
    pub view: CsrDelta,
}

/// What one undirected pass changed.
#[derive(Debug)]
pub struct PassLog {
    norm: Batch,
    /// Distinct endpoints of `norm` — the vertices the CSR overlay
    /// must re-freeze after replaying the batch.
    touched: Vec<Vertex>,
    affected: engine::AffectedLists,
}

impl Family for IndexSnapshot {
    const KIND: BackendFamily = BackendFamily::Undirected;
    const HONOURS_ALGORITHM: bool = true;
    const LABELLINGS: usize = 1;
    type Graph = DynamicGraph;
    type Labels = [Labelling; 1];
    type Update = Update;
    type Batch = Batch;
    type Norm = Batch;
    type Log = PassLog;
    type Workspace = UpdateWorkspace;
    type View = CsrDelta;
    type Search = BiBfs;

    fn build(
        graph: DynamicGraph,
        landmarks: Vec<Vertex>,
        threads: usize,
    ) -> Result<Self, LabelError> {
        let view = CsrDelta::from_adjacency(&graph);
        let lab = build_labelling_parallel(&view, landmarks, threads)?;
        Ok(IndexSnapshot { graph, lab, view })
    }

    fn assemble(graph: DynamicGraph, [lab]: [Labelling; 1]) -> Self {
        let view = CsrDelta::from_adjacency(&graph);
        IndexSnapshot { graph, lab, view }
    }

    fn graph(&self) -> &DynamicGraph {
        &self.graph
    }

    fn view(&self) -> &CsrDelta {
        &self.view
    }

    fn labellings(&self) -> Vec<&Labelling> {
        vec![&self.lab]
    }

    fn query_labels(&self) -> (&Labelling, &Labelling) {
        (&self.lab, &self.lab)
    }

    fn set_compaction(&mut self, policy: CompactionPolicy) {
        self.view.set_policy(policy);
    }

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        self.graph.neighbors(v).to_vec()
    }

    fn updates(batch: &Batch) -> &[Update] {
        batch.updates()
    }

    fn single(update: Update) -> Box<Batch> {
        Box::new(Batch::from_updates(vec![update]))
    }

    fn normalize(&self, batch: &Batch) -> Batch {
        batch.normalize(&self.graph)
    }

    fn split(norm: Batch) -> (Batch, Batch) {
        norm.split()
    }

    fn pass(
        &mut self,
        old: &Self,
        norm: Batch,
        config: &IndexConfig,
        ws: &mut UpdateWorkspace,
        stats: &mut UpdateStats,
    ) -> Option<PassLog> {
        if norm.is_empty() {
            return None;
        }
        stats.applied = self.graph.apply_batch(&norm);
        debug_assert_eq!(stats.applied, norm.len(), "normalized batches are valid");
        stats.insertions = norm.num_insertions();
        stats.deletions = norm.num_deletions();

        let n = self.graph.num_vertices();
        self.lab.ensure_vertices(n);
        ws.grow(n);

        // Freeze the batch's endpoints into the CSR view (and compact
        // when the overlay crossed its threshold): everything below —
        // landmark searches, repair relaxation, owner and reader
        // queries — traverses this view, never the Vec<Vec<_>> graph.
        let touched = norm.touched_vertices();
        self.view.set_policy(config.compaction);
        let graph = &self.graph;
        self.view
            .absorb(n, touched.iter().copied(), |v| graph.neighbors(v));
        let affected = engine::run_landmarks(
            &BfsKernel {
                improved: config.algorithm.improved_search(),
                directed: false,
            },
            &engine::oracle_for(&old.lab, n),
            &self.view,
            norm.updates(),
            &mut self.lab,
            config,
            ws,
        );
        stats.affected_per_landmark = affected.iter().map(Vec::len).collect();
        Some(PassLog {
            norm,
            touched,
            affected,
        })
    }

    fn replay(buf: &mut Self, fresh: &Self, log: &PassLog) {
        buf.graph.apply_batch(&log.norm);
        let graph = &buf.graph;
        buf.view
            .absorb(graph.num_vertices(), log.touched.iter().copied(), |v| {
                graph.neighbors(v)
            });
        engine::sync_affected(&fresh.lab, &mut buf.lab, &log.affected);
    }

    fn from_edits(edits: &[Edit]) -> Result<Box<Batch>, OracleError> {
        unweighted_batch(edits, Self::KIND).map(Box::new)
    }

    fn speculate(&self, norm: &Batch) -> (CsrDelta, Vec<LabelPatch>) {
        let mut view = self.view.clone();
        let n = grown_n(
            norm.updates().iter().map(|u| u.endpoints()),
            view.num_vertices(),
        );
        view.ensure_vertices(n);
        let changes = norm.updates().iter().flat_map(|u| {
            let ((a, b), kept) = (u.endpoints(), u.is_insert());
            [(a, b, kept.then_some(b)), (b, a, kept.then_some(a))]
        });
        rewrite_lists(
            &mut view,
            changes,
            |&x| x,
            CsrDelta::list,
            CsrDelta::set_vertex,
        );
        let patch = engine::run_landmarks_speculative(
            &BfsKernel {
                improved: true,
                directed: false,
            },
            &engine::oracle_for(&self.lab, n),
            &view,
            norm.updates(),
        );
        (view, vec![patch])
    }

    fn write_graph(graph: &DynamicGraph, out: &mut dyn Write) -> Result<(), PersistError> {
        out.write_all(&graph_bin_len(graph).to_le_bytes())?;
        Ok(write_graph_bin(graph, out)?)
    }

    fn read_graph<R: Read>(r: &mut R) -> Result<DynamicGraph, BinGraphError> {
        read_graph_bin(r)
    }

    fn audit(&self) -> Result<(), String> {
        oracle::check_minimal(&self.graph, &self.lab)
    }

    fn truth(&self, s: Vertex) -> Vec<Dist> {
        bfs_distances(&self.graph, s)
    }
}

impl BatchIndex {
    /// Build with the given configuration; panics on an invalid
    /// explicit landmark list (see [`Index::try_build`]).
    pub fn build(graph: DynamicGraph, config: IndexConfig) -> Self {
        Self::try_build(graph, config).expect("selected landmarks are valid")
    }

    /// Build over a degree-descending relabeling of `graph`: vertices
    /// are renumbered so hubs get the smallest ids, packing the hottest
    /// neighbourhoods into the front of the CSR arrays. The returned
    /// [`VertexRemap`] translates between original and index ids
    /// (`remap.to_new` for query endpoints, `remap.map_batch` for
    /// updates).
    pub fn new_reordered(graph: DynamicGraph, config: IndexConfig) -> (Self, VertexRemap) {
        let remap = VertexRemap::degree_descending(&graph);
        let relabeled = graph.relabeled(&remap);
        (Self::build(relabeled, config), remap)
    }

    pub fn labelling(&self) -> &Labelling {
        &self.work.lab
    }

    /// Full semantic audit: the labelling must equal the unique minimal
    /// highway cover labelling of the current graph. `O(|R|·(|V|+|E|))`
    /// — intended for tests and offline checks, not the hot path.
    pub fn verify(&self) -> Result<(), String> {
        self.work.audit()
    }
}

/// Helpers shared by the unit tests of every family.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use batchhl_graph::AdjacencyView;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// `k` top-degree landmarks, `algorithm`, one thread.
    pub(crate) fn config(algorithm: Algorithm, k: usize) -> IndexConfig {
        IndexConfig {
            selection: LandmarkSelection::TopDegree(k),
            algorithm,
            ..IndexConfig::default()
        }
    }

    /// Up to `size` random toggles: remove the pair (arc) if present,
    /// insert it otherwise; self-loops are skipped.
    pub(crate) fn random_batch<G: AdjacencyView>(g: &G, size: usize, rng: &mut StdRng) -> Batch {
        let n = g.num_vertices() as Vertex;
        let mut b = Batch::new();
        for _ in 0..size {
            let (a, c) = (rng.gen_range(0..n), rng.gen_range(0..n));
            if a == c {
                continue;
            }
            if g.out_neighbors(a).contains(&c) {
                b.delete(a, c);
            } else {
                b.insert(a, c);
            }
        }
        b
    }
}

#[cfg(test)]
mod tests {
    use super::testing::{config, random_batch};
    use super::*;
    use batchhl_graph::generators::{barabasi_albert, erdos_renyi_gnm, path};
    use batchhl_hcl::oracle;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Core invariant: after any update sequence, the maintained
    /// labelling equals the from-scratch minimal labelling (unique!).
    fn assert_tracks_rebuild(algorithm: Algorithm, seed: u64) {
        let g0 = erdos_renyi_gnm(70, 150, seed);
        let mut index = BatchIndex::build(g0, config(algorithm, 5));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for round in 0..6 {
            let batch = random_batch(index.graph(), 12, &mut rng);
            index.apply_batch(&batch);
            oracle::check_minimal(index.graph(), index.labelling())
                .unwrap_or_else(|e| panic!("{algorithm:?} seed {seed} round {round}: {e}"));
            let published = index.published();
            assert_eq!(
                &published.lab,
                index.labelling(),
                "published generation out of sync after round {round}"
            );
            assert_eq!(&published.graph, index.graph());
        }
    }

    #[test]
    fn bhl_tracks_rebuild() {
        for seed in 0..6 {
            assert_tracks_rebuild(Algorithm::Bhl, seed);
        }
    }

    #[test]
    fn bhl_plus_tracks_rebuild() {
        for seed in 0..6 {
            assert_tracks_rebuild(Algorithm::BhlPlus, seed);
        }
    }

    #[test]
    fn bhl_s_tracks_rebuild() {
        for seed in 0..4 {
            assert_tracks_rebuild(Algorithm::BhlS, seed);
        }
    }

    #[test]
    fn uhl_variants_track_rebuild() {
        assert_tracks_rebuild(Algorithm::Uhl, 1);
        assert_tracks_rebuild(Algorithm::UhlPlus, 2);
    }

    #[test]
    fn queries_stay_exact_under_updates() {
        let g0 = barabasi_albert(120, 3, 3);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 6));
        let mut rng = StdRng::seed_from_u64(99);
        for _ in 0..4 {
            let batch = random_batch(index.graph(), 15, &mut rng);
            index.apply_batch(&batch);
            let truth = oracle::all_pairs_bfs(index.graph());
            for s in (0..120u32).step_by(5) {
                for t in (0..120u32).step_by(7) {
                    assert_eq!(
                        index.query_dist(s, t),
                        truth[s as usize][t as usize],
                        "query({s},{t})"
                    );
                }
            }
        }
    }

    #[test]
    fn owner_queries_read_the_sealed_published_generation() {
        let g0 = barabasi_albert(200, 3, 8);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 6));
        let mut rng = StdRng::seed_from_u64(23);
        let pairs: Vec<(Vertex, Vertex)> =
            (0..40u32).map(|i| (i * 5, (i * 37 + 11) % 200)).collect();
        let targets: Vec<Vertex> = (0..200u32).step_by(3).collect();
        let mut recycled = 0;
        for round in 0..5 {
            let batch = random_batch(index.graph(), 10, &mut rng);
            let stats = index.apply_batch(&batch);
            let owner: Vec<Dist> = pairs.iter().map(|&(s, t)| index.query_dist(s, t)).collect();
            let owner_many = index.query_many(&pairs);
            let owner_from = index.distances_from(7, &targets);
            let owner_top = index.top_k_closest(7, 10);
            if stats.generation_clones == 0 {
                // The writer buffer came back from the recycler with
                // its mirror dropped; an owner query must not repack it.
                recycled += 1;
                assert!(
                    !index.labelling().packed_is_sealed(),
                    "round {round}: an owner query packed the writer's buffer"
                );
            }
            let mut reader = index.reader();
            let read: Vec<Dist> = pairs
                .iter()
                .map(|&(s, t)| reader.query_dist(s, t))
                .collect();
            assert_eq!(owner, read, "round {round}");
            assert_eq!(owner_many, reader.query_many(&pairs), "round {round}");
            assert_eq!(owner_from, reader.distances_from(7, &targets));
            assert_eq!(owner_top, reader.top_k_closest(7, 10));
        }
        assert!(recycled > 0, "no pass reused a retired buffer");
    }

    #[test]
    fn all_variants_converge_to_same_labelling() {
        let g0 = erdos_renyi_gnm(80, 180, 5);
        let mut rng = StdRng::seed_from_u64(7);
        let batch = random_batch(&g0, 25, &mut rng);
        let mut labellings = Vec::new();
        for alg in [
            Algorithm::Bhl,
            Algorithm::BhlPlus,
            Algorithm::BhlS,
            Algorithm::Uhl,
            Algorithm::UhlPlus,
        ] {
            let mut index = BatchIndex::build(g0.clone(), config(alg, 6));
            index.apply_batch(&batch);
            labellings.push((alg, index.work.lab));
        }
        for w in labellings.windows(2) {
            assert_eq!(w[0].1, w[1].1, "{:?} and {:?} disagree", w[0].0, w[1].0);
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let g0 = barabasi_albert(150, 3, 8);
        let mut rng = StdRng::seed_from_u64(21);
        let batch = random_batch(&g0, 20, &mut rng);
        let mut seq = BatchIndex::build(g0.clone(), config(Algorithm::BhlPlus, 8));
        seq.apply_batch(&batch);
        for threads in [2, 3, 8] {
            let mut cfg = config(Algorithm::BhlPlus, 8);
            cfg.threads = threads;
            let mut par = BatchIndex::build(g0.clone(), cfg);
            let stats = par.apply_batch(&batch);
            assert_eq!(seq.work.lab, par.work.lab, "threads={threads}");
            assert_eq!(
                &par.published().lab,
                par.labelling(),
                "published sync, threads={threads}"
            );
            assert!(stats.affected_total > 0);
        }
    }

    #[test]
    fn affected_counts_bhl_plus_never_exceed_bhl() {
        let g0 = erdos_renyi_gnm(100, 220, 11);
        let mut rng = StdRng::seed_from_u64(13);
        let batch = random_batch(&g0, 18, &mut rng);
        let mut basic = BatchIndex::build(g0.clone(), config(Algorithm::Bhl, 6));
        let mut plus = BatchIndex::build(g0, config(Algorithm::BhlPlus, 6));
        let sb = basic.apply_batch(&batch);
        let sp = plus.apply_batch(&batch);
        assert!(
            sp.affected_total <= sb.affected_total,
            "BHL+ affected {} > BHL {}",
            sp.affected_total,
            sb.affected_total
        );
    }

    #[test]
    fn empty_and_invalid_batches_are_noops() {
        let g0 = path(10);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 2));
        let before = index.work.lab.clone();
        let stats = index.apply_batch(&Batch::new());
        assert_eq!(stats.applied, 0);
        let mut b = Batch::new();
        b.insert(0, 1); // already present
        b.delete(0, 5); // absent
        b.insert(3, 3); // self-loop
        let stats = index.apply_batch(&b);
        assert_eq!(stats.applied, 0);
        assert_eq!(index.work.lab, before);
    }

    #[test]
    fn batch_with_new_vertices_grows_index() {
        let g0 = path(5);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 2));
        // Out-of-range endpoints answer "disconnected", never panic.
        for (s, t) in [(9, 0), (0, 9), (9, 9)] {
            assert_eq!(index.query_dist(s, t), INF, "({s},{t})");
            assert_eq!(index.query(s, t), None, "({s},{t})");
        }
        let mut b = Batch::new();
        b.insert(4, 9); // vertex 9 does not exist yet
        index.apply_batch(&b);
        assert_eq!(index.num_vertices(), 10);
        assert_eq!(index.query(0, 9), Some(5));
        assert_eq!(index.query(0, 7), None, "7 is isolated");
        oracle::check_minimal(index.graph(), index.labelling()).unwrap();
        assert_eq!(index.published().lab, index.work.lab);
    }

    #[test]
    fn insert_then_delete_round_trips() {
        let g0 = barabasi_albert(100, 2, 17);
        let mut index = BatchIndex::build(g0.clone(), config(Algorithm::BhlPlus, 4));
        let baseline = index.work.lab.clone();
        let mut ins = Batch::new();
        ins.insert(0, 50);
        ins.insert(13, 77);
        let del = ins.inverse();
        index.apply_batch(&ins);
        index.apply_batch(&del);
        assert_eq!(index.graph(), &g0);
        assert_eq!(
            index.work.lab, baseline,
            "labelling must round-trip (uniqueness)"
        );
    }

    #[test]
    fn rebuild_agrees_with_incremental() {
        let g0 = erdos_renyi_gnm(60, 140, 23);
        let mut index = BatchIndex::build(g0, config(Algorithm::Bhl, 5));
        let mut rng = StdRng::seed_from_u64(31);
        let batch = random_batch(index.graph(), 20, &mut rng);
        index.apply_batch(&batch);
        let incremental = index.work.lab.clone();
        index.rebuild();
        assert_eq!(index.work.lab, incremental);
    }

    #[test]
    fn versions_advance_per_pass() {
        let g0 = path(8);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 2));
        assert_eq!(index.version(), 0);
        let mut b = Batch::new();
        b.insert(0, 5);
        index.apply_batch(&b);
        assert_eq!(index.version(), 1);
        // UHL publishes one generation per update.
        let g1 = path(8);
        let mut single = BatchIndex::build(g1, config(Algorithm::Uhl, 2));
        let mut b = Batch::new();
        b.insert(0, 4);
        b.insert(1, 6);
        single.apply_batch(&b);
        assert_eq!(single.version(), 2);
    }

    #[test]
    fn reordered_index_answers_original_queries() {
        let g = barabasi_albert(120, 3, 9);
        let mut plain = BatchIndex::build(g.clone(), config(Algorithm::BhlPlus, 6));
        let (mut reordered, remap) = BatchIndex::new_reordered(g, config(Algorithm::BhlPlus, 6));
        // The hub owns id 0 in the reordered index.
        assert_eq!(reordered.graph().vertices_by_degree()[0], 0);
        for s in (0..120u32).step_by(7) {
            for t in (0..120u32).step_by(5) {
                assert_eq!(
                    reordered.query_dist(remap.to_new(s), remap.to_new(t)),
                    plain.query_dist(s, t),
                    "query({s},{t})"
                );
            }
        }
        // Updates expressed in original ids flow through map_batch.
        let mut b = Batch::new();
        b.insert(3, 117);
        b.delete(0, 1);
        plain.apply_batch(&b);
        reordered.apply_batch(&remap.map_batch(&b));
        oracle::check_minimal(reordered.graph(), reordered.labelling()).unwrap();
        for s in (0..120u32).step_by(11) {
            for t in (0..120u32).step_by(3) {
                assert_eq!(
                    reordered.query_dist(remap.to_new(s), remap.to_new(t)),
                    plain.query_dist(s, t),
                    "post-batch query({s},{t})"
                );
            }
        }
    }

    /// Regression: `top_k_closest` used to cut the BFS sweep mid-level
    /// at the `k+1` cap, so among equal-distance vertices at the k-th
    /// boundary the answer depended on adjacency iteration order — the
    /// same query could differ before and after CSR compaction or
    /// `new_reordered` relabeling of an identical graph. The sweep now
    /// finishes the boundary level and ties break by vertex id.
    #[test]
    fn top_k_closest_is_stable_across_compaction_and_relabeling() {
        let g = barabasi_albert(90, 3, 13);
        let mut plain = BatchIndex::build(g.clone(), config(Algorithm::BhlPlus, 5));
        let sources = [0u32, 5, 23, 60];

        // Distance ties at level boundaries are the whole point — make
        // sure the instance actually has them.
        let n = plain.num_vertices() as Vertex;
        let targets: Vec<Vertex> = (0..n).filter(|&t| t != 0).collect();
        let mut reach: Vec<Dist> = plain
            .distances_from(0, &targets)
            .into_iter()
            .flatten()
            .collect();
        reach.sort_unstable();
        assert!(
            reach.windows(2).any(|w| w[0] == w[1]),
            "instance has no distance ties; the test would be vacuous"
        );

        // Twin 1 — forced compaction. An eager policy folds the delta
        // overlay into a fresh CSR base on every pass; an insert batch
        // followed by its inverse round-trips the graph content while
        // rebuilding the adjacency arrays. Same id space, so answers
        // must be byte-identical at *every* k, tie-straddling or not.
        let mut compacted = BatchIndex::build(g.clone(), config(Algorithm::BhlPlus, 5));
        compacted.set_compaction(CompactionPolicy::eager(0.0));
        // Round-trip with edges that are genuinely absent: inserting a
        // present edge is a no-op but its inverse would delete it.
        let mut ins = Batch::new();
        let mut picked = 0;
        'pick: for a in 0..n {
            for b in (a + 1)..n {
                if !g.has_edge(a, b) {
                    ins.insert(a, b);
                    picked += 1;
                    if picked == 2 {
                        break 'pick;
                    }
                }
            }
        }
        assert_eq!(picked, 2, "graph too dense to pick absent edges");
        let del = ins.inverse();
        compacted.apply_batch(&ins);
        compacted.apply_batch(&del);
        for s in sources {
            for k in [1usize, 3, 7, 12, 25, 89] {
                assert_eq!(
                    plain.top_k_closest(s, k),
                    compacted.top_k_closest(s, k),
                    "compaction twin diverged at s={s} k={k}"
                );
            }
        }

        // Twin 2 — degree-descending relabeling. Ids change, so the
        // (distance, id) tie-break legitimately ranks differently
        // *within* a level; at complete-level cuts the answer set is
        // id-invariant and must map back to exactly the same set.
        let (mut reordered, remap) = BatchIndex::new_reordered(g, config(Algorithm::BhlPlus, 5));
        for s in sources {
            let targets: Vec<Vertex> = (0..n).filter(|&t| t != s).collect();
            let mut reach: Vec<Dist> = plain
                .distances_from(s, &targets)
                .into_iter()
                .flatten()
                .collect();
            reach.sort_unstable();
            // Every k where the sorted distance profile steps to a new
            // level is a level-closed prefix.
            let boundaries: Vec<usize> = (1..reach.len())
                .filter(|&k| reach[k] != reach[k - 1])
                .chain([reach.len()])
                .collect();
            for k in boundaries {
                let expect = plain.top_k_closest(s, k);
                let mut got: Vec<(Vertex, Dist)> = reordered
                    .top_k_closest(remap.to_new(s), k)
                    .into_iter()
                    .map(|(v, d)| (remap.to_old(v), d))
                    .collect();
                got.sort_unstable_by_key(|&(v, d)| (d, v));
                assert_eq!(expect, got, "relabeled twin diverged at s={s} k={k}");
            }
        }
    }

    #[test]
    fn pinned_reader_forces_clone_fallback_without_corruption() {
        let g0 = erdos_renyi_gnm(60, 130, 41);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 4));
        let mut reader = index.reader();
        let mut rng = StdRng::seed_from_u64(43);
        // The reader never refreshes, pinning generation after
        // generation; the writer must stay correct through the clone
        // fallback path.
        let pinned = reader.pin();
        let frozen_truth = oracle::all_pairs_bfs(&pinned.graph);
        let mut clones = Vec::new();
        for round in 0..4 {
            let batch = random_batch(index.graph(), 10, &mut rng);
            clones.push(index.apply_batch(&batch).generation_clones);
            oracle::check_minimal(index.graph(), index.labelling())
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        // Only the first pass finds every retired generation pinned;
        // later passes reclaim the one they just retired.
        assert_eq!(clones, [1, 0, 0, 0]);
        // The pinned generation still answers its own (stale) truth.
        for s in (0..60u32).step_by(11) {
            for t in (0..60u32).step_by(7) {
                assert_eq!(
                    reader.query_dist_pinned(s, t),
                    frozen_truth[s as usize][t as usize]
                );
            }
        }
    }
}
