//! The batch-dynamic index (Algorithm 1 and its variants), written once
//! for every graph family, and the undirected family.
//!
//! [`Index<F>`] separates the two roles a production index serves:
//!
//! * **Writer** — [`Index::apply_batch`] builds `G′` from the published
//!   generation's CSR view and the batch (rewriting only the lists the
//!   batch touches), repairs against the published labelling `Γ` (the
//!   old-labelling oracle of Algorithm 1), and publishes the view of
//!   `G′` with `Γ′` built from `Γ` plus the repair deltas. The view is
//!   the only graph the index holds.
//! * **Readers** — [`Index::reader`] hands out cheap `Send + Sync`
//!   [`GenReader`] handles that answer queries against the published
//!   generation without locks, even while a batch is being applied on
//!   another thread.
//!
//! A generation is exactly the reader state: the packed labelling(s)
//! and the CSR view, both `Arc`-shared bases plus one `Arc` chunk per
//! pass, so publishing one costs the rewritten lists and changed rows
//! plus two overlay-index merges, not `O(|R|·|V|)` and not a copy of
//! either overlay, and nothing is copied back or recycled afterwards.
//!
//! What differs between families is the [`Family`] parameter:
//! [`BatchIndex`] is `Index<IndexSnapshot>` (this module),
//! `DirectedBatchIndex` and `WeightedBatchIndex` are the same index over
//! [`crate::DirectedSnapshot`] and [`crate::WeightedSnapshot`]. The
//! per-landmark search→repair loop lives in [`crate::engine`];
//! `threads > 1` in the config runs it with landmark-level parallelism
//! (BHLₚ, Section 6).

use crate::backend::{unweighted_batch, BackendFamily, Edit, OracleError};
use crate::engine::Repair;
use crate::family::Family;
use crate::metric::Seed;
use crate::persist::PersistError;
use crate::reader::{query_many_on, GenReader, SharedReader};
use crate::stats::UpdateStats;
use crate::whatif::{grown_n, rewrite_lists};
use crate::workspace::UpdateWorkspace;
use batchhl_common::{Dist, LexDialQueue, Vertex, INF};
use batchhl_graph::bfs::{bfs_distances, BiBfs};
use batchhl_graph::csr::Frozen;
use batchhl_graph::io::{graph_bin_len, read_graph_csr, write_graph_bin, BinGraphError};
use batchhl_graph::{Batch, CsrDelta, DynamicGraph, Update, VertexRemap};
use batchhl_hcl::{
    build_labelling_parallel, oracle, DegreeOrder, LabelError, LabelStore, Labelling,
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
    /// Update variant, honoured by every family.
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
/// Cloning copies the published generation (its `Arc`-shared parts)
/// into an independent index with its own (single-generation) store;
/// reader handles of the original keep following the original.
pub struct Index<F: Family> {
    /// The newest published generation (the writer's own pin).
    current: Arc<Versioned<F>>,
    store: LabelStore<F>,
    /// Holds the CSR compaction policy too — each pass applies it to
    /// the view it publishes.
    config: IndexConfig,
    ws: UpdateWorkspace<F::Queue>,
    engine: F::Search,
}

/// The graph type an index over `F` is built from (and
/// [`Index::graph`] materialises).
pub type SourceGraph<F> = <<F as Family>::View as Frozen>::Graph;

/// Batch-dynamic distance index over an undirected graph.
pub type BatchIndex = Index<IndexSnapshot>;

impl<F: Family> Clone for Index<F> {
    fn clone(&self) -> Self {
        Index::new(self.current.value().clone(), self.config.clone())
    }
}

impl<F: Family> Index<F> {
    /// Build the index: freeze the graph into a CSR snapshot, select
    /// landmarks and construct the minimal labelling(s) over the
    /// snapshot (`O(|R|·(|V|+|E|))` per labelling). `graph` is dropped
    /// once frozen, before construction starts, so set-up never holds
    /// both. Errors on an invalid explicit landmark list.
    pub fn try_build(graph: SourceGraph<F>, config: IndexConfig) -> Result<Self, LabelError> {
        let view = F::View::freeze(&graph);
        drop(graph);
        let landmarks = config.selection.select(&view);
        let generation = F::build(view, landmarks, config.threads.max(1))?;
        Ok(Index::new(generation, config))
    }

    pub(crate) fn new(generation: F, config: IndexConfig) -> Self {
        let store = LabelStore::new(generation);
        Index {
            current: store.snapshot(),
            store,
            config,
            ws: UpdateWorkspace::default(),
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
    /// front through [`IndexConfig::compaction`]). Takes effect from
    /// the next pass.
    pub fn set_compaction(&mut self, policy: CompactionPolicy) {
        self.config.compaction = policy;
    }

    /// The graph the published generation presents, materialised from
    /// its CSR view (`O(n + m)`; for tests, baselines and tools — the
    /// index itself holds no other copy of the graph).
    pub fn graph(&self) -> SourceGraph<F> {
        self.generation().view().thaw()
    }

    pub fn config(&self) -> &IndexConfig {
        &self.config
    }

    pub fn num_vertices(&self) -> usize {
        DegreeOrder::num_vertices(self.generation().view())
    }

    /// Combined logical size of the labelling(s) in bytes.
    pub fn size_bytes(&self) -> usize {
        self.generation()
            .labellings()
            .iter()
            .map(|l| l.size_bytes())
            .sum()
    }

    /// The most recently published generation (what readers see).
    pub fn published(&self) -> Arc<Versioned<F>> {
        Arc::clone(&self.current)
    }

    /// The published generation, borrowed.
    pub(crate) fn generation(&self) -> &F {
        self.current.value()
    }

    /// The version number of the published generation. Bumps once per
    /// search→repair pass (so once per batch for BHL/BHL⁺, once per
    /// sub-batch for BHLₛ, once per update for UHL/UHL⁺).
    pub fn version(&self) -> u64 {
        self.current.version()
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
    /// [`Index::apply_batch`] holds the owner's latest batch.
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        let d = self.query_dist(s, t);
        (d != INF).then_some(d)
    }

    /// As [`Index::query`], returning `INF` for disconnected or
    /// out-of-range pairs.
    pub fn query_dist(&mut self, s: Vertex, t: Vertex) -> Dist {
        self.current.query_dist(&mut self.engine, s, t)
    }

    /// Batched pair queries: groups the pairs by source and reuses the
    /// per-source label plan across each group (see
    /// [`batchhl_hcl::SourcePlan`]). Order of results matches `pairs`.
    pub fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        query_many_on(self.current.value(), &mut self.engine, pairs)
    }

    /// One-source-to-many-targets distances (the batched fast path:
    /// one generation, one source plan, one shared source-side search
    /// that finishes as a sweep by measured work). `None` marks
    /// disconnected or out-of-range endpoints.
    pub fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        self.current.distances_from(&mut self.engine, s, targets)
    }

    /// The `k` vertices closest to `s` (excluding `s`), nondecreasing
    /// by distance.
    pub fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        self.current.top_k(&mut self.engine, s, k)
    }

    /// Apply a batch of updates and repair the labelling(s)
    /// (Algorithm 1, dispatched per the configured [`Algorithm`]).
    pub fn apply_batch(&mut self, batch: &F::Batch) -> UpdateStats {
        let start = Instant::now();
        let mut stats = match self.config.algorithm {
            Algorithm::Bhl | Algorithm::BhlPlus => {
                let norm = self.current.normalize(batch);
                self.run_pass(norm)
            }
            Algorithm::BhlS => {
                let (deletions, insertions) = F::split(self.current.normalize(batch));
                let mut s = self.run_pass(deletions);
                s.absorb(self.run_pass(insertions));
                s
            }
            Algorithm::Uhl | Algorithm::UhlPlus => {
                let mut s = UpdateStats::default();
                for &u in F::updates(batch) {
                    let norm = self.current.normalize(&F::single(u));
                    s.absorb(self.run_pass(norm));
                }
                s
            }
        };
        stats.elapsed = start.elapsed();
        stats
    }

    /// Full semantic audit: every labelling must equal the unique
    /// minimal highway cover labelling of the current graph.
    /// `O(|R|·(|V|+|E|))` — intended for tests and offline checks, not
    /// the hot path.
    pub fn verify(&self) -> Result<(), String> {
        self.generation().audit()
    }

    /// Rebuild the labelling(s) from scratch (used by tests) and publish
    /// the result as a new generation.
    pub fn rebuild(&mut self) {
        let g = self.generation();
        let landmarks = g.labellings()[0].landmarks().to_vec();
        let generation = F::build(g.view().clone(), landmarks, self.config.threads.max(1))
            .expect("existing landmarks are valid");
        self.publish(generation);
    }

    /// Reset the writer to the generation captured in `snap` and
    /// republish it, so readers re-pin content identical to `snap`
    /// under a fresh version number. Used by the facade to roll back a
    /// batch whose application failed mid-way. A pass mutates nothing it
    /// did not publish, so there is nothing to rebuild: `snap` is
    /// immutable and shares its CSR view and packed rows behind `Arc`s,
    /// so republishing it is a cheap clone. Workspaces are rebuilt from
    /// scratch — they may hold state from the aborted pass.
    pub(crate) fn restore_generation(&mut self, snap: &F) {
        self.publish(snap.clone());
        self.ws = UpdateWorkspace::default();
        self.engine = F::Search::default();
    }

    fn publish(&mut self, generation: F) {
        self.current = self.store.publish(generation).0;
    }

    /// One search+repair pass over a normalized, conflict-free batch:
    /// build the next generation from the published one, the batch and
    /// the repair deltas, and publish it.
    fn run_pass(&mut self, norm: F::Norm) -> UpdateStats {
        let mut stats = UpdateStats {
            passes: 1,
            ..Default::default()
        };
        if let Some(next) = self
            .current
            .pass(norm, &self.config, &mut self.ws, &mut stats)
        {
            stats.affected_total = stats.affected_per_landmark.iter().sum();
            self.publish(next);
        }
        stats
    }
}

/// One immutable generation of the undirected index: the labelling and
/// the frozen CSR view of the graph it describes, which queries and
/// landmark searches traverse. Readers always see a whole snapshot —
/// never a labelling paired with a view from a different generation.
///
/// `view` is the publication format: a flat CSR base shared across
/// generations plus the delta overlay of the batches since the last
/// compaction (see [`batchhl_graph::csr`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexSnapshot {
    pub lab: Labelling,
    pub view: CsrDelta,
}

impl Family for IndexSnapshot {
    const KIND: BackendFamily = BackendFamily::Undirected;
    const LABELLINGS: usize = 1;
    type Labels = [Labelling; 1];
    type Update = Update;
    type Batch = Batch;
    type Norm = Batch;
    type Queue = LexDialQueue;
    type View = CsrDelta;
    type Search = BiBfs;

    fn build(view: CsrDelta, landmarks: Vec<Vertex>, threads: usize) -> Result<Self, LabelError> {
        let lab = build_labelling_parallel(&view, landmarks, threads)?;
        Ok(IndexSnapshot { lab, view })
    }

    fn assemble(view: CsrDelta, [lab]: [Labelling; 1]) -> Self {
        IndexSnapshot { lab, view }
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

    fn neighbors(&self, v: Vertex) -> Vec<Vertex> {
        self.view.list(v).to_vec()
    }

    fn updates(batch: &Batch) -> &[Update] {
        batch.updates()
    }

    fn single(update: Update) -> Box<Batch> {
        Box::new(Batch::from_updates(vec![update]))
    }

    fn normalize(&self, batch: &Batch) -> Batch {
        batch.normalize(&self.view)
    }

    fn split(norm: Batch) -> (Batch, Batch) {
        norm.split()
    }

    fn kinds(norm: &Batch) -> (usize, usize) {
        (norm.num_insertions(), norm.num_deletions())
    }

    fn rewrite(&self, norm: &Batch, policy: Option<CompactionPolicy>) -> CsrDelta {
        let endpoints = || norm.updates().iter().map(|u| u.endpoints());
        let n = grown_n(endpoints(), self.view.num_vertices());
        let changes = norm.updates().iter().flat_map(|u| {
            let ((a, b), kept) = (u.endpoints(), u.is_insert());
            [(a, b, kept.then_some(b)), (b, a, kept.then_some(a))]
        });
        rewrite_lists(&self.view, n, policy, changes, |&x| x)
    }

    fn repair<R: Repair<LexDialQueue>>(
        &self,
        view: &CsrDelta,
        norm: &Batch,
        repair: &mut R,
    ) -> Vec<R::Out> {
        let seeds = Seed::undirected(norm.updates());
        vec![repair.run(view, view.num_vertices(), &self.lab, &seeds)]
    }

    fn from_edits(edits: &[Edit]) -> Result<Box<Batch>, OracleError> {
        unweighted_batch(edits, Self::KIND).map(Box::new)
    }

    fn write_graph(view: &CsrDelta, out: &mut dyn Write) -> Result<(), PersistError> {
        out.write_all(&graph_bin_len(view).to_le_bytes())?;
        Ok(write_graph_bin(view, out)?)
    }

    fn read_graph<R: Read>(r: &mut R) -> Result<CsrDelta, BinGraphError> {
        read_graph_csr(r)
    }

    fn audit(&self) -> Result<(), String> {
        oracle::check_minimal(&self.view, &self.lab)
    }

    fn truth(&self, s: Vertex) -> Vec<Dist> {
        bfs_distances(&self.view, s)
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

    /// The published labelling.
    pub fn labelling(&self) -> &Labelling {
        &self.generation().lab
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
    /// labelling equals the from-scratch minimal labelling (unique!),
    /// and the published view presents the graph a `DynamicGraph` that
    /// applied the same batches holds, list order included.
    fn assert_tracks_rebuild(algorithm: Algorithm, seed: u64) {
        let mut g = erdos_renyi_gnm(70, 150, seed);
        let mut index = BatchIndex::build(g.clone(), config(algorithm, 5));
        let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        for round in 0..6 {
            let batch = random_batch(&g, 12, &mut rng);
            index.apply_batch(&batch);
            g.apply_batch(&batch);
            oracle::check_minimal(&index.graph(), index.labelling())
                .unwrap_or_else(|e| panic!("{algorithm:?} seed {seed} round {round}: {e}"));
            let published = index.published();
            assert_eq!(
                &published.lab,
                index.labelling(),
                "published generation out of sync after round {round}"
            );
            assert_eq!(published.view.thaw(), g, "round {round}");
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
            let batch = random_batch(&index.graph(), 15, &mut rng);
            index.apply_batch(&batch);
            let truth = oracle::all_pairs_bfs(&index.graph());
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
        for round in 0..5 {
            let batch = random_batch(&index.graph(), 10, &mut rng);
            index.apply_batch(&batch);
            // The owner's labelling is the published one, not a copy.
            let published = index.published();
            assert!(
                std::ptr::eq(&published.lab, index.labelling()),
                "round {round}"
            );
            let owner: Vec<Dist> = pairs.iter().map(|&(s, t)| index.query_dist(s, t)).collect();
            let owner_many = index.query_many(&pairs);
            let owner_from = index.distances_from(7, &targets);
            let owner_top = index.top_k_closest(7, 10);
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
            labellings.push((alg, index.labelling().clone()));
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
            assert_eq!(seq.labelling(), par.labelling(), "threads={threads}");
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
        let before = index.labelling().clone();
        let stats = index.apply_batch(&Batch::new());
        assert_eq!(stats.applied, 0);
        let mut b = Batch::new();
        b.insert(0, 1); // already present
        b.delete(0, 5); // absent
        b.insert(3, 3); // self-loop
        let stats = index.apply_batch(&b);
        assert_eq!(stats.applied, 0);
        assert_eq!(index.labelling(), &before);
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
        oracle::check_minimal(&index.graph(), index.labelling()).unwrap();
        assert_eq!(&index.published().lab, index.labelling());
    }

    #[test]
    fn insert_then_delete_round_trips() {
        let g0 = barabasi_albert(100, 2, 17);
        let mut index = BatchIndex::build(g0.clone(), config(Algorithm::BhlPlus, 4));
        let baseline = index.labelling().clone();
        let mut ins = Batch::new();
        ins.insert(0, 50);
        ins.insert(13, 77);
        let del = ins.inverse();
        index.apply_batch(&ins);
        index.apply_batch(&del);
        assert_eq!(&index.graph(), &g0);
        assert_eq!(
            index.labelling(),
            &baseline,
            "labelling must round-trip (uniqueness)"
        );
    }

    #[test]
    fn rebuild_agrees_with_incremental() {
        let g0 = erdos_renyi_gnm(60, 140, 23);
        let mut index = BatchIndex::build(g0, config(Algorithm::Bhl, 5));
        let mut rng = StdRng::seed_from_u64(31);
        let batch = random_batch(&index.graph(), 20, &mut rng);
        index.apply_batch(&batch);
        let incremental = index.labelling().clone();
        index.rebuild();
        assert_eq!(index.labelling(), &incremental);
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
        oracle::check_minimal(&reordered.graph(), reordered.labelling()).unwrap();
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

    /// A pass shares its predecessor's CSR base and every earlier
    /// overlay chunk, and adds one chunk holding exactly the lists of
    /// the vertices its batch touched.
    #[test]
    fn a_pass_adds_one_chunk_of_the_touched_lists() {
        let g0 = barabasi_albert(200, 3, 4);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 4));
        index.set_compaction(CompactionPolicy::new(1.0, usize::MAX));
        let mut rng = StdRng::seed_from_u64(5);
        for round in 0..4 {
            let before = index.published();
            let batch = random_batch(&index.graph(), 10, &mut rng);
            let touched = batch.normalize(&before.view).touched_vertices();
            index.apply_batch(&batch);
            let after = index.published();
            let (old, new) = (&before.view, &after.view);
            assert!(Arc::ptr_eq(old.base(), new.base()), "round {round}");
            assert_eq!(new.chunks().len(), old.chunks().len() + 1);
            for (a, b) in old.chunks().iter().zip(new.chunks()) {
                assert!(Arc::ptr_eq(a, b), "round {round}: earlier chunk copied");
            }
            let chunk = new.chunks().last().unwrap();
            assert_eq!(chunk.num_vertices(), touched.len(), "round {round}");
            for (k, &v) in touched.iter().enumerate() {
                assert_eq!(
                    chunk.list(k as Vertex),
                    new.list(v),
                    "round {round}, vertex {v}"
                );
            }
        }
    }

    #[test]
    fn pinned_reader_keeps_its_generation_while_the_writer_advances() {
        let g0 = erdos_renyi_gnm(60, 130, 41);
        let mut index = BatchIndex::build(g0, config(Algorithm::BhlPlus, 4));
        let mut reader = index.reader();
        let mut rng = StdRng::seed_from_u64(43);
        // The reader never refreshes, pinning generation 0 while the
        // writer publishes past it.
        let pinned = reader.pin();
        let frozen_truth = oracle::all_pairs_bfs(&index.graph());
        for round in 0..4 {
            let batch = random_batch(&index.graph(), 10, &mut rng);
            index.apply_batch(&batch);
            oracle::check_minimal(&index.graph(), index.labelling())
                .unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
        assert_eq!(pinned.version(), 0);
        assert!(index.version() > 0, "the writer published past the pin");
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
