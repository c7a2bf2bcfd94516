//! Flat CSR snapshot adjacency with a chunked per-generation overlay:
//! the one graph representation an index holds.
//!
//! Every hot path of the workspace — the distance-bounded bidirectional
//! BFS behind `Q(s, t)` (Section 4), the per-landmark search spaces of
//! the update engine, and full index construction — is a graph
//! traversal, and a frozen layout serves them best:
//!
//! * [`Csr`] — a frozen compressed-sparse-row snapshot: one `offsets`
//!   array (`n + 1` entries) and one flat `items` array holding every
//!   adjacency list back to back. Neighbour access is two array reads;
//!   scanning a whole search space is sequential memory traffic.
//! * [`CsrOverlay`] — a CSR snapshot plus an overlay of the lists later
//!   batches rewrote. Batch-dynamic updates cannot rewrite a frozen CSR
//!   in place, so each generation adds one chunk holding only the lists
//!   its batch touched (`O(Σ deg(endpoint))` per batch), while every
//!   untouched vertex keeps reading straight from the shared base CSR.
//!   When the overlay grows past a configurable fraction of the base's
//!   size the whole graph is *compacted* into a fresh base CSR and the
//!   overlay is cleared — the classic snapshot/delta/compaction cycle of
//!   batch-dynamic structures (cf. Acar et al., parallel batch-dynamic
//!   trees via change propagation).
//!
//! The base CSR and every chunk are behind [`Arc`]s, so consecutive
//! generations share them: publishing a generation costs its own
//! chunk and one overlay-index merge, not `O(m)` and not a copy of the
//! overlay. The dynamic graphs (`Vec<Vec<_>>`) are only the input an
//! index is built from and what [`Frozen::thaw`] materialises.
//!
//! [`CsrGraph`]/[`CsrDelta`] instantiate the storage for unweighted
//! adjacency (`Vertex` items) and implement [`AdjacencyView`];
//! [`WeightedCsrGraph`]/[`WeightedCsrDelta`] hold `(Vertex, Weight)`
//! pairs and implement [`WeightedAdjacencyView`]. [`CsrDiDelta`] pairs
//! two overlays (out- and in-adjacency) for directed graphs.
//!
//! [`VertexRemap`] supports the optional degree-descending relabeling
//! pass (`BatchIndex::new_reordered` in `batchhl-core`): renumbering
//! vertices by decreasing degree packs the hot high-degree
//! neighbourhoods into the front of the CSR arrays, improving locality
//! for the skewed access patterns of complex networks.

use crate::weighted::{Weight, WeightedAdjacencyView, WeightedGraph};
use crate::{AdjacencyView, DynamicDiGraph, DynamicGraph};
use batchhl_common::{OverlayIndex, Vertex};
use std::sync::Arc;

/// Default compaction trigger: rebuild the base CSR once the overlay
/// holds more than this fraction of the base's adjacency entries.
pub const DEFAULT_COMPACTION_FRACTION: f32 = 0.25;

/// Overlays smaller than this never trigger compaction (avoids
/// rebuilding tiny graphs every batch).
pub const MIN_COMPACTION_ENTRIES: usize = 1024;

/// When a published CSR view compacts its delta overlay into a fresh
/// base snapshot: once the overlay holds more than `fraction` of the
/// base's adjacency entries *and* at least `min_entries` entries.
///
/// One policy value configures every index family (the
/// `compaction` field of `batchhl-core`'s `IndexConfig`) and every
/// overlay ([`CsrOverlay::patched`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompactionPolicy {
    /// Fraction of the base's adjacency entries the overlay may reach
    /// before compaction triggers (default
    /// [`DEFAULT_COMPACTION_FRACTION`]).
    pub fraction: f32,
    /// Absolute overlay-entry floor below which compaction never
    /// triggers (default [`MIN_COMPACTION_ENTRIES`]; tests drive it to
    /// 0 to force compactions on tiny graphs).
    pub min_entries: usize,
}

impl Default for CompactionPolicy {
    fn default() -> Self {
        CompactionPolicy {
            fraction: DEFAULT_COMPACTION_FRACTION,
            min_entries: MIN_COMPACTION_ENTRIES,
        }
    }
}

impl CompactionPolicy {
    pub fn new(fraction: f32, min_entries: usize) -> Self {
        CompactionPolicy {
            fraction,
            min_entries,
        }
    }

    /// A policy that compacts as eagerly as the fraction allows (no
    /// entry floor) — what tests use to force compactions.
    pub fn eager(fraction: f32) -> Self {
        CompactionPolicy {
            fraction,
            min_entries: 0,
        }
    }

    /// Whether an overlay of `overlay` entries over a base of `base`
    /// entries has crossed this policy (the one rule behind every
    /// overlay this policy bounds: CSR adjacency and packed labels).
    pub fn exceeded(&self, overlay: usize, base: usize) -> bool {
        let threshold = (base as f32 * self.fraction.max(f32::EPSILON)) as usize;
        overlay > threshold.max(self.min_entries)
    }
}

/// A frozen compressed-sparse-row adjacency snapshot over items `T`
/// (`Vertex` for unweighted graphs, `(Vertex, Weight)` for weighted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<T> {
    /// `offsets[v]..offsets[v + 1]` indexes `items` for vertex `v`.
    offsets: Vec<usize>,
    items: Vec<T>,
}

/// Unweighted CSR snapshot.
pub type CsrGraph = Csr<Vertex>;

/// Weighted CSR snapshot (`(neighbour, weight)` items).
pub type WeightedCsrGraph = Csr<(Vertex, Weight)>;

impl<T: Copy> Csr<T> {
    /// Freeze `n` adjacency lists produced by `fetch` into CSR form.
    pub fn build<'g>(n: usize, fetch: impl Fn(Vertex) -> &'g [T]) -> Self
    where
        T: 'g,
    {
        let mut offsets = Vec::with_capacity(n + 1);
        let mut total = 0usize;
        offsets.push(0);
        for v in 0..n as Vertex {
            total += fetch(v).len();
            offsets.push(total);
        }
        let mut items = Vec::with_capacity(total);
        for v in 0..n as Vertex {
            items.extend_from_slice(fetch(v));
        }
        Csr { offsets, items }
    }

    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total adjacency entries (half-edges for undirected graphs).
    pub fn num_entries(&self) -> usize {
        self.items.len()
    }

    /// The frozen adjacency list of `v`.
    #[inline]
    pub fn list(&self, v: Vertex) -> &[T] {
        let v = v as usize;
        &self.items[self.offsets[v]..self.offsets[v + 1]]
    }

    /// O(1) degree from the offset difference.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// Resident bytes of the offset and item arrays.
    pub fn resident_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.items.len() * std::mem::size_of::<T>()
    }
}

impl CsrGraph {
    /// Freeze the out-adjacency of any [`AdjacencyView`].
    pub fn from_adjacency<A: AdjacencyView + ?Sized>(g: &A) -> Self {
        Csr::build(g.num_vertices(), |v| g.out_neighbors(v))
    }
}

impl AdjacencyView for CsrGraph {
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn out_neighbors(&self, v: Vertex) -> &[Vertex] {
        self.list(v)
    }

    #[inline]
    fn in_neighbors(&self, v: Vertex) -> &[Vertex] {
        self.list(v)
    }
}

impl WeightedCsrGraph {
    /// Freeze the adjacency of a weighted graph.
    pub fn from_weighted(g: &WeightedGraph) -> Self {
        Csr::build(g.num_vertices(), |v| g.neighbors(v))
    }
}

impl WeightedAdjacencyView for WeightedCsrGraph {
    fn num_vertices(&self) -> usize {
        self.num_vertices()
    }

    #[inline]
    fn weighted_neighbors(&self, v: Vertex) -> &[(Vertex, Weight)] {
        self.list(v)
    }
}

/// A CSR snapshot plus the overlay of the generations published since
/// the base was frozen.
///
/// The overlay has the shape of the packed labels' one: one `Arc`
/// chunk per patch, holding the lists that patch rewrote in vertex
/// order (a [`Csr`] whose slot `k` is the patch's `k`-th vertex), and an
/// [`OverlayIndex`] naming each overlaid vertex's newest slot. Reads
/// resolve per vertex with one bit test: the common case — not
/// overlaid — falls through to the shared base CSR; an overlaid vertex
/// is ranked in the index for its chunk and slot. Vertices past the
/// base's range (grown by a batch) read the overlay or an empty list.
///
/// A patch ([`CsrOverlay::patched`]) shares the base and every earlier
/// chunk with its predecessor and adds one chunk, so it costs the lists
/// it rewrites plus one index merge, never a copy of the overlay. A
/// re-patched vertex's older copy stays in its chunk; those entries
/// count toward the compaction threshold, so garbage is bounded by the
/// same knob that bounds the overlay itself.
#[derive(Debug, Clone)]
pub struct CsrOverlay<T> {
    base: Arc<Csr<T>>,
    chunks: Vec<Arc<Csr<T>>>,
    index: OverlayIndex,
    /// Entries the chunks hold, superseded copies included (the figure
    /// the compaction policy acts on).
    overlay_entries: usize,
    n: usize,
}

/// Unweighted CSR + overlay view — what undirected generations publish.
pub type CsrDelta = CsrOverlay<Vertex>;

/// Weighted CSR + overlay view.
pub type WeightedCsrDelta = CsrOverlay<(Vertex, Weight)>;

impl<T: Copy> CsrOverlay<T> {
    /// Wrap a frozen snapshot with an empty overlay.
    pub fn new(base: Csr<T>) -> Self {
        CsrOverlay {
            n: base.num_vertices(),
            base: Arc::new(base),
            chunks: Vec::new(),
            index: OverlayIndex::default(),
            overlay_entries: 0,
        }
    }

    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Adjacency entries currently held by the overlay chunks
    /// (including copies superseded by re-patches — the figure the
    /// compaction policy acts on).
    pub fn overlay_entries(&self) -> usize {
        self.overlay_entries
    }

    /// Number of overlaid vertices.
    pub fn overlay_vertices(&self) -> usize {
        self.index.len()
    }

    /// Resident bytes of the base (shared between the generations
    /// published since the last compaction) plus the overlay.
    pub fn resident_bytes(&self) -> usize {
        self.base.resident_bytes() + self.overlay_bytes()
    }

    /// Resident bytes of the overlay: its chunks (shared with the
    /// generations they were published in) and its index.
    pub fn overlay_bytes(&self) -> usize {
        self.chunks
            .iter()
            .map(|c| c.resident_bytes())
            .sum::<usize>()
            + self.index.resident_bytes()
    }

    /// The shared base snapshot (generations published between two
    /// compactions return clones of the same `Arc`).
    pub fn base(&self) -> &Arc<Csr<T>> {
        &self.base
    }

    /// The overlay chunks, oldest first (each shared with the
    /// generations published since it was added).
    pub fn chunks(&self) -> &[Arc<Csr<T>>] {
        &self.chunks
    }

    /// The current adjacency list of `v`.
    ///
    /// An empty overlay (the state right after a compaction) is decided
    /// by one perfectly predicted branch, so traversal then runs at
    /// pure-CSR speed; otherwise one bitmap test routes between base
    /// and overlay.
    #[inline]
    pub fn list(&self, v: Vertex) -> &[T] {
        debug_assert!((v as usize) < self.n, "vertex {v} out of bounds");
        self.resolve(v)
    }

    /// [`CsrOverlay::list`], empty past the vertex range.
    #[inline]
    fn resolve(&self, v: Vertex) -> &[T] {
        match self.index.get(v) {
            Some((chunk, slot)) => self.chunks[chunk as usize].list(slot),
            None if (v as usize) < self.base.num_vertices() => self.base.list(v),
            None => &[],
        }
    }

    /// O(1) degree.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.list(v).len()
    }

    /// This view over `max(n, self.n)` vertices with the list of every
    /// vertex in `changed` (ascending, distinct) replaced by what
    /// `rewrite(v, old, out)` appends to `out`, `old` being `v`'s
    /// current list; `rewrite` is called in `changed` order. The base
    /// and every chunk stay shared: the new lists form one more chunk
    /// and the index is merged with it, `O(Σ new lists + overlaid
    /// vertices + n / 64)`. When `policy` is given and the overlay then
    /// crosses it, the result is compacted into a fresh base instead,
    /// `O(n + m)`; `None` never compacts (a what-if overlay).
    pub fn patched(
        &self,
        n: usize,
        changed: &[Vertex],
        policy: Option<CompactionPolicy>,
        mut rewrite: impl FnMut(Vertex, &[T], &mut Vec<T>),
    ) -> Self {
        let mut offsets = Vec::with_capacity(changed.len() + 1);
        let mut items = Vec::new();
        offsets.push(0);
        for &v in changed {
            rewrite(v, self.resolve(v), &mut items);
            offsets.push(items.len());
        }
        let overlay_entries = self.overlay_entries + items.len();
        let mut chunks = self.chunks.clone();
        let index = self.index.merged(chunks.len() as u32, changed);
        if !changed.is_empty() {
            chunks.push(Arc::new(Csr { offsets, items }));
        }
        let patched = CsrOverlay {
            base: Arc::clone(&self.base),
            chunks,
            index,
            overlay_entries,
            n: n.max(self.n),
        };
        match policy {
            Some(p) if p.exceeded(patched.overlay_entries, self.base.num_entries()) => {
                patched.compacted()
            }
            _ => patched,
        }
    }

    /// The same adjacency in one fresh base CSR with no overlay.
    pub fn compacted(&self) -> Self {
        CsrOverlay::new(Csr::build(self.n, |v| self.resolve(v)))
    }
}

/// Semantic equality: two views are equal when they present the same
/// adjacency, regardless of how it is split between base and overlay
/// (views built along different histories compact on different
/// schedules).
impl<T: Copy + PartialEq> PartialEq for CsrOverlay<T> {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && (0..self.n as Vertex).all(|v| self.list(v) == other.list(v))
    }
}

impl<T: Copy + Eq> Eq for CsrOverlay<T> {}

/// A frozen view and the mutable graph type it freezes: an index is
/// built from such a graph, and [`Frozen::thaw`] materialises the graph
/// a view presents (`O(n + m)`, for tests, baselines and tools — the
/// index itself keeps no mutable copy).
pub trait Frozen {
    /// The mutable graph (sorted `Vec` adjacency).
    type Graph;

    /// Freeze `g` into a view with an empty overlay.
    fn freeze(g: &Self::Graph) -> Self;

    /// The graph this view presents.
    fn thaw(&self) -> Self::Graph;
}

impl CsrDelta {
    /// Freeze the out-adjacency of `g` with an empty overlay.
    pub fn from_adjacency<A: AdjacencyView + ?Sized>(g: &A) -> Self {
        CsrOverlay::new(CsrGraph::from_adjacency(g))
    }
}

impl Frozen for CsrDelta {
    type Graph = DynamicGraph;

    fn freeze(g: &DynamicGraph) -> Self {
        CsrDelta::from_adjacency(g)
    }

    fn thaw(&self) -> DynamicGraph {
        let n = self.n as Vertex;
        DynamicGraph::try_from_adjacency((0..n).map(|v| self.list(v).to_vec()).collect())
            .expect("a view presents a valid graph")
    }
}

impl AdjacencyView for CsrDelta {
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn out_neighbors(&self, v: Vertex) -> &[Vertex] {
        self.list(v)
    }

    #[inline]
    fn in_neighbors(&self, v: Vertex) -> &[Vertex] {
        self.list(v)
    }
}

impl WeightedCsrDelta {
    /// Freeze a weighted graph with an empty overlay.
    pub fn from_weighted(g: &WeightedGraph) -> Self {
        CsrOverlay::new(WeightedCsrGraph::from_weighted(g))
    }
}

impl Frozen for WeightedCsrDelta {
    type Graph = WeightedGraph;

    fn freeze(g: &WeightedGraph) -> Self {
        WeightedCsrDelta::from_weighted(g)
    }

    fn thaw(&self) -> WeightedGraph {
        let n = self.n as Vertex;
        WeightedGraph::try_from_adjacency((0..n).map(|v| self.list(v).to_vec()).collect())
            .expect("a view presents a valid graph")
    }
}

impl WeightedAdjacencyView for WeightedCsrDelta {
    fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    fn weighted_neighbors(&self, v: Vertex) -> &[(Vertex, Weight)] {
        self.list(v)
    }
}

/// Directed CSR view: one overlay per direction. An arc `a → b` lives
/// in `out`'s list of `a` and `in`'s list of `b`; the two overlays are
/// patched and compact independently.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrDiDelta {
    out: CsrDelta,
    inn: CsrDelta,
}

impl CsrDiDelta {
    /// Freeze both directions of a directed [`AdjacencyView`].
    pub fn from_adjacency<A: AdjacencyView + ?Sized>(g: &A) -> Self {
        CsrDiDelta {
            out: CsrOverlay::new(Csr::build(g.num_vertices(), |v| g.out_neighbors(v))),
            inn: CsrOverlay::new(Csr::build(g.num_vertices(), |v| g.in_neighbors(v))),
        }
    }

    /// Pair an out- and an in-adjacency overlay over the same vertices.
    pub fn from_directions(out: CsrDelta, inn: CsrDelta) -> Self {
        assert_eq!(
            out.num_vertices(),
            inn.num_vertices(),
            "directions disagree"
        );
        CsrDiDelta { out, inn }
    }

    /// The `(out, in)` adjacency overlays.
    pub fn directions(&self) -> (&CsrDelta, &CsrDelta) {
        (&self.out, &self.inn)
    }

    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    pub fn overlay_entries(&self) -> usize {
        self.out.overlay_entries() + self.inn.overlay_entries()
    }

    /// Resident bytes of both directions (bases plus overlays).
    pub fn resident_bytes(&self) -> usize {
        self.out.resident_bytes() + self.inn.resident_bytes()
    }

    /// Resident bytes of both directions' overlays.
    pub fn overlay_bytes(&self) -> usize {
        self.out.overlay_bytes() + self.inn.overlay_bytes()
    }
}

impl Frozen for CsrDiDelta {
    type Graph = DynamicDiGraph;

    fn freeze(g: &DynamicDiGraph) -> Self {
        CsrDiDelta::from_adjacency(g)
    }

    fn thaw(&self) -> DynamicDiGraph {
        let n = self.num_vertices() as Vertex;
        DynamicDiGraph::try_from_out_adjacency((0..n).map(|v| self.out.list(v).to_vec()).collect())
            .expect("a view presents a valid graph")
    }
}

impl AdjacencyView for CsrDiDelta {
    fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    #[inline]
    fn out_neighbors(&self, v: Vertex) -> &[Vertex] {
        self.out.list(v)
    }

    #[inline]
    fn in_neighbors(&self, v: Vertex) -> &[Vertex] {
        self.inn.list(v)
    }
}

/// A vertex renumbering and its inverse, for the degree-descending
/// relabeling pass: `new_to_old[new] = old`, `old_to_new[old] = new`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexRemap {
    old_to_new: Vec<Vertex>,
    new_to_old: Vec<Vertex>,
}

impl VertexRemap {
    /// Identity-checked construction from a permutation `new_to_old`.
    pub fn from_new_to_old(new_to_old: Vec<Vertex>) -> Self {
        let mut old_to_new = vec![0 as Vertex; new_to_old.len()];
        for (new, &old) in new_to_old.iter().enumerate() {
            old_to_new[old as usize] = new as Vertex;
        }
        VertexRemap {
            old_to_new,
            new_to_old,
        }
    }

    /// Rank vertices by decreasing degree (ties by id): the hubs of a
    /// complex network receive the smallest ids, packing the hottest
    /// adjacency lists into the front of the CSR arrays.
    pub fn degree_descending(g: &crate::DynamicGraph) -> Self {
        Self::from_new_to_old(g.vertices_by_degree())
    }

    pub fn len(&self) -> usize {
        self.new_to_old.len()
    }

    pub fn is_empty(&self) -> bool {
        self.new_to_old.is_empty()
    }

    #[inline]
    pub fn to_new(&self, old: Vertex) -> Vertex {
        self.old_to_new[old as usize]
    }

    #[inline]
    pub fn to_old(&self, new: Vertex) -> Vertex {
        self.new_to_old[new as usize]
    }

    /// Translate a batch expressed in original ids into relabeled ids.
    pub fn map_batch(&self, batch: &crate::Batch) -> crate::Batch {
        use crate::Update;
        crate::Batch::from_updates(
            batch
                .updates()
                .iter()
                .map(|u| match *u {
                    Update::Insert(a, b) => Update::Insert(self.to_new(a), self.to_new(b)),
                    Update::Delete(a, b) => Update::Delete(self.to_new(a), self.to_new(b)),
                })
                .collect(),
        )
    }
}

impl crate::DynamicGraph {
    /// The same graph with vertices renumbered by `remap`.
    pub fn relabeled(&self, remap: &VertexRemap) -> crate::DynamicGraph {
        let edges: Vec<(Vertex, Vertex)> = self
            .edges()
            .map(|(u, v)| (remap.to_new(u), remap.to_new(v)))
            .collect();
        crate::DynamicGraph::from_edges(self.num_vertices(), &edges)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs::bfs_distances;
    use crate::generators::barabasi_albert;
    use crate::{Batch, DynamicDiGraph, DynamicGraph};
    use batchhl_common::SplitMix64;

    #[test]
    fn csr_matches_dynamic_graph() {
        let g = barabasi_albert(200, 3, 7);
        let csr = CsrGraph::from_adjacency(&g);
        assert_eq!(csr.num_vertices(), g.num_vertices());
        assert_eq!(csr.num_entries(), 2 * g.num_edges());
        for v in 0..g.num_vertices() as Vertex {
            assert_eq!(csr.list(v), g.neighbors(v));
            assert_eq!(csr.degree(v), g.degree(v));
        }
        assert_eq!(bfs_distances(&csr, 0), bfs_distances(&g, 0));
    }

    /// The view `g` presents after a batch touching `changed`, the
    /// lists copied from `g` (what a commit's rewrite produces).
    fn patched_from<T: Copy>(
        view: &CsrOverlay<T>,
        n: usize,
        changed: &[Vertex],
        policy: Option<CompactionPolicy>,
        list: impl Fn(Vertex) -> Vec<T>,
    ) -> CsrOverlay<T> {
        view.patched(n, changed, policy, |v, _, out| out.extend(list(v)))
    }

    #[test]
    fn overlay_tracks_batches_and_compacts() {
        let mut g = barabasi_albert(150, 2, 3);
        let mut view = CsrDelta::from_adjacency(&g);
        let policy = Some(CompactionPolicy::eager(0.05));
        let base0 = Arc::clone(view.base());
        let mut rng = SplitMix64::new(11);
        let mut compacted_once = false;
        for _ in 0..40 {
            let mut batch = Batch::new();
            for _ in 0..6 {
                let a = rng.below(150) as Vertex;
                let b = rng.below(150) as Vertex;
                if a == b {
                    continue;
                }
                if g.has_edge(a, b) {
                    batch.delete(a, b);
                } else {
                    batch.insert(a, b);
                }
            }
            let norm = batch.normalize(&g);
            g.apply_batch(&norm);
            let next = patched_from(
                &view,
                g.num_vertices(),
                &norm.touched_vertices(),
                policy,
                |v| g.neighbors(v).to_vec(),
            );
            let compacted = !Arc::ptr_eq(view.base(), next.base());
            if compacted {
                assert_eq!(next.overlay_entries(), 0, "compaction clears the overlay");
                assert!(next.chunks().is_empty());
            } else if !norm.is_empty() {
                // The predecessor's chunks are shared, one chunk is new.
                assert_eq!(next.chunks().len(), view.chunks().len() + 1);
                for (a, b) in view.chunks().iter().zip(next.chunks()) {
                    assert!(Arc::ptr_eq(a, b));
                }
            }
            compacted_once |= compacted;
            view = next;
            for v in 0..g.num_vertices() as Vertex {
                assert_eq!(view.list(v), g.neighbors(v), "vertex {v}");
            }
        }
        assert!(compacted_once, "low threshold must force a compaction");
        assert!(
            !Arc::ptr_eq(&base0, view.base()),
            "compaction must install a fresh base"
        );
    }

    #[test]
    fn overlay_handles_vertex_growth() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(0, 1);
        let view = CsrDelta::from_adjacency(&g);
        assert_eq!(view.list(2), &[] as &[Vertex]);
        let mut batch = Batch::new();
        batch.insert(1, 6);
        g.apply_batch(&batch);
        let view = patched_from(&view, g.num_vertices(), &[1, 6], None, |v| {
            g.neighbors(v).to_vec()
        });
        assert_eq!(view.num_vertices(), 7);
        assert_eq!(view.list(6), &[1]);
        assert_eq!(view.list(1), &[0, 6]);
        assert_eq!(view.list(5), &[] as &[Vertex], "grown vertices are empty");
        assert_eq!(view.thaw(), g);
    }

    #[test]
    fn overlay_semantic_equality() {
        let g = barabasi_albert(60, 2, 5);
        let a = CsrDelta::from_adjacency(&g);
        // Same adjacency, entirely different base/overlay split.
        let every: Vec<Vertex> = (0..g.num_vertices() as Vertex).collect();
        let empty = CsrDelta::new(CsrGraph::from_adjacency(&DynamicGraph::new(0)));
        let b = patched_from(&empty, g.num_vertices(), &every, None, |v| {
            g.neighbors(v).to_vec()
        });
        assert_eq!(a, b);
        assert_eq!(a, b.compacted());
        let c = a.patched(a.num_vertices(), &[0], None, |_, _, _| {});
        assert_ne!(a, c);
    }

    #[test]
    fn directed_delta_mirrors_digraph() {
        let mut g = DynamicDiGraph::from_edges(5, &[(0, 1), (1, 2), (3, 1)]);
        let view = CsrDiDelta::from_adjacency(&g);
        assert_eq!(view.out_neighbors(1), g.out_neighbors(1));
        assert_eq!(view.in_neighbors(1), g.in_neighbors(1));
        g.insert_edge(4, 1);
        g.remove_edge(0, 1);
        let (out, inn) = view.directions();
        let view = CsrDiDelta::from_directions(
            patched_from(out, 5, &[0, 4], None, |v| g.out_neighbors(v).to_vec()),
            patched_from(inn, 5, &[1], None, |v| g.in_neighbors(v).to_vec()),
        );
        for v in 0..5 {
            assert_eq!(view.out_neighbors(v), g.out_neighbors(v), "out {v}");
            assert_eq!(view.in_neighbors(v), g.in_neighbors(v), "in {v}");
        }
        assert_eq!(view.thaw(), g);
    }

    #[test]
    fn weighted_delta_mirrors_weighted_graph() {
        let mut g = WeightedGraph::from_edges(4, &[(0, 1, 3), (1, 2, 5)]);
        let view = WeightedCsrDelta::from_weighted(&g);
        assert_eq!(view.weighted_neighbors(1), g.neighbors(1));
        g.set_weight(0, 1, 9);
        g.insert_edge(2, 3, 1);
        let view = patched_from(&view, 4, &[0, 1, 2, 3], None, |v| g.neighbors(v).to_vec());
        for v in 0..4 {
            assert_eq!(view.weighted_neighbors(v), g.neighbors(v), "vertex {v}");
        }
        assert_eq!(view.thaw(), g);
    }

    #[test]
    fn degree_descending_remap_roundtrips() {
        let g = barabasi_albert(100, 3, 13);
        let remap = VertexRemap::degree_descending(&g);
        for v in 0..100 {
            assert_eq!(remap.to_new(remap.to_old(v)), v);
            assert_eq!(remap.to_old(remap.to_new(v)), v);
        }
        let h = g.relabeled(&remap);
        assert_eq!(h.num_edges(), g.num_edges());
        // Degrees are preserved under relabeling and descend in id order.
        for v in 0..100u32 {
            assert_eq!(h.degree(remap.to_new(v)), g.degree(v));
        }
        for w in h.vertices_by_degree().windows(2) {
            assert!(h.degree(w[0]) >= h.degree(w[1]));
        }
        assert_eq!(h.vertices_by_degree()[0], 0, "hub gets id 0");
        // Distances are preserved modulo the remap.
        let d_old = bfs_distances(&g, remap.to_old(0));
        let d_new = bfs_distances(&h, 0);
        for v in 0..100u32 {
            assert_eq!(d_new[v as usize], d_old[remap.to_old(v) as usize]);
        }
    }

    #[test]
    fn remap_translates_batches() {
        let g = DynamicGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]);
        let remap = VertexRemap::degree_descending(&g);
        let mut batch = Batch::new();
        batch.insert(1, 2);
        batch.delete(0, 3);
        let mapped = remap.map_batch(&batch);
        assert_eq!(mapped.len(), 2);
        let (a, b) = mapped.updates()[0].endpoints();
        assert_eq!((remap.to_old(a), remap.to_old(b)), (1, 2));
    }
}
