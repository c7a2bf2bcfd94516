//! Flat CSR snapshot adjacency with a per-generation delta overlay.
//!
//! Every hot path of the workspace — the distance-bounded bidirectional
//! BFS behind `Q(s, t)` (Section 4), the per-landmark search spaces of
//! the update engine, and full index construction — is a graph
//! traversal. The dynamic graphs (`Vec<Vec<Vertex>>`) are ideal for
//! O(1)-amortized edge mutation but pay one pointer chase (and usually
//! one cache miss) per vertex visited. This module provides the
//! complementary *read-optimized* representation:
//!
//! * [`Csr`] — a frozen compressed-sparse-row snapshot: one `offsets`
//!   array (`n + 1` entries) and one flat `items` array holding every
//!   adjacency list back to back. Neighbour access is two array reads;
//!   scanning a whole search space is sequential memory traffic.
//! * [`CsrOverlay`] — a CSR snapshot plus a small per-vertex *delta
//!   overlay*. Batch-dynamic updates cannot rewrite a frozen CSR in
//!   place, so each published generation freezes only the vertices the
//!   batch touched: their current adjacency is copied into the overlay
//!   (`O(Σ deg(endpoint))` per batch) while every untouched vertex
//!   keeps reading straight from the shared base CSR. When the overlay
//!   grows past a configurable fraction of the base's size the whole
//!   graph is *compacted* into a fresh base CSR and the overlay is
//!   cleared — the classic snapshot/delta/compaction cycle of
//!   batch-dynamic structures (cf. Acar et al., parallel batch-dynamic
//!   trees via change propagation).
//!
//! The base CSR is behind an [`Arc`], so consecutive generations share
//! it: publishing a generation costs the overlay delta, not `O(m)`.
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
use crate::AdjacencyView;
use batchhl_common::Vertex;
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
/// overlay ([`CsrOverlay::set_policy`]).
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

/// A CSR snapshot plus the delta overlay of the generations published
/// since the base was frozen.
///
/// Reads resolve per vertex with one bit test: a compact bitmap
/// (`n / 8` bytes, cache-resident even for large graphs) records which
/// vertices are overlaid. The common case — not overlaid — falls
/// through to the shared base CSR after that single test; overlaid
/// vertices (the endpoints of recent batches, few) binary-search a
/// small sorted index for their span. Vertices past the base's range
/// (grown by a batch) read the overlay or an empty list.
///
/// Overlay spans are append-only between compactions: re-touching a
/// vertex appends a fresh copy and abandons the old span. The abandoned
/// bytes count toward the compaction threshold, so garbage is bounded
/// by the same knob that bounds the overlay itself.
#[derive(Debug, Clone)]
pub struct CsrOverlay<T> {
    base: Arc<Csr<T>>,
    /// Bit `v` set ⇔ `v` is overlaid (one word per 64 vertices).
    mask: Vec<u64>,
    /// Overlaid vertex ids, sorted ascending.
    touched: Vec<Vertex>,
    /// `spans[k]` indexes `data` for `touched[k]`.
    spans: Vec<(usize, usize)>,
    data: Vec<T>,
    n: usize,
    policy: CompactionPolicy,
}

/// Unweighted CSR + overlay view — what undirected generations publish.
pub type CsrDelta = CsrOverlay<Vertex>;

/// Weighted CSR + overlay view.
pub type WeightedCsrDelta = CsrOverlay<(Vertex, Weight)>;

impl<T: Copy> CsrOverlay<T> {
    /// Wrap a frozen snapshot with an empty overlay.
    pub fn new(base: Csr<T>) -> Self {
        let n = base.num_vertices();
        CsrOverlay {
            base: Arc::new(base),
            mask: vec![0; n.div_ceil(64)],
            touched: Vec::new(),
            spans: Vec::new(),
            data: Vec::new(),
            n,
            policy: CompactionPolicy::default(),
        }
    }

    /// Set when the overlay compacts into a fresh base (see
    /// [`CompactionPolicy`]).
    pub fn set_policy(&mut self, policy: CompactionPolicy) {
        self.policy = policy;
    }

    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Grow the vertex range (new vertices start with empty adjacency).
    pub fn ensure_vertices(&mut self, n: usize) {
        if n > self.n {
            self.n = n;
            self.mask.resize(n.div_ceil(64), 0);
        }
    }

    /// Adjacency entries currently held by the overlay (including spans
    /// abandoned by re-touches — the figure the compaction policy acts
    /// on).
    pub fn overlay_entries(&self) -> usize {
        self.data.len()
    }

    /// Number of overlaid vertices.
    pub fn overlay_vertices(&self) -> usize {
        self.touched.len()
    }

    /// Resident bytes of the base (shared between the generations
    /// published since the last compaction) plus this view's overlay.
    pub fn resident_bytes(&self) -> usize {
        self.base.resident_bytes()
            + self.mask.len() * 8
            + self.touched.len() * 4
            + self.spans.len() * std::mem::size_of::<(usize, usize)>()
            + self.data.len() * std::mem::size_of::<T>()
    }

    /// The shared base snapshot (generations published between two
    /// compactions return clones of the same `Arc`).
    pub fn base(&self) -> &Arc<Csr<T>> {
        &self.base
    }

    /// The current adjacency list of `v`.
    ///
    /// An empty overlay (the state right after a compaction) is decided
    /// by one struct-local, perfectly predicted branch, so traversal
    /// then runs at pure-CSR speed; otherwise one bitmap test routes
    /// between base and overlay.
    #[inline]
    pub fn list(&self, v: Vertex) -> &[T] {
        debug_assert!((v as usize) < self.n, "vertex {v} out of bounds");
        if self.touched.is_empty() || self.mask[(v >> 6) as usize] & (1u64 << (v & 63)) == 0 {
            if (v as usize) < self.base.num_vertices() {
                self.base.list(v)
            } else {
                &[]
            }
        } else {
            let k = self
                .touched
                .binary_search(&v)
                .expect("mask bit set ⇒ overlaid");
            let (start, end) = self.spans[k];
            &self.data[start..end]
        }
    }

    /// O(1) degree.
    #[inline]
    pub fn degree(&self, v: Vertex) -> usize {
        self.list(v).len()
    }

    /// Record the current adjacency of `v` in the overlay.
    pub fn set_vertex(&mut self, v: Vertex, list: &[T]) {
        self.ensure_vertices(v as usize + 1);
        let start = self.data.len();
        self.data.extend_from_slice(list);
        let span = (start, self.data.len());
        match self.touched.binary_search(&v) {
            Ok(k) => self.spans[k] = span,
            Err(k) => {
                self.mask[(v >> 6) as usize] |= 1u64 << (v & 63);
                self.touched.insert(k, v);
                self.spans.insert(k, span);
            }
        }
    }

    /// Freeze one batch into this view: copy the current adjacency of
    /// every vertex in `touched` (the batch's endpoints) from `fetch`,
    /// then compact into a fresh base CSR if the overlay crossed the
    /// configured fraction of the base. Returns `true` when the call
    /// compacted.
    ///
    /// `fetch` must expose the *post-batch* adjacency of every vertex in
    /// `0..n` — typically a closure over the writer's dynamic graph.
    pub fn absorb<'g>(
        &mut self,
        n: usize,
        touched: impl IntoIterator<Item = Vertex>,
        fetch: impl Fn(Vertex) -> &'g [T],
    ) -> bool
    where
        T: 'g,
    {
        self.ensure_vertices(n);
        for v in touched {
            let list = fetch(v);
            self.set_vertex(v, list);
        }
        if self.needs_compaction() {
            self.compact(fetch);
            return true;
        }
        false
    }

    /// Whether the overlay exceeds the configured fraction of the base.
    pub fn needs_compaction(&self) -> bool {
        self.policy
            .exceeded(self.data.len(), self.base.num_entries())
    }

    /// Rebuild the base CSR from `fetch` and clear the overlay.
    pub fn compact<'g>(&mut self, fetch: impl Fn(Vertex) -> &'g [T])
    where
        T: 'g,
    {
        self.base = Arc::new(Csr::build(self.n, fetch));
        for &v in &self.touched {
            self.mask[(v >> 6) as usize] &= !(1u64 << (v & 63));
        }
        self.touched.clear();
        self.spans.clear();
        self.data.clear();
        self.data.shrink_to_fit();
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

impl CsrDelta {
    /// Freeze the out-adjacency of `g` with an empty overlay.
    pub fn from_adjacency<A: AdjacencyView + ?Sized>(g: &A) -> Self {
        CsrOverlay::new(CsrGraph::from_adjacency(g))
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

    /// Freeze one weighted batch: the touched endpoints re-read their
    /// `(neighbour, weight)` lists from `g`.
    pub fn absorb_from(
        &mut self,
        g: &WeightedGraph,
        touched: impl IntoIterator<Item = Vertex>,
    ) -> bool {
        self.absorb(g.num_vertices(), touched, |v| g.neighbors(v))
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
/// in `out`'s list of `a` and `in`'s list of `b`; the two overlays
/// absorb and compact independently.
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

    /// Freeze one batch of arcs `(tail, head)`: tails re-read their
    /// out-lists, heads their in-lists. Returns `true` if either
    /// direction compacted.
    pub fn absorb_arcs<A: AdjacencyView + ?Sized>(
        &mut self,
        g: &A,
        arcs: &[(Vertex, Vertex)],
    ) -> bool {
        let mut tails: Vec<Vertex> = arcs.iter().map(|&(a, _)| a).collect();
        let mut heads: Vec<Vertex> = arcs.iter().map(|&(_, b)| b).collect();
        tails.sort_unstable();
        tails.dedup();
        heads.sort_unstable();
        heads.dedup();
        let n = g.num_vertices();
        let c_out = self.out.absorb(n, tails, |v| g.out_neighbors(v));
        let c_in = self.inn.absorb(n, heads, |v| g.in_neighbors(v));
        c_out || c_in
    }

    /// Apply a [`CompactionPolicy`] to both direction overlays.
    pub fn set_policy(&mut self, policy: CompactionPolicy) {
        self.out.set_policy(policy);
        self.inn.set_policy(policy);
    }

    pub fn num_vertices(&self) -> usize {
        self.out.num_vertices()
    }

    pub fn overlay_entries(&self) -> usize {
        self.out.overlay_entries() + self.inn.overlay_entries()
    }

    /// Grow both direction overlays (new vertices start with empty
    /// adjacency in each direction).
    pub fn ensure_vertices(&mut self, n: usize) {
        self.out.ensure_vertices(n);
        self.inn.ensure_vertices(n);
    }

    /// Record the current out-adjacency of `v`, keeping the two
    /// directions' vertex counts in sync.
    pub fn set_vertex_out(&mut self, v: Vertex, list: &[Vertex]) {
        self.out.set_vertex(v, list);
        self.inn.ensure_vertices(self.out.num_vertices());
    }

    /// Record the current in-adjacency of `v`, keeping the two
    /// directions' vertex counts in sync.
    pub fn set_vertex_in(&mut self, v: Vertex, list: &[Vertex]) {
        self.inn.set_vertex(v, list);
        self.out.ensure_vertices(self.inn.num_vertices());
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

    #[test]
    fn overlay_tracks_batches_and_compacts() {
        let mut g = barabasi_albert(150, 2, 3);
        let mut view = CsrDelta::from_adjacency(&g);
        view.set_policy(CompactionPolicy::eager(0.05));
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
            let compacted = view.absorb(g.num_vertices(), norm.touched_vertices(), |v| {
                g.neighbors(v)
            });
            if compacted {
                assert_eq!(view.overlay_entries(), 0, "compaction clears the overlay");
            }
            compacted_once |= compacted;
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
        let mut view = CsrDelta::from_adjacency(&g);
        assert_eq!(view.list(2), &[] as &[Vertex]);
        let mut batch = Batch::new();
        batch.insert(1, 6);
        g.apply_batch(&batch);
        view.absorb(g.num_vertices(), [1, 6], |v| g.neighbors(v));
        assert_eq!(view.num_vertices(), 7);
        assert_eq!(view.list(6), &[1]);
        assert_eq!(view.list(1), &[0, 6]);
        assert_eq!(view.list(5), &[] as &[Vertex], "grown vertices are empty");
    }

    #[test]
    fn overlay_semantic_equality() {
        let g = barabasi_albert(60, 2, 5);
        let a = CsrDelta::from_adjacency(&g);
        // Same adjacency, entirely different base/overlay split.
        let mut b = CsrDelta::new(CsrGraph::from_adjacency(&DynamicGraph::new(0)));
        b.absorb(g.num_vertices(), 0..g.num_vertices() as Vertex, |v| {
            g.neighbors(v)
        });
        assert_eq!(a, b);
        let mut c = a.clone();
        c.set_vertex(0, &[]);
        assert_ne!(a, c);
    }

    #[test]
    fn directed_delta_mirrors_digraph() {
        let mut g = DynamicDiGraph::from_edges(5, &[(0, 1), (1, 2), (3, 1)]);
        let mut view = CsrDiDelta::from_adjacency(&g);
        assert_eq!(view.out_neighbors(1), g.out_neighbors(1));
        assert_eq!(view.in_neighbors(1), g.in_neighbors(1));
        g.insert_edge(4, 1);
        g.remove_edge(0, 1);
        view.absorb_arcs(&g, &[(4, 1), (0, 1)]);
        for v in 0..5 {
            assert_eq!(view.out_neighbors(v), g.out_neighbors(v), "out {v}");
            assert_eq!(view.in_neighbors(v), g.in_neighbors(v), "in {v}");
        }
    }

    #[test]
    fn weighted_delta_mirrors_weighted_graph() {
        let mut g = WeightedGraph::from_edges(4, &[(0, 1, 3), (1, 2, 5)]);
        let mut view = WeightedCsrDelta::from_weighted(&g);
        assert_eq!(view.weighted_neighbors(1), g.neighbors(1));
        g.set_weight(0, 1, 9);
        g.insert_edge(2, 3, 1);
        view.absorb_from(&g, [0, 1, 2, 3]);
        for v in 0..4 {
            assert_eq!(view.weighted_neighbors(v), g.neighbors(v), "vertex {v}");
        }
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
