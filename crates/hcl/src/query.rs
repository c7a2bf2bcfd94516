//! Query processing (Section 4): the one query path every index
//! family and every what-if session runs.
//!
//! `Q(s, t) = min(d_{G[V\R]}(s, t), d⊤_{st})`: compute the highway upper
//! bound from the labelling (Eq. 3), then run a distance-bounded search
//! on the landmark-sparsified graph. Landmark endpoints are answered from
//! the labelling alone via the highway cover property (Eq. 2) — for them
//! the bound is already exact.
//!
//! Directed and weighted graphs change only *which* labels and *which*
//! search are used, so [`point_dist`], [`distances_from`] and [`top_k`]
//! are generic over both:
//!
//! * the labels are a `(fwd, bwd)` pair of [`LabelView`]s. Forward
//!   labels answer `d(r → v)` and carry the highway; backward labels
//!   answer `d(v → r)`. Undirected and weighted callers pass one
//!   labelling twice. A what-if session passes
//!   [`crate::patch::PatchedLabels`] views, so a hypothetical is answered
//!   by the same code as a committed generation.
//! * the search is a [`BoundedSearch`]: [`BiBfs`] over an
//!   `AdjacencyView`, `BiDijkstra` over a `WeightedAdjacencyView`.
//!
//! The Eq. 3 code ([`upper_bound_pair`], [`SourcePlan`]) has one packed
//! SIMD fast path, taken when [`LabelView::packed_base`] hands back a
//! labelling whose packed mirror serves the call, and one exact loop
//! over the view's accessors for everything else (a non-empty what-if
//! patch, grown vertices, distances outside the clamped kernel domain).
//!
//! # Batched queries: pinning the source's label row
//!
//! Serving workloads are dominated by *one-source-to-many-targets*
//! shapes (recommendation candidates, probe fan-outs). Eq. 3 factors
//! per endpoint: `d⊤(s, t) = min_j (via_s[j] + label_j(t))` where
//! `via_s[j] = min_i label_i(s) + δ_H(r_i, r_j)` depends on `s` alone.
//! A [`SourcePlan`] materializes `via_s` once — one `O(|L(s)|·|R|)`
//! scan of the source's label row and the highway matrix — and then
//! every target costs a single `O(|R|)` pass over its own labels
//! instead of re-reading the source row and the highway per pair.
//!
//! [`distances_from`] builds on that: for large target sets it
//! additionally replaces the per-target bidirectional searches with
//! **one** bounded sweep from `s` on `G[V\R]`, amortizing the source
//! side of Section 4's search across the whole call.

use crate::kernel::{self, clamp_to_inf, CLAMP_INF};
use crate::labelling::{LabelView, Labelling, NO_LABEL};
use batchhl_common::{Dist, Vertex, INF};
use batchhl_graph::bfs::BiBfs;
use batchhl_graph::{AdjacencyView, BoundedSearch};

/// Calibration anchor for [`sweep_min_targets`]: the measured sweep /
/// per-search cost crossover on the standard bench graph (~2 000
/// vertices, `oracle_api` in `BENCH_api.json` put it near 60 unresolved
/// targets; 48 leaves margin for the grouped-query shape).
pub const SWEEP_MIN_TARGETS: usize = 48;

/// Vertex count of the bench graph [`SWEEP_MIN_TARGETS`] was measured
/// on (the youtube stand-in at `Scale::Tiny`).
const SWEEP_CAL_N: usize = 2_000;

/// Batched one-to-many calls switch from per-target bidirectional
/// searches to a single source sweep once this many targets remain
/// unresolved. The sweep costs one bounded traversal of `s`'s
/// component while a single bounded BiBFS grows with the search ball —
/// roughly `√n` frontier work per side — so the crossover *moves down*
/// as graphs grow (`BENCH_api.json`). The threshold scales the
/// measured [`SWEEP_MIN_TARGETS`] anchor by `√(cal_n / n)`, clamped to
/// `[8, 96]`: tiny test graphs keep per-target searches (they are
/// near-free there), million-vertex graphs sweep almost immediately.
pub fn sweep_min_targets(n: usize) -> usize {
    if n == 0 {
        return SWEEP_MIN_TARGETS;
    }
    let scaled = SWEEP_MIN_TARGETS as f64 * (SWEEP_CAL_N as f64 / n as f64).sqrt();
    (scaled.round() as usize).clamp(8, 96)
}

/// The reusable source side of Eq. 3: `via[j]` is the cheapest
/// `s → r_i → r_j` route into each landmark `r_j` (`INF` when none).
/// Build once per source, then [`SourcePlan::bound_to`] prices any
/// target in `O(|R|)`.
///
/// For directed graphs pass the *backward* labelling (labels answer
/// `d(s → r_i)`) as `source_lab` and the *forward* labelling (whose
/// highway holds `d(r_i → r_j)`) as `highway_lab`; undirected callers
/// pass the same labelling twice.
#[derive(Debug, Clone)]
pub struct SourcePlan {
    source: Vertex,
    /// In the clamped kernel domain when `clamped` (sentinel
    /// [`CLAMP_INF`], every slot `≤ CLAMP_INF`), otherwise in the exact
    /// domain with `INF` marking no route.
    via: Box<[Dist]>,
    clamped: bool,
}

/// Fill `via` (clamped domain, pre-initialized to [`CLAMP_INF`]) from
/// `s`'s packed label row and the packed highway — `|L(s)|` dense
/// min-plus kernel calls. Returns `false` when the inputs fall outside
/// the clamped domain.
fn fill_via_clamped(
    source_lab: &Labelling,
    highway_lab: &Labelling,
    s: Vertex,
    via: &mut [Dist],
) -> bool {
    let sp = source_lab.packed();
    let hp = &highway_lab.packed().highway;
    if !hp.clamp_safe() {
        return false;
    }
    let srow = sp.labels.row(s);
    if !srow.clamp_safe {
        return false;
    }
    for k in 0..srow.len() {
        let (i, ls) = srow.entry(k);
        kernel::accumulate_via(via, ls, hp.row(i as usize));
    }
    true
}

impl SourcePlan {
    pub fn new<S: LabelView, H: LabelView>(source_lab: &S, highway_lab: &H, s: Vertex) -> Self {
        let r = highway_lab.num_landmarks();
        if let (Some(sb), Some(hb)) = (source_lab.packed_base(s), highway_lab.packed_base(s)) {
            let mut via = vec![CLAMP_INF; r].into_boxed_slice();
            if fill_via_clamped(sb, hb, s, &mut via) {
                return SourcePlan {
                    source: s,
                    via,
                    clamped: true,
                };
            }
        }
        // Exact domain: `INF` sentinel, `u64` accumulation.
        let mut via = vec![INF; r].into_boxed_slice();
        for i in 0..source_lab.num_landmarks() {
            let ls = source_lab.label(i, s);
            if ls == NO_LABEL {
                continue;
            }
            for (j, slot) in via.iter_mut().enumerate() {
                let h = highway_lab.highway(i, j);
                if h == INF {
                    continue;
                }
                let cand = u64::from(ls) + u64::from(h);
                if cand < u64::from(*slot) {
                    *slot = cand as Dist;
                }
            }
        }
        SourcePlan {
            source: s,
            via,
            clamped: false,
        }
    }

    /// The source vertex this plan prices routes from.
    #[inline]
    pub fn source(&self) -> Vertex {
        self.source
    }

    /// The Eq. 3 upper bound `d⊤(s, t)` priced against `t`'s labels in
    /// `target_lab` — equal to [`upper_bound_pair`] but `O(|L(t)|)` per
    /// target instead of `O(|L(s)|·|L(t)|)`. Clamped plans use the
    /// sparse gather min-plus kernel over `t`'s packed row when the
    /// view has one.
    pub fn bound_to<T: LabelView>(&self, target_lab: &T, t: Vertex) -> Dist {
        if self.clamped {
            if let Some(tb) = target_lab.packed_base(t) {
                let trow = tb.packed().labels.row(t);
                if trow.clamp_safe {
                    return clamp_to_inf(kernel::gather_min(&self.via, trow.ids, trow.dists));
                }
            }
        }
        // Exact loop; a clamped plan keeps its `CLAMP_INF` no-route
        // sentinel.
        let no_route = if self.clamped { CLAMP_INF } else { INF };
        let mut best = u64::from(INF);
        for (j, &via) in self.via.iter().enumerate() {
            if via >= no_route {
                continue;
            }
            let lt = target_lab.label(j, t);
            if lt != NO_LABEL {
                best = best.min(u64::from(via) + u64::from(lt));
            }
        }
        best.min(u64::from(INF)) as Dist
    }
}

/// Eq. 3 over a `(source, highway, target)` labelling triple:
/// `min_{i,j} ls_i + δ_H(r_i, r_j) + lt_j`. The packed path iterates
/// *logical* entries — `O(|L(s)|·|L(t)|)` instead of the dense
/// `O(|R|²)` of the exact loop. Undirected callers pass the same
/// labelling three times ([`Labelling::upper_bound`] does); directed
/// callers pass `(bwd, fwd, fwd)`. Exact for every width tier (`u64`
/// accumulation).
pub fn upper_bound_pair<S: LabelView, H: LabelView, T: LabelView>(
    source_lab: &S,
    highway_lab: &H,
    target_lab: &T,
    s: Vertex,
    t: Vertex,
) -> Dist {
    let mut best = u64::from(INF);
    if let (Some(sb), Some(hb), Some(tb)) = (
        source_lab.packed_base(s),
        highway_lab.packed_base(s),
        target_lab.packed_base(t),
    ) {
        let srow = sb.packed().labels.row(s);
        let trow = tb.packed().labels.row(t);
        let hp = &hb.packed().highway;
        for a in 0..srow.len() {
            let (i, ls) = srow.entry(a);
            for b in 0..trow.len() {
                let (j, lt) = trow.entry(b);
                let h = hp.get(i as usize, j as usize);
                if h != INF {
                    best = best.min(u64::from(ls) + u64::from(h) + u64::from(lt));
                }
            }
        }
        return best.min(u64::from(INF)) as Dist;
    }
    let r = source_lab.num_landmarks();
    for i in 0..r {
        let ls = source_lab.label(i, s);
        if ls == NO_LABEL {
            continue;
        }
        for j in 0..r {
            let h = highway_lab.highway(i, j);
            let lt = target_lab.label(j, t);
            if h != INF && lt != NO_LABEL {
                best = best.min(u64::from(ls) + u64::from(h) + u64::from(lt));
            }
        }
    }
    best.min(u64::from(INF)) as Dist
}

/// Exact `d(s → t)` (Section 4): Eq. 2 for landmark endpoints,
/// otherwise the Eq. 3 bound refined by one bounded search on
/// `G[V\R]`. `INF` when disconnected or when either endpoint lies
/// outside `graph`.
pub fn point_dist<G, L: LabelView, S: BoundedSearch<G>>(
    graph: &G,
    fwd: &L,
    bwd: &L,
    search: &mut S,
    s: Vertex,
    t: Vertex,
) -> Dist {
    let n = S::num_vertices(graph);
    if (s as usize) >= n || (t as usize) >= n {
        return INF;
    }
    if s == t {
        return 0;
    }
    if let Some(i) = fwd.landmark_index(s) {
        return fwd.landmark_to_vertex(i, t);
    }
    if let Some(j) = bwd.landmark_index(t) {
        return bwd.landmark_to_vertex(j, s);
    }
    let bound = upper_bound_pair(bwd, fwd, fwd, s, t);
    search
        .run(graph, s, t, bound, |v| !fwd.is_landmark(v))
        .unwrap_or(bound)
}

/// One source, many targets (see the module docs): build a
/// [`SourcePlan`] once, price every target's Eq. 3 bound in
/// `O(|L(t)|)`, then refine non-landmark targets — per-target bounded
/// searches when few remain, or a single bounded sweep of `G[V\R]`
/// from `s` once [`sweep_min_targets`] of them need search.
///
/// Answers equal [`point_dist`] pair by pair; `INF` marks disconnected
/// or out-of-range endpoints.
pub fn distances_from<G, L: LabelView, S: BoundedSearch<G>>(
    graph: &G,
    fwd: &L,
    bwd: &L,
    search: &mut S,
    s: Vertex,
    targets: &[Vertex],
) -> Vec<Dist> {
    let n = S::num_vertices(graph);
    let mut out = vec![INF; targets.len()];
    if (s as usize) >= n {
        return out;
    }
    // Landmark sources are exact from the labelling alone (Eq. 2).
    if let Some(i) = fwd.landmark_index(s) {
        for (slot, &t) in out.iter_mut().zip(targets) {
            if (t as usize) < n {
                *slot = fwd.landmark_to_vertex(i, t);
            }
        }
        return out;
    }
    let plan = SourcePlan::new(bwd, fwd, s);
    let mut refine: Vec<usize> = Vec::new();
    for (k, &t) in targets.iter().enumerate() {
        if (t as usize) >= n {
            continue;
        }
        if t == s {
            out[k] = 0;
            continue;
        }
        if let Some(j) = bwd.landmark_index(t) {
            out[k] = bwd.landmark_to_vertex(j, s);
            continue;
        }
        out[k] = plan.bound_to(fwd, t);
        refine.push(k);
    }
    let allowed = |v| !fwd.is_landmark(v);
    if refine.len() >= sweep_min_targets(n) {
        // One sweep bounded by the largest per-target bound: a
        // restricted path shorter than its pair's bound lies within
        // the horizon, so min(bound, sweep) is exact per pair.
        let horizon = refine.iter().map(|&k| out[k]).max().unwrap_or(0);
        search.sweep(graph, s, horizon, usize::MAX, allowed);
        for &k in &refine {
            out[k] = out[k].min(search.sweep_dist(targets[k]));
        }
    } else {
        for &k in &refine {
            let bound = out[k];
            out[k] = search
                .run(graph, s, targets[k], bound, allowed)
                .unwrap_or(bound);
        }
    }
    out
}

/// The `k` vertices closest to `s` (excluding `s`), nondecreasing by
/// distance: a plain capped sweep of the *full* graph — distances there
/// are exact, so no labelling is consulted.
///
/// The answer set is **deterministic**: the sweep always completes the
/// distance level the cap lands in (so every vertex at the boundary
/// distance is a candidate), and ties at the boundary are broken by
/// ascending vertex id. The same query therefore answers identically
/// before and after CSR compaction or any other adjacency reordering of
/// an identical graph.
pub fn top_k<G, S: BoundedSearch<G>>(
    graph: &G,
    search: &mut S,
    s: Vertex,
    k: usize,
) -> Vec<(Vertex, Dist)> {
    if (s as usize) >= S::num_vertices(graph) || k == 0 {
        return Vec::new();
    }
    search.sweep(graph, s, INF, k.saturating_add(1), |_| true);
    let mut out: Vec<(Vertex, Dist)> = search
        .swept()
        .iter()
        .filter(|&&v| v != s)
        .map(|&v| (v, search.sweep_dist(v)))
        .collect();
    // The sweep is nondecreasing by distance but adjacency- or
    // heap-ordered within a distance; canonicalize to (distance, id)
    // and cut at k.
    out.sort_unstable_by_key(|&(v, d)| (d, v));
    out.truncate(k);
    out
}

/// Reusable query engine for undirected graphs: owns the bidirectional
/// search workspace so back-to-back queries allocate nothing. A thin
/// wrapper over [`point_dist`], [`distances_from`] and [`top_k`] with
/// one labelling in both directions.
#[derive(Debug, Default)]
pub struct QueryEngine {
    bibfs: BiBfs,
}

impl QueryEngine {
    pub fn new(n: usize) -> Self {
        QueryEngine {
            bibfs: BiBfs::new(n),
        }
    }

    /// Exact distance between `s` and `t` on the graph `g` that `lab`
    /// currently describes; `None` if disconnected or out of range.
    pub fn query<A: AdjacencyView>(
        &mut self,
        lab: &Labelling,
        g: &A,
        s: Vertex,
        t: Vertex,
    ) -> Option<Dist> {
        let d = self.query_dist(lab, g, s, t);
        (d != INF).then_some(d)
    }

    /// As [`QueryEngine::query`] but returning `INF` for disconnected.
    pub fn query_dist<A: AdjacencyView>(
        &mut self,
        lab: &Labelling,
        g: &A,
        s: Vertex,
        t: Vertex,
    ) -> Dist {
        point_dist(g, lab, lab, &mut self.bibfs, s, t)
    }

    /// See [`distances_from`].
    pub fn distances_from<A: AdjacencyView>(
        &mut self,
        lab: &Labelling,
        g: &A,
        s: Vertex,
        targets: &[Vertex],
    ) -> Vec<Dist> {
        distances_from(g, lab, lab, &mut self.bibfs, s, targets)
    }

    /// See [`top_k`].
    pub fn top_k_closest<A: AdjacencyView>(
        &mut self,
        g: &A,
        s: Vertex,
        k: usize,
    ) -> Vec<(Vertex, Dist)> {
        top_k(g, &mut self.bibfs, s, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_labelling;
    use crate::oracle::all_pairs_bfs;
    use crate::LandmarkSelection;
    use batchhl_graph::generators::{barabasi_albert, cycle, erdos_renyi_gnm, grid, path, star};
    use batchhl_graph::DynamicGraph;

    fn assert_all_pairs_exact(g: &DynamicGraph, k: usize) {
        let lms = LandmarkSelection::TopDegree(k).select(g);
        let lab = build_labelling(g, lms).unwrap();
        let truth = all_pairs_bfs(g);
        let mut engine = QueryEngine::new(g.num_vertices());
        for s in 0..g.num_vertices() as Vertex {
            for t in 0..g.num_vertices() as Vertex {
                assert_eq!(
                    engine.query_dist(&lab, g, s, t),
                    truth[s as usize][t as usize],
                    "query({s},{t}) with {k} landmarks"
                );
            }
        }
    }

    #[test]
    fn exact_on_classics() {
        for k in [1, 2, 4] {
            assert_all_pairs_exact(&path(9), k);
            assert_all_pairs_exact(&cycle(9), k);
            assert_all_pairs_exact(&star(9), k);
            assert_all_pairs_exact(&grid(4, 3), k);
        }
    }

    #[test]
    fn exact_on_random_graphs() {
        for seed in 0..6 {
            let g = erdos_renyi_gnm(50, 90, seed);
            assert_all_pairs_exact(&g, 4);
        }
        let g = barabasi_albert(80, 2, 3);
        assert_all_pairs_exact(&g, 6);
    }

    #[test]
    fn exact_on_disconnected_graph() {
        // Two components; landmark in one of them.
        let g = DynamicGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        assert_all_pairs_exact(&g, 2);
        let lab = build_labelling(&g, vec![0]).unwrap();
        let mut engine = QueryEngine::new(6);
        assert_eq!(engine.query(&lab, &g, 0, 4), None);
        assert_eq!(engine.query(&lab, &g, 3, 4), Some(1));
        assert_eq!(engine.query(&lab, &g, 5, 5), Some(0));
        assert_eq!(engine.query(&lab, &g, 5, 0), None);
    }

    #[test]
    fn landmark_endpoint_cases() {
        let g = path(6);
        let lab = build_labelling(&g, vec![1, 4]).unwrap();
        let mut engine = QueryEngine::new(6);
        // landmark–landmark via highway
        assert_eq!(engine.query(&lab, &g, 1, 4), Some(3));
        // landmark–vertex via Eq. 2
        assert_eq!(engine.query(&lab, &g, 1, 5), Some(4));
        assert_eq!(engine.query(&lab, &g, 0, 4), Some(4));
        // same landmark
        assert_eq!(engine.query(&lab, &g, 4, 4), Some(0));
    }

    #[test]
    fn search_beats_bound_when_paths_avoid_landmarks() {
        // Square 0-1-2-3-0 plus a hub 4 connected to 0 and 2; landmark
        // at the hub. d(1, 3) = 2 around the square, but the highway
        // route via the hub also gives 1 + 0 + 1... make the hub farther.
        // Path 0-1, 1-2; hub 3 adjacent to 0 and 2 only.
        let g = DynamicGraph::from_edges(4, &[(0, 1), (1, 2), (3, 0), (3, 2)]);
        let lab = build_labelling(&g, vec![3]).unwrap();
        let mut engine = QueryEngine::new(4);
        // Upper bound through landmark 3: d(0,3)+d(3,2) = 2; the direct
        // path 0-1-2 also has length 2 — equal here. For (1, 1)? Use
        // (0, 2): both routes length 2.
        assert_eq!(engine.query(&lab, &g, 0, 2), Some(2));
        // (1, 3) is landmark query.
        assert_eq!(engine.query(&lab, &g, 1, 3), Some(2));
        // (0, 1): bound via landmark = 1 + 2... actual edge = 1.
        assert_eq!(engine.query(&lab, &g, 0, 1), Some(1));
    }

    #[test]
    fn source_plan_bound_equals_upper_bound() {
        let g = barabasi_albert(100, 3, 5);
        let lab = build_labelling(&g, LandmarkSelection::TopDegree(6).select(&g)).unwrap();
        for s in (0..100u32).step_by(7).filter(|&s| !lab.is_landmark(s)) {
            let plan = SourcePlan::new(&lab, &lab, s);
            assert_eq!(plan.source(), s);
            for t in 0..100u32 {
                assert_eq!(plan.bound_to(&lab, t), lab.upper_bound(s, t), "({s},{t})");
                // Packed + kernel paths agree with the dense reference.
                assert_eq!(
                    lab.upper_bound(s, t),
                    lab.upper_bound_dense(s, t),
                    "({s},{t})"
                );
            }
        }
    }

    #[test]
    fn sweep_threshold_scales_down_with_graph_size() {
        // Calibrated to the anchor on the bench-sized graph…
        assert_eq!(sweep_min_targets(2_000), SWEEP_MIN_TARGETS);
        // …moving down as graphs grow, up (clamped) as they shrink.
        assert!(sweep_min_targets(1_000_000) < SWEEP_MIN_TARGETS);
        assert_eq!(sweep_min_targets(usize::MAX / 4), 8);
        assert_eq!(sweep_min_targets(1), 96);
        assert_eq!(sweep_min_targets(0), SWEEP_MIN_TARGETS);
        assert!(sweep_min_targets(400_000) <= sweep_min_targets(2_000));
    }

    #[test]
    fn distances_from_matches_per_pair_queries() {
        for (seed, k) in [(0u64, 4usize), (3, 2), (5, 6)] {
            let g = erdos_renyi_gnm(60, 110, seed);
            let lms = LandmarkSelection::TopDegree(k).select(&g);
            let lab = build_labelling(&g, lms).unwrap();
            let mut engine = QueryEngine::new(g.num_vertices());
            let threshold = sweep_min_targets(g.num_vertices());
            // Enough (repeated) targets to cross the adaptive sweep
            // threshold, and a short list that stays under it.
            let all: Vec<Vertex> = (0..60).chain(0..60).collect();
            let few: Vec<Vertex> = (0..60).step_by(11).collect();
            assert!(few.len() < threshold && all.len() >= threshold);
            for s in 0..60u32 {
                // Both the sweep path (many targets) and the per-target
                // BiBFS path (few targets) must agree with query_dist.
                let swept = engine.distances_from(&lab, &g, s, &all);
                for (&t, &d) in all.iter().zip(&swept) {
                    assert_eq!(d, engine.query_dist(&lab, &g, s, t), "sweep ({s},{t})");
                }
                let direct = engine.distances_from(&lab, &g, s, &few);
                for (&t, &d) in few.iter().zip(&direct) {
                    assert_eq!(d, engine.query_dist(&lab, &g, s, t), "direct ({s},{t})");
                }
            }
        }
    }

    #[test]
    fn distances_from_handles_range_and_disconnection() {
        let g = DynamicGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let lab = build_labelling(&g, vec![1]).unwrap();
        let mut engine = QueryEngine::new(6);
        let targets = [0, 2, 3, 5, 9, 4];
        assert_eq!(
            engine.distances_from(&lab, &g, 0, &targets),
            vec![0, 2, INF, INF, INF, INF]
        );
        // Landmark source: answered from the labelling alone.
        assert_eq!(
            engine.distances_from(&lab, &g, 1, &targets),
            vec![1, 1, INF, INF, INF, INF]
        );
        // Out-of-range source.
        assert_eq!(engine.distances_from(&lab, &g, 17, &targets), vec![INF; 6]);
        // Out-of-range endpoints of a single pair, including `s == t`.
        for (s, t) in [(9, 0), (0, 9), (9, 9)] {
            assert_eq!(engine.query_dist(&lab, &g, s, t), INF, "({s},{t})");
            assert_eq!(engine.query(&lab, &g, s, t), None, "({s},{t})");
        }
    }

    #[test]
    fn top_k_closest_orders_by_distance() {
        let g = path(7);
        let lab = build_labelling(&g, vec![3]).unwrap();
        let mut engine = QueryEngine::new(7);
        let top = engine.top_k_closest(&g, 0, 3);
        assert_eq!(top, vec![(1, 1), (2, 2), (3, 3)]);
        assert!(engine.top_k_closest(&g, 0, 0).is_empty());
        assert_eq!(engine.top_k_closest(&g, 6, 100).len(), 6);
        // Distances reported must match the query path.
        for (v, d) in engine.top_k_closest(&g, 2, 6) {
            assert_eq!(Some(d), engine.query(&lab, &g, 2, v));
        }
    }

    #[test]
    fn upper_bound_is_admissible_and_often_tight() {
        let g = barabasi_albert(120, 3, 11);
        let lab = build_labelling(&g, LandmarkSelection::TopDegree(8).select(&g)).unwrap();
        let truth = all_pairs_bfs(&g);
        for s in (0..120u32).step_by(7) {
            for t in (0..120u32).step_by(11) {
                let ub = lab.upper_bound(s, t);
                let d = truth[s as usize][t as usize];
                if !lab.is_landmark(s) && !lab.is_landmark(t) && s != t {
                    assert!(ub as u64 >= d as u64, "bound must be admissible");
                }
            }
        }
    }
}
