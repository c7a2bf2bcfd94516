//! The unified update engine: one search→repair orchestration for every
//! index variant.
//!
//! Algorithm 1 is the same loop in every setting: for each landmark,
//! run a batch search over the updated graph `G′` against the *old*
//! labelling `Γ` to find the affected vertices, then run batch repair to
//! rewrite that landmark's rows of the new labelling `Γ′`. What differs
//! between the undirected, directed (Section 6) and weighted
//! (Section 6) indexes is only the **search space** — unit-length arcs
//! in either direction, or weighted edges — which the [`Metric`]
//! parameter captures, and the [`Seed`] arcs a family derives from its
//! batch. [`run_landmarks`] owns the orchestration (sequential or
//! landmark-parallel BHLₚ) once, for all of them.
//!
//! One landmark's search + repair may read the whole old labelling and
//! graph, and emits only landmark `i`'s [`RowDelta`] — its rewritten
//! labels and highway entries. That is the write-disjointness argument
//! of the paper's parallel variant: the parallel path shares nothing
//! but read-only state. Its workers take landmarks on demand from a
//! shared counter rather than in fixed ranges, because the affected
//! sets of one batch differ widely between landmarks and the slowest
//! worker sets the pass's wall time. Nothing writes `Γ` in place:
//! [`run_landmarks`] builds `Γ′` from the published `Γ` plus the deltas
//! ([`Labelling::seal_patched`]), so readers keep serving `Γ` untouched
//! while the pass runs. A what-if session runs the same kernels and
//! keeps the deltas as a [`LabelPatch`] instead; [`Repair`] is that one
//! choice (`Commit` or `Speculative`).

use crate::index::IndexConfig;
use crate::metric::{Metric, Seed};
use crate::repair::batch_repair;
use crate::search::batch_search;
use crate::workspace::UpdateWorkspace;
use batchhl_common::{MonotoneQueue, Vertex};
use batchhl_graph::CompactionPolicy;
use batchhl_hcl::{LabelPatch, Labelling, RowDelta, NO_LABEL};
use std::borrow::Cow;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Search (β-pruned when `improved`) + repair landmark `i`: its delta.
fn search_and_repair<M: Metric>(
    old: &Labelling,
    g: &M,
    seeds: &[Seed],
    i: usize,
    improved: bool,
    ws: &mut UpdateWorkspace<M::Queue>,
) -> RowDelta {
    ws.reset();
    batch_search(old, g, seeds, i, improved, ws);
    batch_repair(old, g, i, ws)
}

/// One full update pass: search + repair every landmark of `old`,
/// sequentially or with landmark-level parallelism
/// (`config.threads > 1`, BHLₚ), then build the next labelling from
/// `old` and the deltas ([`Labelling::seal_patched`], compacting under
/// `config.compaction`). The configured algorithm picks the basic or
/// the β-pruned search. Returns the new labelling and `|V_aff|` per
/// landmark.
pub fn run_landmarks<M: Metric>(
    g: &M,
    old: &Labelling,
    seeds: &[Seed],
    config: &IndexConfig,
    ws: &mut UpdateWorkspace<M::Queue>,
) -> (Labelling, Vec<usize>) {
    // Chaos-suite injection point: a panic here, with `G′` built and
    // the repair under way, must leave the published generation
    // serving and the index committable. There is no Result channel
    // through a repair pass — an armed Error action panics too.
    if let Err(msg) = batchhl_common::failpoint::check("engine::mid_repair_panic") {
        panic!("{msg}");
    }
    let improved = config.algorithm.improved_search();
    ws.grow(old.num_vertices());
    let deltas = each_landmark(old, config.threads, ws, |i, ws| {
        landmark_failpoint();
        search_and_repair(old, g, seeds, i, improved, ws)
    });
    // Repair finalizes every affected vertex exactly once.
    let affected = deltas.iter().map(|d| d.labels.len()).collect();
    (old.seal_patched(&deltas, config.compaction), affected)
}

/// Construct the minimal labelling of `g` from the unlabelled `empty`
/// (its landmark set): with every vertex but the landmark's own
/// affected, Algorithm 4's sweep alone is the flagged Dijkstra (BFS on
/// unit lengths) from each landmark. `threads` as in [`run_landmarks`].
pub(crate) fn build_labelling<M: Metric>(g: &M, empty: &Labelling, threads: usize) -> Labelling {
    let n = empty.num_vertices();
    let deltas = each_landmark(empty, threads, &mut UpdateWorkspace::new(n), |i, ws| {
        ws.reset();
        let root = empty.landmark_vertex(i);
        for v in (0..n as Vertex).filter(|&v| v != root) {
            ws.aff.insert(v);
        }
        let mut delta = batch_repair(empty, g, i, ws);
        // Removing an absent label is a no-op: keep only the labels.
        delta.labels.retain(|&(_, d)| d != NO_LABEL);
        delta.labels.shrink_to_fit();
        delta
    });
    empty.seal_patched(&deltas, CompactionPolicy::default())
}

/// Run `landmark(i, ws)` for every landmark `i` of `lab` and collect the
/// deltas in landmark order: in turn on `ws`, or (`threads > 1`) on the
/// calling thread plus `threads − 1` scoped workers, each on its own
/// workspace from `ws.workers` (grown on first use and kept there, so a
/// pass allocates none). The threads hand the landmarks out on demand —
/// each takes the next unclaimed index from a shared counter — so one
/// landmark with many affected vertices does not leave the others idle
/// behind a fixed split. A landmark's delta is its own rows of the next
/// labelling, so the threads share nothing but read-only state and the
/// counter.
fn each_landmark<Q: MonotoneQueue>(
    lab: &Labelling,
    threads: usize,
    ws: &mut UpdateWorkspace<Q>,
    landmark: impl Fn(usize, &mut UpdateWorkspace<Q>) -> RowDelta + Sync,
) -> Vec<RowDelta> {
    let r = lab.num_landmarks();
    let threads = threads.clamp(1, r.max(1));
    if threads == 1 {
        return (0..r).map(|i| landmark(i, ws)).collect();
    }
    let next = AtomicUsize::new(0);
    let (landmark, next) = (&landmark, &next);
    let claim = move |ws: &mut UpdateWorkspace<Q>| {
        std::iter::from_fn(|| {
            let i = next.fetch_add(1, Ordering::Relaxed);
            (i < r).then(|| (i, landmark(i, ws)))
        })
        .collect::<Vec<_>>()
    };
    let mut workers = std::mem::take(&mut ws.workers);
    workers.resize_with(threads - 1, UpdateWorkspace::default);
    let mut done: Vec<(usize, RowDelta)> = std::thread::scope(|scope| {
        let spawned: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                w.grow(lab.num_vertices());
                scope.spawn(move || claim(w))
            })
            .collect();
        let mut done = claim(ws);
        // Re-raise a worker's own payload instead of a fresh "worker
        // panicked" panic: the facade's containment records the payload
        // string in the poisoned-health reason, and it must name the
        // original failure even when it crossed a scoped thread.
        for w in spawned {
            done.extend(w.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        done
    });
    ws.workers = workers;
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter().map(|(_, delta)| delta).collect()
}

/// What a pass does with each labelling's search→repair: a commit seals
/// the next labelling (`Commit`), a what-if keeps the changed rows as a
/// patch (`Speculative`). Either way the search and the repair are the
/// same kernels over the same `G′`, so a commit is a what-if that is
/// sealed and published.
pub trait Repair<Q: MonotoneQueue> {
    type Out;

    /// Search + repair every landmark of `old` over `g` (`G′`, on `n`
    /// vertices) from `seeds`.
    fn run<M: Metric<Queue = Q>>(
        &mut self,
        g: &M,
        n: usize,
        old: &Labelling,
        seeds: &[Seed],
    ) -> Self::Out;
}

/// A committed pass ([`run_landmarks`]): the next labelling and `|V_aff|`
/// per landmark.
pub(crate) struct Commit<'a, Q> {
    pub(crate) config: &'a IndexConfig,
    pub(crate) ws: &'a mut UpdateWorkspace<Q>,
}

impl<Q: MonotoneQueue> Repair<Q> for Commit<'_, Q> {
    type Out = (Labelling, Vec<usize>);

    fn run<M: Metric<Queue = Q>>(
        &mut self,
        g: &M,
        n: usize,
        old: &Labelling,
        seeds: &[Seed],
    ) -> Self::Out {
        run_landmarks(g, &oracle_for(old, n), seeds, self.config, self.ws)
    }
}

/// A what-if pass (`run_landmarks_speculative`): the changed rows.
pub(crate) struct Speculative;

impl<Q: MonotoneQueue> Repair<Q> for Speculative {
    type Out = LabelPatch;

    fn run<M: Metric<Queue = Q>>(
        &mut self,
        g: &M,
        n: usize,
        old: &Labelling,
        seeds: &[Seed],
    ) -> LabelPatch {
        run_landmarks_speculative(g, &oracle_for(old, n), seeds)
    }
}

/// The speculative twin of [`run_landmarks`]: run the same search +
/// repair (β-pruned) for every landmark, but keep the deltas as a
/// [`LabelPatch`] instead of building a labelling from them. This is the
/// labelling half of a what-if session: `old` must already be grown to
/// the hypothetical graph's vertex count (see [`oracle_for`]) and `g` is
/// the session's private overlay view.
///
/// Only rows the batch actually changed are kept (affected vertices or
/// a rewritten highway entry); untouched landmarks fall through to the
/// base when queried, and an empty batch yields an empty patch.
/// Sessions are built on reader threads — no failpoints, no parallel
/// fan-out, no writer state.
pub(crate) fn run_landmarks_speculative<M: Metric>(
    g: &M,
    old: &Labelling,
    seeds: &[Seed],
) -> LabelPatch {
    let n = old.num_vertices();
    let mut patch = LabelPatch::new(n);
    if seeds.is_empty() {
        // Nothing to search from: every row falls through to the base.
        return patch;
    }
    let deltas = each_landmark(old, 1, &mut UpdateWorkspace::new(n), |i, ws| {
        search_and_repair(old, g, seeds, i, true, ws)
    });
    for (i, delta) in deltas.into_iter().enumerate() {
        let rewired = delta.highway.iter().any(|&(j, h)| old.highway(i, j) != h);
        if !delta.labels.is_empty() || rewired {
            patch.insert_row(i, delta);
        }
    }
    patch
}

/// Chaos injection point *inside* the update pass's landmark loop —
/// reached once per landmark, in the sequential path and inside every
/// scoped parallel worker, so the suite can make a panic originate in a worker thread
/// and cross `scope`/`join` before hitting commit containment.
#[inline]
fn landmark_failpoint() {
    if let Err(msg) = batchhl_common::failpoint::check("engine::landmark_panic") {
        panic!("{msg}");
    }
}

/// The old labelling `Γ` may describe fewer vertices than `G′` when the
/// batch introduced new ones; search and repair index it by `G′` vertex
/// ids, so grow a copy on (rare) vertex growth and borrow in place
/// otherwise.
/// The copy shares `Γ`'s packed rows; growing it costs `O(n / 64)`.
pub(crate) fn oracle_for(old: &Labelling, n: usize) -> Cow<'_, Labelling> {
    if old.num_vertices() >= n {
        Cow::Borrowed(old)
    } else {
        let mut copy = old.clone();
        copy.ensure_vertices(n);
        Cow::Owned(copy)
    }
}

#[cfg(test)]
mod tests {
    use super::build_labelling as build_labelling_on;
    use super::*;
    use crate::index::Algorithm;
    use batchhl_graph::generators::{barabasi_albert, path};
    use batchhl_graph::{Batch, DynamicGraph};
    use batchhl_hcl::{build_labelling, oracle};

    fn repaired_by_engine(
        g0: &DynamicGraph,
        landmarks: Vec<Vertex>,
        batch: &Batch,
        improved: bool,
        threads: usize,
    ) -> (Labelling, DynamicGraph) {
        let old = build_labelling(g0, landmarks).unwrap();
        let norm = batch.normalize(g0);
        let mut g1 = g0.clone();
        g1.apply_batch(&norm);
        let oracle = oracle_for(&old, g1.num_vertices());
        let mut ws = UpdateWorkspace::new(g1.num_vertices());
        let algorithm = [Algorithm::Bhl, Algorithm::BhlPlus][improved as usize];
        let config = IndexConfig {
            algorithm,
            threads,
            ..IndexConfig::default()
        };
        let seeds = Seed::undirected(norm.updates());
        let (new_lab, _) = run_landmarks(&g1, &oracle, &seeds, &config, &mut ws);
        (new_lab, g1)
    }

    #[test]
    fn engine_repairs_to_minimality_seq_and_parallel() {
        let g0 = barabasi_albert(120, 3, 5);
        let mut batch = Batch::new();
        batch.delete(0, 1);
        batch.insert(3, 117);
        batch.insert(40, 90);
        for improved in [false, true] {
            for threads in [1, 4] {
                let (lab, g1) =
                    repaired_by_engine(&g0, vec![0, 1, 2, 5], &batch, improved, threads);
                oracle::check_minimal(&g1, &lab)
                    .unwrap_or_else(|e| panic!("improved={improved} threads={threads}: {e}"));
            }
        }
    }

    /// Landmarks handed out on demand still come back in landmark
    /// order: with |R| = 5, thread counts that do not divide it and more
    /// threads than landmarks give the sequential deltas, on the unit
    /// and on the weighted metric (construction included), and so does
    /// a second pass on the same, reused workspaces.
    #[test]
    fn each_landmark_matches_sequential_for_any_thread_count() {
        use crate::metric::Weighted;
        use batchhl_common::{RadixHeap, SplitMix64};
        use batchhl_graph::weighted::{Weight, WeightedGraph};

        let g0 = barabasi_albert(150, 3, 11);
        let n = g0.num_vertices();
        let landmarks = vec![0, 1, 2, 5, 9];
        let mut batch = Batch::new();
        batch.delete(0, 1);
        batch.insert(3, 140);
        batch.insert(40, 90);
        let old = build_labelling(&g0, landmarks.clone()).unwrap();
        let norm = batch.normalize(&g0);
        let mut g1 = g0.clone();
        g1.apply_batch(&norm);
        let seeds = Seed::undirected(norm.updates());
        let unit = |threads, ws: &mut UpdateWorkspace| {
            each_landmark(&old, threads, ws, |i, ws| {
                search_and_repair(&old, &g1, &seeds, i, true, ws)
            })
        };

        // The same graph with weights, then re-weighted every 7th edge.
        let mut rng = SplitMix64::new(3);
        let edges: Vec<_> = g0
            .edges()
            .map(|(a, b)| (a, b, 1 + rng.below(50) as Weight))
            .collect();
        let w0 = WeightedGraph::from_edges(n, &edges);
        let mut w1 = w0.clone();
        let mut wseeds = Vec::new();
        for &(a, b, w) in edges.iter().step_by(7) {
            let new = 1 + rng.below(50) as Weight;
            w1.set_weight(a, b, new);
            let seed = Seed {
                tail: a,
                head: b,
                len: w.min(new),
                deleted: new > w,
            };
            wseeds.extend(seed.both_ways());
        }
        let empty = Labelling::empty(n, landmarks).unwrap();
        let wold = build_labelling_on(&Weighted(&w0), &empty, 1);
        let weighted = |threads, ws: &mut UpdateWorkspace<RadixHeap>| {
            each_landmark(&wold, threads, ws, |i, ws| {
                search_and_repair(&wold, &Weighted(&w1), &wseeds, i, true, ws)
            })
        };

        let seq_unit = unit(1, &mut UpdateWorkspace::new(n));
        let seq_weighted = weighted(1, &mut UpdateWorkspace::new(n));
        assert_eq!((seq_unit.len(), seq_weighted.len()), (5, 5));
        assert!(seq_unit.iter().any(|d| !d.labels.is_empty()));
        assert!(seq_weighted.iter().any(|d| !d.labels.is_empty()));
        for threads in [2, 3, 7] {
            let (mut ws, mut wws) = (UpdateWorkspace::new(n), UpdateWorkspace::new(n));
            for pass in 0..2 {
                assert_eq!(
                    unit(threads, &mut ws),
                    seq_unit,
                    "unit, threads={threads}, pass {pass}"
                );
                assert_eq!(
                    weighted(threads, &mut wws),
                    seq_weighted,
                    "weighted, threads={threads}, pass {pass}"
                );
            }
            let workers = threads.min(5) - 1;
            assert_eq!((ws.workers.len(), wws.workers.len()), (workers, workers));
            assert_eq!(
                build_labelling_on(&Weighted(&w0), &empty, threads),
                wold,
                "weighted construction, threads={threads}"
            );
        }
    }

    #[test]
    fn oracle_for_grows_only_when_needed() {
        let g = path(4);
        let old = build_labelling(&g, vec![0]).unwrap();
        assert!(matches!(oracle_for(&old, 4), Cow::Borrowed(l) if std::ptr::eq(l, &old)));
        let bigger = oracle_for(&old, 8);
        assert!(matches!(bigger, Cow::Owned(_)));
        assert_eq!(bigger.num_vertices(), 8);
        assert_eq!(bigger.label(0, 2), old.label(0, 2));
    }
}
