//! The unified update engine: one search→repair orchestration for every
//! index variant.
//!
//! Algorithm 1 is the same loop in every setting: for each landmark,
//! run a batch search over the updated graph `G′` against the *old*
//! labelling `Γ` to find the affected vertices, then run batch repair to
//! rewrite that landmark's rows of the new labelling `Γ′`. What differs
//! between the undirected, directed (Section 6) and weighted
//! (Section 6) indexes is only the **search space** — plain BFS
//! traversal, forward/backward arc traversal, or Dijkstra over edge
//! weights. The [`UpdateKernel`] trait captures exactly that residue;
//! [`run_landmarks`] owns the orchestration (sequential or
//! landmark-parallel BHLₚ) once, for all of them.
//!
//! The kernel contract mirrors the write-disjointness argument of the
//! paper's parallel variant: a kernel invocation for landmark `i` may
//! read the whole old labelling and graph, and emits only landmark
//! `i`'s [`RowDelta`] — its rewritten labels and highway entries. That
//! makes the parallel path safe with nothing shared but read-only
//! state. Nothing writes `Γ` in place: [`run_landmarks`] builds `Γ′` from
//! the published `Γ` plus the deltas ([`Labelling::seal_patched`]), so
//! readers keep serving `Γ` untouched while the pass runs.

use crate::index::IndexConfig;
use crate::repair::batch_repair;
use crate::search::batch_search;
use crate::search_improved::batch_search_improved;
use crate::workspace::UpdateWorkspace;
use batchhl_graph::{AdjacencyView, Update};
use batchhl_hcl::{LabelPatch, Labelling, RowDelta};
use std::borrow::Cow;

/// The variant-specific part of one update pass: how to search and
/// repair a single landmark.
///
/// `G` is the search space (an [`AdjacencyView`] for the unweighted
/// kernels, the weighted graph for the Dijkstra kernel); `Update` the
/// update representation the search seeds from.
pub trait UpdateKernel<G: ?Sized + Sync>: Sync {
    type Update: Sync;
    type Workspace: Send;

    /// A fresh scratch workspace for `n` vertices (parallel workers own
    /// one each; the sequential path reuses the caller's).
    fn workspace(&self, n: usize) -> Self::Workspace;

    /// Search + repair landmark `i`: read the old labelling `old` and
    /// the updated graph `g`, and return what the repair wrote — one
    /// label entry per affected vertex, plus the highway entries of row
    /// `i` it rewrote.
    fn process_landmark(
        &self,
        old: &Labelling,
        g: &G,
        updates: &[Self::Update],
        i: usize,
        ws: &mut Self::Workspace,
    ) -> RowDelta;
}

/// The unweighted kernel: batch search (Algorithm 2) or improved batch
/// search (Algorithm 3), then batch repair (Algorithm 4). `directed`
/// restricts search anchors to arc heads (Section 6); the same kernel
/// serves the forward and backward passes of the directed index via the
/// [`AdjacencyView`] abstraction.
#[derive(Debug, Clone, Copy)]
pub struct BfsKernel {
    pub improved: bool,
    pub directed: bool,
}

impl<G: AdjacencyView + Sync> UpdateKernel<G> for BfsKernel {
    type Update = Update;
    type Workspace = UpdateWorkspace;

    fn workspace(&self, n: usize) -> UpdateWorkspace {
        UpdateWorkspace::new(n)
    }

    fn process_landmark(
        &self,
        old: &Labelling,
        g: &G,
        updates: &[Update],
        i: usize,
        ws: &mut UpdateWorkspace,
    ) -> RowDelta {
        ws.reset();
        if self.improved {
            batch_search_improved(old, g, updates, i, self.directed, ws);
        } else {
            batch_search(old, g, updates, i, self.directed, ws);
        }
        batch_repair(old, g, i, ws)
    }
}

/// One full update pass: search + repair every landmark of `old`,
/// sequentially or with landmark-level parallelism
/// (`config.threads > 1`, BHLₚ), then build the next labelling from
/// `old` and the deltas ([`Labelling::seal_patched`], compacting under
/// `config.compaction`). Each parallel worker owns a private workspace
/// and emits the deltas of its own landmarks; everything shared is
/// read-only. Returns the new labelling and `|V_aff|` per landmark.
pub fn run_landmarks<G, K>(
    kernel: &K,
    old: &Labelling,
    g: &G,
    updates: &[K::Update],
    config: &IndexConfig,
    ws: &mut K::Workspace,
) -> (Labelling, Vec<usize>)
where
    G: ?Sized + Sync,
    K: UpdateKernel<G>,
{
    // Chaos-suite injection point: by the time the pass reaches the
    // landmark loop the writer graph is already mutated, so a panic
    // here leaves maximally half-applied writer state behind. There is
    // no Result channel through a repair pass — an armed Error action
    // panics too.
    if let Err(msg) = batchhl_common::failpoint::check("engine::mid_repair_panic") {
        panic!("{msg}");
    }
    let deltas = repair_landmarks(kernel, old, g, updates, config.threads, ws);
    // Repair finalizes every affected vertex exactly once.
    let affected = deltas.iter().map(|d| d.labels.len()).collect();
    (old.seal_patched(&deltas, config.compaction), affected)
}

/// The landmark loop of [`run_landmarks`]: landmark `i`'s delta at
/// index `i`.
fn repair_landmarks<G, K>(
    kernel: &K,
    old: &Labelling,
    g: &G,
    updates: &[K::Update],
    threads: usize,
    ws: &mut K::Workspace,
) -> Vec<RowDelta>
where
    G: ?Sized + Sync,
    K: UpdateKernel<G>,
{
    let n = old.num_vertices();
    let r = old.num_landmarks();
    let threads = threads.max(1).min(r.max(1));
    if threads <= 1 {
        return (0..r)
            .map(|i| {
                landmark_failpoint();
                kernel.process_landmark(old, g, updates, i, ws)
            })
            .collect();
    }
    let per = r.div_ceil(threads);
    let mut results = vec![RowDelta::default(); r];
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..r)
            .step_by(per)
            .map(|lo| {
                scope.spawn(move || {
                    let mut ws = kernel.workspace(n);
                    (lo..(lo + per).min(r))
                        .map(|i| {
                            landmark_failpoint();
                            (i, kernel.process_landmark(old, g, updates, i, &mut ws))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            match h.join() {
                Ok(rows) => {
                    for (i, delta) in rows {
                        results[i] = delta;
                    }
                }
                // Re-raise the worker's own payload instead of a fresh
                // "worker panicked" panic: the facade's containment
                // records the payload string in the poisoned-health
                // reason, and it must name the original failure even
                // when it crossed a scoped thread.
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
    });
    results
}

/// The speculative twin of [`run_landmarks`]: run the same search +
/// repair kernels for every landmark, but keep the deltas as a
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
pub(crate) fn run_landmarks_speculative<G, K>(
    kernel: &K,
    old: &Labelling,
    g: &G,
    updates: &[K::Update],
) -> LabelPatch
where
    G: ?Sized + Sync,
    K: UpdateKernel<G>,
{
    let n = old.num_vertices();
    let mut patch = LabelPatch::new(n);
    if updates.is_empty() {
        // Nothing to search from: every row falls through to the base.
        return patch;
    }
    let mut ws = kernel.workspace(n);
    for i in 0..old.num_landmarks() {
        let delta = kernel.process_landmark(old, g, updates, i, &mut ws);
        let rewired = delta.highway.iter().any(|&(j, h)| old.highway(i, j) != h);
        if !delta.labels.is_empty() || rewired {
            patch.insert_row(i, delta);
        }
    }
    patch
}

/// Chaos injection point *inside* the landmark loop — reached once per
/// landmark, in the sequential path and inside every scoped parallel
/// worker, so the suite can make a panic originate in a worker thread
/// and cross `scope`/`join` before hitting commit containment.
#[inline]
fn landmark_failpoint() {
    if let Err(msg) = batchhl_common::failpoint::check("engine::landmark_panic") {
        panic!("{msg}");
    }
}

/// The old labelling `Γ` may describe fewer vertices than `G′` when the
/// batch introduced new ones; kernels index it by `G′` vertex ids, so
/// grow a copy on (rare) vertex growth and borrow in place otherwise.
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
    use super::*;
    use batchhl_common::Vertex;
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
        let kernel = BfsKernel {
            improved,
            directed: false,
        };
        let mut ws = UpdateKernel::<DynamicGraph>::workspace(&kernel, g1.num_vertices());
        let config = IndexConfig {
            threads,
            ..IndexConfig::default()
        };
        let (new_lab, _) = run_landmarks(&kernel, &oracle, &g1, norm.updates(), &config, &mut ws);
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
