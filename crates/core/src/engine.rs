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
//! read the whole old labelling and graph, but may write only landmark
//! `i`'s label row and highway row. That makes the parallel path safe
//! with nothing shared but read-only state, and it is what lets the
//! writer repair `Γ′` in place while published readers keep serving `Γ`.

use crate::repair::batch_repair;
use crate::search::batch_search;
use crate::search_improved::batch_search_improved;
use crate::workspace::UpdateWorkspace;
use batchhl_common::{Dist, Vertex};
use batchhl_graph::{AdjacencyView, Update};
use batchhl_hcl::{labelling::RowPair, LabelPatch, Labelling, PatchRow};
use std::borrow::Cow;

/// Per-landmark affected-vertex lists, in landmark order. The writer
/// uses them to bring the recycled old buffer up to date
/// ([`sync_affected`]) and reports their sizes in update stats.
pub type AffectedLists = Vec<Vec<Vertex>>;

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
    /// the updated graph `g`, rewrite `label_row` / `highway_row` of
    /// `Γ′`, and return the vertices whose entries were rewritten.
    #[allow(clippy::too_many_arguments)]
    fn process_landmark(
        &self,
        old: &Labelling,
        g: &G,
        updates: &[Self::Update],
        i: usize,
        label_row: &mut [Dist],
        highway_row: &mut [Dist],
        ws: &mut Self::Workspace,
    ) -> Vec<Vertex>;
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
        label_row: &mut [Dist],
        highway_row: &mut [Dist],
        ws: &mut UpdateWorkspace,
    ) -> Vec<Vertex> {
        ws.reset();
        if self.improved {
            batch_search_improved(old, g, updates, i, self.directed, ws);
        } else {
            batch_search(old, g, updates, i, self.directed, ws);
        }
        batch_repair(old, g, i, label_row, highway_row, ws);
        ws.aff.inserted().to_vec()
    }
}

/// One full update pass: search + repair every landmark of `new_lab`,
/// sequentially or with landmark-level parallelism (`threads > 1`,
/// BHLₚ). Each parallel worker owns disjoint label/highway rows and a
/// private workspace; everything shared is read-only.
pub fn run_landmarks<G, K>(
    kernel: &K,
    old: &Labelling,
    g: &G,
    updates: &[K::Update],
    new_lab: &mut Labelling,
    threads: usize,
    ws: &mut K::Workspace,
) -> AffectedLists
where
    G: ?Sized + Sync,
    K: UpdateKernel<G>,
{
    // Chaos-suite injection point: by the time the pass reaches the
    // landmark loop the working graph is already mutated, so a panic
    // here leaves maximally half-applied writer state behind. There is
    // no Result channel through a repair pass — an armed Error action
    // panics too.
    if let Err(msg) = batchhl_common::failpoint::check("engine::mid_repair_panic") {
        panic!("{msg}");
    }
    let n = new_lab.num_vertices();
    let r = new_lab.num_landmarks();
    let threads = threads.max(1).min(r.max(1));
    if threads <= 1 {
        let mut affected = Vec::with_capacity(r);
        for i in 0..r {
            landmark_failpoint();
            let (label_row, highway_row) = new_lab.row_mut(i);
            affected.push(kernel.process_landmark(old, g, updates, i, label_row, highway_row, ws));
        }
        return affected;
    }

    let (rows, _) = new_lab.rows_mut();
    let mut work: Vec<(usize, RowPair<'_>)> = rows.into_iter().enumerate().collect();
    let per = r.div_ceil(threads);
    let mut results: AffectedLists = vec![Vec::new(); r];
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        while !work.is_empty() {
            let take = per.min(work.len());
            let chunk: Vec<_> = work.drain(..take).collect();
            handles.push(scope.spawn(move || {
                let mut ws = kernel.workspace(n);
                let mut out = Vec::with_capacity(chunk.len());
                for (i, (label_row, highway_row)) in chunk {
                    landmark_failpoint();
                    out.push((
                        i,
                        kernel.process_landmark(
                            old,
                            g,
                            updates,
                            i,
                            label_row,
                            highway_row,
                            &mut ws,
                        ),
                    ));
                }
                out
            }));
        }
        for h in handles {
            match h.join() {
                Ok(rows) => {
                    for (i, aff) in rows {
                        results[i] = aff;
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
/// repair kernels for every landmark, but into *detached* copies of the
/// old rows, collected as a [`LabelPatch`] — the shared labelling is
/// never written. This is the labelling half of a what-if session:
/// `old` must already be grown to the hypothetical graph's vertex count
/// (see [`oracle_for`]) and `g` is the session's private overlay view.
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
    let r = old.num_landmarks();
    let mut patch = LabelPatch::new(n);
    if updates.is_empty() {
        // Nothing to search from: every row falls through to the base.
        return patch;
    }
    let mut ws = kernel.workspace(n);
    for i in 0..r {
        let mut label_row: Box<[Dist]> = old.label_row(i).into();
        let mut highway_row: Box<[Dist]> = (0..r).map(|j| old.highway(i, j)).collect();
        let base_highway = highway_row.clone();
        let aff = kernel.process_landmark(
            old,
            g,
            updates,
            i,
            &mut label_row,
            &mut highway_row,
            &mut ws,
        );
        if !aff.is_empty() || highway_row != base_highway {
            patch.insert_row(
                i,
                PatchRow {
                    label: label_row,
                    highway: highway_row,
                },
            );
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

/// Bring a recycled old-generation buffer up to the freshly repaired
/// labelling by copying only what the pass touched: the affected label
/// entries and each landmark's highway row. `O(affected + |R|²)` — this
/// is what keeps the Γ → Γ′ double buffer from costing a full
/// `O(|R|·|V|)` clone per batch.
pub fn sync_affected(from: &Labelling, to: &mut Labelling, affected: &[Vec<Vertex>]) {
    to.ensure_vertices(from.num_vertices());
    let r = from.num_landmarks();
    for (i, aff) in affected.iter().enumerate() {
        for &v in aff {
            to.set_label(i, v, from.label(i, v));
        }
        for j in 0..r {
            to.set_highway_row(i, j, from.highway(i, j));
        }
    }
}

/// Reclaims retired generation buffers for a writer.
///
/// Immediately after a publish the just-retired generation is usually
/// still pinned by readers — they re-pin lazily, on their next query —
/// so `Arc::try_unwrap` on it fails exactly when readers are active,
/// which is the scenario the store exists for. The recycler therefore
/// also keeps *one* older retired generation together with the replay
/// log of the pass that superseded it: by the next publish, active
/// readers have re-pinned past that generation and its buffer can be
/// reclaimed by replaying the (at most two) logged passes. Steady
/// state with busy readers reuses buffers every pass in
/// `O(affected + batch)`; only a reader that pins a generation and
/// never refreshes forces the clone fallback.
///
/// `L` is the per-pass replay log (normalized updates + affected
/// lists); the caller's `replay` closure must transform a buffer
/// holding the state *before* a logged pass into the state *after* it
/// (label syncs may always copy from the latest published labelling —
/// copying final values of every touched entry is order-insensitive).
#[derive(Debug)]
pub(crate) struct Recycler<S, L> {
    retired: Option<(std::sync::Arc<batchhl_hcl::Versioned<S>>, L)>,
}

impl<S, L> Default for Recycler<S, L> {
    fn default() -> Self {
        Recycler { retired: None }
    }
}

impl<S, L> Recycler<S, L> {
    /// Forget every retained candidate (used when a publish bypasses
    /// pass logging, e.g. a from-scratch rebuild — replaying logs over
    /// a pre-rebuild buffer would skip the rebuild's changes).
    pub fn clear(&mut self) {
        self.retired = None;
    }

    /// Offer the generation retired by the publish that just happened
    /// (`prev`) plus the log of the pass that superseded it. Returns a
    /// reclaimed, fully replayed buffer, or `None` when every candidate
    /// is still pinned by readers (caller falls back to a clone).
    pub fn reclaim(
        &mut self,
        prev: std::sync::Arc<batchhl_hcl::Versioned<S>>,
        log: L,
        mut replay: impl FnMut(&mut S, &L),
    ) -> Option<S> {
        match std::sync::Arc::try_unwrap(prev) {
            Ok(retired) => {
                // Newest candidate is free; drop any older one (its
                // readers will free it).
                self.retired = None;
                let mut buf = retired.into_value();
                replay(&mut buf, &log);
                Some(buf)
            }
            Err(still_pinned) => {
                let reclaimed = self.retired.take().and_then(|(old_arc, old_log)| {
                    std::sync::Arc::try_unwrap(old_arc).ok().map(|retired| {
                        let mut buf = retired.into_value();
                        replay(&mut buf, &old_log);
                        replay(&mut buf, &log);
                        buf
                    })
                });
                self.retired = Some((still_pinned, log));
                reclaimed
            }
        }
    }
}

/// The publish epilogue every index runs after a repair pass: swap the
/// working snapshot into the store, release the writer's own pin on the
/// old generation, and rebuild the working buffer — from a recycled
/// retired generation when possible ([`Recycler`]), from a full clone
/// of the fresh one otherwise.
///
/// `replay(buf, fresh, log)` must bring `buf` (holding the state just
/// *before* a logged pass) to the state just *after* it, reading
/// repaired entries from `fresh` (the newest published snapshot).
pub(crate) fn publish_pass<S: Clone, L>(
    store: &batchhl_hcl::LabelStore<S>,
    recycler: &mut Recycler<S, L>,
    work: &mut S,
    placeholder: S,
    old: std::sync::Arc<batchhl_hcl::Versioned<S>>,
    log: L,
    mut replay: impl FnMut(&mut S, &S, &L),
) {
    let next = std::mem::replace(work, placeholder);
    let (fresh, prev) = store.publish(next);
    // The writer's own pin on the retired generation must go before
    // reclamation can ever see it uniquely owned.
    drop(old);
    *work = recycler
        .reclaim(prev, log, |buf, l| replay(buf, fresh.value(), l))
        .unwrap_or_else(|| fresh.value().clone());
}

/// The old labelling `Γ` may describe fewer vertices than `G′` when the
/// batch introduced new ones; kernels index it by `G′` vertex ids, so
/// grow a copy on (rare) vertex growth and borrow in place otherwise.
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
        let mut new_lab = old.clone();
        new_lab.ensure_vertices(g1.num_vertices());
        let oracle = oracle_for(&old, g1.num_vertices());
        let kernel = BfsKernel {
            improved,
            directed: false,
        };
        let mut ws = UpdateKernel::<DynamicGraph>::workspace(&kernel, g1.num_vertices());
        run_landmarks(
            &kernel,
            &oracle,
            &g1,
            norm.updates(),
            &mut new_lab,
            threads,
            &mut ws,
        );
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
    fn sync_affected_copies_exactly_the_touched_entries() {
        let g = path(6);
        let from = build_labelling(&g, vec![0, 5]).unwrap();
        let mut to = from.clone();
        // Perturb `to` everywhere; sync only vertex 3 for landmark 0.
        to.set_label(0, 3, 9);
        to.set_label(1, 4, 9);
        sync_affected(&from, &mut to, &[vec![3], vec![]]);
        assert_eq!(to.label(0, 3), from.label(0, 3), "synced back");
        assert_eq!(to.label(1, 4), 9, "untouched entries stay");
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(to.highway(i, j), from.highway(i, j));
            }
        }
    }

    #[test]
    // The `pin` writes are never read back — they model *when* the
    // simulated reader's Arc moves between generations, which is what
    // drives try_unwrap success/failure.
    #[allow(unused_assignments, clippy::identity_op)]
    fn recycler_reclaims_one_publish_late_under_pinning() {
        use batchhl_hcl::LabelStore;

        let store = LabelStore::new(0u64);
        let mut recycler: Recycler<u64, u64> = Recycler::default();
        let replay = |buf: &mut u64, log: &u64| *buf += log;

        // Reader pins each generation the way real readers do: it holds
        // the newest one at all times.
        let mut pin = store.snapshot();

        // Pass 1: the reader still pins gen 0 when the writer tries to
        // reclaim it; nothing older is retained yet -> clone fallback.
        let (fresh, prev) = store.publish(1);
        assert!(
            recycler.reclaim(prev, 1, replay).is_none(),
            "first pass clones"
        );
        pin = fresh; // reader re-pins the new generation afterwards

        // Pass 2: prev (gen 1) is pinned, but gen 0 is now free —
        // reclaimed and replayed through both logged passes.
        let (fresh, prev) = store.publish(2);
        let buf = recycler
            .reclaim(prev, 1, replay)
            .expect("steady state recycles");
        assert_eq!(buf, 0 + 1 + 1, "both passes replayed in order");
        pin = fresh;

        // Pass 3: same shape — the one-publish-old buffer keeps coming
        // back every pass while the reader stays current.
        let (fresh, prev) = store.publish(3);
        let buf = recycler.reclaim(prev, 1, replay).expect("recycles again");
        assert_eq!(buf, 1 + 1 + 1);
        pin = fresh;

        // Clear drops retained candidates (rebuild semantics): with the
        // newest generation still pinned and nothing retained, the
        // writer must clone.
        recycler.clear();
        let (_, prev) = store.publish(4);
        assert!(recycler.reclaim(prev, 1, replay).is_none());

        // Once the reader lets go entirely, prev itself is free.
        drop(pin);
        let (_, prev) = store.publish(5);
        assert!(
            recycler.reclaim(prev, 1, replay).is_some(),
            "prev unpinned after readers dropped"
        );
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
