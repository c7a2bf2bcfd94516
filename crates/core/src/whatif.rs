//! Speculative **what-if sessions**: answer distance queries under a
//! hypothetical edit batch without committing it.
//!
//! A session pins one published generation and builds two private
//! structures from it, touching neither the shared store nor the WAL:
//!
//! * a **CSR view** of the hypothetical graph — the generation's view
//!   plus one overlay chunk holding the lists the batch rewrites (the
//!   base and the earlier chunks stay shared behind their `Arc`s), so
//!   the session traverses the hypothetical graph at published-view
//!   speed. A commit builds its `G′` the same way (`rewrite_lists`);
//! * a **scoped label patch** ([`LabelPatch`]) — the same search +
//!   repair kernels a committed batch runs
//!   (`engine::run_landmarks_speculative`) write into detached
//!   copies of the affected landmark rows instead of the labelling.
//!
//! Queries then call the one Section 4 query path of
//! `batchhl_hcl::query` (`point_dist`, `distances_from`) — the same
//! functions a committed generation's readers call — with the overlay
//! as the graph and a [`PatchedLabels`] merge view ("patch row if
//! present, base row otherwise") as the labels. A session's answer is
//! therefore the ordinary query on the edited graph, not a second
//! implementation of it.
//!
//! Dropping the session drops the overlay and the patch — no
//! generation bump, no publication, no writer involvement — so any
//! number of concurrent hypotheticals (distinct failure scenarios,
//! capacity studies, rollout rehearsals) can share one published
//! snapshot, each on its own reader thread.
//!
//! One generic session, [`WhatIf<F>`], serves every family: the
//! family's [`Family::speculate`] hook builds the overlay and the patches
//! (one per labelling). Entry points: `GenReader::with_edits` /
//! `SharedReader::with_edits` (typed, taking the family's native batch)
//! and the type-erased [`crate::backend::BackendReader::what_if`].

use crate::family::Family;
use crate::reader::{GenReader, SharedReader};
use batchhl_common::{Dist, Vertex, INF};
use batchhl_graph::csr::{CompactionPolicy, CsrOverlay};
use batchhl_hcl::query::{distances_from, point_dist};
use batchhl_hcl::{LabelPatch, PatchedLabels, Versioned};
use std::sync::Arc;

/// The query surface of a what-if session, type-erased for the oracle
/// facade. Methods take `&mut self` — a session is a single-owner
/// scratch value (its search engine is private workspace), unlike the
/// `&self` readers it is built from.
pub trait WhatIfQuery: Send {
    /// The version of the pinned generation the hypothetical is built
    /// over. Never changes for the life of the session — what-if
    /// sessions cause no generation churn.
    fn version(&self) -> u64;

    /// Exact distance under the hypothetical; `None` when disconnected.
    fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        let d = self.query_dist(s, t);
        (d != INF).then_some(d)
    }

    /// As [`WhatIfQuery::query`], returning `INF` for disconnected.
    fn query_dist(&mut self, s: Vertex, t: Vertex) -> Dist;

    /// Batched pair queries under the hypothetical (order of results
    /// matches `pairs`).
    fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        pairs.iter().map(|&(s, t)| self.query(s, t)).collect()
    }

    /// One-source-to-many-targets under the hypothetical; `None` marks
    /// disconnected or out-of-range endpoints.
    fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>>;
}

/// A speculative session over one pinned generation of family `F`.
#[derive(Debug)]
pub struct WhatIf<F: Family> {
    pinned: Arc<Versioned<F>>,
    view: F::View,
    /// One patch per labelling, in [`Family::labellings`] order.
    patches: Vec<LabelPatch>,
    engine: F::Search,
}

impl<F: Family> WhatIf<F> {
    pub(crate) fn build(pinned: Arc<Versioned<F>>, batch: &F::Batch) -> Self {
        let snap = pinned.value();
        let (view, patches) = snap.speculate(&snap.normalize(batch));
        WhatIf {
            pinned,
            view,
            patches,
            engine: F::Search::default(),
        }
    }

    /// Number of landmark rows the hypothetical batch touched.
    pub fn patched_rows(&self) -> usize {
        self.patches.iter().map(LabelPatch::num_rows).sum()
    }

    /// What the shared query path needs: the overlay graph, the
    /// `(fwd, bwd)` patched label views and the search engine.
    fn parts(
        &mut self,
    ) -> (
        &F::View,
        PatchedLabels<'_>,
        PatchedLabels<'_>,
        &mut F::Search,
    ) {
        let (fwd, bwd) = self.pinned.value().query_labels();
        let last = self.patches.len() - 1;
        let fwd = PatchedLabels::new(fwd, &self.patches[0]);
        let bwd = PatchedLabels::new(bwd, &self.patches[last]);
        (&self.view, fwd, bwd, &mut self.engine)
    }
}

impl<F: Family> WhatIfQuery for WhatIf<F> {
    fn version(&self) -> u64 {
        self.pinned.version()
    }

    fn query_dist(&mut self, s: Vertex, t: Vertex) -> Dist {
        let (graph, fwd, bwd, search) = self.parts();
        point_dist(graph, &fwd, &bwd, search, s, t)
    }

    fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        let (graph, fwd, bwd, search) = self.parts();
        distances_from(graph, &fwd, &bwd, search, s, targets)
            .0
            .into_iter()
            .map(|d| (d != INF).then_some(d))
            .collect()
    }
}

impl<F: Family> GenReader<F> {
    /// A speculative session over the freshest published generation:
    /// answers queries as if `batch` had been committed, without
    /// touching the index (see [`crate::whatif`]).
    pub fn with_edits(&mut self, batch: &F::Batch) -> WhatIf<F> {
        WhatIf::build(self.pin(), batch)
    }
}

impl<F: Family> SharedReader<F> {
    /// A speculative session over the freshest published generation
    /// (see [`crate::whatif`]).
    pub fn with_edits(&self, batch: &F::Batch) -> WhatIf<F> {
        WhatIf::build(self.pin(), batch)
    }
}

/// The post-batch vertex count: updates may name vertices past the
/// pinned view's range (hypothetical growth).
pub(crate) fn grown_n(endpoints: impl Iterator<Item = (Vertex, Vertex)>, base_n: usize) -> usize {
    endpoints
        .map(|(a, b)| a.max(b) as usize + 1)
        .max()
        .unwrap_or(0)
        .max(base_n)
}

/// `G′` as a view: `view` over `max(n, its range)` vertices with the
/// list of every vertex `changes` names rewritten, as one patch
/// ([`CsrOverlay::patched`], compacted under `policy`; `None` never
/// compacts). A change `(v, other, new)` drops `v`'s entry for `other`
/// and, when the edge survives (inserted or reweighted), puts `new` in
/// its sorted place. Normalization leaves one change per edge, inserted
/// edges absent and removed ones present, so every rewritten list is
/// the updated graph's own sorted list. A commit and a what-if session
/// build their `G′` here alike.
pub(crate) fn rewrite_lists<T: Copy>(
    view: &CsrOverlay<T>,
    n: usize,
    policy: Option<CompactionPolicy>,
    changes: impl IntoIterator<Item = (Vertex, Vertex, Option<T>)>,
    key: fn(&T) -> Vertex,
) -> CsrOverlay<T> {
    let mut changes: Vec<_> = changes.into_iter().collect();
    changes.sort_unstable_by_key(|&(v, other, _)| (v, other));
    let mut changed: Vec<Vertex> = changes.iter().map(|&(v, _, _)| v).collect();
    changed.dedup();
    let mut rest = changes.as_slice();
    view.patched(n, &changed, policy, |v, old, out| {
        let (edits, tail) = rest.split_at(rest.partition_point(|&(u, _, _)| u == v));
        rest = tail;
        let mut edits = edits.iter().peekable();
        for x in old {
            while let Some(&(_, _, new)) = edits.next_if(|&&(_, other, _)| other < key(x)) {
                out.extend(new);
            }
            match edits.next_if(|&&(_, other, _)| other == key(x)) {
                Some(&(_, _, new)) => out.extend(new),
                None => out.push(*x),
            }
        }
        out.extend(edits.filter_map(|&(_, _, new)| new));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::directed::DirectedBatchIndex;
    use crate::index::testing::config;
    use crate::index::{Algorithm, BatchIndex};
    use crate::weighted::WeightedBatchIndex;
    use batchhl_graph::generators::barabasi_albert;
    use batchhl_graph::weighted::{Weight, WeightedGraph, WeightedUpdate};
    use batchhl_graph::{Batch, DynamicDiGraph};

    /// The core invariant on every family: a session's answers equal a
    /// twin index that actually committed the batch, and the session
    /// leaves the published generation untouched.
    #[test]
    fn undirected_session_matches_committed_twin() {
        let g = barabasi_albert(70, 2, 9);
        let index = BatchIndex::build(g.clone(), config(Algorithm::BhlPlus, 4));
        let mut twin = BatchIndex::build(g, config(Algorithm::BhlPlus, 4));
        let mut batch = Batch::new();
        batch.delete(0, 1);
        batch.insert(5, 64);
        batch.insert(2, 71); // grows the graph
        twin.apply_batch(&batch);

        let mut reader = index.reader();
        let v0 = reader.version();
        let mut session = reader.with_edits(&batch);
        assert!(session.patched_rows() > 0);
        for s in (0..72u32).step_by(3) {
            for t in (0..72u32).step_by(5) {
                assert_eq!(session.query(s, t), twin.query(s, t), "({s},{t})");
            }
        }
        let targets: Vec<Vertex> = (0..72).collect();
        for s in [0u32, 5, 64, 71] {
            assert_eq!(
                session.distances_from(s, &targets),
                twin.distances_from(s, &targets)
            );
        }
        // The base reader is unaffected — same version, pre-batch answers.
        assert_eq!(reader.version(), v0);
        assert_eq!(reader.query(0, 1), Some(1), "base still has the edge");
        assert_eq!(session.version(), v0);
    }

    #[test]
    fn directed_session_matches_committed_twin() {
        let mut g = DynamicDiGraph::new(30);
        for i in 0..29u32 {
            g.insert_edge(i, i + 1);
            if i % 3 == 0 {
                g.insert_edge(i + 1, i);
            }
        }
        let cfg = config(Algorithm::BhlPlus, 3);
        let index = DirectedBatchIndex::build(g.clone(), cfg.clone());
        let mut twin = DirectedBatchIndex::build(g, cfg);
        let mut batch = Batch::new();
        batch.delete(3, 4);
        batch.insert(0, 20);
        twin.apply_batch(&batch);

        let shared = index.shared_reader();
        let mut session = shared.with_edits(&batch);
        for s in 0..30u32 {
            for t in (0..30u32).step_by(2) {
                assert_eq!(session.query(s, t), twin.query(s, t), "({s},{t})");
            }
        }
        assert_eq!(shared.version(), session.version());
        assert_eq!(shared.query(3, 4), Some(1), "base keeps the arc");
    }

    #[test]
    fn weighted_session_matches_committed_twin() {
        let mut g = WeightedGraph::new(20);
        for i in 0..19u32 {
            g.insert_edge(i, i + 1, (i % 4 + 1) as Weight);
        }
        g.insert_edge(0, 10, 3);
        let index = WeightedBatchIndex::build(g.clone(), 3);
        let mut twin = WeightedBatchIndex::build(g, 3);
        let updates = [
            WeightedUpdate::Delete(0, 10),
            WeightedUpdate::SetWeight(4, 5, 9),
            WeightedUpdate::Insert(2, 17, 2),
        ];
        twin.apply_batch(&updates);

        let mut reader = index.reader();
        let mut session = reader.with_edits(&updates);
        for s in 0..20u32 {
            for t in 0..20u32 {
                assert_eq!(session.query(s, t), twin.query(s, t), "({s},{t})");
            }
        }
        assert_eq!(reader.version(), session.version());
    }

    #[test]
    fn empty_and_no_op_batches_build_trivial_sessions() {
        let g = barabasi_albert(40, 2, 4);
        let index = BatchIndex::build(g, config(Algorithm::BhlPlus, 3));
        let mut reader = index.reader();
        let mut batch = Batch::new();
        batch.delete(0, 39); // almost surely absent → normalizes away
        batch.delete(0, 39);
        let mut session = reader.with_edits(&Batch::new());
        let mut session2 = reader.with_edits(&batch);
        for s in (0..40u32).step_by(7) {
            for t in 0..40u32 {
                let want = reader.query(s, t);
                assert_eq!(session.query(s, t), want);
                assert_eq!(session2.query(s, t), want);
            }
        }
    }

    #[test]
    fn concurrent_sessions_share_one_generation() {
        let g = barabasi_albert(60, 2, 7);
        let index = BatchIndex::build(g, config(Algorithm::BhlPlus, 4));
        let shared = index.shared_reader();
        std::thread::scope(|scope| {
            for k in 0..4u32 {
                let shared = &shared;
                scope.spawn(move || {
                    let mut batch = Batch::new();
                    batch.delete(k, k + 1);
                    let mut session = shared.with_edits(&batch);
                    for t in 0..60u32 {
                        let _ = session.query(k, t);
                    }
                    assert_eq!(session.version(), shared.version());
                });
            }
        });
        assert_eq!(shared.version(), 0, "no generation churn");
    }
}
