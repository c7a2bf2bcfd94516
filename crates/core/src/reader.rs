//! Concurrent query handles over published index generations.
//!
//! A reader is a `Send + Sync` value obtained from an index
//! (`BatchIndex::reader` and the directed/weighted counterparts). It
//! owns a [`ReaderHandle`] onto the index's
//! [`LabelStore`] plus its private search
//! workspace, so any number of readers can run queries on their own
//! threads, lock-free in steady state, while the single writer applies
//! batches and publishes new generations.
//!
//! One generic [`GenReader`] serves every index family: the family's
//! generation type answers a query against itself (the query methods
//! [`Family`] provides, over its search engine), and the reader supplies
//! the pin/refresh machinery once. [`Reader`], [`DirectedReader`] and
//! [`WeightedReader`] are aliases.
//!
//! Two query modes:
//!
//! * [`GenReader::query`] / [`GenReader::query_dist`] — follow
//!   publications: each call re-pins the freshest generation (one
//!   atomic version load when nothing changed).
//! * [`GenReader::pin`] + [`GenReader::query_dist_pinned`] — freeze one
//!   generation and answer a whole batch of queries against it, for
//!   workloads that need cross-query consistency.
//!
//! Every answer is exact for the generation it was computed on: a
//! reader never observes a half-applied batch, because generations are
//! immutable snapshots swapped in atomically.

use crate::directed::DirectedSnapshot;
use crate::family::Family;
use crate::index::IndexSnapshot;
use crate::weighted::WeightedSnapshot;
use batchhl_common::{Dist, Vertex, INF};
use batchhl_hcl::{LabelStore, ReaderHandle, Versioned};
use std::sync::{Arc, Mutex, RwLock};

/// Batched pair queries against one snapshot: sort the pair indices by
/// source, answer each group of pairs sharing a source through
/// [`Family::distances_from`] (one source plan per
/// group), and scatter the answers back into request order. Singleton
/// groups take the plain per-pair path — a plan would cost more than
/// it saves.
pub(crate) fn query_many_on<F: Family>(
    snap: &F,
    engine: &mut F::Search,
    pairs: &[(Vertex, Vertex)],
) -> Vec<Option<Dist>> {
    let mut order: Vec<usize> = (0..pairs.len()).collect();
    order.sort_unstable_by_key(|&k| pairs[k].0);
    let mut out = vec![None; pairs.len()];
    let mut targets: Vec<Vertex> = Vec::new();
    let mut group = 0;
    while group < order.len() {
        let s = pairs[order[group]].0;
        let end = order[group..]
            .iter()
            .position(|&k| pairs[k].0 != s)
            .map_or(order.len(), |p| group + p);
        if end - group == 1 {
            let (s, t) = pairs[order[group]];
            let d = snap.query_dist(engine, s, t);
            out[order[group]] = (d != INF).then_some(d);
        } else {
            targets.clear();
            targets.extend(order[group..end].iter().map(|&k| pairs[k].1));
            let dists = snap.distances_from(engine, s, &targets);
            for (&k, d) in order[group..end].iter().zip(dists) {
                out[k] = d;
            }
        }
        group = end;
    }
    out
}

/// Concurrent query handle over published generations of family `F`.
#[derive(Debug)]
pub struct GenReader<F: Family> {
    handle: ReaderHandle<F>,
    engine: F::Search,
}

/// Concurrent query handle over an undirected [`crate::BatchIndex`].
pub type Reader = GenReader<IndexSnapshot>;

/// Concurrent query handle over a [`crate::DirectedBatchIndex`].
pub type DirectedReader = GenReader<DirectedSnapshot>;

/// Concurrent query handle over a [`crate::WeightedBatchIndex`].
pub type WeightedReader = GenReader<WeightedSnapshot>;

impl<F: Family> Clone for GenReader<F> {
    fn clone(&self) -> Self {
        GenReader {
            handle: self.handle.clone(),
            engine: F::Search::default(),
        }
    }
}

impl<F: Family> GenReader<F> {
    pub(crate) fn new(handle: ReaderHandle<F>) -> Self {
        GenReader {
            handle,
            engine: F::Search::default(),
        }
    }

    /// Version of the generation the last query ran against.
    pub fn version(&self) -> u64 {
        self.handle.pinned().version()
    }

    /// Re-pin the freshest generation and return it.
    pub fn pin(&mut self) -> Arc<Versioned<F>> {
        Arc::clone(self.handle.current())
    }

    /// Exact distance on the freshest published generation; `None` when
    /// disconnected (or out of range for that generation).
    pub fn query(&mut self, s: Vertex, t: Vertex) -> Option<Dist> {
        let d = self.query_dist(s, t);
        (d != INF).then_some(d)
    }

    /// As [`GenReader::query`], returning `INF` for disconnected pairs.
    pub fn query_dist(&mut self, s: Vertex, t: Vertex) -> Dist {
        self.handle.current();
        self.query_dist_pinned(s, t)
    }

    /// Query the pinned generation without refreshing (see
    /// [`GenReader::pin`]).
    pub fn query_dist_pinned(&mut self, s: Vertex, t: Vertex) -> Dist {
        let snap = self.handle.pinned();
        snap.value().query_dist(&mut self.engine, s, t)
    }

    /// Batched pair queries: re-pins the freshest generation **once**
    /// for the whole call (every answer is from the same generation),
    /// groups the pairs by source and reuses the per-source label plan
    /// across each group. Order of results matches `pairs`.
    pub fn query_many(&mut self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        let snap = Arc::clone(self.handle.current());
        query_many_on(snap.value(), &mut self.engine, pairs)
    }

    /// One-source-to-many-targets distances against the freshest
    /// generation (pinned once for the whole call); `None` marks
    /// disconnected or out-of-range endpoints.
    pub fn distances_from(&mut self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        let snap = Arc::clone(self.handle.current());
        snap.value().distances_from(&mut self.engine, s, targets)
    }

    /// The `k` vertices closest to `s` (excluding `s`) on the freshest
    /// generation, nondecreasing by distance.
    pub fn top_k_closest(&mut self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        let snap = Arc::clone(self.handle.current());
        snap.value().top_k(&mut self.engine, s, k)
    }
}

/// A `Send + Sync` query handle whose queries take **`&self`**: one
/// value can be shared by reference across any number of serving
/// threads (no per-thread clone, no `&mut`), which is the shape the
/// type-erased oracle reader needs.
///
/// Freshness works by *interior re-pinning*: each call compares the
/// store's atomic version counter against a cached generation behind a
/// `RwLock` — a read-lock in steady state, a write-lock only in the
/// instant after the writer publishes. Search workspaces are recycled
/// through a small lock-guarded pool, so concurrent callers never
/// serialize on a single engine and batched calls allocate nothing in
/// steady state.
#[derive(Debug)]
pub struct SharedReader<F: Family> {
    store: LabelStore<F>,
    cached: RwLock<Arc<Versioned<F>>>,
    engines: Mutex<Vec<F::Search>>,
}

/// Engines retained for reuse per [`SharedReader`]; more concurrent
/// callers than this simply allocate a fresh workspace.
const ENGINE_POOL_CAP: usize = 16;

impl<F: Family> Clone for SharedReader<F> {
    fn clone(&self) -> Self {
        SharedReader::new(self.store.clone())
    }
}

impl<F: Family> SharedReader<F> {
    pub(crate) fn new(store: LabelStore<F>) -> Self {
        let cached = RwLock::new(store.snapshot());
        SharedReader {
            store,
            cached,
            engines: Mutex::new(Vec::new()),
        }
    }

    /// The version of the freshest published generation.
    pub fn version(&self) -> u64 {
        self.store.version()
    }

    /// Pin the freshest generation (one atomic load when nothing
    /// changed; refreshes the interior cache otherwise).
    pub fn pin(&self) -> Arc<Versioned<F>> {
        let published = self.store.version();
        {
            let cached = self.cached.read().expect("reader cache poisoned");
            if cached.version() == published {
                return Arc::clone(&cached);
            }
        }
        let fresh = self.store.snapshot();
        let mut cached = self.cached.write().expect("reader cache poisoned");
        // Another thread may have refreshed further; keep the newest.
        if fresh.version() > cached.version() {
            *cached = Arc::clone(&fresh);
            fresh
        } else {
            Arc::clone(&cached)
        }
    }

    fn with_engine<R>(&self, f: impl FnOnce(&mut F::Search) -> R) -> R {
        let mut engine = self
            .engines
            .lock()
            .expect("engine pool poisoned")
            .pop()
            .unwrap_or_default();
        let out = f(&mut engine);
        let mut pool = self.engines.lock().expect("engine pool poisoned");
        if pool.len() < ENGINE_POOL_CAP {
            pool.push(engine);
        }
        out
    }

    /// Exact distance on the freshest generation; `None` when
    /// disconnected (or out of range for that generation).
    pub fn query(&self, s: Vertex, t: Vertex) -> Option<Dist> {
        let d = self.query_dist(s, t);
        (d != INF).then_some(d)
    }

    /// As [`SharedReader::query`], returning `INF` for disconnected.
    pub fn query_dist(&self, s: Vertex, t: Vertex) -> Dist {
        let snap = self.pin();
        self.with_engine(|engine| snap.value().query_dist(engine, s, t))
    }

    /// Batched pair queries against one pinned generation (see
    /// [`GenReader::query_many`]).
    pub fn query_many(&self, pairs: &[(Vertex, Vertex)]) -> Vec<Option<Dist>> {
        let snap = self.pin();
        self.with_engine(|engine| query_many_on(snap.value(), engine, pairs))
    }

    /// One-source-to-many-targets distances against one pinned
    /// generation (see [`GenReader::distances_from`]).
    pub fn distances_from(&self, s: Vertex, targets: &[Vertex]) -> Vec<Option<Dist>> {
        let snap = self.pin();
        self.with_engine(|engine| snap.value().distances_from(engine, s, targets))
    }

    /// The `k` vertices closest to `s` (excluding `s`), nondecreasing
    /// by distance.
    pub fn top_k_closest(&self, s: Vertex, k: usize) -> Vec<(Vertex, Dist)> {
        let snap = self.pin();
        self.with_engine(|engine| snap.value().top_k(engine, s, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::testing::config;
    use crate::index::{Algorithm, BatchIndex};
    use batchhl_graph::generators::{barabasi_albert, path};
    use batchhl_graph::Batch;
    use batchhl_hcl::oracle;

    #[test]
    fn reader_is_send_sync_and_matches_owner() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Reader>();
        assert_send_sync::<DirectedReader>();
        assert_send_sync::<WeightedReader>();

        let g = barabasi_albert(80, 2, 3);
        let mut index = BatchIndex::build(g, config(Algorithm::BhlPlus, 4));
        let mut reader = index.reader();
        for s in (0..80u32).step_by(9) {
            for t in (0..80u32).step_by(5) {
                assert_eq!(reader.query_dist(s, t), index.query_dist(s, t));
            }
        }
    }

    #[test]
    fn reader_follows_batches_and_pins() {
        let g = path(6);
        let mut index = BatchIndex::build(g, config(Algorithm::BhlPlus, 1));
        let mut live = index.reader();
        let mut frozen = index.reader();
        frozen.pin();
        assert_eq!(live.query(0, 5), Some(5));

        let mut b = Batch::new();
        b.insert(0, 5);
        index.apply_batch(&b);

        assert_eq!(live.query(0, 5), Some(1), "follows the publication");
        assert_eq!(live.version(), 1);
        assert_eq!(frozen.query_dist_pinned(0, 5), 5, "pinned stays stale");
        assert_eq!(frozen.version(), 0);
        assert_eq!(frozen.query(0, 5), Some(1), "query() re-pins");
    }

    #[test]
    fn reader_handles_vertex_growth_and_range() {
        let g = path(4);
        let mut index = BatchIndex::build(g, config(Algorithm::BhlPlus, 1));
        let mut reader = index.reader();
        assert_eq!(reader.query(0, 9), None, "out of range is disconnected");
        let mut b = Batch::new();
        b.insert(3, 9);
        index.apply_batch(&b);
        oracle::check_minimal(&index.graph(), index.labelling()).unwrap();
        assert_eq!(reader.query(0, 9), Some(4), "0-1-2-3-9");
    }

    #[test]
    fn batched_reader_queries_match_per_pair() {
        let g = barabasi_albert(90, 3, 11);
        let mut index = BatchIndex::build(g, config(Algorithm::BhlPlus, 5));
        let mut reader = index.reader();
        let pairs: Vec<(u32, u32)> = (0..90u32)
            .flat_map(|s| [(s % 7, s), (s, (s * 13) % 90)])
            .collect();
        let batched = reader.query_many(&pairs);
        for (&(s, t), &got) in pairs.iter().zip(&batched) {
            assert_eq!(got, index.query(s, t), "({s},{t})");
        }
        let targets: Vec<u32> = (0..90).collect();
        for s in [0u32, 3, 41] {
            let many = reader.distances_from(s, &targets);
            for (&t, &got) in targets.iter().zip(&many) {
                assert_eq!(got, index.query(s, t), "({s},{t})");
            }
            let top = reader.top_k_closest(s, 5);
            assert_eq!(top.len(), 5);
            assert!(top.windows(2).all(|w| w[0].1 <= w[1].1));
            for &(v, d) in &top {
                assert_eq!(index.query(s, v), Some(d));
            }
        }
    }

    #[test]
    fn shared_reader_serves_by_shared_reference() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedReader<IndexSnapshot>>();

        let g = path(6);
        let mut index = BatchIndex::build(g, config(Algorithm::BhlPlus, 1));
        let shared = index.shared_reader();
        assert_eq!(shared.query(0, 5), Some(5));
        let mut b = Batch::new();
        b.insert(0, 5);
        index.apply_batch(&b);
        // &self queries re-pin internally — no &mut anywhere.
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let shared = &shared;
                scope.spawn(move || {
                    assert_eq!(shared.query(0, 5), Some(1));
                    assert_eq!(shared.query_many(&[(0, 5), (0, 4)]), vec![Some(1), Some(2)]);
                    assert_eq!(shared.distances_from(5, &[0, 3]), vec![Some(1), Some(2)]);
                });
            }
        });
        assert_eq!(shared.version(), 1);
        assert_eq!(shared.top_k_closest(0, 2), vec![(1, 1), (5, 1)]);
    }

    #[test]
    fn cloned_readers_are_independent() {
        let g = path(5);
        let mut index = BatchIndex::build(g, config(Algorithm::BhlPlus, 1));
        let mut a = index.reader();
        let b_reader = a.clone();
        let mut b = b_reader;
        let mut batch = Batch::new();
        batch.insert(0, 4);
        index.apply_batch(&batch);
        assert_eq!(a.query(0, 4), Some(1));
        // The clone still works and refreshes on its own schedule.
        assert_eq!(b.query_dist_pinned(0, 4), 4);
        assert_eq!(b.query(0, 4), Some(1));
    }
}
