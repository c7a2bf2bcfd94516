//! Generation-based shared label store.
//!
//! The batch-dynamic indexes serve two kinds of traffic with opposite
//! needs: queries want cheap, uncontended, *consistent* reads; updates
//! want exclusive mutation. The store reconciles them with
//! **generations**: an immutable snapshot `Γ` (labelling + the CSR view
//! of the graph it describes) is published behind an [`Arc`], queries run against a
//! pinned generation, and `apply_batch` assembles the next generation
//! `Γ′` off to the side and publishes it with a single atomic swap.
//!
//! * [`LabelStore::snapshot`] pins the current generation (brief lock,
//!   no copy).
//! * [`LabelStore::reader`] hands out [`ReaderHandle`]s — `Send + Sync`
//!   values that cache their pinned generation and re-pin only when the
//!   store's version counter (one atomic load) says a newer generation
//!   exists. Steady-state reads therefore touch no lock at all.
//! * [`LabelStore::publish`] installs the next generation and returns
//!   it together with the previous one; a retired generation is freed
//!   when its last reader lets go.
//!
//! The store is generic over the snapshot payload `S`: the undirected
//! and weighted indexes store `(labelling, CSR view)`, the directed
//! index `(forward, backward, CSR view)`. The CSR view is the index's
//! only graph (`batchhl_graph::csr`): before the repair pass the writer
//! builds the next view from the published one, rewriting each batch's
//! endpoints' lists into one new overlay chunk, so the generation
//! installed here is exactly what readers and landmark searches
//! traverse — consecutive generations share the CSR base and chunks
//! (and the packed label base and chunks) behind `Arc`s until a
//! compaction swaps in a fresh base.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A snapshot payload together with the generation number it was
/// published as. Version numbers start at 0 (the built index) and
/// increase by one per published batch pass.
#[derive(Debug)]
pub struct Versioned<S> {
    version: u64,
    value: S,
}

impl<S> Versioned<S> {
    /// The generation number of this snapshot.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The snapshot payload.
    #[inline]
    pub fn value(&self) -> &S {
        &self.value
    }

    /// Consume the wrapper.
    pub fn into_value(self) -> S {
        self.value
    }
}

impl<S> std::ops::Deref for Versioned<S> {
    type Target = S;

    fn deref(&self) -> &S {
        &self.value
    }
}

#[derive(Debug)]
struct Shared<S> {
    /// Mirror of `current`'s version, readable without the lock.
    version: AtomicU64,
    current: Mutex<Arc<Versioned<S>>>,
}

/// Lock `current`, recovering from poisoning: the guarded state is a
/// single `Arc` swapped atomically in [`LabelStore::publish`], so a
/// panic on another thread can never leave it half-updated. Treating
/// poison as fatal here would turn one panicked writer into a permanent
/// panic in every reader — exactly the cascade the generation design
/// exists to prevent.
fn lock_current<S>(shared: &Shared<S>) -> std::sync::MutexGuard<'_, Arc<Versioned<S>>> {
    shared
        .current
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// Shared, versioned home of the current generation.
///
/// Cloning the store yields another handle onto the *same* shared state
/// (like cloning an `Arc`).
#[derive(Debug)]
pub struct LabelStore<S> {
    shared: Arc<Shared<S>>,
}

impl<S> Clone for LabelStore<S> {
    fn clone(&self) -> Self {
        LabelStore {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<S> LabelStore<S> {
    /// Create a store whose generation 0 is `initial`.
    pub fn new(initial: S) -> Self {
        LabelStore {
            shared: Arc::new(Shared {
                version: AtomicU64::new(0),
                current: Mutex::new(Arc::new(Versioned {
                    version: 0,
                    value: initial,
                })),
            }),
        }
    }

    /// The version of the most recently published generation.
    #[inline]
    pub fn version(&self) -> u64 {
        self.shared.version.load(Ordering::Acquire)
    }

    /// Pin the current generation.
    pub fn snapshot(&self) -> Arc<Versioned<S>> {
        Arc::clone(&lock_current(&self.shared))
    }

    /// Publish `next` as the new current generation and return
    /// `(new, previous)`. Readers that re-pin from this point on see
    /// `next`; readers holding the previous generation keep a fully
    /// consistent (if slightly stale) view until they re-pin.
    pub fn publish(&self, next: S) -> (Arc<Versioned<S>>, Arc<Versioned<S>>) {
        let mut cur = lock_current(&self.shared);
        let version = cur.version() + 1;
        let fresh = Arc::new(Versioned {
            version,
            value: next,
        });
        let prev = std::mem::replace(&mut *cur, Arc::clone(&fresh));
        // Publish the version only after the swap: a reader that sees
        // the new version is guaranteed to find the new generation.
        self.shared.version.store(version, Ordering::Release);
        (fresh, prev)
    }

    /// A self-refreshing read handle over this store.
    pub fn reader(&self) -> ReaderHandle<S> {
        ReaderHandle {
            shared: Arc::clone(&self.shared),
            cached: self.snapshot(),
        }
    }
}

/// A cheap `Send + Sync` handle that always reads a consistent
/// generation and follows publications lazily.
///
/// The handle caches the pinned `Arc`; [`ReaderHandle::current`]
/// compares one atomic version counter and only takes the store lock
/// when a newer generation exists — in steady state a query performs no
/// locking and no allocation.
#[derive(Debug)]
pub struct ReaderHandle<S> {
    shared: Arc<Shared<S>>,
    cached: Arc<Versioned<S>>,
}

impl<S> Clone for ReaderHandle<S> {
    fn clone(&self) -> Self {
        ReaderHandle {
            shared: Arc::clone(&self.shared),
            cached: Arc::clone(&self.cached),
        }
    }
}

impl<S> ReaderHandle<S> {
    /// The freshest generation: re-pins if the store has published.
    pub fn current(&mut self) -> &Arc<Versioned<S>> {
        let published = self.shared.version.load(Ordering::Acquire);
        if published != self.cached.version() {
            self.cached = Arc::clone(&lock_current(&self.shared));
        }
        &self.cached
    }

    /// The generation pinned by the last [`ReaderHandle::current`] call
    /// (no refresh).
    #[inline]
    pub fn pinned(&self) -> &Arc<Versioned<S>> {
        &self.cached
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    #[test]
    fn publish_advances_versions_and_returns_prev() {
        let store = LabelStore::new(10i32);
        assert_eq!(store.version(), 0);
        assert_eq!(*store.snapshot().value(), 10);
        let (fresh, prev) = store.publish(11);
        assert_eq!(fresh.version(), 1);
        assert_eq!(*fresh.value(), 11);
        assert_eq!(prev.version(), 0);
        assert_eq!(store.version(), 1);
        assert_eq!(*store.snapshot().value(), 11);
    }

    #[test]
    fn reader_follows_publications_lazily() {
        let store = LabelStore::new(0i32);
        let mut reader = store.reader();
        assert_eq!(*reader.current().value(), 0);
        store.publish(1);
        // Pinned view is stale until `current` is called again.
        assert_eq!(*reader.pinned().value(), 0);
        assert_eq!(*reader.current().value(), 1);
        assert_eq!(reader.current().version(), 1);
    }

    #[test]
    fn writer_can_recycle_unpinned_generations() {
        let store = LabelStore::new(vec![1u8, 2, 3]);
        let (_, prev) = store.publish(vec![4, 5, 6]);
        // No reader pinned generation 0: the buffer comes back.
        let buf = Arc::try_unwrap(prev).expect("sole owner").into_value();
        assert_eq!(buf, vec![1, 2, 3]);
        // A pinned generation cannot be recycled.
        let pinned = store.snapshot();
        let (_, prev) = store.publish(vec![7]);
        assert!(Arc::try_unwrap(prev).is_err());
        drop(pinned);
    }

    #[test]
    fn poisoned_store_keeps_serving_readers_and_writers() {
        // A thread that panics while holding the store lock poisons the
        // mutex; since the guarded state is one atomically swapped Arc,
        // every operation must recover and keep working.
        let store = LabelStore::new(7i32);
        let mut reader = store.reader();
        let poisoner = store.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shared.current.lock().unwrap();
            panic!("die while holding the store lock");
        })
        .join();
        assert!(store.shared.current.is_poisoned(), "setup: lock poisoned");
        assert_eq!(*store.snapshot().value(), 7, "snapshot recovers");
        let (fresh, prev) = store.publish(8);
        assert_eq!(fresh.version(), 1);
        assert_eq!(*prev.value(), 7);
        assert_eq!(
            *reader.current().value(),
            8,
            "reader re-pins through poison"
        );
    }

    #[test]
    fn handles_are_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LabelStore<Vec<u32>>>();
        assert_send_sync::<ReaderHandle<Vec<u32>>>();
    }

    #[test]
    fn concurrent_readers_always_see_a_full_generation() {
        // Generations are (x, x): a torn read would surface a mismatch.
        let store = LabelStore::new((0u64, 0u64));
        let stop = AtomicBool::new(false);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut reader = store.reader();
                let stop = &stop;
                scope.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let snap = reader.current();
                        let (a, b) = *snap.value();
                        assert_eq!(a, b);
                        assert_eq!(a, snap.version());
                    }
                });
            }
            for v in 1..=2000u64 {
                store.publish((v, v));
            }
            stop.store(true, Ordering::Relaxed);
        });
        assert_eq!(store.version(), 2000);
    }
}
