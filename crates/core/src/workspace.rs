//! Reusable per-landmark workspace for batch search and batch repair.
//!
//! One `UpdateWorkspace` serves every landmark of every batch: all
//! members reset sparsely (epoch bump or touched-list walk), so the
//! steady-state update path performs no allocation. Parallel updates
//! (BHLₚ) give each extra worker thread its own workspace, kept in the
//! writer's across passes ([`UpdateWorkspace::workers`]). `Q` is the
//! metric's monotone queue ([`crate::metric::Metric::Queue`]).

use batchhl_common::{
    EpochCache, LandmarkLength, LexDialQueue, MonotoneQueue, SparseBitSet, Vertex,
};
use batchhl_hcl::Labelling;

/// Scratch state shared by Algorithms 2, 3 and 4.
#[derive(Debug, Default)]
pub struct UpdateWorkspace<Q = LexDialQueue> {
    /// `V_aff` — affected-vertex set of the current landmark.
    pub aff: SparseBitSet,
    /// The search's queue, then the repair's (the search drains it).
    pub queue: Q,
    /// Memo of `d^L_G(r, ·)` lookups for the current landmark — the
    /// "store distances for all unaffected neighbours" optimization the
    /// paper uses to drop the `l` factor from Algorithm 4's complexity.
    pub dl_cache: EpochCache,
    /// `D_bou` of Algorithm 4 (landmark distance bounds), epoch-stamped.
    pub bounds: EpochCache,
    /// The workspaces of the BHLₚ worker threads beyond the caller's
    /// (which runs landmarks on this one), reused pass after pass.
    pub workers: Vec<UpdateWorkspace<Q>>,
}

impl<Q: MonotoneQueue> UpdateWorkspace<Q> {
    pub fn new(n: usize) -> Self {
        UpdateWorkspace {
            aff: SparseBitSet::new(n),
            queue: Q::default(),
            dl_cache: EpochCache::new(n),
            bounds: EpochCache::new(n),
            workers: Vec::new(),
        }
    }

    /// Make room for `n` vertices (cheap when already large enough).
    pub fn grow(&mut self, n: usize) {
        self.aff.grow(n);
        self.dl_cache.grow(n);
        self.bounds.grow(n);
    }

    /// Reset everything for the next landmark.
    pub fn reset(&mut self) {
        self.aff.clear();
        self.queue.clear();
        self.dl_cache.clear();
        self.bounds.clear();
    }
}

/// Memoized `d^L_G(r_i, v)` lookup against the *old* labelling.
///
/// The search phase touches every neighbour of every affected vertex
/// with this oracle; batch repair then re-reads exactly those vertices,
/// hitting the cache.
#[inline]
pub fn dl_old(lab: &Labelling, i: usize, v: Vertex, cache: &mut EpochCache) -> LandmarkLength {
    if let Some(key) = cache.get(v as usize) {
        return LandmarkLength::from_key(key);
    }
    let ll = lab.landmark_dist(i, v);
    cache.set(v as usize, ll.key());
    ll
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchhl_graph::generators::path;
    use batchhl_hcl::build_labelling;

    #[test]
    fn dl_old_caches_correctly() {
        let g = path(6);
        let lab = build_labelling(&g, vec![0, 3]).unwrap();
        let mut cache = EpochCache::new(6);
        for v in 0..6u32 {
            let fresh = lab.landmark_dist(0, v);
            let first = dl_old(&lab, 0, v, &mut cache);
            let second = dl_old(&lab, 0, v, &mut cache);
            assert_eq!(first, fresh);
            assert_eq!(second, fresh);
        }
        // Cache must not leak across landmarks: caller clears.
        cache.clear();
        let v1_for_lm1 = dl_old(&lab, 1, 1, &mut cache);
        assert_eq!(v1_for_lm1, lab.landmark_dist(1, 1));
    }

    #[test]
    fn workspace_reset_and_grow() {
        let mut ws = UpdateWorkspace::<LexDialQueue>::new(4);
        ws.aff.insert(3);
        ws.queue
            .push(batchhl_common::ExtLandmarkLength::new(1, false, false), 3);
        ws.bounds.set(3, 42);
        ws.reset();
        assert!(!ws.aff.contains(3));
        assert!(ws.queue.is_empty());
        assert_eq!(ws.bounds.get(3), None);
        ws.grow(100);
        ws.aff.insert(99);
        assert!(ws.aff.contains(99));
    }
}
