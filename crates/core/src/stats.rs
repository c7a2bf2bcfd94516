//! Update statistics reported by the index.
//!
//! The paper's evaluation reads these directly: affected-vertex counts
//! (Figure 2, Table 5) and wall-clock update times (Table 3, Figures 6
//! and 7).

use std::time::Duration;

/// Statistics of one `apply_batch` call.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct UpdateStats {
    /// Valid updates actually applied to the graph.
    pub applied: usize,
    /// Applied insertions.
    pub insertions: usize,
    /// Applied deletions.
    pub deletions: usize,
    /// `Σ_r |V_aff(r)|` — total affected vertices over all landmarks
    /// (the quantity plotted in Figure 2 / Table 5).
    pub affected_total: usize,
    /// Affected count per landmark index.
    pub affected_per_landmark: Vec<usize>,
    /// Number of internal pipeline passes: 1 for BHL/BHL⁺, 2 for BHLₛ,
    /// one per update for UHL/UHL⁺.
    pub passes: usize,
    /// Passes whose working buffer had to be rebuilt as a full
    /// `O(n + m)` clone of the fresh generation because readers still
    /// pinned every retired one (the recycler's fallback).
    pub generation_clones: usize,
    /// Wall-clock time of the whole update (graph application, search,
    /// repair, bookkeeping).
    pub elapsed: Duration,
}

impl UpdateStats {
    /// Fold another pass's stats into this one (sub-batches, UHL).
    pub fn absorb(&mut self, other: UpdateStats) {
        self.applied += other.applied;
        self.insertions += other.insertions;
        self.deletions += other.deletions;
        self.affected_total += other.affected_total;
        if self.affected_per_landmark.len() < other.affected_per_landmark.len() {
            self.affected_per_landmark
                .resize(other.affected_per_landmark.len(), 0);
        }
        for (acc, x) in self
            .affected_per_landmark
            .iter_mut()
            .zip(other.affected_per_landmark.iter())
        {
            *acc += x;
        }
        self.passes += other.passes;
        self.generation_clones += other.generation_clones;
        self.elapsed += other.elapsed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absorb_accumulates() {
        let mut a = UpdateStats {
            applied: 2,
            insertions: 1,
            deletions: 1,
            affected_total: 10,
            affected_per_landmark: vec![4, 6],
            passes: 1,
            generation_clones: 1,
            elapsed: Duration::from_millis(5),
        };
        let b = UpdateStats {
            applied: 3,
            insertions: 3,
            deletions: 0,
            affected_total: 7,
            affected_per_landmark: vec![1, 2, 4],
            passes: 1,
            generation_clones: 0,
            elapsed: Duration::from_millis(2),
        };
        a.absorb(b);
        assert_eq!(a.applied, 5);
        assert_eq!(a.insertions, 4);
        assert_eq!(a.deletions, 1);
        assert_eq!(a.affected_total, 17);
        assert_eq!(a.affected_per_landmark, vec![5, 8, 4]);
        assert_eq!(a.passes, 2);
        assert_eq!(a.generation_clones, 1);
        assert_eq!(a.elapsed, Duration::from_millis(7));
    }
}
