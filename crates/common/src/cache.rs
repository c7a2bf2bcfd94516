//! Epoch-stamped memoization array.
//!
//! During batch search the old distances `d_G(r, v)` / `d^L_G(r, v)` are
//! recovered from the labelling in O(|R|) per lookup; each vertex can be
//! inspected once per incident edge, and batch repair needs the same
//! values again for boundary initialization. `EpochCache` memoizes them
//! with O(1) lookup and O(1) reset: each slot carries the epoch in which
//! it was written, and `clear` just bumps the current epoch.

/// A `u64`-valued per-vertex memo table with constant-time reset.
#[derive(Debug, Clone)]
pub struct EpochCache {
    vals: Vec<u64>,
    stamps: Vec<u32>,
    epoch: u32,
}

/// An empty cache at epoch 1, as [`EpochCache::new`] builds it.
impl Default for EpochCache {
    fn default() -> Self {
        EpochCache::new(0)
    }
}

impl EpochCache {
    pub fn new(capacity: usize) -> Self {
        EpochCache {
            vals: vec![0; capacity],
            stamps: vec![0; capacity],
            // Epoch 0 would make the zeroed stamps look valid.
            epoch: 1,
        }
    }

    pub fn capacity(&self) -> usize {
        self.vals.len()
    }

    pub fn grow(&mut self, capacity: usize) {
        if capacity > self.vals.len() {
            self.vals.resize(capacity, 0);
            self.stamps.resize(capacity, 0);
        }
    }

    #[inline(always)]
    pub fn get(&self, i: usize) -> Option<u64> {
        (self.stamps[i] == self.epoch).then(|| self.vals[i])
    }

    #[inline(always)]
    pub fn set(&mut self, i: usize, val: u64) {
        self.vals[i] = val;
        self.stamps[i] = self.epoch;
    }

    /// Invalidate every entry in O(1) (amortized: a full wipe happens
    /// once every `u32::MAX - 1` clears to handle stamp wrap-around).
    pub fn clear(&mut self) {
        if self.epoch == u32::MAX {
            self.stamps.fill(0);
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_get_clear() {
        let mut c = EpochCache::new(10);
        assert_eq!(c.get(3), None);
        c.set(3, 99);
        assert_eq!(c.get(3), Some(99));
        c.clear();
        assert_eq!(c.get(3), None);
        c.set(3, 7);
        assert_eq!(c.get(3), Some(7));
    }

    #[test]
    fn epoch_wraparound_wipes() {
        let mut c = EpochCache::new(4);
        c.set(0, 1);
        c.epoch = u32::MAX; // simulate many clears
        c.set(1, 2);
        assert_eq!(c.get(1), Some(2));
        c.clear();
        assert_eq!(c.get(0), None);
        assert_eq!(c.get(1), None);
        c.set(2, 3);
        assert_eq!(c.get(2), Some(3));
    }

    #[test]
    fn default_then_grow_reads_nothing_cached() {
        let mut c = EpochCache::default();
        c.grow(16);
        assert!((0..16).all(|i| c.get(i).is_none()));
        c.set(5, 0);
        assert_eq!(c.get(5), Some(0));
    }

    #[test]
    fn grow_preserves_semantics() {
        let mut c = EpochCache::new(2);
        c.set(1, 5);
        c.grow(100);
        assert_eq!(c.get(1), Some(5));
        assert_eq!(c.get(99), None);
        c.set(99, 9);
        assert_eq!(c.get(99), Some(9));
    }
}
