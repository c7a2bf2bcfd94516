//! Monotone bucket priority queues (Dial's structure).
//!
//! Both batch search and batch repair pop keys in non-decreasing order and
//! only ever push keys `≥` the last popped key (every pushed entry extends
//! a popped path by one edge, and the initial pushes all happen before the
//! first pop). That makes an array of buckets indexed by distance strictly
//! cheaper than a binary heap: O(1) push and amortized O(1) pop, against
//! O(log n) for both on `std::collections::BinaryHeap`.
//!
//! Two concrete queues are provided:
//!
//! * [`DialQueue`] — keyed by plain distance (Algorithm 2, Algorithm 4's
//!   distance component),
//! * [`LexDialQueue`] — keyed by [`ExtLandmarkLength`] with four
//!   sub-buckets per distance so pops follow the full lexicographic
//!   `(d, l, e)` order (Algorithm 3).
//!
//! Both queues keep their bucket allocations alive across `clear` calls so
//! a single instance serves as a workhorse across landmarks and batches.

use crate::dist::{Dist, Vertex};
use crate::llen::ExtLandmarkLength;

/// Bucket queue over `(Dist, Vertex)` entries popped in non-decreasing
/// distance order.
#[derive(Debug, Default)]
pub struct DialQueue {
    buckets: Vec<Vec<Vertex>>,
    /// Index of the bucket the next pop will inspect.
    cursor: usize,
    len: usize,
}

impl DialQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Push an entry. `d` may be smaller than the current cursor only if
    /// the queue has not been popped yet; in debug builds a monotonicity
    /// violation panics.
    pub fn push(&mut self, d: Dist, v: Vertex) {
        let d = d as usize;
        debug_assert!(
            d >= self.cursor || self.len == 0,
            "non-monotone push: d={d} cursor={}",
            self.cursor
        );
        if d < self.cursor {
            // Defensive: restart scanning from the pushed bucket.
            self.cursor = d;
        }
        if d >= self.buckets.len() {
            self.buckets.resize_with(d + 1, Vec::new);
        }
        self.buckets[d].push(v);
        self.len += 1;
    }

    /// Pop a minimum-distance entry.
    pub fn pop(&mut self) -> Option<(Dist, Vertex)> {
        if self.len == 0 {
            return None;
        }
        while self.cursor < self.buckets.len() {
            if let Some(v) = self.buckets[self.cursor].pop() {
                self.len -= 1;
                return Some((self.cursor as Dist, v));
            }
            self.cursor += 1;
        }
        None
    }

    /// Empty the queue, retaining bucket allocations for reuse.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.cursor = 0;
        self.len = 0;
    }
}

/// Bucket queue over `(ExtLandmarkLength, Vertex)` entries popped in the
/// lexicographic `(d, l, e)` order of Definition 5.16 (with `True < False`
/// flag order). Each distance bucket holds four sub-buckets addressed by
/// [`ExtLandmarkLength::sub_bucket`].
#[derive(Debug, Default)]
pub struct LexDialQueue {
    buckets: Vec<[Vec<Vertex>; 4]>,
    cursor: usize,
    len: usize,
}

impl LexDialQueue {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn push(&mut self, key: ExtLandmarkLength, v: Vertex) {
        let d = key.dist() as usize;
        debug_assert!(
            d >= self.cursor || self.len == 0,
            "non-monotone push: d={d} cursor={}",
            self.cursor
        );
        if d < self.cursor {
            self.cursor = d;
        }
        if d >= self.buckets.len() {
            self.buckets.resize_with(d + 1, Default::default);
        }
        self.buckets[d][key.sub_bucket()].push(v);
        self.len += 1;
    }

    /// Pop a lexicographically minimal entry, returning its full key.
    ///
    /// Entries within one `(d, l, e)` sub-bucket are interchangeable for
    /// the algorithms (their keys are equal), so LIFO order inside a
    /// sub-bucket is fine.
    pub fn pop(&mut self) -> Option<(ExtLandmarkLength, Vertex)> {
        if self.len == 0 {
            return None;
        }
        while self.cursor < self.buckets.len() {
            let bucket = &mut self.buckets[self.cursor];
            for (sub, list) in bucket.iter_mut().enumerate() {
                if let Some(v) = list.pop() {
                    self.len -= 1;
                    let through = sub < 2;
                    let deleted = sub & 1 == 0;
                    return Some((
                        ExtLandmarkLength::new(self.cursor as Dist, through, deleted),
                        v,
                    ));
                }
            }
            self.cursor += 1;
        }
        None
    }

    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            for sub in b {
                sub.clear();
            }
        }
        self.cursor = 0;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SplitMix64;

    #[test]
    fn dial_pops_in_order() {
        let mut q = DialQueue::new();
        q.push(3, 30);
        q.push(1, 10);
        q.push(2, 20);
        q.push(1, 11);
        let mut out = Vec::new();
        while let Some((d, v)) = q.pop() {
            out.push((d, v));
        }
        let dists: Vec<Dist> = out.iter().map(|&(d, _)| d).collect();
        assert_eq!(dists, vec![1, 1, 2, 3]);
        assert!(out.contains(&(1, 10)) && out.contains(&(1, 11)));
    }

    #[test]
    fn dial_monotone_push_during_pops() {
        let mut q = DialQueue::new();
        q.push(0, 0);
        let (d, v) = q.pop().unwrap();
        assert_eq!((d, v), (0, 0));
        q.push(1, 1);
        q.push(2, 2);
        assert_eq!(q.pop().unwrap(), (1, 1));
        q.push(2, 3);
        assert_eq!(q.pop().unwrap().0, 2);
        assert_eq!(q.pop().unwrap().0, 2);
        assert!(q.pop().is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn dial_clear_reuses_buckets() {
        let mut q = DialQueue::new();
        q.push(5, 1);
        q.clear();
        assert!(q.is_empty());
        q.push(0, 2);
        assert_eq!(q.pop(), Some((0, 2)));
    }

    #[test]
    fn lex_pops_in_lexicographic_order() {
        let mut q = LexDialQueue::new();
        let keys = [
            ExtLandmarkLength::new(2, false, false),
            ExtLandmarkLength::new(1, false, true),
            ExtLandmarkLength::new(1, true, false),
            ExtLandmarkLength::new(1, true, true),
            ExtLandmarkLength::new(2, true, false),
        ];
        for (i, &k) in keys.iter().enumerate() {
            q.push(k, i as Vertex);
        }
        let mut popped = Vec::new();
        while let Some((k, _)) = q.pop() {
            popped.push(k);
        }
        let mut sorted = popped.clone();
        sorted.sort();
        assert_eq!(popped, sorted);
        assert_eq!(popped.len(), keys.len());
    }

    #[test]
    fn lex_pop_reconstructs_keys() {
        let mut q = LexDialQueue::new();
        for d in 0..4u32 {
            for l in [false, true] {
                for e in [false, true] {
                    q.push(ExtLandmarkLength::new(d, l, e), d * 4);
                }
            }
        }
        let mut n = 0;
        let mut last = None;
        while let Some((k, _)) = q.pop() {
            if let Some(prev) = last {
                assert!(prev <= k);
            }
            last = Some(k);
            n += 1;
        }
        assert_eq!(n, 16);
    }

    #[test]
    fn randomized_against_sorted_reference() {
        let mut rng = SplitMix64::new(42);
        for _ in 0..50 {
            let mut q = DialQueue::new();
            let mut reference = Vec::new();
            for _ in 0..100 {
                let d = (rng.next_u64() % 32) as Dist;
                let v = (rng.next_u64() % 1000) as Vertex;
                q.push(d, v);
                reference.push(d);
            }
            reference.sort_unstable();
            let mut popped = Vec::new();
            while let Some((d, _)) = q.pop() {
                popped.push(d);
            }
            assert_eq!(popped, reference);
        }
    }
}
