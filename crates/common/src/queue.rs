//! Monotone priority queues: Dial's bucket structure and a radix heap.
//!
//! Both batch search and batch repair pop keys in non-decreasing order and
//! only ever push keys `≥` the last popped key (every pushed entry extends
//! a popped path by one edge, and the initial pushes all happen before the
//! first pop). Monotone queues exploit that to beat the O(log n) per
//! operation of a binary heap (`std::collections::BinaryHeap`).
//!
//! Three concrete queues are provided:
//!
//! * [`DialQueue`] — an array of buckets keyed by plain distance (the
//!   baselines' BFS repairs): O(1) push, amortized O(1) pop,
//! * [`LexDialQueue`] — keyed by [`ExtLandmarkLength`] with four
//!   sub-buckets per distance so pops follow the full lexicographic
//!   `(d, l, e)` order (Algorithms 2–4 on unit edge lengths),
//! * [`RadixHeap`] — a monotone radix heap over any `u64` key, for edge
//!   lengths above one (Section 6's weighted graphs), where the keys
//!   spread too far for one bucket per distance: O(1) push and
//!   amortized O(log C) pop, `C` the largest key gap. It orders the
//!   packed [`ExtLandmarkLength`] keys of the weighted batch search and
//!   repair as well as the plain distances of the bounded Dijkstra.
//!
//! All three keep their bucket allocations alive across `clear` calls so
//! a single instance serves as a workhorse across landmarks and batches.
//!
//! [`MonotoneQueue`] is what the batch search and repair need of a
//! queue; [`LexDialQueue`] and [`RadixHeap`] implement it.

use crate::dist::{Dist, Vertex};
use crate::llen::ExtLandmarkLength;

/// A min-queue of `(ExtLandmarkLength, Vertex)` entries whose pushes
/// never undercut the last pop.
pub trait MonotoneQueue: Default + Send {
    fn push(&mut self, key: ExtLandmarkLength, v: Vertex);
    /// Pop an entry with the lexicographically smallest key.
    fn pop(&mut self) -> Option<(ExtLandmarkLength, Vertex)>;
    /// Empty the queue, keeping its allocation.
    fn clear(&mut self);
}

/// Monotone radix heap over `(u64, Vertex)` entries (Ahuja, Mehlhorn,
/// Orlin and Tarjan, "Faster algorithms for the shortest path problem",
/// 1990), in its bitwise form.
///
/// Bucket 0 holds the keys equal to the last popped key `last`; bucket
/// `b ≥ 1` the keys whose highest bit differing from `last` is bit
/// `b − 1`. Every key in bucket `b` is smaller than every key in a
/// higher bucket, so a pop takes the lowest non-empty bucket, makes its
/// minimum the new `last` and redistributes the rest into strictly lower
/// buckets. Each entry moves down at most 64 times, and in practice
/// about `log₂` of the key gap.
///
/// Pushes must not undercut the last pop (`key ≥ last`); `clear` resets
/// `last` to 0.
#[derive(Debug)]
pub struct RadixHeap {
    buckets: [Vec<(u64, Vertex)>; 65],
    /// The last popped (or peeked) key; 0 after `clear`.
    last: u64,
    len: usize,
}

impl Default for RadixHeap {
    fn default() -> Self {
        RadixHeap {
            buckets: std::array::from_fn(|_| Vec::new()),
            last: 0,
            len: 0,
        }
    }
}

/// The bucket of `key` relative to the last popped key.
#[inline(always)]
fn radix_bucket(key: u64, last: u64) -> usize {
    (u64::BITS - (key ^ last).leading_zeros()) as usize
}

impl RadixHeap {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Push an entry. `key` must be `≥` the last popped key, as every
    /// caller's keys are (see the module docs): debug builds panic on a
    /// violation, release builds would pop out of order.
    #[inline]
    pub fn push(&mut self, key: u64, v: Vertex) {
        debug_assert!(
            key >= self.last,
            "non-monotone push: key={key} last={}",
            self.last
        );
        self.buckets[radix_bucket(key, self.last)].push((key, v));
        self.len += 1;
    }

    /// Pop an entry with the smallest key.
    #[inline]
    pub fn pop(&mut self) -> Option<(u64, Vertex)> {
        self.peek()?;
        self.len -= 1;
        self.buckets[0].pop()
    }

    /// The smallest key, which the next [`RadixHeap::pop`] returns. It
    /// becomes the floor for pushes, as a pop would make it.
    #[inline]
    pub fn peek(&mut self) -> Option<u64> {
        if self.buckets[0].is_empty() {
            let b = self.buckets.iter().position(|b| !b.is_empty())?;
            let mut moved = std::mem::take(&mut self.buckets[b]);
            let min = moved.iter().map(|&(k, _)| k).min().expect("non-empty");
            self.last = min;
            // Every entry lands in a bucket below `b`.
            for (k, v) in moved.drain(..) {
                self.buckets[radix_bucket(k, min)].push((k, v));
            }
            // Hand the emptied allocation back.
            self.buckets[b] = moved;
        }
        Some(self.last)
    }

    /// Empty the queue, retaining bucket allocations for reuse.
    pub fn clear(&mut self) {
        for b in &mut self.buckets {
            b.clear();
        }
        self.last = 0;
        self.len = 0;
    }
}

impl MonotoneQueue for RadixHeap {
    #[inline]
    fn push(&mut self, key: ExtLandmarkLength, v: Vertex) {
        RadixHeap::push(self, key.key(), v);
    }

    #[inline]
    fn pop(&mut self) -> Option<(ExtLandmarkLength, Vertex)> {
        RadixHeap::pop(self).map(|(k, v)| (ExtLandmarkLength::from_key(k), v))
    }

    fn clear(&mut self) {
        RadixHeap::clear(self);
    }
}

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
}

impl MonotoneQueue for LexDialQueue {
    fn push(&mut self, key: ExtLandmarkLength, v: Vertex) {
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

    /// Entries within one `(d, l, e)` sub-bucket are interchangeable for
    /// the algorithms (their keys are equal), so LIFO order inside a
    /// sub-bucket is fine.
    fn pop(&mut self) -> Option<(ExtLandmarkLength, Vertex)> {
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

    fn clear(&mut self) {
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
    fn radix_pops_keys_in_the_dial_order() {
        let mut rng = SplitMix64::new(7);
        let (mut dial, mut radix) = (LexDialQueue::new(), RadixHeap::new());
        for v in 0..200 {
            let r = rng.next_u64();
            let key = ExtLandmarkLength::new((r % 16) as Dist, r & 16 != 0, r & 32 != 0);
            MonotoneQueue::push(&mut dial, key, v);
            MonotoneQueue::push(&mut radix, key, v);
        }
        while let Some((key, _)) = MonotoneQueue::pop(&mut dial) {
            assert_eq!(MonotoneQueue::pop(&mut radix).map(|(k, _)| k), Some(key));
        }
        assert!(radix.is_empty());
    }

    /// A key `≥ floor` whose distance to it has a random bit width, so
    /// every bucket gets used: up to the `u64` high bits, often in the
    /// two flag bits alone, sometimes equal.
    fn key_above(floor: u64, rng: &mut SplitMix64) -> u64 {
        let gap = match rng.below(4) {
            0 => 0,
            1 => rng.below(4),
            _ => rng.next_u64() >> rng.below(64),
        };
        floor.saturating_add(gap)
    }

    #[test]
    fn radix_interleavings_match_a_sorted_reference() {
        let mut rng = SplitMix64::new(0x5eed);
        let mut q = RadixHeap::new();
        for round in 0..200 {
            // One heap for every round: `clear` must reset it fully.
            q.clear();
            let mut reference: Vec<(u64, Vertex)> = Vec::new();
            let mut floor = 0u64;
            for step in 0..300u32 {
                if rng.below(3) > 0 {
                    let key = key_above(floor, &mut rng);
                    q.push(key, step);
                    reference.push((key, step));
                } else {
                    let want = reference.iter().map(|&(k, _)| k).min();
                    assert_eq!(q.peek(), want, "round {round} step {step}");
                    let got = q.pop();
                    assert_eq!(got.map(|(k, _)| k), want, "round {round} step {step}");
                    if let Some(entry) = got {
                        // The popped vertex was pushed with that key.
                        let at = reference.iter().position(|&e| e == entry);
                        reference.swap_remove(at.expect("popped entry was pushed"));
                        floor = entry.0;
                    }
                }
                assert_eq!(q.len(), reference.len());
            }
            reference.sort_unstable();
            let drained: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(k, _)| k)).collect();
            let want: Vec<u64> = reference.iter().map(|&(k, _)| k).collect();
            assert_eq!(drained, want, "round {round}");
            assert!(q.is_empty() && q.peek().is_none());
        }
    }

    #[test]
    fn radix_peek_agrees_with_the_next_pop() {
        let mut q = RadixHeap::new();
        assert_eq!(q.peek(), None);
        for (k, v) in [(40, 1), (9, 2), (9, 3), (1 << 40, 4), (12, 5)] {
            q.push(k, v);
        }
        while let Some(k) = q.peek() {
            assert_eq!(q.peek(), Some(k), "peek is repeatable");
            assert_eq!(q.pop().map(|(key, _)| key), Some(k));
        }
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn radix_clear_resets_the_last_pop() {
        let mut q = RadixHeap::new();
        q.push(1000, 1);
        q.push(2000, 2);
        assert_eq!(q.pop(), Some((1000, 1)));
        q.clear();
        assert!(q.is_empty());
        // Below the pop before `clear`: legal again.
        q.push(3, 3);
        q.push(0, 4);
        assert_eq!(q.pop(), Some((0, 4)));
        assert_eq!(q.pop(), Some((3, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotone push")]
    fn radix_rejects_a_push_below_the_last_pop() {
        let mut q = RadixHeap::new();
        q.push(5, 0);
        q.push(9, 1);
        assert_eq!(q.pop(), Some((5, 0)));
        q.push(4, 2);
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
