//! The index of a chunked per-vertex overlay.
//!
//! Both published structures that change per generation — the CSR
//! adjacency view (`batchhl-graph`) and the packed labels
//! (`batchhl-hcl`) — are an `Arc`-shared base plus one `Arc` chunk per
//! patch holding the rows that patch rewrote. [`OverlayIndex`] says
//! which vertices the chunks override and where each one's newest copy
//! lives. A lookup is one bit test for a vertex that is not overlaid,
//! and a rank for one that is: the word's prefix count plus a
//! `popcount` of the bits below the vertex, which indexes the
//! `(chunk, slot)` array kept in vertex order. Appending a chunk merges
//! the index once, in `O(overlaid + new + words)`.

use crate::dist::Vertex;

/// Where the overlaid vertices of a chunked overlay live.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OverlayIndex {
    /// Bit `v` set ⇔ `v` is overlaid (one word per 64 vertices).
    mask: Vec<u64>,
    /// `ranks[w]` = overlaid vertices below `64·w`.
    ranks: Vec<u32>,
    /// `(chunk, slot)` of every overlaid vertex, ascending by vertex.
    slots: Vec<(u32, u32)>,
}

impl OverlayIndex {
    /// Number of overlaid vertices.
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The `(chunk, slot)` of `v`'s newest copy, `None` when `v` is not
    /// overlaid. An empty index is decided by one predictable branch.
    #[inline]
    pub fn get(&self, v: Vertex) -> Option<(u32, u32)> {
        if self.slots.is_empty() {
            return None;
        }
        let w = (v >> 6) as usize;
        let word = *self.mask.get(w)?;
        let bit = 1u64 << (v & 63);
        if word & bit == 0 {
            return None;
        }
        let rank = self.ranks[w] as usize + (word & (bit - 1)).count_ones() as usize;
        Some(self.slots[rank])
    }

    /// The overlaid vertices, ascending.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.mask.iter().enumerate().flat_map(|(w, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                (bits != 0).then(|| {
                    let v = (w * 64) as Vertex + bits.trailing_zeros();
                    bits &= bits - 1;
                    v
                })
            })
        })
    }

    /// This index with one more chunk, number `chunk`, whose slot `k`
    /// holds `changed[k]` (`changed` ascending and distinct). A vertex
    /// already overlaid moves to its new slot.
    pub fn merged(&self, chunk: u32, changed: &[Vertex]) -> Self {
        debug_assert!(changed.windows(2).all(|w| w[0] < w[1]));
        let words = changed
            .last()
            .map_or(0, |&v| (v >> 6) as usize + 1)
            .max(self.mask.len());
        let mut mask = self.mask.clone();
        mask.resize(words, 0);
        let mut slots = Vec::with_capacity(self.slots.len() + changed.len());
        let mut old = self.vertices().zip(self.slots.iter().copied()).peekable();
        for (k, &v) in changed.iter().enumerate() {
            while let Some((_, slot)) = old.next_if(|&(u, _)| u < v) {
                slots.push(slot);
            }
            old.next_if(|&(u, _)| u == v);
            slots.push((chunk, k as u32));
            mask[(v >> 6) as usize] |= 1u64 << (v & 63);
        }
        slots.extend(old.map(|(_, slot)| slot));
        let mut ranks = Vec::with_capacity(words);
        let mut below = 0u32;
        for &word in &mask {
            ranks.push(below);
            below += word.count_ones();
        }
        OverlayIndex { mask, ranks, slots }
    }

    /// Resident bytes of the mask, ranks and slots.
    pub fn resident_bytes(&self) -> usize {
        self.mask.len() * 8 + self.ranks.len() * 4 + self.slots.len() * 8
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_resolve_newest_slots_by_rank() {
        let empty = OverlayIndex::default();
        assert_eq!(empty.get(0), None);
        let a = empty.merged(0, &[3, 64, 200]);
        assert_eq!(a.len(), 3);
        assert_eq!(a.get(64), Some((0, 1)));
        assert_eq!(a.get(65), None);
        assert_eq!(a.get(100_000), None, "past the mask");
        let b = a.merged(1, &[0, 64, 130]);
        assert_eq!(b.vertices().collect::<Vec<_>>(), vec![0, 3, 64, 130, 200]);
        assert_eq!(b.get(0), Some((1, 0)));
        assert_eq!(b.get(3), Some((0, 0)));
        assert_eq!(b.get(64), Some((1, 1)), "re-patched vertex moves");
        assert_eq!(b.get(130), Some((1, 2)));
        assert_eq!(b.get(200), Some((0, 2)));
        // The predecessor is untouched.
        assert_eq!(a.get(64), Some((0, 1)));
        assert_eq!(a.get(0), None);
    }
}
