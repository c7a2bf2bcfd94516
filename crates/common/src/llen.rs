//! Packed landmark lengths (Definitions 5.13 and 5.16 of the paper).
//!
//! The improved batch search (Algorithm 3) orders its queue by the
//! *extended landmark length* `(d, l, e)` of a path: its hop count `d`,
//! a landmark flag `l` (true iff the path passes through a landmark other
//! than the source, *including its terminal vertex* — the convention
//! forced by the paper's `⊕` operator) and a deletion flag `e` (true iff
//! the path uses a deleted edge). Comparison is lexicographic with the
//! unusual `True < False` ordering on both flags: among equal-length
//! paths the search must prefer landmark-covered paths (so redundant
//! labels are detected) and deletion-carrying paths (so deleted paths are
//! not pruned by the stricter insertion condition — see Section 5.2).
//!
//! Both tuple types are packed into a single `u64` whose integer order
//! coincides with the lexicographic tuple order, so a queue comparison is
//! one machine compare and the values index Dial buckets directly.

use crate::dist::{Dist, INF};

/// A `(distance, landmark-flag)` pair, packed as
/// `(dist << 1) | (landmark ? 0 : 1)`.
///
/// `True < False` on the flag means that for a fixed distance the packed
/// key of a landmark-covered path is *smaller*, matching the paper's
/// ordering.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LandmarkLength(u64);

impl LandmarkLength {
    /// The landmark length of the empty path at a landmark root:
    /// distance 0, no other landmark seen.
    pub const ZERO: LandmarkLength = LandmarkLength::new(0, false);

    /// Landmark length of an unreachable vertex. The flag is `true`
    /// (the minimum at distance `INF`) so that *any* real path to a
    /// previously-unreachable vertex passes the pruning comparisons.
    pub const INFINITE: LandmarkLength = LandmarkLength::new(INF, true);

    #[inline(always)]
    pub const fn new(dist: Dist, through_landmark: bool) -> Self {
        LandmarkLength(((dist as u64) << 1) | (!through_landmark as u64))
    }

    /// Rebuild from a raw key previously obtained via [`Self::key`]
    /// (used by the epoch-stamped memo caches).
    #[inline(always)]
    pub const fn from_key(key: u64) -> Self {
        LandmarkLength(key)
    }

    /// Hop count of the path.
    #[inline(always)]
    pub const fn dist(self) -> Dist {
        (self.0 >> 1) as Dist
    }

    /// True iff the path passes through a landmark other than its source
    /// (terminal vertex included).
    #[inline(always)]
    pub const fn through_landmark(self) -> bool {
        self.0 & 1 == 0
    }

    /// The paper's `⊕` operator: extend the path by an edge of length
    /// `w` (one hop unweighted, its weight on Section 6's weighted
    /// graphs) into a vertex, with `INF` absorbing; the landmark flag is
    /// set if that vertex is a landmark.
    #[inline(always)]
    pub fn extend_by(self, w: Dist, w_is_landmark: bool) -> Self {
        LandmarkLength::new(
            self.dist().saturating_add(w),
            self.through_landmark() | w_is_landmark,
        )
    }

    #[inline(always)]
    pub const fn is_infinite(self) -> bool {
        self.dist() == INF
    }

    /// Raw packed key (used by the bucket queues).
    #[inline(always)]
    pub const fn key(self) -> u64 {
        self.0
    }

    /// Attach a deletion flag, producing an extended landmark length.
    #[inline(always)]
    pub const fn with_deleted(self, deleted: bool) -> ExtLandmarkLength {
        ExtLandmarkLength((self.0 << 1) | (!deleted as u64))
    }
}

impl core::fmt::Debug for LandmarkLength {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.is_infinite() {
            write!(f, "(∞, {})", self.through_landmark())
        } else {
            write!(f, "({}, {})", self.dist(), self.through_landmark())
        }
    }
}

/// A `(distance, landmark-flag, deletion-flag)` triple (Definition 5.16),
/// packed so integer order equals the lexicographic tuple order with
/// `True < False` on both flags.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ExtLandmarkLength(u64);

impl ExtLandmarkLength {
    #[inline(always)]
    pub const fn new(dist: Dist, through_landmark: bool, deleted: bool) -> Self {
        LandmarkLength::new(dist, through_landmark).with_deleted(deleted)
    }

    #[inline(always)]
    pub const fn landmark_length(self) -> LandmarkLength {
        LandmarkLength(self.0 >> 1)
    }

    #[inline(always)]
    pub const fn dist(self) -> Dist {
        self.landmark_length().dist()
    }

    #[inline(always)]
    pub const fn through_landmark(self) -> bool {
        self.landmark_length().through_landmark()
    }

    /// True iff the path passes through a deleted edge.
    #[inline(always)]
    pub const fn deleted(self) -> bool {
        self.0 & 1 == 0
    }

    /// Extend the underlying path by an edge of length `len` into a
    /// vertex, keeping the deletion flag (a deleted edge earlier on the
    /// path stays on the path).
    #[inline(always)]
    pub fn extend_by(self, len: Dist, w_is_landmark: bool) -> Self {
        self.landmark_length()
            .extend_by(len, w_is_landmark)
            .with_deleted(self.deleted())
    }

    /// Sub-bucket index `0..4` for the lexicographic Dial queue: the two
    /// flag bits below the distance, preserving order within a distance
    /// bucket.
    #[inline(always)]
    pub const fn sub_bucket(self) -> usize {
        (self.0 & 0b11) as usize
    }

    #[inline(always)]
    pub const fn key(self) -> u64 {
        self.0
    }
}

impl core::fmt::Debug for ExtLandmarkLength {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "({}, {}, {})",
            self.dist(),
            self.through_landmark(),
            self.deleted()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn landmark_length_order_matches_paper() {
        // Lexicographic with True < False: (3, T) < (3, F) < (4, T).
        let a = LandmarkLength::new(3, true);
        let b = LandmarkLength::new(3, false);
        let c = LandmarkLength::new(4, true);
        assert!(a < b);
        assert!(b < c);
        assert!(a < c);
    }

    #[test]
    fn roundtrip() {
        for d in [0u32, 1, 7, 1000, INF] {
            for l in [false, true] {
                let ll = LandmarkLength::new(d, l);
                assert_eq!(ll.dist(), d);
                assert_eq!(ll.through_landmark(), l);
                for e in [false, true] {
                    let ext = ll.with_deleted(e);
                    assert_eq!(ext.dist(), d);
                    assert_eq!(ext.through_landmark(), l);
                    assert_eq!(ext.deleted(), e);
                    assert_eq!(ext.landmark_length(), ll);
                }
            }
        }
    }

    #[test]
    fn extend_is_the_paper_oplus() {
        let ll = LandmarkLength::new(2, false);
        assert_eq!(ll.extend_by(1, false), LandmarkLength::new(3, false));
        assert_eq!(ll.extend_by(1, true), LandmarkLength::new(3, true));
        // Once through a landmark, always through a landmark.
        let twice = ll.extend_by(1, true).extend_by(1, false);
        assert_eq!(twice, LandmarkLength::new(4, true));
        // INF is absorbing.
        assert!(LandmarkLength::INFINITE.extend_by(1, false).is_infinite());
    }

    #[test]
    fn extended_order_is_lexicographic() {
        // (d, l, e) with True < False on each flag.
        let seq = [
            ExtLandmarkLength::new(2, true, true),
            ExtLandmarkLength::new(2, true, false),
            ExtLandmarkLength::new(2, false, true),
            ExtLandmarkLength::new(2, false, false),
            ExtLandmarkLength::new(3, true, true),
        ];
        for w in seq.windows(2) {
            assert!(w[0] < w[1], "{:?} !< {:?}", w[0], w[1]);
        }
    }

    #[test]
    fn sub_bucket_orders_within_distance() {
        let mut subs: Vec<usize> = [
            ExtLandmarkLength::new(5, true, true),
            ExtLandmarkLength::new(5, true, false),
            ExtLandmarkLength::new(5, false, true),
            ExtLandmarkLength::new(5, false, false),
        ]
        .iter()
        .map(|e| e.sub_bucket())
        .collect();
        let sorted = subs.clone();
        subs.sort_unstable();
        assert_eq!(subs, sorted, "sub-buckets must already be in order");
        assert_eq!(subs, vec![0, 1, 2, 3]);
    }

    #[test]
    fn infinite_is_minimal_at_inf() {
        assert!(LandmarkLength::INFINITE < LandmarkLength::new(INF, false));
        assert!(LandmarkLength::new(100, false) < LandmarkLength::INFINITE);
    }

    #[test]
    fn weighted_extend() {
        let ll = LandmarkLength::new(3, false);
        assert_eq!(ll.extend_by(5, false), LandmarkLength::new(8, false));
        assert_eq!(ll.extend_by(5, true), LandmarkLength::new(8, true));
        assert_eq!(ll.extend_by(1, false), LandmarkLength::new(4, false));
        assert!(LandmarkLength::INFINITE.extend_by(7, false).is_infinite());
    }

    #[test]
    fn from_key_roundtrip() {
        for ll in [
            LandmarkLength::ZERO,
            LandmarkLength::INFINITE,
            LandmarkLength::new(17, true),
            LandmarkLength::new(17, false),
        ] {
            assert_eq!(LandmarkLength::from_key(ll.key()), ll);
        }
    }

    #[test]
    fn beta_comparison_matches_section_5_2() {
        // β(r, v) = (d^L_G(r, v), True). A new (insertion) path with
        // e = False passes `cand ≤ β` iff its landmark length is strictly
        // smaller; a deleted path with e = True passes iff ≤.
        let dl = LandmarkLength::new(4, false);
        let beta = dl.with_deleted(true);
        // Equal landmark length, insertion: pruned.
        assert!(dl.with_deleted(false) > beta);
        // Equal landmark length, deletion: kept.
        assert!(dl.with_deleted(true) <= beta);
        // Strictly smaller landmark length, insertion: kept.
        assert!(LandmarkLength::new(3, false).with_deleted(false) <= beta);
        assert!(LandmarkLength::new(4, true).with_deleted(false) <= beta);
    }
}
