//! Label deltas: what one landmark's repair pass wrote, and the scoped
//! label patches of speculative *what-if* sessions built from them.
//!
//! A repair pass never writes a labelling in place. Landmark `i`'s
//! pass emits one [`RowDelta`]: the final label of every vertex it
//! finalized and the highway entries of row `i` it rewrote. A committed
//! batch hands every landmark's delta to
//! [`crate::Labelling::seal_patched`], which builds the next generation
//! from the published one. A what-if session keeps its deltas in a
//! [`LabelPatch`] instead, and a [`PatchedLabels`] view presents "patch
//! entry if present, else base entry" to the query layer, so the pinned
//! snapshot's labelling is never touched and any number of
//! hypotheticals can share it.
//!
//! The view implements [`LabelView`], so a session runs the one query
//! path of [`crate::query`] unchanged: while its patch is empty the
//! view hands the base's packed rows to the SIMD kernels
//! ([`LabelView::packed_base`]); otherwise the bound code takes its
//! exact loop over the merged entries.
//!
//! The highway follows the row discipline the parallel repair relies
//! on: landmark `i`'s pass is the only writer of highway row `i`, so
//! `highway(i, j)` reads patch row `i`'s entry when it has one and the
//! base otherwise — consistent for every `(i, j)` as long as *all*
//! landmarks were run (the speculative driver always does).

use batchhl_common::{Dist, FxHashMap, Vertex};

use crate::labelling::{LabelView, Labelling, NO_LABEL};

/// What landmark `i`'s repair pass wrote: the final `r_i`-label of
/// every vertex it finalized ([`NO_LABEL`] when the vertex holds none)
/// and every entry `δ_H(r_i, r_j)` of highway row `i` it rewrote, as
/// `(j, distance)`. Entries may restate the old value.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RowDelta {
    pub labels: Vec<(Vertex, Dist)>,
    pub highway: Vec<(usize, Dist)>,
}

impl RowDelta {
    /// The rewritten `δ_H(r_i, r_j)`, if the pass rewrote it.
    #[inline]
    pub fn highway_entry(&self, j: usize) -> Option<Dist> {
        self.highway.iter().find(|&&(k, _)| k == j).map(|&(_, d)| d)
    }
}

/// The deltas of a hypothetical batch, keyed by landmark index. Rows
/// the batch leaves untouched are not stored — the view falls through
/// to the base labelling.
#[derive(Debug, Clone, Default)]
pub struct LabelPatch {
    rows: FxHashMap<usize, RowDelta>,
    n: usize,
}

impl LabelPatch {
    /// An empty patch over `n` vertices (the post-batch vertex count —
    /// at least the base labelling's).
    pub fn new(n: usize) -> Self {
        LabelPatch {
            rows: FxHashMap::default(),
            n,
        }
    }

    /// Record landmark `i`'s delta (its label entries sorted by vertex
    /// for lookup).
    pub fn insert_row(&mut self, i: usize, mut row: RowDelta) {
        row.labels.sort_unstable_by_key(|&(v, _)| v);
        self.rows.insert(i, row);
    }

    /// Landmark `i`'s delta, if the batch touched it.
    #[inline]
    pub fn row(&self, i: usize) -> Option<&RowDelta> {
        self.rows.get(&i)
    }

    /// `true` when the batch changed no rows (queries can use the base
    /// labelling's packed fast paths unchanged).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Number of patched landmark rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// The post-batch vertex count the patch was computed over.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }
}

/// A read view merging a frozen base [`Labelling`] with a
/// [`LabelPatch`]: patch row if present, base row otherwise. `Copy` by
/// design — query code passes it around like the `&Labelling` it
/// stands in for, through the [`LabelView`] trait.
#[derive(Debug, Clone, Copy)]
pub struct PatchedLabels<'a> {
    base: &'a Labelling,
    patch: &'a LabelPatch,
}

impl<'a> PatchedLabels<'a> {
    pub fn new(base: &'a Labelling, patch: &'a LabelPatch) -> Self {
        PatchedLabels { base, patch }
    }
}

impl LabelView for PatchedLabels<'_> {
    #[inline]
    fn num_landmarks(&self) -> usize {
        self.base.num_landmarks()
    }

    /// Landmarks are fixed for the life of a session; vertices the
    /// hypothetical batch grew past the base range are never landmarks.
    #[inline]
    fn landmark_index(&self, v: Vertex) -> Option<usize> {
        if (v as usize) < self.base.num_vertices() {
            self.base.landmark_index(v)
        } else {
            None
        }
    }

    #[inline]
    fn label(&self, i: usize, v: Vertex) -> Dist {
        let patched = self.patch.row(i).and_then(|row| {
            let k = row.labels.binary_search_by_key(&v, |&(x, _)| x).ok()?;
            Some(row.labels[k].1)
        });
        match patched {
            Some(d) => d,
            None if (v as usize) < self.base.num_vertices() => self.base.label(i, v),
            None => NO_LABEL,
        }
    }

    #[inline]
    fn highway(&self, i: usize, j: usize) -> Dist {
        self.patch
            .row(i)
            .and_then(|row| row.highway_entry(j))
            .unwrap_or_else(|| self.base.highway(i, j))
    }

    /// The base's packed rows serve the view only while the patch
    /// is empty and `v` lies inside the base range.
    #[inline]
    fn packed_base(&self, v: Vertex) -> Option<&Labelling> {
        (self.patch.is_empty() && (v as usize) < self.base.num_vertices()).then_some(self.base)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn labelled_path(n: usize) -> Labelling {
        use batchhl_graph::generators::path;
        let g = path(n);
        crate::build_labelling(&g, vec![1, n as Vertex - 1]).unwrap()
    }

    #[test]
    fn empty_patch_view_matches_base() {
        let base = labelled_path(8);
        let patch = LabelPatch::new(base.num_vertices());
        let pl = PatchedLabels::new(&base, &patch);
        // The packed rows serve in range, never past it.
        assert!(pl.packed_base(7).is_some());
        assert!(pl.packed_base(8).is_none());
        for i in 0..base.num_landmarks() {
            for v in 0..8u32 {
                assert_eq!(pl.label(i, v), base.label(i, v));
                assert_eq!(
                    pl.landmark_to_vertex(i, v),
                    base.landmark_to_vertex(i, v),
                    "landmark {i} vertex {v}"
                );
            }
            for j in 0..base.num_landmarks() {
                assert_eq!(pl.highway(i, j), base.highway(i, j));
            }
        }
        for s in 0..8u32 {
            for t in 0..8u32 {
                assert_eq!(
                    crate::upper_bound_pair(&pl, &pl, &pl, s, t),
                    base.upper_bound(s, t),
                    "({s},{t})"
                );
            }
        }
    }

    #[test]
    fn patched_rows_shadow_base_and_out_of_range_reads_are_safe() {
        let base = labelled_path(4);
        let r = base.num_landmarks();
        let n = 6; // hypothetical batch grew the graph by two vertices
        let mut patch = LabelPatch::new(n);
        let row = RowDelta {
            labels: vec![(5, 7), (3, 7)],
            highway: vec![(r - 1, 9)],
        };
        patch.insert_row(0, row);
        let pl = PatchedLabels::new(&base, &patch);
        assert!(
            pl.packed_base(0).is_none(),
            "a patch disables the packed path"
        );
        // Patched entries shadow the base; the rest fall through.
        assert_eq!(pl.label(0, 3), 7);
        assert_eq!(pl.label(0, 5), 7);
        assert_eq!(pl.label(0, 0), base.label(0, 0));
        assert_eq!(pl.label(0, 4), NO_LABEL);
        if r > 1 {
            assert_eq!(pl.highway(0, r - 1), 9);
            assert_eq!(pl.highway(0, 0), 0);
            assert_eq!(pl.highway(r - 1, 0), base.highway(r - 1, 0));
        }
        if r > 1 {
            assert_eq!(pl.label(1, 3), base.label(1, 3));
            // Grown vertices read NO_LABEL from unpatched rows…
            assert_eq!(pl.label(1, 5), NO_LABEL);
        }
        // …and never register as landmarks.
        assert_eq!(pl.landmark_index(5), None);
        assert!(!pl.is_landmark(5));
    }
}
