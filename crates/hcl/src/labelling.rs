//! Labelling storage and the landmark-distance oracle.
//!
//! A [`Labelling`] is the packed vertex-major layout of [`crate::packed`]:
//! per vertex, its labels as ascending landmark ids with width-narrowed
//! distances, plus the width-narrowed `|R| × |R|` highway matrix. That
//! one representation serves every reader: the Eq. 3 scans and SIMD
//! kernels of [`crate::kernel`], the `d^L` oracle batch search and repair
//! read ([`Labelling::landmark_dist`]), and persistence.
//!
//! Labellings are immutable values that share their storage. The packed
//! rows are an `Arc`-shared base plus an overlay, and the landmark map is
//! `Arc`-shared, so a clone costs `O(overlay)`. A batch repair pass never
//! writes a labelling: landmark `i`'s pass emits a sparse
//! [`RowDelta`], and [`Labelling::seal_patched`] builds the next
//! generation from the published one plus every landmark's delta. The
//! deltas of distinct landmarks are write-disjoint, which is what keeps
//! the landmark-level parallelism of BHLₚ lock-free. Construction fills
//! dense landmark-major scratch rows (threads own disjoint rows), packs
//! them once ([`Labelling::from_parts`]) and drops them.
//!
//! The *logical* labelling — the set of `(landmark, dist)` pairs — is
//! exactly the paper's minimal highway cover labelling; sizes are
//! reported over logical entries.

use crate::packed::{PackedHighway, PackedIndex, PackedLabels, PackedRow};
use crate::patch::RowDelta;
use batchhl_common::{Dist, LandmarkLength, Vertex, INF};
use batchhl_graph::CompactionPolicy;
use std::fmt;
use std::sync::Arc;

/// Sentinel stored in a label row when the vertex holds no label for
/// that landmark (either unreachable or covered via another landmark).
pub const NO_LABEL: Dist = INF;

/// Sentinel in the vertex → landmark-index map.
const NOT_LANDMARK: u16 = u16::MAX;

/// Why a labelling could not be constructed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LabelError {
    /// More landmarks than the `u16` landmark index can address.
    TooManyLandmarks { count: usize, max: usize },
    /// A landmark id is not a vertex of the graph.
    LandmarkOutOfBounds {
        landmark: Vertex,
        num_vertices: usize,
    },
    /// The same vertex appears twice in the landmark list.
    DuplicateLandmark { landmark: Vertex },
    /// Externally supplied label rows / highway matrix have the wrong
    /// dimensions for the declared `n` and landmark count.
    ShapeMismatch {
        what: &'static str,
        expected: usize,
        found: usize,
    },
    /// A labelling loaded from external parts covers a different vertex
    /// set than the graph it is paired with.
    VertexCountMismatch { labelling: usize, graph: usize },
    /// A loaded highway matrix has a nonzero diagonal entry.
    CorruptHighwayDiagonal { index: usize },
}

impl fmt::Display for LabelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            LabelError::TooManyLandmarks { count, max } => {
                write!(f, "too many landmarks: {count} (max {max})")
            }
            LabelError::LandmarkOutOfBounds {
                landmark,
                num_vertices,
            } => write!(
                f,
                "landmark {landmark} out of bounds (graph has {num_vertices} vertices)"
            ),
            LabelError::DuplicateLandmark { landmark } => {
                write!(f, "duplicate landmark {landmark}")
            }
            LabelError::ShapeMismatch {
                what,
                expected,
                found,
            } => write!(f, "{what}: expected {expected} entries, found {found}"),
            LabelError::VertexCountMismatch { labelling, graph } => write!(
                f,
                "labelling covers {labelling} vertices, graph has {graph}"
            ),
            LabelError::CorruptHighwayDiagonal { index } => {
                write!(f, "highway diagonal {index} is nonzero")
            }
        }
    }
}

impl std::error::Error for LabelError {}

/// Validate a landmark list against `n` and build the inverse
/// vertex → landmark-index map (shared by the constructors and by
/// construction's scratch rows).
pub(crate) fn index_landmarks(n: usize, landmarks: &[Vertex]) -> Result<Vec<u16>, LabelError> {
    let r = landmarks.len();
    if r >= NOT_LANDMARK as usize {
        return Err(LabelError::TooManyLandmarks {
            count: r,
            max: NOT_LANDMARK as usize - 1,
        });
    }
    let mut lm_index = vec![NOT_LANDMARK; n];
    for (i, &v) in landmarks.iter().enumerate() {
        if (v as usize) >= n {
            return Err(LabelError::LandmarkOutOfBounds {
                landmark: v,
                num_vertices: n,
            });
        }
        if lm_index[v as usize] != NOT_LANDMARK {
            return Err(LabelError::DuplicateLandmark { landmark: v });
        }
        lm_index[v as usize] = i as u16;
    }
    Ok(lm_index)
}

/// Read access to a labelling, as the Section 4 query path sees it.
///
/// Implemented by [`Labelling`] and by the what-if merge view
/// [`crate::patch::PatchedLabels`]; the Eq. 3 bound code and the query
/// functions of [`crate::query`] are generic over it, so a hypothetical
/// is answered by the same code as a committed generation.
pub trait LabelView {
    fn num_landmarks(&self) -> usize;

    /// Landmark index of `v`, if it is one.
    fn landmark_index(&self, v: Vertex) -> Option<usize>;

    #[inline]
    fn is_landmark(&self, v: Vertex) -> bool {
        self.landmark_index(v).is_some()
    }

    /// The `r_i`-label of `v` ([`NO_LABEL`] if absent).
    fn label(&self, i: usize, v: Vertex) -> Dist;

    /// Highway distance `δ_H(r_i, r_j)`.
    fn highway(&self, i: usize, j: usize) -> Dist;

    /// Exact `d_G(r_i, v)` recovered from the labels (Eq. 2): the label
    /// if present, otherwise the best label + highway detour.
    fn landmark_to_vertex(&self, i: usize, v: Vertex) -> Dist {
        if let Some(j) = self.landmark_index(v) {
            return if i == j { 0 } else { self.highway(i, j) };
        }
        let lab = self.label(i, v);
        if lab != NO_LABEL {
            return lab;
        }
        let mut best = u64::from(INF);
        for k in 0..self.num_landmarks() {
            let lk = self.label(k, v);
            let h = self.highway(i, k);
            if lk != NO_LABEL && h != INF {
                best = best.min(u64::from(lk) + u64::from(h));
            }
        }
        best.min(u64::from(INF)) as Dist
    }

    /// Escape hook to the packed/SIMD kernels: the base labelling when
    /// its packed rows answer for `v` exactly as this view does,
    /// `None` when the caller must take the exact loop over this view.
    fn packed_base(&self, v: Vertex) -> Option<&Labelling>;
}

impl LabelView for Labelling {
    #[inline]
    fn num_landmarks(&self) -> usize {
        Labelling::num_landmarks(self)
    }

    #[inline]
    fn landmark_index(&self, v: Vertex) -> Option<usize> {
        Labelling::landmark_index(self, v)
    }

    #[inline]
    fn is_landmark(&self, v: Vertex) -> bool {
        Labelling::is_landmark(self, v)
    }

    #[inline]
    fn label(&self, i: usize, v: Vertex) -> Dist {
        Labelling::label(self, i, v)
    }

    #[inline]
    fn highway(&self, i: usize, j: usize) -> Dist {
        Labelling::highway(self, i, j)
    }

    #[inline]
    fn landmark_to_vertex(&self, i: usize, v: Vertex) -> Dist {
        Labelling::landmark_to_vertex(self, i, v)
    }

    #[inline]
    fn packed_base(&self, _v: Vertex) -> Option<&Labelling> {
        Some(self)
    }
}

/// A highway cover labelling `Γ = (H, L)`, stored packed (see the
/// module docs). Equality is logical: two labellings are equal when they
/// have the same landmarks, vertex range, rows and highway, however each
/// splits its rows between base and overlay.
#[derive(Debug, Clone)]
pub struct Labelling {
    /// Landmarks in selection order; `landmarks[i]` is the vertex id of
    /// landmark `i`.
    landmarks: Arc<[Vertex]>,
    /// Inverse map over the vertices the labelling was built with:
    /// `lm_index[v] == i` iff `landmarks[i] == v`. Vertices added later
    /// are never landmarks, so growth leaves it as it is.
    lm_index: Arc<[u16]>,
    packed: PackedIndex,
}

impl PartialEq for Labelling {
    fn eq(&self, other: &Self) -> bool {
        // `lm_index` is derived from the landmarks; its length records
        // only the range the labelling was built over.
        self.landmarks == other.landmarks && self.packed == other.packed
    }
}

impl Eq for Labelling {}

/// A row-major `r × r` highway with a zero diagonal and `INF` elsewhere.
fn unlinked_highway(r: usize) -> Vec<Dist> {
    let mut highway = vec![INF; r * r];
    for i in 0..r {
        highway[i * r + i] = 0;
    }
    highway
}

/// Merge `old`'s entries with the `(landmark, label)` deltas of one
/// vertex (ascending, [`NO_LABEL`] removing an entry) into `ids`/`dists`.
fn merge_row(old: PackedRow<'_>, delta: &[(u16, Dist)], ids: &mut Vec<u16>, dists: &mut Vec<Dist>) {
    let (mut a, mut b) = (0, 0);
    while a < old.len() || b < delta.len() {
        let from_old = old.ids.get(a).copied().unwrap_or(u16::MAX);
        let from_delta = delta.get(b).map_or(u16::MAX, |&(i, _)| i);
        if from_old < from_delta {
            ids.push(from_old);
            dists.push(old.dists.get(a));
            a += 1;
        } else {
            if delta[b].1 != NO_LABEL {
                ids.push(from_delta);
                dists.push(delta[b].1);
            }
            a += usize::from(from_old == from_delta);
            b += 1;
        }
    }
}

impl Labelling {
    /// An empty labelling (no labels, infinite highway) over `n`
    /// vertices with the given landmarks.
    ///
    /// Fails if there are more landmarks than the `u16` index can
    /// address, a landmark id is `>= n`, or a landmark repeats.
    pub fn empty(n: usize, landmarks: Vec<Vertex>) -> Result<Self, LabelError> {
        let lm_index = index_landmarks(n, &landmarks)?;
        let r = landmarks.len();
        Ok(Labelling {
            packed: PackedIndex {
                labels: PackedLabels::empty(r, n),
                highway: PackedHighway::from_dense(r, &unlinked_highway(r)),
            },
            landmarks: landmarks.into(),
            lm_index: lm_index.into(),
        })
    }

    /// Assemble a labelling from dense landmark-major parts — one label
    /// row per landmark, each of length `n`, [`NO_LABEL`] marking absent
    /// entries, and a row-major `r × r` highway matrix — packing them
    /// once. Construction and the legacy `BHL1` loader build this way.
    ///
    /// Validates the landmark set exactly like [`Labelling::empty`],
    /// checks every dimension against `n`/`r`, and requires a zero
    /// highway diagonal — loaders get a typed error instead of an index
    /// that panics later.
    pub fn from_parts(
        n: usize,
        landmarks: Vec<Vertex>,
        rows: Vec<Box<[Dist]>>,
        highway: Vec<Dist>,
    ) -> Result<Self, LabelError> {
        let r = landmarks.len();
        if rows.len() != r {
            return Err(LabelError::ShapeMismatch {
                what: "label row count",
                expected: r,
                found: rows.len(),
            });
        }
        if let Some(row) = rows.iter().find(|row| row.len() != n) {
            return Err(LabelError::ShapeMismatch {
                what: "label row length",
                expected: n,
                found: row.len(),
            });
        }
        Labelling::from_packed(landmarks, PackedLabels::from_dense(n, &rows), &highway)
    }

    /// Assemble a labelling from already packed rows and a row-major
    /// highway matrix (the `BHL3` loader), validating like
    /// [`Labelling::from_parts`].
    pub(crate) fn from_packed(
        landmarks: Vec<Vertex>,
        labels: PackedLabels,
        highway: &[Dist],
    ) -> Result<Self, LabelError> {
        let lm_index = index_landmarks(labels.num_vertices(), &landmarks)?;
        let r = landmarks.len();
        if highway.len() != r * r {
            return Err(LabelError::ShapeMismatch {
                what: "highway matrix",
                expected: r * r,
                found: highway.len(),
            });
        }
        if let Some(i) = (0..r).find(|&i| highway[i * r + i] != 0) {
            return Err(LabelError::CorruptHighwayDiagonal { index: i });
        }
        Ok(Labelling {
            packed: PackedIndex {
                labels,
                highway: PackedHighway::from_dense(r, highway),
            },
            landmarks: landmarks.into(),
            lm_index: lm_index.into(),
        })
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.packed.labels.num_vertices()
    }

    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.landmarks.len()
    }

    #[inline]
    pub fn landmarks(&self) -> &[Vertex] {
        &self.landmarks
    }

    #[inline]
    pub fn landmark_vertex(&self, i: usize) -> Vertex {
        self.landmarks[i]
    }

    /// Landmark index of `v`, if it is one.
    #[inline]
    pub fn landmark_index(&self, v: Vertex) -> Option<usize> {
        match self.lm_index.get(v as usize) {
            Some(&i) if i != NOT_LANDMARK => Some(i as usize),
            _ => None,
        }
    }

    #[inline]
    pub fn is_landmark(&self, v: Vertex) -> bool {
        self.landmark_index(v).is_some()
    }

    /// The `r_i`-label of `v` ([`NO_LABEL`] if absent).
    #[inline]
    pub fn label(&self, i: usize, v: Vertex) -> Dist {
        let row = self.packed.labels.row(v);
        row.position(i).map_or(NO_LABEL, |k| row.dists.get(k))
    }

    /// Highway distance `δ_H(r_i, r_j)`.
    #[inline]
    pub fn highway(&self, i: usize, j: usize) -> Dist {
        self.packed.highway.get(i, j)
    }

    /// Set one label entry ([`NO_LABEL`] removes it): a convenience for
    /// hand-built labellings (tests, tools) that patches one packed row.
    /// Batch repair goes through [`Labelling::seal_patched`] with every
    /// landmark's delta at once.
    pub fn set_label(&mut self, i: usize, v: Vertex, d: Dist) {
        self.edit(
            i,
            RowDelta {
                labels: vec![(v, d)],
                highway: Vec::new(),
            },
        );
    }

    /// Write one directed highway entry `δ_H(r_i, r_j) ← d` (see
    /// [`Labelling::set_label`]; [`Labelling::set_highway_sym`] writes
    /// both directions).
    pub fn set_highway_row(&mut self, i: usize, j: usize, d: Dist) {
        self.edit(
            i,
            RowDelta {
                labels: Vec::new(),
                highway: vec![(j, d)],
            },
        );
    }

    /// Write a symmetric highway entry.
    pub fn set_highway_sym(&mut self, i: usize, j: usize, d: Dist) {
        self.set_highway_row(i, j, d);
        self.set_highway_row(j, i, d);
    }

    fn edit(&mut self, i: usize, delta: RowDelta) {
        let mut deltas = vec![RowDelta::default(); self.num_landmarks()];
        deltas[i] = delta;
        *self = self.seal_patched(&deltas, CompactionPolicy::default());
    }

    /// Exact `d_G(r_i, v)` recovered from the labelling (Eq. 2):
    /// the label if present, otherwise the best label + highway detour.
    pub fn landmark_to_vertex(&self, i: usize, v: Vertex) -> Dist {
        self.landmark_dist(i, v).dist()
    }

    /// The landmark-distance oracle `d^L_G(r_i, v)` (Definition 5.13):
    /// exact distance plus the flag recording whether *some* shortest
    /// `r_i`–`v` path passes through another landmark. Derived purely
    /// from the labelling, in one scan of `v`'s packed row:
    ///
    /// * `v = r_i` → `(0, false)`;
    /// * `v` another landmark → `(δ_H(r_i, v), true)` (the path
    ///   terminates in a landmark);
    /// * `v` holds an `r_i`-label → `(label, false)` (minimality:
    ///   the label exists iff no shortest path is landmark-covered);
    /// * otherwise → `(min_k label_k(v) + δ_H(r_i, r_k), true)`,
    ///   infinite when unreachable.
    pub fn landmark_dist(&self, i: usize, v: Vertex) -> LandmarkLength {
        if let Some(j) = self.landmark_index(v) {
            return if i == j {
                LandmarkLength::ZERO
            } else {
                LandmarkLength::new(self.highway(i, j), true)
            };
        }
        let row = self.packed.labels.row(v);
        if let Some(k) = row.position(i) {
            return LandmarkLength::new(row.dists.get(k), false);
        }
        let highway = self.packed.highway.row(i);
        let mut best = INF as u64;
        for (k, &id) in row.ids.iter().enumerate() {
            let h = highway.get_exact(id as usize);
            if h != INF {
                best = best.min(row.dists.get(k) as u64 + h as u64);
            }
        }
        if best >= INF as u64 {
            LandmarkLength::INFINITE
        } else {
            LandmarkLength::new(best as Dist, true)
        }
    }

    /// The upper bound `d⊤(s, t)` of Eq. 3: the length of the best
    /// `s → r_i → r_j → t` route through the highway, `INF` if none.
    /// `O(|L(s)|·|L(t)|)` over logical entries.
    pub fn upper_bound(&self, s: Vertex, t: Vertex) -> Dist {
        crate::query::upper_bound_pair(self, self, self, s, t)
    }

    /// The packed rows and highway (see [`crate::packed`]).
    #[inline]
    pub fn packed(&self) -> &PackedIndex {
        &self.packed
    }

    /// The next generation: this labelling with landmark `i`'s repair
    /// delta `deltas[i]` applied for every `i`. The cells are grouped per
    /// row by a counting sort over a bitmap of the touched rows, without
    /// sorting the `Σ|A_i|` cells; each touched row is merged once with
    /// its cells, and only rows whose entries actually change are
    /// re-packed. The highway is re-narrowed when a delta rewrote it.
    /// `O(Σ|A_i| + touched rows·|R| + |R|²)` plus the overlay index
    /// merge, or `O(n + entries)` when the overlay crosses `policy` and
    /// is compacted (see [`crate::packed`]). `self` must cover every
    /// vertex the deltas name ([`Labelling::ensure_vertices`]).
    pub fn seal_patched(&self, deltas: &[RowDelta], policy: CompactionPolicy) -> Labelling {
        let (n, r) = (self.num_vertices(), self.num_landmarks());
        let highway = if deltas.iter().all(|d| d.highway.is_empty()) {
            self.packed.highway.clone()
        } else {
            let mut dense = self.packed.highway.to_dense();
            for (i, delta) in deltas.iter().enumerate() {
                for &(j, h) in &delta.highway {
                    dense[i * r + j] = h;
                }
            }
            PackedHighway::from_dense(r, &dense)
        };
        // The rows the deltas touch, marked in a bitmap: it hands them
        // back ascending and distinct, and ranks each one in O(1).
        let mut mark = vec![0u64; n.div_ceil(64)];
        for delta in deltas {
            for &(v, _) in &delta.labels {
                mark[(v >> 6) as usize] |= 1u64 << (v & 63);
            }
        }
        let mut rank = Vec::with_capacity(mark.len());
        let mut touched: Vec<Vertex> = Vec::new();
        for (w, &bits) in mark.iter().enumerate() {
            rank.push(touched.len());
            let mut bits = bits;
            while bits != 0 {
                touched.push((w * 64) as Vertex + bits.trailing_zeros());
                bits &= bits - 1;
            }
        }
        let rank_of = |v: Vertex| {
            let w = (v >> 6) as usize;
            rank[w] + (mark[w] & ((1u64 << (v & 63)) - 1)).count_ones() as usize
        };
        // Counting sort of the cells by row; each row's cells stay in
        // landmark order, i.e. ascending by id.
        let mut start = vec![0usize; touched.len() + 1];
        for delta in deltas {
            for &(v, _) in &delta.labels {
                start[rank_of(v) + 1] += 1;
            }
        }
        for k in 0..touched.len() {
            start[k + 1] += start[k];
        }
        let mut next = start.clone();
        let mut grouped = vec![(0u16, 0 as Dist); start[touched.len()]];
        for (i, delta) in deltas.iter().enumerate() {
            for &(v, d) in &delta.labels {
                let k = rank_of(v);
                grouped[next[k]] = (i as u16, d);
                next[k] += 1;
            }
        }
        // Merge each touched row with its cells, keeping the rows that
        // actually change (repair restates many entries unchanged).
        let old = &self.packed.labels;
        let (mut changed, mut spans) = (Vec::new(), Vec::new());
        let (mut ids, mut dists) = (Vec::new(), Vec::new());
        for (k, &v) in touched.iter().enumerate() {
            let row = old.row(v);
            let lo = ids.len();
            merge_row(row, &grouped[start[k]..start[k + 1]], &mut ids, &mut dists);
            let same =
                ids[lo..] == *row.ids && (0..row.len()).all(|e| dists[lo + e] == row.dists.get(e));
            if same {
                ids.truncate(lo);
                dists.truncate(lo);
            } else {
                changed.push(v);
                spans.push((lo, ids.len()));
            }
        }
        let labels = old.patched(n, &changed, policy, |k, _, row_ids, row_dists| {
            let (lo, hi) = spans[k];
            row_ids.extend_from_slice(&ids[lo..hi]);
            row_dists.extend_from_slice(&dists[lo..hi]);
        });
        Labelling {
            landmarks: Arc::clone(&self.landmarks),
            lm_index: Arc::clone(&self.lm_index),
            packed: PackedIndex { labels, highway },
        }
    }

    /// Always `true`: the packed rows are the labelling, so there is no
    /// mirror left to seal. Kept for callers that report what is
    /// resident.
    pub fn packed_is_sealed(&self) -> bool {
        true
    }

    /// Resident bytes of a dense landmark-major copy of the labels:
    /// always 0, since a labelling no longer keeps one (construction's
    /// dense scratch rows are dropped once packed). Kept for callers
    /// that report what is resident.
    pub fn dense_resident_bytes(&self) -> usize {
        0
    }

    /// Logical label entries of one vertex, `(landmark index, dist)`.
    pub fn label_entries(&self, v: Vertex) -> impl Iterator<Item = (usize, Dist)> + '_ {
        let row = self.packed.labels.row(v);
        (0..row.len()).map(move |k| {
            let (i, d) = row.entry(k);
            (i as usize, d)
        })
    }

    /// Total number of logical label entries, `Σ_v |L(v)|`.
    pub fn size_entries(&self) -> usize {
        self.packed.labels.num_entries()
    }

    /// Average label size per vertex.
    pub fn avg_label_size(&self) -> f64 {
        if self.num_vertices() == 0 {
            0.0
        } else {
            self.size_entries() as f64 / self.num_vertices() as f64
        }
    }

    /// Logical size in bytes: entries as `(u16 landmark, u32 dist)`
    /// pairs plus the highway matrix. This is the quantity Table 4's
    /// "Labelling Size" column reports.
    pub fn size_bytes(&self) -> usize {
        self.size_entries() * (2 + 4) + self.landmarks.len() * self.landmarks.len() * 4
    }

    /// Grow the vertex set (new vertices carry no labels).
    pub fn ensure_vertices(&mut self, n: usize) {
        self.packed.labels.ensure_vertices(n);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Labelling {
        // 6 vertices, landmarks 0 and 3.
        let mut l = Labelling::empty(6, vec![0, 3]).unwrap();
        l.set_highway_sym(0, 1, 2);
        l.set_label(0, 1, 1); // d(0,1)=1, not covered
        l.set_label(0, 2, 1);
        l.set_label(1, 2, 1); // vertex 2 adjacent to both landmarks
        l.set_label(1, 4, 1);
        l
    }

    #[test]
    fn landmark_bookkeeping() {
        let l = sample();
        assert_eq!(l.num_landmarks(), 2);
        assert_eq!(l.landmark_index(0), Some(0));
        assert_eq!(l.landmark_index(3), Some(1));
        assert_eq!(l.landmark_index(2), None);
        assert!(l.is_landmark(3));
        assert_eq!(l.landmark_vertex(1), 3);
    }

    #[test]
    fn constructor_rejects_invalid_landmark_sets() {
        assert_eq!(
            Labelling::empty(4, vec![1, 1]),
            Err(LabelError::DuplicateLandmark { landmark: 1 })
        );
        assert_eq!(
            Labelling::empty(4, vec![9]),
            Err(LabelError::LandmarkOutOfBounds {
                landmark: 9,
                num_vertices: 4
            })
        );
        let too_many: Vec<Vertex> = (0..u16::MAX as u32).collect();
        assert_eq!(
            Labelling::empty(u16::MAX as usize, too_many),
            Err(LabelError::TooManyLandmarks {
                count: u16::MAX as usize,
                max: u16::MAX as usize - 1
            })
        );
        assert!(Labelling::empty(4, vec![1, 3]).is_ok());
    }

    #[test]
    fn highway_diagonal_is_zero() {
        let l = sample();
        assert_eq!(l.highway(0, 0), 0);
        assert_eq!(l.highway(1, 1), 0);
        assert_eq!(l.highway(0, 1), 2);
        assert_eq!(l.highway(1, 0), 2);
    }

    #[test]
    fn landmark_dist_cases() {
        let l = sample();
        use batchhl_common::LandmarkLength as LL;
        // Self.
        assert_eq!(l.landmark_dist(0, 0), LL::ZERO);
        // Other landmark: highway distance, flag set.
        assert_eq!(l.landmark_dist(0, 3), LL::new(2, true));
        // Labelled vertex: label distance, flag clear.
        assert_eq!(l.landmark_dist(0, 1), LL::new(1, false));
        // Covered vertex: label of the other landmark + highway.
        assert_eq!(l.landmark_dist(0, 4), LL::new(3, true));
        // Unreachable vertex.
        assert_eq!(l.landmark_dist(0, 5), LL::INFINITE);
        assert_eq!(l.landmark_to_vertex(0, 5), INF);
    }

    #[test]
    fn upper_bound_routes_through_highway() {
        let l = sample();
        // 1 → r0 → r1 → 4 : 1 + 2 + 1 = 4.
        assert_eq!(l.upper_bound(1, 4), 4);
        // 2 has labels to both landmarks: 2 → r1 → 4 gives 1 + 0 + 1.
        assert_eq!(l.upper_bound(2, 4), 2);
        // No labels on 5.
        assert_eq!(l.upper_bound(1, 5), INF);
    }

    #[test]
    fn sizes_count_logical_entries() {
        let l = sample();
        assert_eq!(l.size_entries(), 4);
        assert!((l.avg_label_size() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(l.size_bytes(), 4 * 6 + 4 * 4);
        let entries: Vec<_> = l.label_entries(2).collect();
        assert_eq!(entries, vec![(0, 1), (1, 1)]);
    }

    #[test]
    fn ensure_vertices_extends_rows() {
        let mut l = sample();
        l.ensure_vertices(10);
        assert_eq!(l.num_vertices(), 10);
        assert_eq!(l.label(0, 9), NO_LABEL);
        assert_eq!(l.landmark_index(9), None);
        // Old content survives.
        assert_eq!(l.label(0, 1), 1);
    }

    #[test]
    fn seal_patched_follows_the_changed_rows() {
        let mut old = sample();
        old.ensure_vertices(8);
        let deltas = [
            RowDelta {
                // A real change, and a removal.
                labels: vec![(4, 2), (1, NO_LABEL)],
                highway: vec![(1, 3)],
            },
            RowDelta {
                // Rewritten to the same value; a grown vertex gains a label.
                labels: vec![(2, 1), (7, 3)],
                highway: Vec::new(),
            },
        ];
        let keep = CompactionPolicy::new(1.0e6, usize::MAX);
        let new = old.seal_patched(&deltas, keep);
        assert_eq!(new.label(0, 4), 2);
        assert_eq!(new.label(0, 1), NO_LABEL);
        assert_eq!(new.label(1, 2), 1);
        assert_eq!(new.label(1, 7), 3);
        assert_eq!(new.label(1, 4), 1, "untouched entry kept");
        assert_eq!((new.highway(0, 1), new.highway(1, 0)), (3, 2));
        assert_eq!(new.size_entries(), old.size_entries() + 1);
        // Only the rows whose entries differ (1, 4 and 7) were re-packed:
        // 0, 2 and 1 entries.
        let grew = new.packed().labels.overlay_entries() - old.packed().labels.overlay_entries();
        assert_eq!(grew, 3);
        assert_eq!(new.packed(), &PackedIndex::build(&new));
        // The predecessor is untouched (it is what readers still hold).
        assert_eq!(old.label(0, 4), NO_LABEL);
        assert_eq!(old.label(0, 1), 1);
    }

    #[test]
    fn equality_ignores_the_packed_cache() {
        // The same logical labelling held as base + overlay and as one
        // compacted base compares equal.
        let a = sample();
        let b = Labelling::from_parts(
            6,
            vec![0, 3],
            (0..2)
                .map(|i| (0..6).map(|v| a.label(i, v)).collect())
                .collect(),
            vec![0, 2, 2, 0],
        )
        .unwrap();
        assert!(a.packed().labels.overlay_entries() > 0);
        assert_eq!(b.packed().labels.overlay_entries(), 0);
        assert_eq!(a, b);
        assert!(a.packed_is_sealed());
        assert_eq!(a.dense_resident_bytes(), 0);
        let mut c = b.clone();
        c.set_label(1, 5, 4);
        assert_ne!(b, c);
    }
}
