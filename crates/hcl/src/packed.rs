//! The packed label layout: the one representation of a labelling.
//!
//! Queries read *one vertex's* labels across all landmarks, and so do
//! the `d^L` lookups of batch search and repair. A [`crate::Labelling`]
//! therefore stores its labels vertex-major:
//!
//! * [`PackedLabels`] — a CSR over logical label entries: per vertex,
//!   its landmark ids (`u16`, ascending) and its distances narrowed to
//!   the smallest width tier the row needs (`u8`/`u16`, with a `u32`
//!   escape). Most real-world hop distances fit a byte, so a typical
//!   entry costs ~3 bytes instead of a dense landmark-major layout's
//!   amortized `4·|R| / avg|L(v)|`.
//! * [`PackedHighway`] — the `|R| × |R|` highway matrix narrowed to one
//!   width tier for the whole matrix, rows contiguous (each row is the
//!   cache block the `via` accumulation streams through), `T::MAX`
//!   encoding the unreachable sentinel.
//!
//! A [`PackedLabels`] is a base CSR plus an overlay of re-packed rows,
//! both shared between generations behind `Arc`s. Each new generation
//! is the previous one patched with the rows a repair pass changed
//! ([`crate::Labelling::seal_patched`]): only those rows are packed
//! again, into one new chunk, and the highway is re-narrowed when it
//! changed. Once the overlay plus that chunk crosses the
//! [`CompactionPolicy`] that also bounds the CSR adjacency overlay, base,
//! overlay and chunk are copied into a fresh base.
//! Construction and loads pack every row once into a fresh base.
//!
//! # Width tiers
//!
//! Tier selection reserves `T::MAX` in every narrow tier (a row whose
//! largest distance is 255 is promoted to `u16`), so the sentinel value
//! never collides with data. Rows whose largest distance exceeds
//! [`CLAMP_SAFE_MAX`] take tier 8, the `u32` escape; both `u32` tiers
//! store raw `u32`s and differ only in the tier byte a `BHL3` checkpoint
//! records. Every reader widens a stored distance to its exact value,
//! so the Eq. 3 code of [`crate::query`] never sees a tier.

use crate::labelling::{Labelling, NO_LABEL};
use batchhl_common::{Dist, OverlayIndex, Vertex, INF};
use batchhl_graph::CompactionPolicy;
use std::sync::Arc;

/// The boundary between the `BHL3` checkpoint's `u32` row tiers: a row
/// whose distances all sit at or below it is tier 4, a row with a larger
/// one is tier 8. The value, `2^29 / 3 − 1`, is part of the checkpoint
/// format: the tier bytes of rows written before must read back the same.
/// Batch admission also refuses edge weights at or above it.
pub const CLAMP_SAFE_MAX: u32 = (1 << 29) / 3 - 1;

/// Distance width tier of one packed label row: bytes per distance,
/// with `8` marking the `u32` escape for values above [`CLAMP_SAFE_MAX`].
pub const TIER_U8: u8 = 1;
pub const TIER_U16: u8 = 2;
pub const TIER_U32: u8 = 4;
pub const TIER_U32_EXACT: u8 = 8;

/// Bytes per stored distance for a tier byte.
#[inline]
pub fn tier_width(tier: u8) -> usize {
    if tier == TIER_U32_EXACT {
        4
    } else {
        tier as usize
    }
}

/// A borrowed slice of width-narrowed distances (one label row's
/// payload, or one highway row).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NarrowSlice<'a> {
    U8(&'a [u8]),
    U16(&'a [u16]),
    U32(&'a [u32]),
}

impl<'a> NarrowSlice<'a> {
    #[inline]
    pub fn len(&self) -> usize {
        match self {
            NarrowSlice::U8(s) => s.len(),
            NarrowSlice::U16(s) => s.len(),
            NarrowSlice::U32(s) => s.len(),
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Widen entry `k` without sentinel mapping (label-row payloads:
    /// tier selection guarantees `T::MAX` never appears as data).
    #[inline]
    pub fn get(&self, k: usize) -> Dist {
        match self {
            NarrowSlice::U8(s) => s[k] as Dist,
            NarrowSlice::U16(s) => s[k] as Dist,
            NarrowSlice::U32(s) => s[k],
        }
    }

    /// Widen entry `k`, mapping the tier sentinel `T::MAX` to [`INF`]
    /// (highway rows, where unreachable pairs are stored as sentinel).
    #[inline]
    pub fn get_exact(&self, k: usize) -> Dist {
        match self {
            NarrowSlice::U8(s) => {
                let v = s[k];
                if v == u8::MAX {
                    INF
                } else {
                    v as Dist
                }
            }
            NarrowSlice::U16(s) => {
                let v = s[k];
                if v == u16::MAX {
                    INF
                } else {
                    v as Dist
                }
            }
            NarrowSlice::U32(s) => s[k],
        }
    }
}

/// One vertex's packed label row: landmark ids ascending, distances in
/// the row's width tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PackedRow<'a> {
    pub ids: &'a [u16],
    pub dists: NarrowSlice<'a>,
    tier: u8,
}

/// The row of a vertex that holds no labels.
const EMPTY_ROW: PackedRow<'static> = PackedRow {
    ids: &[],
    dists: NarrowSlice::U8(&[]),
    tier: TIER_U8,
};

impl PackedRow<'_> {
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The slot of landmark `i`'s entry, if the row holds one (ids
    /// ascend, so the scan stops at the first larger id).
    #[inline]
    pub fn position(&self, i: usize) -> Option<usize> {
        for (k, &id) in self.ids.iter().enumerate() {
            if id as usize >= i {
                return (id as usize == i).then_some(k);
            }
        }
        None
    }

    /// Entry `k` as `(landmark index, exact distance)`.
    #[inline]
    pub fn entry(&self, k: usize) -> (u16, Dist) {
        (self.ids[k], self.dists.get(k))
    }

    /// The row's width tier.
    #[inline]
    pub fn tier(&self) -> u8 {
        self.tier
    }

    /// Bytes of narrowed distance payload in this row.
    #[inline]
    fn dist_bytes(&self) -> usize {
        self.len() * tier_width(self.tier())
    }
}

/// Pick the width tier for one row's maximum finite distance. Both `u32`
/// tiers serialize 4 bytes wide; only the tier byte differs.
#[inline]
fn tier_for_max(max: Dist) -> u8 {
    if max < u8::MAX as Dist {
        TIER_U8
    } else if max < u16::MAX as Dist {
        TIER_U16
    } else if max <= CLAMP_SAFE_MAX {
        TIER_U32
    } else {
        TIER_U32_EXACT
    }
}

/// Append-only packed rows: slot `k` is `ids[offsets[k]..offsets[k+1]]`
/// with its distances at `dist_start[k]` in the blob of its tier. The
/// base of a [`PackedLabels`] holds vertex `v` in slot `v`; an overlay
/// chunk holds the rows of one patch in vertex order.
#[derive(Debug)]
pub(crate) struct Rows {
    offsets: Vec<u32>,
    ids: Vec<u16>,
    tiers: Vec<u8>,
    dist_start: Vec<u32>,
    d8: Vec<u8>,
    d16: Vec<u16>,
    d32: Vec<u32>,
}

impl Rows {
    /// Room for `rows` rows whose distances fill the `u8`, `u16` and
    /// `u32` blobs to `blobs`.
    fn with_capacity(rows: usize, blobs: [usize; 3]) -> Self {
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0);
        Rows {
            offsets,
            ids: Vec::with_capacity(blobs.iter().sum()),
            tiers: Vec::with_capacity(rows),
            dist_start: Vec::with_capacity(rows),
            d8: Vec::with_capacity(blobs[0]),
            d16: Vec::with_capacity(blobs[1]),
            d32: Vec::with_capacity(blobs[2]),
        }
    }

    #[inline]
    fn len(&self) -> usize {
        self.tiers.len()
    }

    #[inline]
    fn row(&self, k: usize) -> PackedRow<'_> {
        let lo = self.offsets[k] as usize;
        let hi = self.offsets[k + 1] as usize;
        let ds = self.dist_start[k] as usize;
        let de = ds + (hi - lo);
        let tier = self.tiers[k];
        let dists = match tier {
            TIER_U8 => NarrowSlice::U8(&self.d8[ds..de]),
            TIER_U16 => NarrowSlice::U16(&self.d16[ds..de]),
            _ => NarrowSlice::U32(&self.d32[ds..de]),
        };
        PackedRow {
            ids: &self.ids[lo..hi],
            dists,
            tier,
        }
    }

    /// Append a row given as ascending landmark ids and exact distances,
    /// narrowed to the smallest tier its largest distance allows.
    pub(crate) fn push(&mut self, ids: &[u16], dists: &[Dist]) {
        let tier = tier_for_max(dists.iter().copied().max().unwrap_or(0));
        let start = match tier {
            TIER_U8 => {
                let start = self.d8.len();
                self.d8.extend(dists.iter().map(|&d| d as u8));
                start
            }
            TIER_U16 => {
                let start = self.d16.len();
                self.d16.extend(dists.iter().map(|&d| d as u16));
                start
            }
            _ => {
                let start = self.d32.len();
                self.d32.extend_from_slice(dists);
                start
            }
        };
        self.seal_row(ids, tier, start);
    }

    /// Append a copy of an already packed row (same tier).
    fn push_packed(&mut self, row: PackedRow<'_>) {
        let start = match row.dists {
            NarrowSlice::U8(d) => {
                let start = self.d8.len();
                self.d8.extend_from_slice(d);
                start
            }
            NarrowSlice::U16(d) => {
                let start = self.d16.len();
                self.d16.extend_from_slice(d);
                start
            }
            NarrowSlice::U32(d) => {
                let start = self.d32.len();
                self.d32.extend_from_slice(d);
                start
            }
        };
        self.seal_row(row.ids, row.tier(), start);
    }

    fn seal_row(&mut self, ids: &[u16], tier: u8, dist_start: usize) {
        self.ids.extend_from_slice(ids);
        assert!(
            self.ids.len() <= u32::MAX as usize,
            "packed label CSR exceeds u32 offset space"
        );
        self.offsets.push(self.ids.len() as u32);
        self.tiers.push(tier);
        self.dist_start.push(dist_start as u32);
    }

    fn dist_bytes(&self) -> usize {
        self.d8.len() + 2 * self.d16.len() + 4 * self.d32.len()
    }

    fn resident_bytes(&self) -> usize {
        self.offsets.len() * 4
            + self.ids.len() * 2
            + self.tiers.len()
            + self.dist_start.len() * 4
            + self.dist_bytes()
    }
}

/// Vertex-major packed label rows (see module docs): a base CSR plus
/// an append-only overlay of the rows re-packed since the base was
/// built, one chunk per patch. Base and chunks sit behind `Arc`s, so a
/// patched generation shares everything but its newest chunk and its
/// index with the generation it was patched from.
///
/// Reads resolve per vertex exactly like
/// [`batchhl_graph::csr::CsrOverlay`], through the same
/// [`OverlayIndex`]: one bitmap test routes to the base, an overlaid
/// vertex is ranked for its `(chunk, slot)`, and vertices past the
/// base's range that were never patched have empty rows. A re-patched
/// row takes a fresh slot and abandons its old one; abandoned entries
/// count toward the compaction threshold.
#[derive(Debug, Clone)]
pub struct PackedLabels {
    r: usize,
    n: usize,
    base: Arc<Rows>,
    index: OverlayIndex,
    overlay: Vec<Arc<Rows>>,
    /// Entries held by the overlay chunks, abandoned rows included.
    overlay_entries: usize,
    /// Live logical entries, `Σ_v |L(v)|`.
    entries: usize,
    /// Live narrowed distance bytes (what a snapshot serializes).
    dist_bytes: usize,
}

impl PackedLabels {
    /// `n` vertices over `r` landmarks, none of them labelled.
    pub(crate) fn empty(r: usize, n: usize) -> Self {
        PackedLabels {
            r,
            n,
            base: Arc::new(Rows::with_capacity(0, [0; 3])),
            index: OverlayIndex::default(),
            overlay: Vec::new(),
            overlay_entries: 0,
            entries: 0,
            dist_bytes: 0,
        }
    }

    /// `base` as the rows of `n` vertices, vertex `v` in slot `v`, with
    /// no overlay.
    fn with_base(r: usize, n: usize, base: Rows) -> Self {
        PackedLabels {
            r,
            n,
            entries: base.ids.len(),
            dist_bytes: base.dist_bytes(),
            base: Arc::new(base),
            index: OverlayIndex::default(),
            overlay: Vec::new(),
            overlay_entries: 0,
        }
    }

    /// Pack `n` vertices whose rows `row(v, ids, dists)` writes (ids
    /// ascending, into cleared buffers) into one fresh base.
    pub(crate) fn from_rows(
        r: usize,
        n: usize,
        mut row: impl FnMut(Vertex, &mut Vec<u16>, &mut Vec<Dist>),
    ) -> Self {
        let mut base = Rows::with_capacity(n, [0; 3]);
        let (mut ids, mut dists) = (Vec::with_capacity(r), Vec::with_capacity(r));
        for v in 0..n as Vertex {
            ids.clear();
            dists.clear();
            row(v, &mut ids, &mut dists);
            base.push(&ids, &dists);
        }
        PackedLabels::with_base(r, n, base)
    }

    /// Pack landmark-major dense rows (one per landmark, [`NO_LABEL`]
    /// marking absent entries) — construction's scratch layout.
    pub(crate) fn from_dense(n: usize, dense: &[Box<[Dist]>]) -> Self {
        let r = dense.len();
        PackedLabels::from_rows(r, n, |v, ids, dists| {
            // Branch-free: every slot is written and only labelled ones
            // advance the cursor, since label presence is unpredictable.
            ids.resize(r, 0);
            dists.resize(r, 0);
            let mut len = 0;
            for (i, row) in dense.iter().enumerate() {
                let d = row[v as usize];
                ids[len] = i as u16;
                dists[len] = d;
                len += usize::from(d != NO_LABEL);
            }
            ids.truncate(len);
            dists.truncate(len);
        })
    }

    /// An empty chunk with room for new rows of about the current
    /// lengths of `rows`; [`Rows::push`] fills it for
    /// [`PackedLabels::patched`].
    pub(crate) fn chunk_for(&self, rows: &[Vertex]) -> Rows {
        let entries = rows.iter().map(|&v| self.resolve(v).len()).sum();
        Rows::with_capacity(rows.len(), self.blob_hint(entries))
    }

    /// These rows over `n ≥ self.n` vertices with the rows of `changed`
    /// (ascending, distinct) replaced by the rows of `chunk`, in the same
    /// order. Base and overlay stay shared: the chunk joins the overlay
    /// and the overlay index is merged with it, `O(Σ new rows + overlaid
    /// rows)`. When the overlay plus the chunk crosses `policy`'s share
    /// of the base (the rule `CsrOverlay::patched` applies), base,
    /// overlay and chunk are merged into a fresh base instead,
    /// `O(n + entries)`, copying every row as it is packed.
    pub(crate) fn patched(
        &self,
        n: usize,
        changed: &[Vertex],
        chunk: Rows,
        policy: CompactionPolicy,
    ) -> Self {
        self.repack(n, changed, chunk, Some(policy))
    }

    /// Every row copied into one fresh base (no overlay).
    pub(crate) fn compacted(&self) -> Self {
        self.repack(self.n, &[], Rows::with_capacity(0, [0; 3]), None)
    }

    /// [`PackedLabels::patched`]; `policy: None` always compacts.
    fn repack(
        &self,
        n: usize,
        changed: &[Vertex],
        chunk: Rows,
        policy: Option<CompactionPolicy>,
    ) -> Self {
        debug_assert!(changed.windows(2).all(|w| w[0] < w[1]));
        debug_assert_eq!(chunk.len(), changed.len());
        let n = n.max(self.n);
        let overlay_entries = self.overlay_entries + chunk.ids.len();
        if policy.is_none_or(|p| p.exceeded(overlay_entries, self.base.ids.len())) {
            let mut base = Rows::with_capacity(n, self.blob_hint(self.entries));
            let mut k = 0;
            for v in 0..n as Vertex {
                if changed.get(k) == Some(&v) {
                    base.push_packed(chunk.row(k));
                    k += 1;
                } else {
                    base.push_packed(self.resolve(v));
                }
            }
            return PackedLabels::with_base(self.r, n, base);
        }
        let (mut entries, mut dist_bytes) = (self.entries, self.dist_bytes);
        for (k, &v) in changed.iter().enumerate() {
            let (old, new) = (self.resolve(v), chunk.row(k));
            entries = entries + new.len() - old.len();
            dist_bytes = dist_bytes + new.dist_bytes() - old.dist_bytes();
        }
        let index = self.index.merged(self.overlay.len() as u32, changed);
        let mut overlay = self.overlay.clone();
        if !changed.is_empty() {
            overlay.push(Arc::new(chunk));
        }
        PackedLabels {
            r: self.r,
            n,
            base: Arc::clone(&self.base),
            index,
            overlay,
            overlay_entries,
            entries,
            dist_bytes,
        }
    }

    /// Blob capacities for about `entries` entries, split like the
    /// base's distances (plus a little room); all `u8` for an empty base.
    fn blob_hint(&self, entries: usize) -> [usize; 3] {
        let b = &self.base;
        if b.ids.is_empty() {
            return [entries, 0, 0];
        }
        [b.d8.len(), b.d16.len(), b.d32.len()].map(|x| {
            let share = entries * x / b.ids.len();
            share + share / 16
        })
    }

    /// Grow the vertex range; new vertices have empty rows.
    pub(crate) fn ensure_vertices(&mut self, n: usize) {
        self.n = self.n.max(n);
    }

    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.r
    }

    /// Total logical label entries, `Σ_v |L(v)|`.
    #[inline]
    pub fn num_entries(&self) -> usize {
        self.entries
    }

    /// Entries held by the overlay, abandoned copies included (the
    /// figure the compaction policy acts on).
    pub fn overlay_entries(&self) -> usize {
        self.overlay_entries
    }

    /// Width tier of row `v`.
    #[inline]
    pub fn row_tier(&self, v: Vertex) -> u8 {
        self.row(v).tier()
    }

    /// The packed label row of `v`.
    #[inline]
    pub fn row(&self, v: Vertex) -> PackedRow<'_> {
        debug_assert!((v as usize) < self.n, "vertex {v} out of bounds");
        self.resolve(v)
    }

    /// Row `v`, empty past the vertex range. An empty overlay (the
    /// state right after a compaction) is decided by one predictable
    /// branch; otherwise one bitmap test routes between base and
    /// overlay.
    #[inline]
    fn resolve(&self, v: Vertex) -> PackedRow<'_> {
        match self.index.get(v) {
            Some((chunk, slot)) => self.overlay[chunk as usize].row(slot as usize),
            None if (v as usize) < self.base.len() => self.base.row(v as usize),
            None => EMPTY_ROW,
        }
    }

    /// Bytes of narrowed distance payload (the serialized dist blob).
    pub fn dist_bytes(&self) -> usize {
        self.dist_bytes
    }

    /// Resident bytes of the packed structure (base + overlay payload
    /// and CSR overhead, abandoned overlay rows included).
    pub fn resident_bytes(&self) -> usize {
        self.base.resident_bytes()
            + self
                .overlay
                .iter()
                .map(|c| c.resident_bytes())
                .sum::<usize>()
            + self.index.resident_bytes()
    }
}

/// Semantic equality: two packings are equal when they present the same
/// rows, however each is split between base and overlay.
impl PartialEq for PackedLabels {
    fn eq(&self, other: &Self) -> bool {
        self.r == other.r
            && self.n == other.n
            && (0..self.n as Vertex).all(|v| self.row(v) == other.row(v))
    }
}

impl Eq for PackedLabels {}

/// The highway matrix narrowed to one width tier (see module docs).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedHighway {
    r: usize,
    data: HighwayData,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum HighwayData {
    U8(Vec<u8>),
    U16(Vec<u16>),
    U32(Vec<u32>),
}

impl PackedHighway {
    /// Narrow a row-major `r × r` highway matrix. `INF` maps to the
    /// tier sentinel `T::MAX`; the tier is chosen so no finite entry
    /// collides with it.
    pub(crate) fn from_dense(r: usize, dense: &[Dist]) -> Self {
        debug_assert_eq!(dense.len(), r * r);
        let max = dense
            .iter()
            .filter(|&&h| h != INF)
            .max()
            .copied()
            .unwrap_or(0);
        let data = if max < u8::MAX as Dist {
            HighwayData::U8(
                dense
                    .iter()
                    .map(|&h| if h == INF { u8::MAX } else { h as u8 })
                    .collect(),
            )
        } else if max < u16::MAX as Dist {
            HighwayData::U16(
                dense
                    .iter()
                    .map(|&h| if h == INF { u16::MAX } else { h as u16 })
                    .collect(),
            )
        } else {
            HighwayData::U32(dense.to_vec())
        };
        PackedHighway { r, data }
    }

    /// The exact row-major matrix (`INF` for the sentinel).
    pub(crate) fn to_dense(&self) -> Vec<Dist> {
        (0..self.r * self.r)
            .map(|k| self.get(k / self.r, k % self.r))
            .collect()
    }

    #[inline]
    pub fn num_landmarks(&self) -> usize {
        self.r
    }

    /// Bytes per stored highway entry (1, 2 or 4).
    pub fn width(&self) -> u8 {
        match self.data {
            HighwayData::U8(_) => 1,
            HighwayData::U16(_) => 2,
            HighwayData::U32(_) => 4,
        }
    }

    /// Row `i` of the matrix — one contiguous cache block.
    #[inline]
    pub fn row(&self, i: usize) -> NarrowSlice<'_> {
        let lo = i * self.r;
        let hi = lo + self.r;
        match &self.data {
            HighwayData::U8(d) => NarrowSlice::U8(&d[lo..hi]),
            HighwayData::U16(d) => NarrowSlice::U16(&d[lo..hi]),
            HighwayData::U32(d) => NarrowSlice::U32(&d[lo..hi]),
        }
    }

    /// Exact `δ_H(r_i, r_j)` (`INF` for the sentinel).
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> Dist {
        let k = i * self.r + j;
        match &self.data {
            HighwayData::U8(d) => {
                let v = d[k];
                if v == u8::MAX {
                    INF
                } else {
                    v as Dist
                }
            }
            HighwayData::U16(d) => {
                let v = d[k];
                if v == u16::MAX {
                    INF
                } else {
                    v as Dist
                }
            }
            HighwayData::U32(d) => d[k],
        }
    }

    /// Resident bytes of the narrowed matrix.
    pub fn resident_bytes(&self) -> usize {
        self.r * self.r * self.width() as usize
    }
}

/// The packed rows and highway of one `Labelling` generation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedIndex {
    pub labels: PackedLabels,
    pub highway: PackedHighway,
}

impl PackedIndex {
    /// `lab`'s rows packed again into one fresh base (no overlay) —
    /// the layout a load or a compaction produces.
    pub fn build(lab: &Labelling) -> Self {
        PackedIndex {
            labels: lab.packed().labels.compacted(),
            highway: lab.packed().highway.clone(),
        }
    }

    /// Total resident bytes (labels + highway).
    pub fn resident_bytes(&self) -> usize {
        self.labels.resident_bytes() + self.highway.resident_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Dense scratch rows of the 6-vertex sample (landmarks 0 and 3)
    /// plus `extra` entries; vertices past 6 are unlabelled.
    fn dense(n: usize, extra: &[(usize, Vertex, Dist)]) -> Vec<Box<[Dist]>> {
        let mut rows = vec![vec![NO_LABEL; n].into_boxed_slice(); 2];
        for &(i, v, d) in [(0, 1, 1), (0, 2, 1), (1, 2, 1), (1, 4, 1)]
            .iter()
            .chain(extra)
        {
            rows[i][v as usize] = d;
        }
        rows
    }

    fn sample(extra: &[(usize, Vertex, Dist)]) -> PackedLabels {
        PackedLabels::from_dense(6, &dense(6, extra))
    }

    /// `p` with the rows of `changed` re-derived from dense rows.
    fn patch(
        p: &PackedLabels,
        rows: &[Box<[Dist]>],
        changed: &[Vertex],
        policy: CompactionPolicy,
    ) -> PackedLabels {
        let mut chunk = p.chunk_for(changed);
        for &v in changed {
            let (ids, dists): (Vec<u16>, Vec<Dist>) = (0..rows.len())
                .filter(|&i| rows[i][v as usize] != NO_LABEL)
                .map(|i| (i as u16, rows[i][v as usize]))
                .unzip();
            chunk.push(&ids, &dists);
        }
        p.patched(rows[0].len(), changed, chunk, policy)
    }

    #[test]
    fn packed_rows_mirror_dense_entries() {
        let rows = dense(6, &[]);
        let p = PackedLabels::from_dense(6, &rows);
        assert_eq!(p.num_entries(), 4);
        for v in 0..6u32 {
            let row = p.row(v);
            let want: Vec<(u16, Dist)> = (0..2)
                .filter(|&i| rows[i][v as usize] != NO_LABEL)
                .map(|i| (i as u16, rows[i][v as usize]))
                .collect();
            let got: Vec<(u16, Dist)> = (0..row.len()).map(|k| row.entry(k)).collect();
            assert_eq!(got, want, "row {v}");
            // Ids strictly ascending.
            assert!(row.ids.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn highway_narrowing_is_lossless() {
        let dense = [0, 2, 2, 0];
        let p = PackedHighway::from_dense(2, &dense);
        assert_eq!(p.width(), 1);
        assert_eq!(p.to_dense(), dense);
        // An INF entry survives as INF (two landmarks, disconnected).
        let p2 = PackedHighway::from_dense(2, &[0, INF, INF, 0]);
        assert_eq!(p2.get(0, 1), INF);
        assert_eq!(p2.get(0, 0), 0);
    }

    #[test]
    fn tier_boundaries_promote_rows() {
        // 254 stays u8; 255 promotes to u16; 65535 promotes to u32;
        // anything past CLAMP_SAFE_MAX promotes to the escape tier.
        let cases = [
            (254, TIER_U8),
            (255, TIER_U16),
            (65_534, TIER_U16),
            (65_535, TIER_U32),
            (CLAMP_SAFE_MAX, TIER_U32),
            (CLAMP_SAFE_MAX + 1, TIER_U32_EXACT),
            (INF - 1, TIER_U32_EXACT),
        ];
        for (d, want_tier) in cases {
            let p = sample(&[(0, 5, d)]);
            assert_eq!(p.row_tier(5), want_tier, "distance {d}");
            let row = p.row(5);
            assert_eq!(row.entry(0), (0, d));
        }
    }

    #[test]
    fn highway_tiers_promote_like_rows() {
        for (d, want_width) in [
            (254, 1u8),
            (255, 2),
            (65_535, 4),
            (CLAMP_SAFE_MAX, 4),
            (CLAMP_SAFE_MAX + 1, 4),
        ] {
            let p = PackedHighway::from_dense(2, &[0, d, d, 0]);
            assert_eq!(p.width(), want_width, "highway {d}");
            assert_eq!(p.get(0, 1), d);
        }
    }

    /// A policy that never compacts, to observe the overlay.
    fn keep_overlay() -> CompactionPolicy {
        CompactionPolicy::new(1.0e6, usize::MAX)
    }

    #[test]
    fn patched_row_retouch_and_tier_change() {
        let p0 = sample(&[]);
        let d1 = dense(6, &[(0, 5, 254)]);
        let p1 = patch(&p0, &d1, &[5], keep_overlay());
        assert_eq!(p1, PackedLabels::from_dense(6, &d1));
        assert_eq!(p1.row_tier(5), TIER_U8);
        assert_eq!(p1.overlay_entries(), 1);
        // Re-touch the same row across the u8/u16 edge: a fresh slot,
        // the old copy abandoned but still counted for compaction.
        let d2 = dense(6, &[(0, 5, 255), (1, 5, 3)]);
        let p2 = patch(&p1, &d2, &[5], keep_overlay());
        let fresh2 = PackedLabels::from_dense(6, &d2);
        assert_eq!(p2, fresh2);
        assert_eq!(p2.row_tier(5), TIER_U16);
        assert_eq!(p2.row(5).entry(0), (0, 255));
        assert_eq!(p2.overlay_entries(), 1 + 2);
        assert_eq!(p2.num_entries(), fresh2.num_entries());
        assert_eq!(p2.dist_bytes(), fresh2.dist_bytes());
        // Back down across the u16/u32 edge and out again; the
        // predecessors are untouched (they are what readers still hold).
        let d3 = dense(6, &[(1, 5, 65_535)]);
        let p3 = patch(&p2, &d3, &[5], keep_overlay());
        assert_eq!(p3, PackedLabels::from_dense(6, &d3));
        assert_eq!(p3.row_tier(5), TIER_U32);
        assert_eq!(p1, PackedLabels::from_dense(6, &d1));
        assert_eq!(p0, sample(&[]));
    }

    #[test]
    fn patched_rows_grow_past_the_base() {
        let p0 = sample(&[]);
        let mut grown = p0.clone();
        grown.ensure_vertices(9);
        assert_eq!(grown.num_vertices(), 9);
        assert!(grown.row(8).is_empty());
        assert_eq!(grown, PackedLabels::from_dense(9, &dense(9, &[])));
        // A patch may name vertices past the base's range directly.
        let d1 = dense(9, &[(1, 7, 4)]);
        let p1 = patch(&p0, &d1, &[7], keep_overlay());
        assert_eq!(p1.num_vertices(), 9);
        assert_eq!(p1, PackedLabels::from_dense(9, &d1));
        assert_eq!(p1.row(7).entry(0), (1, 4));
        assert!(p1.row(6).is_empty() && p1.row(8).is_empty());
    }

    #[test]
    fn compaction_merges_overlay_into_a_fresh_base() {
        let p0 = sample(&[]);
        let d1 = dense(6, &[(0, 5, 7), (1, 1, 2)]);
        let p1 = patch(&p0, &d1, &[1, 5], keep_overlay());
        assert_eq!(p1.overlay_entries(), 3);
        let d2 = dense(7, &[(0, 5, 7), (1, 1, 2), (1, 0, 300), (0, 6, 1)]);
        let p2 = patch(&p1, &d2, &[0, 6], CompactionPolicy::eager(0.0));
        assert_eq!(p2.overlay_entries(), 0, "compacted");
        let fresh = PackedLabels::from_dense(7, &d2);
        assert_eq!(p2, fresh);
        assert_eq!(p2.resident_bytes(), fresh.resident_bytes());
        assert_eq!(
            p1.compacted().resident_bytes(),
            PackedLabels::from_dense(6, &d1).resident_bytes()
        );
        // The default policy's entry floor keeps small overlays.
        let p3 = patch(&p2, &d2, &[], CompactionPolicy::default());
        assert_eq!(p3, p2);
        assert_eq!(p3.overlay_entries(), 0);
    }

    #[test]
    fn eager_policy_compacts_a_chunk_of_newly_labelled_rows() {
        // Row 5 holds no labels, so the replaced rows are empty: the
        // chunk's own entries must decide.
        let p0 = sample(&[]);
        let d1 = dense(6, &[(0, 5, 7), (1, 5, 2)]);
        let p1 = patch(&p0, &d1, &[5], CompactionPolicy::eager(0.0));
        assert_eq!(p1.overlay_entries(), 0, "compacted");
        assert_eq!(p1, PackedLabels::from_dense(6, &d1));
        assert_eq!(
            p1.resident_bytes(),
            PackedLabels::from_dense(6, &d1).resident_bytes()
        );
    }

    #[test]
    fn packed_is_denser_than_dense_rows() {
        let mut rows = vec![vec![NO_LABEL; 100].into_boxed_slice(); 10];
        for v in 0..100u32 {
            rows[(v % 10) as usize][v as usize] = 1 + v % 7;
        }
        let p = PackedLabels::from_dense(100, &rows);
        let dense = 10 * 100 * 4 + 10 * 10 * 4;
        assert!(
            p.resident_bytes() < dense / 2,
            "{} vs {dense}",
            p.resident_bytes()
        );
    }
}
