//! Labelling persistence: a small versioned binary format, std-only.
//!
//! Rebuilding a labelling is cheap but not free (`O(|R|·(|V|+|E|))`);
//! a service restarting against an unchanged graph can instead load the
//! snapshot and resume batch maintenance immediately.
//!
//! # Formats
//!
//! The current block magic is `"BHL3"`: the *packed* layout of
//! [`crate::packed`] — per-vertex entry counts, width tiers, ascending
//! landmark ids and width-narrowed distances, plus the width-narrowed
//! highway matrix. On-disk size tracks logical label entries instead of
//! the dense `|R| × |V|` grid. (`"BHL2"` is deliberately skipped: that
//! magic names the full-oracle checkpoint *container* of
//! `batchhl_core::persist`, which embeds this block length-prefixed.)
//!
//! ```text
//! magic "BHL3" | u64 n | u64 r | r × u32 landmark ids
//! u8 hw_width ∈ {1,2,4} | r × r × hw_width highway (T::MAX = INF)
//! n × u16 entry counts | n × u8 row tier ∈ {1,2,4,8}
//! Σcounts × u16 landmark ids (ascending per row)
//! per row: count × width(tier) distance bytes (little-endian)
//! ```
//!
//! [`read_labelling`] also still decodes the legacy `"BHL1"` dense
//! block (`r × n × u32` rows, `NO_LABEL` = absent), so checkpoints
//! written before the packed layout keep loading.
//!
//! # Load-path hardening
//!
//! [`read_labelling`] treats the input as hostile: magic, width/tier
//! bytes, landmark ranges, per-row counts, id ordering and every
//! dimension are validated with a typed [`SnapshotError`] instead of
//! trusting the file. Bulk payloads are read in small chunks and the
//! labelling is assembled only *after* the bytes are in hand, so a
//! corrupt `u64 n` fails fast with [`SnapshotError::Truncated`] rather
//! than attempting a multi-GB up-front allocation. A `BHL3` block
//! decodes straight into packed rows: each row's ids and widened
//! distances are validated and packed again, so a non-canonical width
//! tier in the file cannot reach the kernels. A `BHL1` block is read
//! into dense rows and packed once.

use crate::labelling::{LabelError, Labelling, NO_LABEL};
use crate::packed::{
    tier_width, NarrowSlice, PackedLabels, TIER_U16, TIER_U32, TIER_U32_EXACT, TIER_U8,
};
use batchhl_common::{binio, Dist, Vertex, INF};
use std::fmt;
use std::io::{self, BufReader, BufWriter, Read, Write};

const MAGIC: &[u8; 4] = b"BHL3";
const MAGIC_V1: &[u8; 4] = b"BHL1";

/// Why a labelling snapshot could not be loaded.
#[derive(Debug)]
pub enum SnapshotError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the expected magic.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// The stream ended before the section the header promised.
    Truncated { section: &'static str },
    /// A header field is out of its documented range.
    Header { reason: String },
    /// The decoded parts do not form a valid labelling.
    Label(LabelError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::Io(e) => write!(f, "labelling snapshot I/O error: {e}"),
            SnapshotError::BadMagic { expected, found } => write!(
                f,
                "bad magic: expected {:?} (or legacy {:?}), found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(MAGIC_V1),
                String::from_utf8_lossy(found),
            ),
            SnapshotError::Truncated { section } => {
                write!(f, "stream truncated while reading {section}")
            }
            SnapshotError::Header { reason } => write!(f, "invalid header: {reason}"),
            SnapshotError::Label(e) => write!(f, "decoded labelling is invalid: {e}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Io(e) => Some(e),
            SnapshotError::Label(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SnapshotError {
    fn from(e: io::Error) -> Self {
        SnapshotError::Io(e)
    }
}

impl From<LabelError> for SnapshotError {
    fn from(e: LabelError) -> Self {
        SnapshotError::Label(e)
    }
}

/// Serialize a labelling in the packed `BHL3` layout (see module docs).
pub fn write_labelling<W: Write>(lab: &Labelling, writer: W) -> io::Result<()> {
    let packed = lab.packed();
    let mut out = BufWriter::new(writer);
    out.write_all(MAGIC)?;
    let n = lab.num_vertices();
    let r = lab.num_landmarks();
    out.write_all(&(n as u64).to_le_bytes())?;
    out.write_all(&(r as u64).to_le_bytes())?;
    for &lm in lab.landmarks() {
        out.write_all(&lm.to_le_bytes())?;
    }
    let hw = &packed.highway;
    out.write_all(&[hw.width()])?;
    for i in 0..r {
        match hw.row(i) {
            NarrowSlice::U8(row) => out.write_all(row)?,
            NarrowSlice::U16(row) => {
                for &h in row {
                    out.write_all(&h.to_le_bytes())?;
                }
            }
            NarrowSlice::U32(row) => {
                for &h in row {
                    out.write_all(&h.to_le_bytes())?;
                }
            }
        }
    }
    for v in 0..n {
        let count = packed.labels.row(v as Vertex).len() as u16;
        out.write_all(&count.to_le_bytes())?;
    }
    for v in 0..n {
        out.write_all(&[packed.labels.row_tier(v as Vertex)])?;
    }
    for v in 0..n {
        for &id in packed.labels.row(v as Vertex).ids {
            out.write_all(&id.to_le_bytes())?;
        }
    }
    for v in 0..n {
        match packed.labels.row(v as Vertex).dists {
            NarrowSlice::U8(ds) => out.write_all(ds)?,
            NarrowSlice::U16(ds) => {
                for &d in ds {
                    out.write_all(&d.to_le_bytes())?;
                }
            }
            NarrowSlice::U32(ds) => {
                for &d in ds {
                    out.write_all(&d.to_le_bytes())?;
                }
            }
        }
    }
    out.flush()
}

/// The number of bytes [`write_labelling`] emits for `lab` (used by the
/// checkpoint format to length-prefix the block).
pub fn labelling_encoded_len(lab: &Labelling) -> u64 {
    let packed = lab.packed();
    let n = lab.num_vertices() as u64;
    let r = lab.num_landmarks() as u64;
    let entries = packed.labels.num_entries() as u64;
    4 + 8
        + 8
        + 4 * r
        + 1
        + packed.highway.width() as u64 * r * r
        + 2 * n
        + n
        + 2 * entries
        + packed.labels.dist_bytes() as u64
}

/// Deserialize a labelling written by [`write_labelling`] (packed
/// `BHL3`) or by the pre-packed writer (dense `BHL1`), validating the
/// header and every dimension (see the module docs on hardening).
pub fn read_labelling<R: Read>(reader: R) -> Result<Labelling, SnapshotError> {
    let mut inp = BufReader::new(reader);
    let mut magic = [0u8; 4];
    inp.read_exact(&mut magic)
        .map_err(|e| truncated(e, "magic"))?;
    let packed = if &magic == MAGIC {
        true
    } else if &magic == MAGIC_V1 {
        false
    } else {
        return Err(SnapshotError::BadMagic {
            expected: *MAGIC,
            found: magic,
        });
    };
    let n = read_u64(&mut inp, "header")? as usize;
    let r = read_u64(&mut inp, "header")? as usize;
    if r > u16::MAX as usize - 1 {
        return Err(SnapshotError::Header {
            reason: format!("landmark count {r} out of range"),
        });
    }
    if n > u32::MAX as usize {
        return Err(SnapshotError::Header {
            reason: format!("vertex count {n} exceeds the u32 vertex-id space"),
        });
    }
    let mut landmarks = Vec::with_capacity(r);
    for _ in 0..r {
        let v = read_u32(&mut inp, "landmark list")?;
        if v as usize >= n {
            return Err(SnapshotError::Label(LabelError::LandmarkOutOfBounds {
                landmark: v as Vertex,
                num_vertices: n,
            }));
        }
        landmarks.push(v as Vertex);
    }
    if packed {
        read_packed_body(&mut inp, n, r, landmarks)
    } else {
        read_dense_body(&mut inp, n, r, landmarks)
    }
}

/// Legacy `BHL1` body: dense highway + dense label rows.
fn read_dense_body<R: Read>(
    inp: &mut R,
    n: usize,
    r: usize,
    landmarks: Vec<Vertex>,
) -> Result<Labelling, SnapshotError> {
    // Bulk sections are read chunk-by-chunk: allocation tracks the data
    // actually present in the stream, never the header's claim.
    let highway = read_dists(inp, r * r, "highway matrix")?;
    let mut rows = Vec::with_capacity(r.min(binio::CHUNK_ENTRIES));
    for _ in 0..r {
        rows.push(read_dists(inp, n, "label row")?.into_boxed_slice());
    }
    Ok(Labelling::from_parts(n, landmarks, rows, highway)?)
}

/// Packed `BHL3` body: narrowed highway + CSR label rows, decoded
/// straight into packed rows.
fn read_packed_body<R: Read>(
    inp: &mut R,
    n: usize,
    r: usize,
    landmarks: Vec<Vertex>,
) -> Result<Labelling, SnapshotError> {
    let mut wbyte = [0u8; 1];
    inp.read_exact(&mut wbyte)
        .map_err(|e| truncated(e, "highway width"))?;
    let hw_width = wbyte[0];
    if !matches!(hw_width, 1 | 2 | 4) {
        return Err(SnapshotError::Header {
            reason: format!("highway width {hw_width} not in {{1, 2, 4}}"),
        });
    }
    let highway = read_narrow(inp, r * r, hw_width, true, "highway matrix")?;
    let counts = read_u16s(inp, n, "entry counts")?;
    let mut entries = 0u64;
    for (v, &c) in counts.iter().enumerate() {
        if c as usize > r {
            return Err(SnapshotError::Header {
                reason: format!("vertex {v} claims {c} labels with only {r} landmarks"),
            });
        }
        entries += c as u64;
    }
    let tiers = read_u8s(inp, n, "row tiers")?;
    for (v, &t) in tiers.iter().enumerate() {
        if !matches!(t, TIER_U8 | TIER_U16 | TIER_U32 | TIER_U32_EXACT) {
            return Err(SnapshotError::Header {
                reason: format!("vertex {v} has width tier {t} not in {{1, 2, 4, 8}}"),
            });
        }
    }
    let ids = read_u16s(inp, entries as usize, "label ids")?;
    let mut offsets = Vec::with_capacity(n + 1);
    offsets.push(0usize);
    let mut dists = Vec::with_capacity(ids.len());
    for (v, &c) in counts.iter().enumerate() {
        let (lo, hi) = (offsets[v], offsets[v] + c as usize);
        offsets.push(hi);
        let row_ids = &ids[lo..hi];
        if let Some(&i) = row_ids.iter().find(|&&i| i as usize >= r) {
            return Err(SnapshotError::Header {
                reason: format!("vertex {v} labels landmark {i} of {r}"),
            });
        }
        if row_ids.windows(2).any(|w| w[0] >= w[1]) {
            return Err(SnapshotError::Header {
                reason: format!("vertex {v} label ids not strictly ascending"),
            });
        }
        let width = tier_width(tiers[v]) as u8;
        dists.extend(read_narrow(inp, c as usize, width, false, "label row")?);
    }
    let labels = PackedLabels::from_rows(r, n, |_, v, row_ids, row_dists| {
        let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
        // An `INF` distance is no label, as in the dense layout.
        for (&i, &d) in ids[lo..hi].iter().zip(&dists[lo..hi]) {
            if d != NO_LABEL {
                row_ids.push(i);
                row_dists.push(d);
            }
        }
    });
    Ok(Labelling::from_packed(landmarks, labels, &highway)?)
}

fn truncated(e: io::Error, section: &'static str) -> SnapshotError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        SnapshotError::Truncated { section }
    } else {
        SnapshotError::Io(e)
    }
}

/// Read `count` little-endian `u32` distances in bounded chunks
/// ([`binio`]): allocation tracks the data actually present, never the
/// untrusted header's claim.
fn read_dists<R: Read>(
    r: &mut R,
    count: usize,
    section: &'static str,
) -> Result<Vec<Dist>, SnapshotError> {
    binio::read_u32s(r, count, |e| truncated(e, section))
}

/// Read `count` width-narrowed values, widening to `Dist`. With
/// `sentinel`, the tier's `T::MAX` maps to [`INF`] (highway matrices);
/// without, values widen as-is (label rows carry no sentinel).
fn read_narrow<R: Read>(
    r: &mut R,
    count: usize,
    width: u8,
    sentinel: bool,
    section: &'static str,
) -> Result<Vec<Dist>, SnapshotError> {
    match width {
        1 => {
            let raw = read_u8s(r, count, section)?;
            Ok(raw
                .into_iter()
                .map(|v| {
                    if sentinel && v == u8::MAX {
                        INF
                    } else {
                        v as Dist
                    }
                })
                .collect())
        }
        2 => {
            let raw = read_u16s(r, count, section)?;
            Ok(raw
                .into_iter()
                .map(|v| {
                    if sentinel && v == u16::MAX {
                        INF
                    } else {
                        v as Dist
                    }
                })
                .collect())
        }
        _ => read_dists(r, count, section),
    }
}

/// Chunked little-endian `u16` bulk read (same hardening policy as
/// [`binio::read_u32s`]).
fn read_u16s<R: Read>(
    r: &mut R,
    count: usize,
    section: &'static str,
) -> Result<Vec<u16>, SnapshotError> {
    let mut out = Vec::new();
    let mut buf = vec![0u8; binio::CHUNK_ENTRIES.min(count.max(1)) * 2];
    let mut remaining = count;
    while remaining > 0 {
        let take = remaining.min(binio::CHUNK_ENTRIES);
        let bytes = &mut buf[..take * 2];
        r.read_exact(bytes).map_err(|e| truncated(e, section))?;
        out.extend(
            bytes
                .chunks_exact(2)
                .map(|c| u16::from_le_bytes(c.try_into().unwrap())),
        );
        remaining -= take;
    }
    Ok(out)
}

/// Chunked `u8` bulk read (same hardening policy).
fn read_u8s<R: Read>(
    r: &mut R,
    count: usize,
    section: &'static str,
) -> Result<Vec<u8>, SnapshotError> {
    let mut out = Vec::new();
    let mut remaining = count;
    let mut buf = vec![0u8; binio::CHUNK_ENTRIES.min(count.max(1))];
    while remaining > 0 {
        let take = remaining.min(binio::CHUNK_ENTRIES);
        let bytes = &mut buf[..take];
        r.read_exact(bytes).map_err(|e| truncated(e, section))?;
        out.extend_from_slice(bytes);
        remaining -= take;
    }
    Ok(out)
}

fn read_u64<R: Read>(r: &mut R, section: &'static str) -> Result<u64, SnapshotError> {
    binio::read_u64(r, |e| truncated(e, section))
}

fn read_u32<R: Read>(r: &mut R, section: &'static str) -> Result<u32, SnapshotError> {
    binio::read_u32(r, |e| truncated(e, section))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::build_labelling;
    use crate::LandmarkSelection;
    use batchhl_graph::generators::{barabasi_albert, path};

    #[test]
    fn roundtrip_preserves_everything() {
        for g in [path(20), barabasi_albert(200, 3, 7)] {
            let lab = build_labelling(&g, LandmarkSelection::TopDegree(6).select(&g)).unwrap();
            let mut buf = Vec::new();
            write_labelling(&lab, &mut buf).unwrap();
            assert_eq!(buf.len() as u64, labelling_encoded_len(&lab));
            let back = read_labelling(buf.as_slice()).unwrap();
            assert_eq!(lab, back);
        }
    }

    #[test]
    fn packed_snapshot_is_smaller_than_dense() {
        let g = barabasi_albert(300, 3, 11);
        let lab = build_labelling(&g, LandmarkSelection::TopDegree(8).select(&g)).unwrap();
        let n = lab.num_vertices() as u64;
        let r = lab.num_landmarks() as u64;
        let dense_len = 4 + 8 + 8 + 4 * r + 4 * r * r + 4 * r * n;
        assert!(
            labelling_encoded_len(&lab) * 2 < dense_len,
            "{} vs dense {dense_len}",
            labelling_encoded_len(&lab)
        );
    }

    /// Serialize in the legacy dense `BHL1` layout (what pre-packed
    /// builds wrote): the compat surface `read_labelling` must keep.
    fn write_labelling_v1(lab: &Labelling, out: &mut Vec<u8>) {
        out.extend_from_slice(MAGIC_V1);
        out.extend_from_slice(&(lab.num_vertices() as u64).to_le_bytes());
        out.extend_from_slice(&(lab.num_landmarks() as u64).to_le_bytes());
        for &lm in lab.landmarks() {
            out.extend_from_slice(&lm.to_le_bytes());
        }
        for i in 0..lab.num_landmarks() {
            for j in 0..lab.num_landmarks() {
                out.extend_from_slice(&lab.highway(i, j).to_le_bytes());
            }
        }
        for i in 0..lab.num_landmarks() {
            for v in 0..lab.num_vertices() as Vertex {
                out.extend_from_slice(&lab.label(i, v).to_le_bytes());
            }
        }
    }

    #[test]
    fn legacy_dense_blocks_still_load() {
        for g in [path(20), barabasi_albert(150, 3, 5)] {
            let lab = build_labelling(&g, LandmarkSelection::TopDegree(5).select(&g)).unwrap();
            let mut v1 = Vec::new();
            write_labelling_v1(&lab, &mut v1);
            let back = read_labelling(v1.as_slice()).unwrap();
            assert_eq!(lab, back);
        }
    }

    #[test]
    fn wide_distances_round_trip_through_escape_tiers() {
        use crate::kernel::CLAMP_INF;
        let mut lab = Labelling::empty(8, vec![0, 5]).unwrap();
        lab.set_highway_sym(0, 1, 70_000); // u32 highway tier
        lab.set_label(0, 1, 254); // u8 row
        lab.set_label(0, 2, 65_000); // u16 row
        lab.set_label(1, 2, 3);
        lab.set_label(0, 3, CLAMP_INF + 17); // exact-escape row
        lab.set_label(1, 4, INF - 1);
        let mut buf = Vec::new();
        write_labelling(&lab, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, labelling_encoded_len(&lab));
        let back = read_labelling(buf.as_slice()).unwrap();
        assert_eq!(lab, back);
        assert_eq!(back.highway(0, 1), 70_000);
        assert_eq!(back.label(0, 3), CLAMP_INF + 17);
    }

    #[test]
    fn rejects_garbage_with_typed_errors() {
        assert!(matches!(
            read_labelling(&b"NOPE"[..]),
            Err(SnapshotError::BadMagic { .. })
        ));
        assert!(matches!(
            read_labelling(&b"BHL3\x01"[..]),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            read_labelling(&b"BHL1\x01"[..]),
            Err(SnapshotError::Truncated { .. })
        ));
        // Landmark id out of range.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BHL3");
        buf.extend_from_slice(&2u64.to_le_bytes()); // n = 2
        buf.extend_from_slice(&1u64.to_le_bytes()); // r = 1
        buf.extend_from_slice(&9u32.to_le_bytes()); // landmark 9 >= n
        assert!(matches!(
            read_labelling(buf.as_slice()),
            Err(SnapshotError::Label(LabelError::LandmarkOutOfBounds { .. }))
        ));
    }

    #[test]
    fn rejects_corrupt_packed_sections() {
        let g = path(10);
        let lab = build_labelling(&g, vec![4]).unwrap();
        let mut buf = Vec::new();
        write_labelling(&lab, &mut buf).unwrap();
        // Highway width byte out of range.
        let pos = 4 + 8 + 8 + 4; // magic, n, r, one landmark id
        let mut bad = buf.clone();
        bad[pos] = 3;
        assert!(matches!(
            read_labelling(bad.as_slice()),
            Err(SnapshotError::Header { .. })
        ));
        // A count larger than r.
        let mut bad = buf.clone();
        let counts_at = pos + 1 + 1; // width byte + 1×1 highway
        bad[counts_at] = 200;
        assert!(matches!(
            read_labelling(bad.as_slice()),
            Err(SnapshotError::Header { .. }) | Err(SnapshotError::Truncated { .. })
        ));
        // A tier byte outside {1, 2, 4, 8}.
        let mut bad = buf;
        let tiers_at = counts_at + 2 * 10;
        bad[tiers_at] = 7;
        assert!(matches!(
            read_labelling(bad.as_slice()),
            Err(SnapshotError::Header { .. })
        ));
    }

    #[test]
    fn corrupt_headers_fail_without_huge_allocation() {
        // An absurd n must fail with Truncated once the (short) stream
        // runs out — not attempt to allocate n × 4 bytes up front.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BHL3");
        buf.extend_from_slice(&(1u64 << 30).to_le_bytes()); // n ~ 10^9
        buf.extend_from_slice(&1u64.to_le_bytes()); // r = 1
        buf.extend_from_slice(&0u32.to_le_bytes()); // landmark 0
        buf.push(1); // highway width u8
        buf.push(0); // highway[0][0]
        buf.extend_from_slice(&[0u8; 64]); // a far-too-short counts list
        assert!(matches!(
            read_labelling(buf.as_slice()),
            Err(SnapshotError::Truncated {
                section: "entry counts"
            })
        ));
        // n past the vertex-id space is a header error outright.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BHL3");
        buf.extend_from_slice(&(u64::MAX).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_labelling(buf.as_slice()),
            Err(SnapshotError::Header { .. })
        ));
        // An absurd landmark count is rejected before any allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BHL3");
        buf.extend_from_slice(&4u64.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 32).to_le_bytes());
        assert!(matches!(
            read_labelling(buf.as_slice()),
            Err(SnapshotError::Header { .. })
        ));
    }

    #[test]
    fn snapshot_is_deterministic() {
        let g = barabasi_albert(100, 2, 3);
        let lab = build_labelling(&g, LandmarkSelection::TopDegree(4).select(&g)).unwrap();
        let mut a = Vec::new();
        let mut b = Vec::new();
        write_labelling(&lab, &mut a).unwrap();
        write_labelling(&lab, &mut b).unwrap();
        assert_eq!(a, b);
    }
}
