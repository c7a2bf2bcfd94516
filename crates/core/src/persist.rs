//! `BHL2` full-oracle checkpoints: persistence for every index family.
//!
//! The labelling-only snapshot (`batchhl_hcl::serde_io`) saves
//! reconstruction work but still forces a restarted process to re-read
//! the graph from its original source and re-derive everything else. A
//! `BHL2` checkpoint serializes the *complete* oracle state — the graph
//! in CSR shape ([`batchhl_graph::io`]), the labelling(s), the
//! materialized landmark set (inside each labelling block), the update
//! configuration and the generation metadata — so `load` yields an
//! index that answers and maintains identically to the one that was
//! saved.
//!
//! # Layout (all integers little-endian)
//!
//! ```text
//! magic "BHL2" | u8 format = 2 | u8 family | u8 ×2 reserved (0)
//! u64 batch_seq | u64 published_version
//! family body:
//!   undirected: u8 algorithm | u32 threads | f32 fraction | u64 min_entries
//!               | u64 len | BGU2 graph | u64 len | BHL3 labelling
//!   directed:   u8 algorithm | u32 threads | f32 fraction | u64 min_entries
//!               | u64 len | BGD2 graph | u64 len | BHL3 forward
//!               | u64 len | BHL3 backward
//!   weighted:   u8 algorithm | u32 threads | f32 fraction | u64 min_entries
//!               | u64 len | BGW2 graph | u64 len | BHL3 labelling
//! u32 CRC-32 over every preceding byte (magic included)
//! ```
//!
//! Family codes are 0 (undirected), 1 (directed) and 3 (weighted).
//! Code 2 is the weighted body written before the weighted family
//! honoured [`Algorithm`]: it has no algorithm byte, is still read, and
//! loads with the default algorithm.
//!
//! Every embedded block is length-prefixed, so a corrupt block cannot
//! silently consume the sections after it, and the whole file is sealed
//! with a CRC-32 trailer: a checkpoint either decodes to exactly the
//! bytes that were written or fails with a typed [`PersistError`].
//!
//! The embedded labelling block carries its own magic: new checkpoints
//! write the packed `BHL3` layout, while the labelling reader also
//! accepts the legacy dense `BHL1` block, so checkpoints written before
//! the packed layout keep loading without a container version bump —
//! the container framing itself is unchanged (format stays 2).
//!
//! # Recovery semantics
//!
//! A checkpoint captures the state as of `batch_seq` committed batches.
//! The batch write-ahead log ([`crate::wal`]) holds the edits committed
//! *since*; `DistanceOracle::open` (the facade crate) loads the newest
//! checkpoint and replays the WAL tail on top of it. Loading restarts
//! generation numbering at 0 — `published_version` records the old
//! counter for diagnostics, but reader handles never survive a restart,
//! so nothing can observe the reset.

use crate::backend::{Backend, BackendFamily, OracleError};
use crate::directed::DirectedSnapshot;
use crate::family::Family;
use crate::index::{Algorithm, CompactionPolicy, Index, IndexConfig, IndexSnapshot};
use crate::weighted::WeightedSnapshot;
use batchhl_common::{binio, Crc32Reader, Crc32Writer};
use batchhl_graph::io::BinGraphError;
use batchhl_hcl::serde_io::{
    labelling_encoded_len, read_labelling, write_labelling, SnapshotError,
};
use batchhl_hcl::{LabelError, LandmarkSelection};
use std::fmt;
use std::io::{self, Read, Write};

pub(crate) const MAGIC: &[u8; 4] = b"BHL2";
pub(crate) const FORMAT_VERSION: u8 = 2;

/// Why a checkpoint or WAL operation failed.
#[derive(Debug)]
pub enum PersistError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The stream does not start with the expected magic.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// The format version byte names a version this build cannot read.
    UnsupportedVersion { found: u8 },
    /// The stream ended before the section the header promised.
    Truncated { section: &'static str },
    /// A header field is out of its documented range.
    Header { reason: String },
    /// The CRC-32 trailer disagrees with the bytes that were read.
    ChecksumMismatch { expected: u32, found: u32 },
    /// An embedded graph block failed to decode.
    Graph(BinGraphError),
    /// An embedded labelling block failed to decode.
    Snapshot(SnapshotError),
    /// The decoded parts do not assemble into a valid index.
    Label(LabelError),
    /// Replaying a WAL record onto the loaded backend was refused.
    Replay(OracleError),
    /// A WAL record is structurally corrupt (not merely torn at the
    /// tail — see [`crate::wal`] for the distinction).
    WalCorrupt { offset: u64, reason: String },
    /// An append was refused because the encoded record would exceed
    /// the reader's [`crate::wal`] payload bound — writing it would
    /// produce a log our own recovery refuses as corrupt.
    RecordTooLarge { len: u64, max: u64 },
    /// `open` was pointed at a directory with no checkpoint in it.
    MissingCheckpoint { path: String },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(e) => write!(f, "persistence I/O error: {e}"),
            PersistError::BadMagic { expected, found } => write!(
                f,
                "bad checkpoint magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found),
            ),
            PersistError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint format version {found}")
            }
            PersistError::Truncated { section } => {
                write!(f, "checkpoint truncated while reading {section}")
            }
            PersistError::Header { reason } => write!(f, "invalid checkpoint header: {reason}"),
            PersistError::ChecksumMismatch { expected, found } => write!(
                f,
                "checkpoint checksum mismatch: trailer {expected:#010x}, computed {found:#010x}"
            ),
            PersistError::Graph(e) => write!(f, "checkpoint graph block: {e}"),
            PersistError::Snapshot(e) => write!(f, "checkpoint labelling block: {e}"),
            PersistError::Label(e) => write!(f, "checkpoint parts rejected: {e}"),
            PersistError::Replay(e) => write!(f, "WAL replay refused: {e}"),
            PersistError::WalCorrupt { offset, reason } => {
                write!(f, "WAL corrupt at byte {offset}: {reason}")
            }
            PersistError::RecordTooLarge { len, max } => {
                write!(
                    f,
                    "WAL record payload of {len} bytes exceeds the {max}-byte bound"
                )
            }
            PersistError::MissingCheckpoint { path } => {
                write!(f, "no checkpoint found at {path}")
            }
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io(e) => Some(e),
            PersistError::Graph(e) => Some(e),
            PersistError::Snapshot(e) => Some(e),
            PersistError::Label(e) => Some(e),
            PersistError::Replay(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

impl From<BinGraphError> for PersistError {
    fn from(e: BinGraphError) -> Self {
        PersistError::Graph(e)
    }
}

impl From<SnapshotError> for PersistError {
    fn from(e: SnapshotError) -> Self {
        PersistError::Snapshot(e)
    }
}

impl From<LabelError> for PersistError {
    fn from(e: LabelError) -> Self {
        PersistError::Label(e)
    }
}

/// Generation metadata carried by a checkpoint: how many batches the
/// saved state includes (the WAL replay cursor) and the generation
/// counter at save time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CheckpointMeta {
    /// Committed batches included in the checkpoint. WAL records with a
    /// sequence number `>= batch_seq` are *not* reflected and must be
    /// replayed on load.
    pub batch_seq: u64,
    /// The published generation version at save time (informational;
    /// generation numbering restarts at 0 on load).
    pub version: u64,
}

/// Serialize `backend` (plus `meta`) as a `BHL2` checkpoint.
pub fn write_checkpoint<W: Write>(
    backend: &dyn Backend,
    meta: CheckpointMeta,
    out: W,
) -> Result<(), PersistError> {
    let mut w = Crc32Writer::new(out);
    w.write_all(MAGIC)?;
    w.write_all(&[FORMAT_VERSION, family_code(backend.family()), 0, 0])?;
    w.write_all(&meta.batch_seq.to_le_bytes())?;
    w.write_all(&meta.version.to_le_bytes())?;
    backend.save(&mut w)?;
    let sum = w.sum();
    let mut out = w.into_inner();
    out.write_all(&sum.to_le_bytes())?;
    out.flush()?;
    Ok(())
}

/// Deserialize a `BHL2` checkpoint into a backend + its metadata.
///
/// Validates the magic, format version, family byte, every section
/// length, the structural invariants of each decoded part, and finally
/// the CRC-32 trailer over the whole stream.
pub fn read_checkpoint<R: Read>(r: R) -> Result<(Box<dyn Backend>, CheckpointMeta), PersistError> {
    let mut r = Crc32Reader::new(r);
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|e| truncated(e, "magic"))?;
    if &magic != MAGIC {
        return Err(PersistError::BadMagic {
            expected: *MAGIC,
            found: magic,
        });
    }
    let mut head = [0u8; 4];
    r.read_exact(&mut head)
        .map_err(|e| truncated(e, "header"))?;
    if head[0] != FORMAT_VERSION {
        return Err(PersistError::UnsupportedVersion { found: head[0] });
    }
    let family = head[1];
    let meta = CheckpointMeta {
        batch_seq: read_u64(&mut r, "header")?,
        version: read_u64(&mut r, "header")?,
    };
    let backend: Box<dyn Backend> = match family {
        0 => Box::new(load_body::<IndexSnapshot, _>(&mut r, true)?),
        1 => Box::new(load_body::<DirectedSnapshot, _>(&mut r, true)?),
        2 => Box::new(load_body::<WeightedSnapshot, _>(&mut r, false)?),
        3 => Box::new(load_body::<WeightedSnapshot, _>(&mut r, true)?),
        other => {
            return Err(PersistError::Header {
                reason: format!("unknown backend family code {other}"),
            })
        }
    };
    // The trailer is read from the inner stream so it is not digested.
    let computed = r.sum();
    let mut trailer = [0u8; 4];
    r.get_mut()
        .read_exact(&mut trailer)
        .map_err(|e| truncated(e, "checksum trailer"))?;
    let expected = u32::from_le_bytes(trailer);
    if expected != computed {
        return Err(PersistError::ChecksumMismatch {
            expected,
            found: computed,
        });
    }
    Ok((backend, meta))
}

pub(crate) fn family_code(family: BackendFamily) -> u8 {
    match family {
        BackendFamily::Undirected => 0,
        BackendFamily::Directed => 1,
        BackendFamily::Weighted => 3,
    }
}

fn algorithm_code(a: Algorithm) -> u8 {
    match a {
        Algorithm::Bhl => 0,
        Algorithm::BhlPlus => 1,
        Algorithm::BhlS => 2,
        Algorithm::Uhl => 3,
        Algorithm::UhlPlus => 4,
    }
}

fn algorithm_from_code(c: u8) -> Result<Algorithm, PersistError> {
    Ok(match c {
        0 => Algorithm::Bhl,
        1 => Algorithm::BhlPlus,
        2 => Algorithm::BhlS,
        3 => Algorithm::Uhl,
        4 => Algorithm::UhlPlus,
        other => {
            return Err(PersistError::Header {
                reason: format!("unknown algorithm code {other}"),
            })
        }
    })
}

fn truncated(e: io::Error, section: &'static str) -> PersistError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        PersistError::Truncated { section }
    } else {
        PersistError::Io(e)
    }
}

fn read_u64<R: Read>(r: &mut R, section: &'static str) -> Result<u64, PersistError> {
    binio::read_u64(r, |e| truncated(e, section))
}

fn read_u32<R: Read>(r: &mut R, section: &'static str) -> Result<u32, PersistError> {
    binio::read_u32(r, |e| truncated(e, section))
}

fn read_u8<R: Read>(r: &mut R, section: &'static str) -> Result<u8, PersistError> {
    let mut b = [0u8; 1];
    r.read_exact(&mut b).map_err(|e| truncated(e, section))?;
    Ok(b[0])
}

/// Run `f` over exactly `len` bytes of `r`; trailing unconsumed bytes
/// are a typed error (a block that lied about its length).
fn read_section<R: Read, T>(
    r: &mut R,
    len: u64,
    what: &'static str,
    f: impl FnOnce(&mut io::Take<&mut R>) -> Result<T, PersistError>,
) -> Result<T, PersistError> {
    let mut sect = r.take(len);
    let v = f(&mut sect)?;
    if sect.limit() != 0 {
        return Err(PersistError::Header {
            reason: format!("{what} section left {} undecoded bytes", sect.limit()),
        });
    }
    Ok(v)
}

// ---------------------------------------------------------------------
// The family body (the meat of `Backend::save`): config, graph block,
// one labelling block per labelling.
// ---------------------------------------------------------------------

pub(crate) fn save_body<F: Family>(
    index: &Index<F>,
    out: &mut dyn Write,
) -> Result<(), PersistError> {
    let config = index.config();
    out.write_all(&[algorithm_code(config.algorithm)])?;
    out.write_all(&(config.threads as u32).to_le_bytes())?;
    out.write_all(&config.compaction.fraction.to_le_bytes())?;
    out.write_all(&(config.compaction.min_entries as u64).to_le_bytes())?;
    F::write_graph(index.generation().view(), out)?;
    for lab in index.generation().labellings() {
        out.write_all(&labelling_encoded_len(lab).to_le_bytes())?;
        write_labelling(lab, &mut *out)?;
    }
    Ok(())
}

/// `has_algorithm` is false only for the legacy weighted body.
fn load_body<F: Family, R: Read>(r: &mut R, has_algorithm: bool) -> Result<Index<F>, PersistError> {
    let algorithm = if has_algorithm {
        algorithm_from_code(read_u8(r, "config")?)?
    } else {
        IndexConfig::default().algorithm
    };
    let threads = read_u32(r, "config")? as usize;
    let fraction = f32::from_bits(read_u32(r, "config")?);
    let min_entries = read_u64(r, "config")? as usize;
    let glen = read_u64(r, "graph length")?;
    let view = read_section(r, glen, "graph", |s| Ok(F::read_graph(s)?))?;
    let mut labs = Vec::with_capacity(F::LABELLINGS);
    for _ in 0..F::LABELLINGS {
        let len = read_u64(r, "labelling length")?;
        labs.push(read_section(r, len, "labelling", |s| {
            Ok(read_labelling(s)?)
        })?);
    }
    let config = IndexConfig {
        selection: LandmarkSelection::Explicit(labs[0].landmarks().to_vec()),
        algorithm,
        threads: threads.max(1),
        compaction: CompactionPolicy::new(fraction, min_entries),
    };
    let labels = F::Labels::try_from(labs).expect("one block per labelling was read");
    Ok(Index::from_view(view, labels, config)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{build_backend, GraphSource};
    use batchhl_graph::generators::barabasi_albert;
    use batchhl_graph::weighted::WeightedGraph;
    use batchhl_graph::DynamicDiGraph;

    fn sources() -> Vec<GraphSource> {
        let und = barabasi_albert(80, 3, 11);
        let mut dir = DynamicDiGraph::new(40);
        let mut wtd = WeightedGraph::new(40);
        for (u, v) in barabasi_albert(40, 2, 5).edges() {
            dir.insert_edge(u, v);
            if (u + v) % 3 != 0 {
                dir.insert_edge(v, u);
            }
            wtd.insert_edge(u, v, 1 + (u + 2 * v) % 5);
        }
        vec![
            GraphSource::Undirected(und),
            GraphSource::Directed(dir),
            GraphSource::Weighted(wtd),
        ]
    }

    #[test]
    fn checkpoint_roundtrips_all_families() {
        for source in sources() {
            let family = source.family();
            let config = IndexConfig {
                selection: LandmarkSelection::TopDegree(4),
                algorithm: Algorithm::BhlPlus,
                threads: 2,
                compaction: CompactionPolicy::new(0.5, 16),
            };
            let mut backend = build_backend(source, config).unwrap();
            let meta = CheckpointMeta {
                batch_seq: 7,
                version: 3,
            };
            let mut buf = Vec::new();
            write_checkpoint(backend.as_ref(), meta, &mut buf).unwrap();
            let (mut loaded, got_meta) = read_checkpoint(buf.as_slice()).unwrap();
            assert_eq!(got_meta, meta, "{family}");
            assert_eq!(loaded.family(), family);
            assert_eq!(loaded.num_vertices(), backend.num_vertices());
            let n = backend.num_vertices() as u32;
            for s in (0..n).step_by(3) {
                for t in (0..n).step_by(7) {
                    assert_eq!(
                        loaded.query(s, t),
                        backend.query(s, t),
                        "{family} ({s},{t})"
                    );
                }
            }
            // Serialization is deterministic: save(load(x)) == x.
            let mut again = Vec::new();
            write_checkpoint(loaded.as_ref(), got_meta, &mut again).unwrap();
            assert_eq!(again, buf, "{family}: byte-stable reserialization");
        }
    }

    #[test]
    fn corruption_yields_typed_errors() {
        let config = crate::index::testing::config(Algorithm::BhlPlus, 3);
        let backend =
            build_backend(GraphSource::Undirected(barabasi_albert(30, 2, 3)), config).unwrap();
        let mut buf = Vec::new();
        write_checkpoint(backend.as_ref(), CheckpointMeta::default(), &mut buf).unwrap();

        assert!(matches!(
            read_checkpoint(&b"NOPE"[..]),
            Err(PersistError::BadMagic { .. })
        ));
        let mut v = buf.clone();
        v[4] = 9; // format version
        assert!(matches!(
            read_checkpoint(v.as_slice()),
            Err(PersistError::UnsupportedVersion { found: 9 })
        ));
        let mut v = buf.clone();
        v[5] = 7; // family code
        assert!(matches!(
            read_checkpoint(v.as_slice()),
            Err(PersistError::Header { .. })
        ));
        // A flipped payload byte is caught by the CRC trailer (flip a
        // label byte deep in the body — structure still parses).
        let mut v = buf.clone();
        let deep = v.len() - 10;
        v[deep] ^= 0x01;
        let err = read_checkpoint(v.as_slice()).map(|_| ()).unwrap_err();
        assert!(
            matches!(err, PersistError::ChecksumMismatch { .. }),
            "got {err:?}"
        );
        // Truncation anywhere is typed, never a panic.
        for cut in [3, 9, 17, buf.len() / 2, buf.len() - 1] {
            assert!(
                read_checkpoint(&buf[..cut]).is_err(),
                "cut at {cut} must fail"
            );
        }
    }
}
