//! Graph I/O: SNAP-style edge lists and binary CSR snapshot blocks.
//!
//! # Edge lists
//!
//! The paper's datasets ship as whitespace-separated edge lists with `#`
//! comment lines (SNAP), occasionally `%` (KONECT). The reader accepts
//! both, is buffered, and sizes the graph to the largest vertex id seen,
//! so real datasets can be dropped into the benchmark harness in place
//! of the synthetic stand-ins when available.
//!
//! # Binary CSR blocks (the `BHL2` graph sections)
//!
//! The full-oracle `BHL2` checkpoint format (`batchhl_core::persist`)
//! embeds one graph per index family, serialized here in CSR shape —
//! a degree array followed by the concatenated sorted adjacency — so a
//! load is a few bulk reads instead of `m` edge insertions. Layouts
//! (all integers little-endian):
//!
//! ```text
//! undirected "BGU2": magic | u64 n | u64 m | n × u32 degree
//!                    | 2m × u32 neighbours (per-vertex sorted runs)
//! directed   "BGD2": magic | u64 n | u64 m | n × u32 out-degree
//!                    | m × u32 out-neighbours (in-lists are rebuilt)
//! weighted   "BGW2": magic | u64 n | u64 m | n × u32 degree
//!                    | 2m × (u32 neighbour, u32 weight)
//! ```
//!
//! Readers treat the input as hostile: magic, degree sums and every
//! vertex id are validated with a typed [`BinGraphError`], bulk
//! payloads are read in bounded chunks (a corrupt `u64 n` fails with
//! [`BinGraphError::Truncated`] instead of a multi-GB allocation), and
//! the decoded lists pass the same structural validation the dynamic
//! graphs enforce on every mutation.

use crate::digraph::DynamicDiGraph;
use crate::graph::DynamicGraph;
use crate::weighted::{Weight, WeightedAdjacencyView, WeightedGraph};
use crate::AdjacencyView;
use batchhl_common::{binio, Vertex};
use std::fmt;
use std::io::{self, BufRead, BufWriter, Read, Write};
use std::path::Path;

/// Parse a whitespace-separated edge list. Lines starting with `#` or
/// `%` (or empty) are skipped. Extra columns (timestamps, weights) are
/// ignored.
pub fn parse_edge_list<R: BufRead>(reader: R) -> io::Result<Vec<(Vertex, Vertex)>> {
    let mut edges = Vec::new();
    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut it = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> io::Result<Vertex> {
            tok.ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: expected two vertex ids", lineno + 1),
                )
            })?
            .parse::<Vertex>()
            .map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("line {}: {e}", lineno + 1),
                )
            })
        };
        let u = parse(it.next())?;
        let v = parse(it.next())?;
        edges.push((u, v));
    }
    Ok(edges)
}

/// Read an undirected graph from an edge-list file.
pub fn read_graph<P: AsRef<Path>>(path: P) -> io::Result<DynamicGraph> {
    let file = std::fs::File::open(path)?;
    let edges = parse_edge_list(io::BufReader::new(file))?;
    Ok(DynamicGraph::from_edges_auto(&edges))
}

/// Read a directed graph from an edge-list file.
pub fn read_digraph<P: AsRef<Path>>(path: P) -> io::Result<DynamicDiGraph> {
    let file = std::fs::File::open(path)?;
    let edges = parse_edge_list(io::BufReader::new(file))?;
    let n = edges
        .iter()
        .map(|&(u, v)| u.max(v) as usize + 1)
        .max()
        .unwrap_or(0);
    Ok(DynamicDiGraph::from_edges(n, &edges))
}

/// Write an undirected graph as a canonical edge list (`u < v`, one edge
/// per line), buffered.
pub fn write_graph<W: Write>(g: &DynamicGraph, writer: W) -> io::Result<()> {
    let mut out = BufWriter::new(writer);
    writeln!(
        out,
        "# undirected, {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    for (u, v) in g.edges() {
        writeln!(out, "{u}\t{v}")?;
    }
    out.flush()
}

const MAGIC_UND: &[u8; 4] = b"BGU2";
const MAGIC_DIR: &[u8; 4] = b"BGD2";
const MAGIC_WTD: &[u8; 4] = b"BGW2";

use batchhl_common::binio::CHUNK_ENTRIES;

/// Why a binary CSR graph block could not be decoded.
#[derive(Debug)]
pub enum BinGraphError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The block does not start with the expected magic.
    BadMagic { expected: [u8; 4], found: [u8; 4] },
    /// The stream ended before the section the header promised.
    Truncated { section: &'static str },
    /// A header field is out of its documented range (e.g. degree sum
    /// disagreeing with the edge count).
    Header { reason: String },
    /// The decoded adjacency fails structural validation (unsorted,
    /// unmirrored, self-loop, dangling id…).
    Invalid { reason: String },
}

impl fmt::Display for BinGraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinGraphError::Io(e) => write!(f, "graph block I/O error: {e}"),
            BinGraphError::BadMagic { expected, found } => write!(
                f,
                "bad graph magic: expected {:?}, found {:?}",
                String::from_utf8_lossy(expected),
                String::from_utf8_lossy(found),
            ),
            BinGraphError::Truncated { section } => {
                write!(f, "graph block truncated while reading {section}")
            }
            BinGraphError::Header { reason } => write!(f, "invalid graph header: {reason}"),
            BinGraphError::Invalid { reason } => write!(f, "invalid graph structure: {reason}"),
        }
    }
}

impl std::error::Error for BinGraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BinGraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for BinGraphError {
    fn from(e: io::Error) -> Self {
        BinGraphError::Io(e)
    }
}

fn bin_truncated(e: io::Error, section: &'static str) -> BinGraphError {
    if e.kind() == io::ErrorKind::UnexpectedEof {
        BinGraphError::Truncated { section }
    } else {
        BinGraphError::Io(e)
    }
}

fn read_bin_u64<R: Read>(r: &mut R, section: &'static str) -> Result<u64, BinGraphError> {
    binio::read_u64(r, |e| bin_truncated(e, section))
}

/// Read `count` little-endian `u32`s in bounded chunks ([`binio`]), so
/// a corrupt header cannot force a huge up-front allocation.
fn read_bin_u32s<R: Read>(
    r: &mut R,
    count: usize,
    section: &'static str,
) -> Result<Vec<u32>, BinGraphError> {
    binio::read_u32s(r, count, |e| bin_truncated(e, section))
}

/// Validate the CSR header triple shared by all three block kinds and
/// return the degree array.
fn read_degree_header<R: Read>(
    r: &mut R,
    half_edges_expected: impl Fn(u64) -> Option<u64>,
) -> Result<(usize, u64, Vec<u32>), BinGraphError> {
    let n = read_bin_u64(r, "header")?;
    let m = read_bin_u64(r, "header")?;
    if n > u32::MAX as u64 {
        return Err(BinGraphError::Header {
            reason: format!("vertex count {n} exceeds the u32 vertex-id space"),
        });
    }
    // Checked on the untrusted header value: an absurd m must be a
    // typed error, not a (debug-build) multiplication overflow.
    let want = half_edges_expected(m).ok_or_else(|| BinGraphError::Header {
        reason: format!("edge count {m} overflows the half-edge space"),
    })?;
    let degrees = read_bin_u32s(r, n as usize, "degree array")?;
    let sum: u64 = degrees.iter().map(|&d| d as u64).sum();
    if sum != want {
        return Err(BinGraphError::Header {
            reason: format!("degree sum {sum} disagrees with edge count {m} (expected {want})"),
        });
    }
    Ok((n as usize, m, degrees))
}

/// Write an undirected graph (a dynamic graph or a CSR view of one) as
/// a `BGU2` CSR block.
pub fn write_graph_bin<A: AdjacencyView + ?Sized, W: Write>(g: &A, out: W) -> io::Result<()> {
    write_csr_block(MAGIC_UND, g.num_vertices(), half_edges(g) / 2, out, |v| {
        g.out_neighbors(v).iter().map(|&w| [w])
    })
}

/// The number of bytes [`write_graph_bin`] emits for `g`.
pub fn graph_bin_len<A: AdjacencyView + ?Sized>(g: &A) -> u64 {
    4 + 8 + 8 + 4 * g.num_vertices() as u64 + 4 * half_edges(g) as u64
}

/// `Σ_v |out(v)|`: twice the edge count of an undirected graph, the arc
/// count of a directed one.
fn half_edges<A: AdjacencyView + ?Sized>(g: &A) -> usize {
    (0..g.num_vertices() as Vertex)
        .map(|v| g.out_degree(v))
        .sum()
}

/// A CSR block: magic, `n`, `m`, the degree array, then every vertex's
/// list, each entry as the `u32` words `words` yields.
fn write_csr_block<W: Write, const K: usize, I: ExactSizeIterator<Item = [u32; K]>>(
    magic: &[u8; 4],
    n: usize,
    m: usize,
    mut out: W,
    words: impl Fn(Vertex) -> I,
) -> io::Result<()> {
    out.write_all(magic)?;
    out.write_all(&(n as u64).to_le_bytes())?;
    out.write_all(&(m as u64).to_le_bytes())?;
    for v in 0..n as Vertex {
        out.write_all(&(words(v).len() as u32).to_le_bytes())?;
    }
    for v in 0..n as Vertex {
        for entry in words(v) {
            for w in entry {
                out.write_all(&w.to_le_bytes())?;
            }
        }
    }
    Ok(())
}

/// Read a `BGU2` CSR block back into a [`DynamicGraph`].
pub fn read_graph_bin<R: Read>(mut r: R) -> Result<DynamicGraph, BinGraphError> {
    read_block_magic(&mut r, MAGIC_UND)?;
    let (n, _m, degrees) = read_degree_header(&mut r, |m| m.checked_mul(2))?;
    let mut adj = Vec::with_capacity(n.min(CHUNK_ENTRIES));
    for &d in &degrees {
        adj.push(read_bin_u32s(&mut r, d as usize, "adjacency")?);
    }
    DynamicGraph::try_from_adjacency(adj).map_err(|reason| BinGraphError::Invalid { reason })
}

/// Write a directed graph (or a view of it) as a `BGD2` CSR block
/// (out-direction only; in-lists are rebuilt on load).
pub fn write_digraph_bin<A: AdjacencyView + ?Sized, W: Write>(g: &A, out: W) -> io::Result<()> {
    write_csr_block(MAGIC_DIR, g.num_vertices(), half_edges(g), out, |v| {
        g.out_neighbors(v).iter().map(|&w| [w])
    })
}

/// The number of bytes [`write_digraph_bin`] emits for `g`.
pub fn digraph_bin_len<A: AdjacencyView + ?Sized>(g: &A) -> u64 {
    4 + 8 + 8 + 4 * g.num_vertices() as u64 + 4 * half_edges(g) as u64
}

/// Read a `BGD2` CSR block back into a [`DynamicDiGraph`].
pub fn read_digraph_bin<R: Read>(mut r: R) -> Result<DynamicDiGraph, BinGraphError> {
    read_block_magic(&mut r, MAGIC_DIR)?;
    let (n, _m, degrees) = read_degree_header(&mut r, Some)?;
    let mut out = Vec::with_capacity(n.min(CHUNK_ENTRIES));
    for &d in &degrees {
        out.push(read_bin_u32s(&mut r, d as usize, "adjacency")?);
    }
    DynamicDiGraph::try_from_out_adjacency(out).map_err(|reason| BinGraphError::Invalid { reason })
}

/// Write a weighted graph (or a view of it) as a `BGW2` CSR block.
pub fn write_weighted_bin<G: WeightedAdjacencyView + ?Sized, W: Write>(
    g: &G,
    out: W,
) -> io::Result<()> {
    write_csr_block(
        MAGIC_WTD,
        g.num_vertices(),
        weighted_half_edges(g) / 2,
        out,
        |v| g.weighted_neighbors(v).iter().map(|&(w, wt)| [w, wt]),
    )
}

/// The number of bytes [`write_weighted_bin`] emits for `g`.
pub fn weighted_bin_len<G: WeightedAdjacencyView + ?Sized>(g: &G) -> u64 {
    4 + 8 + 8 + 4 * g.num_vertices() as u64 + 8 * weighted_half_edges(g) as u64
}

fn weighted_half_edges<G: WeightedAdjacencyView + ?Sized>(g: &G) -> usize {
    (0..g.num_vertices() as Vertex)
        .map(|v| g.weighted_degree(v))
        .sum()
}

/// Read a `BGW2` CSR block back into a [`WeightedGraph`].
pub fn read_weighted_bin<R: Read>(mut r: R) -> Result<WeightedGraph, BinGraphError> {
    read_block_magic(&mut r, MAGIC_WTD)?;
    let (n, _m, degrees) = read_degree_header(&mut r, |m| m.checked_mul(2))?;
    let mut adj = Vec::with_capacity(n.min(CHUNK_ENTRIES));
    for &d in &degrees {
        let flat = read_bin_u32s(&mut r, d as usize * 2, "adjacency")?;
        adj.push(
            flat.chunks_exact(2)
                .map(|p| (p[0] as Vertex, p[1] as Weight))
                .collect::<Vec<_>>(),
        );
    }
    WeightedGraph::try_from_adjacency(adj).map_err(|reason| BinGraphError::Invalid { reason })
}

fn read_block_magic<R: Read>(r: &mut R, expected: &[u8; 4]) -> Result<(), BinGraphError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)
        .map_err(|e| bin_truncated(e, "magic"))?;
    if &magic != expected {
        return Err(BinGraphError::BadMagic {
            expected: *expected,
            found: magic,
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_and_extra_columns() {
        let text = "# SNAP header\n% konect header\n\n0 1\n1\t2\t1655000000\n 2 3 \n";
        let edges = parse_edge_list(text.as_bytes()).unwrap();
        assert_eq!(edges, vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse_edge_list("0 x\n".as_bytes()).is_err());
        assert!(parse_edge_list("42\n".as_bytes()).is_err());
    }

    #[test]
    fn write_read_roundtrip() {
        let g = DynamicGraph::from_edges(5, &[(0, 4), (1, 2), (2, 3)]);
        let mut buf = Vec::new();
        write_graph(&g, &mut buf).unwrap();
        let edges = parse_edge_list(buf.as_slice()).unwrap();
        let g2 = DynamicGraph::from_edges(5, &edges);
        assert_eq!(g, g2);
    }

    #[test]
    fn binary_blocks_roundtrip_all_families() {
        let und = DynamicGraph::from_edges(6, &[(0, 4), (1, 2), (2, 3), (0, 5)]);
        let mut buf = Vec::new();
        write_graph_bin(&und, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, graph_bin_len(&und));
        assert_eq!(read_graph_bin(buf.as_slice()).unwrap(), und);

        let dir = DynamicDiGraph::from_edges(5, &[(0, 1), (1, 0), (3, 2), (4, 1)]);
        let mut buf = Vec::new();
        write_digraph_bin(&dir, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, digraph_bin_len(&dir));
        assert_eq!(read_digraph_bin(buf.as_slice()).unwrap(), dir);

        let wtd = WeightedGraph::from_edges(5, &[(0, 1, 3), (1, 2, 1), (0, 4, 9)]);
        let mut buf = Vec::new();
        write_weighted_bin(&wtd, &mut buf).unwrap();
        assert_eq!(buf.len() as u64, weighted_bin_len(&wtd));
        assert_eq!(read_weighted_bin(buf.as_slice()).unwrap(), wtd);
    }

    #[test]
    fn binary_blocks_reject_corruption_with_typed_errors() {
        // Wrong magic.
        assert!(matches!(
            read_graph_bin(&b"XXXX"[..]),
            Err(BinGraphError::BadMagic { .. })
        ));
        // Truncated mid-header.
        assert!(matches!(
            read_graph_bin(&b"BGU2\x01\x02"[..]),
            Err(BinGraphError::Truncated { .. })
        ));
        // Huge n with a short stream must fail without a giant
        // allocation (chunked reads hit EOF first).
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BGU2");
        buf.extend_from_slice(&(1u64 << 30).to_le_bytes()); // n = 2^30
        buf.extend_from_slice(&0u64.to_le_bytes()); // m
        buf.extend_from_slice(&[0u8; 256]);
        assert!(matches!(
            read_graph_bin(buf.as_slice()),
            Err(BinGraphError::Truncated { .. })
        ));
        // n beyond the u32 id space is rejected at the header.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BGU2");
        buf.extend_from_slice(&(1u64 << 41).to_le_bytes());
        buf.extend_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            read_graph_bin(buf.as_slice()),
            Err(BinGraphError::Header { .. })
        ));
        // An edge count that would overflow the half-edge computation
        // is a typed header error, not an arithmetic panic.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BGU2");
        buf.extend_from_slice(&0u64.to_le_bytes()); // n = 0
        buf.extend_from_slice(&(1u64 << 63).to_le_bytes()); // m = 2^63
        assert!(matches!(
            read_graph_bin(buf.as_slice()),
            Err(BinGraphError::Header { .. })
        ));
        // Degree sum contradicting the edge count.
        let g = DynamicGraph::from_edges(3, &[(0, 1)]);
        let mut buf = Vec::new();
        write_graph_bin(&g, &mut buf).unwrap();
        buf[12] = 9; // m = 9, degrees still sum to 2
        assert!(matches!(
            read_graph_bin(buf.as_slice()),
            Err(BinGraphError::Header { .. })
        ));
        // Unmirrored adjacency is caught by structural validation.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"BGU2");
        buf.extend_from_slice(&2u64.to_le_bytes()); // n = 2
        buf.extend_from_slice(&1u64.to_le_bytes()); // m = 1
        buf.extend_from_slice(&2u32.to_le_bytes()); // deg(0) = 2
        buf.extend_from_slice(&0u32.to_le_bytes()); // deg(1) = 0
        buf.extend_from_slice(&1u32.to_le_bytes()); // 0 → 1 …
        buf.extend_from_slice(&1u32.to_le_bytes()); // … twice, unsorted+unmirrored
        assert!(matches!(
            read_graph_bin(buf.as_slice()),
            Err(BinGraphError::Invalid { .. })
        ));
    }
}
