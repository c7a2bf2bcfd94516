//! Highway cover labelling (Definitions 3.2–3.4 of the BatchHL paper).
//!
//! A highway cover labelling `Γ = (H, L)` consists of
//!
//! * a **highway** `H = (R, δ_H)`: a set of landmarks `R` together with
//!   their exact pairwise distances, and
//! * a **distance labelling** `L`: per vertex `v`, entries `(r, d_G(r, v))`
//!   for exactly those landmarks `r` such that *no* shortest path between
//!   `r` and `v` passes through another landmark (the unique *minimal*
//!   labelling — Definition 3.4 and \[17]).
//!
//! Unlike a 2-hop cover (full) labelling, this is a *partial* labelling:
//! it answers landmark–vertex distances exactly (Eq. 2) and provides an
//! upper bound `d⊤` for arbitrary pairs (Eq. 3) that a distance-bounded
//! bidirectional BFS on the landmark-free subgraph `G[V \ R]` turns into
//! an exact answer (Section 4).
//!
//! Modules:
//!
//! * [`labelling`] — the labelling value (packed rows + highway, shared
//!   between generations) and the `d^L` landmark-distance oracle,
//! * [`landmarks`] — landmark-selection strategies,
//! * [`packed`] — the packed vertex-major layout a labelling is stored
//!   in: per-vertex label rows with ascending landmark ids and
//!   width-narrowed distances (u8/u16 tiers, u32 escape), plus the
//!   width-narrowed highway matrix; patched row by row as generations
//!   are published,
//! * [`kernel`] — SIMD min-plus kernels (SSE2/AVX2 with runtime
//!   detection, branch-free scalar default) serving the Eq. 3 scans,
//! * [`build`] — construction by flagged BFS (sequential and parallel),
//! * [`query`] — the one Section 4 query path (Eq. 3 bound + bounded
//!   search), generic over [`LabelView`] labels and the graph crate's
//!   `BoundedSearch` engines,
//! * [`patch`] — the per-landmark repair deltas ([`RowDelta`]), the
//!   scoped label patches built from them and the [`PatchedLabels`]
//!   merge view that what-if sessions query through,
//! * [`store`] — the generation-based shared label store: immutable
//!   published snapshots, lock-free reader handles, atomic-swap
//!   publication (the substrate of concurrent query serving),
//! * [`oracle`] — brute-force reference implementations used by tests.
//!
//! `unsafe` appears only in the SIMD kernels of [`kernel`]; the lints
//! below make every unsafe operation sit in an explicit block with a
//! `// SAFETY:` comment, even inside `unsafe fn`.

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod build;
pub mod kernel;
pub mod labelling;
pub mod landmarks;
pub mod oracle;
pub mod packed;
pub mod patch;
pub mod query;
pub mod serde_io;
pub mod store;

pub use build::{build_labelling, build_labelling_parallel};
pub use kernel::{active_kernel, Kernel};
pub use labelling::{LabelError, LabelView, Labelling, NO_LABEL};
pub use landmarks::{DegreeOrder, LandmarkSelection};
pub use packed::{PackedHighway, PackedIndex, PackedLabels};
pub use patch::{LabelPatch, PatchedLabels, RowDelta};
pub use query::{upper_bound_pair, upper_bound_pair_exact, FanOut, QueryEngine, SourcePlan};
pub use serde_io::SnapshotError;
pub use store::{LabelStore, ReaderHandle, Versioned};
