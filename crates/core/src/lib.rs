//! # BatchHL — batch-dynamic highway cover labelling
//!
//! The primary contribution of *"BatchHL: Answering Distance Queries on
//! Batch-Dynamic Networks at Scale"* (SIGMOD 2022): maintain the unique
//! minimal highway cover labelling of a graph under **batches** of edge
//! insertions and deletions, in two phases per landmark (Algorithm 1):
//!
//! 1. **Batch search** ([`search`]) finds a superset of the vertices
//!    whose label or landmark distance is affected by the batch — with
//!    the basic unified pruning (Algorithm 2) or with the landmark-length
//!    β test (Algorithm 3);
//! 2. **Batch repair** (Algorithm 4, [`repair`]) recomputes the affected
//!    labels from the boundary of unaffected vertices inward, restoring
//!    correctness *and minimality* (Theorem 5.21).
//!
//! The public entry point is [`index::Index`], generic over a
//! [`family::Family`]: [`index::BatchIndex`] (undirected),
//! [`directed::DirectedBatchIndex`] (Section 6) and
//! [`weighted::WeightedBatchIndex`] (Section 6) are its three
//! instances. It is configured by [`index::IndexConfig`] with an
//! [`index::Algorithm`] variant, which every family honours:
//!
//! | Variant | Paper name | Meaning |
//! |---------|-----------|---------|
//! | [`Algorithm::Bhl`] | BHL | basic batch search + batch repair |
//! | [`Algorithm::BhlPlus`] | BHL⁺ | improved batch search + batch repair |
//! | [`Algorithm::BhlS`] | BHLₛ | deletions and insertions as separate sub-batches |
//! | [`Algorithm::Uhl`] | UHL | one update at a time, basic search |
//! | [`Algorithm::UhlPlus`] | UHL⁺ | one update at a time, improved search |
//!
//! Setting `threads > 1` in the config runs search + repair with
//! landmark-level parallelism (BHLₚ, Section 6): label rows of distinct
//! landmarks are disjoint, so threads share nothing but read-only state.
//!
//! # Architecture: generations, readers and the unified engine
//!
//! Serving distance queries *at scale* means queries must not contend
//! with `apply_batch`. The crate is built around two ideas:
//!
//! **Generations.** Every index owns the one mutable copy of its graph
//! and a [`batchhl_hcl::LabelStore`] of published, immutable
//! generations. A generation holds exactly what readers read: the
//! packed labelling(s) and the CSR view, both `Arc`-shared bases plus
//! overlays. `apply_batch` plays Algorithm 1 against that split: it
//! mutates the graph, reads the published generation as the old
//! labelling `Γ`, builds `Γ′` from `Γ` plus the per-landmark repair
//! deltas, and publishes it with a single atomic swap. A new generation
//! costs `O(overlay + changed rows)`, and nothing is copied back
//! afterwards; a retired one is freed when its last reader lets go.
//!
//! **Readers.** [`Index::reader`] returns a `Send + Sync`
//! [`reader::GenReader`] ([`reader::Reader`] on the undirected family): a handle
//! that pins a generation and answers queries lock-free against it,
//! re-pinning with one atomic version check when the writer publishes.
//! A reader never sees a half-applied batch; pinned readers can serve a
//! consistent stale view for as long as they need it.
//!
//! **One index.** [`index::Index`] is written once: construction, the
//! variant dispatch of Algorithm 1, publication, rollback, readers, the type-erased [`backend::Backend`], the
//! [`whatif`] session and the checkpoint frame of [`persist`]. What a
//! family changes sits behind [`family::Family`], implemented by its
//! generation type ([`IndexSnapshot`], [`DirectedSnapshot`],
//! [`WeightedSnapshot`]): its graph and update types, normalization,
//! one search→repair pass, its replay, the edit translation, the
//! speculative overlay, the checkpoint graph block and the audit.
//!
//! **One engine.** Batch search and batch repair are written once, and
//! so is the per-landmark search→repair orchestration — sequential or
//! landmark-parallel — in [`engine`]. All three are generic over a
//! [`metric::Metric`], the search space's edge lengths and queue: unit
//! lengths in a bucketed Dial queue over any adjacency view (undirected,
//! and both directions of the directed index through the generic
//! `Reversed` adapter), or edge weights in a monotone radix heap
//! (Section 6's "pruned Dijkstra in place of pruned BFS"). A family's pass hook turns
//! its batch into [`metric::Seed`] arcs — weight increases seed like
//! deletions, decreases like insertions — and calls the engine once per
//! labelling. The engine's last step builds the next labelling from the
//! published one and the landmarks' repair deltas: only the packed rows (`batchhl_hcl::packed`) whose entries changed are
//! derived again, so no reader repacks all `|R|·n` cells after a commit.
//! The packed overlay compacts under the same [`index::CompactionPolicy`]
//! as the CSR view.
//!
//! **One query path.** Section 4's query — the Eq. 3 label bound, then
//! a bounded search on `G[V\R]` — is implemented once, in
//! `batchhl_hcl::query` (`point_dist`, `distances_from`, `top_k`),
//! generic over the labels (`LabelView`) and the search
//! (`BoundedSearch`). [`family::Family`] provides the three query
//! methods over it; a family only names its graph view, its
//! `(fwd, bwd)` labellings (the undirected and weighted families pass
//! one labelling twice) and its engine (BiBFS or BiDijkstra). The
//! [`whatif`] session calls the same functions over `PatchedLabels`
//! views, so a hypothetical is answered by the code that answers a
//! committed generation.
//!
//! **CSR snapshot views.** Every generation carries a frozen CSR view of
//! the writer's dynamic graph
//! ([`batchhl_graph::csr`]): flat `offsets`/`neighbors` arrays plus the
//! per-batch delta overlay of the vertices recent batches touched.
//! All traversal hot paths — reader queries, the owner query path, the
//! update kernels' landmark searches and repair relaxations, and full
//! construction — run over that view, turning the per-vertex pointer
//! chase of `Vec<Vec<_>>` adjacency into sequential array scans.
//! `apply_batch` freezes only the batch's endpoints into the overlay
//! (`O(Σ deg(endpoint))`) and compacts into a fresh base CSR when the
//! overlay crosses the configured [`index::CompactionPolicy`] (the
//! `compaction` field of [`index::IndexConfig`], shared by every index
//! family); consecutive generations share the base behind an `Arc`.
//! [`index::BatchIndex::new_reordered`] additionally renumbers vertices
//! by decreasing degree at construction so hub neighbourhoods pack into
//! the front of the CSR arrays.
//!
//! ```
//! use batchhl_core::index::{Algorithm, BatchIndex, IndexConfig};
//! use batchhl_graph::{generators, Batch};
//!
//! let g = generators::barabasi_albert(500, 3, 42);
//! let mut index = BatchIndex::build(g, IndexConfig::default());
//! let d0 = index.query(3, 77);
//!
//! let mut batch = Batch::new();
//! batch.insert(3, 77); // arbitrary mix of insertions/deletions
//! let stats = index.apply_batch(&batch);
//! assert!(stats.applied >= 1);
//! assert_eq!(index.query(3, 77), Some(1));
//! # let _ = d0;
//! ```

#![forbid(unsafe_code)]

pub mod admission;
pub mod backend;
pub mod directed;
pub mod engine;
pub mod family;
pub mod index;
pub mod metric;
pub mod paths;
pub mod persist;
pub mod reader;
pub mod repair;
pub mod search;
pub mod snapshot;
pub mod stats;
pub mod wal;
pub mod weighted;
pub mod whatif;
pub mod workspace;

pub use admission::validate_batch;
pub use backend::{
    build_backend, load_backend, Backend, BackendFamily, BackendReader, Edit, GraphSource,
    OracleError,
};
pub use directed::{DirectedBatchIndex, DirectedSnapshot};
pub use family::Family;
pub use index::{Algorithm, BatchIndex, CompactionPolicy, Index, IndexConfig, IndexSnapshot};
pub use persist::{CheckpointMeta, PersistError};
pub use reader::{DirectedReader, GenReader, Reader, SharedReader, WeightedReader};
pub use stats::UpdateStats;
pub use wal::{recover_wal, TxnId, WalRecord, WalRecovery, WalWriter};
pub use weighted::{WeightedBatchIndex, WeightedSnapshot};
pub use whatif::{WhatIf, WhatIfQuery};
