//! Shared low-level kernels for the `batchhl` workspace.
//!
//! This crate contains the data-structure building blocks that the
//! highway-cover labelling, the batch-dynamic maintenance algorithms and
//! the baselines all share:
//!
//! * [`dist`] — the distance domain (`Dist`, the `INF` sentinel and
//!   saturating arithmetic on it),
//! * [`llen`] — packed *landmark lengths* and *extended landmark lengths*
//!   (Definitions 5.13 and 5.16 of the BatchHL paper) with the paper's
//!   `True < False` flag ordering baked into a single integer comparison,
//! * [`queue`] — monotone priority queues: Dial-style buckets keyed by
//!   distance (plus lexicographic sub-buckets for extended lengths) and
//!   a radix heap for weighted keys,
//! * [`bitset`] — a sparse-clearing bitset used for affected-vertex sets,
//! * [`cache`] — an epoch-stamped memoization array used as the
//!   old-distance oracle cache during batch search/repair,
//! * [`overlay`] — the rank-resolved index of the chunked per-vertex
//!   overlays (CSR adjacency and packed labels),
//! * [`hash`] — an FxHash-style fast hasher for integer-keyed maps,
//! * [`checksum`] — CRC-32 used by the on-disk persistence formats
//!   (checkpoints and the batch write-ahead log),
//! * [`binio`] — bounded binary-stream readers shared by those formats
//!   (chunked bulk reads so corrupt headers cannot force allocations),
//! * [`rng`] — a tiny deterministic SplitMix64 generator for internal
//!   shuffling that must not depend on external crates,
//! * [`failpoint`] — deterministic fault-injection sites for the chaos
//!   test suite (compiled out entirely unless the `failpoints` feature
//!   is on),
//! * [`metrics`] — atomic counters and fixed-bucket latency histograms
//!   with Prometheus-style text exposition, recorded into by the
//!   oracle's commit path and the `batchhl-server` serving tier.
//!
//! Everything here is deliberately free of dependencies so that the hot
//! paths of the index are fully under our control.

#![forbid(unsafe_code)]

pub mod binio;
pub mod bitset;
pub mod cache;
pub mod checksum;
pub mod dist;
pub mod failpoint;
pub mod hash;
pub mod llen;
pub mod metrics;
pub mod overlay;
pub mod queue;
pub mod rng;

pub use bitset::SparseBitSet;
pub use cache::EpochCache;
pub use checksum::{crc32, Crc32, Crc32Reader, Crc32Writer};
pub use dist::{dist_add1, Dist, Vertex, INF};
pub use hash::{FxHashMap, FxHashSet};
pub use llen::{ExtLandmarkLength, LandmarkLength};
pub use overlay::OverlayIndex;
pub use queue::{DialQueue, LexDialQueue, MonotoneQueue, RadixHeap};
pub use rng::SplitMix64;
