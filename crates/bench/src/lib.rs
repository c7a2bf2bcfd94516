//! Benchmark harness for the BatchHL reproduction.
//!
//! * [`datasets`] — seeded synthetic stand-ins for the paper's 14
//!   networks (Table 2), scaled by [`datasets::Scale`];
//! * [`workload`] — the update/query workload protocol of Section 7.1
//!   (10 batches; decremental / incremental / fully-dynamic settings;
//!   random query pairs);
//! * [`measure`] — timing helpers and plain-text table formatting;
//! * [`experiments`] — one module per table/figure of the evaluation,
//!   each printing the same rows/series the paper reports, plus the
//!   `server_coalesce` serving-throughput run. Run them via
//!   `cargo run -p batchhl-bench --release --bin experiments -- <id>`.

#![forbid(unsafe_code)]

pub mod datasets;
pub mod experiments;
pub mod measure;
pub mod workload;

pub use datasets::{dataset, dataset_names, Scale};
pub use workload::WorkloadConfig;
