//! One module per table/figure of the paper's evaluation (Section 7).
//!
//! Every `run` function prints the same rows/series the paper reports,
//! using the dataset stand-ins and the workload protocol; absolute
//! numbers differ from the paper's 28-core testbed, the *shape* (who
//! wins, by what order of magnitude, where crossovers fall) is the
//! reproduction target.

pub mod fig2;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod label_memory;
pub mod server_coalesce;
pub mod table2;
pub mod table3;
pub mod table4;
pub mod table5;
pub mod table6;

use crate::datasets::Scale;
use batchhl_core::index::{Algorithm, BatchIndex, IndexConfig};
use batchhl_graph::DynamicGraph;
use batchhl_hcl::LandmarkSelection;
use std::time::Duration;

/// Shared experiment context (CLI flags of the `experiments` binary).
#[derive(Debug, Clone)]
pub struct ExpContext {
    pub scale: Scale,
    pub seed: u64,
    /// Landmark count (paper default: 20).
    pub landmarks: usize,
    /// Threads for the parallel variants (paper: 20; defaults to this
    /// machine's cores, typically far fewer, so absolute parallel
    /// speedups are not comparable with the paper's).
    pub threads: usize,
    /// Per-method time budget for the PLL-family baselines; exceeding
    /// it prints DNF, mirroring the paper's "-" entries.
    pub budget: Duration,
    /// Optional dataset filter (names).
    pub only: Option<Vec<String>>,
}

impl ExpContext {
    pub fn new(scale: Scale) -> Self {
        ExpContext {
            scale,
            seed: 42,
            landmarks: 20,
            threads: std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1),
            budget: Duration::from_secs(60),
            only: None,
        }
    }

    /// Static datasets after applying the `--datasets` filter.
    pub fn static_datasets(&self) -> Vec<&'static str> {
        crate::datasets::STATIC_DATASETS
            .iter()
            .copied()
            .filter(|n| self.selected(n))
            .collect()
    }

    pub fn dynamic_datasets(&self) -> Vec<&'static str> {
        crate::datasets::DYNAMIC_DATASETS
            .iter()
            .copied()
            .filter(|n| self.selected(n))
            .collect()
    }

    fn selected(&self, name: &str) -> bool {
        self.only
            .as_ref()
            .map(|list| list.iter().any(|x| x == name))
            .unwrap_or(true)
    }

    /// Build a BatchHL index with this context's landmark count.
    pub fn index(&self, g: DynamicGraph, algorithm: Algorithm, threads: usize) -> BatchIndex {
        BatchIndex::build(
            g,
            IndexConfig {
                selection: LandmarkSelection::TopDegree(self.landmarks),
                algorithm,
                threads,
                ..IndexConfig::default()
            },
        )
    }

    /// The Section 7.1 workload config at this scale.
    pub fn workload(&self) -> crate::workload::WorkloadConfig {
        crate::workload::WorkloadConfig::new(10, self.scale.batch_size(), self.seed)
    }

    pub fn deadline(&self) -> std::time::Instant {
        std::time::Instant::now() + self.budget
    }
}

/// The method lineup of the fully-dynamic columns.
pub const FULLY_DYNAMIC_VARIANTS: &[(Algorithm, bool)] = &[
    (Algorithm::BhlPlus, true),  // BHLp = BHL+ with threads
    (Algorithm::BhlPlus, false), // BHL+
    (Algorithm::Bhl, false),     // BHL
    (Algorithm::UhlPlus, false), // UHL+
];

/// Paper display name for a `(algorithm, parallel)` pair.
pub fn variant_name(algorithm: Algorithm, parallel: bool) -> &'static str {
    if parallel {
        "BHLp"
    } else {
        algorithm.paper_name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_defaults_and_filter() {
        let mut ctx = ExpContext::new(Scale::Tiny);
        assert_eq!(ctx.static_datasets().len(), 12);
        assert_eq!(ctx.dynamic_datasets().len(), 2);
        ctx.only = Some(vec!["youtube".into(), "italianwiki".into()]);
        assert_eq!(ctx.static_datasets(), vec!["youtube"]);
        assert_eq!(ctx.dynamic_datasets(), vec!["italianwiki"]);
    }

    #[test]
    fn variant_names_match_paper() {
        assert_eq!(variant_name(Algorithm::BhlPlus, true), "BHLp");
        assert_eq!(variant_name(Algorithm::BhlPlus, false), "BHL+");
        assert_eq!(variant_name(Algorithm::Bhl, false), "BHL");
        assert_eq!(variant_name(Algorithm::UhlPlus, false), "UHL+");
    }
}
