//! Index snapshots: assemble an index of any family from externally
//! persisted parts ([`Index::from_parts`]).
//!
//! A deployment that restarts against an unchanged graph should not pay
//! reconstruction: persist the graph (`batchhl_graph::io`) and the
//! labelling (`batchhl_hcl::serde_io`) and reassemble with
//! [`Index::from_parts`]. Cheap structural sanity checks run at load
//! time; [`crate::BatchIndex::verify`] offers the full (expensive)
//! semantic check for tests and operational audits.
//!
//! Reassembly freezes the loaded graph into a fresh base CSR with an
//! empty overlay (`O(n + m)`, a small fraction of construction cost);
//! the view is the only graph the index keeps.

use crate::family::Family;
use crate::index::{Index, IndexConfig, SourceGraph};
use batchhl_graph::csr::Frozen;
use batchhl_hcl::{DegreeOrder, LabelError};

impl<F: Family> Index<F> {
    /// Assemble an index from a graph and previously constructed
    /// labelling(s) (e.g. loaded via `batchhl_hcl::serde_io`): one for
    /// the undirected and weighted families, `[forward, backward]` for
    /// the directed one.
    ///
    /// Performs structural validation — every labelling covers the
    /// graph's vertices, has a zero highway diagonal and the same
    /// landmark list; it does *not* prove the labellings match the
    /// graph (see [`crate::BatchIndex::verify`] and
    /// `Backend::verify_integrity`).
    pub fn from_parts(
        graph: SourceGraph<F>,
        labels: F::Labels,
        config: IndexConfig,
    ) -> Result<Self, LabelError> {
        Self::from_view(F::View::freeze(&graph), labels, config)
    }

    /// [`Index::from_parts`] over an already frozen view (the
    /// checkpoint load path).
    pub(crate) fn from_view(
        view: F::View,
        labels: F::Labels,
        config: IndexConfig,
    ) -> Result<Self, LabelError> {
        let n = view.num_vertices();
        let generation = F::assemble(view, labels);
        let labs = generation.labellings();
        for lab in &labs {
            if lab.num_vertices() != n {
                return Err(LabelError::VertexCountMismatch {
                    labelling: lab.num_vertices(),
                    graph: n,
                });
            }
            if let Some(i) = (0..lab.num_landmarks()).find(|&i| lab.highway(i, i) != 0) {
                return Err(LabelError::CorruptHighwayDiagonal { index: i });
            }
            if lab.landmarks() != labs[0].landmarks() {
                return Err(LabelError::ShapeMismatch {
                    what: "landmark list",
                    expected: labs[0].num_landmarks(),
                    found: lab.num_landmarks(),
                });
            }
        }
        drop(labs);
        Ok(Index::new(generation, config))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::testing::config;
    use crate::index::{Algorithm, BatchIndex};
    use crate::{DirectedBatchIndex, WeightedBatchIndex};
    use batchhl_graph::generators::barabasi_albert;
    use batchhl_graph::weighted::WeightedGraph;
    use batchhl_graph::{Batch, DynamicDiGraph, Reversed};
    use batchhl_hcl::build_labelling;
    use batchhl_hcl::serde_io::{read_labelling, write_labelling};

    #[test]
    fn snapshot_roundtrip_resumes_maintenance() {
        let g = barabasi_albert(150, 3, 3);
        let mut original = BatchIndex::build(g.clone(), config(Algorithm::BhlPlus, 5));
        // Persist the labelling, reload, reassemble.
        let mut buf = Vec::new();
        write_labelling(original.labelling(), &mut buf).unwrap();
        let lab = read_labelling(buf.as_slice()).unwrap();
        let mut restored = BatchIndex::from_parts(g, [lab], config(Algorithm::BhlPlus, 5)).unwrap();
        restored.verify().unwrap();
        assert_eq!(original.labelling(), restored.labelling());
        // Both continue to accept batches identically.
        let mut b = Batch::new();
        b.delete(0, 1);
        b.insert(10, 140);
        original.apply_batch(&b);
        restored.apply_batch(&b);
        assert_eq!(original.labelling(), restored.labelling());
        restored.verify().unwrap();
    }

    /// Every family refuses parts that do not fit together: a labelling
    /// over another vertex count, a corrupt highway diagonal, and (with
    /// two labellings) forward and backward landmark lists that differ.
    #[test]
    fn from_parts_rejects_mismatches() {
        let mismatch = LabelError::VertexCountMismatch {
            labelling: 60,
            graph: 50,
        };
        let g = barabasi_albert(50, 2, 1);
        let other = barabasi_albert(60, 2, 1);
        let lab60 = build_labelling(&other, vec![0, 1]).unwrap();
        assert_eq!(
            BatchIndex::from_parts(g.clone(), [lab60.clone()], config(Algorithm::BhlPlus, 5)).err(),
            Some(mismatch)
        );

        let mut dg = DynamicDiGraph::new(50);
        let mut wg = WeightedGraph::new(50);
        for (a, b) in g.edges() {
            dg.insert_edge(a, b);
            wg.insert_edge(a, b, 1 + (a + b) % 4);
        }
        let fwd = build_labelling(&dg, vec![0, 1]).unwrap();
        let bwd = build_labelling(&Reversed(&dg), vec![0, 1]).unwrap();
        assert_eq!(
            DirectedBatchIndex::from_parts(
                dg.clone(),
                [fwd.clone(), lab60.clone()],
                config(Algorithm::BhlPlus, 5)
            )
            .err(),
            Some(mismatch)
        );
        assert_eq!(
            WeightedBatchIndex::from_parts(wg, [lab60], config(Algorithm::BhlPlus, 5)).err(),
            Some(mismatch)
        );

        let mut corrupt = build_labelling(&g, vec![0, 1]).unwrap();
        corrupt.set_highway_row(1, 1, 3);
        assert_eq!(
            BatchIndex::from_parts(g, [corrupt], config(Algorithm::BhlPlus, 5)).err(),
            Some(LabelError::CorruptHighwayDiagonal { index: 1 })
        );

        let bwd_other = build_labelling(&Reversed(&dg), vec![0, 2]).unwrap();
        assert_eq!(
            DirectedBatchIndex::from_parts(
                dg.clone(),
                [fwd.clone(), bwd_other],
                config(Algorithm::BhlPlus, 5)
            )
            .err(),
            Some(LabelError::ShapeMismatch {
                what: "landmark list",
                expected: 2,
                found: 2
            })
        );
        assert!(
            DirectedBatchIndex::from_parts(dg, [fwd, bwd], config(Algorithm::BhlPlus, 5)).is_ok()
        );
    }

    #[test]
    fn verify_catches_stale_labellings() {
        let g = barabasi_albert(80, 2, 5);
        let index = BatchIndex::build(g, config(Algorithm::BhlPlus, 5));
        index.verify().unwrap();
        // Same labelling, different graph: must fail.
        let other = barabasi_albert(80, 2, 6);
        let stale = BatchIndex::from_parts(
            other,
            [index.labelling().clone()],
            config(Algorithm::BhlPlus, 5),
        )
        .unwrap();
        assert!(stale.verify().is_err());
    }
}
