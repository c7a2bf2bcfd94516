//! The traced run's twin index: the per-family `batchhl-core` index fed
//! the same batches as the oracle, so each layer's public entry point
//! can be called — and timed — on its own.

use crate::endpoint::LANDMARKS;
use crate::inputs::Graph;
use batchhl::core::{DirectedBatchIndex, IndexConfig, WeightedBatchIndex};
use batchhl::graph::weighted::{BiDijkstra, WeightedUpdate};
use batchhl::graph::{bfs::BiBfs, Batch, Update};
use batchhl::hcl::{upper_bound_pair, Labelling, SourcePlan};
use batchhl::{Algorithm, Dist, Edit, LandmarkSelection, UpdateStats, Vertex};

// One twin per process: the size difference between variants costs
// nothing worth a box.
#[allow(clippy::large_enum_variant)]
pub enum Twin {
    Directed(DirectedBatchIndex, BiBfs),
    Weighted(WeightedBatchIndex, BiDijkstra),
}

/// Label storage of the current generation, summed over labellings.
pub struct LabelSizes {
    pub entries: usize,
    pub packed_bytes: usize,
    pub dense_bytes: usize,
}

fn config(threads: usize) -> IndexConfig {
    IndexConfig {
        algorithm: Algorithm::BhlPlus,
        threads,
        selection: LandmarkSelection::TopDegree(LANDMARKS),
        ..IndexConfig::default()
    }
}

fn unweighted_batch(edits: &[Edit]) -> Batch {
    Batch::from_updates(
        edits
            .iter()
            .map(|e| match *e {
                Edit::Insert(a, b) => Update::Insert(a, b),
                Edit::Remove(a, b) => Update::Delete(a, b),
                other => panic!("unweighted workloads never emit {other:?}"),
            })
            .collect(),
    )
}

fn weighted_updates(edits: &[Edit]) -> Vec<WeightedUpdate> {
    edits
        .iter()
        .map(|e| match *e {
            Edit::Insert(a, b) => WeightedUpdate::Insert(a, b, 1),
            Edit::InsertWeighted(a, b, w) => WeightedUpdate::Insert(a, b, w),
            Edit::Remove(a, b) => WeightedUpdate::Delete(a, b),
            Edit::SetWeight(a, b, w) => WeightedUpdate::SetWeight(a, b, w),
        })
        .collect()
}

impl Twin {
    pub fn build(graph: &Graph, threads: usize) -> Twin {
        let n = graph.num_vertices();
        match graph.clone() {
            Graph::Directed(g) => {
                Twin::Directed(DirectedBatchIndex::build(g, config(threads)), BiBfs::new(n))
            }
            Graph::Weighted(g) => Twin::Weighted(
                WeightedBatchIndex::build(g, LANDMARKS).with_threads(threads),
                BiDijkstra::new(n),
            ),
        }
    }

    /// `apply_batch` on the twin (the core layer: batch search + repair
    /// + publication).
    pub fn apply(&mut self, edits: &[Edit]) -> UpdateStats {
        match self {
            Twin::Directed(idx, _) => idx.apply_batch(&unweighted_batch(edits)),
            Twin::Weighted(idx, _) => idx.apply_batch(&weighted_updates(edits)),
        }
    }

    /// Seal the packed query mirror of the published generation (the
    /// first `packed()` after `apply_batch` rebuilds it). Returns
    /// whether any mirror actually had to be built.
    pub fn repack(&self) -> bool {
        let seal = |lab: &Labelling| {
            let fresh = !lab.packed_is_sealed();
            std::hint::black_box(lab.packed());
            fresh
        };
        match self {
            Twin::Weighted(idx, _) => seal(&idx.published().value().lab),
            Twin::Directed(idx, _) => {
                let snap = idx.published();
                let f = seal(&snap.value().fwd);
                let b = seal(&snap.value().bwd);
                f | b
            }
        }
    }

    /// Whether `(s, t)` takes the bound + search path (neither endpoint
    /// is a landmark; landmark endpoints are answered from labels).
    pub fn searches(&self, s: Vertex, t: Vertex) -> bool {
        if s == t {
            return false;
        }
        let lab = match self {
            Twin::Weighted(idx, _) => idx.labelling(),
            Twin::Directed(idx, _) => idx.forward_labelling(),
        };
        !lab.is_landmark(s) && !lab.is_landmark(t)
    }

    /// The Eq. 3 label bound for a searching pair, through the same
    /// kernel path the family's query uses.
    pub fn bound(&self, s: Vertex, t: Vertex) -> Dist {
        match self {
            Twin::Weighted(idx, _) => idx.published().value().lab.upper_bound(s, t),
            Twin::Directed(idx, _) => {
                let snap = idx.published();
                let v = snap.value();
                upper_bound_pair(&v.bwd, &v.fwd, &v.fwd, s, t)
            }
        }
    }

    /// The bounded search on `G[V\R]` under `bound`; the exact answer.
    pub fn search(&mut self, s: Vertex, t: Vertex, bound: Dist) -> Dist {
        match self {
            Twin::Directed(idx, bibfs) => {
                let snap = idx.published();
                let v = snap.value();
                bibfs
                    .run(&v.view, s, t, bound, |x| !v.fwd.is_landmark(x))
                    .unwrap_or(bound)
            }
            Twin::Weighted(idx, dij) => {
                let snap = idx.published();
                let v = snap.value();
                dij.run(&v.view, s, t, bound, |x| !v.lab.is_landmark(x))
                    .unwrap_or(bound)
            }
        }
    }

    /// Eq. 3 bounds of every searching target from one source plan.
    /// `None` when the source is a landmark (answered from labels).
    fn fanout_bounds(&self, s: Vertex, targets: &[Vertex]) -> Option<Vec<Option<Dist>>> {
        let price = |src: &Labelling, hw: &Labelling, tgt: &Labelling| {
            if src.is_landmark(s) || hw.is_landmark(s) {
                return None;
            }
            let plan = SourcePlan::new(src, hw, s);
            Some(
                targets
                    .iter()
                    .map(|&t| (t != s && !tgt.is_landmark(t)).then(|| plan.bound_to(tgt, t)))
                    .collect(),
            )
        };
        match self {
            Twin::Weighted(idx, _) => {
                let snap = idx.published();
                price(&snap.value().lab, &snap.value().lab, &snap.value().lab)
            }
            Twin::Directed(idx, _) => {
                let snap = idx.published();
                let v = snap.value();
                price(&v.bwd, &v.fwd, &v.fwd)
            }
        }
    }

    /// One source plan plus one bounded sweep of `G[V\R]` from `s`.
    /// Returns the refined distances of the searching targets.
    pub fn fanout_sweep(&mut self, s: Vertex, targets: &[Vertex]) -> Option<Vec<Option<Dist>>> {
        let mut out = self.fanout_bounds(s, targets)?;
        let horizon = out.iter().flatten().copied().max().unwrap_or(0);
        match self {
            Twin::Directed(idx, bibfs) => {
                let snap = idx.published();
                let v = snap.value();
                bibfs.sweep(&v.view, s, horizon, usize::MAX, |x| !v.fwd.is_landmark(x));
                for (d, &t) in out.iter_mut().zip(targets) {
                    if let Some(d) = d {
                        *d = (*d).min(bibfs.sweep_dist(t));
                    }
                }
            }
            Twin::Weighted(idx, dij) => {
                let snap = idx.published();
                let v = snap.value();
                dij.sweep(&v.view, s, horizon, usize::MAX, |x| !v.lab.is_landmark(x));
                for (d, &t) in out.iter_mut().zip(targets) {
                    if let Some(d) = d {
                        *d = (*d).min(dij.sweep_dist(t));
                    }
                }
            }
        }
        Some(out)
    }

    /// One source plan plus one bounded search per searching target.
    pub fn fanout_pairs(&mut self, s: Vertex, targets: &[Vertex]) -> Option<Vec<Option<Dist>>> {
        let mut out = self.fanout_bounds(s, targets)?;
        for (d, &t) in out.iter_mut().zip(targets) {
            if let Some(d) = d {
                *d = self.search(s, t, *d);
            }
        }
        Some(out)
    }

    pub fn label_sizes(&self) -> LabelSizes {
        let size = |labs: &[&Labelling]| LabelSizes {
            entries: labs.iter().map(|l| l.size_entries()).sum(),
            packed_bytes: labs.iter().map(|l| l.packed().resident_bytes()).sum(),
            dense_bytes: labs.iter().map(|l| l.dense_resident_bytes()).sum(),
        };
        match self {
            Twin::Weighted(idx, _) => size(&[&idx.published().value().lab]),
            Twin::Directed(idx, _) => {
                let snap = idx.published();
                size(&[&snap.value().fwd, &snap.value().bwd])
            }
        }
    }
}
