//! Updates and batch updates (Section 3 of the paper).
//!
//! A batch update is a sequence of edge insertions and deletions. The
//! paper's normalization rules are implemented by [`Batch::normalize`]:
//!
//! * self-loops are dropped,
//! * "in the case that the same edge is being inserted and deleted
//!   within one batch update, we simply eliminate both of them",
//! * duplicate updates collapse to one,
//! * *invalid* updates (inserting a present edge, deleting an absent
//!   one) are ignored.
//!
//! After normalization a batch is a conflict-free set: each edge appears
//! at most once, and applying the batch in any order yields the same
//! graph `G′`. The batch-dynamic algorithms require normalized batches;
//! [`crate::graph::DynamicGraph::apply_batch`] tolerates arbitrary ones.

use crate::AdjacencyView;
use batchhl_common::{FxHashMap, Vertex};

/// A single edge update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Update {
    /// Add edge `(a, b)` (undirected: `{a, b}`; directed: `a → b`).
    Insert(Vertex, Vertex),
    /// Remove edge `(a, b)`.
    Delete(Vertex, Vertex),
}

impl Update {
    #[inline]
    pub fn endpoints(self) -> (Vertex, Vertex) {
        match self {
            Update::Insert(a, b) | Update::Delete(a, b) => (a, b),
        }
    }

    #[inline]
    pub fn is_insert(self) -> bool {
        matches!(self, Update::Insert(..))
    }

    #[inline]
    pub fn is_delete(self) -> bool {
        matches!(self, Update::Delete(..))
    }

    /// Same update with endpoints ordered `a ≤ b` (undirected canonical
    /// form).
    #[inline]
    pub fn canonical(self) -> Update {
        match self {
            Update::Insert(a, b) if a > b => Update::Insert(b, a),
            Update::Delete(a, b) if a > b => Update::Delete(b, a),
            u => u,
        }
    }

    /// The update that undoes this one.
    #[inline]
    pub fn inverse(self) -> Update {
        match self {
            Update::Insert(a, b) => Update::Delete(a, b),
            Update::Delete(a, b) => Update::Insert(a, b),
        }
    }
}

/// Whether both endpoints lie in `g`'s vertex range.
fn in_range<A: AdjacencyView + ?Sized>(g: &A, a: Vertex, b: Vertex) -> bool {
    (a as usize) < g.num_vertices() && (b as usize) < g.num_vertices()
}

/// A batch of edge updates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    updates: Vec<Update>,
}

impl Batch {
    pub fn new() -> Self {
        Batch::default()
    }

    pub fn from_updates(updates: Vec<Update>) -> Self {
        Batch { updates }
    }

    pub fn push(&mut self, u: Update) {
        self.updates.push(u);
    }

    pub fn insert(&mut self, a: Vertex, b: Vertex) {
        self.updates.push(Update::Insert(a, b));
    }

    pub fn delete(&mut self, a: Vertex, b: Vertex) {
        self.updates.push(Update::Delete(a, b));
    }

    pub fn len(&self) -> usize {
        self.updates.len()
    }

    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }

    pub fn updates(&self) -> &[Update] {
        &self.updates
    }

    /// Distinct endpoints of this batch's updates, sorted ascending —
    /// the vertices whose adjacency applying the batch changes, and
    /// therefore what the CSR publication path re-freezes into the
    /// delta overlay.
    pub fn touched_vertices(&self) -> Vec<Vertex> {
        let mut touched: Vec<Vertex> = self
            .updates
            .iter()
            .flat_map(|u| {
                let (a, b) = u.endpoints();
                [a, b]
            })
            .collect();
        touched.sort_unstable();
        touched.dedup();
        touched
    }

    pub fn num_insertions(&self) -> usize {
        self.updates.iter().filter(|u| u.is_insert()).count()
    }

    pub fn num_deletions(&self) -> usize {
        self.updates.iter().filter(|u| u.is_delete()).count()
    }

    /// The batch that undoes this one (meaningful for normalized
    /// batches, where updates commute).
    pub fn inverse(&self) -> Batch {
        Batch {
            updates: self.updates.iter().rev().map(|u| u.inverse()).collect(),
        }
    }

    /// Split into the deletion-only and insertion-only sub-batches used
    /// by the BHLₛ variant (deletions first, matching the paper's
    /// sequential sub-batch processing).
    pub fn split(&self) -> (Batch, Batch) {
        let deletions = self
            .updates
            .iter()
            .copied()
            .filter(|u| u.is_delete())
            .collect();
        let insertions = self
            .updates
            .iter()
            .copied()
            .filter(|u| u.is_insert())
            .collect();
        (
            Batch { updates: deletions },
            Batch {
                updates: insertions,
            },
        )
    }

    /// Normalize against an undirected graph (see module docs) — the
    /// dynamic graph or any view of it with sorted adjacency lists, such
    /// as a published CSR view. The result contains only *valid,
    /// conflict-free* canonical updates.
    pub fn normalize<A: AdjacencyView + ?Sized>(&self, g: &A) -> Batch {
        self.normalize_with(
            |a, b| {
                in_range(g, a, b) && {
                    let (a, b) = if g.out_neighbors(a).len() <= g.out_neighbors(b).len() {
                        (a, b)
                    } else {
                        (b, a)
                    };
                    g.out_neighbors(a).binary_search(&b).is_ok()
                }
            },
            true,
        )
    }

    /// Normalize against a directed graph (or a view of it with sorted
    /// adjacency lists): endpoints keep their order.
    pub fn normalize_directed<A: AdjacencyView + ?Sized>(&self, g: &A) -> Batch {
        self.normalize_with(
            |a, b| in_range(g, a, b) && g.out_neighbors(a).binary_search(&b).is_ok(),
            false,
        )
    }

    fn normalize_with(&self, has_edge: impl Fn(Vertex, Vertex) -> bool, canonical: bool) -> Batch {
        // Last-writer-wins per edge would be order-dependent; the paper
        // instead *cancels* edges that are both inserted and deleted.
        // Track the net effect per edge: Some(Insert) / Some(Delete) /
        // cancelled (removed from the map's live set).
        #[derive(Clone, Copy, PartialEq)]
        enum NetEffect {
            Insert,
            Delete,
            Cancelled,
        }
        let mut net: FxHashMap<(Vertex, Vertex), NetEffect> = FxHashMap::default();
        let mut order: Vec<(Vertex, Vertex)> = Vec::new();
        for u in &self.updates {
            let u = if canonical { u.canonical() } else { *u };
            let (a, b) = u.endpoints();
            if a == b {
                continue;
            }
            let kind = if u.is_insert() {
                NetEffect::Insert
            } else {
                NetEffect::Delete
            };
            match net.get_mut(&(a, b)) {
                None => {
                    net.insert((a, b), kind);
                    order.push((a, b));
                }
                Some(existing) => {
                    if *existing != kind && *existing != NetEffect::Cancelled {
                        *existing = NetEffect::Cancelled;
                    }
                    // duplicate of same kind: collapse (keep existing)
                }
            }
        }
        let mut out = Vec::with_capacity(order.len());
        for (a, b) in order {
            match net[&(a, b)] {
                NetEffect::Cancelled => {}
                NetEffect::Insert => {
                    if !has_edge(a, b) {
                        out.push(Update::Insert(a, b));
                    }
                }
                NetEffect::Delete => {
                    if has_edge(a, b) {
                        out.push(Update::Delete(a, b));
                    }
                }
            }
        }
        Batch { updates: out }
    }
}

impl FromIterator<Update> for Batch {
    fn from_iter<T: IntoIterator<Item = Update>>(iter: T) -> Self {
        Batch {
            updates: iter.into_iter().collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DynamicGraph;

    fn path3() -> DynamicGraph {
        DynamicGraph::from_edges(3, &[(0, 1), (1, 2)])
    }

    #[test]
    fn canonicalization() {
        assert_eq!(Update::Insert(3, 1).canonical(), Update::Insert(1, 3));
        assert_eq!(Update::Delete(1, 3).canonical(), Update::Delete(1, 3));
    }

    #[test]
    fn normalize_drops_self_loops_and_duplicates() {
        let g = path3();
        let b = Batch::from_updates(vec![
            Update::Insert(0, 2),
            Update::Insert(2, 0),
            Update::Insert(1, 1),
        ]);
        let n = b.normalize(&g);
        assert_eq!(n.updates(), &[Update::Insert(0, 2)]);
    }

    #[test]
    fn normalize_cancels_insert_delete_pairs() {
        let g = path3();
        // (0,2) inserted then deleted: both eliminated (paper Sec. 3).
        let b = Batch::from_updates(vec![Update::Insert(0, 2), Update::Delete(2, 0)]);
        assert!(b.normalize(&g).is_empty());
        // Delete of an existing edge then insert: also cancelled — the
        // net effect on G is nil.
        let b = Batch::from_updates(vec![Update::Delete(0, 1), Update::Insert(0, 1)]);
        assert!(b.normalize(&g).is_empty());
    }

    #[test]
    fn normalize_drops_invalid() {
        let g = path3();
        let b = Batch::from_updates(vec![
            Update::Insert(0, 1), // already present
            Update::Delete(0, 2), // absent
            Update::Delete(1, 2), // valid
        ]);
        let n = b.normalize(&g);
        assert_eq!(n.updates(), &[Update::Delete(1, 2)]);
    }

    #[test]
    fn normalize_allows_new_vertices() {
        let g = path3();
        let b = Batch::from_updates(vec![Update::Insert(2, 9)]);
        // Vertex 9 does not exist yet: insertion is valid (vertex
        // insertion is modelled as a batch of edge insertions).
        let n = b.normalize(&g);
        assert_eq!(n.updates(), &[Update::Insert(2, 9)]);
    }

    #[test]
    fn normalized_batch_applies_cleanly_and_inverts() {
        let mut g = path3();
        let b = Batch::from_updates(vec![
            Update::Insert(0, 2),
            Update::Delete(0, 1),
            Update::Insert(1, 1),
            Update::Insert(0, 2),
        ]);
        let n = b.normalize(&g);
        let before = g.clone();
        let applied = g.apply_batch(&n);
        assert_eq!(applied, n.len(), "every normalized update is valid");
        g.apply_batch(&n.inverse());
        assert_eq!(g, before);
    }

    #[test]
    fn split_partitions_by_kind() {
        let b = Batch::from_updates(vec![
            Update::Insert(0, 1),
            Update::Delete(2, 3),
            Update::Insert(4, 5),
        ]);
        let (del, ins) = b.split();
        assert_eq!(del.len(), 1);
        assert_eq!(ins.len(), 2);
        assert!(del.updates().iter().all(|u| u.is_delete()));
        assert!(ins.updates().iter().all(|u| u.is_insert()));
    }

    #[test]
    fn counts() {
        let b = Batch::from_updates(vec![
            Update::Insert(0, 1),
            Update::Delete(2, 3),
            Update::Insert(4, 5),
        ]);
        assert_eq!(b.num_insertions(), 2);
        assert_eq!(b.num_deletions(), 1);
    }
}
