//! Batch admission: semantic validation of an edit list *before* it is
//! made durable.
//!
//! The write-ahead log appends a batch before the index applies it, so
//! anything the WAL accepts will be replayed on every future restart. A
//! batch the repair engine would choke on must therefore be refused up
//! front — once logged it would poison replay forever. [`validate_batch`]
//! is that gate: `UpdateSession::commit` runs it before the WAL append,
//! and a refused batch leaves the oracle (answers, generation counter,
//! WAL bytes) completely untouched.
//!
//! # What is refused
//!
//! * **Self-loops** — `a == b` on any edit kind. Distance semantics
//!   never use them and the normalizers drop them silently, which would
//!   let `applied` counts drift from what was logged.
//! * **Vertex-id overflow** — an endpoint equal to `u32::MAX`: the
//!   vertex count `n = id + 1` would overflow the `u32` id domain.
//! * **Dangling references** — [`Edit::Remove`] / [`Edit::SetWeight`]
//!   naming a vertex that neither exists nor is introduced by an
//!   earlier insert in the same batch. There is nothing they could
//!   refer to; silently ignoring them hides caller bugs.
//! * **Bad weights** (weighted family) — zero weights (the index
//!   requires positive weights) and clamp-unsafe weights
//!   `≥ CLAMP_SAFE_MAX` (about `2^27.4`). Distances are `u32`s that
//!   saturate at the `INF` sentinel, so a weight at or near `INF` would
//!   make its edge read as missing; the cap keeps every single edge far
//!   below that, and keeps the set of batches a write-ahead log may hold
//!   the same as before. Its value is the packed labels' tier-4/tier-8
//!   boundary ([`batchhl_hcl::packed::CLAMP_SAFE_MAX`]). It does not
//!   bound path sums: a long enough path of heavy edges still
//!   saturates.
//! * **Conflicting duplicates** — two edits addressing the same edge
//!   (same unordered pair on undirected/weighted backends, same arc on
//!   directed ones) that are not byte-identical: `Insert(a,b)` +
//!   `Remove(a,b)` in one batch has no defined order. Exact duplicates
//!   are admitted — the normalizers collapse them deterministically.
//!
//! Family capability checks (weight-carrying edits on unweighted
//! backends) are layered in via [`edits_supported`], so one call
//! subsumes both gates.

use crate::backend::{edits_supported, BackendFamily, Edit, OracleError};
use batchhl_common::Vertex;
use batchhl_graph::weighted::Weight;
use batchhl_hcl::packed::CLAMP_SAFE_MAX;
use std::collections::HashMap;

/// Validate `edits` as one batch against a backend of `family` with
/// `num_vertices` vertices, without applying anything.
///
/// Returns the first offense as [`OracleError::InvalidBatch`] carrying
/// the index of the offending edit. See the module docs for the rules.
pub fn validate_batch(
    family: BackendFamily,
    num_vertices: usize,
    edits: &[Edit],
) -> Result<(), OracleError> {
    edits_supported(family, edits)?;
    let reject = |index: usize, reason: String| Err(OracleError::InvalidBatch { index, reason });
    // Vertices known so far: the current graph plus everything an
    // earlier insert of this batch introduces.
    let mut known = num_vertices as u64;
    let mut seen: HashMap<(Vertex, Vertex), (usize, Edit)> = HashMap::with_capacity(edits.len());
    for (i, &e) in edits.iter().enumerate() {
        let (a, b) = endpoints(e);
        if a == b {
            return reject(i, format!("self-loop on vertex {a}"));
        }
        if a == Vertex::MAX || b == Vertex::MAX {
            return reject(i, format!("vertex id {} overflows the id domain", a.max(b)));
        }
        match e {
            Edit::Insert(..) | Edit::InsertWeighted(..) => {
                known = known.max(a.max(b) as u64 + 1);
            }
            Edit::Remove(..) | Edit::SetWeight(..) => {
                let hi = a.max(b);
                if hi as u64 >= known {
                    return reject(
                        i,
                        format!("references vertex {hi} outside the graph ({known} vertices)"),
                    );
                }
            }
        }
        if family == BackendFamily::Weighted {
            if let Some(w) = weight_of(e) {
                if w == 0 {
                    return reject(i, "zero edge weight (weights must be positive)".into());
                }
                if w >= CLAMP_SAFE_MAX {
                    return reject(
                        i,
                        format!("weight {w} is outside the clamp-safe domain (< {CLAMP_SAFE_MAX})"),
                    );
                }
            }
        }
        // Duplicate detection on the canonical edge key. Orientation is
        // irrelevant on undirected families, identity on directed ones.
        let key = if family == BackendFamily::Directed {
            (a, b)
        } else {
            (a.min(b), a.max(b))
        };
        let canon = canonicalize(e, family);
        match seen.get(&key) {
            Some(&(first, prior)) if prior != canon => {
                return reject(
                    i,
                    format!(
                        "conflicts with edit {first} on the same {}",
                        if family == BackendFamily::Directed {
                            "arc"
                        } else {
                            "edge"
                        }
                    ),
                );
            }
            Some(_) => {} // exact duplicate: normalizes away downstream
            None => {
                seen.insert(key, (i, canon));
            }
        }
    }
    Ok(())
}

fn endpoints(e: Edit) -> (Vertex, Vertex) {
    match e {
        Edit::Insert(a, b)
        | Edit::InsertWeighted(a, b, _)
        | Edit::Remove(a, b)
        | Edit::SetWeight(a, b, _) => (a, b),
    }
}

fn weight_of(e: Edit) -> Option<Weight> {
    match e {
        Edit::InsertWeighted(_, _, w) | Edit::SetWeight(_, _, w) => Some(w),
        // A bare insert is weight 1 on the weighted family: always safe.
        Edit::Insert(..) | Edit::Remove(..) => None,
    }
}

/// Normalize an edit so that byte-identical *meaning* compares equal:
/// endpoints sorted on undirected families, and `Insert` unified with
/// the `InsertWeighted` form it is shorthand for.
fn canonicalize(e: Edit, family: BackendFamily) -> Edit {
    let sort = |a: Vertex, b: Vertex| {
        if family == BackendFamily::Directed {
            (a, b)
        } else {
            (a.min(b), a.max(b))
        }
    };
    match e {
        Edit::Insert(a, b) => {
            let (a, b) = sort(a, b);
            Edit::InsertWeighted(a, b, 1)
        }
        Edit::InsertWeighted(a, b, w) => {
            let (a, b) = sort(a, b);
            Edit::InsertWeighted(a, b, w)
        }
        Edit::Remove(a, b) => {
            let (a, b) = sort(a, b);
            Edit::Remove(a, b)
        }
        Edit::SetWeight(a, b, w) => {
            let (a, b) = sort(a, b);
            Edit::SetWeight(a, b, w)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const U: BackendFamily = BackendFamily::Undirected;
    const D: BackendFamily = BackendFamily::Directed;
    const W: BackendFamily = BackendFamily::Weighted;

    fn idx(r: Result<(), OracleError>) -> usize {
        match r {
            Err(OracleError::InvalidBatch { index, .. }) => index,
            other => panic!("expected InvalidBatch, got {other:?}"),
        }
    }

    #[test]
    fn clean_batches_pass_on_every_family() {
        let edits = [Edit::Insert(0, 5), Edit::Remove(1, 2), Edit::Insert(5, 6)];
        for fam in [U, D, W] {
            validate_batch(fam, 6, &edits).unwrap();
        }
        validate_batch(
            W,
            6,
            &[Edit::InsertWeighted(0, 5, 9), Edit::SetWeight(1, 2, 3)],
        )
        .unwrap();
    }

    #[test]
    fn self_loops_are_rejected() {
        for fam in [U, D, W] {
            let r = validate_batch(fam, 4, &[Edit::Insert(0, 1), Edit::Insert(2, 2)]);
            assert_eq!(idx(r), 1, "{fam}");
        }
    }

    #[test]
    fn id_overflow_is_rejected() {
        let r = validate_batch(U, 4, &[Edit::Insert(0, Vertex::MAX)]);
        assert_eq!(idx(r), 0);
    }

    #[test]
    fn dangling_remove_and_set_weight_are_rejected() {
        assert_eq!(idx(validate_batch(U, 4, &[Edit::Remove(0, 9)])), 0);
        assert_eq!(idx(validate_batch(W, 4, &[Edit::SetWeight(0, 9, 2)])), 0);
        // …but a reference introduced by an earlier insert is fine.
        validate_batch(U, 4, &[Edit::Insert(3, 9), Edit::Remove(3, 9)]).unwrap_err(); // conflict!
        validate_batch(U, 4, &[Edit::Insert(3, 9), Edit::Remove(9, 2)]).unwrap();
    }

    #[test]
    fn weighted_rejects_zero_and_clamp_unsafe_weights() {
        assert_eq!(
            idx(validate_batch(W, 4, &[Edit::InsertWeighted(0, 1, 0)])),
            0
        );
        assert_eq!(
            idx(validate_batch(
                W,
                4,
                &[Edit::SetWeight(0, 1, CLAMP_SAFE_MAX)]
            )),
            0
        );
        validate_batch(W, 4, &[Edit::InsertWeighted(0, 1, CLAMP_SAFE_MAX - 1)]).unwrap();
        // Unweighted families never reach the weight rule.
        validate_batch(U, 4, &[Edit::InsertWeighted(0, 1, 1)]).unwrap();
    }

    #[test]
    fn conflicting_duplicates_are_rejected_exact_duplicates_pass() {
        // Same unordered edge, different meaning.
        let r = validate_batch(U, 4, &[Edit::Insert(0, 1), Edit::Remove(1, 0)]);
        assert_eq!(idx(r), 1);
        // Exact duplicate (orientation-insensitive on undirected).
        validate_batch(U, 4, &[Edit::Insert(0, 1), Edit::Insert(1, 0)]).unwrap();
        // `Insert` and `InsertWeighted(.., 1)` mean the same thing.
        validate_batch(W, 4, &[Edit::Insert(0, 1), Edit::InsertWeighted(1, 0, 1)]).unwrap();
        // Same weighted edge, two different weights: ambiguous.
        let r = validate_batch(
            W,
            4,
            &[Edit::InsertWeighted(0, 1, 2), Edit::InsertWeighted(0, 1, 3)],
        );
        assert_eq!(idx(r), 1);
        // On the directed family opposite arcs are distinct edges.
        validate_batch(D, 4, &[Edit::Insert(0, 1), Edit::Remove(1, 0)]).unwrap();
        let r = validate_batch(D, 4, &[Edit::Insert(0, 1), Edit::Remove(0, 1)]);
        assert_eq!(idx(r), 1);
    }

    #[test]
    fn weight_capability_still_layered_in() {
        assert!(matches!(
            validate_batch(U, 4, &[Edit::SetWeight(0, 1, 2)]),
            Err(OracleError::WeightedEditsUnsupported { .. })
        ));
    }
}
