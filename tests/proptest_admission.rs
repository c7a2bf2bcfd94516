//! Property-based batch admission: hostile batches — self-loops,
//! out-of-range or overflowing endpoints, zero / clamp-unsafe weights,
//! conflicting duplicates, family-mismatched edit kinds — are refused
//! by `commit` *atomically*, on every index family. Observables that
//! must be left untouched by a refused batch:
//!
//! - every distance answer (all-pairs matrix),
//! - the published generation count (`version`),
//! - the write-ahead log, byte for byte,
//! - the sequence cursor (`batches_committed`) and writer health.

use batchhl::graph::weighted::WeightedGraph;
use batchhl::graph::{DynamicDiGraph, DynamicGraph, Vertex};
use batchhl::hcl::packed::CLAMP_SAFE_MAX;
use batchhl::{Dist, DurabilityConfig, Edit, FsyncPolicy, LandmarkSelection, Oracle, OracleHealth};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

const N: usize = 14;
const V: Vertex = N as Vertex;

static DIR_ID: AtomicUsize = AtomicUsize::new(0);

fn fresh_dir() -> PathBuf {
    let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("batchhl_proptest_admission")
        .join(format!("case_{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    Undirected,
    Directed,
    Weighted,
}

fn build(family: Family) -> Oracle {
    let b = Oracle::builder().landmarks(LandmarkSelection::TopDegree(3));
    match family {
        Family::Undirected => b
            .build(DynamicGraph::from_edges(
                N,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 4),
                    (4, 5),
                    (5, 6),
                    (6, 7),
                    (7, 8),
                    (2, 9),
                ],
            ))
            .expect("undirected"),
        Family::Directed => b
            .directed(true)
            .build(DynamicDiGraph::from_edges(
                N,
                &[
                    (0, 1),
                    (1, 2),
                    (2, 3),
                    (3, 0),
                    (3, 4),
                    (4, 5),
                    (5, 6),
                    (6, 7),
                ],
            ))
            .expect("directed"),
        Family::Weighted => b
            .weighted(true)
            .build(WeightedGraph::from_edges(
                N,
                &[
                    (0, 1, 2),
                    (1, 2, 1),
                    (2, 3, 4),
                    (3, 4, 2),
                    (4, 5, 3),
                    (5, 6, 1),
                ],
            ))
            .expect("weighted"),
    }
}

/// One or two edits that admission must refuse on `family`, shaped by
/// the drawn `(kind, a, off, w)` knobs.
fn poison_edits(family: Family, kind: u32, a: Vertex, off: Vertex, w: u32) -> Vec<Edit> {
    let a = a % V;
    let b = (a + 1 + off % (V - 1)) % V; // b != a
    match kind % 6 {
        // Self-loop (hostile on every family).
        0 => vec![Edit::Insert(a, a)],
        // Dangling removal: endpoint past every vertex the batch knows.
        1 => vec![Edit::Remove(a, V + 1 + off)],
        // Overflowing endpoint.
        2 => vec![Edit::Insert(Vertex::MAX, a)],
        // Conflicting duplicate: insert and remove of one edge.
        3 => vec![Edit::Insert(a, b), Edit::Remove(a, b)],
        // Weight-shaped poison, per family: a zero weight and a
        // clamp-unsafe weight on the weighted family; any non-unit
        // weight kind on the unweighted ones.
        4 => match family {
            Family::Weighted => vec![Edit::InsertWeighted(a, b, 0)],
            _ => vec![Edit::InsertWeighted(a, b, 2 + w % 7)],
        },
        _ => match family {
            Family::Weighted => vec![Edit::InsertWeighted(a, b, CLAMP_SAFE_MAX + w % 5)],
            _ => vec![Edit::SetWeight(a, b, 1 + w % 9)],
        },
    }
}

/// Valid padding so the poison sits inside an otherwise fine batch.
fn benign_edits(family: Family, pairs: &[(Vertex, Vertex)]) -> Vec<Edit> {
    let mut seen = std::collections::HashSet::new();
    pairs
        .iter()
        .filter(|&&(a, b)| a != b && seen.insert((a.min(b), a.max(b))))
        .map(|&(a, b)| match family {
            Family::Weighted => Edit::InsertWeighted(a, b, 1 + (a + b) % 4),
            _ => Edit::Insert(a, b),
        })
        .collect()
}

fn answers(o: &mut Oracle) -> Vec<Option<Dist>> {
    let pairs: Vec<(Vertex, Vertex)> = (0..V).flat_map(|s| (0..V).map(move |t| (s, t))).collect();
    o.query_many(&pairs)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn hostile_batches_change_nothing(
        family_sel in 0..3u32,
        kind in 0..6u32,
        knobs in (0..V, 0..V, 0..64u32),
        padding in prop::collection::vec((0..V, 0..V), 0..4),
        at_front in prop::bool::ANY,
    ) {
        let family = match family_sel {
            0 => Family::Undirected,
            1 => Family::Directed,
            _ => Family::Weighted,
        };
        let (a, off, w) = knobs;
        let poison = poison_edits(family, kind, a, off, w);
        let mut benign = benign_edits(family, &padding);
        // Padding must not collide with any poison edge (that would be
        // a second, unintended conflict — fine for the refusal, but it
        // keeps the case shape honest).
        let poison_keys: Vec<(Vertex, Vertex)> = poison
            .iter()
            .map(|e| match *e {
                Edit::Insert(x, y)
                | Edit::InsertWeighted(x, y, _)
                | Edit::Remove(x, y)
                | Edit::SetWeight(x, y, _) => (x.min(y), x.max(y)),
            })
            .collect();
        benign.retain(|e| match *e {
            Edit::Insert(x, y) | Edit::InsertWeighted(x, y, _) => {
                !poison_keys.contains(&(x.min(y), x.max(y)))
            }
            _ => true,
        });

        let dir = fresh_dir();
        let mut oracle = build(family);
        oracle
            .persist_to(
                &dir,
                DurabilityConfig { checkpoint_every: None, fsync: FsyncPolicy::Never },
            )
            .expect("attach durability");
        // One good batch so the WAL is non-trivial.
        match family {
            Family::Weighted => oracle.update().insert_weighted(0, 8, 2).commit().map(|_| ()),
            _ => oracle.update().insert(0, 8).commit().map(|_| ()),
        }
        .expect("baseline batch");

        let pre_answers = answers(&mut oracle);
        let pre_version = oracle.version();
        let pre_committed = oracle.batches_committed();
        let pre_wal = std::fs::read(dir.join("batches.wal")).expect("wal bytes");

        let mut session = oracle.update();
        let (head, tail) = if at_front { (&poison, &benign) } else { (&benign, &poison) };
        for e in head.iter().chain(tail.iter()) {
            session = session.push(*e);
        }
        let err = session.commit().expect_err("hostile batch must be refused");
        let _ = err.to_string(); // typed + displayable

        prop_assert_eq!(answers(&mut oracle), pre_answers, "answers untouched");
        prop_assert_eq!(oracle.version(), pre_version, "no generation published");
        prop_assert_eq!(oracle.batches_committed(), pre_committed, "no sequence consumed");
        prop_assert_eq!(
            std::fs::read(dir.join("batches.wal")).expect("wal bytes"),
            pre_wal,
            "WAL byte-identical"
        );
        prop_assert_eq!(oracle.health(), &OracleHealth::Healthy, "still healthy");

        // And the refusal is non-sticky: a benign batch still lands.
        match family {
            Family::Weighted => oracle.update().insert_weighted(1, 9, 3).commit().map(|_| ()),
            _ => oracle.update().insert(1, 9).commit().map(|_| ()),
        }
        .expect("oracle still writable");
    }
}
