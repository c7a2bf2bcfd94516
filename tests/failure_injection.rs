//! Failure injection: hostile and degenerate inputs that exercised
//! every guard in the update pipeline during development — plus
//! crash-injection for the durability subsystem (torn WAL tails,
//! flipped checksum bytes, deleted/corrupted checkpoints).

use batchhl::core::index::{Algorithm, BatchIndex, IndexConfig};
use batchhl::graph::bfs::bfs_distances;
use batchhl::graph::generators::{complete, path, star};
use batchhl::graph::weighted::WeightedGraph;
use batchhl::graph::{Batch, DynamicDiGraph, DynamicGraph, Update, Vertex};
use batchhl::hcl::{oracle, LandmarkSelection};
use batchhl::{DurabilityConfig, FsyncPolicy, Oracle, PersistError, INF};
use std::path::PathBuf;

fn index(g: DynamicGraph, k: usize) -> BatchIndex {
    BatchIndex::build(
        g,
        IndexConfig {
            selection: LandmarkSelection::TopDegree(k),
            algorithm: Algorithm::BhlPlus,
            threads: 1,
            ..IndexConfig::default()
        },
    )
}

fn assert_minimal(idx: &BatchIndex) {
    oracle::check_minimal(&idx.graph(), idx.labelling()).unwrap();
}

#[test]
fn empty_graph_and_empty_batches() {
    let mut idx = index(DynamicGraph::new(0), 4);
    assert_eq!(idx.apply_batch(&Batch::new()).applied, 0);
    assert_eq!(idx.query(0, 0), None, "out-of-range is None, not panic");

    let mut idx = index(DynamicGraph::new(5), 4); // edgeless
    assert_eq!(idx.query(1, 2), None);
    assert_eq!(idx.query(3, 3), Some(0));
    let mut b = Batch::new();
    b.insert(0, 1);
    idx.apply_batch(&b);
    assert_eq!(idx.query(0, 1), Some(1));
    assert_minimal(&idx);
}

#[test]
fn garbage_batches_are_inert() {
    let g = path(8);
    let mut idx = index(g.clone(), 3);
    let before = idx.labelling().clone();
    let mut b = Batch::new();
    b.push(Update::Insert(3, 3)); // self loop
    b.push(Update::Insert(0, 1)); // duplicate of existing edge
    b.push(Update::Delete(0, 5)); // non-edge
    b.push(Update::Insert(2, 6)); // valid …
    b.push(Update::Delete(2, 6)); // … but cancelled in the same batch
    b.push(Update::Delete(6, 2)); // cancelled pair, reversed endpoints
    let stats = idx.apply_batch(&b);
    assert_eq!(stats.applied, 0);
    assert_eq!(&idx.graph(), &g);
    assert_eq!(idx.labelling(), &before);
}

#[test]
fn repeated_updates_within_batch_collapse() {
    let mut idx = index(path(6), 2);
    let mut b = Batch::new();
    for _ in 0..10 {
        b.insert(0, 3);
    }
    let stats = idx.apply_batch(&b);
    assert_eq!(stats.applied, 1);
    assert_eq!(idx.query(0, 3), Some(1));
    assert_minimal(&idx);
}

#[test]
fn total_destruction_and_rebirth() {
    let g = complete(10);
    let mut idx = index(g.clone(), 4);
    // Delete every edge in one batch.
    let mut wipe = Batch::new();
    for (a, b) in g.edges() {
        wipe.delete(a, b);
    }
    let stats = idx.apply_batch(&wipe);
    assert_eq!(stats.applied, 45);
    for s in 0..10u32 {
        for t in 0..10u32 {
            assert_eq!(idx.query(s, t), (s == t).then_some(0));
        }
    }
    assert_minimal(&idx);
    assert_eq!(idx.labelling().size_entries(), 0, "empty graph ⇒ no labels");
    // Re-create everything in one batch.
    let mut rebuild = Batch::new();
    for (a, b) in g.edges() {
        rebuild.insert(a, b);
    }
    idx.apply_batch(&rebuild);
    assert_eq!(&idx.graph(), &g);
    assert_minimal(&idx);
}

#[test]
fn landmark_isolation() {
    // Cut off the top-degree landmark (star centre) entirely.
    let g = star(12);
    let mut idx = index(g.clone(), 3);
    let mut b = Batch::new();
    for (a, c) in g.edges() {
        b.delete(a, c);
    }
    b.insert(1, 2); // leave one ordinary edge
    idx.apply_batch(&b);
    assert_eq!(idx.query(0, 1), None);
    assert_eq!(idx.query(1, 2), Some(1));
    assert_minimal(&idx);
}

#[test]
fn growth_via_batches() {
    let mut idx = index(path(3), 2);
    let mut b = Batch::new();
    b.insert(2, 3);
    b.insert(3, 4);
    b.insert(4, 5);
    idx.apply_batch(&b);
    assert_eq!(idx.num_vertices(), 6);
    assert_eq!(idx.query(0, 5), Some(5));
    assert_minimal(&idx);
    // New vertices can immediately appear in follow-up batches.
    let mut b = Batch::new();
    b.delete(4, 5);
    b.insert(0, 5);
    idx.apply_batch(&b);
    assert_eq!(idx.query(4, 5), Some(5)); // 4-3-2-1-0-5
    assert_minimal(&idx);
}

#[test]
fn oscillating_edge_stays_consistent() {
    // The same edge toggled across many batches: labels must be
    // identical whenever the graph state repeats (uniqueness).
    let mut idx = index(path(7), 3);
    let with_shortcut = {
        let mut b = Batch::new();
        b.insert(0, 6);
        idx.apply_batch(&b);
        idx.labelling().clone()
    };
    let without_shortcut = {
        let mut b = Batch::new();
        b.delete(0, 6);
        idx.apply_batch(&b);
        idx.labelling().clone()
    };
    for _ in 0..5 {
        let mut b = Batch::new();
        b.insert(0, 6);
        idx.apply_batch(&b);
        assert_eq!(idx.labelling(), &with_shortcut);
        let mut b = Batch::new();
        b.delete(0, 6);
        idx.apply_batch(&b);
        assert_eq!(idx.labelling(), &without_shortcut);
    }
}

// ---------------------------------------------------------------------
// Crash injection for the durability subsystem.
// ---------------------------------------------------------------------

fn crash_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("batchhl_failure_injection")
        .join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn no_sync() -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: None,
        fsync: FsyncPolicy::Never,
    }
}

/// Durable oracle on a path, two committed batches living only in the
/// WAL, plus the expected all-pairs distances after 0, 1 and 2 batches.
fn durable_scenario(dir: &PathBuf) -> Vec<Vec<Vec<Option<u32>>>> {
    const N: usize = 9;
    let mut oracle = Oracle::builder()
        .top_degree_landmarks(2)
        .build(path(N))
        .unwrap();
    oracle.persist_to(dir, no_sync()).unwrap();
    let mut mirror = path(N);
    let mut states = Vec::new();
    let all_pairs = |g: &DynamicGraph| -> Vec<Vec<Option<u32>>> {
        (0..N as Vertex)
            .map(|s| {
                bfs_distances(g, s)
                    .into_iter()
                    .map(|d| (d != INF).then_some(d))
                    .collect()
            })
            .collect()
    };
    states.push(all_pairs(&mirror)); // checkpoint state, 0 batches
    oracle.update().insert(0, 8).remove(3, 4).commit().unwrap();
    mirror.insert_edge(0, 8);
    mirror.remove_edge(3, 4);
    states.push(all_pairs(&mirror));
    oracle.update().insert(2, 6).commit().unwrap();
    mirror.insert_edge(2, 6);
    states.push(all_pairs(&mirror));
    drop(oracle); // crash: neither batch is in the checkpoint
    states
}

fn assert_matches_state(
    oracle: &mut batchhl::DistanceOracle,
    state: &[Vec<Option<u32>>],
    ctx: &str,
) {
    for (s, row) in state.iter().enumerate() {
        for (t, &want) in row.iter().enumerate() {
            assert_eq!(
                oracle.query(s as Vertex, t as Vertex),
                want,
                "{ctx}: query({s},{t})"
            );
        }
    }
}

/// Truncate the WAL at *every* byte boundary: recovery must always
/// succeed, replaying exactly the longest clean prefix of records —
/// the revived oracle holds a batch-boundary state, never a mix.
#[test]
fn wal_truncated_at_every_byte_recovers_a_clean_prefix() {
    let dir = crash_dir("torn_wal");
    let states = durable_scenario(&dir);
    let wal_path = dir.join("batches.wal");
    let full = std::fs::read(&wal_path).unwrap();
    for cut in 0..=full.len() {
        std::fs::write(&wal_path, &full[..cut]).unwrap();
        let mut revived = Oracle::open_with(&dir, no_sync())
            .unwrap_or_else(|e| panic!("cut {cut}: torn tail must recover, got {e}"));
        let replayed = revived.batches_committed() as usize;
        assert!(replayed <= 2, "cut {cut}: at most the logged batches");
        assert_matches_state(&mut revived, &states[replayed], &format!("cut {cut}"));
    }
}

/// Flip every byte of the WAL (one at a time): recovery must either
/// replay a clean batch-boundary state or fail with a typed error —
/// never panic, never serve distances that match no committed prefix.
#[test]
fn wal_bit_flips_never_yield_wrong_distances() {
    let dir = crash_dir("flipped_wal");
    let states = durable_scenario(&dir);
    let wal_path = dir.join("batches.wal");
    let full = std::fs::read(&wal_path).unwrap();
    for pos in 0..full.len() {
        let mut bad = full.clone();
        bad[pos] ^= 0x01;
        std::fs::write(&wal_path, &bad).unwrap();
        match Oracle::open_with(&dir, no_sync()) {
            Ok(mut revived) => {
                let replayed = revived.batches_committed() as usize;
                assert!(replayed <= 2, "flip at {pos}");
                assert_matches_state(&mut revived, &states[replayed], &format!("flip {pos}"));
            }
            Err(
                PersistError::WalCorrupt { .. }
                | PersistError::BadMagic { .. }
                | PersistError::UnsupportedVersion { .. }
                | PersistError::Replay(_),
            ) => {}
            Err(other) => panic!("flip at {pos}: unexpected error kind {other}"),
        }
    }
}

/// The stored record checksums specifically: flipping any of their
/// bytes is corruption (the record is complete, its bytes are wrong)
/// and must be refused with the typed WAL error.
#[test]
fn wal_checksum_flips_are_typed_corruption() {
    let dir = crash_dir("bad_crc");
    durable_scenario(&dir);
    let wal_path = dir.join("batches.wal");
    let full = std::fs::read(&wal_path).unwrap();
    // First record starts right after the 8-byte file header; its
    // stored checksum occupies bytes 4..8 of the record frame.
    for pos in 12..16 {
        let mut bad = full.clone();
        bad[pos] ^= 0xFF;
        std::fs::write(&wal_path, &bad).unwrap();
        assert!(
            matches!(
                Oracle::open_with(&dir, no_sync()),
                Err(PersistError::WalCorrupt { .. })
            ),
            "checksum byte {pos}"
        );
    }
}

/// Deleting the checkpoint (but not the WAL) must fail with the typed
/// missing-checkpoint error — the WAL alone cannot reconstruct state.
#[test]
fn deleted_checkpoint_is_a_typed_error() {
    let dir = crash_dir("no_checkpoint");
    durable_scenario(&dir);
    std::fs::remove_file(dir.join("checkpoint.bhl2")).unwrap();
    assert!(matches!(
        Oracle::open(&dir),
        Err(PersistError::MissingCheckpoint { .. })
    ));
}

/// Truncating or flipping bytes of the checkpoint itself: `open` must
/// fail typed (the CRC trailer seals the body), never panic and never
/// build an index from half a file.
#[test]
fn corrupt_checkpoints_fail_typed_never_panic() {
    let dir = crash_dir("bad_checkpoint");
    durable_scenario(&dir);
    let ckpt = dir.join("checkpoint.bhl2");
    let full = std::fs::read(&ckpt).unwrap();
    for cut in (0..full.len()).step_by(7).chain([full.len() - 1]) {
        std::fs::write(&ckpt, &full[..cut]).unwrap();
        assert!(
            Oracle::open_with(&dir, no_sync()).is_err(),
            "truncation at {cut} must fail"
        );
    }
    for pos in (0..full.len()).step_by(11) {
        let mut bad = full.clone();
        bad[pos] ^= 0x20;
        std::fs::write(&ckpt, &bad).unwrap();
        assert!(
            Oracle::open_with(&dir, no_sync()).is_err(),
            "flip at {pos} must fail (CRC trailer)"
        );
    }
}

/// The acceptance-criteria scenario, all three families: a crash after
/// commits that were never checkpointed must replay the WAL to the
/// exact pre-crash distances.
#[test]
fn mid_commit_crash_replays_exactly_on_every_family() {
    // Undirected.
    let dir = crash_dir("families_und");
    let mut o = Oracle::builder()
        .top_degree_landmarks(3)
        .build(path(10))
        .unwrap();
    o.persist_to(&dir, no_sync()).unwrap();
    o.update().insert(0, 9).remove(4, 5).commit().unwrap();
    let want: Vec<_> = (0..10)
        .flat_map(|s| (0..10).map(move |t| (s, t)))
        .map(|(s, t)| o.query(s, t))
        .collect();
    drop(o);
    let mut r = Oracle::open_with(&dir, no_sync()).unwrap();
    let got: Vec<_> = (0..10)
        .flat_map(|s| (0..10).map(move |t| (s, t)))
        .map(|(s, t)| r.query(s, t))
        .collect();
    assert_eq!(got, want, "undirected replay");

    // Directed.
    let dir = crash_dir("families_dir");
    let g = DynamicDiGraph::from_edges(8, &[(0, 1), (1, 2), (2, 3), (3, 0), (2, 5), (5, 6)]);
    let mut o = Oracle::builder()
        .directed(true)
        .top_degree_landmarks(2)
        .build(g)
        .unwrap();
    o.persist_to(&dir, no_sync()).unwrap();
    o.update().insert(6, 0).remove(1, 2).commit().unwrap();
    let want: Vec<_> = (0..8)
        .flat_map(|s| (0..8).map(move |t| (s, t)))
        .map(|(s, t)| o.query(s, t))
        .collect();
    drop(o);
    let mut r = Oracle::open_with(&dir, no_sync()).unwrap();
    let got: Vec<_> = (0..8)
        .flat_map(|s| (0..8).map(move |t| (s, t)))
        .map(|(s, t)| r.query(s, t))
        .collect();
    assert_eq!(got, want, "directed replay");

    // Weighted (weight edits ride the WAL too).
    let dir = crash_dir("families_wtd");
    let g = WeightedGraph::from_edges(8, &[(0, 1, 4), (1, 2, 1), (2, 3, 2), (3, 4, 5), (4, 5, 1)]);
    let mut o = Oracle::builder()
        .weighted(true)
        .top_degree_landmarks(2)
        .build(g)
        .unwrap();
    o.persist_to(&dir, no_sync()).unwrap();
    o.update()
        .insert_weighted(5, 6, 2)
        .set_weight(0, 1, 1)
        .remove(3, 4)
        .commit()
        .unwrap();
    let want: Vec<_> = (0..8)
        .flat_map(|s| (0..8).map(move |t| (s, t)))
        .map(|(s, t)| o.query(s, t))
        .collect();
    drop(o);
    let mut r = Oracle::open_with(&dir, no_sync()).unwrap();
    let got: Vec<_> = (0..8)
        .flat_map(|s| (0..8).map(move |t| (s, t)))
        .map(|(s, t)| r.query(s, t))
        .collect();
    assert_eq!(got, want, "weighted replay");
}

#[test]
fn parallel_variant_survives_degenerate_inputs() {
    let mut cfg = IndexConfig {
        selection: LandmarkSelection::TopDegree(4),
        algorithm: Algorithm::BhlPlus,
        threads: 8, // more threads than landmarks
        ..IndexConfig::default()
    };
    cfg.selection = LandmarkSelection::TopDegree(2);
    let mut idx = BatchIndex::build(path(5), cfg);
    let mut b = Batch::new();
    b.delete(1, 2);
    b.insert(0, 4);
    idx.apply_batch(&b);
    assert_minimal(&idx);
}
