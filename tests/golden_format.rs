//! Golden-format pin for the on-disk persistence formats.
//!
//! A fixed, fully deterministic scenario is serialized and compared
//! byte-for-byte against fixtures checked into `tests/fixtures/`. Any
//! accidental change to the `BHL2` checkpoint layout or the WAL record
//! framing fails this test — a deliberate format change must regenerate
//! the fixtures (`UPDATE_GOLDEN=1 cargo test --test golden_format`) and
//! bump the format version so old files are refused, not misread.
//!
//! The second half loads the *checked-in* fixture (not the freshly
//! written bytes) and asserts the revived oracle's answers, proving old
//! files keep decoding as the format evolves compatibly.
//!
//! `golden_pre_packed.*` pin the *previous* generation: a checkpoint
//! whose embedded labelling block is the legacy dense `BHL1` layout
//! (current checkpoints embed the packed `BHL3` block). Those fixtures
//! are frozen — never regenerated — and must keep loading and answering
//! identically for as long as the `BHL1` decoder is kept.
//!
//! `golden_pre_txn.*` likewise freeze the generation whose WAL is v2
//! (abort records, no txn-id field): v2 logs must keep decoding — and
//! upgrading on open — for as long as the v2 decoder is kept.
//!
//! `golden_pre_algo_weighted.*` freeze a weighted checkpoint from before
//! the weighted family honoured the update algorithm: its body (family
//! code 2) carries no algorithm byte. It must keep loading, with the
//! default algorithm, for as long as that family code is read.

use batchhl::graph::weighted::WeightedGraph;
use batchhl::graph::DynamicGraph;
use batchhl::{Algorithm, DurabilityConfig, FsyncPolicy, LandmarkSelection, Oracle};
use std::path::{Path, PathBuf};

fn fixtures_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("batchhl_golden").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The pinned scenario: everything about it must stay deterministic.
fn write_scenario(dir: &Path) {
    let g = DynamicGraph::from_edges(
        10,
        &[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 4),
            (2, 5),
            (3, 6),
            (4, 7),
            (5, 8),
            (6, 9),
            (7, 9),
        ],
    );
    let mut oracle = Oracle::builder()
        .landmarks(LandmarkSelection::TopDegree(3))
        .build(g)
        .expect("undirected source");
    oracle
        .persist_to(
            dir,
            DurabilityConfig {
                checkpoint_every: None,
                fsync: FsyncPolicy::Never,
            },
        )
        .expect("checkpoint");
    // Two batches that live only in the WAL (checkpointing is off).
    oracle.update().insert(8, 9).remove(0, 3).commit().unwrap();
    oracle.update().insert(1, 6).commit().unwrap();
}

#[test]
fn golden_bytes_are_stable() {
    let dir = scratch_dir("write");
    write_scenario(&dir);
    let got_ckpt = std::fs::read(dir.join("checkpoint.bhl2")).unwrap();
    let got_wal = std::fs::read(dir.join("batches.wal")).unwrap();

    let fixtures = fixtures_dir();
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(&fixtures).unwrap();
        std::fs::write(fixtures.join("golden.bhl2"), &got_ckpt).unwrap();
        std::fs::write(fixtures.join("golden.wal"), &got_wal).unwrap();
        eprintln!("golden fixtures regenerated — bump the format version if the layout changed");
        return;
    }

    let want_ckpt = std::fs::read(fixtures.join("golden.bhl2"))
        .expect("missing fixture: run UPDATE_GOLDEN=1 cargo test --test golden_format");
    let want_wal = std::fs::read(fixtures.join("golden.wal")).unwrap();
    assert_eq!(
        got_ckpt, want_ckpt,
        "BHL2 checkpoint bytes drifted — format change without a version bump?"
    );
    assert_eq!(
        got_wal, want_wal,
        "WAL record framing drifted — format change without a version bump?"
    );
}

/// Load a checked-in fixture pair into `scratch` and assert the revived
/// oracle's answers, including full agreement with a live mirror of the
/// same scenario.
fn assert_fixture_answers(ckpt_name: &str, wal_name: &str, scratch: &str) {
    let fixtures = fixtures_dir();
    let dir = scratch_dir(scratch);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixtures.join(ckpt_name), dir.join("checkpoint.bhl2")).unwrap();
    std::fs::copy(fixtures.join(wal_name), dir.join("batches.wal")).unwrap();

    let mut oracle = Oracle::open(&dir).expect("checked-in fixture must load");
    assert_eq!(
        oracle.batches_committed(),
        2,
        "checkpoint + replayed WAL tail"
    );
    assert_eq!(oracle.num_vertices(), 10);
    // Spot distances of the post-replay graph (tree + the two batches).
    assert_eq!(oracle.query(8, 9), Some(1), "WAL batch 0 insert");
    assert_eq!(
        oracle.query(0, 3),
        Some(3),
        "0-1-6-3 after removal + insert"
    );
    assert_eq!(oracle.query(1, 6), Some(1), "WAL batch 1 insert");
    assert_eq!(oracle.query(0, 9), Some(3), "0-1-6-9");
    assert_eq!(oracle.query(5, 5), Some(0));
    // A live mirror of the same scenario agrees everywhere.
    let live_dir = scratch_dir(&format!("{scratch}_mirror"));
    write_scenario(&live_dir);
    let mut live = Oracle::open(&live_dir).unwrap();
    for s in 0..10 {
        for t in 0..10 {
            assert_eq!(oracle.query(s, t), live.query(s, t), "({s},{t})");
        }
    }
}

#[test]
fn golden_fixture_loads_and_answers() {
    if !fixtures_dir().join("golden.bhl2").exists() && std::env::var_os("UPDATE_GOLDEN").is_some() {
        return; // first generation run
    }
    assert_fixture_answers("golden.bhl2", "golden.wal", "load");
}

#[test]
fn pre_txn_fixture_still_loads_and_answers() {
    // The frozen v2-WAL generation (pre txn-stamping). Opening it
    // upgrades the log to the current version in place (tmp + rename),
    // and the revived oracle answers identically.
    assert_fixture_answers("golden_pre_txn.bhl2", "golden_pre_txn.wal", "load_pre_txn");
}

#[test]
fn pre_packed_fixture_still_loads_and_answers() {
    // The frozen previous-generation fixture: its checkpoint embeds the
    // dense `BHL1` labelling block. It must decode through the legacy
    // path and answer exactly like the current format.
    assert_fixture_answers(
        "golden_pre_packed.bhl2",
        "golden_pre_packed.wal",
        "load_pre_packed",
    );
}

/// The frozen weighted scenario: a weighted tree-plus-cycle, three
/// top-degree landmarks, and two WAL batches mixing every kind of
/// weighted edit.
fn write_weighted_scenario(dir: &Path) {
    let g = WeightedGraph::from_edges(
        10,
        &[
            (0, 1, 3),
            (0, 2, 1),
            (0, 3, 4),
            (1, 4, 2),
            (2, 5, 5),
            (3, 6, 1),
            (4, 7, 2),
            (5, 8, 1),
            (6, 9, 3),
            (7, 9, 1),
        ],
    );
    let mut oracle = Oracle::builder()
        .landmarks(LandmarkSelection::TopDegree(3))
        .build(g)
        .expect("weighted source");
    oracle
        .persist_to(
            dir,
            DurabilityConfig {
                checkpoint_every: None,
                fsync: FsyncPolicy::Never,
            },
        )
        .expect("checkpoint");
    oracle
        .update()
        .insert_weighted(8, 9, 2)
        .set_weight(0, 3, 1)
        .commit()
        .unwrap();
    oracle
        .update()
        .remove(0, 2)
        .insert_weighted(1, 6, 1)
        .commit()
        .unwrap();
}

#[test]
fn pre_algo_weighted_fixture_still_loads_and_answers() {
    let fixtures = fixtures_dir();
    let dir = scratch_dir("load_pre_algo_weighted");
    std::fs::create_dir_all(&dir).unwrap();
    for (from, to) in [("bhl2", "checkpoint.bhl2"), ("wal", "batches.wal")] {
        let from = fixtures.join(format!("golden_pre_algo_weighted.{from}"));
        std::fs::copy(from, dir.join(to)).unwrap();
    }

    let mut oracle = Oracle::open(&dir).expect("checked-in fixture must load");
    assert_eq!(oracle.batches_committed(), 2, "WAL tail replayed");
    // A body without an algorithm byte loads with the default.
    assert_eq!(oracle.config().algorithm, Algorithm::BhlPlus);
    // Spot distances of the post-replay graph.
    assert_eq!(oracle.query(8, 9), Some(2), "WAL batch 0 insert");
    assert_eq!(oracle.query(0, 3), Some(1), "WAL batch 0 reweight");
    assert_eq!(oracle.query(0, 2), Some(13), "0-3-6-9-8-5-2 after removal");
    assert_eq!(oracle.query(0, 9), Some(5), "0-3-6-9");
    // A live mirror of the same scenario agrees everywhere.
    let live_dir = scratch_dir("load_pre_algo_weighted_mirror");
    write_weighted_scenario(&live_dir);
    let mut live = Oracle::open(&live_dir).unwrap();
    for s in 0..10 {
        for t in 0..10 {
            assert_eq!(oracle.query(s, t), live.query(s, t), "({s},{t})");
        }
    }
    oracle.verify_integrity().unwrap();
}

#[test]
fn weighted_checkpoint_roundtrips_a_non_default_algorithm() {
    let dir = scratch_dir("weighted_algorithm");
    let g = WeightedGraph::from_edges(5, &[(0, 1, 2), (1, 2, 3), (2, 3, 1), (3, 4, 4)]);
    let mut oracle = Oracle::builder()
        .algorithm(Algorithm::Uhl)
        .top_degree_landmarks(2)
        .build(g)
        .expect("weighted source");
    oracle.save(&dir).expect("checkpoint");
    let mut revived = Oracle::open(&dir).expect("fresh weighted checkpoint loads");
    assert_eq!(revived.config().algorithm, Algorithm::Uhl);
    // UHL runs one pass, and publishes one generation, per update.
    let before = revived.version();
    revived
        .update()
        .set_weight(0, 1, 1)
        .remove(3, 4)
        .commit()
        .unwrap();
    assert_eq!(revived.version(), before + 2);
    assert_eq!(revived.query(0, 3), Some(5));
}
