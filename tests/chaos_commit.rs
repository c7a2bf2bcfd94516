//! Deterministic chaos suite for the transactional commit path:
//! every failpoint site × every index family, asserting the
//! commit-atomicity contract of `UpdateSession::commit`:
//!
//! - no panic ever escapes the facade;
//! - a failed commit leaves concurrent readers' answers bit-identical
//!   to the pre-batch generation;
//! - re-opening the durability directory lands on exactly the
//!   pre-batch or post-batch state — never between;
//! - [`Oracle::recover`] restores writability after a poisoned commit.
//!
//! Compiled only with `--features failpoints`; the failpoint registry
//! is process-global, so every test serializes on one mutex.
#![cfg(feature = "failpoints")]

use batchhl::common::failpoint::{self, Action};
use batchhl::core::{
    BatchIndex, DirectedBatchIndex, Family, Index, IndexConfig, WeightedBatchIndex,
};
use batchhl::graph::weighted::WeightedGraph;
use batchhl::graph::{generators, DynamicDiGraph, Vertex};
use batchhl::hcl::PackedIndex;
use batchhl::{
    Backend, Dist, DurabilityConfig, Edit, FsyncPolicy, LandmarkSelection, Oracle, OracleError,
    OracleHealth, PersistError,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

static SERIAL: Mutex<()> = Mutex::new(());
static DIR_ID: AtomicUsize = AtomicUsize::new(0);

/// One failpoint registry per process: serialize every test (and
/// survive a poisoned guard from an earlier failed assertion).
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|p| p.into_inner())
}

fn fresh_dir() -> PathBuf {
    let id = DIR_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("batchhl_chaos_commit")
        .join(format!("case_{id}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One index family under chaos: a builder (parameterized by update
/// threads, so the same cases run over the sequential and the
/// landmark-parallel repair paths), a baseline batch and a second
/// (victim) batch, both admissible and both state-changing.
struct Fam {
    name: &'static str,
    build: fn(usize) -> Oracle,
    batch1: fn(&mut Oracle) -> Result<(), OracleError>,
    batch2: fn(&mut Oracle) -> Result<(), OracleError>,
}

fn families() -> [Fam; 3] {
    [
        Fam {
            name: "undirected",
            build: |threads| {
                Oracle::builder()
                    .top_degree_landmarks(3)
                    .threads(threads)
                    .build(generators::path(12))
                    .expect("undirected source")
            },
            batch1: |o| o.update().insert(0, 11).commit().map(|_| ()),
            batch2: |o| o.update().insert(2, 9).remove(5, 6).commit().map(|_| ()),
        },
        Fam {
            name: "directed",
            build: |threads| {
                let g = DynamicDiGraph::from_edges(
                    10,
                    &[
                        (0, 1),
                        (1, 2),
                        (2, 3),
                        (3, 4),
                        (4, 5),
                        (5, 6),
                        (6, 0),
                        (7, 8),
                        (8, 9),
                    ],
                );
                Oracle::builder()
                    .directed(true)
                    .top_degree_landmarks(3)
                    .threads(threads)
                    .build(g)
                    .expect("directed source")
            },
            batch1: |o| o.update().insert(6, 7).commit().map(|_| ()),
            batch2: |o| o.update().insert(9, 0).remove(2, 3).commit().map(|_| ()),
        },
        Fam {
            name: "weighted",
            build: |threads| {
                let g = WeightedGraph::from_edges(
                    9,
                    &[
                        (0, 1, 2),
                        (1, 2, 3),
                        (2, 3, 1),
                        (3, 4, 4),
                        (4, 5, 2),
                        (5, 6, 1),
                        (6, 7, 5),
                    ],
                );
                Oracle::builder()
                    .weighted(true)
                    .top_degree_landmarks(3)
                    .threads(threads)
                    .build(g)
                    .expect("weighted source")
            },
            batch1: |o| o.update().insert_weighted(7, 8, 2).commit().map(|_| ()),
            batch2: |o| {
                o.update()
                    .insert_weighted(0, 8, 3)
                    .set_weight(1, 2, 1)
                    .commit()
                    .map(|_| ())
            },
        },
    ]
}

fn no_checkpoint() -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: None,
        fsync: FsyncPolicy::Never,
    }
}

fn every_batch() -> DurabilityConfig {
    DurabilityConfig {
        checkpoint_every: Some(1),
        fsync: FsyncPolicy::Never,
    }
}

/// All-pairs answer matrix — the bit-identity witness.
fn answers(o: &mut Oracle) -> Vec<Option<Dist>> {
    let n = o.num_vertices() as Vertex;
    let pairs: Vec<(Vertex, Vertex)> = (0..n).flat_map(|s| (0..n).map(move |t| (s, t))).collect();
    o.query_many(&pairs)
}

fn wal_len(dir: &std::path::Path) -> u64 {
    std::fs::metadata(dir.join("batches.wal"))
        .expect("wal exists")
        .len()
}

/// Failures in the write-ahead phase — error or panic at either WAL
/// site — are contained, leave zero bytes appended (the all-or-nothing
/// guard), apply nothing, and keep the oracle healthy: the very next
/// commit succeeds without any recovery step.
#[test]
fn wal_phase_failures_leave_commit_atomic_and_healthy() {
    let _g = serial();
    for fam in families() {
        for site in ["wal::before_append", "wal::after_write_before_sync"] {
            for action in [Action::Error, Action::Panic] {
                let ctx = format!("{} @ {site} ({action:?})", fam.name);
                let dir = fresh_dir();
                let mut o = (fam.build)(1);
                o.persist_to(&dir, no_checkpoint()).expect("attach");
                (fam.batch1)(&mut o).expect("baseline batch");
                let pre = answers(&mut o);
                let pre_wal = wal_len(&dir);

                let armed = failpoint::arm(site, action);
                let err = (fam.batch2)(&mut o).expect_err(&ctx);
                drop(armed);
                match action {
                    Action::Error => {
                        assert!(
                            matches!(err, OracleError::Durability { .. }),
                            "{ctx}: {err}"
                        )
                    }
                    Action::Panic => {
                        assert!(
                            matches!(err, OracleError::CommitPanicked { .. }),
                            "{ctx}: {err}"
                        )
                    }
                }
                assert_eq!(*o.health(), OracleHealth::Healthy, "{ctx}");
                assert_eq!(answers(&mut o), pre, "{ctx}: nothing applied");
                assert_eq!(wal_len(&dir), pre_wal, "{ctx}: nothing appended");
                // No recovery needed — the commit merely failed.
                (fam.batch2)(&mut o).expect(&ctx);
                // The failed append must have rolled the writer's own
                // cursor back along with the file: the retry's record
                // has to land flush against the previous one, or the
                // zero-filled gap makes the whole directory unopenable
                // (recovery decodes the gap as mid-log corruption).
                let post = answers(&mut o);
                let mut reopened = Oracle::open_with(&dir, no_checkpoint()).expect(&ctx);
                assert_eq!(reopened.batches_committed(), o.batches_committed(), "{ctx}");
                assert_eq!(
                    answers(&mut reopened),
                    post,
                    "{ctx}: reopen = post-retry state"
                );
            }
        }
    }
}

/// A panic in the middle of batch repair (after the batch is durable
/// in the WAL) is contained: the logged batch is cancelled with an
/// abort record, the backend rolls back to the last published
/// generation, concurrent readers stay bit-identical to the pre-batch
/// answers, writes are poisoned until `recover`, and a reopen from
/// disk lands on exactly the pre-batch state.
#[test]
fn mid_apply_panic_rolls_back_poisons_and_recovers() {
    let _g = serial();
    // `mid_repair_panic` fires before the landmark loop;
    // `landmark_panic` fires *inside* it — with `threads = 4` that is
    // inside a scoped parallel worker, so the panic crosses
    // `scope.spawn`/`join` before reaching commit containment.
    let sites = [
        ("engine::mid_repair_panic", 1),
        ("engine::landmark_panic", 1),
        ("engine::landmark_panic", 4),
    ];
    for fam in families() {
        for (site, threads) in sites {
            let ctx = &format!("{} @ {site} (threads={threads})", fam.name);
            let dir = fresh_dir();
            let mut o = (fam.build)(threads);
            o.persist_to(&dir, no_checkpoint()).expect("attach");
            (fam.batch1)(&mut o).expect("baseline batch");
            let reader = o.reader();
            let pre = answers(&mut o);
            let committed = o.batches_committed();

            let armed = failpoint::arm(site, Action::Panic);
            let err = (fam.batch2)(&mut o).expect_err(ctx);
            drop(armed);
            assert!(
                matches!(err, OracleError::CommitPanicked { .. }),
                "{ctx}: {err}"
            );
            assert!(
                matches!(o.health(), OracleHealth::WritesPoisoned { .. }),
                "{ctx}: {:?}",
                o.health()
            );
            assert_eq!(o.batches_committed(), committed, "{ctx}: seq not consumed");

            // Readers — including from other threads — serve the pre-batch
            // generation bit-identically.
            assert_eq!(answers(&mut o), pre, "{ctx}: owner rolled back");
            let n = o.num_vertices() as Vertex;
            std::thread::scope(|scope| {
                for _ in 0..2 {
                    let r = &reader;
                    let pre = &pre;
                    scope.spawn(move || {
                        for s in 0..n {
                            for t in 0..n {
                                assert_eq!(
                                    r.query(s, t),
                                    pre[(s * n + t) as usize],
                                    "{ctx}: reader ({s},{t})"
                                );
                            }
                        }
                    });
                }
            });

            // Writes are refused until recovery...
            let err = (fam.batch2)(&mut o).expect_err(ctx);
            assert!(
                matches!(err, OracleError::WritesPoisoned { .. }),
                "{ctx}: {err}"
            );

            // ...a cold reopen lands on exactly the pre-batch state (the
            // abort record cancels the logged batch)...
            let mut reopened = Oracle::open_with(&dir, no_checkpoint()).expect(ctx);
            assert_eq!(reopened.batches_committed(), committed, "{ctx}");
            assert_eq!(answers(&mut reopened), pre, "{ctx}: reopen = pre-batch");
            drop(reopened);

            // ...and in-process recovery restores writability: the retried
            // batch lands and survives another reopen (post-batch state).
            o.recover().expect(ctx);
            assert_eq!(*o.health(), OracleHealth::Healthy, "{ctx}");
            (fam.batch2)(&mut o).expect(ctx);
            let post = answers(&mut o);
            assert_ne!(post, pre, "{ctx}: victim batch changes distances");
            let mut reopened = Oracle::open_with(&dir, no_checkpoint()).expect(ctx);
            assert_eq!(answers(&mut reopened), post, "{ctx}: reopen = post-batch");
        }
    }
}

/// The rollback of the case above, at the backend seam the facade
/// drives (`rollback_token`, a contained `commit_edits`, `restore`):
/// the republished generation keeps the pre-batch generation's packed
/// mirrors — sealed and row-equal, with no repack — and the next commit
/// patches from them again. A pass mutates nothing it has not
/// published, so the panic leaves the published graph (the CSR view)
/// as it was, and `restore` republishes that same graph.
fn rollback_keeps_sealed_mirrors<F: Family>(mut idx: Index<F>, batch1: &[Edit], batch2: &[Edit]) {
    let ctx = format!("{} @ engine::mid_repair_panic", F::KIND);
    for lab in idx.published().value().labellings() {
        lab.packed();
    }
    idx.commit_edits(batch1).expect(&ctx);
    let pre: Vec<PackedIndex> = idx
        .published()
        .value()
        .labellings()
        .iter()
        .map(|lab| lab.packed().clone())
        .collect();

    let graph_before = idx.published().value().view().clone();

    let token = idx.rollback_token();
    let armed = failpoint::arm("engine::mid_repair_panic", Action::Panic);
    let outcome = catch_unwind(AssertUnwindSafe(|| idx.commit_edits(batch2)));
    drop(armed);
    assert!(outcome.is_err(), "{ctx}: the pass panicked");
    assert_eq!(
        idx.published().value().view(),
        &graph_before,
        "{ctx}: the panic published no graph"
    );
    idx.restore(token).expect(&ctx);
    assert_eq!(
        idx.published().value().view(),
        &graph_before,
        "{ctx}: restored graph = pre-batch"
    );

    let snap = idx.published();
    let labs = snap.value().labellings();
    assert_eq!(labs.len(), pre.len());
    for (lab, want) in labs.into_iter().zip(&pre) {
        assert!(lab.packed_is_sealed(), "{ctx}: republished mirror sealed");
        assert_eq!(lab.packed(), want, "{ctx}: republished mirror = pre-batch");
    }
    idx.commit_edits(batch2).expect(&ctx);
    for lab in idx.published().value().labellings() {
        assert!(lab.packed_is_sealed(), "{ctx}: retried batch sealed");
        assert_eq!(
            lab.packed(),
            &PackedIndex::build(lab),
            "{ctx}: retried batch exact"
        );
    }
}

#[test]
fn mid_repair_panic_rollback_keeps_sealed_mirrors() {
    let _g = serial();
    let config = IndexConfig {
        selection: LandmarkSelection::TopDegree(3),
        ..IndexConfig::default()
    };
    rollback_keeps_sealed_mirrors(
        BatchIndex::try_build(generators::path(12), config.clone()).expect("undirected"),
        &[Edit::Insert(0, 11)],
        &[Edit::Insert(2, 9), Edit::Remove(5, 6)],
    );
    let arcs = [
        (0, 1),
        (1, 2),
        (2, 3),
        (3, 4),
        (4, 5),
        (5, 6),
        (6, 0),
        (7, 8),
        (8, 9),
    ];
    rollback_keeps_sealed_mirrors(
        DirectedBatchIndex::try_build(DynamicDiGraph::from_edges(10, &arcs), config.clone())
            .expect("directed"),
        &[Edit::Insert(6, 7)],
        &[Edit::Insert(9, 0), Edit::Remove(2, 3)],
    );
    let edges = [
        (0, 1, 2),
        (1, 2, 3),
        (2, 3, 1),
        (3, 4, 4),
        (4, 5, 2),
        (5, 6, 1),
        (6, 7, 5),
    ];
    rollback_keeps_sealed_mirrors(
        WeightedBatchIndex::try_build(WeightedGraph::from_edges(9, &edges), config)
            .expect("weighted"),
        &[Edit::InsertWeighted(7, 8, 2)],
        &[Edit::InsertWeighted(0, 8, 3), Edit::SetWeight(1, 2, 1)],
    );
}

/// When the WAL abort record itself cannot be written after a
/// mid-apply panic, the failed batch stays live in the log. The oracle
/// must say so (`batch_still_logged`), a cold reopen that trips the
/// same deterministic failure during replay must surface a typed error
/// instead of panicking out of `open`, and `recover` must cancel the
/// batch in the log *before* reloading — landing on exactly the
/// pre-batch state, never silently replaying a batch the caller was
/// told failed.
#[test]
fn failed_abort_record_is_tracked_and_cancelled_by_recover() {
    let _g = serial();
    let sites = [
        ("engine::mid_repair_panic", 1),
        // The same abort-failure containment with the panic raised in a
        // scoped parallel landmark worker.
        ("engine::landmark_panic", 4),
    ];
    for fam in families() {
        for (site, threads) in sites {
            let ctx = &format!("{} @ {site} (threads={threads})", fam.name);
            let dir = fresh_dir();
            let mut o = (fam.build)(threads);
            o.persist_to(&dir, no_checkpoint()).expect("attach");
            (fam.batch1)(&mut o).expect("baseline batch");
            let pre = answers(&mut o);
            let committed = o.batches_committed();
            let pre_wal = wal_len(&dir);

            // Fail the apply AND the abort record: the WAL write site
            // passes the batch append (hit 1) and fires on the abort
            // append (hit 2).
            let panic_arm = failpoint::arm(site, Action::Panic);
            let abort_arm = failpoint::arm_times("wal::after_write_before_sync", Action::Error, 1);
            let err = (fam.batch2)(&mut o).expect_err(ctx);
            drop(abort_arm);
            drop(panic_arm);
            assert!(
                matches!(err, OracleError::CommitPanicked { .. }),
                "{ctx}: {err}"
            );
            assert!(
                matches!(
                    o.health(),
                    OracleHealth::WritesPoisoned {
                        batch_still_logged: true,
                        ..
                    }
                ),
                "{ctx}: {:?}",
                o.health()
            );
            assert_eq!(answers(&mut o), pre, "{ctx}: rolled back in memory");
            // The failed batch is durable with no cancelling abort record…
            assert!(wal_len(&dir) > pre_wal, "{ctx}: batch still logged");
            // …so a cold reopen replays it; when the replay trips the same
            // deterministic failure, `open` reports it typed — no panic
            // crosses the facade.
            let replay_arm = failpoint::arm(site, Action::Panic);
            let err = Oracle::open_with(&dir, no_checkpoint()).expect_err(ctx);
            drop(replay_arm);
            assert!(matches!(err, PersistError::Replay(_)), "{ctx}: {err}");

            // In-process recovery first writes the abort record, then
            // reloads: exactly the pre-batch state, writable again.
            o.recover().expect(ctx);
            assert_eq!(*o.health(), OracleHealth::Healthy, "{ctx}");
            assert_eq!(o.batches_committed(), committed, "{ctx}");
            assert_eq!(answers(&mut o), pre, "{ctx}: recover = pre-batch");
            // The retried batch lands and survives a reopen.
            (fam.batch2)(&mut o).expect(ctx);
            let post = answers(&mut o);
            let mut reopened = Oracle::open_with(&dir, no_checkpoint()).expect(ctx);
            assert_eq!(answers(&mut reopened), post, "{ctx}: reopen = post-batch");
        }
    }
}

/// Failures in the post-commit checkpoint phase degrade health but do
/// NOT roll the batch back: it is applied, logged, and survives a
/// reopen; the next successful checkpoint clears the degradation.
#[test]
fn checkpoint_failures_degrade_without_losing_the_batch() {
    let _g = serial();
    for fam in families() {
        for site in ["persist::after_tmp_write", "persist::before_rename"] {
            let ctx = format!("{} @ {site}", fam.name);
            let dir = fresh_dir();
            let mut o = (fam.build)(1);
            o.persist_to(&dir, every_batch()).expect("attach");
            (fam.batch1)(&mut o).expect("baseline batch (checkpointed)");
            let committed = o.batches_committed();

            let armed = failpoint::arm(site, Action::Error);
            let err = (fam.batch2)(&mut o).expect_err(&ctx);
            drop(armed);
            assert!(
                matches!(err, OracleError::Durability { .. }),
                "{ctx}: {err}"
            );
            assert!(
                matches!(o.health(), OracleHealth::Degraded { .. }),
                "{ctx}: {:?}",
                o.health()
            );
            // The batch itself is committed and durable.
            assert_eq!(o.batches_committed(), committed + 1, "{ctx}");
            let post = answers(&mut o);
            let mut reopened = Oracle::open_with(&dir, no_checkpoint()).expect(&ctx);
            assert_eq!(reopened.batches_committed(), committed + 1, "{ctx}");
            assert_eq!(answers(&mut reopened), post, "{ctx}: reopen = post-batch");
            drop(reopened);

            // Degraded still accepts commits; the succeeding
            // auto-checkpoint restores full health.
            (fam.batch1)(&mut o).expect(&ctx);
            assert_eq!(*o.health(), OracleHealth::Healthy, "{ctx}");
        }
    }
}

/// The WAL refuses a record larger than its frame bound with a typed
/// error before a single byte lands — surfaced through the facade as a
/// durability error that leaves the oracle healthy and the log intact.
#[test]
fn oversized_batches_surface_typed_and_leave_the_log_intact() {
    let _g = serial();
    let dir = fresh_dir();
    let mut o = Oracle::builder()
        .top_degree_landmarks(2)
        .build(generators::path(8))
        .expect("undirected source");
    o.persist_to(&dir, no_checkpoint()).expect("attach");
    o.update().insert(0, 7).commit().expect("baseline");
    let pre_wal = wal_len(&dir);
    let err = {
        // Straight to the WAL layer: an admissible 64 MiB+ batch would
        // take minutes to repair, the refusal happens before that.
        let mut w = batchhl::WalWriter::open_append(dir.join("batches.wal")).expect("open");
        w.append(1, &vec![batchhl::Edit::Insert(0, 1); 7_500_000], false)
            .expect_err("oversized record")
    };
    assert!(matches!(err, PersistError::RecordTooLarge { .. }), "{err}");
    assert_eq!(wal_len(&dir), pre_wal, "refusal leaves the log intact");
    // The directory still replays cleanly.
    let mut reopened = Oracle::open_with(&dir, no_checkpoint()).expect("reopen");
    assert_eq!(reopened.batches_committed(), 1);
    assert_eq!(reopened.query(0, 7), Some(1));
}
