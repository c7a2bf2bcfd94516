//! Wire-level fault-tolerance tests, driven by the deterministic
//! [`FaultProxy`] interposer.
//!
//! The properties under test, matching the guarantees in
//! `batchhl_server`:
//!
//! 1. **Exactly-once commits** — a retrying client pushing commits
//!    through every fault kind (delay, drop-after-K-bytes, truncated
//!    frame, blackhole, duplicate delivery) leaves the server in
//!    exactly the state of a shadow oracle that applied each logical
//!    commit once. Retried and duplicate-delivered commits are
//!    answered from the txn dedup table, never re-applied.
//! 2. **Deadlines** — a request whose `deadline_ms` budget is gone is
//!    refused with a typed `deadline_exceeded` (never retried), and a
//!    client facing a blackhole surfaces an error within its deadline
//!    plus the grace window — no hangs.
//! 3. **Replica convergence** — a replica tailing its primary through
//!    the proxy reconverges after a partition ([`FaultProxy::sever`]),
//!    and a heartbeat watchdog tears down a half-open stream (a
//!    primary that accepts and then goes silent).

use batchhl::graph::generators::barabasi_albert;
use batchhl::{DistanceOracle, DurabilityConfig, Edit, FsyncPolicy, Oracle, Vertex};
use batchhl_server::{
    Client, Fault, FaultProxy, Replica, ReplicaConfig, RetryPolicy, Server, ServerConfig, TailMsg,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

const N: u32 = 300;
const WAIT: Duration = Duration::from_secs(20);

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("batchhl_net_chaos").join(name);
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build_oracle() -> DistanceOracle {
    Oracle::builder()
        .top_degree_landmarks(8)
        .build(barabasi_albert(N as usize, 3, 11))
        .expect("build oracle")
}

fn probe_pairs() -> Vec<(Vertex, Vertex)> {
    (0..60u32)
        .map(|i| ((i * 13) % N, (i * 61 + 7) % N))
        .filter(|(s, t)| s != t)
        .collect()
}

fn retry_hard() -> RetryPolicy {
    RetryPolicy {
        max_attempts: 8,
        initial_backoff: Duration::from_millis(10),
        max_backoff: Duration::from_millis(100),
        jitter_seed: 7,
    }
}

/// Every fault kind between a retrying client and the server; the
/// server must end byte-identical to a shadow oracle that saw each
/// logical commit exactly once.
#[test]
fn commits_are_exactly_once_under_every_fault_kind() {
    let dir = scratch_dir("exactly_once");
    let mut oracle = build_oracle();
    oracle
        .persist_to(
            &dir,
            DurabilityConfig {
                checkpoint_every: None,
                fsync: FsyncPolicy::Never,
            },
        )
        .expect("persist");
    let mut shadow = build_oracle();

    let server = Server::start(oracle, ServerConfig::default()).expect("start server");
    // Faults are drawn per *connection*, and a client reconnects only
    // after a wire failure — so the script below is laid out one round
    // at a time (one fresh client per round): survivable faults stand
    // alone, lethal faults are followed by the `None` their retry
    // lands on.
    let script = vec![
        Fault::None,                   // round 0: control
        Fault::Delay { ms: 30 },       // round 1: slow but succeeds
        Fault::DropAfter { bytes: 9 }, // round 2: torn mid-envelope...
        Fault::None,                   //          ...retry lands
        Fault::TruncateFrame,          // round 3: torn at the frame...
        Fault::None,                   //          ...retry lands
        Fault::Blackhole { ms: 150 },  // round 4: swallowed...
        Fault::None,                   //          ...retry lands
        Fault::Duplicate,              // round 5: delivered twice
        Fault::None,                   // anything after: clean
    ];
    let proxy = FaultProxy::start(server.addr(), script).expect("start proxy");

    let mut retries = 0u64;
    for round in 0..6u32 {
        let mut client = Client::connect(proxy.addr())
            .expect("connect through proxy")
            .with_retry(retry_hard());
        client.set_deadline_ms(Some(5_000));
        let edits = vec![Edit::Insert((round * 2 + 1) % N, (200 + round) % N)];
        let outcome = client
            .commit_detailed(&edits)
            .unwrap_or_else(|e| panic!("logical commit {round} failed: {e}"));
        assert_eq!(
            outcome.seq,
            u64::from(round),
            "seqs dense: no double-application"
        );
        retries += client.retries();
        // The shadow applies each *logical* commit exactly once,
        // whatever the wire did to the physical attempts.
        let mut session = shadow.update();
        for &edit in &edits {
            session = session.push(edit);
        }
        session.commit().expect("shadow commit");
    }
    assert!(
        proxy.injected() >= 5,
        "only {} faults injected — the script never ran",
        proxy.injected()
    );
    assert!(
        retries >= 3,
        "only {retries} retries — the lethal faults never bit"
    );
    assert!(
        server.metrics().dedup_commits.get() >= 1,
        "the duplicate delivery was not deduplicated"
    );

    assert_eq!(
        server.committed_seq(),
        shadow.batches_committed(),
        "server applied a different number of batches than the shadow"
    );
    // Byte-identical answers, asked over a clean (un-proxied) path.
    let mut direct = Client::connect(server.addr()).expect("connect direct");
    let pairs = probe_pairs();
    let served = direct.query_many(&pairs).expect("server answers");
    let truth: Vec<_> = pairs.iter().map(|&(s, t)| shadow.query(s, t)).collect();
    assert_eq!(served, truth, "server state diverged from the shadow");
}

/// Duplicate-delivered commit lines (the wire-level retry storm) are
/// answered from the dedup table: same receipt, `deduped` on one of
/// the two deliveries, one application. Both deliveries carry the same
/// `id` and execute concurrently, so either reply may come first (the
/// protocol matches replies by `id` only); the test reads both off a
/// raw socket and checks them as a set.
#[test]
fn duplicate_delivery_is_deduplicated() {
    let dir = scratch_dir("duplicate");
    let mut oracle = build_oracle();
    oracle
        .persist_to(
            &dir,
            DurabilityConfig {
                checkpoint_every: None,
                fsync: FsyncPolicy::Never,
            },
        )
        .expect("persist");
    let server = Server::start(oracle, ServerConfig::default()).expect("start server");
    let proxy = FaultProxy::start(server.addr(), vec![Fault::Duplicate]).expect("start proxy");

    let mut stream = std::net::TcpStream::connect(proxy.addr()).expect("connect");
    stream.set_read_timeout(Some(WAIT)).unwrap();
    stream
        .write_all(b"{\"op\":\"commit\",\"edits\":[[\"insert\",1,200]],\"txn\":[5,1],\"id\":1}\n")
        .expect("send commit");
    let mut reader = BufReader::new(stream);
    let replies: Vec<String> = (0..2)
        .map(|_| {
            let mut line = String::new();
            reader.read_line(&mut line).expect("read a reply");
            line
        })
        .collect();
    for reply in &replies {
        assert!(reply.contains("\"id\":1"), "{reply}");
        assert!(reply.contains("\"committed\":true"), "{reply}");
        assert!(
            reply.contains("\"seq\":0"),
            "both name the one batch: {reply}"
        );
    }
    // `deduped` is omitted when false.
    let deduped = replies
        .iter()
        .filter(|r| r.contains("\"deduped\":true"))
        .count();
    assert_eq!(deduped, 1, "exactly one delivery applied: {replies:?}");
    // Each reply is written after its commit's effects are recorded.
    assert_eq!(server.committed_seq(), 1);
    assert_eq!(
        server.metrics().dedup_commits.get(),
        1,
        "the duplicate delivery was answered from the dedup table"
    );
}

/// A reconnecting client (fresh TCP connection, same txn identity)
/// replaying an already-applied commit gets the original receipt.
#[test]
fn replayed_commit_after_reconnect_returns_the_original_receipt() {
    let oracle = build_oracle();
    let server = Server::start(oracle, ServerConfig::default()).expect("start server");

    let mut first = Client::connect(server.addr()).expect("connect");
    first.set_txn_session(0xFEED);
    let original = first
        .commit_detailed(&[Edit::Insert(2, 250)])
        .expect("commit");
    assert!(!original.deduped);
    drop(first); // connection gone — the "client crashed after send"

    // The reborn client re-sends the same logical commit: same
    // session, counter 1 again.
    let mut reborn = Client::connect(server.addr()).expect("reconnect");
    reborn.set_txn_session(0xFEED);
    let replayed = reborn
        .commit_detailed(&[Edit::Insert(2, 250)])
        .expect("replayed commit");
    assert!(replayed.deduped, "replay answered from the dedup table");
    assert_eq!(replayed.seq, original.seq);
    assert_eq!(replayed.applied, original.applied);
    assert_eq!(server.committed_seq(), 1, "applied exactly once");
}

/// An expired budget is refused with the typed error and never
/// retried — the budget is gone; retrying cannot bring it back.
#[test]
fn expired_deadline_is_typed_and_not_retried() {
    let oracle = build_oracle();
    let server = Server::start(oracle, ServerConfig::default()).expect("start server");
    let mut client = Client::connect(server.addr())
        .expect("connect")
        .with_retry(retry_hard());
    // A zero budget is expired the moment the server dequeues it.
    client.set_deadline_ms(Some(0));
    let err = client.commit(&[Edit::Insert(1, 200)]).unwrap_err();
    assert_eq!(err.code(), Some("deadline_exceeded"));
    assert_eq!(client.retries(), 0, "deadline_exceeded must not retry");
    assert_eq!(server.committed_seq(), 0, "nothing applied");
    assert!(server.metrics().deadlines.get() >= 1);

    // The budget gates queries too.
    let err = client.query(1, 200).unwrap_err();
    assert_eq!(err.code(), Some("deadline_exceeded"));

    // And with the budget lifted, the same connection works again.
    client.set_deadline_ms(None);
    client.commit(&[Edit::Insert(1, 200)]).expect("commit");
    client.query(1, 200).expect("query");
}

/// A blackholed client surfaces an error within deadline + grace —
/// never a hang.
#[test]
fn blackhole_does_not_hang_past_the_deadline() {
    let oracle = build_oracle();
    let server = Server::start(oracle, ServerConfig::default()).expect("start server");
    // Hold far longer than the deadline so only the client's own
    // timeout can end the wait.
    let proxy =
        FaultProxy::start(server.addr(), vec![Fault::Blackhole { ms: 30_000 }]).expect("proxy");

    let mut client = Client::connect(proxy.addr()).expect("connect");
    client.set_deadline_ms(Some(200));
    let begun = Instant::now();
    let err = client.query(1, 200).unwrap_err();
    let waited = begun.elapsed();
    assert!(err.code().is_none(), "a wire failure, not a typed refusal");
    assert!(
        waited < Duration::from_secs(3),
        "client hung {waited:?} — far past deadline (200ms) + grace"
    );
}

/// A replica tailing through the proxy reconverges after a partition,
/// counting its reconnects.
#[test]
fn replica_reconverges_after_a_partition() {
    let dir = scratch_dir("partition");
    let mut oracle = build_oracle();
    oracle
        .persist_to(
            &dir,
            DurabilityConfig {
                checkpoint_every: None,
                fsync: FsyncPolicy::Never,
            },
        )
        .expect("persist");
    oracle.update().insert(0, 299).commit().expect("commit");

    let primary = Server::start(oracle, ServerConfig::default()).expect("start primary");
    let proxy = FaultProxy::start(primary.addr(), vec![Fault::None]).expect("proxy");
    let mut config = ReplicaConfig::new(proxy.addr().to_string(), &dir);
    config.initial_backoff = Duration::from_millis(10);
    config.max_backoff = Duration::from_millis(100);
    let replica = Replica::start(config).expect("replica");
    assert_eq!(replica.applied_seq(), 1, "bootstrap replayed the WAL");

    let mut to_primary = Client::connect(primary.addr()).expect("connect primary");
    let (_, seq) = to_primary.commit(&[Edit::Insert(1, 298)]).expect("commit");
    assert!(replica.wait_for_seq(seq + 1, WAIT), "pre-partition tailing");

    // Partition: cut the live tail stream. Commits keep landing on the
    // primary while the replica is dark.
    proxy.sever();
    let mut last = 0;
    for round in 0..3u32 {
        let (_, seq) = to_primary
            .commit(&[Edit::Insert(round + 2, 280 - round)])
            .expect("commit during partition");
        last = seq;
    }

    // Heal: the replica's reconnect loop dials the proxy again (new
    // connection, faithful relay) and catches up.
    assert!(
        replica.wait_for_seq(last + 1, WAIT),
        "replica stuck at {} after the partition healed",
        replica.applied_seq()
    );
    assert!(
        replica.metrics().tail_reconnects.get() >= 1,
        "the partition must be visible in the reconnect counter"
    );
    let mut to_replica = Client::connect(replica.addr()).expect("connect replica");
    let pairs = probe_pairs();
    assert_eq!(
        to_primary.query_many(&pairs).expect("primary answers"),
        to_replica.query_many(&pairs).expect("replica answers"),
        "post-partition divergence"
    );
}

/// A primary that accepts the tail subscription and then goes silent
/// (half-open stream — no batches, no heartbeats) trips the replica's
/// watchdog, which tears the connection down and dials again.
#[test]
fn heartbeat_watchdog_reconnects_a_silent_tail_stream() {
    let dir = scratch_dir("watchdog");
    let mut oracle = build_oracle();
    oracle
        .persist_to(
            &dir,
            DurabilityConfig {
                checkpoint_every: None,
                fsync: FsyncPolicy::Never,
            },
        )
        .expect("persist");
    oracle.update().insert(0, 299).commit().expect("commit");
    drop(oracle);

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake primary");
    let addr = listener.local_addr().unwrap();
    let mut config = ReplicaConfig::new(addr.to_string(), &dir);
    config.initial_backoff = Duration::from_millis(10);
    config.max_backoff = Duration::from_millis(50);
    config.heartbeat_timeout = Duration::from_millis(300);
    let replica = Replica::start(config).expect("replica");

    // First connection: accept, read the subscription, say nothing.
    let (first, _) = listener.accept().expect("replica connects");
    let mut reader = BufReader::new(first.try_clone().unwrap());
    let mut subscribe = String::new();
    reader.read_line(&mut subscribe).unwrap();
    assert!(subscribe.contains("\"op\":\"tail\""), "{subscribe}");
    // ... silence. No heartbeat, no close. The watchdog must trip.

    // Second connection arriving IS the watchdog trip: nothing else
    // ends a silent-but-open stream.
    let (mut second, _) = listener.accept().expect("watchdog reconnect");
    let mut reader = BufReader::new(second.try_clone().unwrap());
    let mut resubscribe = String::new();
    reader.read_line(&mut resubscribe).unwrap();
    assert!(
        resubscribe.contains("\"from_seq\":1"),
        "resubscribes at its cursor: {resubscribe}"
    );
    assert!(replica.metrics().tail_reconnects.get() >= 1);
    // Keep the stream honest so shutdown is clean.
    let hb = TailMsg::Heartbeat { next: 1 }.render();
    second.write_all(hb.as_bytes()).unwrap();
    second.write_all(b"\n").unwrap();
    drop(first);
}
