//! Loopback integration tests for the serving tier.
//!
//! A server and its clients run in one process over 127.0.0.1: several
//! client threads issue mixed traffic and every answer is compared
//! against a *shadow* oracle built identically and fed the same
//! commits — the server must be a transparent network skin over the
//! library. Overload tests drive the admission bounds and assert the
//! server degrades into typed `shed` refusals (every request gets
//! exactly one response; nothing hangs, nothing is silently dropped).

use batchhl::graph::bfs::BfsWorkspace;
use batchhl::graph::generators::barabasi_albert;
use batchhl::{DistanceOracle, Edit, Oracle, Vertex, INF};
use batchhl_server::{http_get, Client, ClientError, CoalesceConfig, Server, ServerConfig};
use std::net::TcpStream;
use std::time::Duration;

const N: u32 = 400;

fn build_oracle() -> DistanceOracle {
    Oracle::builder()
        .top_degree_landmarks(8)
        .build(barabasi_albert(N as usize, 3, 7))
        .expect("build oracle")
}

/// Deterministic pseudo-random pair stream (per-thread seed).
fn pair_stream(seed: u64, count: usize) -> Vec<(Vertex, Vertex)> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut pairs = Vec::with_capacity(count);
    while pairs.len() < count {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let s = ((state >> 33) % N as u64) as Vertex;
        let t = ((state >> 13) % N as u64) as Vertex;
        if s != t {
            pairs.push((s, t));
        }
    }
    pairs
}

/// The commit applied between phases: fresh long-range edges, then one
/// of them removed again in a later phase.
fn phase_edits(phase: usize) -> Vec<Edit> {
    let base = (phase as Vertex + 1) * 17 % (N / 2);
    vec![
        Edit::Insert(base, N - 1 - base),
        Edit::Insert(base + 1, N - 2 - base),
    ]
}

#[test]
fn concurrent_mixed_traffic_matches_the_direct_oracle() {
    let mut shadow = build_oracle();
    let server = Server::start(build_oracle(), ServerConfig::default()).expect("start server");
    let addr = server.addr();

    for phase in 0..3 {
        // 4 client threads, each with its own connection and query mix.
        type ClientAnswers = (Vec<(Vertex, Vertex)>, Vec<Option<u32>>);
        let answers: Vec<ClientAnswers> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|thread| {
                    scope.spawn(move || {
                        let mut client = Client::connect(addr).expect("connect");
                        let pairs = pair_stream((phase * 10 + thread) as u64, 40);
                        let got: Vec<Option<u32>> = pairs
                            .iter()
                            .map(|&(s, t)| client.query(s, t).expect("query"))
                            .collect();
                        (pairs, got)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (pairs, got) in answers {
            for (&(s, t), &d) in pairs.iter().zip(&got) {
                assert_eq!(d, shadow.query(s, t), "phase {phase}: query({s},{t})");
            }
        }

        // Batched entry points against the same truth.
        let mut client = Client::connect(addr).expect("connect");
        let pairs = pair_stream(99 + phase as u64, 16);
        assert_eq!(
            client.query_many(&pairs).expect("query_many"),
            shadow.query_many(&pairs),
        );
        let targets: Vec<Vertex> = (0..32).map(|i| (i * 7) % N).collect();
        assert_eq!(
            client.distances_from(3, &targets).expect("distances_from"),
            shadow.distances_from(3, &targets),
        );
        assert_eq!(
            client.top_k_closest(5, 10).expect("top_k_closest"),
            shadow.top_k_closest(5, 10),
        );

        // Commit through the server; mirror into the shadow.
        let edits = phase_edits(phase);
        let (applied, seq) = client.commit(&edits).expect("commit");
        assert_eq!(seq, phase as u64, "server assigns sequential batch ids");
        let mut session = shadow.update();
        for &e in &edits {
            session = session.push(e);
        }
        let stats = session.commit().expect("shadow commit");
        assert_eq!(applied, stats.applied, "same applied count as the library");
    }

    assert_eq!(server.committed_seq(), 3);
    assert!(server.metrics().queries.get() >= (3 * 4 * 40) as u64);
}

#[test]
fn what_if_speculates_without_committing() {
    let mut shadow = build_oracle();
    let server = Server::start(build_oracle(), ServerConfig::default()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    // The hypothetical: drop two hub-adjacent edges, add a shortcut.
    let edits = vec![
        Edit::Remove(0, 1),
        Edit::Remove(1, 2),
        Edit::Insert(10, N - 5),
    ];
    let pairs = pair_stream(7, 24);

    // Truth: a twin oracle that actually commits the batch.
    let mut session = shadow.update();
    for &e in &edits {
        session = session.push(e);
    }
    session.commit().expect("shadow commit");
    let want = shadow.query_many(&pairs);

    let (version, got) = client.what_if(&edits, &pairs).expect("what_if");
    assert_eq!(version, 0, "speculation pins the published generation");
    assert_eq!(got, want, "hypothetical answers match a committed twin");

    // Nothing was committed: the server's cursor and answers are
    // untouched, and the deleted edge is still there.
    assert_eq!(server.committed_seq(), 0);
    assert_eq!(client.query(0, 1).expect("query"), Some(1));

    // Weight-carrying edits are refused by the unweighted family with
    // a typed error, exactly like commit.
    let err = client
        .what_if(&[Edit::SetWeight(0, 1, 5)], &[(0, 1)])
        .expect_err("weighted edit on unweighted oracle");
    assert_eq!(err.code(), Some("bad_request"));
}

#[test]
fn overload_sheds_typed_and_never_hangs() {
    // One worker behind a queue of one, no coalescer: flooding the
    // server MUST produce shed responses, and every request must still
    // get exactly one response.
    let config = ServerConfig {
        workers: 1,
        max_queue: 1,
        coalesce: None,
        ..ServerConfig::default()
    };
    let server = Server::start(build_oracle(), config).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");

    const FLOOD: usize = 300;
    for i in 0..FLOOD {
        let (s, t) = (1 + (i as Vertex % (N - 2)), 0);
        client.send_query(s, t).expect("send");
    }
    let mut answered = 0usize;
    let mut shed = 0usize;
    for _ in 0..FLOOD {
        match client.recv_dist() {
            Ok(_) => answered += 1,
            Err(ClientError::Server { code, .. }) if code == "shed" => shed += 1,
            Err(e) => panic!("unexpected failure under overload: {e}"),
        }
    }
    assert_eq!(
        answered + shed,
        FLOOD,
        "every request got exactly one response"
    );
    assert!(shed > 0, "a queue of one under a 300-deep flood must shed");
    assert!(answered > 0, "admitted work still completes");
    assert_eq!(server.metrics().sheds.get(), shed as u64);

    // The server is still healthy and serving after the storm.
    assert_eq!(client.health().expect("health"), "healthy");
    assert!(client.query(1, 2).is_ok());
}

#[test]
fn coalescer_admission_sheds_typed() {
    let config = ServerConfig {
        workers: 1,
        coalesce: Some(CoalesceConfig {
            max_wait_us: 2_000,
            max_batch: 2,
            max_pending: 2,
        }),
        ..ServerConfig::default()
    };
    let server = Server::start(build_oracle(), config).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    const FLOOD: usize = 200;
    for i in 0..FLOOD {
        client
            .send_query(1 + (i as Vertex % (N - 2)), 0)
            .expect("send");
    }
    let mut total = 0usize;
    let mut shed = 0usize;
    for _ in 0..FLOOD {
        match client.recv_dist() {
            Ok(_) => total += 1,
            Err(ClientError::Server { code, .. }) if code == "shed" => {
                total += 1;
                shed += 1;
            }
            Err(e) => panic!("unexpected failure under overload: {e}"),
        }
    }
    assert_eq!(total, FLOOD);
    assert!(
        shed > 0,
        "a two-slot coalescer under a 200-deep flood must shed"
    );
}

#[test]
fn a_lone_query_is_answered_inline_without_waiting_out_the_window() {
    let (s, t) = (3, 250);
    let mut bfs = BfsWorkspace::new(N as usize);
    bfs.run(&barabasi_albert(N as usize, 3, 7), s, INF);
    let truth = Some(bfs.dist(t)).filter(|&d| d != INF);
    // A window longer than the client's read timeout: a query that
    // waited it out would fail.
    let config = ServerConfig {
        coalesce: Some(CoalesceConfig {
            max_wait_us: 30_000_000,
            ..CoalesceConfig::default()
        }),
        ..ServerConfig::default()
    };
    let server = Server::start(build_oracle(), config).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    assert_eq!(client.query(s, t).expect("query"), truth);
    // The inline answer is a coalesced batch of one.
    let (_, body) = http_get(server.addr(), "/metrics").expect("GET /metrics");
    assert!(body.contains("batchhl_server_queries_total 1\n"), "{body}");
    assert!(
        body.contains("batchhl_server_coalesce_batch_size_count 1\n"),
        "{body}"
    );
}

/// The largest txn session a client can hold rides the wire intact:
/// a reconnecting client replaying the commit under the same session is
/// answered from the dedup table.
#[test]
fn the_largest_txn_session_round_trips() {
    let server = Server::start(build_oracle(), ServerConfig::default()).expect("start server");
    let session = (1 << 53) - 1;
    let mut first = Client::connect(server.addr()).expect("connect");
    first.set_txn_session(session);
    assert_eq!(first.txn_session(), session);
    let original = first
        .commit_detailed(&[Edit::Insert(5, 301)])
        .expect("commit");
    assert!(!original.deduped);
    drop(first);
    let mut reborn = Client::connect(server.addr()).expect("reconnect");
    reborn.set_txn_session(session);
    let replayed = reborn
        .commit_detailed(&[Edit::Insert(5, 301)])
        .expect("replayed commit");
    assert!(
        replayed.deduped,
        "same txn id, answered from the dedup table"
    );
    assert_eq!(replayed.seq, original.seq);
    assert_eq!(server.committed_seq(), 1, "applied exactly once");
}

#[test]
fn http_shim_serves_health_and_metrics() {
    let server = Server::start(build_oracle(), ServerConfig::default()).expect("start server");
    let mut client = Client::connect(server.addr()).expect("connect");
    client.query(1, 2).expect("query");
    client.commit(&[Edit::Insert(0, 399)]).expect("commit");

    let (status, body) = http_get(server.addr(), "/health").expect("GET /health");
    assert_eq!(status, 200);
    assert!(body.contains("\"health\":\"healthy\""), "{body}");
    assert!(body.contains("\"committed\":1"), "{body}");

    let (status, body) = http_get(server.addr(), "/metrics").expect("GET /metrics");
    assert_eq!(status, 200);
    assert!(body.contains("batchhl_server_queries_total"), "{body}");
    assert!(body.contains("batchhl_server_commits_total 1"), "{body}");
    // The oracle's own (process-global) metrics ride along.
    assert!(body.contains("batchhl_oracle_commit_latency_us"), "{body}");

    let (status, _) = http_get(server.addr(), "/nope").expect("GET /nope");
    assert_eq!(status, 404);
}

#[test]
fn malformed_lines_get_typed_errors_and_the_connection_survives() {
    use std::io::{BufRead, BufReader, Write};
    let server = Server::start(build_oracle(), ServerConfig::default()).expect("start server");
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());

    stream.write_all(b"this is not json\n").unwrap();
    let mut line = String::new();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"error\":\"bad_request\""), "{line}");

    line.clear();
    stream.write_all(b"{\"op\":\"launch_missiles\"}\n").unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"error\":\"bad_request\""), "{line}");

    // The connection still serves valid requests afterwards.
    line.clear();
    stream
        .write_all(b"{\"op\":\"query\",\"s\":1,\"t\":2,\"id\":5}\n")
        .unwrap();
    reader.read_line(&mut line).unwrap();
    assert!(line.contains("\"id\":5"), "{line}");
    assert!(line.contains("\"dist\""), "{line}");
}

#[test]
fn shutdown_is_clean_while_clients_are_connected() {
    let mut server = Server::start(build_oracle(), ServerConfig::default()).expect("start");
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.query(1, 2).expect("query");
    // Shut down with the connection still open: must not hang.
    server.shutdown();
    // Subsequent use of the dead server errors rather than hanging.
    let gone = client.query(3, 4);
    assert!(gone.is_err());
}

#[test]
fn idle_sweep_closes_slow_loris_connections() {
    use std::io::{Read, Write};
    let config = ServerConfig {
        idle_timeout: Some(Duration::from_millis(250)),
        ..ServerConfig::default()
    };
    let server = Server::start(build_oracle(), config).expect("start server");

    // The slow loris sends half a request line and then drips nothing:
    // the half-sent line must NOT reset the idle clock.
    let mut loris = TcpStream::connect(server.addr()).expect("loris connects");
    loris
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    loris.write_all(b"{\"op\":\"que").expect("half a line");
    let mut closing = String::new();
    // The server answers with a typed idle_timeout error and closes:
    // read_to_string returning means EOF arrived.
    loris.read_to_string(&mut closing).expect("server closed");
    assert!(
        closing.contains("idle_timeout"),
        "expected a typed idle_timeout notice, got {closing:?}"
    );
    assert!(
        server.metrics().idle_closed.get() >= 1,
        "idle sweep not visible in metrics"
    );

    // The sweep took the loris, not the server: new clients that
    // actually send requests are served normally.
    let mut healthy = Client::connect(server.addr()).expect("healthy client");
    healthy.query(2, 100).expect("server still serving");

    // An idle_timeout of None disables the sweep: the same drip
    // survives well past the other server's window.
    let lenient = ServerConfig {
        idle_timeout: None,
        ..ServerConfig::default()
    };
    let server2 = Server::start(build_oracle(), lenient).expect("start lenient server");
    let mut patient = TcpStream::connect(server2.addr()).expect("patient connects");
    patient.write_all(b"{\"op\":\"que").expect("half a line");
    std::thread::sleep(Duration::from_millis(400));
    // Completing the line now still gets an answer.
    patient
        .write_all(b"ry\",\"id\":9,\"s\":1,\"t\":200}\n")
        .expect("rest of the line");
    patient
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut byte = [0u8; 1];
    patient.read_exact(&mut byte).expect("an answer arrived");
    assert_eq!(server2.metrics().idle_closed.get(), 0);
}
