//! Serving throughput: per-request dispatch vs the request coalescer.
//!
//! N client threads pipeline point queries over loopback TCP against a
//! `batchhl-server` (windowed pipelining: each client keeps a fixed
//! number of requests outstanding, so throughput — not round-trip
//! latency — is what's measured). Two server modes over the same
//! workload:
//!
//! * **per-request** — `coalesce: None`: every query is its own worker
//!   job and its own response `write(2)`;
//! * **coalesced** — queries are held for a bounded microbatching
//!   window and drained as one `query_many` job (one worker wakeup,
//!   one generation pin, source-grouped `SourcePlan` reuse) with one
//!   flush per connection per batch.
//!
//! Queries draw their sources from a small hot set (8 vertices), the
//! serving pattern the coalescer's source grouping targets. The
//! second series varies `max_wait_us` at 16 clients — the window is a
//! latency/throughput knob, and when clients share cores with the
//! server the interesting regime is how quickly the window fills, not
//! how long it is allowed to stay open.
//!
//! The load generator is deliberately raw (burst-rendered request
//! lines, one `write(2)` per burst, newline counting on chunked
//! reads): clients share the measurement cores with the server, so a
//! full JSON client would dominate the numbers and mask the dispatch
//! difference under test.
//!
//! The graph is the youtube stand-in at `ctx.scale` with
//! `ctx.landmarks` top-degree landmarks; `--scale tiny` gives the
//! configuration `BENCH_server.json` records.

use super::ExpContext;
use crate::datasets::dataset;
use crate::measure::Table;
use crate::workload::query_pairs;
use batchhl::Oracle;
use batchhl_common::Vertex;
use batchhl_graph::DynamicGraph;
use batchhl_server::{CoalesceConfig, Server, ServerConfig};
use std::fmt::Write as _;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Outstanding requests per client connection.
const WINDOW: usize = 64;
/// Measurement span per configuration.
const MEASURE: Duration = Duration::from_millis(1500);
/// Hot source set size (coalesced batches group by source).
const HOT_SOURCES: usize = 8;

fn coalesce(max_wait_us: u64) -> CoalesceConfig {
    CoalesceConfig {
        max_wait_us,
        max_batch: 512,
        // Throughput, not shedding, is measured: bounds high enough
        // that admission control never triggers.
        max_pending: 1 << 20,
    }
}

fn start_server(ctx: &ExpContext, g: &DynamicGraph, mode: Option<CoalesceConfig>) -> Server {
    let oracle = Oracle::builder()
        .top_degree_landmarks(ctx.landmarks)
        .build(g.clone())
        .expect("build oracle");
    Server::start(
        oracle,
        ServerConfig {
            workers: 2,
            max_queue: 1 << 20,
            coalesce: mode,
            node: "server_coalesce".to_string(),
            ..ServerConfig::default()
        },
    )
    .expect("start server")
}

/// A load-generator connection: renders request lines into one buffer
/// and writes a whole burst per syscall, then counts newline-terminated
/// responses out of chunked reads. Keeping the generator this cheap is
/// the point — the experiment isolates *server-side dispatch* cost, and
/// a full JSON client on the same cores would dominate the measurement.
struct RawPipeline {
    stream: TcpStream,
    out: String,
    next_id: u64,
    chunk: [u8; 64 * 1024],
    checked: bool,
}

impl RawPipeline {
    fn connect(addr: SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_nodelay(true).expect("nodelay");
        RawPipeline {
            stream,
            out: String::with_capacity(64 * WINDOW),
            next_id: 0,
            chunk: [0u8; 64 * 1024],
            checked: false,
        }
    }

    /// Queue `count` queries and ship them in a single `write(2)`.
    fn send_burst(&mut self, count: usize, mut next: impl FnMut() -> (Vertex, Vertex)) {
        self.out.clear();
        for _ in 0..count {
            let (s, t) = next();
            let id = self.next_id;
            self.next_id += 1;
            writeln!(
                self.out,
                "{{\"op\":\"query\",\"s\":{s},\"t\":{t},\"id\":{id}}}"
            )
            .expect("render request");
        }
        self.stream
            .write_all(self.out.as_bytes())
            .expect("send burst");
    }

    /// Block for the next read and return how many responses it held.
    fn recv_some(&mut self) -> usize {
        let n = self.stream.read(&mut self.chunk).expect("read responses");
        assert!(n > 0, "server closed mid-run");
        if !self.checked {
            // Spot-check the first chunk only: correctness is the
            // loopback suite's job, the generator just counts lines.
            let text = std::str::from_utf8(&self.chunk[..n]).expect("utf8 responses");
            assert!(
                text.contains("\"dist\""),
                "expected distance responses, got: {text}"
            );
            assert!(!text.contains("\"error\""), "server errored: {text}");
            self.checked = true;
        }
        self.chunk[..n].iter().filter(|&&b| b == b'\n').count()
    }
}

/// Run one configuration; returns sustained queries/second.
fn sustained_qps(
    ctx: &ExpContext,
    g: &DynamicGraph,
    pairs: &[(Vertex, Vertex)],
    clients: usize,
    mode: Option<CoalesceConfig>,
) -> f64 {
    let server = start_server(ctx, g, mode);
    let addr = server.addr();
    let sources: Vec<Vertex> = pairs.iter().map(|&(s, _)| s).take(HOT_SOURCES).collect();

    let per_client: Vec<(u64, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|worker| {
                let sources = &sources;
                scope.spawn(move || {
                    let mut pipe = RawPipeline::connect(addr);
                    let mut cursor = worker * 131;
                    let mut next = move || {
                        let (_, t) = pairs[cursor % pairs.len()];
                        let s = sources[cursor % sources.len()];
                        cursor += 1;
                        (s, t)
                    };
                    let started = Instant::now();
                    let mut sent = 0u64;
                    let mut received = 0u64;
                    let mut outstanding = 0usize;
                    let deadline = started + MEASURE;
                    while Instant::now() < deadline {
                        // Refill the window in one burst, then take
                        // whatever responses the next read delivers.
                        let refill = WINDOW - outstanding;
                        if refill > 0 {
                            pipe.send_burst(refill, &mut next);
                            sent += refill as u64;
                            outstanding += refill;
                        }
                        let got = pipe.recv_some();
                        received += got as u64;
                        outstanding -= got;
                    }
                    while received < sent {
                        received += pipe.recv_some() as u64;
                    }
                    (received, started.elapsed())
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let total: u64 = per_client.iter().map(|&(n, _)| n).sum();
    let longest = per_client.iter().map(|&(_, d)| d).max().unwrap_or(MEASURE);
    total as f64 / longest.as_secs_f64()
}

pub fn run(ctx: &ExpContext) {
    println!(
        "== Serving: per-request vs coalesced dispatch, sustained q/s over loopback TCP \
         ({WINDOW} outstanding per client, hot set of {HOT_SOURCES} sources) =="
    );
    let g = dataset("youtube", ctx.scale);
    let pairs = query_pairs(&g, 4096, ctx.seed);
    println!(
        "youtube stand-in: n={} m={}, {} landmarks, 2 server workers",
        g.num_vertices(),
        g.num_edges(),
        ctx.landmarks
    );

    println!("dispatch mode, varying client threads (coalesce window 200us / batch 512):");
    let mut table = Table::new(&["Clients", "Per-request q/s", "Coalesced q/s", "Ratio"]);
    for clients in [1usize, 4, 16] {
        let per_request = sustained_qps(ctx, &g, &pairs, clients, None);
        let coalesced = sustained_qps(ctx, &g, &pairs, clients, Some(coalesce(200)));
        table.row(vec![
            clients.to_string(),
            format!("{per_request:.0}"),
            format!("{coalesced:.0}"),
            format!("{:.2}x", coalesced / per_request),
        ]);
    }
    print!("{}", table.render());

    println!("coalescing window, 16 clients:");
    let mut table = Table::new(&["max_wait_us", "Coalesced q/s"]);
    for max_wait_us in [50u64, 200, 1000] {
        let coalesced = sustained_qps(ctx, &g, &pairs, 16, Some(coalesce(max_wait_us)));
        table.row(vec![max_wait_us.to_string(), format!("{coalesced:.0}")]);
    }
    print!("{}", table.render());
}
