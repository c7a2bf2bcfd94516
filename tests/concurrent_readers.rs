//! Concurrent-reader stress tests: query threads hammer [`Reader`]
//! handles while a writer applies batches.
//!
//! The invariant under test is the generation contract: every distance
//! a reader observes must be exactly right for *some published
//! generation* — the pre-batch state or the post-batch state, never a
//! half-applied mixture. Because `BHL⁺` publishes exactly one
//! generation per applied batch, generation `v` corresponds to the
//! graph after the first `v` batches, so the test precomputes the
//! all-pairs truth of every generation and checks each observation
//! against the truth matrix of the version it was served from.

use batchhl::core::index::{Algorithm, BatchIndex, IndexConfig};
use batchhl::core::Reader;
use batchhl::graph::generators::erdos_renyi_gnm;
use batchhl::graph::{Batch, DynamicGraph, Vertex};
use batchhl::hcl::{oracle, LandmarkSelection};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

const N: usize = 60;
const BATCHES: usize = 12;
const READERS: usize = 4;

fn config(threads: usize) -> IndexConfig {
    IndexConfig {
        selection: LandmarkSelection::TopDegree(5),
        algorithm: Algorithm::BhlPlus,
        threads,
        ..IndexConfig::default()
    }
}

fn toggle_batch(g: &DynamicGraph, size: usize, rng: &mut StdRng) -> Batch {
    let n = g.num_vertices() as Vertex;
    let mut b = Batch::new();
    for _ in 0..size {
        let x = rng.gen_range(0..n);
        let y = rng.gen_range(0..n);
        if x == y {
            continue;
        }
        if g.has_edge(x, y) {
            b.delete(x, y);
        } else {
            b.insert(x, y);
        }
    }
    b
}

/// Precompute the batch sequence and the all-pairs truth of every
/// generation the writer will publish.
fn plan(index: &BatchIndex, seed: u64) -> (Vec<Batch>, Vec<Vec<Vec<u32>>>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sim = index.graph();
    let mut truths = vec![oracle::all_pairs_bfs(&sim)];
    let mut batches = Vec::new();
    for _ in 0..BATCHES {
        let b = toggle_batch(&sim, 10, &mut rng);
        let norm = b.normalize(&sim);
        sim.apply_batch(&norm);
        truths.push(oracle::all_pairs_bfs(&sim));
        batches.push(b);
    }
    (batches, truths)
}

fn stress(writer_threads: usize, seed: u64) {
    let g0 = erdos_renyi_gnm(N, 130, seed);
    let mut index = BatchIndex::build(g0, config(writer_threads));
    let (batches, truths) = plan(&index, seed ^ 0x5EED);

    let readers: Vec<Reader> = (0..READERS).map(|_| index.reader()).collect();
    let stop = AtomicBool::new(false);
    let observations = AtomicU64::new(0);

    std::thread::scope(|scope| {
        for (id, mut reader) in readers.into_iter().enumerate() {
            let stop = &stop;
            let observations = &observations;
            let truths = &truths;
            scope.spawn(move || {
                let mut rng = StdRng::seed_from_u64(seed ^ (id as u64) << 32);
                let mut seen = 0u64;
                let mut bursts = 0u32;
                // Run until the writer is done, but always complete a
                // few bursts even if the writer finishes first.
                while !stop.load(Ordering::Relaxed) || bursts < 4 {
                    bursts += 1;
                    // Pin one generation, check a burst of pairs
                    // against exactly that generation's truth.
                    let snap = reader.pin();
                    let version = snap.version() as usize;
                    let truth = &truths[version];
                    for _ in 0..16 {
                        let s = rng.gen_range(0..N as Vertex);
                        let t = rng.gen_range(0..N as Vertex);
                        let got = reader.query_dist_pinned(s, t);
                        assert_eq!(
                            got, truth[s as usize][t as usize],
                            "reader {id}: d({s},{t}) wrong for generation {version}"
                        );
                        seen += 1;
                    }
                }
                observations.fetch_add(seen, Ordering::Relaxed);
            });
        }

        // The writer churns through the planned batches on this thread
        // while the readers run.
        for b in &batches {
            index.apply_batch(b);
        }
        stop.store(true, Ordering::Relaxed);
    });

    assert_eq!(index.version(), BATCHES as u64, "one generation per batch");
    oracle::check_minimal(&index.graph(), index.labelling()).unwrap();
    // The final generation serves the final truth.
    let mut reader = index.reader();
    let last = truths.last().unwrap();
    for s in (0..N as Vertex).step_by(7) {
        for t in (0..N as Vertex).step_by(5) {
            assert_eq!(reader.query_dist(s, t), last[s as usize][t as usize]);
        }
    }
    assert!(
        observations.load(Ordering::Relaxed) > 0,
        "readers must have observed queries"
    );
}

#[test]
fn readers_race_a_sequential_writer() {
    for seed in [3, 17] {
        stress(1, seed);
    }
}

#[test]
fn readers_race_a_landmark_parallel_writer() {
    // threads > 1 exercises BHLₚ repair concurrently with the readers.
    stress(4, 29);
}

#[test]
fn readers_survive_vertex_growth_races() {
    // Batches that add vertices grow the graph; readers pinned on older
    // generations must keep answering their own vertex range and treat
    // unknown vertices as disconnected.
    let g0 = erdos_renyi_gnm(30, 70, 5);
    let mut index = BatchIndex::build(g0, config(1));
    let mut stale = index.reader();
    stale.pin();
    let mut fresh = index.reader();

    let mut b = Batch::new();
    b.insert(0, 40); // grows the graph to 41 vertices
    b.insert(40, 41);
    index.apply_batch(&b);

    assert_eq!(stale.query_dist_pinned(0, 40), batchhl::graph::INF);
    assert_eq!(fresh.query(0, 41), Some(2));
    oracle::check_minimal(&index.graph(), index.labelling()).unwrap();
}
