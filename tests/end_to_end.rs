//! Cross-crate integration: four independently implemented distance
//! oracles (BatchHL, FulFD, FulPLL, online BiBFS) must agree on every
//! query while absorbing the same update stream.

use batchhl::baselines::{FulFd, FulPll, OnlineBiBfs};
use batchhl::core::index::{Algorithm, BatchIndex, IndexConfig};
use batchhl::graph::generators::{barabasi_albert, erdos_renyi_gnm, watts_strogatz};
use batchhl::graph::{Batch, DynamicGraph, Vertex};
use batchhl::hcl::LandmarkSelection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn random_batch(g: &DynamicGraph, size: usize, rng: &mut StdRng) -> Batch {
    let n = g.num_vertices() as Vertex;
    let mut b = Batch::new();
    for _ in 0..size {
        let a = rng.gen_range(0..n);
        let c = rng.gen_range(0..n);
        if a == c {
            continue;
        }
        if g.has_edge(a, c) {
            b.delete(a, c);
        } else {
            b.insert(a, c);
        }
    }
    b
}

fn agree_on_queries(g0: DynamicGraph, rounds: usize, batch_size: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut bhl = BatchIndex::build(
        g0.clone(),
        IndexConfig {
            selection: LandmarkSelection::TopDegree(8),
            algorithm: Algorithm::BhlPlus,
            threads: 1,
            ..IndexConfig::default()
        },
    );
    let mut fd = FulFd::build(g0.clone(), 8);
    let mut pll = FulPll::build(g0.clone());
    let mut online = OnlineBiBfs::new(g0.clone());
    let n = g0.num_vertices() as Vertex;

    for round in 0..rounds {
        let batch = random_batch(&bhl.graph(), batch_size, &mut rng);
        // Normalize once so all four apply the identical update set.
        let norm = batch.normalize(&bhl.graph());
        bhl.apply_batch(&norm);
        fd.apply_batch(&norm);
        pll.apply_batch(&norm);
        online.apply_batch(&norm);
        assert_eq!(&bhl.graph(), online.graph(), "graphs diverged");

        for _ in 0..120 {
            let s = rng.gen_range(0..n);
            let t = rng.gen_range(0..n);
            let want = online.query(s, t);
            assert_eq!(bhl.query(s, t), want, "BatchHL({s},{t}) round {round}");
            assert_eq!(fd.query(s, t), want, "FulFD({s},{t}) round {round}");
            assert_eq!(pll.query(s, t), want, "FulPLL({s},{t}) round {round}");
        }
    }
}

#[test]
fn oracles_agree_on_scale_free_graph() {
    agree_on_queries(barabasi_albert(150, 3, 1), 4, 15, 10);
}

#[test]
fn oracles_agree_on_uniform_graph() {
    agree_on_queries(erdos_renyi_gnm(120, 240, 2), 4, 15, 20);
}

#[test]
fn oracles_agree_on_small_world_graph() {
    agree_on_queries(watts_strogatz(130, 2, 0.2, 3), 4, 12, 30);
}

#[test]
fn oracles_agree_under_heavy_deletion() {
    // Deletion-dominated stream: the decremental paths of all four
    // structures (the historically hard case) under shared updates.
    let g0 = erdos_renyi_gnm(100, 300, 4);
    let mut rng = StdRng::seed_from_u64(40);
    let mut bhl = BatchIndex::build(
        g0.clone(),
        IndexConfig {
            selection: LandmarkSelection::TopDegree(6),
            algorithm: Algorithm::Bhl,
            threads: 1,
            ..IndexConfig::default()
        },
    );
    let mut fd = FulFd::build(g0.clone(), 6);
    let mut online = OnlineBiBfs::new(g0.clone());
    for _ in 0..6 {
        let mut batch = Batch::new();
        let edges: Vec<_> = bhl.graph().edges().collect();
        for _ in 0..20 {
            let &(a, b) = &edges[rng.gen_range(0..edges.len())];
            batch.delete(a, b);
        }
        let norm = batch.normalize(&bhl.graph());
        bhl.apply_batch(&norm);
        fd.apply_batch(&norm);
        online.apply_batch(&norm);
        for _ in 0..100 {
            let s = rng.gen_range(0..100);
            let t = rng.gen_range(0..100);
            let want = online.query(s, t);
            assert_eq!(bhl.query(s, t), want);
            assert_eq!(fd.query(s, t), want);
        }
    }
}
