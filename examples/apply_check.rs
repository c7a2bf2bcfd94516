//! Fixed in-process check of the weighted update path, with no WAL,
//! server or checkpoint around it: the graph of perfbench's
//! `road_churn` workload (200×200 grid, weights 1–100 drawn from seed 1)
//! and traffic batches of the same shape (100 edits: 5 closures, each
//! reopened in the next batch, the rest re-weighted to 1–100), applied
//! straight to a `WeightedBatchIndex` (BHL⁺, 20 top-degree landmarks).
//!
//! Every run builds the index and applies the same batches; it reports
//! the construction time and the median `apply_batch` time. Per thread
//! count the best of the runs is printed, with the total affected
//! count, which must not differ between runs or between two builds of
//! the code being compared.
//!
//! ```sh
//! cargo run --release --example apply_check -- [--batches 40] [--runs 5] [--seed 1] [--threads 1,2]
//! ```

use batchhl::common::SplitMix64;
use batchhl::core::{IndexConfig, WeightedBatchIndex};
use batchhl::graph::generators::grid;
use batchhl::graph::weighted::{WeightedGraph, WeightedUpdate};
use batchhl::{Algorithm, LandmarkSelection, Vertex, Weight};
use std::time::Instant;

fn arg(name: &str, default: &str) -> String {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| default.to_string())
}

fn road_grid() -> WeightedGraph {
    let g = grid(200, 200);
    let mut rng = SplitMix64::new(1);
    let edges: Vec<(Vertex, Vertex, Weight)> = g
        .edges()
        .map(|(a, b)| (a, b, 1 + rng.below(100) as Weight))
        .collect();
    WeightedGraph::from_edges(g.num_vertices(), &edges)
}

/// A uniformly drawn vertex, then one of its edges.
fn random_edge(g: &WeightedGraph, rng: &mut SplitMix64) -> (Vertex, Vertex, Weight) {
    loop {
        let a = rng.below(g.num_vertices() as u64) as Vertex;
        let nbrs = g.neighbors(a);
        if !nbrs.is_empty() {
            let (b, w) = nbrs[rng.below(nbrs.len() as u64) as usize];
            return (a, b, w);
        }
    }
}

fn traffic(g: &WeightedGraph, seed: u64, count: usize) -> Vec<Vec<WeightedUpdate>> {
    let mut shadow = g.clone();
    let mut rng = SplitMix64::new(seed);
    let mut reopen: Vec<(Vertex, Vertex, Weight)> = Vec::new();
    let mut batches = Vec::with_capacity(count);
    for _ in 0..count {
        let mut used = std::collections::HashSet::new();
        let mut batch: Vec<WeightedUpdate> = Vec::new();
        for (a, b, w) in reopen.drain(..) {
            used.insert((a.min(b), a.max(b)));
            batch.push(WeightedUpdate::Insert(a, b, w));
        }
        // Close only edges whose endpoints keep two other edges.
        while reopen.len() < 5 {
            let (a, b, w) = random_edge(&shadow, &mut rng);
            let keeps = shadow.degree(a) >= 3 && shadow.degree(b) >= 3;
            if keeps && used.insert((a.min(b), a.max(b))) {
                reopen.push((a, b, w));
                batch.push(WeightedUpdate::Delete(a, b));
            }
        }
        while batch.len() < 100 {
            let (a, b, old) = random_edge(&shadow, &mut rng);
            let w = 1 + rng.below(100) as Weight;
            if w != old && used.insert((a.min(b), a.max(b))) {
                batch.push(WeightedUpdate::SetWeight(a, b, w));
            }
        }
        for &u in &batch {
            match u {
                WeightedUpdate::Insert(a, b, w) => shadow.insert_edge(a, b, w),
                WeightedUpdate::Delete(a, b) => shadow.remove_edge(a, b),
                WeightedUpdate::SetWeight(a, b, w) => shadow.set_weight(a, b, w).is_some(),
            };
        }
        batches.push(batch);
    }
    batches
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let count: usize = arg("--batches", "40").parse().expect("--batches");
    let runs: usize = arg("--runs", "5").parse().expect("--runs");
    let seed: u64 = arg("--seed", "1").parse().expect("--seed");
    let g = road_grid();
    let batches = traffic(&g, seed, count);
    for threads in arg("--threads", "1,2").split(',') {
        let threads: usize = threads.parse().expect("--threads");
        let config = IndexConfig {
            algorithm: Algorithm::BhlPlus,
            selection: LandmarkSelection::TopDegree(20),
            threads,
            ..IndexConfig::default()
        };
        let (mut builds, mut applies, mut affected) = (Vec::new(), Vec::new(), Vec::new());
        for _ in 0..runs {
            let start = Instant::now();
            let mut index = WeightedBatchIndex::try_build(g.clone(), config.clone()).unwrap();
            builds.push(start.elapsed().as_secs_f64() * 1e3);
            let mut total = 0;
            let times = batches
                .iter()
                .map(|batch| {
                    let start = Instant::now();
                    total += index.apply_batch(batch).affected_total;
                    start.elapsed().as_secs_f64() * 1e3
                })
                .collect();
            applies.push(median(times));
            affected.push(total);
        }
        assert!(
            affected.windows(2).all(|w| w[0] == w[1]),
            "affected totals differ between runs: {affected:?}"
        );
        let show = |xs: &[f64]| {
            let best = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let all: Vec<String> = xs.iter().map(|x| format!("{x:.1}")).collect();
            format!("best {best:.1} ms (runs {})", all.join(" "))
        };
        println!(
            "threads {threads}: build {}; apply median {}; affected total {} over {count} batches",
            show(&builds),
            show(&applies),
            affected[0]
        );
    }
}
