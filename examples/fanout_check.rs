//! Fixed in-process check of the one-to-many query path: a fixed set of
//! `distances_from` calls (64 uniformly drawn targets each, as perfbench
//! draws them) on one of perfbench's workload graphs, with no server or
//! wire around them, plus the same pairs as point queries.
//!
//! * `--family directed` (default): `directed_wire`'s graph
//!   (`orient_randomly(BA(100k, 8), 0.3)`, seed 1) on a
//!   `DirectedBatchIndex`.
//! * `--family weighted`: `road_churn`'s graph (200×200 grid, weights
//!   1–100 drawn from seed 1) on a `WeightedBatchIndex`.
//!
//! Both use 20 top-degree landmarks. Each run times every fan-out and
//! every point query once; the best run's mean per fan-out and per pair
//! is printed with a hash of all answers, which must not differ between
//! runs or between two builds of the code being compared.
//!
//! ```sh
//! cargo run --release --example fanout_check -- [--family directed|weighted] [--fanouts 400] [--runs 5] [--seed 1]
//! ```

use batchhl::common::SplitMix64;
use batchhl::core::{DirectedBatchIndex, IndexConfig, WeightedBatchIndex};
use batchhl::graph::generators::{barabasi_albert, grid, orient_randomly};
use batchhl::graph::weighted::WeightedGraph;
use batchhl::{Dist, LandmarkSelection, Vertex, Weight};
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

/// FNV-1a over the answers, `INF` for `None`.
fn hash(answers: &[Option<Dist>]) -> u64 {
    answers.iter().fold(0xcbf2_9ce4_8422_2325, |h, d| {
        (h ^ u64::from(d.unwrap_or(Dist::MAX))).wrapping_mul(0x100_0000_01b3)
    })
}

/// `runs` rounds over every fan-out, then over every pair as a point
/// query. Returns the best round's mean µs per fan-out and per pair and
/// the answers' hash.
fn measure(
    runs: usize,
    fanouts: &[(Vertex, Vec<Vertex>)],
    mut fan_out: impl FnMut(Vertex, &[Vertex]) -> Vec<Option<Dist>>,
    mut point: impl FnMut(Vertex, Vertex) -> Option<Dist>,
) -> (f64, f64, u64) {
    let pairs: usize = fanouts.iter().map(|(_, ts)| ts.len()).sum();
    let (mut best_fan, mut best_pair, mut digest) = (f64::INFINITY, f64::INFINITY, None);
    for _ in 0..runs {
        let mut answers = Vec::with_capacity(pairs);
        let start = Instant::now();
        for (s, targets) in fanouts {
            answers.extend(fan_out(*s, targets));
        }
        best_fan = best_fan.min(start.elapsed().as_secs_f64() * 1e6 / fanouts.len() as f64);
        let mut singles = Vec::with_capacity(pairs);
        let start = Instant::now();
        for (s, targets) in fanouts {
            singles.extend(targets.iter().map(|&t| point(*s, t)));
        }
        best_pair = best_pair.min(start.elapsed().as_secs_f64() * 1e6 / pairs as f64);
        assert_eq!(answers, singles, "a fan-out differs from its point queries");
        let h = hash(&answers);
        assert!(digest.is_none_or(|d| d == h), "answers differ between runs");
        digest = Some(h);
    }
    (best_fan, best_pair, digest.unwrap_or(0))
}

fn main() {
    let family = arg("--family", "directed");
    let count: usize = arg("--fanouts", "400").parse().expect("--fanouts");
    let runs: usize = arg("--runs", "5").parse().expect("--runs");
    let seed: u64 = arg("--seed", "1").parse().expect("--seed");
    let config = IndexConfig {
        selection: LandmarkSelection::TopDegree(20),
        ..IndexConfig::default()
    };
    let draw = |n: usize| {
        let mut rng = SplitMix64::new(seed);
        let mut vertex = move || rng.below(n as u64) as Vertex;
        (0..count)
            .map(|_| (vertex(), (0..64).map(|_| vertex()).collect()))
            .collect::<Vec<(Vertex, Vec<Vertex>)>>()
    };
    let (fan, pair, digest) = match family.as_str() {
        "directed" => {
            let g = orient_randomly(&barabasi_albert(100_000, 8, 1), 0.3, 1);
            let fanouts = draw(g.num_vertices());
            let mut index = DirectedBatchIndex::try_build(g, config).unwrap();
            let mut reader = index.reader();
            measure(
                runs,
                &fanouts,
                |s, ts| index.distances_from(s, ts),
                |s, t| reader.query(s, t),
            )
        }
        "weighted" => {
            let g = road_grid();
            let fanouts = draw(g.num_vertices());
            let mut index = WeightedBatchIndex::try_build(g, config).unwrap();
            let mut reader = index.reader();
            measure(
                runs,
                &fanouts,
                |s, ts| index.distances_from(s, ts),
                |s, t| reader.query(s, t),
            )
        }
        other => panic!("--family directed|weighted, not {other}"),
    };
    println!(
        "{family}: {count} fan-outs of 64 targets, best of {runs}: {fan:.1} µs per fan-out, \
         {pair:.2} µs per point query; answers hash {digest:016x}"
    );
}
