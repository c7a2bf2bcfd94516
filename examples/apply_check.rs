//! Fixed in-process check of the update path, with no WAL, server or
//! checkpoint around it: straight `apply_batch` calls (BHL⁺, 20
//! top-degree landmarks) on one of perfbench's workload graphs.
//!
//! * `--family weighted` (default): `road_churn`'s graph (200×200 grid,
//!   weights 1–100 drawn from seed 1) and traffic batches of the same
//!   shape (100 edits: 5 closures, each reopened in the next batch, the
//!   rest re-weighted to 1–100), on a `WeightedBatchIndex`.
//! * `--family directed`: `directed_wire`'s graph
//!   (`orient_randomly(BA(100k, 8), 0.3)`, seed 1) and churn batches of
//!   200 arc removals plus 200 insertions of arcs absent both ways, on a
//!   `DirectedBatchIndex`.
//!
//! Every run builds the index and applies the same batches; it reports
//! the construction time and the median `apply_batch` time. Per thread
//! count the best of the runs is printed, with the total affected
//! count, which must not differ between runs or between two builds of
//! the code being compared, and the resident bytes of the last
//! generation: CSR view base, CSR view overlay, packed labels.
//!
//! ```sh
//! cargo run --release --example apply_check -- [--family weighted|directed] [--batches 40] [--runs 5] [--seed 1] [--threads 1,2]
//! ```

use batchhl::common::SplitMix64;
use batchhl::core::{DirectedBatchIndex, IndexConfig, WeightedBatchIndex};
use batchhl::graph::generators::{barabasi_albert, grid, orient_randomly};
use batchhl::graph::weighted::{WeightedGraph, WeightedUpdate};
use batchhl::graph::{Batch, DynamicDiGraph};
use batchhl::hcl::Labelling;
use batchhl::{Algorithm, LandmarkSelection, UpdateStats, Vertex, Weight};
use std::collections::HashSet;
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
        let mut used = HashSet::new();
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

/// `count` batches of 200 removals of existing arcs (a uniformly drawn
/// vertex, then one of its out-arcs) and 200 insertions of arcs absent
/// both ways, no pair twice in a batch.
fn churn(g: &DynamicDiGraph, seed: u64, count: usize) -> Vec<Batch> {
    let mut shadow = g.clone();
    let mut rng = SplitMix64::new(seed);
    let n = g.num_vertices() as u64;
    (0..count)
        .map(|_| {
            let mut used = HashSet::new();
            let mut batch = Batch::new();
            while batch.len() < 200 {
                let a = rng.below(n) as Vertex;
                let outs = shadow.out_neighbors(a);
                if outs.is_empty() {
                    continue;
                }
                let b = outs[rng.below(outs.len() as u64) as usize];
                if used.insert((a.min(b), a.max(b))) {
                    batch.delete(a, b);
                }
            }
            while batch.len() < 400 {
                let (a, b) = (rng.below(n) as Vertex, rng.below(n) as Vertex);
                let absent = !shadow.has_edge(a, b) && !shadow.has_edge(b, a);
                if a != b && absent && used.insert((a.min(b), a.max(b))) {
                    batch.insert(a, b);
                }
            }
            shadow.apply_batch(&batch);
            batch
        })
        .collect()
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn packed_bytes(labs: &[&Labelling]) -> usize {
    labs.iter().map(|l| l.packed().resident_bytes()).sum()
}

/// `runs` times: build an index, apply every batch, and record the
/// build time, the median apply time, the summed affected count and
/// the last generation's `[view base, view overlay, packed labels]`
/// bytes.
fn measure<I>(
    runs: usize,
    batches: usize,
    build: impl Fn() -> I,
    apply: impl Fn(&mut I, usize) -> UpdateStats,
    bytes: impl Fn(&I) -> [usize; 3],
) -> (Vec<f64>, Vec<f64>, Vec<usize>, [usize; 3]) {
    let (mut builds, mut applies, mut affected) = (Vec::new(), Vec::new(), Vec::new());
    let mut resident = [0; 3];
    for _ in 0..runs {
        let start = Instant::now();
        let mut index = build();
        builds.push(start.elapsed().as_secs_f64() * 1e3);
        let mut total = 0;
        let times = (0..batches)
            .map(|k| {
                let start = Instant::now();
                total += apply(&mut index, k).affected_total;
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
        applies.push(median(times));
        affected.push(total);
        resident = bytes(&index);
    }
    (builds, applies, affected, resident)
}

fn main() {
    let count: usize = arg("--batches", "40").parse().expect("--batches");
    let runs: usize = arg("--runs", "5").parse().expect("--runs");
    let seed: u64 = arg("--seed", "1").parse().expect("--seed");
    let family = arg("--family", "weighted");
    let (weighted, directed) = match family.as_str() {
        "weighted" => {
            let g = road_grid();
            let batches = traffic(&g, seed, count);
            (Some((g, batches)), None)
        }
        "directed" => {
            let g = orient_randomly(&barabasi_albert(100_000, 8, 1), 0.3, 1);
            let batches = churn(&g, seed, count);
            (None, Some((g, batches)))
        }
        other => panic!("--family weighted|directed, not {other}"),
    };
    for threads in arg("--threads", "1,2").split(',') {
        let threads: usize = threads.parse().expect("--threads");
        let config = IndexConfig {
            algorithm: Algorithm::BhlPlus,
            selection: LandmarkSelection::TopDegree(20),
            threads,
            ..IndexConfig::default()
        };
        let (builds, applies, affected, [base, overlay, labels]) =
            if let Some((g, batches)) = &weighted {
                measure(
                    runs,
                    count,
                    || WeightedBatchIndex::try_build(g.clone(), config.clone()).unwrap(),
                    |index, k| index.apply_batch(&batches[k]),
                    |index| {
                        let generation = index.published();
                        let (view, lab) = (&generation.view, &generation.lab);
                        let overlay = view.overlay_bytes();
                        [
                            view.resident_bytes() - overlay,
                            overlay,
                            packed_bytes(&[lab]),
                        ]
                    },
                )
            } else {
                let (g, batches) = directed.as_ref().expect("one family");
                measure(
                    runs,
                    count,
                    || DirectedBatchIndex::try_build(g.clone(), config.clone()).unwrap(),
                    |index, k| index.apply_batch(&batches[k]),
                    |index| {
                        let generation = index.published();
                        let view = &generation.view;
                        let overlay = view.overlay_bytes();
                        let labels = packed_bytes(&[&generation.fwd, &generation.bwd]);
                        [view.resident_bytes() - overlay, overlay, labels]
                    },
                )
            };
        assert!(
            affected.windows(2).all(|w| w[0] == w[1]),
            "affected totals differ between runs: {affected:?}"
        );
        let show = |xs: &[f64]| {
            let best = xs.iter().copied().fold(f64::INFINITY, f64::min);
            let all: Vec<String> = xs.iter().map(|x| format!("{x:.1}")).collect();
            format!("best {best:.1} ms (runs {})", all.join(" "))
        };
        let mib = |b: usize| b as f64 / (1 << 20) as f64;
        println!(
            "{family} threads {threads}: build {}; apply median {}; affected total {} over {count} batches; \
             resident MiB: view base {:.2}, view overlay {:.2}, packed labels {:.2}",
            show(&builds),
            show(&applies),
            affected[0],
            mib(base),
            mib(overlay),
            mib(labels)
        );
    }
}
