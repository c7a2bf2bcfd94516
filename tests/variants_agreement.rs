//! All published variants (BHL, BHL⁺, BHLₛ, UHL, UHL⁺, BHLₚ) converge
//! to the identical labelling — uniqueness of the minimal highway cover
//! labelling makes this an exact, entry-level comparison — and their
//! affected-vertex counts obey the paper's Figure 2 ordering.

use batchhl::core::index::{Algorithm, BatchIndex, IndexConfig};
use batchhl::core::{DirectedBatchIndex, WeightedBatchIndex};
use batchhl::graph::generators::{barabasi_albert, orient_randomly, rmat, RmatParams};
use batchhl::graph::weighted::{Weight, WeightedGraph, WeightedUpdate};
use batchhl::graph::{Batch, DynamicGraph, Update, Vertex};
use batchhl::hcl::LandmarkSelection;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn mixed_batch(g: &DynamicGraph, size: usize, seed: u64) -> Batch {
    let mut rng = StdRng::seed_from_u64(seed);
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

fn build(g: &DynamicGraph, algorithm: Algorithm, threads: usize) -> BatchIndex {
    BatchIndex::build(
        g.clone(),
        IndexConfig {
            selection: LandmarkSelection::TopDegree(8),
            algorithm,
            threads,
            ..IndexConfig::default()
        },
    )
}

#[test]
fn all_variants_identical_labellings() {
    for (g, seed) in [
        (barabasi_albert(200, 3, 5), 1u64),
        (rmat(8, 900, RmatParams::graph500(), 6), 2),
    ] {
        let batch = mixed_batch(&g, 30, seed);
        let mut reference = build(&g, Algorithm::BhlPlus, 1);
        reference.apply_batch(&batch);
        for (alg, threads) in [
            (Algorithm::Bhl, 1),
            (Algorithm::BhlS, 1),
            (Algorithm::Uhl, 1),
            (Algorithm::UhlPlus, 1),
            (Algorithm::BhlPlus, 4), // BHLp
            (Algorithm::Bhl, 3),
        ] {
            let mut idx = build(&g, alg, threads);
            idx.apply_batch(&batch);
            assert_eq!(
                idx.labelling(),
                reference.labelling(),
                "{alg:?}/threads={threads} diverged"
            );
        }
    }
}

#[test]
fn figure2_ordering_of_affected_counts() {
    // UHL ≥ BHLs ≥ BHL ≥ BHL+ on mixed batches (Figure 2's gap).
    let g = barabasi_albert(400, 4, 9);
    let batch = mixed_batch(&g, 60, 3);
    let mut counts = Vec::new();
    for alg in [
        Algorithm::Uhl,
        Algorithm::BhlS,
        Algorithm::Bhl,
        Algorithm::BhlPlus,
    ] {
        let mut idx = build(&g, alg, 1);
        counts.push((alg, idx.apply_batch(&batch).affected_total));
    }
    for w in counts.windows(2) {
        assert!(
            w[0].1 >= w[1].1,
            "{:?}={} should be ≥ {:?}={}",
            w[0].0,
            w[0].1,
            w[1].0,
            w[1].1
        );
    }
    // And the batch effect must be real: UHL strictly above BHL+.
    assert!(counts[0].1 > counts[3].1);
}

#[test]
fn stats_are_internally_consistent() {
    let g = barabasi_albert(150, 3, 2);
    let batch = mixed_batch(&g, 25, 8);
    let mut idx = build(&g, Algorithm::BhlPlus, 1);
    let stats = idx.apply_batch(&batch);
    assert_eq!(stats.insertions + stats.deletions, stats.applied);
    assert_eq!(
        stats.affected_per_landmark.iter().sum::<usize>(),
        stats.affected_total
    );
    assert_eq!(stats.affected_per_landmark.len(), 8);
    assert_eq!(stats.passes, 1);
    let stats_uhl = build(&g, Algorithm::UhlPlus, 1).apply_batch(&batch);
    assert_eq!(stats_uhl.passes, batch.len());
}

/// The directed index honours every variant too: all five repair to the
/// same forward and backward labellings, and each publishes one
/// generation per pass (BHLₛ two, UHL/UHL⁺ one per update).
#[test]
fn directed_variants_identical_labellings_one_version_per_pass() {
    let g = orient_randomly(&barabasi_albert(200, 3, 5), 0.3, 4);
    // Distinct arcs, so every update is also valid on its own (UHL):
    // remove an out-arc of each of 15 vertices, add 15 absent arcs.
    let mut batch = Batch::new();
    for v in 0..15 {
        if let Some(&w) = g.out_neighbors(v).first() {
            batch.delete(v, w);
        }
    }
    let mut rng = StdRng::seed_from_u64(11);
    while batch.num_insertions() < 15 {
        let (a, c) = (rng.gen_range(0..200), rng.gen_range(0..200));
        if a != c && !g.has_edge(a, c) && !batch.updates().contains(&Update::Insert(a, c)) {
            batch.insert(a, c);
        }
    }
    assert!(batch.num_deletions() > 0);
    let build = |algorithm| -> DirectedBatchIndex {
        DirectedBatchIndex::build(
            g.clone(),
            IndexConfig {
                selection: LandmarkSelection::TopDegree(8),
                algorithm,
                ..IndexConfig::default()
            },
        )
    };
    let mut reference = build(Algorithm::BhlPlus);
    reference.apply_batch(&batch);
    for (alg, passes) in [
        (Algorithm::Bhl, 1),
        (Algorithm::BhlPlus, 1),
        (Algorithm::BhlS, 2),
        (Algorithm::Uhl, batch.len()),
        (Algorithm::UhlPlus, batch.len()),
    ] {
        let mut idx = build(alg);
        let stats = idx.apply_batch(&batch);
        assert_eq!(stats.passes, passes, "{alg:?} passes");
        assert_eq!(idx.version(), passes as u64, "{alg:?} versions");
        assert_eq!(
            idx.forward_labelling(),
            reference.forward_labelling(),
            "{alg:?} fwd"
        );
        assert_eq!(
            idx.backward_labelling(),
            reference.backward_labelling(),
            "{alg:?} bwd"
        );
        assert_eq!(&idx.graph(), &reference.graph(), "{alg:?} graph");
    }
}

/// The weighted index honours every variant as well (Section 6: weight
/// increases handled like deletions, decreases like insertions): all
/// five, and BHLₚ, repair to the labelling a fresh build gives, with
/// one generation per pass.
#[test]
fn weighted_variants_identical_labellings_one_version_per_pass() {
    for (max_w, seed) in [(3, 21u64), (9, 22)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = WeightedGraph::new(200);
        for (a, b) in barabasi_albert(200, 3, seed).edges() {
            g.insert_edge(a, b, rng.gen_range(1..=max_w));
        }
        // Distinct edges, so every update is also valid on its own
        // (UHL): batch normalization keeps only the first update of an
        // edge, while UHL would apply a repeat in turn.
        let edges: Vec<(Vertex, Vertex, Weight)> = g.edges().collect();
        let mut batch = Vec::new();
        for (k, &(a, b, w)) in edges.iter().step_by(edges.len() / 30).take(30).enumerate() {
            batch.push(match k % 3 {
                0 => WeightedUpdate::Delete(a, b),
                1 => WeightedUpdate::SetWeight(a, b, w + rng.gen_range(1..=max_w)),
                _ if w > 1 => WeightedUpdate::SetWeight(a, b, rng.gen_range(1..w)),
                _ => WeightedUpdate::SetWeight(a, b, w + 1),
            });
        }
        let mut added = std::collections::HashSet::new();
        while added.len() < 10 {
            let (a, b) = (rng.gen_range(0..200), rng.gen_range(0..200));
            if a != b && !g.has_edge(a, b) && added.insert((a.min(b), a.max(b))) {
                batch.push(WeightedUpdate::Insert(a, b, rng.gen_range(1..=max_w)));
            }
        }
        let build = |algorithm, threads| -> WeightedBatchIndex {
            let config = IndexConfig {
                selection: LandmarkSelection::TopDegree(8),
                algorithm,
                threads,
                ..IndexConfig::default()
            };
            WeightedBatchIndex::try_build(g.clone(), config).unwrap()
        };
        let mut reference = build(Algorithm::BhlPlus, 1);
        reference.apply_batch(&batch);
        reference.verify().expect("BHL+ equals a fresh build");
        for (alg, threads, passes) in [
            (Algorithm::Bhl, 1, 1),
            (Algorithm::BhlPlus, 1, 1),
            (Algorithm::BhlS, 1, 2),
            (Algorithm::Uhl, 1, batch.len()),
            (Algorithm::UhlPlus, 1, batch.len()),
            (Algorithm::BhlPlus, 4, 1), // BHLp
        ] {
            let ctx = format!("w 1-{max_w} {alg:?}/threads={threads}");
            let mut idx = build(alg, threads);
            let stats = idx.apply_batch(&batch);
            assert_eq!(stats.applied, batch.len(), "{ctx} applied");
            assert_eq!(stats.passes, passes, "{ctx} passes");
            assert_eq!(idx.version(), passes as u64, "{ctx} versions");
            assert_eq!(idx.labelling(), reference.labelling(), "{ctx} labelling");
            assert_eq!(&idx.graph(), &reference.graph(), "{ctx} graph");
        }
    }
}
