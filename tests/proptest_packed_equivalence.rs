//! Property-based equivalence of the packed label layout against exact
//! references.
//!
//! A labelling is stored packed (`batchhl::hcl::packed`), and the Eq. 3
//! bound walks its packed rows. Every bound it produces must equal the
//! exact scalar `|R| × |R|` loop over the `LabelView` accessors
//! (`upper_bound_pair_exact`) — including at the width-tier boundaries
//! (254/255, 65534/65535, the tier-8 escape) and for unreachable pairs.
//!
//! Published generations are built by patching the previous one with
//! the repair deltas: after every batch of a random history, on every
//! family, each labelling must equal a fresh construction on the current
//! graph, present the same rows as its own compaction, and bound every
//! pair like the exact loop and like the fresh labelling.

use batchhl::core::directed::DirectedBatchIndex;
use batchhl::core::index::{Algorithm, BatchIndex, CompactionPolicy, IndexConfig};
use batchhl::core::weighted::WeightedBatchIndex;
use batchhl::core::{Family, Index};
use batchhl::graph::weighted::{Weight, WeightedGraph, WeightedUpdate};
use batchhl::graph::{Batch, DynamicDiGraph, DynamicGraph, Reversed, Vertex};
use batchhl::hcl::labelling::Labelling;
use batchhl::hcl::oracle::minimal_labelling_bruteforce;
use batchhl::hcl::packed::{PackedIndex, CLAMP_SAFE_MAX};
use batchhl::hcl::serde_io::{read_labelling, write_labelling};
use batchhl::hcl::{build_labelling, upper_bound_pair_exact, LandmarkSelection, SourcePlan};
use batchhl::{Dist, INF};
use proptest::prelude::*;

const N: usize = 24;

fn edges_strategy() -> impl Strategy<Value = Vec<(Vertex, Vertex)>> {
    prop::collection::vec((0..N as Vertex, 0..N as Vertex), 0..70)
}

fn pairs_strategy() -> impl Strategy<Value = Vec<(Vertex, Vertex)>> {
    prop::collection::vec((0..N as Vertex, 0..N as Vertex), 1..30)
}

/// Distances that straddle every width-tier boundary of the packed
/// layout, plus the exact-escape and near-infinite extremes.
const TIER_EDGE_DISTS: [Dist; 11] = [
    0,
    1,
    253,
    254, // largest u8-tier value
    255, // first value forcing the u16 tier
    65_534,
    65_535,             // first value forcing the u32 tier
    CLAMP_SAFE_MAX,     // largest clamp-safe value
    CLAMP_SAFE_MAX + 1, // first value forcing the tier-8 escape
    (1 << 29) + 17,
    INF - 1,
];

/// Vertex ids of random histories: those past `N` grow the graph.
const GROW: usize = N + 4;

const ALGORITHMS: [Algorithm; 5] = [
    Algorithm::Bhl,
    Algorithm::BhlPlus,
    Algorithm::BhlS,
    Algorithm::Uhl,
    Algorithm::UhlPlus,
];

/// Edge weights whose sums move label rows across the 254/255 and
/// 65534/65535 width-tier edges.
const TIER_WEIGHTS: [Weight; 8] = [1, 2, 127, 254, 255, 300, 65_534, 65_535];

/// One edit of a random history: `(op, a, (b, weight index))`. Ops 0
/// and 1 insert `a–b` (or set its weight, when weighted and present),
/// op 2 deletes `a–b` or else `a`'s first edge, op 3 isolates `a`
/// (disconnecting it when it is a landmark).
type Step = (u8, Vertex, (Vertex, usize));

fn history_strategy() -> impl Strategy<Value = Vec<Vec<Step>>> {
    prop::collection::vec(
        prop::collection::vec(
            (
                0..4u8,
                0..GROW as Vertex,
                (0..GROW as Vertex, 0..TIER_WEIGHTS.len()),
            ),
            1..8,
        ),
        1..7,
    )
}

/// Compaction with no entry floor, so the packed overlay compacts
/// within a short history on a tiny graph.
fn history_config(algorithm: usize, threads: usize) -> IndexConfig {
    IndexConfig {
        selection: LandmarkSelection::TopDegree(4),
        algorithm: ALGORITHMS[algorithm],
        threads,
        compaction: CompactionPolicy {
            min_entries: 0,
            ..CompactionPolicy::default()
        },
    }
}

/// Row `v` of a packing as `(tier, entries)`.
fn row_of(p: &PackedIndex, v: Vertex) -> (u8, Vec<(u16, Dist)>) {
    let row = p.labels.row(v);
    (
        p.labels.row_tier(v),
        (0..row.len()).map(|k| row.entry(k)).collect(),
    )
}

/// Every labelling of the published generation equals `fresh` (a new
/// construction on the current graph, in checkpoint order), presents row
/// for row what its own compaction does, and bounds every pair like the
/// exact loop and like `fresh`.
fn check_published<F: Family>(
    idx: &Index<F>,
    fresh: &[Labelling],
    ctx: &str,
) -> Result<(), String> {
    let snap = idx.published();
    let labs = snap.value().labellings();
    prop_assert_eq!(labs.len(), fresh.len());
    for (lab, fresh) in labs.into_iter().zip(fresh) {
        prop_assert_eq!(lab, fresh, "{}: labelling = fresh build", ctx);
        let (got, want) = (lab.packed(), PackedIndex::build(lab));
        let n = lab.num_vertices() as Vertex;
        prop_assert_eq!(got.labels.num_vertices(), n as usize, "{ctx}: vertex range");
        for v in 0..n {
            prop_assert_eq!(row_of(got, v), row_of(&want, v), "{ctx}: row {v}");
        }
        prop_assert_eq!(got.labels.num_entries(), want.labels.num_entries());
        prop_assert_eq!(got.labels.dist_bytes(), want.labels.dist_bytes());
        prop_assert_eq!(&got.highway, &want.highway, "{ctx}: highway");
        for s in 0..n {
            for t in 0..n {
                let bound = lab.upper_bound(s, t);
                prop_assert_eq!(
                    bound,
                    upper_bound_pair_exact(lab, lab, lab, s, t),
                    "{ctx}: bound ({s}, {t})"
                );
                prop_assert_eq!(bound, fresh.upper_bound(s, t), "{ctx}: fresh ({s}, {t})");
            }
        }
    }
    Ok(())
}

/// The unweighted edit list of one step against the current edge set.
fn unweighted_batch(
    steps: &[Step],
    n: usize,
    edges_of: impl Fn(Vertex) -> Vec<(Vertex, Vertex)>,
    has_edge: impl Fn(Vertex, Vertex) -> bool,
) -> Batch {
    let mut batch = Batch::new();
    for &(op, a, (b, _)) in steps {
        match op {
            0 | 1 => batch.insert(a, b),
            2 if (a as usize) < n && (b as usize) < n && has_edge(a, b) => batch.delete(a, b),
            _ if (a as usize) < n => {
                let edges = edges_of(a);
                let take = if op == 2 {
                    edges.len().min(1)
                } else {
                    edges.len()
                };
                for &(x, y) in &edges[..take] {
                    batch.delete(x, y);
                }
            }
            _ => {}
        }
    }
    batch
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Every published generation of a random batch history equals a
    // fresh construction and bounds exactly: vertex growth,
    // landmark-disconnecting deletions, every algorithm's pass split,
    // both repair paths, and compactions of the packed overlay.
    #[test]
    fn published_mirrors_stay_sealed_and_exact(
        edges in edges_strategy(),
        history in history_strategy(),
        setup in (0..ALGORITHMS.len(), 1..3usize),
    ) {
        let (algorithm, threads) = setup;
        let config = history_config(algorithm, threads);

        let mut und = BatchIndex::build(DynamicGraph::from_edges(N, &edges), config.clone());
        let landmarks = und.labelling().landmarks().to_vec();
        for (k, steps) in history.iter().enumerate() {
            let g = und.graph();
            let batch = unweighted_batch(
                steps,
                g.num_vertices(),
                |a| g.neighbors(a).iter().map(|&b| (a, b)).collect(),
                |a, b| g.has_edge(a, b),
            );
            und.apply_batch(&batch);
            let fresh = build_labelling(&und.graph(), landmarks.clone()).unwrap();
            check_published(&und, &[fresh], &format!("undirected batch {k}"))?;
        }

        let mut di = DirectedBatchIndex::build(DynamicDiGraph::from_edges(N, &edges), config.clone());
        let landmarks = di.forward_labelling().landmarks().to_vec();
        for (k, steps) in history.iter().enumerate() {
            let g = di.graph();
            let batch = unweighted_batch(
                steps,
                g.num_vertices(),
                |a| {
                    let outs = g.out_neighbors(a).iter().map(|&b| (a, b));
                    outs.chain(g.in_neighbors(a).iter().map(|&b| (b, a))).collect()
                },
                |a, b| g.has_edge(a, b),
            );
            di.apply_batch(&batch);
            let fresh = [
                build_labelling(&di.graph(), landmarks.clone()).unwrap(),
                build_labelling(&Reversed(&di.graph()), landmarks.clone()).unwrap(),
            ];
            check_published(&di, &fresh, &format!("directed batch {k}"))?;
            let (fwd, bwd) = (di.forward_labelling(), di.backward_labelling());
            for s in 0..fwd.num_vertices() as Vertex {
                for t in 0..fwd.num_vertices() as Vertex {
                    prop_assert_eq!(
                        di.upper_bound(s, t),
                        upper_bound_pair_exact(bwd, fwd, fwd, s, t),
                        "directed batch {k}: bound ({s}, {t})"
                    );
                }
            }
        }

        let weighted: Vec<(Vertex, Vertex, Weight)> = edges
            .iter()
            .enumerate()
            .map(|(k, &(a, b))| (a, b, TIER_WEIGHTS[k % TIER_WEIGHTS.len()]))
            .collect();
        let mut wi = WeightedBatchIndex::try_build(WeightedGraph::from_edges(N, &weighted), config)
            .expect("top-degree landmarks are valid");
        let landmarks = LandmarkSelection::Explicit(wi.labelling().landmarks().to_vec());
        for (k, steps) in history.iter().enumerate() {
            let g = wi.graph();
            let n = g.num_vertices();
            let mut batch = Vec::new();
            for &(op, a, (b, w)) in steps {
                let w = TIER_WEIGHTS[w];
                let in_range = (a as usize) < n && (b as usize) < n;
                match op {
                    0 | 1 if in_range && g.has_edge(a, b) => {
                        batch.push(WeightedUpdate::SetWeight(a, b, w))
                    }
                    0 | 1 => batch.push(WeightedUpdate::Insert(a, b, w)),
                    2 if in_range && g.has_edge(a, b) => batch.push(WeightedUpdate::Delete(a, b)),
                    _ if (a as usize) < n => {
                        let edges = g.neighbors(a);
                        let take = if op == 2 { edges.len().min(1) } else { edges.len() };
                        for &(x, _) in &edges[..take] {
                            batch.push(WeightedUpdate::Delete(a, x));
                        }
                    }
                    _ => {}
                }
            }
            wi.apply_batch(&batch);
            let fresh_config = IndexConfig {
                selection: landmarks.clone(),
                ..IndexConfig::default()
            };
            let fresh = WeightedBatchIndex::try_build(wi.graph(), fresh_config)
                .expect("the same landmarks stay valid");
            check_published(&wi, &[fresh.labelling().clone()], &format!("weighted batch {k}"))?;
        }
    }

    // Undirected family: the packed rows hold exactly the entries of the
    // brute-force minimal labelling, and every packed bound path (public
    // `upper_bound`, reusable `SourcePlan`) equals the exact double loop
    // (the dense `|R| × |R|` evaluation of Eq. 3).
    #[test]
    fn packed_bounds_match_dense_undirected(
        edges in edges_strategy(),
        pairs in pairs_strategy(),
    ) {
        let g = DynamicGraph::from_edges(N, &edges);
        let lab = build_labelling(&g, LandmarkSelection::TopDegree(5).select(&g)).unwrap();
        let want = minimal_labelling_bruteforce(&g, lab.landmarks().to_vec());
        let packed = lab.packed();
        for i in 0..lab.num_landmarks() {
            for v in 0..N as Vertex {
                let dense = want.label(i, v);
                let row = packed.labels.row(v);
                let found = (0..row.len())
                    .map(|k| row.entry(k))
                    .find(|&(id, _)| id as usize == i);
                match found {
                    Some((_, d)) => prop_assert_eq!(d, dense, "entry ({}, {})", i, v),
                    None => prop_assert_eq!(dense, INF, "missing entry ({}, {})", i, v),
                }
            }
            for j in 0..lab.num_landmarks() {
                prop_assert_eq!(packed.highway.get(i, j), want.highway(i, j));
            }
        }
        for &(s, t) in &pairs {
            let dense = upper_bound_pair_exact(&lab, &lab, &lab, s, t);
            prop_assert_eq!(lab.upper_bound(s, t), dense, "upper_bound({}, {})", s, t);
            let plan = SourcePlan::new(&lab, &lab, s);
            prop_assert_eq!(plan.bound_to(&lab, t), dense, "plan bound ({}, {})", s, t);
        }
    }

    // Directed family: the forward/backward packed bound equals the
    // exact Eq. 3 loop over the accessors of both labellings.
    #[test]
    fn packed_bounds_match_dense_directed(
        arcs in edges_strategy(),
        pairs in pairs_strategy(),
    ) {
        let g = DynamicDiGraph::from_edges(N, &arcs);
        let idx = DirectedBatchIndex::build(g, IndexConfig {
            selection: LandmarkSelection::TopDegree(5),
            algorithm: Algorithm::BhlPlus,
            threads: 1,
            ..IndexConfig::default()
        });
        let (fwd, bwd) = (idx.forward_labelling(), idx.backward_labelling());
        for &(s, t) in &pairs {
            prop_assert_eq!(
                idx.upper_bound(s, t),
                upper_bound_pair_exact(bwd, fwd, fwd, s, t),
                "directed bound ({}, {})", s, t
            );
        }
    }

    // Weighted family: large weights drive label rows into the u16/u32
    // tiers; packed and exact bounds must still agree.
    #[test]
    fn packed_bounds_match_dense_weighted(
        edges in prop::collection::vec(
            (0..N as Vertex, 0..N as Vertex, 1..70_000u32), 0..60),
        pairs in pairs_strategy(),
    ) {
        let g = WeightedGraph::from_edges(N, &edges);
        let idx = WeightedBatchIndex::build(g, 5);
        let lab = idx.labelling();
        for &(s, t) in &pairs {
            prop_assert_eq!(lab.upper_bound(s, t), upper_bound_pair_exact(lab, lab, lab, s, t));
        }
    }

    // Tier boundaries: hand-built labellings whose entries sit exactly
    // on the u8/u16/u32/escape edges (plus unreachable landmarks) keep
    // packed == exact and survive a packed-snapshot round trip.
    #[test]
    fn tier_edges_and_unreachables_stay_exact(
        cells in prop::collection::vec(
            (0..3usize, 0..8 as Vertex, 0..TIER_EDGE_DISTS.len()), 1..20),
        hw_cells in prop::collection::vec(
            (0..3usize, 0..3usize, 0..TIER_EDGE_DISTS.len()), 0..6),
        pairs in prop::collection::vec((0..8 as Vertex, 0..8 as Vertex), 1..12),
    ) {
        let mut lab = Labelling::empty(8, vec![0, 3, 6]).unwrap();
        for &(i, v, d) in &cells {
            lab.set_label(i, v, TIER_EDGE_DISTS[d]);
        }
        for &(i, j, d) in &hw_cells {
            if i != j {
                lab.set_highway_sym(i, j, TIER_EDGE_DISTS[d]);
            }
        }
        for &(s, t) in &pairs {
            let exact = upper_bound_pair_exact(&lab, &lab, &lab, s, t);
            prop_assert_eq!(lab.upper_bound(s, t), exact);
            let plan = SourcePlan::new(&lab, &lab, s);
            prop_assert_eq!(plan.bound_to(&lab, t), exact);
        }
        let mut buf = Vec::new();
        write_labelling(&lab, &mut buf).unwrap();
        prop_assert_eq!(&read_labelling(buf.as_slice()).unwrap(), &lab);
    }
}
