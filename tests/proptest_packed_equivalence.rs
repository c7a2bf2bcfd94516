//! Property-based equivalence of the packed query layout + SIMD
//! kernels against the dense canonical representation.
//!
//! The packed vertex-major mirror (`batchhl::hcl::packed`) and the
//! min-plus kernels (`batchhl::hcl::kernel`) are pure accelerations:
//! every bound they produce must equal what the dense landmark-major
//! rows produce entry for entry — including at the width-tier
//! boundaries (254/255, 65534/65535, the `CLAMP_INF` escape) and for
//! unreachable pairs — and the runtime-dispatched SIMD kernels must be
//! bit-identical to the branch-free scalar fallback on arbitrary plans.
//!
//! Published generations arrive with their mirror already sealed by the
//! writer (patched from the previous generation's mirror): after every
//! batch of a random history, on every family, it must be row for row
//! what a fresh pack of the same labelling gives.

use batchhl::core::directed::DirectedBatchIndex;
use batchhl::core::index::{Algorithm, BatchIndex, CompactionPolicy, IndexConfig};
use batchhl::core::weighted::WeightedBatchIndex;
use batchhl::core::{Family, Index};
use batchhl::graph::weighted::{Weight, WeightedGraph, WeightedUpdate};
use batchhl::graph::{Batch, DynamicDiGraph, DynamicGraph, Vertex};
use batchhl::hcl::kernel::{
    accumulate_via, accumulate_via_scalar, gather_min, gather_min_scalar, CLAMP_INF, CLAMP_SAFE_MAX,
};
use batchhl::hcl::labelling::Labelling;
use batchhl::hcl::packed::{NarrowSlice, PackedIndex};
use batchhl::hcl::serde_io::{read_labelling, write_labelling};
use batchhl::hcl::{build_labelling, LandmarkSelection, SourcePlan};
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
    CLAMP_SAFE_MAX + 1, // exact-escape tier: outside the SIMD clamp domain
    CLAMP_INF + 17,
    INF - 1,
];

/// Eq. 3 computed straight off the dense accessors — the reference the
/// packed paths must reproduce.
fn dense_pair_bound(
    bwd: &Labelling,
    hw: &Labelling,
    fwd: &Labelling,
    s: Vertex,
    t: Vertex,
) -> Dist {
    let r = hw.num_landmarks();
    let mut best = u64::from(INF);
    for i in 0..r {
        let ls = bwd.label(i, s);
        if ls == INF {
            continue;
        }
        for j in 0..r {
            let (h, lt) = (hw.highway(i, j), fwd.label(j, t));
            if h == INF || lt == INF {
                continue;
            }
            best = best.min(u64::from(ls) + u64::from(h) + u64::from(lt));
        }
    }
    best.min(u64::from(INF)) as Dist
}

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

fn seal_published<F: Family>(idx: &Index<F>) {
    for lab in idx.published().value().labellings() {
        lab.packed();
    }
}

/// Row `v` of a mirror as `(tier, entries)`.
fn row_of(p: &PackedIndex, v: Vertex) -> (u8, Vec<(u16, Dist)>) {
    let row = p.labels.row(v);
    (
        p.labels.row_tier(v),
        (0..row.len()).map(|k| row.entry(k)).collect(),
    )
}

/// Every labelling of the published generation carries a sealed mirror
/// equal, row for row, to a fresh pack, and its Eq. 3 bounds equal the
/// dense double loop.
fn check_published_mirrors<F: Family>(idx: &Index<F>, ctx: &str) -> Result<(), String> {
    let snap = idx.published();
    for lab in snap.value().labellings() {
        prop_assert!(
            lab.packed_is_sealed(),
            "{ctx}: published mirror is not sealed"
        );
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
                prop_assert_eq!(
                    lab.upper_bound(s, t),
                    lab.upper_bound_dense(s, t),
                    "{ctx}: bound ({s}, {t})"
                );
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

    // Every published generation of a random batch history arrives with
    // a sealed, exact mirror: vertex growth, landmark-disconnecting
    // deletions, every algorithm's pass split, both repair paths, and
    // compactions of the packed overlay.
    #[test]
    fn published_mirrors_stay_sealed_and_exact(
        edges in edges_strategy(),
        history in history_strategy(),
        setup in (0..ALGORITHMS.len(), 1..3usize),
    ) {
        let (algorithm, threads) = setup;
        let config = history_config(algorithm, threads);

        let mut und = BatchIndex::build(DynamicGraph::from_edges(N, &edges), config.clone());
        seal_published(&und);
        for (k, steps) in history.iter().enumerate() {
            let g = und.graph();
            let batch = unweighted_batch(
                steps,
                g.num_vertices(),
                |a| g.neighbors(a).iter().map(|&b| (a, b)).collect(),
                |a, b| g.has_edge(a, b),
            );
            und.apply_batch(&batch);
            check_published_mirrors(&und, &format!("undirected batch {k}"))?;
        }

        let mut di = DirectedBatchIndex::build(DynamicDiGraph::from_edges(N, &edges), config.clone());
        seal_published(&di);
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
            check_published_mirrors(&di, &format!("directed batch {k}"))?;
            let (fwd, bwd) = (di.forward_labelling(), di.backward_labelling());
            for s in 0..fwd.num_vertices() as Vertex {
                for t in 0..fwd.num_vertices() as Vertex {
                    prop_assert_eq!(
                        di.upper_bound(s, t),
                        dense_pair_bound(bwd, fwd, fwd, s, t),
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
        seal_published(&wi);
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
            check_published_mirrors(&wi, &format!("weighted batch {k}"))?;
        }
    }

    // Undirected family: the packed mirror stores exactly the dense
    // entries, and every packed bound path (public `upper_bound`,
    // reusable `SourcePlan`) equals the dense double loop.
    #[test]
    fn packed_bounds_match_dense_undirected(
        edges in edges_strategy(),
        pairs in pairs_strategy(),
    ) {
        let g = DynamicGraph::from_edges(N, &edges);
        let lab = build_labelling(&g, LandmarkSelection::TopDegree(5).select(&g)).unwrap();
        let packed = lab.packed();
        for i in 0..lab.num_landmarks() {
            for v in 0..N as Vertex {
                let dense = lab.label(i, v);
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
                prop_assert_eq!(packed.highway.get(i, j), lab.highway(i, j));
            }
        }
        for &(s, t) in &pairs {
            let dense = lab.upper_bound_dense(s, t);
            prop_assert_eq!(lab.upper_bound(s, t), dense, "upper_bound({}, {})", s, t);
            let plan = SourcePlan::new(&lab, &lab, s);
            prop_assert_eq!(plan.bound_to(&lab, t), dense, "plan bound ({}, {})", s, t);
        }
    }

    // Directed family: the forward/backward packed bound equals Eq. 3
    // off the dense accessors of both labellings.
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
                dense_pair_bound(bwd, fwd, fwd, s, t),
                "directed bound ({}, {})", s, t
            );
        }
    }

    // Weighted family: large weights drive label rows into the u16/u32
    // tiers; packed and dense bounds must still agree exactly.
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
            prop_assert_eq!(lab.upper_bound(s, t), lab.upper_bound_dense(s, t));
        }
    }

    // Tier boundaries: hand-built labellings whose entries sit exactly
    // on the u8/u16/u32/escape edges (plus unreachable landmarks) keep
    // packed == dense and survive a packed-snapshot round trip.
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
            prop_assert_eq!(lab.upper_bound(s, t), lab.upper_bound_dense(s, t));
            let plan = SourcePlan::new(&lab, &lab, s);
            prop_assert_eq!(plan.bound_to(&lab, t), lab.upper_bound_dense(s, t));
        }
        let mut buf = Vec::new();
        write_labelling(&lab, &mut buf).unwrap();
        prop_assert_eq!(&read_labelling(buf.as_slice()).unwrap(), &lab);
    }

    // The dispatched kernels (AVX2/SSE2 where the CPU has them) are
    // bit-identical to the scalar fallback on arbitrary plans, at every
    // distance width.
    #[test]
    fn simd_kernels_match_scalar(
        via_seed in prop::collection::vec(0..CLAMP_INF + 1, 1..70),
        ls in 0..CLAMP_INF,
        row8_raw in prop::collection::vec(0u16..256, 1..70),
        row16_raw in prop::collection::vec(0u32..65_536, 1..70),
        row32_seed in prop::collection::vec(0..CLAMP_INF, 1..70),
    ) {
        // Each tier's unreachable sentinel lands in the ranges above
        // (u8::MAX / u16::MAX); plant the u32 sentinel explicitly. The
        // finite-u32 cap of CLAMP_INF is the kernels' documented
        // highway-row domain (the clamp_safe gates enforce it).
        let row8: Vec<u8> = row8_raw.iter().map(|&x| x as u8).collect();
        let row16: Vec<u16> = row16_raw.iter().map(|&x| x as u16).collect();
        let mut row32 = row32_seed;
        row32[0] = INF;
        // Gather inputs are label rows, which never hold a sentinel.
        let g32: Vec<u32> = row32.iter().map(|&x| if x == INF { 7 } else { x }).collect();
        let r = via_seed.len();
        let rows = [
            NarrowSlice::U8(&row8[..r.min(row8.len())]),
            NarrowSlice::U16(&row16[..r.min(row16.len())]),
            NarrowSlice::U32(&row32[..r.min(row32.len())]),
        ];
        for hrow in rows {
            let k = hrow.len();
            let mut simd = via_seed[..k].to_vec();
            let mut scalar = simd.clone();
            accumulate_via(&mut simd, ls, hrow);
            accumulate_via_scalar(&mut scalar, ls, hrow);
            prop_assert_eq!(&simd, &scalar, "accumulate width {}", hrow.len());

            // Gather over every index of the plan, then over a sparse
            // stride-3 subset (exercises the tail paths). Label rows
            // carry no sentinel, so gather dists use the raw values.
            let ids: Vec<u16> = (0..k as u16).collect();
            let gdists = match hrow {
                NarrowSlice::U32(_) => NarrowSlice::U32(&g32[..k]),
                other => other,
            };
            prop_assert_eq!(
                gather_min(&scalar, &ids, gdists),
                gather_min_scalar(&scalar, &ids, gdists)
            );
            let sparse: Vec<u16> = (0..k as u16).step_by(3).collect();
            let sub16: Vec<u16> =
                sparse.iter().map(|&i| row16[i as usize % row16.len()]).collect();
            prop_assert_eq!(
                gather_min(&scalar, &sparse, NarrowSlice::U16(&sub16)),
                gather_min_scalar(&scalar, &sparse, NarrowSlice::U16(&sub16))
            );
        }
    }
}
