//! Workload inputs: the initial graph, and from the seed a pool of edit
//! batches and pools of query pairs and fan-out requests. Everything
//! here is built before the clock starts; the same seed gives the same
//! inputs.

use batchhl::common::rng::SplitMix64;
use batchhl::graph::bfs::bfs_distances;
use batchhl::graph::generators::{barabasi_albert, grid, orient_randomly};
use batchhl::graph::weighted::{dijkstra, WeightedGraph};
use batchhl::graph::DynamicDiGraph;
use batchhl::{Dist, Edit, GraphSource, Vertex, Weight};
use std::collections::HashSet;

/// Targets per `distances_from` request.
pub const FANOUT_TARGETS: usize = 64;
/// Distinct query pairs and fan-out requests; the loop cycles through
/// them (queries are read-only, so reuse changes no state).
const PAIR_POOL: usize = 1 << 16;
const FANOUT_POOL: usize = 1 << 10;
/// Seed of every workload's (fixed) graph.
const GRAPH_SEED: u64 = 1;

/// The graph of one workload, in the family its oracle serves.
#[derive(Debug, Clone)]
pub enum Graph {
    Directed(DynamicDiGraph),
    Weighted(WeightedGraph),
}

impl Graph {
    pub fn num_vertices(&self) -> usize {
        match self {
            Graph::Directed(g) => g.num_vertices(),
            Graph::Weighted(g) => g.num_vertices(),
        }
    }

    pub fn source(&self) -> GraphSource {
        match self.clone() {
            Graph::Directed(g) => g.into(),
            Graph::Weighted(g) => g.into(),
        }
    }

    fn degree(&self, v: Vertex) -> usize {
        match self {
            Graph::Directed(g) => g.out_degree(v),
            Graph::Weighted(g) => g.degree(v),
        }
    }

    fn has_edge(&self, a: Vertex, b: Vertex) -> bool {
        match self {
            Graph::Directed(g) => g.has_edge(a, b),
            Graph::Weighted(g) => g.has_edge(a, b),
        }
    }

    /// A uniformly drawn vertex with an out-edge, then one of its
    /// out-edges.
    fn random_edge(&self, rng: &mut SplitMix64) -> (Vertex, Vertex) {
        let n = self.num_vertices() as u64;
        loop {
            let a = rng.below(n) as Vertex;
            let b = match self {
                Graph::Directed(g) => pick(g.out_neighbors(a), rng),
                Graph::Weighted(g) => pick(g.neighbors(a), rng).map(|(b, _)| b),
            };
            if let Some(b) = b {
                return (a, b);
            }
        }
    }

    /// Apply one (admissible) edit, as the oracle does.
    pub fn apply(&mut self, e: &Edit) {
        match (self, *e) {
            (Graph::Directed(g), Edit::Insert(a, b)) => {
                g.insert_edge(a, b);
            }
            (Graph::Directed(g), Edit::Remove(a, b)) => {
                g.remove_edge(a, b);
            }
            (Graph::Weighted(g), Edit::InsertWeighted(a, b, w)) => {
                g.insert_edge(a, b, w);
            }
            (Graph::Weighted(g), Edit::Remove(a, b)) => {
                g.remove_edge(a, b);
            }
            (Graph::Weighted(g), Edit::SetWeight(a, b, w)) => {
                g.set_weight(a, b, w);
            }
            (_, e) => panic!("the generators never emit {e:?} for this family"),
        }
    }

    /// Exact distances from `s` (BFS, or Dijkstra when weighted).
    pub fn truth_from(&self, s: Vertex) -> Vec<Dist> {
        match self {
            Graph::Directed(g) => bfs_distances(g, s),
            Graph::Weighted(g) => dijkstra(g, s),
        }
    }
}

fn pick<T: Copy>(xs: &[T], rng: &mut SplitMix64) -> Option<T> {
    (!xs.is_empty()).then(|| xs[rng.below(xs.len() as u64) as usize])
}

fn key(a: Vertex, b: Vertex) -> (Vertex, Vertex) {
    (a.min(b), a.max(b))
}

/// How a workload's batches are drawn.
#[derive(Debug, Clone, Copy)]
pub enum BatchShape {
    /// `removals` existing edges removed and as many fresh edges
    /// inserted.
    Churn { removals: usize },
    /// Road traffic: `closes` edges closed (and reopened with their old
    /// weight in the next batch), the rest of `size` edits re-weight
    /// existing edges to a new weight in `1..=100`.
    Traffic { size: usize, closes: usize },
}

/// Everything a run feeds the oracle.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub graph: Graph,
    pub batches: Vec<Vec<Edit>>,
    pub pairs: Vec<(Vertex, Vertex)>,
    pub fanouts: Vec<(Vertex, Vec<Vertex>)>,
}

/// The generator of each workload's graph. The graph is fixed — the
/// same dataset on every run — and the seed drives the traffic on it
/// (batches, query pairs, fan-outs). Per-seed graphs moved the label
/// size by up to ±30 % and the query medians with it.
pub fn make_graph(workload: &str) -> Graph {
    match workload {
        "directed_wire" => {
            let g = barabasi_albert(100_000, 8, GRAPH_SEED);
            Graph::Directed(orient_randomly(&g, 0.3, GRAPH_SEED))
        }
        "road_churn" => {
            let g = grid(200, 200);
            let mut rng = SplitMix64::new(GRAPH_SEED);
            let edges: Vec<(Vertex, Vertex, Weight)> = g
                .edges()
                .map(|(a, b)| (a, b, 1 + rng.below(100) as Weight))
                .collect();
            Graph::Weighted(WeightedGraph::from_edges(g.num_vertices(), &edges))
        }
        other => panic!("unknown workload {other}"),
    }
}

impl Inputs {
    pub fn generate(workload: &str, seed: u64, shape: BatchShape, max_batches: usize) -> Inputs {
        let graph = make_graph(workload);
        let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xba7c);
        let n = graph.num_vertices() as u64;
        let mut shadow = graph.clone();
        let mut reopen: Vec<(Vertex, Vertex, Weight)> = Vec::new();
        let batches = (0..max_batches)
            .map(|_| {
                let edits = match shape {
                    BatchShape::Churn { removals } => churn_batch(&shadow, removals, &mut rng),
                    BatchShape::Traffic { size, closes } => {
                        traffic_batch(&shadow, size, closes, &mut reopen, &mut rng)
                    }
                };
                for e in &edits {
                    shadow.apply(e);
                }
                edits
            })
            .collect();
        let mut vertex = || rng.below(n) as Vertex;
        let pairs = (0..PAIR_POOL)
            .map(|_| loop {
                let (s, t) = (vertex(), vertex());
                if s != t {
                    break (s, t);
                }
            })
            .collect();
        let fanouts = (0..FANOUT_POOL)
            .map(|_| (vertex(), (0..FANOUT_TARGETS).map(|_| vertex()).collect()))
            .collect();
        Inputs {
            graph,
            batches,
            pairs,
            fanouts,
        }
    }

    /// The graph after the first `rounds` batches.
    pub fn graph_after(&self, rounds: usize) -> Graph {
        let mut g = self.graph.clone();
        for e in self.batches[..rounds].iter().flatten() {
            g.apply(e);
        }
        g
    }
}

fn churn_batch(g: &Graph, removals: usize, rng: &mut SplitMix64) -> Vec<Edit> {
    let n = g.num_vertices() as u64;
    let mut used = HashSet::new();
    let mut edits = Vec::with_capacity(2 * removals);
    while edits.len() < removals {
        let (a, b) = g.random_edge(rng);
        if used.insert(key(a, b)) {
            edits.push(Edit::Remove(a, b));
        }
    }
    while edits.len() < 2 * removals {
        let (a, b) = (rng.below(n) as Vertex, rng.below(n) as Vertex);
        if a != b && !g.has_edge(a, b) && !g.has_edge(b, a) && used.insert(key(a, b)) {
            edits.push(Edit::Insert(a, b));
        }
    }
    edits
}

fn traffic_batch(
    g: &Graph,
    size: usize,
    closes: usize,
    reopen: &mut Vec<(Vertex, Vertex, Weight)>,
    rng: &mut SplitMix64,
) -> Vec<Edit> {
    let Graph::Weighted(wg) = g else {
        panic!("traffic batches need a weighted graph");
    };
    let mut used = HashSet::new();
    let mut edits: Vec<Edit> = reopen
        .drain(..)
        .map(|(a, b, w)| {
            used.insert(key(a, b));
            Edit::InsertWeighted(a, b, w)
        })
        .collect();
    // Close only edges whose endpoints keep two other edges, so the
    // grid never strands a vertex.
    let mut closed = 0;
    while closed < closes {
        let (a, b) = g.random_edge(rng);
        if g.degree(a) >= 3 && g.degree(b) >= 3 && used.insert(key(a, b)) {
            let w = wg.weight(a, b).expect("drawn from the edge list");
            reopen.push((a, b, w));
            edits.push(Edit::Remove(a, b));
            closed += 1;
        }
    }
    while edits.len() < size {
        let (a, b) = g.random_edge(rng);
        if !used.insert(key(a, b)) {
            continue;
        }
        let old = wg.weight(a, b).expect("drawn from the edge list");
        let w = loop {
            let w = 1 + rng.below(100) as Weight;
            if w != old {
                break w;
            }
        };
        edits.push(Edit::SetWeight(a, b, w));
    }
    edits
}
