//! The measured loops: the untraced end-to-end run and the traced
//! per-layer run, plus the correctness gate both end with.

use crate::endpoint::Endpoint;
use crate::inputs::{BatchShape, Graph, Inputs};
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};
use crate::twin::Twin;
use batchhl::common::rng::SplitMix64;
use batchhl::{validate_batch, BackendFamily, Dist, Edit, Oracle, Vertex, WalWriter, INF};
use std::path::Path;
use std::time::{Duration, Instant};

/// One step of a round. Every step is one closed-loop request except
/// `Commit`, which is a commit followed at once by one point query
/// (the first query after the commit returns).
#[derive(Debug, Clone, Copy)]
pub enum Step {
    Queries(usize),
    Fanout,
    Commit,
}

pub struct Workload {
    pub name: &'static str,
    pub family: BackendFamily,
    pub wire: bool,
    pub shape: BatchShape,
    pub round: &'static [Step],
    /// Worker threads for construction and repair.
    pub threads: usize,
    /// Generous upper bound on rounds per second; sizes the batch pool.
    pub max_rounds_per_sec: usize,
}

pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "directed_wire",
        family: BackendFamily::Directed,
        wire: true,
        shape: BatchShape::Churn { removals: 200 },
        round: &[
            Step::Queries(50),
            Step::Fanout,
            Step::Queries(50),
            Step::Fanout,
            Step::Commit,
        ],
        threads: 2,
        max_rounds_per_sec: 50,
    },
    Workload {
        name: "road_churn",
        family: BackendFamily::Weighted,
        wire: false,
        shape: BatchShape::Traffic {
            size: 100,
            closes: 5,
        },
        round: &[Step::Commit, Step::Queries(10), Step::Fanout, Step::Fanout],
        threads: 2,
        max_rounds_per_sec: 200,
    },
];

/// Where the loop is in the input pools.
#[derive(Debug, Default)]
pub struct Cursor {
    pub batches: usize,
    pair: usize,
    fanout: usize,
}

impl Cursor {
    fn pair(&mut self, inputs: &Inputs) -> (Vertex, Vertex) {
        let p = inputs.pairs[self.pair % inputs.pairs.len()];
        self.pair += 1;
        p
    }

    fn fanout<'a>(&mut self, inputs: &'a Inputs) -> &'a (Vertex, Vec<Vertex>) {
        let f = &inputs.fanouts[self.fanout % inputs.fanouts.len()];
        self.fanout += 1;
        f
    }
}

/// End-to-end samples as the client sees them.
#[derive(Debug, Default)]
pub struct E2e {
    pub query: Samples,
    pub fanout: Samples,
    pub commit: Samples,
    pub first_query: Samples,
    pub applied: usize,
    pub commit_secs: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Commits whose applied-edit count differs from the batch size
    /// (every generated edit changes the graph).
    pub misapplied: usize,
}

impl E2e {
    fn record<T>(
        &mut self,
        which: fn(&mut E2e) -> &mut Samples,
        d: Duration,
        r: &Result<T, String>,
    ) {
        self.tally(r);
        match r {
            Ok(_) => which(self).push(d),
            Err(_) => which(self).push_failed(),
        }
    }

    /// Count an operation as attempted, and as failed if it failed.
    fn tally<T>(&mut self, r: &Result<T, String>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            eprintln!("failed operation: {e}");
        }
    }

    fn record_commit(&mut self, d: Duration, r: &Result<usize, String>, size: usize) {
        self.record(|e| &mut e.commit, d, r);
        if let Ok(applied) = r {
            self.applied += applied;
            self.commit_secs += d.as_secs_f64();
            if *applied != size {
                self.misapplied += 1;
            }
        }
    }
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// One request to `ep`, timed. With the traced run's tracer it opens a
/// request root `name` for the replay passes' spans and, when `traced`,
/// the call itself is the root's child span `span`.
fn request<R>(
    ep: &mut Endpoint,
    tracer: Option<&mut Tracer>,
    traced: bool,
    (name, span): (&'static str, &'static str),
    f: impl FnOnce(&mut Endpoint) -> Result<R, String>,
) -> (SpanId, Result<R, String>, Duration) {
    let Some(tracer) = tracer else {
        let (r, d) = timed(|| f(ep));
        return (0, r, d);
    };
    let (_, root) = tracer.request(name);
    let (r, d) = if traced {
        tracer.time(span, root, || f(ep))
    } else {
        timed(|| f(ep))
    };
    (root, r, d)
}

/// One round against `ep`, its samples recorded in `e2e`: the only
/// round loop, for the end-to-end run (no tracer) and for both kinds of
/// rounds of the traced run. Returns what the traced run's replay
/// passes need; a traced round keeps its first fan-out's answer for
/// replay (the per-pair replay can cost 20x the fan-out itself).
pub fn run_round<'a>(
    ep: &mut Endpoint,
    wl: &Workload,
    inputs: &'a Inputs,
    cur: &mut Cursor,
    e2e: &mut E2e,
    mut tracer: Option<&mut Tracer>,
    traced: bool,
) -> Vec<Done<'a>> {
    let mut done = Vec::with_capacity(wl.round.len());
    let mut replay_fanout = traced;
    for step in wl.round {
        done.push(match *step {
            Step::Queries(k) => {
                let mut answered = Vec::with_capacity(k);
                for _ in 0..k {
                    let (s, t) = cur.pair(inputs);
                    let (root, r, d) = request(
                        ep,
                        tracer.as_deref_mut(),
                        traced,
                        ("query", "e2e.query"),
                        |m| m.query(s, t),
                    );
                    e2e.record(|e| &mut e.query, d, &r);
                    if let Ok(answer) = r {
                        answered.push(Answered {
                            root,
                            s,
                            t,
                            answer,
                            d,
                        });
                    }
                }
                Done::Queries(answered)
            }
            Step::Fanout => {
                let (s, targets) = cur.fanout(inputs);
                let (root, r, d) = request(
                    ep,
                    tracer.as_deref_mut(),
                    traced,
                    ("fanout", "e2e.fanout"),
                    |m| m.fanout(*s, targets),
                );
                e2e.record(|e| &mut e.fanout, d, &r);
                let replay = std::mem::take(&mut replay_fanout);
                Done::Fanout {
                    root,
                    s: *s,
                    targets,
                    answer: r.ok().filter(|_| replay),
                    d,
                }
            }
            Step::Commit => {
                let edits = inputs.batches[cur.batches].as_slice();
                cur.batches += 1;
                let (root, r, d) = request(
                    ep,
                    tracer.as_deref_mut(),
                    traced,
                    ("commit", "e2e.commit"),
                    |m| m.commit(edits),
                );
                e2e.record_commit(d, &r, edits.len());
                let (s, t) = cur.pair(inputs);
                let (first_root, q, d_first) = request(
                    ep,
                    tracer.as_deref_mut(),
                    traced,
                    ("first_query", "e2e.first_query"),
                    |m| m.query(s, t),
                );
                e2e.record(|e| &mut e.first_query, d_first, &q);
                let first = q.ok().map(|answer| Answered {
                    root: first_root,
                    s,
                    t,
                    answer,
                    d: d_first,
                });
                Done::Commit {
                    root,
                    edits,
                    d: r.is_ok().then_some(d),
                    first,
                }
            }
        });
    }
    done
}

/// Rounds until `seconds` have passed (or the batch pool runs dry).
/// Also returns the peak resident memory (VmHWM, MiB) once
/// `peak_after` commits are done, or at the end of a shorter run.
pub fn run_untraced(
    ep: &mut Endpoint,
    wl: &Workload,
    inputs: &Inputs,
    seconds: f64,
    peak_after: usize,
) -> (E2e, Cursor, f64) {
    let mut e2e = E2e::default();
    let mut cur = Cursor::default();
    let mut peak = None;
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds && cur.batches < inputs.batches.len() {
        run_round(ep, wl, inputs, &mut cur, &mut e2e, None, false);
        if peak.is_none() && cur.batches >= peak_after {
            peak = Some(crate::status_mb("VmHWM"));
        }
    }
    let peak = peak.unwrap_or_else(|| crate::status_mb("VmHWM"));
    (e2e, cur, peak)
}

/// Untimed warm-up: seals the packed mirrors and fills caches.
pub fn warm_up(ep: &mut Endpoint, inputs: &Inputs) -> Result<(), String> {
    let n = inputs.pairs.len();
    for &(s, t) in &inputs.pairs[n - 200..] {
        ep.query(s, t)?;
    }
    let (s, targets) = &inputs.fanouts[inputs.fanouts.len() - 1];
    ep.fanout(*s, targets)?;
    Ok(())
}

/// Layer samples replayed from untraced rounds: the same inputs the
/// untraced end-to-end medians cover, which the budgets compare them to.
#[derive(Debug, Default)]
pub struct SameInputs {
    pub admission: Samples,
    pub wal_append: Samples,
    pub apply: Samples,
    pub repack: Samples,
    pub bound: Samples,
    pub search: Samples,
    pub first_bound: Samples,
    pub first_search: Samples,
}

/// Per-layer samples of the traced run.
#[derive(Debug, Default)]
pub struct Layers {
    pub bound: Samples,
    pub search: Samples,
    /// Replayed searching queries, and those whose answer equalled the
    /// label bound (the search found nothing shorter).
    pub searched: usize,
    pub tight: usize,
    pub repack: Samples,
    pub repacks_built: usize,
    pub sweep: Samples,
    pub pairs: Samples,
    pub admission: Samples,
    pub wal_append: Samples,
    pub wal_sync: Samples,
    pub apply: Samples,
    pub commit_rest: Samples,
    pub affected: usize,
    pub affected_edits: usize,
    pub skew: Vec<f64>,
    pub query_overhead: Samples,
    pub fanout_overhead: Samples,
    pub commit_overhead: Samples,
    pub wire_query: Samples,
    pub checkpoint: Samples,
    pub same_inputs: SameInputs,
    /// Answers on which the oracle, the other endpoint and the twin's
    /// layer replay disagree.
    pub mismatches: usize,
}

fn as_dist(d: Option<Dist>) -> Dist {
    d.unwrap_or(INF)
}

/// A query `main` answered in a round of the traced run.
pub struct Answered {
    root: SpanId,
    s: Vertex,
    t: Vertex,
    answer: Option<Dist>,
    d: Duration,
}

/// One step of a round of the traced run as `main` ran it, for the
/// replay passes.
pub enum Done<'a> {
    Queries(Vec<Answered>),
    /// `answer` is `None` when the fan-out failed or is not replayed.
    Fanout {
        root: SpanId,
        s: Vertex,
        targets: &'a [Vertex],
        answer: Option<Vec<Option<Dist>>>,
        d: Duration,
    },
    /// `d` is `None` when the commit failed.
    Commit {
        root: SpanId,
        edits: &'a [Edit],
        d: Option<Duration>,
        first: Option<Answered>,
    },
}

/// The traced run's three copies of one index, all fed the same
/// batches: `main` is the workload's own endpoint, `other` the opposite
/// path (wire when `main` is in-process and vice versa), `twin` the
/// per-family index whose layers are called one by one.
pub struct Traced<'a> {
    pub wl: &'a Workload,
    pub inputs: &'a Inputs,
    pub main: Endpoint,
    pub other: Endpoint,
    pub twin: Twin,
    pub wal: WalWriter,
    pub wal_synced: WalWriter,
    pub tracer: Tracer,
    pub layers: Layers,
    /// `main`'s samples in untraced and in traced rounds.
    pub untraced: E2e,
    pub traced: E2e,
    pub other_e2e: E2e,
    pub cur: Cursor,
}

impl<'a> Traced<'a> {
    /// Wire time minus in-process time of the same request.
    fn overhead(&self, main: Duration, other: Duration) -> f64 {
        let (wire, local) = if self.main.is_wire() {
            (main, other)
        } else {
            (other, main)
        };
        (wire.as_secs_f64() - local.as_secs_f64()) * 1e3
    }

    fn wire_side(&mut self, main: Duration, other: Duration) {
        let wire = if self.main.is_wire() { main } else { other };
        self.layers.wire_query.push(wire);
    }

    fn note_affected(&mut self, stats: &batchhl::UpdateStats) {
        self.layers.affected += stats.affected_total;
        self.layers.affected_edits += stats.applied;
        let per = &stats.affected_per_landmark;
        let mean = per.iter().sum::<usize>() as f64 / per.len().max(1) as f64;
        if mean > 0.0 {
            let max = per.iter().copied().max().unwrap_or(0) as f64;
            self.layers.skew.push(max / mean);
        }
    }

    /// One untraced round: `main` runs it untraced, the twin replays
    /// it (its samples also go to `layers.same_inputs`, the inputs the
    /// untraced medians cover), and `other` takes its commits.
    pub fn untraced_round(&mut self) {
        let inputs = self.inputs;
        for step in &self.main_pass(false) {
            self.twin_pass(step, false);
            if let Done::Commit { edits, .. } = step {
                let r = self.other.commit(edits);
                self.other_e2e.tally(&r);
                self.other_e2e.misapplied +=
                    usize::from(r.is_ok_and(|applied| applied != edits.len()));
                // Warm `other`'s next generation before its next query.
                let (s, t) = inputs.pairs[self.cur.batches % inputs.pairs.len()];
                let r = self.other.query(s, t);
                self.other_e2e.tally(&r);
            }
        }
    }

    /// One traced round: `main` runs it with each request timed as an
    /// `e2e.*` span, then the twin replays it layer by layer, then
    /// `other` repeats it. Each pass keeps the round's order, so every
    /// copy answers each query on the same generation, and meets its
    /// requests as one block with similarly warm caches.
    pub fn traced_round(&mut self) {
        let done = self.main_pass(true);
        for step in &done {
            self.twin_pass(step, true);
        }
        for step in &done {
            self.other_pass(step);
        }
    }

    /// `main`'s pass over one round.
    fn main_pass(&mut self, traced: bool) -> Vec<Done<'a>> {
        let e2e = if traced {
            &mut self.traced
        } else {
            &mut self.untraced
        };
        run_round(
            &mut self.main,
            self.wl,
            self.inputs,
            &mut self.cur,
            e2e,
            Some(&mut self.tracer),
            traced,
        )
    }

    /// Replay one step of the round on the twin, layer by layer.
    fn twin_pass(&mut self, step: &Done, traced: bool) {
        match step {
            Done::Queries(answered) => {
                for a in answered {
                    self.replay_query(a, false, traced);
                }
            }
            Done::Fanout {
                root,
                s,
                targets,
                answer: Some(answer),
                ..
            } => {
                let twin = &mut self.twin;
                let (sweep, d_sweep) = self.tracer.time("graph.fanout_sweep", *root, || {
                    twin.fanout_sweep(*s, targets)
                });
                let (pairs, d_pairs) = self.tracer.time("graph.fanout_pairs", *root, || {
                    twin.fanout_pairs(*s, targets)
                });
                if let (Some(sweep), Some(pairs)) = (sweep, pairs) {
                    self.layers.sweep.push(d_sweep);
                    self.layers.pairs.push(d_pairs);
                    let agree = sweep
                        .iter()
                        .zip(answer)
                        .all(|(a, b)| a.is_none_or(|a| a == as_dist(*b)));
                    if sweep != pairs || !agree {
                        self.layers.mismatches += 1;
                    }
                }
            }
            Done::Fanout { .. } => {}
            Done::Commit {
                root,
                edits,
                d,
                first,
            } => {
                let first_root = first.as_ref().map_or(*root, |a| a.root);
                self.replay_commit((*root, first_root), edits, d.filter(|_| traced), traced);
                if let Some(first) = first {
                    self.replay_query(first, true, traced);
                }
            }
        }
    }

    /// The commit's layers on the twin, in the order the facade runs
    /// them (admission, write-ahead, apply), then the packed-mirror
    /// rebuild the first query after it pays (a child of `first_root`).
    /// `e2e` is `main`'s time for the same commit in a traced round.
    /// Batches of untraced rounds also feed `layers.same_inputs`.
    fn replay_commit(
        &mut self,
        (root, first_root): (SpanId, SpanId),
        edits: &[Edit],
        e2e: Option<Duration>,
        traced: bool,
    ) {
        let family = self.wl.family;
        let n = self.inputs.graph.num_vertices();
        let (ok, d_adm) = self
            .tracer
            .time("core.admission", root, || validate_batch(family, n, edits));
        if let Err(e) = ok {
            eprintln!("admission refused a generated batch: {e}");
            self.layers.mismatches += 1;
        }
        let seq = self.cur.batches as u64;
        let wal = &mut self.wal;
        let (w, d_wal) = self.tracer.time("core.wal_append", root, || {
            wal.append_txn(seq, edits, None, false)
        });
        let wal_synced = &mut self.wal_synced;
        let (ws, d_sync) = self.tracer.time("core.wal_sync", root, || {
            wal_synced.append_txn(seq, edits, None, true)
        });
        if let Err(e) = w.and(ws) {
            eprintln!("wal append failed: {e}");
            self.layers.mismatches += 1;
        }
        let twin = &mut self.twin;
        let (stats, d_apply) = self.tracer.time("core.apply", root, || twin.apply(edits));
        self.note_affected(&stats);
        let twin = &self.twin;
        let (built, d_repack) = self.tracer.time("hcl.repack", first_root, || twin.repack());
        let l = &mut self.layers;
        l.admission.push(d_adm);
        l.wal_append.push(d_wal);
        l.wal_sync.push(d_sync);
        l.apply.push(d_apply);
        l.repack.push(d_repack);
        l.repacks_built += usize::from(built);
        if let Some(e2e) = e2e {
            let rest = e2e.as_secs_f64() - (d_adm + d_wal + d_apply).as_secs_f64();
            l.commit_rest.push_ms(rest * 1e3);
        }
        if !traced {
            let same = &mut l.same_inputs;
            same.admission.push(d_adm);
            same.wal_append.push(d_wal);
            same.apply.push(d_apply);
            same.repack.push(d_repack);
        }
    }

    /// Label bound then bounded search on the twin for one answered
    /// query. The first query after a commit is kept apart from the
    /// steady-state samples.
    fn replay_query(&mut self, a: &Answered, first: bool, traced: bool) {
        if !self.twin.searches(a.s, a.t) {
            return;
        }
        let twin = &mut self.twin;
        let (bound, d_bound) = self
            .tracer
            .time("hcl.bound", a.root, || twin.bound(a.s, a.t));
        let (dist, d_search) = self
            .tracer
            .time("graph.search", a.root, || twin.search(a.s, a.t, bound));
        let l = &mut self.layers;
        if dist != as_dist(a.answer) {
            l.mismatches += 1;
        }
        if first {
            if !traced {
                l.same_inputs.first_bound.push(d_bound);
                l.same_inputs.first_search.push(d_search);
            }
            return;
        }
        l.bound.push(d_bound);
        l.search.push(d_search);
        l.searched += 1;
        l.tight += usize::from(dist == bound);
        if !traced {
            l.same_inputs.bound.push(d_bound);
            l.same_inputs.search.push(d_search);
        }
    }

    /// Repeat one step of the round on `other`: up to ~100 queries of a
    /// block, the replayed fan-out, and every commit (which keeps
    /// `other` on `main`'s generation).
    fn other_pass(&mut self, step: &Done) {
        match step {
            Done::Queries(answered) => {
                let stride = answered.len().div_ceil(100).max(1);
                for a in answered.iter().step_by(stride) {
                    let other = &mut self.other;
                    let (r, d) = self
                        .tracer
                        .time("other.query", a.root, || other.query(a.s, a.t));
                    self.other_e2e.record(|e| &mut e.query, d, &r);
                    if let Ok(b) = r {
                        self.layers.mismatches += usize::from(a.answer != b);
                        let over = self.overhead(a.d, d);
                        self.layers.query_overhead.push_ms(over);
                        self.wire_side(a.d, d);
                    }
                }
            }
            Done::Fanout {
                root,
                s,
                targets,
                answer: Some(answer),
                d,
            } => {
                let other = &mut self.other;
                let (r, d_other) = self
                    .tracer
                    .time("other.fanout", *root, || other.fanout(*s, targets));
                self.other_e2e.record(|e| &mut e.fanout, d_other, &r);
                if let Ok(b) = r {
                    self.layers.mismatches += usize::from(*answer != b);
                    let over = self.overhead(*d, d_other);
                    self.layers.fanout_overhead.push_ms(over);
                }
            }
            Done::Fanout { .. } => {}
            Done::Commit {
                root,
                edits,
                d,
                first,
            } => {
                let other = &mut self.other;
                let (r, d_other) = self
                    .tracer
                    .time("other.commit", *root, || other.commit(edits));
                self.other_e2e.record_commit(d_other, &r, edits.len());
                if let (Some(d), true) = (d, r.is_ok()) {
                    let over = self.overhead(*d, d_other);
                    self.layers.commit_overhead.push_ms(over);
                }
                if let Some(a) = first {
                    let other = &mut self.other;
                    let (q, d) = self
                        .tracer
                        .time("other.first_query", a.root, || other.query(a.s, a.t));
                    self.other_e2e.record(|e| &mut e.first_query, d, &q);
                    if let Ok(b) = q {
                        self.layers.mismatches += usize::from(a.answer != b);
                    }
                }
            }
        }
    }

    /// Time `save` of the in-process copy into fresh directories (the
    /// checkpoint layer).
    pub fn checkpoints(&mut self, dir: &Path, times: usize) -> Result<(), String> {
        let local = if self.main.is_wire() {
            &mut self.other
        } else {
            &mut self.main
        };
        let oracle = local.oracle().ok_or("no in-process oracle")?;
        for i in 0..times {
            let d = dir.join(format!("checkpoint-{i}"));
            let (r, dt) = timed(|| oracle.save(&d));
            r.map_err(|e| format!("save: {e}"))?;
            self.layers.checkpoint.push(dt);
            let _ = std::fs::remove_dir_all(&d);
        }
        Ok(())
    }

    /// Alternate untraced and traced rounds until `seconds` pass.
    pub fn run(&mut self, seconds: f64) {
        let start = Instant::now();
        let mut traced = false;
        while start.elapsed().as_secs_f64() < seconds
            && self.cur.batches < self.inputs.batches.len()
        {
            if traced {
                self.traced_round();
            } else {
                self.untraced_round();
            }
            traced = !traced;
        }
    }
}

/// The untimed correctness gate after the last commit: a seeded sample
/// of point and fan-out answers against BFS/Dijkstra on the shadow
/// graph, wire answers against an in-process copy of the same state,
/// and, when `audit`, one `verify_integrity`. Returns the failures found
/// and the label bytes of the final state.
pub fn gate(
    ep: &mut Endpoint,
    family: BackendFamily,
    inputs: &Inputs,
    rounds: usize,
    dir: &Path,
    seed: u64,
    audit: bool,
) -> (Vec<String>, usize) {
    const SOURCES: usize = 8;
    let mut errors = Vec::new();
    let shadow: Graph = inputs.graph_after(rounds);
    let copy_start = Instant::now();
    let n = shadow.num_vertices();
    let mut rng = SplitMix64::new(seed ^ 0x6a7e);
    let mut copy = if ep.is_wire() {
        match Oracle::open_detached(dir) {
            Ok(o) => Some(o),
            Err(e) => {
                errors.push(format!("open_detached: {e}"));
                None
            }
        }
    } else {
        None
    };
    if ep.is_wire() {
        note!(
            "in-process copy opened in {:.2} s",
            copy_start.elapsed().as_secs_f64()
        );
    }
    for _ in 0..SOURCES {
        let s = rng.below(n as u64) as Vertex;
        let targets: Vec<Vertex> = (0..crate::inputs::FANOUT_TARGETS)
            .map(|_| rng.below(n as u64) as Vertex)
            .collect();
        let truth = shadow.truth_from(s);
        let want: Vec<Option<Dist>> = targets
            .iter()
            .map(|&t| (truth[t as usize] != INF).then_some(truth[t as usize]))
            .collect();
        match ep.fanout(s, &targets) {
            Ok(got) if got == want => {}
            Ok(_) => errors.push(format!("distances_from({s}) differs from the truth")),
            Err(e) => errors.push(e),
        }
        for (&t, &w) in targets.iter().zip(&want) {
            match ep.query(s, t) {
                Ok(got) if got == w => {}
                Ok(got) => errors.push(format!("query({s},{t}) = {got:?}, truth {w:?}")),
                Err(e) => errors.push(e),
            }
            if let Some(copy) = copy.as_mut() {
                let local = copy.query(s, t);
                if local != w {
                    errors.push(format!(
                        "in-process query({s},{t}) = {local:?}, truth {w:?}"
                    ));
                }
            }
        }
    }
    // The in-process oracle holding the final state: the endpoint's own,
    // or the copy of a served one (the wire client gives up after 10 s,
    // well short of the audit at this size).
    let local = match (ep.oracle(), copy.as_mut()) {
        (Some(o), _) => o,
        (None, Some(c)) => c,
        (None, None) => return (errors, 0),
    };
    // The weighted family's audit is Dijkstra truth for every vertex
    // from 8 sources — 8n point queries, minutes on the road grid and
    // past the run's time limit. It has no minimality part; the sampled
    // Dijkstra truth above covers the same query surface.
    if audit && family != BackendFamily::Weighted {
        let t = Instant::now();
        if let Err(e) = local.verify_integrity() {
            errors.push(format!("verify_integrity: {e}"));
        }
        note!("verify_integrity took {:.2} s", t.elapsed().as_secs_f64());
    }
    let label_bytes = local.label_size_bytes();
    (errors, label_bytes)
}

/// The other endpoint of a traced run: an in-process copy of `dir`'s
/// state for a wire workload, a served copy for an in-process one.
pub fn other_endpoint(main_is_wire: bool, dir: &Path) -> Result<Endpoint, String> {
    let copy = Oracle::open_detached(dir).map_err(|e| format!("open_detached: {e}"))?;
    if main_is_wire {
        Ok(Endpoint::in_proc(copy))
    } else {
        Endpoint::serve(copy)
    }
}
