//! Communication-network monitoring — the paper's router scenario:
//! links "become slow or broken due to congestion … or a deadly fault",
//! and operators need shortest-path distances maintained to preserve
//! quality of service.
//!
//! This demo runs the *planning* side of that scenario: each outage
//! wave is a **hypothetical** — a correlated burst of link faults the
//! operator wants priced *before* anything is committed. Every wave
//! goes through a speculative [`batchhl::WhatIfSession`]
//! (`reader.what_if(&edits)`): a private overlay + label patch over
//! the pinned generation answers all SLA probes and the NOC fan-out
//! under the failure, then evaporates. Zero commits happen — the
//! published generation's version is asserted unchanged at the end —
//! so any number of scenario sweeps could run concurrently against
//! one snapshot.
//!
//! For scale, one wave is also *actually committed* (and repaired) at
//! the end, and the relative costs are printed as a one-line JSON
//! report: session build + query time per wave vs the committed-batch
//! round-trip.
//!
//! ```sh
//! cargo run --release --example network_monitoring
//! ```

use batchhl::graph::generators::watts_strogatz;
use batchhl::graph::Vertex;
use batchhl::{Algorithm, Edit, LandmarkSelection, Oracle};
use rand::rngs::StdRng;
use rand::{seq::SliceRandom, Rng, SeedableRng};
use std::time::Instant;

const ROUTERS: usize = 5_000;
const SLA_HOPS: u32 = 9;
const WAVES: usize = 4;
const FAULTS_PER_WAVE: usize = 120;

fn main() {
    // Ring-lattice + shortcuts: a plausible backbone topology.
    let graph = watts_strogatz(ROUTERS, 3, 0.1, 4);
    let mut oracle = Oracle::builder()
        .algorithm(Algorithm::BhlPlus)
        .landmarks(LandmarkSelection::TopDegree(16))
        .build(graph)
        .expect("undirected source");
    let reader = oracle.reader();
    let v0 = reader.version();
    let mut rng = StdRng::seed_from_u64(2);
    let probes: Vec<(Vertex, Vertex)> = (0..8)
        .map(|i| {
            (
                i * 577 % ROUTERS as Vertex,
                (i * 911 + 2500) % ROUTERS as Vertex,
            )
        })
        .collect();
    // The operations centre and its points of presence.
    let noc: Vertex = 0;
    let pops: Vec<Vertex> = (0..64).map(|i| (i * 79 + 13) % ROUTERS as Vertex).collect();

    let mut wave_reports = Vec::new();
    let mut last_wave: Vec<Edit> = Vec::new();
    for wave in 1..=WAVES {
        // Hypothetical failure wave: a correlated burst of link faults,
        // sampled from the (unchanging) live adjacency.
        let mut failed: Vec<(Vertex, Vertex)> = Vec::new();
        while failed.len() < FAULTS_PER_WAVE {
            let v = rng.gen_range(0..ROUTERS as Vertex);
            if let Some(&w) = oracle.neighbors(v).choose(&mut rng) {
                if !failed.contains(&(v, w)) && !failed.contains(&(w, v)) {
                    failed.push((v, w));
                }
            }
        }
        let edits: Vec<Edit> = failed.iter().map(|&(a, b)| Edit::Remove(a, b)).collect();

        // Build the speculative session: overlay + label patch, no
        // commit, no WAL record, no generation bump.
        let t_build = Instant::now();
        let mut session = reader.what_if(&edits).expect("what_if");
        let build = t_build.elapsed();
        println!(
            "wave {wave}: {} hypothetical link faults, session built in {build:.1?}",
            edits.len()
        );

        // All SLA probes in one batched call, under the hypothetical.
        let t_query = Instant::now();
        let answers = session.query_many(&probes);
        let mut violations = 0;
        for (&(s, t), &d) in probes.iter().zip(&answers) {
            match d {
                Some(d) if d <= SLA_HOPS => {}
                Some(d) => {
                    violations += 1;
                    println!("  SLA violation: {s} -> {t} would become {d} hops");
                }
                None => {
                    violations += 1;
                    println!("  OUTAGE: {s} -> {t} would disconnect");
                }
            }
        }
        if violations == 0 {
            println!(
                "  all {} probes stay within {} hops",
                probes.len(),
                SLA_HOPS
            );
        }

        // NOC reachability fan-out under the same hypothetical.
        let reach = session.distances_from(noc, &pops);
        let query = t_query.elapsed();
        let reachable = reach.iter().flatten().count();
        let worst = reach.iter().flatten().max();
        println!(
            "  NOC fan-out: {reachable}/{} PoPs would stay reachable (worst {worst:?} hops), \
             priced in {query:.1?}",
            pops.len()
        );

        assert_eq!(
            session.version(),
            v0,
            "speculation pins the base generation"
        );
        wave_reports.push((wave, edits.len(), build, query, violations, reachable));
        last_wave = edits;
        // Dropping the session discards the hypothetical entirely.
    }

    // Nothing was committed: the published generation never moved.
    assert_eq!(reader.version(), v0, "zero commits across all waves");
    println!(
        "{WAVES} outage waves priced speculatively; oracle still at version {}",
        reader.version()
    );

    // Baseline: actually committing the final wave (then repairing it)
    // — the cost a what-if session avoids, plus the generation churn.
    let t_commit = Instant::now();
    let mut outage = oracle.update();
    for &e in &last_wave {
        outage = outage.push(e);
    }
    let stats = outage.commit().expect("structural edits");
    let committed = t_commit.elapsed();
    println!(
        "committed baseline: {} links down in {committed:.1?} ({} vertices touched)",
        stats.applied, stats.affected_total
    );
    let mut repair = oracle.update();
    for &e in &last_wave {
        if let Edit::Remove(a, b) = e {
            repair = repair.insert(a, b);
        }
    }
    repair.commit().expect("structural edits");

    // Machine-readable report: per-wave speculative cost vs the
    // committed-batch baseline.
    let waves_json: Vec<String> = wave_reports
        .iter()
        .map(|(wave, faults, build, query, violations, reachable)| {
            format!(
                "{{\"wave\":{wave},\"faults\":{faults},\"session_build_us\":{},\
                 \"session_query_us\":{},\"violations\":{violations},\"reachable_pops\":{reachable}}}",
                build.as_micros(),
                query.as_micros()
            )
        })
        .collect();
    let report = format!(
        "{{\"routers\":{ROUTERS},\"landmarks\":16,\"waves\":[{}],\
         \"committed_baseline_us\":{},\"version_before\":{v0},\"version_after_waves\":{v0},\
         \"commits_during_waves\":0}}\n",
        waves_json.join(","),
        committed.as_micros()
    );
    print!("{report}");
}
