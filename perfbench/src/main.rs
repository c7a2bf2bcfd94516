//! Single-client benchmark of the batchhl distance oracle.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload road_churn --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Runs one named workload once: generates its inputs from the seed,
//! sets the oracle up several times (reporting the median), runs rounds
//! of interleaved requests for `--seconds`, checks answers against
//! BFS/Dijkstra truth, and prints one JSON result line last. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` reports per-layer metrics
//! from a traced run that replays the same inputs layer by layer. See
//! `perfbench/README.md` for the workloads and metric definitions.

/// Print a `#` progress line stamped with the seconds since start.
macro_rules! note {
    ($($arg:tt)*) => {
        println!("# [{:7.2} s] {}", $crate::clock(), format!($($arg)*))
    };
}

mod endpoint;
mod inputs;
mod run;
mod stats;
mod trace;
mod twin;

use endpoint::Endpoint;
use inputs::Inputs;
use run::{gate, other_endpoint, run_untraced, warm_up, Traced, Workload, WORKLOADS};
use stats::{median, Report, Samples};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;
use std::time::Instant;
use trace::Tracer;
use twin::Twin;

/// Set-ups per run (`setup_s` is their median): at least `MIN_SETUPS`,
/// more while they take under `SETUP_SECONDS` in total.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 25;
const SETUP_SECONDS: f64 = 5.0;
/// Checkpoints timed in the traced run.
const CHECKPOINTS: usize = 3;
/// How far a per-layer budget may sit from the untraced end-to-end
/// median it accounts for.
const BUDGET_TOLERANCE: f64 = 0.25;
/// Commits after which `rss_mb` is read. Resident memory grows with the
/// commits made, so a read at the end of a timed run would follow the
/// host's speed; every run reaches this many commits.
const RSS_AFTER_COMMITS: usize = 50;
/// Iterations of the host probe loop.
const REF_LOOP_ITERS: u64 = 30_000_000;

static START: OnceLock<Instant> = OnceLock::new();

/// Seconds since the process started measuring anything.
fn clock() -> f64 {
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 40.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

fn main() {
    clock();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let Some(wl) = WORKLOADS.iter().find(|w| w.name == args.workload) else {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!("perfbench: --workload must be one of {names:?}");
        std::process::exit(2);
    };
    let base = PathBuf::from(".perfbench_run").join(format!("{}-{}", wl.name, std::process::id()));
    let result = std::fs::create_dir_all(&base)
        .map_err(|e| format!("{}: {e}", base.display()))
        .and_then(|_| execute(wl, &args, &base));
    let _ = std::fs::remove_dir_all(&base);
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

/// A fixed register-only loop: a probe of how fast this host runs right
/// now, independent of the program under test.
fn ref_loop_ms() -> f64 {
    let t = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for i in 0..REF_LOOP_ITERS {
        x = (x ^ (x >> 29))
            .wrapping_mul(0xBF58_476D_1CE4_E5B9)
            .wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

/// A memory figure of this process from `/proc/self/status`, in MiB:
/// `VmHWM` (peak resident) or `VmRSS` (resident now).
fn status_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn execute(wl: &Workload, args: &Args, base: &Path) -> Result<bool, String> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} threads={} nproc={nproc} \
         loop=closed clients=1 fsync=checkpoint_only",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        wl.threads
    );
    let probe_start = ref_loop_ms();
    let max_batches = (args.seconds * wl.max_rounds_per_sec as f64).ceil() as usize + 16;
    let t = Instant::now();
    let inputs = Inputs::generate(wl.name, args.seed, wl.shape, max_batches);
    note!(
        "inputs: n={} batches={} of {} edits, generated in {:.2} s",
        inputs.graph.num_vertices(),
        inputs.batches.len(),
        inputs.batches[0].len(),
        t.elapsed().as_secs_f64()
    );
    // The harness's own inputs stay resident for the whole run; `rss_mb`
    // counts only what set-up and the run add on top of them.
    let rss_base = status_mb("VmRSS");
    let mut report = Report::default();
    let (correct, attempted, failed) = if args.trace {
        traced(wl, args, &inputs, base, rss_base, &mut report)?
    } else {
        untraced(wl, args, &inputs, base, rss_base, &mut report)?
    };
    let probe_end = ref_loop_ms();
    let probe = (probe_start + probe_end) / 2.0;
    if args.trace {
        report.add("host.ref_loop_ms", probe, "ms", 2);
    }
    report.info("host.ref_loop_ms.start", probe_start, "ms", 1);
    report.info("host.ref_loop_ms.end", probe_end, "ms", 1);
    report.info(
        "failed_ops_ratio",
        failed as f64 / attempted.max(1) as f64,
        "ratio",
        attempted as usize,
    );
    report.print_table();
    println!("{}", report.json(correct, attempted, failed));
    Ok(correct)
}

fn print_gate(errors: &[String]) {
    for e in errors.iter().take(20) {
        eprintln!("correctness: {e}");
    }
    note!("correctness gate: {} failures", errors.len());
}

/// The end-to-end run: set up, measure, check, then set up again
/// several times for `setup_s`. The repeated set-ups come after the
/// rounds so that the peak behind `rss_mb` covers one set-up only.
fn untraced(
    wl: &Workload,
    args: &Args,
    inputs: &Inputs,
    base: &Path,
    rss_base: f64,
    report: &mut Report,
) -> Result<(bool, u64, u64), String> {
    let setup_in = |i: usize| {
        let dir = base.join(format!("setup-{i}"));
        Endpoint::setup(inputs.graph.source(), &dir, wl.wire, wl.threads).map(|s| (s, dir))
    };
    let (setup, dir) = setup_in(0)?;
    let mut setups = vec![setup.elapsed.as_secs_f64()];
    let label_bytes = setup.label_bytes;
    let mut ep = setup.ep;
    warm_up(&mut ep, inputs)?;
    let (e2e, cur, peak) = run_untraced(&mut ep, wl, inputs, args.seconds, RSS_AFTER_COMMITS);
    let rss = peak - rss_base;
    note!("rounds={} commits={}", cur.batches, e2e.commit.len());
    let (errors, final_label_bytes) = gate(
        &mut ep,
        wl.family,
        inputs,
        cur.batches,
        &dir,
        args.seed,
        false,
    );
    print_gate(&errors);
    // Only one copy is ever resident.
    drop(ep);
    let started_again = Instant::now();
    for i in 1..MAX_SETUPS {
        let spent = setups[0] + started_again.elapsed().as_secs_f64();
        if i >= MIN_SETUPS && spent > SETUP_SECONDS {
            break;
        }
        let (setup, dir) = setup_in(i)?;
        setups.push(setup.elapsed.as_secs_f64());
        drop(setup);
        let _ = std::fs::remove_dir_all(&dir);
    }
    let times: Vec<String> = setups.iter().map(|s| format!("{s:.3}")).collect();
    note!("set-ups: {} s", times.join(" "));

    report.add("setup_s", median(&setups), "s", setups.len());
    let q = &e2e.query;
    report.add("query_us_p50", q.p50() * 1e3, "us", q.len());
    report.add("query_us_p90", q.quantile(0.9) * 1e3, "us", q.len());
    report.add("fanout_ms_p50", e2e.fanout.p50(), "ms", e2e.fanout.len());
    let c = &e2e.commit;
    report.add("commit_ms_p50", c.p50(), "ms", c.len());
    report.add("commit_ms_p90", c.quantile(0.9), "ms", c.len());
    report.add(
        "edits_per_s",
        e2e.applied as f64 / e2e.commit_secs,
        "1/s",
        c.len(),
    );
    report.add(
        "first_query_ms_p50",
        e2e.first_query.p50(),
        "ms",
        e2e.first_query.len(),
    );
    let n = inputs.graph.num_vertices() as f64;
    report.add("label_bytes_per_vertex", label_bytes as f64 / n, "B", 1);
    report.add("rss_mb", rss, "MB", 1);
    report.info(
        "commit_ms_p90.beyond",
        c.beyond(0.9) as f64,
        "count",
        c.len(),
    );
    for q in [0.75, 0.95, 0.99] {
        report.info(
            &format!("commit_ms_q{}", q * 100.0),
            c.quantile(q),
            "ms",
            c.len(),
        );
    }
    report.info(
        "misapplied_commits",
        e2e.misapplied as f64,
        "count",
        c.len(),
    );
    report.info(
        "label_bytes_per_vertex.after_run",
        final_label_bytes as f64 / n,
        "B",
        1,
    );
    let correct = errors.is_empty() && e2e.misapplied == 0;
    Ok((correct, e2e.attempted, e2e.failed))
}

/// The traced run: untraced and traced rounds alternate on one oracle,
/// its opposite-path copy and the per-family twin.
fn traced(
    wl: &Workload,
    args: &Args,
    inputs: &Inputs,
    base: &Path,
    rss_base: f64,
    report: &mut Report,
) -> Result<(bool, u64, u64), String> {
    let dir = base.join("main");
    let mut main = Endpoint::setup(inputs.graph.source(), &dir, wl.wire, wl.threads)?.ep;
    let mut other = other_endpoint(wl.wire, &dir)?;
    let twin = Twin::build(&inputs.graph, wl.threads);
    twin.repack();
    warm_up(&mut main, inputs)?;
    warm_up(&mut other, inputs)?;
    note!("main, other and twin set up");
    let wal = |name: &str| {
        batchhl::WalWriter::create(base.join(name)).map_err(|e| format!("wal {name}: {e}"))
    };
    let mut t = Traced {
        wl,
        inputs,
        main,
        other,
        twin,
        wal: wal("layer.wal")?,
        wal_synced: wal("layer-synced.wal")?,
        tracer: Tracer::new(),
        layers: Default::default(),
        untraced: Default::default(),
        traced: Default::default(),
        other_e2e: Default::default(),
        cur: Default::default(),
    };
    t.run(args.seconds);
    let rss = status_mb("VmHWM") - rss_base;
    let wire = if t.main.is_wire() { &t.main } else { &t.other };
    let coalesce = wire.coalesce_batch_mean()?;
    t.checkpoints(base, CHECKPOINTS)?;
    note!("checkpoints timed");
    note!(
        "rounds={} commits: untraced={} traced={}",
        t.cur.batches,
        t.untraced.commit.len(),
        t.traced.commit.len()
    );
    let (errors, _) = gate(
        &mut t.main,
        wl.family,
        inputs,
        t.cur.batches,
        &dir,
        args.seed,
        true,
    );
    print_gate(&errors);
    let spans =
        PathBuf::from(".perfbench_run").join(format!("spans-{}-seed{}.jsonl", wl.name, args.seed));
    t.tracer
        .write(&spans)
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    note!("spans written to {}", spans.display());
    for (name, (count, total)) in t.tracer.summary() {
        println!("span   {name:<24} n={count:<7} total={total:>10.1} ms");
    }

    let l = &t.layers;
    let n = inputs.graph.num_vertices() as f64;
    let sizes = t.twin.label_sizes();
    report.add("hcl.bound_us_p50", l.bound.p50() * 1e3, "us", l.bound.len());
    report.add(
        "hcl.bound_tight_ratio",
        l.tight as f64 / l.searched.max(1) as f64,
        "ratio",
        l.searched,
    );
    report.add("hcl.repack_ms_p50", l.repack.p50(), "ms", l.repack.len());
    report.add(
        "hcl.label_entries_per_vertex",
        sizes.entries as f64 / n,
        "count",
        1,
    );
    report.add(
        "hcl.packed_bytes_per_vertex",
        sizes.packed_bytes as f64 / n,
        "B",
        1,
    );
    report.add(
        "hcl.dense_bytes_per_vertex",
        sizes.dense_bytes as f64 / n,
        "B",
        1,
    );
    report.add(
        "graph.search_us_p50",
        l.search.p50() * 1e3,
        "us",
        l.search.len(),
    );
    report.add(
        "graph.search_us_p90",
        l.search.quantile(0.9) * 1e3,
        "us",
        l.search.len(),
    );
    report.add(
        "graph.fanout_sweep_ms_p50",
        l.sweep.p50(),
        "ms",
        l.sweep.len(),
    );
    report.add(
        "graph.fanout_pairs_ms_p50",
        l.pairs.p50(),
        "ms",
        l.pairs.len(),
    );
    report.add(
        "core.admission_us_p50",
        l.admission.p50() * 1e3,
        "us",
        l.admission.len(),
    );
    report.add("core.apply_ms_p50", l.apply.p50(), "ms", l.apply.len());
    report.add(
        "core.affected_per_edit",
        l.affected as f64 / l.affected_edits.max(1) as f64,
        "count",
        l.affected_edits,
    );
    report.add("core.affected_skew", median(&l.skew), "ratio", l.skew.len());
    report.add(
        "core.wal_append_ms_p50",
        l.wal_append.p50(),
        "ms",
        l.wal_append.len(),
    );
    report.add(
        "core.wal_sync_ms_p50",
        l.wal_sync.p50(),
        "ms",
        l.wal_sync.len(),
    );
    report.add(
        "facade.checkpoint_ms_p50",
        l.checkpoint.p50(),
        "ms",
        l.checkpoint.len(),
    );
    report.add(
        "facade.commit_rest_ms_p50",
        l.commit_rest.p50(),
        "ms",
        l.commit_rest.len(),
    );
    report.add(
        "server.query_overhead_us_p50",
        l.query_overhead.p50() * 1e3,
        "us",
        l.query_overhead.len(),
    );
    report.add(
        "server.fanout_overhead_ms_p50",
        l.fanout_overhead.p50(),
        "ms",
        l.fanout_overhead.len(),
    );
    report.add(
        "server.commit_overhead_ms_p50",
        l.commit_overhead.p50(),
        "ms",
        l.commit_overhead.len(),
    );
    report.add("server.coalesce_batch_mean", coalesce, "count", 1);
    report.add(
        "server.query_us_p99",
        l.wire_query.quantile(0.99) * 1e3,
        "us",
        l.wire_query.len(),
    );

    // Latency budgets: the layers' medians against the untraced
    // end-to-end median of the same op, measured in this process.
    let same = &l.same_inputs;
    let wire_query = if wl.wire { l.query_overhead.p50() } else { 0.0 };
    let u = &t.untraced;
    let budgets = [
        (
            "commit",
            vec![
                ("admission", same.admission.p50()),
                ("wal", same.wal_append.p50()),
                ("apply", same.apply.p50()),
                ("rest", l.commit_rest.p50()),
            ],
            &u.commit,
        ),
        (
            "first_query",
            vec![
                ("server", wire_query),
                ("repack", same.repack.p50()),
                ("bound", same.first_bound.p50()),
                ("search", same.first_search.p50()),
            ],
            &u.first_query,
        ),
        (
            "query",
            vec![
                ("server", wire_query),
                ("bound", same.bound.p50()),
                ("search", same.search.p50()),
            ],
            &u.query,
        ),
    ];
    for (op, parts, e2e) in budgets {
        let sum: f64 = parts.iter().map(|(_, ms)| ms).sum();
        let gap = sum / e2e.p50() - 1.0;
        let terms: Vec<String> = parts
            .iter()
            .map(|(name, ms)| format!("{name} {ms:.4}"))
            .collect();
        println!(
            "budget {op}: {} = {sum:.4} ms vs untraced p50 {:.4} ms (n={}): gap {:+.1}% {}",
            terms.join(" + "),
            e2e.p50(),
            e2e.len(),
            gap * 100.0,
            if gap.abs() <= BUDGET_TOLERANCE {
                "within"
            } else {
                "OUTSIDE"
            },
        );
        report.add(
            &format!("budget.{op}_gap_ratio"),
            gap.abs(),
            "ratio",
            e2e.len(),
        );
    }
    let overhead =
        |traced: &Samples, untraced: &Samples, scale: f64| (traced.p50() - untraced.p50()) * scale;
    report.add(
        "trace.query_overhead_us",
        overhead(&t.traced.query, &u.query, 1e3),
        "us",
        t.traced.query.len(),
    );
    report.add(
        "trace.commit_overhead_ms",
        overhead(&t.traced.commit, &u.commit, 1.0),
        "ms",
        t.traced.commit.len(),
    );
    report.add(
        "trace.first_query_overhead_ms",
        overhead(&t.traced.first_query, &u.first_query, 1.0),
        "ms",
        t.traced.first_query.len(),
    );
    report.info(
        "untraced.query_us_p50",
        u.query.p50() * 1e3,
        "us",
        u.query.len(),
    );
    report.info(
        "untraced.commit_ms_p50",
        u.commit.p50(),
        "ms",
        u.commit.len(),
    );
    report.info(
        "untraced.first_query_ms_p50",
        u.first_query.p50(),
        "ms",
        u.first_query.len(),
    );
    report.info(
        "hcl.repacks_built",
        l.repacks_built as f64,
        "count",
        l.repack.len(),
    );
    report.info("rss_mb", rss, "MB", 1);
    report.info("layer_mismatches", l.mismatches as f64, "count", 1);

    let misapplied = u.misapplied + t.traced.misapplied + t.other_e2e.misapplied;
    let correct = errors.is_empty() && l.mismatches == 0 && misapplied == 0;
    let attempted = u.attempted + t.traced.attempted + t.other_e2e.attempted;
    let failed = u.failed + t.traced.failed + t.other_e2e.failed;
    Ok((correct, attempted, failed))
}
