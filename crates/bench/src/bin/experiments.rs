//! Regenerate the tables and figures of the BatchHL evaluation.
//!
//! ```text
//! experiments [flags] <id>...        ids: table2 table3 table4 table5
//!                                         table6 fig2 fig5 fig6 fig7
//!                                         fig8 label_memory
//!                                         server_coalesce | all
//!   --scale tiny|small|medium|large  dataset scale       (default small)
//!   --seed N                         workload seed       (default 42)
//!   --landmarks K                    landmark count      (default 20)
//!   --threads T                      parallel variants   (default: cores)
//!   --budget-secs S                  PLL-family budget   (default 60)
//!   --datasets a,b,c                 restrict datasets
//! ```
//!
//! Paper-scale runs: `--scale large` approximates the paper's batch
//! size of 1,000 and 100,000-query samples (absolute wall-clock numbers
//! still reflect this machine, not the paper's 28-core Xeon).

use batchhl_bench::datasets::Scale;
use batchhl_bench::experiments::{self, ExpContext};
use std::process::exit;

const ALL_IDS: &[&str] = &[
    "table2",
    "fig2",
    "fig5",
    "table3",
    "table4",
    "table5",
    "fig6",
    "fig7",
    "fig8",
    "table6",
    "label_memory",
    "server_coalesce",
];

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--scale S] [--seed N] [--landmarks K] [--threads T] \
         [--budget-secs S] [--datasets a,b,c] <id>...\n       ids: {} | all",
        ALL_IDS.join(" ")
    );
    exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ctx = ExpContext::new(Scale::Small);
    let mut ids: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage();
            })
        };
        match arg.as_str() {
            "--scale" => {
                let v = value("--scale");
                ctx.scale = Scale::parse(&v).unwrap_or_else(|| {
                    eprintln!("unknown scale {v:?}");
                    usage();
                });
            }
            "--seed" => ctx.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--landmarks" => {
                ctx.landmarks = value("--landmarks").parse().unwrap_or_else(|_| usage())
            }
            "--threads" => ctx.threads = value("--threads").parse().unwrap_or_else(|_| usage()),
            "--budget-secs" => {
                let s: u64 = value("--budget-secs").parse().unwrap_or_else(|_| usage());
                ctx.budget = std::time::Duration::from_secs(s);
            }
            "--datasets" => {
                ctx.only = Some(
                    value("--datasets")
                        .split(',')
                        .map(|s| s.trim().to_string())
                        .collect(),
                );
            }
            "--help" | "-h" => usage(),
            id if !id.starts_with('-') => ids.push(id.to_string()),
            _ => usage(),
        }
    }
    if ids.is_empty() {
        usage();
    }
    if ids.iter().any(|i| i == "all") {
        ids = ALL_IDS.iter().map(|s| s.to_string()).collect();
    }

    println!(
        "# BatchHL experiments  scale={:?} seed={} landmarks={} threads={} budget={:?}",
        ctx.scale, ctx.seed, ctx.landmarks, ctx.threads, ctx.budget
    );
    for id in &ids {
        let start = std::time::Instant::now();
        match id.as_str() {
            "table2" => experiments::table2::run(&ctx),
            "fig2" => experiments::fig2::run(&ctx),
            "fig5" => experiments::fig5::run(&ctx),
            "table3" => experiments::table3::run(&ctx),
            "table4" => experiments::table4::run(&ctx),
            "table5" => experiments::table5::run(&ctx),
            "fig6" => experiments::fig6::run(&ctx),
            "fig7" => experiments::fig7::run(&ctx),
            "fig8" => experiments::fig8::run(&ctx),
            "label_memory" => experiments::label_memory::run(&ctx),
            "table6" => experiments::table6::run(&ctx),
            "server_coalesce" => experiments::server_coalesce::run(&ctx),
            other => {
                eprintln!("unknown experiment {other:?}");
                usage();
            }
        }
        println!("[{id} done in {:.1?}]\n", start.elapsed());
    }
}
