//! Checker-scaling benchmark: measures end-to-end scan throughput over the
//! fig16 synthetic population through the file-parallel scan pipeline —
//! the seed configuration (jobs 1, query store off), then the query store
//! at jobs 1/2/4 — plus a cold-vs-warm archive scan through a disk-backed
//! query store (the `scan` section, whose `speedup_warm_vs_cold` field
//! records what cross-run persistence buys), incremental and per-function
//! re-scans, a sharded scan, fault tolerance and raw solver speed, then
//! writes the machine-readable results to `BENCH_checker.json` (CI uploads
//! it as an artifact, giving the repo a perf trajectory).
//!
//! Usage: `bench_checker [--out <path>]`; honors `STACK_BENCH_FAST=1`.

use stack_bench::{checker_scaling, no_positionals, ScalingConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = no_positionals(&args, &["--out"], "bench_checker [--out <path>]") {
        eprintln!("bench_checker: {e}");
        std::process::exit(2);
    }
    let out_path = match args.iter().position(|a| a == "--out") {
        Some(i) => match args.get(i + 1) {
            Some(path) => path.clone(),
            None => {
                eprintln!("bench_checker: --out needs a path");
                std::process::exit(2);
            }
        },
        None => "BENCH_checker.json".to_string(),
    };
    let cfg = ScalingConfig::from_env();
    let results = checker_scaling(&cfg);
    print!("{}", results.render());
    let json = results.to_json();
    std::fs::write(&out_path, json).expect("write benchmark results");
    println!("  wrote {out_path}");
}
