//! Checker-scaling benchmark: scans the fig16 synthetic population through
//! the file-parallel scan pipeline with the query store on at jobs 1/2/4,
//! plus incremental and per-function re-scans, a sharded scan, fault
//! tolerance and a store-off solver-speed scan, then writes the
//! machine-readable results to `BENCH_checker.json` (CI diffs every counter
//! against the checked-in file and uploads the fresh one).
//!
//! Usage: `bench_checker [--out <path>]`.

use stack_bench::{checker_scaling, ScalingConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_path = match args.as_slice() {
        [] => "BENCH_checker.json",
        [flag, path] if flag == "--out" => path,
        _ => {
            eprintln!(
                "bench_checker: unexpected arguments `{}`\nusage: bench_checker [--out <path>]",
                args.join(" ")
            );
            std::process::exit(2);
        }
    };
    let results = checker_scaling(&ScalingConfig::default());
    print!("{}", results.render());
    std::fs::write(out_path, results.to_json()).expect("write benchmark results");
    println!("  wrote {out_path}");
}
