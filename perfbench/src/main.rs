//! The scan benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <novel-cold|shared-cold|append-rescan|edit-tail> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Generates the workload's archive from the seed, then repeats the scan
//! for the given number of seconds and prints, as its last line, one JSON
//! object: `correct`, `attempted` (files scanned), `failed` (files that
//! failed to compile) and `metrics`. With `--trace 0` the metrics are the
//! end-to-end ones, measured on the real scan path. With `--trace 1`
//! untraced and traced repetitions alternate, and the metrics are the
//! per-layer ones; the last traced repetition's spans are written to
//! `.perfbench/trace-<workload>.json`. Run it from the repository root; it
//! writes only under `.perfbench/`. See `perfbench/README.md` for what each
//! workload and metric is for.

mod scan;
mod sys;
mod trace;
mod verdict;
mod workload;

use scan::{Rep, Stores};
use stack_core::CheckStats;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::{Layer, TracedRep};
use workload::{Inputs, Workload};

const USAGE: &str = "usage: perfbench --workload <novel-cold|shared-cold|append-rescan|edit-tail> \
     --seed <n> --seconds <n> --trace <0|1>";

/// Fewest timed repetitions of each kind in a run, however short `--seconds`.
const MIN_REPS: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let at = args
                .iter()
                .position(|a| a == flag)
                .ok_or(format!("missing {flag}"))?;
            args.get(at + 1)
                .map(String::as_str)
                .ok_or(format!("{flag} needs a value"))
        };
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?
                .parse()
                .map_err(|_| format!("{flag} needs a whole number"))
        };
        let workload = value("--workload")?;
        let seconds = number("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(Args {
            workload: Workload::parse(workload).ok_or(format!("unknown workload `{workload}`"))?,
            seed: number("--seed")?,
            seconds,
            trace: match value("--trace")? {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
            },
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let work = Path::new(".perfbench").join(format!("work-{}", std::process::id()));
    let result = run(&args, &work);
    if work.exists() {
        let _ = std::fs::remove_dir_all(&work);
    }
    match result {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &Args, work: &Path) -> std::io::Result<String> {
    let inputs = workload::inputs(args.workload, args.seed);
    let stores = match &inputs.prefill {
        Some(prefill) => Some(Stores::fill(work, prefill)?),
        None => None,
    };
    let stores = stores.as_ref();
    // The first repetition is untimed: it warms caches and the allocator and
    // is the reference every later repetition must reproduce.
    let reference = scan::untraced(&inputs, stores)?;
    let mut checks = Checks::default();
    checks.rep(&inputs, &reference, &reference);
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut reps = Vec::new();
    let mut traced = Vec::new();
    loop {
        let done = Instant::now() >= deadline;
        if done && reps.len() >= MIN_REPS && (!args.trace || traced.len() >= MIN_REPS) {
            break;
        }
        let rep = scan::untraced(&inputs, stores)?;
        checks.rep(&inputs, &reference, &rep);
        reps.push(rep);
        if args.trace {
            let t = trace::traced(&inputs, stores)?;
            checks.traced(&reference, &t);
            traced.push(t);
        }
    }
    let files = inputs.tasks.len();
    let failed: usize = reps.iter().map(|r| r.outcome.failures).sum::<usize>()
        + traced.iter().map(|t| t.failures).sum::<usize>();
    let attempted = files * (reps.len() + traced.len());
    let metrics = if args.trace {
        let trace_path =
            PathBuf::from(".perfbench").join(format!("trace-{}.json", args.workload.name()));
        traced
            .last()
            .expect("at least one traced repetition")
            .write_chrome_trace(&trace_path)?;
        let untraced_wall = median(reps.iter().map(|r| r.wall.as_secs_f64()));
        per_layer(&inputs, &traced, untraced_wall)
    } else {
        end_to_end(&reps)
    };
    for problem in &checks.problems {
        eprintln!("perfbench: check failed: {problem}");
    }
    eprintln!(
        "perfbench: {} seed {}: {} files, {} functions, {} untraced and {} traced repetitions",
        args.workload.name(),
        args.seed,
        files,
        reference.stats.functions,
        reps.len(),
        traced.len()
    );
    Ok(render(
        checks.problems.is_empty(),
        attempted,
        failed,
        &metrics,
    ))
}

/// A named metric value with its unit.
type Metric = (&'static str, f64, &'static str);

fn end_to_end(reps: &[Rep]) -> Vec<Metric> {
    let mut out = vec![
        (
            "functions_per_s",
            median(reps.iter().map(Rep::functions_per_s)),
            "1/s",
        ),
        (
            "setup_s",
            median(reps.iter().map(|r| r.setup.as_secs_f64())),
            "s",
        ),
    ];
    // Absent, not zero, where /proc cannot reset or read the peak.
    let peaks: Option<Vec<f64>> = reps.iter().map(|r| r.peak_rss_mb).collect();
    if let Some(peaks) = peaks {
        out.push(("peak_rss_mb", median(peaks.into_iter()), "MB"));
    }
    out
}

fn per_layer(inputs: &Inputs, traced: &[TracedRep], untraced_wall: f64) -> Vec<Metric> {
    let per_rep: Vec<Vec<Metric>> = traced
        .iter()
        .map(|t| layer_metrics(inputs, t, untraced_wall))
        .collect();
    // Every repetition yields the same names in the same order.
    (0..per_rep[0].len())
        .map(|k| {
            let (name, _, unit) = per_rep[0][k];
            (name, median(per_rep.iter().map(|m| m[k].1)), unit)
        })
        .collect()
}

fn layer_metrics(inputs: &Inputs, t: &TracedRep, untraced_wall: f64) -> Vec<Metric> {
    let secs = |layer: Layer| t.layer_total(layer).as_secs_f64();
    let mut fn_us: Vec<f64> = t
        .spans
        .iter()
        .filter(|s| s.layer == Layer::Check)
        .map(|s| s.dur.as_secs_f64() * 1e6)
        .collect();
    fn_us.sort_by(f64::total_cmp);
    let check_us: f64 = fn_us.iter().sum();
    let top10: f64 = fn_us.iter().rev().take(fn_us.len().div_ceil(10)).sum();
    let mut fn_props: Vec<f64> = t.fn_propagations.iter().map(|&p| p as f64).collect();
    fn_props.sort_by(f64::total_cmp);
    let spans: f64 = t
        .spans
        .iter()
        .filter(|s| s.layer != Layer::UbCondCollect)
        .map(|s| s.dur.as_secs_f64())
        .sum();
    let wall = t.wall.as_secs_f64();
    let s = &t.stats;
    let files = inputs.tasks.len() as f64;
    let checked = t.verdict.checked as f64;
    vec![
        ("minic.compile_s", secs(Layer::Compile), "s"),
        (
            "minic.bytes_per_s",
            ratio(t.source_bytes as f64, secs(Layer::Compile)),
            "B/s",
        ),
        ("opt.optimize_s", secs(Layer::Optimize), "s"),
        ("opt.insts_after", t.insts_after as f64, "count"),
        ("core.ubcond.collect_s", secs(Layer::UbCondCollect), "s"),
        ("core.session.check_s", secs(Layer::Check), "s"),
        ("core.session.fn_p50_us", percentile(&fn_us, 0.50), "us"),
        ("core.session.fn_p99_us", percentile(&fn_us, 0.99), "us"),
        ("core.session.fn_max_us", percentile(&fn_us, 1.0), "us"),
        ("core.session.top10_share", ratio(top10, check_us), "ratio"),
        ("solver.queries", s.queries as f64, "count"),
        ("solver.sat_solves", s.cache_misses as f64, "count"),
        ("solver.propagations", s.propagations as f64, "count"),
        (
            "solver.unsat_propagations",
            s.unsat_propagations as f64,
            "count",
        ),
        ("solver.conflicts", s.conflicts as f64, "count"),
        (
            "solver.model_cache_hits",
            s.model_cache_hits as f64,
            "count",
        ),
        ("solver.core_cache_hits", s.core_cache_hits as f64, "count"),
        ("solver.degraded", s.timeouts as f64, "count"),
        (
            "solver.props_per_fn_p99",
            percentile(&fn_props, 0.99),
            "count",
        ),
        (
            "solver.store.hit_ratio",
            ratio(s.cache_hits as f64, (s.cache_hits + s.cache_misses) as f64),
            "ratio",
        ),
        ("solver.store.open_s", secs(Layer::QueryStoreOpen), "s"),
        ("solver.store.save_s", secs(Layer::QueryStoreSave), "s"),
        ("solver.store.file_bytes", t.query_store_bytes as f64, "B"),
        ("core.fingerprint.replay_key_s", secs(Layer::ReplayKey), "s"),
        ("core.scanstore.open_s", secs(Layer::ScanStoreOpen), "s"),
        ("core.scanstore.lookup_s", secs(Layer::ScanStoreLookup), "s"),
        ("core.scanstore.insert_s", secs(Layer::ScanStoreInsert), "s"),
        ("core.scanstore.save_s", secs(Layer::ScanStoreSave), "s"),
        (
            "core.scanstore.hit_ratio",
            ratio(t.scan_hits as f64, (t.scan_hits + t.scan_misses) as f64),
            "ratio",
        ),
        ("core.scanstore.file_bytes", t.scan_store_bytes as f64, "B"),
        ("core.scan.overhead_s", wall - spans, "s"),
        ("trace.overhead_ratio", ratio(wall, untraced_wall), "ratio"),
        (
            "degraded_ratio",
            ratio(s.timeouts as f64, s.queries as f64),
            "ratio",
        ),
        (
            "verdict_mismatch_ratio",
            ratio(t.verdict.mismatches as f64, checked),
            "ratio",
        ),
        ("failure_ratio", ratio(t.failures as f64, files), "ratio"),
    ]
}

/// Correctness checks over every repetition of a run; any problem makes the
/// run's `correct` false.
#[derive(Default)]
struct Checks {
    problems: Vec<String>,
}

/// The solver counters that must repeat exactly from repetition to
/// repetition: queries, SAT solves (query-store misses), propagations,
/// Unsat-side propagations, conflicts, model-cache hits, core-cache hits
/// and budget-degraded queries.
fn counters(s: &CheckStats) -> [u64; 8] {
    [
        s.queries,
        s.cache_misses,
        s.propagations,
        s.unsat_propagations,
        s.conflicts,
        s.model_cache_hits,
        s.core_cache_hits,
        s.timeouts,
    ]
}

impl Checks {
    fn expect(&mut self, ok: bool, problem: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(problem());
        }
    }

    fn rep(&mut self, inputs: &Inputs, reference: &Rep, rep: &Rep) {
        let v = rep.verdict;
        self.expect(v.mismatches == 0, || {
            format!(
                "{} of {} files disagree with the generator",
                v.mismatches, v.checked
            )
        });
        self.expect(rep.outcome.failures == 0, || {
            format!("{} files failed to scan", rep.outcome.failures)
        });
        self.expect(v.digest == reference.verdict.digest, || {
            "the report stream changed between repetitions".to_string()
        });
        self.expect(counters(&rep.stats) == counters(&reference.stats), || {
            format!(
                "solver counters changed between repetitions: {:?} vs {:?}",
                counters(&rep.stats),
                counters(&reference.stats)
            )
        });
        if let Some((replayed, fresh)) = inputs.expect_split {
            let got = (
                rep.outcome.functions_skipped,
                rep.stats.functions - rep.stats.functions_skipped,
            );
            self.expect(got == (replayed, fresh), || {
                format!("expected {replayed} replayed and {fresh} fresh functions, got {got:?}")
            });
        }
    }

    /// The traced run must describe the same program run: the same report
    /// stream and the same queries, SAT solves, propagations and degraded
    /// queries as the untraced one.
    fn traced(&mut self, reference: &Rep, t: &TracedRep) {
        self.expect(t.verdict == reference.verdict, || {
            "the traced report stream differs from the untraced one".to_string()
        });
        let pick = |s: &CheckStats| [s.queries, s.cache_misses, s.propagations, s.timeouts];
        self.expect(pick(&t.stats) == pick(&reference.stats), || {
            format!(
                "traced solver counters {:?} differ from untraced {:?}",
                pick(&t.stats),
                pick(&reference.stats)
            )
        });
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn median(values: impl Iterator<Item = f64>) -> f64 {
    let mut v: Vec<f64> = values.collect();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of sorted values (`q` in 0..=1).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

fn render(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}
