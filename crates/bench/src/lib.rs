//! `stack-bench` — experiment harnesses that regenerate every table and
//! figure of the paper's evaluation (§2.3 and §6).
//!
//! Each `figure*`/`sec*` function returns a plain data structure and a
//! formatted text rendering; the binaries under `src/bin/` print them, and
//! `EXPERIMENTS.md` records the comparison against the paper's numbers.

use serde::Serialize;
use stack_core::{
    Algorithm, AnalysisSession, Checker, CheckerConfig, ScanEvent, ScanPipeline, ScanSource,
    ScanStore, ScanTask, UbKind,
};
use stack_corpus::{
    churn_archive, churn_functions, completeness_benchmark, duplicate_files, figure9_corpus,
    generate, generate_archive, ArchiveConfig, ArchiveFile, SynthConfig, UB_COLUMNS,
};
use stack_opt::{lowest_discarding_level, survey_compilers};
use stack_solver::DiskQueryStore;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Figure 4: the compiler × example matrix of lowest discarding levels.
pub struct Figure4 {
    /// Example labels, in the paper's column order.
    pub examples: Vec<&'static str>,
    /// Rows: compiler name and, per example, the lowest `-On` (None = "–").
    pub rows: Vec<(String, Vec<Option<u8>>)>,
}

/// Regenerate Figure 4 by running each surveyed compiler profile over the six
/// §2.2 idioms at increasing optimization levels.
pub fn figure4() -> Figure4 {
    let examples = vec![
        "if (p + 100 < p)",
        "*p; if (!p)",
        "if (x + 100 < x)",
        "if (x+ + 100 < 0)",
        "if (!(1 << x))",
        "if (abs(x) < 0)",
    ];
    let sources: Vec<&str> = stack_corpus::SEC22_EXAMPLES
        .iter()
        .map(|p| p.source)
        .collect();
    let mut rows = Vec::new();
    for profile in survey_compilers() {
        let mut cells = Vec::new();
        for src in &sources {
            cells.push(lowest_discarding_level(src, "f", &profile));
        }
        rows.push((profile.name.to_string(), cells));
    }
    Figure4 { examples, rows }
}

impl Figure4 {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 4: lowest -O level at which each compiler discards the check"
        );
        let _ = writeln!(out, "{:<18} {}", "compiler", self.examples.join(" | "));
        for (name, cells) in &self.rows {
            let cells: Vec<String> = cells
                .iter()
                .map(|c| match c {
                    Some(l) => format!("O{l}"),
                    None => "–".to_string(),
                })
                .collect();
            let _ = writeln!(out, "{name:<18} {}", cells.join("   "));
        }
        out
    }
}

/// Figure 9: bugs found per system and per UB class, by running the checker
/// over the per-system corpus.
pub struct Figure9 {
    pub rows: Vec<(String, usize, HashMap<UbKind, usize>)>,
    pub total: usize,
}

/// Regenerate Figure 9 from the per-system corpus.
pub fn figure9() -> Figure9 {
    let checker = Checker::new();
    let mut rows: Vec<(String, usize, HashMap<UbKind, usize>)> = Vec::new();
    for bug in figure9_corpus() {
        let result = checker
            .check_source(&bug.source, &bug.file)
            .expect("corpus programs must compile");
        let found = !result.reports.is_empty();
        let entry = match rows.iter_mut().find(|(s, _, _)| *s == bug.system) {
            Some(e) => e,
            None => {
                rows.push((bug.system.to_string(), 0, HashMap::new()));
                rows.last_mut().unwrap()
            }
        };
        if found {
            entry.1 += 1;
            // Attribute the bug to the UB class(es) the checker reported.
            let mut kinds: Vec<UbKind> = result
                .reports
                .iter()
                .flat_map(|r| r.ub_sources.iter().map(|s| s.kind))
                .collect();
            kinds.sort();
            kinds.dedup();
            for k in kinds.into_iter().take(1) {
                *entry.2.entry(k).or_insert(0) += 1;
            }
        }
    }
    let total = rows.iter().map(|(_, n, _)| n).sum();
    Figure9 { rows, total }
}

impl Figure9 {
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 9: bugs identified per system (total {})",
            self.total
        );
        let _ = writeln!(
            out,
            "{:<16} {:>6}  {}",
            "system",
            "#bugs",
            UB_COLUMNS.join(" ")
        );
        for (system, count, by_kind) in &self.rows {
            let cells: Vec<String> = UbKind::all()
                .iter()
                .map(|k| {
                    let n = by_kind.get(k).copied().unwrap_or(0);
                    if n == 0 {
                        ".".to_string()
                    } else {
                        n.to_string()
                    }
                })
                .collect();
            let _ = writeln!(out, "{system:<16} {count:>6}  {}", cells.join(" "));
        }
        out
    }
}

/// Figure 16: build/analysis time, files, queries, and timeouts for three
/// code bases of increasing size.
pub struct Figure16Row {
    pub name: String,
    pub build_time_ms: u128,
    pub analysis_time_ms: u128,
    pub files: usize,
    pub queries: u64,
    pub timeouts: u64,
}

/// Regenerate the Figure 16 performance table over synthetic code bases
/// standing in for Kerberos, Postgres, and the Linux kernel.
pub fn figure16(scale: usize) -> Vec<Figure16Row> {
    let presets = [
        ("kerberos (synthetic)", 8 * scale, 11),
        ("postgres (synthetic)", 12 * scale, 23),
        ("linux (synthetic)", 24 * scale, 47),
    ];
    let mut rows = Vec::new();
    for (name, packages, seed) in presets {
        let cfg = SynthConfig {
            packages,
            seed,
            ..SynthConfig::default()
        };
        let build_start = Instant::now();
        let population = generate(&cfg);
        let mut modules = Vec::new();
        let mut files = 0usize;
        for pkg in &population {
            for file in &pkg.files {
                files += 1;
                let mut module = stack_minic::compile(&file.source, &file.name)
                    .expect("synthetic files compile");
                stack_opt::optimize_for_analysis(&mut module);
                modules.push(module);
            }
        }
        let build_time_ms = build_start.elapsed().as_millis();
        let checker = Checker::with_config(CheckerConfig {
            query_budget: 500_000,
            ..CheckerConfig::default()
        });
        let analysis_start = Instant::now();
        let mut queries = 0u64;
        let mut timeouts = 0u64;
        for module in &modules {
            let result = checker.check_module(module);
            queries += result.stats.queries;
            timeouts += result.stats.timeouts;
        }
        rows.push(Figure16Row {
            name: name.to_string(),
            build_time_ms,
            analysis_time_ms: analysis_start.elapsed().as_millis(),
            files,
            queries,
            timeouts,
        });
    }
    rows
}

/// Render the Figure 16 table.
pub fn render_figure16(rows: &[Figure16Row]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Figure 16: {:<22} {:>10} {:>12} {:>8} {:>10} {:>10}",
        "code base", "build(ms)", "analyze(ms)", "files", "queries", "timeouts"
    );
    for r in rows {
        let _ = writeln!(
            out,
            "           {:<22} {:>10} {:>12} {:>8} {:>10} {:>10}",
            r.name, r.build_time_ms, r.analysis_time_ms, r.files, r.queries, r.timeouts
        );
    }
    out
}

/// Figures 17/18 + §6.5: reports per algorithm, reports per UB condition, and
/// the fraction of packages with at least one report.
pub struct PrevalenceResult {
    pub packages: usize,
    pub packages_with_reports: usize,
    pub reports_by_algorithm: HashMap<Algorithm, usize>,
    pub packages_by_algorithm: HashMap<Algorithm, usize>,
    pub reports_by_ub: HashMap<UbKind, usize>,
    pub packages_by_ub: HashMap<UbKind, usize>,
}

/// Run the checker over a synthetic package population.
pub fn prevalence(packages: usize, seed: u64) -> PrevalenceResult {
    let cfg = SynthConfig {
        packages,
        seed,
        ..SynthConfig::default()
    };
    let population = generate(&cfg);
    let checker = Checker::new();
    let mut result = PrevalenceResult {
        packages: population.len(),
        packages_with_reports: 0,
        reports_by_algorithm: HashMap::new(),
        packages_by_algorithm: HashMap::new(),
        reports_by_ub: HashMap::new(),
        packages_by_ub: HashMap::new(),
    };
    for pkg in &population {
        let mut pkg_algorithms = Vec::new();
        let mut pkg_kinds = Vec::new();
        let mut any = false;
        for file in &pkg.files {
            let check = checker
                .check_source(&file.source, &file.name)
                .expect("synthetic files compile");
            for report in &check.reports {
                any = true;
                *result
                    .reports_by_algorithm
                    .entry(report.algorithm)
                    .or_insert(0) += 1;
                pkg_algorithms.push(report.algorithm);
                for src in &report.ub_sources {
                    *result.reports_by_ub.entry(src.kind).or_insert(0) += 1;
                    pkg_kinds.push(src.kind);
                }
            }
        }
        if any {
            result.packages_with_reports += 1;
        }
        pkg_algorithms.sort_by_key(|a| a.name());
        pkg_algorithms.dedup();
        for a in pkg_algorithms {
            *result.packages_by_algorithm.entry(a).or_insert(0) += 1;
        }
        pkg_kinds.sort();
        pkg_kinds.dedup();
        for k in pkg_kinds {
            *result.packages_by_ub.entry(k).or_insert(0) += 1;
        }
    }
    result
}

impl PrevalenceResult {
    /// Render the Figure 17 table (reports per algorithm).
    pub fn render_figure17(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Figure 17: reports per algorithm over {} packages ({} with >=1 report, {:.1}%)",
            self.packages,
            self.packages_with_reports,
            100.0 * self.packages_with_reports as f64 / self.packages.max(1) as f64
        );
        for alg in [
            Algorithm::Elimination,
            Algorithm::SimplifyBoolean,
            Algorithm::SimplifyAlgebra,
        ] {
            let _ = writeln!(
                out,
                "  {:<38} {:>8} reports {:>8} packages",
                alg.name(),
                self.reports_by_algorithm.get(&alg).copied().unwrap_or(0),
                self.packages_by_algorithm.get(&alg).copied().unwrap_or(0),
            );
        }
        out
    }

    /// Render the Figure 18 table (reports per UB condition).
    pub fn render_figure18(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "Figure 18: reports per undefined-behavior condition");
        let mut kinds: Vec<(&UbKind, &usize)> = self.reports_by_ub.iter().collect();
        kinds.sort_by(|a, b| b.1.cmp(a.1));
        for (kind, count) in kinds {
            let _ = writeln!(
                out,
                "  {:<28} {:>8} reports {:>8} packages",
                kind.description(),
                count,
                self.packages_by_ub.get(kind).copied().unwrap_or(0)
            );
        }
        out
    }
}

/// Configuration of the checker-scaling benchmark (the `BENCH_checker.json`
/// emitter): how large a synthetic population to analyze, which thread
/// counts to measure, and the per-query budget.
#[derive(Clone, Debug)]
pub struct ScalingConfig {
    /// Packages in the synthetic population (the fig16 workload shape).
    pub packages: usize,
    /// Population seed.
    pub seed: u64,
    /// Thread counts to measure. Each count is measured twice: once with the
    /// query cache alone (the PR 2 configuration) and once with the cache
    /// plus incremental per-function solver instances.
    pub threads: Vec<usize>,
    /// Per-query solver budget in propagations.
    pub query_budget: u64,
}

impl Default for ScalingConfig {
    fn default() -> ScalingConfig {
        ScalingConfig {
            packages: 24,
            seed: 47,
            threads: vec![1, 2, 4],
            query_budget: 500_000,
        }
    }
}

impl ScalingConfig {
    /// The default configuration, shrunk when `STACK_BENCH_FAST` is set (CI
    /// runs the benchmark as a smoke + artifact step, not as a measurement).
    pub fn from_env() -> ScalingConfig {
        let cfg = ScalingConfig::default();
        if std::env::var_os("STACK_BENCH_FAST").is_some() {
            cfg.fast()
        } else {
            cfg
        }
    }

    /// Shrink to the smoke-test population (what `STACK_BENCH_FAST` and the
    /// CLI's `stack bench --fast` both mean); the single definition of the
    /// fast-mode knob.
    pub fn fast(mut self) -> ScalingConfig {
        self.packages = 6;
        self
    }
}

/// One measured checker configuration (a row of `BENCH_checker.json`).
#[derive(Clone, Debug, Serialize)]
pub struct ScalingRow {
    /// Human-readable configuration label.
    pub label: String,
    /// Worker threads used.
    pub threads: usize,
    /// Whether the memoized query cache was enabled.
    pub query_cache: bool,
    /// Whether incremental solving (persistent per-function instances with
    /// UB conditions as assumption literals) was enabled.
    pub incremental: bool,
    /// End-to-end analysis wall clock over the whole population.
    pub wall_ms: u64,
    /// Functions analyzed per second of wall clock.
    pub functions_per_sec: f64,
    /// Total solver queries issued.
    pub queries: u64,
    /// Queries that exhausted their budget.
    pub timeouts: u64,
    /// Queries answered from the cache.
    pub cache_hits: u64,
    /// Queries that consulted the cache and missed.
    pub cache_misses: u64,
    /// hits / (hits + misses), 0 when the cache is disabled.
    pub cache_hit_rate: f64,
    /// Queries decided on a persistent incremental instance.
    pub incremental_queries: u64,
    /// Clause slots those queries reused instead of re-blasting.
    pub reused_clauses: u64,
    /// `minimal_ub_set` queries skipped because the last extracted
    /// assumption core proved the candidate condition irrelevant
    /// (`queries + minimization_queries_saved` is the same on every row).
    pub minimization_queries_saved: u64,
    /// Total reports produced (must agree across every row).
    pub reports: usize,
}

/// One measured archive-scan configuration (a row of the `scan` section of
/// `BENCH_checker.json`).
#[derive(Clone, Debug, Serialize)]
pub struct ScanRow {
    /// Human-readable configuration label.
    pub label: String,
    /// Whether the run warm-started from a populated disk store.
    pub warm: bool,
    /// End-to-end analysis wall clock over the whole archive, in
    /// milliseconds (rounded; see `wall_us` for the value the speedup is
    /// computed from).
    pub wall_ms: u64,
    /// End-to-end analysis wall clock in microseconds.
    pub wall_us: u64,
    /// Functions analyzed per second of wall clock.
    pub functions_per_sec: f64,
    /// Total solver queries issued.
    pub queries: u64,
    /// Queries that exhausted their budget (must be 0: `Unknown` results
    /// are never persisted, so timeouts would erode the warm hit rate).
    pub timeouts: u64,
    /// Queries answered from the disk-backed store.
    pub store_hits: u64,
    /// Queries that consulted the store and missed.
    pub store_misses: u64,
    /// hits / (hits + misses).
    pub store_hit_rate: f64,
    /// Total reports produced (must agree between cold and warm).
    pub reports: usize,
}

/// The cold-vs-warm archive-scan measurement: the same archive population
/// analyzed twice through a disk-backed query store — once cold (empty
/// store, which the run populates and saves) and once warm (store reloaded
/// from the file the cold run wrote). This is the §6.5 deployment mode:
/// repeated scans of a package archive starting from the previous run's
/// answers.
#[derive(Clone, Debug, Serialize)]
pub struct ScanPersistence {
    /// Workload description.
    pub archive: String,
    /// Files (modules) scanned per run.
    pub files: usize,
    /// Functions analyzed per run.
    pub functions: usize,
    /// Disk-store entries the warm run loaded.
    pub store_entries: u64,
    /// Cold and warm rows, in that order.
    pub rows: Vec<ScanRow>,
    /// Cold wall clock / warm wall clock (>1 means the store pays off).
    pub speedup_warm_vs_cold: f64,
    /// The warm run's store hit rate (the fraction of consulted queries
    /// answered from disk; the acceptance bar is ≥0.9).
    pub warm_store_hit_rate: f64,
    /// Whether the cold and warm runs produced byte-identical report
    /// streams (they must).
    pub reports_identical: bool,
}

/// Run the cold-vs-warm archive-scan measurement. The store file lives in
/// the system temp directory (unique per process and invocation) and is
/// removed afterwards.
pub fn scan_persistence(cfg: &ScalingConfig) -> ScanPersistence {
    static INVOCATION: AtomicU64 = AtomicU64::new(0);
    let store_path = std::env::temp_dir().join(format!(
        "stack-bench-scan-{}-{}.qs",
        std::process::id(),
        INVOCATION.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&store_path);

    let archive_cfg = ArchiveConfig {
        packages: cfg.packages,
        ..ArchiveConfig::default()
    };
    let archive = generate_archive(&archive_cfg);
    let mut modules = Vec::new();
    for file in &archive {
        let mut module =
            stack_minic::compile(&file.source, &file.name).expect("archive files compile");
        stack_opt::optimize_for_analysis(&mut module);
        modules.push(module);
    }
    let functions: usize = modules.iter().map(|m| m.len()).sum();
    let threads = cfg.threads.iter().copied().max().unwrap_or(1);
    let config = CheckerConfig {
        query_budget: cfg.query_budget,
        threads: Some(threads),
        ..CheckerConfig::default()
    };

    let run = |label: &str, warm: bool| -> (ScanRow, Vec<String>) {
        let store = Arc::new(DiskQueryStore::open(&store_path).expect("open benchmark store file"));
        let session = AnalysisSession::with_store(config, store.clone() as _);
        let mut reports = Vec::new();
        let start = Instant::now();
        for module in &modules {
            session.check_module_streaming(module, &mut |r| reports.push(format!("{r:?}")));
        }
        let elapsed = start.elapsed();
        store.save().expect("save benchmark store file");
        let stats = session.stats();
        let lookups = stats.cache_hits + stats.cache_misses;
        let row = ScanRow {
            label: label.to_string(),
            warm,
            wall_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
            wall_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            functions_per_sec: functions as f64 / elapsed.as_secs_f64().max(1e-9),
            queries: stats.queries,
            timeouts: stats.timeouts,
            store_hits: stats.cache_hits,
            store_misses: stats.cache_misses,
            store_hit_rate: if lookups == 0 {
                0.0
            } else {
                stats.cache_hits as f64 / lookups as f64
            },
            reports: reports.len(),
        };
        (row, reports)
    };

    let (cold_row, cold_reports) = run("archive scan (cold disk store)", false);
    let store_entries = DiskQueryStore::open(&store_path)
        .map(|s| s.loaded_entries())
        .unwrap_or(0);
    let (warm_row, warm_reports) = run("archive scan (warm disk store)", true);
    let _ = std::fs::remove_file(&store_path);

    let speedup = cold_row.wall_us.max(1) as f64 / warm_row.wall_us.max(1) as f64;
    let warm_store_hit_rate = warm_row.store_hit_rate;
    ScanPersistence {
        archive: format!(
            "overlap archive (packages={}, seed={:#x})",
            archive_cfg.packages, archive_cfg.seed
        ),
        files: archive.len(),
        functions,
        store_entries,
        rows: vec![cold_row, warm_row],
        speedup_warm_vs_cold: speedup,
        warm_store_hit_rate,
        reports_identical: cold_reports == warm_reports,
    }
}

/// One measured configuration of the incremental-rescan benchmark (a row
/// of the `rescan` section of `BENCH_checker.json`).
#[derive(Clone, Debug, Serialize)]
pub struct RescanRow {
    /// Human-readable configuration label.
    pub label: String,
    /// Semantic churn the scanned archive carries, in percent of files.
    pub churn_pct: u32,
    /// Modules (files) scanned.
    pub files: usize,
    /// Modules replayed from the scan store without solver work.
    pub modules_skipped: usize,
    /// `modules_skipped / files`.
    pub modules_skipped_rate: f64,
    /// End-to-end scan wall clock, milliseconds (rounded).
    pub wall_ms: u64,
    /// End-to-end scan wall clock, microseconds (what speedups divide).
    pub wall_us: u64,
    /// Solver queries issued.
    pub queries: u64,
    /// Queries answered from the (disk-backed) query store.
    pub store_hits: u64,
    /// Reports produced.
    pub reports: usize,
}

/// The incremental-rescan measurement: the same archive scanned after a
/// simulated evolution step (0%, 5%, 20% of files semantically changed,
/// plus comment/whitespace-only edits) under three configurations — cold
/// (no persistence), warm query store (the PR 4 mode: every repeated query
/// answered from disk, but every module still lowered, fingerprinted and
/// driven through the checker), and incremental re-scan (query store plus
/// the fingerprint-keyed scan store: unchanged modules are skipped
/// entirely). This is the §6.5 deployment loop: the Debian archive
/// re-scanned as it evolves, where between runs almost nothing changes.
#[derive(Clone, Debug, Serialize)]
pub struct IncrementalRescan {
    /// Workload description.
    pub archive: String,
    /// Files per scan.
    pub files: usize,
    /// File-level pipeline workers used by every run.
    pub jobs: usize,
    /// Three rows (cold / warm store / incremental rescan) per churn level.
    pub rows: Vec<RescanRow>,
    /// Cold wall clock / incremental-rescan wall clock at 0% churn — the
    /// headline number; must beat `speedup_warm_vs_cold`.
    pub speedup_rescan_vs_cold: f64,
    /// Warm-store wall clock / incremental-rescan wall clock at 0% churn
    /// (what skipping modules buys *on top of* warm queries).
    pub speedup_rescan_vs_warm: f64,
    /// The 0%-churn rescan's skip rate (the acceptance bar is 1.0: every
    /// module replayed, none analyzed).
    pub modules_skipped_rate: f64,
    /// Whether all three configurations produced byte-identical report
    /// streams at every churn level (they must).
    pub reports_identical: bool,
}

/// Scan an archive population through the file-parallel pipeline, returning
/// the rendered report stream and the row measurements. With `save_stores`
/// the (possibly grown) stores are persisted after the run — the fan-out
/// half of a sharded scan; measured re-scan runs pass `false` so every
/// configuration starts from the same primed files.
#[allow(clippy::too_many_arguments)]
fn rescan_run(
    label: &str,
    churn_pct: u32,
    files: &[ArchiveFile],
    config: CheckerConfig,
    jobs: usize,
    query_store_path: Option<&std::path::Path>,
    scan_store_path: Option<&std::path::Path>,
    save_stores: bool,
) -> (RescanRow, Vec<String>) {
    let tasks: Vec<ScanTask> = files
        .iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect();
    let query_store = query_store_path
        .map(|path| Arc::new(DiskQueryStore::open(path).expect("open rescan query store")));
    let session = match &query_store {
        Some(store) => AnalysisSession::with_store(config, store.clone() as _),
        None => AnalysisSession::new(config),
    };
    let mut pipeline = ScanPipeline::new(&session, jobs);
    let scan_store = scan_store_path
        .map(|path| Arc::new(ScanStore::open(path).expect("open rescan scan store")));
    if let Some(store) = &scan_store {
        pipeline = pipeline.with_scan_store(store.clone());
    }
    let mut reports = Vec::new();
    let start = Instant::now();
    let outcome = pipeline.run(&tasks, &mut |event| {
        if let ScanEvent::Report(report) = event {
            reports.push(format!("{report:?}"));
        }
    });
    let elapsed = start.elapsed();
    if save_stores {
        if let Some(store) = &query_store {
            store.save().expect("save rescan query store");
        }
        if let Some(store) = &scan_store {
            store.save().expect("save rescan scan store");
        }
    }
    let stats = session.stats();
    let row = RescanRow {
        label: label.to_string(),
        churn_pct,
        files: outcome.files,
        modules_skipped: outcome.modules_skipped,
        modules_skipped_rate: outcome.modules_skipped as f64 / outcome.files.max(1) as f64,
        wall_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
        wall_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        queries: stats.queries,
        store_hits: stats.cache_hits,
        reports: reports.len(),
    };
    (row, reports)
}

/// Run the incremental-rescan measurement. One priming scan of the base
/// archive populates the query store and the scan store (the "previous
/// run"); each measured configuration then reopens those files read-only.
pub fn incremental_rescan(cfg: &ScalingConfig) -> IncrementalRescan {
    static INVOCATION: AtomicU64 = AtomicU64::new(0);
    let tag = format!(
        "stack-bench-rescan-{}-{}",
        std::process::id(),
        INVOCATION.fetch_add(1, Ordering::Relaxed)
    );
    let query_store_path = std::env::temp_dir().join(format!("{tag}.qs"));
    let scan_store_path = std::env::temp_dir().join(format!("{tag}.ss"));
    let _ = std::fs::remove_file(&query_store_path);
    let _ = std::fs::remove_file(&scan_store_path);

    let archive_cfg = ArchiveConfig {
        packages: cfg.packages,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&archive_cfg);
    let jobs = cfg.threads.iter().copied().max().unwrap_or(1);
    // One module thread per file-level worker: on archive workloads the
    // file level is the scalable one (matches the CLI's `--jobs` default).
    let config = CheckerConfig {
        query_budget: cfg.query_budget,
        threads: Some(1),
        ..CheckerConfig::default()
    };

    // Prime both stores from the base archive, then persist them.
    {
        let query_store =
            Arc::new(DiskQueryStore::open(&query_store_path).expect("open priming query store"));
        let scan_store =
            Arc::new(ScanStore::open(&scan_store_path).expect("open priming scan store"));
        let session = AnalysisSession::with_store(config, query_store.clone() as _);
        let tasks: Vec<ScanTask> = base
            .iter()
            .map(|f| ScanTask {
                name: f.name.clone(),
                source: ScanSource::Inline(f.source.clone()),
            })
            .collect();
        ScanPipeline::new(&session, jobs)
            .with_scan_store(scan_store.clone())
            .run(&tasks, &mut |_| {});
        query_store.save().expect("save priming query store");
        scan_store.save().expect("save priming scan store");
    }

    let mut rows = Vec::new();
    let mut reports_identical = true;
    let mut speedup_rescan_vs_cold = 0.0;
    let mut speedup_rescan_vs_warm = 0.0;
    let mut modules_skipped_rate = 0.0;
    for churn_pct in [0u32, 5, 20] {
        let churned = churn_archive(&base, archive_cfg.seed, churn_pct as f64 / 100.0);
        let (cold, cold_reports) = rescan_run(
            &format!("{churn_pct}% churn, cold"),
            churn_pct,
            &churned.files,
            config,
            jobs,
            None,
            None,
            false,
        );
        let (warm, warm_reports) = rescan_run(
            &format!("{churn_pct}% churn, warm query store"),
            churn_pct,
            &churned.files,
            config,
            jobs,
            Some(&query_store_path),
            None,
            false,
        );
        let (rescan, rescan_reports) = rescan_run(
            &format!("{churn_pct}% churn, incremental rescan"),
            churn_pct,
            &churned.files,
            config,
            jobs,
            Some(&query_store_path),
            Some(&scan_store_path),
            false,
        );
        reports_identical &= cold_reports == warm_reports && cold_reports == rescan_reports;
        if churn_pct == 0 {
            speedup_rescan_vs_cold = cold.wall_us.max(1) as f64 / rescan.wall_us.max(1) as f64;
            speedup_rescan_vs_warm = warm.wall_us.max(1) as f64 / rescan.wall_us.max(1) as f64;
            modules_skipped_rate = rescan.modules_skipped_rate;
        }
        rows.extend([cold, warm, rescan]);
    }
    let _ = std::fs::remove_file(&query_store_path);
    let _ = std::fs::remove_file(&scan_store_path);
    IncrementalRescan {
        archive: format!(
            "overlap archive + churn (packages={}, seed={:#x})",
            archive_cfg.packages, archive_cfg.seed
        ),
        files: base.len(),
        jobs,
        rows,
        speedup_rescan_vs_cold,
        speedup_rescan_vs_warm,
        modules_skipped_rate,
        reports_identical,
    }
}

/// The distributed-scan measurement: the same archive scanned cold and
/// unsharded (the baseline), then fanned out across four content-keyed
/// shards — each shard saving its own query store and scan store — then
/// folded back with `DiskQueryStore::merge`/`ScanStore::merge`, and finally
/// re-scanned in full, warm from the merged stores. The merged-warm run
/// must skip every module and stream byte-identical reports to the cold
/// unsharded scan; its speedup is the fleet payoff the ROADMAP's
/// distributed-scan item is after.
#[derive(Clone, Debug, Serialize)]
pub struct ShardedScan {
    /// Workload description.
    pub archive: String,
    /// Files in the full archive.
    pub files: usize,
    /// Fan-out width.
    pub shards: usize,
    /// File-level pipeline workers used by every run.
    pub jobs: usize,
    /// Rows: cold unsharded, one per shard (fan-out), merged warm
    /// (fan-in). `churn_pct` is always 0 here.
    pub rows: Vec<RescanRow>,
    /// Entries in the merged query store.
    pub merged_query_entries: u64,
    /// Function records in the merged scan store.
    pub merged_scan_entries: u64,
    /// Query-store entries that appeared in more than one shard (their
    /// value equality was asserted during the merge).
    pub merged_query_duplicates: u64,
    /// Cold unsharded wall clock / merged-warm wall clock — must be at
    /// least `speedup_warm_vs_cold`, since a fan-in that loses to a plain
    /// warm store would defeat the point of sharding.
    pub speedup_merged_warm_vs_cold: f64,
    /// The merged-warm run's module skip rate (the acceptance bar is 1.0).
    pub merged_warm_skip_rate: f64,
    /// Whether the merged-warm run's report stream is byte-identical to
    /// the cold unsharded scan's (it must be).
    pub merge_reports_identical: bool,
}

/// Run the distributed-scan measurement. Store files live in the system
/// temp directory (unique per process and invocation) and are removed
/// afterwards.
pub fn sharded_scan(cfg: &ScalingConfig) -> ShardedScan {
    static INVOCATION: AtomicU64 = AtomicU64::new(0);
    const SHARDS: usize = 4;
    let tag = format!(
        "stack-bench-shard-{}-{}",
        std::process::id(),
        INVOCATION.fetch_add(1, Ordering::Relaxed)
    );
    let shard_qs = |i: usize| std::env::temp_dir().join(format!("{tag}-{i}.qs"));
    let shard_ss = |i: usize| std::env::temp_dir().join(format!("{tag}-{i}.ss"));
    let merged_qs = std::env::temp_dir().join(format!("{tag}-merged.qs"));
    let merged_ss = std::env::temp_dir().join(format!("{tag}-merged.ss"));

    let archive_cfg = ArchiveConfig {
        packages: cfg.packages,
        ..ArchiveConfig::default()
    };
    let archive = generate_archive(&archive_cfg);
    let jobs = cfg.threads.iter().copied().max().unwrap_or(1);
    let config = CheckerConfig {
        query_budget: cfg.query_budget,
        threads: Some(1),
        ..CheckerConfig::default()
    };

    // The same content-keyed partition `stack scan --shard i/n` applies.
    let shard_files: Vec<Vec<ArchiveFile>> = (0..SHARDS)
        .map(|shard| {
            archive
                .iter()
                .filter(|f| {
                    stack_core::shard_assignment(
                        stack_core::content_key(f.source.as_bytes()),
                        SHARDS,
                    ) == shard
                })
                .cloned()
                .collect()
        })
        .collect();

    let mut rows = Vec::new();
    let (cold, cold_reports) = rescan_run(
        "unsharded, cold (baseline)",
        0,
        &archive,
        config,
        jobs,
        None,
        None,
        false,
    );
    rows.push(cold.clone());
    for (shard, files) in shard_files.iter().enumerate() {
        let (row, _) = rescan_run(
            &format!("shard {}/{SHARDS}, cold fan-out", shard + 1),
            0,
            files,
            config,
            jobs,
            Some(&shard_qs(shard)),
            Some(&shard_ss(shard)),
            true,
        );
        rows.push(row);
    }

    let qs_inputs: Vec<std::path::PathBuf> = (0..SHARDS).map(shard_qs).collect();
    let ss_inputs: Vec<std::path::PathBuf> = (0..SHARDS).map(shard_ss).collect();
    let query_stats =
        DiskQueryStore::merge(&merged_qs, &qs_inputs, None).expect("merge shard query stores");
    let scan_stats =
        ScanStore::merge(&merged_ss, &ss_inputs, None).expect("merge shard scan stores");

    let (warm, warm_reports) = rescan_run(
        "unsharded, warm from merged stores",
        0,
        &archive,
        config,
        jobs,
        Some(&merged_qs),
        Some(&merged_ss),
        false,
    );
    let speedup = cold.wall_us.max(1) as f64 / warm.wall_us.max(1) as f64;
    let skip_rate = warm.modules_skipped_rate;
    let identical = cold_reports == warm_reports;
    rows.push(warm);

    for path in qs_inputs.iter().chain(ss_inputs.iter()) {
        let _ = std::fs::remove_file(path);
    }
    let _ = std::fs::remove_file(&merged_qs);
    let _ = std::fs::remove_file(&merged_ss);

    ShardedScan {
        archive: format!(
            "overlap archive (packages={}, seed={:#x})",
            archive_cfg.packages, archive_cfg.seed
        ),
        files: archive.len(),
        shards: SHARDS,
        jobs,
        rows,
        merged_query_entries: query_stats.entries_out,
        merged_scan_entries: scan_stats.entries_out,
        merged_query_duplicates: query_stats.duplicates,
        speedup_merged_warm_vs_cold: speedup,
        merged_warm_skip_rate: skip_rate,
        merge_reports_identical: identical,
    }
}

/// One measured configuration row of the `function_rescan` section.
#[derive(Clone, Debug, Serialize)]
pub struct FunctionRescanRow {
    /// Human-readable configuration label.
    pub label: String,
    /// Percent of *functions* (not files) edited in place.
    pub churn_pct: u32,
    /// Modules (files) scanned.
    pub files: usize,
    /// Functions across the archive.
    pub functions: usize,
    /// Functions replayed from the scan store without solver work.
    pub functions_skipped: usize,
    /// Modules all of whose functions replayed.
    pub modules_skipped: usize,
    /// End-to-end scan wall clock, milliseconds (rounded).
    pub wall_ms: u64,
    /// End-to-end scan wall clock, microseconds.
    pub wall_us: u64,
    /// Solver queries issued.
    pub queries: u64,
    /// Reports produced.
    pub reports: usize,
    /// Whether this row's report stream is byte-identical to the cold
    /// reference scan of the same churned archive (it must be).
    pub reports_identical: bool,
}

/// The per-function incremental-rescan measurement: the same archive
/// re-scanned after K *functions* (not files) were edited in place, with
/// function-granular replay (only the edited functions hit the solver)
/// compared against a cold scan of the same sources. The archive uses
/// wider files (12 functions each) than the other sections, so one edit
/// leaves 11 sibling functions to replay. The section also
/// measures cross-path dedup: the archive extended with byte-identical
/// vendored duplicates, scanned with and without a fresh scan store — the
/// path-independent replay key answers every duplicate's functions from
/// the original's analysis.
#[derive(Clone, Debug, Serialize)]
pub struct FunctionRescan {
    /// Workload description.
    pub archive: String,
    /// Files per scan.
    pub files: usize,
    /// Functions per scan.
    pub functions: usize,
    /// File-level pipeline workers used by every churn-row run.
    pub jobs: usize,
    /// Two rows (cold / function-granular warm) per churn level.
    pub rows: Vec<FunctionRescanRow>,
    /// The function-granular 5%-churn row's skip rate
    /// (`functions_skipped / functions`; the ground-truth bar is 0.95).
    pub function_skip_rate_5pct: f64,
    /// Vendored duplicate files appended for the dedup measurement.
    pub dedup_duplicate_files: usize,
    /// Queries saved by cross-path dedup: scanning archive + duplicates
    /// without a scan store minus the same scan with a fresh (cold) scan
    /// store, at jobs 1 — every saved query is a duplicate function
    /// answered from the original's record.
    pub dedup_queries_saved: u64,
    /// Whether every measured run (churn rows and both dedup runs)
    /// streamed byte-identical reports to its cold reference (they must).
    pub reports_identical: bool,
}

/// Scan an archive population for the `function_rescan` section,
/// returning the row and the rendered report stream. No store is saved:
/// every measured run starts from the same primed file.
fn function_rescan_run(
    label: &str,
    churn_pct: u32,
    files: &[ArchiveFile],
    config: CheckerConfig,
    jobs: usize,
    scan_store_path: Option<&std::path::Path>,
) -> (FunctionRescanRow, Vec<String>) {
    let tasks: Vec<ScanTask> = files
        .iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect();
    let session = AnalysisSession::new(config);
    let mut pipeline = ScanPipeline::new(&session, jobs);
    let scan_store = scan_store_path
        .map(|path| Arc::new(ScanStore::open(path).expect("open function-rescan scan store")));
    if let Some(store) = &scan_store {
        pipeline = pipeline.with_scan_store(store.clone());
    }
    let mut reports = Vec::new();
    let start = Instant::now();
    let outcome = pipeline.run(&tasks, &mut |event| {
        if let ScanEvent::Report(report) = event {
            reports.push(format!("{report:?}"));
        }
    });
    let elapsed = start.elapsed();
    let stats = session.stats();
    let row = FunctionRescanRow {
        label: label.to_string(),
        churn_pct,
        files: outcome.files,
        functions: stats.functions,
        functions_skipped: outcome.functions_skipped,
        modules_skipped: outcome.modules_skipped,
        wall_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
        wall_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        queries: stats.queries,
        reports: reports.len(),
        reports_identical: true, // filled in by the caller against its reference
    };
    (row, reports)
}

/// Run the per-function incremental-rescan measurement. One priming scan
/// of the base archive populates the scan store (the "previous run"); the
/// churn rows then reopen that file read-only. No query store is attached
/// anywhere in this section, so `queries` counts exactly the functions
/// that were actually driven through the solver.
pub fn function_rescan(cfg: &ScalingConfig) -> FunctionRescan {
    static INVOCATION: AtomicU64 = AtomicU64::new(0);
    let tag = format!(
        "stack-bench-fnrescan-{}-{}",
        std::process::id(),
        INVOCATION.fetch_add(1, Ordering::Relaxed)
    );
    let scan_store_path = std::env::temp_dir().join(format!("{tag}.ss"));
    let dedup_store_path = std::env::temp_dir().join(format!("{tag}-dedup.ss"));
    let _ = std::fs::remove_file(&scan_store_path);
    let _ = std::fs::remove_file(&dedup_store_path);

    // Wider files than the default archive: 12 functions each, so one
    // edited function leaves 11 siblings to replay.
    let archive_cfg = ArchiveConfig {
        packages: cfg.packages,
        functions_per_file: 12,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&archive_cfg);
    let jobs = cfg.threads.iter().copied().max().unwrap_or(1);
    let config = CheckerConfig {
        query_budget: cfg.query_budget,
        threads: Some(1),
        ..CheckerConfig::default()
    };

    // Prime the scan store from the base archive.
    {
        let scan_store =
            Arc::new(ScanStore::open(&scan_store_path).expect("open priming scan store"));
        let session = AnalysisSession::new(config);
        let tasks: Vec<ScanTask> = base
            .iter()
            .map(|f| ScanTask {
                name: f.name.clone(),
                source: ScanSource::Inline(f.source.clone()),
            })
            .collect();
        ScanPipeline::new(&session, jobs)
            .with_scan_store(scan_store.clone())
            .run(&tasks, &mut |_| {});
        scan_store.save().expect("save priming scan store");
    }

    let mut rows = Vec::new();
    let mut reports_identical = true;
    let mut function_skip_rate_5pct = 0.0;
    let mut functions = 0usize;
    for churn_pct in [0u32, 5, 20] {
        let churned = churn_functions(&base, archive_cfg.seed, churn_pct as f64 / 100.0);
        functions = churned.total_functions;
        let (mut cold, cold_reports) = function_rescan_run(
            &format!("{churn_pct}% fn churn, cold"),
            churn_pct,
            &churned.files,
            config,
            jobs,
            None,
        );
        cold.reports_identical = true;
        let (mut function_row, function_reports) = function_rescan_run(
            &format!("{churn_pct}% fn churn, function-granular rescan"),
            churn_pct,
            &churned.files,
            config,
            jobs,
            Some(&scan_store_path),
        );
        function_row.reports_identical = function_reports == cold_reports;
        reports_identical &= function_row.reports_identical;
        if churn_pct == 5 {
            function_skip_rate_5pct =
                function_row.functions_skipped as f64 / function_row.functions.max(1) as f64;
        }
        rows.extend([cold, function_row]);
    }

    // Cross-path dedup: the archive plus vendored byte-identical copies,
    // scanned sequentially (jobs 1, so every duplicate scans after its
    // original) without any store, then with a fresh cold scan store.
    let dedup_copies = base.len().max(1);
    let extended = duplicate_files(&base, archive_cfg.seed, dedup_copies);
    let (no_store, no_store_reports) = function_rescan_run(
        "archive + duplicates, no store",
        0,
        &extended,
        config,
        1,
        None,
    );
    let (with_store, with_store_reports) = function_rescan_run(
        "archive + duplicates, cold scan store (dedup)",
        0,
        &extended,
        config,
        1,
        Some(&dedup_store_path),
    );
    reports_identical &= no_store_reports == with_store_reports;
    let dedup_queries_saved = no_store.queries.saturating_sub(with_store.queries);

    let _ = std::fs::remove_file(&scan_store_path);
    let _ = std::fs::remove_file(&dedup_store_path);
    FunctionRescan {
        archive: format!(
            "wide-file overlap archive + function churn (packages={}, functions_per_file={}, seed={:#x})",
            archive_cfg.packages, archive_cfg.functions_per_file, archive_cfg.seed
        ),
        files: base.len(),
        functions,
        jobs,
        rows,
        function_skip_rate_5pct,
        dedup_duplicate_files: dedup_copies,
        dedup_queries_saved,
        reports_identical,
    }
}

/// The fault-tolerance measurement: the robustness counterpart of the
/// throughput sections. One workload is analyzed under a deliberately tiny
/// query budget to measure graceful degradation, and one saved disk store
/// is deliberately truncated mid-line to measure the salvage path. CI
/// fails the bench job if `degraded_queries` or `salvaged_entries` go
/// missing from `BENCH_checker.json`.
#[derive(Clone, Debug, Serialize)]
pub struct FaultTolerance {
    /// The deliberately tiny per-query propagation budget the degraded
    /// runs were given.
    pub query_budget: u64,
    /// Queries that exhausted that budget and fell back to `Unknown`
    /// (must be > 0, or the section measured nothing).
    pub degraded_queries: u64,
    /// Modules with at least one degraded query; their verdicts are never
    /// persisted to either store.
    pub degraded_modules: usize,
    /// Whether the single-threaded and widest-threaded degraded runs
    /// produced byte-identical report streams (they must: budget
    /// exhaustion is deterministic, unlike a wall-clock timeout).
    pub degraded_deterministic: bool,
    /// Entries the salvage pass recovered when re-opening the truncated
    /// store.
    pub salvaged_entries: u64,
    /// Corrupt body lines the salvage pass dropped.
    pub dropped_lines: u64,
    /// Byte offset of the first dropped line.
    pub first_bad_offset: Option<u64>,
    /// Whether the save following the salvaging open healed the file: the
    /// next open saw a clean store holding every salvaged entry.
    pub store_healed: bool,
}

/// Run the fault-tolerance measurement: a budget-degraded analysis pass at
/// two thread widths, then a truncate-and-salvage round trip through the
/// disk-backed query store.
pub fn fault_tolerance(cfg: &ScalingConfig) -> FaultTolerance {
    // --- graceful degradation under a tiny budget -------------------------
    let synth = SynthConfig {
        packages: cfg.packages,
        seed: cfg.seed,
        ..SynthConfig::default()
    };
    let mut modules = Vec::new();
    for pkg in &generate(&synth) {
        for file in &pkg.files {
            let mut module =
                stack_minic::compile(&file.source, &file.name).expect("synthetic files compile");
            stack_opt::optimize_for_analysis(&mut module);
            modules.push(module);
        }
    }
    // Small enough that real queries exhaust it; budget exhaustion (unlike
    // the paper's 5-second wall-clock timeout) is deterministic, so the
    // two widths below must stream identical reports.
    let tiny_budget = 50u64;
    let widest = cfg.threads.iter().copied().max().unwrap_or(1);
    let degraded_run = |threads: usize| {
        let checker = Checker::with_config(CheckerConfig {
            query_budget: tiny_budget,
            threads: Some(threads),
            incremental: false,
            ..CheckerConfig::default()
        });
        let mut degraded_queries = 0u64;
        let mut degraded_modules = 0usize;
        let mut reports = Vec::new();
        for module in &modules {
            let result = checker.check_module(module);
            degraded_queries += result.stats.timeouts;
            degraded_modules += result.stats.degraded_modules;
            reports.extend(result.reports.iter().map(|r| format!("{r:?}")));
        }
        (degraded_queries, degraded_modules, reports)
    };
    let (degraded_queries, degraded_modules, narrow_reports) = degraded_run(1);
    let (_, _, wide_reports) = degraded_run(widest);

    // --- truncate-and-salvage round trip ---------------------------------
    static INVOCATION: AtomicU64 = AtomicU64::new(0);
    let store_path = std::env::temp_dir().join(format!(
        "stack-bench-fault-{}-{}.qs",
        std::process::id(),
        INVOCATION.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_file(&store_path);
    {
        let store = Arc::new(DiskQueryStore::open(&store_path).expect("open fault-bench store"));
        let session = AnalysisSession::with_store(
            CheckerConfig {
                query_budget: cfg.query_budget,
                threads: Some(widest),
                ..CheckerConfig::default()
            },
            store.clone() as _,
        );
        for module in &modules {
            session.check_module_streaming(module, &mut |_| {});
        }
        store.save().expect("save fault-bench store");
    }
    // Cut inside the final line: the store ends with a newline and every
    // checksummed line is longer than three bytes, so this always leaves a
    // torn tail for the salvage pass to drop.
    let bytes = std::fs::read(&store_path).expect("read fault-bench store");
    let cut = bytes.len().saturating_sub(3);
    std::fs::write(
        &store_path,
        stack_core::faultinject::truncate_at(&bytes, cut),
    )
    .expect("write truncated fault-bench store");

    let damaged = DiskQueryStore::open(&store_path).expect("open truncated fault-bench store");
    let salvage = damaged.salvage().copied().unwrap_or_default();
    let salvaged_entries = damaged.loaded_entries();
    damaged.save().expect("heal fault-bench store");
    let healed = DiskQueryStore::open(&store_path).expect("re-open healed fault-bench store");
    let store_healed = healed.salvage().is_none()
        && !healed.was_invalidated()
        && healed.loaded_entries() == salvaged_entries;
    let _ = std::fs::remove_file(&store_path);

    FaultTolerance {
        query_budget: tiny_budget,
        degraded_queries,
        degraded_modules,
        degraded_deterministic: narrow_reports == wide_reports,
        salvaged_entries,
        dropped_lines: salvage.dropped_lines,
        first_bad_offset: salvage.first_bad_offset,
        store_healed,
    }
}

/// One raw-solver-speed measurement: the high-churn archive scanned with
/// the query cache fully disabled (no memo store, no disk stores), so every
/// query pays the solver and the row isolates per-query solver cost.
#[derive(Clone, Debug, Serialize)]
pub struct SolverSpeedRow {
    /// Human-readable configuration label.
    pub label: String,
    /// Whether the SAT core's layers around its search loop (vivification,
    /// binary watch lists, trail reuse, model cache) were enabled. `false`
    /// is the plain CDCL solver.
    pub preprocess: bool,
    /// Solver-instance granularity: `"function"` (one incremental instance
    /// per function) or `"fragment"` (a fresh instance per code fragment).
    pub granularity: String,
    /// Wall-clock time for the scan, in milliseconds.
    pub wall_ms: u64,
    /// Wall-clock time for the scan, in microseconds.
    pub wall_us: u64,
    /// Solver queries issued (all misses — the cache is disabled).
    pub queries: u64,
    /// Queries that exhausted their budget and degraded to Unknown.
    pub timeouts: u64,
    /// Total unit propagations — the deterministic currency solver budgets
    /// are denominated in, and this section's measure of raw solver work.
    pub propagations: u64,
    /// Propagations spent on queries that ended Unsat.
    pub unsat_propagations: u64,
    /// Total conflicts across all queries.
    pub conflicts: u64,
    /// Total solver restarts across all queries.
    pub restarts: u64,
    /// Learned clauses retained across all queries.
    pub learned_clauses: u64,
    /// Learned clauses evicted by clause-database reduction.
    pub deleted_clauses: u64,
    /// Mean LBD (glue) over all learned clauses.
    pub avg_lbd: f64,
    /// Learned clauses shortened by vivification.
    pub preprocess_eliminations: u64,
    /// Queries the solver answered Unsat.
    pub unsat_queries: u64,
    /// Assumption cores extracted from final conflicts.
    pub cores_recorded: u64,
    /// `minimal_ub_set` queries skipped by core-seeded minimization.
    pub minimization_queries_saved: u64,
    /// Reports emitted (must match across every row).
    pub reports: usize,
}

/// Results of the solver-speed benchmark: a cache-disabled, high-churn scan
/// where every query reaches the SAT solver, comparing the default solver
/// against the plain CDCL solver (`--no-preprocess`) and the per-fragment
/// instance granularity against per-function.
#[derive(Clone, Debug, Serialize)]
pub struct SolverSpeed {
    /// Description of the synthetic archive the rows scanned.
    pub archive: String,
    /// Files in the churned archive.
    pub files: usize,
    /// Pipeline worker width used for every row.
    pub jobs: usize,
    /// Churn rate applied to the base archive before scanning.
    pub churn_pct: u32,
    /// Per-query propagation budget shared by every row.
    pub query_budget: u64,
    /// One row per solver configuration.
    pub rows: Vec<SolverSpeedRow>,
    /// Baseline propagations divided by default-configuration propagations
    /// (per-function rows): how much less solver work the default solver
    /// does than the plain CDCL solver on the same queries.
    pub speedup_solver_vs_baseline: f64,
    /// Baseline wall time divided by default-configuration wall time.
    pub speedup_wall_vs_baseline: f64,
    /// Per-fragment wall time divided by per-function wall time: values
    /// above 1.0 mean per-function instances win and stay the default.
    pub speedup_function_vs_fragment: f64,
    /// `minimal_ub_set` queries the core-seeded search skipped on the
    /// default row.
    pub minimization_queries_saved: u64,
    /// The granularity shipped as the default, decided by this benchmark.
    pub default_granularity: String,
    /// Every configuration produced byte-identical report streams.
    pub reports_identical: bool,
}

/// Run the solver-speed measurement. The cache is disabled (no memo store,
/// no disk stores) so the scan is the pure worst case — a high-churn tree
/// where nothing can be reused — and the rows compare raw solver cost:
/// the plain CDCL solver (`--no-preprocess`) as the baseline, the default
/// solver per-function, and the same solver per-fragment.
pub fn solver_speed(cfg: &ScalingConfig) -> SolverSpeed {
    let archive_cfg = ArchiveConfig {
        packages: cfg.packages,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&archive_cfg);
    const CHURN_PCT: u32 = 20;
    let churned = churn_archive(&base, archive_cfg.seed, f64::from(CHURN_PCT) / 100.0);
    let jobs = cfg.threads.iter().copied().max().unwrap_or(1);
    let tasks: Vec<ScanTask> = churned
        .files
        .iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect();

    let mut rows = Vec::new();
    let mut report_streams: Vec<Vec<String>> = Vec::new();
    let mut run = |label: &str, preprocess: bool, fragment_instances: bool| {
        let config = CheckerConfig {
            query_budget: cfg.query_budget,
            threads: Some(1),
            query_cache: false,
            preprocess,
            fragment_instances,
            ..CheckerConfig::default()
        };
        let session = AnalysisSession::new(config);
        let pipeline = ScanPipeline::new(&session, jobs);
        let mut reports = Vec::new();
        let start = Instant::now();
        pipeline.run(&tasks, &mut |event| {
            if let ScanEvent::Report(report) = event {
                reports.push(format!("{report:?}"));
            }
        });
        let elapsed = start.elapsed();
        let stats = session.stats();
        rows.push(SolverSpeedRow {
            label: label.to_string(),
            preprocess,
            granularity: if fragment_instances {
                "fragment"
            } else {
                "function"
            }
            .to_string(),
            wall_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
            wall_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
            queries: stats.queries,
            timeouts: stats.timeouts,
            propagations: stats.propagations,
            unsat_propagations: stats.unsat_propagations,
            conflicts: stats.conflicts,
            restarts: stats.restarts,
            learned_clauses: stats.learned_clauses,
            deleted_clauses: stats.deleted_clauses,
            avg_lbd: stats.avg_lbd(),
            preprocess_eliminations: stats.preprocess_eliminations,
            unsat_queries: stats.unsat_queries,
            cores_recorded: stats.cores_recorded,
            minimization_queries_saved: stats.minimization_queries_saved,
            reports: reports.len(),
        });
        report_streams.push(reports);
    };
    run("baseline: plain CDCL, per-function", false, false);
    run("default solver, per-function", true, false);
    run("default solver, per-fragment", true, true);

    let ratio = |num: u64, den: u64| num as f64 / den.max(1) as f64;
    let baseline = &rows[0];
    let function = &rows[1];
    let fragment = &rows[2];
    SolverSpeed {
        archive: format!("{} packages, seed {}", cfg.packages, archive_cfg.seed),
        files: churned.files.len(),
        jobs,
        churn_pct: CHURN_PCT,
        query_budget: cfg.query_budget,
        speedup_solver_vs_baseline: ratio(baseline.propagations, function.propagations),
        speedup_wall_vs_baseline: ratio(baseline.wall_us, function.wall_us),
        speedup_function_vs_fragment: ratio(fragment.wall_us, function.wall_us),
        minimization_queries_saved: function.minimization_queries_saved,
        default_granularity: "function".to_string(),
        reports_identical: report_streams.windows(2).all(|w| w[0] == w[1]),
        rows,
    }
}

/// Results of the checker-scaling benchmark: the uncached sequential seed
/// path as the baseline, then cached runs (the PR 2 configuration) and
/// cached+incremental runs at each requested thread count.
#[derive(Clone, Debug, Serialize)]
pub struct CheckerScaling {
    /// Workload description.
    pub population: String,
    /// Packages generated.
    pub packages: usize,
    /// Files compiled.
    pub files: usize,
    /// Functions analyzed per configuration run.
    pub functions: usize,
    /// Measured configurations; row 0 is the seed baseline.
    pub rows: Vec<ScalingRow>,
    /// Baseline wall clock / best non-seed wall clock.
    pub speedup_vs_seed: f64,
    /// Label of the fastest non-seed configuration.
    pub best_label: String,
    /// Best cached-only wall clock / best incremental wall clock: how much
    /// the incremental mode gains over the PR 2 cached-parallel
    /// configuration on the same workload (>1 means incremental wins).
    pub speedup_incremental_vs_cached: f64,
    /// Label of the fastest cached-only (non-incremental) configuration.
    pub best_cached_label: String,
    /// Label of the fastest incremental configuration.
    pub best_incremental_label: String,
    /// The cold-vs-warm disk-store archive scan (`speedup_warm_vs_cold`
    /// lives here; CI fails the bench job if it goes missing).
    pub scan: ScanPersistence,
    /// The incremental-rescan measurement over the churned archive
    /// (`speedup_rescan_vs_cold` and `modules_skipped_rate` live here; CI
    /// fails the bench job if the speedup goes missing).
    pub rescan: IncrementalRescan,
    /// The per-function incremental-rescan + cross-path dedup measurement
    /// (`dedup_queries_saved` lives here; CI fails the bench job if it goes
    /// missing).
    pub function_rescan: FunctionRescan,
    /// The distributed-scan measurement (`speedup_merged_warm_vs_cold` and
    /// `merge_reports_identical` live here; CI fails the bench job if
    /// either goes missing).
    pub sharded_scan: ShardedScan,
    /// The fault-tolerance measurement (`degraded_queries` and
    /// `salvaged_entries` live here; CI fails the bench job if either goes
    /// missing).
    pub fault_tolerance: FaultTolerance,
    /// The raw-solver-speed measurement on a cache-disabled high-churn scan
    /// (`speedup_solver_vs_baseline` lives here; CI fails the bench job if
    /// it goes missing).
    pub solver_speed: SolverSpeed,
}

/// Run the checker-scaling benchmark: analyze one synthetic population under
/// (a) the sequential uncached seed configuration, (b) the cached parallel
/// driver at each thread count in `cfg.threads` (the PR 2 configuration),
/// and (c) the cached parallel driver with incremental per-function solver
/// instances at the same thread counts, measuring wall clock, throughput,
/// cache behavior, and clause reuse for each.
pub fn checker_scaling(cfg: &ScalingConfig) -> CheckerScaling {
    let synth = SynthConfig {
        packages: cfg.packages,
        seed: cfg.seed,
        ..SynthConfig::default()
    };
    let population = generate(&synth);
    let mut modules = Vec::new();
    let mut files = 0usize;
    for pkg in &population {
        for file in &pkg.files {
            files += 1;
            let mut module =
                stack_minic::compile(&file.source, &file.name).expect("synthetic files compile");
            stack_opt::optimize_for_analysis(&mut module);
            modules.push(module);
        }
    }
    let functions: usize = modules.iter().map(|m| m.len()).sum();

    let mut rows = Vec::new();
    let mut measure = |label: String, threads: usize, query_cache: bool, incremental: bool| {
        // A fresh checker per configuration: each run starts from a cold
        // cache, so rows are comparable and independent of run order.
        let checker = Checker::with_config(CheckerConfig {
            query_budget: cfg.query_budget,
            threads: Some(threads),
            query_cache,
            incremental,
            ..CheckerConfig::default()
        });
        let start = Instant::now();
        let mut queries = 0u64;
        let mut timeouts = 0u64;
        let mut cache_hits = 0u64;
        let mut cache_misses = 0u64;
        let mut incremental_queries = 0u64;
        let mut reused_clauses = 0u64;
        let mut minimization_queries_saved = 0u64;
        let mut reports = 0usize;
        for module in &modules {
            let result = checker.check_module(module);
            queries += result.stats.queries;
            timeouts += result.stats.timeouts;
            cache_hits += result.stats.cache_hits;
            cache_misses += result.stats.cache_misses;
            incremental_queries += result.stats.incremental_queries;
            reused_clauses += result.stats.reused_clauses;
            minimization_queries_saved += result.stats.minimization_queries_saved;
            reports += result.reports.len();
        }
        let elapsed = start.elapsed();
        let secs = elapsed.as_secs_f64().max(1e-9);
        let lookups = cache_hits + cache_misses;
        rows.push(ScalingRow {
            label,
            threads,
            query_cache,
            incremental,
            wall_ms: u64::try_from(elapsed.as_millis()).unwrap_or(u64::MAX),
            functions_per_sec: functions as f64 / secs,
            queries,
            timeouts,
            cache_hits,
            cache_misses,
            cache_hit_rate: if lookups == 0 {
                0.0
            } else {
                cache_hits as f64 / lookups as f64
            },
            incremental_queries,
            reused_clauses,
            minimization_queries_saved,
            reports,
        });
    };

    measure("seed (sequential, no cache)".to_string(), 1, false, false);
    for &threads in &cfg.threads {
        measure(
            format!("{threads} thread(s) + query cache"),
            threads,
            true,
            false,
        );
    }
    for &threads in &cfg.threads {
        measure(
            format!("{threads} thread(s) + cache + incremental"),
            threads,
            true,
            true,
        );
    }

    let baseline_ms = rows[0].wall_ms.max(1) as f64;
    let fastest = |rows: &[ScalingRow], pred: &dyn Fn(&ScalingRow) -> bool| {
        rows.iter()
            .filter(|r| pred(r))
            .min_by_key(|r| r.wall_ms)
            .map(|r| (r.wall_ms.max(1) as f64, r.label.clone()))
            .expect("at least one matching configuration")
    };
    let (best_ms, best_label) = fastest(&rows[1..], &|_| true);
    let (best_cached_ms, best_cached_label) = fastest(&rows, &|r| r.query_cache && !r.incremental);
    let (best_incremental_ms, best_incremental_label) = fastest(&rows, &|r| r.incremental);
    CheckerScaling {
        population: format!(
            "fig16 synthetic population (packages={}, seed={})",
            cfg.packages, cfg.seed
        ),
        packages: cfg.packages,
        files,
        functions,
        rows,
        speedup_vs_seed: baseline_ms / best_ms,
        best_label,
        speedup_incremental_vs_cached: best_cached_ms / best_incremental_ms,
        best_cached_label,
        best_incremental_label,
        scan: scan_persistence(cfg),
        rescan: incremental_rescan(cfg),
        function_rescan: function_rescan(cfg),
        sharded_scan: sharded_scan(cfg),
        fault_tolerance: fault_tolerance(cfg),
        solver_speed: solver_speed(cfg),
    }
}

impl CheckerScaling {
    /// Render as an aligned text table.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Checker scaling over {} ({} files, {} functions)",
            self.population, self.files, self.functions
        );
        let _ = writeln!(
            out,
            "  {:<30} {:>8} {:>12} {:>9} {:>9} {:>8} {:>9} {:>10}",
            "configuration", "wall(ms)", "funcs/sec", "queries", "hits", "hit%", "incr", "reused"
        );
        for r in &self.rows {
            let _ = writeln!(
                out,
                "  {:<30} {:>8} {:>12.1} {:>9} {:>9} {:>7.1}% {:>9} {:>10}",
                r.label,
                r.wall_ms,
                r.functions_per_sec,
                r.queries,
                r.cache_hits,
                100.0 * r.cache_hit_rate,
                r.incremental_queries,
                r.reused_clauses
            );
        }
        let _ = writeln!(
            out,
            "  speedup vs seed path: {:.2}x ({})",
            self.speedup_vs_seed, self.best_label
        );
        let _ = writeln!(
            out,
            "  incremental vs cached-parallel: {:.2}x ({} over {})",
            self.speedup_incremental_vs_cached, self.best_incremental_label, self.best_cached_label
        );
        let _ = writeln!(
            out,
            "Archive persistence over {} ({} files, {} functions, {} stored entries)",
            self.scan.archive, self.scan.files, self.scan.functions, self.scan.store_entries
        );
        for r in &self.scan.rows {
            let _ = writeln!(
                out,
                "  {:<30} {:>8} {:>12.1} {:>9} {:>9} {:>7.1}%",
                r.label,
                r.wall_ms,
                r.functions_per_sec,
                r.queries,
                r.store_hits,
                100.0 * r.store_hit_rate
            );
        }
        let _ = writeln!(
            out,
            "  warm vs cold scan: {:.2}x (reports identical: {})",
            self.scan.speedup_warm_vs_cold, self.scan.reports_identical
        );
        let _ = writeln!(
            out,
            "Incremental re-scan over {} ({} files, {} jobs)",
            self.rescan.archive, self.rescan.files, self.rescan.jobs
        );
        for r in &self.rescan.rows {
            let _ = writeln!(
                out,
                "  {:<36} {:>8} {:>9} {:>9} {:>8}/{:<5} skipped",
                r.label, r.wall_ms, r.queries, r.reports, r.modules_skipped, r.files
            );
        }
        let _ = writeln!(
            out,
            "  rescan vs cold (0% churn): {:.2}x; vs warm store: {:.2}x; skip rate {:.0}%; \
             reports identical: {}",
            self.rescan.speedup_rescan_vs_cold,
            self.rescan.speedup_rescan_vs_warm,
            100.0 * self.rescan.modules_skipped_rate,
            self.rescan.reports_identical
        );
        let _ = writeln!(
            out,
            "Per-function re-scan over {} ({} files, {} functions, {} jobs)",
            self.function_rescan.archive,
            self.function_rescan.files,
            self.function_rescan.functions,
            self.function_rescan.jobs
        );
        for r in &self.function_rescan.rows {
            let _ = writeln!(
                out,
                "  {:<44} {:>8} {:>9} {:>9} {:>8}/{:<5} fns replayed",
                r.label, r.wall_ms, r.queries, r.reports, r.functions_skipped, r.functions
            );
        }
        let _ = writeln!(
            out,
            "  fn skip rate (5% fn churn) {:.1}%; dedup saved {} queries over {} duplicate \
             files; reports identical: {}",
            100.0 * self.function_rescan.function_skip_rate_5pct,
            self.function_rescan.dedup_queries_saved,
            self.function_rescan.dedup_duplicate_files,
            self.function_rescan.reports_identical
        );
        let _ = writeln!(
            out,
            "Distributed scan over {} ({} files, {} shards, {} jobs)",
            self.sharded_scan.archive,
            self.sharded_scan.files,
            self.sharded_scan.shards,
            self.sharded_scan.jobs
        );
        for r in &self.sharded_scan.rows {
            let _ = writeln!(
                out,
                "  {:<36} {:>8} {:>9} {:>9} {:>8}/{:<5} skipped",
                r.label, r.wall_ms, r.queries, r.reports, r.modules_skipped, r.files
            );
        }
        let _ = writeln!(
            out,
            "  merged stores: {} query entries ({} shard duplicates), {} function records",
            self.sharded_scan.merged_query_entries,
            self.sharded_scan.merged_query_duplicates,
            self.sharded_scan.merged_scan_entries
        );
        let _ = writeln!(
            out,
            "  merged-warm vs cold: {:.2}x; skip rate {:.0}%; reports identical: {}",
            self.sharded_scan.speedup_merged_warm_vs_cold,
            100.0 * self.sharded_scan.merged_warm_skip_rate,
            self.sharded_scan.merge_reports_identical
        );
        let _ = writeln!(
            out,
            "Fault tolerance (budget {} propagations; truncated disk store)",
            self.fault_tolerance.query_budget
        );
        let _ = writeln!(
            out,
            "  degraded: {} queries fell back to Unknown across {} module(s); \
             deterministic across thread widths: {}",
            self.fault_tolerance.degraded_queries,
            self.fault_tolerance.degraded_modules,
            self.fault_tolerance.degraded_deterministic
        );
        let _ = writeln!(
            out,
            "  salvage: kept {} entries, dropped {} bad line(s) (first at byte offset {}); \
             healed on next save: {}",
            self.fault_tolerance.salvaged_entries,
            self.fault_tolerance.dropped_lines,
            self.fault_tolerance
                .first_bad_offset
                .map_or("-".to_string(), |o| o.to_string()),
            self.fault_tolerance.store_healed
        );
        let _ = writeln!(
            out,
            "Solver speed over {} ({} files, {}% churn, cache disabled, {} jobs)",
            self.solver_speed.archive,
            self.solver_speed.files,
            self.solver_speed.churn_pct,
            self.solver_speed.jobs
        );
        for r in &self.solver_speed.rows {
            let _ = writeln!(
                out,
                "  {:<44} {:>8} {:>10} props {:>7} conf {:>6} elim  lbd {:>4.1}",
                r.label,
                r.wall_ms,
                r.propagations,
                r.conflicts,
                r.preprocess_eliminations,
                r.avg_lbd
            );
        }
        let _ = writeln!(
            out,
            "  solver vs baseline: {:.2}x fewer propagations ({:.2}x wall); \
             fragment vs function: {:.2}x (default: per-{}); reports identical: {}",
            self.solver_speed.speedup_solver_vs_baseline,
            self.solver_speed.speedup_wall_vs_baseline,
            self.solver_speed.speedup_function_vs_fragment,
            self.solver_speed.default_granularity,
            self.solver_speed.reports_identical
        );
        let _ = writeln!(
            out,
            "  unsat path: {} minimization queries saved",
            self.solver_speed.minimization_queries_saved
        );
        out
    }

    /// Serialize to the `BENCH_checker.json` payload.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("scaling results serialize")
    }
}

/// §6.3 precision: run the checker over the Kerberos- and Postgres-like
/// corpora and classify the reports.
pub struct PrecisionResult {
    pub system: String,
    pub reports: usize,
    pub urgent: usize,
    pub time_bombs: usize,
}

/// Regenerate the §6.3 precision experiment shape.
pub fn sec63_precision() -> Vec<PrecisionResult> {
    let checker = Checker::new();
    let mut out = Vec::new();
    for system in ["Kerberos", "Postgres"] {
        let mut reports = 0usize;
        let mut urgent = 0usize;
        let mut time_bombs = 0usize;
        for bug in figure9_corpus().iter().filter(|b| b.system == system) {
            let result = checker.check_source(&bug.source, &bug.file).unwrap();
            for report in &result.reports {
                reports += 1;
                match stack_core::classify_source(&bug.source, &bug.file, report.line) {
                    stack_core::BugClass::UrgentOptimization { .. } => urgent += 1,
                    stack_core::BugClass::TimeBomb => time_bombs += 1,
                }
            }
        }
        out.push(PrecisionResult {
            system: system.to_string(),
            reports,
            urgent,
            time_bombs,
        });
    }
    out
}

/// §6.6 completeness: how many of the ten benchmark tests the checker finds.
pub struct CompletenessResult {
    pub total: usize,
    pub found: usize,
    pub expected_found: usize,
    pub details: Vec<(String, bool, bool)>, // (id, expected, got)
}

/// Regenerate the §6.6 completeness experiment.
pub fn sec66_completeness() -> CompletenessResult {
    let checker = Checker::new();
    let mut details = Vec::new();
    let mut found = 0usize;
    let tests = completeness_benchmark();
    let expected_found = tests.iter().filter(|t| t.expected_found).count();
    for t in &tests {
        let result = checker
            .check_source(t.pattern.source, &format!("{}.c", t.pattern.id))
            .unwrap();
        let got = !result.reports.is_empty();
        if got {
            found += 1;
        }
        details.push((t.pattern.id.to_string(), t.expected_found, got));
    }
    CompletenessResult {
        total: tests.len(),
        found,
        expected_found,
        details,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure4_matches_the_papers_matrix() {
        let fig = figure4();
        assert_eq!(fig.rows.len(), 16);
        let row = |name: &str| {
            fig.rows
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, c)| c.clone())
                .unwrap()
        };
        // Spot-check the paper's most distinctive rows.
        assert_eq!(
            row("gcc-2.95.3"),
            vec![None, None, Some(1), None, None, None]
        );
        assert_eq!(
            row("gcc-4.8.1"),
            vec![Some(2), Some(2), Some(2), Some(2), None, Some(2)]
        );
        assert_eq!(
            row("clang-3.3"),
            vec![Some(1), None, Some(1), None, Some(1), None]
        );
        assert_eq!(row("xlc-12.1"), vec![Some(3), None, None, None, None, None]);
        assert_eq!(
            row("ti-7.4.2"),
            vec![Some(0), None, Some(0), Some(2), None, None]
        );
    }

    #[test]
    fn completeness_finds_seven_of_ten() {
        let result = sec66_completeness();
        assert_eq!(result.total, 10);
        assert_eq!(result.expected_found, 7);
        assert_eq!(result.found, result.expected_found, "{:?}", result.details);
        for (id, expected, got) in &result.details {
            assert_eq!(expected, got, "mismatch for {id}");
        }
    }

    #[test]
    fn prevalence_sample_has_reports() {
        let result = prevalence(12, 3);
        assert_eq!(result.packages, 12);
        assert!(result.packages_with_reports > 0);
        assert!(!result.reports_by_algorithm.is_empty());
    }

    #[test]
    fn checker_scaling_rows_agree_and_cache_hits() {
        let cfg = ScalingConfig {
            packages: 4,
            seed: 11,
            threads: vec![1, 2],
            query_budget: 500_000,
        };
        let scaling = checker_scaling(&cfg);
        assert_eq!(scaling.rows.len(), 5); // seed + two cached + two incremental
        assert!(scaling.functions > 0);
        // Every configuration must find exactly the same bugs.
        let seed_reports = scaling.rows[0].reports;
        let seed_queries = scaling.rows[0].queries;
        for row in &scaling.rows {
            assert_eq!(row.reports, seed_reports, "{}", row.label);
            // Core-seeded minimization skips queries the memoized assumption
            // core proves irrelevant; every skip is accounted for, so the
            // issued + saved total still matches the seed row exactly.
            assert_eq!(
                row.queries + row.minimization_queries_saved,
                seed_queries,
                "{}",
                row.label
            );
        }
        // The seed row never consults the cache; the cached rows must get a
        // nonzero hit rate out of the repeated synthetic idioms.
        assert_eq!(scaling.rows[0].cache_hits, 0);
        for row in &scaling.rows[1..] {
            assert!(row.cache_hit_rate > 0.0, "{}", row.label);
        }
        // Only the incremental rows answer queries on persistent instances,
        // and those must reuse loaded clauses across the Figure 8 loop.
        for row in &scaling.rows {
            if row.incremental {
                assert!(row.incremental_queries > 0, "{}", row.label);
                assert!(row.reused_clauses > 0, "{}", row.label);
            } else {
                assert_eq!(row.incremental_queries, 0, "{}", row.label);
            }
        }
        // The JSON payload is valid enough to round-trip its key fields.
        let json = scaling.to_json();
        assert!(json.contains("\"speedup_vs_seed\""));
        assert!(json.contains("\"cache_hit_rate\""));
        assert!(json.contains("\"speedup_incremental_vs_cached\""));
        assert!(json.contains("\"incremental\": true"));
        assert!(json.contains("\"speedup_warm_vs_cold\""));
        assert!(json.contains("\"speedup_rescan_vs_cold\""));
        assert!(json.contains("\"modules_skipped_rate\""));
        assert!(json.contains("\"speedup_merged_warm_vs_cold\""));
        assert!(json.contains("\"merge_reports_identical\""));
        assert!(json.contains("\"function_rescan\""));
        assert!(json.contains("\"dedup_queries_saved\""));
        assert!(json.contains("\"degraded_queries\""));
        assert!(json.contains("\"salvaged_entries\""));
        assert!(json.contains("\"store_healed\""));
        assert!(json.contains("\"solver_speed\""));
        assert!(json.contains("\"speedup_solver_vs_baseline\""));
        // The solver-speed section must measure real work and stay
        // verdict-stable across every configuration it compares.
        let ss = &scaling.solver_speed;
        assert_eq!(ss.rows.len(), 3, "{ss:?}");
        assert!(ss.rows.iter().all(|r| r.propagations > 0), "{ss:?}");
        assert!(ss.reports_identical, "{ss:?}");
        assert!(ss.speedup_solver_vs_baseline > 1.0, "{ss:?}");
        // The Unsat path must show measurable work: extracted cores on the
        // default row.
        let default_row = &ss.rows[1];
        assert!(default_row.preprocess, "{default_row:?}");
        assert!(default_row.cores_recorded > 0, "{default_row:?}");
        // Core-seeded minimization must actually skip queries somewhere in
        // the run: the scaling rows' incremental configurations exercise the
        // Figure 8 minimal-UB-set loop on workloads with multi-condition
        // minimizations.
        let saved: u64 = scaling
            .rows
            .iter()
            .map(|r| r.minimization_queries_saved)
            .sum();
        assert!(saved > 0, "no minimization queries saved in any row");
        // The fault-tolerance section must actually measure something.
        let ft = &scaling.fault_tolerance;
        assert!(ft.degraded_queries > 0, "{ft:?}");
        assert!(ft.degraded_modules > 0, "{ft:?}");
        assert!(ft.degraded_deterministic, "{ft:?}");
        assert!(ft.salvaged_entries > 0, "{ft:?}");
        assert_eq!(ft.dropped_lines, 1, "{ft:?}");
        assert!(ft.first_bad_offset.is_some(), "{ft:?}");
        assert!(ft.store_healed, "{ft:?}");
    }

    #[test]
    fn sharded_scan_folds_back_into_one_warm_store() {
        let cfg = ScalingConfig {
            packages: 6,
            seed: 13,
            threads: vec![2],
            query_budget: 500_000,
        };
        let sharded = sharded_scan(&cfg);
        assert_eq!(sharded.shards, 4);
        assert_eq!(
            sharded.rows.len(),
            6,
            "cold baseline + four shards + merged warm"
        );
        // The shards partition the archive: fan-out files sum to the total.
        let fan_out_files: usize = sharded.rows[1..5].iter().map(|r| r.files).sum();
        assert_eq!(fan_out_files, sharded.files);
        // The merged-warm run replays every module without solver work and
        // streams byte-identical reports to the cold unsharded baseline.
        let warm = sharded.rows.last().unwrap();
        assert_eq!(warm.modules_skipped, warm.files);
        assert_eq!(warm.queries, 0, "{warm:?}");
        assert!((sharded.merged_warm_skip_rate - 1.0).abs() < 1e-9);
        assert!(sharded.merge_reports_identical);
        assert_eq!(warm.reports, sharded.rows[0].reports);
        // The merged stores hold every shard's state: one record per
        // function (5 per generated archive file), none colliding across
        // shards (every generated function name — and so every key — is
        // unique).
        assert_eq!(sharded.merged_scan_entries, sharded.files as u64 * 5);
        assert!(sharded.merged_query_entries > 0);
    }

    #[test]
    fn function_rescan_narrows_reanalysis_to_edited_functions() {
        let cfg = ScalingConfig {
            packages: 6,
            seed: 13,
            threads: vec![2],
            query_budget: 500_000,
        };
        let section = function_rescan(&cfg);
        assert_eq!(
            section.rows.len(),
            6,
            "two configurations x three churn levels"
        );
        assert!(section.reports_identical);
        for row in &section.rows {
            assert!(row.reports_identical, "{row:?}");
        }
        // 0% churn: the rescan replays everything.
        let zero_row = &section.rows[1];
        assert_eq!(zero_row.churn_pct, 0);
        assert_eq!(
            zero_row.functions_skipped, section.functions,
            "{zero_row:?}"
        );
        assert_eq!(zero_row.modules_skipped, zero_row.files, "{zero_row:?}");
        assert_eq!(zero_row.queries, 0, "{zero_row:?}");
        // 5% churn: the rescan re-analyzes exactly the edited functions.
        let edited = (0.05 * section.functions as f64).round() as usize;
        let cold_row = &section.rows[2];
        let function_row = &section.rows[3];
        assert_eq!(function_row.churn_pct, 5);
        assert_eq!(function_row.functions_skipped, section.functions - edited);
        assert!(function_row.queries > 0);
        assert!(
            function_row.queries * 5 <= cold_row.queries,
            "the rescan must issue at least 5x fewer queries than cold ({} vs {})",
            function_row.queries,
            cold_row.queries
        );
        assert!((section.function_skip_rate_5pct - 0.95).abs() < 0.01);
        // Cross-path dedup must have saved real solver work.
        assert!(section.dedup_duplicate_files > 0);
        assert!(
            section.dedup_queries_saved > 0,
            "duplicated files must replay from the original's records"
        );
    }

    #[test]
    fn zero_churn_rescan_skips_everything_and_replays_identically() {
        let cfg = ScalingConfig {
            packages: 6,
            seed: 13,
            threads: vec![2],
            query_budget: 500_000,
        };
        let rescan = incremental_rescan(&cfg);
        assert_eq!(
            rescan.rows.len(),
            9,
            "three configurations x three churn levels"
        );
        assert!(rescan.reports_identical);
        // At 0% churn every module is unchanged: the rescan row skips all of
        // them and issues no solver query.
        let zero_rescan = &rescan.rows[2];
        assert_eq!(zero_rescan.churn_pct, 0);
        assert_eq!(zero_rescan.modules_skipped, zero_rescan.files);
        assert_eq!(zero_rescan.queries, 0);
        assert!((rescan.modules_skipped_rate - 1.0).abs() < 1e-9);
        // Cold and warm rows never skip; churned rescans skip exactly the
        // semantically unchanged remainder (cosmetic edits still hit).
        for row in &rescan.rows {
            if !row.label.contains("incremental rescan") {
                assert_eq!(row.modules_skipped, 0, "{}", row.label);
            } else {
                assert!(
                    row.queries < rescan.rows[0].queries,
                    "a rescan must re-analyze strictly less than cold does ({})",
                    row.label
                );
            }
        }
        let twenty_rescan = rescan.rows.last().unwrap();
        assert_eq!(twenty_rescan.churn_pct, 20);
        assert!(
            twenty_rescan.modules_skipped < twenty_rescan.files,
            "semantic churn must invalidate some modules"
        );
        assert!(twenty_rescan.modules_skipped > 0);
    }

    #[test]
    fn warm_scan_answers_from_the_disk_store() {
        let cfg = ScalingConfig {
            packages: 6,
            seed: 13,
            threads: vec![2],
            query_budget: 500_000,
        };
        let scan = scan_persistence(&cfg);
        assert_eq!(scan.rows.len(), 2);
        let (cold, warm) = (&scan.rows[0], &scan.rows[1]);
        assert!(!cold.warm);
        assert!(warm.warm);
        // Cold and warm runs do the same work and must report the same bugs,
        // byte for byte.
        assert_eq!(cold.queries, warm.queries);
        assert_eq!(cold.reports, warm.reports);
        assert!(scan.reports_identical);
        // The warm run starts from the cold run's saved entries and answers
        // (at least) 90% of its store lookups from disk — on this archive,
        // all of them: every decided query was persisted.
        assert!(scan.store_entries > 0);
        assert_eq!(warm.store_misses, 0, "{warm:?}");
        assert!(
            scan.warm_store_hit_rate >= 0.9,
            "warm hit rate {} below the 90% bar",
            scan.warm_store_hit_rate
        );
    }
}
