//! `stack-bench` — experiment harnesses that regenerate every table and
//! figure of the paper's evaluation (§2.3 and §6).
//!
//! Each `figure*`/`sec*` function returns a plain data structure and a
//! formatted text rendering; the binaries under `src/bin/` print them.
//! [`checker_scaling`] runs every `BENCH_checker.json` section, each scan
//! through one helper that reports `stack scan`'s summary as its row.

use serde::Serialize;
use stack_core::{
    Algorithm, AnalysisSession, Checker, CheckerConfig, ScanEvent, ScanPipeline, ScanSource,
    ScanStore, ScanSummary, ScanTask, UbKind,
};
use stack_corpus::{
    churn_archive, churn_functions, completeness_benchmark, duplicate_files, figure9_corpus,
    generate, generate_archive, ArchiveConfig, ArchiveFile, SynthConfig, UB_COLUMNS,
};
use stack_opt::{lowest_discarding_level, survey_compilers};
use stack_solver::DiskQueryStore;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
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
/// emitter): how large a synthetic population to analyze, which file-level
/// `jobs` widths to measure, and the per-query budget.
#[derive(Clone, Debug)]
pub struct ScalingConfig {
    /// Packages in the synthetic population (the fig16 workload shape).
    pub packages: usize,
    /// Population seed.
    pub seed: u64,
    /// Scan-pipeline widths to measure, one query-store row each; the
    /// widest also drives the other sections' scans.
    pub jobs: Vec<usize>,
    /// Per-query solver budget in propagations.
    pub query_budget: u64,
}

impl Default for ScalingConfig {
    fn default() -> ScalingConfig {
        ScalingConfig {
            packages: 24,
            seed: 47,
            jobs: vec![1, 2, 4],
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

/// The widest scan-pipeline width `cfg` measures (1 when it lists none).
fn widest_jobs(cfg: &ScalingConfig) -> usize {
    cfg.jobs.iter().copied().max().unwrap_or(1)
}

/// The checker configuration every section scans with unless it says
/// otherwise: the defaults under `cfg`'s query budget.
fn checker_config(cfg: &ScalingConfig) -> CheckerConfig {
    CheckerConfig {
        query_budget: cfg.query_budget,
        ..CheckerConfig::default()
    }
}

/// One scan task per generated archive file, in archive order.
fn archive_tasks<'a>(files: impl IntoIterator<Item = &'a ArchiveFile>) -> Vec<ScanTask> {
    files
        .into_iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect()
}

/// The fig16 synthetic population `cfg` describes, one scan task per file.
fn synth_tasks(cfg: &ScalingConfig) -> Vec<ScanTask> {
    let synth = SynthConfig {
        packages: cfg.packages,
        seed: cfg.seed,
        ..SynthConfig::default()
    };
    generate(&synth)
        .into_iter()
        .flat_map(|pkg| pkg.files)
        .map(|f| ScanTask {
            name: f.name,
            source: ScanSource::Inline(f.source),
        })
        .collect()
}

/// One row of a `BENCH_checker.json` section: one timed scan.
#[derive(Clone, Debug, Serialize)]
pub struct BenchRow {
    /// What the row measures.
    pub label: String,
    /// End-to-end scan wall clock (read, compile, optimize and check) in
    /// microseconds; what the speedups divide.
    pub wall_us: u64,
    /// The scan's summary, as `stack scan --json` reports it.
    pub summary: ScanSummary,
}

/// The disk stores one bench scan opens, and whether it saves them after
/// the run. Without a query store the session memoizes in memory (when
/// its configuration enables the store).
#[derive(Clone, Copy, Default)]
struct Stores<'a> {
    query: Option<&'a Path>,
    scan: Option<&'a Path>,
    save: bool,
}

/// Scan `tasks` through the file-parallel pipeline at `jobs` workers with
/// the stores `stores` names, as `stack scan` does, and time the run.
/// Returns the row and the `Debug`-rendered report stream.
fn measure(
    label: impl Into<String>,
    tasks: &[ScanTask],
    config: CheckerConfig,
    jobs: usize,
    stores: Stores<'_>,
) -> (BenchRow, Vec<String>) {
    let query_store = stores
        .query
        .map(|path| Arc::new(DiskQueryStore::open(path).expect("open bench query store")));
    let scan_store = stores
        .scan
        .map(|path| Arc::new(ScanStore::open(path).expect("open bench scan store")));
    let session = match &query_store {
        Some(store) => AnalysisSession::with_store(config, store.clone() as _),
        None => AnalysisSession::new(config),
    };
    let mut pipeline = ScanPipeline::new(&session, jobs);
    if let Some(store) = &scan_store {
        pipeline = pipeline.with_scan_store(store.clone());
    }
    let mut reports = Vec::new();
    let start = Instant::now();
    let outcome = pipeline.run(tasks, &mut |event| {
        if let ScanEvent::Report(report) = event {
            reports.push(format!("{report:?}"));
        }
    });
    let elapsed = start.elapsed();
    if stores.save {
        if let Some(store) = &query_store {
            store.save().expect("save bench query store");
        }
        if let Some(store) = &scan_store {
            store.save().expect("save bench scan store");
        }
    }
    let mut summary = ScanSummary::new(&outcome, &session.stats(), jobs, elapsed);
    summary.cache_file_loaded_entries = query_store.as_ref().map_or(0, |s| s.loaded_entries());
    summary.scan_cache_loaded_entries = scan_store.as_ref().map_or(0, |s| s.loaded_entries());
    let row = BenchRow {
        label: label.into(),
        wall_us: u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX),
        summary,
    };
    (row, reports)
}

/// `before`'s wall clock over `after`'s (>1 means `after` is faster).
fn speedup(before: &BenchRow, after: &BenchRow) -> f64 {
    before.wall_us.max(1) as f64 / after.wall_us.max(1) as f64
}

/// The fraction of a scan's modules replayed whole from the scan store.
fn modules_skipped_rate(summary: &ScanSummary) -> f64 {
    summary.modules_skipped as f64 / summary.files.max(1) as f64
}

/// A fresh directory for one section's store files in the system temp
/// directory, unique per process and call, removed with its contents when
/// dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new() -> TempDir {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "stack-bench-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create bench store directory");
        TempDir(path)
    }

    fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The cold-vs-warm archive-scan measurement: the same archive population
/// scanned twice through a disk-backed query store — once cold (empty
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
    pub rows: Vec<BenchRow>,
    /// Cold wall clock / warm wall clock (>1 means the store pays off).
    pub speedup_warm_vs_cold: f64,
    /// The warm run's store hit rate (the fraction of consulted queries
    /// answered from disk; the acceptance bar is ≥0.9).
    pub warm_store_hit_rate: f64,
    /// Whether the cold and warm runs produced byte-identical report
    /// streams (they must).
    pub reports_identical: bool,
}

/// Run the cold-vs-warm archive-scan measurement at the widest width.
pub fn scan_persistence(cfg: &ScalingConfig) -> ScanPersistence {
    let dir = TempDir::new();
    let store = dir.join("scan.qs");
    let archive_cfg = ArchiveConfig {
        packages: cfg.packages,
        ..ArchiveConfig::default()
    };
    let tasks = archive_tasks(&generate_archive(&archive_cfg));
    let (config, jobs) = (checker_config(cfg), widest_jobs(cfg));
    let stores = Stores {
        query: Some(&store),
        ..Stores::default()
    };
    let cold_stores = Stores {
        save: true,
        ..stores
    };
    let (cold, cold_reports) = measure(
        "archive scan (cold disk store)",
        &tasks,
        config,
        jobs,
        cold_stores,
    );
    let (warm, warm_reports) = measure(
        "archive scan (warm disk store)",
        &tasks,
        config,
        jobs,
        stores,
    );
    ScanPersistence {
        archive: format!(
            "overlap archive (packages={}, seed={:#x})",
            archive_cfg.packages, archive_cfg.seed
        ),
        files: cold.summary.files,
        functions: cold.summary.functions,
        store_entries: warm.summary.cache_file_loaded_entries,
        speedup_warm_vs_cold: speedup(&cold, &warm),
        warm_store_hit_rate: warm.summary.store_hit_rate,
        reports_identical: cold_reports == warm_reports,
        rows: vec![cold, warm],
    }
}

/// The incremental-rescan measurement: the same archive scanned after a
/// simulated evolution step (0%, 5%, 20% of files semantically changed,
/// plus comment/whitespace-only edits) under three configurations — cold
/// (no persistence), warm query store (every repeated query answered from
/// disk, but every module still lowered, keyed and driven through the
/// checker), and incremental re-scan (query store plus the replay-keyed
/// scan store: unchanged functions replay, and a module whose functions
/// all replay is skipped). This is the §6.5 deployment loop: the Debian
/// archive re-scanned as it evolves, where between runs almost nothing
/// changes.
#[derive(Clone, Debug, Serialize)]
pub struct IncrementalRescan {
    /// Workload description.
    pub archive: String,
    /// Files per scan.
    pub files: usize,
    /// File-level pipeline workers used by every run.
    pub jobs: usize,
    /// Three rows (cold / warm store / incremental rescan) per churn level.
    pub rows: Vec<BenchRow>,
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

/// Run the incremental-rescan measurement. One priming scan of the base
/// archive fills and saves the query store and the scan store (the
/// "previous run"); each measured configuration then reopens those files
/// and never saves them.
pub fn incremental_rescan(cfg: &ScalingConfig) -> IncrementalRescan {
    let dir = TempDir::new();
    let (query_store, scan_store) = (dir.join("rescan.qs"), dir.join("rescan.ss"));
    let archive_cfg = ArchiveConfig {
        packages: cfg.packages,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&archive_cfg);
    let (config, jobs) = (checker_config(cfg), widest_jobs(cfg));
    let warm = Stores {
        query: Some(&query_store),
        ..Stores::default()
    };
    let incremental = Stores {
        scan: Some(&scan_store),
        ..warm
    };
    let priming = Stores {
        save: true,
        ..incremental
    };
    measure("priming", &archive_tasks(&base), config, jobs, priming);

    let mut rows = Vec::new();
    let mut reports_identical = true;
    for churn_pct in [0u32, 5, 20] {
        let churned = churn_archive(&base, archive_cfg.seed, f64::from(churn_pct) / 100.0);
        let tasks = archive_tasks(&churned.files);
        let mut run = |label: &str, stores| {
            let (row, reports) = measure(
                format!("{churn_pct}% churn, {label}"),
                &tasks,
                config,
                jobs,
                stores,
            );
            rows.push(row);
            reports
        };
        let cold_reports = run("cold", Stores::default());
        let warm_reports = run("warm query store", warm);
        let rescan_reports = run("incremental rescan", incremental);
        reports_identical &= cold_reports == warm_reports && cold_reports == rescan_reports;
    }
    let speedup_rescan_vs_cold = speedup(&rows[0], &rows[2]);
    let speedup_rescan_vs_warm = speedup(&rows[1], &rows[2]);
    let modules_skipped_rate = modules_skipped_rate(&rows[2].summary);
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
/// unsharded scan.
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
    /// (fan-in).
    pub rows: Vec<BenchRow>,
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

/// Run the distributed-scan measurement.
pub fn sharded_scan(cfg: &ScalingConfig) -> ShardedScan {
    const SHARDS: usize = 4;
    let dir = TempDir::new();
    let shard_stores: Vec<(PathBuf, PathBuf)> = (0..SHARDS)
        .map(|i| {
            (
                dir.join(&format!("shard-{i}.qs")),
                dir.join(&format!("shard-{i}.ss")),
            )
        })
        .collect();
    let (merged_qs, merged_ss) = (dir.join("merged.qs"), dir.join("merged.ss"));
    let archive_cfg = ArchiveConfig {
        packages: cfg.packages,
        ..ArchiveConfig::default()
    };
    let archive = generate_archive(&archive_cfg);
    let tasks = archive_tasks(&archive);
    let (config, jobs) = (checker_config(cfg), widest_jobs(cfg));

    let (cold, cold_reports) = measure(
        "unsharded, cold (baseline)",
        &tasks,
        config,
        jobs,
        Stores::default(),
    );
    let mut rows = vec![cold];
    for (shard, (qs, ss)) in shard_stores.iter().enumerate() {
        // The same content-keyed partition `stack scan --shard i/n` applies.
        let files = archive.iter().filter(|f| {
            stack_core::shard_assignment(stack_core::content_key(f.source.as_bytes()), SHARDS)
                == shard
        });
        let stores = Stores {
            query: Some(qs),
            scan: Some(ss),
            save: true,
        };
        let label = format!("shard {}/{SHARDS}, cold fan-out", shard + 1);
        rows.push(measure(label, &archive_tasks(files), config, jobs, stores).0);
    }

    let (qs_inputs, ss_inputs): (Vec<PathBuf>, Vec<PathBuf>) = shard_stores.into_iter().unzip();
    let query_stats =
        DiskQueryStore::merge(&merged_qs, &qs_inputs, None).expect("merge shard query stores");
    let scan_stats =
        ScanStore::merge(&merged_ss, &ss_inputs, None).expect("merge shard scan stores");
    let merged = Stores {
        query: Some(&merged_qs),
        scan: Some(&merged_ss),
        save: false,
    };
    let (warm, warm_reports) = measure(
        "unsharded, warm from merged stores",
        &tasks,
        config,
        jobs,
        merged,
    );
    let speedup_merged_warm_vs_cold = speedup(&rows[0], &warm);
    let merged_warm_skip_rate = modules_skipped_rate(&warm.summary);
    rows.push(warm);

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
        speedup_merged_warm_vs_cold,
        merged_warm_skip_rate,
        merge_reports_identical: cold_reports == warm_reports,
    }
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
    pub rows: Vec<BenchRow>,
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

/// Run the per-function incremental-rescan measurement. One priming scan
/// of the base archive fills and saves the scan store (the "previous
/// run"); the churn rows then reopen that file and never save it. No query
/// store is attached anywhere in this section, so `queries` counts exactly
/// the functions that were actually driven through the solver.
pub fn function_rescan(cfg: &ScalingConfig) -> FunctionRescan {
    let dir = TempDir::new();
    let (primed, dedup) = (dir.join("fnrescan.ss"), dir.join("dedup.ss"));
    // Wider files than the default archive: 12 functions each, so one
    // edited function leaves 11 siblings to replay.
    let archive_cfg = ArchiveConfig {
        packages: cfg.packages,
        functions_per_file: 12,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&archive_cfg);
    let (config, jobs) = (checker_config(cfg), widest_jobs(cfg));
    let rescan = Stores {
        scan: Some(&primed),
        ..Stores::default()
    };
    let priming = Stores {
        save: true,
        ..rescan
    };
    measure("priming", &archive_tasks(&base), config, jobs, priming);

    let mut rows = Vec::new();
    let mut reports_identical = true;
    let mut functions = 0usize;
    for churn_pct in [0u32, 5, 20] {
        let churned = churn_functions(&base, archive_cfg.seed, f64::from(churn_pct) / 100.0);
        functions = churned.total_functions;
        let tasks = archive_tasks(&churned.files);
        let label = |what: &str| format!("{churn_pct}% fn churn, {what}");
        let (cold, cold_reports) = measure(label("cold"), &tasks, config, jobs, Stores::default());
        let (warm, warm_reports) = measure(
            label("function-granular rescan"),
            &tasks,
            config,
            jobs,
            rescan,
        );
        reports_identical &= cold_reports == warm_reports;
        rows.extend([cold, warm]);
    }
    let five_pct = &rows[3].summary;
    let function_skip_rate_5pct =
        five_pct.functions_skipped as f64 / five_pct.functions.max(1) as f64;

    // Cross-path dedup: the archive plus vendored byte-identical copies,
    // scanned sequentially (jobs 1, so every duplicate scans after its
    // original) without any store, then with a fresh cold scan store.
    let dedup_copies = base.len().max(1);
    let extended = archive_tasks(&duplicate_files(&base, archive_cfg.seed, dedup_copies));
    let dedup_store = Stores {
        scan: Some(&dedup),
        ..Stores::default()
    };
    let (no_store, no_store_reports) = measure(
        "archive + duplicates, no store",
        &extended,
        config,
        1,
        Stores::default(),
    );
    let (with_store, with_store_reports) = measure(
        "archive + duplicates, cold scan store (dedup)",
        &extended,
        config,
        1,
        dedup_store,
    );
    reports_identical &= no_store_reports == with_store_reports;

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
        dedup_queries_saved: no_store
            .summary
            .queries
            .saturating_sub(with_store.summary.queries),
        reports_identical,
    }
}

/// The fault-tolerance measurement: the robustness counterpart of the
/// throughput sections. One workload is scanned under a deliberately tiny
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
    /// Whether the degraded scans at jobs 1 and at the widest width
    /// produced byte-identical report streams and equal summaries apart
    /// from the width, its re-run count and the wall clock (they must:
    /// budget exhaustion is deterministic, unlike a wall-clock timeout,
    /// and the scan pipeline gives every module the store a sequential
    /// scan would).
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

/// Run the fault-tolerance measurement: a budget-degraded scan at two
/// `jobs` widths, then a truncate-and-salvage round trip through the
/// disk-backed query store.
pub fn fault_tolerance(cfg: &ScalingConfig) -> FaultTolerance {
    // --- graceful degradation under a tiny budget -------------------------
    let tasks = synth_tasks(cfg);
    // Small enough that real queries exhaust it; budget exhaustion (unlike
    // the paper's 5-second wall-clock timeout) is deterministic, so the
    // two widths below must stream identical reports and count identical
    // solver work.
    let tiny_budget = 50u64;
    let degraded = CheckerConfig {
        query_budget: tiny_budget,
        ..CheckerConfig::default()
    };
    let widest = widest_jobs(cfg);
    let (narrow, narrow_reports) =
        measure("degraded, jobs 1", &tasks, degraded, 1, Stores::default());
    let (wide, wide_reports) = measure(
        "degraded, widest",
        &tasks,
        degraded,
        widest,
        Stores::default(),
    );
    let counters = |s: &ScanSummary| ScanSummary {
        jobs: 0,
        rerun_tasks: 0,
        elapsed_ms: 0,
        ..*s
    };

    // --- truncate-and-salvage round trip ---------------------------------
    let dir = TempDir::new();
    let store_path = dir.join("fault.qs");
    let fill = Stores {
        query: Some(&store_path),
        save: true,
        ..Stores::default()
    };
    measure("salvage fill", &tasks, checker_config(cfg), widest, fill);
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

    FaultTolerance {
        query_budget: tiny_budget,
        degraded_queries: narrow.summary.degraded_queries,
        degraded_modules: narrow.summary.degraded_modules,
        degraded_deterministic: narrow_reports == wide_reports
            && counters(&narrow.summary) == counters(&wide.summary),
        salvaged_entries,
        dropped_lines: salvage.dropped_lines,
        first_bad_offset: salvage.first_bad_offset,
        store_healed,
    }
}

/// The raw-solver-speed measurement: the high-churn archive scanned with
/// the query store disabled (no memo store, no disk stores), so every
/// query pays the solver and the section isolates per-query solver cost.
#[derive(Clone, Debug, Serialize)]
pub struct SolverSpeed {
    /// Description of the synthetic archive scanned.
    pub archive: String,
    /// Churn rate applied to the base archive before scanning.
    pub churn_pct: u32,
    /// Per-query propagation budget.
    pub query_budget: u64,
    /// The one measured scan; its summary carries the solver counters.
    pub rows: Vec<BenchRow>,
}

/// Run the solver-speed measurement at the widest width. The store is
/// disabled (no memo store, no disk stores) so the scan is the pure worst
/// case — a high-churn tree where nothing can be reused — and every store
/// miss is solved on the function's incremental instance.
pub fn solver_speed(cfg: &ScalingConfig) -> SolverSpeed {
    const CHURN_PCT: u32 = 20;
    let archive_cfg = ArchiveConfig {
        packages: cfg.packages,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&archive_cfg);
    let churned = churn_archive(&base, archive_cfg.seed, f64::from(CHURN_PCT) / 100.0);
    let config = CheckerConfig {
        query_cache: false,
        ..checker_config(cfg)
    };
    let (row, _) = measure(
        "store disabled",
        &archive_tasks(&churned.files),
        config,
        widest_jobs(cfg),
        Stores::default(),
    );
    SolverSpeed {
        archive: format!("{} packages, seed {}", cfg.packages, archive_cfg.seed),
        churn_pct: CHURN_PCT,
        query_budget: cfg.query_budget,
        rows: vec![row],
    }
}

/// Results of the checker-scaling benchmark: the store-off seed scan at
/// jobs 1 as the baseline, then a query-store scan at each requested
/// `jobs` width.
#[derive(Clone, Debug, Serialize)]
pub struct CheckerScaling {
    /// Workload description.
    pub population: String,
    /// Packages generated.
    pub packages: usize,
    /// Files scanned.
    pub files: usize,
    /// Functions analyzed per configuration run.
    pub functions: usize,
    /// Measured configurations; row 0 is the seed baseline.
    pub rows: Vec<BenchRow>,
    /// Baseline wall clock / best non-seed wall clock.
    pub speedup_vs_seed: f64,
    /// Label of the fastest non-seed configuration.
    pub best_label: String,
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
    /// The raw-solver-speed measurement on a store-disabled high-churn
    /// scan (CI fails the bench job if the section goes missing).
    pub solver_speed: SolverSpeed,
}

/// Run the checker-scaling benchmark: scan one synthetic population
/// through the [`ScanPipeline`] under (a) the seed configuration, jobs 1
/// with the query store off, and (b) the query store on at each width in
/// `cfg.jobs`, then run every other section. Each row runs on a fresh
/// session, so rows are comparable and independent of run order.
pub fn checker_scaling(cfg: &ScalingConfig) -> CheckerScaling {
    let tasks = synth_tasks(cfg);
    let seed = CheckerConfig {
        query_cache: false,
        ..checker_config(cfg)
    };
    let (seed_row, _) = measure(
        "seed (jobs 1, no query store)",
        &tasks,
        seed,
        1,
        Stores::default(),
    );
    let mut rows = vec![seed_row];
    for &jobs in &cfg.jobs {
        let label = format!("{jobs} job(s) + query store");
        rows.push(measure(label, &tasks, checker_config(cfg), jobs, Stores::default()).0);
    }

    let best = rows[1..]
        .iter()
        .min_by_key(|r| r.wall_us)
        .expect("at least one jobs width");
    CheckerScaling {
        population: format!(
            "fig16 synthetic population (packages={}, seed={})",
            cfg.packages, cfg.seed
        ),
        packages: cfg.packages,
        files: tasks.len(),
        functions: rows[0].summary.functions,
        speedup_vs_seed: speedup(&rows[0], best),
        best_label: best.label.clone(),
        rows,
        scan: scan_persistence(cfg),
        rescan: incremental_rescan(cfg),
        function_rescan: function_rescan(cfg),
        sharded_scan: sharded_scan(cfg),
        fault_tolerance: fault_tolerance(cfg),
        solver_speed: solver_speed(cfg),
    }
}

/// Render rows in the one format every section shares.
fn render_rows(out: &mut String, rows: &[BenchRow]) {
    let _ = writeln!(
        out,
        "  {:<40} {:>8} {:>8} {:>8} {:>6} {:>7} {:>11} {:>11} {:>10}",
        "configuration",
        "wall(ms)",
        "queries",
        "hits",
        "hit%",
        "reports",
        "mods skip",
        "fns skip",
        "props"
    );
    for r in rows {
        let s = &r.summary;
        let _ = writeln!(
            out,
            "  {:<40} {:>8.1} {:>8} {:>8} {:>5.1}% {:>7} {:>5}/{:<5} {:>5}/{:<5} {:>10}",
            r.label,
            r.wall_us as f64 / 1000.0,
            s.queries,
            s.store_hits,
            100.0 * s.store_hit_rate,
            s.reports,
            s.modules_skipped,
            s.files,
            s.functions_skipped,
            s.functions,
            s.propagations
        );
    }
}

impl CheckerScaling {
    /// Render as aligned text tables, one per section.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "Checker scaling over {} ({} files, {} functions)",
            self.population, self.files, self.functions
        );
        render_rows(&mut out, &self.rows);
        let _ = writeln!(
            out,
            "  speedup vs seed path: {:.2}x ({})",
            self.speedup_vs_seed, self.best_label
        );
        let scan = &self.scan;
        let _ = writeln!(
            out,
            "Archive persistence over {} ({} files, {} functions, {} stored entries)",
            scan.archive, scan.files, scan.functions, scan.store_entries
        );
        render_rows(&mut out, &scan.rows);
        let _ = writeln!(
            out,
            "  warm vs cold scan: {:.2}x (reports identical: {})",
            scan.speedup_warm_vs_cold, scan.reports_identical
        );
        let rescan = &self.rescan;
        let _ = writeln!(
            out,
            "Incremental re-scan over {} ({} files, {} jobs)",
            rescan.archive, rescan.files, rescan.jobs
        );
        render_rows(&mut out, &rescan.rows);
        let _ = writeln!(
            out,
            "  rescan vs cold (0% churn): {:.2}x; vs warm store: {:.2}x; skip rate {:.0}%; \
             reports identical: {}",
            rescan.speedup_rescan_vs_cold,
            rescan.speedup_rescan_vs_warm,
            100.0 * rescan.modules_skipped_rate,
            rescan.reports_identical
        );
        let fr = &self.function_rescan;
        let _ = writeln!(
            out,
            "Per-function re-scan over {} ({} files, {} functions, {} jobs)",
            fr.archive, fr.files, fr.functions, fr.jobs
        );
        render_rows(&mut out, &fr.rows);
        let _ = writeln!(
            out,
            "  fn skip rate (5% fn churn) {:.1}%; dedup saved {} queries over {} duplicate \
             files; reports identical: {}",
            100.0 * fr.function_skip_rate_5pct,
            fr.dedup_queries_saved,
            fr.dedup_duplicate_files,
            fr.reports_identical
        );
        let sharded = &self.sharded_scan;
        let _ = writeln!(
            out,
            "Distributed scan over {} ({} files, {} shards, {} jobs)",
            sharded.archive, sharded.files, sharded.shards, sharded.jobs
        );
        render_rows(&mut out, &sharded.rows);
        let _ = writeln!(
            out,
            "  merged stores: {} query entries ({} shard duplicates), {} function records",
            sharded.merged_query_entries,
            sharded.merged_query_duplicates,
            sharded.merged_scan_entries
        );
        let _ = writeln!(
            out,
            "  merged-warm vs cold: {:.2}x; skip rate {:.0}%; reports identical: {}",
            sharded.speedup_merged_warm_vs_cold,
            100.0 * sharded.merged_warm_skip_rate,
            sharded.merge_reports_identical
        );
        let ft = &self.fault_tolerance;
        let _ = writeln!(
            out,
            "Fault tolerance (budget {} propagations; truncated disk store)",
            ft.query_budget
        );
        let _ = writeln!(
            out,
            "  degraded: {} queries fell back to Unknown across {} module(s); \
             deterministic across jobs widths: {}",
            ft.degraded_queries, ft.degraded_modules, ft.degraded_deterministic
        );
        let _ = writeln!(
            out,
            "  salvage: kept {} entries, dropped {} bad line(s) (first at byte offset {}); \
             healed on next save: {}",
            ft.salvaged_entries,
            ft.dropped_lines,
            ft.first_bad_offset
                .map_or("-".to_string(), |o| o.to_string()),
            ft.store_healed
        );
        let ss = &self.solver_speed;
        let _ = writeln!(
            out,
            "Solver speed over {} ({}% churn, query store disabled)",
            ss.archive, ss.churn_pct
        );
        render_rows(&mut out, &ss.rows);
        for s in ss.rows.iter().map(|r| &r.summary) {
            let _ = writeln!(
                out,
                "  {} conflicts, {} simulated, avg LBD {:.1}; {} cores, {} minimization \
                 queries saved",
                s.conflicts, s.simulated, s.avg_lbd, s.cores_recorded, s.minimization_queries_saved
            );
        }
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

/// Check a command line's flags before any work starts, and return its
/// positional arguments in order: the argument parsing of the `stack`
/// subcommands and of `bench_checker`. Every `--` argument must be one of
/// `value_flags`, which take the next argument as their value whatever it
/// looks like, or one of `switches`; any other is an error naming it.
pub fn positionals<'a>(
    args: &'a [String],
    value_flags: &[&str],
    switches: &[&str],
) -> Result<Vec<&'a str>, String> {
    let mut out = Vec::new();
    let mut rest = args.iter().map(String::as_str);
    while let Some(arg) = rest.next() {
        if value_flags.contains(&arg) {
            rest.next();
        } else if !arg.starts_with("--") {
            out.push(arg);
        } else if !switches.contains(&arg) {
            return Err(format!("unknown flag {arg}"));
        }
    }
    Ok(out)
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
            jobs: vec![1, 2],
            query_budget: 500_000,
        };
        let scaling = checker_scaling(&cfg);
        assert_eq!(scaling.rows.len(), 3); // seed + one query-store row per width
        assert!(scaling.functions > 0);
        // Every configuration must find exactly the same bugs.
        let seed = &scaling.rows[0].summary;
        let seed_queries = seed.queries + seed.minimization_queries_saved;
        for row in &scaling.rows {
            let s = &row.summary;
            assert_eq!(s.reports, seed.reports, "{}", row.label);
            // Core-seeded minimization skips queries the last extracted
            // assumption core proves irrelevant; every skip is accounted
            // for, so the issued + saved total is the same on every row.
            assert_eq!(
                s.queries + s.minimization_queries_saved,
                seed_queries,
                "{}",
                row.label
            );
            // Every row solves store misses on persistent instances, and
            // those must reuse loaded clauses across the Figure 8 loop.
            assert!(s.incremental_queries > 0, "{}", row.label);
            assert!(s.reused_clauses > 0, "{}", row.label);
        }
        // The seed row never consults the store; the store rows must get a
        // nonzero hit rate out of the repeated synthetic idioms.
        assert_eq!(seed.store_hits, 0);
        for row in &scaling.rows[1..] {
            assert!(row.summary.store_hit_rate > 0.0, "{}", row.label);
        }
        // The JSON payload is valid enough to round-trip its key fields.
        let json = scaling.to_json();
        assert!(json.contains("\"speedup_vs_seed\""));
        assert!(json.contains("\"store_hit_rate\""));
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
        // The solver-speed section must measure real work, and the Unsat
        // path must show it too: extracted cores.
        let ss = &scaling.solver_speed.rows[0].summary;
        assert!(ss.propagations > 0, "{ss:?}");
        assert!(ss.cores_recorded > 0, "{ss:?}");
        // Core-seeded minimization must actually skip queries somewhere in
        // the run: the scaling rows exercise the Figure 8 minimal-UB-set
        // loop on workloads with multi-condition minimizations.
        let saved: u64 = scaling
            .rows
            .iter()
            .map(|r| r.summary.minimization_queries_saved)
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
            jobs: vec![2],
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
        let fan_out_files: usize = sharded.rows[1..5].iter().map(|r| r.summary.files).sum();
        assert_eq!(fan_out_files, sharded.files);
        // The merged-warm run replays every module without solver work and
        // streams byte-identical reports to the cold unsharded baseline.
        let warm = &sharded.rows.last().unwrap().summary;
        assert_eq!(warm.modules_skipped, warm.files);
        assert_eq!(warm.queries, 0, "{warm:?}");
        assert!((sharded.merged_warm_skip_rate - 1.0).abs() < 1e-9);
        assert!(sharded.merge_reports_identical);
        assert_eq!(warm.reports, sharded.rows[0].summary.reports);
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
            jobs: vec![2],
            query_budget: 500_000,
        };
        let section = function_rescan(&cfg);
        assert_eq!(
            section.rows.len(),
            6,
            "two configurations x three churn levels"
        );
        // Every rescan row (and the dedup run) streamed its cold
        // reference's reports.
        assert!(section.reports_identical);
        // 0% churn: the rescan replays everything.
        let zero_row = &section.rows[1];
        let zero = &zero_row.summary;
        assert!(zero_row.label.starts_with("0% "), "{zero_row:?}");
        assert_eq!(zero.functions_skipped, section.functions, "{zero_row:?}");
        assert_eq!(zero.modules_skipped, zero.files, "{zero_row:?}");
        assert_eq!(zero.queries, 0, "{zero_row:?}");
        // 5% churn: the rescan re-analyzes exactly the edited functions.
        let edited = (0.05 * section.functions as f64).round() as usize;
        let cold = &section.rows[2].summary;
        let function_row = &section.rows[3];
        let rescan = &function_row.summary;
        assert!(function_row.label.starts_with("5% "), "{function_row:?}");
        assert_eq!(rescan.functions_skipped, section.functions - edited);
        assert!(rescan.queries > 0);
        assert!(
            rescan.queries * 5 <= cold.queries,
            "the rescan must issue at least 5x fewer queries than cold ({} vs {})",
            rescan.queries,
            cold.queries
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
            jobs: vec![2],
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
        let zero_row = &rescan.rows[2];
        let zero = &zero_row.summary;
        assert!(zero_row.label.starts_with("0% "), "{zero_row:?}");
        assert_eq!(zero.modules_skipped, zero.files);
        assert_eq!(zero.queries, 0);
        assert!((rescan.modules_skipped_rate - 1.0).abs() < 1e-9);
        // Cold and warm rows never skip; churned rescans skip exactly the
        // semantically unchanged remainder (cosmetic edits still hit).
        for row in &rescan.rows {
            if !row.label.contains("incremental rescan") {
                assert_eq!(row.summary.modules_skipped, 0, "{}", row.label);
            } else {
                assert!(
                    row.summary.queries < rescan.rows[0].summary.queries,
                    "a rescan must re-analyze strictly less than cold does ({})",
                    row.label
                );
            }
        }
        let twenty_row = rescan.rows.last().unwrap();
        let twenty = &twenty_row.summary;
        assert!(twenty_row.label.starts_with("20% "), "{twenty_row:?}");
        assert!(
            twenty.modules_skipped < twenty.files,
            "semantic churn must invalidate some modules"
        );
        assert!(twenty.modules_skipped > 0);
    }

    #[test]
    fn warm_scan_answers_from_the_disk_store() {
        let cfg = ScalingConfig {
            packages: 6,
            seed: 13,
            jobs: vec![2],
            query_budget: 500_000,
        };
        let scan = scan_persistence(&cfg);
        assert_eq!(scan.rows.len(), 2);
        let (cold, warm) = (&scan.rows[0].summary, &scan.rows[1].summary);
        // The cold run starts from an empty store; the warm run loads what
        // the cold run saved.
        assert_eq!(cold.cache_file_loaded_entries, 0);
        assert_eq!(warm.cache_file_loaded_entries, scan.store_entries);
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
