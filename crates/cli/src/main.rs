//! `stack` — command-line front end for the STACK unstable-code checker.
//!
//! Usage:
//!
//! ```text
//! stack check <file.mc> [options]                # analyze one file
//! stack scan  <dir|manifest> [options]           # batch-analyze many files
//! stack scan  --synth N [--seed S] [options]     # scan a generated archive
//! stack store merge <out> <in...> [--compact N] [--json]   # fold stores into one
//! stack store inspect <file> [--json]            # header/generation/entry report
//! stack store fsck <file> [--repair] [--json]    # check (and heal) a damaged store
//! stack gen-archive <dir> [--packages N] [--seed S] [--edit-functions K]
//! stack demo  <pattern-id>                       # analyze a built-in paper example
//! stack list                                     # list built-in examples
//! ```
//!
//! Shared analysis options: `--no-cache` disables the memoized query store
//! and `--include-macros` keeps macro-origin reports. `--cache-file <path>`
//! backs the query store with a disk file: existing entries warm-start the
//! run, and the (possibly grown) store is saved back on success — the
//! cross-run persistence mode that lets repeated archive scans skip almost
//! every solver query. A cache file written by a different encoder/solver
//! revision is detected and discarded, never trusted; a torn or truncated
//! file is *salvaged* — the checksummed intact entries load, the damage is
//! reported on stderr, and the next save heals the file (`stack store
//! fsck --repair` does the same without running an analysis).
//! `--query-budget N` caps each solver query at `N` propagations (the
//! paper's 5-second timeout, made deterministic; `0` = unlimited): a query
//! that exhausts the budget degrades to `Unknown` — counted, never
//! reported as a bug, never cached — and its module is counted as
//! degraded and never recorded in the scan cache.
//!
//! `check` analyzes its one file sequentially. `scan` parallelizes only
//! across files: `--jobs N` runs `N` file-level workers (default: available
//! parallelism), each checking one module's functions in order. `--scan-cache
//! <path>` persists per-function results keyed by path-independent replay
//! key so an edited module replays its unchanged functions and only the
//! edited functions hit the solver (an unchanged module is skipped
//! entirely, a byte-identical file replays without being compiled, and
//! identical vendored files share one analysis across paths),
//! `--compact-store N` prunes entries unused for `N` scans from
//! the `--cache-file` and `--scan-cache` stores when they are saved, and
//! `--shard i/n` (1-based) analyzes only the modules a stable
//! hash of each input's *content* assigns to shard `i` of `n` — the
//! fan-out half of a distributed scan whose per-shard stores
//! `stack store merge` later folds back into one. Output — reports and
//! every summary counter — equals `--jobs 1` output at any width and any
//! query budget. Flag combinations are validated before any work starts:
//! an unknown flag is rejected by every subcommand (flags may come before
//! or after the path), scan-only flags are
//! rejected by `check`, an input the command would ignore (a second path,
//! a path beside `--synth`, `--seed` without `--synth`) is rejected, and
//! `--compact-store` without `--cache-file` or `--scan-cache` is an
//! immediate usage error.
//!
//! Exit codes: `check` exits 0 with no reports, 1 with reports, 2 on any
//! error. `scan` is a batch driver: it exits 0 when every file was analyzed
//! (reports or not) and 2 when any file failed to read or compile, or any
//! I/O (cache-file, `--out`) operation failed.

use serde::Serialize;
use stack_bench::{no_positionals, positionals};
use stack_core::scanstore::ScanCodec;
use stack_core::{
    faultinject, AnalysisSession, CheckerConfig, ScanEvent, ScanPipeline, ScanSource, ScanStore,
    ScanSummary, ScanTask,
};
use stack_solver::recordfile::Codec;
use stack_solver::store::QueryCodec;
use stack_solver::{DiskQueryStore, RecordFile};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("check") => cmd_check(&args[1..]),
        Some("scan") => cmd_scan(&args[1..]),
        Some("store") => cmd_store(&args[1..]),
        Some("gen-archive") => cmd_gen_archive(&args[1..]),
        Some("demo") => cmd_demo(&args[1..]),
        Some("list") => cmd_list(&args[1..]),
        _ => {
            eprintln!("usage: stack <check|scan|store|gen-archive|demo|list> ...");
            ExitCode::from(2)
        }
    }
}

// ---- shared option parsing --------------------------------------------------

/// Which command is parsing — `check` rejects scan-only flags up front
/// instead of silently ignoring them (or, worse, erroring after the
/// analysis already ran).
#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Check,
    Scan,
}

/// The flags only `scan` understands, rejected by `check` at parse time.
/// Each takes a value.
const SCAN_ONLY_FLAGS: [&str; 5] = ["--jobs", "--scan-cache", "--shard", "--synth", "--seed"];

/// The flags `check` and `scan` share that take a value.
const VALUE_FLAGS: [&str; 4] = ["--query-budget", "--cache-file", "--out", "--compact-store"];

/// The flags `check` and `scan` share that take no value.
const SWITCHES: [&str; 4] = ["--json", "--include-macros", "--no-cache", "--quiet"];

/// Options shared by `check` and `scan`.
#[derive(Debug)]
struct AnalysisOpts {
    /// The one path the command analyzes (`None` for `scan --synth`).
    input: Option<String>,
    json: bool,
    include_macros: bool,
    query_cache: bool,
    /// Per-query propagation budget (`Some(0)` = unlimited).
    query_budget: Option<u64>,
    cache_file: Option<PathBuf>,
    out: Option<PathBuf>,
    quiet: bool,
    /// `scan` only: file-level workers (default: available parallelism).
    jobs: usize,
    /// `scan` only: the persisted report cache behind incremental re-scan.
    scan_cache: Option<PathBuf>,
    /// Compaction horizon for the `--cache-file` and `--scan-cache` stores.
    compact_store: Option<u64>,
    /// `scan` only: `--shard i/n` as (1-based index, count).
    shard: Option<(usize, usize)>,
}

impl AnalysisOpts {
    /// Parse and validate every flag combination before any work starts:
    /// a bad invocation must exit 2 with a usage message immediately, not
    /// after a long scan already ran.
    fn parse(args: &[String], mode: Mode) -> Result<AnalysisOpts, String> {
        if mode == Mode::Check {
            if let Some(flag) = SCAN_ONLY_FLAGS.iter().find(|f| has_flag(args, f)) {
                return Err(format!("{flag} is a scan-only flag (use `stack scan`)"));
            }
        }
        let inputs = positionals(
            args,
            &[&VALUE_FLAGS[..], &SCAN_ONLY_FLAGS].concat(),
            &SWITCHES,
        )?;
        let synth = has_flag(args, "--synth");
        match (mode, inputs.as_slice()) {
            (Mode::Check, [_, extra, ..]) => {
                return Err(format!(
                    "unexpected argument `{extra}`: `stack check` analyzes one file (use \
                     `stack scan` for several)"
                ))
            }
            (Mode::Scan, [_, extra, ..]) => {
                return Err(format!(
                    "unexpected argument `{extra}`: `stack scan` takes one directory, manifest \
                     or file"
                ))
            }
            (Mode::Scan, [input]) if synth => {
                return Err(format!(
                    "unexpected argument `{input}`: --synth scans a generated archive, not a path"
                ))
            }
            _ => {}
        }
        if has_flag(args, "--seed") && !synth {
            return Err("--seed applies only to a --synth archive".to_string());
        }
        let jobs = match parse_flag_value::<usize>(args, "--jobs")? {
            Some(0) => return Err("--jobs needs a positive integer".to_string()),
            other => other,
        };
        let cache_file = flag_value(args, "--cache-file")?.map(PathBuf::from);
        let compact_store = match parse_flag_value::<u64>(args, "--compact-store")? {
            Some(0) => return Err("--compact-store needs a positive integer".to_string()),
            other => other,
        };
        let scan_cache = flag_value(args, "--scan-cache")?.map(PathBuf::from);
        if compact_store.is_some() && cache_file.is_none() && scan_cache.is_none() {
            return Err(
                "--compact-store requires --cache-file or --scan-cache (it prunes those stores)"
                    .to_string(),
            );
        }
        let shard = match flag_value(args, "--shard")? {
            Some(text) => Some(parse_shard(text)?),
            None => None,
        };
        Ok(AnalysisOpts {
            input: inputs.first().map(|input| input.to_string()),
            json: has_flag(args, "--json"),
            include_macros: has_flag(args, "--include-macros"),
            query_cache: !has_flag(args, "--no-cache"),
            query_budget: parse_flag_value::<u64>(args, "--query-budget")?,
            cache_file,
            out: flag_value(args, "--out")?.map(PathBuf::from),
            quiet: has_flag(args, "--quiet"),
            jobs: jobs.unwrap_or_else(|| {
                std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
            }),
            scan_cache,
            compact_store,
            shard,
        })
    }

    fn config(&self) -> CheckerConfig {
        let defaults = CheckerConfig::default();
        CheckerConfig {
            report_compiler_generated: self.include_macros,
            query_cache: self.query_cache,
            query_budget: self.query_budget.unwrap_or(defaults.query_budget),
            ..defaults
        }
    }

    /// Build the session, opening the disk-backed store when `--cache-file`
    /// was given. Returns the store handle too, so the caller can save it.
    fn open_session(&self) -> Result<(AnalysisSession, Option<Arc<DiskQueryStore>>), String> {
        match &self.cache_file {
            Some(path) => {
                let store = Arc::new(
                    DiskQueryStore::open(path)
                        .map_err(|e| format!("cannot open cache file {}: {e}", path.display()))?,
                );
                if store.was_invalidated() {
                    eprintln!(
                        "stack: cache file {} was written by a different encoder/solver \
                         revision; starting cold",
                        path.display()
                    );
                }
                if let Some(salvage) = store.salvage() {
                    eprintln!(
                        "stack: cache file {}: {}",
                        path.display(),
                        render_salvage(salvage)
                    );
                }
                store.set_compaction(self.compact_store);
                Ok((
                    AnalysisSession::with_store(self.config(), store.clone() as _),
                    Some(store),
                ))
            }
            None => Ok((AnalysisSession::new(self.config()), None)),
        }
    }

    /// Open the persisted report cache when `--scan-cache` was given.
    fn open_scan_store(&self) -> Result<Option<Arc<ScanStore>>, String> {
        let Some(path) = &self.scan_cache else {
            return Ok(None);
        };
        let store = Arc::new(
            ScanStore::open(path)
                .map_err(|e| format!("cannot open scan cache {}: {e}", path.display()))?,
        );
        if store.was_invalidated() {
            eprintln!(
                "stack: scan cache {} was written by a different revision; starting cold",
                path.display()
            );
        }
        if let Some(salvage) = store.salvage() {
            eprintln!(
                "stack: scan cache {}: {}",
                path.display(),
                render_salvage(salvage)
            );
        }
        store.set_compaction(self.compact_store);
        Ok(Some(store))
    }
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parse `--shard i/n` (1-based): `2/4` means "analyze the second of four
/// deterministic content-keyed partitions".
fn parse_shard(text: &str) -> Result<(usize, usize), String> {
    let parsed = text
        .split_once('/')
        .and_then(|(i, n)| Some((i.parse::<usize>().ok()?, n.parse::<usize>().ok()?)));
    match parsed {
        Some((index, count)) if count > 0 && (1..=count).contains(&index) => Ok((index, count)),
        _ => Err(format!(
            "--shard: expected i/n with 1 <= i <= n (e.g. 2/4), got `{text}`"
        )),
    }
}

/// Keep only the tasks the content-keyed partition assigns to `index` (of
/// `count`). The key hashes each input's raw bytes — never its position in
/// the list — so shard membership survives the archive growing or files
/// moving, and every shard of a fan-out computes the same partition
/// without coordination. An unreadable path falls back to hashing the task
/// name, so the file still belongs to exactly one shard and exactly one
/// shard reports its failure.
fn shard_tasks(tasks: Vec<ScanTask>, index: usize, count: usize) -> Vec<ScanTask> {
    tasks
        .into_iter()
        .filter(|task| {
            let key = match &task.source {
                ScanSource::Inline(source) => stack_core::content_key(source.as_bytes()),
                ScanSource::Path(path) => match std::fs::read(path) {
                    Ok(bytes) => stack_core::content_key(&bytes),
                    Err(_) => stack_core::content_key(task.name.as_bytes()),
                },
            };
            stack_core::shard_assignment(key, count) == index - 1
        })
        .collect()
}

/// The value following a `--flag value` pair, if the flag is present.
fn flag_value<'a>(args: &'a [String], name: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == name) {
        Some(i) => match args.get(i + 1) {
            Some(v) => Ok(Some(v)),
            None => Err(format!("{name} needs a value")),
        },
        None => Ok(None),
    }
}

fn parse_flag_value<T: std::str::FromStr>(
    args: &[String],
    name: &str,
) -> Result<Option<T>, String> {
    match flag_value(args, name)? {
        Some(text) => text
            .parse()
            .map(Some)
            .map_err(|_| format!("{name}: cannot parse `{text}`")),
        None => Ok(None),
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("stack: {message}");
    ExitCode::from(2)
}

/// Write `content` to `path`, mapping failures to a user-facing error.
fn write_output(path: &Path, content: &str) -> Result<(), String> {
    std::fs::write(path, content).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

/// One stderr-ready sentence describing what the salvage path recovered
/// from a damaged store body (the fault-tolerance CI smoke greps for
/// "salvaged").
fn render_salvage(salvage: &stack_solver::SalvageReport) -> String {
    format!(
        "store body was damaged; salvaged {} entr{} and dropped {} bad line{} (first at byte \
         offset {}); the next save repairs the file",
        salvage.salvaged_entries,
        if salvage.salvaged_entries == 1 {
            "y"
        } else {
            "ies"
        },
        salvage.dropped_lines,
        if salvage.dropped_lines == 1 { "" } else { "s" },
        salvage.first_bad_offset.unwrap_or(0)
    )
}

/// Save a disk-backed store, reporting how many entries were persisted.
fn save_store(store: &Arc<DiskQueryStore>, quiet: bool) -> Result<(), String> {
    let entries = store
        .save()
        .map_err(|e| format!("cannot save cache file {}: {e}", store.path().display()))?;
    if !quiet {
        eprintln!(
            "stack: saved {entries} cache entries to {}",
            store.path().display()
        );
    }
    Ok(())
}

// ---- check ------------------------------------------------------------------

fn cmd_check(args: &[String]) -> ExitCode {
    let opts = match AnalysisOpts::parse(args, Mode::Check) {
        Ok(opts) => opts,
        Err(e) => return fail(&e),
    };
    let Some(path) = &opts.input else {
        eprintln!(
            "usage: stack check <file.mc> [--json] [--include-macros] [--no-cache] \
             [--query-budget N] [--cache-file F] [--compact-store N] [--out F] [--quiet]"
        );
        return ExitCode::from(2);
    };
    let source = match std::fs::read_to_string(path) {
        Ok(s) => s,
        Err(e) => return fail(&format!("cannot read {path}: {e}")),
    };
    let (session, store) = match opts.open_session() {
        Ok(pair) => pair,
        Err(e) => return fail(&e),
    };
    let result = match session.check_source(&source, path) {
        Ok(result) => result,
        Err(e) => return fail(&format!("{path}: {e}")),
    };
    if opts.json {
        let json = match serde_json::to_string_pretty(&result.reports) {
            Ok(json) => json,
            Err(e) => return fail(&format!("cannot serialize reports: {e}")),
        };
        match &opts.out {
            Some(out) => {
                if let Err(e) = write_output(out, &json) {
                    return fail(&e);
                }
            }
            None => println!("{json}"),
        }
    } else {
        let mut rendered = String::new();
        for report in &result.reports {
            rendered.push_str(&report.to_string());
        }
        match &opts.out {
            Some(out) => {
                if let Err(e) = write_output(out, &rendered) {
                    return fail(&e);
                }
            }
            None => print!("{rendered}"),
        }
        eprintln!(
            "stack: {} report(s), {} queries, {} timeouts",
            result.reports.len(),
            result.stats.queries,
            result.stats.timeouts
        );
    }
    if let Some(store) = &store {
        if let Err(e) = save_store(store, opts.quiet) {
            return fail(&e);
        }
    }
    if result.reports.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

// ---- scan -------------------------------------------------------------------

fn cmd_scan(args: &[String]) -> ExitCode {
    let opts = match AnalysisOpts::parse(args, Mode::Scan) {
        Ok(opts) => opts,
        Err(e) => return fail(&e),
    };
    let mut tasks = match gather_scan_sources(args, opts.input.as_deref()) {
        Ok(tasks) => tasks,
        Err(e) => return fail(&e),
    };
    if let Some((index, count)) = opts.shard {
        let before = tasks.len();
        tasks = shard_tasks(tasks, index, count);
        if !opts.quiet && !opts.json {
            eprintln!(
                "stack: shard {index}/{count} owns {} of {before} modules",
                tasks.len()
            );
        }
    }
    if tasks.is_empty() {
        return fail("nothing to scan (no .mc/.c files found, or the shard is empty)");
    }
    let (session, store) = match opts.open_session() {
        Ok(pair) => pair,
        Err(e) => return fail(&e),
    };
    let scan_store = match opts.open_scan_store() {
        Ok(scan_store) => scan_store,
        Err(e) => return fail(&e),
    };
    let start = Instant::now();
    let quiet = opts.quiet || opts.json;
    let mut pipeline = ScanPipeline::new(&session, opts.jobs);
    if let Some(scan_store) = &scan_store {
        pipeline = pipeline.with_scan_store(Arc::clone(scan_store));
    }
    if let Ok(fragment) = std::env::var(faultinject::PANIC_ENV) {
        if !fragment.is_empty() {
            pipeline = pipeline.with_injected_panic(fragment);
        }
    }
    let outcome = pipeline.run(&tasks, &mut |event| match event {
        ScanEvent::Report(report) => {
            if !quiet {
                print!("{report}");
            }
        }
        ScanEvent::Failure { name, error } => eprintln!("stack: {name}: {error}"),
    });
    let mut summary = ScanSummary::new(&outcome, &session.stats(), opts.jobs, start.elapsed());
    summary.cache_file_loaded_entries = store.as_ref().map_or(0, |s| s.loaded_entries());
    summary.scan_cache_loaded_entries = scan_store.as_ref().map_or(0, |s| s.loaded_entries());
    (summary.shard_index, summary.shard_count) = opts.shard.unwrap_or((1, 1));
    let rendered = if opts.json {
        match serde_json::to_string_pretty(&summary) {
            Ok(json) => json,
            Err(e) => return fail(&format!("cannot serialize summary: {e}")),
        }
    } else {
        render_scan_summary(&summary, scan_store.is_some())
    };
    match &opts.out {
        Some(out) => {
            if let Err(e) = write_output(out, &rendered) {
                return fail(&e);
            }
        }
        None => println!("{rendered}"),
    }
    if let Some(store) = &store {
        if let Err(e) = save_store(store, opts.quiet) {
            return fail(&e);
        }
    }
    if let Some(scan_store) = &scan_store {
        match scan_store.save() {
            Ok(_) => {
                if !opts.quiet {
                    eprintln!(
                        "stack: saved {} function records and {} file records to {}",
                        scan_store.function_records(),
                        scan_store.file_records(),
                        scan_store.path().display()
                    );
                }
            }
            Err(e) => {
                return fail(&format!(
                    "cannot save scan cache {}: {e}",
                    scan_store.path().display()
                ))
            }
        }
    }
    if outcome.failures > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

/// Whether a path names a single source file `scan` should analyze directly
/// (rather than interpret as a manifest).
fn is_source_path(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("mc") | Some("c")
    )
}

/// Resolve what `scan` should analyze: `--synth N` generates the archive
/// population in memory; a directory is walked for `.mc`/`.c` files (sorted,
/// so runs are deterministic); a single `.mc`/`.c` path is scanned as-is;
/// any other path is read as a manifest listing one source path per line
/// (`#` comments allowed). Sources are returned as paths and only read once
/// a pipeline worker reaches them, so one unreadable file fails that file,
/// not the scan.
fn gather_scan_sources(args: &[String], input: Option<&str>) -> Result<Vec<ScanTask>, String> {
    if let Some(packages) = parse_flag_value::<usize>(args, "--synth")? {
        if packages == 0 {
            return Err("--synth needs a positive package count".to_string());
        }
        let cfg = stack_corpus::ArchiveConfig {
            packages,
            seed: parse_flag_value::<u64>(args, "--seed")?
                .unwrap_or(stack_corpus::ArchiveConfig::default().seed),
            ..stack_corpus::ArchiveConfig::default()
        };
        return Ok(stack_corpus::generate_archive(&cfg)
            .into_iter()
            .map(|f| ScanTask {
                name: f.name,
                source: ScanSource::Inline(f.source),
            })
            .collect());
    }
    let Some(root) = input else {
        return Err(
            "usage: stack scan <dir|manifest|file.mc> | --synth N  [--seed S] [--cache-file F] \
             [--scan-cache F] [--jobs N] [--query-budget N] [--compact-store N] [--shard i/n] \
             [--no-cache] [--include-macros] [--json] [--out F] [--quiet]"
                .to_string(),
        );
    };
    let root = PathBuf::from(root);
    let paths: Vec<PathBuf> = if root.is_dir() {
        let entries = std::fs::read_dir(&root)
            .map_err(|e| format!("cannot read directory {}: {e}", root.display()))?;
        let mut paths: Vec<PathBuf> = entries
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| is_source_path(p))
            .collect();
        paths.sort();
        paths
    } else if is_source_path(&root) {
        vec![root]
    } else {
        let manifest = std::fs::read_to_string(&root)
            .map_err(|e| format!("cannot read manifest {}: {e}", root.display()))?;
        manifest
            .lines()
            .map(str::trim)
            .filter(|l| !l.is_empty() && !l.starts_with('#'))
            .map(PathBuf::from)
            .collect()
    };
    Ok(paths
        .into_iter()
        .map(|p| ScanTask {
            name: p.display().to_string(),
            source: ScanSource::Path(p),
        })
        .collect())
}

fn render_scan_summary(summary: &ScanSummary, incremental_scan: bool) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "scan summary");
    if summary.shard_count > 1 {
        let _ = writeln!(
            out,
            "  shard           {:>8}  (of {})",
            summary.shard_index, summary.shard_count
        );
    }
    let _ = writeln!(
        out,
        "  files           {:>8}  ({} failed)",
        summary.files, summary.failures
    );
    if incremental_scan {
        let _ = writeln!(
            out,
            "  skipped {} unchanged modules ({:.1}% of {})",
            summary.modules_skipped,
            100.0 * summary.modules_skipped as f64 / summary.files.max(1) as f64,
            summary.files
        );
        let _ = writeln!(
            out,
            "  replayed {} unchanged functions ({:.1}% of {})",
            summary.functions_skipped,
            100.0 * summary.functions_skipped as f64 / summary.functions.max(1) as f64,
            summary.functions
        );
        let _ = writeln!(
            out,
            "  replayed {} unchanged files without compiling ({:.1}% of {})",
            summary.files_replayed,
            100.0 * summary.files_replayed as f64 / summary.files.max(1) as f64,
            summary.files
        );
    }
    let _ = writeln!(out, "  functions       {:>8}", summary.functions);
    let _ = writeln!(out, "  reports         {:>8}", summary.reports);
    let _ = writeln!(
        out,
        "  queries         {:>8}  ({} timeouts)",
        summary.queries, summary.degraded_queries
    );
    let _ = writeln!(
        out,
        "  verdicts        {:>8} sat / {} unsat / {} degraded / {} simulated",
        summary.sat_queries, summary.unsat_queries, summary.degraded_queries, summary.simulated
    );
    if summary.degraded_modules > 0 {
        let _ = writeln!(
            out,
            "  degraded        {:>8} module(s) hit the query budget ({} queries fell back to \
             Unknown; results not persisted)",
            summary.degraded_modules, summary.degraded_queries
        );
    }
    let _ = writeln!(
        out,
        "  solver          {:>8} propagations, {} conflicts, {} restarts",
        summary.propagations, summary.conflicts, summary.restarts
    );
    let _ = writeln!(
        out,
        "  clause db       {:>8} learned (avg LBD {:.1}, {} evicted)",
        summary.learned_clauses, summary.avg_lbd, summary.deleted_clauses
    );
    let _ = writeln!(
        out,
        "  unsat cores     {:>8} recorded (avg size {:.1}), {} minimization queries saved",
        summary.cores_recorded, summary.avg_core_size, summary.minimization_queries_saved
    );
    let _ = writeln!(
        out,
        "  query store     {:>8} hits / {} misses ({:.1}% hit rate)",
        summary.store_hits,
        summary.store_misses,
        100.0 * summary.store_hit_rate
    );
    if summary.cache_file_loaded_entries > 0 {
        let _ = writeln!(
            out,
            "  cache file      {:>8} entries warm-started this scan",
            summary.cache_file_loaded_entries
        );
    }
    let reruns = match summary.rerun_tasks {
        0 => String::new(),
        n => format!(", {n} task(s) re-run"),
    };
    let _ = writeln!(
        out,
        "  elapsed         {:>8} ms  ({} job(s){reruns})",
        summary.elapsed_ms, summary.jobs
    );
    out.trim_end().to_string()
}

// ---- store ------------------------------------------------------------------

/// `MergeStats` in the shape `--json` emits (the vendored serde has no
/// map/foreign-type support, so the stats are restated locally).
#[derive(Serialize)]
struct MergeStatsJson {
    inputs: usize,
    entries_in: u64,
    entries_out: u64,
    duplicates: u64,
    pruned: u64,
    generation: u64,
}

const STORE_USAGE: [&str; 3] = [
    "usage: stack store merge <out> <in...> [--compact N] [--json]",
    "usage: stack store inspect <file> [--json]",
    "usage: stack store fsck <file> [--repair] [--json]",
];

/// A parsed `stack store` subcommand.
enum StoreOp {
    Merge {
        out: PathBuf,
        inputs: Vec<PathBuf>,
        compact: Option<u64>,
    },
    Inspect(PathBuf),
    Fsck {
        path: PathBuf,
        repair: bool,
    },
}

/// `stack store merge|inspect|fsck`: parse the subcommand, then run it on
/// the store kind the file's header names (for a merge, the first
/// input's; a mixed set trips the merge's own header check with a
/// found-vs-expected message).
fn cmd_store(args: &[String]) -> ExitCode {
    let usage = |line: usize| {
        eprintln!("{}", STORE_USAGE[line]);
        ExitCode::from(2)
    };
    let rest = args.get(1..).unwrap_or_default();
    let subcommand = args.first().map(String::as_str);
    let (value_flags, switches): (&[&str], &[&str]) = match subcommand {
        Some("merge") => (&["--compact"], &["--json"]),
        Some("inspect") => (&[], &["--json"]),
        Some("fsck") => (&[], &["--repair", "--json"]),
        _ => {
            eprintln!("{}", STORE_USAGE.join("\n"));
            return ExitCode::from(2);
        }
    };
    let paths = match positionals(rest, value_flags, switches) {
        Ok(paths) => paths,
        Err(e) => return fail(&e),
    };
    let op = match (subcommand, paths.as_slice()) {
        (Some("merge"), [out, inputs @ ..]) if !inputs.is_empty() => {
            let compact = match parse_flag_value::<u64>(rest, "--compact") {
                Ok(Some(0)) => return fail("--compact needs a positive integer"),
                Ok(other) => other,
                Err(e) => return fail(&e),
            };
            StoreOp::Merge {
                out: PathBuf::from(out),
                inputs: inputs.iter().map(PathBuf::from).collect(),
                compact,
            }
        }
        (Some("inspect"), [path]) => StoreOp::Inspect(PathBuf::from(path)),
        (Some("fsck"), [path]) => StoreOp::Fsck {
            path: PathBuf::from(path),
            repair: has_flag(rest, "--repair"),
        },
        (Some("merge"), _) => return usage(0),
        (Some("inspect"), _) => return usage(1),
        _ => return usage(2),
    };
    let path = match &op {
        StoreOp::Merge { inputs, .. } => &inputs[0],
        StoreOp::Inspect(path) | StoreOp::Fsck { path, .. } => path,
    };
    let json = has_flag(rest, "--json");
    match read_header(path) {
        Ok(header) if header.starts_with(QueryCodec::PREFIX) => {
            run_store_op::<QueryCodec>(&op, json)
        }
        Ok(header) if header.starts_with(ScanCodec::PREFIX) => run_store_op::<ScanCodec>(&op, json),
        Ok(header) => fail(&format!(
            "{}: not a stack store file (header `{header}`)",
            path.display()
        )),
        Err(e) => fail(&format!("cannot read {}: {e}", path.display())),
    }
}

/// The first line of the file at `path`: enough to tell the store kinds
/// apart without reading the rest.
fn read_header(path: &Path) -> std::io::Result<String> {
    use std::io::BufRead as _;
    let mut line = Vec::new();
    std::io::BufReader::new(std::fs::File::open(path)?).read_until(b'\n', &mut line)?;
    let header = String::from_utf8_lossy(&line);
    Ok(header.lines().next().unwrap_or("").to_string())
}

/// Run one `stack store` subcommand on files of the kind `C` reads.
fn run_store_op<C: Codec>(op: &StoreOp, json: bool) -> ExitCode {
    match op {
        StoreOp::Merge {
            out,
            inputs,
            compact,
        } => store_merge::<C>(out, inputs, *compact, json),
        StoreOp::Inspect(path) => store_inspect::<C>(path, json),
        StoreOp::Fsck { path, repair } => store_fsck::<C>(path, *repair, json),
    }
}

fn store_merge<C: Codec>(
    out: &Path,
    inputs: &[PathBuf],
    compact: Option<u64>,
    json: bool,
) -> ExitCode {
    let stats = match RecordFile::<C>::merge(out, inputs, compact) {
        Ok(stats) => stats,
        Err(e) => return fail(&e.to_string()),
    };
    if json {
        let stats = MergeStatsJson {
            inputs: stats.inputs,
            entries_in: stats.entries_in,
            entries_out: stats.entries_out,
            duplicates: stats.duplicates,
            pruned: stats.pruned,
            generation: stats.generation,
        };
        match serde_json::to_string_pretty(&stats) {
            Ok(json) => println!("{json}"),
            Err(e) => return fail(&format!("cannot serialize merge stats: {e}")),
        }
    } else {
        println!(
            "stack: merged {} stores into {}: {} entries in, {} out \
             ({} duplicates, {} pruned; generation {})",
            stats.inputs,
            out.display(),
            stats.entries_in,
            stats.entries_out,
            stats.duplicates,
            stats.pruned,
            stats.generation
        );
    }
    ExitCode::SUCCESS
}

/// One `last_used` histogram bucket of the `--json` inspection shape.
#[derive(Serialize)]
struct LastUsedJson {
    generation: u64,
    entries: u64,
}

/// `StoreInspection` in the shape `--json` emits.
#[derive(Serialize)]
struct InspectionJson {
    kind: String,
    format_version: u64,
    encoding_revision: u64,
    fingerprint_revision: Option<u64>,
    generation: u64,
    compatible: bool,
    malformed: bool,
    entries: u64,
    /// Leading entries readable before the first bad line (equals
    /// `entries` when the body is clean).
    salvageable_prefix: u64,
    /// Byte offset of the first undecodable line, when the body is damaged.
    first_bad_offset: Option<u64>,
    /// Body lines dropped by the salvage pass (0 when clean).
    dropped_lines: u64,
    last_used: Vec<LastUsedJson>,
}

fn store_inspect<C: Codec>(path: &Path, json: bool) -> ExitCode {
    let info = match RecordFile::<C>::inspect(path) {
        Ok(info) => info,
        Err(e) => return fail(&e.to_string()),
    };
    if json {
        let info = InspectionJson {
            kind: info.kind.to_string(),
            format_version: info.format_version,
            encoding_revision: info.encoding_revision,
            fingerprint_revision: info.fingerprint_revision,
            generation: info.generation,
            compatible: info.compatible,
            malformed: info.malformed,
            entries: info.entries,
            salvageable_prefix: info.salvageable_prefix,
            first_bad_offset: info.first_bad_offset,
            dropped_lines: info.dropped_lines,
            last_used: info
                .last_used
                .iter()
                .map(|(&generation, &entries)| LastUsedJson {
                    generation,
                    entries,
                })
                .collect(),
        };
        match serde_json::to_string_pretty(&info) {
            Ok(json) => println!("{json}"),
            Err(e) => return fail(&format!("cannot serialize inspection: {e}")),
        }
    } else {
        println!("{}", info.render());
    }
    ExitCode::SUCCESS
}

/// `store fsck` verdict in the shape `--json` emits.
#[derive(Serialize)]
struct FsckJson {
    kind: String,
    compatible: bool,
    clean: bool,
    repaired: bool,
    entries: u64,
    dropped_lines: u64,
    first_bad_offset: Option<u64>,
}

/// Check a persisted store for damage and optionally heal it. Exit 0 when
/// the store is clean (or was just repaired), 2 when damage remains — so
/// `fsck` composes with `fsck --repair` the way the system tool does. An
/// incompatible (foreign-revision) store is *never* repaired: its entries
/// cannot be trusted at all, and the next analysis run rewrites it cold.
fn store_fsck<C: Codec>(path: &Path, repair: bool, json: bool) -> ExitCode {
    let file = match RecordFile::<C>::open(path) {
        Ok(file) => file,
        Err(e) => return fail(&format!("cannot open {}: {e}", path.display())),
    };
    if file.was_invalidated() {
        return fail(&format!(
            "{}: incompatible {} store (written by a different revision); not repairable — the \
             next analysis run starts cold and rewrites it",
            path.display(),
            C::KIND
        ));
    }
    let salvage = file.salvage().copied();
    let damaged = salvage.is_some();
    let repaired = damaged && repair;
    if repaired {
        if let Err(e) = file.save() {
            return fail(&format!("cannot repair {}: {e}", path.display()));
        }
    }
    if json {
        let verdict = FsckJson {
            kind: C::KIND.to_string(),
            compatible: true,
            clean: !damaged,
            repaired,
            entries: file.loaded_entries(),
            dropped_lines: salvage.map_or(0, |s| s.dropped_lines),
            first_bad_offset: salvage.and_then(|s| s.first_bad_offset),
        };
        match serde_json::to_string_pretty(&verdict) {
            Ok(json) => println!("{json}"),
            Err(e) => return fail(&format!("cannot serialize fsck verdict: {e}")),
        }
    } else {
        match &salvage {
            None => println!(
                "stack: {}: clean {} store ({} entries)",
                path.display(),
                C::KIND,
                file.loaded_entries()
            ),
            Some(salvage) if repaired => println!(
                "stack: {}: repaired {} store — kept {} entries, dropped {} bad line(s)",
                path.display(),
                C::KIND,
                file.loaded_entries(),
                salvage.dropped_lines
            ),
            Some(salvage) => println!(
                "stack: {}: {} (re-run with --repair to heal)",
                path.display(),
                render_salvage(salvage)
            ),
        }
    }
    if damaged && !repaired {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

// ---- gen-archive ------------------------------------------------------------

fn cmd_gen_archive(args: &[String]) -> ExitCode {
    let dir = match positionals(args, &["--packages", "--seed", "--edit-functions"], &[]).as_deref()
    {
        Ok(&[dir]) => dir,
        Ok(_) => {
            eprintln!(
                "usage: stack gen-archive <dir> [--packages N] [--seed S] [--edit-functions K]"
            );
            return ExitCode::from(2);
        }
        Err(e) => return fail(e),
    };
    let defaults = stack_corpus::ArchiveConfig::default();
    let (cfg, edit_functions) = match (
        parse_flag_value::<usize>(args, "--packages"),
        parse_flag_value::<u64>(args, "--seed"),
        parse_flag_value::<usize>(args, "--edit-functions"),
    ) {
        (Ok(packages), Ok(seed), Ok(edit_functions)) => (
            stack_corpus::ArchiveConfig {
                packages: packages.unwrap_or(defaults.packages),
                seed: seed.unwrap_or(defaults.seed),
                ..defaults
            },
            edit_functions.unwrap_or(0),
        ),
        (Err(e), _, _) | (_, Err(e), _) | (_, _, Err(e)) => return fail(&e),
    };
    if cfg.packages == 0 {
        return fail("--packages needs a positive package count");
    }
    // Validate the (deterministic) population before a single file is
    // written: a generator bug surfaces as one clean error, not a panic
    // mid-write or a half-materialized archive. With --edit-functions K
    // (the "developer touched K functions, now re-scan" workload), the
    // edited population is what gets validated and written; K is clamped
    // to the functions the archive has, and 0 edits none.
    let archive = stack_corpus::generate_archive(&cfg);
    let churn = stack_corpus::churn_functions_count(&archive, cfg.seed, edit_functions);
    let files = &churn.files;
    if let Err(e) = stack_corpus::validate_sources(
        files.iter().map(|f| (f.name.as_str(), f.source.as_str())),
        |name, source| stack_minic::compile(source, name).map(|_| ()),
    ) {
        return fail(&format!("generated archive does not compile: {e}"));
    }
    match stack_corpus::write_archive(Path::new(dir), files) {
        Ok(paths) => {
            println!(
                "stack: wrote {} archive files ({} packages, seed {}{}) under {dir}",
                paths.len(),
                cfg.packages,
                cfg.seed,
                if churn.edited_functions > 0 {
                    format!(", {} functions edited", churn.edited_functions)
                } else {
                    String::new()
                }
            );
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("cannot write archive under {dir}: {e}")),
    }
}

// ---- demo / list ------------------------------------------------------------

fn cmd_demo(args: &[String]) -> ExitCode {
    let id = match positionals(args, &[], &[]).as_deref() {
        Ok(&[id]) => id,
        Ok(_) => {
            eprintln!("usage: stack demo <pattern-id>   (see `stack list`)");
            return ExitCode::from(2);
        }
        Err(e) => return fail(e),
    };
    let Some(pattern) = stack_corpus::all_patterns()
        .into_iter()
        .find(|p| p.id == id)
    else {
        eprintln!("stack: unknown pattern `{id}` (see `stack list`)");
        return ExitCode::from(2);
    };
    println!(
        "// {} ({})\n{}\n",
        pattern.id, pattern.paper_ref, pattern.source
    );
    match AnalysisSession::default().check_source(pattern.source, &format!("{id}.c")) {
        Ok(result) => {
            for report in &result.reports {
                print!("{report}");
            }
            ExitCode::SUCCESS
        }
        Err(e) => fail(&format!("built-in pattern `{id}` failed to compile: {e}")),
    }
}

fn cmd_list(args: &[String]) -> ExitCode {
    if let Err(e) = no_positionals(args, &[], "stack list") {
        return fail(&e);
    }
    for p in stack_corpus::all_patterns() {
        println!("{:<36} {}", p.id, p.paper_ref);
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;
    use stack_solver::StoreInspection;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flag_combinations_are_validated_before_any_work() {
        // The bug this guards: --compact-store without --cache-file used to
        // surface only after the scan completed.
        let err = AnalysisOpts::parse(&args(&["dir", "--compact-store", "3"]), Mode::Scan)
            .expect_err("must reject up front");
        assert!(err.contains("--cache-file"), "{err}");

        for flag in SCAN_ONLY_FLAGS {
            let err = AnalysisOpts::parse(&args(&["f.mc", flag, "1"]), Mode::Check)
                .expect_err("check must reject scan-only flags");
            assert!(err.contains(flag), "{err}");
            assert!(err.contains("scan-only"), "{err}");
        }
        // The same flags parse fine under scan (with a cache file where
        // required).
        assert!(AnalysisOpts::parse(
            &args(&[
                "dir",
                "--jobs",
                "4",
                "--shard",
                "2/4",
                "--scan-cache",
                "s.ss"
            ]),
            Mode::Scan
        )
        .is_ok());

        // An unknown flag fails both commands, naming the flag; a flag's
        // value is never mistaken for a flag.
        for (mode, path) in [(Mode::Scan, "dir"), (Mode::Check, "f.mc")] {
            for flag in [
                "--no-hbr",
                "--no-preprocess",
                "--instance-granularity",
                "--threads",
                "--no-incremental",
                "--no-such-flag",
                "--jobs4",
            ] {
                let err = AnalysisOpts::parse(&args(&[path, flag]), mode)
                    .expect_err("an unknown flag must be rejected");
                assert!(err.contains(flag), "{err}");
            }
            assert!(AnalysisOpts::parse(&args(&[path, "--out", "--report.txt"]), mode).is_ok());
        }
        // An input the command would ignore is rejected, naming it.
        for (mode, list, named) in [
            (Mode::Check, &["a.mc", "b.mc"][..], "b.mc"),
            (Mode::Check, &["a.mc", "--json", "b.mc"][..], "b.mc"),
            (Mode::Scan, &["ci", "a24"][..], "a24"),
            (Mode::Scan, &["ci", "--jobs", "2", "a24"][..], "a24"),
            (Mode::Scan, &["d", "--synth", "4"][..], "d"),
            (Mode::Scan, &["d", "--seed", "5"][..], "--seed"),
        ] {
            let err = AnalysisOpts::parse(&args(list), mode)
                .expect_err("an ignored input must be rejected");
            assert!(err.contains(named), "{err}");
        }
        // Flag values are never mistaken for inputs.
        assert!(
            AnalysisOpts::parse(&args(&["d", "--out", "o.txt", "--jobs", "2"]), Mode::Scan).is_ok()
        );
        assert!(AnalysisOpts::parse(&args(&["--synth", "4", "--seed", "5"]), Mode::Scan).is_ok());

        // Every flag `scan` takes parses.
        let all: Vec<&str> = "--query-budget 9 --cache-file q.qs --out o --compact-store 3 \
             --jobs 2 --scan-cache s.ss --shard 1/2 --synth 4 --seed 7 --json \
             --include-macros --no-cache --quiet"
            .split_whitespace()
            .collect();
        assert_eq!(
            all.iter().filter(|a| a.starts_with("--")).count(),
            VALUE_FLAGS.len() + SCAN_ONLY_FLAGS.len() + SWITCHES.len()
        );
        if let Err(e) = AnalysisOpts::parse(&args(&all), Mode::Scan) {
            panic!("{e}");
        }
    }

    #[test]
    fn compact_store_prunes_both_stores() {
        let dir = std::env::temp_dir().join(format!("stack-cli-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let archive = dir.join("archive");
        let (qs, ss) = (dir.join("q.qs"), dir.join("s.ss"));
        let cfg = stack_corpus::ArchiveConfig {
            packages: 2,
            ..stack_corpus::ArchiveConfig::default()
        };
        let scan = |extra: &[&str]| {
            let mut list = vec![
                archive.to_str().unwrap(),
                "--cache-file",
                qs.to_str().unwrap(),
                "--scan-cache",
                ss.to_str().unwrap(),
                "--quiet",
            ];
            list.extend(extra);
            assert_eq!(cmd_scan(&args(&list)), ExitCode::SUCCESS);
        };
        let files = stack_corpus::generate_archive(&cfg);
        stack_corpus::write_archive(&archive, &files).unwrap();
        scan(&[]);
        // Edit two functions: the scan store's records of their old
        // versions are dead, and so is every query entry this re-scan
        // does not look up. A 1-generation horizon prunes all of them.
        let edited = stack_corpus::churn_functions_count(&files, cfg.seed, 2).files;
        stack_corpus::write_archive(&archive, &edited).unwrap();
        scan(&["--compact-store", "1"]);
        let ages = |info: StoreInspection| {
            assert!(info.entries > 0, "{}", info.render());
            (
                info.generation,
                info.last_used.into_keys().collect::<Vec<_>>(),
            )
        };
        assert_eq!(
            ages(RecordFile::<QueryCodec>::inspect(&qs).unwrap()),
            (2, vec![2])
        );
        assert_eq!(
            ages(RecordFile::<ScanCodec>::inspect(&ss).unwrap()),
            (2, vec![2])
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shard_flag_parses_and_rejects() {
        assert_eq!(parse_shard("1/1").unwrap(), (1, 1));
        assert_eq!(parse_shard("2/4").unwrap(), (2, 4));
        for bad in ["0/4", "5/4", "2", "a/b", "2/0", "/", ""] {
            assert!(parse_shard(bad).is_err(), "{bad:?} must be rejected");
        }
    }

    #[test]
    fn shards_partition_the_task_list() {
        let tasks: Vec<ScanTask> = (0..32)
            .map(|i| ScanTask {
                name: format!("m{i}.mc"),
                source: ScanSource::Inline(format!("int f{i}(void) {{ return {i}; }}\n")),
            })
            .collect();
        let count = 4;
        let mut seen = Vec::new();
        for index in 1..=count {
            let shard = shard_tasks(tasks.clone(), index, count);
            // Shard assignment is deterministic: re-sharding agrees.
            let again = shard_tasks(tasks.clone(), index, count);
            assert_eq!(
                shard.iter().map(|t| &t.name).collect::<Vec<_>>(),
                again.iter().map(|t| &t.name).collect::<Vec<_>>()
            );
            seen.extend(shard.into_iter().map(|t| t.name));
        }
        // Together the shards cover every task exactly once.
        seen.sort();
        let mut all: Vec<String> = tasks.iter().map(|t| t.name.clone()).collect();
        all.sort();
        assert_eq!(seen, all);
    }

    #[test]
    fn shard_assignment_ignores_task_position() {
        let tasks: Vec<ScanTask> = (0..8)
            .map(|i| ScanTask {
                name: format!("m{i}.mc"),
                source: ScanSource::Inline(format!("int f{i}(void) {{ return {i}; }}\n")),
            })
            .collect();
        let mut reversed = tasks.clone();
        reversed.reverse();
        for index in 1..=4 {
            let mut a: Vec<String> = shard_tasks(tasks.clone(), index, 4)
                .into_iter()
                .map(|t| t.name)
                .collect();
            let mut b: Vec<String> = shard_tasks(reversed.clone(), index, 4)
                .into_iter()
                .map(|t| t.name)
                .collect();
            a.sort();
            b.sort();
            assert_eq!(a, b, "membership is keyed by content, not position");
        }
    }

    #[test]
    fn positionals_skip_flag_values() {
        let list = args(&["out.qs", "--compact", "3", "a.qs", "--json", "b.qs"]);
        assert_eq!(
            positionals(&list, &["--compact"], &["--json"]),
            Ok(vec!["out.qs", "a.qs", "b.qs"])
        );
        let err = positionals(&list, &[], &["--json"]).expect_err("--compact is unknown here");
        assert!(err.contains("--compact"), "{err}");
    }
}
