//! Determinism of the file-parallel scan pipeline: scanning the synthetic
//! corpus at `jobs = 4` must produce exactly the same bug reports as the
//! sequential `jobs = 1` scan, with and without the query cache. The
//! pipeline emits results in task order, so even the raw report order must
//! coincide; the assertions below compare origin-sorted sets first (the
//! contract) and the raw order second (the implementation guarantee). The
//! same contract extends across *processes*: a warm run that answers its
//! queries from a disk-backed store must produce byte-identical reports to
//! the cold run that populated it.

use stack_repro::core::{
    AnalysisSession, CheckerConfig, ScanEvent, ScanPipeline, ScanSource, ScanStore, ScanTask,
};
use stack_repro::corpus::{churn_archive, generate, generate_archive, ArchiveConfig, SynthConfig};
use stack_repro::solver::DiskQueryStore;
use std::sync::Arc;

/// Render every report of a scan as a stable string (Debug covers
/// function, file, line, algorithm, description, and the minimal UB set).
fn run(jobs: usize, query_cache: bool) -> Vec<String> {
    let synth = SynthConfig {
        packages: 6,
        seed: 2024,
        ..SynthConfig::default()
    };
    let tasks: Vec<ScanTask> = generate(&synth)
        .into_iter()
        .flat_map(|pkg| pkg.files)
        .map(|file| ScanTask {
            name: file.name,
            source: ScanSource::Inline(file.source),
        })
        .collect();
    let session = AnalysisSession::new(CheckerConfig {
        query_cache,
        ..CheckerConfig::default()
    });
    let mut out = Vec::new();
    ScanPipeline::new(&session, jobs).run(&tasks, &mut |event| match event {
        ScanEvent::Report(report) => out.push(format!("{report:?}")),
        ScanEvent::Failure { name, error } => panic!("{name} failed: {error}"),
    });
    out
}

/// Origin-sorted copy (file, line, then the rest of the rendering).
fn sorted(mut reports: Vec<String>) -> Vec<String> {
    reports.sort();
    reports
}

#[test]
fn parallel_and_sequential_runs_agree() {
    let sequential = run(1, true);
    assert!(
        !sequential.is_empty(),
        "the synthetic corpus must produce reports"
    );
    let parallel = run(4, true);
    assert_eq!(
        sorted(sequential.clone()),
        sorted(parallel.clone()),
        "report sets must match"
    );
    assert_eq!(sequential, parallel, "report order must match too");
}

#[test]
fn cache_does_not_change_reports() {
    let cached = run(4, true);
    let uncached = run(4, false);
    assert_eq!(sorted(cached), sorted(uncached));
}

/// With the query store off, every query is solved on the function's own
/// incremental instance, so a `jobs = 4` scan must stream exactly the
/// sequential scan's reports. Two archive seeds, so the check covers two
/// different populations.
#[test]
fn uncached_scans_agree_across_jobs_widths() {
    for seed in [0x50AC, 0xC0DE] {
        uncached_jobs_widths_agree_on(seed);
    }
}

fn uncached_jobs_widths_agree_on(seed: u64) {
    let archive_cfg = ArchiveConfig {
        packages: 6,
        seed,
        ..ArchiveConfig::default()
    };
    let files = generate_archive(&archive_cfg);
    let tasks: Vec<ScanTask> = files
        .iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect();
    let run = |jobs: usize| {
        let session = AnalysisSession::new(CheckerConfig {
            query_cache: false,
            ..CheckerConfig::default()
        });
        let mut reports = Vec::new();
        ScanPipeline::new(&session, jobs).run(&tasks, &mut |event| {
            if let ScanEvent::Report(r) = event {
                reports.push(format!("{r:?}"));
            }
        });
        reports
    };

    let reference = run(1);
    assert!(
        !reference.is_empty(),
        "the archive (seed {seed:#x}) must produce reports"
    );
    assert_eq!(reference, run(4), "seed={seed:#x}");
}

/// One archive pass through a session backed by the given cache file:
/// every report rendered in order, plus the session's aggregate stats.
fn archive_run(path: &std::path::Path) -> (Vec<String>, stack_repro::core::CheckStats) {
    let archive_cfg = ArchiveConfig {
        packages: 8,
        seed: 0xD15C,
        ..ArchiveConfig::default()
    };
    let store = Arc::new(DiskQueryStore::open(path).expect("open cache file"));
    let session = AnalysisSession::with_store(CheckerConfig::default(), store.clone() as _);
    let mut reports = Vec::new();
    for file in generate_archive(&archive_cfg) {
        let result = session
            .check_source(&file.source, &file.name)
            .expect("archive files compile");
        reports.extend(result.reports.iter().map(|r| format!("{r:?}")));
    }
    store.save().expect("save cache file");
    (reports, session.stats())
}

#[test]
fn warm_disk_store_run_matches_cold_run() {
    let path =
        std::env::temp_dir().join(format!("stack-determinism-warm-{}.qs", std::process::id()));
    let _ = std::fs::remove_file(&path);

    let (cold_reports, cold_stats) = archive_run(&path);
    assert!(
        !cold_reports.is_empty(),
        "the archive population must produce reports"
    );
    let (warm_reports, warm_stats) = archive_run(&path);

    // Byte-identical reports, in identical order: answering from the disk
    // store must be indistinguishable from recomputing.
    assert_eq!(cold_reports, warm_reports);
    assert_eq!(cold_stats.queries, warm_stats.queries);

    // The warm run answers at least 90% of its store lookups from disk —
    // here all of them, since every decided query of the cold run was
    // persisted and the archive produces no budget-exhausted queries.
    assert_eq!(warm_stats.cache_misses, 0, "{warm_stats:?}");
    assert!(
        warm_stats.cache_hit_rate() >= 0.9,
        "warm hit rate {} below the 90% bar ({warm_stats:?})",
        warm_stats.cache_hit_rate()
    );
    std::fs::remove_file(&path).unwrap();
}

/// One archive pass through the file-parallel scan pipeline, optionally
/// backed by a persisted scan store: the ordered event stream plus the
/// session's aggregate stats.
fn pipeline_run(
    files: &[stack_repro::corpus::ArchiveFile],
    jobs: usize,
    scan_store: Option<&std::path::Path>,
) -> (Vec<String>, stack_repro::core::CheckStats) {
    let tasks: Vec<ScanTask> = files
        .iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect();
    let session = AnalysisSession::default();
    let mut pipeline = ScanPipeline::new(&session, jobs);
    let store = scan_store.map(|p| Arc::new(ScanStore::open(p).expect("open scan store")));
    if let Some(store) = &store {
        pipeline = pipeline.with_scan_store(Arc::clone(store));
    }
    let mut events = Vec::new();
    pipeline.run(&tasks, &mut |event| {
        if let ScanEvent::Report(r) = event {
            events.push(format!("{r:?}"));
        }
    });
    if let Some(store) = &store {
        store.save().expect("save scan store");
    }
    (events, session.stats())
}

/// Budget degradation through the store-less scan path (the path a cold
/// scan without `--scan-cache` takes): every `jobs` width must stream the
/// events and count the solver work of a sequential scan, because each task
/// reads only the query-store entries of tasks already emitted. Repeated,
/// because a violation shows only under some thread timings.
///
/// The archive's guards are decided before the SAT core, so a file of
/// multiplication guards, which only the SAT core decides, sits among its
/// files to make both budgets bite.
#[test]
fn budget_degraded_scan_without_scan_store_matches_sequential_at_every_width() {
    let mut tasks: Vec<ScanTask> = generate_archive(&ArchiveConfig {
        packages: 4,
        seed: 0xFA_117,
        ..ArchiveConfig::default()
    })
    .into_iter()
    .map(|f| ScanTask {
        name: f.name,
        source: ScanSource::Inline(f.source),
    })
    .collect();
    tasks.insert(
        tasks.len() / 2,
        ScanTask {
            name: "mul/guards.c".to_string(),
            source: ScanSource::Inline(
                "int f(int x, int y) { int p = x * 3; if (p / 3 != x) return 1; \
                 int q = y * 5; if (q / 5 != y) return 2; return x / y; }\n"
                    .to_string(),
            ),
        },
    );
    let scan = |jobs: usize, query_budget: u64| {
        let session = AnalysisSession::new(CheckerConfig {
            query_budget,
            ..CheckerConfig::default()
        });
        let mut events = Vec::new();
        let outcome = ScanPipeline::new(&session, jobs)
            .run(&tasks, &mut |event| events.push(format!("{event:?}")));
        let s = session.stats();
        let counters = [
            s.queries,
            s.timeouts,
            s.cache_hits,
            s.cache_misses,
            s.propagations,
            s.conflicts,
        ];
        (events, counters, outcome.reruns)
    };
    for budget in [99, 199] {
        let (events, counters, reruns) = scan(1, budget);
        assert!(counters[1] > 0, "budget {budget} must degrade some queries");
        assert_eq!(reruns, 0, "a sequential scan never runs a task twice");
        for _ in 0..5 {
            let (wide_events, wide_counters, _) = scan(4, budget);
            assert_eq!(events, wide_events, "budget {budget}");
            assert_eq!(counters, wide_counters, "budget {budget}");
        }
    }
}

/// The incremental-rescan acceptance contract: a 0%-churn re-scan (only
/// comment/whitespace edits between runs) skips 100% of modules, issues no
/// solver queries, and produces a byte-identical report stream — at every
/// file-level parallelism width.
#[test]
fn zero_churn_rescan_skips_every_module_with_identical_output() {
    let archive_cfg = ArchiveConfig {
        packages: 8,
        seed: 0xF1D0,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&archive_cfg);
    let churned = churn_archive(&base, archive_cfg.seed, 0.0);
    assert_eq!(churned.semantic_edits, 0);
    assert!(
        churned.cosmetic_edits > 0,
        "cosmetic churn must be exercised"
    );

    let path = std::env::temp_dir().join(format!(
        "stack-determinism-rescan-{}.ss",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);

    // Cold: analyze the base archive, recording every module.
    let (cold_reports, cold_stats) = pipeline_run(&base, 4, Some(&path));
    assert!(!cold_reports.is_empty());
    assert_eq!(cold_stats.modules_skipped, 0);

    // Plain reference run over the *churned* copy (no store at all).
    let (reference_reports, _) = pipeline_run(&churned.files, 1, None);
    assert_eq!(
        cold_reports, reference_reports,
        "comment/whitespace edits must not change any report"
    );

    // Re-scan the churned copy against the recorded store.
    for jobs in [1, 4] {
        let (warm_reports, warm_stats) = pipeline_run(&churned.files, jobs, Some(&path));
        assert_eq!(cold_reports, warm_reports, "jobs={jobs}");
        assert_eq!(
            warm_stats.modules_skipped, warm_stats.modules,
            "every module must be skipped (jobs={jobs}): {warm_stats:?}"
        );
        assert_eq!(warm_stats.modules_skipped, base.len());
        assert_eq!(
            warm_stats.functions_skipped, cold_stats.functions,
            "every function must replay (jobs={jobs}): {warm_stats:?}"
        );
        assert_eq!(warm_stats.queries, 0, "jobs={jobs}: {warm_stats:?}");
        assert_eq!(warm_stats.functions, cold_stats.functions);
    }
    std::fs::remove_file(&path).unwrap();
}

/// The failure-containment contract: a module whose analysis panics
/// degrades to a `Failure` event in the ordered stream — and that stream,
/// reports and failures alike, is byte-identical at every file-level
/// parallelism width. (The panic is injected through the pipeline's own
/// fault hook, so the test models an analysis bug, not a corpus bug.)
#[test]
fn panicking_module_scan_is_deterministic_across_jobs_widths() {
    let archive_cfg = ArchiveConfig {
        packages: 6,
        seed: 0x9A71C,
        ..ArchiveConfig::default()
    };
    let files = generate_archive(&archive_cfg);
    let run = |jobs: usize| {
        let tasks: Vec<ScanTask> = files
            .iter()
            .map(|f| ScanTask {
                name: f.name.clone(),
                source: ScanSource::Inline(f.source.clone()),
            })
            .collect();
        let session = AnalysisSession::default();
        // Panic while analyzing every file of package 3 (one fragment,
        // several matching modules, so containment is exercised more than
        // once per run).
        let pipeline = ScanPipeline::new(&session, jobs).with_injected_panic("archive-0003");
        let mut events = Vec::new();
        pipeline.run(&tasks, &mut |event| {
            events.push(match event {
                ScanEvent::Report(r) => format!("report {r:?}"),
                ScanEvent::Failure { name, error } => format!("failure {name}: {error}"),
            });
        });
        events
    };

    let sequential = run(1);
    let injected: Vec<&String> = sequential
        .iter()
        .filter(|e| e.contains("injected fault: panic while analyzing"))
        .collect();
    assert!(
        !injected.is_empty(),
        "the injected panic must surface as Failure events: {sequential:?}"
    );
    assert!(
        sequential.iter().any(|e| e.starts_with("report ")),
        "the unaffected modules must still report"
    );
    for jobs in [2, 4] {
        assert_eq!(sequential, run(jobs), "jobs={jobs}");
    }
}

/// The distributed-scan contract: scanning the archive as four disjoint
/// content-keyed shards, merging the per-shard scan stores, and re-scanning
/// the whole archive warm from the merged store must skip every module and
/// reproduce the unsharded cold run's report stream byte for byte — at
/// every file-level parallelism width.
#[test]
fn sharded_scan_with_merged_stores_matches_unsharded_run() {
    use stack_repro::core::{content_key, shard_assignment};

    const SHARDS: usize = 4;
    let archive_cfg = ArchiveConfig {
        packages: 8,
        seed: 0x5AD5,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&archive_cfg);

    // Unsharded cold reference, no store involved.
    let (reference_reports, reference_stats) = pipeline_run(&base, 1, None);
    assert!(!reference_reports.is_empty());

    // Fan-out: each shard scans only the files the content-keyed partition
    // assigns it, recording into its own scan store.
    let tag = format!("stack-determinism-shard-{}", std::process::id());
    let shard_path = |i: usize| std::env::temp_dir().join(format!("{tag}-{i}.ss"));
    let mut sharded_modules = 0;
    for shard in 0..SHARDS {
        let files: Vec<stack_repro::corpus::ArchiveFile> = base
            .iter()
            .filter(|f| shard_assignment(content_key(f.source.as_bytes()), SHARDS) == shard)
            .cloned()
            .collect();
        let path = shard_path(shard);
        let _ = std::fs::remove_file(&path);
        let (_, stats) = pipeline_run(&files, 4, Some(&path));
        assert_eq!(stats.modules, files.len());
        sharded_modules += stats.modules;
    }
    assert_eq!(
        sharded_modules,
        base.len(),
        "the shards must partition the archive exactly"
    );

    // Fan-in: one merged store, then full warm re-scans against it.
    let merged = std::env::temp_dir().join(format!("{tag}-merged.ss"));
    let inputs: Vec<std::path::PathBuf> = (0..SHARDS).map(shard_path).collect();
    let stats = ScanStore::merge(&merged, &inputs, None).expect("merge shard scan stores");
    // One function record per *function* and one file record per file;
    // generated function names are unique, so no two shards ever record
    // the same key.
    let merged_store = ScanStore::open(&merged).expect("open merged store");
    assert_eq!(
        merged_store.function_records(),
        reference_stats.functions as u64
    );
    assert_eq!(merged_store.file_records(), base.len() as u64);
    assert_eq!(
        stats.entries_out,
        (reference_stats.functions + base.len()) as u64
    );
    assert_eq!(stats.duplicates, 0, "shards are disjoint");

    for jobs in [1, 4] {
        let (warm_reports, warm_stats) = pipeline_run(&base, jobs, Some(&merged));
        assert_eq!(reference_reports, warm_reports, "jobs={jobs}");
        assert_eq!(
            warm_stats.modules_skipped,
            base.len(),
            "every module must replay from the merged store (jobs={jobs}): {warm_stats:?}"
        );
        assert_eq!(warm_stats.functions_skipped, reference_stats.functions);
        assert_eq!(warm_stats.queries, 0, "jobs={jobs}: {warm_stats:?}");
        assert_eq!(warm_stats.functions, reference_stats.functions);
    }
    for path in inputs.into_iter().chain([merged]) {
        std::fs::remove_file(path).unwrap();
    }
}
