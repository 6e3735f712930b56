//! The churn differential-test harness: one reusable scan driver run
//! under every pipeline configuration — cold, warm, sharded + merged,
//! budget-degraded, and fault-injected — over randomized multi-step churn sequences, with the
//! report stream of each configuration asserted byte-equal to a fresh
//! storeless cold run of the same sources at every step.
//!
//! The generated archives emit exactly one function per source line, so
//! a line-wise diff of two versions of the population is an exact
//! per-function diff; every `functions_skipped` assertion below is
//! checked against that ground truth, not against the pipeline's own
//! bookkeeping. The cross-path dedup tests ride the same driver: a
//! population extended with byte-identical vendored copies must analyze
//! each unique source once, replay the copies under their own paths, and
//! merge duplicate-keyed shard records without conflict.

use proptest::prelude::*;
use stack_repro::core::{
    content_key, shard_assignment, AnalysisSession, CheckStats, CheckerConfig, ScanEvent,
    ScanPipeline, ScanSource, ScanStore, ScanTask,
};
use stack_repro::corpus::{
    churn_functions_count, duplicate_files, generate_archive, ArchiveConfig, ArchiveFile,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A unique temp path per call (tests in one binary run in parallel).
fn temp_path() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "stack-rescan-diff-{}-{}.ss",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One configuration of the differential driver. The default is the
/// reference configuration every other one is compared against: a cold,
/// storeless, sequential scan under the default checker config.
struct Scan<'a> {
    jobs: usize,
    store: Option<&'a Path>,
    /// Persist the (possibly updated) store after the run — how a churn
    /// round advances the recorded state to its edited population.
    save: bool,
    query_budget: u64,
    injected_panic: Option<&'a str>,
}

impl Default for Scan<'_> {
    fn default() -> Self {
        Scan {
            jobs: 1,
            store: None,
            save: false,
            query_budget: CheckerConfig::default().query_budget,
            injected_panic: None,
        }
    }
}

/// Run one archive scan under `opts`: the ordered event stream (reports
/// and failures alike) plus the session's aggregate stats.
fn scan(files: &[ArchiveFile], opts: &Scan) -> (Vec<String>, CheckStats) {
    let tasks: Vec<ScanTask> = files
        .iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect();
    let session = AnalysisSession::new(CheckerConfig {
        query_budget: opts.query_budget,
        ..CheckerConfig::default()
    });
    let mut pipeline = ScanPipeline::new(&session, opts.jobs);
    if let Some(fragment) = opts.injected_panic {
        pipeline = pipeline.with_injected_panic(fragment);
    }
    let store = opts
        .store
        .map(|p| Arc::new(ScanStore::open(p).expect("open scan store")));
    if let Some(store) = &store {
        pipeline = pipeline.with_scan_store(Arc::clone(store));
    }
    let mut events = Vec::new();
    pipeline.run(&tasks, &mut |event| {
        events.push(match event {
            ScanEvent::Report(r) => format!("report {r:?}"),
            ScanEvent::Failure { name, error } => format!("failure {name}: {error}"),
        });
    });
    if opts.save {
        store
            .as_ref()
            .expect("save requires a store")
            .save()
            .expect("save scan store");
    }
    (events, session.stats())
}

/// Per-file function-level diff between two versions of one population:
/// file name, its function count, and how many of its functions changed.
/// Exact because the generator emits one function per line.
struct FileDiff {
    name: String,
    functions: usize,
    edited: usize,
}

fn diff_files(prev: &[ArchiveFile], next: &[ArchiveFile]) -> Vec<FileDiff> {
    assert_eq!(prev.len(), next.len(), "churn never adds or removes files");
    prev.iter()
        .zip(next)
        .map(|(p, n)| {
            assert_eq!(p.name, n.name);
            let pl: Vec<&str> = p.source.lines().collect();
            let nl: Vec<&str> = n.source.lines().collect();
            assert_eq!(pl.len(), nl.len(), "churn never adds or removes lines");
            FileDiff {
                name: n.name.clone(),
                functions: nl.len(),
                edited: pl.iter().zip(&nl).filter(|(a, b)| a != b).count(),
            }
        })
        .collect()
}

fn total_functions(diffs: &[FileDiff]) -> usize {
    diffs.iter().map(|d| d.functions).sum()
}

fn edited_functions(diffs: &[FileDiff]) -> usize {
    diffs.iter().map(|d| d.edited).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Multi-step churn: N rounds of random in-place function edits, each
    /// followed by warm re-scans at jobs 1 and 4 — every one byte-identical
    /// to a fresh storeless cold scan of that round's sources, with
    /// `functions_skipped` exactly the line-diff ground truth (everything
    /// but the edited functions).
    #[test]
    fn multi_step_churn_rescan_matches_cold_at_every_round(
        seed in 1u64..1_000,
        rounds in 1usize..4,
        per_round in 1usize..4,
    ) {
        let cfg = ArchiveConfig {
            packages: 3,
            seed: 0xD1FF ^ seed,
            ..ArchiveConfig::default()
        };
        let store_path = temp_path();
        let mut current = generate_archive(&cfg);
        let (_, cold_stats) = scan(&current, &Scan {
            jobs: 4,
            store: Some(&store_path),
            save: true,
            ..Scan::default()
        });
        for round in 0..rounds as u64 {
            let churn = churn_functions_count(&current, seed.wrapping_add(round), per_round);
            let diffs = diff_files(&current, &churn.files);
            let total = total_functions(&diffs);
            let edited = edited_functions(&diffs);
            prop_assert_eq!(total, cold_stats.functions);
            // Re-editing a slot can coincide with its existing constant, so
            // the byte-level diff bounds the nominal edit count from below.
            prop_assert!(edited <= churn.edited_functions);

            let (reference, _) = scan(&churn.files, &Scan::default());
            for jobs in [1, 4] {
                let (events, stats) = scan(&churn.files, &Scan {
                    jobs,
                    store: Some(&store_path),
                    ..Scan::default()
                });
                prop_assert_eq!(&events, &reference, "round {} jobs {}", round, jobs);
                prop_assert_eq!(
                    stats.functions_skipped,
                    total - edited,
                    "exactly the unchanged functions replay (round {} jobs {}): {:?}",
                    round, jobs, stats
                );
            }
            // Every check above ran against the prior round's store; only
            // now advance the recorded state to this round's population.
            let (_, _) = scan(&churn.files, &Scan {
                jobs: 2,
                store: Some(&store_path),
                save: true,
                ..Scan::default()
            });
            current = churn.files;
        }
        std::fs::remove_file(&store_path).unwrap();
    }
}

/// The full differential matrix over one churn step: sharded + merged,
/// budget-degraded, and fault-injected configurations against the same
/// line-diff ground truth. Deterministic (fixed seed) because the
/// sharded leg alone runs the population several times over.
#[test]
fn differential_matrix_covers_sharded_degraded_and_faulted_scans() {
    const SHARDS: usize = 2;
    let cfg = ArchiveConfig {
        packages: 4,
        seed: 0x5E9_0D1F,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&cfg);
    let store_path = temp_path();
    let (_, _) = scan(
        &base,
        &Scan {
            jobs: 4,
            store: Some(&store_path),
            save: true,
            ..Scan::default()
        },
    );
    let churn = churn_functions_count(&base, 0xBEEF, 2);
    let diffs = diff_files(&base, &churn.files);
    let total = total_functions(&diffs);
    let edited = edited_functions(&diffs);
    assert!(edited > 0, "the matrix needs real churn");
    let (reference, reference_stats) = scan(&churn.files, &Scan::default());
    assert!(!reference.is_empty());

    // Sharded + merged: each shard cold-scans its content-keyed partition
    // of the churned population into its own store; the merged store must
    // replay every function of a full warm re-scan byte-identically.
    let shard_paths: Vec<PathBuf> = (0..SHARDS).map(|_| temp_path()).collect();
    for (shard, path) in shard_paths.iter().enumerate() {
        let part: Vec<ArchiveFile> = churn
            .files
            .iter()
            .filter(|f| shard_assignment(content_key(f.source.as_bytes()), SHARDS) == shard)
            .cloned()
            .collect();
        assert!(!part.is_empty(), "shard {shard} must draw files");
        let (_, stats) = scan(
            &part,
            &Scan {
                jobs: 2,
                store: Some(path),
                save: true,
                ..Scan::default()
            },
        );
        assert_eq!(stats.modules, part.len());
    }
    let merged = temp_path();
    let merge_stats =
        ScanStore::merge(&merged, &shard_paths, None).expect("merge shard scan stores");
    assert_eq!(merge_stats.entries_out, total as u64);
    for jobs in [1, 4] {
        let (events, stats) = scan(
            &churn.files,
            &Scan {
                jobs,
                store: Some(&merged),
                ..Scan::default()
            },
        );
        assert_eq!(events, reference, "merged warm scan (jobs {jobs})");
        assert_eq!(stats.functions_skipped, total, "full replay (jobs {jobs})");
        assert_eq!(stats.queries, 0, "jobs {jobs}");
    }

    // Budget-degraded: a tiny per-query budget is part of the replay key,
    // so the default-budget store must serve it nothing — and the scan
    // must still be byte-deterministic across jobs widths.
    let tiny = 50;
    let (degraded_reference, _) = scan(
        &churn.files,
        &Scan {
            query_budget: tiny,
            ..Scan::default()
        },
    );
    for jobs in [1, 4] {
        let (events, stats) = scan(
            &churn.files,
            &Scan {
                jobs,
                store: Some(&store_path),
                query_budget: tiny,
                ..Scan::default()
            },
        );
        assert_eq!(events, degraded_reference, "degraded scan (jobs {jobs})");
        assert_eq!(
            stats.functions_skipped, 0,
            "a different budget must never replay another budget's records"
        );
    }

    // Fault-injected: a panicking module recomputes nothing and replays
    // nothing (the fault fires before the store lookup); everything else
    // replays. The stream matches a storeless run with the same fault.
    let fragment = "archive-0002";
    let panicking_fns: usize = diffs
        .iter()
        .filter(|d| d.name.contains(fragment))
        .map(|d| d.functions)
        .sum();
    assert!(panicking_fns > 0, "the fault fragment must match files");
    let edited_outside_panic: usize = diffs
        .iter()
        .filter(|d| !d.name.contains(fragment))
        .map(|d| d.edited)
        .sum();
    let (fault_reference, _) = scan(
        &churn.files,
        &Scan {
            injected_panic: Some(fragment),
            ..Scan::default()
        },
    );
    assert!(fault_reference
        .iter()
        .any(|e| e.contains("injected fault: panic while analyzing")));
    for jobs in [1, 4] {
        let (events, stats) = scan(
            &churn.files,
            &Scan {
                jobs,
                store: Some(&store_path),
                injected_panic: Some(fragment),
                ..Scan::default()
            },
        );
        assert_eq!(events, fault_reference, "faulted scan (jobs {jobs})");
        assert_eq!(
            stats.functions_skipped,
            total - panicking_fns - edited_outside_panic,
            "replays skip the faulted module and the edited functions: {stats:?}"
        );
    }
    assert_eq!(reference_stats.functions, total);
    for path in shard_paths.into_iter().chain([merged, store_path]) {
        std::fs::remove_file(path).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Cross-path dedup: extending the population with byte-identical
    /// vendored copies must cost zero extra solver queries on a fresh
    /// store at jobs 1 (each unique source analyzes once, its copies
    /// replay under their own paths), record one entry per unique
    /// function, and stream reports that carry the vendored paths —
    /// byte-identical to a storeless run that analyzes every copy.
    #[test]
    fn duplicate_paths_replay_from_one_analysis(copies in 1usize..5, seed in 1u64..1_000) {
        let cfg = ArchiveConfig {
            packages: 2,
            seed: 0xDED0 ^ seed,
            ..ArchiveConfig::default()
        };
        let base = generate_archive(&cfg);
        let dup = duplicate_files(&base, seed, copies);
        prop_assert_eq!(dup.len(), base.len() + copies);

        let (reference, reference_stats) = scan(&dup, &Scan::default());
        prop_assert!(
            reference.iter().any(|e| e.contains("vendor")),
            "the vendored copies must report under their own paths: {:?}",
            reference
        );
        let (_, base_stats) = scan(&base, &Scan::default());

        let store_path = temp_path();
        let (events, stats) = scan(&dup, &Scan {
            store: Some(&store_path),
            save: true,
            ..Scan::default()
        });
        prop_assert_eq!(&events, &reference);
        prop_assert_eq!(
            stats.queries,
            base_stats.queries,
            "the vendored copies must cost zero extra queries"
        );
        let unique_fns = base_stats.functions;
        prop_assert_eq!(
            stats.functions_skipped,
            reference_stats.functions - unique_fns,
            "every duplicated function replays"
        );
        let store = ScanStore::open(&store_path).unwrap();
        prop_assert_eq!(store.loaded_entries(), unique_fns as u64, "one record per unique function");
        std::fs::remove_file(&store_path).unwrap();
    }
}

/// Cross-path dedup under sharding: originals and their vendored copies
/// recorded by *different* shards produce duplicate-keyed, byte-identical
/// (path-normalized) records — the merge unions them without conflict,
/// and a full warm re-scan replays every copy from the shared record.
/// (A content-keyed `--shard i/n` partition places identical sources in
/// one shard; splitting originals from copies exercises the harder
/// cross-shard collision the normalization exists for.)
#[test]
fn duplicated_files_across_shards_merge_and_replay() {
    let cfg = ArchiveConfig {
        packages: 2,
        seed: 0xD0_5EED,
        ..ArchiveConfig::default()
    };
    let base = generate_archive(&cfg);
    let copies = base.len();
    let dup = duplicate_files(&base, cfg.seed, copies);
    let (reference, reference_stats) = scan(&dup, &Scan::default());

    // Shard 0: the originals. Shard 1: the vendored copies.
    let shard_a = temp_path();
    let shard_b = temp_path();
    let (originals, vendored): (Vec<ArchiveFile>, Vec<ArchiveFile>) = dup
        .clone()
        .into_iter()
        .partition(|f| !f.package.starts_with("vendor"));
    assert_eq!(vendored.len(), copies);
    for (part, path) in [(&originals, &shard_a), (&vendored, &shard_b)] {
        let (_, stats) = scan(
            part,
            &Scan {
                jobs: 2,
                store: Some(path),
                save: true,
                ..Scan::default()
            },
        );
        assert_eq!(stats.modules, part.len());
    }

    let merged = temp_path();
    let stats = ScanStore::merge(&merged, &[shard_a.clone(), shard_b.clone()], None)
        .expect("duplicate-keyed shard records must merge without conflict");
    assert!(
        stats.duplicates > 0,
        "the vendored shard must collide with the originals: {stats:?}"
    );
    let unique_fns: u64 = (reference_stats.functions - vendored.len() * 5) as u64;
    assert_eq!(stats.entries_out, unique_fns);

    for jobs in [1, 4] {
        let (events, warm_stats) = scan(
            &dup,
            &Scan {
                jobs,
                store: Some(&merged),
                ..Scan::default()
            },
        );
        assert_eq!(events, reference, "merged warm scan (jobs {jobs})");
        assert_eq!(warm_stats.functions_skipped, reference_stats.functions);
        assert_eq!(warm_stats.queries, 0, "jobs {jobs}");
    }
    for path in [shard_a, shard_b, merged] {
        std::fs::remove_file(path).unwrap();
    }
}
