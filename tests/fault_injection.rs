//! Fault-injection properties of the two persistence layers: a saved
//! query store or scan store subjected to truncation at an arbitrary
//! offset, a torn in-place overwrite splicing two generations, or a
//! flipped bit must (a) open without panicking, (b) never serve a wrong
//! or duplicate entry — a warm scan against the damaged file streams the
//! same reports as a store-less reference run — and (c) heal on the next
//! save: re-opening the healed file reports a clean store holding every
//! salvaged entry. The scan store is keyed per function, so "never a
//! wrong or duplicate entry" means every surviving function record
//! replays (the warm scan's `functions_skipped` equals exactly the
//! salvaged record count) and every lost one recomputes. A flipped high
//! bit, which leaves its line invalid UTF-8, gets a deterministic case per
//! store on top of the proptests. Budget
//! degradation rides the same harness: a scan under an arbitrary tiny
//! query budget must stream identical events at every file-parallelism
//! width and never persist a budget-degraded function.

use proptest::prelude::*;
use stack_repro::core::faultinject::{flip_bit, torn_write, truncate_at};
use stack_repro::core::{
    AnalysisSession, CheckStats, CheckerConfig, ScanEvent, ScanPipeline, ScanSource, ScanStore,
    ScanTask,
};
use stack_repro::corpus::{generate_archive, ArchiveConfig};
use stack_repro::solver::{DiskQueryStore, MergeError, MergeStats};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

fn archive_cfg() -> ArchiveConfig {
    ArchiveConfig {
        packages: 4,
        seed: 0xFA_117,
        ..ArchiveConfig::default()
    }
}

fn tasks() -> Vec<ScanTask> {
    generate_archive(&archive_cfg())
        .iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect()
}

/// A unique temp path per call (tests in one binary run in parallel).
fn temp_path(ext: &str) -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    std::env::temp_dir().join(format!(
        "stack-faultinj-{}-{}.{ext}",
        std::process::id(),
        N.fetch_add(1, Ordering::Relaxed)
    ))
}

/// One archive scan with optional disk-backed query store and scan store;
/// returns the rendered event stream and the session's aggregate stats.
fn scan(
    jobs: usize,
    query_budget: u64,
    query_store: Option<&Path>,
    scan_store: Option<&Path>,
) -> (Vec<String>, CheckStats) {
    let config = CheckerConfig {
        query_budget,
        ..CheckerConfig::default()
    };
    let disk = query_store.map(|p| Arc::new(DiskQueryStore::open(p).expect("open query store")));
    let session = match &disk {
        Some(store) => AnalysisSession::with_store(config, Arc::clone(store) as _),
        None => AnalysisSession::new(config),
    };
    let mut pipeline = ScanPipeline::new(&session, jobs);
    let store = scan_store.map(|p| Arc::new(ScanStore::open(p).expect("open scan store")));
    if let Some(store) = &store {
        pipeline = pipeline.with_scan_store(Arc::clone(store));
    }
    let mut events = Vec::new();
    pipeline.run(&tasks(), &mut |event| {
        events.push(match event {
            ScanEvent::Report(r) => format!("report {r:?}"),
            ScanEvent::Failure { name, error } => format!("failure {name}: {error}"),
        });
    });
    if let Some(store) = &disk {
        store.save().expect("save query store");
    }
    if let Some(store) = &store {
        store.save().expect("save scan store");
    }
    (events, session.stats())
}

/// Two saved generations of each store over the same archive, plus the
/// reference event stream and the entry counts a clean store holds.
struct Fixture {
    reference: Vec<String>,
    query_gen1: Vec<u8>,
    query_gen2: Vec<u8>,
    query_entries: u64,
    scan_gen1: Vec<u8>,
    scan_gen2: Vec<u8>,
    scan_entries: u64,
}

fn fixture() -> &'static Fixture {
    static FIXTURE: OnceLock<Fixture> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let qs = temp_path("qs");
        let ss = temp_path("ss");
        let budget = CheckerConfig::default().query_budget;
        let (reference, _) = scan(4, budget, Some(&qs), Some(&ss));
        let query_gen1 = std::fs::read(&qs).expect("read saved query store");
        let scan_gen1 = std::fs::read(&ss).expect("read saved scan store");
        // A second warm run re-saves both stores under the next generation:
        // same entries, different stamp bytes — the two versions a torn
        // in-place overwrite can splice.
        let (warm, _) = scan(4, budget, Some(&qs), Some(&ss));
        assert_eq!(reference, warm, "warm fixture run must match cold");
        let query_gen2 = std::fs::read(&qs).expect("read re-saved query store");
        let scan_gen2 = std::fs::read(&ss).expect("read re-saved scan store");
        let query_entries = DiskQueryStore::open(&qs).unwrap().loaded_entries();
        let scan_entries = ScanStore::open(&ss).unwrap().loaded_entries();
        let _ = std::fs::remove_file(&qs);
        let _ = std::fs::remove_file(&ss);
        assert!(query_entries > 0 && scan_entries > 0);
        Fixture {
            reference,
            query_gen1,
            query_gen2,
            query_entries,
            scan_gen1,
            scan_gen2,
            scan_entries,
        }
    })
}

/// Apply one modeled fault to the two saved generations of a store file.
fn corrupt(kind: usize, gen1: &[u8], gen2: &[u8], pos: usize, bit: u32) -> Vec<u8> {
    match kind {
        0 => truncate_at(gen2, pos % (gen2.len() + 1)),
        1 => torn_write(gen2, gen1, pos % (gen2.len() + 1)),
        _ => flip_bit(gen2, pos % gen2.len(), bit),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Query store: any truncation, torn write, or bit flip salvages or
    /// cleanly restarts; a warm scan against the damaged file streams the
    /// reference reports; the next save heals the file.
    #[test]
    fn corrupted_query_store_salvages_and_heals(
        kind in 0usize..3,
        pos in any::<usize>(),
        bit in 0u32..8,
    ) {
        let fx = fixture();
        let path = temp_path("qs");
        let damaged = corrupt(kind, &fx.query_gen1, &fx.query_gen2, pos, bit);
        std::fs::write(&path, damaged).unwrap();

        let store = DiskQueryStore::open(&path).expect("corrupted open must not error");
        let loaded = store.loaded_entries();
        prop_assert!(loaded <= fx.query_entries, "no duplicate or phantom entries");
        if store.was_invalidated() {
            prop_assert_eq!(loaded, 0, "an invalidated store restarts empty");
        }
        if let Some(salvage) = store.salvage() {
            prop_assert!(salvage.dropped_lines > 0);
            prop_assert_eq!(salvage.salvaged_entries, loaded);
        }
        // Never a wrong answer: warm-scanning against the damaged store
        // reproduces the reference stream byte for byte.
        let (events, _) = scan(2, CheckerConfig::default().query_budget, Some(&path), None);
        prop_assert_eq!(&events, &fx.reference);

        // Self-healing: save rewrites the file canonically.
        store.save().expect("healing save");
        let healed = DiskQueryStore::open(&path).expect("healed open");
        prop_assert!(!healed.was_invalidated());
        prop_assert!(healed.salvage().is_none(), "healed store must be clean");
        prop_assert_eq!(healed.loaded_entries(), loaded);
        std::fs::remove_file(&path).unwrap();
    }

    /// Scan store: the same contract at the function-record layer.
    #[test]
    fn corrupted_scan_store_salvages_and_heals(
        kind in 0usize..3,
        pos in any::<usize>(),
        bit in 0u32..8,
    ) {
        let fx = fixture();
        let path = temp_path("ss");
        let damaged = corrupt(kind, &fx.scan_gen1, &fx.scan_gen2, pos, bit);
        std::fs::write(&path, damaged).unwrap();

        let store = ScanStore::open(&path).expect("corrupted open must not error");
        let loaded = store.loaded_entries();
        prop_assert!(loaded <= fx.scan_entries, "no duplicate or phantom records");
        if store.was_invalidated() {
            prop_assert_eq!(loaded, 0, "an invalidated store restarts empty");
        }
        if let Some(salvage) = store.salvage() {
            prop_assert!(salvage.dropped_lines > 0);
            prop_assert_eq!(salvage.salvaged_entries, loaded);
        }
        // Surviving function records replay and missing ones recompute —
        // either way the stream matches the reference run, and the replay
        // count is exactly the salvaged record count (never a phantom or
        // wrong-function replay).
        let (events, stats) = scan(2, CheckerConfig::default().query_budget, None, Some(&path));
        prop_assert_eq!(&events, &fx.reference);
        prop_assert_eq!(stats.functions_skipped as u64, loaded);

        store.save().expect("healing save");
        let healed = ScanStore::open(&path).expect("healed open");
        prop_assert!(!healed.was_invalidated());
        prop_assert!(healed.salvage().is_none(), "healed store must be clean");
        prop_assert_eq!(healed.loaded_entries(), loaded);
        std::fs::remove_file(&path).unwrap();
    }
}

/// A store that needed salvage must never merge: the distributed fan-in
/// refuses it with an error naming the salvage (a merge must not bake a
/// shard's data loss into a fleet-shared artifact), while the same store
/// healed by a canonical re-save — what `store fsck --repair` runs —
/// merges fine. A header-damaged input is rejected as incompatible
/// outright.
#[test]
fn salvaged_store_never_merges() {
    let fx = fixture();
    let clean_a = temp_path("ss");
    let clean_b = temp_path("ss");
    std::fs::write(&clean_a, &fx.scan_gen2).unwrap();
    std::fs::write(&clean_b, &fx.scan_gen2).unwrap();
    let out = temp_path("ss");
    let stats =
        ScanStore::merge(&out, &[clean_a.clone(), clean_b.clone()], None).expect("clean merge");
    assert_eq!(stats.entries_out, fx.scan_entries);

    // Damage one body line of an otherwise-valid store: open() salvages
    // around it, merge() refuses until the store is healed.
    let text = String::from_utf8(fx.scan_gen2.clone()).unwrap();
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    assert!(lines.len() > 1, "fixture store must have body lines");
    let last = lines.len() - 1;
    lines[last].push('x');
    let hurt = temp_path("ss");
    std::fs::write(&hurt, lines.join("\n") + "\n").unwrap();
    let store = ScanStore::open(&hurt).expect("salvaging open");
    assert!(
        store.salvage().is_some(),
        "a damaged body line must need salvage"
    );
    match ScanStore::merge(&out, &[clean_a.clone(), hurt.clone()], None) {
        Err(MergeError::Incompatible { reason, .. }) => {
            assert!(
                reason.contains("salvage"),
                "refusal must name the salvage: {reason}"
            );
        }
        other => panic!("merge of a salvage-needed store must fail, got {other:?}"),
    }
    store.save().expect("healing save");
    let stats =
        ScanStore::merge(&out, &[clean_a.clone(), hurt.clone()], None).expect("healed merge");
    assert_eq!(stats.entries_out, fx.scan_entries);

    let bad_header = text.replacen("stack-scan-store", "stack-scan-stale", 1);
    std::fs::write(&hurt, bad_header).unwrap();
    match ScanStore::merge(&out, &[clean_a.clone(), hurt.clone()], None) {
        Err(MergeError::Incompatible { .. }) => {}
        other => panic!("a header-damaged store must be incompatible, got {other:?}"),
    }
    for path in [clean_a, clean_b, hurt, out] {
        let _ = std::fs::remove_file(path);
    }
}

/// Flip bit 7 of one byte in the first entry line of a saved store image,
/// leaving that line invalid UTF-8. Writes the damaged file to a fresh
/// path and returns it with the damaged line's byte offset.
fn damage_first_entry(ext: &str, clean: &[u8]) -> (PathBuf, u64) {
    let line = clean.iter().position(|&b| b == b'\n').expect("header line") + 1;
    let path = temp_path(ext);
    std::fs::write(&path, flip_bit(clean, line + 5, 7)).unwrap();
    (path, line as u64)
}

/// `merge` must refuse a store that needs salvage with a reason naming
/// the salvage — never an I/O error, which is what reading the file as
/// text used to produce.
fn assert_merge_refuses_salvage(
    merge: impl Fn(&Path, &[PathBuf]) -> Result<MergeStats, MergeError>,
    damaged: &Path,
) {
    let out = temp_path("out");
    match merge(&out, &[damaged.to_path_buf()]) {
        Err(MergeError::Incompatible { reason, .. }) => {
            assert!(reason.contains("salvage"), "{reason}");
        }
        other => panic!("merge of a damaged store must be refused, got {other:?}"),
    }
    assert!(!out.exists());
}

/// A body byte that is not UTF-8 is a bad line like any other: the query
/// store drops exactly that entry, reports its offset, serves a warm scan
/// the reference reports, refuses to merge, and heals on save.
#[test]
fn non_utf8_query_store_line_is_salvaged() {
    let fx = fixture();
    let (path, offset) = damage_first_entry("qs", &fx.query_gen2);
    let store = DiskQueryStore::open(&path).expect("damaged open must not error");
    assert!(!store.was_invalidated());
    assert_eq!(store.loaded_entries(), fx.query_entries - 1);
    let salvage = *store.salvage().expect("damage must be reported");
    assert_eq!(salvage.dropped_lines, 1);
    assert_eq!(salvage.first_bad_offset, Some(offset));
    assert_merge_refuses_salvage(
        |out, inputs| DiskQueryStore::merge(out, inputs, None),
        &path,
    );

    let warm = temp_path("qs");
    std::fs::copy(&path, &warm).unwrap();
    let (events, _) = scan(2, CheckerConfig::default().query_budget, Some(&warm), None);
    assert_eq!(events, fx.reference);

    store.save().expect("healing save");
    let healed = DiskQueryStore::open(&path).unwrap();
    assert!(healed.salvage().is_none(), "healed store must be clean");
    assert_eq!(healed.loaded_entries(), fx.query_entries - 1);
    for p in [path, warm] {
        std::fs::remove_file(p).unwrap();
    }
}

/// The same for the scan store, where the damaged `F` line takes its
/// whole function record with it: every other record replays.
#[test]
fn non_utf8_scan_store_record_is_salvaged() {
    let fx = fixture();
    let (path, offset) = damage_first_entry("ss", &fx.scan_gen2);
    let store = ScanStore::open(&path).expect("damaged open must not error");
    assert!(!store.was_invalidated());
    assert_eq!(store.loaded_entries(), fx.scan_entries - 1);
    let salvage = *store.salvage().expect("damage must be reported");
    assert_eq!(salvage.salvaged_entries, fx.scan_entries - 1);
    assert_eq!(salvage.first_bad_offset, Some(offset));
    assert_merge_refuses_salvage(|out, inputs| ScanStore::merge(out, inputs, None), &path);

    let warm = temp_path("ss");
    std::fs::copy(&path, &warm).unwrap();
    let (events, stats) = scan(2, CheckerConfig::default().query_budget, None, Some(&warm));
    assert_eq!(events, fx.reference);
    assert_eq!(stats.functions_skipped as u64, fx.scan_entries - 1);

    store.save().expect("healing save");
    let healed = ScanStore::open(&path).unwrap();
    assert!(healed.salvage().is_none(), "healed store must be clean");
    assert_eq!(healed.loaded_entries(), fx.scan_entries - 1);
    for p in [path, warm] {
        std::fs::remove_file(p).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Budget degradation is deterministic and never persisted: for an
    /// arbitrary tiny budget, jobs-1 and jobs-4 scans stream identical
    /// events with identical degraded-query counts, and the scan store
    /// records only functions whose own checks stayed within budget. A
    /// warm re-scan under the same budget then replays exactly the
    /// persisted functions, recomputes the degraded ones (the per-query
    /// budget resets every solve call, so they degrade identically), and
    /// streams the same events again.
    #[test]
    fn degraded_scans_are_deterministic_and_never_persisted(budget in 20u64..200) {
        let run = |jobs: usize| {
            let path = temp_path("ss");
            let (events, stats) = scan(jobs, budget, None, Some(&path));
            let persisted = ScanStore::open(&path).unwrap().loaded_entries();
            (events, stats, persisted, path)
        };
        let (events1, stats1, persisted1, path1) = run(1);
        let (events4, stats4, persisted4, path4) = run(4);
        prop_assert_eq!(&events1, &events4, "degraded runs must be byte-deterministic");
        prop_assert_eq!(stats1.timeouts, stats4.timeouts);
        prop_assert_eq!(stats1.degraded_modules, stats4.degraded_modules);
        prop_assert_eq!(persisted1, persisted4);
        prop_assert!(persisted1 <= stats1.functions as u64);
        if stats1.timeouts > 0 {
            prop_assert!(
                persisted1 < stats1.functions as u64,
                "a budget-degraded function must never reach the scan store"
            );
        } else {
            prop_assert_eq!(persisted1, stats1.functions as u64);
        }
        // Warm re-scan against the degraded-run store, same budget: the
        // persisted (within-budget) functions replay, the rest recompute
        // and degrade the same way.
        let (warm_events, warm_stats) = scan(2, budget, None, Some(&path1));
        prop_assert_eq!(&warm_events, &events1);
        prop_assert_eq!(warm_stats.functions_skipped as u64, persisted1);
        std::fs::remove_file(&path1).unwrap();
        std::fs::remove_file(&path4).unwrap();
    }
}
