//! `stack scan` output does not depend on its width: files are the only
//! unit of parallel work, and the scan pipeline gives every file the store
//! a sequential scan would. Under a query budget small enough to degrade
//! queries, the default width and `--jobs 4` must print exactly what
//! `--jobs 1` prints, count exactly the same work, and save byte-identical
//! query and scan stores.

use std::path::Path;
use std::process::Command;

/// Run `stack scan <dir> --query-budget 50` with `extra` flags, returning
/// stdout.
fn scan(dir: &Path, extra: &[&str]) -> String {
    let output = Command::new(env!("CARGO_BIN_EXE_stack"))
        .arg("scan")
        .arg(dir)
        .args(["--query-budget", "50"])
        .args(extra)
        .output()
        .expect("run stack");
    assert_eq!(output.status.code(), Some(0), "{extra:?}: {output:?}");
    String::from_utf8(output.stdout).expect("stdout is UTF-8")
}

/// Every key of the `--json` summary, in order: the shape `stack scan
/// --json` keeps, since `jq -S` and key-based readers would not notice a
/// reorder.
const SUMMARY_KEYS: [&str; 36] = [
    "files",
    "failures",
    "modules_skipped",
    "functions_skipped",
    "files_replayed",
    "functions",
    "reports",
    "queries",
    "degraded_queries",
    "degraded_modules",
    "timeouts",
    "propagations",
    "conflicts",
    "restarts",
    "learned_clauses",
    "deleted_clauses",
    "avg_lbd",
    "sat_queries",
    "unsat_queries",
    "simulated",
    "cores_recorded",
    "avg_core_size",
    "minimization_queries_saved",
    "unsat_propagations",
    "incremental_queries",
    "reused_clauses",
    "store_hits",
    "store_misses",
    "store_hit_rate",
    "cache_file_loaded_entries",
    "scan_cache_loaded_entries",
    "jobs",
    "rerun_tasks",
    "shard_index",
    "shard_count",
    "elapsed_ms",
];

/// Run `stack scan --json` with `extra` flags: the summary's keys in
/// order, and the summary without the fields that name the width or time
/// the run.
fn json_summary(dir: &Path, extra: &[&str]) -> (Vec<String>, String) {
    let json = scan(dir, &[extra, &["--json"]].concat());
    let keys = json
        .lines()
        .filter_map(|line| line.trim_start().strip_prefix('"')?.split_once('"'))
        .map(|(key, _)| key.to_string())
        .collect();
    let summary = json
        .lines()
        .filter(|line| {
            !["\"elapsed_ms\"", "\"jobs\"", "\"rerun_tasks\""]
                .iter()
                .any(|field| line.contains(field))
        })
        .collect::<Vec<_>>()
        .join("\n");
    (keys, summary)
}

#[test]
fn budget_degraded_scan_output_is_the_same_at_every_width() {
    let dir = std::env::temp_dir().join(format!("stack-cli-widths-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let archive = dir.join("archive");
    let generated = Command::new(env!("CARGO_BIN_EXE_stack"))
        .arg("gen-archive")
        .arg(&archive)
        .args(["--packages", "8"])
        .output()
        .expect("run stack gen-archive");
    assert!(generated.status.success(), "{generated:?}");
    let summary = dir.join("summary.txt");
    let summary = summary.to_str().expect("temp path is UTF-8");

    let reports = |jobs: &[&str]| scan(&archive, &[jobs, &["--out", summary]].concat());
    let sequential = reports(&["--jobs", "1"]);
    assert!(!sequential.is_empty(), "the archive must produce reports");
    let (keys, sequential_json) = json_summary(&archive, &["--jobs", "1"]);
    assert_eq!(keys, SUMMARY_KEYS);
    assert!(
        !sequential_json.contains("\"degraded_queries\": 0,"),
        "budget 50 must degrade some queries: {sequential_json}"
    );
    for jobs in [&[][..], &["--jobs", "4"][..]] {
        assert_eq!(sequential, reports(jobs), "{jobs:?}");
        assert_eq!(sequential_json, json_summary(&archive, jobs).1, "{jobs:?}");
    }

    // Both stores, filled from a second archive, then carried through a
    // compacting scan of the first at every width: each width must save
    // the same bytes, so which entries a run touched, stamped and kept
    // does not depend on scheduling either.
    let second = dir.join("second");
    let generated = Command::new(env!("CARGO_BIN_EXE_stack"))
        .arg("gen-archive")
        .arg(&second)
        .args(["--packages", "8", "--seed", "5"])
        .output()
        .expect("run stack gen-archive");
    assert!(generated.status.success(), "{generated:?}");
    let path = |name: &str| {
        let path = dir.join(name);
        path.to_str().expect("temp path is UTF-8").to_string()
    };
    let (filled_qs, filled_ss) = (path("filled.qs"), path("filled.ss"));
    let fill = ["--cache-file", &filled_qs, "--scan-cache", &filled_ss];
    scan(&second, &[&fill[..], &["--out", summary]].concat());
    let saved = |label: &str, jobs: &[&str]| {
        let (qs, ss) = (path(&format!("{label}.qs")), path(&format!("{label}.ss")));
        std::fs::copy(&filled_qs, &qs).expect("copy query store");
        std::fs::copy(&filled_ss, &ss).expect("copy scan store");
        let stores = ["--cache-file", &qs, "--scan-cache", &ss];
        let compact = ["--compact-store", "1", "--out", summary];
        let reports = scan(&archive, &[jobs, &stores, &compact].concat());
        let read = |path: &str| std::fs::read(path).expect("read saved store");
        (reports, read(&qs), read(&ss))
    };
    let sequential = saved("jobs1", &["--jobs", "1"]);
    assert!(!sequential.1.is_empty() && !sequential.2.is_empty());
    for (label, jobs) in [("default", &[][..]), ("jobs4", &["--jobs", "4"][..])] {
        let (reports, qs, ss) = saved(label, jobs);
        assert_eq!(sequential.0, reports, "{jobs:?}: reports");
        assert!(sequential.1 == qs, "{jobs:?}: saved query stores differ");
        assert!(sequential.2 == ss, "{jobs:?}: saved scan stores differ");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
