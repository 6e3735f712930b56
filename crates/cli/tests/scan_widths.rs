//! `stack scan` output does not depend on its width: files are the only
//! unit of parallel work, and the scan pipeline gives every file the store
//! a sequential scan would. Under a query budget small enough to degrade
//! queries, the default width and `--jobs 4` must print exactly what
//! `--jobs 1` prints, and count exactly the same work.

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

/// The `--json` summary without the fields that name the width or time
/// the run.
fn json_summary(dir: &Path, extra: &[&str]) -> String {
    let json = scan(dir, &[extra, &["--json"]].concat());
    assert!(json.contains("\"degraded_queries\""), "{json}");
    json.lines()
        .filter(|line| {
            !["\"elapsed_ms\"", "\"jobs\"", "\"rerun_tasks\""]
                .iter()
                .any(|field| line.contains(field))
        })
        .collect::<Vec<_>>()
        .join("\n")
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
    let sequential_json = json_summary(&archive, &["--jobs", "1"]);
    assert!(
        !sequential_json.contains("\"degraded_queries\": 0,"),
        "budget 50 must degrade some queries: {sequential_json}"
    );
    for jobs in [&[][..], &["--jobs", "4"][..]] {
        assert_eq!(sequential, reports(jobs), "{jobs:?}");
        assert_eq!(sequential_json, json_summary(&archive, jobs), "{jobs:?}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
