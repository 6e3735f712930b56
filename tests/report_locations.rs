//! The location oracle: every report names the file it came from and the
//! line of the function it is in.
//!
//! The archive generator writes one function per line, so the line that
//! holds `<function>(` is the line of every fragment of that function and
//! of every UB condition behind its reports. The oracle needs no generator
//! bookkeeping, and it sees what a per-file report count cannot: a report
//! filed under the right file but the wrong line (a string literal that
//! crossed a line break once moved every later report down).

use stack_repro::core::{
    AnalysisSession, BugReport, CheckerConfig, ScanEvent, ScanPipeline, ScanSource, ScanTask,
};
use stack_repro::corpus::{churn_functions_count, generate_archive, ArchiveConfig, ArchiveFile};
use std::collections::HashMap;

/// Scan `files` through the pipeline, keeping macro-origin reports too, and
/// return every report in emission order.
fn scan(files: &[ArchiveFile]) -> Vec<BugReport> {
    let tasks: Vec<ScanTask> = files
        .iter()
        .map(|f| ScanTask {
            name: f.name.clone(),
            source: ScanSource::Inline(f.source.clone()),
        })
        .collect();
    let session = AnalysisSession::new(CheckerConfig {
        report_compiler_generated: true,
        ..CheckerConfig::default()
    });
    let mut reports = Vec::new();
    let outcome = ScanPipeline::new(&session, 2).run(&tasks, &mut |event| match event {
        ScanEvent::Report(r) => reports.push(r),
        ScanEvent::Failure { name, error } => panic!("{name}: {error}"),
    });
    assert_eq!(outcome.failures, 0);
    reports
}

/// Check every report of a scan of `files` against the oracle; returns how
/// many reports were checked.
fn assert_located(files: &[ArchiveFile]) -> usize {
    let index: HashMap<&str, (usize, &str)> = files
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), (i, f.source.as_str())))
        .collect();
    let reports = scan(files);
    let mut previous = 0;
    for report in &reports {
        // Reports come in task order, so a report's file is its task's name
        // exactly when it names a task no earlier than the last one.
        let Some(&(task, source)) = index.get(report.file.as_str()) else {
            panic!("report names no scanned file: {report:?}");
        };
        assert!(task >= previous, "report out of task order: {report:?}");
        previous = task;
        let needle = format!("{}(", report.function);
        let lines: Vec<usize> = source
            .lines()
            .enumerate()
            .filter(|(_, text)| text.contains(&needle))
            .map(|(i, _)| i + 1)
            .collect();
        assert_eq!(lines.len(), 1, "`{needle}` in {}: {lines:?}", report.file);
        assert_eq!(report.line as usize, lines[0], "{report:?}");
        let location = format!("{}:{}", report.file, lines[0]);
        for ub in &report.ub_sources {
            assert_eq!(ub.location, location, "{report:?}");
        }
    }
    reports.len()
}

/// The archive of the CI scan smokes (`stack gen-archive --packages 8`).
#[test]
fn ci_archive_reports_sit_on_their_function_lines() {
    let files = generate_archive(&ArchiveConfig {
        packages: 8,
        ..ArchiveConfig::default()
    });
    assert!(assert_located(&files) > 0);
}

/// The edit-tail benchmark input: in-place edits rewrite function bodies,
/// and the reports must still land on the edited lines.
#[test]
fn edited_archive_reports_sit_on_their_function_lines() {
    let base = generate_archive(&ArchiveConfig {
        packages: 48,
        seed: 41,
        ..ArchiveConfig::default()
    });
    let files = churn_functions_count(&base, 41, 12).files;
    assert!(assert_located(&files) > 0);
}
