//! Cross-crate integration tests: run the full pipeline (frontend → analysis
//! pre-pass → checker) over every paper example in the corpus and check that
//! the expected reports appear (and that stable code stays clean).

use stack_repro::core::{Algorithm, AnalysisSession, UbKind};
use stack_repro::corpus;

fn check(source: &str, file: &str) -> stack_repro::core::CheckResult {
    AnalysisSession::default()
        .check_source(source, file)
        .expect("compiles")
}

#[test]
fn every_unstable_pattern_is_reported_and_every_stable_one_is_not() {
    for pattern in corpus::all_patterns() {
        let result = check(pattern.source, &format!("{}.c", pattern.id));
        if pattern.expect_report {
            assert!(
                !result.reports.is_empty(),
                "{} ({}): expected a report\n{}",
                pattern.id,
                pattern.paper_ref,
                pattern.source
            );
        } else {
            assert!(
                result.reports.is_empty(),
                "{} ({}): expected no reports, got {:?}",
                pattern.id,
                pattern.paper_ref,
                result.reports
            );
        }
    }
}

#[test]
fn figure2_report_names_the_dereference() {
    let p = corpus::FIG2_TUN_NULL_CHECK;
    let result = check(p.source, "tun.c");
    let report = result
        .reports
        .iter()
        .find(|r| r.involves(UbKind::NullPointerDereference))
        .expect("a null-dereference-based report");
    assert_eq!(report.function, "tun_chr_poll");
    // The minimal UB set points at line 2 (the tun->sk load).
    assert!(report.ub_sources.iter().any(|s| s.location.ends_with(":2")));
}

#[test]
fn figure12_is_found_by_the_algebra_oracle() {
    let p = corpus::FIG12_FFMPEG_BOUNDS;
    let result = check(p.source, "amf.c");
    assert!(result
        .reports
        .iter()
        .any(|r| r.algorithm == Algorithm::SimplifyAlgebra));
    assert!(result
        .reports
        .iter()
        .any(|r| r.involves(UbKind::PointerOverflow)));
}

#[test]
fn figure10_and_figure14_are_both_flagged_but_classified_differently() {
    let fig10 = corpus::FIG10_POSTGRES_DIVISION;
    let fig14 = corpus::FIG14_POSTGRES_TIMEBOMB;
    assert!(!check(fig10.source, "pg.c").reports.is_empty());
    assert!(!check(fig14.source, "pg2.c").reports.is_empty());
    // Figure 14 is a time bomb: no surveyed compiler discards it yet.
    let class = stack_repro::core::classify_source(fig14.source, "pg2.c", 2);
    assert_eq!(class, stack_repro::core::BugClass::TimeBomb);
}

#[test]
fn table1_idioms_are_flagged_with_the_right_ub_class() {
    // The hand-transcribed real-world idioms (libtool's post-dereference
    // null check, e1000e's memset-of-null, e2fsprogs' signed offset
    // overflow guard) must each yield a report involving the UB class the
    // paper attributes to them.
    let session = AnalysisSession::default();
    for idiom in corpus::table1_idioms() {
        let result = session
            .check_source(idiom.source, &format!("{}.c", idiom.id))
            .unwrap_or_else(|e| panic!("{}: {e}", idiom.id));
        let expected = match idiom.ub {
            "null" => UbKind::NullPointerDereference,
            "integer" => UbKind::SignedIntegerOverflow,
            "pointer" => UbKind::PointerOverflow,
            other => panic!("unexpected UB label {other}"),
        };
        assert!(
            result.reports.iter().any(|r| r.involves(expected)),
            "{} ({}): expected a {:?} report, got {:?}",
            idiom.id,
            idiom.paper_ref,
            expected,
            result.reports
        );
    }
}

#[test]
fn figure9_corpus_bugs_are_all_detected() {
    // Sample the per-system corpus (every 7th bug keeps the test fast) and
    // confirm each generated bug yields at least one report of a matching
    // UB class.
    let session = AnalysisSession::default();
    for bug in corpus::figure9_corpus().iter().step_by(7) {
        let result = session.check_source(&bug.source, &bug.file).unwrap();
        assert!(
            !result.reports.is_empty(),
            "{} ({}): expected a report\n{}",
            bug.file,
            bug.ub,
            bug.source
        );
    }
}

#[test]
fn compiler_profiles_discard_what_the_checker_flags() {
    // End-to-end consistency: the aggressive profile must discard the checks
    // in the §2.2 idioms that the checker reports as unstable.
    use stack_repro::opt::{most_aggressive, run_profile};
    for pattern in corpus::SEC22_EXAMPLES {
        let report_count = check(pattern.source, "x.c").reports.len();
        let mut module = stack_repro::minic::compile(pattern.source, "x.c").unwrap();
        let events = run_profile(&mut module, &most_aggressive(), 3);
        assert!(
            report_count > 0 && !events.is_empty(),
            "{}: checker reports {} but aggressive compiler events {}",
            pattern.id,
            report_count,
            events.len()
        );
    }
}

#[test]
fn checker_budget_exhaustion_is_counted_not_crashed() {
    use stack_repro::core::CheckerConfig;
    let tight = AnalysisSession::new(CheckerConfig {
        query_budget: 50,
        ..CheckerConfig::default()
    });
    // A function with multiplication makes queries expensive enough to hit a
    // 50-propagation budget.
    let src = "long f(long a, long b) { long p = a * b; if (p < a) return 1; return 0; }";
    let result = tight.check_source(src, "t.c").unwrap();
    assert!(result.stats.timeouts > 0);
}
