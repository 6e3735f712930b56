//! Workspace smoke test: the `stack-repro` facade must re-export every layer
//! of the pipeline. Each assertion goes through the facade paths only, so a
//! wiring regression (dropped re-export, renamed module) fails `cargo test -q`
//! even when the underlying crates still pass their own suites.

use stack_repro::corpus::{all_patterns, FIG2_TUN_NULL_CHECK, UB_COLUMNS};
use stack_repro::solver::{BvSolver, QueryResult, TermPool};
use stack_repro::{Algorithm, AnalysisSession, CheckResult, CheckerConfig, UbKind};

#[test]
fn checker_reexport_analyzes_figure2() {
    let session = AnalysisSession::default();
    let result: CheckResult = session
        .check_source(FIG2_TUN_NULL_CHECK.source, "tun.c")
        .expect("Figure 2 example must compile");
    assert!(
        !result.reports.is_empty(),
        "Figure 2 example must be flagged as unstable"
    );
    assert!(result
        .reports
        .iter()
        .any(|r| r.involves(UbKind::NullPointerDereference)));
    assert!(result
        .reports
        .iter()
        .any(|r| r.algorithm == Algorithm::Elimination));
}

#[test]
fn checker_config_reexport_is_usable() {
    let session = AnalysisSession::new(CheckerConfig {
        report_compiler_generated: true,
        ..CheckerConfig::default()
    });
    let result = session
        .check_source(FIG2_TUN_NULL_CHECK.source, "tun.c")
        .unwrap();
    assert!(!result.reports.is_empty());
}

#[test]
fn solver_reexport_answers_queries() {
    let mut pool = TermPool::new();
    let mut solver = BvSolver::new();
    let x = pool.bv_var("x", 32);
    let zero = pool.bv_const(32, 0);
    let eq = pool.eq(x, zero);
    let ne = pool.ne(x, zero);
    // x == 0 is satisfiable; x == 0 && x != 0 is not.
    assert!(matches!(solver.check(&pool, &[eq]), QueryResult::Sat(_)));
    assert!(solver.check(&pool, &[eq, ne]).is_unsat());
}

#[test]
fn corpus_tables_reexported() {
    assert_eq!(UB_COLUMNS.len(), 10, "Figure 9 has ten UB columns");
    let patterns = all_patterns();
    assert!(
        patterns.len() >= 8,
        "corpus must expose the paper's figures; got {}",
        patterns.len()
    );
    assert!(patterns.iter().any(|p| p.id == FIG2_TUN_NULL_CHECK.id));
}

#[test]
fn pipeline_modules_reexported_end_to_end() {
    // minic -> ir -> opt through the facade module aliases.
    let mut module =
        stack_repro::minic::compile(FIG2_TUN_NULL_CHECK.source, "tun.c").expect("compiles");
    stack_repro::ir::verify_module(&module).expect("verifies");
    stack_repro::opt::optimize_for_analysis(&mut module);
    stack_repro::ir::verify_module(&module).expect("still verifies after optimization");
}
