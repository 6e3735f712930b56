//! Property-based tests over the whole pipeline: randomly generated programs
//! from the corpus templates must compile, verify, survive the analysis
//! pre-pass, and never make the checker panic; solver terms built from the
//! frontend must agree with concrete evaluation.

use proptest::prelude::*;
use stack_repro::core::AnalysisSession;
use stack_repro::corpus::{bug_template, UB_COLUMNS};
use stack_repro::solver::{BvSolver, QueryResult, TermPool};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every bug template, for arbitrary instantiation indices, compiles,
    /// verifies, and produces at least one report.
    #[test]
    fn bug_templates_always_yield_reports(ub_idx in 0usize..10, n in 1usize..50) {
        let ub = UB_COLUMNS[ub_idx];
        let src = bug_template(ub, "probe", n);
        let mut module = stack_repro::minic::compile(&src, "prop.c").unwrap();
        stack_repro::ir::verify_module(&module).unwrap();
        stack_repro::opt::optimize_for_analysis(&mut module);
        stack_repro::ir::verify_module(&module).unwrap();
        let result = AnalysisSession::default().check_module(&module);
        prop_assert!(!result.reports.is_empty(), "{ub}: {src}");
    }

    /// The solver agrees with concrete evaluation: for random constants, the
    /// formula `x == a && y == b && (x op y) != (a op b)` is UNSAT.
    #[test]
    fn solver_matches_concrete_arithmetic(a in any::<u32>(), b in 1u32..1000) {
        let mut pool = TermPool::new();
        let mut solver = BvSolver::new();
        let x = pool.bv_var("x", 32);
        let y = pool.bv_var("y", 32);
        let ca = pool.bv_const(32, u64::from(a));
        let cb = pool.bv_const(32, u64::from(b));
        let xeq = pool.eq(x, ca);
        let yeq = pool.eq(y, cb);

        let sum = pool.bv_add(x, y);
        let expected_sum = pool.bv_const(32, u64::from(a.wrapping_add(b)));
        let sum_neq = pool.ne(sum, expected_sum);
        prop_assert!(solver.check(&pool, &[xeq, yeq, sum_neq]).is_unsat());

        let quot = pool.bv_udiv(x, y);
        let expected_quot = pool.bv_const(32, u64::from(a / b));
        let quot_neq = pool.ne(quot, expected_quot);
        prop_assert!(solver.check(&pool, &[xeq, yeq, quot_neq]).is_unsat());
    }

    /// Satisfiable queries return models that actually satisfy the asserted
    /// terms (model soundness end to end through bit-blasting).
    #[test]
    fn models_satisfy_assertions(target in any::<u16>()) {
        let mut pool = TermPool::new();
        let mut solver = BvSolver::new();
        let x = pool.bv_var("x", 16);
        let y = pool.bv_var("y", 16);
        let sum = pool.bv_add(x, y);
        let t = pool.bv_const(16, u64::from(target));
        let eq = pool.eq(sum, t);
        let xne = pool.ne(x, y);
        match solver.check(&pool, &[eq, xne]) {
            QueryResult::Sat(model) => {
                prop_assert!(model.eval_bool(&pool, eq));
                prop_assert!(model.eval_bool(&pool, xne));
            }
            QueryResult::Unsat => {
                // Only possible if no two distinct x, y sum to target — never
                // true for 16-bit arithmetic.
                prop_assert!(false, "unexpected UNSAT");
            }
            QueryResult::Unknown => {}
        }
    }
}
