//! Property-based equivalence between the default solver (vivification,
//! binary watch lists, trail reuse, the model cache) and the plain CDCL core
//! `set_preprocessing(false)` leaves.
//!
//! The contract under test: with an unlimited budget the two
//! configurations answer every query in an incremental sequence with the
//! same `Sat`/`Unsat` verdict, and every `Sat` model — including models
//! served from the solver's internal model cache — satisfies the
//! *original* clauses and the query's assumptions. Queries deliberately
//! alternate and repeat literals so the trail-reuse and model-cache
//! shortcuts fire often.

use proptest::prelude::*;
use stack_solver::lit::{Lit, Var};
use stack_solver::sat::{Budget, SatResult, SatSolver};

/// A clause or assumption set as (variable index, polarity) pairs.
type Lits = Vec<(usize, bool)>;

const NUM_VARS: usize = 12;

fn to_lits(spec: &[(usize, bool)]) -> Vec<Lit> {
    spec.iter()
        .map(|&(v, pos)| Lit::new(Var(v as u32), pos))
        .collect()
}

fn fresh_solver(preprocessing: bool) -> SatSolver {
    let mut s = SatSolver::new();
    s.set_preprocessing(preprocessing);
    for _ in 0..NUM_VARS {
        s.new_var();
    }
    s
}

fn add_all(s: &mut SatSolver, clauses: &[Lits]) {
    for c in clauses {
        s.add_clause(&to_lits(c));
    }
}

/// Every original clause must hold under the solver's reported model.
fn model_satisfies(s: &SatSolver, clauses: &[Lits]) -> bool {
    clauses.iter().all(|c| {
        c.iter()
            .any(|&(v, pos)| s.model_value(Var(v as u32)) == pos)
    })
}

fn assumptions_hold(s: &SatSolver, assumptions: &[(usize, bool)]) -> bool {
    assumptions
        .iter()
        .all(|&(v, pos)| s.model_value(Var(v as u32)) == pos)
}

fn clause_set() -> impl Strategy<Value = Vec<Lits>> {
    prop::collection::vec(
        prop::collection::vec((0..NUM_VARS, any::<bool>()), 1..4),
        1..50,
    )
}

fn query_seq() -> impl Strategy<Value = Vec<Lits>> {
    prop::collection::vec(
        prop::collection::vec((0..NUM_VARS, any::<bool>()), 1..4),
        1..24,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Incremental sequence: load clauses, query, grow the formula, query
    /// again. Verdicts must match the plain solver query for query, and
    /// `Sat` models must satisfy all clauses added so far plus the
    /// assumptions (this would catch a stale model-cache hit surviving an
    /// `add_clause`).
    #[test]
    fn incremental_queries_agree_with_plain_solver(
        clauses in clause_set(),
        extra in prop::collection::vec(
            prop::collection::vec((0..NUM_VARS, any::<bool>()), 1..4), 0..20),
        queries in query_seq(),
    ) {
        let mut on = fresh_solver(true);
        let mut off = fresh_solver(false);
        add_all(&mut on, &clauses);
        add_all(&mut off, &clauses);

        let mut loaded = clauses.clone();
        let split = queries.len() / 2;
        for (i, q) in queries.iter().enumerate() {
            if i == split {
                add_all(&mut on, &extra);
                add_all(&mut off, &extra);
                loaded.extend(extra.iter().cloned());
            }
            let assumptions = to_lits(q);
            let got = on.solve_with(&assumptions, Budget::unlimited());
            let want = off.solve_with(&assumptions, Budget::unlimited());
            prop_assert_eq!(got, want, "query {} of {:?}", i, q);
            if got == SatResult::Sat {
                prop_assert!(model_satisfies(&on, &loaded), "query {i}: clauses");
                prop_assert!(assumptions_hold(&on, q), "query {i}: assumptions");
                prop_assert!(model_satisfies(&off, &loaded), "query {i}: plain clauses");
            }
        }
    }

    /// One-shot solve, the way fresh-mode queries run: solve once without
    /// assumptions. The verdict must match the plain solver and a `Sat`
    /// model must satisfy every clause.
    #[test]
    fn one_shot_preprocessing_agrees_and_models_check(clauses in clause_set()) {
        let mut on = fresh_solver(true);
        let mut off = fresh_solver(false);
        add_all(&mut on, &clauses);
        add_all(&mut off, &clauses);
        let got = on.solve();
        prop_assert_eq!(got, off.solve());
        if got == SatResult::Sat {
            prop_assert!(model_satisfies(&on, &clauses));
            prop_assert!(model_satisfies(&off, &clauses));
        }
    }
}
