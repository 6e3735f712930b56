//! Property-based cross-check of the CDCL core against an independent
//! oracle: enumeration of all 4 096 assignments of its 12 variables.
//!
//! The contract under test: with an unlimited budget, every query in an
//! incremental sequence gets the verdict enumeration gives, and every `Sat`
//! model satisfies the clauses loaded so far and the query's assumptions.
//! Queries alternate and repeat literals, and clauses join the formula
//! mid-sequence, so learned clauses and leftover trails from earlier queries
//! are in play.

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

fn fresh_solver() -> SatSolver {
    let mut s = SatSolver::new();
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

/// Whether assignment `bits` (bit `v` is variable `v`) makes every literal
/// of `lits` true (`all`) or some literal true (`!all`).
fn holds(bits: u16, lits: &[(usize, bool)], all: bool) -> bool {
    let value = |&(v, pos): &(usize, bool)| (bits >> v & 1 == 1) == pos;
    if all {
        lits.iter().all(value)
    } else {
        lits.iter().any(value)
    }
}

/// Every assignment that satisfies `clauses`.
fn models(clauses: &[Lits]) -> Vec<u16> {
    (0..1u16 << NUM_VARS)
        .filter(|&bits| clauses.iter().all(|c| holds(bits, c, false)))
        .collect()
}

/// The oracle's verdict for `assumptions` over the enumerated `models`.
fn oracle(models: &[u16], assumptions: &[(usize, bool)]) -> SatResult {
    if models.iter().any(|&bits| holds(bits, assumptions, true)) {
        SatResult::Sat
    } else {
        SatResult::Unsat
    }
}

/// The solver's reported model as an assignment.
fn model_bits(s: &SatSolver) -> u16 {
    (0..NUM_VARS).fold(0, |bits, v| {
        bits | (u16::from(s.model_value(Var(v as u32))) << v)
    })
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
    /// again. Verdicts must match enumeration query for query, and `Sat`
    /// models must satisfy all clauses added so far plus the assumptions.
    #[test]
    fn incremental_queries_agree_with_brute_force(
        clauses in clause_set(),
        extra in prop::collection::vec(
            prop::collection::vec((0..NUM_VARS, any::<bool>()), 1..4), 0..20),
        queries in query_seq(),
    ) {
        let mut s = fresh_solver();
        add_all(&mut s, &clauses);
        let mut loaded = clauses.clone();
        let mut satisfying = models(&loaded);
        let split = queries.len() / 2;
        for (i, q) in queries.iter().enumerate() {
            if i == split {
                add_all(&mut s, &extra);
                loaded.extend(extra.iter().cloned());
                satisfying = models(&loaded);
            }
            let got = s.solve_with(&to_lits(q), Budget::unlimited());
            prop_assert_eq!(got, oracle(&satisfying, q), "query {} of {:?}", i, q);
            if got == SatResult::Sat {
                let bits = model_bits(&s);
                prop_assert!(satisfying.contains(&bits), "query {i}: clauses");
                prop_assert!(holds(bits, q, true), "query {i}: assumptions");
            }
        }
    }

    /// One-shot solve, the way fresh-mode queries run: solve once without
    /// assumptions. The verdict must match enumeration and a `Sat` model
    /// must satisfy every clause.
    #[test]
    fn one_shot_solves_agree_with_brute_force_and_models_check(clauses in clause_set()) {
        let mut s = fresh_solver();
        add_all(&mut s, &clauses);
        let satisfying = models(&clauses);
        let got = s.solve();
        prop_assert_eq!(got, oracle(&satisfying, &[]));
        if got == SatResult::Sat {
            prop_assert!(satisfying.contains(&model_bits(&s)));
        }
    }
}
