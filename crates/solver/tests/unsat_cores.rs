//! Property-based audit of the assumption cores the SAT core extracts.
//!
//! The checker's minimal-UB-set loop trusts
//! [`last_core`](stack_solver::sat::SatSolver::last_core) to skip queries:
//! dropping a condition outside the core must leave the query `Unsat`. Two
//! contracts, over incremental sequences with mid-sequence clause growth
//! and an unlimited budget:
//!
//! 1. Every query gets the verdict that enumerating all 4 096 assignments
//!    of the 12 variables gives — an oracle independent of the solver.
//! 2. After every `Unsat`, the core lies within the query's assumptions,
//!    and re-solving the core as assumptions against the clauses loaded so
//!    far, in a fresh solver, yields `Unsat`. This would catch an
//!    over-narrow core (the bug class where an unsound root assignment
//!    shrank a core to a satisfiable subset).
//!
//! Assumption sets are drawn with `prop::collection::sample` over a fixed
//! literal pool so queries overlap heavily, and the learned clauses of
//! earlier queries shape the conflicts core extraction has to see through.

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

/// Whether some assignment of the 12 variables satisfies `clauses` and
/// makes every assumption true.
fn brute_force_sat(clauses: &[Lits], assumptions: &[(usize, bool)]) -> bool {
    let value = |bits: u16, &(v, pos): &(usize, bool)| (bits >> v & 1 == 1) == pos;
    (0..1u16 << NUM_VARS).any(|bits| {
        assumptions.iter().all(|l| value(bits, l))
            && clauses.iter().all(|c| c.iter().any(|l| value(bits, l)))
    })
}

/// The literal pool queries sample from: both polarities of a handful of
/// variables, so overlapping and contradictory assumption sets both occur.
fn literal_pool() -> Vec<(usize, bool)> {
    (0..NUM_VARS / 2)
        .flat_map(|v| [(v, true), (v, false)])
        .collect()
}

fn clause_set() -> impl Strategy<Value = Vec<Lits>> {
    prop::collection::vec(
        prop::collection::vec((0..NUM_VARS, any::<bool>()), 1..4),
        1..50,
    )
}

fn query_seq() -> impl Strategy<Value = Vec<Lits>> {
    prop::collection::vec(prop::collection::sample(literal_pool(), 1..5), 1..24)
}

/// The core of `s`'s last `Unsat` answer must name only assumption
/// literals and, re-solved as assumptions in a fresh solver over `loaded`,
/// must come back `Unsat`.
fn core_is_genuine(s: &SatSolver, assumptions: &[Lit], loaded: &[Lits]) -> Result<(), String> {
    let core = s
        .last_core()
        .ok_or("unsat under assumptions must report a core")?;
    if !core.iter().all(|l| assumptions.contains(l)) {
        return Err(format!(
            "core {core:?} not within assumptions {assumptions:?}"
        ));
    }
    let mut fresh = fresh_solver();
    add_all(&mut fresh, loaded);
    if fresh.solve_with(core, Budget::unlimited()) != SatResult::Unsat {
        return Err(format!("core {core:?} is not unsat"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Incremental sequence: verdicts match enumeration query for query,
    /// before and after mid-sequence clause growth, and every core the
    /// solver extracts is independently re-derivable as `Unsat` from the
    /// clauses loaded at the time.
    #[test]
    fn verdicts_match_brute_force_and_every_core_is_unsat(
        clauses in clause_set(),
        extra in prop::collection::vec(
            prop::collection::vec((0..NUM_VARS, any::<bool>()), 1..4), 0..20),
        queries in query_seq(),
    ) {
        let mut s = fresh_solver();
        add_all(&mut s, &clauses);

        let mut loaded = clauses.clone();
        let split = queries.len() / 2;
        for (i, q) in queries.iter().enumerate() {
            if i == split {
                add_all(&mut s, &extra);
                loaded.extend(extra.iter().cloned());
            }
            let assumptions = to_lits(q);
            let got = s.solve_with(&assumptions, Budget::unlimited());
            let want = if brute_force_sat(&loaded, q) {
                SatResult::Sat
            } else {
                SatResult::Unsat
            };
            prop_assert_eq!(got, want, "query {} of {:?}", i, q);
            if got == SatResult::Unsat {
                if let Err(msg) = core_is_genuine(&s, &assumptions, &loaded) {
                    prop_assert!(false, "query {}: {}", i, msg);
                }
            }
        }
    }
}
