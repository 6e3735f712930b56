//! Property-based audit of the assumption cores the SAT core extracts.
//!
//! The checker's minimal-UB-set loop trusts
//! [`last_core`](stack_solver::sat::SatSolver::last_core) to skip queries:
//! dropping a condition outside the core must leave the query `Unsat`. Two
//! contracts, over incremental sequences with mid-sequence clause growth
//! and an unlimited budget:
//!
//! 1. A solver with hyper-binary resolution on answers every query with
//!    the same `Sat`/`Unsat` verdict as a solver with it off.
//! 2. After every `Unsat`, each solver's core lies within the query's
//!    assumptions, and re-solving the core as assumptions against the
//!    clauses loaded so far, in a fresh solver, yields `Unsat`. This would
//!    catch an over-narrow core (the bug class where an unsound root
//!    assignment shrank a core to a satisfiable subset).
//!
//! Assumption sets are drawn with `prop::collection::sample` over a fixed
//! literal pool so queries overlap heavily — that is what keeps assumption
//! levels alive across queries through trail reuse, the state core
//! extraction has to see through.

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

fn fresh_solver(hbr: bool) -> SatSolver {
    let mut s = SatSolver::new();
    s.set_hbr(hbr);
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
    let mut fresh = fresh_solver(false);
    add_all(&mut fresh, loaded);
    if fresh.solve_with(core, Budget::unlimited()) != SatResult::Unsat {
        return Err(format!("core {core:?} is not unsat"));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Incremental sequence with HBR on vs off: verdicts agree query for
    /// query, before and after mid-sequence clause growth, and every core
    /// either solver extracts is independently re-derivable as `Unsat`
    /// from the clauses loaded at the time.
    #[test]
    fn hbr_on_off_agree_and_every_core_is_unsat(
        clauses in clause_set(),
        extra in prop::collection::vec(
            prop::collection::vec((0..NUM_VARS, any::<bool>()), 1..4), 0..20),
        queries in query_seq(),
    ) {
        let mut on = fresh_solver(true);
        let mut off = fresh_solver(false);
        add_all(&mut on, &clauses);
        add_all(&mut off, &clauses);
        prop_assert!(on.preprocess(Budget::unlimited()) != Some(SatResult::Unknown));
        prop_assert!(off.preprocess(Budget::unlimited()) != Some(SatResult::Unknown));

        let mut loaded = clauses.clone();
        let split = queries.len() / 2;
        for (i, q) in queries.iter().enumerate() {
            if i == split {
                add_all(&mut on, &extra);
                add_all(&mut off, &extra);
                loaded.extend(extra.iter().cloned());
                prop_assert!(on.preprocess(Budget::unlimited()) != Some(SatResult::Unknown));
                prop_assert!(off.preprocess(Budget::unlimited()) != Some(SatResult::Unknown));
            }
            let assumptions = to_lits(q);
            let got = on.solve_with(&assumptions, Budget::unlimited());
            let want = off.solve_with(&assumptions, Budget::unlimited());
            prop_assert_eq!(got, want, "query {} of {:?}", i, q);
            if got == SatResult::Unsat {
                for (name, s) in [("hbr on", &on), ("hbr off", &off)] {
                    if let Err(msg) = core_is_genuine(s, &assumptions, &loaded) {
                        prop_assert!(false, "query {} ({}): {}", i, name, msg);
                    }
                }
            }
        }
    }
}
