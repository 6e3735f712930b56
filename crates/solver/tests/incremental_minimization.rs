//! Property coverage for the solver's persistent SAT instance on random
//! fragments (a base assertion plus a set of UB-condition-like boolean
//! terms), the shape of the checker's Figure 8 minimization queries:
//!
//! * every assumption core a long-lived [`BvSolver`] reports after an
//!   `Unsat` answer is a subset of that query's assertions and is `Unsat`
//!   on its own, decided by a new solver;
//! * the greedy minimization loop run on one solver and seeded from those
//!   cores, the way the checker's `minimal_ub_set` seeds it, finds the same
//!   minimal condition sets as the unseeded loop with a new solver per
//!   iteration.
//!
//! Budgets are unlimited, so `Unknown` cannot occur.

use proptest::prelude::*;
use stack_solver::{BvSolver, QueryResult, TermId, TermPool};
use std::cell::Cell;

fn lcg(state: &mut u64) -> u64 {
    *state = state
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *state >> 33
}

/// A random 8-bit term over `x`, `y`, `z`, and constants, of bounded depth.
fn random_bv(pool: &mut TermPool, state: &mut u64, depth: u32) -> TermId {
    if depth == 0 || lcg(state).is_multiple_of(3) {
        return match lcg(state) % 4 {
            0 => pool.bv_var("x", 8),
            1 => pool.bv_var("y", 8),
            2 => pool.bv_var("z", 8),
            _ => pool.bv_const(8, lcg(state) & 0xFF),
        };
    }
    let a = random_bv(pool, state, depth - 1);
    let b = random_bv(pool, state, depth - 1);
    match lcg(state) % 5 {
        0 => pool.bv_add(a, b),
        1 => pool.bv_sub(a, b),
        2 => pool.bv_mul(a, b),
        3 => pool.bv_and(a, b),
        _ => pool.bv_xor(a, b),
    }
}

/// A random boolean "condition": a comparison between two random terms,
/// sometimes negated — the shape of an encoded UB condition.
fn random_condition(pool: &mut TermPool, state: &mut u64) -> TermId {
    let a = random_bv(pool, state, 2);
    let b = random_bv(pool, state, 2);
    let cmp = match lcg(state) % 4 {
        0 => pool.bv_ult(a, b),
        1 => pool.bv_slt(a, b),
        2 => pool.eq(a, b),
        _ => pool.bv_ule(a, b),
    };
    if lcg(state).is_multiple_of(3) {
        pool.not(cmp)
    } else {
        cmp
    }
}

/// A random fragment: a base ("reachability") assertion plus 1–5 condition
/// negations, mirroring the assertion sets of the checker's Figure 8 loop.
fn random_fragment(seed: u64) -> (TermPool, TermId, Vec<TermId>) {
    let mut pool = TermPool::new();
    let mut state = seed | 1;
    let base = random_condition(&mut pool, &mut state);
    let count = 1 + (lcg(&mut state) % 5) as usize;
    let negs = (0..count)
        .map(|_| {
            let cond = random_condition(&mut pool, &mut state);
            pool.not(cond)
        })
        .collect();
    (pool, base, negs)
}

/// The query of one Figure 8 iteration: `base` and every negation but the
/// one at `skip` (`None` keeps them all: the query that triggers the loop).
fn iteration(base: TermId, negs: &[TermId], skip: Option<usize>) -> Vec<TermId> {
    let mut assertions = vec![base];
    assertions.extend(
        negs.iter()
            .enumerate()
            .filter(|&(i, _)| Some(i) != skip)
            .map(|(_, &n)| n),
    );
    assertions
}

/// The greedy Figure 8 minimization, a new solver per iteration: a
/// condition is essential iff dropping (only) its negation makes the query
/// satisfiable.
fn minimal_set_fresh(pool: &TermPool, base: TermId, negs: &[TermId]) -> Vec<usize> {
    (0..negs.len())
        .filter(|&skip| {
            !BvSolver::new()
                .check(pool, &iteration(base, negs, Some(skip)))
                .is_unsat()
        })
        .collect()
}

/// The same loop on one solver, after the triggering query and seeded from
/// its cores as the checker's `minimal_ub_set` is: an iteration whose
/// dropped negation lies outside the current core is `Unsat` without a
/// query, and each `Unsat` iteration refreshes the core.
fn minimal_set_seeded(pool: &TermPool, base: TermId, negs: &[TermId]) -> Vec<usize> {
    let mut solver = BvSolver::new();
    solver.check(pool, &iteration(base, negs, None));
    let mut core = solver.last_unsat_core().map(<[TermId]>::to_vec);
    let mut essential = Vec::new();
    for (skip, neg) in negs.iter().enumerate() {
        if core.as_ref().is_some_and(|c| !c.contains(neg)) {
            SKIPPED.with(|n| n.set(n.get() + 1));
            continue;
        }
        if solver
            .check(pool, &iteration(base, negs, Some(skip)))
            .is_unsat()
        {
            core = solver.last_unsat_core().map(<[TermId]>::to_vec);
        } else {
            essential.push(skip);
        }
    }
    essential
}

thread_local! {
    /// Iterations [`minimal_set_seeded`] skipped on a core.
    static SKIPPED: Cell<u64> = const { Cell::new(0) };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Core-seeded minimization on one solver agrees with the unseeded loop
    /// on a new solver per iteration, on every random fragment.
    fn seeded_minimization_matches_fresh(seed in any::<u64>()) {
        let (pool, base, negs) = random_fragment(seed);
        let fresh = minimal_set_fresh(&pool, base, &negs);
        let seeded = minimal_set_seeded(&pool, base, &negs);
        prop_assert_eq!(fresh, seeded, "minimal UB sets must agree");
    }

    /// One long-lived solver answers the triggering query and every
    /// minimization iteration as a new solver does, and every core it
    /// reports is an `Unsat` subset of its query's assertions.
    #[test]
    fn incremental_bvsolver_minimization_matches(seed in any::<u64>()) {
        let (pool, base, negs) = random_fragment(seed);
        let mut solver = BvSolver::new();
        let queries = std::iter::once(None).chain((0..negs.len()).map(Some));
        for skip in queries {
            let assertions = iteration(base, &negs, skip);
            let answer = solver.check(&pool, &assertions);
            let fresh = BvSolver::new().check(&pool, &assertions);
            prop_assert_eq!(answer.is_unsat(), fresh.is_unsat(), "iteration {:?}", skip);
            prop_assert!(!answer.is_unknown());
            let core = solver.last_unsat_core();
            if !answer.is_unsat() {
                prop_assert!(core.is_none(), "a core after a non-Unsat answer");
                continue;
            }
            // No store is attached, so every Unsat answer carries a core.
            let core = core.expect("an Unsat answer without a store has a core").to_vec();
            prop_assert!(core.iter().all(|t| assertions.contains(t)), "core {:?} ⊄ query", core);
            prop_assert_eq!(BvSolver::new().check(&pool, &core), QueryResult::Unsat);
        }
        // Queries decided by pre-solve simplification (e.g. a complementary
        // literal pair) never reach the SAT core, so this is an upper bound.
        prop_assert!(solver.stats().incremental_queries <= 1 + negs.len() as u64);
    }
}

#[test]
fn incremental_minimization_matches_fresh() {
    seeded_minimization_matches_fresh();
    assert!(
        SKIPPED.with(Cell::get) > 0,
        "no iteration was skipped on a core, so seeding went untested"
    );
}
