//! Incremental solving under assumptions.
//!
//! The checker's minimal-UB-set computation (paper Figure 8) and its
//! oracle-comparison loop re-query the solver with near-identical assertion
//! sets: the same fragment encoding, with a different subset of negated UB
//! conditions each time. [`BvSolver::check`](crate::solver::BvSolver::check)
//! rebuilds the CNF from scratch per query, so every iteration pays the full
//! bit-blasting cost again, and the query cache only collapses *identical*
//! assertion sets.
//!
//! A [`SolverInstance`] removes that rebuild: it keeps one [`SatSolver`] and
//! one [`BitBlaster`] alive across queries against a single [`TermPool`].
//! Terms are registered once — [`SolverInstance::literal_for`] Tseitin-encodes
//! a boolean term into an *assumption literal* without asserting it — and
//! [`SolverInstance::check_assuming`] decides the conjunction of any subset of
//! registered literals by solving the accumulated CNF under those literals as
//! assumptions (no push/pop; toggling an assumption in or out costs nothing).
//! Because the definitional clauses stay loaded, so do the learned clauses the
//! SAT core derived from them, which typically makes later queries in the loop
//! cheaper than the first, not merely no-more-expensive.
//!
//! # Semantics
//!
//! * An assumption literal `l = literal_for(t)` is *definitionally* tied to
//!   `t`: the CNF contains `l ↔ blast(t)` but never the unit clause `l`.
//!   `check_assuming(&[l1, …, ln])` is therefore exactly satisfiability of
//!   `t1 ∧ … ∧ tn` — the same answer a fresh
//!   [`BvSolver::check`](crate::solver::BvSolver::check) on `[t1, …, tn]`
//!   would produce for decided (`Sat`/`Unsat`) results.
//! * Budget-exhausted [`QueryResult::Unknown`] outcomes are the one place the
//!   modes may diverge: the incremental CNF (and its learned clauses) depends
//!   on the query history of the instance, so where exactly a propagation
//!   budget runs out can differ from a fresh single-query run. Decided
//!   results never depend on history; `Unknown` is never cached either way.
//! * An instance is only meaningful against the [`TermPool`] it was first fed
//!   ([`TermId`]s are pool-local); this is enforced via the pool's
//!   [`epoch`](TermPool::epoch) in debug builds. The owning
//!   [`BvSolver`](crate::solver::BvSolver) replaces its instance whenever the
//!   pool changes, which in the checker means one instance per function — the
//!   function's fragments all share one encoding.

use crate::blast::BitBlaster;
use crate::lit::Lit;
use crate::model::Model;
use crate::sat::{Budget, SatResult, SatSolver, SatStats};
use crate::solver::QueryResult;
use crate::term::{TermId, TermPool};

/// Counters for one [`SolverInstance`] (folded into
/// [`SolverStats`](crate::solver::SolverStats) by the owning solver).
#[derive(Clone, Copy, Debug, Default)]
pub struct InstanceStats {
    /// `check_assuming` calls answered by this instance.
    pub queries: u64,
    /// Clause slots that were already loaded when a query started — formula
    /// the instance reused instead of re-blasting. Summed over queries.
    pub reused_clauses: u64,
    /// Distinct terms registered as assumption literals.
    pub registered_terms: u64,
}

/// A persistent SAT instance for incremental solving under assumptions.
///
/// See the [module documentation](self) for the motivation and semantics.
/// Typical driver shape (the checker's Figure 8 loop):
///
/// ```
/// use stack_solver::{Budget, QueryResult, SolverInstance, TermPool};
///
/// let mut pool = TermPool::new();
/// let x = pool.bv_var("x", 8);
/// let zero = pool.bv_const(8, 0);
/// let pos = pool.bv_sgt(x, zero);
/// let neg = pool.bv_slt(x, zero);
///
/// let mut instance = SolverInstance::new();
/// let l_pos = instance.literal_for(&pool, pos); // encoded once…
/// let l_neg = instance.literal_for(&pool, neg);
/// // …then toggled as assumptions, query after query.
/// assert!(instance.check_assuming(&[l_pos]).is_sat());
/// assert!(instance.check_assuming(&[l_pos, l_neg]).is_unsat());
/// assert!(instance.check_assuming(&[l_neg]).is_sat());
/// ```
#[derive(Default)]
pub struct SolverInstance {
    sat: SatSolver,
    blaster: BitBlaster,
    budget: Budget,
    /// Epoch of the pool this instance has been fed terms from (set on first
    /// registration; mixing pools is a caller bug).
    epoch: Option<u64>,
    /// Clauses emitted by [`literal_for`](SolverInstance::literal_for) since
    /// the last query; everything older counts as reused by the next query.
    fresh_clauses: usize,
    stats: InstanceStats,
}

impl std::fmt::Debug for SolverInstance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverInstance")
            .field("epoch", &self.epoch)
            .field("clauses", &self.sat.num_clauses())
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl SolverInstance {
    /// An empty instance with an unlimited per-query budget.
    pub fn new() -> SolverInstance {
        SolverInstance::default()
    }

    /// An empty instance with a per-query resource budget (applied to each
    /// [`check_assuming`](SolverInstance::check_assuming) call separately).
    pub fn with_budget(budget: Budget) -> SolverInstance {
        SolverInstance {
            budget,
            ..SolverInstance::default()
        }
    }

    /// Change the per-query budget.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// Enable or disable the SAT core's layers around the search loop (on
    /// by default). See [`SatSolver::set_preprocessing`].
    pub fn set_preprocessing(&mut self, on: bool) {
        self.sat.set_preprocessing(on);
    }

    /// The assumption core of the last `Unsat` answer: a subset of that
    /// query's assumption literals already unsatisfiable with the formula
    /// (empty when the formula itself is unsatisfiable). `None` after
    /// non-`Unsat` answers.
    pub fn last_core(&self) -> Option<&[Lit]> {
        self.sat.last_core()
    }

    /// The assumption literal a term was registered to, if it has been
    /// registered, without blasting anything new.
    pub fn registered_literal(&self, term: TermId) -> Option<Lit> {
        self.blaster.bool_literal(term)
    }

    /// Epoch of the pool this instance is tied to (`None` until the first
    /// term is registered).
    pub fn epoch(&self) -> Option<u64> {
        self.epoch
    }

    /// Counters accumulated by this instance.
    pub fn stats(&self) -> InstanceStats {
        self.stats
    }

    /// Number of clause slots currently loaded in the SAT core.
    pub fn num_clauses(&self) -> usize {
        self.sat.num_clauses()
    }

    /// Register a boolean term, returning its assumption literal.
    ///
    /// The term is Tseitin-encoded into the persistent CNF the first time it
    /// is seen; repeated registrations (of the term or any shared subterm)
    /// are cache lookups. The returned literal is *not* asserted — pass it to
    /// [`check_assuming`](SolverInstance::check_assuming) to enable the term
    /// for one query, or its negation to require the term false.
    pub fn literal_for(&mut self, pool: &TermPool, term: TermId) -> Lit {
        debug_assert!(
            self.epoch.is_none() || self.epoch == Some(pool.epoch()),
            "SolverInstance fed terms from two different pools"
        );
        self.epoch = Some(pool.epoch());
        debug_assert!(pool.sort(term).is_bool());
        // Blasting may add clauses; `add_clause` cancels to the root itself
        // when it does. Leaving the trail alone on the (common) all-cached
        // path lets the next solve reuse it for shared assumptions.
        let before = self.sat.num_clauses();
        let lit = self.blaster.blast_bool(pool, &mut self.sat, term);
        let added = self.sat.num_clauses() - before;
        if added > 0 {
            self.stats.registered_terms += 1;
            self.fresh_clauses += added;
        }
        lit
    }

    /// Decide the conjunction of the given assumption literals against the
    /// accumulated formula, under the per-query budget.
    ///
    /// Returns [`QueryResult::Sat`] with a model over every registered free
    /// variable, [`QueryResult::Unsat`], or [`QueryResult::Unknown`] on
    /// budget exhaustion. The formula itself is untouched: assumptions hold
    /// for this call only.
    pub fn check_assuming(&mut self, assumptions: &[Lit]) -> QueryResult {
        self.stats.queries += 1;
        // Clauses loaded before this query's own registrations were paid for
        // by an earlier query (or an earlier registration round): reuse.
        let reused = self.sat.num_clauses().saturating_sub(self.fresh_clauses);
        self.stats.reused_clauses += reused as u64;
        self.fresh_clauses = 0;
        match self.sat.solve_with(assumptions, self.budget) {
            SatResult::Unsat => QueryResult::Unsat,
            SatResult::Unknown => QueryResult::Unknown,
            SatResult::Sat => QueryResult::Sat(self.blaster.extract_model(&self.sat)),
        }
    }

    /// Convenience wrapper: register each term and decide their conjunction
    /// in one call. Returns the model-bearing result like
    /// [`check_assuming`](SolverInstance::check_assuming).
    pub fn check_terms(&mut self, pool: &TermPool, terms: &[TermId]) -> QueryResult {
        let lits: Vec<Lit> = terms.iter().map(|&t| self.literal_for(pool, t)).collect();
        self.check_assuming(&lits)
    }

    /// Extract a model after a `Sat` answer (valid until the next query).
    pub fn model(&self) -> Model {
        self.blaster.extract_model(&self.sat)
    }

    /// Cumulative SAT-core statistics (propagations, conflicts, …) across
    /// every query this instance has answered.
    pub fn sat_stats(&self) -> SatStats {
        self.sat.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toggle assumption subsets and compare every answer against a fresh
    /// non-incremental solve of the same conjunction.
    #[test]
    fn check_assuming_agrees_with_fresh_solves() {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 16);
        let y = pool.bv_var("y", 16);
        let c100 = pool.bv_const(16, 100);
        let sum = pool.bv_add(x, c100);
        let conds = [
            pool.bv_slt(sum, x),  // x + 100 < x (signed): needs wrap-around
            pool.bv_ult(x, y),    // x < y unsigned
            pool.bv_ugt(x, c100), // x > 100 unsigned
            pool.eq(y, c100),     // y == 100
        ];
        let mut instance = SolverInstance::new();
        let lits: Vec<Lit> = conds
            .iter()
            .map(|&t| instance.literal_for(&pool, t))
            .collect();
        // Walk every subset, in an order that toggles membership a lot.
        for mask in 0..(1u32 << conds.len()) {
            let subset: Vec<TermId> = conds
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &t)| t)
                .collect();
            let assumed: Vec<Lit> = lits
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &l)| l)
                .collect();
            let incremental = instance.check_assuming(&assumed);
            let fresh = crate::solver::BvSolver::new().check(&pool, &subset);
            assert_eq!(
                incremental.is_sat(),
                fresh.is_sat(),
                "subset mask {mask:#b} disagrees"
            );
            if let QueryResult::Sat(model) = &incremental {
                for &t in &subset {
                    assert!(model.eval_bool(&pool, t), "model violates a conjunct");
                }
            }
        }
        let stats = instance.stats();
        assert_eq!(stats.queries, 1 << conds.len());
        assert!(stats.reused_clauses > 0, "later queries must reuse clauses");
    }

    #[test]
    fn negated_assumption_literals_work() {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 8);
        let zero = pool.bv_const(8, 0);
        let is_zero = pool.eq(x, zero);
        let mut instance = SolverInstance::new();
        let l = instance.literal_for(&pool, is_zero);
        assert!(instance.check_assuming(&[l]).is_sat());
        assert!(instance.check_assuming(&[!l]).is_sat());
        assert!(instance.check_assuming(&[l, !l]).is_unsat());
    }

    #[test]
    fn registration_is_memoized() {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 8);
        let y = pool.bv_var("y", 8);
        let lt = pool.bv_ult(x, y);
        let mut instance = SolverInstance::new();
        let l1 = instance.literal_for(&pool, lt);
        let clauses = instance.num_clauses();
        let l2 = instance.literal_for(&pool, lt);
        assert_eq!(l1, l2);
        assert_eq!(instance.num_clauses(), clauses, "no re-blasting");
        assert_eq!(instance.stats().registered_terms, 1);
    }

    #[test]
    fn budget_applies_per_query() {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 24);
        let y = pool.bv_var("y", 24);
        let prod = pool.bv_mul(x, y);
        let c = pool.bv_const(24, 0x123457);
        let eq = pool.eq(prod, c);
        let one = pool.bv_const(24, 1);
        let xg = pool.bv_ugt(x, one);
        let yg = pool.bv_ugt(y, one);
        let mut instance = SolverInstance::with_budget(Budget::propagations(10));
        let result = instance.check_terms(&pool, &[eq, xg, yg]);
        assert!(result.is_unknown());
        // Raising the budget on the same instance lets the query finish.
        instance.set_budget(Budget::unlimited());
        let result = instance.check_terms(&pool, &[eq, xg, yg]);
        assert!(!result.is_unknown());
    }
}
