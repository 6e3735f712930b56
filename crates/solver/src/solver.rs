//! The public bit-vector solver interface used by the checker.
//!
//! [`BvSolver::check`] decides the conjunction of the given boolean terms:
//! cheap pre-solve simplification, then a lookup in the attached
//! [`QueryStore`] (if any), then simulation — the assertions evaluated under
//! a fixed sequence of candidate assignments, the first that satisfies them
//! all answering `Sat` — and only then the SAT core, under a deterministic
//! resource budget. The budget plays the role of the per-query wall-clock
//! timeout the paper uses (5 seconds per Boolector query, §6.4) while keeping
//! results reproducible across machines.
//!
//! Word-level decisions come first, at term construction: the
//! [`TermPool`] builds the §2.2 guards and the overflow conditions of their
//! operands as one signed bound (see [`crate::term`]), so their `Unsat`
//! queries are complementary-literal clashes of pre-solve simplification,
//! answered with a two-assertion core before the store and the SAT core.
//!
//! The SAT core is one persistent [`SatSolver`]/[`BitBlaster`] pair per
//! [`TermPool`] — in the checker, per function. A query that reaches it
//! registers each assertion as an *assumption literal*: the literal is
//! Tseitin-tied to the term (`l ↔ blast(t)`) but never asserted, and
//! registration is a cache lookup for every term an earlier query already
//! encoded. The query is then solved under exactly its own literals as
//! assumptions, so the clauses — learned ones included — stay loaded for the
//! next query. That is what makes the checker's near-identical Figure 8
//! minimization queries cheap: each one toggles assumptions on an
//! already-encoded formula instead of re-bit-blasting. A fresh SAT instance
//! per query was measured against this and lost: 1.85× the propagations on
//! the store-off `solver_speed` row of `BENCH_checker.json`.
//!
//! Decided answers do not depend on what the instance has seen before: an
//! assumption literal is definitionally tied to its term, so the answer is
//! exactly satisfiability of the conjunction. Where a budget runs out can
//! depend on that history, so an `Unknown` is never stored.

use crate::blast::BitBlaster;
use crate::cache::FingerprintMemo;
use crate::lit::Lit;
use crate::model::Model;
use crate::sat::{Budget, SatResult, SatSolver};
use crate::stats::CheckStats;
use crate::store::QueryStore;
use crate::term::{mask, Sort, TermId, TermKind, TermPool};
use std::collections::HashMap;
use std::sync::Arc;

/// Outcome of a single query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryResult {
    /// Satisfiable, with a witness model over the free variables.
    Sat(Model),
    /// Unsatisfiable.
    Unsat,
    /// The resource budget was exhausted; treated as a solver timeout.
    Unknown,
}

impl QueryResult {
    /// Whether the result is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, QueryResult::Unsat)
    }

    /// Whether the result is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, QueryResult::Sat(_))
    }

    /// Whether the query timed out.
    pub fn is_unknown(&self) -> bool {
        matches!(self, QueryResult::Unknown)
    }
}

/// The bit-vector solver: one persistent SAT instance for the [`TermPool`]
/// it last saw, behind pre-solve simplification, an optional
/// [`QueryStore`] and simulation (see the [module documentation](self)).
///
/// The checker's Figure 8 loop, in miniature:
///
/// ```
/// use stack_solver::{BvSolver, TermPool};
///
/// let mut pool = TermPool::new();
/// let x = pool.bv_var("x", 8);
/// let y = pool.bv_var("y", 8);
/// let x_below_y = pool.bv_ult(x, y);
/// let y_below_x = pool.bv_ult(y, x);
/// let nine = pool.bv_const(8, 9);
/// let y_small = pool.bv_ult(y, nine);
///
/// let mut solver = BvSolver::new();
/// // Unsat, so simulation cannot answer it: the SAT core decides it…
/// assert!(solver.check(&pool, &[x_below_y, y_below_x, y_small]).is_unsat());
/// // …and names a subset of the assertions that is Unsat on its own.
/// let core = solver.last_unsat_core().unwrap().to_vec();
/// assert!(solver.check(&pool, &core).is_unsat());
/// // The second query reused the clauses the first one loaded.
/// assert!(solver.stats().reused_clauses > 0);
/// ```
pub struct BvSolver {
    budget: Budget,
    /// The query counters of [`CheckStats`] this layer owns, plus the SAT
    /// core's work merged in query by query (see [`crate::stats`]).
    stats: CheckStats,
    store: Option<Arc<dyn QueryStore>>,
    /// Epoch of the pool the fingerprint memo and the SAT instance below
    /// belong to ([`TermId`]s are pool-local). `None` before the first query.
    epoch: Option<u64>,
    memo: FingerprintMemo,
    sat: SatSolver,
    blaster: BitBlaster,
    /// The subset of the last `Unsat` [`check`](BvSolver::check) call's
    /// assertion terms that its extracted assumption core maps back to —
    /// already unsatisfiable on their own. `None` after non-`Unsat` answers
    /// and store hits.
    last_core_terms: Option<Vec<TermId>>,
}

impl std::fmt::Debug for BvSolver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BvSolver")
            .field("budget", &self.budget)
            .field("stats", &self.stats)
            .field("store", &self.store)
            .field("epoch", &self.epoch)
            .field("clauses", &self.sat.num_clauses())
            .field("last_core_terms", &self.last_core_terms)
            .finish_non_exhaustive()
    }
}

impl Default for BvSolver {
    fn default() -> BvSolver {
        BvSolver::new()
    }
}

impl BvSolver {
    /// Create a solver with an unlimited per-query budget.
    pub fn new() -> BvSolver {
        BvSolver::with_budget(Budget::unlimited())
    }

    /// Create a solver with a per-query propagation budget (the deterministic
    /// analogue of a per-query timeout).
    pub fn with_budget(budget: Budget) -> BvSolver {
        BvSolver {
            budget,
            stats: CheckStats::default(),
            store: None,
            epoch: None,
            memo: FingerprintMemo::default(),
            sat: SatSolver::new(),
            blaster: BitBlaster::new(),
            last_core_terms: None,
        }
    }

    /// Change the per-query budget. It applies to each later query
    /// separately, on the same instance.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The assertion-term core of the last `Unsat` [`check`](BvSolver::check)
    /// answer, when one was extracted: a subset of that call's assertions
    /// already unsatisfiable by itself. Conservative — terms the mapping
    /// cannot prove out of the SAT-level core stay in. `None` whenever no
    /// fresh core is available (see the field docs).
    pub fn last_unsat_core(&self) -> Option<&[TermId]> {
        self.last_core_terms.as_deref()
    }

    /// Record that the checker's minimal-UB-set loop skipped a query an
    /// extracted core already decided (threaded into the scan summary as
    /// `minimization_queries_saved`).
    pub fn note_minimization_saved(&mut self) {
        self.stats.minimization_queries_saved += 1;
    }

    /// Attach a memoized query store, typically shared between several
    /// solvers via [`Arc`]. With a store attached, [`check`] consults it
    /// before simulation and the SAT core and inserts every decided result;
    /// budget-exhausted `Unknown` results are never stored. Any
    /// [`QueryStore`] works: the in-memory
    /// [`QueryCache`](crate::cache::QueryCache) or the disk-backed
    /// [`DiskQueryStore`](crate::store::DiskQueryStore).
    ///
    /// [`check`]: BvSolver::check
    pub fn with_store(mut self, store: Arc<dyn QueryStore>) -> BvSolver {
        self.store = Some(store);
        self
    }

    /// Statistics accumulated so far: every query's counters and the SAT
    /// core's work on it. These feed the Figure 16 performance table
    /// (number of queries, timeouts).
    pub fn stats(&self) -> CheckStats {
        self.stats
    }

    /// Check satisfiability of the conjunction of `assertions`.
    ///
    /// The query pipeline is: cheap pre-solve simplification (conjunction
    /// flattening, constant folding, complementary-literal propagation),
    /// then a lookup in the attached [`QueryStore`] (if any), and on a miss
    /// simulation: the assertions are evaluated under every variable set to
    /// 0, 1, all-ones, the signed minimum, the signed maximum, then each
    /// constant of the query, and the first assignment that satisfies them
    /// all answers `Sat`. Only if none does, the pool's SAT instance decides
    /// under the query's assumption literals. Decided results of both are
    /// stored back into the store.
    pub fn check(&mut self, pool: &TermPool, assertions: &[TermId]) -> QueryResult {
        self.stats.queries += 1;
        // A core is only meaningful for the query that produced it; anything
        // short of an `Unsat` answer computed for this call leaves this
        // `None`.
        self.last_core_terms = None;
        if self.epoch != Some(pool.epoch()) {
            // A new pool: its terms share nothing with the old pool's, so
            // the fingerprint memo and the SAT instance start over.
            self.epoch = Some(pool.epoch());
            self.memo.clear();
            self.sat = SatSolver::new();
            self.blaster = BitBlaster::new();
        }

        // Pre-solve simplification of the assertion conjunction.
        let mut simplified = match presimplify(pool, assertions) {
            Presimplified::Unsat(clash) => {
                self.stats.unsat_queries += 1;
                // The clashing pair (or lone `false` conjunct) is an unsat
                // core at the assertion level; expose it so the checker's
                // minimization loop can seed from trivially-decided queries
                // exactly as it does from solved ones.
                self.last_core_terms = Some(clash);
                return QueryResult::Unsat;
            }
            Presimplified::Sat => {
                self.stats.sat_queries += 1;
                return QueryResult::Sat(Model::new());
            }
            Presimplified::Open(list) => list,
        };

        // Canonicalize unconditionally (not just when a store is attached):
        // registering assertions in fingerprint order makes the clauses a
        // query adds depend only on its assertion *set*, not on the order the
        // checker listed them in. Decided results are facts about that set.
        // A budget-boundary `Unknown` also depends on which earlier queries
        // reached the instance, so it is reproducible exactly when the
        // store's contents at each lookup are: the checker drives one solver
        // per module, and the scan pipeline gives each module exactly the
        // store a sequential scan would, at every `--jobs` width.
        let key = self.memo.canonicalize(pool, &mut simplified);
        let key = self.store.is_some().then_some(key);
        if let (Some(store), Some(key)) = (&self.store, &key) {
            if let Some(result) = store.lookup(key) {
                self.stats.cache_hits += 1;
                match &result {
                    QueryResult::Sat(model) => {
                        self.stats.sat_queries += 1;
                        // A cached model came from a structurally identical
                        // query, so it names the same variables; re-check it
                        // against this pool's terms in debug builds. An
                        // empty model is a disk-store hit with the witness
                        // elided (witnesses are process-local), not a claim
                        // that the all-zero assignment satisfies anything.
                        debug_assert!(
                            model.is_empty()
                                || assertions.iter().all(|&a| model.eval_bool(pool, a)),
                            "cached model does not satisfy the assertions"
                        );
                    }
                    QueryResult::Unsat => self.stats.unsat_queries += 1,
                    QueryResult::Unknown => unreachable!("Unknown is never cached"),
                }
                return result;
            }
            self.stats.cache_misses += 1;
        }

        let outcome = if let Some(model) = simulate(pool, &simplified) {
            self.stats.simulated += 1;
            QueryResult::Sat(model)
        } else {
            self.solve(pool, assertions, &simplified)
        };
        match &outcome {
            QueryResult::Unsat => self.stats.unsat_queries += 1,
            QueryResult::Unknown => self.stats.timeouts += 1,
            QueryResult::Sat(model) => {
                self.stats.sat_queries += 1;
                // Sanity-check the extracted model against term semantics in
                // debug builds: every assertion must evaluate to true.
                debug_assert!(
                    assertions.iter().all(|&a| model.eval_bool(pool, a)),
                    "extracted model does not satisfy the assertions"
                );
            }
        }
        if let (Some(store), Some(key)) = (&self.store, key) {
            store.insert(key, &outcome);
        }
        outcome
    }

    /// Decide a (pre-simplified) assertion set in the SAT core: register
    /// each assertion as an assumption literal and solve under exactly
    /// those literals. On `Unsat`, records the core mapped back to
    /// `assertions`.
    fn solve(
        &mut self,
        pool: &TermPool,
        assertions: &[TermId],
        simplified: &[TermId],
    ) -> QueryResult {
        // Every clause slot loaded before this query's registrations was
        // paid for by an earlier query: reuse.
        self.stats.reused_clauses += self.sat.num_clauses() as u64;
        let literals = self.assumption_literals(pool, simplified);
        let result = self.sat.solve_with(&literals, self.budget);
        // The core's work since the last query is this query's: blasting
        // its literals propagated at the root, then the search ran.
        let work = self.sat.take_stats();
        self.stats.merge(&work);
        self.stats.incremental_queries += 1;
        match result {
            SatResult::Sat => QueryResult::Sat(self.blaster.extract_model(&self.sat)),
            SatResult::Unknown => QueryResult::Unknown,
            SatResult::Unsat => {
                self.stats.unsat_propagations += work.propagations;
                self.last_core_terms = self.core_terms(assertions, simplified);
                QueryResult::Unsat
            }
        }
    }

    /// The assumption literal of each term, blasting into the instance only
    /// the terms (and subterms) no earlier query registered. Registration is
    /// on demand on purpose: encoding a function's full UB-condition set up
    /// front measured ~2× slower on miss-light workloads, because conditions
    /// that dominate no queried fragment were blasted (and then assigned by
    /// every `Sat` answer) for nothing.
    fn assumption_literals(&mut self, pool: &TermPool, terms: &[TermId]) -> Vec<Lit> {
        terms
            .iter()
            .map(|&t| self.blaster.blast_bool(pool, &mut self.sat, t))
            .collect()
    }

    /// Map the SAT-level assumption core of the last `Unsat` solve back to
    /// assertion terms, conservatively: an assertion is dropped only when it
    /// provably sits outside the core — it survived presimplification as
    /// itself (so its registered literal *is* its assumption literal, not a
    /// literal hidden by flattening or dedup) and that literal is not in the
    /// core. Everything the mapping cannot account for stays in, which keeps
    /// the returned set unsatisfiable.
    fn core_terms(&self, assertions: &[TermId], simplified: &[TermId]) -> Option<Vec<TermId>> {
        let core = self.sat.last_core()?;
        let kept: Vec<TermId> = assertions
            .iter()
            .copied()
            .filter(|&t| {
                if !simplified.contains(&t) {
                    return true; // rewritten away; cannot attribute — keep
                }
                match self.blaster.bool_literal(t) {
                    Some(l) => core.contains(&l),
                    None => true,
                }
            })
            .collect();
        Some(kept)
    }
}

/// Outcome of the pre-solve simplification of an assertion conjunction.
enum Presimplified {
    /// The conjunction is trivially false. Carries the top-level assertions
    /// that witness the contradiction — the one folding to `false`, or the
    /// pair whose flattened conjuncts complement each other — which form an
    /// unsat core of the query on their own.
    Unsat(Vec<TermId>),
    /// The conjunction is trivially true (empty after simplification).
    Sat,
    /// The remaining, flattened, deduplicated assertions.
    Open(Vec<TermId>),
}

/// Cheap pre-solve simplification of the assertion conjunction, run before
/// CNF conversion:
///
/// * **flattening** — a top-level `And(a, b)` assertion is split into the
///   assertions `a` and `b` (recursively), so the bit-blaster asserts the
///   conjuncts directly instead of building gate literals for them, and so
///   the cache key for `[and(a, b)]` coincides with the one for `[a, b]`;
/// * **constant folding** — `true` conjuncts are dropped, a `false` conjunct
///   decides the query (term constructors already fold ground subterms, so
///   this is a lookup, not an evaluation);
/// * **unit propagation** over asserted literals — duplicated conjuncts
///   collapse, and a conjunct asserted both positively and under a negation
///   (`t` and `not t`) decides the query as UNSAT.
fn presimplify(pool: &TermPool, assertions: &[TermId]) -> Presimplified {
    // `seen` maps each flattened conjunct to the index of the top-level
    // assertion it descends from, so a contradiction can name its witnesses.
    let mut out = Vec::with_capacity(assertions.len());
    let mut seen: HashMap<TermId, usize> = HashMap::with_capacity(assertions.len());
    let mut work: Vec<(TermId, usize)> = assertions
        .iter()
        .enumerate()
        .rev()
        .map(|(i, &t)| (t, i))
        .collect();
    let clash = |i: usize, j: usize| {
        let mut core = vec![assertions[i], assertions[j]];
        core.dedup();
        Presimplified::Unsat(core)
    };
    while let Some((t, origin)) = work.pop() {
        debug_assert!(pool.sort(t).is_bool());
        match &pool.term(t).kind {
            TermKind::BoolConst(true) => {}
            TermKind::BoolConst(false) => {
                return Presimplified::Unsat(vec![assertions[origin]]);
            }
            TermKind::And(a, b) => {
                // Preserve left-to-right order of the conjuncts.
                work.push((*b, origin));
                work.push((*a, origin));
            }
            TermKind::Not(inner) if seen.contains_key(inner) => {
                return clash(seen[inner], origin);
            }
            _ => {
                if let std::collections::hash_map::Entry::Vacant(e) = seen.entry(t) {
                    e.insert(origin);
                    out.push(t);
                }
            }
        }
    }
    // Second pass for complements discovered out of order (`t` asserted
    // after `not t`): any asserted `Not(x)` whose `x` is also asserted.
    for &t in &out {
        if let TermKind::Not(inner) = &pool.term(t).kind {
            if seen.contains_key(inner) {
                return clash(seen[&t], seen[inner]);
            }
        }
    }
    if out.is_empty() {
        Presimplified::Sat
    } else {
        Presimplified::Open(out)
    }
}

/// Answer a query by simulation: evaluate the assertions under a fixed
/// sequence of candidate assignments and return the first that satisfies
/// them all as the witness model. Each candidate gives every variable the
/// same value at its width: 0, 1, all-ones, the signed minimum, the signed
/// maximum, then each constant of the query (booleans read the value's low
/// bit). `None` when no candidate fits, which leaves the query to the SAT
/// core.
///
/// This is random simulation as used in SAT sweeping (Mishchenko et al.,
/// "FRAIGs", 2005) with the random vectors replaced by the values the
/// checker's queries turn on: overflow and wrap-around witnesses sit at the
/// extremes and at the guards' own constants. Each candidate costs one
/// linear pass over the assertions' cone ([`TermPool::eval_cone`], the
/// semantics [`TermPool::eval`] uses), so an `Unsat` query pays a few passes
/// before it reaches the SAT core.
fn simulate(pool: &TermPool, assertions: &[TermId]) -> Option<Model> {
    let cone = pool.cone(assertions);
    let mut constants: Vec<u64> = Vec::new();
    for &t in &cone {
        if let Some(c) = pool.as_bv_const(t) {
            if c > 1 && !constants.contains(&c) {
                constants.push(c);
            }
        }
    }
    let width = |sort: Sort| match sort {
        Sort::Bool => 1,
        Sort::BitVec(w) => w,
    };
    let candidate = |k: usize, w: u32| match k {
        0 => 0,
        1 => 1,
        2 => mask(u64::MAX, w),
        3 => 1 << (w - 1),
        4 => mask(u64::MAX, w) >> 1,
        _ => mask(constants[k - 5], w),
    };
    (0..5 + constants.len()).find_map(|k| {
        let values = pool.eval_cone(&cone, &mut |_, sort| candidate(k, width(sort)));
        if !assertions.iter().all(|&a| values.get(a) != 0) {
            return None;
        }
        let mut model = Model::new();
        for &t in &cone {
            if let TermKind::Var { name, sort } = &pool.term(t).kind {
                model.set(name, candidate(k, width(*sort)));
            }
        }
        Some(model)
    })
}

/// Collect the free variables of a term (name and sort), in ascending
/// [`TermId`] order. Useful for diagnostics and for the property-test
/// harness.
pub fn free_variables(pool: &TermPool, term: TermId) -> Vec<(String, Sort)> {
    pool.cone(&[term])
        .into_iter()
        .filter_map(|t| match &pool.term(t).kind {
            TermKind::Var { name, sort } => Some((name.clone(), *sort)),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blast::tests::random_term;
    use proptest::prelude::*;
    use std::cell::Cell;

    #[test]
    fn trivial_queries() {
        let mut pool = TermPool::new();
        let mut solver = BvSolver::new();
        let t = pool.bool_const(true);
        let f = pool.bool_const(false);
        assert!(solver.check(&pool, &[t]).is_sat());
        assert!(solver.check(&pool, &[t, f]).is_unsat());
        assert!(solver.check(&pool, &[]).is_sat());
        assert_eq!(solver.stats().queries, 3);
    }

    #[test]
    fn model_satisfies_assertions() {
        let mut pool = TermPool::new();
        let mut solver = BvSolver::new();
        let x = pool.bv_var("x", 16);
        let y = pool.bv_var("y", 16);
        let c1000 = pool.bv_const(16, 1000);
        let sum = pool.bv_add(x, y);
        let a1 = pool.eq(sum, c1000);
        let c10 = pool.bv_const(16, 10);
        let a2 = pool.bv_ugt(x, c10);
        let a3 = pool.bv_ugt(y, c10);
        match solver.check(&pool, &[a1, a2, a3]) {
            QueryResult::Sat(model) => {
                assert!(model.eval_bool(&pool, a1));
                assert!(model.eval_bool(&pool, a2));
                assert!(model.eval_bool(&pool, a3));
                let xv = model.get("x");
                let yv = model.get("y");
                assert_eq!((xv + yv) & 0xFFFF, 1000);
            }
            other => panic!("expected SAT, got {other:?}"),
        }
    }

    #[test]
    fn signed_overflow_check_contradiction() {
        // The classic x + 100 < x (signed) is UNSAT once signed overflow is
        // excluded: encode the no-overflow side condition explicitly.
        let mut pool = TermPool::new();
        let mut solver = BvSolver::new();
        let x = pool.bv_var("x", 32);
        let c100 = pool.bv_const(32, 100);
        let sum = pool.bv_add(x, c100);
        let check = pool.bv_slt(sum, x);
        // No-overflow condition for x + 100 with positive 100: the 33-bit sum
        // equals the sign-extended 32-bit sum.
        let x64 = pool.sext(x, 33);
        let c64 = pool.sext(c100, 33);
        let wide = pool.bv_add(x64, c64);
        let narrow = pool.sext(sum, 33);
        let no_ovf = pool.eq(wide, narrow);
        // The pool builds `check` as the bound `x >s MAX − 100`; the widened
        // condition is not that bound's negation, so the SAT core decides.
        assert!(solver.check(&pool, &[check, no_ovf]).is_unsat());
        assert_eq!(solver.stats().incremental_queries, 1);
        // Without the assumption it is satisfiable (wrap-around exists).
        assert!(solver.check(&pool, &[check]).is_sat());
    }

    #[test]
    fn budget_produces_unknown() {
        let mut pool = TermPool::new();
        let mut solver = BvSolver::with_budget(Budget::propagations(10));
        // A multiplication equality needs real work; with a 10-propagation
        // budget the solver must give up.
        let x = pool.bv_var("x", 24);
        let y = pool.bv_var("y", 24);
        let prod = pool.bv_mul(x, y);
        let c = pool.bv_const(24, 0x123457);
        let eq = pool.eq(prod, c);
        let one = pool.bv_const(24, 1);
        let xg = pool.bv_ugt(x, one);
        let yg = pool.bv_ugt(y, one);
        let result = solver.check(&pool, &[eq, xg, yg]);
        assert!(result.is_unknown());
        assert_eq!(solver.stats().timeouts, 1);
    }

    #[test]
    fn equivalence_and_implication_helpers() {
        let mut pool = TermPool::new();
        let mut solver = BvSolver::new();
        let x = pool.bv_var("x", 8);
        let zero = pool.bv_const(8, 0);
        let a = pool.bv_slt(x, zero);
        // x < 0 (signed) is equivalent to the sign bit being set.
        let sign = pool.extract(x, 7, 7);
        let one1 = pool.bv_const(1, 1);
        let b = pool.eq(sign, one1);
        let distinct = pool.xor(a, b);
        assert!(solver.check(&pool, &[distinct]).is_unsat());
        // x == 0 implies x <= 5 unsigned: `is_zero ∧ ¬le5` is Unsat, and the
        // converse `le5 ∧ ¬is_zero` is Sat.
        let is_zero = pool.eq(x, zero);
        let five = pool.bv_const(8, 5);
        let le5 = pool.bv_ule(x, five);
        let not_le5 = pool.not(le5);
        let counterexample = pool.and(is_zero, not_le5);
        assert!(solver.check(&pool, &[counterexample]).is_unsat());
        let not_zero = pool.not(is_zero);
        let converse = pool.and(le5, not_zero);
        assert!(!solver.check(&pool, &[converse]).is_unsat());
    }

    #[test]
    fn incremental_mode_agrees_with_fresh_mode() {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 16);
        let c1 = pool.bv_const(16, 1);
        let sum = pool.bv_add(x, c1);
        let wrap = pool.bv_slt(sum, x); // x + 1 < x (signed)
        let zero = pool.bv_const(16, 0);
        let pos = pool.bv_sgt(x, zero);
        let neg = pool.bv_slt(x, zero);
        let queries: Vec<Vec<TermId>> = vec![
            vec![wrap],
            vec![wrap, pos],
            vec![wrap, neg],
            vec![pos, neg],
            vec![wrap, pos, neg],
            vec![wrap], // repeat: still answered by the warm instance
        ];
        // One long-lived solver against a new solver per query.
        let mut incremental = BvSolver::new();
        for q in &queries {
            let a = BvSolver::new().check(&pool, q);
            let b = incremental.check(&pool, q);
            assert_eq!(a.is_sat(), b.is_sat(), "query {q:?}");
            assert_eq!(a.is_unsat(), b.is_unsat(), "query {q:?}");
        }
        // Simulation answers the Sat queries (x = INT16_MAX wraps); the
        // three Unsat ones reach the instance and reuse its clauses.
        let stats = incremental.stats();
        assert_eq!(
            stats.incremental_queries + stats.simulated,
            queries.len() as u64
        );
        assert!(stats.reused_clauses > 0);
    }

    /// Toggle every subset of four conditions on one long-lived solver and
    /// compare each answer with a new solver's.
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
        let mut solver = BvSolver::new();
        // Walk every subset, in an order that toggles membership a lot.
        for mask in 0..(1u32 << conds.len()) {
            let subset: Vec<TermId> = conds
                .iter()
                .enumerate()
                .filter(|(i, _)| mask & (1 << i) != 0)
                .map(|(_, &t)| t)
                .collect();
            let incremental = solver.check(&pool, &subset);
            let fresh = BvSolver::new().check(&pool, &subset);
            assert_eq!(
                incremental.is_sat(),
                fresh.is_sat(),
                "subset mask {mask:#b} disagrees"
            );
            assert!(!incremental.is_unknown(), "subset mask {mask:#b}");
            if let QueryResult::Sat(model) = &incremental {
                for &t in &subset {
                    assert!(model.eval_bool(&pool, t), "model violates a conjunct");
                }
            }
        }
        let stats = solver.stats();
        assert_eq!(stats.queries, 1 << conds.len());
        assert!(stats.reused_clauses > 0, "later queries must reuse clauses");
    }

    /// A term and its negation both reach the SAT core as literals of one
    /// registration: `not t` is the negated literal of `t`.
    #[test]
    fn negated_assumption_literals_work() {
        // 0x9E37 is odd, so exactly one x solves `x * 0x9E37 == 0x1234`.
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 16);
        let k = pool.bv_const(16, 0x9E37);
        let product = pool.bv_mul(x, k);
        let target = pool.bv_const(16, 0x1234);
        let hit = pool.eq(product, target);
        let miss = pool.not(hit);
        let mut solver = BvSolver::new();
        let QueryResult::Sat(model) = solver.check(&pool, &[hit]) else {
            panic!("an odd multiplier is invertible");
        };
        let root = pool.bv_const(16, model.get("x"));
        let is_root = pool.eq(x, root);
        assert!(solver.check(&pool, &[miss, is_root]).is_unsat());
        let hit_lit = solver.blaster.bool_literal(hit).expect("registered");
        assert_eq!(solver.blaster.bool_literal(miss), Some(!hit_lit));
        assert!(solver.check(&pool, &[hit, miss]).is_unsat());
        assert_eq!(solver.stats().incremental_queries, 2);
    }

    #[test]
    fn registration_is_memoized() {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 8);
        let y = pool.bv_var("y", 8);
        let below = pool.bv_ult(x, y);
        let above = pool.bv_ult(y, x);
        let mut solver = BvSolver::new();
        assert!(solver.check(&pool, &[below, above]).is_unsat());
        let clauses = solver.sat.num_clauses();
        let again = solver.assumption_literals(&pool, &[below, above]);
        assert_eq!(solver.sat.num_clauses(), clauses, "no re-blasting");
        assert_eq!(
            again,
            [below, above].map(|t| solver.blaster.bool_literal(t).unwrap())
        );
        // A repeated query registers nothing, so every loaded slot counts
        // as reused.
        let reused = solver.stats().reused_clauses;
        assert!(solver.check(&pool, &[below, above]).is_unsat());
        assert_eq!(solver.stats().reused_clauses - reused, clauses as u64);
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
        let mut solver = BvSolver::with_budget(Budget::propagations(10));
        assert!(solver.check(&pool, &[eq, xg, yg]).is_unknown());
        // Raising the budget on the same pool lets the query decide.
        solver.set_budget(Budget::unlimited());
        assert!(!solver.check(&pool, &[eq, xg, yg]).is_unknown());
        assert_eq!(solver.stats().incremental_queries, 2);
    }

    #[test]
    fn incremental_instance_is_replaced_per_pool() {
        // Unsat, so simulation cannot answer it and it reaches the core.
        let unsat_pool = || {
            let mut pool = TermPool::new();
            let x = pool.bv_var("x", 8);
            let zero = pool.bv_const(8, 0);
            let neg = pool.bv_slt(x, zero);
            let pos = pool.bv_sgt(x, zero);
            (pool, [neg, pos])
        };
        let mut solver = BvSolver::new();
        for _ in 0..2 {
            let (pool, query) = unsat_pool();
            assert!(solver.check(&pool, &query).is_unsat());
        }
        // Back and forth between two live pools: A, B, A.
        let (a, query_a) = unsat_pool();
        let (b, query_b) = unsat_pool();
        assert!(solver.check(&a, &query_a).is_unsat());
        assert!(solver.check(&b, &query_b).is_unsat());
        assert!(solver.check(&a, &query_a).is_unsat());
        assert_eq!(solver.stats().incremental_queries, 5);
        // Every query started on a new instance (no clause carry-over across
        // pools, not even back to a pool seen before), so nothing was reused.
        assert_eq!(solver.stats().reused_clauses, 0);
    }

    #[test]
    fn simulation_answers_overflow_witnesses_without_the_sat_core() {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 32);
        let c100 = pool.bv_const(32, 100);
        let sum = pool.bv_add(x, c100);
        let wrap = pool.bv_slt(sum, x); // x + 100 < x: any x near INT_MAX
        let mut solver = BvSolver::new();
        let QueryResult::Sat(model) = solver.check(&pool, &[wrap]) else {
            panic!("x + 100 < x is satisfiable by wrap-around");
        };
        assert!(model.eval_bool(&pool, wrap));
        assert_eq!(model.get("x"), 0x7FFF_FFFF, "the signed-max candidate");
        let stats = solver.stats();
        assert_eq!((stats.simulated, stats.propagations), (1, 0));
    }

    #[test]
    fn the_sat_core_answers_what_simulation_misses() {
        // 0x9E37 is odd, so exactly one x solves this, and it is none of
        // the candidates (0, 1, all-ones, the signed extremes, 0x9E37,
        // 0x1234).
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 16);
        let k = pool.bv_const(16, 0x9E37);
        let product = pool.bv_mul(x, k);
        let target = pool.bv_const(16, 0x1234);
        let q = pool.eq(product, target);
        let mut solver = BvSolver::new();
        let QueryResult::Sat(model) = solver.check(&pool, &[q]) else {
            panic!("an odd multiplier is invertible");
        };
        assert!(model.eval_bool(&pool, q));
        assert_eq!(solver.stats().simulated, 0);
        assert!(solver.stats().propagations > 0);
    }

    /// One to three comparisons between random 6-bit terms over `x`, `y`.
    fn random_query(pool: &mut TermPool, tape: &[u64]) -> Vec<TermId> {
        let mut tape = tape.iter().copied();
        let count = 1 + tape.next().unwrap_or(0) % 3;
        (0..count)
            .map(|_| {
                let n = tape.next().unwrap_or(0);
                let a = random_term(pool, &mut tape, 2, 6);
                let b = random_term(pool, &mut tape, 2, 6);
                match n % 5 {
                    0 => pool.bv_ult(a, b),
                    1 => pool.bv_ule(a, b),
                    2 => pool.bv_slt(a, b),
                    3 => pool.eq(a, b),
                    _ => pool.ne(a, b),
                }
            })
            .collect()
    }

    thread_local! {
        /// `Sat` answers [`simulation_agrees_with_the_sat_core`] saw, as
        /// (simulated, from the SAT core).
        static SAT_ANSWERS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]

        /// Nothing reaches the SAT core past simulation, so compare `check`
        /// against a raw SAT solve under assumptions: the same verdict on
        /// every random query, and every model satisfies the assertions.
        fn simulation_agrees_with_the_sat_core(
            tape in prop::collection::vec(any::<u64>(), 1..48),
        ) {
            let mut pool = TermPool::new();
            let query = random_query(&mut pool, &tape);
            let mut solver = BvSolver::new();
            let answer = solver.check(&pool, &query);
            let (mut sat, mut blaster) = (SatSolver::new(), BitBlaster::new());
            let lits: Vec<_> = query.iter().map(|&t| blaster.blast_bool(&pool, &mut sat, t)).collect();
            let reference = sat.solve_with(&lits, Budget::unlimited());
            prop_assert_eq!(answer.is_sat(), reference == SatResult::Sat, "tape {:?}", tape);
            prop_assert_eq!(answer.is_unsat(), reference == SatResult::Unsat, "tape {:?}", tape);
            if let QueryResult::Sat(model) = &answer {
                prop_assert!(query.iter().all(|&t| model.eval_bool(&pool, t)), "tape {:?}", tape);
                let stats = solver.stats();
                let from_core = u64::from(stats.simulated == 0 && stats.propagations > 0);
                SAT_ANSWERS.with(|c| {
                    let (simulated, core) = c.get();
                    c.set((simulated + stats.simulated, core + from_core));
                });
            }
        }
    }

    #[test]
    fn simulated_and_sat_core_answers_agree_on_random_queries() {
        simulation_agrees_with_the_sat_core();
        let (simulated, core) = SAT_ANSWERS.with(Cell::get);
        assert!(simulated > 0, "no query was simulated");
        assert!(core > 0, "no Sat query reached the SAT core");
    }

    #[test]
    fn free_variable_collection() {
        let mut pool = TermPool::new();
        let x = pool.bv_var("x", 8);
        let y = pool.bv_var("y", 8);
        let b = pool.bool_var("flag");
        let sum = pool.bv_add(x, y);
        let cmp = pool.bv_ult(sum, x);
        let both = pool.and(cmp, b);
        let vars = free_variables(&pool, both);
        let names: Vec<&str> = vars.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(vars.len(), 3);
        assert!(names.contains(&"x"));
        assert!(names.contains(&"y"));
        assert!(names.contains(&"flag"));
    }
}
