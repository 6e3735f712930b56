//! The public bit-vector solver interface used by the checker.
//!
//! [`BvSolver::check`] decides the conjunction of the given boolean terms:
//! cheap pre-solve simplification, then a lookup in the attached
//! [`QueryCache`](crate::cache::QueryCache) (if any), and on a miss a bit-blast + CDCL run under a
//! deterministic resource budget. The budget plays the role of the per-query
//! wall-clock timeout the paper uses (5 seconds per Boolector query, §6.4)
//! while keeping results reproducible across machines. How a miss is solved
//! depends on the mode: by default each query gets a throwaway SAT instance;
//! in incremental mode ([`BvSolver::set_incremental`]) misses share one
//! persistent [`SolverInstance`] per [`TermPool`], which trades per-query
//! isolation for not re-paying bit-blasting across the checker's
//! near-identical Figure 8 queries.

use crate::blast::BitBlaster;
use crate::cache::FingerprintMemo;
use crate::incremental::SolverInstance;
use crate::model::Model;
use crate::sat::{Budget, SatResult, SatSolver};
use crate::store::QueryStore;
use crate::term::{Sort, TermId, TermKind, TermPool};
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

/// Aggregate statistics across all queries issued through one [`BvSolver`].
/// These feed the Figure 16 performance table (number of queries, timeouts).
#[derive(Clone, Copy, Default, Debug)]
pub struct SolverStats {
    /// Total queries issued.
    pub queries: u64,
    /// Queries answered SAT.
    pub sat: u64,
    /// Queries answered UNSAT.
    pub unsat: u64,
    /// Queries that exhausted their budget ("timeouts").
    pub timeouts: u64,
    /// Total SAT-level propagations across all queries.
    pub propagations: u64,
    /// SAT-level propagations spent on queries that ended `Unsat`.
    pub unsat_propagations: u64,
    /// Total conflicts across all queries.
    pub conflicts: u64,
    /// Total restarts across all queries.
    pub restarts: u64,
    /// Clauses learned by conflict analysis across all queries.
    pub learned_clauses: u64,
    /// Learned clauses evicted by clause-database reduction.
    pub deleted_clauses: u64,
    /// Sum of literal-block-distance values over all learned clauses; divide
    /// by [`learned_clauses`](SolverStats::learned_clauses) for the average
    /// (see [`SolverStats::avg_lbd`]).
    pub lbd_sum: u64,
    /// Learned clauses shortened by vivification.
    pub preprocess_eliminations: u64,
    /// Queries answered from the shared [`QueryCache`](crate::cache::QueryCache) without bit-blasting.
    pub cache_hits: u64,
    /// Queries that consulted the cache and missed.
    pub cache_misses: u64,
    /// Queries decided by a persistent [`SolverInstance`] (incremental mode)
    /// instead of a from-scratch bit-blast + CDCL run.
    pub incremental_queries: u64,
    /// Clause slots already loaded in an incremental instance when a query
    /// started — formula reused across queries instead of re-emitted. Summed
    /// over all incremental queries.
    pub reused_clauses: u64,
    /// `Sat` answers the SAT core served from its model cache (valid trail
    /// or cached-model store) in zero propagations.
    pub model_cache_hits: u64,
    /// Assumption cores extracted after `Unsat` answers.
    pub cores_recorded: u64,
    /// Sum of literal counts over recorded cores (see
    /// [`SolverStats::avg_core_size`]).
    pub core_size_sum: u64,
    /// Queries the checker's minimal-UB-set loop skipped because the last
    /// extracted assumption core already proved them `Unsat`.
    pub minimization_queries_saved: u64,
}

impl SolverStats {
    /// Fold another solver's counters into this one. The parallel checker
    /// runs one [`BvSolver`] per worker thread and merges their statistics
    /// at the end; summing every field keeps the aggregate identical to what
    /// a single sequential solver would have reported.
    pub fn merge(&mut self, other: &SolverStats) {
        self.queries += other.queries;
        self.sat += other.sat;
        self.unsat += other.unsat;
        self.timeouts += other.timeouts;
        self.propagations += other.propagations;
        self.unsat_propagations += other.unsat_propagations;
        self.conflicts += other.conflicts;
        self.restarts += other.restarts;
        self.learned_clauses += other.learned_clauses;
        self.deleted_clauses += other.deleted_clauses;
        self.lbd_sum += other.lbd_sum;
        self.preprocess_eliminations += other.preprocess_eliminations;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.incremental_queries += other.incremental_queries;
        self.reused_clauses += other.reused_clauses;
        self.model_cache_hits += other.model_cache_hits;
        self.cores_recorded += other.cores_recorded;
        self.core_size_sum += other.core_size_sum;
        self.minimization_queries_saved += other.minimization_queries_saved;
    }

    /// Average literal-block-distance over all learned clauses (0.0 when
    /// nothing was learned). Low averages mean the solver mostly learns
    /// "glue" clauses that tie few decision levels together.
    pub fn avg_lbd(&self) -> f64 {
        if self.learned_clauses == 0 {
            0.0
        } else {
            self.lbd_sum as f64 / self.learned_clauses as f64
        }
    }

    /// Average literal count of recorded assumption cores (0.0 when none
    /// were recorded). Small cores let the minimal-UB-set loop skip more
    /// queries.
    pub fn avg_core_size(&self) -> f64 {
        if self.cores_recorded == 0 {
            0.0
        } else {
            self.core_size_sum as f64 / self.cores_recorded as f64
        }
    }
}

/// The bit-vector solver.
#[derive(Debug)]
pub struct BvSolver {
    budget: Budget,
    stats: SolverStats,
    store: Option<Arc<dyn QueryStore>>,
    memo: FingerprintMemo,
    /// Whether cache misses are decided by a persistent [`SolverInstance`]
    /// (one per pool epoch) instead of a from-scratch bit-blast.
    incremental: bool,
    /// Whether the SAT core runs its layers around the search loop (on by
    /// default; see [`BvSolver::set_preprocessing`]).
    preprocess: bool,
    /// In incremental mode, start a fresh [`SolverInstance`] per checker
    /// fragment ([`BvSolver::begin_fragment`]) instead of sharing one across
    /// the whole pool/function.
    fragment_instances: bool,
    /// The subset of the last `Unsat` [`check`](BvSolver::check) call's
    /// assertion terms that its extracted assumption core maps back to —
    /// already unsatisfiable on their own. `None` after non-`Unsat` answers,
    /// store hits, and fresh-mode solves (no assumptions, so no assumption
    /// core).
    last_core_terms: Option<Vec<TermId>>,
    instance: Option<SolverInstance>,
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
            stats: SolverStats::default(),
            store: None,
            memo: FingerprintMemo::default(),
            incremental: false,
            preprocess: true,
            fragment_instances: false,
            last_core_terms: None,
            instance: None,
        }
    }

    /// Change the per-query budget.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
        if let Some(instance) = &mut self.instance {
            instance.set_budget(budget);
        }
    }

    /// Enable or disable incremental solving. When enabled, queries that miss
    /// the cache are decided by a persistent [`SolverInstance`] shared by
    /// every query against the same [`TermPool`]: each assertion is
    /// registered as an assumption literal on its first appearance — exactly
    /// once per pool, memoized — and toggled per query, so near-identical
    /// queries (the checker's Figure 8 minimization loop) stop paying
    /// repeated bit-blasting. The instance is replaced whenever the pool
    /// changes (in the checker: one instance per function).
    ///
    /// Registration is deliberately on-demand rather than up-front: encoding
    /// a function's full UB-condition set eagerly measured ~2× slower on
    /// miss-light workloads, because conditions that dominate no queried
    /// fragment were blasted (and then assigned by every Sat answer) for
    /// nothing.
    pub fn set_incremental(&mut self, incremental: bool) {
        self.incremental = incremental;
        if !incremental {
            self.instance = None;
        }
    }

    /// Builder-style variant of [`BvSolver::set_incremental`].
    pub fn with_incremental(mut self, incremental: bool) -> BvSolver {
        self.set_incremental(incremental);
        self
    }

    /// Enable or disable the SAT core's layers around the search loop (on
    /// by default): clause vivification between restarts, binary watch
    /// lists, trail reuse across assumption sets, and the model cache. Off
    /// leaves the plain CDCL loop — the benchmark baseline, reachable from
    /// the CLI as `--no-preprocess`.
    ///
    /// Decided (`Sat`/`Unsat`) answers are identical either way: vivified
    /// clauses are implied by the formula. Only where a propagation budget
    /// runs out — and therefore which queries degrade to `Unknown` — can
    /// differ between the two settings.
    pub fn set_preprocessing(&mut self, on: bool) {
        self.preprocess = on;
        if let Some(instance) = &mut self.instance {
            instance.set_preprocessing(on);
        }
    }

    /// Builder-style variant of [`BvSolver::set_preprocessing`].
    pub fn with_preprocessing(mut self, on: bool) -> BvSolver {
        self.set_preprocessing(on);
        self
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

    /// Choose the incremental instance granularity: `false` (default) keeps
    /// one [`SolverInstance`] per [`TermPool`] — in the checker, one per
    /// function — while `true` starts a fresh instance at every
    /// [`BvSolver::begin_fragment`] call. Per-fragment instances trade the
    /// shared encoding and learned clauses of the function-wide instance for
    /// smaller CNFs per query. Which wins depends on the workload (see
    /// `docs/ARCHITECTURE.md`); per-function is the default. Has no effect
    /// outside incremental mode.
    pub fn set_fragment_instances(&mut self, on: bool) {
        self.fragment_instances = on;
    }

    /// Builder-style variant of [`BvSolver::set_fragment_instances`].
    pub fn with_fragment_instances(mut self, on: bool) -> BvSolver {
        self.set_fragment_instances(on);
        self
    }

    /// Notify the solver that the checker is starting a new fragment. In
    /// incremental mode with per-fragment granularity
    /// ([`BvSolver::set_fragment_instances`]) this retires the current
    /// persistent instance so the fragment's queries start on a fresh one;
    /// in every other configuration it is a no-op.
    pub fn begin_fragment(&mut self) {
        if self.incremental && self.fragment_instances {
            self.instance = None;
        }
    }

    /// The persistent instance for `pool`, creating or replacing it as
    /// needed. Only meaningful in incremental mode.
    fn instance_for(&mut self, pool: &TermPool) -> &mut SolverInstance {
        let stale =
            !matches!(&self.instance, Some(i) if i.epoch().is_none_or(|e| e == pool.epoch()));
        if stale {
            let mut instance = SolverInstance::with_budget(self.budget);
            instance.set_preprocessing(self.preprocess);
            self.instance = Some(instance);
        }
        self.instance.as_mut().expect("instance just ensured")
    }

    /// Attach (or detach) a memoized query store, typically shared between
    /// several solvers via [`Arc`]. With a store attached, [`check`]
    /// consults it before bit-blasting and inserts every decided result;
    /// budget-exhausted `Unknown` results are never stored. Any
    /// [`QueryStore`] works: the in-memory [`QueryCache`](crate::cache::QueryCache) or the disk-backed
    /// [`DiskQueryStore`](crate::store::DiskQueryStore).
    ///
    /// [`check`]: BvSolver::check
    pub fn set_store(&mut self, store: Option<Arc<dyn QueryStore>>) {
        self.store = store;
    }

    /// Builder-style variant of [`BvSolver::set_store`].
    pub fn with_store(mut self, store: Arc<dyn QueryStore>) -> BvSolver {
        self.store = Some(store);
        self
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> SolverStats {
        self.stats
    }

    /// Reset the statistics counters.
    pub fn reset_stats(&mut self) {
        self.stats = SolverStats::default();
    }

    /// Check satisfiability of the conjunction of `assertions`.
    ///
    /// The query pipeline is: cheap pre-solve simplification (conjunction
    /// flattening, constant folding, complementary-literal propagation),
    /// then a lookup in the attached [`QueryCache`](crate::cache::QueryCache) (if any), and only on a
    /// miss the full bit-blast + CDCL run. Decided results of full runs are
    /// stored back into the cache.
    pub fn check(&mut self, pool: &TermPool, assertions: &[TermId]) -> QueryResult {
        self.stats.queries += 1;
        // A core is only meaningful for the query that produced it; anything
        // short of a fresh incremental `Unsat` solve leaves this `None`.
        self.last_core_terms = None;

        // Pre-solve simplification of the assertion conjunction.
        let mut simplified = match presimplify(pool, assertions) {
            Presimplified::Unsat(clash) => {
                self.stats.unsat += 1;
                // The clashing pair (or lone `false` conjunct) is an unsat
                // core at the assertion level; expose it so the checker's
                // minimization loop can seed from trivially-decided queries
                // exactly as it does from solved ones.
                self.last_core_terms = Some(clash);
                return QueryResult::Unsat;
            }
            Presimplified::Sat => {
                self.stats.sat += 1;
                return QueryResult::Sat(Model::new());
            }
            Presimplified::Open(list) => list,
        };

        // Canonicalize unconditionally (not just when a cache is attached):
        // blasting in fingerprint order makes a fresh-mode CNF — and with it
        // a budget-boundary `Unknown` — depend only on the assertion *set*,
        // so answering a later query from the cache can never disagree with
        // what recomputing it would have produced. That is what keeps
        // parallel, sequential, cached, and uncached runs byte-identical in
        // fresh (non-incremental) mode. Incremental mode weakens this:
        // decided results are still mode- and history-independent facts, but
        // an instance's CNF depends on which earlier queries reached it, so
        // budget-boundary `Unknown` outcomes (and anything derived from
        // them) are reproducible only when the store's contents at each
        // lookup are. The scan pipeline guarantees that at every `--jobs`
        // width (each task sees exactly what a sequential scan would);
        // several solvers sharing one store under `--threads` > 1 fill it
        // in timing order, and there the checker's `--no-incremental`
        // escape hatch restores the strict guarantee.
        let key = self.memo.canonicalize(pool, &mut simplified);
        let key = self.store.is_some().then_some(key);
        if let (Some(store), Some(key)) = (&self.store, &key) {
            if let Some(result) = store.lookup(key) {
                self.stats.cache_hits += 1;
                match &result {
                    QueryResult::Sat(model) => {
                        self.stats.sat += 1;
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
                    QueryResult::Unsat => self.stats.unsat += 1,
                    QueryResult::Unknown => unreachable!("Unknown is never cached"),
                }
                return result;
            }
            self.stats.cache_misses += 1;
        }

        let outcome = if self.incremental {
            self.solve_incremental(pool, &simplified)
        } else {
            self.solve_fresh(pool, &simplified)
        };
        if self.incremental && outcome.is_unsat() {
            // `solve_with` actually ran for this query (the store missed),
            // so the instance's `last_core` — if any — belongs to exactly
            // this assumption set and can be mapped back to assertion terms.
            self.last_core_terms = self.core_terms(assertions, &simplified);
        }
        match &outcome {
            QueryResult::Unsat => self.stats.unsat += 1,
            QueryResult::Unknown => self.stats.timeouts += 1,
            QueryResult::Sat(model) => {
                self.stats.sat += 1;
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

    /// Map the SAT-level assumption core of the last incremental `Unsat`
    /// back to assertion terms, conservatively: an assertion is dropped only
    /// when it provably sits outside the core — it survived presimplification
    /// as itself (so its registered literal *is* its assumption literal, not
    /// a literal hidden by flattening or dedup) and that literal is not in
    /// the core. Everything the mapping cannot account for stays in, which
    /// keeps the returned set unsatisfiable.
    fn core_terms(&self, assertions: &[TermId], simplified: &[TermId]) -> Option<Vec<TermId>> {
        let instance = self.instance.as_ref()?;
        let core = instance.last_core()?;
        let kept: Vec<TermId> = assertions
            .iter()
            .copied()
            .filter(|&t| {
                if !simplified.contains(&t) {
                    return true; // rewritten away; cannot attribute — keep
                }
                match instance.registered_literal(t) {
                    Some(l) => core.contains(&l),
                    None => true,
                }
            })
            .collect();
        Some(kept)
    }

    /// Decide a (pre-simplified) assertion set with a throwaway SAT instance:
    /// blast every assertion, assert its literal, solve once.
    fn solve_fresh(&mut self, pool: &TermPool, simplified: &[TermId]) -> QueryResult {
        let mut sat = SatSolver::new();
        sat.set_preprocessing(self.preprocess);
        let mut blaster = BitBlaster::new();
        for &a in simplified {
            let lit = blaster.blast_bool(pool, &mut sat, a);
            sat.add_clause(&[lit]);
        }
        let result = sat.solve_with(&[], self.budget);
        self.accumulate_sat_stats(&sat.stats());
        if matches!(result, SatResult::Unsat) {
            // Search work only: vivification is restart-time maintenance,
            // not a cost of answering Unsat.
            self.stats.unsat_propagations +=
                sat.stats().propagations - sat.stats().preprocess_propagations;
        }
        match result {
            SatResult::Unsat => QueryResult::Unsat,
            SatResult::Unknown => QueryResult::Unknown,
            SatResult::Sat => QueryResult::Sat(blaster.extract_model(&sat)),
        }
    }

    /// Fold a SAT core's counters into the aggregate statistics.
    fn accumulate_sat_stats(&mut self, sat: &crate::sat::SatStats) {
        self.stats.propagations += sat.propagations;
        self.stats.conflicts += sat.conflicts;
        self.stats.restarts += sat.restarts;
        self.stats.learned_clauses += sat.learned_clauses;
        self.stats.deleted_clauses += sat.deleted_clauses;
        self.stats.lbd_sum += sat.lbd_sum;
        self.stats.preprocess_eliminations += sat.preprocess_eliminations;
        self.stats.model_cache_hits += sat.model_cache_hits;
        self.stats.cores_recorded += sat.cores_recorded;
        self.stats.core_size_sum += sat.core_size_sum;
    }

    /// Decide a (pre-simplified) assertion set on the persistent instance for
    /// this pool: register each assertion as an assumption literal (a cache
    /// lookup for everything already encoded) and solve under assumptions.
    fn solve_incremental(&mut self, pool: &TermPool, simplified: &[TermId]) -> QueryResult {
        let instance = self.instance_for(pool);
        let (sat_before, inst_before) = (instance.sat_stats(), instance.stats());
        let outcome = instance.check_terms(pool, simplified);
        let (sat_after, inst_after) = (instance.sat_stats(), instance.stats());
        self.stats.propagations += sat_after.propagations - sat_before.propagations;
        if outcome.is_unsat() {
            // Charge search work only: restart-time vivification is
            // amortized maintenance, not a cost of the query that happened
            // to trigger it.
            let d = (sat_after.propagations - sat_before.propagations)
                - (sat_after.preprocess_propagations - sat_before.preprocess_propagations);
            self.stats.unsat_propagations += d;
        }
        self.stats.conflicts += sat_after.conflicts - sat_before.conflicts;
        self.stats.restarts += sat_after.restarts - sat_before.restarts;
        self.stats.learned_clauses += sat_after.learned_clauses - sat_before.learned_clauses;
        self.stats.deleted_clauses += sat_after.deleted_clauses - sat_before.deleted_clauses;
        self.stats.lbd_sum += sat_after.lbd_sum - sat_before.lbd_sum;
        self.stats.preprocess_eliminations +=
            sat_after.preprocess_eliminations - sat_before.preprocess_eliminations;
        self.stats.model_cache_hits += sat_after.model_cache_hits - sat_before.model_cache_hits;
        self.stats.cores_recorded += sat_after.cores_recorded - sat_before.cores_recorded;
        self.stats.core_size_sum += sat_after.core_size_sum - sat_before.core_size_sum;
        self.stats.incremental_queries += 1;
        self.stats.reused_clauses += inst_after.reused_clauses - inst_before.reused_clauses;
        outcome
    }

    /// Check whether a single boolean term is satisfiable.
    pub fn check_one(&mut self, pool: &TermPool, assertion: TermId) -> QueryResult {
        self.check(pool, &[assertion])
    }

    /// Check whether `a` and `b` are equivalent (i.e. `a != b` is UNSAT).
    /// Both terms must be boolean.
    pub fn equivalent(&mut self, pool: &mut TermPool, a: TermId, b: TermId) -> bool {
        let distinct = pool.xor(a, b);
        self.check_one(pool, distinct).is_unsat()
    }

    /// Check whether `assumption -> conclusion` is valid.
    pub fn implies(&mut self, pool: &mut TermPool, assumption: TermId, conclusion: TermId) -> bool {
        let not_conclusion = pool.not(conclusion);
        let counterexample = pool.and(assumption, not_conclusion);
        self.check_one(pool, counterexample).is_unsat()
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

/// Collect the free variables of a term (name and sort), in first-occurrence
/// order. Useful for diagnostics and for the property-test harness.
pub fn free_variables(pool: &TermPool, term: TermId) -> Vec<(String, Sort)> {
    let mut seen = std::collections::HashSet::new();
    let mut out = Vec::new();
    let mut stack = vec![term];
    let mut visited = std::collections::HashSet::new();
    while let Some(t) = stack.pop() {
        if !visited.insert(t) {
            continue;
        }
        match &pool.term(t).kind {
            TermKind::Var { name, sort } => {
                if seen.insert(name.clone()) {
                    out.push((name.clone(), *sort));
                }
            }
            TermKind::BoolConst(_) | TermKind::BvConst { .. } => {}
            TermKind::Not(a)
            | TermKind::BvNot(a)
            | TermKind::BvNeg(a)
            | TermKind::ZExt { value: a, .. }
            | TermKind::SExt { value: a, .. }
            | TermKind::Extract { value: a, .. } => stack.push(*a),
            TermKind::And(a, b)
            | TermKind::Or(a, b)
            | TermKind::Xor(a, b)
            | TermKind::Implies(a, b)
            | TermKind::Eq(a, b)
            | TermKind::BvAdd(a, b)
            | TermKind::BvSub(a, b)
            | TermKind::BvMul(a, b)
            | TermKind::BvUdiv(a, b)
            | TermKind::BvSdiv(a, b)
            | TermKind::BvUrem(a, b)
            | TermKind::BvSrem(a, b)
            | TermKind::BvAnd(a, b)
            | TermKind::BvOr(a, b)
            | TermKind::BvXor(a, b)
            | TermKind::BvShl(a, b)
            | TermKind::BvLshr(a, b)
            | TermKind::BvAshr(a, b)
            | TermKind::BvUlt(a, b)
            | TermKind::BvUle(a, b)
            | TermKind::BvSlt(a, b)
            | TermKind::BvSle(a, b)
            | TermKind::Concat(a, b) => {
                stack.push(*a);
                stack.push(*b);
            }
            TermKind::Ite(c, a, b) => {
                stack.push(*c);
                stack.push(*a);
                stack.push(*b);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert!(solver.check(&pool, &[check, no_ovf]).is_unsat());
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
        assert!(solver.equivalent(&mut pool, a, b));
        // x == 0 implies x <= 5 unsigned.
        let is_zero = pool.eq(x, zero);
        let five = pool.bv_const(8, 5);
        let le5 = pool.bv_ule(x, five);
        assert!(solver.implies(&mut pool, is_zero, le5));
        assert!(!solver.implies(&mut pool, le5, is_zero));
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
        let mut fresh = BvSolver::new();
        let mut incremental = BvSolver::new().with_incremental(true);
        for q in &queries {
            let a = fresh.check(&pool, q);
            let b = incremental.check(&pool, q);
            assert_eq!(a.is_sat(), b.is_sat(), "query {q:?}");
            assert_eq!(a.is_unsat(), b.is_unsat(), "query {q:?}");
        }
        let stats = incremental.stats();
        assert_eq!(stats.incremental_queries, queries.len() as u64);
        assert!(stats.reused_clauses > 0);
        assert_eq!(fresh.stats().incremental_queries, 0);
    }

    #[test]
    fn incremental_instance_is_replaced_per_pool() {
        let mut solver = BvSolver::new().with_incremental(true);
        for _ in 0..2 {
            let mut pool = TermPool::new();
            let x = pool.bv_var("x", 8);
            let zero = pool.bv_const(8, 0);
            let q = pool.bv_slt(x, zero);
            assert!(solver.check(&pool, &[q]).is_sat());
        }
        assert_eq!(solver.stats().incremental_queries, 2);
        // The second pool's query started on a fresh instance (no clause
        // carry-over across pools), so nothing was reused.
        assert_eq!(solver.stats().reused_clauses, 0);
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
